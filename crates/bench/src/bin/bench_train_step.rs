//! Overhead gates for the per-step instrumentation of NOFIS training.
//!
//! ```text
//! bench_train_step [--smoke]
//! bench_train_step --assert-telemetry-overhead [--smoke]
//! bench_train_step --assert-checkpoint-overhead [--smoke]
//! bench_train_step --assert-metrics-overhead [--smoke]
//! ```
//!
//! Each gate times the training loop's steady-state step and bounds one
//! instrumentation site against it. `--assert-telemetry-overhead` bounds
//! the per-step telemetry site with telemetry disabled (the site then
//! costs one relaxed atomic load), `--assert-checkpoint-overhead` the
//! disabled checkpoint site and `--assert-metrics-overhead` the metrics
//! aggregation sink; each asserts the site adds under 1% to the step.
//! Without a gate flag the binary prints the steady-state step time.
//!
//! The timed step is the one training runs in a late stage: the frozen
//! prefix through the tape-free kernel, the live block on the tape, the
//! oracle term across the pool, backward and fused Adam.

use nofis_autograd::{Graph, ParamStore};
use nofis_flows::RealNvp;
use nofis_nn::Adam;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The timed step shape: stage 3 of a two-layers-per-stage flow with
/// narrow conditioner nets and minibatch 32. The tape bookkeeping is a
/// large share of so small a step, which makes it the worst case for the
/// relative overhead of a fixed-cost site.
const DIM: usize = 4;
const LAYERS: usize = 6;
const FROZEN_LAYERS: usize = 4;
const HIDDEN: usize = 16;
const BATCH: usize = 32;

fn lcg_fill(buf: &mut [f64], seed: u64) {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for v in buf.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

/// The benchmark's stand-in oracle: a linear limit-state with an exact
/// gradient.
fn oracle(row: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; row.len()];
    grad[0] = -1.0;
    (1.0 - row[0], grad)
}

/// A randomized flow, its optimizer and the reused buffers of the
/// tape-free prefix.
struct TrainStep {
    store: ParamStore,
    flow: RealNvp,
    opt: Adam,
    rows: Vec<f64>,
    prefix_ld: Vec<f64>,
}

impl TrainStep {
    fn new() -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(97);
        let flow = RealNvp::new(&mut store, DIM, LAYERS, HIDDEN, 2.0, &mut rng);
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        for id in ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v += rng.gen_range(-0.2..0.2);
            }
        }
        TrainStep {
            store,
            flow,
            opt: Adam::new(1e-3).with_max_grad_norm(Some(5.0)),
            rows: vec![0.0; BATCH * DIM],
            prefix_ld: vec![0.0; BATCH],
        }
    }

    /// One NOFIS training step on `g`: the frozen prefix tape-free, the
    /// live block taped, tempered oracle term, base log-density term,
    /// log-det term, backward, fused Adam. Returns the loss.
    fn run(&mut self, g: &mut Graph, seed: u64) -> f64 {
        let pool = nofis_parallel::global();
        g.reset();
        lcg_fill(&mut self.rows, seed);
        self.flow.forward_rows(
            &self.store,
            0..FROZEN_LAYERS,
            &mut self.rows,
            &mut self.prefix_ld,
            pool,
        );
        let x = g.constant_from_slice(BATCH, DIM, &self.rows);
        let ld = g.constant_from_slice(BATCH, 1, &self.prefix_ld);
        let (z, logdet) =
            self.flow
                .forward_graph_layers(&self.store, g, x, Some(ld), FROZEN_LAYERS..LAYERS);
        let gvals = g.external_rowwise_par(z, pool, oracle);
        let tempered = g.min_scalar(gvals, 0.0);
        let sq = g.square(z);
        let ssq = g.sum_cols(sq);
        let half = g.scale(ssq, -0.5);
        let a = g.add(logdet, tempered);
        let per_sample = g.add(a, half);
        let mean = g.mean_all(per_sample);
        let loss = g.neg(mean);
        g.backward(loss);
        self.opt.step_fused(&mut self.store, g);
        g.value(loss).item()
    }
}

/// The per-step telemetry site of `nofis_core`'s training loop, replicated
/// field-for-field so the overhead lane pays exactly what production steps
/// pay when telemetry is disabled (one relaxed atomic load in
/// `enabled()`).
#[inline(never)]
fn telemetry_step_site(stage: usize, epoch: usize, n: usize, loss: f64, grad_norm: Option<f64>) {
    use nofis_telemetry as tele;
    if tele::enabled(tele::Level::Trace) {
        let mut step = tele::event(tele::Level::Trace, "train.step")
            .field("stage", stage)
            .field("epoch", epoch)
            .field("n", n)
            .field("loss", loss);
        if let Some(norm) = grad_norm {
            step = step.field("grad_norm", norm);
        }
        step.emit();
    }
}

/// Steady-state ns per training step, the cheapest step shape and so the
/// worst case for *relative* site overhead: adaptive window length,
/// minimum of three windows.
fn steady_step_ns(smoke: bool) -> f64 {
    let mut step = TrainStep::new();
    let mut g = Graph::new();
    let mut next_seed = 0u64;
    for _ in 0..16 {
        assert!(step.run(&mut g, next_seed).is_finite());
        next_seed += 1;
    }

    let min_ms = if smoke { 30 } else { 150 };
    let mut steps = 16u64;
    let step_window = loop {
        let t = Instant::now();
        for _ in 0..steps {
            step.run(&mut g, next_seed);
            next_seed += 1;
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= min_ms || steps >= 1 << 20 {
            break elapsed;
        }
        steps *= 2;
    };
    let mut best_step = step_window;
    for _ in 0..2 {
        let t = Instant::now();
        for _ in 0..steps {
            step.run(&mut g, next_seed);
            next_seed += 1;
        }
        best_step = best_step.min(t.elapsed());
    }
    best_step.as_nanos() as f64 / steps as f64
}

/// Checks that disabled telemetry adds under 1% to the steady-state step.
///
/// A whole-step A/B comparison cannot resolve this: the true cost is a
/// relaxed atomic load (~1 ns) against a ~10⁵ ns step, far below a shared
/// host's run-to-run timing noise (observed at ±3–5%). Instead each factor
/// is measured where it is measurable: the step time from timed step
/// windows, the disabled-site cost from a tight loop over millions of
/// invocations of the *exact* replicated site — then the ratio is
/// asserted. A generous `SITES_PER_STEP` multiplier covers every disabled
/// `enabled()` check a production step can reach (the `train.step` site
/// plus budget/epoch/stage sites amortized over the minibatch loop).
fn assert_telemetry_overhead(smoke: bool) {
    assert!(
        !nofis_telemetry::enabled(nofis_telemetry::Level::Error),
        "telemetry must be disabled for the overhead check"
    );
    const SITES_PER_STEP: f64 = 16.0;
    let step_ns = steady_step_ns(smoke);

    // Disabled-site cost: tight loop, black_box keeps the inputs and the
    // call alive. Minimum of three windows.
    let site_iters: u64 = if smoke { 2_000_000 } else { 10_000_000 };
    let mut best_site = std::time::Duration::MAX;
    let mut loss = 0.5f64;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..site_iters {
            loss = std::hint::black_box(loss) + 1e-12;
            telemetry_step_site(3, std::hint::black_box(i as usize), BATCH, loss, Some(5.0));
        }
        best_site = best_site.min(t.elapsed());
    }
    std::hint::black_box(loss);
    let site_ns = best_site.as_nanos() as f64 / site_iters as f64;

    let overhead = SITES_PER_STEP * site_ns / step_ns;
    println!(
        "telemetry overhead (disabled): {step_ns:.0} ns/step, {site_ns:.2} ns/site \
         x {SITES_PER_STEP} sites/step = {:+.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "disabled telemetry sites add {:.4}% (>1%) to the training step",
        overhead * 100.0
    );
    println!("OK: disabled telemetry adds <1% to bench_train_step");
}

/// The per-step checkpoint site of `nofis_core`'s training loop with
/// checkpointing *disabled* (`NofisConfig::checkpoint == None`), replicated
/// shape-for-shape: one `Option` discriminant check per optimizer step,
/// plus the `due()` modulo when a checkpointer exists. The disabled lane —
/// the one the <1% contract covers — takes only the `None` branch.
#[inline(never)]
fn checkpoint_step_site(every_steps: &mut Option<u64>, global_step: u64) -> bool {
    if let Some(every) = every_steps.as_mut() {
        global_step.is_multiple_of(*every)
    } else {
        false
    }
}

/// Checks that disabled checkpointing adds under 1% to the steady-state
/// training step, with the same measure-each-factor-where-it-is-measurable
/// methodology as [`assert_telemetry_overhead`]: the step time from timed
/// step windows, the disabled-site cost from a tight loop over the exact
/// replicated site, then the asserted ratio. `SITES_PER_STEP` is generous
/// — the production loop runs ONE due-check per optimizer step.
fn assert_checkpoint_overhead(smoke: bool) {
    const SITES_PER_STEP: f64 = 4.0;
    let step_ns = steady_step_ns(smoke);

    let site_iters: u64 = if smoke { 2_000_000 } else { 10_000_000 };
    let mut best_site = std::time::Duration::MAX;
    let mut due = 0u64;
    for _ in 0..3 {
        let mut disabled: Option<u64> = None;
        let t = Instant::now();
        for i in 0..site_iters {
            let cp = std::hint::black_box(&mut disabled);
            if checkpoint_step_site(cp, std::hint::black_box(i)) {
                due += 1;
            }
        }
        best_site = best_site.min(t.elapsed());
    }
    std::hint::black_box(due);
    let site_ns = best_site.as_nanos() as f64 / site_iters as f64;

    let overhead = SITES_PER_STEP * site_ns / step_ns;
    println!(
        "checkpoint overhead (disabled): {step_ns:.0} ns/step, {site_ns:.2} ns/site \
         x {SITES_PER_STEP} sites/step = {:+.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "disabled checkpoint sites add {:.4}% (>1%) to the training step",
        overhead * 100.0
    );
    println!("OK: disabled checkpointing adds <1% to bench_train_step");
}

/// One aggregation-sink fold, replicated as a standalone site: what
/// `nofis-metrics` adds *per telemetry event* on top of the event
/// dispatch every other sink already pays.
#[inline(never)]
fn metrics_step_site(agg: &nofis_metrics::Aggregator, ev: &nofis_telemetry::Event) {
    use nofis_telemetry::Sink;
    agg.record(ev);
}

/// Checks that the metrics aggregation sink adds under 1% to the
/// steady-state training step, with the same
/// measure-each-factor-where-it-is-measurable methodology as
/// [`assert_telemetry_overhead`]: the step time from timed step windows,
/// the per-event fold cost from a tight loop over pre-built events
/// (event *construction* is the telemetry layer's cost, covered by its
/// own assertion — this one isolates the marginal cost of aggregating),
/// then the asserted ratio. `EVENTS_PER_STEP` is generous: a steady-state
/// optimizer step emits one `train.step` plus amortized budget/cache
/// records.
fn assert_metrics_overhead(smoke: bool) {
    use nofis_telemetry::{Event, Kind, Level, Value};
    const EVENTS_PER_STEP: f64 = 8.0;
    let step_ns = steady_step_ns(smoke);

    // Per-event fold cost over the hot names a training step emits: the
    // step event itself, a budget gauge, and two cache counters.
    let agg =
        nofis_metrics::Aggregator::new(std::sync::Arc::new(nofis_metrics::MetricsRegistry::new()));
    let events = [
        Event {
            ts_us: 1,
            kind: Kind::Event,
            level: Level::Trace,
            name: "train.step",
            fields: vec![
                ("stage", Value::U64(3)),
                ("epoch", Value::U64(7)),
                ("n", Value::U64(64)),
                ("loss", Value::F64(0.5)),
            ],
            duration_us: None,
        },
        Event {
            ts_us: 2,
            kind: Kind::Gauge,
            level: Level::Trace,
            name: "budget.remaining",
            fields: vec![("value", Value::F64(1234.0))],
            duration_us: None,
        },
        Event {
            ts_us: 3,
            kind: Kind::Counter,
            level: Level::Trace,
            name: "cache.hit",
            fields: vec![("value", Value::U64(1))],
            duration_us: None,
        },
        Event {
            ts_us: 4,
            kind: Kind::Counter,
            level: Level::Trace,
            name: "cache.miss",
            fields: vec![("value", Value::U64(1))],
            duration_us: None,
        },
    ];
    let site_iters: u64 = if smoke { 2_000_000 } else { 10_000_000 };
    let mut best_site = std::time::Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..site_iters {
            let ev = std::hint::black_box(&events[(i % 4) as usize]);
            metrics_step_site(&agg, ev);
        }
        best_site = best_site.min(t.elapsed());
    }
    let site_ns = best_site.as_nanos() as f64 / site_iters as f64;

    let overhead = EVENTS_PER_STEP * site_ns / step_ns;
    println!(
        "metrics overhead (aggregation sink): {step_ns:.0} ns/step, {site_ns:.2} ns/event \
         x {EVENTS_PER_STEP} events/step = {:+.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "metrics aggregation adds {:.4}% (>1%) to the training step",
        overhead * 100.0
    );
    println!("OK: metrics aggregation adds <1% to bench_train_step");
}

fn main() {
    let mut smoke = false;
    let mut overhead_check = false;
    let mut ckpt_overhead_check = false;
    let mut metrics_overhead_check = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--assert-telemetry-overhead" => overhead_check = true,
            "--assert-checkpoint-overhead" => ckpt_overhead_check = true,
            "--assert-metrics-overhead" => metrics_overhead_check = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if overhead_check {
        assert_telemetry_overhead(smoke);
    } else if ckpt_overhead_check {
        assert_checkpoint_overhead(smoke);
    } else if metrics_overhead_check {
        assert_metrics_overhead(smoke);
    } else {
        println!(
            "train step (dim {DIM}, layers {FROZEN_LAYERS} tape-free + {} taped, hidden {HIDDEN}, \
             batch {BATCH}, {} threads): {:.0} ns/step",
            LAYERS - FROZEN_LAYERS,
            nofis_parallel::global().threads(),
            steady_step_ns(smoke)
        );
    }
}
