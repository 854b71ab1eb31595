//! The telemetry → metrics mapping: one [`Aggregator`] consumes the event
//! stream (live, as a [`Sink`]; offline, replayed from a parsed JSONL
//! trace) and folds it into a [`MetricsRegistry`]. Live `/metrics` scrapes
//! and `nofis-trace metrics` run this exact code, so the two views cannot
//! disagree on a given event stream.
//!
//! Naming scheme (DESIGN.md §15): every series is `nofis_`-prefixed,
//! snake_case, unit-suffixed (`_seconds`, `_total`), with low-cardinality
//! labels only (`outcome`, `priority`, `mode`, `rung`).

use crate::registry::{Counter, CounterMode, Gauge, MetricsRegistry};
use crate::Histogram;
use nofis_telemetry::trace::{TraceEvent, TraceValue};
use nofis_telemetry::{Event, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Observation: the common read-only view of live and replayed events
// ---------------------------------------------------------------------------

/// What the aggregator needs from an event — implemented by the live
/// [`Event`] and the trace-replay [`TraceEvent`], so both feed the same
/// [`Aggregator::observe`].
pub trait Observation {
    /// Dotted event name.
    fn name(&self) -> &str;
    /// Timestamp (telemetry-epoch µs).
    fn ts_us(&self) -> u64;
    /// Span duration, when the record is a span.
    fn duration_us(&self) -> Option<u64>;
    /// Numeric field (any numeric type coerced to f64).
    fn num(&self, key: &str) -> Option<f64>;
    /// Non-negative integral field.
    fn uint(&self, key: &str) -> Option<u64>;
    /// String field.
    fn text(&self, key: &str) -> Option<&str>;
    /// Boolean field.
    fn flag(&self, key: &str) -> Option<bool>;
}

impl Observation for Event {
    fn name(&self) -> &str {
        self.name
    }
    fn ts_us(&self) -> u64 {
        self.ts_us
    }
    fn duration_us(&self) -> Option<u64> {
        self.duration_us
    }
    fn num(&self, key: &str) -> Option<f64> {
        self.f64_field(key)
    }
    fn uint(&self, key: &str) -> Option<u64> {
        self.u64_field(key)
    }
    fn text(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
    fn flag(&self, key: &str) -> Option<bool> {
        self.bool_field(key)
    }
}

impl Observation for TraceEvent {
    fn name(&self) -> &str {
        &self.name
    }
    fn ts_us(&self) -> u64 {
        self.ts_us
    }
    fn duration_us(&self) -> Option<u64> {
        self.duration_us
    }
    fn num(&self, key: &str) -> Option<f64> {
        self.f64_field(key)
    }
    fn uint(&self, key: &str) -> Option<u64> {
        self.u64_field(key)
    }
    fn text(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            TraceValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
    fn flag(&self, key: &str) -> Option<bool> {
        self.bool_field(key)
    }
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

const US: f64 = 1e-6;

/// Folds telemetry events into a [`MetricsRegistry`]. Construction
/// eagerly registers every family (so a scrape that races the first event
/// still lists all series); `observe` touches only pre-resolved atomic
/// cells on hot names, falling back to the registry mutex for
/// low-frequency labeled series.
pub struct Aggregator {
    registry: Arc<MetricsRegistry>,
    // Hot, pre-resolved handles.
    events: Arc<Counter>,
    last_event_ts: Arc<Gauge>,
    train_steps: Arc<Counter>,
    oracle_granted: Arc<Counter>,
    budget_remaining: Arc<Gauge>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_inserts: Arc<Counter>,
    // Scheduler.
    jobs_submitted: Arc<Counter>,
    jobs_started: Arc<Counter>,
    job_retries: Arc<Counter>,
    jobs_evicted: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    jobs_active: Arc<Gauge>,
    workers_alive: Arc<Gauge>,
    job_seconds: Arc<Histogram>,
    job_attempts: Arc<Histogram>,
    // Train loop.
    stage_seconds: Arc<Histogram>,
    stage_step_seconds: Arc<Histogram>,
    loss_delta: Arc<Histogram>,
    rollbacks: Arc<Counter>,
    divergences: Arc<Counter>,
    warm_starts: Arc<Counter>,
    // Oracle / budget.
    oracle_calls: Arc<Counter>,
    budget_truncations: Arc<Counter>,
    // Estimation.
    estimate_seconds: Arc<Histogram>,
    estimate_ess: Arc<Histogram>,
    // Pool.
    pool_threads: Arc<Gauge>,
    pool_lanes: Arc<Gauge>,
    pool_runs: Arc<Counter>,
    pool_chunks: Arc<Counter>,
    autograd_pool_hits: Arc<Counter>,
    autograd_pool_misses: Arc<Counter>,
    // Sweep.
    sweep_warm_misses: Arc<Counter>,
    sweep_sims_saved: Arc<Counter>,
    // Faults / checkpoints / flight recorder.
    faults: Arc<Counter>,
    flight_dumps: Arc<Counter>,
    ckpt_writes: Arc<Counter>,
    ckpt_loads: Arc<Counter>,
    /// Last epoch loss per (job, stage), for the loss-delta histogram.
    /// Epoch events are per-epoch (not per-step), so a short mutex is
    /// fine here; it is not on the per-step path.
    last_epoch_loss: Mutex<HashMap<(u64, u64), f64>>,
}

impl Aggregator {
    /// Builds an aggregator over `registry`, registering every family.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let r = &registry;
        let delta = CounterMode::Delta;
        let absolute = CounterMode::Absolute;
        // Pre-register the labeled families' common instances so their
        // HELP/TYPE headers exist before the first matching event.
        for outcome in [
            "done",
            "shed",
            "deadline",
            "suspended",
            "panicked",
            "failed",
        ] {
            r.counter(
                "nofis_jobs_ended_total",
                "Jobs reaching a terminal state, by outcome.",
                delta,
                &[("outcome", outcome)],
            );
        }
        for mode in ["warm", "cold"] {
            r.counter(
                "nofis_sweep_corners_total",
                "Sweep corners finished, by warm/cold start mode.",
                delta,
                &[("mode", mode)],
            );
        }
        Aggregator {
            events: r.counter("nofis_events_total", "Telemetry events aggregated.", delta, &[]),
            last_event_ts: r.gauge(
                "nofis_last_event_ts_seconds",
                "Timestamp of the newest telemetry event (seconds since the process telemetry epoch) — the liveness watermark /healthz compares against.",
            ),
            train_steps: r.counter("nofis_train_steps_total", "Optimizer steps taken.", delta, &[]),
            oracle_granted: r.counter(
                "nofis_oracle_granted_total",
                "Simulator calls granted by the budgeted oracle.",
                delta,
                &[],
            ),
            budget_remaining: r.gauge(
                "nofis_oracle_budget_remaining",
                "Simulator calls left in the budgeted oracle.",
            ),
            cache_hits: r.counter("nofis_oracle_cache_hits_total", "Oracle cache hits.", delta, &[]),
            cache_misses: r.counter(
                "nofis_oracle_cache_misses_total",
                "Oracle cache misses.",
                delta,
                &[],
            ),
            cache_inserts: r.counter(
                "nofis_oracle_cache_inserts_total",
                "Oracle cache inserts.",
                delta,
                &[],
            ),
            jobs_submitted: r.counter("nofis_jobs_submitted_total", "Jobs submitted.", delta, &[]),
            jobs_started: r.counter(
                "nofis_jobs_started_total",
                "Job attempts started (admissions to a worker).",
                delta,
                &[],
            ),
            job_retries: r.counter("nofis_job_retries_total", "Job retry re-queues.", delta, &[]),
            jobs_evicted: r.counter(
                "nofis_jobs_evicted_total",
                "Queued jobs evicted by a higher-priority newcomer.",
                delta,
                &[],
            ),
            queue_depth: r.gauge("nofis_queue_depth", "Jobs waiting in the runner queue."),
            jobs_active: r.gauge("nofis_jobs_active", "Jobs currently executing."),
            workers_alive: r.gauge("nofis_workers_alive", "Live job-runner worker threads."),
            job_seconds: r.histogram("nofis_job_seconds", "Job attempt wall time in seconds."),
            job_attempts: r.histogram(
                "nofis_job_attempts",
                "Attempts per terminal job (1 = first try).",
            ),
            stage_seconds: r.histogram("nofis_stage_seconds", "Training stage wall time in seconds."),
            stage_step_seconds: r.histogram(
                "nofis_stage_step_seconds",
                "Per-stage mean optimizer-step time in seconds (stage wall time / steps).",
            ),
            loss_delta: r.histogram(
                "nofis_train_loss_delta",
                "Absolute epoch-to-epoch training-loss change.",
            ),
            rollbacks: r.counter("nofis_train_rollbacks_total", "Stage rollbacks after divergence.", delta, &[]),
            divergences: r.counter("nofis_train_divergences_total", "Divergent epochs detected.", delta, &[]),
            warm_starts: r.counter("nofis_train_warm_starts_total", "Runs warm-started from a donor.", delta, &[]),
            oracle_calls: r.counter(
                "nofis_oracle_calls_total",
                "Cumulative simulator calls (emitter-reported running total).",
                absolute,
                &[],
            ),
            budget_truncations: r.counter(
                "nofis_oracle_budget_truncations_total",
                "Budget grants truncated by the hard cap.",
                delta,
                &[],
            ),
            estimate_seconds: r.histogram(
                "nofis_estimate_seconds",
                "Importance-sampling estimation wall time in seconds.",
            ),
            estimate_ess: r.histogram(
                "nofis_estimate_ess",
                "Effective sample size per estimation rung.",
            ),
            pool_threads: r.gauge("nofis_pool_threads", "Worker-pool execution lanes."),
            pool_lanes: r.gauge(
                "nofis_pool_lanes_in_use",
                "Lane-guard registrations currently active on the shared pool.",
            ),
            pool_runs: r.counter(
                "nofis_pool_runs_total",
                "Parallel regions run (emitter-reported running total).",
                absolute,
                &[],
            ),
            pool_chunks: r.counter(
                "nofis_pool_chunks_total",
                "Parallel chunks dispatched (emitter-reported running total).",
                absolute,
                &[],
            ),
            autograd_pool_hits: r.counter(
                "nofis_autograd_pool_hits_total",
                "Autograd buffer-pool hits (emitter-reported running total).",
                absolute,
                &[],
            ),
            autograd_pool_misses: r.counter(
                "nofis_autograd_pool_misses_total",
                "Autograd buffer-pool misses (emitter-reported running total).",
                absolute,
                &[],
            ),
            sweep_warm_misses: r.counter(
                "nofis_sweep_warm_misses_total",
                "Sweep corners that fell back to a cold start.",
                delta,
                &[],
            ),
            sweep_sims_saved: r.counter(
                "nofis_sweep_sims_saved_total",
                "Simulator calls avoided by the sweep oracle cache.",
                delta,
                &[],
            ),
            faults: r.counter("nofis_faults_injected_total", "Injected faults fired.", delta, &[]),
            flight_dumps: r.counter("nofis_flight_dumps_total", "Flight-recorder dumps written.", delta, &[]),
            ckpt_writes: r.counter("nofis_checkpoint_writes_total", "Checkpoints written.", delta, &[]),
            ckpt_loads: r.counter("nofis_checkpoint_loads_total", "Checkpoints loaded (resumes).", delta, &[]),
            last_epoch_loss: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// The registry this aggregator writes into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Folds one event in. Unrecognized names still count into
    /// `nofis_events_total` and advance the liveness watermark.
    pub fn observe<O: Observation + ?Sized>(&self, ev: &O) {
        self.events.inc();
        self.last_event_ts.set(ev.ts_us() as f64 * US, ev.ts_us());
        match ev.name() {
            "train.step" => self.train_steps.inc(),
            "budget.grant" => {
                if let Some(granted) = ev.uint("granted") {
                    self.oracle_granted.record(granted);
                }
            }
            "budget.remaining" => {
                if let Some(v) = ev.num("value") {
                    self.budget_remaining.set(v, ev.ts_us());
                }
            }
            "budget.truncated" => self.budget_truncations.inc(),
            "cache.hit" => self.cache_hits.record(ev.uint("value").unwrap_or(1)),
            "cache.miss" => self.cache_misses.record(ev.uint("value").unwrap_or(1)),
            "cache.insert" => self.cache_inserts.record(ev.uint("value").unwrap_or(1)),
            "train.stage" => {
                if let Some(d) = ev.duration_us() {
                    self.stage_seconds.observe(d as f64 * US);
                    if let Some(steps) = ev.uint("steps").filter(|s| *s > 0) {
                        self.stage_step_seconds
                            .observe(d as f64 * US / steps as f64);
                    }
                }
            }
            "train.epoch" => {
                if let (Some(loss), Some(stage)) = (ev.num("loss"), ev.uint("stage")) {
                    let job = ev.uint("job").unwrap_or(0);
                    let mut last = self
                        .last_epoch_loss
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    if let Some(prev) = last.insert((job, stage), loss) {
                        self.loss_delta.observe((loss - prev).abs());
                    }
                }
            }
            "train.rollback" => self.rollbacks.inc(),
            "train.divergence" => self.divergences.inc(),
            "train.warm_start" => self.warm_starts.inc(),
            "oracle.calls" => {
                if let Some(v) = ev.uint("value") {
                    self.oracle_calls.record(v);
                }
            }
            "estimate" => {
                if let Some(d) = ev.duration_us() {
                    self.estimate_seconds.observe(d as f64 * US);
                }
            }
            "estimate.rung" => {
                if let Some(ess) = ev.num("ess") {
                    self.estimate_ess.observe(ess);
                }
                if let Some(rung) = ev.text("rung") {
                    self.registry
                        .counter(
                            "nofis_estimate_rungs_total",
                            "Estimation ladder rungs run, by rung.",
                            CounterMode::Delta,
                            &[("rung", rung)],
                        )
                        .inc();
                }
            }
            "job.submit" => self.jobs_submitted.inc(),
            "job.start" => self.jobs_started.inc(),
            "job.retry" => self.job_retries.inc(),
            "job.end" => {
                let outcome = ev.text("outcome").unwrap_or("unknown");
                self.registry
                    .counter(
                        "nofis_jobs_ended_total",
                        "Jobs reaching a terminal state, by outcome.",
                        CounterMode::Delta,
                        &[("outcome", outcome)],
                    )
                    .inc();
                // Unlabeled aggregate plus a per-priority breakdown when
                // the event carries one (priorities are a small u8 space,
                // so cardinality stays bounded).
                let prio = ev.uint("priority").map(|p| p.to_string());
                if let Some(ms) = ev.num("wall_ms") {
                    self.job_seconds.observe(ms * 1e-3);
                    if let Some(p) = &prio {
                        self.registry
                            .histogram_with(
                                "nofis_job_seconds",
                                "Job attempt wall time in seconds.",
                                &[("priority", p)],
                            )
                            .observe(ms * 1e-3);
                    }
                }
                if let Some(attempts) = ev.uint("attempts").filter(|a| *a > 0) {
                    self.job_attempts.observe(attempts as f64);
                    if let Some(p) = &prio {
                        self.registry
                            .histogram_with(
                                "nofis_job_attempts",
                                "Attempts per terminal job (1 = first try).",
                                &[("priority", p)],
                            )
                            .observe(attempts as f64);
                    }
                }
            }
            "sched.evicted" => self.jobs_evicted.inc(),
            "queue.depth" => {
                if let Some(v) = ev.num("value") {
                    self.queue_depth.set(v, ev.ts_us());
                }
            }
            "jobs.active" => {
                if let Some(v) = ev.num("value") {
                    self.jobs_active.set(v, ev.ts_us());
                }
            }
            "workers.alive" => {
                if let Some(v) = ev.num("value") {
                    self.workers_alive.set(v, ev.ts_us());
                }
            }
            "parallel.pool.init" => {
                if let Some(t) = ev.uint("threads") {
                    self.pool_threads.set(t as f64, ev.ts_us());
                }
            }
            "parallel.lanes" => {
                if let Some(v) = ev.num("value") {
                    self.pool_lanes.set(v, ev.ts_us());
                }
            }
            "parallel.runs" => {
                if let Some(v) = ev.uint("value") {
                    self.pool_runs.record(v);
                }
            }
            "parallel.chunks" => {
                if let Some(v) = ev.uint("value") {
                    self.pool_chunks.record(v);
                }
            }
            "autograd.pool.hits" => {
                if let Some(v) = ev.uint("value") {
                    self.autograd_pool_hits.record(v);
                }
            }
            "autograd.pool.misses" => {
                if let Some(v) = ev.uint("value") {
                    self.autograd_pool_misses.record(v);
                }
            }
            "sweep.corner" => {
                let mode = if ev.flag("warm") == Some(true) {
                    "warm"
                } else {
                    "cold"
                };
                self.registry
                    .counter(
                        "nofis_sweep_corners_total",
                        "Sweep corners finished, by warm/cold start mode.",
                        CounterMode::Delta,
                        &[("mode", mode)],
                    )
                    .inc();
                if let (Some(evals), Some(real)) = (ev.uint("evals"), ev.uint("real_calls")) {
                    self.sweep_sims_saved.record(evals.saturating_sub(real));
                }
            }
            "sweep.warm_miss" => self.sweep_warm_misses.inc(),
            "fault.injected" => self.faults.inc(),
            "flight.dump" => self.flight_dumps.inc(),
            "ckpt.write" => self.ckpt_writes.inc(),
            "ckpt.load" => self.ckpt_loads.inc(),
            _ => {}
        }
    }

    /// Liveness/health summary for `/healthz` (see DESIGN.md §15).
    /// `now_us` is the probe time on the telemetry clock
    /// ([`nofis_telemetry::now_us`]).
    pub fn health(&self, now_us: u64) -> Health {
        let queue_depth = self.queue_depth.get();
        let jobs_active = self.jobs_active.get();
        let workers_alive = self.workers_alive.get();
        let workers_known = self.workers_alive.last_ts_us() > 0;
        let last_event_us = self.last_event_ts.last_ts_us();
        let stalled_us = now_us.saturating_sub(last_event_us);
        // Wedged: work is waiting, nothing is running, and the event
        // stream has been silent for 30s — or every worker thread died
        // while jobs queue behind them.
        let stalled = queue_depth > 0.0 && jobs_active == 0.0 && stalled_us > 30_000_000;
        let wedged = stalled || (workers_known && workers_alive == 0.0 && queue_depth > 0.0);
        Health {
            healthy: !wedged,
            workers_alive: workers_alive as u64,
            queue_depth: queue_depth as u64,
            jobs_active: jobs_active as u64,
            last_event_us,
        }
    }
}

impl nofis_telemetry::Sink for Aggregator {
    fn min_level(&self) -> nofis_telemetry::Level {
        // Trace: the budget gauge and cache counters live at Trace, and
        // per-sink filtering keeps this from widening other sinks.
        nofis_telemetry::Level::Trace
    }

    fn record(&self, ev: &Event) {
        self.observe(ev);
    }
}

/// What `/healthz` reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    /// False when the runner looks wedged (see [`Aggregator::health`]).
    pub healthy: bool,
    /// Live worker threads (0 when no runner registered them).
    pub workers_alive: u64,
    /// Queued jobs.
    pub queue_depth: u64,
    /// Executing jobs.
    pub jobs_active: u64,
    /// Telemetry-epoch µs of the newest event (the progress watermark).
    pub last_event_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_telemetry::{Kind, Level};

    fn ev(name: &'static str, fields: Vec<(&'static str, Value)>) -> Event {
        Event {
            ts_us: 1000,
            kind: Kind::Event,
            level: Level::Info,
            name,
            fields,
            duration_us: None,
        }
    }

    #[test]
    fn maps_scheduler_events() {
        let agg = Aggregator::new(Arc::new(MetricsRegistry::new()));
        agg.observe(&ev("job.submit", vec![("job", Value::U64(1))]));
        agg.observe(&ev("queue.depth", vec![("value", Value::F64(3.0))]));
        agg.observe(&ev("jobs.active", vec![("value", Value::F64(2.0))]));
        agg.observe(&ev(
            "job.end",
            vec![
                ("outcome", Value::Str("done".into())),
                ("attempts", Value::U64(2)),
                ("wall_ms", Value::F64(120.0)),
            ],
        ));
        let text = agg.registry().render_prometheus();
        assert!(text.contains("nofis_jobs_submitted_total 1"));
        assert!(text.contains("nofis_queue_depth 3"));
        assert!(text.contains("nofis_jobs_active 2"));
        assert!(text.contains("nofis_jobs_ended_total{outcome=\"done\"} 1"));
        assert!(text.contains("nofis_job_seconds_count 1"));
        assert!(text.contains("nofis_job_attempts_count 1"));
    }

    #[test]
    fn maps_train_and_oracle_events() {
        let agg = Aggregator::new(Arc::new(MetricsRegistry::new()));
        let mut stage = ev(
            "train.stage",
            vec![("stage", Value::U64(1)), ("steps", Value::U64(50))],
        );
        stage.kind = Kind::Span;
        stage.duration_us = Some(500_000);
        agg.observe(&stage);
        agg.observe(&ev(
            "train.epoch",
            vec![("stage", Value::U64(1)), ("loss", Value::F64(2.0))],
        ));
        agg.observe(&ev(
            "train.epoch",
            vec![("stage", Value::U64(1)), ("loss", Value::F64(1.25))],
        ));
        agg.observe(&ev("budget.remaining", vec![("value", Value::F64(900.0))]));
        agg.observe(&ev("cache.hit", vec![("value", Value::U64(1))]));
        agg.observe(&ev(
            "estimate.rung",
            vec![
                ("rung", Value::Str("final_proposal".into())),
                ("ess", Value::F64(250.0)),
            ],
        ));
        let snap = agg.registry().snapshot();
        let text = snap.render_prometheus();
        assert!(text.contains("nofis_stage_seconds_count 1"));
        assert!(text.contains("nofis_stage_step_seconds_count 1"));
        assert!(text.contains("nofis_oracle_budget_remaining 900"));
        assert!(text.contains("nofis_oracle_cache_hits_total 1"));
        assert!(text.contains("nofis_estimate_rungs_total{rung=\"final_proposal\"} 1"));
        assert!(text.contains("nofis_train_loss_delta_count 1"));
        assert!(text.contains("nofis_estimate_ess_count 1"));
    }

    #[test]
    fn required_series_exist_before_any_event() {
        let agg = Aggregator::new(Arc::new(MetricsRegistry::new()));
        let text = agg.registry().render_prometheus();
        for required in [
            "nofis_jobs_active",
            "nofis_stage_step_seconds",
            "nofis_oracle_budget_remaining",
            "nofis_queue_depth",
            "nofis_workers_alive",
        ] {
            assert!(text.contains(required), "missing {required}");
        }
    }

    #[test]
    fn health_flags_a_wedged_queue() {
        let agg = Aggregator::new(Arc::new(MetricsRegistry::new()));
        agg.observe(&ev("queue.depth", vec![("value", Value::F64(4.0))]));
        agg.observe(&ev("jobs.active", vec![("value", Value::F64(0.0))]));
        let fresh = agg.health(2_000);
        assert!(fresh.healthy, "recent events: not wedged");
        let stale = agg.health(1000 + 31_000_000);
        assert!(!stale.healthy, "silent 31s with queued work: wedged");
        assert_eq!(stale.queue_depth, 4);
        // Dead workers with queued work is also unhealthy.
        agg.observe(&ev("workers.alive", vec![("value", Value::F64(0.0))]));
        assert!(!agg.health(3_000).healthy);
    }
}
