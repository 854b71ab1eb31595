//! The four workloads and one solve of each.

use crate::trace::{self, Recorder, TracedFamily, TracedOracle};
use nofis::core::{Levels, Nofis, NofisConfig, TrainedNofis};
use nofis::parallel::PoolUsage;
use nofis::prob::{log_error, BudgetedOracle, CountingOracle, LimitState, Proposal};
use nofis::sweep::{run_sweep, CornerOracle, SweepConfig};
use nofis::testcases::{CornerFamily, Opamp, PvtGrid, YBranchCase};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The seed the `table1` harness gives its first op-amp run
/// (`1000 + 1000·6`); also the benchmark's default workload seed.
pub const TABLE1_SEED: u64 = 7_000;
/// What `table1 --only-nofis --runs 1 --cases opamp` prints for that run.
const TABLE1_OPAMP_CALLS: u64 = 45_300;
const TABLE1_OPAMP_LOG_ERROR_MILLI: i64 = 239;

/// Y-branch epochs per stage, cut from Table 1's 20 so one solve fits a
/// run; the ladder and flow shape are Table 1's.
const YBRANCH_EPOCHS: usize = 1;
/// Rows drawn (and scored) by the post-solve proposal probe.
pub const PROBE_ROWS: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpampTable1,
    OpampNis20k,
    YbranchBpm,
    PvtSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OpampTable1,
        Workload::OpampNis20k,
        Workload::YbranchBpm,
        Workload::PvtSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpampTable1 => "opamp-table1",
            Workload::OpampNis20k => "opamp-nis20k",
            Workload::YbranchBpm => "ybranch-bpm",
            Workload::PvtSweep => "pvt-sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Solves, one per seed, that every run completes however long they
    /// take. Counts and quality are averaged over exactly these, so they
    /// do not depend on how many solves fit in the run.
    pub fn counted_solves(self) -> usize {
        match self {
            Workload::OpampTable1 => 15,
            Workload::OpampNis20k => 3,
            Workload::YbranchBpm => 2,
            Workload::PvtSweep => 8,
        }
    }
}

/// Seed of the `j`-th distinct solve of a run with workload seed `seed`.
/// Matches `table1`, whose run `r` of a case uses `seed0 + r`.
pub fn solve_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add(j as u64)
}

/// Table 1 case #6 (op-amp, D = 5), as `crates/bench/src/cases.rs` sets it.
fn opamp_table1() -> NofisConfig {
    NofisConfig {
        levels: Levels::AdaptiveQuantile {
            max_stages: 5,
            p0: 0.12,
            pilot: 200,
        },
        layers_per_stage: 8,
        hidden: 24,
        s_max: 2.0,
        epochs: 20,
        batch_size: 440,
        n_is: 500,
        tau: 10.0,
        learning_rate: 5e-3,
        minibatch: 4096,
        freeze: true,
        ..Default::default()
    }
}

/// Table 1 case #9 (Y-branch, D = 26) with [`YBRANCH_EPOCHS`].
fn ybranch() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![18.5, 10.9, 7.5, 4.1, 0.0]),
        layers_per_stage: 8,
        hidden: 28,
        s_max: 2.0,
        epochs: YBRANCH_EPOCHS,
        batch_size: 310,
        n_is: 500,
        tau: 1.0,
        learning_rate: 5e-3,
        minibatch: 4096,
        freeze: true,
        ..Default::default()
    }
}

/// `bench_sweep`'s per-corner configuration.
fn sweep_corner() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![2.0, 0.0]),
        layers_per_stage: 2,
        hidden: 8,
        epochs: 12,
        batch_size: 64,
        minibatch: 16,
        n_is: 200,
        tau: 5.0,
        learning_rate: 5e-3,
        ..Default::default()
    }
}

/// Runner workers for the sweep: 2, or fewer on a smaller host.
fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What one workload solves, built once per set-up.
pub enum Case {
    Single {
        oracle: Box<dyn LimitState + Send + Sync>,
        config: NofisConfig,
        golden: f64,
        table1: bool,
    },
    Sweep {
        family: Arc<PvtGrid>,
        config: NofisConfig,
        dir: PathBuf,
    },
}

/// Builds the workload's oracle and configuration and makes the
/// program's process-wide state ready (`Nofis::new` installs its sinks,
/// the first `global()` builds the thread pool).
pub fn setup(w: Workload, out_dir: &Path) -> Result<Case, String> {
    let case = match w {
        Workload::OpampTable1 | Workload::OpampNis20k => {
            let mut config = opamp_table1();
            if w == Workload::OpampNis20k {
                config.n_is = 20_000;
            }
            Case::Single {
                oracle: Box::new(Opamp::default()),
                config,
                golden: Opamp::GOLDEN_PR,
                table1: w == Workload::OpampTable1,
            }
        }
        Workload::YbranchBpm => Case::Single {
            oracle: Box::new(YBranchCase::default()),
            config: ybranch(),
            golden: YBranchCase::GOLDEN_PR,
            table1: false,
        },
        Workload::PvtSweep => Case::Sweep {
            family: Arc::new(PvtGrid::opamp(5, 5).with_base_spec(76.0)),
            config: sweep_corner(),
            dir: out_dir.to_path_buf(),
        },
    };
    let config = match &case {
        Case::Single { config, .. } | Case::Sweep { config, .. } => config,
    };
    Nofis::new(config.clone()).map_err(|e| format!("{}: {e}", w.name()))?;
    nofis::parallel::global();
    Ok(case)
}

/// Pool counters moved by one solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolDelta {
    pub runs: u64,
    pub chunks: u64,
    pub inline_runs: u64,
    pub helper_dispatches: u64,
}

impl PoolDelta {
    fn between(a: PoolUsage, b: PoolUsage) -> Self {
        PoolDelta {
            runs: b.runs - a.runs,
            chunks: b.chunks - a.chunks,
            inline_runs: b.inline_runs - a.inline_runs,
            helper_dispatches: b.helper_dispatches - a.helper_dispatches,
        }
    }
}

/// Sweep-level accounting of one `run_sweep`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    pub evals: u64,
    pub cache_hit_rate: f64,
    pub warm_corners: u64,
    pub waves: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_files: u64,
}

/// The outcome of one solve and everything checked about it.
#[derive(Debug, Clone, Default)]
pub struct Solve {
    pub seed: u64,
    pub wall_s: f64,
    /// Simulator calls (for a sweep, the ones the cache did not answer).
    pub sim_calls: u64,
    /// Estimate bits: one per solve, one per corner for a sweep.
    pub estimates: Vec<u64>,
    pub log_error: Option<f64>,
    /// Solves (1) or corners accepted on a non-final ladder rung.
    pub fallbacks: usize,
    /// Solves (1) or corners this outcome covers.
    pub units: usize,
    /// Failed checks and errors; empty when the solve is correct.
    pub problems: Vec<String>,
    pub budget_used: u64,
    pub budget_overruns: u64,
    /// Ladder rungs tried by the estimate (accepted rank + 1).
    pub rungs: usize,
    /// `M·E·N`: training rows pushed through the flow.
    pub train_rows: u64,
    /// Proposal samples drawn by the estimation ladder.
    pub estimate_samples: u64,
    pub pool: PoolDelta,
    pub sweep: Option<SweepStats>,
}

impl Solve {
    /// The values a repeat of the same seed must reproduce bit for bit.
    /// A sweep's simulator calls are left out: two corners of one wave can
    /// miss the shared cache on the same point at once, so they vary by a
    /// few calls; its requested evaluations do not.
    pub fn fingerprint(&self) -> (u64, u64, &[u64]) {
        let calls = self.sweep.map_or(self.sim_calls, |s| s.evals);
        (calls, self.budget_used, &self.estimates)
    }
}

/// A fresh solve RNG, derived from `seed` exactly as the `table1`
/// harness derives it.
fn solve_rng(seed: u64) -> StdRng {
    let mut outer = StdRng::seed_from_u64(seed);
    let mut bytes = [0u8; 32];
    outer.fill_bytes(&mut bytes);
    StdRng::from_seed(bytes)
}

/// Runs `f` in a scope span when tracing.
fn scoped<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.scope(name, f),
        None => f(),
    }
}

/// One solve of a workload. With a recorder, every call into the
/// program is wrapped in spans.
pub fn solve(case: &Case, seed: u64, tag: &str, rec: Option<&Arc<Recorder>>) -> Solve {
    match case {
        Case::Single {
            oracle,
            config,
            golden,
            table1,
        } => {
            let mut s = solve_single(&**oracle, config, Some(*golden), seed, rec.map(|r| &**r));
            if *table1 && seed == TABLE1_SEED {
                check_table1(&mut s);
            }
            s
        }
        Case::Sweep {
            family,
            config,
            dir,
        } => solve_sweep(
            family,
            config,
            &dir.join(format!("sweep-{}-{tag}", std::process::id())),
            seed,
            rec,
        ),
    }
}

/// The `Nofis::run` sequence on one shared budget, timed as a whole.
fn solve_single(
    oracle: &(dyn LimitState + Sync),
    config: &NofisConfig,
    golden: Option<f64>,
    seed: u64,
    rec: Option<&Recorder>,
) -> Solve {
    let mut s = Solve {
        seed,
        units: 1,
        ..Solve::default()
    };
    let traced;
    let oracle: &(dyn LimitState + Sync) = match rec {
        Some(r) => {
            traced = TracedOracle::new(oracle, r);
            &traced
        }
        None => oracle,
    };
    let counting = CountingOracle::new(oracle);
    let budget = BudgetedOracle::new(&counting, config.max_calls.unwrap_or(u64::MAX));
    let mut rng = solve_rng(seed);
    let pool0 = nofis::parallel::global().usage();
    let t0 = Instant::now();
    let outcome = scoped(rec, trace::SOLVE, || {
        let nofis = scoped(rec, trace::NEW, || Nofis::new(config.clone()))
            .map_err(|e| format!("Nofis::new: {e}"))?;
        let trained = scoped(rec, trace::TRAIN, || nofis.train_within(&budget, &mut rng))
            .map_err(|e| format!("train_within: {e}"))?;
        let used_before = budget.used();
        let (result, _diag) = scoped(rec, trace::ESTIMATE, || {
            trained.estimate_within(&budget, config.n_is, &mut rng)
        })
        .map_err(|e| format!("estimate_within: {e}"))?;
        Ok::<_, String>((trained, result, budget.used() - used_before))
    });
    s.wall_s = t0.elapsed().as_secs_f64();
    s.pool = PoolDelta::between(pool0, nofis::parallel::global().usage());
    s.sim_calls = counting.calls();
    s.budget_used = budget.used();
    s.budget_overruns = budget.overruns();
    if s.budget_overruns != 0 {
        s.problems
            .push(format!("budget overran by {} calls", s.budget_overruns));
    }
    let (trained, result, estimate_samples) = match outcome {
        Ok(ok) => ok,
        Err(e) => {
            s.problems.push(e);
            return s;
        }
    };
    s.estimates = vec![result.estimate.to_bits()];
    s.log_error = golden.map(|g| log_error(result.estimate, g));
    s.rungs = result.rung.rank() + 1;
    s.fallbacks = usize::from(result.rung.is_fallback());
    s.estimate_samples = estimate_samples;
    s.train_rows = (trained.stages() * config.epochs * config.batch_size) as u64;
    if !result.estimate.is_finite() {
        s.problems
            .push(format!("estimate is not finite: {}", result.estimate));
    }
    if !result.rung.is_fallback() {
        check_exact_budget(&mut s, config, &trained);
    }
    if let Some(r) = rec {
        r.scope(trace::PROBE, || probe(&trained, seed, r));
    }
    s
}

/// On a final-rung solve the budget is spent exactly: `M·E·N` training
/// rows, one pilot batch for every adaptive stage that picked its level
/// from a pilot, and `n_is` estimation samples.
///
/// `NofisConfig::training_budget()` also counts a pilot batch for the
/// last adaptive stage, whose level is fixed at 0 without one, so for an
/// adaptive schedule it is an upper bound, not the spend; it is checked
/// as such.
fn check_exact_budget(s: &mut Solve, config: &NofisConfig, trained: &TrainedNofis) {
    let stages = trained.stages() as u64;
    let pilots = match config.levels {
        Levels::AdaptiveQuantile {
            max_stages, pilot, ..
        } => pilot as u64 * stages.min(max_stages as u64 - 1),
        Levels::Fixed(_) => 0,
    };
    let expected = s.train_rows + pilots + config.n_is as u64;
    if s.budget_used != expected {
        s.problems.push(format!(
            "final-rung solve used {} calls, schedule implies {expected}",
            s.budget_used
        ));
    }
    let bound = config.training_budget() + config.n_is as u64;
    if s.budget_used > bound {
        s.problems.push(format!(
            "final-rung solve used {} calls, training_budget() + n_is is {bound}",
            s.budget_used
        ));
    }
}

/// At the `table1` seed, the op-amp solve must reproduce the `table1`
/// row: the same call count and the same printed log error.
fn check_table1(s: &mut Solve) {
    let milli = s.log_error.map(|e| (e * 1000.0).round() as i64);
    if s.sim_calls != TABLE1_OPAMP_CALLS || milli != Some(TABLE1_OPAMP_LOG_ERROR_MILLI) {
        s.problems.push(format!(
            "table1 cross-check: {} calls, log error {:?}; table1 gives {TABLE1_OPAMP_CALLS} and 0.{TABLE1_OPAMP_LOG_ERROR_MILLI}",
            s.sim_calls, s.log_error
        ));
    }
}

/// Draws [`PROBE_ROWS`] rows from the final proposal and scores them.
fn probe(trained: &TrainedNofis, seed: u64, rec: &Recorder) {
    let q = trained.proposal();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let xs: Vec<Vec<f64>> = rec.scope(trace::SAMPLE, || {
        (0..PROBE_ROWS).map(|_| q.sample(&mut rng)).collect()
    });
    let total: f64 = rec.scope(trace::LOG_DENSITY, || {
        xs.iter().map(|x| q.log_density(x)).sum()
    });
    std::hint::black_box(total);
}

/// One whole grid: warm starts, the shared cache and checkpoints on.
fn solve_sweep(
    family: &Arc<PvtGrid>,
    config: &NofisConfig,
    dir: &Path,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
) -> Solve {
    let mut s = Solve {
        seed,
        ..Solve::default()
    };
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = SweepConfig::new(config.clone(), dir);
    cfg.seed = seed;
    cfg.workers = sweep_workers();
    cfg.warm = true;
    cfg.warm_epochs = 2;
    cfg.cache = true;
    let pool0 = nofis::parallel::global().usage();
    let t0 = Instant::now();
    let report = match rec {
        None => run_sweep(Arc::clone(family), &cfg),
        Some(r) => r.scope(trace::SWEEP, || {
            run_sweep(
                Arc::new(TracedFamily::new(Arc::clone(family), Arc::clone(r))),
                &cfg,
            )
        }),
    };
    s.wall_s = t0.elapsed().as_secs_f64();
    s.pool = PoolDelta::between(pool0, nofis::parallel::global().usage());
    let (checkpoint_bytes, checkpoint_files) = tree_size(dir);
    let _ = std::fs::remove_dir_all(dir);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            s.problems.push(format!("run_sweep: {e}"));
            return s;
        }
    };
    if !report.all_ok() {
        s.problems
            .push("not every corner produced an estimate".into());
    }
    for c in &report.corners {
        match c.estimate {
            Some(e) if e.is_finite() => s.estimates.push(e.to_bits()),
            Some(e) => s
                .problems
                .push(format!("corner {} estimate is not finite: {e}", c.label)),
            None => s.problems.push(format!(
                "corner {} failed: {}",
                c.label,
                c.error.as_deref().unwrap_or("no estimate")
            )),
        }
    }
    s.units = report.corners.len();
    s.fallbacks = report
        .corners
        .iter()
        .filter(|c| c.rung.as_deref().is_some_and(|r| r != "FinalProposal"))
        .count();
    s.sim_calls = report.total_real_calls;
    s.sweep = Some(SweepStats {
        evals: report.total_evals,
        cache_hit_rate: report.cache.map_or(0.0, |c| c.hit_rate),
        warm_corners: report.corners.iter().filter(|c| c.warm).count() as u64,
        waves: report.waves.len() as u64,
        checkpoint_bytes,
        checkpoint_files,
    });
    s
}

/// A traced solve of the sweep's center corner alone, cold and without
/// the cache, so the sweep workload also reports per-phase times.
pub fn solve_corner(case: &Case, seed: u64, rec: &Recorder) -> Option<Solve> {
    let Case::Sweep { family, config, .. } = case else {
        return None;
    };
    let corner = CornerOracle::new(Arc::clone(family), family.corners() / 2, None);
    Some(solve_single(&corner, config, None, seed, Some(rec)))
}

/// Total bytes and number of regular files under `dir`.
fn tree_size(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else if meta.is_file() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}
