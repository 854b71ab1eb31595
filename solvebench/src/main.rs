//! End-to-end NOFIS solve benchmark (see `README.md` next to this crate).
//!
//! ```text
//! solvebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload as a closed loop with one client: each
//! solve starts when the previous one ends. With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it alternates an untraced and
//! a traced solve of each seed and reports the per-layer metrics. The
//! last line of standard output is the JSON result.

mod stats;
mod trace;
mod workload;

use stats::{mean, median, percentile, result_json, run_tail, Metric};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Recorder, Span};
use workload::{Case, Solve, Workload};

/// Fresh set-up processes per untraced run; `setup_s` is the median of
/// their wall times.
const SETUP_REPS: usize = 21;
/// Untimed solves of the first seed run at least this long before an
/// untraced run starts its clock, so first-solve costs (page faults,
/// thread start-up, fresh files) stay out of the timed solves.
const WARM_UP: Duration = Duration::from_secs(2);
/// Scratch directory (checkpoints, span dumps), relative to the working
/// directory.
const OUT_DIR: &str = ".solvebench";

const USAGE: &str =
    "usage: solvebench --workload <opamp-table1|opamp-nis20k|ybranch-bpm|pvt-sweep> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set the workload up and exit: one `setup_s` sample.
    setup_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::TABLE1_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solvebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match workload::setup(args.workload, Path::new(OUT_DIR)) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("solvebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("solvebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let case = workload::setup(args.workload, out_dir)?;
    println!(
        "workload {} seed {} ({} s, trace {}), {} threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nofis::parallel::global().threads()
    );
    let report = if args.trace {
        traced_run(args, &case, out_dir)?
    } else {
        untraced_run(args, &case, &setup_times(args.workload)?)
    };
    for p in &report.problems {
        println!("FAILED {p}");
    }
    result_json(
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        &report.metrics,
    )
}

/// Wall times of [`SETUP_REPS`] fresh processes of this binary that each
/// set the workload up and exit: what it costs to get a solver process
/// ready, one-time initialisation included.
fn setup_times(w: Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--setup-only"])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("start set-up process: {e}"))?;
            if !status.success() {
                return Err(format!("set-up process failed: {status}"));
            }
            Ok(t0.elapsed().as_secs_f64())
        })
        .collect()
}

struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Flags `repeat` when its calls, budget or estimate bits differ from
/// those of `first`, an earlier solve of the same seed.
fn check_repeat(first: &Solve, repeat: &mut Solve, what: &str) {
    if repeat.fingerprint() != first.fingerprint() {
        repeat.problems.push(format!(
            "{what} does not repeat the first solve of its seed"
        ));
    }
}

fn problems(solves: &[Solve]) -> Vec<String> {
    solves
        .iter()
        .flat_map(|s| {
            s.problems
                .iter()
                .map(move |p| format!("seed {}: {p}", s.seed))
        })
        .collect()
}

/// Quality of the first `k` solves (one per distinct seed): mean log
/// error and the share of solves or corners on a non-final rung.
fn quality(first: &[&Solve]) -> (Option<f64>, f64) {
    let errs: Vec<f64> = first.iter().filter_map(|s| s.log_error).collect();
    let units: usize = first.iter().map(|s| s.units).sum();
    let fallbacks: usize = first.iter().map(|s| s.fallbacks).sum();
    (
        (!errs.is_empty()).then(|| mean(&errs)),
        fallbacks as f64 / units.max(1) as f64,
    )
}

fn untraced_run(args: &Args, case: &Case, setup_s: &[f64]) -> Report {
    let k = args.workload.counted_solves();
    let run_for = Duration::from_secs(args.seconds);
    let first_seed = workload::solve_seed(args.seed, 0);
    let mut warm_up: Vec<Solve> = Vec::new();
    let w0 = Instant::now();
    while warm_up.is_empty() || w0.elapsed() < WARM_UP {
        let tag = format!("w{}", warm_up.len());
        warm_up.push(workload::solve(case, first_seed, &tag, None));
    }
    let t0 = Instant::now();
    // Seed indices 0, 0, 1, 2, …: the second solve repeats the first, so
    // every run checks determinism.
    let mut solves: Vec<Solve> = Vec::new();
    while solves.len() <= k || t0.elapsed() < run_for {
        let i = solves.len();
        let seed = workload::solve_seed(args.seed, i.saturating_sub(1));
        solves.push(workload::solve(case, seed, &i.to_string(), None));
    }
    let (head, rest) = solves.split_at_mut(1);
    check_repeat(&head[0], &mut rest[0], "the repeated solve");
    for w in &mut warm_up {
        check_repeat(&head[0], w, "a warm-up solve");
    }

    let walls: Vec<f64> = solves.iter().map(|s| s.wall_s).collect();
    let distinct: Vec<&Solve> = solves
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, s)| s)
        .collect();
    let first = &distinct[..k];
    let (t, blocks) = run_tail(&walls);
    let (log_error, fallback_share) = quality(first);
    let sim_calls = mean(&first.iter().map(|s| s.sim_calls as f64).collect::<Vec<_>>());
    let checked: Vec<Solve> = warm_up.into_iter().chain(solves).collect();
    let failed = checked.iter().filter(|s| !s.problems.is_empty()).count();
    println!(
        "{} warm-up + {} timed solves in {:.2} s ({k} counted); solve_s p50 {:.4} s, \
         tail p{:.1} {:.4} s (n = {}, median of {blocks} block tails)",
        checked.len() - walls.len(),
        walls.len(),
        t0.elapsed().as_secs_f64(),
        median(&walls),
        t.percentile,
        t.value,
        t.n
    );
    println!(
        "log_error {}; fallback_share {fallback_share}; failed_share {}",
        log_error.map_or("n/a (no golden)".into(), |e| e.to_string()),
        failed as f64 / checked.len() as f64
    );
    Report {
        attempted: checked.len(),
        failed,
        problems: problems(&checked),
        metrics: vec![
            metric("solve_s_p50", "s", median(&walls)),
            metric("solve_s_tail", "s", t.value),
            metric("sim_calls", "calls", sim_calls),
            metric("setup_s", "s", median(setup_s)),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
        ],
    }
}

/// Per-solve numbers read off the spans of one traced solve.
#[derive(Default)]
struct Phases {
    new: f64,
    train: f64,
    train_self: f64,
    estimate: f64,
    estimate_self: f64,
    sample: f64,
    log_density: f64,
}

/// Oracle numbers read off the spans of one traced solve or sweep.
#[derive(Default)]
struct OracleUse {
    value_us: Vec<f64>,
    grad_us: Vec<f64>,
    covered_s: f64,
    window_s: f64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn phases(spans: &[(u32, Span)]) -> Phases {
    let find = |name| spans.iter().find(|(_, s)| s.name == name);
    let children = |id| -> Vec<Span> {
        spans
            .iter()
            .filter(|(_, s)| s.parent == id)
            .map(|(_, s)| *s)
            .collect()
    };
    let dur = |name| find(name).map_or(0.0, |(_, s)| secs(s.duration()));
    let self_s = |name| find(name).map_or(0.0, |(id, s)| secs(trace::self_time(s, &children(*id))));
    Phases {
        new: dur(trace::NEW),
        train: dur(trace::TRAIN),
        train_self: self_s(trace::TRAIN),
        estimate: dur(trace::ESTIMATE),
        estimate_self: self_s(trace::ESTIMATE),
        sample: dur(trace::SAMPLE),
        log_density: dur(trace::LOG_DENSITY),
    }
}

fn oracle_use(spans: &[(u32, Span)], window_name: &str) -> OracleUse {
    let mut u = OracleUse::default();
    let leaves = spans
        .iter()
        .map(|(_, s)| s)
        .filter(|s| s.name == trace::VALUE || s.name == trace::GRAD);
    for s in leaves.clone() {
        let us = s.duration() as f64 * 1e-3;
        if s.name == trace::VALUE {
            u.value_us.push(us);
        } else {
            u.grad_us.push(us);
        }
    }
    if let Some((_, w)) = spans.iter().find(|(_, s)| s.name == window_name) {
        u.window_s = secs(w.duration());
        u.covered_s = secs(trace::covered(
            (w.start, w.end),
            leaves.map(|s| (s.start, s.end)),
        ));
    }
    u
}

fn traced_run(args: &Args, case: &Case, out_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let k = w.counted_solves();
    let rec = Arc::new(Recorder::default());
    let run_for = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut untraced: Vec<Solve> = Vec::new();
    let mut traced: Vec<Solve> = Vec::new();
    // Solve ids of the traced solves (and, on the sweep, of the traced
    // single-corner solves that time its phases).
    let mut main_ids = Vec::new();
    let mut phase_ids = Vec::new();
    let mut phase_solves = Vec::new();
    let mut id = 0u32;
    // Each seed is solved untraced, then traced; the traced solve must
    // repeat the untraced one bit for bit.
    while untraced.len() < k || t0.elapsed() < run_for {
        let i = untraced.len();
        let seed = workload::solve_seed(args.seed, i);
        untraced.push(workload::solve(case, seed, &format!("u{i}"), None));
        id += 1;
        rec.set_solve(id);
        let mut s = workload::solve(case, seed, &format!("t{i}"), Some(&rec));
        check_repeat(&untraced[i], &mut s, "the traced solve");
        traced.push(s);
        main_ids.push(id);
        rec.set_solve(id + 1);
        if let Some(c) = workload::solve_corner(case, seed, &rec) {
            id += 1;
            phase_solves.push(c);
        }
        phase_ids.push(id);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    rec.write_csv(&out_dir.join(format!("spans-{}.csv", w.name())))
        .map_err(|e| format!("write spans: {e}"))?;

    let mut by_solve: BTreeMap<u32, Vec<(u32, Span)>> = BTreeMap::new();
    for (i, s) in rec.spans().into_iter().enumerate() {
        by_solve.entry(s.solve).or_default().push((i as u32 + 1, s));
    }
    let empty = Vec::new();
    let spans_of = |id: &u32| by_solve.get(id).unwrap_or(&empty);
    let ph: Vec<Phases> = phase_ids.iter().map(|id| phases(spans_of(id))).collect();
    let window = if matches!(case, Case::Sweep { .. }) {
        trace::SWEEP
    } else {
        trace::SOLVE
    };
    let or: Vec<OracleUse> = main_ids
        .iter()
        .map(|id| oracle_use(spans_of(id), window))
        .collect();
    // The solves whose phases were timed: the workload's own, or the
    // sweep's single-corner solves.
    let timed: &[Solve] = if phase_solves.is_empty() {
        &traced
    } else {
        &phase_solves
    };

    let med = |f: &dyn Fn(&Phases, &Solve) -> f64| {
        median(
            &ph.iter()
                .zip(timed)
                .map(|(p, s)| f(p, s))
                .collect::<Vec<_>>(),
        )
    };
    let first_mean = |f: &dyn Fn(&Solve) -> f64, xs: &[Solve]| {
        mean(&xs[..k.min(xs.len())].iter().map(f).collect::<Vec<_>>())
    };
    let all_us = |f: &dyn Fn(&OracleUse) -> &Vec<f64>| -> Vec<f64> {
        or.iter().flat_map(|u| f(u).iter().copied()).collect()
    };
    let pct = |xs: &[f64], p| {
        if xs.is_empty() {
            0.0
        } else {
            percentile(xs, p)
        }
    };
    let value_us = all_us(&|u| &u.value_us);
    let grad_us = all_us(&|u| &u.grad_us);
    let first_or = &or[..k.min(or.len())];
    let busy = |f: &dyn Fn(&OracleUse) -> &Vec<f64>| {
        median(
            &or.iter()
                .map(|u| f(u).iter().sum::<f64>() * 1e-6)
                .collect::<Vec<_>>(),
        )
    };
    let sweep = |f: &dyn Fn(&workload::SweepStats) -> f64| {
        first_mean(&|s: &Solve| s.sweep.as_ref().map_or(0.0, f), &untraced)
    };
    let untraced_p50 = median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let (log_error, fallback_share) = quality(&untraced[..k].iter().collect::<Vec<_>>());
    let everything: Vec<&Solve> = untraced
        .iter()
        .chain(&traced)
        .chain(&phase_solves)
        .collect();
    let failed = everything.iter().filter(|s| !s.problems.is_empty()).count();
    let mut all_problems = problems(&untraced);
    all_problems.extend(problems(&traced));
    all_problems.extend(problems(&phase_solves));
    println!(
        "{} untraced + {} traced solves in {elapsed:.2} s; solve_s p50 untraced {untraced_p50:.4} s, traced {traced_p50:.4} s",
        untraced.len(),
        traced.len()
    );

    let metrics = vec![
        metric("core.new_s", "s", med(&|p, _| p.new)),
        metric("core.train_s", "s", med(&|p, _| p.train)),
        metric("core.train_self_s", "s", med(&|p, _| p.train_self)),
        metric(
            "core.train.us_per_row",
            "us",
            med(&|p, s| 1e6 * p.train_self / s.train_rows.max(1) as f64),
        ),
        metric("core.estimate_s", "s", med(&|p, _| p.estimate)),
        metric("core.estimate_self_s", "s", med(&|p, _| p.estimate_self)),
        metric(
            "core.estimate.us_per_sample",
            "us",
            med(&|p, s| 1e6 * p.estimate_self / s.estimate_samples.max(1) as f64),
        ),
        metric(
            "core.estimate.rungs",
            "count",
            first_mean(&|s| s.rungs as f64, timed),
        ),
        metric(
            "flows.sample_us_per_row",
            "us",
            med(&|p, _| 1e6 * p.sample / workload::PROBE_ROWS as f64),
        ),
        metric(
            "flows.log_density_us_per_row",
            "us",
            med(&|p, _| 1e6 * p.log_density / workload::PROBE_ROWS as f64),
        ),
        metric(
            "oracle.value_calls",
            "calls",
            mean(
                &first_or
                    .iter()
                    .map(|u| u.value_us.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "oracle.grad_calls",
            "calls",
            mean(
                &first_or
                    .iter()
                    .map(|u| u.grad_us.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric("oracle.value_busy_s", "s", busy(&|u| &u.value_us)),
        metric("oracle.grad_busy_s", "s", busy(&|u| &u.grad_us)),
        metric("oracle.value_us_p50", "us", pct(&value_us, 50.0)),
        metric("oracle.value_us_p99", "us", pct(&value_us, 99.0)),
        metric("oracle.grad_us_p50", "us", pct(&grad_us, 50.0)),
        metric("oracle.grad_us_p99", "us", pct(&grad_us, 99.0)),
        metric(
            "oracle.wall_share",
            "share",
            or.iter().map(|u| u.covered_s).sum::<f64>()
                / or.iter().map(|u| u.window_s).sum::<f64>(),
        ),
        metric(
            "parallel.threads",
            "count",
            nofis::parallel::global().threads() as f64,
        ),
        metric(
            "parallel.runs",
            "count",
            first_mean(&|s| s.pool.runs as f64, &untraced),
        ),
        metric(
            "parallel.chunks",
            "count",
            first_mean(&|s| s.pool.chunks as f64, &untraced),
        ),
        metric(
            "parallel.inline_runs",
            "count",
            first_mean(&|s| s.pool.inline_runs as f64, &untraced),
        ),
        metric(
            "parallel.helper_dispatches",
            "count",
            first_mean(&|s| s.pool.helper_dispatches as f64, &untraced),
        ),
        metric(
            "prob.budget.used",
            "calls",
            first_mean(&|s| s.budget_used as f64, timed),
        ),
        metric(
            "prob.budget.overruns",
            "calls",
            everything.iter().map(|s| s.budget_overruns as f64).sum(),
        ),
        metric(
            "sweep.real_calls",
            "calls",
            first_mean(&|s| s.sweep.map_or(0.0, |_| s.sim_calls as f64), &untraced),
        ),
        metric("sweep.evals", "calls", sweep(&|s| s.evals as f64)),
        metric(
            "sweep.cache_hit_rate",
            "share",
            sweep(&|s| s.cache_hit_rate),
        ),
        metric(
            "sweep.warm_corners",
            "count",
            sweep(&|s| s.warm_corners as f64),
        ),
        metric("sweep.waves", "count", sweep(&|s| s.waves as f64)),
        metric(
            "checkpoint.bytes",
            "bytes",
            sweep(&|s| s.checkpoint_bytes as f64),
        ),
        metric(
            "checkpoint.files",
            "count",
            sweep(&|s| s.checkpoint_files as f64),
        ),
        metric(
            "trace.overhead_share",
            "share",
            (traced_p50 - untraced_p50) / untraced_p50,
        ),
        metric("log_error", "ln", log_error.unwrap_or(0.0)),
        metric("fallback_share", "share", fallback_share),
        metric(
            "failed_share",
            "share",
            failed as f64 / everything.len() as f64,
        ),
    ];
    Ok(Report {
        attempted: everything.len(),
        failed,
        problems: all_problems,
        metrics,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
