//! Benchmark-owned spans, recorded from outside the program.
//!
//! Every span here is opened by the benchmark around a call into one of
//! the program's public functions: a phase of a solve (`Nofis::new`,
//! `train_within`, `estimate_within`), one limit-state evaluation (through
//! [`TracedOracle`] / [`TracedFamily`], which forward every other trait
//! method unchanged), a probe of the trained proposal, or a whole
//! `run_sweep`. Spans stay in memory until the run ends.

use nofis::prob::LimitState;
use nofis::testcases::CornerFamily;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names. Oracle spans are the leaves; every other name is a scope.
pub const SOLVE: &str = "solve";
pub const NEW: &str = "core.new";
pub const TRAIN: &str = "core.train";
pub const ESTIMATE: &str = "core.estimate";
pub const PROBE: &str = "probe";
pub const SAMPLE: &str = "flows.sample";
pub const LOG_DENSITY: &str = "flows.log_density";
pub const SWEEP: &str = "sweep.run";
pub const VALUE: &str = "oracle.value";
pub const GRAD: &str = "oracle.value_grad";

/// One recorded interval. Times are nanoseconds since the recorder was
/// created; `parent` is the id (1-based index) of the enclosing scope, or
/// 0 at the top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub solve: u32,
    pub thread: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span store shared by the solving thread and the pool
/// threads that evaluate the oracle.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    // The innermost open scope. Scopes are opened and closed only on the
    // solving thread; pool threads read it to parent their oracle spans.
    // Relaxed: it is a plain id and publishes no other data.
    current: AtomicU32,
    solve: AtomicU32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(0),
            solve: AtomicU32::new(0),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() as u32
    }

    /// Tags the spans recorded from now on with solve `id`.
    pub fn set_solve(&self, id: u32) {
        self.solve.store(id, Ordering::Relaxed);
    }

    /// Runs `f` inside a scope span named `name`; spans recorded while it
    /// runs, on any thread, get this scope as their parent.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.current.load(Ordering::Relaxed);
        let start = self.now();
        let id = self.push(Span {
            name,
            start,
            end: start,
            parent,
            solve: self.solve.load(Ordering::Relaxed),
            thread: THREAD.with(|t| *t),
        });
        self.current.store(id, Ordering::Relaxed);
        let out = f();
        let end = self.now();
        self.current.store(parent, Ordering::Relaxed);
        self.spans.lock().expect("span store poisoned")[id as usize - 1].end = end;
        out
    }

    /// Times one leaf call under the innermost open scope.
    fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span {
            name,
            start,
            end,
            parent: self.current.load(Ordering::Relaxed),
            solve: self.solve.load(Ordering::Relaxed),
            thread: THREAD.with(|t| *t),
        });
        out
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as CSV (`id,parent,solve,thread,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,solve,thread,name,start_ns,end_ns")?;
        for (i, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.solve,
                s.thread,
                s.name,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `window`. Intervals
/// may come from several threads and overlap in any way.
pub fn covered(window: (u64, u64), intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// A scope's self time: its duration minus the part of it that the union
/// of its children's intervals covers.
pub fn self_time(scope: &Span, children: &[Span]) -> u64 {
    scope.duration()
        - covered(
            (scope.start, scope.end),
            children.iter().map(|c| (c.start, c.end)),
        )
}

/// Forwards a limit state, recording a span around every evaluation.
/// `dim()` and `name()` are forwarded, so the program sees the same
/// oracle it would see untraced.
pub struct TracedOracle<'a> {
    inner: &'a (dyn LimitState + Sync),
    rec: &'a Recorder,
}

impl<'a> TracedOracle<'a> {
    pub fn new(inner: &'a (dyn LimitState + Sync), rec: &'a Recorder) -> Self {
        TracedOracle { inner, rec }
    }
}

impl LimitState for TracedOracle<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.rec.leaf(VALUE, || self.inner.value(x))
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.rec.leaf(GRAD, || self.inner.value_grad(x))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Forwards a corner family, recording a span around every raw-metric
/// evaluation; every other method (including the cache's `oracle_id`)
/// is forwarded unchanged.
pub struct TracedFamily<F> {
    inner: Arc<F>,
    rec: Arc<Recorder>,
}

impl<F> TracedFamily<F> {
    pub fn new(inner: Arc<F>, rec: Arc<Recorder>) -> Self {
        TracedFamily { inner, rec }
    }
}

impl<F: CornerFamily> CornerFamily for TracedFamily<F> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn oracle_id(&self) -> u64 {
        self.inner.oracle_id()
    }

    fn corners(&self) -> usize {
        self.inner.corners()
    }

    fn corner_params(&self, corner: usize) -> Vec<f64> {
        self.inner.corner_params(corner)
    }

    fn corner_label(&self, corner: usize) -> String {
        self.inner.corner_label(corner)
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        self.inner.distance(a, b)
    }

    fn raw(&self, x: &[f64]) -> f64 {
        self.rec.leaf(VALUE, || self.inner.raw(x))
    }

    fn raw_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.rec.leaf(GRAD, || self.inner.raw_grad(x))
    }

    fn threshold(&self, corner: usize) -> f64 {
        self.inner.threshold(corner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, thread: u32) -> Span {
        Span {
            name: VALUE,
            start,
            end,
            parent: 1,
            solve: 0,
            thread,
        }
    }

    #[test]
    fn union_merges_overlap_across_threads() {
        // Two pool threads: [10,30) and [20,40) overlap, [50,60) stands
        // alone, [55,58) nests inside it.
        let children = [
            span(10, 30, 1),
            span(20, 40, 2),
            span(50, 60, 1),
            span(55, 58, 2),
        ];
        let scope = Span {
            name: TRAIN,
            start: 0,
            end: 100,
            parent: 0,
            solve: 0,
            thread: 0,
        };
        assert_eq!(
            covered((0, 100), children.iter().map(|c| (c.start, c.end))),
            40
        );
        assert_eq!(self_time(&scope, &children), 60);
    }

    #[test]
    fn union_clips_to_the_window_and_joins_touching_intervals() {
        let iv = [(0, 15), (15, 20), (90, 120), (200, 300)];
        assert_eq!(covered((10, 100), iv), 20);
        assert_eq!(covered((10, 100), []), 0);
    }

    #[test]
    fn fully_covered_scope_has_no_self_time() {
        let scope = Span {
            name: ESTIMATE,
            start: 5,
            end: 25,
            parent: 0,
            solve: 0,
            thread: 0,
        };
        assert_eq!(self_time(&scope, &[span(0, 18, 1), span(12, 30, 2)]), 0);
    }

    #[test]
    fn scopes_parent_the_spans_recorded_inside_them() {
        let rec = Recorder::default();
        rec.set_solve(3);
        rec.scope(TRAIN, || {
            rec.leaf(VALUE, || ());
            rec.scope(PROBE, || rec.leaf(GRAD, || ()));
        });
        let spans = rec.spans();
        let parents: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(parents, [(TRAIN, 0), (VALUE, 1), (PROBE, 1), (GRAD, 3)]);
        assert!(spans.iter().all(|s| s.solve == 3 && s.start <= s.end));
    }
}
