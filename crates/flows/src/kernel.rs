//! The tape-free, row-parallel flow kernel.
//!
//! Every gradient-free flow pass — the frozen prefix of a training step,
//! the adaptive pilot, importance-sampling proposals and the per-row
//! [`RealNvp::sample`] / [`RealNvp::log_density`] — runs through
//! [`RealNvp::forward_rows`] / [`RealNvp::inverse_rows`]. Rows are split
//! into fixed [`KERNEL_CHUNK_ROWS`]-row chunks (a function of the row
//! count only, never of the thread count); each chunk runs on one thread
//! with that thread's reused scratch buffers, which is sound because
//! RealNVP couplings are row-independent in both directions. Per row the
//! kernel repeats the arithmetic of [`RealNvp::forward_graph`] (forward)
//! and of the per-row inverse (inverse), so its results are bitwise equal
//! to theirs for any row count, chunking and thread count.

use crate::coupling::CouplingScratch;
use crate::RealNvp;
use nofis_autograd::ParamStore;
use nofis_parallel::ThreadPool;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Rows per chunk of the tape-free flow kernel. Fixed: chunk boundaries
/// never depend on the thread count.
pub(crate) const KERNEL_CHUNK_ROWS: usize = 32;

/// Per-thread kernel buffers: one coupling's conditioner outputs and one
/// layer's per-row log-dets. They grow to the largest chunk seen and are
/// reused by every later call on the thread.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    pub(crate) coupling: CouplingScratch,
    ld: Vec<f64>,
}

/// One chunk's rows and its matching per-row outputs.
type RowChunk<'a> = (&'a mut [f64], &'a mut [f64]);

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Runs `f` with the calling thread's kernel scratch.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut KernelScratch) -> T) -> T {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

impl RealNvp {
    /// Tape-free forward of row-major `rows` (`n × dim`) in place through
    /// the coupling layers in `layers`; `logdet[r]` receives row `r`'s
    /// accumulated `Σ ln|det J|`, summed left to right in layer order.
    ///
    /// Values and log-dets are bitwise equal to
    /// [`RealNvp::forward_graph`]'s over the same layers, so a frozen
    /// prefix computed here can enter a tape as constants and
    /// [`RealNvp::forward_graph_layers`] continues the same sum.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or out of bounds, or the buffers do not
    /// hold `logdet.len()` whole rows.
    pub fn forward_rows(
        &self,
        store: &ParamStore,
        layers: Range<usize>,
        rows: &mut [f64],
        logdet: &mut [f64],
        pool: &ThreadPool,
    ) {
        self.check_rows(&layers, rows, logdet);
        self.run_chunked(rows, logdet, pool, |rows, logdet, sc| {
            self.forward_block(store, layers.clone(), rows, logdet, sc)
        });
    }

    /// Tape-free inverse of row-major `rows` (`n × dim`) in place back
    /// through the coupling layers in `layers` (last to first);
    /// `logdet_inv[r]` receives row `r`'s `Σ ln|det J_inverse|`, summed
    /// from `0.0` in the order the layers are undone.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or out of bounds, or the buffers do not
    /// hold `logdet_inv.len()` whole rows.
    pub fn inverse_rows(
        &self,
        store: &ParamStore,
        layers: Range<usize>,
        rows: &mut [f64],
        logdet_inv: &mut [f64],
        pool: &ThreadPool,
    ) {
        self.check_rows(&layers, rows, logdet_inv);
        self.run_chunked(rows, logdet_inv, pool, |rows, logdet, sc| {
            self.inverse_block(store, layers.clone(), rows, logdet, sc)
        });
    }

    /// Exact `ln q(x)` of the depth-`depth` flow for every row of the
    /// row-major `xs`, written to `out`: one batched inverse, then the
    /// base density of each latent.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the layer count, or `xs` does
    /// not hold `out.len()` whole rows.
    pub fn log_density_rows(
        &self,
        store: &ParamStore,
        xs: &[f64],
        depth: usize,
        out: &mut [f64],
        pool: &ThreadPool,
    ) {
        let mut z = xs.to_vec();
        self.inverse_rows(store, 0..depth, &mut z, out, pool);
        for (lq, z0) in out.iter_mut().zip(z.chunks_exact(self.dim())) {
            *lq += crate::realnvp::base_log_density(z0);
        }
    }

    pub(crate) fn check_rows(&self, layers: &Range<usize>, rows: &[f64], logdet: &[f64]) {
        assert!(
            layers.start < layers.end && layers.end <= self.n_layers(),
            "invalid layer range {layers:?} for a {}-layer flow",
            self.n_layers()
        );
        assert_eq!(
            rows.len(),
            logdet.len() * self.dim(),
            "row buffer does not hold {} rows of dim {}",
            logdet.len(),
            self.dim()
        );
    }

    /// One chunk of [`RealNvp::forward_rows`] on the calling thread.
    pub(crate) fn forward_block(
        &self,
        store: &ParamStore,
        layers: Range<usize>,
        rows: &mut [f64],
        logdet: &mut [f64],
        sc: &mut KernelScratch,
    ) {
        let KernelScratch { coupling, ld } = sc;
        ld.resize(logdet.len(), 0.0);
        let first = layers.start;
        for i in layers {
            self.layer(i).forward_rows(store, rows, ld, coupling);
            if i == first {
                logdet.copy_from_slice(ld);
            } else {
                for (acc, &v) in logdet.iter_mut().zip(ld.iter()) {
                    *acc += v;
                }
            }
        }
    }

    /// One chunk of [`RealNvp::inverse_rows`] on the calling thread.
    pub(crate) fn inverse_block(
        &self,
        store: &ParamStore,
        layers: Range<usize>,
        rows: &mut [f64],
        logdet_inv: &mut [f64],
        sc: &mut KernelScratch,
    ) {
        let KernelScratch { coupling, ld } = sc;
        ld.resize(logdet_inv.len(), 0.0);
        logdet_inv.fill(0.0);
        for i in layers.rev() {
            self.layer(i).inverse_rows(store, rows, ld, coupling);
            for (acc, &v) in logdet_inv.iter_mut().zip(ld.iter()) {
                *acc += v;
            }
        }
    }

    /// Splits `rows`/`out` into matching [`KERNEL_CHUNK_ROWS`]-row chunks and runs
    /// `block` on each across `pool`, each with its thread's scratch. A
    /// single chunk runs on the calling thread without touching the pool.
    fn run_chunked(
        &self,
        rows: &mut [f64],
        out: &mut [f64],
        pool: &ThreadPool,
        block: impl Fn(&mut [f64], &mut [f64], &mut KernelScratch) + Sync,
    ) {
        if out.len() <= KERNEL_CHUNK_ROWS {
            if !out.is_empty() {
                with_scratch(|sc| block(rows, out, sc));
            }
            return;
        }
        let slots: Vec<Mutex<Option<RowChunk>>> = rows
            .chunks_mut(KERNEL_CHUNK_ROWS * self.dim())
            .zip(out.chunks_mut(KERNEL_CHUNK_ROWS))
            .map(|chunk| Mutex::new(Some(chunk)))
            .collect();
        pool.run_chunks(slots.len(), |i| {
            let (rows, out) = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("chunk claimed exactly once");
            with_scratch(|sc| block(rows, out, sc));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_autograd::{Graph, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 5;
    const LAYERS: usize = 6;
    const ROW_COUNTS: [usize; 5] = [
        1,
        KERNEL_CHUNK_ROWS - 1,
        KERNEL_CHUNK_ROWS,
        KERNEL_CHUNK_ROWS + 1,
        440,
    ];

    fn perturbed_flow() -> (ParamStore, RealNvp) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(41);
        let flow = RealNvp::new(&mut store, DIM, LAYERS, 12, 2.0, &mut rng);
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        for id in ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v += rng.gen_range(-0.4..0.4);
            }
        }
        (store, flow)
    }

    fn rows(n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(n as u64);
        (0..n * DIM).map(|_| rng.gen_range(-2.5..2.5)).collect()
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// `forward_graph` over the first `depth` layers on one tape.
    fn tape_forward(
        store: &ParamStore,
        flow: &RealNvp,
        xs: &[f64],
        depth: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(xs.len() / DIM, DIM, xs.to_vec()));
        let (z, ld) = flow.forward_graph(store, &mut g, x, depth);
        (
            g.value(z).as_slice().to_vec(),
            g.value(ld).as_slice().to_vec(),
        )
    }

    #[test]
    fn forward_is_bitwise_the_tape_forward() {
        let (store, flow) = perturbed_flow();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            for n in ROW_COUNTS {
                let xs = rows(n);
                for depth in 1..=LAYERS {
                    let (want_z, want_ld) = tape_forward(&store, &flow, &xs, depth);
                    let mut z = xs.clone();
                    let mut ld = vec![f64::NAN; n];
                    flow.forward_rows(&store, 0..depth, &mut z, &mut ld, &pool);
                    let what = format!("{threads} threads, {n} rows, depth {depth}");
                    assert_bits(&z, &want_z, &what);
                    assert_bits(&ld, &want_ld, &what);
                }
            }
        }
    }

    #[test]
    fn prefix_off_the_tape_continues_the_tape_sum() {
        // Every split of the stack into a kernel prefix and a taped rest
        // reproduces the full-depth tape forward bit for bit.
        let (store, flow) = perturbed_flow();
        let pool = ThreadPool::new(2);
        for n in ROW_COUNTS {
            let xs = rows(n);
            let (want_z, want_ld) = tape_forward(&store, &flow, &xs, LAYERS);
            for split in 1..LAYERS {
                let mut z = xs.clone();
                let mut ld = vec![0.0; n];
                flow.forward_rows(&store, 0..split, &mut z, &mut ld, &pool);
                let mut g = Graph::new();
                let x = g.constant(Tensor::from_vec(n, DIM, z));
                let prefix = g.constant(Tensor::from_vec(n, 1, ld));
                let (zv, ldv) =
                    flow.forward_graph_layers(&store, &mut g, x, Some(prefix), split..LAYERS);
                let what = format!("{n} rows, split {split}");
                assert_bits(g.value(zv).as_slice(), &want_z, &what);
                assert_bits(g.value(ldv).as_slice(), &want_ld, &what);
            }
        }
    }

    #[test]
    fn inverse_is_bitwise_the_per_row_inverse() {
        let (store, flow) = perturbed_flow();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            for n in ROW_COUNTS {
                let ys = rows(n);
                for depth in 1..=LAYERS {
                    let mut want_x = Vec::with_capacity(n * DIM);
                    let mut want_ld = Vec::with_capacity(n);
                    for y in ys.chunks_exact(DIM) {
                        let mut x = y.to_vec();
                        let mut acc = 0.0;
                        for i in (0..depth).rev() {
                            let (x2, ld) = flow.layer(i).inverse_on_tape(&store, &x);
                            x = x2;
                            acc += ld;
                        }
                        want_x.extend(x);
                        want_ld.push(acc);
                    }
                    let mut x = ys.clone();
                    let mut ld = vec![f64::NAN; n];
                    flow.inverse_rows(&store, 0..depth, &mut x, &mut ld, &pool);
                    let what = format!("{threads} threads, {n} rows, depth {depth}");
                    assert_bits(&x, &want_x, &what);
                    assert_bits(&ld, &want_ld, &what);
                }
            }
        }
    }

    #[test]
    fn one_row_calls_match_the_batched_kernel() {
        let (store, flow) = perturbed_flow();
        let pool = ThreadPool::new(2);
        let xs = rows(KERNEL_CHUNK_ROWS + 1);
        let mut lq = vec![0.0; KERNEL_CHUNK_ROWS + 1];
        flow.log_density_rows(&store, &xs, LAYERS, &mut lq, &pool);
        let mut z = xs.clone();
        let mut ld = vec![0.0; KERNEL_CHUNK_ROWS + 1];
        flow.forward_rows(&store, 0..LAYERS, &mut z, &mut ld, &pool);
        for (r, x) in xs.chunks_exact(DIM).enumerate() {
            assert_eq!(
                flow.log_density(&store, x, LAYERS).to_bits(),
                lq[r].to_bits()
            );
            let (zr, ldr) = flow.transform(&store, x, LAYERS);
            assert_bits(&zr, &z[r * DIM..(r + 1) * DIM], "transform");
            assert_eq!(ldr.to_bits(), ld[r].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid layer range")]
    fn rejects_an_empty_layer_range() {
        let (store, flow) = perturbed_flow();
        let mut z = rows(1);
        flow.forward_rows(&store, 2..2, &mut z, &mut [0.0], &ThreadPool::new(1));
    }
}
