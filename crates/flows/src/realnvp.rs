use crate::kernel::with_scratch;
use crate::{AffineCoupling, Mask};
use nofis_autograd::{Graph, ParamId, ParamStore, Var};
use rand::Rng;
use rand_distr::StandardNormal;
use std::ops::Range;

/// Natural logarithm of `2π` (kept private to avoid a dependency cycle with
/// `nofis-prob`).
const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// A RealNVP normalizing flow: a stack of [`AffineCoupling`] layers with
/// alternating masks over a standard Gaussian base distribution.
///
/// The flow supports evaluating **prefixes**: NOFIS anchors its `m`-th
/// stage at layer `m·K`, so every API takes a `depth` (number of leading
/// layers to apply). `depth == self.n_layers()` is the full flow.
///
/// # Example
///
/// ```
/// use nofis_autograd::ParamStore;
/// use nofis_flows::RealNvp;
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let flow = RealNvp::new(&mut store, 2, 8, 16, 2.0, &mut rng);
/// // Freshly initialized flows are the identity: q == base distribution.
/// let (x, log_q) = flow.sample(&store, flow.n_layers(), &mut rng);
/// let direct = flow.log_density(&store, &x, flow.n_layers());
/// assert!((log_q - direct).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct RealNvp {
    layers: Vec<AffineCoupling>,
    dim: usize,
}

impl RealNvp {
    /// Builds a flow of `n_layers` coupling layers over `R^dim`, each with a
    /// one-hidden-layer conditioner of width `hidden` and log-scale clamp
    /// `s_max`.
    ///
    /// Masks alternate (checkerboard, flipped every layer) so every
    /// coordinate is transformed by every second layer.
    ///
    /// # Panics
    ///
    /// Panics if `dim < 2` or `n_layers == 0`.
    pub fn new(
        store: &mut ParamStore,
        dim: usize,
        n_layers: usize,
        hidden: usize,
        s_max: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dim >= 2, "RealNVP requires dim >= 2 (got {dim})");
        assert!(n_layers > 0, "RealNVP requires at least one layer");
        let layers = (0..n_layers)
            .map(|i| {
                AffineCoupling::new(
                    store,
                    Mask::alternating(dim, i % 2 == 0),
                    hidden,
                    s_max,
                    rng,
                )
            })
            .collect();
        RealNvp { layers, dim }
    }

    /// Dimensionality of the flow.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coupling layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrows layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_layers()`.
    pub fn layer(&self, i: usize) -> &AffineCoupling {
        &self.layers[i]
    }

    /// Parameter ids of every layer, in layer order (the canonical
    /// parameter layout used by snapshots and checkpoints).
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.param_ids_for_layers(0..self.layers.len())
    }

    /// Parameter ids of the layers in `range` (e.g. one NOFIS stage block).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the layer count.
    pub fn param_ids_for_layers(&self, range: Range<usize>) -> Vec<ParamId> {
        assert!(range.end <= self.layers.len(), "layer range out of bounds");
        self.layers[range]
            .iter()
            .flat_map(|l| l.param_ids().into_iter())
            .collect()
    }

    /// Differentiable forward pass through the first `depth` layers.
    ///
    /// Returns `(z_depth, logdet)` with `logdet` of shape `[N, 1]` holding
    /// the accumulated `Σ ln|det J|` per sample.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the layer count.
    pub fn forward_graph(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        x: Var,
        depth: usize,
    ) -> (Var, Var) {
        assert!(
            depth >= 1 && depth <= self.layers.len(),
            "invalid depth {depth}"
        );
        self.forward_graph_layers(store, g, x, None, 0..depth)
    }

    /// Differentiable forward pass through the layers in `layers`.
    ///
    /// `logdet` is the `[N, 1]` log-det already accumulated before
    /// `layers.start` — e.g. a frozen prefix computed by
    /// [`RealNvp::forward_rows`] and injected as a constant — and the sum
    /// continues from it left to right, exactly as one
    /// [`RealNvp::forward_graph`] over all the layers would add. With
    /// `None` the sum starts at the first layer of the range.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or out of bounds.
    pub fn forward_graph_layers(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        x: Var,
        logdet: Option<Var>,
        layers: Range<usize>,
    ) -> (Var, Var) {
        assert!(
            layers.start < layers.end && layers.end <= self.layers.len(),
            "invalid layer range {layers:?}"
        );
        let mut z = x;
        let mut acc = logdet;
        for layer in &self.layers[layers] {
            let (z2, ld) = layer.forward_graph(store, g, z);
            z = z2;
            acc = Some(match acc {
                Some(sum) => g.add(sum, ld),
                None => ld,
            });
        }
        (z, acc.expect("non-empty layer range"))
    }

    /// Plain forward transform of one point through the first `depth`
    /// layers: a one-row call of the tape-free kernel
    /// ([`RealNvp::forward_rows`]). Returns `(z_depth, Σ ln|det J|)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero, exceeds the layer count, or
    /// `x.len() != self.dim()`.
    pub fn transform(&self, store: &ParamStore, x: &[f64], depth: usize) -> (Vec<f64>, f64) {
        assert!(
            depth >= 1 && depth <= self.layers.len(),
            "invalid depth {depth}"
        );
        let mut z = x.to_vec();
        let mut logdet = [0.0];
        self.check_rows(&(0..depth), &z, &logdet);
        with_scratch(|sc| self.forward_block(store, 0..depth, &mut z, &mut logdet, sc));
        (z, logdet[0])
    }

    /// Inverse transform of one point back through the first `depth` layers
    /// (applied last-to-first): a one-row call of the tape-free kernel
    /// ([`RealNvp::inverse_rows`]). Returns `(z_0, Σ ln|det J_inverse|)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero, exceeds the layer count, or
    /// `y.len() != self.dim()`.
    pub fn inverse(&self, store: &ParamStore, y: &[f64], depth: usize) -> (Vec<f64>, f64) {
        assert!(
            depth >= 1 && depth <= self.layers.len(),
            "invalid depth {depth}"
        );
        let mut z = y.to_vec();
        let mut logdet_inv = [0.0];
        self.check_rows(&(0..depth), &z, &logdet_inv);
        with_scratch(|sc| self.inverse_block(store, 0..depth, &mut z, &mut logdet_inv, sc));
        (z, logdet_inv[0])
    }

    /// Draws one sample from the depth-`depth` flow distribution `q`.
    ///
    /// Returns `(x, ln q(x))`; the log-density comes for free from the
    /// change-of-variables identity `ln q(x) = ln p(z₀) − Σ ln|det J|`.
    /// The latent `z₀` takes `dim` standard-normal draws from `rng`, in
    /// coordinate order.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the layer count.
    pub fn sample(&self, store: &ParamStore, depth: usize, rng: &mut impl Rng) -> (Vec<f64>, f64) {
        let z0: Vec<f64> = (0..self.dim).map(|_| rng.sample(StandardNormal)).collect();
        let base = base_log_density(&z0);
        let (x, logdet) = self.transform(store, &z0, depth);
        (x, base - logdet)
    }

    /// Exact log-density `ln q(x)` of the depth-`depth` flow distribution,
    /// evaluated by inverting the flow.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero, exceeds the layer count, or
    /// `x.len() != self.dim()`.
    pub fn log_density(&self, store: &ParamStore, x: &[f64], depth: usize) -> f64 {
        let (z0, logdet_inv) = self.inverse(store, x, depth);
        logdet_inv + base_log_density(&z0)
    }
}

pub(crate) fn base_log_density(z: &[f64]) -> f64 {
    let sq: f64 = z.iter().map(|v| v * v).sum();
    -0.5 * (z.len() as f64) * LN_2PI - 0.5 * sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randomized_flow(dim: usize, layers: usize, seed: u64) -> (ParamStore, RealNvp) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let flow = RealNvp::new(&mut store, dim, layers, 8, 2.0, &mut rng);
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        let mut prng = StdRng::seed_from_u64(seed + 100);
        for id in ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v += prng.gen_range(-0.3..0.3);
            }
        }
        (store, flow)
    }

    #[test]
    fn multi_layer_round_trip() {
        let (store, flow) = randomized_flow(4, 6, 1);
        let x = [0.2, -1.4, 0.9, 0.5];
        let (y, ld) = flow.transform(&store, &x, 6);
        let (back, ld_inv) = flow.inverse(&store, &y, 6);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((ld + ld_inv).abs() < 1e-10);
    }

    #[test]
    fn prefix_depths_compose() {
        let (store, flow) = randomized_flow(2, 4, 2);
        let x = [0.3, 0.7];
        let (z2, ld2) = flow.transform(&store, &x, 2);
        // Applying layers 2..4 manually should give the same as depth 4.
        let (z3, ld3) = flow.layer(2).transform(&store, &z2);
        let (z4, ld4) = flow.layer(3).transform(&store, &z3);
        let (direct, ld_direct) = flow.transform(&store, &x, 4);
        for (a, b) in z4.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((ld2 + ld3 + ld4 - ld_direct).abs() < 1e-12);
    }

    #[test]
    fn sample_log_density_consistency() {
        let (store, flow) = randomized_flow(3, 4, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let (x, log_q) = flow.sample(&store, 4, &mut rng);
            let direct = flow.log_density(&store, &x, 4);
            assert!((log_q - direct).abs() < 1e-9, "{log_q} vs {direct}");
        }
    }

    #[test]
    fn identity_flow_density_is_base() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let flow = RealNvp::new(&mut store, 2, 4, 8, 2.0, &mut rng);
        let x = [0.5, -0.25];
        let expected = base_log_density(&x);
        assert!((flow.log_density(&store, &x, 4) - expected).abs() < 1e-12);
    }

    #[test]
    fn graph_forward_matches_plain_for_depth() {
        use nofis_autograd::{Graph, Tensor};
        let (store, flow) = randomized_flow(4, 5, 7);
        let x = [0.1, -0.2, 0.3, -0.4];
        for depth in [1, 3, 5] {
            let mut g = Graph::new();
            let xv = g.constant(Tensor::from_row(&x));
            let (z, ld) = flow.forward_graph(&store, &mut g, xv, depth);
            let (pz, pld) = flow.transform(&store, &x, depth);
            for (c, pzc) in pz.iter().enumerate() {
                assert!((g.value(z)[(0, c)] - pzc).abs() < 1e-12);
            }
            assert!((g.value(ld)[(0, 0)] - pld).abs() < 1e-12);
        }
    }

    #[test]
    fn param_ids_partition_by_layer() {
        let (_, flow) = randomized_flow(2, 6, 9);
        let all = flow.param_ids_for_layers(0..6);
        let first = flow.param_ids_for_layers(0..3);
        let second = flow.param_ids_for_layers(3..6);
        assert_eq!(all.len(), first.len() + second.len());
        assert!(first.iter().all(|id| !second.contains(id)));
    }

    #[test]
    #[should_panic(expected = "dim >= 2")]
    fn rejects_one_dimension() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RealNvp::new(&mut store, 1, 2, 8, 2.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "invalid depth")]
    fn rejects_zero_depth() {
        let (store, flow) = randomized_flow(2, 2, 0);
        let _ = flow.transform(&store, &[0.0, 0.0], 0);
    }
}
