//! Additive (NICE) coupling layers — the volume-preserving predecessor of
//! RealNVP's affine couplings (Dinh et al., 2014; the paper's reference
//! [5]).
//!
//! Additive couplings have unit Jacobian determinant, so a NICE-style flow
//! cannot change the *volume* of the base distribution — only reshape it.
//! They are cheaper and more stable than affine couplings and are useful
//! as interleaved "mixing" layers; the ablation bench quantifies the
//! expressiveness gap on the NOFIS targets.

use crate::Mask;
use nofis_autograd::{Graph, ParamId, ParamStore, Tensor, Var};
use nofis_nn::{Activation, Mlp, MlpScratch};
use rand::Rng;

/// An additive coupling layer:
///
/// ```text
/// y = m ⊙ x + (1 − m) ⊙ (x + t(m ⊙ x)),   ln|det J| = 0
/// ```
///
/// # Example
///
/// ```
/// use nofis_autograd::ParamStore;
/// use nofis_flows::{AdditiveCoupling, Mask};
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = AdditiveCoupling::new(&mut store, Mask::alternating(2, true), 16, &mut rng);
/// let (y, logdet) = layer.transform(&store, &[0.4, -0.2]);
/// assert_eq!(logdet, 0.0); // volume preserving, always
/// let (back, _) = layer.inverse(&store, &y);
/// assert!((back[0] - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct AdditiveCoupling {
    mask: Mask,
    translate_net: Mlp,
}

impl AdditiveCoupling {
    /// Creates an additive coupling layer with a one-hidden-layer
    /// conditioner of width `hidden`, zero-initialized at the output so the
    /// layer starts as the identity.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`.
    pub fn new(store: &mut ParamStore, mask: Mask, hidden: usize, rng: &mut impl Rng) -> Self {
        assert!(hidden > 0, "conditioner hidden width must be positive");
        let d = mask.dim();
        let translate_net = Mlp::new_zero_output(store, &[d, hidden, d], Activation::Tanh, rng);
        AdditiveCoupling {
            mask,
            translate_net,
        }
    }

    /// Dimensionality of the layer.
    pub fn dim(&self) -> usize {
        self.mask.dim()
    }

    /// All parameter ids of the conditioner net.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.translate_net.param_ids()
    }

    /// Differentiable forward transform on a batch; returns `(y, logdet)`
    /// where the log-determinant is identically zero (`[N, 1]` of zeros,
    /// for interface parity with [`AffineCoupling`](crate::AffineCoupling)).
    pub fn forward_graph(&self, store: &ParamStore, g: &mut Graph, x: Var) -> (Var, Var) {
        let d = self.dim();
        assert_eq!(
            g.value(x).cols(),
            d,
            "input has {} columns but the layer has dim {d}",
            g.value(x).cols()
        );
        let n = g.value(x).rows();
        let mask = g.constant(Tensor::from_row(self.mask.as_slice()));
        let inv_mask = g.constant(Tensor::from_row(self.mask.complement().as_slice()));

        let xm = g.mul_row(x, mask);
        let t = self.translate_net.forward(store, g, xm);
        let shifted = g.add(x, t);
        let free = g.mul_row(shifted, inv_mask);
        let y = g.add(free, xm);
        let logdet = g.constant(Tensor::zeros(n, 1));
        (y, logdet)
    }

    /// Plain forward transform of one point; returns `(y, 0.0)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn transform(&self, store: &ParamStore, x: &[f64]) -> (Vec<f64>, f64) {
        assert_eq!(x.len(), self.dim(), "dimension mismatch in transform");
        let m = self.mask.as_slice();
        let masked: Vec<f64> = x.iter().zip(m).map(|(&v, &b)| v * b).collect();
        let t = self.translate(store, &masked);
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| if m[i] == 1.0 { v } else { v + t[i] })
            .collect();
        (y, 0.0)
    }

    /// Inverse transform of one point; returns `(x, 0.0)`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.dim()`.
    pub fn inverse(&self, store: &ParamStore, y: &[f64]) -> (Vec<f64>, f64) {
        assert_eq!(y.len(), self.dim(), "dimension mismatch in inverse");
        let m = self.mask.as_slice();
        let masked: Vec<f64> = y.iter().zip(m).map(|(&v, &b)| v * b).collect();
        let t = self.translate(store, &masked);
        let x: Vec<f64> = y
            .iter()
            .enumerate()
            .map(|(i, &v)| if m[i] == 1.0 { v } else { v - t[i] })
            .collect();
        (x, 0.0)
    }

    /// The translation net on one masked row, tape-free.
    fn translate(&self, store: &ParamStore, masked: &[f64]) -> Vec<f64> {
        let mut t = vec![0.0; masked.len()];
        self.translate_net
            .forward_rows(store, masked, &mut t, &mut MlpScratch::default());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randomized(seed: u64) -> (ParamStore, AdditiveCoupling) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = AdditiveCoupling::new(&mut store, Mask::alternating(4, false), 8, &mut rng);
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        let mut prng = StdRng::seed_from_u64(seed + 7);
        for id in ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v += prng.gen_range(-0.5..0.5);
            }
        }
        (store, layer)
    }

    #[test]
    fn identity_at_init() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = AdditiveCoupling::new(&mut store, Mask::alternating(3, true), 8, &mut rng);
        let x = [1.0, -2.0, 0.5];
        let (y, ld) = layer.transform(&store, &x);
        assert_eq!(y, x.to_vec());
        assert_eq!(ld, 0.0);
    }

    #[test]
    fn round_trip_and_volume_preservation() {
        let (store, layer) = randomized(5);
        let x = [0.3, -1.0, 0.7, 2.1];
        let (y, ld) = layer.transform(&store, &x);
        assert_eq!(ld, 0.0);
        assert_ne!(y, x.to_vec()); // actually does something
        let (back, ld_inv) = layer.inverse(&store, &y);
        assert_eq!(ld_inv, 0.0);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn graph_matches_plain_and_logdet_is_zero() {
        let (store, layer) = randomized(11);
        let x = [0.1, 0.2, -0.3, 0.4];
        let mut g = Graph::new();
        let xv = g.constant(Tensor::from_row(&x));
        let (y, ld) = layer.forward_graph(&store, &mut g, xv);
        let (py, _) = layer.transform(&store, &x);
        for (c, pyc) in py.iter().enumerate() {
            assert!((g.value(y)[(0, c)] - pyc).abs() < 1e-12);
        }
        assert_eq!(g.value(ld).item(), 0.0);
    }

    #[test]
    fn gradients_flow_through_translation() {
        let (store, layer) = randomized(13);
        let x = Tensor::from_vec(2, 4, vec![0.5; 8]);
        let mut g = Graph::new();
        let xv = g.constant(x);
        let (y, _) = layer.forward_graph(&store, &mut g, xv);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        assert!(!g.param_grads().is_empty());
    }
}
