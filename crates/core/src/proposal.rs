use nofis_autograd::ParamStore;
use nofis_flows::RealNvp;
use nofis_prob::Proposal;
use rand::RngCore;

/// Adapts a (prefix of a) trained [`RealNvp`] flow into a
/// [`Proposal`] usable with
/// [`importance_sampling`](nofis_prob::importance_sampling).
///
/// NOFIS's final estimator uses the full-depth flow; intermediate depths
/// expose the stage proposals `q_{mK}` for visualization and diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct FlowProposal<'a> {
    flow: &'a RealNvp,
    store: &'a ParamStore,
    depth: usize,
}

impl<'a> FlowProposal<'a> {
    /// Wraps the first `depth` layers of `flow` as a proposal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds `flow.n_layers()`.
    pub fn new(flow: &'a RealNvp, store: &'a ParamStore, depth: usize) -> Self {
        assert!(
            depth >= 1 && depth <= flow.n_layers(),
            "depth {depth} out of range 1..={}",
            flow.n_layers()
        );
        FlowProposal { flow, store, depth }
    }

    /// The prefix depth this proposal evaluates.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl Proposal for FlowProposal<'_> {
    fn dim(&self) -> usize {
        self.flow.dim()
    }

    fn sample(&self, mut rng: &mut dyn RngCore) -> Vec<f64> {
        self.flow.sample(self.store, self.depth, &mut rng).0
    }

    fn log_density(&self, x: &[f64]) -> f64 {
        self.flow.log_density(self.store, x, self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_prob::{importance_sampling, LimitState, StandardGaussian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Everything;
    impl LimitState for Everything {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, _: &[f64]) -> f64 {
            -1.0 // always fails: P = 1
        }
    }

    #[test]
    fn identity_flow_proposal_estimates_total_mass() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let flow = RealNvp::new(&mut store, 2, 4, 8, 2.0, &mut rng);
        let proposal = FlowProposal::new(&flow, &store, 4);
        let p = StandardGaussian::new(2);
        let (r, _) = importance_sampling(
            &Everything,
            0.0,
            &proposal,
            &p,
            500,
            &mut rng,
            nofis_parallel::global(),
        );
        // Identity flow => q = p => all weights are exactly 1.
        assert!((r.estimate - 1.0).abs() < 1e-10);
        assert_eq!(r.hits, 500);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_depth() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let flow = RealNvp::new(&mut store, 2, 4, 8, 2.0, &mut rng);
        let _ = FlowProposal::new(&flow, &store, 5);
    }
}
