use crate::RareEventEstimator;
use nofis_prob::{monte_carlo, LimitState};
use rand::RngCore;

/// Plain Monte Carlo (Table 1 baseline "MC").
///
/// # Example
///
/// ```
/// use nofis_baselines::{McEstimator, RareEventEstimator};
/// use nofis_prob::LimitState;
/// use rand::SeedableRng;
///
/// struct Tail;
/// impl LimitState for Tail {
///     fn dim(&self) -> usize { 1 }
///     fn value(&self, x: &[f64]) -> f64 { 1.0 - x[0] }
/// }
///
/// let mc = McEstimator::new(20_000);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let p = mc.estimate(&Tail, &mut rng);
/// assert!((p - 0.159).abs() < 0.02); // 1 - Φ(1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McEstimator {
    samples: usize,
}

impl McEstimator {
    /// Creates an estimator that spends exactly `samples` calls.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn new(samples: usize) -> Self {
        assert!(samples > 0, "MC needs at least one sample");
        McEstimator { samples }
    }

    /// The configured sample budget.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

impl RareEventEstimator for McEstimator {
    fn method_name(&self) -> &'static str {
        "MC"
    }

    fn estimate(&self, limit_state: &(dyn LimitState + Sync), rng: &mut dyn RngCore) -> f64 {
        monte_carlo(
            &limit_state,
            0.0,
            self.samples,
            rng,
            nofis_parallel::global(),
        )
        .estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_prob::CountingOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Half;
    impl LimitState for Half {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            -x[0] // fails when x0 >= 0: probability 1/2
        }
    }

    #[test]
    fn estimates_half() {
        let mc = McEstimator::new(10_000);
        let oracle = CountingOracle::new(&Half);
        let mut rng = StdRng::seed_from_u64(1);
        let p = mc.estimate(&oracle, &mut rng);
        assert!((p - 0.5).abs() < 0.02);
        assert_eq!(oracle.calls(), 10_000);
    }

    #[test]
    fn rare_event_often_yields_zero() {
        struct VeryRare;
        impl LimitState for VeryRare {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                6.0 - x[0]
            }
        }
        let mc = McEstimator::new(1_000);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(mc.estimate(&VeryRare, &mut rng), 0.0);
    }
}
