//! Budget accounting under parallel oracle evaluation.
//!
//! `BudgetedOracle` promises exact call accounting: a budget of `B` calls
//! means at most `B` simulator invocations, ever, no matter how many
//! threads are spending them. This test drives the parallel importance
//! sampler across several pool widths and asserts the counts are exact —
//! against both the budget meter and an independent `CountingOracle`
//! underneath it.

use nofis_parallel::ThreadPool;
use nofis_prob::{
    importance_sampling, BudgetedOracle, CountingOracle, LimitState, StandardGaussian,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Sphere;
impl LimitState for Sphere {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        x[0] * x[0] + x[1] * x[1] - 4.0
    }
}

#[test]
fn grant_plus_parallel_importance_sampling_is_exact() {
    // The estimator protocol: grant n up front, then spend exactly n calls
    // inside the (parallel) sampler — the meter must agree to the call.
    let counting = CountingOracle::new(&Sphere);
    let budgeted = BudgetedOracle::new(&counting, 5000);
    let p = StandardGaussian::new(2);
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let mut rng = StdRng::seed_from_u64(3);
        let n = budgeted.grant(777);
        assert_eq!(n, 777);
        let before = budgeted.used();
        let (result, _) = importance_sampling(&budgeted, 0.0, &p, &p, n, &mut rng, &pool);
        assert!(result.estimate.is_finite());
        assert_eq!(budgeted.used() - before, 777, "threads={threads}");
    }
    assert_eq!(counting.calls(), 3 * 777);
    assert_eq!(budgeted.overruns(), 0);
}
