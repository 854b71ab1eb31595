//! Composite limit states: multi-spec yield.
//!
//! Real circuits fail when *any* spec is violated (gain, bandwidth, power,
//! offset…). [`AnyOf`] composes limit states with
//! `g(x) = min_k g_k(x)` — failing iff at least one member fails — and
//! propagates the active member's gradient, so the composite plugs
//! directly into NOFIS and every baseline.

use crate::LimitState;

/// Failure when **any** member fails: `g = min_k g_k`.
///
/// # Example
///
/// ```
/// use nofis_prob::{AnyOf, LimitState};
///
/// struct Spec(f64, usize); // fails when x[idx] >= bound
/// impl LimitState for Spec {
///     fn dim(&self) -> usize { 2 }
///     fn value(&self, x: &[f64]) -> f64 { self.0 - x[self.1] }
/// }
///
/// let multi = AnyOf::new(vec![Box::new(Spec(3.0, 0)), Box::new(Spec(2.5, 1))])
///     .expect("consistent dims");
/// assert!(multi.value(&[3.5, 0.0]) <= 0.0); // first spec violated
/// assert!(multi.value(&[0.0, 3.0]) <= 0.0); // second spec violated
/// assert!(multi.value(&[0.0, 0.0]) > 0.0);  // both met
/// ```
pub struct AnyOf {
    members: Vec<Box<dyn LimitState + Send + Sync>>,
    dim: usize,
    name: String,
}

impl std::fmt::Debug for AnyOf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyOf")
            .field("members", &self.members.len())
            .field("dim", &self.dim)
            .finish()
    }
}

impl AnyOf {
    /// Composes the members.
    ///
    /// # Errors
    ///
    /// Returns a message if `members` is empty or dimensions differ.
    pub fn new(members: Vec<Box<dyn LimitState + Send + Sync>>) -> Result<Self, String> {
        let dim = members
            .first()
            .ok_or_else(|| "AnyOf needs at least one member".to_string())?
            .dim();
        if members.iter().any(|m| m.dim() != dim) {
            return Err("all members must share the variation dimension".into());
        }
        let name = format!(
            "any-of({})",
            members
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Ok(AnyOf { members, dim, name })
    }

    /// Number of composed specs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if no members are present (never constructible via
    /// [`AnyOf::new`]; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl LimitState for AnyOf {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.members
            .iter()
            .map(|m| m.value(x))
            .fold(f64::INFINITY, f64::min)
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        // One call per member; the active (minimal) member's gradient is
        // the subgradient of the min.
        let mut best = f64::INFINITY;
        let mut best_grad = vec![0.0; self.dim];
        for m in &self.members {
            let (v, grad) = m.value_grad(x);
            if v < best {
                best = v;
                best_grad = grad;
            }
        }
        (best, best_grad)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Plane {
        bound: f64,
        axis: usize,
        dim: usize,
    }
    impl LimitState for Plane {
        fn dim(&self) -> usize {
            self.dim
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.bound - x[self.axis]
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            let mut g = vec![0.0; self.dim];
            g[self.axis] = -1.0;
            (self.bound - x[self.axis], g)
        }
        fn name(&self) -> &str {
            "plane"
        }
    }

    fn two_specs() -> AnyOf {
        AnyOf::new(vec![
            Box::new(Plane {
                bound: 3.0,
                axis: 0,
                dim: 2,
            }),
            Box::new(Plane {
                bound: 2.0,
                axis: 1,
                dim: 2,
            }),
        ])
        .unwrap()
    }

    #[test]
    fn min_semantics() {
        let m = two_specs();
        assert_eq!(m.value(&[0.0, 0.0]), 2.0);
        assert!(m.value(&[3.5, 0.0]) < 0.0);
        assert!(m.value(&[0.0, 2.5]) < 0.0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(m.name().contains("plane"));
    }

    #[test]
    fn gradient_follows_active_member() {
        let m = two_specs();
        // Near the x1 spec boundary: gradient along axis 1.
        let (_, g) = m.value_grad(&[0.0, 1.9]);
        assert_eq!(g, vec![0.0, -1.0]);
        // Near the x0 spec boundary.
        let (_, g) = m.value_grad(&[2.9, 0.0]);
        assert_eq!(g, vec![-1.0, 0.0]);
    }

    #[test]
    fn union_probability_exceeds_members() {
        use crate::monte_carlo;
        use rand::SeedableRng;
        let m = two_specs();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let p_union = monte_carlo(&m, 0.0, 200_000, &mut rng, nofis_parallel::global()).estimate();
        let p0 = 1.0 - crate::normal_cdf(3.0);
        let p1 = 1.0 - crate::normal_cdf(2.0);
        assert!(p_union > p1.max(p0));
        assert!(p_union < p0 + p1 + 2e-3);
        assert!((p_union - (p0 + p1 - p0 * p1)).abs() < 2e-3);
    }

    #[test]
    fn rejects_inconsistent_members() {
        assert!(AnyOf::new(vec![]).is_err());
        let err = AnyOf::new(vec![
            Box::new(Plane {
                bound: 1.0,
                axis: 0,
                dim: 2,
            }),
            Box::new(Plane {
                bound: 1.0,
                axis: 0,
                dim: 3,
            }),
        ]);
        assert!(err.is_err());
    }
}
