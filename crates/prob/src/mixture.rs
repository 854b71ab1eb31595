//! Gaussian mixture proposals.
//!
//! Mixture importance sampling (Kanj, Joshi, Nassif — DAC 2006, the
//! paper's reference [10]) is the classical circuit-yield proposal family:
//! a mixture of the base distribution with Gaussians centered on observed
//! or suspected failure points. The mixture keeps the base as a component,
//! which bounds the importance weights by the inverse mixture weight and
//! guarantees finite variance.

use crate::{Proposal, LN_2PI};
use rand::{Rng, RngCore};
use rand_distr::StandardNormal;

/// A mixture of isotropic Gaussians over `R^D` with explicit weights.
///
/// # Example
///
/// ```
/// use nofis_prob::{GaussianMixture, Proposal};
/// use rand::SeedableRng;
///
/// // Base-plus-shifted-mode mixture for a known failure region near x=4.
/// let q = GaussianMixture::new(vec![
///     (0.5, vec![0.0, 0.0], 1.0),
///     (0.5, vec![4.0, 0.0], 0.7),
/// ]).expect("valid mixture");
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let x = q.sample(&mut rng);
/// assert_eq!(x.len(), 2);
/// assert!(q.log_density(&x).is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    /// `(weight, mean, std)` per component; weights sum to 1.
    components: Vec<(f64, Vec<f64>, f64)>,
    dim: usize,
}

impl GaussianMixture {
    /// Builds a mixture from `(weight, mean, std)` components.
    ///
    /// # Errors
    ///
    /// Returns a message if the component list is empty, dimensions are
    /// inconsistent, any weight/std is non-positive, or the weights do not
    /// sum to 1 (within 1e-9; they are re-normalized when close).
    pub fn new(components: Vec<(f64, Vec<f64>, f64)>) -> Result<Self, String> {
        if components.is_empty() {
            return Err("mixture needs at least one component".into());
        }
        let dim = components[0].1.len();
        if dim == 0 {
            return Err("mixture components must be non-empty vectors".into());
        }
        for (w, mean, std) in &components {
            if mean.len() != dim {
                return Err("inconsistent component dimensions".into());
            }
            if *w <= 0.0 || w.is_nan() || *std <= 0.0 || std.is_nan() {
                return Err("weights and stds must be positive".into());
            }
        }
        let total: f64 = components.iter().map(|(w, _, _)| w).sum();
        if (total - 1.0).abs() > 1e-9 && (total - 1.0).abs() > 1e-3 {
            return Err(format!("weights sum to {total}, expected 1"));
        }
        let components = components
            .into_iter()
            .map(|(w, m, s)| (w / total, m, s))
            .collect();
        Ok(GaussianMixture { components, dim })
    }

    /// The classic mixture-IS construction: keep the base `N(0, I)` with
    /// weight `base_weight` and spread the rest uniformly over Gaussians
    /// centered at `centers` with standard deviation `std`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianMixture::new`]; additionally requires
    /// `base_weight` in `(0, 1)` and a non-empty center list.
    pub fn base_plus_centers(
        dim: usize,
        base_weight: f64,
        centers: &[Vec<f64>],
        std: f64,
    ) -> Result<Self, String> {
        if !(base_weight > 0.0 && base_weight < 1.0) {
            return Err("base_weight must be in (0, 1)".into());
        }
        if centers.is_empty() {
            return Err("need at least one failure center".into());
        }
        let w = (1.0 - base_weight) / centers.len() as f64;
        let mut components = vec![(base_weight, vec![0.0; dim], 1.0)];
        for c in centers {
            components.push((w, c.clone(), std));
        }
        GaussianMixture::new(components)
    }

    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }
}

impl Proposal for GaussianMixture {
    fn dim(&self) -> usize {
        self.dim
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let mut shim = RngShim(rng);
        let u: f64 = shim.gen();
        let mut acc = 0.0;
        let mut chosen = &self.components[self.components.len() - 1];
        for comp in &self.components {
            acc += comp.0;
            if u <= acc {
                chosen = comp;
                break;
            }
        }
        let (_, mean, std) = chosen;
        mean.iter()
            .map(|&m| {
                let z: f64 = shim.sample(StandardNormal);
                m + std * z
            })
            .collect()
    }

    fn log_density(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "dimension mismatch in mixture density");
        // Log-sum-exp over components.
        let logs: Vec<f64> = self
            .components
            .iter()
            .map(|(w, mean, std)| {
                let sq: f64 = x
                    .iter()
                    .zip(mean)
                    .map(|(xi, mi)| {
                        let z = (xi - mi) / std;
                        z * z
                    })
                    .sum();
                w.ln() - 0.5 * self.dim as f64 * LN_2PI - self.dim as f64 * std.ln() - 0.5 * sq
            })
            .collect();
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max + logs.iter().map(|l| (l - max).exp()).sum::<f64>().ln()
    }
}

struct RngShim<'a>(&'a mut dyn RngCore);

impl RngCore for RngShim<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{importance_sampling, normal_cdf, LimitState, StandardGaussian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_component_matches_standard_gaussian() {
        let q = GaussianMixture::new(vec![(1.0, vec![0.0, 0.0], 1.0)]).unwrap();
        let p = StandardGaussian::new(2);
        for x in [[0.0, 0.0], [1.0, -2.0], [3.0, 0.5]] {
            assert!((Proposal::log_density(&q, &x) - p.log_density(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn density_integrates_to_one_on_grid() {
        let q = GaussianMixture::new(vec![
            (0.3, vec![-2.0, 0.0], 0.8),
            (0.7, vec![2.0, 1.0], 1.2),
        ])
        .unwrap();
        let res = 121;
        let extent = 9.0;
        let step = 2.0 * extent / (res - 1) as f64;
        let mut mass = 0.0;
        for iy in 0..res {
            for ix in 0..res {
                let x = -extent + ix as f64 * step;
                let y = -extent + iy as f64 * step;
                mass += Proposal::log_density(&q, &[x, y]).exp();
            }
        }
        mass *= step * step;
        assert!((mass - 1.0).abs() < 1e-3, "mass = {mass}");
    }

    #[test]
    fn mixture_is_estimates_two_mode_event_well() {
        // Two symmetric failure disks — exactly what single-Gaussian
        // Adapt-IS struggles with and mixture IS was designed for.
        struct TwoDisks;
        impl LimitState for TwoDisks {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                let d1 = (x[0] - 3.5).powi(2) + x[1].powi(2);
                let d2 = (x[0] + 3.5).powi(2) + x[1].powi(2);
                d1.min(d2) - 1.0
            }
        }
        let q = GaussianMixture::base_plus_centers(2, 0.2, &[vec![3.5, 0.0], vec![-3.5, 0.0]], 0.7)
            .unwrap();
        let p = StandardGaussian::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let (r, _) = importance_sampling(
            &TwoDisks,
            0.0,
            &q,
            &p,
            20_000,
            &mut rng,
            nofis_parallel::global(),
        );
        // Golden 5.67e-3 by 2e7-sample MC (the Bessel factor I₀(3.5)
        // makes the naive density-times-area guess 5× too small).
        assert!(
            (r.estimate / 5.67e-3 - 1.0).abs() < 0.25,
            "p = {}",
            r.estimate
        );
        assert!(r.effective_sample_size > 500.0);
    }

    #[test]
    fn sampling_respects_weights() {
        let q = GaussianMixture::new(vec![(0.9, vec![-5.0], 0.5), (0.1, vec![5.0], 0.5)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 5_000;
        let right = (0..n)
            .filter(|_| Proposal::sample(&q, &mut rng)[0] > 0.0)
            .count();
        let frac = right as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn rejects_invalid_mixtures() {
        assert!(GaussianMixture::new(vec![]).is_err());
        assert!(GaussianMixture::new(vec![(1.0, vec![], 1.0)]).is_err());
        assert!(
            GaussianMixture::new(vec![(0.5, vec![0.0], 1.0), (0.5, vec![0.0, 0.0], 1.0)]).is_err()
        );
        assert!(GaussianMixture::new(vec![(-1.0, vec![0.0], 1.0)]).is_err());
        assert!(GaussianMixture::new(vec![(0.2, vec![0.0], 1.0)]).is_err());
        assert!(GaussianMixture::base_plus_centers(2, 1.5, &[vec![0.0, 0.0]], 1.0).is_err());
        assert!(GaussianMixture::base_plus_centers(2, 0.5, &[], 1.0).is_err());
    }

    #[test]
    fn bounded_weights_with_base_component() {
        // With the base kept at weight w0, importance weights are bounded
        // by 1/w0 — check empirically.
        let q = GaussianMixture::base_plus_centers(1, 0.25, &[vec![4.0]], 1.0).unwrap();
        let p = StandardGaussian::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2_000 {
            let x = Proposal::sample(&q, &mut rng);
            let w = (p.log_density(&x) - Proposal::log_density(&q, &x)).exp();
            assert!(w <= 4.0 + 1e-9, "weight {w} exceeds 1/base_weight");
        }
        let _ = normal_cdf(0.0); // keep import used
    }
}
