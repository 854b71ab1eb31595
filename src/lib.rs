//! Facade crate for the NOFIS reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so downstream users can
//! depend on a single crate:
//!
//! ```
//! use nofis::core::{Levels, Nofis, NofisConfig};
//! use nofis::prob::LimitState;
//!
//! struct Sphere;
//! impl LimitState for Sphere {
//!     fn dim(&self) -> usize { 2 }
//!     fn value(&self, x: &[f64]) -> f64 {
//!         x[0] * x[0] + x[1] * x[1] - 25.0 // fails outside radius 5
//!     }
//! }
//!
//! let config = NofisConfig::default();
//! assert!(config.validate().is_ok());
//! ```
//!
//! See the [README](https://example.invalid/nofis) and DESIGN.md for the
//! architecture; `nofis::core` holds the algorithm itself.

#![deny(missing_docs)]

pub use nofis_autograd as autograd;
pub use nofis_baselines as baselines;
pub use nofis_circuit as circuit;
pub use nofis_core as core;
pub use nofis_faults as faults;
pub use nofis_flows as flows;
pub use nofis_jobs as jobs;
pub use nofis_linalg as linalg;
pub use nofis_metrics as metrics;
pub use nofis_nn as nn;
pub use nofis_parallel as parallel;
pub use nofis_photonics as photonics;
pub use nofis_prob as prob;
pub use nofis_sweep as sweep;
pub use nofis_telemetry as telemetry;
pub use nofis_testcases as testcases;
