//! Neural-network building blocks on top of [`nofis_autograd`].
//!
//! Provides the pieces NOFIS and its baselines need:
//!
//! * [`Linear`] / [`Mlp`] — fully connected layers with selectable
//!   [`Activation`] and [`Init`] schemes (including the zero-initialized
//!   output layers RealNVP coupling nets use to start at the identity).
//! * [`Adam`] — the optimizer. It updates exactly the parameters it is
//!   handed gradients for, so a block NOFIS keeps off the tape stays
//!   frozen.
//! * [`Regressor`] / [`Classifier`] — surrogate-model training loops used
//!   by the SIR and SUC baselines of the paper's Table 1.
//!
//! # Example
//!
//! ```
//! use nofis_autograd::{Graph, ParamStore, Tensor};
//! use nofis_nn::{Activation, Adam, Mlp};
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Mlp::new(&mut store, &[2, 8, 1], Activation::Tanh, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! // one training step on a dummy batch
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::zeros(4, 2));
//! let y = net.forward(&store, &mut g, x);
//! let sq = g.square(y);
//! let loss = g.mean_all(sq);
//! g.backward(loss);
//! opt.step(&mut store, &g.param_grads());
//! ```

#![deny(missing_docs)]

mod adam;
mod init;
mod linear;
mod mlp;
mod trainer;

pub use adam::{Adam, AdamState};
pub use init::Init;
pub use linear::Linear;
pub use mlp::{Activation, Mlp, MlpScratch};
pub use trainer::{Classifier, Regressor, TrainConfig};
