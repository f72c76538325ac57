//! # memaging-nn
//!
//! A from-scratch neural-network training stack for the *memaging*
//! workspace (reproduction of "Aging-aware Lifetime Enhancement for
//! Memristor-based Neuromorphic Computing", DATE 2019).
//!
//! The paper needs a training loop whose *cost function* can be modified —
//! its central software technique replaces L2 regularization with a
//! two-segment skewed penalty (eqs. 8–10) that pushes weights toward small
//! values, so the mapped memristor resistances stay large and age slowly.
//! No mainstream Rust NN framework exposes that hook cleanly, so this crate
//! implements exactly what's required:
//!
//! * [`Layer`] implementations: [`Dense`], [`Conv2d`], [`Pool2d`],
//!   [`Activation`] — all operating on flattened `[batch, features]`
//!   matrices, whose weight matrices are the objects a crossbar stores;
//! * [`Network`]: a validated sequential container with forward/backward and
//!   weight export/import for hardware mapping;
//! * [`loss`]: softmax cross-entropy (eq. 1) and accuracy;
//! * [`Regularizer`]: [`L2`] (baseline `T`) and [`SkewedL2`] (proposed `ST`,
//!   eqs. 8–10), dispatched per *mappable layer* so `βᵢ = c·σᵢ` varies by
//!   layer as in the paper's Table II;
//! * [`Sgd`]: momentum SGD applying data + regularizer gradients (eq. 3);
//! * [`models`]: LeNet-5 and VGG-16 builders (faithful structure) plus
//!   scaled variants for simulation-budget experiments;
//! * [`train`] / [`evaluate`]: the mini-batch training loop and the one
//!   accuracy loop ([`evaluate_reaching`], which can stop once a target is
//!   out of reach).
//!
//! # Example: skewed-weight training
//!
//! ```
//! use memaging_dataset::{Dataset, SyntheticSpec};
//! use memaging_nn::{models, train, NoRegularizer, SkewedL2, TrainConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(4, 7))?;
//! data.normalize();
//! let mut net = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(0))?;
//! // Stage 1: ordinary training to learn sigma_i per layer.
//! let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
//! train(&mut net, &data, &cfg, &NoRegularizer)?;
//! // Stage 2: skewed training with beta_i = c * sigma_i (paper Table II).
//! let reg = SkewedL2::from_layer_stds(&net.weight_stds(), 1.0, 5e-3, 5e-4);
//! train(&mut net, &data, &cfg, &reg)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod activation;
mod conv;
mod dense;
mod error;
mod layer;
mod network;
mod optimizer;
mod pool;
mod regularizer;
mod trainer;

pub mod loss;
pub mod models;

pub use activation::{Activation, ActivationFn};
pub use conv::Conv2d;
pub use dense::Dense;
pub use error::NnError;
pub use layer::{Layer, LayerKind, Mode, ParamKind};
pub use network::Network;
pub use optimizer::Sgd;
pub use pool::{Pool2d, PoolKind};
pub use regularizer::{
    applies_to, NoRegularizer, PerLayer, Regularizer, SkewedL2, WeightPenalty, L2,
};
pub use trainer::{
    evaluate, evaluate_reaching, train, train_with_recorder, EpochStats, Evaluation, TrainConfig,
    TrainReport,
};
