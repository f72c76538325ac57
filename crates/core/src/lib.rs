//! # memaging
//!
//! A production-quality Rust reproduction of **"Aging-aware Lifetime
//! Enhancement for Memristor-based Neuromorphic Computing"** (S. Zhang,
//! G. L. Zhang, B. Li, H. Li, U. Schlichtmann — DATE 2019).
//!
//! Memristor crossbars accelerate neural-network vector–matrix products by
//! storing weights as programmable conductances, but every programming pulse
//! irreversibly shrinks a device's usable resistance window ("aging"). The
//! paper proposes a software/hardware co-optimization that extends crossbar
//! lifetime up to 11× at no hardware cost:
//!
//! 1. **Skewed-weight training** (eqs. 8–10): a two-segment regularizer
//!    concentrates weights toward small values, so mapped resistances are
//!    large, programming currents small, and aging slow;
//! 2. **Aging-aware mapping** (Fig. 8): representative 1-of-9 tracing
//!    estimates each array's aged window, and an iterative search selects
//!    the common mapping range that maximizes accuracy, cutting the online
//!    tuning iterations that would otherwise age the array further.
//!
//! This crate is the umbrella: it re-exports the substrate crates and adds
//! the end-to-end [`Framework`] (paper Fig. 5) plus pre-calibrated
//! [`Scenario`]s reproducing the paper's two test cases at simulation scale.
//!
//! ## Workspace layout
//!
//! | crate | contents |
//! |---|---|
//! | [`tensor`] | dense f32 tensors, matmul, im2col, histograms |
//! | [`dataset`] | synthetic CIFAR stand-ins (deterministic, seeded) |
//! | [`nn`] | from-scratch backprop stack + skewed regularizer |
//! | [`device`] | memristor cell: quantizer, Arrhenius aging, drift |
//! | [`crossbar`] | arrays, eq. 4 mapping, tracing, range selection, eq. 5 tuning |
//! | [`lifetime`] | serve → drift → re-map → tune loop; T+T / ST+T / ST+AT |
//! | [`obs`] | dependency-free metrics registry, span timers, JSONL tracing |
//! | [`par`] | scoped thread pool: deterministic parallel loops, `--threads` control |
//!
//! ## Quickstart
//!
//! ```no_run
//! use memaging::Scenario;
//! use memaging::lifetime::Strategy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::quick();
//! let outcome = scenario.run_strategy(Strategy::StAt)?;
//! println!(
//!     "{} software acc {:.3}, lifetime {} applications",
//!     outcome.strategy, outcome.software_accuracy, outcome.lifetime.lifetime_applications
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analyze;
mod error;
mod framework;
mod model;
mod scenario;
mod study;

pub use analyze::{
    analyze_file, analyze_lines, diff, DiffReport, DiffRow, PhaseStat, TileFit, TraceAnalysis,
};
pub use error::FrameworkError;
pub use framework::{Framework, SkewParams, StrategyOutcome, TrainedModel, TrainingPlan};
pub use model::ModelKind;
pub use scenario::{DataGenerator, Scenario};
pub use study::{run_study, StrategyStats, StudyReport};

pub use memaging_crossbar as crossbar;
pub use memaging_dataset as dataset;
pub use memaging_device as device;
pub use memaging_lifetime as lifetime;
pub use memaging_nn as nn;
pub use memaging_obs as obs;
pub use memaging_par as par;
pub use memaging_serve as serve;
pub use memaging_serve::fleet;
pub use memaging_tensor as tensor;
