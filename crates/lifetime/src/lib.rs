//! # memaging-lifetime
//!
//! Lifetime simulation for memristor crossbars — the evaluation harness of
//! "Aging-aware Lifetime Enhancement for Memristor-based Neuromorphic
//! Computing" (DATE 2019).
//!
//! A deployed crossbar cycles between serving applications (inference, which
//! drifts conductances recoverably) and maintenance (re-mapping + online
//! tuning, whose programming pulses age the devices irreversibly). The
//! simulator ([`run_lifetime`]) runs that cycle until a maintenance session
//! cannot restore the target accuracy within the tuning budget — the
//! paper's failure criterion — and reports:
//!
//! * the lifetime in applications served (Table I),
//! * the per-session tuning-iteration series (Fig. 10),
//! * the per-layer mean aged resistance bounds (Fig. 11, split into conv vs
//!   FC by [`conv_vs_fc_series`]).
//!
//! The three strategies of the paper are encoded by [`Strategy`]:
//! `T+T`, `ST+T` and `ST+AT`.
//!
//! # Example
//!
//! ```no_run
//! use memaging_dataset::{Dataset, SyntheticSpec};
//! use memaging_device::{ArrheniusAging, DeviceSpec};
//! use memaging_lifetime::{run_lifetime, LifetimeConfig, Strategy};
//! use memaging_nn::{models, train, NoRegularizer, TrainConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(3, 1))?;
//! data.normalize();
//! let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(0))?;
//! train(&mut net, &data, &TrainConfig::default(), &NoRegularizer)?;
//! let config = LifetimeConfig { strategy: Strategy::TT, ..Default::default() };
//! let result = run_lifetime(net, DeviceSpec::default(), ArrheniusAging::default(), &data, &config)?;
//! println!("{} served {} applications", result.strategy, result.lifetime_applications);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attribution;
mod error;
mod forecast;
mod health;
mod simulator;
mod strategy;
mod telemetry;

pub use attribution::{WearCause, WearEntry, WearLedger};
pub use error::LifetimeError;
pub use forecast::{trend, worst_tile, TileTrend};
pub use health::{HealthAlert, HealthMonitor, HealthReport, LayerHealth, WearThresholds};
pub use simulator::{
    run_lifetime, run_lifetime_with_recorder, LifetimeConfig, LifetimeResult, SessionRecord,
};
pub use strategy::Strategy;
pub use telemetry::{compare_lifetimes, conv_vs_fc_series, KindAgingPoint, LifetimeComparison};
