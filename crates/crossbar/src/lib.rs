//! # memaging-crossbar
//!
//! Memristor crossbar simulation for the *memaging* workspace — the
//! hardware-mapping half of "Aging-aware Lifetime Enhancement for
//! Memristor-based Neuromorphic Computing" (DATE 2019).
//!
//! Building blocks, bottom-up:
//!
//! * [`Crossbar`]: a grid of stateful [`memaging_device::Memristor`]s
//!   (paper Fig. 1) with full and delta programming and aggregate aging
//!   telemetry. The network reads the programmed conductances back
//!   ([`Crossbar::conductances`]) and computes `I_j = Σ V_i·g_ij` in
//!   software, so aging reaches accuracy only through those conductances;
//! * [`TiledMatrix`]: large logical matrices split over bounded physical
//!   tiles;
//! * [`WeightMapping`]: the affine weight→conductance map of eq. (4) over a
//!   common (fresh or aged) resistance window;
//! * [`trace_estimates`] / [`traced_positions`]: the 1-of-9 block-center
//!   representative tracing of §IV-B;
//! * [`select_range`]: the iterative common-range selection of Fig. 8
//!   ([`CrossbarNetwork::map_weights`] runs it on an incremental engine
//!   that a test-only naive oracle checks bit for bit);
//! * [`CrossbarNetwork`]: a whole neural network on crossbars, with
//!   [`MappingStrategy::Fresh`] (traditional) and
//!   [`MappingStrategy::AgingAware`] (proposed) mapping;
//! * [`tune`]: sign-based online tuning (eq. 5) whose programming pulses age
//!   the devices — the feedback loop the paper's framework breaks.
//!
//! Beyond the paper's core flow, the crate models the production
//! non-idealities and alternatives a deployment would weigh:
//!
//! * write variability ([`Crossbar::program_conductances_noisy`]);
//! * differential-pair signed-weight mapping ([`DifferentialCrossbar`]);
//! * the row-swapping wear-leveling baseline of the paper's ref. \[12\]
//!   ([`incremental_swap`], [`CrossbarNetwork::set_wear_leveling`]).
//!
//! # Example
//!
//! ```
//! use memaging_crossbar::{tune, CrossbarNetwork, MappingStrategy, TuneConfig};
//! use memaging_dataset::{Dataset, SyntheticSpec};
//! use memaging_device::{ArrheniusAging, DeviceSpec};
//! use memaging_nn::{models, train, NoRegularizer, TrainConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(3, 1))?;
//! data.normalize();
//! let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(0))?;
//! train(&mut net, &data, &TrainConfig { epochs: 8, ..Default::default() }, &NoRegularizer)?;
//!
//! let mut hw = CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default())?;
//! hw.map_weights(MappingStrategy::Fresh, Some((&data, 64)))?;
//! let report = tune(&mut hw, &data, &TuneConfig { target_accuracy: 0.85, ..Default::default() })?;
//! println!("tuned in {} iterations, {} pulses", report.iterations, report.pulses);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crossbar;
mod differential;
mod error;
mod incremental;
mod mapping;
mod network;
mod noise;
mod range_select;
mod tile;
mod tracer;
mod tuner;
mod wear_level;

pub use crossbar::{Crossbar, ProgramStats, TileWear};
pub use differential::{DifferentialCrossbar, DifferentialMapping};
pub use error::CrossbarError;
pub use mapping::{WeightMapping, WeightRange};
pub use network::{CrossbarNetwork, MapReport, MappingStrategy};
pub use range_select::{select_range, RangeSelection};
pub use tile::{BlockMap, TiledMatrix};
pub use tracer::{trace_estimates, traced_positions, traced_upper_bound_range, TracedEstimate};
pub use tuner::{tune, tune_with_recorder, TuneConfig, TuneReport};
pub use wear_level::{incremental_swap, wear_imbalance, RowAssignment};
