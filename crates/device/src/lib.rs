//! # memaging-device
//!
//! Memristor device models for the *memaging* workspace — the physical
//! substrate of "Aging-aware Lifetime Enhancement for Memristor-based
//! Neuromorphic Computing" (DATE 2019).
//!
//! The crate models a filamentary RRAM cell as the paper uses it:
//!
//! * [`Ohms`] / [`Siemens`]: typed resistance/conductance quantities, so the
//!   inverse-domain conversions of the mapping pipeline can't be confused;
//! * [`DeviceSpec`]: the fresh resistance window, level count, programming
//!   pulse and temperature;
//! * [`Quantizer`]: uniform-in-resistance levels (paper Fig. 3b) whose
//!   induced conductance levels are dense near `g_min` (Fig. 3c) — the
//!   quantization asymmetry skewed-weight training exploits;
//! * [`ArrheniusAging`]: eqs. (6)–(7) — both window bounds fall with
//!   accumulated stress; stress per pulse is power-weighted, so devices
//!   programmed at large resistance (small current) age slower;
//! * [`DeviceModel`]: the spec, aging law and quantizer every device of an
//!   array shares, validated once;
//! * [`Memristor`]: one cell's 32-byte state, driven through its model —
//!   programming steps one level per pulse, each pulse stresses the device,
//!   targets outside the aged window clip (the Fig. 4 "Level 7 → Level 2"
//!   failure).
//!
//! # Example
//!
//! ```
//! use memaging_device::{ArrheniusAging, DeviceModel, DeviceSpec, Memristor, Ohms};
//!
//! # fn main() -> Result<(), memaging_device::DeviceError> {
//! let model = DeviceModel::new(DeviceSpec::default(), ArrheniusAging::default())?;
//! let mut cell = Memristor::new(&model);
//! cell.program(&model, Ohms::new(72_000.0)?)?;
//! println!(
//!     "programmed to {} with {} pulses of stress {:.2e} s",
//!     cell.resistance(&model),
//!     cell.pulse_count(),
//!     cell.stress(),
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aging;
mod error;
mod memristor;
mod quantizer;
mod spec;
mod units;

pub use aging::{AgedWindow, ArrheniusAging, BOLTZMANN_EV};
pub use error::DeviceError;
pub use memristor::{DeviceModel, Memristor, ProgramOutcome};
pub use quantizer::Quantizer;
pub use spec::DeviceSpec;
pub use units::{Ohms, Siemens};
