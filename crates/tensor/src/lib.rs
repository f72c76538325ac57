//! # memaging-tensor
//!
//! A minimal dense `f32` tensor library backing the *memaging* workspace —
//! a reproduction of "Aging-aware Lifetime Enhancement for Memristor-based
//! Neuromorphic Computing" (DATE 2019).
//!
//! The crate intentionally implements only what the neural-network training
//! stack ([`memaging-nn`]) and the crossbar simulator ([`memaging-crossbar`])
//! need:
//!
//! * [`Tensor`]: dense row-major `f32` storage with shape-checked element
//!   access, reshape and element-wise arithmetic;
//! * [`ops`]: matrix products (including implicit-transpose variants used by
//!   backpropagation), softmax and row reductions;
//! * [`conv`]: `im2col`/`im2row`/`col2im` lowering so convolutions become
//!   matrix multiplications — the exact form mapped onto memristor crossbars;
//! * [`init`]: seeded random initialization (Box–Muller gaussian, Xavier,
//!   He);
//! * [`stats`]: distribution summaries and histograms used to reproduce the
//!   paper's weight/resistance/conductance figures;
//! * [`scratch`]: reusable per-worker buffer arenas keeping allocation off
//!   hot evaluation loops.
//!
//! # Example
//!
//! ```
//! use memaging_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), memaging_tensor::TensorError> {
//! let weights = Tensor::from_vec(vec![0.5, -0.25, 0.1, 0.9], [2, 2])?;
//! let input = Tensor::from_vec(vec![1.0, 2.0], [1, 2])?;
//! let out = ops::matmul(&input, &weights)?;
//! assert_eq!(out.dims(), &[1, 2]);
//! # Ok(())
//! # }
//! ```
//!
//! [`memaging-nn`]: ../memaging_nn/index.html
//! [`memaging-crossbar`]: ../memaging_crossbar/index.html

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod shape;
mod tensor;

pub mod conv;
pub mod init;
pub mod ops;
pub mod scratch;
pub mod stats;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
