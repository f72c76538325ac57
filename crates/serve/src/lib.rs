//! # memaging-serve
//!
//! The serving tier of the memaging stack: a deterministic,
//! dependency-free batched inference service that drives a
//! [`memaging_crossbar::CrossbarNetwork`] under live request load and
//! keeps it alive with the paper's aging-aware remapping — online.
//!
//! The paper's core loop (inference load wears devices → aged resistance
//! bounds shrink → aging-aware re-mapping restores accuracy) only becomes
//! real under a sustained request stream. This crate builds that stream's
//! receiving end:
//!
//! * **One serving path** ([`fleet::FleetService`]): N ≥ 1 independent
//!   crossbar replicas behind one admission queue and a deterministic
//!   wear-balancing router. [`InferenceService`] is the single-replica
//!   front over a fleet of one.
//! * **Admission control** ([`ServeConfig::queue_capacity`]): a bounded
//!   MPSC queue that rejects on full ([`ServeError::QueueFull`]) and
//!   drops requests whose deadline expires before dispatch
//!   ([`ServeError::DeadlineExceeded`]) — load shedding before the
//!   crossbar, not after.
//! * **Dynamic batching** ([`ServeConfig::max_batch`] /
//!   [`ServeConfig::max_linger`]) over a `par`-backed worker pool with
//!   persistent per-worker network contexts.
//! * **Aging-aware live remapping**: inference reads accrue read-disturb
//!   wear through the device model; when the shared
//!   [`memaging_lifetime::WearThresholds`] warn rule fires on a stale
//!   mapping, the maintenance task re-runs the paper's range selection
//!   (the incremental engine) and swaps the fresh mapping in atomically —
//!   double-buffered [`MappingGeneration`]s, no serving pause.
//! * **Observability**: request-level tracing (every span of a request's
//!   admission → batch → forward → tile chain carries its [`TraceId`] =
//!   admission sequence number), log-bucketed latency histograms
//!   (queue wait / linger / forward / end-to-end, lock-free per-worker
//!   shards), a wear-attribution ledger
//!   ([`memaging_lifetime::WearLedger`]) charging every unit of tile
//!   stress to its cause, and the `POST /infer` + `GET /fleet` +
//!   `GET /serve/stats` + `GET /serve/latency` + `GET /wear/attribution`
//!   routes for the monitor HTTP server ([`fleet::FleetHandler`]).
//!
//! ## Determinism
//!
//! Everything the hardware sees is keyed to the request **admission
//! sequence**, not to time: wear accrues per maintenance boundary from
//! the admitted-request count, requests of interval `k` are served by
//! mapping generation `k`, and remap decisions are functions of
//! boundary-indexed state. Run the same admission sequence at 1 or N
//! worker threads and every per-request output and the final wear state
//! are bit-identical — `exp_serve` asserts exactly that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod engine;
mod error;
pub mod fleet;
mod generation;
mod http;
mod queue;
mod request;
mod service;
mod stats;
mod trace;
mod worker;

pub use config::ServeConfig;
pub use engine::{to_fixed, SERIES_SCALE};
pub use error::ServeError;
pub use generation::MappingGeneration;
pub use request::{InferRequest, InferResponse};
pub use service::{InferenceService, ServeReport};
pub use stats::{LatencyStats, ServeStats, WorstTileForecast, LATENCY_BUCKETS};
pub use trace::{RequestCtx, TraceId};
