//! # memaging-obs
//!
//! Structured tracing, metrics and profiling for the memaging lifetime
//! pipeline. Dependency-free: events are hand-serialized to JSON, timing
//! uses `std::time`, and everything threads through one cheap-to-clone
//! handle, the [`Recorder`].
//!
//! ## Model
//!
//! * A [`Recorder`] is either **disabled** (the default — every call is a
//!   branch on a `None` and returns without allocating) or **enabled**,
//!   holding an `Arc` of shared state: a metrics [`Registry`] and a list of
//!   [`Sink`]s.
//! * Instrumented code emits three kinds of signal:
//!   - **metrics** — named [counters](Recorder::counter),
//!     [gauges](Recorder::gauge) and fixed-bucket
//!     [histograms](Recorder::observe), aggregated in the registry and also
//!     forwarded to sinks as [`Event`]s;
//!   - **spans** — RAII scoped timers ([`Recorder::span`]) profiling the
//!     pipeline phases `train` → `map` → `tune` → `evaluate`;
//!   - **messages** — human-readable progress lines
//!     ([`Recorder::message`]), which the [`PrettySink`] prints verbatim so
//!     CLI output stays byte-compatible with the old `println!` reporting.
//! * Sinks receive every event: [`JsonlSink`] writes one JSON object per
//!   line (the `--trace` format), [`ChromeTraceSink`] writes the Chrome
//!   trace-event array (the `--trace-chrome` format, loadable in Perfetto),
//!   [`PrettySink`] renders for humans, and [`MemorySink`] buffers events
//!   for test assertions.
//! * The wear-health subsystem raises [`Event::Alert`]s
//!   ([`Recorder::alert`]) when a degradation threshold is crossed; the
//!   [`monitor`] tier exports the aggregated [`Registry`] in Prometheus
//!   text format over HTTP, next to the wear, health and forecast JSON.
//! * The serving tier adds two specialized pieces: [`ShardedHistogram`],
//!   a lock-free log-bucketed latency histogram with per-worker shards
//!   merged deterministically at snapshot, and [`FlightRecorder`], a
//!   bounded ring of recent events dumped to JSONL when a wear alert or
//!   live remap fires. Request-correlated spans
//!   ([`Recorder::trace_span`]) link admission → batch → forward → tile
//!   work under one trace id.
//! * History is kept by the [`SeriesStore`]: fixed-capacity,
//!   hierarchically-downsampled series keyed by maintenance-session /
//!   admission sequence (never wall clock) with a pure-integer fold, so a
//!   series is bit-identical at any worker or shard count and replays
//!   exactly from a JSONL trace ([`Event::from_json`] is the strict
//!   inverse of [`Event::to_json`], used by `memaging analyze`).
//!
//! ## Example
//!
//! ```
//! use memaging_obs::{MemorySink, Recorder};
//!
//! let (sink, handle) = MemorySink::new();
//! let recorder = Recorder::new(vec![Box::new(sink)]);
//! {
//!     let _span = recorder.span("tune");
//!     recorder.counter("tuner.iterations", 12);
//! }
//! let events = handle.events();
//! assert_eq!(events.len(), 2); // counter + closed span
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod event;
mod flight;
mod hist;
mod metrics;
pub mod monitor;
mod parse;
pub mod prometheus;
mod recorder;
mod series;
mod server;
mod sink;
mod state;

/// Canonical span names for the mapping hot path, shared between the
/// crossbar instrumentation and the bench profilers so a renamed span can
/// never silently drop out of a BENCH report.
pub mod names {
    /// One full range-selection sweep over a layer's candidate windows
    /// (wall-clock, emitted by the thread driving the sweep).
    pub const MAP_SWEEP: &str = "map.sweep";
    /// Forwarding the calibration batch through the unchanged layers
    /// `0..idx` once per sweep — the prefix the incremental engine caches.
    pub const MAP_PREFIX: &str = "map.prefix";
    /// Evaluating one candidate window (per-worker span).
    pub const MAP_CANDIDATE: &str = "map.candidate";
    /// Replaying one candidate from the cached prefix activation through
    /// the remaining layers (per-worker span, nested in [`MAP_CANDIDATE`]).
    pub const MAP_REPLAY: &str = "map.replay";
}

pub use chrome::ChromeTraceSink;
pub use event::{push_json_f64, push_json_str, AlertSeverity, Event};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::{latency_detail_json, LatencySnapshot, ShardedHistogram, MAX_BUCKETS};
pub use metrics::{HistogramSnapshot, MetricsSnapshot, Registry};
pub use recorder::{parse_label, Recorder, SpanGuard};
pub use series::{
    EvictedSummary, SeriesBucket, SeriesCell, SeriesSnapshot, SeriesStore, DEFAULT_SERIES_CAPACITY,
};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, PrettySink, Sink};
