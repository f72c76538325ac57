//! The scrapeable monitoring tier: turns a live [`Recorder`](crate::Recorder)
//! into an HTTP endpoint a Prometheus scraper (or a plain `curl`) can watch
//! while the lifetime pipeline runs. Dependency-free, like the recorder
//! beneath it: the server is a [`std::net::TcpListener`] accept loop, the
//! exposition and JSON are hand-rolled.
//!
//! The pieces:
//!
//! * [`crate::prometheus::render`]: text-format exposition (version 0.0.4)
//!   of a sorted [`MetricsSnapshot`](crate::MetricsSnapshot) — counters as
//!   `_total`, internal `name{layer=0}` labels as `name{layer="0"}`,
//!   histograms as cumulative `_bucket{le=...}` series;
//! * [`MonitorSink`]: a [`Sink`](crate::Sink) folding the wear-health
//!   gauges and alerts of `memaging-lifetime` into a shared [`WearState`];
//! * [`MonitorServer`]: the HTTP server routing `GET /metrics` (exposition),
//!   `GET /health` (liveness JSON with the worst-tile lifetime forecast,
//!   `503` after a failed run), `GET /wear` (per-tile wear heatmap JSON),
//!   `GET /forecast` (per-tile wear velocity/acceleration trajectories
//!   folded from the serve engine's `forecast.*` gauges) and `GET
//!   /timeseries` (the recorder's deterministic
//!   [`SeriesStore`](crate::SeriesStore) dump, `404` when no store is
//!   attached).
//!
//! # Example
//!
//! ```
//! use memaging_obs::monitor::{MonitorServer, MonitorSink, MonitorState};
//! use memaging_obs::Recorder;
//!
//! # fn main() -> std::io::Result<()> {
//! let (sink, wear) = MonitorSink::new();
//! let recorder = Recorder::new(vec![Box::new(sink)]);
//! let server =
//!     MonitorServer::bind("127.0.0.1:0", MonitorState::new(recorder.clone(), wear))?;
//! println!("scrape http://{}/metrics", server.local_addr());
//! // ... run the pipeline with `recorder`, then:
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! The `memaging serve <scenario>` subcommand wires this up end to end.

pub use crate::server::{HttpHandler, HttpRequest, HttpResponse, MonitorServer};
pub use crate::state::{
    AlertRecord, LayerWear, MonitorSink, MonitorState, RunStatus, TileForecast, WearHandle,
    WearState,
};
