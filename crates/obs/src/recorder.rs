//! The [`Recorder`] handle threaded through the pipeline, and its RAII
//! span timer.

use std::fmt::Display;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::Event;
use crate::metrics::{MetricsSnapshot, Registry};
use crate::series::SeriesStore;
use crate::sink::Sink;

/// Shared state behind an enabled recorder.
struct Inner {
    /// Time zero for span offsets.
    epoch: Instant,
    /// Current lifetime-session index; negative means "no session".
    session: AtomicI64,
    registry: Mutex<Registry>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    /// Deterministic time-series store, when series retention is on
    /// (absent under `--no-series`).
    series: Option<Arc<SeriesStore>>,
}

/// A cheap-to-clone observability handle.
///
/// The default ([`Recorder::disabled`]) recorder holds no state: every
/// method is a branch on `None` that returns immediately, without
/// allocating or formatting — instrumented hot paths cost ~nothing unless
/// someone asked for a trace. An enabled recorder aggregates metrics in a
/// [`Registry`] and forwards every event to its [`Sink`]s.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.inner.is_some()).finish()
    }
}

impl Recorder {
    /// The no-op recorder (also the `Default`).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder forwarding to `sinks` (no series retention — see
    /// [`Recorder::with_series`]).
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        Self::build(sinks, None)
    }

    /// A recorder forwarding to `sinks` and additionally folding
    /// [`Recorder::series_record`] points into `store` — share the `Arc` to
    /// read the live series back (e.g. the monitor's `GET /timeseries`).
    pub fn with_series(sinks: Vec<Box<dyn Sink>>, store: Arc<SeriesStore>) -> Self {
        Self::build(sinks, Some(store))
    }

    fn build(sinks: Vec<Box<dyn Sink>>, series: Option<Arc<SeriesStore>>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                session: AtomicI64::new(-1),
                registry: Mutex::new(Registry::default()),
                sinks: Mutex::new(sinks),
                series,
            })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The series store, when this recorder retains time-series.
    pub fn series(&self) -> Option<Arc<SeriesStore>> {
        self.inner.as_ref().and_then(|inner| inner.series.clone())
    }

    /// Whether [`Recorder::series_record`] points go anywhere — gate
    /// caller-side name formatting on this to keep the disabled path
    /// alloc-free (the `--no-series` convention, like `message_with`).
    pub fn has_series(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.series.is_some())
    }

    /// Folds one `(seq, value)` point into the named deterministic series
    /// and emits an [`Event::Series`] to the sinks, so a JSONL trace can
    /// replay the store bit-for-bit. A no-op (no allocation, no event)
    /// unless a series store is attached.
    pub fn series_record(&self, name: &str, seq: u64, value: u64) {
        if let Some(inner) = &self.inner {
            if let Some(store) = &inner.series {
                store.record(name, seq, value);
                inner.emit(&Event::Series { name: name.to_string(), seq, value });
            }
        }
    }

    /// Emits an [`Event::Wear`] ledger checkpoint: the absolute per-tile
    /// stress exactly as charged to the wear ledger, so offline attribution
    /// replays bit-for-bit. Emitted whenever the recorder is enabled
    /// (checkpoints are boundary-rate, not per-request).
    pub fn wear_checkpoint(&self, cause: &str, param: Option<u64>, tiles: &[f64]) {
        if let Some(inner) = &self.inner {
            inner.emit(&Event::Wear { cause: cause.to_string(), param, tiles: tiles.to_vec() });
        }
    }

    /// Sets (or clears) the lifetime-session index stamped onto subsequent
    /// events.
    pub fn set_session(&self, session: Option<u64>) {
        if let Some(inner) = &self.inner {
            let value = session.map_or(-1, |s| s as i64);
            inner.session.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` to the named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let total = inner.registry.lock().expect("registry poisoned").add(name, delta);
            inner.emit(&Event::Counter {
                name: name.to_string(),
                session: inner.current_session(),
                delta,
                total,
            });
        }
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("registry poisoned").set(name, value);
            inner.emit(&Event::Gauge {
                name: name.to_string(),
                session: inner.current_session(),
                value,
            });
        }
    }

    /// Sets the gauge `name{key=label}` — e.g.
    /// `aging.r_max_ohms{layer=0}`. The labeled name is only formatted when
    /// the recorder is enabled.
    pub fn gauge_labeled(&self, name: &str, key: &str, label: impl Display, value: f64) {
        if let Some(inner) = &self.inner {
            let labeled = format!("{name}{{{key}={label}}}");
            inner.registry.lock().expect("registry poisoned").set(&labeled, value);
            inner.emit(&Event::Gauge { name: labeled, session: inner.current_session(), value });
        }
    }

    /// Records one observation into the named fixed-bucket histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("registry poisoned").observe(name, value);
            inner.emit(&Event::Observation {
                name: name.to_string(),
                session: inner.current_session(),
                value,
            });
        }
    }

    /// Declares a histogram with explicit bucket bounds (first declaration
    /// wins; see [`Registry::declare_histogram`]).
    pub fn declare_histogram(&self, name: &str, bounds: &[f64]) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().expect("registry poisoned").declare_histogram(name, bounds);
        }
    }

    /// Opens a scoped span timer; the span event is emitted when the
    /// returned guard drops.
    #[must_use = "the span closes (and is recorded) when the guard drops"]
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_impl(name, None, None)
    }

    /// Opens a scoped span timer tagged with a parallel worker index — use
    /// inside `memaging-par` regions so the Chrome trace export renders one
    /// timeline row per worker thread. The recorder is `Send + Sync`
    /// (clone-free: a `&Recorder` capture suffices), so worker closures can
    /// call this directly.
    #[must_use = "the span closes (and is recorded) when the guard drops"]
    pub fn worker_span(&self, name: &str, worker: usize) -> SpanGuard {
        self.span_impl(name, Some(worker as u64), None)
    }

    /// Opens a scoped span timer correlated with a request trace — `trace`
    /// is the serve-tier admission sequence number (or boundary id for
    /// maintenance work). Spans sharing a trace id form one causal chain
    /// (admission → batch → forward → tile) in the JSONL/Chrome exports.
    #[must_use = "the span closes (and is recorded) when the guard drops"]
    pub fn trace_span(&self, name: &str, trace: u64) -> SpanGuard {
        self.span_impl(name, None, Some(trace))
    }

    /// [`Recorder::worker_span`] with a trace id — for per-request work
    /// executing on a parallel worker (e.g. `serve.forward`).
    #[must_use = "the span closes (and is recorded) when the guard drops"]
    pub fn worker_trace_span(&self, name: &str, worker: usize, trace: u64) -> SpanGuard {
        self.span_impl(name, Some(worker as u64), Some(trace))
    }

    fn span_impl(&self, name: &str, worker: Option<u64>, trace: Option<u64>) -> SpanGuard {
        SpanGuard {
            state: self.inner.as_ref().map(|inner| SpanState {
                inner: Arc::clone(inner),
                name: name.to_string(),
                worker,
                trace,
                started: Instant::now(),
            }),
        }
    }

    /// Emits a human-readable progress line ([`crate::PrettySink`] prints
    /// it verbatim).
    pub fn message(&self, text: &str) {
        if let Some(inner) = &self.inner {
            inner.emit(&Event::Message { text: text.to_string() });
        }
    }

    /// Like [`Recorder::message`] but defers building the string until the
    /// recorder is known to be enabled — use with `format!` in hot paths.
    pub fn message_with(&self, build: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.emit(&Event::Message { text: build() });
        }
    }

    /// Raises a threshold-crossing alert: bumps the `alerts.<severity>`
    /// counter in the registry and emits an [`Event::Alert`] to every sink.
    pub fn alert(
        &self,
        severity: crate::AlertSeverity,
        name: &str,
        value: f64,
        threshold: f64,
        message: &str,
    ) {
        if let Some(inner) = &self.inner {
            let counter = format!("alerts.{severity}");
            inner.registry.lock().expect("registry poisoned").add(&counter, 1);
            inner.emit(&Event::Alert {
                severity,
                name: name.to_string(),
                session: inner.current_session(),
                value,
                threshold,
                message: message.to_string(),
            });
        }
    }

    /// Emits a per-lifetime-session summary event.
    pub fn session_summary(&self, index: u64, metrics: &[(&str, f64)]) {
        if let Some(inner) = &self.inner {
            inner.emit(&Event::Session {
                index,
                metrics: metrics.iter().map(|(name, value)| (name.to_string(), *value)).collect(),
            });
        }
    }

    /// A copy of the aggregated metrics, or `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner
            .as_ref()
            .map(|inner| inner.registry.lock().expect("registry poisoned").snapshot())
    }

    /// Flushes every sink (best-effort).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in inner.sinks.lock().expect("sinks poisoned").iter_mut() {
                sink.flush();
            }
        }
    }
}

impl Inner {
    fn current_session(&self) -> Option<u64> {
        let raw = self.session.load(Ordering::Relaxed);
        (raw >= 0).then_some(raw as u64)
    }

    fn emit(&self, event: &Event) {
        for sink in self.sinks.lock().expect("sinks poisoned").iter_mut() {
            sink.record(event);
        }
    }
}

/// Live state of an open span (only present when recording).
struct SpanState {
    inner: Arc<Inner>,
    name: String,
    worker: Option<u64>,
    trace: Option<u64>,
    started: Instant,
}

/// RAII guard returned by [`Recorder::span`]; emits an [`Event::Span`] with
/// the measured duration when dropped.
#[must_use = "the span closes (and is recorded) when the guard drops"]
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let start_us =
                state.started.duration_since(state.inner.epoch).as_micros().min(u64::MAX as u128)
                    as u64;
            // Round (don't truncate) to the nearest microsecond: spans in
            // the low-microsecond range otherwise lose up to 50% of their
            // duration, and the bias compounds when profiles sum thousands
            // of short spans against a handful of long ones.
            let duration_us =
                ((state.started.elapsed().as_nanos() + 500) / 1_000).min(u64::MAX as u128) as u64;
            let event = Event::Span {
                name: state.name,
                session: state.inner.current_session(),
                worker: state.worker,
                trace: state.trace,
                start_us,
                duration_us,
            };
            state.inner.emit(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_recorder_ignores_everything() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        recorder.counter("c", 1);
        recorder.gauge("g", 1.0);
        recorder.gauge_labeled("g", "layer", 0, 1.0);
        recorder.observe("h", 1.0);
        recorder.message("hello");
        recorder.alert(crate::AlertSeverity::Warn, "a", 1.0, 2.0, "m");
        recorder.session_summary(0, &[("a", 1.0)]);
        let _span = recorder.span("tune");
        assert!(recorder.snapshot().is_none());
    }

    #[test]
    fn counter_events_carry_running_total() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        recorder.counter("tuner.iterations", 3);
        recorder.counter("tuner.iterations", 4);
        let events = handle.events();
        assert_eq!(events.len(), 2);
        match &events[1] {
            Event::Counter { delta, total, .. } => {
                assert_eq!((*delta, *total), (4, 7));
            }
            other => panic!("expected counter, got {other:?}"),
        }
        let snapshot = recorder.snapshot().unwrap();
        assert_eq!(snapshot.counters, vec![("tuner.iterations".to_string(), 7)]);
    }

    #[test]
    fn span_guard_emits_on_drop_with_session() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        recorder.set_session(Some(5));
        {
            let _span = recorder.span("map");
            assert!(handle.is_empty(), "span must not be emitted before drop");
        }
        let events = handle.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::Span { name, session, .. } => {
                assert_eq!(name, "map");
                assert_eq!(*session, Some(5));
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn worker_span_tags_the_worker_index() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        drop(recorder.worker_span("map.candidate", 3));
        drop(recorder.span("map"));
        match (&handle.events()[0], &handle.events()[1]) {
            (Event::Span { worker: a, .. }, Event::Span { worker: b, .. }) => {
                assert_eq!(*a, Some(3));
                assert_eq!(*b, None);
            }
            other => panic!("expected spans, got {other:?}"),
        }
    }

    #[test]
    fn trace_spans_carry_the_trace_id() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        drop(recorder.trace_span("serve.request", 12));
        drop(recorder.worker_trace_span("serve.forward", 3, 12));
        match (&handle.events()[0], &handle.events()[1]) {
            (
                Event::Span { trace: a, worker: wa, .. },
                Event::Span { trace: b, worker: wb, .. },
            ) => {
                assert_eq!((*a, *wa), (Some(12), None));
                assert_eq!((*b, *wb), (Some(12), Some(3)));
            }
            other => panic!("expected spans, got {other:?}"),
        }
    }

    #[test]
    fn recorder_is_usable_from_worker_threads() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let recorder = &recorder;
                scope.spawn(move || drop(recorder.worker_span("study.seed", w)));
            }
        });
        assert_eq!(handle.len(), 4);
    }

    #[test]
    fn labeled_gauge_formats_prometheus_style() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        recorder.gauge_labeled("aging.r_max_ohms", "layer", 2, 9500.0);
        match &handle.events()[0] {
            Event::Gauge { name, value, .. } => {
                assert_eq!(name, "aging.r_max_ohms{layer=2}");
                assert_eq!(*value, 9500.0);
            }
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_state() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        let clone = recorder.clone();
        clone.counter("c", 1);
        recorder.counter("c", 1);
        assert_eq!(recorder.snapshot().unwrap().counters[0].1, 2);
        assert_eq!(handle.len(), 2);
    }

    #[test]
    fn alerts_count_in_registry_and_reach_sinks() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        recorder.set_session(Some(4));
        recorder.alert(crate::AlertSeverity::Warn, "health.window", 0.4, 0.5, "shrinking");
        recorder.alert(crate::AlertSeverity::Critical, "health.window", 0.2, 0.25, "collapsing");
        let snapshot = recorder.snapshot().unwrap();
        assert_eq!(
            snapshot.counters,
            vec![("alerts.critical".to_string(), 1), ("alerts.warn".to_string(), 1)]
        );
        match &handle.events()[0] {
            Event::Alert { severity, session, threshold, .. } => {
                assert_eq!(*severity, crate::AlertSeverity::Warn);
                assert_eq!(*session, Some(4));
                assert_eq!(*threshold, 0.5);
            }
            other => panic!("expected alert, got {other:?}"),
        }
    }

    #[test]
    fn series_record_requires_a_store() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        assert!(!recorder.has_series());
        assert!(recorder.series().is_none());
        recorder.series_record("s", 1, 10);
        assert!(handle.is_empty(), "no store attached: no event either");

        let (sink, handle) = MemorySink::new();
        let store = Arc::new(crate::SeriesStore::with_capacity(8));
        let recorder = Recorder::with_series(vec![Box::new(sink)], Arc::clone(&store));
        assert!(recorder.has_series());
        recorder.series_record("s", 1, 10);
        recorder.series_record("s", 2, 20);
        assert_eq!(handle.len(), 2);
        match &handle.events()[1] {
            Event::Series { name, seq, value } => {
                assert_eq!((name.as_str(), *seq, *value), ("s", 2, 20));
            }
            other => panic!("expected series, got {other:?}"),
        }
        let snap = recorder.series().unwrap().snapshot("s").unwrap();
        assert_eq!(snap.raw_points(), vec![(1, 10), (2, 20)]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn wear_checkpoints_reach_sinks() {
        let recorder = Recorder::disabled();
        recorder.wear_checkpoint("tuning", None, &[1.0]); // no-op
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        recorder.wear_checkpoint("inference_read", Some(7), &[0.5, 0.25]);
        match &handle.events()[0] {
            Event::Wear { cause, param, tiles } => {
                assert_eq!((cause.as_str(), *param), ("inference_read", Some(7)));
                assert_eq!(tiles, &[0.5, 0.25]);
            }
            other => panic!("expected wear, got {other:?}"),
        }
    }

    #[test]
    fn session_stamp_clears() {
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        recorder.set_session(Some(1));
        recorder.counter("c", 1);
        recorder.set_session(None);
        recorder.counter("c", 1);
        let events = handle.events();
        match (&events[0], &events[1]) {
            (Event::Counter { session: a, .. }, Event::Counter { session: b, .. }) => {
                assert_eq!(*a, Some(1));
                assert_eq!(*b, None);
            }
            other => panic!("expected counters, got {other:?}"),
        }
    }
}
