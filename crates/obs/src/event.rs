//! The event vocabulary shared by every sink, with hand-rolled JSON
//! serialization (the crate is dependency-free by design).

use std::fmt::Write as _;

/// Severity of an [`Event::Alert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Degradation is under way; schedule maintenance.
    Warn,
    /// Failure is imminent; act now.
    Critical,
}

impl AlertSeverity {
    /// The lowercase wire label (`"warn"` / `"critical"`).
    pub fn label(&self) -> &'static str {
        match self {
            AlertSeverity::Warn => "warn",
            AlertSeverity::Critical => "critical",
        }
    }
}

impl std::fmt::Display for AlertSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One observability event, as delivered to [`crate::Sink`]s.
///
/// Times are microseconds relative to the recorder's creation instant, so a
/// trace is self-contained and replayable without wall-clock context.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed scoped timer (emitted when the [`crate::SpanGuard`] drops).
    Span {
        /// Phase name, e.g. `train`, `map`, `tune`, `evaluate`.
        name: String,
        /// Lifetime session index the span ran under, if any.
        session: Option<u64>,
        /// Parallel worker index the span ran on, if it was recorded from
        /// inside a `memaging-par` region (worker 0 is the calling thread).
        worker: Option<u64>,
        /// Request-trace correlation id (the admission sequence number for
        /// serve-tier request spans, the boundary id for maintenance
        /// spans). Spans sharing a `trace` are causally linked:
        /// admission → batch → forward → tile.
        trace: Option<u64>,
        /// Start offset from recorder creation, microseconds.
        start_us: u64,
        /// Wall-clock duration, microseconds.
        duration_us: u64,
    },
    /// A counter increment.
    Counter {
        /// Metric name, e.g. `tuner.pulses`.
        name: String,
        /// Session index the increment happened under, if any.
        session: Option<u64>,
        /// Amount added by this increment.
        delta: u64,
        /// Cumulative value after the increment.
        total: u64,
    },
    /// A gauge update (last-value-wins metric).
    Gauge {
        /// Metric name, possibly labeled, e.g. `aging.r_max_ohms{layer=0}`.
        name: String,
        /// Session index the update happened under, if any.
        session: Option<u64>,
        /// The new value.
        value: f64,
    },
    /// A single histogram observation.
    Observation {
        /// Histogram name, e.g. `train.epoch_loss`.
        name: String,
        /// Session index the observation happened under, if any.
        session: Option<u64>,
        /// The observed value.
        value: f64,
    },
    /// A per-lifetime-session summary of the pipeline's key metrics.
    Session {
        /// Session index.
        index: u64,
        /// Named metric values for this session (name → value).
        metrics: Vec<(String, f64)>,
    },
    /// A human-readable progress line (printed verbatim by
    /// [`crate::PrettySink`]).
    Message {
        /// The text, without a trailing newline.
        text: String,
    },
    /// A threshold crossing raised by the wear-health subsystem.
    Alert {
        /// How bad it is.
        severity: AlertSeverity,
        /// The rule that fired, e.g. `health.sessions_left`.
        name: String,
        /// Session index the alert fired under, if any.
        session: Option<u64>,
        /// The observed value that crossed the threshold.
        value: f64,
        /// The threshold it crossed.
        threshold: f64,
        /// Human-readable explanation.
        message: String,
    },
    /// One point of a deterministic time-series ([`crate::SeriesStore`]):
    /// a pure-integer value keyed by maintenance-session / admission
    /// sequence, never wall clock, so the series replays bit-identically
    /// from a trace.
    Series {
        /// Series name, possibly labeled, e.g.
        /// `serve.window_fraction_ppb{tile=0}`.
        name: String,
        /// The sequence key (maintenance-boundary id for serve-tier
        /// series).
        seq: u64,
        /// The fixed-point integer value (callers pick the scale, e.g.
        /// parts-per-billion for fractions).
        value: u64,
    },
    /// A wear-ledger checkpoint: the absolute per-tile stress exactly as
    /// charged to the `memaging-lifetime` wear ledger — enough to replay
    /// attribution offline bit-for-bit.
    Wear {
        /// The wear cause kind (`inference_read` / `remap` / `tuning`).
        cause: String,
        /// The cause's parameter (batch sequence or remap generation), if
        /// any.
        param: Option<u64>,
        /// Absolute cumulative stress per tile at this checkpoint.
        tiles: Vec<f64>,
    },
}

impl Event {
    /// The event's metric/span name, if it has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            Event::Span { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. }
            | Event::Observation { name, .. }
            | Event::Alert { name, .. }
            | Event::Series { name, .. } => Some(name),
            Event::Session { .. } | Event::Message { .. } | Event::Wear { .. } => None,
        }
    }

    /// Serializes the event as a single-line JSON object (no trailing
    /// newline) — the record format of [`crate::JsonlSink`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            Event::Span { name, session, worker, trace, start_us, duration_us } => {
                out.push_str("{\"type\":\"span\",\"name\":");
                push_json_str(&mut out, name);
                push_session(&mut out, *session);
                if let Some(w) = worker {
                    let _ = write!(out, ",\"worker\":{w}");
                }
                if let Some(t) = trace {
                    let _ = write!(out, ",\"trace\":{t}");
                }
                let _ = write!(out, ",\"start_us\":{start_us},\"duration_us\":{duration_us}}}");
            }
            Event::Counter { name, session, delta, total } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                push_json_str(&mut out, name);
                push_session(&mut out, *session);
                let _ = write!(out, ",\"delta\":{delta},\"total\":{total}}}");
            }
            Event::Gauge { name, session, value } => {
                out.push_str("{\"type\":\"gauge\",\"name\":");
                push_json_str(&mut out, name);
                push_session(&mut out, *session);
                out.push_str(",\"value\":");
                push_json_f64(&mut out, *value);
                out.push('}');
            }
            Event::Observation { name, session, value } => {
                out.push_str("{\"type\":\"histogram\",\"name\":");
                push_json_str(&mut out, name);
                push_session(&mut out, *session);
                out.push_str(",\"value\":");
                push_json_f64(&mut out, *value);
                out.push('}');
            }
            Event::Session { index, metrics } => {
                let _ = write!(out, "{{\"type\":\"session\",\"index\":{index},\"metrics\":{{");
                for (i, (name, value)) in metrics.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, name);
                    out.push(':');
                    push_json_f64(&mut out, *value);
                }
                out.push_str("}}");
            }
            Event::Message { text } => {
                out.push_str("{\"type\":\"message\",\"text\":");
                push_json_str(&mut out, text);
                out.push('}');
            }
            Event::Alert { severity, name, session, value, threshold, message } => {
                let _ = write!(out, "{{\"type\":\"alert\",\"severity\":\"{severity}\",\"name\":");
                push_json_str(&mut out, name);
                push_session(&mut out, *session);
                out.push_str(",\"value\":");
                push_json_f64(&mut out, *value);
                out.push_str(",\"threshold\":");
                push_json_f64(&mut out, *threshold);
                out.push_str(",\"message\":");
                push_json_str(&mut out, message);
                out.push('}');
            }
            Event::Series { name, seq, value } => {
                out.push_str("{\"type\":\"series\",\"name\":");
                push_json_str(&mut out, name);
                let _ = write!(out, ",\"seq\":{seq},\"value\":{value}}}");
            }
            Event::Wear { cause, param, tiles } => {
                out.push_str("{\"type\":\"wear\",\"cause\":");
                push_json_str(&mut out, cause);
                if let Some(p) = param {
                    let _ = write!(out, ",\"param\":{p}");
                }
                out.push_str(",\"tiles\":[");
                for (i, tile) in tiles.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_f64(&mut out, *tile);
                }
                out.push_str("]}");
            }
        }
        out
    }

    /// Parses one JSONL line produced by [`Event::to_json`] back into an
    /// [`Event`] — the offline analyzer's ingest path. Strict: the trace
    /// format is a tested contract, so an unknown type, a missing field,
    /// or malformed JSON is an error, never a silent skip.
    ///
    /// Round-trip guarantee: for any event `e`,
    /// `Event::from_json(&e.to_json()).unwrap().to_json() == e.to_json()`
    /// byte-for-byte (floats were rendered by the shortest-round-trip
    /// formatter, so re-rendering reproduces them exactly; a `null` float
    /// parses back to NaN and re-renders as `null`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn from_json(line: &str) -> Result<Event, String> {
        crate::parse::event_from_json(line)
    }
}

fn push_session(out: &mut String, session: Option<u64>) {
    if let Some(s) = session {
        let _ = write!(out, ",\"session\":{s}");
    }
}

/// Appends `value` as a JSON string literal, escaping as per RFC 8259.
pub fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite float as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Inf).
pub fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        if value == value.trunc() && value.abs() < 1e15 {
            // Keep integral values compact and round-trippable.
            let _ = write!(out, "{:.1}", value);
        } else {
            let _ = write!(out, "{}", value);
        }
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_serializes_with_session() {
        let event = Event::Span {
            name: "tune".into(),
            session: Some(3),
            worker: None,
            trace: None,
            start_us: 10,
            duration_us: 250,
        };
        assert_eq!(
            event.to_json(),
            r#"{"type":"span","name":"tune","session":3,"start_us":10,"duration_us":250}"#
        );
    }

    #[test]
    fn span_omits_missing_session() {
        let event = Event::Span {
            name: "train".into(),
            session: None,
            worker: None,
            trace: None,
            start_us: 0,
            duration_us: 1,
        };
        assert!(!event.to_json().contains("session"));
        assert!(!event.to_json().contains("worker"));
        assert!(!event.to_json().contains("trace"));
    }

    #[test]
    fn span_serializes_worker_index() {
        let event = Event::Span {
            name: "map.candidate".into(),
            session: Some(2),
            worker: Some(1),
            trace: None,
            start_us: 5,
            duration_us: 9,
        };
        assert_eq!(
            event.to_json(),
            r#"{"type":"span","name":"map.candidate","session":2,"worker":1,"start_us":5,"duration_us":9}"#
        );
    }

    #[test]
    fn span_serializes_trace_id_after_worker() {
        let event = Event::Span {
            name: "serve.forward".into(),
            session: None,
            worker: Some(2),
            trace: Some(41),
            start_us: 5,
            duration_us: 9,
        };
        assert_eq!(
            event.to_json(),
            r#"{"type":"span","name":"serve.forward","worker":2,"trace":41,"start_us":5,"duration_us":9}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let event = Event::Message { text: "a \"quoted\"\nline\t\\".into() };
        assert_eq!(event.to_json(), r#"{"type":"message","text":"a \"quoted\"\nline\t\\"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let event = Event::Gauge { name: "g".into(), session: None, value: f64::NAN };
        assert!(event.to_json().ends_with("\"value\":null}"));
    }

    #[test]
    fn session_event_serializes_metrics_map() {
        let event = Event::Session {
            index: 2,
            metrics: vec![("tuner.iterations".into(), 12.0), ("accuracy".into(), 0.91)],
        };
        assert_eq!(
            event.to_json(),
            r#"{"type":"session","index":2,"metrics":{"tuner.iterations":12.0,"accuracy":0.91}}"#
        );
    }

    #[test]
    fn alert_serializes_severity_and_thresholds() {
        let event = Event::Alert {
            severity: AlertSeverity::Critical,
            name: "health.sessions_left".into(),
            session: Some(7),
            value: 1.5,
            threshold: 3.0,
            message: "layer 0 forecast".into(),
        };
        assert_eq!(
            event.to_json(),
            r#"{"type":"alert","severity":"critical","name":"health.sessions_left","session":7,"value":1.5,"threshold":3.0,"message":"layer 0 forecast"}"#
        );
        assert_eq!(event.name(), Some("health.sessions_left"));
        assert!(AlertSeverity::Warn < AlertSeverity::Critical);
    }

    #[test]
    fn counter_carries_delta_and_total() {
        let event =
            Event::Counter { name: "tuner.pulses".into(), session: Some(0), delta: 7, total: 19 };
        assert_eq!(
            event.to_json(),
            r#"{"type":"counter","name":"tuner.pulses","session":0,"delta":7,"total":19}"#
        );
    }
}
