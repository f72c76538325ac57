//! Pluggable event sinks: JSONL traces, human-readable output, and an
//! in-memory buffer for tests.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// Receives every event an enabled recorder emits.
pub trait Sink: Send {
    /// Handles one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output (best-effort; called by
    /// [`crate::Recorder::flush`] and on drop of the recorder's last clone).
    fn flush(&mut self) {}
}

/// Writes one JSON object per line — the `--trace <path.jsonl>` format.
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error when the path is not writable.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink { writer: BufWriter::new(file) })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        // A failed write on a trace sink must not take down the pipeline;
        // drop the line and carry on.
        let _ = writeln!(self.writer, "{}", event.to_json());
        // Alerts are what post-mortems (and flight-recorder dumps) hinge
        // on: push them and everything buffered before them to disk now,
        // so a process dying right after the trigger loses nothing.
        if matches!(event, Event::Alert { .. }) {
            let _ = self.writer.flush();
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Renders events for humans on stdout.
///
/// Only [`Event::Message`] lines, printed verbatim, and alerts are shown —
/// this is what keeps the CLI's default output byte-compatible with the
/// historical `println!` reporting.
#[derive(Debug, Clone, Default)]
pub struct PrettySink;

impl PrettySink {
    /// A sink printing message and alert events.
    pub fn new() -> Self {
        PrettySink
    }
}

impl Sink for PrettySink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::Message { text } => println!("{text}"),
            // Alerts are operator-facing.
            Event::Alert { severity, name, session, value, threshold, message } => {
                let in_session = session.map_or(String::new(), |s| format!(" [session {s}]"));
                println!(
                    "  ALERT {severity}{in_session} {name}: {message} (value {value:.4}, threshold {threshold:.4})"
                );
            }
            _ => {}
        }
    }
}

/// Buffers every event in memory; tests read them back through the
/// [`MemoryHandle`] returned by [`MemorySink::new`].
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Creates the sink and the handle that survives handing the sink to a
    /// recorder.
    pub fn new() -> (Self, MemoryHandle) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (MemorySink { events: Arc::clone(&events) }, MemoryHandle { events })
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events.lock().expect("memory sink poisoned").push(event.clone());
    }
}

/// Read side of a [`MemorySink`].
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemoryHandle {
    /// A copy of every event recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_round_trips_events() {
        let (mut sink, handle) = MemorySink::new();
        assert!(handle.is_empty());
        let event = Event::Message { text: "hi".into() };
        sink.record(&event);
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.events(), vec![event]);
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let path = std::env::temp_dir().join("memaging_obs_sink_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(&Event::Message { text: "a".into() });
            sink.record(&Event::Counter { name: "c".into(), session: None, delta: 1, total: 1 });
            sink.flush();
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_rejects_unwritable_path() {
        assert!(JsonlSink::create("/nonexistent-dir/trace.jsonl").is_err());
    }

    #[test]
    fn alerts_flush_through_to_disk_before_drop() {
        let path = std::env::temp_dir()
            .join(format!("memaging_obs_alert_flush_{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(&Event::Message { text: "before".into() });
        sink.record(&Event::Alert {
            severity: crate::AlertSeverity::Critical,
            name: "health.window".into(),
            session: None,
            value: 0.1,
            threshold: 0.25,
            message: "collapsing".into(),
        });
        // The sink is still alive (nothing dropped), yet both lines must
        // already be on disk.
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2, "{contents}");
        assert!(contents.lines().nth(1).unwrap().contains("\"type\":\"alert\""));
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffered_events_survive_a_panic_via_drop() {
        let path = std::env::temp_dir()
            .join(format!("memaging_obs_panic_flush_{}.jsonl", std::process::id()));
        let result = std::panic::catch_unwind({
            let path = path.clone();
            move || {
                let mut sink = JsonlSink::create(&path).unwrap();
                sink.record(&Event::Message { text: "almost lost".into() });
                panic!("simulated crash");
            }
        });
        assert!(result.is_err());
        // Drop ran during unwinding and flushed the buffered line.
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 1, "{contents}");
        assert!(contents.contains("almost lost"));
        let _ = std::fs::remove_file(&path);
    }
}
