//! Shared monitoring state: the wear picture the HTTP tier serves.
//!
//! The lifetime simulator publishes its health telemetry as recorder events
//! (gauges, session summaries, alerts). [`MonitorSink`] is an
//! [`crate::Sink`] that folds those events into a [`WearState`]
//! behind an `Arc<Mutex<..>>`, which [`crate::monitor::MonitorServer`] renders as
//! JSON on `/wear` and `/health` — no changes to the pipeline's signatures,
//! no sharing of the crossbar arrays across threads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::event::{push_json_f64, push_json_str};
use crate::{parse_label, AlertSeverity, Event, Recorder, Sink};

/// Alerts retained for `/wear`; older ones are dropped first.
const MAX_ALERTS: usize = 64;

/// Wear picture of one mappable layer, fed by the `aging.*`/`wear.*`/
/// `health.*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerWear {
    /// Mean aged upper resistance bound, ohms.
    pub r_max_ohms: f64,
    /// Mean aged lower resistance bound, ohms.
    pub r_min_ohms: f64,
    /// Mean window width as a fraction of fresh.
    pub window_fraction: f64,
    /// Estimated upper-bound shrinkage, ohms per session.
    pub shrink_rate_ohms_per_session: f64,
    /// Forecast sessions to window collapse, if degradation was observed.
    pub sessions_left: Option<f64>,
    /// Worn-out devices in the layer's array.
    pub worn_devices: f64,
    /// Cumulative programming pulses across the layer's array.
    pub pulses: f64,
}

/// Per-tile lifetime forecast, fed by the serving tier's
/// `forecast.*{tile=N}` gauges (the windowed regression over the
/// deterministic wear series, computed once in the serve engine by
/// `memaging_lifetime::trend` — the monitor only mirrors it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TileForecast {
    /// Latest observed window fraction of the tile.
    pub window_fraction: f64,
    /// Fitted wear velocity, window fraction per maintenance session.
    pub velocity_per_session: f64,
    /// Fitted wear acceleration, window fraction per session squared.
    pub acceleration_per_session2: f64,
    /// Extrapolated sessions until the tile crosses the critical window
    /// fraction; `None` while the trajectory never crosses.
    pub sessions_to_critical: Option<f64>,
}

/// One retained alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Severity the rule fired at.
    pub severity: AlertSeverity,
    /// Rule name, e.g. `health.window_fraction`.
    pub rule: String,
    /// Session the alert fired under, if any.
    pub session: Option<u64>,
    /// Observed value.
    pub value: f64,
    /// Crossed threshold.
    pub threshold: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// Lifecycle of the monitored run, shown on `/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The lifetime loop is still running.
    Running,
    /// The loop finished without a failing session (hit the session cap).
    Survived,
    /// A maintenance session failed — end of the crossbar's life.
    Failed,
    /// The loop aborted with an error.
    Error,
}

impl RunStatus {
    /// Lowercase wire label.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Running => "running",
            RunStatus::Survived => "survived",
            RunStatus::Failed => "failed",
            RunStatus::Error => "error",
        }
    }
}

/// The aggregated wear picture served over HTTP.
#[derive(Debug, Clone)]
pub struct WearState {
    /// Lifecycle of the run.
    pub status: RunStatus,
    /// Latest lifetime session observed.
    pub session: Option<u64>,
    /// Per-layer wear, keyed by mappable-layer index.
    pub layers: BTreeMap<usize, LayerWear>,
    /// Worst-layer forecast of sessions remaining.
    pub sessions_to_failure: Option<f64>,
    /// Per-tile lifetime forecast, keyed by tile index.
    pub forecast: BTreeMap<usize, TileForecast>,
    /// Worst-tile index of the latest forecast round.
    pub worst_forecast_tile: Option<u64>,
    /// Worst-tile wear velocity, window fraction per session.
    pub worst_velocity_per_session: Option<f64>,
    /// Worst-tile extrapolated sessions to the critical window.
    pub worst_sessions_to_critical: Option<f64>,
    /// Most recent alerts, oldest first (capped at `MAX_ALERTS`).
    pub alerts: Vec<AlertRecord>,
}

impl Default for WearState {
    fn default() -> Self {
        WearState {
            status: RunStatus::Running,
            session: None,
            layers: BTreeMap::new(),
            sessions_to_failure: None,
            forecast: BTreeMap::new(),
            worst_forecast_tile: None,
            worst_velocity_per_session: None,
            worst_sessions_to_critical: None,
            alerts: Vec::new(),
        }
    }
}

impl WearState {
    /// The `/wear` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"status\":");
        push_json_str(&mut out, self.status.label());
        out.push_str(",\"session\":");
        push_opt_u64(&mut out, self.session);
        out.push_str(",\"sessions_to_failure\":");
        push_opt_f64(&mut out, self.sessions_to_failure);
        out.push_str(",\"layers\":[");
        for (i, (layer, wear)) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"layer\":{layer},\"r_max_ohms\":");
            push_json_f64(&mut out, wear.r_max_ohms);
            out.push_str(",\"r_min_ohms\":");
            push_json_f64(&mut out, wear.r_min_ohms);
            out.push_str(",\"window_fraction\":");
            push_json_f64(&mut out, wear.window_fraction);
            out.push_str(",\"shrink_rate_ohms_per_session\":");
            push_json_f64(&mut out, wear.shrink_rate_ohms_per_session);
            out.push_str(",\"sessions_left\":");
            push_opt_f64(&mut out, wear.sessions_left);
            let _ = write!(
                out,
                ",\"worn_devices\":{},\"pulses\":{}}}",
                wear.worn_devices as u64, wear.pulses as u64
            );
        }
        out.push_str("],\"alerts\":[");
        for (i, alert) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"severity\":\"{}\",\"rule\":", alert.severity);
            push_json_str(&mut out, &alert.rule);
            out.push_str(",\"session\":");
            push_opt_u64(&mut out, alert.session);
            out.push_str(",\"value\":");
            push_json_f64(&mut out, alert.value);
            out.push_str(",\"threshold\":");
            push_json_f64(&mut out, alert.threshold);
            out.push_str(",\"message\":");
            push_json_str(&mut out, &alert.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The `/health` JSON document (a compact liveness summary).
    pub fn to_health_json(&self) -> String {
        let critical = self.alerts.iter().filter(|a| a.severity == AlertSeverity::Critical).count();
        let mut out = String::from("{\"status\":");
        push_json_str(&mut out, self.status.label());
        out.push_str(",\"session\":");
        push_opt_u64(&mut out, self.session);
        out.push_str(",\"sessions_to_failure\":");
        push_opt_f64(&mut out, self.sessions_to_failure);
        out.push_str(",\"forecast\":");
        self.push_worst_forecast(&mut out);
        let _ = write!(out, ",\"alerts\":{},\"critical_alerts\":{critical}}}", self.alerts.len());
        out
    }

    /// The `/forecast` JSON document: every tile's fitted wear trajectory
    /// plus the worst-tile summary.
    pub fn to_forecast_json(&self) -> String {
        let mut out = String::from("{\"session\":");
        push_opt_u64(&mut out, self.session);
        out.push_str(",\"tiles\":[");
        for (i, (tile, fit)) in self.forecast.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"tile\":{tile},\"window_fraction\":");
            push_json_f64(&mut out, fit.window_fraction);
            out.push_str(",\"velocity_per_session\":");
            push_json_f64(&mut out, fit.velocity_per_session);
            out.push_str(",\"acceleration_per_session2\":");
            push_json_f64(&mut out, fit.acceleration_per_session2);
            out.push_str(",\"sessions_to_critical\":");
            push_opt_f64(&mut out, fit.sessions_to_critical);
            out.push('}');
        }
        out.push_str("],\"worst\":");
        self.push_worst_forecast(&mut out);
        out.push('}');
        out
    }

    /// Appends the worst-tile forecast object (or `null` before the first
    /// forecast round) shared by `/health` and `/forecast`.
    fn push_worst_forecast(&self, out: &mut String) {
        match self.worst_forecast_tile {
            Some(tile) => {
                let _ = write!(out, "{{\"tile\":{tile},\"velocity_per_session\":");
                push_opt_f64(out, self.worst_velocity_per_session);
                out.push_str(",\"sessions_to_critical\":");
                push_opt_f64(out, self.worst_sessions_to_critical);
                out.push('}');
            }
            None => out.push_str("null"),
        }
    }
}

/// A cloneable view onto the shared [`WearState`], independent of the sink
/// that feeds it (the sink is consumed by [`crate::Recorder::new`];
/// the handle outlives it — the same split as `MemorySink`/`MemoryHandle`).
#[derive(Clone)]
pub struct WearHandle {
    wear: Arc<Mutex<WearState>>,
}

impl WearHandle {
    /// A copy of the current wear picture.
    pub fn snapshot(&self) -> WearState {
        self.wear.lock().expect("wear state poisoned").clone()
    }

    /// Records the run's terminal status (shown on `/health` and `/wear`).
    pub fn set_status(&self, status: RunStatus) {
        self.wear.lock().expect("wear state poisoned").status = status;
    }
}

/// Everything the HTTP tier needs: the recorder (for `/metrics`) and the
/// wear state (for `/wear` and `/health`). Cheap to clone.
#[derive(Clone)]
pub struct MonitorState {
    /// Recorder whose registry backs `/metrics`.
    pub recorder: Recorder,
    wear: WearHandle,
}

impl MonitorState {
    /// Combines the recorder (which should have the [`MonitorSink`] paired
    /// with `wear` among its sinks) with the wear view.
    pub fn new(recorder: Recorder, wear: WearHandle) -> Self {
        MonitorState { recorder, wear }
    }

    /// A copy of the current wear picture.
    pub fn wear(&self) -> WearState {
        self.wear.snapshot()
    }

    /// Records the run's terminal status (shown on `/health` and `/wear`).
    pub fn set_status(&self, status: RunStatus) {
        self.wear.set_status(status);
    }
}

/// An [`crate::Sink`] that folds recorder events into the shared
/// [`WearState`].
pub struct MonitorSink {
    wear: Arc<Mutex<WearState>>,
}

impl MonitorSink {
    /// The sink plus the [`WearHandle`] that keeps reading the state after
    /// the sink moves into a recorder.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (MonitorSink, WearHandle) {
        let wear = Arc::new(Mutex::new(WearState::default()));
        (MonitorSink { wear: Arc::clone(&wear) }, WearHandle { wear })
    }
}

impl Sink for MonitorSink {
    fn record(&mut self, event: &Event) {
        let mut wear = self.wear.lock().expect("wear state poisoned");
        match event {
            Event::Gauge { name, session, value } => {
                if session.is_some() {
                    wear.session = wear.session.max(*session);
                }
                match name.as_str() {
                    "health.sessions_to_failure" => {
                        wear.sessions_to_failure = Some(*value);
                        return;
                    }
                    // The worst-tile gauges arrive as a burst led by
                    // `worst_tile`; clearing the crossing on arrival keeps a
                    // never-crossing round from inheriting the stale
                    // `sessions_to_critical` of an earlier one (the engine
                    // skips that gauge when the trajectory never crosses).
                    "forecast.worst_tile" => {
                        wear.worst_forecast_tile = Some(*value as u64);
                        wear.worst_sessions_to_critical = None;
                        return;
                    }
                    "forecast.worst_velocity_per_session" => {
                        wear.worst_velocity_per_session = Some(*value);
                        return;
                    }
                    "forecast.worst_sessions_to_critical" => {
                        wear.worst_sessions_to_critical = Some(*value);
                        return;
                    }
                    _ => {}
                }
                if let Some((base, tile)) = parse_label(name, "tile") {
                    let set: fn(&mut TileForecast, f64) = match base {
                        // Leads each per-tile burst; same stale-crossing
                        // reset as the worst-tile gauges above.
                        "forecast.window_fraction" => |fit, v| {
                            fit.window_fraction = v;
                            fit.sessions_to_critical = None;
                        },
                        "forecast.velocity_per_session" => |fit, v| fit.velocity_per_session = v,
                        "forecast.acceleration_per_session2" => {
                            |fit, v| fit.acceleration_per_session2 = v
                        }
                        "forecast.sessions_to_critical" => {
                            |fit, v| fit.sessions_to_critical = Some(v)
                        }
                        // Any other base, e.g. a replica's
                        // `forecast.replica{r}.*`, must not leave a zeroed
                        // phantom tile behind.
                        _ => return,
                    };
                    set(wear.forecast.entry(tile).or_default(), *value);
                    return;
                }
                let Some((base, layer)) = parse_label(name, "layer") else { return };
                let entry = wear.layers.entry(layer).or_default();
                match base {
                    "aging.r_max_ohms" => entry.r_max_ohms = *value,
                    "aging.r_min_ohms" => entry.r_min_ohms = *value,
                    "health.window_fraction" => entry.window_fraction = *value,
                    "health.shrink_rate_ohms_per_session" => {
                        entry.shrink_rate_ohms_per_session = *value;
                    }
                    "health.sessions_left" => entry.sessions_left = Some(*value),
                    "wear.worn_devices" => entry.worn_devices = *value,
                    "wear.pulses" => entry.pulses = *value,
                    _ => {}
                }
            }
            Event::Session { index, .. } => {
                wear.session = wear.session.max(Some(*index));
            }
            Event::Alert { severity, name, session, value, threshold, message } => {
                if wear.alerts.len() == MAX_ALERTS {
                    wear.alerts.remove(0);
                }
                wear.alerts.push(AlertRecord {
                    severity: *severity,
                    rule: name.clone(),
                    session: *session,
                    value: *value,
                    threshold: *threshold,
                    message: message.clone(),
                });
            }
            _ => {}
        }
    }
}

fn push_opt_f64(out: &mut String, value: Option<f64>) {
    match value {
        Some(v) => push_json_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_opt_u64(out: &mut String, value: Option<u64>) {
    match value {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut MonitorSink, events: &[Event]) {
        for e in events {
            sink.record(e);
        }
    }

    #[test]
    fn sink_folds_gauges_into_per_layer_wear() {
        let (mut sink, handle) = MonitorSink::new();
        feed(
            &mut sink,
            &[
                Event::Gauge {
                    name: "aging.r_max_ohms{layer=0}".into(),
                    session: Some(2),
                    value: 91_000.0,
                },
                Event::Gauge {
                    name: "aging.r_min_ohms{layer=0}".into(),
                    session: Some(2),
                    value: 10_400.0,
                },
                Event::Gauge {
                    name: "health.window_fraction{layer=0}".into(),
                    session: Some(2),
                    value: 0.81,
                },
                Event::Gauge {
                    name: "health.sessions_left{layer=1}".into(),
                    session: Some(2),
                    value: 14.5,
                },
                Event::Gauge {
                    name: "health.sessions_to_failure".into(),
                    session: Some(2),
                    value: 14.5,
                },
                Event::Gauge { name: "unrelated.gauge".into(), session: None, value: 1.0 },
            ],
        );
        let wear = handle.snapshot();
        assert_eq!(wear.session, Some(2));
        assert_eq!(wear.layers.len(), 2);
        assert_eq!(wear.layers[&0].r_max_ohms, 91_000.0);
        assert_eq!(wear.layers[&0].r_min_ohms, 10_400.0);
        assert_eq!(wear.layers[&0].window_fraction, 0.81);
        assert_eq!(wear.layers[&1].sessions_left, Some(14.5));
        assert_eq!(wear.sessions_to_failure, Some(14.5));
    }

    #[test]
    fn sink_retains_alerts_with_a_cap() {
        let (mut sink, handle) = MonitorSink::new();
        for i in 0..(MAX_ALERTS + 3) {
            sink.record(&Event::Alert {
                severity: AlertSeverity::Warn,
                name: "health.window_fraction".into(),
                session: Some(i as u64),
                value: 0.4,
                threshold: 0.5,
                message: format!("alert {i}"),
            });
        }
        let wear = handle.snapshot();
        assert_eq!(wear.alerts.len(), MAX_ALERTS);
        assert_eq!(wear.alerts.first().unwrap().session, Some(3));
        assert_eq!(wear.alerts.last().unwrap().session, Some((MAX_ALERTS + 2) as u64));
    }

    #[test]
    fn wear_json_is_well_formed() {
        let (mut sink, handle) = MonitorSink::new();
        let state = MonitorState::new(Recorder::disabled(), handle);
        feed(
            &mut sink,
            &[
                Event::Gauge {
                    name: "aging.r_max_ohms{layer=0}".into(),
                    session: Some(1),
                    value: 91_000.0,
                },
                Event::Alert {
                    severity: AlertSeverity::Critical,
                    name: "health.sessions_left".into(),
                    session: Some(1),
                    value: 2.0,
                    threshold: 3.0,
                    message: "forecast: 2 \"sessions\" left".into(),
                },
            ],
        );
        let json = state.wear().to_json();
        assert!(json.starts_with("{\"status\":\"running\",\"session\":1,"));
        assert!(json.contains("\"layers\":[{\"layer\":0,\"r_max_ohms\":91000.0,"));
        assert!(json.contains("\"severity\":\"critical\""));
        assert!(json.contains("forecast: 2 \\\"sessions\\\" left"));
        state.set_status(RunStatus::Failed);
        let health = state.wear().to_health_json();
        assert!(health.contains("\"status\":\"failed\""));
        assert!(health.contains("\"critical_alerts\":1"));
    }

    #[test]
    fn sink_folds_forecast_gauges_into_tile_trajectories() {
        let (mut sink, handle) = MonitorSink::new();
        feed(
            &mut sink,
            &[
                Event::Gauge {
                    name: "forecast.window_fraction{tile=3}".into(),
                    session: None,
                    value: 0.5,
                },
                Event::Gauge {
                    name: "forecast.velocity_per_session{tile=3}".into(),
                    session: None,
                    value: -0.00625,
                },
                Event::Gauge {
                    name: "forecast.acceleration_per_session2{tile=3}".into(),
                    session: None,
                    value: -0.001,
                },
                Event::Gauge {
                    name: "forecast.sessions_to_critical{tile=3}".into(),
                    session: None,
                    value: 32.0,
                },
                Event::Gauge { name: "forecast.worst_tile".into(), session: None, value: 3.0 },
                Event::Gauge {
                    name: "forecast.worst_velocity_per_session".into(),
                    session: None,
                    value: -0.00625,
                },
                Event::Gauge {
                    name: "forecast.worst_sessions_to_critical".into(),
                    session: None,
                    value: 32.0,
                },
            ],
        );
        let wear = handle.snapshot();
        assert_eq!(wear.forecast.len(), 1);
        assert_eq!(wear.forecast[&3].window_fraction, 0.5);
        assert_eq!(wear.forecast[&3].velocity_per_session, -0.00625);
        assert_eq!(wear.forecast[&3].sessions_to_critical, Some(32.0));
        assert_eq!(wear.worst_forecast_tile, Some(3));
        assert_eq!(wear.worst_sessions_to_critical, Some(32.0));
        // Forecast gauges never create layer entries.
        assert!(wear.layers.is_empty());

        let forecast = wear.to_forecast_json();
        assert_eq!(
            forecast,
            "{\"session\":null,\"tiles\":[{\"tile\":3,\"window_fraction\":0.5,\
             \"velocity_per_session\":-0.00625,\"acceleration_per_session2\":-0.001,\
             \"sessions_to_critical\":32.0}],\"worst\":{\"tile\":3,\
             \"velocity_per_session\":-0.00625,\"sessions_to_critical\":32.0}}"
        );
        let health = wear.to_health_json();
        assert!(
            health.contains(
                "\"forecast\":{\"tile\":3,\"velocity_per_session\":-0.00625,\
                 \"sessions_to_critical\":32.0}"
            ),
            "got: {health}"
        );
    }

    #[test]
    fn replica_prefixed_forecast_gauges_create_no_tiles() {
        // At >= 2 replicas each engine prefixes its forecast gauges; the
        // sink must not turn them into zeroed phantom tiles.
        let (mut sink, handle) = MonitorSink::new();
        feed(
            &mut sink,
            &[
                Event::Gauge {
                    name: "forecast.replica0.window_fraction{tile=0}".into(),
                    session: None,
                    value: 0.8,
                },
                Event::Gauge {
                    name: "forecast.replica1.window_fraction{tile=0}".into(),
                    session: None,
                    value: 0.7,
                },
                Event::Gauge {
                    name: "forecast.replica1.sessions_to_critical{tile=1}".into(),
                    session: None,
                    value: 12.0,
                },
            ],
        );
        let wear = handle.snapshot();
        assert!(wear.forecast.is_empty(), "phantom tiles: {:?}", wear.forecast);
        assert!(wear.layers.is_empty());
        assert_eq!(wear.to_forecast_json(), "{\"session\":null,\"tiles\":[],\"worst\":null}");
    }

    #[test]
    fn a_non_crossing_round_clears_the_stale_crossing() {
        let (mut sink, handle) = MonitorSink::new();
        feed(
            &mut sink,
            &[
                Event::Gauge {
                    name: "forecast.window_fraction{tile=0}".into(),
                    session: None,
                    value: 0.5,
                },
                Event::Gauge {
                    name: "forecast.sessions_to_critical{tile=0}".into(),
                    session: None,
                    value: 10.0,
                },
                Event::Gauge { name: "forecast.worst_tile".into(), session: None, value: 0.0 },
                Event::Gauge {
                    name: "forecast.worst_sessions_to_critical".into(),
                    session: None,
                    value: 10.0,
                },
                // Next round: the trajectory flattened, so the engine emits
                // no sessions_to_critical gauges at all.
                Event::Gauge {
                    name: "forecast.window_fraction{tile=0}".into(),
                    session: None,
                    value: 0.5,
                },
                Event::Gauge { name: "forecast.worst_tile".into(), session: None, value: 0.0 },
            ],
        );
        let wear = handle.snapshot();
        assert_eq!(wear.forecast[&0].sessions_to_critical, None);
        assert_eq!(wear.worst_sessions_to_critical, None);
        assert!(wear.to_forecast_json().contains("\"sessions_to_critical\":null"));
    }

    #[test]
    fn empty_state_serializes_with_nulls() {
        let (_sink, handle) = MonitorSink::new();
        let json = handle.snapshot().to_json();
        assert_eq!(
            json,
            "{\"status\":\"running\",\"session\":null,\"sessions_to_failure\":null,\
             \"layers\":[],\"alerts\":[]}"
        );
    }
}
