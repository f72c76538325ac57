//! Wear-health monitoring: per-layer degradation tracking, a
//! remaining-lifetime forecaster, and threshold alerts.
//!
//! The paper's failure criterion is reactive — a maintenance session that
//! cannot restore the target accuracy within the tuning budget (150
//! iterations). Production operators need the *leading* signals: the aged
//! resistance window shrinking session over session (eqs. 6–7, Fig. 11) and
//! tuning effort creeping toward the budget (Fig. 10). This module turns
//! both into structured health state:
//!
//! * per-layer wear gauges (`aging.r_max_ohms{layer=i}`, window fractions,
//!   pulse/stress totals) fed from [`memaging_crossbar::TileWear`]
//!   snapshots;
//! * a shrinkage-rate estimate and a **sessions-to-failure forecast** per
//!   layer, extrapolating the observed Arrhenius degradation
//!   `d(s) = R_fresh,max − R_aged,max(s) ≈ C·s^m` (stress accumulates
//!   roughly linearly with maintenance sessions, so the `t^m` law of eq. 6
//!   becomes an `s^m` law in session count) forward to the point where the
//!   window can no longer hold a usable level grid;
//! * `warn`/`critical` [alerts](memaging_obs::Event::Alert) that fire once
//!   per rule on severity escalation, flowing through the [`Recorder`] to
//!   every sink (and to the [`memaging_obs::monitor`] HTTP tier).

use std::collections::HashMap;

use memaging_crossbar::TileWear;
use memaging_obs::{AlertSeverity, Recorder};

use crate::error::LifetimeError;

/// Warn when the forecast sessions-to-failure drops to this value.
const WARN_SESSIONS_LEFT: f64 = 8.0;
/// Critical when the forecast sessions-to-failure drops to this value.
const CRITICAL_SESSIONS_LEFT: f64 = 3.0;
/// Warn when a session consumes this fraction of the tuning budget.
const WARN_TUNING_FRACTION: f64 = 0.6;
/// Critical when a session consumes this fraction of the tuning budget.
const CRITICAL_TUNING_FRACTION: f64 = 0.85;
/// The forecaster's failure point: the window fraction below which the
/// level grid is considered unusable (end of extrapolation).
const MIN_USABLE_WINDOW_FRACTION: f64 = 0.2;

/// Shared wear warn/critical thresholds: the single source of truth for
/// "how worn is too worn", consumed by the health forecaster's alert rules
/// *and* by any online policy that must stay in lockstep with them (the
/// serving tier's live-remap trigger re-maps exactly when the forecaster
/// would warn, so the two can never drift apart).
///
/// Fractions are of the fresh resistance window. The forecast rule's
/// thresholds are fixed (see [`WearThresholds::classify_sessions_left`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearThresholds {
    /// Warn when any layer's mean window falls below this fraction of
    /// fresh.
    pub warn_window_fraction: f64,
    /// Critical when any layer's mean window falls below this fraction.
    pub critical_window_fraction: f64,
}

impl Default for WearThresholds {
    fn default() -> Self {
        WearThresholds { warn_window_fraction: 0.5, critical_window_fraction: 0.3 }
    }
}

impl WearThresholds {
    /// Classifies a mean window fraction (of fresh), returning the crossed
    /// severity and its threshold, or `None` while healthy.
    pub fn classify_window_fraction(&self, fraction: f64) -> Option<(AlertSeverity, f64)> {
        if fraction <= self.critical_window_fraction {
            Some((AlertSeverity::Critical, self.critical_window_fraction))
        } else if fraction <= self.warn_window_fraction {
            Some((AlertSeverity::Warn, self.warn_window_fraction))
        } else {
            None
        }
    }

    /// Classifies a forecast sessions-to-failure value: critical at 3
    /// sessions left or fewer, warn at 8 or fewer.
    pub fn classify_sessions_left(left: f64) -> Option<(AlertSeverity, f64)> {
        if left <= CRITICAL_SESSIONS_LEFT {
            Some((AlertSeverity::Critical, CRITICAL_SESSIONS_LEFT))
        } else if left <= WARN_SESSIONS_LEFT {
            Some((AlertSeverity::Warn, WARN_SESSIONS_LEFT))
        } else {
            None
        }
    }

    /// Validates threshold ordering and ranges.
    ///
    /// # Errors
    ///
    /// Returns [`LifetimeError::InvalidConfig`] when a fraction leaves
    /// `[0, 1]` or the warn fraction would fire *after* the critical one.
    pub fn validate(&self) -> Result<(), LifetimeError> {
        if !(0.0..=1.0).contains(&self.warn_window_fraction)
            || !(0.0..=1.0).contains(&self.critical_window_fraction)
        {
            return Err(LifetimeError::InvalidConfig {
                reason: "wear window fractions must lie in [0, 1]".into(),
            });
        }
        if self.warn_window_fraction < self.critical_window_fraction {
            return Err(LifetimeError::InvalidConfig {
                reason: "health warn thresholds must fire before critical ones".into(),
            });
        }
        Ok(())
    }
}

/// Classifies a session's consumed tuning-budget fraction.
fn classify_tuning_fraction(fraction: f64) -> Option<(AlertSeverity, f64)> {
    if fraction >= CRITICAL_TUNING_FRACTION {
        Some((AlertSeverity::Critical, CRITICAL_TUNING_FRACTION))
    } else if fraction >= WARN_TUNING_FRACTION {
        Some((AlertSeverity::Warn, WARN_TUNING_FRACTION))
    } else {
        None
    }
}

/// Health state of one layer's array at one maintenance session.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerHealth {
    /// Mappable-layer index.
    pub layer: usize,
    /// The tile's wear snapshot.
    pub wear: TileWear,
    /// Estimated shrinkage of the mean upper bound, ohms per session
    /// (positive while degrading; 0 with fewer than two observations).
    pub shrink_rate: f64,
    /// Forecast maintenance sessions until the window becomes unusable
    /// (`None` until measurable degradation has been observed).
    pub sessions_left: Option<f64>,
}

/// One alert decided by [`HealthMonitor::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Severity (warn before critical, by construction).
    pub severity: AlertSeverity,
    /// Rule name, e.g. `health.sessions_left`.
    pub rule: &'static str,
    /// Observed value that crossed the threshold.
    pub value: f64,
    /// The crossed threshold.
    pub threshold: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// The wear-health assessment of one maintenance session.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Session index the assessment belongs to.
    pub session: u64,
    /// Per-layer health, in mapping order.
    pub layers: Vec<LayerHealth>,
    /// Worst-layer forecast of maintenance sessions remaining.
    pub sessions_to_failure: Option<f64>,
    /// Alerts that fired at this session (escalations only — each rule
    /// alerts once per severity over the monitor's lifetime).
    pub alerts: Vec<HealthAlert>,
}

impl HealthReport {
    /// Emits the report through `recorder`: per-layer wear gauges, the
    /// forecast gauges, and one [`memaging_obs::Event::Alert`] per fired
    /// alert.
    pub fn emit(&self, recorder: &Recorder) {
        for lh in &self.layers {
            let layer = lh.layer;
            recorder.gauge_labeled("aging.r_max_ohms", "layer", layer, lh.wear.mean_r_max);
            recorder.gauge_labeled("aging.r_min_ohms", "layer", layer, lh.wear.mean_r_min);
            recorder.gauge_labeled("wear.worn_devices", "layer", layer, lh.wear.worn_out as f64);
            recorder.gauge_labeled("wear.pulses", "layer", layer, lh.wear.total_pulses as f64);
            recorder.gauge_labeled(
                "health.window_fraction",
                "layer",
                layer,
                lh.wear.mean_window_fraction,
            );
            recorder.gauge_labeled(
                "health.shrink_rate_ohms_per_session",
                "layer",
                layer,
                lh.shrink_rate,
            );
            if let Some(left) = lh.sessions_left {
                recorder.gauge_labeled("health.sessions_left", "layer", layer, left);
            }
        }
        if let Some(left) = self.sessions_to_failure {
            recorder.gauge("health.sessions_to_failure", left);
        }
        for alert in &self.alerts {
            recorder.alert(
                alert.severity,
                alert.rule,
                alert.value,
                alert.threshold,
                &alert.message,
            );
        }
    }
}

/// Tracks per-layer degradation across maintenance sessions, forecasts
/// remaining lifetime, and decides threshold alerts.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    thresholds: WearThresholds,
    /// Fresh resistance bounds shared by every device.
    fresh_r_min: f64,
    fresh_r_max: f64,
    /// Tuning-iteration budget per session (the failure criterion's 150).
    tuning_budget: usize,
    /// Per-layer `(session_number, mean_r_max)` history; session numbers
    /// are 1-based so the `s^m` fit never sees `ln 0`.
    history: Vec<Vec<(f64, f64)>>,
    /// Highest severity already emitted per rule (alerts fire on
    /// escalation only).
    emitted: HashMap<&'static str, AlertSeverity>,
}

impl HealthMonitor {
    /// A monitor for devices with fresh bounds `[fresh_r_min,
    /// fresh_r_max]`, the given per-session tuning budget and window-fraction
    /// alert thresholds.
    pub fn new(
        fresh_r_min: f64,
        fresh_r_max: f64,
        tuning_budget: usize,
        thresholds: WearThresholds,
    ) -> Self {
        HealthMonitor {
            thresholds,
            fresh_r_min,
            fresh_r_max,
            tuning_budget: tuning_budget.max(1),
            history: Vec::new(),
            emitted: HashMap::new(),
        }
    }

    /// Ingests one maintenance session's wear snapshots and tuning effort,
    /// returning the health assessment (gauges + alerts to emit).
    pub fn observe(
        &mut self,
        session: u64,
        wear: &[TileWear],
        tuning_iterations: usize,
    ) -> HealthReport {
        let s = session as f64 + 1.0;
        self.history.resize(wear.len().max(self.history.len()), Vec::new());
        let mut layers = Vec::with_capacity(wear.len());
        for (layer, tile) in wear.iter().enumerate() {
            self.history[layer].push((s, tile.mean_r_max));
            let shrink_rate = self.shrink_rate(layer);
            let sessions_left = self.forecast_sessions_left(layer, tile);
            layers.push(LayerHealth { layer, wear: *tile, shrink_rate, sessions_left });
        }
        let sessions_to_failure = layers
            .iter()
            .filter_map(|l| l.sessions_left)
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.min(v))));
        let alerts = self.decide_alerts(&layers, sessions_to_failure, tuning_iterations);
        HealthReport { session, layers, sessions_to_failure, alerts }
    }

    /// Mean upper-bound shrinkage in ohms per session for `layer` (first
    /// vs latest observation; 0 until two sessions are on record).
    fn shrink_rate(&self, layer: usize) -> f64 {
        let h = &self.history[layer];
        match (h.first(), h.last()) {
            (Some(&(s0, r0)), Some(&(s1, r1))) if s1 > s0 => (r0 - r1) / (s1 - s0),
            _ => 0.0,
        }
    }

    /// Extrapolates the layer's degradation to the session where its mean
    /// window falls to [`MIN_USABLE_WINDOW_FRACTION`] of fresh.
    ///
    /// The observed degradation `d(s) = R_fresh,max − mean R_aged,max(s)`
    /// follows the Arrhenius power law `C·s^m` (eq. 6 with stress ∝
    /// sessions). Two observations with measurable degradation fit `m` in
    /// log space (clamped to a physical `[0.2, 2]`). With fewer there is no
    /// forecast (`None`), unless the window has already collapsed (0).
    fn forecast_sessions_left(&self, layer: usize, tile: &TileWear) -> Option<f64> {
        let fresh_width = (self.fresh_r_max - self.fresh_r_min).max(1e-12);
        let h = &self.history[layer];
        let &(s_now, r_now) = h.last()?;
        let d_now = self.fresh_r_max - r_now;
        if d_now <= 1e-9 * fresh_width {
            return None; // No measurable aging yet: nothing to extrapolate.
        }
        // Failure point: the window (anchored at the *current* lower bound,
        // which degrades far slower — eq. 7) collapses to the minimum
        // usable fraction of the fresh window.
        let r_fail = tile.mean_r_min + MIN_USABLE_WINDOW_FRACTION * fresh_width;
        let d_fail = self.fresh_r_max - r_fail;
        if d_now >= d_fail {
            return Some(0.0);
        }
        let (s0, d0) = h
            .iter()
            .map(|&(s, r)| (s, self.fresh_r_max - r))
            .find(|&(s, d)| s < s_now && d > 1e-9 * fresh_width)?;
        let exponent = ((d_now / d0).ln() / (s_now / s0).ln()).clamp(0.2, 2.0);
        let c = d_now / s_now.powf(exponent);
        let s_fail = (d_fail / c).powf(1.0 / exponent);
        Some((s_fail - s_now).max(0.0))
    }

    /// Evaluates the three alert rules, recording escalations so each rule
    /// fires once per severity.
    fn decide_alerts(
        &mut self,
        layers: &[LayerHealth],
        sessions_to_failure: Option<f64>,
        tuning_iterations: usize,
    ) -> Vec<HealthAlert> {
        let mut alerts = Vec::new();
        if let Some(worst) = layers
            .iter()
            .min_by(|a, b| a.wear.mean_window_fraction.total_cmp(&b.wear.mean_window_fraction))
        {
            let value = worst.wear.mean_window_fraction;
            self.escalate(
                &mut alerts,
                "health.window_fraction",
                value,
                self.thresholds.classify_window_fraction(value),
                &format!("layer {} mean window at {:.0}% of fresh", worst.layer, 100.0 * value),
            );
        }
        if let Some(left) = sessions_to_failure {
            self.escalate(
                &mut alerts,
                "health.sessions_left",
                left,
                WearThresholds::classify_sessions_left(left),
                &format!("forecast: {left:.1} maintenance sessions to window collapse"),
            );
        }
        let budget_fraction = tuning_iterations as f64 / self.tuning_budget as f64;
        self.escalate(
            &mut alerts,
            "health.tuning_budget",
            budget_fraction,
            classify_tuning_fraction(budget_fraction),
            &format!(
                "session used {tuning_iterations} of {} tuning iterations",
                self.tuning_budget
            ),
        );
        alerts
    }

    /// Pushes an alert for the highest newly-reached severity of `rule`.
    fn escalate(
        &mut self,
        alerts: &mut Vec<HealthAlert>,
        rule: &'static str,
        value: f64,
        classified: Option<(AlertSeverity, f64)>,
        message: &str,
    ) {
        let Some((severity, threshold)) = classified else { return };
        if self.emitted.get(rule).is_some_and(|&prior| prior >= severity) {
            return;
        }
        self.emitted.insert(rule, severity);
        alerts.push(HealthAlert { severity, rule, value, threshold, message: message.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(r_min: f64, r_max: f64, fresh_width: f64) -> TileWear {
        TileWear {
            rows: 4,
            cols: 4,
            worn_out: 0,
            mean_r_max: r_max,
            mean_r_min: r_min,
            min_window_width: (r_max - r_min).max(0.0),
            mean_window_fraction: ((r_max - r_min) / fresh_width).clamp(0.0, 1.0),
            total_pulses: 100,
            total_stress: 1e-3,
        }
    }

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(1e4, 1e5, 150, WearThresholds::default())
    }

    #[test]
    fn config_validation_catches_inverted_thresholds() {
        assert!(WearThresholds::default().validate().is_ok());
        let bad = WearThresholds { warn_window_fraction: 0.2, ..WearThresholds::default() };
        assert!(bad.validate().is_err(), "warn below critical must be rejected");
        let bad = WearThresholds { critical_window_fraction: -0.1, ..WearThresholds::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn wear_thresholds_classify_both_rules() {
        let t = WearThresholds::default();
        assert_eq!(t.classify_window_fraction(0.9), None);
        assert_eq!(t.classify_window_fraction(0.45), Some((AlertSeverity::Warn, 0.5)));
        assert_eq!(t.classify_window_fraction(0.25), Some((AlertSeverity::Critical, 0.3)));
        assert_eq!(WearThresholds::classify_sessions_left(20.0), None);
        assert_eq!(WearThresholds::classify_sessions_left(5.0), Some((AlertSeverity::Warn, 8.0)));
        assert_eq!(
            WearThresholds::classify_sessions_left(1.0),
            Some((AlertSeverity::Critical, 3.0))
        );
    }

    #[test]
    fn fresh_devices_report_no_forecast_and_no_alerts() {
        let mut m = monitor();
        let report = m.observe(0, &[tile(1e4, 1e5, 9e4)], 10);
        assert_eq!(report.session, 0);
        assert_eq!(report.layers.len(), 1);
        assert_eq!(report.layers[0].shrink_rate, 0.0);
        assert_eq!(report.layers[0].sessions_left, None);
        assert_eq!(report.sessions_to_failure, None);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn shrink_rate_tracks_observed_decline() {
        let mut m = monitor();
        m.observe(0, &[tile(1e4, 1e5, 9e4)], 10);
        let report = m.observe(2, &[tile(1e4, 9.4e4, 9e4)], 10);
        // 6 kΩ lost over two sessions.
        assert!((report.layers[0].shrink_rate - 3.0e3).abs() < 1.0);
    }

    #[test]
    fn forecast_converges_on_power_law_degradation() {
        // Synthesize d(s) = 2e3·s^0.7 and check the forecast lands near the
        // true failure session.
        let mut m = monitor();
        let degrade = |s: f64| 2.0e3 * s.powf(0.7);
        let mut forecast_at_5 = None;
        for session in 0..5u64 {
            let s = session as f64 + 1.0;
            let report = m.observe(session, &[tile(1e4, 1e5 - degrade(s), 9e4)], 10);
            forecast_at_5 = report.sessions_to_failure;
        }
        // True failure: r_max reaches r_min + 0.2·width = 2.8e4, i.e.
        // degradation 7.2e4 = 2e3·s^0.7 → s ≈ 167.7; at s = 5 the forecast
        // should see ≈ 162.7 sessions left.
        let left = forecast_at_5.expect("degradation observed, forecast expected");
        let truth = (7.2e4f64 / 2.0e3).powf(1.0 / 0.7) - 5.0;
        assert!(
            (left - truth).abs() / truth < 0.05,
            "forecast {left:.1} should approximate {truth:.1}"
        );
    }

    #[test]
    fn one_degraded_observation_gives_no_forecast() {
        let mut m = monitor();
        // Degraded (window at 56% of fresh) but not collapsed: one point
        // fits no power law, so nothing is extrapolated or alerted.
        let report = m.observe(0, &[tile(1e4, 6e4, 9e4)], 10);
        assert_eq!(report.layers[0].sessions_left, None);
        assert_eq!(report.sessions_to_failure, None);
        assert!(report.alerts.iter().all(|a| a.rule != "health.sessions_left"));
    }

    #[test]
    fn collapsed_window_forecasts_zero_sessions_left() {
        let mut m = monitor();
        let report = m.observe(0, &[tile(1e4, 2.0e4, 9e4)], 10);
        assert_eq!(report.layers[0].sessions_left, Some(0.0));
        assert_eq!(report.sessions_to_failure, Some(0.0));
    }

    #[test]
    fn alerts_escalate_once_per_rule() {
        let mut m = monitor();
        // Window at 40% of fresh → warn (threshold 0.5), not critical.
        let report = m.observe(0, &[tile(1e4, 4.6e4, 9e4)], 10);
        let window: Vec<_> =
            report.alerts.iter().filter(|a| a.rule == "health.window_fraction").collect();
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].severity, AlertSeverity::Warn);
        assert_eq!(window[0].threshold, 0.5);
        // Same state again: no repeat.
        let report = m.observe(1, &[tile(1e4, 4.5e4, 9e4)], 10);
        assert!(report.alerts.iter().all(|a| a.rule != "health.window_fraction"));
        // Crossing critical escalates exactly once.
        let report = m.observe(2, &[tile(1e4, 3.0e4, 9e4)], 10);
        let window: Vec<_> =
            report.alerts.iter().filter(|a| a.rule == "health.window_fraction").collect();
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].severity, AlertSeverity::Critical);
        let report = m.observe(3, &[tile(1e4, 2.9e4, 9e4)], 10);
        assert!(report.alerts.iter().all(|a| a.rule != "health.window_fraction"));
    }

    #[test]
    fn tuning_budget_rule_watches_iteration_fraction() {
        let mut m = monitor();
        let healthy = tile(1e4, 1e5, 9e4);
        assert!(m.observe(0, &[healthy], 80).alerts.is_empty(), "80/150 is under warn");
        let report = m.observe(1, &[healthy], 100);
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.alerts[0].rule, "health.tuning_budget");
        assert_eq!(report.alerts[0].severity, AlertSeverity::Warn);
        let report = m.observe(2, &[healthy], 140);
        assert_eq!(report.alerts[0].severity, AlertSeverity::Critical);
    }

    #[test]
    fn report_emits_gauges_and_alerts_through_recorder() {
        use memaging_obs::{Event, MemorySink, Recorder};
        let (sink, handle) = MemorySink::new();
        let recorder = Recorder::new(vec![Box::new(sink)]);
        let mut m = monitor();
        m.observe(0, &[tile(1e4, 9e4, 9e4)], 10);
        let report = m.observe(1, &[tile(1e4, 4.0e4, 9e4)], 10);
        assert!(!report.alerts.is_empty());
        report.emit(&recorder);
        let events = handle.events();
        let gauge_names: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::Gauge { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        for expected in [
            "aging.r_max_ohms{layer=0}",
            "aging.r_min_ohms{layer=0}",
            "wear.worn_devices{layer=0}",
            "wear.pulses{layer=0}",
            "health.window_fraction{layer=0}",
            "health.shrink_rate_ohms_per_session{layer=0}",
            "health.sessions_left{layer=0}",
            "health.sessions_to_failure",
        ] {
            assert!(gauge_names.iter().any(|n| n == expected), "missing gauge {expected}");
        }
        assert!(
            events.iter().any(|e| matches!(e, Event::Alert { .. })),
            "alerts must reach the sinks"
        );
        let snapshot = recorder.snapshot().unwrap();
        assert!(
            snapshot.counters.iter().any(|(name, total)| name.starts_with("alerts.") && *total > 0),
            "alert counters must land in the registry: {:?}",
            snapshot.counters
        );
    }
}
