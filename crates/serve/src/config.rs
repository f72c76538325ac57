//! Serving-tier configuration: the per-replica [`ServeConfig`] and the
//! fleet-level [`FleetConfig`] (replica count, router policy, and
//! per-replica stress heterogeneity).

use std::time::Duration;

use memaging_lifetime::WearThresholds;

use crate::error::ServeError;

/// Configuration of one serving replica (every replica of a
/// [`crate::fleet::FleetService`], or the [`crate::InferenceService`]).
///
/// The wear thresholds are the *shared* [`WearThresholds`] struct of the
/// lifetime health forecaster — the live-remap trigger classifies the
/// observed window fraction with exactly the rule that raises the
/// forecaster's `warn` alert, so the two cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue capacity: a request arriving at a full queue is
    /// rejected immediately with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// How long the batcher lingers for more requests after the first one
    /// of a batch arrives (it dispatches early once `max_batch` is
    /// reached or a maintenance boundary is crossed).
    pub max_linger: Duration,
    /// Maintenance-boundary interval in admitted requests: every
    /// `maintenance_interval` admissions the maintenance task accrues the
    /// interval's read-disturb wear, refreshes the published mapping
    /// generation, runs the health forecaster, and (when triggered)
    /// re-runs the paper's aging-aware range selection. Deterministic by
    /// construction: boundaries live in request-sequence space, not in
    /// wall-clock time.
    pub maintenance_interval: u64,
    /// Effective stress absorbed per inference read, seconds per device
    /// (read-disturb wear). Calibrate with
    /// [`memaging_device::ArrheniusAging::stress_for_degradation`].
    pub stress_per_read: f64,
    /// Shared wear thresholds: the remap trigger fires on the same
    /// `warn_window_fraction` rule as the health forecaster.
    pub thresholds: WearThresholds,
    /// Extra staleness gate for re-arming the remap trigger: re-map only
    /// when the active mapping's window upper bound exceeds the observed
    /// mean aged bound by at least this fraction of the fresh window.
    /// Without it the (monotone) wear would re-trigger a remap at every
    /// boundary past the warn threshold.
    pub remap_drift_fraction: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 16,
            max_linger: Duration::from_millis(2),
            maintenance_interval: 64,
            stress_per_read: 0.0,
            thresholds: WearThresholds::default(),
            remap_drift_fraction: 0.02,
        }
    }
}

impl ServeConfig {
    /// Validates ranges and orderings.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero capacities/intervals,
    /// a negative or non-finite stress, an out-of-range drift fraction, or
    /// inconsistent wear thresholds.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 || self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue_capacity and max_batch must be nonzero".into(),
            });
        }
        if self.maintenance_interval == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "maintenance_interval must be nonzero".into(),
            });
        }
        if !self.stress_per_read.is_finite() || self.stress_per_read < 0.0 {
            return Err(ServeError::InvalidConfig {
                reason: "stress_per_read must be finite and >= 0".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.remap_drift_fraction) {
            return Err(ServeError::InvalidConfig {
                reason: "remap_drift_fraction must lie in [0, 1]".into(),
            });
        }
        self.thresholds
            .validate()
            .map_err(|e| ServeError::InvalidConfig { reason: format!("wear thresholds: {e}") })
    }
}

/// How the fleet router assigns admitted blocks to replicas. Both
/// policies are deterministic functions of the admission sequence and of
/// wear snapshots taken at maintenance boundaries — never of wall-clock
/// time — so either policy replays bit-identically at any worker-thread
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Least-forecast-burn-rate: route each block to the replica with the
    /// lowest projected stress (its last published generation's
    /// stress total plus its measured per-request burn rate times the
    /// requests it would absorb), with a block-rotating tie-break. The
    /// lifetime-maximizing policy.
    WearBalance,
    /// Rotate over the replicas by block index. The fairness baseline the
    /// wear-imbalance gate compares against (`exp_fleet`, the fleet
    /// integration tests).
    RoundRobin,
}

impl RouterPolicy {
    /// The policy's stable wire label (`wear` / `round-robin`).
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::WearBalance => "wear",
            RouterPolicy::RoundRobin => "round-robin",
        }
    }
}

/// Configuration of a [`crate::fleet::FleetService`]: `replicas` independent
/// serving cells (each a full [`ServeConfig`] deployment with its own
/// wear ledger, forecaster, and background remap worker) behind one
/// admission queue and a deterministic router.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of replicas (independent crossbar deployments).
    pub replicas: usize,
    /// Routing policy (wear balancing by default).
    pub router: RouterPolicy,
    /// Per-replica multiplier on [`ServeConfig::stress_per_read`] —
    /// physically, an endurance/temperature gradient across chips (no two
    /// fabricated crossbars age identically). Empty means homogeneous
    /// (all 1.0); otherwise the length must equal `replicas`.
    pub stress_scale: Vec<f64>,
    /// The per-replica serving configuration. `maintenance_interval` is
    /// also the router's block quantum: each block of that many
    /// consecutive admissions is routed whole to one replica, so a routed
    /// block is exactly one local maintenance interval.
    pub serve: ServeConfig,
}

impl FleetConfig {
    /// A fleet of `replicas` cells with the wear-balancing router and
    /// homogeneous stress.
    pub fn new(replicas: usize, serve: ServeConfig) -> Self {
        FleetConfig { replicas, router: RouterPolicy::WearBalance, stress_scale: Vec::new(), serve }
    }

    /// Validates the fleet-level ranges plus the embedded [`ServeConfig`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] with a field-specific reason.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.replicas == 0 {
            return Err(ServeError::InvalidConfig { reason: "replicas must be nonzero".into() });
        }
        if !self.stress_scale.is_empty() && self.stress_scale.len() != self.replicas {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "stress_scale has {} entries for {} replicas",
                    self.stress_scale.len(),
                    self.replicas
                ),
            });
        }
        if self.stress_scale.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(ServeError::InvalidConfig {
                reason: "stress_scale entries must be finite and > 0".into(),
            });
        }
        self.serve.validate()
    }

    /// Replica `r`'s serving config: the shared [`ServeConfig`] with its
    /// read-disturb stress scaled by `stress_scale[r]`.
    pub fn replica_serve(&self, r: usize) -> ServeConfig {
        let mut config = self.serve;
        if let Some(scale) = self.stress_scale.get(r) {
            config.stress_per_read *= scale;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_configs_are_rejected() {
        for bad in [
            ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
            ServeConfig { maintenance_interval: 0, ..ServeConfig::default() },
            ServeConfig { stress_per_read: -1.0, ..ServeConfig::default() },
            ServeConfig { stress_per_read: f64::NAN, ..ServeConfig::default() },
            ServeConfig { remap_drift_fraction: 1.5, ..ServeConfig::default() },
            ServeConfig {
                thresholds: WearThresholds {
                    warn_window_fraction: 0.1,
                    ..WearThresholds::default()
                },
                ..ServeConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn router_policies_round_trip_through_labels() {
        assert_eq!(RouterPolicy::WearBalance.label(), "wear");
        assert_eq!(RouterPolicy::RoundRobin.label(), "round-robin");
    }

    #[test]
    fn default_fleet_config_validates() {
        assert!(FleetConfig::new(4, ServeConfig::default()).validate().is_ok());
    }

    #[test]
    fn bad_fleet_configs_are_rejected() {
        let base = || FleetConfig::new(2, ServeConfig::default());
        for bad in [
            FleetConfig { replicas: 0, ..base() },
            FleetConfig { stress_scale: vec![1.0], ..base() },
            FleetConfig { stress_scale: vec![1.0, 0.0], ..base() },
            FleetConfig { stress_scale: vec![1.0, f64::NAN], ..base() },
            FleetConfig { serve: ServeConfig { max_batch: 0, ..ServeConfig::default() }, ..base() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn stress_scale_multiplies_per_replica_stress() {
        let mut config = FleetConfig::new(2, ServeConfig::default());
        config.serve.stress_per_read = 2.0;
        config.stress_scale = vec![1.0, 1.5];
        assert_eq!(config.replica_serve(0).stress_per_read, 2.0);
        assert_eq!(config.replica_serve(1).stress_per_read, 3.0);
        config.stress_scale.clear();
        assert_eq!(config.replica_serve(1).stress_per_read, 2.0);
    }
}
