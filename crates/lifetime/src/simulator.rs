//! The lifetime simulation loop (paper §V, Table I, Figs. 10–11).
//!
//! A deployed crossbar alternates between *serving applications* (inference,
//! which slowly drifts conductances — recoverable) and *maintenance
//! sessions* (re-mapping the trained weights and online-tuning back to the
//! target accuracy — whose programming pulses irreversibly age the
//! devices). The crossbar's lifetime is the number of applications served
//! before a maintenance session fails to reach the target accuracy within
//! the tuning budget (150 iterations in the paper).

use memaging_crossbar::{tune_with_recorder, CrossbarNetwork, ProgramStats, TuneConfig};
use memaging_dataset::Dataset;
use memaging_device::{ArrheniusAging, DeviceSpec};
use memaging_nn::Network;
use memaging_obs::Recorder;
use memaging_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::LifetimeError;
use crate::health::{HealthConfig, HealthMonitor};
use crate::strategy::Strategy;

/// Configuration of a lifetime simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeConfig {
    /// The training/mapping strategy under test.
    pub strategy: Strategy,
    /// Accuracy each maintenance session must restore.
    pub target_accuracy: f64,
    /// Tuning-iteration budget per session (paper: 150).
    pub max_tuning_iterations: usize,
    /// Applications (inferences) served between maintenance sessions.
    pub applications_per_session: u64,
    /// Hard cap on simulated sessions (a survivor is reported with
    /// `failed == false`).
    pub max_sessions: usize,
    /// Per-device probability of drifting during one serving period.
    pub drift_probability: f64,
    /// Relative conductance-drift magnitude σ: a drifting device moves
    /// `g ← g·(1 + σ·z)`, `z ~ N(0,1)`. Proportional-in-conductance drift is
    /// the physical model (relaxation scales with filament current).
    pub drift_sigma: f64,
    /// Mini-batch size for tuning and evaluation.
    pub batch_size: usize,
    /// RNG seed for the drift process.
    pub seed: u64,
    /// Maintenance patience: the fraction of the tuning budget a session may
    /// spend before escalating to a re-map. Tuning-iteration growth is the
    /// paper's early-warning signal (Fig. 10); aborting a struggling tune,
    /// re-mapping, and tuning again avoids burning the array in a doomed
    /// full-budget session. `1.0` lets the first pass use the entire budget
    /// before the re-map escalation.
    pub remap_trigger: f64,
    /// Enables the row-swapping wear-leveling baseline of the paper's
    /// ref. \[12\] on top of the selected strategy (prior-work comparison).
    pub wear_leveling: bool,
    /// Thresholds of the wear-health subsystem (forecaster + alerts). The
    /// monitor only runs when a recorder is enabled — its reports flow
    /// through the recorder's sinks.
    pub health: HealthConfig,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            strategy: Strategy::TT,
            target_accuracy: 0.9,
            max_tuning_iterations: 150,
            applications_per_session: 500_000,
            max_sessions: 64,
            drift_probability: 0.08,
            drift_sigma: 0.08,
            batch_size: 32,
            seed: 0,
            remap_trigger: 0.3,
            wear_leveling: false,
            health: HealthConfig::default(),
        }
    }
}

impl LifetimeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LifetimeError::InvalidConfig`] for zero budgets or an
    /// out-of-range probability/accuracy.
    pub fn validate(&self) -> Result<(), LifetimeError> {
        if self.max_tuning_iterations == 0
            || self.max_sessions == 0
            || self.batch_size == 0
            || self.applications_per_session == 0
        {
            return Err(LifetimeError::InvalidConfig {
                reason: "iteration/session/batch/application budgets must be nonzero".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.drift_probability) {
            return Err(LifetimeError::InvalidConfig {
                reason: format!("drift probability {} not in [0, 1]", self.drift_probability),
            });
        }
        if !self.drift_sigma.is_finite() || self.drift_sigma < 0.0 {
            return Err(LifetimeError::InvalidConfig {
                reason: format!("drift sigma {} must be finite and >= 0", self.drift_sigma),
            });
        }
        if !(0.0..=1.0).contains(&self.target_accuracy) {
            return Err(LifetimeError::InvalidConfig {
                reason: format!("target accuracy {} not in [0, 1]", self.target_accuracy),
            });
        }
        if !(0.0..=1.0).contains(&self.remap_trigger) {
            return Err(LifetimeError::InvalidConfig {
                reason: format!("remap trigger {} not in [0, 1]", self.remap_trigger),
            });
        }
        self.health.validate()?;
        Ok(())
    }
}

/// Telemetry of one maintenance session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Session index (0-based; session 0 is deployment).
    pub session: usize,
    /// Cumulative applications served *before* this session.
    pub applications_before: u64,
    /// Programming statistics of the mapping step (zero unless this session
    /// deployed or escalated to a re-map).
    pub map_stats: ProgramStats,
    /// Whether this session (re-)mapped the weights. Session 0 always maps;
    /// later sessions map only as recovery after a failed tuning pass.
    pub remapped: bool,
    /// Common mapping window chosen per layer at the most recent map.
    pub windows: Vec<memaging_device::AgedWindow>,
    /// Hardware accuracy at session start (after drift, before tuning).
    pub pre_tune_accuracy: f64,
    /// Online-tuning iterations used (Fig. 10 series; sums both passes when
    /// the session escalated to a re-map).
    pub tuning_iterations: usize,
    /// Programming pulses spent by tuning.
    pub tuning_pulses: u64,
    /// Accuracy at session end.
    pub accuracy: f64,
    /// Whether the session restored the target accuracy.
    pub converged: bool,
    /// Mean aged upper resistance bound per mappable layer (Fig. 11 series).
    pub per_layer_mean_r_max: Vec<f64>,
    /// Worn-out devices across all arrays at session end.
    pub worn_out_devices: usize,
}

/// The outcome of a full lifetime simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeResult {
    /// The strategy simulated.
    pub strategy: Strategy,
    /// Per-session telemetry, in order.
    pub sessions: Vec<SessionRecord>,
    /// Applications served before failure (or before the session cap).
    pub lifetime_applications: u64,
    /// `true` if a maintenance session failed (genuine end of life);
    /// `false` if the simulation hit `max_sessions` while still healthy.
    pub failed: bool,
}

impl LifetimeResult {
    /// The tuning-iterations series for Fig. 10 (one point per session).
    pub fn tuning_iteration_series(&self) -> Vec<(u64, usize)> {
        self.sessions.iter().map(|s| (s.applications_before, s.tuning_iterations)).collect()
    }
}

/// Runs the lifetime simulation for a *pre-trained* network.
///
/// Training (traditional vs skewed) happens upstream — see
/// `memaging::Framework` — because the paper trains once and deploys. The
/// deployment lifecycle follows the paper's Fig. 5 workflow:
///
/// 1. **Deploy** (session 0): map the trained weights with the strategy's
///    mapping and online-tune to the target accuracy.
/// 2. **Serve**: applications run; conductances drift (recoverable).
/// 3. **Maintain**: online tuning (eq. 5) restores the target accuracy.
///    Its programming pulses are what irreversibly age the devices — the
///    feedback loop at the heart of the paper.
/// 4. **Recover**: if tuning alone cannot restore the target, the weights
///    are re-mapped (fresh-range for `T+T`/`ST+T`, aged-range for `ST+AT`)
///    and tuned again. If that still fails, the crossbar is dead.
///
/// # Errors
///
/// Returns [`LifetimeError::InvalidConfig`] for a bad config and propagates
/// structural crossbar/network errors. A failing session is *not* an
/// error — it terminates the simulation normally with `failed == true`.
pub fn run_lifetime(
    network: Network,
    spec: DeviceSpec,
    aging: ArrheniusAging,
    data: &Dataset,
    config: &LifetimeConfig,
) -> Result<LifetimeResult, LifetimeError> {
    run_lifetime_with_recorder(network, spec, aging, data, config, &Recorder::disabled())
}

/// [`run_lifetime`] with observability. Each maintenance session is stamped
/// with its index ([`Recorder::set_session`]) and traced as `map` (when the
/// session maps) and `tune` spans, the session's pre-tune `evaluate` span
/// nested in its first `tune`; per session the recorder
/// receives the wear-health report of [`crate::HealthMonitor`] (the
/// `aging.*`/`wear.*`/`health.*` gauges, the sessions-to-failure forecast
/// and any warn/critical alerts), wear counters, and a session-summary
/// event carrying `tuner.iterations`, `tuner.pulses` and the session
/// accuracies. With a disabled recorder this is identical to
/// [`run_lifetime`].
///
/// # Errors
///
/// Same as [`run_lifetime`].
pub fn run_lifetime_with_recorder(
    network: Network,
    spec: DeviceSpec,
    aging: ArrheniusAging,
    data: &Dataset,
    config: &LifetimeConfig,
    recorder: &Recorder,
) -> Result<LifetimeResult, LifetimeError> {
    config.validate()?;
    let trained: Vec<Tensor> = network.weight_matrices();
    let mut health =
        HealthMonitor::new(spec.r_min, spec.r_max, config.max_tuning_iterations, config.health);
    let mut hw = CrossbarNetwork::new(network, spec, aging)?;
    hw.set_wear_leveling(config.wear_leveling);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sessions = Vec::new();
    let mut applications: u64 = 0;
    let mut last_windows: Vec<memaging_device::AgedWindow> = Vec::new();
    let tune_config = TuneConfig {
        max_iterations: config.max_tuning_iterations,
        target_accuracy: config.target_accuracy,
        batch_size: config.batch_size,
        ..TuneConfig::default()
    };
    let patience =
        ((config.max_tuning_iterations as f64) * config.remap_trigger).ceil().max(1.0) as usize;
    let patience_config = TuneConfig { max_iterations: patience, ..tune_config };
    for session in 0..config.max_sessions {
        recorder.set_session(Some(session as u64));
        let mut map_stats = ProgramStats::default();
        let mut remapped = false;
        if session == 0 {
            // Deployment: initial mapping.
            hw.restore_software_weights(&trained)?;
            let report = hw.map_weights_with_recorder(
                config.strategy.mapping(),
                Some((data, config.batch_size)),
                recorder,
            )?;
            map_stats.merge(report.stats);
            last_windows = report.windows.clone();
            remapped = true;
        } else {
            // Serve applications: recoverable conductance drift.
            hw.apply_conductance_drift(config.drift_probability, config.drift_sigma, &mut rng);
            applications += config.applications_per_session;
        }
        // Maintenance: online tuning (paper eq. 5) with limited patience.
        // Its first, exact evaluation scores the state the session starts
        // from, so it is the session's pre-tune accuracy.
        let mut tune_report = tune_with_recorder(&mut hw, data, &patience_config, recorder)?;
        let pre_tune_accuracy = tune_report.initial_accuracy;
        let mut iterations = tune_report.iterations;
        let mut pulses = tune_report.pulses;
        if !tune_report.converged {
            // Escalation: the iteration blow-up of Fig. 10 is the failure
            // precursor. Re-map with the strategy's mapping (fresh ranges
            // for T+T/ST+T, aged ranges for ST+AT) and spend the remaining
            // budget tuning the re-mapped state.
            hw.restore_software_weights(&trained)?;
            let report = hw.map_weights_with_recorder(
                config.strategy.mapping(),
                Some((data, config.batch_size)),
                recorder,
            )?;
            map_stats.merge(report.stats);
            last_windows = report.windows.clone();
            remapped = true;
            recorder.counter("lifetime.remaps", 1);
            let remaining = TuneConfig {
                max_iterations: config.max_tuning_iterations.saturating_sub(patience).max(1),
                ..tune_config
            };
            tune_report = tune_with_recorder(&mut hw, data, &remaining, recorder)?;
            iterations += tune_report.iterations;
            pulses += tune_report.pulses;
        }
        // One pass over the devices feeds both wear fields of the record.
        let wear = hw.wear_snapshots();
        let record = SessionRecord {
            session,
            applications_before: applications,
            map_stats,
            remapped,
            windows: last_windows.clone(),
            pre_tune_accuracy,
            tuning_iterations: iterations,
            tuning_pulses: pulses,
            accuracy: tune_report.final_accuracy,
            converged: tune_report.converged,
            per_layer_mean_r_max: wear.iter().map(|tile| tile.mean_r_max).collect(),
            worn_out_devices: wear.iter().map(|tile| tile.worn_out).sum(),
        };
        // Programming Joule heat spreads through the array substrate.
        hw.equilibrate_thermal();
        if recorder.is_enabled() {
            recorder.counter("lifetime.sessions", 1);
            // Wear-health assessment: per-layer aged-bound gauges, the
            // sessions-to-failure forecast, and threshold alerts.
            health
                .observe(session as u64, &hw.wear_snapshots(), record.tuning_iterations)
                .emit(recorder);
            recorder.gauge("lifetime.worn_out_devices", record.worn_out_devices as f64);
            recorder.session_summary(
                session as u64,
                &[
                    ("tuner.iterations", record.tuning_iterations as f64),
                    ("tuner.pulses", record.tuning_pulses as f64),
                    ("pre_tune_accuracy", record.pre_tune_accuracy),
                    ("accuracy", record.accuracy),
                    ("remapped", if record.remapped { 1.0 } else { 0.0 }),
                    ("converged", if record.converged { 1.0 } else { 0.0 }),
                    ("worn_out_devices", record.worn_out_devices as f64),
                ],
            );
        }
        let converged = record.converged;
        sessions.push(record);
        if !converged {
            recorder.set_session(None);
            return Ok(LifetimeResult {
                strategy: config.strategy,
                sessions,
                lifetime_applications: applications,
                failed: true,
            });
        }
    }
    recorder.set_session(None);
    applications += config.applications_per_session;
    Ok(LifetimeResult {
        strategy: config.strategy,
        sessions,
        lifetime_applications: applications,
        failed: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_dataset::SyntheticSpec;
    use memaging_nn::{models, train, NoRegularizer, SkewedL2, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(seed: u64) -> Dataset {
        let mut d = Dataset::gaussian_blobs(&SyntheticSpec::small(3, seed)).unwrap();
        d.normalize();
        d
    }

    fn trained(data: &Dataset, skewed: bool, seed: u64) -> Network {
        let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(seed)).unwrap();
        let config = TrainConfig { epochs: 12, target_accuracy: 0.98, ..TrainConfig::default() };
        train(&mut net, data, &config, &NoRegularizer).unwrap();
        if skewed {
            let reg = SkewedL2::from_layer_stds(&net.weight_stds(), 1.0, 5e-3, 5e-4);
            let config = TrainConfig { epochs: 8, ..TrainConfig::default() };
            train(&mut net, data, &config, &reg).unwrap();
        }
        net
    }

    fn fast_config(strategy: Strategy) -> LifetimeConfig {
        LifetimeConfig {
            strategy,
            target_accuracy: 0.85,
            max_tuning_iterations: 40,
            max_sessions: 4,
            ..LifetimeConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        let mut c = LifetimeConfig::default();
        assert!(c.validate().is_ok());
        c.max_sessions = 0;
        assert!(c.validate().is_err());
        let c = LifetimeConfig { drift_probability: 1.5, ..LifetimeConfig::default() };
        assert!(c.validate().is_err());
        let c = LifetimeConfig { target_accuracy: -0.1, ..LifetimeConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn healthy_network_survives_a_few_sessions() {
        let data = blobs(31);
        let net = trained(&data, false, 31);
        let result = run_lifetime(
            net,
            DeviceSpec::default(),
            ArrheniusAging::default(),
            &data,
            &fast_config(Strategy::TT),
        )
        .unwrap();
        assert_eq!(result.sessions.len(), 4, "should survive the short cap: {result:?}");
        assert!(!result.failed);
        assert!(result.lifetime_applications >= 4 * 500_000);
        for s in &result.sessions {
            assert!(s.converged);
            assert!(s.accuracy >= 0.85);
            assert_eq!(s.per_layer_mean_r_max.len(), 2);
        }
    }

    #[test]
    fn sessions_record_monotone_applications() {
        let data = blobs(32);
        let net = trained(&data, true, 32);
        let result = run_lifetime(
            net,
            DeviceSpec::default(),
            ArrheniusAging::default(),
            &data,
            &fast_config(Strategy::StT),
        )
        .unwrap();
        let series = result.tuning_iteration_series();
        for pair in series.windows(2) {
            assert!(pair[1].0 > pair[0].0);
        }
        assert_eq!(series.len(), result.sessions.len());
    }

    #[test]
    fn aging_accumulates_across_sessions() {
        let data = blobs(33);
        let net = trained(&data, false, 33);
        let result = run_lifetime(
            net,
            DeviceSpec::default(),
            ArrheniusAging::default(),
            &data,
            &fast_config(Strategy::TT),
        )
        .unwrap();
        let first = &result.sessions.first().unwrap().per_layer_mean_r_max;
        let last = &result.sessions.last().unwrap().per_layer_mean_r_max;
        for (a, b) in first.iter().zip(last) {
            assert!(b <= a, "mean aged bound must not grow: {a} -> {b}");
        }
        // Maintenance costs pulses every session.
        assert!(result.sessions[0].map_stats.pulses > 0, "deployment maps");
    }

    #[test]
    fn accelerated_aging_ends_the_lifetime() {
        // Crank the aging magnitude so the window collapses within a few
        // sessions; the simulation must terminate with failed == true.
        let data = blobs(34);
        let net = trained(&data, false, 34);
        let aging = ArrheniusAging { a_f: 1.0e18, a_g: 1.0e17, ..ArrheniusAging::default() };
        let config = LifetimeConfig {
            strategy: Strategy::TT,
            target_accuracy: 0.9,
            max_tuning_iterations: 25,
            max_sessions: 40,
            drift_probability: 0.5,
            ..LifetimeConfig::default()
        };
        let result = run_lifetime(net, DeviceSpec::default(), aging, &data, &config).unwrap();
        assert!(result.failed, "accelerated aging must kill the crossbar: {result:?}");
        assert!(!result.sessions.last().unwrap().converged);
        assert!(result.sessions.len() < 40);
    }

    #[test]
    fn st_at_outlives_tt_under_accelerated_aging() {
        // The paper's headline ordering on a small testbed: ST+AT >= T+T.
        let data = blobs(35);
        let aging = ArrheniusAging { a_f: 1.0e16, ..ArrheniusAging::default() };
        let config_tt = LifetimeConfig {
            strategy: Strategy::TT,
            target_accuracy: 0.88,
            max_tuning_iterations: 30,
            max_sessions: 30,
            ..LifetimeConfig::default()
        };
        let config_stat = LifetimeConfig { strategy: Strategy::StAt, ..config_tt };
        let tt = run_lifetime(
            trained(&data, false, 35),
            DeviceSpec::default(),
            aging,
            &data,
            &config_tt,
        )
        .unwrap();
        let stat = run_lifetime(
            trained(&data, true, 35),
            DeviceSpec::default(),
            aging,
            &data,
            &config_stat,
        )
        .unwrap();
        assert!(
            stat.lifetime_applications >= tt.lifetime_applications,
            "ST+AT ({}) must not lose to T+T ({})",
            stat.lifetime_applications,
            tt.lifetime_applications
        );
    }
}
