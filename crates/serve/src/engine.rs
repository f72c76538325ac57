//! The maintenance engine: the single owner of the physical
//! [`CrossbarNetwork`] once a service is deployed.
//!
//! Workers never touch hardware — they serve from published
//! [`MappingGeneration`] snapshots — so everything that *does* mutate
//! devices funnels through this engine, on one thread, in
//! request-sequence order:
//!
//! 1. at boundary `b`, accrue the previous interval's read-disturb wear
//!    (one multiply-add per device, so only the admitted-request *count*
//!    matters — not batching, timing, or worker count);
//! 2. read the per-tile wear snapshot and the effective weights back in
//!    one pass over the devices, which evaluates each aged window once,
//!    and run the wear-health forecaster on the snapshot;
//! 3. build generation `b` from those weights, which the caller publishes
//!    once [`ServeEngine::boundary`] returns;
//! 4. if the shared [`WearThresholds`] warn rule fires *and* the active
//!    mapping has drifted from the observed aged windows, re-run the
//!    paper's aging-aware range selection (the PR-4 incremental engine)
//!    and reprogram — while the dispatcher keeps serving generation `b`.
//!
//! The remap deliberately runs *after* the publish: a slow range-selection
//! sweep overlaps live traffic instead of stalling it, and its effect
//! becomes visible exactly at the next boundary's read-back — an atomic,
//! deterministic swap point.
//!
//! [`WearThresholds`]: memaging_lifetime::WearThresholds

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use memaging_crossbar::{CrossbarNetwork, MappingStrategy, TileWear};
use memaging_dataset::Dataset;
use memaging_lifetime::{
    trend, worst_tile, HealthConfig, HealthMonitor, WearCause, WearLedger, DEFAULT_FORECAST_WINDOW,
};
use memaging_obs::{AlertSeverity, Recorder};
use memaging_tensor::Tensor;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::generation::MappingGeneration;
use crate::stats::{ServeStats, WorstTileForecast};

/// Fixed-point scale for series values: fractions are recorded in
/// parts-per-billion and stress in nanoseconds, so series folds are pure
/// integer math (the bit-determinism contract of the series store). The
/// offline analyzer decodes replayed series with the same scale, so its
/// forecast matches the live one byte for byte.
pub const SERIES_SCALE: f64 = 1e9;

/// Calibration batch size handed to the aging-aware range selection.
const CALIB_BATCH: usize = 64;

/// Tuning-iteration budget reported to the health forecaster: the paper's
/// failure-criterion denominator.
const TUNING_BUDGET: usize = 150;

/// Converts a non-negative float to its fixed-point series value.
pub fn to_fixed(value: f64) -> u64 {
    (value * SERIES_SCALE).round().max(0.0) as u64
}

/// The serving tier's hardware side: crossbars, wear accounting, health
/// forecasting, and the live-remap policy.
pub(crate) struct ServeEngine {
    network: CrossbarNetwork,
    calib: Dataset,
    config: ServeConfig,
    health: HealthMonitor,
    recorder: Recorder,
    stats: Arc<ServeStats>,
    fresh_width: f64,
    /// Set by the boundary health check, consumed by
    /// [`ServeEngine::maybe_remap`].
    remap_armed: bool,
    /// Cumulative live remaps performed.
    remaps: u64,
    /// The boundary id most recently processed — a remap armed there
    /// surfaces at generation `last_boundary + 1`, which is what its
    /// ledger entry is keyed with.
    last_boundary: u64,
    /// The wear-attribution ledger, charged here (the single wear-mutating
    /// thread, in admission-sequence order) and read by
    /// `GET /wear/attribution`.
    ledger: Arc<Mutex<WearLedger>>,
    /// Highest severity the predictive burn-rate alert has fired at —
    /// escalate-once, like the health monitor's per-rule alert state.
    burn_severity: Option<AlertSeverity>,
    /// Fleet replica id, `None` for a single-replica deployment. When set,
    /// every per-hardware observation (series names, wear-checkpoint
    /// causes, forecast gauges, the ledger itself) carries a
    /// `replica{r}.` namespace so fleet streams can never alias tiles
    /// across replicas.
    replica: Option<usize>,
    /// `""` or `"replica{r}."` — the obs namespace derived from `replica`.
    prefix: String,
}

impl ServeEngine {
    /// Takes ownership of `network`, performs the initial aging-aware
    /// mapping against `calib`, and returns the engine plus the initial
    /// generation (id 0) to publish. With a fleet replica id, all
    /// per-hardware observability (series, wear causes, forecast gauges,
    /// the attribution ledger) is namespaced `replica{r}.`; `None` emits
    /// the plain single-deployment streams. Remaps program only the cells
    /// whose level changed ([`memaging_crossbar::Crossbar::program_conductances`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a bad config,
    /// [`ServeError::Internal`] when the initial mapping or read-back
    /// fails.
    pub(crate) fn deploy(
        mut network: CrossbarNetwork,
        calib: Dataset,
        config: ServeConfig,
        recorder: Recorder,
        stats: Arc<ServeStats>,
        replica: Option<usize>,
    ) -> Result<(ServeEngine, Arc<MappingGeneration>), ServeError> {
        config.validate()?;
        let prefix = replica.map(|r| format!("replica{r}.")).unwrap_or_default();
        network
            .map_weights_with_recorder(
                MappingStrategy::AgingAware,
                Some((&calib, CALIB_BATCH)),
                &recorder,
            )
            .map_err(internal)?;
        let spec = *network.model().spec();
        let health = HealthMonitor::new(
            spec.r_min,
            spec.r_max,
            TUNING_BUDGET,
            HealthConfig { wear: config.thresholds, ..HealthConfig::default() },
        );
        // Open the attribution ledger with the initial deployment mapping
        // charged as `Remap{generation: 0}` — from here on every wear
        // checkpoint is taken on this thread, in admission-sequence order.
        // The checkpoint is mirrored to the trace so offline attribution
        // replays bit-for-bit.
        let stress = network.tile_stress();
        let mut ledger = WearLedger::for_replica(stress.len(), replica);
        let cause = WearCause::Remap { generation: 0 };
        ledger.charge(cause, &stress);
        recorder.wear_checkpoint(&format!("{prefix}{}", cause.kind()), cause.param(), &stress);
        let engine = ServeEngine {
            network,
            calib,
            config,
            health,
            recorder,
            stats,
            fresh_width: (spec.r_max - spec.r_min).max(1e-12),
            remap_armed: false,
            remaps: 0,
            last_boundary: 0,
            ledger: Arc::new(Mutex::new(ledger)),
            burn_severity: None,
            replica,
            prefix,
        };
        let (wear, weights) = engine.network.read_back().map_err(internal)?;
        let generation = engine.read_generation(0, weights, &wear);
        Ok((engine, generation))
    }

    /// The expected input dimension (features per request).
    pub fn input_dim(&self) -> usize {
        let (c, h, w) = self.calib.image_shape();
        c * h * w
    }

    /// A clone of the software network for worker contexts.
    pub fn software_clone(&self) -> memaging_nn::Network {
        self.network.software().clone()
    }

    /// Processes maintenance boundary `id`: accrues `interval_requests`
    /// admitted requests' read-disturb wear, reads the wear snapshot and
    /// the effective weights back in one device pass, runs the health
    /// forecaster, builds generation `id` from the weights, and arms
    /// the remap trigger when the shared warn threshold is crossed on a
    /// stale mapping.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the hardware read-back fails.
    pub fn boundary(
        &mut self,
        id: u64,
        interval_requests: u64,
    ) -> Result<Arc<MappingGeneration>, ServeError> {
        let span = self.recorder.trace_span("serve.boundary", id);
        self.network.apply_read_disturb_traced(
            interval_requests,
            self.config.stress_per_read,
            &self.recorder,
            id,
        );
        self.charge(WearCause::InferenceRead { batch_seq: id });
        self.last_boundary = id;
        // One pass over the devices yields both the wear snapshot and the
        // weights the generation serves.
        let phase = self.recorder.trace_span("serve.boundary.wear", id);
        let (wear, weights) = self.network.read_back().map_err(internal)?;
        drop(phase);
        let phase = self.recorder.trace_span("serve.boundary.health", id);
        let report = self.health.observe(id, &wear, 0);
        report.emit(&self.recorder);
        drop(phase);
        let phase = self.recorder.trace_span("serve.boundary.readback", id);
        let generation = self.read_generation(id, weights, &wear);
        self.recorder.gauge(
            &format!("serve.{}window_fraction_worst", self.prefix),
            generation.worst_window_fraction,
        );
        drop(phase);
        let phase = self.recorder.trace_span("serve.boundary.forecast", id);
        self.record_series(id, &wear);
        self.update_forecast(wear.len());
        drop(phase);

        // The remap trigger: exactly the forecaster's warn rule (shared
        // thresholds — satellite of this PR), gated by mapping staleness
        // so monotone wear does not re-trigger at every boundary.
        let warn =
            self.config.thresholds.classify_window_fraction(generation.worst_window_fraction);
        let drift = self
            .network
            .last_windows()
            .iter()
            .zip(&wear)
            .filter_map(|(window, tile)| {
                window.map(|w| (w.r_max - tile.mean_r_max) / self.fresh_width)
            })
            .fold(0.0_f64, f64::max);
        self.remap_armed = warn.is_some() && drift >= self.config.remap_drift_fraction;
        self.stats.boundaries.fetch_add(1, Ordering::Relaxed);
        drop(span);
        Ok(generation)
    }

    /// Runs the aging-aware live remap if the last boundary armed it.
    /// Called *after* the boundary's generation is published, so the
    /// range-selection sweep overlaps live traffic; the reprogrammed
    /// weights surface at the next boundary's read-back.
    ///
    /// Returns whether a remap ran. A mapping failure is downgraded to an
    /// alert (the service keeps running on the active mapping).
    pub fn maybe_remap(&mut self) -> bool {
        if !self.remap_armed {
            return false;
        }
        self.remap_armed = false;
        let span = self.recorder.span("serve.remap");
        let outcome = self.network.map_weights_with_recorder(
            MappingStrategy::AgingAware,
            Some((&self.calib, CALIB_BATCH)),
            &self.recorder,
        );
        drop(span);
        match outcome {
            Ok(_) => {
                // The reprogrammed weights surface at the *next* boundary's
                // read-back, so the ledger entry is keyed with that
                // generation id.
                self.charge(WearCause::Remap { generation: self.last_boundary + 1 });
                self.remaps += 1;
                self.stats.remaps.fetch_add(1, Ordering::Relaxed);
                self.recorder.counter("serve.remaps", 1);
                true
            }
            Err(e) => {
                self.recorder.alert(
                    memaging_obs::AlertSeverity::Critical,
                    "serve.remap_failed",
                    self.remaps as f64,
                    0.0,
                    &format!("live remap failed, serving continues on active mapping: {e}"),
                );
                false
            }
        }
    }

    /// The fleet replica id this engine was deployed with (`None` for a
    /// single-replica deployment).
    pub fn replica(&self) -> Option<usize> {
        self.replica
    }

    /// Builds generation `id` from one read-back
    /// ([`CrossbarNetwork::read_back`]): the effective hardware `weights`
    /// and `wear`, the per-tile snapshot read in the same pass.
    fn read_generation(
        &self,
        id: u64,
        weights: Vec<Tensor>,
        wear: &[TileWear],
    ) -> Arc<MappingGeneration> {
        let worst_window_fraction =
            wear.iter().map(|tile| tile.mean_window_fraction).fold(1.0_f64, f64::min);
        // Tile-order sum: the deterministic stress snapshot the fleet
        // router differentiates for per-replica burn rates.
        let total_stress = wear.iter().map(|tile| tile.total_stress).sum();
        Arc::new(MappingGeneration {
            id,
            weights,
            worst_window_fraction,
            total_stress,
            remaps: self.remaps,
        })
    }

    /// Consumes the engine, returning the final hardware state (for
    /// post-run wear assertions and reports).
    pub fn into_network(self) -> CrossbarNetwork {
        self.network
    }

    /// A handle on the wear-attribution ledger (read side:
    /// `GET /wear/attribution` and the shutdown report).
    pub fn ledger(&self) -> Arc<Mutex<WearLedger>> {
        Arc::clone(&self.ledger)
    }

    /// Checkpoints the network's current per-tile stress into the ledger
    /// under `cause`, mirroring the checkpoint to the trace as an
    /// [`memaging_obs::Event::Wear`] so offline attribution replays
    /// bit-for-bit.
    fn charge(&self, cause: WearCause) {
        let stress = self.network.tile_stress();
        self.ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .charge(cause, &stress);
        self.recorder.wear_checkpoint(
            &format!("{}{}", self.prefix, cause.kind()),
            cause.param(),
            &stress,
        );
    }

    /// Feeds the per-tile wear series at boundary `id`: the mean window
    /// fraction in parts-per-billion and the cumulative ledger stress in
    /// nanoseconds, keyed by boundary id so the series is bit-identical at
    /// any worker/client count. Alloc-free unless a series store is
    /// attached.
    fn record_series(&self, id: u64, wear: &[TileWear]) {
        if !self.recorder.has_series() {
            return;
        }
        let stress = self.network.tile_stress();
        for (t, (tile, tile_stress)) in wear.iter().zip(&stress).enumerate() {
            self.recorder.series_record(
                &format!("serve.{}window_fraction_ppb{{tile={t}}}", self.prefix),
                id,
                to_fixed(tile.mean_window_fraction),
            );
            self.recorder.series_record(
                &format!("serve.{}tile_stress_ns{{tile={t}}}", self.prefix),
                id,
                to_fixed(*tile_stress),
            );
        }
    }

    /// Refits the per-tile wear trajectories over the retained series and
    /// publishes the forecast: per-tile velocity/acceleration/
    /// sessions-to-critical gauges, the worst-tile summary into
    /// [`ServeStats`] (surfacing in `GET /serve/stats` and `GET /health`),
    /// and the predictive burn-rate alert ("tile 3 crosses critical in ~k
    /// sessions"), escalate-once per severity.
    fn update_forecast(&mut self, tiles: usize) {
        let Some(store) = self.recorder.series() else {
            return;
        };
        let critical_ppb = to_fixed(self.config.thresholds.critical_window_fraction);
        let mut trends = Vec::with_capacity(tiles);
        for t in 0..tiles {
            let name = format!("serve.{}window_fraction_ppb{{tile={t}}}", self.prefix);
            let Some(snapshot) = store.snapshot(&name) else { continue };
            let Some(fit) = trend(&snapshot.raw_points(), DEFAULT_FORECAST_WINDOW, critical_ppb)
            else {
                continue;
            };
            self.recorder.gauge_labeled(
                &format!("forecast.{}window_fraction", self.prefix),
                "tile",
                t,
                fit.value as f64 / SERIES_SCALE,
            );
            self.recorder.gauge_labeled(
                &format!("forecast.{}velocity_per_session", self.prefix),
                "tile",
                t,
                fit.velocity / SERIES_SCALE,
            );
            self.recorder.gauge_labeled(
                &format!("forecast.{}acceleration_per_session2", self.prefix),
                "tile",
                t,
                fit.acceleration / SERIES_SCALE,
            );
            if let Some(k) = fit.sessions_to_critical {
                self.recorder.gauge_labeled(
                    &format!("forecast.{}sessions_to_critical", self.prefix),
                    "tile",
                    t,
                    k,
                );
            }
            trends.push((t, fit));
        }
        let Some((tile, fit)) = worst_tile(&trends) else {
            return;
        };
        self.recorder.gauge(&format!("forecast.{}worst_tile", self.prefix), tile as f64);
        self.recorder.gauge(
            &format!("forecast.{}worst_velocity_per_session", self.prefix),
            fit.velocity / SERIES_SCALE,
        );
        if let Some(k) = fit.sessions_to_critical {
            self.recorder.gauge(&format!("forecast.{}worst_sessions_to_critical", self.prefix), k);
        }
        self.stats.set_forecast(WorstTileForecast {
            tile,
            window_fraction: fit.value as f64 / SERIES_SCALE,
            velocity_per_session: fit.velocity / SERIES_SCALE,
            sessions_to_critical: fit.sessions_to_critical,
        });
        if let Some(k) = fit.sessions_to_critical {
            if let Some((severity, threshold)) = self.config.thresholds.classify_sessions_left(k) {
                if self.burn_severity.is_none_or(|prev| severity > prev) {
                    self.burn_severity = Some(severity);
                    self.recorder.alert(
                        severity,
                        "forecast.sessions_to_critical",
                        k,
                        threshold,
                        &format!("tile {tile} crosses the critical window in ~{k:.1} sessions"),
                    );
                }
            }
        }
    }
}

fn internal(e: impl std::fmt::Display) -> ServeError {
    ServeError::Internal { reason: e.to_string() }
}
