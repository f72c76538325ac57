//! A neural network executed on memristor crossbar arrays.

use memaging_dataset::Dataset;
use memaging_device::{AgedWindow, ArrheniusAging, DeviceSpec, Quantizer};
use memaging_nn::{LayerKind, Network};
use memaging_tensor::Tensor;

use crate::crossbar::{Crossbar, ProgramStats};
use crate::error::CrossbarError;
use crate::incremental::{EvalEngine, SweepParams};
use crate::mapping::WeightMapping;
use crate::range_select::select_range_par;
use crate::tile::BlockMap;
use crate::tracer::{trace_estimates, TracedEstimate};
use crate::wear_level::RowAssignment;
use memaging_obs::names;

/// How trained weights are mapped onto the (possibly aged) arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingStrategy {
    /// Assume every device still has its fresh window — the traditional
    /// mapping of the paper's `T+T` / `ST+T` baselines.
    Fresh,
    /// Trace block-center devices, estimate aged windows, and iteratively
    /// select the common range that maximizes calibration accuracy — the
    /// paper's proposed aging-aware mapping (`ST+AT`).
    AgingAware,
}

/// Outcome of mapping a whole network onto hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReport {
    /// Aggregate programming statistics.
    pub stats: ProgramStats,
    /// The common window used per mappable layer.
    pub windows: Vec<AgedWindow>,
    /// Total candidate windows evaluated (aging-aware only).
    pub candidates_tried: usize,
    /// Per mappable layer: trained weights outside the derived weight range
    /// (clamped by eq. 4 during programming — percentile outliers).
    pub out_of_range_weights: Vec<usize>,
    /// Calibration accuracy after mapping (before tuning), if calibration
    /// data was supplied.
    pub post_map_accuracy: Option<f64>,
}

/// A network whose mappable weight matrices live on memristor crossbars.
///
/// The digital periphery (activations, pooling, biases, softmax) stays in
/// the software [`Network`]; every dense weight matrix and flattened
/// convolution kernel matrix is held by a dedicated [`Crossbar`]. Inference
/// reads the effective weights back from hardware (the affine inverse of
/// eq. 4 applied to the device conductances) and runs the software forward
/// pass with them — numerically identical to the analog column-current
/// computation plus the standard reference-column offset correction.
pub struct CrossbarNetwork {
    software: Network,
    arrays: Vec<Crossbar>,
    mappings: Vec<Option<WeightMapping>>,
    /// Window used at the most recent mapping of each layer (hysteresis
    /// anchor for aging-aware re-mapping).
    last_windows: Vec<Option<AgedWindow>>,
    /// Logical-to-physical row assignment per layer (identity unless wear
    /// leveling is enabled).
    row_assignments: Vec<RowAssignment>,
    kinds: Vec<LayerKind>,
    spec: DeviceSpec,
    aging: ArrheniusAging,
    outlier_percentile: f64,
    wear_leveling: bool,
    /// Persistent incremental candidate-evaluation engine (per-worker
    /// network contexts, prefix caches, quantization memos).
    engine: EvalEngine,
    /// Whether range selection uses the incremental engine (default) or the
    /// naive per-candidate re-simulation.
    incremental_eval: bool,
    /// Whether the incremental engine scores candidates on the fixed-point
    /// kernels instead of the f32 forward pass.
    quantized_eval: bool,
    /// Whether programming diffs targets against device state and writes
    /// only changed cells (default) or reprograms every cell.
    delta_remap: bool,
    /// Delta programming only: drift within this many grid levels of the
    /// target is left in place instead of being chased with pulses.
    remap_tolerance: f64,
}

impl std::fmt::Debug for CrossbarNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossbarNetwork")
            .field("layers", &self.arrays.len())
            .field("devices", &self.arrays.iter().map(|a| a.rows() * a.cols()).sum::<usize>())
            .finish()
    }
}

impl CrossbarNetwork {
    /// Creates fresh arrays sized to every mappable layer of `software`.
    /// Nothing is programmed yet; call [`CrossbarNetwork::map_weights`].
    ///
    /// # Errors
    ///
    /// Returns a wrapped device error for an invalid spec.
    pub fn new(
        software: Network,
        spec: DeviceSpec,
        aging: ArrheniusAging,
    ) -> Result<Self, CrossbarError> {
        let mut arrays = Vec::new();
        for w in software.weight_matrices() {
            arrays.push(Crossbar::new(w.dims()[0], w.dims()[1], spec, aging)?);
        }
        let kinds = software.mappable_kinds();
        let mappings = vec![None; arrays.len()];
        let last_windows = vec![None; arrays.len()];
        let row_assignments = arrays.iter().map(|a| RowAssignment::identity(a.rows())).collect();
        Ok(CrossbarNetwork {
            software,
            arrays,
            mappings,
            last_windows,
            row_assignments,
            kinds,
            spec,
            aging,
            outlier_percentile: 0.005,
            wear_leveling: false,
            engine: EvalEngine::new(),
            incremental_eval: true,
            quantized_eval: false,
            delta_remap: true,
            remap_tolerance: 0.0,
        })
    }

    /// Selects between the incremental candidate-evaluation engine (the
    /// default) and the naive per-candidate re-simulation for aging-aware
    /// range selection. Both produce bit-identical [`MapReport`]s; the
    /// naive path exists as the reference oracle and escape hatch.
    pub fn set_incremental_eval(&mut self, enabled: bool) {
        self.incremental_eval = enabled;
    }

    /// Selects whether the incremental engine scores candidate windows on
    /// the fixed-point kernels (u8 level codes, `i16×i16 → i32 → i64`
    /// accumulation) instead of the f32 forward pass. Selection stays
    /// bit-identical at any thread count either way; quantized accuracies
    /// may differ from the f32 oracle within the quantization error bound,
    /// so the two modes can legitimately pick different windows. Only the
    /// incremental path is affected — the naive reference path and
    /// [`CrossbarNetwork::evaluate`] always use f32, keeping the oracle
    /// intact.
    pub fn set_quantized_eval(&mut self, enabled: bool) {
        self.quantized_eval = enabled;
    }

    /// Whether quantized candidate evaluation is enabled.
    pub fn quantized_eval(&self) -> bool {
        self.quantized_eval
    }

    /// Selects between delta programming (the default: targets are diffed
    /// against device state and only changed cells are written, see
    /// [`Crossbar::program_conductances_delta`]) and full reprogramming of
    /// every cell. With the default zero tolerance both produce bitwise
    /// identical device state; the full path exists as the bit-exactness
    /// oracle and escape hatch — the same naive-vs-incremental pattern as
    /// [`CrossbarNetwork::set_incremental_eval`].
    pub fn set_delta_remap(&mut self, enabled: bool) {
        self.delta_remap = enabled;
    }

    /// Whether delta programming is enabled.
    pub fn delta_remap(&self) -> bool {
        self.delta_remap
    }

    /// Sets the delta-programming tuning tolerance, in grid levels: a cell
    /// whose drifted state is within this distance of its target level is
    /// left in place instead of being chased with stressful pulses. `0.0`
    /// (the default) skips only provable no-ops, keeping delta programming
    /// bit-identical to the full path. Beyond half a level the skipped
    /// state would alias a different level code.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` lies outside `[0, 0.5]` (NaN included).
    pub fn set_remap_tolerance(&mut self, tolerance: f64) {
        assert!(
            (0.0..=0.5).contains(&tolerance),
            "remap tolerance must lie in [0, 0.5] grid levels, got {tolerance}"
        );
        self.remap_tolerance = tolerance;
    }

    /// The delta-programming tuning tolerance, in grid levels.
    pub fn remap_tolerance(&self) -> f64 {
        self.remap_tolerance
    }

    /// Enables the row-swapping wear-leveling baseline of the paper's
    /// ref. [12]: every mapping re-assigns logical weight rows to physical
    /// rows so the most-worn rows host the least-demanding targets.
    pub fn set_wear_leveling(&mut self, enabled: bool) {
        self.wear_leveling = enabled;
    }

    /// Sets the outlier percentile used when deriving per-layer weight
    /// ranges (see [`WeightMapping::from_weights_percentile`]); `0.0`
    /// reproduces the raw min/max mapping of paper eq. 4.
    pub fn set_outlier_percentile(&mut self, percentile: f64) {
        self.outlier_percentile = percentile;
    }

    /// The software model (architecture, biases, digital periphery).
    pub fn software(&self) -> &Network {
        &self.software
    }

    /// Mutable access to the software model.
    pub fn software_mut(&mut self) -> &mut Network {
        &mut self.software
    }

    /// The per-layer crossbar arrays.
    pub fn arrays(&self) -> &[Crossbar] {
        &self.arrays
    }

    /// The device spec shared by all arrays.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The aging model shared by all arrays.
    pub fn aging(&self) -> &ArrheniusAging {
        &self.aging
    }

    /// The structural kind of each mappable layer.
    pub fn layer_kinds(&self) -> &[LayerKind] {
        &self.kinds
    }

    /// Maps the software network's current weights onto the arrays.
    ///
    /// With [`MappingStrategy::AgingAware`], `calibration` must supply a
    /// dataset: candidate common ranges are scored by simulated mapping
    /// accuracy (no physical programming during the search, so the search
    /// itself does not age the devices).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] if aging-aware mapping is
    /// requested without calibration data, plus propagated device/network
    /// errors.
    pub fn map_weights(
        &mut self,
        strategy: MappingStrategy,
        calibration: Option<(&Dataset, usize)>,
    ) -> Result<MapReport, CrossbarError> {
        self.map_weights_with_recorder(strategy, calibration, &memaging_obs::Recorder::disabled())
    }

    /// [`CrossbarNetwork::map_weights`] with observability: the mapping is
    /// wrapped in a `map` span, and per layer the
    /// `mapping.out_of_range_weights` counter plus the
    /// `mapping.window_r_max_ohms{layer}` gauges are recorded; afterwards
    /// `mapping.candidates_tried` and `mapping.post_map_accuracy` summarize
    /// the run. With a disabled recorder this is identical to
    /// [`CrossbarNetwork::map_weights`].
    ///
    /// # Errors
    ///
    /// Same as [`CrossbarNetwork::map_weights`].
    pub fn map_weights_with_recorder(
        &mut self,
        strategy: MappingStrategy,
        calibration: Option<(&Dataset, usize)>,
        recorder: &memaging_obs::Recorder,
    ) -> Result<MapReport, CrossbarError> {
        let span = recorder.span("map");
        let report = self.map_weights_inner(strategy, calibration, recorder)?;
        drop(span);
        if recorder.is_enabled() {
            for (layer, window) in report.windows.iter().enumerate() {
                recorder.gauge_labeled("mapping.window_r_max_ohms", "layer", layer, window.r_max);
            }
            let clamped: usize = report.out_of_range_weights.iter().sum();
            recorder.counter("mapping.out_of_range_weights", clamped as u64);
            recorder.counter("mapping.candidates_tried", report.candidates_tried as u64);
            recorder.counter("mapping.pulses", report.stats.pulses);
            recorder.counter("mapping.cells_programmed", report.stats.programmed as u64);
            recorder.counter("mapping.cells_skipped", report.stats.skipped() as u64);
            if let Some(accuracy) = report.post_map_accuracy {
                recorder.gauge("mapping.post_map_accuracy", accuracy);
            }
        }
        Ok(report)
    }

    fn map_weights_inner(
        &mut self,
        strategy: MappingStrategy,
        calibration: Option<(&Dataset, usize)>,
        recorder: &memaging_obs::Recorder,
    ) -> Result<MapReport, CrossbarError> {
        // Disjoint field borrows: `trained` borrows the software weights
        // for the whole loop (no per-map clone of every matrix), while the
        // engine, arrays and bookkeeping vectors are mutated alongside.
        let CrossbarNetwork {
            software,
            arrays,
            mappings,
            last_windows,
            row_assignments,
            spec,
            outlier_percentile,
            wear_leveling,
            engine,
            incremental_eval,
            quantized_eval,
            delta_remap,
            remap_tolerance,
            ..
        } = &mut *self;
        let software: &Network = software;
        let spec = *spec;
        let percentile = *outlier_percentile;
        let wear_leveling = *wear_leveling;
        let incremental = *incremental_eval;
        let quantized = *quantized_eval;
        let delta_remap = *delta_remap;
        let remap_tolerance = *remap_tolerance;
        // New mapping epoch: worker contexts lazily re-sync the (possibly
        // retrained) software weights at their first lease.
        engine.begin_epoch();
        let trained: Vec<&Tensor> = (0..arrays.len())
            .map(|i| software.weight_matrix(i).expect("one array per mappable layer"))
            .collect();
        let mut stats = ProgramStats::default();
        let mut windows = Vec::with_capacity(arrays.len());
        let mut candidates_tried = 0usize;
        let mut out_of_range_weights = Vec::with_capacity(arrays.len());
        for (idx, &w) in trained.iter().enumerate() {
            let window = match strategy {
                MappingStrategy::Fresh => AgedWindow { r_min: spec.r_min, r_max: spec.r_max },
                MappingStrategy::AgingAware => {
                    let (data, batch) = calibration.ok_or(CrossbarError::InvalidMapping {
                        reason: "aging-aware mapping needs calibration data".into(),
                    })?;
                    let estimates = trace_estimates(&arrays[idx]);
                    // Candidate upper bounds come only from *usable* traced
                    // devices: a worn-out block center (collapsed window)
                    // would drag the common range down to a useless sliver.
                    let usable_floor = 2.0 * spec.level_width();
                    let viable: Vec<TracedEstimate> = estimates
                        .iter()
                        .copied()
                        .filter(|e| e.window.r_max - spec.r_min >= usable_floor)
                        .collect();
                    let candidates: &[TracedEstimate] =
                        if viable.is_empty() { &estimates } else { &viable };
                    let blocks = BlockMap::new(arrays[idx].rows(), arrays[idx].cols(), &estimates);
                    let params = SweepParams {
                        trained: &trained,
                        layer: idx,
                        net_layer: software
                            .mappable_layer_index(idx)
                            .expect("one array per mappable layer"),
                        blocks: &blocks,
                        spec: &spec,
                        data,
                        batch,
                        percentile,
                        quantized,
                    };
                    let selection = if incremental {
                        engine.sweep(software, candidates, spec.r_min, &params, recorder)
                    } else {
                        // Naive reference path: every candidate re-simulates
                        // the full matrix and forward pass on a per-sweep
                        // cloned network.
                        select_range_par(
                            candidates,
                            spec.r_min,
                            |worker| {
                                let scratch: Vec<Tensor> =
                                    trained.iter().map(|&t| t.clone()).collect();
                                (worker, software.clone(), scratch)
                            },
                            |(worker, net, scratch), cand| {
                                let _span = recorder.worker_span(names::MAP_CANDIDATE, *worker);
                                simulate_layer_window_accuracy(
                                    net, scratch, &trained, idx, cand, &blocks, &spec, data, batch,
                                    percentile,
                                )
                            },
                        )
                    };
                    match selection {
                        Ok(sel) => {
                            candidates_tried += sel.candidates_tried;
                            // Hysteresis: a re-selected window moves *every*
                            // conductance target, so re-mapping against a
                            // new window costs a pulse burst across the
                            // whole array. Keep the previous window unless
                            // the new one is meaningfully more accurate.
                            match last_windows[idx] {
                                Some(prev) if prev.r_max > spec.r_min => {
                                    let prev_acc = if incremental {
                                        engine.evaluate_window(software, prev, &params, recorder)?
                                    } else {
                                        let (mut net, mut scratch) = (
                                            software.clone(),
                                            trained
                                                .iter()
                                                .map(|&t| t.clone())
                                                .collect::<Vec<Tensor>>(),
                                        );
                                        simulate_layer_window_accuracy(
                                            &mut net,
                                            &mut scratch,
                                            &trained,
                                            idx,
                                            prev,
                                            &blocks,
                                            &spec,
                                            data,
                                            batch,
                                            percentile,
                                        )?
                                    };
                                    if prev_acc + 0.01 >= sel.accuracy {
                                        prev
                                    } else {
                                        sel.window
                                    }
                                }
                                _ => sel.window,
                            }
                        }
                        // Every traced window has collapsed: the layer is at
                        // end of life. Fall back to the fresh window — the
                        // subsequent tuning failure reports the death.
                        Err(CrossbarError::InvalidMapping { .. }) => {
                            AgedWindow { r_min: spec.r_min, r_max: spec.r_max }
                        }
                        Err(e) => return Err(e),
                    }
                }
            };
            let mapping = WeightMapping::from_weights_percentile(w.as_slice(), window, percentile)?;
            out_of_range_weights.push(mapping.out_of_range_count(w.as_slice()));
            let targets = Tensor::from_fn([w.dims()[0], w.dims()[1]], |i| {
                mapping.weight_to_conductance(w.as_slice()[i] as f64) as f32
            });
            if wear_leveling && crate::wear_level::wear_imbalance(&arrays[idx]) > 1.5 {
                // Swap only under a real wear imbalance: each swap
                // reprograms two whole rows, which is itself aging cost.
                row_assignments[idx] = crate::wear_level::incremental_swap(
                    &arrays[idx],
                    &targets,
                    &row_assignments[idx],
                )?;
            }
            let physical = row_assignments[idx].to_physical(&targets)?;
            stats.merge(if delta_remap {
                arrays[idx].program_conductances_delta(&physical, remap_tolerance)?
            } else {
                arrays[idx].program_conductances(&physical)?
            });
            mappings[idx] = Some(mapping);
            last_windows[idx] = Some(window);
            windows.push(window);
        }
        // Leave the software model consistent with what the hardware now holds.
        self.sync_software_from_hardware()?;
        // Evaluate on the just-synced software state directly:
        // `CrossbarNetwork::evaluate` would redundantly re-read every
        // device's conductance (a full aged-window evaluation per cell)
        // when nothing has touched the hardware since the sync above.
        let post_map_accuracy = match calibration {
            Some((data, batch)) => Some(memaging_nn::evaluate(&mut self.software, data, batch)?),
            None => None,
        };
        Ok(MapReport { stats, windows, candidates_tried, out_of_range_weights, post_map_accuracy })
    }

    /// Reads the effective weight matrices back from the arrays (inverse of
    /// eq. 4 on the device conductances).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] if a layer was never mapped.
    pub fn read_weights(&self) -> Result<Vec<Tensor>, CrossbarError> {
        let mut out = Vec::with_capacity(self.arrays.len());
        for (idx, array) in self.arrays.iter().enumerate() {
            let mapping = self.mappings[idx].ok_or(CrossbarError::InvalidMapping {
                reason: format!("layer {idx} has not been mapped yet"),
            })?;
            let g = self.row_assignments[idx].to_logical(&array.conductances())?;
            out.push(Tensor::from_fn([array.rows(), array.cols()], |i| {
                mapping.conductance_to_weight(g.as_slice()[i] as f64) as f32
            }));
        }
        Ok(out)
    }

    /// Writes the hardware's effective weights into the software model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] if any layer is unmapped.
    pub fn sync_software_from_hardware(&mut self) -> Result<(), CrossbarError> {
        let weights = self.read_weights()?;
        self.software.set_weight_matrices(&weights)?;
        Ok(())
    }

    /// Classification accuracy of the *hardware* state on `data`.
    ///
    /// # Errors
    ///
    /// Propagates mapping and network errors.
    pub fn evaluate(&mut self, data: &Dataset, batch_size: usize) -> Result<f64, CrossbarError> {
        self.sync_software_from_hardware()?;
        Ok(memaging_nn::evaluate(&mut self.software, data, batch_size)?)
    }

    /// The stored mapping of layer `idx`, if mapped.
    pub fn mapping(&self, idx: usize) -> Option<&WeightMapping> {
        self.mappings.get(idx).and_then(|m| m.as_ref())
    }

    /// The logical→physical row assignment of mappable layer `idx`
    /// (identity unless wear leveling has swapped rows).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn row_assignment(&self, idx: usize) -> &RowAssignment {
        &self.row_assignments[idx]
    }

    /// Mutable access to one array — for fault injection, custom aging
    /// studies and tests. Note that mutating devices directly bypasses the
    /// wear-leveling row assignment; use
    /// [`CrossbarNetwork::row_assignment`] to translate weight positions.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn array_mut(&mut self, idx: usize) -> &mut Crossbar {
        &mut self.arrays[idx]
    }

    /// One `(array, row assignment)` pair per mappable layer, with the
    /// arrays borrowed mutably. The pairs are disjoint, so callers may pulse
    /// different layers from different worker threads; the assignment
    /// translates logical weight rows to physical device rows.
    pub(crate) fn pulse_lanes_mut(&mut self) -> Vec<(&mut Crossbar, &RowAssignment)> {
        self.arrays.iter_mut().zip(self.row_assignments.iter()).collect()
    }

    /// Applies one session of read-disturb drift to every array; returns the
    /// total number of drifted devices.
    pub fn apply_drift<R: rand::Rng + ?Sized>(&mut self, probability: f64, rng: &mut R) -> usize {
        self.arrays.iter_mut().map(|a| a.apply_drift(probability, rng)).sum()
    }

    /// Applies one session of multiplicative conductance drift to every
    /// array; returns the total number of drifted devices.
    pub fn apply_conductance_drift<R: rand::Rng + ?Sized>(
        &mut self,
        probability: f64,
        sigma: f64,
        rng: &mut R,
    ) -> usize {
        self.arrays.iter_mut().map(|a| a.apply_conductance_drift(probability, sigma, rng)).sum()
    }

    /// Restores the software model's mappable weights to `weights` (e.g. the
    /// originally trained values before any hardware read-back), so a
    /// subsequent [`CrossbarNetwork::map_weights`] re-deploys them.
    ///
    /// # Errors
    ///
    /// Returns a wrapped network error on shape mismatch.
    pub fn restore_software_weights(&mut self, weights: &[Tensor]) -> Result<(), CrossbarError> {
        self.software.set_weight_matrices(weights)?;
        Ok(())
    }

    /// Redistributes programming Joule heat as ambient aging stress in every
    /// array (see [`Crossbar::equilibrate_thermal`]). Returns the mean
    /// per-device ambient stress added.
    pub fn equilibrate_thermal(&mut self) -> f64 {
        if self.arrays.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.arrays.iter_mut().map(Crossbar::equilibrate_thermal).sum();
        sum / self.arrays.len() as f64
    }

    /// Total programming pulses across all arrays.
    pub fn total_pulses(&self) -> u64 {
        self.arrays.iter().map(Crossbar::total_pulses).sum()
    }

    /// Total worn-out devices across all arrays.
    pub fn worn_out_count(&self) -> usize {
        self.arrays.iter().map(Crossbar::worn_out_count).sum()
    }

    /// Per-layer mean aged upper resistance bound (paper Fig. 11 series).
    pub fn per_layer_mean_r_max(&self) -> Vec<f64> {
        self.arrays.iter().map(Crossbar::mean_aged_r_max).collect()
    }

    /// Per-layer wear summaries, in mapping order — the tile records behind
    /// the monitor's `/wear` heatmap and the lifetime health forecaster.
    pub fn wear_snapshots(&self) -> Vec<crate::TileWear> {
        self.arrays.iter().map(Crossbar::wear_snapshot).collect()
    }

    /// Accumulates read-disturb wear on every array: each inference pass
    /// leaves `stress_per_read` seconds of effective stress on every device
    /// it reads. Applied as one multiply-add per device so the wear state
    /// depends only on the total read count (see
    /// [`Crossbar::apply_read_disturb`]).
    pub fn apply_read_disturb(&mut self, reads: u64, stress_per_read: f64) {
        for array in &mut self.arrays {
            array.apply_read_disturb(reads, stress_per_read);
        }
    }

    /// [`CrossbarNetwork::apply_read_disturb`] with request tracing: each
    /// tile's accrual is wrapped in a `tile.read_disturb` span carrying
    /// `trace` (the serve-tier maintenance-boundary id), closing the
    /// admission → batch → forward → tile causal chain. Wear arithmetic is
    /// identical to the untraced path; with a disabled recorder the only
    /// extra cost is one branch per tile.
    pub fn apply_read_disturb_traced(
        &mut self,
        reads: u64,
        stress_per_read: f64,
        recorder: &memaging_obs::Recorder,
        trace: u64,
    ) {
        for array in &mut self.arrays {
            let span = recorder.trace_span("tile.read_disturb", trace);
            array.apply_read_disturb(reads, stress_per_read);
            drop(span);
        }
    }

    /// Per-tile total accumulated effective stress, in mapping (tile)
    /// order — the absolute checkpoints the wear-attribution ledger diffs
    /// against. Summing this vector in order reproduces the network's
    /// total accrued wear bit-for-bit, which is what makes the ledger's
    /// "per-cause totals sum to total wear" contract exact.
    pub fn tile_stress(&self) -> Vec<f64> {
        self.arrays.iter().map(Crossbar::total_stress).collect()
    }

    /// The mapping window each layer was last programmed against (`None`
    /// for a layer that has never been mapped). The serving tier measures
    /// live wear against these to decide when the active mapping has
    /// drifted enough to warrant a re-map.
    pub fn last_windows(&self) -> &[Option<AgedWindow>] {
        &self.last_windows
    }
}

/// Simulates the post-mapping accuracy of candidate window `cand` for layer
/// `layer_idx`, holding all other layers at their trained software weights.
///
/// The simulation follows the physical pipeline without programming:
/// weight → conductance (eq. 4 against `cand`) → nearest fresh quantization
/// level → clamp into the device's *estimated* aged window (its 3×3 block
/// center's estimate) → inverse map → evaluate.
///
/// `software` and `scratch` are the caller's (per-worker) evaluation state:
/// the simulated matrix is written into `scratch[layer_idx]` in place, while
/// the other scratch entries keep the trained values — no per-candidate
/// matrix allocation, no save/restore of the live network.
#[allow(clippy::too_many_arguments)]
fn simulate_layer_window_accuracy(
    software: &mut Network,
    scratch: &mut [Tensor],
    trained: &[&Tensor],
    layer_idx: usize,
    cand: AgedWindow,
    blocks: &BlockMap,
    spec: &DeviceSpec,
    data: &Dataset,
    batch: usize,
    percentile: f64,
) -> Result<f64, CrossbarError> {
    let mapping =
        WeightMapping::from_weights_percentile(trained[layer_idx].as_slice(), cand, percentile)?;
    let quantizer = Quantizer::from_spec(spec)?;
    let w = trained[layer_idx];
    let cols = w.dims()[1];
    for (i, slot) in scratch[layer_idx].as_mut_slice().iter_mut().enumerate() {
        let (row, col) = (i / cols, i % cols);
        let g = mapping.weight_to_conductance(w.as_slice()[i] as f64);
        // Fresh-grid quantization in the resistance domain.
        let r = quantizer.quantize(memaging_device::Ohms::new(1.0 / g).expect("g > 0")).value();
        // Clamp into the estimated window of this device's block.
        let r = blocks.at(row, col).clamp(r);
        *slot = mapping.conductance_to_weight(1.0 / r) as f32;
    }
    software.set_weight_matrices(scratch)?;
    Ok(memaging_nn::evaluate(software, data, batch)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_dataset::SyntheticSpec;
    use memaging_nn::{models, train, NoRegularizer, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_setup(seed: u64) -> (Network, Dataset) {
        let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(3, seed)).unwrap();
        data.normalize();
        let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(seed)).unwrap();
        let config = TrainConfig { epochs: 10, target_accuracy: 0.97, ..TrainConfig::default() };
        train(&mut net, &data, &config, &NoRegularizer).unwrap();
        (net, data)
    }

    #[test]
    fn arrays_match_layer_shapes() {
        let (net, _) = trained_setup(1);
        let shapes: Vec<(usize, usize)> =
            net.weight_matrices().iter().map(|w| (w.dims()[0], w.dims()[1])).collect();
        let cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        for (a, s) in cn.arrays().iter().zip(shapes) {
            assert_eq!((a.rows(), a.cols()), s);
        }
    }

    #[test]
    fn fresh_mapping_preserves_most_accuracy() {
        let (mut net, data) = trained_setup(2);
        let sw_acc = memaging_nn::evaluate(&mut net, &data, 64).unwrap();
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        let report = cn.map_weights(MappingStrategy::Fresh, Some((&data, 64))).unwrap();
        let hw_acc = report.post_map_accuracy.unwrap();
        assert!(report.stats.pulses > 0);
        assert!(
            hw_acc > sw_acc - 0.15,
            "quantization should not destroy accuracy: sw {sw_acc} hw {hw_acc}"
        );
    }

    #[test]
    fn read_weights_requires_mapping() {
        let (net, _) = trained_setup(3);
        let cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        assert!(cn.read_weights().is_err());
    }

    #[test]
    fn read_weights_are_quantized_weights() {
        let (net, data) = trained_setup(4);
        let trained = net.weight_matrices();
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        cn.map_weights(MappingStrategy::Fresh, Some((&data, 64))).unwrap();
        let read = cn.read_weights().unwrap();
        // Each read weight is within a quantization step of the original.
        for (t, r) in trained.iter().zip(&read) {
            let mapping_range = {
                let s = memaging_tensor::stats::Summary::of(t.as_slice());
                (s.max - s.min) as f32
            };
            for (a, b) in t.as_slice().iter().zip(r.as_slice()) {
                assert!(
                    (a - b).abs() <= mapping_range * 0.51,
                    "read weight {b} too far from trained {a}"
                );
            }
        }
    }

    #[test]
    fn aging_aware_requires_calibration() {
        let (net, _) = trained_setup(5);
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        assert!(cn.map_weights(MappingStrategy::AgingAware, None).is_err());
    }

    #[test]
    fn aging_aware_mapping_on_fresh_arrays_matches_fresh() {
        // With zero aging, the traced windows are the fresh window, so
        // aging-aware selection must pick it.
        let (net, data) = trained_setup(6);
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        let report = cn.map_weights(MappingStrategy::AgingAware, Some((&data, 64))).unwrap();
        for w in &report.windows {
            assert!((w.r_max - DeviceSpec::default().r_max).abs() < 1e-6);
        }
        assert!(report.candidates_tried >= report.windows.len());
    }

    #[test]
    fn aging_aware_mapping_tracks_aged_arrays() {
        let (net, data) = trained_setup(7);
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        // Age every device of layer 0 hard (cycling at low resistance).
        {
            let arr = cn.array_mut(0);
            for _ in 0..3000 {
                let mut any = false;
                for r in 0..arr.rows() {
                    for c in 0..arr.cols() {
                        let d = arr.device_mut(r, c);
                        if d.pulse(-1).is_ok() && d.pulse(1).is_ok() {
                            any = true;
                        }
                    }
                }
                if !any {
                    break;
                }
                if arr.device(1, 1).usable_levels() < 20 {
                    break;
                }
            }
        }
        let report = cn.map_weights(MappingStrategy::AgingAware, Some((&data, 64))).unwrap();
        assert!(
            report.windows[0].r_max < DeviceSpec::default().r_max,
            "aged layer must select a reduced common window, got {:?}",
            report.windows[0]
        );
        // Mapping into the reduced window keeps decent accuracy.
        assert!(report.post_map_accuracy.unwrap() > 0.5);
    }

    #[test]
    fn delta_remap_matches_full_reprogram_oracle() {
        let (net, data) = trained_setup(9);
        let mut delta =
            CrossbarNetwork::new(net.clone(), DeviceSpec::default(), ArrheniusAging::default())
                .unwrap();
        let mut full =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        assert!(delta.delta_remap(), "delta programming is the default");
        full.set_delta_remap(false);
        for epoch in 0..3 {
            let rd = delta.map_weights(MappingStrategy::AgingAware, Some((&data, 64))).unwrap();
            let rf = full.map_weights(MappingStrategy::AgingAware, Some((&data, 64))).unwrap();
            assert_eq!(rd.windows, rf.windows, "epoch {epoch}");
            assert_eq!(rd.stats.pulses, rf.stats.pulses, "epoch {epoch}");
            assert_eq!(rd.post_map_accuracy, rf.post_map_accuracy, "epoch {epoch}");
            if epoch > 0 {
                // Steady state: targets repeat, so the delta path skips the
                // vast majority of cells.
                let total = rd.stats.programmed + rd.stats.skipped();
                assert!(
                    rd.stats.skipped() * 2 > total,
                    "epoch {epoch}: expected majority skipped, got {}",
                    rd.stats
                );
                assert_eq!(rf.stats.skipped(), 0, "full path never skips");
            }
        }
        let wd = delta.read_weights().unwrap();
        let wf = full.read_weights().unwrap();
        for (a, b) in wd.iter().zip(&wf) {
            assert_eq!(a.as_slice(), b.as_slice(), "hardware state diverged");
        }
        assert_eq!(delta.total_pulses(), full.total_pulses());
    }

    #[test]
    fn remap_tolerance_validates() {
        let (net, _) = trained_setup(10);
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        cn.set_remap_tolerance(0.25);
        assert_eq!(cn.remap_tolerance(), 0.25);
        for bad in [-0.1, 0.6, f64::NAN] {
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cn.set_remap_tolerance(bad);
            }))
            .is_err());
        }
    }

    #[test]
    fn evaluate_works_after_mapping() {
        let (net, data) = trained_setup(8);
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        cn.map_weights(MappingStrategy::Fresh, None).unwrap();
        let acc = cn.evaluate(&data, 64).unwrap();
        assert!(acc > 0.5);
        assert_eq!(cn.per_layer_mean_r_max().len(), 2);
    }
}
