//! A neural network executed on memristor crossbar arrays.

use memaging_dataset::Dataset;
use memaging_device::{AgedWindow, ArrheniusAging, DeviceModel, DeviceSpec};
use memaging_nn::{LayerKind, Network};
use memaging_tensor::Tensor;

use crate::crossbar::{Crossbar, ProgramStats};
use crate::error::CrossbarError;
use crate::incremental::{sweep, SweepParams};
use crate::mapping::WeightMapping;
use crate::tracer::{trace_estimates, BlockMap, TracedEstimate};
use crate::wear_level::RowAssignment;

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
}

/// A network whose mappable weight matrices live on memristor crossbars.
///
/// The digital periphery (activations, pooling, biases, softmax) stays in
/// the software [`Network`]; every dense weight matrix and flattened
/// convolution kernel matrix is held by a dedicated [`Crossbar`]. Inference
/// reads the effective weights back from hardware (the affine inverse of
/// eq. 4 applied to the device conductances) and runs the software forward
/// pass with them — numerically identical to the analog column-current
/// computation plus the standard reference-column offset correction, which
/// is why the crate carries no analog read path of its own.
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
    /// The device model every array shares.
    model: DeviceModel,
    outlier_percentile: f64,
    wear_leveling: bool,
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
        let model = DeviceModel::new(spec, aging)?;
        let mut arrays = Vec::new();
        for w in software.weight_matrices() {
            arrays.push(Crossbar::new(w.dims()[0], w.dims()[1], model)?);
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
            model,
            outlier_percentile: 0.005,
            wear_leveling: false,
        })
    }

    /// Enables the row-swapping wear-leveling baseline of the paper's
    /// ref. \[12\]: every mapping re-assigns logical weight rows to physical
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

    /// The device model shared by all arrays.
    pub fn model(&self) -> &DeviceModel {
        &self.model
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
    /// the `mapping.candidates_tried`, `mapping.pulses` and
    /// `mapping.cells_{programmed,skipped}` counters summarize the run.
    /// With a disabled recorder this is identical to
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
        let report = self.map_weights_inner(
            strategy,
            calibration,
            recorder,
            Crossbar::program_conductances,
        )?;
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
        }
        Ok(report)
    }

    /// The mapping itself; `program` writes each layer's targets (the
    /// crate's tests pass the full-reprogram oracle here).
    fn map_weights_inner(
        &mut self,
        strategy: MappingStrategy,
        calibration: Option<(&Dataset, usize)>,
        recorder: &memaging_obs::Recorder,
        program: fn(&mut Crossbar, &Tensor) -> Result<ProgramStats, CrossbarError>,
    ) -> Result<MapReport, CrossbarError> {
        // Disjoint field borrows: the sweep reads the software network (its
        // weights are the trained ones for the whole loop, so no per-map
        // clone of every matrix), while the arrays and bookkeeping vectors
        // are mutated alongside.
        let CrossbarNetwork {
            software,
            arrays,
            mappings,
            last_windows,
            row_assignments,
            model,
            outlier_percentile,
            wear_leveling,
            ..
        } = &mut *self;
        let software: &Network = software;
        let model: &DeviceModel = model;
        let spec = model.spec();
        let percentile = *outlier_percentile;
        let wear_leveling = *wear_leveling;
        let mut stats = ProgramStats::default();
        let mut windows = Vec::with_capacity(arrays.len());
        let mut candidates_tried = 0usize;
        let mut out_of_range_weights = Vec::with_capacity(arrays.len());
        for idx in 0..arrays.len() {
            let w = software.weight_matrix(idx).expect("one array per mappable layer");
            let window = match strategy {
                MappingStrategy::Fresh => AgedWindow { r_min: spec.r_min, r_max: spec.r_max },
                MappingStrategy::AgingAware => {
                    let (data, batch) = calibration.ok_or(CrossbarError::InvalidMapping {
                        reason: "aging-aware mapping needs calibration data".into(),
                    })?;
                    let (candidates, blocks) = traced_candidates(&arrays[idx]);
                    let params = SweepParams {
                        software,
                        layer: idx,
                        net_layer: software
                            .mappable_layer_index(idx)
                            .expect("one array per mappable layer"),
                        blocks: &blocks,
                        model,
                        data,
                        batch,
                        percentile,
                    };
                    // Hysteresis: a re-selected window moves *every*
                    // conductance target, so re-mapping against a new
                    // window costs a pulse burst across the whole array.
                    // Keep the previous window unless the new one is
                    // meaningfully more accurate.
                    let previous = last_windows[idx].filter(|prev| prev.r_max > spec.r_min);
                    match sweep(&candidates, spec.r_min, previous, &params, recorder) {
                        Ok((sel, prev_acc)) => {
                            candidates_tried += sel.candidates_tried;
                            match (previous, prev_acc) {
                                (Some(prev), Some(acc)) if acc + 0.01 >= sel.accuracy => prev,
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
            stats.merge(program(&mut arrays[idx], &physical)?);
            mappings[idx] = Some(mapping);
            last_windows[idx] = Some(window);
            windows.push(window);
        }
        // Leave the software model consistent with what the hardware now holds.
        self.sync_software_from_hardware()?;
        Ok(MapReport { stats, windows, candidates_tried, out_of_range_weights })
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

    /// Mutable access to one array — for fault injection, custom aging
    /// studies and tests. Device positions are physical: with wear leveling
    /// on, a swapped weight row no longer sits on the device row of the
    /// same index.
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
    /// [`Crossbar::apply_read_disturb`]). Each tile's accrual is wrapped in
    /// a `tile.read_disturb` span carrying `trace` (the serve-tier
    /// maintenance-boundary id), closing the admission → batch → forward →
    /// tile causal chain; with a disabled recorder the only extra cost is
    /// one branch per tile.
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

/// The traced estimates of `array` that seed the candidate windows, plus
/// the per-device block map every candidate is simulated against.
/// Candidate upper bounds come only from *usable* traced devices: a
/// worn-out block center (collapsed window) would drag the common range
/// down to a useless sliver. If every center is worn out, all stay.
fn traced_candidates(array: &Crossbar) -> (Vec<TracedEstimate>, BlockMap) {
    let spec = array.model().spec();
    let estimates = trace_estimates(array);
    let blocks = BlockMap::new(array.rows(), array.cols(), &estimates);
    let usable_floor = 2.0 * spec.level_width();
    let viable: Vec<TracedEstimate> =
        estimates.iter().copied().filter(|e| e.window.r_max - spec.r_min >= usable_floor).collect();
    (if viable.is_empty() { estimates } else { viable }, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range_select::select_range;
    use memaging_dataset::SyntheticSpec;
    use memaging_device::Ohms;
    use memaging_nn::{models, train, NoRegularizer, TrainConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The naive range-selection oracle: the post-mapping accuracy of
    /// candidate window `cand` for layer `p.layer`, holding all other layers
    /// at their trained software weights, re-simulated from scratch on a
    /// cloned network.
    ///
    /// The simulation follows the physical pipeline without programming:
    /// weight → conductance (eq. 4 against `cand`) → nearest fresh
    /// quantization level → clamp into the device's *estimated* aged window
    /// (its 3×3 block center's estimate) → inverse map → evaluate.
    fn simulate_layer_window_accuracy(
        p: &SweepParams<'_>,
        cand: AgedWindow,
    ) -> Result<f64, CrossbarError> {
        let w = p.software.weight_matrix(p.layer).expect("swept layer is mappable");
        let mapping = WeightMapping::from_weights_percentile(w.as_slice(), cand, p.percentile)?;
        let quantizer = p.model.quantizer();
        let mut scratch = p.software.weight_matrices();
        let cols = w.dims()[1];
        for (i, slot) in scratch[p.layer].as_mut_slice().iter_mut().enumerate() {
            let (row, col) = (i / cols, i % cols);
            let g = mapping.weight_to_conductance(w.as_slice()[i] as f64);
            // Fresh-grid quantization in the resistance domain.
            let r = quantizer.quantize(Ohms::new(1.0 / g).expect("g > 0")).value();
            // Clamp into the estimated window of this device's block.
            let r = p.blocks.at(row, col).clamp(r);
            *slot = mapping.conductance_to_weight(1.0 / r) as f32;
        }
        let mut net = p.software.clone();
        net.set_weight_matrices(&scratch)?;
        Ok(memaging_nn::evaluate(&mut net, p.data, p.batch)?)
    }

    /// Checks the sweep `map_weights` runs per layer against the naive
    /// oracle, on `cn`'s current hardware and software weights — exactly
    /// the inputs the next `map_weights` sees: the selection must be the
    /// `RangeSelection` of [`select_range`] over the oracle, and the
    /// hysteresis re-check of the previous window must equal the oracle's
    /// accuracy bit for bit. Returns the oracle's total `candidates_tried`.
    fn assert_engine_matches_oracle(
        cn: &CrossbarNetwork,
        data: &Dataset,
        batch: usize,
    ) -> Result<usize, TestCaseError> {
        let model = cn.model;
        let spec = model.spec();
        let disabled = memaging_obs::Recorder::disabled();
        let mut tried = 0;
        for idx in 0..cn.arrays.len() {
            let (candidates, blocks) = traced_candidates(&cn.arrays[idx]);
            let params = SweepParams {
                software: &cn.software,
                layer: idx,
                net_layer: cn.software.mappable_layer_index(idx).expect("mappable"),
                blocks: &blocks,
                model: &model,
                data,
                batch,
                percentile: cn.outlier_percentile,
            };
            let previous = cn.last_windows[idx].filter(|w| w.r_max > spec.r_min);
            let swept = sweep(&candidates, spec.r_min, previous, &params, &disabled);
            let naive = select_range(&candidates, spec.r_min, &mut |w| {
                simulate_layer_window_accuracy(&params, w)
            });
            prop_assert_eq!(
                swept.as_ref().map(|(sel, _)| sel),
                naive.as_ref(),
                "layer {} sweep diverged from the oracle",
                idx
            );
            tried += naive.map_or(0, |sel| sel.candidates_tried);
            if let (Some(prev), Ok((_, rechecked))) = (previous, &swept) {
                let naive = simulate_layer_window_accuracy(&params, prev).unwrap();
                prop_assert_eq!(
                    rechecked.map(f64::to_bits),
                    Some(naive.to_bits()),
                    "layer {} hysteresis re-check diverged from the oracle",
                    idx
                );
            }
        }
        Ok(tried)
    }

    /// Accelerated aging so a handful of cycles produces visibly distinct
    /// per-device windows (and thus many distinct selection candidates).
    fn fast_aging() -> ArrheniusAging {
        ArrheniusAging { a_f: 1.0e17, a_g: 1.0e16, ..ArrheniusAging::default() }
    }

    /// Deterministically cycles every device a position-dependent number of
    /// times: no RNG, so every rebuild from the same trained model ends up
    /// with bitwise-identical device state.
    fn apply_aging(cn: &mut CrossbarNetwork, base_cycles: usize) {
        for l in 0..cn.arrays().len() {
            let arr = cn.array_mut(l);
            for r in 0..arr.rows() {
                for c in 0..arr.cols() {
                    let cycles = 1 + (base_cycles + r * 7 + c * 13 + l * 29) % (base_cycles + 4);
                    let (m, d) = arr.device_mut(r, c);
                    for _ in 0..cycles {
                        if d.pulse(m, -1).is_err() || d.pulse(m, 1).is_err() {
                            break;
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Across training seeds and irregular aging patterns, three mapping
        /// epochs at 1, 2 and 8 threads: the incremental sweep must
        /// reproduce the naive oracle exactly. The second and third epochs
        /// exercise the hysteresis re-check; the third maps the weights
        /// read back from the second mapping, not the trained ones, as a
        /// live serve remap does. The only test in this crate that sets the
        /// thread count — every other result is thread-count independent.
        #[test]
        fn incremental_engine_matches_naive_oracle_at_every_thread_count(
            seed in 0u64..64,
            cycles in 4usize..24,
        ) {
            let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(3, seed)).unwrap();
            data.normalize();
            let mut net = models::mlp(&[144, 8, 3], &mut StdRng::seed_from_u64(seed)).unwrap();
            let config = TrainConfig { epochs: 6, target_accuracy: 0.95, ..TrainConfig::default() };
            train(&mut net, &data, &config, &NoRegularizer).unwrap();
            for threads in [1usize, 2, 8] {
                memaging_par::set_threads(threads);
                let mut cn = CrossbarNetwork::new(net.clone(), DeviceSpec::default(), fast_aging())
                    .unwrap();
                apply_aging(&mut cn, cycles);
                for epoch in 0..3 {
                    // Later epochs re-check every layer's previous window.
                    prop_assert_eq!(cn.last_windows.iter().all(Option::is_some), epoch > 0);
                    let tried = assert_engine_matches_oracle(&cn, &data, 16)?;
                    prop_assert!(tried > 0, "aging-aware sweep must evaluate candidates");
                    let report =
                        cn.map_weights(MappingStrategy::AgingAware, Some((&data, 16))).unwrap();
                    prop_assert_eq!(report.candidates_tried, tried, "epoch {}", epoch);
                    // Mapping synced the quantized hardware view back into
                    // software. Restore the trained weights once, so only
                    // the third epoch re-maps the read-back weights; age a
                    // little more, re-map.
                    if epoch == 0 {
                        cn.software_mut().set_weight_matrices(&net.weight_matrices()).unwrap();
                    }
                    apply_aging(&mut cn, 3);
                }
            }
            memaging_par::set_threads(0);
        }
    }

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
        let report = cn.map_weights(MappingStrategy::Fresh, None).unwrap();
        let hw_acc = cn.evaluate(&data, 64).unwrap();
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
                        let (m, d) = arr.device_mut(r, c);
                        if d.pulse(m, -1).is_ok() && d.pulse(m, 1).is_ok() {
                            any = true;
                        }
                    }
                }
                if !any {
                    break;
                }
                if arr.device(1, 1).usable_levels(arr.model()) < 20 {
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
        assert!(cn.evaluate(&data, 64).unwrap() > 0.5);
    }

    #[test]
    fn remap_programming_matches_full_reprogram_oracle() {
        let (net, data) = trained_setup(9);
        let mut delta =
            CrossbarNetwork::new(net.clone(), DeviceSpec::default(), ArrheniusAging::default())
                .unwrap();
        let mut full =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        let disabled = memaging_obs::Recorder::disabled();
        for epoch in 0..3 {
            let rd = delta.map_weights(MappingStrategy::AgingAware, Some((&data, 64))).unwrap();
            let rf = full
                .map_weights_inner(
                    MappingStrategy::AgingAware,
                    Some((&data, 64)),
                    &disabled,
                    Crossbar::program_conductances_full,
                )
                .unwrap();
            assert_eq!(rd.windows, rf.windows, "epoch {epoch}");
            let counts = |s: ProgramStats| (s.pulses, s.clipped, s.dead);
            assert_eq!(counts(rd.stats), counts(rf.stats), "epoch {epoch}");
            assert_eq!(rd.stats.programmed + rd.stats.skipped(), rf.stats.programmed);
            let acc = |cn: &mut CrossbarNetwork| cn.evaluate(&data, 64).unwrap().to_bits();
            assert_eq!(acc(&mut delta), acc(&mut full), "epoch {epoch}");
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
