//! The memristor crossbar array: device grid, programming, wear telemetry.

use memaging_device::{AgedWindow, DeviceError, DeviceModel, Memristor, Siemens};
use memaging_tensor::Tensor;

use crate::error::CrossbarError;

/// Largest distance, in grid levels, between a device's raw position and
/// its target level at which programming treats the cell as already on
/// target. At this floor the skipped set is exactly the cells
/// program-and-verify would move by zero pulses.
const DELTA_NOOP_SLACK: f64 = 1e-9;

/// Aggregate statistics of one programming operation over an array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total programming pulses applied.
    pub pulses: u64,
    /// Devices whose requested level was clipped by their aged window.
    pub clipped: usize,
    /// Devices that could not be programmed because they are worn out.
    pub dead: usize,
    /// Devices actually programmed (live cells that accepted a target).
    pub programmed: usize,
    /// Cells skipped because they already sit on the target level (within
    /// the no-op threshold — programming them would apply zero pulses).
    pub skipped_unchanged: usize,
    /// Cells that failed the skip predicate and went through
    /// program-and-verify. Always equal to `programmed`.
    pub rewritten: usize,
}

impl ProgramStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: ProgramStats) {
        self.pulses += other.pulses;
        self.clipped += other.clipped;
        self.dead += other.dead;
        self.programmed += other.programmed;
        self.skipped_unchanged += other.skipped_unchanged;
        self.rewritten += other.rewritten;
    }

    /// Total cells programming skipped.
    pub fn skipped(&self) -> usize {
        self.skipped_unchanged
    }
}

impl std::fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "programmed={} skipped={} rewritten={} pulses={} clipped={} dead={}",
            self.programmed,
            self.skipped(),
            self.rewritten,
            self.pulses,
            self.clipped,
            self.dead
        )
    }
}

/// A point-in-time wear summary of one crossbar array (one "tile" of the
/// monitor's `/wear` heatmap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileWear {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Devices whose window can no longer hold the required levels.
    pub worn_out: usize,
    /// Mean aged upper resistance bound, ohms (Fig. 11 series).
    pub mean_r_max: f64,
    /// Mean aged lower resistance bound, ohms.
    pub mean_r_min: f64,
    /// Narrowest remaining window across the array, ohms (the weakest
    /// device bounds what the tile can still store).
    pub min_window_width: f64,
    /// Mean remaining window as a fraction of the fresh window, in `[0, 1]`.
    pub mean_window_fraction: f64,
    /// Total programming pulses absorbed by the array.
    pub total_pulses: u64,
    /// Total accumulated effective stress, seconds.
    pub total_stress: f64,
}

impl TileWear {
    /// Number of devices in the tile.
    pub fn devices(&self) -> usize {
        self.rows * self.cols
    }
}

/// A `rows × cols` memristor crossbar (paper Fig. 1).
///
/// Row voltages drive the array; each column output is the current
/// `I_j = Σᵢ Vᵢ·gᵢⱼ`. The array holds one [`DeviceModel`] and one
/// [`Memristor`] state per device; every device ages with its own
/// programming pulses under the shared law. The network reads the
/// programmed conductances back and computes that sum in software.
///
/// Every read of the array's state — the conductances
/// ([`Crossbar::conductances`]), the wear summary
/// ([`Crossbar::wear_snapshot`]) or both at once for the network's
/// read-back — is one pass over the devices that evaluates each aged
/// window once.
///
/// # Examples
///
/// ```
/// use memaging_crossbar::Crossbar;
/// use memaging_device::DeviceModel;
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_crossbar::CrossbarError> {
/// let mut xbar = Crossbar::new(2, 2, DeviceModel::default())?;
/// let targets = Tensor::full([2, 2], 5.0e-5); // 20 kΩ each
/// xbar.program_conductances(&targets)?;
/// let g = xbar.conductances();
/// // Quantization to the 32-level grid costs a few percent.
/// assert!((g.as_slice()[0] - 5.0e-5).abs() / 5.0e-5 < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    model: DeviceModel,
    devices: Vec<Memristor>,
    /// Total own-stress already redistributed as ambient heat.
    equilibrated_own_stress: f64,
}

impl Crossbar {
    /// Creates a fresh array of `model` devices.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for a zero-sized array.
    pub fn new(rows: usize, cols: usize, model: DeviceModel) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("array dimensions {rows}x{cols} must be nonzero"),
            });
        }
        Ok(Crossbar {
            rows,
            cols,
            devices: vec![Memristor::new(&model); rows * cols],
            model,
            equilibrated_own_stress: 0.0,
        })
    }

    /// The device model every cell of the array shares.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Redistributes the Joule heat of programming activity since the last
    /// call: every device absorbs `coupling × Δ(total own stress) / N`
    /// ambient stress, modelling the shared-substrate thermal crosstalk of
    /// a dense array (see
    /// [`memaging_device::ArrheniusAging::thermal_coupling`]).
    /// Returns the ambient stress added per device. Call once per
    /// maintenance session (or after any programming burst); a zero
    /// coupling makes this a no-op.
    pub fn equilibrate_thermal(&mut self) -> f64 {
        let coupling = self.model.aging().thermal_coupling;
        if coupling <= 0.0 {
            return 0.0;
        }
        let total_own: f64 = self.devices.iter().map(Memristor::own_stress).sum();
        let delta = (total_own - self.equilibrated_own_stress).max(0.0);
        self.equilibrated_own_stress = total_own;
        let per_device = coupling * delta / self.devices.len() as f64;
        if per_device > 0.0 {
            for d in &mut self.devices {
                d.absorb_ambient_stress(per_device);
            }
        }
        per_device
    }

    /// Number of rows (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bit lines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The device at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn device(&self, row: usize, col: usize) -> &Memristor {
        assert!(row < self.rows && col < self.cols, "device ({row},{col}) out of bounds");
        &self.devices[row * self.cols + col]
    }

    /// Mutable access to the device at `(row, col)`, with the model its
    /// operations take.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn device_mut(&mut self, row: usize, col: usize) -> (&DeviceModel, &mut Memristor) {
        assert!(row < self.rows && col < self.cols, "device ({row},{col}) out of bounds");
        (&self.model, &mut self.devices[row * self.cols + col])
    }

    /// Iterates over `(row, col, device)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &Memristor)> {
        let cols = self.cols;
        self.devices.iter().enumerate().map(move |(i, d)| (i / cols, i % cols, d))
    }

    /// Checks that `targets` is a `[rows, cols]` tensor.
    fn check_targets(&self, targets: &Tensor) -> Result<(), CrossbarError> {
        if targets.dims() == [self.rows, self.cols] {
            return Ok(());
        }
        Err(CrossbarError::DimensionMismatch {
            what: "conductance targets",
            expected: (self.rows, self.cols),
            actual: if targets.rank() == 2 {
                (targets.dims()[0], targets.dims()[1])
            } else {
                (targets.len(), 0)
            },
        })
    }

    /// Programs every device toward the target conductances in a
    /// `[rows, cols]` tensor, writing only the cells that need it. Dead
    /// devices are skipped (counted in the stats); clipped targets are
    /// counted as well.
    ///
    /// A cell is *skipped* (no pulses, no stress) when its present state
    /// already represents the target level. Reprogramming is the dominant
    /// wear source, and across consecutive mappings most cells land on the
    /// same discrete level — diffing lets the maintenance that is supposed
    /// to extend lifetime stop being a first-order aging cost itself.
    ///
    /// A cell is skipped iff both hold:
    ///
    /// 1. Its raw grid position is within `1e-9` levels of the target
    ///    level code. That is exactly the set of cells program-and-verify
    ///    would move by zero pulses, so the device state after this call is
    ///    **bitwise identical** to reprogramming every cell (the crate's
    ///    tests keep that full reprogram as the oracle). Drift of any size
    ///    is chased with pulses.
    /// 2. Its accumulated stress is at or below a per-level ceiling proving
    ///    the aged window still covers both its position and the target
    ///    (so the raw position *is* the effective position, the target is
    ///    reachable without clipping, and the device is provably alive).
    ///    The ceilings are derived once per call by inverting the aging
    ///    law, so the per-cell test is plain arithmetic — no aged-window
    ///    evaluation and no `conductances()` readback for the diff.
    ///
    /// Cells that fail the predicate — target level changed, window bounds
    /// moved (which shifts every target conductance), drifted, near a
    /// window edge, or previously dead/clipped — go through
    /// program-and-verify and are counted in [`ProgramStats::rewritten`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if the tensor shape
    /// differs from the array, or a device error for an invalid target on
    /// a live device.
    pub fn program_conductances(
        &mut self,
        targets: &Tensor,
    ) -> Result<ProgramStats, CrossbarError> {
        self.check_targets(targets)?;
        let model = &self.model;
        let (spec, quantizer) = (model.spec(), model.quantizer());
        // Per-level stress ceilings: `limits[k]` is the largest accumulated
        // stress at which the aged upper bound still covers level `k`. The
        // `1 - 1e-9` shrink makes cells on the float boundary conservatively
        // take the slow path instead of being skipped.
        let limits: Vec<f64> = (0..spec.levels)
            .map(|k| {
                let degradation = spec.r_max - quantizer.level_resistance(k).value();
                model.aging().stress_for_degradation(spec.temperature, degradation) * (1.0 - 1e-9)
            })
            .collect();
        let top = (spec.levels - 1) as f64;
        let mut stats = ProgramStats::default();
        for (i, device) in self.devices.iter_mut().enumerate() {
            let g = match Siemens::new(targets.as_slice()[i] as f64) {
                Ok(g) => g,
                Err(e) => {
                    // A worn-out device is counted dead before its target is
                    // even validated.
                    if device.is_worn_out(model) {
                        stats.dead += 1;
                        continue;
                    }
                    return Err(CrossbarError::from(e));
                }
            };
            let k = quantizer.nearest_level(g.to_ohms());
            let pos = device.grid_position();
            let dist = (pos - k as f64).abs();
            if dist <= DELTA_NOOP_SLACK {
                // The ceiling must cover the higher of {position, target}
                // (never below level 1, so a skipped device provably keeps
                // >= 2 usable levels, i.e. is alive).
                let needed = (pos.max(k as f64).ceil().max(1.0).min(top)) as usize;
                if device.stress() <= limits[needed] {
                    stats.skipped_unchanged += 1;
                    continue;
                }
            }
            // One aged-window evaluation decides death and starts the
            // program-and-verify loop.
            match device.program_to_level(model, k) {
                Ok(outcome) => {
                    stats.pulses += outcome.pulses;
                    stats.programmed += 1;
                    stats.rewritten += 1;
                    if outcome.clipped() {
                        stats.clipped += 1;
                    }
                }
                Err(DeviceError::ProgramOnDeadDevice) => stats.dead += 1,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(stats)
    }

    /// Reads the present conductance of every device as a `[rows, cols]`
    /// tensor.
    pub fn conductances(&self) -> Tensor {
        let cols = self.cols;
        let mut out = vec![0.0f32; self.rows * cols];
        self.fold_devices(|row, col, g| out[row * cols + col] = g);
        Tensor::from_vec(out, [self.rows, cols]).expect("one value per device")
    }

    /// Applies one session of multiplicative conductance drift: each device
    /// independently drifts by `g ← g·(1 + σ·z)` with `z ~ N(0,1)` with
    /// probability `probability`. Returns the number of drifted devices.
    pub fn apply_conductance_drift<R: rand::Rng + ?Sized>(
        &mut self,
        probability: f64,
        sigma: f64,
        rng: &mut R,
    ) -> usize {
        let mut drifted = 0;
        for d in &mut self.devices {
            if rng.gen::<f64>() < probability {
                let z = memaging_tensor::init::standard_normal(rng) as f64;
                d.drift_conductance(&self.model, sigma * z);
                drifted += 1;
            }
        }
        drifted
    }

    /// Injects stuck-at faults: each device independently collapses with
    /// probability `fraction` (forming failures / endurance outliers).
    /// Returns the number of devices faulted.
    pub fn inject_stuck_faults<R: rand::Rng + ?Sized>(
        &mut self,
        fraction: f64,
        rng: &mut R,
    ) -> usize {
        let mut injected = 0;
        for d in &mut self.devices {
            if rng.gen::<f64>() < fraction {
                d.force_worn_out(&self.model);
                injected += 1;
            }
        }
        injected
    }

    /// Total programming pulses ever applied across the array.
    pub fn total_pulses(&self) -> u64 {
        self.devices.iter().map(|d| d.pulse_count()).sum()
    }

    /// Total accumulated effective stress across the array, seconds.
    pub fn total_stress(&self) -> f64 {
        self.devices.iter().map(|d| d.stress()).sum()
    }

    /// Number of worn-out devices.
    pub fn worn_out_count(&self) -> usize {
        self.devices.iter().filter(|d| d.is_worn_out(&self.model)).count()
    }

    /// Mean aged upper resistance bound over all devices — the quantity the
    /// paper plots per layer in Fig. 11.
    pub fn mean_aged_r_max(&self) -> f64 {
        let n = self.devices.len() as f64;
        self.devices.iter().map(|d| d.aged_window(&self.model).r_max).sum::<f64>() / n
    }

    /// A point-in-time wear summary of the whole array — the per-tile record
    /// behind the monitor's `/wear` heatmap and the lifetime health
    /// forecaster.
    pub fn wear_snapshot(&self) -> TileWear {
        self.fold_devices(|_, _, _| {})
    }

    /// One pass over the devices in storage order: each device's aged
    /// window is evaluated once, and from it the pass folds the
    /// [`TileWear`] summary and hands the device's conductance (as `f32`,
    /// the read-back precision) to `read(row, col, g)`. Every sum runs in
    /// device order, so each field equals its own per-field pass bit for
    /// bit.
    pub(crate) fn fold_devices(&self, mut read: impl FnMut(usize, usize, f32)) -> TileWear {
        let model = &self.model;
        let spec = model.spec();
        let fresh_width = (spec.r_max - spec.r_min).max(1e-12);
        let n = self.devices.len() as f64;
        let (mut mean_r_max, mut mean_r_min, mut min_width) = (0.0, 0.0, f64::INFINITY);
        let (mut worn_out, mut total_pulses, mut total_stress) = (0, 0u64, 0.0);
        for (row, devices) in self.devices.chunks_exact(self.cols).enumerate() {
            for (col, device) in devices.iter().enumerate() {
                let w = device.aged_window(model);
                mean_r_max += w.r_max;
                mean_r_min += w.r_min;
                min_width = min_width.min(w.width());
                worn_out += usize::from(model.is_worn_out(&w));
                total_pulses += device.pulse_count();
                total_stress += device.stress();
                read(row, col, device.conductance_in(model, &w).value() as f32);
            }
        }
        mean_r_max /= n;
        mean_r_min /= n;
        TileWear {
            rows: self.rows,
            cols: self.cols,
            worn_out,
            mean_r_max,
            mean_r_min,
            min_window_width: min_width,
            mean_window_fraction: ((mean_r_max - mean_r_min) / fresh_width).clamp(0.0, 1.0),
            total_pulses,
            total_stress,
        }
    }

    /// The aged window of the device at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn aged_window(&self, row: usize, col: usize) -> AgedWindow {
        self.device(row, col).aged_window(&self.model)
    }

    /// Accumulates read-disturb wear from `reads` inference passes: every
    /// device absorbs `reads · stress_per_read` seconds of effective stress
    /// in one multiply-add, so the result depends only on the *total* read
    /// count — never on how the reads were batched or which worker served
    /// them. This is what keeps the serving tier bit-identical across
    /// thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `stress_per_read` is negative or non-finite.
    pub fn apply_read_disturb(&mut self, reads: u64, stress_per_read: f64) {
        assert!(
            stress_per_read.is_finite() && stress_per_read >= 0.0,
            "stress_per_read must be finite and >= 0, got {stress_per_read}"
        );
        if reads == 0 || stress_per_read == 0.0 {
            return;
        }
        let delta = reads as f64 * stress_per_read;
        for device in &mut self.devices {
            device.absorb_ambient_stress(delta);
        }
    }
}

/// The separate-pass read-back oracles: one aged-window evaluation per
/// device per read, through the aging law itself
/// ([`memaging_device::ArrheniusAging::aged_window`], not the model's
/// precomputed magnitudes) and the full level count
/// ([`memaging_device::Quantizer::levels_within`]).
/// [`Crossbar::fold_devices`] must reproduce both bit for bit.
#[cfg(test)]
impl Crossbar {
    fn oracle_window(&self, device: &Memristor) -> AgedWindow {
        self.model.aging().aged_window(self.model.spec(), device.stress())
    }

    pub(crate) fn wear_snapshot_separate(&self) -> TileWear {
        let spec = self.model.spec();
        let fresh_width = (spec.r_max - spec.r_min).max(1e-12);
        let n = self.devices.len() as f64;
        let mut mean_r_max = 0.0;
        let mut mean_r_min = 0.0;
        let mut min_width = f64::INFINITY;
        let mut worn_out = 0;
        for device in &self.devices {
            let w = self.oracle_window(device);
            mean_r_max += w.r_max;
            mean_r_min += w.r_min;
            min_width = min_width.min(w.width());
            worn_out += usize::from(self.model.quantizer().levels_within(w.r_min, w.r_max) < 2);
        }
        mean_r_max /= n;
        mean_r_min /= n;
        TileWear {
            rows: self.rows,
            cols: self.cols,
            worn_out,
            mean_r_max,
            mean_r_min,
            min_window_width: min_width,
            mean_window_fraction: ((mean_r_max - mean_r_min) / fresh_width).clamp(0.0, 1.0),
            total_pulses: self.devices.iter().map(|d| d.pulse_count()).sum(),
            total_stress: self.devices.iter().map(|d| d.stress()).sum(),
        }
    }

    pub(crate) fn conductances_separate(&self) -> Tensor {
        Tensor::from_fn([self.rows, self.cols], |i| {
            let device = &self.devices[i];
            device.conductance_in(&self.model, &self.oracle_window(device)).value() as f32
        })
    }
}

/// The full-reprogram oracle: program-and-verify on every live cell, with
/// no skip predicate. [`Crossbar::program_conductances`] must leave the
/// device state bit-identical to it, with the same pulses, clipped and
/// dead counts; its cells split into `programmed` and `skipped_unchanged`
/// where the oracle's are all `programmed`.
#[cfg(test)]
impl Crossbar {
    pub(crate) fn program_conductances_full(
        &mut self,
        targets: &Tensor,
    ) -> Result<ProgramStats, CrossbarError> {
        self.check_targets(targets)?;
        let model = &self.model;
        let mut stats = ProgramStats::default();
        for (i, device) in self.devices.iter_mut().enumerate() {
            if device.is_worn_out(model) {
                stats.dead += 1;
                continue;
            }
            let g = Siemens::new(targets.as_slice()[i] as f64).map_err(CrossbarError::from)?;
            let outcome = device.program_conductance(model, g)?;
            stats.pulses += outcome.pulses;
            stats.programmed += 1;
            if outcome.clipped() {
                stats.clipped += 1;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_device::{ArrheniusAging, DeviceSpec};
    use proptest::prelude::*;

    fn xbar(rows: usize, cols: usize) -> Crossbar {
        Crossbar::new(rows, cols, DeviceModel::default()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Crossbar::new(0, 4, DeviceModel::default()).is_err());
        assert!(Crossbar::new(4, 0, DeviceModel::default()).is_err());
        let x = xbar(3, 5);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 5);
    }

    #[test]
    fn wear_snapshot_of_a_fresh_array() {
        let x = xbar(3, 4);
        let spec = DeviceSpec::default();
        let snap = x.wear_snapshot();
        assert_eq!((snap.rows, snap.cols, snap.devices()), (3, 4, 12));
        assert_eq!(snap.worn_out, 0);
        assert_eq!(snap.total_pulses, 0);
        assert_eq!(snap.total_stress, 0.0);
        assert!((snap.mean_r_max - spec.r_max).abs() < 1e-9);
        assert!((snap.mean_r_min - spec.r_min).abs() < 1e-9);
        assert!((snap.mean_window_fraction - 1.0).abs() < 1e-12);
        assert!((snap.min_window_width - (spec.r_max - spec.r_min)).abs() < 1e-9);
    }

    #[test]
    fn wear_snapshot_tracks_programming_stress() {
        let mut x = xbar(2, 2);
        let spec = DeviceSpec::default();
        // Repeated full-swing reprogramming ages the window.
        for k in 0..40 {
            let r = if k % 2 == 0 { spec.r_min } else { spec.r_max };
            let targets = Tensor::full([2, 2], (1.0 / r) as f32);
            x.program_conductances(&targets).unwrap();
        }
        let snap = x.wear_snapshot();
        assert!(snap.total_pulses > 0);
        assert!(snap.total_stress > 0.0);
        assert!(snap.mean_r_max < spec.r_max, "upper bound must have aged");
        assert!(snap.mean_window_fraction < 1.0);
        assert!(snap.min_window_width <= snap.mean_r_max - snap.mean_r_min + 1e-9);
    }

    #[test]
    fn program_and_read_round_trip() {
        let mut x = xbar(2, 3);
        // Targets on the fresh level grid so quantization is exact.
        let spec = DeviceSpec::default();
        let width = spec.level_width();
        let targets = Tensor::from_fn([2, 3], |i| {
            (1.0 / (spec.r_min + (i % spec.levels) as f64 * width)) as f32
        });
        x.program_conductances(&targets).unwrap();
        let read = x.conductances();
        for (t, r) in targets.as_slice().iter().zip(read.as_slice()) {
            assert!((t - r).abs() / t < 1e-5, "target {t} vs read {r}");
        }
    }

    #[test]
    fn program_rejects_wrong_shape() {
        let mut x = xbar(2, 2);
        assert!(matches!(
            x.program_conductances(&Tensor::full([2, 3], 1e-4)),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn programming_ages_the_array() {
        let mut x = xbar(2, 2);
        assert_eq!(x.total_pulses(), 0);
        let lo = Tensor::full([2, 2], 1e-4); // r_min: far from mid start
        x.program_conductances(&lo).unwrap();
        assert!(x.total_pulses() > 0);
        assert!(x.total_stress() > 0.0);
        assert_eq!(x.worn_out_count(), 0);
    }

    #[test]
    fn repeated_cycling_degrades_mean_r_max() {
        let mut x = xbar(2, 2);
        let fresh = x.mean_aged_r_max();
        let lo = Tensor::full([2, 2], 9.9e-5);
        let hi = Tensor::full([2, 2], 1.01e-5);
        for _ in 0..30 {
            x.program_conductances(&lo).unwrap();
            x.program_conductances(&hi).unwrap();
        }
        assert!(x.mean_aged_r_max() < fresh, "cycling must lower the mean aged bound");
    }

    #[test]
    fn dead_devices_are_skipped_and_counted() {
        let mut x = xbar(1, 2);
        // Wear out device (0,0) by hammering pulses at low resistance.
        let (m, d) = x.device_mut(0, 0);
        d.program_to_level(m, 0).unwrap();
        loop {
            let (m, d) = x.device_mut(0, 0);
            if d.pulse(m, 1).is_err() || d.pulse(m, -1).is_err() {
                break;
            }
        }
        assert_eq!(x.worn_out_count(), 1);
        let stats = x.program_conductances(&Tensor::full([1, 2], 5e-5)).unwrap();
        assert_eq!(stats.dead, 1);
    }

    #[test]
    fn iter_covers_all_positions() {
        let x = xbar(2, 3);
        let positions: Vec<(usize, usize)> = x.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(positions.len(), 6);
        assert!(positions.contains(&(1, 2)));
        assert!(positions.contains(&(0, 0)));
    }

    #[test]
    fn stuck_fault_injection_wears_devices() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut x = xbar(10, 10);
        let mut rng = StdRng::seed_from_u64(9);
        let injected = x.inject_stuck_faults(0.3, &mut rng);
        assert!(injected > 10 && injected < 60, "injected {injected}");
        assert_eq!(x.worn_out_count(), injected);
        // Faulted devices reject programming, healthy ones accept it.
        let stats = x.program_conductances(&Tensor::full([10, 10], 5e-5)).unwrap();
        assert_eq!(stats.dead, injected);
    }

    #[test]
    fn fused_wear_snapshot_matches_a_naive_recount() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = DeviceSpec::default();
        let aging = ArrheniusAging::default();
        let mut x = xbar(12, 12);
        let mut rng = StdRng::seed_from_u64(17);
        let injected = x.inject_stuck_faults(0.1, &mut rng);
        assert!(injected > 0);
        // Uneven stress: each cell swings over a different share of the
        // window and takes a different number of extra pulses, then every
        // cell takes the same read disturb, sized so that only the
        // hardest-cycled cells go over the edge.
        let swing = Tensor::from_fn([12, 12], |i| (1.0 / (spec.r_min + i as f64 * 600.0)) as f32);
        let rest = Tensor::full([12, 12], (1.0 / spec.r_min) as f32);
        for _ in 0..12 {
            x.program_conductances(&swing).unwrap();
            x.program_conductances(&rest).unwrap();
        }
        for i in 0..144 {
            let (m, d) = x.device_mut(i / 12, i % 12);
            for _ in 0..(i % 9) * 60 {
                let _ = d.pulse(m, 1);
                let _ = d.pulse(m, -1);
            }
        }
        let span = spec.r_max - spec.r_min;
        x.apply_read_disturb(1, aging.stress_for_degradation(spec.temperature, 0.94 * span));

        let snap = x.wear_snapshot();
        assert_eq!(snap.worn_out, x.worn_out_count());
        // Worn out: fewer than 2 fresh-grid levels inside the aged window,
        // counted level by level.
        let worn = x
            .iter()
            .filter(|(_, _, d)| {
                let w = d.aged_window(x.model());
                let levels = x.model().quantizer().level_resistances();
                let inside = levels
                    .iter()
                    .filter(|r| r.value() >= w.r_min - 1e-9 && r.value() <= w.r_max + 1e-9);
                inside.count() < 2
            })
            .count();
        assert_eq!(snap.worn_out, worn);
        assert!(worn > injected, "wear must kill some cells beyond the stuck ones");
        assert!(worn < 144, "some cells must survive");

        let n = 144.0;
        let (mut r_max, mut r_min, mut min_width) = (0.0, 0.0, f64::INFINITY);
        for (_, _, d) in x.iter() {
            let w = d.aged_window(x.model());
            r_max += w.r_max;
            r_min += w.r_min;
            min_width = min_width.min(w.width());
        }
        r_max /= n;
        r_min /= n;
        let fraction = ((r_max - r_min) / span.max(1e-12)).clamp(0.0, 1.0);
        let stress: f64 = x.iter().map(|(_, _, d)| d.stress()).sum();
        for (field, got, want) in [
            ("mean_r_max", snap.mean_r_max, r_max),
            ("mean_r_min", snap.mean_r_min, r_min),
            ("min_window_width", snap.min_window_width, min_width),
            ("mean_window_fraction", snap.mean_window_fraction, fraction),
            ("total_stress", snap.total_stress, stress),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{field}: {got} vs {want}");
        }
        assert_eq!(snap.total_pulses, x.iter().map(|(_, _, d)| d.pulse_count()).sum::<u64>());
    }

    #[test]
    fn stats_merge() {
        let mut a = ProgramStats {
            pulses: 5,
            clipped: 1,
            dead: 0,
            programmed: 4,
            skipped_unchanged: 8,
            rewritten: 4,
        };
        a.merge(ProgramStats {
            pulses: 3,
            clipped: 0,
            dead: 2,
            programmed: 2,
            skipped_unchanged: 5,
            rewritten: 0,
        });
        assert_eq!(
            a,
            ProgramStats {
                pulses: 8,
                clipped: 1,
                dead: 2,
                programmed: 6,
                skipped_unchanged: 13,
                rewritten: 4,
            }
        );
        assert_eq!(a.skipped(), 13);
        let rendered = a.to_string();
        assert!(rendered.contains("programmed=6"));
        assert!(rendered.contains("skipped=13"));
        assert!(rendered.contains("rewritten=4"));
    }

    /// Targets on the fresh level grid: cell `i` gets level `level(i)`.
    fn level_targets(rows: usize, cols: usize, level: impl Fn(usize) -> usize) -> Tensor {
        let spec = DeviceSpec::default();
        Tensor::from_fn([rows, cols], |i| {
            (1.0 / (spec.r_min + level(i) as f64 * spec.level_width())) as f32
        })
    }

    fn conductance_bits(x: &Crossbar) -> Vec<u32> {
        x.conductances().as_slice().iter().map(|g| g.to_bits()).collect()
    }

    #[test]
    fn delta_reprogram_skips_unchanged_cells() {
        let mut full = xbar(3, 4);
        let mut one = xbar(3, 4);
        let tg = level_targets(3, 4, |i| i % DeviceSpec::default().levels);
        // First programming from fresh: the same work as the oracle.
        let s_full = full.program_conductances_full(&tg).unwrap();
        let s_one = one.program_conductances(&tg).unwrap();
        assert_eq!(s_full.pulses, s_one.pulses);
        assert_eq!(s_full.programmed, s_one.programmed + s_one.skipped_unchanged);
        assert_eq!(s_one.rewritten, s_one.programmed);
        // Second pass with identical targets: everything skips, zero pulses,
        // and device state stays bitwise identical to the oracle.
        let s2_full = full.program_conductances_full(&tg).unwrap();
        let s2_one = one.program_conductances(&tg).unwrap();
        assert_eq!(s2_full.pulses, 0);
        assert_eq!(s2_one.pulses, 0);
        assert_eq!(s2_one.skipped_unchanged, 12);
        assert_eq!(s2_one.programmed, 0);
        for (r, c, d) in full.iter() {
            assert_eq!(d, one.device(r, c), "device ({r},{c}) state diverged");
        }
    }

    #[test]
    fn delta_reprogram_is_bitwise_identical_to_full_at_zero_tolerance() {
        let mut full = xbar(4, 4);
        let mut one = xbar(4, 4);
        let levels = DeviceSpec::default().levels;
        // Several epochs with changing targets, including full-swing cycles
        // that age the devices (aged windows clip targets identically on
        // both paths).
        for epoch in 0..25 {
            let tg = level_targets(4, 4, |i| (i * 3 + epoch * 7) % levels);
            let s_full = full.program_conductances_full(&tg).unwrap();
            let s_one = one.program_conductances(&tg).unwrap();
            assert_eq!(s_full.pulses, s_one.pulses, "epoch {epoch}");
            assert_eq!(s_full.clipped, s_one.clipped, "epoch {epoch}");
            assert_eq!(s_full.dead, s_one.dead, "epoch {epoch}");
        }
        for (r, c, d) in full.iter() {
            assert_eq!(d, one.device(r, c), "device ({r},{c}) state diverged");
        }
        assert_eq!(conductance_bits(&full), conductance_bits(&one));
    }

    #[test]
    fn delta_reprogram_chases_drift_with_pulses() {
        let mut x = xbar(2, 2);
        let tg = Tensor::full([2, 2], (1.0 / 5.5e4) as f32);
        x.program_conductances(&tg).unwrap();
        let pulses_before = x.total_pulses();
        let stress_before = x.total_stress();
        // Stress-free drift of under half a level on every device.
        for r in 0..2 {
            for c in 0..2 {
                let (m, d) = x.device_mut(r, c);
                d.drift_conductance(m, 0.004);
            }
        }
        let stats = x.program_conductances(&tg).unwrap();
        assert_eq!(stats.programmed, 4);
        assert_eq!(stats.skipped(), 0);
        assert!(x.total_pulses() > pulses_before);
        assert!(x.total_stress() > stress_before);
    }

    #[test]
    fn delta_reprogram_counts_dead_cells_like_full() {
        let mut one = xbar(1, 2);
        let (m, d) = one.device_mut(0, 0);
        d.force_worn_out(m);
        let mut full = one.clone();
        let tg = Tensor::full([1, 2], 5e-5);
        let stats = one.program_conductances(&tg).unwrap();
        assert_eq!(stats.dead, 1);
        assert_eq!(stats.programmed + stats.skipped_unchanged, 1);
        assert_eq!(stats.pulses, full.program_conductances_full(&tg).unwrap().pulses);
        // A worn-out device is counted dead before its target is validated;
        // an invalid target on a live device is an error, as in the oracle.
        let invalid = Tensor::from_vec(vec![-1.0, 5e-5], [1, 2]).unwrap();
        assert_eq!(one.program_conductances(&invalid).unwrap().dead, 1);
        assert_eq!(full.program_conductances_full(&invalid).unwrap().dead, 1);
        let invalid = Tensor::from_vec(vec![5e-5, f32::NAN], [1, 2]).unwrap();
        assert!(one.program_conductances(&invalid).is_err());
        assert!(full.program_conductances_full(&invalid).is_err());
    }

    #[test]
    fn delta_reprogram_validates_shape() {
        // A rank-1 target tensor reports its length as the mismatch.
        let mut x = xbar(2, 2);
        let err = x.program_conductances(&Tensor::full([4], 1e-4)).unwrap_err();
        assert!(matches!(err, CrossbarError::DimensionMismatch { actual: (4, 0), .. }), "{err}");
        assert_eq!(x.total_pulses(), 0);
    }

    /// What a serve run does to an array between two remaps; every epoch
    /// applies one of these and then reprograms.
    #[derive(Debug, Clone, Copy)]
    enum Transition {
        /// The same targets resent: the steady-state remap.
        Resend,
        /// Read-disturb wear from the interval's inference passes.
        ReadDisturb,
        /// Programming heat redistributed as ambient stress.
        Thermal,
        /// Stress-free multiplicative conductance drift.
        Drift,
        /// Pulse cycling moves the aged windows, and the common mapping
        /// window shrinks with them, which moves every target.
        WindowMove,
    }

    /// Accelerated aging with thermal crosstalk: within a few rounds the
    /// growing read disturb first clips the top levels, then wears cells
    /// out.
    fn fast_model() -> DeviceModel {
        let aging = ArrheniusAging {
            a_f: 2.0e16,
            a_g: 2.0e15,
            thermal_coupling: 1.0,
            ..ArrheniusAging::default()
        };
        DeviceModel::new(DeviceSpec::default(), aging).unwrap()
    }

    /// A fixed weight pattern mapped by eq. 4 into a common window whose
    /// upper bound sits `shrink` of the fresh span below `r_max`.
    fn mapped_targets(rows: usize, cols: usize, seed: u64, shrink: f64) -> Tensor {
        let spec = DeviceSpec::default();
        let r_max = spec.r_max - shrink * (spec.r_max - spec.r_min);
        let window = AgedWindow { r_min: spec.r_min, r_max };
        let weights: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64 * 37 + seed * 11) % 97) as f32 / 97.0 - 0.5)
            .collect();
        let mapping = crate::WeightMapping::from_weights(&weights, window).unwrap();
        Tensor::from_fn([rows, cols], |i| mapping.weight_to_conductance(weights[i] as f64) as f32)
    }

    /// Cycles every device a position-dependent number of times, with no
    /// RNG, so both arrays see the same pulses.
    fn cycle(x: &mut Crossbar, phase: usize) {
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let cycles = 1 + (phase + r * 7 + c * 13) % 4;
                let (m, d) = x.device_mut(r, c);
                for _ in 0..cycles {
                    if d.pulse(m, -1).is_err() || d.pulse(m, 1).is_err() {
                        break;
                    }
                }
            }
        }
    }

    /// Programs `targets` into `one` by the one path and into `full` by
    /// the oracle, and checks that they agree exactly.
    fn program_both(
        one: &mut Crossbar,
        full: &mut Crossbar,
        targets: &Tensor,
        at: &str,
    ) -> Result<ProgramStats, TestCaseError> {
        let s = one.program_conductances(targets).unwrap();
        let f = full.program_conductances_full(targets).unwrap();
        prop_assert_eq!(conductance_bits(one), conductance_bits(full), "{}", at);
        prop_assert_eq!(one.total_pulses(), full.total_pulses(), "{}", at);
        prop_assert_eq!((s.pulses, s.clipped, s.dead), (f.pulses, f.clipped, f.dead), "{}", at);
        prop_assert_eq!(s.programmed + s.skipped(), f.programmed, "{}", at);
        prop_assert_eq!(s.rewritten, s.programmed, "{}", at);
        prop_assert_eq!(f.skipped(), 0, "{}", at);
        Ok(s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The serve loop's remap cycle on twin arrays, one programmed by
        /// [`Crossbar::program_conductances`] and one by the full-reprogram
        /// oracle. After every epoch the conductance bits, pulse totals and
        /// pulses / clipped / dead counts agree exactly; the only
        /// difference is which cells count as skipped.
        #[test]
        fn delta_matches_full_reprogram_across_serve_transitions(
            seed in 0u64..64,
            rounds in 3usize..6,
            disturb in 0.1f64..0.3,
            sigma in 0.001f64..0.02,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            use Transition::*;
            let (rows, cols) = (13, 11);
            let spec = DeviceSpec::default();
            let aging = *fast_model().aging();
            let mut one = Crossbar::new(rows, cols, fast_model()).unwrap();
            let mut full = one.clone();
            let mut targets = mapped_targets(rows, cols, seed, 0.0);
            let (mut skipped, mut rewritten) = (0, 0);
            program_both(&mut one, &mut full, &targets, "deploy")?;
            for round in 0..rounds {
                for step in [Resend, ReadDisturb, Thermal, Drift, WindowMove] {
                    match step {
                        Resend => {}
                        ReadDisturb => {
                            let reads = 32 * (round as u64 + 1);
                            let stress = aging.stress_for_degradation(
                                spec.temperature,
                                disturb * (round + 1) as f64 * (spec.r_max - spec.r_min),
                            ) / reads as f64;
                            one.apply_read_disturb(reads, stress);
                            full.apply_read_disturb(reads, stress);
                        }
                        Thermal => {
                            let added = one.equilibrate_thermal();
                            prop_assert_eq!(added.to_bits(), full.equilibrate_thermal().to_bits());
                        }
                        Drift => {
                            let rng_seed = seed * 31 + round as u64;
                            let mut rng = StdRng::seed_from_u64(rng_seed);
                            let a = one.apply_conductance_drift(0.3, sigma, &mut rng);
                            let mut rng = StdRng::seed_from_u64(rng_seed);
                            prop_assert_eq!(a, full.apply_conductance_drift(0.3, sigma, &mut rng));
                        }
                        WindowMove => {
                            cycle(&mut one, rounds + round);
                            cycle(&mut full, rounds + round);
                            let shrink = 0.05 * (round + 1) as f64;
                            targets = mapped_targets(rows, cols, seed, shrink);
                        }
                    }
                    let at = format!("round {round} {step:?}");
                    let s = program_both(&mut one, &mut full, &targets, &at)?;
                    skipped += s.skipped();
                    rewritten += s.rewritten;
                    if round == 0 && matches!(step, Resend) {
                        prop_assert!(s.skipped() > 0, "the steady-state remap must skip cells");
                    }
                }
            }
            prop_assert!(skipped > 0 && rewritten > 0, "both branches must run");
            for (r, c, d) in full.iter() {
                prop_assert_eq!(d, one.device(r, c), "device ({}, {}) diverged", r, c);
            }
        }
    }

    /// The fused fold against the separate-pass oracles: every
    /// [`TileWear`] field and every conductance, bit for bit, and each
    /// conductance handed to the right `(row, col)`.
    fn assert_fold_matches(x: &Crossbar, at: &str) -> Result<TileWear, TestCaseError> {
        let (got, want) = (x.wear_snapshot(), x.wear_snapshot_separate());
        let floats = |t: &TileWear| {
            [t.mean_r_max, t.mean_r_min, t.min_window_width, t.mean_window_fraction, t.total_stress]
                .map(f64::to_bits)
        };
        prop_assert_eq!(floats(&got), floats(&want), "{}", at);
        prop_assert_eq!(
            (got.rows, got.cols, got.worn_out, got.total_pulses),
            (want.rows, want.cols, want.worn_out, want.total_pulses),
            "{}",
            at
        );
        let oracle = x.conductances_separate();
        prop_assert_eq!(conductance_bits(x), bits(&oracle), "{}", at);
        let mut seen = vec![0u32; x.rows() * x.cols()];
        let folded = x.fold_devices(|r, c, g| seen[r * x.cols() + c] = g.to_bits());
        prop_assert_eq!(seen, bits(&oracle), "{}", at);
        prop_assert_eq!(floats(&folded), floats(&want), "{}", at);
        Ok(got)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|g| g.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// One read-back pass equals the separate snapshot and conductance
        /// passes through a serve-like life: deployment, read disturb,
        /// thermal coupling, programming clipped by the aged windows, stuck
        /// faults from `force_worn_out`, and drift, until some cells die.
        #[test]
        fn fused_fold_matches_separate_passes(
            seed in 0u64..64,
            rows in 2usize..14,
            cols in 2usize..14,
            disturb in 0.1f64..0.3,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let spec = DeviceSpec::default();
            let aging = *fast_model().aging();
            let mut x = Crossbar::new(rows, cols, fast_model()).unwrap();
            assert_fold_matches(&x, "fresh")?;
            let (mut clipped, mut partly_worn) = (0, false);
            for round in 0..5 {
                let targets = mapped_targets(rows, cols, seed + round as u64, 0.0);
                clipped += x.program_conductances(&targets).unwrap().clipped;
                assert_fold_matches(&x, &format!("round {round} program"))?;
                let stress = aging.stress_for_degradation(
                    spec.temperature,
                    disturb * (round + 1) as f64 * (spec.r_max - spec.r_min),
                );
                x.apply_read_disturb(7, stress / 7.0);
                let wear = assert_fold_matches(&x, &format!("round {round} read disturb"))?;
                partly_worn |= wear.worn_out > 0 && wear.worn_out < rows * cols;
                cycle(&mut x, round);
                x.equilibrate_thermal();
                assert_fold_matches(&x, &format!("round {round} thermal"))?;
                let (r, c) = ((seed as usize + round) % rows, (seed as usize * 3 + round) % cols);
                let (m, d) = x.device_mut(r, c);
                d.force_worn_out(m);
                let mut rng = StdRng::seed_from_u64(seed * 31 + round as u64);
                x.apply_conductance_drift(0.3, 0.01, &mut rng);
                assert_fold_matches(&x, &format!("round {round} faults and drift"))?;
            }
            prop_assert!(clipped > 0, "programming must clip");
            prop_assert!(partly_worn, "some snapshot must hold live and worn-out cells");
        }
    }
}
