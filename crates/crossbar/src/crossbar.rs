//! The memristor crossbar array: device grid, programming, wear telemetry.

use memaging_device::{AgedWindow, ArrheniusAging, DeviceSpec, Memristor, Siemens};
use memaging_tensor::Tensor;

use crate::error::CrossbarError;

/// Largest distance, in grid levels, between a device's raw position and
/// its target level at which the delta path treats the cell as already on
/// target. At this floor the skipped set is exactly the cells full
/// programming would move by zero pulses.
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
    /// Delta path: cells skipped because they already sit on the target
    /// level (within the no-op threshold — programming them would apply
    /// zero pulses).
    pub skipped_unchanged: usize,
    /// Delta path: cells that failed the skip predicate and went through
    /// full program-and-verify (always equal to `programmed` on the delta
    /// path; zero on the full path, which distinguishes the two in merged
    /// stats).
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

    /// Total cells the delta path skipped.
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
/// `I_j = Σᵢ Vᵢ·gᵢⱼ`. Devices are stateful [`Memristor`]s that age with
/// every programming pulse. The network reads the programmed
/// conductances back ([`Crossbar::conductances`]) and computes that sum
/// in software.
///
/// # Examples
///
/// ```
/// use memaging_crossbar::Crossbar;
/// use memaging_device::{ArrheniusAging, DeviceSpec};
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_crossbar::CrossbarError> {
/// let mut xbar = Crossbar::new(2, 2, DeviceSpec::default(), ArrheniusAging::default())?;
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
    devices: Vec<Memristor>,
    thermal_coupling: f64,
    /// Total own-stress already redistributed as ambient heat.
    equilibrated_own_stress: f64,
}

impl Crossbar {
    /// Creates a fresh array of identical devices.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`memaging_device::DeviceError`] for an invalid
    /// spec, or [`CrossbarError::InvalidMapping`] for a zero-sized array.
    pub fn new(
        rows: usize,
        cols: usize,
        spec: DeviceSpec,
        aging: ArrheniusAging,
    ) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("array dimensions {rows}x{cols} must be nonzero"),
            });
        }
        let prototype = Memristor::new(spec, aging)?;
        Ok(Crossbar {
            rows,
            cols,
            devices: vec![prototype; rows * cols],
            thermal_coupling: aging.thermal_coupling,
            equilibrated_own_stress: 0.0,
        })
    }

    /// Redistributes the Joule heat of programming activity since the last
    /// call: every device absorbs `coupling × Δ(total own stress) / N`
    /// ambient stress, modelling the shared-substrate thermal crosstalk of
    /// a dense array (see
    /// [`ArrheniusAging::thermal_coupling`]).
    /// Returns the ambient stress added per device. Call once per
    /// maintenance session (or after any programming burst); a zero
    /// coupling makes this a no-op.
    pub fn equilibrate_thermal(&mut self) -> f64 {
        if self.thermal_coupling <= 0.0 {
            return 0.0;
        }
        let total_own: f64 = self.devices.iter().map(Memristor::own_stress).sum();
        let delta = (total_own - self.equilibrated_own_stress).max(0.0);
        self.equilibrated_own_stress = total_own;
        let per_device = self.thermal_coupling * delta / self.devices.len() as f64;
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

    /// Mutable access to the device at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn device_mut(&mut self, row: usize, col: usize) -> &mut Memristor {
        assert!(row < self.rows && col < self.cols, "device ({row},{col}) out of bounds");
        &mut self.devices[row * self.cols + col]
    }

    /// Iterates over `(row, col, device)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &Memristor)> {
        let cols = self.cols;
        self.devices.iter().enumerate().map(move |(i, d)| (i / cols, i % cols, d))
    }

    /// Programs every device toward the target conductances in a
    /// `[rows, cols]` tensor. Dead devices are skipped (counted in the
    /// stats); clipped targets are counted as well.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if the tensor shape
    /// differs from the array, or a device error for an invalid target.
    pub fn program_conductances(
        &mut self,
        targets: &Tensor,
    ) -> Result<ProgramStats, CrossbarError> {
        if targets.dims() != [self.rows, self.cols] {
            return Err(CrossbarError::DimensionMismatch {
                what: "conductance targets",
                expected: (self.rows, self.cols),
                actual: if targets.rank() == 2 {
                    (targets.dims()[0], targets.dims()[1])
                } else {
                    (targets.len(), 0)
                },
            });
        }
        let mut stats = ProgramStats::default();
        for (i, device) in self.devices.iter_mut().enumerate() {
            if device.is_worn_out() {
                stats.dead += 1;
                continue;
            }
            let g = Siemens::new(targets.as_slice()[i] as f64).map_err(CrossbarError::from)?;
            let outcome = device.program_conductance(g)?;
            stats.pulses += outcome.pulses;
            stats.programmed += 1;
            if outcome.clipped() {
                stats.clipped += 1;
            }
        }
        Ok(stats)
    }

    /// Delta programming: like [`Crossbar::program_conductances`], but a
    /// cell is *skipped* (no pulses, no stress) when its present state
    /// already represents the target level. Reprogramming is the dominant
    /// wear source, and across consecutive mappings most cells land on the
    /// same discrete level — diffing lets the maintenance that is supposed
    /// to extend lifetime stop being a first-order aging cost itself.
    ///
    /// A cell is skipped iff both hold:
    ///
    /// 1. Its raw grid position is within `1e-9` levels of the target
    ///    level code. That is exactly the set of cells full programming
    ///    would move by zero pulses, so the device state after this call is
    ///    **bitwise identical** to [`Crossbar::program_conductances`] — the
    ///    full path stays available as the bit-exactness oracle. Drift of
    ///    any size is chased with pulses.
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
    /// window edge, or previously dead/clipped — take the
    /// unchanged full program-and-verify path and are counted in
    /// [`ProgramStats::rewritten`].
    ///
    /// # Errors
    ///
    /// Same as [`Crossbar::program_conductances`].
    pub fn program_conductances_delta(
        &mut self,
        targets: &Tensor,
    ) -> Result<ProgramStats, CrossbarError> {
        if targets.dims() != [self.rows, self.cols] {
            return Err(CrossbarError::DimensionMismatch {
                what: "conductance targets",
                expected: (self.rows, self.cols),
                actual: if targets.rank() == 2 {
                    (targets.dims()[0], targets.dims()[1])
                } else {
                    (targets.len(), 0)
                },
            });
        }
        let spec = *self.devices[0].spec();
        let aging = *self.devices[0].aging();
        let quantizer = *self.devices[0].quantizer();
        // Per-level stress ceilings: `limits[k]` is the largest accumulated
        // stress at which the aged upper bound still covers level `k`. The
        // `1 - 1e-9` shrink makes cells on the float boundary conservatively
        // take the slow path instead of being skipped.
        let limits: Vec<f64> = (0..spec.levels)
            .map(|k| {
                let degradation = spec.r_max - quantizer.level_resistance(k).value();
                aging.stress_for_degradation(spec.temperature, degradation) * (1.0 - 1e-9)
            })
            .collect();
        let top = (spec.levels - 1) as f64;
        let mut stats = ProgramStats::default();
        for (i, device) in self.devices.iter_mut().enumerate() {
            let g = match Siemens::new(targets.as_slice()[i] as f64) {
                Ok(g) => g,
                Err(e) => {
                    // Match the full path's order: a worn-out device is
                    // counted dead before its target is even validated.
                    if device.is_worn_out() {
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
            if device.is_worn_out() {
                stats.dead += 1;
                continue;
            }
            let outcome = device.program_conductance(g)?;
            stats.pulses += outcome.pulses;
            stats.programmed += 1;
            stats.rewritten += 1;
            if outcome.clipped() {
                stats.clipped += 1;
            }
        }
        Ok(stats)
    }

    /// Reads the present conductance of every device as a `[rows, cols]`
    /// tensor.
    pub fn conductances(&self) -> Tensor {
        Tensor::from_fn([self.rows, self.cols], |i| self.devices[i].conductance().value() as f32)
    }

    /// Applies one session of read-disturb drift: each device independently
    /// drifts ±1 level with probability `probability` (recoverable by the
    /// next reprogramming; see [`memaging_device::Memristor::drift_level`]).
    /// Returns the number of drifted devices.
    pub fn apply_drift<R: rand::Rng + ?Sized>(&mut self, probability: f64, rng: &mut R) -> usize {
        let mut drifted = 0;
        for d in &mut self.devices {
            if rng.gen::<f64>() < probability {
                d.drift_level(if rng.gen::<bool>() { 1 } else { -1 });
                drifted += 1;
            }
        }
        drifted
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
                d.drift_conductance(sigma * z);
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
                d.force_worn_out();
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
        self.devices.iter().filter(|d| d.is_worn_out()).count()
    }

    /// Mean aged upper resistance bound over all devices — the quantity the
    /// paper plots per layer in Fig. 11.
    pub fn mean_aged_r_max(&self) -> f64 {
        let n = self.devices.len() as f64;
        self.devices.iter().map(|d| d.aged_window().r_max).sum::<f64>() / n
    }

    /// A point-in-time wear summary of the whole array — the per-tile record
    /// behind the monitor's `/wear` heatmap and the lifetime health
    /// forecaster.
    pub fn wear_snapshot(&self) -> TileWear {
        let fresh_width = (self.devices[0].spec().r_max - self.devices[0].spec().r_min).max(1e-12);
        let n = self.devices.len() as f64;
        let mut mean_r_max = 0.0;
        let mut mean_r_min = 0.0;
        let mut min_width = f64::INFINITY;
        let mut worn_out = 0;
        for device in &self.devices {
            // One aged-window evaluation per device: the worn-out test is
            // `Memristor::is_worn_out` on the window already in hand.
            let w = device.aged_window();
            mean_r_max += w.r_max;
            mean_r_min += w.r_min;
            min_width = min_width.min(w.width());
            worn_out += usize::from(device.quantizer().levels_within(w.r_min, w.r_max) < 2);
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
            total_pulses: self.total_pulses(),
            total_stress: self.total_stress(),
        }
    }

    /// The aged window of the device at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn aged_window(&self, row: usize, col: usize) -> AgedWindow {
        self.device(row, col).aged_window()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar(rows: usize, cols: usize) -> Crossbar {
        Crossbar::new(rows, cols, DeviceSpec::default(), ArrheniusAging::default()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Crossbar::new(0, 4, DeviceSpec::default(), ArrheniusAging::default()).is_err());
        assert!(Crossbar::new(4, 0, DeviceSpec::default(), ArrheniusAging::default()).is_err());
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
        x.device_mut(0, 0).program_to_level(0).unwrap();
        loop {
            let d = x.device_mut(0, 0);
            if d.pulse(1).is_err() || d.pulse(-1).is_err() {
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
            let d = x.device_mut(i / 12, i % 12);
            for _ in 0..(i % 9) * 60 {
                let _ = d.pulse(1);
                let _ = d.pulse(-1);
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
                let w = d.aged_window();
                let levels = d.quantizer().level_resistances();
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
            let w = d.aged_window();
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
    fn drift_changes_levels_without_stress() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut x = xbar(8, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let drifted = x.apply_drift(1.0, &mut rng);
        assert_eq!(drifted, 64);
        assert_eq!(x.total_pulses(), 0);
        assert!(x.total_stress() == 0.0);
        // Probability 0 drifts nothing.
        assert_eq!(x.apply_drift(0.0, &mut rng), 0);
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

    #[test]
    fn delta_reprogram_skips_unchanged_cells() {
        let mut full = xbar(3, 4);
        let mut delta = xbar(3, 4);
        let tg = Tensor::from_fn([3, 4], |i| {
            let spec = DeviceSpec::default();
            (1.0 / (spec.r_min + (i % spec.levels) as f64 * spec.level_width())) as f32
        });
        // First programming from fresh: the delta path must do the same work.
        let s_full = full.program_conductances(&tg).unwrap();
        let s_delta = delta.program_conductances_delta(&tg).unwrap();
        assert_eq!(s_full.pulses, s_delta.pulses);
        assert_eq!(s_full.programmed, s_delta.programmed + s_delta.skipped_unchanged);
        assert_eq!(s_delta.rewritten, s_delta.programmed);
        // Second pass with identical targets: everything skips, zero pulses,
        // and device state stays bitwise identical to the full path.
        let s2_full = full.program_conductances(&tg).unwrap();
        let s2_delta = delta.program_conductances_delta(&tg).unwrap();
        assert_eq!(s2_full.pulses, 0);
        assert_eq!(s2_delta.pulses, 0);
        assert_eq!(s2_delta.skipped_unchanged, 12);
        assert_eq!(s2_delta.programmed, 0);
        for (r, c, d) in full.iter() {
            assert_eq!(d, delta.device(r, c), "device ({r},{c}) state diverged");
        }
    }

    #[test]
    fn delta_reprogram_is_bitwise_identical_to_full_at_zero_tolerance() {
        let mut full = xbar(4, 4);
        let mut delta = xbar(4, 4);
        let spec = DeviceSpec::default();
        // Several epochs with changing targets, including full-swing cycles
        // that age the devices (aged windows clip targets identically on
        // both paths).
        for epoch in 0..25 {
            let tg = Tensor::from_fn([4, 4], |i| {
                let level = (i * 3 + epoch * 7) % spec.levels;
                (1.0 / (spec.r_min + level as f64 * spec.level_width())) as f32
            });
            let s_full = full.program_conductances(&tg).unwrap();
            let s_delta = delta.program_conductances_delta(&tg).unwrap();
            assert_eq!(s_full.pulses, s_delta.pulses, "epoch {epoch}");
            assert_eq!(s_full.clipped, s_delta.clipped, "epoch {epoch}");
            assert_eq!(s_full.dead, s_delta.dead, "epoch {epoch}");
        }
        for (r, c, d) in full.iter() {
            assert_eq!(d, delta.device(r, c), "device ({r},{c}) state diverged");
        }
        let bits = |x: &Crossbar| -> Vec<u32> {
            x.conductances().as_slice().iter().map(|g| g.to_bits()).collect()
        };
        assert_eq!(bits(&full), bits(&delta));
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
                x.device_mut(r, c).drift_conductance(0.004);
            }
        }
        let stats = x.program_conductances_delta(&tg).unwrap();
        assert_eq!(stats.programmed, 4);
        assert_eq!(stats.skipped(), 0);
        assert!(x.total_pulses() > pulses_before);
        assert!(x.total_stress() > stress_before);
    }

    #[test]
    fn delta_reprogram_counts_dead_cells_like_full() {
        let mut x = xbar(1, 2);
        x.device_mut(0, 0).force_worn_out();
        let stats = x.program_conductances_delta(&Tensor::full([1, 2], 5e-5)).unwrap();
        assert_eq!(stats.dead, 1);
        assert!(stats.programmed + stats.skipped_unchanged == 1);
    }

    #[test]
    fn delta_reprogram_validates_shape() {
        let mut x = xbar(2, 2);
        assert!(matches!(
            x.program_conductances_delta(&Tensor::full([2, 3], 1e-4)),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
    }
}
