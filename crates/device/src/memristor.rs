//! The device model an array shares, and the per-device state it acts on:
//! programmable position on the fresh level grid, accumulated aging
//! stress, pulse counting.

use crate::aging::{AgedWindow, ArrheniusAging};
use crate::error::DeviceError;
use crate::quantizer::Quantizer;
use crate::spec::DeviceSpec;
use crate::units::{Ohms, Siemens};

/// Result of one programming operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramOutcome {
    /// Level the caller asked for (on the fresh level grid).
    pub requested_level: usize,
    /// Nearest grid level to the state actually reached after the aged
    /// window stopped further movement.
    pub achieved_level: usize,
    /// Programming pulses applied.
    pub pulses: u64,
}

impl ProgramOutcome {
    /// `true` when the aged window prevented reaching the requested level —
    /// the mismatch of paper Fig. 4 ("Level 7 requested, Level 2 reached").
    pub fn clipped(&self) -> bool {
        self.requested_level != self.achieved_level
    }
}

/// The parameters every device of an array shares: the spec, the aging law
/// of eqs. 6–7 and the fresh-grid quantizer. Devices differ only in their
/// [`Memristor`] state, so an array holds one model and one state per
/// device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    spec: DeviceSpec,
    aging: ArrheniusAging,
    quantizer: Quantizer,
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel::new(DeviceSpec::default(), ArrheniusAging::default())
            .expect("the default spec is valid")
    }
}

impl DeviceModel {
    /// Validates `spec` once and derives its fresh-grid quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpec`] if the spec is invalid.
    pub fn new(spec: DeviceSpec, aging: ArrheniusAging) -> Result<Self, DeviceError> {
        let quantizer = Quantizer::from_spec(&spec)?;
        Ok(DeviceModel { spec, aging, quantizer })
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The aging law.
    pub fn aging(&self) -> &ArrheniusAging {
        &self.aging
    }

    /// The fresh-grid quantizer.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The aged window after `stress` seconds of effective stress.
    pub(crate) fn aged_window(&self, stress: f64) -> AgedWindow {
        self.aging.aged_window(&self.spec, stress)
    }

    /// Number of fresh levels inside window `w`.
    pub(crate) fn usable_levels(&self, w: &AgedWindow) -> usize {
        self.quantizer.levels_within(w.r_min, w.r_max)
    }

    /// `true` once fewer than 2 levels fit in window `w` — a device there
    /// can no longer represent information.
    pub fn is_worn_out(&self, w: &AgedWindow) -> bool {
        self.usable_levels(w) < 2
    }

    /// Window `w` expressed in fresh-grid position units `(lo, hi)`.
    fn position_bounds(&self, w: &AgedWindow) -> (f64, f64) {
        let width = self.spec.level_width();
        let lo = ((w.r_min - self.spec.r_min) / width).max(0.0);
        let hi = ((w.r_max - self.spec.r_min) / width).min((self.spec.levels - 1) as f64);
        (lo, hi.max(lo))
    }
}

/// The state of one memristor cell: 32 bytes of programming history and
/// aging, read and written through the [`DeviceModel`] of its array.
///
/// The state is a *continuous position* on the fresh quantization grid
/// (position `k` ↔ resistance `r_min + k·level_width`). Write targets are
/// grid levels (the programming DAC is quantized), and each programming
/// pulse moves the position one full level; online-tuning *nudges* move it
/// by the sub-level [`DeviceSpec::tuning_step_levels`]. The reachable range
/// contracts as the aged window [`AgedWindow`] shrinks, and every pulse adds
/// power-weighted effective stress (see [`ArrheniusAging`]).
///
/// Each operation evaluates the aged window once per stress value it sees:
/// a pulse or nudge twice (before and after its own stress), programming
/// once on entry and once per pulse.
///
/// # Examples
///
/// ```
/// use memaging_device::{ArrheniusAging, DeviceModel, DeviceSpec, Memristor};
///
/// # fn main() -> Result<(), memaging_device::DeviceError> {
/// let model = DeviceModel::new(DeviceSpec::default(), ArrheniusAging::default())?;
/// let mut m = Memristor::new(&model);
/// let outcome = m.program_to_level(&model, 30)?;
/// assert_eq!(outcome.achieved_level, 30);
/// assert!(m.pulse_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Memristor {
    /// Continuous position on the fresh grid, in level units.
    position: f64,
    /// Stress from this device's own programming pulses.
    own_stress: f64,
    /// Stress absorbed from array-level thermal crosstalk.
    ambient_stress: f64,
    pulse_count: u64,
}

impl Memristor {
    /// A fresh device of `model` at the middle level.
    pub fn new(model: &DeviceModel) -> Self {
        Memristor {
            position: (model.spec.levels / 2) as f64,
            own_stress: 0.0,
            ambient_stress: 0.0,
            pulse_count: 0,
        }
    }

    /// The *stored* continuous position on the fresh grid, in level units —
    /// **not** clamped into the aged window (contrast [`Memristor::level`],
    /// which reads the effective, window-clamped state). Delta-programming
    /// uses this to diff a device against its next target without paying
    /// for an aged-window evaluation per cell.
    pub fn grid_position(&self) -> f64 {
        self.position
    }

    /// Accumulated effective stress, seconds (own pulses plus absorbed
    /// thermal crosstalk).
    pub fn stress(&self) -> f64 {
        self.own_stress + self.ambient_stress
    }

    /// Stress from this device's own programming pulses only.
    pub fn own_stress(&self) -> f64 {
        self.own_stress
    }

    /// Absorbs `delta` seconds of array-level thermal stress (see
    /// [`crate::ArrheniusAging::thermal_coupling`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or non-finite.
    pub fn absorb_ambient_stress(&mut self, delta: f64) {
        assert!(delta.is_finite() && delta >= 0.0, "ambient stress delta must be >= 0");
        self.ambient_stress += delta;
    }

    /// Total programming pulses ever applied.
    pub fn pulse_count(&self) -> u64 {
        self.pulse_count
    }

    /// The current aged resistance window.
    pub fn aged_window(&self, model: &DeviceModel) -> AgedWindow {
        model.aged_window(self.stress())
    }

    /// The stored position clamped into window `w`.
    fn effective_position(&self, model: &DeviceModel, w: &AgedWindow) -> f64 {
        let (lo, hi) = model.position_bounds(w);
        self.position.clamp(lo, hi)
    }

    /// The nearest grid level to the stored position clamped into `w`.
    fn level_in(&self, model: &DeviceModel, w: &AgedWindow) -> usize {
        (self.effective_position(model, w).round() as usize).min(model.spec.levels - 1)
    }

    /// The resistance of the stored position clamped into `w`.
    fn resistance_in(&self, model: &DeviceModel, w: &AgedWindow) -> Ohms {
        let r = model.spec.r_min + self.effective_position(model, w) * model.spec.level_width();
        Ohms::new(r).expect("aged window stays positive")
    }

    /// The nearest grid level to the device's present state.
    pub fn level(&self, model: &DeviceModel) -> usize {
        self.level_in(model, &self.aged_window(model))
    }

    /// The device's present resistance (always inside the aged window).
    pub fn resistance(&self, model: &DeviceModel) -> Ohms {
        self.resistance_in(model, &self.aged_window(model))
    }

    /// The device's present conductance (what the crossbar column sums).
    pub fn conductance(&self, model: &DeviceModel) -> Siemens {
        self.resistance(model).to_siemens()
    }

    /// Number of fresh levels still inside the aged window.
    pub fn usable_levels(&self, model: &DeviceModel) -> usize {
        model.usable_levels(&self.aged_window(model))
    }

    /// `true` once fewer than 2 levels remain reachable — the device can no
    /// longer represent information.
    pub fn is_worn_out(&self, model: &DeviceModel) -> bool {
        model.is_worn_out(&self.aged_window(model))
    }

    /// Applies one pulse moving the position by `step_levels` grid units in
    /// `direction`, saturating against the aged window. Every pulse (even an
    /// absorbed one) stresses the device. `w` is the window at the present
    /// stress; the window at the new stress is returned.
    fn apply_pulse(
        &mut self,
        model: &DeviceModel,
        w: AgedWindow,
        direction: i8,
        step_levels: f64,
    ) -> Result<AgedWindow, DeviceError> {
        if model.is_worn_out(&w) {
            return Err(DeviceError::ProgramOnDeadDevice);
        }
        // Stress accrues at the device's *current* operating point.
        self.own_stress += model.aging.stress_increment(&model.spec, self.resistance_in(model, &w));
        self.pulse_count += 1;
        let w = self.aged_window(model);
        let (lo, hi) = model.position_bounds(&w);
        let current = self.position.clamp(lo, hi);
        self.position = match direction.signum() {
            1 => (current + step_levels).min(hi),
            -1 => (current - step_levels).max(lo),
            _ => current,
        };
        Ok(w)
    }

    /// Applies one full-level programming pulse in `direction` (+1 toward
    /// higher resistance, −1 toward lower). Movement saturates against the
    /// aged window; a saturated pulse still stresses the device — failed
    /// programming attempts are exactly what accelerates late-life aging in
    /// the paper's analysis.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn pulse(&mut self, model: &DeviceModel, direction: i8) -> Result<(), DeviceError> {
        self.apply_pulse(model, self.aged_window(model), direction, 1.0).map(drop)
    }

    /// Applies one sub-level tuning pulse (the constant-amplitude pulse of
    /// paper eq. 5) of [`DeviceSpec::tuning_step_levels`] grid units.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn nudge(&mut self, model: &DeviceModel, direction: i8) -> Result<(), DeviceError> {
        let step = model.spec.tuning_step_levels;
        self.apply_pulse(model, self.aged_window(model), direction, step).map(drop)
    }

    /// Forces the device into the worn-out state (window collapsed), for
    /// stuck-at-fault injection studies: forming failures and endurance
    /// outliers present exactly like a fully-aged cell.
    pub fn force_worn_out(&mut self, model: &DeviceModel) {
        let mut bump = self.own_stress.max(1.0e-9);
        while !self.is_worn_out(model) {
            self.own_stress += bump;
            bump *= 2.0;
        }
    }

    /// Drifts the conductance multiplicatively by `1 + relative_delta`
    /// **without** a programming pulse: models read-disturb relaxation
    /// (paper §I, the recoverable effect of ref. 8), which scales with the
    /// current through the filament, so it is proportional in the
    /// conductance domain. No stress accrues and no pulse is counted — the
    /// whole point of drift is that reprogramming undoes it for free, while
    /// the reprogramming itself is what ages the device.
    ///
    /// Non-finite deltas are ignored; the result is clamped to the fresh
    /// grid.
    pub fn drift_conductance(&mut self, model: &DeviceModel, relative_delta: f64) {
        if !relative_delta.is_finite() {
            return;
        }
        let g = self.conductance(model).value() * (1.0 + relative_delta);
        if g <= 0.0 {
            return;
        }
        let r = 1.0 / g;
        let position = (r - model.spec.r_min) / model.spec.level_width();
        self.position = position.clamp(0.0, (model.spec.levels - 1) as f64);
    }

    /// Programs the device toward `target_level` on the fresh grid with
    /// program-and-verify pulses (one level per pulse, a final partial pulse
    /// to land on target). Movement stops early when the aged window pins
    /// the state; the outcome reports the clipping.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out before any pulse is applied.
    pub fn program_to_level(
        &mut self,
        model: &DeviceModel,
        target_level: usize,
    ) -> Result<ProgramOutcome, DeviceError> {
        let mut w = self.aged_window(model);
        if model.is_worn_out(&w) {
            return Err(DeviceError::ProgramOnDeadDevice);
        }
        let requested = target_level.min(model.spec.levels - 1);
        let target = requested as f64;
        let mut pulses = 0u64;
        loop {
            let here = self.effective_position(model, &w);
            let distance = target - here;
            if distance.abs() < 1e-9 {
                break;
            }
            let dir: i8 = if distance > 0.0 { 1 } else { -1 };
            w = self.apply_pulse(model, w, dir, distance.abs().min(1.0))?;
            pulses += 1;
            // Saturated against the aged window: the pulse made no progress
            // toward the target (the window may even recede under the
            // pulse's own stress — chasing it further would only burn the
            // device, so program-and-verify gives up here).
            let progressed =
                (target - self.effective_position(model, &w)).abs() < distance.abs() - 1e-12;
            if !progressed {
                break;
            }
            if model.is_worn_out(&w) {
                break;
            }
        }
        Ok(ProgramOutcome {
            requested_level: requested,
            achieved_level: self.level_in(model, &w),
            pulses,
        })
    }

    /// Programs the device to the nearest level of a target resistance.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn program(
        &mut self,
        model: &DeviceModel,
        target: Ohms,
    ) -> Result<ProgramOutcome, DeviceError> {
        self.program_to_level(model, model.quantizer.nearest_level(target))
    }

    /// Programs to the nearest level of a target conductance.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn program_conductance(
        &mut self,
        model: &DeviceModel,
        target: Siemens,
    ) -> Result<ProgramOutcome, DeviceError> {
        self.program(model, target.to_ohms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (DeviceModel, Memristor) {
        let model = DeviceModel::default();
        (model, Memristor::new(&model))
    }

    #[test]
    fn starts_fresh_at_mid_level() {
        let (d, m) = fresh();
        assert_eq!(m.level(&d), 16);
        assert_eq!(m.stress(), 0.0);
        assert_eq!(m.pulse_count(), 0);
        assert_eq!(m.usable_levels(&d), 32);
        assert!(!m.is_worn_out(&d));
    }

    #[test]
    fn program_counts_level_steps() {
        let (d, mut m) = fresh();
        let out = m.program_to_level(&d, 20).unwrap();
        assert_eq!(out.achieved_level, 20);
        assert_eq!(out.pulses, 4);
        assert!(!out.clipped());
        assert_eq!(m.pulse_count(), 4);
        let out = m.program_to_level(&d, 20).unwrap();
        assert_eq!(out.pulses, 0, "already at target");
    }

    #[test]
    fn program_resistance_quantizes() {
        let (d, mut m) = fresh();
        let target = Ohms::new(5.5e4).unwrap();
        m.program(&d, target).unwrap();
        let err = (m.resistance(&d).value() - target.value()).abs();
        assert!(err <= d.quantizer().level_width() / 2.0 + 1e-9);
    }

    #[test]
    fn stress_accumulates_per_pulse() {
        let (d, mut m) = fresh();
        m.program_to_level(&d, 31).unwrap();
        let s1 = m.stress();
        assert!(s1 > 0.0);
        m.program_to_level(&d, 0).unwrap();
        assert!(m.stress() > s1);
    }

    #[test]
    fn nudge_moves_a_fraction_of_a_level() {
        let (d, mut m) = fresh();
        let r0 = m.resistance(&d).value();
        m.nudge(&d, 1).unwrap();
        let r1 = m.resistance(&d).value();
        let moved = (r1 - r0) / d.spec().level_width();
        assert!((moved - d.spec().tuning_step_levels).abs() < 1e-9, "nudge moved {moved} levels");
        assert_eq!(m.pulse_count(), 1, "a nudge is a pulse");
        assert!(m.stress() > 0.0, "a nudge stresses the device");
    }

    #[test]
    fn nudges_accumulate_to_levels() {
        let (d, mut m) = fresh();
        let start = m.level(&d);
        let per_level = (1.0 / d.spec().tuning_step_levels).round() as usize;
        for _ in 0..per_level {
            m.nudge(&d, 1).unwrap();
        }
        assert_eq!(m.level(&d), start + 1);
    }

    #[test]
    fn low_resistance_programming_ages_faster() {
        // Cycle two devices the same number of pulses: one toggling at the
        // low-resistance end, one at the high-resistance end.
        let (d, mut low) = fresh();
        let mut high = Memristor::new(&d);
        low.program_to_level(&d, 0).unwrap();
        high.program_to_level(&d, 31).unwrap();
        let (s_low0, s_high0) = (low.stress(), high.stress());
        for _ in 0..200 {
            low.pulse(&d, 1).unwrap();
            low.pulse(&d, -1).unwrap();
            high.pulse(&d, -1).unwrap();
            high.pulse(&d, 1).unwrap();
        }
        let d_low = low.stress() - s_low0;
        let d_high = high.stress() - s_high0;
        assert!(d_low > 3.0 * d_high, "LRS cycling must stress more: {d_low} vs {d_high}");
    }

    #[test]
    fn aged_device_clips_high_targets() {
        let (d, mut m) = fresh();
        // Age heavily by hammering pulses at the low-resistance end.
        m.program_to_level(&d, 0).unwrap();
        for _ in 0..20_000 {
            if m.pulse(&d, 1).is_err() || m.pulse(&d, -1).is_err() {
                break;
            }
        }
        assert!(m.usable_levels(&d) < 32, "expected level loss");
        if !m.is_worn_out(&d) {
            let out = m.program_to_level(&d, 31).unwrap();
            assert!(out.clipped(), "top level must be unreachable after aging");
            assert!(out.achieved_level < 31);
            // The achieved state equals the aged upper bound.
            let w = m.aged_window(&d);
            assert!((m.resistance(&d).value() - w.r_max).abs() < d.spec().level_width());
        }
    }

    #[test]
    fn worn_out_device_rejects_programming() {
        let (d, mut m) = fresh();
        m.program_to_level(&d, 0).unwrap();
        for _ in 0..2_000_000 {
            if m.pulse(&d, 1).is_err() || m.pulse(&d, -1).is_err() {
                break;
            }
        }
        assert!(m.is_worn_out(&d), "device should wear out under sustained LRS cycling");
        assert!(matches!(m.program_to_level(&d, 5), Err(DeviceError::ProgramOnDeadDevice)));
        assert!(matches!(m.pulse(&d, 1), Err(DeviceError::ProgramOnDeadDevice)));
        assert!(matches!(m.nudge(&d, 1), Err(DeviceError::ProgramOnDeadDevice)));
    }

    #[test]
    fn resistance_stays_inside_aged_window() {
        let (d, mut m) = fresh();
        m.program_to_level(&d, 31).unwrap();
        // Age the device; its stored position stays high but the window
        // drops beneath it, pinning reads at the bound.
        for _ in 0..60_000 {
            if m.pulse(&d, 1).is_err() {
                break;
            }
        }
        let w = m.aged_window(&d);
        assert!(m.resistance(&d).value() <= w.r_max + 1e-9);
        assert!(m.resistance(&d).value() >= w.r_min - 1e-9);
    }

    #[test]
    fn pulse_out_of_grid_is_absorbed() {
        let (d, mut m) = fresh();
        m.program_to_level(&d, 31).unwrap();
        let lvl = m.level(&d);
        m.pulse(&d, 1).unwrap();
        assert!(m.level(&d) <= lvl, "cannot exceed top level");
        m.program_to_level(&d, 0).unwrap();
        m.pulse(&d, -1).unwrap();
        assert_eq!(m.level(&d), 0);
    }

    #[test]
    fn zero_direction_pulse_only_stresses() {
        let (d, mut m) = fresh();
        let lvl = m.level(&d);
        m.pulse(&d, 0).unwrap();
        assert_eq!(m.level(&d), lvl);
        assert_eq!(m.pulse_count(), 1);
        assert!(m.stress() > 0.0);
    }

    #[test]
    fn force_worn_out_collapses_the_window() {
        let (d, mut m) = fresh();
        assert!(!m.is_worn_out(&d));
        m.force_worn_out(&d);
        assert!(m.is_worn_out(&d));
        assert!(matches!(m.pulse(&d, 1), Err(DeviceError::ProgramOnDeadDevice)));
        // Idempotent.
        m.force_worn_out(&d);
        assert!(m.is_worn_out(&d));
    }

    #[test]
    fn grid_position_reads_raw_unclamped_state() {
        let (d, mut m) = fresh();
        assert_eq!(m.grid_position(), 16.0);
        m.program_to_level(&d, 20).unwrap();
        assert!((m.grid_position() - 20.0).abs() < 1e-9);
        // Drift moves the raw position without stress; grid_position sees it.
        m.drift_conductance(&d, -0.01);
        assert!(m.grid_position() > 20.0 && m.grid_position() < 21.0);
        // Heavy aging pins reads at the window bound while the raw position
        // stays put.
        m.program_to_level(&d, 31).unwrap();
        for _ in 0..60_000 {
            if m.pulse(&d, 1).is_err() {
                break;
            }
        }
        assert!(m.grid_position() <= 31.0);
        assert!((m.level(&d) as f64) <= m.grid_position() + 0.5, "effective state is clamped");
    }

    #[test]
    fn conductance_is_inverse_resistance() {
        let (d, m) = fresh();
        let g = m.conductance(&d).value();
        let r = m.resistance(&d).value();
        assert!((g * r - 1.0).abs() < 1e-12);
    }
}
