//! Arrhenius-based aging of the programmable resistance window
//! (paper eqs. 6–7) driven by accumulated programming stress.
//!
//! Every programming pulse forces a current through the device and damages
//! the filament; the damage rate follows an Arrhenius law in temperature and
//! accumulates with *effective stress time*. The paper's aging functions are
//!
//! ```text
//! R_aged,max = R_fresh,max − f(T, t)        (eq. 6)
//! R_aged,min = R_fresh,min − g(T, t)        (eq. 7)
//! ```
//!
//! with `f`, `g` "Arrhenius-based, parameters extracted from measurement
//! data". We use the standard endurance-degradation form
//! `f(T, t) = A_f · exp(−E_a / k_B T) · t^m` (refs. [17], [18]), and make
//! the accumulated time `t` an *effective* stress that grows faster when
//! pulses dissipate more power:
//!
//! ```text
//! Δt = pulse_width · (P / P_ref)^γ,   P = V² / R at the device's state.
//! ```
//!
//! This is the causal link the paper's skewed-weight training exploits:
//! weights mapped to large resistances draw less current, so each tuning
//! pulse contributes less stress and the window degrades more slowly.
//! The default constants are fitted so that visible level loss begins after
//! a few thousand high-resistance pulses — matching the qualitative Fig. 4
//! trajectory (8 usable levels → 3) at simulation-friendly scale.

use crate::spec::DeviceSpec;
use crate::units::Ohms;

/// Boltzmann constant in eV/K.
pub const BOLTZMANN_EV: f64 = 8.617_333e-5;

/// An aged resistance window `[r_min, r_max]` (raw ohm values; `r_max` may
/// approach `r_min` as the device wears out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgedWindow {
    /// Aged lower resistance bound, ohms.
    pub r_min: f64,
    /// Aged upper resistance bound, ohms.
    pub r_max: f64,
}

impl AgedWindow {
    /// Width of the window, ohms (zero when collapsed).
    pub fn width(&self) -> f64 {
        (self.r_max - self.r_min).max(0.0)
    }

    /// Clamps a target resistance into the window.
    pub fn clamp(&self, r: f64) -> f64 {
        r.clamp(self.r_min, self.r_max)
    }

    /// Whether `r` lies inside the window.
    pub fn contains(&self, r: f64) -> bool {
        (self.r_min..=self.r_max).contains(&r)
    }
}

/// The Arrhenius aging model of eqs. 6–7 with power-weighted stress.
///
/// # Examples
///
/// ```
/// use memaging_device::{ArrheniusAging, DeviceSpec, Ohms};
///
/// # fn main() -> Result<(), memaging_device::DeviceError> {
/// let spec = DeviceSpec::default();
/// let aging = ArrheniusAging::default();
/// // Pulses at low resistance stress the device harder:
/// let lrs = aging.stress_increment(&spec, Ohms::new(1.0e4)?);
/// let hrs = aging.stress_increment(&spec, Ohms::new(1.0e5)?);
/// assert!(lrs > 5.0 * hrs);
/// // The window shrinks monotonically with stress:
/// let w0 = aging.aged_window(&spec, 0.0);
/// let w1 = aging.aged_window(&spec, 1.0);
/// assert!(w1.r_max < w0.r_max);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrheniusAging {
    /// Magnitude constant of `f` (upper-bound degradation), ohms.
    pub a_f: f64,
    /// Magnitude constant of `g` (lower-bound degradation), ohms.
    pub a_g: f64,
    /// Activation energy `E_a`, eV.
    pub activation_energy: f64,
    /// Sub-linear stress exponent `m` in `t^m`.
    pub exponent_m: f64,
    /// Reference pulse power `P_ref`, watts (power of a pulse at the fresh
    /// upper resistance bound for the default spec).
    pub power_ref: f64,
    /// Power-acceleration exponent `γ`.
    pub power_exponent: f64,
    /// Thermal-crosstalk coupling: the fraction of each pulse's effective
    /// stress that is shared, per device, with *every* cell of the same
    /// array (Joule heat spreads through the common substrate and aging is
    /// Arrhenius in temperature). `0.0` keeps aging strictly local;
    /// crossbar-level simulations use values ≥ 1 where shared heating
    /// dominates. Applied by `memaging-crossbar`'s thermal equilibration,
    /// not by the single-device model.
    pub thermal_coupling: f64,
}

impl Default for ArrheniusAging {
    fn default() -> Self {
        ArrheniusAging {
            // Fitted magnitudes (see module docs): visible level loss after
            // ~2e3 HRS pulses, device death after ~1e5 HRS pulses at 350 K.
            a_f: 6.5e14,
            a_g: 6.0e13,
            activation_energy: 0.6,
            exponent_m: 0.7,
            power_ref: 4.0e-5,
            power_exponent: 1.0,
            thermal_coupling: 0.0,
        }
    }
}

impl ArrheniusAging {
    /// The Arrhenius factor `exp(−E_a / k_B T)` at temperature `t_kelvin`.
    pub fn arrhenius_factor(&self, t_kelvin: f64) -> f64 {
        (-self.activation_energy / (BOLTZMANN_EV * t_kelvin)).exp()
    }

    /// Upper-bound degradation `f(T, t)` in ohms (eq. 6).
    pub fn f(&self, t_kelvin: f64, stress: f64) -> f64 {
        self.scales(t_kelvin).degradation(stress).0
    }

    /// Lower-bound degradation `g(T, t)` in ohms (eq. 7).
    pub fn g(&self, t_kelvin: f64, stress: f64) -> f64 {
        self.scales(t_kelvin).degradation(stress).1
    }

    /// The magnitudes of eqs. 6–7 at temperature `t_kelvin`, with the
    /// Arrhenius factor multiplied in.
    pub(crate) fn scales(&self, t_kelvin: f64) -> AgingScales {
        let arrhenius = self.arrhenius_factor(t_kelvin);
        AgingScales {
            f: self.a_f * arrhenius,
            g: self.a_g * arrhenius,
            exponent_m: self.exponent_m,
        }
    }

    /// Effective stress needed for the upper bound to degrade by `delta_r`
    /// ohms at temperature `t_kelvin` (inverse of [`ArrheniusAging::f`]).
    pub fn stress_for_degradation(&self, t_kelvin: f64, delta_r: f64) -> f64 {
        if delta_r <= 0.0 {
            return 0.0;
        }
        (delta_r / self.scales(t_kelvin).f).powf(1.0 / self.exponent_m)
    }

    /// The aged window after `stress` seconds of effective stress, the sum
    /// of [`ArrheniusAging::stress_increment`] over every pulse plus any
    /// absorbed ambient stress.
    pub fn aged_window(&self, spec: &DeviceSpec, stress: f64) -> AgedWindow {
        self.scales(spec.temperature).window(spec, stress)
    }

    /// The effective-stress contribution of one programming pulse applied
    /// while the device sits at resistance `at`.
    pub fn stress_increment(&self, spec: &DeviceSpec, at: Ohms) -> f64 {
        let power = spec.pulse_power(at);
        spec.pulse_width * (power / self.power_ref).powf(self.power_exponent)
    }
}

/// Eqs. 6–7 at one temperature: `f = (a_f·exp(−E_a/k_B T))·t^m` and the
/// same for `g`, with both magnitudes already multiplied out. This is the
/// one copy of the law: [`ArrheniusAging::f`], [`ArrheniusAging::g`] and
/// [`ArrheniusAging::aged_window`] build it per call, and a
/// `DeviceModel` builds it once and keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AgingScales {
    /// `a_f · exp(−E_a / k_B T)`, ohms.
    f: f64,
    /// `a_g · exp(−E_a / k_B T)`, ohms.
    g: f64,
    /// The stress exponent `m`.
    exponent_m: f64,
}

impl AgingScales {
    /// The degradations `(f, g)` after `stress` seconds of effective
    /// stress, ohms: one `powf`, shared by both.
    fn degradation(&self, stress: f64) -> (f64, f64) {
        if stress <= 0.0 {
            return (0.0, 0.0);
        }
        let t_m = stress.powf(self.exponent_m);
        (self.f * t_m, self.g * t_m)
    }

    /// The aged window after `stress` seconds of effective stress.
    pub(crate) fn window(&self, spec: &DeviceSpec, stress: f64) -> AgedWindow {
        let (f, g) = self.degradation(stress);
        // Both bounds decrease (Fig. 4). The lower bound is floored at a
        // fraction of its fresh value — filaments conduct more with damage,
        // but resistance stays physical — and the upper bound never crosses
        // below the lower bound (a crossed window means a dead device and is
        // reported as a collapsed, zero-width window).
        let r_min = (spec.r_min - g).max(spec.r_min * 0.1);
        let r_max = (spec.r_max - f).max(r_min);
        AgedWindow { r_min, r_max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::default()
    }

    #[test]
    fn zero_stress_is_fresh() {
        let a = ArrheniusAging::default();
        let w = a.aged_window(&spec(), 0.0);
        assert_eq!(w.r_min, spec().r_min);
        assert_eq!(w.r_max, spec().r_max);
        assert_eq!(a.f(350.0, 0.0), 0.0);
        assert_eq!(a.g(350.0, 0.0), 0.0);
    }

    #[test]
    fn window_shrinks_monotonically() {
        let a = ArrheniusAging::default();
        let s = spec();
        let mut prev = a.aged_window(&s, 0.0);
        for k in 1..=20 {
            let w = a.aged_window(&s, k as f64 * 5e-3);
            assert!(w.r_max <= prev.r_max, "upper bound must be non-increasing");
            assert!(w.r_min <= prev.r_min, "lower bound must be non-increasing");
            assert!(w.r_max >= w.r_min, "window must stay ordered");
            prev = w;
        }
    }

    #[test]
    fn upper_bound_degrades_faster_than_lower() {
        let a = ArrheniusAging::default();
        let s = spec();
        let w = a.aged_window(&s, 1e-2);
        let f_loss = s.r_max - w.r_max;
        let g_loss = s.r_min - w.r_min;
        assert!(f_loss > 3.0 * g_loss, "f {f_loss} should dominate g {g_loss}");
    }

    #[test]
    fn hotter_devices_age_faster() {
        let a = ArrheniusAging::default();
        assert!(a.f(400.0, 1e-3) > a.f(300.0, 1e-3) * 10.0);
    }

    #[test]
    fn stress_increment_scales_with_power() {
        let a = ArrheniusAging::default();
        let s = spec();
        let lo = a.stress_increment(&s, Ohms::new(1e4).unwrap());
        let hi = a.stress_increment(&s, Ohms::new(1e5).unwrap());
        assert!((lo / hi - 10.0).abs() < 1e-9, "power ratio 10 expected, got {}", lo / hi);
        // At the reference power the increment equals the pulse width.
        assert!((hi - s.pulse_width).abs() < 1e-18);
    }

    #[test]
    fn stress_for_degradation_inverts_f() {
        let a = ArrheniusAging::default();
        let target = 5e3;
        let stress = a.stress_for_degradation(350.0, target);
        let back = a.f(350.0, stress);
        assert!((back - target).abs() / target < 1e-9);
        assert_eq!(a.stress_for_degradation(350.0, 0.0), 0.0);
    }

    #[test]
    fn level_loss_happens_at_simulation_scale() {
        // Design goal: after ~2e3 HRS pulses the window loses >= 1 level.
        let a = ArrheniusAging::default();
        let s = spec();
        let per_pulse = a.stress_increment(&s, s.r_max_ohms());
        let w = a.aged_window(&s, 2_000.0 * per_pulse);
        assert!(
            s.r_max - w.r_max > s.level_width(),
            "expected >= 1 level lost, got {} ohms",
            s.r_max - w.r_max
        );
        // And the device is not instantly dead.
        assert!(w.width() > 0.5 * (s.r_max - s.r_min));
    }

    #[test]
    fn aged_window_helpers() {
        let w = AgedWindow { r_min: 10.0, r_max: 20.0 };
        assert_eq!(w.width(), 10.0);
        assert_eq!(w.clamp(5.0), 10.0);
        assert_eq!(w.clamp(25.0), 20.0);
        assert_eq!(w.clamp(15.0), 15.0);
        assert!(w.contains(10.0) && w.contains(20.0) && !w.contains(21.0));
        let collapsed = AgedWindow { r_min: 10.0, r_max: 10.0 };
        assert_eq!(collapsed.width(), 0.0);
    }

    #[test]
    fn lower_bound_is_floored() {
        let a = ArrheniusAging::default();
        let s = spec();
        let w = a.aged_window(&s, 1e3); // absurd stress
        assert!(w.r_min >= s.r_min * 0.1);
        assert!(w.r_max >= w.r_min);
    }
}
