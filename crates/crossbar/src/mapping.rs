//! Weight ↔ conductance mapping (paper eq. 4).
//!
//! A trained weight `w ∈ [w_min, w_max]` is implemented as a conductance
//!
//! ```text
//! g = (g_max − g_min) / (w_max − w_min) · (w − w_min) + g_min     (eq. 4)
//! ```
//!
//! The conductance range is *common to every device in a column* so column
//! currents sum linearly. The fresh mapping uses the spec's full window; the
//! aging-aware mapping (paper §IV-B) substitutes a selected aged window —
//! the same equation with `g_min = 1/R_selected,max`.

use memaging_device::{AgedWindow, DeviceSpec};

use crate::error::CrossbarError;

/// An affine weight→conductance map over a common resistance window.
///
/// # Examples
///
/// ```
/// use memaging_crossbar::WeightMapping;
/// use memaging_device::{AgedWindow, DeviceSpec};
///
/// # fn main() -> Result<(), memaging_crossbar::CrossbarError> {
/// let spec = DeviceSpec::default();
/// let window = AgedWindow { r_min: spec.r_min, r_max: spec.r_max };
/// let map = WeightMapping::new(-1.0, 1.0, window)?;
/// // w_min maps to g_min (largest resistance), w_max to g_max.
/// assert!((map.weight_to_conductance(-1.0) - 1.0 / spec.r_max).abs() < 1e-12);
/// assert!((map.weight_to_conductance(1.0) - 1.0 / spec.r_min).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightMapping {
    w_min: f64,
    w_max: f64,
    g_min: f64,
    g_max: f64,
}

/// A derived `[w_min, w_max]` weight range, decoupled from the resistance
/// window it will be mapped onto.
///
/// The range derivation (percentile clipping, constant-slice padding) looks
/// only at the weights — it is *window-independent* — while a range-selection
/// sweep builds one [`WeightMapping`] per candidate window over the **same**
/// weights. Deriving the range once and instantiating per-candidate mappings
/// with [`WeightMapping::from_range`] skips the per-candidate sort without
/// changing a single bit of the resulting mapping:
/// `WeightMapping::from_weights_percentile(w, win, p)` is defined as
/// `WeightMapping::from_range(WeightRange::from_weights_percentile(w, p)?, win)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightRange {
    lo: f64,
    hi: f64,
}

impl WeightRange {
    /// Derives the raw min/max range of `weights`, padding a constant slice
    /// by ±0.5 — the range behind [`WeightMapping::from_weights`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for an empty slice.
    pub fn from_weights(weights: &[f32]) -> Result<Self, CrossbarError> {
        if weights.is_empty() {
            return Err(CrossbarError::InvalidMapping {
                reason: "cannot derive weight range from empty slice".into(),
            });
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &w in weights {
            let w = w as f64;
            lo = lo.min(w);
            hi = hi.max(w);
        }
        if hi <= lo {
            lo -= 0.5;
            hi += 0.5;
        }
        Ok(WeightRange { lo, hi })
    }

    /// Derives the percentile-clipped range of `weights` — the range behind
    /// [`WeightMapping::from_weights_percentile`], falling back to
    /// [`WeightRange::from_weights`] when the clipped range collapses.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for an empty slice or a
    /// percentile outside `[0, 0.5)`.
    pub fn from_weights_percentile(
        weights: &[f32],
        percentile: f64,
    ) -> Result<Self, CrossbarError> {
        if weights.is_empty() {
            return Err(CrossbarError::InvalidMapping {
                reason: "cannot derive weight range from empty slice".into(),
            });
        }
        if !(0.0..0.5).contains(&percentile) {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("percentile {percentile} not in [0, 0.5)"),
            });
        }
        // Order statistics via O(n) selection: the k-th element under a
        // total order is a property of the multiset, so this is
        // bit-identical to fully sorting — it runs on every candidate
        // sweep of every remap, so the n·log n sort was measurable.
        let mut buf: Vec<f32> = weights.to_vec();
        let len = buf.len();
        let ki = (((len as f64) * percentile).floor() as usize).min(len - 1);
        let lo = *buf.select_nth_unstable_by(ki, f32::total_cmp).1 as f64;
        let hi = *buf.select_nth_unstable_by(len - 1 - ki, f32::total_cmp).1 as f64;
        if hi <= lo {
            return WeightRange::from_weights(weights);
        }
        Ok(WeightRange { lo, hi })
    }

    /// Lower end of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper end of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl WeightMapping {
    /// Creates a mapping from a weight range onto the conductance range
    /// induced by a (possibly aged) common resistance window.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] if the weight range or the
    /// window is degenerate.
    pub fn new(w_min: f64, w_max: f64, window: AgedWindow) -> Result<Self, CrossbarError> {
        if !(w_min.is_finite() && w_max.is_finite()) || w_max <= w_min {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("weight range [{w_min}, {w_max}] is degenerate"),
            });
        }
        if window.r_min <= 0.0 || window.r_max <= window.r_min {
            return Err(CrossbarError::InvalidMapping {
                reason: format!(
                    "resistance window [{}, {}] is degenerate",
                    window.r_min, window.r_max
                ),
            });
        }
        Ok(WeightMapping { w_min, w_max, g_min: 1.0 / window.r_max, g_max: 1.0 / window.r_min })
    }

    /// Derives the weight range from the data (min/max of `weights`) and
    /// builds the mapping over `window`. A constant weight slice gets a
    /// symmetric ±0.5 pad so the map stays well-defined.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for an empty slice or a
    /// degenerate window.
    pub fn from_weights(weights: &[f32], window: AgedWindow) -> Result<Self, CrossbarError> {
        WeightMapping::from_range(WeightRange::from_weights(weights)?, window)
    }

    /// Builds the mapping for a pre-derived weight range over `window` —
    /// identical to re-deriving the range from the same weights, but lets a
    /// candidate sweep derive the (window-independent) range once.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for a degenerate window.
    pub fn from_range(range: WeightRange, window: AgedWindow) -> Result<Self, CrossbarError> {
        WeightMapping::new(range.lo, range.hi, window)
    }

    /// Derives the weight range from percentiles of the data, clamping the
    /// outlier tails: `percentile` (e.g. `0.005`) of the mass on each side
    /// maps to the range ends. Without clamping, a single straggler weight
    /// anchors `w_min` far below the distribution bulk, which pushes the
    /// bulk's mapped conductances toward mid-range — defeating the
    /// skewed-training goal of parking the bulk at large resistance.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for an empty slice, a
    /// percentile outside `[0, 0.5)`, or a degenerate window.
    pub fn from_weights_percentile(
        weights: &[f32],
        window: AgedWindow,
        percentile: f64,
    ) -> Result<Self, CrossbarError> {
        WeightMapping::from_range(
            WeightRange::from_weights_percentile(weights, percentile)?,
            window,
        )
    }

    /// The fresh-window mapping of a device spec for a given weight range.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for degenerate inputs.
    pub fn fresh(w_min: f64, w_max: f64, spec: &DeviceSpec) -> Result<Self, CrossbarError> {
        WeightMapping::new(w_min, w_max, AgedWindow { r_min: spec.r_min, r_max: spec.r_max })
    }

    /// Lower end of the weight range.
    pub fn w_min(&self) -> f64 {
        self.w_min
    }

    /// Upper end of the weight range.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Smallest mapped conductance (`1 / r_max`).
    pub fn g_min(&self) -> f64 {
        self.g_min
    }

    /// Largest mapped conductance (`1 / r_min`).
    pub fn g_max(&self) -> f64 {
        self.g_max
    }

    /// The slope `(g_max − g_min)/(w_max − w_min)` of eq. 4.
    pub fn slope(&self) -> f64 {
        (self.g_max - self.g_min) / (self.w_max - self.w_min)
    }

    /// Maps a weight to its target conductance (eq. 4). Out-of-range weights
    /// are clamped to the range ends first.
    pub fn weight_to_conductance(&self, w: f64) -> f64 {
        let w = w.clamp(self.w_min, self.w_max);
        self.slope() * (w - self.w_min) + self.g_min
    }

    /// Inverts eq. 4: the effective weight a conductance implements. This is
    /// what the peripheral circuitry's affine read-out computes.
    pub fn conductance_to_weight(&self, g: f64) -> f64 {
        (g - self.g_min) / self.slope() + self.w_min
    }

    /// Number of weights falling outside `[w_min, w_max]` — the ones
    /// [`WeightMapping::weight_to_conductance`] will clamp (percentile
    /// outliers, or drifted read-backs). Feeds the
    /// `mapping.out_of_range_weights` observability counter.
    pub fn out_of_range_count(&self, weights: &[f32]) -> usize {
        weights.iter().filter(|&&w| (w as f64) < self.w_min || (w as f64) > self.w_max).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> AgedWindow {
        AgedWindow { r_min: 1e4, r_max: 1e5 }
    }

    #[test]
    fn construction_validates() {
        assert!(WeightMapping::new(1.0, 1.0, window()).is_err());
        assert!(WeightMapping::new(1.0, 0.0, window()).is_err());
        assert!(WeightMapping::new(f64::NAN, 1.0, window()).is_err());
        assert!(WeightMapping::new(0.0, 1.0, AgedWindow { r_min: 1e4, r_max: 1e4 }).is_err());
        assert!(WeightMapping::new(0.0, 1.0, AgedWindow { r_min: 0.0, r_max: 1e4 }).is_err());
        assert!(WeightMapping::new(-1.0, 1.0, window()).is_ok());
    }

    #[test]
    fn endpoints_map_to_range_ends() {
        let m = WeightMapping::new(-2.0, 3.0, window()).unwrap();
        assert!((m.weight_to_conductance(-2.0) - 1e-5).abs() < 1e-15);
        assert!((m.weight_to_conductance(3.0) - 1e-4).abs() < 1e-15);
    }

    #[test]
    fn mapping_is_affine_and_monotone() {
        let m = WeightMapping::new(0.0, 1.0, window()).unwrap();
        let g25 = m.weight_to_conductance(0.25);
        let g50 = m.weight_to_conductance(0.5);
        let g75 = m.weight_to_conductance(0.75);
        assert!(g25 < g50 && g50 < g75);
        // Affine: equal weight steps give equal conductance steps.
        assert!(((g50 - g25) - (g75 - g50)).abs() < 1e-15);
    }

    #[test]
    fn out_of_range_weights_clamp() {
        let m = WeightMapping::new(0.0, 1.0, window()).unwrap();
        assert_eq!(m.weight_to_conductance(-5.0), m.weight_to_conductance(0.0));
        assert_eq!(m.weight_to_conductance(9.0), m.weight_to_conductance(1.0));
    }

    #[test]
    fn inverse_round_trips() {
        let m = WeightMapping::new(-1.5, 2.5, window()).unwrap();
        for k in 0..20 {
            let w = -1.5 + 4.0 * k as f64 / 19.0;
            let g = m.weight_to_conductance(w);
            let back = m.conductance_to_weight(g);
            assert!((back - w).abs() < 1e-9, "round trip failed at {w}: {back}");
        }
    }

    #[test]
    fn from_weights_uses_data_range() {
        let m = WeightMapping::from_weights(&[0.25, -0.75, 0.5], window()).unwrap();
        assert_eq!(m.w_min(), -0.75);
        assert_eq!(m.w_max(), 0.5);
        assert!(WeightMapping::from_weights(&[], window()).is_err());
    }

    #[test]
    fn constant_weights_get_padded_range() {
        let m = WeightMapping::from_weights(&[0.3, 0.3], window()).unwrap();
        assert!(m.w_min() < 0.3 && m.w_max() > 0.3);
    }

    #[test]
    fn percentile_range_ignores_stragglers() {
        // 1 straggler at -10 among 999 weights in [0, 1].
        let mut ws: Vec<f32> = (0..999).map(|i| i as f32 / 999.0).collect();
        ws.push(-10.0);
        let clipped = WeightMapping::from_weights_percentile(&ws, window(), 0.005).unwrap();
        assert!(clipped.w_min() > -1.0, "straggler must be clamped: {}", clipped.w_min());
        let raw = WeightMapping::from_weights(&ws, window()).unwrap();
        assert_eq!(raw.w_min(), -10.0);
        // Percentile 0 equals the raw min/max.
        let p0 = WeightMapping::from_weights_percentile(&ws, window(), 0.0).unwrap();
        assert_eq!(p0.w_min(), raw.w_min());
        // Invalid percentiles rejected.
        assert!(WeightMapping::from_weights_percentile(&ws, window(), 0.5).is_err());
        assert!(WeightMapping::from_weights_percentile(&[], window(), 0.1).is_err());
    }

    #[test]
    fn percentile_range_of_constant_weights_falls_back() {
        let m = WeightMapping::from_weights_percentile(&[0.2; 10], window(), 0.01).unwrap();
        assert!(m.w_min() < 0.2 && m.w_max() > 0.2);
    }

    #[test]
    fn from_range_equals_from_weights_percentile_bitwise() {
        let ws: Vec<f32> = (0..500).map(|i| ((i as f32) * 0.173).sin()).collect();
        for pct in [0.0, 0.005, 0.1] {
            let range = WeightRange::from_weights_percentile(&ws, pct).unwrap();
            for r_max in [1e5, 7.3e4, 2.1e4] {
                let w = AgedWindow { r_min: 1e4, r_max };
                let direct = WeightMapping::from_weights_percentile(&ws, w, pct).unwrap();
                let via_range = WeightMapping::from_range(range, w).unwrap();
                assert_eq!(direct, via_range, "pct={pct} r_max={r_max}");
            }
        }
        // Constant weights exercise the from_weights fallback path.
        let range = WeightRange::from_weights_percentile(&[0.2; 10], 0.01).unwrap();
        let direct = WeightMapping::from_weights_percentile(&[0.2; 10], window(), 0.01).unwrap();
        assert_eq!(direct, WeightMapping::from_range(range, window()).unwrap());
        // Range errors surface at derivation time.
        assert!(WeightRange::from_weights_percentile(&[], 0.1).is_err());
        assert!(WeightRange::from_weights_percentile(&ws, 0.5).is_err());
        assert!(WeightRange::from_weights(&[]).is_err());
        assert_eq!(range.lo(), direct.w_min());
        assert_eq!(range.hi(), direct.w_max());
    }

    #[test]
    fn aged_window_raises_g_min() {
        // Aging lowers r_max, which raises g_min: the mapped conductance of
        // the smallest weight grows.
        let fresh = WeightMapping::new(0.0, 1.0, window()).unwrap();
        let aged = WeightMapping::new(0.0, 1.0, AgedWindow { r_min: 1e4, r_max: 5e4 }).unwrap();
        assert!(aged.g_min() > fresh.g_min());
        assert_eq!(aged.g_max(), fresh.g_max());
    }

    #[test]
    fn small_weights_map_to_large_resistance() {
        // The paper's central lever: skew weights small => resistances large.
        let m = WeightMapping::new(-1.0, 1.0, window()).unwrap();
        let r_small_w = 1.0 / m.weight_to_conductance(-0.9);
        let r_large_w = 1.0 / m.weight_to_conductance(0.9);
        assert!(r_small_w > 5.0 * r_large_w);
    }
}
