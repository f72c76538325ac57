//! Resistance-domain quantization (paper §II-B, Fig. 3).
//!
//! Programming circuitry discretizes the resistance range into a fixed
//! number of *uniformly spaced* levels (dashed lines of Fig. 3b). Because
//! conductance is the inverse of resistance, the induced conductance levels
//! are non-uniform: dense near `g_min` (large resistance) and sparse near
//! `g_max` (Fig. 3c). That density asymmetry is one of the two reasons the
//! paper skews weights toward small values — small weights land where
//! quantization is fine-grained.

use crate::error::DeviceError;
use crate::spec::DeviceSpec;
use crate::units::{Ohms, Siemens};

/// A uniform-in-resistance quantizer over a (possibly aged) window.
///
/// # Examples
///
/// ```
/// use memaging_device::{DeviceSpec, Ohms, Quantizer};
///
/// # fn main() -> Result<(), memaging_device::DeviceError> {
/// let q = Quantizer::from_spec(&DeviceSpec::default())?;
/// assert_eq!(q.levels(), 32);
/// let r = q.quantize(Ohms::new(55_123.0)?);
/// // Quantized to within half a level width.
/// assert!((r.value() - 55_123.0).abs() <= q.level_width() / 2.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    r_min: f64,
    r_max: f64,
    levels: usize,
}

impl Quantizer {
    /// Creates a quantizer over `[r_min, r_max]` with `levels` levels.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpec`] if the window is empty or fewer
    /// than 2 levels are requested.
    pub fn new(r_min: Ohms, r_max: Ohms, levels: usize) -> Result<Self, DeviceError> {
        if r_max.value() <= r_min.value() {
            return Err(DeviceError::InvalidSpec {
                reason: format!("quantizer window [{}, {}] is empty", r_min.value(), r_max.value()),
            });
        }
        if levels < 2 {
            return Err(DeviceError::InvalidSpec {
                reason: format!("quantizer needs >= 2 levels, got {levels}"),
            });
        }
        Ok(Quantizer { r_min: r_min.value(), r_max: r_max.value(), levels })
    }

    /// Creates the fresh-window quantizer of a device spec.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpec`] if the spec is invalid.
    pub fn from_spec(spec: &DeviceSpec) -> Result<Self, DeviceError> {
        spec.validate()?;
        Quantizer::new(spec.r_min_ohms(), spec.r_max_ohms(), spec.levels)
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Spacing between adjacent resistance levels, ohms.
    pub fn level_width(&self) -> f64 {
        (self.r_max - self.r_min) / (self.levels - 1) as f64
    }

    /// The resistance of level `index` (level 0 = `r_min`, highest level =
    /// `r_max`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.levels()`.
    pub fn level_resistance(&self, index: usize) -> Ohms {
        assert!(index < self.levels, "level {index} out of range");
        Ohms::new(self.r_min + index as f64 * self.level_width())
            .expect("window validated at construction")
    }

    /// The conductance of level `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.levels()`.
    pub fn level_conductance(&self, index: usize) -> Siemens {
        self.level_resistance(index).to_siemens()
    }

    /// All level resistances, ascending.
    pub fn level_resistances(&self) -> Vec<Ohms> {
        (0..self.levels).map(|i| self.level_resistance(i)).collect()
    }

    /// The nearest level index for a target resistance (clamped into range).
    pub fn nearest_level(&self, target: Ohms) -> usize {
        let t = target.value().clamp(self.r_min, self.r_max);
        let idx = ((t - self.r_min) / self.level_width()).round() as usize;
        idx.min(self.levels - 1)
    }

    /// Quantizes a target resistance to its nearest level value.
    pub fn quantize(&self, target: Ohms) -> Ohms {
        self.level_resistance(self.nearest_level(target))
    }

    /// Number of this quantizer's levels whose resistance lies within
    /// `[lo, hi]` — the paper's "usable levels after aging" (Fig. 4).
    ///
    /// O(1): level resistances are monotone in the index, so the levels
    /// inside `[lo − 1e-9, hi + 1e-9]` form one contiguous run. Each end of
    /// the run is estimated arithmetically and then settled by evaluating
    /// the exact per-level predicate on its neighbours, so the count equals
    /// a scan over every level bit for bit. A NaN bound counts 0, and so
    /// does a window inverted by more than the tolerance.
    pub fn levels_within(&self, lo: f64, hi: f64) -> usize {
        let (lo, hi) = (lo - 1e-9, hi + 1e-9);
        if lo.is_nan() || hi.is_nan() {
            return 0;
        }
        let width = self.level_width();
        let r = |i: usize| self.r_min + i as f64 * width;
        let estimate = |t: f64| ((t - self.r_min) / width).ceil().clamp(0.0, self.levels as f64);
        // First level with r >= lo.
        let mut first = estimate(lo) as usize;
        while first > 0 && r(first - 1) >= lo {
            first -= 1;
        }
        while first < self.levels && r(first) < lo {
            first += 1;
        }
        // One past the last level with r <= hi.
        let mut end = estimate(hi) as usize;
        while end > 0 && r(end - 1) > hi {
            end -= 1;
        }
        while end < self.levels && r(end) <= hi {
            end += 1;
        }
        end.saturating_sub(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q8() -> Quantizer {
        Quantizer::new(Ohms::new(1e4).unwrap(), Ohms::new(8e4).unwrap(), 8).unwrap()
    }

    #[test]
    fn construction_validates() {
        let r = Ohms::new(1e4).unwrap();
        assert!(Quantizer::new(r, r, 8).is_err());
        assert!(Quantizer::new(r, Ohms::new(2e4).unwrap(), 1).is_err());
        assert!(Quantizer::from_spec(&DeviceSpec::default()).is_ok());
    }

    #[test]
    fn levels_are_uniform_in_resistance() {
        let q = q8();
        let rs = q.level_resistances();
        assert_eq!(rs.len(), 8);
        let width = q.level_width();
        for pair in rs.windows(2) {
            assert!((pair[1].value() - pair[0].value() - width).abs() < 1e-9);
        }
        assert_eq!(rs[0].value(), 1e4);
        assert_eq!(rs[7].value(), 8e4);
    }

    #[test]
    fn conductance_levels_are_dense_near_g_min() {
        // Inverse relation: gaps between conductance levels shrink toward
        // the small-conductance (large-resistance) end — Fig. 3c.
        let q = q8();
        let gs: Vec<Siemens> = (0..q.levels()).map(|i| q.level_conductance(i)).collect();
        let first_gap = gs[0].value() - gs[1].value(); // near g_max
        let last_gap = gs[6].value() - gs[7].value(); // near g_min
        assert!(
            first_gap > 5.0 * last_gap,
            "expected dense levels near g_min: {first_gap} vs {last_gap}"
        );
    }

    #[test]
    fn nearest_level_rounds_and_clamps() {
        let q = q8();
        assert_eq!(q.nearest_level(Ohms::new(1e4).unwrap()), 0);
        assert_eq!(q.nearest_level(Ohms::new(8e4).unwrap()), 7);
        assert_eq!(q.nearest_level(Ohms::new(1.4e4).unwrap()), 0);
        assert_eq!(q.nearest_level(Ohms::new(1.6e4).unwrap()), 1);
        // Out-of-range clamps.
        assert_eq!(q.nearest_level(Ohms::new(1.0).unwrap()), 0);
        assert_eq!(q.nearest_level(Ohms::new(1e9).unwrap()), 7);
    }

    #[test]
    fn quantize_error_is_bounded() {
        let q = Quantizer::from_spec(&DeviceSpec::default()).unwrap();
        let half = q.level_width() / 2.0;
        for k in 0..100 {
            let r = 1e4 + (k as f64 / 99.0) * 9e4;
            let out = q.quantize(Ohms::new(r).unwrap());
            assert!((out.value() - r).abs() <= half + 1e-9, "error too large at {r}");
        }
    }

    #[test]
    fn levels_within_counts_aged_window() {
        let q = q8(); // levels at 10k..80k step 10k
        assert_eq!(q.levels_within(1e4, 8e4), 8);
        assert_eq!(q.levels_within(1e4, 3.5e4), 3); // 10k, 20k, 30k
        assert_eq!(q.levels_within(2.5e4, 8e4), 6);
        assert_eq!(q.levels_within(9e4, 1e5), 0);
        // Collapsed on a level, inverted, unbounded and NaN windows.
        assert_eq!(q.levels_within(2e4, 2e4), 1);
        assert_eq!(q.levels_within(5e4, 2e4), 0);
        assert_eq!(q.levels_within(f64::NEG_INFINITY, f64::INFINITY), 8);
        assert_eq!(q.levels_within(f64::INFINITY, f64::NEG_INFINITY), 0);
        assert_eq!(q.levels_within(f64::NAN, f64::INFINITY), 0);
        assert_eq!(q.levels_within(1e4, f64::NAN), 0);
    }

    /// The reference count for [`Quantizer::levels_within`]: a scan of
    /// every level against the exact predicate.
    fn levels_within_scan(q: &Quantizer, lo: f64, hi: f64) -> usize {
        (0..q.levels())
            .filter(|&i| {
                let r = q.level_resistance(i).value();
                r >= lo - 1e-9 && r <= hi + 1e-9
            })
            .count()
    }

    /// An interval end `x` with `x + shift == target` exactly (when the
    /// float grid has one), then moved `ulps` representable values up or
    /// down: puts the 1e-9 tolerance exactly on, or an ulp either side
    /// of, a level.
    fn on_edge(target: f64, shift: f64, ulps: i32) -> f64 {
        let mut x = target - shift;
        for _ in 0..8 {
            let y = x + shift;
            if y == target {
                break;
            }
            x = if y < target { x.next_up() } else { x.next_down() };
        }
        for _ in 0..ulps.unsigned_abs() {
            x = if ulps > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    /// A window over `q`'s grid of one of eight kinds, from the raw draws
    /// `a`, `b` in `[0, 1)`, level indices `k`, `j` and offsets `d`, `e` in
    /// `[-3e-9, 3e-9]`.
    #[allow(clippy::too_many_arguments)]
    fn window(
        q: &Quantizer,
        kind: usize,
        a: f64,
        b: f64,
        k: usize,
        j: usize,
        d: f64,
        e: f64,
    ) -> (f64, f64) {
        let span = q.r_max - q.r_min;
        let level = |i: usize| q.level_resistance(i % q.levels()).value();
        match kind {
            // Inside the grid.
            0 => {
                let lo = q.r_min + a * span;
                (lo, lo + b * (q.r_max - lo))
            }
            // Straddling one or both ends of the grid.
            1 => (q.r_min - a * span, q.r_min + b * 2.0 * span),
            // Entirely below or above the grid.
            2 if k.is_multiple_of(2) => (q.r_min * a * 0.5, q.r_min * (0.5 + b * 0.49)),
            2 => (q.r_max * (1.01 + a), q.r_max * (2.01 + b)),
            // Collapsed, on a level or between levels.
            3 => {
                let x = if j.is_multiple_of(2) { level(k) } else { q.r_min + a * span };
                (x, x)
            }
            // Inverted.
            4 => {
                let lo = q.r_min + a * span;
                (lo, lo - b * span)
            }
            // Within ±3e-9 of a level at each end, straddling the 1e-9
            // tolerance.
            5 => (level(k) + d, level(j) + e),
            // ±∞ at one or both ends.
            6 => match k % 4 {
                0 => (f64::NEG_INFINITY, level(j) + e),
                1 => (level(j) + d, f64::INFINITY),
                2 => (f64::NEG_INFINITY, f64::INFINITY),
                _ => (f64::INFINITY, f64::NEG_INFINITY),
            },
            // NaN at one or both ends.
            _ => match k % 3 {
                0 => (f64::NAN, level(j)),
                1 => (level(j), f64::NAN),
                _ => (f64::NAN, f64::NAN),
            },
        }
    }

    fn quantizer(levels: usize, r_min: f64, ratio: f64) -> Quantizer {
        Quantizer::new(Ohms::new(r_min).unwrap(), Ohms::new(r_min * ratio).unwrap(), levels)
            .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn levels_within_equals_the_scan(
            levels in 2usize..=256,
            r_min in 1.0e3f64..5.0e4,
            ratio in 1.5f64..20.0,
            kind in 0usize..8,
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
            k in 0usize..256,
            j in 0usize..256,
            d in -3.0e-9f64..=3.0e-9,
            e in -3.0e-9f64..=3.0e-9,
        ) {
            let q = quantizer(levels, r_min, ratio);
            let (lo, hi) = window(&q, kind, a, b, k, j, d, e);
            proptest::prop_assert_eq!(
                q.levels_within(lo, hi),
                levels_within_scan(&q, lo, hi),
                "levels {} window [{}, {}] (kind {})", levels, lo, hi, kind
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Both ends on, or an ulp from, the tolerance edge of the first,
        /// second, middle, second-to-last or last level: the cases where
        /// the arithmetic estimate is off by one and the settling loops
        /// decide the count.
        #[test]
        fn levels_within_equals_the_scan_on_tolerance_edges(
            levels in 2usize..=256,
            r_min in 1.0e3f64..5.0e4,
            ratio in 1.5f64..20.0,
        ) {
            let q = quantizer(levels, r_min, ratio);
            let ends = [0, 1, levels / 2, levels - 2, levels - 1];
            for k in ends {
                for j in ends {
                    for (u, v) in (-1..=1).flat_map(|u| (-1..=1).map(move |v| (u, v))) {
                        let lo = on_edge(q.level_resistance(k).value(), -1e-9, u);
                        let hi = on_edge(q.level_resistance(j).value(), 1e-9, v);
                        proptest::prop_assert_eq!(
                            q.levels_within(lo, hi),
                            levels_within_scan(&q, lo, hi),
                            "levels {} window [{}, {}]", levels, lo, hi
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn level_resistance_panics_out_of_range() {
        let q = q8();
        let result = std::panic::catch_unwind(|| q.level_resistance(8));
        assert!(result.is_err());
    }
}
