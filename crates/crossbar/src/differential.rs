//! Differential-pair weight mapping: `w ∝ g⁺ − g⁻` with two devices per
//! weight.
//!
//! The paper's eq. (4) maps signed weights onto a *single* device with an
//! affine shift, which needs a reference-column offset correction and puts
//! even zero weights at mid conductance. The differential alternative used
//! by many fabricated accelerators splits each weight across a positive and
//! a negative array:
//!
//! ```text
//! w ≥ 0:  g⁺ = g_min + a·w,  g⁻ = g_min
//! w < 0:  g⁻ = g_min + a·|w|, g⁺ = g_min
//! w = (g⁺ − g⁻)/a                        (offsets cancel exactly)
//! ```
//!
//! Two aging-relevant properties fall out: near-zero weights park **both**
//! devices at `g_min` (maximum resistance — minimum programming power), and
//! no common-range shift is needed, at the cost of 2× devices. This module
//! provides the pair mapping and a paired-array container so the trade-off
//! against the paper's single-device scheme can be measured.

use memaging_device::{DeviceModel, DeviceSpec};
use memaging_tensor::Tensor;

use crate::crossbar::{Crossbar, ProgramStats};
use crate::error::CrossbarError;

/// The scale and bounds of a differential mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifferentialMapping {
    g_min: f64,
    g_max: f64,
    /// Conductance per unit weight.
    scale: f64,
}

impl DifferentialMapping {
    /// Creates a differential mapping for weights with magnitude up to
    /// `w_abs_max`, spanning the spec's conductance range.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for a non-positive
    /// magnitude bound or an invalid spec window.
    pub fn new(w_abs_max: f64, spec: &DeviceSpec) -> Result<Self, CrossbarError> {
        if !w_abs_max.is_finite() || w_abs_max <= 0.0 {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("weight magnitude bound {w_abs_max} must be finite and > 0"),
            });
        }
        if spec.r_min <= 0.0 || spec.r_max <= spec.r_min {
            return Err(CrossbarError::InvalidMapping {
                reason: "invalid device resistance window".into(),
            });
        }
        let g_min = 1.0 / spec.r_max;
        let g_max = 1.0 / spec.r_min;
        Ok(DifferentialMapping { g_min, g_max, scale: (g_max - g_min) / w_abs_max })
    }

    /// Derives the magnitude bound from the data.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for an empty slice.
    pub fn from_weights(weights: &[f32], spec: &DeviceSpec) -> Result<Self, CrossbarError> {
        let max = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        if weights.is_empty() || max == 0.0 {
            return Err(CrossbarError::InvalidMapping {
                reason: "cannot derive magnitude bound from empty/zero weights".into(),
            });
        }
        DifferentialMapping::new(max as f64, spec)
    }

    /// Conductance per unit weight.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The `(g_plus, g_minus)` pair implementing weight `w` (clamped to the
    /// magnitude bound).
    pub fn weight_to_pair(&self, w: f64) -> (f64, f64) {
        let span = self.g_max - self.g_min;
        let delta = (w * self.scale).clamp(-span, span);
        if delta >= 0.0 {
            (self.g_min + delta, self.g_min)
        } else {
            (self.g_min, self.g_min - delta)
        }
    }

    /// The weight implemented by a `(g_plus, g_minus)` pair.
    pub fn pair_to_weight(&self, g_plus: f64, g_minus: f64) -> f64 {
        (g_plus - g_minus) / self.scale
    }
}

/// A pair of equally-sized crossbars implementing signed weights
/// differentially.
#[derive(Debug, Clone)]
pub struct DifferentialCrossbar {
    positive: Crossbar,
    negative: Crossbar,
    mapping: Option<DifferentialMapping>,
}

impl DifferentialCrossbar {
    /// Creates a fresh pair of `rows × cols` arrays of `model` devices.
    ///
    /// # Errors
    ///
    /// Propagates array construction errors.
    pub fn new(rows: usize, cols: usize, model: DeviceModel) -> Result<Self, CrossbarError> {
        Ok(DifferentialCrossbar {
            positive: Crossbar::new(rows, cols, model)?,
            negative: Crossbar::new(rows, cols, model)?,
            mapping: None,
        })
    }

    /// The positive array.
    pub fn positive(&self) -> &Crossbar {
        &self.positive
    }

    /// The negative array.
    pub fn negative(&self) -> &Crossbar {
        &self.negative
    }

    /// Programs a `[rows, cols]` weight matrix differentially.
    ///
    /// # Errors
    ///
    /// Returns mapping/shape errors from the underlying arrays.
    pub fn program_weights(&mut self, weights: &Tensor) -> Result<ProgramStats, CrossbarError> {
        let mapping =
            DifferentialMapping::from_weights(weights.as_slice(), self.positive.model().spec())?;
        let (rows, cols) = (self.positive.rows(), self.positive.cols());
        let mut plus = vec![0.0f32; rows * cols];
        let mut minus = vec![0.0f32; rows * cols];
        for (i, &w) in weights.as_slice().iter().enumerate() {
            let (p, m) = mapping.weight_to_pair(w as f64);
            plus[i] = p as f32;
            minus[i] = m as f32;
        }
        let mut stats =
            self.positive.program_conductances(&Tensor::from_vec(plus, [rows, cols])?)?;
        stats.merge(self.negative.program_conductances(&Tensor::from_vec(minus, [rows, cols])?)?);
        self.mapping = Some(mapping);
        Ok(stats)
    }

    /// Reads the implemented weights back.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] if nothing was programmed.
    pub fn read_weights(&self) -> Result<Tensor, CrossbarError> {
        let mapping = self.mapping.ok_or(CrossbarError::InvalidMapping {
            reason: "differential pair has not been programmed yet".into(),
        })?;
        let gp = self.positive.conductances();
        let gm = self.negative.conductances();
        Ok(Tensor::from_fn(gp.shape().clone(), |i| {
            mapping.pair_to_weight(gp.as_slice()[i] as f64, gm.as_slice()[i] as f64) as f32
        }))
    }

    /// Total programming pulses over both arrays.
    pub fn total_pulses(&self) -> u64 {
        self.positive.total_pulses() + self.negative.total_pulses()
    }

    /// Mean conductance over both arrays — the aging-rate proxy (mean
    /// programming power ∝ mean conductance).
    pub fn mean_conductance(&self) -> f64 {
        let gp = self.positive.conductances();
        let gm = self.negative.conductances();
        let n = (gp.len() + gm.len()) as f64;
        (gp.as_slice().iter().chain(gm.as_slice()).map(|&g| g as f64).sum::<f64>()) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::default()
    }

    #[test]
    fn mapping_round_trips() {
        let m = DifferentialMapping::new(1.0, &spec()).unwrap();
        for w in [-1.0f64, -0.5, -0.01, 0.0, 0.3, 1.0] {
            let (p, mi) = m.weight_to_pair(w);
            assert!(p >= m.g_min - 1e-15 && mi >= m.g_min - 1e-15);
            let back = m.pair_to_weight(p, mi);
            assert!((back - w).abs() < 1e-9, "{w} -> {back}");
        }
    }

    #[test]
    fn zero_weight_parks_both_devices_at_g_min() {
        let m = DifferentialMapping::new(1.0, &spec()).unwrap();
        let (p, mi) = m.weight_to_pair(0.0);
        assert_eq!(p, 1.0 / spec().r_max);
        assert_eq!(mi, 1.0 / spec().r_max);
    }

    #[test]
    fn out_of_range_weights_clamp() {
        let m = DifferentialMapping::new(1.0, &spec()).unwrap();
        let (p, _) = m.weight_to_pair(5.0);
        assert!((p - 1.0 / spec().r_min).abs() < 1e-15);
    }

    #[test]
    fn construction_validates() {
        assert!(DifferentialMapping::new(0.0, &spec()).is_err());
        assert!(DifferentialMapping::new(f64::NAN, &spec()).is_err());
        assert!(DifferentialMapping::from_weights(&[], &spec()).is_err());
        assert!(DifferentialMapping::from_weights(&[0.0, 0.0], &spec()).is_err());
    }

    #[test]
    fn program_read_round_trip() {
        let mut pair = DifferentialCrossbar::new(4, 3, DeviceModel::default()).unwrap();
        let w = Tensor::from_fn([4, 3], |i| ((i as f32) - 5.5) * 0.1);
        pair.program_weights(&w).unwrap();
        let read = pair.read_weights().unwrap();
        // Quantization to the 32-level grid bounds the error.
        let lsb = 2.0 / 31.0; // weight units per level at |w|max mapping
        for (a, b) in w.as_slice().iter().zip(read.as_slice()) {
            assert!((a - b).abs() < lsb, "{a} vs {b}");
        }
    }

    #[test]
    fn unprogrammed_pair_errors() {
        let pair = DifferentialCrossbar::new(2, 2, DeviceModel::default()).unwrap();
        assert!(pair.read_weights().is_err());
    }

    #[test]
    fn differential_parks_sparse_weights_cold() {
        // A mostly-zero weight matrix: the differential scheme's mean
        // conductance (aging proxy) sits near g_min, while the paper's
        // single-device affine map would put zeros at mid conductance.
        let mut pair = DifferentialCrossbar::new(8, 8, DeviceModel::default()).unwrap();
        let w = Tensor::from_fn([8, 8], |i| if i == 0 { 1.0 } else { 0.0 });
        pair.program_weights(&w).unwrap();
        let g_min = 1.0 / spec().r_max;
        let mean = pair.mean_conductance();
        assert!(
            mean < 2.5 * g_min,
            "sparse differential mapping must sit near g_min: {mean} vs {g_min}"
        );
    }
}
