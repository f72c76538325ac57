//! Stochastic non-idealities: programming (write) variability.
//!
//! This is the standard analog-crossbar error source beyond quantization
//! and aging: a programmed conductance lands within a cycle-to-cycle
//! tolerance of its target. The paper folds such residual errors into what
//! online tuning cleans up; this module makes them explicit so their
//! interaction with tuning and aging can be measured.

use memaging_tensor::Tensor;
use rand::Rng;

use crate::crossbar::{Crossbar, ProgramStats};
use crate::error::CrossbarError;

impl Crossbar {
    /// Programs targets with multiplicative write variability: each device's
    /// target conductance is perturbed by `(1 + sigma·z)`, `z ~ N(0,1)`,
    /// before programming — modelling cycle-to-cycle variation in the
    /// program-and-verify loop's stopping point.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] for a wrong target shape
    /// or [`CrossbarError::InvalidMapping`] for an invalid sigma.
    pub fn program_conductances_noisy<R: Rng + ?Sized>(
        &mut self,
        targets: &Tensor,
        sigma: f64,
        rng: &mut R,
    ) -> Result<ProgramStats, CrossbarError> {
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("write-variability sigma {sigma} must be finite and >= 0"),
            });
        }
        let src = targets.as_slice();
        let noisy = Tensor::from_fn(targets.shape().clone(), |i| {
            let g = src[i];
            let z = memaging_tensor::init::standard_normal(rng);
            // Keep the perturbed target physical (positive).
            (g * (1.0 + sigma as f32 * z)).max(g * 0.1)
        });
        self.program_conductances(&noisy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_device::{ArrheniusAging, DeviceSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xbar() -> Crossbar {
        Crossbar::new(8, 8, DeviceSpec::default(), ArrheniusAging::default()).unwrap()
    }

    #[test]
    fn zero_sigma_matches_deterministic_paths() {
        let mut a = xbar();
        let mut b = xbar();
        let targets = Tensor::full([8, 8], 4.0e-5);
        let mut rng = StdRng::seed_from_u64(1);
        a.program_conductances(&targets).unwrap();
        b.program_conductances_noisy(&targets, 0.0, &mut rng).unwrap();
        assert_eq!(a.conductances(), b.conductances());
    }

    #[test]
    fn write_variability_spreads_programmed_levels() {
        let mut x = xbar();
        let targets = Tensor::full([8, 8], 4.0e-5);
        let mut rng = StdRng::seed_from_u64(2);
        x.program_conductances_noisy(&targets, 0.2, &mut rng).unwrap();
        let g = x.conductances();
        let distinct: std::collections::HashSet<u32> =
            g.as_slice().iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() > 1, "20% variability must spread across levels");
    }

    #[test]
    fn invalid_sigmas_rejected() {
        let mut x = xbar();
        let mut rng = StdRng::seed_from_u64(4);
        let targets = Tensor::full([8, 8], 4.0e-5);
        assert!(x.program_conductances_noisy(&targets, -0.1, &mut rng).is_err());
        assert!(x.program_conductances_noisy(&targets, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn noisy_programming_still_counts_pulses() {
        let mut x = xbar();
        let mut rng = StdRng::seed_from_u64(5);
        let stats =
            x.program_conductances_noisy(&Tensor::full([8, 8], 9.0e-5), 0.05, &mut rng).unwrap();
        assert!(stats.pulses > 0);
        assert!(x.total_stress() > 0.0);
    }
}
