//! Property-based tests for crossbar invariants: mapping bijectivity,
//! programming convergence and drift bookkeeping.

use memaging_crossbar::{Crossbar, WeightMapping};
use memaging_device::{AgedWindow, DeviceModel, DeviceSpec};
use memaging_tensor::Tensor;
use proptest::prelude::*;

fn window() -> AgedWindow {
    AgedWindow { r_min: 1.0e4, r_max: 1.0e5 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapping_round_trips_for_in_range_weights(
        w_min in -2.0f64..0.0,
        span in 0.1f64..4.0,
        frac in 0.0f64..1.0,
    ) {
        let mapping = WeightMapping::new(w_min, w_min + span, window()).unwrap();
        let w = w_min + frac * span;
        let g = mapping.weight_to_conductance(w);
        prop_assert!(g >= mapping.g_min() - 1e-15 && g <= mapping.g_max() + 1e-15);
        let back = mapping.conductance_to_weight(g);
        prop_assert!((back - w).abs() < 1e-9, "{w} -> {g} -> {back}");
    }

    #[test]
    fn mapping_is_monotone(
        w_min in -1.0f64..0.0,
        span in 0.5f64..2.0,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let mapping = WeightMapping::new(w_min, w_min + span, window()).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let g_lo = mapping.weight_to_conductance(w_min + lo * span);
        let g_hi = mapping.weight_to_conductance(w_min + hi * span);
        prop_assert!(g_lo <= g_hi + 1e-15);
    }

    #[test]
    fn programming_is_idempotent_on_fresh_arrays(
        rows in 1usize..5,
        cols in 1usize..5,
        level in 0usize..32,
    ) {
        let spec = DeviceSpec::default();
        let mut xbar = Crossbar::new(rows, cols, DeviceModel::default()).unwrap();
        let g = (1.0 / (spec.r_min + level as f64 * spec.level_width())) as f32;
        let targets = Tensor::full([rows, cols], g);
        xbar.program_conductances(&targets).unwrap();
        let first = xbar.conductances();
        let stats = xbar.program_conductances(&targets).unwrap();
        // Re-programming the same targets needs at most one verify pulse per
        // device (the top level sits against the slightly self-aged window
        // edge) and leaves the conductances essentially unchanged.
        prop_assert!(stats.pulses <= (rows * cols) as u64, "pulses {}", stats.pulses);
        for (a, b) in first.as_slice().iter().zip(xbar.conductances().as_slice()) {
            prop_assert!((a - b).abs() / a < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn drift_preserves_pulse_and_stress_counters(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut xbar = Crossbar::new(rows, cols, DeviceModel::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        xbar.apply_drift(0.7, &mut rng);
        xbar.apply_conductance_drift(0.7, 0.1, &mut rng);
        prop_assert_eq!(xbar.total_pulses(), 0);
        prop_assert_eq!(xbar.total_stress(), 0.0);
        prop_assert_eq!(xbar.worn_out_count(), 0);
    }
}
