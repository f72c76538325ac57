//! Property-based tests for device-model invariants.

use memaging_device::{ArrheniusAging, DeviceModel, DeviceSpec, Memristor, Ohms, Quantizer};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = DeviceSpec> {
    (1.0e3f64..5.0e4, 2.0f64..20.0, 2usize..65).prop_map(|(r_min, ratio, levels)| DeviceSpec {
        r_min,
        r_max: r_min * ratio,
        levels,
        ..DeviceSpec::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantizer_levels_are_monotone_and_bounded(spec in arb_spec()) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let rs = q.level_resistances();
        prop_assert_eq!(rs.len(), spec.levels);
        for pair in rs.windows(2) {
            prop_assert!(pair[1] > pair[0]);
        }
        prop_assert!((rs[0].value() - spec.r_min).abs() < 1e-6);
        prop_assert!((rs[rs.len() - 1].value() - spec.r_max).abs() < 1e-6);
    }

    #[test]
    fn quantize_is_idempotent(spec in arb_spec(), frac in 0.0f64..1.0) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let target = Ohms::new(spec.r_min + frac * (spec.r_max - spec.r_min)).unwrap();
        let once = q.quantize(target);
        let twice = q.quantize(once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn quantize_error_bounded_by_half_level(spec in arb_spec(), frac in 0.0f64..1.0) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let r = spec.r_min + frac * (spec.r_max - spec.r_min);
        let out = q.quantize(Ohms::new(r).unwrap());
        prop_assert!((out.value() - r).abs() <= q.level_width() / 2.0 + 1e-6);
    }

    #[test]
    fn aged_window_is_always_ordered(spec in arb_spec(), stress in 0.0f64..10.0) {
        let aging = ArrheniusAging::default();
        let w = aging.aged_window(&spec, stress);
        prop_assert!(w.r_max >= w.r_min);
        prop_assert!(w.r_min > 0.0);
    }

    #[test]
    fn aging_is_monotone_in_stress(spec in arb_spec(), s1 in 0.0f64..1.0, s2 in 0.0f64..1.0) {
        let aging = ArrheniusAging::default();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let w_lo = aging.aged_window(&spec, lo);
        let w_hi = aging.aged_window(&spec, hi);
        prop_assert!(w_hi.r_max <= w_lo.r_max + 1e-9);
        prop_assert!(w_hi.r_min <= w_lo.r_min + 1e-9);
    }

    #[test]
    fn programming_never_exceeds_aged_window(
        spec in arb_spec(),
        targets in proptest::collection::vec(0usize..64, 1..12),
    ) {
        let d = DeviceModel::new(spec, ArrheniusAging::default()).unwrap();
        let mut m = Memristor::new(&d);
        for t in targets {
            if m.is_worn_out(&d) {
                break;
            }
            let _ = m.program_to_level(&d, t % spec.levels);
            let w = m.aged_window(&d);
            let r = m.resistance(&d).value();
            prop_assert!(r >= w.r_min - 1e-6 && r <= w.r_max + 1e-6);
        }
    }

    #[test]
    fn pulse_count_is_bounded_by_level_distance(spec in arb_spec(), t in 0usize..64) {
        let d = DeviceModel::new(spec, ArrheniusAging::default()).unwrap();
        let mut m = Memristor::new(&d);
        let target = t % spec.levels;
        let start = m.level(&d);
        let out = m.program_to_level(&d, target).unwrap();
        // Program-and-verify needs at least one pulse per level travelled,
        // and gives up within one extra pulse once the (possibly receding)
        // aged window pins the state.
        prop_assert!(out.pulses as usize >= start.abs_diff(out.achieved_level));
        prop_assert!(out.pulses as usize <= start.abs_diff(target) + 1);
    }

    #[test]
    fn pulse_count_matches_distance_on_wide_fresh_devices(t in 0usize..32) {
        // With the default spec, per-pulse degradation is far below one
        // level width, so the fresh count is exact.
        let spec = DeviceSpec::default();
        let d = DeviceModel::new(spec, ArrheniusAging::default()).unwrap();
        let mut m = Memristor::new(&d);
        let target = t % spec.levels;
        let start = m.level(&d);
        let out = m.program_to_level(&d, target).unwrap();
        // Exact, except that programming to the very top level may spend one
        // verify pulse against the (slightly self-aged) window edge.
        let distance = start.abs_diff(target);
        prop_assert!(out.pulses as usize >= distance);
        prop_assert!(out.pulses as usize <= distance + 1);
        prop_assert_eq!(out.achieved_level, target);
    }

    #[test]
    fn stress_is_monotone_in_pulses(spec in arb_spec(), pulses in 1usize..200) {
        let d = DeviceModel::new(spec, ArrheniusAging::default()).unwrap();
        let mut m = Memristor::new(&d);
        let mut prev = 0.0;
        for i in 0..pulses {
            if m.is_worn_out(&d) {
                break;
            }
            m.pulse(&d, if i % 2 == 0 { 1 } else { -1 }).unwrap();
            prop_assert!(m.stress() > prev);
            prev = m.stress();
        }
    }

    #[test]
    fn usable_levels_never_increase(spec in arb_spec()) {
        let d = DeviceModel::new(spec, ArrheniusAging::default()).unwrap();
        let mut m = Memristor::new(&d);
        let mut prev = m.usable_levels(&d);
        for i in 0..500 {
            if m.is_worn_out(&d) {
                break;
            }
            m.pulse(&d, if i % 2 == 0 { -1 } else { 1 }).unwrap();
            let u = m.usable_levels(&d);
            prop_assert!(u <= prev);
            prev = u;
        }
    }
}
