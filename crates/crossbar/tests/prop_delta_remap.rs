//! Property test for the delta-programming engine: delta reprogramming
//! must be bit-identical to full reprogramming — same conductances, same
//! pulse totals — across a steady-state epoch
//! (identical targets resent), a forced window-bounds-change epoch
//! (deterministic cycling ages every device between maps), and a
//! drifted-device epoch. The only permitted difference is bookkeeping:
//! cells the full path no-op-programs show up as `skipped_unchanged` in
//! the delta stats.

use memaging_crossbar::{Crossbar, ProgramStats};
use memaging_device::{ArrheniusAging, DeviceModel, DeviceSpec, Ohms, Quantizer};
use memaging_tensor::Tensor;
use proptest::prelude::*;

/// Accelerated aging so the inter-epoch cycling visibly moves the aged
/// window bounds (the delta path must notice and reprogram).
fn fast_aging() -> ArrheniusAging {
    ArrheniusAging { a_f: 1.0e17, a_g: 1.0e16, ..ArrheniusAging::default() }
}

/// Deterministic per-cell conductance targets for one epoch. Level codes
/// are capped well below the top level: a top-level cell clips on the
/// window recession its own programming pulses cause, so it legitimately
/// re-pulses on *both* paths and would confound the skip assertions.
fn epoch_targets(rows: usize, cols: usize, seed: u64, epoch: u64) -> Tensor {
    let spec = DeviceSpec::default();
    let q =
        Quantizer::new(Ohms::new(spec.r_min).unwrap(), Ohms::new(spec.r_max).unwrap(), spec.levels)
            .unwrap();
    Tensor::from_fn([rows, cols], |i| {
        let k = ((seed + epoch * 5 + i as u64 * 3) % 20) as usize;
        (1.0 / q.level_resistance(k).value()) as f32
    })
}

/// Deterministically cycles every device a position-dependent number of
/// times: no RNG, so the full-reprogram and delta runs see bitwise
/// identical pre-map device state.
fn age(x: &mut Crossbar, rounds: usize) {
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            let cycles = 1 + (rounds + r * 7 + c * 13) % (rounds + 3);
            let (m, d) = x.device_mut(r, c);
            for _ in 0..cycles {
                if d.pulse(m, -1).is_err() || d.pulse(m, 1).is_err() {
                    break;
                }
            }
        }
    }
}

/// Drifts every fourth device off its programmed level (far beyond the
/// delta path's no-op slack, so both paths must chase it back).
fn drift(x: &mut Crossbar) {
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            if (r * 3 + c) % 4 == 0 {
                let (m, d) = x.device_mut(r, c);
                d.drift_conductance(m, 0.003);
            }
        }
    }
}

/// The conductances of every device as raw bits.
fn conductance_bits(x: &Crossbar) -> Vec<u32> {
    x.conductances().as_slice().iter().map(|g| g.to_bits()).collect()
}

/// Four mapping epochs on a fresh array; returns the conductance bits after
/// each epoch, the final pulse total, and per-epoch stats.
fn run(seed: u64, rounds: usize, delta: bool) -> (Vec<Vec<u32>>, u64, Vec<ProgramStats>) {
    let (rows, cols) = (13, 11);
    let model = DeviceModel::new(DeviceSpec::default(), fast_aging()).unwrap();
    let mut tm = Crossbar::new(rows, cols, model).unwrap();
    let first = epoch_targets(rows, cols, seed, 0);
    let second = epoch_targets(rows, cols, seed, 1);
    let mut outs = Vec::new();
    let mut stats = Vec::new();
    let map = |tm: &mut Crossbar, t: &Tensor| {
        if delta {
            tm.program_conductances_delta(t).unwrap()
        } else {
            tm.program_conductances(t).unwrap()
        }
    };
    // Epoch 0: deploy onto fresh devices.
    stats.push(map(&mut tm, &first));
    outs.push(conductance_bits(&tm));
    // Epoch 1: identical targets resent — the steady-state skip case.
    stats.push(map(&mut tm, &first));
    outs.push(conductance_bits(&tm));
    // Epoch 2: aging moved the window bounds, then new targets.
    age(&mut tm, rounds);
    stats.push(map(&mut tm, &second));
    outs.push(conductance_bits(&tm));
    // Epoch 3: drifted devices re-converge under unchanged targets.
    drift(&mut tm);
    stats.push(map(&mut tm, &second));
    outs.push(conductance_bits(&tm));
    (outs, tm.total_pulses(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn delta_matches_full_reprogram_over_four_epochs(
        seed in 0u64..64,
        rounds in 2usize..10,
    ) {
        let (full_outs, full_pulses, full_stats) = run(seed, rounds, false);
        prop_assert!(
            full_stats.iter().all(|s| s.skipped() == 0 && s.rewritten == 0),
            "full reprogramming must never skip"
        );
        let (outs, pulses, stats) = run(seed, rounds, true);
        prop_assert_eq!(&outs, &full_outs, "conductances diverged");
        prop_assert_eq!(pulses, full_pulses, "pulse totals diverged");
        // Every cell is accounted for: delta's programmed + skipped
        // partitions exactly the cells the full path programmed, and the
        // clipped/dead tallies agree bit for bit.
        for (epoch, (s, f)) in stats.iter().zip(full_stats.iter()).enumerate() {
            prop_assert_eq!(
                s.programmed + s.skipped(), f.programmed,
                "cell partition broke in epoch {}", epoch
            );
            prop_assert_eq!(s.programmed, s.rewritten);
            prop_assert_eq!(s.pulses, f.pulses, "epoch {}", epoch);
            prop_assert_eq!(s.clipped, f.clipped, "epoch {}", epoch);
            prop_assert_eq!(s.dead, f.dead, "epoch {}", epoch);
        }
        // Epoch 1 resends epoch-0 targets: nothing changed, so the delta
        // path must skip every live cell without a single pulse.
        prop_assert_eq!(stats[1].programmed, 0, "steady-state epoch reprogrammed cells");
        prop_assert_eq!(stats[1].pulses, 0);
        prop_assert!(stats[1].skipped_unchanged > 0);
        // Epoch 3 reconverges drifted devices but skips the rest.
        prop_assert!(stats[3].programmed > 0, "drifted devices must be chased");
        prop_assert!(stats[3].skipped() > 0, "undrifted devices must be skipped");
    }
}
