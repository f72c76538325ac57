//! **Ablations** — design-choice sensitivity studies beyond the paper's
//! exhibits (DESIGN.md §4 "extra"):
//!
//! 1. quantization depth: 8–64 resistance levels (paper refs. 14/15);
//! 2. power-acceleration exponent γ of the aging model;
//! 3. thermal-crosstalk coupling;
//! 4. the row-swapping wear-leveling baseline of the paper's ref. \[12\];
//! 5. the differential-pair signed-weight scheme vs the paper's eq. 4;
//! 6. the outlier percentile of the weight-range mapping;
//! 7. write-variability robustness (accuracy after noisy programming and
//!    after tuning recovery);
//! 8. literature device corners (HfOx / TaOx / TiOx presets).
//!
//! ```text
//! cargo run --release -p memaging-bench --bin exp_ablation
//! ```

use memaging::crossbar::{CrossbarNetwork, DifferentialCrossbar, MappingStrategy};
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::lifetime::Strategy;
use memaging::Scenario;
use memaging_bench::{banner, fast_mode, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::quick();
    let data = scenario.dataset()?;
    let (train, calib) = scenario.train_calib_split(&data)?;
    let trained = scenario.framework.train_model(&train, Strategy::StT, scenario.seed)?;

    banner("Ablation 1: quantization depth (post-map accuracy, 32 vs 64 levels)");
    let mut t = TextTable::new(&["levels", "post-map accuracy", "map pulses"]);
    for levels in [8usize, 16, 32, 64] {
        let spec = DeviceSpec::with_levels(levels);
        let net = scenario.framework.model.build(scenario.seed)?;
        let mut hw = CrossbarNetwork::new(net, spec, scenario.framework.aging)?;
        hw.restore_software_weights(&trained.network.weight_matrices())?;
        let report = hw.map_weights(MappingStrategy::Fresh, Some((&calib, 32)))?;
        t.row(&[
            format!("{levels}"),
            format!("{:.1}%", 100.0 * report.post_map_accuracy.unwrap_or(0.0)),
            format!("{}", report.stats.pulses),
        ]);
    }
    t.print();
    println!("more levels quantize finer: accuracy rises with depth (paper §II-B).");

    if fast_mode() {
        println!("\n(MEMAGING_FAST=1: skipping the lifetime-sweep ablations)");
        return Ok(());
    }

    banner("Ablation 2: power-acceleration exponent gamma (lifetime sessions)");
    let mut t = TextTable::new(&["gamma", "T+T", "ST+T", "ST+T / T+T"]);
    for gamma in [1.0f64, 2.0, 2.5] {
        let mut s = scenario.clone();
        s.framework.aging = ArrheniusAging {
            power_exponent: gamma,
            // Rescale the magnitude so lifetimes stay in a comparable
            // session range as gamma shifts the typical per-pulse stress.
            a_f: match gamma {
                g if g < 1.5 => 8.0e16,
                g if g < 2.25 => 2.5e16,
                _ => 1.0e16,
            },
            ..Scenario::accelerated_aging()
        };
        let tt = s.run_strategy(Strategy::TT)?.lifetime.sessions.len();
        let stt = s.run_strategy(Strategy::StT)?.lifetime.sessions.len();
        t.row(&[
            format!("{gamma}"),
            format!("{tt}"),
            format!("{stt}"),
            format!("{:.2}x", stt as f64 / tt as f64),
        ]);
    }
    t.print();
    println!(
        "the skewed-training advantage grows with gamma: super-linear Joule\n\
         acceleration amplifies the low-current benefit of large resistances."
    );

    banner("Ablation 3: thermal-crosstalk coupling (lifetime sessions)");
    let mut t = TextTable::new(&["coupling", "T+T", "ST+T", "ST+T / T+T"]);
    for coupling in [0.0f64, 2.0, 4.0] {
        let mut s = scenario.clone();
        s.framework.aging =
            ArrheniusAging { thermal_coupling: coupling, ..Scenario::accelerated_aging() };
        let tt = s.run_strategy(Strategy::TT)?.lifetime.sessions.len();
        let stt = s.run_strategy(Strategy::StT)?.lifetime.sessions.len();
        t.row(&[
            format!("{coupling}"),
            format!("{tt}"),
            format!("{stt}"),
            format!("{:.2}x", stt as f64 / tt as f64),
        ]);
    }
    t.print();
    println!(
        "shared substrate heat spreads each pulse's damage across the array, making\n\
         the array age at its *mean* power — where the skewed distribution wins."
    );

    banner("Ablation 4: prior-work baseline — row-swapping wear leveling (ref. [12])");
    // Swapping levels *local* wear imbalances; it is compared in a
    // local-wear regime (no thermal crosstalk) and in the shared-heat
    // regime of the main scenarios.
    let mut t = TextTable::new(&["configuration", "coupling 0", "coupling 4"]);
    for (label, strategy, wear) in [
        ("T+T", Strategy::TT, false),
        ("T+T + swap", Strategy::TT, true),
        ("ST+T (proposed)", Strategy::StT, false),
    ] {
        let mut sessions = Vec::new();
        for coupling in [0.0f64, 4.0] {
            let mut s = scenario.clone();
            s.framework.aging =
                ArrheniusAging { thermal_coupling: coupling, ..Scenario::accelerated_aging() };
            s.framework.lifetime.wear_leveling = wear;
            sessions.push(s.run_strategy(strategy)?.lifetime.sessions.len());
        }
        t.row(&[label.into(), format!("{}", sessions[0]), format!("{}", sessions[1])]);
    }
    t.print();
    println!(
        "row swapping only levels *local* wear imbalances; once substrate heating\n\
         couples the array (coupling 4), wear is already uniform and swapping cannot\n\
         reduce the total current the weights draw. The paper's training/mapping\n\
         co-optimization attacks the current itself, with no addressing hardware."
    );

    banner("Ablation 5: signed-weight scheme — eq. 4 single-device vs differential pair");
    // Mean conductance is the aging-rate proxy (power per pulse ~ g).
    let mut t = TextTable::new(&["training", "eq. 4 mean g [uS]", "differential mean g [uS]"]);
    for (label, strategy) in [("traditional", Strategy::TT), ("skewed", Strategy::StT)] {
        let model = scenario.framework.train_model(&train, strategy, scenario.seed)?;
        let weights = model.network.weight_matrices();
        // eq. 4 path: map onto a CrossbarNetwork and average all devices.
        let mut hw = CrossbarNetwork::new(
            scenario.framework.model.build(scenario.seed)?,
            DeviceSpec::default(),
            scenario.framework.aging,
        )?;
        hw.restore_software_weights(&weights)?;
        hw.map_weights(MappingStrategy::Fresh, None)?;
        let (mut sum, mut n) = (0.0f64, 0usize);
        for a in hw.arrays() {
            let g = a.conductances();
            sum += g.as_slice().iter().map(|&x| x as f64).sum::<f64>();
            n += g.len();
        }
        let eq4 = sum / n as f64;
        // Differential path: one pair per layer, same device budget proxy.
        let (mut sum, mut n) = (0.0f64, 0usize);
        for w in &weights {
            let mut pair = DifferentialCrossbar::new(
                w.dims()[0],
                w.dims()[1],
                DeviceSpec::default(),
                scenario.framework.aging,
            )?;
            pair.program_weights(w)?;
            sum += pair.mean_conductance() * (2 * w.len()) as f64;
            n += 2 * w.len();
        }
        let diff = sum / n as f64;
        t.row(&[label.into(), format!("{:.1}", eq4 * 1e6), format!("{:.1}", diff * 1e6)]);
    }
    t.print();
    println!(
        "the differential pair parks near-zero weights at g_min on *both* devices, so\n\
         its mean power beats the affine single-device map — at 2x the device count.\n\
         Skewed training narrows the gap by moving the single-device bulk to g_min too."
    );

    banner("Ablation 6: outlier percentile of the mapping range (post-map accuracy)");
    let mut t = TextTable::new(&["percentile", "post-map accuracy"]);
    for pct in [0.0f64, 0.005, 0.02] {
        let net = scenario.framework.model.build(scenario.seed)?;
        let mut hw = CrossbarNetwork::new(net, DeviceSpec::default(), scenario.framework.aging)?;
        hw.set_outlier_percentile(pct);
        hw.restore_software_weights(&trained.network.weight_matrices())?;
        let report = hw.map_weights(MappingStrategy::Fresh, Some((&calib, 32)))?;
        t.row(&[
            format!("{pct}"),
            format!("{:.1}%", 100.0 * report.post_map_accuracy.unwrap_or(0.0)),
        ]);
    }
    t.print();
    println!(
        "clamping straggler weights tightens the mapped range (finer quantization for\n\
         the bulk) at the cost of saturating a handful of outliers; percentile 0 is\n\
         the paper's literal min/max mapping of eq. 4."
    );

    banner("Ablation 7: write-variability robustness (and tuning recovery)");
    let mut t = TextTable::new(&["sigma", "post-program accuracy", "after tuning"]);
    use memaging::crossbar::{tune, TuneConfig};
    use memaging::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    for sigma in [0.0f64, 0.1, 0.3] {
        let net = scenario.framework.model.build(scenario.seed)?;
        let mut hw = CrossbarNetwork::new(net, DeviceSpec::default(), scenario.framework.aging)?;
        hw.restore_software_weights(&trained.network.weight_matrices())?;
        hw.map_weights(MappingStrategy::Fresh, None)?;
        // Re-program every layer with variability sigma.
        let mut rng = StdRng::seed_from_u64(99);
        for (idx, w) in trained.network.weight_matrices().iter().enumerate() {
            let mapping = *hw.mapping(idx).expect("mapped");
            let targets = Tensor::from_fn([w.dims()[0], w.dims()[1]], |i| {
                mapping.weight_to_conductance(w.as_slice()[i] as f64) as f32
            });
            hw.array_mut(idx).program_conductances_noisy(&targets, sigma, &mut rng)?;
        }
        let noisy = hw.evaluate(&calib, 32)?;
        let report = tune(
            &mut hw,
            &calib,
            &TuneConfig { target_accuracy: 0.95, max_iterations: 60, ..TuneConfig::default() },
        )?;
        t.row(&[
            format!("{sigma}"),
            format!("{:.1}%", 100.0 * noisy),
            format!("{:.1}%", 100.0 * report.final_accuracy),
        ]);
    }
    t.print();
    println!(
        "online tuning (eq. 5) is the cleanup mechanism for every residual analog\n\
         error source — here it absorbs cycle-to-cycle programming variability."
    );

    banner("Ablation 8: literature device corners (post-map accuracy)");
    let mut t = TextTable::new(&["device corner", "window", "levels", "post-map accuracy"]);
    for (name, spec) in [
        ("default (filamentary RRAM)", DeviceSpec::default()),
        ("HfOx 1T1R (ref. 9)", DeviceSpec::hfox()),
        ("TaOx (ref. 11)", DeviceSpec::taox()),
        ("TiOx 64-level (ref. 15)", DeviceSpec::tiox()),
    ] {
        let net = scenario.framework.model.build(scenario.seed)?;
        let mut hw = CrossbarNetwork::new(net, spec, scenario.framework.aging)?;
        hw.restore_software_weights(&trained.network.weight_matrices())?;
        let report = hw.map_weights(MappingStrategy::Fresh, Some((&calib, 32)))?;
        t.row(&[
            name.into(),
            format!("{:.0}k-{:.0}k", spec.r_min / 1e3, spec.r_max / 1e3),
            format!("{}", spec.levels),
            format!("{:.1}%", 100.0 * report.post_map_accuracy.unwrap_or(0.0)),
        ]);
    }
    t.print();
    Ok(())
}
