//! End-to-end integration: dataset → training → mapping → tuning →
//! lifetime, across crate boundaries.

use memaging::crossbar::{tune, CrossbarNetwork, MappingStrategy, TuneConfig};
use memaging::dataset::{Dataset, SyntheticSpec};
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::lifetime::Strategy;
use memaging::nn::{evaluate, models, train, NoRegularizer, TrainConfig};
use memaging::{Framework, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn blobs(classes: usize, seed: u64) -> Dataset {
    let mut d = Dataset::gaussian_blobs(&SyntheticSpec::small(classes, seed)).unwrap();
    d.normalize();
    d
}

#[test]
fn full_pipeline_software_to_hardware() {
    let data = blobs(4, 100);
    // Software stage.
    let mut net = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(1)).unwrap();
    let config = TrainConfig { epochs: 12, target_accuracy: 0.97, ..TrainConfig::default() };
    let report = train(&mut net, &data, &config, &NoRegularizer).unwrap();
    assert!(report.final_accuracy > 0.9);
    let software_acc = evaluate(&mut net, &data, 64).unwrap();

    // Hardware stage.
    let mut hw =
        CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
    hw.map_weights(MappingStrategy::Fresh, None).unwrap();
    let mapped_acc = hw.evaluate(&data, 64).unwrap();
    assert!(
        mapped_acc > software_acc - 0.2,
        "mapping lost too much: {software_acc} -> {mapped_acc}"
    );

    // Tuning recovers (most of) the quantization loss.
    let cfg = TuneConfig { target_accuracy: software_acc - 0.05, ..TuneConfig::default() };
    let tuned = tune(&mut hw, &data, &cfg).unwrap();
    assert!(tuned.converged, "tuning should converge on fresh hardware: {tuned:?}");
    assert!(tuned.final_accuracy >= software_acc - 0.05);
}

#[test]
fn aging_aware_mapping_beats_fresh_on_aged_hardware() {
    // Age the arrays, then compare post-map accuracy fresh-vs-aware. This is
    // the paper's core hardware claim (SIV-B).
    let data = blobs(4, 101);
    let mut net = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(2)).unwrap();
    let config = TrainConfig { epochs: 12, target_accuracy: 0.97, ..TrainConfig::default() };
    train(&mut net, &data, &config, &NoRegularizer).unwrap();
    let trained = net.weight_matrices();

    // Build two identical hardware instances and age them identically.
    let aging = ArrheniusAging { a_f: 2.0e17, ..ArrheniusAging::default() };
    let make_aged = |net: memaging::nn::Network| {
        let mut hw = CrossbarNetwork::new(net, DeviceSpec::default(), aging).unwrap();
        hw.map_weights(MappingStrategy::Fresh, None).unwrap();
        // Heavy uniform tuning-like cycling via repeated remapping: drift
        // moves every device off its target, so each remap pulses it back.
        for _ in 0..20 {
            hw.restore_software_weights(&trained).unwrap();
            hw.map_weights(MappingStrategy::Fresh, None).unwrap();
            hw.apply_conductance_drift(1.0, 0.05, &mut StdRng::seed_from_u64(3));
        }
        hw
    };
    let mut net2 = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(2)).unwrap();
    train(&mut net2, &data, &config, &NoRegularizer).unwrap();

    let mut fresh_mapped = make_aged(net2);
    let mut aware_mapped = {
        let mut net3 = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(2)).unwrap();
        train(&mut net3, &data, &config, &NoRegularizer).unwrap();
        make_aged(net3)
    };

    fresh_mapped.restore_software_weights(&trained).unwrap();
    fresh_mapped.map_weights(MappingStrategy::Fresh, None).unwrap();
    aware_mapped.restore_software_weights(&trained).unwrap();
    let aware_report =
        aware_mapped.map_weights(MappingStrategy::AgingAware, Some((&data, 64))).unwrap();

    let fresh_acc = fresh_mapped.evaluate(&data, 64).unwrap();
    let aware_acc = aware_mapped.evaluate(&data, 64).unwrap();
    assert!(
        aware_acc >= fresh_acc - 0.02,
        "aging-aware mapping must not lose to fresh mapping on aged arrays: \
         fresh {fresh_acc} vs aware {aware_acc}"
    );
    // The aware mapping must actually have adapted its window.
    assert!(
        aware_report.windows.iter().any(|w| w.r_max < DeviceSpec::default().r_max - 1.0),
        "expected at least one reduced common window: {:?}",
        aware_report.windows
    );
}

#[test]
fn framework_runs_end_to_end() {
    let data = blobs(4, 102);
    let mut framework = Framework::new(ModelKind::Mlp(vec![144, 16, 4]));
    framework.plan.pre_epochs = 8;
    framework.plan.skew_epochs = 6;
    framework.lifetime.max_sessions = 3;
    framework.lifetime.target_accuracy = 0.8;
    framework.lifetime.max_tuning_iterations = 40;
    let outcome = framework.run_strategy(&data, Strategy::StAt, 5).unwrap();
    assert!(outcome.software_accuracy > 0.8);
    assert!(!outcome.lifetime.sessions.is_empty());
    // Session telemetry is internally consistent.
    for s in &outcome.lifetime.sessions {
        assert!(s.accuracy >= 0.0 && s.accuracy <= 1.0);
        assert!(s.tuning_iterations >= 1);
        assert_eq!(s.per_layer_mean_r_max.len(), outcome.layer_kinds.len());
    }
}

#[test]
fn tuning_accuracy_is_reported_against_hardware_reads() {
    // After tuning, the software model must equal the hardware read-back.
    let data = blobs(3, 103);
    let mut net = models::mlp(&[144, 12, 3], &mut StdRng::seed_from_u64(7)).unwrap();
    train(&mut net, &data, &TrainConfig { epochs: 8, ..TrainConfig::default() }, &NoRegularizer)
        .unwrap();
    let mut hw =
        CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
    hw.map_weights(MappingStrategy::Fresh, None).unwrap();
    tune(&mut hw, &data, &TuneConfig { target_accuracy: 0.8, ..TuneConfig::default() }).unwrap();
    let hardware = hw.read_weights().unwrap();
    let software = hw.software().weight_matrices();
    for (h, s) in hardware.iter().zip(&software) {
        assert_eq!(h, s, "software copy must mirror hardware after tuning");
    }
}
