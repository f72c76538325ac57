//! Fault-tolerance integration: stuck-at faults and write variability
//! against the mapped network, and what online tuning can recover.

use memaging::crossbar::{tune, CrossbarNetwork, MappingStrategy, TuneConfig};
use memaging::dataset::{Dataset, SyntheticSpec};
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::nn::{models, train, NoRegularizer, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mapped_network(seed: u64) -> (CrossbarNetwork, Dataset, f64) {
    let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(4, seed)).unwrap();
    data.normalize();
    let mut net = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(seed)).unwrap();
    train(
        &mut net,
        &data,
        &TrainConfig { epochs: 10, target_accuracy: 0.98, ..TrainConfig::default() },
        &NoRegularizer,
    )
    .unwrap();
    let mut hw =
        CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
    hw.map_weights(MappingStrategy::Fresh, None).unwrap();
    let base = hw.evaluate(&data, 64).unwrap();
    (hw, data, base)
}

#[test]
fn stuck_faults_degrade_and_tuning_partially_recovers() {
    let (mut hw, data, base) = mapped_network(300);
    let mut rng = StdRng::seed_from_u64(1);
    for idx in 0..hw.arrays().len() {
        hw.array_mut(idx).inject_stuck_faults(0.25, &mut rng);
    }
    let faulted = hw.evaluate(&data, 64).unwrap();
    assert!(faulted < base - 0.02, "25% stuck faults must cost accuracy: {base} -> {faulted}");
    // Tuning reroutes around the dead devices using the healthy ones.
    let report = tune(
        &mut hw,
        &data,
        &TuneConfig { target_accuracy: base, max_iterations: 200, ..TuneConfig::default() },
    )
    .unwrap();
    assert!(
        report.final_accuracy > faulted,
        "tuning should recover some accuracy: {faulted} -> {}",
        report.final_accuracy
    );
}

#[test]
fn write_variability_costs_accuracy_but_tuning_recovers() {
    let (mut hw, data, base) = mapped_network(303);
    // Reprogram layer 0 with 30% write variability.
    let trained = hw.software().weight_matrices();
    let mapping = *hw.mapping(0).unwrap();
    let w = &trained[0];
    let targets = memaging::tensor::Tensor::from_fn([w.dims()[0], w.dims()[1]], |i| {
        mapping.weight_to_conductance(w.as_slice()[i] as f64) as f32
    });
    let mut rng = StdRng::seed_from_u64(3);
    hw.array_mut(0).program_conductances_noisy(&targets, 0.3, &mut rng).unwrap();
    let noisy_acc = hw.evaluate(&data, 64).unwrap();
    assert!(noisy_acc <= base, "variability cannot improve accuracy: {base} -> {noisy_acc}");
    let report = tune(
        &mut hw,
        &data,
        &TuneConfig { target_accuracy: base - 0.05, max_iterations: 200, ..TuneConfig::default() },
    )
    .unwrap();
    assert!(
        report.converged,
        "tuning should absorb write variability: {:?}",
        report.final_accuracy
    );
}
