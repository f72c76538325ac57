//! Model-level integration: the paper's reference architectures train on
//! the synthetic workloads and survive the hardware pipeline.

use memaging::crossbar::{tune, CrossbarNetwork, MappingStrategy, TuneConfig};
use memaging::dataset::{Dataset, SyntheticSpec};
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::nn::{models, train, LayerKind, NoRegularizer, TrainConfig};
use memaging::ModelKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lenet_scaled_full_pipeline() {
    let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(10, 200)).unwrap();
    data.normalize();
    let mut net = models::lenet5_scaled(1, 10, &mut StdRng::seed_from_u64(1)).unwrap();
    let config = TrainConfig {
        epochs: 10,
        learning_rate: 0.03,
        target_accuracy: 0.9,
        ..TrainConfig::default()
    };
    let report = train(&mut net, &data, &config, &NoRegularizer).unwrap();
    assert!(report.final_accuracy > 0.6, "LeNet should learn: {}", report.final_accuracy);
    let mut hw =
        CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
    hw.map_weights(MappingStrategy::Fresh, None).unwrap();
    // Quantization on the resistance-uniform grid costs real accuracy for
    // conv nets (coarse conductance steps near g_max, paper Fig. 3c); online
    // tuning is what recovers it (paper SII-C).
    let mapped_acc = hw.evaluate(&data, 50).unwrap();
    assert!(mapped_acc > 0.3, "mapping should leave a tunable network");
    let tuned = tune(
        &mut hw,
        &data,
        &TuneConfig { target_accuracy: report.final_accuracy - 0.05, ..TuneConfig::default() },
    )
    .unwrap();
    assert!(tuned.converged, "tuning must recover quantization loss: {:?}", tuned.final_accuracy);
    // 5 mappable layers: 2 conv + 3 FC.
    assert_eq!(hw.arrays().len(), 5);
    assert_eq!(hw.layer_kinds().iter().filter(|k| **k == LayerKind::Convolution).count(), 2);
}

#[test]
fn full_size_builders_have_paper_structure() {
    // Structure checks on the real LeNet-5 / VGG-16 (no training; they are
    // full-scale).
    let lenet = ModelKind::Lenet5 { channels: 3, classes: 10 }.build(1).unwrap();
    assert_eq!(lenet.in_features(), 3 * 32 * 32);
    assert_eq!(lenet.mappable_kinds().len(), 5);

    let vgg = ModelKind::Vgg16 { channels: 3, classes: 100 }.build(1).unwrap();
    let kinds = vgg.mappable_kinds();
    assert_eq!(kinds.len(), 16);
    assert_eq!(kinds.iter().filter(|k| **k == LayerKind::Convolution).count(), 13);
    assert_eq!(kinds.iter().filter(|k| **k == LayerKind::FullyConnected).count(), 3);
    assert_eq!(vgg.out_features(), 100);
}

#[test]
fn vgg_scaled_trains_a_little_and_maps() {
    // A short smoke training run on the shapes dataset: loss must fall and
    // the 16-layer network must survive hardware mapping.
    let spec = SyntheticSpec {
        classes: 5,
        channels: 1,
        height: 16,
        width: 16,
        samples_per_class: 12,
        noise_std: 0.25,
        seed: 300,
    };
    let mut data = Dataset::shapes(&spec).unwrap();
    data.normalize();
    let mut net = models::vgg16_scaled(1, 5, &mut StdRng::seed_from_u64(2)).unwrap();
    let config =
        TrainConfig { epochs: 4, learning_rate: 0.02, batch_size: 10, ..TrainConfig::default() };
    let report = train(&mut net, &data, &config, &NoRegularizer).unwrap();
    assert!(
        report.history.last().unwrap().loss < report.history.first().unwrap().loss,
        "loss should decrease: {:?}",
        report.history
    );
    let mut hw =
        CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
    let map = hw.map_weights(MappingStrategy::Fresh, None).unwrap();
    assert!(map.stats.pulses > 0);
    assert_eq!(hw.arrays().len(), 16);
}

#[test]
fn device_counts_scale_with_architecture() {
    let lenet = ModelKind::Lenet5Scaled { channels: 1, classes: 10 }.build(3).unwrap();
    let lenet_devices: usize = lenet.weight_matrices().iter().map(|w| w.len()).sum();
    let mlp = ModelKind::Mlp(vec![144, 16, 10]).build(3).unwrap();
    let mlp_devices: usize = mlp.weight_matrices().iter().map(|w| w.len()).sum();
    assert!(lenet_devices > mlp_devices / 2, "sanity: both in the thousands");
    let hw = CrossbarNetwork::new(lenet, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
    let array_devices: usize = hw.arrays().iter().map(|a| a.rows() * a.cols()).sum();
    assert_eq!(array_devices, lenet_devices, "one device per weight");
}
