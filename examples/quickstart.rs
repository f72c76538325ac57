//! Quickstart: train a small network, map it onto memristor crossbars,
//! online-tune, and report the hardware accuracy and aging cost.
//!
//! Run with:
//! ```text
//! cargo run --release -p memaging --example quickstart
//! ```

use memaging::crossbar::{tune, CrossbarNetwork, MappingStrategy, TuneConfig};
use memaging::dataset::{Dataset, SyntheticSpec};
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::nn::{evaluate, models, train, NoRegularizer, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic 4-class image dataset (CIFAR stand-in, see DESIGN.md).
    let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(4, 42))?;
    data.normalize();
    println!("dataset: {} samples, {} classes", data.len(), data.num_classes());

    // 2. Software training (paper §II-A).
    let mut network = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(0))?;
    let config = TrainConfig { epochs: 12, target_accuracy: 0.98, ..TrainConfig::default() };
    let report = train(&mut network, &data, &config, &NoRegularizer)?;
    println!(
        "software training: {:.1}% accuracy in {} epochs",
        100.0 * report.final_accuracy,
        report.history.len()
    );
    let software_accuracy = evaluate(&mut network, &data, 64)?;

    // 3. Hardware mapping onto fresh crossbars (paper §II-B, eq. 4).
    let mut hardware =
        CrossbarNetwork::new(network, DeviceSpec::default(), ArrheniusAging::default())?;
    let map = hardware.map_weights(MappingStrategy::Fresh, None)?;
    println!(
        "mapping: {} pulses, {} clipped devices, post-map accuracy {:.1}%",
        map.stats.pulses,
        map.stats.clipped,
        100.0 * hardware.evaluate(&data, 64)?
    );

    // 4. Online tuning (paper §II-C, eq. 5).
    let tune_cfg =
        TuneConfig { target_accuracy: software_accuracy - 0.02, ..TuneConfig::default() };
    let tuned = tune(&mut hardware, &data, &tune_cfg)?;
    println!(
        "online tuning: {} iterations, {} pulses, final accuracy {:.1}% (converged: {})",
        tuned.iterations,
        tuned.pulses,
        100.0 * tuned.final_accuracy,
        tuned.converged
    );

    // 5. The aging cost of deployment so far.
    for (i, array) in hardware.arrays().iter().enumerate() {
        println!(
            "layer {i}: {} devices, {} total pulses, mean aged R_max {:.1} kOhm",
            array.rows() * array.cols(),
            array.total_pulses(),
            array.mean_aged_r_max() / 1e3
        );
    }
    Ok(())
}
