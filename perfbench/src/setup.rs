//! The shared set-up: the paper's conv-heavy scenario (scaled LeNet-5,
//! ST+AT), its dataset and its trained model.

use std::time::Instant;

use memaging::dataset::Dataset;
use memaging::lifetime::Strategy;
use memaging::nn::Network;
use memaging::obs::{Event, MemorySink, Recorder};
use memaging::Scenario;

use crate::report::Digest;

/// One set-up's products and timings.
pub struct Prepared {
    /// The scenario the model was trained for.
    pub scenario: Scenario,
    /// The held-out calibration split: tuning data and request inputs.
    pub calib: Dataset,
    /// The ST+AT-trained network.
    pub network: Network,
    /// Software accuracy after training (Table I's accuracy column).
    pub software_acc: f64,
    /// Wall time of `Scenario::dataset` plus the split, seconds.
    pub dataset_s: f64,
    /// Wall time of `Framework::train_model`, seconds.
    pub train_s: f64,
    /// Epochs trained, counted from the `train.epochs` counter (traced
    /// set-ups only).
    pub epochs: Option<u64>,
}

impl Prepared {
    /// Digest of the trained weights, to check that every set-up trains
    /// the same model bit for bit.
    pub fn weights_digest(&self) -> u64 {
        let mut d = Digest::default();
        for w in self.network.weight_matrices() {
            for &v in w.as_slice() {
                d.u64(u64::from(v.to_bits()));
            }
        }
        d.value()
    }
}

/// Generates the dataset and trains the model, timing each call. With
/// `traced`, training reports to an in-memory recorder so its epochs can
/// be counted.
///
/// # Errors
///
/// Propagates dataset and training errors.
pub fn prepare(traced: bool) -> Result<Prepared, String> {
    let mut scenario = Scenario::lenet();
    let handle = if traced {
        let (sink, handle) = MemorySink::new();
        scenario.framework.recorder = Recorder::new(vec![Box::new(sink)]);
        Some(handle)
    } else {
        None
    };
    let started = Instant::now();
    let data = scenario.dataset().map_err(|e| format!("dataset: {e}"))?;
    let (train, calib) = scenario.train_calib_split(&data).map_err(|e| format!("split: {e}"))?;
    let dataset_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let trained = scenario
        .framework
        .train_model(&train, Strategy::StAt, scenario.seed)
        .map_err(|e| format!("training: {e}"))?;
    let train_s = started.elapsed().as_secs_f64();
    let epochs = handle.map(|h| {
        h.events()
            .iter()
            .map(|e| match e {
                Event::Counter { name, delta, .. } if name == "train.epochs" => *delta,
                _ => 0,
            })
            .sum()
    });
    scenario.framework.recorder = Recorder::disabled();
    Ok(Prepared {
        scenario,
        calib,
        network: trained.network,
        software_acc: trained.software_accuracy,
        dataset_s,
        train_s,
        epochs,
    })
}
