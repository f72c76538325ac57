//! Mini-batch training loop with accuracy tracking.

use memaging_dataset::Dataset;
use memaging_obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::NnError;
use crate::network::Network;
use crate::optimizer::Sgd;
use crate::regularizer::Regularizer;

/// SGD momentum coefficient of every training run (paper eq. 3).
const MOMENTUM: f32 = 0.9;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Shuffle seed (dataset order is re-drawn each epoch).
    pub seed: u64,
    /// Stop early once this training accuracy is reached (1.0 disables).
    pub target_accuracy: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            learning_rate: 0.05,
            seed: 0,
            target_accuracy: 1.0,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub loss: f64,
    /// Training accuracy measured after the epoch.
    pub accuracy: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Telemetry for every completed epoch.
    pub history: Vec<EpochStats>,
    /// Final training accuracy.
    pub final_accuracy: f64,
}

/// Trains `network` on `data` with SGD and the given regularizer.
///
/// This is the paper's "software training" stage (Section II-A): plain
/// backprop on the cross-entropy cost, plus whatever weight penalty the
/// caller supplies — [`L2`](crate::L2) for the `T` baseline,
/// [`SkewedL2`](crate::SkewedL2) for the proposed `ST` configuration.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for bad hyper-parameters,
/// [`NnError::Diverged`] if the loss or weights stop being finite, or any
/// propagated layer error.
///
/// # Examples
///
/// ```
/// use memaging_dataset::{Dataset, SyntheticSpec};
/// use memaging_nn::{models, train, NoRegularizer, TrainConfig};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(3, 7))?;
/// data.normalize();
/// let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(0))?;
/// let config = TrainConfig { epochs: 3, ..TrainConfig::default() };
/// let report = train(&mut net, &data, &config, &NoRegularizer)?;
/// assert!(!report.history.is_empty() && report.history.len() <= 3);
/// # Ok(())
/// # }
/// ```
pub fn train<R: Regularizer + ?Sized>(
    network: &mut Network,
    data: &Dataset,
    config: &TrainConfig,
    regularizer: &R,
) -> Result<TrainReport, NnError> {
    train_with_recorder(network, data, config, regularizer, &Recorder::disabled())
}

/// [`train`] with observability: the run is wrapped in a `train` span, and
/// each epoch records `train.epochs`, `train.epoch_loss` and
/// `train.accuracy` on `recorder`. With a disabled recorder this is
/// identical to [`train`].
///
/// # Errors
///
/// Same as [`train`].
pub fn train_with_recorder<R: Regularizer + ?Sized>(
    network: &mut Network,
    data: &Dataset,
    config: &TrainConfig,
    regularizer: &R,
    recorder: &Recorder,
) -> Result<TrainReport, NnError> {
    let _span = recorder.span("train");
    if config.epochs == 0 || config.batch_size == 0 {
        return Err(NnError::InvalidConfig { reason: "epochs and batch_size must be > 0".into() });
    }
    let mut optimizer = Sgd::new(config.learning_rate, MOMENTUM)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let shuffled = data.shuffled(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (batch, labels) in shuffled.batches(config.batch_size) {
            let out = network.train_step(&batch, labels)?;
            if !out.loss.is_finite() {
                return Err(NnError::Diverged { epoch });
            }
            loss_sum += out.loss as f64;
            batches += 1;
            optimizer.step(network, regularizer)?;
        }
        if !network.all_finite() {
            return Err(NnError::Diverged { epoch });
        }
        let accuracy = evaluate(network, data, config.batch_size)?;
        let loss = loss_sum / batches.max(1) as f64;
        recorder.counter("train.epochs", 1);
        recorder.observe("train.epoch_loss", loss);
        recorder.gauge("train.accuracy", accuracy);
        history.push(EpochStats { epoch, loss, accuracy });
        if accuracy >= config.target_accuracy {
            break;
        }
    }
    let final_accuracy = history.last().map_or(0.0, |h| h.accuracy);
    Ok(TrainReport { history, final_accuracy })
}

/// Evaluates classification accuracy over a whole dataset in batches: the
/// unbounded call of [`evaluate_reaching`].
///
/// # Errors
///
/// Propagates layer errors.
pub fn evaluate(network: &mut Network, data: &Dataset, batch_size: usize) -> Result<f64, NnError> {
    let pass = evaluate_reaching(network, data, batch_size, f64::NEG_INFINITY)?;
    Ok(pass.accuracy.expect("an unbounded pass runs to the end"))
}

/// Outcome of [`evaluate_reaching`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The exact accuracy over the whole dataset, or `None` when the pass
    /// stopped early because the accuracy had provably fallen below the
    /// target.
    pub accuracy: Option<f64>,
    /// Samples pushed through the forward pass.
    pub samples: usize,
}

/// Evaluates classification accuracy in batches, stopping between batches
/// once even a perfect score on the remaining batches could not bring the
/// accuracy up to `target`.
///
/// The bound runs the same fold as the accuracy with a batch accuracy of
/// `1.0` for every remaining batch. Every batch accuracy is at most `1.0`,
/// and rounded addition, multiplication by a positive count and division by
/// a positive total are all monotone, so the bound is never below the
/// accuracy the full pass would report: a stopped pass is certainly below
/// `target` (no slack needed), and a pass that runs to the end reports the
/// exact accuracy bit for bit. With `target = -∞` (see [`evaluate`]) the
/// pass never stops early.
///
/// # Errors
///
/// Propagates layer errors.
pub fn evaluate_reaching(
    network: &mut Network,
    data: &Dataset,
    batch_size: usize,
    target: f64,
) -> Result<Evaluation, NnError> {
    let batch_size = batch_size.max(1);
    let total = data.len();
    let mut correct = 0.0f64;
    let mut samples = 0usize;
    for (batch, labels) in data.batches(batch_size) {
        // The fold below with `acc = 1.0`, whose product is the count.
        let mut upper = correct;
        for start in (samples..total).step_by(batch_size) {
            upper += batch_size.min(total - start) as f64;
        }
        if upper / (total as f64) < target {
            return Ok(Evaluation { accuracy: None, samples });
        }
        let acc = network.evaluate(&batch, labels)?;
        correct += acc * labels.len() as f64;
        samples += labels.len();
    }
    let accuracy = if total == 0 { 0.0 } else { correct / total as f64 };
    Ok(Evaluation { accuracy: Some(accuracy), samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::regularizer::{NoRegularizer, SkewedL2};
    use memaging_dataset::SyntheticSpec;
    use memaging_tensor::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(classes: usize, seed: u64) -> Dataset {
        let mut d = Dataset::gaussian_blobs(&SyntheticSpec::small(classes, seed)).unwrap();
        d.normalize();
        d
    }

    #[test]
    fn training_reaches_high_accuracy_on_blobs() {
        let data = blobs(4, 1);
        let mut net = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(2)).unwrap();
        let config = TrainConfig { epochs: 15, target_accuracy: 0.97, ..TrainConfig::default() };
        let report = train(&mut net, &data, &config, &NoRegularizer).unwrap();
        assert!(
            report.final_accuracy > 0.9,
            "expected >90% train accuracy, got {}",
            report.final_accuracy
        );
    }

    #[test]
    fn early_stop_on_target_accuracy() {
        let data = blobs(3, 2);
        let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(3)).unwrap();
        let config = TrainConfig { epochs: 50, target_accuracy: 0.8, ..TrainConfig::default() };
        let report = train(&mut net, &data, &config, &NoRegularizer).unwrap();
        assert!(report.history.len() < 50, "early stop expected");
        assert!(report.final_accuracy >= 0.8);
    }

    #[test]
    fn rejects_bad_config() {
        let data = blobs(2, 3);
        let mut net = models::mlp(&[144, 2], &mut StdRng::seed_from_u64(4)).unwrap();
        let config = TrainConfig { epochs: 0, ..TrainConfig::default() };
        assert!(train(&mut net, &data, &config, &NoRegularizer).is_err());
    }

    #[test]
    fn skewed_training_produces_right_skewed_weights() {
        // The paper's core training claim: with lambda1 >> lambda2 around a
        // positive beta, trained weights concentrate right of their old mass.
        let data = blobs(4, 5);
        let mut net = models::mlp(&[144, 24, 4], &mut StdRng::seed_from_u64(6)).unwrap();
        let pre = TrainConfig { epochs: 8, ..TrainConfig::default() };
        train(&mut net, &data, &pre, &NoRegularizer).unwrap();
        let before: Vec<f32> =
            net.weight_matrices().iter().flat_map(|w| w.as_slice().to_vec()).collect();
        let before_mean = Summary::of(&before).mean;

        let stds = net.weight_stds();
        let reg = SkewedL2::from_layer_stds(&stds, 1.0, 5e-3, 5e-4);
        let post = TrainConfig { epochs: 10, ..TrainConfig::default() };
        let report = train(&mut net, &data, &post, &reg).unwrap();
        let after: Vec<f32> =
            net.weight_matrices().iter().flat_map(|w| w.as_slice().to_vec()).collect();
        let after_sum = Summary::of(&after);
        assert!(
            after_sum.mean > before_mean,
            "skewed training should shift mass right: {before_mean} -> {}",
            after_sum.mean
        );
        assert!(report.final_accuracy > 0.85, "accuracy collapsed: {}", report.final_accuracy);
    }

    #[test]
    fn evaluate_matches_manual_count() {
        let data = blobs(3, 9);
        let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(8)).unwrap();
        let a = evaluate(&mut net, &data, 7).unwrap();
        let b = evaluate(&mut net, &data, 64).unwrap();
        assert!((a - b).abs() < 1e-9, "batch size must not change accuracy");
    }

    #[test]
    fn evaluate_reaching_stops_only_below_the_target() {
        let data = blobs(3, 9);
        let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(8)).unwrap();
        let exact = evaluate(&mut net, &data, 7).unwrap();
        assert!(exact < 1.0, "an untrained network must miss some samples");
        // A target the pass meets exactly runs to the end, bit for bit.
        let met = evaluate_reaching(&mut net, &data, 7, exact).unwrap();
        assert_eq!(met.accuracy.map(f64::to_bits), Some(exact.to_bits()));
        assert_eq!(met.samples, data.len());
        // One ulp more is out of reach: the pass stops before its end.
        let missed = evaluate_reaching(&mut net, &data, 7, exact.next_up()).unwrap();
        assert_eq!(missed.accuracy, None);
        assert!(missed.samples < data.len());
    }

    #[test]
    fn lenet_scaled_trains_on_blobs() {
        let data = blobs(4, 11);
        let mut net = models::lenet5_scaled(1, 4, &mut StdRng::seed_from_u64(12)).unwrap();
        let config = TrainConfig {
            epochs: 6,
            learning_rate: 0.03,
            target_accuracy: 0.95,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &data, &config, &NoRegularizer).unwrap();
        assert!(
            report.final_accuracy > 0.7,
            "LeNet-scaled should learn blobs, got {}",
            report.final_accuracy
        );
    }
}
