//! Sign-based online tuning (paper §II-C, eq. 5).
//!
//! After hardware mapping, quantization and aged-window clipping leave the
//! implemented weights off their trained values. On hardware, exact
//! derivatives are unavailable; the tuner applies constant-amplitude
//! programming pulses whose *polarity* follows the sign of the cost
//! derivative:
//!
//! ```text
//! Vᵢ ∝ sign(−∂Cost/∂Wᵢ)        (eq. 5)
//! ```
//!
//! One iteration = one mini-batch gradient evaluation at the hardware's
//! present weights, followed by one ±1-level pulse on every gated device.
//! Every pulse ages its device, which is precisely the feedback loop that
//! limits crossbar lifetime.

use memaging_dataset::Dataset;
use memaging_nn::ParamKind;
use memaging_obs::{names, Recorder};
use memaging_tensor::Tensor;

use crate::error::CrossbarError;
use crate::network::CrossbarNetwork;

/// Online-tuning hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneConfig {
    /// Iteration budget; the paper declares the crossbar failed when the
    /// target is not reached within 150 iterations.
    pub max_iterations: usize,
    /// Accuracy that must be reached on the tuning data.
    pub target_accuracy: f64,
    /// Mini-batch size for gradient-sign evaluation.
    pub batch_size: usize,
    /// Only devices whose gradient magnitude exceeds this fraction of the
    /// layer's maximum receive a pulse. Gating avoids pulsing (and aging)
    /// devices whose weights are already adequate.
    pub gate_fraction: f32,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            max_iterations: 150,
            target_accuracy: 0.9,
            batch_size: 32,
            gate_fraction: 0.25,
        }
    }
}

/// Result of an online-tuning session.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Iterations executed (including the final evaluation-only iteration).
    pub iterations: usize,
    /// Total programming pulses applied during tuning.
    pub pulses: u64,
    /// Exact accuracy of the hardware state the session started from.
    pub initial_accuracy: f64,
    /// Accuracy at exit.
    pub final_accuracy: f64,
    /// Whether the target accuracy was reached within the budget.
    pub converged: bool,
}

/// Runs sign-based online tuning until the target accuracy is reached or the
/// iteration budget is exhausted. A non-converging session is *not* an
/// error — the lifetime simulator treats it as the crossbar's end of life —
/// so the failure is reported in [`TuneReport::converged`].
///
/// # Errors
///
/// Returns structural errors only (unmapped layers, shape mismatches).
pub fn tune(
    network: &mut CrossbarNetwork,
    data: &Dataset,
    config: &TuneConfig,
) -> Result<TuneReport, CrossbarError> {
    tune_with_recorder(network, data, config, &Recorder::disabled())
}

/// [`tune`] with observability. The session is wrapped in a `tune` span;
/// inside it the first (exact) evaluation runs in an `evaluate` span, later
/// evaluations in `tune.evaluate`, and each iteration's gradient and pulses
/// in `tune.grad` and `tune.pulse`. At exit the `tuner.iterations`,
/// `tuner.pulses`, `tuner.evaluations` and `tuner.eval_samples` counters
/// and the `tuner.final_accuracy` gauge are recorded. With a disabled
/// recorder this is identical to [`tune`].
///
/// # Errors
///
/// Same as [`tune`].
pub fn tune_with_recorder(
    network: &mut CrossbarNetwork,
    data: &Dataset,
    config: &TuneConfig,
    recorder: &Recorder,
) -> Result<TuneReport, CrossbarError> {
    let _span = recorder.span("tune");
    let report = tune_inner(network, data, config, recorder)?;
    recorder.counter("tuner.iterations", report.iterations as u64);
    recorder.counter("tuner.pulses", report.pulses);
    recorder.gauge("tuner.final_accuracy", report.final_accuracy);
    Ok(report)
}

fn tune_inner(
    network: &mut CrossbarNetwork,
    data: &Dataset,
    config: &TuneConfig,
    recorder: &Recorder,
) -> Result<TuneReport, CrossbarError> {
    let pulses_before = network.total_pulses();
    let batch_size = config.batch_size.max(1);
    let num_batches = data.len().div_ceil(batch_size);
    let (mut evaluations, mut eval_samples) = (0u64, 0u64);
    let mut initial_accuracy = 0.0;
    let mut iteration = 0;
    let final_accuracy = loop {
        // Only the first evaluation and the one after the budget is spent
        // are reported, so only they must run to the end. The others just
        // decide whether to go on, and stop as soon as the target is out of
        // reach (exact, see `memaging_nn::evaluate_reaching`): a pass that
        // completes is bit-identical to the unbounded one. Every pass syncs
        // the software model from the hardware first, which the gradient
        // step below relies on even when the pass stops early.
        let last = iteration == config.max_iterations;
        let reported = iteration == 0 || last;
        let floor = if reported { f64::NEG_INFINITY } else { config.target_accuracy };
        let pass = {
            let _span =
                recorder.span(if iteration == 0 { names::EVALUATE } else { names::TUNE_EVALUATE });
            network.sync_software_from_hardware()?;
            memaging_nn::evaluate_reaching(network.software_mut(), data, batch_size, floor)?
        };
        evaluations += 1;
        eval_samples += pass.samples as u64;
        if iteration == 0 {
            initial_accuracy = pass.accuracy.expect("a reported evaluation runs to the end");
        }
        match pass.accuracy {
            Some(accuracy) if last || accuracy >= config.target_accuracy => break accuracy,
            _ => {}
        }
        let grads = {
            let _span = recorder.span(names::TUNE_GRAD);
            batch_weight_grads(network, data, config, iteration % num_batches)?
        };
        {
            let _span = recorder.span(names::TUNE_PULSE);
            apply_sign_pulses(network, &grads, config.gate_fraction);
        }
        iteration += 1;
    };
    recorder.counter("tuner.evaluations", evaluations);
    recorder.counter("tuner.eval_samples", eval_samples);
    Ok(TuneReport {
        iterations: (iteration + 1).min(config.max_iterations),
        pulses: network.total_pulses() - pulses_before,
        initial_accuracy,
        final_accuracy,
        converged: final_accuracy >= config.target_accuracy,
    })
}

/// The weight gradients of every mappable layer, in order, on mini-batch
/// `index` of `data` at the software model's present (hardware-synced)
/// weights.
fn batch_weight_grads(
    network: &mut CrossbarNetwork,
    data: &Dataset,
    config: &TuneConfig,
    index: usize,
) -> Result<Vec<Tensor>, CrossbarError> {
    let start = index * config.batch_size;
    let end = (start + config.batch_size).min(data.len());
    let batch = data.batch_matrix(start, end);
    let labels = data.batch_labels(start, end);
    let software = network.software_mut();
    software.zero_grads();
    software.train_step(&batch, labels)?;
    let mut grads = Vec::new();
    software.visit_params(&mut |_, kind, _, grad| {
        if kind == ParamKind::Weight {
            grads.push(grad.clone());
        }
    });
    software.zero_grads();
    Ok(grads)
}

/// Rough scalar-op cost of gating plus nudging one device, used to size the
/// parallel grain for pulse application.
const PULSE_OPS_PER_WEIGHT: usize = 16;

/// Applies one ±1-level pulse per gated device: positive gradient means the
/// weight must shrink, i.e. conductance down, i.e. resistance level up.
///
/// Layers pulse in parallel — each worker owns one layer's array, and a
/// device's pulse depends only on its own gradient entry, so the outcome is
/// identical at any thread count.
fn apply_sign_pulses(network: &mut CrossbarNetwork, grads: &[Tensor], gate_fraction: f32) {
    let total: usize = grads.iter().map(Tensor::len).sum();
    let threads = memaging_par::parallelism_for(total * PULSE_OPS_PER_WEIGHT);
    let mut lanes = network.pulse_lanes_mut();
    memaging_par::par_chunks_mut(&mut lanes, 1, threads, |layer, lane| {
        let (array, assignment) = &mut lane[0];
        let grad = &grads[layer];
        let max_mag = grad.as_slice().iter().fold(0.0f32, |m, &g| m.max(g.abs()));
        if max_mag == 0.0 {
            return;
        }
        let threshold = gate_fraction * max_mag;
        let cols = grad.dims()[1];
        for (i, &g) in grad.as_slice().iter().enumerate() {
            if g.abs() <= threshold {
                continue;
            }
            let (row, col) = (i / cols, i % cols);
            let direction: i8 = if g > 0.0 { 1 } else { -1 };
            // Worn-out devices reject pulses; tuning simply skips them.
            let (model, device) = array.device_mut(assignment.physical(row), col);
            let _ = device.nudge(model, direction);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MappingStrategy;
    use memaging_dataset::SyntheticSpec;
    use memaging_device::{ArrheniusAging, DeviceSpec};
    use memaging_nn::{models, train, NoRegularizer, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mapped_setup(seed: u64) -> (CrossbarNetwork, Dataset) {
        let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(3, seed)).unwrap();
        data.normalize();
        let mut net = models::mlp(&[144, 16, 3], &mut StdRng::seed_from_u64(seed)).unwrap();
        let config = TrainConfig { epochs: 12, target_accuracy: 0.98, ..TrainConfig::default() };
        train(&mut net, &data, &config, &NoRegularizer).unwrap();
        let mut cn =
            CrossbarNetwork::new(net, DeviceSpec::default(), ArrheniusAging::default()).unwrap();
        cn.map_weights(MappingStrategy::Fresh, Some((&data, 64))).unwrap();
        (cn, data)
    }

    #[test]
    fn tuning_converges_on_fresh_hardware() {
        let (mut cn, data) = mapped_setup(21);
        let config = TuneConfig { target_accuracy: 0.9, ..TuneConfig::default() };
        let report = tune(&mut cn, &data, &config).unwrap();
        assert!(report.converged, "fresh hardware should tune to 90%: {report:?}");
        assert!(report.iterations >= 1 && report.iterations <= config.max_iterations);
        // A session needs more than its first evaluation exactly when the
        // hardware started below the target.
        assert_eq!(report.iterations > 1, report.initial_accuracy < config.target_accuracy);
    }

    #[test]
    fn already_accurate_hardware_needs_one_iteration() {
        let (mut cn, data) = mapped_setup(22);
        let config = TuneConfig { target_accuracy: 0.3, ..TuneConfig::default() };
        let report = tune(&mut cn, &data, &config).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations, 1);
        assert_eq!(report.pulses, 0, "no pulses when target already met");
    }

    #[test]
    fn impossible_target_exhausts_budget_without_error() {
        let (mut cn, data) = mapped_setup(23);
        let config = TuneConfig {
            target_accuracy: 1.01, // unreachable by construction
            max_iterations: 5,
            ..TuneConfig::default()
        };
        let report = tune(&mut cn, &data, &config).unwrap();
        assert!(!report.converged);
        assert_eq!(report.iterations, 5);
        assert!(report.pulses > 0, "tuning must have tried");
    }

    #[test]
    fn tuning_ages_devices() {
        let (mut cn, data) = mapped_setup(24);
        let stress_before: f64 = cn.arrays().iter().map(|a| a.total_stress()).sum();
        let config =
            TuneConfig { target_accuracy: 1.01, max_iterations: 3, ..TuneConfig::default() };
        tune(&mut cn, &data, &config).unwrap();
        let stress_after: f64 = cn.arrays().iter().map(|a| a.total_stress()).sum();
        assert!(stress_after > stress_before, "tuning pulses must add stress");
    }

    #[test]
    fn tuning_improves_degraded_accuracy() {
        let (mut cn, data) = mapped_setup(25);
        // Corrupt the hardware: push a slice of layer-0 devices 3 levels up.
        {
            let arr = cn.array_mut(0);
            for r in 0..arr.rows().min(40) {
                for c in 0..arr.cols() {
                    let (m, d) = arr.device_mut(r, c);
                    for _ in 0..3 {
                        let _ = d.pulse(m, 1);
                    }
                }
            }
        }
        let before = cn.evaluate(&data, 64).unwrap();
        let config = TuneConfig { target_accuracy: 0.92, ..TuneConfig::default() };
        let report = tune(&mut cn, &data, &config).unwrap();
        assert!(
            report.final_accuracy >= before - 1e-9,
            "tuning must not make things worse: {before} -> {}",
            report.final_accuracy
        );
        assert!(report.converged, "tuner should recover the corruption: {report:?}");
    }

    /// The tuning loop without the early exit: every evaluation runs to the
    /// end. Returns the report the production loop must reproduce, plus the
    /// accuracy measured at every evaluation.
    fn tune_exact(
        network: &mut CrossbarNetwork,
        data: &Dataset,
        config: &TuneConfig,
    ) -> (TuneReport, Vec<f64>) {
        let pulses_before = network.total_pulses();
        let mut history = Vec::new();
        let num_batches = data.len().div_ceil(config.batch_size.max(1));
        for iteration in 0..config.max_iterations {
            let accuracy = network.evaluate(data, config.batch_size.max(1)).unwrap();
            history.push(accuracy);
            if accuracy >= config.target_accuracy {
                let report = TuneReport {
                    iterations: iteration + 1,
                    pulses: network.total_pulses() - pulses_before,
                    initial_accuracy: history[0],
                    final_accuracy: accuracy,
                    converged: true,
                };
                return (report, history);
            }
            let grads = batch_weight_grads(network, data, config, iteration % num_batches).unwrap();
            apply_sign_pulses(network, &grads, config.gate_fraction);
        }
        let accuracy = network.evaluate(data, config.batch_size.max(1)).unwrap();
        history.push(accuracy);
        let report = TuneReport {
            iterations: config.max_iterations,
            pulses: network.total_pulses() - pulses_before,
            initial_accuracy: history[0],
            final_accuracy: accuracy,
            converged: accuracy >= config.target_accuracy,
        };
        (report, history)
    }

    /// A mapped network whose conductances drifted by a relative `sigma`,
    /// so tuning has something to recover.
    fn degraded_setup(seed: u64, sigma: f64) -> (CrossbarNetwork, Dataset) {
        let (mut cn, data) = mapped_setup(seed);
        cn.apply_conductance_drift(1.0, sigma, &mut StdRng::seed_from_u64(seed));
        (cn, data)
    }

    /// Runs the production tuner on a fresh copy of the setup and returns
    /// its report with the `tuner.evaluations` / `tuner.eval_samples`
    /// counter totals.
    fn tune_counted(seed: u64, sigma: f64, config: &TuneConfig) -> (TuneReport, u64, u64) {
        let (mut cn, data) = degraded_setup(seed, sigma);
        let recorder = Recorder::new(Vec::new());
        let report = tune_with_recorder(&mut cn, &data, config, &recorder).unwrap();
        let counters = recorder.snapshot().unwrap().counters;
        let total = |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        (report, total("tuner.evaluations"), total("tuner.eval_samples"))
    }

    #[test]
    fn early_exit_reports_what_the_exact_loop_reports() {
        for (seed, sigma) in [(31, 0.4), (32, 0.5), (35, 0.6), (35, 0.8)] {
            let n = degraded_setup(seed, sigma).1.len() as u64;
            // A target met at once, one met after some iterations, one the
            // budget cannot reach, and an impossible one.
            for (target, max_iterations) in [(0.3, 20), (0.95, 40), (0.999, 6), (1.01, 4)] {
                let config =
                    TuneConfig { target_accuracy: target, max_iterations, ..Default::default() };
                let (mut oracle_cn, data) = degraded_setup(seed, sigma);
                let (expected, history) = tune_exact(&mut oracle_cn, &data, &config);
                let (report, evaluations, samples) = tune_counted(seed, sigma, &config);
                assert_eq!(report, expected, "seed {seed}, sigma {sigma}, target {target}");
                assert_eq!(evaluations as usize, history.len());
                // The first pass, and a converged or budget-ending last
                // one, run to the end; the middle ones may stop early.
                let exact_passes = if evaluations == 1 { 1 } else { 2 };
                assert!(samples >= exact_passes * n && samples <= evaluations * n);
                if target > 1.0 {
                    assert_eq!(
                        samples,
                        2 * n,
                        "an impossible target stops every middle pass at once"
                    );
                }
            }
        }
    }

    #[test]
    fn an_exactly_reachable_target_converges_without_pruning() {
        let (seed, sigma) = (35, 0.8);
        let probe = TuneConfig { target_accuracy: 1.01, max_iterations: 30, ..Default::default() };
        let (mut probe_cn, data) = degraded_setup(seed, sigma);
        let history = tune_exact(&mut probe_cn, &data, &probe).1;
        // Every evaluation after the first that beats all before it: a
        // target equal to its accuracy is first reached there, exactly.
        let records: Vec<usize> =
            (1..history.len()).filter(|&k| history[..k].iter().all(|&a| a < history[k])).collect();
        assert!(records.len() >= 3, "tuning must improve on the drifted start: {history:?}");
        for k in records {
            let config = TuneConfig {
                target_accuracy: history[k],
                max_iterations: 30,
                ..Default::default()
            };
            let (report, _, _) = tune_counted(seed, sigma, &config);
            assert!(report.converged, "accuracy == target must converge: {report:?}");
            assert_eq!(report.iterations, k + 1);
            assert_eq!(report.final_accuracy.to_bits(), history[k].to_bits());
            let (mut oracle_cn, data) = degraded_setup(seed, sigma);
            assert_eq!(report, tune_exact(&mut oracle_cn, &data, &config).0);
        }
    }
}
