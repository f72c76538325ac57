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
use memaging_obs::Recorder;
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
    /// Accuracy at exit.
    pub final_accuracy: f64,
    /// Whether the target accuracy was reached within the budget.
    pub converged: bool,
    /// Accuracy measured at the start of every iteration.
    pub accuracy_history: Vec<f64>,
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

/// [`tune`] with observability: the session is wrapped in a `tune` span,
/// and at exit the `tuner.iterations` / `tuner.pulses` counters and the
/// `tuner.final_accuracy` gauge are recorded. With a disabled recorder this
/// is identical to [`tune`].
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
    let report = tune_inner(network, data, config)?;
    recorder.counter("tuner.iterations", report.iterations as u64);
    recorder.counter("tuner.pulses", report.pulses);
    recorder.gauge("tuner.final_accuracy", report.final_accuracy);
    Ok(report)
}

fn tune_inner(
    network: &mut CrossbarNetwork,
    data: &Dataset,
    config: &TuneConfig,
) -> Result<TuneReport, CrossbarError> {
    let pulses_before = network.total_pulses();
    let mut history = Vec::new();
    let mut best = 0.0f64;
    let num_batches = data.len().div_ceil(config.batch_size.max(1));
    for iteration in 0..config.max_iterations {
        let accuracy = network.evaluate(data, config.batch_size.max(1))?;
        history.push(accuracy);
        best = best.max(accuracy);
        if accuracy >= config.target_accuracy {
            return Ok(TuneReport {
                iterations: iteration + 1,
                pulses: network.total_pulses() - pulses_before,
                final_accuracy: accuracy,
                converged: true,
                accuracy_history: history,
            });
        }
        // Gradient signs at the hardware's current weights. `evaluate`
        // already synced software from hardware.
        let start = (iteration % num_batches) * config.batch_size;
        let end = (start + config.batch_size).min(data.len());
        let batch = data.batch_matrix(start, end);
        let labels = data.batch_labels(start, end);
        network.software_mut().zero_grads();
        network.software_mut().train_step(&batch, labels)?;
        let grads = collect_weight_grads(network);
        network.software_mut().zero_grads();
        apply_sign_pulses(network, &grads, config.gate_fraction);
    }
    let accuracy = network.evaluate(data, config.batch_size.max(1))?;
    history.push(accuracy);
    Ok(TuneReport {
        iterations: config.max_iterations,
        pulses: network.total_pulses() - pulses_before,
        final_accuracy: accuracy,
        converged: accuracy >= config.target_accuracy,
        accuracy_history: history,
    })
}

/// Clones out the weight-gradient tensor of every mappable layer, in order.
fn collect_weight_grads(network: &mut CrossbarNetwork) -> Vec<Tensor> {
    let mut grads = Vec::new();
    network.software_mut().visit_params(&mut |_, kind, _, grad| {
        if kind == ParamKind::Weight {
            grads.push(grad.clone());
        }
    });
    grads
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
        assert!(report.iterations <= config.max_iterations);
        assert_eq!(report.accuracy_history.len(), report.iterations);
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
}
