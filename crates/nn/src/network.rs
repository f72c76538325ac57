//! Sequential network container.

use memaging_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode, ParamKind};
use crate::loss::{accuracy, softmax_cross_entropy, LossOutput};

/// A feed-forward stack of [`Layer`]s.
///
/// The network validates at construction time that consecutive layers agree
/// on feature counts, runs forward/backward passes, and exposes the mappable
/// weight matrices (dense weights and flattened convolution kernels) that the
/// crossbar crate programs onto memristor arrays.
///
/// # Examples
///
/// ```
/// use memaging_nn::{Activation, ActivationFn, Dense, Mode, Network};
/// use memaging_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Box::new(Dense::new(4, 8, &mut rng)),
///     Box::new(Activation::new(ActivationFn::Relu, 8)),
///     Box::new(Dense::new(8, 3, &mut rng)),
/// ])?;
/// let logits = net.forward(&Tensor::ones([2, 4]), Mode::Eval)?;
/// assert_eq!(logits.dims(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network").field("layers", &names).finish()
    }
}

impl Clone for Network {
    /// Deep-copies every layer via [`Layer::clone_box`], so parallel workers
    /// can evaluate independent copies of the same trained network.
    fn clone(&self) -> Self {
        Network { layers: self.layers.iter().map(|l| l.clone_box()).collect() }
    }
}

impl Network {
    /// Creates a network, validating inter-layer feature compatibility.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty stack or mismatched
    /// consecutive feature counts.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig {
                reason: "network needs at least one layer".into(),
            });
        }
        for pair in layers.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.out_features() != b.in_features() {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "layer `{}` outputs {} features but `{}` expects {}",
                        a.name(),
                        a.out_features(),
                        b.name(),
                        b.in_features()
                    ),
                });
            }
        }
        Ok(Network { layers })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Flattened input feature count.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output (class logit) count.
    pub fn out_features(&self) -> usize {
        self.layers.last().expect("nonempty").out_features()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs a forward pass over a `[batch, in_features]` input.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs the forward pass starting at layer `start` on an activation that
    /// has already passed through layers `0..start` — the replay entry point
    /// of the crossbar crate's incremental range-selection engine: the
    /// calibration batch is forwarded through the unchanged prefix once per
    /// sweep, and every candidate window replays only the suffix from the
    /// cached activation.
    ///
    /// `forward_from(0, x, mode)` is exactly [`Network::forward`]: layers are
    /// applied in the same order with the same code path, so splitting a
    /// forward pass at any boundary is bit-identical to running it whole.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `start` exceeds the layer
    /// count, and propagates the first layer error encountered.
    pub fn forward_from(
        &mut self,
        start: usize,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Tensor, NnError> {
        if start > self.layers.len() {
            return Err(NnError::InvalidConfig {
                reason: format!("forward_from start {start} exceeds {} layers", self.layers.len()),
            });
        }
        let mut x = input.clone();
        for layer in &mut self.layers[start..] {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs the forward pass of layers `0..end` only, returning the
    /// intermediate activation that [`Network::forward_from`]`(end, ..)`
    /// accepts. `forward_prefix(num_layers(), ..)` is the full forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `end` exceeds the layer count,
    /// and propagates the first layer error encountered.
    pub fn forward_prefix(
        &mut self,
        end: usize,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Tensor, NnError> {
        if end > self.layers.len() {
            return Err(NnError::InvalidConfig {
                reason: format!("forward_prefix end {end} exceeds {} layers", self.layers.len()),
            });
        }
        let mut x = input.clone();
        for layer in &mut self.layers[..end] {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs a backward pass from a `[batch, out_features]` logit gradient,
    /// accumulating parameter gradients in every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered (including
    /// [`NnError::BackwardBeforeForward`]).
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Forward + loss + backward in one call; returns the loss output.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_step(&mut self, input: &Tensor, labels: &[usize]) -> Result<LossOutput, NnError> {
        let logits = self.forward(input, Mode::Train)?;
        let out = softmax_cross_entropy(&logits, labels)?;
        self.backward(&out.grad_logits)?;
        Ok(out)
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Visits every `(layer_index_in_network, kind, param, grad)`; the layer
    /// index passed to `visitor` counts only *mappable* layers (those with
    /// weight matrices), matching the regularizer's per-layer constants.
    pub fn visit_params(
        &mut self,
        visitor: &mut dyn FnMut(usize, ParamKind, &mut Tensor, &Tensor),
    ) {
        let mut mappable = 0usize;
        for layer in &mut self.layers {
            let has_weights = layer.weight_matrix().is_some();
            let idx = mappable;
            layer.visit_params(&mut |kind, p, g| visitor(idx, kind, p, g));
            if has_weights {
                mappable += 1;
            }
        }
    }

    /// Classification accuracy on a `[batch, in_features]` matrix.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn evaluate(&mut self, input: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
        let logits = self.forward(input, Mode::Eval)?;
        accuracy(&logits, labels)
    }

    /// Indices (into `self.layers()`) of layers that own a mappable weight
    /// matrix, in network order.
    pub fn mappable_layers(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.weight_matrix().is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Clones the mappable weight matrices, in network order.
    pub fn weight_matrices(&self) -> Vec<Tensor> {
        self.layers.iter().filter_map(|l| l.weight_matrix().cloned()).collect()
    }

    /// Borrows the `mappable_index`-th mappable weight matrix without
    /// cloning, or `None` when out of range.
    pub fn weight_matrix(&self, mappable_index: usize) -> Option<&Tensor> {
        self.layers.iter().filter_map(|l| l.weight_matrix()).nth(mappable_index)
    }

    /// The [`LayerKind`] of each mappable layer, in network order — used to
    /// separate conv from FC aging in the lifetime study.
    pub fn mappable_kinds(&self) -> Vec<LayerKind> {
        self.layers.iter().filter(|l| l.weight_matrix().is_some()).map(|l| l.kind()).collect()
    }

    /// Overwrites the mappable weight matrices (e.g. with hardware-read
    /// values), in network order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the count or any shape differs.
    pub fn set_weight_matrices(&mut self, weights: &[Tensor]) -> Result<(), NnError> {
        let mappable: Vec<usize> = self.mappable_layers();
        if weights.len() != mappable.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "expected {} weight matrices, got {}",
                    mappable.len(),
                    weights.len()
                ),
            });
        }
        for (idx, w) in mappable.into_iter().zip(weights) {
            let target =
                self.layers[idx].weight_matrix_mut().expect("mappable layer has weight matrix");
            if target.shape() != w.shape() {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "weight shape mismatch at layer {idx}: {} vs {}",
                        target.shape(),
                        w.shape()
                    ),
                });
            }
            *target = w.clone();
        }
        Ok(())
    }

    /// Network layer index of the `mappable_index`-th mappable layer, or
    /// `None` when out of range. Equivalent to
    /// `self.mappable_layers().get(mappable_index)` without the allocation.
    pub fn mappable_layer_index(&self, mappable_index: usize) -> Option<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.weight_matrix().is_some())
            .nth(mappable_index)
            .map(|(i, _)| i)
    }

    /// Overwrites a single mappable layer's weight matrix in place from a
    /// flat row-major slice — the allocation-free write used by the
    /// incremental candidate-evaluation engine, which replays hundreds of
    /// candidate weight matrices per sweep.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `mappable_index` is out of
    /// range or `values` does not match the matrix's element count.
    pub fn set_weight_matrix(
        &mut self,
        mappable_index: usize,
        values: &[f32],
    ) -> Result<(), NnError> {
        let Some(layer_idx) = self.mappable_layer_index(mappable_index) else {
            return Err(NnError::InvalidConfig {
                reason: format!("mappable layer index {mappable_index} out of range"),
            });
        };
        let target =
            self.layers[layer_idx].weight_matrix_mut().expect("mappable layer has weight matrix");
        if target.len() != values.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "weight length mismatch at layer {layer_idx}: {} vs {}",
                    target.len(),
                    values.len()
                ),
            });
        }
        target.as_mut_slice().copy_from_slice(values);
        Ok(())
    }

    /// Per-mappable-layer standard deviation of weights — the `σᵢ` feeding
    /// the skewed regularizer's `βᵢ = c·σᵢ`.
    pub fn weight_stds(&self) -> Vec<f32> {
        self.weight_matrices()
            .iter()
            .map(|w| {
                let s = memaging_tensor::stats::Summary::of(w.as_slice());
                s.std as f32
            })
            .collect()
    }

    /// Returns `true` if every parameter is finite.
    pub fn all_finite(&mut self) -> bool {
        let mut ok = true;
        self.visit_params(&mut |_, _, p, _| {
            if !p.all_finite() {
                ok = false;
            }
        });
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Activation, ActivationFn};
    use crate::dense::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Box::new(Dense::new(4, 6, &mut rng)),
            Box::new(Activation::new(ActivationFn::Tanh, 6)),
            Box::new(Dense::new(6, 3, &mut rng)),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_incompatible_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let err = Network::new(vec![
            Box::new(Dense::new(4, 6, &mut rng)) as Box<dyn Layer>,
            Box::new(Dense::new(5, 3, &mut rng)),
        ]);
        assert!(matches!(err, Err(NnError::InvalidConfig { .. })));
        assert!(Network::new(vec![]).is_err());
    }

    #[test]
    fn forward_shape() {
        let mut net = mlp(1);
        let y = net.forward(&Tensor::ones([5, 4]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(net.in_features(), 4);
        assert_eq!(net.out_features(), 3);
    }

    #[test]
    fn train_step_produces_gradients() {
        let mut net = mlp(2);
        let x = Tensor::ones([2, 4]);
        let out = net.train_step(&x, &[0, 2]).unwrap();
        assert!(out.loss > 0.0);
        let mut nonzero = 0;
        net.visit_params(&mut |_, _, _, g| {
            if g.as_slice().iter().any(|&v| v != 0.0) {
                nonzero += 1;
            }
        });
        assert!(nonzero >= 3, "expected gradients in most params, got {nonzero}");
        net.zero_grads();
        net.visit_params(&mut |_, _, _, g| {
            assert!(g.as_slice().iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn train_step_leaves_no_forward_caches() {
        // `backward` consumes what the training forward cached, so a trained
        // network holds no batch activations and clones stay cheap. A clone
        // copies any cache left behind, so each layer's clone must refuse a
        // backward without a new forward.
        let mut net = crate::models::lenet5_scaled(1, 3, &mut StdRng::seed_from_u64(4)).unwrap();
        let x = Tensor::from_fn([2, net.in_features()], |i| (i as f32 * 0.37).sin());
        net.train_step(&x, &[0, 2]).unwrap();
        for layer in net.layers() {
            let mut layer = layer.clone_box();
            let grad = Tensor::ones([2, layer.out_features()]);
            assert!(
                matches!(layer.backward(&grad), Err(NnError::BackwardBeforeForward { .. })),
                "{} kept its forward cache",
                layer.name()
            );
        }
        let grad = Tensor::ones([2, net.out_features()]);
        assert!(matches!(net.backward(&grad), Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn visit_params_reports_mappable_layer_indices() {
        let mut net = mlp(3);
        let mut indices = Vec::new();
        net.visit_params(&mut |layer, kind, _, _| {
            if kind == ParamKind::Weight {
                indices.push(layer);
            }
        });
        assert_eq!(indices, vec![0, 1], "two dense layers -> mappable indices 0 and 1");
    }

    #[test]
    fn weight_matrices_round_trip() {
        let mut net = mlp(4);
        let ws = net.weight_matrices();
        assert_eq!(ws.len(), 2);
        let mut modified = ws.clone();
        modified[0].as_mut_slice()[0] = 42.0;
        net.set_weight_matrices(&modified).unwrap();
        assert_eq!(net.weight_matrices()[0].as_slice()[0], 42.0);
        // Wrong count rejected.
        assert!(net.set_weight_matrices(&ws[..1]).is_err());
        // Wrong shape rejected.
        let bad = vec![Tensor::zeros([1, 1]), Tensor::zeros([6, 3])];
        assert!(net.set_weight_matrices(&bad).is_err());
    }

    #[test]
    fn forward_from_zero_matches_full_forward_bitwise() {
        let mut net = mlp(10);
        let x = Tensor::from_fn([5, 4], |i| (i as f32 * 0.3) - ((i % 4) as f32 * 0.7));
        let full = net.forward(&x, Mode::Eval).unwrap();
        let replay = net.forward_from(0, &x, Mode::Eval).unwrap();
        assert_eq!(full.as_slice(), replay.as_slice());
    }

    #[test]
    fn prefix_then_suffix_matches_full_forward_bitwise() {
        let mut net = mlp(11);
        let x = Tensor::from_fn([3, 4], |i| i as f32 * 0.1 - 0.2);
        let full = net.forward(&x, Mode::Eval).unwrap();
        for split in 0..=net.num_layers() {
            let prefix = net.forward_prefix(split, &x, Mode::Eval).unwrap();
            let out = net.forward_from(split, &prefix, Mode::Eval).unwrap();
            assert_eq!(full.as_slice(), out.as_slice(), "split at layer {split} must be exact");
        }
        assert!(net.forward_from(net.num_layers() + 1, &x, Mode::Eval).is_err());
        assert!(net.forward_prefix(net.num_layers() + 1, &x, Mode::Eval).is_err());
    }

    #[test]
    fn set_weight_matrix_writes_in_place() {
        let mut net = mlp(12);
        let mut flat = net.weight_matrices()[1].as_slice().to_vec();
        flat[3] = -9.5;
        net.set_weight_matrix(1, &flat).unwrap();
        assert_eq!(net.weight_matrices()[1].as_slice()[3], -9.5);
        assert_eq!(net.mappable_layer_index(0), Some(0));
        assert_eq!(
            net.mappable_layer_index(1),
            Some(2),
            "dense layers sit at 0 and 2 (tanh between)"
        );
        assert_eq!(net.mappable_layer_index(2), None);
        // Wrong index and wrong length rejected.
        assert!(net.set_weight_matrix(2, &flat).is_err());
        assert!(net.set_weight_matrix(1, &flat[..4]).is_err());
    }

    #[test]
    fn mappable_kinds() {
        let net = mlp(5);
        assert_eq!(
            net.mappable_kinds(),
            vec![LayerKind::FullyConnected, LayerKind::FullyConnected]
        );
    }

    #[test]
    fn evaluate_on_degenerate_logits() {
        let mut net = mlp(6);
        let acc = net.evaluate(&Tensor::ones([4, 4]), &[0, 1, 2, 0]).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn weight_stds_are_positive() {
        let net = mlp(7);
        let stds = net.weight_stds();
        assert_eq!(stds.len(), 2);
        assert!(stds.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn all_finite_detects_poisoned_weights() {
        let mut net = mlp(8);
        assert!(net.all_finite());
        net.visit_params(&mut |_, kind, p, _| {
            if kind == ParamKind::Weight {
                p.as_mut_slice()[0] = f32::NAN;
            }
        });
        assert!(!net.all_finite());
    }
}
