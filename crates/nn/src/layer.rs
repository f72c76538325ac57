//! The [`Layer`] trait: the unit of composition for networks.

use memaging_tensor::Tensor;

use crate::error::NnError;

/// Whether a forward pass is part of training (activations cached for
/// backprop) or pure inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: activations are cached for backprop.
    Train,
    /// Inference: deterministic, no gradient bookkeeping required.
    Eval,
}

/// The structural role of a layer — used by the lifetime study to separate
/// convolutional from fully-connected aging (paper Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution (mappable onto crossbars).
    Convolution,
    /// Fully-connected / dense (mappable onto crossbars).
    FullyConnected,
    /// Element-wise activation.
    Activation,
    /// Spatial pooling.
    Pooling,
}

/// Distinguishes weight tensors (mapped onto memristors, regularized) from
/// bias tensors (kept in peripheral digital logic, not regularized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// A weight matrix/kernel tensor.
    Weight,
    /// A bias vector.
    Bias,
}

/// A differentiable network layer operating on `[batch, features]` matrices.
///
/// Layers own their parameters and gradients. `forward` in [`Mode::Train`]
/// must cache whatever `backward` needs; `backward` consumes the cache and
/// accumulates parameter gradients (they are *not* zeroed implicitly — call
/// [`Layer::zero_grads`] between steps).
///
/// `Send + Sync` is a supertrait so networks can be cloned into parallel
/// workers (e.g. per-worker evaluation copies in the mapping pipeline); all
/// layers are plain owned data, so this costs nothing.
pub trait Layer: Send + Sync {
    /// Short static name for error messages and reports.
    fn name(&self) -> &'static str;

    /// The structural role of this layer.
    fn kind(&self) -> LayerKind;

    /// Computes the layer output for a `[batch, in_features]` input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the feature count is wrong, or a
    /// wrapped tensor error.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError>;

    /// Propagates `grad_out` (gradient w.r.t. this layer's output) back to a
    /// gradient w.r.t. its input, accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward activations
    /// are cached, or a wrapped tensor error.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// Number of input features this layer expects.
    fn in_features(&self) -> usize;

    /// Number of output features this layer produces.
    fn out_features(&self) -> usize;

    /// Visits every `(kind, parameter, gradient)` triple in a stable order.
    ///
    /// The default implementation visits nothing (parameter-free layer).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamKind, &mut Tensor, &Tensor)) {
        let _ = visitor;
    }

    /// Zeroes all parameter gradients. Default: no-op.
    fn zero_grads(&mut self) {}

    /// The layer's mappable weight matrix (kernels flattened to 2-D for
    /// convolutions), if it has one.
    fn weight_matrix(&self) -> Option<&Tensor> {
        None
    }

    /// Mutable access to the mappable weight matrix, if any. Used to write
    /// back hardware-quantized weights before tuning.
    fn weight_matrix_mut(&mut self) -> Option<&mut Tensor> {
        None
    }

    /// Clones this layer behind a fresh box, preserving its parameters
    /// (networks are cloned into parallel evaluation workers, so cached
    /// activations need not survive the copy).
    fn clone_box(&self) -> Box<dyn Layer>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_and_kinds_are_comparable() {
        assert_ne!(Mode::Train, Mode::Eval);
        assert_eq!(LayerKind::Convolution, LayerKind::Convolution);
        assert_ne!(ParamKind::Weight, ParamKind::Bias);
    }

    #[derive(Clone)]
    struct Null;
    impl Layer for Null {
        fn name(&self) -> &'static str {
            "null"
        }
        fn kind(&self) -> LayerKind {
            LayerKind::Activation
        }
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor, NnError> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
            Ok(grad_out.clone())
        }
        fn in_features(&self) -> usize {
            0
        }
        fn out_features(&self) -> usize {
            0
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn default_trait_methods() {
        let mut l = Null;
        let mut visited = 0;
        l.visit_params(&mut |_, _, _| visited += 1);
        assert_eq!(visited, 0);
        l.zero_grads();
        assert!(l.weight_matrix().is_none());
        assert!(l.weight_matrix_mut().is_none());
    }
}
