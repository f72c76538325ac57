//! Fully-connected (dense) layer.

use memaging_tensor::{init, ops, Tensor};
use rand::Rng;

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode, ParamKind};

/// A fully-connected layer: `y = x · W + b` with `W: [in, out]`.
///
/// This is the layer shape that maps directly onto a memristor crossbar:
/// `W[i][j]` becomes the conductance of the device at row `i`, column `j`.
///
/// # Examples
///
/// ```
/// use memaging_nn::{Dense, Layer, Mode};
/// use memaging_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// let mut layer = Dense::new(4, 2, &mut StdRng::seed_from_u64(0));
/// let x = Tensor::ones([3, 4]);
/// let y = layer.forward(&x, Mode::Eval)?;
/// assert_eq!(y.dims(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0, "dense dims must be nonzero");
        Dense {
            weights: init::xavier_uniform(
                [in_features, out_features],
                in_features,
                out_features,
                rng,
            ),
            bias: Tensor::zeros([out_features]),
            grad_weights: Tensor::zeros([in_features, out_features]),
            grad_bias: Tensor::zeros([out_features]),
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Creates a dense layer from explicit weights and bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `weights` is not rank 2 or
    /// `bias` length differs from the weight column count.
    pub fn from_parts(weights: Tensor, bias: Tensor) -> Result<Self, NnError> {
        if weights.rank() != 2 {
            return Err(NnError::InvalidConfig {
                reason: format!("dense weights must be rank 2, got {}", weights.rank()),
            });
        }
        let (in_f, out_f) = (weights.dims()[0], weights.dims()[1]);
        if bias.len() != out_f {
            return Err(NnError::InvalidConfig {
                reason: format!("bias length {} != out features {}", bias.len(), out_f),
            });
        }
        Ok(Dense {
            grad_weights: Tensor::zeros([in_f, out_f]),
            grad_bias: Tensor::zeros([out_f]),
            cached_input: None,
            in_features: in_f,
            out_features: out_f,
            weights,
            bias,
        })
    }

    /// The weight matrix `[in, out]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn kind(&self) -> LayerKind {
        LayerKind::FullyConnected
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::BadInput {
                layer: "dense",
                expected: self.in_features,
                actual: if input.rank() == 2 { input.dims()[1] } else { input.len() },
            });
        }
        let out = ops::matmul(input, &self.weights)?;
        let out = ops::add_bias_rows(&out, &self.bias)?;
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input =
            self.cached_input.take().ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        // dW += x^T · dy ; db += column sums of dy ; dx = dy · W^T
        let dw = ops::matmul_transpose_a(&input, grad_out)?;
        self.grad_weights.axpy(1.0, &dw)?;
        let db = ops::sum_rows(grad_out)?;
        self.grad_bias.axpy(1.0, &db)?;
        let dx = ops::matmul_transpose_b(grad_out, &self.weights)?;
        Ok(dx)
    }

    fn in_features(&self) -> usize {
        self.in_features
    }

    fn out_features(&self) -> usize {
        self.out_features
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamKind, &mut Tensor, &Tensor)) {
        visitor(ParamKind::Weight, &mut self.weights, &self.grad_weights);
        visitor(ParamKind::Bias, &mut self.bias, &self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weights.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn weight_matrix(&self) -> Option<&Tensor> {
        Some(&self.weights)
    }

    fn weight_matrix_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_computes_affine_map() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]).unwrap();
        let mut layer = Dense::from_parts(w, b).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn forward_rejects_wrong_features() {
        let mut layer = Dense::new(3, 2, &mut rng());
        let x = Tensor::ones([1, 4]);
        assert!(matches!(layer.forward(&x, Mode::Eval), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Dense::new(3, 2, &mut rng());
        let g = Tensor::ones([1, 2]);
        assert!(matches!(layer.backward(&g), Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut layer = Dense::new(3, 2, &mut rng());
        let x = Tensor::ones([4, 3]);
        layer.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones([4, 2]);
        let dx = layer.backward(&g).unwrap();
        assert_eq!(dx.dims(), &[4, 3]);
        let mut seen = Vec::new();
        layer.visit_params(&mut |kind, p, gr| {
            seen.push((kind, p.dims().to_vec(), gr.dims().to_vec()));
        });
        assert_eq!(seen[0].0, ParamKind::Weight);
        assert_eq!(seen[1].0, ParamKind::Bias);
        // db = column sums of ones(4x2) = [4, 4]
        let mut bias_grad = None;
        layer.visit_params(&mut |kind, _, gr| {
            if kind == ParamKind::Bias {
                bias_grad = Some(gr.clone());
            }
        });
        assert_eq!(bias_grad.unwrap().as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn numeric_gradient_check() {
        // Finite-difference check of dW for a scalar loss L = sum(y).
        let mut layer = Dense::new(3, 2, &mut rng());
        let x = Tensor::from_fn([2, 3], |i| (i as f32 * 0.7).sin());
        layer.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones([2, 2]); // dL/dy = 1
        layer.backward(&g).unwrap();
        let mut analytic = None;
        layer.visit_params(&mut |kind, _, gr| {
            if kind == ParamKind::Weight {
                analytic = Some(gr.clone());
            }
        });
        let analytic = analytic.unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut plus = layer.clone();
            plus.weights.as_mut_slice()[idx] += eps;
            let yp = plus.forward(&x, Mode::Eval).unwrap().sum();
            let mut minus = layer.clone();
            minus.weights.as_mut_slice()[idx] -= eps;
            let ym = minus.forward(&x, Mode::Eval).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (numeric - a).abs() < 1e-2,
                "grad mismatch at {idx}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut layer = Dense::new(2, 2, &mut rng());
        let x = Tensor::ones([1, 2]);
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones([1, 2])).unwrap();
        layer.zero_grads();
        layer.visit_params(&mut |_, _, gr| {
            assert!(gr.as_slice().iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut layer = Dense::new(2, 2, &mut rng());
        let x = Tensor::ones([1, 2]);
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones([1, 2])).unwrap();
        let mut first = None;
        layer.visit_params(&mut |kind, _, gr| {
            if kind == ParamKind::Weight {
                first = Some(gr.clone());
            }
        });
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones([1, 2])).unwrap();
        layer.visit_params(&mut |kind, _, gr| {
            if kind == ParamKind::Weight {
                let f = first.as_ref().unwrap();
                for (a, b) in gr.as_slice().iter().zip(f.as_slice()) {
                    assert!((a - 2.0 * b).abs() < 1e-5);
                }
            }
        });
    }

    #[test]
    fn from_parts_validates() {
        assert!(Dense::from_parts(Tensor::zeros([4]), Tensor::zeros([2])).is_err());
        assert!(Dense::from_parts(Tensor::zeros([2, 3]), Tensor::zeros([2])).is_err());
        assert!(Dense::from_parts(Tensor::zeros([2, 3]), Tensor::zeros([3])).is_ok());
    }

    #[test]
    fn weight_matrix_accessors() {
        let mut layer = Dense::new(2, 3, &mut rng());
        assert_eq!(layer.weight_matrix().unwrap().dims(), &[2, 3]);
        layer.weight_matrix_mut().unwrap().as_mut_slice()[0] = 9.0;
        assert_eq!(layer.weights().as_slice()[0], 9.0);
    }
}
