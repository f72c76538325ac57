//! Element-wise activation layers: ReLU, Tanh, Sigmoid.

use memaging_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};

/// The supported element-wise nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationFn {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
}

impl ActivationFn {
    /// Applies the function to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationFn::Relu => x.max(0.0),
            ActivationFn::Tanh => x.tanh(),
            ActivationFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    ///
    /// All three supported functions admit this form, which lets the layer
    /// cache only its output.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            ActivationFn::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationFn::Tanh => 1.0 - y * y,
            ActivationFn::Sigmoid => y * (1.0 - y),
        }
    }
}

/// An element-wise activation layer.
///
/// # Examples
///
/// ```
/// use memaging_nn::{Activation, ActivationFn, Layer, Mode};
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// let mut relu = Activation::new(ActivationFn::Relu, 3);
/// let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], [1, 3])?;
/// let y = relu.forward(&x, Mode::Eval)?;
/// assert_eq!(y.as_slice(), &[0.0, 0.5, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    func: ActivationFn,
    features: usize,
    cached_output: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer over `features`-wide rows.
    pub fn new(func: ActivationFn, features: usize) -> Self {
        Activation { func, features, cached_output: None }
    }

    /// The wrapped function.
    pub fn func(&self) -> ActivationFn {
        self.func
    }
}

impl Layer for Activation {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        match self.func {
            ActivationFn::Relu => "relu",
            ActivationFn::Tanh => "tanh",
            ActivationFn::Sigmoid => "sigmoid",
        }
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Activation
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.rank() != 2 || input.dims()[1] != self.features {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: self.features,
                actual: if input.rank() == 2 { input.dims()[1] } else { input.len() },
            });
        }
        let f = self.func;
        let out = input.map(|x| f.apply(x));
        if mode == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let out = self
            .cached_output
            .take()
            .ok_or(NnError::BackwardBeforeForward { layer: self.name() })?;
        let f = self.func;
        let deriv = out.map(|y| f.derivative_from_output(y));
        Ok(grad_out.mul(&deriv)?)
    }

    fn in_features(&self) -> usize {
        self.features
    }

    fn out_features(&self) -> usize {
        self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut l = Activation::new(ActivationFn::Relu, 4);
        let x = Tensor::from_vec(vec![-2.0, -0.0, 0.5, 3.0], [1, 4]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut l = Activation::new(ActivationFn::Sigmoid, 3);
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], [1, 3]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert!(y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let mut l = Activation::new(ActivationFn::Tanh, 2);
        let x = Tensor::from_vec(vec![1.3, -1.3], [1, 2]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn numeric_gradient_check_all_functions() {
        for func in [ActivationFn::Relu, ActivationFn::Tanh, ActivationFn::Sigmoid] {
            let mut l = Activation::new(func, 5);
            // Stay away from ReLU's kink at 0.
            let x = Tensor::from_vec(vec![-1.5, -0.7, 0.3, 0.9, 2.1], [1, 5]).unwrap();
            l.forward(&x, Mode::Train).unwrap();
            let dx = l.backward(&Tensor::ones([1, 5])).unwrap();
            let eps = 1e-3f32;
            for i in 0..5 {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= eps;
                let yp = l.forward(&xp, Mode::Eval).unwrap().sum();
                let ym = l.forward(&xm, Mode::Eval).unwrap().sum();
                let numeric = (yp - ym) / (2.0 * eps);
                assert!((numeric - dx.as_slice()[i]).abs() < 1e-2, "{func:?} grad mismatch at {i}");
            }
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut l = Activation::new(ActivationFn::Relu, 2);
        assert!(l.backward(&Tensor::ones([1, 2])).is_err());
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut l = Activation::new(ActivationFn::Relu, 2);
        l.forward(&Tensor::ones([1, 2]), Mode::Eval).unwrap();
        assert!(l.backward(&Tensor::ones([1, 2])).is_err());
    }

    #[test]
    fn rejects_wrong_width() {
        let mut l = Activation::new(ActivationFn::Relu, 3);
        assert!(l.forward(&Tensor::ones([1, 4]), Mode::Eval).is_err());
    }
}
