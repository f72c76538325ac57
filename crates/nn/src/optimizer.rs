//! Stochastic gradient descent with momentum and pluggable regularization.

use memaging_tensor::Tensor;

use crate::error::NnError;
use crate::layer::ParamKind;
use crate::network::Network;
use crate::regularizer::Regularizer;

/// SGD with classical momentum (paper eq. 3, plus the regularizer gradient).
///
/// Each step applies `v ← μ·v − lr·(∂Cost/∂W)` and `W ← W + v`, where the
/// cost gradient is the accumulated data gradient plus the regularizer's
/// per-weight gradient (the `R(W)` or `R1+R2` term of eqs. 2/8).
///
/// # Examples
///
/// ```
/// use memaging_nn::{Dense, Network, Sgd, NoRegularizer};
/// use memaging_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Network::new(vec![Box::new(Dense::new(2, 2, &mut rng))])?;
/// let mut opt = Sgd::new(0.1, 0.9)?;
/// net.train_step(&Tensor::ones([1, 2]), &[0])?;
/// opt.step(&mut net, &NoRegularizer)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f32,
    momentum: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] unless `learning_rate > 0` and
    /// `0 <= momentum < 1`.
    pub fn new(learning_rate: f32, momentum: f32) -> Result<Self, NnError> {
        if !learning_rate.is_finite() || learning_rate <= 0.0 {
            return Err(NnError::InvalidConfig {
                reason: format!("learning rate {learning_rate} must be finite and > 0"),
            });
        }
        if !(0.0..1.0).contains(&momentum) {
            return Err(NnError::InvalidConfig {
                reason: format!("momentum {momentum} not in [0, 1)"),
            });
        }
        Ok(Sgd { learning_rate, momentum, velocities: Vec::new() })
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Applies one update to every parameter from its accumulated gradient,
    /// then zeroes the gradients.
    ///
    /// The regularizer only contributes to [`ParamKind::Weight`] parameters
    /// (biases live in digital peripheral logic, not on memristors).
    ///
    /// # Errors
    ///
    /// Returns a wrapped tensor error on internal shape mismatch (cannot
    /// happen unless the network was mutated structurally between steps).
    pub fn step<R: Regularizer + ?Sized>(
        &mut self,
        network: &mut Network,
        regularizer: &R,
    ) -> Result<(), NnError> {
        let lr = self.learning_rate;
        let mu = self.momentum;
        let velocities = &mut self.velocities;
        let mut slot = 0usize;
        let mut result: Result<(), NnError> = Ok(());
        network.visit_params(&mut |layer, kind, param, grad| {
            if result.is_err() {
                return;
            }
            if slot == velocities.len() {
                velocities.push(Tensor::zeros(param.shape().clone()));
            }
            let v = &mut velocities[slot];
            slot += 1;
            if v.shape() != param.shape() {
                result = Err(NnError::InvalidConfig {
                    reason: "network structure changed between optimizer steps".into(),
                });
                return;
            }
            let pv = param.as_mut_slice();
            let gv = grad.as_slice();
            let vv = v.as_mut_slice();
            if kind == ParamKind::Weight {
                for i in 0..pv.len() {
                    let g = gv[i] + regularizer.grad(layer, pv[i]);
                    vv[i] = mu * vv[i] - lr * g;
                    pv[i] += vv[i];
                }
            } else {
                for i in 0..pv.len() {
                    vv[i] = mu * vv[i] - lr * gv[i];
                    pv[i] += vv[i];
                }
            }
        });
        network.zero_grads();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::regularizer::{NoRegularizer, SkewedL2, L2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![Box::new(Dense::new(2, 2, &mut rng))]).unwrap()
    }

    #[test]
    fn validates_hyperparameters() {
        assert!(Sgd::new(0.0, 0.0).is_err());
        assert!(Sgd::new(-1.0, 0.0).is_err());
        assert!(Sgd::new(0.1, 1.0).is_err());
        assert!(Sgd::new(0.1, 0.0).is_ok());
    }

    #[test]
    fn step_reduces_loss() {
        let mut net = net(3);
        let mut opt = Sgd::new(0.5, 0.0).unwrap();
        let x = Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], [2, 2]).unwrap();
        let labels = [0usize, 1];
        let first = net.train_step(&x, &labels).unwrap().loss;
        opt.step(&mut net, &NoRegularizer).unwrap();
        let mut last = first;
        for _ in 0..20 {
            last = net.train_step(&x, &labels).unwrap().loss;
            opt.step(&mut net, &NoRegularizer).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        // With constant gradient g and momentum mu, step k moves by
        // lr*g*(1+mu+mu^2+...). Verify the second step is larger.
        let mut net1 = net(4);
        let mut net2 = net(4);
        let x = Tensor::ones([1, 2]);
        let mut plain = Sgd::new(0.1, 0.0).unwrap();
        let mut heavy = Sgd::new(0.1, 0.9).unwrap();
        for _ in 0..2 {
            net1.train_step(&x, &[0]).unwrap();
            plain.step(&mut net1, &NoRegularizer).unwrap();
            net2.train_step(&x, &[0]).unwrap();
            heavy.step(&mut net2, &NoRegularizer).unwrap();
        }
        // After two steps the momentum run must have moved farther from init.
        let w_init = net(4).weight_matrices()[0].clone();
        let d1 = net1.weight_matrices()[0].sub(&w_init).unwrap().norm_sq();
        let d2 = net2.weight_matrices()[0].sub(&w_init).unwrap().norm_sq();
        assert!(d2 > d1, "momentum displacement {d2} <= plain {d1}");
    }

    #[test]
    fn l2_shrinks_weights_without_data_gradient() {
        let mut network = net(5);
        let before = network.weight_matrices()[0].norm_sq();
        let mut opt = Sgd::new(0.1, 0.0).unwrap();
        // No train_step: gradients are zero, only the regularizer acts.
        for _ in 0..50 {
            opt.step(&mut network, &L2::new(0.1)).unwrap();
        }
        let after = network.weight_matrices()[0].norm_sq();
        assert!(after < before * 0.2, "L2 failed to shrink: {before} -> {after}");
    }

    #[test]
    fn skewed_regularizer_pulls_weights_toward_beta() {
        let mut network = net(6);
        let beta = 0.3f32;
        let reg = SkewedL2::new(vec![beta], 0.5, 0.05);
        let mut opt = Sgd::new(0.1, 0.0).unwrap();
        for _ in 0..300 {
            opt.step(&mut network, &reg).unwrap();
        }
        let w = network.weight_matrices()[0].clone();
        for &v in w.as_slice() {
            assert!((v - beta).abs() < 0.05, "weight {v} did not converge to beta {beta}");
        }
    }

    #[test]
    fn biases_are_not_regularized() {
        let mut network = net(7);
        // Give the bias a known value; a pure-regularizer step must not move it.
        network.visit_params(&mut |_, kind, p, _| {
            if kind == ParamKind::Bias {
                p.as_mut_slice().fill(1.0);
            }
        });
        let mut opt = Sgd::new(0.1, 0.0).unwrap();
        opt.step(&mut network, &L2::new(10.0)).unwrap();
        network.visit_params(&mut |_, kind, p, _| {
            if kind == ParamKind::Bias {
                assert!(p.as_slice().iter().all(|&v| v == 1.0));
            }
        });
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut network = net(8);
        network.train_step(&Tensor::ones([1, 2]), &[0]).unwrap();
        let mut opt = Sgd::new(0.1, 0.0).unwrap();
        opt.step(&mut network, &NoRegularizer).unwrap();
        network.visit_params(&mut |_, _, _, g| {
            assert!(g.as_slice().iter().all(|&v| v == 0.0));
        });
    }
}
