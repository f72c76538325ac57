//! Softmax cross-entropy loss (eq. 1 of the paper, data term).

use memaging_tensor::{ops, Tensor};

use crate::error::NnError;

/// Result of a loss evaluation: the mean loss and the gradient with respect
/// to the logits (already divided by the batch size).
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// `[batch, classes]` gradient w.r.t. the logits.
    pub grad_logits: Tensor,
}

/// Computes mean softmax cross-entropy and its logit gradient.
///
/// This is the `C(W)` (cross-entropy) term of the paper's cost function
/// (eq. 1); the regularization terms `R(W)` / `R1(W) + R2(W)` are applied by
/// the optimizer through a [`Regularizer`](crate::Regularizer).
///
/// # Errors
///
/// Returns [`NnError::LabelOutOfRange`] for a label `>= classes`, or
/// [`NnError::BadInput`] if `labels.len()` differs from the batch size.
///
/// # Examples
///
/// ```
/// use memaging_nn::loss::softmax_cross_entropy;
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// let logits = Tensor::from_vec(vec![5.0, 0.0, 0.0, 5.0], [2, 2])?;
/// let out = softmax_cross_entropy(&logits, &[0, 1])?;
/// assert!(out.loss < 0.05); // confident and correct
/// # Ok(())
/// # }
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<LossOutput, NnError> {
    if logits.rank() != 2 {
        return Err(NnError::Tensor(memaging_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
            op: "softmax_cross_entropy",
        }));
    }
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != batch {
        return Err(NnError::BadInput {
            layer: "softmax_cross_entropy",
            expected: batch,
            actual: labels.len(),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(NnError::LabelOutOfRange { label: bad, classes });
    }
    let probs = ops::softmax_rows(logits)?;
    let p = probs.as_slice();
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    let g = grad.as_mut_slice();
    let inv_batch = 1.0 / batch as f32;
    for (i, &label) in labels.iter().enumerate() {
        let pi = p[i * classes + label].max(1e-12);
        loss -= (pi as f64).ln();
        // dL/dlogits = (softmax - onehot) / batch
        g[i * classes + label] -= 1.0;
    }
    for v in g.iter_mut() {
        *v *= inv_batch;
    }
    Ok(LossOutput { loss: (loss / batch as f64) as f32, grad_logits: grad })
}

/// Fraction of rows whose argmax equals the label.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if `labels.len()` differs from the batch
/// size, or a wrapped tensor error for a non-matrix input.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
    let preds = ops::argmax_rows(logits)?;
    if preds.len() != labels.len() {
        return Err(NnError::BadInput {
            layer: "accuracy",
            expected: preds.len(),
            actual: labels.len(),
        });
    }
    if preds.is_empty() {
        return Ok(0.0);
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    Ok(correct as f64 / labels.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Tensor::zeros([1, 4]);
        let out = softmax_cross_entropy(&logits, &[2]).unwrap();
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot() {
        let logits = Tensor::zeros([1, 2]);
        let out = softmax_cross_entropy(&logits, &[0]).unwrap();
        // softmax = [0.5, 0.5]; grad = [0.5-1, 0.5] / 1
        assert!((out.grad_logits.as_slice()[0] + 0.5).abs() < 1e-6);
        assert!((out.grad_logits.as_slice()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_fn([3, 5], |i| (i as f32 * 0.7).sin());
        let out = softmax_cross_entropy(&logits, &[0, 2, 4]).unwrap();
        for i in 0..3 {
            let row_sum: f32 = out.grad_logits.as_slice()[i * 5..(i + 1) * 5].iter().sum();
            assert!(row_sum.abs() < 1e-5);
        }
    }

    #[test]
    fn numeric_gradient_check() {
        let logits = Tensor::from_fn([2, 3], |i| (i as f32 * 0.9).cos());
        let labels = [1usize, 2];
        let out = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = softmax_cross_entropy(&lp, &labels).unwrap().loss;
            let fm = softmax_cross_entropy(&lm, &labels).unwrap().loss;
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = out.grad_logits.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "loss grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn rejects_bad_labels() {
        let logits = Tensor::zeros([1, 3]);
        assert!(matches!(
            softmax_cross_entropy(&logits, &[3]),
            Err(NnError::LabelOutOfRange { .. })
        ));
        assert!(matches!(softmax_cross_entropy(&logits, &[0, 1]), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], [3, 2]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn loss_is_finite_for_extreme_logits() {
        let logits = Tensor::from_vec(vec![1000.0, -1000.0], [1, 2]).unwrap();
        let out = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!(out.loss.is_finite());
        assert!(out.grad_logits.all_finite());
    }
}
