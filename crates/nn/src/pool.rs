//! Spatial pooling layers (max and average).

use memaging_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};

/// Pooling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over each window.
    Max,
    /// Arithmetic mean over each window.
    Average,
}

/// A non-overlapping 2-D pooling layer on flattened `[batch, C·H·W]` rows.
///
/// Window and stride are equal (`window`); input height/width must be
/// divisible by the window — the common configuration in LeNet-5 and VGG-16.
///
/// # Examples
///
/// ```
/// use memaging_nn::{Layer, Mode, Pool2d, PoolKind};
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// let mut pool = Pool2d::new(PoolKind::Max, 1, (4, 4), 2)?;
/// let x = Tensor::from_fn([1, 16], |i| i as f32);
/// let y = pool.forward(&x, Mode::Eval)?;
/// assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pool2d {
    kind: PoolKind,
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    /// For max pooling: per-forward flat argmax indices (batch-major).
    cached_argmax: Option<Vec<usize>>,
    cached_batch: usize,
}

impl Pool2d {
    /// Creates a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the window is zero or does not
    /// evenly divide the input dimensions.
    pub fn new(
        kind: PoolKind,
        channels: usize,
        input_hw: (usize, usize),
        window: usize,
    ) -> Result<Self, NnError> {
        if window == 0 || channels == 0 || input_hw.0 == 0 || input_hw.1 == 0 {
            return Err(NnError::InvalidConfig { reason: "pool dims must be nonzero".into() });
        }
        if !input_hw.0.is_multiple_of(window) || !input_hw.1.is_multiple_of(window) {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "pool window {window} must divide input {}x{}",
                    input_hw.0, input_hw.1
                ),
            });
        }
        Ok(Pool2d {
            kind,
            channels,
            in_h: input_hw.0,
            in_w: input_hw.1,
            window,
            cached_argmax: None,
            cached_batch: 0,
        })
    }

    /// Output feature-map `(height, width)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (self.in_h / self.window, self.in_w / self.window)
    }
}

impl Layer for Pool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        match self.kind {
            PoolKind::Max => "maxpool2d",
            PoolKind::Average => "avgpool2d",
        }
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pooling
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let in_feat = self.in_features();
        if input.rank() != 2 || input.dims()[1] != in_feat {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: in_feat,
                actual: if input.rank() == 2 { input.dims()[1] } else { input.len() },
            });
        }
        let batch = input.dims()[0];
        let (oh, ow) = self.output_hw();
        let out_feat = self.channels * oh * ow;
        let mut out = vec![0.0f32; batch * out_feat];
        let mut argmax = if self.kind == PoolKind::Max && mode == Mode::Train {
            Some(vec![0usize; batch * out_feat])
        } else {
            None
        };
        let w = self.window;
        let area = (w * w) as f32;
        let src = input.as_slice();
        for s in 0..batch {
            let base = s * in_feat;
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let oidx = s * out_feat + (c * oh + oy) * ow + ox;
                        match self.kind {
                            PoolKind::Max => {
                                let mut best = f32::NEG_INFINITY;
                                let mut best_idx = 0;
                                for dy in 0..w {
                                    for dx in 0..w {
                                        let y = oy * w + dy;
                                        let x = ox * w + dx;
                                        let idx = base + (c * self.in_h + y) * self.in_w + x;
                                        if src[idx] > best {
                                            best = src[idx];
                                            best_idx = idx;
                                        }
                                    }
                                }
                                out[oidx] = best;
                                if let Some(am) = argmax.as_mut() {
                                    am[oidx] = best_idx;
                                }
                            }
                            PoolKind::Average => {
                                let mut acc = 0.0f32;
                                for dy in 0..w {
                                    for dx in 0..w {
                                        let y = oy * w + dy;
                                        let x = ox * w + dx;
                                        acc += src[base + (c * self.in_h + y) * self.in_w + x];
                                    }
                                }
                                out[oidx] = acc / area;
                            }
                        }
                    }
                }
            }
        }
        if mode == Mode::Train {
            self.cached_argmax = argmax;
            self.cached_batch = batch;
        }
        Tensor::from_vec(out, [batch, out_feat]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let batch = std::mem::take(&mut self.cached_batch);
        let argmax = self.cached_argmax.take();
        if batch == 0 {
            return Err(NnError::BackwardBeforeForward { layer: self.name() });
        }
        let in_feat = self.in_features();
        let (oh, ow) = self.output_hw();
        let out_feat = self.channels * oh * ow;
        if grad_out.rank() != 2 || grad_out.dims() != [batch, out_feat] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: out_feat,
                actual: if grad_out.rank() == 2 { grad_out.dims()[1] } else { grad_out.len() },
            });
        }
        let mut grad_in = vec![0.0f32; batch * in_feat];
        let g = grad_out.as_slice();
        match self.kind {
            PoolKind::Max => {
                let argmax = argmax.ok_or(NnError::BackwardBeforeForward { layer: self.name() })?;
                for (oidx, &src_idx) in argmax.iter().enumerate() {
                    grad_in[src_idx] += g[oidx];
                }
            }
            PoolKind::Average => {
                let w = self.window;
                let inv_area = 1.0 / (w * w) as f32;
                for s in 0..batch {
                    let base = s * in_feat;
                    for c in 0..self.channels {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let share = g[s * out_feat + (c * oh + oy) * ow + ox] * inv_area;
                                for dy in 0..w {
                                    for dx in 0..w {
                                        let y = oy * w + dy;
                                        let x = ox * w + dx;
                                        grad_in[base + (c * self.in_h + y) * self.in_w + x] +=
                                            share;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(grad_in, [batch, in_feat]).map_err(NnError::from)
    }

    fn in_features(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    fn out_features(&self) -> usize {
        let (oh, ow) = self.output_hw();
        self.channels * oh * ow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_divisibility() {
        assert!(Pool2d::new(PoolKind::Max, 1, (5, 4), 2).is_err());
        assert!(Pool2d::new(PoolKind::Max, 1, (4, 4), 0).is_err());
        assert!(Pool2d::new(PoolKind::Max, 1, (4, 4), 2).is_ok());
    }

    #[test]
    fn max_pool_selects_maxima() {
        let mut p = Pool2d::new(PoolKind::Max, 1, (4, 4), 2).unwrap();
        let x = Tensor::from_fn([1, 16], |i| i as f32);
        let y = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let mut p = Pool2d::new(PoolKind::Average, 1, (2, 2), 2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [1, 4]).unwrap();
        let y = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let mut p = Pool2d::new(PoolKind::Max, 1, (2, 2), 2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 9.0, 5.0, 7.0], [1, 4]).unwrap();
        p.forward(&x, Mode::Train).unwrap();
        let dx = p.backward(&Tensor::from_vec(vec![2.5], [1, 1]).unwrap()).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn avg_backward_spreads_evenly() {
        let mut p = Pool2d::new(PoolKind::Average, 1, (2, 2), 2).unwrap();
        let x = Tensor::ones([1, 4]);
        p.forward(&x, Mode::Train).unwrap();
        let dx = p.backward(&Tensor::from_vec(vec![4.0], [1, 1]).unwrap()).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn multi_channel_multi_batch() {
        let mut p = Pool2d::new(PoolKind::Max, 2, (2, 2), 2).unwrap();
        let x = Tensor::from_fn([3, 8], |i| (i % 8) as f32);
        let y = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(&y.as_slice()[0..2], &[3.0, 7.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut p = Pool2d::new(PoolKind::Max, 1, (2, 2), 2).unwrap();
        assert!(p.backward(&Tensor::ones([1, 1])).is_err());
    }

    #[test]
    fn rejects_bad_widths() {
        let mut p = Pool2d::new(PoolKind::Max, 1, (4, 4), 2).unwrap();
        assert!(p.forward(&Tensor::ones([1, 15]), Mode::Eval).is_err());
        p.forward(&Tensor::ones([1, 16]), Mode::Train).unwrap();
        assert!(p.backward(&Tensor::ones([1, 5])).is_err());
    }
}
