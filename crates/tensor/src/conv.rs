//! im2col / im2row / col2im lowering for 2-D convolution.
//!
//! Convolution layers in [`memaging-nn`](https://docs.rs) are implemented by
//! lowering every input window of a batch into a row of one matrix
//! ([`im2row`]), doing a single matrix multiplication against the
//! transposed kernels, and scattering gradients back with [`col2im`] (the
//! adjoint of the per-image [`im2col`]). This mirrors how a memristor
//! crossbar executes convolutions: the kernel matrix is what gets mapped
//! onto the crossbar conductances.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution or pooling window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding on each border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output height of the window sweep.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width of the window sweep.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Number of rows in the im2col matrix (`C·kh·kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Number of columns in the im2col matrix (`out_h·out_w`).
    pub fn num_patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validates that the geometry produces at least one output position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero-sized kernels or
    /// strides, or kernels larger than the padded input.
    pub fn validate(&self) -> Result<(), TensorError> {
        if self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv",
                reason: "kernel dimensions must be nonzero".into(),
            });
        }
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv",
                reason: "stride must be nonzero".into(),
            });
        }
        if self.in_h + 2 * self.padding < self.kernel_h
            || self.in_w + 2 * self.padding < self.kernel_w
        {
            return Err(TensorError::InvalidArgument {
                op: "conv",
                reason: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    self.kernel_h,
                    self.kernel_w,
                    self.in_h + 2 * self.padding,
                    self.in_w + 2 * self.padding
                ),
            });
        }
        Ok(())
    }
}

/// Lowers a single image `[C, H, W]` into a `[C·kh·kw, out_h·out_w]` matrix.
///
/// Column `p` of the result is the flattened input window at output position
/// `p` (row-major over output positions). Out-of-bounds (padding) samples are
/// zero.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `image` does not match the
/// geometry's `[C, H, W]`, or [`TensorError::InvalidArgument`] for an invalid
/// geometry.
pub fn im2col(image: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    geom.validate()?;
    let expected = [geom.in_channels, geom.in_h, geom.in_w];
    if image.rank() != 3 || image.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.into(),
            actual: image.shape().clone(),
            op: "im2col",
        });
    }
    let src = image.as_slice();
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let rows = geom.patch_len();
    let cols = geom.num_patches();
    let mut out = vec![0.0f32; rows * cols];
    let (ih, iw) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..geom.in_channels {
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                for oy in 0..out_h {
                    let y = (oy * geom.stride + kh) as isize - geom.padding as isize;
                    for ox in 0..out_w {
                        let x = (ox * geom.stride + kw) as isize - geom.padding as isize;
                        let col = oy * out_w + ox;
                        if y >= 0 && y < ih && x >= 0 && x < iw {
                            out[row * cols + col] =
                                src[(c * geom.in_h + y as usize) * geom.in_w + x as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, [rows, cols])
}

/// Lowers a batch of images, one flattened `C·H·W` row each, into the row
/// matrix `[batch·out_h·out_w, C·kh·kw]`.
///
/// Row `s·out_h·out_w + p` is the flattened input window of sample `s` at
/// output position `p`: the rows of sample `s` are the transpose of its
/// [`im2col`] matrix. A convolution of the whole batch is then one product
/// of this matrix with the transposed kernel matrix. Out-of-bounds
/// (padding) samples are zero. Samples are lowered in parallel into
/// disjoint row blocks; the result does not depend on the thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `src.len()` is not
/// `batch·C·H·W`, or [`TensorError::InvalidArgument`] for an invalid
/// geometry.
pub fn im2row(src: &[f32], batch: usize, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    geom.validate()?;
    let in_feat = geom.in_channels * geom.in_h * geom.in_w;
    if src.len() != batch * in_feat {
        return Err(TensorError::ShapeMismatch {
            expected: [batch, in_feat].into(),
            actual: [src.len()].into(),
            op: "im2row",
        });
    }
    let block = geom.num_patches() * geom.patch_len();
    let mut out = vec![0.0f32; batch * block];
    let threads = memaging_par::parallelism_for(batch * block);
    memaging_par::par_chunks_mut(&mut out, block.max(1), threads, |s, rows| {
        im2row_sample(&src[s * in_feat..(s + 1) * in_feat], rows, geom);
    });
    Tensor::from_vec(out, [batch * geom.num_patches(), geom.patch_len()])
}

/// Lowers one image into its `[out_h·out_w, C·kh·kw]` block of [`im2row`].
///
/// The image is first copied into a zero-bordered buffer, so every
/// kernel row of every window is one contiguous copy of `kernel_w` floats
/// with no bounds logic.
fn im2row_sample(image: &[f32], rows: &mut [f32], geom: &ConvGeometry) {
    let (c_n, kh_n, kw_n) = (geom.in_channels, geom.kernel_h, geom.kernel_w);
    let (in_w, pad, stride) = (geom.in_w, geom.padding, geom.stride);
    let (hp, wp) = (geom.in_h + 2 * pad, in_w + 2 * pad);
    let mut padded = vec![0.0f32; c_n * hp * wp];
    // `max(1)`: a zero-width image has no rows to copy.
    for (y, src) in image.chunks_exact(in_w.max(1)).enumerate() {
        let (c, y) = (y / geom.in_h, y % geom.in_h);
        let at = (c * hp + y + pad) * wp + pad;
        padded[at..at + in_w].copy_from_slice(src);
    }
    let mut kernel_rows = rows.chunks_exact_mut(kw_n);
    for y0 in (0..geom.out_h()).map(|oy| oy * stride) {
        for x0 in (0..geom.out_w()).map(|ox| ox * stride) {
            for c in 0..c_n {
                for kh in 0..kh_n {
                    let at = (c * hp + y0 + kh) * wp + x0;
                    let dst = kernel_rows.next().expect("one kernel row per window tap row");
                    copy_kernel_row(dst, &padded[at..at + kw_n]);
                }
            }
        }
    }
}

/// Copies one kernel row of a window. A 3-wide row, every row of the
/// scaled LeNet-5, is a fixed-size copy that compiles to plain moves; a
/// run-time length costs a `memcpy` call per row, which made lowering the
/// scaled LeNet-5's two convolutions 1.6-2.7x slower on an x86-64 host.
#[inline(always)]
fn copy_kernel_row(dst: &mut [f32], src: &[f32]) {
    match (<&mut [f32; 3]>::try_from(&mut *dst), <&[f32; 3]>::try_from(src)) {
        (Ok(dst), Ok(src)) => *dst = *src,
        _ => dst.copy_from_slice(src),
    }
}

/// Scatters a `[C·kh·kw, out_h·out_w]` column matrix back into `[C, H, W]`,
/// accumulating overlapping contributions (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry, or [`TensorError::InvalidArgument`] for an invalid geometry.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    geom.validate()?;
    let rows = geom.patch_len();
    let ncols = geom.num_patches();
    if cols.dims() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            expected: [rows, ncols].into(),
            actual: cols.shape().clone(),
            op: "col2im",
        });
    }
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let src = cols.as_slice();
    let mut out = vec![0.0f32; geom.in_channels * geom.in_h * geom.in_w];
    let (ih, iw) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..geom.in_channels {
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                for oy in 0..out_h {
                    let y = (oy * geom.stride + kh) as isize - geom.padding as isize;
                    for ox in 0..out_w {
                        let x = (ox * geom.stride + kw) as isize - geom.padding as isize;
                        if y >= 0 && y < ih && x >= 0 && x < iw {
                            let col = oy * out_w + ox;
                            out[(c * geom.in_h + y as usize) * geom.in_w + x as usize] +=
                                src[row * ncols + col];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, [geom.in_channels, geom.in_h, geom.in_w])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = geom(1, 5, 5, 3, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
    }

    #[test]
    fn validate_rejects_degenerate() {
        assert!(geom(1, 4, 4, 0, 1, 0).validate().is_err());
        assert!(geom(1, 4, 4, 3, 0, 0).validate().is_err());
        assert!(geom(1, 2, 2, 5, 1, 0).validate().is_err());
        assert!(geom(1, 2, 2, 5, 1, 2).validate().is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a reshape.
        let img = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [3, 2, 2]).unwrap();
        let g = geom(3, 2, 2, 1, 1, 0);
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[3, 4]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_extracts_windows() {
        // 1 channel 3x3 image, 2x2 kernel, stride 1, no padding -> 4 patches.
        let img =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [1, 3, 3]).unwrap();
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // Patch at (0,0) is [1,2,4,5]; it occupies column 0.
        let c = cols.as_slice();
        let patch0: Vec<f32> = (0..4).map(|r| c[r * 4]).collect();
        assert_eq!(patch0, vec![1.0, 2.0, 4.0, 5.0]);
        // Patch at (1,1) is [5,6,8,9]; column 3.
        let patch3: Vec<f32> = (0..4).map(|r| c[r * 4 + 3]).collect();
        assert_eq!(patch3, vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_zero_pads() {
        let img = Tensor::ones([1, 2, 2]);
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Center tap of the kernel always lands inside the image.
        let c = cols.as_slice();
        for col in 0..4 {
            assert_eq!(c[4 * 4 + col], 1.0);
        }
        // Corner tap of the first patch is padding.
        assert_eq!(c[0], 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = geom(2, 4, 4, 3, 1, 1);
        let x = Tensor::from_fn([2, 4, 4], |i| (i as f32 * 0.37).sin());
        let y_shape = [g.patch_len(), g.num_patches()];
        let y = Tensor::from_fn(y_shape, |i| (i as f32 * 0.11).cos());
        let ax = im2col(&x, &g).unwrap();
        let aty = col2im(&y, &g).unwrap();
        let lhs: f64 =
            ax.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let rhs: f64 =
            x.as_slice().iter().zip(aty.as_slice()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn im2row_blocks_are_transposed_im2col() {
        for g in [geom(2, 5, 4, 3, 1, 1), geom(3, 6, 7, 2, 2, 0), geom(1, 3, 3, 3, 2, 2)] {
            let batch = 3;
            let in_feat = g.in_channels * g.in_h * g.in_w;
            let src: Vec<f32> = (0..batch * in_feat).map(|i| (i as f32 * 0.53).sin()).collect();
            let rows = im2row(&src, batch, &g).unwrap();
            let (npatch, patch) = (g.num_patches(), g.patch_len());
            assert_eq!(rows.dims(), &[batch * npatch, patch]);
            for s in 0..batch {
                let image = Tensor::from_vec(
                    src[s * in_feat..(s + 1) * in_feat].to_vec(),
                    [g.in_channels, g.in_h, g.in_w],
                )
                .unwrap();
                let cols = im2col(&image, &g).unwrap();
                for p in 0..npatch {
                    for k in 0..patch {
                        assert_eq!(
                            rows.as_slice()[(s * npatch + p) * patch + k].to_bits(),
                            cols.as_slice()[k * npatch + p].to_bits()
                        );
                    }
                }
            }
        }
        assert!(im2row(&[0.0; 5], 1, &geom(1, 2, 2, 1, 1, 0)).is_err());
    }

    #[test]
    fn im2col_rejects_wrong_shape() {
        let img = Tensor::ones([1, 3, 3]);
        let g = geom(2, 3, 3, 2, 1, 0);
        assert!(im2col(&img, &g).is_err());
    }
}
