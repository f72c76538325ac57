//! 2-D convolution layer (lowered to one matrix product per chunk of samples).

use memaging_tensor::conv::{col2im, im2row, ConvGeometry};
use memaging_tensor::{init, ops, Tensor};
use rand::Rng;

use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode, ParamKind};

/// Row-matrix floats the forward lowers and multiplies at a time (64 KiB).
/// A whole batch at once keeps its row matrix and product alive together:
/// for the scaled LeNet at batch 32 that is about 0.5 MB per thread, and it
/// raised the serving fleet's peak RSS by 1 MB. Chunks this small stay
/// below the allocator's mmap threshold and are reused.
const CHUNK_FLOATS: usize = 1 << 14;

/// A 2-D convolution layer operating on flattened `[batch, C·H·W]` rows.
///
/// The kernels are stored as a single `[out_channels, in_channels·kh·kw]`
/// matrix — exactly the matrix a memristor crossbar holds when accelerating
/// the convolution, and the matrix exposed through
/// [`Layer::weight_matrix`].
///
/// # Examples
///
/// ```
/// use memaging_nn::{Conv2d, Layer, Mode};
/// use memaging_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memaging_nn::NnError> {
/// // 1 input channel, 4 output channels, 3x3 kernel on 8x8 images.
/// let mut conv = Conv2d::new(1, 4, (8, 8), 3, 1, 1, &mut StdRng::seed_from_u64(0));
/// let x = Tensor::ones([2, 64]);
/// let y = conv.forward(&x, Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 4 * 8 * 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    kernels: Tensor,
    bias: Tensor,
    grad_kernels: Tensor,
    grad_bias: Tensor,
    geometry: ConvGeometry,
    out_channels: usize,
    /// The forward pass's row matrices, one per chunk of samples (train
    /// mode).
    cached_rows: Option<Vec<Tensor>>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal kernels and zero bias.
    ///
    /// `input_hw` is the `(height, width)` of the incoming feature map.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel exceeds the padded
    /// input (these are programming errors in an architecture description).
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        input_hw: (usize, usize),
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let geometry = ConvGeometry {
            in_channels,
            in_h: input_hw.0,
            in_w: input_hw.1,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        };
        geometry.validate().expect("invalid convolution geometry");
        assert!(out_channels > 0, "out_channels must be nonzero");
        let patch = geometry.patch_len();
        Conv2d {
            kernels: init::he_normal([out_channels, patch], patch, rng),
            bias: Tensor::zeros([out_channels]),
            grad_kernels: Tensor::zeros([out_channels, patch]),
            grad_bias: Tensor::zeros([out_channels]),
            geometry,
            out_channels,
            cached_rows: None,
        }
    }

    /// The window-sweep geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output feature-map `(height, width)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (self.geometry.out_h(), self.geometry.out_w())
    }

    /// Samples lowered and multiplied together: as many as fit a row
    /// matrix of [`CHUNK_FLOATS`], at least one.
    fn chunk_samples(&self) -> usize {
        let g = &self.geometry;
        (CHUNK_FLOATS / (g.num_patches() * g.patch_len())).max(1)
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Convolution
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let in_feat = self.in_features();
        if input.rank() != 2 || input.dims()[1] != in_feat {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: in_feat,
                actual: if input.rank() == 2 { input.dims()[1] } else { input.len() },
            });
        }
        let npatch = self.geometry.num_patches();
        let out_c = self.out_channels;
        let out_feat = out_c * npatch;
        let batch = input.dims()[0];
        let chunk = self.chunk_samples();
        let kernels_t = ops::transpose(&self.kernels)?;
        let bias = self.bias.as_slice();
        let mut out = vec![0.0f32; batch * out_feat];
        let mut cache = Vec::new();
        // Each chunk of samples is one product [n·npatch, patch] × Kᵀ: each
        // output is Σ_k window[k]·K[oc][k] over k in increasing order from
        // 0.0, the same products added in the same order as K · im2col, so
        // the result is bit-identical to the per-sample lowering. Kᵀ has
        // only `out_c` columns, which selects matmul's narrow kernel.
        for (src, dst) in
            input.as_slice().chunks(chunk * in_feat).zip(out.chunks_mut(chunk * out_feat))
        {
            let rows = im2row(src, src.len() / in_feat, &self.geometry)?;
            let conv = ops::matmul(&rows, &kernels_t)?;
            for (dst, src) in
                dst.chunks_exact_mut(out_feat).zip(conv.as_slice().chunks_exact(out_feat))
            {
                for (oc, (plane, &b)) in dst.chunks_exact_mut(npatch).zip(bias).enumerate() {
                    for (o, &y) in plane.iter_mut().zip(src[oc..].iter().step_by(out_c)) {
                        *o = y + b;
                    }
                }
            }
            if mode == Mode::Train {
                cache.push(rows);
            }
        }
        if mode == Mode::Train {
            self.cached_rows = Some(cache);
        }
        Tensor::from_vec(out, [batch, out_feat]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let rows =
            self.cached_rows.as_ref().ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        let g = self.geometry;
        let npatch = g.num_patches();
        let patch = g.patch_len();
        let out_feat = self.out_channels * npatch;
        let in_feat = g.in_channels * g.in_h * g.in_w;
        let batch = grad_out.dims()[0];
        let cached: usize = rows.iter().map(|r| r.dims()[0]).sum();
        if grad_out.rank() != 2 || grad_out.dims()[1] != out_feat || batch * npatch != cached {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: out_feat,
                actual: if grad_out.rank() == 2 { grad_out.dims()[1] } else { grad_out.len() },
            });
        }
        let per_chunk = self.chunk_samples();
        let mut grad_in = vec![0.0f32; batch * in_feat];
        for s in 0..batch {
            let gslice = &grad_out.as_slice()[s * out_feat..(s + 1) * out_feat];
            let gmat = Tensor::from_vec(gslice.to_vec(), [self.out_channels, npatch])?;
            // dK += dY · rows_s: Σ_p dY[oc][p]·window_p[k] in p-increasing
            // order, the sum of dY · colsᵀ.
            let at = (s % per_chunk) * npatch * patch;
            let block = &rows[s / per_chunk].as_slice()[at..at + npatch * patch];
            let dk = ops::matmul(&gmat, &Tensor::from_vec(block.to_vec(), [npatch, patch])?)?;
            self.grad_kernels.axpy(1.0, &dk)?;
            // db += row sums of dY
            for oc in 0..self.out_channels {
                let sum: f32 = gslice[oc * npatch..(oc + 1) * npatch].iter().sum();
                self.grad_bias.as_mut_slice()[oc] += sum;
            }
            // dcols = Kᵀ · dY, then scatter back to image space.
            let dcols = ops::matmul_transpose_a(&self.kernels, &gmat)?;
            let dimage = col2im(&dcols, &g)?;
            grad_in[s * in_feat..(s + 1) * in_feat].copy_from_slice(dimage.as_slice());
        }
        Tensor::from_vec(grad_in, [batch, in_feat]).map_err(NnError::from)
    }

    fn in_features(&self) -> usize {
        self.geometry.in_channels * self.geometry.in_h * self.geometry.in_w
    }

    fn out_features(&self) -> usize {
        self.out_channels * self.geometry.num_patches()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamKind, &mut Tensor, &Tensor)) {
        visitor(ParamKind::Weight, &mut self.kernels, &self.grad_kernels);
        visitor(ParamKind::Bias, &mut self.bias, &self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_kernels.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn weight_matrix(&self) -> Option<&Tensor> {
        Some(&self.kernels)
    }

    fn weight_matrix_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_tensor::conv::im2col;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The convolution before the batched lowering, per sample: `im2col`,
    /// then `K · cols` plus the bias. Returns the output and every sample's
    /// column matrix.
    fn per_sample_forward(conv: &Conv2d, input: &Tensor) -> (Tensor, Vec<Tensor>) {
        let g = conv.geometry;
        let (in_feat, npatch) = (conv.in_features(), g.num_patches());
        let out_feat = conv.out_features();
        let batch = input.dims()[0];
        let mut out = vec![0.0f32; batch * out_feat];
        let mut all_cols = Vec::new();
        for s in 0..batch {
            let row = input.as_slice()[s * in_feat..(s + 1) * in_feat].to_vec();
            let image = Tensor::from_vec(row, [g.in_channels, g.in_h, g.in_w]).unwrap();
            let cols = im2col(&image, &g).unwrap();
            let y = ops::matmul(&conv.kernels, &cols).unwrap();
            for oc in 0..conv.out_channels {
                let b = conv.bias.as_slice()[oc];
                for p in 0..npatch {
                    out[s * out_feat + oc * npatch + p] = y.as_slice()[oc * npatch + p] + b;
                }
            }
            all_cols.push(cols);
        }
        (Tensor::from_vec(out, [batch, out_feat]).unwrap(), all_cols)
    }

    /// The per-sample backward from zero gradients: `dK = Σ_s dY_s · colsᵀ`,
    /// `db` the row sums of `dY`, `dX = col2im(Kᵀ · dY)`.
    fn per_sample_backward(
        conv: &Conv2d,
        all_cols: &[Tensor],
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let g = conv.geometry;
        let (in_feat, npatch) = (conv.in_features(), g.num_patches());
        let out_feat = conv.out_features();
        let mut dk = Tensor::zeros(conv.kernels.dims());
        let mut db = Tensor::zeros([conv.out_channels]);
        let mut dx = vec![0.0f32; all_cols.len() * in_feat];
        for (s, cols) in all_cols.iter().enumerate() {
            let gslice = &grad_out.as_slice()[s * out_feat..(s + 1) * out_feat];
            let gmat = Tensor::from_vec(gslice.to_vec(), [conv.out_channels, npatch]).unwrap();
            dk.axpy(1.0, &ops::matmul_transpose_b(&gmat, cols).unwrap()).unwrap();
            for oc in 0..conv.out_channels {
                let sum: f32 = gslice[oc * npatch..(oc + 1) * npatch].iter().sum();
                db.as_mut_slice()[oc] += sum;
            }
            let dcols = ops::matmul_transpose_a(&conv.kernels, &gmat).unwrap();
            let dimage = col2im(&dcols, &g).unwrap();
            dx[s * in_feat..(s + 1) * in_feat].copy_from_slice(dimage.as_slice());
        }
        (dk, db, Tensor::from_vec(dx, [all_cols.len(), in_feat]).unwrap())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// One forward and backward of `conv` on `batch` samples must equal the
    /// per-sample oracle bit for bit.
    fn assert_matches_oracle(conv: &Conv2d, batch: usize, seed: u64) -> Result<(), TestCaseError> {
        let x = Tensor::from_fn([batch, conv.in_features()], |i| {
            ((i as f32) * 0.37 + seed as f32).sin()
        });
        let gy = Tensor::from_fn([batch, conv.out_features()], |i| {
            ((i as f32) * 0.11 - seed as f32).cos()
        });
        let (y_ref, cols) = per_sample_forward(conv, &x);
        let (dk_ref, db_ref, dx_ref) = per_sample_backward(conv, &cols, &gy);
        let mut eval = conv.clone();
        prop_assert_eq!(bits(&eval.forward(&x, Mode::Eval).unwrap()), bits(&y_ref));
        let mut train = conv.clone();
        prop_assert_eq!(bits(&train.forward(&x, Mode::Train).unwrap()), bits(&y_ref));
        let dx = train.backward(&gy).unwrap();
        prop_assert_eq!(bits(&train.grad_kernels), bits(&dk_ref));
        prop_assert_eq!(bits(&train.grad_bias), bits(&db_ref));
        prop_assert_eq!(bits(&dx), bits(&dx_ref));
        Ok(())
    }

    #[test]
    fn lenet_convolutions_match_the_per_sample_oracle() {
        // Both scaled-LeNet geometries, at batches that fill one chunk,
        // several chunks, and a ragged last chunk.
        let mut rng = rng();
        let convs = [
            Conv2d::new(1, 8, (12, 12), 3, 1, 1, &mut rng),
            Conv2d::new(8, 16, (6, 6), 3, 1, 1, &mut rng),
        ];
        for conv in &convs {
            assert!(conv.chunk_samples() < 32, "batch 32 must span several chunks");
            for batch in [1, 7, 32] {
                assert_matches_oracle(conv, batch, 3).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn batched_conv_is_bit_identical_to_the_per_sample_oracle(
            in_c in 1usize..4,
            out_c in 1usize..40,
            h in 1usize..10,
            w in 1usize..10,
            kernel in 1usize..5,
            stride in 1usize..4,
            padding in 0usize..3,
            batch_pick in 0usize..3,
            seed in 0u64..1000,
        ) {
            prop_assume!(kernel <= h + 2 * padding && kernel <= w + 2 * padding);
            let batch = [1, 7, 32][batch_pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut conv = Conv2d::new(in_c, out_c, (h, w), kernel, stride, padding, &mut rng);
            conv.bias = Tensor::from_fn([out_c], |i| (i as f32 * 0.7 + seed as f32).cos());
            for threads in [1, 2, 8] {
                memaging_par::set_threads(threads);
                assert_matches_oracle(&conv, batch, seed)?;
            }
            memaging_par::set_threads(0);
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_shape() {
        let mut conv = Conv2d::new(2, 3, (6, 6), 3, 1, 1, &mut rng());
        let x = Tensor::ones([4, 2 * 6 * 6]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 3 * 6 * 6]);
    }

    #[test]
    fn stride_downsamples() {
        let conv = Conv2d::new(1, 1, (8, 8), 2, 2, 0, &mut rng());
        assert_eq!(conv.output_hw(), (4, 4));
        assert_eq!(conv.out_features(), 16);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // A single 1x1 kernel with weight 1 and zero bias is identity.
        let mut conv = Conv2d::new(1, 1, (3, 3), 1, 1, 0, &mut rng());
        conv.kernels = Tensor::ones([1, 1]);
        let x = Tensor::from_fn([1, 9], |i| i as f32);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        // Sum kernel over a 3x3 input with no padding: output = sum of all 9.
        let mut conv = Conv2d::new(1, 1, (3, 3), 3, 1, 0, &mut rng());
        conv.kernels = Tensor::ones([1, 9]);
        conv.bias = Tensor::from_vec(vec![0.5], [1]).unwrap();
        let x = Tensor::from_fn([1, 9], |i| (i + 1) as f32);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[45.5]);
    }

    #[test]
    fn numeric_gradient_check_kernels_and_input() {
        let mut conv = Conv2d::new(1, 2, (4, 4), 3, 1, 1, &mut rng());
        let x = Tensor::from_fn([2, 16], |i| (i as f32 * 0.31).sin());
        conv.forward(&x, Mode::Train).unwrap();
        let gy = Tensor::ones([2, 2 * 16]);
        let dx = conv.backward(&gy).unwrap();
        let eps = 1e-2f32;
        // Kernel gradient.
        for idx in [0usize, 5, 11, 17] {
            let mut p = conv.clone();
            p.kernels.as_mut_slice()[idx] += eps;
            let yp = p.forward(&x, Mode::Eval).unwrap().sum();
            let mut m = conv.clone();
            m.kernels.as_mut_slice()[idx] -= eps;
            let ym = m.forward(&x, Mode::Eval).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            let analytic = conv.grad_kernels.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "kernel grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }
        // Input gradient.
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let yp = conv.forward(&xp, Mode::Eval).unwrap().sum();
            let ym = conv.forward(&xm, Mode::Eval).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "input grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let mut conv = Conv2d::new(1, 1, (3, 3), 3, 1, 1, &mut rng());
        let x = Tensor::ones([1, 9]);
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::ones([1, 9])).unwrap();
        // db = number of output positions = 9.
        assert_eq!(conv.grad_bias.as_slice(), &[9.0]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut conv = Conv2d::new(1, 1, (4, 4), 3, 1, 1, &mut rng());
        assert!(conv.forward(&Tensor::ones([1, 15]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, (4, 4), 3, 1, 1, &mut rng());
        assert!(conv.backward(&Tensor::ones([1, 16])).is_err());
    }

    #[test]
    fn weight_matrix_is_kernel_matrix() {
        let conv = Conv2d::new(2, 5, (4, 4), 3, 1, 1, &mut rng());
        assert_eq!(conv.weight_matrix().unwrap().dims(), &[5, 18]);
    }
}
