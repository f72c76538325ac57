//! Quantized inference path: fixed-point replicas of the dense layers plus
//! an allocation-free forward loop.
//!
//! [`QuantizedNet`] snapshots every fully-connected layer of a [`Network`]
//! as a [`QuantizedMatrix`] (see `memaging_tensor::quant` for the grid and
//! the determinism argument) together with its f32 bias. The forward loop
//! ping-pongs activations between two scratch buffers: dense layers run the
//! integer kernel with fused dequantization + bias, shape-preserving layers
//! (activations) apply in place via
//! [`Layer::eval_in_place`], and anything else (convolutions, pooling)
//! falls back to the layer's f32 [`Layer::forward`] — the quantized path
//! accelerates the FC-dominated evaluation loops without needing to model
//! every layer kind.
//!
//! The f32 forward pass stays untouched as the bit-exactness oracle; the
//! crossbar and serve tiers gate the quantized path against it with
//! classification-equality asserts.

use memaging_tensor::quant::{
    qmm_into, qmm_rows_into, quantize_acts_into, quantize_rows_into, QuantizedMatrix,
};
use memaging_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{LayerKind, Mode};
use crate::network::Network;

/// A dense layer's quantized weights plus its (digital-periphery) bias.
#[derive(Debug, Clone, PartialEq)]
struct QuantizedDense {
    weights: QuantizedMatrix,
    bias: Vec<f32>,
}

/// Fixed-point snapshot of a network's fully-connected layers, indexed by
/// network layer position (`None` for layers the quantized path does not
/// accelerate).
///
/// The snapshot is a pure function of the network's weight bits, so two
/// workers quantizing the same generation build bit-identical snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantizedNet {
    layers: Vec<Option<QuantizedDense>>,
}

impl QuantizedNet {
    /// Number of network layers covered by the snapshot.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of layers running on the integer kernel.
    pub fn quantized_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.is_some()).count()
    }

    /// Replaces the quantized weights of an already-covered dense layer,
    /// keeping its bias. The incremental candidate sweep uses this to
    /// install per-candidate LUT-quantized matrices without touching the
    /// f32 network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `layer_idx` is out of range,
    /// the layer is not covered by the snapshot, or the matrix shape
    /// differs from the covered layer's.
    pub fn set_layer_weights(
        &mut self,
        layer_idx: usize,
        weights: QuantizedMatrix,
    ) -> Result<(), NnError> {
        let Some(Some(qd)) = self.layers.get_mut(layer_idx) else {
            return Err(NnError::InvalidConfig {
                reason: format!("layer {layer_idx} is not covered by the quantized snapshot"),
            });
        };
        if (weights.rows(), weights.cols()) != (qd.weights.rows(), qd.weights.cols()) {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "quantized weights {}x{} do not match layer {layer_idx} ({}x{})",
                    weights.rows(),
                    weights.cols(),
                    qd.weights.rows(),
                    qd.weights.cols()
                ),
            });
        }
        qd.weights = weights;
        Ok(())
    }
}

/// Per-worker scratch for [`Network::forward_from_quantized`]: integer
/// activation codes and the two f32 ping-pong buffers. Reuse one per
/// worker to keep allocation off the per-request hot path.
#[derive(Debug, Default)]
pub struct QuantScratch {
    codes: Vec<i16>,
    row_steps: Vec<f64>,
    ping: Vec<f32>,
    pong: Vec<f32>,
}

impl QuantScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

impl Network {
    /// Builds the quantized snapshot of every fully-connected layer.
    ///
    /// Convolutions keep `None` entries and evaluate through the f32 path —
    /// at this repository's scale the FC layers hold ~90% of the mapped
    /// devices and all of the candidate-sweep replay cost.
    pub fn quantize_weights(&self) -> QuantizedNet {
        let layers = self
            .layers()
            .iter()
            .map(|layer| match (layer.kind(), layer.weight_matrix(), layer.bias_vector()) {
                (LayerKind::FullyConnected, Some(w), Some(b)) if w.rank() == 2 => {
                    let q = QuantizedMatrix::from_f32(w.as_slice(), w.dims()[0], w.dims()[1])
                        .expect("weight matrix length matches its own dims");
                    Some(QuantizedDense { weights: q, bias: b.as_slice().to_vec() })
                }
                _ => None,
            })
            .collect();
        QuantizedNet { layers }
    }

    /// Re-quantizes the `mappable_index`-th mappable layer of an existing
    /// snapshot after its f32 weights changed (the incremental engine's
    /// dirty-layer resync). Layers the snapshot does not cover (e.g.
    /// convolutions) are left as f32 fallbacks.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `mappable_index` is out of
    /// range or the snapshot was built for a different layer stack.
    pub fn requantize_layer(
        &self,
        snapshot: &mut QuantizedNet,
        mappable_index: usize,
    ) -> Result<(), NnError> {
        let Some(layer_idx) = self.mappable_layer_index(mappable_index) else {
            return Err(NnError::InvalidConfig {
                reason: format!("mappable layer index {mappable_index} out of range"),
            });
        };
        if snapshot.layers.len() != self.num_layers() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "quantized snapshot covers {} layers, network has {}",
                    snapshot.layers.len(),
                    self.num_layers()
                ),
            });
        }
        let layer = &self.layers()[layer_idx];
        if let (LayerKind::FullyConnected, Some(w), Some(b)) =
            (layer.kind(), layer.weight_matrix(), layer.bias_vector())
        {
            if w.rank() == 2 {
                let q = QuantizedMatrix::from_f32(w.as_slice(), w.dims()[0], w.dims()[1])
                    .expect("weight matrix length matches its own dims");
                snapshot.layers[layer_idx] =
                    Some(QuantizedDense { weights: q, bias: b.as_slice().to_vec() });
            }
        }
        Ok(())
    }

    /// Quantized [`Network::forward`]: runs the full stack on a flat
    /// `[batch × in_features]` activation buffer, returning the logits as a
    /// borrowed slice of `scratch` (no output allocation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward_from_quantized`].
    pub fn forward_quantized<'s>(
        &mut self,
        snapshot: &QuantizedNet,
        input: &[f32],
        batch: usize,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        self.forward_from_quantized(0, snapshot, input, batch, scratch)
    }

    /// Batch-composition-safe quantized forward: every activation row is
    /// quantized with its **own** range and step at every dense layer
    /// ([`memaging_tensor::quant::quantize_rows_into`] /
    /// [`memaging_tensor::quant::qmm_rows_into`]), so row `i` of the output
    /// is bit-for-bit what [`Network::forward_quantized`] returns for that
    /// row served alone with `batch = 1`. This is the serving tier's batched
    /// dispatch kernel: the dispatcher may group admitted requests into
    /// batches of any size without changing a single response byte, while
    /// the integer matmul amortizes its setup over the whole batch.
    ///
    /// (The shared-step [`Network::forward_quantized`] quantizes the whole
    /// batch against one range, which is faster for the sweep engine's fixed
    /// calibration batches but makes outputs depend on batch composition —
    /// unacceptable under racy admission.)
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a zero batch or a snapshot
    /// shape mismatch, [`NnError::BadInput`] for a wrong input length;
    /// propagates fallback layer errors.
    pub fn forward_quantized_rows<'s>(
        &mut self,
        snapshot: &QuantizedNet,
        input: &[f32],
        batch: usize,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        if batch == 0 {
            return Err(NnError::InvalidConfig {
                reason: "forward_quantized_rows needs a positive batch".to_string(),
            });
        }
        if snapshot.layers.len() != self.num_layers() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "quantized snapshot covers {} layers, network has {}",
                    snapshot.layers.len(),
                    self.num_layers()
                ),
            });
        }
        let width = if self.num_layers() > 0 {
            self.layers()[0].in_features()
        } else {
            input.len() / batch
        };
        if input.len() != batch * width {
            return Err(NnError::BadInput {
                layer: "quantized-forward",
                expected: width,
                actual: input.len() / batch,
            });
        }
        scratch.ping.clear();
        scratch.ping.extend_from_slice(input);
        self.run_quantized_layers_impl(0, snapshot, batch, width, true, scratch)
    }

    /// Quantized [`Network::forward_from`]: replays layers `start..` on an
    /// activation that already passed through the prefix. Fully-connected
    /// layers run the integer kernel, shape-preserving layers apply in
    /// place, everything else falls back to the layer's f32 forward.
    ///
    /// The result depends only on the input bits and the snapshot, never on
    /// the thread count — integer accumulation is exact and the f32
    /// fallbacks use the order-pinned kernels of `memaging_tensor::ops`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `start` exceeds the layer
    /// count, the snapshot shape disagrees with the network, or the input
    /// length is not `batch × in_features(start)`; propagates fallback
    /// layer errors.
    pub fn forward_from_quantized<'s>(
        &mut self,
        start: usize,
        snapshot: &QuantizedNet,
        input: &[f32],
        batch: usize,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        if start > self.num_layers() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "forward_from_quantized start {start} exceeds {} layers",
                    self.num_layers()
                ),
            });
        }
        if snapshot.layers.len() != self.num_layers() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "quantized snapshot covers {} layers, network has {}",
                    snapshot.layers.len(),
                    self.num_layers()
                ),
            });
        }
        let width = if start < self.num_layers() {
            self.layers()[start].in_features()
        } else {
            input.len() / batch.max(1)
        };
        if input.len() != batch * width {
            return Err(NnError::BadInput {
                layer: "quantized-forward",
                expected: width,
                actual: input.len() / batch.max(1),
            });
        }
        scratch.ping.clear();
        scratch.ping.extend_from_slice(input);
        self.run_quantized_layers(start, snapshot, batch, width, scratch)
    }

    /// [`Network::forward_from_quantized`] for an activation that is
    /// *already* on the integer grid: `codes`/`step` come from a prior
    /// [`memaging_tensor::quant::quantize_acts_into`] of the `start`
    /// layer's input. The incremental candidate sweep quantizes each cached
    /// prefix batch once and replays it against every candidate, so the
    /// (vectorized but not free) activation quantization of the widest
    /// layer leaves the per-candidate hot path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward_from_quantized`], plus
    /// [`NnError::InvalidConfig`] if layer `start` is not covered by the
    /// snapshot (an f32 fallback layer cannot consume integer codes).
    pub fn forward_from_prequantized<'s>(
        &mut self,
        start: usize,
        snapshot: &QuantizedNet,
        codes: &[i16],
        step: f64,
        batch: usize,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        if snapshot.layers.len() != self.num_layers() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "quantized snapshot covers {} layers, network has {}",
                    snapshot.layers.len(),
                    self.num_layers()
                ),
            });
        }
        let Some(Some(qd)) = snapshot.layers.get(start) else {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "prequantized input needs a snapshot-covered start layer ({start})"
                ),
            });
        };
        let k = qd.weights.rows();
        if codes.len() != batch * k {
            return Err(NnError::BadInput {
                layer: "quantized-forward",
                expected: k,
                actual: codes.len() / batch.max(1),
            });
        }
        let n = qd.weights.cols();
        if scratch.pong.len() != batch * n {
            scratch.pong.clear();
            scratch.pong.resize(batch * n, 0.0);
        }
        qmm_into(codes, step, batch, &qd.weights, Some(&qd.bias), &mut scratch.pong);
        std::mem::swap(&mut scratch.ping, &mut scratch.pong);
        self.run_quantized_layers(start + 1, snapshot, batch, n, scratch)
    }

    /// Continues a quantized forward from a ready-made *integer
    /// pre-activation* of dense layer `start`: `pre_t` is the transposed
    /// `cols × batch` product from [`memaging_tensor::quant::qmm_pre_t_into`]
    /// (or a base product updated by
    /// [`memaging_tensor::quant::qdelta_apply_t`]), and `scale` is
    /// `act_step · weights.scale()`. The epilogue applies dequantization and
    /// the layer's bias with the exact float expressions of
    /// [`memaging_tensor::quant::qmm_into`], so the result is bit-identical
    /// to [`Network::forward_from_prequantized`] on the same codes — this is
    /// the entry point of the range-selection engine's sparse-delta candidate
    /// replay.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the snapshot disagrees with the
    /// network or layer `start` is not snapshot-covered, and
    /// [`NnError::BadInput`] if `pre_t` is not `batch × cols` long.
    pub fn forward_from_pre<'s>(
        &mut self,
        start: usize,
        snapshot: &QuantizedNet,
        pre_t: &[i32],
        scale: f64,
        batch: usize,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        if snapshot.layers.len() != self.num_layers() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "quantized snapshot covers {} layers, network has {}",
                    snapshot.layers.len(),
                    self.num_layers()
                ),
            });
        }
        let Some(Some(qd)) = snapshot.layers.get(start) else {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "pre-activation input needs a snapshot-covered start layer ({start})"
                ),
            });
        };
        let n = qd.weights.cols();
        if pre_t.len() != batch * n {
            return Err(NnError::BadInput {
                layer: "quantized-forward",
                expected: n,
                actual: pre_t.len() / batch.max(1),
            });
        }
        if scratch.ping.len() != batch * n {
            scratch.ping.clear();
            scratch.ping.resize(batch * n, 0.0);
        }
        for (j, col) in pre_t.chunks_exact(batch.max(1)).enumerate() {
            let b = qd.bias[j] as f64;
            for (i, &t) in col.iter().enumerate() {
                // Same expression as qmm_into's fused epilogue (i32 → i64 →
                // f64 is exact), so bits match the full quantized product.
                scratch.ping[i * n + j] = (t as i64 as f64 * scale + b) as f32;
            }
        }
        self.run_quantized_layers(start + 1, snapshot, batch, n, scratch)
    }

    /// Shared layer loop of the quantized forwards: `scratch.ping` holds
    /// the activation entering layer `start`; `pong` receives each dense
    /// product, then the buffers swap.
    fn run_quantized_layers<'s>(
        &mut self,
        start: usize,
        snapshot: &QuantizedNet,
        batch: usize,
        width: usize,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        self.run_quantized_layers_impl(start, snapshot, batch, width, false, scratch)
    }

    /// [`Network::run_quantized_layers`] with the activation-step policy
    /// explicit: `per_row_steps` quantizes each batch row against its own
    /// range (the batch-composition-safe serving mode), otherwise the whole
    /// batch shares one step (the sweep engine's comparable-grid mode).
    fn run_quantized_layers_impl<'s>(
        &mut self,
        start: usize,
        snapshot: &QuantizedNet,
        batch: usize,
        mut width: usize,
        per_row_steps: bool,
        scratch: &'s mut QuantScratch,
    ) -> Result<&'s [f32], NnError> {
        for idx in start..self.num_layers() {
            if let Some(qd) = &snapshot.layers[idx] {
                let n = qd.weights.cols();
                // Size without zero-filling when possible: the integer
                // kernels overwrite every element.
                if scratch.pong.len() != batch * n {
                    scratch.pong.clear();
                    scratch.pong.resize(batch * n, 0.0);
                }
                if per_row_steps {
                    quantize_rows_into(
                        &scratch.ping,
                        batch,
                        &mut scratch.codes,
                        &mut scratch.row_steps,
                    );
                    qmm_rows_into(
                        &scratch.codes,
                        &scratch.row_steps,
                        batch,
                        &qd.weights,
                        Some(&qd.bias),
                        &mut scratch.pong,
                    );
                } else {
                    let step = quantize_acts_into(&scratch.ping, &mut scratch.codes);
                    qmm_into(
                        &scratch.codes,
                        step,
                        batch,
                        &qd.weights,
                        Some(&qd.bias),
                        &mut scratch.pong,
                    );
                }
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
                width = n;
                continue;
            }
            let layer = &mut self.layers_mut()[idx];
            if layer.eval_in_place(&mut scratch.ping) {
                continue;
            }
            let x = Tensor::from_vec(std::mem::take(&mut scratch.ping), [batch, width])
                .expect("buffer sized batch × width");
            let y = layer.forward(&x, Mode::Eval)?;
            width = y.len() / batch.max(1);
            scratch.ping = y.into_vec();
        }
        Ok(&scratch.ping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use memaging_tensor::quant::dot_error_bound;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Network {
        models::mlp(&[12, 9, 5], &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn snapshot_covers_dense_layers_only() {
        let net = mlp(3);
        let q = net.quantize_weights();
        assert_eq!(q.num_layers(), 3);
        assert_eq!(q.quantized_layers(), 2, "two dense layers, relu uncovered");
    }

    #[test]
    fn quantized_forward_tracks_f32_within_bound() {
        let mut net = mlp(7);
        let batch = 4;
        let input: Vec<f32> =
            (0..batch * 12).map(|i| ((i * 13 % 31) as f32 - 15.0) * 0.09).collect();
        let x = Tensor::from_vec(input.clone(), [batch, 12]).unwrap();
        let oracle = net.forward(&x, Mode::Eval).unwrap();
        let snapshot = net.quantize_weights();
        let mut scratch = QuantScratch::new();
        let got = net.forward_quantized(&snapshot, &input, batch, &mut scratch).unwrap();
        assert_eq!(got.len(), oracle.len());
        // Loose sanity bound: one layer's provable error, amplified through
        // the second layer by its weight magnitude, stays far below 0.1 for
        // these Xavier-scale weights.
        let bound = dot_error_bound(12, 1.0 / 511.0, 1.0 / 2047.0, 1.0, 2.0).max(0.1);
        for (g, o) in got.iter().zip(oracle.as_slice()) {
            assert!((g - o).abs() as f64 <= bound, "quantized {g} vs f32 {o}");
        }
    }

    #[test]
    fn prefix_suffix_split_matches_full_quantized_forward() {
        let mut net = mlp(9);
        let batch = 3;
        let input: Vec<f32> = (0..batch * 12).map(|i| (i as f32 * 0.21).sin()).collect();
        let snapshot = net.quantize_weights();
        let mut scratch = QuantScratch::new();
        let full: Vec<f32> =
            net.forward_quantized(&snapshot, &input, batch, &mut scratch).unwrap().to_vec();
        for split in 0..=net.num_layers() {
            let x = Tensor::from_vec(input.clone(), [batch, 12]).unwrap();
            let prefix = net.forward_prefix(split, &x, Mode::Eval).unwrap();
            // Splitting mixes f32 prefix activations into the quantized
            // suffix, so bits may differ from the all-quantized pass — but
            // split 0 must be exact.
            let out = net
                .forward_from_quantized(split, &snapshot, prefix.as_slice(), batch, &mut scratch)
                .unwrap();
            assert_eq!(out.len(), full.len());
            if split == 0 {
                assert_eq!(out, &full[..], "split 0 must equal the full quantized pass");
            }
        }
    }

    #[test]
    fn forward_from_pre_matches_prequantized_forward() {
        use memaging_tensor::quant::{qmm_pre_t_into, quantize_acts_into};
        let mut net = mlp(17);
        let batch = 5;
        let acts: Vec<f32> = (0..batch * 12).map(|i| ((i * 5 % 27) as f32 - 13.0) * 0.11).collect();
        let snapshot = net.quantize_weights();
        let mut codes = Vec::new();
        let step = quantize_acts_into(&acts, &mut codes);
        let mut scratch = QuantScratch::new();
        let expect: Vec<u32> = net
            .forward_from_prequantized(0, &snapshot, &codes, step, batch, &mut scratch)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let qd = snapshot.layers[0].as_ref().unwrap();
        let mut pre_t = vec![0i32; qd.weights.cols() * batch];
        qmm_pre_t_into(&codes, batch, &qd.weights, &mut pre_t);
        let scale = step * qd.weights.scale();
        let got: Vec<u32> = net
            .forward_from_pre(0, &snapshot, &pre_t, scale, batch, &mut scratch)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expect, "pre-activation entry must match the fused kernel bit for bit");
        assert!(net.forward_from_pre(1, &snapshot, &pre_t, scale, batch, &mut scratch).is_err());
    }

    #[test]
    fn rows_forward_matches_solo_requests_bit_for_bit() {
        // The serving tier's batching contract: any grouping of requests
        // into batches returns the same bytes as serving each alone.
        let mut net = mlp(23);
        let snapshot = net.quantize_weights();
        let mut scratch = QuantScratch::new();
        for batch in [1usize, 2, 5, 8] {
            let input: Vec<f32> =
                (0..batch * 12).map(|i| ((i * 17 % 43) as f32 - 21.0) * 0.08).collect();
            let batched: Vec<u32> = net
                .forward_quantized_rows(&snapshot, &input, batch, &mut scratch)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let n = batched.len() / batch;
            for i in 0..batch {
                let solo: Vec<u32> = net
                    .forward_quantized(&snapshot, &input[i * 12..(i + 1) * 12], 1, &mut scratch)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(
                    &batched[i * n..(i + 1) * n],
                    &solo[..],
                    "batch {batch} row {i} diverged from its solo forward"
                );
            }
        }
        assert!(net.forward_quantized_rows(&snapshot, &[], 0, &mut scratch).is_err());
        assert!(net.forward_quantized_rows(&snapshot, &[0.0; 5], 1, &mut scratch).is_err());
    }

    #[test]
    fn rows_forward_is_deterministic_across_thread_counts() {
        let mut net = models::mlp(&[40, 24, 6], &mut StdRng::seed_from_u64(29)).unwrap();
        let batch = 16;
        let input: Vec<f32> = (0..batch * 40).map(|i| ((i % 31) as f32 - 15.0) * 0.09).collect();
        let snapshot = net.quantize_weights();
        let mut scratch = QuantScratch::new();
        memaging_par::set_threads(1);
        let reference: Vec<u32> = net
            .forward_quantized_rows(&snapshot, &input, batch, &mut scratch)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for threads in [2, 8] {
            memaging_par::set_threads(threads);
            let got: Vec<u32> = net
                .forward_quantized_rows(&snapshot, &input, batch, &mut scratch)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, reference, "thread count {threads} changed bits");
        }
        memaging_par::set_threads(1);
    }

    #[test]
    fn requantize_layer_follows_weight_update() {
        let mut net = mlp(11);
        let mut snapshot = net.quantize_weights();
        let mut w = net.weight_matrices()[1].as_slice().to_vec();
        for v in &mut w {
            *v = -*v;
        }
        net.set_weight_matrix(1, &w).unwrap();
        net.requantize_layer(&mut snapshot, 1).unwrap();
        assert_eq!(snapshot, net.quantize_weights(), "resynced snapshot must match a fresh one");
        assert!(net.requantize_layer(&mut snapshot, 5).is_err());
    }

    #[test]
    fn rejects_bad_input_and_stale_snapshot() {
        let mut net = mlp(13);
        let snapshot = net.quantize_weights();
        let mut scratch = QuantScratch::new();
        assert!(net.forward_quantized(&snapshot, &[0.0; 5], 1, &mut scratch).is_err());
        assert!(net.forward_from_quantized(9, &snapshot, &[0.0; 12], 1, &mut scratch).is_err());
        let mut other = models::mlp(&[12, 9, 8, 5], &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(other.forward_quantized(&snapshot, &[0.0; 12], 1, &mut scratch).is_err());
    }

    #[test]
    fn quantized_forward_is_deterministic_across_thread_counts() {
        let mut net = models::mlp(&[40, 24, 6], &mut StdRng::seed_from_u64(21)).unwrap();
        let batch = 16;
        let input: Vec<f32> = (0..batch * 40).map(|i| ((i % 37) as f32 - 18.0) * 0.07).collect();
        let snapshot = net.quantize_weights();
        let mut scratch = QuantScratch::new();
        memaging_par::set_threads(1);
        let reference: Vec<u32> = net
            .forward_quantized(&snapshot, &input, batch, &mut scratch)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for threads in [2, 8] {
            memaging_par::set_threads(threads);
            let got: Vec<u32> = net
                .forward_quantized(&snapshot, &input, batch, &mut scratch)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, reference, "thread count {threads} changed bits");
        }
        memaging_par::set_threads(1);
    }
}
