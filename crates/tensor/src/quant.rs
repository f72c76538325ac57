//! Fixed-point quantized matmul kernels with an exact determinism contract.
//!
//! The memristor pipeline only ever exposes a few dozen discrete conductance
//! levels per device, so the f32 weight matrices the evaluation loops
//! multiply are — physically — low-precision lookup tables. This module
//! collapses that observation into integer kernels:
//!
//! * weights quantize to `i16` with magnitude ≤ [`WEIGHT_QMAX`] (10 bits —
//!   roughly 15× finer than the ~3% spacing of a 32-level device window);
//! * activations quantize to `i16` with magnitude ≤ [`ACT_QMAX`] (12 bits);
//! * the inner product accumulates products in `i32` over [`K_CHUNK`]-sized
//!   depth chunks, folding each chunk sum into an `i64` total. Every product
//!   fits in 21 bits, so a 1024-deep chunk cannot overflow `i32`, and the
//!   `i64` fold is exact for any practical depth.
//!
//! The quantized matrix is stored **transposed** (one contiguous `i16` row
//! per output column), so each output element is a unit-stride `i16 · i16`
//! dot product. Integer addition is associative, which buys two things the
//! f32 kernels in [`crate::ops`] cannot have: the compiler may vectorize
//! the reduction freely (widening multiply-add, 8 lanes per op on plain
//! SSE2), and the result is **bit identical at every thread count by
//! construction** — no pinned accumulation order needed. The f32 path stays
//! available as the bit-exactness oracle; the classification agreement
//! between the two is asserted by the crossbar/serve test suites and the
//! `exp_map`/`exp_serve` benches.
//!
//! Candidate matrices produced by the range-selection engine take only a
//! handful of distinct values (one per aged-window × conductance-level
//! pair), so [`QuantizedMatrix::from_level_codes`] builds the integer matrix
//! from `u8` level codes plus a per-level value table, quantizing each
//! distinct value exactly once. The result is bitwise identical to
//! [`QuantizedMatrix::from_f32`] on the expanded matrix.
//!
//! Because the integer grid makes the dot product *exactly* distributive,
//! a candidate matrix that differs from an already-evaluated base matrix in
//! only a few cells can be replayed as a sparse update: keep the base
//! product `P_b[i][j] = Σ_p a[i][p]·qb[p][j]` and add
//! `Σ_{(p,j) changed} a[i][p]·(qc − qb)[p][j]` — the result is **bitwise
//! identical** to the full product with `qc` (both are the same exact
//! integer; see [`qdelta_apply_t`]). The f32 kernels cannot offer this
//! shortcut without changing bits, which is exactly why the range-selection
//! engine runs its candidate replay on this module. Sharing one
//! quantization step across all candidates of a sweep (the `*_with_step`
//! constructors) is what makes their codes directly comparable.

use memaging_par::{par_chunks_mut, parallelism_for};

use crate::error::TensorError;

/// Largest magnitude of a quantized weight (10-bit signed grid).
pub const WEIGHT_QMAX: i32 = 511;

/// Largest magnitude of a quantized activation (12-bit signed grid).
pub const ACT_QMAX: i32 = 2047;

/// Depth-chunk length of the `i32` accumulator. `WEIGHT_QMAX * ACT_QMAX *
/// K_CHUNK < 2^31`, so a chunk can never overflow before it is folded into
/// the `i64` total.
pub const K_CHUNK: usize = 1024;

/// Row band processed per parallel work chunk (mirrors the f32 kernels).
const I_BLOCK: usize = 8;

/// The dequantization step for a tensor whose largest magnitude is
/// `max_abs`, on a grid of `qmax` signed steps. A zero (or non-finite)
/// range maps to step `1.0` so all-zero tensors quantize to all zeros.
fn step(max_abs: f64, qmax: i32) -> f64 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / qmax as f64
    } else {
        1.0
    }
}

/// Largest finite magnitude of a slice (`0.0` for empty or all-non-finite
/// input) — the range the weight/activation quantizers divide into their
/// signed grids. Exposed so callers assembling a *shared* step across many
/// matrices (see [`QuantizedMatrix::from_f32_with_step`]) reduce with the
/// exact same semantics.
pub fn max_abs(src: &[f32]) -> f64 {
    // Eight f32 lane maxima vectorize (`maxps`); `f32::max` drops NaN
    // operands, matching the finite-only fold below. Only an infinity can
    // surface as a non-finite lane result, and that rare case falls back to
    // the exact scalar scan — for finite inputs both paths order magnitudes
    // identically (f32 → f64 is exact), so the result never differs.
    let mut acc = [0.0f32; 8];
    let mut it = src.chunks_exact(8);
    for c in &mut it {
        for l in 0..8 {
            acc[l] = acc[l].max(c[l].abs());
        }
    }
    let mut m = 0.0f32;
    for &v in it.remainder() {
        m = m.max(v.abs());
    }
    for &lane in &acc {
        m = m.max(lane);
    }
    if m.is_finite() {
        m as f64
    } else {
        src.iter().fold(0.0f64, |m, &v| {
            let a = (v as f64).abs();
            if a.is_finite() && a > m {
                a
            } else {
                m
            }
        })
    }
}

/// The weight-grid dequantization step for a matrix (or family of matrices)
/// whose largest magnitude is `peak` — `step(peak, WEIGHT_QMAX)`, the exact
/// value [`QuantizedMatrix::from_f32`] derives internally.
pub fn weight_step(peak: f64) -> f64 {
    step(peak, WEIGHT_QMAX)
}

fn quantize_value(v: f32, inv_step: f64, qmax: i32) -> i16 {
    let q = ((v as f64) * inv_step).round();
    (q.clamp(-(qmax as f64), qmax as f64)) as i16
}

/// One activation code: round-half-away-from-zero of `v · inv` saturated to
/// ±[`ACT_QMAX`], without a float → int conversion. LLVM refuses to
/// vectorize Rust's saturating scalar cast (`cvttss2si` per element), so
/// this routes the rounding through the classic 2^23 magic constant
/// instead: adding `2^23` to a non-negative f32 below `2^23` forces the
/// mantissa onto the integer grid (round-half-even), a compare-and-subtract
/// turns that into `floor`, and the integer lands directly in the low
/// mantissa bits of the sum — every step an ordinary f32/bit op the
/// compiler vectorizes. Bit-identical to the saturating-cast form for all
/// inputs: NaN → 0, ±inf pinned to ±`ACT_QMAX`, ties round away from zero.
#[inline]
fn act_code(v: f32, inv: f32) -> i16 {
    const MAGIC: f32 = 8_388_608.0; // 2^23
    let lim = ACT_QMAX as f32;
    let t0 = v * inv;
    // f32::max/min drop a NaN operand (they would pin NaN to -lim), so NaN
    // needs the explicit select the cast form got for free.
    let t = if t0.is_nan() { 0.0 } else { t0.max(-lim).min(lim) };
    // floor(|t| + 0.5) — i.e. round half away — via the magic grid. |t| ≤
    // 2047 keeps `y` exact and `y + 2^23` within the ulp-1.0 range where
    // the round-trip add/subtract yields round-half-even(y).
    let y = t.abs() + 0.5;
    let g = (y + MAGIC) - MAGIC;
    let q_f = if g > y { g - 1.0 } else { g };
    // `q_f + 2^23` has a fixed exponent, so the integer is the mantissa.
    let q = ((q_f + MAGIC).to_bits() & 0x007F_FFFF) as i32;
    let s = (t.to_bits() as i32) >> 31;
    ((q ^ s) - s) as i16
}

/// Quantizes a slice of activations onto the [`ACT_QMAX`] grid, writing the
/// integer codes into `out` (resized to `src.len()`) and returning the
/// dequantization step (`x ≈ q · step`).
///
/// Unlike the (cold-path) weight quantizers this rounds in f32 — scaled
/// magnitudes stay below 2048, far inside f32's exact-integer range, and
/// the branch-free `act_code` kernel vectorizes. Non-finite inputs
/// saturate deterministically. The step is a pure function of the slice
/// contents, so two callers quantizing bit-identical activations get
/// bit-identical codes regardless of thread count or call order.
pub fn quantize_acts_into(src: &[f32], out: &mut Vec<i16>) -> f64 {
    let s = step(max_abs(src), ACT_QMAX);
    let inv = (1.0 / s) as f32;
    out.clear();
    out.extend(src.iter().map(|&v| act_code(v, inv)));
    s
}

/// Quantizes a row-major `m × (src.len() / m)` activation matrix one row at
/// a time: row `i` gets its **own** range scan and dequantization step
/// (`steps[i]`), exactly as if [`quantize_acts_into`] had been called on
/// that row alone. This is the batching-safe activation quantizer: because
/// each row's codes and step depend only on that row's bytes, grouping
/// requests into batches of any composition cannot change any row's codes —
/// the property the serving tier's batched dispatch relies on.
///
/// # Panics
///
/// Panics if `m == 0` or `src.len()` is not a multiple of `m`.
pub fn quantize_rows_into(src: &[f32], m: usize, out: &mut Vec<i16>, steps: &mut Vec<f64>) {
    assert!(m > 0, "row count must be positive");
    assert_eq!(src.len() % m, 0, "activation buffer must hold m equal rows");
    let k = src.len() / m;
    out.clear();
    out.reserve(src.len());
    steps.clear();
    steps.reserve(m);
    if k == 0 {
        // Zero-width rows quantize to nothing with the zero-range step.
        steps.extend(std::iter::repeat_n(1.0, m));
        return;
    }
    for row in src.chunks_exact(k) {
        let s = step(max_abs(row), ACT_QMAX);
        let inv = (1.0 / s) as f32;
        out.extend(row.iter().map(|&v| act_code(v, inv)));
        steps.push(s);
    }
}

/// A weight matrix quantized onto the [`WEIGHT_QMAX`] grid.
///
/// Logically `rows × cols` (matching the right-hand operand of
/// [`crate::ops::matmul`]); stored transposed — one contiguous `i16` row
/// per output column — so the matmul inner loop is a unit-stride dot
/// product. `w ≈ q · scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Transposed codes: `qt[j * rows + p]` holds logical element `(p, j)`.
    qt: Vec<i16>,
    scale: f64,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `rows × cols` f32 matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `src.len() != rows *
    /// cols`.
    pub fn from_f32(src: &[f32], rows: usize, cols: usize) -> Result<Self, TensorError> {
        if src.len() != rows * cols {
            return Err(TensorError::DataLengthMismatch {
                expected: rows * cols,
                actual: src.len(),
            });
        }
        Self::from_f32_with_step(src, rows, cols, weight_step(max_abs(src)))
    }

    /// [`QuantizedMatrix::from_f32`] with an explicit, caller-chosen
    /// dequantization step. The range-selection sweep quantizes every
    /// candidate of one sweep with a *shared* step
    /// (`weight_step(max over all candidates)`), putting all candidate codes
    /// on one comparable grid — the precondition for the exact sparse-delta
    /// replay of [`qdelta_apply_t`]. Values beyond `step · WEIGHT_QMAX`
    /// clamp onto the grid boundary (deterministically); a non-positive or
    /// non-finite step falls back to `1.0`, mirroring the zero-range rule of
    /// the derived-step constructors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `src.len() != rows *
    /// cols`.
    pub fn from_f32_with_step(
        src: &[f32],
        rows: usize,
        cols: usize,
        step: f64,
    ) -> Result<Self, TensorError> {
        if src.len() != rows * cols {
            return Err(TensorError::DataLengthMismatch {
                expected: rows * cols,
                actual: src.len(),
            });
        }
        let scale = if step > 0.0 && step.is_finite() { step } else { 1.0 };
        let inv = 1.0 / scale;
        let mut qt = vec![0i16; rows * cols];
        for p in 0..rows {
            for j in 0..cols {
                qt[j * rows + p] = quantize_value(src[p * cols + j], inv, WEIGHT_QMAX);
            }
        }
        Ok(QuantizedMatrix { rows, cols, qt, scale })
    }

    /// Builds the quantized matrix from per-cell `u8` level codes (row
    /// major) and the per-level value table the range-selection engine
    /// already maintains (one entry per aged-window × conductance-level
    /// pair).
    ///
    /// Each distinct value is quantized exactly once; the scale is computed
    /// over the values actually referenced by `codes`, so the result is
    /// **bitwise identical** to [`QuantizedMatrix::from_f32`] on the
    /// expanded `values[codes[i]]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `codes.len() != rows *
    /// cols` or any code indexes past `values`.
    pub fn from_level_codes(
        codes: &[u8],
        values: &[f32],
        rows: usize,
        cols: usize,
    ) -> Result<Self, TensorError> {
        if codes.len() != rows * cols {
            return Err(TensorError::DataLengthMismatch {
                expected: rows * cols,
                actual: codes.len(),
            });
        }
        let mut used = [false; 256];
        for &c in codes {
            if c as usize >= values.len() {
                return Err(TensorError::DataLengthMismatch {
                    expected: values.len(),
                    actual: c as usize,
                });
            }
            used[c as usize] = true;
        }
        let mut peak = 0.0f64;
        for (i, &v) in values.iter().enumerate() {
            if used[i] {
                let a = (v as f64).abs();
                if a.is_finite() && a > peak {
                    peak = a;
                }
            }
        }
        Self::from_level_codes_with_step(codes, values, rows, cols, weight_step(peak))
    }

    /// [`QuantizedMatrix::from_level_codes`] with an explicit dequantization
    /// step — the coded counterpart of
    /// [`QuantizedMatrix::from_f32_with_step`], with the same clamping and
    /// step-fallback rules. Bitwise identical to `from_f32_with_step` on the
    /// expanded `values[codes[i]]` matrix with the same step.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `codes.len() != rows *
    /// cols` or any code indexes past `values`.
    pub fn from_level_codes_with_step(
        codes: &[u8],
        values: &[f32],
        rows: usize,
        cols: usize,
        step: f64,
    ) -> Result<Self, TensorError> {
        if codes.len() != rows * cols {
            return Err(TensorError::DataLengthMismatch {
                expected: rows * cols,
                actual: codes.len(),
            });
        }
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= values.len()) {
            return Err(TensorError::DataLengthMismatch {
                expected: values.len(),
                actual: bad as usize,
            });
        }
        let scale = if step > 0.0 && step.is_finite() { step } else { 1.0 };
        let inv = 1.0 / scale;
        let mut lut = [0i16; 256];
        for (slot, &v) in lut.iter_mut().zip(values.iter()) {
            *slot = quantize_value(v, inv, WEIGHT_QMAX);
        }
        let mut qt = vec![0i16; rows * cols];
        for p in 0..rows {
            for j in 0..cols {
                qt[j * rows + p] = lut[codes[p * cols + j] as usize];
            }
        }
        Ok(QuantizedMatrix { rows, cols, qt, scale })
    }

    /// Number of rows (the contraction depth `k`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the output width `n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The dequantization step (`w ≈ q · scale`).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The raw integer codes in transposed (column-major) storage order:
    /// `qt()[j * rows() + p]` is logical element `(p, j)`.
    pub fn qt(&self) -> &[i16] {
        &self.qt
    }
}

/// One [`K_CHUNK`]-bounded dot product `Σ_p a[p]·w[p]` in `i32`, spread
/// over sixteen independent lane accumulators so the reduction has no
/// serial dependency chain: the compiler turns each 8-lane group into one
/// widening multiply-add per iteration (`pmaddwd` on x86), and the
/// dependency distance lets two of them retire per cycle. Lane overflow is
/// impossible: each lane sums at most `⌈K_CHUNK/16⌉ = 64` products of
/// magnitude ≤ `ACT_QMAX · WEIGHT_QMAX` (< 2^21), and the final fold stays
/// below `K_CHUNK · ACT_QMAX · WEIGHT_QMAX < 2^31`. Integer addition is
/// associative, so the lane split changes no bits.
#[inline]
fn qdot_chunk(a: &[i16], w: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), w.len());
    debug_assert!(a.len() <= K_CHUNK);
    let mut acc0 = [0i32; 8];
    let mut acc1 = [0i32; 8];
    let mut ai = a.chunks_exact(16);
    let mut wi = w.chunks_exact(16);
    for (ac, wc) in (&mut ai).zip(&mut wi) {
        for l in 0..8 {
            acc0[l] += ac[l] as i32 * wc[l] as i32;
        }
        for l in 0..8 {
            acc1[l] += ac[8 + l] as i32 * wc[8 + l] as i32;
        }
    }
    // Shallow contractions (the suffix layers) land in the remainder: give
    // them one more 8-lane pass before the scalar tail.
    let mut ai8 = ai.remainder().chunks_exact(8);
    let mut wi8 = wi.remainder().chunks_exact(8);
    for (ac, wc) in (&mut ai8).zip(&mut wi8) {
        for l in 0..8 {
            acc0[l] += ac[l] as i32 * wc[l] as i32;
        }
    }
    let mut s = 0i32;
    for (&x, &y) in ai8.remainder().iter().zip(wi8.remainder()) {
        s += x as i32 * y as i32;
    }
    for l in 0..8 {
        s += acc0[l] + acc1[l];
    }
    s
}

/// One quantized dot product `Σ_p a[p]·w[p]`, accumulated `i32` per
/// [`K_CHUNK`] then folded exactly into `i64`. Both operands are contiguous
/// `i16` slices, so the compiler reduces this with widening multiply-add
/// lanes — the integer sum is associative, unlike the f32 kernels.
#[inline]
fn qdot(a: &[i16], w: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), w.len());
    let mut total = 0i64;
    for (ab, wb) in a.chunks(K_CHUNK).zip(w.chunks(K_CHUNK)) {
        total += qdot_chunk(ab, wb) as i64;
    }
    total
}

/// Quantized matrix product with fused dequantization and bias:
/// `out[i][j] = (Σ_p acts[i][p]·w[p][j]) · (act_scale·w.scale) + bias[j]`.
///
/// `acts` is the row-major `m × w.rows()` integer activation matrix from
/// [`quantize_acts_into`]; `out` must hold `m × w.cols()` elements. Rows
/// parallelize over disjoint output bands when the product is large enough
/// ([`memaging_par::parallelism_for`]); because the integer accumulation is
/// exact, the result is bit-identical at every thread count.
///
/// # Panics
///
/// Panics if `acts.len() != m * w.rows()`, `out.len() != m * w.cols()`, or
/// a bias is present with `bias.len() != w.cols()`.
pub fn qmm_into(
    acts: &[i16],
    act_scale: f64,
    m: usize,
    w: &QuantizedMatrix,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let (k, n) = (w.rows, w.cols);
    assert_eq!(acts.len(), m * k, "activation buffer length");
    assert_eq!(out.len(), m * n, "output buffer length");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length");
    }
    let scale = act_scale * w.scale;
    // Single-row products (the serving tier's per-request forward) skip the
    // band machinery: at this size the parallel dispatch costs more than
    // the whole product, and the serial loop is bit-identical anyway. For
    // typical depths (k ≤ K_CHUNK) the chunk iterator of `qdot` is also
    // skipped — one `qdot_chunk` call per column is the same exact integer.
    if m == 1 {
        if k <= K_CHUNK {
            for (j, o) in out.iter_mut().enumerate() {
                let t = qdot_chunk(acts, &w.qt[j * k..(j + 1) * k]) as i64;
                let b = bias.map_or(0.0, |b| b[j] as f64);
                *o = (t as f64 * scale + b) as f32;
            }
        } else {
            for (j, o) in out.iter_mut().enumerate() {
                let t = qdot(acts, &w.qt[j * k..(j + 1) * k]);
                let b = bias.map_or(0.0, |b| b[j] as f64);
                *o = (t as f64 * scale + b) as f32;
            }
        }
        return;
    }
    let threads = parallelism_for(2 * m * k * n);
    par_chunks_mut(out, n * I_BLOCK, threads, |band, chunk| {
        let i0 = band * I_BLOCK;
        for (r, orow) in chunk.chunks_mut(n).enumerate() {
            let i = i0 + r;
            let arow = &acts[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                let t = qdot(arow, &w.qt[j * k..(j + 1) * k]);
                let b = bias.map_or(0.0, |b| b[j] as f64);
                *o = (t as f64 * scale + b) as f32;
            }
        }
    });
}

/// [`qmm_into`] with a **per-row** activation step: row `i` dequantizes
/// with `row_steps[i] · w.scale()`, so each output row is bit-for-bit what
/// [`qmm_into`] would produce for that row alone with `act_scale =
/// row_steps[i]`. Together with [`quantize_rows_into`] this is the batched
/// serving kernel: the integer accumulation is exact and every row reads
/// only its own activations, so the results are independent of batch
/// composition *and* thread count — a request served in a batch of eight
/// returns the same bytes as one served alone.
///
/// # Panics
///
/// Panics if `acts.len() != m * w.rows()`, `out.len() != m * w.cols()`,
/// `row_steps.len() != m`, or a bias is present with `bias.len() !=
/// w.cols()`.
pub fn qmm_rows_into(
    acts: &[i16],
    row_steps: &[f64],
    m: usize,
    w: &QuantizedMatrix,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let (k, n) = (w.rows, w.cols);
    assert_eq!(acts.len(), m * k, "activation buffer length");
    assert_eq!(out.len(), m * n, "output buffer length");
    assert_eq!(row_steps.len(), m, "one activation step per row");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length");
    }
    if m == 1 {
        qmm_into(acts, row_steps[0], 1, w, bias, out);
        return;
    }
    let threads = parallelism_for(2 * m * k * n);
    par_chunks_mut(out, n * I_BLOCK, threads, |band, chunk| {
        let i0 = band * I_BLOCK;
        for (r, orow) in chunk.chunks_mut(n).enumerate() {
            let i = i0 + r;
            let arow = &acts[i * k..(i + 1) * k];
            let scale = row_steps[i] * w.scale;
            if k <= K_CHUNK {
                for (j, o) in orow.iter_mut().enumerate() {
                    let t = qdot_chunk(arow, &w.qt[j * k..(j + 1) * k]) as i64;
                    let b = bias.map_or(0.0, |b| b[j] as f64);
                    *o = (t as f64 * scale + b) as f32;
                }
            } else {
                for (j, o) in orow.iter_mut().enumerate() {
                    let t = qdot(arow, &w.qt[j * k..(j + 1) * k]);
                    let b = bias.map_or(0.0, |b| b[j] as f64);
                    *o = (t as f64 * scale + b) as f32;
                }
            }
        }
    });
}

/// Integer-only matrix product into a **transposed** pre-activation buffer:
/// `pre_t[j·m + i] = Σ_p acts[i·k + p] · w[p][j]`, with no dequantization.
/// The transposed layout keeps each output column contiguous over the batch
/// dimension, which is what the sparse-delta kernel
/// ([`qdelta_apply_t`]) updates with unit stride. Serial by design: the
/// range-selection engine calls it from per-worker contexts that are
/// already running in parallel.
///
/// The caller retains `pre_t` as the *base* product of an incremental
/// candidate chain; an epilogue consuming it must multiply by
/// `act_scale · w.scale()` and add the bias exactly as [`qmm_into`] does to
/// stay bit-identical with it.
///
/// # Panics
///
/// Panics if `w.rows() > K_CHUNK` (a deeper contraction could overflow the
/// `i32` cells — such layers must use [`qmm_into`]), or on length mismatch
/// of `acts` (`m × w.rows()`) or `pre_t` (`w.cols() × m`).
pub fn qmm_pre_t_into(acts: &[i16], m: usize, w: &QuantizedMatrix, pre_t: &mut [i32]) {
    let (k, n) = (w.rows, w.cols);
    assert!(k <= K_CHUNK, "pre-activation kernel is limited to k <= K_CHUNK (got {k})");
    assert_eq!(acts.len(), m * k, "activation buffer length");
    assert_eq!(pre_t.len(), n * m, "pre-activation buffer length");
    for i in 0..m {
        let arow = &acts[i * k..(i + 1) * k];
        for j in 0..n {
            pre_t[j * m + i] = qdot_chunk(arow, &w.qt[j * k..(j + 1) * k]);
        }
    }
}

/// One changed cell between two same-shape, same-step quantized matrices:
/// logical position `(row, col)` and the signed code difference
/// `dq = cand − base`. `dq` always fits `i16` (both codes are within
/// ±[`WEIGHT_QMAX`]), and the delta product `act · dq` stays below 2^22 —
/// comfortably inside the `i32` update of [`qdelta_apply_t`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QCellDelta {
    /// Logical row (contraction index `p`).
    pub row: u32,
    /// Logical column (output index `j`).
    pub col: u32,
    /// Code difference `cand[p][j] − base[p][j]`.
    pub dq: i16,
}

/// Collects the cells where `cand` differs from `base` (both in the
/// transposed storage order of [`QuantizedMatrix::qt`], sharing depth `k`),
/// appending at most `max` entries to `out`. Returns `false` — leaving
/// `out` truncated — when the matrices differ in more than `max` cells, the
/// caller's signal that a full product is cheaper than a sparse update.
pub fn qt_diff_within(
    base: &[i16],
    cand: &[i16],
    k: usize,
    max: usize,
    out: &mut Vec<QCellDelta>,
) -> bool {
    debug_assert_eq!(base.len(), cand.len());
    out.clear();
    for (j, (bcol, ccol)) in base.chunks_exact(k).zip(cand.chunks_exact(k)).enumerate() {
        for (p, (&b, &c)) in bcol.iter().zip(ccol).enumerate() {
            if b != c {
                if out.len() == max {
                    return false;
                }
                out.push(QCellDelta {
                    row: p as u32,
                    col: j as u32,
                    dq: (c as i32 - b as i32) as i16,
                });
            }
        }
    }
    true
}

/// Applies a sparse candidate delta to a transposed pre-activation buffer:
/// for every changed cell, `pre_t[col][0..m] += acts_t[row][0..m] · dq`.
/// `acts_t` is the activation matrix transposed to `k × m`
/// ([`transpose_codes`]), so both the read and the update run at unit
/// stride over the batch and vectorize.
///
/// **Exactness.** Integer multiplication distributes over addition, so
/// `base product + delta` is the *same exact integer* as the full product
/// with the candidate matrix — not an approximation. No intermediate can
/// overflow: the base cell is bounded by `k·ACT_QMAX·WEIGHT_QMAX` and the
/// per-cell delta contribution by `k·ACT_QMAX·2·WEIGHT_QMAX`, whose sum
/// stays below `2^31` for every `k ≤ K_CHUNK` (the bound
/// [`qmm_pre_t_into`] enforces).
///
/// # Panics
///
/// Panics (in debug builds) if a delta indexes outside `acts_t`/`pre_t`.
pub fn qdelta_apply_t(acts_t: &[i16], m: usize, deltas: &[QCellDelta], pre_t: &mut [i32]) {
    for d in deltas {
        let a = &acts_t[d.row as usize * m..d.row as usize * m + m];
        let o = &mut pre_t[d.col as usize * m..d.col as usize * m + m];
        let dq = d.dq as i32;
        for (ov, &av) in o.iter_mut().zip(a) {
            *ov += av as i32 * dq;
        }
    }
}

/// Transposes a row-major `m × k` code matrix into `out` (`k × m`,
/// `out[p·m + i] = codes[i·k + p]`) — the activation layout
/// [`qdelta_apply_t`] consumes. The range-selection engine does this once
/// per cached prefix batch.
pub fn transpose_codes(codes: &[i16], m: usize, k: usize, out: &mut Vec<i16>) {
    debug_assert_eq!(codes.len(), m * k);
    out.clear();
    out.resize(m * k, 0);
    for i in 0..m {
        for p in 0..k {
            out[p * m + i] = codes[i * k + p];
        }
    }
}

/// The provable worst-case error of one quantized dot product against the
/// exact real-valued product, before the final `f64 → f32` rounding:
/// `k · (½·x_step·max|w| + ½·w_step·max|x| + ¼·w_step·x_step)`.
///
/// Used by the property tests to bound the quantized-vs-f32 drift and to
/// decide when a classification margin is wide enough that argmax equality
/// is guaranteed.
pub fn dot_error_bound(k: usize, w_step: f64, x_step: f64, max_w: f64, max_x: f64) -> f64 {
    k as f64 * (0.5 * x_step * max_w + 0.5 * w_step * max_x + 0.25 * w_step * x_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_ref(acts: &[f32], w: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += acts[i * k + p] as f64 * w[p * n + j] as f64;
                }
            }
        }
        out.iter().enumerate().map(|(idx, &v)| (v + bias[idx % n] as f64) as f32).collect()
    }

    #[test]
    fn quantize_round_trips_within_half_step() {
        let src: Vec<f32> = (0..64).map(|i| ((i as f32) - 31.5) * 0.042).collect();
        let q = QuantizedMatrix::from_f32(&src, 8, 8).unwrap();
        for p in 0..8 {
            for j in 0..8 {
                let v = src[p * 8 + j];
                let back = q.qt()[j * 8 + p] as f64 * q.scale();
                assert!(
                    (back - v as f64).abs() <= q.scale() / 2.0 + 1e-12,
                    "value {v} decoded {back}"
                );
            }
        }
    }

    #[test]
    fn all_zero_matrix_quantizes_to_zero() {
        let q = QuantizedMatrix::from_f32(&[0.0; 6], 2, 3).unwrap();
        assert!(q.qt().iter().all(|&c| c == 0));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn from_f32_validates_length() {
        assert!(QuantizedMatrix::from_f32(&[0.0; 5], 2, 3).is_err());
    }

    #[test]
    fn from_level_codes_matches_expanded_from_f32() {
        // Values table larger than the used set: the scale must come from
        // the referenced values only, matching from_f32 on the expansion.
        let values = [0.8f32, -0.35, 0.12, 99.0, -0.07];
        let codes: Vec<u8> = vec![0, 1, 2, 4, 2, 1, 0, 4, 2, 1, 0, 2];
        let expanded: Vec<f32> = codes.iter().map(|&c| values[c as usize]).collect();
        let via_codes = QuantizedMatrix::from_level_codes(&codes, &values, 3, 4).unwrap();
        let via_f32 = QuantizedMatrix::from_f32(&expanded, 3, 4).unwrap();
        assert_eq!(via_codes, via_f32);
    }

    #[test]
    fn from_level_codes_rejects_bad_code() {
        assert!(QuantizedMatrix::from_level_codes(&[0, 3], &[1.0, 2.0], 1, 2).is_err());
        assert!(QuantizedMatrix::from_level_codes(&[0], &[1.0], 1, 2).is_err());
    }

    #[test]
    fn qmm_tracks_f32_reference_within_bound() {
        let (m, k, n) = (5, 37, 11);
        let acts: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.13).collect();
        let w: Vec<f32> = (0..k * n).map(|i| ((i * 5 % 19) as f32 - 9.0) * 0.021).collect();
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 5.0) * 0.3).collect();
        let qw = QuantizedMatrix::from_f32(&w, k, n).unwrap();
        let mut qa = Vec::new();
        let x_step = quantize_acts_into(&acts, &mut qa);
        let mut out = vec![0.0f32; m * n];
        qmm_into(&qa, x_step, m, &qw, Some(&bias), &mut out);
        let reference = dense_ref(&acts, &w, &bias, m, k, n);
        let bound = dot_error_bound(
            k,
            qw.scale(),
            x_step,
            w.iter().fold(0.0f64, |a, &v| a.max((v as f64).abs())),
            acts.iter().fold(0.0f64, |a, &v| a.max((v as f64).abs())),
        ) + 1e-5;
        for (got, want) in out.iter().zip(reference.iter()) {
            assert!(
                (got - want).abs() as f64 <= bound,
                "quantized {got} vs f32 {want}, bound {bound}"
            );
        }
    }

    #[test]
    fn qmm_is_bit_identical_across_thread_counts() {
        let (m, k, n) = (33, 144, 16);
        let acts: Vec<f32> = (0..m * k)
            .map(|i| if i % 3 == 0 { 0.0 } else { ((i % 41) as f32 - 20.0) * 0.1 })
            .collect();
        let w: Vec<f32> = (0..k * n).map(|i| ((i % 29) as f32 - 14.0) * 0.05).collect();
        let qw = QuantizedMatrix::from_f32(&w, k, n).unwrap();
        let mut qa = Vec::new();
        let x_step = quantize_acts_into(&acts, &mut qa);
        let mut reference = vec![0.0f32; m * n];
        memaging_par::set_threads(1);
        qmm_into(&qa, x_step, m, &qw, None, &mut reference);
        for threads in [2, 8] {
            memaging_par::set_threads(threads);
            let mut out = vec![0.0f32; m * n];
            qmm_into(&qa, x_step, m, &qw, None, &mut out);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "thread count {threads} changed bits"
            );
        }
        memaging_par::set_threads(1);
    }

    #[test]
    fn with_step_constructors_match_derived_step() {
        let src: Vec<f32> = (0..48).map(|i| ((i * 11 % 17) as f32 - 8.0) * 0.07).collect();
        let derived = QuantizedMatrix::from_f32(&src, 6, 8).unwrap();
        let explicit =
            QuantizedMatrix::from_f32_with_step(&src, 6, 8, weight_step(max_abs(&src))).unwrap();
        assert_eq!(derived, explicit);
        // A wider shared step re-grids the values but keeps them within a
        // half step of the original.
        let wide = QuantizedMatrix::from_f32_with_step(&src, 6, 8, derived.scale() * 2.0).unwrap();
        for (q, &v) in wide.qt().iter().enumerate().map(|(i, q)| (q, &src[(i % 6) * 8 + i / 6])) {
            let back = *q as f64 * wide.scale();
            assert!((back - v as f64).abs() <= wide.scale() / 2.0 + 1e-12);
        }
        // Degenerate steps fall back to 1.0 like the zero-range rule.
        let z = QuantizedMatrix::from_f32_with_step(&[0.0; 4], 2, 2, 0.0).unwrap();
        assert_eq!(z.scale(), 1.0);
    }

    #[test]
    fn coded_and_dense_with_step_agree() {
        let values = [0.4f32, -0.9, 0.05, 0.22];
        let codes: Vec<u8> = vec![0, 1, 2, 3, 2, 1, 3, 0];
        let expanded: Vec<f32> = codes.iter().map(|&c| values[c as usize]).collect();
        let shared = weight_step(1.5);
        let a = QuantizedMatrix::from_level_codes_with_step(&codes, &values, 2, 4, shared).unwrap();
        let b = QuantizedMatrix::from_f32_with_step(&expanded, 2, 4, shared).unwrap();
        assert_eq!(a, b);
        assert!(QuantizedMatrix::from_level_codes_with_step(&[9], &values, 1, 1, shared).is_err());
    }

    #[test]
    fn delta_replay_is_bit_identical_to_full_product() {
        let (m, k, n) = (9, 31, 7);
        let base_f: Vec<f32> = (0..k * n).map(|i| ((i * 3 % 13) as f32 - 6.0) * 0.11).collect();
        let mut cand_f = base_f.clone();
        // Perturb a scattered subset of cells.
        for idx in [0usize, 5, 44, 45, 100, 216, k * n - 1] {
            cand_f[idx] = -cand_f[idx] + 0.07;
        }
        let shared = weight_step(max_abs(&base_f).max(max_abs(&cand_f)));
        let base = QuantizedMatrix::from_f32_with_step(&base_f, k, n, shared).unwrap();
        let cand = QuantizedMatrix::from_f32_with_step(&cand_f, k, n, shared).unwrap();
        let acts: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 29) as f32 - 14.0) * 0.09).collect();
        let mut codes = Vec::new();
        let _step = quantize_acts_into(&acts, &mut codes);
        let mut codes_t = Vec::new();
        transpose_codes(&codes, m, k, &mut codes_t);

        let mut full = vec![0i32; n * m];
        qmm_pre_t_into(&codes, m, &cand, &mut full);
        let mut via_delta = vec![0i32; n * m];
        qmm_pre_t_into(&codes, m, &base, &mut via_delta);
        let mut deltas = Vec::new();
        assert!(qt_diff_within(base.qt(), cand.qt(), k, k * n, &mut deltas));
        assert!(!deltas.is_empty());
        qdelta_apply_t(&codes_t, m, &deltas, &mut via_delta);
        assert_eq!(via_delta, full, "sparse delta must reproduce the exact integer product");
    }

    #[test]
    fn qt_diff_within_respects_the_budget() {
        let base = vec![0i16; 12];
        let mut cand = base.clone();
        cand[1] = 3;
        cand[7] = -2;
        let mut out = Vec::new();
        assert!(qt_diff_within(&base, &cand, 4, 2, &mut out));
        assert_eq!(
            out,
            vec![QCellDelta { row: 1, col: 0, dq: 3 }, QCellDelta { row: 3, col: 1, dq: -2 }]
        );
        assert!(!qt_diff_within(&base, &cand, 4, 1, &mut out), "over budget must report false");
        assert!(qt_diff_within(&base, &base, 4, 0, &mut out), "identical matrices fit any budget");
        assert!(out.is_empty());
    }

    #[test]
    fn pre_t_product_matches_qmm_epilogue() {
        // qmm_into and the pre_t + manual epilogue must agree bit for bit.
        let (m, k, n) = (5, 24, 6);
        let acts: Vec<f32> = (0..m * k).map(|i| ((i % 19) as f32 - 9.0) * 0.17).collect();
        let w: Vec<f32> = (0..k * n).map(|i| ((i % 23) as f32 - 11.0) * 0.031).collect();
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.21 - 0.5).collect();
        let qw = QuantizedMatrix::from_f32(&w, k, n).unwrap();
        let mut codes = Vec::new();
        let x_step = quantize_acts_into(&acts, &mut codes);
        let mut fused = vec![0.0f32; m * n];
        qmm_into(&codes, x_step, m, &qw, Some(&bias), &mut fused);
        let mut pre_t = vec![0i32; n * m];
        qmm_pre_t_into(&codes, m, &qw, &mut pre_t);
        let scale = x_step * qw.scale();
        for i in 0..m {
            for j in 0..n {
                let manual = (pre_t[j * m + i] as i64 as f64 * scale + bias[j] as f64) as f32;
                assert_eq!(manual.to_bits(), fused[i * n + j].to_bits());
            }
        }
    }

    #[test]
    fn act_code_matches_saturating_cast_semantics() {
        // The magic-constant kernel must reproduce the saturating-cast
        // reference bit for bit, including every non-finite edge.
        let cast_ref = |v: f32, inv: f32| -> i16 {
            let lim = ACT_QMAX as f32;
            let t = (v * inv).clamp(-lim, lim);
            (t + 0.5f32.copysign(t)) as i16
        };
        let mut probes: Vec<f32> = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            1e30,
            -1e30,
        ];
        // Dense sweep including exact .5 ties on both sides of zero.
        for q in 0..4200 {
            probes.push(q as f32 * 0.5);
            probes.push(-(q as f32) * 0.5);
            probes.push(q as f32 * 0.4999 + 0.013);
        }
        for inv in [1.0f32, 0.37, 2924.2857, 1.0 / 3.0] {
            for &v in &probes {
                assert_eq!(
                    act_code(v, inv),
                    cast_ref(v, inv),
                    "act_code diverged at v={v}, inv={inv}"
                );
            }
        }
    }

    #[test]
    fn row_quantizer_matches_per_row_calls() {
        let (m, k) = (7, 23);
        let src: Vec<f32> = (0..m * k)
            .map(|i| if i % 11 == 0 { 0.0 } else { ((i * 13 % 53) as f32 - 26.0) * 0.07 })
            .collect();
        let mut codes = Vec::new();
        let mut steps = Vec::new();
        quantize_rows_into(&src, m, &mut codes, &mut steps);
        assert_eq!(codes.len(), m * k);
        assert_eq!(steps.len(), m);
        for i in 0..m {
            let mut row_codes = Vec::new();
            let row_step = quantize_acts_into(&src[i * k..(i + 1) * k], &mut row_codes);
            assert_eq!(row_step.to_bits(), steps[i].to_bits(), "row {i} step");
            assert_eq!(&codes[i * k..(i + 1) * k], &row_codes[..], "row {i} codes");
        }
        // Zero-width rows take the degenerate step.
        quantize_rows_into(&[], 3, &mut codes, &mut steps);
        assert!(codes.is_empty());
        assert_eq!(steps, vec![1.0; 3]);
    }

    #[test]
    fn batched_rows_product_matches_single_row_products() {
        // The batching-safety contract: every row of qmm_rows_into equals
        // the row served alone through qmm_into, for any batch size.
        let (k, n) = (37, 9);
        let w: Vec<f32> = (0..k * n).map(|i| ((i * 5 % 19) as f32 - 9.0) * 0.021).collect();
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 4.0) * 0.3).collect();
        let qw = QuantizedMatrix::from_f32(&w, k, n).unwrap();
        for m in [1usize, 2, 5, 16] {
            let acts: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 41) as f32 - 20.0) * 0.13).collect();
            let mut codes = Vec::new();
            let mut steps = Vec::new();
            quantize_rows_into(&acts, m, &mut codes, &mut steps);
            let mut batched = vec![0.0f32; m * n];
            qmm_rows_into(&codes, &steps, m, &qw, Some(&bias), &mut batched);
            for i in 0..m {
                let mut solo_codes = Vec::new();
                let solo_step = quantize_acts_into(&acts[i * k..(i + 1) * k], &mut solo_codes);
                let mut solo = vec![0.0f32; n];
                qmm_into(&solo_codes, solo_step, 1, &qw, Some(&bias), &mut solo);
                assert_eq!(
                    batched[i * n..(i + 1) * n].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    solo.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batch m={m} row {i} diverged from the solo product"
                );
            }
        }
    }

    #[test]
    fn qmm_rows_is_bit_identical_across_thread_counts() {
        let (m, k, n) = (33, 144, 16);
        let acts: Vec<f32> = (0..m * k)
            .map(|i| if i % 5 == 0 { 0.0 } else { ((i % 37) as f32 - 18.0) * 0.1 })
            .collect();
        let w: Vec<f32> = (0..k * n).map(|i| ((i % 29) as f32 - 14.0) * 0.05).collect();
        let qw = QuantizedMatrix::from_f32(&w, k, n).unwrap();
        let mut codes = Vec::new();
        let mut steps = Vec::new();
        quantize_rows_into(&acts, m, &mut codes, &mut steps);
        memaging_par::set_threads(1);
        let mut reference = vec![0.0f32; m * n];
        qmm_rows_into(&codes, &steps, m, &qw, None, &mut reference);
        for threads in [2, 8] {
            memaging_par::set_threads(threads);
            let mut out = vec![0.0f32; m * n];
            qmm_rows_into(&codes, &steps, m, &qw, None, &mut out);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "thread count {threads} changed bits"
            );
        }
        memaging_par::set_threads(1);
    }

    #[test]
    fn deep_contraction_folds_chunks_exactly() {
        // k > K_CHUNK exercises the i32 → i64 chunk fold.
        let k = K_CHUNK + 57;
        let acts = vec![1.0f32; k];
        let w = vec![1.0f32; k];
        let qw = QuantizedMatrix::from_f32(&w, k, 1).unwrap();
        let mut qa = Vec::new();
        let x_step = quantize_acts_into(&acts, &mut qa);
        let mut out = vec![0.0f32; 1];
        qmm_into(&qa, x_step, 1, &qw, None, &mut out);
        assert!((out[0] as f64 - k as f64).abs() < k as f64 * 1e-3, "got {}", out[0]);
    }
}
