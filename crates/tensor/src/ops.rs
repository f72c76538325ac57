//! Linear-algebra operations: matmul, transpose, row/col reductions, softmax.
//!
//! The matmul family is cache-blocked and row-parallel. Every kernel keeps
//! the per-output-element accumulation order strictly `k`-increasing, so
//! results are **bit-identical** to the naive serial i-k-j loop at every
//! thread count (see `memaging-par`'s determinism contract).

use memaging_par::{par_chunks_mut, parallelism_for};

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Depth (`k`) tile of the blocked matmul kernels: a 128-row panel of `B`
/// stays resident in cache while it is streamed over a band of `A` rows.
const K_BLOCK: usize = 128;

/// Column (`j`) tile: 128 f32 output columns (512 B of `C` and of each `B`
/// row) keep the inner saxpy loop inside L1.
const J_BLOCK: usize = 128;

/// Row band processed per work chunk. Rows in one band share the cached
/// `B` panel; bands are the unit of parallel distribution.
const I_BLOCK: usize = 8;

/// Validates a rank-2 × rank-2 product and returns `(m, k, n)` where the
/// left operand is `m × k` and the right is `k × n` (after `transpose`
/// adjustment by the caller).
fn check_matmul(
    a: &Tensor,
    b: &Tensor,
    lhs: (usize, usize),
    rhs: (usize, usize),
    op: &'static str,
) -> Result<(), TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: a.rank(), op });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: b.rank(), op });
    }
    if lhs.1 != rhs.0 {
        return Err(TensorError::MatmulDimMismatch { lhs, rhs });
    }
    Ok(())
}

/// Widest output (`n`) routed to the register micro-kernel
/// [`matmul_band_narrow`] instead of the cache-blocked loop. 32 f32 columns
/// is two AVX-512 / four AVX accumulator registers per row — beyond that
/// the `NARROW_R`-row accumulator block spills and the blocked kernel wins.
const NARROW_N: usize = 32;

/// Rows accumulated concurrently by the narrow micro-kernel: four
/// independent dependency chains hide the FMA latency that serializes the
/// one-row-at-a-time loop.
const NARROW_R: usize = 4;

/// Blocked serial kernel for a band of output rows: `out` holds `rows`
/// rows of `C`, `a_rows` the matching rows of `A`. Tiling runs `k`-block
/// outermost so each `B` panel is reused across the whole band, and the
/// accumulation per output element stays strictly `k`-increasing — the
/// bit-exactness guarantee the tests pin down.
fn matmul_band(a_rows: &[f32], bv: &[f32], out: &mut [f32], k: usize, n: usize) {
    let rows = out.len() / n;
    for kb in (0..k).step_by(K_BLOCK) {
        let kend = (kb + K_BLOCK).min(k);
        for jb in (0..n).step_by(J_BLOCK) {
            let jend = (jb + J_BLOCK).min(n);
            for r in 0..rows {
                let arow = &a_rows[r * k + kb..r * k + kend];
                let orow = &mut out[r * n + jb..r * n + jend];
                for (off, &aik) in arow.iter().enumerate() {
                    let p = kb + off;
                    let brow = &bv[p * n + jb..p * n + jend];
                    for (o, &bpj) in orow.iter_mut().zip(brow.iter()) {
                        *o += aik * bpj;
                    }
                }
            }
        }
    }
}

/// Micro-kernel for narrow outputs (`n <= NARROW_N`, e.g. the hidden and
/// logit layers of a classifier MLP). `B` is first copied into a
/// zero-padded `k × NP` panel (`NP` a compile-time width covering `n`), so
/// the inner loops have constant trip counts — LLVM keeps the whole
/// [`NARROW_R`]`×NP` accumulator block in vector registers, turning the
/// blocked kernel's single latency-bound FMA chain per row into
/// `NARROW_R` independent chains. The padding lanes accumulate `aik · 0.0`
/// and are never copied out.
///
/// Each output element is still the sum `Σ_k a[r][k]·b[k][j]` added in
/// strictly `k`-increasing order — the exact additions of the naive i-k-j
/// loop, so results are bit-identical to [`matmul_band`] and the kernels
/// may dispatch on shape freely.
fn matmul_band_narrow(a_rows: &[f32], bpad: &[f32], out: &mut [f32], k: usize, n: usize) {
    debug_assert_eq!(bpad.len() % k, 0);
    match bpad.len() / k {
        8 => narrow_panel::<8>(a_rows, bpad, out, k, n),
        16 => narrow_panel::<16>(a_rows, bpad, out, k, n),
        24 => narrow_panel::<24>(a_rows, bpad, out, k, n),
        _ => narrow_panel::<NARROW_N>(a_rows, bpad, out, k, n),
    }
}

/// Zero-pads `B` (`k × n`) into a `k × NP` panel for [`narrow_panel`],
/// picking the smallest supported compile-time width that covers `n`.
fn pad_narrow_panel(bv: &[f32], k: usize, n: usize) -> Vec<f32> {
    let np = [8usize, 16, 24, NARROW_N].into_iter().find(|&w| n <= w).unwrap_or(NARROW_N);
    let mut bpad = vec![0.0f32; k * np];
    for (dst, src) in bpad.chunks_exact_mut(np).zip(bv.chunks_exact(n)) {
        dst[..n].copy_from_slice(src);
    }
    bpad
}

fn narrow_panel<const NP: usize>(
    a_rows: &[f32],
    bpad: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    /// One `NP`-wide multiply-accumulate step of a single row's chain.
    #[inline(always)]
    fn step<const NP: usize>(acc: &mut [f32; NP], aik: f32, brow: &[f32; NP]) {
        for (o, &bpj) in acc.iter_mut().zip(brow.iter()) {
            *o += aik * bpj;
        }
    }
    let rows = out.len() / n;
    let panel = bpad.chunks_exact(NP).map(|c| -> &[f32; NP] { c.try_into().expect("NP-wide") });
    let mut r = 0;
    while r + NARROW_R <= rows {
        let (mut a0, mut a1, mut a2, mut a3) =
            ([0.0f32; NP], [0.0f32; NP], [0.0f32; NP], [0.0f32; NP]);
        let x0 = a_rows[r * k..(r + 1) * k].iter();
        let x1 = a_rows[(r + 1) * k..(r + 2) * k].iter();
        let x2 = a_rows[(r + 2) * k..(r + 3) * k].iter();
        let x3 = a_rows[(r + 3) * k..(r + 4) * k].iter();
        for ((((brow, &v0), &v1), &v2), &v3) in panel.clone().zip(x0).zip(x1).zip(x2).zip(x3) {
            step(&mut a0, v0, brow);
            step(&mut a1, v1, brow);
            step(&mut a2, v2, brow);
            step(&mut a3, v3, brow);
        }
        for (q, accq) in [&a0, &a1, &a2, &a3].into_iter().enumerate() {
            out[(r + q) * n..(r + q) * n + n].copy_from_slice(&accq[..n]);
        }
        r += NARROW_R;
    }
    while r < rows {
        let mut acc = [0.0f32; NP];
        for (brow, &aik) in panel.clone().zip(a_rows[r * k..(r + 1) * k].iter()) {
            step(&mut acc, aik, brow);
        }
        out[r * n..r * n + n].copy_from_slice(&acc[..n]);
        r += 1;
    }
}

/// Matrix product `C = A · B` for rank-2 tensors.
///
/// Cache-blocked (`k`/`j` tiles over row bands) and parallel over output
/// rows when the operation is large enough to amortize worker threads
/// (`memaging_par::parallelism_for`). The result is bit-identical to the
/// naive serial i-k-j loop at every thread count: row bands are disjoint
/// and per-element accumulation order never changes.
///
/// Dense by design — zero entries in `A` are multiplied, not skipped, so
/// the inner loop is branch-free (trained weights are essentially never
/// exact zeros).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either input is not rank 2, or
/// [`TensorError::MatmulDimMismatch`] if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use memaging_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), memaging_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
/// assert_eq!(ops::matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = (a.dims().first().copied().unwrap_or(0), a.dims().get(1).copied().unwrap_or(0));
    let (k2, n) = (b.dims().first().copied().unwrap_or(0), b.dims().get(1).copied().unwrap_or(0));
    check_matmul(a, b, (m, k), (k2, n), "matmul")?;
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    let threads = parallelism_for(2 * m * k * n);
    if n > 0 && n <= NARROW_N && k > 0 {
        let bpad = pad_narrow_panel(bv, k, n);
        par_chunks_mut(&mut out, n * I_BLOCK, threads, |band, chunk| {
            let i0 = band * I_BLOCK;
            let rows = chunk.len() / n;
            matmul_band_narrow(&av[i0 * k..(i0 + rows) * k], &bpad, chunk, k, n);
        });
        return Tensor::from_vec(out, [m, n]);
    }
    par_chunks_mut(&mut out, n * I_BLOCK, threads, |band, chunk| {
        let i0 = band * I_BLOCK;
        let rows = chunk.len() / n;
        matmul_band(&av[i0 * k..(i0 + rows) * k], bv, chunk, k, n);
    });
    Tensor::from_vec(out, [m, n])
}

/// `C = A · Bᵀ` without materializing the transpose.
///
/// Parallel over output rows; each element is one contiguous dot product
/// accumulated in `k`-increasing order, so results match the serial kernel
/// exactly at every thread count.
///
/// # Errors
///
/// Same conditions as [`matmul`] after accounting for the implicit transpose.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = (a.dims().first().copied().unwrap_or(0), a.dims().get(1).copied().unwrap_or(0));
    let (n, k2) = (b.dims().first().copied().unwrap_or(0), b.dims().get(1).copied().unwrap_or(0));
    check_matmul(a, b, (m, k), (k2, n), "matmul_t_b")?;
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    let threads = parallelism_for(2 * m * k * n);
    par_chunks_mut(&mut out, n, threads, |i, orow| {
        let arow = &av[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    });
    Tensor::from_vec(out, [m, n])
}

/// `C = Aᵀ · B` without materializing the transpose.
///
/// Runs output-row-outermost (reading `A`'s column `i` with stride `m`) so
/// rows parallelize without sharing accumulators; per-element accumulation
/// stays `p`-increasing, matching [`matmul`] on an explicit transpose
/// bitwise.
///
/// # Errors
///
/// Same conditions as [`matmul`] after accounting for the implicit transpose.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (k, m) = (a.dims().first().copied().unwrap_or(0), a.dims().get(1).copied().unwrap_or(0));
    let (k2, n) = (b.dims().first().copied().unwrap_or(0), b.dims().get(1).copied().unwrap_or(0));
    check_matmul(a, b, (m, k), (k2, n), "matmul_t_a")?;
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    let threads = parallelism_for(2 * m * k * n);
    par_chunks_mut(&mut out, n, threads, |i, orow| {
        for p in 0..k {
            let api = av[p * m + i];
            let brow = &bv[p * n..(p + 1) * n];
            for (o, &bpj) in orow.iter_mut().zip(brow.iter()) {
                *o += api * bpj;
            }
        }
    });
    Tensor::from_vec(out, [m, n])
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2.
pub fn transpose(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.rank(), op: "transpose" });
    }
    let (m, n) = (t.dims()[0], t.dims()[1]);
    let src = t.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = src[i * n + j];
        }
    }
    Tensor::from_vec(out, [n, m])
}

/// Adds a length-`n` bias row-wise to an `m × n` matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias.len() != n` or the matrix
/// is not rank 2.
pub fn add_bias_rows(matrix: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    if matrix.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: matrix.rank(),
            op: "add_bias_rows",
        });
    }
    let (m, n) = (matrix.dims()[0], matrix.dims()[1]);
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            expected: matrix.shape().clone(),
            actual: bias.shape().clone(),
            op: "add_bias_rows",
        });
    }
    let mut out = matrix.as_slice().to_vec();
    let bv = bias.as_slice();
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] += bv[j];
        }
    }
    Tensor::from_vec(out, [m, n])
}

/// Sums an `m × n` matrix over rows, producing a length-`n` vector.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2.
pub fn sum_rows(matrix: &Tensor) -> Result<Tensor, TensorError> {
    if matrix.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: matrix.rank(),
            op: "sum_rows",
        });
    }
    let (m, n) = (matrix.dims()[0], matrix.dims()[1]);
    let src = matrix.as_slice();
    let mut out = vec![0.0f32; n];
    for i in 0..m {
        for j in 0..n {
            out[j] += src[i * n + j];
        }
    }
    Tensor::from_vec(out, [n])
}

/// Row-wise numerically-stable softmax of an `m × n` matrix.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor, TensorError> {
    if logits.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
            op: "softmax_rows",
        });
    }
    let (m, n) = (logits.dims()[0], logits.dims()[1]);
    let src = logits.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let row = &src[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for j in 0..n {
            let e = (row[j] - max).exp();
            out[i * n + j] = e;
            denom += e;
        }
        let inv = 1.0 / denom;
        for x in &mut out[i * n..(i + 1) * n] {
            *x *= inv;
        }
    }
    Tensor::from_vec(out, [m, n])
}

/// Per-row argmax of an `m × n` matrix: the predicted class per sample.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2.
pub fn argmax_rows(matrix: &Tensor) -> Result<Vec<usize>, TensorError> {
    if matrix.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: matrix.rank(),
            op: "argmax_rows",
        });
    }
    let (m, n) = (matrix.dims()[0], matrix.dims()[1]);
    let src = matrix.as_slice();
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        let row = &src[i * n..(i + 1) * n];
        let mut best = 0;
        for (j, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = j;
            }
        }
        out.push(best);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: [usize; 2]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = t(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rectangular() {
        // (2x3) * (3x2)
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = t(vec![0.0; 6], [2, 3]);
        let b = t(vec![0.0; 6], [2, 3]);
        assert!(matches!(matmul(&a, &b), Err(TensorError::MatmulDimMismatch { .. })));
        let v = Tensor::zeros([3]);
        assert!(matches!(matmul(&v, &b), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn blocked_matmul_spans_multiple_tiles() {
        // Dimensions straddling the K/J/I block boundaries exercise every
        // partial-tile edge; verify against a plain triple loop exactly.
        let (m, k, n) = (I_BLOCK + 3, K_BLOCK + 5, J_BLOCK + 2);
        let a = Tensor::from_fn([m, k], |i| ((i % 101) as f32 - 50.0) * 0.13);
        let b = Tensor::from_fn([k, n], |i| ((i % 97) as f32 - 48.0) * 0.29);
        let got = matmul(&a, &b).unwrap();
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    want[i * n + j] += av[i * k + p] * bv[p * n + j];
                }
            }
        }
        assert_eq!(got.as_slice(), &want[..]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let at = transpose(&a).unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose(&at).unwrap(), a);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(vec![1.0, -1.0, 0.5, 2.0, 3.0, -2.0], [2, 3]);
        // A * B^T
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert_eq!(matmul_transpose_b(&a, &b).unwrap(), expected);
        // A^T * B
        let expected2 = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(matmul_transpose_a(&a, &b).unwrap(), expected2);
    }

    #[test]
    fn bias_and_row_sum() {
        let m = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]).unwrap();
        let mb = add_bias_rows(&m, &b).unwrap();
        assert_eq!(mb.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let s = sum_rows(&m).unwrap();
        assert_eq!(s.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let m = t(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let s = softmax_rows(&m).unwrap();
        for i in 0..2 {
            let row = &s.as_slice()[i * 3..(i + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = t(vec![1000.0, 1001.0], [1, 2]);
        let s = softmax_rows(&m).unwrap();
        assert!(s.all_finite());
        assert!((s.as_slice()[0] + s.as_slice()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_picks_column() {
        let m = t(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], [2, 3]);
        assert_eq!(argmax_rows(&m).unwrap(), vec![1, 0]);
    }
}
