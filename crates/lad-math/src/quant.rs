//! Int8 weight quantisation with per-output-row scales, plus the GEMM kernels
//! that consume it.
//!
//! A `Linear`'s `out × in` weight matrix quantises row-by-row: each output row
//! `j` stores `q[j][l] = round(w[j][l] / s_j)` as `i8` with one `f32` scale
//! `s_j = max_l |w[j][l]| / 127`, quartering weight traffic for the
//! MLP/projection GEMMs that dominate step time. Activations stay `f32` and
//! the kernels dequantise on the fly (`W8A32`): every MAC promotes the `i8`
//! weight to `f32` **exactly** (all of `-127..=127` is representable),
//! accumulates in ascending-`k` order like [`crate::gemm`], and applies the
//! row scale once at the end. The only approximation is therefore the
//! quantisation itself: `|w - s·q| ≤ s/2` per weight, which gives the output
//! bound `|c_q[i][j]·s_j − c[i][j]| ≤ (s_j/2)·Σ_l |a[i][l]|` up to f32
//! rounding — pinned by the error-bound tests here and the `lad-eval`
//! quality leg.
//!
//! Because the scale multiply is the *last* operation on each element, the
//! scalar and SIMD int8 kernels are bit-identical to each other (same lane =
//! row trick as [`crate::simd`]), and the batched kernel is bit-identical to
//! the per-sample [`matvec_q8_into`] — quantisation changes the numbers once,
//! at quantisation time, never per-call.

use crate::gemm::{pack_panel, GemmScratch, MR};
use crate::matrix::Matrix;
use crate::simd::{active_kernel, Kernel, NR};

/// An `out × in` weight matrix stored as `i8` with one `f32` scale per
/// output row.
#[derive(Debug, Clone, PartialEq)]
pub struct Q8Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl Q8Matrix {
    /// Quantises a row-major weight matrix with per-row absmax scales.
    /// An all-zero row gets scale `0.0` (its products are exactly zero).
    pub fn quantize(weight: &Matrix) -> Q8Matrix {
        let (rows, cols) = (weight.rows(), weight.cols());
        let src = weight.as_slice();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for row in src.chunks_exact(cols.max(1)).take(rows) {
            let absmax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = absmax / 127.0;
            scales.push(scale);
            if scale == 0.0 {
                data.extend(std::iter::repeat_n(0i8, cols));
            } else {
                data.extend(
                    row.iter()
                        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
                );
            }
        }
        Q8Matrix {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scale of output row `j`.
    pub fn scale(&self, row: usize) -> f32 {
        self.scales[row]
    }

    /// The quantised weights of output row `j`.
    pub fn row_q(&self, row: usize) -> &[i8] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Storage footprint in bytes (`i8` weights + `f32` scales).
    pub fn bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len()
    }

    /// Reconstructs the dequantised matrix `s_j · q[j][l]` — the effective
    /// weights the quantised kernels compute with.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.rows {
            let s = self.scales[j];
            out.extend(self.row_q(j).iter().map(|&q| s * f32::from(q)));
        }
        Matrix::from_flat(self.rows, self.cols, out)
    }
}

/// `C = A · Qᵀ` against int8 per-row-scaled weights; allocates its packing
/// scratch internally. Hot paths should hold a [`GemmScratch`] and call
/// [`gemm_bt_q8_into`].
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `n = w.rows()`,
/// `k = w.cols()`.
pub fn gemm_bt_q8(m: usize, a: &[f32], w: &Q8Matrix, c: &mut [f32]) {
    gemm_bt_q8_into(m, a, w, c, &mut GemmScratch::default());
}

/// Allocation-free [`gemm_bt_q8`]: same packed-panel blocking as
/// [`crate::gemm::gemm_bt_into`], dispatched through
/// [`crate::simd::active_kernel`].
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `w.rows()`, `w.cols()`.
pub fn gemm_bt_q8_into(
    m: usize,
    a: &[f32],
    w: &Q8Matrix,
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    let (n, k) = (w.rows, w.cols);
    assert_eq!(a.len(), m * k, "gemm_bt_q8: A size mismatch");
    assert_eq!(c.len(), m * n, "gemm_bt_q8: C size mismatch");
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let kernel = active_kernel();
    let panel = scratch.prepare(MR, k);
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        pack_panel(panel, a, i0, mr, k, MR);
        match kernel {
            Kernel::Simd => gemm_block_q8_simd(i0, mr, n, k, panel, &w.data, &w.scales, c),
            Kernel::Scalar => gemm_block_q8_scalar(i0, mr, n, k, panel, &w.data, &w.scales, c),
        }
        i0 += mr;
    }
}

/// Per-sample `out = W_q · x`: one sequential ascending-`k` dot per output
/// row, scaled at the end — bit-identical to row `i` of [`gemm_bt_q8`].
///
/// # Panics
///
/// Panics if `x.len() != w.cols()` or `out.len() != w.rows()`.
pub fn matvec_q8_into(w: &Q8Matrix, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), w.cols, "matvec_q8: x size mismatch");
    assert_eq!(out.len(), w.rows, "matvec_q8: out size mismatch");
    for (j, slot) in out.iter_mut().enumerate() {
        let row = &w.data[j * w.cols..(j + 1) * w.cols];
        let mut acc = 0.0f32;
        for (&x_l, &q_l) in x.iter().zip(row) {
            acc += x_l * f32::from(q_l);
        }
        *slot = acc * w.scales[j];
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_block_q8_scalar(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    data: &[i8],
    scales: &[f32],
    c: &mut [f32],
) {
    for (j, q_row) in data.chunks_exact(k).enumerate().take(n) {
        let mut acc = [0.0f32; MR];
        for (chunk, &q) in panel.chunks_exact(MR).zip(q_row) {
            let w = f32::from(q);
            for (slot, &x) in acc.iter_mut().zip(chunk) {
                *slot += x * w;
            }
        }
        let s = scales[j];
        for (ii, &v) in acc[..mr].iter().enumerate() {
            c[(i0 + ii) * n + j] = v * s;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_block_q8_simd(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    data: &[i8],
    scales: &[f32],
    c: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_supported() {
        // SAFETY: AVX2 presence just checked; lengths asserted by the caller.
        unsafe { gemm_block_q8_avx2(i0, mr, n, k, panel, data, scales, c) };
        return;
    }
    gemm_block_q8_scalar(i0, mr, n, k, panel, data, scales, c);
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_block_q8_avx2(
    i0: usize,
    mr: usize,
    n: usize,
    k: usize,
    panel: &[f32],
    data: &[i8],
    scales: &[f32],
    c: &mut [f32],
) {
    use std::arch::x86_64::*;

    // Per-element `f32::from(i8)` inside the broadcast loop compiles to a
    // sign-extend + `vcvtsi2ss` chain whose false output dependency stalls
    // the port — measured ~2.4x slower than the f32 kernel. Instead each
    // KC-element weight tile is widened 8-at-a-time into an f32 staging
    // buffer (`vpmovsxbd` + `vcvtdq2ps`, exact for all of -127..=127), and
    // the inner loop becomes the f32 kernel's plain `vbroadcastss`.
    // Accumulators live across tiles, so the per-element add order is still
    // ascending `k` and the kernel stays bit-identical to the scalar one.
    const KC: usize = 256;
    let p = panel.as_ptr();
    let d = data.as_ptr();
    let mut stage = [0.0f32; NR * KC];
    let mut j = 0;
    while j + NR <= n {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut l0 = 0;
        while l0 < k {
            let kc = KC.min(k - l0);
            for r in 0..NR {
                widen_i8_row(d.add((j + r) * k + l0), kc, stage.as_mut_ptr().add(r * KC));
            }
            let (w0, w1, w2, w3) = (
                stage.as_ptr(),
                stage.as_ptr().add(KC),
                stage.as_ptr().add(2 * KC),
                stage.as_ptr().add(3 * KC),
            );
            for l in 0..kc {
                let a = _mm256_loadu_ps(p.add((l0 + l) * MR));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a, _mm256_set1_ps(*w0.add(l))));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a, _mm256_set1_ps(*w1.add(l))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a, _mm256_set1_ps(*w2.add(l))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a, _mm256_set1_ps(*w3.add(l))));
            }
            l0 += kc;
        }
        store_scaled(acc0, scales[j], i0, mr, n, j, c);
        store_scaled(acc1, scales[j + 1], i0, mr, n, j + 1, c);
        store_scaled(acc2, scales[j + 2], i0, mr, n, j + 2, c);
        store_scaled(acc3, scales[j + 3], i0, mr, n, j + 3, c);
        j += NR;
    }
    while j < n {
        let mut acc = _mm256_setzero_ps();
        let mut l0 = 0;
        while l0 < k {
            let kc = KC.min(k - l0);
            widen_i8_row(d.add(j * k + l0), kc, stage.as_mut_ptr());
            let w0 = stage.as_ptr();
            for l in 0..kc {
                let a = _mm256_loadu_ps(p.add((l0 + l) * MR));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(a, _mm256_set1_ps(*w0.add(l))));
            }
            l0 += kc;
        }
        store_scaled(acc, scales[j], i0, mr, n, j, c);
        j += 1;
    }
}

/// Widens `len` int8 weights at `src` to f32 at `dst`, 8 per instruction
/// pair. Integer-to-float conversion of `-127..=127` is exact, so this is a
/// pure representation change — no rounding enters the kernel here.
///
/// # Safety
///
/// `src` must be readable for `len` bytes and `dst` writable for `len`
/// floats; requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn widen_i8_row(src: *const i8, len: usize, dst: *mut f32) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i + 8 <= len {
        let bytes = _mm_loadl_epi64(src.add(i).cast());
        let wide = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
        _mm256_storeu_ps(dst.add(i), wide);
        i += 8;
    }
    while i < len {
        *dst.add(i) = f32::from(*src.add(i));
        i += 1;
    }
}

/// Applies the row scale lane-wise (the per-element *final* multiply, same as
/// the scalar kernel) and scatters into column `j` of `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store_scaled(
    acc: std::arch::x86_64::__m256,
    scale: f32,
    i0: usize,
    mr: usize,
    n: usize,
    j: usize,
    c: &mut [f32],
) {
    use std::arch::x86_64::*;
    let scaled = _mm256_mul_ps(acc, _mm256_set1_ps(scale));
    let mut buf = [0.0f32; MR];
    _mm256_storeu_ps(buf.as_mut_ptr(), scaled);
    for (ii, &v) in buf[..mr].iter().enumerate() {
        c[(i0 + ii) * n + j] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_bt_naive;
    use crate::simd::with_kernel;
    use crate::Rng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_flat(rows, cols, Rng::new(seed).normal_vec(rows * cols, 1.0))
    }

    #[test]
    fn quantize_row_error_is_within_half_scale() {
        let w = random_matrix(13, 37, 1);
        let q = Q8Matrix::quantize(&w);
        for j in 0..w.rows() {
            let s = q.scale(j);
            for (l, &orig) in w.row(j).iter().enumerate() {
                let deq = s * f32::from(q.row_q(j)[l]);
                assert!(
                    (deq - orig).abs() <= 0.5 * s + 1e-6,
                    "row {j} col {l}: |{deq} - {orig}| > s/2 = {}",
                    0.5 * s
                );
            }
        }
    }

    #[test]
    fn zero_row_gets_zero_scale_and_zero_output() {
        let w = Matrix::from_flat(2, 4, vec![0.0, 0.0, 0.0, 0.0, 1.0, -2.0, 3.0, -4.0]);
        let q = Q8Matrix::quantize(&w);
        assert_eq!(q.scale(0), 0.0);
        assert!(q.row_q(0).iter().all(|&v| v == 0));
        let mut out = vec![9.0f32; 2];
        matvec_q8_into(&q, &[1.0, 1.0, 1.0, 1.0], &mut out);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn gemm_q8_matches_dequantized_exact_gemm_within_rounding() {
        // The quantised kernel against exact GEMM over the *dequantised*
        // weights isolates kernel error (≈ f32 rounding) from quantisation
        // error (s/2 per weight, checked above).
        let (m, n, k) = (5, 12, 31);
        let a = Rng::new(7).normal_vec(m * k, 1.0);
        let w = random_matrix(n, k, 8);
        let q = Q8Matrix::quantize(&w);
        let deq = q.dequantize();
        let mut exact = vec![0.0f32; m * n];
        gemm_bt_naive(m, n, k, &a, deq.as_slice(), &mut exact);
        let mut got = vec![0.0f32; m * n];
        gemm_bt_q8(m, &a, &q, &mut got);
        for (idx, (&g, &e)) in got.iter().zip(&exact).enumerate() {
            // Kernel applies the scale once per element instead of per term;
            // allow a few ULPs of f32 drift.
            let tol = 1e-5 * (1.0 + e.abs());
            assert!((g - e).abs() <= tol, "idx {idx}: {g} vs {e}");
        }
    }

    #[test]
    fn gemm_q8_error_bound_vs_unquantized() {
        // End-to-end bound: |c_q - c| ≤ (s_j/2)·Σ|a_i| + f32 slack.
        let (m, n, k) = (4, 9, 64);
        let a = Rng::new(17).normal_vec(m * k, 1.0);
        let w = random_matrix(n, k, 18);
        let q = Q8Matrix::quantize(&w);
        let mut exact = vec![0.0f32; m * n];
        gemm_bt_naive(m, n, k, &a, w.as_slice(), &mut exact);
        let mut got = vec![0.0f32; m * n];
        gemm_bt_q8(m, &a, &q, &mut got);
        for i in 0..m {
            let a_l1: f32 = a[i * k..(i + 1) * k].iter().map(|v| v.abs()).sum();
            for j in 0..n {
                let bound = 0.5 * q.scale(j) * a_l1 * 1.01 + 1e-4;
                let err = (got[i * n + j] - exact[i * n + j]).abs();
                assert!(err <= bound, "({i},{j}): err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn scalar_and_simd_q8_kernels_are_bit_identical() {
        for (m, n, k, seed) in [
            (1, 1, 1, 1u64),
            (3, 5, 7, 2),
            (9, 17, 33, 3),
            (8, 512, 256, 4),
        ] {
            let a = Rng::new(seed).normal_vec(m * k, 1.0);
            let w = random_matrix(n, k, seed + 100);
            let q = Q8Matrix::quantize(&w);
            let mut scalar = vec![0.0f32; m * n];
            let mut simd = vec![0.0f32; m * n];
            with_kernel(Kernel::Scalar, || gemm_bt_q8(m, &a, &q, &mut scalar));
            with_kernel(Kernel::Simd, || gemm_bt_q8(m, &a, &q, &mut simd));
            assert_eq!(scalar, simd, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn matvec_q8_is_bit_identical_to_gemm_rows() {
        let (m, n, k) = (6, 14, 29);
        let a = Rng::new(21).normal_vec(m * k, 1.0);
        let w = random_matrix(n, k, 22);
        let q = Q8Matrix::quantize(&w);
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut c = vec![0.0f32; m * n];
            with_kernel(kernel, || gemm_bt_q8(m, &a, &q, &mut c));
            let mut row = vec![0.0f32; n];
            for i in 0..m {
                matvec_q8_into(&q, &a[i * k..(i + 1) * k], &mut row);
                assert_eq!(
                    &c[i * n..(i + 1) * n],
                    &row[..],
                    "row {i} ({})",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn bytes_reports_quarter_weight_traffic() {
        let w = random_matrix(16, 32, 30);
        let q = Q8Matrix::quantize(&w);
        assert_eq!(q.bytes(), 16 * 32 + 4 * 16);
        assert!(q.bytes() * 4 < 16 * 32 * 4 + 4 * 4 * 16 + 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn shape_mismatch_panics() {
        let w = random_matrix(3, 4, 31);
        let q = Q8Matrix::quantize(&w);
        let mut c = vec![0.0f32; 3];
        gemm_bt_q8(1, &[0.0; 3], &q, &mut c);
    }
}
