//! Cache-blocked GEMM kernels with a bit-exact accumulation contract.
//!
//! Decoding is memory-bandwidth bound: a per-sample `matvec` streams the full
//! weight matrix once per sample per step, so at batch `b` every linear layer
//! pays `b×` the weight traffic for the same arithmetic per byte. These
//! kernels compute whole `batch × out` panels per weight fetch instead — the
//! step-synchronous batch engine stacks the per-sample activation vectors
//! into an `m × k` matrix `A` and runs one `C = A · Bᵀ` product per layer.
//!
//! **Accumulation contract.** Every output element is a dot product
//! accumulated *sequentially in ascending `k` order* into a single
//! accumulator:
//!
//! ```text
//! c[i][j] = ((a[i][0]·b[j][0] + a[i][1]·b[j][1]) + a[i][2]·b[j][2]) + …
//! ```
//!
//! That is exactly the order [`crate::Matrix::matvec`] (a row-wise
//! [`crate::vector::dot`]) uses, so a batched projection is **bit-identical**
//! to `batch` separate per-sample `matvec` calls, and the blocked kernel is
//! bit-identical to a naive triple loop. Blocking therefore only reorders
//! *which elements* are computed when (i/j tiling plus a transposed,
//! row-interleaved A panel of `MR` or `MR_WIDE` rows that makes the
//! micro-kernel's inner loop a contiguous `chunks_exact` walk) — never the
//! adds within one element.
//! The differential harness (`tests/differential.rs`) and the lad-math
//! proptests pin this contract down.
//!
//! **Kernel dispatch.** The inner block microkernel is selected per call via
//! [`crate::simd::active_kernel`]: the scalar reference, or the explicit
//! SIMD paths in [`crate::simd`] — an AVX2 `f32x8` kernel over `MR`-row
//! panels and, on AVX-512F hosts, an `f32x16` kernel over `MR_WIDE`-row
//! panels. Either way the lanes run across the packed rows, so each output
//! element still accumulates sequentially in ascending `k`: all of them are
//! bit-identical, and tests below plus the differential grid pin that.
//!
//! **Panel widths.** A block of more than `MR` rows runs on one `MR_WIDE`
//! panel when the CPU has AVX-512F, so a step of 9–16 rows costs one 16-lane
//! pass over `B` instead of two 8-lane ones. Blocks of `MR` rows or fewer
//! (every step of ≤ 8 rows, and the tail of a larger one: m = 20 runs as
//! 16 + 4) keep the 8-lane panel, because a half-empty 16-lane panel is
//! slower than a full 8-lane one.

use crate::simd::{self, Kernel};

/// Rows per packed panel of the 8-lane kernels (scalar, AVX2, int8): the
/// micro-kernel keeps `MR` accumulators live and re-reads each `B` row once
/// per panel, so a batch of ≤ `MR` samples streams the weights exactly once.
pub const MR: usize = 8;

/// Rows per packed panel of the AVX-512F `f32x16` kernel, which takes every
/// block of more than `MR` rows on hosts that have it: ≤ `MR_WIDE` rows
/// stream the weights once, and a larger batch once per `MR_WIDE` rows plus
/// once for the remainder.
pub const MR_WIDE: usize = 16;

/// `C = A · Bᵀ` where `a` is `m × k` row-major, `b_t` is `n × k` row-major
/// (each of its rows is one *output* row of weights — the natural layout of a
/// `Linear`'s `out × in` matrix), and `c` is `m × n` row-major.
///
/// Allocates its packing scratch internally; hot paths should hold a
/// [`GemmScratch`] and call [`gemm_bt_into`].
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `n`, `k`.
pub fn gemm_bt(m: usize, n: usize, k: usize, a: &[f32], b_t: &[f32], c: &mut [f32]) {
    gemm_bt_into(m, n, k, a, b_t, c, &mut GemmScratch::default());
}

/// Reusable packing buffer for [`gemm_bt_into`]: holds the transposed,
/// row-interleaved A panel so steady-state GEMM calls never allocate.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    panel: Vec<f32>,
}

/// How much larger than the current need the panel's retained capacity may
/// grow before [`GemmScratch::prepare`] releases it. A hysteresis factor
/// (rather than shrinking to fit every call) keeps steady-state same-shape
/// call sequences allocation-free while stopping one peak-`k` call from
/// pinning its high-water allocation across a stream of small shapes.
const SHRINK_FACTOR: usize = 4;

impl GemmScratch {
    /// Clears and sizes the panel for a `width`-row, `k`-deep block,
    /// shrinking the backing allocation when a smaller shape follows a much
    /// larger one.
    pub(crate) fn prepare(&mut self, width: usize, k: usize) -> &mut [f32] {
        let need = width * k;
        self.panel.clear();
        if self.panel.capacity() > SHRINK_FACTOR * need {
            self.panel.shrink_to(need);
        }
        self.panel.resize(need, 0.0);
        &mut self.panel[..]
    }

    /// Current backing capacity in elements (observability for the
    /// shrink-regression tests).
    pub fn panel_capacity(&self) -> usize {
        self.panel.capacity()
    }
}

/// Packs the `mr`-row block of `a` starting at row `i0` transposed and
/// `width`-interleaved: `panel[l·width + ii] = a[i0+ii][l]`. The microkernels
/// then walk it one contiguous `width`-vector per `k` index. Lanes
/// `mr..width` keep whatever an earlier block left there; no kernel ever
/// stores them.
pub(crate) fn pack_panel(
    panel: &mut [f32],
    a: &[f32],
    i0: usize,
    mr: usize,
    k: usize,
    width: usize,
) {
    for (l, chunk) in panel.chunks_exact_mut(width).enumerate().take(k) {
        for (ii, slot) in chunk[..mr].iter_mut().enumerate() {
            *slot = a[(i0 + ii) * k + l];
        }
    }
}

/// Allocation-free [`gemm_bt`]: packs row blocks of `a` into `scratch` and
/// re-uses its buffer across calls.
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `n`, `k`.
pub fn gemm_bt_into(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b_t: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "gemm_bt: A size mismatch");
    assert_eq!(b_t.len(), n * k, "gemm_bt: Bᵀ size mismatch");
    assert_eq!(c.len(), m * n, "gemm_bt: C size mismatch");
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let kernel = simd::active_kernel();
    let wide = kernel == Kernel::Simd && m > MR && simd::avx512_supported();
    let panel = scratch.prepare(if wide { MR_WIDE } else { MR }, k);

    let mut i0 = 0;
    while i0 < m {
        let width = if wide && m - i0 > MR { MR_WIDE } else { MR };
        let mr = width.min(m - i0);
        let panel = &mut panel[..width * k];
        pack_panel(panel, a, i0, mr, k, width);
        match kernel {
            Kernel::Simd if width == MR_WIDE => {
                simd::gemm_block_f32_avx512(i0, mr, n, k, panel, b_t, c)
            }
            Kernel::Simd => simd::gemm_block_f32_simd(i0, mr, n, k, panel, b_t, c),
            Kernel::Scalar => simd::gemm_block_f32_scalar::<MR>(i0, mr, n, k, panel, b_t, c),
        }
        i0 += mr;
    }
}

/// Reference `C = A · Bᵀ` triple loop (one sequential dot per element) — the
/// oracle the blocked kernel must match bit-for-bit. Kept public so tests
/// and benches outside this crate can pin the equivalence too.
pub fn gemm_bt_naive(m: usize, n: usize, k: usize, a: &[f32], b_t: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_bt_naive: A size mismatch");
    assert_eq!(b_t.len(), n * k, "gemm_bt_naive: Bᵀ size mismatch");
    assert_eq!(c.len(), m * n, "gemm_bt_naive: C size mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b_t[j * k + l];
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn random(len: usize, seed: u64) -> Vec<f32> {
        Rng::new(seed).normal_vec(len, 1.0)
    }

    #[test]
    fn blocked_equals_naive_bitwise() {
        for (m, n, k, seed) in [
            (1, 1, 1, 1u64),
            (3, 5, 7, 2),
            (8, 8, 8, 3),
            (9, 17, 33, 4),
            (16, 4, 64, 5),
            (2, 256, 128, 6),
        ] {
            let a = random(m * k, seed);
            let b_t = random(n * k, seed + 100);
            let mut blocked = vec![0.0; m * n];
            let mut naive = vec![0.0; m * n];
            gemm_bt(m, n, k, &a, &b_t, &mut blocked);
            gemm_bt_naive(m, n, k, &a, &b_t, &mut naive);
            assert_eq!(blocked, naive, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn batched_rows_equal_per_sample_dots() {
        // The tentpole contract: row i of the GEMM equals the per-sample
        // matvec (sequential dots) of sample i, bit for bit.
        let (m, n, k) = (5, 12, 31);
        let a = random(m * k, 7);
        let b_t = random(n * k, 8);
        let mut c = vec![0.0; m * n];
        gemm_bt(m, n, k, &a, &b_t, &mut c);
        for i in 0..m {
            for j in 0..n {
                let dot = crate::vector::dot(&a[i * k..(i + 1) * k], &b_t[j * k..(j + 1) * k]);
                assert_eq!(c[i * n + j], dot, "({i},{j})");
            }
        }
    }

    #[test]
    fn simd_and_scalar_kernels_are_bit_identical() {
        use crate::simd::{with_kernel, Kernel};
        // Shapes chosen to exercise every microkernel edge: partial MR and
        // MR_WIDE blocks, 16 + 1 / 16 + 8 / 16 + 16 + 1 / 16 + 16 + 8 row
        // splits, NR tails, k = 1, and the MLP-dominant bench shape.
        for (m, n, k, seed) in [
            (1, 1, 1, 1u64),
            (3, 5, 7, 2),
            (8, 8, 8, 3),
            (9, 17, 33, 4),
            (16, 4, 64, 5),
            (2, 256, 128, 6),
            (7, 3, 1, 7),
            (8, 512, 256, 8),
            (17, 9, 40, 9),
            (24, 6, 17, 10),
            (33, 13, 5, 11),
            (40, 64, 96, 12),
        ] {
            let a = random(m * k, seed);
            let b_t = random(n * k, seed + 200);
            let mut scalar = vec![0.0; m * n];
            let mut simd = vec![0.0; m * n];
            let mut naive = vec![0.0; m * n];
            with_kernel(Kernel::Scalar, || gemm_bt(m, n, k, &a, &b_t, &mut scalar));
            with_kernel(Kernel::Simd, || gemm_bt(m, n, k, &a, &b_t, &mut simd));
            gemm_bt_naive(m, n, k, &a, &b_t, &mut naive);
            assert_eq!(scalar, naive, "scalar vs naive m={m} n={n} k={k}");
            assert_eq!(simd, naive, "simd vs naive m={m} n={n} k={k}");
        }
    }

    #[test]
    fn non_finite_row_stays_in_its_lane_and_stale_lanes_never_leak() {
        use crate::simd::{with_kernel, Kernel};
        // m = 16 is one 16-row panel (on AVX-512F hosts), m = 8 one 8-row
        // panel, m = 20 a 16-row panel plus a 4-row one packed over the same
        // buffer: a bad row 13 leaves its value in unused lane 5 of the tail.
        let (n, k) = (9, 23);
        let b_t = random(n * k, 300);
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            for (m, bad_row) in [(16, 5), (16, 15), (8, 3), (20, 13), (20, 17)] {
                for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let clean = random(m * k, 301 + m as u64);
                    let mut a = clean.clone();
                    a[bad_row * k + k / 2] = poison;
                    let mut expect = vec![0.0; m * n];
                    let mut got = vec![0.0; m * n];
                    gemm_bt_naive(m, n, k, &clean, &b_t, &mut expect);
                    with_kernel(kernel, || gemm_bt(m, n, k, &a, &b_t, &mut got));
                    for i in (0..m).filter(|&i| i != bad_row) {
                        assert_eq!(
                            got[i * n..(i + 1) * n],
                            expect[i * n..(i + 1) * n],
                            "{} m={m}: row {i} changed by a {poison} in row {bad_row}",
                            kernel.name()
                        );
                    }
                    assert!(
                        got[bad_row * n..(bad_row + 1) * n]
                            .iter()
                            .all(|v| !v.is_finite()),
                        "{} m={m}: row {bad_row} lost its {poison}",
                        kernel.name()
                    );
                }
            }

            // A poisoned 16-row call leaves non-finite values in every
            // packed lane; smaller calls on the same scratch must not see
            // them.
            let mut scratch = GemmScratch::default();
            let poisoned = vec![f32::NAN; 16 * k];
            let mut c16 = vec![0.0; 16 * n];
            with_kernel(kernel, || {
                gemm_bt_into(16, n, k, &poisoned, &b_t, &mut c16, &mut scratch)
            });
            for m in [12, 9, 8, 3, 1] {
                let a = random(m * k, 400 + m as u64);
                let mut expect = vec![0.0; m * n];
                let mut got = vec![0.0; m * n];
                gemm_bt_naive(m, n, k, &a, &b_t, &mut expect);
                with_kernel(kernel, || {
                    gemm_bt_into(m, n, k, &a, &b_t, &mut got, &mut scratch)
                });
                assert_eq!(
                    got,
                    expect,
                    "{} m={m} after a poisoned 16-row call",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn scratch_is_reused_without_reallocation() {
        let mut scratch = GemmScratch::default();
        let (m, n, k) = (4, 6, 32);
        let a = random(m * k, 9);
        let b_t = random(n * k, 10);
        let mut c = vec![0.0; m * n];
        gemm_bt_into(m, n, k, &a, &b_t, &mut c, &mut scratch);
        let cap = scratch.panel.capacity();
        for _ in 0..5 {
            gemm_bt_into(m, n, k, &a, &b_t, &mut c, &mut scratch);
        }
        assert_eq!(scratch.panel.capacity(), cap);
    }

    #[test]
    fn scratch_shrinks_after_peak_k_shapes() {
        // Regression for the resize-up-only bug: one peak-k call must not pin
        // its high-water allocation across a stream of much smaller shapes.
        let mut scratch = GemmScratch::default();
        let big_k = 1024;
        let a_big = random(big_k, 11);
        let b_big = random(2 * big_k, 12);
        let mut c_big = vec![0.0; 2];
        gemm_bt_into(1, 2, big_k, &a_big, &b_big, &mut c_big, &mut scratch);
        assert!(scratch.panel_capacity() >= MR * big_k);

        let small_k = 8;
        let a_small = random(small_k, 13);
        let b_small = random(2 * small_k, 14);
        let mut c_small = vec![0.0; 2];
        gemm_bt_into(
            1,
            2,
            small_k,
            &a_small,
            &b_small,
            &mut c_small,
            &mut scratch,
        );
        assert!(
            scratch.panel_capacity() <= SHRINK_FACTOR * MR * small_k,
            "capacity {} retained after small shape",
            scratch.panel_capacity()
        );

        // Interleaving shapes stays correct and re-grows on demand.
        let mut expect_big = vec![0.0; 2];
        gemm_bt_naive(1, 2, big_k, &a_big, &b_big, &mut expect_big);
        for _ in 0..3 {
            gemm_bt_into(1, 2, big_k, &a_big, &b_big, &mut c_big, &mut scratch);
            assert_eq!(c_big, expect_big);
            gemm_bt_into(
                1,
                2,
                small_k,
                &a_small,
                &b_small,
                &mut c_small,
                &mut scratch,
            );
            assert!(scratch.panel_capacity() <= SHRINK_FACTOR * MR * small_k);
        }
    }

    #[test]
    fn scratch_same_shape_never_shrinks_mid_stream() {
        // The hysteresis factor must keep steady-state same-shape streams
        // (the batch engine's per-layer calls) free of churn.
        let mut scratch = GemmScratch::default();
        let (m, n, k) = (8, 16, 64);
        let a = random(m * k, 15);
        let b_t = random(n * k, 16);
        let mut c = vec![0.0; m * n];
        gemm_bt_into(m, n, k, &a, &b_t, &mut c, &mut scratch);
        let cap = scratch.panel_capacity();
        for _ in 0..8 {
            gemm_bt_into(m, n, k, &a, &b_t, &mut c, &mut scratch);
            assert_eq!(scratch.panel_capacity(), cap);
        }
    }

    #[test]
    fn degenerate_shapes() {
        let mut c = vec![1.0; 0];
        gemm_bt(0, 0, 0, &[], &[], &mut c);
        let mut c = vec![9.0; 3];
        gemm_bt(1, 3, 0, &[], &[], &mut c);
        assert_eq!(c, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn shape_mismatch_panics() {
        let mut c = vec![0.0; 4];
        gemm_bt(2, 2, 3, &[0.0; 5], &[0.0; 6], &mut c);
    }
}
