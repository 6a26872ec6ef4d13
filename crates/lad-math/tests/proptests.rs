//! Property-based tests of the numerical substrate.

use lad_math::pwl::{fit_exp_segment, PwlExp};
use lad_math::softmax::{mse, softmax, softmax_pwl};
use lad_math::{Matrix, F16};
use proptest::prelude::*;

proptest! {
    /// Finite f32 values convert to f16 with bounded error: half-ULP
    /// relative for normals, absolute 2^-25 for the subnormal range.
    #[test]
    fn f16_conversion_error_is_bounded(x in -60000.0f32..60000.0) {
        let h = F16::from_f32(x).to_f32();
        let bound = (x.abs() * 2.0f32.powi(-11)).max(2.0f32.powi(-25));
        prop_assert!((h - x).abs() <= bound, "x={x} h={h}");
    }

    /// f16 -> f32 -> f16 is the identity on non-NaN bit patterns.
    #[test]
    fn f16_roundtrip_identity(bits in 0u16..=u16::MAX) {
        let h = F16::from_bits(bits);
        prop_assume!(!h.is_nan());
        prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
    }

    /// f16 conversion is monotone: x <= y implies f16(x) <= f16(y).
    #[test]
    fn f16_conversion_is_monotone(x in -1e4f32..1e4, y in -1e4f32..1e4) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    /// Least-squares exp fits have residuals bounded by the interval width
    /// squared times the curvature at the right edge.
    #[test]
    fn pwl_fit_residual_bound(lo in -12.0f64..-0.2, width in 0.01f64..3.0) {
        let hi = (lo + width).min(0.0);
        let seg = fit_exp_segment(lo, hi);
        let w = hi - lo;
        let bound = w * w * hi.exp();
        for i in 0..=20 {
            let x = lo + w * (i as f64) / 20.0;
            prop_assert!((seg.eval(x) - x.exp()).abs() <= bound + 1e-12,
                "x={x} err={}", (seg.eval(x) - x.exp()).abs());
        }
    }

    /// interval_of always returns an interval whose bounds contain x.
    #[test]
    fn pwl_interval_contains_point(x in -40.0f64..0.0) {
        let pwl = PwlExp::accurate_default();
        let idx = pwl.interval_of(x);
        let (lo, hi) = pwl.interval_bounds(idx);
        prop_assert!(x >= lo - 1e-12 && x <= hi + 1e-12, "x={x} -> [{lo},{hi}]");
    }

    /// PWL softmax stays within distribution-like bounds and close to exact.
    #[test]
    fn pwl_softmax_is_close(scores in prop::collection::vec(-8.0f32..8.0, 2..40)) {
        let pwl = PwlExp::accurate_default();
        let exact = softmax(&scores);
        let approx = softmax_pwl(&scores, &pwl);
        prop_assert!((approx.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(mse(&exact, &approx) < 1e-5);
    }

    /// Softmax output is a probability distribution ordered like its input.
    #[test]
    fn softmax_is_distribution(scores in prop::collection::vec(-50.0f32..50.0, 1..32)) {
        let p = softmax(&scores);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        for (a, pa) in scores.iter().zip(&p) {
            for (b, pb) in scores.iter().zip(&p) {
                if a > b {
                    prop_assert!(pa >= &(pb - 1e-6));
                }
            }
        }
    }

    /// vecmat equals matvec on the transpose for arbitrary matrices.
    #[test]
    fn vecmat_transpose_duality(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = lad_math::Rng::new(seed);
        let m = Matrix::from_flat(rows, cols, rng.normal_vec(rows * cols, 1.0));
        let x = rng.normal_vec(rows, 1.0);
        let a = m.vecmat(&x);
        let b = m.transpose().matvec(&x);
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    /// The blocked GEMM kernel equals the naive triple loop bit-for-bit on
    /// arbitrary shapes, including ragged tails around the 8- and 16-row
    /// panels (16 + 16 + 8 rows at m = 40).
    #[test]
    fn blocked_gemm_equals_naive_exactly(
        m in 1usize..=40,
        n in 1usize..20,
        k in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mut rng = lad_math::Rng::new(seed);
        let a = rng.normal_vec(m * k, 1.0);
        let b_t = rng.normal_vec(n * k, 1.0);
        let mut blocked = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        lad_math::gemm::gemm_bt(m, n, k, &a, &b_t, &mut blocked);
        lad_math::gemm::gemm_bt_naive(m, n, k, &a, &b_t, &mut naive);
        prop_assert_eq!(blocked, naive);
    }

    /// The scalar and SIMD kernels agree bit for bit on the same inputs,
    /// whichever panel widths this host's SIMD path runs.
    #[test]
    fn scalar_and_simd_gemm_are_bit_identical(
        m in 1usize..=40,
        n in 1usize..20,
        k in 1usize..48,
        seed in 0u64..1000,
    ) {
        use lad_math::{with_kernel, Kernel};
        let mut rng = lad_math::Rng::new(seed);
        let a = rng.normal_vec(m * k, 1.0);
        let b_t = rng.normal_vec(n * k, 1.0);
        let mut scalar = vec![0.0f32; m * n];
        let mut simd = vec![0.0f32; m * n];
        with_kernel(Kernel::Scalar, || lad_math::gemm::gemm_bt(m, n, k, &a, &b_t, &mut scalar));
        with_kernel(Kernel::Simd, || lad_math::gemm::gemm_bt(m, n, k, &a, &b_t, &mut simd));
        let scalar_bits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        let simd_bits: Vec<u32> = simd.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(scalar_bits, simd_bits);
    }

    /// The key-scoring kernel's SIMD path (lanes = keys, 8×8 transpose)
    /// equals one sequential `vector::dot` per key bit for bit, over every
    /// `d % 8` element tail and `n % 8` key tail, on inputs with ±0.0,
    /// subnormals and magnitudes whose products overflow.
    #[test]
    fn scalar_and_simd_key_scores_are_bit_identical(
        d in 1usize..=130,
        n in 0usize..=40,
        seed in 0u64..1000,
    ) {
        use lad_math::simd::{dot_rows_f32, dot_rows_f32_scalar};
        use lad_math::{vector, with_kernel, Kernel};
        let mut rng = lad_math::Rng::new(seed);
        let qs: Vec<f32> = (0..d).map(|_| awkward_f32(&mut rng)).collect();
        let keys: Vec<f32> = (0..n * d).map(|_| awkward_f32(&mut rng)).collect();
        let mut scalar = vec![0.0f64; n];
        let mut simd = vec![0.0f64; n];
        dot_rows_f32_scalar(&qs, &keys, &mut scalar);
        with_kernel(Kernel::Simd, || dot_rows_f32(&qs, &keys, &mut simd));
        let reference: Vec<u64> = keys
            .chunks_exact(d)
            .map(|key| f64::from(vector::dot(&qs, key)).to_bits())
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&scalar), reference);
        prop_assert_eq!(bits(&simd), reference);
    }

    /// The weighted value sum's SIMD path (lanes = value columns held in
    /// registers across all positions) equals the position-major scalar
    /// loop bit for bit, starting from a non-zero accumulator.
    #[test]
    fn scalar_and_simd_weighted_values_are_bit_identical(
        d in 1usize..=130,
        n in 0usize..=40,
        seed in 0u64..1000,
    ) {
        use lad_math::simd::{weighted_rows_f64, weighted_rows_f64_scalar};
        use lad_math::{with_kernel, Kernel};
        let mut rng = lad_math::Rng::new(seed);
        let ws: Vec<f64> = (0..n).map(|_| awkward_f64(&mut rng)).collect();
        let values: Vec<f32> = (0..n * d).map(|_| awkward_f32(&mut rng)).collect();
        let start: Vec<f64> = (0..d).map(|_| awkward_f64(&mut rng)).collect();
        let mut scalar = start.clone();
        let mut simd = start.clone();
        let mut reference = start;
        weighted_rows_f64_scalar(&ws, &values, &mut scalar);
        with_kernel(Kernel::Simd, || weighted_rows_f64(&ws, &values, &mut simd));
        for (i, &w) in ws.iter().enumerate() {
            for (j, slot) in reference.iter_mut().enumerate() {
                *slot += w * f64::from(values[i * d + j]);
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&scalar), bits(&reference));
        prop_assert_eq!(bits(&simd), bits(&reference));
    }

    /// The gathered key-scoring kernel's SIMD path (eight *listed* keys per
    /// register) equals one sequential `vector::dot` per listed key bit for
    /// bit, over every `d % 8` element tail and `idx.len() % 8` list tail,
    /// on unsorted lists with repeats (and empty ones).
    #[test]
    fn scalar_and_simd_gathered_key_scores_are_bit_identical(
        d in 1usize..=130,
        n in 1usize..=40,
        len in 0usize..=40,
        seed in 0u64..1000,
    ) {
        use lad_math::simd::{dot_gather_f32, dot_gather_f32_scalar};
        use lad_math::{vector, with_kernel, Kernel};
        let mut rng = lad_math::Rng::new(seed);
        let qs: Vec<f32> = (0..d).map(|_| awkward_f32(&mut rng)).collect();
        let keys: Vec<f32> = (0..n * d).map(|_| awkward_f32(&mut rng)).collect();
        let idx: Vec<usize> = (0..len).map(|_| rng.next_below(n as u64) as usize).collect();
        let mut scalar = vec![0.0f64; len];
        let mut simd = vec![0.0f64; len];
        dot_gather_f32_scalar(&qs, &keys, &idx, &mut scalar);
        with_kernel(Kernel::Simd, || dot_gather_f32(&qs, &keys, &idx, &mut simd));
        let reference: Vec<u64> = idx
            .iter()
            .map(|&i| f64::from(vector::dot(&qs, &keys[i * d..(i + 1) * d])).to_bits())
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&scalar), reference);
        prop_assert_eq!(bits(&simd), reference);
    }

    /// The gathered weighted value sum's SIMD path (value columns in
    /// registers across the listed positions) equals the position-major loop
    /// over the list bit for bit, over every `d % 4` column tail, on unsorted
    /// lists with repeats (and empty ones), from a non-zero accumulator.
    #[test]
    fn scalar_and_simd_gathered_weighted_values_are_bit_identical(
        d in 1usize..=130,
        n in 1usize..=40,
        len in 0usize..=40,
        seed in 0u64..1000,
    ) {
        use lad_math::simd::{weighted_gather_f64, weighted_gather_f64_scalar};
        use lad_math::{with_kernel, Kernel};
        let mut rng = lad_math::Rng::new(seed);
        let idx: Vec<usize> = (0..len).map(|_| rng.next_below(n as u64) as usize).collect();
        let ws: Vec<f64> = (0..len).map(|_| awkward_f64(&mut rng)).collect();
        let values: Vec<f32> = (0..n * d).map(|_| awkward_f32(&mut rng)).collect();
        let start: Vec<f64> = (0..d).map(|_| awkward_f64(&mut rng)).collect();
        let mut scalar = start.clone();
        let mut simd = start.clone();
        let mut reference = start;
        weighted_gather_f64_scalar(&idx, &ws, &values, &mut scalar);
        with_kernel(Kernel::Simd, || weighted_gather_f64(&idx, &ws, &values, &mut simd));
        for (&i, &w) in idx.iter().zip(&ws) {
            for (j, slot) in reference.iter_mut().enumerate() {
                *slot += w * f64::from(values[i * d + j]);
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&scalar), bits(&reference));
        prop_assert_eq!(bits(&simd), bits(&reference));
    }

    /// Matrix::matmul (through the blocked kernel) equals a locally computed
    /// naive ascending-k product bit-for-bit.
    #[test]
    fn matmul_equals_naive_exactly(
        m in 1usize..10,
        n in 1usize..10,
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = lad_math::Rng::new(seed);
        let a = Matrix::from_flat(m, k, rng.normal_vec(m * k, 1.0));
        let b = Matrix::from_flat(k, n, rng.normal_vec(k * n, 1.0));
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a.get(i, l) * b.get(l, j);
                }
                prop_assert_eq!(c.get(i, j), acc);
            }
        }
    }

    /// Every row of a batched activation × weightᵀ product is bit-identical
    /// to the per-sample matvec — the step-synchronous batch engine's
    /// correctness contract.
    #[test]
    fn batched_projection_rows_equal_matvec(
        batch in 1usize..12,
        out_dim in 1usize..16,
        in_dim in 1usize..32,
        seed in 0u64..1000,
    ) {
        let mut rng = lad_math::Rng::new(seed);
        let acts = Matrix::from_flat(batch, in_dim, rng.normal_vec(batch * in_dim, 1.0));
        let w = Matrix::from_flat(out_dim, in_dim, rng.normal_vec(out_dim * in_dim, 1.0));
        let batched = acts.matmul_bt(&w);
        for s in 0..batch {
            prop_assert_eq!(batched.row(s), &w.matvec(acts.row(s))[..]);
        }
    }

    /// Rank-1 updates commute with explicit outer-product construction.
    #[test]
    fn rank1_matches_outer_product(dim in 1usize..6, seed in 0u64..1000, scale in -2.0f32..2.0) {
        let mut rng = lad_math::Rng::new(seed);
        let a = rng.normal_vec(dim, 1.0);
        let b = rng.normal_vec(dim, 1.0);
        let mut m = Matrix::zeros(dim, dim);
        m.rank1_update(scale, &a, &b);
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                prop_assert!((m.get(i, j) - scale * ai * bj).abs() < 1e-5);
            }
        }
    }
}

/// A mostly-normal `f32` that is, one draw in eight each, ±0.0, a subnormal,
/// or large enough that products overflow to ±inf.
fn awkward_f32(rng: &mut lad_math::Rng) -> f32 {
    let sign = if rng.chance(0.5) { -1.0f32 } else { 1.0 };
    match rng.next_below(8) {
        0 => sign * 0.0,
        1 => sign * f32::from_bits(1 + rng.next_below(0x007f_ffff) as u32),
        2 => sign * 1e30 * (1.0 + rng.next_f32()),
        _ => rng.normal() as f32,
    }
}

/// [`awkward_f32`]'s `f64` counterpart, for weights and accumulators.
fn awkward_f64(rng: &mut lad_math::Rng) -> f64 {
    let sign = if rng.chance(0.5) { -1.0f64 } else { 1.0 };
    match rng.next_below(8) {
        0 => sign * 0.0,
        1 => sign * f64::from_bits(1 + rng.next_below(0x000f_ffff_ffff_ffff)),
        2 => sign * 1e300 * (1.0 + rng.next_f64()),
        _ => rng.normal(),
    }
}

/// A key whose products are all `-0.0` scores `-0.0`, exactly like
/// `vector::dot` (whose `sum` starts from `-0.0`), under both kernels.
#[test]
fn all_negative_zero_products_score_negative_zero() {
    use lad_math::simd::dot_rows_f32;
    use lad_math::{vector, with_kernel, Kernel};
    for d in [1usize, 7, 8, 9, 64] {
        let qs = vec![0.0f32; d];
        let keys = vec![-1.0f32; 17 * d];
        let reference = vector::dot(&qs, &keys[..d]);
        assert!(reference == 0.0 && reference.is_sign_negative());
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut out = vec![1.0f64; 17];
            with_kernel(kernel, || dot_rows_f32(&qs, &keys, &mut out));
            for s in out {
                assert!(
                    s == 0.0 && s.is_sign_negative(),
                    "{} d {d}: {s}",
                    kernel.name()
                );
            }
        }
    }
}

/// A listed key index past the arena is refused before the SIMD kernel's
/// unchecked loads run.
#[test]
#[should_panic(expected = "listed index out of range")]
fn gathered_key_scores_reject_out_of_range_index() {
    use lad_math::simd::dot_gather_f32;
    use lad_math::{with_kernel, Kernel};
    let keys = vec![1.0f32; 9 * 8];
    let idx = [0usize, 1, 2, 3, 4, 5, 6, 9];
    let mut out = [0.0f64; 8];
    with_kernel(Kernel::Simd, || {
        dot_gather_f32(&[1.0; 8], &keys, &idx, &mut out)
    });
}

/// A listed value index past the arena is refused before the SIMD kernel's
/// unchecked loads run.
#[test]
#[should_panic(expected = "listed index out of range")]
fn gathered_weighted_values_reject_out_of_range_index() {
    use lad_math::simd::weighted_gather_f64;
    use lad_math::{with_kernel, Kernel};
    let values = vec![1.0f32; 3 * 32];
    let mut acc = vec![0.0f64; 32];
    with_kernel(Kernel::Simd, || {
        weighted_gather_f64(&[2, 3], &[1.0, 1.0], &values, &mut acc)
    });
}
