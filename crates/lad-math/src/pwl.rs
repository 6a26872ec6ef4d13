//! Piecewise-linear approximation of `exp` on `(-inf, 0]` (paper Sec. III-A).
//!
//! The domain is non-uniformly partitioned into sub-intervals, shorter near 0
//! where `exp` curves fastest; the farthest interval extends to `-inf` and is
//! pinned to the zero function (`a = b = 0`). Coefficients of the remaining
//! intervals are obtained by *closed-form* least-squares optimisation:
//! minimising `∫ (a·x + b − eˣ)² dx` over each interval has an analytic
//! solution because the moments of `x` and `eˣ` integrate in closed form.
//!
//! Interval indices follow the paper's convention: index 0 is the interval
//! farthest from zero (`(-inf, b₀]`), the last index is the interval touching
//! zero. The default partition is the paper's example:
//! `(-inf,-10], [-10,-6], [-6,-3], [-3,-1], [-1,0]`.

use serde::{Deserialize, Serialize};

/// One linear segment `y = a·x + b` valid on `[lo, hi]` (`lo` may be `-inf`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Lower bound of the interval (may be `-inf`).
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// Slope.
    pub a: f64,
    /// Intercept.
    pub b: f64,
}

impl Segment {
    /// Evaluates the segment's linear function at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.a * x + self.b
    }
}

/// Least-squares linear fit of `eˣ` on the finite interval `[lo, hi]`.
///
/// Minimises `∫_lo^hi (a·x + b − eˣ)² dx`. The normal equations use the
/// closed-form integrals `∫eˣ = eˣ` and `∫x·eˣ = (x−1)eˣ`.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is non-finite.
pub fn fit_exp_segment(lo: f64, hi: f64) -> Segment {
    assert!(
        lo.is_finite() && hi.is_finite(),
        "fit: bounds must be finite"
    );
    assert!(lo < hi, "fit: lo must be < hi");
    let s0 = hi - lo;
    let s1 = (hi * hi - lo * lo) / 2.0;
    let s2 = (hi * hi * hi - lo * lo * lo) / 3.0;
    let t0 = hi.exp() - lo.exp();
    let t1 = (hi - 1.0) * hi.exp() - (lo - 1.0) * lo.exp();
    // Solve [s2 s1; s1 s0] [a b]ᵀ = [t1 t0]ᵀ.
    let det = s2 * s0 - s1 * s1;
    let a = (t1 * s0 - t0 * s1) / det;
    let b = (s2 * t0 - s1 * t1) / det;
    Segment { lo, hi, a, b }
}

/// A complete piecewise-linear approximation of `exp` on `(-inf, 0]`.
///
/// # Example
///
/// ```
/// use lad_math::PwlExp;
///
/// let pwl = PwlExp::paper_default();
/// assert_eq!(pwl.num_intervals(), 5);
/// // -7.95 falls in interval 1 ([-10, -6]) — the paper's Fig. 3 step 5.
/// assert_eq!(pwl.interval_of(-7.95), 1);
/// // The farthest interval approximates exp by zero.
/// assert_eq!(pwl.eval(-50.0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PwlExp {
    /// Finite boundaries `b₀ < b₁ < … < b_{I-2} = 0` separating the intervals.
    /// Interval `0` is `(-inf, boundaries[0]]`; interval `i > 0` is
    /// `[boundaries[i-1], boundaries[i]]`.
    boundaries: Vec<f64>,
    segments: Vec<Segment>,
}

impl PwlExp {
    /// The paper's example partition:
    /// `(-inf,-10], [-10,-6], [-6,-3], [-3,-1], [-1,0]`.
    ///
    /// This is the 5-interval partition of the paper's worked example (Fig. 3)
    /// — illustrative, not accuracy-optimal. Deployments use
    /// [`PwlExp::accurate_default`].
    pub fn paper_default() -> PwlExp {
        PwlExp::with_boundaries(&[-10.0, -6.0, -3.0, -1.0, 0.0])
            .expect("paper default boundaries are valid")
    }

    /// The 16-interval partition used for accuracy-critical decoding.
    ///
    /// The hardware stores the mode as a `uint4` (paper Sec. IV-C), so at most
    /// 16 intervals are representable. Boundaries follow `x_k = c·ln(k/K)`
    /// with `c = 3`, which equalises the per-interval least-squares error of
    /// `exp` — this meets the paper's "< 1e-6 MSE to softmax results" claim
    /// (validated in `lad_math::softmax` tests).
    pub fn accurate_default() -> PwlExp {
        const INTERVALS: usize = 16;
        let k_norm = INTERVALS as f64 - 0.13;
        let mut bounds: Vec<f64> = (1..INTERVALS)
            .map(|k| 3.0 * (k as f64 / k_norm).ln())
            .collect();
        bounds.push(0.0);
        PwlExp::with_boundaries(&bounds).expect("accurate default boundaries are valid")
    }

    /// Builds a PWL approximation from explicit finite boundaries.
    ///
    /// `boundaries` must be strictly increasing and end at `0.0`; it yields
    /// `boundaries.len()` intervals (the first stretching to `-inf`).
    ///
    /// # Errors
    ///
    /// Returns an error string if the boundaries are empty, not strictly
    /// increasing, not finite, or do not end at zero.
    pub fn with_boundaries(boundaries: &[f64]) -> Result<PwlExp, String> {
        if boundaries.is_empty() {
            return Err("at least one boundary required".to_string());
        }
        if boundaries.iter().any(|b| !b.is_finite()) {
            return Err("boundaries must be finite".to_string());
        }
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err("boundaries must be strictly increasing".to_string());
        }
        if *boundaries.last().unwrap() != 0.0 {
            return Err("last boundary must be 0".to_string());
        }
        let mut segments = Vec::with_capacity(boundaries.len());
        // Interval 0: (-inf, boundaries[0]], pinned to zero.
        segments.push(Segment {
            lo: f64::NEG_INFINITY,
            hi: boundaries[0],
            a: 0.0,
            b: 0.0,
        });
        for w in boundaries.windows(2) {
            segments.push(fit_exp_segment(w[0], w[1]));
        }
        Ok(PwlExp {
            boundaries: boundaries.to_vec(),
            segments,
        })
    }

    /// A geometric partition with `n` intervals: boundaries at
    /// `-(r^0), -(r^1), …` scaled to reach `farthest`, denser near zero.
    /// Useful for interval-count ablations.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `farthest >= 0`.
    pub fn geometric(n: usize, farthest: f64) -> PwlExp {
        assert!(n >= 2, "geometric: need at least 2 intervals");
        assert!(farthest < 0.0, "geometric: farthest bound must be negative");
        // n intervals need n finite boundaries ending at 0; generate
        // n-1 negative boundaries geometrically spaced from `farthest` to ~0.
        let ratio = 2.0f64;
        let mut bounds: Vec<f64> = (0..n - 1)
            .map(|i| farthest / ratio.powi(i as i32))
            .collect();
        bounds.push(0.0);
        PwlExp::with_boundaries(&bounds).expect("geometric boundaries are valid")
    }

    /// Number of intervals `I` (including the unbounded farthest interval).
    pub fn num_intervals(&self) -> usize {
        self.segments.len()
    }

    /// The finite boundaries (excluding `-inf`), ending at 0.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// The fitted segments, farthest interval first.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Index of the interval containing `x` (`x` is clamped into `(-inf, 0]`:
    /// scores above the running maximum cannot occur, but fp slack maps to the
    /// last interval). A boundary belongs to the interval above it.
    ///
    /// This is the number of boundaries `<= x`, capped at the last interval:
    /// a fixed-trip count over every boundary, with no data-dependent
    /// branch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    #[inline]
    pub fn interval_of(&self, x: f64) -> usize {
        assert!(!x.is_nan(), "interval_of: score must not be NaN");
        let below: usize = self.boundaries.iter().map(|&b| usize::from(b <= x)).sum();
        below.min(self.boundaries.len() - 1)
    }

    /// [`PwlExp::interval_of`] of `xs[i] - shift` into `out[i]`, for every
    /// `i`: the same count, with the compares run across scores (eight per
    /// step under [`crate::simd::Kernel::Simd`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()`, the partition has more than 256
    /// intervals, or any `xs[i] - shift` is NaN.
    pub fn intervals_of(&self, xs: &[f64], shift: f64, out: &mut [u8]) {
        assert_eq!(out.len(), xs.len(), "intervals_of: one slot per score");
        assert!(
            self.boundaries.len() <= 256,
            "intervals_of: at most 256 intervals"
        );
        #[cfg(target_arch = "x86_64")]
        let done = if crate::simd::active_kernel() == crate::simd::Kernel::Simd {
            let body = xs.len() - xs.len() % 8;
            // SAFETY: Kernel::Simd is only active when AVX2 is present, and
            // both slices hold `body` elements.
            let nan = unsafe {
                intervals_of_avx2(&self.boundaries, &xs[..body], shift, &mut out[..body])
            };
            assert!(!nan, "intervals_of: score must not be NaN");
            body
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        for (slot, &s) in out[done..].iter_mut().zip(&xs[done..]) {
            *slot = self.interval_of(s - shift) as u8;
        }
    }

    /// Linear coefficients `(a, b)` of interval `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_intervals()`.
    pub fn coeffs(&self, index: usize) -> (f64, f64) {
        let seg = &self.segments[index];
        (seg.a, seg.b)
    }

    /// Bounds `(lo, hi)` of interval `index` (`lo` of interval 0 is `-inf`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_intervals()`.
    pub fn interval_bounds(&self, index: usize) -> (f64, f64) {
        let seg = &self.segments[index];
        (seg.lo, seg.hi)
    }

    /// Evaluates the PWL approximation of `eˣ` at `x ≤ 0`.
    pub fn eval(&self, x: f64) -> f64 {
        self.segments[self.interval_of(x)].eval(x.min(0.0))
    }

    /// Mean squared error of the approximation against true `exp`, sampled
    /// uniformly with `samples` points over `[lo, 0]`.
    pub fn mse(&self, lo: f64, samples: usize) -> f64 {
        assert!(lo < 0.0 && samples > 1);
        let mut acc = 0.0;
        for i in 0..samples {
            let x = lo + (0.0 - lo) * (i as f64) / ((samples - 1) as f64);
            let err = self.eval(x) - x.exp();
            acc += err * err;
        }
        acc / samples as f64
    }
}

/// [`PwlExp::intervals_of`]'s count on AVX2, for `xs.len()` a multiple of
/// eight: eight scores per step in two `f64x4` registers, each boundary
/// one broadcast compare per register whose all-ones lanes subtract one
/// from the lane's count. Returns whether any shifted score was NaN.
///
/// # Safety
///
/// AVX2 must be available, `out.len() == xs.len()`, and `xs.len() % 8 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn intervals_of_avx2(boundaries: &[f64], xs: &[f64], shift: f64, out: &mut [u8]) -> bool {
    use std::arch::x86_64::*;

    let last = boundaries.len() as i64 - 1;
    let shift_v = _mm256_set1_pd(shift);
    let mut nan = _mm256_setzero_pd();
    let mut counts = [0i64; 8];
    for i in (0..xs.len()).step_by(8) {
        let x0 = _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), shift_v);
        let x1 = _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i + 4)), shift_v);
        nan = _mm256_or_pd(nan, _mm256_cmp_pd::<_CMP_UNORD_Q>(x0, x1));
        let (mut c0, mut c1) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        for &b in boundaries {
            let b = _mm256_set1_pd(b);
            c0 = _mm256_sub_epi64(c0, _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(b, x0)));
            c1 = _mm256_sub_epi64(c1, _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(b, x1)));
        }
        _mm256_storeu_si256(counts.as_mut_ptr().cast(), c0);
        _mm256_storeu_si256(counts.as_mut_ptr().add(4).cast(), c1);
        for (slot, &count) in out[i..i + 8].iter_mut().zip(&counts) {
            *slot = count.min(last) as u8;
        }
    }
    _mm256_movemask_pd(nan) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_is_exact_for_linearisable_targets() {
        // Over a tiny interval, exp is nearly linear: the fit must be close
        // (residual scales with the interval width squared).
        let seg = fit_exp_segment(-0.01, 0.0);
        assert!((seg.eval(-0.005) - (-0.005f64).exp()).abs() < 1e-4);
    }

    #[test]
    fn fit_normal_equations_minimise_error() {
        // Perturbing the fitted coefficients must not decrease the L2 error.
        let (lo, hi) = (-3.0, -1.0);
        let seg = fit_exp_segment(lo, hi);
        let l2 = |a: f64, b: f64| {
            let n = 2000;
            (0..n)
                .map(|i| {
                    let x = lo + (hi - lo) * (i as f64) / ((n - 1) as f64);
                    let e = a * x + b - x.exp();
                    e * e
                })
                .sum::<f64>()
        };
        let base = l2(seg.a, seg.b);
        for (da, db) in [(1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)] {
            assert!(l2(seg.a + da, seg.b + db) >= base - 1e-9);
        }
    }

    #[test]
    fn paper_default_shape() {
        let pwl = PwlExp::paper_default();
        assert_eq!(pwl.num_intervals(), 5);
        assert_eq!(pwl.boundaries(), &[-10.0, -6.0, -3.0, -1.0, 0.0]);
        let (a0, b0) = pwl.coeffs(0);
        assert_eq!((a0, b0), (0.0, 0.0));
        // The last interval must have positive slope (exp is increasing).
        assert!(pwl.coeffs(4).0 > 0.0);
    }

    #[test]
    fn interval_of_matches_paper_examples() {
        let pwl = PwlExp::paper_default();
        assert_eq!(pwl.interval_of(-50.0), 0);
        assert_eq!(pwl.interval_of(-7.95), 1); // Fig.3 step 5
        assert_eq!(pwl.interval_of(-5.34), 2); // Fig.3 step 4
        assert_eq!(pwl.interval_of(-2.0), 3);
        assert_eq!(pwl.interval_of(-0.5), 4);
        assert_eq!(pwl.interval_of(0.0), 4);
        // Clamp above zero.
        assert_eq!(pwl.interval_of(0.25), 4);
    }

    #[test]
    fn interval_of_boundary_points_are_consistent() {
        let pwl = PwlExp::paper_default();
        for (i, &b) in pwl.boundaries().iter().enumerate() {
            let idx = pwl.interval_of(b);
            // A boundary belongs to one of its two adjacent intervals.
            assert!(idx == i || idx == i + 1, "boundary {b} -> {idx}");
            // And evaluation there must be finite and near exp(b) — the
            // coarse 5-interval partition is accurate to ~0.06 absolute.
            let y = pwl.eval(b);
            assert!((y - b.exp()).abs() < 0.07, "boundary {b}: {y}");
        }
    }

    #[test]
    fn eval_accuracy_near_zero() {
        // The coarse example partition is accurate to a few percent near 0;
        // the accurate partition is an order of magnitude tighter.
        let coarse = PwlExp::paper_default();
        let fine = PwlExp::accurate_default();
        for i in 0..100 {
            let x = -(i as f64) / 99.0;
            assert!((coarse.eval(x) - x.exp()).abs() < 0.07, "coarse x={x}");
            assert!((fine.eval(x) - x.exp()).abs() < 0.004, "fine x={x}");
        }
    }

    #[test]
    fn mse_is_small() {
        assert!(PwlExp::paper_default().mse(-12.0, 4000) < 2e-3);
        assert!(PwlExp::accurate_default().mse(-12.0, 4000) < 2e-6);
    }

    #[test]
    fn accurate_default_shape() {
        let pwl = PwlExp::accurate_default();
        assert_eq!(pwl.num_intervals(), 16);
        assert_eq!(*pwl.boundaries().last().unwrap(), 0.0);
        // Fits into the uint4 mode field of the hardware's G tensor.
        assert!(pwl.num_intervals() <= 16);
        // Boundaries strictly increasing, tail reaching past -8.
        assert!(pwl.boundaries()[0] < -8.0);
    }

    #[test]
    fn finer_partition_reduces_mse() {
        let coarse = PwlExp::with_boundaries(&[-8.0, -4.0, 0.0]).unwrap();
        let fine =
            PwlExp::with_boundaries(&[-8.0, -6.0, -4.0, -3.0, -2.0, -1.0, -0.5, 0.0]).unwrap();
        assert!(fine.mse(-10.0, 4000) < coarse.mse(-10.0, 4000));
    }

    #[test]
    fn geometric_partition_valid() {
        for n in 2..10 {
            let pwl = PwlExp::geometric(n, -12.0);
            assert_eq!(pwl.num_intervals(), n);
            assert_eq!(*pwl.boundaries().last().unwrap(), 0.0);
        }
    }

    #[test]
    fn invalid_boundaries_rejected() {
        assert!(PwlExp::with_boundaries(&[]).is_err());
        assert!(PwlExp::with_boundaries(&[-1.0, -2.0, 0.0]).is_err());
        assert!(PwlExp::with_boundaries(&[-2.0, -1.0]).is_err());
        assert!(PwlExp::with_boundaries(&[f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn eval_clamps_positive_inputs() {
        let pwl = PwlExp::paper_default();
        assert_eq!(pwl.eval(0.5), pwl.eval(0.0));
    }
}
