//! Reference attention implementations used as oracles.
//!
//! * [`exact_attention`] — the standard softmax attention of paper Eq. 2.
//! * [`pwl_attention`] — paper Eq. 3: softmax's `exp` replaced by the PWL
//!   approximation, every position using its *actual* interval coefficients.
//!
//! LAD with oracle identification must match [`pwl_attention`] bit-for-bit up
//! to accumulation order (the core correctness invariant), and both must stay
//! close to [`exact_attention`] (the accuracy claim).

use crate::kv::KvCache;
use lad_math::pwl::PwlExp;

/// Scales a query by `1/√d` (the attention temperature).
pub fn scale_query(q: &[f32]) -> Vec<f32> {
    let scale = 1.0 / (q.len() as f32).sqrt();
    q.iter().map(|&x| x * scale).collect()
}

/// Raw scaled scores `q·kᵢ / √d` for every cached position, read through the
/// cache's score kernel: bit-identical to the sequential-dot path.
pub fn scores(q: &[f32], kv: &KvCache) -> Vec<f64> {
    let qs = scale_query(q);
    let mut out = Vec::with_capacity(kv.len());
    kv.score_keys_into(&qs, &mut out);
    out
}

/// Standard softmax attention output (paper Eq. 2).
///
/// # Panics
///
/// Panics if the cache is empty or `q.len() != kv.dim()`.
pub fn exact_attention(q: &[f32], kv: &KvCache) -> Vec<f32> {
    exact_attention_scored(q, kv, false).0
}

/// [`exact_attention`], also returning the shifted scores `sᵢ − m` when
/// `record_scores` is set: one metered sweep over the keys, then
/// [`softmax_read`]'s one over the values.
///
/// # Panics
///
/// Panics if the cache is empty or `q.len() != kv.dim()`.
pub fn exact_attention_scored(
    q: &[f32],
    kv: &KvCache,
    record_scores: bool,
) -> (Vec<f32>, Option<Vec<f64>>) {
    assert!(!kv.is_empty(), "exact_attention: empty KV cache");
    assert_eq!(q.len(), kv.dim(), "exact_attention: query dim mismatch");
    let mut weights = scores(q, kv);
    let m = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let shifted = record_scores.then(|| weights.iter().map(|s| s - m).collect());
    (softmax_read(&mut weights, m, kv), shifted)
}

/// The value half of [`exact_attention`], on the scores `sᵢ` of every
/// cached position (oldest first) and their maximum `m`: the weights
/// `exp(sᵢ − m)` overwrite the scores, and the denominator and every output
/// column sum them in ascending position order, so the output is the same
/// under either kernel. One metered sweep over the values.
///
/// # Panics
///
/// Panics if `weights.len() != kv.len()`.
pub fn softmax_read(weights: &mut [f64], m: f64, kv: &KvCache) -> Vec<f32> {
    let mut den = 0.0f64;
    for w in weights.iter_mut() {
        *w = (*w - m).exp();
        den += *w;
    }
    let mut num = vec![0.0f64; kv.dim()];
    kv.values_weighted_into(weights, &mut num);
    num.into_iter().map(|x| (x / den) as f32).collect()
}

/// Direct piecewise-linear attention (paper Eq. 3): every position weighted
/// by `aᵢ(sᵢ − m) + bᵢ` with `(aᵢ, bᵢ)` the coefficients of the interval its
/// score actually falls in.
///
/// # Panics
///
/// Panics if the cache is empty or `q.len() != kv.dim()`.
pub fn pwl_attention(q: &[f32], kv: &KvCache, pwl: &PwlExp) -> Vec<f32> {
    let (out, _) = pwl_attention_detailed(q, kv, pwl);
    out
}

/// Like [`pwl_attention`] but also returns the interval index assigned to each
/// position — the ground truth for active-position identification tests.
///
/// # Panics
///
/// Panics if the cache is empty or `q.len() != kv.dim()`.
pub fn pwl_attention_detailed(q: &[f32], kv: &KvCache, pwl: &PwlExp) -> (Vec<f32>, Vec<usize>) {
    assert!(!kv.is_empty(), "pwl_attention: empty KV cache");
    assert_eq!(q.len(), kv.dim(), "pwl_attention: query dim mismatch");
    let s = scores(q, kv);
    let m = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut num = vec![0.0f64; kv.dim()];
    let mut den = 0.0f64;
    let mut intervals = Vec::with_capacity(s.len());
    for (i, &si) in s.iter().enumerate() {
        let id = pwl.interval_of(si - m);
        intervals.push(id);
        let (a, b) = pwl.coeffs(id);
        let w = a * (si - m) + b;
        den += w;
        kv.value_axpy(i, w, &mut num);
    }
    (
        num.into_iter().map(|x| (x / den) as f32).collect(),
        intervals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_math::{vector, Rng};

    fn random_kv(rng: &mut Rng, n: usize, d: usize) -> KvCache {
        let mut kv = KvCache::new(d);
        for _ in 0..n {
            let k = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            kv.push(&k, &v);
        }
        kv
    }

    #[test]
    fn exact_attention_single_position_returns_value() {
        let mut kv = KvCache::new(2);
        kv.push(&[1.0, 0.0], &[5.0, -3.0]);
        let out = exact_attention(&[1.0, 1.0], &kv);
        assert_eq!(out, vec![5.0, -3.0]);
    }

    #[test]
    fn exact_attention_is_convex_combination() {
        let mut kv = KvCache::new(1);
        kv.push(&[1.0], &[0.0]);
        kv.push(&[-1.0], &[10.0]);
        let out = exact_attention(&[2.0], &kv);
        assert!(out[0] > 0.0 && out[0] < 10.0);
    }

    #[test]
    fn exact_attention_dominant_score_wins() {
        let mut kv = KvCache::new(2);
        kv.push(&[20.0, 0.0], &[1.0, 0.0]);
        kv.push(&[-20.0, 0.0], &[0.0, 1.0]);
        let out = exact_attention(&[10.0, 0.0], &kv);
        assert!(out[0] > 0.999);
        assert!(out[1] < 0.001);
    }

    #[test]
    fn pwl_close_to_exact_on_random_inputs() {
        let pwl = PwlExp::accurate_default();
        let mut rng = Rng::new(31);
        for _ in 0..20 {
            let kv = random_kv(&mut rng, 48, 16);
            let q = rng.normal_vec(16, 1.0);
            let exact = exact_attention(&q, &kv);
            let approx = pwl_attention(&q, &kv, &pwl);
            let rel = vector::relative_l2(&approx, &exact);
            assert!(rel < 0.02, "relative error {rel}");
        }
    }

    #[test]
    fn pwl_detailed_intervals_match_partition() {
        let pwl = PwlExp::paper_default();
        let mut rng = Rng::new(32);
        let kv = random_kv(&mut rng, 32, 8);
        let q = rng.normal_vec(8, 1.0);
        let s = scores(&q, &kv);
        let m = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (_, intervals) = pwl_attention_detailed(&q, &kv, &pwl);
        for (i, &id) in intervals.iter().enumerate() {
            assert_eq!(id, pwl.interval_of(s[i] - m));
        }
    }

    #[test]
    fn scores_apply_temperature() {
        let mut kv = KvCache::new(4);
        kv.push(&[2.0; 4], &[0.0; 4]);
        let s = scores(&[1.0; 4], &kv);
        // q·k = 8, scaled by 1/√4 = 0.5 -> 4.
        assert!((s[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty KV cache")]
    fn empty_cache_panics() {
        exact_attention(&[1.0], &KvCache::new(1));
    }
}
