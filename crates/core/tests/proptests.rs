//! Property-based tests of the LAD core invariants.

use lad_core::cache::IntermediateCache;
use lad_core::centers::CenterBook;
use lad_core::decoder::{LadAttention, LadConfig};
use lad_core::kv::KvCache;
use lad_core::modes::ModeTracker;
use lad_core::reference;
use lad_math::pwl::PwlExp;
use lad_math::{vector, Rng};
use proptest::prelude::*;

/// Alg. 1 as one scalar pass over the centers: the selection
/// `CenterBook::admit` must reproduce bit for bit.
struct ScalarBook {
    threshold: f64,
    cid: Vec<usize>,
    norm: Vec<f64>,
    dnorm: Vec<f64>,
    centers: Vec<usize>,
}

impl ScalarBook {
    fn admit(&mut self, key: &[f32], dot: impl Fn(usize, usize) -> f64) {
        let n = self.norm.len();
        let new_norm = f64::from(vector::norm(key));
        self.norm.push(new_norm);
        let (mut max_cos, mut max_pos) = (0.0f64, 0usize);
        if new_norm > 0.0 {
            for (k, &c) in self.centers.iter().enumerate() {
                if self.norm[c] == 0.0 {
                    continue;
                }
                let cos = dot(k, c) / (new_norm * self.norm[c]);
                if cos.abs() > max_cos.abs() {
                    max_cos = cos;
                    max_pos = c;
                }
            }
        }
        if max_cos > self.threshold {
            self.cid.push(max_pos);
            self.dnorm.push(new_norm / self.norm[max_pos]);
        } else if max_cos < -self.threshold {
            self.cid.push(max_pos);
            self.dnorm.push(-new_norm / self.norm[max_pos]);
        } else {
            self.cid.push(n);
            self.dnorm.push(1.0);
            self.centers.push(n);
        }
    }
}

proptest! {
    /// `CenterBook::admit` selects the center the scalar Alg. 1 loop
    /// selects, and records the same `cid`, norm and `dnorm` bits, on dots
    /// full of exact ties (keys share norms and dots repeat), zero-norm keys
    /// and centers, NaN, infinities and signed zeros, across many 8-center
    /// chunks.
    #[test]
    fn admit_equals_the_scalar_selection_loop(
        picks in prop::collection::vec(0usize..6, 1..120),
        seed in 0u64..1000,
        loose in 0usize..2,
    ) {
        let keys: [&[f32]; 6] = [
            &[1.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[3.0, 0.0, 4.0],
            &[1e-200f64 as f32, 0.0, 0.0],
        ];
        let palette = [
            0.0, 0.0, -0.0, 0.5, -0.5, 0.99, -0.99, 1.0, -1.0, 2.5, f64::NAN, f64::INFINITY,
            f64::NEG_INFINITY, 1e-300,
        ];
        let threshold = if loose == 1 { 0.4 } else { 0.98 };
        let mut book = CenterBook::new(threshold);
        let mut oracle = ScalarBook {
            threshold,
            cid: Vec::new(),
            norm: Vec::new(),
            dnorm: Vec::new(),
            centers: Vec::new(),
        };
        let mut rng = Rng::new(seed);
        for (i, &pick) in picks.iter().enumerate() {
            // One dot per earlier position, scaled by the two norms so the
            // palette's cosines (and their ties) survive the division.
            let dots: Vec<f64> = (0..i)
                .map(|c| palette[rng.index(palette.len())] * oracle.norm[c].max(1.0))
                .collect();
            book.admit(keys[pick], |_, c| dots[c]);
            oracle.admit(keys[pick], |_, c| dots[c]);
            prop_assert!(book.centers().eq(oracle.centers.iter().copied()), "row {}", i);
            prop_assert_eq!(book.cid(i), oracle.cid[i]);
            prop_assert_eq!(book.norm(i).to_bits(), oracle.norm[i].to_bits());
            prop_assert_eq!(book.dnorm(i).to_bits(), oracle.dnorm[i].to_bits());
        }
    }

    /// The fundamental exactness invariant: with oracle identification, LAD's
    /// cached computation (Eq. 4) equals direct PWL attention (Eq. 3) at
    /// every step of any stream.
    #[test]
    fn oracle_lad_equals_direct_pwl(seed in 0u64..200, steps in 20usize..60) {
        let d = 8;
        let pwl = PwlExp::accurate_default();
        let mut head = LadAttention::new(d, LadConfig::oracle(pwl.clone()));
        let mut shadow = KvCache::new(d);
        let mut rng = Rng::new(seed);
        for _ in 0..steps {
            let q = rng.normal_vec(d, 1.0);
            let k = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            shadow.push(&k, &v);
            let lad = head.step(&q, &k, &v).output;
            let direct = reference::pwl_attention(&q, &shadow, &pwl);
            prop_assert!(vector::relative_l2(&lad, &direct) < 1e-4);
        }
    }

    /// Approximate identification only loses accuracy through false
    /// negatives; with diagnostics the error correlates with them, and
    /// without any false negatives the output matches the oracle path.
    #[test]
    fn misidentification_is_the_only_error_source(seed in 0u64..100) {
        let d = 8;
        let pwl = PwlExp::accurate_default();
        let mut cfg = LadConfig::new(pwl.clone());
        cfg.diagnostics = true;
        let mut head = LadAttention::new(d, cfg);
        let mut shadow = KvCache::new(d);
        let mut rng = Rng::new(seed);
        for _ in 0..40 {
            let q = rng.normal_vec(d, 1.0);
            let k = rng.normal_vec(d, 1.0);
            let v = rng.normal_vec(d, 1.0);
            shadow.push(&k, &v);
            let out = head.step(&q, &k, &v);
            if out.stats.false_negatives == 0 {
                let direct = reference::pwl_attention(&q, &shadow, &pwl);
                prop_assert!(
                    vector::relative_l2(&out.output, &direct) < 1e-4,
                    "fn=0 but output diverged"
                );
            }
        }
    }

    /// Intermediate caches maintained by insert + delta updates equal caches
    /// rebuilt from scratch with the final coefficients.
    #[test]
    fn cache_updates_equal_rebuild(
        seed in 0u64..500,
        entries in 1usize..12,
        dim in 1usize..8,
    ) {
        let mut rng = Rng::new(seed);
        let mut incremental = IntermediateCache::new(dim);
        let mut finals = Vec::new();
        for _ in 0..entries {
            let k = rng.normal_vec(dim, 1.0);
            let v = rng.normal_vec(dim, 1.0);
            let (a0, b0) = (rng.range_f64(-0.5, 0.8), rng.range_f64(-0.2, 0.4));
            incremental.insert(a0, b0, &k, &v);
            // Possibly apply one or two mode changes.
            let mut a = a0;
            let mut b = b0;
            for _ in 0..rng.index(3) {
                let (a1, b1) = (rng.range_f64(-0.5, 0.8), rng.range_f64(-0.2, 0.4));
                incremental.delta_update(a1 - a, b1 - b, &k, &v);
                a = a1;
                b = b1;
            }
            finals.push((a, b, k, v));
        }
        let mut rebuilt = IntermediateCache::new(dim);
        for (a, b, k, v) in &finals {
            rebuilt.insert(*a, *b, k, v);
        }
        let q: Vec<f32> = (0..dim).map(|i| (i as f32).sin()).collect();
        let m = 0.37;
        let (num_i, den_i) = incremental.evaluate(&q, m);
        let (num_r, den_r) = rebuilt.evaluate(&q, m);
        prop_assert!((den_i - den_r).abs() < 1e-6);
        for (x, y) in num_i.iter().zip(&num_r) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    /// The tracker's mode always carries a maximal counter.
    #[test]
    fn mode_is_always_argmax(
        seed in 0u64..500,
        intervals in 2usize..8,
        records in 1usize..200,
    ) {
        let mut rng = Rng::new(seed);
        let mut tracker = ModeTracker::new(intervals);
        tracker.push_position();
        for _ in 0..records {
            tracker.record(0, rng.index(intervals));
            let counts = tracker.counts(0);
            let max = *counts.iter().max().unwrap();
            prop_assert_eq!(counts[tracker.mode(0)], max);
        }
    }

    /// Step statistics are internally consistent and outputs finite on
    /// arbitrary streams, zero and outsized keys included.
    #[test]
    fn step_stats_are_consistent(seed in 0u64..100, window in 2usize..24) {
        let d = 6;
        let mut cfg = LadConfig::new(PwlExp::accurate_default());
        cfg.window = window;
        let mut head = LadAttention::new(d, cfg);
        let mut rng = Rng::new(seed);
        let mut prev_n = 0;
        for row in 0..50 {
            // Adversarial rows: a zero key every 7th, a 10x key every 5th,
            // and values at 4x throughout.
            let q = rng.normal_vec(d, 1.0);
            let k = if row % 7 == 3 {
                vec![0.0; d]
            } else {
                rng.normal_vec(d, if row % 5 == 0 { 10.0 } else { 1.0 })
            };
            let out = head.step(&q, &k, &rng.normal_vec(d, 4.0));
            let s = out.stats;
            prop_assert_eq!(s.n, prev_n + 1);
            prop_assert_eq!(s.window, s.n.min(window + 1));
            prop_assert!(s.active <= s.n - s.window);
            prop_assert!(s.new_active <= s.active);
            prop_assert!(s.mode_updates <= s.active);
            prop_assert!(out.output.iter().all(|v| v.is_finite()));
            prev_n = s.n;
        }
    }

    /// Attention outputs stay within the convex hull bounds of the values
    /// up to PWL slack: each coordinate lies within [min, max] of the value
    /// coordinates, slightly widened.
    #[test]
    fn output_within_value_hull(seed in 0u64..200) {
        let d = 4;
        let mut head = LadAttention::new(d, LadConfig::oracle(PwlExp::accurate_default()));
        let mut rng = Rng::new(seed);
        let mut lo = vec![f32::INFINITY; d];
        let mut hi = vec![f32::NEG_INFINITY; d];
        for _ in 0..30 {
            let v = rng.normal_vec(d, 1.0);
            for i in 0..d {
                lo[i] = lo[i].min(v[i]);
                hi[i] = hi[i].max(v[i]);
            }
            let out = head.step(&rng.normal_vec(d, 1.0), &rng.normal_vec(d, 1.0), &v);
            for i in 0..d {
                let slack = 0.1 * (hi[i] - lo[i]) + 0.05;
                prop_assert!(out.output[i] >= lo[i] - slack && out.output[i] <= hi[i] + slack,
                    "coord {i}: {} not in [{}, {}]", out.output[i], lo[i], hi[i]);
            }
        }
    }
}
