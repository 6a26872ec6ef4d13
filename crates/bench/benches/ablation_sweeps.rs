//! Ablations over the design choices DESIGN.md calls out:
//!
//! * collinearity threshold (Alg. 1's 0.98) — identification accuracy vs
//!   center count;
//! * interval count (Sec. III-A's non-uniform partition, uint4-bounded);
//! * latest-window size (Sec. III-E's 16);
//! * prefetch on/off (Sec. IV-D).

use lad_accel::config::AccelConfig;
use lad_accel::pipeline::attention_period;
use lad_accel::workload::workload_stats;
use lad_bench::{print_table, section};
use lad_core::decoder::{LadAttention, LadConfig};
use lad_core::kv::KvCache;
use lad_core::reference;
use lad_math::pwl::PwlExp;
use lad_math::{vector, Rng};

/// Runs a LAD head over a clustered-key stream and reports mean relative
/// error vs exact attention plus the center count.
fn run_quality(cfg: LadConfig, steps: usize, seed: u64) -> (f64, usize, f64) {
    let d = 16;
    let mut rng = Rng::new(seed);
    let dirs: Vec<Vec<f32>> = (0..6).map(|_| rng.normal_vec(d, 1.0)).collect();
    let mut head = LadAttention::new(d, cfg);
    let mut shadow = KvCache::new(d);
    let mut err_sum = 0.0f64;
    let mut fn_sum = 0usize;
    let mut cached_sum = 0usize;
    for i in 0..steps {
        let q = rng.normal_vec(d, 1.0);
        // Keys cluster around a few directions with small perturbations.
        let base = &dirs[i % dirs.len()];
        let mut k: Vec<f32> = base
            .iter()
            .map(|&x| x * (0.8 + 0.4 * rng.next_f32()))
            .collect();
        for slot in k.iter_mut() {
            *slot += 0.05 * rng.normal() as f32;
        }
        let v = rng.normal_vec(d, 1.0);
        shadow.push(&k, &v);
        let out = head.step(&q, &k, &v);
        let exact = reference::exact_attention(&q, &shadow);
        err_sum += f64::from(vector::relative_l2(&out.output, &exact));
        fn_sum += out.stats.false_negatives;
        cached_sum += out.stats.n.saturating_sub(out.stats.window);
    }
    let fn_rate = fn_sum as f64 / cached_sum.max(1) as f64;
    let centers = head.centers().centers().len();
    (err_sum / steps as f64, centers, fn_rate)
}

fn main() {
    section("ablation: collinearity threshold (Alg.1)");
    let mut rows = Vec::new();
    for threshold in [0.90, 0.95, 0.98, 0.995, 0.999] {
        let mut cfg = LadConfig::new(PwlExp::accurate_default());
        cfg.collinearity_threshold = threshold;
        cfg.diagnostics = true;
        let (err, centers, fn_rate) = run_quality(cfg, 160, 42);
        rows.push(vec![
            format!("{threshold}"),
            format!("{err:.4}"),
            format!("{centers}"),
            format!("{:.2}%", fn_rate * 100.0),
        ]);
    }
    print_table(
        &[
            "threshold",
            "mean rel err vs exact",
            "centers",
            "false-negative rate",
        ],
        &rows,
    );
    println!("(paper: 0.98 is the empirical accuracy/traffic sweet spot)");

    section("ablation: interval count (Sec. III-A)");
    let mut rows = Vec::new();
    for intervals in [3usize, 5, 8, 12, 16] {
        let pwl = PwlExp::geometric(intervals, -12.0);
        let mse = pwl.mse(-12.0, 4000);
        let mut cfg = LadConfig::new(pwl);
        cfg.diagnostics = true;
        let (err, _, _) = run_quality(cfg, 160, 43);
        rows.push(vec![
            format!("{intervals}"),
            format!("{mse:.2e}"),
            format!("{err:.4}"),
        ]);
    }
    print_table(
        &["intervals", "exp PWL mse", "mean rel err vs exact"],
        &rows,
    );

    section("ablation: latest-window size (Sec. III-E)");
    let mut rows = Vec::new();
    for window in [4usize, 8, 16, 32, 64] {
        let mut cfg = LadConfig::new(PwlExp::accurate_default());
        cfg.window = window;
        cfg.diagnostics = true;
        let (err, _, fn_rate) = run_quality(cfg, 160, 44);
        rows.push(vec![
            format!("{window}"),
            format!("{err:.4}"),
            format!("{:.2}%", fn_rate * 100.0),
        ]);
    }
    print_table(
        &["window", "mean rel err vs exact", "false-negative rate"],
        &rows,
    );

    section("ablation: prefetch on/off (Sec. IV-D), LLaMA2-7B grid, LAD-2.5");
    let mut rows = Vec::new();
    for n in [1024usize, 2048, 4096] {
        let stats = workload_stats(n, 0x1ad);
        let cfg = AccelConfig::lad_2_5();
        let with = attention_period(&cfg, n, 128, &stats, 8 * 32, 1e9);
        let without = attention_period(&cfg, n, 128, &stats, 8 * 32, 0.0);
        rows.push(vec![
            format!("{n}"),
            format!("{:.1}", with.seconds * 1e6),
            format!("{:.1}", without.seconds * 1e6),
            format!("{:.2}x", without.seconds / with.seconds),
        ]);
    }
    print_table(
        &[
            "kv len",
            "prefetch on (us)",
            "prefetch off (us)",
            "slowdown w/o",
        ],
        &rows,
    );
}
