//! Cross-model consistency: the independent hardware models (paged KV pool,
//! analytic rooflines, event schedule) must agree with each other where
//! their domains overlap.

use lad_accel::config::AccelConfig;
use lad_accel::gpu::{max_batch, GpuConfig};
use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_accel::perf::{evaluate, feasible_batch, Platform};
use lad_accel::schedule::simulate_step;
use lad_accel::workload::workload_stats;
use lad_model::config::ModelConfig;

#[test]
fn paged_pool_agrees_with_analytic_capacity() {
    // The block-granular pool and the byte-level feasibility formula must
    // agree on batch capacity within one block of rounding.
    let gpu = GpuConfig::a100();
    let model = ModelConfig::llama2_7b();
    for n in [512usize, 1024, 2048, 4096] {
        let analytic = max_batch(&gpu, &model, n);
        let weights = model.param_count() as f64 * 2.0;
        let budget = (gpu.mem_bytes * 0.9 - weights).max(0.0) as usize;
        let pool = BlockPool::new(&model, budget);
        let paged = pool.max_batch(n);
        // Paged allocation can only lose capacity to block rounding.
        assert!(
            paged <= analytic + 1,
            "n={n}: paged {paged} vs analytic {analytic}"
        );
        let per_seq_blocks = n.div_ceil(BLOCK_TOKENS);
        let max_loss = pool.total_blocks() / per_seq_blocks.max(1) / 8 + 1;
        assert!(
            analytic <= paged + max_loss,
            "n={n}: analytic {analytic} vs paged {paged}"
        );
    }
}

#[test]
fn schedule_and_analytic_agree_across_the_grid() {
    let cfg = AccelConfig::lad_3_5();
    for model in [ModelConfig::llama2_7b(), ModelConfig::opt_6_7b()] {
        for n in [512usize, 2048] {
            let stats = workload_stats(n, 9);
            let batch = feasible_batch(&model, n).min(8);
            let timeline = simulate_step(&cfg, &model, n, &stats, batch);
            let analytic = evaluate(&Platform::Lad(cfg.clone()), &model, n, &stats, batch);
            let rel = (timeline.total_seconds - analytic.e2e_seconds).abs() / analytic.e2e_seconds;
            assert!(
                rel < 0.02,
                "{} n={n}: timeline {} vs analytic {}",
                model.name,
                timeline.total_seconds,
                analytic.e2e_seconds
            );
        }
    }
}

#[test]
fn attention_energy_never_exceeds_e2e() {
    // Simple physical invariant across every platform and point.
    let model = ModelConfig::llama2_13b();
    let stats = workload_stats(2048, 9);
    for platform in [
        Platform::Gpu(lad_accel::gpu::GpuBaseline::Vllm),
        Platform::Ideal(AccelConfig::lad_1_5()),
        Platform::Lad(AccelConfig::lad_2_5()),
    ] {
        let r = evaluate(&platform, &model, 2048, &stats, 4);
        assert!(r.attn_energy_j <= r.e2e_energy_j, "{}", r.platform);
        assert!(r.attn_seconds <= r.e2e_seconds, "{}", r.platform);
        assert!(r.e2e_tokens_per_s > 0.0 && r.e2e_energy_j.is_finite());
    }
}
