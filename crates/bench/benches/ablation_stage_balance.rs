//! Ablation — pipeline stage balance (paper Eq. 7 discussion).
//!
//! The paper claims the four compute-stage terms are balanced under its
//! workloads and that the tile count is chosen so the HBM stages match the
//! compute stages. This bench prints each stage's cycles per head-sample
//! across the KV sweep and the resulting bottleneck, plus a tile-count
//! sensitivity sweep.

use lad_accel::config::AccelConfig;
use lad_accel::pipeline::{attention_period, stage_cycles, WINDOW_POSITIONS};
use lad_accel::traffic::AttentionTraffic;
use lad_accel::workload::workload_stats;
use lad_bench::{kv_lengths, print_table, section};

fn main() {
    let cfg = AccelConfig::lad_2_5();
    let d = 128;

    section("Eq.7 stage latencies per head-sample (cycles), LAD-2.5, d=128");
    let mut rows = Vec::new();
    for n in kv_lengths() {
        let stats = workload_stats(n, 0x1ad);
        let stages = stage_cycles(&cfg, n, d, &stats);
        let traffic = AttentionTraffic::from_stats(&stats, n, d, WINDOW_POSITIONS, 0.0);
        let bpc = cfg.per_tile_bandwidth() / cfg.tile.clock_hz;
        let stage1 = traffic.stage1_bytes() / bpc;
        let stage4 = traffic.stage4_bytes() / bpc;
        rows.push(vec![
            format!("{n}"),
            format!("{:.0}", stages.eas),
            format!("{:.0}", stages.apid),
            format!("{:.0}", stages.md),
            format!("{:.0}", stages.ac),
            format!("{stage1:.0}"),
            format!("{stage4:.0}"),
            format!("{:.0}", stages.bottleneck().max(stage1).max(stage4)),
        ]);
    }
    print_table(
        &[
            "kv len",
            "EAS",
            "APID",
            "MD",
            "AC",
            "stage1 (HBM)",
            "stage4 (HBM)",
            "bottleneck",
        ],
        &rows,
    );

    section("tile-count sensitivity (attention period seconds, LLaMA2-7B-like head grid, n=4096)");
    let stats = workload_stats(4096, 0x1ad);
    let mut rows = Vec::new();
    for tiles in [2, 4, 6, 8, 12] {
        let mut cfg = AccelConfig::lad_2_5();
        cfg.tiles = tiles;
        let period = attention_period(&cfg, 4096, d, &stats, 8 * 32, 1e6);
        rows.push(vec![
            format!("{tiles}"),
            format!("{:.1}", period.seconds * 1e6),
            format!("{:.0}", period.bottleneck_cycles),
        ]);
    }
    print_table(
        &["tiles", "attention period (us)", "bottleneck (cycles/hs)"],
        &rows,
    );
    println!("\npaper: 6 tiles balance per-tile bandwidth against Eq.7 compute");
}
