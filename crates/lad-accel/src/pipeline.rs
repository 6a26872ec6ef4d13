//! The six-stage LAD attention pipeline (paper Sec. IV-C, Eq. 7) and the
//! per-layer attention-period model.
//!
//! Stages 1 and 4 move HBM traffic; stages 2/3 (EAS+APID), 5/6 (MD+AC) are
//! compute. The pipeline processes one head-sample per "slot"; its throughput
//! is set by the slowest stage. Prefetching during the preceding compute-bound
//! QKV period (Sec. IV-D) removes hit traffic from stage 4, bounded by SRAM
//! capacity and by the temporal locality of the active set.

use crate::config::AccelConfig;
use crate::traffic::AttentionTraffic;
use lad_core::stats::StatsSummary;
use serde::{Deserialize, Serialize};

/// Latest-window size used throughout (16 excluded + 1 ageing in).
pub const WINDOW_POSITIONS: usize = 17;

/// Fraction of tile SRAM available for KV prefetch (the rest holds weights
/// slices, the G tensor, intermediate caches and pipeline buffers).
pub const SRAM_PREFETCH_FRACTION: f64 = 0.7;

/// Cycles of the four compute stages for one head-sample (paper Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCycles {
    /// EAS: `(2|C| + n/128 + |M|) / 2`.
    pub eas: f64,
    /// APID: `n / 12`.
    pub apid: f64,
    /// MD: `|J| / 2`.
    pub md: f64,
    /// AC: `(d + |J| + |U|d + 3|U|) / 3`.
    pub ac: f64,
}

impl StageCycles {
    /// The pipeline's compute bottleneck: the slowest of the four stages.
    pub fn bottleneck(&self) -> f64 {
        self.eas.max(self.apid).max(self.md).max(self.ac)
    }
}

/// Eq. 7's stage latencies for one head-sample at KV length `n` and head
/// dimension `d`, the divisors being `cfg.tile`'s parallelism degrees
/// (2/12/2/3 in the paper). Every term is linear in `stats`' means, so a
/// summary prices the mean row; a single decode row `s` is priced as
/// `stage_cycles(cfg, s.n, d, &StatsSummary::from_steps([&s]))`.
pub fn stage_cycles(cfg: &AccelConfig, n: usize, d: usize, stats: &StatsSummary) -> StageCycles {
    let c = stats.mean_centers;
    let m = stats.mean_large_mode;
    // MD and AC process the active FIFO, which holds corrections plus the
    // window positions.
    let j = stats.mean_active + WINDOW_POSITIONS as f64;
    // The update FIFO holds mode changes plus the position ageing in.
    let u = stats.mean_mode_updates + 1.0;
    let n = n as f64;
    let d = d as f64;
    StageCycles {
        eas: (2.0 * c + n / 128.0 + m) / cfg.tile.eas_parallelism as f64,
        apid: n / cfg.tile.apid_parallelism as f64,
        md: j / cfg.tile.md_parallelism as f64,
        ac: (d + j + u * d + 3.0 * u) / cfg.tile.ac_parallelism as f64,
    }
}

/// Result of modelling one attention period (one layer, all head-samples).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AttentionPeriod {
    /// Wall-clock seconds of the attention period.
    pub seconds: f64,
    /// Total HBM bytes moved per step for this layer (prefetch included).
    pub hbm_bytes: f64,
    /// Bytes moved during the attention period itself.
    pub period_bytes: f64,
    /// Bytes prefetched during the QKV period.
    pub prefetch_bytes: f64,
    /// The bottleneck stage latency in cycles per head-sample.
    pub bottleneck_cycles: f64,
    /// Traffic profile of a single head-sample.
    pub traffic: AttentionTraffic,
}

/// Models one layer's attention period.
///
/// * `head_samples` — batch × heads entering the pipeline this period.
/// * `qkv_spare_bytes` — HBM bytes the preceding compute-bound QKV period
///   can spare for prefetching (per head-sample).
pub fn attention_period(
    cfg: &AccelConfig,
    n: usize,
    d: usize,
    stats: &StatsSummary,
    head_samples: usize,
    qkv_spare_bytes: f64,
) -> AttentionPeriod {
    // -- Prefetch budget per head-sample.
    let kv_positions = stats.mean_active + WINDOW_POSITIONS as f64;
    // Temporal locality: only previously-active positions (plus the window,
    // whose addresses are static) are predictable.
    let predictable = stats.mean_active * stats.mean_hit_ratio + WINDOW_POSITIONS as f64;
    // SRAM capacity: prefetched KV for every in-flight head-sample of this
    // tile must fit.
    let hs_per_tile = (head_samples as f64 / cfg.tiles as f64).ceil().max(1.0);
    let sram_budget = SRAM_PREFETCH_FRACTION * cfg.tile.sram_bytes as f64 / hs_per_tile;
    let sram_positions = sram_budget / (4.0 * d as f64);
    // QKV-period bandwidth headroom.
    let spare_positions = qkv_spare_bytes / (4.0 * d as f64);
    let prefetch_positions = predictable
        .min(sram_positions)
        .min(spare_positions)
        .min(kv_positions)
        .max(0.0);

    let traffic = AttentionTraffic::from_stats(stats, n, d, WINDOW_POSITIONS, prefetch_positions);

    // -- Stage latencies (cycles per head-sample).
    let bytes_per_cycle = cfg.per_tile_bandwidth() / cfg.tile.clock_hz;
    let stage1 = traffic.stage1_bytes() / bytes_per_cycle;
    let stage4 = traffic.stage4_bytes() / bytes_per_cycle;
    let compute = stage_cycles(cfg, n, d, stats).bottleneck();
    let bottleneck = stage1.max(stage4).max(compute);

    // -- Period time: head-samples stream through `tiles` parallel pipelines;
    // add a 5-stage fill.
    let slots = hs_per_tile + 5.0;
    let seconds = slots * bottleneck / cfg.tile.clock_hz;

    AttentionPeriod {
        seconds,
        hbm_bytes: traffic.total_bytes() * head_samples as f64,
        period_bytes: traffic.attention_period_bytes() * head_samples as f64,
        prefetch_bytes: traffic.prefetched_bytes * head_samples as f64,
        bottleneck_cycles: bottleneck,
        traffic,
    }
}

/// Recommends a tile count for a workload ("an appropriate number of LAD
/// tiles should be chosen based on the HBM bandwidth, ensuring that each
/// tile occupies adequate bandwidth to balance the latency of stages 1, 4
/// with that in Eq. 7", paper Sec. IV-C).
///
/// Every extra tile adds pipeline throughput until its HBM share starves the
/// memory stages; this returns the largest count whose memory-stage latency
/// stays within 2× of the Eq. 7 compute bottleneck (the slack the paper's
/// own 6-tile design sits at under long-KV workloads).
pub fn recommended_tiles(
    base: &AccelConfig,
    n: usize,
    d: usize,
    stats: &StatsSummary,
    max_tiles: usize,
) -> usize {
    const MEMORY_SLACK: f64 = 2.0;
    let compute = stage_cycles(base, n, d, stats).bottleneck();
    let traffic = AttentionTraffic::from_stats(stats, n, d, WINDOW_POSITIONS, 0.0);
    let stage_bytes = traffic.stage1_bytes().max(traffic.stage4_bytes());
    let bytes_per_cycle = base.hbm.total_bandwidth() / base.tile.clock_hz;
    let limit = (MEMORY_SLACK * compute * bytes_per_cycle / stage_bytes).floor() as usize;
    limit.clamp(1, max_tiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(centers: f64, large: f64, active: f64, hit: f64, updates: f64) -> StatsSummary {
        StatsSummary {
            steps: 1,
            mean_centers: centers,
            mean_large_mode: large,
            mean_active: active,
            mean_hit_ratio: hit,
            mean_mode_updates: updates,
            ..StatsSummary::default()
        }
    }

    #[test]
    fn eq7_term_selection() {
        let cfg = AccelConfig::lad_2_5();
        // Huge |C| makes EAS the bottleneck.
        let eas_heavy = stats(10_000.0, 0.0, 0.0, 0.0, 0.0);
        let c = stage_cycles(&cfg, 128, 128, &eas_heavy);
        assert_eq!(c.bottleneck(), c.eas);
        assert!((c.eas - (2.0 * 10_000.0 + 1.0) / 2.0).abs() < 1e-9);
        // Huge n with tiny everything else makes APID dominate.
        let apid_heavy = stats(1.0, 0.0, 1.0, 0.0, 0.0);
        let c = stage_cycles(&cfg, 120_000, 128, &apid_heavy);
        assert_eq!(c.bottleneck(), c.apid);
        assert_eq!(c.apid, 10_000.0);
        // A huge active set with few updates makes MD dominate.
        let md_heavy = stats(1.0, 0.0, 100_000.0, 0.0, 0.0);
        let c = stage_cycles(&cfg, 128, 16, &md_heavy);
        assert_eq!(c.bottleneck(), c.md);
        assert_eq!(c.md, (100_000.0 + 17.0) / 2.0);
        // Huge |U| makes AC dominate (u·d term).
        let ac_heavy = stats(1.0, 0.0, 1.0, 0.0, 500.0);
        let c = stage_cycles(&cfg, 128, 128, &ac_heavy);
        assert_eq!(c.bottleneck(), c.ac);
        assert!(c.ac > 500.0 * 128.0 / 3.0);
    }

    #[test]
    fn period_time_scales_with_head_samples() {
        let cfg = AccelConfig::lad_2_5();
        let s = stats(64.0, 16.0, 50.0, 0.85, 2.0);
        let small = attention_period(&cfg, 2048, 128, &s, 32, 1e6);
        let large = attention_period(&cfg, 2048, 128, &s, 256, 1e6);
        assert!(large.seconds > small.seconds * 3.0);
    }

    #[test]
    fn bigger_sram_prefetches_more() {
        let s = stats(64.0, 16.0, 200.0, 0.9, 2.0);
        // Many head-samples so SRAM is the binding constraint.
        let small = attention_period(&AccelConfig::lad_1_5(), 4096, 128, &s, 2048, 1e9);
        let large = attention_period(&AccelConfig::lad_3_5(), 4096, 128, &s, 2048, 1e9);
        assert!(
            large.prefetch_bytes > small.prefetch_bytes,
            "small {} vs large {}",
            small.prefetch_bytes,
            large.prefetch_bytes
        );
        assert!(large.seconds <= small.seconds);
    }

    #[test]
    fn prefetch_never_exceeds_kv_traffic() {
        let cfg = AccelConfig::lad_3_5();
        let s = stats(8.0, 2.0, 10.0, 1.0, 1.0);
        let period = attention_period(&cfg, 512, 128, &s, 8, 1e12);
        assert!(period.prefetch_bytes <= period.traffic.active_bytes * 8.0 + 1e-9);
        assert!(period.period_bytes >= 0.0);
    }

    #[test]
    fn zero_spare_bandwidth_disables_prefetch() {
        let cfg = AccelConfig::lad_2_5();
        let s = stats(32.0, 8.0, 60.0, 0.9, 2.0);
        let period = attention_period(&cfg, 2048, 128, &s, 64, 0.0);
        assert_eq!(period.prefetch_bytes, 0.0);
    }

    #[test]
    fn recommended_tiles_balances_memory_against_compute() {
        let cfg = AccelConfig::lad_2_5();
        // Compute-heavy workloads (huge |U|) tolerate many tiles: per-tile
        // bandwidth matters less when Eq.7 dominates.
        let compute_heavy = stats(8.0, 2.0, 20.0, 0.8, 50.0);
        let many = recommended_tiles(&cfg, 1024, 128, &compute_heavy, 16);
        // Memory-heavy workloads (long n, tiny compute) starve sooner.
        let mem_heavy = stats(4.0, 0.0, 4.0, 0.8, 0.0);
        let few = recommended_tiles(&cfg, 8192, 128, &mem_heavy, 16);
        assert!(few <= many, "memory-heavy {few} vs compute-heavy {many}");
        assert!((1..=16).contains(&few));
        assert!((1..=16).contains(&many));
        // The paper's operating point lands in single digits (6 tiles).
        let paper = recommended_tiles(&cfg, 4096, 128, &stats(128.0, 40.0, 80.0, 0.85, 2.0), 16);
        assert!(
            (3..=10).contains(&paper),
            "paper-like workload -> {paper} tiles"
        );
    }

    #[test]
    fn hbm_bytes_conserved() {
        let cfg = AccelConfig::lad_2_5();
        let s = stats(32.0, 8.0, 60.0, 0.9, 2.0);
        let p = attention_period(&cfg, 2048, 128, &s, 64, 1e6);
        assert!((p.hbm_bytes - (p.period_bytes + p.prefetch_bytes)).abs() < 1e-6);
    }
}
