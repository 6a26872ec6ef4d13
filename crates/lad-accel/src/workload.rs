//! Workload statistics provider.
//!
//! Performance evaluation needs the LAD execution statistics (|J|, |U|, |C|,
//! hit ratio) at a given KV-cache length. This module produces them from the
//! calibrated trace generator ([`lad_trace`]), warmed up past the
//! mode-learning transient, and caches nothing — generation is fast and
//! deterministic.

use lad_core::stats::StatsSummary;
use lad_trace::{analyze, AnalysisConfig, ScoreTrace, TraceConfig};

/// Steps generated per workload point (the last half is summarised).
const TRACE_STEPS: usize = 96;

/// Paper-calibrated stability (top-1 interval probability) at KV length `n`.
///
/// Fig. 2(b): top-1 dominance rises with the KV cache length, from ~74 % on
/// short caches past 90 % at 4096. `1 − 3.4/√n` hits 0.85 at 512 and 0.947
/// at 4096, and makes the active-position count grow as `√n` — the
/// sub-linear growth the paper's Sec. III-B analysis relies on.
pub fn stability_for(n: usize) -> f64 {
    (1.0 - 3.4 / (n as f64).sqrt()).clamp(0.5, 0.98)
}

/// Mean LAD step statistics for a decode reaching KV length `n`, from the
/// paper-calibrated trace generator (stability scaled per [`stability_for`]).
///
/// # Panics
///
/// Panics if `n <= TRACE_STEPS` (the trace needs a prompt).
pub fn workload_stats(n: usize, seed: u64) -> StatsSummary {
    workload_stats_with(n, seed, |cfg| {
        cfg.stability = stability_for(n);
    })
}

/// Like [`workload_stats`] but lets the caller adjust the trace
/// configuration (e.g. stability for ablations) before generation.
pub fn workload_stats_with(
    n: usize,
    seed: u64,
    adjust: impl FnOnce(&mut TraceConfig),
) -> StatsSummary {
    assert!(
        n > TRACE_STEPS,
        "workload_stats: n must exceed {TRACE_STEPS}"
    );
    let mut cfg = TraceConfig::calibrated(n - TRACE_STEPS, TRACE_STEPS);
    cfg.seed = seed;
    adjust(&mut cfg);
    let pwl = cfg.pwl.clone();
    let trace = ScoreTrace::generate(&cfg);
    let stats = analyze(&trace, &pwl, &AnalysisConfig::new(&pwl));
    // Skip the mode-learning transient: summarise the second half.
    StatsSummary::from_steps(&stats[stats.len() / 2..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_deterministic() {
        let a = workload_stats(1024, 3);
        let b = workload_stats(1024, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn active_grows_sublinearly() {
        // |J| grows with n but much slower than n — the core LAD premise.
        let s512 = workload_stats(512, 1);
        let s4096 = workload_stats(4096, 1);
        assert!(s4096.mean_active > s512.mean_active);
        let growth = s4096.mean_active / s512.mean_active;
        assert!(growth < 8.0, "growth {growth} not sublinear");
        // Active fraction shrinks.
        assert!(s4096.mean_active_fraction <= s512.mean_active_fraction * 1.2);
    }

    #[test]
    fn hit_ratio_is_paper_like() {
        let s = workload_stats(2048, 2);
        assert!(s.mean_hit_ratio > 0.75, "hit {}", s.mean_hit_ratio);
    }

    #[test]
    fn centers_track_model() {
        let s = workload_stats(4096, 4);
        // CentersModel::calibrated: ~2·sqrt(4096) = 128.
        assert!((s.mean_centers - 128.0).abs() < 16.0, "{}", s.mean_centers);
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn tiny_n_rejected() {
        workload_stats(64, 0);
    }
}
