//! Per-step instrumentation of the LAD decoder.
//!
//! The accelerator model consumes these statistics — they are the `|C|`,
//! `|M|`, `|J|`, `|U|` and prefetch-hit quantities that drive the pipeline
//! latency (paper Eq. 7) and the HBM traffic model.

use serde::{Deserialize, Serialize};

/// Statistics of a single LAD decoding step for one attention head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StepStats {
    /// KV cache length `n` after the step's append.
    pub n: usize,
    /// Number of directional centers `|C|` read for identification.
    pub centers: usize,
    /// Number of large-mode positions `|M|` scored exactly (Sec. III-F).
    pub large_mode_exact: usize,
    /// Number of *cached* active positions `|J|` needing correction reads.
    pub active: usize,
    /// Number of latest-window positions processed outside the caches.
    pub window: usize,
    /// Number of mode updates `|U|` applied to the intermediate caches.
    pub mode_updates: usize,
    /// Active positions *not* active in the previous step — the prefetch
    /// misses that must hit HBM during the attention period (Sec. IV-D).
    pub new_active: usize,
    /// Positions misidentified as non-active (only populated when the decoder
    /// runs with diagnostics against the oracle; 0 otherwise).
    pub false_negatives: usize,
    /// Positions misidentified as active (harmless: corrections are 0).
    pub false_positives: usize,
    /// 1 when the PWL denominator degenerated (near-zero / negative /
    /// non-finite) and the step fell back to exact window-only softmax.
    pub den_fallbacks: usize,
    /// Positions that received an attention score this step (exact or
    /// approximated). Full-cache backends score all `n`; evicting backends
    /// score only their live set.
    pub keys_scored: usize,
    /// Key vectors physically fetched from the KV arena this step. For LAD
    /// this counts the sparse exact-score fetches (centers, large modes,
    /// window, corrections, maintenance) — the bandwidth the accelerator
    /// actually spends; center-book internal maintenance reads are modelled
    /// by `centers` and excluded here.
    pub keys_read: usize,
    /// KV arena bytes fetched this step (keys and values, `f32` elements) —
    /// the quality-per-byte-moved denominator. Matches
    /// the [`crate::kv`] traffic meter for every backend.
    pub bytes_moved: usize,
    /// Positions evicted (masked dead) by the backend this step; 0 for
    /// non-evicting backends.
    pub evictions: usize,
    /// Width of the sample-chunk fan-out the step that ran this head was
    /// scheduled with (1 = inline, >1 = shared-pool fan-out under the batch
    /// engine, 0 = head stepped outside a session). Scheduling metadata
    /// only — see [`StepStats::algorithmic`].
    pub fanout_width: usize,
}

impl StepStats {
    /// Positions whose keys/values were actually read from the KV cache this
    /// step (corrections + window), the `2|J|d`-traffic driver.
    pub fn kv_reads(&self) -> usize {
        self.active + self.window
    }

    /// Prefetch hit ratio against the previous step's active set
    /// (1.0 when nothing was active).
    pub fn hit_ratio(&self) -> f64 {
        if self.active == 0 {
            return 1.0;
        }
        1.0 - self.new_active as f64 / self.active as f64
    }

    /// Fraction of cached positions identified active.
    pub fn active_fraction(&self) -> f64 {
        let cached = self.n.saturating_sub(self.window);
        if cached == 0 {
            return 0.0;
        }
        self.active as f64 / cached as f64
    }

    /// The scheduling-independent view of this step: every field the LAD
    /// algorithm itself determines, with scheduling metadata (the fan-out
    /// width) zeroed. Two decodes of the same stream must agree on this view
    /// *exactly*, whatever pool/parallelism they ran under — the invariant
    /// the differential harness asserts.
    pub fn algorithmic(mut self) -> StepStats {
        self.fanout_width = 0;
        self
    }
}

/// Aggregate over many steps (and many heads) of [`StepStats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSummary {
    /// Number of steps aggregated.
    pub steps: usize,
    /// Mean `|C|`.
    pub mean_centers: f64,
    /// Mean `|M|`.
    pub mean_large_mode: f64,
    /// Mean `|J|` (cached active positions).
    pub mean_active: f64,
    /// Mean `|U|`.
    pub mean_mode_updates: f64,
    /// Mean prefetch hit ratio.
    pub mean_hit_ratio: f64,
    /// Mean fraction of cached positions active.
    pub mean_active_fraction: f64,
    /// Mean misidentification counts.
    pub mean_false_negatives: f64,
    /// Mean harmless misidentifications (corrections of 0).
    pub mean_false_positives: f64,
    /// Mean per-step KV-cache reads (`active + window`, the `2|J|d` driver).
    pub mean_kv_reads: f64,
    /// Total degenerate-denominator fallbacks across the aggregated steps —
    /// a *sum*, not a mean: a single fallback anywhere is worth surfacing.
    pub total_den_fallbacks: usize,
    /// Mean positions scored per step.
    pub mean_keys_scored: f64,
    /// Mean key vectors fetched from the KV arena per step.
    pub mean_keys_read: f64,
    /// Total KV arena bytes fetched across the aggregated steps — a *sum*:
    /// the quality-per-byte-moved denominator of the backend comparison.
    pub total_bytes_moved: usize,
    /// Total positions evicted across the aggregated steps — a *sum*.
    pub total_evictions: usize,
    /// Mean scheduled fan-out width.
    pub mean_fanout_width: f64,
}

impl StatsSummary {
    /// Aggregates a sequence of step statistics.
    pub fn from_steps<'a>(steps: impl IntoIterator<Item = &'a StepStats>) -> StatsSummary {
        let mut sum = StatsSummary::default();
        for s in steps {
            sum.steps += 1;
            sum.mean_centers += s.centers as f64;
            sum.mean_large_mode += s.large_mode_exact as f64;
            sum.mean_active += s.active as f64;
            sum.mean_mode_updates += s.mode_updates as f64;
            sum.mean_hit_ratio += s.hit_ratio();
            sum.mean_active_fraction += s.active_fraction();
            sum.mean_false_negatives += s.false_negatives as f64;
            sum.mean_false_positives += s.false_positives as f64;
            sum.mean_kv_reads += s.kv_reads() as f64;
            sum.total_den_fallbacks += s.den_fallbacks;
            sum.mean_keys_scored += s.keys_scored as f64;
            sum.mean_keys_read += s.keys_read as f64;
            sum.total_bytes_moved += s.bytes_moved;
            sum.total_evictions += s.evictions;
            sum.mean_fanout_width += s.fanout_width as f64;
        }
        if sum.steps > 0 {
            let n = sum.steps as f64;
            sum.mean_centers /= n;
            sum.mean_large_mode /= n;
            sum.mean_active /= n;
            sum.mean_mode_updates /= n;
            sum.mean_hit_ratio /= n;
            sum.mean_active_fraction /= n;
            sum.mean_false_negatives /= n;
            sum.mean_false_positives /= n;
            sum.mean_kv_reads /= n;
            sum.mean_keys_scored /= n;
            sum.mean_keys_read /= n;
            sum.mean_fanout_width /= n;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_reads_and_ratios() {
        let s = StepStats {
            n: 100,
            centers: 5,
            large_mode_exact: 3,
            active: 10,
            window: 17,
            mode_updates: 2,
            new_active: 2,
            false_negatives: 0,
            false_positives: 1,
            den_fallbacks: 0,
            keys_scored: 100,
            keys_read: 27,
            bytes_moved: 4_320,
            evictions: 0,
            fanout_width: 1,
        };
        assert_eq!(s.kv_reads(), 27);
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((s.active_fraction() - 10.0 / 83.0).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_with_no_active_is_one() {
        let s = StepStats::default();
        assert_eq!(s.hit_ratio(), 1.0);
        assert_eq!(s.active_fraction(), 0.0);
    }

    #[test]
    fn summary_averages() {
        let a = StepStats {
            n: 10,
            active: 4,
            new_active: 2,
            window: 2,
            centers: 2,
            ..StepStats::default()
        };
        let b = StepStats {
            n: 20,
            active: 0,
            window: 2,
            centers: 4,
            ..StepStats::default()
        };
        let sum = StatsSummary::from_steps([&a, &b]);
        assert_eq!(sum.steps, 2);
        assert!((sum.mean_centers - 3.0).abs() < 1e-12);
        assert!((sum.mean_active - 2.0).abs() < 1e-12);
        assert!((sum.mean_hit_ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let sum = StatsSummary::from_steps(std::iter::empty());
        assert_eq!(sum.steps, 0);
        assert_eq!(sum.mean_active, 0.0);
        assert_eq!(sum.total_den_fallbacks, 0);
    }

    #[test]
    fn summary_does_not_drop_pr1_fields() {
        // Audit: every per-step field with a nonzero value must be visible in
        // the aggregate — den_fallbacks, false_positives and kv_reads used to
        // be silently dropped by `from_steps`.
        let a = StepStats {
            n: 40,
            active: 3,
            window: 5,
            den_fallbacks: 1,
            false_positives: 2,
            false_negatives: 1,
            fanout_width: 4,
            ..StepStats::default()
        };
        let b = StepStats {
            n: 41,
            active: 1,
            window: 5,
            den_fallbacks: 1,
            fanout_width: 2,
            ..StepStats::default()
        };
        let sum = StatsSummary::from_steps([&a, &b]);
        assert_eq!(sum.total_den_fallbacks, 2, "den_fallbacks dropped");
        assert!(
            (sum.mean_false_positives - 1.0).abs() < 1e-12,
            "false_positives dropped"
        );
        assert!((sum.mean_kv_reads - 7.0).abs() < 1e-12, "kv_reads dropped");
        assert!((sum.mean_fanout_width - 3.0).abs() < 1e-12);
    }

    #[test]
    fn algorithmic_view_strips_scheduling_fields_only() {
        let s = StepStats {
            n: 9,
            active: 2,
            window: 3,
            den_fallbacks: 1,
            fanout_width: 8,
            ..StepStats::default()
        };
        let algo = s.algorithmic();
        assert_eq!(algo.fanout_width, 0);
        assert_eq!(
            StepStats {
                fanout_width: 8,
                ..algo
            },
            s,
            "algorithmic() must not touch algorithm fields"
        );
    }

    #[test]
    fn traffic_counters_aggregate_as_means_and_sums() {
        let a = StepStats {
            n: 10,
            keys_scored: 10,
            keys_read: 6,
            bytes_moved: 640,
            evictions: 1,
            ..StepStats::default()
        };
        let b = StepStats {
            n: 11,
            keys_scored: 8,
            keys_read: 8,
            bytes_moved: 512,
            evictions: 2,
            ..StepStats::default()
        };
        let sum = StatsSummary::from_steps([&a, &b]);
        assert!((sum.mean_keys_scored - 9.0).abs() < 1e-12);
        assert!((sum.mean_keys_read - 7.0).abs() < 1e-12);
        assert_eq!(sum.total_bytes_moved, 1_152, "bytes_moved is a sum");
        assert_eq!(sum.total_evictions, 3, "evictions is a sum");
    }

    /// Stats-field audit: every field of [`StepStats`] and [`StatsSummary`]
    /// must be explicitly classified below as **algorithmic** (determined by
    /// the LAD algorithm alone — must survive `algorithmic()` untouched and
    /// match bit-exactly across schedules) or **metadata**
    /// (scheduling/timing — must be stripped by `algorithmic()` or live
    /// outside `StepStats` entirely). The exhaustive destructurings have no
    /// `..` rest pattern on purpose: adding a field without extending this
    /// test is a compile error, not a silently unclassified field.
    #[test]
    fn every_stats_field_is_classified() {
        let step = StepStats {
            n: 1,
            centers: 2,
            large_mode_exact: 3,
            active: 4,
            window: 5,
            mode_updates: 6,
            new_active: 7,
            false_negatives: 8,
            false_positives: 9,
            den_fallbacks: 10,
            keys_scored: 12,
            keys_read: 13,
            bytes_moved: 14,
            evictions: 15,
            fanout_width: 11,
        };
        let StepStats {
            // Algorithmic fields: `algorithmic()` must preserve them.
            n,
            centers,
            large_mode_exact,
            active,
            window,
            mode_updates,
            new_active,
            false_negatives,
            false_positives,
            den_fallbacks,
            // Traffic counters: determined by the backend's read policy
            // alone, so they are algorithmic — the differential harness pins
            // them across schedules for every backend.
            keys_scored,
            keys_read,
            bytes_moved,
            evictions,
            // Metadata fields: `algorithmic()` must zero them.
            fanout_width,
        } = step.algorithmic();
        assert_eq!(
            (n, centers, large_mode_exact, active, window),
            (1, 2, 3, 4, 5)
        );
        assert_eq!(
            (
                mode_updates,
                new_active,
                false_negatives,
                false_positives,
                den_fallbacks
            ),
            (6, 7, 8, 9, 10)
        );
        assert_eq!(
            (keys_scored, keys_read, bytes_moved, evictions),
            (12, 13, 14, 15)
        );
        assert_eq!(fanout_width, 0, "metadata must not survive algorithmic()");

        let StatsSummary {
            // Algorithmic aggregates (means/sums of algorithmic StepStats
            // fields): compared across schedules by the differential tests.
            steps: _,
            mean_centers: _,
            mean_large_mode: _,
            mean_active: _,
            mean_mode_updates: _,
            mean_hit_ratio: _,
            mean_active_fraction: _,
            mean_false_negatives: _,
            mean_false_positives: _,
            mean_kv_reads: _,
            total_den_fallbacks: _,
            mean_keys_scored: _,
            mean_keys_read: _,
            total_bytes_moved: _,
            total_evictions: _,
            // Scheduling metadata: aggregated from StepStats metadata.
            mean_fanout_width: _,
        } = StatsSummary::default();
    }
}
