//! Property-based tests of the accelerator models.

use lad_accel::config::AccelConfig;
use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_accel::pipeline::{attention_period, stage_cycles, StageCycles};
use lad_accel::traffic::AttentionTraffic;
use lad_core::stats::StatsSummary;
use proptest::prelude::*;

fn stats_strategy() -> impl Strategy<Value = StatsSummary> {
    (
        0.0f64..200.0,
        0.0f64..50.0,
        0.0f64..300.0,
        0.0f64..1.0,
        0.0f64..10.0,
    )
        .prop_map(|(centers, large, active, hit, updates)| StatsSummary {
            steps: 1,
            mean_centers: centers,
            mean_large_mode: large,
            mean_active: active,
            mean_hit_ratio: hit,
            mean_mode_updates: updates,
            ..StatsSummary::default()
        })
}

proptest! {
    /// Every Eq.7 stage term is monotone in every workload quantity.
    #[test]
    fn eq7_is_monotone(stats in stats_strategy(), n in 64usize..8192) {
        let cfg = AccelConfig::lad_2_5();
        let no_less = |a: StageCycles, b: StageCycles| {
            a.eas >= b.eas && a.apid >= b.apid && a.md >= b.md && a.ac >= b.ac
        };
        let base = stage_cycles(&cfg, n, 128, &stats);
        let mut more_active = stats.clone();
        more_active.mean_active += 50.0;
        prop_assert!(no_less(stage_cycles(&cfg, n, 128, &more_active), base));
        let mut more_updates = stats.clone();
        more_updates.mean_mode_updates += 5.0;
        prop_assert!(no_less(stage_cycles(&cfg, n, 128, &more_updates), base));
        let mut more_centers = stats.clone();
        more_centers.mean_centers += 10.0;
        prop_assert!(no_less(stage_cycles(&cfg, n, 128, &more_centers), base));
        prop_assert!(no_less(stage_cycles(&cfg, n + 1024, 128, &stats), base));
    }

    /// Traffic accounting conserves bytes and keeps the breakdown a
    /// partition of unity.
    #[test]
    fn traffic_conservation(stats in stats_strategy(), n in 64usize..8192,
                            prefetch in 0.0f64..500.0) {
        let t = AttentionTraffic::from_stats(&stats, n, 128, 17, prefetch);
        prop_assert!(t.prefetched_bytes <= t.active_bytes + 1e-9);
        prop_assert!(t.attention_period_bytes() <= t.total_bytes() + 1e-9);
        let (c, a, o) = t.breakdown();
        prop_assert!((c + a + o - 1.0).abs() < 1e-9);
        prop_assert!(c >= 0.0 && a >= 0.0 && o >= 0.0);
        // Stage split + prefetch covers the total exactly once.
        let covered = t.stage1_bytes() + t.stage4_bytes() + t.prefetched_bytes;
        prop_assert!((covered - t.total_bytes()).abs() < 1e-6);
    }

    /// The attention-period model is monotone in head-sample count and never
    /// benefits from *less* spare prefetch bandwidth.
    #[test]
    fn attention_period_monotonicity(stats in stats_strategy(), n in 128usize..4096,
                                     hs in 8usize..512) {
        let cfg = AccelConfig::lad_2_5();
        let base = attention_period(&cfg, n, 128, &stats, hs, 1e6);
        let bigger = attention_period(&cfg, n, 128, &stats, hs * 2, 1e6);
        prop_assert!(bigger.seconds >= base.seconds);
        let no_prefetch = attention_period(&cfg, n, 128, &stats, hs, 0.0);
        prop_assert!(no_prefetch.seconds >= base.seconds - 1e-12);
        prop_assert!(no_prefetch.prefetch_bytes == 0.0);
    }

    /// The paged block pool stays consistent with a naive shadow recount
    /// under arbitrary admit / append / release interleavings: free blocks
    /// never exceed the total, accounting balances exactly, ids stay stable,
    /// and fragmentation matches the per-sequence recomputation. (op 0 =
    /// admit, 1 = append, 2 = release, 3 = truncate; `arg` picks the prompt
    /// length, the live sequence acted on, or the truncation point.)
    #[test]
    fn block_pool_accounting_is_consistent(ops in prop::collection::vec(
        (0u8..4, 1usize..64), 1..100)) {
        let model = lad_model::config::ModelConfig::tiny("pool-prop", 2, 32, 2);
        let block_bytes = model.layers * 2 * model.hidden * 2 * BLOCK_TOKENS;
        let total = 24usize;
        let mut pool = BlockPool::new(&model, total * block_bytes);
        // Shadow: (id, tokens) of every sequence we believe is live.
        let mut shadow: Vec<(usize, usize)> = Vec::new();

        for &(op, arg) in &ops {
            match op {
                0 => {
                    let need = BlockPool::blocks_for(arg);
                    let had = pool.free_blocks();
                    match pool.admit(arg) {
                        Some(id) => {
                            prop_assert!(need <= had, "admit over-committed");
                            prop_assert!(!shadow.iter().any(|&(l, _)| l == id),
                                "admit reused a live id");
                            shadow.push((id, arg));
                        }
                        None => prop_assert!(need > had, "admit refused despite space"),
                    }
                }
                1 if !shadow.is_empty() => {
                    let pick = arg % shadow.len();
                    let (id, tokens) = shadow[pick];
                    let needs_block = tokens % BLOCK_TOKENS == 0;
                    let had = pool.free_blocks();
                    if pool.append_token(id) {
                        shadow[pick].1 += 1;
                        prop_assert!(!needs_block || had >= 1);
                    } else {
                        prop_assert!(needs_block && had == 0, "append refused despite space");
                    }
                }
                2 if !shadow.is_empty() => {
                    let (id, _) = shadow.swap_remove(arg % shadow.len());
                    pool.release(id);
                    prop_assert!(pool.sequence_tokens(id).is_none());
                }
                3 if !shadow.is_empty() => {
                    let pick = arg % shadow.len();
                    let (id, tokens) = shadow[pick];
                    let keep = (arg % tokens) + 1;
                    pool.truncate(id, keep);
                    shadow[pick].1 = keep;
                }
                _ => {}
            }

            // Invariants after every operation.
            let used: usize = shadow.iter().map(|&(_, t)| BlockPool::blocks_for(t)).sum();
            prop_assert!(pool.free_blocks() <= pool.total_blocks());
            prop_assert_eq!(pool.free_blocks() + used, pool.total_blocks());
            prop_assert_eq!(pool.live_sequences(), shadow.len());
            for &(id, tokens) in &shadow {
                prop_assert_eq!(pool.sequence_tokens(id), Some(tokens));
            }
            let frag: usize = shadow.iter().map(|&(_, t)| {
                let partial = t % BLOCK_TOKENS;
                if partial == 0 { 0 } else { (BLOCK_TOKENS - partial) * block_bytes / BLOCK_TOKENS }
            }).sum();
            prop_assert_eq!(pool.fragmentation_bytes(), frag);
            prop_assert_eq!(pool.max_batch(BLOCK_TOKENS), pool.free_blocks());
        }

        // Releasing everything restores the full pool.
        for (id, _) in shadow.drain(..) {
            pool.release(id);
        }
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());
        prop_assert_eq!(pool.fragmentation_bytes(), 0);
    }

    /// Speculative-decoding rollback keeps the pool consistent: each round a
    /// sequence optimistically appends room for `k` draft rows plus the
    /// bonus token, then the verifier accepts an arbitrary prefix and the
    /// rejected tail is truncated away. Across arbitrary accept/reject
    /// interleavings (including mid-speculation preemption by release) the
    /// pool must match a shadow recount with no leaked or double-freed
    /// blocks.
    #[test]
    fn block_pool_survives_speculative_rollback(rounds in prop::collection::vec(
        (1usize..9, 0usize..9, 0u8..8), 1..80)) {
        let model = lad_model::config::ModelConfig::tiny("spec-prop", 2, 32, 2);
        let block_bytes = model.layers * 2 * model.hidden * 2 * BLOCK_TOKENS;
        let total = 24usize;
        let mut pool = BlockPool::new(&model, total * block_bytes);
        // Shadow: (id, committed tokens) of every live sequence.
        let mut shadow: Vec<(usize, usize)> = Vec::new();

        for &(k, accept, ctl) in &rounds {
            // ctl 0 admits a fresh sequence; ctl 1 preempts one mid-stream;
            // anything else runs a speculative round on an existing one.
            if ctl == 0 || shadow.is_empty() {
                if let Some(id) = pool.admit(k * 5 + 1) {
                    shadow.push((id, k * 5 + 1));
                }
            } else if ctl == 1 {
                let (id, _) = shadow.swap_remove(accept % shadow.len());
                pool.release(id);
            } else {
                let pick = accept % shadow.len();
                let (id, committed) = shadow[pick];
                // Reserve k draft rows + 1 bonus token up front, counting
                // how many appends the pool actually granted.
                let mut reserved = 0usize;
                for _ in 0..=k {
                    if pool.append_token(id) { reserved += 1; } else { break; }
                }
                if reserved == 0 {
                    continue; // exhausted: a real engine would fall back.
                }
                // Verifier accepts a prefix; the first row always commits.
                let kept = (accept % reserved) + 1;
                if kept < reserved {
                    pool.truncate(id, committed + kept);
                }
                shadow[pick].1 = committed + kept;
            }

            // Shadow recount after every round.
            let used: usize = shadow.iter().map(|&(_, t)| BlockPool::blocks_for(t)).sum();
            prop_assert_eq!(pool.free_blocks() + used, pool.total_blocks());
            prop_assert_eq!(pool.live_sequences(), shadow.len());
            for &(id, tokens) in &shadow {
                prop_assert_eq!(pool.sequence_tokens(id), Some(tokens));
            }
        }

        for (id, _) in shadow.drain(..) {
            pool.release(id);
        }
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());
        prop_assert_eq!(pool.fragmentation_bytes(), 0);
    }
}
