//! Property tests of the batch engine's sample-chunk fan-out.
//!
//! For arbitrary seeded configurations, `decode_batch_gemm` — inline or
//! fanned out on the shared worker pool at any width — must produce exactly
//! the tokens and (algorithmic) final-step stats that decoding each prompt
//! alone through a solo `Session` produces. Ragged prompt lengths shrink the
//! active set mid-decode, so the run-boundary split of the fan-out is
//! exercised at every chunk shape, not just full batches.

use lad_core::decoder::LadConfig;
use lad_core::stats::StepStats;
use lad_model::backend::AttentionKind;
use lad_model::batch::decode_batch_gemm;
use lad_model::config::ModelConfig;
use lad_model::transformer::{Model, Session};
use proptest::prelude::*;

/// Deterministic prompt for sample `s` of a seeded batch.
fn prompt(seed: u64, s: usize, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 37 + seed * 11 + s as u64 * 13) % 256) as u32)
        .collect()
}

proptest! {
    #[test]
    fn fanned_batch_matches_solo_sessions(
        seed in 0u64..5000,
        // One entry per sample (batch 1-6), each its own prompt length.
        prompt_lens in prop::collection::vec(1usize..6, 1..7),
        steps in 1usize..6,
        parallelism in 1usize..5,
        lad in 0u8..2,
    ) {
        let model = Model::random(ModelConfig::tiny("prop", 1, 16, 2), seed);
        let kind = if lad == 1 {
            AttentionKind::Lad(LadConfig::default())
        } else {
            AttentionKind::Exact
        };
        let prompts: Vec<Vec<u32>> = prompt_lens
            .iter()
            .enumerate()
            .map(|(s, &len)| prompt(seed, s, len))
            .collect();

        let mut expected_sequences = Vec::new();
        let mut expected_stats: Vec<StepStats> = Vec::new();
        for p in &prompts {
            let mut session = Session::new(&model, &kind);
            expected_sequences.push(session.generate_greedy(p, steps));
            expected_stats.extend(session.last_stats().iter().map(|s| s.algorithmic()));
        }

        let batched = decode_batch_gemm(&model, &kind, &prompts, steps, parallelism);
        prop_assert_eq!(&batched.sequences, &expected_sequences);
        let batched_stats: Vec<StepStats> =
            batched.final_stats.iter().map(|s| s.algorithmic()).collect();
        prop_assert_eq!(&batched_stats, &expected_stats);
        // One barrier per global step, whatever the fan-out width.
        let horizon = prompt_lens.iter().max().expect("non-empty batch") + steps;
        prop_assert_eq!(batched.gemm.sync_barriers, horizon);
    }
}
