//! Property tests of speculative rollback over the sparse backends.
//!
//! The speculative-decoding contract (PR 7) says a rejected draft leaves no
//! trace: after `rollback_sample` the head state must be bit-identical to
//! never having seen the rejected rows. For the sparse backends this is a
//! sharper claim than for exact attention — top-k selection depends on the
//! whole score history and H2O's cumulative-attention book *and* alive mask
//! mutate on every step (draft rows can trigger evictions that the rollback
//! must undo exactly).
//!
//! The property: drive one sample through arbitrary accept/reject
//! interleavings — random draft lengths, random accepted prefixes — with a
//! parallel reference session fed only the committed tokens, and the
//! speculating session's logits must stay bit-identical to the reference at
//! every committed row. Alongside, a paged [`BlockPool`] mirrors the
//! engine's reserve/truncate/mark-dead choreography and its block
//! accounting must stay exact (free + held == total, eviction reclaims
//! included) through every round, with all blocks returned at release.
//!
//! A second property covers LAD's crossing: a LAD head answers prompt rows
//! exactly and builds its decode state at the first decode row. When that
//! row is the pending token of a verify run whose drafts are rejected, the
//! rollback must restore the post-crossing state bit-identically and never
//! reach back into the prompt rows.

use lad::core::decoder::LadConfig;
use lad::model::backend::AttentionKind;
use lad::model::batch::{BatchSession, Run};
use lad::model::config::ModelConfig;
use lad::model::transformer::{Model, Session};
use lad_accel::paged::BlockPool;
use proptest::prelude::*;

/// Deterministic LCG driving the draft tokens and accept/reject choices.
fn next(rng: &mut u64, bound: usize) -> usize {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*rng >> 33) as usize) % bound
}

proptest! {
    #[test]
    fn random_interleavings_restore_sparse_state_bitwise(
        seed in 0u64..2000,
        kind_sel in 0u8..2,
        plen in 1usize..5,
        rounds in 1usize..8,
    ) {
        let cfg = ModelConfig::tiny("rbprop", 1, 16, 2);
        let model = Model::random(cfg.clone(), seed);
        let kind = if kind_sel == 0 {
            AttentionKind::topk(4)
        } else {
            AttentionKind::h2o_budget(8, 3)
        };
        let prompt: Vec<u32> = (0..plen)
            .map(|i| ((i as u64 * 37 + seed * 11) % 256) as u32)
            .collect();

        let mut spec = BatchSession::dynamic(&model, &kind, 1);
        let slot = spec.add_sample();
        let mut reference = Session::new(&model, &kind);

        // Pool mirror: admitted at prompt length, grown/truncated per round
        // the way the serving engine does it.
        let block_bytes =
            cfg.layers * 2 * cfg.hidden * 2 * lad_accel::paged::BLOCK_TOKENS;
        let mut pool = BlockPool::new(&cfg, 8 * block_bytes);
        let id = pool.admit(plen).expect("pool admits the prompt");

        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut pending = 0u32;
        for (i, &t) in prompt.iter().enumerate() {
            spec.step(&[(slot, t)]);
            let ref_logits = reference.step(t);
            if i + 1 == prompt.len() {
                // Prefill logits must already agree.
                prop_assert_eq!(spec.logits(0), &ref_logits[..]);
                pending = lad::model::transformer::argmax(&ref_logits);
            }
        }

        let mut committed_total = 0usize;
        for _round in 0..rounds {
            let draft_len = next(&mut rng, 4);
            let mut run = vec![pending];
            for _ in 0..draft_len {
                run.push(next(&mut rng, 256) as u32);
            }
            // Engine choreography: reserve the mandatory row plus the draft
            // rows before the step.
            for _ in 0..run.len() {
                prop_assert!(pool.append_token(id), "pool sized to never run dry");
            }
            spec.step_runs(&[Run::verify(slot, &run)]);

            // Random accepted prefix: commit 1..=1+draft_len rows.
            let committed = 1 + next(&mut rng, draft_len + 1);
            let mut ref_logits = Vec::new();
            for &t in run.iter().take(committed) {
                ref_logits = reference.step(t);
            }
            // Every committed row's logits must be bit-identical to the
            // reference that never saw the rejected tail.
            prop_assert_eq!(spec.logits(committed - 1), &ref_logits[..]);
            if run.len() > 1 {
                spec.rollback_sample(slot, committed);
            }

            // Pool choreography: return the rejected rows, then fold the
            // sample's evictions into the block accounting.
            let current = pool.sequence_tokens(id).expect("sequence is live");
            let target = current - run.len() + committed;
            if target < current {
                pool.truncate(id, target);
            }
            for pos in spec.dead_positions(slot) {
                pool.mark_dead(id, pos);
            }
            prop_assert_eq!(
                pool.sequence_tokens(id),
                Some(plen + committed_total + committed)
            );
            prop_assert_eq!(
                pool.free_blocks() + pool.blocks_held(id).expect("live"),
                pool.total_blocks()
            );
            committed_total += committed;
            pending = next(&mut rng, 256) as u32;
        }

        // One more plain decode row: the restored state decodes and counts
        // (evictions, keys read) exactly as the reference does.
        prop_assert!(pool.append_token(id), "pool sized to never run dry");
        spec.step(&[(slot, pending)]);
        let want = reference.step(pending);
        prop_assert_eq!(spec.logits(0), &want[..]);
        prop_assert_eq!(spec.last_stats(slot), reference.last_stats());

        // Release returns exactly the blocks still held, eviction reclaims
        // already accounted.
        pool.release(id);
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());
    }

    #[test]
    fn rollback_across_lad_crossing_restores_bitwise(
        seed in 0u64..2000,
        plen in 1usize..14,
        chunk in 1usize..6,
        rounds in 1usize..6,
    ) {
        let cfg = ModelConfig::tiny("rbprop", 1, 16, 2);
        let model = Model::random(cfg, seed);
        let kind = AttentionKind::Lad(LadConfig {
            window: 4,
            ..LadConfig::default()
        });
        let prompt: Vec<u32> = (0..plen)
            .map(|i| ((i as u64 * 37 + seed * 11) % 256) as u32)
            .collect();

        let mut spec = BatchSession::dynamic(&model, &kind, 1);
        let slot = spec.add_sample();
        let mut reference = Session::new(&model, &kind);
        let ref_logits = reference.prefill(&prompt);
        for piece in prompt.chunks(chunk) {
            spec.step_runs(&[Run::prompt(slot, piece)]);
        }
        let last = (plen - 1) % chunk;
        prop_assert_eq!(spec.logits(last), &ref_logits[..]);
        let mut pending = lad::model::transformer::argmax(&ref_logits);

        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
        let mut committed_total = 0usize;
        for round in 0..rounds {
            // The first round's pending token is the first decode row (the
            // crossing), and at least one of its drafts is rejected.
            let draft_len = 1 + next(&mut rng, 3);
            let mut run = vec![pending];
            for _ in 0..draft_len {
                run.push(next(&mut rng, 256) as u32);
            }
            spec.step_runs(&[Run::verify(slot, &run)]);
            let committed = if round == 0 {
                1 + next(&mut rng, draft_len)
            } else {
                1 + next(&mut rng, draft_len + 1)
            };
            let mut ref_logits = Vec::new();
            for &t in run.iter().take(committed) {
                ref_logits = reference.step(t);
            }
            prop_assert_eq!(spec.logits(committed - 1), &ref_logits[..]);
            spec.rollback_sample(slot, committed);
            committed_total += committed;
            prop_assert_eq!(spec.position(slot), plen + committed_total);
            pending = next(&mut rng, 256) as u32;
        }
        // One more plain decode row: the restored state keeps decoding
        // bit-identically, stats included.
        spec.step(&[(slot, pending)]);
        let want = reference.step(pending);
        prop_assert_eq!(spec.logits(0), &want[..]);
        prop_assert_eq!(spec.last_stats(slot), reference.last_stats());
    }
}
