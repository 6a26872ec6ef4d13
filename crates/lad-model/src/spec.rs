//! Training-free speculative decoding: draft, batched verify, rollback.
//!
//! A drafter proposes up to `K` continuation tokens from nothing but the
//! token stream itself (no draft model), the target model verifies all of
//! them in **one** multi-row forward per layer through
//! [`BatchSession::step_runs`] — the exact cross-row blocked-GEMM shape the
//! batch engine is already fast at — and the longest prefix of drafts that
//! matches the model's own greedy choices is accepted. Rows past the first
//! mismatch are unwound with [`BatchSession::rollback_sample`] (KV-arena
//! truncation plus metadata restore), so the visible token stream is
//! **bit-identical to plain greedy decoding**; speculation only changes how
//! many forward passes it takes to produce it.
//!
//! Two draft policies, both deterministic:
//!
//! * [`DraftPolicy::Recency`] — Cacheback-style: the longest matching
//!   suffix of the stream (up to `max_ngram` tokens) predicts the token
//!   that followed its most recent earlier occurrence.
//! * [`DraftPolicy::NgramPool`] — Lookahead-style: a pool of `n`-grams
//!   keyed by their `(n-1)`-token prefix, most recent occurrence wins.
//!
//! The acceptance walk for a round that fed rows `[pending, d_1..d_L]`:
//! row `j`'s argmax is committed; while it equals draft `d_{j+1}` the next
//! row was computed from the correct input and the walk continues. A round
//! therefore commits between 1 (all drafts rejected — never slower than
//! plain decoding in tokens per forward) and `L + 1` (all accepted plus the
//! bonus token) positions per forward pass.

use crate::backend::AttentionKind;
use crate::batch::{BatchSession, Run};
use crate::transformer::{argmax, Model};
use lad_obs::Histogram;
use std::collections::HashMap;

/// How draft tokens are proposed from the generated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DraftPolicy {
    /// Cacheback-style recency table: the longest matching stream suffix
    /// (down from `max_ngram` context tokens) proposes the token that
    /// followed its most recent earlier occurrence.
    Recency {
        /// Longest suffix length tried as context.
        max_ngram: usize,
    },
    /// Lookahead-style n-gram pool: a fixed `(n-1)`-token context maps to
    /// the continuation of its most recent occurrence.
    NgramPool {
        /// N-gram size (`n - 1` context tokens predict the `n`-th).
        n: usize,
    },
}

impl DraftPolicy {
    /// Default recency policy (suffixes up to 4 tokens).
    pub fn recency_default() -> DraftPolicy {
        DraftPolicy::Recency { max_ngram: 4 }
    }

    /// Default n-gram pool policy (trigrams: 2 context tokens).
    pub fn ngram_default() -> DraftPolicy {
        DraftPolicy::NgramPool { n: 3 }
    }

    /// Context lengths this policy indexes, shortest first.
    fn context_lens(&self) -> std::ops::RangeInclusive<usize> {
        match *self {
            DraftPolicy::Recency { max_ngram } => 1..=max_ngram,
            DraftPolicy::NgramPool { n } => (n - 1)..=(n - 1),
        }
    }
}

/// A training-free draft-token proposer fed by the decoded stream.
///
/// Deterministic by construction (pure table lookups, most-recent-wins
/// updates), so speculative decoding stays reproducible.
///
/// # Example
///
/// ```
/// use lad_model::spec::{DraftPolicy, Drafter};
///
/// let mut d = Drafter::new(DraftPolicy::recency_default());
/// d.observe_all(&[1, 2, 3, 1, 2]);
/// // The suffix [1, 2] was last followed by 3.
/// assert_eq!(d.draft(2), vec![3, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Drafter {
    policy: DraftPolicy,
    history: Vec<u32>,
    /// Context n-gram -> token that followed its most recent occurrence.
    table: HashMap<Vec<u32>, u32>,
}

impl Drafter {
    /// An empty drafter under `policy`.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length context (`max_ngram == 0` / `n < 2`).
    pub fn new(policy: DraftPolicy) -> Drafter {
        assert!(
            !policy.context_lens().is_empty() && *policy.context_lens().start() > 0,
            "Drafter: policy must index at least one non-empty context"
        );
        Drafter {
            policy,
            history: Vec::new(),
            table: HashMap::new(),
        }
    }

    /// Tokens observed so far (prompt plus committed stream).
    pub fn observed(&self) -> usize {
        self.history.len()
    }

    /// Feeds one committed token: every indexed context ending just before
    /// it now predicts it (most recent occurrence wins).
    pub fn observe(&mut self, token: u32) {
        self.history.push(token);
        let n = self.history.len();
        for ctx in self.policy.context_lens() {
            if n > ctx {
                self.table
                    .insert(self.history[n - 1 - ctx..n - 1].to_vec(), token);
            }
        }
    }

    /// Feeds a slice of committed tokens in order.
    pub fn observe_all(&mut self, tokens: &[u32]) {
        for &t in tokens {
            self.observe(t);
        }
    }

    /// Proposes up to `k` draft tokens by chaining table lookups on the
    /// current stream suffix (proposed tokens extend the context but never
    /// enter the table — they are hypotheses, not observations). Returns
    /// fewer than `k` when a context has no recorded continuation.
    pub fn draft(&self, k: usize) -> Vec<u32> {
        let longest = *self.policy.context_lens().end();
        let start = self.history.len().saturating_sub(longest);
        let mut work: Vec<u32> = self.history[start..].to_vec();
        let mut drafts = Vec::with_capacity(k);
        for _ in 0..k {
            let Some(next) = self.predict(&work) else {
                break;
            };
            drafts.push(next);
            work.push(next);
        }
        drafts
    }

    fn predict(&self, suffix: &[u32]) -> Option<u32> {
        for ctx in self.policy.context_lens().rev() {
            if suffix.len() >= ctx {
                if let Some(&t) = self.table.get(&suffix[suffix.len() - ctx..]) {
                    return Some(t);
                }
            }
        }
        None
    }
}

/// Speculative-decoding configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecConfig {
    /// Maximum draft tokens verified per round (`0` = plain decoding).
    pub k: usize,
    /// Draft proposal policy.
    pub policy: DraftPolicy,
}

impl SpecConfig {
    /// `k` drafts under the default recency policy.
    pub fn recency(k: usize) -> SpecConfig {
        SpecConfig {
            k,
            policy: DraftPolicy::recency_default(),
        }
    }

    /// `k` drafts under the default n-gram pool policy.
    pub fn ngram(k: usize) -> SpecConfig {
        SpecConfig {
            k,
            policy: DraftPolicy::ngram_default(),
        }
    }
}

/// Outcome of a speculative decode: the (greedy-identical) token stream
/// plus the draft/verify accounting behind the speedup model
/// `tokens per forward = 1 + acceptance_rate × K`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    /// Generated tokens — bit-identical to plain greedy decoding.
    pub tokens: Vec<u32>,
    /// Draft/verify rounds executed.
    pub rounds: usize,
    /// Model forward passes (== `rounds`; each round is one multi-row step).
    pub forward_steps: usize,
    /// Draft tokens proposed across all rounds.
    pub drafted: usize,
    /// Draft tokens accepted across all rounds.
    pub accepted: usize,
    /// Histogram of committed tokens per round (accepted drafts + 1).
    pub accepted_len: Histogram,
    /// Histogram of per-round acceptance, in percent of proposed drafts
    /// (rounds that proposed nothing record no sample).
    pub acceptance_pct: Histogram,
}

impl SpecReport {
    /// Fraction of proposed drafts the model accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }

    /// Mean committed tokens per forward pass (> 1.0 means speculation is
    /// paying for itself in steps; 1.0 is the plain-decoding floor).
    pub fn mean_accepted_len(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.tokens.len() as f64 / self.rounds as f64
        }
    }
}

/// Greedy-decodes `steps` tokens from `prompt` speculatively: all prompt
/// tokens but the last go through one multi-row forward, then each round
/// drafts up to `cfg.k` tokens, verifies them in one multi-row
/// [`BatchSession::step_runs`] forward, commits the longest matching prefix
/// (plus the model's correction/bonus token) and rolls the rest back.
///
/// The returned token stream is bit-identical to
/// [`Session::generate_greedy`](crate::transformer::Session::generate_greedy)
/// with the same model, backend and prompt — `tests/differential.rs` pins
/// this across the backend grid. With `cfg.k == 0` every round degenerates
/// to exactly the plain one-row step.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn decode_speculative(
    model: &Model,
    kind: &AttentionKind,
    prompt: &[u32],
    steps: usize,
    cfg: &SpecConfig,
) -> SpecReport {
    assert!(!prompt.is_empty(), "decode_speculative: empty prompt");
    let mut session = BatchSession::new(model, kind, 1, 1);
    let mut drafter = Drafter::new(cfg.policy.clone());
    drafter.observe_all(prompt);

    // Prefill everything but the last prompt token as one run that is never
    // rolled back; that token is the first round's pending input.
    let (&last, prefix) = prompt.split_last().expect("prompt checked non-empty");
    if !prefix.is_empty() {
        session.step_runs(&[Run::new(0, prefix)]);
    }
    let mut pending = last;

    let mut report = SpecReport {
        tokens: Vec::with_capacity(steps),
        rounds: 0,
        forward_steps: 0,
        drafted: 0,
        accepted: 0,
        accepted_len: Histogram::new(),
        acceptance_pct: Histogram::new(),
    };
    let mut run_buf: Vec<u32> = Vec::with_capacity(cfg.k + 1);

    while report.tokens.len() < steps {
        let remaining = steps - report.tokens.len();
        // Never draft past the request budget: a round commits at most
        // `drafts + 1` tokens.
        let budget = cfg.k.min(remaining - 1);
        let drafts = {
            let _draft_span = lad_obs::span("spec.draft");
            drafter.draft(budget)
        };
        run_buf.clear();
        run_buf.push(pending);
        run_buf.extend_from_slice(&drafts);
        {
            let _verify_span = lad_obs::span("spec.verify");
            session.step_runs(&[Run::verify(0, &run_buf)]);
        }

        // Acceptance walk: commit row argmaxes while they confirm drafts.
        let mut j = 0usize;
        loop {
            let next = argmax(session.logits(j));
            report.tokens.push(next);
            drafter.observe(next);
            if j < drafts.len() && drafts[j] == next {
                j += 1;
            } else {
                pending = next;
                break;
            }
        }
        if run_buf.len() > 1 {
            let _rollback_span = lad_obs::span("spec.rollback");
            session.rollback_sample(0, j + 1);
        }
        report.rounds += 1;
        report.forward_steps += 1;
        report.drafted += drafts.len();
        report.accepted += j;
        report.accepted_len.record((j + 1) as u64);
        if !drafts.is_empty() {
            report
                .acceptance_pct
                .record((100 * j / drafts.len()) as u64);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::transformer::Session;

    fn model() -> Model {
        Model::random(ModelConfig::tiny("spec", 2, 32, 2), 71)
    }

    #[test]
    fn recency_drafter_predicts_repeats() {
        let mut d = Drafter::new(DraftPolicy::recency_default());
        d.observe_all(&[5, 6, 7, 5, 6]);
        // Longest known suffix [5, 6] predicts 7, then [6, 7] predicts 5...
        assert_eq!(d.draft(3), vec![7, 5, 6]);
    }

    #[test]
    fn recency_prefers_longest_context() {
        let mut d = Drafter::new(DraftPolicy::Recency { max_ngram: 2 });
        // Context [1] is last followed by 9, but the 2-gram [2, 1] by 7.
        d.observe_all(&[2, 1, 7, 1, 9, 2, 1]);
        assert_eq!(d.draft(1), vec![7]);
    }

    #[test]
    fn ngram_pool_most_recent_wins() {
        let mut d = Drafter::new(DraftPolicy::NgramPool { n: 3 });
        d.observe_all(&[1, 2, 3, 1, 2, 4, 1, 2]);
        // [1, 2] -> 4 (latest occurrence shadows the earlier 3).
        assert_eq!(d.draft(1), vec![4]);
    }

    #[test]
    fn drafter_returns_short_on_unknown_context() {
        let d = Drafter::new(DraftPolicy::recency_default());
        assert!(d.draft(4).is_empty());
        let mut d = Drafter::new(DraftPolicy::NgramPool { n: 3 });
        d.observe(1);
        assert!(d.draft(2).is_empty(), "one token cannot fill a 2-context");
    }

    #[test]
    fn speculative_matches_greedy_for_both_policies() {
        let model = model();
        let prompt = vec![3u32, 1, 4, 1, 5];
        let mut reference = Session::new(&model, &AttentionKind::Exact);
        let want = reference.generate_greedy(&prompt, 24);
        for cfg in [SpecConfig::recency(4), SpecConfig::ngram(4)] {
            let report = decode_speculative(&model, &AttentionKind::Exact, &prompt, 24, &cfg);
            assert_eq!(report.tokens, want, "{:?} diverged from greedy", cfg.policy);
            assert_eq!(report.rounds, report.forward_steps);
            assert!(report.accepted <= report.drafted);
        }
    }

    #[test]
    fn k_zero_is_one_round_per_token() {
        let model = model();
        let prompt = vec![7u32, 8, 9];
        let report = decode_speculative(
            &model,
            &AttentionKind::Exact,
            &prompt,
            12,
            &SpecConfig::recency(0),
        );
        let mut reference = Session::new(&model, &AttentionKind::Exact);
        assert_eq!(report.tokens, reference.generate_greedy(&prompt, 12));
        assert_eq!(report.rounds, 12);
        assert_eq!(report.drafted, 0);
        assert_eq!(report.acceptance_pct.count(), 0);
        assert!((report.mean_accepted_len() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speculative_matches_greedy_for_sparse_backends() {
        // The acceptance criterion for the sparse zoo: speculation with
        // rollback (K = 4) and the degenerate one-token rounds (K = 0) must
        // both reproduce plain greedy decoding token-for-token, with the
        // budgets tight enough that top-k selection and H2O eviction are
        // actually exercised mid-speculation.
        let model = model();
        let prompt = vec![3u32, 1, 4, 1, 5];
        for kind in [AttentionKind::topk(4), AttentionKind::h2o_budget(8, 4)] {
            let mut reference = Session::new(&model, &kind);
            let want = reference.generate_greedy(&prompt, 24);
            for k in [0usize, 4] {
                let report =
                    decode_speculative(&model, &kind, &prompt, 24, &SpecConfig::recency(k));
                assert_eq!(report.tokens, want, "{kind:?} K={k} diverged from greedy");
            }
        }
    }

    #[test]
    fn cyclic_stream_reaches_high_acceptance() {
        // Greedy decoding of a tiny random model settles into a short cycle;
        // once the cycle has been seen the recency drafter predicts it
        // perfectly, so speculation must commit > 1 token per forward pass.
        let model = model();
        let prompt = vec![3u32, 1, 4, 1, 5];
        let report = decode_speculative(
            &model,
            &AttentionKind::Exact,
            &prompt,
            48,
            &SpecConfig::recency(4),
        );
        assert!(
            report.mean_accepted_len() > 1.0,
            "mean accepted length {} never beat plain decoding",
            report.mean_accepted_len()
        );
        assert_eq!(report.accepted_len.count() as usize, report.rounds);
    }
}
