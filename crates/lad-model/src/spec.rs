//! Training-free speculative decoding: the draft side.
//!
//! A drafter proposes up to `K` continuation tokens from nothing but the
//! token stream itself (no draft model). The serving engine
//! (`lad_serve::Engine`, opted into per request with
//! `Request::with_speculation`) verifies them in **one** multi-row
//! [`BatchSession::step_runs`](crate::batch::BatchSession::step_runs)
//! forward — the cross-row blocked-GEMM shape the batch engine is already
//! fast at — commits the longest prefix of drafts that matches the model's
//! own greedy choices, and unwinds the rows past the first mismatch with
//! [`BatchSession::rollback_sample`](crate::batch::BatchSession::rollback_sample).
//! The visible token stream is therefore **bit-identical to plain greedy
//! decoding**; speculation only changes how many forward passes it takes.
//!
//! Two draft policies, both deterministic:
//!
//! * [`DraftPolicy::Recency`] — Cacheback-style: the longest matching
//!   suffix of the stream (up to `max_ngram` tokens) predicts the token
//!   that followed its most recent earlier occurrence.
//! * [`DraftPolicy::NgramPool`] — Lookahead-style: a pool of `n`-grams
//!   keyed by their `(n-1)`-token prefix, most recent occurrence wins.
//!
//! A verify round that feeds rows `[pending, d_1..d_L]` commits between 1
//! (all drafts rejected — never slower than plain decoding in tokens per
//! forward) and `L + 1` (all accepted plus the bonus token) positions.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
