//! Output verification (untimed): a seed-chosen sample of served requests
//! is re-decoded through a solo `lad_model::Session` with the request's own
//! backend. Scheduling must never change results, so any difference counts
//! the request as failed. Non-exact backends are also compared against the
//! `Exact` greedy stream for the token-match quality figure.

use crate::workload::{shuffle, Workload};
use lad_math::Rng;
use lad_model::backend::AttentionKind;
use lad_model::transformer::{Model, Session};
use lad_serve::{Request, RequestOutcome};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Verdict {
    /// Requests re-decoded.
    pub checked: usize,
    /// Ids whose served stream differs from the solo same-backend decode.
    pub mismatched: Vec<u64>,
    /// Mean over checked requests of the longest common prefix with the
    /// `Exact` greedy stream ÷ stream length (`None` when not asked for).
    pub token_match_frac: Option<f64>,
}

impl Verdict {
    pub fn note(&self) -> String {
        if self.mismatched.is_empty() {
            format!(
                "verified {} requests against their solo decode",
                self.checked
            )
        } else {
            format!(
                "requests {:?} of {} verified differ from their solo decode",
                self.mismatched, self.checked
            )
        }
    }
}

/// The seed-chosen sample: `count` distinct indices into the request list.
pub fn sample(seed: u64, requests: usize, count: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..requests).collect();
    shuffle(&mut ids, &mut Rng::new(seed ^ 0x5eed_0f5a_3b1e));
    ids.truncate(count);
    ids.sort_unstable();
    ids
}

fn solo(model: &Model, kind: &AttentionKind, req: &Request) -> Vec<u32> {
    Session::new(model, kind).generate_greedy(&req.prompt, req.max_tokens)
}

fn common_prefix_frac(a: &[u32], b: &[u32]) -> f64 {
    let lcp = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    lcp as f64 / a.len().max(b.len()).max(1) as f64
}

/// Re-decodes the sample on every core (verification is not timed).
///
/// `exact_reference` asks for the token-match figure: it maps request id →
/// the `Exact` stream where another serve of the same list already produced
/// it; missing references are decoded solo.
pub fn verify(
    model: &Model,
    w: &Workload,
    seed: u64,
    requests: &[Request],
    outcomes: &[RequestOutcome],
    exact_reference: Option<&BTreeMap<u64, Vec<u32>>>,
) -> Verdict {
    let served: BTreeMap<u64, &RequestOutcome> = outcomes.iter().map(|o| (o.id, o)).collect();
    let picked = sample(seed, requests.len(), w.verify_sample);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let check = |idx: usize| -> (bool, Option<f64>) {
        let req = &requests[idx];
        let kind = req.backend.clone().unwrap_or_else(|| w.kind());
        let Some(outcome) = served.get(&req.id) else {
            return (false, None);
        };
        let same = solo(model, &kind, req) == outcome.tokens;
        let matched = exact_reference.map(|reference| {
            if kind == AttentionKind::Exact {
                // Bit-exactness invariant: the check above already pinned it.
                return if same { 1.0 } else { 0.0 };
            }
            match reference.get(&req.id) {
                Some(reference) => common_prefix_frac(&outcome.tokens, reference),
                None => {
                    common_prefix_frac(&outcome.tokens, &solo(model, &AttentionKind::Exact, req))
                }
            }
        });
        (same, matched)
    };
    let results: Vec<(usize, (bool, Option<f64>))> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<usize> = picked.iter().copied().skip(t).step_by(threads).collect();
                let check = &check;
                scope.spawn(move || mine.into_iter().map(|i| (i, check(i))).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    let matches: Vec<f64> = results.iter().filter_map(|(_, (_, m))| *m).collect();
    Verdict {
        checked: results.len(),
        mismatched: results
            .iter()
            .filter(|(_, (same, _))| !same)
            .map(|(i, _)| requests[*i].id)
            .collect(),
        token_match_frac: exact_reference.map(|_| crate::stats::mean(&matches)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_seeded_distinct_and_bounded() {
        let a = sample(1, 104, 8);
        assert_eq!(a, sample(1, 104, 8));
        assert_ne!(a, sample(2, 104, 8));
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(sample(1, 2, 8), vec![0, 1]);
    }

    #[test]
    fn common_prefix_is_over_the_longer_stream() {
        assert_eq!(common_prefix_frac(&[1, 2, 3, 4], &[1, 2, 9, 4]), 0.5);
        assert_eq!(common_prefix_frac(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(common_prefix_frac(&[], &[]), 0.0);
    }
}
