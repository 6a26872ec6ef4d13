//! Quality-per-byte-moved harness for the sparse-attention backend zoo.
//!
//! This module compares *attention policies* — exact, LAD, top-k selection,
//! H2O eviction — on bytes **moved**: the KV traffic the backend actually streams per decode,
//! straight from the [`StepStats`] traffic counters every backend reports
//! (and which `tests/differential.rs` pins to a thread-local byte meter).
//! Each backend's greedy-decode agreement with the exact reference is
//! divided by the megabytes of KV state it read, so a sparsity knob that
//! loses quality faster than it sheds traffic fails review.

use crate::datasets::PromptSet;
use lad_core::decoder::LadConfig;
use lad_core::stats::{StatsSummary, StepStats};
use lad_model::backend::AttentionKind;
use lad_model::transformer::{argmax, Model, Session};

/// One (backend, prompt set) cell of the sweep from
/// [`backend_quality_report`].
#[derive(Debug, Clone)]
pub struct BackendQualityRow {
    /// Backend label, e.g. `"topk-8"` or `"h2o-16+8"`.
    pub backend: String,
    /// Name of the prompt set the cell was decoded on.
    pub dataset: String,
    /// Tokens greedily generated per prompt (the sequence-length axis).
    pub gen_len: usize,
    /// Fraction of generated tokens identical to the exact-attention
    /// reference decode of the same prompt set.
    pub agreement: f64,
    /// KV bytes the backend streamed over every prefill + decode step,
    /// summed across prompts ([`StepStats::bytes_moved`]).
    pub bytes_moved: usize,
    /// Entries the backend evicted ([`StepStats::evictions`]; zero for the
    /// non-evicting backends).
    pub evictions: usize,
}

impl BackendQualityRow {
    /// Agreement per megabyte of KV state streamed — the figure of merit of
    /// the backend comparison. A sparse backend earns its keep only by
    /// scoring higher here than exact attention on the same prompt set.
    pub fn quality_per_mbyte_moved(&self) -> f64 {
        self.agreement / (self.bytes_moved as f64 / 1e6)
    }
}

/// The standard backend roster of the sweep: exact attention, LAD at its
/// default configuration, top-k at three selection budgets, and H2O at
/// three retention budgets (heavy-hitter budget + recency window). The
/// three budgets per sparse family are the byte-budget axis of the report.
pub fn backend_zoo() -> Vec<(String, AttentionKind)> {
    vec![
        ("exact".to_string(), AttentionKind::Exact),
        ("lad".to_string(), AttentionKind::Lad(LadConfig::default())),
        ("topk-4".to_string(), AttentionKind::topk(4)),
        ("topk-8".to_string(), AttentionKind::topk(8)),
        ("topk-16".to_string(), AttentionKind::topk(16)),
        ("h2o-8+4".to_string(), AttentionKind::h2o_budget(8, 4)),
        ("h2o-16+8".to_string(), AttentionKind::h2o_budget(16, 8)),
        ("h2o-32+8".to_string(), AttentionKind::h2o_budget(32, 8)),
    ]
}

/// Greedy-decodes `prompt` for `gen_len` tokens under `kind`, accumulating
/// the per-step traffic counters of every (layer, head) along the way. The
/// prompt goes in as prompt rows (one [`Session::prefill`] row at a time),
/// so the decode is `Session::generate_greedy`'s.
fn decode_with_traffic(
    model: &Model,
    kind: &AttentionKind,
    prompt: &[u32],
    gen_len: usize,
) -> (Vec<u32>, StatsSummary) {
    let mut session = Session::new(model, kind);
    let mut steps: Vec<StepStats> = Vec::new();
    let mut logits = Vec::new();
    for t in prompt {
        logits = session.prefill(std::slice::from_ref(t));
        steps.extend(session.last_stats().iter().copied());
    }
    let mut out = Vec::with_capacity(gen_len);
    for _ in 0..gen_len {
        let next = argmax(&logits);
        out.push(next);
        logits = session.step(next);
        steps.extend(session.last_stats().iter().copied());
    }
    (out, StatsSummary::from_steps(steps.iter()))
}

/// Scores every backend in `kinds` on every prompt set in `benches`:
/// greedy-decode agreement against a fresh exact-attention reference of the
/// same prompt set, plus the KV traffic and evictions the backend's steps
/// reported. Rows are ordered bench-major, preserving both input orders;
/// an `"exact"`-labelled row scores agreement 1.0 by construction.
///
/// Vary `PromptSet::gen_len` across `benches` entries to sweep the
/// sequence-length axis, and the k / budget knobs across `kinds` to sweep
/// the byte-budget axis.
pub fn backend_quality_report(
    model: &Model,
    benches: &[PromptSet],
    kinds: &[(String, AttentionKind)],
) -> Vec<BackendQualityRow> {
    let mut rows = Vec::with_capacity(benches.len() * kinds.len());
    for bench in benches {
        let reference: Vec<Vec<u32>> = bench
            .prompts
            .iter()
            .map(|prompt| {
                Session::new(model, &AttentionKind::Exact).generate_greedy(prompt, bench.gen_len)
            })
            .collect();
        for (label, kind) in kinds {
            let mut matches = 0usize;
            let mut total = 0usize;
            let mut bytes_moved = 0usize;
            let mut evictions = 0usize;
            for (prompt, reference) in bench.prompts.iter().zip(&reference) {
                let (candidate, summary) = decode_with_traffic(model, kind, prompt, bench.gen_len);
                total += reference.len();
                matches += candidate
                    .iter()
                    .zip(reference)
                    .filter(|(c, r)| c == r)
                    .count();
                bytes_moved += summary.total_bytes_moved;
                evictions += summary.total_evictions;
            }
            rows.push(BackendQualityRow {
                backend: label.clone(),
                dataset: bench.name.clone(),
                gen_len: bench.gen_len,
                agreement: matches as f64 / total.max(1) as f64,
                bytes_moved,
                evictions,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_model::config::ModelConfig;

    fn bench(gen_len: usize) -> PromptSet {
        PromptSet {
            name: "zoo".to_string(),
            prompts: vec![vec![3, 1, 4, 1, 5], vec![2, 7, 1, 8]],
            gen_len,
        }
    }

    #[test]
    fn exact_row_is_its_own_reference() {
        let model = Model::random(ModelConfig::tiny("zoo", 2, 32, 2), 17);
        let kinds = vec![("exact".to_string(), AttentionKind::Exact)];
        let rows = backend_quality_report(&model, &[bench(16)], &kinds);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].agreement, 1.0);
        assert_eq!(rows[0].evictions, 0);
        assert!(rows[0].bytes_moved > 0);
    }

    #[test]
    fn unconstrained_topk_agrees_exactly_and_h2o_moves_fewer_bytes() {
        let model = Model::random(ModelConfig::tiny("zoo", 2, 32, 2), 17);
        let kinds = vec![
            ("exact".to_string(), AttentionKind::Exact),
            // k beyond the longest sequence: selection never bites.
            ("topk-big".to_string(), AttentionKind::topk(64)),
            ("topk-4".to_string(), AttentionKind::topk(4)),
            ("h2o-6+2".to_string(), AttentionKind::h2o_budget(6, 2)),
        ];
        let rows = backend_quality_report(&model, &[bench(24)], &kinds);
        let exact = &rows[0];
        assert_eq!(rows[1].agreement, 1.0, "k >= n must reproduce exact");
        // Top-k still scores every key but reads only k values; H2O evicts,
        // shrinking both sides. Either way the sparse rows move fewer bytes.
        assert!(rows[2].bytes_moved < exact.bytes_moved);
        assert!(rows[3].bytes_moved < exact.bytes_moved);
        assert!(rows[3].evictions > 0, "h2o over budget must evict");
        assert_eq!(exact.evictions, 0);
    }

    #[test]
    fn rows_are_bench_major_with_gen_len_recorded() {
        let model = Model::random(ModelConfig::tiny("zoo", 1, 16, 2), 3);
        let kinds = vec![
            ("exact".to_string(), AttentionKind::Exact),
            ("topk-4".to_string(), AttentionKind::topk(4)),
        ];
        let benches = [bench(8), bench(16)];
        let rows = backend_quality_report(&model, &benches, &kinds);
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows.iter().map(|r| r.gen_len).collect::<Vec<_>>(),
            vec![8, 8, 16, 16]
        );
        assert_eq!(rows[0].backend, "exact");
        assert_eq!(rows[1].backend, "topk-4");
    }

    #[test]
    fn quality_per_mbyte_moved_is_agreement_over_megabytes() {
        let row = BackendQualityRow {
            backend: "unit".to_string(),
            dataset: "unit".to_string(),
            gen_len: 1,
            agreement: 0.5,
            bytes_moved: 2_000_000,
            evictions: 0,
        };
        assert!((row.quality_per_mbyte_moved() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zoo_covers_the_three_budget_families() {
        let zoo = backend_zoo();
        assert_eq!(zoo.len(), 8);
        assert_eq!(zoo[0].0, "exact");
        assert_eq!(
            zoo.iter().filter(|(n, _)| n.starts_with("topk-")).count(),
            3
        );
        assert_eq!(zoo.iter().filter(|(n, _)| n.starts_with("h2o-")).count(), 3);
    }
}
