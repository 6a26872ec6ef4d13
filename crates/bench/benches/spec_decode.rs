//! Speculative decoding vs plain one-token-per-step decoding.
//!
//! The draft/verify loop trades wasted work on rejected rows for blocked
//! multi-row GEMMs on accepted ones: a verify round feeds `1 + d` rows
//! through one forward pass, reusing every weight matrix across the rows
//! (the same memory-bound win `gemm_batch` pins across samples), and
//! commits `1 + matched` tokens. The analytic speedup model is
//!
//! ```text
//! tokens per forward = 1 + acceptance_rate x K   (= mean accepted length)
//! speedup            = mean_accepted_len x (batched row cost / solo row cost)
//! ```
//!
//! so speculation wins exactly when acceptance is high enough that the
//! committed rows outweigh the rejected ones. Greedy streams of the tiny
//! random bench models settle into cycles, which the training-free recency
//! drafter learns from the generated stream itself — no draft model.
//!
//! Every row serves the prompt as the only request of a serving `Engine`
//! (`lad_bench::gates::serve_spec`): the first tick prefills the whole
//! prompt and samples the first token, every later tick is one verify
//! round, so `rounds` and `forward_steps` both count the engine's ticks and
//! the mean accepted length is over the verify rounds.
//!
//! The gated quantity is the **speedup ratio vs the K = 0 run of the same
//! engine** (bit-identical tokens, same tick loop): the median of
//! interleaved plain/speculative pairs in one process
//! (`lad_bench::gates::spec_point`). The fastest drafter must beat plain
//! decoding, and its verify rounds must commit more than the bonus token on
//! average (bounds in `lad_bench::gates::GATES`).
//!
//! The run is written to `BENCH_spec.json` at the repo root as the
//! committed baseline (validated and re-measured by `bench_check`).
//!
//! ```sh
//! cargo bench -p lad-bench --bench spec_decode
//! ```

use lad_bench::gates::{self, bench_model, spec_point, SPEC_FILE, SPEC_PROMPT_LEN};
use lad_bench::{print_table, section};
use lad_model::spec::SpecConfig;

const STEPS: usize = 256;
const PAIRS: usize = 11;

/// (kind label, draft config) of every speculative row.
fn sweep() -> [(&'static str, SpecConfig); 4] {
    [
        ("recency-k2", SpecConfig::recency(2)),
        ("recency-k4", SpecConfig::recency(4)),
        ("recency-k8", SpecConfig::recency(8)),
        ("ngram-k4", SpecConfig::ngram(4)),
    ]
}

fn main() {
    let model = bench_model();

    section("spec_decode: draft/verify vs plain (one-request serving engine)");
    let points: Vec<_> = sweep()
        .into_iter()
        .map(|(kind, cfg)| (kind, spec_point(&model, &cfg, STEPS, PAIRS)))
        .collect();
    let plain_steps = gates::serve_spec(&model, &SpecConfig::recency(0), STEPS).steps;
    let plain_ms = gates::median(points.iter().map(|(_, p)| p.plain_ms).collect());

    let mut table = vec![vec![
        "plain".to_string(),
        format!("{plain_ms:.3}"),
        "1.00".to_string(),
        "0%".to_string(),
        "1.00".to_string(),
        format!("{plain_steps}"),
    ]];
    let mut rows = vec![format!(
        "{{\"kind\": \"plain\", \"ms_per_token\": {plain_ms:.4}, \"speedup_vs_plain\": 1.000, \
         \"acceptance_rate\": 0.000, \"mean_accepted_len\": 1.000, \"rounds\": {plain_steps}, \
         \"forward_steps\": {plain_steps}, \"drafted\": 0, \"accepted\": 0}}"
    )];
    for (kind, p) in &points {
        let r = &p.report;
        table.push(vec![
            kind.to_string(),
            format!("{:.3}", p.ms),
            format!("{:.2}", p.speedup),
            format!("{:.0}%", r.spec_acceptance_rate() * 100.0),
            format!("{:.2}", r.mean_accepted_len()),
            format!("{}", r.steps),
        ]);
        rows.push(format!(
            "{{\"kind\": \"{kind}\", \"ms_per_token\": {:.4}, \"speedup_vs_plain\": {:.3}, \
             \"acceptance_rate\": {:.3}, \"mean_accepted_len\": {:.3}, \"rounds\": {}, \
             \"forward_steps\": {}, \"drafted\": {}, \"accepted\": {}}}",
            p.ms,
            p.speedup,
            r.spec_acceptance_rate(),
            r.mean_accepted_len(),
            r.steps,
            r.steps,
            r.spec_drafted,
            r.spec_accepted,
        ));
    }
    print_table(
        &[
            "drafter",
            "ms/token",
            "speedup",
            "acceptance",
            "tokens/round",
            "forwards",
        ],
        &table,
    );
    gates::write_baseline(
        SPEC_FILE,
        "spec_decode/draft_verify_vs_plain",
        "tiny spec preset (2 layers, 256 hidden, 4 heads)",
        &[
            ("prompt_len", SPEC_PROMPT_LEN.to_string()),
            ("steps", STEPS.to_string()),
            ("pairs", PAIRS.to_string()),
        ],
        &rows,
    );
}
