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
//! (`Request::with_speculation`): the first tick prefills the whole prompt
//! and samples the first token, every later tick is one verify round, so
//! `rounds` and `forward_steps` both count the engine's ticks and the mean
//! accepted length is over the verify rounds.
//!
//! The gated quantity is the **speedup ratio vs the K = 0 run of the same
//! engine** (bit-identical tokens, same tick loop), measured in the same
//! process so machine noise cancels. Floor: 1.0x at the best K, with
//! measured mean accepted length > 1.0.
//!
//! The run is written to `BENCH_spec.json` at the repo root as the
//! committed baseline (validated and re-measured by `bench_check`).
//!
//! ```sh
//! cargo bench -p lad-bench --bench spec_decode
//! ```

use lad_accel::paged::{BlockPool, BLOCK_TOKENS};
use lad_bench::{print_table, section};
use lad_model::backend::AttentionKind;
use lad_model::config::ModelConfig;
use lad_model::spec::SpecConfig;
use lad_model::transformer::Model;
use lad_serve::{Engine, Request, ServeConfig, ServeReport};
use std::fmt::Write as _;
use std::time::Instant;

const PROMPT_LEN: usize = 16;
const STEPS: usize = 256;

/// (kind label, draft depth, ngram-pool policy instead of recency).
const SWEEP: [(&str, usize, bool); 5] = [
    ("plain", 0, false),
    ("recency-k2", 2, false),
    ("recency-k4", 4, false),
    ("recency-k8", 8, false),
    ("ngram-k4", 4, true),
];

fn model_cfg() -> ModelConfig {
    ModelConfig::tiny("spec-bench", 2, 256, 4)
}

fn prompt() -> Vec<u32> {
    (0..PROMPT_LEN as u32).map(|i| (i * 31 + 5) % 256).collect()
}

fn spec_cfg(k: usize, ngram: bool) -> SpecConfig {
    if ngram {
        SpecConfig::ngram(k)
    } else {
        SpecConfig::recency(k)
    }
}

/// Serves the bench prompt alone under `cfg`: one tick prefills the whole
/// prompt, and the pool holds prompt + steps, so nothing is preempted.
fn serve(model: &Model, cfg: &SpecConfig) -> ServeReport {
    let p = prompt();
    let model_cfg = model.config();
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let pool = BlockPool::new(
        model_cfg,
        BlockPool::blocks_for(p.len() + STEPS) * block_bytes,
    );
    let serve_cfg = ServeConfig {
        prefill_chunk: p.len(),
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(model, &AttentionKind::Exact, pool, serve_cfg);
    engine.submit(Request::new(0, p, STEPS).with_speculation(cfg.clone()));
    engine.run()
}

/// Best-of-3 wall seconds per generated token, plus the (deterministic)
/// report of the final run.
fn best_of_3(model: &Model, cfg: &SpecConfig) -> (ServeReport, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let start = Instant::now();
        let report = serve(model, cfg);
        best = best.min(start.elapsed().as_secs_f64() / report.total_tokens() as f64);
        out = Some(report);
    }
    (out.expect("at least one run"), best)
}

struct Row {
    kind: &'static str,
    report: ServeReport,
    ms_per_token: f64,
    speedup: f64,
}

fn write_baseline(rows: &[Row]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spec.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"spec_decode/draft_verify_vs_plain\",");
    let _ = writeln!(
        json,
        "  \"model\": \"tiny spec preset (2 layers, 256 hidden, 4 heads)\","
    );
    let _ = writeln!(json, "  \"prompt_len\": {PROMPT_LEN},");
    let _ = writeln!(json, "  \"steps\": {STEPS},");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let r = &row.report;
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"ms_per_token\": {:.4}, \
             \"speedup_vs_plain\": {:.3}, \"acceptance_rate\": {:.3}, \
             \"mean_accepted_len\": {:.3}, \"rounds\": {}, \
             \"forward_steps\": {}, \"drafted\": {}, \"accepted\": {}}}{comma}",
            row.kind,
            row.ms_per_token * 1e3,
            row.speedup,
            r.spec_acceptance_rate(),
            r.mean_accepted_len(),
            r.steps,
            r.steps,
            r.spec_drafted,
            r.spec_accepted,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match std::fs::write(path, json) {
        Ok(()) => println!("\nbaseline written to BENCH_spec.json"),
        Err(e) => println!("\ncould not write BENCH_spec.json: {e}"),
    }
}

fn main() {
    let model = Model::random(model_cfg(), 7);

    section("spec_decode: draft/verify vs plain (one-request serving engine)");
    let mut rows: Vec<Row> = Vec::new();
    let mut plain_tokens: Option<Vec<u32>> = None;
    let mut plain_t = f64::NAN;
    for (kind, k, ngram) in SWEEP {
        let (report, t) = best_of_3(&model, &spec_cfg(k, ngram));
        match &plain_tokens {
            None => {
                plain_t = t;
                plain_tokens = Some(report.outcomes[0].tokens.clone());
            }
            Some(reference) => assert_eq!(
                &report.outcomes[0].tokens, reference,
                "{kind}: speculative decode diverged from the plain stream"
            ),
        }
        let speedup = plain_t / t;
        rows.push(Row {
            kind,
            report,
            ms_per_token: t,
            speedup,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let r = &row.report;
            vec![
                row.kind.to_string(),
                format!("{:.3}", row.ms_per_token * 1e3),
                format!("{:.2}", row.speedup),
                format!("{:.0}%", r.spec_acceptance_rate() * 100.0),
                format!("{:.2}", r.mean_accepted_len()),
                format!("{}", r.steps),
            ]
        })
        .collect();
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

    let best = rows
        .iter()
        .skip(1)
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("speculative rows exist");
    println!(
        "\nbest: {} at {:.2}x, {:.2} tokens/round (floors: 1.00x, 1.0)",
        best.kind,
        best.speedup,
        best.report.mean_accepted_len()
    );

    write_baseline(&rows);

    // Acceptance floors: at some K the draft/verify loop must beat plain
    // decoding outright, and its verify rounds must commit more than the
    // bonus token on average (otherwise speculation never engaged).
    assert!(
        best.speedup >= 1.0,
        "best speculative speedup {:.2}x fell below the plain baseline",
        best.speedup
    );
    assert!(
        best.report.mean_accepted_len() > 1.0,
        "best mean accepted length {:.2} never beat the bonus token",
        best.report.mean_accepted_len()
    );
}
