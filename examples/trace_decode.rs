//! Capture a decode timeline: run a short LAD decode with the recorder on,
//! export a Perfetto-loadable Chrome trace plus a flat JSONL event stream,
//! and print the per-stage latency table.
//!
//! ```sh
//! cargo run --release --example trace_decode
//! ```
//!
//! Outputs land in `target/`:
//! * `target/trace_decode.trace.json` — open at <https://ui.perfetto.dev>
//!   (or `chrome://tracing`); one track per thread (`main` + any pool
//!   workers — the global pool has none on a single-core host).
//! * `target/trace_decode.jsonl` — one JSON object per event, for grepping
//!   or downstream tooling.
//!
//! Both files are validated before the example exits, and CI runs it.

use lad::core::decoder::LadConfig;
use lad::core::stats::StatsSummary;
use lad::model::backend::AttentionKind;
use lad::model::batch::decode_batch_gemm;
use lad::model::config::ModelConfig;
use lad::model::transformer::{Model, Session};
use lad::obs::export::{chrome_trace, jsonl, validate_chrome_trace, validate_jsonl};
use lad::obs::StageBreakdown;

const PROMPT_LEN: usize = 24;
const STEPS: usize = 48;

fn prompt(salt: u32) -> Vec<u32> {
    (0..PROMPT_LEN as u32)
        .map(|i| (i * 31 + 5 + salt * 17) % 256)
        .collect()
}

fn main() {
    let model = Model::random(ModelConfig::tiny("trace", 2, 128, 4), 11);
    let kind = AttentionKind::Lad(LadConfig::default());

    println!("trace_decode: recording a {STEPS}-step LAD decode (+ a short batched decode)\n");
    lad::obs::set_enabled(true);

    // Single-sequence decode: the sequential reference forward.
    let mut session = Session::new(&model, &kind);
    let mut stats = Vec::new();
    let mut logits = session.prefill(&prompt(0));
    for _ in 0..STEPS {
        let next = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            .expect("non-empty logits");
        logits = session.step(next);
        stats.extend_from_slice(session.last_stats());
    }

    // A short step-synchronous batched decode fanned out on the global pool,
    // so the batch.* and pool.* spans show up on the same timeline.
    let batched = decode_batch_gemm(&model, &kind, &[prompt(1), prompt(2)], 8, 2);

    lad::obs::set_enabled(false);
    let threads = lad::obs::drain();

    let trace = chrome_trace(&threads);
    let lines = jsonl(&threads);
    validate_chrome_trace(&trace).expect("emitted Chrome trace must validate");
    validate_jsonl(&lines).expect("emitted JSONL must validate");
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&out_dir).expect("create target/");
    let trace_path = out_dir.join("trace_decode.trace.json");
    let jsonl_path = out_dir.join("trace_decode.jsonl");
    std::fs::write(&trace_path, &trace).expect("write trace");
    std::fs::write(&jsonl_path, &lines).expect("write jsonl");

    let events: usize = threads.iter().map(|t| t.events.len()).sum();
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    println!(
        "captured {events} events on {} threads ({dropped} dropped):",
        threads.len()
    );
    for t in &threads {
        println!(
            "  track {:>2}  {:<12}  {:>6} events",
            t.tid,
            t.label,
            t.events.len()
        );
    }
    println!("\nwrote {}", trace_path.display());
    println!(
        "wrote {}  (load the .trace.json in https://ui.perfetto.dev)\n",
        jsonl_path.display()
    );

    // Per-stage latency table, assembled exactly like library users would:
    // histograms from the capture, pool counters from the batched decode.
    let stages = StageBreakdown::from_events(&threads);
    let summary = StatsSummary::from_steps(&stats)
        .with_pool_metrics(batched.pool)
        .with_stage_latencies(stages.clone());
    println!("{}", summary.stage_table());

    // Span coverage of the single-sequence decode: the per-layer + logits
    // stages should account for nearly all of session.step's wall time.
    let step_total = stages.get("session.step").map_or(0, |h| h.sum());
    let staged: u64 = [
        "layer.qkv_proj",
        "layer.attn",
        "layer.out_proj",
        "layer.mlp",
        "session.logits",
    ]
    .iter()
    .filter_map(|s| stages.get(s))
    .map(|h| h.sum())
    .sum();
    if step_total > 0 {
        let coverage = staged as f64 / step_total as f64;
        println!(
            "stage spans cover {:.1}% of session.step wall time",
            coverage * 100.0
        );
        assert!(
            coverage >= 0.95,
            "stage spans cover only {:.1}% of step wall time",
            coverage * 100.0
        );
    }
    // Batched decode sanity: both sequences advanced and its spans recorded.
    assert_eq!(batched.sequences.len(), 2);
    assert!(
        stages.get("batch.step").is_some(),
        "batch spans missing from capture"
    );
    println!("\ntrace_decode: OK");
}
