//! Capture a decode timeline: run a short LAD decode with the recorder on,
//! then serve two requests through a batched `Engine`, export a
//! Perfetto-loadable Chrome trace, and print the per-stage latency table.
//!
//! ```sh
//! cargo run --release --example trace_decode
//! ```
//!
//! The trace lands in `target/trace_decode.trace.json`: open it at
//! <https://ui.perfetto.dev> (or `chrome://tracing`); exactly two tracks:
//! `main` and `lad-fanout-1`, the scoped thread that steps the second request's
//! attention in every layer of the parallelism-2 serve (each step's thread
//! continues the track of the one before). It is validated before the
//! example exits, and CI runs it.

use lad::accel::paged::{BlockPool, BLOCK_TOKENS};
use lad::core::decoder::LadConfig;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::transformer::{Model, Session};
use lad::obs::export::{chrome_trace, validate_chrome_trace};
use lad::obs::StageBreakdown;
use lad::serve::{Engine, Request, ServeConfig};

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

    println!("trace_decode: recording a {STEPS}-step LAD decode (+ a short batched serve)\n");
    lad::obs::set_enabled(true);

    // Single-sequence decode: the sequential reference forward.
    let mut session = Session::new(&model, &kind);
    let mut logits = session.prefill(&prompt(0));
    for _ in 0..STEPS {
        let next = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            .expect("non-empty logits");
        logits = session.step(next);
    }

    // Two requests served through one engine whose step-synchronous batch
    // fans attention out to a second thread, so the batch.* spans and the
    // fanned-out attention show up on the same timeline.
    let model_cfg = model.config();
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let blocks = 2 * BlockPool::blocks_for(PROMPT_LEN + 8);
    let cfg = ServeConfig {
        prefill_chunk: 1,
        parallelism: 2,
        ..ServeConfig::default()
    };
    let pool = BlockPool::new(model_cfg, blocks * block_bytes);
    let mut engine = Engine::new(&model, &kind, pool, cfg);
    engine.submit(Request::new(1, prompt(1), 8));
    engine.submit(Request::new(2, prompt(2), 8));
    let served = engine.run();

    lad::obs::set_enabled(false);
    let threads = lad::obs::drain();

    let trace = chrome_trace(&threads);
    validate_chrome_trace(&trace).expect("emitted Chrome trace must validate");
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&out_dir).expect("create target/");
    let trace_path = out_dir.join("trace_decode.trace.json");
    std::fs::write(&trace_path, &trace).expect("write trace");

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
    println!(
        "\nwrote {}  (load it in https://ui.perfetto.dev)\n",
        trace_path.display()
    );

    // Per-stage latency table from the capture.
    let stages = StageBreakdown::from_events(&threads);
    println!("{}", stages.render());

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
    // Batched serve sanity: both requests finished, its spans recorded, and
    // every fan-out thread continued the one `lad-fanout-1` track.
    assert_eq!(served.total_tokens(), 2 * 8);
    let labels: Vec<&str> = threads.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(
        labels,
        ["main", "lad-fanout-1"],
        "one track per thread name"
    );
    assert!(
        stages.get("batch.step").is_some(),
        "batch spans missing from capture"
    );
    println!("\ntrace_decode: OK");
}
