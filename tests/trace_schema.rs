//! Schema validation of the exporters against a *real* captured decode —
//! the same capture path CI's `trace_decode` example exercises, but asserted
//! in-process: the Chrome trace must be valid JSON with non-negative
//! durations and properly nested B/E pairs per track, the JSONL stream must
//! match its line schema, and the capture must contain every stage the
//! decode hot path is instrumented with.
//!
//! One `#[test]` only: the recorder is process-global, and a sibling test
//! toggling it concurrently would corrupt the capture.

use lad::core::decoder::LadConfig;
use lad::core::pool::WorkerPool;
use lad::model::backend::AttentionKind;
use lad::model::batch::decode_batch_gemm;
use lad::model::config::ModelConfig;
use lad::model::transformer::{argmax, Model, Session};
use lad::obs::export::{chrome_trace, jsonl, validate_chrome_trace, validate_jsonl};
use lad::obs::json::{self, Value};
use lad::obs::StageBreakdown;

fn prompt(salt: u32) -> Vec<u32> {
    (0..12u32).map(|i| (i * 29 + salt * 7 + 1) % 256).collect()
}

/// Stages the single-sequence LAD decode records on the main thread, plus
/// the batched engine's `batch.*` stages and the pool's task span.
const EXPECTED_STAGES: &[&str] = &[
    "session.step",
    "layer.qkv_proj",
    "layer.attn",
    "layer.out_proj",
    "layer.mlp",
    "session.logits",
    "lad.identify",
    "lad.mode_eval",
    "lad.window",
    "lad.mode_update",
    "batch.step",
    "batch.qkv_gemm",
    "batch.attn_fanout",
    "batch.out_gemm",
    "batch.mlp_gemm",
    "batch.logits_gemm",
    "pool.task",
];

#[test]
fn captured_decode_trace_matches_export_schemas() {
    let model = Model::random(ModelConfig::tiny("schema", 2, 64, 2), 5);
    let kind = AttentionKind::Lad(LadConfig::default());

    lad::obs::set_enabled(true);
    let mut session = Session::new(&model, &kind);
    let mut logits = session.prefill(&prompt(0));
    for _ in 0..12 {
        logits = session.step(argmax(&logits));
    }
    let batched = decode_batch_gemm(&model, &kind, &[prompt(1), prompt(2)], 6, 2);
    lad::obs::set_enabled(false);
    let threads = lad::obs::drain();
    assert_eq!(batched.sequences.len(), 2);
    // The fanned batched decode runs on the global pool, which has no
    // background workers on a single-core host (everything help-runs on
    // the main thread there).
    let expected_tracks = 1 + usize::from(WorkerPool::global().workers() > 0);
    assert!(
        threads.len() >= expected_tracks,
        "expected main + worker tracks, got {}",
        threads.len()
    );

    // The library validators accept their own output...
    let trace = chrome_trace(&threads);
    let lines = jsonl(&threads);
    validate_chrome_trace(&trace).expect("captured Chrome trace must validate");
    validate_jsonl(&lines).expect("captured JSONL must validate");

    // ...and this test re-checks the Chrome trace independently, so a bug
    // pairing a lax emitter with an equally lax validator cannot hide: every
    // record is a JSON object carrying name/ph/pid/tid, every `E` closes the
    // matching `B` on its own track with a non-negative duration, and every
    // recording thread got a `thread_name` metadata record.
    let doc = json::parse(&trace).expect("Chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut named_tracks = std::collections::BTreeSet::new();
    let mut stacks: std::collections::BTreeMap<u64, Vec<(String, f64)>> = Default::default();
    let mut span_count = 0usize;
    for ev in events {
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Value::as_u64).expect("tid");
        assert_eq!(ev.get("pid").and_then(Value::as_u64), Some(1));
        match ph {
            "M" => {
                assert_eq!(name, "thread_name");
                named_tracks.insert(tid);
            }
            "B" | "E" | "i" => {
                let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
                assert!(ts >= 0.0, "negative timestamp on '{name}'");
                let stack = stacks.entry(tid).or_default();
                match ph {
                    "B" => stack.push((name.to_owned(), ts)),
                    "E" => {
                        let (open, begin) = stack.pop().expect("E with an open B");
                        assert_eq!(open, name, "E closes the wrong span");
                        assert!(ts >= begin, "negative duration on '{name}'");
                        span_count += 1;
                    }
                    _ => {}
                }
            }
            other => panic!("unexpected phase '{other}'"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "track {tid} left a span open");
        assert!(named_tracks.contains(tid), "track {tid} has no thread_name");
    }
    assert!(span_count > 0, "trace contains no completed spans");

    // JSONL: every line parses on its own and carries the full schema.
    for line in lines.lines() {
        let v = json::parse(line).expect("JSONL line is valid JSON");
        v.get("tid").and_then(Value::as_u64).expect("tid");
        let thread = v.get("thread").and_then(Value::as_str).expect("thread");
        assert!(!thread.is_empty());
        let name = v.get("name").and_then(Value::as_str).expect("name");
        assert!(!name.is_empty());
        let kind = v.get("kind").and_then(Value::as_str).expect("kind");
        assert!(matches!(kind, "B" | "E" | "I"), "bad kind '{kind}'");
        v.get("t_ns").and_then(Value::as_u64).expect("t_ns");
    }

    // The capture covers the full instrumented surface, and the per-stage
    // histograms built from it report ordered quantiles.
    let stages = StageBreakdown::from_events(&threads);
    for stage in EXPECTED_STAGES {
        assert!(
            stages.get(stage).is_some(),
            "stage '{stage}' missing from the captured decode"
        );
    }
    let step = stages.get("session.step").expect("checked above");
    assert!(step.count() >= 12, "fewer step spans than decode steps");
    assert!(step.p50() <= step.p95() && step.p95() <= step.p99());
}
