//! Schema validation of the exporters against a *real* captured decode —
//! the same capture path CI's `trace_decode` example exercises, but asserted
//! in-process: the Chrome trace must be valid JSON with non-negative
//! durations, properly nested B/E pairs per track and a labelled track per
//! recording thread, and the capture must contain every stage the decode
//! hot path is instrumented with.
//!
//! One `#[test]` only: the recorder is process-global, and a sibling test
//! toggling it concurrently would corrupt the capture.

use lad::accel::paged::{BlockPool, BLOCK_TOKENS};
use lad::core::decoder::LadConfig;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::spec::SpecConfig;
use lad::model::transformer::{argmax, Model, Session};
use lad::obs::export::{chrome_trace, validate_chrome_trace};
use lad::obs::json::{self, Value};
use lad::obs::StageBreakdown;
use lad::serve::{Engine, Request, ServeConfig};

fn prompt(salt: u32) -> Vec<u32> {
    (0..12u32).map(|i| (i * 29 + salt * 7 + 1) % 256).collect()
}

/// Stages the single-sequence LAD decode records on the main thread, plus
/// the serving engine's and the batched executor's stages — every span name
/// the serving ledger's share table reads.
const EXPECTED_STAGES: &[&str] = &[
    "session.step",
    "layer.qkv_proj",
    "layer.attn",
    "layer.out_proj",
    "layer.mlp",
    "session.logits",
    "lad.identify",
    "lad.mode_eval",
    "lad.correct",
    "lad.window",
    "lad.mode_update",
    "batch.step",
    "batch.qkv_gemm",
    "batch.attn_fanout",
    "batch.out_gemm",
    "batch.mlp_gemm",
    "batch.logits_gemm",
    "batch.rollback",
    "kernel.kv_read_f32",
    "serve.tick",
    "serve.decode_step",
    "serve.prefill_chunk",
    "spec.verify",
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
    // Two requests served through one engine whose batch fans the second
    // request's attention out to a scoped thread in every layer; the second
    // speculates, so verify rounds and rollbacks occur.
    let model_cfg = model.config();
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * BLOCK_TOKENS;
    let pool = BlockPool::new(model_cfg, 2 * BlockPool::blocks_for(12 + 6) * block_bytes);
    let cfg = ServeConfig {
        prefill_chunk: 1,
        parallelism: 2,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&model, &kind, pool, cfg);
    engine.submit(Request::new(1, prompt(1), 6));
    engine.submit(Request::new(2, prompt(2), 6).with_speculation(SpecConfig::recency(4)));
    let served = engine.run();
    lad::obs::set_enabled(false);
    let threads = lad::obs::drain();
    assert_eq!(served.total_tokens(), 2 * 6);
    // Every step's fan-out thread is joined before the next one starts, so
    // each continues the ring of the one before: the test thread plus one
    // `lad-fanout-1` track, which carries the second request's attention.
    assert_eq!(
        threads.len(),
        2,
        "expected the test thread and one fan-out track, got {:?}",
        threads.iter().map(|t| &t.label).collect::<Vec<_>>()
    );
    let fanout = threads
        .iter()
        .find(|t| t.label == "lad-fanout-1")
        .expect("a lad-fanout-1 track");
    for stage in ["lad.identify", "kernel.kv_read_f32"] {
        assert!(
            fanout.events.iter().any(|e| e.name == stage),
            "no '{stage}' span on the fan-out track"
        );
    }

    // The library validator accepts its own output...
    let trace = chrome_trace(&threads);
    validate_chrome_trace(&trace).expect("captured Chrome trace must validate");

    // ...and this test re-checks the Chrome trace independently, so a bug
    // pairing a lax emitter with an equally lax validator cannot hide: every
    // record is a JSON object carrying name/ph/pid/tid, every `E` closes the
    // matching `B` on its own track with a non-negative duration, and every
    // recording thread got a `thread_name` metadata record with a non-empty
    // label.
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
                let label = ev.get("args").and_then(|a| a.get("name"));
                assert!(
                    label.and_then(Value::as_str).is_some_and(|l| !l.is_empty()),
                    "track {tid} has an empty thread label"
                );
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
