//! Capture a serving run end to end: spans, per-request timelines, live
//! metrics and the SLO flight recorder, all from one continuous-batching
//! workload.
//!
//! ```sh
//! cargo run --release --example serve_trace
//! ```
//!
//! Outputs land in `target/`:
//! * `target/serve_trace.trace.json` — Perfetto/Chrome trace of the run.
//! * `target/serve_trace.jsonl` — flat span/instant event stream.
//! * `target/serve_trace.timeline.jsonl` — one request-lifecycle event per
//!   line (admit → prefill/decode → retire), validated as complete chains.
//! * `target/serve_trace.prom` — Prometheus text exposition of every
//!   registered metric at the end of the run.
//! * `target/serve_trace.incidents.json` — flight-recorder captures (the
//!   workload includes an unmeetable deadline, so at least one is
//!   guaranteed).
//!
//! Before exiting, the example asserts the observability invariants CI
//! relies on: every artifact re-validates, the `serve.*` phase spans cover
//! at least 95% of `serve.tick` wall time, every request's timeline chains
//! admit→…→retire, and the flight recorder caught the deadline miss.

use lad::accel::paged::BlockPool;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::transformer::Model;
use lad::obs::export::{chrome_trace, jsonl, validate_chrome_trace, validate_jsonl};
use lad::obs::metrics::{prometheus_text, snapshot, validate_prometheus};
use lad::obs::timeline::{drain_timeline, timeline_jsonl, validate_timeline_jsonl};
use lad::obs::StageBreakdown;
use lad::serve::{incidents_json, Engine, IncidentReason, Request, ServeConfig};
use std::time::Duration;

fn prompt(seed: u64, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 37 + seed * 13) % 256) as u32)
        .collect()
}

fn main() {
    let model = Model::random(ModelConfig::tiny("serve", 2, 32, 2), 71);
    let model_cfg = ModelConfig::tiny("serve", 2, 32, 2);
    let block_bytes = model_cfg.layers * 2 * model_cfg.hidden * 2 * lad::accel::paged::BLOCK_TOKENS;
    let pool = BlockPool::new(&model_cfg, block_bytes * 64);
    let cfg = ServeConfig {
        max_active: 4,
        prefill_chunk: 3,
        parallelism: 2,
        ..ServeConfig::default()
    };

    println!("serve_trace: serving 6 requests with every recorder on\n");
    lad::obs::set_enabled(true);
    lad::obs::metrics::set_metrics_enabled(true);
    lad::obs::timeline::set_timeline_enabled(true);

    let mut engine = Engine::new(&model, &AttentionKind::Exact, pool, cfg);
    // A mixed workload: plain, generous-deadline, speculative, an evicting
    // rolling-window backend (H2O with no heavy hitters), and one request
    // whose zero deadline cannot be met — the guaranteed flight-recorder
    // incident.
    engine.submit(Request::new(0, prompt(0, 9), 12));
    engine.submit(Request::new(1, prompt(1, 6), 10).with_deadline(Duration::from_secs(60)));
    engine.submit(
        Request::new(2, prompt(2, 11), 16)
            .with_speculation(lad::model::spec::SpecConfig::recency(4)),
    );
    engine.submit(
        Request::new(3, prompt(3, 8), 40)
            .with_backend(AttentionKind::h2o_budget(0, 8))
            .arriving_at(2),
    );
    engine.submit(
        Request::new(4, prompt(4, 7), 8)
            .with_deadline(Duration::ZERO)
            .arriving_at(3),
    );
    engine.submit(Request::new(5, prompt(5, 5), 6).arriving_at(12));
    let report = engine.run();

    lad::obs::metrics::set_metrics_enabled(false);
    lad::obs::timeline::set_timeline_enabled(false);
    lad::obs::set_enabled(false);

    // --- Export every artifact, re-validating each like CI does. ---
    let threads = lad::obs::drain();
    let trace = chrome_trace(&threads);
    let lines = jsonl(&threads);
    validate_chrome_trace(&trace).expect("emitted Chrome trace must validate");
    validate_jsonl(&lines).expect("emitted JSONL must validate");

    let (events, dropped) = drain_timeline();
    let timeline_lines = timeline_jsonl(&events);
    let chains = validate_timeline_jsonl(&timeline_lines).expect("timeline chains must validate");

    let snap = snapshot();
    let prom = prometheus_text(&snap);
    validate_prometheus(&prom).expect("Prometheus exposition must validate");

    let incidents = incidents_json(&report.incidents);

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&out_dir).expect("create target/");
    for (name, data) in [
        ("serve_trace.trace.json", &trace),
        ("serve_trace.jsonl", &lines),
        ("serve_trace.timeline.jsonl", &timeline_lines),
        ("serve_trace.prom", &prom),
        ("serve_trace.incidents.json", &incidents),
    ] {
        let path = out_dir.join(name);
        std::fs::write(&path, data).expect("write artifact");
        println!("wrote {}", path.display());
    }

    // --- Serving sanity. ---
    assert_eq!(report.outcomes.len(), 6, "every request must retire");

    // --- Span coverage: the serve.* phase spans must account for >= 95%
    // of serve.tick wall time (work hiding outside named phases would make
    // the trace lie about where serving time goes). ---
    let stages = StageBreakdown::from_events(&threads);
    let tick_total = stages.get("serve.tick").map_or(0, |h| h.sum());
    assert!(tick_total > 0, "serve.tick spans missing from capture");
    let phases: u64 = [
        "serve.reserve",
        "serve.admit",
        "serve.decode_step",
        "serve.prefill_chunk",
        "serve.reclaim",
        "serve.idle",
    ]
    .iter()
    .filter_map(|s| stages.get(s))
    .map(|h| h.sum())
    .sum();
    let coverage = phases as f64 / tick_total as f64;
    println!(
        "\nserve.* phase spans cover {:.1}% of serve.tick wall time",
        coverage * 100.0
    );
    assert!(
        coverage >= 0.95,
        "phase spans cover only {:.1}% of serve.tick wall time",
        coverage * 100.0
    );

    // --- Timeline chains: every request admits, works and retires. ---
    assert_eq!(dropped, 0, "timeline ring must not overflow this workload");
    assert_eq!(chains.len(), 6, "one chain per request");
    for (req, chain) in &chains {
        assert!(chain.retired, "request {req} never retired in the timeline");
        assert!(chain.admits >= 1, "request {req} has no admit event");
    }
    println!("validated {} complete request timelines", chains.len());

    // --- Flight recorder: the zero-deadline request must have tripped it,
    // with its own recent timeline attached. ---
    assert!(
        report
            .incidents
            .iter()
            .any(|i| i.request == 4 && i.reason == IncidentReason::DeadlineMiss),
        "flight recorder missed the unmeetable deadline"
    );
    for inc in &report.incidents {
        assert!(
            inc.events.iter().all(|e| e.request == inc.request),
            "incident events must belong to the offending request"
        );
        assert!(!inc.events.is_empty(), "incident without timeline context");
        assert!(
            inc.metrics.get("serve.admissions").is_some(),
            "incident metrics snapshot is missing engine counters"
        );
    }
    println!(
        "flight recorder captured {} incident(s)",
        report.incidents.len()
    );

    // --- Exposition content: the gauges and counters the run must have
    // touched all appear in the Prometheus text. ---
    for name in [
        "serve_admissions",
        "serve_retired",
        "serve_tokens",
        "serve_bytes_moved_exact",
        "serve_bytes_moved_h2o",
        "kv_blocks_total",
        "kv_blocks_used",
        "pool_park_nanos",
        "pool_tasks_stolen",
        "obs_dropped_events",
        "timeline_dropped_events",
    ] {
        assert!(
            prom.contains(name),
            "Prometheus exposition is missing `{name}`"
        );
    }
    assert_eq!(
        snap.counter("serve.tokens"),
        report.total_tokens() as u64,
        "token counter drifted"
    );

    println!("\nserve_trace: OK");
}
