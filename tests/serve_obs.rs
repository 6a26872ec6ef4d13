//! Observability of the serving engine: per-request timelines, the SLO
//! flight recorder, and the metrics registry's cross-subsystem exposition.
//!
//! The recorders are process-global (one enable flag, one timeline ring,
//! one registry), so every test serializes on `LOCK` and drains the
//! timeline ring before and after its workload; metric assertions are
//! deltas, never absolutes, because counters accumulate across tests.
//!
//! Interpreting a failure: a broken **chain** (`validate_chains` error)
//! means the engine emitted lifecycle events out of order — e.g. a decode
//! tick after retirement, or a re-admission without a preemption; a missing
//! **snapshot entry** means an instrumented subsystem stopped registering
//! its metrics (the handle resolution moved or the weave was dropped).

use lad::accel::paged::BlockPool;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::transformer::Model;
use lad::obs::json::{self, Value};
use lad::obs::metrics;
use lad::obs::timeline::{self, TimelineKind};
use lad::serve::{incidents_json, Engine, IncidentReason, Request, ServeConfig, ServeReport};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests: the recorders are process-global. Recovered on poison
/// so one failing test does not cascade.
static LOCK: Mutex<()> = Mutex::new(());

fn model_cfg() -> ModelConfig {
    ModelConfig::tiny("serve-obs", 2, 32, 2)
}

fn tiny_model() -> Model {
    Model::random(model_cfg(), 71)
}

/// Blocks→bytes for the tiny model above.
fn budget(blocks: usize) -> usize {
    let cfg = model_cfg();
    cfg.layers * 2 * cfg.hidden * 2 * lad::accel::paged::BLOCK_TOKENS * blocks
}

fn prompt(seed: u64, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 37 + seed * 13) % 256) as u32)
        .collect()
}

/// Runs `requests` through a fresh engine with every recorder on and
/// returns (report, drained timeline events).
fn serve_recorded(
    kind: &AttentionKind,
    pool_blocks: usize,
    cfg: ServeConfig,
    requests: Vec<Request>,
) -> (ServeReport, Vec<timeline::TimelineEvent>) {
    let model = tiny_model();
    let pool = BlockPool::new(&model_cfg(), budget(pool_blocks));
    let mut engine = Engine::new(&model, kind, pool, cfg);
    for req in requests {
        engine.submit(req);
    }
    timeline::drain_timeline(); // clear residue from earlier tests
    metrics::set_metrics_enabled(true);
    timeline::set_timeline_enabled(true);
    let report = engine.run();
    metrics::set_metrics_enabled(false);
    timeline::set_timeline_enabled(false);
    let (events, _) = timeline::drain_timeline();
    (report, events)
}

#[test]
fn forced_preemption_timeline_chains_through_readmission() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The three-block squeeze from the engine's preemption test: two
    // requests whose peaks cannot coexist, so the youngest is evicted and
    // replays.
    let cfg = ServeConfig {
        max_active: 2,
        prefill_chunk: 1,
        ..ServeConfig::default()
    };
    let requests = vec![
        Request::new(0, prompt(0, 8), 24),
        Request::new(1, prompt(1, 8), 24),
    ];
    let (report, events) = serve_recorded(&AttentionKind::Exact, 3, cfg, requests);

    assert!(report.preemptions >= 1, "squeeze must force a preemption");
    let chains = timeline::validate_chains(&events).expect("chains must validate");
    assert_eq!(chains.len(), 2);
    // Timeline preemption accounting must agree with the report exactly,
    // and every preempted request must show the re-admission leg.
    let chain_preemptions: usize = chains.values().map(|c| c.preemptions).sum();
    assert_eq!(chain_preemptions, report.preemptions);
    for (req, chain) in &chains {
        assert!(chain.retired, "request {req} never retired");
        assert_eq!(
            chain.admits,
            chain.preemptions + 1,
            "request {req}: each preemption must be followed by a re-admission"
        );
    }
}

#[test]
fn one_tick_is_one_step_and_prefill_chunks_cover_each_prompt() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The three-block squeeze at `prefill_chunk: 4` (prompts fed as 4-row
    // runs, a folded prompt replayed after preemption), a speculative
    // request, and a late arrival that leaves idle ticks in between.
    let cfg = ServeConfig {
        max_active: 2,
        prefill_chunk: 4,
        ..ServeConfig::default()
    };
    let requests = vec![
        Request::new(0, prompt(0, 8), 24),
        Request::new(1, prompt(1, 8), 24)
            .with_speculation(lad::model::spec::SpecConfig::recency(4)),
        Request::new(2, prompt(2, 10), 6).arriving_at(80),
    ];
    lad::obs::drain();
    lad::obs::set_enabled(true);
    let (report, events) = serve_recorded(&AttentionKind::Exact, 3, cfg, requests);
    lad::obs::set_enabled(false);
    let threads = lad::obs::drain();

    assert!(report.preemptions >= 1, "squeeze must force a preemption");
    assert!(
        report.idle_steps >= 1,
        "the late arrival must leave idle ticks"
    );
    let begun = |name: &str| -> usize {
        threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == lad::obs::EventKind::Begin && e.name == name)
            .count()
    };
    assert_eq!(begun("serve.tick"), report.steps);
    assert_eq!(begun("serve.idle"), report.idle_steps);
    assert_eq!(
        begun("batch.step"),
        report.steps - report.idle_steps,
        "every non-idle tick must be exactly one batch step"
    );
    assert_eq!(
        begun("serve.decode_step") + begun("serve.prefill_chunk"),
        report.steps - report.idle_steps
    );

    // Per incarnation (an Admit opens one, carrying its prompt length), the
    // PrefillChunk values sum to that prompt once it starts decoding, and
    // never exceed it (a victim may be preempted mid-prompt).
    timeline::validate_chains(&events).expect("chains must validate");
    // request -> (prompt tokens, prompt tokens fed, decoded) per incarnation
    let mut incarnations: std::collections::BTreeMap<u64, Vec<(u64, u64, bool)>> =
        Default::default();
    for e in &events {
        let list = incarnations.entry(e.request).or_default();
        match e.kind {
            TimelineKind::Admit => list.push((e.value, 0, false)),
            TimelineKind::PrefillChunk => list.last_mut().expect("admitted").1 += e.value,
            TimelineKind::DecodeTick => list.last_mut().expect("admitted").2 = true,
            _ => {}
        }
    }
    assert_eq!(incarnations.len(), 3);
    let readmitted = incarnations.values().filter(|l| l.len() > 1).count();
    assert!(readmitted >= 1, "a preempted request must be re-admitted");
    for (req, list) in &incarnations {
        for &(prompt_len, fed, decoded) in list {
            assert!(fed <= prompt_len, "request {req} fed past its prompt");
            if decoded {
                assert_eq!(
                    fed, prompt_len,
                    "request {req} decoded before its prompt ended"
                );
            }
        }
        assert!(list.last().unwrap().2, "request {req} never decoded");
    }
}

#[test]
fn eviction_reclaim_events_cover_the_rolling_window_leg() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A zero-heavy H2O budget rolls an 8-position live window over 80+
    // tokens, so older blocks go fully dead and are reclaimed mid-flight.
    let kind = AttentionKind::h2o_budget(0, 8);
    let cfg = ServeConfig {
        max_active: 2,
        prefill_chunk: 4,
        ..ServeConfig::default()
    };
    let requests = vec![
        Request::new(0, prompt(0, 8), 80).with_backend(kind.clone()),
        Request::new(1, prompt(1, 8), 80).with_backend(kind.clone()),
    ];
    let reclaimed_before = metrics::counter("kv.blocks_reclaimed").value();
    let (report, events) = serve_recorded(&AttentionKind::Exact, 9, cfg, requests);

    assert_eq!(report.preemptions, 0, "reclaim must absorb the overhang");
    timeline::validate_chains(&events).expect("chains must validate");
    let reclaim_events: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TimelineKind::EvictionReclaim)
        .collect();
    assert!(
        !reclaim_events.is_empty(),
        "rolling-window eviction produced no reclaim events"
    );
    assert!(reclaim_events.iter().all(|e| e.value > 0));
    // The timeline's reclaimed-block total matches the pool's counter.
    let reclaimed: u64 = reclaim_events.iter().map(|e| e.value).sum();
    let pool_reclaimed = metrics::counter("kv.blocks_reclaimed").value() - reclaimed_before;
    assert_eq!(
        reclaimed, pool_reclaimed,
        "timeline and pool counter drifted"
    );
}

#[test]
fn deadline_miss_trips_the_flight_recorder() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServeConfig::default();
    let requests = vec![
        Request::new(0, prompt(0, 6), 8),
        Request::new(1, prompt(1, 6), 8).with_deadline(Duration::ZERO),
    ];
    let (report, _) = serve_recorded(&AttentionKind::Exact, 64, cfg, requests);

    let incident = report
        .incidents
        .iter()
        .find(|i| i.request == 1)
        .expect("zero deadline must trip the flight recorder");
    assert_eq!(incident.reason, IncidentReason::DeadlineMiss);
    // The capture carries the request's own recent timeline (admit through
    // retire) and a full metrics snapshot taken at the violation.
    assert!(!incident.events.is_empty());
    assert!(incident.events.iter().all(|e| e.request == 1));
    assert!(incident
        .events
        .iter()
        .any(|e| e.kind == TimelineKind::Retire));
    assert!(incident.metrics.get("serve.retired").is_some());
    assert!(incident.metrics.get("kv.blocks_total").is_some());
    // The JSON export round-trips through the repo's own parser.
    let json = incidents_json(&report.incidents);
    let doc = lad::obs::json::parse(&json).expect("incidents JSON must parse");
    let list = doc
        .get("incidents")
        .and_then(|v| v.as_array())
        .expect("incidents array");
    assert_eq!(list.len(), report.incidents.len());
    assert_eq!(
        list[0].get("reason").and_then(|v| v.as_str()),
        Some("deadline_miss")
    );
}

#[test]
fn preemption_storm_trips_the_flight_recorder_once() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // With the ceiling at 0, the very first preemption is a storm; the
    // squeeze preempts repeatedly but the incident fires exactly once per
    // request crossing.
    let cfg = ServeConfig {
        max_active: 2,
        prefill_chunk: 1,
        incident_max_preemptions: 0,
        ..ServeConfig::default()
    };
    let requests = vec![
        Request::new(0, prompt(0, 8), 24),
        Request::new(1, prompt(1, 8), 24),
    ];
    let (report, _) = serve_recorded(&AttentionKind::Exact, 3, cfg, requests);

    assert!(report.preemptions >= 1);
    let storms: Vec<_> = report
        .incidents
        .iter()
        .filter(|i| i.reason == IncidentReason::PreemptionStorm)
        .collect();
    assert!(!storms.is_empty(), "storm threshold 0 must capture");
    for inc in &storms {
        assert_eq!(inc.preemptions, 1, "storm trips at the first crossing");
    }
    // One capture per request, not one per preemption.
    let mut seen: Vec<u64> = storms.iter().map(|i| i.request).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), storms.len(), "a storm must capture only once");
}

#[test]
fn metrics_json_covers_every_subsystem() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Mixed backends so distinct per-backend traffic counters register, and
    // parallelism 2 so the counters also meter fanned-out attention.
    let cfg = ServeConfig {
        max_active: 3,
        prefill_chunk: 2,
        parallelism: 2,
        ..ServeConfig::default()
    };
    let exact_before = metrics::counter("serve.bytes_moved.exact").value();
    let topk_before = metrics::counter("serve.bytes_moved.topk").value();
    let requests = vec![
        Request::new(0, prompt(0, 8), 12),
        Request::new(1, prompt(1, 8), 12).with_backend(AttentionKind::topk(6)),
        Request::new(2, prompt(2, 8), 12).with_backend(AttentionKind::h2o_budget(12, 4)),
    ];
    let (report, _) = serve_recorded(&AttentionKind::Exact, 64, cfg, requests);
    assert_eq!(report.outcomes.len(), 3);

    let doc = json::parse(&metrics::json_text(&metrics::snapshot()))
        .expect("metrics snapshot must parse");
    let entries = doc
        .get("metrics")
        .and_then(Value::as_array)
        .expect("metrics array");
    let kind_of = |name: &str| {
        entries
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|m| m.get("kind").and_then(Value::as_str))
    };
    // Every instrumented subsystem shows up: engine, paged KV pool,
    // per-backend traffic, and the recorders' own loss counters.
    for (name, kind) in [
        ("serve.admissions", "counter"),
        ("serve.retired", "counter"),
        ("serve.active", "gauge"),
        ("serve.queued", "gauge"),
        ("serve.ttft_ns", "histogram"),
        ("kv.blocks_total", "gauge"),
        ("kv.blocks_free", "gauge"),
        ("kv.blocks_used", "gauge"),
        ("kv.fragmentation_bytes", "gauge"),
        ("serve.bytes_moved.exact", "counter"),
        ("serve.bytes_moved.topk", "counter"),
        ("serve.bytes_moved.h2o", "counter"),
        ("obs.dropped_events", "counter"),
        ("timeline.dropped_events", "counter"),
    ] {
        assert_eq!(kind_of(name), Some(kind), "snapshot entry `{name}`");
    }
    // The traffic counters actually moved for the backends that served.
    assert!(metrics::counter("serve.bytes_moved.exact").value() > exact_before);
    assert!(metrics::counter("serve.bytes_moved.topk").value() > topk_before);
}
