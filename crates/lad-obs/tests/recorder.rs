//! End-to-end recorder test: spans recorded on several threads drain into
//! per-thread streams that export to a valid Chrome trace and a populated
//! stage breakdown.
//!
//! This lives in its own integration-test binary because the recorder's
//! enable flag and thread registry are process-global; sharing a process
//! with other recorder tests would race on them.

use lad_obs::export::{chrome_trace, validate_chrome_trace};
use lad_obs::{EventKind, StageBreakdown};

#[test]
fn recorder_end_to_end() {
    // Disabled (the default): spans are free no-ops and nothing registers.
    {
        let _s = lad_obs::span("never.recorded");
        lad_obs::instant("never.recorded");
    }
    assert!(
        lad_obs::drain().is_empty(),
        "disabled recorder must buffer nothing"
    );

    lad_obs::set_enabled(true);
    assert!(lad_obs::enabled());
    {
        let _step = lad_obs::span("test.step");
        for _ in 0..3 {
            let _inner = lad_obs::span("test.inner");
            lad_obs::instant("test.marker");
        }
    }
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("obs-worker-{i}"))
                .spawn(|| {
                    let _w = lad_obs::span("test.worker");
                    lad_obs::instant("test.worker-mark");
                })
                .unwrap()
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    lad_obs::set_enabled(false);

    // Disabled again: recording stops even though rings stay registered.
    lad_obs::instant("after.disable");

    let threads = lad_obs::drain();
    assert_eq!(threads.len(), 3, "main + two workers should have recorded");
    let main = &threads[0];
    assert_eq!(main.dropped, 0);
    assert_eq!(
        main.events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .count(),
        main.events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .count(),
    );
    assert!(threads.iter().any(|t| t.label.starts_with("obs-worker-")));
    assert!(!threads
        .iter()
        .any(|t| t.events.iter().any(|e| e.name == "after.disable")));

    // The exporter emits a document its validator accepts, with one
    // labelled track per recording thread.
    let trace = chrome_trace(&threads);
    validate_chrome_trace(&trace).expect("chrome trace must validate");
    assert!(trace.contains("test.step"));
    assert_eq!(trace.matches("\"thread_name\"").count(), 3);
    assert!(trace.contains("obs-worker-0") && trace.contains("obs-worker-1"));

    // The breakdown sees every span with real durations.
    let bd = StageBreakdown::from_events(&threads);
    assert_eq!(bd.get("test.step").unwrap().count(), 1);
    assert_eq!(bd.get("test.inner").unwrap().count(), 3);
    assert_eq!(bd.get("test.worker").unwrap().count(), 2);
    assert!(bd.get("test.step").unwrap().sum() >= bd.get("test.inner").unwrap().sum());
    let table = bd.render();
    assert!(table.contains("test.step") && table.contains("p99"));

    // A second drain finds the rings empty.
    assert!(lad_obs::drain().is_empty());
}
