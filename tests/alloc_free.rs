//! Allocation accounting for the observability layer's zero-cost contract.
//!
//! A counting `#[global_allocator]` (per-thread counter, so other threads
//! and the test harness never pollute a measurement) pins two claims from
//! `crates/lad-obs/README.md`:
//!
//! 1. A disabled `span()` / `instant()` call allocates nothing — the record
//!    path is one thread-local read plus one relaxed atomic load.
//! 2. The instrumentation woven through `Session::step` adds zero
//!    allocations to the decode hot path: the steady-state allocation count
//!    of a solo `Session` decode is identical whether the recorder was never
//!    enabled, was enabled and then disabled, or is actively recording
//!    (ring buffers are allocated once per thread on the *first* enabled
//!    record, which the warm-up step absorbs; events are `Copy` writes into
//!    the fixed ring).
//! 3. A LAD prompt row allocates no more than an exact one: LAD answers
//!    prompt rows with the exact read and defers its decode state to the
//!    first decode row, so the row adds only the center book's amortised
//!    growth and a fixed ring of kept queries.
//! 4. The metrics registry and the request timeline honour the same
//!    contract: `Counter::inc`, `Gauge::set`, `MetricHistogram::record` and
//!    `timeline::record` allocate nothing while disabled *and* nothing
//!    while enabled (handles are resolved and the timeline ring warmed
//!    outside the counted region — registration and the one-time ring
//!    reservation are setup, not record-path, costs).
//!
//! One `#[test]` only: the recorders and the allocation counter are
//! process-global, and a sibling test running concurrently could enable a
//! recorder mid-measurement.

// A `GlobalAlloc` impl is unsafe by definition; the package denies
// `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use lad::core::decoder::LadConfig;
use lad::model::backend::AttentionKind;
use lad::model::config::ModelConfig;
use lad::model::transformer::{argmax, Model, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations made by the
/// current thread. `try_with` tolerates the TLS slot being gone during
/// thread teardown (allocations can happen after TLS destructors run).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the number of allocations it made on
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}

const PROMPT_LEN: usize = 8;
const STEPS: usize = 24;

fn prompt() -> Vec<u32> {
    (0..PROMPT_LEN as u32).map(|i| (i * 37 + 3) % 256).collect()
}

/// Greedy-decodes `STEPS` tokens on a fresh solo session and
/// returns the tokens plus the allocation count of the steady-state steps.
/// The prefill and one warm-up step run uncounted: scratch growth, stats
/// capacity, and (when the recorder is enabled) the thread's ring buffer
/// all land there by design.
fn steady_state_decode(model: &Model, kind: &AttentionKind) -> (Vec<u32>, u64) {
    let mut session = Session::new(model, kind);
    let mut logits = session.prefill(&prompt());
    let mut tokens = Vec::with_capacity(STEPS);
    let next = argmax(&logits);
    tokens.push(next);
    logits = session.step(next);
    let (tokens, steady_allocs) = counted(move || {
        for _ in 1..STEPS {
            let next = argmax(&logits);
            tokens.push(next);
            logits = session.step(next);
        }
        tokens
    });
    (tokens, steady_allocs)
}

/// Allocation count of prompt rows 40..60 of a 60-token prompt fed to a
/// fresh solo session (rows 0..40 run uncounted). Every arena, counter and
/// center vector grows by doubling, and no length crosses a power of two
/// in that stretch, so the count is the rows' own per-row allocations.
fn prompt_row_allocs(model: &Model, kind: &AttentionKind) -> u64 {
    let prompt: Vec<u32> = (0..60u32).map(|i| (i * 53 + 11) % 256).collect();
    let mut session = Session::new(model, kind);
    session.prefill(&prompt[..40]);
    let (_, allocs) = counted(|| session.prefill(&prompt[40..]));
    allocs
}

#[test]
fn recorder_adds_zero_allocations() {
    // --- Claim 1: the disabled record path never allocates. ---
    lad::obs::set_enabled(false);
    // Warm the thread-local shard index outside the counted region.
    lad::obs::instant("alloc.warmup");
    drop(lad::obs::span("alloc.warmup"));
    let ((), span_allocs) = counted(|| {
        for _ in 0..16_384 {
            let _guard = lad::obs::span("alloc.probe");
            lad::obs::instant("alloc.probe");
        }
    });
    assert_eq!(
        span_allocs, 0,
        "disabled span()/instant() calls allocated {span_allocs} times"
    );

    // --- Claim 2: instrumentation adds nothing to the decode hot path. ---
    let model = Model::random(ModelConfig::tiny("alloc", 2, 64, 2), 3);
    let kind = AttentionKind::Lad(LadConfig::default());

    // Baseline: recorder never enabled in this process so far.
    let (base_tokens, base_allocs) = steady_state_decode(&model, &kind);
    assert!(
        base_allocs <= 205,
        "LAD steady-state decode allocates {base_allocs} times (at most 205)"
    );

    // --- Claim 3: a LAD prompt row allocates no more than an exact one. ---
    let lad_prompt = prompt_row_allocs(&model, &kind);
    let exact_prompt = prompt_row_allocs(&model, &AttentionKind::Exact);
    assert!(
        lad_prompt <= exact_prompt,
        "LAD prompt rows allocated {lad_prompt} times, exact ones {exact_prompt}"
    );

    // Enabled-then-disabled: the state every production process that ever
    // captured a trace sits in. Must be indistinguishable from the baseline.
    lad::obs::set_enabled(true);
    drop(lad::obs::span("alloc.ring_warmup"));
    lad::obs::set_enabled(false);
    let _ = lad::obs::drain();
    let (toggled_tokens, toggled_allocs) = steady_state_decode(&model, &kind);
    assert_eq!(
        base_tokens, toggled_tokens,
        "recorder toggle changed tokens"
    );
    assert_eq!(
        base_allocs, toggled_allocs,
        "enabled-then-disabled recorder changed the steady-state allocation \
         count ({base_allocs} -> {toggled_allocs})"
    );

    // Actively recording: the ring is preallocated (warm-up step), so even
    // with every span live the decode must allocate exactly as often as the
    // uninstrumented baseline.
    lad::obs::set_enabled(true);
    let (on_tokens, on_allocs) = steady_state_decode(&model, &kind);
    lad::obs::set_enabled(false);
    let drained = lad::obs::drain();
    assert_eq!(base_tokens, on_tokens, "enabled recorder changed tokens");
    assert_eq!(
        base_allocs, on_allocs,
        "enabled recorder allocated on the record path \
         ({base_allocs} -> {on_allocs})"
    );
    assert!(
        drained.iter().any(|t| !t.events.is_empty()),
        "enabled decode recorded no events"
    );

    // --- Claim 4: metric and timeline record paths are allocation-free in
    // both states. Handles resolve once up front (registration locks and
    // may grow the registry — a setup cost, like building a session).
    let counter = lad::obs::metrics::counter("alloc.probe_counter");
    let gauge = lad::obs::metrics::gauge("alloc.probe_gauge");
    let hist = lad::obs::metrics::histogram("alloc.probe_hist");

    lad::obs::metrics::set_metrics_enabled(false);
    lad::obs::timeline::set_timeline_enabled(false);
    let ((), off_allocs) = counted(|| {
        for i in 0..16_384u64 {
            counter.inc(1);
            gauge.set(i as i64);
            hist.record(i);
            lad::obs::timeline::record(7, lad::obs::timeline::TimelineKind::DecodeTick, i, 1);
        }
    });
    assert_eq!(
        off_allocs, 0,
        "disabled metric/timeline records allocated {off_allocs} times"
    );

    // Enabled: warm the timeline ring (its one-time lazy reservation) and
    // then demand a clean record path.
    lad::obs::metrics::set_metrics_enabled(true);
    lad::obs::timeline::set_timeline_enabled(true);
    lad::obs::timeline::record(7, lad::obs::timeline::TimelineKind::Admit, 0, 0);
    let ((), on_metric_allocs) = counted(|| {
        for i in 0..16_384u64 {
            counter.inc(1);
            gauge.set(i as i64);
            hist.record(i);
            lad::obs::timeline::record(7, lad::obs::timeline::TimelineKind::DecodeTick, i, 1);
        }
    });
    lad::obs::metrics::set_metrics_enabled(false);
    lad::obs::timeline::set_timeline_enabled(false);
    let (events, _) = lad::obs::timeline::drain_timeline();
    assert_eq!(
        on_metric_allocs, 0,
        "enabled metric/timeline records allocated {on_metric_allocs} times"
    );
    // Only the enabled loop's increments landed (the disabled loop is a
    // no-op by claim 1 of the registry contract).
    assert_eq!(counter.value(), 16_384, "counter lost increments");
    assert!(!events.is_empty(), "enabled timeline recorded no events");

    // --- Histogram quantiles honour the power-of-two error bound even
    // through the registry handle: estimate in [true, 2*true). The counted
    // loop recorded 0..16384 uniformly, so spot-check interior quantiles
    // (the uniform stream's true q-quantile is ~q*16384).
    let snap = hist.snapshot();
    for q in [0.25f64, 0.5, 0.9, 0.99] {
        let truth = (q * 16_384.0).ceil() as u64;
        let est = snap.quantile(q);
        assert!(
            est >= truth.saturating_sub(1) && est < 2 * truth.max(1),
            "q={q}: registry histogram estimate {est} outside [{truth}, {})",
            2 * truth.max(1)
        );
    }
}
