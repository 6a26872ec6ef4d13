//! Request-scoped structured event timeline.
//!
//! Where spans answer *"where did this tick's time go"*, the timeline
//! answers *"what happened to request 17"*: every scheduler action that
//! touches a request — admission, prefill chunk, decode tick, speculative
//! draft/verify/rollback, preemption, eviction reclaim, retirement — is
//! recorded as a `Copy` [`TimelineEvent`] carrying the request id, the
//! engine step and a kind-specific value, into one process-wide
//! overwrite-oldest ring.
//!
//! The recorder follows the span recorder's zero-cost-when-off contract:
//! disabled ([`set_timeline_enabled`], the default) a [`record`] is a
//! single relaxed load of a sharded flag; enabled it is one uncontended
//! mutex push of a 40-byte struct into a preallocated ring (allocation
//! happens once, on the first enabled record). Overflow overwrites the
//! oldest events and counts them ([`total_dropped_events`]).
//!
//! The analysis side reconstructs per-request chains and checks their
//! integrity: [`validate_chains`] walks each request's events through the
//! scheduler's state machine (admit → work → retire, with preemption
//! looping back to a re-admit), [`timeline_jsonl`] /
//! [`validate_timeline_jsonl`] round-trip the events through the flat JSONL
//! format, and [`tail_for`] peeks a request's most recent events for the
//! engine's SLO flight recorder without disturbing the ring.

use crate::json::{self, Value};
use crate::{now_ns, ShardedFlag};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Events the timeline ring holds before overwriting the oldest.
pub const TIMELINE_CAPACITY: usize = 1 << 16;

static TIMELINE_ENABLED: ShardedFlag = ShardedFlag::new();
static TOTAL_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Turns timeline recording on or off, process-wide.
pub fn set_timeline_enabled(on: bool) {
    TIMELINE_ENABLED.set(on);
}

/// Whether timeline recording is currently enabled (this thread's shard
/// view).
#[inline]
pub fn timeline_enabled() -> bool {
    TIMELINE_ENABLED.get()
}

/// Timeline events overwritten by ring overflow since process start
/// (monotonic; the per-drain figure is returned by [`drain_timeline`]).
pub fn total_dropped_events() -> u64 {
    TOTAL_DROPPED.load(Ordering::Relaxed)
}

/// What happened to the request at this point of its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// The request joined the active batch (`value` = prompt tokens of this
    /// incarnation).
    Admit,
    /// A tick's step fed a run of prompt tokens (`value` = tokens).
    PrefillChunk,
    /// A decode tick committed generated tokens (`value` = tokens).
    DecodeTick,
    /// A speculative drafter proposed tokens (`value` = draft length).
    SpecDraft,
    /// A verify round scored drafted rows (`value` = accepted drafts).
    SpecVerify,
    /// Rejected speculative rows were rolled back (`value` = rows dropped).
    SpecRollback,
    /// The request was preempted and re-queued (`value` = cumulative
    /// preemption count).
    Preempt,
    /// Attention evictions returned whole KV blocks (`value` = blocks
    /// freed by this reclaim).
    EvictionReclaim,
    /// The request retired (`value` = total generated tokens).
    Retire,
}

impl TimelineKind {
    /// Stable snake-case code used by the JSONL export.
    pub fn code(self) -> &'static str {
        match self {
            TimelineKind::Admit => "admit",
            TimelineKind::PrefillChunk => "prefill_chunk",
            TimelineKind::DecodeTick => "decode_tick",
            TimelineKind::SpecDraft => "spec_draft",
            TimelineKind::SpecVerify => "spec_verify",
            TimelineKind::SpecRollback => "spec_rollback",
            TimelineKind::Preempt => "preempt",
            TimelineKind::EvictionReclaim => "eviction_reclaim",
            TimelineKind::Retire => "retire",
        }
    }

    /// Parses a [`code`](TimelineKind::code) back to the kind.
    pub fn from_code(code: &str) -> Option<TimelineKind> {
        Some(match code {
            "admit" => TimelineKind::Admit,
            "prefill_chunk" => TimelineKind::PrefillChunk,
            "decode_tick" => TimelineKind::DecodeTick,
            "spec_draft" => TimelineKind::SpecDraft,
            "spec_verify" => TimelineKind::SpecVerify,
            "spec_rollback" => TimelineKind::SpecRollback,
            "preempt" => TimelineKind::Preempt,
            "eviction_reclaim" => TimelineKind::EvictionReclaim,
            "retire" => TimelineKind::Retire,
            _ => return None,
        })
    }
}

/// One request-scoped event. `Copy`, fixed-size, no heap references — the
/// record path moves it into the ring and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Caller-chosen request id (the serving `Request::id` domain).
    pub request: u64,
    /// Lifecycle stage.
    pub kind: TimelineKind,
    /// Monotonic timestamp, nanoseconds since the recorder epoch.
    pub t_ns: u64,
    /// Engine step (tick) the event happened on.
    pub step: u64,
    /// Kind-specific payload (see [`TimelineKind`]).
    pub value: u64,
}

/// Fixed-capacity overwrite-oldest ring. One global instance: the serving
/// engine is the only writer in practice, and a single mutex keeps events
/// totally ordered without a merge step at drain time.
struct TimelineRing {
    buf: Vec<TimelineEvent>,
    start: usize,
    dropped: u64,
}

static RING: Mutex<TimelineRing> = Mutex::new(TimelineRing {
    buf: Vec::new(),
    start: 0,
    dropped: 0,
});

impl TimelineRing {
    fn push(&mut self, ev: TimelineEvent) {
        if self.buf.capacity() == 0 {
            // One-time allocation on the first enabled record; every later
            // push moves into existing storage.
            self.buf.reserve_exact(TIMELINE_CAPACITY);
        }
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.buf.capacity();
            self.dropped += 1;
            TOTAL_DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ordered(&self) -> Vec<TimelineEvent> {
        let mut events = self.buf.clone();
        events.rotate_left(self.start);
        events
    }
}

/// Records one event (no-op while the timeline is disabled).
#[inline]
pub fn record(request: u64, kind: TimelineKind, step: u64, value: u64) {
    if !timeline_enabled() {
        return;
    }
    let ev = TimelineEvent {
        request,
        kind,
        t_ns: now_ns(),
        step,
        value,
    };
    RING.lock().unwrap().push(ev);
}

/// Takes every buffered event in record order plus the number of events
/// lost to overflow since the previous drain, resetting the ring (capacity
/// is kept for the next run).
pub fn drain_timeline() -> (Vec<TimelineEvent>, u64) {
    let mut ring = RING.lock().unwrap();
    let events = ring.ordered();
    let dropped = ring.dropped;
    ring.buf.clear();
    ring.start = 0;
    ring.dropped = 0;
    (events, dropped)
}

/// Peeks the most recent `k` events of `request` without disturbing the
/// ring — the flight recorder's last-K window.
pub fn tail_for(request: u64, k: usize) -> Vec<TimelineEvent> {
    let ring = RING.lock().unwrap();
    let ordered = ring.ordered();
    drop(ring);
    let mut tail: Vec<TimelineEvent> = ordered
        .into_iter()
        .rev()
        .filter(|ev| ev.request == request)
        .take(k)
        .collect();
    tail.reverse();
    tail
}

/// Per-request chain summary produced by [`validate_chains`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainSummary {
    /// Total events observed for the request.
    pub events: usize,
    /// Admissions observed (1 + preemptions for a retired request).
    pub admits: usize,
    /// Preemptions observed.
    pub preemptions: usize,
    /// Whether the chain ended with a [`TimelineKind::Retire`].
    pub retired: bool,
}

/// Walks every request's events (in stream order) through the scheduler
/// lifecycle state machine and returns one [`ChainSummary`] per request.
///
/// The rules, matching the engine's actual transitions:
///
/// * a request's first event must be `admit`; work events (`prefill_chunk`,
///   `decode_tick`, `spec_*`, `eviction_reclaim`) require an open
///   incarnation;
/// * `preempt` closes the incarnation — the next event must be a re-`admit`;
/// * `spec_verify` requires a `spec_draft` in the same incarnation, and
///   `spec_rollback` a preceding `spec_verify`;
/// * `retire` is terminal: nothing may follow it;
/// * timestamps and steps are non-decreasing per request.
///
/// A chain that has not retired yet (request still in flight at drain time)
/// is *not* an error; callers assert `retired` for the requests they know
/// completed. Structural violations return `Err`.
pub fn validate_chains(events: &[TimelineEvent]) -> Result<BTreeMap<u64, ChainSummary>, String> {
    #[derive(Default)]
    struct ChainState {
        summary: ChainSummary,
        admitted: bool,
        drafted: bool,
        verified: bool,
        last_t: u64,
        last_step: u64,
    }
    let mut chains: BTreeMap<u64, ChainState> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let st = chains.entry(ev.request).or_default();
        let err = |msg: String| format!("event {i} (request {}): {msg}", ev.request);
        if st.summary.retired {
            return Err(err(format!("{} after retire", ev.kind.code())));
        }
        if st.summary.events > 0 {
            if ev.t_ns < st.last_t {
                return Err(err(format!(
                    "timestamp went backwards ({} -> {})",
                    st.last_t, ev.t_ns
                )));
            }
            if ev.step < st.last_step {
                return Err(err(format!(
                    "step went backwards ({} -> {})",
                    st.last_step, ev.step
                )));
            }
        }
        st.last_t = ev.t_ns;
        st.last_step = ev.step;
        st.summary.events += 1;
        match ev.kind {
            TimelineKind::Admit => {
                if st.admitted {
                    return Err(err("admit while already admitted".into()));
                }
                st.admitted = true;
                st.summary.admits += 1;
                st.drafted = false;
                st.verified = false;
            }
            TimelineKind::Preempt => {
                if !st.admitted {
                    return Err(err("preempt without admission".into()));
                }
                st.admitted = false;
                st.summary.preemptions += 1;
            }
            TimelineKind::Retire => {
                if !st.admitted {
                    return Err(err("retire without admission".into()));
                }
                st.summary.retired = true;
            }
            TimelineKind::SpecDraft => {
                if !st.admitted {
                    return Err(err("spec_draft without admission".into()));
                }
                st.drafted = true;
            }
            TimelineKind::SpecVerify => {
                if !st.admitted {
                    return Err(err("spec_verify without admission".into()));
                }
                if !st.drafted {
                    return Err(err("spec_verify without a draft this incarnation".into()));
                }
                st.verified = true;
            }
            TimelineKind::SpecRollback => {
                if !st.verified {
                    return Err(err("spec_rollback without a verify".into()));
                }
            }
            TimelineKind::PrefillChunk
            | TimelineKind::DecodeTick
            | TimelineKind::EvictionReclaim => {
                if !st.admitted {
                    return Err(err(format!("{} without admission", ev.kind.code())));
                }
            }
        }
    }
    Ok(chains
        .into_iter()
        .map(|(req, st)| (req, st.summary))
        .collect())
}

/// Renders events as flat JSONL: one object per line with `request`,
/// `kind` (the [`TimelineKind::code`]), `t_ns`, `step` and `value`.
pub fn timeline_jsonl(events: &[TimelineEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = writeln!(
            out,
            "{{\"request\":{},\"kind\":\"{}\",\"t_ns\":{},\"step\":{},\"value\":{}}}",
            ev.request,
            ev.kind.code(),
            ev.t_ns,
            ev.step,
            ev.value
        );
    }
    out
}

/// Parses a [`timeline_jsonl`] stream back into events, checking the
/// per-line schema, then runs [`validate_chains`] over the whole stream.
/// Returns the per-request chain summaries.
pub fn validate_timeline_jsonl(text: &str) -> Result<BTreeMap<u64, ChainSummary>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let v = json::parse(line).map_err(|e| err(&e.to_string()))?;
        let request = v
            .get("request")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing/invalid request"))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(TimelineKind::from_code)
            .ok_or_else(|| err("missing/unknown kind"))?;
        let t_ns = v
            .get("t_ns")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing/invalid t_ns"))?;
        let step = v
            .get("step")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing/invalid step"))?;
        let value = v
            .get("value")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing/invalid value"))?;
        events.push(TimelineEvent {
            request,
            kind,
            t_ns,
            step,
            value,
        });
    }
    if events.is_empty() {
        return Err("no events".into());
    }
    validate_chains(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(request: u64, kind: TimelineKind, t_ns: u64, step: u64, value: u64) -> TimelineEvent {
        TimelineEvent {
            request,
            kind,
            t_ns,
            step,
            value,
        }
    }

    /// A complete two-request stream: request 1 is preempted and re-admitted,
    /// request 2 speculates.
    fn sample_stream() -> Vec<TimelineEvent> {
        use TimelineKind::*;
        vec![
            ev(1, Admit, 10, 0, 8),
            ev(2, Admit, 11, 0, 6),
            ev(1, PrefillChunk, 20, 1, 4),
            ev(2, PrefillChunk, 21, 1, 6),
            ev(1, DecodeTick, 30, 2, 1),
            ev(2, SpecDraft, 31, 2, 3),
            ev(2, SpecVerify, 32, 2, 2),
            ev(2, SpecRollback, 33, 2, 1),
            ev(1, Preempt, 40, 3, 1),
            ev(2, DecodeTick, 41, 3, 1),
            ev(1, Admit, 50, 4, 9),
            ev(1, PrefillChunk, 60, 5, 9),
            ev(2, EvictionReclaim, 61, 5, 1),
            ev(1, DecodeTick, 70, 6, 1),
            ev(2, Retire, 71, 6, 12),
            ev(1, Retire, 80, 7, 10),
        ]
    }

    #[test]
    fn kind_codes_round_trip() {
        use TimelineKind::*;
        for kind in [
            Admit,
            PrefillChunk,
            DecodeTick,
            SpecDraft,
            SpecVerify,
            SpecRollback,
            Preempt,
            EvictionReclaim,
            Retire,
        ] {
            assert_eq!(TimelineKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(TimelineKind::from_code("nonsense"), None);
    }

    #[test]
    fn valid_chains_summarise() {
        let chains = validate_chains(&sample_stream()).unwrap();
        assert_eq!(chains.len(), 2);
        let r1 = &chains[&1];
        assert!(r1.retired);
        assert_eq!(r1.admits, 2);
        assert_eq!(r1.preemptions, 1);
        let r2 = &chains[&2];
        assert!(r2.retired);
        assert_eq!(r2.admits, 1);
        assert_eq!(r2.preemptions, 0);
    }

    #[test]
    fn chain_violations_are_rejected() {
        use TimelineKind::*;
        // Work before admission.
        assert!(validate_chains(&[ev(1, DecodeTick, 1, 0, 1)]).is_err());
        // Double admission.
        assert!(validate_chains(&[ev(1, Admit, 1, 0, 4), ev(1, Admit, 2, 1, 4)]).is_err());
        // Events after retire.
        assert!(validate_chains(&[
            ev(1, Admit, 1, 0, 4),
            ev(1, Retire, 2, 1, 3),
            ev(1, DecodeTick, 3, 2, 1),
        ])
        .is_err());
        // Preempt leaves the request un-admitted.
        assert!(validate_chains(&[
            ev(1, Admit, 1, 0, 4),
            ev(1, Preempt, 2, 1, 1),
            ev(1, DecodeTick, 3, 2, 1),
        ])
        .is_err());
        // Verify without a draft.
        assert!(validate_chains(&[ev(1, Admit, 1, 0, 4), ev(1, SpecVerify, 2, 1, 0)]).is_err());
        // Rollback without a verify.
        assert!(validate_chains(&[ev(1, Admit, 1, 0, 4), ev(1, SpecRollback, 2, 1, 1)]).is_err());
        // Backwards time within a request.
        assert!(validate_chains(&[ev(1, Admit, 5, 0, 4), ev(1, DecodeTick, 3, 1, 1)]).is_err());
        // Backwards step within a request.
        assert!(validate_chains(&[ev(1, Admit, 1, 5, 4), ev(1, DecodeTick, 2, 3, 1)]).is_err());
        // A draft does not survive a preemption into the next incarnation.
        assert!(validate_chains(&[
            ev(1, Admit, 1, 0, 4),
            ev(1, SpecDraft, 2, 1, 2),
            ev(1, Preempt, 3, 1, 1),
            ev(1, Admit, 4, 2, 6),
            ev(1, SpecVerify, 5, 3, 1),
        ])
        .is_err());
    }

    #[test]
    fn unretired_chains_are_not_errors() {
        use TimelineKind::*;
        let chains = validate_chains(&[ev(1, Admit, 1, 0, 4), ev(1, DecodeTick, 2, 1, 1)]).unwrap();
        assert!(!chains[&1].retired);
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let stream = sample_stream();
        let text = timeline_jsonl(&stream);
        assert_eq!(text.lines().count(), stream.len());
        let chains = validate_timeline_jsonl(&text).unwrap();
        assert!(chains[&1].retired && chains[&2].retired);
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("request").unwrap().as_u64(), Some(1));
        assert_eq!(first.get("kind").unwrap().as_str(), Some("admit"));
    }

    #[test]
    fn jsonl_validator_rejects_schema_violations() {
        assert!(validate_timeline_jsonl("").is_err());
        assert!(validate_timeline_jsonl("not json\n").is_err());
        assert!(validate_timeline_jsonl(
            "{\"request\":1,\"kind\":\"warp\",\"t_ns\":1,\"step\":0,\"value\":0}\n"
        )
        .is_err());
        assert!(validate_timeline_jsonl(
            "{\"request\":1,\"kind\":\"admit\",\"step\":0,\"value\":0}\n"
        )
        .is_err());
    }

    #[test]
    fn ring_records_drains_and_tails() {
        // The ring and flag are process-global: this is the only test in
        // this module that touches them, keeping the harness's parallel
        // test threads out of each other's way.
        let (_, _) = drain_timeline();
        record(9, TimelineKind::Admit, 0, 4); // disabled: dropped
        set_timeline_enabled(true);
        record(7, TimelineKind::Admit, 0, 4);
        record(7, TimelineKind::PrefillChunk, 1, 4);
        record(8, TimelineKind::Admit, 1, 2);
        record(7, TimelineKind::DecodeTick, 2, 1);
        record(7, TimelineKind::Retire, 3, 5);
        set_timeline_enabled(false);
        let tail = tail_for(7, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].kind, TimelineKind::DecodeTick);
        assert_eq!(tail[1].kind, TimelineKind::Retire);
        let (events, dropped) = drain_timeline();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| e.request != 9));
        let chains = validate_chains(&events).unwrap();
        assert!(chains[&7].retired);
        assert!(!chains[&8].retired);
        // Drained: the ring is empty again.
        assert!(drain_timeline().0.is_empty());
    }
}
