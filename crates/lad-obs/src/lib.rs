//! # lad-obs — zero-cost-when-off observability
//!
//! A lightweight span/event recorder for the LAD decode hot paths, plus the
//! analysis side: log-bucket latency [`Histogram`]s, a per-stage
//! [`StageBreakdown`] table, and the Chrome-trace exporter ([`export`]).
//!
//! ## The zero-cost-when-off contract
//!
//! Recording is toggled at runtime by [`set_enabled`]. While **disabled**
//! (the default), the entire record path collapses to a single relaxed load
//! of a sharded atomic flag:
//!
//! * [`span`] and [`instant`] perform **no allocation**, take **no lock**,
//!   and never read the clock;
//! * decode output is **bit-identical** to an uninstrumented build — the
//!   recorder can never influence results, only observe them (the top-level
//!   differential harness pins this);
//! * nothing is ever registered, so a process that never enables the
//!   recorder holds no ring buffers at all.
//!
//! While **enabled**, each recording thread owns a fixed-capacity ring
//! buffer of [`Event`]s (allocated once, on the thread's first record) and a
//! record costs one `Instant` read plus an uncontended mutex push into that
//! ring — no allocation after the ring exists. Overflow overwrites the
//! oldest events and is reported as a drop count at [`drain`] time.
//!
//! ## Quickstart
//!
//! ```
//! lad_obs::set_enabled(true);
//! {
//!     let _step = lad_obs::span("demo.step");
//!     lad_obs::instant("demo.marker");
//! } // span closes here
//! lad_obs::set_enabled(false);
//! let threads = lad_obs::drain();
//! assert_eq!(threads.len(), 1);
//! assert_eq!(threads[0].events.len(), 3); // B, I, E
//! let trace = lad_obs::export::chrome_trace(&threads);
//! assert!(trace.contains("demo.step"));
//! ```

pub mod breakdown;
pub mod export;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod timeline;

pub use breakdown::{StageBreakdown, StageStat};
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of flag shards. Each recording thread reads its own shard, so the
/// disabled-path check never bounces a shared cache line between workers.
pub(crate) const FLAG_SHARDS: usize = 8;

/// Events a per-thread ring buffer holds before overwriting the oldest.
const RING_CAPACITY: usize = 1 << 16;

/// One cache-line-padded shard of a global enable flag.
#[repr(align(64))]
struct FlagShard(AtomicBool);

/// A process-wide boolean sharded over cache-line-padded atomics, so that
/// checking it from many threads never bounces a shared line. The span
/// recorder, the metrics registry and the timeline each own one.
pub(crate) struct ShardedFlag([FlagShard; FLAG_SHARDS]);

impl ShardedFlag {
    pub(crate) const fn new() -> ShardedFlag {
        #[allow(clippy::declare_interior_mutable_const)] // array template
        const OFF: FlagShard = FlagShard(AtomicBool::new(false));
        ShardedFlag([OFF; FLAG_SHARDS])
    }

    pub(crate) fn set(&self, on: bool) {
        for shard in &self.0 {
            shard.0.store(on, Ordering::SeqCst);
        }
    }

    #[inline]
    pub(crate) fn get(&self) -> bool {
        self.0[shard_index()].0.load(Ordering::Relaxed)
    }
}

static ENABLED: ShardedFlag = ShardedFlag::new();

thread_local! {
    /// This thread's shard index (assigned round-robin on first use) — a
    /// plain const-initialised cell, so reading it is a TLS load, not a
    /// lazy-init check with registration machinery.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            idx = NEXT.fetch_add(1, Ordering::Relaxed) % FLAG_SHARDS;
            s.set(idx);
        }
        idx
    })
}

/// Turns recording on or off, process-wide. Spans already open keep their
/// guard and still record their end event, so traces stay balanced.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// Whether recording is currently enabled (this thread's shard view).
#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Cumulative count of span events lost to ring overflow, process-wide.
/// Unlike the per-drain [`ThreadEvents::dropped`] field this never resets,
/// so the metrics exposition can report silent event loss as a counter.
static TOTAL_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Span events overwritten by ring overflow since process start (monotonic;
/// per-drain figures live in [`ThreadEvents::dropped`]).
pub fn total_dropped_events() -> u64 {
    TOTAL_DROPPED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the recorder's process-wide epoch (the first
/// call to any timestamped operation).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time marker.
    Instant,
}

/// One recorded event. `Copy` and static-str-named so the record path moves
/// 24 bytes into the ring and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Static span/marker name (no allocation on record).
    pub name: &'static str,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Monotonic timestamp, nanoseconds since the recorder epoch.
    pub t_ns: u64,
}

/// Fixed-capacity overwrite-oldest event buffer.
struct RingBuf {
    buf: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    start: usize,
    /// Events overwritten since the last drain.
    dropped: u64,
}

impl RingBuf {
    fn with_capacity(cap: usize) -> RingBuf {
        RingBuf {
            buf: Vec::with_capacity(cap),
            start: 0,
            dropped: 0,
        }
    }

    /// Appends without ever growing the backing storage.
    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.buf.capacity();
            self.dropped += 1;
            TOTAL_DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes every buffered event in record order, resetting the ring.
    fn take_ordered(&mut self) -> (Vec<Event>, u64) {
        let mut events = std::mem::take(&mut self.buf);
        events.rotate_left(self.start);
        let dropped = self.dropped;
        self.start = 0;
        self.dropped = 0;
        // The ring keeps its capacity for the next recording run.
        self.buf = Vec::with_capacity(events.capacity().max(RING_CAPACITY));
        (events, dropped)
    }
}

/// A registered recording thread: its label and its ring.
struct RingHandle {
    label: String,
    tid: u64,
    buf: Mutex<RingBuf>,
}

static REGISTRY: Mutex<Vec<Arc<RingHandle>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: OnceLock<Arc<RingHandle>> = const { OnceLock::new() };
}

/// Registers this thread's ring. A named thread continues the ring of an
/// exited thread with the same name, so a fan-out that spawns a fresh thread
/// per step stays one trace track per name. A ring is free when only the
/// registry holds it (its thread's TLS has dropped its handle); the check runs
/// under the registry lock, so two live threads never share a ring.
fn register_current_thread() -> Arc<RingHandle> {
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    let name = std::thread::current().name().map(str::to_owned);
    let mut registry = REGISTRY
        .lock()
        .expect("no thread panics holding the ring registry");
    if let Some(free) = registry
        .iter()
        .find(|h| Some(&h.label) == name.as_ref() && Arc::strong_count(h) == 1)
    {
        return Arc::clone(free);
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let handle = Arc::new(RingHandle {
        label: name.unwrap_or_else(|| format!("thread-{tid}")),
        tid,
        buf: Mutex::new(RingBuf::with_capacity(RING_CAPACITY)),
    });
    registry.push(Arc::clone(&handle));
    handle
}

/// Pushes `ev` into this thread's ring (registering the thread on its first
/// record). Silently drops events during thread teardown.
fn record(ev: Event) {
    let _ = RING.try_with(|cell| {
        let ring = cell.get_or_init(register_current_thread);
        ring.buf.lock().unwrap().push(ev);
    });
}

/// RAII span guard returned by [`span`]; records the end event on drop.
///
/// When the recorder is disabled at open time the guard is disarmed: its
/// drop is a no-op and nothing was recorded.
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record(Event {
                name: self.name,
                kind: EventKind::End,
                t_ns: now_ns(),
            });
        }
    }
}

/// Opens a named span covering the guard's lifetime. `name` must be a
/// static string — the record path never allocates.
///
/// Disabled recorder: one relaxed atomic load, nothing else.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, armed: false };
    }
    record(Event {
        name,
        kind: EventKind::Begin,
        t_ns: now_ns(),
    });
    SpanGuard { name, armed: true }
}

/// Records a point-in-time marker (no-op while disabled).
#[inline]
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        kind: EventKind::Instant,
        t_ns: now_ns(),
    });
}

/// The drained events of one recording thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadEvents {
    /// Thread name at registration (`main`, `lad-fanout-1`, …); every thread
    /// of one name that ran after the previous one exited shares the track.
    pub label: String,
    /// Stable per-thread ordinal, used as the trace track id.
    pub tid: u64,
    /// Events overwritten by ring overflow since the previous drain.
    pub dropped: u64,
    /// Buffered events, in record order.
    pub events: Vec<Event>,
}

/// Drains every registered thread's ring, returning per-thread event
/// streams sorted by track id. Rings stay registered (and keep recording if
/// the recorder is enabled); empty rings are skipped.
pub fn drain() -> Vec<ThreadEvents> {
    let registry = REGISTRY.lock().unwrap();
    let mut out = Vec::new();
    for handle in registry.iter() {
        let (events, dropped) = handle.buf.lock().unwrap().take_ordered();
        if events.is_empty() && dropped == 0 {
            continue;
        }
        out.push(ThreadEvents {
            label: handle.label.clone(),
            tid: handle.tid,
            dropped,
            events,
        });
    }
    out.sort_by_key(|t| t.tid);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = RingBuf::with_capacity(4);
        for i in 0..6u64 {
            ring.push(Event {
                name: "x",
                kind: EventKind::Instant,
                t_ns: i,
            });
        }
        let (events, dropped) = ring.take_ordered();
        assert_eq!(dropped, 2);
        let ts: Vec<u64> = events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
        // The ring is reusable after a drain.
        let (events, dropped) = ring.take_ordered();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn a_joined_threads_ring_is_reused_by_its_namesake() {
        // The only test in this binary that enables the recorder.
        let spawn = |name: &str, mark: &'static str, meet: Option<Arc<std::sync::Barrier>>| {
            std::thread::Builder::new()
                .name(name.to_owned())
                .spawn(move || {
                    instant(mark);
                    if let Some(barrier) = meet {
                        barrier.wait();
                    }
                })
                .unwrap()
        };
        set_enabled(true);
        spawn("obs-reuse", "first", None).join().unwrap();
        spawn("obs-reuse", "second", None).join().unwrap();
        // Two live threads of one name: each registers while the other still
        // holds its ring, so they get one ring each.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let live = [
            spawn("obs-live", "a", Some(Arc::clone(&barrier))),
            spawn("obs-live", "b", Some(barrier)),
        ];
        for handle in live {
            handle.join().unwrap();
        }
        set_enabled(false);
        let threads = drain();
        let reused: Vec<_> = threads.iter().filter(|t| t.label == "obs-reuse").collect();
        assert_eq!(reused.len(), 1, "one track for the joined namesakes");
        let names: Vec<_> = reused[0].events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["first", "second"]);
        assert_eq!(threads.iter().filter(|t| t.label == "obs-live").count(), 2);
    }

    #[test]
    fn shard_index_is_stable_per_thread() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b);
        assert!(a < FLAG_SHARDS);
    }
}
