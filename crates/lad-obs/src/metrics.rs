//! Process-wide metrics registry: sharded counters, gauges and log-bucket
//! histograms behind one name table, with a JSON exposition.
//!
//! The registry follows the span recorder's zero-cost-when-off contract:
//! while metrics are **disabled** (the default, toggled by
//! [`set_metrics_enabled`]) every record path — [`Counter::inc`],
//! [`Gauge::set`], [`MetricHistogram::record`] — collapses to one relaxed
//! load of a cache-line-sharded flag and returns. While **enabled**:
//!
//! * a counter increment is one relaxed `fetch_add` on this thread's shard
//!   of a padded atomic array (no lock, no allocation, no line bouncing
//!   between workers);
//! * a gauge update is one relaxed atomic store;
//! * a histogram record takes one uncontended mutex around the existing
//!   [`Histogram`] bucket increment.
//!
//! Handles are looked up by `&'static str` name ([`counter`], [`gauge`],
//! [`histogram`]) and are cheap `Arc` clones: the same name always resolves
//! to the same underlying metric, so independently-constructed engines,
//! pools and KV caches aggregate into one exposition naturally. Look
//! handles up once at construction time, not on hot paths.
//!
//! [`snapshot`] captures every registered metric (plus the recorder's and
//! timeline's cumulative `dropped_events` counters) into a
//! [`MetricsSnapshot`], which renders as JSON ([`json_text`]), read back by
//! the crate's one parser ([`crate::json`]).

use crate::histogram::Histogram;
use crate::{json, shard_index, ShardedFlag, FLAG_SHARDS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static METRICS_ENABLED: ShardedFlag = ShardedFlag::new();

/// Turns metric recording on or off, process-wide. Registered metrics keep
/// their accumulated values across toggles (counters are monotonic).
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.set(on);
}

/// Whether metric recording is currently enabled (this thread's shard
/// view).
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.get()
}

/// One cache-line-padded counter shard.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

struct CounterCore {
    name: &'static str,
    shards: [PaddedU64; FLAG_SHARDS],
}

struct GaugeCore {
    name: &'static str,
    value: AtomicI64,
}

struct HistogramCore {
    name: &'static str,
    hist: Mutex<Histogram>,
}

/// A monotonically-increasing counter handle (cheap to clone; all clones of
/// one name share the same cells).
#[derive(Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    /// Adds `n` to this thread's shard. No-op while metrics are disabled.
    #[inline]
    pub fn inc(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.0.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum across shards (readable regardless of the enable flag).
    pub fn value(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({} = {})", self.name(), self.value())
    }
}

/// A last-writer-wins instantaneous value handle (occupancy, queue depth).
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    /// Stores `v`. No-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !metrics_enabled() {
            return;
        }
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative). No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !metrics_enabled() {
            return;
        }
        self.0.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({} = {})", self.name(), self.value())
    }
}

/// A registered log-bucket [`Histogram`] handle.
#[derive(Clone)]
pub struct MetricHistogram(Arc<HistogramCore>);

impl MetricHistogram {
    /// Records one sample. No-op while metrics are disabled. The mutex is
    /// uncontended in the single-recorder case and never allocates.
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.0.hist.lock().unwrap().record(v);
    }

    /// A copy of the accumulated histogram.
    pub fn snapshot(&self) -> Histogram {
        self.0.hist.lock().unwrap().clone()
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }
}

impl std::fmt::Debug for MetricHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricHistogram({})", self.name())
    }
}

enum Entry {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

impl Entry {
    fn name(&self) -> &'static str {
        match self {
            Entry::Counter(c) => c.name,
            Entry::Gauge(g) => g.name,
            Entry::Histogram(h) => h.name,
        }
    }
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Registry mutations are append-only scans, so a panic inside a lookup
/// (the kind-mismatch path) leaves consistent state — recover the guard
/// instead of propagating the poison.
fn lock_registry() -> std::sync::MutexGuard<'static, Vec<Entry>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Looks up (or registers) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name() == name {
            match e {
                Entry::Counter(c) => return Counter(Arc::clone(c)),
                _ => panic!("metric '{name}' is already registered as a non-counter"),
            }
        }
    }
    #[allow(clippy::declare_interior_mutable_const)] // array template
    const ZERO: PaddedU64 = PaddedU64(AtomicU64::new(0));
    let core = Arc::new(CounterCore {
        name,
        shards: [ZERO; FLAG_SHARDS],
    });
    reg.push(Entry::Counter(Arc::clone(&core)));
    Counter(core)
}

/// Looks up (or registers) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name() == name {
            match e {
                Entry::Gauge(g) => return Gauge(Arc::clone(g)),
                _ => panic!("metric '{name}' is already registered as a non-gauge"),
            }
        }
    }
    let core = Arc::new(GaugeCore {
        name,
        value: AtomicI64::new(0),
    });
    reg.push(Entry::Gauge(Arc::clone(&core)));
    Gauge(core)
}

/// Looks up (or registers) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> MetricHistogram {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name() == name {
            match e {
                Entry::Histogram(h) => return MetricHistogram(Arc::clone(h)),
                _ => panic!("metric '{name}' is already registered as a non-histogram"),
            }
        }
    }
    let core = Arc::new(HistogramCore {
        name,
        hist: Mutex::new(Histogram::new()),
    });
    reg.push(Entry::Histogram(Arc::clone(&core)));
    MetricHistogram(core)
}

/// One captured metric value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total (summed across shards).
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(i64),
    /// Histogram digest: count, quantile upper bounds and extrema.
    Histogram {
        count: u64,
        sum: u64,
        p50: u64,
        p95: u64,
        p99: u64,
        max: u64,
    },
}

/// A point-in-time capture of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(&'static str, MetricValue)>,
}

impl MetricsSnapshot {
    /// The captured value of `name`, if registered at capture time.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Convenience: the counter total of `name` (0 when absent or not a
    /// counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: the gauge value of `name` (0 when absent or not a
    /// gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }
}

/// Captures every registered metric plus the two built-in event-loss
/// counters: `obs.dropped_events` (span ring overflow, process cumulative)
/// and `timeline.dropped_events` (timeline ring overflow).
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock_registry();
    let mut entries: Vec<(&'static str, MetricValue)> = Vec::with_capacity(reg.len() + 2);
    for e in reg.iter() {
        let value = match e {
            Entry::Counter(c) => {
                MetricValue::Counter(c.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum())
            }
            Entry::Gauge(g) => MetricValue::Gauge(g.value.load(Ordering::Relaxed)),
            Entry::Histogram(h) => {
                let hist = h.hist.lock().unwrap();
                MetricValue::Histogram {
                    count: hist.count(),
                    sum: hist.sum(),
                    p50: hist.p50(),
                    p95: hist.p95(),
                    p99: hist.p99(),
                    max: hist.max(),
                }
            }
        };
        entries.push((e.name(), value));
    }
    drop(reg);
    entries.push((
        "obs.dropped_events",
        MetricValue::Counter(crate::total_dropped_events()),
    ));
    entries.push((
        "timeline.dropped_events",
        MetricValue::Counter(crate::timeline::total_dropped_events()),
    ));
    entries.sort_by_key(|(name, _)| *name);
    entries.dedup_by(|a, b| a.0 == b.0);
    MetricsSnapshot { entries }
}

/// Renders a snapshot as one JSON object: `{"metrics": [{"name", "kind",
/// …}, …]}`, parseable by [`crate::json`].
pub fn json_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, (name, value)) in snap.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        let name = json::escape(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{v}}}"
                );
            }
            MetricValue::Gauge(v) => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"kind\":\"gauge\",\"value\":{v}}}"
                );
            }
            MetricValue::Histogram {
                count,
                sum,
                p50,
                p95,
                p99,
                max,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"kind\":\"histogram\",\"count\":{count},\
                     \"sum\":{sum},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{max}}}"
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag is process-global, so tests that toggle it must not
    /// interleave (the harness runs `#[test]`s on parallel threads).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_shard_and_sum() {
        let _g = flag_guard();
        let c = counter("test.counter_shard_sum");
        set_metrics_enabled(true);
        c.inc(3);
        let c2 = counter("test.counter_shard_sum");
        c2.inc(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| counter("test.counter_shard_sum").inc(10));
            }
        });
        set_metrics_enabled(false);
        assert_eq!(c.value(), 47);
        // Disabled increments are dropped.
        c.inc(100);
        assert_eq!(c.value(), 47);
    }

    #[test]
    fn gauges_are_last_writer_wins() {
        let _g = flag_guard();
        let g = gauge("test.gauge");
        set_metrics_enabled(true);
        g.set(5);
        g.add(-2);
        set_metrics_enabled(false);
        g.set(99);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn histograms_record_behind_the_flag() {
        let _g = flag_guard();
        let h = histogram("test.hist");
        set_metrics_enabled(true);
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        set_metrics_enabled(false);
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.max(), 30);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _c = counter("test.kind_clash");
        let _g = gauge("test.kind_clash");
    }

    #[test]
    fn snapshot_includes_builtin_drop_counters() {
        let snap = snapshot();
        assert!(snap.get("obs.dropped_events").is_some());
        assert!(snap.get("timeline.dropped_events").is_some());
    }

    #[test]
    fn json_exposition_carries_every_field() {
        let _g = flag_guard();
        let c = counter("test.expo_counter");
        let g = gauge("test.expo_gauge");
        let h = histogram("test.expo_hist");
        set_metrics_enabled(true);
        c.inc(7);
        g.set(-3);
        for v in 1..=100u64 {
            h.record(v);
        }
        set_metrics_enabled(false);
        let doc = json::parse(&json_text(&snapshot())).unwrap();
        let metrics = doc.get("metrics").and_then(|m| m.as_array()).unwrap();
        let find = |name: &str| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let field = |name: &str, key: &str| find(name).get(key).and_then(|v| v.as_f64());
        assert_eq!(
            find("test.expo_counter")
                .get("kind")
                .and_then(|k| k.as_str()),
            Some("counter")
        );
        assert_eq!(field("test.expo_counter", "value"), Some(7.0));
        assert_eq!(field("test.expo_gauge", "value"), Some(-3.0));
        assert_eq!(field("test.expo_hist", "count"), Some(100.0));
        assert_eq!(field("test.expo_hist", "sum"), Some(5050.0));
        assert_eq!(field("test.expo_hist", "max"), Some(100.0));
        assert!(field("test.expo_hist", "p50").is_some());
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let _g = flag_guard();
        let c = counter("test.lookup_counter");
        let g = gauge("test.lookup_gauge");
        set_metrics_enabled(true);
        c.inc(2);
        g.set(11);
        set_metrics_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("test.lookup_counter"), 2);
        assert_eq!(snap.gauge("test.lookup_gauge"), 11);
        assert_eq!(snap.counter("test.absent"), 0);
    }
}
