//! Per-stage latency aggregation.
//!
//! A [`StageBreakdown`] folds the raw span streams from [`crate::drain`]
//! into one log-bucket [`Histogram`] per span name ("stage"), merged across
//! every thread, so per-stage p50/p95/p99 are available without
//! re-parsing a trace file.

use crate::histogram::Histogram;
use crate::{EventKind, ThreadEvents};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One named stage and its duration histogram (nanoseconds).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Span name the durations were recorded under.
    pub name: String,
    /// Span durations, in nanoseconds.
    pub hist: Histogram,
}

/// Per-stage latency histograms, in first-seen stage order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageBreakdown {
    stages: Vec<StageStat>,
}

impl StageBreakdown {
    /// An empty breakdown.
    pub const fn new() -> StageBreakdown {
        StageBreakdown { stages: Vec::new() }
    }

    /// Builds a breakdown from drained per-thread event streams.
    ///
    /// Spans are matched per thread with a B/E stack, exactly as the RAII
    /// guards nested them. Unmatched events (a begin or end lost to ring
    /// overflow) are skipped; instants carry no duration and are ignored.
    pub fn from_events(threads: &[ThreadEvents]) -> StageBreakdown {
        let mut out = StageBreakdown::new();
        for t in threads {
            let mut open: Vec<(&'static str, u64)> = Vec::new();
            for ev in &t.events {
                match ev.kind {
                    EventKind::Begin => open.push((ev.name, ev.t_ns)),
                    EventKind::End => {
                        if let Some((name, begin)) = open.pop() {
                            out.record(name, ev.t_ns.saturating_sub(begin));
                        }
                    }
                    EventKind::Instant => {}
                }
            }
        }
        out
    }

    /// Records one duration sample for `stage`, creating it on first use.
    pub fn record(&mut self, stage: &str, duration_ns: u64) {
        self.stage_mut(stage).record(duration_ns);
    }

    fn stage_mut(&mut self, stage: &str) -> &mut Histogram {
        if let Some(i) = self.stages.iter().position(|s| s.name == stage) {
            return &mut self.stages[i].hist;
        }
        self.stages.push(StageStat {
            name: stage.to_owned(),
            hist: Histogram::new(),
        });
        &mut self.stages.last_mut().unwrap().hist
    }

    /// The histogram for `stage`, if any samples were recorded.
    pub fn get(&self, stage: &str) -> Option<&Histogram> {
        self.stages
            .iter()
            .find(|s| s.name == stage)
            .map(|s| &s.hist)
    }

    /// All stages, in first-seen order.
    pub fn stages(&self) -> &[StageStat] {
        &self.stages
    }

    /// `true` when no stage has any samples.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.hist.is_empty())
    }

    /// Folds `other`'s histograms into `self`, matching stages by name and
    /// appending stages `self` has not seen.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for stage in &other.stages {
            self.stage_mut(&stage.name).merge(&stage.hist);
        }
    }

    /// Renders the human-readable stage table: count, p50/p95/p99 and the
    /// cumulative total per stage. Durations are printed in the most
    /// readable unit per cell.
    pub fn render(&self) -> String {
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .chain(std::iter::once("stage".len()))
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>10}  {:>9}  {:>9}  {:>9}  {:>10}",
            "stage", "count", "p50", "p95", "p99", "total"
        );
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(name_w + 2 + 10 + 2 + 9 + 2 + 9 + 2 + 9 + 2 + 10)
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>10}  {:>9}  {:>9}  {:>9}  {:>10}",
                s.name,
                s.hist.count(),
                fmt_ns(s.hist.p50()),
                fmt_ns(s.hist.p95()),
                fmt_ns(s.hist.p99()),
                fmt_ns(s.hist.sum()),
            );
        }
        out
    }
}

/// Formats a nanosecond duration with a readable unit (`ns`, `us`, `ms`,
/// `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn ev(name: &'static str, kind: EventKind, t_ns: u64) -> Event {
        Event { name, kind, t_ns }
    }

    #[test]
    fn from_events_matches_nested_spans_per_thread() {
        let threads = vec![
            ThreadEvents {
                label: "main".into(),
                tid: 0,
                dropped: 0,
                events: vec![
                    ev("step", EventKind::Begin, 0),
                    ev("identify", EventKind::Begin, 100),
                    ev("identify", EventKind::End, 400),
                    ev("mark", EventKind::Instant, 450),
                    ev("step", EventKind::End, 1_000),
                ],
            },
            ThreadEvents {
                label: "lad-pool-0".into(),
                tid: 1,
                dropped: 0,
                events: vec![
                    ev("identify", EventKind::Begin, 0),
                    ev("identify", EventKind::End, 500),
                ],
            },
        ];
        let bd = StageBreakdown::from_events(&threads);
        assert_eq!(bd.get("step").unwrap().count(), 1);
        assert_eq!(bd.get("step").unwrap().sum(), 1_000);
        // "identify" merged across both threads.
        assert_eq!(bd.get("identify").unwrap().count(), 2);
        assert_eq!(bd.get("identify").unwrap().sum(), 800);
        // Instants contribute no stage.
        assert!(bd.get("mark").is_none());
    }

    #[test]
    fn unmatched_events_are_skipped() {
        let threads = vec![ThreadEvents {
            label: "main".into(),
            tid: 0,
            dropped: 3,
            events: vec![
                ev("lost", EventKind::End, 10),
                ev("open", EventKind::Begin, 20),
            ],
        }];
        let bd = StageBreakdown::from_events(&threads);
        assert!(bd.is_empty());
    }

    #[test]
    fn merge_matches_by_name_and_appends_new_stages() {
        let mut a = StageBreakdown::new();
        a.record("identify", 100);
        let mut b = StageBreakdown::new();
        b.record("identify", 300);
        b.record("window", 50);
        a.merge(&b);
        assert_eq!(a.get("identify").unwrap().count(), 2);
        assert_eq!(a.get("window").unwrap().count(), 1);
        assert_eq!(a.stages().len(), 2);
    }

    #[test]
    fn render_lists_every_stage_with_quantiles() {
        let mut bd = StageBreakdown::new();
        for v in [1_000u64, 2_000, 4_000] {
            bd.record("lad.identify", v);
        }
        bd.record("pool.park", 2_500_000);
        let table = bd.render();
        assert!(table.contains("stage"));
        assert!(table.contains("p95"));
        assert!(table.contains("lad.identify"));
        assert!(table.contains("pool.park"));
        assert!(
            table.contains("ms"),
            "park total should render in ms: {table}"
        );
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_340_000), "2.34ms");
        assert_eq!(fmt_ns(3_100_000_000), "3.100s");
    }
}
