//! Folds the three `lad_obs` recorders between ticks.
//!
//! The span ring holds 64k events and a long-context LAD tick records
//! thousands, so the tracer drains after every tick — nothing is ever
//! overwritten — and keeps only totals: time and count per span name, the
//! time of `serve.tick`'s direct children (the coverage check), rows per
//! sub-step (timeline events matched to sub-step spans by timestamp), and
//! the KV-pool gauges. The first ticks' raw events become the Chrome trace.

use lad_obs::metrics::{self, MetricsSnapshot};
use lad_obs::timeline::{self, TimelineEvent, TimelineKind};
use lad_obs::{EventKind, ThreadEvents};
use std::collections::BTreeMap;
use std::path::Path;

/// Raw events kept for the Chrome trace (≈ 100 bytes each once rendered).
const CHROME_EVENT_CAP: usize = 150_000;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub count: u64,
    pub ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    totals: BTreeMap<&'static str, SpanTotal>,
    /// Duration of every `batch.step`, nanoseconds.
    pub step_ns: Vec<u64>,
    /// Σ duration of spans whose parent is `serve.tick`.
    pub tick_children_ns: u64,
    /// Rows stepped in sub-steps that carried a decode row / only prompt rows.
    pub decode_substep_rows: u64,
    pub prefill_substep_rows: u64,
    /// Tick of each request's first admission.
    pub first_admit: BTreeMap<u64, u64>,
    /// Span + timeline events lost to ring overflow.
    pub dropped: u64,
    pub blocks_used_peak: i64,
    pub blocks_total: i64,
    pub dead_tokens_peak: i64,
    fragmentation_bytes_sum: f64,
    gauge_samples: u64,
    chrome: Vec<ThreadEvents>,
    chrome_events: usize,
    counters_at_start: MetricsSnapshot,
    counters_at_end: MetricsSnapshot,
}

impl Tracer {
    /// Turns the span, metrics and timeline recorders on.
    pub fn start() -> Tracer {
        lad_obs::drain();
        timeline::drain_timeline();
        metrics::set_metrics_enabled(true);
        timeline::set_timeline_enabled(true);
        lad_obs::set_enabled(true);
        Tracer {
            counters_at_start: metrics::snapshot(),
            ..Tracer::default()
        }
    }

    /// Turns the recorders off and folds what is left.
    pub fn finish(&mut self) {
        lad_obs::set_enabled(false);
        timeline::set_timeline_enabled(false);
        self.counters_at_end = metrics::snapshot();
        metrics::set_metrics_enabled(false);
        self.fold(lad_obs::drain(), timeline::drain_timeline());
    }

    /// Called between ticks: drains and folds all three recorders.
    pub fn after_tick(&mut self) {
        self.fold(lad_obs::drain(), timeline::drain_timeline());
        let snap = metrics::snapshot();
        self.blocks_used_peak = self.blocks_used_peak.max(snap.gauge("kv.blocks_used"));
        self.blocks_total = snap.gauge("kv.blocks_total");
        self.dead_tokens_peak = self.dead_tokens_peak.max(snap.gauge("kv.dead_tokens"));
        self.fragmentation_bytes_sum += snap.gauge("kv.fragmentation_bytes") as f64;
        self.gauge_samples += 1;
    }

    fn fold(&mut self, threads: Vec<ThreadEvents>, (events, dropped): (Vec<TimelineEvent>, u64)) {
        self.dropped += dropped;
        // (carried a decode row, begin, end) of each sub-step span.
        let mut substeps: Vec<(bool, u64, u64)> = Vec::new();
        for t in &threads {
            self.dropped += t.dropped;
            let mut open: Vec<(&'static str, u64)> = Vec::new();
            for ev in &t.events {
                match ev.kind {
                    EventKind::Begin => open.push((ev.name, ev.t_ns)),
                    EventKind::End => {
                        let Some((name, begin)) = open.pop() else {
                            continue;
                        };
                        let ns = ev.t_ns.saturating_sub(begin);
                        let total = self.totals.entry(name).or_default();
                        total.count += 1;
                        total.ns += ns;
                        if open.last().is_some_and(|parent| parent.0 == "serve.tick") {
                            self.tick_children_ns += ns;
                        }
                        match name {
                            "batch.step" => self.step_ns.push(ns),
                            "serve.decode_step" => substeps.push((true, begin, ev.t_ns)),
                            "serve.prefill_chunk" => substeps.push((false, begin, ev.t_ns)),
                            _ => {}
                        }
                    }
                    EventKind::Instant => {}
                }
            }
        }
        for ev in &events {
            if ev.kind == TimelineKind::Admit {
                self.first_admit.entry(ev.request).or_insert(ev.step);
            }
        }
        for (has_decode, begin, end) in substeps {
            let rows = substep_rows(&events, begin, end);
            if has_decode {
                self.decode_substep_rows += rows;
            } else {
                self.prefill_substep_rows += rows;
            }
        }
        if self.chrome_events < CHROME_EVENT_CAP {
            for t in threads {
                self.chrome_events += t.events.len();
                match self.chrome.iter_mut().find(|c| c.tid == t.tid) {
                    Some(kept) => kept.events.extend(t.events),
                    None => self.chrome.push(t),
                }
            }
        }
    }

    pub fn span(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Σ over spans whose name starts with `prefix`.
    pub fn spans_with_prefix(&self, prefix: &str) -> SpanTotal {
        let mut sum = SpanTotal::default();
        for (name, total) in &self.totals {
            if name.starts_with(prefix) {
                sum.count += total.count;
                sum.ns += total.ns;
            }
        }
        sum
    }

    pub fn rows(&self) -> u64 {
        self.decode_substep_rows + self.prefill_substep_rows
    }

    pub fn fragmentation_mb_mean(&self) -> f64 {
        crate::stats::ratio(
            self.fragmentation_bytes_sum / 1e6,
            self.gauge_samples as f64,
        )
    }

    /// Growth of a registry counter over the traced pass.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters_at_end.counter(name) - self.counters_at_start.counter(name)
    }

    /// Σ growth of every counter whose name starts with `prefix`.
    pub fn counters_with_prefix(&self, prefix: &str) -> u64 {
        self.counters_at_end
            .entries
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| self.counter(name))
            .sum()
    }

    /// Writes the first ticks as a Chrome trace (open in Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> Result<(), String> {
        let text = lad_obs::export::chrome_trace(&self.chrome);
        lad_obs::export::validate_chrome_trace(&text)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Rows the batch stepped in the sub-step spanning `begin..=end`: one per
/// prompt token fed, one per decode run, one per drafted token. A request
/// crossing from prompt to decode logs both events for its single row.
fn substep_rows(events: &[TimelineEvent], begin: u64, end: u64) -> u64 {
    let mut rows = 0;
    let mut prefilled: Vec<u64> = Vec::new();
    for ev in events.iter().filter(|e| (begin..=end).contains(&e.t_ns)) {
        match ev.kind {
            TimelineKind::PrefillChunk => {
                rows += ev.value;
                prefilled.push(ev.request);
            }
            TimelineKind::SpecDraft => rows += ev.value,
            TimelineKind::DecodeTick if !prefilled.contains(&ev.request) => rows += 1,
            _ => {}
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(request: u64, kind: TimelineKind, t_ns: u64, value: u64) -> TimelineEvent {
        TimelineEvent {
            request,
            kind,
            t_ns,
            step: 0,
            value,
        }
    }

    #[test]
    fn substep_rows_count_prompt_decode_and_draft_rows_once() {
        let events = [
            ev(9, TimelineKind::DecodeTick, 5, 1), // earlier sub-step
            ev(1, TimelineKind::SpecDraft, 11, 3),
            ev(0, TimelineKind::PrefillChunk, 20, 1),
            ev(1, TimelineKind::SpecVerify, 21, 2),
            ev(1, TimelineKind::DecodeTick, 22, 3), // pending row of the run
            ev(2, TimelineKind::PrefillChunk, 23, 1),
            ev(2, TimelineKind::DecodeTick, 24, 1), // crossing: same row
            ev(3, TimelineKind::DecodeTick, 25, 1),
        ];
        assert_eq!(substep_rows(&events, 10, 30), 3 + 1 + 1 + 1 + 1);
        assert_eq!(substep_rows(&events, 0, 9), 1);
    }
}
