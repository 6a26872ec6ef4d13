//! The span exporter and its validator.
//!
//! [`chrome_trace`] renders the [`ThreadEvents`] streams returned by
//! [`crate::drain`] as Chrome trace-event JSON: an object with a
//! `traceEvents` array of `B`/`E`/`i` events plus `thread_name` metadata,
//! one track per recording thread, timestamps in microseconds (nanosecond
//! precision kept as three decimals). Loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! [`validate_chrome_trace`] re-parses the emitted text with
//! [`crate::json`] and checks the structural invariants CI relies on: valid
//! JSON, required fields with the right types, non-negative durations, and
//! properly nested B/E pairs per track.

use crate::json::{self, Value};
use crate::{EventKind, ThreadEvents};

/// Process id used for every track (the recorder is single-process).
const TRACE_PID: u64 = 1;

/// Renders Chrome trace-event JSON from drained per-thread streams.
///
/// Each thread becomes one track: a `thread_name` metadata record followed
/// by its events in time order. Ring overflow can leave a stream unbalanced
/// (a span's `B` overwritten while its `E` survived, or a drain taken while
/// spans were still open); those are repaired so the output always nests —
/// orphaned `E` events are dropped and unclosed `B` events get a synthetic
/// `E` at the thread's last timestamp. A thread that lost events to ring
/// overflow additionally emits an `obs.dropped_events` counter (`C`)
/// sample, so silent loss is visible in the trace itself.
pub fn chrome_trace(threads: &[ThreadEvents]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, record: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(record);
    };
    for t in threads {
        emit(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                json::escape(&t.label)
            ),
        );
        let last_ts = t.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
        let mut open: Vec<&'static str> = Vec::new();
        for ev in &t.events {
            match ev.kind {
                EventKind::Begin => {
                    open.push(ev.name);
                    emit(&mut out, &event_record("B", ev.name, ev.t_ns, t.tid, false));
                }
                EventKind::End => {
                    // Drop ends whose begin was lost to ring overflow.
                    if open.pop().is_some() {
                        emit(&mut out, &event_record("E", ev.name, ev.t_ns, t.tid, false));
                    }
                }
                EventKind::Instant => {
                    emit(&mut out, &event_record("i", ev.name, ev.t_ns, t.tid, true));
                }
            }
        }
        // Close any spans still open at drain time.
        while let Some(name) = open.pop() {
            emit(&mut out, &event_record("E", name, last_ts, t.tid, false));
        }
        // Surface silent event loss as a Chrome counter sample on the
        // thread's track (rendered as a counter lane in Perfetto).
        if t.dropped > 0 {
            emit(
                &mut out,
                &format!(
                    "{{\"name\":\"obs.dropped_events\",\"ph\":\"C\",\"ts\":{},\
                     \"pid\":{TRACE_PID},\"tid\":{},\"args\":{{\"dropped\":{}}}}}",
                    micros(last_ts),
                    t.tid,
                    t.dropped
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

fn event_record(ph: &str, name: &str, t_ns: u64, tid: u64, instant_scope: bool) -> String {
    let scope = if instant_scope { ",\"s\":\"t\"" } else { "" };
    format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{TRACE_PID},\"tid\":{tid}{scope}}}",
        json::escape(name),
        micros(t_ns)
    )
}

/// Formats nanoseconds as a decimal-microsecond literal (`1234567` ns →
/// `1234.567`), keeping full nanosecond precision in the trace.
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

/// Checks that `trace` is a loadable Chrome trace: a valid JSON object with
/// a `traceEvents` array whose events have the required fields and types,
/// with B/E properly nested per `(pid, tid)` track (matching names, ends
/// never before begins — i.e. all durations non-negative) and every track
/// fully closed.
pub fn validate_chrome_trace(trace: &str) -> Result<(), String> {
    let doc = json::parse(trace).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    // Per-(pid, tid) stack of (name, begin ts).
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<(String, f64)>> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i} ({name}): negative timestamp {ts}"));
        }
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push((name.to_owned(), ts)),
            "E" => {
                let (open_name, begin_ts) = stack.pop().ok_or_else(|| {
                    format!("event {i} ({name}): E without open B on track {tid}")
                })?;
                if open_name != name {
                    return Err(format!(
                        "event {i}: E '{name}' closes B '{open_name}' on track {tid}"
                    ));
                }
                if ts < begin_ts {
                    return Err(format!(
                        "event {i} ({name}): negative duration ({begin_ts} -> {ts})"
                    ));
                }
            }
            "i" => {}
            // Counter samples (dropped-event lanes) must carry an args
            // object with at least one numeric series.
            "C" => {
                let args = ev
                    .get("args")
                    .ok_or_else(|| format!("event {i} ({name}): counter without args"))?;
                if !matches!(args, Value::Object(pairs) if pairs
                    .iter()
                    .all(|(_, v)| v.as_f64().is_some())
                    && !pairs.is_empty())
                {
                    return Err(format!(
                        "event {i} ({name}): counter args must be a non-empty numeric object"
                    ));
                }
            }
            other => return Err(format!("event {i} ({name}): unexpected phase '{other}'")),
        }
    }
    for ((_, tid), stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("track {tid}: span '{name}' never closed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn thread(tid: u64, label: &str, events: Vec<Event>) -> ThreadEvents {
        ThreadEvents {
            label: label.to_owned(),
            tid,
            dropped: 0,
            events,
        }
    }

    fn ev(name: &'static str, kind: EventKind, t_ns: u64) -> Event {
        Event { name, kind, t_ns }
    }

    #[test]
    fn chrome_trace_of_balanced_spans_validates() {
        let threads = vec![
            thread(
                0,
                "main",
                vec![
                    ev("step", EventKind::Begin, 1_000),
                    ev("identify", EventKind::Begin, 1_100),
                    ev("identify", EventKind::End, 1_900),
                    ev("mark", EventKind::Instant, 1_950),
                    ev("step", EventKind::End, 2_500),
                ],
            ),
            thread(
                3,
                "lad-fanout-1",
                vec![
                    ev("identify", EventKind::Begin, 1_200),
                    ev("identify", EventKind::End, 1_800),
                ],
            ),
        ];
        let trace = chrome_trace(&threads);
        validate_chrome_trace(&trace).unwrap();
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("lad-fanout-1"));
        // ns -> us conversion keeps sub-microsecond precision.
        assert!(trace.contains("\"ts\":1.100"));
    }

    #[test]
    fn chrome_trace_repairs_unbalanced_streams() {
        // Orphaned E (begin lost to ring overflow) and an unclosed B.
        let threads = vec![thread(
            0,
            "main",
            vec![
                ev("lost", EventKind::End, 500),
                ev("open", EventKind::Begin, 600),
                ev("inner", EventKind::Begin, 700),
                ev("inner", EventKind::End, 800),
            ],
        )];
        let trace = chrome_trace(&threads);
        validate_chrome_trace(&trace).unwrap();
        // The orphan is dropped, the unclosed span is synthetically ended.
        assert_eq!(trace.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn validator_rejects_bad_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // E without B.
        let orphan = r#"{"traceEvents":[{"name":"x","ph":"E","ts":1.0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(orphan).is_err());
        // Mismatched close.
        let crossed = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(crossed).is_err());
        // Negative duration.
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(backwards).is_err());
        // Never closed.
        let open = r#"{"traceEvents":[{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(open).is_err());
    }

    #[test]
    fn dropped_events_surface_as_a_counter_sample() {
        let mut t = thread(
            1,
            "main",
            vec![
                ev("step", EventKind::Begin, 100),
                ev("step", EventKind::End, 200),
            ],
        );
        t.dropped = 17;
        let threads = vec![t];

        let trace = chrome_trace(&threads);
        validate_chrome_trace(&trace).unwrap();
        assert!(trace.contains("\"dropped\":17"));
        // The sample sits at the thread's last surviving timestamp.
        assert!(trace.contains("\"name\":\"obs.dropped_events\",\"ph\":\"C\",\"ts\":0.200"));
    }

    #[test]
    fn counter_events_require_numeric_args() {
        let no_args = r#"{"traceEvents":[{"name":"c","ph":"C","ts":1.0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(no_args).is_err());
        let bad_args =
            r#"{"traceEvents":[{"name":"c","ph":"C","ts":1.0,"pid":1,"tid":0,"args":{"d":"x"}}]}"#;
        assert!(validate_chrome_trace(bad_args).is_err());
        let good =
            r#"{"traceEvents":[{"name":"c","ph":"C","ts":1.0,"pid":1,"tid":0,"args":{"d":3}}]}"#;
        validate_chrome_trace(good).unwrap();
    }
}
