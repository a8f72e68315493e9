//! Chrome trace-event JSON sink.
//!
//! Emits the [Trace Event Format] consumed by Perfetto and
//! `chrome://tracing`: one process (`pid` 1), one track per recording
//! thread (`tid`), `"M"` metadata events naming the tracks, `"X"`
//! complete events for spans, and thread-scoped `"i"` instant events
//! for point annotations. Each track's events follow its `(seq)` start
//! order, so no re-sorting by wall time is ever needed.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::metrics::json_string;
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// One trace event in an exportable stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Phase: `"X"`, `"i"`, or `"M"`.
    pub ph: char,
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Track id.
    pub tid: u64,
    /// Timestamp in integer nanoseconds (serialized as fractional µs).
    pub ts_ns: u64,
    /// Duration in nanoseconds (only meaningful for `"X"`).
    pub dur_ns: u64,
    /// Key/value annotations.
    pub args: Vec<(String, String)>,
}

/// The fixed pid every event carries (single-process tool).
pub const TRACE_PID: u64 = 1;

/// Converts drained spans into `"X"`/`"i"` events (plus `"M"` track
/// names). `records` must be sorted by `(tid, seq)`, the order
/// [`take_spans`](crate::take_spans) returns. Timestamps are clamped
/// to be non-decreasing per track.
pub fn complete_events(records: &[SpanRecord], thread_names: &[(u64, String)]) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(records.len() + thread_names.len());
    for (tid, name) in thread_names {
        out.push(TraceEvent {
            ph: 'M',
            name: "thread_name".into(),
            cat: String::new(),
            tid: *tid,
            ts_ns: 0,
            dur_ns: 0,
            args: vec![("name".into(), name.clone())],
        });
    }
    let mut cur_tid = u64::MAX;
    let mut last_ts = 0u64;
    for rec in records {
        if rec.tid != cur_tid {
            cur_tid = rec.tid;
            last_ts = 0;
        }
        let ts_ns = rec.start_ns.max(last_ts);
        last_ts = ts_ns;
        out.push(TraceEvent {
            ph: if rec.instant { 'i' } else { 'X' },
            name: rec.name.clone().into_owned(),
            cat: rec.cat.to_string(),
            tid: rec.tid,
            ts_ns,
            dur_ns: rec.dur_ns,
            args: rec.args.iter().map(|(k, v)| ((*k).to_string(), v.to_string())).collect(),
        });
    }
    out
}

/// Serializes one event as a JSON object. Timestamps/durations are
/// written as fractional microseconds (the unit the format requires).
pub fn event_json(e: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"ph\":\"{}\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":{}.{:03}",
        e.ph,
        e.tid,
        e.ts_ns / 1000,
        e.ts_ns % 1000
    );
    if e.ph == 'X' {
        let _ = write!(s, ",\"dur\":{}.{:03}", e.dur_ns / 1000, e.dur_ns % 1000);
    }
    let _ = write!(s, ",\"name\":{}", json_string(&e.name));
    if !e.cat.is_empty() {
        let _ = write!(s, ",\"cat\":{}", json_string(&e.cat));
    }
    if e.ph == 'i' {
        // Scope the instant to its thread's track.
        s.push_str(",\"s\":\"t\"");
    }
    if !e.args.is_empty() {
        s.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_string(k), json_string(v));
        }
        s.push('}');
    }
    s.push('}');
    s
}

fn events_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 100 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&event_json(e));
    }
    out.push_str("\n]}\n");
    out
}

/// Renders drained spans as a complete Chrome trace JSON document
/// using `"X"` complete events — the `--trace-out` format.
pub fn trace_json(records: &[SpanRecord], thread_names: &[(u64, String)]) -> String {
    events_json(&complete_events(records, thread_names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(
        name: &'static str,
        tid: u64,
        seq: u64,
        depth: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            cat: "t",
            name: Cow::Borrowed(name),
            tid,
            seq,
            depth,
            start_ns,
            dur_ns,
            instant: false,
            args: Vec::new(),
        }
    }

    #[test]
    fn complete_events_emit_x_and_metadata() {
        let records = vec![rec("a", 0, 0, 0, 1000, 500), rec("b", 0, 1, 1, 1100, 200)];
        let events = complete_events(&records, &[(0, "main".into())]);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].ph, 'M');
        assert!(events.iter().filter(|e| e.ph == 'X').count() == 2);
        let json = trace_json(&records, &[(0, "main".into())]);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ts\":1.000"), "{json}");
        assert!(json.contains("\"dur\":0.500"), "{json}");
        assert!(json.contains("\"name\":\"main\""), "{json}");
    }

    #[test]
    fn instants_do_not_open_spans() {
        let mut mark = rec("mark", 0, 1, 1, 500, 0);
        mark.instant = true;
        let records = vec![rec("outer", 0, 0, 0, 0, 1000), mark];
        let events = complete_events(&records, &[]);
        let phases: Vec<char> = events.iter().map(|e| e.ph).collect();
        assert_eq!(phases, vec!['X', 'i']);
        let json = event_json(&events[1]);
        assert!(json.contains("\"s\":\"t\""), "{json}");
    }

    #[test]
    fn args_serialize_as_object() {
        let mut r = rec("task", 3, 0, 0, 0, 10);
        r.args.push(("stolen", "true".into()));
        let events = complete_events(&[r], &[]);
        let json = event_json(&events[0]);
        assert!(json.contains("\"args\":{\"stolen\":\"true\"}"), "{json}");
        assert!(json.contains("\"tid\":3"), "{json}");
        assert!(json.contains("\"pid\":1"), "{json}");
    }
}
