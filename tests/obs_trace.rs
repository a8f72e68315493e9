//! Trace-sink tests: the Chrome trace-event writer's schema is pinned
//! by golden file, and a property test checks that *every* valid span
//! nesting — randomized open/close/instant sequences across several
//! threads — exports one `"X"` per span and one `"i"` per instant, with
//! non-decreasing timestamps per track.
//!
//! Run with `PPD_UPDATE_GOLDEN=1` to regenerate the golden file after
//! an intentional format change.

use ppd_obs::chrome::{complete_events, trace_json};
use ppd_obs::SpanRecord;
use proptest::prelude::*;
use std::borrow::Cow;
use std::path::Path;

fn rec(
    name: &'static str,
    tid: u64,
    seq: u64,
    depth: u32,
    start_ns: u64,
    dur_ns: u64,
) -> SpanRecord {
    SpanRecord {
        cat: "test",
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

/// A small deterministic two-track recording: nested spans, a sibling,
/// an instant, and an annotated span on a second thread.
fn fixture() -> (Vec<SpanRecord>, Vec<(u64, String)>) {
    let mut mark = rec("checkpoint", 0, 2, 2, 2_500, 0);
    mark.instant = true;
    let mut task = rec("pool_task", 1, 0, 0, 500, 4_000);
    task.args.push(("stolen", Cow::Borrowed("true")));
    let records = vec![
        rec("query", 0, 0, 0, 1_000, 9_000),
        rec("replay_interval", 0, 1, 1, 2_000, 3_000),
        mark,
        rec("race_scan", 0, 3, 1, 6_000, 2_500),
        task,
    ];
    let names = vec![(0, "main".to_string()), (1, "pool-worker-0".to_string())];
    (records, names)
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("PPD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "`{name}` drifted from its golden file; \
         re-run with PPD_UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// Pulls `"key":<value>` out of one serialized event object. Good
/// enough for the flat objects the writer emits (values never contain
/// an unescaped comma-brace sequence that would fool it).
fn field<'a>(event: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = event.find(&needle)? + needle.len();
    let rest = &event[at..];
    let end = rest
        .char_indices()
        .scan(0i32, |depth, (i, c)| {
            match c {
                '{' => *depth += 1,
                '}' if *depth > 0 => *depth -= 1,
                '}' | ',' if *depth == 0 => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Splits a trace document into its per-event JSON object lines.
fn event_lines(doc: &str) -> Vec<&str> {
    let body = doc
        .strip_prefix("{\"traceEvents\":[\n")
        .and_then(|b| b.strip_suffix("\n]}\n"))
        .unwrap_or_else(|| panic!("bad envelope: {doc}"));
    body.lines().map(|l| l.trim_end_matches(',')).collect()
}

#[test]
fn trace_json_matches_golden_and_schema() {
    let (records, names) = fixture();
    let doc = trace_json(&records, &names);
    check_golden("trace.chrome.json", &doc);

    // Schema: every event is a flat object carrying ph/pid/tid/ts,
    // with pid fixed at 1 and a fractional-µs ts.
    let lines = event_lines(&doc);
    assert_eq!(lines.len(), records.len() + names.len());
    let mut last_ts: Option<(u64, f64)> = None;
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        let ph = field(line, "ph").unwrap_or_else(|| panic!("no ph in {line}"));
        assert!(["\"X\"", "\"i\"", "\"M\""].contains(&ph), "unexpected phase {ph}");
        assert_eq!(field(line, "pid"), Some("1"), "{line}");
        let tid: u64 = field(line, "tid").expect("tid").parse().expect("integer tid");
        let ts: f64 = field(line, "ts").expect("ts").parse().expect("numeric ts");
        assert!(field(line, "name").is_some(), "{line}");
        if ph == "\"X\"" {
            let dur: f64 = field(line, "dur").expect("X has dur").parse().unwrap();
            assert!(dur >= 0.0);
        }
        if ph == "\"i\"" {
            assert_eq!(field(line, "s"), Some("\"t\""), "instants are thread-scoped: {line}");
        }
        if ph != "\"M\"" {
            // Timestamps never go backwards within one track.
            if let Some((prev_tid, prev_ts)) = last_ts {
                if prev_tid == tid {
                    assert!(ts >= prev_ts, "ts regressed on tid {tid}: {doc}");
                }
            }
            last_ts = Some((tid, ts));
        }
    }
    // The fixture's annotations survive serialization.
    assert!(doc.contains("\"args\":{\"stolen\":\"true\"}"), "{doc}");
    assert!(doc.contains("\"name\":\"pool-worker-0\""), "{doc}");
}

/// One simulated recording thread, producing records exactly the way
/// the RAII guards do: `seq` at open in start order, the finished
/// record pushed at close (so out of start order until sorted), depth
/// equal to the number of enclosing opens.
struct SimThread {
    tid: u64,
    clock: u64,
    next_seq: u64,
    open: Vec<(u64, u32, u64)>, // (seq, depth, start_ns)
    done: Vec<SpanRecord>,
}

impl SimThread {
    fn new(tid: u64) -> SimThread {
        SimThread { tid, clock: 0, next_seq: 0, open: Vec::new(), done: Vec::new() }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 17; // arbitrary stride; only order matters
        self.clock
    }

    fn open(&mut self) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let depth = self.open.len() as u32;
        let start = self.tick();
        self.open.push((seq, depth, start));
    }

    fn close(&mut self) {
        if let Some((seq, depth, start)) = self.open.pop() {
            let end = self.tick();
            let mut r = rec("span", self.tid, seq, depth, start, end - start);
            r.name = Cow::Owned(format!("s{seq}"));
            self.done.push(r);
        }
    }

    fn instant(&mut self) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut r = rec("mark", self.tid, seq, self.open.len() as u32, self.tick(), 0);
        r.instant = true;
        self.done.push(r);
    }

    fn finish(mut self) -> Vec<SpanRecord> {
        while !self.open.is_empty() {
            self.close();
        }
        self.done
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Complete-event export preserves one `X` per span, one `i` per
    /// instant, and clamps timestamps monotonically per track.
    #[test]
    fn random_nestings_produce_monotone_complete_events(
        ops in proptest::collection::vec(any::<u8>(), 0..96)
    ) {
        let mut threads = [SimThread::new(0), SimThread::new(1)];
        for op in &ops {
            let t = &mut threads[(op >> 2) as usize % 2];
            match op % 4 {
                0 | 1 => t.open(),
                2 => t.close(),
                _ => t.instant(),
            }
        }
        let mut records: Vec<SpanRecord> = Vec::new();
        for t in threads {
            records.extend(t.finish());
        }
        records.sort_by_key(|r| (r.tid, r.seq));

        let events = complete_events(&records, &[]);
        prop_assert_eq!(events.len(), records.len());
        let x = events.iter().filter(|e| e.ph == 'X').count();
        prop_assert_eq!(x, records.iter().filter(|r| !r.instant).count());
        let mut last_ts: Option<(u64, u64)> = None;
        for ev in &events {
            if let Some((prev_tid, prev_ts)) = last_ts {
                if prev_tid == ev.tid {
                    prop_assert!(ev.ts_ns >= prev_ts, "ts regressed within a track");
                }
            }
            last_ts = Some((ev.tid, ev.ts_ns));
        }
    }
}
