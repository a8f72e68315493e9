//! Telemetry-layer tests: OpenMetrics exposition (golden + properties),
//! query-journal JSONL round-trips and store-read isolation, and the
//! flight-dump schema — the artifacts behind `--metrics-out`,
//! `--journal` and `--flight-out`.

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, Execution, PpdSession, RunConfig};
use ppd::lang::{corpus, ProcId};
use ppd::log::SegmentFormat;
use ppd::obs::{Exposition, Journal, QueryRecord, Registry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------
// OpenMetrics golden
// ---------------------------------------------------------------------

/// A small registry renders to exactly this exposition: families
/// sorted, `_total` on counters, cumulative histogram with power-of-two
/// `le` bounds, approx-quantile gauges, and the `# EOF` terminator.
#[test]
fn openmetrics_golden() {
    let r = Registry::new();
    r.counter("query.count").add(3);
    r.gauge("cache.bytes").set(42);
    let h = r.histogram("query.latency_ns");
    h.record(1);
    h.record(100);
    h.record(1000);
    let expected = "\
# HELP ppd_cache_bytes gauge cache.bytes
# TYPE ppd_cache_bytes gauge
ppd_cache_bytes 42
# HELP ppd_query_count counter query.count
# TYPE ppd_query_count counter
ppd_query_count_total 3
# HELP ppd_query_latency_ns histogram query.latency_ns
# TYPE ppd_query_latency_ns histogram
ppd_query_latency_ns_bucket{le=\"1\"} 1
ppd_query_latency_ns_bucket{le=\"127\"} 2
ppd_query_latency_ns_bucket{le=\"1023\"} 3
ppd_query_latency_ns_bucket{le=\"+Inf\"} 3
ppd_query_latency_ns_sum 1101
ppd_query_latency_ns_count 3
# HELP ppd_query_latency_ns_approx quantile upper bounds (power-of-two) for query.latency_ns
# TYPE ppd_query_latency_ns_approx gauge
ppd_query_latency_ns_approx{quantile=\"0.5\"} 127
ppd_query_latency_ns_approx{quantile=\"0.95\"} 1023
ppd_query_latency_ns_approx{quantile=\"0.99\"} 1023
# EOF
";
    assert_eq!(r.to_openmetrics("ppd"), expected);
}

// ---------------------------------------------------------------------
// OpenMetrics properties
// ---------------------------------------------------------------------

/// Builds an arbitrary-but-valid metric name from fuzz bytes.
fn name_from(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "m".into();
    }
    bytes.iter().map(|b| (b'a' + (b % 26)) as char).collect()
}

/// Extracts, in file order, the cumulative histogram bucket counts of
/// one family from a rendered exposition.
fn bucket_counts(text: &str, family: &str) -> Vec<u64> {
    text.lines()
        .filter(|l| l.starts_with(&format!("{family}_bucket{{le=")))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every exposition is structurally valid: one `# HELP` and one
    /// `# TYPE` line per family (HELP first), every sample line's
    /// metric name begins with the sanitized family name, and the text
    /// ends with the `# EOF` terminator.
    #[test]
    fn exposition_is_structurally_valid(
        names in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 1..6),
        values in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let r = Registry::new();
        for (i, n) in names.iter().enumerate() {
            let name = format!("{}.{i}", name_from(n));
            r.counter(&name).add(values[i % values.len()]);
        }
        let text = r.to_openmetrics("ppd");
        prop_assert!(text.ends_with("# EOF\n"));
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            if line == "# EOF" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                last_help = Some(rest.split(' ').next().unwrap().to_owned());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                // TYPE follows HELP for the same family.
                prop_assert_eq!(
                    Some(rest.split(' ').next().unwrap().to_owned()),
                    last_help.clone()
                );
                continue;
            }
            // A sample line: name belongs to the last declared family
            // and is a valid OpenMetrics metric name.
            let metric = line.split([' ', '{']).next().unwrap();
            let family = last_help.clone().unwrap();
            prop_assert!(metric.starts_with(family.as_str()));
            prop_assert!(metric.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            prop_assert!(!metric.starts_with(|c: char| c.is_ascii_digit()));
        }
    }

    /// Histogram bucket series are cumulative: nondecreasing, with the
    /// final `+Inf` bucket equal to the `_count` sample.
    #[test]
    fn histogram_buckets_are_monotone(
        values in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let r = Registry::new();
        let h = r.histogram("lat");
        for &v in &values {
            h.record(v);
        }
        let text = r.to_openmetrics("p");
        let buckets = bucket_counts(&text, "p_lat");
        prop_assert!(!buckets.is_empty());
        prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*buckets.last().unwrap(), values.len() as u64);
        let count_line = text.lines().find(|l| l.starts_with("p_lat_count ")).unwrap();
        prop_assert_eq!(count_line, format!("p_lat_count {}", values.len()).as_str());
    }

    /// Label values and help text survive escaping: rendered lines
    /// never contain a raw newline, and escaped quotes/backslashes
    /// keep every label-bearing sample line well-formed.
    #[test]
    fn label_and_help_escaping_is_sound(
        raw in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let value: String = raw.iter().map(|&b| b as char).collect();
        let mut exp = Exposition::new("ppd");
        exp.counter("hits", &value, &[("file", value.as_str())], 7);
        let text = exp.render();
        prop_assert!(text.ends_with("# EOF\n"));
        // Escaped newlines never re-split lines: every line is either a
        // comment, the terminator, or a sample of this one family.
        for line in text.lines() {
            prop_assert!(
                line.starts_with("# ") || line.starts_with("ppd_hits_total"),
                "stray line {line:?}"
            );
        }
        // The sample line parses back: value after the final space, one
        // balanced label block with an escaped string inside.
        let sample = text.lines().find(|l| l.starts_with("ppd_hits_total{")).unwrap();
        prop_assert!(sample.ends_with(" 7"));
        let inner = &sample["ppd_hits_total{file=\"".len()..sample.len() - "\"} 7".len()];
        // Unescape and compare against the (control-char-laundered) input.
        let mut unescaped = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('n') => unescaped.push('\n'),
                    Some('\\') => unescaped.push('\\'),
                    Some('"') => unescaped.push('"'),
                    other => prop_assert!(false, "bad escape: {other:?}"),
                }
            } else {
                unescaped.push(c);
            }
        }
        prop_assert_eq!(unescaped, value);
    }
}

// ---------------------------------------------------------------------
// Journal JSONL round-trip
// ---------------------------------------------------------------------

/// The parse-side twin of [`QueryRecord::to_json`] (same shape the CLI
/// uses in `ppd obs report`).
#[derive(serde::Deserialize)]
struct ParsedRecord {
    v: u64,
    kind: String,
    args: String,
    start_ns: u64,
    latency_ns: u64,
    replays: u64,
    trace_events: u64,
    log_entries_scanned: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    entries_decoded: u64,
    blocks_inflated: u64,
    bytes_read: u64,
}

/// Appended records read back field-for-field — including kinds/args
/// that need JSON escaping — one line per record, all version 1.
#[test]
fn journal_round_trips_through_jsonl() {
    let dir = std::env::temp_dir().join(format!("ppd-journal-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("j.jsonl");
    let journal = Journal::create(&path).unwrap();
    let records = vec![
        QueryRecord {
            kind: "flowback".into(),
            args: "node=3 var=1".into(),
            start_ns: 10,
            latency_ns: 250,
            costs: [2, 40, 9, 1, 2, 0, 12, 1, 4096],
        },
        QueryRecord {
            kind: "weird \"kind\"\nwith newline".into(),
            args: "path=C:\\tmp\\store".into(),
            latency_ns: u64::MAX,
            ..QueryRecord::default()
        },
    ];
    for r in &records {
        journal.append(r);
    }
    assert_eq!(journal.records(), 2);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    for (line, want) in lines.iter().zip(&records) {
        let got: ParsedRecord = serde_json::from_str(line).unwrap();
        assert_eq!(got.v, 1);
        assert_eq!(got.kind, want.kind);
        assert_eq!(got.args, want.args);
        assert_eq!(got.start_ns, want.start_ns);
        assert_eq!(got.latency_ns, want.latency_ns);
        let [replays, trace_events, scanned, hits, misses, evictions, decoded, inflated, bytes] =
            want.costs;
        assert_eq!(got.replays, replays);
        assert_eq!(got.trace_events, trace_events);
        assert_eq!(got.log_entries_scanned, scanned);
        assert_eq!(got.cache_hits, hits);
        assert_eq!(got.cache_misses, misses);
        assert_eq!(got.cache_evictions, evictions);
        assert_eq!(got.entries_decoded, decoded);
        assert_eq!(got.blocks_inflated, inflated);
        assert_eq!(got.bytes_read, bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any record — arbitrary bytes in the string fields, arbitrary
    /// u64s in the counters — serializes to exactly one parseable JSON
    /// line that round-trips every field.
    #[test]
    fn any_record_round_trips(
        kind_bytes in proptest::collection::vec(any::<u8>(), 0..32),
        args_bytes in proptest::collection::vec(any::<u8>(), 0..32),
        nums in proptest::collection::vec(any::<u64>(), 11..12),
    ) {
        let rec = QueryRecord {
            kind: kind_bytes.iter().map(|&b| b as char).collect(),
            args: args_bytes.iter().map(|&b| b as char).collect(),
            start_ns: nums[0],
            latency_ns: nums[1],
            costs: std::array::from_fn(|i| nums[2 + i]),
        };
        let line = rec.to_json();
        prop_assert!(!line.contains('\n'));
        let got: ParsedRecord = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(got.v, 1);
        prop_assert_eq!(got.kind, rec.kind);
        prop_assert_eq!(got.args, rec.args);
        prop_assert_eq!(got.bytes_read, rec.costs[8]);
        prop_assert_eq!(got.latency_ns, rec.latency_ns);
    }
}

/// A journaled query is charged only for reads of its own execution's
/// store: segment decodes of another store, on another thread, while
/// the query runs never land in its record.
#[test]
fn journal_charges_only_the_queried_store() {
    let dir = std::env::temp_dir().join(format!("ppd-journal-iso-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session =
        PpdSession::prepare(corpus::FLOWBACK_DEMO.source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
    let run = session.execute(RunConfig { inputs: vec![vec![42, 10]], ..RunConfig::default() });
    let load = |name: &str| {
        let sub = dir.join(name);
        run.save_dir(&sub, 512, SegmentFormat::default()).expect("save_dir succeeds");
        Execution::load_dir(&sub).expect("load_dir succeeds")
    };
    let (a, b) = (load("a"), load("b"));
    let (seg_a, seg_b) = (a.logs.segmented().unwrap(), b.logs.segmented().unwrap());
    let journal_path = dir.join("j.jsonl");
    let journal = Journal::create(&journal_path).unwrap();
    let (reading, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Store B is read in a loop for the whole time A is queried.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for p in 0..b.logs.process_count() {
                    let mut cursor = b.logs.cursor(ProcId(p as u32), 0);
                    while cursor.next_entry().unwrap().is_some() {}
                }
                reading.store(true, Ordering::Relaxed);
            }
        });
        while !reading.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let mut c = Controller::new(&session, &a);
        c.set_journal(journal.clone());
        c.start().expect("debugging starts");
        stop.store(true, Ordering::Relaxed);
    });
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let charged: u64 = text
        .lines()
        .map(|l| serde_json::from_str::<ParsedRecord>(l).unwrap().entries_decoded)
        .sum();
    assert!(seg_a.entries_decoded() > 0, "the query decodes its own store");
    assert!(seg_b.entries_decoded() > 0, "the other store was read meanwhile");
    assert_eq!(charged, seg_a.entries_decoded(), "journal charged reads of another store");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Flight-dump schema
// ---------------------------------------------------------------------

/// Dump shape consumed by `ppd obs flight`.
#[derive(serde::Deserialize)]
struct ParsedDump {
    format: String,
    version: u64,
    recorded: u64,
    dropped: u64,
    events: Vec<ParsedEvent>,
}

/// One dumped flight event.
#[derive(serde::Deserialize)]
struct ParsedEvent {
    seq: u64,
    ts_ns: u64,
    tid: u64,
    cat: String,
    name: String,
    detail: String,
}

/// A wrapped ring dumps valid JSON: schema fields, `recorded - kept ==
/// dropped`, strictly increasing surviving sequence numbers, and only
/// the newest events kept.
#[test]
fn flight_dump_parses_and_keeps_newest() {
    let ring = ppd::obs::FlightRecorder::with_capacity(8);
    for i in 0..20 {
        ring.note_with("test", "event", format!("i={i} \"quoted\""));
    }
    let dump: ParsedDump = serde_json::from_str(&ring.dump_json()).unwrap();
    assert_eq!(dump.format, "ppd-flight");
    assert_eq!(dump.version, 1);
    assert_eq!(dump.recorded, 20);
    assert_eq!(dump.dropped, 12);
    assert_eq!(dump.events.len(), 8);
    assert!(dump.events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(dump.events.first().unwrap().seq, 13);
    assert_eq!(dump.events.last().unwrap().seq, 20);
    for (i, e) in dump.events.iter().enumerate() {
        assert_eq!(e.cat, "test");
        assert_eq!(e.name, "event");
        assert_eq!(e.detail, format!("i={} \"quoted\"", i + 12));
        assert!(e.ts_ns > 0);
        assert!(e.tid > 0);
    }
}
