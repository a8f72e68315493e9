//! Structured query journal: one JSONL record per Controller query.
//!
//! A [`Journal`] is a cheaply clonable handle to an append-only JSONL
//! file. Each completed top-level query appends one [`QueryRecord`]
//! line capturing what the query was and exactly what it paid for:
//! its wall latency plus one delta per [`COSTS`] field — replays,
//! trace events, cache hits/misses/evictions, and the segment-store
//! reads (entries decoded, blocks inflated, bytes read) counted by the
//! store the query's execution reads from. The paper's "pay only for
//! what you touch" claim is thereby auditable per query and across
//! whole sessions (`ppd obs report` aggregates a journal).
//!
//! The record schema is versioned (`"v":1`) and field order is fixed,
//! so journals diff cleanly and parse with any JSON-lines reader.

use crate::metrics::push_json_string;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The cost fields of a v1 record, in record order. The one table the
/// writer ([`QueryRecord::to_json`]), the replay engine that fills
/// [`QueryRecord::costs`], and `ppd obs report` all read.
pub const COSTS: [&str; 9] = [
    "replays",
    "trace_events",
    "log_entries_scanned",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "entries_decoded",
    "blocks_inflated",
    "bytes_read",
];

/// One journal line: a completed query and its costs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryRecord {
    /// Query kind, e.g. `"flowback"`, `"races"`, `"materialize"`.
    pub kind: String,
    /// Compact `key=value` argument summary (may be empty).
    pub args: String,
    /// Query start, nanoseconds since the process obs epoch.
    pub start_ns: u64,
    /// Wall latency in nanoseconds.
    pub latency_ns: u64,
    /// What the query paid, one value per [`COSTS`] field, same order.
    pub costs: [u64; COSTS.len()],
}

impl QueryRecord {
    /// The single JSONL line for this record (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(384 + self.kind.len() + self.args.len());
        out.push_str("{\"v\":1,\"kind\":");
        push_json_string(&mut out, &self.kind);
        out.push_str(",\"args\":");
        push_json_string(&mut out, &self.args);
        let _ = write!(out, ",\"start_ns\":{},\"latency_ns\":{}", self.start_ns, self.latency_ns);
        for (name, value) in COSTS.iter().zip(self.costs) {
            let _ = write!(out, ",\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct JournalInner {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    records: AtomicU64,
    failed: AtomicBool,
}

/// A clonable handle to an append-only JSONL query journal.
#[derive(Debug, Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl Journal {
    /// Creates (truncating) the journal file at `path`.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(Journal {
            inner: Arc::new(JournalInner {
                path,
                file: Mutex::new(file),
                records: AtomicU64::new(0),
                failed: AtomicBool::new(false),
            }),
        })
    }

    /// Appends one record as a JSONL line and flushes it. A write
    /// failure is reported to stderr once and the journal goes
    /// quiet — telemetry must never take the session down.
    pub fn append(&self, record: &QueryRecord) {
        let mut line = record.to_json();
        line.push('\n');
        let mut file = self.inner.file.lock().unwrap();
        let res = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        drop(file);
        match res {
            Ok(()) => {
                self.inner.records.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                if !self.inner.failed.swap(true, Ordering::Relaxed) {
                    eprintln!("journal: write to {} failed: {e}", self.inner.path.display());
                }
            }
        }
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.inner.records.load(Ordering::Relaxed)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryRecord {
        QueryRecord {
            kind: "flowback".to_string(),
            args: "node=3 proc=1".to_string(),
            start_ns: 12,
            latency_ns: 3456,
            costs: [2, 40, 17, 1, 2, 0, 99, 3, 4096],
        }
    }

    #[test]
    fn record_json_has_fixed_field_order() {
        let json = sample().to_json();
        assert!(
            json.starts_with("{\"v\":1,\"kind\":\"flowback\",\"args\":\"node=3 proc=1\""),
            "{json}"
        );
        let fields = [
            "start_ns",
            "latency_ns",
            "replays",
            "trace_events",
            "log_entries_scanned",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "entries_decoded",
            "blocks_inflated",
            "bytes_read",
        ];
        assert_eq!(fields[2..], COSTS, "the cost table is the v1 record order");
        let mut pos = 0;
        for f in fields {
            let at =
                json.find(&format!("\"{f}\":")).unwrap_or_else(|| panic!("missing {f}: {json}"));
            assert!(at > pos, "field {f} out of order: {json}");
            pos = at;
        }
        assert!(!json.contains('\n'));
    }

    #[test]
    fn journal_appends_flushed_lines() {
        let dir = std::env::temp_dir().join(format!("ppd-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let j = Journal::create(&path).unwrap();
        j.append(&sample());
        j.append(&QueryRecord { kind: "races".to_string(), ..Default::default() });
        assert_eq!(j.records(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], sample().to_json());
        assert!(lines[1].contains("\"kind\":\"races\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
