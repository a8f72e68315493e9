//! Per-process log files and the whole-execution log store (§5.6).
//!
//! "There is one log file for each process of a parallel program." The
//! [`LogStore`] owns every process's log; the Controller navigates it via
//! [`IntervalRef`]s — the log intervals `I_i` of §5.1 — and a
//! [`LogCursor`] that the replayer consumes entries from in order.
//!
//! A store has two backings behind one API: a plain in-memory entry
//! vector per process (what the runtime fills during execution), or a
//! mapped on-disk [`SegmentedLog`] opened from a `--log-dir` directory.
//! On the segmented backing, structural queries are answered from
//! footer metadata alone, and a [`LogCursor`] decodes an entry from the
//! mapped bytes only when replay consumes it.

use crate::entry::LogEntry;
use crate::index::IntervalIndex;
use crate::segment::{BlockReader, SegError, SegmentFormat, SegmentedLog, SinkReport, KIND_NAMES};
use ppd_analysis::EBlockId;
use ppd_lang::ProcId;
use std::borrow::Cow;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The log of one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessLog {
    /// Entries in chronological order.
    pub entries: Vec<LogEntry>,
}

impl ProcessLog {
    /// Total byte size of the log.
    pub fn size_bytes(&self) -> usize {
        self.entries.iter().map(LogEntry::size_bytes).sum()
    }
}

/// A log interval `I_i` (§5.1): one dynamic e-block execution, from its
/// prelog to its postlog (or to the halt, if the postlog was never
/// written).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRef {
    /// The owning process.
    pub proc: ProcId,
    /// The e-block executed.
    pub eblock: EBlockId,
    /// The per-process instance number.
    pub instance: u64,
    /// Index of the prelog entry in the process log.
    pub prelog_pos: usize,
    /// Index of the matching postlog, or `None` if execution halted
    /// inside the interval.
    pub postlog_pos: Option<usize>,
}

/// Where a store's bytes live.
#[derive(Debug)]
enum Repr {
    /// Plain per-process entry vectors (the runtime's write path).
    Mem(Vec<ProcessLog>),
    /// A mapped segment directory; entries decode as they are read.
    Seg(Arc<SegmentedLog>),
}

/// All logs of one execution.
#[derive(Debug)]
pub struct LogStore {
    repr: Repr,
    /// The interval index, built lazily on first structural query and
    /// invalidated by [`LogStore::push`]: a pure function of the
    /// entries.
    index: OnceLock<Arc<IntervalIndex>>,
}

impl Default for LogStore {
    fn default() -> LogStore {
        LogStore::new(0)
    }
}

impl Clone for LogStore {
    fn clone(&self) -> LogStore {
        // Share the already-built index if there is one; both copies are
        // views over identical entries until one of them pushes.
        let index = OnceLock::new();
        if let Some(i) = self.index.get() {
            let _ = index.set(Arc::clone(i));
        }
        let repr = match &self.repr {
            Repr::Mem(logs) => Repr::Mem(logs.clone()),
            Repr::Seg(seg) => Repr::Seg(Arc::clone(seg)),
        };
        LogStore { repr, index }
    }
}

impl LogStore {
    /// A store for `processes` processes.
    pub fn new(processes: usize) -> LogStore {
        LogStore { repr: Repr::Mem(vec![ProcessLog::default(); processes]), index: OnceLock::new() }
    }

    /// Opens a store over a segmented log directory: segments are
    /// mapped and footers decoded, but **no entry payload is touched**
    /// until a query needs it.
    ///
    /// # Errors
    ///
    /// Returns a [`SegError`] on I/O failure, a bad manifest, or
    /// non-tail corruption (an unsealed tail segment is dropped with a
    /// warning instead — see [`LogStore::recovery_warnings`]).
    pub fn open_dir(dir: &Path) -> Result<LogStore, SegError> {
        let seg = SegmentedLog::open(dir)?;
        Ok(LogStore { repr: Repr::Seg(Arc::new(seg)), index: OnceLock::new() })
    }

    /// Packs this store's entries into `dir` as a segmented log in
    /// `format` (`segment_bytes` = payload capacity per segment; 0 for
    /// the default).
    ///
    /// # Errors
    ///
    /// Returns [`SegError::Io`] if the directory or a segment cannot
    /// be written, and the [`SegError`] naming the segment and block if
    /// a segment-backed store's payload is damaged.
    pub fn write_dir(
        &self,
        dir: &Path,
        segment_bytes: usize,
        format: SegmentFormat,
    ) -> Result<SinkReport, SegError> {
        crate::segment::write_store(self, dir, segment_bytes, format)
    }

    /// The segmented backing, if this store was opened from a log
    /// directory.
    pub fn segmented(&self) -> Option<&Arc<SegmentedLog>> {
        match &self.repr {
            Repr::Seg(seg) => Some(seg),
            Repr::Mem(_) => None,
        }
    }

    /// Whether this store reads from a mapped segment directory.
    pub fn is_segmented(&self) -> bool {
        matches!(self.repr, Repr::Seg(_))
    }

    /// Recovery warnings from opening the log directory (empty for
    /// in-memory stores).
    pub fn recovery_warnings(&self) -> &[String] {
        match &self.repr {
            Repr::Seg(seg) => seg.warnings(),
            Repr::Mem(_) => &[],
        }
    }

    /// The per-segment access heatmap (empty for in-memory stores):
    /// what this session has decoded from each sealed segment. See
    /// [`SegmentedLog::access_heatmap`].
    pub fn access_heatmap(&self) -> Vec<crate::segment::HeatRecord> {
        match &self.repr {
            Repr::Seg(seg) => seg.access_heatmap(),
            Repr::Mem(_) => Vec::new(),
        }
    }

    /// The in-memory entry vectors, converting a segment-backed store
    /// by materializing every process first.
    fn logs_mut(&mut self) -> &mut Vec<ProcessLog> {
        if let Repr::Seg(seg) = &self.repr {
            let logs =
                (0..seg.process_count()).map(|p| self.log(ProcId(p as u32)).clone()).collect();
            self.repr = Repr::Mem(logs);
        }
        match &mut self.repr {
            Repr::Mem(logs) => logs,
            Repr::Seg(_) => unreachable!("just materialized"),
        }
    }

    /// Appends an entry to a process's log, invalidating the cached
    /// interval index. On a segment-backed store this materializes
    /// every process into memory first (the write path is for live
    /// executions, which always start from [`LogStore::new`]).
    pub fn push(&mut self, proc: ProcId, entry: LogEntry) {
        self.index.take();
        self.logs_mut()[proc.index()].entries.push(entry);
    }

    /// The interval index over the current entries (§5.1). Built once
    /// and cached; every structural query
    /// ([`intervals`](Self::intervals), [`open_intervals`](Self::open_intervals),
    /// [`find_interval`](Self::find_interval), nesting links) is a view
    /// over it. In-memory stores build it by a single entry scan per
    /// process; segment-backed stores load it from footer digests
    /// without decoding any entry.
    pub fn index(&self) -> Arc<IntervalIndex> {
        Arc::clone(self.cached_index())
    }

    fn cached_index(&self) -> &Arc<IntervalIndex> {
        self.index.get_or_init(|| match &self.repr {
            Repr::Mem(_) => Arc::new(IntervalIndex::build(self)),
            Repr::Seg(seg) => seg.index(),
        })
    }

    /// The whole log of one process — decoded in full (once, then
    /// cached) on a segment-backed store. For callers that read
    /// everything: conversion to memory, tests. Replay
    /// reads through [`cursor`](Self::cursor), which decodes only what
    /// it consumes and returns damage as an error.
    ///
    /// # Panics
    ///
    /// Panics if a segment payload of `proc` is damaged (a block fails
    /// its checksum or an entry fails to decode); [`LogCursor`] and
    /// [`SegmentedLog::process_log`] report that as a [`SegError`].
    pub fn log(&self, proc: ProcId) -> &ProcessLog {
        match &self.repr {
            Repr::Mem(logs) => &logs[proc.index()],
            Repr::Seg(seg) => seg.process_log(proc).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Number of process logs.
    pub fn process_count(&self) -> usize {
        match &self.repr {
            Repr::Mem(logs) => logs.len(),
            Repr::Seg(seg) => seg.process_count(),
        }
    }

    /// Total log volume in bytes across all processes (experiment E2).
    /// Answered from footers alone on the segmented backing.
    pub fn total_bytes(&self) -> usize {
        match &self.repr {
            Repr::Mem(logs) => logs.iter().map(ProcessLog::size_bytes).sum(),
            Repr::Seg(seg) => seg.total_logical_bytes() as usize,
        }
    }

    /// Total entry count. Answered from footers alone on the segmented
    /// backing.
    pub fn total_entries(&self) -> usize {
        match &self.repr {
            Repr::Mem(logs) => logs.iter().map(|l| l.entries.len()).sum(),
            Repr::Seg(seg) => seg.total_entries() as usize,
        }
    }

    /// Entry counts by kind, for the statistics tables, in the fixed
    /// wire-tag order of [`KIND_NAMES`] with zero-count kinds omitted —
    /// identical across backings (footers answer it without a decode).
    pub fn counts_by_kind(&self) -> Vec<(&'static str, usize)> {
        let counts: [u64; 6] = match &self.repr {
            Repr::Mem(logs) => {
                let mut counts = [0u64; 6];
                for log in logs {
                    for e in &log.entries {
                        let slot = KIND_NAMES
                            .iter()
                            .position(|&k| k == e.kind_name())
                            .expect("every entry kind is named");
                        counts[slot] += 1;
                    }
                }
                counts
            }
            Repr::Seg(seg) => seg.counts_by_kind(),
        };
        KIND_NAMES
            .iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(&name, c)| (name, c as usize))
            .collect()
    }

    /// All log intervals of `proc`, in prelog order (outer intervals
    /// appear before the intervals nested inside them — Figure 5.1/5.2).
    ///
    /// A view over the cached [`IntervalIndex`]: the prelog/postlog
    /// pairing is done once, by single-pass stack matching, instead of a
    /// forward postlog search per prelog.
    pub fn intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        self.index().intervals(proc)
    }

    /// The intervals of `proc` still open when execution stopped —
    /// innermost last. The Controller starts debugging from the last
    /// prelog whose postlog has not yet been generated (§5.3).
    pub fn open_intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        self.index().open_intervals(proc)
    }

    /// Finds a specific interval — an O(1) table lookup.
    pub fn find_interval(
        &self,
        proc: ProcId,
        eblock: EBlockId,
        instance: u64,
    ) -> Option<IntervalRef> {
        self.index().find(proc, eblock, instance)
    }

    /// The interval (of any process) whose span covers logical time `t`
    /// and whose e-block is `eblock` — how the Controller locates "the
    /// log interval of the second process" for cross-process dependences
    /// (§5.6).
    pub fn interval_covering(&self, proc: ProcId, eblock: EBlockId, t: u64) -> Option<IntervalRef> {
        self.index().interval_covering(proc, eblock, t)
    }

    /// A cursor over `proc`'s log positioned at entry `pos` — at an
    /// interval's `prelog_pos` for a replay, which reads the prelog
    /// first. On a segment-backed store nothing is decoded until the
    /// cursor reads.
    pub fn cursor(&self, proc: ProcId, pos: usize) -> LogCursor<'_> {
        let entries = match &self.repr {
            Repr::Mem(logs) => Entries::Mem(&logs[proc.index()].entries),
            Repr::Seg(seg) => Entries::Seg(BlockReader::new(seg, proc)),
        };
        LogCursor { proc, index: self.cached_index(), entries, pos }
    }
}

/// Where a [`LogCursor`] reads entries from.
enum Entries<'a> {
    /// An in-memory log, lent out entry by entry.
    Mem(&'a [LogEntry]),
    /// A segment-backed log, decoded one entry at a time.
    Seg(BlockReader<'a>),
}

impl<'a> Entries<'a> {
    fn get(&mut self, pos: usize) -> Result<Option<Cow<'a, LogEntry>>, SegError> {
        match self {
            Entries::Mem(entries) => Ok(entries.get(pos).map(Cow::Borrowed)),
            Entries::Seg(reader) => reader.entry(pos),
        }
    }

    fn len(&self) -> usize {
        match self {
            Entries::Mem(entries) => entries.len(),
            Entries::Seg(reader) => reader.len(),
        }
    }
}

/// A forward reader over one process's log, used by e-block replay to
/// consume prelogs, shared snapshots, inputs, receives and nested
/// postlogs in the order they were recorded. It decodes an entry only
/// when it hands it out or tests it, so on a segment-backed store a
/// replay pays for the entries it consumes and nothing else; a damaged
/// payload comes back as a [`SegError`] naming the segment and block.
pub struct LogCursor<'a> {
    proc: ProcId,
    index: &'a IntervalIndex,
    entries: Entries<'a>,
    pos: usize,
}

impl LogCursor<'_> {
    /// Consumes and returns the next entry (`None` at the end of the
    /// log).
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] if the entry's payload is damaged.
    pub fn next_entry(&mut self) -> Result<Option<LogEntry>, SegError> {
        let e = self.entries.get(self.pos)?;
        self.pos += usize::from(e.is_some());
        Ok(e.map(Cow::into_owned))
    }

    /// Consumes entries until (and including) the next entry matching
    /// `pred`; returns it, or `None` if the log ends first.
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] if an entry on the way is damaged.
    pub fn seek(&mut self, pred: impl Fn(&LogEntry) -> bool) -> Result<Option<LogEntry>, SegError> {
        while let Some(e) = self.entries.get(self.pos)? {
            self.pos += 1;
            if pred(&e) {
                return Ok(Some(e.into_owned()));
            }
        }
        Ok(None)
    }

    /// Skips a whole nested interval (§5.2's substitution): the first
    /// interval of `eblock` whose prelog is at or after the cursor — the
    /// one a forward scan would enter — is looked up in the interval
    /// index, the cursor jumps to its stack-matched postlog, consumes
    /// and returns it. Only the postlog is decoded, however deep the
    /// nesting inside. With no such interval, or one still open, the
    /// cursor ends at the end of the log and returns `None`.
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] if the postlog's payload is damaged.
    pub fn skip_nested_interval(&mut self, eblock: EBlockId) -> Result<Option<LogEntry>, SegError> {
        let nested = self.index.next_interval(self.proc, eblock, self.pos);
        match nested.and_then(|iv| iv.postlog_pos) {
            Some(postlog) => {
                self.pos = postlog;
                self.next_entry()
            }
            None => {
                self.pos = self.entries.len();
                Ok(None)
            }
        }
    }

    /// Current position: the index of the next entry to read.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_lang::{Value, VarId};

    fn prelog(b: u32, i: u64, t: u64) -> LogEntry {
        LogEntry::Prelog { eblock: EBlockId(b), instance: i, values: vec![], time: t }
    }

    fn postlog(b: u32, i: u64, t: u64) -> LogEntry {
        LogEntry::Postlog {
            eblock: EBlockId(b),
            instance: i,
            values: vec![(VarId(0), Value::Int(t as i64))],
            ret: None,
            time: t,
        }
    }

    /// The nesting of Figure 5.2: SubJ's interval I_j contains SubK's
    /// I_{j+1}.
    fn fig52_store() -> LogStore {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1)); // SubJ prelog at t1
        s.push(p, prelog(1, 0, 2)); // SubK prelog at t2 (nested)
        s.push(p, postlog(1, 0, 3)); // SubK postlog at t3
        s.push(p, postlog(0, 0, 4)); // SubJ postlog at t4
        s
    }

    #[test]
    fn intervals_pair_prelogs_and_postlogs() {
        let s = fig52_store();
        let ivs = s.intervals(ProcId(0));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].eblock, EBlockId(0));
        assert_eq!(ivs[0].prelog_pos, 0);
        assert_eq!(ivs[0].postlog_pos, Some(3));
        assert_eq!(ivs[1].eblock, EBlockId(1));
        assert_eq!(ivs[1].postlog_pos, Some(2));
    }

    #[test]
    fn open_intervals_at_halt() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        // halt: neither postlog written
        let open = s.open_intervals(p);
        assert_eq!(open.len(), 2);
        // Innermost (last prelog without postlog) is the SubK interval.
        assert_eq!(open.last().unwrap().eblock, EBlockId(1));
    }

    #[test]
    fn recursive_instances_disambiguated() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(0, 1, 2)); // recursive nested call, same block
        s.push(p, postlog(0, 1, 3));
        s.push(p, postlog(0, 0, 4));
        let outer = s.find_interval(p, EBlockId(0), 0).unwrap();
        let inner = s.find_interval(p, EBlockId(0), 1).unwrap();
        assert_eq!(outer.postlog_pos, Some(3));
        assert_eq!(inner.postlog_pos, Some(2));
    }

    #[test]
    fn cursor_skips_nested_interval() {
        let s = fig52_store();
        let outer = s.find_interval(ProcId(0), EBlockId(0), 0).unwrap();
        let mut cur = s.cursor(ProcId(0), outer.prelog_pos);
        assert!(matches!(cur.next_entry().unwrap(), Some(LogEntry::Prelog { .. })));
        let post = cur.skip_nested_interval(EBlockId(1)).unwrap().unwrap();
        assert!(matches!(post, LogEntry::Postlog { eblock: EBlockId(1), .. }));
        // Next entry is SubJ's own postlog.
        let next = cur.next_entry().unwrap();
        assert!(matches!(next, Some(LogEntry::Postlog { eblock: EBlockId(0), .. })));
    }

    #[test]
    fn cursor_skips_deeply_nested_intervals() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        s.push(p, prelog(2, 0, 3)); // grandchild
        s.push(p, postlog(2, 0, 4));
        s.push(p, postlog(1, 0, 5));
        s.push(p, postlog(0, 0, 6));
        let outer = s.find_interval(p, EBlockId(0), 0).unwrap();
        let mut cur = s.cursor(p, outer.prelog_pos + 1);
        let post = cur.skip_nested_interval(EBlockId(1)).unwrap().unwrap();
        assert_eq!(post.time(), 5);
        assert_eq!(cur.position(), 5);
        // No further interval of EBlock 1: the cursor runs off the end.
        assert_eq!(cur.skip_nested_interval(EBlockId(1)).unwrap(), None);
        assert_eq!(cur.position(), 6);
    }

    #[test]
    fn interval_covering_time() {
        let s = fig52_store();
        let iv = s.interval_covering(ProcId(0), EBlockId(0), 2).unwrap();
        assert_eq!(iv.eblock, EBlockId(0));
        assert!(s.interval_covering(ProcId(0), EBlockId(1), 9).is_none());
    }

    #[test]
    fn counts_by_kind() {
        let s = fig52_store();
        let counts = s.counts_by_kind();
        assert!(counts.contains(&("prelog", 2)));
        assert!(counts.contains(&("postlog", 2)));
        // Fixed wire-tag order, zero-count kinds omitted.
        assert_eq!(counts, vec![("prelog", 2), ("postlog", 2)]);
    }

    #[test]
    fn dir_round_trip_preserves_entries_and_index() {
        let dir = std::env::temp_dir().join("ppd-store-dir-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let s = fig52_store();
        let report = s.write_dir(&dir, 0, SegmentFormat::default()).unwrap();
        assert_eq!(report.entries, 4);
        let back = LogStore::open_dir(&dir).unwrap();
        assert!(back.is_segmented());
        assert_eq!(back.total_entries(), 4);
        assert_eq!(back.total_bytes(), s.total_bytes());
        assert_eq!(back.counts_by_kind(), s.counts_by_kind());
        assert_eq!(back.intervals(ProcId(0)), s.intervals(ProcId(0)));
        assert_eq!(back.log(ProcId(0)).entries, s.log(ProcId(0)).entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_on_segment_backed_store_materializes() {
        let dir = std::env::temp_dir().join("ppd-store-dir-push");
        let _ = std::fs::remove_dir_all(&dir);
        fig52_store().write_dir(&dir, 0, SegmentFormat::default()).unwrap();
        let mut back = LogStore::open_dir(&dir).unwrap();
        back.push(ProcId(0), prelog(7, 0, 9));
        assert!(!back.is_segmented());
        assert_eq!(back.total_entries(), 5);
        assert_eq!(back.open_intervals(ProcId(0)).last().unwrap().eblock, EBlockId(7));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
