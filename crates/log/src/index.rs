//! The persistent log-interval index (§5.1, Figure 5.1/5.2).
//!
//! The Controller's debugging phase asks the same structural questions
//! over and over: *which intervals does this process have*, *which are
//! still open*, *which intervals nest directly inside this one*, *which
//! interval covers logical time t*. Answering each of those by rescanning
//! the raw entry stream is quadratic in the log length; the
//! [`IntervalIndex`] answers all of them from tables built in one pass.
//!
//! The build is a single forward scan per process with a stack of open
//! intervals: a prelog pushes a new interval whose *parent* is the stack
//! top (the nesting links of Figure 5.2), a postlog closes the matching
//! stack entry. Whatever remains on the stack when the log ends is the
//! open-interval chain the Controller starts debugging from (§5.3).

use crate::entry::LogEntry;
use crate::store::{IntervalRef, LogStore};
use ppd_analysis::EBlockId;
use ppd_lang::ProcId;
use std::collections::HashMap;

/// One structural event of a process log: a prelog or postlog together
/// with its entry position and logical time. The stack-matching index
/// build consumes these — extracted either from the raw entry stream or
/// from the digests persisted in segment footers
/// ([`crate::segment::SegmentMeta`]), so both paths share one builder
/// and cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StructEvent {
    /// Entry position within the process log.
    pub pos: usize,
    /// `true` for a prelog, `false` for a postlog.
    pub is_prelog: bool,
    /// The e-block.
    pub eblock: EBlockId,
    /// The per-process instance number.
    pub instance: u64,
    /// Logical time of the entry.
    pub time: u64,
}

impl StructEvent {
    /// The structural event of `entry` at position `pos`, if it is a
    /// prelog or postlog (other entry kinds carry no interval
    /// structure).
    pub(crate) fn of_entry(pos: usize, entry: &LogEntry) -> Option<StructEvent> {
        match entry {
            LogEntry::Prelog { eblock, instance, time, .. } => Some(StructEvent {
                pos,
                is_prelog: true,
                eblock: *eblock,
                instance: *instance,
                time: *time,
            }),
            LogEntry::Postlog { eblock, instance, time, .. } => Some(StructEvent {
                pos,
                is_prelog: false,
                eblock: *eblock,
                instance: *instance,
                time: *time,
            }),
            _ => None,
        }
    }
}

/// Per-interval index record: the interval itself plus its nesting links
/// and time span.
#[derive(Debug, Clone)]
struct IndexedInterval {
    /// The interval, exactly as [`LogStore::intervals`] would report it.
    interval: IntervalRef,
    /// Index (into the same process's interval list) of the directly
    /// enclosing interval, if any.
    parent: Option<usize>,
    /// Indices of the directly nested intervals, in log order.
    children: Vec<usize>,
    /// Logical time of the prelog.
    start_time: u64,
    /// Logical time of the postlog (`u64::MAX` while open).
    end_time: u64,
}

/// Multiply-rotate hasher (rustc's FxHash scheme). `by_key` takes one
/// insert per interval — millions when a large store's index is rebuilt
/// from segment footers — and the default SipHash dominates that build,
/// while HashDoS resistance buys nothing against our own log files.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl FxHasher {
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type FxMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// The index of one process's log.
#[derive(Debug, Clone, Default)]
struct ProcIndex {
    /// All intervals in prelog order (outer before nested — Figure 5.1).
    intervals: Vec<IndexedInterval>,
    /// `(eblock, instance)` → position in `intervals`.
    by_key: FxMap<(EBlockId, u64), usize>,
    /// Positions of intervals with no postlog, outermost first.
    open: Vec<usize>,
    /// Positions of the unnested (top-level) intervals, in log order.
    top_level: Vec<usize>,
}

/// A whole-execution interval index: every process's intervals, their
/// nesting structure, and `(eblock, instance)` lookup tables, built in a
/// single pass over each log.
#[derive(Debug, Clone, Default)]
pub struct IntervalIndex {
    procs: Vec<ProcIndex>,
}

impl IntervalIndex {
    /// Builds the index for every process of `store` — one O(entries)
    /// pass per log.
    pub fn build(store: &LogStore) -> IntervalIndex {
        let mut span = ppd_obs::span("log", "index_build");
        span.arg("procs", store.process_count());
        let procs = (0..store.process_count())
            .map(|p| {
                let proc = ProcId(p as u32);
                Self::build_proc(proc, &store.log(proc).entries)
            })
            .collect();
        IntervalIndex { procs }
    }

    fn build_proc(proc: ProcId, entries: &[LogEntry]) -> ProcIndex {
        Self::build_proc_events(
            proc,
            entries.iter().enumerate().filter_map(|(pos, e)| StructEvent::of_entry(pos, e)),
        )
    }

    /// Builds one process's index from its structural-event stream —
    /// the single shared implementation behind both the raw-entry scan
    /// and the footer-digest load.
    fn build_proc_events(proc: ProcId, events: impl IntoIterator<Item = StructEvent>) -> ProcIndex {
        let events = events.into_iter();
        let hint = events.size_hint().0;
        Self::build_proc_events_hinted(proc, events, hint)
    }

    /// [`Self::build_proc_events`] with an explicit event-count hint,
    /// for streams (like chained segment digests) whose iterators
    /// cannot report their length.
    fn build_proc_events_hinted(
        proc: ProcId,
        events: impl IntoIterator<Item = StructEvent>,
        hint: usize,
    ) -> ProcIndex {
        let mut idx = ProcIndex::default();
        // Every prelog becomes one interval; a paired stream is half
        // prelogs, so this reserve is exact for complete logs.
        let guess = hint / 2 + 1;
        idx.intervals.reserve(guess);
        idx.by_key.reserve(guess);
        // Stack of positions (into `idx.intervals`) of currently open
        // intervals; the top is the innermost.
        let mut stack: Vec<usize> = Vec::new();
        Self::feed_events(&mut idx, proc, &mut stack, events);
        // Whatever is still on the stack was open at the halt,
        // outermost first (§5.3 starts from the innermost = last).
        idx.open = stack;
        idx
    }

    /// The single stack-matching event loop shared by the full build
    /// and the incremental extension: feeds `events` into `idx`,
    /// pushing prelogs onto (and popping postlogs off) `stack`.
    fn feed_events(
        idx: &mut ProcIndex,
        proc: ProcId,
        stack: &mut Vec<usize>,
        events: impl IntoIterator<Item = StructEvent>,
    ) {
        for ev in events {
            if ev.is_prelog {
                let slot = idx.intervals.len();
                let parent = stack.last().copied();
                idx.intervals.push(IndexedInterval {
                    interval: IntervalRef {
                        proc,
                        eblock: ev.eblock,
                        instance: ev.instance,
                        prelog_pos: ev.pos,
                        postlog_pos: None,
                    },
                    parent,
                    children: Vec::new(),
                    start_time: ev.time,
                    end_time: u64::MAX,
                });
                match parent {
                    Some(p) => idx.intervals[p].children.push(slot),
                    None => idx.top_level.push(slot),
                }
                idx.by_key.insert((ev.eblock, ev.instance), slot);
                stack.push(slot);
            } else {
                // Intervals nest, so the matching prelog is normally
                // the stack top; search downward anyway so a corrupt
                // log degrades to unmatched intervals instead of a
                // mis-paired index.
                let found = stack.iter().rposition(|&slot| {
                    let iv = &idx.intervals[slot].interval;
                    iv.eblock == ev.eblock && iv.instance == ev.instance
                });
                if let Some(depth) = found {
                    let slot = stack.remove(depth);
                    idx.intervals[slot].interval.postlog_pos = Some(ev.pos);
                    idx.intervals[slot].end_time = ev.time;
                }
            }
        }
    }

    /// Builds the whole-execution index from per-process
    /// structural-event streams — how a [`crate::segment::SegmentedLog`]
    /// turns its footer digests into the same index a full entry scan
    /// would produce, without decoding a single entry.
    pub(crate) fn build_from_events<I>(streams: Vec<(ProcId, usize, I)>) -> IntervalIndex
    where
        I: IntoIterator<Item = StructEvent>,
    {
        let mut span = ppd_obs::span("log", "index_from_digests");
        span.arg("procs", streams.len());
        IntervalIndex {
            procs: streams
                .into_iter()
                .map(|(proc, hint, events)| Self::build_proc_events_hinted(proc, events, hint))
                .collect(),
        }
    }

    /// A copy of this index extended with new structural events — the
    /// incremental path behind [`crate::segment::SegmentedLog::refresh`].
    /// Each process's saved open-interval list *is* the stack-matching
    /// state at the point its last build stopped (the stack is stored
    /// verbatim at the end of the feed loop), so extension resumes that
    /// stack and feeds only the events beyond the old log length. The
    /// result is identical to rebuilding from the full event stream,
    /// because both run the same feed loop over the same total
    /// sequence.
    pub(crate) fn extend_from_events<I>(&self, streams: Vec<(ProcId, usize, I)>) -> IntervalIndex
    where
        I: IntoIterator<Item = StructEvent>,
    {
        let mut span = ppd_obs::span("log", "index_extend");
        span.arg("procs", streams.len());
        let mut procs: Vec<ProcIndex> = self.procs.clone();
        for (proc, hint, events) in streams {
            let p = proc.index();
            if p >= procs.len() {
                procs.resize_with(p + 1, ProcIndex::default);
            }
            let idx = &mut procs[p];
            idx.intervals.reserve(hint / 2 + 1);
            // Resume the matching stack exactly where the prior build
            // halted.
            let mut stack = std::mem::take(&mut idx.open);
            Self::feed_events(idx, proc, &mut stack, events);
            idx.open = stack;
        }
        IntervalIndex { procs }
    }

    /// Number of indexed processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// All intervals of `proc` in prelog order (outer intervals appear
    /// before the intervals nested inside them — Figure 5.1/5.2).
    pub fn intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        self.procs[proc.index()].intervals.iter().map(|i| i.interval).collect()
    }

    /// Total interval count for `proc` without materializing the list.
    pub fn interval_count(&self, proc: ProcId) -> usize {
        self.procs[proc.index()].intervals.len()
    }

    /// The intervals of `proc` still open when execution stopped —
    /// innermost last (§5.3).
    pub fn open_intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        let p = &self.procs[proc.index()];
        p.open.iter().map(|&i| p.intervals[i].interval).collect()
    }

    /// The top-level (unnested) intervals of `proc`, in log order.
    pub fn top_level(&self, proc: ProcId) -> Vec<IntervalRef> {
        let p = &self.procs[proc.index()];
        p.top_level.iter().map(|&i| p.intervals[i].interval).collect()
    }

    /// O(1) lookup of a specific dynamic e-block execution.
    pub fn find(&self, proc: ProcId, eblock: EBlockId, instance: u64) -> Option<IntervalRef> {
        let p = &self.procs[proc.index()];
        p.by_key.get(&(eblock, instance)).map(|&i| p.intervals[i].interval)
    }

    /// The direct child intervals of `parent`, in log order — the
    /// nesting structure of Figure 5.2.
    pub fn direct_children(&self, parent: IntervalRef) -> Vec<IntervalRef> {
        let p = &self.procs[parent.proc.index()];
        match p.by_key.get(&(parent.eblock, parent.instance)) {
            Some(&slot) => {
                p.intervals[slot].children.iter().map(|&c| p.intervals[c].interval).collect()
            }
            None => Vec::new(),
        }
    }

    /// The directly enclosing interval of `child`, if any.
    pub fn parent_of(&self, child: IntervalRef) -> Option<IntervalRef> {
        let p = &self.procs[child.proc.index()];
        let slot = *p.by_key.get(&(child.eblock, child.instance))?;
        p.intervals[slot].parent.map(|pp| p.intervals[pp].interval)
    }

    /// The latest interval of `proc` with e-block `eblock` whose time
    /// span covers logical time `t` (§5.6's cross-process lookup).
    pub fn interval_covering(&self, proc: ProcId, eblock: EBlockId, t: u64) -> Option<IntervalRef> {
        self.procs[proc.index()]
            .intervals
            .iter()
            .rev()
            .find(|i| i.interval.eblock == eblock && i.start_time <= t && t <= i.end_time)
            .map(|i| i.interval)
    }

    /// The latest (hence innermost among overlapping candidates) interval
    /// of `proc` whose `[start, end]` time span overlaps `[lo, hi]` — how
    /// the Controller locates the writer's interval for a cross-process
    /// dependence or race explanation (§5.6, §6.3).
    pub fn covering_window(&self, proc: ProcId, lo: u64, hi: u64) -> Option<IntervalRef> {
        self.procs[proc.index()]
            .intervals
            .iter()
            .rev()
            .find(|i| i.start_time <= hi && i.end_time >= lo)
            .map(|i| i.interval)
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

    /// Figure 5.2: SubJ's interval contains SubK's.
    fn fig52_store() -> LogStore {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        s.push(p, postlog(1, 0, 3));
        s.push(p, postlog(0, 0, 4));
        s
    }

    #[test]
    fn index_agrees_with_store_scan() {
        let s = fig52_store();
        let idx = IntervalIndex::build(&s);
        assert_eq!(idx.intervals(ProcId(0)), s.intervals(ProcId(0)));
    }

    #[test]
    fn fig52_nesting_links() {
        let s = fig52_store();
        let idx = IntervalIndex::build(&s);
        let ivs = idx.intervals(ProcId(0));
        // Outer (SubJ) before inner (SubK) — Figure 5.1 ordering.
        assert_eq!(ivs[0].eblock, EBlockId(0));
        assert_eq!(ivs[1].eblock, EBlockId(1));
        // Parent/child links mirror Figure 5.2.
        assert_eq!(idx.direct_children(ivs[0]), vec![ivs[1]]);
        assert_eq!(idx.parent_of(ivs[1]), Some(ivs[0]));
        assert_eq!(idx.parent_of(ivs[0]), None);
        assert_eq!(idx.top_level(ProcId(0)), vec![ivs[0]]);
        // O(1) lookup.
        assert_eq!(idx.find(ProcId(0), EBlockId(1), 0), Some(ivs[1]));
        assert_eq!(idx.find(ProcId(0), EBlockId(7), 0), None);
    }

    #[test]
    fn open_intervals_after_breakpoint_halt() {
        // Fig 5.1 shape at a halt: Main and the nested SubK interval both
        // lack postlogs; the innermost open interval is last (§5.3).
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        s.push(p, postlog(1, 0, 3));
        s.push(p, prelog(2, 0, 4)); // halted inside EBlock 2
        let idx = IntervalIndex::build(&s);
        let open = idx.open_intervals(p);
        assert_eq!(open.len(), 2);
        assert_eq!(open[0].eblock, EBlockId(0), "outermost first");
        assert_eq!(open.last().unwrap().eblock, EBlockId(2), "innermost last");
        assert_eq!(open, s.open_intervals(p));
    }

    #[test]
    fn recursive_instances_nest_by_instance() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(0, 1, 2)); // recursive call, same e-block
        s.push(p, postlog(0, 1, 3));
        s.push(p, postlog(0, 0, 4));
        let idx = IntervalIndex::build(&s);
        let outer = idx.find(p, EBlockId(0), 0).unwrap();
        let inner = idx.find(p, EBlockId(0), 1).unwrap();
        assert_eq!(outer.postlog_pos, Some(3));
        assert_eq!(inner.postlog_pos, Some(2));
        assert_eq!(idx.parent_of(inner), Some(outer));
        assert_eq!(idx.direct_children(outer), vec![inner]);
    }

    #[test]
    fn grandchildren_are_not_direct_children() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        s.push(p, prelog(2, 0, 3));
        s.push(p, postlog(2, 0, 4));
        s.push(p, postlog(1, 0, 5));
        s.push(p, prelog(2, 1, 6)); // second child of EBlock 1? no — of 0
        s.push(p, postlog(2, 1, 7));
        s.push(p, postlog(0, 0, 8));
        let idx = IntervalIndex::build(&s);
        let root = idx.find(p, EBlockId(0), 0).unwrap();
        let kids = idx.direct_children(root);
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].eblock, EBlockId(1));
        assert_eq!(kids[1].eblock, EBlockId(2));
        assert_eq!(kids[1].instance, 1);
        // The grandchild hangs off EBlock 1, not the root.
        let mid = idx.find(p, EBlockId(1), 0).unwrap();
        assert_eq!(idx.direct_children(mid), vec![idx.find(p, EBlockId(2), 0).unwrap()]);
    }

    #[test]
    fn covering_queries_use_time_spans() {
        let s = fig52_store();
        let idx = IntervalIndex::build(&s);
        let iv = idx.interval_covering(ProcId(0), EBlockId(0), 2).unwrap();
        assert_eq!(iv.eblock, EBlockId(0));
        assert!(idx.interval_covering(ProcId(0), EBlockId(1), 9).is_none());
        // Window overlap picks the innermost (latest) candidate.
        let w = idx.covering_window(ProcId(0), 2, 3).unwrap();
        assert_eq!(w.eblock, EBlockId(1));
        assert!(idx.covering_window(ProcId(0), 9, 10).is_none());
    }
}
