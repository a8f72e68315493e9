//! Trace events and tracer hooks.
//!
//! The "emulation package" (§5.3) is this same interpreter run in a mode
//! that "generates a trace of every useful event". Events flow into a
//! [`Tracer`]; the debugging phase's dynamic-graph builder consumes them,
//! and the benchmark harness counts them (experiment E2 compares full
//! trace volume against log volume).

use ppd_analysis::EBlockId;
use ppd_lang::{FuncId, ProcId, StmtId, VarId};

/// A memory cell: a scalar variable or one array element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// The variable.
    pub var: VarId,
    /// The element index for arrays.
    pub index: Option<usize>,
}

impl CellRef {
    /// A scalar cell.
    pub fn scalar(var: VarId) -> CellRef {
        CellRef { var, index: None }
    }

    /// An array element cell.
    pub fn element(var: VarId, index: usize) -> CellRef {
        CellRef { var, index: Some(index) }
    }
}

/// Where a value consumed by an event came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// A read of a memory cell.
    Cell(CellRef),
    /// The result of a completed call; `call_seq` is the `seq` of the
    /// corresponding `CallEnter` event (the `%0` of §4.2).
    CallResult {
        /// Sequence number of the call's `CallEnter` event.
        call_seq: u64,
    },
    /// A value that arrived from outside the process: program input or a
    /// message payload. Cross-process dependences are recovered through
    /// the parallel dynamic graph, not through the trace.
    External,
}

/// The kind of synchronization operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// Semaphore wait.
    P,
    /// Semaphore signal.
    V,
    /// Lock acquire.
    Lock,
    /// Lock release.
    Unlock,
    /// Blocking send.
    Send,
    /// Non-blocking send.
    ASend,
    /// Receive.
    Recv,
    /// Rendezvous call.
    Rendezvous,
    /// Rendezvous accept.
    Accept,
}

/// What a trace event describes.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A value was assigned (or a declaration initialized).
    Assign,
    /// A control predicate was evaluated.
    Predicate {
        /// Whether the true branch was taken.
        taken: bool,
    },
    /// A function call began; arguments and per-argument read fan-in.
    CallEnter {
        /// The callee.
        func: FuncId,
        /// Evaluated argument values with the reads that produced each.
        args: Vec<(i64, Vec<ReadSource>)>,
        /// Whether the call was *substituted* from a logged postlog
        /// instead of executed (§5.2) — the resulting sub-graph node is
        /// unexpanded.
        substituted: bool,
    },
    /// A function call completed.
    CallExit {
        /// The callee.
        func: FuncId,
        /// Its return value, if any.
        ret: Option<i64>,
    },
    /// A `return` statement executed.
    Return,
    /// `print` produced output.
    Print,
    /// An `assert` passed.
    AssertPass,
    /// An `assert` failed — the externally visible failure (§1).
    AssertFail,
    /// A synchronization operation.
    Sync {
        /// Which operation.
        kind: SyncKind,
    },
    /// During replay, a loop with its own e-block was skipped and its
    /// postlog applied (§5.4) — an unexpanded sub-graph node.
    LoopSubstituted {
        /// The loop's e-block.
        eblock: EBlockId,
    },
    /// The statement failed. The event's `reads` are the cells consumed
    /// before the failure — the immediate suspects flowback starts from.
    Failure {
        /// Human-readable description of the failure.
        message: String,
    },
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The process that produced the event.
    pub proc: ProcId,
    /// The statement being executed.
    pub stmt: StmtId,
    /// Global sequence number (logical time).
    pub seq: u64,
    /// The event kind.
    pub kind: EventKind,
    /// The reads that fed the event, in evaluation order.
    pub reads: Vec<ReadSource>,
    /// The cell written, if the event wrote one.
    pub write: Option<(CellRef, i64)>,
    /// The headline value: assigned value, predicate result (0/1),
    /// printed value, sent/received payload, return value.
    pub value: Option<i64>,
}

impl TraceEvent {
    /// Approximate trace-record size in bytes, the E2 currency.
    pub fn size_bytes(&self) -> usize {
        24 + 12 * self.reads.len()
            + if self.write.is_some() { 16 } else { 0 }
            + match &self.kind {
                EventKind::CallEnter { args, .. } => {
                    args.iter().map(|(_, rs)| 12 + 12 * rs.len()).sum()
                }
                _ => 0,
            }
    }
}

/// A sink for trace events.
pub trait Tracer {
    /// Called once per event, in global execution order.
    fn event(&mut self, event: &TraceEvent);
}

/// Discards everything — the uninstrumented baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn event(&mut self, _event: &TraceEvent) {}
}

/// Stores every event — the emulation package's full trace.
#[derive(Debug, Clone, Default)]
pub struct VecTracer {
    /// The recorded events.
    pub events: Vec<TraceEvent>,
}

impl VecTracer {
    /// Drops recorded events but keeps the allocation, so one tracer can
    /// serve many replays as a reusable sink.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Takes the recorded events, leaving the tracer empty (allocation
    /// handed to the caller).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Tracer for VecTracer {
    fn event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Counts events and bytes without storing them — used to measure what a
/// trace-everything debugger *would* have written (experiment E2).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingTracer {
    /// Number of events seen.
    pub events: u64,
    /// Total estimated bytes.
    pub bytes: u64,
}

impl Tracer for CountingTracer {
    fn event(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.bytes += event.size_bytes() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            proc: ProcId(0),
            stmt: StmtId(1),
            seq: 9,
            kind: EventKind::Assign,
            reads: vec![ReadSource::Cell(CellRef::scalar(VarId(0)))],
            write: Some((CellRef::scalar(VarId(1)), 5)),
            value: Some(5),
        }
    }

    #[test]
    fn vec_tracer_stores() {
        let mut t = VecTracer::default();
        t.event(&sample());
        t.event(&sample());
        assert_eq!(t.events.len(), 2);
    }

    #[test]
    fn counting_tracer_counts() {
        let mut t = CountingTracer::default();
        t.event(&sample());
        assert_eq!(t.events, 1);
        assert_eq!(t.bytes, sample().size_bytes() as u64);
        assert_eq!(sample().size_bytes(), 24 + 12 + 16);
    }

    #[test]
    fn call_enter_size_includes_args() {
        let e = TraceEvent {
            kind: EventKind::CallEnter {
                func: FuncId(0),
                args: vec![(1, vec![ReadSource::External]), (2, vec![])],
                substituted: false,
            },
            reads: vec![],
            write: None,
            value: None,
            proc: ProcId(0),
            stmt: StmtId(0),
            seq: 0,
        };
        assert_eq!(e.size_bytes(), 24 + (12 + 12) + 12);
    }

    #[test]
    fn cell_constructors() {
        assert_eq!(CellRef::scalar(VarId(3)).index, None);
        assert_eq!(CellRef::element(VarId(3), 7).index, Some(7));
    }
}
