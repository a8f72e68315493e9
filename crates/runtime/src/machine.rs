//! The execution substrate: a deterministic multi-process interpreter
//! simulating the paper's shared-memory multiprocessor.
//!
//! One [`Machine`] plays all three of the paper's runtime roles:
//!
//! - **object code** (§3.2.2/§5.3): normal mode with a logging plan —
//!   executes all processes under a scheduler, emitting prelogs,
//!   postlogs, shared-variable snapshots and external-value records,
//!   and building the parallel dynamic graph;
//! - **uninstrumented program**: normal mode without a plan — the
//!   baseline for the overhead experiment E9;
//! - **emulation package** (§5.3): replay mode — re-executes a single
//!   e-block from its prelog, generating a full trace of every event,
//!   consuming logged external values and substituting nested e-blocks'
//!   postlogs (§5.2).
//!
//! Execution is an explicit task machine: each scheduler step runs one
//! micro-task (evaluate a sub-expression, dispatch a statement, ...), so
//! processes interleave at fine grain and can block anywhere — including
//! inside nested function calls holding locks.

use crate::error::{BlockReason, Outcome, RuntimeError};
use crate::event::{CellRef, EventKind, ReadSource, SyncKind, TraceEvent, Tracer};
use crate::sched::{Scheduler, SchedulerSpec};
use ppd_analysis::{Analyses, EBlockId, EBlockPlan, Region, VarSet, VarSetRepr};
use ppd_graph::parallel::{ParallelGraph, SyncEdgeLabel, SyncNodeId, SyncNodeKind};
use ppd_lang::ast::*;
use ppd_lang::{BodyId, CellMap, ChanId, ChanRef, FuncId, ProcId, ResolvedProgram, Value, VarId};
use ppd_log::{IntervalRef, LogCursor, LogEntry, LogStore, SegError};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

/// Configuration for a normal (execution-phase) run.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Scheduling policy.
    pub scheduler: SchedulerSpec,
    /// Per-process input streams (indexed by `ProcId`; missing = empty).
    pub inputs: Vec<Vec<i64>>,
    /// Step budget (guards runaway loops).
    pub max_steps: u64,
    /// Whether to build the parallel dynamic graph during execution.
    pub build_parallel_graph: bool,
    /// Statements that halt the whole execution when about to run —
    /// the paper's user-intervention halt (\[24\], §3.2.2). Every process
    /// stops, leaving open log intervals for the debugging phase.
    pub breakpoints: Vec<ppd_lang::StmtId>,
    /// Meter the instrumented object code: attribute wall time and
    /// bytes to every prelog/postlog/snapshot write, per e-block (the
    /// §7 overhead meter). Off by default — metering itself reads the
    /// clock twice per log write, which would perturb the very
    /// measurements experiment E9 makes.
    pub meter_logging: bool,
    /// Stream logs to a segmented on-disk store in this directory while
    /// the program runs, instead of keeping them in memory: every log
    /// write goes to a [`ppd_log::SegmentWriter`], which seals and
    /// flushes full segments during execution, and
    /// [`ExecResult::logs`] is `None`. `None` (the default) keeps logs
    /// purely in memory. Only meaningful when a plan is supplied.
    pub log_dir: Option<std::path::PathBuf>,
    /// Segment capacity in payload bytes for [`log_dir`](Self::log_dir)
    /// streaming; `0` uses [`ppd_log::DEFAULT_SEGMENT_BYTES`].
    pub segment_bytes: usize,
    /// Compress streamed segment payloads block-by-block as they are
    /// sealed ([`ppd_log::SegmentFormat::V2Compressed`]); off writes
    /// raw-escape v2 frames. Only meaningful with
    /// [`log_dir`](Self::log_dir).
    pub compress: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            scheduler: SchedulerSpec::RoundRobin,
            inputs: Vec::new(),
            max_steps: 2_000_000,
            build_parallel_graph: true,
            breakpoints: Vec::new(),
            meter_logging: false,
            log_dir: None,
            segment_bytes: 0,
            compress: false,
        }
    }
}

/// Logging cost attributed to one e-block by the §7 overhead meter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EBlockLogCost {
    /// Prelogs written for this e-block.
    pub prelog_count: u64,
    /// Bytes those prelogs occupy in the log.
    pub prelog_bytes: u64,
    /// Wall time spent capturing and writing them, in nanoseconds.
    pub prelog_ns: u64,
    /// Postlogs written for this e-block.
    pub postlog_count: u64,
    /// Bytes those postlogs occupy in the log.
    pub postlog_bytes: u64,
    /// Wall time spent capturing and writing them, in nanoseconds.
    pub postlog_ns: u64,
}

/// Per-e-block attribution of the instrumented object code's logging
/// cost (prelog vs. postlog bytes and time), filled in when
/// [`ExecConfig::meter_logging`] is set.
#[derive(Debug, Clone, Default)]
pub struct LogMeter {
    /// Cost per e-block.
    pub per_eblock: HashMap<EBlockId, EBlockLogCost>,
    /// Shared-snapshot writes (§5.5), not attributable to one e-block.
    pub snapshot_count: u64,
    /// Bytes those snapshots occupy.
    pub snapshot_bytes: u64,
    /// Wall time spent writing them, in nanoseconds.
    pub snapshot_ns: u64,
}

impl LogMeter {
    /// Total nanoseconds spent in logging instrumentation.
    pub fn total_ns(&self) -> u64 {
        self.snapshot_ns + self.per_eblock.values().map(|c| c.prelog_ns + c.postlog_ns).sum::<u64>()
    }

    /// Total bytes written to the logs.
    pub fn total_bytes(&self) -> u64 {
        self.snapshot_bytes
            + self.per_eblock.values().map(|c| c.prelog_bytes + c.postlog_bytes).sum::<u64>()
    }

    /// Total log records written.
    pub fn total_count(&self) -> u64 {
        self.snapshot_count
            + self.per_eblock.values().map(|c| c.prelog_count + c.postlog_count).sum::<u64>()
    }

    fn note(&mut self, record: Record, bytes: u64, ns: u64) {
        let (count, total_bytes, total_ns) = match record {
            Record::Prelog(eb) => {
                let c = self.per_eblock.entry(eb).or_default();
                (&mut c.prelog_count, &mut c.prelog_bytes, &mut c.prelog_ns)
            }
            Record::Postlog(eb) => {
                let c = self.per_eblock.entry(eb).or_default();
                (&mut c.postlog_count, &mut c.postlog_bytes, &mut c.postlog_ns)
            }
            Record::Snapshot => {
                (&mut self.snapshot_count, &mut self.snapshot_bytes, &mut self.snapshot_ns)
            }
        };
        *count += 1;
        *total_bytes += bytes;
        *total_ns += ns;
    }
}

/// A record the instrumented object code writes through
/// [`Machine::write_record`]: what the §7 meter charges it to.
#[derive(Debug, Clone, Copy)]
enum Record {
    /// An e-block's prelog (§5.1).
    Prelog(EBlockId),
    /// An e-block's postlog (§5.1).
    Postlog(EBlockId),
    /// A synchronization unit's shared snapshot (§5.5).
    Snapshot,
}

impl Record {
    fn span_name(self) -> &'static str {
        match self {
            Record::Prelog(_) => "prelog",
            Record::Postlog(_) => "postlog",
            Record::Snapshot => "snapshot",
        }
    }
}

/// Result of a normal run.
#[derive(Debug)]
pub struct ExecResult {
    /// How execution ended.
    pub outcome: Outcome,
    /// `print` output in emission order.
    pub output: Vec<(ProcId, i64)>,
    /// The in-memory logs, if a plan was supplied and
    /// [`ExecConfig::log_dir`] was not set: a streamed run's logs exist
    /// only on disk.
    pub logs: Option<LogStore>,
    /// The parallel dynamic graph, if requested.
    pub pgraph: Option<ParallelGraph>,
    /// Scheduler steps consumed.
    pub steps: u64,
    /// Trace events emitted (even if the tracer discarded them).
    pub events: u64,
    /// Per-e-block logging cost, when [`ExecConfig::meter_logging`] was
    /// set (and a plan was supplied).
    pub log_meter: Option<LogMeter>,
    /// The first error the streaming sink hit, if any: the run itself
    /// still completes, but the on-disk store, its only log, is
    /// incomplete and must not be trusted.
    pub sink_error: Option<String>,
}

/// Result of an e-block replay.
#[derive(Debug)]
pub struct ReplayResult {
    /// How the replay ended (`Completed`, or the original `Failed`).
    pub outcome: Outcome,
    /// Output produced during the replayed interval.
    pub output: Vec<(ProcId, i64)>,
    /// Steps consumed.
    pub steps: u64,
    /// Log entries read from the interval's cursor, counting the prelog
    /// restored at construction — the replay's scan cost.
    pub log_entries_consumed: u64,
}

/// How replay treats calls to functions that have their own e-blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestedCalls {
    /// Substitute the logged postlog (§5.2): the call becomes an
    /// unexpanded sub-graph node.
    Substitute,
    /// Execute the callee inline, producing its full trace too.
    Expand,
}

// ---------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Task<'p> {
    Block { stmts: &'p [Stmt], next: usize },
    Stmt(&'p Stmt),
    Eval(&'p Expr),
    AssignAfter { stmt: &'p Stmt, target: &'p LValue },
    DeclAssign { stmt: &'p Stmt, var: VarId },
    IfAfter { stmt: &'p Stmt },
    WhileLoop { stmt: &'p Stmt },
    WhileAfter { stmt: &'p Stmt },
    ForCheck { stmt: &'p Stmt },
    ForAfter { stmt: &'p Stmt },
    ReturnAfter { stmt: &'p Stmt },
    ReturnVoid { stmt: &'p Stmt },
    PrintAfter { stmt: &'p Stmt },
    AssertAfter { stmt: &'p Stmt },
    ExprStmtAfter,
    BinAfter { op: BinOp },
    ShortCircuit { op: BinOp, rhs: &'p Expr },
    NormBool,
    UnAfter { op: UnOp },
    IndexAfter { var: VarId },
    ArgMark,
    CallAfter { func: FuncId, argc: usize },
    SendAfter { stmt: &'p Stmt, to: Queue, blocking: bool },
    RecvAfter { stmt: &'p Stmt, from: Queue, target: &'p LValue, has_index: bool },
    RendezvousAfter { stmt: &'p Stmt, callee: ProcId },
    AcceptEnd { caller: ProcId, caller_stmt: ppd_lang::StmtId },
    CloseLoopInterval { eblock: EBlockId, instance: u64 },
    SemWait { stmt: &'p Stmt, sem: ppd_lang::SemId, lock: bool },
    AcceptWait { stmt: &'p Stmt },
}

#[derive(Debug)]
struct Frame<'p> {
    body: BodyId,
    func: Option<FuncId>,
    locals: Locals,
    tasks: Vec<Task<'p>>,
    values: Vec<i64>,
    pending_reads: Vec<ReadSource>,
    arg_marks: Vec<usize>,
    /// Logging intervals opened in this frame, innermost last.
    open_intervals: Vec<(EBlockId, u64)>,
    /// The statement currently being executed (for event attribution).
    current_stmt: Option<&'p Stmt>,
    /// Sequence number of this frame's CallEnter event.
    call_seq: u64,
}

impl<'p> Frame<'p> {
    fn new(body: BodyId, func: Option<FuncId>, vars: Range<usize>) -> Frame<'p> {
        Frame {
            body,
            func,
            locals: Locals::new(vars),
            tasks: Vec::new(),
            values: Vec::new(),
            pending_reads: Vec::new(),
            arg_marks: Vec::new(),
            open_intervals: Vec::new(),
            current_stmt: None,
            call_seq: 0,
        }
    }

    /// Empties this frame for a call of `func`, keeping its buffers.
    fn reuse(&mut self, func: FuncId, vars: Range<usize>) {
        self.body = BodyId::Func(func);
        self.func = Some(func);
        self.locals.reset(vars);
        self.tasks.clear();
        self.values.clear();
        self.pending_reads.clear();
        self.arg_marks.clear();
        self.open_intervals.clear();
        self.current_stmt = None;
        self.call_seq = 0;
    }
}

/// A frame's local variables: one slot per local of its body, which the
/// resolver numbers contiguously ([`ResolvedProgram::body_locals`]). A
/// slot is `None` until its declaration runs.
#[derive(Debug)]
struct Locals {
    first: usize,
    slots: Vec<Option<Value>>,
}

impl Locals {
    fn new(vars: Range<usize>) -> Locals {
        Locals { first: vars.start, slots: vec![None; vars.len()] }
    }

    /// Empties every slot and renumbers them for `vars`, keeping the
    /// buffer.
    fn reset(&mut self, vars: Range<usize>) {
        self.first = vars.start;
        self.slots.clear();
        self.slots.resize(vars.len(), None);
    }

    fn get(&self, var: &VarId) -> Option<&Value> {
        self.slots.get(var.index().wrapping_sub(self.first))?.as_ref()
    }

    fn get_mut(&mut self, var: &VarId) -> Option<&mut Value> {
        self.slots.get_mut(var.index().wrapping_sub(self.first))?.as_mut()
    }

    /// Sets a local of this frame's body. Any other variable has no slot
    /// here and no code of the body reads it, so it is dropped.
    fn insert(&mut self, var: VarId, value: Value) {
        if let Some(slot) = self.slots.get_mut(var.index().wrapping_sub(self.first)) {
            *slot = Some(value);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(BlockReason),
    Done,
}

#[derive(Debug)]
struct ProcState<'p> {
    id: ProcId,
    frames: Vec<Frame<'p>>,
    status: Status,
}

/// A message queue as a `send` or `recv` names it: a process's mailbox
/// or a channel, whose `chan` parameter is resolved when the operation
/// runs.
#[derive(Debug, Clone, Copy)]
enum Queue {
    Mailbox(ProcId),
    Chan(ChanRef),
}

#[derive(Debug, Clone)]
struct Message {
    value: i64,
    sender: ProcId,
    send_node: Option<SyncNodeId>,
    blocking: bool,
    /// The send statement — the key of the sender's post-unblock
    /// synchronization-unit snapshot.
    send_stmt: ppd_lang::StmtId,
}

#[derive(Debug, Clone)]
struct RdvCall {
    caller: ProcId,
    value: i64,
    call_node: Option<SyncNodeId>,
    call_stmt: ppd_lang::StmtId,
}

#[derive(Debug, Clone)]
struct SemState {
    count: i64,
    /// The V that took the count 0→1, eligible to pair with the next P
    /// (§6.2.1), cleared by any subsequent operation on the semaphore.
    pending_v: Option<(ProcId, SyncNodeId)>,
}

struct ReplayState<'p> {
    cursor: LogCursor<'p>,
    nested: NestedCalls,
    /// "What-if" replay (§5.7): shared snapshots are not re-applied, so
    /// user modifications survive; use with [`NestedCalls::Expand`].
    what_if: bool,
}

impl ReplayState<'_> {
    /// The one reader of logged external values (§5.3): consumes the
    /// next entry whose variant `is_kind` accepts and returns its value
    /// (an input, a received message or an element read).
    fn value(&mut self, is_kind: fn(&LogEntry) -> bool, what: &str) -> Result<i64, RuntimeError> {
        match self.cursor.seek(is_kind)? {
            Some(
                LogEntry::Input { value, .. }
                | LogEntry::Receive { value, .. }
                | LogEntry::ElementRead { value, .. },
            ) => Ok(value),
            _ => Err(RuntimeError::LogMismatch(format!("expected {what}"))),
        }
    }
}

/// The interpreter.
pub struct Machine<'p> {
    rp: &'p ResolvedProgram,
    analyses: &'p Analyses,
    plan: Option<&'p EBlockPlan>,
    procs: Vec<ProcState<'p>>,
    shared: Vec<Value>,
    sems: Vec<SemState>,
    /// Every message queue: one mailbox per process, then one queue per
    /// channel (see [`Machine::queue_slot`]).
    queues: Vec<VecDeque<Message>>,
    rdv_queues: Vec<VecDeque<RdvCall>>,
    scheduler: Scheduler,
    inputs: Vec<(Vec<i64>, usize)>,
    output: Vec<(ProcId, i64)>,
    pgraph: Option<ParallelGraph>,
    logs: Option<LogStore>,
    /// Per process, the next instance of each e-block (by `EBlockId`).
    eb_counters: Vec<Vec<u64>>,
    replay: Option<ReplayState<'p>>,
    /// When replaying a loop region, the loop statement itself (so it is
    /// executed rather than substituted).
    replay_root: Option<ppd_lang::StmtId>,
    breakpoints: Vec<ppd_lang::StmtId>,
    hit_breakpoint: Option<(ProcId, ppd_lang::StmtId)>,
    /// Element-granular cell layout, kept while the parallel graph is
    /// built: it records array accesses per element so race scans can
    /// distinguish `a[0]` from `a[1]`.
    cells: Option<CellMap>,
    /// The run loop's runnable processes, refilled every step.
    runnable: Vec<ProcId>,
    /// Frames of returned calls, whose buffers the next call reuses.
    spare_frames: Vec<Frame<'p>>,
    clock: u64,
    steps: u64,
    max_steps: u64,
    events: u64,
    log_meter: Option<LogMeter>,
    /// Streaming segment sink (§5.6 out-of-core logs): log writes go
    /// here, and not to `logs`, when [`ExecConfig::log_dir`] is set.
    sink: Option<ppd_log::SegmentWriter>,
    sink_error: Option<String>,
}

impl<'p> Machine<'p> {
    /// Builds a machine for a normal execution-phase run. Pass
    /// `plan: Some(..)` to run as instrumented object code that writes
    /// logs; `None` for the uninstrumented baseline.
    pub fn new(
        rp: &'p ResolvedProgram,
        analyses: &'p Analyses,
        plan: Option<&'p EBlockPlan>,
        config: ExecConfig,
    ) -> Machine<'p> {
        let nprocs = rp.procs.len();
        let breakpoints = config.breakpoints.clone();
        let mut inputs: Vec<(Vec<i64>, usize)> =
            config.inputs.into_iter().map(|v| (v, 0)).collect();
        inputs.resize(nprocs, (Vec::new(), 0));
        let mut sink = None;
        let mut sink_error = None;
        if let (Some(dir), true) = (config.log_dir.as_deref(), plan.is_some()) {
            let format = if config.compress {
                ppd_log::SegmentFormat::V2Compressed
            } else {
                ppd_log::SegmentFormat::default()
            };
            match ppd_log::SegmentWriter::create(dir, nprocs, config.segment_bytes, format) {
                Ok(w) => sink = Some(w),
                Err(e) => {
                    let err = format!("cannot create log sink: {e}");
                    ppd_obs::flight::note_with("runtime", "sink_error", err.clone());
                    sink_error = Some(err);
                }
            }
        }
        let cells = config.build_parallel_graph.then(|| CellMap::new(rp));
        let mut m = Machine {
            rp,
            analyses,
            plan,
            procs: Vec::new(),
            shared: init_shared(rp),
            sems: init_sems(rp),
            queues: vec![VecDeque::new(); nprocs + rp.chans.len()],
            rdv_queues: vec![VecDeque::new(); nprocs],
            scheduler: config.scheduler.build(),
            inputs,
            output: Vec::new(),
            pgraph: cells.as_ref().map(|c| ParallelGraph::with_cells(c.total(), c.table())),
            cells,
            runnable: Vec::with_capacity(nprocs),
            spare_frames: Vec::new(),
            logs: (plan.is_some() && config.log_dir.is_none()).then(|| LogStore::new(nprocs)),
            eb_counters: vec![vec![0; plan.map_or(0, |p| p.eblocks().len())]; nprocs],
            replay: None,
            replay_root: None,
            breakpoints,
            hit_breakpoint: None,
            clock: 0,
            steps: 0,
            max_steps: config.max_steps,
            events: 0,
            log_meter: (config.meter_logging && plan.is_some()).then(LogMeter::default),
            sink,
            sink_error,
        };
        for i in 0..nprocs {
            let pid = ProcId(i as u32);
            let body = BodyId::Proc(pid);
            let mut frame = Frame::new(body, None, rp.body_locals(body));
            let block = rp.body_block(body);
            frame.tasks.push(Task::Block { stmts: &block.stmts, next: 0 });
            m.procs.push(ProcState { id: pid, frames: vec![frame], status: Status::Runnable });
            let t = m.tick();
            if let Some(g) = m.pgraph.as_mut() {
                g.start_process(pid, t);
            }
            m.open_body_interval(pid, body);
        }
        m
    }

    /// Builds a machine that replays one logged e-block interval (the
    /// emulation package, §5.3). The interval's prelog and every entry
    /// the replay consumes come through one [`LogCursor`], so a
    /// segment-backed store decodes only those entries; a damaged one
    /// ends the replay as [`RuntimeError::LogUnreadable`].
    ///
    /// With `stop_at`, the replay halts cleanly when that statement is
    /// about to execute — how an interval that was open at a breakpoint
    /// or deadlock is replayed up to exactly where the original
    /// execution stopped.
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] if the interval's prelog cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if the interval's e-block is not in `plan`, or is a loop
    /// e-block whose loop is not in its body (a log of another program).
    #[allow(clippy::too_many_arguments)]
    pub fn new_replay(
        rp: &'p ResolvedProgram,
        analyses: &'p Analyses,
        plan: &'p EBlockPlan,
        store: &'p LogStore,
        interval: IntervalRef,
        nested: NestedCalls,
        max_steps: u64,
        stop_at: Option<ppd_lang::StmtId>,
    ) -> Result<Machine<'p>, SegError> {
        let mut cursor = store.cursor(interval.proc, interval.prelog_pos);
        let prelog = cursor.next_entry()?;
        let eb = plan.eblock(interval.eblock);
        let body = eb.region.body();
        let func = match body {
            BodyId::Func(f) => Some(f),
            BodyId::Proc(_) => None,
        };
        let mut replay_root = None;
        let mut frame = Frame::new(body, func, rp.body_locals(body));
        match &eb.region {
            Region::Body(_) => {
                let block = rp.body_block(body);
                frame.tasks.push(Task::Block { stmts: &block.stmts, next: 0 });
            }
            Region::Loop { stmt, .. } => {
                let mut root = None;
                walk_stmts(rp.body_block(body), &mut |s| {
                    if s.id == *stmt {
                        root = Some(s);
                    }
                });
                replay_root = Some(*stmt);
                frame.tasks.push(Task::Stmt(root.expect("a loop e-block's loop is in its body")));
            }
            Region::Chunk { body: b, index, stmts } => {
                let max = plan
                    .strategy
                    .split_large
                    .expect("chunk regions only exist under a split strategy");
                let top = &rp.body_block(*b).stmts;
                let start = index * max;
                let slice = &top[start..start + stmts.len()];
                frame.tasks.push(Task::Block { stmts: slice, next: 0 });
            }
        }

        let mut m = Machine {
            rp,
            analyses,
            plan: Some(plan),
            procs: vec![ProcState {
                id: interval.proc,
                frames: vec![frame],
                status: Status::Runnable,
            }],
            shared: init_shared(rp),
            sems: init_sems(rp),
            queues: Vec::new(),
            rdv_queues: Vec::new(),
            scheduler: SchedulerSpec::PreferLowest.build(),
            inputs: Vec::new(),
            output: Vec::new(),
            pgraph: None,
            cells: None,
            runnable: Vec::new(),
            spare_frames: Vec::new(),
            logs: None,
            eb_counters: Vec::new(),
            replay: Some(ReplayState { cursor, nested, what_if: false }),
            replay_root,
            breakpoints: stop_at.into_iter().collect(),
            hit_breakpoint: None,
            clock: 0,
            steps: 0,
            max_steps,
            events: 0,
            log_meter: None,
            sink: None,
            sink_error: None,
        };
        // Restore the prelog: USED-set values at interval start (§5.1).
        if let Some(LogEntry::Prelog { values, .. }) = prelog {
            for (var, value) in values {
                m.restore_var(var, value);
            }
        }
        Ok(m)
    }

    /// Overrides a variable's value before a replay runs — the paper's
    /// §5.7 experiment: "change the values of variables and re-start the
    /// program from the same point to see the effect".
    ///
    /// For shared variables, combine with [`Machine::set_what_if`] so the
    /// logged snapshots do not immediately overwrite the change.
    pub fn override_var(&mut self, var: VarId, value: Value) {
        self.restore_var(var, value);
    }

    /// Enables what-if replay: logged shared snapshots are skipped, so
    /// the replay evolves from the (possibly modified) restored state
    /// instead of faithfully tracking the original execution.
    pub fn set_what_if(&mut self, enabled: bool) {
        if let Some(r) = self.replay.as_mut() {
            r.what_if = enabled;
        }
    }

    fn restore_var(&mut self, var: VarId, value: Value) {
        if self.rp.is_shared(var) {
            self.shared[var.index()] = value;
        } else {
            // A replay machine runs its one process.
            self.frame_mut(self.procs[0].id).locals.insert(var, value);
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Writes one log record to the run's one log: the streaming
    /// segment sink when [`ExecConfig::log_dir`] was set, else the
    /// in-memory store. A sink IO error disables the sink but never
    /// interrupts the run. Does nothing when the run keeps no log (the
    /// uninstrumented baseline and every replay).
    fn log_append(&mut self, pid: ProcId, entry: LogEntry) {
        if let Some(sink) = self.sink.as_mut() {
            sink.append(pid, &entry);
        } else if let Some(logs) = self.logs.as_mut() {
            logs.push(pid, entry);
        }
    }

    fn is_replay(&self) -> bool {
        self.replay.is_some()
    }

    /// The plan, when this machine writes e-block intervals: a logging
    /// run, never a replay.
    fn logging_plan(&self) -> Option<&'p EBlockPlan> {
        self.plan.filter(|_| !self.is_replay())
    }

    /// Whether the plan uses §7 element-granular array logging.
    fn element_logged(&self) -> bool {
        self.plan.is_some_and(|p| p.strategy.element_logged_arrays)
    }

    // -----------------------------------------------------------------
    // Run loops
    // -----------------------------------------------------------------

    /// Runs a normal execution to completion, failure, deadlock or step
    /// limit.
    pub fn run(mut self, tracer: &mut dyn Tracer) -> ExecResult {
        debug_assert!(!self.is_replay());
        let mut span = ppd_obs::span("runtime", "execute");
        span.arg("logged", self.plan.is_some());
        let outcome = self.run_loop(tracer);
        span.arg("steps", self.steps);
        ppd_obs::flight::note_with(
            "runtime",
            "execute_done",
            format!("outcome={outcome:?} steps={}", self.steps),
        );
        let mut sink_error = self.sink_error;
        if let Some(Err(e)) = self.sink.map(|sink| sink.finish()) {
            sink_error = sink_error.or_else(|| Some(e.to_string()));
        }
        if let Some(err) = &sink_error {
            ppd_obs::flight::note_with("runtime", "sink_error", err.clone());
        }
        ExecResult {
            outcome,
            output: self.output,
            logs: self.logs,
            pgraph: self.pgraph,
            steps: self.steps,
            events: self.events,
            log_meter: self.log_meter,
            sink_error,
        }
    }

    /// Runs a replay to the end of its region.
    pub fn run_replay(mut self, tracer: &mut dyn Tracer) -> ReplayResult {
        debug_assert!(self.is_replay());
        let _span = ppd_obs::span("runtime", "run_replay");
        let start = self.replay.as_ref().map_or(0, |r| r.cursor.position());
        let outcome = self.run_loop(tracer);
        let end = self.replay.as_ref().map_or(start, |r| r.cursor.position());
        ReplayResult {
            outcome,
            output: self.output,
            steps: self.steps,
            log_entries_consumed: (end - start) as u64 + 1,
        }
    }

    fn run_loop(&mut self, tracer: &mut dyn Tracer) -> Outcome {
        loop {
            if let Some((proc, stmt)) = self.hit_breakpoint.take() {
                return Outcome::Breakpoint { proc, stmt };
            }
            if self.steps >= self.max_steps {
                return Outcome::StepLimit;
            }
            self.runnable.clear();
            let runnable = self.procs.iter().filter(|p| p.status == Status::Runnable).map(|p| p.id);
            self.runnable.extend(runnable);
            if self.runnable.is_empty() {
                let blocked: Vec<(ProcId, BlockReason, ppd_lang::StmtId)> = self
                    .procs
                    .iter()
                    .filter_map(|p| match p.status {
                        Status::Blocked(r) => {
                            let stmt = p
                                .frames
                                .last()
                                .and_then(|f| f.current_stmt)
                                .map(|s| s.id)
                                .unwrap_or(ppd_lang::StmtId(0));
                            Some((p.id, r, stmt))
                        }
                        _ => None,
                    })
                    .collect();
                return if blocked.is_empty() {
                    Outcome::Completed
                } else {
                    Outcome::Deadlock { blocked }
                };
            }
            let pid = self.scheduler.pick(&self.runnable);
            self.steps += 1;
            if let Err(error) = self.step(pid, tracer) {
                let stmt = self
                    .proc(pid)
                    .frames
                    .last()
                    .and_then(|f| f.current_stmt)
                    .map(|s| s.id)
                    .unwrap_or(ppd_lang::StmtId(0));
                // Surface the failure as a trace event carrying the reads
                // accumulated so far — the starting point of flowback.
                self.emit(
                    pid,
                    stmt,
                    EventKind::Failure { message: error.to_string() },
                    None,
                    None,
                    tracer,
                );
                return Outcome::Failed { proc: pid, stmt, error };
            }
        }
    }

    fn proc(&self, pid: ProcId) -> &ProcState<'p> {
        &self.procs[self.proc_ix(pid)]
    }

    /// Where `pid` is in `procs`: a run holds every process at its own
    /// index, a replay machine its one process.
    fn proc_ix(&self, pid: ProcId) -> usize {
        let ix = if self.is_replay() { 0 } else { pid.index() };
        debug_assert_eq!(self.procs[ix].id, pid);
        ix
    }

    fn frame(&self, pid: ProcId) -> &Frame<'p> {
        self.proc(pid).frames.last().expect("process has a frame")
    }

    fn frame_mut(&mut self, pid: ProcId) -> &mut Frame<'p> {
        let ix = self.proc_ix(pid);
        self.procs[ix].frames.last_mut().expect("process has a frame")
    }

    // -----------------------------------------------------------------
    // One step
    // -----------------------------------------------------------------

    fn step(&mut self, pid: ProcId, tracer: &mut dyn Tracer) -> Result<(), RuntimeError> {
        let ix = self.proc_ix(pid);
        let Some(task) = self.procs[ix].frames.last_mut().and_then(|f| f.tasks.pop()) else {
            // Frame exhausted: fell off the end of a body.
            return self.pop_frame(pid, None, tracer);
        };
        match task {
            Task::Block { stmts, next } => {
                if next < stmts.len() {
                    let frame = self.frame_mut(pid);
                    frame.tasks.push(Task::Block { stmts, next: next + 1 });
                    frame.tasks.push(Task::Stmt(&stmts[next]));
                }
                Ok(())
            }
            Task::Stmt(stmt) => self.dispatch_stmt(pid, stmt, tracer),
            Task::Eval(expr) => self.dispatch_expr(pid, expr, tracer),
            Task::AssignAfter { stmt, target } => {
                let value = self.pop_value(pid);
                let index = if target.index.is_some() { Some(self.pop_value(pid)) } else { None };
                let var = self.rp.expr_var[&target.id];
                let cell = self.write_var(pid, var, index, value)?;
                self.emit(
                    pid,
                    stmt.id,
                    EventKind::Assign,
                    Some((cell, value)),
                    Some(value),
                    tracer,
                );
                Ok(())
            }
            Task::DeclAssign { stmt, var } => {
                let value = self.pop_value(pid);
                self.frame_mut(pid).locals.insert(var, Value::Int(value));
                self.emit(
                    pid,
                    stmt.id,
                    EventKind::Assign,
                    Some((CellRef::scalar(var), value)),
                    Some(value),
                    tracer,
                );
                Ok(())
            }
            Task::IfAfter { stmt } => {
                let cond = self.pop_value(pid);
                self.emit(
                    pid,
                    stmt.id,
                    EventKind::Predicate { taken: cond != 0 },
                    None,
                    Some((cond != 0) as i64),
                    tracer,
                );
                let StmtKind::If { then_blk, else_blk, .. } = &stmt.kind else {
                    unreachable!("IfAfter on non-if");
                };
                let frame = self.frame_mut(pid);
                if cond != 0 {
                    frame.tasks.push(Task::Block { stmts: &then_blk.stmts, next: 0 });
                } else if let Some(e) = else_blk {
                    frame.tasks.push(Task::Block { stmts: &e.stmts, next: 0 });
                }
                Ok(())
            }
            Task::WhileLoop { stmt } => {
                let StmtKind::While { cond, .. } = &stmt.kind else {
                    unreachable!("WhileLoop on non-while");
                };
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::WhileAfter { stmt });
                frame.tasks.push(Task::Eval(cond));
                Ok(())
            }
            Task::WhileAfter { stmt } => {
                let cond = self.pop_value(pid);
                self.emit(
                    pid,
                    stmt.id,
                    EventKind::Predicate { taken: cond != 0 },
                    None,
                    Some((cond != 0) as i64),
                    tracer,
                );
                let StmtKind::While { body, .. } = &stmt.kind else {
                    unreachable!("WhileAfter on non-while");
                };
                if cond != 0 {
                    let frame = self.frame_mut(pid);
                    frame.tasks.push(Task::WhileLoop { stmt });
                    frame.tasks.push(Task::Block { stmts: &body.stmts, next: 0 });
                }
                Ok(())
            }
            Task::ForCheck { stmt } => {
                let StmtKind::For { cond, .. } = &stmt.kind else {
                    unreachable!("ForCheck on non-for");
                };
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::ForAfter { stmt });
                match cond {
                    Some(c) => frame.tasks.push(Task::Eval(c)),
                    None => frame.values.push(1),
                }
                Ok(())
            }
            Task::ForAfter { stmt } => {
                let cond = self.pop_value(pid);
                self.emit(
                    pid,
                    stmt.id,
                    EventKind::Predicate { taken: cond != 0 },
                    None,
                    Some((cond != 0) as i64),
                    tracer,
                );
                let StmtKind::For { step, body, .. } = &stmt.kind else {
                    unreachable!("ForAfter on non-for");
                };
                if cond != 0 {
                    let frame = self.frame_mut(pid);
                    frame.tasks.push(Task::ForCheck { stmt });
                    if let Some(s) = step {
                        frame.tasks.push(Task::Stmt(s));
                    }
                    frame.tasks.push(Task::Block { stmts: &body.stmts, next: 0 });
                }
                Ok(())
            }
            Task::ReturnAfter { stmt } => {
                let value = self.pop_value(pid);
                self.emit(pid, stmt.id, EventKind::Return, None, Some(value), tracer);
                self.pop_frame(pid, Some(value), tracer)
            }
            Task::ReturnVoid { stmt } => {
                self.emit(pid, stmt.id, EventKind::Return, None, None, tracer);
                self.pop_frame(pid, None, tracer)
            }
            Task::PrintAfter { stmt } => {
                let value = self.pop_value(pid);
                self.output.push((pid, value));
                self.emit(pid, stmt.id, EventKind::Print, None, Some(value), tracer);
                Ok(())
            }
            Task::AssertAfter { stmt } => {
                let value = self.pop_value(pid);
                if value != 0 {
                    self.emit(pid, stmt.id, EventKind::AssertPass, None, Some(1), tracer);
                    Ok(())
                } else {
                    // Leave the pending reads for the Failure event the
                    // run loop emits — they are flowback's starting set.
                    Err(RuntimeError::AssertFailed)
                }
            }
            Task::ExprStmtAfter => {
                let _ = self.pop_value(pid);
                // Discard the pending reads too: a bare call's value is
                // unused.
                self.frame_mut(pid).pending_reads.clear();
                Ok(())
            }
            Task::BinAfter { op } => {
                let r = self.pop_value(pid);
                let l = self.pop_value(pid);
                let v = apply_binop(op, l, r)?;
                self.frame_mut(pid).values.push(v);
                Ok(())
            }
            Task::ShortCircuit { op, rhs } => {
                let l = self.pop_value(pid);
                let frame = self.frame_mut(pid);
                match (op, l != 0) {
                    (BinOp::And, false) => frame.values.push(0),
                    (BinOp::Or, true) => frame.values.push(1),
                    _ => {
                        frame.tasks.push(Task::NormBool);
                        frame.tasks.push(Task::Eval(rhs));
                    }
                }
                Ok(())
            }
            Task::NormBool => {
                let v = self.pop_value(pid);
                self.frame_mut(pid).values.push((v != 0) as i64);
                Ok(())
            }
            Task::UnAfter { op } => {
                let v = self.pop_value(pid);
                let r = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i64,
                };
                self.frame_mut(pid).values.push(r);
                Ok(())
            }
            Task::IndexAfter { var } => {
                let index = self.pop_value(pid);
                let v = self.read_var(pid, var, Some(index))?;
                self.frame_mut(pid).values.push(v);
                Ok(())
            }
            Task::ArgMark => {
                let frame = self.frame_mut(pid);
                let mark = frame.pending_reads.len();
                frame.arg_marks.push(mark);
                Ok(())
            }
            Task::CallAfter { func, argc } => self.do_call(pid, func, argc, tracer),
            Task::SendAfter { stmt, to, blocking } => self.do_send(pid, stmt, to, blocking, tracer),
            Task::RecvAfter { stmt, from, target, has_index } => {
                self.do_recv(pid, stmt, from, target, has_index, tracer)
            }
            Task::RendezvousAfter { stmt, callee } => self.do_rendezvous(pid, stmt, callee, tracer),
            Task::AcceptEnd { caller, caller_stmt } => {
                if !self.is_replay() {
                    let t = self.tick();
                    if let Some(g) = self.pgraph.as_mut() {
                        let e = g.sync_point(pid, SyncNodeKind::AcceptEnd, None, t);
                        let r = g.sync_point(caller, SyncNodeKind::RendezvousReturn, None, t);
                        g.add_sync_edge(e, r, SyncEdgeLabel::RendezvousExit);
                    }
                    let cix = self.proc_ix(caller);
                    self.procs[cix].status = Status::Runnable;
                    // The caller's unit resumes after the rendezvous.
                    self.unit_snapshot_point(caller, caller_stmt)?;
                }
                Ok(())
            }
            Task::CloseLoopInterval { eblock, instance } => {
                self.close_interval(pid, eblock, instance, None);
                Ok(())
            }
            Task::SemWait { stmt, sem, lock } => self.do_sem_wait(pid, stmt, sem, lock, tracer),
            Task::AcceptWait { stmt } => self.do_accept(pid, stmt, tracer),
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn dispatch_stmt(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        self.frame_mut(pid).current_stmt = Some(stmt);

        // User-intervention halt: stop before executing the statement.
        // In replay mode this is the Controller's stop-at marker, used to
        // halt the emulation package exactly where the original run did.
        if self.breakpoints.contains(&stmt.id) {
            self.hit_breakpoint = Some((pid, stmt.id));
            self.frame_mut(pid).tasks.push(Task::Stmt(stmt));
            return Ok(());
        }

        // Chunk boundary (§5.4 splitting): close the previous chunk,
        // open the next.
        if let Some(plan) = self.logging_plan() {
            if let Some(eb) = plan.chunk_starting_at(stmt.id) {
                let prev = self.frame(pid).open_intervals.last().copied();
                if let Some((prev_eb, prev_inst)) = prev {
                    if matches!(plan.eblock(prev_eb).region, Region::Chunk { .. }) {
                        self.close_interval(pid, prev_eb, prev_inst, None);
                    }
                }
                self.open_interval(plan, pid, eb);
            }
        }

        // Synchronization-unit boundaries (§5.5) snapshot shared reads at
        // the *completion* of the boundary operation, never at dispatch:
        // a unit's reads happen after its sync op acquires (or after its
        // callee returns — the callee's own internal synchronization may
        // be what orders them), and other processes may legitimately
        // write shared variables in between. Sync statements snapshot in
        // their completion paths; call-bearing statements snapshot when
        // each call returns (see `pop_frame` and the substitution path).

        match &stmt.kind {
            StmtKind::Decl { size, init, .. } => {
                let var = self.rp.decl_var[&stmt.id];
                match (size, init) {
                    (Some(n), _) => {
                        self.frame_mut(pid).locals.insert(var, Value::Array(vec![0; *n]));
                        self.emit(pid, stmt.id, EventKind::Assign, None, None, tracer);
                        Ok(())
                    }
                    (None, Some(e)) => {
                        let frame = self.frame_mut(pid);
                        frame.tasks.push(Task::DeclAssign { stmt, var });
                        frame.tasks.push(Task::Eval(e));
                        Ok(())
                    }
                    (None, None) => {
                        self.frame_mut(pid).locals.insert(var, Value::Int(0));
                        self.emit(
                            pid,
                            stmt.id,
                            EventKind::Assign,
                            Some((CellRef::scalar(var), 0)),
                            Some(0),
                            tracer,
                        );
                        Ok(())
                    }
                }
            }
            StmtKind::Assign { target, value } => {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::AssignAfter { stmt, target });
                frame.tasks.push(Task::Eval(value));
                if let Some(ix) = &target.index {
                    frame.tasks.push(Task::Eval(ix));
                }
                Ok(())
            }
            StmtKind::If { cond, .. } => {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::IfAfter { stmt });
                frame.tasks.push(Task::Eval(cond));
                Ok(())
            }
            StmtKind::While { .. } => {
                if self.try_substitute_loop(pid, stmt, tracer)? {
                    return Ok(());
                }
                self.open_loop_interval(pid, stmt);
                self.frame_mut(pid).tasks.push(Task::WhileLoop { stmt });
                Ok(())
            }
            StmtKind::For { init, .. } => {
                if self.try_substitute_loop(pid, stmt, tracer)? {
                    return Ok(());
                }
                self.open_loop_interval(pid, stmt);
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::ForCheck { stmt });
                if let Some(i) = init {
                    frame.tasks.push(Task::Stmt(i));
                }
                Ok(())
            }
            StmtKind::Return(value) => {
                let frame = self.frame_mut(pid);
                match value {
                    Some(e) => {
                        frame.tasks.push(Task::ReturnAfter { stmt });
                        frame.tasks.push(Task::Eval(e));
                    }
                    None => frame.tasks.push(Task::ReturnVoid { stmt }),
                }
                Ok(())
            }
            StmtKind::ExprStmt(e) => {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::ExprStmtAfter);
                frame.tasks.push(Task::Eval(e));
                Ok(())
            }
            StmtKind::Print(e) => {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::PrintAfter { stmt });
                frame.tasks.push(Task::Eval(e));
                Ok(())
            }
            StmtKind::Assert(e) => {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::AssertAfter { stmt });
                frame.tasks.push(Task::Eval(e));
                Ok(())
            }
            StmtKind::Sync(sync) => self.dispatch_sync(pid, stmt, sync, tracer),
        }
    }

    // -----------------------------------------------------------------
    // Synchronization (§6.2)
    // -----------------------------------------------------------------

    fn dispatch_sync(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        sync: &'p SyncStmt,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        match sync {
            SyncStmt::P(_) | SyncStmt::Lock(_) => {
                let sem = self.rp.sem_ref[&stmt.id];
                let lock = matches!(sync, SyncStmt::Lock(_));
                if self.is_replay() {
                    let kind = if lock { SyncKind::Lock } else { SyncKind::P };
                    self.emit(pid, stmt.id, EventKind::Sync { kind }, None, None, tracer);
                    return self.unit_snapshot_point(pid, stmt.id);
                }
                self.frame_mut(pid).tasks.push(Task::SemWait { stmt, sem, lock });
                Ok(())
            }
            SyncStmt::V(_) | SyncStmt::Unlock(_) => {
                let sem = self.rp.sem_ref[&stmt.id];
                let lock = matches!(sync, SyncStmt::Unlock(_));
                let kind = if lock { SyncKind::Unlock } else { SyncKind::V };
                if !self.is_replay() {
                    self.do_v(pid, stmt, sem, lock);
                }
                self.emit(pid, stmt.id, EventKind::Sync { kind }, None, None, tracer);
                self.unit_snapshot_point(pid, stmt.id)
            }
            SyncStmt::Send { value, .. } | SyncStmt::ASend { value, .. } => {
                let blocking = matches!(sync, SyncStmt::Send { .. });
                let to = match self.rp.msg_target.get(&stmt.id) {
                    Some(&to) => Queue::Mailbox(to),
                    None => Queue::Chan(self.rp.send_chan[&stmt.id]),
                };
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::SendAfter { stmt, to, blocking });
                frame.tasks.push(Task::Eval(value));
                Ok(())
            }
            SyncStmt::Recv { into, .. } => {
                let from = match self.rp.recv_chan.get(&stmt.id) {
                    Some(&chan) => Queue::Chan(chan),
                    None => Queue::Mailbox(pid),
                };
                let has_index = into.index.is_some();
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::RecvAfter { stmt, from, target: into, has_index });
                if let Some(ix) = &into.index {
                    frame.tasks.push(Task::Eval(ix));
                }
                Ok(())
            }
            SyncStmt::Rendezvous { value, .. } => {
                let callee = self.rp.msg_target[&stmt.id];
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::RendezvousAfter { stmt, callee });
                frame.tasks.push(Task::Eval(value));
                Ok(())
            }
            // Replay binds the logged call at once; a run waits for one.
            SyncStmt::Accept { .. } if self.is_replay() => self.do_accept(pid, stmt, tracer),
            SyncStmt::Accept { .. } => {
                self.frame_mut(pid).tasks.push(Task::AcceptWait { stmt });
                Ok(())
            }
        }
    }

    fn do_sem_wait(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        sem: ppd_lang::SemId,
        lock: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let state = &mut self.sems[sem.index()];
        if state.count > 0 {
            state.count -= 1;
            let pending = state.pending_v.take();
            let t = self.tick();
            let kind = if lock { SyncNodeKind::Lock } else { SyncNodeKind::P };
            if let Some(g) = self.pgraph.as_mut() {
                let pnode = g.sync_point(pid, kind, Some(stmt.id), t);
                if let Some((vproc, vnode)) = pending {
                    if vproc != pid {
                        let label =
                            if lock { SyncEdgeLabel::Mutex } else { SyncEdgeLabel::Semaphore };
                        g.add_sync_edge(vnode, pnode, label);
                    }
                }
            }
            let ek = if lock { SyncKind::Lock } else { SyncKind::P };
            self.emit(pid, stmt.id, EventKind::Sync { kind: ek }, None, None, tracer);
            self.unit_snapshot_point(pid, stmt.id)
        } else {
            // Re-arm and block; a future V wakes every waiter to retry.
            self.frame_mut(pid).tasks.push(Task::SemWait { stmt, sem, lock });
            let reason =
                if lock { BlockReason::LockWait(sem) } else { BlockReason::Semaphore(sem) };
            let ix = self.proc_ix(pid);
            self.procs[ix].status = Status::Blocked(reason);
            Ok(())
        }
    }

    fn do_v(&mut self, pid: ProcId, stmt: &'p Stmt, sem: ppd_lang::SemId, lock: bool) {
        let t = self.tick();
        let kind = if lock { SyncNodeKind::Unlock } else { SyncNodeKind::V };
        let vnode = self.pgraph.as_mut().map(|g| g.sync_point(pid, kind, Some(stmt.id), t));
        let state = &mut self.sems[sem.index()];
        state.count += 1;
        state.pending_v = if state.count == 1 { vnode.map(|n| (pid, n)) } else { None };
        // Wake all processes blocked on this semaphore to retry.
        for p in &mut self.procs {
            match p.status {
                Status::Blocked(BlockReason::Semaphore(s))
                | Status::Blocked(BlockReason::LockWait(s))
                    if s == sem =>
                {
                    p.status = Status::Runnable;
                }
                _ => {}
            }
        }
    }

    /// The slot of [`queues`](Self::queues) that `queue` names right now,
    /// and why a receiver finding it empty blocks.
    fn queue_slot(&self, pid: ProcId, queue: Queue) -> Result<(usize, BlockReason), RuntimeError> {
        Ok(match queue {
            Queue::Mailbox(owner) => (owner.index(), BlockReason::AwaitMessage),
            Queue::Chan(cref) => {
                let chan = self.resolve_chan(pid, cref)?;
                (self.rp.procs.len() + chan.index(), BlockReason::AwaitChannel(chan))
            }
        })
    }

    fn do_send(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        to: Queue,
        blocking: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = self.pop_value(pid);
        let kind = if blocking { SyncKind::Send } else { SyncKind::ASend };
        if self.is_replay() {
            self.emit(pid, stmt.id, EventKind::Sync { kind }, None, Some(value), tracer);
            return self.unit_snapshot_point(pid, stmt.id);
        }
        let (slot, waiting) = self.queue_slot(pid, to)?;
        let t = self.tick();
        let send_node =
            self.pgraph.as_mut().map(|g| g.sync_point(pid, SyncNodeKind::Send, Some(stmt.id), t));
        self.queues[slot].push_back(Message {
            value,
            sender: pid,
            send_node,
            blocking,
            send_stmt: stmt.id,
        });
        self.emit(pid, stmt.id, EventKind::Sync { kind }, None, Some(value), tracer);
        if blocking {
            let ix = self.proc_ix(pid);
            self.procs[ix].status = Status::Blocked(BlockReason::AwaitDelivery);
        } else {
            self.unit_snapshot_point(pid, stmt.id)?;
        }
        // A mailbox send wakes its receiver if it waits for mail; a
        // channel send wakes every process waiting on the channel, and
        // each retries its recv.
        for p in &mut self.procs {
            let receiver = match to {
                Queue::Mailbox(owner) => p.id == owner,
                Queue::Chan(_) => true,
            };
            if receiver && p.status == Status::Blocked(waiting) {
                p.status = Status::Runnable;
            }
        }
        Ok(())
    }

    fn do_recv(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        from: Queue,
        target: &'p LValue,
        has_index: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = match self.replay.as_mut() {
            Some(replay) => {
                let what = match from {
                    Queue::Mailbox(_) => "a Receive entry for recv",
                    Queue::Chan(_) => "a Receive entry for channel recv",
                };
                replay.value(|e| matches!(e, LogEntry::Receive { .. }), what)?
            }
            None => {
                let (slot, waiting) = self.queue_slot(pid, from)?;
                let Some(msg) = self.queues[slot].pop_front() else {
                    self.frame_mut(pid).tasks.push(Task::RecvAfter {
                        stmt,
                        from,
                        target,
                        has_index,
                    });
                    let ix = self.proc_ix(pid);
                    self.procs[ix].status = Status::Blocked(waiting);
                    return Ok(());
                };
                let t = self.tick();
                if let Some(g) = self.pgraph.as_mut() {
                    let recv_node = g.sync_point(pid, SyncNodeKind::Recv, Some(stmt.id), t);
                    if let Some(sn) = msg.send_node {
                        g.add_sync_edge(sn, recv_node, SyncEdgeLabel::Message);
                    }
                    if msg.blocking {
                        let un = g.sync_point(msg.sender, SyncNodeKind::Unblock, None, t);
                        g.add_sync_edge(recv_node, un, SyncEdgeLabel::SendUnblock);
                    }
                }
                if msg.blocking {
                    let six = self.proc_ix(msg.sender);
                    self.procs[six].status = Status::Runnable;
                    // The sender's unit resumes now; snapshot at unblock.
                    self.unit_snapshot_point(msg.sender, msg.send_stmt)?;
                }
                self.log_append(pid, LogEntry::Receive { value: msg.value, time: self.clock });
                msg.value
            }
        };
        let index = if has_index { Some(self.pop_value(pid)) } else { None };
        let var = self.rp.expr_var[&target.id];
        let cell = self.write_var(pid, var, index, value)?;
        self.frame_mut(pid).pending_reads.push(ReadSource::External);
        self.emit(
            pid,
            stmt.id,
            EventKind::Sync { kind: SyncKind::Recv },
            Some((cell, value)),
            Some(value),
            tracer,
        );
        self.unit_snapshot_point(pid, stmt.id)
    }

    /// The channel a reference names right now: direct for a channel
    /// literal, the current value of the binding for a `chan` parameter.
    fn resolve_chan(&self, pid: ProcId, cref: ChanRef) -> Result<ChanId, RuntimeError> {
        let raw = match cref {
            ChanRef::Static(c) => return Ok(c),
            ChanRef::Var(v) => match self.frame(pid).locals.get(&v) {
                Some(Value::Int(n)) => *n,
                Some(Value::Array(_)) => i64::MIN,
                None => return Err(RuntimeError::UninitializedLocal),
            },
        };
        if raw < 0 || raw as usize >= self.rp.chans.len() {
            return Err(RuntimeError::InvalidChannel(raw));
        }
        Ok(ChanId(raw as u32))
    }

    fn do_rendezvous(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        callee: ProcId,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = self.pop_value(pid);
        if self.is_replay() {
            self.emit(
                pid,
                stmt.id,
                EventKind::Sync { kind: SyncKind::Rendezvous },
                None,
                Some(value),
                tracer,
            );
            return self.unit_snapshot_point(pid, stmt.id);
        }
        let t = self.tick();
        let call_node = self
            .pgraph
            .as_mut()
            .map(|g| g.sync_point(pid, SyncNodeKind::RendezvousCall, Some(stmt.id), t));
        self.rdv_queues[callee.index()].push_back(RdvCall {
            caller: pid,
            value,
            call_node,
            call_stmt: stmt.id,
        });
        self.emit(
            pid,
            stmt.id,
            EventKind::Sync { kind: SyncKind::Rendezvous },
            None,
            Some(value),
            tracer,
        );
        let ix = self.proc_ix(pid);
        self.procs[ix].status = Status::Blocked(BlockReason::AwaitRendezvous);
        let cix = self.proc_ix(callee);
        if self.procs[cix].status == Status::Blocked(BlockReason::AwaitRendezvousCall) {
            self.procs[cix].status = Status::Runnable;
        }
        Ok(())
    }

    /// `accept`: binds the caller's value (a queued call in a run, the
    /// logged value in replay) and runs the body; `AcceptEnd` releases
    /// the caller.
    fn do_accept(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let StmtKind::Sync(SyncStmt::Accept { body, param_expr, .. }) = &stmt.kind else {
            unreachable!("accept on non-accept");
        };
        let (value, caller, caller_stmt) = match self.replay.as_mut() {
            Some(replay) => {
                let is_receive = |e: &LogEntry| matches!(e, LogEntry::Receive { .. });
                (replay.value(is_receive, "a Receive entry for accept")?, pid, stmt.id)
            }
            None => {
                let Some(call) = self.rdv_queues[pid.index()].pop_front() else {
                    self.frame_mut(pid).tasks.push(Task::AcceptWait { stmt });
                    let ix = self.proc_ix(pid);
                    self.procs[ix].status = Status::Blocked(BlockReason::AwaitRendezvousCall);
                    return Ok(());
                };
                let t = self.tick();
                if let Some(g) = self.pgraph.as_mut() {
                    let accept_node = g.sync_point(pid, SyncNodeKind::Accept, Some(stmt.id), t);
                    if let Some(cn) = call.call_node {
                        g.add_sync_edge(cn, accept_node, SyncEdgeLabel::RendezvousEntry);
                    }
                }
                self.log_append(pid, LogEntry::Receive { value: call.value, time: self.clock });
                (call.value, call.caller, call.call_stmt)
            }
        };
        let var = self.rp.expr_var[param_expr];
        let frame = self.frame_mut(pid);
        frame.locals.insert(var, Value::Int(value));
        frame.pending_reads.push(ReadSource::External);
        self.emit(
            pid,
            stmt.id,
            EventKind::Sync { kind: SyncKind::Accept },
            Some((CellRef::scalar(var), value)),
            Some(value),
            tracer,
        );
        self.unit_snapshot_point(pid, stmt.id)?;
        let frame = self.frame_mut(pid);
        frame.tasks.push(Task::AcceptEnd { caller, caller_stmt });
        frame.tasks.push(Task::Block { stmts: &body.stmts, next: 0 });
        Ok(())
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn dispatch_expr(
        &mut self,
        pid: ProcId,
        expr: &'p Expr,
        _tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        match &expr.kind {
            ExprKind::IntLit(n) => {
                self.frame_mut(pid).values.push(*n);
                Ok(())
            }
            ExprKind::BoolLit(b) => {
                self.frame_mut(pid).values.push(*b as i64);
                Ok(())
            }
            ExprKind::Var(_) => {
                // A channel name in argument position evaluates to the
                // channel's id — how `chan` parameters are passed.
                if let Some(&c) = self.rp.expr_chan.get(&expr.id) {
                    self.frame_mut(pid).values.push(c.index() as i64);
                    return Ok(());
                }
                let var = self.rp.expr_var[&expr.id];
                let v = self.read_var(pid, var, None)?;
                self.frame_mut(pid).values.push(v);
                Ok(())
            }
            ExprKind::Index(_, ix) => {
                let var = self.rp.expr_var[&expr.id];
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::IndexAfter { var });
                frame.tasks.push(Task::Eval(ix));
                Ok(())
            }
            ExprKind::Unary(op, e) => {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::UnAfter { op: *op });
                frame.tasks.push(Task::Eval(e));
                Ok(())
            }
            ExprKind::Binary(op, l, r) => {
                let frame = self.frame_mut(pid);
                match op {
                    BinOp::And | BinOp::Or => {
                        frame.tasks.push(Task::ShortCircuit { op: *op, rhs: r });
                        frame.tasks.push(Task::Eval(l));
                    }
                    _ => {
                        frame.tasks.push(Task::BinAfter { op: *op });
                        frame.tasks.push(Task::Eval(r));
                        frame.tasks.push(Task::Eval(l));
                    }
                }
                Ok(())
            }
            ExprKind::Call(_, args) => {
                let func = self.rp.call_target[&expr.id];
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::CallAfter { func, argc: args.len() });
                for arg in args.iter().rev() {
                    frame.tasks.push(Task::ArgMark);
                    frame.tasks.push(Task::Eval(arg));
                }
                frame.tasks.push(Task::ArgMark); // base mark before arg 1
                Ok(())
            }
            ExprKind::Input => {
                let value = match self.replay.as_mut() {
                    Some(replay) => replay.value(
                        |e| matches!(e, LogEntry::Input { .. }),
                        "an Input entry for input()",
                    )?,
                    None => {
                        let (stream, pos) = &mut self.inputs[pid.index()];
                        let Some(&v) = stream.get(*pos) else {
                            return Err(RuntimeError::InputExhausted);
                        };
                        *pos += 1;
                        self.log_append(pid, LogEntry::Input { value: v, time: self.clock });
                        v
                    }
                };
                let frame = self.frame_mut(pid);
                frame.pending_reads.push(ReadSource::External);
                frame.values.push(value);
                Ok(())
            }
        }
    }

    // -----------------------------------------------------------------
    // Calls and frames
    // -----------------------------------------------------------------

    fn do_call(
        &mut self,
        pid: ProcId,
        func: FuncId,
        argc: usize,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let stmt_id = self
            .proc(pid)
            .frames
            .last()
            .and_then(|f| f.current_stmt)
            .map(|s| s.id)
            .unwrap_or(ppd_lang::StmtId(0));

        // Gather argument values and per-argument reads.
        let (args_with_reads, mut call_reads) = {
            let frame = self.frame_mut(pid);
            let vals_start = frame.values.len() - argc;
            let marks_start = frame.arg_marks.len() - (argc + 1);
            let marks = &frame.arg_marks[marks_start..];
            let reads = &frame.pending_reads;
            let args_with_reads: Vec<(i64, Vec<ReadSource>)> = frame.values[vals_start..]
                .iter()
                .zip(marks.windows(2))
                .map(|(&v, m)| (v, reads[m[0].min(reads.len())..m[1].min(reads.len())].to_vec()))
                .collect();
            // The args' reads are consumed by the CallEnter event; reads
            // before the base mark stay pending for the enclosing event.
            let base = marks[0].min(reads.len());
            frame.values.truncate(vals_start);
            frame.arg_marks.truncate(marks_start);
            (args_with_reads, frame.pending_reads.split_off(base))
        };

        // Substitution (§5.2): during replay, a callee with its own
        // e-block is not re-executed; its logged postlog is applied.
        if let Some((_, postlog)) = self.skip_nested(|p| p.body_eblock(BodyId::Func(func)))? {
            let Some(LogEntry::Postlog { values, ret, .. }) = postlog else {
                return Err(RuntimeError::LogMismatch(format!(
                    "missing nested interval for {}",
                    self.rp.func_name(func)
                )));
            };
            let ret_val = ret.as_ref().and_then(Value::as_int).unwrap_or(0);
            for (var, value) in values {
                if self.rp.is_shared(var) {
                    self.shared[var.index()] = value;
                }
            }
            let call_seq = self.emit_with(
                pid,
                stmt_id,
                EventKind::CallEnter { func, args: args_with_reads, substituted: true },
                None,
                None,
                &mut call_reads,
                tracer,
            );
            self.emit_with(
                pid,
                stmt_id,
                EventKind::CallExit { func, ret: Some(ret_val) },
                None,
                Some(ret_val),
                &mut Vec::new(),
                tracer,
            );
            let frame = self.frame_mut(pid);
            frame.values.push(ret_val);
            frame.pending_reads.push(ReadSource::CallResult { call_seq });
            self.boundary_snapshot_at_current_stmt(pid)?;
            return Ok(());
        }

        // Inline execution (normal mode, merged leaves, or expansion).
        let rp = self.rp;
        let mut frame = self.call_frame(func);
        for (&param, &(v, _)) in rp.funcs[func.index()].params.iter().zip(&args_with_reads) {
            frame.locals.insert(param, Value::Int(v));
        }
        frame.tasks.push(Task::Block { stmts: &rp.func_decl(func).body.stmts, next: 0 });
        frame.call_seq = self.emit_with(
            pid,
            stmt_id,
            EventKind::CallEnter { func, args: args_with_reads, substituted: false },
            None,
            None,
            &mut call_reads,
            tracer,
        );
        let ix = self.proc_ix(pid);
        self.procs[ix].frames.push(frame);
        self.open_body_interval(pid, BodyId::Func(func));
        Ok(())
    }

    /// A frame for a call of `func`, in the buffers of a returned call's
    /// frame when there is one.
    fn call_frame(&mut self, func: FuncId) -> Frame<'p> {
        let vars = self.rp.body_locals(BodyId::Func(func));
        match self.spare_frames.pop() {
            Some(mut frame) => {
                frame.reuse(func, vars);
                frame
            }
            None => Frame::new(BodyId::Func(func), Some(func), vars),
        }
    }

    fn pop_frame(
        &mut self,
        pid: ProcId,
        ret: Option<i64>,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        // Close any intervals still open in this frame, innermost first.
        while let Some((eb, inst)) = self.frame_mut(pid).open_intervals.pop() {
            self.close_interval(pid, eb, inst, ret);
        }

        let ix = self.proc_ix(pid);
        let frame = self.procs[ix].frames.pop().expect("frame to pop");
        let (func, call_seq) = (frame.func, frame.call_seq);
        self.spare_frames.push(frame);
        if self.procs[ix].frames.is_empty() {
            self.procs[ix].status = Status::Done;
            if !self.is_replay() {
                let t = self.tick();
                if let Some(g) = self.pgraph.as_mut() {
                    g.end_process(pid, t);
                }
            }
            return Ok(());
        }
        // Function return into the caller.
        let func = func.expect("nested frames are function frames");
        let stmt_id = self.procs[ix]
            .frames
            .last()
            .and_then(|f| f.current_stmt)
            .map(|s| s.id)
            .unwrap_or(ppd_lang::StmtId(0));
        let ret_value =
            if self.rp.funcs[func.index()].returns_value { Some(ret.unwrap_or(0)) } else { ret };
        self.emit_with(
            pid,
            stmt_id,
            EventKind::CallExit { func, ret: ret_value },
            None,
            ret_value,
            &mut Vec::new(),
            tracer,
        );
        let caller = self.frame_mut(pid);
        caller.values.push(ret.unwrap_or(0));
        caller.pending_reads.push(ReadSource::CallResult { call_seq });
        // The calling statement is a synchronization-unit boundary; its
        // unit's reads resume now that the callee (and whatever internal
        // synchronization it performed) has completed.
        self.boundary_snapshot_at_current_stmt(pid)
    }

    /// Emits (normal mode) or consumes (replay) the unit snapshot keyed
    /// by the current statement, if that statement is a unit boundary.
    fn boundary_snapshot_at_current_stmt(&mut self, pid: ProcId) -> Result<(), RuntimeError> {
        match self.frame(pid).current_stmt {
            Some(stmt) => self.unit_snapshot_point(pid, stmt.id),
            None => Ok(()),
        }
    }

    // -----------------------------------------------------------------
    // Memory
    // -----------------------------------------------------------------

    fn read_var(
        &mut self,
        pid: ProcId,
        var: VarId,
        index: Option<i64>,
    ) -> Result<i64, RuntimeError> {
        let shared = self.rp.is_shared(var);
        // §7 element logging: array reads are served from the log during
        // replay (and recorded during execution) instead of array memory,
        // which is then excluded from prelogs/postlogs/snapshots.
        let element_logged = index.is_some() && self.element_logged();
        let value = match self.replay.as_mut().filter(|r| element_logged && !r.what_if) {
            Some(replay) => replay.value(
                |e| matches!(e, LogEntry::ElementRead { .. }),
                "an ElementRead entry for array read",
            )?,
            None if shared => read_value(&self.shared[var.index()], index)?,
            None => {
                let Some(v) = self.frame(pid).locals.get(&var) else {
                    return Err(RuntimeError::UninitializedLocal);
                };
                read_value(v, index)?
            }
        };
        if element_logged {
            self.log_append(pid, LogEntry::ElementRead { value, time: self.clock });
        }
        let cell = CellRef { var, index: index.map(|i| i as usize) };
        self.frame_mut(pid).pending_reads.push(ReadSource::Cell(cell));
        if shared {
            if let (Some(g), Some(cells)) = (self.pgraph.as_mut(), &self.cells) {
                g.record_read(pid, cells.cell(var, cell.index));
            }
        }
        Ok(value)
    }

    fn write_var(
        &mut self,
        pid: ProcId,
        var: VarId,
        index: Option<i64>,
        value: i64,
    ) -> Result<CellRef, RuntimeError> {
        let shared = self.rp.is_shared(var);
        if shared {
            write_value(&mut self.shared[var.index()], index, value)?;
            if let (Some(g), Some(cells)) = (self.pgraph.as_mut(), &self.cells) {
                g.record_write(pid, cells.cell(var, index.map(|i| i as usize)));
            }
        } else {
            let frame = self.frame_mut(pid);
            match index {
                None => {
                    frame.locals.insert(var, Value::Int(value));
                }
                Some(_) => {
                    let Some(v) = frame.locals.get_mut(&var) else {
                        return Err(RuntimeError::UninitializedLocal);
                    };
                    write_value(v, index, value)?;
                }
            }
        }
        Ok(CellRef { var, index: index.map(|i| i as usize) })
    }

    fn pop_value(&mut self, pid: ProcId) -> i64 {
        self.frame_mut(pid).values.pop().expect("operand stack underflow is a machine bug")
    }

    // -----------------------------------------------------------------
    // Events
    // -----------------------------------------------------------------

    fn emit(
        &mut self,
        pid: ProcId,
        stmt: ppd_lang::StmtId,
        kind: EventKind,
        write: Option<(CellRef, i64)>,
        value: Option<i64>,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        // The frame's read buffer goes out with the event and comes back
        // empty, so the next read does not allocate.
        let mut reads = std::mem::take(&mut self.frame_mut(pid).pending_reads);
        let seq = self.emit_with(pid, stmt, kind, write, value, &mut reads, tracer);
        reads.clear();
        self.frame_mut(pid).pending_reads = reads;
        seq
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_with(
        &mut self,
        pid: ProcId,
        stmt: ppd_lang::StmtId,
        kind: EventKind,
        write: Option<(CellRef, i64)>,
        value: Option<i64>,
        reads: &mut Vec<ReadSource>,
        tracer: &mut dyn Tracer,
    ) -> u64 {
        let seq = self.tick();
        // Internal edges of the parallel dynamic graph count only
        // non-synchronization events (§6.1).
        let counts_as_internal = matches!(
            kind,
            EventKind::Assign
                | EventKind::Predicate { .. }
                | EventKind::Return
                | EventKind::Print
                | EventKind::AssertPass
                | EventKind::AssertFail
        );
        let event =
            TraceEvent { proc: pid, stmt, seq, kind, reads: std::mem::take(reads), write, value };
        tracer.event(&event);
        *reads = event.reads;
        self.events += 1;
        if counts_as_internal && !self.is_replay() {
            if let Some(g) = self.pgraph.as_mut() {
                g.record_event(pid);
            }
        }
        seq
    }

    // -----------------------------------------------------------------
    // Logging (§5.1, §5.5) and replay consumption
    // -----------------------------------------------------------------

    /// The one snapshot rule (§5.5): the shared variables the unit
    /// starting at `at` in `body` may read, less the arrays whose reads
    /// §7 element logging records one at a time. `None` when that
    /// leaves nothing, and then no snapshot is written or read.
    fn snapshot_set(&self, body: BodyId, at: ppd_lang::StmtId) -> Option<Cow<'p, VarSet>> {
        let analyses: &'p Analyses = self.analyses;
        let reads = &analyses.sync_units.of(body).unit_at(at)?.reads;
        let set = if self.element_logged() {
            let scalars =
                reads.to_vec().into_iter().filter(|v| self.rp.vars[v.index()].size.is_none());
            Cow::Owned(VarSet::from_iter(self.rp.var_count(), scalars))
        } else {
            Cow::Borrowed(reads)
        };
        (!set.is_empty()).then_some(set)
    }

    fn capture_set(&self, pid: ProcId, set: &VarSet) -> Vec<(VarId, Value)> {
        let frame = self.frame(pid);
        let mut out = Vec::new();
        for var in set.to_vec() {
            if self.rp.is_shared(var) {
                out.push((var, self.shared[var.index()].clone()));
            } else if let Some(v) = frame.locals.get(&var) {
                out.push((var, v.clone()));
            }
        }
        out
    }

    /// The one writer of prelogs, postlogs and shared snapshots: captures
    /// `vars` in `pid`'s frame, ticks the clock and appends the entry
    /// `make` builds from the values and the time. The §7 meter times all
    /// of it and charges the entry's bytes to `record`.
    fn write_record(
        &mut self,
        pid: ProcId,
        record: Record,
        vars: &VarSet,
        make: impl FnOnce(Vec<(VarId, Value)>, u64) -> LogEntry,
    ) {
        let _span = ppd_obs::span("runtime", record.span_name());
        let meter_start = self.log_meter.as_ref().map(|_| Instant::now());
        let values = self.capture_set(pid, vars);
        let entry = make(values, self.tick());
        let bytes = self.log_meter.as_ref().map(|_| entry.size_bytes() as u64);
        self.log_append(pid, entry);
        if let (Some(start), Some(bytes)) = (meter_start, bytes) {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(meter) = self.log_meter.as_mut() {
                meter.note(record, bytes, ns);
            }
        }
    }

    fn next_instance(&mut self, pid: ProcId, eb: EBlockId) -> u64 {
        let counter = &mut self.eb_counters[pid.index()][eb.index()];
        let inst = *counter;
        *counter += 1;
        inst
    }

    /// Opens a log interval of `eb` in `pid`'s current frame — a body,
    /// loop or chunk e-block — by writing its prelog (§5.1); returns the
    /// instance.
    fn open_interval(&mut self, plan: &'p EBlockPlan, pid: ProcId, eb: EBlockId) -> u64 {
        let instance = self.next_instance(pid, eb);
        self.write_record(pid, Record::Prelog(eb), &plan.eblock(eb).used, |values, time| {
            LogEntry::Prelog { eblock: eb, instance, values, time }
        });
        self.frame_mut(pid).open_intervals.push((eb, instance));
        instance
    }

    fn open_body_interval(&mut self, pid: ProcId, body: BodyId) {
        let Some(plan) = self.logging_plan() else { return };
        if let Some(eb) = plan.body_eblock(body) {
            self.open_interval(plan, pid, eb);
        }
    }

    fn open_loop_interval(&mut self, pid: ProcId, stmt: &'p Stmt) {
        // In replay, a nested loop e-block was substituted in
        // `dispatch_stmt`; the replayed one itself opens nothing.
        let Some(plan) = self.logging_plan() else { return };
        let Some(eb) = plan.loop_eblock(stmt.id) else { return };
        let instance = self.open_interval(plan, pid, eb);
        self.frame_mut(pid).tasks.push(Task::CloseLoopInterval { eblock: eb, instance });
    }

    /// Closes an interval [`open_interval`](Self::open_interval) opened
    /// by writing its postlog.
    fn close_interval(&mut self, pid: ProcId, eb: EBlockId, instance: u64, ret: Option<i64>) {
        let Some(plan) = self.plan else { return };
        self.write_record(pid, Record::Postlog(eb), &plan.eblock(eb).defined, |values, time| {
            LogEntry::Postlog { eblock: eb, instance, values, ret: ret.map(Value::Int), time }
        });
        let frame = self.frame_mut(pid);
        if let Some(pos) = frame.open_intervals.iter().position(|&(b, i)| b == eb && i == instance)
        {
            frame.open_intervals.remove(pos);
        }
    }

    /// At a synchronization-unit boundary: writes (normal mode) or
    /// consumes (replay mode) the shared-variable snapshot of §5.5.
    fn unit_snapshot_point(
        &mut self,
        pid: ProcId,
        at: ppd_lang::StmtId,
    ) -> Result<(), RuntimeError> {
        if self.plan.is_none() {
            return Ok(());
        }
        let Some(reads) = self.snapshot_set(self.frame(pid).body, at) else { return Ok(()) };
        let Some(replay) = self.replay.as_mut() else {
            self.write_record(pid, Record::Snapshot, &reads, |values, time| {
                LogEntry::SharedSnapshot { at: Some(at), values, time }
            });
            return Ok(());
        };
        if replay.what_if {
            return Ok(());
        }
        let entry = replay.cursor.seek(|e| matches!(e, LogEntry::SharedSnapshot { .. }))?;
        let Some(LogEntry::SharedSnapshot { at: logged_at, values, .. }) = entry else {
            return Err(RuntimeError::LogMismatch("expected a SharedSnapshot entry".into()));
        };
        if logged_at != Some(at) {
            return Err(RuntimeError::LogMismatch(format!(
                "snapshot boundary mismatch: logged {logged_at:?}, replaying {:?}",
                Some(at)
            )));
        }
        for (var, value) in values {
            self.shared[var.index()] = value;
        }
        Ok(())
    }

    /// Substitution (§5.2): when this replay substitutes nested e-blocks
    /// and `nested` names one here, skips its logged interval and
    /// returns the e-block with the interval's postlog (`None` if the
    /// log has no closed interval of it).
    fn skip_nested(
        &mut self,
        nested: impl FnOnce(&EBlockPlan) -> Option<EBlockId>,
    ) -> Result<Option<(EBlockId, Option<LogEntry>)>, SegError> {
        let Some(replay) = self.replay.as_mut().filter(|r| r.nested == NestedCalls::Substitute)
        else {
            return Ok(None);
        };
        let Some(eb) = self.plan.and_then(nested) else { return Ok(None) };
        Ok(Some((eb, replay.cursor.skip_nested_interval(eb)?)))
    }

    /// Handles loop-e-block substitution during replay: when the replayed
    /// region *contains* a loop that formed its own e-block, the loop is
    /// skipped and its postlog applied (§5.4); the Controller re-executes
    /// the loop's own interval if the user asks for its details.
    fn try_substitute_loop(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        tracer: &mut dyn Tracer,
    ) -> Result<bool, RuntimeError> {
        // Don't substitute the loop we were asked to replay.
        if self.replay_root == Some(stmt.id) {
            return Ok(false);
        }
        let Some((eb, postlog)) = self.skip_nested(|p| p.loop_eblock(stmt.id))? else {
            return Ok(false);
        };
        let Some(LogEntry::Postlog { values, .. }) = postlog else {
            return Err(RuntimeError::LogMismatch(format!("missing nested loop interval {eb}")));
        };
        for (var, value) in values {
            if self.rp.is_shared(var) {
                self.shared[var.index()] = value;
            } else {
                self.frame_mut(pid).locals.insert(var, value);
            }
        }
        let stmt_id = stmt.id;
        self.emit_with(
            pid,
            stmt_id,
            EventKind::LoopSubstituted { eblock: eb },
            None,
            None,
            &mut Vec::new(),
            tracer,
        );
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn init_shared(rp: &ResolvedProgram) -> Vec<Value> {
    rp.vars[..rp.shared_count as usize]
        .iter()
        .map(|v| match v.size {
            Some(n) => Value::Array(vec![0; n]),
            None => Value::Int(v.init.unwrap_or(0)),
        })
        .collect()
}

fn init_sems(rp: &ResolvedProgram) -> Vec<SemState> {
    rp.sems.iter().map(|s| SemState { count: s.init, pending_v: None }).collect()
}

fn read_value(value: &Value, index: Option<i64>) -> Result<i64, RuntimeError> {
    match (value, index) {
        (Value::Int(n), None) => Ok(*n),
        (Value::Array(a), Some(i)) => {
            if i < 0 || i as usize >= a.len() {
                Err(RuntimeError::IndexOutOfBounds { index: i, len: a.len() })
            } else {
                Ok(a[i as usize])
            }
        }
        // Unreachable for programs that pass `ppd check` (TYP001 rejects
        // scalar/array shape confusion); defensive for unchecked runs.
        (Value::Int(n), Some(_)) => {
            debug_assert!(false, "indexed read of a scalar — `ppd check` would reject this");
            Ok(*n)
        }
        (Value::Array(_), None) => {
            debug_assert!(false, "scalar read of an array — `ppd check` would reject this");
            Ok(0)
        }
    }
}

fn write_value(value: &mut Value, index: Option<i64>, new: i64) -> Result<(), RuntimeError> {
    match (value, index) {
        (Value::Int(n), None) => {
            *n = new;
            Ok(())
        }
        (Value::Array(a), Some(i)) => {
            if i < 0 || i as usize >= a.len() {
                Err(RuntimeError::IndexOutOfBounds { index: i, len: a.len() })
            } else {
                a[i as usize] = new;
                Ok(())
            }
        }
        // Unreachable for programs that pass `ppd check` (TYP001 rejects
        // scalar/array shape confusion); treat as a scalar overwrite.
        (v, _) => {
            debug_assert!(false, "shape-confused write — `ppd check` would reject this");
            *v = Value::Int(new);
            Ok(())
        }
    }
}

fn apply_binop(op: BinOp, l: i64, r: i64) -> Result<i64, RuntimeError> {
    Ok(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return Err(RuntimeError::DivideByZero);
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return Err(RuntimeError::RemainderByZero);
            }
            l.wrapping_rem(r)
        }
        BinOp::Eq => (l == r) as i64,
        BinOp::Ne => (l != r) as i64,
        BinOp::Lt => (l < r) as i64,
        BinOp::Le => (l <= r) as i64,
        BinOp::Gt => (l > r) as i64,
        BinOp::Ge => (l >= r) as i64,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops never reach apply_binop"),
    })
}
