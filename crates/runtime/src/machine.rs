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
//!   baseline for the overhead experiment E1;
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
use ppd_log::{IntervalRef, LogCursor, LogEntry, LogStore};
use std::collections::{HashMap, VecDeque};
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
    /// measurements experiment E1 makes.
    pub meter_logging: bool,
    /// Stream logs to a segmented on-disk store in this directory while
    /// the program runs: every log write is teed into a
    /// [`ppd_log::SegmentWriter`], which seals and flushes full
    /// segments during execution. `None` (the default) keeps logs
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

    fn note_prelog(&mut self, eb: EBlockId, bytes: u64, ns: u64) {
        let c = self.per_eblock.entry(eb).or_default();
        c.prelog_count += 1;
        c.prelog_bytes += bytes;
        c.prelog_ns += ns;
    }

    fn note_postlog(&mut self, eb: EBlockId, bytes: u64, ns: u64) {
        let c = self.per_eblock.entry(eb).or_default();
        c.postlog_count += 1;
        c.postlog_bytes += bytes;
        c.postlog_ns += ns;
    }

    fn note_snapshot(&mut self, bytes: u64, ns: u64) {
        self.snapshot_count += 1;
        self.snapshot_bytes += bytes;
        self.snapshot_ns += ns;
    }
}

/// Result of a normal run.
#[derive(Debug)]
pub struct ExecResult {
    /// How execution ended.
    pub outcome: Outcome,
    /// `print` output in emission order.
    pub output: Vec<(ProcId, i64)>,
    /// The logs, if a plan was supplied.
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
    /// What the streaming sink wrote, when [`ExecConfig::log_dir`] was
    /// set and the sink finished cleanly.
    pub sink_report: Option<ppd_log::SinkReport>,
    /// The first error the streaming sink hit, if any: the run itself
    /// still completes (in-memory logs stay authoritative), but the
    /// on-disk store is incomplete and must not be trusted.
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
    IndexAfter { expr: &'p Expr, var: VarId },
    ArgMark,
    CallAfter { expr: &'p Expr, func: FuncId, argc: usize },
    SendAfter { stmt: &'p Stmt, to: ProcId, blocking: bool },
    RecvAfter { stmt: &'p Stmt, target: &'p LValue, has_index: bool },
    ChanSendAfter { stmt: &'p Stmt, chan: ChanRef, blocking: bool },
    ChanRecvAfter { stmt: &'p Stmt, chan: ChanRef, target: &'p LValue, has_index: bool },
    RendezvousAfter { stmt: &'p Stmt, callee: ProcId },
    AcceptEnd { caller: ProcId, caller_stmt: Option<ppd_lang::StmtId> },
    CloseLoopInterval { eblock: EBlockId, instance: u64 },
    SemWait { stmt: &'p Stmt, sem: ppd_lang::SemId, lock: bool },
    AcceptWait { stmt: &'p Stmt },
}

#[derive(Debug)]
struct Frame<'p> {
    body: BodyId,
    func: Option<FuncId>,
    locals: HashMap<VarId, Value>,
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
    fn new(body: BodyId, func: Option<FuncId>, call_seq: u64) -> Frame<'p> {
        Frame {
            body,
            func,
            locals: HashMap::new(),
            tasks: Vec::new(),
            values: Vec::new(),
            pending_reads: Vec::new(),
            arg_marks: Vec::new(),
            open_intervals: Vec::new(),
            current_stmt: None,
            call_seq,
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

/// The interpreter.
pub struct Machine<'p> {
    rp: &'p ResolvedProgram,
    analyses: &'p Analyses,
    plan: Option<&'p EBlockPlan>,
    procs: Vec<ProcState<'p>>,
    shared: Vec<Value>,
    sems: Vec<SemState>,
    mailboxes: Vec<VecDeque<Message>>,
    chan_queues: Vec<VecDeque<Message>>,
    rdv_queues: Vec<VecDeque<RdvCall>>,
    scheduler: Scheduler,
    inputs: Vec<(Vec<i64>, usize)>,
    output: Vec<(ProcId, i64)>,
    pgraph: Option<ParallelGraph>,
    logs: Option<LogStore>,
    eb_counters: Vec<HashMap<EBlockId, u64>>,
    replay: Option<ReplayState<'p>>,
    /// When replaying a loop region, the loop statement itself (so it is
    /// executed rather than substituted).
    replay_root: Option<ppd_lang::StmtId>,
    breakpoints: Vec<ppd_lang::StmtId>,
    hit_breakpoint: Option<(ProcId, ppd_lang::StmtId)>,
    /// Element-granular cell layout: the parallel graph records array
    /// accesses per element so race scans can distinguish `a[0]` from
    /// `a[1]`.
    cells: CellMap,
    clock: u64,
    steps: u64,
    max_steps: u64,
    events: u64,
    log_meter: Option<LogMeter>,
    /// Streaming segment sink (§5.6 out-of-core logs): log writes are
    /// teed here when [`ExecConfig::log_dir`] is set.
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
        let cells = CellMap::new(rp);
        let mut m = Machine {
            rp,
            analyses,
            plan,
            procs: Vec::new(),
            shared: init_shared(rp),
            sems: init_sems(rp),
            mailboxes: vec![VecDeque::new(); nprocs],
            chan_queues: vec![VecDeque::new(); rp.chans.len()],
            rdv_queues: vec![VecDeque::new(); nprocs],
            scheduler: config.scheduler.build(),
            inputs,
            output: Vec::new(),
            pgraph: config
                .build_parallel_graph
                .then(|| ParallelGraph::with_cells(cells.total(), cells.table())),
            cells,
            logs: plan.map(|_| LogStore::new(nprocs)),
            eb_counters: vec![HashMap::new(); nprocs],
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
            let mut frame = Frame::new(body, None, 0);
            let block = rp.body_block(body);
            frame.tasks.push(Task::Block { stmts: &block.stmts, next: 0 });
            m.procs.push(ProcState { id: pid, frames: vec![frame], status: Status::Runnable });
            let t = m.tick();
            if let Some(g) = m.pgraph.as_mut() {
                g.start_process(pid, t);
            }
            m.open_body_interval(pid);
        }
        m
    }

    /// Builds a machine that replays one logged e-block interval (the
    /// emulation package, §5.3).
    ///
    /// # Panics
    ///
    /// Panics if the interval's e-block is not in `plan`.
    pub fn new_replay(
        rp: &'p ResolvedProgram,
        analyses: &'p Analyses,
        plan: &'p EBlockPlan,
        store: &'p LogStore,
        interval: IntervalRef,
        nested: NestedCalls,
        max_steps: u64,
    ) -> Machine<'p> {
        Self::new_replay_until(rp, analyses, plan, store, interval, nested, max_steps, None)
    }

    /// Like [`new_replay`](Self::new_replay) but halts cleanly when
    /// `stop_at` is about to execute — used to replay an interval that
    /// was open at a breakpoint or deadlock, stopping exactly where the
    /// original execution did.
    #[allow(clippy::too_many_arguments)]
    pub fn new_replay_until(
        rp: &'p ResolvedProgram,
        analyses: &'p Analyses,
        plan: &'p EBlockPlan,
        store: &'p LogStore,
        interval: IntervalRef,
        nested: NestedCalls,
        max_steps: u64,
        stop_at: Option<ppd_lang::StmtId>,
    ) -> Machine<'p> {
        let eb = plan.eblock(interval.eblock);
        let body = eb.region.body();
        let func = match body {
            BodyId::Func(f) => Some(f),
            BodyId::Proc(_) => None,
        };
        let stmt_index = build_stmt_index(rp);
        let mut replay_root = None;
        let mut frame = Frame::new(body, func, 0);
        match &eb.region {
            Region::Body(_) => {
                let block = rp.body_block(body);
                frame.tasks.push(Task::Block { stmts: &block.stmts, next: 0 });
            }
            Region::Loop { stmt, .. } => {
                let s = stmt_index[stmt];
                replay_root = Some(*stmt);
                frame.tasks.push(Task::Stmt(s));
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
            mailboxes: Vec::new(),
            chan_queues: Vec::new(),
            rdv_queues: Vec::new(),
            scheduler: SchedulerSpec::PreferLowest.build(),
            inputs: Vec::new(),
            output: Vec::new(),
            pgraph: None,
            cells: CellMap::new(rp),
            logs: None,
            eb_counters: Vec::new(),
            replay: Some(ReplayState { cursor: store.cursor_at(interval), nested, what_if: false }),
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
        if let LogEntry::Prelog { values, .. } = store.prelog_of(interval) {
            for (var, value) in values {
                m.restore_var(*var, value.clone());
            }
        }
        m
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
            let frame = self.procs[0].frames.last_mut().expect("replay machine has one frame");
            frame.locals.insert(var, value);
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Writes one log record: teed into the streaming segment sink (if
    /// [`ExecConfig::log_dir`] was set) before landing in the in-memory
    /// store, so both backings see the identical entry sequence. A
    /// sink IO error disables the sink but never interrupts the run.
    fn log_append(&mut self, pid: ProcId, entry: LogEntry) {
        if let Some(sink) = self.sink.as_mut() {
            sink.append(pid, &entry);
        }
        if let Some(logs) = self.logs.as_mut() {
            logs.push(pid, entry);
        }
    }

    fn is_replay(&self) -> bool {
        self.replay.is_some()
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
        let mut sink_report = None;
        let mut sink_error = self.sink_error;
        if let Some(sink) = self.sink {
            match sink.finish() {
                Ok(report) => sink_report = Some(report),
                Err(e) => sink_error = sink_error.or_else(|| Some(e.to_string())),
            }
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
            sink_report,
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
            let runnable: Vec<ProcId> =
                self.procs.iter().filter(|p| p.status == Status::Runnable).map(|p| p.id).collect();
            if runnable.is_empty() {
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
            let pid = self.scheduler.pick(&runnable);
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
        self.procs.iter().find(|p| p.id == pid).expect("process exists")
    }

    fn proc_ix(&self, pid: ProcId) -> usize {
        self.procs.iter().position(|p| p.id == pid).expect("process exists")
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
            Task::IndexAfter { expr, var } => {
                let index = self.pop_value(pid);
                let v = self.read_var(pid, var, Some(index))?;
                let _ = expr;
                self.frame_mut(pid).values.push(v);
                Ok(())
            }
            Task::ArgMark => {
                let frame = self.frame_mut(pid);
                let mark = frame.pending_reads.len();
                frame.arg_marks.push(mark);
                Ok(())
            }
            Task::CallAfter { expr, func, argc } => self.do_call(pid, expr, func, argc, tracer),
            Task::SendAfter { stmt, to, blocking } => self.do_send(pid, stmt, to, blocking, tracer),
            Task::RecvAfter { stmt, target, has_index } => {
                self.do_recv(pid, stmt, target, has_index, tracer)
            }
            Task::ChanSendAfter { stmt, chan, blocking } => {
                self.do_chan_send(pid, stmt, chan, blocking, tracer)
            }
            Task::ChanRecvAfter { stmt, chan, target, has_index } => {
                self.do_chan_recv(pid, stmt, chan, target, has_index, tracer)
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
                    if let Some(cs) = caller_stmt {
                        self.unit_snapshot_point(caller, Some(cs))?;
                    }
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
        if let Some(plan) = self.plan {
            if !self.is_replay() {
                if let Some(eb) = plan.chunk_starting_at(stmt.id) {
                    self.switch_chunk_interval(pid, eb);
                }
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
                    return self.consume_snapshot_inner(Some(stmt.id));
                }
                self.frame_mut(pid).tasks.push(Task::SemWait { stmt, sem, lock });
                Ok(())
            }
            SyncStmt::V(_) | SyncStmt::Unlock(_) => {
                let sem = self.rp.sem_ref[&stmt.id];
                let lock = matches!(sync, SyncStmt::Unlock(_));
                let kind = if lock { SyncKind::Unlock } else { SyncKind::V };
                if self.is_replay() {
                    self.emit(pid, stmt.id, EventKind::Sync { kind }, None, None, tracer);
                    return self.consume_snapshot_inner(Some(stmt.id));
                }
                self.do_v(pid, stmt, sem, lock);
                self.emit(pid, stmt.id, EventKind::Sync { kind }, None, None, tracer);
                self.unit_snapshot_point(pid, Some(stmt.id))
            }
            SyncStmt::Send { value, .. } | SyncStmt::ASend { value, .. } => {
                let blocking = matches!(sync, SyncStmt::Send { .. });
                let after = match self.rp.msg_target.get(&stmt.id) {
                    Some(&to) => Task::SendAfter { stmt, to, blocking },
                    None => {
                        let chan = self.rp.send_chan[&stmt.id];
                        Task::ChanSendAfter { stmt, chan, blocking }
                    }
                };
                let frame = self.frame_mut(pid);
                frame.tasks.push(after);
                frame.tasks.push(Task::Eval(value));
                Ok(())
            }
            SyncStmt::Recv { into, .. } => {
                let has_index = into.index.is_some();
                let after = match self.rp.recv_chan.get(&stmt.id) {
                    Some(&chan) => Task::ChanRecvAfter { stmt, chan, target: into, has_index },
                    None => Task::RecvAfter { stmt, target: into, has_index },
                };
                let frame = self.frame_mut(pid);
                frame.tasks.push(after);
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
            SyncStmt::Accept { .. } => {
                if self.is_replay() {
                    return self.do_accept_replay(pid, stmt, tracer);
                }
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
            self.unit_snapshot_point(pid, Some(stmt.id))
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

    fn do_send(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        to: ProcId,
        blocking: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = self.pop_value(pid);
        let kind = if blocking { SyncKind::Send } else { SyncKind::ASend };
        if self.is_replay() {
            self.emit(pid, stmt.id, EventKind::Sync { kind }, None, Some(value), tracer);
            return self.consume_snapshot_inner(Some(stmt.id));
        }
        let t = self.tick();
        let send_node =
            self.pgraph.as_mut().map(|g| g.sync_point(pid, SyncNodeKind::Send, Some(stmt.id), t));
        self.mailboxes[to.index()].push_back(Message {
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
            self.unit_snapshot_point(pid, Some(stmt.id))?;
        }
        // Wake the receiver if it is waiting for mail.
        let rix = self.proc_ix(to);
        if self.procs[rix].status == Status::Blocked(BlockReason::AwaitMessage) {
            self.procs[rix].status = Status::Runnable;
        }
        Ok(())
    }

    fn do_recv(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        target: &'p LValue,
        has_index: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = if self.is_replay() {
            let replay = self.replay.as_mut().expect("replay mode");
            match replay.cursor.seek(|e| matches!(e, LogEntry::Receive { .. })) {
                Some(LogEntry::Receive { value, .. }) => *value,
                _ => {
                    return Err(RuntimeError::LogMismatch(
                        "expected a Receive entry for recv".into(),
                    ))
                }
            }
        } else {
            if self.mailboxes[pid.index()].is_empty() {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::RecvAfter { stmt, target, has_index });
                let ix = self.proc_ix(pid);
                self.procs[ix].status = Status::Blocked(BlockReason::AwaitMessage);
                return Ok(());
            }
            let msg = self.mailboxes[pid.index()].pop_front().expect("checked");
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
                self.unit_snapshot_point(msg.sender, Some(msg.send_stmt))?;
            }
            if self.logs.is_some() {
                let t2 = self.clock;
                self.log_append(pid, LogEntry::Receive { value: msg.value, time: t2 });
            }
            msg.value
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
        if self.is_replay() {
            self.consume_snapshot_inner(Some(stmt.id))
        } else {
            self.unit_snapshot_point(pid, Some(stmt.id))
        }
    }

    /// The channel a reference names right now: direct for a channel
    /// literal, the current value of the binding for a `chan` parameter.
    fn resolve_chan(&self, pid: ProcId, cref: ChanRef) -> Result<ChanId, RuntimeError> {
        let raw = match cref {
            ChanRef::Static(c) => return Ok(c),
            ChanRef::Var(v) => {
                let ix = self.proc_ix(pid);
                let frame = self.procs[ix].frames.last().expect("frame");
                match frame.locals.get(&v) {
                    Some(Value::Int(n)) => *n,
                    Some(Value::Array(_)) => i64::MIN,
                    None => return Err(RuntimeError::UninitializedLocal),
                }
            }
        };
        if raw < 0 || raw as usize >= self.rp.chans.len() {
            return Err(RuntimeError::InvalidChannel(raw));
        }
        Ok(ChanId(raw as u32))
    }

    fn do_chan_send(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        cref: ChanRef,
        blocking: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = self.pop_value(pid);
        let kind = if blocking { SyncKind::Send } else { SyncKind::ASend };
        if self.is_replay() {
            self.emit(pid, stmt.id, EventKind::Sync { kind }, None, Some(value), tracer);
            return self.consume_snapshot_inner(Some(stmt.id));
        }
        let chan = self.resolve_chan(pid, cref)?;
        let t = self.tick();
        let send_node =
            self.pgraph.as_mut().map(|g| g.sync_point(pid, SyncNodeKind::Send, Some(stmt.id), t));
        self.chan_queues[chan.index()].push_back(Message {
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
            self.unit_snapshot_point(pid, Some(stmt.id))?;
        }
        // Wake every process waiting on this channel to retry its recv.
        for p in &mut self.procs {
            if p.status == Status::Blocked(BlockReason::AwaitChannel(chan)) {
                p.status = Status::Runnable;
            }
        }
        Ok(())
    }

    fn do_chan_recv(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        cref: ChanRef,
        target: &'p LValue,
        has_index: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let value = if self.is_replay() {
            let replay = self.replay.as_mut().expect("replay mode");
            match replay.cursor.seek(|e| matches!(e, LogEntry::Receive { .. })) {
                Some(LogEntry::Receive { value, .. }) => *value,
                _ => {
                    return Err(RuntimeError::LogMismatch(
                        "expected a Receive entry for channel recv".into(),
                    ))
                }
            }
        } else {
            let chan = self.resolve_chan(pid, cref)?;
            if self.chan_queues[chan.index()].is_empty() {
                let frame = self.frame_mut(pid);
                frame.tasks.push(Task::ChanRecvAfter { stmt, chan: cref, target, has_index });
                let ix = self.proc_ix(pid);
                self.procs[ix].status = Status::Blocked(BlockReason::AwaitChannel(chan));
                return Ok(());
            }
            let msg = self.chan_queues[chan.index()].pop_front().expect("checked");
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
                self.unit_snapshot_point(msg.sender, Some(msg.send_stmt))?;
            }
            if self.logs.is_some() {
                let t2 = self.clock;
                self.log_append(pid, LogEntry::Receive { value: msg.value, time: t2 });
            }
            msg.value
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
        if self.is_replay() {
            self.consume_snapshot_inner(Some(stmt.id))
        } else {
            self.unit_snapshot_point(pid, Some(stmt.id))
        }
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
            return self.consume_snapshot_inner(Some(stmt.id));
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

    fn do_accept(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let StmtKind::Sync(SyncStmt::Accept { body, param_expr, .. }) = &stmt.kind else {
            unreachable!("AcceptWait on non-accept");
        };
        if self.rdv_queues[pid.index()].is_empty() {
            self.frame_mut(pid).tasks.push(Task::AcceptWait { stmt });
            let ix = self.proc_ix(pid);
            self.procs[ix].status = Status::Blocked(BlockReason::AwaitRendezvousCall);
            return Ok(());
        }
        let call = self.rdv_queues[pid.index()].pop_front().expect("checked");
        let t = self.tick();
        if let Some(g) = self.pgraph.as_mut() {
            let accept_node = g.sync_point(pid, SyncNodeKind::Accept, Some(stmt.id), t);
            if let Some(cn) = call.call_node {
                g.add_sync_edge(cn, accept_node, SyncEdgeLabel::RendezvousEntry);
            }
        }
        if self.logs.is_some() {
            let t2 = self.clock;
            self.log_append(pid, LogEntry::Receive { value: call.value, time: t2 });
        }
        let var = self.rp.expr_var[param_expr];
        self.frame_mut(pid).locals.insert(var, Value::Int(call.value));
        self.frame_mut(pid).pending_reads.push(ReadSource::External);
        self.emit(
            pid,
            stmt.id,
            EventKind::Sync { kind: SyncKind::Accept },
            Some((CellRef::scalar(var), call.value)),
            Some(call.value),
            tracer,
        );
        self.unit_snapshot_point(pid, Some(stmt.id))?;
        let frame = self.frame_mut(pid);
        frame
            .tasks
            .push(Task::AcceptEnd { caller: call.caller, caller_stmt: Some(call.call_stmt) });
        frame.tasks.push(Task::Block { stmts: &body.stmts, next: 0 });
        Ok(())
    }

    fn do_accept_replay(
        &mut self,
        pid: ProcId,
        stmt: &'p Stmt,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        let StmtKind::Sync(SyncStmt::Accept { body, param_expr, .. }) = &stmt.kind else {
            unreachable!("accept replay on non-accept");
        };
        let replay = self.replay.as_mut().expect("replay mode");
        let value = match replay.cursor.seek(|e| matches!(e, LogEntry::Receive { .. })) {
            Some(LogEntry::Receive { value, .. }) => *value,
            _ => {
                return Err(RuntimeError::LogMismatch("expected a Receive entry for accept".into()))
            }
        };
        let var = self.rp.expr_var[param_expr];
        self.frame_mut(pid).locals.insert(var, Value::Int(value));
        self.frame_mut(pid).pending_reads.push(ReadSource::External);
        self.emit(
            pid,
            stmt.id,
            EventKind::Sync { kind: SyncKind::Accept },
            Some((CellRef::scalar(var), value)),
            Some(value),
            tracer,
        );
        self.consume_snapshot_inner(Some(stmt.id))?;
        let frame = self.frame_mut(pid);
        frame.tasks.push(Task::AcceptEnd { caller: pid, caller_stmt: None });
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
                frame.tasks.push(Task::IndexAfter { expr, var });
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
                frame.tasks.push(Task::CallAfter { expr, func, argc: args.len() });
                for arg in args.iter().rev() {
                    frame.tasks.push(Task::ArgMark);
                    frame.tasks.push(Task::Eval(arg));
                }
                frame.tasks.push(Task::ArgMark); // base mark before arg 1
                Ok(())
            }
            ExprKind::Input => {
                let value = if self.is_replay() {
                    let replay = self.replay.as_mut().expect("replay mode");
                    match replay.cursor.seek(|e| matches!(e, LogEntry::Input { .. })) {
                        Some(LogEntry::Input { value, .. }) => *value,
                        _ => {
                            return Err(RuntimeError::LogMismatch(
                                "expected an Input entry for input()".into(),
                            ))
                        }
                    }
                } else {
                    let (stream, pos) = &mut self.inputs[pid.index()];
                    let Some(&v) = stream.get(*pos) else {
                        return Err(RuntimeError::InputExhausted);
                    };
                    *pos += 1;
                    if self.logs.is_some() {
                        let t = self.clock;
                        self.log_append(pid, LogEntry::Input { value: v, time: t });
                    }
                    v
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
        expr: &'p Expr,
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
        let _ = expr;

        // Gather argument values and per-argument reads.
        let (args_with_reads, call_reads) = {
            let frame = self.frame_mut(pid);
            let vals_start = frame.values.len() - argc;
            let arg_values: Vec<i64> = frame.values.split_off(vals_start);
            let marks_start = frame.arg_marks.len() - (argc + 1);
            let marks: Vec<usize> = frame.arg_marks.split_off(marks_start);
            let base = marks[0];
            let mut args_with_reads = Vec::with_capacity(argc);
            for (i, &v) in arg_values.iter().enumerate() {
                let lo = marks[i].min(frame.pending_reads.len());
                let hi = marks[i + 1].min(frame.pending_reads.len());
                args_with_reads.push((v, frame.pending_reads[lo..hi].to_vec()));
            }
            // The args' reads are consumed by the CallEnter event; reads
            // before the base mark stay pending for the enclosing event.
            let call_reads: Vec<ReadSource> =
                frame.pending_reads.split_off(base.min(frame.pending_reads.len()));
            (args_with_reads, call_reads)
        };

        // Substitution (§5.2): during replay, a callee with its own
        // e-block is not re-executed; its logged postlog is applied.
        let substitute = self.is_replay()
            && self.replay.as_ref().is_some_and(|r| r.nested == NestedCalls::Substitute)
            && self.plan.is_some_and(|p| p.body_eblock(BodyId::Func(func)).is_some());
        if substitute {
            let plan = self.plan.expect("checked");
            let eb = plan.body_eblock(BodyId::Func(func)).expect("checked");
            let replay = self.replay.as_mut().expect("replay mode");
            let Some(LogEntry::Postlog { values, ret, .. }) =
                replay.cursor.skip_nested_interval(eb)
            else {
                return Err(RuntimeError::LogMismatch(format!(
                    "missing nested interval for {}",
                    self.rp.func_name(func)
                )));
            };
            let values = values.clone();
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
                call_reads,
                tracer,
            );
            self.emit_with(
                pid,
                stmt_id,
                EventKind::CallExit { func, ret: Some(ret_val) },
                None,
                Some(ret_val),
                Vec::new(),
                tracer,
            );
            let frame = self.frame_mut(pid);
            frame.values.push(ret_val);
            frame.pending_reads.push(ReadSource::CallResult { call_seq });
            self.boundary_snapshot_at_current_stmt(pid)?;
            return Ok(());
        }

        // Inline execution (normal mode, merged leaves, or expansion).
        let call_seq = self.emit_with(
            pid,
            stmt_id,
            EventKind::CallEnter { func, args: args_with_reads.clone(), substituted: false },
            None,
            None,
            call_reads,
            tracer,
        );
        let body = BodyId::Func(func);
        let mut frame = Frame::new(body, Some(func), call_seq);
        let params = self.rp.funcs[func.index()].params.clone();
        for (param, (v, _)) in params.iter().zip(&args_with_reads) {
            frame.locals.insert(*param, Value::Int(*v));
        }
        let block = &self.rp.func_decl(func).body;
        frame.tasks.push(Task::Block { stmts: &block.stmts, next: 0 });
        let ix = self.proc_ix(pid);
        self.procs[ix].frames.push(frame);
        self.open_body_interval(pid);
        Ok(())
    }

    fn pop_frame(
        &mut self,
        pid: ProcId,
        ret: Option<i64>,
        tracer: &mut dyn Tracer,
    ) -> Result<(), RuntimeError> {
        // Close any intervals still open in this frame, innermost first.
        let open: Vec<(EBlockId, u64)> = {
            let frame = self.frame_mut(pid);
            frame.open_intervals.drain(..).rev().collect()
        };
        for (eb, inst) in open {
            self.close_interval(pid, eb, inst, ret);
        }

        let ix = self.proc_ix(pid);
        let frame = self.procs[ix].frames.pop().expect("frame to pop");
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
        let func = frame.func.expect("nested frames are function frames");
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
            Vec::new(),
            tracer,
        );
        let caller = self.frame_mut(pid);
        caller.values.push(ret.unwrap_or(0));
        caller.pending_reads.push(ReadSource::CallResult { call_seq: frame.call_seq });
        // The calling statement is a synchronization-unit boundary; its
        // unit's reads resume now that the callee (and whatever internal
        // synchronization it performed) has completed.
        self.boundary_snapshot_at_current_stmt(pid)
    }

    /// Emits (normal mode) or consumes (replay) the unit snapshot keyed
    /// by the current statement, if that statement is a unit boundary.
    fn boundary_snapshot_at_current_stmt(&mut self, pid: ProcId) -> Result<(), RuntimeError> {
        let ix = self.proc_ix(pid);
        let frame = self.procs[ix].frames.last().expect("frame");
        let (body, stmt) = (frame.body, frame.current_stmt.map(|s| s.id));
        let Some(stmt) = stmt else { return Ok(()) };
        if self.analyses.sync_units.of(body).is_boundary(stmt) {
            self.unit_snapshot_point(pid, Some(stmt))
        } else {
            Ok(())
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
        let what_if = self.replay.as_ref().is_some_and(|r| r.what_if);
        let value = if element_logged && self.is_replay() && !what_if {
            let replay = self.replay.as_mut().expect("replay mode");
            match replay.cursor.seek(|e| matches!(e, LogEntry::ElementRead { .. })) {
                Some(LogEntry::ElementRead { value, .. }) => *value,
                _ => {
                    return Err(RuntimeError::LogMismatch(
                        "expected an ElementRead entry for array read".into(),
                    ))
                }
            }
        } else if shared {
            read_value(&self.shared[var.index()], index)?
        } else {
            let ix = self.proc_ix(pid);
            let frame = self.procs[ix].frames.last().expect("frame");
            let Some(v) = frame.locals.get(&var) else {
                return Err(RuntimeError::UninitializedLocal);
            };
            read_value(v, index)?
        };
        if element_logged && !self.is_replay() && self.logs.is_some() {
            let t = self.clock;
            self.log_append(pid, LogEntry::ElementRead { value, time: t });
        }
        let cell = CellRef { var, index: index.map(|i| i as usize) };
        self.frame_mut(pid).pending_reads.push(ReadSource::Cell(cell));
        if shared && !self.is_replay() {
            let c = self.cells.cell(var, cell.index);
            if let Some(g) = self.pgraph.as_mut() {
                g.record_read(pid, c);
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
            if !self.is_replay() {
                let c = self.cells.cell(var, index.map(|i| i as usize));
                if let Some(g) = self.pgraph.as_mut() {
                    g.record_write(pid, c);
                }
            }
        } else {
            let ix = self.proc_ix(pid);
            let frame = self.procs[ix].frames.last_mut().expect("frame");
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
        let reads = std::mem::take(&mut self.frame_mut(pid).pending_reads);
        self.emit_with(pid, stmt, kind, write, value, reads, tracer)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_with(
        &mut self,
        pid: ProcId,
        stmt: ppd_lang::StmtId,
        kind: EventKind,
        write: Option<(CellRef, i64)>,
        value: Option<i64>,
        reads: Vec<ReadSource>,
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
        let event = TraceEvent { proc: pid, stmt, seq, kind, reads, write, value };
        tracer.event(&event);
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

    /// Applies the element-logging exclusion: arrays drop out of unit
    /// snapshot sets when their reads are logged individually.
    fn filter_snapshot_set(&self, set: &VarSet) -> VarSet {
        if !self.element_logged() {
            return set.clone();
        }
        VarSet::from_iter(
            self.rp.var_count(),
            set.to_vec().into_iter().filter(|v| self.rp.vars[v.index()].size.is_none()),
        )
    }

    fn capture_set(&self, pid: ProcId, set: &VarSet) -> Vec<(VarId, Value)> {
        let ix = self.proc_ix(pid);
        let frame = self.procs[ix].frames.last().expect("frame");
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

    fn next_instance(&mut self, pid: ProcId, eb: EBlockId) -> u64 {
        let counter = self.eb_counters[pid.index()].entry(eb).or_insert(0);
        let inst = *counter;
        *counter += 1;
        inst
    }

    fn open_body_interval(&mut self, pid: ProcId) {
        if self.is_replay() {
            return;
        }
        let Some(plan) = self.plan else { return };
        let body = {
            let ix = self.proc_ix(pid);
            self.procs[ix].frames.last().expect("frame").body
        };
        let Some(eb) = plan.body_eblock(body) else { return };
        let _span = ppd_obs::span("runtime", "prelog");
        let meter_start = self.log_meter.as_ref().map(|_| Instant::now());
        let used = plan.eblock(eb).used.clone();
        let values = self.capture_set(pid, &used);
        let instance = self.next_instance(pid, eb);
        let t = self.tick();
        let entry = LogEntry::Prelog { eblock: eb, instance, values, time: t };
        let bytes = self.log_meter.as_ref().map(|_| entry.size_bytes() as u64);
        self.log_append(pid, entry);
        if let (Some(start), Some(bytes)) = (meter_start, bytes) {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(meter) = self.log_meter.as_mut() {
                meter.note_prelog(eb, bytes, ns);
            }
        }
        self.frame_mut(pid).open_intervals.push((eb, instance));
    }

    fn open_loop_interval(&mut self, pid: ProcId, stmt: &'p Stmt) {
        let Some(plan) = self.plan else { return };
        let Some(eb) = plan.loop_eblock(stmt.id) else { return };
        if self.is_replay() {
            return; // handled by substitution in dispatch_stmt
        }
        let _span = ppd_obs::span("runtime", "prelog");
        let meter_start = self.log_meter.as_ref().map(|_| Instant::now());
        let used = plan.eblock(eb).used.clone();
        let values = self.capture_set(pid, &used);
        let instance = self.next_instance(pid, eb);
        let t = self.tick();
        let entry = LogEntry::Prelog { eblock: eb, instance, values, time: t };
        let bytes = self.log_meter.as_ref().map(|_| entry.size_bytes() as u64);
        self.log_append(pid, entry);
        if let (Some(start), Some(bytes)) = (meter_start, bytes) {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(meter) = self.log_meter.as_mut() {
                meter.note_prelog(eb, bytes, ns);
            }
        }
        let frame = self.frame_mut(pid);
        frame.open_intervals.push((eb, instance));
        frame.tasks.push(Task::CloseLoopInterval { eblock: eb, instance });
    }

    fn switch_chunk_interval(&mut self, pid: ProcId, eb: EBlockId) {
        // Close the previous chunk if one is open.
        let prev = self.frame_mut(pid).open_intervals.last().copied();
        if let Some((prev_eb, prev_inst)) = prev {
            if let Some(plan) = self.plan {
                if matches!(plan.eblock(prev_eb).region, Region::Chunk { .. }) {
                    self.close_interval(pid, prev_eb, prev_inst, None);
                }
            }
        }
        let Some(plan) = self.plan else { return };
        let _span = ppd_obs::span("runtime", "prelog");
        let meter_start = self.log_meter.as_ref().map(|_| Instant::now());
        let used = plan.eblock(eb).used.clone();
        let values = self.capture_set(pid, &used);
        let instance = self.next_instance(pid, eb);
        let t = self.tick();
        let entry = LogEntry::Prelog { eblock: eb, instance, values, time: t };
        let bytes = self.log_meter.as_ref().map(|_| entry.size_bytes() as u64);
        self.log_append(pid, entry);
        if let (Some(start), Some(bytes)) = (meter_start, bytes) {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(meter) = self.log_meter.as_mut() {
                meter.note_prelog(eb, bytes, ns);
            }
        }
        self.frame_mut(pid).open_intervals.push((eb, instance));
    }

    fn close_interval(&mut self, pid: ProcId, eb: EBlockId, instance: u64, ret: Option<i64>) {
        if self.is_replay() {
            return;
        }
        let Some(plan) = self.plan else { return };
        let _span = ppd_obs::span("runtime", "postlog");
        let meter_start = self.log_meter.as_ref().map(|_| Instant::now());
        let defined = plan.eblock(eb).defined.clone();
        let values = self.capture_set(pid, &defined);
        let t = self.tick();
        let entry =
            LogEntry::Postlog { eblock: eb, instance, values, ret: ret.map(Value::Int), time: t };
        let bytes = self.log_meter.as_ref().map(|_| entry.size_bytes() as u64);
        self.log_append(pid, entry);
        if let (Some(start), Some(bytes)) = (meter_start, bytes) {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(meter) = self.log_meter.as_mut() {
                meter.note_postlog(eb, bytes, ns);
            }
        }
        let frame = self.frame_mut(pid);
        if let Some(pos) = frame.open_intervals.iter().position(|&(b, i)| b == eb && i == instance)
        {
            frame.open_intervals.remove(pos);
        }
    }

    /// At a synchronization-unit boundary: write (normal mode) or consume
    /// (replay mode) the shared-variable snapshot of §5.5.
    fn unit_snapshot_point(
        &mut self,
        pid: ProcId,
        at: Option<ppd_lang::StmtId>,
    ) -> Result<(), RuntimeError> {
        let body = {
            let ix = self.proc_ix(pid);
            self.procs[ix].frames.last().expect("frame").body
        };
        if self.is_replay() {
            return self.consume_snapshot_inner(at);
        }
        let Some(_plan) = self.plan else { return Ok(()) };
        let unit_reads = {
            let units = self.analyses.sync_units.of(body);
            let unit = match at {
                None => Some(units.entry_unit()),
                Some(stmt) => units.unit_at(stmt),
            };
            match unit {
                Some(u) => {
                    let filtered = self.filter_snapshot_set(&u.reads);
                    (!filtered.is_empty()).then_some(filtered)
                }
                None => None,
            }
        }; // at=None is currently never emitted: the e-block prelog covers it
        if let Some(reads) = unit_reads {
            let _span = ppd_obs::span("runtime", "snapshot");
            let meter_start = self.log_meter.as_ref().map(|_| Instant::now());
            let values = self.capture_set(pid, &reads);
            let t = self.tick();
            let entry = LogEntry::SharedSnapshot { at, values, time: t };
            let bytes = self.log_meter.as_ref().map(|_| entry.size_bytes() as u64);
            self.log_append(pid, entry);
            if let (Some(start), Some(bytes)) = (meter_start, bytes) {
                let ns = start.elapsed().as_nanos() as u64;
                if let Some(meter) = self.log_meter.as_mut() {
                    meter.note_snapshot(bytes, ns);
                }
            }
        }
        Ok(())
    }

    fn consume_snapshot_inner(&mut self, at: Option<ppd_lang::StmtId>) -> Result<(), RuntimeError> {
        // Only consume if the unit has a non-empty read set — mirrors the
        // emission condition exactly.
        let body = self.procs[0].frames.last().expect("frame").body;
        let has_reads = {
            let units = self.analyses.sync_units.of(body);
            let unit = match at {
                None => Some(units.entry_unit()),
                Some(stmt) => units.unit_at(stmt),
            };
            match unit {
                Some(u) => !self.filter_snapshot_set(&u.reads).is_empty(),
                None => false,
            }
        };
        if !has_reads {
            return Ok(());
        }
        if self.replay.as_ref().is_some_and(|r| r.what_if) {
            return Ok(());
        }
        let replay = self.replay.as_mut().expect("replay mode");
        let entry = replay.cursor.seek(|e| matches!(e, LogEntry::SharedSnapshot { .. }));
        let Some(LogEntry::SharedSnapshot { at: logged_at, values, .. }) = entry else {
            return Err(RuntimeError::LogMismatch("expected a SharedSnapshot entry".into()));
        };
        if *logged_at != at {
            return Err(RuntimeError::LogMismatch(format!(
                "snapshot boundary mismatch: logged {logged_at:?}, replaying {at:?}"
            )));
        }
        for (var, value) in values.clone() {
            self.shared[var.index()] = value;
        }
        Ok(())
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
        if !self.is_replay() {
            return Ok(false);
        }
        let Some(plan) = self.plan else { return Ok(false) };
        let Some(eb) = plan.loop_eblock(stmt.id) else { return Ok(false) };
        let replay = self.replay.as_ref().expect("replay mode");
        if replay.nested != NestedCalls::Substitute {
            return Ok(false);
        }
        // Don't substitute the loop we were asked to replay.
        if self.replay_root == Some(stmt.id) {
            return Ok(false);
        }
        let replay = self.replay.as_mut().expect("replay mode");
        let Some(LogEntry::Postlog { values, .. }) = replay.cursor.skip_nested_interval(eb) else {
            return Err(RuntimeError::LogMismatch(format!("missing nested loop interval {eb}")));
        };
        let values = values.clone();
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
            Vec::new(),
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

fn build_stmt_index(rp: &ResolvedProgram) -> HashMap<ppd_lang::StmtId, &Stmt> {
    let mut map = HashMap::new();
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |s| {
            map.insert(s.id, s);
        });
    }
    map
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
