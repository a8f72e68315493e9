//! The preparatory and execution phases (§3.2.1, §3.2.2).
//!
//! [`PpdSession::prepare`] is the paper's Compiler/Linker: it parses and
//! resolves the program, runs the semantic analyses (the program
//! database among them), and computes the e-block plan. The §4.1 static
//! graph is not part of a session: the debugger's queries run on the
//! dynamic graph, and the few readers of the static one build it with
//! `ppd_graph::StaticGraph::build`.
//! [`PpdSession::execute`] is the execution phase: it runs the program as
//! instrumented *object code*, producing output, per-process logs, and
//! the parallel dynamic graph.

use crate::PpdError;
use ppd_analysis::{Analyses, AnalysisConfig, EBlockPlan, EBlockStrategy};
use ppd_analysis::{VarSet, VarSetRepr};
use ppd_graph::{
    InternalEdge, InternalEdgeId, ParallelGraph, SyncEdge, SyncEdgeLabel, SyncNode, SyncNodeId,
    SyncNodeKind, VectorClocks,
};
use ppd_lang::ast::walk_stmts;
use ppd_lang::{pretty, ProcId, ResolvedProgram, StmtId, VarId};
use ppd_log::binio::{put_varint, Reader};
use ppd_log::LogStore;
use ppd_runtime::{ExecConfig, LogMeter, Machine, NullTracer, Outcome, SchedulerSpec, Tracer};
use std::path::Path;
use std::sync::OnceLock;

/// Parameters of one execution-phase run.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct RunConfig {
    /// Scheduling policy (reproducible).
    pub scheduler: SchedulerSpec,
    /// Per-process input streams.
    pub inputs: Vec<Vec<i64>>,
    /// Step budget; `None` uses the runtime default.
    pub max_steps: Option<u64>,
    /// Statements that halt execution when reached (user-intervention
    /// halt, §3.2.2): the debugging phase then starts from the open
    /// intervals, exactly as for a failure.
    pub breakpoints: Vec<ppd_lang::StmtId>,
}

impl RunConfig {
    fn to_exec(&self, build_pgraph: bool) -> ExecConfig {
        let mut cfg = ExecConfig {
            scheduler: self.scheduler,
            inputs: self.inputs.clone(),
            build_parallel_graph: build_pgraph,
            breakpoints: self.breakpoints.clone(),
            ..ExecConfig::default()
        };
        if let Some(m) = self.max_steps {
            cfg.max_steps = m;
        }
        cfg
    }
}

/// Everything the execution phase leaves behind for debugging.
///
/// The paper's logs live on disk between the execution and debugging
/// phases: [`Execution::save_dir`] (or
/// [`PpdSession::execute_streaming_with`]) writes a log directory and
/// [`Execution::load_dir`] opens it. A loaded execution must be
/// debugged against a session prepared from the *same source and
/// e-block strategy* (the plan defines what the logs mean).
#[derive(Debug)]
pub struct Execution {
    /// How the run ended.
    pub outcome: Outcome,
    /// Program output in global order.
    pub output: Vec<(ProcId, i64)>,
    /// One log per process (§5.6).
    pub logs: LogStore,
    /// The parallel dynamic graph, built during execution (§6.1).
    pub pgraph: ParallelGraph,
    /// Scheduler steps consumed.
    pub steps: u64,
    /// The configuration that produced this execution (needed to
    /// reproduce it).
    pub config: RunConfig,
    /// [`Execution::ordering`]'s cache; rebuilt on demand, never saved.
    ordering: OnceLock<VectorClocks>,
}

/// Everything `run.json` carries: the execution record minus the logs
/// (the `.seg` files) and the parallel graph (`pgraph.bin`).
#[derive(serde::Serialize, serde::Deserialize)]
struct RunRecord {
    outcome: Outcome,
    output: Vec<(ProcId, i64)>,
    steps: u64,
    config: RunConfig,
}

/// Name of the run record in a log directory.
const RUN_RECORD_NAME: &str = "run.json";

/// Name of the parallel-graph record in a log directory.
const GRAPH_RECORD_NAME: &str = "pgraph.bin";

/// Writes `execution`'s records next to its segments: `pgraph.bin`,
/// then `run.json`.
fn write_run_record(dir: &Path, execution: &Execution) -> Result<(), PpdError> {
    let graph = GraphRecord::of(&execution.pgraph, execution.logs.process_count()).encode();
    let record = RunRecord {
        outcome: execution.outcome.clone(),
        output: execution.output.clone(),
        steps: execution.steps,
        config: execution.config.clone(),
    };
    let json = serde_json::to_string(&record)
        .map_err(|e| PpdError::Store(format!("serialize {RUN_RECORD_NAME}: {e}")))?;
    for (name, bytes) in [(GRAPH_RECORD_NAME, graph), (RUN_RECORD_NAME, json.into_bytes())] {
        std::fs::write(dir.join(name), bytes)
            .map_err(|e| PpdError::Store(format!("write {name}: {e}")))?;
    }
    Ok(())
}

/// First bytes of `pgraph.bin`.
const GRAPH_MAGIC: &[u8; 4] = b"PPDG";

/// The `pgraph.bin` layout version.
const GRAPH_VERSION: u8 = 1;

/// The most a loaded graph's cell table and read/write sets may take, in
/// bytes. E12's largest graphs take a few MB.
const GRAPH_MEMORY_LIMIT: u64 = 1 << 30;

/// Node kinds by their byte in `pgraph.bin` (declaration order).
const NODE_KINDS: [SyncNodeKind; 13] = [
    SyncNodeKind::ProcessStart,
    SyncNodeKind::ProcessEnd,
    SyncNodeKind::P,
    SyncNodeKind::V,
    SyncNodeKind::Lock,
    SyncNodeKind::Unlock,
    SyncNodeKind::Send,
    SyncNodeKind::Recv,
    SyncNodeKind::Unblock,
    SyncNodeKind::RendezvousCall,
    SyncNodeKind::Accept,
    SyncNodeKind::AcceptEnd,
    SyncNodeKind::RendezvousReturn,
];

/// Sync-edge labels by their byte in `pgraph.bin` (declaration order).
const EDGE_LABELS: [SyncEdgeLabel; 6] = [
    SyncEdgeLabel::Semaphore,
    SyncEdgeLabel::Mutex,
    SyncEdgeLabel::Message,
    SyncEdgeLabel::SendUnblock,
    SyncEdgeLabel::RendezvousEntry,
    SyncEdgeLabel::RendezvousExit,
];

/// A parallel graph's parts as `pgraph.bin` holds them (§6.1).
///
/// The file is `PPDG`, a version byte, a body of LEB128 varints (kinds
/// and labels are single bytes), and the little-endian CRC-32 of
/// everything before it. The body is `procs universe nodes internal
/// sync` (the last three are counts), then
/// - the cell table as runs, `count (len owner first)*`: `first` 0 is a
///   run of scalar cells owned by `owner`, `owner + 1`, ...; `e + 1` is
///   a run of `owner`'s elements `e`, `e + 1`, ...;
/// - each node, `proc kind stmt dtime`: `stmt` is 0 or the statement
///   id + 1, `dtime` the time since the previous node;
/// - each internal edge, `proc dto back reads writes events`;
/// - each sync edge, `label dto back`.
///
/// Ids are implicit. An edge's `dto` is its target's id less the
/// previous edge's target (of the same kind), `back` is `to - from`;
/// both, like `dtime`, wrap. A set is `count first (gap - 1)*`.
struct GraphRecord<'a> {
    procs: usize,
    universe: usize,
    cells: &'a [(VarId, Option<u32>)],
    nodes: &'a [SyncNode],
    internal: &'a [InternalEdge],
    sync: &'a [SyncEdge],
}

impl GraphRecord<'_> {
    /// `graph`'s parts, for a run of `procs` processes.
    fn of(graph: &ParallelGraph, procs: usize) -> GraphRecord<'_> {
        GraphRecord {
            procs,
            universe: graph.universe(),
            cells: graph.cells(),
            nodes: graph.nodes(),
            internal: graph.internal_edges(),
            sync: graph.sync_edges(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = GRAPH_MAGIC.to_vec();
        out.push(GRAPH_VERSION);
        let (nodes, internal, sync) = (self.nodes.len(), self.internal.len(), self.sync.len());
        for n in [self.procs, self.universe, nodes, internal, sync] {
            put_varint(&mut out, n as u64);
        }
        let runs = cell_runs(self.cells);
        put_varint(&mut out, runs.len() as u64);
        for (len, owner, first) in runs {
            put_varint(&mut out, len);
            put_varint(&mut out, u64::from(owner.0));
            put_varint(&mut out, first.map_or(0, |e| u64::from(e) + 1));
        }
        let mut time = 0;
        for n in self.nodes {
            put_varint(&mut out, u64::from(n.proc.0));
            out.push(n.kind as u8);
            put_varint(&mut out, n.stmt.map_or(0, |s| u64::from(s.0) + 1));
            put_varint(&mut out, n.time.wrapping_sub(time));
            time = n.time;
        }
        let mut prev_to = 0;
        for e in self.internal {
            put_varint(&mut out, u64::from(e.proc.0));
            put_edge(&mut out, &mut prev_to, e.from, e.to);
            for set in [&e.reads, &e.writes] {
                let members = set.to_vec();
                put_varint(&mut out, members.len() as u64);
                let mut next = 0;
                for v in members {
                    put_varint(&mut out, u64::from(v.0) - next);
                    next = u64::from(v.0) + 1;
                }
            }
            put_varint(&mut out, e.events);
        }
        let mut prev_to = 0;
        for e in self.sync {
            out.push(e.label as u8);
            put_edge(&mut out, &mut prev_to, e.from, e.to);
        }
        let crc = lzb::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// The cell table as `(len, owner, first element)` runs (see
/// [`GraphRecord`]).
fn cell_runs(cells: &[(VarId, Option<u32>)]) -> Vec<(u64, VarId, Option<u32>)> {
    let mut runs: Vec<(u64, VarId, Option<u32>)> = Vec::new();
    for &(owner, elem) in cells {
        let extends = runs.last().is_some_and(|&(len, o, first)| match (first, elem) {
            (None, None) => u64::from(o.0) + len == u64::from(owner.0),
            (Some(f), Some(e)) => o == owner && u64::from(f) + len == u64::from(e),
            _ => false,
        });
        match runs.last_mut() {
            Some(run) if extends => run.0 += 1,
            _ => runs.push((1, owner, elem)),
        }
    }
    runs
}

fn put_edge(out: &mut Vec<u8>, prev_to: &mut u32, from: SyncNodeId, to: SyncNodeId) {
    put_varint(out, u64::from(to.0.wrapping_sub(*prev_to)));
    put_varint(out, u64::from(to.0.wrapping_sub(from.0)));
    *prev_to = to.0;
}

/// Reads `pgraph.bin`: checks its frame and checksum, decodes the body
/// and rebuilds the graph through [`ParallelGraph::from_recorded`].
/// Returns the process count the record names, with the graph.
fn decode_graph(bytes: &[u8]) -> Result<(usize, ParallelGraph), String> {
    let head = GRAPH_MAGIC.len() + 1;
    if bytes.len() < head + 4 {
        return Err(format!("file too short ({} bytes) to be a graph record", bytes.len()));
    }
    if &bytes[..GRAPH_MAGIC.len()] != GRAPH_MAGIC {
        return Err("bad graph record magic".into());
    }
    if bytes[head - 1] != GRAPH_VERSION {
        return Err(format!("unknown graph record version {}", bytes[head - 1]));
    }
    let (framed, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = lzb::crc32(framed);
    if stored != actual {
        return Err(format!("crc mismatch (stored {stored:#010x}, computed {actual:#010x})"));
    }
    let r = &mut Reader::with_base(&framed[head..], head);
    let procs = usize::try_from(num(r)?).map_err(|_| "process count overflows".to_string())?;
    let universe = num32(r)? as usize;
    let (node_count, internal_count, sync_count) = (count(r)?, count(r)?, count(r)?);
    // Varints can describe far more than the record's size: bound what
    // the cell table and the read/write sets will take before
    // allocating either.
    let set_bytes = universe.div_ceil(64) as u64 * 16;
    let needs = set_bytes.saturating_mul(internal_count as u64).saturating_add(8 * universe as u64);
    if needs > GRAPH_MEMORY_LIMIT {
        return Err(format!(
            "{internal_count} edges over {universe} cells need {needs} bytes, past the \
             {GRAPH_MEMORY_LIMIT}-byte limit"
        ));
    }
    let mut cells = Vec::new();
    for _ in 0..num(r)? {
        let at = r.offset();
        let (len, owner, first) = (num(r)?, num32(r)?, num(r)?);
        // The run's last cell and its last id must both stay in range.
        let base = if first == 0 { u64::from(owner) } else { first - 1 };
        let fits = base.checked_add(len).is_some_and(|end| end <= 1 << 32);
        if len > (universe - cells.len()) as u64 || !fits {
            return Err(format!("cell run of {len} at byte {at} overflows {universe} cells"));
        }
        let run = (0..len as u32).map(|k| match first {
            0 => (VarId(owner + k), None),
            _ => (VarId(owner), Some(base as u32 + k)),
        });
        cells.extend(run);
    }
    let mut nodes = Vec::with_capacity(node_count);
    let mut time = 0u64;
    for i in 0..node_count {
        let proc = ProcId(num32(r)?);
        let kind = tag(r, &NODE_KINDS, "node kind")?;
        let stmt = num32(r)?.checked_sub(1).map(StmtId);
        time = time.wrapping_add(num(r)?);
        nodes.push(SyncNode { id: SyncNodeId(i as u32), proc, kind, stmt, time });
    }
    let mut internal = Vec::with_capacity(internal_count);
    let mut prev_to = 0;
    for i in 0..internal_count {
        let proc = ProcId(num32(r)?);
        let (from, to) = get_edge(r, &mut prev_to)?;
        let (reads, writes) = (get_set(r, universe)?, get_set(r, universe)?);
        let (id, events) = (InternalEdgeId(i as u32), num(r)?);
        internal.push(InternalEdge { id, proc, from, to, reads, writes, events });
    }
    let mut sync = Vec::with_capacity(sync_count);
    let mut prev_to = 0;
    for _ in 0..sync_count {
        let label = tag(r, &EDGE_LABELS, "sync edge label")?;
        let (from, to) = get_edge(r, &mut prev_to)?;
        sync.push(SyncEdge { from, to, label });
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after the graph", r.remaining()));
    }
    let graph = ParallelGraph::from_recorded(procs, universe, cells, nodes, internal, sync)?;
    Ok((procs, graph))
}

fn num(r: &mut Reader<'_>) -> Result<u64, String> {
    r.varint().map_err(|e| e.to_string())
}

/// A varint that must fit 32 bits (an id, or an id + 1).
fn num32(r: &mut Reader<'_>) -> Result<u32, String> {
    let at = r.offset();
    let v = num(r)?;
    u32::try_from(v).map_err(|_| format!("{v} at byte {at} overflows 32 bits"))
}

/// A record count: each record takes at least one byte, so a count
/// past the bytes left is damage, and the reservation stays bounded.
fn count(r: &mut Reader<'_>) -> Result<usize, String> {
    let at = r.offset();
    let n = num(r)?;
    if n > r.remaining() as u64 {
        return Err(format!("count {n} at byte {at} exceeds the {} bytes left", r.remaining()));
    }
    Ok(n as usize)
}

fn tag<T: Copy>(r: &mut Reader<'_>, table: &[T], what: &str) -> Result<T, String> {
    let at = r.offset();
    let b = r.byte().map_err(|e| e.to_string())?;
    table.get(usize::from(b)).copied().ok_or_else(|| format!("unknown {what} {b} at byte {at}"))
}

fn get_edge(r: &mut Reader<'_>, prev_to: &mut u32) -> Result<(SyncNodeId, SyncNodeId), String> {
    let to = prev_to.wrapping_add(num32(r)?);
    let from = to.wrapping_sub(num32(r)?);
    *prev_to = to;
    Ok((SyncNodeId(from), SyncNodeId(to)))
}

fn get_set(r: &mut Reader<'_>, universe: usize) -> Result<VarSet, String> {
    let mut set = VarSet::empty(universe);
    let mut next = 0u64;
    for _ in 0..num(r)? {
        let at = r.offset();
        let v = next.saturating_add(num(r)?);
        if v >= universe as u64 {
            return Err(format!("set member {v} at byte {at} is past the {universe} cells"));
        }
        set.insert(VarId(v as u32));
        next = v + 1;
    }
    Ok(set)
}

impl Execution {
    /// The happened-before order of [`pgraph`](Self::pgraph) as vector
    /// clocks (§6.1), computed on first use and cached, so repeated race
    /// queries on one execution order its events once. The cache is
    /// never invalidated: `pgraph` must not be mutated after the first
    /// call.
    pub fn ordering(&self) -> &VectorClocks {
        self.ordering.get_or_init(|| VectorClocks::compute(&self.pgraph))
    }

    /// Persists this execution to `dir` as a segmented log store (one
    /// `.seg` file per sealed segment, CRC-guarded footers) plus its
    /// record: the parallel graph in `pgraph.bin` (binary, CRC-guarded)
    /// and everything else in `run.json`. The directory can be
    /// reopened with [`Execution::load_dir`] — or by `ppd
    /// debug/races/lint --log-dir` — without rescanning the logs.
    ///
    /// `segment_bytes` is the per-segment payload capacity; `0` uses
    /// [`ppd_log::DEFAULT_SEGMENT_BYTES`]. `format` frames the segment
    /// payloads — [`ppd_log::SegmentFormat::V2Compressed`] for
    /// `--compress` stores.
    ///
    /// # Errors
    ///
    /// Returns [`PpdError::Store`] on IO or serialization failure, or
    /// when a segment-backed execution's payload is damaged.
    pub fn save_dir(
        &self,
        dir: &Path,
        segment_bytes: usize,
        format: ppd_log::SegmentFormat,
    ) -> Result<ppd_log::SinkReport, PpdError> {
        let report = self.logs.write_dir(dir, segment_bytes, format)?;
        write_run_record(dir, self)?;
        Ok(report)
    }

    /// Opens an execution saved by [`Execution::save_dir`] (or streamed
    /// by [`PpdSession::execute_streaming_with`]): the logs come back
    /// segment-backed — `mmap` + footer decode, no full rescan — and
    /// entries decode lazily per process as debugging touches them.
    ///
    /// # Errors
    ///
    /// Both record files are read and checked before any segment is
    /// mapped.
    ///
    /// # Errors
    ///
    /// Returns [`PpdError::Store`] if the directory is missing, the
    /// store is corrupt, or `pgraph.bin` or `run.json` is absent or
    /// damaged (the error names the file), or the graph's process
    /// count is not the store's.
    pub fn load_dir(dir: &Path) -> Result<Execution, PpdError> {
        let graph_path = dir.join(GRAPH_RECORD_NAME);
        let read_err = |path: &Path, e| PpdError::Store(format!("read {}: {e}", path.display()));
        let parse_err = |path: &Path, e| PpdError::Store(format!("parse {}: {e}", path.display()));
        let bytes = std::fs::read(&graph_path).map_err(|e| read_err(&graph_path, e))?;
        let (procs, pgraph) = decode_graph(&bytes).map_err(|e| parse_err(&graph_path, e))?;
        let path = dir.join(RUN_RECORD_NAME);
        let json = std::fs::read_to_string(&path).map_err(|e| read_err(&path, e))?;
        let record: RunRecord =
            serde_json::from_str(&json).map_err(|e| parse_err(&path, e.to_string()))?;
        let logs = LogStore::open_dir(dir)?;
        if logs.process_count() != procs {
            let held = logs.process_count();
            let e = format!("the graph has {procs} processes, the store {held}");
            return Err(parse_err(&graph_path, e));
        }
        Ok(Execution {
            outcome: record.outcome,
            output: record.output,
            logs,
            pgraph,
            steps: record.steps,
            config: record.config,
            ordering: OnceLock::new(),
        })
    }

    /// Whether `dir` holds a saved run, for [`load_dir`](Self::load_dir)
    /// to open, rather than a place to run into. Either record file
    /// counts, so a directory with one of them missing (or written
    /// before `pgraph.bin` existed) is opened and its fault reported,
    /// never run over.
    pub fn is_saved_run(dir: &Path) -> bool {
        [RUN_RECORD_NAME, GRAPH_RECORD_NAME].iter().any(|name| dir.join(name).exists())
    }
}

/// A prepared program: the output of the paper's preparatory phase.
#[derive(Debug)]
pub struct PpdSession {
    rp: ResolvedProgram,
    analyses: Analyses,
    plan: EBlockPlan,
    /// [`PpdSession::statement_labels`]'s cache, filled at the first
    /// graph feed.
    stmt_labels: OnceLock<Vec<String>>,
}

impl PpdSession {
    /// Compiles `source` and runs the preparatory phase under `strategy`.
    ///
    /// # Errors
    ///
    /// Returns parse/resolution errors from the language front end.
    ///
    /// # Examples
    ///
    /// ```
    /// use ppd_core::{PpdSession, RunConfig};
    /// use ppd_analysis::EBlockStrategy;
    ///
    /// # fn main() -> Result<(), ppd_core::PpdError> {
    /// let session = PpdSession::prepare(
    ///     "shared int x; process Main { x = 41 + 1; print(x); }",
    ///     EBlockStrategy::per_subroutine(),
    /// )?;
    /// let exec = session.execute(RunConfig::default());
    /// assert!(exec.outcome.is_success());
    /// # Ok(())
    /// # }
    /// ```
    pub fn prepare(source: &str, strategy: EBlockStrategy) -> Result<PpdSession, PpdError> {
        Self::prepare_with(source, strategy, AnalysisConfig::default())
    }

    /// Like [`prepare`](Self::prepare) with explicit analysis knobs
    /// (e.g. disabling the MHP snapshot trim to measure its effect).
    ///
    /// # Errors
    ///
    /// Returns parse/resolution errors from the language front end.
    pub fn prepare_with(
        source: &str,
        strategy: EBlockStrategy,
        config: AnalysisConfig,
    ) -> Result<PpdSession, PpdError> {
        let rp = ppd_lang::compile(source).map_err(PpdError::Lang)?;
        Ok(Self::from_resolved_with(rp, strategy, config))
    }

    /// Runs the preparatory phase on an already-resolved program.
    pub fn from_resolved(rp: ResolvedProgram, strategy: EBlockStrategy) -> PpdSession {
        Self::from_resolved_with(rp, strategy, AnalysisConfig::default())
    }

    /// [`from_resolved`](Self::from_resolved) with explicit analysis knobs.
    pub fn from_resolved_with(
        rp: ResolvedProgram,
        strategy: EBlockStrategy,
        config: AnalysisConfig,
    ) -> PpdSession {
        let analyses = Analyses::run_with(&rp, config);
        let plan = analyses.eblock_plan(&rp, strategy);
        PpdSession { rp, analyses, plan, stmt_labels: OnceLock::new() }
    }

    /// The resolved program.
    pub fn rp(&self) -> &ResolvedProgram {
        &self.rp
    }

    /// The preparatory-phase analyses.
    pub fn analyses(&self) -> &Analyses {
        &self.analyses
    }

    /// The e-block plan in force.
    pub fn plan(&self) -> &EBlockPlan {
        &self.plan
    }

    /// Every statement's dynamic-graph label (`sq = sqrt(d)`,
    /// `d > 0`, ...), indexed by [`StmtId`], rendered once on first use
    /// and cached. A statement outside every body is labelled by its id.
    pub(crate) fn statement_labels(&self) -> &[String] {
        self.stmt_labels.get_or_init(|| {
            let mut labels = vec![None; self.rp.program.stmt_count as usize];
            for body in self.rp.bodies() {
                walk_stmts(self.rp.body_block(body), &mut |s| {
                    labels[s.id.index()] = Some(pretty::stmt_label(s, &self.rp.program.interner));
                });
            }
            let fallback = |(i, label): (usize, Option<String>)| {
                label.unwrap_or_else(|| StmtId(i as u32).to_string())
            };
            labels.into_iter().enumerate().map(fallback).collect()
        })
    }

    /// Execution phase (§3.2.2): runs the instrumented object code,
    /// producing logs and the parallel dynamic graph.
    pub fn execute(&self, config: RunConfig) -> Execution {
        self.execute_traced(config, &mut NullTracer)
    }

    /// Like [`execute`](Self::execute) but also streams trace events into
    /// `tracer` (used by tests and the benchmark harness; the paper's
    /// object code does *not* trace — that is the point).
    pub fn execute_traced(&self, config: RunConfig, tracer: &mut dyn Tracer) -> Execution {
        let machine =
            Machine::new(&self.rp, &self.analyses, Some(&self.plan), config.to_exec(true));
        let result = machine.run(tracer);
        Execution {
            outcome: result.outcome,
            output: result.output,
            logs: result.logs.expect("logging enabled"),
            pgraph: result.pgraph.expect("parallel graph enabled"),
            steps: result.steps,
            config,
            ordering: OnceLock::new(),
        }
    }

    /// Execution phase with a streaming log sink (§5.6 out-of-core
    /// logs): every log record goes to a segmented on-disk store in
    /// `dir` *while the program runs* — full segments are sealed and
    /// flushed mid-execution, not at the end — and no copy is kept in
    /// memory. When the run finishes, the store is reopened from the
    /// directory, so subsequent debugging exercises the mapped,
    /// lazily-decoded path, and the run's record (`pgraph.bin` and
    /// `run.json`, as [`Execution::save_dir`] writes them) is written
    /// beside it. The directory can also be reopened later with
    /// [`Execution::load_dir`].
    ///
    /// `segment_bytes` as in [`Execution::save_dir`]. When `compress`
    /// is set, the sink seals ~256 KiB payload blocks through the LZ77
    /// compressor as the program runs, so the store never exists
    /// uncompressed on disk.
    ///
    /// # Errors
    ///
    /// Returns [`PpdError::Store`] if the sink hit an IO error during
    /// the run or the finished store cannot be reopened.
    pub fn execute_streaming_with(
        &self,
        config: RunConfig,
        dir: &Path,
        segment_bytes: usize,
        compress: bool,
    ) -> Result<Execution, PpdError> {
        let mut exec = config.to_exec(true);
        exec.log_dir = Some(dir.to_path_buf());
        exec.segment_bytes = segment_bytes;
        exec.compress = compress;
        let machine = Machine::new(&self.rp, &self.analyses, Some(&self.plan), exec);
        let result = machine.run(&mut NullTracer);
        if let Some(e) = result.sink_error {
            return Err(PpdError::Store(e));
        }
        let execution = Execution {
            outcome: result.outcome,
            output: result.output,
            logs: LogStore::open_dir(dir)?,
            pgraph: result.pgraph.expect("parallel graph enabled"),
            steps: result.steps,
            config,
            ordering: OnceLock::new(),
        };
        write_run_record(dir, &execution)?;
        Ok(execution)
    }

    /// Runs the program *uninstrumented* — no logs, no parallel graph —
    /// the baseline of the overhead experiment E9.
    pub fn execute_baseline(&self, config: RunConfig) -> (Outcome, Vec<(ProcId, i64)>, u64) {
        let machine = Machine::new(&self.rp, &self.analyses, None, config.to_exec(false));
        let result = machine.run(&mut NullTracer);
        (result.outcome, result.output, result.steps)
    }

    /// Benchmark entry point: runs with logging and/or parallel-graph
    /// construction individually toggled, so experiment E9 can
    /// attribute overhead to each instrument.
    pub fn measure_run(&self, config: RunConfig, logging: bool, pgraph: bool) -> Outcome {
        let plan = logging.then_some(&self.plan);
        let machine = Machine::new(&self.rp, &self.analyses, plan, config.to_exec(pgraph));
        machine.run(&mut NullTracer).outcome
    }

    /// Runs the instrumented object code with the §7 logging meter
    /// attached: every prelog/postlog/snapshot write is timed and sized,
    /// attributed per e-block. Used by experiment E9; the metering
    /// clock reads perturb the run, so overhead *ratios* come from
    /// [`measure_run`](Self::measure_run) pairs instead.
    pub fn execute_metered(&self, config: RunConfig) -> (Outcome, LogMeter) {
        let mut exec = config.to_exec(false);
        exec.meter_logging = true;
        let machine = Machine::new(&self.rp, &self.analyses, Some(&self.plan), exec);
        let result = machine.run(&mut NullTracer);
        (result.outcome, result.log_meter.expect("metering enabled with a plan"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_execute_quickstart() {
        let session = PpdSession::prepare(
            ppd_lang::corpus::PRODUCER_CONSUMER.source,
            EBlockStrategy::per_subroutine(),
        )
        .unwrap();
        let exec = session.execute(RunConfig::default());
        assert!(exec.outcome.is_success());
        assert_eq!(exec.output.last().map(|&(_, v)| v), Some(36));
        assert!(exec.logs.total_entries() > 0);
        assert!(!exec.pgraph.nodes().is_empty());
    }

    #[test]
    fn baseline_matches_instrumented_output() {
        let session = PpdSession::prepare(
            ppd_lang::corpus::QUICKSORT.source,
            EBlockStrategy::per_subroutine(),
        )
        .unwrap();
        let exec = session.execute(RunConfig::default());
        let (outcome, output, _) = session.execute_baseline(RunConfig::default());
        assert_eq!(exec.outcome, outcome);
        assert_eq!(exec.output, output);
    }

    #[test]
    fn prepare_rejects_invalid_source() {
        assert!(PpdSession::prepare("process M { x = 1; }", EBlockStrategy::default()).is_err());
    }

    #[test]
    fn save_dir_load_dir_round_trips_everything() {
        let session = PpdSession::prepare(
            ppd_lang::corpus::PRODUCER_CONSUMER.source,
            EBlockStrategy::per_subroutine(),
        )
        .unwrap();
        let exec = session.execute(RunConfig::default());
        let dir = std::env::temp_dir().join(format!("ppd-session-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exec.save_dir(&dir, 512, ppd_log::SegmentFormat::default()).unwrap();
        let loaded = Execution::load_dir(&dir).unwrap();
        assert!(loaded.logs.is_segmented());
        assert_eq!(loaded.outcome, exec.outcome);
        assert_eq!(loaded.output, exec.output);
        assert_eq!(loaded.steps, exec.steps);
        assert_eq!(loaded.logs.total_entries(), exec.logs.total_entries());
        for p in 0..exec.logs.process_count() {
            let p = ProcId(p as u32);
            assert_eq!(loaded.logs.log(p), exec.logs.log(p));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_streaming_matches_in_memory_run() {
        let session = PpdSession::prepare(
            ppd_lang::corpus::PRODUCER_CONSUMER.source,
            EBlockStrategy::per_subroutine(),
        )
        .unwrap();
        let mem = session.execute(RunConfig::default());
        let dir = std::env::temp_dir().join(format!("ppd-session-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let streamed =
            session.execute_streaming_with(RunConfig::default(), &dir, 256, false).unwrap();
        assert!(streamed.logs.is_segmented(), "streamed logs reopen segment-backed");
        assert_eq!(streamed.outcome, mem.outcome);
        assert_eq!(streamed.output, mem.output);
        for p in 0..mem.logs.process_count() {
            let p = ProcId(p as u32);
            assert_eq!(streamed.logs.log(p), mem.logs.log(p), "identical entries for {p:?}");
        }
        // The record files make the directory self-contained.
        let reloaded = Execution::load_dir(&dir).unwrap();
        assert_eq!(reloaded.output, mem.output);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_streaming_matches_raw_run() {
        let session = PpdSession::prepare(
            ppd_lang::corpus::PRODUCER_CONSUMER.source,
            EBlockStrategy::per_subroutine(),
        )
        .unwrap();
        let mem = session.execute(RunConfig::default());
        let dir = std::env::temp_dir().join(format!("ppd-session-zstream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let streamed =
            session.execute_streaming_with(RunConfig::default(), &dir, 256, true).unwrap();
        assert!(streamed.logs.is_segmented());
        let seg = streamed.logs.segmented().unwrap();
        assert!(
            seg.segments(ppd_lang::ProcId(0)).all(|s| s.version == 2),
            "compressed streaming writes v2 segments"
        );
        assert_eq!(streamed.outcome, mem.outcome);
        for p in 0..mem.logs.process_count() {
            let p = ProcId(p as u32);
            assert_eq!(streamed.logs.log(p), mem.logs.log(p), "identical entries for {p:?}");
            assert_eq!(streamed.logs.intervals(p), mem.logs.intervals(p));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A saved run of the corpus bank (four processes, an array): its
    /// directory, its execution and its `pgraph.bin`.
    fn saved_bank(name: &str) -> (std::path::PathBuf, Execution, Vec<u8>) {
        let session =
            PpdSession::prepare(ppd_lang::corpus::BANK.source, EBlockStrategy::per_subroutine())
                .unwrap();
        let exec = session.execute(RunConfig::default());
        let dir = std::env::temp_dir().join(format!("ppd-session-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exec.save_dir(&dir, 0, ppd_log::SegmentFormat::default()).unwrap();
        let bytes = std::fs::read(dir.join(GRAPH_RECORD_NAME)).unwrap();
        (dir, exec, bytes)
    }

    /// Loads `dir` with `bytes` as its `pgraph.bin`; returns the store
    /// error, which must name the file.
    fn load_error(dir: &Path, bytes: &[u8]) -> String {
        std::fs::write(dir.join(GRAPH_RECORD_NAME), bytes).unwrap();
        match Execution::load_dir(dir) {
            Err(PpdError::Store(e)) if e.contains(GRAPH_RECORD_NAME) => e,
            Err(e) => panic!("not a store error naming {GRAPH_RECORD_NAME}: {e}"),
            Ok(_) => panic!("a damaged {GRAPH_RECORD_NAME} loaded"),
        }
    }

    /// `body` framed as a `pgraph.bin`, with a valid checksum.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = GRAPH_MAGIC.to_vec();
        out.push(GRAPH_VERSION);
        out.extend_from_slice(body);
        let crc = lzb::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn kind_and_label_bytes_follow_declaration_order() {
        assert!(NODE_KINDS.iter().enumerate().all(|(i, &k)| k as usize == i));
        assert!(EDGE_LABELS.iter().enumerate().all(|(i, &l)| l as usize == i));
    }

    #[test]
    fn every_truncation_and_byte_flip_of_pgraph_bin_is_a_store_error() {
        let (dir, _, bytes) = saved_bank("damage");
        for len in 0..bytes.len() {
            load_error(&dir, &bytes[..len]);
        }
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut damaged = bytes.clone();
                damaged[i] ^= flip;
                load_error(&dir, &damaged);
            }
        }
        std::fs::write(dir.join(GRAPH_RECORD_NAME), &bytes).unwrap();
        assert!(Execution::load_dir(&dir).is_ok(), "the intact record loads");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksummed_records_that_break_the_graph_rules_are_rejected_at_load() {
        let (dir, exec, _) = saved_bank("hostile");
        let (g, procs) = (&exec.pgraph, exec.logs.process_count());
        let record = || GraphRecord::of(g, procs);
        let mut internal = g.internal_edges().to_vec();
        internal[0].to = SyncNodeId(99999);
        let e = load_error(&dir, &GraphRecord { internal: &internal, ..record() }.encode());
        assert!(e.contains("internal edge e0 ends at node n99999"), "{e}");
        let mut sync = g.sync_edges().to_vec();
        (sync[0].from, sync[0].to) = (sync[0].to, sync[0].from);
        let e = load_error(&dir, &GraphRecord { sync: &sync, ..record() }.encode());
        assert!(e.contains("sync edge 0 runs from"), "{e}");
        let mut nodes = g.nodes().to_vec();
        nodes[1].proc = ProcId(u32::MAX);
        let e = load_error(&dir, &GraphRecord { nodes: &nodes, ..record() }.encode());
        assert!(e.contains(&format!("process 4294967295, past {procs}")), "{e}");
        let e = load_error(&dir, &GraphRecord { procs: 1, ..record() }.encode());
        assert!(e.contains("process 1, past 1"), "{e}");
        let e = load_error(&dir, &GraphRecord { procs: procs + 1, ..record() }.encode());
        assert!(e.contains(&format!("has {} processes, the store {procs}", procs + 1)), "{e}");
        let e = load_error(&dir, &GraphRecord { universe: 1, cells: &[], ..record() }.encode());
        assert!(e.contains("past the 1 cells"), "{e}");
        let cells = &g.cells()[1..];
        let e = load_error(&dir, &GraphRecord { cells, ..record() }.encode());
        assert!(e.contains(&format!("cell table has {} entries", cells.len())), "{e}");
        let cells = [g.cells(), &[(VarId(0), None)]].concat();
        let e = load_error(&dir, &GraphRecord { cells: &cells, ..record() }.encode());
        assert!(e.contains("overflows"), "{e}");
        // Bodies no encoder writes. Procs 1, universe 0, one node, no
        // edges, no cells, then a node of kind 13; 200 nodes in five
        // bytes; one edge over 2^32 - 1 cells (its sets alone would
        // take 1 GiB).
        let e = load_error(&dir, &framed(&[1, 0, 1, 0, 0, 0, 0, 13, 0, 0]));
        assert!(e.contains("unknown node kind 13 at byte 12"), "{e}");
        let e = load_error(&dir, &framed(&[1, 0, 200, 1, 0, 0, 0, 0, 0]));
        assert!(e.contains("count 200 at byte 7 exceeds the 5 bytes left"), "{e}");
        let e = load_error(&dir, &framed(&[1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 1, 0, 0, 0]));
        assert!(e.contains("1 edges over 4294967295 cells need"), "{e}");
        assert!(e.contains("past the 1073741824-byte limit"), "{e}");
        let mut padded = record().encode();
        padded.truncate(padded.len() - 4);
        padded.push(0);
        let e = load_error(&dir, &framed(&padded[GRAPH_MAGIC.len() + 1..]));
        assert!(e.contains("1 trailing bytes after the graph"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The corpus bank's graph record and where its header ends.
    fn bank_record() -> &'static (Vec<u8>, usize) {
        static RECORD: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
        RECORD.get_or_init(|| {
            let session = PpdSession::prepare(
                ppd_lang::corpus::BANK.source,
                EBlockStrategy::per_subroutine(),
            )
            .unwrap();
            let exec = session.execute(RunConfig::default());
            let bytes = GraphRecord::of(&exec.pgraph, exec.logs.process_count()).encode();
            let head = GRAPH_MAGIC.len() + 1;
            let r = &mut Reader::with_base(&bytes[head..], head);
            for _ in 0..5 {
                r.varint().unwrap();
            }
            let header_end = r.offset();
            (bytes, header_end)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// A checksummed record edited or cut past its header either
        /// decodes into a graph that vector clocks order and the race
        /// scan reads without a panic, or is refused. The header (the
        /// bank's counts and universe) stays, so what a case may
        /// allocate stays small.
        #[test]
        fn edited_checksummed_records_decode_or_are_refused(
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>(), proptest::prelude::any::<bool>()),
                1..4,
            ),
            cut in (proptest::prelude::any::<bool>(), proptest::prelude::any::<usize>()),
        ) {
            let (bytes, header_end) = bank_record();
            let head = GRAPH_MAGIC.len() + 1;
            let (mut body, keep) = (bytes[head..bytes.len() - 4].to_vec(), header_end - head);
            // Half the edits write a value below 4, which more often
            // leaves a record that still decodes.
            for (pos, value, small) in edits {
                let i = keep + pos % (body.len() - keep);
                body[i] = if small { value % 4 } else { value };
            }
            if let (true, cut) = cut {
                body.truncate(keep + cut % (body.len() - keep + 1));
            }
            if let Ok((_, graph)) = decode_graph(&framed(&body)) {
                let order = VectorClocks::compute(&graph);
                ppd_graph::detect_races(&graph, &order, None);
            }
        }
    }

    #[test]
    fn a_directory_without_pgraph_bin_is_a_saved_run_that_fails_to_load() {
        let (dir, _, _) = saved_bank("old-layout");
        assert!(Execution::is_saved_run(&dir));
        std::fs::remove_file(dir.join(GRAPH_RECORD_NAME)).unwrap();
        assert!(Execution::is_saved_run(&dir), "run.json alone still marks a saved run");
        match Execution::load_dir(&dir) {
            Err(PpdError::Store(e)) => {
                assert!(e.contains("read ") && e.contains(GRAPH_RECORD_NAME))
            }
            other => panic!("expected a store error, got {other:?}"),
        }
        std::fs::remove_file(dir.join(RUN_RECORD_NAME)).unwrap();
        assert!(!Execution::is_saved_run(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execution_remembers_config_for_reproduction() {
        let session =
            PpdSession::prepare(ppd_lang::corpus::FIG_4_1.source, EBlockStrategy::per_subroutine())
                .unwrap();
        let cfg = RunConfig {
            scheduler: SchedulerSpec::Random { seed: 5 },
            inputs: vec![vec![5, 3, 2]],
            ..RunConfig::default()
        };
        let e1 = session.execute(cfg);
        let e2 = session.execute(e1.config.clone());
        assert_eq!(e1.output, e2.output);
        assert_eq!(e1.steps, e2.steps);
    }
}
