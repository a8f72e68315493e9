//! The preparatory and execution phases (§3.2.1, §3.2.2).
//!
//! [`PpdSession::prepare`] is the paper's Compiler/Linker: it parses and
//! resolves the program, runs the semantic analyses, computes the static
//! program dependence graph, the program database, and the e-block plan.
//! [`PpdSession::execute`] is the execution phase: it runs the program as
//! instrumented *object code*, producing output, per-process logs, and
//! the parallel dynamic graph.

use crate::PpdError;
use ppd_analysis::{Analyses, AnalysisConfig, EBlockPlan, EBlockStrategy};
use ppd_graph::{ParallelGraph, StaticGraph, VectorClocks};
use ppd_lang::ast::walk_stmts;
use ppd_lang::{pretty, ProcId, ResolvedProgram, StmtId};
use ppd_log::LogStore;
use ppd_runtime::{ExecConfig, LogMeter, Machine, NullTracer, Outcome, SchedulerSpec, Tracer};
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

/// Everything `run.json` carries next to the segments: the execution
/// record minus the logs (which live in the `.seg` files).
#[derive(serde::Serialize, serde::Deserialize)]
struct RunRecord {
    outcome: Outcome,
    output: Vec<(ProcId, i64)>,
    pgraph: ParallelGraph,
    steps: u64,
    config: RunConfig,
}

/// Name of the sidecar record in a log directory.
const RUN_RECORD_NAME: &str = "run.json";

/// Writes `execution`'s [`RunRecord`] as `dir/run.json`.
fn write_run_record(dir: &std::path::Path, execution: &Execution) -> Result<(), PpdError> {
    let record = RunRecord {
        outcome: execution.outcome.clone(),
        output: execution.output.clone(),
        pgraph: execution.pgraph.clone(),
        steps: execution.steps,
        config: execution.config.clone(),
    };
    let json = serde_json::to_string(&record)
        .map_err(|e| PpdError::Store(format!("serialize {RUN_RECORD_NAME}: {e}")))?;
    std::fs::write(dir.join(RUN_RECORD_NAME), json)
        .map_err(|e| PpdError::Store(format!("write {RUN_RECORD_NAME}: {e}")))
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
    /// `.seg` file per sealed segment, CRC-guarded footers) plus a
    /// `run.json` sidecar holding everything but the logs. The
    /// directory can be reopened with [`Execution::load_dir`] — or by
    /// `ppd debug/races/lint --log-dir` — without rescanning the logs.
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
        dir: &std::path::Path,
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
    /// Returns [`PpdError::Store`] if the directory is missing, the
    /// store is corrupt, or `run.json` is absent/malformed.
    pub fn load_dir(dir: &std::path::Path) -> Result<Execution, PpdError> {
        let logs = LogStore::open_dir(dir)?;
        let path = dir.join(RUN_RECORD_NAME);
        let json = std::fs::read_to_string(&path)
            .map_err(|e| PpdError::Store(format!("read {}: {e}", path.display())))?;
        let record: RunRecord = serde_json::from_str(&json)
            .map_err(|e| PpdError::Store(format!("parse {}: {e}", path.display())))?;
        Ok(Execution {
            outcome: record.outcome,
            output: record.output,
            logs,
            pgraph: record.pgraph,
            steps: record.steps,
            config: record.config,
            ordering: OnceLock::new(),
        })
    }
}

/// A prepared program: the output of the paper's preparatory phase.
#[derive(Debug)]
pub struct PpdSession {
    rp: ResolvedProgram,
    analyses: Analyses,
    plan: EBlockPlan,
    static_graph: StaticGraph,
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
        let static_graph = StaticGraph::build(&rp, &analyses);
        PpdSession { rp, analyses, plan, static_graph, stmt_labels: OnceLock::new() }
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

    /// The static program dependence graph (§4.1).
    pub fn static_graph(&self) -> &StaticGraph {
        &self.static_graph
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
    /// logs): every log record is teed into a segmented on-disk store
    /// in `dir` *while the program runs* — full segments are sealed and
    /// flushed mid-execution, not at the end. When the run finishes,
    /// a `run.json` sidecar is written and the execution is returned
    /// with its logs **reopened from the directory**, so subsequent
    /// debugging exercises the mapped, lazily-decoded path. The
    /// directory can also be reopened later with
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
        dir: &std::path::Path,
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
            logs: result.logs.expect("logging enabled"),
            pgraph: result.pgraph.expect("parallel graph enabled"),
            steps: result.steps,
            config,
            ordering: OnceLock::new(),
        };
        write_run_record(dir, &execution)?;
        let logs = LogStore::open_dir(dir)?;
        Ok(Execution { logs, ..execution })
    }

    /// Runs the program *uninstrumented* — no logs, no parallel graph —
    /// the baseline of the overhead experiment E1.
    pub fn execute_baseline(&self, config: RunConfig) -> (Outcome, Vec<(ProcId, i64)>, u64) {
        let machine = Machine::new(&self.rp, &self.analyses, None, config.to_exec(false));
        let result = machine.run(&mut NullTracer);
        (result.outcome, result.output, result.steps)
    }

    /// Benchmark entry point: runs with logging and/or parallel-graph
    /// construction individually toggled, so the E1 experiment can
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
        // The sidecar makes the directory self-contained.
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
