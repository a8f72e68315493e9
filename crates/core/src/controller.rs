//! The PPD Controller — the debugging phase (§3.2.3, §5.3, §5.6, §6).
//!
//! When the program halts, the Controller locates the last prelog whose
//! postlog was never written, replays that e-block under the emulation
//! package, and presents a dynamic-graph fragment rooted at the last
//! statement executed. The user then walks dependences backward
//! (flowback); when a requested dependence needs traces that were never
//! generated, the Controller replays exactly the log interval that can
//! produce them — incremental tracing.

use crate::builder::{GraphBuilder, SubstitutedRef};
use crate::replay::{DebugStats, ReplayEngine};
use crate::session::{Execution, PpdSession};
use crate::PpdError;
use ppd_analysis::VarSetRepr;
use ppd_graph::{detect_races_par, stage_pairs, DynEdgeKind, DynNodeId, DynamicGraph, Race};
use ppd_lang::{ProcId, VarId};
use ppd_log::IntervalRef;
use ppd_runtime::Outcome;
use std::collections::HashMap;

/// A race found in the execution instance, with human-readable context.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The underlying race (edge pair + conflict kind).
    pub race: Race,
    /// Rendered description with variable and process names.
    pub description: String,
}

/// One blocked process in a deadlock report.
#[derive(Debug, Clone)]
pub struct DeadlockEntry {
    /// The blocked process.
    pub proc: ProcId,
    /// Its name.
    pub proc_name: String,
    /// What it is waiting for.
    pub waiting_for: String,
    /// The statement it is blocked at.
    pub stmt: ppd_lang::StmtId,
}

/// The PPD Controller.
pub struct Controller<'p> {
    session: &'p PpdSession,
    execution: &'p Execution,
    builder: GraphBuilder<'p>,
    /// All replays go through here: memoization, interval index, stats.
    engine: ReplayEngine<'p>,
    /// For each unexpanded node: the interval whose replay produced it,
    /// plus the e-block/ordinal key of the nested interval to expand.
    expansions: HashMap<DynNodeId, (IntervalRef, SubstitutedRef)>,
    /// Intervals already materialized into the graph, with their entry
    /// node (for cross-interval stitching).
    materialized: Vec<(IntervalRef, DynNodeId)>,
}

impl<'p> Controller<'p> {
    /// Creates a controller over a finished execution.
    pub fn new(session: &'p PpdSession, execution: &'p Execution) -> Controller<'p> {
        Controller {
            session,
            execution,
            builder: GraphBuilder::new(session),
            engine: ReplayEngine::new(session, execution),
            expansions: HashMap::new(),
            materialized: Vec::new(),
        }
    }

    /// The dynamic graph built so far.
    pub fn graph(&self) -> &DynamicGraph {
        self.builder.graph()
    }

    /// A snapshot of the debugging-phase counters (replays, cache
    /// hits/misses, query timings — the `--stats` output).
    pub fn stats(&self) -> DebugStats {
        self.engine.stats()
    }

    /// The same counters as [`Controller::stats`] in raw registry form,
    /// rendered as single-line JSON (`--stats --format json`).
    pub fn metrics_json(&self) -> String {
        self.engine.metrics_snapshot().to_json()
    }

    /// The raw metrics snapshot ([`Controller::metrics_json`] without
    /// the rendering), for alternative expositions (`--metrics-out`).
    pub fn metrics_snapshot(&self) -> ppd_obs::Snapshot {
        self.engine.metrics_snapshot()
    }

    /// Attaches a query journal: every completed top-level query from
    /// now on appends one JSONL record with its kind, args, latency,
    /// and cache/log cost deltas.
    pub fn set_journal(&mut self, journal: ppd_obs::Journal) {
        self.engine.set_journal(journal);
    }

    /// Zeroes every debugging-phase counter (queries, replays, cache
    /// hit/miss/eviction tallies) while keeping cached traces warm, so
    /// an interactive session can measure a single query in isolation
    /// (the `stats reset` command).
    pub fn reset_stats(&self) {
        self.engine.reset_stats();
    }

    /// Sets the replay cache's byte budget; `0` is the uncached
    /// controller. Results are identical at any budget (replay is
    /// deterministic); only the cost changes.
    pub fn set_cache_budget(&mut self, bytes: usize) {
        self.engine.set_cache_budget(bytes);
    }

    /// Sets the worker-thread count used by parallel queries (replay
    /// prefetch fan-out, race scan). 1 means fully sequential; results
    /// are bit-identical at any setting, only the cost changes.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.engine.set_jobs(jobs);
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.engine.jobs()
    }

    /// Warms the replay cache for a batch of intervals by fanning the
    /// replays out across the worker pool — each e-block replay depends
    /// only on its own prelog (§5), so the batch is embarrassingly
    /// parallel. Subsequent `materialize` calls for these intervals are
    /// cache hits. Returns the number of intervals warmed.
    ///
    /// # Errors
    ///
    /// Propagates the first (by batch position) replay failure.
    pub fn prefetch(&mut self, intervals: &[IntervalRef]) -> Result<usize, PpdError> {
        let _q = self.engine.query_timer_for("prefetch", format!("intervals={}", intervals.len()));
        self.engine.replay_intervals_par(intervals)?;
        Ok(intervals.len())
    }

    /// Warms the replay cache for every logged interval of every
    /// process — the whole `(proc, eblock, instance)` set a flowback
    /// session could need.
    ///
    /// # Errors
    ///
    /// Propagates the first replay failure.
    pub fn prefetch_all(&mut self) -> Result<usize, PpdError> {
        let intervals = self.all_intervals();
        self.prefetch(&intervals)
    }

    /// Every replayable interval of every process, in (process, log)
    /// order: all closed intervals plus each process's innermost open
    /// interval (the halt interval `start_at` replays). Outer open
    /// intervals are excluded — their nested calls never produced the
    /// postlogs that §5.2 substitution would need.
    pub fn all_intervals(&self) -> Vec<IntervalRef> {
        let index = self.engine.index();
        (0..index.process_count())
            .flat_map(|p| {
                let proc = ProcId(p as u32);
                let closed =
                    index.intervals(proc).into_iter().filter(|iv| iv.postlog_pos.is_some());
                closed.chain(index.open_intervals(proc).last().copied())
            })
            .collect()
    }

    /// Starts a debugging session (§5.3): locates the innermost open
    /// interval of the halted process (or of the given process for
    /// completed runs), replays it, and returns the root — "the last
    /// statement executed" as an inverted tree root.
    ///
    /// # Errors
    ///
    /// Fails if there is nothing to debug (no intervals logged).
    pub fn start(&mut self) -> Result<DynNodeId, PpdError> {
        let proc = match &self.execution.outcome {
            Outcome::Failed { proc, .. } | Outcome::Breakpoint { proc, .. } => *proc,
            _ => ProcId(0),
        };
        self.start_at(proc)
    }

    /// Starts debugging from a specific process's halt point.
    ///
    /// # Errors
    ///
    /// Fails if the process logged no intervals.
    pub fn start_at(&mut self, proc: ProcId) -> Result<DynNodeId, PpdError> {
        let _q = self.engine.query_timer_for("start_at", format!("proc={}", proc.0));
        let open = self.engine.index().open_intervals(proc);
        let interval = open
            .last()
            .copied()
            .or_else(|| self.top_level_intervals(proc).into_iter().last())
            .ok_or_else(|| {
                PpdError::Debugging(format!(
                    "process {} logged no intervals",
                    self.session.rp().proc_name(proc)
                ))
            })?;
        let report = self.materialize(interval, None)?;
        report
            .root
            .ok_or_else(|| PpdError::Debugging("the halted interval produced no events".into()))
    }

    /// Replays `interval` and feeds its trace into the graph; `attach_to`
    /// marks this as the expansion of an existing unexpanded node.
    ///
    /// # Errors
    ///
    /// Propagates replay failures other than the re-occurrence of the
    /// original program failure (which is expected when replaying the
    /// halted interval).
    pub fn materialize(
        &mut self,
        interval: IntervalRef,
        attach_to: Option<DynNodeId>,
    ) -> Result<crate::builder::FeedReport, PpdError> {
        let _q = self.engine.query_timer_for(
            "materialize",
            format!(
                "proc={} eblock={} instance={}",
                interval.proc.0, interval.eblock.0, interval.instance
            ),
        );
        let events = self.engine.replay_interval(interval)?;
        let body = self.session.plan().eblock(interval.eblock).region.body();
        let report = self.builder.feed(interval.proc, body, &events, attach_to);
        for sub in &report.substituted {
            self.expansions.insert(sub.node, (interval, *sub));
        }
        self.materialized.push((interval, report.entry));
        Ok(report)
    }

    /// Expands an unexpanded sub-graph or loop node (§5.2): finds the
    /// nested log interval it stands for, replays it, and grafts the
    /// detailed fragment under the node.
    ///
    /// # Errors
    ///
    /// Fails if the node is not an unexpanded node produced by this
    /// controller, or the nested interval cannot be located.
    pub fn expand(&mut self, node: DynNodeId) -> Result<crate::builder::FeedReport, PpdError> {
        let _q = self.engine.query_timer_for("expand", format!("node={node}"));
        let (parent, sub) = self
            .expansions
            .get(&node)
            .copied()
            .ok_or_else(|| PpdError::Debugging(format!("{node} is not expandable")))?;
        let children = self.direct_children(parent);
        let target = children
            .iter()
            .filter(|iv| iv.eblock == sub.eblock)
            .nth(sub.ordinal)
            .copied()
            .ok_or_else(|| {
                PpdError::Debugging(format!(
                    "nested interval {} #{} not found under {parent:?}",
                    sub.eblock, sub.ordinal
                ))
            })?;
        self.expansions.remove(&node);
        self.materialize(target, Some(node))
    }

    /// The top-level (unnested) intervals of a process, in log order —
    /// an O(1)-amortized view over the interval index.
    pub fn top_level_intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        self.engine.index().top_level(proc)
    }

    /// The direct child intervals of `parent`, in log order — the
    /// nesting structure of Figure 5.2, read off the index's links.
    pub fn direct_children(&self, parent: IntervalRef) -> Vec<IntervalRef> {
        self.engine.index().direct_children(parent)
    }

    /// One flowback step (§1): the dependence predecessors of `node`.
    pub fn flowback(&self, node: DynNodeId) -> Vec<(DynNodeId, DynEdgeKind)> {
        let _q = self.engine.query_timer_for("flowback", format!("node={node}"));
        self.builder.graph().dependence_preds(node)
    }

    /// The full backward slice from `node`.
    pub fn backward_slice(&self, node: DynNodeId) -> Vec<DynNodeId> {
        let _q = self.engine.query_timer_for("backward_slice", format!("node={node}"));
        self.builder.graph().backward_slice(node)
    }

    /// One forward-flow step: the events `node` directly influenced.
    pub fn flow_forward(&self, node: DynNodeId) -> Vec<(DynNodeId, DynEdgeKind)> {
        let _q = self.engine.query_timer_for("flow_forward", format!("node={node}"));
        self.builder.graph().dependence_succs(node)
    }

    /// The bounded portion of the dynamic graph presented to the user
    /// (§3.2.3: "there is a practical limit to the size of the graph
    /// determined by the screen size"): the inverted dependence tree of
    /// depth at most `depth` rooted at `root`, nodes in `(seq, id)` order.
    pub fn present(&self, root: DynNodeId, depth: usize) -> Vec<DynNodeId> {
        let _q = self.engine.query_timer_for("present", format!("root={root} depth={depth}"));
        let graph = self.builder.graph();
        let mut seen = std::collections::HashSet::new();
        let mut frontier = vec![root];
        seen.insert(root);
        for _ in 0..depth {
            let mut next = Vec::new();
            for &n in &frontier {
                for (p, _) in graph.dependence_preds(n) {
                    if seen.insert(p) {
                        next.push(p);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let mut out: Vec<DynNodeId> = seen.into_iter().collect();
        out.sort_by_key(|&n| (graph.node(n).seq, n));
        out
    }

    /// The full forward slice from `node` — everything it influenced.
    pub fn forward_slice(&self, node: DynNodeId) -> Vec<DynNodeId> {
        let _q = self.engine.query_timer_for("forward_slice", format!("node={node}"));
        self.builder.graph().forward_slice(node)
    }

    /// The unexpanded nodes currently in the graph.
    pub fn unexpanded(&self) -> Vec<DynNodeId> {
        self.builder.graph().unexpanded_subgraphs()
    }

    /// Follows a dependence across process boundaries (§5.6, §6.3): for
    /// a `node` whose read of shared `var` resolved only to the fragment
    /// entry, find the internal edge of another process that last wrote
    /// `var` before this fragment ended, materialize the corresponding
    /// log interval, and wire a cross-process data edge from that
    /// fragment's last write of `var`.
    ///
    /// # Errors
    ///
    /// Fails when no other process wrote the variable.
    pub fn extend_across_processes(
        &mut self,
        node: DynNodeId,
        var: VarId,
    ) -> Result<DynNodeId, PpdError> {
        let _q = self.engine.query_timer_for("extend", format!("node={node} var={}", var.0));
        let reader_proc = self.builder.graph().node(node).proc;
        // Upper time bound: the end of the fragment the node belongs to —
        // its postlog's time (`u64::MAX` while open), read off the index.
        let index = self.engine.index();
        let upper = self
            .materialized
            .iter()
            .filter(|(iv, _)| iv.proc == reader_proc)
            .map(|(iv, _)| index.time_span(*iv).map_or(u64::MAX, |(_, end)| end))
            .max()
            .unwrap_or(u64::MAX);

        // Find the latest internal edge of another process writing `var`
        // that starts before the bound.
        let g = &self.execution.pgraph;
        let best = g
            .internal_edges()
            .iter()
            .filter(|e| {
                e.proc != reader_proc && e.writes.to_vec().into_iter().any(|c| g.owner_of(c) == var)
            })
            .filter(|e| g.node(e.from).time <= upper)
            .max_by_key(|e| g.node(e.from).time)
            .ok_or_else(|| {
                PpdError::Debugging(format!(
                    "no other process wrote `{}`",
                    self.session.rp().var_name(var)
                ))
            })?;
        let writer_proc = best.proc;
        // The write happened somewhere inside the edge's time window.
        let (w_start, w_end) = (g.node(best.from).time, g.node(best.to).time);

        // Locate the writer's innermost log interval overlapping that
        // window (interval boundaries are logged between the edge's
        // synchronization nodes, so containment cannot be required).
        let interval =
            self.engine.index().covering_window(writer_proc, w_start, w_end).ok_or_else(|| {
                PpdError::Debugging(format!(
                    "no log interval of {} overlaps [{w_start}, {w_end}]",
                    self.session.rp().proc_name(writer_proc)
                ))
            })?;

        let report = self.materialize(interval, None)?;
        // The last write of `var` in the new fragment.
        let writer_node = report
            .last_writes
            .get(&var)
            .copied()
            .or(report.root)
            .ok_or_else(|| PpdError::Debugging("empty writer fragment".into()))?;
        self.builder.graph_mut().add_edge(writer_node, node, DynEdgeKind::Data { var });
        Ok(writer_node)
    }

    /// Extends every unresolved shared-variable dependence of `node`
    /// across process boundaries (§5.6): for each Data edge into `node`
    /// that currently comes from a fragment entry and names a shared
    /// variable, materializes the writing process's interval and wires
    /// the real source. Returns `(var, writer_node)` pairs for the
    /// dependences that were resolved.
    pub fn auto_extend(&mut self, node: DynNodeId) -> Vec<(VarId, DynNodeId)> {
        let _q = self.engine.query_timer_for("auto_extend", format!("node={node}"));
        let rp = self.session.rp();
        let pending: Vec<VarId> = self
            .builder
            .graph()
            .preds_by(node, |k| matches!(k, DynEdgeKind::Data { .. }))
            .into_iter()
            .filter_map(|(src, kind)| match kind {
                DynEdgeKind::Data { var }
                    if rp.is_shared(var)
                        && matches!(
                            self.builder.graph().node(src).kind,
                            ppd_graph::DynNodeKind::Entry
                        ) =>
                {
                    Some(var)
                }
                _ => None,
            })
            .collect();
        let mut out = Vec::new();
        for var in pending {
            if let Ok(writer) = self.extend_across_processes(node, var) {
                out.push((var, writer));
            }
        }
        out
    }

    /// Explains a detected race (§6.3): materializes the log intervals
    /// containing the two conflicting internal edges and returns the
    /// dynamic-graph nodes of the last access to the raced variable in
    /// each — the pair of statements the user should look at.
    ///
    /// # Errors
    ///
    /// Fails if either edge's interval cannot be located or replayed.
    pub fn explain_race(
        &mut self,
        race: &ppd_graph::Race,
    ) -> Result<(DynNodeId, DynNodeId), PpdError> {
        let _q = self.engine.query_timer_for("explain_race", format!("var={}", race.var.0));
        let mut access_node = |edge: ppd_graph::InternalEdgeId| -> Result<DynNodeId, PpdError> {
            let g = &self.execution.pgraph;
            let e = g.internal_edge(edge);
            let (w_start, w_end) = (g.node(e.from).time, g.node(e.to).time);
            let interval =
                self.engine.index().covering_window(e.proc, w_start, w_end).ok_or_else(|| {
                    PpdError::Debugging(format!("no interval covers edge {edge}"))
                })?;
            let report = self.materialize(interval, None)?;
            report
                .last_writes
                .get(&race.var)
                .copied()
                .or(report.root)
                .ok_or_else(|| PpdError::Debugging("empty race fragment".into()))
        };
        let first = access_node(race.first)?;
        let second = access_node(race.second)?;
        Ok((first, second))
    }

    /// Race detection over the execution instance (§6.4), pruned by the
    /// static candidate index refined with the may-happen-in-parallel
    /// relation, channel payload types, and interval analysis (none of
    /// GMOD/GREF, a static MHP ordering, or a disjoint access-region
    /// proof can miss a dynamic race, so the pruned result equals the
    /// naive scan's).
    pub fn races(&self) -> Vec<RaceReport> {
        let jobs = self.engine.jobs();
        let _q = self.engine.query_timer_for("races", format!("jobs={jobs}"));
        let g = &self.execution.pgraph;
        let cands = &self.session.analyses().absint_candidates;
        detect_races_par(g, self.execution.ordering(), Some(cands), jobs)
            .into_iter()
            .map(|race| RaceReport {
                race,
                description: ppd_graph::race::describe_race(g, self.session.rp(), &race),
            })
            .collect()
    }

    /// Whether this execution instance is race-free (Definition 6.4).
    pub fn is_race_free(&self) -> bool {
        self.races().is_empty()
    }

    /// The number of cross-process edge pairs each detector stage
    /// examines on this execution, in pruning order: `naive` (every
    /// conflicting pair), `indexed` (grouped by accessed cell),
    /// `pruned` (GMOD/GREF candidates), `mhp` (MHP-refined), `typed`
    /// (payload-class-refined), `absint` (interval-region-refined).
    /// Every stage returns the same race set — the counts measure how
    /// much work each static layer removes (`ppd races --stats`). One
    /// enumeration yields them all, with no ordering query.
    pub fn race_stage_pairs(&self) -> Vec<(&'static str, usize)> {
        let a = self.session.analyses();
        let stages =
            [&a.race_candidates, &a.mhp_candidates, &a.typed_candidates, &a.absint_candidates];
        let p = stage_pairs(&self.execution.pgraph, &stages);
        let names = ["pruned", "mhp", "typed", "absint"];
        [("naive", p.naive), ("indexed", p.indexed)]
            .into_iter()
            .chain(names.into_iter().zip(p.filtered))
            .collect()
    }

    /// Wait-for cycle analysis (§6: the parallel dynamic graph "can also
    /// help the user analyze the causes of deadlocks"): among the blocked
    /// processes, finds a cycle `P0 → P1 → ... → P0` where each process
    /// waits on a semaphore/lock that only the next (also blocked)
    /// process could still release — the static release-site information
    /// comes from the program database.
    ///
    /// Returns `None` if the execution did not deadlock or no cycle
    /// exists among the blocked processes (e.g. waiting on a process
    /// that already exited).
    pub fn deadlock_cycle(&self) -> Option<Vec<ProcId>> {
        use ppd_lang::ast::{walk_stmts, StmtKind, SyncStmt};
        use ppd_runtime::BlockReason;
        let Outcome::Deadlock { blocked } = &self.execution.outcome else {
            return None;
        };
        let rp = self.session.rp();
        // For each blocked process: the semaphore it waits on.
        let waits: Vec<(ProcId, ppd_lang::SemId)> = blocked
            .iter()
            .filter_map(|(p, r, _)| match r {
                BlockReason::Semaphore(s) | BlockReason::LockWait(s) => Some((*p, *s)),
                _ => None,
            })
            .collect();
        // Which blocked processes could release a given semaphore: their
        // reachable code contains a V/unlock on it.
        let releases = |proc: ProcId, sem: ppd_lang::SemId| -> bool {
            let mut found = false;
            for body in
                self.session.analyses().callgraph.reachable_from(ppd_lang::BodyId::Proc(proc))
            {
                walk_stmts(rp.body_block(body), &mut |stmt| {
                    if let StmtKind::Sync(SyncStmt::V(_) | SyncStmt::Unlock(_)) = &stmt.kind {
                        if rp.sem_ref.get(&stmt.id) == Some(&sem) {
                            found = true;
                        }
                    }
                });
            }
            found
        };
        // Edges P -> Q: P waits on a sem Q could release.
        let succ: Vec<Vec<usize>> = waits
            .iter()
            .map(|&(_, sem)| {
                waits
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(q, _))| releases(q, sem))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        // Find any cycle with a DFS.
        for start in 0..waits.len() {
            let mut path = vec![start];
            let mut on_path = vec![false; waits.len()];
            on_path[start] = true;
            if let Some(cycle) = dfs_cycle(&succ, &mut path, &mut on_path, start) {
                return Some(cycle.into_iter().map(|i| waits[i].0).collect());
            }
        }
        None
    }

    /// A deadlock report, if the execution deadlocked (§6's "help the
    /// user analyze the causes of deadlocks").
    pub fn deadlock_report(&self) -> Option<Vec<DeadlockEntry>> {
        let Outcome::Deadlock { blocked } = &self.execution.outcome else {
            return None;
        };
        Some(
            blocked
                .iter()
                .map(|(proc, reason, stmt)| DeadlockEntry {
                    proc: *proc,
                    proc_name: self.session.rp().proc_name(*proc).to_owned(),
                    waiting_for: reason.to_string(),
                    stmt: *stmt,
                })
                .collect(),
        )
    }
}

fn dfs_cycle(
    succ: &[Vec<usize>],
    path: &mut Vec<usize>,
    on_path: &mut [bool],
    start: usize,
) -> Option<Vec<usize>> {
    let cur = *path.last().expect("path non-empty");
    for &next in &succ[cur] {
        if next == start && path.len() > 1 {
            return Some(path.clone());
        }
        if !on_path[next] {
            path.push(next);
            on_path[next] = true;
            if let Some(c) = dfs_cycle(succ, path, on_path, start) {
                return Some(c);
            }
            on_path[next] = false;
            path.pop();
        }
    }
    None
}
