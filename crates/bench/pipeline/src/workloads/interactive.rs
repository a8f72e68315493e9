//! `interactive` — one user's flowback session, as `ppd debug --jobs N
//! --journal` serves it.
//!
//! Set-up runs four programs in memory (the seed picks their schedules)
//! and draws a query script for each: start, present, prefetch of the
//! halted interval's children, expansions, backward slices, flowback
//! steps, cross-process extension, and repeated `start_at` calls that
//! the trace cache should serve — five such scripts per program. The
//! seed picks the targets; the number of each kind of query is fixed,
//! so latency quantiles fall in the same place on every seed. Each pass
//! prepares the programs and replays every script on a fresh controller
//! with `set_jobs(nproc)` and a journal attached; the journal starts
//! afresh after every pass, so its file stays one pass long. Replay, the
//! trace cache, the graph builder, the per-call worker pool and the
//! journal do the work; there is no store I/O and no race scan. The
//! unit operation is one query.

use super::{nproc, prepare_all, Fingerprint, Program, Rng, Workload};
use crate::report::Report;
use crate::stats::{median, Histogram};
use crate::trace::Recorder;
use crate::Pass;
use ppd_analysis::EBlockStrategy;
use ppd_bench::workloads as w;
use ppd_core::{Controller, DebugStats, Execution, PpdError, PpdSession};
use ppd_graph::{DynEdgeKind, DynNodeId};
use ppd_lang::{corpus, ProcId, VarId};
use ppd_runtime::Outcome;
use std::path::Path;
use std::time::Instant;

/// Rounds of expand / slice / flowback / extend / start_at / present
/// per script, after the opening start, present and prefetches.
const ROUNDS: usize = 24;

/// Scripts per program, each on its own controller every pass: the seed
/// picks each script's targets, and several scripts average out how
/// much work one seed's picks happen to cost.
const SCRIPTS: usize = 5;

/// One scripted query; `u64`s pick targets modulo what exists then.
#[derive(Debug, Clone, Copy)]
enum Query {
    Start,
    Present(usize),
    PrefetchChildren,
    PrefetchAll,
    Expand(u64),
    Slice(u64),
    Flowback(u64),
    AutoExtend(u64),
    StartAt(u64),
}

impl Query {
    fn kind(self) -> &'static str {
        match self {
            Query::Start => "start",
            Query::Present(_) => "present",
            Query::PrefetchChildren => "prefetch",
            Query::PrefetchAll => "prefetch_all",
            Query::Expand(_) => "expand",
            Query::Slice(_) => "slice",
            Query::Flowback(_) => "flowback",
            Query::AutoExtend(_) => "auto_extend",
            Query::StartAt(_) => "start_at",
        }
    }
}

fn script(rng: &mut Rng) -> Vec<Query> {
    let mut r = || rng.next_u64();
    let mut s = vec![Query::Start, Query::Present(4), Query::PrefetchChildren, Query::PrefetchAll];
    for _ in 0..ROUNDS {
        s.extend([
            Query::Expand(r()),
            Query::Slice(r()),
            Query::Flowback(r()),
            Query::AutoExtend(r()),
            Query::StartAt(r()),
            Query::Present(3),
        ]);
    }
    s
}

/// The process `Controller::start` debugs from.
fn halted_proc(exec: &Execution) -> ProcId {
    match &exec.outcome {
        Outcome::Failed { proc, .. } | Outcome::Breakpoint { proc, .. } => *proc,
        _ => ProcId(0),
    }
}

fn pick(n: usize, r: u64) -> Option<usize> {
    (n > 0).then(|| (r % n as u64) as usize)
}

/// A query's answer, kept until `check` folds it into the transcript,
/// so fingerprinting stays out of the timed query. Its fields are read
/// through `Debug` alone.
#[derive(Debug)]
#[allow(dead_code)]
enum Answer {
    Node(DynNodeId),
    /// A presented fragment; `present` breaks ties in `seq` by hash-set
    /// order, so only the set of nodes is deterministic.
    Shown(Vec<DynNodeId>),
    Count(usize),
    Preds(Vec<(DynNodeId, DynEdgeKind)>),
    Extended(Vec<(VarId, DynNodeId)>),
    /// `start_at` on a process that logged nothing is an answer too.
    StartAt(Result<DynNodeId, PpdError>),
    Nothing,
}

/// Runs one query.
fn query(
    c: &mut Controller<'_>,
    exec: &Execution,
    root: &mut Option<DynNodeId>,
    q: Query,
) -> Result<Answer, PpdError> {
    let node = |c: &Controller<'_>, r: u64| pick(c.graph().len(), r).map(|i| DynNodeId(i as u32));
    Ok(match q {
        Query::Start => {
            let r = c.start()?;
            *root = Some(r);
            Answer::Node(r)
        }
        Query::Present(depth) => {
            Answer::Shown(root.map(|r| c.present(r, depth)).unwrap_or_default())
        }
        Query::PrefetchChildren => {
            let proc = halted_proc(exec);
            let index = exec.logs.index();
            let halted = index.open_intervals(proc).last().copied();
            let halted = halted.or_else(|| c.top_level_intervals(proc).last().copied());
            let children = halted.map(|iv| c.direct_children(iv)).unwrap_or_default();
            Answer::Count(c.prefetch(&children)?)
        }
        Query::PrefetchAll => Answer::Count(c.prefetch_all()?),
        Query::Expand(r) => {
            let unexpanded = c.unexpanded();
            match pick(unexpanded.len(), r) {
                Some(i) => Answer::Count(c.expand(unexpanded[i])?.nodes.len()),
                None => Answer::Nothing,
            }
        }
        Query::Slice(r) => {
            node(c, r).map_or(Answer::Nothing, |n| Answer::Count(c.backward_slice(n).len()))
        }
        Query::Flowback(r) => node(c, r).map_or(Answer::Nothing, |n| Answer::Preds(c.flowback(n))),
        Query::AutoExtend(r) => {
            node(c, r).map_or(Answer::Nothing, |n| Answer::Extended(c.auto_extend(n)))
        }
        Query::StartAt(r) => {
            let proc = ProcId(pick(exec.logs.process_count(), r).unwrap_or(0) as u32);
            Answer::StartAt(c.start_at(proc))
        }
    })
}

/// The transcript fingerprint of one script's answers.
fn transcript(answers: Vec<Answer>) -> u64 {
    let mut fp = Fingerprint::default();
    for a in answers {
        match a {
            Answer::Shown(mut nodes) => {
                nodes.sort_unstable();
                fp.add(nodes);
            }
            Answer::StartAt(r) => fp.add(r.map_err(|e| e.to_string())),
            other => fp.add(other),
        }
    }
    fp.value()
}

pub struct Interactive {
    programs: Vec<Program>,
    executions: Vec<Execution>,
    /// `SCRIPTS` scripts per program, as `(program index, script)`.
    scripts: Vec<(usize, Vec<Query>)>,
    journal: ppd_obs::Journal,
    /// The last checked pass's journal: records and bytes.
    journaled: (u64, u64),
    /// Per script, the transcript fingerprint every pass must repeat.
    reference: Vec<Option<u64>>,
    /// The last pass: per script, its answers (or the first error).
    answers: Vec<Result<Vec<Answer>, String>>,
    /// The last pass: the kind of each query, in op order.
    kinds: Vec<&'static str>,
    /// The last pass's controller counters, summed over programs.
    stats: Vec<DebugStats>,
    /// Latencies per query kind (µs), all passes.
    by_kind: Vec<(&'static str, Histogram)>,
}

impl Interactive {
    pub fn setup(rng: &mut Rng, dir: &Path) -> Result<Interactive, String> {
        let ps = EBlockStrategy::per_subroutine();
        let programs = vec![
            Program::from(w::deep_calls(64), ps),
            Program::new("bank", corpus::BANK.source.into(), ps),
            Program::new("prodcons", corpus::PRODUCER_CONSUMER.source.into(), ps),
            Program::from(w::racy_workers(8, 256), ps),
        ];
        let sessions = super::prepare_once(&programs)?;
        let executions: Vec<Execution> = programs
            .iter()
            .zip(&sessions)
            .map(|(prog, s)| s.execute(prog.config(rng.schedule())))
            .collect();
        let scripts: Vec<(usize, Vec<Query>)> = (0..programs.len())
            .flat_map(|i| (0..SCRIPTS).map(move |_| i))
            .map(|i| (i, script(rng)))
            .collect();
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let journal_path = dir.join("journal.jsonl");
        let journal = ppd_obs::Journal::create(&journal_path)
            .map_err(|e| format!("create {}: {e}", journal_path.display()))?;
        let n = scripts.len();
        Ok(Interactive {
            programs,
            executions,
            scripts,
            journal,
            journaled: (0, 0),
            reference: vec![None; n],
            answers: Vec::new(),
            kinds: Vec::new(),
            stats: Vec::new(),
            by_kind: Vec::new(),
        })
    }

    /// Replays every script once on fresh controllers outside any pass,
    /// with or without the journal, returning the total query time (ms).
    fn replay_all(&self, sessions: &[PpdSession], journal: bool) -> f64 {
        let t = Instant::now();
        for (i, script) in &self.scripts {
            let exec = &self.executions[*i];
            let mut c = Controller::new(&sessions[*i], exec);
            c.set_jobs(nproc());
            if journal {
                c.set_journal(self.journal.clone());
            }
            let mut root = None;
            for &q in script {
                let _ = query(&mut c, exec, &mut root, q);
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Workload for Interactive {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let rec = p.rec;
        let sessions = prepare_all(&self.programs, p);
        self.stats.clear();
        for (i, script) in &self.scripts {
            let (Some(s), exec) = (&sessions[*i], &self.executions[*i]) else {
                self.answers.push(Err("not prepared".into()));
                continue;
            };
            let mut c = p.call(|| rec.span("core", "controller_new", || Controller::new(s, exec)));
            c.set_jobs(nproc());
            c.set_journal(self.journal.clone());
            let mut root = None;
            let mut answers = Ok(Vec::with_capacity(script.len()));
            for &q in script {
                let r = p.op(|| rec.span("core", q.kind(), || query(&mut c, exec, &mut root, q)));
                self.kinds.push(q.kind());
                match (r, &mut answers) {
                    (Ok(a), Ok(all)) => all.push(a),
                    (Err(e), Ok(_)) => {
                        answers = Err(format!("{}: {}: {e}", self.programs[*i].name, q.kind()))
                    }
                    (_, Err(_)) => {}
                }
            }
            self.stats.push(rec.span("core", "stats", || c.stats()));
            rec.span("core", "drop_controller", || drop(c));
            self.answers.push(answers);
        }
        rec.span("analysis", "drop_sessions", || drop(sessions));
    }

    fn check(&mut self, p: &mut Pass<'_>) {
        for (j, answers) in self.answers.drain(..).enumerate() {
            match answers {
                Err(e) => p.fail(e),
                Ok(answers) => {
                    let fp = transcript(answers);
                    let reference = *self.reference[j].get_or_insert(fp);
                    let name = &self.programs[self.scripts[j].0].name;
                    p.expect(fp == reference, || {
                        format!("{name}: transcript changed between passes")
                    });
                }
            }
        }
        for (kind, &us) in self.kinds.drain(..).zip(&p.ops) {
            match self.by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, lat)) => lat.record(us),
                None => {
                    let mut lat = Histogram::default();
                    lat.record(us);
                    self.by_kind.push((kind, lat));
                }
            }
        }
        let path = self.journal.path().to_path_buf();
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        self.journaled = (self.journal.records(), bytes);
        match ppd_obs::Journal::create(&path) {
            Ok(fresh) => self.journal = fresh,
            Err(e) => p.fail(format!("recreate {}: {e}", path.display())),
        }
    }

    fn details(&mut self, out: &mut Report) {
        for (kind, lat) in &self.by_kind {
            out.set_noted(
                format!("query_us_p50.{kind}"),
                lat.percentile(50.0),
                "us",
                format!("(n={})", lat.len()),
            );
        }
    }

    fn layer_metrics(&mut self, _rec: &Recorder, out: &mut Report) {
        let sessions = super::prepare_metrics(&self.programs, out);
        let sum = |f: fn(&Execution) -> u64| self.executions.iter().map(f).sum::<u64>() as f64;
        out.set("runtime.steps", sum(|e| e.steps), "count");
        out.set("runtime.log_entries", sum(|e| e.logs.total_entries() as u64), "count");
        out.set("runtime.log_bytes", sum(|e| e.logs.total_bytes() as u64), "B");
        out.set("graph.edges", sum(|e| e.pgraph.internal_edges().len() as u64), "count");
        let total = |f: fn(&DebugStats) -> u64| self.stats.iter().map(f).sum::<u64>() as f64;
        out.set("core.replays", total(|s| s.replays), "count");
        out.set("core.trace_events", total(|s| s.trace_events), "count");
        out.set("core.log_entries_scanned", total(|s| s.log_entries_scanned), "count");
        let (hits, misses) = (total(|s| s.cache_hits), total(|s| s.cache_misses));
        out.set("core.cache_hit_rate", hits / (hits + misses).max(1.0), "ratio");
        // The journal's share of query time: the same scripts, on fresh
        // controllers, interleaved with and without a journal attached.
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            with.push(self.replay_all(&sessions, true));
            without.push(self.replay_all(&sessions, false));
        }
        out.set("obs.journal_pct", 100.0 * (median(&with) - median(&without)) / median(&with), "%");
        out.set("obs.journal_records", self.journaled.0 as f64, "count");
        out.set("obs.journal_bytes", self.journaled.1 as f64, "B");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_have_a_fixed_mix_of_query_kinds() {
        let kinds =
            |seed| -> Vec<&str> { script(&mut Rng::new(seed)).iter().map(|q| q.kind()).collect() };
        assert_eq!(kinds(1), kinds(2));
    }
}
