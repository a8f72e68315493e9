//! `races` — `ppd races` and `ppd races --stats` over many-process
//! programs.
//!
//! Set-up runs each program under three seeded random schedules and
//! computes the naive all-pairs race set of every execution as the
//! oracle. Each pass prepares the programs and, per execution, asks a
//! fresh controller for its race report — alternating one worker and
//! `nproc` workers — and, for each program's first schedule, for the
//! per-stage examined-pair chain (`--stats`). Event
//! ordering, the conflict scan and the static candidate indexes do the
//! work; there is no replay and no store. The unit operation is one
//! race report.

use super::{nproc, prepare_all, Program, Rng, Workload};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Recorder;
use crate::Pass;
use ppd_analysis::EBlockStrategy;
use ppd_bench::workloads as w;
use ppd_core::{Controller, Execution};
use ppd_graph::{Race, RaceCandidates, VectorClocks};
use ppd_lang::corpus;
use std::time::Instant;

/// Seeded schedules per program.
const SCHEDULES: usize = 3;

/// One race report and its stage chain from one pass.
struct Scan {
    execution: usize,
    jobs: usize,
    races: Vec<Race>,
    /// The stage chain, for each program's first schedule.
    pairs: Option<Vec<(&'static str, usize)>>,
}

pub struct Races {
    programs: Vec<Program>,
    /// `(program index, execution)` for every schedule of every program.
    executions: Vec<(usize, Execution)>,
    /// The naive scan's race set per execution (sorted).
    naive: Vec<Vec<Race>>,
    passes: u64,
    scans: Vec<Scan>,
    /// Per execution, the last race set seen at one worker and at `nproc`.
    by_jobs: Vec<[Option<Vec<Race>>; 2]>,
    /// Per pass: race reports and stage chains, summed.
    report_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    /// Last checked pass, summed: races over every execution; then, over
    /// the executions whose stage chain was taken, races, naive pairs
    /// and absint pairs.
    totals: (usize, usize, usize, usize),
}

fn sorted(mut races: Vec<Race>) -> Vec<Race> {
    races.sort_unstable();
    races
}

impl Races {
    pub fn setup(rng: &mut Rng) -> Result<Races, String> {
        let ps = EBlockStrategy::per_subroutine();
        let programs = vec![
            Program::from(w::racy_workers(8, 32), ps),
            Program::from(w::handoff(6, 24), ps),
            Program::from(w::typed_pipeline(4, 24), ps),
            Program::from(w::disjoint_sweep(6, 48), ps),
            Program::new("bank_racy", corpus::BANK_RACY.source.into(), ps),
            Program::new("prodcons_racy", corpus::PRODUCER_CONSUMER_RACY.source.into(), ps),
            // Dense synchronization: many sync edges to order.
            Program::new("prodcons_150", corpus::gen_prodcons(150), ps),
            Program::new("token_ring_100", corpus::gen_token_ring(100), ps),
        ];
        let sessions = super::prepare_once(&programs)?;
        let mut executions = Vec::new();
        for (i, (prog, s)) in programs.iter().zip(&sessions).enumerate() {
            for _ in 0..SCHEDULES {
                executions.push((i, s.execute(prog.config(rng.schedule()))));
            }
        }
        let naive = executions
            .iter()
            .map(|(_, e)| {
                sorted(ppd_graph::detect_races_naive(&e.pgraph, &VectorClocks::compute(&e.pgraph)))
            })
            .collect();
        let n = executions.len();
        Ok(Races {
            programs,
            executions,
            naive,
            passes: 0,
            scans: Vec::new(),
            by_jobs: vec![[None, None]; n],
            report_ms: Vec::new(),
            stats_ms: Vec::new(),
            totals: (0, 0, 0, 0),
        })
    }
}

impl Workload for Races {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let rec = p.rec;
        let sessions = prepare_all(&self.programs, p);
        let (mut report_ms, mut stats_ms) = (0.0, 0.0);
        for (j, (prog, exec)) in self.executions.iter().enumerate() {
            let Some(s) = &sessions[*prog] else { continue };
            let jobs = if (self.passes as usize + j).is_multiple_of(2) { 1 } else { nproc() };
            let mut c = rec.span("core", "controller_new", || Controller::new(s, exec));
            c.set_jobs(jobs);
            let reports = p.op(|| rec.span("graph", "races", || c.races()));
            report_ms += p.ops.last().expect("op recorded") / 1e3;
            let pairs = (j % SCHEDULES == 0).then(|| {
                let t = Instant::now();
                let pairs =
                    p.call(|| rec.span("graph", "race_stage_pairs", || c.race_stage_pairs()));
                stats_ms += t.elapsed().as_secs_f64() * 1e3;
                pairs
            });
            let races = reports.into_iter().map(|r| r.race).collect();
            rec.span("core", "drop_controller", || drop(c));
            self.scans.push(Scan { execution: j, jobs, races, pairs });
        }
        rec.span("analysis", "drop_sessions", || drop(sessions));
        self.report_ms.push(report_ms);
        self.stats_ms.push(stats_ms);
        self.passes += 1;
    }

    fn check(&mut self, p: &mut Pass<'_>) {
        let (mut races, mut chain_races, mut naive_pairs, mut absint_pairs) = (0, 0, 0, 0);
        for scan in self.scans.drain(..) {
            let j = scan.execution;
            let name = &self.programs[self.executions[j].0].name;
            let found = sorted(scan.races);
            p.expect(found == self.naive[j], || {
                format!(
                    "{name} (execution {j}, jobs {}): race set differs from the naive scan",
                    scan.jobs
                )
            });
            let slot = usize::from(scan.jobs > 1);
            if let Some(other) = &self.by_jobs[j][1 - slot] {
                p.expect(*other == found, || {
                    format!("{name} (execution {j}): jobs 1 and jobs N differ")
                });
            }
            if let Some(stages) = &scan.pairs {
                let pairs =
                    |stage: &str| stages.iter().find(|(s, _)| *s == stage).map_or(0, |(_, n)| *n);
                let chain = ["pruned", "mhp", "typed", "absint"].map(pairs);
                p.expect(
                    chain.windows(2).all(|w| w[0] >= w[1]) && chain[3] <= pairs("naive"),
                    || {
                        format!(
                            "{name} (execution {j}): stage pair chain is not shrinking: {stages:?}"
                        )
                    },
                );
                chain_races += found.len();
                naive_pairs += pairs("naive");
                absint_pairs += chain[3];
            }
            races += found.len();
            self.by_jobs[j][slot] = Some(found);
        }
        self.totals = (races, chain_races, naive_pairs, absint_pairs);
    }

    fn details(&mut self, out: &mut Report) {
        out.set("race_report_ms", median(&self.report_ms), "ms");
        out.set("race_stats_ms", median(&self.stats_ms), "ms");
    }

    fn layer_metrics(&mut self, _rec: &Recorder, out: &mut Report) {
        let sessions = super::prepare_metrics(&self.programs, out);
        let execs = || self.executions.iter().map(|(_, e)| e);
        let sum = |f: fn(&Execution) -> u64| execs().map(f).sum::<u64>() as f64;
        out.set("runtime.steps", sum(|e| e.steps), "count");
        out.set("runtime.log_entries", sum(|e| e.logs.total_entries() as u64), "count");
        out.set("runtime.log_bytes", sum(|e| e.logs.total_bytes() as u64), "B");
        out.set("graph.edges", sum(|e| e.pgraph.internal_edges().len() as u64), "count");
        let (races, chain_races, naive_pairs, absint_pairs) = self.totals;
        out.set("graph.races", races as f64, "count");
        out.set("graph.pairs_naive", naive_pairs as f64, "count");
        out.set("graph.pairs_absint", absint_pairs as f64, "count");
        out.set("graph.race_yield", chain_races as f64 / absint_pairs.max(1) as f64, "ratio");
        // The graph-layer calls inside a race report, probed directly.
        let time = |f: &dyn Fn(&Execution, &RaceCandidates)| {
            let t = Instant::now();
            for (prog, e) in &self.executions {
                f(e, &sessions[*prog].analyses().absint_candidates);
            }
            t.elapsed().as_secs_f64() * 1e3
        };
        let vclock = time(&|e, _| drop(VectorClocks::compute(&e.pgraph)));
        let scan = time(&|e, cands| {
            let ord = VectorClocks::compute(&e.pgraph);
            drop(ppd_graph::detect_races_absint(&e.pgraph, &ord, cands));
        });
        let scan_par = time(&|e, cands| {
            let ord = VectorClocks::compute(&e.pgraph);
            drop(ppd_graph::detect_races_par(&e.pgraph, &ord, Some(cands), nproc()));
        });
        out.set("graph.vclock_ms", vclock, "ms");
        out.set("graph.scan_ms", scan - vclock, "ms");
        out.set("graph.scan_par_ms", scan_par - vclock, "ms");
    }
}
