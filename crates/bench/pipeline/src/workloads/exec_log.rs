//! `exec_log` — the execution phase, where the paper's one quantitative
//! claim lives (§7: tracing added less than 15% to execution time).
//!
//! Each pass prepares the E9 overhead corpus (scaled so every run takes
//! at least ~5 ms) plus two snapshot-heavy programs, draws a fresh
//! seeded schedule per program, runs each program as an
//! uninstrumented/instrumented pair whose order alternates, and
//! streams one instrumented run of each to disk: raw for every program,
//! lzb-compressed too for the snapshot-heavy two.
//! Runtime and log writes do the work; nothing is replayed, indexed or
//! scanned for races. The unit operation is one instrumented in-memory
//! run.

use super::{prepare_all, Program, Rng, Workload};
use crate::report::Report;
use crate::stats::{geomean, median};
use crate::trace::Recorder;
use crate::Pass;
use ppd_analysis::EBlockStrategy;
use ppd_bench::workloads as w;
use ppd_core::{Execution, PpdError};
use ppd_lang::{corpus, ProcId};
use ppd_runtime::{Outcome, SchedulerSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

type Output = (Outcome, Vec<(ProcId, i64)>);

/// Whether two runs agree: the same outcome, and each process printed
/// the same values in the same order. The global interleaving of prints
/// may differ: with loop e-blocks the instrumented run takes a few more
/// scheduler steps, so a random schedule can order independent
/// processes' prints differently.
fn same_run(a: (&Outcome, &[(ProcId, i64)]), b: (&Outcome, &[(ProcId, i64)])) -> bool {
    let by_proc = |out: &[(ProcId, i64)]| {
        let mut out = out.to_vec();
        out.sort_by_key(|&(proc, _)| proc); // stable: keeps each process's order
        out
    };
    a.0 == b.0 && by_proc(a.1) == by_proc(b.1)
}

/// One program's results from one pass.
struct Runs {
    program: usize,
    baseline: Output,
    logged: Execution,
    streamed: Vec<(&'static str, Result<Execution, PpdError>)>,
}

pub struct ExecLog {
    programs: Vec<Program>,
    /// Whether each program is also streamed lzb-compressed.
    snapshot_heavy: Vec<bool>,
    /// Draws each pass's schedules: a run samples many interleavings, so
    /// its statistics do not hang on one schedule's luck.
    rng: Rng,
    dir: PathBuf,
    passes: u64,
    runs: Vec<Runs>,
    /// Instrumented ÷ uninstrumented time of every pair, per program.
    ratios: Vec<Vec<f64>>,
    /// Per pass: instrumented in-memory runs, summed.
    exec_ms: Vec<f64>,
    /// Per pass: raw streamed runs, summed.
    stream_raw_ms: Vec<f64>,
    /// Per pass: every streamed run, summed.
    stream_ms: Vec<f64>,
    /// First checked pass (the same schedules for every run of a seed):
    /// segments and file bytes written.
    store: Option<(u64, u64)>,
    /// First checked pass: steps, log entries, log bytes, parallel-graph edges.
    logged: Option<(u64, u64, u64, u64)>,
}

impl ExecLog {
    pub fn setup(rng: &mut Rng, dir: &Path) -> Result<ExecLog, String> {
        let e9 = EBlockStrategy::with_leaf_merge(24);
        let loops = EBlockStrategy::with_loops(4);
        // The E9 suite minus `readers_writers`, a fixed 0.2 ms corpus
        // program too short to time; `matmul` is fixed at ~5 ms.
        let programs = vec![
            Program::new("matmul", corpus::MATMUL.source.into(), e9),
            Program::new("quicksort", corpus::gen_quicksort(224), e9),
            Program::new("prodcons", corpus::gen_prodcons(400), e9),
            Program::new("bank", corpus::gen_bank(500), e9),
            Program::new("token_ring", corpus::gen_token_ring(600), e9),
            Program::from(w::loop_heavy(3000), e9),
            Program::from(w::stencil_state(96, 40), loops),
            Program::from(w::histogram_rounds(4, 48, 20), loops),
        ];
        let snapshot_heavy = programs.iter().map(|p| p.strategy == loops).collect();
        let n = programs.len();
        Ok(ExecLog {
            programs,
            snapshot_heavy,
            rng: Rng::new(rng.next_u64()),
            dir: dir.to_path_buf(),
            passes: 0,
            runs: Vec::new(),
            ratios: vec![Vec::new(); n],
            exec_ms: Vec::new(),
            stream_raw_ms: Vec::new(),
            stream_ms: Vec::new(),
            store: None,
            logged: None,
        })
    }

    fn store_dir(&self, i: usize, format: &str) -> PathBuf {
        self.dir.join(format!("{}-{format}", self.programs[i].name))
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Workload for ExecLog {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let rec = p.rec;
        let sessions = prepare_all(&self.programs, p);
        let (mut exec_ms, mut raw_ms, mut all_ms) = (0.0, 0.0, 0.0);
        self.runs.clear();
        for (i, session) in sessions.iter().enumerate() {
            let Some(s) = session else { continue };
            let cfg = self.programs[i].config(self.rng.schedule());
            // The pair's order alternates from program to program and
            // from pass to pass.
            let base_first = (self.passes as usize + i).is_multiple_of(2);
            let mut base_ms = 0.0;
            let mut baseline = || {
                let t = Instant::now();
                let (outcome, output, _) =
                    rec.span("runtime", "execute_baseline", || s.execute_baseline(cfg.clone()));
                base_ms = ms_since(t);
                (outcome, output)
            };
            let early = base_first.then(&mut baseline);
            let t = Instant::now();
            let logged = p.op(|| rec.span("runtime", "execute", || s.execute(cfg.clone())));
            let logged_ms = ms_since(t);
            let base_out = early.unwrap_or_else(baseline);
            p.attempted += 1; // the uninstrumented run
            self.ratios[i].push(logged_ms / base_ms);
            exec_ms += logged_ms;
            let formats: &[(&'static str, bool)] = if self.snapshot_heavy[i] {
                &[("raw", false), ("lzb", true)]
            } else {
                &[("raw", false)]
            };
            let mut streamed = Vec::new();
            for &(format, compress) in formats {
                let dir = self.store_dir(i, format);
                let t = Instant::now();
                let run = p.call(|| {
                    rec.span("runtime", "execute_streaming", || {
                        s.execute_streaming_with(cfg.clone(), &dir, 0, compress)
                    })
                });
                let ms = ms_since(t);
                all_ms += ms;
                if !compress {
                    raw_ms += ms;
                }
                streamed.push((format, run));
            }
            self.runs.push(Runs { program: i, baseline: base_out, logged, streamed });
        }
        rec.span("analysis", "drop_sessions", || drop(sessions));
        self.exec_ms.push(exec_ms);
        self.stream_raw_ms.push(raw_ms);
        self.stream_ms.push(all_ms);
        self.passes += 1;
    }

    fn check(&mut self, p: &mut Pass<'_>) {
        let (mut segments, mut bytes) = (0, 0);
        let (mut steps, mut entries, mut log_bytes, mut edges) = (0, 0, 0, 0);
        for runs in std::mem::take(&mut self.runs) {
            let (i, base, logged) = (runs.program, &runs.baseline, &runs.logged);
            let name = &self.programs[i].name;
            p.expect(same_run((&logged.outcome, &logged.output), (&base.0, &base.1)), || {
                format!("{name}: instrumented run differs from the uninstrumented one")
            });
            steps += logged.steps;
            entries += logged.logs.total_entries() as u64;
            log_bytes += logged.logs.total_bytes() as u64;
            edges += logged.pgraph.internal_edges().len() as u64;
            for (format, streamed) in runs.streamed {
                match streamed {
                    Err(e) => p.fail(format!("{name}: streaming ({format}) failed: {e}")),
                    Ok(exec) => {
                        p.expect(same_run((&exec.outcome, &exec.output), (&base.0, &base.1)), || {
                            format!("{name}: streamed ({format}) run differs from the uninstrumented one")
                        });
                        if let Some(seg) = exec.logs.segmented() {
                            p.expect(
                                seg.total_entries() as usize == logged.logs.total_entries(),
                                || {
                                    format!(
                                        "{name}: store ({format}) entry count differs from memory"
                                    )
                                },
                            );
                            bytes += seg.total_file_bytes();
                            segments += (0..seg.process_count())
                                .map(|q| seg.segments(ProcId(q as u32)).count() as u64)
                                .sum::<u64>();
                        } else {
                            p.fail(format!(
                                "{name}: streamed ({format}) logs are not segment-backed"
                            ));
                        }
                    }
                }
                let _ = std::fs::remove_dir_all(self.store_dir(i, format));
            }
        }
        self.store.get_or_insert((segments, bytes));
        self.logged.get_or_insert((steps, entries, log_bytes, edges));
    }

    fn details(&mut self, out: &mut Report) {
        let slowdowns: Vec<f64> = self.ratios.iter().map(|r| median(r)).collect();
        for (prog, s) in self.programs.iter().zip(&slowdowns) {
            out.set(format!("exec_slowdown.{}", prog.name), *s, "ratio");
        }
        out.set("exec_slowdown", geomean(&slowdowns), "ratio");
        out.set("exec_ms", median(&self.exec_ms), "ms");
        out.set("stream_exec_ms", median(&self.stream_ms), "ms");
        out.set("store_bytes", self.store.unwrap_or_default().1 as f64, "B");
    }

    fn layer_metrics(&mut self, _rec: &Recorder, out: &mut Report) {
        let sessions = super::prepare_metrics(&self.programs, out);
        let slowdowns: Vec<f64> = self.ratios.iter().map(|r| median(r)).collect();
        out.set("runtime.slowdown", geomean(&slowdowns), "ratio");
        let (steps, entries, log_bytes, edges) = self.logged.unwrap_or_default();
        out.set("runtime.steps", steps as f64, "count");
        out.set("runtime.log_entries", entries as f64, "count");
        out.set("runtime.log_bytes", log_bytes as f64, "B");
        out.set("graph.edges", edges as f64, "count");
        // The metered run times and sizes every log write; its clock
        // reads perturb the run, so it gives the share, never the ratio.
        let (mut log_ns, mut wall_ns) = (0u64, 0u64);
        for (prog, s) in self.programs.iter().zip(&sessions) {
            let cfg = prog.config(SchedulerSpec::RoundRobin);
            let t = Instant::now();
            let (_, meter) = s.execute_metered(cfg);
            wall_ns += t.elapsed().as_nanos() as u64;
            log_ns += meter.total_ns();
        }
        out.set("runtime.meter_log_pct", 100.0 * log_ns as f64 / wall_ns as f64, "%");
        let sink: Vec<f64> = self
            .stream_raw_ms
            .iter()
            .zip(&self.exec_ms)
            .map(|(s, e)| 100.0 * (s - e) / s)
            .collect();
        out.set("log.sink_pct", median(&sink), "%");
        let (segments, bytes) = self.store.unwrap_or_default();
        out.set("log.segments", segments as f64, "count");
        out.set("log.store_bytes", bytes as f64, "B");
    }
}
