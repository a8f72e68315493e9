//! # E12 — the end-to-end PPD pipeline benchmark
//!
//! One invocation runs one workload in its own process: it sets the
//! workload up (several times, reporting the median), then runs passes
//! of the workload's stages — parse → analyse → log → seal → open →
//! index → flowback → race scan, each workload taking the stages it
//! stresses — until the time budget is spent, checking every result
//! against an oracle as it goes. End-to-end metrics come from untraced
//! passes; the traced run interleaves passes with bench-side spans
//! around every layer call and reports per-layer self time and
//! counters. See `BENCHMARK.md` next to this crate.

pub mod compare;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::Workload;

/// Op-latency samples needed before the run may stop: the printed
/// pooled p90 then has at least ten samples beyond it.
pub const MIN_OPS: u64 = 100;

/// Untraced passes needed before the run may stop: enough for the
/// 10th percentile across passes to sit above the fastest one.
pub const MIN_PASSES: usize = 20;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement budget; ignored when `passes` is set.
    pub seconds: f64,
    /// Run exactly this many untraced passes instead of a time budget.
    pub passes: Option<usize>,
    /// Interleave traced passes and report per-layer metrics.
    pub trace: bool,
    /// How many times set-up is repeated (median reported).
    pub setup_reps: usize,
    /// Scratch directory for stores and journals, removed afterwards.
    pub work_dir: PathBuf,
}

impl Options {
    /// Defaults for `workload`/`seed`: a time budget from
    /// `BENCHMARK.json`, untraced, seven set-ups, scratch space under
    /// this crate's `work/` directory.
    pub fn new(workload: &str, seed: u64) -> Options {
        Options {
            workload: workload.to_owned(),
            seed,
            seconds: spec::spec().run_seconds as f64,
            passes: None,
            trace: false,
            setup_reps: 7,
            work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("work")
                .join(format!("{workload}-{}", std::process::id())),
        }
    }
}

/// What one pass hands back: its prepare-stage time, its op latencies,
/// and its operation and failure counts.
pub struct Pass<'r> {
    /// Span sink for this pass.
    pub rec: &'r Recorder,
    /// Time spent preparing the workload's programs.
    pub prepare: Duration,
    /// Latency of each of the workload's unit operations, in µs.
    pub ops: Vec<f64>,
    /// Operations attempted (every layer call whose result is used).
    pub attempted: u64,
    /// Operations that failed or disagreed with their oracle.
    pub failed: u64,
}

impl<'r> Pass<'r> {
    fn new(rec: &'r Recorder) -> Pass<'r> {
        Pass { rec, prepare: Duration::ZERO, ops: Vec::new(), attempted: 0, failed: 0 }
    }

    /// Runs one unit operation, recording its latency.
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.ops.push(t.elapsed().as_secs_f64() * 1e6);
        self.attempted += 1;
        out
    }

    /// Runs a supporting operation that is not a unit operation.
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.attempted += 1;
        f()
    }

    /// Counts a failed operation or oracle mismatch.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("pipeline: FAILED: {what}");
    }

    /// Counts a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Runs one workload as `opts` says and returns every metric.
///
/// # Errors
///
/// Returns a message for an unknown workload or a set-up that cannot
/// complete (the run then has no result to report).
pub fn run(opts: &Options) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let result = run_in(opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only succeeds once empty
    }
    result
}

/// Sets the workload up once — its inputs plus one warm-up pass, so
/// caches fill and lazy set-up finishes before anything is timed — in
/// scratch directory `k`, returning it with the seconds that took.
fn set_up(
    opts: &Options,
    k: usize,
    report: &mut Report,
) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let mut w =
        workloads::setup(&opts.workload, opts.seed, &opts.work_dir.join(format!("setup-{k}")))?;
    let off = Recorder::off();
    let mut warm = Pass::new(&off);
    w.pass(&mut warm);
    w.check(&mut warm);
    report.count(&warm);
    Ok((w, t.elapsed().as_secs_f64()))
}

/// Times one more set-up and throws it away. Repeated set-ups are
/// spread over the run, so one burst of interference cannot cover them
/// all.
fn extra_set_up(opts: &Options, setups: &mut Vec<f64>, report: &mut Report) -> Result<(), String> {
    let k = setups.len();
    let (w, secs) = set_up(opts, k, report)?;
    drop(w);
    let _ = std::fs::remove_dir_all(opts.work_dir.join(format!("setup-{k}")));
    setups.push(secs);
    Ok(())
}

fn run_in(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = opts.setup_reps.max(1);
    let (mut w, first) = set_up(opts, 0, &mut report)?;
    let mut setups = vec![first];

    let (off, on) = (Recorder::off(), Recorder::on());
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut prepares = Vec::new();
    let mut ops = stats::Histogram::default();
    let mut op_medians = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    // Time spent in the repeated set-ups does not count as measuring.
    let measured = |setups: &[f64]| {
        start.elapsed().saturating_sub(Duration::from_secs_f64(setups[1..].iter().sum()))
    };
    for i in 0u64.. {
        let progress = match opts.passes {
            Some(n) => walls.len() as f64 / n.max(1) as f64,
            None => measured(&setups).as_secs_f64() / budget.as_secs_f64().max(1e-9),
        };
        if setups.len() < reps && progress >= setups.len() as f64 / reps as f64 {
            extra_set_up(opts, &mut setups, &mut report)?;
        }
        let traced = opts.trace && i % 2 == 1;
        let rec = if traced { &on } else { &off };
        rec.set_pass(i);
        let mut p = Pass::new(rec);
        let t = Instant::now();
        rec.span(trace::BENCH, "pass", || w.pass(&mut p));
        let wall = t.elapsed().as_secs_f64() * 1e3;
        w.check(&mut p);
        report.count(&p);
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            prepares.push(p.prepare.as_secs_f64() * 1e3);
            op_medians.push(stats::median(&p.ops));
            p.ops.iter().for_each(|&us| ops.record(us));
        }
        let done = match opts.passes {
            Some(n) => walls.len() >= n && (!opts.trace || !traced_walls.is_empty()),
            None => {
                let measured = measured(&setups);
                // Never run past three budgets, whatever the minimums say.
                measured >= 3 * budget
                    || (measured >= budget && walls.len() >= MIN_PASSES && ops.len() >= MIN_OPS)
            }
        };
        if done {
            break;
        }
    }
    while setups.len() < reps {
        extra_set_up(opts, &mut setups, &mut report)?;
    }

    report.end_to_end(&setups, &walls, &prepares, &op_medians, &ops);
    w.details(&mut report);
    if opts.trace {
        report.per_layer(&on, &walls, &traced_walls);
        w.layer_metrics(&on, &mut report);
        // Counters of layers this workload bypasses read zero.
        for m in spec::spec().per_layer {
            if report.get(&m.name).is_none() {
                report.set_noted(m.name, 0.0, &m.unit, "(not exercised by this workload)".into());
            }
        }
        report.spans = on.records();
    }
    Ok(report)
}
