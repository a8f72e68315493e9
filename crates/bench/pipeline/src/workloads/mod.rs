//! The four workloads. Each stresses different layers, and each names
//! the layers it bypasses, so a change to one layer should move the
//! workloads that use it and leave the others unchanged.

mod exec_log;
mod interactive;
mod postmortem;
mod races;

use crate::report::Report;
use crate::trace::Recorder;
use crate::Pass;
use ppd_analysis::{Analyses, AnalysisConfig, EBlockStrategy};
use ppd_core::{PpdSession, RunConfig};
use ppd_runtime::SchedulerSpec;
use std::path::Path;
use std::time::Instant;

/// Every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["exec_log", "postmortem", "interactive", "races"];

/// One set-up workload.
pub trait Workload {
    /// One timed pass over the workload's stages. Results are kept for
    /// [`check`](Self::check), so oracle work stays out of the timing.
    fn pass(&mut self, p: &mut Pass<'_>);

    /// Checks the last pass's results against their oracles, counting
    /// mismatches into `p`, and clears them.
    fn check(&mut self, p: &mut Pass<'_>);

    /// Workload-specific numbers both kinds of run print.
    fn details(&mut self, _out: &mut Report) {}

    /// Per-layer counters, and the probe timings of the traced run,
    /// whose spans `rec` holds.
    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Report);
}

/// Builds workload `name`'s inputs from `seed`, with scratch files
/// under `dir`.
///
/// # Errors
///
/// Unknown workload names, and set-up steps that fail (a program that
/// does not compile, a store that cannot be written).
pub fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    let mut rng = Rng::new(seed);
    Ok(match name {
        "exec_log" => Box::new(exec_log::ExecLog::setup(&mut rng, dir)?),
        "postmortem" => Box::new(postmortem::Postmortem::setup(&mut rng, dir)?),
        "interactive" => Box::new(interactive::Interactive::setup(&mut rng, dir)?),
        "races" => Box::new(races::Races::setup(&mut rng)?),
        other => return Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    })
}

/// A program of a workload: source, inputs, and e-block strategy.
pub struct Program {
    /// Name used in failure messages.
    pub name: String,
    /// Source text.
    pub source: String,
    /// Inputs per process.
    pub inputs: Vec<Vec<i64>>,
    /// E-block strategy the program is prepared under.
    pub strategy: EBlockStrategy,
}

/// Step budget for every run: far above any workload program's needs.
const MAX_STEPS: u64 = 50_000_000;

impl Program {
    /// A program from one of the bench crate's workload generators.
    pub fn from(w: ppd_bench::workloads::Workload, strategy: EBlockStrategy) -> Program {
        Program { name: w.name, source: w.source, inputs: w.inputs, strategy }
    }

    /// A program with no inputs.
    pub fn new(name: &str, source: String, strategy: EBlockStrategy) -> Program {
        Program { name: name.to_owned(), source, inputs: Vec::new(), strategy }
    }

    /// The run configuration under `scheduler`.
    pub fn config(&self, scheduler: SchedulerSpec) -> RunConfig {
        RunConfig {
            scheduler,
            inputs: self.inputs.clone(),
            max_steps: Some(MAX_STEPS),
            breakpoints: Vec::new(),
        }
    }

    /// The preparatory phase, one span per layer: `ppd_lang::compile`,
    /// then the analyses, e-block plan and static graph.
    ///
    /// # Errors
    ///
    /// The compiler's message, if the program does not compile.
    pub fn prepare(&self, rec: &Recorder) -> Result<PpdSession, String> {
        let rp = rec
            .span("lang", "compile", || ppd_lang::compile(&self.source))
            .map_err(|e| format!("{}: {e}", self.name))?;
        Ok(rec.span("analysis", "prepare", || PpdSession::from_resolved(rp, self.strategy)))
    }
}

/// Prepares every program — the prepare stage of a pass, timed into
/// `p.prepare`. A program that fails to compile counts as a failure
/// and is left out.
pub fn prepare_all(programs: &[Program], p: &mut Pass<'_>) -> Vec<Option<PpdSession>> {
    let t = Instant::now();
    let rec = p.rec;
    let sessions: Vec<Result<PpdSession, String>> =
        programs.iter().map(|prog| prog.prepare(rec)).collect();
    p.prepare += t.elapsed();
    sessions
        .into_iter()
        .map(|s| {
            p.attempted += 1;
            s.map_err(|e| p.fail(format!("prepare {e}"))).ok()
        })
        .collect()
}

/// Prepares programs once, outside any pass (set-up).
///
/// # Errors
///
/// The first program that does not compile.
pub fn prepare_once(programs: &[Program]) -> Result<Vec<PpdSession>, String> {
    programs.iter().map(|prog| prog.prepare(&Recorder::off())).collect()
}

/// The preparatory layers' per-layer metrics: probe timings of the
/// three parts the prepare span covers together — `Analyses::run_with`,
/// the e-block plan, and the static graph — summed over `programs`,
/// median of three; and the static race-candidate counts, GMOD/GREF
/// and final. Returns the prepared sessions (none if a program does not
/// compile).
pub fn prepare_metrics(programs: &[Program], out: &mut Report) -> Vec<PpdSession> {
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        let mut ms = [0.0f64; 3];
        for prog in programs {
            let Ok(rp) = ppd_lang::compile(&prog.source) else { continue };
            let t = Instant::now();
            let analyses = Analyses::run_with(&rp, AnalysisConfig::default());
            ms[0] += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let plan = analyses.eblock_plan(&rp, prog.strategy);
            ms[1] += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let sg = ppd_graph::StaticGraph::build(&rp, &analyses);
            ms[2] += t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box((plan, sg));
        }
        for (s, v) in samples.iter_mut().zip(ms) {
            s.push(v);
        }
    }
    out.set("analysis.run_ms", crate::stats::median(&samples[0]), "ms");
    out.set("analysis.eblock_plan_ms", crate::stats::median(&samples[1]), "ms");
    out.set("graph.static_build_ms", crate::stats::median(&samples[2]), "ms");
    let sessions = prepare_once(programs).unwrap_or_default();
    let count = |f: fn(&PpdSession) -> usize| sessions.iter().map(f).sum::<usize>() as f64;
    out.set("analysis.candidates_gmod", count(|s| s.analyses().race_candidates.len()), "count");
    out.set("analysis.candidates_absint", count(|s| s.analyses().absint_candidates.len()), "count");
    sessions
}

/// Worker threads for parallel layer calls: the host's parallelism, so
/// one run never asks for more threads than there are cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// SplitMix64: the only source of the workloads' generated inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded random schedule.
    pub fn schedule(&mut self) -> SchedulerSpec {
        SchedulerSpec::Random { seed: self.next_u64() }
    }
}

/// An order-sensitive 64-bit fingerprint (FNV-1a over `Debug` text).
#[derive(Default)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Folds `item` in.
    pub fn add(&mut self, item: impl std::fmt::Debug) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in format!("{item:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The fingerprint so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4).scan(Rng::new(9), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(9), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(10), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::default();
        a.add(1);
        a.add(2);
        let mut b = Fingerprint::default();
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(setup("nope", 1, Path::new(".")).is_err());
    }
}
