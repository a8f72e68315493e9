//! Benchmark workloads: corpus programs plus parameterized generators,
//! each with the inputs it needs.

use ppd_analysis::EBlockStrategy;
use ppd_core::{PpdSession, RunConfig};
use ppd_lang::corpus;
use ppd_runtime::SchedulerSpec;

/// A named, ready-to-run workload.
pub struct Workload {
    /// Short name used in tables.
    pub name: String,
    /// The source text.
    pub source: String,
    /// Inputs per process.
    pub inputs: Vec<Vec<i64>>,
}

impl Workload {
    /// Prepares a session under `strategy`.
    pub fn prepare(&self, strategy: EBlockStrategy) -> PpdSession {
        PpdSession::prepare(&self.source, strategy)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
    }

    /// The run configuration (deterministic round-robin).
    pub fn config(&self) -> RunConfig {
        RunConfig {
            scheduler: SchedulerSpec::RoundRobin,
            inputs: self.inputs.clone(),
            max_steps: Some(50_000_000),
            breakpoints: Vec::new(),
        }
    }
}

fn fixed(name: &str, source: &str, inputs: Vec<Vec<i64>>) -> Workload {
    Workload { name: name.into(), source: source.into(), inputs }
}

/// The overhead-measurement suite (E2/E9): a mix of compute-bound,
/// call-heavy, and synchronization-heavy programs.
pub fn overhead_suite() -> Vec<Workload> {
    vec![
        fixed("matmul", corpus::MATMUL.source, vec![]),
        fixed("quicksort", &corpus::gen_quicksort(192), vec![]),
        fixed("prodcons", &corpus::gen_prodcons(400), vec![]),
        fixed("bank", &corpus::gen_bank(300), vec![]),
        fixed("token_ring", &corpus::gen_token_ring(150), vec![]),
        fixed("loop_heavy", &corpus::gen_loop_heavy(3000), vec![]),
        fixed("readers_writers", corpus::READERS_WRITERS.source, vec![]),
    ]
}

/// The loop-heavy workload used by the E3 granularity sweep.
pub fn loop_heavy(iters: u32) -> Workload {
    fixed("loop_heavy", &corpus::gen_loop_heavy(iters), vec![])
}

/// Racy-worker workloads for the E4 sweep.
pub fn racy_workers(n: u32, iters: u32) -> Workload {
    fixed(&format!("workers_{n}x{iters}"), &corpus::gen_racy_workers(n, iters), vec![])
}

/// Check-then-update handoff workload for the E4 MHP columns: `n`
/// reader processes sum `config` (and the deliberately unprotected
/// `racy`) then signal the writer, which mutates `config` only after
/// every reader is done. All reader accesses to `config` are therefore
/// statically ordered before its only cross-process write — the MHP
/// index prunes those pairs and the snapshot trim drops `config` from
/// the readers' synchronization units — while the concurrent `racy`
/// accesses keep a real race in the table.
pub fn handoff(n: u32, iters: u32) -> Workload {
    let mut src = String::from("shared int config;\nshared int racy;\n");
    for i in 0..n {
        src.push_str(&format!("sem go{i} = 0;\nsem done{i} = 0;\n"));
    }
    for i in 0..n {
        src.push_str(&format!(
            "process R{i} {{\n    int k;\n    int acc = 0;\n    p(go{i});\n    \
             for (k = 0; k < {iters}; k = k + 1) {{ acc = acc + config + racy; }}\n    \
             v(done{i});\n    print(acc);\n}}\n"
        ));
    }
    src.push_str("process W {\n");
    for i in 0..n {
        src.push_str(&format!("    v(go{i});\n"));
    }
    src.push_str("    racy = racy + 1;\n");
    for i in 0..n {
        src.push_str(&format!("    p(done{i});\n"));
    }
    src.push_str("    config = 99;\n    print(config);\n}\n");
    Workload { name: format!("handoff_{n}x{iters}"), source: src, inputs: vec![] }
}

/// Typed two-payload-class pipeline for the E4 typed column: one
/// producer writes `g` and then streams `iters` ints to a channel
/// drained inside a function, while `n` bool lanes stream alongside
/// through their own channels and drain function. Untyped channel
/// aliasing must assume each drain's `chan` parameter may name any
/// channel, so the write/read pair on `g` survives MHP pruning; the
/// per-payload-type sync groups inferred by `ppd check` separate the
/// int lane from the bool lanes, recover the ordering, and drop it.
pub fn typed_pipeline(n: u32, iters: u32) -> Workload {
    let mut src = String::from("chan ints;\nshared int g;\n");
    for i in 0..n {
        src.push_str(&format!("chan flags{i};\n"));
    }
    src.push_str(&format!(
        "void draini(chan q) {{\n    int k;\n    int x;\n    \
         for (k = 0; k < {iters}; k = k + 1) {{ recv(q, x); print(g + x); }}\n}}\n\
         void drainb(chan q) {{\n    int k;\n    int b;\n    \
         for (k = 0; k < {iters}; k = k + 1) {{ recv(q, b); print(b); }}\n}}\n\
         process P {{\n    int k;\n    g = 7;\n    \
         for (k = 0; k < {iters}; k = k + 1) {{ send(ints, k); }}\n}}\n\
         process Q {{ draini(ints); }}\n"
    ));
    for i in 0..n {
        src.push_str(&format!(
            "process R{i} {{\n    int k;\n    \
             for (k = 0; k < {iters}; k = k + 1) {{ send(flags{i}, true); }}\n}}\n\
             process S{i} {{ drainb(flags{i}); }}\n"
        ));
    }
    Workload { name: format!("typed_pipe_{n}x{iters}"), source: src, inputs: vec![] }
}

/// Disjoint-slice array sweep for the E4 absint columns: `n` processes
/// each write and re-read their own `per`-element slice of one shared
/// array, then fold the slice into a per-process total printed at the
/// end. GMOD/GREF, MHP and typed analysis all see `n` processes
/// writing one array and keep every process pair as a candidate; the
/// interval stage proves the per-process index regions pairwise
/// disjoint and drops the array from the candidate index entirely —
/// the `cands` column collapses while the race set (empty) is
/// preserved.
pub fn disjoint_sweep(n: u32, per: u32) -> Workload {
    let len = n * per;
    let mut src = format!("shared int a[{len}];\n");
    for i in 0..n {
        let lo = i * per;
        let hi = (i + 1) * per;
        src.push_str(&format!(
            "process S{i} {{\n    int k;\n    int total = 0;\n    \
             for (k = {lo}; k < {hi}; k = k + 1) {{ a[k] = k * 3 + {i}; }}\n    \
             for (k = {lo}; k < {hi}; k = k + 1) {{ total = total + a[k]; }}\n    \
             print(total);\n}}\n"
        ));
    }
    Workload { name: format!("disjoint_{n}x{per}"), source: src, inputs: vec![] }
}

/// Shared-array stencil whose per-iteration intervals each carry a
/// whole-array snapshot (the paper's §7 whole-array mode): one
/// process smooths a `cells`-wide grid for `iters` sweeps while a
/// checker samples it. Under a loop-splitting e-block strategy every
/// sweep is its own interval, so consecutive postlogs snapshot
/// near-identical array state — the log shape where E10's block
/// compression pays (>= 2x), unlike scalar-only counter logs.
pub fn stencil_state(cells: u32, iters: u32) -> Workload {
    let last = cells - 1;
    let mid = cells / 2;
    let src = format!(
        "shared int grid[{cells}];\n\
         process Smoother {{\n    int it;\n    int j;\n    \
         grid[0] = 100;\n    grid[{last}] = 50;\n    \
         for (it = 0; it < {iters}; it = it + 1) {{\n        \
         for (j = 1; j < {last}; j = j + 1) {{ grid[j] = (grid[j - 1] + grid[j + 1]) / 2; }}\n    \
         }}\n    print(grid[{mid}]);\n}}\n\
         process Checker {{\n    int it;\n    int s;\n    \
         for (it = 0; it < {iters}; it = it + 1) {{ s = s + grid[it % {cells}]; }}\n    \
         print(s);\n}}\n"
    );
    Workload { name: format!("stencil_{cells}x{iters}"), source: src, inputs: vec![] }
}

/// Multi-process shared-histogram rounds, the second E10 compression
/// gate workload: `n` processes each fold `rounds` rounds of updates
/// into their own `per`-element slice of one shared array, one
/// interval per round under loop splitting, each snapshotting the
/// slowly-evolving histogram.
pub fn histogram_rounds(n: u32, per: u32, rounds: u32) -> Workload {
    let len = n * per;
    let mut src = format!("shared int hist[{len}];\n");
    for i in 0..n {
        let base = i * per;
        src.push_str(&format!(
            "process H{i} {{\n    int r;\n    int k;\n    \
             for (r = 0; r < {rounds}; r = r + 1) {{\n        \
             for (k = 0; k < {per}; k = k + 1) {{ hist[{base} + k] = hist[{base} + k] + (k % 7); }}\n    \
             }}\n    print(hist[{base}]);\n}}\n"
        ));
    }
    Workload { name: format!("hist_{n}x{per}x{rounds}"), source: src, inputs: vec![] }
}

/// The corpus cross-mailbox receive cycle as an E4 workload: every
/// schedule deadlocks, so the race scan runs over the partial dynamic
/// graph of a deadlocked execution (and `ppd lint` flags the cycle
/// statically as PPD008).
pub fn deadlock_pair() -> Workload {
    fixed("deadlock", corpus::DEADLOCK.source, vec![])
}

/// Deep-call workloads for the E6 flowback-latency sweep.
pub fn deep_calls(depth: u32) -> Workload {
    Workload {
        name: format!("deep_{depth}"),
        source: corpus::gen_deep_calls(depth),
        inputs: vec![vec![17]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_suite_runs() {
        for w in overhead_suite() {
            let session = w.prepare(EBlockStrategy::per_subroutine());
            let (outcome, _, _) = session.execute_baseline(w.config());
            assert!(outcome.is_success(), "{}: {:?}", w.name, outcome);
        }
    }

    #[test]
    fn generated_workloads_run() {
        for w in [
            loop_heavy(50),
            racy_workers(3, 4),
            deep_calls(6),
            handoff(2, 4),
            typed_pipeline(2, 3),
            disjoint_sweep(3, 8),
        ] {
            let session = w.prepare(EBlockStrategy::per_subroutine());
            let exec = session.execute(w.config());
            assert!(exec.outcome.is_success(), "{}: {:?}", w.name, exec.outcome);
        }
    }

    #[test]
    fn deadlock_pair_deadlocks_every_schedule() {
        let w = deadlock_pair();
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let exec = session.execute(w.config());
        assert!(exec.outcome.is_deadlock(), "{}: {:?}", w.name, exec.outcome);
    }

    #[test]
    fn disjoint_sweep_prunes_the_array_only_at_the_absint_stage() {
        let w = disjoint_sweep(4, 16);
        let session = w.prepare(EBlockStrategy::per_subroutine());
        let a = session.analyses();
        assert!(!a.typed_candidates.is_empty(), "the array must survive the typed stage");
        assert!(
            a.absint_candidates.len() < a.typed_candidates.len(),
            "interval analysis must prove the slices disjoint ({} vs {})",
            a.absint_candidates.len(),
            a.typed_candidates.len()
        );
    }

    #[test]
    fn typed_pipeline_is_well_typed_and_shrinks_candidates() {
        let w = typed_pipeline(3, 4);
        let rp = ppd_lang::compile(&w.source).unwrap();
        assert!(ppd_lang::types::check(&rp).is_ok(), "typed_pipeline must pass `ppd check`");
        let session = w.prepare(EBlockStrategy::per_subroutine());
        assert!(session.analyses().mhp_typed.is_some(), "its drains recv through `chan q`");
        let mhp = session.analyses().mhp_candidates.len();
        let typed = session.analyses().typed_candidates.len();
        assert!(typed < mhp, "expected strict candidate shrink, got {typed} vs {mhp}");
    }
}
