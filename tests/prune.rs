//! Candidate-pruned race detection is *correctness-preserving*: on every
//! corpus program, every on-disk example program, and randomized
//! schedules, each stage of the static prune chain
//! `absint ⊆ typed ⊆ mhp ⊆ gmod/gref ⊆ naive` returns exactly the race
//! set of `detect_races_naive` while examining no more edge pairs than
//! the stage before it — the one-pass stage counter agrees with a
//! separate counted scan per stage — and the parallel backend at 8 jobs
//! agrees bit-for-bit with the sequential scan at 1 job.

mod common;

use common::race_oracle;
use ppd::analysis::EBlockStrategy;
use ppd::core::{PpdSession, RunConfig};
use ppd::graph::{detect_races, detect_races_naive, detect_races_par, stage_pairs, VectorClocks};
use ppd::lang::corpus;
use ppd::runtime::SchedulerSpec;

/// Per-stage examined-pair counts for one execution, after asserting
/// that every stage found the identical race set.
struct StagePairs {
    naive: usize,
    pruned: usize,
    mhp: usize,
    typed: usize,
    absint: usize,
}

/// Runs `source` under `scheduler`, checks that all five detector
/// stages agree on the race set (sequentially and at 8 jobs), that the
/// one-pass stage counter matches each stage's own counted scan, and
/// that the examined-pair counts never grow along the chain.
fn check_schedule(name: &str, source: &str, scheduler: SchedulerSpec) -> StagePairs {
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let a = session.analyses();
    let execution =
        session.execute(RunConfig { scheduler, inputs: inputs_for(name), ..RunConfig::default() });
    let g = &execution.pgraph;
    let ord = VectorClocks::compute(g);

    let naive = detect_races_naive(g, &ord);
    let stages = [&a.race_candidates, &a.mhp_candidates, &a.typed_candidates, &a.absint_candidates];
    let counted = stage_pairs(g, &stages);
    assert_eq!(counted.naive, race_oracle::naive_pairs(g), "{name}: naive pair count drifted");
    assert_eq!(
        counted.indexed,
        race_oracle::counted_scan(g, &ord, None).1,
        "{name}: indexed pair count drifted"
    );
    for (i, (stage, cands)) in
        ["gmod/gref", "MHP", "typed", "interval"].iter().zip(stages).enumerate()
    {
        let (races, pairs) = race_oracle::counted_scan(g, &ord, Some(cands));
        assert_eq!(naive, races, "{name}: {stage} pruning changed the race set");
        assert_eq!(naive, detect_races(g, &ord, Some(cands)), "{name}: {stage} scan disagrees");
        assert_eq!(counted.filtered[i], pairs, "{name}: {stage} pair count drifted");
    }
    let [pruned, mhp, typed, absint] = [0, 1, 2, 3].map(|i| counted.filtered[i]);
    assert!(pruned <= counted.naive, "{name}: pruned examined more pairs ({pruned} > naive)");
    assert!(mhp <= pruned, "{name}: mhp examined more pairs than gmod/gref");
    assert!(typed <= mhp, "{name}: typed examined more pairs than mhp");
    assert!(absint <= typed, "{name}: absint examined more pairs than typed");

    // The parallel backend over the final (absint) candidate index must
    // agree bit-for-bit at 1 and 8 jobs.
    for jobs in [1, 8] {
        let par = detect_races_par(g, &ord, Some(&a.absint_candidates), jobs);
        assert_eq!(par, naive, "{name}: parallel scan at {jobs} jobs disagrees");
    }

    StagePairs { naive: counted.naive, pruned, mhp, typed, absint }
}

fn check(name: &str, source: &str) -> StagePairs {
    check_schedule(name, source, SchedulerSpec::RoundRobin)
}

fn inputs_for(name: &str) -> Vec<Vec<i64>> {
    match name {
        "fig41" => vec![vec![5, 3, 2]],
        "flowback_demo" => vec![vec![42, 10]],
        "overdraw.ppd" => vec![vec![50]],
        "bounds.ppd" => vec![vec![3]],
        _ => Vec::new(),
    }
}

#[test]
fn corpus_prune_chain_preserves_races() {
    for prog in corpus::terminating() {
        check(prog.name, prog.source);
    }
}

#[test]
fn corpus_prune_chain_preserves_races_on_random_schedules() {
    // The terminating corpus plus two generated many-process programs
    // whose dense synchronization gives the stage counter large inputs.
    let generated = [
        ("gen_prodcons(150)", corpus::gen_prodcons(150)),
        ("gen_token_ring(100)", corpus::gen_token_ring(100)),
    ];
    let programs = corpus::terminating().into_iter().map(|p| (p.name, p.source.to_string()));
    for (name, source) in programs.chain(generated) {
        for seed in 0..4 {
            check_schedule(name, &source, SchedulerSpec::Random { seed });
        }
    }
}

#[test]
fn example_programs_prune_chain_preserves_races_and_shrinks() {
    // Multi-process example programs where at least two processes touch
    // shared state: the candidate index must cut the comparison count.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut shrank_somewhere = false;
    for file in ["bank.ppd", "overdraw.ppd", "phils.ppd", "lintdemo.ppd", "bounds.ppd"] {
        let source = std::fs::read_to_string(dir.join(file)).unwrap();
        let p = check(file, &source);
        assert!(p.naive > 0, "{file}: expected cross-process pairs to compare");
        if p.absint < p.naive {
            shrank_somewhere = true;
        }
        for seed in [3, 11] {
            check_schedule(file, &source, SchedulerSpec::Random { seed });
        }
    }
    assert!(shrank_somewhere, "pruning never reduced the pair count on any example program");
}

#[test]
fn overdraw_pruning_strictly_shrinks() {
    // The flagship demo: the teller/auditor race survives pruning while
    // strictly fewer edge pairs reach a Definition 6.4 comparison.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let source = std::fs::read_to_string(dir.join("overdraw.ppd")).unwrap();
    let p = check("overdraw.ppd", &source);
    assert!(p.pruned < p.naive, "expected strict shrink, got {} vs {}", p.pruned, p.naive);
}

#[test]
fn element_granular_intervals_prune_disjoint_array_halves() {
    // Two processes sweep provably disjoint halves of one array. The
    // GMOD/GREF, MHP and typed stages must keep the `(a, Lo, Hi)`
    // candidate (both processes write `a` concurrently), but the
    // interval stage proves the written regions disjoint and drops it —
    // while the dynamic race set (empty: the cell-granular graph never
    // sees two processes on one element) is preserved by every stage.
    use ppd::lang::{ProcId, VarId};
    let src = "shared int a[8]; \
               process Lo { int i; for (i = 0; i < 4; i = i + 1) { a[i] = i; } } \
               process Hi { int i; for (i = 4; i < 8; i = i + 1) { a[i] = i; } }";
    let p = check("disjoint_halves", src);
    assert_eq!(p.absint, 0, "no pair survives to a Definition 6.4 comparison");
    // The cell-granular dynamic scan already sees the halves as
    // separate cells, so the earlier candidate-filtered stages examine
    // no pairs either — absint's contribution here is static (below).
    assert_eq!(p.mhp, 0, "disjoint cells share no dynamic group at the MHP stage");
    assert_eq!(p.typed, 0, "disjoint cells share no dynamic group at the typed stage");

    let session = PpdSession::prepare(src, EBlockStrategy::per_subroutine()).unwrap();
    let rp = session.rp();
    let a = session.analyses();
    let arr =
        (0..rp.var_count() as u32).map(VarId).find(|&v| rp.var_name(v) == "a").expect("array `a`");
    let (lo, hi) = (ProcId(0), ProcId(1));
    assert!(a.race_candidates.allows(arr, lo, hi), "GMOD/GREF keeps the candidate");
    assert!(a.mhp_candidates.allows(arr, lo, hi), "the sweeps are MHP-concurrent");
    assert!(a.typed_candidates.allows(arr, lo, hi), "no channel typing orders them");
    assert!(
        !a.absint_candidates.allows(arr, lo, hi),
        "interval analysis must prove the halves disjoint"
    );
}
