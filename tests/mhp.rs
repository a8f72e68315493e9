//! May-happen-in-parallel pruning and snapshot trimming, end to end.
//!
//! Two safety contracts from the static MHP analysis:
//!
//! 1. **Race preservation** — the staged scan over the MHP index
//!    (GMOD/GREF candidates refined by the MHP fixpoint) reports exactly
//!    the race set of `detect_races_naive` on every corpus program, every on-disk
//!    example, and randomized synchronized programs, while scanning no
//!    more edge pairs than the GMOD/GREF-only index — and strictly
//!    fewer on Figure 6.1, whose send/recv pair orders `P1` and `P3`.
//! 2. **Replay invisibility** — dropping statically-ordered shared
//!    variables from synchronization-unit snapshots must not change
//!    debugging: dynamic graphs, values and race reports are
//!    node-for-node identical with the trim on and off, while the trim
//!    strictly reduces logged snapshot volume.

use ppd::analysis::{AnalysisConfig, EBlockStrategy};
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::graph::{detect_races, detect_races_naive, stage_pairs, VectorClocks};
use ppd::lang::{corpus, ProcId};
use ppd::log::LogEntry;
use ppd::runtime::SchedulerSpec;
use proptest::prelude::*;

/// Runs `source` and checks naive/pruned/MHP/typed agreement; returns
/// `(naive_pairs, pruned_pairs, mhp_pairs, typed_pairs)` for shrinkage
/// assertions.
fn check(
    name: &str,
    source: &str,
    inputs: Vec<Vec<i64>>,
    seed: Option<u64>,
) -> (usize, usize, usize, usize) {
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let gmod_index = &session.analyses().race_candidates;
    let mhp_index = &session.analyses().mhp_candidates;
    let typed_index = &session.analyses().typed_candidates;
    let scheduler = seed.map_or(SchedulerSpec::RoundRobin, |seed| SchedulerSpec::Random { seed });
    let execution = session.execute(RunConfig { inputs, scheduler, ..RunConfig::default() });
    let g = &execution.pgraph;
    let ord = VectorClocks::compute(g);

    let naive = detect_races_naive(g, &ord);
    let stages = [gmod_index, mhp_index, typed_index];
    for (stage, index) in ["GMOD/GREF", "MHP", "typed-channel"].into_iter().zip(stages) {
        assert_eq!(
            detect_races(g, &ord, Some(index)),
            naive,
            "{name}: {stage} pruning changed the race set"
        );
    }

    let pairs = stage_pairs(g, &stages);
    let naive_pairs = pairs.naive;
    let [pruned_pairs, mhp_pairs, typed_pairs] = [0, 1, 2].map(|i| pairs.filtered[i]);
    assert!(
        typed_pairs <= mhp_pairs && mhp_pairs <= pruned_pairs && pruned_pairs <= naive_pairs,
        "{name}: pair counts not monotone \
         ({naive_pairs} / {pruned_pairs} / {mhp_pairs} / {typed_pairs})"
    );
    (naive_pairs, pruned_pairs, mhp_pairs, typed_pairs)
}

fn inputs_for(name: &str) -> Vec<Vec<i64>> {
    match name {
        "fig41" => vec![vec![5, 3, 2]],
        "flowback_demo" => vec![vec![42, 10]],
        "overdraw.ppd" => vec![vec![50]],
        _ => Vec::new(),
    }
}

#[test]
fn corpus_mhp_equals_naive() {
    for prog in corpus::terminating() {
        check(prog.name, prog.source, inputs_for(prog.name), None);
    }
}

#[test]
fn example_programs_mhp_equals_naive() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    for file in [
        "bank.ppd",
        "overdraw.ppd",
        "phils.ppd",
        "lintdemo.ppd",
        "pipeline.ppd",
        "stencil.ppd",
        "workqueue.ppd",
    ] {
        let source = std::fs::read_to_string(dir.join(file)).unwrap();
        check(file, &source, inputs_for(file), None);
    }
}

#[test]
fn fig61_mhp_strictly_beats_gmod_gref_pruning() {
    // The acceptance bar: on at least one corpus program the MHP index
    // scans strictly fewer pairs than GMOD/GREF alone. Figure 6.1 is
    // that program — `P1` and `P3` conflict on `SV` but their accesses
    // are ordered by the message, so MHP drops the (SV, P1, P3) entry
    // the shared-set comparison keeps.
    let (naive_pairs, pruned_pairs, mhp_pairs, _) =
        check(corpus::FIG_6_1.name, corpus::FIG_6_1.source, Vec::new(), None);
    assert!(naive_pairs > 0);
    assert!(
        mhp_pairs < pruned_pairs,
        "expected strict shrink over GMOD/GREF, got {mhp_pairs} vs {pruned_pairs}"
    );
}

/// A two-payload-class channel program: `ints` carries `int`, `flags`
/// carries `bool`, and both drains `recv` inside functions. Untyped
/// channel aliasing must assume the `chan` parameters of `draini` and
/// `drainb` may name either channel, so the write to `g` in `P` is not
/// provably ordered before the read in `draini`; the typed sync groups
/// split the sites by payload class and recover the ordering.
const TWO_CLASS_PIPELINE: &str = "chan ints;\n\
                                  chan flags;\n\
                                  shared int g;\n\
                                  void draini(chan q) { int x; recv(q, x); g = x; }\n\
                                  void drainb(chan q) { int b; recv(q, b); print(b); }\n\
                                  process P { g = 1; send(ints, 2); }\n\
                                  process Q { draini(ints); }\n\
                                  process R { send(flags, true); }\n\
                                  process S { drainb(flags); }\n";

#[test]
fn typed_channels_strictly_shrink_candidates_and_preserve_races() {
    // The Issue 6 acceptance bar: on a typed-channel workload the typed
    // candidate index is strictly smaller than the untyped MHP index,
    // while the reported race set stays bit-identical across all
    // detector variants (asserted inside `check`).
    let session =
        PpdSession::prepare(TWO_CLASS_PIPELINE, EBlockStrategy::per_subroutine()).unwrap();
    let mhp_len = session.analyses().mhp_candidates.len();
    let typed_len = session.analyses().typed_candidates.len();
    assert!(
        typed_len < mhp_len,
        "expected typed sync groups to strictly shrink the candidate \
         index, got {typed_len} vs {mhp_len}"
    );
    let (_, _, mhp_pairs, typed_pairs) =
        check("two_class_pipeline", TWO_CLASS_PIPELINE, Vec::new(), None);
    assert!(
        typed_pairs <= mhp_pairs,
        "typed scan examined more pairs than untyped ({typed_pairs} vs {mhp_pairs})"
    );
}

/// Generates a terminating, deadlock-free program: straight-line worker
/// processes doing unsynchronized, mutexed, or printed accesses to three
/// shared variables, with consecutive processes optionally ordered by an
/// init-0 handoff semaphore or an `asend`/`recv` message. Races are
/// allowed — the detectors just have to agree on them.
fn gen_synced_program(bytes: &[u8], nprocs: u32) -> String {
    let mut pos = 0usize;
    let mut next = |d: u8| {
        let b = if bytes.is_empty() { 0 } else { bytes[pos % bytes.len()] };
        pos += 1;
        b % d
    };
    let mut src = String::from("shared int g0;\nshared int g1;\nshared int g2;\nsem mutex = 1;\n");
    // Edge kind per consecutive pair: 0 none, 1 semaphore, 2 message.
    let edges: Vec<u8> = (0..nprocs.saturating_sub(1)).map(|_| next(3)).collect();
    for (p, &kind) in edges.iter().enumerate() {
        if kind == 1 {
            src.push_str(&format!("sem h{p} = 0;\n"));
        }
    }
    for p in 0..nprocs {
        src.push_str(&format!("process P{p} {{\n"));
        if p > 0 {
            match edges[p as usize - 1] {
                1 => src.push_str(&format!("    p(h{});\n", p - 1)),
                2 => src.push_str(&format!("    int m{p};\n    recv(m{p});\n")),
                _ => {}
            }
        }
        for _ in 0..next(4) + 2 {
            let v = next(3);
            match next(3) {
                0 => src.push_str(&format!("    g{v} = g{v} + {};\n", next(5) + 1)),
                1 => src.push_str(&format!("    print(g{v});\n")),
                _ => src.push_str(&format!("    p(mutex);\n    g{v} = g{v} + 1;\n    v(mutex);\n")),
            }
        }
        if (p as usize) < edges.len() {
            match edges[p as usize] {
                1 => src.push_str(&format!("    v(h{p});\n")),
                2 => src.push_str(&format!("    asend(P{}, 7);\n", p + 1)),
                _ => {}
            }
        }
        src.push_str("}\n");
    }
    src
}

/// Generates a well-typed, terminating channel program: `lanes`
/// producer/consumer pairs, each with its own channel randomly carrying
/// `int` or `bool`, drained through shared functions whose `chan`
/// parameters force payload-class aliasing. Lane 0's producer seeds the
/// shared global `g` before sending; consumers read `g` after their
/// receives, so some lanes are provably ordered (same payload class as
/// lane 0 permitting) and the rest stay racy — the detectors just have
/// to agree.
fn gen_typed_chan_program(bytes: &[u8], lanes: u32) -> String {
    let mut pos = 0usize;
    let mut next = |d: u8| {
        let b = if bytes.is_empty() { 0 } else { bytes[pos % bytes.len()] };
        pos += 1;
        b % d
    };
    let mut src = String::from("shared int g;\n");
    let payloads: Vec<bool> = (0..lanes).map(|_| next(2) == 0).collect();
    let counts: Vec<u8> = (0..lanes).map(|_| next(3) + 1).collect();
    for i in 0..lanes as usize {
        src.push_str(&format!("chan ch{i};\n"));
    }
    src.push_str(
        "void drain_int(chan q, int n) {\n    int k;\n    int x;\n    \
         for (k = 0; k < n; k = k + 1) { recv(q, x); print(x + g); }\n}\n\
         void drain_bool(chan q, int n) {\n    int k;\n    int b;\n    \
         for (k = 0; k < n; k = k + 1) { recv(q, b); print(b); print(g); }\n}\n",
    );
    for i in 0..lanes as usize {
        let count = counts[i];
        let blocking = next(2) == 0;
        let op = if blocking { "send" } else { "asend" };
        src.push_str(&format!("process P{i} {{\n    int k;\n"));
        if i == 0 {
            src.push_str(&format!("    g = {};\n", next(9) + 1));
        }
        let value = if payloads[i] { "k + 1" } else { "(k < 2)" };
        src.push_str(&format!(
            "    for (k = 0; k < {count}; k = k + 1) {{ {op}(ch{i}, {value}); }}\n}}\n"
        ));
        let drain = if payloads[i] { "drain_int" } else { "drain_bool" };
        src.push_str(&format!("process C{i} {{ {drain}(ch{i}, {count}); }}\n"));
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// On randomized synchronized programs under random schedules, the
    /// four detectors report the identical race set and the pair
    /// counts shrink monotonically naive ≥ pruned ≥ mhp ≥ typed.
    #[test]
    fn random_programs_mhp_equals_naive(
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        nprocs in 2u32..5,
        seed in 0u64..1000,
    ) {
        let src = gen_synced_program(&bytes, nprocs);
        check("generated", &src, Vec::new(), Some(seed));
    }

    /// Generated well-typed channel programs pass `ppd check`, execute
    /// to completion with no runtime type mismatch (the machine's
    /// debug assertions fire inside this debug-profile test if typed
    /// replay ever disagrees with the checker), and keep all detector
    /// variants in agreement.
    #[test]
    fn random_typed_programs_run_clean(
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        lanes in 1u32..4,
        seed in 0u64..1000,
    ) {
        let src = gen_typed_chan_program(&bytes, lanes);
        let rp = ppd::lang::compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let tc = ppd::lang::types::check(&rp);
        prop_assert!(tc.is_ok(), "generated program is ill-typed: {:?}\n{src}", tc.errors);
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let execution = session.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            ..RunConfig::default()
        });
        prop_assert!(
            execution.outcome.is_success(),
            "well-typed program failed: {:?}\n{src}",
            execution.outcome
        );
        check("generated-typed", &src, Vec::new(), Some(seed));
    }
}

/// The snapshot-trim showcase: every read of `config` in `R` is ordered
/// before the only cross-process write (in `W`, after the `done`
/// handoff), so `R`'s synchronization units need no `config` snapshot.
const HANDOFF: &str = "shared int config;\n\
                       sem go = 0;\n\
                       sem done = 0;\n\
                       process R { p(go); print(config); print(config); v(done); }\n\
                       process W { v(go); p(done); config = 99; print(config); }\n";

/// Prepares and runs `src` with the MHP snapshot trim on or off;
/// returns a total fingerprint of every process's fully expanded
/// dynamic graph plus race reports, and the logged snapshot volume.
fn run_fingerprint(src: &str, trim: bool) -> (String, usize) {
    use std::fmt::Write as _;
    let session = PpdSession::prepare_with(
        src,
        EBlockStrategy::per_subroutine(),
        AnalysisConfig { mhp_snapshot_trim: trim, ..AnalysisConfig::default() },
    )
    .unwrap();
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success(), "{:?}", execution.outcome);

    let snapshot_values: usize = (0..session.rp().procs.len())
        .flat_map(|p| &execution.logs.log(ProcId(p as u32)).entries)
        .map(|e| match e {
            LogEntry::SharedSnapshot { values, .. } => values.len(),
            _ => 0,
        })
        .sum();

    let mut out = String::new();
    for p in 0..session.rp().procs.len() {
        let mut controller = Controller::new(&session, &execution);
        controller.start_at(ProcId(p as u32)).unwrap();
        loop {
            let pending = controller.unexpanded();
            let before = controller.graph().len();
            for node in pending {
                let _ = controller.expand(node);
            }
            if controller.graph().len() == before {
                break;
            }
        }
        for n in controller.graph().nodes() {
            let mut preds: Vec<String> = controller
                .graph()
                .dependence_preds(n.id)
                .iter()
                .map(|(q, k)| format!("{}:{k:?}", q.0))
                .collect();
            preds.sort();
            let _ = writeln!(
                out,
                "#{} {:?} {} proc{} seq{} {:?} <- [{}]",
                n.id.0,
                n.kind,
                n.label,
                n.proc.0,
                n.seq,
                n.value,
                preds.join(", ")
            );
        }
        for race in controller.races() {
            let _ = writeln!(out, "race: {}", race.description);
        }
    }
    (out, snapshot_values)
}

#[test]
fn snapshot_trim_is_invisible_to_debugging() {
    let (with_trim, trimmed_values) = run_fingerprint(HANDOFF, true);
    let (without_trim, full_values) = run_fingerprint(HANDOFF, false);
    assert_eq!(with_trim, without_trim, "trim changed a query answer");
    assert!(
        trimmed_values < full_values,
        "trim saved nothing ({trimmed_values} vs {full_values} snapshot values)"
    );
}

#[test]
fn snapshot_trim_is_invisible_on_corpus() {
    for prog in corpus::terminating() {
        // Multi-process programs only: the trim is a no-op elsewhere.
        let rp = ppd::lang::compile(prog.source).unwrap();
        if rp.procs.len() < 2 {
            continue;
        }
        let inputs = inputs_for(prog.name);
        let a = {
            let session = PpdSession::prepare_with(
                prog.source,
                EBlockStrategy::per_subroutine(),
                AnalysisConfig { mhp_snapshot_trim: true, ..AnalysisConfig::default() },
            )
            .unwrap();
            session.execute(RunConfig { inputs: inputs.clone(), ..RunConfig::default() }).output
        };
        let b = {
            let session = PpdSession::prepare_with(
                prog.source,
                EBlockStrategy::per_subroutine(),
                AnalysisConfig { mhp_snapshot_trim: false, ..AnalysisConfig::default() },
            )
            .unwrap();
            session.execute(RunConfig { inputs, ..RunConfig::default() }).output
        };
        assert_eq!(a, b, "{}: trim changed program output", prog.name);
    }
}
