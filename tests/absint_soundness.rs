//! Interval soundness: the abstract interpreter over-approximates every
//! concrete execution. For every corpus program, every example program,
//! and randomized well-typed programs under randomized schedules, each
//! concretely observed fact must lie inside its inferred interval:
//!
//! - a written value inside `value_after` of the written variable (for
//!   arrays and shared variables, the flow-insensitive invariant);
//! - a written array index inside the statement's `write_region`;
//! - a read array index inside the statement's `access_region`;
//! - an evaluated branch condition inside the recorded condition range.
//!
//! This is the property the race-pruning chain leans on: if any
//! concrete index or value could escape its interval, disjoint-region
//! pruning (`detect_races_absint`) could drop a real race.
//!
//! `absint_matches_reference` pins the fixpoint schedule: the
//! incremental interpreter (unchanged bodies skipped, predecessor
//! out-states reused) must reach exactly the solution of the reference
//! round-robin interpreter in `common::absint_oracle`, observation by
//! observation.

mod common;

use common::absint_oracle::ReferenceAbsInt;
use ppd::analysis::{AbsInt, Cfg, EBlockStrategy};
use ppd::core::PpdSession;
use ppd::lang::{corpus, BodyId, FuncId, StmtId, VarId};
use ppd::runtime::{EventKind, ExecConfig, Machine, ReadSource, SchedulerSpec, VecTracer};
use proptest::prelude::*;
use std::collections::HashMap;

/// Executes `source` concretely and checks every trace event against
/// the abstract interpretation. Returns the number of facts checked.
fn check_soundness(name: &str, source: &str, inputs: Vec<Vec<i64>>, seed: Option<u64>) -> usize {
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let rp = session.rp();
    let absint = &session.analyses().absint;
    let mut cfg = ExecConfig { inputs, ..ExecConfig::default() };
    if let Some(seed) = seed {
        cfg.scheduler = SchedulerSpec::Random { seed };
    }
    let mut tracer = VecTracer::default();
    let _result = Machine::new(rp, session.analyses(), None, cfg).run(&mut tracer);
    let mut checked = 0;
    for e in &tracer.events {
        if let Some((cell, value)) = e.write {
            let iv = absint.value_after(rp, e.stmt, cell.var);
            assert!(
                iv.contains(value),
                "{name}: stmt {:?}: value {value} written to `{}` escapes {iv}",
                e.stmt,
                rp.var_name(cell.var)
            );
            checked += 1;
            if let Some(i) = cell.index {
                let region = absint.write_region(cell.var, e.stmt);
                assert!(
                    region.contains(i as i64),
                    "{name}: stmt {:?}: write index {i} of `{}` escapes {region}",
                    e.stmt,
                    rp.var_name(cell.var)
                );
                checked += 1;
            }
        }
        for r in &e.reads {
            if let ReadSource::Cell(cell) = r {
                if let Some(i) = cell.index {
                    let region = absint.access_region(cell.var, e.stmt);
                    assert!(
                        region.contains(i as i64),
                        "{name}: stmt {:?}: read index {i} of `{}` escapes {region}",
                        e.stmt,
                        rp.var_name(cell.var)
                    );
                    checked += 1;
                }
            }
        }
        if let EventKind::Predicate { taken } = e.kind {
            if let Some(iv) = absint.condition(e.stmt) {
                assert!(
                    iv.contains(taken as i64),
                    "{name}: stmt {:?}: condition evaluated {taken} outside {iv}",
                    e.stmt
                );
                checked += 1;
            }
        }
    }
    checked
}

fn inputs_for(name: &str) -> Vec<Vec<i64>> {
    match name {
        "fig41" => vec![vec![5, 3, 2]],
        "flowback_demo" => vec![vec![42, 10]],
        "overdraw.ppd" => vec![vec![50]],
        "bounds.ppd" => vec![vec![8]],
        _ => Vec::new(),
    }
}

#[test]
fn corpus_is_interval_sound() {
    let mut checked = 0;
    for prog in corpus::terminating() {
        checked += check_soundness(prog.name, prog.source, inputs_for(prog.name), None);
        for seed in 0..3 {
            check_soundness(prog.name, prog.source, inputs_for(prog.name), Some(seed));
        }
    }
    assert!(checked > 0, "the corpus produced no checkable facts");
}

#[test]
fn example_programs_are_interval_sound() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut indexed_facts = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ppd") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        for seed in [None, Some(1), Some(7)] {
            indexed_facts += check_soundness(&name, &source, inputs_for(&name), seed);
        }
    }
    assert!(indexed_facts > 0, "no example program produced checkable facts");
}

#[test]
fn corpus_generators_are_interval_sound() {
    let generated = [
        ("loop_heavy", corpus::gen_loop_heavy(9)),
        ("deep_calls", corpus::gen_deep_calls(5)),
        ("racy_workers", corpus::gen_racy_workers(3, 4)),
        ("prodcons", corpus::gen_prodcons(6)),
        ("bank", corpus::gen_bank(5)),
        ("token_ring", corpus::gen_token_ring(3)),
        ("quicksort", corpus::gen_quicksort(12)),
    ];
    for (name, source) in &generated {
        for seed in [None, Some(2), Some(5)] {
            check_soundness(name, source, Vec::new(), seed);
        }
    }
}

/// A byte-driven well-typed program generator aimed at the interval
/// domain: constants, bounded loops, refined branches, array sweeps
/// with data-dependent offsets, unknown inputs, a bounded counter on a
/// shared variable, and a chain of one to four helper functions (each
/// takes a parameter, loops, stores into the shared array and returns a
/// value that depends on the next helper's) called from every process —
/// so entry environments, return summaries and the global invariants
/// flow between bodies.
fn gen_interval_program(bytes: &[u8], nprocs: u32) -> String {
    let mut pos = 0usize;
    let mut next = |d: u8| -> i64 {
        let b = if bytes.is_empty() { 0 } else { bytes[pos % bytes.len()] };
        pos += 1;
        (b % d) as i64
    };
    let len = next(6) + 3; // 3..=8 elements
    let mut src = format!("shared int a[{len}];\nshared int g;\nshared int c;\n");
    let helpers = next(4) + 1;
    for h in 0..helpers {
        let s0 = next(7);
        let m = next(5) + 2;
        let step = next(3) + 1;
        let cut = next(20);
        let tail = if h + 1 < helpers {
            let d = next(9) + 2;
            format!("s + h{}(s % {d})", h + 1)
        } else {
            format!("s - {}", next(5))
        };
        src.push_str(&format!(
            "int h{h}(int n) {{\n\
             \x20   int s = {s0};\n\
             \x20   int k;\n\
             \x20   for (k = 0; k < n % {m}; k = k + 1) {{\n\
             \x20       s = s + k * {step};\n\
             \x20       a[k % {len}] = s;\n\
             \x20   }}\n\
             \x20   if (s > {cut}) {{ g = g + 1; }}\n\
             \x20   return {tail};\n\
             }}\n"
        ));
    }
    for p in 0..nprocs {
        let lo = next(3);
        let hi = (lo + 1 + next(5)).min(len); // in-bounds sweep
        let c1 = next(9) + 1;
        let c2 = next(30);
        let c3 = next(7) + 1;
        let div = next(4) + 1;
        let (step, wrap) = (next(3) + 1, next(12) + 8);
        src.push_str(&format!(
            "process P{p} {{\n\
             \x20   int x = {c1};\n\
             \x20   int u = input();\n\
             \x20   int i;\n\
             \x20   for (i = {lo}; i < {hi}; i = i + 1) {{\n\
             \x20       x = x + {c1};\n\
             \x20       if (x > {c2}) {{ x = x - {c3}; }} else {{ g = g + 1; }}\n\
             \x20       a[i] = x + u / {div};\n\
             \x20       g = g + a[i];\n\
             \x20       c = (c + {step}) % {wrap};\n\
             \x20   }}\n\
             \x20   if (u > 0) {{ x = u; }}\n\
             \x20   x = x + h0(x % 50);\n\
             \x20   print(x);\n\
             }}\n"
        ));
    }
    src
}

/// Asserts that `AbsInt` and the reference interpreter agree on every
/// public observation of `source`: per statement and variable the
/// reachability, `value_before`/`value_after`, array accesses and
/// condition range; per variable the global invariant; per function the
/// return summary. Returns the number of statements compared.
fn assert_matches_reference(name: &str, source: &str) -> usize {
    let rp = ppd::lang::compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let cfgs: HashMap<BodyId, Cfg> = rp
        .bodies()
        .into_iter()
        .map(|b| (b, Cfg::build(&rp, b).expect("resolved programs lower")))
        .collect();
    let ai = AbsInt::compute(&rp, &cfgs);
    let reference = ReferenceAbsInt::compute(&rp);
    let vars: Vec<VarId> = (0..rp.vars.len() as u32).map(VarId).collect();
    for stmt in (0..rp.program.stmt_count).map(StmtId) {
        assert_eq!(ai.reachable(stmt), reference.reachable(stmt), "{name}: reachable({stmt})");
        assert_eq!(ai.accesses(stmt), reference.accesses(stmt), "{name}: accesses({stmt})");
        assert_eq!(ai.condition(stmt), reference.condition(stmt), "{name}: condition({stmt})");
        for &v in &vars {
            let var = rp.var_name(v);
            assert_eq!(
                ai.value_before(&rp, stmt, v),
                reference.value_before(&rp, stmt, v),
                "{name}: value_before({stmt}, {var})"
            );
            assert_eq!(
                ai.value_after(&rp, stmt, v),
                reference.value_after(&rp, stmt, v),
                "{name}: value_after({stmt}, {var})"
            );
        }
    }
    for &v in &vars {
        assert_eq!(ai.global_range(v), reference.global_range(v), "{name}: global_range({v:?})");
    }
    for f in (0..rp.funcs.len() as u32).map(FuncId) {
        let func = rp.func_name(f);
        assert_eq!(ai.return_range(f), reference.return_range(f), "{name}: return_range({func})");
    }
    rp.program.stmt_count as usize
}

/// 40 deterministic pseudo-random bytes (xorshift) for generator `seed`.
fn byte_string(seed: u64) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0xA076_1D64_78BD_642F);
    (0..40)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[test]
fn absint_matches_reference() {
    let mut compared = 0;
    for prog in corpus::all() {
        compared += assert_matches_reference(prog.name, prog.source);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ppd") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        compared += assert_matches_reference(&path.display().to_string(), &source);
    }
    // Shapes the fixpoint schedule must not shortcut: a bounded counter
    // on a shared variable (how often a store that grows a summary it
    // reads reruns decides whether round widening fires), helper chains
    // (callers analyzed before the callees whose returns they read), and
    // nested loops (a loop-head visit that changes nothing still counts
    // toward widening).
    compared += assert_matches_reference(
        "bounded_counter",
        "shared int g; \
         process P { int u = input(); while (u > 0) { g = (g + 1) % 12; u = u - 1; } print(g); }",
    );
    for seed in 0..32 {
        let bytes = byte_string(seed);
        compared += assert_matches_reference("helper_chain", &gen_interval_program(&bytes, 2));
        compared += assert_matches_reference("nested_loops", &common::Gen::new(&bytes).program());
    }
    let generated = [
        ("deep_calls(64)", corpus::gen_deep_calls(64)),
        ("loop_heavy", corpus::gen_loop_heavy(9)),
        ("racy_workers", corpus::gen_racy_workers(8, 256)),
        ("prodcons", corpus::gen_prodcons(150)),
        ("bank", corpus::gen_bank(5)),
        ("token_ring", corpus::gen_token_ring(100)),
        ("quicksort", corpus::gen_quicksort(12)),
        ("wide_vars", corpus::gen_wide_vars(40)),
    ];
    for (name, source) in &generated {
        compared += assert_matches_reference(name, source);
    }
    assert!(compared > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random interval-shaped programs under random schedules and
    /// random inputs: the abstract interpretation stays sound.
    #[test]
    fn random_programs_are_interval_sound(
        bytes in proptest::collection::vec(any::<u8>(), 4..40),
        nprocs in 1u32..4,
        seed in 0u64..64,
        input in -100i64..100,
    ) {
        let src = gen_interval_program(&bytes, nprocs);
        let inputs = (0..nprocs).map(|_| vec![input]).collect();
        check_soundness("generated", &src, inputs, Some(seed));
    }

    /// Random interval-shaped programs and random nested-loop programs:
    /// the incremental fixpoint reaches the reference interpreter's
    /// solution exactly.
    #[test]
    fn random_programs_match_reference(
        bytes in proptest::collection::vec(any::<u8>(), 4..40),
        nprocs in 1u32..4,
    ) {
        assert_matches_reference("generated", &gen_interval_program(&bytes, nprocs));
        assert_matches_reference("nested", &common::Gen::new(&bytes).program());
    }
}
