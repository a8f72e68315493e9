//! Property tests over randomly generated *parallel* programs.
//!
//! Programs are race-free by construction (every shared access sits in a
//! global-lock critical section), so under ANY schedule: the race
//! detector must stay quiet, outputs must satisfy the program's
//! invariant, and replaying each interval must reproduce its events —
//! the full §5.5 shared-snapshot machinery exercised on random inputs.

use ppd::analysis::EBlockStrategy;
use ppd::core::{faithful_replay, Controller, PpdSession, RunConfig};
use ppd::lang::ProcId;
use ppd::runtime::{EventKind, SchedulerSpec, TraceEvent, VecTracer};
use proptest::prelude::*;

/// Deterministic generator: `nprocs` workers each run a few critical
/// sections updating shared accumulators; a reader process checks them.
fn gen_locked_program(bytes: &[u8], nprocs: u32) -> (String, i64) {
    let mut pos = 0usize;
    let mut next = |d: u8| {
        let b = if bytes.is_empty() { 0 } else { bytes[pos % bytes.len()] };
        pos += 1;
        b % d
    };
    let mut src = String::from("shared int acc;\nshared int ops;\nsem lock_all = 1;\n");
    let mut expected = 0i64;
    let mut total_ops = 0i64;
    for p in 0..nprocs {
        let sections = next(3) as i64 + 1;
        src.push_str(&format!("process W{p} {{\n    int i;\n"));
        for s in 0..sections {
            let delta = next(9) as i64 + 1;
            let reps = next(3) as i64 + 1;
            expected += delta * reps;
            total_ops += reps;
            src.push_str(&format!(
                "    for (i = 0; i < {reps}; i = i + 1) {{\n\
                 \x20       p(lock_all);\n\
                 \x20       acc = acc + {delta};\n\
                 \x20       ops = ops + 1;\n\
                 \x20       v(lock_all);\n\
                 \x20   }}\n"
            ));
            let _ = s;
        }
        src.push_str("}\n");
    }
    src.push_str(&format!(
        "process Check {{\n    int done = 0;\n    while (done == 0) {{\n\
         \x20       p(lock_all);\n        if (ops == {total_ops}) {{ done = 1; }}\n\
         \x20       v(lock_all);\n    }}\n    p(lock_all);\n    print(acc);\n    v(lock_all);\n}}\n"
    ));
    (src, expected)
}

fn normalize(e: &TraceEvent) -> (u32, String, Option<i64>) {
    let kind = match &e.kind {
        EventKind::CallEnter { func, args, .. } => {
            format!("call{}{:?}", func.0, args.iter().map(|(v, _)| *v).collect::<Vec<_>>())
        }
        other => format!("{other:?}"),
    };
    (e.stmt.0, kind, e.value)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Under every probed schedule: correct total, race-free, and the
    /// §5.1 replay contract holds for every process's every interval.
    #[test]
    fn locked_random_programs_are_race_free_and_replayable(
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        nprocs in 2u32..4,
        seed in 0u64..1000,
    ) {
        let (src, expected) = gen_locked_program(&bytes, nprocs);
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let cfg = RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            ..RunConfig::default()
        };
        let mut original = VecTracer::default();
        let exec = session.execute_traced(cfg, &mut original);
        prop_assert!(exec.outcome.is_success(), "{:?}", exec.outcome);
        // Locked updates never lose increments.
        prop_assert_eq!(exec.output.last().map(|&(_, v)| v), Some(expected));
        // Race-free under this schedule (Definition 6.4).
        let controller = Controller::new(&session, &exec);
        prop_assert!(controller.is_race_free());

        // Replay fidelity for every interval of every process.
        for p in 0..session.rp().procs.len() {
            let pid = ProcId(p as u32);
            for interval in exec.logs.intervals(pid) {
                let (start, end) = exec.logs.index().time_span(interval).unwrap();
                let mut replayed = VecTracer::default();
                let res = faithful_replay(&session, &exec, interval, &mut replayed).unwrap();
                prop_assert!(res.outcome.is_success(), "{:?}", res.outcome);
                let want: Vec<_> = original
                    .events
                    .iter()
                    .filter(|e| e.proc == pid && e.seq > start && e.seq < end)
                    .map(normalize)
                    .collect();
                let got: Vec<_> = replayed.events.iter().map(normalize).collect();
                prop_assert_eq!(got, want, "interval {:?}", interval);
            }
        }
    }

    /// Debugging always starts, and the presented fragment's nodes all
    /// belong to the chosen process.
    #[test]
    fn debugging_starts_on_random_parallel_programs(
        bytes in proptest::collection::vec(any::<u8>(), 4..32),
        seed in 0u64..100,
    ) {
        let (src, _) = gen_locked_program(&bytes, 2);
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let exec = session.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            ..RunConfig::default()
        });
        prop_assert!(exec.outcome.is_success());
        let mut controller = Controller::new(&session, &exec);
        let root = controller.start_at(ProcId(0)).unwrap();
        for &n in &controller.backward_slice(root) {
            prop_assert_eq!(controller.graph().node(n).proc, ProcId(0));
        }
    }
}
