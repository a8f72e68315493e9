//! Property-based tests over randomly generated (always-valid) programs:
//! pretty-print round trips, instrumentation transparency, and the §5.1
//! replay-fidelity contract.
//!
//! Programs are derived deterministically from proptest-supplied byte
//! strings, so every generated program is valid by construction and
//! failures shrink to small byte vectors.

use ppd::analysis::EBlockStrategy;
use ppd::core::{faithful_replay, PpdSession, RunConfig};
use ppd::lang::ProcId;
use ppd::runtime::{EventKind, TraceEvent, VecTracer};
use proptest::prelude::*;

mod common;
use common::Gen;

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
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Generated programs parse, and pretty-printing is a fixed point.
    #[test]
    fn pretty_print_round_trips(bytes in proptest::collection::vec(any::<u8>(), 1..128)) {
        let src = Gen::new(&bytes).program();
        let p1 = ppd::lang::parse(&src).expect("generated program parses");
        let printed = ppd::lang::pretty::program_to_string(&p1);
        let p2 = ppd::lang::parse(&printed).expect("printed program parses");
        let printed2 = ppd::lang::pretty::program_to_string(&p2);
        prop_assert_eq!(printed, printed2);
    }

    /// Instrumentation is transparent: the instrumented object code
    /// produces exactly the baseline's output and outcome.
    #[test]
    fn instrumentation_is_transparent(bytes in proptest::collection::vec(any::<u8>(), 1..128)) {
        let src = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&src, EBlockStrategy::with_loops(3)).unwrap();
        let exec = session.execute(RunConfig::default());
        let (outcome, output, _) = session.execute_baseline(RunConfig::default());
        prop_assert_eq!(&exec.outcome, &outcome);
        prop_assert_eq!(&exec.output, &output);
        prop_assert!(outcome.is_success(), "generated programs never fail: {:?}", outcome);
    }

    /// §5.1: replaying any logged interval reproduces exactly the events
    /// the original execution produced inside that interval.
    #[test]
    fn replay_fidelity_on_random_programs(bytes in proptest::collection::vec(any::<u8>(), 1..96)) {
        let src = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&src, EBlockStrategy::with_loops(3)).unwrap();
        let mut original = VecTracer::default();
        let exec = session.execute_traced(RunConfig::default(), &mut original);
        prop_assert!(exec.outcome.is_success());

        for interval in exec.logs.intervals(ProcId(0)) {
            let (start, end) = exec.logs.index().time_span(interval).unwrap();
            let mut replayed = VecTracer::default();
            let res = faithful_replay(&session, &exec, interval, &mut replayed).unwrap();
            prop_assert!(res.outcome.is_success(), "{:?}", res.outcome);
            let expected: Vec<_> = original
                .events
                .iter()
                .filter(|e| e.seq > start && e.seq < end)
                .map(normalize)
                .collect();
            let got: Vec<_> = replayed.events.iter().map(normalize).collect();
            prop_assert_eq!(got, expected, "interval {:?} diverged", interval);
        }
    }

    /// Output depends only on (program, inputs, seed): executions with
    /// the same seed agree, step for step.
    #[test]
    fn seeded_determinism(
        bytes in proptest::collection::vec(any::<u8>(), 1..64),
        seed in any::<u64>(),
    ) {
        let src = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let cfg = RunConfig {
            scheduler: ppd::runtime::SchedulerSpec::Random { seed },
            ..RunConfig::default()
        };
        let a = session.execute(cfg.clone());
        let b = session.execute(cfg);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.steps, b.steps);
    }
}
