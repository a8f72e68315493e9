//! End-to-end sweep over the whole program corpus: every terminating
//! program executes correctly under several schedulers, its logs are
//! well-formed, the race detector matches the corpus's expectation, and
//! the debugging phase can start and materialize fragments.

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::lang::corpus;
use ppd::lang::ProcId;
use ppd::runtime::SchedulerSpec;

fn inputs_for(name: &str) -> Vec<Vec<i64>> {
    match name {
        "fig41" => vec![vec![5, 3, 2]],
        "flowback_demo" => vec![vec![42, 10]],
        _ => Vec::new(),
    }
}

fn strategies() -> Vec<(&'static str, EBlockStrategy)> {
    vec![
        ("per-subroutine", EBlockStrategy::per_subroutine()),
        ("with-loops(4)", EBlockStrategy::with_loops(4)),
        ("split(3)", EBlockStrategy::with_split(3)),
        ("leaf-merge(6)", EBlockStrategy::with_leaf_merge(6)),
    ]
}

#[test]
fn corpus_executes_under_all_strategies() {
    for prog in corpus::terminating() {
        for (sname, strategy) in strategies() {
            let session = PpdSession::prepare(prog.source, strategy)
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            let config = RunConfig { inputs: inputs_for(prog.name), ..RunConfig::default() };
            let execution = session.execute(config.clone());
            // flowback_demo is *supposed* to fail; everything else in
            // the terminating corpus completes.
            if prog.name == "flowback_demo" {
                assert!(execution.outcome.is_failure(), "{} [{sname}]", prog.name);
            } else {
                assert!(
                    execution.outcome.is_success(),
                    "{} [{sname}]: {:?}",
                    prog.name,
                    execution.outcome
                );
            }
            // Instrumentation must not perturb results: baseline agrees.
            let (b_outcome, b_output, _) = session.execute_baseline(config);
            assert_eq!(execution.outcome, b_outcome, "{} [{sname}]", prog.name);
            assert_eq!(execution.output, b_output, "{} [{sname}]", prog.name);
        }
    }
}

#[test]
fn corpus_logs_are_well_formed() {
    for prog in corpus::terminating() {
        let session = PpdSession::prepare(prog.source, EBlockStrategy::per_subroutine()).unwrap();
        let config = RunConfig { inputs: inputs_for(prog.name), ..RunConfig::default() };
        let execution = session.execute(config);
        for p in 0..session.rp().procs.len() {
            let pid = ProcId(p as u32);
            let intervals = execution.logs.intervals(pid);
            for iv in &intervals {
                if let Some(post) = iv.postlog_pos {
                    assert!(post > iv.prelog_pos, "{}: inverted interval", prog.name);
                }
            }
            if execution.outcome.is_success() {
                assert!(
                    execution.logs.open_intervals(pid).is_empty(),
                    "{}: dangling prelogs after success",
                    prog.name
                );
            }
        }
    }
}

#[test]
fn corpus_race_expectations_hold() {
    // has_race means: at least one of the probed schedules exhibits a
    // race. Race-free programs must be clean under EVERY probed schedule.
    let schedules = [
        SchedulerSpec::RoundRobin,
        SchedulerSpec::Random { seed: 1 },
        SchedulerSpec::Random { seed: 7 },
        SchedulerSpec::Random { seed: 23 },
        SchedulerSpec::RunToBlock,
    ];
    for prog in corpus::terminating() {
        let session = PpdSession::prepare(prog.source, EBlockStrategy::per_subroutine()).unwrap();
        let mut any_race = false;
        for sched in schedules {
            let config = RunConfig {
                scheduler: sched,
                inputs: inputs_for(prog.name),
                ..RunConfig::default()
            };
            let execution = session.execute(config);
            let controller = Controller::new(&session, &execution);
            let races = controller.races();
            if prog.has_race {
                any_race |= !races.is_empty();
            } else {
                assert!(
                    races.is_empty(),
                    "{} should be race-free under {sched:?}: {:?}",
                    prog.name,
                    races.iter().map(|r| &r.description).collect::<Vec<_>>()
                );
            }
        }
        if prog.has_race {
            assert!(any_race, "{} should race under some probed schedule", prog.name);
        }
    }
}

#[test]
fn debugging_phase_starts_on_every_corpus_program() {
    for prog in corpus::terminating() {
        let session = PpdSession::prepare(prog.source, EBlockStrategy::per_subroutine()).unwrap();
        let config = RunConfig { inputs: inputs_for(prog.name), ..RunConfig::default() };
        let execution = session.execute(config);
        let mut controller = Controller::new(&session, &execution);
        let root = controller.start().unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        assert!(!controller.graph().is_empty());
        // Flowback from the root never panics and stays inside the graph.
        let slice = controller.backward_slice(root);
        assert!(!slice.is_empty());
        // Expanding every unexpanded node (one round) works.
        for node in controller.unexpanded() {
            controller
                .expand(node)
                .unwrap_or_else(|e| panic!("{}: expansion failed: {e}", prog.name));
        }
    }
}

#[test]
fn deadlock_prone_program_both_ways() {
    let prog = corpus::DINING_PHILOSOPHERS;
    let session = PpdSession::prepare(prog.source, EBlockStrategy::per_subroutine()).unwrap();
    let dead = session.execute(RunConfig::default());
    assert!(dead.outcome.is_deadlock());
    let controller = Controller::new(&session, &dead);
    assert_eq!(controller.deadlock_report().unwrap().len(), 2);

    let ok =
        session.execute(RunConfig { scheduler: SchedulerSpec::RunToBlock, ..RunConfig::default() });
    assert!(ok.outcome.is_success());
}

#[test]
fn determinism_across_identical_runs() {
    for prog in corpus::terminating() {
        let session = PpdSession::prepare(prog.source, EBlockStrategy::per_subroutine()).unwrap();
        let config = RunConfig {
            scheduler: SchedulerSpec::Random { seed: 11 },
            inputs: inputs_for(prog.name),
            ..RunConfig::default()
        };
        let a = session.execute(config.clone());
        let b = session.execute(config);
        assert_eq!(a.output, b.output, "{}", prog.name);
        assert_eq!(a.steps, b.steps, "{}", prog.name);
        assert_eq!(a.logs.total_entries(), b.logs.total_entries(), "{}", prog.name);
    }
}
