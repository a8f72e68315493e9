//! Runtime test-suite: interpreter semantics, scheduling, synchronization,
//! logging, and replay fidelity (the §5.1 reproducibility contract).

#![allow(clippy::field_reassign_with_default)]

use crate::error::Outcome;
use crate::event::{EventKind, NullTracer, ReadSource, TraceEvent, VecTracer};
use crate::machine::{ExecConfig, ExecResult, Machine, NestedCalls};
use crate::sched::SchedulerSpec;
use ppd_analysis::{Analyses, EBlockPlan, EBlockStrategy};
use ppd_lang::{compile, ProcId, ResolvedProgram};
use ppd_log::LogStore;

struct Setup {
    rp: ResolvedProgram,
    analyses: Analyses,
}

fn setup(src: &str) -> Setup {
    let rp = compile(src).expect("test program compiles");
    let analyses = Analyses::run(&rp);
    Setup { rp, analyses }
}

fn run_with(s: &Setup, config: ExecConfig) -> ExecResult {
    Machine::new(&s.rp, &s.analyses, None, config).run(&mut NullTracer)
}

fn run(s: &Setup) -> ExecResult {
    run_with(s, ExecConfig::default())
}

fn outputs(r: &ExecResult) -> Vec<i64> {
    r.output.iter().map(|&(_, v)| v).collect()
}

// ---------------------------------------------------------------------
// Sequential semantics
// ---------------------------------------------------------------------

#[test]
fn arithmetic_and_precedence() {
    let s = setup("process M { print(2 + 3 * 4); print((2 + 3) * 4); print(10 / 3); print(10 % 3); print(0 - 7); }");
    let r = run(&s);
    assert!(r.outcome.is_success());
    assert_eq!(outputs(&r), vec![14, 20, 3, 1, -7]);
}

#[test]
fn comparisons_and_logic() {
    let s = setup(
        "process M { print(1 < 2); print(2 <= 1); print(3 == 3); print(3 != 3); \
         print(1 && 2); print(0 || 5); print(!0); print(!9); }",
    );
    assert_eq!(outputs(&run(&s)), vec![1, 0, 1, 0, 1, 1, 1, 0]);
}

#[test]
fn short_circuit_skips_rhs() {
    // Division by zero on the rhs must not trigger when short-circuited.
    let s = setup("process M { int z = 0; print(0 && (1 / z)); print(1 || (1 / z)); }");
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![0, 1]);
}

#[test]
fn if_else_chains() {
    let s = setup(
        "process M { int x = 5; \
         if (x > 10) { print(1); } else if (x > 3) { print(2); } else { print(3); } }",
    );
    assert_eq!(outputs(&run(&s)), vec![2]);
}

#[test]
fn while_and_for_loops() {
    let s = setup(
        "process M { int s = 0; int i = 1; while (i <= 5) { s = s + i; i = i + 1; } print(s); \
         int t = 0; int j; for (j = 0; j < 4; j = j + 1) { t = t + j; } print(t); }",
    );
    assert_eq!(outputs(&run(&s)), vec![15, 6]);
}

#[test]
fn for_without_cond_exits_via_return() {
    let s =
        setup("process M { int i = 0; for (;;) { i = i + 1; if (i == 3) { print(i); return; } } }");
    assert_eq!(outputs(&run(&s)), vec![3]);
}

#[test]
fn functions_and_recursion() {
    let s = setup(
        "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } \
         int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } \
         process M { print(fact(5)); print(fib(10)); }",
    );
    assert_eq!(outputs(&run(&s)), vec![120, 55]);
}

#[test]
fn void_function_call_statement() {
    let s =
        setup("shared int g; void bump() { g = g + 1; } process M { bump(); bump(); print(g); }");
    assert_eq!(outputs(&run(&s)), vec![2]);
}

#[test]
fn arrays_and_quicksort() {
    let s = setup(ppd_lang::corpus::QUICKSORT.source);
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![1]);
}

#[test]
fn fig41_computes() {
    let s = setup(ppd_lang::corpus::FIG_4_1.source);
    // a=5 b=3 c=2: d = (5+3+2) - 5*3 = -5; sq = sqrt(5) = 2; a = 7.
    let mut cfg = ExecConfig::default();
    cfg.inputs = vec![vec![5, 3, 2]];
    let r = run_with(&s, cfg);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![7]);
}

#[test]
fn matmul_kernel() {
    let s = setup(ppd_lang::corpus::MATMUL.source);
    let r = run(&s);
    assert!(r.outcome.is_success());
    assert_eq!(r.output.len(), 1);
}

#[test]
fn input_stream_consumed_in_order() {
    let s = setup("process M { print(input()); print(input() * 2); }");
    let mut cfg = ExecConfig::default();
    cfg.inputs = vec![vec![7, 9]];
    assert_eq!(outputs(&run_with(&s, cfg)), vec![7, 18]);
}

#[test]
fn block_scoped_redeclaration() {
    let s =
        setup("process M { int i; for (i = 0; i < 2; i = i + 1) { int t = i * 10; print(t); } }");
    assert_eq!(outputs(&run(&s)), vec![0, 10]);
}

// ---------------------------------------------------------------------
// Failures
// ---------------------------------------------------------------------

#[test]
fn divide_by_zero_fails() {
    let s = setup("process M { int z = 0; print(1 / z); }");
    let r = run(&s);
    assert!(
        matches!(&r.outcome, Outcome::Failed { error, .. }
                 if *error == crate::RuntimeError::DivideByZero),
        "{:?}",
        r.outcome
    );
}

#[test]
fn assert_failure_reports_statement() {
    let s = setup("process M { int x = 2; assert(x == 3); }");
    let r = run(&s);
    let Outcome::Failed { error, .. } = &r.outcome else {
        panic!("expected failure: {:?}", r.outcome)
    };
    assert_eq!(*error, crate::RuntimeError::AssertFailed);
}

#[test]
fn index_out_of_bounds_fails() {
    let s = setup("shared int a[3]; process M { print(a[5]); }");
    assert!(matches!(
        run(&s).outcome,
        Outcome::Failed { error: crate::RuntimeError::IndexOutOfBounds { index: 5, len: 3 }, .. }
    ));
}

#[test]
fn negative_index_fails() {
    let s = setup("shared int a[3]; process M { a[0 - 1] = 5; }");
    assert!(matches!(
        run(&s).outcome,
        Outcome::Failed { error: crate::RuntimeError::IndexOutOfBounds { index: -1, .. }, .. }
    ));
}

#[test]
fn input_exhausted_fails() {
    let s = setup("process M { print(input()); }");
    assert!(matches!(
        run(&s).outcome,
        Outcome::Failed { error: crate::RuntimeError::InputExhausted, .. }
    ));
}

#[test]
fn step_limit_catches_infinite_loop() {
    let s = setup("process M { for (;;) { } }");
    let mut cfg = ExecConfig::default();
    cfg.max_steps = 10_000;
    assert_eq!(run_with(&s, cfg).outcome, Outcome::StepLimit);
}

#[test]
fn flowback_demo_fails_with_divide_by_zero() {
    let s = setup(ppd_lang::corpus::FLOWBACK_DEMO.source);
    let mut cfg = ExecConfig::default();
    cfg.inputs = vec![vec![42, 10]];
    let r = run_with(&s, cfg);
    assert!(matches!(r.outcome, Outcome::Failed { error: crate::RuntimeError::DivideByZero, .. }));
}

// ---------------------------------------------------------------------
// Parallel semantics and scheduling
// ---------------------------------------------------------------------

#[test]
fn producer_consumer_totals() {
    let s = setup(ppd_lang::corpus::PRODUCER_CONSUMER.source);
    for spec in [
        SchedulerSpec::RoundRobin,
        SchedulerSpec::Random { seed: 1 },
        SchedulerSpec::Random { seed: 99 },
        SchedulerSpec::RunToBlock,
    ] {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = spec;
        let r = run_with(&s, cfg);
        assert!(r.outcome.is_success(), "{spec:?}: {:?}", r.outcome);
        // 1+2+...+8 = 36 regardless of interleaving (race-free).
        assert_eq!(outputs(&r), vec![36], "{spec:?}");
    }
}

#[test]
fn bank_assertion_holds_under_many_schedules() {
    let s = setup(ppd_lang::corpus::BANK.source);
    for seed in 0..10 {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        assert!(r.outcome.is_success(), "seed {seed}: {:?}", r.outcome);
        assert_eq!(outputs(&r), vec![400], "seed {seed}");
    }
}

#[test]
fn token_ring_deterministic() {
    let s = setup(ppd_lang::corpus::TOKEN_RING.source);
    let r = run(&s);
    assert!(r.outcome.is_success());
    assert_eq!(outputs(&r), vec![3]);
}

#[test]
fn rendezvous_server_sums_clients() {
    let s = setup(ppd_lang::corpus::RENDEZVOUS_SERVER.source);
    for seed in 0..6 {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        assert!(r.outcome.is_success(), "seed {seed}: {:?}", r.outcome);
        assert_eq!(outputs(&r), vec![42], "seed {seed}");
    }
}

#[test]
fn blocking_send_blocks_until_receipt() {
    // The sender's print must happen-after the receive event.
    let s = setup(
        "process S { send(R, 5); print(1); } \
         process R { int i = 0; while (i < 3) { i = i + 1; } int m; recv(m); print(m); }",
    );
    let mut tracer = VecTracer::default();
    let r = Machine::new(&s.rp, &s.analyses, None, ExecConfig::default()).run(&mut tracer);
    assert!(r.outcome.is_success());
    let recv_seq = tracer
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Sync { kind: crate::SyncKind::Recv }))
        .map(|e| e.seq)
        .expect("recv event");
    let sender_print_seq = tracer
        .events
        .iter()
        .find(|e| e.proc == ProcId(0) && matches!(e.kind, EventKind::Print))
        .map(|e| e.seq)
        .expect("sender print");
    assert!(recv_seq < sender_print_seq, "sender resumed before receipt");
    // And the graph has both the message and the unblock edge.
    let g = r.pgraph.expect("graph");
    assert_eq!(g.sync_edges().len(), 2);
}

#[test]
fn asend_does_not_block() {
    let s = setup("process S { asend(R, 5); print(1); } process R { int m; recv(m); print(m); }");
    let r = run(&s);
    assert!(r.outcome.is_success());
    assert_eq!(outputs(&r).len(), 2);
}

#[test]
fn philosophers_deadlock_detected() {
    let s = setup(ppd_lang::corpus::DINING_PHILOSOPHERS.source);
    // Fine-grained round-robin interleaving drives both philosophers to
    // grab their first fork, then deadlock.
    let r = run(&s);
    let Outcome::Deadlock { blocked } = &r.outcome else {
        panic!("expected deadlock, got {:?}", r.outcome)
    };
    assert_eq!(blocked.len(), 2);
}

#[test]
fn philosophers_complete_run_to_block() {
    let s = setup(ppd_lang::corpus::DINING_PHILOSOPHERS.source);
    let mut cfg = ExecConfig::default();
    cfg.scheduler = SchedulerSpec::RunToBlock;
    let r = run_with(&s, cfg);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
}

#[test]
fn same_seed_same_execution() {
    let s = setup(ppd_lang::corpus::PRODUCER_CONSUMER_RACY.source);
    let run_seed = |seed| {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        (outputs(&r), r.steps, r.events)
    };
    assert_eq!(run_seed(3), run_seed(3));
}

#[test]
fn racy_counter_varies_across_seeds() {
    // The unprotected counter can end at different values under
    // different interleavings — the non-reproducibility that motivates
    // the paper (§2).
    let s = setup(ppd_lang::corpus::PRODUCER_CONSUMER_RACY.source);
    let mut seen = std::collections::HashSet::new();
    for seed in 0..40 {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        assert!(r.outcome.is_success(), "seed {seed}: {:?}", r.outcome);
        seen.insert(outputs(&r));
    }
    assert!(seen.len() > 1, "expected schedule-dependent results, got {seen:?}");
}

// ---------------------------------------------------------------------
// Parallel dynamic graph construction
// ---------------------------------------------------------------------

#[test]
fn fig61_graph_and_races_from_execution() {
    let s = setup(ppd_lang::corpus::FIG_6_1.source);
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    let g = r.pgraph.expect("graph requested");
    // The message produced a sync edge pair (send->recv, recv->unblock).
    assert_eq!(g.sync_edges().len(), 2);
    let ord = ppd_graph::VectorClocks::compute(&g);
    let races = ppd_graph::detect_races(&g, &ord, None);
    assert_eq!(races.len(), 2, "{races:?}");
}

#[test]
fn locked_bank_is_race_free() {
    let s = setup(ppd_lang::corpus::BANK.source);
    for seed in 0..5 {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        let g = r.pgraph.expect("graph");
        let ord = ppd_graph::VectorClocks::compute(&g);
        assert!(
            ppd_graph::is_race_free(&g, &ord),
            "seed {seed}: {:?}",
            ppd_graph::detect_races(&g, &ord, None)
        );
    }
}

#[test]
fn racy_bank_races_detected() {
    let s = setup(ppd_lang::corpus::BANK_RACY.source);
    let r = run(&s);
    let g = r.pgraph.expect("graph");
    let ord = ppd_graph::VectorClocks::compute(&g);
    let races = ppd_graph::detect_races(&g, &ord, None);
    assert!(!races.is_empty());
}

#[test]
fn semaphore_edges_order_critical_sections() {
    let s = setup(
        "shared int x; sem m = 1; \
         process A { p(m); x = x + 1; v(m); } \
         process B { p(m); x = x + 1; v(m); }",
    );
    for seed in 0..8 {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        assert!(r.outcome.is_success());
        let g = r.pgraph.expect("graph");
        let ord = ppd_graph::VectorClocks::compute(&g);
        assert!(ppd_graph::is_race_free(&g, &ord), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Logging (object code) and replay (emulation package)
// ---------------------------------------------------------------------

struct Instrumented {
    rp: ResolvedProgram,
    analyses: Analyses,
    plan: EBlockPlan,
}

fn instrumented(src: &str, strategy: EBlockStrategy) -> Instrumented {
    let rp = compile(src).expect("compiles");
    let analyses = Analyses::run(&rp);
    let plan = analyses.eblock_plan(&rp, strategy);
    Instrumented { rp, analyses, plan }
}

fn run_logged(i: &Instrumented, cfg: ExecConfig) -> (ExecResult, LogStore, Vec<TraceEvent>) {
    let mut tracer = VecTracer::default();
    let machine = Machine::new(&i.rp, &i.analyses, Some(&i.plan), cfg);
    let mut r = machine.run(&mut tracer);
    let logs = r.logs.take().expect("logging enabled");
    (r, logs, tracer.events)
}

#[test]
fn logs_have_matched_intervals_on_success() {
    let i = instrumented(ppd_lang::corpus::QUICKSORT.source, EBlockStrategy::per_subroutine());
    let (r, logs, _) = run_logged(&i, ExecConfig::default());
    assert!(r.outcome.is_success());
    for p in 0..i.rp.procs.len() {
        let pid = ProcId(p as u32);
        assert!(logs.open_intervals(pid).is_empty(), "no dangling prelogs");
        for iv in logs.intervals(pid) {
            assert!(iv.postlog_pos.is_some());
        }
    }
    // Recursion gave qsort_range many intervals.
    assert!(logs.intervals(ProcId(0)).len() > 10);
}

#[test]
fn halted_execution_leaves_open_intervals() {
    let i = instrumented(ppd_lang::corpus::FLOWBACK_DEMO.source, EBlockStrategy::per_subroutine());
    let mut cfg = ExecConfig::default();
    cfg.inputs = vec![vec![42, 10]];
    let (r, logs, _) = run_logged(&i, cfg);
    assert!(r.outcome.is_failure());
    let open = logs.open_intervals(ProcId(0));
    assert_eq!(open.len(), 1, "Main's interval is open at the failure");
}

/// Normalized event: (stmt, kind, value, write) with sequence numbers
/// stripped (clocks differ between original run and replay).
type NormalizedEvent = (u32, String, Option<i64>, Option<(u32, Option<usize>, i64)>);

/// Normalized view of an event for replay-fidelity comparison.
fn normalize(e: &TraceEvent) -> NormalizedEvent {
    let kind = match &e.kind {
        EventKind::CallEnter { func, args, .. } => {
            // Per-arg values matter; read provenance seq does not.
            format!("call{}({:?})", func.0, args.iter().map(|(v, _)| *v).collect::<Vec<_>>())
        }
        other => format!("{other:?}"),
    };
    let write = e.write.map(|(c, v)| (c.var.0, c.index, v));
    (e.stmt.0, kind, e.value, write)
}

/// The §5.1 contract: replaying an e-block from its prelog, with the same
/// logged inputs, reproduces exactly the events of the original interval.
fn assert_replay_fidelity(src: &str, inputs: Vec<Vec<i64>>, strategy: EBlockStrategy) {
    let i = instrumented(src, strategy);
    let mut cfg = ExecConfig::default();
    cfg.inputs = inputs;
    let (r, logs, original) = run_logged(&i, cfg);
    let failed = r.outcome.is_failure();

    for p in 0..i.rp.procs.len() {
        let pid = ProcId(p as u32);
        for interval in logs.intervals(pid) {
            // Replay with full expansion and compare against the original
            // events that fall inside the interval.
            let (start, end) = logs.index().time_span(interval).expect("indexed interval");
            let machine = Machine::new_replay(
                &i.rp,
                &i.analyses,
                &i.plan,
                &logs,
                interval,
                NestedCalls::Expand,
                1_000_000,
                None,
            )
            .expect("prelog reads");
            let mut tracer = VecTracer::default();
            let rep = machine.run_replay(&mut tracer);
            if !failed {
                assert!(
                    rep.outcome.is_success(),
                    "interval {:?} replay failed: {:?}",
                    interval,
                    rep.outcome
                );
            }
            let expected: Vec<_> = original
                .iter()
                .filter(|e| e.proc == pid && e.seq > start && e.seq < end)
                .map(normalize)
                .collect();
            let got: Vec<_> = tracer.events.iter().map(normalize).collect();
            assert_eq!(got, expected, "interval {interval:?} of process {pid} diverged");
        }
    }
}

#[test]
fn replay_fidelity_sequential() {
    assert_replay_fidelity(
        "shared int out; \
         int square(int x) { return x * x; } \
         process Main { int a = input(); int b = square(a) + 1; out = b; print(out); }",
        vec![vec![6]],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_recursion() {
    assert_replay_fidelity(
        ppd_lang::corpus::QUICKSORT.source,
        vec![],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_fig41() {
    assert_replay_fidelity(
        ppd_lang::corpus::FIG_4_1.source,
        vec![vec![5, 3, 2]],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_message_passing() {
    assert_replay_fidelity(
        ppd_lang::corpus::TOKEN_RING.source,
        vec![],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_synchronized_shared_state() {
    assert_replay_fidelity(
        ppd_lang::corpus::PRODUCER_CONSUMER.source,
        vec![],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_bank() {
    assert_replay_fidelity(ppd_lang::corpus::BANK.source, vec![], EBlockStrategy::per_subroutine());
}

#[test]
fn replay_fidelity_rendezvous() {
    assert_replay_fidelity(
        ppd_lang::corpus::RENDEZVOUS_SERVER.source,
        vec![],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_with_loop_eblocks() {
    assert_replay_fidelity(
        &ppd_lang::corpus::gen_loop_heavy(12),
        vec![],
        EBlockStrategy::with_loops(3),
    );
}

#[test]
fn replay_fidelity_with_chunked_bodies() {
    assert_replay_fidelity(
        "shared int out; process Main { int a = 1; int b = a + 1; int c = b * 2; \
         int d = c - a; int e = d * d; out = e; print(out); }",
        vec![],
        EBlockStrategy::with_split(2),
    );
}

#[test]
fn replay_fidelity_with_merged_leaves() {
    assert_replay_fidelity(
        "shared int out; \
         int tiny(int x) { return x + 1; } \
         int mid(int x) { int r = tiny(x) * 2; return r; } \
         process Main { out = mid(4); print(out); }",
        vec![],
        EBlockStrategy::with_leaf_merge(2),
    );
}

#[test]
fn replay_reproduces_failure() {
    let i = instrumented(ppd_lang::corpus::FLOWBACK_DEMO.source, EBlockStrategy::per_subroutine());
    let mut cfg = ExecConfig::default();
    cfg.inputs = vec![vec![42, 10]];
    let (r, logs, _) = run_logged(&i, cfg);
    let Outcome::Failed { stmt, error, .. } = r.outcome else { panic!() };
    let interval = logs.open_intervals(ProcId(0))[0];
    let machine = Machine::new_replay(
        &i.rp,
        &i.analyses,
        &i.plan,
        &logs,
        interval,
        NestedCalls::Substitute,
        1_000_000,
        None,
    )
    .expect("prelog reads");
    let mut tracer = VecTracer::default();
    let rep = machine.run_replay(&mut tracer);
    let Outcome::Failed { stmt: rstmt, error: rerror, .. } = rep.outcome else {
        panic!("replay should reproduce the failure, got {:?}", rep.outcome)
    };
    assert_eq!(stmt, rstmt);
    assert_eq!(error, rerror);
}

#[test]
fn substitution_skips_callee_events() {
    let i = instrumented(
        "shared int out; \
         int work(int x) { int a = x * 2; int b = a + 3; return b; } \
         process Main { out = work(5); print(out); }",
        EBlockStrategy::per_subroutine(),
    );
    let (r, logs, _) = run_logged(&i, ExecConfig::default());
    assert!(r.outcome.is_success());
    let main_interval = logs
        .intervals(ProcId(0))
        .into_iter()
        .find(|iv| {
            matches!(
                i.plan.eblock(iv.eblock).region,
                ppd_analysis::Region::Body(ppd_lang::BodyId::Proc(_))
            )
        })
        .expect("Main interval");
    let machine = Machine::new_replay(
        &i.rp,
        &i.analyses,
        &i.plan,
        &logs,
        main_interval,
        NestedCalls::Substitute,
        1_000_000,
        None,
    )
    .expect("prelog reads");
    let mut tracer = VecTracer::default();
    let rep = machine.run_replay(&mut tracer);
    assert!(rep.outcome.is_success());
    // The callee's internal assignments are absent; the call appears as
    // one substituted CallEnter with the correct return value.
    let calls: Vec<_> = tracer
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::CallEnter { substituted, .. } => Some(*substituted),
            _ => None,
        })
        .collect();
    assert_eq!(calls, vec![true]);
    let exit_ret: Vec<_> = tracer
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::CallExit { ret, .. } => Some(*ret),
            _ => None,
        })
        .collect();
    assert_eq!(exit_ret, vec![Some(13)]);
    // And the substituted result still feeds the assignment.
    let assign = tracer
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Assign) && e.value == Some(13))
        .expect("out = work(5)");
    assert!(assign.reads.iter().any(|r| matches!(r, ReadSource::CallResult { .. })));
}

#[test]
fn shared_snapshot_restores_cross_process_values() {
    // P2's write to g lands between P1's two critical sections; replaying
    // P1's interval must observe it via the snapshot at p(s).
    let i = instrumented(
        "shared int g; shared int out; sem s = 0; \
         process P1 { p(s); out = g + 1; print(out); } \
         process P2 { g = 41; v(s); }",
        EBlockStrategy::per_subroutine(),
    );
    let (r, logs, original) = run_logged(&i, ExecConfig::default());
    assert!(r.outcome.is_success());
    assert_eq!(r.output, vec![(ProcId(0), 42)]);
    let interval = logs.intervals(ProcId(0))[0];
    let machine = Machine::new_replay(
        &i.rp,
        &i.analyses,
        &i.plan,
        &logs,
        interval,
        NestedCalls::Substitute,
        100_000,
        None,
    )
    .expect("prelog reads");
    let mut tracer = VecTracer::default();
    let rep = machine.run_replay(&mut tracer);
    assert!(rep.outcome.is_success());
    let assigns: Vec<_> = tracer
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Assign))
        .map(normalize)
        .collect();
    let expected: Vec<_> = original
        .iter()
        .filter(|e| e.proc == ProcId(0) && matches!(e.kind, EventKind::Assign))
        .map(normalize)
        .collect();
    assert_eq!(assigns, expected);
    assert_eq!(rep.output, vec![(ProcId(0), 42)]);
}

#[test]
fn log_volume_far_below_trace_volume() {
    // Leaf merging (§5.4) keeps the hot tiny function out of the log;
    // the whole run then logs only Main's interval.
    let i =
        instrumented(&ppd_lang::corpus::gen_loop_heavy(200), EBlockStrategy::with_leaf_merge(10));
    let mut tracer = crate::event::CountingTracer::default();
    let machine = Machine::new(&i.rp, &i.analyses, Some(&i.plan), ExecConfig::default());
    let r = machine.run(&mut tracer);
    assert!(r.outcome.is_success());
    let log_bytes = r.logs.expect("logs").total_bytes() as u64;
    assert!(
        log_bytes * 10 < tracer.bytes,
        "log {log_bytes}B should be far below trace {}B",
        tracer.bytes
    );
}

#[test]
fn loop_substitution_event_emitted() {
    let i = instrumented(&ppd_lang::corpus::gen_loop_heavy(20), EBlockStrategy::with_loops(3));
    let (r, logs, _) = run_logged(&i, ExecConfig::default());
    assert!(r.outcome.is_success());
    // Replay Main's body with substitution: the loop is skipped.
    let body_interval = logs
        .intervals(ProcId(0))
        .into_iter()
        .find(|iv| matches!(i.plan.eblock(iv.eblock).region, ppd_analysis::Region::Body(_)))
        .expect("body interval");
    let machine = Machine::new_replay(
        &i.rp,
        &i.analyses,
        &i.plan,
        &logs,
        body_interval,
        NestedCalls::Substitute,
        1_000_000,
        None,
    )
    .expect("prelog reads");
    let mut tracer = VecTracer::default();
    let rep = machine.run_replay(&mut tracer);
    assert!(rep.outcome.is_success(), "{:?}", rep.outcome);
    assert!(tracer.events.iter().any(|e| matches!(e.kind, EventKind::LoopSubstituted { .. })));
    // The final print still sees the right value.
    let original_out = outputs(&r);
    assert_eq!(rep.output.iter().map(|&(_, v)| v).collect::<Vec<_>>(), original_out);
}

#[test]
fn replay_loop_interval_directly() {
    let i = instrumented(&ppd_lang::corpus::gen_loop_heavy(20), EBlockStrategy::with_loops(3));
    let (r, logs, original) = run_logged(&i, ExecConfig::default());
    assert!(r.outcome.is_success());
    let loop_interval = logs
        .intervals(ProcId(0))
        .into_iter()
        .find(|iv| matches!(i.plan.eblock(iv.eblock).region, ppd_analysis::Region::Loop { .. }))
        .expect("loop interval");
    let (start, end) = logs.index().time_span(loop_interval).expect("indexed interval");
    let machine = Machine::new_replay(
        &i.rp,
        &i.analyses,
        &i.plan,
        &logs,
        loop_interval,
        NestedCalls::Expand,
        1_000_000,
        None,
    )
    .expect("prelog reads");
    let mut tracer = VecTracer::default();
    let rep = machine.run_replay(&mut tracer);
    assert!(rep.outcome.is_success(), "{:?}", rep.outcome);
    let expected: Vec<_> =
        original.iter().filter(|e| e.seq > start && e.seq < end).map(normalize).collect();
    let got: Vec<_> = tracer.events.iter().map(normalize).collect();
    assert_eq!(got, expected);
}

#[test]
fn replay_fidelity_split_function_bodies() {
    // split(2) chunks `partition` and `Main` alike; chunk intervals of
    // *function* bodies must replay from their prelogs too.
    assert_replay_fidelity(
        ppd_lang::corpus::QUICKSORT.source,
        vec![],
        EBlockStrategy::with_split(2),
    );
}

#[test]
fn replay_fidelity_combined_strategies() {
    let strategy = EBlockStrategy {
        loop_eblocks: Some(3),
        split_large: Some(3),
        merge_leaves: Some(4),
        ..EBlockStrategy::per_subroutine()
    };
    assert_replay_fidelity(&ppd_lang::corpus::gen_loop_heavy(15), vec![], strategy);
    assert_replay_fidelity(ppd_lang::corpus::BANK.source, vec![], strategy);
}

#[test]
fn replay_fidelity_readers_writers() {
    assert_replay_fidelity(
        ppd_lang::corpus::READERS_WRITERS.source,
        vec![],
        EBlockStrategy::per_subroutine(),
    );
}

#[test]
fn replay_fidelity_pipeline_and_parallel_sum() {
    assert_replay_fidelity(
        ppd_lang::corpus::PIPELINE.source,
        vec![],
        EBlockStrategy::per_subroutine(),
    );
    assert_replay_fidelity(
        ppd_lang::corpus::PARALLEL_SUM.source,
        vec![],
        EBlockStrategy::with_leaf_merge(12),
    );
}

#[test]
fn deep_recursion_does_not_blow_the_stack() {
    let s = setup(&ppd_lang::corpus::gen_deep_calls(400));
    let mut cfg = ExecConfig::default();
    cfg.inputs = vec![vec![3]];
    cfg.max_steps = 10_000_000;
    let r = run_with(&s, cfg);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
}

#[test]
fn send_to_self_delivers() {
    let s = setup("process M { asend(M, 7); int x; recv(x); print(x); }");
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![7]);
}

#[test]
fn blocking_send_to_self_deadlocks() {
    let s = setup("process M { send(M, 7); int x; recv(x); print(x); }");
    let r = run(&s);
    assert!(r.outcome.is_deadlock(), "{:?}", r.outcome);
}

#[test]
fn accept_loop_server() {
    let s = setup(
        "shared int total; \
         process Server { int i; for (i = 0; i < 3; i = i + 1) { \
            accept (x) { total = total + x; } } print(total); } \
         process C1 { rendezvous(Server, 1); } \
         process C2 { rendezvous(Server, 2); } \
         process C3 { rendezvous(Server, 3); }",
    );
    for seed in 0..6 {
        let mut cfg = ExecConfig::default();
        cfg.scheduler = SchedulerSpec::Random { seed };
        let r = run_with(&s, cfg);
        assert!(r.outcome.is_success(), "seed {seed}: {:?}", r.outcome);
        assert_eq!(outputs(&r), vec![6], "seed {seed}");
    }
}

#[test]
fn chunked_body_with_top_level_control_flow() {
    // Chunk boundaries fall between top-level statements including an
    // `if` and a `while`; outputs and fidelity must be unaffected.
    assert_replay_fidelity(
        "shared int out; process Main { \
           int a = input(); \
           int b = a * 2; \
           if (b > 4) { b = b - 1; } \
           int c = 0; \
           while (c < b) { c = c + 2; } \
           out = c; \
           print(out); }",
        vec![vec![5]],
        EBlockStrategy::with_split(2),
    );
}

// ---------------------------------------------------------------------
// §7 "record all uses" — element-granular array logging
// ---------------------------------------------------------------------

#[test]
fn replay_fidelity_element_logged_arrays() {
    let strategy = EBlockStrategy::per_subroutine().with_element_logged_arrays();
    assert_replay_fidelity(ppd_lang::corpus::QUICKSORT.source, vec![], strategy);
    assert_replay_fidelity(ppd_lang::corpus::BANK.source, vec![], strategy);
    assert_replay_fidelity(ppd_lang::corpus::PRODUCER_CONSUMER.source, vec![], strategy);
    assert_replay_fidelity(ppd_lang::corpus::FIG_4_1.source, vec![vec![5, 3, 2]], strategy);
}

#[test]
fn element_logging_shrinks_recursive_array_logs() {
    let whole = instrumented(ppd_lang::corpus::QUICKSORT.source, EBlockStrategy::per_subroutine());
    let element = instrumented(
        ppd_lang::corpus::QUICKSORT.source,
        EBlockStrategy::per_subroutine().with_element_logged_arrays(),
    );
    let (rw, lw, _) = run_logged(&whole, ExecConfig::default());
    let (re, le, _) = run_logged(&element, ExecConfig::default());
    assert!(rw.outcome.is_success() && re.outcome.is_success());
    let (bytes_whole, bytes_element) = (lw.total_bytes(), le.total_bytes());
    assert!(
        bytes_element * 2 < bytes_whole,
        "element logging should cut quicksort logs at least 2x: {bytes_whole} vs {bytes_element}"
    );
    // And element entries exist.
    assert!(le.counts_by_kind().iter().any(|&(k, n)| k == "element" && n > 0));
}

#[test]
fn element_logging_prelogs_exclude_arrays() {
    let i = instrumented(
        "shared int a[64]; shared int out; \
         int touch(int k) { return a[k] + 1; } \
         process Main { a[3] = 9; out = touch(3); print(out); }",
        EBlockStrategy::per_subroutine().with_element_logged_arrays(),
    );
    let (r, logs, _) = run_logged(&i, ExecConfig::default());
    assert!(r.outcome.is_success());
    // No prelog/postlog carries the 64-element array: every value entry
    // is scalar-sized.
    for p in 0..i.rp.procs.len() {
        for e in &logs.log(ProcId(p as u32)).entries {
            assert!(e.size_bytes() < 100, "oversized entry: {e:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Typed channels (chan declarations, chan parameters)
// ---------------------------------------------------------------------

#[test]
fn channel_send_recv_is_fifo() {
    let s = setup(
        "chan q; \
         process P { send(q, 7); send(q, 8); } \
         process C { int a; int b; recv(q, a); recv(q, b); print(a); print(b); }",
    );
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![7, 8]);
}

#[test]
fn channel_through_parameter() {
    // The channel id flows through the `chan` parameter binding.
    let s = setup(
        "chan q; \
         void produce(chan c, int n) { int i; for (i = 0; i < n; i = i + 1) { asend(c, i); } } \
         process P { produce(q, 3); } \
         process C { int x; int sum = 0; int i; \
                     for (i = 0; i < 3; i = i + 1) { recv(q, x); sum = sum + x; } print(sum); }",
    );
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![3]);
}

#[test]
fn channel_recv_into_array_element() {
    let s = setup(
        "chan q; shared int a[2]; \
         process P { asend(q, 5); asend(q, 6); } \
         process C { int i; for (i = 0; i < 2; i = i + 1) { recv(q, a[i]); } print(a[0] + a[1]); }",
    );
    let r = run(&s);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    assert_eq!(outputs(&r), vec![11]);
}

#[test]
fn blocking_channel_send_blocks_until_receipt() {
    // Same contract as process-addressed sends: the sender's print must
    // happen-after the receive, via the recv → unblock ack edge.
    let s = setup(
        "chan q; \
         process S { send(q, 5); print(1); } \
         process C { int i = 0; while (i < 3) { i = i + 1; } int m; recv(q, m); print(m); }",
    );
    let mut tracer = VecTracer::default();
    let r = Machine::new(&s.rp, &s.analyses, None, ExecConfig::default()).run(&mut tracer);
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    let recv_seq = tracer
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Sync { kind: crate::SyncKind::Recv }))
        .map(|e| e.seq)
        .expect("recv event");
    let sender_print_seq = tracer
        .events
        .iter()
        .find(|e| e.proc == ProcId(0) && matches!(e.kind, EventKind::Print))
        .map(|e| e.seq)
        .expect("sender print");
    assert!(recv_seq < sender_print_seq, "sender resumed before receipt");
    let g = r.pgraph.expect("graph");
    assert_eq!(g.sync_edges().len(), 2, "message + unblock edges");
}

#[test]
fn recv_on_silent_channel_deadlocks() {
    let s = setup("chan q; process C { int x; recv(q, x); print(x); } process P { print(0); }");
    let r = run(&s);
    let Outcome::Deadlock { blocked } = &r.outcome else {
        panic!("expected deadlock, got {:?}", r.outcome)
    };
    assert_eq!(blocked.len(), 1);
    let crate::error::BlockReason::AwaitChannel(c) = blocked[0].1 else {
        panic!("expected AwaitChannel, got {:?}", blocked[0].1)
    };
    assert_eq!(s.rp.chan_name(c), "q");
}

#[test]
fn replay_fidelity_channels() {
    assert_replay_fidelity(
        "chan q; \
         void pump(chan c) { send(c, 11); send(c, 22); } \
         process P { pump(q); print(0); } \
         process C { int a; recv(q, a); int b; recv(q, b); print(a + b); }",
        vec![],
        EBlockStrategy::per_subroutine(),
    );
}
