//! Debugging-phase tests: flowback analysis, incremental expansion,
//! cross-process dependences, race reports, and state restoration.

#![allow(clippy::field_reassign_with_default)]

use crate::{shared_state_at, what_if_replay, Controller, PpdSession, RunConfig};
use ppd_analysis::EBlockStrategy;
use ppd_graph::{DynEdgeKind, DynNodeId, DynNodeKind, DynamicGraph};
use ppd_lang::{BodyId, ProcId, Value, VarId};
use ppd_runtime::{EventKind, SchedulerSpec};

fn prepare(src: &str) -> PpdSession {
    PpdSession::prepare(src, EBlockStrategy::per_subroutine()).expect("compiles")
}

fn var(session: &PpdSession, name: &str) -> VarId {
    let rp = session.rp();
    (0..rp.var_count() as u32)
        .map(VarId)
        .find(|v| rp.var_name(*v) == name)
        .unwrap_or_else(|| panic!("no variable named {name}"))
}

/// Nodes whose label contains `needle`.
fn nodes_labeled(graph: &DynamicGraph, needle: &str) -> Vec<DynNodeId> {
    graph.nodes().iter().filter(|n| n.label.contains(needle)).map(|n| n.id).collect()
}

// ---------------------------------------------------------------------
// Flowback from a failure (the paper's headline use case)
// ---------------------------------------------------------------------

#[test]
fn flowback_reaches_the_planted_bug() {
    let session = prepare(ppd_lang::corpus::FLOWBACK_DEMO.source);
    let mut config = RunConfig::default();
    config.inputs = vec![vec![42, 10]];
    let execution = session.execute(config);
    assert!(execution.outcome.is_failure());

    let mut controller = Controller::new(&session, &execution);
    let root = controller.start().expect("debugging starts");
    let graph = controller.graph();

    // The root is the failure node for `out = work / gain`.
    let root_node = graph.node(root);
    assert!(root_node.label.contains("FAILED"), "{}", root_node.label);
    assert!(root_node.label.contains("division by zero"), "{}", root_node.label);

    // One flowback step: the immediate suspects are the reads of the
    // failing expression — `work` and `gain` definitions.
    let causes = controller.flowback(root);
    let labels: Vec<&str> = causes.iter().map(|&(n, _)| graph.node(n).label.as_str()).collect();
    assert!(
        labels.iter().any(|l| l.contains("gain")),
        "gain's definition should be a direct cause: {labels:?}"
    );

    // The full backward slice reaches the planted bug
    // (`calibration = reading - reading`).
    let slice = controller.backward_slice(root);
    let slice_labels: Vec<String> = slice.iter().map(|&n| graph.node(n).label.clone()).collect();
    assert!(
        slice_labels.iter().any(|l| l.contains("reading - reading")),
        "slice misses the bug: {slice_labels:?}"
    );
}

#[test]
fn flowback_excludes_unrelated_chains() {
    // `unrelated` feeds only the print, not the failure.
    let session = prepare(
        "shared int out; \
         process Main { int unrelated = 7; print(unrelated); \
         int zero = 0; out = 10 / zero; }",
    );
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_failure());
    let mut controller = Controller::new(&session, &execution);
    let root = controller.start().unwrap();
    let slice = controller.backward_slice(root);
    let graph = controller.graph();
    let labels: Vec<String> = slice.iter().map(|&n| graph.node(n).label.clone()).collect();
    assert!(labels.iter().any(|l| l.contains("zero")));
    assert!(
        !labels.iter().any(|l| l.contains("unrelated")),
        "slice should not contain the unrelated chain: {labels:?}"
    );
}

// ---------------------------------------------------------------------
// Figure 4.1: the worked dynamic-graph example
// ---------------------------------------------------------------------

struct Fig41 {
    session: PpdSession,
    execution: crate::Execution,
}

fn fig41() -> Fig41 {
    let session = prepare(ppd_lang::corpus::FIG_4_1.source);
    let mut config = RunConfig::default();
    config.inputs = vec![vec![5, 3, 2]];
    let execution = session.execute(config);
    assert!(execution.outcome.is_success());
    Fig41 { session, execution }
}

#[test]
fn fig41_graph_structure() {
    let f = fig41();
    let mut controller = Controller::new(&f.session, &f.execution);
    controller.start_at(ProcId(0)).unwrap();
    let graph = controller.graph();

    // The SubD call is a sub-graph node with value d = -5.
    let subd = nodes_labeled(graph, "SubD(")[0];
    assert!(matches!(graph.node(subd).kind, DynNodeKind::SubGraph { expanded: false, .. }));
    assert_eq!(graph.node(subd).value, Some(Value::Int(-5)));

    // The third actual parameter is an expression, so a fictional %3
    // node feeds the call (Figure 4.1's %3).
    let params = nodes_labeled(graph, "%3");
    assert_eq!(params.len(), 1, "exactly one fictional %3 node");
    let p3 = params[0];
    assert!(matches!(graph.node(p3).kind, DynNodeKind::Param { index: 3 }));
    // %3 = a + b + c = 10.
    assert_eq!(graph.node(p3).value, Some(Value::Int(10)));
    // It has three incoming data edges (a, b, c) and feeds SubD.
    assert_eq!(graph.dependence_preds(p3).len(), 3);
    assert!(graph
        .succs_by(p3, |k| matches!(k, DynEdgeKind::ValueFlow))
        .iter()
        .any(|&(n, _)| n == subd));

    // `d > 0` predicate instance took the false branch (d = -5).
    let pred = nodes_labeled(graph, "d > 0")[0];
    assert_eq!(graph.node(pred).value, Some(Value::Int(0)));

    // The else-branch sqrt assignment is control dependent on it.
    let sqrt_assign = nodes_labeled(graph, "sq = sqrt(0 - d)")[0];
    assert!(graph
        .preds_by(sqrt_assign, |k| matches!(k, DynEdgeKind::Control))
        .iter()
        .any(|&(n, _)| n == pred));

    // s6 `a = a + sq` reads a's original definition and sq.
    let s6 = nodes_labeled(graph, "a = a + sq")[0];
    assert_eq!(graph.node(s6).value, Some(Value::Int(7)));
    let dep_labels: Vec<String> =
        graph.dependence_preds(s6).iter().map(|&(n, _)| graph.node(n).label.clone()).collect();
    assert!(dep_labels.iter().any(|l| l.contains("a = input()")), "{dep_labels:?}");
    assert!(dep_labels.iter().any(|l| l.contains("sq = sqrt")), "{dep_labels:?}");
}

#[test]
fn fig41_expand_subgraph_node() {
    let f = fig41();
    let mut controller = Controller::new(&f.session, &f.execution);
    controller.start_at(ProcId(0)).unwrap();

    let subd = nodes_labeled(controller.graph(), "SubD(")[0];
    assert!(controller.unexpanded().contains(&subd));
    let before = controller.graph().len();

    let report = controller.expand(subd).expect("expansion succeeds");
    assert!(report.nodes.len() > 1, "expansion adds the callee's details");
    assert!(controller.graph().len() > before);
    assert!(matches!(
        controller.graph().node(subd).kind,
        DynNodeKind::SubGraph { expanded: true, .. }
    ));
    // The callee's return (p3 - p1 * p2) is now in the graph, wired into
    // the sub-graph node by a ValueFlow edge.
    let ret = nodes_labeled(controller.graph(), "return p3 - p1 * p2");
    assert_eq!(ret.len(), 1);
    assert!(controller
        .graph()
        .succs_by(ret[0], |k| matches!(k, DynEdgeKind::ValueFlow))
        .iter()
        .any(|&(n, _)| n == subd));

    // A second expansion of the same node is rejected.
    assert!(controller.expand(subd).is_err());
}

#[test]
fn nested_expansion_through_recursion() {
    let session = prepare(
        "shared int out; \
         int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } \
         process Main { out = fact(4); print(out); }",
    );
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(0)).unwrap();

    // Expand fact(4) -> fact(3) -> fact(2) -> fact(1).
    let mut depth = 0;
    loop {
        let unexpanded = controller.unexpanded();
        let Some(&node) = unexpanded.first() else { break };
        controller.expand(node).expect("expand recursion level");
        depth += 1;
        assert!(depth < 10, "runaway expansion");
    }
    assert_eq!(depth, 4);
    // All fact frames materialized: the recursive return statement has
    // one Singular instance per non-base frame (n = 4, 3, 2); the same
    // label also appears on the nested-call SubGraph nodes, so filter by
    // node kind.
    let graph = controller.graph();
    let rets: Vec<_> = nodes_labeled(graph, "return n * fact(n - 1)")
        .into_iter()
        .filter(|&n| matches!(graph.node(n).kind, DynNodeKind::Singular { .. }))
        .collect();
    assert_eq!(rets.len(), 3);
    let base = nodes_labeled(graph, "return 1");
    assert_eq!(base.len(), 1);
}

#[test]
fn fig52_interval_nesting() {
    // SubJ calls SubK (Figure 5.2): the controller sees SubK's interval
    // as a direct child of SubJ's, and expansion follows the nesting.
    let session = prepare(
        "shared int out; \
         int SubK(int x) { return x + 1; } \
         int SubJ(int x) { int before = x * 2; int k = SubK(before); return k + before; } \
         process Main { out = SubJ(3); print(out); }",
    );
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);

    let main_iv = controller.top_level_intervals(ProcId(0))[0];
    let children = controller.direct_children(main_iv);
    assert_eq!(children.len(), 1, "Main directly contains only SubJ");
    let subj = children[0];
    let grandchildren = controller.direct_children(subj);
    assert_eq!(grandchildren.len(), 1, "SubJ directly contains SubK");
    // Nesting: SubK's interval lies strictly inside SubJ's.
    assert!(subj.prelog_pos < grandchildren[0].prelog_pos);
    assert!(grandchildren[0].postlog_pos.unwrap() < subj.postlog_pos.unwrap());
}

// ---------------------------------------------------------------------
// Cross-process dependences (§5.6, §6.3)
// ---------------------------------------------------------------------

#[test]
fn cross_process_data_dependence_fig61() {
    let session = prepare(ppd_lang::corpus::FIG_6_1.source);
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success());
    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(2)).unwrap(); // P3

    // `int x = SV` read SV from outside the fragment: its data edge
    // comes from the fragment entry.
    let read = nodes_labeled(controller.graph(), "x = SV")[0];
    let entry_sourced = controller
        .graph()
        .preds_by(read, |k| matches!(k, DynEdgeKind::Data { .. }))
        .iter()
        .any(|&(n, _)| matches!(controller.graph().node(n).kind, DynNodeKind::Entry));
    assert!(entry_sourced, "SV's value comes from outside P3");

    // Extend across processes: materializes the writer's fragment and
    // wires the dependence.
    let sv = var(&session, "SV");
    let writer = controller.extend_across_processes(read, sv).expect("writer found");
    let wnode = controller.graph().node(writer);
    assert!(wnode.label.contains("SV ="), "{}", wnode.label);
    assert_ne!(wnode.proc, ProcId(2), "writer is another process");
    assert!(controller
        .graph()
        .preds_by(read, |k| matches!(k, DynEdgeKind::Data { var: v } if v == sv))
        .iter()
        .any(|&(n, _)| n == writer));
}

#[test]
fn extend_fails_when_no_writer_exists() {
    let session = prepare("shared int g; process A { print(g); } process B { print(g); }");
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    let root = controller.start_at(ProcId(0)).unwrap();
    let g = var(&session, "g");
    assert!(controller.extend_across_processes(root, g).is_err());
}

// ---------------------------------------------------------------------
// Races and deadlocks through the controller
// ---------------------------------------------------------------------

#[test]
fn race_reports_name_variable_and_processes() {
    let session = prepare(ppd_lang::corpus::FIG_6_1.source);
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);
    let races = controller.races();
    assert_eq!(races.len(), 2);
    for r in &races {
        assert!(r.description.contains("SV"), "{}", r.description);
    }
    assert!(!controller.is_race_free());
}

#[test]
fn race_free_program_reports_clean() {
    let session = prepare(ppd_lang::corpus::BANK.source);
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);
    assert!(controller.is_race_free());
    assert!(controller.deadlock_report().is_none());
}

#[test]
fn deadlock_report_lists_blocked_processes() {
    let session = prepare(ppd_lang::corpus::DINING_PHILOSOPHERS.source);
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);
    let report = controller.deadlock_report().expect("deadlocked");
    assert_eq!(report.len(), 2);
    let names: Vec<&str> = report.iter().map(|e| e.proc_name.as_str()).collect();
    assert!(names.contains(&"PhilA"));
    assert!(names.contains(&"PhilB"));
    for e in &report {
        assert!(e.waiting_for.contains("semaphore"), "{}", e.waiting_for);
    }
}

// ---------------------------------------------------------------------
// State restoration and what-if replay (§5.7)
// ---------------------------------------------------------------------

#[test]
fn shared_state_at_end_matches_final_values() {
    let session = prepare(ppd_lang::corpus::BANK.source);
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success());
    let state = shared_state_at(&session, &execution, u64::MAX).unwrap();
    let audit = var(&session, "audit_total");
    assert_eq!(state[audit.index()], Value::Int(400));
    let accounts = var(&session, "accounts");
    let Value::Array(a) = &state[accounts.index()] else { panic!() };
    assert_eq!(a.iter().sum::<i64>(), 400);
}

#[test]
fn shared_state_at_zero_is_initial() {
    let session = prepare("shared int g = 9; process M { g = 1; }");
    let execution = session.execute(RunConfig::default());
    let state = shared_state_at(&session, &execution, 0).unwrap();
    assert_eq!(state[0], Value::Int(9));
}

#[test]
fn what_if_replay_changes_outcome() {
    // scale() was called with base = 0 (the bug); override base = 5 and
    // the function returns 500 instead of 0.
    let session = prepare(ppd_lang::corpus::FLOWBACK_DEMO.source);
    let mut config = RunConfig::default();
    config.inputs = vec![vec![42, 10]];
    let execution = session.execute(config);

    let rp = session.rp();
    let scale = rp.func_by_name("scale").unwrap();
    let scale_eb = session.plan().body_eblock(BodyId::Func(scale)).unwrap();
    let interval = execution
        .logs
        .intervals(ProcId(0))
        .into_iter()
        .find(|iv| iv.eblock == scale_eb)
        .expect("scale ran");

    // Faithful replay returns 0.
    let faithful = what_if_replay(&session, &execution, interval, &[]).unwrap();
    let ret_of = |events: &[ppd_runtime::TraceEvent]| {
        events
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                EventKind::Return => e.value,
                _ => None,
            })
            .expect("return event")
    };
    assert_eq!(ret_of(&faithful.events), 0);

    // What-if: base = 5 ⇒ scaled = 500.
    let base = rp.var_by_name(BodyId::Func(scale), "base").unwrap();
    let modified =
        what_if_replay(&session, &execution, interval, &[(base, Value::Int(5))]).unwrap();
    assert_eq!(ret_of(&modified.events), 500);
    assert!(modified.result.outcome.is_success());
}

#[test]
fn what_if_replay_can_avoid_the_failure() {
    // Replay the halted Main interval with `gain` pre-set… gain is
    // recomputed inside the interval, so instead demonstrate on a
    // program whose prelog carries the poisoned value.
    let session = prepare(
        "shared int out; \
         int divide(int num, int den) { return num / den; } \
         process Main { int d = input(); out = divide(100, d); print(out); }",
    );
    let mut config = RunConfig::default();
    config.inputs = vec![vec![0]]; // d = 0 -> failure inside divide
    let execution = session.execute(config);
    assert!(execution.outcome.is_failure());

    let rp = session.rp();
    let divide = rp.func_by_name("divide").unwrap();
    let interval = execution
        .logs
        .open_intervals(ProcId(0))
        .into_iter()
        .find(|iv| session.plan().eblock(iv.eblock).region.body() == BodyId::Func(divide))
        .expect("divide's interval is open at the failure");

    // Faithful replay reproduces the failure.
    let faithful = what_if_replay(&session, &execution, interval, &[]).unwrap();
    assert!(faithful.result.outcome.is_failure());

    // Overriding the denominator avoids it.
    let den = rp.var_by_name(BodyId::Func(divide), "den").unwrap();
    let fixed = what_if_replay(&session, &execution, interval, &[(den, Value::Int(4))]).unwrap();
    assert!(fixed.result.outcome.is_success(), "{:?}", fixed.result.outcome);
    let ret = fixed
        .events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            EventKind::Return => e.value,
            _ => None,
        })
        .unwrap();
    assert_eq!(ret, 25);
}

// ---------------------------------------------------------------------
// Incremental-tracing bookkeeping
// ---------------------------------------------------------------------

#[test]
fn materialization_is_incremental() {
    // Only the requested intervals are replayed; the graph grows as the
    // user asks for more (§5.3's "incremental tracing").
    let session = prepare(ppd_lang::corpus::QUICKSORT.source);
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(0)).unwrap();
    let after_start = controller.graph().len();

    // Many intervals exist, but only Main's was materialized.
    let total_intervals = execution.logs.intervals(ProcId(0)).len();
    assert!(total_intervals > 10);

    // Expanding one sub-graph node adds only that interval's events.
    let node = controller.unexpanded()[0];
    controller.expand(node).unwrap();
    assert!(controller.graph().len() > after_start);
}

#[test]
fn controller_on_completed_chunked_program() {
    let session = PpdSession::prepare(
        "shared int out; process Main { int a = 1; int b = a + 1; int c = b * 2; \
         out = c; print(out); }",
        EBlockStrategy::with_split(2),
    )
    .unwrap();
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success());
    let mut controller = Controller::new(&session, &execution);
    // Starts at the last chunk.
    let root = controller.start_at(ProcId(0)).unwrap();
    assert!(controller.graph().node(root).label.contains("print"));
}

#[test]
fn start_prefers_failing_process() {
    let session = prepare(
        "shared int z; \
         process Healthy { int i; for (i = 0; i < 5; i = i + 1) { } } \
         process Crashy { print(1 / z); }",
    );
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    let root = controller.start().unwrap();
    assert_eq!(controller.graph().node(root).proc, ProcId(1));
}

#[test]
fn races_under_random_schedules_prodcons_racy() {
    let session = prepare(ppd_lang::corpus::PRODUCER_CONSUMER_RACY.source);
    let mut found = false;
    for seed in 0..10 {
        let execution = session.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            ..RunConfig::default()
        });
        let controller = Controller::new(&session, &execution);
        if !controller.is_race_free() {
            found = true;
            break;
        }
    }
    assert!(found, "the unprotected counter should race under some schedule");
}

// ---------------------------------------------------------------------
// Breakpoints (user-intervention halt, §3.2.2 / [24])
// ---------------------------------------------------------------------

#[test]
fn breakpoint_halts_all_processes_and_debugging_starts() {
    let session = prepare(
        "shared int g; \
         process A { g = 1; g = 2; g = 3; print(g); } \
         process B { int i; for (i = 0; i < 50; i = i + 1) { } print(i); }",
    );
    // Break at `g = 3` (line lookup via the program database).
    let db = &session.analyses().database;
    let g3 = session
        .rp()
        .bodies()
        .iter()
        .flat_map(|_| db.stmts_at_line(1)) // single-line source
        .find(|&s| {
            // find the statement assigning 3
            let rp = session.rp();
            let mut found = false;
            for body in rp.bodies() {
                ppd_lang::ast::walk_stmts(rp.body_block(body), &mut |stmt| {
                    if stmt.id == s {
                        if let ppd_lang::StmtKind::Assign { value, .. } = &stmt.kind {
                            if matches!(value.kind, ppd_lang::ExprKind::IntLit(3)) {
                                found = true;
                            }
                        }
                    }
                });
            }
            found
        })
        .expect("g = 3 statement");
    let execution = session.execute(RunConfig { breakpoints: vec![g3], ..RunConfig::default() });
    let ppd_runtime::Outcome::Breakpoint { proc, stmt } = execution.outcome else {
        panic!("expected breakpoint halt: {:?}", execution.outcome);
    };
    assert_eq!(proc, ProcId(0));
    assert_eq!(stmt, g3);
    // The logs alone only know the last *logged* value (prelog at start);
    // the up-to-date state comes from replaying the open interval (§5.7).
    let state = shared_state_at(&session, &execution, u64::MAX).unwrap();
    assert_eq!(state[var(&session, "g").index()], Value::Int(0));
    // The debugging phase starts from the halted process's open interval
    // and replays exactly up to the breakpoint — g = 3 never appears.
    let mut controller = Controller::new(&session, &execution);
    let root = controller.start().expect("debugging starts at breakpoint");
    assert_eq!(controller.graph().node(root).proc, ProcId(0));
    let labels: Vec<String> = controller.graph().nodes().iter().map(|n| n.label.clone()).collect();
    assert!(labels.iter().any(|l| l.contains("g = 2")), "{labels:?}");
    assert!(!labels.iter().any(|l| l.contains("g = 3")), "{labels:?}");
    // The fragment root is the last executed statement, `g = 2`.
    assert!(controller.graph().node(root).label.contains("g = 2"));
}

#[test]
fn breakpoint_in_function_body() {
    let session = prepare(
        "shared int out; \
         int f(int x) { int y = x * 2; return y; } \
         process Main { out = f(21); print(out); }",
    );
    // Break on the return inside f.
    let rp = session.rp();
    let mut ret_stmt = None;
    for body in rp.bodies() {
        ppd_lang::ast::walk_stmts(rp.body_block(body), &mut |stmt| {
            if matches!(stmt.kind, ppd_lang::StmtKind::Return(Some(_))) {
                ret_stmt = Some(stmt.id);
            }
        });
    }
    let execution =
        session.execute(RunConfig { breakpoints: vec![ret_stmt.unwrap()], ..RunConfig::default() });
    assert!(execution.outcome.is_breakpoint());
    // Both Main's and f's intervals are open at the halt.
    assert_eq!(execution.logs.open_intervals(ProcId(0)).len(), 2);
}

#[test]
fn replay_stops_at_original_breakpoint() {
    // A breakpoint hit during the original run must not re-trigger in
    // replay (the debugging phase replays freely).
    let session = prepare("shared int g; process M { g = 1; g = 2; print(g); }");
    let rp = session.rp();
    let mut second = None;
    ppd_lang::ast::walk_stmts(rp.body_block(rp.bodies()[0]), &mut |stmt| {
        if let ppd_lang::StmtKind::Assign { value, .. } = &stmt.kind {
            if matches!(value.kind, ppd_lang::ExprKind::IntLit(2)) {
                second = Some(stmt.id);
            }
        }
    });
    let execution =
        session.execute(RunConfig { breakpoints: vec![second.unwrap()], ..RunConfig::default() });
    assert!(execution.outcome.is_breakpoint());
    let interval = execution.logs.open_intervals(ProcId(0))[0];
    // Faithful replay halts at the same breakpoint: only `g = 1` was
    // executed before the halt, and only it is replayed.
    let mut tracer = ppd_runtime::VecTracer::default();
    let res = crate::faithful_replay(&session, &execution, interval, &mut tracer).unwrap();
    assert!(res.outcome.is_breakpoint(), "{:?}", res.outcome);
    let assigns = tracer.events.iter().filter(|e| matches!(e.kind, EventKind::Assign)).count();
    assert_eq!(assigns, 1);
}

#[test]
fn deadlock_replay_stops_at_block_point() {
    let session = prepare(ppd_lang::corpus::DINING_PHILOSOPHERS.source);
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_deadlock());
    let mut controller = Controller::new(&session, &execution);
    // PhilA got fork0 and blocked on fork1: the fragment must show the
    // first p() but not the meal that never happened.
    let root = controller.start_at(ProcId(0)).expect("debugging starts");
    let labels: Vec<String> = controller.graph().nodes().iter().map(|n| n.label.clone()).collect();
    assert!(labels.iter().any(|l| l.contains("p(fork0)")), "{labels:?}");
    assert!(!labels.iter().any(|l| l.contains("meals")), "the meal never happened: {labels:?}");
    let _ = root;
}

#[test]
fn forward_flow_from_the_bug() {
    // Forward slice from the planted bug covers everything it poisoned.
    let session = prepare(ppd_lang::corpus::FLOWBACK_DEMO.source);
    let mut config = RunConfig::default();
    config.inputs = vec![vec![42, 10]];
    let execution = session.execute(config);
    let mut controller = Controller::new(&session, &execution);
    controller.start().unwrap();
    let graph = controller.graph();
    let bug = nodes_labeled(graph, "reading - reading")[0];
    let forward = controller.forward_slice(bug);
    let labels: Vec<String> =
        forward.iter().map(|&n| controller.graph().node(n).label.clone()).collect();
    assert!(labels.iter().any(|l| l.contains("gain")), "{labels:?}");
    assert!(labels.iter().any(|l| l.contains("FAILED")), "the bug reaches the failure: {labels:?}");
    // Forward and backward slices are adjoint: bug in back(fail) iff
    // fail in forward(bug).
    let root = nodes_labeled(graph, "FAILED")[0];
    assert!(controller.backward_slice(root).contains(&bug));
    assert!(forward.contains(&root));
}

// ---------------------------------------------------------------------
// Failure injection: corrupted logs are detected, not misinterpreted
// ---------------------------------------------------------------------

#[test]
fn corrupted_log_yields_log_mismatch() {
    use ppd_log::LogEntry;
    let session =
        prepare("shared int out; process Main { int x = input(); out = x * 2; print(out); }");
    let mut config = RunConfig::default();
    config.inputs = vec![vec![7]];
    let mut execution = session.execute(config);
    assert!(execution.outcome.is_success());

    // Drop the Input record from the log: replay must fail loudly.
    let mut clean = ppd_log::LogStore::new(execution.logs.process_count());
    for p in 0..execution.logs.process_count() {
        let pid = ProcId(p as u32);
        for e in &execution.logs.log(pid).entries {
            if !matches!(e, LogEntry::Input { .. }) {
                clean.push(pid, e.clone());
            }
        }
    }
    execution.logs = clean;
    let interval = execution.logs.intervals(ProcId(0))[0];
    let mut tracer = ppd_runtime::VecTracer::default();
    let res = crate::faithful_replay(&session, &execution, interval, &mut tracer).unwrap();
    assert!(
        matches!(
            &res.outcome,
            ppd_runtime::Outcome::Failed { error: ppd_runtime::RuntimeError::LogMismatch(_), .. }
        ),
        "{:?}",
        res.outcome
    );
}

#[test]
fn truncated_log_detected_on_substitution() {
    let session = prepare(
        "shared int out; int f(int x) { return x + 1; } \
         process Main { out = f(1); print(out); }",
    );
    let mut execution = session.execute(RunConfig::default());
    // Keep only Main's prelog: the nested interval for f is gone.
    let pid = ProcId(0);
    let first = execution.logs.log(pid).entries[0].clone();
    let mut clean = ppd_log::LogStore::new(execution.logs.process_count());
    clean.push(pid, first);
    execution.logs = clean;
    let interval = execution.logs.intervals(pid)[0];
    let mut controller = Controller::new(&session, &execution);
    assert!(controller.materialize(interval, None).is_err());
}

#[test]
fn present_bounds_the_visible_graph() {
    let session = prepare(ppd_lang::corpus::FLOWBACK_DEMO.source);
    let mut config = RunConfig::default();
    config.inputs = vec![vec![42, 10]];
    let execution = session.execute(config);
    let mut controller = Controller::new(&session, &execution);
    let root = controller.start().unwrap();
    let d0 = controller.present(root, 0);
    assert_eq!(d0, vec![root]);
    let d1 = controller.present(root, 1);
    assert_eq!(d1.len(), 1 + controller.flowback(root).len());
    // Depth grows monotonically up to the full slice.
    let full = controller.backward_slice(root);
    let deep = controller.present(root, 64);
    assert_eq!(deep.len(), full.len());
    let d2 = controller.present(root, 2);
    assert!(d1.len() <= d2.len() && d2.len() <= deep.len());
}

#[test]
fn present_order_is_identical_across_controllers() {
    // Both parameter nodes of a call carry the call's seq, so presented
    // fragments have ties that only the node-id tie-break orders the
    // same way in every controller.
    let session = prepare(
        "shared int out; \
         int add(int a, int b) { return a + b; } \
         process Main { int x = 1; int y = 2; out = add(x, y); print(out); }",
    );
    let execution = session.execute(RunConfig::default());
    let present = || {
        let mut controller = Controller::new(&session, &execution);
        controller.start().unwrap();
        for node in controller.unexpanded() {
            controller.expand(node).unwrap();
        }
        let graph = controller.graph();
        graph
            .nodes()
            .iter()
            .map(|n| {
                let list = controller.present(n.id, 64);
                list.into_iter().map(|m| (graph.node(m).seq, m)).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let first = present();
    assert_eq!(first, present(), "two controllers presented different orders");
    assert!(
        first.iter().all(|list| list.windows(2).all(|w| w[0] < w[1])),
        "not in (seq, id) order"
    );
    let ties = first.iter().any(|list| list.windows(2).any(|w| w[0].0 == w[1].0));
    assert!(ties, "no presented fragment has equal-seq nodes; the test lost its point");
}

#[test]
fn dynamic_graph_is_cell_precise_for_arrays() {
    // a[0] and a[1] are distinct cells: the read of a[0] depends on the
    // first store, not the second.
    let session = prepare("shared int a[2]; process M { a[0] = 10; a[1] = 20; print(a[0]); }");
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(0)).unwrap();
    let graph = controller.graph();
    let read = nodes_labeled(graph, "print(a[0])")[0];
    let sources: Vec<String> =
        graph.dependence_preds(read).iter().map(|&(n, _)| graph.node(n).label.clone()).collect();
    assert!(sources.iter().any(|l| l.contains("a[0] = 10")), "{sources:?}");
    assert!(!sources.iter().any(|l| l.contains("a[1] = 20")), "{sources:?}");
}

#[test]
fn dynamic_index_reads_track_the_computed_cell() {
    let session = prepare("shared int a[3]; process M { a[2] = 7; int i = 1 + 1; print(a[i]); }");
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(0)).unwrap();
    let graph = controller.graph();
    let read = nodes_labeled(graph, "print(a[i])")[0];
    let sources: Vec<String> =
        graph.dependence_preds(read).iter().map(|&(n, _)| graph.node(n).label.clone()).collect();
    // Depends on both the store to a[2] (the cell read) and on i.
    assert!(sources.iter().any(|l| l.contains("a[2] = 7")), "{sources:?}");
    assert!(sources.iter().any(|l| l.contains("int i")), "{sources:?}");
}

#[test]
fn deadlock_cycle_found_for_philosophers() {
    let session = prepare(ppd_lang::corpus::DINING_PHILOSOPHERS.source);
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);
    let cycle = controller.deadlock_cycle().expect("cycle exists");
    assert_eq!(cycle.len(), 2, "{cycle:?}");
    // Both philosophers participate.
    assert!(cycle.contains(&ProcId(0)));
    assert!(cycle.contains(&ProcId(1)));
}

#[test]
fn no_cycle_when_waiting_on_departed_process() {
    // B waits on a semaphore only A could have released — but A already
    // finished without releasing: deadlock, yet no wait-for cycle.
    let session = prepare(
        "sem s = 0; \
         process A { print(1); } \
         process B { p(s); print(2); }",
    );
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_deadlock());
    let controller = Controller::new(&session, &execution);
    assert!(controller.deadlock_cycle().is_none());
    // The report still names the blocked process.
    assert_eq!(controller.deadlock_report().unwrap().len(), 1);
}

#[test]
fn no_cycle_on_completed_run() {
    let session = prepare(ppd_lang::corpus::BANK.source);
    let execution = session.execute(RunConfig::default());
    let controller = Controller::new(&session, &execution);
    assert!(controller.deadlock_cycle().is_none());
}

#[test]
fn auto_extend_resolves_entry_dependences() {
    let session = prepare(ppd_lang::corpus::FIG_6_1.source);
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(2)).unwrap();
    let read = nodes_labeled(controller.graph(), "x = SV")[0];
    let resolved = controller.auto_extend(read);
    assert_eq!(resolved.len(), 1);
    let (var, writer) = resolved[0];
    assert_eq!(session.rp().var_name(var), "SV");
    assert!(controller.graph().node(writer).label.contains("SV ="));
}

#[test]
fn explain_race_points_at_both_accesses() {
    let session = prepare(ppd_lang::corpus::FIG_6_1.source);
    let execution = session.execute(RunConfig::default());
    let mut controller = Controller::new(&session, &execution);
    let races = controller.races();
    let ww =
        races.iter().find(|r| r.race.kind == ppd_graph::ConflictKind::WriteWrite).unwrap().race;
    let (a, b) = controller.explain_race(&ww).expect("explains");
    let (la, lb) =
        (controller.graph().node(a).label.clone(), controller.graph().node(b).label.clone());
    assert!(la.contains("SV = "), "{la}");
    assert!(lb.contains("SV = "), "{lb}");
    assert_ne!(
        controller.graph().node(a).proc,
        controller.graph().node(b).proc,
        "the two accesses are in different processes"
    );
}

#[test]
fn execution_round_trips_through_a_log_dir_and_debugs() {
    let session = prepare(ppd_lang::corpus::FLOWBACK_DEMO.source);
    let mut config = RunConfig::default();
    config.inputs = vec![vec![42, 10]];
    let execution = session.execute(config);

    // Save, drop, reload — the offline debugging workflow.
    let dir = std::env::temp_dir().join(format!("ppd-core-offline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    execution.save_dir(&dir, 0, ppd_log::SegmentFormat::default()).unwrap();
    drop(execution);
    let loaded = crate::Execution::load_dir(&dir).unwrap();
    assert!(loaded.logs.is_segmented());
    assert!(loaded.outcome.is_failure());

    // Debugging the reloaded execution works end to end.
    let mut controller = Controller::new(&session, &loaded);
    let root = controller.start().unwrap();
    let slice = controller.backward_slice(root);
    let labels: Vec<String> =
        slice.iter().map(|&n| controller.graph().node(n).label.clone()).collect();
    assert!(labels.iter().any(|l| l.contains("reading - reading")));
    // Races computable from the reloaded parallel graph.
    assert!(controller.races().is_empty());
    // Rerunning the stored config reproduces the run.
    let again = session.execute(loaded.config.clone());
    assert_eq!(again.output, loaded.output);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn completed_intervals_replay_fully_despite_halt_at_same_stmt() {
    // `grab` is called three times; the third call blocks forever on the
    // same `p(s)` statement the first two calls executed successfully.
    // Replaying the *completed* intervals must run them in full — only
    // the open (blocked) interval stops at the halt statement.
    let session = prepare(
        "shared int done; sem s = 2; \
         void grab(int k) { p(s); done = done + k; } \
         process Main { grab(1); grab(2); grab(3); print(done); }",
    );
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_deadlock(), "{:?}", execution.outcome);

    let rp = session.rp();
    let grab_eb =
        session.plan().body_eblock(BodyId::Func(rp.func_by_name("grab").unwrap())).unwrap();
    let grab_intervals: Vec<_> =
        execution.logs.intervals(ProcId(0)).into_iter().filter(|iv| iv.eblock == grab_eb).collect();
    assert_eq!(grab_intervals.len(), 3);

    for iv in &grab_intervals {
        let mut tracer = ppd_runtime::VecTracer::default();
        let res = crate::faithful_replay(&session, &execution, *iv, &mut tracer).unwrap();
        let syncs =
            tracer.events.iter().filter(|e| matches!(e.kind, EventKind::Sync { .. })).count();
        let assigns = tracer.events.iter().filter(|e| matches!(e.kind, EventKind::Assign)).count();
        if iv.postlog_pos.is_some() {
            // Completed call: the p(s) executed AND the update ran.
            assert!(res.outcome.is_success(), "{:?}", res.outcome);
            assert_eq!((syncs, assigns), (1, 1), "completed interval truncated");
        } else {
            // The blocked call stops at the p(s), having run nothing.
            assert!(res.outcome.is_breakpoint(), "{:?}", res.outcome);
            assert_eq!((syncs, assigns), (0, 0));
        }
    }
}
