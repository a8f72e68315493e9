//! Reproductions of the paper's worked figures, asserted structurally:
//! Figure 4.1 (dynamic graph), Figure 5.1/5.2 (log intervals and
//! nesting), Figure 5.3 (simplified static graph / synchronization
//! units), Figure 6.1 (parallel dynamic graph and the §6.3 race).

#![allow(clippy::field_reassign_with_default)]

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::graph::{
    ConflictKind, DynEdgeKind, DynNodeKind, SimpleNode, SimplifiedGraph, SyncEdgeLabel,
    SyncNodeKind, VectorClocks,
};
use ppd::lang::{BodyId, ProcId};

// ---------------------------------------------------------------------
// Figure 4.1
// ---------------------------------------------------------------------

#[test]
fn figure_4_1_dynamic_graph() {
    let session =
        PpdSession::prepare(ppd::lang::corpus::FIG_4_1.source, EBlockStrategy::per_subroutine())
            .unwrap();
    let mut config = RunConfig::default();
    config.inputs = vec![vec![5, 3, 2]];
    let execution = session.execute(config);
    assert!(execution.outcome.is_success());

    let mut controller = Controller::new(&session, &execution);
    controller.start_at(ProcId(0)).unwrap();
    let graph = controller.graph();

    // Node inventory mirroring the figure: the six fragment statements
    // appear as singular/sub-graph nodes; the third SubD actual is the
    // fictional %3.
    let find = |needle: &str| {
        graph
            .nodes()
            .iter()
            .find(|n| n.label.contains(needle))
            .unwrap_or_else(|| panic!("missing node labeled `{needle}`"))
    };
    let s4 = find("SubD(a, b, a + b + c)");
    assert!(matches!(s4.kind, DynNodeKind::SubGraph { expanded: false, .. }));
    let p3 = find("%3");
    assert!(matches!(p3.kind, DynNodeKind::Param { index: 3 }));
    // %3's three data sources are the definitions of a, b and c.
    let p3_sources: Vec<String> =
        graph.dependence_preds(p3.id).iter().map(|&(n, _)| graph.node(n).label.clone()).collect();
    assert_eq!(p3_sources.len(), 3, "{p3_sources:?}");
    for v in ["a = input()", "b = input()", "c = input()"] {
        assert!(p3_sources.iter().any(|l| l.contains(v)), "missing {v}");
    }

    // s5 `if (d > 0)` depends on d from SubD; its arms are control
    // dependent on it.
    let s5 = find("d > 0");
    let s5_data: Vec<_> = graph
        .preds_by(s5.id, |k| matches!(k, DynEdgeKind::Data { .. }))
        .iter()
        .map(|&(n, _)| graph.node(n).label.clone())
        .collect();
    assert!(s5_data.iter().any(|l| l.contains("d = SubD")), "{s5_data:?}");
    let sqrt_arm = find("sq = sqrt(0 - d)");
    assert!(graph
        .preds_by(sqrt_arm.id, |k| matches!(k, DynEdgeKind::Control))
        .iter()
        .any(|&(n, _)| n == s5.id));

    // s6 `a = a + sq` = 7 given inputs (5, 3, 2).
    let s6 = find("a = a + sq");
    assert_eq!(s6.value, Some(ppd::lang::Value::Int(7)));
}

// ---------------------------------------------------------------------
// Figures 5.1 / 5.2: logging points, log intervals and their nesting
// ---------------------------------------------------------------------

#[test]
fn figure_5_2_nested_log_intervals() {
    // SubJ calls SubK: prelog(j) < prelog(j+1) < postlog(j+1) < postlog(j).
    let session = PpdSession::prepare(
        "shared int out; \
         int SubK(int x) { return x + 1; } \
         int SubJ(int x) { int k = SubK(x * 2); return k; } \
         process Main { out = SubJ(5); print(out); }",
        EBlockStrategy::per_subroutine(),
    )
    .unwrap();
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success());

    let rp = session.rp();
    let eb_of = |name: &str| {
        session.plan().body_eblock(BodyId::Func(rp.func_by_name(name).unwrap())).unwrap()
    };
    let intervals = execution.logs.intervals(ProcId(0));
    let subj = intervals.iter().find(|iv| iv.eblock == eb_of("SubJ")).unwrap();
    let subk = intervals.iter().find(|iv| iv.eblock == eb_of("SubK")).unwrap();
    // Figure 5.2's ordering t1 < t2 < t3 < t4.
    assert!(subj.prelog_pos < subk.prelog_pos);
    assert!(subk.postlog_pos.unwrap() < subj.postlog_pos.unwrap());

    // The Controller resolves the nesting: SubK is SubJ's direct child.
    let controller = Controller::new(&session, &execution);
    let children = controller.direct_children(*subj);
    assert_eq!(children.len(), 1);
    assert_eq!(children[0].eblock, eb_of("SubK"));
}

#[test]
fn figure_5_1_loops_create_repeated_intervals() {
    // "Programs usually contain loops, so a given e-block of a program
    // may have several corresponding log intervals during execution."
    let session = PpdSession::prepare(
        "shared int out; \
         int step(int x) { return x + 1; } \
         process Main { int a = 0; int i; \
           for (i = 0; i < 4; i = i + 1) { a = step(a); } \
           out = a; print(out); }",
        EBlockStrategy::per_subroutine(),
    )
    .unwrap();
    let execution = session.execute(RunConfig::default());
    let rp = session.rp();
    let step_eb =
        session.plan().body_eblock(BodyId::Func(rp.func_by_name("step").unwrap())).unwrap();
    let step_intervals: Vec<_> =
        execution.logs.intervals(ProcId(0)).into_iter().filter(|iv| iv.eblock == step_eb).collect();
    assert_eq!(step_intervals.len(), 4, "one interval per call");
    // Instances are numbered consecutively.
    let instances: Vec<u64> = step_intervals.iter().map(|iv| iv.instance).collect();
    assert_eq!(instances, vec![0, 1, 2, 3]);
}

// ---------------------------------------------------------------------
// Figure 5.3: simplified static graph and synchronization units
// ---------------------------------------------------------------------

#[test]
fn figure_5_3_simplified_graph_shape() {
    let rp = ppd::lang::corpus::FIG_5_3.compile();
    let analyses = ppd::analysis::Analyses::run(&rp);
    let foo3 = BodyId::Func(rp.func_by_name("foo3").unwrap());
    let g = SimplifiedGraph::build(&rp, &analyses, foo3);

    // ENTRY, two branching predicates (p and q), EXIT.
    assert_eq!(g.nodes.len(), 4);
    let branching = g.nodes.iter().filter(|n| !n.is_non_branching()).count();
    assert_eq!(branching, 2);
    assert!(g.index_of(SimpleNode::Entry).is_some());
    assert!(g.index_of(SimpleNode::Exit).is_some());
}

#[test]
fn figure_5_3_three_synchronization_units_with_calls() {
    // The figure's three units arise when the elided "..." sections hold
    // subroutine calls (non-branching nodes). Definition 5.1 then gives
    // units from ENTRY and from each call node.
    let rp = ppd::lang::compile(
        "shared int SV; \
         void work1() { } void work2() { } \
         int foo3(int p, int q) { \
            int a = 1; int b = 2; int c = 3; \
            if (p == 1) { \
                if (q == 1) { c = a + b; } else { work1(); c = a - b; } \
            } else { SV = a + b + SV; work2(); } \
            return c; } \
         process P1 { print(foo3(1, 1)); }",
    )
    .unwrap();
    let analyses = ppd::analysis::Analyses::run(&rp);
    let foo3 = BodyId::Func(rp.func_by_name("foo3").unwrap());
    let g = SimplifiedGraph::build(&rp, &analyses, foo3);
    let units = g.sync_units();
    assert_eq!(units.len(), 3);
    // Every edge of the graph belongs to at least one unit.
    let covered: std::collections::HashSet<_> =
        units.iter().flat_map(|u| u.edges.iter().copied()).collect();
    assert_eq!(covered.len(), g.edges.len());
}

#[test]
fn figure_5_3_shared_prelog_covers_sv() {
    // §5.5: the object code must snapshot SV for units that may read it.
    let rp = ppd::lang::corpus::FIG_5_3.compile();
    let analyses = ppd::analysis::Analyses::run(&rp);
    let p1 = BodyId::Proc(rp.proc_by_name("P1").unwrap());
    let units = analyses.sync_units.of(p1);
    // P1's call to foo3 (a unit boundary) may read SV through the callee.
    let sv = rp.shared_vars().find(|v| rp.var_name(*v) == "SV").unwrap();
    let any_unit_reads_sv = units.units.iter().any(|u| {
        use ppd::analysis::VarSetRepr;
        u.reads.contains(sv)
    });
    assert!(any_unit_reads_sv);
}

// ---------------------------------------------------------------------
// Figure 6.1: parallel dynamic graph and the §6.3 race
// ---------------------------------------------------------------------

#[test]
fn figure_6_1_parallel_graph_and_race() {
    let session =
        PpdSession::prepare(ppd::lang::corpus::FIG_6_1.source, EBlockStrategy::per_subroutine())
            .unwrap();
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success());
    let g = &execution.pgraph;

    // The blocking send produced the figure's n3 -> n4 (message) and
    // n4 -> n5 (unblock) synchronization edges.
    let labels: Vec<SyncEdgeLabel> = g.sync_edges().iter().map(|e| e.label).collect();
    assert!(labels.contains(&SyncEdgeLabel::Message));
    assert!(labels.contains(&SyncEdgeLabel::SendUnblock));

    // The figure's e4 — the caller suspended between send and unblock —
    // contains zero events.
    let send_node = g.nodes().iter().find(|n| n.kind == SyncNodeKind::Send).unwrap().id;
    let e4 =
        g.internal_edges().iter().find(|e| e.from == send_node).expect("edge out of the send node");
    assert_eq!(e4.events, 0);
    assert_eq!(g.node(e4.to).kind, SyncNodeKind::Unblock);

    // §6.3's analysis: P1's write is ordered before P3's read through
    // the message; P2's write is simultaneous with both.
    let ord = VectorClocks::compute(g);
    let races = ppd::graph::detect_races(g, &ord, None);
    assert_eq!(races.len(), 2);
    let kinds: Vec<ConflictKind> = races.iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&ConflictKind::WriteWrite)); // e1 vs e2
    assert!(kinds.contains(&ConflictKind::ReadWrite)); // e2 vs e3
                                                       // Both races involve P2.
    for r in &races {
        let p_first = g.internal_edge(r.first).proc;
        let p_second = g.internal_edge(r.second).proc;
        assert!(
            p_first == ProcId(1) || p_second == ProcId(1),
            "P2 must be part of every race: {r:?}"
        );
    }
}

#[test]
fn figure_6_1_ordered_pair_is_not_a_race() {
    // e1 (P1's write) -> e3 (P3's read) is ordered by the message chain,
    // so that specific pair must NOT be reported.
    let session =
        PpdSession::prepare(ppd::lang::corpus::FIG_6_1.source, EBlockStrategy::per_subroutine())
            .unwrap();
    let execution = session.execute(RunConfig::default());
    let g = &execution.pgraph;
    let ord = VectorClocks::compute(g);
    for r in ppd::graph::detect_races(g, &ord, None) {
        let procs = (g.internal_edge(r.first).proc, g.internal_edge(r.second).proc);
        assert_ne!(
            procs,
            (ProcId(0), ProcId(2)),
            "P1/P3 pair is ordered by the message and must not race"
        );
    }
}

#[test]
fn rendezvous_caller_edge_has_zero_events() {
    // §6.2.3: "The internal edge (on the caller) between the event of
    // calling the rendezvous and the event of returning from the call
    // contains zero number of events since the caller is suspended."
    let session = PpdSession::prepare(
        ppd::lang::corpus::RENDEZVOUS_SERVER.source,
        EBlockStrategy::per_subroutine(),
    )
    .unwrap();
    let execution = session.execute(RunConfig::default());
    assert!(execution.outcome.is_success());
    let g = &execution.pgraph;
    // Both callers have a RendezvousCall -> RendezvousReturn edge with
    // zero events.
    let mut suspended_edges = 0;
    for e in g.internal_edges() {
        if g.node(e.from).kind == SyncNodeKind::RendezvousCall {
            assert_eq!(g.node(e.to).kind, SyncNodeKind::RendezvousReturn);
            assert_eq!(e.events, 0, "caller suspended during the call");
            suspended_edges += 1;
        }
    }
    assert_eq!(suspended_edges, 2);
    // Two sync-edge pairs per rendezvous: entry and exit.
    let entries =
        g.sync_edges().iter().filter(|e| e.label == SyncEdgeLabel::RendezvousEntry).count();
    let exits = g.sync_edges().iter().filter(|e| e.label == SyncEdgeLabel::RendezvousExit).count();
    assert_eq!((entries, exits), (2, 2));
}
