//! Cross-layer slicing properties on random programs: the *dynamic*
//! backward slice (actual dependences, §4.2) must project into the
//! *static* backward slice (possible dependences, §4.1 / Weiser) — the
//! fundamental soundness relation between the two graphs.

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig};
use ppd::graph::{DynNodeKind, StaticGraph};
use ppd::lang::{ProcId, StmtId};
use proptest::prelude::*;
use std::collections::HashSet;

mod common;
use common::Gen;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Dynamic ⊆ static: every statement in a dynamic backward slice is
    /// in the static backward slice of the root's statement.
    #[test]
    fn dynamic_slice_projects_into_static_slice(
        bytes in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        let src = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let exec = session.execute(RunConfig::default());
        prop_assert!(exec.outcome.is_success());
        let mut controller = Controller::new(&session, &exec);
        let root = controller.start_at(ProcId(0)).unwrap();

        let graph = controller.graph();
        let stmt_of = |kind: &DynNodeKind| -> Option<StmtId> {
            match kind {
                DynNodeKind::Singular { stmt }
                | DynNodeKind::SubGraph { stmt, .. }
                | DynNodeKind::LoopGraph { stmt, .. } => Some(*stmt),
                _ => None,
            }
        };
        let Some(root_stmt) = stmt_of(&graph.node(root).kind) else {
            return Ok(()); // entry-only fragment
        };

        let body = ppd::lang::BodyId::Proc(ProcId(0));
        let static_graph = StaticGraph::build(session.rp(), session.analyses());
        let static_slice: HashSet<StmtId> =
            static_graph.body(body).backward_slice(root_stmt).into_iter().collect();

        for node in controller.backward_slice(root) {
            // Only project nodes belonging to the same body (the
            // generated programs are single-body, no calls).
            if let Some(stmt) = stmt_of(&graph.node(node).kind) {
                prop_assert!(
                    static_slice.contains(&stmt),
                    "dynamic slice contains {stmt} ({}), absent from static slice {:?}",
                    graph.node(node).label,
                    static_slice
                );
            }
        }
    }

    /// Every dynamic data dependence instance has a static counterpart:
    /// if node B reads a value A defined, then A's statement is a static
    /// data source of B's statement for some variable.
    #[test]
    fn dynamic_data_edges_have_static_counterparts(
        bytes in proptest::collection::vec(any::<u8>(), 1..80),
    ) {
        use ppd::graph::{DynEdgeKind, StaticEdge, StaticNode};
        let src = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let exec = session.execute(RunConfig::default());
        let mut controller = Controller::new(&session, &exec);
        controller.start_at(ProcId(0)).unwrap();
        let graph = controller.graph();
        let body = ppd::lang::BodyId::Proc(ProcId(0));
        let static_graph = StaticGraph::build(session.rp(), session.analyses());
        let sgraph = static_graph.body(body);

        for &(from, to, kind) in graph.edges() {
            let DynEdgeKind::Data { var } = kind else { continue };
            let (DynNodeKind::Singular { stmt: def_stmt }, DynNodeKind::Singular { stmt: use_stmt }) =
                (&graph.node(from).kind, &graph.node(to).kind)
            else {
                continue;
            };
            let static_sources = sgraph.preds_by(StaticNode::Stmt(*use_stmt), |k| {
                matches!(k, StaticEdge::Data { var: v } if *v == var)
            });
            prop_assert!(
                static_sources
                    .iter()
                    .any(|&(n, _)| n == StaticNode::Stmt(*def_stmt)),
                "dynamic data edge {def_stmt} -> {use_stmt} on {var} has no static counterpart"
            );
        }
    }

    /// The static control-dependence parents cover the dynamic control
    /// edges between singular nodes.
    #[test]
    fn dynamic_control_edges_have_static_counterparts(
        bytes in proptest::collection::vec(any::<u8>(), 1..80),
    ) {
        use ppd::graph::DynEdgeKind;
        let src = Gen::new(&bytes).program();
        let session = PpdSession::prepare(&src, EBlockStrategy::per_subroutine()).unwrap();
        let exec = session.execute(RunConfig::default());
        let mut controller = Controller::new(&session, &exec);
        controller.start_at(ProcId(0)).unwrap();
        let graph = controller.graph();
        let body = ppd::lang::BodyId::Proc(ProcId(0));
        let cds = session.analyses().control_deps(body);

        for &(from, to, kind) in graph.edges() {
            if kind != DynEdgeKind::Control {
                continue;
            }
            let (DynNodeKind::Singular { stmt: pred }, DynNodeKind::Singular { stmt: dep }) =
                (&graph.node(from).kind, &graph.node(to).kind)
            else {
                continue; // entry-anchored control edges have no static stmt parent
            };
            prop_assert!(
                cds.parents(*dep).iter().any(|&(p, _)| p == *pred),
                "dynamic control edge {pred} -> {dep} not in static control deps"
            );
        }
    }
}
