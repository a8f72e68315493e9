//! The static program dependence graph (§4.1).
//!
//! "The static graph shows the potential dependences between program
//! components" — a variation of the Program Dependence Graph (Kuck;
//! Ferrante–Ottenstein–Warren). We build one per body from the analysis
//! crate's control dependences and reaching definitions (solved here,
//! the one place they feed a graph), plus the CFG's flow edges, and link
//! bodies through call sites. The debugger's own queries run on the
//! dynamic graph; `ppd check`, `ppd dot --what pdg` and static slicing
//! build this one when they need it.

use ppd_analysis::{Analyses, CfgNodeKind};
use ppd_lang::ast::walk_stmts;
use ppd_lang::{pretty, BodyId, FuncId, ResolvedProgram, StmtId, VarId};
use std::collections::HashMap;
use std::fmt;

/// A node of the static graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticNode {
    /// The body's ENTRY node.
    Entry,
    /// The body's EXIT node.
    Exit,
    /// A statement.
    Stmt(StmtId),
}

impl fmt::Display for StaticNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticNode::Entry => write!(f, "ENTRY"),
            StaticNode::Exit => write!(f, "EXIT"),
            StaticNode::Stmt(s) => write!(f, "{s}"),
        }
    }
}

/// An edge of the static graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticEdge {
    /// Control flow (the CFG edge).
    Flow,
    /// Control dependence with branch polarity.
    Control {
        /// Whether the dependent executes on the true branch.
        polarity: bool,
    },
    /// Potential data dependence on `var`.
    Data {
        /// The variable carrying the dependence.
        var: VarId,
    },
    /// A call-site edge into the callee's graph (the static counterpart
    /// of a sub-graph node).
    Call {
        /// The callee.
        func: FuncId,
    },
}

/// The static graph of one body.
#[derive(Debug, Clone)]
pub struct BodyStaticGraph {
    /// The body this graph describes.
    pub body: BodyId,
    /// All edges as `(from, to, kind)`.
    pub edges: Vec<(StaticNode, StaticNode, StaticEdge)>,
    /// Statements in source order.
    pub stmts: Vec<StmtId>,
}

impl BodyStaticGraph {
    /// Edges of a particular kind out of `node`.
    pub fn succs_by(
        &self,
        node: StaticNode,
        pred: impl Fn(&StaticEdge) -> bool,
    ) -> Vec<(StaticNode, &StaticEdge)> {
        self.edges
            .iter()
            .filter(|(f, _, k)| *f == node && pred(k))
            .map(|(_, t, k)| (*t, k))
            .collect()
    }

    /// Edges of a particular kind into `node`.
    pub fn preds_by(
        &self,
        node: StaticNode,
        pred: impl Fn(&StaticEdge) -> bool,
    ) -> Vec<(StaticNode, &StaticEdge)> {
        self.edges
            .iter()
            .filter(|(_, t, k)| *t == node && pred(k))
            .map(|(f, _, k)| (*f, k))
            .collect()
    }

    /// The static backward slice from `stmt` (Weiser [19, 20], which the
    /// paper builds on): every statement that may influence `stmt`
    /// through chains of data and control dependences, intraprocedurally.
    pub fn backward_slice(&self, stmt: StmtId) -> Vec<StmtId> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![stmt];
        seen.insert(stmt);
        while let Some(cur) = stack.pop() {
            for (pred, _) in self.preds_by(StaticNode::Stmt(cur), |k| {
                matches!(k, StaticEdge::Data { .. } | StaticEdge::Control { .. })
            }) {
                if let StaticNode::Stmt(p) = pred {
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        let mut out: Vec<StmtId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// The statements that may have defined `var` last before `use_stmt`
    /// (static data-dependence predecessors). `None` entries denote the
    /// body entry (parameter / shared-variable initial values).
    pub fn data_sources(&self, use_stmt: StmtId, var: VarId) -> Vec<Option<StmtId>> {
        self.preds_by(
            StaticNode::Stmt(use_stmt),
            |k| matches!(k, StaticEdge::Data { var: v } if *v == var),
        )
        .into_iter()
        .map(|(n, _)| match n {
            StaticNode::Stmt(s) => Some(s),
            _ => None,
        })
        .collect()
    }
}

/// The static program dependence graph of a whole program.
#[derive(Debug, Clone)]
pub struct StaticGraph {
    bodies: HashMap<BodyId, BodyStaticGraph>,
}

impl StaticGraph {
    /// Builds the static graph from the preparatory-phase analyses.
    pub fn build(rp: &ResolvedProgram, analyses: &Analyses) -> StaticGraph {
        let mut bodies = HashMap::new();
        for body in rp.bodies() {
            bodies.insert(body, build_body(rp, analyses, body));
        }
        StaticGraph { bodies }
    }

    /// The per-body graph.
    pub fn body(&self, body: BodyId) -> &BodyStaticGraph {
        &self.bodies[&body]
    }

    /// Iterates all body graphs.
    pub fn bodies(&self) -> impl Iterator<Item = &BodyStaticGraph> {
        self.bodies.values()
    }

    /// Total edge count across bodies.
    pub fn edge_count(&self) -> usize {
        self.bodies.values().map(|b| b.edges.len()).sum()
    }

    /// Renders a statement's display label.
    pub fn label(&self, rp: &ResolvedProgram, body: BodyId, node: StaticNode) -> String {
        match node {
            StaticNode::Entry => format!("ENTRY {}", rp.body_name(body)),
            StaticNode::Exit => format!("EXIT {}", rp.body_name(body)),
            StaticNode::Stmt(s) => {
                let mut label = String::new();
                walk_stmts(rp.body_block(body), &mut |stmt| {
                    if stmt.id == s {
                        label = pretty::stmt_label(stmt, &rp.program.interner);
                    }
                });
                label
            }
        }
    }
}

fn build_body(rp: &ResolvedProgram, analyses: &Analyses, body: BodyId) -> BodyStaticGraph {
    let cfg = analyses.cfg(body);
    let cd = analyses.control_deps(body);
    let rd = analyses.reaching(rp, body);
    let mut edges: Vec<(StaticNode, StaticNode, StaticEdge)> = Vec::new();

    let to_static = |kind: CfgNodeKind| match kind {
        CfgNodeKind::Entry => StaticNode::Entry,
        CfgNodeKind::Exit => StaticNode::Exit,
        CfgNodeKind::Stmt(s) => StaticNode::Stmt(s),
    };

    // Flow edges straight from the CFG.
    for (i, node) in cfg.nodes().iter().enumerate() {
        let from = to_static(cfg.node(ppd_analysis::NodeId(i as u32)).kind);
        let _ = node;
        for s in cfg.succs(ppd_analysis::NodeId(i as u32)) {
            edges.push((from, to_static(cfg.node(s).kind), StaticEdge::Flow));
        }
    }

    // Control dependence edges; entry-dependent statements hang off ENTRY.
    for &stmt in cfg.stmts() {
        let parents = cd.parents(stmt);
        if parents.is_empty() {
            edges.push((
                StaticNode::Entry,
                StaticNode::Stmt(stmt),
                StaticEdge::Control { polarity: true },
            ));
        } else {
            for &(pred, polarity) in parents {
                edges.push((
                    StaticNode::Stmt(pred),
                    StaticNode::Stmt(stmt),
                    StaticEdge::Control { polarity },
                ));
            }
        }
    }

    // Data dependence edges from reaching definitions.
    for (def, use_stmt, var) in rd.du_pairs(cfg, &analyses.effects) {
        let from = match def {
            Some(s) => StaticNode::Stmt(s),
            None => StaticNode::Entry,
        };
        edges.push((from, StaticNode::Stmt(use_stmt), StaticEdge::Data { var }));
    }

    // Call edges.
    for &stmt in cfg.stmts() {
        for &callee in &analyses.effects.of(stmt).calls {
            edges.push((
                StaticNode::Stmt(stmt),
                StaticNode::Entry,
                StaticEdge::Call { func: callee },
            ));
        }
    }

    BodyStaticGraph { body, edges, stmts: cfg.stmts().to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_lang::compile;

    fn graph(src: &str) -> (ResolvedProgram, Analyses, StaticGraph) {
        let rp = compile(src).unwrap();
        let analyses = Analyses::run(&rp);
        let sg = StaticGraph::build(&rp, &analyses);
        (rp, analyses, sg)
    }

    fn body(rp: &ResolvedProgram, name: &str) -> BodyId {
        rp.bodies().into_iter().find(|b| rp.body_name(*b) == name).unwrap()
    }

    #[test]
    fn straight_line_has_flow_and_data() {
        let (rp, _, sg) = graph("process M { int x = 1; int y = x + 2; print(y); }");
        let g = sg.body(body(&rp, "M"));
        let (s0, s1, s2) = (g.stmts[0], g.stmts[1], g.stmts[2]);
        // Data: s0 -> s1 (x), s1 -> s2 (y)
        assert!(!g.data_sources(s1, var(&rp, "x")).is_empty());
        assert_eq!(g.data_sources(s1, var(&rp, "x")), vec![Some(s0)]);
        assert_eq!(g.data_sources(s2, var(&rp, "y")), vec![Some(s1)]);
        // Flow: entry -> s0.
        let flows = g.succs_by(StaticNode::Entry, |k| matches!(k, StaticEdge::Flow));
        assert_eq!(flows.len(), 1);
    }

    fn var(rp: &ResolvedProgram, name: &str) -> VarId {
        (0..rp.var_count() as u32).map(VarId).find(|v| rp.var_name(*v) == name).unwrap()
    }

    #[test]
    fn control_edges_carry_polarity() {
        let (rp, _, sg) = graph("process M { int d = 1; if (d > 0) { d = 2; } else { d = 3; } }");
        let g = sg.body(body(&rp, "M"));
        let (if_s, then_s, else_s) = (g.stmts[1], g.stmts[2], g.stmts[3]);
        let then_parents =
            g.preds_by(StaticNode::Stmt(then_s), |k| matches!(k, StaticEdge::Control { .. }));
        assert_eq!(then_parents.len(), 1);
        assert_eq!(then_parents[0].0, StaticNode::Stmt(if_s));
        assert_eq!(*then_parents[0].1, StaticEdge::Control { polarity: true });
        let else_parents =
            g.preds_by(StaticNode::Stmt(else_s), |k| matches!(k, StaticEdge::Control { .. }));
        assert_eq!(*else_parents[0].1, StaticEdge::Control { polarity: false });
    }

    #[test]
    fn entry_hangs_top_level_statements() {
        let (rp, _, sg) = graph("process M { int a = 1; print(a); }");
        let g = sg.body(body(&rp, "M"));
        let from_entry = g.succs_by(StaticNode::Entry, |k| matches!(k, StaticEdge::Control { .. }));
        assert_eq!(from_entry.len(), 2);
    }

    #[test]
    fn call_edges_present() {
        let (rp, _, sg) = graph("int f() { return 1; } process M { print(f()); }");
        let g = sg.body(body(&rp, "M"));
        let f = rp.func_by_name("f").unwrap();
        let calls: Vec<_> = g
            .edges
            .iter()
            .filter(|(_, _, k)| matches!(k, StaticEdge::Call { func } if *func == f))
            .collect();
        assert_eq!(calls.len(), 1);
    }

    #[test]
    fn shared_use_depends_on_entry() {
        let (rp, _, sg) = graph("shared int g; process M { print(g); }");
        let gph = sg.body(body(&rp, "M"));
        let s0 = gph.stmts[0];
        assert_eq!(gph.data_sources(s0, var(&rp, "g")), vec![None]);
    }

    #[test]
    fn labels_render_statement_text() {
        let (rp, _, sg) = graph("shared int d; process M { if (d > 0) { d = 1; } }");
        let b = body(&rp, "M");
        let g = sg.body(b);
        assert_eq!(sg.label(&rp, b, StaticNode::Stmt(g.stmts[0])), "if (d > 0)");
        assert_eq!(sg.label(&rp, b, StaticNode::Entry), "ENTRY M");
    }

    #[test]
    fn backward_slice_follows_both_dependence_kinds() {
        let (rp, _, sg) = graph(
            "process M { int a = 1; int unrelated = 9; int b = a + 1;              if (b > 0) { b = b * 2; } print(b); }",
        );
        let g = sg.body(body(&rp, "M"));
        // stmts: [decl a, decl unrelated, decl b, if, b*=2, print]
        let slice = g.backward_slice(g.stmts[5]);
        assert!(slice.contains(&g.stmts[0]), "a flows into b");
        assert!(slice.contains(&g.stmts[2]));
        assert!(slice.contains(&g.stmts[3]), "control dependence included");
        assert!(slice.contains(&g.stmts[4]));
        assert!(!slice.contains(&g.stmts[1]), "unrelated excluded");
    }

    #[test]
    fn static_slice_is_reflexive_and_monotone() {
        let (rp, _, sg) = graph("process M { int x = 1; while (x < 5) { x = x + 1; } print(x); }");
        let g = sg.body(body(&rp, "M"));
        for &s in &g.stmts {
            let slice = g.backward_slice(s);
            assert!(slice.contains(&s), "slices are reflexive");
            // Monotone: everything in my slice has its slice inside mine.
            for &t in &slice {
                for u in g.backward_slice(t) {
                    assert!(slice.contains(&u));
                }
            }
        }
    }

    #[test]
    fn whole_corpus_builds() {
        for p in ppd_lang::corpus::all() {
            let rp = p.compile();
            let analyses = Analyses::run(&rp);
            let sg = StaticGraph::build(&rp, &analyses);
            assert!(sg.edge_count() > 0, "{}", p.name);
        }
    }
}
