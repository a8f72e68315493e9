//! The simplified static program dependence graph (§5.5, Figure 5.3).
//!
//! A per-body flow-edge-only graph whose nodes are: ENTRY, EXIT,
//! **branching nodes** (control predicates) and **non-branching nodes**
//! (synchronization operations and subroutine calls). Definition 5.1
//! partitions its edges into *synchronization units*: all edges reachable
//! from a non-branching node without passing through another
//! non-branching node. The object code emits an extra prelog of shared
//! variables at the start of each unit.

use ppd_analysis::{Analyses, CfgNodeKind, NodeId};
use ppd_lang::{BodyId, ResolvedProgram, StmtId};
use std::collections::HashMap;
use std::fmt;

/// A node of the simplified static graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimpleNode {
    /// Body entry (non-branching).
    Entry,
    /// Body exit (non-branching).
    Exit,
    /// A control predicate (branching).
    Branch(StmtId),
    /// A synchronization operation or subroutine call (non-branching).
    SyncOrCall(StmtId),
}

impl SimpleNode {
    /// Whether this node is non-branching (a potential unit start).
    pub fn is_non_branching(self) -> bool {
        !matches!(self, SimpleNode::Branch(_))
    }
}

impl fmt::Display for SimpleNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimpleNode::Entry => write!(f, "ENTRY"),
            SimpleNode::Exit => write!(f, "EXIT"),
            SimpleNode::Branch(s) => write!(f, "branch({s})"),
            SimpleNode::SyncOrCall(s) => write!(f, "sync({s})"),
        }
    }
}

/// An edge of the simplified graph, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimpleEdgeId(pub usize);

impl fmt::Display for SimpleEdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0 + 1) // 1-based like the paper's figure
    }
}

/// The simplified static graph of one body.
#[derive(Debug, Clone)]
pub struct SimplifiedGraph {
    /// The body described.
    pub body: BodyId,
    /// Nodes (deduplicated).
    pub nodes: Vec<SimpleNode>,
    /// Edges as `(from, to)` indices into `nodes`.
    pub edges: Vec<(usize, usize)>,
    node_index: HashMap<SimpleNode, usize>,
}

/// One synchronization unit: a set of simplified-graph edges
/// (Definition 5.1).
#[derive(Debug, Clone)]
pub struct UnitEdges {
    /// The non-branching node the unit starts from.
    pub start: SimpleNode,
    /// Edges belonging to the unit, ascending.
    pub edges: Vec<SimpleEdgeId>,
}

impl SimplifiedGraph {
    /// Builds the simplified static graph of `body` by contracting the
    /// CFG: every CFG node that is neither ENTRY/EXIT, a branch, a sync
    /// op, nor a call is dissolved into the edges through it.
    pub fn build(rp: &ResolvedProgram, analyses: &Analyses, body: BodyId) -> SimplifiedGraph {
        let cfg = analyses.cfg(body);
        let keep = |n: NodeId| -> Option<SimpleNode> {
            match cfg.node(n).kind {
                CfgNodeKind::Entry => Some(SimpleNode::Entry),
                CfgNodeKind::Exit => Some(SimpleNode::Exit),
                CfgNodeKind::Stmt(s) => {
                    let fx = analyses.effects.of(s);
                    if cfg.node(n).succs.len() > 1 {
                        Some(SimpleNode::Branch(s))
                    } else if fx.is_sync || !fx.calls.is_empty() {
                        Some(SimpleNode::SyncOrCall(s))
                    } else {
                        None
                    }
                }
            }
        };

        let mut g = SimplifiedGraph {
            body,
            nodes: Vec::new(),
            edges: Vec::new(),
            node_index: HashMap::new(),
        };
        let _ = rp;

        // For each kept node, walk the CFG forward through dissolved
        // nodes to find the next kept node(s); each such reachable pair
        // becomes a simplified edge.
        let kept: Vec<(NodeId, SimpleNode)> =
            (0..cfg.len() as u32).map(NodeId).filter_map(|n| keep(n).map(|k| (n, k))).collect();
        for &(_, k) in &kept {
            g.intern(k);
        }
        let mut edge_set = Vec::new();
        for &(n, from_node) in &kept {
            // BFS through dissolved nodes.
            let mut seen = vec![false; cfg.len()];
            let mut stack: Vec<NodeId> = cfg.succs(n).collect();
            while let Some(m) = stack.pop() {
                if seen[m.index()] {
                    continue;
                }
                seen[m.index()] = true;
                match keep(m) {
                    Some(to_node) => {
                        let f = g.intern(from_node);
                        let t = g.intern(to_node);
                        if !edge_set.contains(&(f, t)) {
                            edge_set.push((f, t));
                        }
                    }
                    None => stack.extend(cfg.succs(m)),
                }
            }
        }
        g.edges = edge_set;
        g
    }

    fn intern(&mut self, node: SimpleNode) -> usize {
        if let Some(&i) = self.node_index.get(&node) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(node);
        self.node_index.insert(node, i);
        i
    }

    /// Index of a node.
    pub fn index_of(&self, node: SimpleNode) -> Option<usize> {
        self.node_index.get(&node).copied()
    }

    /// All non-branching nodes (potential synchronization-unit starts).
    pub fn non_branching(&self) -> impl Iterator<Item = SimpleNode> + '_ {
        self.nodes.iter().copied().filter(|n| n.is_non_branching())
    }

    /// Computes the synchronization units (Definition 5.1): for each
    /// non-branching node, the edges reachable without passing through
    /// another non-branching node. Units with no edges (e.g. from EXIT)
    /// are omitted.
    pub fn sync_units(&self) -> Vec<UnitEdges> {
        let mut out = Vec::new();
        for start in self.non_branching() {
            let si = self.node_index[&start];
            let mut unit = Vec::new();
            let mut visited_nodes = vec![false; self.nodes.len()];
            let mut stack = vec![si];
            visited_nodes[si] = true;
            while let Some(n) = stack.pop() {
                for (ei, &(f, t)) in self.edges.iter().enumerate() {
                    if f != n {
                        continue;
                    }
                    let eid = SimpleEdgeId(ei);
                    if !unit.contains(&eid) {
                        unit.push(eid);
                    }
                    // Continue through branching nodes only.
                    if !self.nodes[t].is_non_branching() && !visited_nodes[t] {
                        visited_nodes[t] = true;
                        stack.push(t);
                    }
                }
            }
            if !unit.is_empty() {
                unit.sort_unstable();
                out.push(UnitEdges { start, edges: unit });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_lang::compile;

    fn build(src: &str, name: &str) -> (ResolvedProgram, SimplifiedGraph) {
        let rp = compile(src).unwrap();
        let analyses = Analyses::run(&rp);
        let body = rp.bodies().into_iter().find(|b| rp.body_name(*b) == name).unwrap();
        let g = SimplifiedGraph::build(&rp, &analyses, body);
        (rp, g)
    }

    #[test]
    fn straight_line_collapses_to_entry_exit() {
        let (_, g) = build("process M { int a = 1; int b = a; print(b); }", "M");
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        let units = g.sync_units();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].start, SimpleNode::Entry);
    }

    #[test]
    fn branches_are_kept_but_start_no_unit() {
        let (_, g) =
            build("process M { int x = 1; if (x) { x = 2; } else { x = 3; } print(x); }", "M");
        // ENTRY, branch, EXIT; edges: ENTRY->branch, branch->EXIT (x2 arms merge)
        assert_eq!(g.nodes.len(), 3);
        let units = g.sync_units();
        assert_eq!(units.len(), 1, "only ENTRY starts a unit");
        // The unit contains every edge.
        assert_eq!(units[0].edges.len(), g.edges.len());
    }

    #[test]
    fn sync_ops_split_units() {
        let (rp, g) = build(
            "shared int sv; sem s = 1; \
             process M { int x = 1; p(s); sv = sv + x; v(s); print(x); }",
            "M",
        );
        let _ = rp;
        // Nodes: ENTRY, p, v, EXIT.
        assert_eq!(g.nodes.len(), 4);
        let units = g.sync_units();
        // ENTRY->p | p->v | v->EXIT
        assert_eq!(units.len(), 3);
        for u in &units {
            assert_eq!(u.edges.len(), 1);
        }
    }

    #[test]
    fn calls_are_non_branching_nodes() {
        let (_, g) = build("int f() { return 1; } process M { int a = f(); print(a); }", "M");
        assert!(g.nodes.iter().any(|n| matches!(n, SimpleNode::SyncOrCall(_))));
        let units = g.sync_units();
        assert_eq!(units.len(), 2); // from ENTRY and from the call
    }

    #[test]
    fn fig53_foo3_shape() {
        // The paper's Figure 5.3: foo3's simplified graph contains ENTRY,
        // two branching nodes (p and q predicates) and EXIT; its only
        // unit starts at ENTRY and covers all edges (the figure's larger
        // unit count comes from call nodes in the elided "..." sections).
        let rp = ppd_lang::corpus::FIG_5_3.compile();
        let analyses = Analyses::run(&rp);
        let body = BodyId::Func(rp.func_by_name("foo3").unwrap());
        let g = SimplifiedGraph::build(&rp, &analyses, body);
        let branches = g.nodes.iter().filter(|n| matches!(n, SimpleNode::Branch(_))).count();
        assert_eq!(branches, 2, "outer `p` and inner `q` predicates");
        let units = g.sync_units();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].start, SimpleNode::Entry);
        assert_eq!(units[0].edges.len(), g.edges.len());
    }

    #[test]
    fn fig53_with_calls_matches_three_unit_structure() {
        // Reconstruction of the figure's three units: put subroutine
        // calls in two of the arms (standing for the elided "..." code);
        // each call node then starts its own unit, giving 3 units total.
        let (_, g) = build(
            "shared int SV; \
             void work1() { } void work2() { } \
             int foo3(int p, int q) { \
                int a = 1; int b = 2; int c = 3; \
                if (p == 1) { \
                    if (q == 1) { c = a + b; } else { work1(); c = a - b; } \
                } else { SV = a + b + SV; work2(); } \
                return c; } \
             process P1 { print(foo3(1, 1)); }",
            "foo3",
        );
        let units = g.sync_units();
        assert_eq!(units.len(), 3, "ENTRY, work1-call, work2-call units");
        let starts: Vec<bool> = units.iter().map(|u| u.start == SimpleNode::Entry).collect();
        assert_eq!(starts.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn loop_with_sync_keeps_back_edge_units() {
        let (_, g) = build(
            "sem s = 1; process M { int i = 0; while (i < 3) { p(s); i = i + 1; v(s); } }",
            "M",
        );
        // Nodes: ENTRY, while-branch, p, v, EXIT.
        assert_eq!(g.nodes.len(), 5);
        let units = g.sync_units();
        // ENTRY unit: entry->branch, branch->p, branch->exit.
        let entry_unit = units.iter().find(|u| u.start == SimpleNode::Entry).unwrap();
        assert_eq!(entry_unit.edges.len(), 3);
        // v unit wraps around: v->branch, branch->p, branch->exit.
        let v_unit = units
            .iter()
            .find(|u| matches!(u.start, SimpleNode::SyncOrCall(_)) && u.edges.len() == 3)
            .expect("v's unit reaches around the loop");
        let _ = v_unit;
    }
}
