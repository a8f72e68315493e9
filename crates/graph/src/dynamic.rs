//! The dynamic program dependence graph (§4.2, Figure 4.1).
//!
//! Four node types — ENTRY, EXIT, **singular** (one assignment or control
//! predicate instance, carrying its value) and **sub-graph** (a function
//! call whose details are encapsulated until the user expands it) — and
//! four edge types: **flow**, **data dependence**, **control dependence**
//! and **synchronization**.
//!
//! The graph is built *incrementally* by the PPD Controller from traces
//! the emulation package regenerates on demand; this module is the data
//! structure plus its queries, and stays agnostic about who builds it.
//!
//! Storage is flat, because the Controller builds and frees many
//! fragments per query: node ids are dense indexes into one node
//! vector, and each node's outgoing and incoming edges form singly
//! linked lists threaded through one edge vector (a node holds its first
//! and last edge, an edge the next one of its source and of its target).
//! Adding a node or an edge allocates nothing per node, and every
//! adjacency query lists edges in insertion order.

use ppd_lang::{FuncId, ProcId, StmtId, Value, VarId};
use std::fmt;

/// Dense id of a dynamic-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DynNodeId(pub u32);

impl DynNodeId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DynNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// What a dynamic node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynNodeKind {
    /// Control entered the scope of the (sub-)graph.
    Entry,
    /// Control left the scope.
    Exit,
    /// One execution of an assignment or control predicate.
    Singular {
        /// The statement executed.
        stmt: StmtId,
    },
    /// One execution of a function call, encapsulating its details
    /// (expandable on demand — §5.2's nested log intervals).
    SubGraph {
        /// The call-site statement.
        stmt: StmtId,
        /// The callee.
        func: FuncId,
        /// Whether the Controller has expanded this node's details.
        expanded: bool,
    },
    /// A fictional node for an actual parameter that is an expression
    /// rather than a single variable (the `%3` node of Figure 4.1).
    Param {
        /// 1-based parameter position; 0 is the returned value.
        index: usize,
    },
    /// One execution of a loop that formed its own e-block (§5.4),
    /// skipped during replay and expandable like a sub-graph node.
    LoopGraph {
        /// The loop statement.
        stmt: StmtId,
        /// Whether the loop's interval has been expanded.
        expanded: bool,
    },
}

/// A dynamic-graph node instance.
#[derive(Debug, Clone)]
pub struct DynNode {
    /// This node's id.
    pub id: DynNodeId,
    /// What it represents.
    pub kind: DynNodeKind,
    /// The process whose execution produced it.
    pub proc: ProcId,
    /// Display label (`sq = sqrt(d)`, `d > 0`, `%3`, ...).
    pub label: String,
    /// The associated value: the assigned value for assignments, the
    /// predicate value for predicates, the return value (`%0`) for
    /// sub-graph nodes.
    pub value: Option<Value>,
    /// Global event order (position in the interleaved execution).
    pub seq: u64,
}

/// Edge types of the dynamic graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynEdgeKind {
    /// The event at the target immediately followed the source.
    Flow,
    /// The target read a value the source produced.
    Data {
        /// The variable that carried the value.
        var: VarId,
    },
    /// The target executed because of the source predicate's outcome.
    Control,
    /// Initiation/termination of a synchronization event (§6.2).
    Sync,
    /// Value flow that is not tied to a named variable: an argument into
    /// a `%n` parameter node, a parameter node into its sub-graph node,
    /// or a returned value (`%0`) out of one.
    ValueFlow,
}

/// End of an edge list.
const NIL: u32 = u32::MAX;

/// A node's outgoing and incoming edge lists: first and last edge index
/// of each, [`NIL`] when empty.
#[derive(Debug, Clone, Copy)]
struct NodeEdges {
    first_out: u32,
    last_out: u32,
    first_in: u32,
    last_in: u32,
}

impl NodeEdges {
    const EMPTY: NodeEdges =
        NodeEdges { first_out: NIL, last_out: NIL, first_in: NIL, last_in: NIL };
}

/// An edge's place in its lists: the next outgoing edge of its source
/// and the next incoming edge of its target.
#[derive(Debug, Clone, Copy)]
struct EdgeLinks {
    next_out: u32,
    next_in: u32,
}

/// An edge: source, target, kind.
type Edge = (DynNodeId, DynNodeId, DynEdgeKind);

/// The dynamic program dependence graph.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    nodes: Vec<DynNode>,
    edges: Vec<Edge>,
    /// Parallel to `nodes`.
    node_edges: Vec<NodeEdges>,
    /// Parallel to `edges`.
    links: Vec<EdgeLinks>,
}

impl DynamicGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(
        &mut self,
        kind: DynNodeKind,
        proc: ProcId,
        label: impl Into<String>,
        value: Option<Value>,
        seq: u64,
    ) -> DynNodeId {
        let id = DynNodeId(self.nodes.len() as u32);
        self.nodes.push(DynNode { id, kind, proc, label: label.into(), value, seq });
        self.node_edges.push(NodeEdges::EMPTY);
        id
    }

    /// Adds an edge. Duplicate edges are ignored.
    pub fn add_edge(&mut self, from: DynNodeId, to: DynNodeId, kind: DynEdgeKind) {
        if self.out_edges(from).any(|(_, t, k)| t == to && k == kind) {
            return;
        }
        assert!(self.edges.len() < NIL as usize, "edge ids must fit below NIL");
        let ix = self.edges.len() as u32;
        self.edges.push((from, to, kind));
        self.links.push(EdgeLinks { next_out: NIL, next_in: NIL });
        let src = &mut self.node_edges[from.index()];
        match src.last_out {
            NIL => src.first_out = ix,
            last => self.links[last as usize].next_out = ix,
        }
        src.last_out = ix;
        let dst = &mut self.node_edges[to.index()];
        match dst.last_in {
            NIL => dst.first_in = ix,
            last => self.links[last as usize].next_in = ix,
        }
        dst.last_in = ix;
    }

    /// `node`'s outgoing edges, in insertion order.
    fn out_edges(&self, node: DynNodeId) -> impl Iterator<Item = Edge> + '_ {
        self.edge_list(self.node_edges[node.index()].first_out, |l| l.next_out)
    }

    /// `node`'s incoming edges, in insertion order.
    fn in_edges(&self, node: DynNodeId) -> impl Iterator<Item = Edge> + '_ {
        self.edge_list(self.node_edges[node.index()].first_in, |l| l.next_in)
    }

    /// The edge list starting at `first`, following `next`.
    fn edge_list(
        &self,
        first: u32,
        next: fn(&EdgeLinks) -> u32,
    ) -> impl Iterator<Item = Edge> + '_ {
        let step = |i: u32| (i != NIL).then_some(i);
        std::iter::successors(step(first), move |&i| step(next(&self.links[i as usize])))
            .map(|i| self.edges[i as usize])
    }

    /// All nodes.
    pub fn nodes(&self) -> &[DynNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[(DynNodeId, DynNodeId, DynEdgeKind)] {
        &self.edges
    }

    /// Node lookup.
    pub fn node(&self, id: DynNodeId) -> &DynNode {
        &self.nodes[id.index()]
    }

    /// Mutable node lookup (used when expanding sub-graph nodes).
    pub fn node_mut(&mut self, id: DynNodeId) -> &mut DynNode {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Incoming edges of `node` matching `pred`.
    pub fn preds_by(
        &self,
        node: DynNodeId,
        pred: impl Fn(DynEdgeKind) -> bool,
    ) -> Vec<(DynNodeId, DynEdgeKind)> {
        self.in_edges(node).filter(|&(_, _, k)| pred(k)).map(|(f, _, k)| (f, k)).collect()
    }

    /// Outgoing edges of `node` matching `pred`.
    pub fn succs_by(
        &self,
        node: DynNodeId,
        pred: impl Fn(DynEdgeKind) -> bool,
    ) -> Vec<(DynNodeId, DynEdgeKind)> {
        self.out_edges(node).filter(|&(_, _, k)| pred(k)).map(|(_, t, k)| (t, k)).collect()
    }

    /// All dependence (data + control + sync) predecessors — one step of
    /// flowback.
    pub fn dependence_preds(&self, node: DynNodeId) -> Vec<(DynNodeId, DynEdgeKind)> {
        self.preds_by(node, |k| !matches!(k, DynEdgeKind::Flow))
    }

    /// All dependence successors — one step of *forward* flow ("the
    /// programmer can see, either forward or backward, how information
    /// flowed through the program", §1).
    pub fn dependence_succs(&self, node: DynNodeId) -> Vec<(DynNodeId, DynEdgeKind)> {
        self.succs_by(node, |k| !matches!(k, DynEdgeKind::Flow))
    }

    /// Everything reachable from `root` along forward dependence edges —
    /// the events this one influenced.
    pub fn forward_slice(&self, root: DynNodeId) -> Vec<DynNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.push(n);
            for (sx, _) in self.dependence_succs(n) {
                if !seen[sx.index()] {
                    seen[sx.index()] = true;
                    stack.push(sx);
                }
            }
        }
        out.sort_by_key(|n| self.node(*n).seq);
        out
    }

    /// The most recent node (by `seq`) satisfying `pred` — e.g. "the last
    /// statement executed", the root of the inverted tree the debugger
    /// first presents (§3.2.3).
    pub fn last_node_by(&self, pred: impl Fn(&DynNode) -> bool) -> Option<DynNodeId> {
        self.nodes.iter().filter(|n| pred(n)).max_by_key(|n| n.seq).map(|n| n.id)
    }

    /// The unexpanded sub-graph nodes (candidates for §5.2 expansion),
    /// including skipped loops.
    pub fn unexpanded_subgraphs(&self) -> Vec<DynNodeId> {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    DynNodeKind::SubGraph { expanded: false, .. }
                        | DynNodeKind::LoopGraph { expanded: false, .. }
                )
            })
            .map(|n| n.id)
            .collect()
    }

    /// Everything reachable from `root` going backwards along dependence
    /// edges — the *slice* of the execution that produced `root`
    /// (flowback analysis's full answer).
    pub fn backward_slice(&self, root: DynNodeId) -> Vec<DynNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.push(n);
            for (p, _) in self.dependence_preds(n) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        out.sort_by_key(|n| self.node(*n).seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc0() -> ProcId {
        ProcId(0)
    }

    fn singular(g: &mut DynamicGraph, stmt: u32, label: &str, value: i64, seq: u64) -> DynNodeId {
        g.add_node(
            DynNodeKind::Singular { stmt: StmtId(stmt) },
            proc0(),
            label,
            Some(Value::Int(value)),
            seq,
        )
    }

    #[test]
    fn nodes_and_edges_round_trip() {
        let mut g = DynamicGraph::new();
        let a = singular(&mut g, 0, "a = 1", 1, 0);
        let b = singular(&mut g, 1, "b = a + 1", 2, 1);
        g.add_edge(a, b, DynEdgeKind::Data { var: VarId(0) });
        g.add_edge(a, b, DynEdgeKind::Flow);
        assert_eq!(g.len(), 2);
        assert_eq!(g.edges().len(), 2);
        let deps = g.dependence_preds(b);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, a);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = DynamicGraph::new();
        let a = singular(&mut g, 0, "a", 1, 0);
        let b = singular(&mut g, 1, "b", 2, 1);
        g.add_edge(a, b, DynEdgeKind::Flow);
        g.add_edge(a, b, DynEdgeKind::Flow);
        assert_eq!(g.edges().len(), 1);
        // But a different kind between the same nodes is a new edge.
        g.add_edge(a, b, DynEdgeKind::Control);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn backward_slice_follows_dependences_only() {
        // a=1; b=2; c=a; (b unrelated to c)
        let mut g = DynamicGraph::new();
        let a = singular(&mut g, 0, "a = 1", 1, 0);
        let b = singular(&mut g, 1, "b = 2", 2, 1);
        let c = singular(&mut g, 2, "c = a", 1, 2);
        g.add_edge(a, b, DynEdgeKind::Flow);
        g.add_edge(b, c, DynEdgeKind::Flow);
        g.add_edge(a, c, DynEdgeKind::Data { var: VarId(0) });
        let slice = g.backward_slice(c);
        assert_eq!(slice, vec![a, c]);
    }

    #[test]
    fn last_node_by_seq() {
        let mut g = DynamicGraph::new();
        singular(&mut g, 0, "x", 1, 5);
        let later = singular(&mut g, 1, "y", 1, 9);
        singular(&mut g, 2, "z", 1, 7);
        assert_eq!(g.last_node_by(|_| true), Some(later));
        assert_eq!(g.last_node_by(|n| n.label == "nope"), None);
    }

    #[test]
    fn subgraph_expansion_tracking() {
        let mut g = DynamicGraph::new();
        let call = g.add_node(
            DynNodeKind::SubGraph { stmt: StmtId(4), func: FuncId(0), expanded: false },
            proc0(),
            "d = SubD(a, b, %3)",
            Some(Value::Int(-5)),
            3,
        );
        assert_eq!(g.unexpanded_subgraphs(), vec![call]);
        if let DynNodeKind::SubGraph { expanded, .. } = &mut g.node_mut(call).kind {
            *expanded = true;
        }
        assert!(g.unexpanded_subgraphs().is_empty());
    }
}

#[cfg(test)]
mod forward_tests {
    use super::*;

    #[test]
    fn forward_slice_mirrors_backward() {
        // a -> b -> c, plus unrelated d.
        let mut g = DynamicGraph::new();
        let mk = |g: &mut DynamicGraph, label: &str, seq: u64| {
            g.add_node(
                DynNodeKind::Singular { stmt: StmtId(seq as u32) },
                ProcId(0),
                label,
                None,
                seq,
            )
        };
        let a = mk(&mut g, "a", 0);
        let b = mk(&mut g, "b", 1);
        let c = mk(&mut g, "c", 2);
        let d = mk(&mut g, "d", 3);
        g.add_edge(a, b, DynEdgeKind::Data { var: VarId(0) });
        g.add_edge(b, c, DynEdgeKind::Control);
        g.add_edge(a, d, DynEdgeKind::Flow); // flow edges don't count
        assert_eq!(g.forward_slice(a), vec![a, b, c]);
        assert_eq!(g.forward_slice(d), vec![d]);
        // Adjoint: x in forward(a) iff a in backward(x).
        for x in [a, b, c, d] {
            assert_eq!(g.forward_slice(a).contains(&x), g.backward_slice(x).contains(&a));
        }
    }

    #[test]
    fn dependence_succs_excludes_flow() {
        let mut g = DynamicGraph::new();
        let a = g.add_node(DynNodeKind::Entry, ProcId(0), "e", None, 0);
        let b = g.add_node(DynNodeKind::Singular { stmt: StmtId(0) }, ProcId(0), "s", None, 1);
        g.add_edge(a, b, DynEdgeKind::Flow);
        assert!(g.dependence_succs(a).is_empty());
        g.add_edge(a, b, DynEdgeKind::ValueFlow);
        assert_eq!(g.dependence_succs(a).len(), 1);
    }
}
