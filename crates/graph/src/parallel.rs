//! The parallel dynamic program dependence graph (§6.1, Figure 6.1).
//!
//! A subset of the dynamic graph that "abstracts out the interactions
//! between processes while hiding the detailed dependences of local
//! events": its only node type is the **synchronization node**, and its
//! edges are **internal edges** (a chain of zero or more
//! non-synchronization events within one process — the execution of one
//! synchronization unit) and **synchronization edges** (causal pairs such
//! as a send and its receive).
//!
//! Each internal edge carries the READ/WRITE sets of shared variables its
//! events actually touched (Definition 6.2) — the inputs to race
//! detection.

use crate::order::Ordering as HbOrdering;
use ppd_analysis::{VarSet, VarSetRepr};
use ppd_lang::{ProcId, StmtId, VarId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense id of a synchronization node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SyncNodeId(pub u32);

impl SyncNodeId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SyncNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Dense id of an internal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InternalEdgeId(pub u32);

impl InternalEdgeId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InternalEdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What kind of synchronization event a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncNodeKind {
    /// Process creation (start of its first internal edge).
    ProcessStart,
    /// Process termination (end of its last internal edge).
    ProcessEnd,
    /// Semaphore wait completed.
    P,
    /// Semaphore signal.
    V,
    /// Lock acquired.
    Lock,
    /// Lock released.
    Unlock,
    /// A message send was initiated.
    Send,
    /// A message was received.
    Recv,
    /// A blocked sender was unblocked (the paper's n5, §6.2.2).
    Unblock,
    /// A rendezvous call was initiated.
    RendezvousCall,
    /// A rendezvous was accepted (callee side).
    Accept,
    /// The callee finished the accept block (start of the reply edge).
    AcceptEnd,
    /// The caller resumed after the rendezvous returned.
    RendezvousReturn,
}

/// A synchronization node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncNode {
    /// This node's id.
    pub id: SyncNodeId,
    /// The process it belongs to.
    pub proc: ProcId,
    /// What kind of event it is.
    pub kind: SyncNodeKind,
    /// The statement performing the operation, if any.
    pub stmt: Option<StmtId>,
    /// Global logical time of the event (interleaving position).
    pub time: u64,
}

/// An internal edge: the events of one synchronization-unit execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InternalEdge {
    /// This edge's id.
    pub id: InternalEdgeId,
    /// The process executing it.
    pub proc: ProcId,
    /// Start synchronization node.
    pub from: SyncNodeId,
    /// End synchronization node.
    pub to: SyncNodeId,
    /// Shared variables read by the edge's events (READ_SET, Def 6.2).
    pub reads: VarSet,
    /// Shared variables written (WRITE_SET).
    pub writes: VarSet,
    /// How many non-synchronization events the edge contains.
    pub events: u64,
}

/// A synchronization edge: a causal pair of synchronization events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncEdge {
    /// The initiating node.
    pub from: SyncNodeId,
    /// The terminating node.
    pub to: SyncNodeId,
    /// Why the edge exists.
    pub label: SyncEdgeLabel,
}

/// The synchronization-edge constructions of §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncEdgeLabel {
    /// A `v` that passed a semaphore to a later `p` (§6.2.1).
    Semaphore,
    /// A lock release enabling a later acquire.
    Mutex,
    /// A message delivery: send → recv (§6.2.2).
    Message,
    /// Receipt unblocking a blocking sender: recv → unblock.
    SendUnblock,
    /// Rendezvous call → accept (§6.2.3).
    RendezvousEntry,
    /// Accept end → caller return (§6.2.3).
    RendezvousExit,
}

/// The parallel dynamic graph of one execution instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParallelGraph {
    nodes: Vec<SyncNode>,
    internal: Vec<InternalEdge>,
    sync: Vec<SyncEdge>,
    /// Open internal edge per process (builder state), indexed by
    /// process id — accessed on every shared read/write, so dense.
    #[serde(skip)]
    open: Vec<Option<OpenEdge>>,
    universe: usize,
    /// Element-granular cell table: for each cell id, the owning
    /// variable and element index (`None` for scalar cells). Empty in
    /// graphs recorded before cell granularity existed; then every
    /// cell is its own owner.
    #[serde(default)]
    cells: Vec<(VarId, Option<u32>)>,
}

#[derive(Debug, Clone)]
struct OpenEdge {
    from: SyncNodeId,
    reads: VarSet,
    writes: VarSet,
    events: u64,
}

impl ParallelGraph {
    /// An empty graph over a program with `universe` variables.
    pub fn new(universe: usize) -> Self {
        ParallelGraph { universe, ..Self::default() }
    }

    /// An empty graph over an element-granular cell space. `cells`
    /// maps each cell id to its owning variable and element index
    /// (see `ppd_lang::CellMap::table`); `universe` is `cells.len()`.
    pub fn with_cells(universe: usize, cells: Vec<(VarId, Option<u32>)>) -> Self {
        ParallelGraph { universe, cells, ..Self::default() }
    }

    /// The variable that owns `cell`. Falls back to the identity for
    /// graphs without a cell table (every cell is a whole variable).
    pub fn owner_of(&self, cell: VarId) -> VarId {
        self.cells.get(cell.index()).map(|c| c.0).unwrap_or(cell)
    }

    /// The element index of an array cell; `None` for scalar cells
    /// and for graphs without a cell table.
    pub fn element_of(&self, cell: VarId) -> Option<u32> {
        self.cells.get(cell.index()).and_then(|c| c.1)
    }

    /// Starts a process: creates its `ProcessStart` node and opens its
    /// first internal edge. Returns the start node.
    pub fn start_process(&mut self, proc: ProcId, time: u64) -> SyncNodeId {
        let id = self.push_node(proc, SyncNodeKind::ProcessStart, None, time);
        if self.open.len() <= proc.index() {
            self.open.resize_with(proc.index() + 1, || None);
        }
        self.open[proc.index()] = Some(OpenEdge {
            from: id,
            reads: VarSet::empty(self.universe),
            writes: VarSet::empty(self.universe),
            events: 0,
        });
        id
    }

    /// Ends a process: closes its open internal edge at a `ProcessEnd`
    /// node.
    pub fn end_process(&mut self, proc: ProcId, time: u64) -> SyncNodeId {
        self.sync_point(proc, SyncNodeKind::ProcessEnd, None, time)
    }

    /// Records a shared-variable read on the process's open edge.
    #[inline]
    pub fn record_read(&mut self, proc: ProcId, var: VarId) {
        if let Some(Some(e)) = self.open.get_mut(proc.index()) {
            e.reads.insert(var);
        }
    }

    /// Records a shared-variable write on the process's open edge.
    #[inline]
    pub fn record_write(&mut self, proc: ProcId, var: VarId) {
        if let Some(Some(e)) = self.open.get_mut(proc.index()) {
            e.writes.insert(var);
        }
    }

    /// Records a non-synchronization event on the open edge.
    #[inline]
    pub fn record_event(&mut self, proc: ProcId) {
        if let Some(Some(e)) = self.open.get_mut(proc.index()) {
            e.events += 1;
        }
    }

    /// Closes the process's open internal edge at a new synchronization
    /// node of `kind`, and opens the next internal edge from that node.
    /// Returns the new node.
    ///
    /// # Panics
    ///
    /// Panics if the process has not been started.
    pub fn sync_point(
        &mut self,
        proc: ProcId,
        kind: SyncNodeKind,
        stmt: Option<StmtId>,
        time: u64,
    ) -> SyncNodeId {
        let node = self.push_node(proc, kind, stmt, time);
        let open = self
            .open
            .get_mut(proc.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("sync_point on unstarted process {proc}"));
        let id = InternalEdgeId(self.internal.len() as u32);
        self.internal.push(InternalEdge {
            id,
            proc,
            from: open.from,
            to: node,
            reads: open.reads,
            writes: open.writes,
            events: open.events,
        });
        if kind != SyncNodeKind::ProcessEnd {
            self.open[proc.index()] = Some(OpenEdge {
                from: node,
                reads: VarSet::empty(self.universe),
                writes: VarSet::empty(self.universe),
                events: 0,
            });
        }
        node
    }

    /// Adds a synchronization edge between two existing nodes.
    pub fn add_sync_edge(&mut self, from: SyncNodeId, to: SyncNodeId, label: SyncEdgeLabel) {
        self.sync.push(SyncEdge { from, to, label });
    }

    fn push_node(
        &mut self,
        proc: ProcId,
        kind: SyncNodeKind,
        stmt: Option<StmtId>,
        time: u64,
    ) -> SyncNodeId {
        let id = SyncNodeId(self.nodes.len() as u32);
        self.nodes.push(SyncNode { id, proc, kind, stmt, time });
        id
    }

    /// All synchronization nodes.
    pub fn nodes(&self) -> &[SyncNode] {
        &self.nodes
    }

    /// All internal edges.
    pub fn internal_edges(&self) -> &[InternalEdge] {
        &self.internal
    }

    /// All synchronization edges.
    pub fn sync_edges(&self) -> &[SyncEdge] {
        &self.sync
    }

    /// Node lookup.
    pub fn node(&self, id: SyncNodeId) -> &SyncNode {
        &self.nodes[id.index()]
    }

    /// Internal edge lookup.
    pub fn internal_edge(&self, id: InternalEdgeId) -> &InternalEdge {
        &self.internal[id.index()]
    }

    /// The program's variable-universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Successor nodes of `n` following internal then sync edges.
    pub fn succs(&self, n: SyncNodeId) -> Vec<SyncNodeId> {
        let mut out: Vec<SyncNodeId> =
            self.internal.iter().filter(|e| e.from == n).map(|e| e.to).collect();
        out.extend(self.sync.iter().filter(|e| e.from == n).map(|e| e.to));
        out
    }

    /// The paper's `→` on edges (§6.1): `e1 → e2` iff `end(e1) → start(e2)`
    /// under the node ordering `ord`.
    pub fn edge_precedes(
        &self,
        ord: &dyn HbOrdering,
        e1: InternalEdgeId,
        e2: InternalEdgeId,
    ) -> bool {
        let a = self.internal_edge(e1);
        let b = self.internal_edge(e2);
        ord.precedes(a.to, b.from)
    }

    /// Internal edges of one process, in execution order.
    pub fn edges_of_proc(&self, proc: ProcId) -> Vec<InternalEdgeId> {
        self.internal.iter().filter(|e| e.proc == proc).map(|e| e.id).collect()
    }
}

#[cfg(test)]
pub(crate) use tests::fig61_graph;

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the three-process shape of Figure 6.1: P1 writes SV then
    /// blocking-sends to P3; P2 writes SV; P3 receives then reads SV.
    pub(crate) fn fig61_graph() -> (ParallelGraph, Vec<InternalEdgeId>) {
        let sv = VarId(0);
        let (p1, p2, p3) = (ProcId(0), ProcId(1), ProcId(2));
        let mut g = ParallelGraph::new(1);
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            t
        };

        g.start_process(p1, tick());
        g.start_process(p2, tick());
        g.start_process(p3, tick());

        // P1: e1 writes SV, ends at the send node n3.
        g.record_write(p1, sv);
        g.record_event(p1);
        let n3 = g.sync_point(p1, SyncNodeKind::Send, Some(StmtId(1)), tick());

        // P2: e2 writes SV, runs to completion.
        g.record_write(p2, sv);
        g.record_event(p2);
        g.end_process(p2, tick());

        // P3: n4 receives the message.
        let n4 = g.sync_point(p3, SyncNodeKind::Recv, Some(StmtId(5)), tick());
        g.add_sync_edge(n3, n4, SyncEdgeLabel::Message);

        // Blocking send: P1 unblocks at n5 after the receive; the edge
        // between n3 and n5 contains zero events (the paper's e4).
        let n5 = g.sync_point(p1, SyncNodeKind::Unblock, None, tick());
        g.add_sync_edge(n4, n5, SyncEdgeLabel::SendUnblock);
        g.end_process(p1, tick());

        // P3: e3 reads SV after the receive.
        g.record_read(p3, sv);
        g.record_event(p3);
        g.end_process(p3, tick());

        // Internal edges in creation order:
        // 0: P1 start→n3 (e1, writes SV)
        // 1: P2 start→end (e2, writes SV)
        // 2: P3 start→n4 (empty)
        // 3: P1 n3→n5    (e4, zero events)
        // 4: P1 n5→end
        // 5: P3 n4→end   (e3, reads SV)
        let ids = g.internal_edges().iter().map(|e| e.id).collect();
        (g, ids)
    }

    #[test]
    fn fig61_edge_inventory() {
        let (g, ids) = fig61_graph();
        assert_eq!(ids.len(), 6);
        let e1 = g.internal_edge(ids[0]);
        assert_eq!(e1.writes.to_vec(), vec![VarId(0)]);
        assert!(e1.reads.is_empty());
        let e4 = g.internal_edge(ids[3]);
        assert_eq!(e4.events, 0, "caller suspended during blocking send");
        let e3 = g.internal_edge(ids[5]);
        assert_eq!(e3.reads.to_vec(), vec![VarId(0)]);
        assert_eq!(g.sync_edges().len(), 2);
    }

    #[test]
    fn open_edges_track_accesses() {
        let mut g = ParallelGraph::new(4);
        let p = ProcId(0);
        g.start_process(p, 0);
        g.record_read(p, VarId(1));
        g.record_write(p, VarId(2));
        g.record_event(p);
        g.record_event(p);
        g.end_process(p, 1);
        let e = &g.internal_edges()[0];
        assert_eq!(e.reads.to_vec(), vec![VarId(1)]);
        assert_eq!(e.writes.to_vec(), vec![VarId(2)]);
        assert_eq!(e.events, 2);
    }

    #[test]
    #[should_panic(expected = "unstarted process")]
    fn sync_point_requires_started_process() {
        let mut g = ParallelGraph::new(1);
        g.sync_point(ProcId(9), SyncNodeKind::P, None, 0);
    }

    #[test]
    fn edges_of_proc_ordered() {
        let (g, _) = fig61_graph();
        let p1_edges = g.edges_of_proc(ProcId(0));
        assert_eq!(p1_edges.len(), 3);
        // Consecutive edges chain: to(e_k) == from(e_{k+1}).
        for w in p1_edges.windows(2) {
            assert_eq!(g.internal_edge(w[0]).to, g.internal_edge(w[1]).from);
        }
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::order::VectorClocks;

    #[test]
    fn parallel_graph_serde_round_trip_preserves_races() {
        let (g, _) = crate::parallel::fig61_graph();
        let json = serde_json::to_string(&g).unwrap();
        let g2: ParallelGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.nodes().len(), g.nodes().len());
        assert_eq!(g2.internal_edges().len(), g.internal_edges().len());
        assert_eq!(g2.sync_edges().len(), g.sync_edges().len());
        let (o1, o2) = (VectorClocks::compute(&g), VectorClocks::compute(&g2));
        let r1 = crate::race::detect_races(&g, &o1, None);
        let r2 = crate::race::detect_races(&g2, &o2, None);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 2);
    }
}
