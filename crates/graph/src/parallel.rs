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
use std::fmt;

/// Dense id of a synchronization node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncEdge {
    /// The initiating node.
    pub from: SyncNodeId,
    /// The terminating node.
    pub to: SyncNodeId,
    /// Why the edge exists.
    pub label: SyncEdgeLabel,
}

/// The synchronization-edge constructions of §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default)]
pub struct ParallelGraph {
    nodes: Vec<SyncNode>,
    internal: Vec<InternalEdge>,
    sync: Vec<SyncEdge>,
    /// Open internal edge per process (builder state), indexed by
    /// process id — accessed on every shared read/write, so dense.
    open: Vec<Option<OpenEdge>>,
    universe: usize,
    /// Element-granular cell table: for each cell id, the owning
    /// variable and element index (`None` for scalar cells). Empty in
    /// graphs built by [`ParallelGraph::new`]; then every cell is its
    /// own owner.
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

    /// A recorded graph, checked: the graph a saved run's record holds,
    /// rebuilt from its parts with every edge closed. `procs` is the
    /// number of processes the run had.
    ///
    /// # Errors
    ///
    /// Describes the first violated rule: node and internal-edge ids
    /// are dense (`nodes[i].id == i`), every node's process is below
    /// `procs`, every edge joins two existing nodes and points from the
    /// lower id to the higher one (so the graph is acyclic, which
    /// [`VectorClocks`](crate::VectorClocks) relies on), an internal
    /// edge joins two nodes of its own process, every read/write set
    /// member is below `universe`, and the cell table is empty or has
    /// `universe` entries.
    pub fn from_recorded(
        procs: usize,
        universe: usize,
        cells: Vec<(VarId, Option<u32>)>,
        nodes: Vec<SyncNode>,
        internal: Vec<InternalEdge>,
        sync: Vec<SyncEdge>,
    ) -> Result<ParallelGraph, String> {
        if !cells.is_empty() && cells.len() != universe {
            return Err(format!("cell table has {} entries for {universe} cells", cells.len()));
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(format!("node {i} carries id {}", n.id));
            }
            if n.proc.index() >= procs {
                return Err(format!("node {} belongs to process {}, past {procs}", n.id, n.proc.0));
            }
        }
        let forward = |from: SyncNodeId, to: SyncNodeId| {
            if to.index() >= nodes.len() {
                Err(format!("ends at node {to}, past the {} nodes", nodes.len()))
            } else if from >= to {
                Err(format!("runs from {from} back to {to}"))
            } else {
                Ok(())
            }
        };
        for (i, e) in internal.iter().enumerate() {
            if e.id.index() != i {
                return Err(format!("internal edge {i} carries id {}", e.id));
            }
            forward(e.from, e.to).map_err(|m| format!("internal edge {} {m}", e.id))?;
            if nodes[e.from.index()].proc != e.proc || nodes[e.to.index()].proc != e.proc {
                return Err(format!("internal edge {} leaves process {}", e.id, e.proc.0));
            }
            let past = |set: &VarSet| set.to_vec().last().is_some_and(|v| v.index() >= universe);
            if past(&e.reads) || past(&e.writes) {
                return Err(format!("internal edge {} touches a cell past {universe}", e.id));
            }
        }
        for (i, e) in sync.iter().enumerate() {
            forward(e.from, e.to).map_err(|m| format!("sync edge {i} {m}"))?;
        }
        Ok(ParallelGraph { nodes, internal, sync, open: Vec::new(), universe, cells })
    }

    /// The element-granular cell table (see
    /// [`with_cells`](Self::with_cells)); empty for graphs built by
    /// [`new`](Self::new).
    pub fn cells(&self) -> &[(VarId, Option<u32>)] {
        &self.cells
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
mod recorded_tests {
    use super::*;

    type Parts =
        (usize, Vec<(VarId, Option<u32>)>, Vec<SyncNode>, Vec<InternalEdge>, Vec<SyncEdge>);

    /// Figure 6.1's graph taken apart, as a record holds it.
    fn parts() -> Parts {
        let (g, _) = fig61_graph();
        let (nodes, internal, sync) = (g.nodes.clone(), g.internal.clone(), g.sync.clone());
        (g.universe, vec![(VarId(0), None)], nodes, internal, sync)
    }

    fn rebuild(
        procs: usize,
        (universe, cells, nodes, internal, sync): Parts,
    ) -> Result<ParallelGraph, String> {
        ParallelGraph::from_recorded(procs, universe, cells, nodes, internal, sync)
    }

    #[test]
    fn recorded_parts_rebuild_the_graph() {
        let (g, _) = fig61_graph();
        let r = rebuild(3, parts()).unwrap();
        assert_eq!(r.nodes(), g.nodes());
        assert_eq!(r.internal_edges(), g.internal_edges());
        assert_eq!(r.sync_edges(), g.sync_edges());
        assert_eq!((r.universe(), r.cells()), (1, &[(VarId(0), None)][..]));
        let empty = parts();
        assert!(rebuild(3, (empty.0, Vec::new(), empty.2, empty.3, empty.4)).is_ok());
    }

    #[test]
    fn recorded_graph_rules_reject_hostile_parts() {
        let reject = |edit: &dyn Fn(&mut Parts), needle: &str| {
            let mut p = parts();
            edit(&mut p);
            let err = rebuild(3, p).unwrap_err();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        };
        reject(&|p| p.2[1].id = SyncNodeId(7), "node 1 carries id n7");
        reject(&|p| p.3.swap(0, 1), "internal edge 0 carries id e1");
        reject(&|p| p.2[2].proc = ProcId(3), "process 3, past 3");
        reject(&|p| p.2[2].proc = ProcId(u32::MAX), "past 3");
        reject(&|p| p.3[0].to = SyncNodeId(99999), "ends at node n99999, past the 9 nodes");
        reject(&|p| p.4[0].to = SyncNodeId(9), "ends at node n9");
        reject(
            &|p| {
                let e = &mut p.3[5];
                (e.from, e.to) = (e.to, e.from);
            },
            "internal edge e5 runs from n8 back to n5",
        );
        reject(&|p| p.4[1].from = p.4[1].to, "sync edge 1 runs from n6 back to n6");
        reject(&|p| p.3[1].proc = ProcId(0), "internal edge e1 leaves process 0");
        reject(&|p| _ = p.3[2].reads.insert(VarId(1)), "touches a cell past 1");
        reject(&|p| _ = p.3[2].writes.insert(VarId(4000)), "touches a cell past 1");
        reject(&|p| p.1.push((VarId(0), Some(0))), "cell table has 2 entries for 1 cells");
    }
}
