//! Building dynamic-graph fragments from emulation-package traces
//! (§3.2.3, §4.2).
//!
//! The PPD Controller feeds the trace of one replayed e-block interval
//! into the [`GraphBuilder`]; the builder turns events into dynamic-graph
//! nodes and wires flow, data-dependence, control-dependence and
//! value-flow edges, using the static control dependences and the actual
//! cells each event read.
//!
//! Substituted calls (§5.2) become *unexpanded* sub-graph nodes; skipped
//! loops become unexpanded loop nodes. The Controller can later expand
//! either by replaying the nested interval and feeding it with
//! `attach_to` pointing at the node.
//!
//! Node labels are copied from the session's statement-label table,
//! which is rendered once per session at the first feed, so a feed
//! never pretty-prints a statement.

use crate::session::PpdSession;
use ppd_analysis::{EBlockId, VarSetRepr};
use ppd_graph::{DynEdgeKind, DynNodeId, DynNodeKind, DynamicGraph};
use ppd_lang::{BodyId, ProcId, StmtId, Value, VarId};
use ppd_runtime::{CellRef, EventKind, ReadSource, TraceEvent};
use std::collections::HashMap;

/// A substituted (unexpanded) node produced during a feed, with the key
/// the Controller needs to locate the corresponding nested log interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstitutedRef {
    /// The unexpanded sub-graph/loop node.
    pub node: DynNodeId,
    /// The e-block whose interval was substituted.
    pub eblock: EBlockId,
    /// Which occurrence of that e-block this was within the feed
    /// (matches the order of direct child intervals in the log).
    pub ordinal: usize,
}

/// What one feed added to the graph.
#[derive(Debug, Clone)]
pub struct FeedReport {
    /// The process the fragment belongs to.
    pub proc: ProcId,
    /// Nodes added, in creation order.
    pub nodes: Vec<DynNodeId>,
    /// The fragment's last node (the root of the inverted tree the
    /// debugger presents first, §3.2.3).
    pub root: Option<DynNodeId>,
    /// Unexpanded nodes available for §5.2 expansion.
    pub substituted: Vec<SubstitutedRef>,
    /// The fragment's entry node.
    pub entry: DynNodeId,
    /// The last node that wrote each variable within the fragment — the
    /// hook for cross-process data edges (§5.6).
    pub last_writes: HashMap<VarId, DynNodeId>,
}

struct FrameCtx {
    body: BodyId,
    entry: DynNodeId,
    /// Most recent instance node of each predicate statement.
    preds: HashMap<StmtId, DynNodeId>,
    /// The sub-graph node this frame hangs off, if any.
    subgraph: Option<DynNodeId>,
    /// The frame's most recent `return` node.
    last_return: Option<DynNodeId>,
}

/// Incremental dynamic-graph builder.
pub struct GraphBuilder<'p> {
    session: &'p PpdSession,
    graph: DynamicGraph,
}

impl<'p> GraphBuilder<'p> {
    /// Creates an empty builder over a prepared program.
    pub fn new(session: &'p PpdSession) -> GraphBuilder<'p> {
        GraphBuilder { session, graph: DynamicGraph::new() }
    }

    /// The graph built so far.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Mutable access (the Controller marks nodes expanded).
    pub fn graph_mut(&mut self) -> &mut DynamicGraph {
        &mut self.graph
    }

    /// Feeds the trace of one replayed interval.
    ///
    /// `body` is the body the interval's region belongs to; `attach_to`
    /// is the unexpanded node this fragment expands, if any.
    pub fn feed(
        &mut self,
        proc: ProcId,
        body: BodyId,
        events: &[TraceEvent],
        attach_to: Option<DynNodeId>,
    ) -> FeedReport {
        let mut st = FeedState {
            proc,
            def_map: HashMap::new(),
            var_fallback: HashMap::new(),
            call_nodes: HashMap::new(),
            frames: Vec::new(),
            pending_substituted: None,
            prev: None,
            nodes: Vec::new(),
            substituted: Vec::new(),
            sub_counts: HashMap::new(),
        };
        let entry_label = format!("ENTRY {}", self.session.rp().body_name(body));
        let entry = self.graph.add_node(DynNodeKind::Entry, proc, entry_label, None, 0);
        st.nodes.push(entry);
        if let Some(parent) = attach_to {
            self.graph.add_edge(parent, entry, DynEdgeKind::Control);
        }
        st.frames.push(FrameCtx {
            body,
            entry,
            preds: HashMap::new(),
            subgraph: attach_to,
            last_return: None,
        });

        for event in events {
            self.consume(&mut st, event);
        }

        // If the fragment expanded a node, mark it and wire the returned
        // value out of it (%0).
        if let Some(parent) = attach_to {
            if let Some(root_frame) = st.frames.first() {
                if let Some(ret) = root_frame.last_return {
                    self.graph.add_edge(ret, parent, DynEdgeKind::ValueFlow);
                }
            }
            match &mut self.graph.node_mut(parent).kind {
                DynNodeKind::SubGraph { expanded, .. }
                | DynNodeKind::LoopGraph { expanded, .. } => *expanded = true,
                _ => {}
            }
        }

        let root = st
            .nodes
            .iter()
            .copied()
            .rfind(|n| !matches!(self.graph.node(*n).kind, DynNodeKind::Entry));
        // Final writer per variable: prefer concrete cell defs (latest by
        // node seq), fall back to substituted nodes.
        let mut last_writes: HashMap<VarId, DynNodeId> = st.var_fallback.clone();
        for (cell, node) in &st.def_map {
            let candidate = *node;
            match last_writes.get(&cell.var) {
                Some(&cur) if self.graph.node(cur).seq >= self.graph.node(candidate).seq => {}
                _ => {
                    last_writes.insert(cell.var, candidate);
                }
            }
        }
        FeedReport { proc, root, entry, nodes: st.nodes, substituted: st.substituted, last_writes }
    }

    fn label_of(&self, stmt: StmtId) -> String {
        self.session
            .statement_labels()
            .get(stmt.index())
            .cloned()
            .unwrap_or_else(|| stmt.to_string())
    }

    fn consume(&mut self, st: &mut FeedState, event: &TraceEvent) {
        match &event.kind {
            EventKind::Assign
            | EventKind::Print
            | EventKind::AssertPass
            | EventKind::AssertFail
            | EventKind::Failure { .. }
            | EventKind::Sync { .. } => {
                let mut label = self.label_of(event.stmt);
                if matches!(event.kind, EventKind::AssertFail) {
                    label.push_str("  [FAILED]");
                }
                if let EventKind::Failure { message } = &event.kind {
                    label.push_str(&format!("  [FAILED: {message}]"));
                }
                let node = self.singular(st, event, label);
                if let Some((cell, _)) = event.write {
                    st.def_map.insert(cell, node);
                }
            }
            EventKind::Predicate { .. } => {
                let node = self.singular(st, event, self.label_of(event.stmt));
                st.frame_mut().preds.insert(event.stmt, node);
            }
            EventKind::Return => {
                let node = self.singular(st, event, self.label_of(event.stmt));
                st.frame_mut().last_return = Some(node);
            }
            EventKind::CallEnter { func, args, substituted } => {
                let node = self.graph.add_node(
                    DynNodeKind::SubGraph { stmt: event.stmt, func: *func, expanded: !substituted },
                    st.proc,
                    self.label_of(event.stmt),
                    None,
                    event.seq,
                );
                st.nodes.push(node);
                self.wire_common(st, event, node);
                st.call_nodes.insert(event.seq, node);

                if *substituted {
                    // Fictional %n nodes only for expression arguments
                    // (Figure 4.1's %3); plain variables wire directly.
                    for (i, (value, reads)) in args.iter().enumerate() {
                        let sources = self.resolve_all(st, reads);
                        if reads.len() == 1 && sources.len() == 1 {
                            self.data_edge(st, sources[0], node, &reads[0]);
                        } else if !sources.is_empty() {
                            let p = self.param_node(st, i + 1, *value, event.seq);
                            for r in reads {
                                if let Resolved::Node(src) = self.resolve(st, r) {
                                    self.data_edge(st, src, p, r);
                                }
                            }
                            self.graph.add_edge(p, node, DynEdgeKind::ValueFlow);
                        }
                    }
                    // The callee may have written shared variables; later
                    // reads of them depend on this node.
                    let eb = self
                        .session
                        .plan()
                        .body_eblock(BodyId::Func(*func))
                        .expect("substituted calls have e-blocks");
                    self.invalidate_defined(st, eb, node);
                    let ordinal = st.bump_sub(eb);
                    st.substituted.push(SubstitutedRef { node, eblock: eb, ordinal });
                    st.pending_substituted = Some(node);
                } else {
                    // Expanded call: create %n nodes for every parameter
                    // and bind the callee's parameter cells to them.
                    let rp = self.session.rp();
                    let params = rp.funcs[func.index()].params.clone();
                    let callee_entry_label = format!("ENTRY {}", rp.func_name(*func));
                    let centry = self.graph.add_node(
                        DynNodeKind::Entry,
                        st.proc,
                        callee_entry_label,
                        None,
                        event.seq,
                    );
                    st.nodes.push(centry);
                    self.graph.add_edge(node, centry, DynEdgeKind::Control);
                    for (i, (value, reads)) in args.iter().enumerate() {
                        let p = self.param_node(st, i + 1, *value, event.seq);
                        for r in reads {
                            if let Resolved::Node(src) = self.resolve(st, r) {
                                self.data_edge(st, src, p, r);
                            }
                        }
                        self.graph.add_edge(p, node, DynEdgeKind::ValueFlow);
                        if let Some(param_var) = params.get(i) {
                            st.def_map.insert(CellRef::scalar(*param_var), p);
                        }
                    }
                    st.frames.push(FrameCtx {
                        body: BodyId::Func(*func),
                        entry: centry,
                        preds: HashMap::new(),
                        subgraph: Some(node),
                        last_return: None,
                    });
                }
                st.prev = Some(node);
            }
            EventKind::CallExit { ret, .. } => {
                if let Some(node) = st.pending_substituted.take() {
                    self.graph.node_mut(node).value = ret.map(Value::Int);
                    return;
                }
                if st.frames.len() > 1 {
                    let frame = st.frames.pop().expect("checked");
                    if let Some(sub) = frame.subgraph {
                        self.graph.node_mut(sub).value = ret.map(Value::Int);
                        if let Some(r) = frame.last_return {
                            self.graph.add_edge(r, sub, DynEdgeKind::ValueFlow);
                        }
                        st.prev = Some(sub);
                    }
                }
            }
            EventKind::LoopSubstituted { eblock } => {
                let stmt = match &self.session.plan().eblock(*eblock).region {
                    ppd_analysis::Region::Loop { stmt, .. } => *stmt,
                    _ => event.stmt,
                };
                let node = self.graph.add_node(
                    DynNodeKind::LoopGraph { stmt, expanded: false },
                    st.proc,
                    format!("loop: {}", self.label_of(stmt)),
                    None,
                    event.seq,
                );
                st.nodes.push(node);
                self.wire_common(st, event, node);
                self.invalidate_defined(st, *eblock, node);
                let ordinal = st.bump_sub(*eblock);
                st.substituted.push(SubstitutedRef { node, eblock: *eblock, ordinal });
                st.prev = Some(node);
            }
        }
    }

    /// Creates a singular node with the standard wiring.
    fn singular(&mut self, st: &mut FeedState, event: &TraceEvent, label: String) -> DynNodeId {
        let node = self.graph.add_node(
            DynNodeKind::Singular { stmt: event.stmt },
            st.proc,
            label,
            event.value.map(Value::Int),
            event.seq,
        );
        st.nodes.push(node);
        self.wire_common(st, event, node);
        st.prev = Some(node);
        node
    }

    /// Flow edge, data edges from the event's reads, and control edge.
    fn wire_common(&mut self, st: &mut FeedState, event: &TraceEvent, node: DynNodeId) {
        if let Some(prev) = st.prev {
            self.graph.add_edge(prev, node, DynEdgeKind::Flow);
        }
        // Data dependences.
        for read in &event.reads {
            match self.resolve(st, read) {
                Resolved::Node(src) => self.data_edge(st, src, node, read),
                Resolved::Outside(var) => {
                    // Value came from before the fragment (prelog) or
                    // another process: hang it off the fragment entry so
                    // the Controller can extend it (§5.6).
                    let entry = st.frames.first().expect("root frame").entry;
                    self.graph.add_edge(entry, node, DynEdgeKind::Data { var });
                }
                Resolved::External => {}
            }
        }
        // Control dependence: the most recent instance of each static
        // controlling predicate; entry-dependent statements hang off the
        // frame's entry (or its sub-graph node).
        let frame = st.frames.last().expect("frame");
        let parents = self.session.analyses().control_deps(frame.body).parents(event.stmt);
        let mut wired = false;
        for &(pred_stmt, _) in parents {
            if let Some(&pnode) = frame.preds.get(&pred_stmt) {
                if pnode != node {
                    self.graph.add_edge(pnode, node, DynEdgeKind::Control);
                    wired = true;
                }
            }
        }
        if !wired {
            self.graph.add_edge(frame.entry, node, DynEdgeKind::Control);
        }
    }

    fn data_edge(&mut self, _st: &FeedState, src: DynNodeId, dst: DynNodeId, read: &ReadSource) {
        let kind = match read {
            ReadSource::Cell(cell) => DynEdgeKind::Data { var: cell.var },
            _ => DynEdgeKind::ValueFlow,
        };
        if src != dst {
            self.graph.add_edge(src, dst, kind);
        }
    }

    fn resolve_all(&self, st: &FeedState, reads: &[ReadSource]) -> Vec<DynNodeId> {
        reads
            .iter()
            .filter_map(|r| match self.resolve(st, r) {
                Resolved::Node(n) => Some(n),
                _ => None,
            })
            .collect()
    }

    fn resolve(&self, st: &FeedState, read: &ReadSource) -> Resolved {
        match read {
            ReadSource::Cell(cell) => {
                if let Some(&n) = st.def_map.get(cell) {
                    return Resolved::Node(n);
                }
                if let Some(&n) = st.var_fallback.get(&cell.var) {
                    return Resolved::Node(n);
                }
                Resolved::Outside(cell.var)
            }
            ReadSource::CallResult { call_seq } => match st.call_nodes.get(call_seq) {
                Some(&n) => Resolved::Node(n),
                None => Resolved::External,
            },
            ReadSource::External => Resolved::External,
        }
    }

    fn param_node(&mut self, st: &mut FeedState, index: usize, value: i64, seq: u64) -> DynNodeId {
        let node = self.graph.add_node(
            DynNodeKind::Param { index },
            st.proc,
            format!("%{index}"),
            Some(Value::Int(value)),
            seq,
        );
        st.nodes.push(node);
        node
    }

    /// After a substitution, reads of anything the skipped region may
    /// have written must depend on the substituted node.
    fn invalidate_defined(&mut self, st: &mut FeedState, eb: EBlockId, node: DynNodeId) {
        for var in self.session.plan().eblock(eb).defined.to_vec() {
            st.def_map.retain(|cell, _| cell.var != var);
            st.var_fallback.insert(var, node);
        }
    }
}

enum Resolved {
    Node(DynNodeId),
    Outside(VarId),
    External,
}

struct FeedState {
    proc: ProcId,
    def_map: HashMap<CellRef, DynNodeId>,
    var_fallback: HashMap<VarId, DynNodeId>,
    call_nodes: HashMap<u64, DynNodeId>,
    frames: Vec<FrameCtx>,
    pending_substituted: Option<DynNodeId>,
    prev: Option<DynNodeId>,
    nodes: Vec<DynNodeId>,
    substituted: Vec<SubstitutedRef>,
    sub_counts: HashMap<EBlockId, usize>,
}

impl FeedState {
    fn frame_mut(&mut self) -> &mut FrameCtx {
        self.frames.last_mut().expect("frame stack never empty")
    }

    fn bump_sub(&mut self, eb: EBlockId) -> usize {
        let c = self.sub_counts.entry(eb).or_insert(0);
        let ord = *c;
        *c += 1;
        ord
    }
}
