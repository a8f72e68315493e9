//! Ordering concurrent events (§6.1, after Lamport \[25\]).
//!
//! The partial order `→` on synchronization nodes: `n1 → n2` iff `n2` is
//! reachable from `n1` by any sequence of internal and synchronization
//! edges. Two implementations:
//!
//! - [`TransitiveClosure`] — explicit per-node reachability bitsets, the
//!   straightforward structure whose cost §7 worries about;
//! - [`VectorClocks`] — one clock per process; `n1 → n2` iff
//!   `clock(n1) ≤ clock(n2)` component-wise (and `n1 ≠ n2`).
//!
//! Experiment **E4** benchmarks the two; a property test checks they
//! agree on randomized graphs.

use crate::parallel::{ParallelGraph, SyncNodeId};
use ppd_analysis::dataflow::BitSet;

/// A happened-before oracle over a parallel dynamic graph's nodes.
pub trait Ordering {
    /// Whether `a → b` (strictly: `a != b` and `b` reachable from `a`).
    fn precedes(&self, a: SyncNodeId, b: SyncNodeId) -> bool;

    /// Whether the two nodes are concurrent (neither precedes the other).
    fn concurrent(&self, a: SyncNodeId, b: SyncNodeId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }
}

/// Reachability by explicit transitive closure.
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    reach: Vec<BitSet>,
}

impl TransitiveClosure {
    /// Computes per-node reachability with one BFS per node:
    /// O(V·(V+E)) time, O(V²) bits of space.
    pub fn compute(graph: &ParallelGraph) -> TransitiveClosure {
        let n = graph.nodes().len();
        // Adjacency once.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in graph.internal_edges() {
            adj[e.from.index()].push(e.to.index());
        }
        for e in graph.sync_edges() {
            adj[e.from.index()].push(e.to.index());
        }
        let mut reach = vec![BitSet::empty(n); n];
        // Process nodes in reverse topological order so each node can
        // reuse its successors' sets. The graph is a DAG (time moves
        // forward), so a simple DFS postorder works.
        let order = topo_order(&adj);
        for &v in &order {
            let mut set = BitSet::empty(n);
            for &w in &adj[v] {
                set.insert(w);
                let succ = reach[w].clone();
                set.union_with(&succ);
            }
            reach[v] = set;
        }
        TransitiveClosure { reach }
    }
}

fn topo_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut state = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        state[root] = 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                if state[w] == 0 {
                    state[w] = 1;
                    stack.push((w, 0));
                }
            } else {
                state[v] = 2;
                order.push(v);
                stack.pop();
            }
        }
    }
    order
}

impl Ordering for TransitiveClosure {
    fn precedes(&self, a: SyncNodeId, b: SyncNodeId) -> bool {
        a != b && self.reach[a.index()].contains(b.index())
    }
}

/// Reachability via vector clocks: O(V·P) space for P processes.
#[derive(Debug, Clone)]
pub struct VectorClocks {
    /// Row-major `[node][proc]`: the number of that process's nodes
    /// known to happen-before-or-equal the node. One allocation, so an
    /// execution can keep its clocks cached cheaply.
    clocks: Vec<u32>,
    procs: usize,
}

impl VectorClocks {
    /// Computes vector clocks by one topological sweep.
    pub fn compute(graph: &ParallelGraph) -> VectorClocks {
        let n = graph.nodes().len();
        let procs = graph.nodes().iter().map(|nd| nd.proc.index() + 1).max().unwrap_or(0);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in graph.internal_edges() {
            adj[e.from.index()].push(e.to.index());
            preds[e.to.index()].push(e.from.index());
        }
        for e in graph.sync_edges() {
            adj[e.from.index()].push(e.to.index());
            preds[e.to.index()].push(e.from.index());
        }
        let mut order = topo_order(&adj);
        order.reverse(); // predecessors first

        let mut clocks = vec![0u32; n * procs];
        let mut proc_counter = vec![0u32; procs];
        let mut clock = vec![0u32; procs];
        for &v in &order {
            let p = graph.nodes()[v].proc.index();
            clock.fill(0);
            for &u in &preds[v] {
                for (c, &uc) in clock.iter_mut().zip(&clocks[u * procs..(u + 1) * procs]) {
                    *c = (*c).max(uc);
                }
            }
            proc_counter[p] += 1;
            clock[p] = clock[p].max(proc_counter[p]);
            clocks[v * procs..(v + 1) * procs].copy_from_slice(&clock);
        }
        VectorClocks { clocks, procs }
    }

    /// The clock of a node (test/diagnostic use).
    pub fn clock(&self, n: SyncNodeId) -> &[u32] {
        &self.clocks[n.index() * self.procs..(n.index() + 1) * self.procs]
    }

    /// Number of processes covered.
    pub fn procs(&self) -> usize {
        self.procs
    }
}

impl Ordering for VectorClocks {
    fn precedes(&self, a: SyncNodeId, b: SyncNodeId) -> bool {
        if a == b {
            return false;
        }
        let (ca, cb) = (self.clock(a), self.clock(b));
        let mut strictly_less = false;
        for (x, y) in ca.iter().zip(cb) {
            if x > y {
                return false;
            }
            if x < y {
                strictly_less = true;
            }
        }
        strictly_less
    }
}

#[cfg(test)]
pub(crate) use tests::random_graph;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::fig61_graph;
    use crate::parallel::{SyncEdgeLabel, SyncNodeKind};
    use ppd_lang::ProcId;

    #[test]
    fn fig61_message_orders_e1_before_e3() {
        let (g, ids) = fig61_graph();
        for ord in orderings(&g) {
            // e1 (P1's first edge) precedes e3 (P3's read edge) through
            // the message sync edge.
            assert!(g.edge_precedes(ord.as_ref(), ids[0], ids[5]));
            assert!(!g.edge_precedes(ord.as_ref(), ids[5], ids[0]));
            // e2 (P2) is concurrent with both e1 and e3.
            assert!(!g.edge_precedes(ord.as_ref(), ids[1], ids[0]));
            assert!(!g.edge_precedes(ord.as_ref(), ids[0], ids[1]));
            assert!(!g.edge_precedes(ord.as_ref(), ids[1], ids[5]));
            assert!(!g.edge_precedes(ord.as_ref(), ids[5], ids[1]));
        }
    }

    fn orderings(g: &ParallelGraph) -> Vec<Box<dyn Ordering>> {
        vec![Box::new(TransitiveClosure::compute(g)), Box::new(VectorClocks::compute(g))]
    }

    #[test]
    fn program_order_within_process() {
        let (g, _) = fig61_graph();
        for ord in orderings(&g) {
            // Every process's nodes are totally ordered among themselves.
            for p in 0..3 {
                let nodes: Vec<_> =
                    g.nodes().iter().filter(|n| n.proc == ProcId(p)).map(|n| n.id).collect();
                for w in nodes.windows(2) {
                    assert!(ord.precedes(w[0], w[1]), "proc {p}: {} -> {}", w[0], w[1]);
                    assert!(!ord.precedes(w[1], w[0]));
                }
            }
        }
    }

    #[test]
    fn irreflexive() {
        let (g, _) = fig61_graph();
        for ord in orderings(&g) {
            for n in g.nodes() {
                assert!(!ord.precedes(n.id, n.id));
                assert!(!ord.concurrent(n.id, n.id));
            }
        }
    }

    /// Deterministic pseudo-random parallel graphs for the equivalence
    /// check.
    pub(crate) fn random_graph(seed: u64, procs: u32, syncs_per_proc: u32) -> ParallelGraph {
        let mut g = ParallelGraph::new(4);
        let mut t = 0u64;
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut nodes_by_proc: Vec<Vec<SyncNodeId>> = Vec::new();
        for p in 0..procs {
            t += 1;
            let start = g.start_process(ProcId(p), t);
            nodes_by_proc.push(vec![start]);
        }
        for p in 0..procs {
            for _ in 0..syncs_per_proc {
                t += 1;
                let kind = if rng() % 2 == 0 { SyncNodeKind::V } else { SyncNodeKind::P };
                let n = g.sync_point(ProcId(p), kind, None, t);
                nodes_by_proc[p as usize].push(n);
            }
        }
        // Random cross-process sync edges that respect time (from earlier
        // node to strictly later node) to keep the graph acyclic.
        for _ in 0..(procs * syncs_per_proc) {
            let p1 = (rng() % procs as u64) as usize;
            let p2 = (rng() % procs as u64) as usize;
            if p1 == p2 {
                continue;
            }
            let a = nodes_by_proc[p1][(rng() % nodes_by_proc[p1].len() as u64) as usize];
            let b = nodes_by_proc[p2][(rng() % nodes_by_proc[p2].len() as u64) as usize];
            if g.node(a).time < g.node(b).time {
                g.add_sync_edge(a, b, SyncEdgeLabel::Semaphore);
            }
        }
        for p in 0..procs {
            t += 1;
            g.end_process(ProcId(p), t);
        }
        g
    }

    #[test]
    fn closure_and_vector_clocks_agree_on_random_graphs() {
        for seed in 0..25u64 {
            let g = random_graph(seed, 4, 6);
            let tc = TransitiveClosure::compute(&g);
            let vc = VectorClocks::compute(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(
                        tc.precedes(a.id, b.id),
                        vc.precedes(a.id, b.id),
                        "seed {seed}: disagree on {} -> {}",
                        a.id,
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    fn ordering_respects_time_monotonicity() {
        // If a → b then a's logical time is strictly smaller: the
        // interleaving that produced the graph is a linear extension.
        for seed in 0..10u64 {
            let g = random_graph(seed, 3, 5);
            let tc = TransitiveClosure::compute(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    if tc.precedes(a.id, b.id) {
                        assert!(a.time < b.time, "seed {seed}");
                    }
                }
            }
        }
    }
}
