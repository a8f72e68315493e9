//! Property-based tests on the graph algorithms: the two
//! happened-before implementations agree, the naive and staged race
//! scans agree, the one-pass stage counter matches a counted scan per
//! stage, and the ordering axioms of §6.1 hold on randomized parallel
//! dynamic graphs. The dynamic dependence graph's adjacency queries
//! answer exactly what its edge list says, in insertion order.

mod common;

use common::race_oracle;
use ppd::analysis::{BitVarSet, ListVarSet, VarSetRepr};
use ppd::graph::{
    candidates_from_graph, detect_races, detect_races_naive, stage_pairs, DynEdgeKind, DynNodeId,
    DynNodeKind, DynamicGraph, Ordering as Hb, ParallelGraph, RaceCandidates, SyncEdgeLabel,
    SyncNodeKind, TransitiveClosure, VectorClocks,
};
use ppd::lang::{ProcId, StmtId, VarId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Builds a random — but always acyclic — parallel dynamic graph with
/// shared-variable accesses sprinkled on its internal edges.
fn random_pgraph(script: &[u8], procs: u32, vars: u32) -> ParallelGraph {
    let mut g = ParallelGraph::new(vars as usize);
    let mut t = 0u64;
    let mut nodes_by_proc: Vec<Vec<ppd::graph::SyncNodeId>> = Vec::new();
    for p in 0..procs {
        t += 1;
        let start = g.start_process(ProcId(p), t);
        nodes_by_proc.push(vec![start]);
    }
    let mut i = 0;
    while i + 3 < script.len() {
        let p = (script[i] % procs as u8) as u32;
        let action = script[i + 1] % 4;
        let var = VarId((script[i + 2] % vars as u8) as u32);
        match action {
            0 => g.record_read(ProcId(p), var),
            1 => {
                g.record_write(ProcId(p), var);
                g.record_event(ProcId(p));
            }
            2 => {
                t += 1;
                let n = g.sync_point(ProcId(p), SyncNodeKind::V, None, t);
                nodes_by_proc[p as usize].push(n);
            }
            _ => {
                // A cross-process sync edge that respects time (acyclic).
                let q = (script[i + 3] % procs as u8) as u32;
                if q != p {
                    let from_pool = &nodes_by_proc[p as usize];
                    let from = from_pool[(script[i + 2] as usize) % from_pool.len()];
                    t += 1;
                    let to = g.sync_point(ProcId(q), SyncNodeKind::P, None, t);
                    nodes_by_proc[q as usize].push(to);
                    if g.node(from).time < g.node(to).time {
                        g.add_sync_edge(from, to, SyncEdgeLabel::Semaphore);
                    }
                }
            }
        }
        i += 4;
    }
    for p in 0..procs {
        t += 1;
        g.end_process(ProcId(p), t);
    }
    g
}

/// A random candidate index over `vars` variables and `procs` processes:
/// bit `k` of the byte stream decides the `k`-th `(var, p, q)`
/// combination, so independently drawn indexes are generally not nested.
fn random_index(bits: &[u8], procs: u32, vars: u32) -> RaceCandidates {
    let mut out = RaceCandidates::new();
    let mut k = 0;
    for v in 0..vars {
        for p in 0..procs {
            for q in p + 1..procs {
                if bits.get(k / 8).is_some_and(|b| b >> (k % 8) & 1 == 1) {
                    out.insert(VarId(v), ProcId(p), ProcId(q));
                }
                k += 1;
            }
        }
    }
    out
}

#[test]
fn naive_pair_count_is_the_closed_form() {
    // Σ_{p<q} nₚ·n_q from per-process edge counts equals the O(E²)
    // all-pairs loop. Script action 2 cuts a process's current edge at a
    // new sync node.
    let single = random_pgraph(&[0, 2, 0, 0, 0, 2, 0, 0], 1, 1); // 3 edges
    let two = random_pgraph(&[0, 2, 0, 0, 0, 2, 0, 0, 1, 2, 0, 0], 2, 1); // 3 + 2 edges
    for (g, pairs) in [(ParallelGraph::new(1), 0), (single, 0), (two, 6)] {
        assert_eq!(race_oracle::naive_pairs(&g), pairs);
        assert_eq!(stage_pairs(&g, &[]).naive, pairs);
    }
}

/// Drives a random script of `add_node`/`add_edge` calls over a few
/// nodes, so exact `(from, to, kind)` repeats and same-pair edges of
/// different kinds are common. Returns the graph and every `add_edge`
/// call in the order it was made.
fn random_dyngraph(script: &[u8]) -> (DynamicGraph, Vec<(DynNodeId, DynNodeId, DynEdgeKind)>) {
    const KINDS: [DynEdgeKind; 6] = [
        DynEdgeKind::Flow,
        DynEdgeKind::Data { var: VarId(0) },
        DynEdgeKind::Data { var: VarId(1) },
        DynEdgeKind::Control,
        DynEdgeKind::Sync,
        DynEdgeKind::ValueFlow,
    ];
    let mut g = DynamicGraph::new();
    let mut calls = Vec::new();
    for op in script.chunks_exact(3) {
        if g.is_empty() || op[0] % 4 == 0 {
            // Seqs repeat and arrive out of order, as across processes.
            let seq = u64::from(op[1] % 16);
            let kind = DynNodeKind::Singular { stmt: StmtId(u32::from(op[2])) };
            g.add_node(kind, ProcId(0), format!("n{}", g.len()), None, seq);
        } else {
            let n = g.len() as u32;
            let from = DynNodeId(u32::from(op[1]) % n);
            let to = DynNodeId(u32::from(op[2] >> 3) % n);
            let kind = KINDS[usize::from(op[2] & 7) % KINDS.len()];
            g.add_edge(from, to, kind);
            calls.push((from, to, kind));
        }
    }
    (g, calls)
}

/// The nodes reachable from `root` over non-flow edges, walking edges
/// forward or backward, by naive fixpoint over the edge list.
fn reachable(g: &DynamicGraph, root: DynNodeId, forward: bool) -> BTreeSet<DynNodeId> {
    let mut seen = BTreeSet::from([root]);
    loop {
        let before = seen.len();
        for &(from, to, kind) in g.edges() {
            let (near, far) = if forward { (from, to) } else { (to, from) };
            if kind != DynEdgeKind::Flow && seen.contains(&near) {
                seen.insert(far);
            }
        }
        if seen.len() == before {
            return seen;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn closure_equals_vector_clocks(
        script in proptest::collection::vec(any::<u8>(), 8..160),
        procs in 2u32..5,
    ) {
        let g = random_pgraph(&script, procs, 3);
        let tc = TransitiveClosure::compute(&g);
        let vc = VectorClocks::compute(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                prop_assert_eq!(
                    tc.precedes(a.id, b.id),
                    vc.precedes(a.id, b.id),
                    "disagree on {} -> {}", a.id, b.id
                );
            }
        }
    }

    #[test]
    fn ordering_axioms(
        script in proptest::collection::vec(any::<u8>(), 8..120),
        procs in 2u32..4,
    ) {
        let g = random_pgraph(&script, procs, 2);
        let ord = VectorClocks::compute(&g);
        for a in g.nodes() {
            // Irreflexive.
            prop_assert!(!ord.precedes(a.id, a.id));
            for b in g.nodes() {
                // Antisymmetric.
                if ord.precedes(a.id, b.id) {
                    prop_assert!(!ord.precedes(b.id, a.id));
                    // Consistent with the interleaving (a linear extension).
                    prop_assert!(a.time < b.time);
                }
                // Transitive (spot check through every c).
                for c in g.nodes() {
                    if ord.precedes(a.id, b.id) && ord.precedes(b.id, c.id) {
                        prop_assert!(ord.precedes(a.id, c.id));
                    }
                }
            }
        }
    }

    #[test]
    fn race_detectors_agree(
        script in proptest::collection::vec(any::<u8>(), 8..200),
        procs in 2u32..5,
    ) {
        let g = random_pgraph(&script, procs, 3);
        let ord = VectorClocks::compute(&g);
        let naive = detect_races_naive(&g, &ord);
        let indexed = detect_races(&g, &ord, None);
        prop_assert_eq!(naive, indexed);
    }

    #[test]
    fn pruned_detector_agrees_with_naive(
        script in proptest::collection::vec(any::<u8>(), 8..200),
        procs in 2u32..5,
    ) {
        // A candidate index covering every (var, process pair) the
        // execution actually produced is the worst case for pruning —
        // nothing may be filtered away, so the race sets must coincide
        // exactly, and pruned never examines more pairs than naive.
        let g = random_pgraph(&script, procs, 3);
        let ord = VectorClocks::compute(&g);
        let cands = candidates_from_graph(&g);
        let naive = detect_races_naive(&g, &ord);
        let (pruned, pruned_pairs) = race_oracle::counted_scan(&g, &ord, Some(&cands));
        prop_assert_eq!(&naive, &pruned);
        prop_assert_eq!(naive, detect_races(&g, &ord, Some(&cands)));
        prop_assert!(pruned_pairs <= race_oracle::naive_pairs(&g));
    }

    #[test]
    fn stage_counter_matches_counted_scans(
        script in proptest::collection::vec(any::<u8>(), 8..200),
        bits in proptest::collection::vec(any::<u8>(), 12..13),
        procs in 2u32..5,
    ) {
        // Four independently drawn indexes, deliberately not nested:
        // each stage count must still equal that index's own scan.
        let g = random_pgraph(&script, procs, 3);
        let ord = VectorClocks::compute(&g);
        let indexes: Vec<RaceCandidates> =
            bits.chunks(3).map(|b| random_index(b, procs, 3)).collect();
        let refs: Vec<&RaceCandidates> = indexes.iter().collect();
        let counted = stage_pairs(&g, &refs);
        prop_assert_eq!(counted.naive, race_oracle::naive_pairs(&g));
        prop_assert_eq!(counted.indexed, race_oracle::counted_scan(&g, &ord, None).1);
        for (i, c) in indexes.iter().enumerate() {
            prop_assert_eq!(counted.filtered[i], race_oracle::counted_scan(&g, &ord, Some(c)).1);
        }
    }

    #[test]
    fn races_are_between_simultaneous_edges(
        script in proptest::collection::vec(any::<u8>(), 8..160),
    ) {
        let g = random_pgraph(&script, 3, 2);
        let ord = VectorClocks::compute(&g);
        for r in detect_races(&g, &ord, None) {
            // Definition 6.1: neither edge precedes the other.
            prop_assert!(!g.edge_precedes(&ord, r.first, r.second));
            prop_assert!(!g.edge_precedes(&ord, r.second, r.first));
            // Different processes.
            prop_assert_ne!(
                g.internal_edge(r.first).proc,
                g.internal_edge(r.second).proc
            );
        }
    }

    #[test]
    fn dynamic_adjacency_matches_edge_list(
        script in proptest::collection::vec(any::<u8>(), 3..240),
    ) {
        let (g, calls) = random_dyngraph(&script);
        // The edge list is every distinct add_edge call, first call first.
        let mut distinct = Vec::new();
        for call in calls {
            if !distinct.contains(&call) {
                distinct.push(call);
            }
        }
        prop_assert_eq!(g.edges(), &distinct[..]);
        let not_flow = |k: DynEdgeKind| k != DynEdgeKind::Flow;
        let is_data = |k: DynEdgeKind| matches!(k, DynEdgeKind::Data { .. });
        for node in g.nodes().iter().map(|n| n.id) {
            let preds = |keep: &dyn Fn(DynEdgeKind) -> bool| -> Vec<(DynNodeId, DynEdgeKind)> {
                g.edges().iter().filter(|e| e.1 == node && keep(e.2)).map(|e| (e.0, e.2)).collect()
            };
            let succs = |keep: &dyn Fn(DynEdgeKind) -> bool| -> Vec<(DynNodeId, DynEdgeKind)> {
                g.edges().iter().filter(|e| e.0 == node && keep(e.2)).map(|e| (e.1, e.2)).collect()
            };
            prop_assert_eq!(g.preds_by(node, |_| true), preds(&|_| true));
            prop_assert_eq!(g.succs_by(node, |_| true), succs(&|_| true));
            prop_assert_eq!(g.preds_by(node, is_data), preds(&is_data));
            prop_assert_eq!(g.succs_by(node, is_data), succs(&is_data));
            prop_assert_eq!(g.dependence_preds(node), preds(&not_flow));
            prop_assert_eq!(g.dependence_succs(node), succs(&not_flow));
            let slices = [(g.backward_slice(node), false), (g.forward_slice(node), true)];
            for (slice, forward) in slices {
                prop_assert!(slice.windows(2).all(|w| g.node(w[0]).seq <= g.node(w[1]).seq));
                let set: BTreeSet<DynNodeId> = slice.iter().copied().collect();
                prop_assert_eq!(set.len(), slice.len(), "slice lists a node twice");
                prop_assert_eq!(set, reachable(&g, node, forward));
            }
        }
    }

    #[test]
    fn varset_representations_equivalent(
        ops in proptest::collection::vec((any::<u8>(), 0u32..96), 1..300),
    ) {
        let mut bit = BitVarSet::empty(96);
        let mut list = ListVarSet::empty(96);
        for (op, raw) in ops {
            let v = VarId(raw);
            match op % 3 {
                0 => { prop_assert_eq!(bit.insert(v), list.insert(v)); }
                1 => { prop_assert_eq!(bit.remove(v), list.remove(v)); }
                _ => { prop_assert_eq!(bit.contains(v), list.contains(v)); }
            }
            prop_assert_eq!(bit.len(), list.len());
        }
        prop_assert_eq!(bit.to_vec(), list.to_vec());
    }

    #[test]
    fn varset_union_and_intersection_laws(
        a in proptest::collection::vec(0u32..64, 0..40),
        b in proptest::collection::vec(0u32..64, 0..40),
    ) {
        let sa = BitVarSet::from_iter(64, a.iter().map(|&v| VarId(v)));
        let sb = BitVarSet::from_iter(64, b.iter().map(|&v| VarId(v)));
        // intersects is symmetric.
        prop_assert_eq!(sa.intersects(&sb), sb.intersects(&sa));
        // union is an upper bound of both.
        let mut u = sa.clone();
        u.union_with(&sb);
        for v in sa.to_vec() {
            prop_assert!(u.contains(v));
        }
        for v in sb.to_vec() {
            prop_assert!(u.contains(v));
        }
        prop_assert_eq!(
            u.len(),
            sa.to_vec().iter().chain(sb.to_vec().iter())
                .collect::<std::collections::HashSet<_>>().len()
        );
        // subtract removes exactly the other set.
        let mut d = u.clone();
        d.subtract(&sb);
        prop_assert!(!d.intersects(&sb));
        for v in d.to_vec() {
            prop_assert!(sa.contains(v));
        }
    }
}
