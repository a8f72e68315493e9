//! Slow reference counters for the staged race scan: the per-stage
//! counted scans that `ppd::graph::stage_pairs` replaces, written as
//! plain all-pairs loops so they share no code with it.

use ppd::graph::race::{pair_conflicts, simultaneous};
use ppd::graph::{Ordering, ParallelGraph, Race, RaceCandidates};

/// Every cross-process edge pair, counted by the O(E²) loop the naive
/// scan runs.
pub fn naive_pairs(g: &ParallelGraph) -> usize {
    let edges = g.internal_edges();
    edges
        .iter()
        .enumerate()
        .map(|(i, a)| edges[i + 1..].iter().filter(|b| b.proc != a.proc).count())
        .sum()
}

/// One stage of the prune chain as its own scan: the races among the
/// conflicting cells `candidates` allows (every cell for `None`, the
/// unfiltered indexed stage), and the number of distinct cross-process
/// edge pairs with at least one allowed conflicting cell.
pub fn counted_scan(
    g: &ParallelGraph,
    ord: &dyn Ordering,
    candidates: Option<&RaceCandidates>,
) -> (Vec<Race>, usize) {
    let edges = g.internal_edges();
    let mut races = Vec::new();
    let mut examined = 0;
    for (i, a) in edges.iter().enumerate() {
        for b in edges[i + 1..].iter().filter(|b| b.proc != a.proc) {
            let cells: Vec<_> = pair_conflicts(g, a.id, b.id)
                .into_iter()
                .filter(|&(cell, _)| {
                    candidates.is_none_or(|c| c.allows(g.owner_of(cell), a.proc, b.proc))
                })
                .collect();
            if cells.is_empty() {
                continue;
            }
            examined += 1;
            if simultaneous(g, ord, a.id, b.id) {
                races.extend(cells.into_iter().map(|(cell, kind)| Race {
                    var: g.owner_of(cell),
                    elem: g.element_of(cell),
                    first: a.id,
                    second: b.id,
                    kind,
                }));
            }
        }
    }
    races.sort();
    races.dedup();
    (races, examined)
}
