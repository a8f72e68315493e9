//! Race detection (§6.3–6.4, Definitions 6.1–6.4).
//!
//! Two internal edges are **simultaneous** if neither precedes the other
//! (Def 6.1). Simultaneous edges are **race-free** iff their shared
//! READ/WRITE sets have no read/write or write/write conflict (Def 6.3);
//! an execution instance is race-free iff all simultaneous pairs are
//! (Def 6.4).
//!
//! "The problem of finding all pairs of possible conflicting edges is
//! more expensive. We are currently investigating algorithms to reduce
//! the cost" (§7) — so detection is **one staged scan**. A per-cell index
//! enumerates only the cross-process edge pairs that share a cell at
//! least one of them writes, and a static [`RaceCandidates`] index from
//! `ppd-analysis` filters those comparisons before any ordering query: a
//! `(variable, process pair)` combination absent from the index can never
//! conflict dynamically. The one enumeration serves three callers: the
//! sequential scan [`detect_races`], the parallel scan
//! [`detect_races_par`], and the per-stage pair counter [`stage_pairs`]
//! (`ppd races --stats`), which measures the whole
//! GMOD/GREF → MHP → typed → absint chain in a single pass. The O(E²)
//! all-pairs scan [`detect_races_naive`] stays as the reference oracle.
//! Experiment **E4** compares the stages.

use crate::order::Ordering;
use crate::parallel::{InternalEdgeId, ParallelGraph};
pub use ppd_analysis::RaceCandidates;
use ppd_analysis::VarSetRepr;
use ppd_lang::{ProcId, VarId};
use std::collections::HashMap;
use std::fmt;

/// The kind of access conflict between two simultaneous edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Both edges write the variable.
    WriteWrite,
    /// One writes while the other reads.
    ReadWrite,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::WriteWrite => write!(f, "write/write"),
            ConflictKind::ReadWrite => write!(f, "read/write"),
        }
    }
}

/// One detected race: a conflicting pair of simultaneous edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Race {
    /// The shared variable raced on.
    pub var: VarId,
    /// The array element raced on, when the graph records accesses at
    /// element granularity; `None` for scalars (and legacy graphs).
    pub elem: Option<u32>,
    /// One conflicting edge (the smaller id).
    pub first: InternalEdgeId,
    /// The other conflicting edge.
    pub second: InternalEdgeId,
    /// Conflict kind.
    pub kind: ConflictKind,
}

/// Checks Definition 6.3 for one pair of edges, returning every
/// conflicting **cell** between them (empty = race-free pair). Cells
/// are whole variables for scalars and per-element ids for arrays in
/// cell-granular graphs; map back with [`ParallelGraph::owner_of`].
pub fn pair_conflicts(
    graph: &ParallelGraph,
    a: InternalEdgeId,
    b: InternalEdgeId,
) -> Vec<(VarId, ConflictKind)> {
    let ea = graph.internal_edge(a);
    let eb = graph.internal_edge(b);
    let mut out = Vec::new();
    for v in ea.writes.to_vec() {
        if eb.writes.contains(v) {
            out.push((v, ConflictKind::WriteWrite));
        } else if eb.reads.contains(v) {
            out.push((v, ConflictKind::ReadWrite));
        }
    }
    for v in ea.reads.to_vec() {
        if eb.writes.contains(v) && !out.iter().any(|&(w, _)| w == v) {
            out.push((v, ConflictKind::ReadWrite));
        }
    }
    out
}

/// Whether two edges are simultaneous (Definition 6.1).
pub fn simultaneous(
    graph: &ParallelGraph,
    ord: &dyn Ordering,
    a: InternalEdgeId,
    b: InternalEdgeId,
) -> bool {
    a != b && !graph.edge_precedes(ord, a, b) && !graph.edge_precedes(ord, b, a)
}

/// The naive detector: examine **every** pair of internal edges.
/// O(E² · cost(order) + conflicts). Kept as the reference oracle the
/// staged scan is tested against.
///
/// # Examples
///
/// ```
/// use ppd_graph::{detect_races, detect_races_naive};
/// use ppd_graph::parallel::ParallelGraph;
/// use ppd_graph::order::VectorClocks;
/// use ppd_lang::{ProcId, VarId};
///
/// let mut g = ParallelGraph::new(1);
/// g.start_process(ProcId(0), 0);
/// g.start_process(ProcId(1), 1);
/// g.record_write(ProcId(0), VarId(0));
/// g.record_write(ProcId(1), VarId(0));
/// g.end_process(ProcId(0), 2);
/// g.end_process(ProcId(1), 3);
/// let ord = VectorClocks::compute(&g);
/// // The two detectors agree (property-tested); the staged one scales.
/// assert_eq!(detect_races_naive(&g, &ord), detect_races(&g, &ord, None));
/// ```
pub fn detect_races_naive(graph: &ParallelGraph, ord: &dyn Ordering) -> Vec<Race> {
    let _span = ppd_obs::span("race", "scan_naive");
    let edges = graph.internal_edges();
    let mut races = Vec::new();
    for (i, ea) in edges.iter().enumerate() {
        for eb in &edges[i + 1..] {
            if ea.proc == eb.proc {
                continue; // same-process edges are always ordered
            }
            let conflicts = pair_conflicts(graph, ea.id, eb.id);
            if conflicts.is_empty() || !simultaneous(graph, ord, ea.id, eb.id) {
                continue;
            }
            for (cell, kind) in conflicts {
                races.push(Race {
                    var: graph.owner_of(cell),
                    elem: graph.element_of(cell),
                    first: ea.id,
                    second: eb.id,
                    kind,
                });
            }
        }
    }
    finish(races)
}

/// The staged scan: every `(cell, edge pair)` comparison — two
/// cross-process edges sharing a cell at least one of them writes — that
/// `candidates` allows (all of them for `None`) is order-checked, and
/// the simultaneous ones are reported.
///
/// When `candidates` is one of the static indexes of
/// [`ppd_analysis::Analyses`] for the program that produced `graph`, the
/// result is **identical** to [`detect_races_naive`]. Each refinement of
/// the chain `absint ⊆ typed ⊆ mhp ⊆ gmod/gref` only drops combinations
/// that provably cannot race: GMOD/GREF over-approximate every dynamic
/// access; every static MHP or typed-channel ordering is witnessed by
/// sync edges the runtime records, so those accesses are ordered by the
/// vector clocks too; and interval soundness means a dropped array
/// combination never conflicts on a cell-granular graph. This is
/// property-tested and asserted over the corpus and randomized schedules
/// in `tests/prune.rs`.
pub fn detect_races(
    graph: &ParallelGraph,
    ord: &dyn Ordering,
    candidates: Option<&RaceCandidates>,
) -> Vec<Race> {
    let mut span = ppd_obs::span("race", "scan");
    span.arg("pruned", candidates.is_some());
    let mut races = Vec::new();
    for_each_comparison(graph, |race, pa, pb| {
        if allowed(candidates, &race, pa, pb) && simultaneous(graph, ord, race.first, race.second) {
            races.push(race);
        }
    });
    finish(races)
}

/// [`detect_races`] with the final, interval-refined candidate index
/// ([`ppd_analysis::Analyses::absint_candidates`]) — what `ppd races`
/// reports.
pub fn detect_races_absint(
    graph: &ParallelGraph,
    ord: &dyn Ordering,
    absint_candidates: &RaceCandidates,
) -> Vec<Race> {
    detect_races(graph, ord, Some(absint_candidates))
}

/// The fewest order checks a chunk of [`detect_races_par`] holds. One
/// check ([`simultaneous`]) takes 13–16 ns, and [`rayon::par_map`] takes
/// ~32 µs to spawn and join two workers (release probe: medians of 21
/// and 4,001 runs on a 2-vCPU host), so a chunk's checks must number
/// about 2,000 to pay for the worker that takes them. A scan of fewer
/// than two chunks' worth of comparisons is one chunk, which `par_map`
/// runs on the calling thread.
const MIN_CHUNK_PAIRS: usize = 2048;

/// The parallel detector: the comparisons [`detect_races`] would
/// order-check are partitioned into chunks and checked on up to `jobs`
/// threads by the vendored [`rayon::par_map`]; per-chunk
/// results are merged and finalized with the same sort + dedup, so the
/// output is **bit-identical** to [`detect_races`] on the same inputs
/// regardless of schedule (asserted over the corpus and randomized
/// graphs in `tests/parallel_backend.rs`). `jobs <= 1`, or a scan too
/// small to split (under two chunks of `MIN_CHUNK_PAIRS`), checks on
/// the calling thread.
pub fn detect_races_par<O: Ordering + Sync>(
    graph: &ParallelGraph,
    ord: &O,
    candidates: Option<&RaceCandidates>,
    jobs: usize,
) -> Vec<Race> {
    let mut span = ppd_obs::span("race", "scan_par");
    span.arg("jobs", jobs);
    let mut pairs = Vec::new();
    for_each_comparison(graph, |race, pa, pb| {
        if allowed(candidates, &race, pa, pb) {
            pairs.push(race);
        }
    });
    span.arg("pairs", pairs.len());
    let check = |r: &&Race| simultaneous(graph, ord, r.first, r.second);
    // Up to four even chunks per worker, so uneven chunks still balance
    // across the workers, none under the floor; chunks come
    // back in input order before the final sort, keeping the merge
    // deterministic.
    let count = (pairs.len() / MIN_CHUNK_PAIRS).clamp(1, jobs.max(1) * 4);
    let chunks: Vec<&[Race]> = pairs.chunks(pairs.len().div_ceil(count).max(1)).collect();
    let per_chunk =
        rayon::par_map(&chunks, jobs, |c| c.iter().filter(check).copied().collect::<Vec<_>>());
    finish(per_chunk.into_iter().flatten().collect())
}

/// How many distinct cross-process edge pairs each stage of the staged
/// scan compares on one execution (`ppd races --stats`, E4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePairs {
    /// Every cross-process edge pair — what [`detect_races_naive`]
    /// examines.
    pub naive: usize,
    /// The pairs sharing a cell that at least one of them writes — what
    /// [`detect_races`] examines unfiltered.
    pub indexed: usize,
    /// Per candidate index, in the order given to [`stage_pairs`]: the
    /// indexed pairs it allows on at least one of their shared cells.
    pub filtered: Vec<usize>,
}

/// Counts [`StagePairs`] in one enumeration, with no ordering query.
///
/// Each comparison records a bitmask of the indexes in `stages` that
/// allow it, ORed into a per-pair map, so a pair survives a stage if any
/// of its cells does. The counts are exact whether or not the indexes
/// are nested. `naive` is the closed form Σ_{p<q} nₚ·n_q over
/// per-process internal-edge counts, since the naive scan examines every
/// cross-process pair whether or not it conflicts.
///
/// # Panics
///
/// If more than 32 candidate indexes are given.
pub fn stage_pairs(graph: &ParallelGraph, stages: &[&RaceCandidates]) -> StagePairs {
    assert!(stages.len() <= 32, "stage_pairs takes at most 32 candidate indexes");
    let _span = ppd_obs::span("race", "stage_pairs");
    let mut masks: HashMap<(InternalEdgeId, InternalEdgeId), u32> = HashMap::new();
    for_each_comparison(graph, |race, pa, pb| {
        let mask = stages
            .iter()
            .enumerate()
            .filter(|(_, c)| c.allows(race.var, pa, pb))
            .fold(0, |m, (i, _)| m | 1 << i);
        *masks.entry((race.first, race.second)).or_default() |= mask;
    });
    let mut per_proc: HashMap<ProcId, usize> = HashMap::new();
    for e in graph.internal_edges() {
        *per_proc.entry(e.proc).or_default() += 1;
    }
    let total: usize = per_proc.values().sum();
    let same_proc: usize = per_proc.values().map(|n| n * n).sum();
    StagePairs {
        naive: (total * total - same_proc) / 2,
        indexed: masks.len(),
        filtered: (0..stages.len())
            .map(|i| masks.values().filter(|&&m| m & 1 << i != 0).count())
            .collect(),
    }
}

/// Calls `visit` once per comparison of the staged scan: each
/// `(cell, edge pair)` where the edges run in different processes and at
/// least one writes the cell. The comparison comes as the race it would
/// be if the edges are simultaneous (`first < second`), plus the two
/// edges' processes for the candidate filter. A pair sharing several
/// cells is visited once per cell.
fn for_each_comparison(graph: &ParallelGraph, mut visit: impl FnMut(Race, ProcId, ProcId)) {
    let mut writers: HashMap<VarId, Vec<InternalEdgeId>> = HashMap::new();
    let mut readers: HashMap<VarId, Vec<InternalEdgeId>> = HashMap::new();
    for e in graph.internal_edges() {
        for v in e.writes.to_vec() {
            writers.entry(v).or_default().push(e.id);
        }
        for v in e.reads.to_vec() {
            readers.entry(v).or_default().push(e.id);
        }
    }
    for (&cell, ws) in &writers {
        // The static candidate index is keyed by declared variables, so
        // array-element cells are filtered through their owner.
        let (var, elem) = (graph.owner_of(cell), graph.element_of(cell));
        let mut emit = |a: InternalEdgeId, b: InternalEdgeId, kind| {
            let (pa, pb) = (graph.internal_edge(a).proc, graph.internal_edge(b).proc);
            if pa != pb {
                visit(Race { var, elem, first: a.min(b), second: a.max(b), kind }, pa, pb);
            }
        };
        for (i, &a) in ws.iter().enumerate() {
            for &b in &ws[i + 1..] {
                emit(a, b, ConflictKind::WriteWrite);
            }
        }
        // A reader that also writes the cell is covered above.
        for &r in readers.get(&cell).into_iter().flatten() {
            if !graph.internal_edge(r).writes.contains(cell) {
                for &w in ws {
                    emit(w, r, ConflictKind::ReadWrite);
                }
            }
        }
    }
}

/// Whether the candidate filter lets a comparison through.
fn allowed(candidates: Option<&RaceCandidates>, race: &Race, pa: ProcId, pb: ProcId) -> bool {
    candidates.is_none_or(|c| c.allows(race.var, pa, pb))
}

/// Sorts and dedups a detector's races into the canonical report order.
fn finish(mut races: Vec<Race>) -> Vec<Race> {
    races.sort();
    races.dedup();
    races
}

/// The tightest candidate index derivable from an execution itself: a
/// combination is included iff some edge of one process writes the
/// variable while some edge of another touches it. Pruning with this
/// index never filters anything the unfiltered scan would examine —
/// useful as a test oracle and as the upper bound on static pruning.
pub fn candidates_from_graph(graph: &ParallelGraph) -> RaceCandidates {
    let mut writer_procs: HashMap<VarId, Vec<ProcId>> = HashMap::new();
    let mut accessor_procs: HashMap<VarId, Vec<ProcId>> = HashMap::new();
    for e in graph.internal_edges() {
        for v in e.writes.to_vec() {
            let owner = graph.owner_of(v);
            writer_procs.entry(owner).or_default().push(e.proc);
            accessor_procs.entry(owner).or_default().push(e.proc);
        }
        for v in e.reads.to_vec() {
            accessor_procs.entry(graph.owner_of(v)).or_default().push(e.proc);
        }
    }
    let mut out = RaceCandidates::new();
    for (&var, ws) in &writer_procs {
        for &w in ws {
            for &a in &accessor_procs[&var] {
                out.insert(var, w, a);
            }
        }
    }
    out
}

/// Whether the execution instance is race-free (Definition 6.4).
pub fn is_race_free(graph: &ParallelGraph, ord: &dyn Ordering) -> bool {
    detect_races(graph, ord, None).is_empty()
}

/// A human-readable report of one race against a program's names.
pub fn describe_race(graph: &ParallelGraph, rp: &ppd_lang::ResolvedProgram, race: &Race) -> String {
    let e1 = graph.internal_edge(race.first);
    let e2 = graph.internal_edge(race.second);
    let target = match race.elem {
        Some(i) => format!("{}[{i}]", rp.var_name(race.var)),
        None => rp.var_name(race.var).to_string(),
    };
    format!(
        "{} race on `{}` between {} (process {}) and {} (process {})",
        race.kind,
        target,
        race.first,
        rp.proc_name(e1.proc),
        race.second,
        rp.proc_name(e2.proc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{random_graph, TransitiveClosure, VectorClocks};
    use crate::parallel::fig61_graph;

    #[test]
    fn fig61_races_found() {
        let (g, ids) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let races = detect_races(&g, &ord, None);
        // e1/e2 write/write, e2/e3 read-write; e1/e3 ordered by message.
        assert_eq!(races.len(), 2, "{races:?}");
        let ww = races.iter().find(|r| r.kind == ConflictKind::WriteWrite).unwrap();
        assert_eq!((ww.first, ww.second), (ids[0], ids[1]));
        let rw = races.iter().find(|r| r.kind == ConflictKind::ReadWrite).unwrap();
        assert_eq!((rw.first, rw.second), (ids[1], ids[5]));
        assert!(!is_race_free(&g, &ord));
    }

    #[test]
    fn naive_and_indexed_agree_on_fig61() {
        let (g, _) = fig61_graph();
        let ord = TransitiveClosure::compute(&g);
        assert_eq!(detect_races_naive(&g, &ord), detect_races(&g, &ord, None));
    }

    #[test]
    fn naive_and_indexed_agree_on_random_graphs() {
        // random_graph records no accesses: both scans must agree on
        // conflict-free input.
        for seed in 0..20u64 {
            let g = random_graph(seed, 3, 4);
            let ord = VectorClocks::compute(&g);
            assert_eq!(detect_races_naive(&g, &ord), detect_races(&g, &ord, None), "seed {seed}");
        }
    }

    #[test]
    fn ordered_conflicts_are_not_races() {
        use crate::parallel::{SyncEdgeLabel, SyncNodeKind};
        // P0 writes x then V(s); P1 P(s) then writes x: properly ordered.
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        g.record_write(ProcId(0), VarId(0));
        let v = g.sync_point(ProcId(0), SyncNodeKind::V, None, 3);
        let p = g.sync_point(ProcId(1), SyncNodeKind::P, None, 4);
        g.add_sync_edge(v, p, SyncEdgeLabel::Semaphore);
        g.record_write(ProcId(1), VarId(0));
        g.end_process(ProcId(0), 5);
        g.end_process(ProcId(1), 6);
        let ord = VectorClocks::compute(&g);
        assert!(is_race_free(&g, &ord));
        assert!(detect_races_naive(&g, &ord).is_empty());
    }

    #[test]
    fn unsynchronized_conflict_is_a_race() {
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        g.record_write(ProcId(0), VarId(0));
        g.record_read(ProcId(1), VarId(0));
        g.end_process(ProcId(0), 3);
        g.end_process(ProcId(1), 4);
        let ord = VectorClocks::compute(&g);
        let races = detect_races(&g, &ord, None);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, ConflictKind::ReadWrite);
    }

    #[test]
    fn reads_alone_never_race() {
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        g.record_read(ProcId(0), VarId(0));
        g.record_read(ProcId(1), VarId(0));
        g.end_process(ProcId(0), 3);
        g.end_process(ProcId(1), 4);
        let ord = VectorClocks::compute(&g);
        assert!(is_race_free(&g, &ord));
    }

    #[test]
    fn same_process_edges_never_race() {
        use crate::parallel::SyncNodeKind;
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.record_write(ProcId(0), VarId(0));
        g.sync_point(ProcId(0), SyncNodeKind::V, None, 2);
        g.record_write(ProcId(0), VarId(0));
        g.end_process(ProcId(0), 3);
        // Second process so concurrency is possible in principle.
        g.start_process(ProcId(1), 4);
        g.end_process(ProcId(1), 5);
        let ord = VectorClocks::compute(&g);
        assert!(is_race_free(&g, &ord));
    }

    #[test]
    fn pruned_with_graph_derived_candidates_matches_naive() {
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let cands = candidates_from_graph(&g);
        assert_eq!(detect_races(&g, &ord, Some(&cands)), detect_races_naive(&g, &ord));
        assert_eq!(detect_races_absint(&g, &ord, &cands), detect_races(&g, &ord, None));
    }

    #[test]
    fn empty_candidate_index_prunes_everything() {
        // The index is a filter: correctness rests on how it is built
        // (from GMOD/GREF, or from the graph itself). An empty index
        // filters every pair.
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        assert!(!detect_races_naive(&g, &ord).is_empty());
        assert!(detect_races(&g, &ord, Some(&RaceCandidates::new())).is_empty());
        assert_eq!(stage_pairs(&g, &[&RaceCandidates::new()]).filtered, vec![0]);
    }

    #[test]
    fn stage_pairs_shrink_along_the_chain() {
        let (g, _) = fig61_graph();
        let cands = candidates_from_graph(&g);
        let p = stage_pairs(&g, &[&cands]);
        let edges = g.internal_edges();
        let all_pairs = (0..edges.len())
            .flat_map(|i| (i + 1..edges.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| edges[i].proc != edges[j].proc)
            .count();
        assert_eq!(p.naive, all_pairs);
        // The graph-derived index keeps everything the unfiltered scan
        // compares; Fig 6.1 has edges with no shared accesses at all, so
        // indexing must drop some pairs the naive scan examines.
        assert_eq!(p.filtered, vec![p.indexed]);
        assert!(p.indexed < p.naive, "indexed {} vs naive {}", p.indexed, p.naive);
    }

    #[test]
    fn a_pair_survives_a_stage_if_any_of_its_cells_does() {
        // P0 and P1 both write x and y: one edge pair, two comparisons.
        // An index that allows only y still keeps the pair; one that
        // allows neither drops it.
        let (x, y) = (VarId(0), VarId(1));
        let mut g = ParallelGraph::new(2);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        for p in [ProcId(0), ProcId(1)] {
            g.record_write(p, x);
            g.record_write(p, y);
        }
        g.end_process(ProcId(0), 3);
        g.end_process(ProcId(1), 4);
        let mut only_y = RaceCandidates::new();
        only_y.insert(y, ProcId(0), ProcId(1));
        let mut elsewhere = RaceCandidates::new();
        elsewhere.insert(x, ProcId(0), ProcId(2));
        let p = stage_pairs(&g, &[&only_y, &elsewhere]);
        assert_eq!((p.naive, p.indexed, p.filtered), (1, 1, vec![1, 0]));
    }

    #[test]
    fn mhp_pruning_matches_naive_and_scans_fewer_pairs_on_fig61() {
        // The static MHP index for the real Fig 6.1 program drops the
        // message-ordered (SV, P1, P3) combination; the detector must
        // still find exactly the races the naive scan finds, while
        // examining strictly fewer pairs than GMOD/GREF pruning alone.
        let rp = ppd_lang::corpus::FIG_6_1.compile();
        let analyses = ppd_analysis::Analyses::run(&rp);
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let naive = detect_races_naive(&g, &ord);
        assert_eq!(detect_races(&g, &ord, Some(&analyses.mhp_candidates)), naive);
        assert_eq!(detect_races(&g, &ord, Some(&analyses.race_candidates)), naive);
        let p = stage_pairs(&g, &[&analyses.race_candidates, &analyses.mhp_candidates]);
        let (p_pairs, m_pairs) = (p.filtered[0], p.filtered[1]);
        assert!(m_pairs < p_pairs, "mhp {m_pairs} vs gmod/gref {p_pairs}");
    }

    #[test]
    fn par_detector_matches_sequential_on_fig61() {
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let cands = candidates_from_graph(&g);
        for jobs in [1, 2, 8] {
            assert_eq!(detect_races_par(&g, &ord, None, jobs), detect_races(&g, &ord, None));
            assert_eq!(
                detect_races_par(&g, &ord, Some(&cands), jobs),
                detect_races(&g, &ord, Some(&cands)),
            );
        }
    }

    #[test]
    fn par_detector_matches_sequential_on_random_graphs() {
        for seed in 0..15u64 {
            let g = random_graph(seed, 4, 6);
            let ord = VectorClocks::compute(&g);
            for jobs in [2, 8] {
                assert_eq!(
                    detect_races_par(&g, &ord, None, jobs),
                    detect_races(&g, &ord, None),
                    "seed {seed} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn pair_conflicts_classification() {
        let (g, ids) = fig61_graph();
        // e1 vs e2: write/write on SV.
        let c = pair_conflicts(&g, ids[0], ids[1]);
        assert_eq!(c, vec![(VarId(0), ConflictKind::WriteWrite)]);
        // e2 vs e3: read/write.
        let c = pair_conflicts(&g, ids[1], ids[5]);
        assert_eq!(c, vec![(VarId(0), ConflictKind::ReadWrite)]);
        // e1 vs e4 (empty edge): none.
        assert!(pair_conflicts(&g, ids[0], ids[3]).is_empty());
    }
}
