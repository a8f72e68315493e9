//! Static may-happen-in-parallel analysis (the static analogue of §6.2).
//!
//! The dynamic race detector (Definitions 6.1–6.4) asks whether two
//! internal edges are *simultaneous* — unordered by the execution's
//! synchronization edges. This module answers the same question before
//! any execution: for two statements `a` and `b` (each paired with the
//! process executing it), [`MhpAnalysis::may_happen_in_parallel`] is
//! `false` only when **every** execution orders every instance of one
//! before every instance of the other.
//!
//! ## The two relations
//!
//! The fixpoint tracks two event relations, both over interned
//! `(process, statement)` events:
//!
//! - `hb(a, b)` — in every execution in which `b` runs, all instances
//!   of `a` complete before the first instance of `b` starts. This is
//!   the exported ordering; MHP is its symmetric complement.
//! - `seq(r, y)` — `y` running *implies* `r` completed before the first
//!   instance of `y`. Strictly stronger than `hb` on the implication
//!   side: it also certifies that `r` executed at all.
//!
//! The distinction is what keeps chained reasoning sound. `hb` is **not
//! transitive**: `hb(a, b) ∧ hb(b, y)` says nothing when `b` never
//! executes (say, `b` sits on an untaken branch) — `a` and `y` can then
//! overlap freely. Sync chains may only pass through operations whose
//! execution is implied by the later event, which is exactly `seq`:
//! `hb·seq ⊆ hb` and `seq·seq ⊆ seq` are sound, `hb·hb ⊆ hb` is not.
//!
//! ## Seeding and propagation
//!
//! Intra-body seeds:
//! - `seq`: CFG dominance, valid in any body (each invocation of a
//!   function passes its dominators before the dominated statement);
//! - `hb`: CFG unreachability `¬reach(b → a)`, valid only in *process*
//!   bodies (they execute exactly once; a function called twice
//!   interleaves its invocations' statements arbitrarily).
//!
//! Cross-process edges come from **sync groups** — (producers,
//! consumers) site sets where a consumer completing implies some
//! producer instance started. For every group:
//!
//! ```text
//! (∀ w ∈ producers: hb(a, w))  ∧  (∃ c ∈ consumers: seq(c, y))  ⇒  hb(a, y)
//! (∀ w ∈ producers: seq(r, w)) ∧  (∃ c ∈ consumers: seq(c, y))  ⇒  seq(r, y)
//! ```
//!
//! The `∀` over producers is essential: the consumer was released by
//! *some* producer instance, and statically we cannot know which.
//!
//! Each group mirrors a synchronization edge the runtime records in the
//! dynamic parallel graph, so every static ordering claimed here is
//! also an ordering the vector clocks of §6 see — that is what makes
//! MHP pruning exact with respect to the naive dynamic detector
//! (asserted in `tests/prune.rs`):
//!
//! - **message**: producers = `send`/`asend` sites targeting `q`,
//!   consumers = `recv` events of `q` (edge: send → recv);
//! - **send-ack**: producers = `recv` events of `q`, consumers =
//!   blocking `send` sites targeting `q` (edge: recv → sender unblock);
//! - **rendezvous**: producers = `rendezvous` sites targeting `q`,
//!   consumers = `accept` events of `q` (edge: call → accept);
//! - **rendezvous-ack**: producers = `q`'s unique at-most-once `accept`
//!   *and its body*, consumers = `rendezvous` sites targeting `q`
//!   (edge: accept end → caller resume);
//! - **ordering semaphore**: for a `sem s = 0` whose single `V` site
//!   sits in a process body off any CFG cycle: producers = that `V`,
//!   consumers = every `P(s)` event. The at-most-once restriction
//!   matches the runtime, which records a V → P edge only for a 0 → 1
//!   count handoff; locks and positive-initial semaphores provide
//!   mutual exclusion, not ordering, and contribute nothing.
//! - **channel message / channel ack**: channels get *per-site* groups,
//!   because a `recv(c, x)` through a `chan` parameter may read several
//!   channels — its completion only implies that *some* send which
//!   could deliver to *some* channel it may read ran. For each channel
//!   recv site `r`: producers = every send site whose channel may alias
//!   `r`'s, consumers = `r`'s events; for each *blocking* channel send
//!   site `s`: producers = every recv site whose channel may alias
//!   `s`'s, consumers = `s`'s events. Aliasing is what the type checker
//!   sharpens: untyped, a `chan` parameter may alias every channel;
//!   typed ([`MhpAnalysis::compute_typed`]), it may only alias channels
//!   of its payload class — monomorphic signatures (see
//!   `ppd_lang::types`) guarantee one class per parameter. Smaller
//!   producer sets make the `∀`-producers rule fire more often, so the
//!   typed analysis orders strictly more and reports fewer MHP pairs.
//!
//! Over-approximation direction: every rule *adds* orderings only under
//! proof, so MHP (the complement) over-approximates true concurrency —
//! pruning with it is safe (see DESIGN.md).

use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, NodeId};
use crate::dom::DomTree;
use crate::interproc::ModRef;
use crate::lint::RaceCandidates;
use crate::usedef::ProgramEffects;
use crate::varset::VarSetRepr;
use ppd_lang::ast::{walk_stmts, SemKind, Stmt, StmtKind, SyncStmt};
use ppd_lang::types::{Ty, TypeInfo};
use ppd_lang::{BodyId, ChanId, ChanRef, ProcId, ResolvedProgram, StmtId, VarId};
use std::collections::{BTreeMap, HashMap};

/// A dense bit matrix over interned events.
#[derive(Debug, Clone)]
struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> BitMatrix {
        let words = n.div_ceil(64).max(1);
        BitMatrix { words, bits: vec![0; n * words] }
    }

    fn get(&self, r: usize, c: usize) -> bool {
        self.bits[r * self.words + c / 64] & (1u64 << (c % 64)) != 0
    }

    fn set(&mut self, r: usize, c: usize) {
        self.bits[r * self.words + c / 64] |= 1u64 << (c % 64);
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// `row(r) |= other`; returns whether anything changed.
    fn or_into_row(&mut self, r: usize, other: &[u64]) -> bool {
        let mut changed = false;
        let base = r * self.words;
        for (i, &w) in other.iter().enumerate() {
            let old = self.bits[base + i];
            let new = old | w;
            if new != old {
                self.bits[base + i] = new;
                changed = true;
            }
        }
        changed
    }
}

fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter()
        .enumerate()
        .flat_map(|(i, &w)| (0..64).filter(move |b| w & (1u64 << b) != 0).map(move |b| i * 64 + b))
}

/// One synchronization group: a consumer completing implies some
/// producer instance started (see module docs for the catalogue).
#[derive(Debug, Clone)]
struct SyncGroup {
    producers: Vec<usize>,
    consumers: Vec<usize>,
    /// Whether a consumer completing implies **every instance of every
    /// producer** completed (true only for the at-most-once groups:
    /// ordering semaphore and rendezvous-ack). When set, the producers
    /// themselves are seeded `hb`-before every post-consumer statement.
    producers_complete: bool,
}

/// The static may-happen-in-parallel relation over `(process,
/// statement)` events.
#[derive(Debug, Clone)]
pub struct MhpAnalysis {
    events: Vec<(ProcId, StmtId)>,
    index: HashMap<(ProcId, StmtId), usize>,
    hb: BitMatrix,
    seq: BitMatrix,
}

impl MhpAnalysis {
    /// Solves the happens-before fixpoint for `rp`.
    ///
    /// `cfgs` and `doms` must cover every body (as computed by
    /// [`crate::Analyses::run`]).
    pub fn compute(
        rp: &ResolvedProgram,
        cfgs: &HashMap<BodyId, Cfg>,
        doms: &HashMap<BodyId, DomTree>,
        callgraph: &CallGraph,
    ) -> MhpAnalysis {
        Self::compute_inner(rp, cfgs, doms, callgraph, None)
    }

    /// Like [`Self::compute`], but with channel aliasing refined by the
    /// type checker's payload classes. Only sound for programs on which
    /// `ppd_lang::types::check` reports no errors — callers must gate on
    /// that (see `Analyses::run_with`).
    pub fn compute_typed(
        rp: &ResolvedProgram,
        cfgs: &HashMap<BodyId, Cfg>,
        doms: &HashMap<BodyId, DomTree>,
        callgraph: &CallGraph,
        types: &TypeInfo,
    ) -> MhpAnalysis {
        Self::compute_inner(rp, cfgs, doms, callgraph, Some(types))
    }

    fn compute_inner(
        rp: &ResolvedProgram,
        cfgs: &HashMap<BodyId, Cfg>,
        doms: &HashMap<BodyId, DomTree>,
        callgraph: &CallGraph,
        types: Option<&TypeInfo>,
    ) -> MhpAnalysis {
        // ---- events: (proc, stmt) for every body the proc may execute.
        let nprocs = rp.procs.len() as u32;
        let mut proc_bodies: Vec<Vec<BodyId>> = Vec::new();
        for p in 0..nprocs {
            let mut bodies = callgraph.reachable_from(BodyId::Proc(ProcId(p)));
            bodies.sort_by_key(|b| match *b {
                BodyId::Proc(q) => (0u8, q.0),
                BodyId::Func(f) => (1u8, f.0),
            });
            proc_bodies.push(bodies);
        }
        let mut events = Vec::new();
        let mut index = HashMap::new();
        for (p, bodies) in proc_bodies.iter().enumerate() {
            let proc = ProcId(p as u32);
            for &body in bodies {
                for &s in cfgs[&body].stmts() {
                    index.insert((proc, s), events.len());
                    events.push((proc, s));
                }
            }
        }
        let n = events.len();
        let mut hb = BitMatrix::new(n);
        let mut seq = BitMatrix::new(n);

        // ---- per-body node-to-node reachability (≥ 1 edge).
        let mut reach: HashMap<BodyId, Vec<Vec<u64>>> = HashMap::new();
        for (&body, cfg) in cfgs {
            reach.insert(body, node_reachability(cfg));
        }

        // ---- intra-body seeds.
        for (p, bodies) in proc_bodies.iter().enumerate() {
            let proc = ProcId(p as u32);
            for &body in bodies {
                let cfg = &cfgs[&body];
                let dom = &doms[&body];
                let r = &reach[&body];
                let once = body == BodyId::Proc(proc);
                let stmts = cfg.stmts();
                for &a in stmts {
                    let na = cfg.node_of(a).expect("stmt has a node");
                    let ia = index[&(proc, a)];
                    for &b in stmts {
                        if a == b {
                            continue;
                        }
                        let nb = cfg.node_of(b).expect("stmt has a node");
                        let ib = index[&(proc, b)];
                        if dom.dominates(na, nb) {
                            seq.set(ia, ib);
                        }
                        if once && !bit(&r[nb.index()], na.index()) {
                            hb.set(ia, ib);
                        }
                    }
                }
            }
        }

        // ---- sync groups.
        let groups = build_groups(rp, cfgs, &reach, &proc_bodies, &index, types);

        // ---- fixpoint: group rules plus hb·seq ⊆ hb, seq·seq ⊆ seq.
        let words = hb.words;
        loop {
            let mut changed = false;
            for g in &groups {
                let mut post = vec![0u64; words];
                for &c in &g.consumers {
                    for (i, &w) in seq.row(c).iter().enumerate() {
                        post[i] |= w;
                    }
                }
                if post.iter().all(|&w| w == 0) {
                    continue;
                }
                if g.producers_complete {
                    for &w in &g.producers {
                        changed |= hb.or_into_row(w, &post);
                    }
                }
                for a in 0..n {
                    if g.producers.iter().all(|&w| hb.get(a, w)) {
                        changed |= hb.or_into_row(a, &post);
                    }
                    if g.producers.iter().all(|&w| seq.get(a, w)) {
                        changed |= seq.or_into_row(a, &post);
                    }
                }
            }
            let mut scratch = vec![0u64; words];
            for a in 0..n {
                scratch.copy_from_slice(hb.row(a));
                for b in set_bits(&scratch).collect::<Vec<_>>() {
                    let row = seq.row(b).to_vec();
                    changed |= hb.or_into_row(a, &row);
                }
                scratch.copy_from_slice(seq.row(a));
                for b in set_bits(&scratch).collect::<Vec<_>>() {
                    let row = seq.row(b).to_vec();
                    changed |= seq.or_into_row(a, &row);
                }
            }
            if !changed {
                break;
            }
        }

        MhpAnalysis { events, index, hb, seq }
    }

    /// All interned `(process, statement)` events, in deterministic
    /// (process, body, source) order.
    pub fn events(&self) -> &[(ProcId, StmtId)] {
        &self.events
    }

    /// Whether `(p, s)` is a known event — i.e. `p` can reach the body
    /// containing `s` at all.
    pub fn is_event(&self, p: ProcId, s: StmtId) -> bool {
        self.index.contains_key(&(p, s))
    }

    /// The stronger `seq` relation: `b` executing *implies* `a` ran and
    /// completed before `b`'s first instance. Unlike
    /// [`Self::happens_before`] this certifies `a`'s execution, which is
    /// what lets sync chains compose through `a`.
    pub fn sequenced_before(&self, a: (ProcId, StmtId), b: (ProcId, StmtId)) -> bool {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) => self.seq.get(i, j),
            _ => false,
        }
    }

    /// Whether every instance of `a` provably completes before the
    /// first instance of `b`, in every execution where `b` runs.
    pub fn happens_before(&self, a: (ProcId, StmtId), b: (ProcId, StmtId)) -> bool {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) => self.hb.get(i, j),
            _ => false,
        }
    }

    /// Whether `a` and `b` may execute concurrently. `false` when the
    /// two events are in the same process (sequential), when either
    /// event cannot execute at all, or when the fixpoint orders them.
    pub fn may_happen_in_parallel(&self, a: (ProcId, StmtId), b: (ProcId, StmtId)) -> bool {
        if a.0 == b.0 {
            return false;
        }
        let (Some(&i), Some(&j)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        !self.hb.get(i, j) && !self.hb.get(j, i)
    }

    /// Whether the pair is provably ordered (either direction).
    pub fn statically_ordered(&self, a: (ProcId, StmtId), b: (ProcId, StmtId)) -> bool {
        self.happens_before(a, b) || self.happens_before(b, a)
    }

    /// Number of ordered cross-process event pairs (diagnostic metric).
    pub fn ordered_cross_pairs(&self) -> usize {
        let mut count = 0;
        for (i, &(p, _)) in self.events.iter().enumerate() {
            for (j, &(q, _)) in self.events.iter().enumerate() {
                if i < j && p != q && (self.hb.get(i, j) || self.hb.get(j, i)) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Refines a GMOD/GREF candidate index by MHP: `(v, P, Q)` survives
    /// only if some statically-concurrent access pair (with a write on
    /// at least one side) touches `v` across `P` and `Q`.
    ///
    /// The result is a subset of `base`, and still over-approximates
    /// every dynamic race: a dynamic race is a pair of *simultaneous*
    /// accesses, and [`Self::may_happen_in_parallel`] over-approximates
    /// simultaneity.
    pub fn refine_candidates(
        &self,
        rp: &ResolvedProgram,
        effects: &ProgramEffects,
        modref: &ModRef,
        base: &RaceCandidates,
    ) -> RaceCandidates {
        // Per shared variable: events writing / accessing it. Only each
        // event's *direct* effects count: a callee's accesses happen at
        // the callee's statements, and every statement of every body a
        // process may reach is itself an interned event — charging the
        // callee's GMOD/GREF closure to the call site again would pin
        // the (never recv-ordered) call statement as an accessor and
        // block pruning through function bodies.
        let _ = modref;
        let mut writers: HashMap<VarId, Vec<usize>> = HashMap::new();
        let mut accessors: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (i, &(_, s)) in self.events.iter().enumerate() {
            let fx = effects.of(s);
            for v in fx.defs.to_vec().into_iter().filter(|&v| rp.is_shared(v)) {
                writers.entry(v).or_default().push(i);
                accessors.entry(v).or_default().push(i);
            }
            for v in fx.uses.to_vec().into_iter().filter(|&v| rp.is_shared(v)) {
                accessors.entry(v).or_default().push(i);
            }
        }
        let mut out = RaceCandidates::new();
        for (&v, ws) in &writers {
            for &w in ws {
                let (pw, sw) = self.events[w];
                for &a in &accessors[&v] {
                    let (pa, sa) = self.events[a];
                    if pw == pa || !base.allows(v, pw, pa) || out.allows(v, pw, pa) {
                        continue;
                    }
                    if self.may_happen_in_parallel((pw, sw), (pa, sa)) {
                        out.insert(v, pw, pa);
                    }
                }
            }
        }
        out
    }
}

fn bit(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1u64 << (i % 64)) != 0
}

/// Per-node reachability through ≥ 1 CFG edge, as bitsets over nodes.
fn node_reachability(cfg: &Cfg) -> Vec<Vec<u64>> {
    let n = cfg.len();
    let words = n.div_ceil(64).max(1);
    let mut out = vec![vec![0u64; words]; n];
    for (start, row) in out.iter_mut().enumerate() {
        let mut stack: Vec<NodeId> = cfg.succs(NodeId(start as u32)).collect();
        while let Some(m) = stack.pop() {
            if bit(row, m.index()) {
                continue;
            }
            row[m.index() / 64] |= 1u64 << (m.index() % 64);
            stack.extend(cfg.succs(m));
        }
    }
    out
}

/// The shared variables `stmt` may read / write, including callee
/// GREF/GMOD closures.
pub(crate) fn stmt_shared_accesses(
    rp: &ResolvedProgram,
    effects: &ProgramEffects,
    modref: &ModRef,
    stmt: StmtId,
) -> (Vec<VarId>, Vec<VarId>) {
    let fx = effects.of(stmt);
    let mut reads: Vec<VarId> = fx.uses.to_vec().into_iter().filter(|&v| rp.is_shared(v)).collect();
    let mut writes: Vec<VarId> =
        fx.defs.to_vec().into_iter().filter(|&v| rp.is_shared(v)).collect();
    for &callee in &fx.calls {
        reads.extend(modref.gref(BodyId::Func(callee)).to_vec());
        writes.extend(modref.gmod(BodyId::Func(callee)).to_vec());
    }
    reads.sort_unstable();
    reads.dedup();
    writes.sort_unstable();
    writes.dedup();
    (reads, writes)
}

/// Channel aliasing for the per-site channel groups: which channels a
/// send/recv site's [`ChanRef`] may name. Untyped, a `chan` parameter
/// may alias every channel; typed, only channels of its payload class.
struct ChanAliasing {
    /// Payload-class index of each channel, typed mode only.
    chan_class: Option<Vec<usize>>,
    /// Alias class of each variable that is a `chan` parameter, typed
    /// mode only (`None` entry: no channel of that payload class exists).
    var_class: Option<Vec<Option<usize>>>,
}

/// The channels one [`ChanRef`] may name, as a comparable class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AliasClass {
    /// Exactly this channel (a static reference).
    Exact(ChanId),
    /// Any channel of this payload class (a typed `chan` parameter).
    Class(usize),
    /// Any channel at all (an untyped `chan` parameter).
    All,
    /// No channel (a typed parameter with no matching channel).
    Empty,
}

impl ChanAliasing {
    fn new(rp: &ResolvedProgram, types: Option<&TypeInfo>) -> ChanAliasing {
        let Some(ti) = types else { return ChanAliasing { chan_class: None, var_class: None } };
        let mut classes: BTreeMap<Ty, usize> = BTreeMap::new();
        let chan_class: Vec<usize> = ti
            .chan_payload
            .iter()
            .map(|t| {
                let next = classes.len();
                *classes.entry(t.clone()).or_insert(next)
            })
            .collect();
        let var_class: Vec<Option<usize>> = rp
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if !v.is_chan {
                    return None;
                }
                let payload = ti.chan_ref_payload(ChanRef::Var(VarId(i as u32)));
                classes.get(&payload).copied()
            })
            .collect();
        ChanAliasing { chan_class: Some(chan_class), var_class: Some(var_class) }
    }

    fn class_of(&self, cref: ChanRef) -> AliasClass {
        match cref {
            ChanRef::Static(c) => AliasClass::Exact(c),
            ChanRef::Var(v) => match &self.var_class {
                None => AliasClass::All,
                Some(vc) => match vc[v.index()] {
                    Some(k) => AliasClass::Class(k),
                    None => AliasClass::Empty,
                },
            },
        }
    }

    /// Whether the two references may name a common channel.
    fn may_alias(&self, a: ChanRef, b: ChanRef) -> bool {
        use AliasClass::*;
        match (self.class_of(a), self.class_of(b)) {
            (Empty, _) | (_, Empty) => false,
            (All, _) | (_, All) => true,
            (Exact(c1), Exact(c2)) => c1 == c2,
            (Exact(c), Class(k)) | (Class(k), Exact(c)) => {
                self.chan_class.as_ref().expect("typed mode")[c.index()] == k
            }
            (Class(k1), Class(k2)) => k1 == k2,
        }
    }
}

/// Collects the sync-group catalogue (see module docs).
fn build_groups(
    rp: &ResolvedProgram,
    cfgs: &HashMap<BodyId, Cfg>,
    reach: &HashMap<BodyId, Vec<Vec<u64>>>,
    proc_bodies: &[Vec<BodyId>],
    index: &HashMap<(ProcId, StmtId), usize>,
    types: Option<&TypeInfo>,
) -> Vec<SyncGroup> {
    // Classify every sync site, remembering its body.
    struct Sites<'a> {
        v_sites: HashMap<ppd_lang::SemId, Vec<(BodyId, StmtId)>>,
        p_sites: HashMap<ppd_lang::SemId, Vec<StmtId>>,
        send_sites: HashMap<ProcId, Vec<(StmtId, bool)>>, // (site, blocking)
        recv_sites: Vec<StmtId>,
        rdv_sites: HashMap<ProcId, Vec<StmtId>>,
        accept_sites: Vec<(BodyId, &'a Stmt)>,
        chan_send_sites: Vec<(StmtId, ChanRef, bool)>, // (site, chan, blocking)
        chan_recv_sites: Vec<(StmtId, ChanRef)>,
    }
    let mut sites = Sites {
        v_sites: HashMap::new(),
        p_sites: HashMap::new(),
        send_sites: HashMap::new(),
        recv_sites: Vec::new(),
        rdv_sites: HashMap::new(),
        accept_sites: Vec::new(),
        chan_send_sites: Vec::new(),
        chan_recv_sites: Vec::new(),
    };
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |stmt| {
            let StmtKind::Sync(sync) = &stmt.kind else { return };
            match sync {
                SyncStmt::P(_) => {
                    let sem = rp.sem_ref[&stmt.id];
                    if rp.sems[sem.index()].kind == SemKind::Semaphore {
                        sites.p_sites.entry(sem).or_default().push(stmt.id);
                    }
                }
                SyncStmt::V(_) => {
                    let sem = rp.sem_ref[&stmt.id];
                    if rp.sems[sem.index()].kind == SemKind::Semaphore {
                        sites.v_sites.entry(sem).or_default().push((body, stmt.id));
                    }
                }
                SyncStmt::Lock(_) | SyncStmt::Unlock(_) => {} // mutual exclusion only
                SyncStmt::Send { .. } => {
                    if let Some(&q) = rp.msg_target.get(&stmt.id) {
                        sites.send_sites.entry(q).or_default().push((stmt.id, true));
                    } else if let Some(&cref) = rp.send_chan.get(&stmt.id) {
                        sites.chan_send_sites.push((stmt.id, cref, true));
                    }
                }
                SyncStmt::ASend { .. } => {
                    if let Some(&q) = rp.msg_target.get(&stmt.id) {
                        sites.send_sites.entry(q).or_default().push((stmt.id, false));
                    } else if let Some(&cref) = rp.send_chan.get(&stmt.id) {
                        sites.chan_send_sites.push((stmt.id, cref, false));
                    }
                }
                // A channel recv consumes a channel queue, not the
                // process mailbox: it must not join the mailbox groups.
                SyncStmt::Recv { .. } => {
                    if let Some(&cref) = rp.recv_chan.get(&stmt.id) {
                        sites.chan_recv_sites.push((stmt.id, cref));
                    } else {
                        sites.recv_sites.push(stmt.id);
                    }
                }
                SyncStmt::Rendezvous { .. } => {
                    sites.rdv_sites.entry(rp.msg_target[&stmt.id]).or_default().push(stmt.id);
                }
                SyncStmt::Accept { .. } => sites.accept_sites.push((body, stmt)),
            }
        });
    }

    // All events of one statement site (one per executor that reaches it).
    let events_of_site = |s: StmtId| -> Vec<usize> {
        let mut evs: Vec<usize> = (0..rp.procs.len() as u32)
            .map(ProcId)
            .filter_map(|p| index.get(&(p, s)).copied())
            .collect();
        evs.sort_unstable();
        evs
    };
    let on_cycle = |body: BodyId, s: StmtId| -> bool {
        let cfg = &cfgs[&body];
        let n = cfg.node_of(s).expect("site has a node");
        bit(&reach[&body][n.index()], n.index())
    };

    let mut groups = Vec::new();

    // Ordering semaphores: sem s = 0 with a unique at-most-once V site.
    for (sem, vsites) in &sites.v_sites {
        if rp.sems[sem.index()].init != 0 {
            continue;
        }
        let [(vbody, vstmt)] = vsites.as_slice() else { continue };
        let BodyId::Proc(vproc) = *vbody else { continue };
        if on_cycle(*vbody, *vstmt) {
            continue;
        }
        let Some(&vev) = index.get(&(vproc, *vstmt)) else { continue };
        let consumers: Vec<usize> = sites
            .p_sites
            .get(sem)
            .map(|ps| ps.iter().flat_map(|&s| events_of_site(s)).collect())
            .unwrap_or_default();
        if !consumers.is_empty() {
            groups.push(SyncGroup { producers: vec![vev], consumers, producers_complete: true });
        }
    }

    // Messages and the blocking-send ack, per receiving process.
    for q in (0..rp.procs.len() as u32).map(ProcId) {
        let producers: Vec<usize> = sites
            .send_sites
            .get(&q)
            .map(|ss| ss.iter().flat_map(|&(s, _)| events_of_site(s)).collect())
            .unwrap_or_default();
        let recv_events: Vec<usize> =
            sites.recv_sites.iter().filter_map(|&s| index.get(&(q, s)).copied()).collect();
        if !producers.is_empty() && !recv_events.is_empty() {
            groups.push(SyncGroup {
                producers: producers.clone(),
                consumers: recv_events.clone(),
                producers_complete: false,
            });
        }
        let blocking_sends: Vec<usize> = sites
            .send_sites
            .get(&q)
            .map(|ss| {
                ss.iter().filter(|&&(_, b)| b).flat_map(|&(s, _)| events_of_site(s)).collect()
            })
            .unwrap_or_default();
        if !recv_events.is_empty() && !blocking_sends.is_empty() {
            groups.push(SyncGroup {
                producers: recv_events,
                consumers: blocking_sends,
                producers_complete: false,
            });
        }

        // Rendezvous entry: calls targeting q → q's accepts.
        let rdv_events: Vec<usize> = sites
            .rdv_sites
            .get(&q)
            .map(|rs| rs.iter().flat_map(|&s| events_of_site(s)).collect())
            .unwrap_or_default();
        let accepts_of_q: Vec<&(BodyId, &Stmt)> = sites
            .accept_sites
            .iter()
            .filter(|(b, s)| proc_bodies[q.index()].contains(b) && index.contains_key(&(q, s.id)))
            .collect();
        let accept_events: Vec<usize> =
            accepts_of_q.iter().map(|(_, s)| index[&(q, s.id)]).collect();
        if !rdv_events.is_empty() && !accept_events.is_empty() {
            groups.push(SyncGroup {
                producers: rdv_events.clone(),
                consumers: accept_events,
                producers_complete: false,
            });
        }

        // Rendezvous ack: only for a unique at-most-once accept directly
        // in q's process body — it then serves at most one call, and the
        // caller resumes only after the accept *body* completed.
        if let [(abody, astmt)] = accepts_of_q.as_slice() {
            if *abody == BodyId::Proc(q) && !on_cycle(*abody, astmt.id) && !rdv_events.is_empty() {
                let mut producers = vec![index[&(q, astmt.id)]];
                if let StmtKind::Sync(SyncStmt::Accept { body, .. }) = &astmt.kind {
                    walk_stmts(body, &mut |s| {
                        if let Some(&ev) = index.get(&(q, s.id)) {
                            producers.push(ev);
                        }
                    });
                }
                groups.push(SyncGroup {
                    producers,
                    consumers: rdv_events,
                    producers_complete: true,
                });
            }
        }
    }

    // Channel groups, per site (see module docs). A recv site's
    // completion implies some send that may alias its channel ran; a
    // blocking send site's completion implies some aliasing recv ran.
    let alias = ChanAliasing::new(rp, types);
    for &(r, rref) in &sites.chan_recv_sites {
        let consumers = events_of_site(r);
        if consumers.is_empty() {
            continue;
        }
        let producers: Vec<usize> = sites
            .chan_send_sites
            .iter()
            .filter(|&&(_, sref, _)| alias.may_alias(sref, rref))
            .flat_map(|&(s, _, _)| events_of_site(s))
            .collect();
        if !producers.is_empty() {
            groups.push(SyncGroup { producers, consumers, producers_complete: false });
        }
    }
    for &(s, sref, blocking) in &sites.chan_send_sites {
        if !blocking {
            continue;
        }
        let consumers = events_of_site(s);
        if consumers.is_empty() {
            continue;
        }
        let producers: Vec<usize> = sites
            .chan_recv_sites
            .iter()
            .filter(|&&(_, rref)| alias.may_alias(sref, rref))
            .flat_map(|&(r, _)| events_of_site(r))
            .collect();
        if !producers.is_empty() {
            groups.push(SyncGroup { producers, consumers, producers_complete: false });
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyses;
    use ppd_lang::ast::walk_stmts;

    fn mhp_of(src: &str) -> (ResolvedProgram, Analyses) {
        let rp = ppd_lang::compile(src).unwrap();
        let analyses = Analyses::run(&rp);
        (rp, analyses)
    }

    fn proc(rp: &ResolvedProgram, name: &str) -> ProcId {
        rp.proc_by_name(name).unwrap()
    }

    /// The nth statement (pre-order) of the named process body.
    fn stmt(rp: &ResolvedProgram, pname: &str, nth: usize) -> (ProcId, StmtId) {
        let p = proc(rp, pname);
        let mut ids = Vec::new();
        walk_stmts(rp.body_block(BodyId::Proc(p)), &mut |s| ids.push(s.id));
        (p, ids[nth])
    }

    #[test]
    fn same_process_statements_never_parallel() {
        let (rp, a) = mhp_of("shared int g; process M { g = 1; g = 2; } process O { print(g); }");
        let s0 = stmt(&rp, "M", 0);
        let s1 = stmt(&rp, "M", 1);
        assert!(!a.mhp.may_happen_in_parallel(s0, s1));
        assert!(a.mhp.happens_before(s0, s1));
        assert!(!a.mhp.happens_before(s1, s0));
    }

    #[test]
    fn unsynchronized_processes_are_parallel() {
        let (rp, a) = mhp_of("shared int g; process A { g = 1; } process B { g = 2; }");
        assert!(a.mhp.may_happen_in_parallel(stmt(&rp, "A", 0), stmt(&rp, "B", 0)));
        assert!(!a.mhp.statically_ordered(stmt(&rp, "A", 0), stmt(&rp, "B", 0)));
    }

    #[test]
    fn fig61_message_orders_p1_write_before_p3_read() {
        let rp = ppd_lang::corpus::FIG_6_1.compile();
        let a = Analyses::run(&rp);
        // P1 { SV = 1; send(P3, 42); print(1); }
        // P3 { int m; recv(m); int x = SV; print(x + m); }
        let sv_write = stmt(&rp, "P1", 0);
        let p3_read = stmt(&rp, "P3", 2);
        assert!(a.mhp.happens_before(sv_write, p3_read), "ordered by the message");
        assert!(!a.mhp.may_happen_in_parallel(sv_write, p3_read));
        // P2's write is concurrent with both.
        let p2_write = stmt(&rp, "P2", 0);
        assert!(a.mhp.may_happen_in_parallel(sv_write, p2_write));
        assert!(a.mhp.may_happen_in_parallel(p2_write, p3_read));
        // The receive itself may still overlap the send's predecessors'
        // process: only post-receive statements are ordered.
        let p3_recv = stmt(&rp, "P3", 1);
        assert!(!a.mhp.happens_before(sv_write, p3_recv));
    }

    #[test]
    fn blocking_send_ack_orders_receiver_reads_before_sender_continuation() {
        // R's read of g precedes the take of W's blocking send, which
        // precedes W's post-send write.
        let (rp, a) = mhp_of(
            "shared int g; \
             process R { int x = g; recv(x); print(x); } \
             process W { send(R, 7); g = 5; }",
        );
        let r_read = stmt(&rp, "R", 0);
        let w_write = stmt(&rp, "W", 1);
        assert!(a.mhp.happens_before(r_read, w_write), "recv → unblock ack");
        assert!(!a.mhp.may_happen_in_parallel(r_read, w_write));
    }

    #[test]
    fn ordering_semaphore_orders_handoff() {
        let (rp, a) = mhp_of(
            "shared int g; sem ready = 0; \
             process Producer { g = 42; v(ready); } \
             process Consumer { p(ready); print(g); }",
        );
        let write = stmt(&rp, "Producer", 0);
        let read = stmt(&rp, "Consumer", 1);
        assert!(a.mhp.happens_before(write, read));
        assert!(!a.mhp.may_happen_in_parallel(write, read));
    }

    #[test]
    fn mutual_exclusion_gives_no_ordering() {
        let (rp, a) = mhp_of(
            "shared int g; sem m = 1; \
             process A { p(m); g = g + 1; v(m); } \
             process B { p(m); g = g + 2; v(m); }",
        );
        assert!(a.mhp.may_happen_in_parallel(stmt(&rp, "A", 1), stmt(&rp, "B", 1)));
    }

    #[test]
    fn looped_v_site_claims_no_ordering() {
        // The V sits on a CFG cycle: the runtime only records a V → P
        // edge for a 0 → 1 handoff, so the analysis must stay silent.
        let (rp, a) = mhp_of(
            "shared int g; sem s = 0; \
             process P { int i; g = 1; for (i = 0; i < 2; i = i + 1) { v(s); } } \
             process C { p(s); print(g); }",
        );
        assert!(a.mhp.may_happen_in_parallel(stmt(&rp, "P", 0), stmt(&rp, "C", 1)));
    }

    #[test]
    fn two_v_sites_claim_no_ordering() {
        let (rp, a) = mhp_of(
            "shared int g; sem s = 0; \
             process A { g = 1; v(s); } \
             process B { v(s); } \
             process C { p(s); print(g); }",
        );
        assert!(a.mhp.may_happen_in_parallel(stmt(&rp, "A", 0), stmt(&rp, "C", 1)));
    }

    #[test]
    fn rendezvous_orders_both_directions() {
        let (rp, a) = mhp_of(
            "shared int g; shared int h; \
             process Server { int before = g; accept (x) { h = x; } print(h); } \
             process Client { g = 1; rendezvous(Server, 9); print(h); }",
        );
        // Client's pre-call write precedes Server's post-accept read.
        let g_write = stmt(&rp, "Client", 0);
        let h_print = stmt(&rp, "Server", 3);
        assert!(a.mhp.happens_before(g_write, h_print), "rendezvous entry");
        // Server's accept-body write precedes Client's post-call read.
        let h_write = stmt(&rp, "Server", 2);
        let client_print = stmt(&rp, "Client", 2);
        assert!(a.mhp.happens_before(h_write, client_print), "rendezvous exit");
        // But the pre-accept read may run in parallel with the client's
        // pre-call write (no ordering before entry).
        assert!(a.mhp.may_happen_in_parallel(stmt(&rp, "Server", 0), g_write));
    }

    #[test]
    fn hb_is_not_blindly_transitive_through_unexecuted_bridges() {
        // b (the V) sits on an untaken-branch: orderings must only flow
        // through consumers that dominate the later statement.
        let (rp, a) = mhp_of(
            "shared int g; sem s = 0; \
             process A { g = 1; if (g > 5) { v(s); } } \
             process B { int x = 0; if (x > 5) { p(s); } g = 2; }",
        );
        // B's final write is NOT dominated by the p(s): no ordering.
        let a_write = stmt(&rp, "A", 0);
        let b_write = stmt(&rp, "B", 3);
        assert!(a.mhp.may_happen_in_parallel(a_write, b_write));
    }

    #[test]
    fn refine_candidates_drops_message_ordered_pair_on_fig61() {
        let rp = ppd_lang::corpus::FIG_6_1.compile();
        let a = Analyses::run(&rp);
        let sv = (0..rp.var_count() as u32).map(VarId).find(|&v| rp.var_name(v) == "SV").unwrap();
        let (p1, p2, p3) = (proc(&rp, "P1"), proc(&rp, "P2"), proc(&rp, "P3"));
        // GMOD/GREF alone keeps all three pairs…
        assert!(a.race_candidates.allows(sv, p1, p2));
        assert!(a.race_candidates.allows(sv, p1, p3));
        assert!(a.race_candidates.allows(sv, p2, p3));
        // …MHP prunes the message-ordered (P1, P3) pair.
        assert!(a.mhp_candidates.allows(sv, p1, p2));
        assert!(!a.mhp_candidates.allows(sv, p1, p3), "ordered by send/recv");
        assert!(a.mhp_candidates.allows(sv, p2, p3));
        assert!(a.mhp_candidates.len() < a.race_candidates.len());
    }

    #[test]
    fn refined_index_is_subset_of_base_on_corpus() {
        for prog in ppd_lang::corpus::all() {
            let rp = prog.compile();
            let a = Analyses::run(&rp);
            for (v, p, q) in a.mhp_candidates.to_vec() {
                assert!(
                    a.race_candidates.allows(v, p, q),
                    "{}: refined pair outside base",
                    prog.name
                );
            }
        }
    }

    #[test]
    fn function_statements_stay_conservative() {
        // f is called twice by A: its statements must not be ordered
        // against a concurrent writer.
        let (rp, a) = mhp_of(
            "shared int g; \
             int f() { g = g + 1; return g; } \
             process A { print(f()); print(f()); } \
             process B { g = 7; }",
        );
        let f = rp.func_by_name("f").unwrap();
        let mut f_stmts = Vec::new();
        walk_stmts(rp.body_block(BodyId::Func(f)), &mut |s| f_stmts.push(s.id));
        let pa = proc(&rp, "A");
        let pb = proc(&rp, "B");
        assert!(a.mhp.may_happen_in_parallel((pa, f_stmts[0]), stmt(&rp, "B", 0)));
        // And A's own call statements are parallel with B's write.
        assert!(a.mhp.may_happen_in_parallel(stmt(&rp, "A", 0), (pb, stmt(&rp, "B", 0).1)));
    }

    /// Two payload classes flowing through one shape of `chan`-parameter
    /// function each: the untyped analysis must assume `recv(q, _)` may
    /// read either channel, the typed one knows the class.
    const TWO_CLASS_PIPELINE: &str = "\
        chan ints; chan flags; shared int g; \
        void draini(chan q) { int x; recv(q, x); g = x; } \
        void drainb(chan q) { int b; recv(q, b); print(b); } \
        process P { g = 1; send(ints, 2); } \
        process Q { draini(ints); } \
        process R { send(flags, true); } \
        process S { drainb(flags); }";

    #[test]
    fn typed_channel_aliasing_orders_strictly_more() {
        let (rp, a) = mhp_of(TWO_CLASS_PIPELINE);
        let mt = a.mhp_typed.as_ref().expect("pipeline type-checks");
        // Untyped: the recv in draini may have been fed by R's bool
        // send, so P's pre-send write stays unordered against Q.
        let g_write_p = stmt(&rp, "P", 0);
        let f = rp.func_by_name("draini").unwrap();
        let mut f_stmts = Vec::new();
        walk_stmts(rp.body_block(BodyId::Func(f)), &mut |s| f_stmts.push(s.id));
        let g_write_q = (proc(&rp, "Q"), f_stmts[2]);
        assert!(a.mhp.may_happen_in_parallel(g_write_p, g_write_q), "untyped: either sender");
        // Typed: `q` has payload class int, so only P's send can
        // release the recv — the message edge orders the writes.
        assert!(mt.happens_before(g_write_p, g_write_q), "typed: int class only");
        assert!(!mt.may_happen_in_parallel(g_write_p, g_write_q));
        // Globally the typed relation orders strictly more pairs…
        assert!(mt.ordered_cross_pairs() > a.mhp.ordered_cross_pairs());
        // …which shows up as a strictly smaller candidate index.
        let g = (0..rp.var_count() as u32).map(VarId).find(|&v| rp.var_name(v) == "g").unwrap();
        let (p, q) = (proc(&rp, "P"), proc(&rp, "Q"));
        assert!(a.mhp_candidates.allows(g, p, q), "untyped index keeps the pair");
        assert!(!a.typed_candidates.allows(g, p, q), "typed index prunes it");
        assert!(a.typed_candidates.len() < a.mhp_candidates.len());
    }

    /// Only programs with a channel-variable send or receive get a typed
    /// relation; `tests/mhp.rs` shows it would equal the untyped one on
    /// the rest.
    #[test]
    fn typed_mhp_is_subset_of_untyped_on_corpus() {
        let mut progs: Vec<(String, ResolvedProgram)> =
            ppd_lang::corpus::all().iter().map(|p| (p.name.to_owned(), p.compile())).collect();
        progs.push(("two_class_pipeline".into(), ppd_lang::compile(TWO_CLASS_PIPELINE).unwrap()));
        for (name, rp) in &progs {
            let a = Analyses::run(rp);
            let Some(mt) = &a.mhp_typed else { continue };
            for (i, &ea) in a.mhp.events().iter().enumerate() {
                for &eb in &a.mhp.events()[i + 1..] {
                    if mt.may_happen_in_parallel(ea, eb) {
                        assert!(
                            a.mhp.may_happen_in_parallel(ea, eb),
                            "{name}: typed MHP outside untyped MHP"
                        );
                    }
                }
            }
            for (v, p, q) in a.typed_candidates.to_vec() {
                assert!(a.mhp_candidates.allows(v, p, q), "{name}: typed pair outside untyped");
            }
        }
    }
}
