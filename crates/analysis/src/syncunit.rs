//! Synchronization units (§5.5, Definition 5.1).
//!
//! A synchronization unit is the code reachable from a *non-branching
//! node* of the simplified static graph — body entry, a synchronization
//! operation, or a subroutine call — without passing through another
//! non-branching node. Shared variables read inside a unit may have been
//! written by another process since the e-block's prelog, so the object
//! code emits an **additional prelog at each unit start** holding the
//! shared variables the unit may read.
//!
//! This module computes, per body, the unit start points and each unit's
//! may-read / may-write sets of shared variables.

use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, CfgNodeKind, NodeId};
use crate::interproc::ModRef;
use crate::mhp::{stmt_shared_accesses, MhpAnalysis};
use crate::usedef::ProgramEffects;
use crate::varset::{VarSet, VarSetRepr};
use ppd_lang::{BodyId, FxMap, ProcId, ResolvedProgram, StmtId, VarId};
use std::collections::HashMap;

/// Where a synchronization unit starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitStart {
    /// The body's entry.
    Entry,
    /// Immediately before executing this statement (a sync operation or a
    /// call-bearing statement).
    Stmt(StmtId),
}

/// One synchronization unit.
#[derive(Debug, Clone)]
pub struct SyncUnit {
    /// Where the unit starts.
    pub start: UnitStart,
    /// Shared variables the unit may read (the extra-prelog contents).
    pub reads: VarSet,
    /// Shared variables the unit may write.
    pub writes: VarSet,
    /// The statements whose effects the unit covers (everything the
    /// unit-start BFS visits, including the boundary statements it stops
    /// at — their pre-completion effects belong to this unit).
    pub stmts: Vec<StmtId>,
}

/// All synchronization units of one body.
#[derive(Debug, Clone)]
pub struct BodySyncUnits {
    /// Units, entry unit first, then statement units in discovery order.
    pub units: Vec<SyncUnit>,
    /// The unit each boundary statement starts. A body's statements are
    /// a sparse subset of the program's, so this is hashed, not a
    /// program-wide table per body.
    by_stmt: FxMap<StmtId, usize>,
}

impl BodySyncUnits {
    /// The unit starting at body entry.
    pub fn entry_unit(&self) -> &SyncUnit {
        &self.units[0]
    }

    /// The unit starting at `stmt`, if `stmt` is a unit boundary.
    pub fn unit_at(&self, stmt: StmtId) -> Option<&SyncUnit> {
        self.by_stmt.get(&stmt).map(|&i| &self.units[i])
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Always at least the entry unit.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Synchronization units for every body of a program.
#[derive(Debug, Clone)]
pub struct SyncUnits {
    per_body: FxMap<BodyId, BodySyncUnits>,
}

impl SyncUnits {
    /// Computes units for all bodies.
    ///
    /// Unit read sets are trimmed by a soundness-preserving refinement:
    /// the extra prelog exists because "other processes may have changed
    /// the value" of a shared variable mid-interval (§5.5) — so a
    /// variable that no *other* process can write needs no snapshot (the
    /// executing process's own writes are reproduced by replay itself).
    /// The trim only applies when the body is executed by exactly one
    /// process and that process is the variable's only possible writer.
    pub fn compute(
        rp: &ResolvedProgram,
        cfgs: &HashMap<BodyId, Cfg>,
        effects: &ProgramEffects,
        modref: &ModRef,
        callgraph: &CallGraph,
    ) -> SyncUnits {
        // Which processes may write each shared variable.
        let universe = rp.var_count();
        let writer_procs: Vec<Vec<ProcId>> = (0..universe)
            .map(|v| {
                let var = ppd_lang::VarId(v as u32);
                (0..rp.procs.len() as u32)
                    .map(ProcId)
                    .filter(|&p| modref.gmod(BodyId::Proc(p)).contains(var))
                    .collect()
            })
            .collect();
        // Which processes may execute each body.
        let mut executors: HashMap<BodyId, Vec<ProcId>> = HashMap::new();
        for p in 0..rp.procs.len() as u32 {
            for body in callgraph.reachable_from(BodyId::Proc(ProcId(p))) {
                executors.entry(body).or_default().push(ProcId(p));
            }
        }

        let mut per_body = FxMap::default();
        for (&body, cfg) in cfgs {
            let mut units = compute_body(rp, cfg, effects, modref);
            if let Some(execs) = executors.get(&body) {
                if let [only] = execs.as_slice() {
                    for unit in &mut units.units {
                        // Keep a variable only if a *different* process
                        // may write it (unwritten variables also drop:
                        // their prelog value cannot change).
                        let trimmed: Vec<ppd_lang::VarId> = unit
                            .reads
                            .to_vec()
                            .into_iter()
                            .filter(|&v| writer_procs[v.index()].iter().any(|w| w != only))
                            .collect();
                        unit.reads = VarSet::from_iter(universe, trimmed);
                    }
                }
            }
            per_body.insert(body, units);
        }
        SyncUnits { per_body }
    }

    /// Drops shared variables from unit snapshot read sets when the MHP
    /// relation proves the snapshot redundant.
    ///
    /// A unit's extra prelog records `v` because "other processes may
    /// have changed the value" since the e-block prelog (§5.5). If every
    /// cross-process write of `v` is [`MhpAnalysis::happens_before`]'d
    /// **after** every statement in the unit that reads `v` — for every
    /// process that can execute the body — then each such read observes
    /// a value determined by the e-block prelog and the executing
    /// process's own (replayed) writes, and the snapshot carries no
    /// information. Replay safety is structural: record emission and
    /// consumption both consult these same read sets, so trimming cannot
    /// desynchronize them (asserted by the fingerprint test in
    /// `tests/mhp.rs`).
    pub fn trim_with_mhp(
        &mut self,
        rp: &ResolvedProgram,
        effects: &ProgramEffects,
        modref: &ModRef,
        callgraph: &CallGraph,
        mhp: &MhpAnalysis,
    ) {
        let universe = rp.var_count();
        // All events writing each shared variable.
        let mut write_events: HashMap<VarId, Vec<(ProcId, StmtId)>> = HashMap::new();
        for &(p, s) in mhp.events() {
            let (_, writes) = stmt_shared_accesses(rp, effects, modref, s);
            for v in writes {
                write_events.entry(v).or_default().push((p, s));
            }
        }
        let mut executors: HashMap<BodyId, Vec<ProcId>> = HashMap::new();
        for p in 0..rp.procs.len() as u32 {
            for body in callgraph.reachable_from(BodyId::Proc(ProcId(p))) {
                executors.entry(body).or_default().push(ProcId(p));
            }
        }
        for (&body, units) in &mut self.per_body {
            let Some(execs) = executors.get(&body) else { continue };
            for unit in &mut units.units {
                let kept: Vec<VarId> = unit
                    .reads
                    .to_vec()
                    .into_iter()
                    .filter(|&v| {
                        let readers: Vec<StmtId> = unit
                            .stmts
                            .iter()
                            .copied()
                            .filter(|&r| {
                                stmt_shared_accesses(rp, effects, modref, r).0.contains(&v)
                            })
                            .collect();
                        let ordered_after_all_reads = write_events
                            .get(&v)
                            .map(|ws| {
                                ws.iter().all(|&(q, sw)| {
                                    execs.iter().filter(|&&p| p != q).all(|&p| {
                                        readers.iter().all(|&r| mhp.happens_before((p, r), (q, sw)))
                                    })
                                })
                            })
                            .unwrap_or(true);
                        !ordered_after_all_reads
                    })
                    .collect();
                unit.reads = VarSet::from_iter(universe, kept);
            }
        }
    }

    /// Drops *array* variables from unit snapshot read sets when the
    /// interval analysis proves every cross-process write lands outside
    /// the unit's read regions.
    ///
    /// The extra prelog records `v` because another process may have
    /// changed the elements the unit reads (§5.5). With element
    /// granularity the condition sharpens: if for every write event
    /// `(q, sw)` of `v` by a process different from an executor of the
    /// unit's body, the write region of `sw` is disjoint from the join
    /// of the unit's read regions of `v`, then the read elements' values
    /// are determined by the e-block prelog and the executing process's
    /// own (replayed) writes — the snapshot carries no information.
    /// Replay safety is structural, exactly as in
    /// [`SyncUnits::trim_with_mhp`].
    pub fn sharpen_with_absint(
        &mut self,
        rp: &ResolvedProgram,
        effects: &ProgramEffects,
        modref: &ModRef,
        callgraph: &CallGraph,
        mhp: &MhpAnalysis,
        absint: &crate::absint::AbsInt,
    ) {
        use crate::ranges::Interval;
        let universe = rp.var_count();
        // All events writing each shared array, with their regions.
        let mut write_events: HashMap<VarId, Vec<(ProcId, Interval)>> = HashMap::new();
        for &(p, s) in mhp.events() {
            let (_, writes) = stmt_shared_accesses(rp, effects, modref, s);
            for v in writes {
                if rp.vars[v.index()].size.is_some() {
                    write_events.entry(v).or_default().push((p, absint.write_region(v, s)));
                }
            }
        }
        let mut executors: HashMap<BodyId, Vec<ProcId>> = HashMap::new();
        for p in 0..rp.procs.len() as u32 {
            for body in callgraph.reachable_from(BodyId::Proc(ProcId(p))) {
                executors.entry(body).or_default().push(ProcId(p));
            }
        }
        for (&body, units) in &mut self.per_body {
            let Some(execs) = executors.get(&body) else { continue };
            for unit in &mut units.units {
                let kept: Vec<VarId> = unit
                    .reads
                    .to_vec()
                    .into_iter()
                    .filter(|&v| {
                        if rp.vars[v.index()].size.is_none() {
                            return true; // scalars: intervals cannot help
                        }
                        // Join of the unit's read regions of `v`: its
                        // own statements plus every statement of every
                        // body its calls may reach (the closure the
                        // unit's read set was built from).
                        let mut region = Interval::BOT;
                        for &s in &unit.stmts {
                            region = region.join(absint.read_region(v, s));
                            for &callee in &effects.of(s).calls {
                                for b in callgraph.reachable_from(BodyId::Func(callee)) {
                                    ppd_lang::ast::walk_stmts(rp.body_block(b), &mut |cs| {
                                        region = region.join(absint.read_region(v, cs.id));
                                    });
                                }
                            }
                        }
                        // Keep `v` only if some cross-process write may
                        // land inside what the unit reads.
                        write_events.get(&v).is_some_and(|ws| {
                            ws.iter()
                                .any(|&(q, w)| execs.iter().any(|&p| p != q) && !w.disjoint(region))
                        })
                    })
                    .collect();
                unit.reads = VarSet::from_iter(universe, kept);
            }
        }
    }

    /// The units of `body`.
    pub fn of(&self, body: BodyId) -> &BodySyncUnits {
        &self.per_body[&body]
    }

    /// Total number of units across all bodies.
    pub fn total(&self) -> usize {
        self.per_body.values().map(|b| b.len()).sum()
    }
}

fn is_boundary_stmt(effects: &ProgramEffects, stmt: StmtId) -> bool {
    let fx = effects.of(stmt);
    fx.is_sync || !fx.calls.is_empty()
}

fn compute_body(
    rp: &ResolvedProgram,
    cfg: &Cfg,
    effects: &ProgramEffects,
    modref: &ModRef,
) -> BodySyncUnits {
    let universe = rp.var_count();
    let mut units = Vec::new();
    let mut by_stmt = FxMap::default();

    // Entry unit first.
    units.push(unit_from(rp, cfg, effects, modref, cfg.entry(), UnitStart::Entry, universe));

    for (i, node) in cfg.nodes().iter().enumerate() {
        let CfgNodeKind::Stmt(stmt) = node.kind else { continue };
        if is_boundary_stmt(effects, stmt) {
            by_stmt.insert(stmt, units.len());
            units.push(unit_from(
                rp,
                cfg,
                effects,
                modref,
                NodeId(i as u32),
                UnitStart::Stmt(stmt),
                universe,
            ));
        }
    }
    BodySyncUnits { units, by_stmt }
}

/// Collects the shared reads/writes reachable from `from` without passing
/// through another boundary node.
///
/// Attribution follows execution order: a boundary statement's *own*
/// effects (argument evaluation, plus its callees' GREF/GMOD) happen
/// **before** the boundary operation completes, so they belong to the
/// *preceding* unit — the one whose completion-time snapshot precedes
/// them. Consequently each unit excludes its start node's effects and
/// includes the effects of every boundary node it stops at.
fn unit_from(
    rp: &ResolvedProgram,
    cfg: &Cfg,
    effects: &ProgramEffects,
    modref: &ModRef,
    from: NodeId,
    start: UnitStart,
    universe: usize,
) -> SyncUnit {
    let mut reads = VarSet::empty(universe);
    let mut writes = VarSet::empty(universe);
    let mut stmts = Vec::new();

    let add_effects = |stmt: StmtId, reads: &mut VarSet, writes: &mut VarSet| {
        let fx = effects.of(stmt);
        for v in fx.uses.to_vec() {
            if rp.is_shared(v) {
                reads.insert(v);
            }
        }
        for v in fx.defs.to_vec() {
            if rp.is_shared(v) {
                writes.insert(v);
            }
        }
        for &callee in &fx.calls {
            reads.union_with(modref.gref(BodyId::Func(callee)));
            writes.union_with(modref.gmod(BodyId::Func(callee)));
        }
    };

    // BFS over successors, stopping at boundary nodes — but charging
    // each stopping boundary's own (pre-completion) effects to this unit.
    let mut seen = vec![false; cfg.len()];
    seen[from.index()] = true;
    let mut queue: Vec<NodeId> = cfg.succs(from).collect();
    while let Some(n) = queue.pop() {
        if seen[n.index()] {
            continue;
        }
        seen[n.index()] = true;
        let CfgNodeKind::Stmt(stmt) = cfg.node(n).kind else { continue };
        add_effects(stmt, &mut reads, &mut writes);
        stmts.push(stmt);
        if is_boundary_stmt(effects, stmt) {
            continue; // effects after its completion are the next unit's
        }
        queue.extend(cfg.succs(n));
    }
    stmts.sort_unstable();
    SyncUnit { start, reads, writes, stmts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use ppd_lang::ast::walk_stmts;
    use ppd_lang::compile;

    fn analyze(src: &str) -> (ResolvedProgram, SyncUnits) {
        let rp = compile(src).unwrap();
        let effects = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &effects);
        let mr = ModRef::compute(&rp, &effects, &cg);
        let cfgs: HashMap<BodyId, Cfg> =
            rp.bodies().into_iter().map(|b| (b, Cfg::build(&rp, b).unwrap())).collect();
        let units = SyncUnits::compute(&rp, &cfgs, &effects, &mr, &cg);
        (rp, units)
    }

    fn body(rp: &ResolvedProgram, name: &str) -> BodyId {
        rp.bodies().into_iter().find(|b| rp.body_name(*b) == name).unwrap()
    }

    fn set_names(rp: &ResolvedProgram, s: &VarSet) -> Vec<String> {
        s.to_vec().iter().map(|v| rp.var_name(*v).to_owned()).collect()
    }

    /// Every fixture includes an `Other` process writing the shared
    /// variables, so the single-writer trim does not empty the read sets
    /// under test.
    const OTHER: &str = " process Other { a = 1; b = 2; g = 3; h = 4; } ";

    #[test]
    fn body_without_syncs_has_one_unit() {
        let (rp, units) = analyze(
            "shared int a; shared int b; shared int g; shared int h; \
             process M { g = g + 1; print(g); } process Other { g = 3; }",
        );
        let u = units.of(body(&rp, "M"));
        assert_eq!(u.len(), 1);
        assert_eq!(set_names(&rp, &u.entry_unit().reads), vec!["g"]);
        assert_eq!(set_names(&rp, &u.entry_unit().writes), vec!["g"]);
    }

    #[test]
    fn sync_ops_split_units() {
        let (rp, units) = analyze(
            &("shared int a; shared int b; shared int g; shared int h; sem s = 1; \
             process M { int x = a; p(s); b = x; v(s); print(b); }"
                .to_owned()
                + OTHER),
        );
        let m = body(&rp, "M");
        let u = units.of(m);
        // Units: entry (reads a), at p(s) (writes b), at v(s) (reads b).
        assert_eq!(u.len(), 3);
        assert_eq!(set_names(&rp, &u.entry_unit().reads), vec!["a"]);
        let mut stmts = Vec::new();
        walk_stmts(rp.body_block(m), &mut |s| stmts.push(s.id));
        let at_p = u.unit_at(stmts[1]).expect("p(s) is a boundary");
        assert_eq!(set_names(&rp, &at_p.writes), vec!["b"]);
        assert!(at_p.reads.is_empty());
        let at_v = u.unit_at(stmts[3]).expect("v(s) is a boundary");
        assert_eq!(set_names(&rp, &at_v.reads), vec!["b"]);
    }

    #[test]
    fn calls_are_unit_boundaries() {
        let (rp, units) = analyze(
            "shared int g; int f() { return g; } \
             process M { int a = g; int b = f(); print(a + b); } \
             process Other { g = 3; }",
        );
        let m = body(&rp, "M");
        let u = units.of(m);
        assert_eq!(u.len(), 2, "entry + at-call");
        let mut stmts = Vec::new();
        walk_stmts(rp.body_block(m), &mut |s| stmts.push(s.id));
        let at_call = u.unit_at(stmts[1]).unwrap();
        // The callee's reads evaluate before the call completes, so they
        // are charged to the *entry* unit; the at-call unit covers only
        // what runs after the call returns (here: nothing shared).
        assert!(set_names(&rp, &at_call.reads).is_empty());
        assert_eq!(set_names(&rp, &u.entry_unit().reads), vec!["g"]);
    }

    #[test]
    fn unit_stops_at_boundary_even_in_loops() {
        let (rp, units) = analyze(
            &("shared int a; shared int b; shared int g; shared int h; sem s = 1; \
             process M { int i; for (i = 0; i < 3; i = i + 1) { g = g + 1; p(s); h = h + 1; v(s); } }"
                .to_owned()
                + OTHER),
        );
        let m = body(&rp, "M");
        let u = units.of(m);
        // Entry unit reaches g (before the first p(s)) but must also see
        // g again via the loop back edge... the back edge passes through
        // v(s) (a boundary), so the entry unit reads exactly {g}.
        assert_eq!(set_names(&rp, &u.entry_unit().reads), vec!["g"]);
        assert_eq!(set_names(&rp, &u.entry_unit().writes), vec!["g"]);
    }

    #[test]
    fn v_unit_wraps_around_loop() {
        let (rp, units) = analyze(
            &("shared int a; shared int b; shared int g; shared int h; sem s = 1; \
             process M { int i = 0; while (i < 3) { p(s); i = i + 1; v(s); g = g + 2; } print(g); }"
                .to_owned() + OTHER),
        );
        let m = body(&rp, "M");
        let mut stmts = Vec::new();
        walk_stmts(rp.body_block(m), &mut |s| stmts.push(s.id));
        // stmts: [decl i, while, p, assign i, v, assign g, print]
        let at_v = units.of(m).unit_at(stmts[4]).unwrap();
        // From v(s): g = g + 2, loop header, print(g) — and stops at p(s).
        assert_eq!(set_names(&rp, &at_v.reads), vec!["g"]);
        assert_eq!(set_names(&rp, &at_v.writes), vec!["g"]);
    }

    #[test]
    fn single_writer_variables_are_trimmed_from_snapshots() {
        // M is the only writer of `mine`; Other writes `theirs`. M's
        // unit snapshots keep `theirs` but drop `mine` — M's own writes
        // are reproduced by replay itself (§5.5's rationale).
        let (rp, units) = analyze(
            "shared int mine; shared int theirs; sem s = 1; \
             process M { p(s); int x = mine + theirs; mine = x; v(s); print(mine); } \
             process Other { p(s); theirs = theirs + 1; v(s); }",
        );
        let m = body(&rp, "M");
        let mut stmts = Vec::new();
        walk_stmts(rp.body_block(m), &mut |s| stmts.push(s.id));
        let at_p = units.of(m).unit_at(stmts[0]).expect("p(s) boundary");
        assert_eq!(set_names(&rp, &at_p.reads), vec!["theirs"]);
    }

    #[test]
    fn unwritten_variables_are_trimmed_from_snapshots() {
        // `config` is never written by anyone: its prelog value cannot
        // change, so no snapshot is needed.
        let (rp, units) = analyze(
            "shared int config = 9; shared int g; sem s = 1; \
             process M { p(s); g = config; v(s); print(g); } \
             process Other { p(s); g = g + 1; v(s); }",
        );
        let m = body(&rp, "M");
        let mut stmts = Vec::new();
        walk_stmts(rp.body_block(m), &mut |s| stmts.push(s.id));
        let at_p = units.of(m).unit_at(stmts[0]).expect("p(s) boundary");
        assert!(!set_names(&rp, &at_p.reads).contains(&"config".to_owned()));
    }

    #[test]
    fn function_called_by_two_processes_keeps_snapshots() {
        // `helper` runs in either process, so the single-executor trim
        // must not apply to its units.
        let (rp, units) = analyze(
            "shared int g; sem s = 1; \
             int helper() { p(s); int x = g; g = x + 1; v(s); return x; } \
             process A { print(helper()); } \
             process B { print(helper()); }",
        );
        let h = body(&rp, "helper");
        let mut stmts = Vec::new();
        walk_stmts(rp.body_block(h), &mut |s| stmts.push(s.id));
        let at_p = units.of(h).unit_at(stmts[0]).expect("p(s) boundary");
        assert_eq!(set_names(&rp, &at_p.reads), vec!["g"]);
    }

    #[test]
    fn fig61_units() {
        let rp = ppd_lang::corpus::FIG_6_1.compile();
        let effects = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &effects);
        let mr = ModRef::compute(&rp, &effects, &cg);
        let cfgs: HashMap<BodyId, Cfg> =
            rp.bodies().into_iter().map(|b| (b, Cfg::build(&rp, b).unwrap())).collect();
        let units = SyncUnits::compute(&rp, &cfgs, &effects, &mr, &cg);
        // P1: entry unit writes SV; send unit; total 2.
        let p1 = body(&rp, "P1");
        assert_eq!(units.of(p1).len(), 2);
        assert_eq!(set_names(&rp, &units.of(p1).entry_unit().writes), vec!["SV"]);
        // P3: entry unit (just the decl), recv unit reads SV.
        let p3 = body(&rp, "P3");
        assert_eq!(units.of(p3).len(), 2);
        let recv_unit =
            units.of(p3).units.iter().find(|u| matches!(u.start, UnitStart::Stmt(_))).unwrap();
        assert_eq!(set_names(&rp, &recv_unit.reads), vec!["SV"]);
    }
}
