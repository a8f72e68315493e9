//! Emulation-block construction (§5.4).
//!
//! E-blocks are the unit of incremental tracing: the object code emits a
//! **prelog** (values that may be read) at each e-block entry and a
//! **postlog** (values that may be written) at each exit; during
//! debugging, the emulation package replays a single e-block from its
//! prelog to regenerate full traces.
//!
//! Strategies, following §5.4:
//! - every subroutine and process body is an e-block (the natural unit);
//! - loops with long bodies may form their own e-blocks so the debugger
//!   need not replay whole loops;
//! - very large bodies may be *split* into chunks of consecutive
//!   top-level statements (the entry point of each chunk is well defined);
//! - small leaf subroutines may be *merged* into their callers, which
//!   inherit their USED/DEFINED sets and perform their logging.

use crate::callgraph::CallGraph;
use crate::interproc::ModRef;
use crate::usedef::ProgramEffects;
use crate::varset::{VarSet, VarSetRepr};
use ppd_lang::ast::{walk_stmt, walk_stmts, Stmt, StmtKind};
use ppd_lang::{BodyId, FuncId, FxMap, IdTable, ResolvedProgram, StmtId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Dense id of an e-block within one [`EBlockPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EBlockId(pub u32);

impl EBlockId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eb{}", self.0)
    }
}

/// The code region an e-block covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Region {
    /// A whole function or process body.
    Body(BodyId),
    /// One `while`/`for` statement (including its init/step) inside
    /// `body`.
    Loop {
        /// The owning body.
        body: BodyId,
        /// The loop statement.
        stmt: StmtId,
    },
    /// Consecutive top-level statements `first..=last` (by position) of
    /// `body` — produced by splitting a large body.
    Chunk {
        /// The owning body.
        body: BodyId,
        /// Chunk ordinal within the body.
        index: usize,
        /// Ids of the top-level statements in this chunk, in order.
        stmts: Vec<StmtId>,
    },
}

impl Region {
    /// The body the region belongs to.
    pub fn body(&self) -> BodyId {
        match self {
            Region::Body(b) | Region::Loop { body: b, .. } | Region::Chunk { body: b, .. } => *b,
        }
    }
}

/// One e-block with its log sets.
#[derive(Debug, Clone)]
pub struct EBlock {
    /// This block's id.
    pub id: EBlockId,
    /// The region it covers.
    pub region: Region,
    /// USED set (§5.1): variables that may be read during the block —
    /// the prelog contents.
    pub used: VarSet,
    /// DEFINED set: variables that may be written — the postlog contents.
    pub defined: VarSet,
}

/// How to carve a program into e-blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EBlockStrategy {
    /// `Some(n)`: loops whose subtree contains at least `n` statements
    /// become their own e-blocks.
    pub loop_eblocks: Option<usize>,
    /// `Some(n)`: bodies with more than `n` top-level statements are
    /// split into chunks of at most `n`.
    pub split_large: Option<usize>,
    /// `Some(n)`: non-recursive leaf functions with at most `n`
    /// statements are merged into their callers (no e-block, no logging).
    pub merge_leaves: Option<usize>,
    /// The paper's §7 alternative for aliased data: instead of
    /// snapshotting whole arrays in prelogs/postlogs/unit snapshots,
    /// "simply record all uses of pointers in the logs" — every
    /// array-element *read* is logged individually during execution and
    /// consumed during replay. Trades per-read log records for
    /// per-interval whole-array copies.
    pub element_logged_arrays: bool,
}

impl EBlockStrategy {
    /// The paper's natural default: one e-block per subroutine/process.
    pub fn per_subroutine() -> Self {
        EBlockStrategy {
            loop_eblocks: None,
            split_large: None,
            merge_leaves: None,
            element_logged_arrays: false,
        }
    }

    /// Returns this strategy with element-granular array logging (§7's
    /// "record all uses" alternative) switched on.
    pub fn with_element_logged_arrays(mut self) -> Self {
        self.element_logged_arrays = true;
        self
    }

    /// Per-subroutine plus loop e-blocks for loops of at least
    /// `min_stmts` statements.
    pub fn with_loops(min_stmts: usize) -> Self {
        EBlockStrategy { loop_eblocks: Some(min_stmts), ..Self::per_subroutine() }
    }

    /// Per-subroutine plus splitting of bodies with more than
    /// `max_stmts` top-level statements.
    pub fn with_split(max_stmts: usize) -> Self {
        EBlockStrategy { split_large: Some(max_stmts), ..Self::per_subroutine() }
    }

    /// Per-subroutine plus leaf merging for leaves of at most
    /// `max_stmts` statements.
    pub fn with_leaf_merge(max_stmts: usize) -> Self {
        EBlockStrategy { merge_leaves: Some(max_stmts), ..Self::per_subroutine() }
    }
}

impl Default for EBlockStrategy {
    fn default() -> Self {
        Self::per_subroutine()
    }
}

/// The complete e-block plan for one program under one strategy.
///
/// # Examples
///
/// ```
/// use ppd_analysis::{Analyses, EBlockStrategy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rp = ppd_lang::compile(
///     "int tiny(int x) { return x + 1; } \
///      process Main { print(tiny(41)); }",
/// )?;
/// let analyses = Analyses::run(&rp);
///
/// // Default: one e-block per subroutine and process body.
/// let plan = analyses.eblock_plan(&rp, EBlockStrategy::per_subroutine());
/// assert_eq!(plan.eblocks().len(), 2);
///
/// // Leaf merging absorbs `tiny` into its caller (§5.4).
/// let plan = analyses.eblock_plan(&rp, EBlockStrategy::with_leaf_merge(4));
/// assert_eq!(plan.eblocks().len(), 1);
/// assert!(plan.is_merged(rp.func_by_name("tiny").unwrap()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EBlockPlan {
    /// The strategy that produced this plan.
    pub strategy: EBlockStrategy,
    eblocks: Vec<EBlock>,
    body_block: FxMap<BodyId, EBlockId>,
    loop_block: IdTable<StmtId, EBlockId>,
    chunk_start: IdTable<StmtId, EBlockId>,
    merged: HashSet<FuncId>,
}

impl EBlockPlan {
    /// Computes the plan.
    pub fn compute(
        rp: &ResolvedProgram,
        effects: &ProgramEffects,
        callgraph: &CallGraph,
        modref: &ModRef,
        strategy: EBlockStrategy,
    ) -> EBlockPlan {
        let mut plan = EBlockPlan {
            strategy,
            eblocks: Vec::new(),
            body_block: FxMap::default(),
            loop_block: IdTable::new(),
            chunk_start: IdTable::new(),
            merged: HashSet::new(),
        };

        // Decide which functions are merged leaves. Merging is
        // iterative, per §5.4's intent: once every callee of a small
        // non-recursive function is itself merged, the function is a
        // leaf of the *residual* call graph and can merge too — its
        // caller "inherits the USED and DEFINED sets … and performs the
        // logging for the descendant subroutines". The size test uses
        // the transitive statement count (what the caller effectively
        // absorbs).
        if let Some(max) = strategy.merge_leaves {
            let own_count: HashMap<FuncId, usize> = rp
                .bodies()
                .into_iter()
                .filter_map(|body| match body {
                    BodyId::Func(f) => Some((f, stmt_count(rp.body_block(body).stmts.as_slice()))),
                    BodyId::Proc(_) => None,
                })
                .collect();
            loop {
                let mut changed = false;
                for (&f, &own) in &own_count {
                    if plan.merged.contains(&f)
                        || callgraph.is_recursive(f)
                        || !callgraph.is_called(f)
                    {
                        continue;
                    }
                    // All callees already merged?
                    let callees: Vec<FuncId> = callgraph
                        .callees(BodyId::Func(f))
                        .filter_map(|b| match b {
                            BodyId::Func(g) => Some(g),
                            BodyId::Proc(_) => None,
                        })
                        .collect();
                    if !callees.iter().all(|g| plan.merged.contains(g)) {
                        continue;
                    }
                    let total: usize = own + callees.iter().map(|g| own_count[g]).sum::<usize>();
                    if total <= max {
                        plan.merged.insert(f);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        for body in rp.bodies() {
            if let BodyId::Func(f) = body {
                if plan.merged.contains(&f) {
                    continue;
                }
            }
            let top = &rp.body_block(body).stmts;
            let split = strategy.split_large.filter(|&max| top.len() > max);
            match split {
                Some(max) => {
                    for (index, chunk) in top.chunks(max).enumerate() {
                        let stmts: Vec<StmtId> = chunk.iter().map(|s| s.id).collect();
                        let (used, defined) =
                            region_sets(rp, effects, modref, chunk.iter(), strategy);
                        let id = EBlockId(plan.eblocks.len() as u32);
                        plan.chunk_start.insert(stmts[0], id);
                        plan.eblocks.push(EBlock {
                            id,
                            region: Region::Chunk { body, index, stmts },
                            used,
                            defined,
                        });
                    }
                }
                None => {
                    let (used, defined) = region_sets(rp, effects, modref, top.iter(), strategy);
                    let id = EBlockId(plan.eblocks.len() as u32);
                    plan.body_block.insert(body, id);
                    plan.eblocks.push(EBlock { id, region: Region::Body(body), used, defined });
                }
            }

            // Loop e-blocks (inside bodies or chunks alike).
            if let Some(min) = strategy.loop_eblocks {
                walk_stmts(rp.body_block(body), &mut |stmt| {
                    if matches!(stmt.kind, StmtKind::While { .. } | StmtKind::For { .. }) {
                        let mut n = 0usize;
                        walk_stmt(stmt, &mut |_| n += 1);
                        if n >= min {
                            let (used, defined) =
                                region_sets(rp, effects, modref, std::iter::once(stmt), strategy);
                            let id = EBlockId(plan.eblocks.len() as u32);
                            plan.loop_block.insert(stmt.id, id);
                            plan.eblocks.push(EBlock {
                                id,
                                region: Region::Loop { body, stmt: stmt.id },
                                used,
                                defined,
                            });
                        }
                    }
                });
            }
        }
        plan
    }

    /// All e-blocks.
    pub fn eblocks(&self) -> &[EBlock] {
        &self.eblocks
    }

    /// Lookup by id.
    pub fn eblock(&self, id: EBlockId) -> &EBlock {
        &self.eblocks[id.index()]
    }

    /// The e-block covering an entire body, if the body was not split or
    /// merged.
    pub fn body_eblock(&self, body: BodyId) -> Option<EBlockId> {
        self.body_block.get(&body).copied()
    }

    /// The loop e-block rooted at `stmt`, if any.
    pub fn loop_eblock(&self, stmt: StmtId) -> Option<EBlockId> {
        self.loop_block.get(&stmt).copied()
    }

    /// The chunk e-block starting at top-level statement `stmt`, if any.
    pub fn chunk_starting_at(&self, stmt: StmtId) -> Option<EBlockId> {
        self.chunk_start.get(&stmt).copied()
    }

    /// Whether `func` was merged into its callers (emits no logs).
    pub fn is_merged(&self, func: FuncId) -> bool {
        self.merged.contains(&func)
    }

    /// Functions merged into their callers.
    pub fn merged_leaves(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.merged.iter().copied()
    }
}

fn stmt_count(stmts: &[Stmt]) -> usize {
    let mut n = 0;
    for s in stmts {
        walk_stmt(s, &mut |_| n += 1);
    }
    n
}

/// USED/DEFINED sets of a region (§5.1): union of the direct uses/defs of
/// every statement in the region subtree, plus the interprocedural
/// GREF/GMOD of every call inside it.
fn region_sets<'a>(
    rp: &ResolvedProgram,
    effects: &ProgramEffects,
    modref: &ModRef,
    stmts: impl Iterator<Item = &'a Stmt>,
    strategy: EBlockStrategy,
) -> (VarSet, VarSet) {
    let universe = rp.var_count();
    let mut used = VarSet::empty(universe);
    let mut defined = VarSet::empty(universe);
    for top in stmts {
        walk_stmt(top, &mut |stmt| {
            let fx = effects.of(stmt.id);
            used.union_with(&fx.uses);
            defined.union_with(&fx.defs);
            for &callee in &fx.calls {
                used.union_with(modref.gref(BodyId::Func(callee)));
                defined.union_with(modref.gmod(BodyId::Func(callee)));
            }
        });
    }
    if strategy.element_logged_arrays {
        // Arrays never appear in prelogs/postlogs: their element reads
        // are logged individually at use time instead (§7).
        let arrays = VarSet::from_iter(
            universe,
            (0..universe as u32).map(ppd_lang::VarId).filter(|v| rp.vars[v.index()].size.is_some()),
        );
        used.subtract(&arrays);
        defined.subtract(&arrays);
    }
    (used, defined)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ctx {
        rp: ResolvedProgram,
        effects: ProgramEffects,
        cg: CallGraph,
        mr: ModRef,
    }

    fn ctx(src: &str) -> Ctx {
        let rp = ppd_lang::compile(src).unwrap();
        let effects = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &effects);
        let mr = ModRef::compute(&rp, &effects, &cg);
        Ctx { rp, effects, cg, mr }
    }

    fn plan(c: &Ctx, s: EBlockStrategy) -> EBlockPlan {
        EBlockPlan::compute(&c.rp, &c.effects, &c.cg, &c.mr, s)
    }

    fn set_names(rp: &ResolvedProgram, s: &VarSet) -> Vec<String> {
        s.to_vec().iter().map(|v| rp.var_name(*v).to_owned()).collect()
    }

    #[test]
    fn per_subroutine_gives_one_block_per_body() {
        let c = ctx("shared int g; int f(int a) { return a + g; } \
             process M { g = f(1); } process N { print(g); }");
        let p = plan(&c, EBlockStrategy::per_subroutine());
        assert_eq!(p.eblocks().len(), 3);
        for body in c.rp.bodies() {
            assert!(p.body_eblock(body).is_some(), "{} missing", c.rp.body_name(body));
        }
    }

    #[test]
    fn used_set_covers_callee_shared_reads() {
        let c = ctx("shared int g; shared int h; int f() { return g; } \
             process M { h = f(); }");
        let p = plan(&c, EBlockStrategy::per_subroutine());
        let m = p.body_eblock(c.rp.bodies()[0]).unwrap();
        let eb = p.eblock(m);
        assert_eq!(set_names(&c.rp, &eb.used), vec!["g"]);
        assert_eq!(set_names(&c.rp, &eb.defined), vec!["h"]);
    }

    #[test]
    fn loop_strategy_adds_loop_blocks() {
        let c = ctx("shared int s; process M { int i; for (i = 0; i < 10; i = i + 1) \
             { s = s + i; } print(s); }");
        let p = plan(&c, EBlockStrategy::with_loops(2));
        // body block + loop block
        assert_eq!(p.eblocks().len(), 2);
        let loop_eb = p
            .eblocks()
            .iter()
            .find(|e| matches!(e.region, Region::Loop { .. }))
            .expect("loop e-block");
        // Loop reads s and i (i both read and written), defines s and i.
        let used = set_names(&c.rp, &loop_eb.used);
        assert!(used.contains(&"s".to_owned()));
        assert!(used.contains(&"i".to_owned()));
    }

    #[test]
    fn loop_threshold_filters_small_loops() {
        let c = ctx("process M { int i = 0; while (i < 2) { i = i + 1; } }");
        let p = plan(&c, EBlockStrategy::with_loops(50));
        assert_eq!(p.eblocks().len(), 1, "small loop should not split");
    }

    #[test]
    fn split_large_chunks_top_level() {
        let c = ctx(
            "process M { int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; print(a + b + c + d + e); }",
        );
        let p = plan(&c, EBlockStrategy::with_split(2));
        let chunks: Vec<&EBlock> =
            p.eblocks().iter().filter(|e| matches!(e.region, Region::Chunk { .. })).collect();
        assert_eq!(chunks.len(), 3); // 6 top-level stmts / 2
                                     // Chunk starts registered.
        let body = c.rp.bodies()[0];
        let top = &c.rp.body_block(body).stmts;
        assert!(p.chunk_starting_at(top[0].id).is_some());
        assert!(p.chunk_starting_at(top[2].id).is_some());
        assert!(p.chunk_starting_at(top[4].id).is_some());
        assert!(p.chunk_starting_at(top[1].id).is_none());
        assert!(p.body_eblock(body).is_none(), "split bodies have no whole-body block");
    }

    #[test]
    fn small_bodies_not_split() {
        let c = ctx("process M { int a = 1; print(a); }");
        let p = plan(&c, EBlockStrategy::with_split(5));
        assert!(p.body_eblock(c.rp.bodies()[0]).is_some());
    }

    #[test]
    fn leaf_merge_removes_leaf_blocks() {
        let c = ctx("shared int g; int tiny() { return 1; } \
             int big(int n) { int acc = 0; int i; for (i = 0; i < n; i = i + 1) \
             { acc = acc + tiny(); } return acc; } \
             process M { g = big(3); }");
        let p = plan(&c, EBlockStrategy::with_leaf_merge(3));
        let tiny = c.rp.func_by_name("tiny").unwrap();
        assert!(p.is_merged(tiny));
        assert!(p.body_eblock(BodyId::Func(tiny)).is_none());
        // big still has a block.
        let big = c.rp.func_by_name("big").unwrap();
        assert!(p.body_eblock(BodyId::Func(big)).is_some());
        assert_eq!(p.merged_leaves().count(), 1);
    }

    #[test]
    fn recursive_functions_never_merged() {
        let c = ctx("int r(int n) { if (n <= 0) { return 0; } return r(n - 1); } \
             process M { print(r(2)); }");
        let p = plan(&c, EBlockStrategy::with_leaf_merge(100));
        assert!(!p.is_merged(c.rp.func_by_name("r").unwrap()));
    }

    #[test]
    fn uncalled_functions_not_merged() {
        let c = ctx("int dead() { return 1; } process M { print(1); }");
        let p = plan(&c, EBlockStrategy::with_leaf_merge(100));
        assert!(!p.is_merged(c.rp.func_by_name("dead").unwrap()));
    }

    #[test]
    fn fig41_plan_shape() {
        let rp = ppd_lang::corpus::FIG_4_1.compile();
        let effects = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &effects);
        let mr = ModRef::compute(&rp, &effects, &cg);
        let p = EBlockPlan::compute(&rp, &effects, &cg, &mr, EBlockStrategy::per_subroutine());
        // Main, sqrt, SubD
        assert_eq!(p.eblocks().len(), 3);
        // Main's USED includes nothing shared to read before writing out.
        let main = BodyId::Proc(rp.proc_by_name("Main").unwrap());
        let eb = p.eblock(p.body_eblock(main).unwrap());
        let defined = set_names(&rp, &eb.defined);
        assert!(defined.contains(&"out".to_owned()));
    }
}

#[cfg(test)]
mod iterative_merge_tests {
    use super::*;

    #[test]
    fn merging_is_iterative_up_the_call_chain() {
        let rp = ppd_lang::compile(
            "shared int g; \
             int leaf(int x) { return x + 1; } \
             int mid(int x) { return leaf(x) * 2; } \
             int big(int n) { int acc = 0; int i; \
               for (i = 0; i < n; i = i + 1) { acc = acc + mid(i); } return acc; } \
             process M { g = big(3); }",
        )
        .unwrap();
        let effects = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &effects);
        let mr = ModRef::compute(&rp, &effects, &cg);
        // Threshold 5: leaf (1 stmt) merges; mid (1 own + 1 merged = 2)
        // merges next round; big (6 + 2 = 8) exceeds 5 and stays.
        let plan = EBlockPlan::compute(&rp, &effects, &cg, &mr, EBlockStrategy::with_leaf_merge(5));
        assert!(plan.is_merged(rp.func_by_name("leaf").unwrap()));
        assert!(plan.is_merged(rp.func_by_name("mid").unwrap()));
        assert!(!plan.is_merged(rp.func_by_name("big").unwrap()));
        // Threshold 10 absorbs big too.
        let plan =
            EBlockPlan::compute(&rp, &effects, &cg, &mr, EBlockStrategy::with_leaf_merge(10));
        assert!(plan.is_merged(rp.func_by_name("big").unwrap()));
        // Only the process body remains as an e-block.
        assert_eq!(plan.eblocks().len(), 1);
    }

    #[test]
    fn recursion_still_blocks_merging_transitively() {
        let rp = ppd_lang::compile(
            "int r(int n) { if (n <= 0) { return 0; } return r(n - 1); } \
             int wrap(int n) { return r(n) + 1; } \
             process M { print(wrap(2)); }",
        )
        .unwrap();
        let effects = ProgramEffects::compute(&rp);
        let cg = CallGraph::build(&rp, &effects);
        let mr = ModRef::compute(&rp, &effects, &cg);
        let plan =
            EBlockPlan::compute(&rp, &effects, &cg, &mr, EBlockStrategy::with_leaf_merge(100));
        assert!(!plan.is_merged(rp.func_by_name("r").unwrap()));
        // wrap's callee r is unmerged, so wrap stays too.
        assert!(!plan.is_merged(rp.func_by_name("wrap").unwrap()));
    }
}
