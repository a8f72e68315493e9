//! # ppd-analysis — the semantic analyses behind incremental tracing
//!
//! The paper (§1, §5.1) keeps flowback analysis cheap "by applying
//! inter-procedural analysis and data flow analysis commonly used in
//! optimizing compilers". This crate is that compiler middle-end:
//!
//! - [`cfg`](mod@cfg) — control-flow graphs per function/process body;
//! - [`dom`] — dominators and postdominators;
//! - [`control_dep`] — Ferrante–Ottenstein–Warren control dependence;
//! - [`dataflow`] — a generic worklist solver;
//! - [`usedef`] — per-statement USED/DEFINED sets;
//! - [`reaching`] / [`liveness`] — the classic dataflow instances;
//! - [`callgraph`] / [`interproc`] — call graph and GMOD/GREF closures;
//! - [`syncunit`] — synchronization units (§5.5, Definition 5.1);
//! - [`eblock`] — emulation-block construction strategies (§5.4);
//! - [`database`] — the program database (§3.2.1);
//! - [`varset`] — bit-mask vs list variable sets (the §7 ablation).
//!
//! [`Analyses::run`] bundles everything a debugger session needs.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rp = ppd_lang::compile("shared int g; process M { g = g + 1; }")?;
//! let analyses = ppd_analysis::Analyses::run(&rp);
//! let body = rp.bodies()[0];
//! assert_eq!(analyses.cfg(body).stmts().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod callgraph;
pub mod cfg;
pub mod control_dep;
pub mod database;
pub mod dataflow;
pub mod dom;
pub mod eblock;
pub mod interproc;
pub mod lint;
pub mod liveness;
pub mod mhp;
pub mod ranges;
pub mod reaching;
pub mod syncunit;
pub mod usedef;
pub mod varset;

pub use absint::{AbsInt, ArrayAccess};
pub use callgraph::CallGraph;
pub use cfg::{Cfg, CfgNodeKind, EdgeKind, NodeId};
pub use control_dep::ControlDeps;
pub use database::{ProgramDatabase, SiteRef};
pub use dom::DomTree;
pub use eblock::{EBlock, EBlockId, EBlockPlan, EBlockStrategy, Region};
pub use interproc::ModRef;
pub use lint::{Diagnostic, LintContext, Note, RaceCandidates, Severity};
pub use liveness::Liveness;
pub use mhp::MhpAnalysis;
pub use ranges::Interval;
pub use reaching::{DefSite, ReachingDefs};
pub use syncunit::{BodySyncUnits, SyncUnit, SyncUnits, UnitStart};
pub use usedef::{ProgramEffects, StmtEffects};
pub use varset::{BitVarSet, ListVarSet, VarSet, VarSetRepr};

use ppd_lang::{BodyId, ResolvedProgram};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error from the analysis phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    message: String,
}

impl AnalysisError {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        AnalysisError { message: message.into() }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for AnalysisError {}

/// Knobs for the preparatory-phase pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Use the MHP relation to drop shared variables from sync-unit
    /// snapshot read sets when every conflicting cross-process write is
    /// statically ordered around the unit's reads (shrinks logs; replay
    /// behaviour is unchanged because emission and consumption share
    /// the same trimmed sets).
    pub mhp_snapshot_trim: bool,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig { mhp_snapshot_trim: true }
    }
}

/// Everything the preparatory phase (§3.2.1) computes, bundled.
///
/// This corresponds to the artifacts the paper's Compiler/Linker emits
/// alongside the object code: the static-graph ingredients (CFGs,
/// control and data dependences), the program database, interprocedural
/// summaries and synchronization units.
#[derive(Debug, Clone)]
pub struct Analyses {
    /// Per-statement direct effects.
    pub effects: ProgramEffects,
    /// The call graph.
    pub callgraph: CallGraph,
    /// GMOD/GREF summaries.
    pub modref: ModRef,
    cfgs: HashMap<BodyId, Cfg>,
    doms: HashMap<BodyId, DomTree>,
    pdoms: HashMap<BodyId, DomTree>,
    cds: HashMap<BodyId, ControlDeps>,
    reaching: HashMap<BodyId, ReachingDefs>,
    liveness: HashMap<BodyId, Liveness>,
    /// Synchronization units of every body.
    pub sync_units: SyncUnits,
    /// The program database.
    pub database: ProgramDatabase,
    /// Static race candidates — the pruning index for dynamic detection.
    pub race_candidates: RaceCandidates,
    /// The static may-happen-in-parallel relation (§6.2's static analogue).
    pub mhp: MhpAnalysis,
    /// MHP-refined race candidates — always a subset of
    /// [`Analyses::race_candidates`], used as the second pruning stage.
    pub mhp_candidates: RaceCandidates,
    /// The type checker's result: `Some` only when the program
    /// type-checks with no errors.
    pub types: Option<ppd_lang::types::TypeInfo>,
    /// The type-refined MHP relation (typed channel aliasing); `Some`
    /// exactly when [`Analyses::types`] is.
    pub mhp_typed: Option<MhpAnalysis>,
    /// Race candidates refined by [`Analyses::mhp_typed`] — a subset of
    /// [`Analyses::mhp_candidates`]; equal to it when the program does
    /// not type-check (the untyped index is the sound fallback).
    pub typed_candidates: RaceCandidates,
    /// The abstract-interpretation solution (intervals + constants).
    pub absint: AbsInt,
    /// Race candidates refined by element-granular index intervals — a
    /// subset of [`Analyses::typed_candidates`] and the third static
    /// pruning stage (`absint ⊆ typed ⊆ mhp ⊆ pruned ⊆ naive`).
    pub absint_candidates: RaceCandidates,
}

impl Analyses {
    /// Runs the full preparatory-phase analysis pipeline on `rp` with
    /// the default [`AnalysisConfig`].
    pub fn run(rp: &ResolvedProgram) -> Analyses {
        Analyses::run_with(rp, AnalysisConfig::default())
    }

    /// Runs the full preparatory-phase analysis pipeline on `rp`.
    pub fn run_with(rp: &ResolvedProgram, config: AnalysisConfig) -> Analyses {
        let effects = ProgramEffects::compute(rp);
        let callgraph = CallGraph::build(rp, &effects);
        let modref = ModRef::compute(rp, &effects, &callgraph);
        let mut cfgs = HashMap::new();
        let mut doms = HashMap::new();
        let mut pdoms = HashMap::new();
        let mut cds = HashMap::new();
        let mut reaching = HashMap::new();
        let mut liveness = HashMap::new();
        for body in rp.bodies() {
            let cfg = Cfg::build(rp, body).expect("resolved programs always lower");
            let dom = DomTree::dominators(&cfg);
            let pdom = DomTree::postdominators(&cfg);
            let cd = ControlDeps::compute(&cfg, &pdom);
            let rd = ReachingDefs::compute(rp, &cfg, &effects, &modref);
            let lv = Liveness::compute(rp, &cfg, &effects, &modref);
            cfgs.insert(body, cfg);
            doms.insert(body, dom);
            pdoms.insert(body, pdom);
            cds.insert(body, cd);
            reaching.insert(body, rd);
            liveness.insert(body, lv);
        }
        let mhp = MhpAnalysis::compute(rp, &cfgs, &doms, &callgraph);
        let mut sync_units = SyncUnits::compute(rp, &cfgs, &effects, &modref, &callgraph);
        if config.mhp_snapshot_trim {
            sync_units.trim_with_mhp(rp, &effects, &modref, &callgraph, &mhp);
        }
        let race_candidates = RaceCandidates::from_modref(rp, &modref);
        let mhp_candidates = mhp.refine_candidates(rp, &effects, &modref, &race_candidates);
        // Typed layer: only trusted when the program type-checks clean.
        let tc = ppd_lang::types::check(rp);
        let types = tc.is_ok().then_some(tc.info);
        let mhp_typed =
            types.as_ref().map(|ti| MhpAnalysis::compute_typed(rp, &cfgs, &doms, &callgraph, ti));
        let typed_candidates = match &mhp_typed {
            Some(mt) => mt.refine_candidates(rp, &effects, &modref, &mhp_candidates),
            None => mhp_candidates.clone(),
        };
        let absint = AbsInt::compute(rp, &cfgs);
        let absint_candidates = match &mhp_typed {
            Some(mt) => absint.refine_candidates(rp, &effects, mt, &typed_candidates),
            None => absint.refine_candidates(rp, &effects, &mhp, &typed_candidates),
        };
        if config.mhp_snapshot_trim {
            // Element granularity sharpens the snapshot trim the same
            // way it sharpens candidates: an array whose concurrent
            // writes all land outside the unit's read regions needs no
            // extra prelog.
            sync_units.sharpen_with_absint(
                rp,
                &effects,
                &modref,
                &callgraph,
                mhp_typed.as_ref().unwrap_or(&mhp),
                &absint,
            );
        }
        let database = ProgramDatabase::build(rp, &effects, &modref, types.as_ref());
        Analyses {
            effects,
            callgraph,
            modref,
            cfgs,
            doms,
            pdoms,
            cds,
            reaching,
            liveness,
            sync_units,
            database,
            race_candidates,
            mhp,
            mhp_candidates,
            types,
            mhp_typed,
            typed_candidates,
            absint,
            absint_candidates,
        }
    }

    /// The CFG of `body`.
    pub fn cfg(&self, body: BodyId) -> &Cfg {
        &self.cfgs[&body]
    }

    /// The dominator tree of `body`.
    pub fn dominators(&self, body: BodyId) -> &DomTree {
        &self.doms[&body]
    }

    /// The postdominator tree of `body`.
    pub fn postdominators(&self, body: BodyId) -> &DomTree {
        &self.pdoms[&body]
    }

    /// The control dependences of `body`.
    pub fn control_deps(&self, body: BodyId) -> &ControlDeps {
        &self.cds[&body]
    }

    /// The reaching definitions of `body`.
    pub fn reaching(&self, body: BodyId) -> &ReachingDefs {
        &self.reaching[&body]
    }

    /// The liveness solution of `body`.
    pub fn liveness(&self, body: BodyId) -> &Liveness {
        &self.liveness[&body]
    }

    /// Computes an e-block plan under `strategy` using these analyses.
    pub fn eblock_plan(&self, rp: &ResolvedProgram, strategy: EBlockStrategy) -> EBlockPlan {
        EBlockPlan::compute(rp, &self.effects, &self.callgraph, &self.modref, strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_on_corpus() {
        for prog in ppd_lang::corpus::all() {
            let rp = prog.compile();
            let analyses = Analyses::run(&rp);
            for body in rp.bodies() {
                let cfg = analyses.cfg(body);
                assert!(cfg.len() >= 2, "{}: {}", prog.name, rp.body_name(body));
                // Entry dominates all reachable nodes.
                let dom = analyses.dominators(body);
                for n in cfg.reverse_postorder() {
                    assert!(dom.dominates(cfg.entry(), n));
                }
            }
            assert!(analyses.sync_units.total() >= rp.procs.len());
        }
    }

    #[test]
    fn eblock_plan_through_bundle() {
        let rp = ppd_lang::corpus::QUICKSORT.compile();
        let analyses = Analyses::run(&rp);
        let plan = analyses.eblock_plan(&rp, EBlockStrategy::per_subroutine());
        // Main + swap + partition + qsort_range
        assert_eq!(plan.eblocks().len(), 4);
    }
}
