//! PPD005 — inconsistently locked shared variables.
//!
//! A shared variable guarded by a lock on one concurrent path but by a
//! *different* lock — or by none — on another is almost always a bug:
//! a guard only excludes accesses that take the same lock. This pass
//! computes, per statement, the **must-held lockset** (semaphores
//! acquired by `p`/`lock` on every path from process entry and not yet
//! released) with a forward must-intersection dataflow, interprocedural
//! by intersecting over call sites. It then reports shared variables
//! with two conflicting accesses in different processes that
//! [`crate::mhp::MhpAnalysis::may_happen_in_parallel`] deems
//! concurrent, whose locksets are **disjoint with at least one side
//! non-empty** — somebody locked, but not against this access. Plain
//! unprotected variables (both locksets empty) stay PPD001/PPD002
//! territory, so this pass is silent both on consistently locked and on
//! entirely unsynchronized programs.

use super::{Diagnostic, LintContext, Pass, Severity};
use crate::cfg::{Cfg, CfgNodeKind, NodeId};
use crate::mhp::stmt_shared_accesses;
use ppd_lang::ast::walk_stmts;
use ppd_lang::{BodyId, ProcId, ResolvedProgram, SemId, Span, StmtId, StmtKind, SyncStmt, VarId};
use std::collections::{BTreeSet, HashMap};

/// Reports shared variables reached under disjoint locksets on two
/// statically concurrent paths.
pub(super) const PASS: Pass = Pass {
    code: "PPD005",
    name: "inconsistent-lock",
    page: "PPD005: inconsistent-lock\n\
           \n\
           A shared variable is reached under disjoint must-locksets on two\n\
           paths the may-happen-in-parallel relation deems concurrent —\n\
           different locks, or one side holding none. The locks then do not\n\
           order the accesses and a race remains possible.\n\
           \n\
           Guard every access to the variable with the same lock.",
    run,
};

type LockSet = BTreeSet<SemId>;

/// One shared access with the lockset it executes under.
struct Access {
    proc: ProcId,
    stmt: StmtId,
    is_write: bool,
    locks: LockSet,
    span: Span,
}

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let locksets = must_locksets(rp, ctx.analyses);

    let mut by_var: HashMap<VarId, Vec<Access>> = HashMap::new();
    for &(p, s) in ctx.analyses.mhp.events() {
        let Some((locks, span)) = locksets.get(&s) else { continue };
        let (reads, writes) =
            stmt_shared_accesses(rp, &ctx.analyses.effects, &ctx.analyses.modref, s);
        for &v in &writes {
            by_var.entry(v).or_default().push(Access {
                proc: p,
                stmt: s,
                is_write: true,
                locks: locks.clone(),
                span: *span,
            });
        }
        for &v in &reads {
            if !writes.contains(&v) {
                by_var.entry(v).or_default().push(Access {
                    proc: p,
                    stmt: s,
                    is_write: false,
                    locks: locks.clone(),
                    span: *span,
                });
            }
        }
    }

    let mut diags = Vec::new();
    let mut vars: Vec<VarId> = by_var.keys().copied().collect();
    vars.sort_unstable();
    for v in vars {
        let accs = &by_var[&v];
        // First inconsistent pair per process pair is the witness.
        let mut reported: BTreeSet<(ProcId, ProcId)> = BTreeSet::new();
        for x in accs {
            for y in accs {
                if x.proc >= y.proc
                    || (!x.is_write && !y.is_write)
                    || reported.contains(&(x.proc, y.proc))
                {
                    continue;
                }
                if x.locks.is_empty() && y.locks.is_empty() {
                    continue; // fully unprotected: PPD001/PPD002's job
                }
                if x.locks.intersection(&y.locks).next().is_some() {
                    continue; // a common lock serializes the pair
                }
                if !ctx.analyses.mhp.may_happen_in_parallel((x.proc, x.stmt), (y.proc, y.stmt)) {
                    continue; // statically ordered anyway
                }
                reported.insert((x.proc, y.proc));
                diags.push(diagnose(rp, v, x, y));
            }
        }
    }
    diags
}

fn diagnose(rp: &ResolvedProgram, var: VarId, x: &Access, y: &Access) -> Diagnostic {
    let held = |locks: &LockSet| -> String {
        if locks.is_empty() {
            "no lock".to_owned()
        } else {
            locks.iter().map(|&s| format!("`{}`", rp.sem_name(s))).collect::<Vec<_>>().join(", ")
        }
    };
    Diagnostic::new(
        PASS.code,
        Severity::Warning,
        format!(
            "shared variable `{}` is inconsistently locked: process `{}` accesses it \
             holding {} while process `{}` holds {}",
            rp.var_name(var),
            rp.proc_name(x.proc),
            held(&x.locks),
            rp.proc_name(y.proc),
            held(&y.locks),
        ),
        x.span,
    )
    .with_note(
        format!(
            "concurrent {} in process `{}` under {}",
            if y.is_write { "write" } else { "read" },
            rp.proc_name(y.proc),
            held(&y.locks),
        ),
        y.span,
    )
    .with_help(
        "a lock only excludes accesses that acquire the same lock; these two \
         accesses may interleave",
    )
}

/// What a sync statement does to the lockset.
enum LockOp {
    Acquire(SemId),
    Release(SemId),
}

/// Per-statement must-held locksets (plus statement spans), solved to a
/// fixpoint across function calls.
///
/// Lattice: `None` = not yet reached with a known lockset (top);
/// `Some(set)` = held on every known path. Meet is set intersection.
/// `p`/`lock` add their semaphore after the statement, `v`/`unlock`
/// remove it. A call statement propagates the caller's lockset into the
/// callee's entry (intersected over all call sites) and is otherwise
/// lockset-neutral for the caller — adequate for a warning-level lint.
fn must_locksets(
    rp: &ResolvedProgram,
    analyses: &crate::Analyses,
) -> HashMap<StmtId, (LockSet, Span)> {
    let bodies = rp.bodies();
    let mut spans: HashMap<StmtId, Span> = HashMap::new();
    let mut ops: HashMap<StmtId, LockOp> = HashMap::new();
    for &b in &bodies {
        walk_stmts(rp.body_block(b), &mut |s| {
            spans.insert(s.id, s.span);
            if let StmtKind::Sync(sync) = &s.kind {
                match sync {
                    SyncStmt::P(_) | SyncStmt::Lock(_) => {
                        ops.insert(s.id, LockOp::Acquire(rp.sem_ref[&s.id]));
                    }
                    SyncStmt::V(_) | SyncStmt::Unlock(_) => {
                        ops.insert(s.id, LockOp::Release(rp.sem_ref[&s.id]));
                    }
                    _ => {}
                }
            }
        });
    }

    // Entry lockset assumption per body; function entries narrow as call
    // sites are discovered, so iterate the whole thing to a fixpoint.
    let mut entry: HashMap<BodyId, Option<LockSet>> = bodies
        .iter()
        .map(|&b| {
            let initial = match b {
                BodyId::Proc(_) => Some(LockSet::new()),
                BodyId::Func(_) => None,
            };
            (b, initial)
        })
        .collect();
    let mut result: HashMap<StmtId, (LockSet, Span)> = HashMap::new();
    loop {
        let mut changed = false;
        result.clear();
        for &b in &bodies {
            let Some(start) = entry[&b].clone() else { continue };
            let cfg = analyses.cfg(b);
            let states = body_locksets(cfg, &ops, &start);
            for (node, state) in states.iter().enumerate() {
                let Some(state) = state else { continue };
                let CfgNodeKind::Stmt(stmt) = cfg.node(NodeId(node as u32)).kind else {
                    continue;
                };
                result.insert(stmt, (state.clone(), spans[&stmt]));
                for &callee in &analyses.effects.of(stmt).calls {
                    let slot = entry.get_mut(&BodyId::Func(callee)).expect("callee body");
                    let next = match slot {
                        None => Some(state.clone()),
                        Some(old) => Some(old.intersection(state).cloned().collect()),
                    };
                    if *slot != next {
                        *slot = next;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    result
}

/// Forward must-lockset dataflow over one body; returns the lockset at
/// each node's **entry** (`None` = not reached with a known lockset).
fn body_locksets(
    cfg: &Cfg,
    ops: &HashMap<StmtId, LockOp>,
    start: &LockSet,
) -> Vec<Option<LockSet>> {
    let mut state: Vec<Option<LockSet>> = vec![None; cfg.len()];
    state[cfg.entry().index()] = Some(start.clone());
    loop {
        let mut changed = false;
        for node in cfg.reverse_postorder() {
            let Some(before) = state[node.index()].clone() else { continue };
            let mut after = before;
            if let CfgNodeKind::Stmt(stmt) = cfg.node(node).kind {
                match ops.get(&stmt) {
                    Some(LockOp::Acquire(sem)) => {
                        after.insert(*sem);
                    }
                    Some(LockOp::Release(sem)) => {
                        after.remove(sem);
                    }
                    None => {}
                }
            }
            for succ in cfg.succs(node) {
                let slot = &mut state[succ.index()];
                let next = match slot {
                    None => Some(after.clone()),
                    Some(old) => Some(old.intersection(&after).cloned().collect()),
                };
                if *slot != next {
                    *slot = next;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd005(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD005").map(|d| d.message).collect()
    }

    #[test]
    fn locked_vs_unlocked_access_is_reported() {
        let msgs = ppd005(
            "shared int g; sem m = 1; \
             process A { p(m); g = g + 1; v(m); } \
             process B { g = g + 2; }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`g`"), "{msgs:?}");
        assert!(msgs[0].contains("no lock"), "{msgs:?}");
    }

    #[test]
    fn different_locks_are_reported() {
        let msgs = ppd005(
            "shared int g; sem m1 = 1; sem m2 = 1; \
             process A { p(m1); g = g + 1; v(m1); } \
             process B { p(m2); g = g + 2; v(m2); }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`m1`") && msgs[0].contains("`m2`"), "{msgs:?}");
    }

    #[test]
    fn consistently_locked_program_is_silent() {
        let msgs = ppd005(
            "shared int g; sem m = 1; \
             process A { p(m); g = g + 1; v(m); } \
             process B { p(m); g = g + 2; v(m); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn fully_unprotected_program_is_left_to_ppd001() {
        let msgs = ppd005("shared int g; process A { g = g + 1; } process B { g = g + 2; }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn lock_keyword_counts_as_a_guard() {
        let msgs = ppd005(
            "shared int g; lockvar l; \
             process A { lock(l); g = g + 1; unlock(l); } \
             process B { g = 5; }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn branch_that_skips_the_lock_breaks_must_holding() {
        // On one path B accesses without the lock: must-lockset at the
        // access is empty, so the pair with A's locked access fires.
        let msgs = ppd005(
            "shared int g; sem m = 1; \
             process A { p(m); g = g + 1; v(m); } \
             process B { int c = 0; if (c > 0) { p(m); } g = g + 2; }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn ordered_accesses_do_not_fire() {
        // A's locked write is ordered before B's unlocked read via the
        // handoff semaphore: MHP suppresses the pair.
        let msgs = ppd005(
            "shared int g; sem m = 1; sem done = 0; \
             process A { p(m); g = 7; v(m); v(done); } \
             process B { p(done); print(g); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn lock_held_through_function_call_is_seen() {
        // The callee's write executes under the caller's lock; B's bare
        // write is inconsistent with it.
        let msgs = ppd005(
            "shared int g; sem m = 1; \
             int bump() { g = g + 1; return 0; } \
             process A { p(m); int r = bump(); v(m); print(r); } \
             process B { g = 9; }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }
}
