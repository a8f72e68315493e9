//! PPD002 — shared accesses reachable without synchronization.
//!
//! An access that executes between process entry and the *first*
//! synchronization operation on every path belongs to the entry
//! synchronization unit (§5.5): no ordering edge of the parallel
//! dynamic graph (§6.2) can precede it, so if any other process may
//! touch the same shared variable, nothing orders the two accesses.
//! This is the statically-decidable core of Definition 6.4: the pair is
//! not merely a candidate, it is unordered in *every* execution in
//! which both statements run.

use super::{shared_accesses, Diagnostic, LintContext, Pass, Severity};
use crate::varset::VarSetRepr;
use ppd_lang::{BodyId, ProcId, ResolvedProgram, VarId};
use std::collections::HashSet;

/// Reports shared accesses reachable from process entry without
/// crossing a synchronization operation, when another process may
/// conflict on the variable.
pub(super) const PASS: Pass = Pass {
    code: "PPD002",
    name: "unsync-shared-access",
    page: "PPD002: unsync-shared-access\n\
           \n\
           A shared-variable access is reachable from process entry without\n\
           crossing any synchronization operation (P/V, lock, send/recv,\n\
           rendezvous) on some path. Such an access can interleave with any\n\
           concurrent conflicting access.\n\
           \n\
           Place the access after an acquisition, or make the variable\n\
           process-local if it is not meant to be shared.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let syncful = syncful_bodies(ctx);
    let mut diags = Vec::new();
    for p in (0..rp.procs.len() as u32).map(ProcId) {
        let body = BodyId::Proc(p);
        let cfg = ctx.analyses.cfg(body);
        // Nodes reachable from entry without passing a statement that
        // synchronizes (itself or via a callee).
        let mut visited = vec![false; cfg.len()];
        visited[cfg.entry().index()] = true;
        let mut queue: Vec<_> = cfg.succs(cfg.entry()).collect();
        while let Some(n) = queue.pop() {
            if visited[n.index()] {
                continue;
            }
            visited[n.index()] = true;
            let Some(stmt) = cfg.stmt_of(n) else { continue };
            let fx = ctx.analyses.effects.of(stmt);
            let stops = fx.is_sync || fx.calls.iter().any(|&f| syncful.contains(&BodyId::Func(f)));
            if !stops {
                queue.extend(cfg.succs(n));
            }
        }
        // Report accesses in source order.
        for &stmt in cfg.stmts() {
            let node = cfg.node_of(stmt).expect("stmts() nodes exist");
            if !visited[node.index()] {
                continue;
            }
            // A callee that synchronizes may guard its own accesses;
            // only the statement's direct effects (plus sync-free
            // callees) are known to run unsynchronized.
            let fx = ctx.analyses.effects.of(stmt);
            if fx.calls.iter().any(|&f| syncful.contains(&BodyId::Func(f))) {
                continue;
            }
            let (reads, writes) = shared_accesses(rp, ctx.analyses, stmt);
            for v in writes.to_vec() {
                if let Some(other) = conflicting_proc(ctx, v, p, false) {
                    diags.push(diagnose(ctx, stmt, v, p, other, true));
                }
            }
            for v in reads.to_vec() {
                if writes.contains(v) {
                    continue; // already reported as a write
                }
                if let Some(other) = conflicting_proc(ctx, v, p, true) {
                    diags.push(diagnose(ctx, stmt, v, p, other, false));
                }
            }
        }
    }
    diags
}

#[allow(clippy::too_many_arguments)]
fn diagnose(
    ctx: &LintContext<'_>,
    stmt: ppd_lang::StmtId,
    var: VarId,
    proc: ProcId,
    other: ProcId,
    is_write: bool,
) -> Diagnostic {
    let rp = ctx.rp;
    let span = ctx.analyses.database.span_of(stmt).unwrap_or(ppd_lang::Span::DUMMY);
    let other_writes = ctx.analyses.modref.gmod(BodyId::Proc(other)).contains(var);
    let mut diag = Diagnostic::new(
        PASS.code,
        Severity::Warning,
        format!(
            "shared variable `{}` is {} in process `{}` before any synchronization",
            rp.var_name(var),
            if is_write { "written" } else { "read" },
            rp.proc_name(proc),
        ),
        span,
    );
    if let Some(site) =
        super::first_access(rp, ctx.analyses, BodyId::Proc(other), var, other_writes)
    {
        diag = diag.with_note(
            format!(
                "process `{}` also {} `{}`",
                rp.proc_name(other),
                if other_writes { "writes" } else { "reads" },
                rp.var_name(var)
            ),
            site,
        );
    }
    diag.with_help(
        "no semaphore, lock, or message operation lies between process entry \
         and this access on some path",
    )
}

/// Bodies that perform a synchronization operation, directly or through
/// any callee.
fn syncful_bodies(ctx: &LintContext<'_>) -> HashSet<BodyId> {
    let direct: HashSet<BodyId> = ctx
        .rp
        .bodies()
        .into_iter()
        .filter(|&b| {
            ctx.analyses.cfg(b).stmts().iter().any(|&s| ctx.analyses.effects.of(s).is_sync)
        })
        .collect();
    ctx.rp
        .bodies()
        .into_iter()
        .filter(|&b| ctx.analyses.callgraph.reachable_from(b).iter().any(|r| direct.contains(r)))
        .collect()
}

/// A process other than `p` that conflicts with the access: for a write
/// any reader or writer, for a read any writer. Returns the lowest id
/// for determinism.
fn conflicting_proc(
    ctx: &LintContext<'_>,
    var: VarId,
    p: ProcId,
    access_is_read: bool,
) -> Option<ProcId> {
    let rp: &ResolvedProgram = ctx.rp;
    (0..rp.procs.len() as u32).map(ProcId).find(|&q| {
        if q == p {
            return false;
        }
        let writes = ctx.analyses.modref.gmod(BodyId::Proc(q)).contains(var);
        if access_is_read {
            writes
        } else {
            writes || ctx.analyses.modref.gref(BodyId::Proc(q)).contains(var)
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd002(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD002").map(|d| d.message).collect()
    }

    #[test]
    fn access_before_first_sync_is_flagged() {
        let msgs = ppd002(
            "shared int g; sem s = 1; \
             process A { g = 1; p(s); g = 2; v(s); } \
             process B { p(s); print(g); v(s); }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("written in process `A`"), "{msgs:?}");
    }

    #[test]
    fn access_after_sync_is_not_flagged() {
        let msgs = ppd002(
            "shared int g; sem s = 1; \
             process A { p(s); g = 1; v(s); } \
             process B { p(s); g = 2; v(s); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn unconflicted_variable_is_not_flagged() {
        // Only A touches g, so even an unsynchronized write is private.
        let msgs = ppd002(
            "shared int g; shared int h; sem s = 1; \
             process A { g = 1; } \
             process B { p(s); h = 2; v(s); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn call_to_syncing_function_is_a_barrier() {
        // guard() synchronizes, so accesses after the call are protected;
        // the call statement itself is not reported either (the callee
        // may sync before touching g).
        let msgs = ppd002(
            "shared int g; sem s = 1; \
             int guard() { p(s); g = g + 1; v(s); return 0; } \
             process A { int x = guard(); g = g + x; } \
             process B { print(guard()); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn both_sides_of_branch_reachable() {
        let msgs = ppd002(
            "shared int g; shared int c; sem s = 1; \
             process A { if (c > 0) { p(s); v(s); } g = 1; } \
             process B { p(s); g = 2; c = 1; v(s); }",
        );
        // `g = 1` is reachable via the false branch without sync, and the
        // branch condition reads `c` which B writes.
        assert!(msgs.iter().any(|m| m.contains("`g` is written")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`c` is read")), "{msgs:?}");
    }
}
