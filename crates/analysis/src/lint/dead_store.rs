//! PPD003 — stores to locals that no path ever reads.
//!
//! Straight from the liveness solution the paper's preparatory phase
//! already computes to trim prelogs (§5.1): a strong definition of a
//! local variable whose value is not live after the defining node can
//! never influence the execution, so either the store or the omission
//! of a later read is a bug. Shared variables are exempt — another
//! process may read them, which is exactly why liveness treats them as
//! live at exit.

use super::{Diagnostic, LintContext, Pass, Severity};
use crate::varset::VarSetRepr;
use ppd_lang::ast::{walk_stmts, StmtKind};
use ppd_lang::{Span, StmtId};
use std::collections::HashSet;

/// Reports assignments (and initialized declarations) of locals whose
/// value is dead immediately after the store.
pub(super) const PASS: Pass = Pass {
    code: "PPD003",
    name: "dead-store",
    page: "PPD003: dead-store\n\
           \n\
           A value assigned to a local variable is never read on any path\n\
           (from the liveness dataflow solution). The store has no effect\n\
           and usually signals a logic slip — a result computed but not\n\
           used, or an overwritten update.\n\
           \n\
           Delete the assignment or use the value it produces.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    // Declarations without an initializer reserve storage rather than
    // store a value; they are not "stores" worth reporting.
    let mut bare_decls: HashSet<StmtId> = HashSet::new();
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |stmt| {
            if matches!(stmt.kind, StmtKind::Decl { init: None, .. }) {
                bare_decls.insert(stmt.id);
            }
        });
    }
    let mut diags = Vec::new();
    for body in rp.bodies() {
        let cfg = ctx.analyses.cfg(body);
        let live = ctx.analyses.liveness(rp, body);
        let unreachable: HashSet<_> = cfg.unreachable_nodes().into_iter().collect();
        for &stmt in cfg.stmts() {
            let node = cfg.node_of(stmt).expect("stmts() nodes exist");
            // Liveness facts for unreachable nodes are vacuous.
            if unreachable.contains(&node) || bare_decls.contains(&stmt) {
                continue;
            }
            let fx = ctx.analyses.effects.of(stmt);
            // Sync statements (recv/accept) bind values as a side
            // effect of a rendezvous; the operation is not removable
            // even if the value goes unused.
            if fx.is_sync {
                continue;
            }
            let mut strong = fx.defs.clone();
            strong.subtract(&fx.weak_defs);
            for v in strong.to_vec() {
                if rp.is_shared(v) || live.live_out(node).contains(v) {
                    continue;
                }
                let span = ctx.analyses.database.span_of(stmt).unwrap_or(Span::DUMMY);
                let mut diag = Diagnostic::new(
                    PASS.code,
                    Severity::Warning,
                    format!("value assigned to `{}` is never read", rp.var_name(v)),
                    span,
                );
                let decl_span = rp.vars[v.index()].decl_span;
                if rp.decl_var.get(&stmt) != Some(&v) && decl_span != Span::DUMMY {
                    diag = diag.with_note("variable declared here", decl_span);
                }
                diags.push(diag);
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd003(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD003").map(|d| d.message).collect()
    }

    #[test]
    fn overwritten_before_read_is_dead() {
        let msgs = ppd003("process M { int x = 1; x = 2; print(x); }");
        assert_eq!(msgs, vec!["value assigned to `x` is never read"]);
    }

    #[test]
    fn never_read_at_all_is_dead() {
        let msgs = ppd003("process M { int x; x = 41; print(7); }");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn bare_declaration_is_not_a_store() {
        let msgs = ppd003("process M { int x; print(1); }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn live_through_a_loop_is_not_dead() {
        let msgs = ppd003(
            "process M { int i; int acc = 0; \
             for (i = 0; i < 3; i = i + 1) { acc = acc + i; } print(acc); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn shared_stores_are_exempt() {
        let msgs = ppd003("shared int g; process M { g = 1; } process R { print(g); }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn unused_recv_binding_is_not_reported() {
        let msgs = ppd003("process M { int m; recv(m); } process O { send(M, 1); }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
