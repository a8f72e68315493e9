//! PPD004 — locals read while only their bare declaration reaches.
//!
//! The runtime zero-initializes a declaration without an initializer,
//! so such a read is well-defined — it yields 0 — but the reaching-
//! definitions solution (§5.1) can tell when that implicit 0 is the
//! *only* value that can arrive, or one of several: the former is
//! almost certainly a missing initialization, the latter a path that
//! skips the assignment.

use super::{Diagnostic, LintContext, Pass, Severity};
use crate::varset::VarSetRepr;
use ppd_lang::ast::{walk_stmts, StmtKind};
use ppd_lang::{Span, StmtId, VarId};
use std::collections::HashSet;

/// Reports reads of locals reached (only or partly) by an
/// initializer-less declaration instead of a real assignment.
pub(super) const PASS: Pass = Pass {
    code: "PPD004",
    name: "uninit-read",
    page: "PPD004: uninit-read\n\
           \n\
           A local variable is read while only its initializer-less\n\
           declaration reaches it (from the reaching-definitions solution),\n\
           so the read observes the implicit 0. If 0 is intended, write the\n\
           initializer explicitly; otherwise assign before reading.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    // Scalar declarations with no initializer: their "definition" is
    // the implicit zero, not a value the program computed. Arrays are
    // excluded — element-wise filling is the normal idiom.
    let mut vacuous_decls: HashSet<StmtId> = HashSet::new();
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |stmt| {
            if let StmtKind::Decl { init: None, .. } = stmt.kind {
                if let Some(&v) = rp.decl_var.get(&stmt.id) {
                    if rp.vars[v.index()].size.is_none() {
                        vacuous_decls.insert(stmt.id);
                    }
                }
            }
        });
    }
    let mut diags = Vec::new();
    for body in rp.bodies() {
        let cfg = ctx.analyses.cfg(body);
        let reaching = ctx.analyses.reaching(rp, body);
        let unreachable: HashSet<_> = cfg.unreachable_nodes().into_iter().collect();
        for &stmt in cfg.stmts() {
            let node = cfg.node_of(stmt).expect("stmts() nodes exist");
            if unreachable.contains(&node) {
                continue;
            }
            for v in ctx.analyses.effects.of(stmt).uses.to_vec() {
                if rp.is_shared(v) || rp.vars[v.index()].param_index.is_some() {
                    continue;
                }
                let sites = reaching.reaching(node, v);
                if sites.is_empty() {
                    continue;
                }
                let vacuous = sites
                    .iter()
                    .filter(|s| s.stmt.is_some_and(|id| vacuous_decls.contains(&id)))
                    .count();
                if vacuous == 0 {
                    continue;
                }
                diags.push(diagnose(ctx, stmt, v, vacuous == sites.len()));
            }
        }
    }
    diags
}

fn diagnose(ctx: &LintContext<'_>, stmt: StmtId, var: VarId, definite: bool) -> Diagnostic {
    let rp = ctx.rp;
    let span = ctx.analyses.database.span_of(stmt).unwrap_or(Span::DUMMY);
    let (severity, message) = if definite {
        (
            Severity::Error,
            format!("local variable `{}` is read but never assigned a value", rp.var_name(var)),
        )
    } else {
        (
            Severity::Warning,
            format!(
                "local variable `{}` may be read before assignment on some paths",
                rp.var_name(var)
            ),
        )
    };
    let mut diag = Diagnostic::new(PASS.code, severity, message, span);
    let decl_span = rp.vars[var.index()].decl_span;
    if decl_span != Span::DUMMY {
        diag = diag.with_note("declared without an initializer here (implicitly 0)", decl_span);
    }
    diag
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;
    use crate::lint::Severity;

    fn ppd004(src: &str) -> Vec<(Severity, String)> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD004").map(|d| (d.severity, d.message)).collect()
    }

    #[test]
    fn definite_uninit_read_is_an_error() {
        let msgs = ppd004("process M { int x; print(x); }");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert_eq!(msgs[0].0, Severity::Error);
        assert!(msgs[0].1.contains("never assigned"), "{msgs:?}");
    }

    #[test]
    fn maybe_uninit_read_is_a_warning() {
        let msgs = ppd004("shared int c; process M { int x; if (c > 0) { x = 1; } print(x); }");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert_eq!(msgs[0].0, Severity::Warning);
        assert!(msgs[0].1.contains("on some paths"), "{msgs:?}");
    }

    #[test]
    fn initialized_declaration_is_clean() {
        let msgs = ppd004("process M { int x = 3; print(x); }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn loop_carried_assignment_is_clean() {
        let msgs = ppd004("process M { int i; for (i = 0; i < 3; i = i + 1) { print(i); } }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn params_and_arrays_are_exempt() {
        let msgs = ppd004(
            "int id(int n) { return n; } \
             process M { int a[2]; a[0] = 1; print(a[0] + id(2)); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
