//! PPD010 — conditions the abstract interpreter proves constant.
//!
//! A branch or loop condition whose inferred interval is a singleton
//! always takes the same arm: either the test is redundant or one arm
//! is dead code. Syntactic literals (`while (true)`, `if (1)`) are
//! skipped — writing a literal condition is an explicit choice, not a
//! lost invariant. The dead arm, when there is one, is pointed out in
//! a note.

use super::{Diagnostic, LintContext, Pass, Severity};
use ppd_lang::ast::{walk_stmts, Block, Expr, ExprKind, StmtKind};

/// Reports `if`/`while`/`for` conditions that are provably constant.
pub(super) const PASS: Pass = Pass {
    code: "PPD010",
    name: "constant-condition",
    page: "PPD010: constant-condition\n\
           \n\
           A non-literal `if`/`while`/`for` condition that the abstract\n\
           interpreter proves constant: the test always takes the same arm,\n\
           so either the test is redundant or one arm is dead code (the dead\n\
           arm is pointed out in a note). Syntactic literals like\n\
           `while (true)` are an explicit choice and are skipped.\n\
           \n\
           Remove the redundant test or fix the invariant it was meant to\n\
           observe.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let absint = &ctx.analyses.absint;
    let mut diags = Vec::new();
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |stmt| {
            let (cond, what) = match &stmt.kind {
                StmtKind::If { cond, .. } => (cond, "if"),
                StmtKind::While { cond, .. } => (cond, "while"),
                StmtKind::For { cond: Some(cond), .. } => (cond, "for"),
                _ => return,
            };
            if is_literal(cond) {
                return;
            }
            let Some(c) = absint.condition(stmt.id).and_then(|iv| iv.as_const()) else {
                return;
            };
            let truth = c != 0;
            let mut d = Diagnostic::new(
                PASS.code,
                Severity::Warning,
                format!("`{what}` condition is always {truth}"),
                cond.span,
            );
            match (&stmt.kind, truth) {
                (StmtKind::If { else_blk: Some(e), .. }, true) => {
                    d = dead_arm(d, "the `else` branch is never taken", e);
                }
                (StmtKind::If { else_blk: None, .. }, true) => {
                    d = d.with_help("the test is redundant: the condition always holds");
                }
                (StmtKind::If { then_blk, .. }, false) => {
                    d = dead_arm(d, "the `then` branch is never taken", then_blk);
                }
                (StmtKind::While { body, .. } | StmtKind::For { body, .. }, false) => {
                    d = dead_arm(d, "the loop body never runs", body);
                }
                (StmtKind::While { .. } | StmtKind::For { .. }, true) => {
                    d = d.with_help("the loop never exits through its condition");
                }
                _ => {}
            }
            diags.push(d);
        });
    }
    diags
}

/// Attaches the dead-arm note, pointing at the arm's first statement
/// when the arm is non-empty.
fn dead_arm(d: Diagnostic, label: &str, arm: &Block) -> Diagnostic {
    match arm.stmts.first() {
        Some(s) => d.with_note(label, s.span),
        None => d.with_help(label),
    }
}

/// Whether the condition is a syntactic literal (an explicit choice).
fn is_literal(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::IntLit(_) | ExprKind::BoolLit(_))
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd010(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD010").map(|d| d.message).collect()
    }

    #[test]
    fn constant_if_is_reported_with_dead_arm() {
        let (_, diags) =
            lint("process M { int x = 1; if (x > 0) { print(1); } else { print(2); } }");
        let d = diags.iter().find(|d| d.code == "PPD010").expect("PPD010 fires");
        assert!(d.message.contains("always true"), "{}", d.message);
        assert!(d.notes.iter().any(|n| n.label.contains("`else` branch")), "{:?}", d.notes);
    }

    #[test]
    fn constant_false_while_is_reported() {
        let msgs = ppd010("process M { int x = 0; while (x > 5) { print(x); } }");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("always false"), "{msgs:?}");
    }

    #[test]
    fn literal_conditions_are_an_explicit_choice() {
        let msgs = ppd010("process M { if (1) { print(1); } while (false) { print(2); } }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn data_dependent_conditions_are_silent() {
        let msgs = ppd010("process M { int x = input(); if (x > 0) { print(1); } }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn loop_bound_comparisons_are_not_constant() {
        let msgs = ppd010(
            "shared int a[4]; process M { for (int i = 0; i < 4; i = i + 1) { a[i] = i; } }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
