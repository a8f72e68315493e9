//! PPD009 — array accesses whose index interval escapes the bounds.
//!
//! The abstract interpreter ([`crate::absint`]) assigns every array
//! access an index interval. When a **finite** interval endpoint lies
//! outside `0 .. len-1` for the array's declared length, some abstract
//! execution indexes out of bounds — at runtime that access traps, so
//! the program can only avoid the failure if the analysis lost
//! precision. Accesses whose interval is unbounded on the offending
//! side (an unknown input, a widened loop counter) are *not* reported:
//! `⊤` only says "no information", and warning on it would flag every
//! input-driven subscript.

use super::{Diagnostic, LintContext, Pass, Severity};
use ppd_lang::ast::walk_stmts;

/// Reports array accesses with provably out-of-range index intervals.
pub(super) const PASS: Pass = Pass {
    code: "PPD009",
    name: "out-of-bounds",
    page: "PPD009: out-of-bounds\n\
           \n\
           The abstract interpreter's index interval for an array access has\n\
           a finite endpoint outside `0 ..= len-1` for the array's declared\n\
           length, so some abstract execution indexes out of bounds and the\n\
           access can trap at run time. Unbounded endpoints (an unknown\n\
           input, a widened counter) are not reported — `⊤` means \"no\n\
           information\", not \"out of range\".\n\
           \n\
           Tighten the loop bound or clamp the index before the access.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let absint = &ctx.analyses.absint;
    let mut diags = Vec::new();
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |stmt| {
            for acc in absint.accesses(stmt.id) {
                if acc.index.is_bot() {
                    continue;
                }
                let Some(len) = rp.vars[acc.array.index()].size else { continue };
                let last = len as i64 - 1;
                let below = acc.index.lo != i64::MIN && acc.index.lo < 0;
                let above = acc.index.hi != i64::MAX && acc.index.hi > last;
                if !below && !above {
                    continue;
                }
                let name = rp.var_name(acc.array);
                let what = if acc.is_write { "write to" } else { "read of" };
                let mut d = Diagnostic::new(
                    PASS.code,
                    Severity::Warning,
                    format!(
                        "{what} `{name}` may be out of bounds: index range {} exceeds \
                         `{name}[{len}]`",
                        acc.index
                    ),
                    acc.span,
                )
                .with_note(
                    format!("`{name}` is declared with {len} element(s) here"),
                    rp.vars[acc.array.index()].decl_span,
                );
                if above {
                    d = d.with_help(format!("valid indices are 0 ..= {last}"));
                } else {
                    d = d.with_help("the index may be negative");
                }
                diags.push(d);
            }
        });
    }
    diags
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd009(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD009").map(|d| d.message).collect()
    }

    #[test]
    fn loop_past_the_end_is_reported() {
        let msgs = ppd009(
            "shared int a[10]; \
             process M { for (int i = 0; i <= 10; i = i + 1) { a[i] = i; } }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`a`"), "{msgs:?}");
        assert!(msgs[0].contains("a[10]"), "{msgs:?}");
    }

    #[test]
    fn constant_negative_index_is_reported() {
        let msgs = ppd009("shared int a[4]; process M { int i = 0 - 1; print(a[i]); }");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn in_bounds_loop_is_silent() {
        let msgs = ppd009(
            "shared int a[10]; \
             process M { for (int i = 0; i < 10; i = i + 1) { a[i] = i; } }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn unknown_index_is_not_reported() {
        // input() is ⊤: no finite endpoint escapes, so no warning.
        let msgs = ppd009("shared int a[4]; process M { int i = input(); a[i] = 1; }");
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
