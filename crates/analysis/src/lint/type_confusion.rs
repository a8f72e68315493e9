//! PPD006 — shared globals written at incompatible types from
//! different processes.
//!
//! `ppd check` unifies a shared global's type across all its uses, so a
//! cross-process type conflict is a hard TYP001 error there. This pass
//! exists for the lint pipeline (which may run with `--no-check`): it
//! re-infers with *per-occurrence* type variables for shared globals
//! ([`ppd_lang::types::shared_write_types`]), so each write reports the
//! type its right-hand side locally demands, and flags globals written
//! at conflicting types from at least two distinct processes — the
//! classic "one process treats the flag as a count" confusion.
//!
//! Writes inside functions are attributed to every process that can
//! reach the function through the call graph.

use super::{Diagnostic, LintContext, Pass, Severity};
use ppd_lang::types::{shared_write_types, Ty};
use ppd_lang::{BodyId, ProcId, Span, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Reports shared globals whose writers disagree on the value's type
/// across processes.
pub(super) const PASS: Pass = Pass {
    code: "PPD006",
    name: "type-confused-shared",
    page: "PPD006: type-confused-shared\n\
           \n\
           A shared global is written at incompatible inferred types from\n\
           different processes (each write is re-inferred with a fresh type\n\
           variable, so this fires even when `ppd check` would reject the\n\
           program). Readers cannot rely on what the variable holds.\n\
           \n\
           Give the variable one role, or split it into distinct variables.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    // Which processes execute each body (procs themselves, plus
    // every proc that reaches a function through calls).
    let mut procs_of: BTreeMap<BodyId, BTreeSet<ProcId>> = BTreeMap::new();
    for p in (0..rp.procs.len() as u32).map(ProcId) {
        for body in ctx.analyses.callgraph.reachable_from(BodyId::Proc(p)) {
            procs_of.entry(body).or_default().insert(p);
        }
    }

    // Per shared variable: every write, with its locally-inferred
    // type and the processes that may perform it.
    let mut by_var: BTreeMap<VarId, Vec<(Ty, BTreeSet<ProcId>, Span)>> = BTreeMap::new();
    for w in shared_write_types(rp) {
        let procs = procs_of.get(&w.body).cloned().unwrap_or_default();
        if procs.is_empty() {
            continue; // dead function: no process executes the write
        }
        by_var.entry(w.var).or_default().push((w.ty, procs, w.span));
    }

    let mut diags = Vec::new();
    for (v, writes) in by_var {
        // Fire when two writes disagree on the type and are not
        // performed by the same single process set.
        let conflicting = writes.iter().any(|(ty_a, procs_a, _)| {
            writes.iter().any(|(ty_b, procs_b, _)| {
                ty_a != ty_b && procs_a.iter().any(|p| !procs_b.contains(p))
            })
        });
        if !conflicting {
            continue;
        }
        let decl_span = rp.vars[v.index()].decl_span;
        let mut diag = Diagnostic::new(
            PASS.code,
            Severity::Warning,
            format!(
                "shared variable `{}` is written at incompatible types from different processes",
                rp.var_name(v)
            ),
            decl_span,
        );
        // One note per distinct (type, write site), in source order.
        let mut sites: Vec<(Span, &Ty, &BTreeSet<ProcId>)> =
            writes.iter().map(|(ty, procs, span)| (*span, ty, procs)).collect();
        sites.sort_by_key(|(span, ..)| (span.start, span.end));
        for (span, ty, procs) in sites {
            let names: Vec<&str> = procs.iter().map(|&p| rp.proc_name(p)).collect();
            diag = diag
                .with_note(format!("written as `{ty}` by process(es) {}", names.join(", ")), span);
        }
        diag = diag.with_help(
            "pick one payload type per shared variable; `ppd check` reports this as a \
             hard error",
        );
        diags.push(diag);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::LintContext;
    use crate::Analyses;

    fn run(src: &str) -> Vec<Diagnostic> {
        let rp = ppd_lang::compile(src).unwrap();
        let analyses = Analyses::run(&rp);
        super::run(&LintContext { rp: &rp, analyses: &analyses })
    }

    #[test]
    fn fires_on_cross_process_type_conflict() {
        let diags = run("shared int g; process A { g = 1; } process B { g = true; }");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`g`"), "{}", diags[0].message);
        assert_eq!(diags[0].code, "PPD006");
    }

    #[test]
    fn silent_on_consistent_types() {
        assert!(run("shared int g; process A { g = 1; } process B { g = 2; }").is_empty());
        assert!(run("shared int f; process A { f = true; } process B { f = false; }").is_empty());
    }

    #[test]
    fn silent_when_one_process_owns_all_writes() {
        // Same-process inconsistency is a checker error, not this lint.
        assert!(
            run("shared int g; process A { g = 1; g = true; } process B { print(g); }").is_empty()
        );
    }

    #[test]
    fn attributes_function_writes_through_the_call_graph() {
        let diags = run("shared int g; void w() { g = true; } \
             process A { w(); } process B { g = 2; }");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].notes.iter().any(|n| n.label.contains("A")), "{:?}", diags[0].notes);
    }
}
