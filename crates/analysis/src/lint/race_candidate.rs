//! PPD001 — static race candidates from synchronization units.
//!
//! Definition 6.4 makes a race a pair of *simultaneous* internal edges
//! with intersecting READ/WRITE sets. Internal edges are delimited by
//! synchronization operations, so the static analogue of an internal
//! edge is a synchronization unit (§5.5): if a unit of process `P` and
//! a unit of process `Q` have conflicting shared sets, some execution
//! may schedule them simultaneously and the pair is a race candidate.
//! Two refinements cut false positives before anything is reported:
//! the may-happen-in-parallel fixpoint ([`crate::mhp`]) — sharpened by
//! per-payload-type channel sync groups whenever the program passes
//! `ppd check` — drops pairs whose every conflicting access is provably
//! ordered by the program's synchronization structure, and each
//! surviving diagnostic carries a *witness*: a concrete pair of
//! statements that no synchronization chain orders. The dynamic detector then decides, per execution,
//! whether the ordering edges actually separate them.

use super::{first_access, Diagnostic, LintContext, LintPass, Severity};
use crate::mhp::stmt_shared_accesses;
use crate::varset::VarSetRepr;
use ppd_lang::ast::walk_stmts;
use ppd_lang::{BodyId, ProcId, Span, StmtId, VarId};
use std::collections::HashMap;

/// Reports `(variable, process pair)` combinations whose synchronization
/// units statically conflict and are not ordered by the MHP relation.
pub struct RaceCandidatePass;

#[derive(Default, Clone, Copy)]
struct ConflictKinds {
    write_write: bool,
    read_write: bool,
}

impl LintPass for RaceCandidatePass {
    fn code(&self) -> &'static str {
        "PPD001"
    }

    fn name(&self) -> &'static str {
        "race-candidate"
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let rp = ctx.rp;
        let spans = stmt_spans(rp);
        let mut diags = Vec::new();
        let procs: Vec<ProcId> = (0..rp.procs.len() as u32).map(ProcId).collect();
        for (i, &a) in procs.iter().enumerate() {
            for &b in &procs[i + 1..] {
                let units_a = &ctx.analyses.sync_units.of(BodyId::Proc(a)).units;
                let units_b = &ctx.analyses.sync_units.of(BodyId::Proc(b)).units;
                let mut conflicts: HashMap<VarId, ConflictKinds> = HashMap::new();
                for ua in units_a {
                    for ub in units_b {
                        for v in ua.writes.to_vec() {
                            if ub.writes.contains(v) {
                                conflicts.entry(v).or_default().write_write = true;
                            }
                            if ub.reads.contains(v) {
                                conflicts.entry(v).or_default().read_write = true;
                            }
                        }
                        for v in ua.reads.to_vec() {
                            if ub.writes.contains(v) {
                                conflicts.entry(v).or_default().read_write = true;
                            }
                        }
                    }
                }
                let mut vars: Vec<VarId> = conflicts.keys().copied().collect();
                vars.sort_unstable();
                for v in vars {
                    // Second stage: drop the pair when the MHP fixpoint
                    // proves every conflicting access ordered. The typed
                    // index degenerates to the untyped one when the
                    // program fails `ppd check`.
                    if !ctx.analyses.typed_candidates.allows(v, a, b) {
                        continue;
                    }
                    diags.push(self.diagnose(ctx, &spans, v, a, b, conflicts[&v]));
                }
            }
        }
        diags
    }
}

/// A concrete unordered conflicting access pair, plus how many
/// conflicting pairs the MHP relation proved ordered.
struct Witness {
    first: (ProcId, StmtId),
    second: (ProcId, StmtId),
    ordered_pairs: usize,
}

impl RaceCandidatePass {
    /// Finds a statically-concurrent conflicting access pair on `var`
    /// between `a` and `b`, preferring write/write witnesses.
    fn witness(ctx: &LintContext<'_>, var: VarId, a: ProcId, b: ProcId) -> Option<Witness> {
        let mhp = ctx.analyses.mhp_typed.as_ref().unwrap_or(&ctx.analyses.mhp);
        let accesses = |p: ProcId| -> Vec<(StmtId, bool)> {
            mhp.events()
                .iter()
                .filter(|&&(q, _)| q == p)
                .filter_map(|&(_, s)| {
                    let (reads, writes) = stmt_shared_accesses(
                        ctx.rp,
                        &ctx.analyses.effects,
                        &ctx.analyses.modref,
                        s,
                    );
                    if writes.contains(&var) {
                        Some((s, true))
                    } else if reads.contains(&var) {
                        Some((s, false))
                    } else {
                        None
                    }
                })
                .collect()
        };
        let of_a = accesses(a);
        let of_b = accesses(b);
        let mut best: Option<Witness> = None;
        let mut ordered = 0usize;
        for &(sa, wa) in &of_a {
            for &(sb, wb) in &of_b {
                if !wa && !wb {
                    continue; // read/read pairs never conflict
                }
                if mhp.may_happen_in_parallel((a, sa), (b, sb)) {
                    let better = best.is_none();
                    if better {
                        best = Some(Witness { first: (a, sa), second: (b, sb), ordered_pairs: 0 });
                    }
                } else {
                    ordered += 1;
                }
            }
        }
        best.map(|mut w| {
            w.ordered_pairs = ordered;
            w
        })
    }

    fn diagnose(
        &self,
        ctx: &LintContext<'_>,
        spans: &HashMap<StmtId, Span>,
        var: VarId,
        a: ProcId,
        b: ProcId,
        kinds: ConflictKinds,
    ) -> Diagnostic {
        let rp = ctx.rp;
        let a_writes = ctx.analyses.modref.gmod(BodyId::Proc(a)).contains(var);
        let b_writes = ctx.analyses.modref.gmod(BodyId::Proc(b)).contains(var);
        let span =
            first_access(rp, ctx.analyses, BodyId::Proc(a), var, a_writes).unwrap_or(Span::DUMMY);
        let mut kind_names = Vec::new();
        if kinds.write_write {
            kind_names.push("write/write");
        }
        if kinds.read_write {
            kind_names.push("read/write");
        }
        let mut diag = Diagnostic::new(
            self.code(),
            Severity::Warning,
            format!(
                "possible data race on shared variable `{}`: processes `{}` and `{}` \
                 access it in unordered synchronization units ({})",
                rp.var_name(var),
                rp.proc_name(a),
                rp.proc_name(b),
                kind_names.join(", "),
            ),
            span,
        );
        if let Some(other) = first_access(rp, ctx.analyses, BodyId::Proc(b), var, b_writes) {
            diag = diag.with_note(
                format!(
                    "conflicting {} in process `{}`",
                    if b_writes { "write" } else { "read" },
                    rp.proc_name(b)
                ),
                other,
            );
        }
        // Why is the pair concurrent? Point at a witness access pair no
        // synchronization chain orders.
        if let Some(w) = Self::witness(ctx, var, a, b) {
            if let Some(&wspan) = spans.get(&w.first.1) {
                diag = diag.with_note(
                    format!(
                        "both processes run from program start; no synchronization chain \
                         orders this access in `{}`...",
                        rp.proc_name(w.first.0)
                    ),
                    wspan,
                );
            }
            if let Some(&wspan) = spans.get(&w.second.1) {
                diag = diag.with_note(
                    format!("...against this one in `{}`", rp.proc_name(w.second.0)),
                    wspan,
                );
            }
            if w.ordered_pairs > 0 {
                diag = diag.with_help(format!(
                    "{} conflicting access pair(s) were statically ordered by \
                     synchronization and not reported",
                    w.ordered_pairs
                ));
            }
        }
        diag.with_help(
            "static race candidate: the dynamic detector compares only such pairs \
             (Definition 6.4)",
        )
    }
}

/// Spans of every statement in the program.
fn stmt_spans(rp: &ppd_lang::ResolvedProgram) -> HashMap<StmtId, Span> {
    let mut spans = HashMap::new();
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |s| {
            spans.insert(s.id, s.span);
        });
    }
    spans
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd001_messages(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD001").map(|d| d.message).collect()
    }

    #[test]
    fn unprotected_counter_is_a_candidate() {
        let msgs =
            ppd001_messages("shared int g; process A { g = g + 1; } process B { g = g + 1; }");
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("`g`"), "{msgs:?}");
        assert!(msgs[0].contains("write/write"), "{msgs:?}");
    }

    #[test]
    fn read_write_conflict_is_labeled() {
        let msgs = ppd001_messages("shared int g; process W { g = 1; } process R { print(g); }");
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("read/write"), "{msgs:?}");
        assert!(!msgs[0].contains("write/write"), "{msgs:?}");
    }

    #[test]
    fn three_processes_report_each_conflicting_pair() {
        let msgs = ppd001_messages(
            "shared int g; \
             process A { g = 1; } process B { g = 2; } process C { g = 3; }",
        );
        assert_eq!(msgs.len(), 3, "{msgs:?}");
    }

    #[test]
    fn message_names_both_processes() {
        let msgs = ppd001_messages(
            "shared int total; \
             process Teller { total = total + 1; } \
             process Auditor { print(total); }",
        );
        assert!(msgs[0].contains("`Teller`") && msgs[0].contains("`Auditor`"), "{msgs:?}");
    }

    #[test]
    fn mhp_ordered_pair_is_not_reported() {
        // Producer's write is ordered before Consumer's read by the
        // init-0 handoff semaphore: no candidate survives.
        let msgs = ppd001_messages(
            "shared int g; sem ready = 0; \
             process Producer { g = 42; v(ready); } \
             process Consumer { p(ready); print(g); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn fig61_reports_only_unordered_pairs() {
        let rp = ppd_lang::corpus::FIG_6_1.compile();
        let analyses = crate::Analyses::run(&rp);
        let diags = crate::lint::run_default(&rp, &analyses, 1);
        let msgs: Vec<&String> =
            diags.iter().filter(|d| d.code == "PPD001").map(|d| &d.message).collect();
        // (P1, P3) is message-ordered and pruned; P2's pairs survive.
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("`P2`")), "{msgs:?}");
    }

    #[test]
    fn surviving_diagnostic_explains_concurrency() {
        let (_, diags) = lint("shared int g; process A { g = g + 1; } process B { g = g + 1; }");
        let d = diags.iter().find(|d| d.code == "PPD001").unwrap();
        assert!(
            d.notes.iter().any(|n| n.label.contains("no synchronization chain")),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn partially_ordered_pair_counts_excluded_accesses() {
        // W's first write is ordered before R's read via the handoff,
        // but W's second write races with it: the diagnostic survives
        // and reports the excluded ordered pair.
        let (_, diags) = lint(
            "shared int g; sem ready = 0; \
             process W { g = 1; v(ready); g = 2; } \
             process R { p(ready); print(g); }",
        );
        let d = diags.iter().find(|d| d.code == "PPD001").expect("candidate survives");
        assert!(d.notes.iter().any(|n| n.label.contains("statically ordered")), "{:?}", d.notes);
    }
}
