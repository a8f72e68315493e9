//! Static race & misuse linting.
//!
//! The paper's dynamic race detector (§6.3–6.4) decides whether the
//! conflicts of one *execution instance* were ordered; this module is
//! its static front half. It reuses the preparatory-phase analyses —
//! per-statement effects (§5.1), GMOD/GREF closures (§5.1),
//! synchronization units (§5.5), reaching definitions and liveness — to
//! report, before any execution:
//!
//! - **PPD001** `race-candidate` — statement pairs in different
//!   processes whose static shared READ/WRITE sets conflict. These are
//!   exactly the pairs the dynamic detector must examine; everything
//!   else is provably ordered or non-conflicting, which is what
//!   [`RaceCandidates`] feeds to `ppd-graph` as a pruning index.
//! - **PPD002** `unsync-shared-access` — a shared access reachable from
//!   process entry without crossing any synchronization operation.
//! - **PPD003** `dead-store` — a value assigned to a local that no path
//!   ever reads (from the liveness solution).
//! - **PPD004** `uninit-read` — a local read while only its
//!   initializer-less declaration (implicit 0) reaches it (from the
//!   reaching-definitions solution).
//! - **PPD005** `inconsistent-lock` — a shared variable reached under
//!   disjoint must-locksets (different locks, or one side lockless) on
//!   two paths the MHP relation deems concurrent.
//! - **PPD006** `type-confused-shared` — a shared global written at
//!   incompatible inferred types from different processes (each write
//!   re-inferred with a fresh type variable, so the lint works even when
//!   `ppd check` would reject the program).
//! - **PPD007** `dead-channel` — a channel with no reachable sender, no
//!   reachable receiver, or no uses at all, under the checker's typed
//!   channel-parameter aliasing when the program type-checks.
//! - **PPD008** `potential-deadlock` — circular semaphore acquisition
//!   orders and mutually blocking message waits among MHP-concurrent
//!   processes (a static wait-for-graph cycle check).
//! - **PPD009** `out-of-bounds` — an array access whose inferred index
//!   interval (from the abstract interpreter) has a finite endpoint
//!   outside the declared bounds.
//! - **PPD010** `constant-condition` — a non-literal `if`/`while`/`for`
//!   condition the abstract interpreter proves constant, with the dead
//!   arm pointed out.
//!
//! Diagnostics carry a code, severity, a primary [`Span`] and labeled
//! notes; [`Diagnostic::render`] produces compiler-style excerpts via
//! [`ppd_lang::diag`].

mod bounds;
pub mod candidates;
mod const_cond;
mod dead_channel;
mod dead_store;
mod deadlock;
mod explain;
mod inconsistent_lock;
mod race_candidate;
mod type_confusion;
mod uninit_read;
mod unsync_shared;

pub use bounds::BoundsPass;
pub use candidates::RaceCandidates;
pub use const_cond::ConstCondPass;
pub use dead_channel::DeadChannelPass;
pub use dead_store::DeadStorePass;
pub use deadlock::DeadlockPass;
pub use explain::{explain, explained_codes};
pub use inconsistent_lock::InconsistentLockPass;
pub use race_candidate::RaceCandidatePass;
pub use type_confusion::TypeConfusionPass;
pub use uninit_read::UninitReadPass;
pub use unsync_shared::UnsyncSharedPass;

use crate::usedef::shared_only;
use crate::varset::{VarSet, VarSetRepr};
use crate::Analyses;
use ppd_lang::ast::walk_stmts;
use ppd_lang::diag::SourceFile;
use ppd_lang::{BodyId, ResolvedProgram, Span, StmtId, VarId};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intended; fails the lint only under
    /// `--deny`.
    Warning,
    /// A definite defect.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A labeled secondary location (or a spanless remark) attached to a
/// [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// What this note points out.
    pub label: String,
    /// Where, if the note refers to program text.
    pub span: Option<Span>,
}

/// One lint finding: code, severity, message, primary span, notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`PPD001`…).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The headline message.
    pub message: String,
    /// The primary location.
    pub span: Span,
    /// Secondary labeled locations and remarks.
    pub notes: Vec<Note>,
}

impl Diagnostic {
    /// Creates a diagnostic with no notes.
    pub fn new(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
        span: Span,
    ) -> Diagnostic {
        Diagnostic { code, severity, message: message.into(), span, notes: Vec::new() }
    }

    /// Adds a note pointing at `span`.
    #[must_use]
    pub fn with_note(mut self, label: impl Into<String>, span: Span) -> Diagnostic {
        self.notes.push(Note { label: label.into(), span: Some(span) });
        self
    }

    /// Adds a spanless remark.
    #[must_use]
    pub fn with_help(mut self, label: impl Into<String>) -> Diagnostic {
        self.notes.push(Note { label: label.into(), span: None });
        self
    }

    /// Renders the diagnostic with source excerpts:
    ///
    /// ```text
    /// warning[PPD001]: possible data race on `accounts` ...
    ///   --> programs/bank.ppd:8:9
    ///    |
    ///  8 |         accounts[0] = accounts[0] + 1;
    ///    |         ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^
    /// note: conflicting write in process `TellerB`
    ///   --> programs/bank.ppd:17:9
    ///   ...
    /// ```
    pub fn render(&self, file: &SourceFile) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let excerpt = file.render_excerpt(self.span);
        if !excerpt.is_empty() {
            out.push('\n');
            out.push_str(&excerpt);
        }
        for note in &self.notes {
            out.push_str(&format!("\nnote: {}", note.label));
            if let Some(span) = note.span {
                let excerpt = file.render_excerpt(span);
                if !excerpt.is_empty() {
                    out.push('\n');
                    out.push_str(&excerpt);
                }
            }
        }
        out
    }
}

/// Everything a pass may consult.
pub struct LintContext<'a> {
    /// The resolved program.
    pub rp: &'a ResolvedProgram,
    /// The preparatory-phase analyses.
    pub analyses: &'a Analyses,
}

/// One registered lint pass.
pub trait LintPass {
    /// The stable diagnostic code this pass emits (`PPD001`…).
    fn code(&self) -> &'static str;
    /// A short kebab-case pass name.
    fn name(&self) -> &'static str;
    /// Runs the pass.
    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;
}

/// A registered pass, shareable across lint worker threads.
pub type BoxedLintPass = Box<dyn LintPass + Send + Sync>;

/// The built-in pass registry, in code order.
pub fn default_passes() -> Vec<BoxedLintPass> {
    vec![
        Box::new(RaceCandidatePass),
        Box::new(UnsyncSharedPass),
        Box::new(DeadStorePass),
        Box::new(UninitReadPass),
        Box::new(InconsistentLockPass),
        Box::new(TypeConfusionPass),
        Box::new(DeadChannelPass),
        Box::new(DeadlockPass),
        Box::new(BoundsPass),
        Box::new(ConstCondPass),
    ]
}

/// Runs `passes` over the program, one work-stealing task per pass
/// across `jobs` threads, and returns the diagnostics sorted by source
/// position (then code) and with exact duplicates removed. Passes only
/// read the shared analyses and per-pass results are concatenated in
/// registration order before the sort, so the output is
/// **bit-identical** at any thread count.
pub fn run_passes(
    rp: &ResolvedProgram,
    analyses: &Analyses,
    passes: &[BoxedLintPass],
    jobs: usize,
) -> Vec<Diagnostic> {
    let ctx = LintContext { rp, analyses };
    let per_pass: Vec<Vec<Diagnostic>> = if jobs <= 1 || passes.len() <= 1 {
        passes.iter().map(|p| run_pass_instrumented(p, &ctx)).collect()
    } else {
        use rayon::prelude::*;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build()
            .expect("thread pool build is infallible");
        pool.install(|| passes.par_iter().map(|p| run_pass_instrumented(p, &ctx)).collect())
    };
    finalize(per_pass)
}

/// Runs one pass under a span naming it, so `--trace-out` shows where
/// lint wall time goes pass by pass (free when spans are disabled).
fn run_pass_instrumented(pass: &BoxedLintPass, ctx: &LintContext) -> Vec<Diagnostic> {
    let _span = ppd_obs::spans_enabled()
        .then(|| ppd_obs::span_dyn("lint", format!("pass:{}", pass.name())));
    pass.run(ctx)
}

/// The shared deterministic finalization: flatten in registration
/// order, sort by source position (then code, then message), dedup.
fn finalize(per_pass: Vec<Vec<Diagnostic>>) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = per_pass.into_iter().flatten().collect();
    diags.sort_by(|a, b| {
        (a.span.start, a.span.end, a.code, &a.message).cmp(&(
            b.span.start,
            b.span.end,
            b.code,
            &b.message,
        ))
    });
    diags.dedup();
    diags
}

/// Runs the default registry across `jobs` worker threads (see
/// [`run_passes`]).
pub fn run_default(rp: &ResolvedProgram, analyses: &Analyses, jobs: usize) -> Vec<Diagnostic> {
    run_passes(rp, analyses, &default_passes(), jobs)
}

/// The shared variables `stmt` may read and write, including its
/// callees' GREF/GMOD closures — statement-granularity MOD/REF.
pub(crate) fn shared_accesses(
    rp: &ResolvedProgram,
    analyses: &Analyses,
    stmt: StmtId,
) -> (VarSet, VarSet) {
    let fx = analyses.effects.of(stmt);
    let mut reads = shared_only(rp, &fx.uses);
    let mut writes = shared_only(rp, &fx.defs);
    for &callee in &fx.calls {
        reads.union_with(analyses.modref.gref(BodyId::Func(callee)));
        writes.union_with(analyses.modref.gmod(BodyId::Func(callee)));
    }
    (reads, writes)
}

/// The first statement of `body` (source order) accessing `var`,
/// preferring the requested access kind and falling back to any access.
pub(crate) fn first_access(
    rp: &ResolvedProgram,
    analyses: &Analyses,
    body: BodyId,
    var: VarId,
    prefer_write: bool,
) -> Option<Span> {
    let mut wanted = None;
    let mut fallback = None;
    walk_stmts(rp.body_block(body), &mut |stmt| {
        let (reads, writes) = shared_accesses(rp, analyses, stmt.id);
        let hit = if prefer_write { writes.contains(var) } else { reads.contains(var) };
        if hit && wanted.is_none() {
            wanted = Some(stmt.span);
        }
        if (reads.contains(var) || writes.contains(var)) && fallback.is_none() {
            fallback = Some(stmt.span);
        }
    });
    wanted.or(fallback)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Compiles `src` and runs the full default lint over it.
    pub fn lint(src: &str) -> (ResolvedProgram, Vec<Diagnostic>) {
        let rp = ppd_lang::compile(src).unwrap();
        let analyses = Analyses::run(&rp);
        let diags = run_default(&rp, &analyses, 1);
        (rp, diags)
    }

    /// The codes of `diags`, in order.
    pub fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{codes, lint};
    use super::*;

    #[test]
    fn clean_program_has_no_diagnostics() {
        let (_, diags) = lint(
            "shared int g; sem s = 1; \
             process A { p(s); g = g + 1; v(s); } \
             process B { p(s); g = g + 2; v(s); }",
        );
        // A and B still form a PPD001 candidate (the dynamic detector
        // must check them) but nothing else fires.
        assert_eq!(codes(&diags), vec!["PPD001"]);
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let (_, diags) = lint(
            "shared int g; \
             process A { int dead = 1; g = 2; } \
             process B { print(g); }",
        );
        let starts: Vec<u32> = diags.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        assert!(diags.len() >= 2, "{diags:?}");
    }

    #[test]
    fn render_includes_code_and_excerpt() {
        let src = "shared int g; process A { g = 1; } process B { g = 2; }";
        let (_, diags) = lint(src);
        let file = SourceFile::new("test.ppd", src);
        let rendered = diags[0].render(&file);
        assert!(rendered.contains("[PPD001]"), "{rendered}");
        assert!(rendered.contains("--> test.ppd:"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn single_process_programs_cannot_race() {
        let (_, diags) = lint("shared int g; process Only { g = g + 1; print(g); }");
        assert!(
            !codes(&diags).contains(&"PPD001"),
            "one process cannot race with itself: {diags:?}"
        );
        assert!(!codes(&diags).contains(&"PPD002"), "no other process conflicts: {diags:?}");
    }
}
