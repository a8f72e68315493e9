//! PPD007 — channels with no matching endpoint.
//!
//! A declared channel whose sends can never be received (or whose recvs
//! can never be fed) is either dead wiring or a miswired pipeline stage:
//! blocking sends on it deadlock, and receivers starve forever. This
//! pass pairs every channel with the send/recv sites that may actually
//! operate on it — exact for `chan` literals, refined by the checker's
//! payload types for `chan`-typed parameters (a parameter can only name
//! a channel whose payload type unifies with its own), conservatively
//! all channels when the program does not type-check — keeping only
//! sites some process actually reaches (via the MHP event index).

use super::{Diagnostic, LintContext, Pass, Severity};
use ppd_lang::{ChanId, ChanRef, IdTable, ProcId, StmtId};

/// Reports channels that are never used, never received from, or never
/// sent on.
pub(super) const PASS: Pass = Pass {
    code: "PPD007",
    name: "dead-channel",
    page: "PPD007: dead-channel\n\
           \n\
           A channel has no reachable sender, no reachable receiver, or no\n\
           uses at all (under the checker's typed channel-parameter aliasing\n\
           when the program type-checks). A receive from a never-sent\n\
           channel blocks forever; a channel nobody touches is clutter.\n\
           \n\
           Wire up the missing endpoint or delete the channel.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let analyses = ctx.analyses;
    let reachable =
        |s: StmtId| (0..rp.procs.len() as u32).map(ProcId).any(|p| analyses.mhp.is_event(p, s));
    // A `chan`-typed parameter may name channel `c` only when their
    // payload types unify; without a clean type check every
    // parameter may name every channel.
    let may_name = |cref: ChanRef, c: ChanId| match cref {
        ChanRef::Static(c2) => c2 == c,
        ChanRef::Var(_) => match &analyses.types {
            Some(ti) => ti.chan_ref_payload(cref) == ti.chan_ref_payload(ChanRef::Static(c)),
            None => true,
        },
    };
    let sites_on = |map: &IdTable<StmtId, ChanRef>, c: ChanId| -> Vec<StmtId> {
        map.iter().filter(|&(s, &cref)| may_name(cref, c) && reachable(s)).map(|(s, _)| s).collect()
    };

    let mut diags = Vec::new();
    for c in (0..rp.chans.len() as u32).map(ChanId) {
        let sends = sites_on(&rp.send_chan, c);
        let recvs = sites_on(&rp.recv_chan, c);
        let name = rp.chan_name(c);
        let span = rp.chans[c.index()].decl_span;
        let (message, orphans, orphan_label) = match (sends.is_empty(), recvs.is_empty()) {
            (true, true) => (format!("channel `{name}` is declared but never used"), &[][..], ""),
            (false, true) => (
                format!(
                    "channel `{name}` is sent on but never received from; blocking sends \
                     on it deadlock"
                ),
                &sends[..],
                "sent here with no possible receiver",
            ),
            (true, false) => (
                format!(
                    "channel `{name}` is received from but never sent on; receivers block \
                     forever"
                ),
                &recvs[..],
                "received here with no possible sender",
            ),
            (false, false) => continue,
        };
        let mut diag = Diagnostic::new(PASS.code, Severity::Warning, message, span);
        for &s in orphans {
            if let Some(site) = analyses.database.span_of(s) {
                diag = diag.with_note(orphan_label, site);
            }
        }
        diag = diag.with_help("connect both endpoints or delete the channel declaration");
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
    fn fires_on_unused_channel() {
        let diags = run("chan q; process M { print(1); }");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("never used"), "{}", diags[0].message);
    }

    #[test]
    fn fires_on_send_without_recv() {
        let diags = run("chan q; process M { asend(q, 1); }");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("never received"), "{}", diags[0].message);
    }

    #[test]
    fn fires_on_recv_without_send() {
        let diags = run("chan q; process M { int x; recv(q, x); }");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("never sent"), "{}", diags[0].message);
    }

    #[test]
    fn silent_when_both_endpoints_exist() {
        let diags = run("chan q; process A { send(q, 1); } process B { int x; recv(q, x); }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn typed_aliasing_ignores_param_with_other_payload() {
        // `w` only ever names a bool-payload channel, so the int-payload
        // channel `ints` still has a missing receiver.
        let diags = run("chan ints; chan flags; \
             void pump(chan w) { int i; recv(w, i); print(i); } \
             process A { send(ints, 1); send(flags, true); } \
             process B { pump(flags); }");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`ints`"), "{}", diags[0].message);
    }

    #[test]
    fn untyped_fallback_is_conservative() {
        // Type error (bool sent where int inferred) => no TypeInfo; the
        // param may then name any channel, so nothing fires.
        let diags = run("chan ints; shared int g = 0; \
             void pump(chan w) { int i = 0; recv(w, i); g = i + 1; } \
             process A { send(ints, 1); g = true; } \
             process B { pump(ints); }");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
