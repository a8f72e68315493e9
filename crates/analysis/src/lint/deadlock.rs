//! PPD008 — potential deadlocks from circular waiting.
//!
//! Two static wait-for analyses, both restricted to waits the
//! [`crate::mhp::MhpAnalysis`] relation deems concurrent:
//!
//! 1. **Semaphore hold-order cycles.** A forward may-held dataflow
//!    (acquire on `p`/`lock`, release on `v`/`unlock`, union over
//!    paths, interprocedural through call sites) yields, per acquire
//!    site, the semaphores possibly still held. Each "acquires `r`
//!    while holding `h`" site is an edge `h → r` in a wait-for graph
//!    over semaphores; a cycle whose edges have witness sites in
//!    pairwise-distinct, pairwise-MHP processes is the classic
//!    dining-philosophers inversion and is reported with the full
//!    cycle as related locations.
//! 2. **Blocking-message wait pairs.** For two concurrent blocking
//!    waits `u` (in `P`) and `v` (in `Q`) — mailbox/channel `recv`,
//!    blocking `send`, `rendezvous`, `accept` — the pair is reported
//!    when every statement that could unblock `u` is sequenced after
//!    `v` or after `u` itself, and symmetrically for `v`: with both
//!    processes parked, no releasing statement is reachable.
//!
//! Both analyses over-approximate (may-held sets, may-happen
//! concurrency), so findings are warnings: a report means no static
//! ordering rules the cycle out, not that every schedule reaches it.
//! Channel waits are skipped conservatively when any send/recv goes
//! through an aliased channel parameter.

use super::{Diagnostic, LintContext, Pass, Severity};
use crate::cfg::{Cfg, CfgNodeKind, NodeId};
use crate::mhp::MhpAnalysis;
use ppd_lang::ast::{walk_stmts, StmtKind, SyncStmt};
use ppd_lang::{BodyId, ChanId, ChanRef, ProcId, ResolvedProgram, SemId, Span, StmtId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Reports circular semaphore acquisition and mutual blocking waits.
pub(super) const PASS: Pass = Pass {
    code: "PPD008",
    name: "potential-deadlock",
    page: "PPD008: potential-deadlock\n\
           \n\
           A static wait-for-graph cycle among processes the\n\
           may-happen-in-parallel relation deems concurrent. Two shapes are\n\
           reported:\n\
           \n\
           - circular semaphore acquisition: a cycle in the acquires-while-\n\
           \x20 holding order (e.g. one process takes `a` then `b`, another\n\
           \x20 takes `b` then `a`), with one witness site per cycle edge;\n\
           - mutually blocking message waits: two concurrent blocking\n\
           \x20 receive/rendezvous/accept sites where each side's only\n\
           \x20 unblockers are sequenced after the opposing wait.\n\
           \n\
           The analysis is conservative: programs that alias channels\n\
           through variables suppress the channel-wait check rather than\n\
           guess. Acquire semaphores in one global order, or make one side\n\
           send before it receives, to break the cycle.",
    run,
};

fn run(ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let sites = classify_sites(ctx.rp);
    let mut diags = lock_order_cycles(ctx, &sites);
    diags.extend(wait_pairs(ctx, &sites));
    diags
}

/// What one statement contributes to the wait-for analyses.
enum SiteKind {
    Acquire(SemId),
    Release(SemId),
    /// `send`/`asend`; the bool is true for the blocking form.
    Send {
        to: Target,
        blocking: bool,
    },
    RecvMailbox,
    RecvChan(ChanId),
    /// `recv` through an aliased channel parameter — unanalyzable.
    RecvChanVar,
    Rendezvous(ProcId),
    Accept,
}

enum Target {
    Proc(ProcId),
    Chan(ChanId),
    /// Aliased channel parameter — unanalyzable.
    ChanVar,
}

struct Sites {
    spans: HashMap<StmtId, Span>,
    kinds: HashMap<StmtId, SiteKind>,
    /// Some channel endpoint goes through a channel-typed parameter, so
    /// static channel matching is unsound: skip channel waits entirely.
    chan_aliasing: bool,
}

fn classify_sites(rp: &ResolvedProgram) -> Sites {
    let mut spans = HashMap::new();
    let mut kinds = HashMap::new();
    let mut chan_aliasing = false;
    for body in rp.bodies() {
        walk_stmts(rp.body_block(body), &mut |s| {
            spans.insert(s.id, s.span);
            let StmtKind::Sync(sync) = &s.kind else { return };
            let kind = match sync {
                SyncStmt::P(_) | SyncStmt::Lock(_) => SiteKind::Acquire(rp.sem_ref[&s.id]),
                SyncStmt::V(_) | SyncStmt::Unlock(_) => SiteKind::Release(rp.sem_ref[&s.id]),
                SyncStmt::Send { .. } | SyncStmt::ASend { .. } => {
                    let blocking = matches!(sync, SyncStmt::Send { .. });
                    let to = if let Some(&q) = rp.msg_target.get(&s.id) {
                        Target::Proc(q)
                    } else {
                        match rp.send_chan.get(&s.id) {
                            Some(ChanRef::Static(c)) => Target::Chan(*c),
                            _ => {
                                chan_aliasing = true;
                                Target::ChanVar
                            }
                        }
                    };
                    SiteKind::Send { to, blocking }
                }
                SyncStmt::Recv { from: None, .. } => SiteKind::RecvMailbox,
                SyncStmt::Recv { from: Some(_), .. } => match rp.recv_chan.get(&s.id) {
                    Some(ChanRef::Static(c)) => SiteKind::RecvChan(*c),
                    _ => {
                        chan_aliasing = true;
                        SiteKind::RecvChanVar
                    }
                },
                SyncStmt::Rendezvous { .. } => SiteKind::Rendezvous(rp.msg_target[&s.id]),
                SyncStmt::Accept { .. } => SiteKind::Accept,
            };
            kinds.insert(s.id, kind);
        });
    }
    Sites { spans, kinds, chan_aliasing }
}

// ---------------------------------------------------------------------
// Part 1: semaphore hold-order cycles
// ---------------------------------------------------------------------

/// One "acquires `acq` while holding `held`" witness.
#[derive(Clone, Copy)]
struct Witness {
    proc: ProcId,
    stmt: StmtId,
    span: Span,
    held: SemId,
    acq: SemId,
}

fn lock_order_cycles(ctx: &LintContext<'_>, sites: &Sites) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let mhp = &ctx.analyses.mhp;
    let held_at = may_locksets(rp, ctx.analyses, sites);

    // Wait-for edges held → acquired, with every witness site.
    let mut edges: BTreeMap<(SemId, SemId), Vec<Witness>> = BTreeMap::new();
    for &(proc, stmt) in mhp.events() {
        let Some(SiteKind::Acquire(acq)) = sites.kinds.get(&stmt) else { continue };
        let Some(held) = held_at.get(&stmt) else { continue };
        for &h in held {
            if h != *acq {
                edges.entry((h, *acq)).or_default().push(Witness {
                    proc,
                    stmt,
                    span: sites.spans[&stmt],
                    held: h,
                    acq: *acq,
                });
            }
        }
    }

    // Simple cycles of length 2..=4, each enumerated once from its
    // smallest semaphore.
    let mut adj: BTreeMap<SemId, Vec<SemId>> = BTreeMap::new();
    for &(h, r) in edges.keys() {
        adj.entry(h).or_default().push(r);
    }
    let mut diags = Vec::new();
    let sems: Vec<SemId> = adj.keys().copied().collect();
    for &start in &sems {
        let mut path = vec![start];
        cycles_from(start, &adj, &mut path, &mut |cycle| {
            let edge_wits: Vec<&Vec<Witness>> = cycle
                .windows(2)
                .map(|w| &edges[&(w[0], w[1])])
                .chain(std::iter::once(&edges[&(cycle[cycle.len() - 1], cycle[0])]))
                .collect();
            let mut chosen = Vec::new();
            if pick_witnesses(&edge_wits, &mut chosen, mhp) {
                diags.push(diagnose_cycle(rp, cycle, &chosen));
            }
        });
    }
    diags
}

/// DFS for simple cycles through `path[0]`, visiting only semaphores
/// `>= path[0]` so each cycle is found exactly once; length capped at 4.
fn cycles_from(
    start: SemId,
    adj: &BTreeMap<SemId, Vec<SemId>>,
    path: &mut Vec<SemId>,
    found: &mut impl FnMut(&[SemId]),
) {
    let last = *path.last().expect("path is never empty");
    for &next in adj.get(&last).map(Vec::as_slice).unwrap_or(&[]) {
        if next == start && path.len() >= 2 {
            found(path);
        } else if next > start && !path.contains(&next) && path.len() < 4 {
            path.push(next);
            cycles_from(start, adj, path, found);
            path.pop();
        }
    }
}

/// Picks one witness per edge such that the witnesses are in pairwise
/// distinct processes and pairwise may-happen-in-parallel.
fn pick_witnesses(edges: &[&Vec<Witness>], chosen: &mut Vec<Witness>, mhp: &MhpAnalysis) -> bool {
    let Some((first, rest)) = edges.split_first() else { return true };
    for &w in first.iter() {
        let compatible = chosen.iter().all(|c| {
            c.proc != w.proc && mhp.may_happen_in_parallel((c.proc, c.stmt), (w.proc, w.stmt))
        });
        if compatible {
            chosen.push(w);
            if pick_witnesses(rest, chosen, mhp) {
                return true;
            }
            chosen.pop();
        }
    }
    false
}

fn diagnose_cycle(rp: &ResolvedProgram, cycle: &[SemId], witnesses: &[Witness]) -> Diagnostic {
    let ring = cycle
        .iter()
        .chain(std::iter::once(&cycle[0]))
        .map(|&s| format!("`{}`", rp.sem_name(s)))
        .collect::<Vec<_>>()
        .join(" → ");
    let mut d = Diagnostic::new(
        PASS.code,
        Severity::Warning,
        format!("potential deadlock: circular semaphore acquisition {ring}"),
        witnesses[0].span,
    );
    for w in witnesses {
        d = d.with_note(
            format!(
                "process `{}` acquires `{}` while holding `{}`",
                rp.proc_name(w.proc),
                rp.sem_name(w.acq),
                rp.sem_name(w.held),
            ),
            w.span,
        );
    }
    d.with_help(
        "these acquisitions may interleave so that every process in the cycle \
         holds one semaphore and waits for the next; acquire in a consistent order",
    )
}

/// Per-acquire-site may-held semaphore sets, interprocedural through
/// call sites (union over callers), to a fixpoint. The dual of
/// PPD005's must-locksets: union instead of intersection, because a
/// deadlock needs only *some* path to arrive still holding.
fn may_locksets(
    rp: &ResolvedProgram,
    analyses: &crate::Analyses,
    sites: &Sites,
) -> HashMap<StmtId, BTreeSet<SemId>> {
    let bodies = rp.bodies();
    let mut entry: HashMap<BodyId, Option<BTreeSet<SemId>>> = bodies
        .iter()
        .map(|&b| {
            let initial = match b {
                BodyId::Proc(_) => Some(BTreeSet::new()),
                BodyId::Func(_) => None,
            };
            (b, initial)
        })
        .collect();
    let mut result: HashMap<StmtId, BTreeSet<SemId>> = HashMap::new();
    loop {
        let mut changed = false;
        result.clear();
        for &b in &bodies {
            let Some(start) = entry[&b].clone() else { continue };
            let cfg = analyses.cfg(b);
            let states = body_may_held(cfg, sites, &start);
            for (node, state) in states.iter().enumerate() {
                let Some(state) = state else { continue };
                let CfgNodeKind::Stmt(stmt) = cfg.node(NodeId(node as u32)).kind else {
                    continue;
                };
                result.insert(stmt, state.clone());
                for &callee in &analyses.effects.of(stmt).calls {
                    let slot = entry.get_mut(&BodyId::Func(callee)).expect("callee body");
                    let next = match slot {
                        None => state.clone(),
                        Some(old) => old.union(state).copied().collect(),
                    };
                    if slot.as_ref() != Some(&next) {
                        *slot = Some(next);
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

/// Forward may-held dataflow over one body; union merge, `None` =
/// unreached. Returns the held set at each node's entry.
fn body_may_held(
    cfg: &Cfg,
    sites: &Sites,
    start: &BTreeSet<SemId>,
) -> Vec<Option<BTreeSet<SemId>>> {
    let mut state: Vec<Option<BTreeSet<SemId>>> = vec![None; cfg.len()];
    state[cfg.entry().index()] = Some(start.clone());
    loop {
        let mut changed = false;
        for node in cfg.reverse_postorder() {
            let Some(before) = state[node.index()].clone() else { continue };
            let mut after = before;
            if let CfgNodeKind::Stmt(stmt) = cfg.node(node).kind {
                match sites.kinds.get(&stmt) {
                    Some(SiteKind::Acquire(sem)) => {
                        after.insert(*sem);
                    }
                    Some(SiteKind::Release(sem)) => {
                        after.remove(sem);
                    }
                    _ => {}
                }
            }
            for succ in cfg.succs(node) {
                let slot = &mut state[succ.index()];
                let next = match slot {
                    None => after.clone(),
                    Some(old) => old.union(&after).copied().collect(),
                };
                if slot.as_ref() != Some(&next) {
                    *slot = Some(next);
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

// ---------------------------------------------------------------------
// Part 2: blocking-message wait pairs
// ---------------------------------------------------------------------

/// One blocking wait a process may park on.
struct Wait {
    proc: ProcId,
    stmt: StmtId,
    span: Span,
    kind: WaitKind,
}

#[derive(Clone, Copy)]
enum WaitKind {
    MailboxRecv,
    ChanRecv(ChanId),
    SendProc(ProcId),
    SendChan(ChanId),
    Rendezvous(ProcId),
    Accept,
}

fn wait_pairs(ctx: &LintContext<'_>, sites: &Sites) -> Vec<Diagnostic> {
    let rp = ctx.rp;
    let mhp = &ctx.analyses.mhp;
    let mut waits: Vec<Wait> = Vec::new();
    for &(proc, stmt) in mhp.events() {
        let kind = match sites.kinds.get(&stmt) {
            Some(SiteKind::RecvMailbox) => WaitKind::MailboxRecv,
            Some(SiteKind::RecvChan(c)) if !sites.chan_aliasing => WaitKind::ChanRecv(*c),
            Some(SiteKind::Send { to: Target::Proc(q), blocking: true }) if *q != proc => {
                WaitKind::SendProc(*q)
            }
            Some(SiteKind::Send { to: Target::Chan(c), blocking: true })
                if !sites.chan_aliasing =>
            {
                WaitKind::SendChan(*c)
            }
            Some(SiteKind::Rendezvous(q)) if *q != proc => WaitKind::Rendezvous(*q),
            Some(SiteKind::Accept) => WaitKind::Accept,
            _ => continue,
        };
        waits.push(Wait { proc, stmt, span: sites.spans[&stmt], kind });
    }

    // The statements that could release each wait, as MHP events.
    let unblockers: Vec<Vec<(ProcId, StmtId)>> =
        waits.iter().map(|w| unblockers_of(w, sites, mhp)).collect();

    let mut diags = Vec::new();
    for i in 0..waits.len() {
        for j in (i + 1)..waits.len() {
            let (u, v) = (&waits[i], &waits[j]);
            if u.proc == v.proc || !mhp.may_happen_in_parallel((u.proc, u.stmt), (v.proc, v.stmt)) {
                continue;
            }
            if parked(u, v, &unblockers[i], mhp) && parked(v, u, &unblockers[j], mhp) {
                diags.push(diagnose_pair(rp, u, v));
            }
        }
    }
    diags
}

/// With `wait`'s process parked at `wait` and `other`'s at `other`,
/// can anything still release `wait`? False unless every unblocker is
/// sequenced after one of the two waits (and at least one exists — a
/// wait with no releasers at all is PPD007's territory).
fn parked(wait: &Wait, other: &Wait, unblockers: &[(ProcId, StmtId)], mhp: &MhpAnalysis) -> bool {
    !unblockers.is_empty()
        && unblockers.iter().all(|&(r, t)| {
            (r == other.proc && mhp.sequenced_before((other.proc, other.stmt), (r, t)))
                || (r == wait.proc && mhp.sequenced_before((wait.proc, wait.stmt), (r, t)))
        })
}

fn unblockers_of(wait: &Wait, sites: &Sites, mhp: &MhpAnalysis) -> Vec<(ProcId, StmtId)> {
    mhp.events()
        .iter()
        .copied()
        .filter(|&(r, t)| match (wait.kind, sites.kinds.get(&t)) {
            (WaitKind::MailboxRecv, Some(SiteKind::Send { to: Target::Proc(q), .. })) => {
                *q == wait.proc
            }
            (WaitKind::ChanRecv(c), Some(SiteKind::Send { to: Target::Chan(d), .. })) => *d == c,
            (WaitKind::SendProc(q), Some(SiteKind::RecvMailbox)) => r == q,
            (WaitKind::SendChan(c), Some(SiteKind::RecvChan(d))) => *d == c,
            (WaitKind::Rendezvous(q), Some(SiteKind::Accept)) => r == q,
            (WaitKind::Accept, Some(SiteKind::Rendezvous(q))) => *q == wait.proc,
            _ => false,
        })
        .collect()
}

fn describe_wait(rp: &ResolvedProgram, w: &Wait) -> String {
    match w.kind {
        WaitKind::MailboxRecv => "waits to receive from its mailbox".into(),
        WaitKind::ChanRecv(c) => format!("waits to receive on channel `{}`", rp.chan_name(c)),
        WaitKind::SendProc(q) => format!("waits to send to `{}`", rp.proc_name(q)),
        WaitKind::SendChan(c) => format!("waits to send on channel `{}`", rp.chan_name(c)),
        WaitKind::Rendezvous(q) => format!("waits to rendezvous with `{}`", rp.proc_name(q)),
        WaitKind::Accept => "waits to accept a rendezvous".into(),
    }
}

fn diagnose_pair(rp: &ResolvedProgram, u: &Wait, v: &Wait) -> Diagnostic {
    let (pu, pv) = (rp.proc_name(u.proc), rp.proc_name(v.proc));
    Diagnostic::new(
        PASS.code,
        Severity::Warning,
        format!(
            "potential deadlock: process `{pu}` {} while process `{pv}` {}",
            describe_wait(rp, u),
            describe_wait(rp, v),
        ),
        u.span,
    )
    .with_note(format!("the opposing wait in `{pv}`",), v.span)
    .with_help(
        "every statement that could release either wait is sequenced after the \
         other wait, so once both processes block neither can proceed",
    )
}

#[cfg(test)]
mod tests {
    use crate::lint::testutil::lint;

    fn ppd008(src: &str) -> Vec<String> {
        let (_, diags) = lint(src);
        diags.into_iter().filter(|d| d.code == "PPD008").map(|d| d.message).collect()
    }

    #[test]
    fn dining_philosophers_inversion_is_reported() {
        let msgs = ppd008(
            "sem f0 = 1; sem f1 = 1; \
             process A { p(f0); p(f1); v(f1); v(f0); } \
             process B { p(f1); p(f0); v(f0); v(f1); }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("circular semaphore acquisition"), "{msgs:?}");
        assert!(msgs[0].contains("`f0`") && msgs[0].contains("`f1`"), "{msgs:?}");
    }

    #[test]
    fn consistent_acquisition_order_is_silent() {
        let msgs = ppd008(
            "sem f0 = 1; sem f1 = 1; \
             process A { p(f0); p(f1); v(f1); v(f0); } \
             process B { p(f0); p(f1); v(f1); v(f0); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn cross_mailbox_recv_deadlock_is_reported() {
        let msgs = ppd008(
            "process A { int x; recv(x); send(B, 1); } \
             process B { int y; recv(y); send(A, 2); }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("receive from its mailbox"), "{msgs:?}");
    }

    #[test]
    fn send_before_recv_is_silent() {
        let msgs = ppd008(
            "process A { int x; send(B, 1); recv(x); } \
             process B { int y; recv(y); send(A, 2); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn third_party_sender_breaks_the_cycle() {
        // C can always feed A, so the A/B recv pair is not a deadlock.
        let msgs = ppd008(
            "process A { int x; recv(x); send(B, 1); } \
             process B { int y; recv(y); send(A, 2); } \
             process C { asend(A, 3); }",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn crossed_rendezvous_is_reported() {
        // Each accept that could answer the other's call sits behind
        // that process's own rendezvous call.
        let msgs = ppd008(
            "process A { rendezvous(B, 1); accept (x) { print(x); } } \
             process B { rendezvous(A, 2); accept (y) { print(y); } }",
        );
        assert!(!msgs.is_empty(), "{msgs:?}");
        assert!(msgs[0].contains("rendezvous"), "{msgs:?}");
    }

    #[test]
    fn three_way_lock_cycle_is_reported() {
        let msgs = ppd008(
            "sem f0 = 1; sem f1 = 1; sem f2 = 1; \
             process A { p(f0); p(f1); v(f1); v(f0); } \
             process B { p(f1); p(f2); v(f2); v(f1); } \
             process C { p(f2); p(f0); v(f0); v(f2); }",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`f2`"), "{msgs:?}");
    }
}
