//! Flow-sensitive abstract interpretation over the CFG framework.
//!
//! Computes a constant-propagation + interval solution (see
//! [`Interval`]) per `(stmt, var)`:
//!
//! - **Local scalars** are tracked flow-sensitively per CFG node, with
//!   branch refinement on `True`/`False` edges, widening at loop heads
//!   and a bounded narrowing pass to recover loop bounds.
//! - **Shared variables and array elements** are summarized by a
//!   flow-insensitive *global invariant* `G(v)` — the join of the
//!   initial value and every abstract store anywhere in the program —
//!   which is sound under arbitrary interleaving of processes.
//! - **Functions** get entry environments joined over all call sites
//!   and a joined return interval, iterated to a program-wide fixpoint
//!   (the interprocedural idiom `must_locksets` uses).
//! - **Externally received values** — `recv`, `input()`, `accept`
//!   parameters — are conservatively ⊤.
//!
//! The fixpoint runs in summary rounds over every body, but only
//! re-analyzes what changed: a body whose summary slots (its own entry
//! and return, its callees' entries and returns, the invariants of the
//! shared, array and channel variables it names) are all unchanged
//! since its last analysis started is skipped, and inside a body a
//! predecessor's out-state is reused while its in-state and every
//! summary are unchanged. Summaries only grow, joins are idempotent and
//! `widen(old, new) ⊒ new`, so the skipped work could not have changed
//! anything: the solution is the one the full round-robin iteration
//! reaches (DESIGN §3.11; `tests/absint_soundness.rs` checks it against
//! that iteration).
//!
//! The solution feeds four consumers: element-granular race-candidate
//! pruning ([`AbsInt::refine_candidates`]), the static deadlock /
//! bounds / constant-condition lints (PPD008–PPD010), the e-block
//! snapshot sharpening in `syncunit`, and the interval-soundness
//! proptest in `tests/`.

use crate::cfg::{Cfg, CfgNodeKind, EdgeKind, NodeId};
use crate::lint::RaceCandidates;
use crate::mhp::MhpAnalysis;
use crate::ranges::Interval;
use crate::usedef::ProgramEffects;
use crate::varset::VarSetRepr;
use ppd_lang::ast::{
    walk_stmt_exprs, walk_stmts, BinOp, Expr, ExprKind, LValue, Stmt, StmtKind, SyncStmt,
};
use ppd_lang::{BodyId, ExprId, FuncId, ResolvedProgram, Span, StmtId, VarId};
use std::collections::HashMap;

/// One syntactic array access with its inferred index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAccess {
    /// The accessed array variable.
    pub array: VarId,
    /// Inferred range of the index expression at this program point.
    pub index: Interval,
    /// Whether the access stores (`a[i] = …`, `recv(a[i])`).
    pub is_write: bool,
    /// Source location of the access.
    pub span: Span,
}

/// Abstract environment: intervals for the local scalars currently
/// bound, sorted by variable. Missing means "unbound on every path
/// here" (⊥ for joins) and reads of missing variables conservatively
/// yield ⊤.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Env(Vec<(VarId, Interval)>);

impl Env {
    fn find(&self, var: VarId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&var, |&(v, _)| v)
    }

    fn get(&self, var: VarId) -> Option<Interval> {
        self.find(var).ok().map(|i| self.0[i].1)
    }

    fn insert(&mut self, var: VarId, val: Interval) {
        match self.find(var) {
            Ok(i) => self.0[i].1 = val,
            Err(i) => self.0.insert(i, (var, val)),
        }
    }

    fn remove(&mut self, var: VarId) {
        if let Ok(i) = self.find(var) {
            self.0.remove(i);
        }
    }
}

/// Number of loop-head visits before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Bounded narrowing sweeps after the widened solution stabilizes.
const NARROW_PASSES: usize = 2;
/// Outer summary rounds before global/function summaries are widened.
const WIDEN_ROUND: usize = 3;

/// The abstract-interpretation solution.
#[derive(Debug, Clone)]
pub struct AbsInt {
    env_before: Vec<Option<Env>>,
    env_after: Vec<Option<Env>>,
    global: Vec<Interval>,
    accesses: Vec<Vec<ArrayAccess>>,
    conditions: Vec<Option<Interval>>,
    returns: Vec<Interval>,
}

impl AbsInt {
    /// Runs the analysis to fixpoint over every body.
    pub fn compute(rp: &ResolvedProgram, cfgs: &HashMap<BodyId, Cfg>) -> AbsInt {
        Interp::new(rp, cfgs).run()
    }

    /// The interval of `var` just before `stmt` executes. Shared
    /// variables and arrays answer from the global invariant.
    pub fn value_before(&self, rp: &ResolvedProgram, stmt: StmtId, var: VarId) -> Interval {
        self.value_at(rp, &self.env_before, stmt, var)
    }

    /// The interval of `var` just after `stmt` executes.
    pub fn value_after(&self, rp: &ResolvedProgram, stmt: StmtId, var: VarId) -> Interval {
        self.value_at(rp, &self.env_after, stmt, var)
    }

    fn value_at(
        &self,
        rp: &ResolvedProgram,
        envs: &[Option<Env>],
        stmt: StmtId,
        var: VarId,
    ) -> Interval {
        let info = &rp.vars[var.index()];
        if info.is_shared() || info.size.is_some() || info.is_chan {
            return self.global_range(var);
        }
        match envs.get(stmt.index()).and_then(Option::as_ref) {
            Some(env) => env.get(var).unwrap_or(Interval::TOP),
            None => Interval::TOP,
        }
    }

    /// The flow-insensitive invariant of a shared scalar or of every
    /// element of an array (local or shared).
    pub fn global_range(&self, var: VarId) -> Interval {
        self.global.get(var.index()).copied().unwrap_or(Interval::TOP)
    }

    /// The joined return interval of `func` (⊥ if it never returns a
    /// value on any analyzed path).
    pub fn return_range(&self, func: FuncId) -> Interval {
        self.returns.get(func.index()).copied().unwrap_or(Interval::TOP)
    }

    /// All array accesses of `stmt` with their index intervals.
    pub fn accesses(&self, stmt: StmtId) -> &[ArrayAccess] {
        self.accesses.get(stmt.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The inferred range of the controlling condition of an
    /// `if`/`while`/`for` statement (booleans are 0/1).
    pub fn condition(&self, stmt: StmtId) -> Option<Interval> {
        self.conditions.get(stmt.index()).copied().flatten()
    }

    /// Whether the analysis found `stmt` reachable at all.
    pub fn reachable(&self, stmt: StmtId) -> bool {
        self.env_before.get(stmt.index()).is_some_and(Option::is_some)
    }

    /// The join of the index intervals of all *writes* of array `v` at
    /// `stmt`; ⊤ when the statement writes `v` without a recorded
    /// access (defensive), ⊥ when it does not touch `v` or is
    /// unreachable.
    pub fn write_region(&self, v: VarId, stmt: StmtId) -> Interval {
        self.region(v, stmt, true)
    }

    /// The join of the index intervals of all accesses (reads and
    /// writes) of array `v` at `stmt`.
    pub fn access_region(&self, v: VarId, stmt: StmtId) -> Interval {
        self.region(v, stmt, false)
    }

    /// The join of the index intervals of all *reads* of array `v` at
    /// `stmt`.
    pub fn read_region(&self, v: VarId, stmt: StmtId) -> Interval {
        let mut r = Interval::BOT;
        for a in self.accesses(stmt) {
            if a.array == v && !a.is_write {
                r = r.join(a.index);
            }
        }
        r
    }

    fn region(&self, v: VarId, stmt: StmtId, writes_only: bool) -> Interval {
        let mut r = Interval::BOT;
        let mut saw = false;
        for a in self.accesses(stmt) {
            if a.array == v && (a.is_write || !writes_only) {
                saw = true;
                r = r.join(a.index);
            }
        }
        if !saw && self.reachable(stmt) {
            // A reachable statement credited with an effect on `v` but
            // no syntactic access we modeled: never prune against it.
            return Interval::TOP;
        }
        r
    }

    /// Third static pruning stage: starting from the typed/MHP
    /// candidate set, drops `(array, procA, procB)` combinations when
    /// every MHP-concurrent conflicting statement pair has provably
    /// disjoint index regions. Mirrors [`MhpAnalysis::refine_candidates`]
    /// — only each event's *direct* effects count, because every
    /// reachable callee statement is itself an MHP event.
    pub fn refine_candidates(
        &self,
        rp: &ResolvedProgram,
        effects: &ProgramEffects,
        mhp: &MhpAnalysis,
        base: &RaceCandidates,
    ) -> RaceCandidates {
        let mut writers: HashMap<VarId, Vec<usize>> = HashMap::new();
        let mut accessors: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (i, &(_, s)) in mhp.events().iter().enumerate() {
            let fx = effects.of(s);
            for v in fx.defs.to_vec().into_iter().filter(|&v| rp.is_shared(v)) {
                writers.entry(v).or_default().push(i);
                accessors.entry(v).or_default().push(i);
            }
            for v in fx.uses.to_vec().into_iter().filter(|&v| rp.is_shared(v)) {
                accessors.entry(v).or_default().push(i);
            }
        }
        let mut out = RaceCandidates::new();
        for (&v, ws) in &writers {
            let is_array = rp.vars[v.index()].size.is_some();
            for &w in ws {
                let (pw, sw) = mhp.events()[w];
                for &a in &accessors[&v] {
                    let (pa, sa) = mhp.events()[a];
                    if pw == pa || !base.allows(v, pw, pa) || out.allows(v, pw, pa) {
                        continue;
                    }
                    if !mhp.may_happen_in_parallel((pw, sw), (pa, sa)) {
                        continue;
                    }
                    if is_array && self.write_region(v, sw).disjoint(self.access_region(v, sa)) {
                        continue; // provably element-disjoint pair
                    }
                    out.insert(v, pw, pa);
                }
            }
        }
        out
    }
}

/// The fixpoint engine. Holds the mutable summaries while bodies are
/// (re-)analyzed.
struct Interp<'a> {
    rp: &'a ResolvedProgram,
    /// Every statement, indexed by [`StmtId`].
    stmts: Vec<Option<&'a Stmt>>,
    global: Vec<Interval>,
    func_entry: Vec<Option<Env>>,
    returns: Vec<Interval>,
    /// Summary clock: advances on every change to a global invariant,
    /// function entry environment or return summary.
    clock: u64,
    /// The clock at each summary slot's last change. Slots are the
    /// global invariants by variable, then the function entries, then
    /// the function returns (see [`Interp::entry_slot`]).
    changed_at: Vec<u64>,
    bodies: Vec<BodyRun<'a>>,
    cur_func: Option<FuncId>,
    record: bool,
    env_before: Vec<Option<Env>>,
    env_after: Vec<Option<Env>>,
    accesses: Vec<Vec<ArrayAccess>>,
    conditions: Vec<Option<Interval>>,
}

/// One body's standing across summary rounds.
struct BodyRun<'a> {
    body: BodyId,
    cfg: &'a Cfg,
    /// The summary slots the body can read or write.
    slots: Vec<usize>,
    /// The clock when its last analysis started; `None` before the first.
    started: Option<u64>,
    /// The in-state of every CFG node its last analysis reached; `None`
    /// for a function with no entry environment yet.
    states: Option<Vec<Option<Env>>>,
}

/// What a predecessor last contributed to a node's join: the join of
/// its refined out-edges into the node (`None`: every edge infeasible),
/// valid while the predecessor's in-state is at `version` and the
/// summary clock still reads `clock`.
struct Contribution {
    version: u32,
    clock: u64,
    env: Option<Env>,
}

/// The iteration state of one body analysis.
struct BodyIter {
    state: Vec<Option<Env>>,
    /// Bumped whenever `state` of the node changes.
    version: Vec<u32>,
    /// `contribs[pred_start[n] + i]` caches the `i`-th predecessor's
    /// contribution to node `n`.
    pred_start: Vec<usize>,
    contribs: Vec<Option<Contribution>>,
}

impl<'a> Interp<'a> {
    fn new(rp: &'a ResolvedProgram, cfgs: &'a HashMap<BodyId, Cfg>) -> Interp<'a> {
        let nstmts = rp.program.stmt_count as usize;
        let mut stmts = vec![None; nstmts];
        for body in rp.bodies() {
            walk_stmts(rp.body_block(body), &mut |s| {
                if let Some(slot) = stmts.get_mut(s.id.index()) {
                    *slot = Some(s);
                }
            });
        }
        let global: Vec<Interval> = rp
            .vars
            .iter()
            .map(|v| {
                if v.is_chan {
                    Interval::TOP // channel handles flow in as opaque ids
                } else if v.size.is_some() {
                    Interval::singleton(0) // arrays are zero-initialized
                } else if v.is_shared() {
                    Interval::singleton(v.init.unwrap_or(0))
                } else {
                    Interval::BOT // local scalars are tracked per-env
                }
            })
            .collect();
        let nfuncs = rp.funcs.len();
        let bodies = rp
            .bodies()
            .into_iter()
            .filter_map(|body| {
                let cfg = cfgs.get(&body)?;
                let slots = body_slots(rp, body);
                Some(BodyRun { body, cfg, slots, started: None, states: None })
            })
            .collect();
        Interp {
            rp,
            stmts,
            changed_at: vec![0; global.len() + 2 * nfuncs],
            global,
            func_entry: vec![None; nfuncs],
            returns: vec![Interval::BOT; nfuncs],
            clock: 0,
            bodies,
            cur_func: None,
            record: false,
            env_before: vec![None; nstmts],
            env_after: vec![None; nstmts],
            accesses: vec![Vec::new(); nstmts],
            conditions: vec![None; nstmts],
        }
    }

    fn entry_slot(&self, f: FuncId) -> usize {
        self.global.len() + f.index()
    }

    fn return_slot(&self, f: FuncId) -> usize {
        self.global.len() + self.func_entry.len() + f.index()
    }

    /// Records that summary `slot` just changed.
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.changed_at[slot] = self.clock;
    }

    fn run(mut self) -> AbsInt {
        // Summary slots each change a bounded number of times once
        // widening engages, so this bound is never the limiter; it is a
        // defense against a (would-be) monotonicity bug looping forever.
        let max_rounds = 16 + 6 * (self.global.len() + 4 * self.rp.funcs.len());
        for round in 0..max_rounds {
            let round_start = self.clock;
            let snap_global = self.global.clone();
            let snap_entry = self.func_entry.clone();
            let snap_returns = self.returns.clone();
            for b in 0..self.bodies.len() {
                self.analyze_body(b);
            }
            // Within a round summaries only grow, so any change leaves
            // them different from the snapshot.
            let changed = self.clock != round_start;
            if round >= WIDEN_ROUND {
                self.widen_summaries(&snap_global, &snap_entry, &snap_returns);
            }
            if !changed {
                break;
            }
        }
        // Final pass with converged summaries, recording the per-stmt
        // solution the consumers read.
        for b in 0..self.bodies.len() {
            self.analyze_body(b);
            self.record_body(b);
        }
        AbsInt {
            env_before: self.env_before,
            env_after: self.env_after,
            global: self.global,
            accesses: self.accesses,
            conditions: self.conditions,
            returns: self.returns,
        }
    }

    /// Widens every summary against its value at the start of the round.
    fn widen_summaries(
        &mut self,
        global: &[Interval],
        entry: &[Option<Env>],
        returns: &[Interval],
    ) {
        for (i, old) in global.iter().enumerate() {
            let w = old.widen(self.global[i]);
            if w != self.global[i] {
                self.global[i] = w;
                self.touch(i);
            }
        }
        for (i, old) in returns.iter().enumerate() {
            let w = old.widen(self.returns[i]);
            if w != self.returns[i] {
                self.returns[i] = w;
                self.touch(self.return_slot(FuncId(i as u32)));
            }
        }
        for (i, old) in entry.iter().enumerate() {
            let (Some(env), Some(old_env)) = (self.func_entry[i].as_mut(), old.as_ref()) else {
                continue;
            };
            let mut changed = false;
            for (var, val) in env.0.iter_mut() {
                if let Some(o) = old_env.get(*var) {
                    let w = o.widen(*val);
                    changed |= w != *val;
                    *val = w;
                }
            }
            if changed {
                self.touch(self.entry_slot(FuncId(i as u32)));
            }
        }
    }

    /// Brings body `b`'s in-states up to date with the summaries,
    /// re-running its fixpoint only if one of its slots changed since
    /// its last analysis started: otherwise that analysis read exactly
    /// the current summaries, and a rerun would repeat it step for step.
    fn analyze_body(&mut self, b: usize) {
        let run = &self.bodies[b];
        let stale = run.started.is_none_or(|t| run.slots.iter().any(|&s| self.changed_at[s] > t));
        if !stale {
            return;
        }
        let (body, cfg) = (run.body, run.cfg);
        self.bodies[b].started = Some(self.clock);
        self.cur_func = func_of(body);
        let entry_env = match body {
            // A function never called (yet) has no entry environment;
            // analyzing it would poison its return summary with ⊤.
            BodyId::Func(f) => self.func_entry[f.index()].clone(),
            BodyId::Proc(_) => Some(Env::default()),
        };
        self.bodies[b].states = entry_env.map(|env| self.fixpoint(cfg, env));
    }

    /// Ascending iteration with loop-head widening, then bounded
    /// narrowing, over one body from `entry_env`.
    fn fixpoint(&mut self, cfg: &Cfg, entry_env: Env) -> Vec<Option<Env>> {
        let rpo = cfg.reverse_postorder();
        let mut rpo_pos = vec![usize::MAX; cfg.len()];
        for (i, &n) in rpo.iter().enumerate() {
            rpo_pos[n.index()] = i;
        }
        // A node is a loop head when a (reachable) predecessor sits at
        // or after it in RPO — the target of a back edge.
        let loop_head: Vec<bool> = (0..cfg.len())
            .map(|i| {
                rpo_pos[i] != usize::MAX
                    && cfg.preds(NodeId(i as u32)).any(|p| {
                        rpo_pos[p.index()] != usize::MAX && rpo_pos[p.index()] >= rpo_pos[i]
                    })
            })
            .collect();
        let mut pred_start = Vec::with_capacity(cfg.len() + 1);
        pred_start.push(0);
        for node in cfg.nodes() {
            pred_start.push(pred_start[pred_start.len() - 1] + node.preds.len());
        }
        let mut it = BodyIter {
            state: vec![None; cfg.len()],
            version: vec![0; cfg.len()],
            contribs: (0..pred_start[cfg.len()]).map(|_| None).collect(),
            pred_start,
        };
        it.state[cfg.entry().index()] = Some(entry_env);
        let mut visits = vec![0u32; cfg.len()];

        // Every CFG cycle passes through a loop head (structured source
        // ⇒ reducible CFG), so each slot stabilizes after finitely many
        // changes; the cap is defensive.
        for _ in 0..4 * cfg.len() + 16 {
            let mut changed = false;
            for &n in &rpo {
                if n == cfg.entry() {
                    continue;
                }
                let (current, live) = self.refresh_preds(cfg, &mut it, n);
                if !live {
                    continue; // no predecessor has executed (unreachable)
                }
                let head = loop_head[n.index()];
                if head {
                    visits[n.index()] += 1;
                }
                if current {
                    // The join equals the previous visit's, which the
                    // in-state already covers; widening it again leaves
                    // it unchanged. Only the visit above counts.
                    continue;
                }
                let mut new_in = it.join(cfg, n);
                if head && visits[n.index()] > WIDEN_AFTER {
                    if let Some(old) = &it.state[n.index()] {
                        new_in = env_widen(old, &new_in);
                    }
                }
                changed |= it.set(n, new_in);
            }
            if !changed {
                break;
            }
        }
        // Bounded narrowing: recompute in-states without widening,
        // letting type-bound endpoints recover refined loop bounds.
        for _ in 0..NARROW_PASSES {
            for &n in &rpo {
                if n == cfg.entry() {
                    continue;
                }
                let (_, live) = self.refresh_preds(cfg, &mut it, n);
                if !live {
                    continue;
                }
                let new_in = it.join(cfg, n);
                let new_in = match &it.state[n.index()] {
                    Some(old) if loop_head[n.index()] => env_narrow(old, &new_in),
                    _ => new_in,
                };
                it.set(n, new_in);
            }
        }
        it.state
    }

    /// Recomputes each stale predecessor contribution to `n`'s join.
    /// Returns whether every contribution was still current (so the
    /// join equals the previous one) and whether any edge into `n` is
    /// live (so the join is not ⊥).
    fn refresh_preds(&mut self, cfg: &Cfg, it: &mut BodyIter, n: NodeId) -> (bool, bool) {
        let (mut current, mut live) = (true, false);
        let base = it.pred_start[n.index()];
        for (i, p) in cfg.preds(n).enumerate() {
            let Some(pin) = &it.state[p.index()] else { continue };
            let version = it.version[p.index()];
            let cached = &mut it.contribs[base + i];
            if !matches!(cached, Some(c) if c.version == version && c.clock == self.clock) {
                current = false;
                // The clock is read before the transfer: a statement
                // that grows a summary it also reads (`h[j] = h[j] + 1`)
                // is stale again on its next visit, and reruns.
                let clock = self.clock;
                let env = self.contribution(cfg, p, n, pin);
                *cached = Some(Contribution { version, clock, env });
            }
            live |= cached.as_ref().is_some_and(|c| c.env.is_some());
        }
        (current, live)
    }

    /// `p`'s out-state, refined by the condition on each edge `p → n`
    /// and joined; `None` when every such edge is infeasible.
    fn contribution(&mut self, cfg: &Cfg, p: NodeId, n: NodeId, pin: &Env) -> Option<Env> {
        let node = cfg.node(p);
        let pout = match node.kind {
            CfgNodeKind::Stmt(s) => self.transfer(s, pin),
            _ => pin.clone(),
        };
        let mut acc: Option<Env> = None;
        for &(_, kind) in node.succs.iter().filter(|(t, _)| *t == n) {
            let edge_env = match (kind, node.kind) {
                (EdgeKind::True, CfgNodeKind::Stmt(s)) => self.refine_by_cond(&pout, s, true),
                (EdgeKind::False, CfgNodeKind::Stmt(s)) => self.refine_by_cond(&pout, s, false),
                _ => Some(pout.clone()),
            };
            let Some(edge_env) = edge_env else { continue }; // infeasible edge
            acc = Some(match acc {
                Some(a) => env_join(&a, &edge_env),
                None => edge_env,
            });
        }
        acc
    }

    /// Records the per-statement solution of body `b` from its final
    /// in-states.
    fn record_body(&mut self, b: usize) {
        let run = &mut self.bodies[b];
        let (body, cfg) = (run.body, run.cfg);
        let Some(mut states) = run.states.take() else { return };
        self.cur_func = func_of(body);
        self.record = true;
        for n in cfg.reverse_postorder() {
            let CfgNodeKind::Stmt(stmt) = cfg.node(n).kind else { continue };
            let Some(env) = states[n.index()].take() else { continue };
            self.env_after[stmt.index()] = Some(self.transfer(stmt, &env));
            self.env_before[stmt.index()] = Some(env);
        }
        self.record = false;
    }

    /// Applies the branch condition of statement `s` to `env` for the
    /// `truth`-edge; `None` when the edge is infeasible.
    fn refine_by_cond(&mut self, env: &Env, s: StmtId, truth: bool) -> Option<Env> {
        let cond = match self.stmts.get(s.index()).copied().flatten().map(|st| &st.kind) {
            Some(StmtKind::If { cond, .. } | StmtKind::While { cond, .. }) => Some(cond),
            Some(StmtKind::For { cond, .. }) => cond.as_ref(),
            _ => None,
        };
        match cond {
            Some(cond) => {
                // Infeasible edges are also visible without a refinable
                // variable: a constant condition kills the dead edge.
                let c = self.eval(env, cond, &mut Vec::new());
                match c.as_const() {
                    Some(v) if (v != 0) != truth => return None,
                    _ => {}
                }
                self.refine_cond(env.clone(), cond, truth)
            }
            None => {
                // `for (;;)`: the (absent) condition is always true.
                if truth {
                    Some(env.clone())
                } else {
                    None
                }
            }
        }
    }

    fn refine_cond(&mut self, mut env: Env, cond: &Expr, truth: bool) -> Option<Env> {
        match &cond.kind {
            ExprKind::Unary(ppd_lang::ast::UnOp::Not, inner) => {
                return self.refine_cond(env, inner, !truth)
            }
            ExprKind::Binary(BinOp::And, a, b) if truth => {
                return self.refine_cond(env, a, true).and_then(|e| self.refine_cond(e, b, true))
            }
            ExprKind::Binary(BinOp::Or, a, b) if !truth => {
                return self.refine_cond(env, a, false).and_then(|e| self.refine_cond(e, b, false))
            }
            ExprKind::Binary(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                l,
                r,
            ) => {
                let lv = self.eval(&env, l, &mut Vec::new());
                let rv = self.eval(&env, r, &mut Vec::new());
                if let Some(x) = self.refinable_var(l) {
                    let refined = lv.refine_cmp(*op, rv, truth);
                    if refined.is_bot() {
                        return None;
                    }
                    env.insert(x, refined);
                }
                if let Some(y) = self.refinable_var(r) {
                    let refined = rv.refine_cmp(flip_cmp(*op), lv, truth);
                    if refined.is_bot() {
                        return None;
                    }
                    env.insert(y, refined);
                }
            }
            ExprKind::Var(_) => {
                if let Some(x) = self.refinable_var(cond) {
                    let v = self.lookup(&env, x);
                    let refined = if truth {
                        v.refine_cmp(BinOp::Ne, Interval::singleton(0), true)
                    } else {
                        v.meet(Interval::singleton(0))
                    };
                    if refined.is_bot() {
                        return None;
                    }
                    env.insert(x, refined);
                }
            }
            _ => {}
        }
        Some(env)
    }

    /// The local scalar a condition operand names, if refinable.
    fn refinable_var(&self, e: &Expr) -> Option<VarId> {
        if !matches!(e.kind, ExprKind::Var(_)) {
            return None;
        }
        let var = *self.rp.expr_var.get(&e.id)?;
        let info = &self.rp.vars[var.index()];
        (!info.is_shared() && info.size.is_none() && !info.is_chan).then_some(var)
    }

    /// Abstract execution of one statement.
    fn transfer(&mut self, stmt: StmtId, env: &Env) -> Env {
        let mut out = env.clone();
        let Some(st) = self.stmts.get(stmt.index()).copied().flatten() else { return out };
        let mut acc = Vec::new();
        match &st.kind {
            StmtKind::Decl { init, size, .. } => {
                if size.is_none() {
                    let v = match init {
                        Some(e) => self.eval(env, e, &mut acc),
                        None => Interval::singleton(0), // implicit zero
                    };
                    if let Some(&var) = self.rp.decl_var.get(&st.id) {
                        set_env(&mut out, var, v);
                    }
                } else if let Some(e) = init {
                    self.eval(env, e, &mut acc);
                }
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval(env, value, &mut acc);
                self.store_lvalue(env, target, v, &mut out, &mut acc);
            }
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                let c = self.eval(env, cond, &mut acc);
                if self.record {
                    self.conditions[stmt.index()] = Some(c);
                }
            }
            StmtKind::For { cond, .. } => {
                if let Some(cond) = cond {
                    let c = self.eval(env, cond, &mut acc);
                    if self.record {
                        self.conditions[stmt.index()] = Some(c);
                    }
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(env, e, &mut acc);
                    if let Some(f) = self.cur_func {
                        let joined = self.returns[f.index()].join(v);
                        if joined != self.returns[f.index()] {
                            self.returns[f.index()] = joined;
                            self.touch(self.return_slot(f));
                        }
                    }
                }
            }
            StmtKind::ExprStmt(e) | StmtKind::Print(e) => {
                self.eval(env, e, &mut acc);
            }
            StmtKind::Assert(e) => {
                self.eval(env, e, &mut acc);
                // Execution continues only when the assertion held.
                if let Some(refined) = self.refine_cond(out.clone(), e, true) {
                    out = refined;
                }
            }
            StmtKind::Sync(sync) => match sync {
                SyncStmt::Send { value, .. }
                | SyncStmt::ASend { value, .. }
                | SyncStmt::Rendezvous { value, .. } => {
                    self.eval(env, value, &mut acc);
                }
                SyncStmt::Recv { into, .. } => {
                    self.store_lvalue(env, into, Interval::TOP, &mut out, &mut acc);
                }
                SyncStmt::Accept { .. } => {
                    if let Some(&var) = self.rp.decl_var.get(&st.id) {
                        set_env(&mut out, var, Interval::TOP);
                    }
                }
                SyncStmt::P(_) | SyncStmt::V(_) | SyncStmt::Lock(_) | SyncStmt::Unlock(_) => {}
            },
        }
        if self.record {
            self.accesses[stmt.index()] = acc;
        }
        out
    }

    fn store_lvalue(
        &mut self,
        env: &Env,
        lv: &LValue,
        val: Interval,
        out: &mut Env,
        acc: &mut Vec<ArrayAccess>,
    ) {
        let Some(&var) = self.rp.expr_var.get(&lv.id) else { return };
        if let Some(ix) = &lv.index {
            let i = self.eval(env, ix, acc);
            acc.push(ArrayAccess { array: var, index: i, is_write: true, span: lv.span });
            self.global_join(var, val);
        } else {
            let info = &self.rp.vars[var.index()];
            if info.is_shared() {
                self.global_join(var, val);
            } else if !info.is_chan {
                set_env(out, var, val);
            }
        }
    }

    fn global_join(&mut self, var: VarId, val: Interval) {
        let joined = self.global[var.index()].join(val);
        if joined != self.global[var.index()] {
            self.global[var.index()] = joined;
            self.touch(var.index());
        }
    }

    fn lookup(&self, env: &Env, var: VarId) -> Interval {
        let info = &self.rp.vars[var.index()];
        if info.is_chan {
            Interval::TOP
        } else if info.is_shared() {
            self.global[var.index()]
        } else {
            env.get(var).unwrap_or(Interval::TOP)
        }
    }

    fn eval(&mut self, env: &Env, e: &Expr, acc: &mut Vec<ArrayAccess>) -> Interval {
        match &e.kind {
            ExprKind::IntLit(v) => Interval::singleton(*v),
            ExprKind::BoolLit(b) => Interval::of_bool(*b),
            ExprKind::Var(_) => match self.rp.expr_var.get(&e.id) {
                Some(&var) => self.lookup(env, var),
                None => Interval::TOP, // a channel name used as a value
            },
            ExprKind::Index(_, ix) => {
                let i = self.eval(env, ix, acc);
                let Some(&var) = self.rp.expr_var.get(&e.id) else { return Interval::TOP };
                acc.push(ArrayAccess { array: var, index: i, is_write: false, span: e.span });
                if i.is_bot() {
                    Interval::BOT
                } else {
                    self.global[var.index()]
                }
            }
            ExprKind::Unary(op, inner) => self.eval(env, inner, acc).apply_unop(*op),
            ExprKind::Binary(op, l, r) => {
                let lv = self.eval(env, l, acc);
                // `&&`/`||` short-circuit at runtime; evaluating the
                // right operand unconditionally only *over*-records
                // may-accesses, which is the sound direction.
                let rv = self.eval(env, r, acc);
                Interval::apply_binop(*op, lv, rv)
            }
            ExprKind::Call(_, args) => {
                let arg_vals: Vec<Interval> = args.iter().map(|a| self.eval(env, a, acc)).collect();
                let Some(&f) = self.rp.call_target.get(&e.id) else { return Interval::TOP };
                let rp = self.rp;
                let mut changed = false;
                let entry = self.func_entry[f.index()].get_or_insert_with(|| {
                    changed = true;
                    Env::default()
                });
                for (&p, &v) in rp.funcs[f.index()].params.iter().zip(&arg_vals) {
                    let old = entry.get(p);
                    let joined = old.unwrap_or(Interval::BOT).join(v);
                    if old != Some(joined) {
                        entry.insert(p, joined);
                        changed = true;
                    }
                }
                if changed {
                    self.touch(self.entry_slot(f));
                }
                self.returns[f.index()]
            }
            ExprKind::Input => Interval::TOP,
        }
    }
}

impl BodyIter {
    /// Joins the (current) predecessor contributions to `n`; callers
    /// only ask when some edge into `n` is live.
    fn join(&self, cfg: &Cfg, n: NodeId) -> Env {
        let base = self.pred_start[n.index()];
        let mut acc: Option<Env> = None;
        for (i, p) in cfg.preds(n).enumerate() {
            if self.state[p.index()].is_none() {
                continue;
            }
            let Some(Contribution { env: Some(env), .. }) = &self.contribs[base + i] else {
                continue;
            };
            acc = Some(match acc {
                Some(a) => env_join(&a, env),
                None => env.clone(),
            });
        }
        acc.unwrap_or_default()
    }

    /// Stores `n`'s new in-state; returns whether it changed.
    fn set(&mut self, n: NodeId, env: Env) -> bool {
        let slot = &mut self.state[n.index()];
        if slot.as_ref() == Some(&env) {
            return false;
        }
        *slot = Some(env);
        self.version[n.index()] += 1;
        true
    }
}

/// The function whose body `body` is, if any.
fn func_of(body: BodyId) -> Option<FuncId> {
    match body {
        BodyId::Func(f) => Some(f),
        BodyId::Proc(_) => None,
    }
}

/// The summary slots body `body` can read or write: its own entry and
/// return (a function), its callees' entries and returns, and the
/// global invariants of the shared, array and channel variables it
/// names. Slot numbering follows [`Interp::entry_slot`].
fn body_slots(rp: &ResolvedProgram, body: BodyId) -> Vec<usize> {
    let (nvars, nfuncs) = (rp.vars.len(), rp.funcs.len());
    let mut slots = Vec::new();
    let func = |slots: &mut Vec<usize>, f: FuncId| {
        slots.push(nvars + f.index());
        slots.push(nvars + nfuncs + f.index());
    };
    if let BodyId::Func(f) = body {
        func(&mut slots, f);
    }
    let summarized = |id: ExprId| {
        let var = *rp.expr_var.get(&id)?;
        let info = &rp.vars[var.index()];
        (info.is_shared() || info.size.is_some() || info.is_chan).then_some(var.index())
    };
    walk_stmts(rp.body_block(body), &mut |s| {
        match &s.kind {
            StmtKind::Assign { target: lv, .. }
            | StmtKind::Sync(SyncStmt::Recv { into: lv, .. }) => {
                slots.extend(summarized(lv.id));
            }
            _ => {}
        }
        walk_stmt_exprs(s, &mut |e| match &e.kind {
            ExprKind::Var(_) | ExprKind::Index(..) => slots.extend(summarized(e.id)),
            ExprKind::Call(..) => {
                if let Some(&f) = rp.call_target.get(&e.id) {
                    func(&mut slots, f);
                }
            }
            _ => {}
        });
    });
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Binds `var` in `env`, normalizing ⊥ to "unbound" so environments
/// compare canonically.
fn set_env(env: &mut Env, var: VarId, val: Interval) {
    if val.is_bot() {
        env.remove(var);
    } else {
        env.insert(var, val);
    }
}

/// Merges two environments variable by variable: `both` combines a
/// variable bound on each side; one bound only in `a` keeps its value,
/// and one bound only in `b` keeps its value when `keep_b` is set.
fn env_merge(a: &Env, b: &Env, keep_b: bool, both: impl Fn(Interval, Interval) -> Interval) -> Env {
    let (a, b) = (&a.0, &b.0);
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let ((va, xa), (vb, xb)) = (a[i], b[j]);
        if va < vb {
            out.push((va, xa));
            i += 1;
        } else if vb < va {
            if keep_b {
                out.push((vb, xb));
            }
            j += 1;
        } else {
            out.push((va, both(xa, xb)));
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    if keep_b {
        out.extend_from_slice(&b[j..]);
    }
    Env(out)
}

/// Pointwise join; a variable missing on one side is ⊥ there.
fn env_join(a: &Env, b: &Env) -> Env {
    env_merge(a, b, true, Interval::join)
}

/// Pointwise widening of `old` against `old ⊔ new`.
fn env_widen(old: &Env, new: &Env) -> Env {
    env_merge(old, new, true, |o, v| o.widen(o.join(v)))
}

/// Pointwise narrowing of `old` by the recomputed `refined` state.
fn env_narrow(old: &Env, refined: &Env) -> Env {
    env_merge(old, refined, false, Interval::narrow)
}

/// `a op b` ⇔ `b flip(op) a`.
fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other, // Eq/Ne are symmetric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_lang::compile;

    fn analyze(src: &str) -> (ResolvedProgram, AbsInt) {
        let rp = compile(src).unwrap();
        let cfgs: HashMap<BodyId, Cfg> =
            rp.bodies().into_iter().map(|b| (b, Cfg::build(&rp, b).unwrap())).collect();
        let ai = AbsInt::compute(&rp, &cfgs);
        (rp, ai)
    }

    /// The statements of `body`, in source order.
    fn stmts_of(rp: &ResolvedProgram, body: &str) -> Vec<StmtId> {
        let b = rp.bodies().into_iter().find(|b| rp.body_name(*b) == body).unwrap();
        let mut out = Vec::new();
        walk_stmts(rp.body_block(b), &mut |s| out.push(s.id));
        out
    }

    fn local(rp: &ResolvedProgram, body: &str, name: &str) -> VarId {
        let b = rp.bodies().into_iter().find(|b| rp.body_name(*b) == body).unwrap();
        rp.var_by_name(b, name).unwrap()
    }

    #[test]
    fn constants_propagate() {
        let (rp, ai) = analyze("process M { int x = 2; int y = x * 3; print(y); }");
        let stmts = stmts_of(&rp, "M");
        let y = local(&rp, "M", "y");
        assert_eq!(ai.value_before(&rp, stmts[2], y), Interval::singleton(6));
    }

    #[test]
    fn loop_bounds_widen_and_refine() {
        let (rp, ai) = analyze(
            "shared int a[10]; \
             process M { int i; for (i = 0; i < 10; i = i + 1) { a[i] = i; } print(i); }",
        );
        let stmts = stmts_of(&rp, "M");
        // The assignment inside the loop sees i ∈ [0, 9] via the
        // true-edge refinement of `i < 10`.
        let store = stmts.iter().copied().find(|s| !ai.accesses(*s).is_empty()).unwrap();
        let a = ai.accesses(store);
        assert_eq!(a.len(), 1, "{a:?}");
        assert!(a[0].is_write);
        assert_eq!(a[0].index, Interval::new(0, 9));
        // After the loop, the false edge gives i = 10 exactly.
        let i = local(&rp, "M", "i");
        let print = *stmts.last().unwrap();
        assert_eq!(ai.value_before(&rp, print, i), Interval::singleton(10));
        // The element summary covers everything stored.
        let arr = rp.shared_vars().next().unwrap();
        assert!(Interval::new(0, 9).subset_of(ai.global_range(arr)));
    }

    #[test]
    fn received_values_are_top() {
        let (rp, ai) = analyze(
            "chan c; \
             process P { send(c, 42); } \
             process Q { int x; recv(c, x); print(x); }",
        );
        let stmts = stmts_of(&rp, "Q");
        let x = local(&rp, "Q", "x");
        let print = *stmts.last().unwrap();
        assert!(ai.value_before(&rp, print, x).is_top());
    }

    #[test]
    fn function_summaries_join_call_sites() {
        let (rp, ai) = analyze(
            "int f(int k) { return k + 1; } \
             process M { int a = f(1); int b = f(5); print(a + b); }",
        );
        let f = rp.func_by_name("f").unwrap();
        assert_eq!(ai.return_range(f), Interval::new(2, 6));
        let stmts = stmts_of(&rp, "M");
        let a = local(&rp, "M", "a");
        let print = *stmts.last().unwrap();
        assert_eq!(ai.value_before(&rp, print, a), Interval::new(2, 6));
    }

    #[test]
    fn shared_scalars_use_global_invariant() {
        let (rp, ai) = analyze(
            "shared int g = 5; \
             process A { g = 7; } \
             process B { print(g); }",
        );
        let g = rp.shared_vars().next().unwrap();
        // Init 5 joined with the store of 7.
        assert_eq!(ai.global_range(g), Interval::new(5, 7));
    }

    #[test]
    fn branch_refinement_feeds_accesses() {
        let (rp, ai) = analyze(
            "shared int a[4]; \
             process M { int i = input(); if (i >= 0 && i < 4) { a[i] = 1; } }",
        );
        let stmts = stmts_of(&rp, "M");
        let store = stmts.iter().copied().find(|s| !ai.accesses(*s).is_empty()).unwrap();
        assert_eq!(ai.accesses(store)[0].index, Interval::new(0, 3));
    }

    #[test]
    fn constant_conditions_are_detected() {
        let (rp, ai) =
            analyze("process M { int x = 1; if (x > 0) { print(1); } else { print(2); } }");
        let stmts = stmts_of(&rp, "M");
        let cond = stmts
            .iter()
            .copied()
            .find(|s| ai.condition(*s).is_some())
            .expect("if condition analyzed");
        assert_eq!(ai.condition(cond).unwrap().as_const(), Some(1));
        // The dead arm is unreachable in the solution.
        let dead = stmts.iter().copied().filter(|&s| !ai.reachable(s)).count();
        assert_eq!(dead, 1, "exactly the else-arm print is dead");
    }

    #[test]
    fn disjoint_regions_prune_candidates() {
        let (rp, ai) = analyze(
            "shared int a[10]; \
             process P { int i; for (i = 0; i < 5; i = i + 1) { a[i] = 1; } } \
             process Q { int j; for (j = 5; j < 10; j = j + 1) { a[j] = 2; } }",
        );
        let (mhp_cands, pruned, effects, mhp) = refine(&rp, &ai);
        let _ = (effects, mhp);
        let arr = rp.shared_vars().next().unwrap();
        let p = rp.proc_by_name("P").unwrap();
        let q = rp.proc_by_name("Q").unwrap();
        assert!(mhp_cands.allows(arr, p, q), "MHP alone cannot prune the array pair");
        assert!(!pruned.allows(arr, p, q), "absint prunes the disjoint halves");
        assert!(pruned.len() <= mhp_cands.len());
    }

    /// Builds the MHP candidate set and its absint refinement for `rp`.
    fn refine(
        rp: &ResolvedProgram,
        ai: &AbsInt,
    ) -> (RaceCandidates, RaceCandidates, ProgramEffects, MhpAnalysis) {
        let effects = ProgramEffects::compute(rp);
        let cg = crate::callgraph::CallGraph::build(rp, &effects);
        let mr = crate::interproc::ModRef::compute(rp, &effects, &cg);
        let mut cfgs: HashMap<BodyId, Cfg> = HashMap::new();
        let mut doms: HashMap<BodyId, crate::dom::DomTree> = HashMap::new();
        for b in rp.bodies() {
            let cfg = Cfg::build(rp, b).unwrap();
            doms.insert(b, crate::dom::DomTree::dominators(&cfg));
            cfgs.insert(b, cfg);
        }
        let mhp = MhpAnalysis::compute(rp, &cfgs, &doms, &cg);
        let base = RaceCandidates::from_modref(rp, &mr);
        let mhp_cands = mhp.refine_candidates(rp, &effects, &mr, &base);
        let pruned = ai.refine_candidates(rp, &effects, &mhp, &mhp_cands);
        (mhp_cands, pruned, effects, mhp)
    }

    #[test]
    fn overlapping_regions_survive() {
        let (rp, ai) = analyze(
            "shared int a[10]; \
             process P { int i; for (i = 0; i < 6; i = i + 1) { a[i] = 1; } } \
             process Q { int j; for (j = 5; j < 10; j = j + 1) { a[j] = 2; } }",
        );
        let (_, pruned, _, _) = refine(&rp, &ai);
        let arr = rp.shared_vars().next().unwrap();
        let p = rp.proc_by_name("P").unwrap();
        let q = rp.proc_by_name("Q").unwrap();
        assert!(pruned.allows(arr, p, q), "index 5 overlaps: the pair must survive");
    }
}
