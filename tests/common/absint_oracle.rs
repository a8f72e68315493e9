//! Slow reference interval interpreter: the same domain, transfer
//! functions, widening and narrowing as `ppd::analysis::AbsInt`, with
//! no work skipped. Every body is re-analyzed in every summary round,
//! every predecessor is re-transferred on every join, and environments
//! are plain hash maps. Written against public APIs only, so it shares
//! no fixpoint code with the product analysis; `absint_matches_reference`
//! asserts the two reach the identical solution.

use ppd::analysis::{ArrayAccess, Cfg, CfgNodeKind, EdgeKind, Interval, NodeId};
use ppd::lang::ast::{walk_stmts, BinOp, Expr, ExprKind, LValue, Stmt, StmtKind, SyncStmt, UnOp};
use ppd::lang::{BodyId, FuncId, ResolvedProgram, StmtId, VarId};
use std::collections::HashMap;

type Env = HashMap<VarId, Interval>;

const WIDEN_AFTER: u32 = 3;
const NARROW_PASSES: usize = 2;
const WIDEN_ROUND: usize = 3;

/// The reference solution, queried like `AbsInt`.
pub struct ReferenceAbsInt {
    env_before: HashMap<StmtId, Env>,
    env_after: HashMap<StmtId, Env>,
    global: Vec<Interval>,
    accesses: HashMap<StmtId, Vec<ArrayAccess>>,
    conditions: HashMap<StmtId, Interval>,
    returns: Vec<Interval>,
}

impl ReferenceAbsInt {
    /// Runs the reference interpreter over every body of `rp`.
    pub fn compute(rp: &ResolvedProgram) -> ReferenceAbsInt {
        let cfgs: HashMap<BodyId, Cfg> = rp
            .bodies()
            .into_iter()
            .map(|b| (b, Cfg::build(rp, b).expect("resolved programs lower")))
            .collect();
        Interp::new(rp, &cfgs).run()
    }

    pub fn value_before(&self, rp: &ResolvedProgram, stmt: StmtId, var: VarId) -> Interval {
        self.value_at(rp, &self.env_before, stmt, var)
    }

    pub fn value_after(&self, rp: &ResolvedProgram, stmt: StmtId, var: VarId) -> Interval {
        self.value_at(rp, &self.env_after, stmt, var)
    }

    fn value_at(
        &self,
        rp: &ResolvedProgram,
        envs: &HashMap<StmtId, Env>,
        stmt: StmtId,
        var: VarId,
    ) -> Interval {
        let info = &rp.vars[var.index()];
        if info.is_shared() || info.size.is_some() || info.is_chan {
            return self.global_range(var);
        }
        match envs.get(&stmt) {
            Some(env) => env.get(&var).copied().unwrap_or(Interval::TOP),
            None => Interval::TOP,
        }
    }

    pub fn global_range(&self, var: VarId) -> Interval {
        self.global.get(var.index()).copied().unwrap_or(Interval::TOP)
    }

    pub fn return_range(&self, func: FuncId) -> Interval {
        self.returns.get(func.index()).copied().unwrap_or(Interval::TOP)
    }

    pub fn accesses(&self, stmt: StmtId) -> &[ArrayAccess] {
        self.accesses.get(&stmt).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn condition(&self, stmt: StmtId) -> Option<Interval> {
        self.conditions.get(&stmt).copied()
    }

    pub fn reachable(&self, stmt: StmtId) -> bool {
        self.env_before.contains_key(&stmt)
    }
}

struct Interp<'a> {
    rp: &'a ResolvedProgram,
    cfgs: &'a HashMap<BodyId, Cfg>,
    stmts: HashMap<StmtId, &'a Stmt>,
    global: Vec<Interval>,
    func_entry: Vec<Option<Env>>,
    returns: Vec<Interval>,
    cur_func: Option<FuncId>,
    record: bool,
    env_before: HashMap<StmtId, Env>,
    env_after: HashMap<StmtId, Env>,
    accesses: HashMap<StmtId, Vec<ArrayAccess>>,
    conditions: HashMap<StmtId, Interval>,
}

impl<'a> Interp<'a> {
    fn new(rp: &'a ResolvedProgram, cfgs: &'a HashMap<BodyId, Cfg>) -> Interp<'a> {
        let mut stmts = HashMap::new();
        for body in rp.bodies() {
            walk_stmts(rp.body_block(body), &mut |s| {
                stmts.insert(s.id, s);
            });
        }
        let global = rp
            .vars
            .iter()
            .map(|v| {
                if v.is_chan {
                    Interval::TOP
                } else if v.size.is_some() {
                    Interval::singleton(0)
                } else if v.is_shared() {
                    Interval::singleton(v.init.unwrap_or(0))
                } else {
                    Interval::BOT
                }
            })
            .collect();
        Interp {
            rp,
            cfgs,
            stmts,
            global,
            func_entry: vec![None; rp.funcs.len()],
            returns: vec![Interval::BOT; rp.funcs.len()],
            cur_func: None,
            record: false,
            env_before: HashMap::new(),
            env_after: HashMap::new(),
            accesses: HashMap::new(),
            conditions: HashMap::new(),
        }
    }

    fn run(mut self) -> ReferenceAbsInt {
        let max_rounds = 16 + 6 * (self.global.len() + 4 * self.rp.funcs.len());
        for round in 0..max_rounds {
            let snap_global = self.global.clone();
            let snap_entry = self.func_entry.clone();
            let snap_returns = self.returns.clone();
            for body in self.rp.bodies() {
                self.analyze_body(body);
            }
            let changed = self.global != snap_global
                || self.func_entry != snap_entry
                || self.returns != snap_returns;
            if round >= WIDEN_ROUND {
                for (g, old) in self.global.iter_mut().zip(&snap_global) {
                    *g = old.widen(*g);
                }
                for (r, old) in self.returns.iter_mut().zip(&snap_returns) {
                    *r = old.widen(*r);
                }
                for (e, old) in self.func_entry.iter_mut().zip(&snap_entry) {
                    if let (Some(env), Some(old_env)) = (e.as_mut(), old.as_ref()) {
                        for (var, val) in env.iter_mut() {
                            if let Some(&o) = old_env.get(var) {
                                *val = o.widen(*val);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.record = true;
        for body in self.rp.bodies() {
            self.analyze_body(body);
        }
        ReferenceAbsInt {
            env_before: self.env_before,
            env_after: self.env_after,
            global: self.global,
            accesses: self.accesses,
            conditions: self.conditions,
            returns: self.returns,
        }
    }

    fn analyze_body(&mut self, body: BodyId) {
        let Some(cfg) = self.cfgs.get(&body) else { return };
        self.cur_func = match body {
            BodyId::Func(f) => Some(f),
            BodyId::Proc(_) => None,
        };
        let entry_env: Env = match body {
            BodyId::Func(f) => match &self.func_entry[f.index()] {
                Some(e) => e.clone(),
                None => return,
            },
            BodyId::Proc(_) => Env::new(),
        };
        let rpo = cfg.reverse_postorder();
        let mut rpo_pos = vec![usize::MAX; cfg.len()];
        for (i, &n) in rpo.iter().enumerate() {
            rpo_pos[n.index()] = i;
        }
        let loop_head: Vec<bool> = (0..cfg.len())
            .map(|i| {
                rpo_pos[i] != usize::MAX
                    && cfg.preds(NodeId(i as u32)).any(|p| {
                        rpo_pos[p.index()] != usize::MAX && rpo_pos[p.index()] >= rpo_pos[i]
                    })
            })
            .collect();

        let mut state: Vec<Option<Env>> = vec![None; cfg.len()];
        state[cfg.entry().index()] = Some(entry_env);
        let mut visits = vec![0u32; cfg.len()];

        for _ in 0..4 * cfg.len() + 16 {
            let mut changed = false;
            for &n in &rpo {
                if n == cfg.entry() {
                    continue;
                }
                let Some(mut new_in) = self.join_preds(cfg, &state, n) else { continue };
                if loop_head[n.index()] {
                    visits[n.index()] += 1;
                    if visits[n.index()] > WIDEN_AFTER {
                        if let Some(old) = &state[n.index()] {
                            new_in = env_widen(old, &new_in);
                        }
                    }
                }
                if state[n.index()].as_ref() != Some(&new_in) {
                    state[n.index()] = Some(new_in);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for _ in 0..NARROW_PASSES {
            for &n in &rpo {
                if n == cfg.entry() {
                    continue;
                }
                let Some(new_in) = self.join_preds(cfg, &state, n) else { continue };
                state[n.index()] = Some(if loop_head[n.index()] {
                    match &state[n.index()] {
                        Some(old) => env_narrow(old, &new_in),
                        None => new_in,
                    }
                } else {
                    new_in
                });
            }
        }
        if self.record {
            for &n in &rpo {
                let CfgNodeKind::Stmt(stmt) = cfg.node(n).kind else { continue };
                let Some(env) = state[n.index()].clone() else { continue };
                let out = self.transfer(stmt, &env);
                self.env_before.insert(stmt, env);
                self.env_after.insert(stmt, out);
            }
        }
    }

    fn join_preds(&mut self, cfg: &Cfg, state: &[Option<Env>], n: NodeId) -> Option<Env> {
        let mut acc: Option<Env> = None;
        let preds: Vec<NodeId> = cfg.preds(n).collect();
        for p in preds {
            let Some(pin) = state[p.index()].clone() else { continue };
            let pout = match cfg.node(p).kind {
                CfgNodeKind::Stmt(s) => self.transfer(s, &pin),
                _ => pin,
            };
            let kinds: Vec<EdgeKind> =
                cfg.node(p).succs.iter().filter(|(t, _)| *t == n).map(|(_, k)| *k).collect();
            for kind in kinds {
                let edge_env = match (kind, cfg.node(p).kind) {
                    (EdgeKind::True, CfgNodeKind::Stmt(s)) => self.refine_by_cond(&pout, s, true),
                    (EdgeKind::False, CfgNodeKind::Stmt(s)) => self.refine_by_cond(&pout, s, false),
                    _ => Some(pout.clone()),
                };
                let Some(edge_env) = edge_env else { continue };
                acc = Some(match acc {
                    Some(a) => env_join(&a, &edge_env),
                    None => edge_env,
                });
            }
        }
        acc
    }

    fn refine_by_cond(&mut self, env: &Env, s: StmtId, truth: bool) -> Option<Env> {
        let cond = match &self.stmts[&s].kind {
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => Some(cond),
            StmtKind::For { cond, .. } => cond.as_ref(),
            _ => None,
        };
        match cond {
            Some(cond) => {
                let c = self.eval(env, cond, &mut Vec::new());
                match c.as_const() {
                    Some(v) if (v != 0) != truth => return None,
                    _ => {}
                }
                self.refine_cond(env.clone(), cond, truth)
            }
            None => {
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
            ExprKind::Unary(UnOp::Not, inner) => return self.refine_cond(env, inner, !truth),
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

    fn refinable_var(&self, e: &Expr) -> Option<VarId> {
        if !matches!(e.kind, ExprKind::Var(_)) {
            return None;
        }
        let var = *self.rp.expr_var.get(&e.id)?;
        let info = &self.rp.vars[var.index()];
        (!info.is_shared() && info.size.is_none() && !info.is_chan).then_some(var)
    }

    fn transfer(&mut self, stmt: StmtId, env: &Env) -> Env {
        let st = self.stmts[&stmt];
        let mut out = env.clone();
        let mut acc = Vec::new();
        match &st.kind {
            StmtKind::Decl { init, size, .. } => {
                if size.is_none() {
                    let v = match init {
                        Some(e) => self.eval(env, e, &mut acc),
                        None => Interval::singleton(0),
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
                    self.conditions.insert(stmt, c);
                }
            }
            StmtKind::For { cond, .. } => {
                if let Some(cond) = cond {
                    let c = self.eval(env, cond, &mut acc);
                    if self.record {
                        self.conditions.insert(stmt, c);
                    }
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(env, e, &mut acc);
                    if let Some(f) = self.cur_func {
                        self.returns[f.index()] = self.returns[f.index()].join(v);
                    }
                }
            }
            StmtKind::ExprStmt(e) | StmtKind::Print(e) => {
                self.eval(env, e, &mut acc);
            }
            StmtKind::Assert(e) => {
                self.eval(env, e, &mut acc);
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
            self.accesses.insert(stmt, acc);
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
        let g = &mut self.global[var.index()];
        *g = g.join(val);
    }

    fn lookup(&self, env: &Env, var: VarId) -> Interval {
        let info = &self.rp.vars[var.index()];
        if info.is_chan {
            Interval::TOP
        } else if info.is_shared() {
            self.global[var.index()]
        } else {
            env.get(&var).copied().unwrap_or(Interval::TOP)
        }
    }

    fn eval(&mut self, env: &Env, e: &Expr, acc: &mut Vec<ArrayAccess>) -> Interval {
        match &e.kind {
            ExprKind::IntLit(v) => Interval::singleton(*v),
            ExprKind::BoolLit(b) => Interval::of_bool(*b),
            ExprKind::Var(_) => match self.rp.expr_var.get(&e.id) {
                Some(&var) => self.lookup(env, var),
                None => Interval::TOP,
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
                let rv = self.eval(env, r, acc);
                Interval::apply_binop(*op, lv, rv)
            }
            ExprKind::Call(_, args) => {
                let arg_vals: Vec<Interval> = args.iter().map(|a| self.eval(env, a, acc)).collect();
                let Some(&f) = self.rp.call_target.get(&e.id) else { return Interval::TOP };
                let params = self.rp.funcs[f.index()].params.clone();
                let entry = self.func_entry[f.index()].get_or_insert_with(Env::new);
                for (p, v) in params.iter().zip(&arg_vals) {
                    let joined = entry.get(p).copied().unwrap_or(Interval::BOT).join(*v);
                    entry.insert(*p, joined);
                }
                self.returns[f.index()]
            }
            ExprKind::Input => Interval::TOP,
        }
    }
}

fn set_env(env: &mut Env, var: VarId, val: Interval) {
    if val.is_bot() {
        env.remove(&var);
    } else {
        env.insert(var, val);
    }
}

fn env_join(a: &Env, b: &Env) -> Env {
    let mut out = a.clone();
    for (&var, &v) in b {
        let joined = out.get(&var).copied().unwrap_or(Interval::BOT).join(v);
        out.insert(var, joined);
    }
    out
}

fn env_widen(old: &Env, new: &Env) -> Env {
    let mut out = new.clone();
    for (&var, &v) in new {
        if let Some(&o) = old.get(&var) {
            out.insert(var, o.widen(o.join(v)));
        }
    }
    for (&var, &o) in old {
        out.entry(var).or_insert(o);
    }
    out
}

fn env_narrow(old: &Env, refined: &Env) -> Env {
    let mut out = old.clone();
    for (&var, &o) in old {
        if let Some(&r) = refined.get(&var) {
            out.insert(var, o.narrow(r));
        }
    }
    out
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}
