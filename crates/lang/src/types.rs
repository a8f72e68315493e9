//! Static type inference for ppd-lang (`ppd check`).
//!
//! Hindley–Milner-style unification over a deliberately small type
//! language: `int`, `bool`, arrays, and first-class typed channels.
//! There is no let-generalization — every variable, channel and function
//! signature is monomorphic. That restriction is load-bearing: a `chan`
//! parameter with exactly one payload type is what lets the typed
//! sync-group partitioning in `ppd-analysis` soundly split channel
//! traffic by payload class (a polymorphic parameter could deliver to
//! differently-typed channels from the same send site).
//!
//! The `int` keyword in declarations is the historical universal
//! declarator of the (previously dynamically-typed) language; a
//! declaration does not constrain the variable's type, which is inferred
//! from use. Integer literals are `int`, `true`/`false` are `bool`,
//! comparisons produce `bool`, arithmetic works on `int`, and
//! conditions/`assert`/`print`/logical operands accept any *scalar*
//! (`int` or `bool`) — matching the runtime's truthiness semantics so
//! the pre-existing corpus (`while (going)`, `if (1)`) stays well-typed.
//!
//! Message typing: each process mailbox, each rendezvous port and each
//! channel gets one payload type unified across all of its send/recv
//! sites. A bare `recv(lv)` inside a *function* body cannot be
//! attributed to a mailbox statically and is left unconstrained — a
//! documented precision loss, not an error.
//!
//! Errors carry precise spans and render through the same
//! [`crate::diag::SourceFile`] model as the parser diagnostics. All
//! errors are collected (inference continues past a failure), then
//! stable-sorted by `(span, code, message)` and deduplicated.

use crate::ast::*;
use crate::resolve::{BodyId, ChanRef, ProcId, ResolvedProgram, VarId};
use crate::span::Span;
use std::fmt;

/// A fully-zonked ppd-lang type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// 64-bit integer.
    Int,
    /// Boolean (`true`/`false`; represented as 1/0 at runtime).
    Bool,
    /// Array with the given element type.
    Array(Box<Ty>),
    /// Channel carrying payloads of the given type.
    Chan(Box<Ty>),
}

impl Ty {
    /// Whether this is a scalar (`int` or `bool`) — the types the
    /// runtime's truthiness and `print` accept.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Ty::Int | Ty::Bool)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => f.write_str("int"),
            Ty::Bool => f.write_str("bool"),
            Ty::Array(e) => write!(f, "{e}[]"),
            Ty::Chan(p) => write!(f, "chan<{p}>"),
        }
    }
}

/// What went wrong at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeErrorKind {
    /// TYP001: two sides of a constraint have incompatible types.
    Mismatch {
        /// Rendered expected type (may contain `?` for unsolved parts).
        expected: String,
        /// Rendered found type.
        found: String,
    },
    /// TYP002: the occurs check failed — the constraint only has an
    /// infinite solution (e.g. `send(q, q)`).
    InfiniteType {
        /// Rendered type the variable would have to contain itself in.
        ty: String,
    },
    /// TYP003: a condition / `assert` / `print` / logical operand is not
    /// a scalar.
    NotScalar {
        /// Rendered offending type.
        found: String,
        /// Which construct required a scalar.
        context: &'static str,
    },
}

/// One type error with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// What went wrong.
    pub kind: TypeErrorKind,
    /// Where.
    pub span: Span,
}

impl TypeError {
    /// Stable diagnostic code (`TYP001`..`TYP003`).
    pub fn code(&self) -> &'static str {
        match self.kind {
            TypeErrorKind::Mismatch { .. } => "TYP001",
            TypeErrorKind::InfiniteType { .. } => "TYP002",
            TypeErrorKind::NotScalar { .. } => "TYP003",
        }
    }

    /// Human-readable message (no location; the caller renders that).
    pub fn message(&self) -> String {
        match &self.kind {
            TypeErrorKind::Mismatch { expected, found } => {
                format!("type mismatch: expected `{expected}`, found `{found}`")
            }
            TypeErrorKind::InfiniteType { ty } => {
                format!("cannot construct the infinite type `{ty}`")
            }
            TypeErrorKind::NotScalar { found, context } => {
                format!("{context} must be a scalar (`int` or `bool`), found `{found}`")
            }
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} at {}", self.code(), self.message(), self.span)
    }
}

/// The `--explain` pages for the checker's stable diagnostic codes, in
/// code order. A test asserts every [`TypeErrorKind`] code has one.
const EXPLAIN_PAGES: &[(&str, &str)] = &[
    (
        "TYP001",
        "TYP001: type mismatch\n\
         \n\
         Two sides of an inference constraint have incompatible types —\n\
         an `int` where a `bool` is required, a scalar where an array is,\n\
         or two channel payloads that disagree. The checker unifies the\n\
         types it can see (paper-style Hindley-Milner over `int`, `bool`,\n\
         arrays and channel payloads); the reported location is where the\n\
         conflicting constraint arose. Unsolved parts render as `?`.\n\
         \n\
         Make both sides agree, or split the variable/channel into two\n\
         with distinct roles.",
    ),
    (
        "TYP002",
        "TYP002: infinite type\n\
         \n\
         The occurs check failed: the only solution to a constraint would\n\
         be a type containing itself (e.g. `send(q, q)` forces channel\n\
         `q` to carry its own payload type). No finite type satisfies\n\
         that, so inference stops here.\n\
         \n\
         Send a value, not the channel itself (or a different channel).",
    ),
    (
        "TYP003",
        "TYP003: scalar required\n\
         \n\
         A construct that consumes a single value — a condition, an\n\
         `assert`, a `print` argument, a logical operand — received a\n\
         non-scalar (an array or a channel). Index the array or receive\n\
         from the channel to obtain the scalar first.",
    ),
];

/// The `--explain` page for checker code `code`, if one exists.
pub fn explain(code: &str) -> Option<&'static str> {
    EXPLAIN_PAGES.iter().find(|(c, _)| *c == code).map(|(_, text)| *text)
}

/// Every checker code with an explain page, in code order.
pub fn explained_codes() -> Vec<&'static str> {
    EXPLAIN_PAGES.iter().map(|(c, _)| *c).collect()
}

/// The zonked result of a successful (or best-effort) inference run.
///
/// Unsolved type variables default to `int`, so every entry is concrete.
/// Downstream consumers must only *rely* on these when
/// [`TypeCheck::errors`] is empty.
#[derive(Debug, Clone)]
pub struct TypeInfo {
    /// Type of every variable, indexed by [`VarId`].
    pub var_ty: Vec<Ty>,
    /// Payload type of every top-level channel, indexed by `ChanId`.
    pub chan_payload: Vec<Ty>,
    /// Parameter types of every function, indexed by `FuncId`.
    pub func_params: Vec<Vec<Ty>>,
    /// Return type of every function (`int`-defaulted for `void`).
    pub func_ret: Vec<Ty>,
    /// Mailbox payload type of every process, indexed by [`ProcId`].
    pub mailbox: Vec<Ty>,
    /// Rendezvous payload type of every process, indexed by [`ProcId`].
    pub rendezvous: Vec<Ty>,
}

impl TypeInfo {
    /// The payload type a channel reference carries: the channel's own
    /// payload for a static reference, the parameter's `chan<T>` payload
    /// for a `chan` parameter.
    pub fn chan_ref_payload(&self, cref: ChanRef) -> Ty {
        match cref {
            ChanRef::Static(c) => self.chan_payload[c.index()].clone(),
            ChanRef::Var(v) => match &self.var_ty[v.index()] {
                Ty::Chan(p) => (**p).clone(),
                // A chan parameter always zonks to Chan(_); defensive.
                _ => Ty::Int,
            },
        }
    }

    /// Type of one variable.
    pub fn var(&self, v: VarId) -> &Ty {
        &self.var_ty[v.index()]
    }
}

/// Result of [`check`]: best-effort types plus all diagnosed errors.
#[derive(Debug, Clone)]
pub struct TypeCheck {
    /// Zonked types (only trustworthy when `errors` is empty).
    pub info: TypeInfo,
    /// All type errors, sorted by `(span, code, message)`, deduplicated.
    pub errors: Vec<TypeError>,
}

impl TypeCheck {
    /// Whether the program type-checked with no errors.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One write to a shared global, as seen by the PPD006 lint mode.
#[derive(Debug, Clone)]
pub struct SharedWrite {
    /// The written global.
    pub var: VarId,
    /// The body the write occurs in (function writes are attributed to
    /// processes by the lint pass via the call graph).
    pub body: BodyId,
    /// Type of the written value (element type for array stores).
    pub ty: Ty,
    /// Location of the write.
    pub span: Span,
}

/// Runs full inference over `rp`.
pub fn check(rp: &ResolvedProgram) -> TypeCheck {
    let mut ck = Checker::new(rp, false);
    ck.run();
    let errors = ck.finish_errors();
    let info = ck.zonk_info();
    TypeCheck { info, errors }
}

/// Runs inference in the PPD006 lint mode: every occurrence of a shared
/// global gets a fresh type variable, so cross-site conflicts do not
/// fail — instead, each write's locally-inferred type is reported. This
/// is what lets the "type-confused shared variable" lint fire even when
/// `ppd check` itself would reject the program.
pub fn shared_write_types(rp: &ResolvedProgram) -> Vec<SharedWrite> {
    let mut ck = Checker::new(rp, true);
    ck.run();
    ck.take_shared_writes()
}

// ---------------------------------------------------------------------
// Union-find type store
// ---------------------------------------------------------------------

/// Head constructor of a bound node; children are node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TyK {
    Int,
    Bool,
    Array(u32),
    Chan(u32),
}

#[derive(Debug, Clone, Copy)]
enum Node {
    Unbound,
    Bound(TyK),
    Link(u32),
}

struct Store {
    nodes: Vec<Node>,
}

impl Store {
    fn new() -> Self {
        Store { nodes: Vec::new() }
    }

    fn fresh(&mut self) -> u32 {
        self.nodes.push(Node::Unbound);
        (self.nodes.len() - 1) as u32
    }

    fn bound(&mut self, k: TyK) -> u32 {
        self.nodes.push(Node::Bound(k));
        (self.nodes.len() - 1) as u32
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while let Node::Link(next) = self.nodes[i as usize] {
            // Path compression: point directly at the grandparent.
            if let Node::Link(nn) = self.nodes[next as usize] {
                self.nodes[i as usize] = Node::Link(nn);
            }
            i = next;
        }
        i
    }

    /// Whether variable-root `var` occurs inside the term rooted at `t`.
    fn occurs(&mut self, var: u32, t: u32) -> bool {
        let rt = self.find(t);
        if rt == var {
            return true;
        }
        match self.nodes[rt as usize] {
            Node::Unbound | Node::Link(_) => false,
            Node::Bound(TyK::Int) | Node::Bound(TyK::Bool) => false,
            Node::Bound(TyK::Array(c)) | Node::Bound(TyK::Chan(c)) => self.occurs(var, c),
        }
    }

    /// Unifies two nodes. On failure returns the error kind with both
    /// sides rendered as of the current bindings.
    fn unify(&mut self, a: u32, b: u32) -> Result<(), TypeErrorKind> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        match (self.nodes[ra as usize], self.nodes[rb as usize]) {
            (Node::Unbound, _) => {
                if self.occurs(ra, rb) {
                    return Err(TypeErrorKind::InfiniteType { ty: self.render(rb) });
                }
                self.nodes[ra as usize] = Node::Link(rb);
                Ok(())
            }
            (_, Node::Unbound) => {
                if self.occurs(rb, ra) {
                    return Err(TypeErrorKind::InfiniteType { ty: self.render(ra) });
                }
                self.nodes[rb as usize] = Node::Link(ra);
                Ok(())
            }
            (Node::Bound(ka), Node::Bound(kb)) => match (ka, kb) {
                (TyK::Int, TyK::Int) | (TyK::Bool, TyK::Bool) => Ok(()),
                (TyK::Array(ca), TyK::Array(cb)) | (TyK::Chan(ca), TyK::Chan(cb)) => {
                    // Link the roots first so sibling unification sees
                    // them as equal (terminates on cyclic terms).
                    self.nodes[ra as usize] = Node::Link(rb);
                    self.unify(ca, cb)
                }
                _ => Err(TypeErrorKind::Mismatch {
                    expected: self.render(ra),
                    found: self.render(rb),
                }),
            },
            // find() never returns a Link root.
            _ => unreachable!("find returned a link node"),
        }
    }

    /// Renders a node with `?` for unsolved variables (error messages).
    fn render(&mut self, i: u32) -> String {
        self.render_depth(i, 0)
    }

    fn render_depth(&mut self, i: u32, depth: u32) -> String {
        if depth > 16 {
            return "...".into();
        }
        let r = self.find(i);
        match self.nodes[r as usize] {
            Node::Unbound => "?".into(),
            Node::Bound(TyK::Int) => "int".into(),
            Node::Bound(TyK::Bool) => "bool".into(),
            Node::Bound(TyK::Array(c)) => format!("{}[]", self.render_depth(c, depth + 1)),
            Node::Bound(TyK::Chan(c)) => format!("chan<{}>", self.render_depth(c, depth + 1)),
            Node::Link(_) => unreachable!("find returned a link node"),
        }
    }

    /// Zonks a node to a concrete [`Ty`], defaulting unsolved variables
    /// to `int`.
    fn zonk(&mut self, i: u32) -> Ty {
        self.zonk_depth(i, 0)
    }

    fn zonk_depth(&mut self, i: u32, depth: u32) -> Ty {
        if depth > 16 {
            // Only reachable on occurs-check-failed programs; pick a
            // harmless finite cutoff.
            return Ty::Int;
        }
        let r = self.find(i);
        match self.nodes[r as usize] {
            Node::Unbound => Ty::Int,
            Node::Bound(TyK::Int) => Ty::Int,
            Node::Bound(TyK::Bool) => Ty::Bool,
            Node::Bound(TyK::Array(c)) => Ty::Array(Box::new(self.zonk_depth(c, depth + 1))),
            Node::Bound(TyK::Chan(c)) => Ty::Chan(Box::new(self.zonk_depth(c, depth + 1))),
            Node::Link(_) => unreachable!("find returned a link node"),
        }
    }
}

// ---------------------------------------------------------------------
// The checker walk
// ---------------------------------------------------------------------

struct Checker<'a> {
    rp: &'a ResolvedProgram,
    st: Store,
    /// Shared `int` / `bool` constant nodes (never become links: unify
    /// always links the unbound side).
    int_node: u32,
    bool_node: u32,
    /// Node of each variable.
    var_tv: Vec<u32>,
    /// Payload node of each top-level channel.
    chan_tv: Vec<u32>,
    /// Mailbox payload node of each process.
    mbox_tv: Vec<u32>,
    /// Rendezvous payload node of each process.
    rdv_tv: Vec<u32>,
    /// Return node of each function.
    ret_tv: Vec<u32>,
    errors: Vec<TypeError>,
    /// Deferred scalar checks: (node, span, context).
    scalar_checks: Vec<(u32, Span, &'static str)>,
    /// PPD006 mode: shared-global occurrences get fresh variables.
    fresh_shared: bool,
    shared_writes: Vec<(VarId, BodyId, u32, Span)>,
    current_body: BodyId,
}

impl<'a> Checker<'a> {
    fn new(rp: &'a ResolvedProgram, fresh_shared: bool) -> Self {
        let mut st = Store::new();
        let int_node = st.bound(TyK::Int);
        let bool_node = st.bound(TyK::Bool);
        let var_tv: Vec<u32> = rp
            .vars
            .iter()
            .map(|v| {
                if v.is_chan {
                    let payload = st.fresh();
                    st.bound(TyK::Chan(payload))
                } else if v.size.is_some() {
                    let elem = st.fresh();
                    st.bound(TyK::Array(elem))
                } else {
                    st.fresh()
                }
            })
            .collect();
        // A scalar initializer (`shared int g = 5;`) is an integer
        // literal, so it pins the global to `int`.
        for (i, v) in rp.vars.iter().enumerate() {
            if v.init.is_some() && v.size.is_none() {
                let _ = st.unify(var_tv[i], int_node);
            }
        }
        let chan_tv = (0..rp.chans.len()).map(|_| st.fresh()).collect();
        let mbox_tv = (0..rp.procs.len()).map(|_| st.fresh()).collect();
        let rdv_tv = (0..rp.procs.len()).map(|_| st.fresh()).collect();
        let ret_tv = (0..rp.funcs.len()).map(|_| st.fresh()).collect();
        Checker {
            rp,
            st,
            int_node,
            bool_node,
            var_tv,
            chan_tv,
            mbox_tv,
            rdv_tv,
            ret_tv,
            errors: Vec::new(),
            scalar_checks: Vec::new(),
            fresh_shared,
            shared_writes: Vec::new(),
            current_body: BodyId::Proc(ProcId(0)),
        }
    }

    fn run(&mut self) {
        for body in self.rp.bodies() {
            self.current_body = body;
            let block = self.rp.body_block(body);
            // Clone keeps the borrow checker happy; blocks are small.
            let stmts: Vec<Stmt> = block.stmts.clone();
            for s in &stmts {
                self.stmt(s);
            }
        }
    }

    fn finish_errors(&mut self) -> Vec<TypeError> {
        // Deferred scalar checks run after all constraints are solved,
        // so `while (going)` sees `going`'s final type.
        let checks = std::mem::take(&mut self.scalar_checks);
        for (node, span, context) in checks {
            let ty = self.st.zonk(node);
            if !ty.is_scalar() {
                self.errors.push(TypeError {
                    kind: TypeErrorKind::NotScalar { found: ty.to_string(), context },
                    span,
                });
            }
        }
        let mut errors = std::mem::take(&mut self.errors);
        errors.sort_by(|a, b| {
            (a.span.start, a.span.end, a.code(), a.message()).cmp(&(
                b.span.start,
                b.span.end,
                b.code(),
                b.message(),
            ))
        });
        errors.dedup();
        errors
    }

    fn zonk_info(&mut self) -> TypeInfo {
        let var_ty: Vec<Ty> = self.var_tv.iter().map(|&n| self.st.zonk(n)).collect();
        let chan_payload = self.chan_tv.iter().map(|&n| self.st.zonk(n)).collect();
        let func_params = self
            .rp
            .funcs
            .iter()
            .map(|f| f.params.iter().map(|p| var_ty[p.index()].clone()).collect())
            .collect();
        let func_ret = self.ret_tv.iter().map(|&n| self.st.zonk(n)).collect();
        let mailbox = self.mbox_tv.iter().map(|&n| self.st.zonk(n)).collect();
        let rendezvous = self.rdv_tv.iter().map(|&n| self.st.zonk(n)).collect();
        TypeInfo { var_ty, chan_payload, func_params, func_ret, mailbox, rendezvous }
    }

    fn take_shared_writes(&mut self) -> Vec<SharedWrite> {
        let writes = std::mem::take(&mut self.shared_writes);
        writes
            .into_iter()
            .map(|(var, body, node, span)| SharedWrite { var, body, ty: self.st.zonk(node), span })
            .collect()
    }

    /// Unifies `expected` with `found`, reporting a mismatch at `span`.
    fn unify(&mut self, expected: u32, found: u32, span: Span) {
        if let Err(kind) = self.st.unify(expected, found) {
            self.errors.push(TypeError { kind, span });
        }
    }

    fn scalar(&mut self, node: u32, span: Span, context: &'static str) {
        self.scalar_checks.push((node, span, context));
    }

    /// Node of one occurrence of `v` (fresh for shared globals in the
    /// PPD006 mode).
    fn var_node(&mut self, v: VarId) -> u32 {
        if self.fresh_shared && self.rp.is_shared(v) {
            if self.rp.vars[v.index()].size.is_some() {
                let elem = self.st.fresh();
                self.st.bound(TyK::Array(elem))
            } else {
                self.st.fresh()
            }
        } else {
            self.var_tv[v.index()]
        }
    }

    /// The element node of an array variable occurrence.
    fn elem_node(&mut self, v: VarId, span: Span) -> u32 {
        let base = self.var_node(v);
        let elem = self.st.fresh();
        let want = self.st.bound(TyK::Array(elem));
        self.unify(base, want, span);
        elem
    }

    /// The payload node of a channel reference.
    fn payload_node(&mut self, cref: ChanRef, span: Span) -> u32 {
        match cref {
            ChanRef::Static(c) => self.chan_tv[c.index()],
            ChanRef::Var(v) => {
                let base = self.var_tv[v.index()];
                let payload = self.st.fresh();
                let want = self.st.bound(TyK::Chan(payload));
                self.unify(base, want, span);
                payload
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Decl { init, .. } => {
                let Some(&v) = self.rp.decl_var.get(&stmt.id) else { return };
                if let Some(e) = init {
                    let et = self.expr(e);
                    let vt = self.var_tv[v.index()];
                    self.unify(vt, et, e.span);
                }
            }
            StmtKind::Assign { target, value } => {
                let vt = self.expr(value);
                let tt = self.lvalue(target);
                self.unify(tt, vt, value.span);
                self.record_write(target, tt);
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                let ct = self.expr(cond);
                self.scalar(ct, cond.span, "condition");
                for s in &then_blk.stmts.clone() {
                    self.stmt(s);
                }
                if let Some(e) = else_blk {
                    for s in &e.stmts.clone() {
                        self.stmt(s);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let ct = self.expr(cond);
                self.scalar(ct, cond.span, "condition");
                for s in &body.stmts.clone() {
                    self.stmt(s);
                }
            }
            StmtKind::For { init, cond, step, body } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    let ct = self.expr(c);
                    self.scalar(ct, c.span, "condition");
                }
                if let Some(s) = step {
                    self.stmt(s);
                }
                for s in &body.stmts.clone() {
                    self.stmt(s);
                }
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    let et = self.expr(e);
                    if let BodyId::Func(f) = self.current_body {
                        let rt = self.ret_tv[f.index()];
                        self.unify(rt, et, e.span);
                    }
                }
            }
            StmtKind::ExprStmt(e) => {
                let _ = self.expr(e);
            }
            StmtKind::Print(e) => {
                let et = self.expr(e);
                self.scalar(et, e.span, "`print` argument");
            }
            StmtKind::Assert(e) => {
                let et = self.expr(e);
                self.scalar(et, e.span, "`assert` argument");
            }
            StmtKind::Sync(sync) => self.sync(stmt, sync),
        }
    }

    fn sync(&mut self, stmt: &Stmt, sync: &SyncStmt) {
        match sync {
            SyncStmt::P(_) | SyncStmt::V(_) | SyncStmt::Lock(_) | SyncStmt::Unlock(_) => {}
            SyncStmt::Send { value, .. } | SyncStmt::ASend { value, .. } => {
                let vt = self.expr(value);
                if let Some(&p) = self.rp.msg_target.get(&stmt.id) {
                    let mb = self.mbox_tv[p.index()];
                    self.unify(mb, vt, value.span);
                } else if let Some(&cref) = self.rp.send_chan.get(&stmt.id) {
                    let payload = self.payload_node(cref, stmt.span);
                    self.unify(payload, vt, value.span);
                }
            }
            SyncStmt::Recv { from, into } => {
                let tt = self.lvalue(into);
                if from.is_some() {
                    if let Some(&cref) = self.rp.recv_chan.get(&stmt.id) {
                        let payload = self.payload_node(cref, stmt.span);
                        self.unify(payload, tt, into.span);
                    }
                } else if let BodyId::Proc(p) = self.current_body {
                    let mb = self.mbox_tv[p.index()];
                    self.unify(mb, tt, into.span);
                }
                // A bare `recv` in a function body is unconstrained: the
                // receiving mailbox depends on the calling process.
                self.record_write(into, tt);
            }
            SyncStmt::Rendezvous { value, .. } => {
                let vt = self.expr(value);
                if let Some(&p) = self.rp.msg_target.get(&stmt.id) {
                    let rv = self.rdv_tv[p.index()];
                    self.unify(rv, vt, value.span);
                }
            }
            SyncStmt::Accept { body, .. } => {
                if let Some(&v) = self.rp.decl_var.get(&stmt.id) {
                    if let BodyId::Proc(p) = self.current_body {
                        let rv = self.rdv_tv[p.index()];
                        let vt = self.var_tv[v.index()];
                        self.unify(vt, rv, stmt.span);
                    }
                }
                for s in &body.stmts.clone() {
                    self.stmt(s);
                }
            }
        }
    }

    /// Node of an assignable location (element node for array stores).
    fn lvalue(&mut self, lv: &LValue) -> u32 {
        let Some(&v) = self.rp.expr_var.get(&lv.id) else {
            return self.st.fresh();
        };
        if let Some(ix) = &lv.index {
            let it = self.expr(ix);
            self.unify(self.int_node, it, ix.span);
            self.elem_node(v, lv.span)
        } else {
            self.var_node(v)
        }
    }

    /// Records a shared-global write for the PPD006 mode.
    fn record_write(&mut self, lv: &LValue, node: u32) {
        if !self.fresh_shared {
            return;
        }
        let Some(&v) = self.rp.expr_var.get(&lv.id) else { return };
        if self.rp.is_shared(v) {
            self.shared_writes.push((v, self.current_body, node, lv.span));
        }
    }

    fn expr(&mut self, e: &Expr) -> u32 {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::Input => self.int_node,
            ExprKind::BoolLit(_) => self.bool_node,
            ExprKind::Var(_) => {
                if let Some(&c) = self.rp.expr_chan.get(&e.id) {
                    let payload = self.chan_tv[c.index()];
                    return self.st.bound(TyK::Chan(payload));
                }
                match self.rp.expr_var.get(&e.id) {
                    Some(&v) => self.var_node(v),
                    None => self.st.fresh(),
                }
            }
            ExprKind::Index(_, ix) => {
                let it = self.expr(ix);
                self.unify(self.int_node, it, ix.span);
                match self.rp.expr_var.get(&e.id) {
                    Some(&v) => self.elem_node(v, e.span),
                    None => self.st.fresh(),
                }
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                let it = self.expr(inner);
                self.unify(self.int_node, it, inner.span);
                self.int_node
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let it = self.expr(inner);
                self.scalar(it, inner.span, "operand of `!`");
                self.bool_node
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.expr(l);
                let rt = self.expr(r);
                use BinOp::*;
                match op {
                    Add | Sub | Mul | Div | Rem => {
                        self.unify(self.int_node, lt, l.span);
                        self.unify(self.int_node, rt, r.span);
                        self.int_node
                    }
                    Eq | Ne => {
                        self.unify(lt, rt, e.span);
                        self.bool_node
                    }
                    Lt | Le | Gt | Ge => {
                        self.unify(self.int_node, lt, l.span);
                        self.unify(self.int_node, rt, r.span);
                        self.bool_node
                    }
                    And | Or => {
                        self.scalar(lt, l.span, "logical operand");
                        self.scalar(rt, r.span, "logical operand");
                        self.bool_node
                    }
                }
            }
            ExprKind::Call(_, args) => {
                let Some(&f) = self.rp.call_target.get(&e.id) else {
                    for a in args {
                        let _ = self.expr(a);
                    }
                    return self.st.fresh();
                };
                let params = self.rp.funcs[f.index()].params.clone();
                for (a, p) in args.iter().zip(params.iter()) {
                    let at = self.expr(a);
                    let pt = self.var_tv[p.index()];
                    self.unify(pt, at, a.span);
                }
                self.ret_tv[f.index()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn check_src(src: &str) -> TypeCheck {
        check(&compile(src).unwrap())
    }

    fn codes(tc: &TypeCheck) -> Vec<&'static str> {
        tc.errors.iter().map(|e| e.code()).collect()
    }

    #[test]
    fn legacy_corpus_idioms_stay_well_typed() {
        let tc = check_src(
            "shared int going = 1; shared int total; shared int a[4];\
             sem m = 1;\
             int add(int x, int y) { return x + y; }\
             process P { int i = 0; while (going) { if (i >= 3) { going = 0; } \
                 p(m); total = add(total, a[i]); v(m); i = i + 1; } \
                 assert(total >= 0); print(total); }",
        );
        assert!(tc.is_ok(), "{:?}", tc.errors);
        let rp = compile("shared int g = 1; process P { g = 2; }").unwrap();
        let tc = check(&rp);
        assert_eq!(tc.info.var_ty[0], Ty::Int);
    }

    #[test]
    fn channels_infer_payload_types() {
        let tc = check_src(
            "chan data; chan done;\
             void produce(chan q, int n) { send(q, n); }\
             process P { produce(data, 3); send(done, true); }\
             process Q { int x; recv(data, x); int f = 0; }",
        );
        assert!(tc.is_ok(), "{:?}", tc.errors);
        assert_eq!(tc.info.chan_payload[0], Ty::Int);
        assert_eq!(tc.info.chan_payload[1], Ty::Bool);
        // The chan param of `produce` zonks to chan<int>.
        assert_eq!(tc.info.func_params[0][0], Ty::Chan(Box::new(Ty::Int)));
    }

    #[test]
    fn mismatched_channel_payload_is_typ001() {
        let tc = check_src(
            "chan c; process P { send(c, 1); } process Q { send(c, true); } \
             process R { int x; recv(c, x); }",
        );
        assert_eq!(codes(&tc), vec!["TYP001"]);
    }

    #[test]
    fn infinite_type_is_typ002() {
        let tc = check_src("chan c; void f(chan q) { send(q, q); } process P { f(c); }");
        assert!(codes(&tc).contains(&"TYP002"), "{:?}", tc.errors);
    }

    #[test]
    fn non_scalar_condition_is_typ003() {
        let tc = check_src("chan c; void f(chan q) { if (q) { } } process P { f(c); }");
        assert_eq!(codes(&tc), vec!["TYP003"]);
    }

    #[test]
    fn bool_int_mismatch_in_arith() {
        let tc = check_src("process P { int x = true + 1; }");
        assert_eq!(codes(&tc), vec!["TYP001"]);
    }

    #[test]
    fn every_checker_code_has_an_explain_page() {
        let kinds = [
            TypeErrorKind::Mismatch { expected: "int".into(), found: "bool".into() },
            TypeErrorKind::InfiniteType { ty: "chan<?0>".into() },
            TypeErrorKind::NotScalar { found: "int[]".into(), context: "condition" },
        ];
        let mut codes = Vec::new();
        for kind in kinds {
            let e = TypeError { kind, span: Span::DUMMY };
            let page = explain(e.code());
            assert!(page.is_some(), "{} has no explain page", e.code());
            assert!(page.unwrap().starts_with(e.code()), "page must open with its code");
            codes.push(e.code());
        }
        assert_eq!(explained_codes(), codes, "no orphan explain pages");
        assert!(explain("TYP999").is_none());
    }

    #[test]
    fn mailbox_types_unify_across_processes() {
        let tc = check_src("process P { send(Q, true); } process Q { int m; recv(m); m = 3; }");
        assert_eq!(codes(&tc), vec!["TYP001"]);
        let tc = check_src("process P { send(Q, 7); } process Q { int m; recv(m); m = 3; }");
        assert!(tc.is_ok(), "{:?}", tc.errors);
        assert_eq!(tc.info.mailbox[1], Ty::Int);
    }

    #[test]
    fn rendezvous_types_unify() {
        let tc =
            check_src("process S { accept (x) { x = x + 1; } } process C { rendezvous(S, true); }");
        assert_eq!(codes(&tc), vec!["TYP001"]);
        let tc =
            check_src("process S { accept (x) { print(x); } } process C { rendezvous(S, 4); }");
        assert!(tc.is_ok(), "{:?}", tc.errors);
    }

    #[test]
    fn errors_sorted_and_deduped() {
        let tc = check_src("process P { int a = true + 1; int b = true + 1; int c = false * 2; }");
        assert!(tc.errors.len() >= 2);
        let spans: Vec<_> = tc.errors.iter().map(|e| e.span.start).collect();
        let mut sorted = spans.clone();
        sorted.sort_unstable();
        assert_eq!(spans, sorted);
        let mut d = tc.errors.clone();
        d.dedup();
        assert_eq!(d.len(), tc.errors.len());
    }

    #[test]
    fn shared_write_types_reports_conflicting_writes() {
        let src = "shared int g; process A { g = 1; } process B { g = true; }";
        // Full check flags the conflict as an error...
        let rp = compile(src).unwrap();
        assert!(!check(&rp).is_ok());
        // ...while the lint mode reports both writes with their local types.
        let writes = shared_write_types(&rp);
        assert_eq!(writes.len(), 2);
        let tys: Vec<&Ty> = writes.iter().map(|w| &w.ty).collect();
        assert!(tys.contains(&&Ty::Int) && tys.contains(&&Ty::Bool), "{writes:?}");
    }

    #[test]
    fn array_elements_unify() {
        let tc = check_src("shared int a[4]; process P { a[0] = true; int x = a[1] + 1; }");
        assert_eq!(codes(&tc), vec!["TYP001"]);
        let tc = check_src("shared int a[4]; process P { a[0] = 2; int x = a[1] + 1; }");
        assert!(tc.is_ok());
        assert_eq!(tc.info.var_ty[0], Ty::Array(Box::new(Ty::Int)));
    }
}
