//! Abstract syntax tree for the PPD source language.
//!
//! Every statement and expression carries a unique id ([`StmtId`],
//! [`ExprId`]) assigned by the parser. The ids are dense, so analyses can
//! use them to index side tables — the CFG, USED/DEFINED sets, the program
//! database and the dynamic-graph builder are all keyed this way.

use crate::span::Span;
use crate::symbol::{Interner, Symbol};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense id of a statement within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StmtId(pub u32);

/// Dense id of an expression (or l-value) within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl StmtId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ExprId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An identifier occurrence: interned name plus where it appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ident {
    /// The interned name.
    pub sym: Symbol,
    /// Source location of this occurrence.
    pub span: Span,
}

/// A whole translation unit.
#[derive(Debug, Clone)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Interner for all identifiers in the program.
    pub interner: Interner,
    /// Number of statements (all `StmtId`s are `< stmt_count`).
    pub stmt_count: u32,
    /// Number of expressions (all `ExprId`s are `< expr_count`).
    pub expr_count: u32,
    /// The original source text (used by the program database and
    /// diagnostics).
    pub source: String,
}

impl Program {
    /// Resolves an interned symbol to its text.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Iterates over all function declarations.
    pub fn funcs(&self) -> impl Iterator<Item = &FuncDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// Iterates over all process declarations.
    pub fn processes(&self) -> impl Iterator<Item = &ProcessDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Process(p) => Some(p),
            _ => None,
        })
    }

    /// Iterates over all shared-variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &GlobalDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Global(g) => Some(g),
            _ => None,
        })
    }

    /// Iterates over all semaphore/lock declarations.
    pub fn sems(&self) -> impl Iterator<Item = &SemDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Sem(s) => Some(s),
            _ => None,
        })
    }

    /// Iterates over all channel declarations.
    pub fn chans(&self) -> impl Iterator<Item = &ChanDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Chan(c) => Some(c),
            _ => None,
        })
    }

    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncDecl> {
        let sym = self.interner.get(name)?;
        self.funcs().find(|f| f.name.sym == sym)
    }

    /// Finds a process by name.
    pub fn process(&self, name: &str) -> Option<&ProcessDecl> {
        let sym = self.interner.get(name)?;
        self.processes().find(|p| p.name.sym == sym)
    }
}

/// A top-level item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `shared int x;` / `shared int a[10];`
    Global(GlobalDecl),
    /// `sem s = 1;` or `lockvar m;`
    Sem(SemDecl),
    /// `chan c;` — a typed message channel (payload type inferred).
    Chan(ChanDecl),
    /// `int f(int a, int b) { ... }` or `void g() { ... }`
    Func(FuncDecl),
    /// `process P { ... }`
    Process(ProcessDecl),
}

/// A shared global variable. All globals are shared between processes —
/// the paper's SMMP model (§1).
#[derive(Debug, Clone)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: Ident,
    /// `Some(n)` if this is an array of `n` elements.
    pub size: Option<usize>,
    /// Optional scalar initializer (arrays are zero-initialized).
    pub init: Option<i64>,
    /// Declaration site.
    pub span: Span,
}

/// Whether a [`SemDecl`] is a counting semaphore or a mutex-style lock.
///
/// Both order events the same way; the distinction is kept because the
/// paper treats "the monitor and the locking operation" as analogous but
/// separate synchronization operations (§6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemKind {
    /// Counting semaphore operated on by `p`/`v`.
    Semaphore,
    /// Mutex operated on by `lock`/`unlock`.
    Lock,
}

/// A semaphore or lock declaration.
#[derive(Debug, Clone)]
pub struct SemDecl {
    /// Name of the semaphore/lock.
    pub name: Ident,
    /// Initial count (1 for locks).
    pub init: i64,
    /// Semaphore or lock.
    pub kind: SemKind,
    /// Declaration site.
    pub span: Span,
}

/// A channel declaration. Channels are top-level, like semaphores; the
/// payload type is not written in the source — `ppd check` infers it
/// from the send/recv sites (unification, see `types`).
#[derive(Debug, Clone)]
pub struct ChanDecl {
    /// Channel name (usable as a `send`/`recv` endpoint and as an
    /// argument to a `chan` parameter).
    pub name: Ident,
    /// Declaration site.
    pub span: Span,
}

/// A function parameter: `int x` or `chan q`.
#[derive(Debug, Clone, Copy)]
pub struct Param {
    /// Parameter name.
    pub name: Ident,
    /// Whether the parameter is a channel (`chan q`) rather than `int`.
    pub is_chan: bool,
}

/// A function (the paper's "subroutine" — the natural e-block unit, §5.4).
#[derive(Debug, Clone)]
pub struct FuncDecl {
    /// Function name.
    pub name: Ident,
    /// Parameters (`int` scalars or `chan` channel references).
    pub params: Vec<Param>,
    /// Whether the function returns a value (`int` vs `void`).
    pub returns_value: bool,
    /// Body.
    pub body: Block,
    /// Declaration site.
    pub span: Span,
}

/// A process declaration; all declared processes run concurrently from
/// program start on the simulated SMMP.
#[derive(Debug, Clone)]
pub struct ProcessDecl {
    /// Process name (also the address for `send`).
    pub name: Ident,
    /// Body.
    pub body: Block,
    /// Declaration site.
    pub span: Span,
}

/// A `{ ... }` sequence of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// A statement with id and location.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Unique id.
    pub id: StmtId,
    /// What the statement does.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement forms.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `int x;`, `int x = e;`, `int a[n];`
    Decl {
        /// Declared name.
        name: Ident,
        /// `Some(n)` for arrays.
        size: Option<usize>,
        /// Optional initializer (scalars only).
        init: Option<Expr>,
    },
    /// `lv = e;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// `if (c) { .. } else { .. }`
    If {
        /// Condition (a control predicate in the dynamic graph).
        cond: Expr,
        /// Taken when the condition is non-zero.
        then_blk: Block,
        /// Taken otherwise, if present.
        else_blk: Option<Block>,
    },
    /// `while (c) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for (init; cond; step) { .. }`
    For {
        /// Optional initializer statement.
        init: Option<Box<Stmt>>,
        /// Optional condition (absent means `true`).
        cond: Option<Expr>,
        /// Optional step statement.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
    },
    /// `return;` / `return e;`
    Return(Option<Expr>),
    /// An expression evaluated for effect (a call statement).
    ExprStmt(Expr),
    /// A synchronization operation (§6.2).
    Sync(SyncStmt),
    /// `print(e);` — program output.
    Print(Expr),
    /// `assert(e);` — failing makes the program halt with an error, the
    /// paper's "externally visible symptom" that starts a debugging
    /// session (§1).
    Assert(Expr),
}

/// Synchronization statements, each of which becomes a synchronization
/// node in the parallel dynamic graph.
#[derive(Debug, Clone)]
pub enum SyncStmt {
    /// `p(s);` — semaphore wait.
    P(Ident),
    /// `v(s);` — semaphore signal.
    V(Ident),
    /// `lock(m);`
    Lock(Ident),
    /// `unlock(m);`
    Unlock(Ident),
    /// `send(Proc, e);` / `send(c, e);` — blocking send (§6.2.2): the
    /// sender waits until the receiver has taken the message. The
    /// destination is a process mailbox or a typed channel; the resolver
    /// decides which.
    Send {
        /// Destination process or channel.
        to: Ident,
        /// Message payload.
        value: Expr,
    },
    /// `asend(Proc, e);` / `asend(c, e);` — non-blocking send.
    ASend {
        /// Destination process or channel.
        to: Ident,
        /// Message payload.
        value: Expr,
    },
    /// `recv(lv);` — blocking receive from the process mailbox, or
    /// `recv(c, lv);` — blocking receive from channel `c`.
    Recv {
        /// The channel received from, or `None` for the legacy
        /// process-mailbox form.
        from: Option<Ident>,
        /// Where the payload is stored.
        into: LValue,
    },
    /// `rendezvous(Proc, e);` — Ada-style rendezvous call (§6.2.3): the
    /// caller is suspended until the callee's `accept` block completes.
    Rendezvous {
        /// Callee process.
        callee: Ident,
        /// Call argument.
        value: Expr,
    },
    /// `accept (x) { ... }` — accept a pending rendezvous, binding the
    /// argument to `x`, running the block, then releasing the caller.
    Accept {
        /// Binder for the rendezvous argument.
        param: Ident,
        /// The rendezvous body.
        body: Block,
        /// Id of the synthesized parameter-binding l-value.
        param_expr: ExprId,
    },
}

/// An assignable location: a scalar variable or an array element.
#[derive(Debug, Clone)]
pub struct LValue {
    /// Id in the expression id space (l-values are reference occurrences).
    pub id: ExprId,
    /// Base variable.
    pub name: Ident,
    /// `Some(e)` for `name[e]`.
    pub index: Option<Box<Expr>>,
    /// Source location.
    pub span: Span,
}

/// An expression with id and location.
#[derive(Debug, Clone)]
pub struct Expr {
    /// Unique id.
    pub id: ExprId,
    /// Expression form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression forms.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Boolean literal (`true` / `false`). Statically `bool`; at runtime
    /// booleans are represented as the integers 1 / 0.
    BoolLit(bool),
    /// Scalar variable read.
    Var(Ident),
    /// Array element read `a[e]`.
    Index(Ident, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call `f(e, ...)`.
    Call(Ident, Vec<Expr>),
    /// `input()` — reads the next value from the program's input stream.
    /// This is the "same input as originally fed" of §5.1: inputs are
    /// logged so e-block replay can reproduce them.
    Input,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e` (non-zero ↦ 0, zero ↦ 1).
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (traps on division by zero — a runtime failure)
    Div,
    /// `%` (traps on zero modulus)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuiting)
    And,
    /// `||` (short-circuiting)
    Or,
}

impl BinOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            And => "&&",
            Or => "||",
        }
    }
}

impl UnOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Walks every statement in a block in source order, recursing into
/// nested blocks, calling `f` on each.
pub fn walk_stmts<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        walk_stmt(stmt, f);
    }
}

/// Walks `stmt` and all statements nested inside it.
pub fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If { then_blk, else_blk, .. } => {
            walk_stmts(then_blk, f);
            if let Some(e) = else_blk {
                walk_stmts(e, f);
            }
        }
        StmtKind::While { body, .. } => walk_stmts(body, f),
        StmtKind::For { init, step, body, .. } => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            if let Some(s) = step {
                walk_stmt(s, f);
            }
            walk_stmts(body, f);
        }
        StmtKind::Sync(SyncStmt::Accept { body, .. }) => walk_stmts(body, f),
        _ => {}
    }
}

/// Walks every expression reachable from `stmt` (not recursing into
/// nested statements), calling `f` on each expression node.
pub fn walk_stmt_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        StmtKind::Assign { target, value } => {
            if let Some(ix) = &target.index {
                walk_expr(ix, f);
            }
            walk_expr(value, f);
        }
        StmtKind::If { cond, .. } => walk_expr(cond, f),
        StmtKind::While { cond, .. } => walk_expr(cond, f),
        StmtKind::For { cond, .. } => {
            if let Some(c) = cond {
                walk_expr(c, f);
            }
        }
        StmtKind::Return(Some(e))
        | StmtKind::ExprStmt(e)
        | StmtKind::Print(e)
        | StmtKind::Assert(e) => walk_expr(e, f),
        StmtKind::Return(None) => {}
        StmtKind::Sync(sync) => match sync {
            SyncStmt::Send { value, .. }
            | SyncStmt::ASend { value, .. }
            | SyncStmt::Rendezvous { value, .. } => walk_expr(value, f),
            SyncStmt::Recv { into, .. } => {
                if let Some(ix) = &into.index {
                    walk_expr(ix, f);
                }
            }
            _ => {}
        },
    }
}

/// Walks `expr` and all sub-expressions, post-order.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    match &expr.kind {
        ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::Var(_) | ExprKind::Input => {}
        ExprKind::Index(_, e) | ExprKind::Unary(_, e) => walk_expr(e, f),
        ExprKind::Binary(_, l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                walk_expr(a, f);
            }
        }
    }
    f(expr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(StmtId(3).to_string(), "s3");
        assert_eq!(ExprId(9).to_string(), "e9");
    }

    #[test]
    fn op_symbols_round_trip() {
        for op in [BinOp::Add, BinOp::Le, BinOp::And, BinOp::Rem] {
            assert!(!op.symbol().is_empty());
        }
        assert_eq!(UnOp::Neg.to_string(), "-");
        assert_eq!(BinOp::Ne.to_string(), "!=");
    }
}
