//! Name resolution and static validation.
//!
//! Turns a parsed [`Program`] into a [`ResolvedProgram`]: every variable
//! occurrence is bound to a dense [`VarId`], every call to a [`FuncId`],
//! every message target to a [`ProcId`] and every semaphore operation to a
//! [`SemId`]. The resulting tables are the substrate for the paper's
//! semantic analyses (§5.1): USED/DEFINED sets, the static program
//! dependence graph and the program database are all computed over
//! `VarId`s.
//!
//! Shared (global) variables get the lowest ids, so "the set of shared
//! variables" is simply `VarId < shared_count` — convenient for the
//! synchronization-unit logging of §5.5 and for READ/WRITE race sets
//! (Definition 6.2).

use crate::ast::*;
use crate::error::{LangError, LangErrorKind};
use crate::span::Span;
use crate::symbol::Symbol;
use crate::table::IdTable;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Dense id of a variable (shared globals first, then locals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Dense id of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Dense id of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcId(pub u32);

/// Dense id of a semaphore or lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SemId(pub u32);

/// Dense id of a top-level channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChanId(pub u32);

impl VarId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl FuncId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl ProcId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl SemId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl ChanId {
    /// Index form for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "var#{}", self.0)
    }
}
impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}
impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}
impl fmt::Display for SemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sem#{}", self.0)
    }
}
impl fmt::Display for ChanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan#{}", self.0)
    }
}

/// A reference to a channel at a send/recv site: either a top-level
/// channel named directly, or a `chan` parameter whose value names the
/// channel at run time (channel values are their dense ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChanRef {
    /// A top-level `chan` declaration named directly.
    Static(ChanId),
    /// A `chan` parameter; the channel id flows in as the value.
    Var(VarId),
}

/// The executable body a local variable belongs to: a function or a
/// process. Functions and processes are the units the analyses build CFGs
/// for, so they share this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BodyId {
    /// A function body.
    Func(FuncId),
    /// A process body.
    Proc(ProcId),
}

impl fmt::Display for BodyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyId::Func(id) => write!(f, "{id}"),
            BodyId::Proc(id) => write!(f, "{id}"),
        }
    }
}

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarScope {
    /// A shared global, visible to all processes.
    Shared,
    /// A local of one function/process body (parameters included).
    Local(BodyId),
}

/// Everything known about one variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Variable name.
    pub name: Symbol,
    /// Shared or local, and to which body.
    pub scope: VarScope,
    /// `Some(n)` for arrays.
    pub size: Option<usize>,
    /// Scalar initializer for shared globals.
    pub init: Option<i64>,
    /// Declaration site.
    pub decl_span: Span,
    /// Whether this is a function parameter (`%n` display, §4.2).
    pub param_index: Option<usize>,
    /// Whether this is a `chan` parameter (holds a channel id).
    pub is_chan: bool,
}

impl VarInfo {
    /// Whether this variable is shared between processes.
    pub fn is_shared(&self) -> bool {
        matches!(self.scope, VarScope::Shared)
    }
}

/// Everything known about one function.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Function name.
    pub name: Symbol,
    /// Parameter variables in order.
    pub params: Vec<VarId>,
    /// Whether it returns a value.
    pub returns_value: bool,
    /// Index of the `Item::Func` in `program.items`.
    pub item_index: usize,
}

/// Everything known about one process.
#[derive(Debug, Clone)]
pub struct ProcInfo {
    /// Process name.
    pub name: Symbol,
    /// Index of the `Item::Process` in `program.items`.
    pub item_index: usize,
}

/// Everything known about one semaphore or lock.
#[derive(Debug, Clone)]
pub struct SemInfo {
    /// Name.
    pub name: Symbol,
    /// Initial count.
    pub init: i64,
    /// Semaphore or lock.
    pub kind: SemKind,
}

/// Everything known about one top-level channel.
#[derive(Debug, Clone)]
pub struct ChanInfo {
    /// Name.
    pub name: Symbol,
    /// Declaration site.
    pub decl_span: Span,
}

/// A parsed program plus all name-binding tables.
#[derive(Debug, Clone)]
pub struct ResolvedProgram {
    /// The underlying AST.
    pub program: Program,
    /// All variables; shared globals occupy ids `0..shared_count`.
    pub vars: Vec<VarInfo>,
    /// Number of shared variables (prefix of `vars`).
    pub shared_count: u32,
    /// All functions.
    pub funcs: Vec<FuncInfo>,
    /// All processes.
    pub procs: Vec<ProcInfo>,
    /// All semaphores and locks.
    pub sems: Vec<SemInfo>,
    /// All top-level channels.
    pub chans: Vec<ChanInfo>,
    /// Variable binding for each `Var`/`Index` expression and `LValue`.
    pub expr_var: IdTable<ExprId, VarId>,
    /// Channel binding for each `Var` expression naming a top-level
    /// channel (channel values passed as `chan` arguments).
    pub expr_chan: IdTable<ExprId, ChanId>,
    /// Channel destination of each `send`/`asend` that targets a channel
    /// rather than a process.
    pub send_chan: IdTable<StmtId, ChanRef>,
    /// Channel source of each two-argument `recv(c, lv)`.
    pub recv_chan: IdTable<StmtId, ChanRef>,
    /// Variable introduced by each `Decl` statement (and `accept` binders,
    /// keyed by the accept's `param_expr`).
    pub decl_var: IdTable<StmtId, VarId>,
    /// Callee of each `Call` expression.
    pub call_target: IdTable<ExprId, FuncId>,
    /// Destination process of each `send`/`asend`/`rendezvous`.
    pub msg_target: IdTable<StmtId, ProcId>,
    /// Semaphore of each `p`/`v`/`lock`/`unlock`.
    pub sem_ref: IdTable<StmtId, SemId>,
    /// The variables local to each process (indexed by `ProcId`) and
    /// function (by `FuncId`); see [`ResolvedProgram::body_locals`].
    proc_locals: Vec<Range<usize>>,
    func_locals: Vec<Range<usize>>,
}

impl ResolvedProgram {
    /// Total number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Whether `var` is shared.
    pub fn is_shared(&self, var: VarId) -> bool {
        var.0 < self.shared_count
    }

    /// Name text of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        self.program.interner.resolve(self.vars[var.index()].name)
    }

    /// Name text of a function.
    pub fn func_name(&self, func: FuncId) -> &str {
        self.program.interner.resolve(self.funcs[func.index()].name)
    }

    /// Name text of a process.
    pub fn proc_name(&self, proc: ProcId) -> &str {
        self.program.interner.resolve(self.procs[proc.index()].name)
    }

    /// Name text of a semaphore.
    pub fn sem_name(&self, sem: SemId) -> &str {
        self.program.interner.resolve(self.sems[sem.index()].name)
    }

    /// Name text of a channel.
    pub fn chan_name(&self, chan: ChanId) -> &str {
        self.program.interner.resolve(self.chans[chan.index()].name)
    }

    /// Looks up a channel by name.
    pub fn chan_by_name(&self, name: &str) -> Option<ChanId> {
        let sym = self.program.interner.get(name)?;
        self.chans.iter().position(|c| c.name == sym).map(|i| ChanId(i as u32))
    }

    /// The AST of a function.
    pub fn func_decl(&self, func: FuncId) -> &FuncDecl {
        match &self.program.items[self.funcs[func.index()].item_index] {
            Item::Func(f) => f,
            _ => unreachable!("FuncInfo.item_index points at a non-function"),
        }
    }

    /// The AST of a process.
    pub fn proc_decl(&self, proc: ProcId) -> &ProcessDecl {
        match &self.program.items[self.procs[proc.index()].item_index] {
            Item::Process(p) => p,
            _ => unreachable!("ProcInfo.item_index points at a non-process"),
        }
    }

    /// The body block of a function or process.
    pub fn body_block(&self, body: BodyId) -> &Block {
        match body {
            BodyId::Func(f) => &self.func_decl(f).body,
            BodyId::Proc(p) => &self.proc_decl(p).body,
        }
    }

    /// Display name of a body.
    pub fn body_name(&self, body: BodyId) -> &str {
        match body {
            BodyId::Func(f) => self.func_name(f),
            BodyId::Proc(p) => self.proc_name(p),
        }
    }

    /// All body ids: processes then functions.
    pub fn bodies(&self) -> Vec<BodyId> {
        let mut out: Vec<BodyId> =
            (0..self.procs.len()).map(|i| BodyId::Proc(ProcId(i as u32))).collect();
        out.extend((0..self.funcs.len()).map(|i| BodyId::Func(FuncId(i as u32))));
        out
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        let sym = self.program.interner.get(name)?;
        self.funcs.iter().position(|f| f.name == sym).map(|i| FuncId(i as u32))
    }

    /// Looks up a process by name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcId> {
        let sym = self.program.interner.get(name)?;
        self.procs.iter().position(|p| p.name == sym).map(|i| ProcId(i as u32))
    }

    /// Looks up a variable visible in `body` by name, checking locals
    /// first then shared globals — the lookup a debugger's UI would do.
    pub fn var_by_name(&self, body: BodyId, name: &str) -> Option<VarId> {
        let sym = self.program.interner.get(name)?;
        let local = self
            .vars
            .iter()
            .enumerate()
            .rev()
            .find(|(_, v)| v.name == sym && v.scope == VarScope::Local(body));
        if let Some((i, _)) = local {
            return Some(VarId(i as u32));
        }
        self.vars[..self.shared_count as usize]
            .iter()
            .position(|v| v.name == sym)
            .map(|i| VarId(i as u32))
    }

    /// All shared variable ids.
    pub fn shared_vars(&self) -> impl Iterator<Item = VarId> {
        (0..self.shared_count).map(VarId)
    }

    /// The ids of the variables local to `body`, parameters first: the
    /// resolver numbers a body's locals contiguously, so a frame can
    /// keep them in slots indexed from `start`.
    pub fn body_locals(&self, body: BodyId) -> Range<usize> {
        match body {
            BodyId::Func(f) => self.func_locals[f.index()].clone(),
            BodyId::Proc(p) => self.proc_locals[p.index()].clone(),
        }
    }
}

/// Resolves and validates a parsed program.
///
/// # Errors
///
/// Returns the first binding or validation error: undeclared or
/// redeclared names, arity mismatches, kind mismatches (calling a
/// variable, indexing a scalar, `p()` on a lock, sending to a function,
/// ...), and return-type mismatches.
pub fn resolve(program: Program) -> Result<ResolvedProgram, LangError> {
    Resolver::new(program).run()
}

/// Parses and resolves in one step.
///
/// # Errors
///
/// Propagates parse and resolution errors.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ppd_lang::LangError> {
/// let rp = ppd_lang::compile("shared int x; process Main { x = 1; }")?;
/// assert_eq!(rp.shared_count, 1);
/// # Ok(())
/// # }
/// ```
pub fn compile(src: &str) -> Result<ResolvedProgram, LangError> {
    resolve(crate::parser::parse(src)?)
}

struct Resolver {
    out: ResolvedProgram,
    /// Stack of lexical scopes inside the current body.
    scopes: Vec<HashMap<Symbol, VarId>>,
    /// Map from name to function id.
    func_ids: HashMap<Symbol, FuncId>,
    /// Map from name to process id.
    proc_ids: HashMap<Symbol, ProcId>,
    /// Map from name to semaphore id.
    sem_ids: HashMap<Symbol, SemId>,
    /// Map from name to channel id.
    chan_ids: HashMap<Symbol, ChanId>,
    /// Map from name to shared-global id.
    global_ids: HashMap<Symbol, VarId>,
}

impl Resolver {
    fn new(program: Program) -> Self {
        Resolver {
            out: ResolvedProgram {
                program,
                vars: Vec::new(),
                shared_count: 0,
                funcs: Vec::new(),
                procs: Vec::new(),
                sems: Vec::new(),
                chans: Vec::new(),
                expr_var: IdTable::new(),
                expr_chan: IdTable::new(),
                send_chan: IdTable::new(),
                recv_chan: IdTable::new(),
                decl_var: IdTable::new(),
                call_target: IdTable::new(),
                msg_target: IdTable::new(),
                sem_ref: IdTable::new(),
                proc_locals: Vec::new(),
                func_locals: Vec::new(),
            },
            scopes: Vec::new(),
            func_ids: HashMap::new(),
            proc_ids: HashMap::new(),
            sem_ids: HashMap::new(),
            chan_ids: HashMap::new(),
            global_ids: HashMap::new(),
        }
    }

    fn run(mut self) -> Result<ResolvedProgram, LangError> {
        // Pass 2 resolves bodies while consulting `self.out.program.items`
        // (e.g. for call arity), so iterate over a clone of the item list.
        let items = self.out.program.items.clone();

        // Pass 1: collect top-level names.
        for (index, item) in items.iter().enumerate() {
            match item {
                Item::Global(g) => {
                    let id = VarId(self.out.vars.len() as u32);
                    self.declare_unique_top(g.name, "variable")?;
                    self.global_ids.insert(g.name.sym, id);
                    self.out.vars.push(VarInfo {
                        name: g.name.sym,
                        scope: VarScope::Shared,
                        size: g.size,
                        init: g.init,
                        decl_span: g.span,
                        param_index: None,
                        is_chan: false,
                    });
                }
                Item::Sem(s) => {
                    let id = SemId(self.out.sems.len() as u32);
                    self.declare_unique_top(s.name, "semaphore")?;
                    self.sem_ids.insert(s.name.sym, id);
                    self.out.sems.push(SemInfo { name: s.name.sym, init: s.init, kind: s.kind });
                }
                Item::Chan(c) => {
                    let id = ChanId(self.out.chans.len() as u32);
                    self.declare_unique_top(c.name, "channel")?;
                    self.chan_ids.insert(c.name.sym, id);
                    self.out.chans.push(ChanInfo { name: c.name.sym, decl_span: c.span });
                }
                Item::Func(f) => {
                    let id = FuncId(self.out.funcs.len() as u32);
                    self.declare_unique_top(f.name, "function")?;
                    self.func_ids.insert(f.name.sym, id);
                    self.out.funcs.push(FuncInfo {
                        name: f.name.sym,
                        params: Vec::new(), // filled in pass 2
                        returns_value: f.returns_value,
                        item_index: index,
                    });
                }
                Item::Process(p) => {
                    let id = ProcId(self.out.procs.len() as u32);
                    self.declare_unique_top(p.name, "process")?;
                    self.proc_ids.insert(p.name.sym, id);
                    self.out.procs.push(ProcInfo { name: p.name.sym, item_index: index });
                }
            }
        }
        self.out.shared_count = self.out.vars.len() as u32;
        self.out.func_locals = vec![0..0; self.out.funcs.len()];
        self.out.proc_locals = vec![0..0; self.out.procs.len()];

        if self.out.procs.is_empty() {
            return Err(LangError::new(
                LangErrorKind::Invalid("a program must declare at least one process".into()),
                Span::DUMMY,
            ));
        }

        // Pass 2: resolve bodies.
        for (index, item) in items.iter().enumerate() {
            match item {
                Item::Func(f) => {
                    let fid = self.func_ids.get(&f.name.sym).copied().expect("collected in pass 1");
                    self.scopes.clear();
                    self.scopes.push(HashMap::new());
                    let body = BodyId::Func(fid);
                    let first = self.out.vars.len();
                    let mut params = Vec::with_capacity(f.params.len());
                    for (pi, param) in f.params.iter().enumerate() {
                        let vid = self.declare_local(
                            param.name,
                            None,
                            body,
                            Some(pi + 1),
                            param.is_chan,
                        )?;
                        params.push(vid);
                    }
                    self.out.funcs[fid.index()].params = params;
                    self.resolve_block(&f.body, body, f.returns_value)?;
                    self.out.func_locals[fid.index()] = first..self.out.vars.len();
                    let _ = index;
                }
                Item::Process(p) => {
                    let pid = self.proc_ids.get(&p.name.sym).copied().expect("collected in pass 1");
                    self.scopes.clear();
                    self.scopes.push(HashMap::new());
                    let first = self.out.vars.len();
                    self.resolve_block(&p.body, BodyId::Proc(pid), false)?;
                    self.out.proc_locals[pid.index()] = first..self.out.vars.len();
                }
                _ => {}
            }
        }

        Ok(self.out)
    }

    fn declare_unique_top(&mut self, name: Ident, _what: &str) -> Result<(), LangError> {
        let taken = self.global_ids.contains_key(&name.sym)
            || self.sem_ids.contains_key(&name.sym)
            || self.chan_ids.contains_key(&name.sym)
            || self.func_ids.contains_key(&name.sym)
            || self.proc_ids.contains_key(&name.sym);
        if taken {
            let text = self.out.program.interner.resolve(name.sym).to_owned();
            return Err(LangError::new(LangErrorKind::Redeclared(text), name.span));
        }
        Ok(())
    }

    fn declare_local(
        &mut self,
        name: Ident,
        size: Option<usize>,
        body: BodyId,
        param_index: Option<usize>,
        is_chan: bool,
    ) -> Result<VarId, LangError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(&name.sym) {
            let text = self.out.program.interner.resolve(name.sym).to_owned();
            return Err(LangError::new(LangErrorKind::Redeclared(text), name.span));
        }
        let id = VarId(self.out.vars.len() as u32);
        self.out.vars.push(VarInfo {
            name: name.sym,
            scope: VarScope::Local(body),
            size,
            init: None,
            decl_span: name.span,
            param_index,
            is_chan,
        });
        scope.insert(name.sym, id);
        Ok(id)
    }

    fn scope_lookup(&self, sym: Symbol) -> Option<VarId> {
        for scope in self.scopes.iter().rev() {
            if let Some(&id) = scope.get(&sym) {
                return Some(id);
            }
        }
        None
    }

    fn lookup_var(&self, name: Ident) -> Result<VarId, LangError> {
        if let Some(id) = self.scope_lookup(name.sym) {
            return Ok(id);
        }
        if let Some(&id) = self.global_ids.get(&name.sym) {
            return Ok(id);
        }
        let text = self.out.program.interner.resolve(name.sym).to_owned();
        let kind = if self.func_ids.contains_key(&name.sym) {
            LangErrorKind::KindMismatch { name: text, expected: "variable", found: "function" }
        } else if self.sem_ids.contains_key(&name.sym) {
            LangErrorKind::KindMismatch { name: text, expected: "variable", found: "semaphore" }
        } else if self.chan_ids.contains_key(&name.sym) {
            LangErrorKind::KindMismatch { name: text, expected: "variable", found: "channel" }
        } else if self.proc_ids.contains_key(&name.sym) {
            LangErrorKind::KindMismatch { name: text, expected: "variable", found: "process" }
        } else {
            LangErrorKind::Undeclared(text)
        };
        Err(LangError::new(kind, name.span))
    }

    /// Resolves a name used where a channel is expected: a top-level
    /// channel or an in-scope `chan` parameter.
    fn lookup_chan(&self, name: Ident) -> Result<ChanRef, LangError> {
        if let Some(vid) = self.scope_lookup(name.sym) {
            if self.out.vars[vid.index()].is_chan {
                return Ok(ChanRef::Var(vid));
            }
            let text = self.out.program.interner.resolve(name.sym).to_owned();
            return Err(LangError::new(
                LangErrorKind::KindMismatch { name: text, expected: "channel", found: "variable" },
                name.span,
            ));
        }
        if let Some(&cid) = self.chan_ids.get(&name.sym) {
            return Ok(ChanRef::Static(cid));
        }
        let text = self.out.program.interner.resolve(name.sym).to_owned();
        let kind = if self.global_ids.contains_key(&name.sym) {
            LangErrorKind::KindMismatch { name: text, expected: "channel", found: "variable" }
        } else if self.sem_ids.contains_key(&name.sym) {
            LangErrorKind::KindMismatch { name: text, expected: "channel", found: "semaphore" }
        } else {
            LangErrorKind::Undeclared(text)
        };
        Err(LangError::new(kind, name.span))
    }

    fn resolve_block(
        &mut self,
        block: &Block,
        body: BodyId,
        returns_value: bool,
    ) -> Result<(), LangError> {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.resolve_stmt(stmt, body, returns_value)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn resolve_stmt(
        &mut self,
        stmt: &Stmt,
        body: BodyId,
        returns_value: bool,
    ) -> Result<(), LangError> {
        match &stmt.kind {
            StmtKind::Decl { name, size, init } => {
                if let Some(e) = init {
                    self.resolve_expr(e)?; // initializer sees the outer binding
                }
                let vid = self.declare_local(*name, *size, body, None, false)?;
                self.out.decl_var.insert(stmt.id, vid);
            }
            StmtKind::Assign { target, value } => {
                self.resolve_lvalue(target)?;
                self.resolve_expr(value)?;
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                self.resolve_expr(cond)?;
                self.resolve_block(then_blk, body, returns_value)?;
                if let Some(e) = else_blk {
                    self.resolve_block(e, body, returns_value)?;
                }
            }
            StmtKind::While { cond, body: b } => {
                self.resolve_expr(cond)?;
                self.resolve_block(b, body, returns_value)?;
            }
            StmtKind::For { init, cond, step, body: b } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.resolve_stmt(i, body, returns_value)?;
                }
                if let Some(c) = cond {
                    self.resolve_expr(c)?;
                }
                if let Some(s) = step {
                    self.resolve_stmt(s, body, returns_value)?;
                }
                self.resolve_block(b, body, returns_value)?;
                self.scopes.pop();
            }
            StmtKind::Return(value) => {
                match body {
                    BodyId::Proc(_) => {
                        if value.is_some() {
                            return Err(LangError::new(
                                LangErrorKind::Invalid("processes cannot return a value".into()),
                                stmt.span,
                            ));
                        }
                    }
                    BodyId::Func(_) => {
                        if returns_value != value.is_some() {
                            let name = self.out.program.interner.resolve(match body {
                                BodyId::Func(f) => self.out.funcs[f.index()].name,
                                BodyId::Proc(p) => self.out.procs[p.index()].name,
                            });
                            return Err(LangError::new(
                                LangErrorKind::ReturnMismatch(name.to_owned()),
                                stmt.span,
                            ));
                        }
                    }
                }
                if let Some(e) = value {
                    self.resolve_expr(e)?;
                }
            }
            StmtKind::ExprStmt(e) => {
                if !matches!(e.kind, ExprKind::Call(_, _)) {
                    return Err(LangError::new(
                        LangErrorKind::Invalid(
                            "only call expressions may be used as statements".into(),
                        ),
                        stmt.span,
                    ));
                }
                self.resolve_expr(e)?;
            }
            StmtKind::Print(e) | StmtKind::Assert(e) => self.resolve_expr(e)?,
            StmtKind::Sync(sync) => self.resolve_sync(stmt, sync, body, returns_value)?,
        }
        Ok(())
    }

    fn resolve_sync(
        &mut self,
        stmt: &Stmt,
        sync: &SyncStmt,
        body: BodyId,
        returns_value: bool,
    ) -> Result<(), LangError> {
        match sync {
            SyncStmt::P(name) | SyncStmt::V(name) => {
                let id = self.lookup_sem(*name, SemKind::Semaphore)?;
                self.out.sem_ref.insert(stmt.id, id);
            }
            SyncStmt::Lock(name) | SyncStmt::Unlock(name) => {
                let id = self.lookup_sem(*name, SemKind::Lock)?;
                self.out.sem_ref.insert(stmt.id, id);
            }
            SyncStmt::Send { to, value } | SyncStmt::ASend { to, value } => {
                // The destination is a process (legacy mailbox form) or a
                // channel; processes win name lookup for compatibility.
                if let Some(&pid) = self.proc_ids.get(&to.sym) {
                    self.out.msg_target.insert(stmt.id, pid);
                } else {
                    let dest = self.lookup_chan(*to)?;
                    self.out.send_chan.insert(stmt.id, dest);
                }
                self.resolve_expr(value)?;
            }
            SyncStmt::Recv { from, into } => {
                if let Some(from) = from {
                    let src = self.lookup_chan(*from)?;
                    self.out.recv_chan.insert(stmt.id, src);
                }
                self.resolve_lvalue(into)?;
            }
            SyncStmt::Rendezvous { callee, value } => {
                let pid = self.lookup_proc(*callee)?;
                self.out.msg_target.insert(stmt.id, pid);
                self.resolve_expr(value)?;
            }
            SyncStmt::Accept { param, body: b, param_expr } => {
                if matches!(body, BodyId::Func(_)) {
                    return Err(LangError::new(
                        LangErrorKind::Invalid(
                            "`accept` is only allowed directly in a process body".into(),
                        ),
                        stmt.span,
                    ));
                }
                self.scopes.push(HashMap::new());
                let vid = self.declare_local(*param, None, body, None, false)?;
                self.out.decl_var.insert(stmt.id, vid);
                self.out.expr_var.insert(*param_expr, vid);
                for s in &b.stmts {
                    self.resolve_stmt(s, body, returns_value)?;
                }
                self.scopes.pop();
            }
        }
        Ok(())
    }

    fn lookup_sem(&self, name: Ident, want: SemKind) -> Result<SemId, LangError> {
        match self.sem_ids.get(&name.sym) {
            Some(&id) => {
                let info = &self.out.sems[id.index()];
                if info.kind != want {
                    let text = self.out.program.interner.resolve(name.sym).to_owned();
                    let (expected, found) = match want {
                        SemKind::Semaphore => ("semaphore", "lock"),
                        SemKind::Lock => ("lock", "semaphore"),
                    };
                    return Err(LangError::new(
                        LangErrorKind::KindMismatch { name: text, expected, found },
                        name.span,
                    ));
                }
                Ok(id)
            }
            None => {
                let text = self.out.program.interner.resolve(name.sym).to_owned();
                Err(LangError::new(LangErrorKind::Undeclared(text), name.span))
            }
        }
    }

    fn lookup_proc(&self, name: Ident) -> Result<ProcId, LangError> {
        match self.proc_ids.get(&name.sym) {
            Some(&id) => Ok(id),
            None => {
                let text = self.out.program.interner.resolve(name.sym).to_owned();
                Err(LangError::new(LangErrorKind::Undeclared(text), name.span))
            }
        }
    }

    fn resolve_lvalue(&mut self, lv: &LValue) -> Result<(), LangError> {
        let vid = self.lookup_var(lv.name)?;
        let info = &self.out.vars[vid.index()];
        let text = self.out.program.interner.resolve(lv.name.sym).to_owned();
        if info.is_chan {
            // Channels are immutable bindings: never a write target.
            return Err(LangError::new(
                LangErrorKind::KindMismatch { name: text, expected: "variable", found: "channel" },
                lv.span,
            ));
        }
        match (&lv.index, info.size) {
            (Some(_), None) => {
                return Err(LangError::new(
                    LangErrorKind::KindMismatch { name: text, expected: "array", found: "scalar" },
                    lv.span,
                ))
            }
            (None, Some(_)) => {
                return Err(LangError::new(
                    LangErrorKind::KindMismatch { name: text, expected: "scalar", found: "array" },
                    lv.span,
                ))
            }
            _ => {}
        }
        self.out.expr_var.insert(lv.id, vid);
        if let Some(ix) = &lv.index {
            self.resolve_expr(ix)?;
        }
        Ok(())
    }

    fn resolve_expr(&mut self, expr: &Expr) -> Result<(), LangError> {
        match &expr.kind {
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::Input => Ok(()),
            ExprKind::Var(name) => {
                // A top-level channel name is a first-class channel value
                // (unless shadowed by a local or global variable).
                if self.scope_lookup(name.sym).is_none() && !self.global_ids.contains_key(&name.sym)
                {
                    if let Some(&cid) = self.chan_ids.get(&name.sym) {
                        self.out.expr_chan.insert(expr.id, cid);
                        return Ok(());
                    }
                }
                let vid = self.lookup_var(*name)?;
                let info = &self.out.vars[vid.index()];
                if info.size.is_some() {
                    let text = self.out.program.interner.resolve(name.sym).to_owned();
                    return Err(LangError::new(
                        LangErrorKind::KindMismatch {
                            name: text,
                            expected: "scalar",
                            found: "array",
                        },
                        expr.span,
                    ));
                }
                self.out.expr_var.insert(expr.id, vid);
                Ok(())
            }
            ExprKind::Index(name, ix) => {
                let vid = self.lookup_var(*name)?;
                let info = &self.out.vars[vid.index()];
                if info.size.is_none() {
                    let text = self.out.program.interner.resolve(name.sym).to_owned();
                    return Err(LangError::new(
                        LangErrorKind::KindMismatch {
                            name: text,
                            expected: "array",
                            found: "scalar",
                        },
                        expr.span,
                    ));
                }
                self.out.expr_var.insert(expr.id, vid);
                self.resolve_expr(ix)
            }
            ExprKind::Unary(_, e) => self.resolve_expr(e),
            ExprKind::Binary(_, l, r) => {
                self.resolve_expr(l)?;
                self.resolve_expr(r)
            }
            ExprKind::Call(name, args) => {
                let Some(&fid) = self.func_ids.get(&name.sym) else {
                    let text = self.out.program.interner.resolve(name.sym).to_owned();
                    let kind = if self.global_ids.contains_key(&name.sym) {
                        LangErrorKind::KindMismatch {
                            name: text,
                            expected: "function",
                            found: "variable",
                        }
                    } else {
                        LangErrorKind::Undeclared(text)
                    };
                    return Err(LangError::new(kind, expr.span));
                };
                let decl = &self.out.funcs[fid.index()];
                let expected = match &self.out.program.items[decl.item_index] {
                    Item::Func(f) => f.params.len(),
                    _ => unreachable!(),
                };
                if args.len() != expected {
                    let text = self.out.program.interner.resolve(name.sym).to_owned();
                    return Err(LangError::new(
                        LangErrorKind::ArityMismatch { name: text, expected, found: args.len() },
                        expr.span,
                    ));
                }
                self.out.call_target.insert(expr.id, fid);
                for a in args {
                    self.resolve_expr(a)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ok(src: &str) -> ResolvedProgram {
        match compile(src) {
            Ok(p) => p,
            Err(e) => panic!("resolve failed: {e}\nsource:\n{src}"),
        }
    }

    fn err(src: &str) -> LangError {
        match compile(src) {
            Ok(_) => panic!("expected error for:\n{src}"),
            Err(e) => e,
        }
    }

    #[test]
    fn shared_globals_get_low_ids() {
        let rp = ok("shared int a; shared int b; process Main { int c = a + b; }");
        assert_eq!(rp.shared_count, 2);
        assert!(rp.is_shared(VarId(0)));
        assert!(rp.is_shared(VarId(1)));
        assert!(!rp.is_shared(VarId(2)));
        assert_eq!(rp.shared_vars().count(), 2);
    }

    #[test]
    fn each_body_numbers_its_locals_contiguously() {
        // Frames keep locals in slots indexed from `body_locals(..).start`.
        let mut sources: Vec<String> =
            crate::corpus::all().iter().map(|p| p.source.to_owned()).collect();
        sources.push(crate::corpus::gen_quicksort(8));
        sources.push(crate::corpus::gen_deep_calls(5));
        for src in &sources {
            let rp = ok(src);
            for (i, v) in rp.vars.iter().enumerate() {
                let owner = rp.bodies().into_iter().find(|&b| rp.body_locals(b).contains(&i));
                match v.scope {
                    VarScope::Shared => assert_eq!(owner, None),
                    VarScope::Local(body) => assert_eq!(owner, Some(body), "var {i} of {src}"),
                }
            }
        }
    }

    #[test]
    fn locals_bind_to_their_body() {
        let rp = ok("void f() { int x = 1; print(x); } process Main { f(); }");
        let fid = rp.func_by_name("f").unwrap();
        let x = rp.var_by_name(BodyId::Func(fid), "x").unwrap();
        assert_eq!(rp.vars[x.index()].scope, VarScope::Local(BodyId::Func(fid)));
    }

    #[test]
    fn params_record_their_position() {
        let rp = ok("int f(int a, int b) { return a + b; } process Main { print(f(1, 2)); }");
        let fid = rp.func_by_name("f").unwrap();
        let params = &rp.funcs[fid.index()].params;
        assert_eq!(rp.vars[params[0].index()].param_index, Some(1));
        assert_eq!(rp.vars[params[1].index()].param_index, Some(2));
    }

    #[test]
    fn block_scoping_allows_inner_reuse_after_close() {
        // The same name may be re-declared in a sibling block.
        ok("process Main { if (1) { int t = 1; print(t); } if (1) { int t = 2; print(t); } }");
    }

    #[test]
    fn shadowing_global_is_allowed() {
        let rp = ok("shared int x; process Main { int x = 5; print(x); }");
        // The print refers to the local.
        let pid = rp.proc_by_name("Main").unwrap();
        let local = rp.var_by_name(BodyId::Proc(pid), "x").unwrap();
        assert!(!rp.is_shared(local));
    }

    #[test]
    fn undeclared_variable_rejected() {
        let e = err("process Main { x = 1; }");
        assert!(matches!(e.kind(), LangErrorKind::Undeclared(n) if n == "x"));
    }

    #[test]
    fn redeclaration_in_same_scope_rejected() {
        let e = err("process Main { int x = 1; int x = 2; }");
        assert!(matches!(e.kind(), LangErrorKind::Redeclared(_)));
    }

    #[test]
    fn duplicate_top_level_names_rejected() {
        assert!(matches!(
            err("shared int f; void f() {} process Main {}").kind(),
            LangErrorKind::Redeclared(_)
        ));
    }

    #[test]
    fn arity_checked() {
        let e = err("int f(int a) { return a; } process Main { print(f(1, 2)); }");
        assert!(matches!(e.kind(), LangErrorKind::ArityMismatch { expected: 1, found: 2, .. }));
    }

    #[test]
    fn calling_a_variable_rejected() {
        let e = err("shared int x; process Main { print(x(1)); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
    }

    #[test]
    fn indexing_a_scalar_rejected() {
        let e = err("shared int x; process Main { print(x[0]); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
    }

    #[test]
    fn array_without_index_rejected() {
        let e = err("shared int a[3]; process Main { print(a); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
        let e = err("shared int a[3]; process Main { a = 1; }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
    }

    #[test]
    fn p_on_lock_rejected() {
        let e = err("lockvar m; process Main { p(m); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
    }

    #[test]
    fn send_to_unknown_process_rejected() {
        let e = err("process Main { send(Ghost, 1); }");
        assert!(matches!(e.kind(), LangErrorKind::Undeclared(n) if n == "Ghost"));
    }

    #[test]
    fn return_type_mismatch_rejected() {
        assert!(matches!(
            err("void f() { return 1; } process Main { f(); }").kind(),
            LangErrorKind::ReturnMismatch(_)
        ));
        assert!(matches!(
            err("int f() { return; } process Main { print(f()); }").kind(),
            LangErrorKind::ReturnMismatch(_)
        ));
    }

    #[test]
    fn process_cannot_return_value() {
        assert!(compile("process Main { return 1; }").is_err());
        ok("process Main { return; }");
    }

    #[test]
    fn accept_in_function_rejected() {
        let e = err("void f() { accept (x) { print(x); } } process Main { f(); }");
        assert!(matches!(e.kind(), LangErrorKind::Invalid(_)));
    }

    #[test]
    fn accept_binds_param() {
        let rp = ok("process S { accept (x) { print(x); } } process C { rendezvous(S, 1); }");
        let decl =
            rp.program.processes().find(|p| rp.program.name(p.name.sym) == "S").unwrap().clone();
        let StmtKind::Sync(SyncStmt::Accept { param_expr, .. }) = &decl.body.stmts[0].kind else {
            panic!("expected accept");
        };
        assert!(rp.expr_var.contains_key(param_expr));
    }

    #[test]
    fn program_without_processes_rejected() {
        let e = err("void f() {}");
        assert!(matches!(e.kind(), LangErrorKind::Invalid(_)));
    }

    #[test]
    fn non_call_expression_statement_rejected() {
        // The grammar routes `x = ...` to assignment, so an ExprStmt that
        // is not a call can only be constructed synthetically; but `f()` on
        // an undeclared f is the common user error.
        let e = err("process Main { g(); }");
        assert!(matches!(e.kind(), LangErrorKind::Undeclared(_)));
    }

    #[test]
    fn channels_resolve_at_send_and_recv() {
        let rp = ok("chan c; process P { send(c, 1); } process Q { int x; recv(c, x); }");
        assert_eq!(rp.chans.len(), 1);
        assert_eq!(rp.chan_by_name("c"), Some(ChanId(0)));
        assert_eq!(rp.send_chan.len(), 1);
        assert_eq!(rp.recv_chan.len(), 1);
        assert!(rp.send_chan.values().all(|r| *r == ChanRef::Static(ChanId(0))));
        assert!(rp.msg_target.is_empty());
    }

    #[test]
    fn chan_params_bind_and_flow() {
        let rp = ok("chan c;\
             void produce(chan q, int n) { send(q, n); }\
             process P { produce(c, 3); }\
             process Q { int x; recv(c, x); }");
        let fid = rp.func_by_name("produce").unwrap();
        let q = rp.funcs[fid.index()].params[0];
        assert!(rp.vars[q.index()].is_chan);
        assert!(rp.send_chan.values().any(|r| *r == ChanRef::Var(q)));
        // The call argument `c` binds as a channel value expression.
        assert_eq!(rp.expr_chan.len(), 1);
    }

    #[test]
    fn process_name_wins_send_lookup() {
        let rp = ok("process P { send(Q, 1); } process Q { int x; recv(x); }");
        assert_eq!(rp.msg_target.len(), 1);
        assert!(rp.send_chan.is_empty());
    }

    #[test]
    fn channel_misuses_rejected() {
        // Assignment to a channel binding.
        let e = err("chan c; void f(chan q) { q = 1; } process Main { f(c); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
        // Receiving into a channel binding.
        let e = err("chan c; void f(chan q) { recv(c, q); } process Main { f(c); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
        // Sending to a plain int variable.
        let e = err("process Main { int x; send(x, 1); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
        // Receiving from a semaphore.
        let e = err("sem s = 0; process Main { int x; recv(s, x); }");
        assert!(matches!(e.kind(), LangErrorKind::KindMismatch { .. }));
        // Duplicate top-level name.
        let e = err("chan c; shared int c; process Main { }");
        assert!(matches!(e.kind(), LangErrorKind::Redeclared(_)));
    }

    #[test]
    fn every_var_reference_is_bound() {
        let src = "shared int sv; \
                   int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } \
                   process Main { int r = fact(5); sv = r; print(sv); }";
        let rp = ok(src);
        let program = parse(src).unwrap();
        // All Var/Index expressions in the original AST have a binding.
        let mut missing = 0;
        for f in program.funcs() {
            crate::ast::walk_stmts(&f.body, &mut |s| {
                crate::ast::walk_stmt_exprs(s, &mut |e| {
                    if matches!(e.kind, ExprKind::Var(_) | ExprKind::Index(_, _))
                        && !rp.expr_var.contains_key(&e.id)
                    {
                        missing += 1;
                    }
                });
            });
        }
        assert_eq!(missing, 0);
    }
}
