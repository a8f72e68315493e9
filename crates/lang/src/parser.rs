//! Recursive-descent parser producing the [`Program`] AST.
//!
//! # Grammar
//!
//! ```text
//! program  := item* EOF
//! item     := "shared" "int" IDENT ("[" INT "]")? ("=" ("-")? INT)? ";"
//!           | "sem" IDENT "=" INT ";"
//!           | "lockvar" IDENT ";"
//!           | "chan" IDENT ";"
//!           | ("int" | "void") IDENT "(" params? ")" block
//!           | "process" IDENT block
//! params   := ptype IDENT ("," ptype IDENT)*
//! ptype    := "int" | "chan"
//! block    := "{" stmt* "}"
//! stmt     := "int" IDENT ("[" INT "]")? ("=" expr)? ";"
//!           | lvalue "=" expr ";"
//!           | "if" "(" expr ")" block ("else" (block | ifstmt))?
//!           | "while" "(" expr ")" block
//!           | "for" "(" simple? ";" expr? ";" simple? ")" block
//!           | "return" expr? ";"
//!           | IDENT "(" args? ")" ";"
//!           | "p" "(" IDENT ")" ";"        | "v" "(" IDENT ")" ";"
//!           | "lock" "(" IDENT ")" ";"     | "unlock" "(" IDENT ")" ";"
//!           | "send" "(" IDENT "," expr ")" ";"
//!           | "asend" "(" IDENT "," expr ")" ";"
//!           | "recv" "(" (IDENT ",")? lvalue ")" ";"
//!           | "rendezvous" "(" IDENT "," expr ")" ";"
//!           | "accept" "(" IDENT ")" block
//!           | "print" "(" expr ")" ";"
//!           | "assert" "(" expr ")" ";"
//! simple   := "int" IDENT "=" expr | lvalue "=" expr
//! lvalue   := IDENT ("[" expr "]")?
//! expr     := or
//! or       := and ("||" and)*
//! and      := cmp ("&&" cmp)*
//! cmp      := add (("=="|"!="|"<"|"<="|">"|">=") add)?
//! add      := mul (("+"|"-") mul)*
//! mul      := unary (("*"|"/"|"%") unary)*
//! unary    := ("-"|"!") unary | primary
//! primary  := INT | "true" | "false" | "input" "(" ")" | IDENT "(" args? ")"
//!           | IDENT ("[" expr "]")? | "(" expr ")"
//! ```

use crate::ast::*;
use crate::error::{LangError, LangErrorKind};
use crate::lexer::tokenize;
use crate::span::Span;
use crate::symbol::Interner;
use crate::token::{Token, TokenKind};

/// Deepest AST nesting the parser accepts. Blocks, expressions in
/// parentheses, arguments, indexes and conditions, and unary operators
/// each open one level; an expression node also counts its height, so
/// a left-deep `1 + 1 + … + 1` chain deepens with every operator. Every
/// later stage — name resolution, the type checker, CFG lowering, the
/// analyses, the interpreter, even dropping the tree — recurses over
/// the AST, so deeper input is a positioned error rather than a stack
/// overflow. Real programs nest a handful of levels.
pub const MAX_NESTING: u32 = 256;

/// Parses a complete source program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered. The parse is
/// purely syntactic: name binding and type-like checks happen in
/// [`resolve`](crate::resolve::resolve).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ppd_lang::LangError> {
/// let program = ppd_lang::parse("process Main { print(1 + 2); }")?;
/// assert_eq!(program.processes().count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Program, LangError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        interner: Interner::new(),
        next_stmt: 0,
        next_expr: 0,
        depth: 0,
        heights: Vec::new(),
    };
    let mut items = Vec::new();
    while !parser.at(&TokenKind::Eof) {
        items.push(parser.item()?);
    }
    Ok(Program {
        items,
        interner: parser.interner,
        stmt_count: parser.next_stmt,
        expr_count: parser.next_expr,
        source: src.to_owned(),
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    interner: Interner,
    next_stmt: u32,
    next_expr: u32,
    /// Nesting levels open above the current token.
    depth: u32,
    /// Height of every expression built so far, by `ExprId`.
    heights: Vec<u32>,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn bump(&mut self) -> Token {
        let tok = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token, LangError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.err_expected(what))
        }
    }

    fn err_expected(&self, what: &str) -> LangError {
        LangError::new(
            LangErrorKind::UnexpectedToken {
                expected: what.to_owned(),
                found: self.peek().kind.describe(),
            },
            self.peek().span,
        )
    }

    fn fresh_stmt(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    fn fresh_expr(&mut self) -> ExprId {
        let id = ExprId(self.next_expr);
        self.next_expr += 1;
        self.heights.push(1);
        id
    }

    /// Fails at `span` when `depth` exceeds [`MAX_NESTING`].
    fn check_depth(&self, depth: u32, span: Span) -> Result<(), LangError> {
        if depth > MAX_NESTING {
            return Err(LangError::new(
                LangErrorKind::Invalid(format!("nesting deeper than {MAX_NESTING} levels")),
                span,
            ));
        }
        Ok(())
    }

    /// Opens one nesting level at the current token.
    fn nest(&mut self) -> Result<(), LangError> {
        self.depth += 1;
        self.check_depth(self.depth, self.peek().span)
    }

    fn unnest(&mut self) {
        self.depth -= 1;
    }

    /// Records the height of the new expression `id` over its
    /// `operands` and checks the nesting it reaches, blaming `span`.
    fn built<'e>(
        &mut self,
        id: ExprId,
        operands: impl IntoIterator<Item = &'e Expr>,
        span: Span,
    ) -> Result<(), LangError> {
        let tallest = operands.into_iter().map(|e| self.heights[e.id.index()]).max();
        let height = 1 + tallest.unwrap_or(0);
        self.heights[id.index()] = height;
        self.check_depth(self.depth + height, span)
    }

    /// An operand-free expression.
    fn leaf(&mut self, kind: ExprKind, span: Span) -> Result<Expr, LangError> {
        let id = self.fresh_expr();
        self.built(id, None, span)?;
        Ok(Expr { id, kind, span })
    }

    fn ident(&mut self, what: &str) -> Result<Ident, LangError> {
        let tok = self.peek().clone();
        match tok.kind.as_ident_text() {
            Some(text) => {
                let sym = self.interner.intern(text);
                self.bump();
                Ok(Ident { sym, span: tok.span })
            }
            None => Err(self.err_expected(what)),
        }
    }

    fn int_lit(&mut self, what: &str) -> Result<(i64, Span), LangError> {
        let negative = self.eat(&TokenKind::Minus);
        let tok = self.peek().clone();
        if let TokenKind::Int(n) = tok.kind {
            self.bump();
            Ok((if negative { -n } else { n }, tok.span))
        } else {
            Err(self.err_expected(what))
        }
    }

    // ---------------- items ----------------

    fn item(&mut self) -> Result<Item, LangError> {
        let tok = self.peek().clone();
        match tok.kind {
            TokenKind::KwShared => self.global_decl(),
            TokenKind::KwSem => self.sem_decl(SemKind::Semaphore),
            TokenKind::KwLockVar => self.sem_decl(SemKind::Lock),
            TokenKind::KwChan => self.chan_decl(),
            TokenKind::KwInt | TokenKind::KwVoid => self.func_decl(),
            TokenKind::KwProcess => self.process_decl(),
            _ => Err(self.err_expected(
                "an item (`shared`, `sem`, `lockvar`, `chan`, `int`, `void`, or `process`)",
            )),
        }
    }

    fn global_decl(&mut self) -> Result<Item, LangError> {
        let start = self.bump().span; // `shared`
        self.expect(&TokenKind::KwInt, "`int`")?;
        let name = self.ident("a variable name")?;
        let size = if self.eat(&TokenKind::LBracket) {
            let (n, span) = self.int_lit("an array size")?;
            if n <= 0 {
                return Err(LangError::new(
                    LangErrorKind::Invalid(format!("array size must be positive, got {n}")),
                    span,
                ));
            }
            self.expect(&TokenKind::RBracket, "`]`")?;
            Some(n as usize)
        } else {
            None
        };
        let init = if self.eat(&TokenKind::Assign) {
            let (n, span) = self.int_lit("an integer initializer")?;
            if size.is_some() {
                return Err(LangError::new(
                    LangErrorKind::Invalid("arrays cannot have initializers".into()),
                    span,
                ));
            }
            Some(n)
        } else {
            None
        };
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Item::Global(GlobalDecl { name, size, init, span: start.merge(end) }))
    }

    fn sem_decl(&mut self, kind: SemKind) -> Result<Item, LangError> {
        let start = self.bump().span; // `sem` or `lockvar`
        let name = self.ident("a semaphore name")?;
        let init = match kind {
            SemKind::Semaphore => {
                self.expect(&TokenKind::Assign, "`=`")?;
                let (n, span) = self.int_lit("an initial count")?;
                if n < 0 {
                    return Err(LangError::new(
                        LangErrorKind::Invalid(format!(
                            "semaphore count must be non-negative, got {n}"
                        )),
                        span,
                    ));
                }
                n
            }
            SemKind::Lock => 1,
        };
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Item::Sem(SemDecl { name, init, kind, span: start.merge(end) }))
    }

    fn chan_decl(&mut self) -> Result<Item, LangError> {
        let start = self.bump().span; // `chan`
        let name = self.ident("a channel name")?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Item::Chan(ChanDecl { name, span: start.merge(end) }))
    }

    fn func_decl(&mut self) -> Result<Item, LangError> {
        let ret_tok = self.bump(); // `int` or `void`
        let returns_value = ret_tok.kind == TokenKind::KwInt;
        let name = self.ident("a function name")?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let is_chan = if self.eat(&TokenKind::KwChan) {
                    true
                } else {
                    self.expect(&TokenKind::KwInt, "`int` or `chan` (parameter type)")?;
                    false
                };
                let name = self.ident("a parameter name")?;
                params.push(Param { name, is_chan });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        let span = ret_tok.span.merge(name.span);
        Ok(Item::Func(FuncDecl { name, params, returns_value, body, span }))
    }

    fn process_decl(&mut self) -> Result<Item, LangError> {
        let start = self.bump().span; // `process`
        let name = self.ident("a process name")?;
        let body = self.block()?;
        Ok(Item::Process(ProcessDecl { name, body, span: start.merge(name.span) }))
    }

    // ---------------- statements ----------------

    fn block(&mut self) -> Result<Block, LangError> {
        self.nest()?;
        self.expect(&TokenKind::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(self.err_expected("`}`"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // `}`
        self.unnest();
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let tok = self.peek().clone();
        match &tok.kind {
            TokenKind::KwInt => self.decl_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => self.return_stmt(),
            TokenKind::KwPrint => self.unary_kw_stmt(UnaryKw::Print),
            TokenKind::KwAssert => self.unary_kw_stmt(UnaryKw::Assert),
            TokenKind::KwP if self.peek2().kind == TokenKind::LParen => self.sem_op_stmt(SemOp::P),
            TokenKind::KwV if self.peek2().kind == TokenKind::LParen => self.sem_op_stmt(SemOp::V),
            TokenKind::KwLock => self.sem_op_stmt(SemOp::Lock),
            TokenKind::KwUnlock => self.sem_op_stmt(SemOp::Unlock),
            TokenKind::KwSend => self.send_stmt(false),
            TokenKind::KwASend => self.send_stmt(true),
            TokenKind::KwRecv => self.recv_stmt(),
            TokenKind::KwRendezvous => self.rendezvous_stmt(),
            TokenKind::KwAccept => self.accept_stmt(),
            k if k.as_ident_text().is_some() => self.assign_or_call_stmt(),
            _ => Err(self.err_expected("a statement")),
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `int`
        let name = self.ident("a variable name")?;
        let size = if self.eat(&TokenKind::LBracket) {
            let (n, span) = self.int_lit("an array size")?;
            if n <= 0 {
                return Err(LangError::new(
                    LangErrorKind::Invalid(format!("array size must be positive, got {n}")),
                    span,
                ));
            }
            self.expect(&TokenKind::RBracket, "`]`")?;
            Some(n as usize)
        } else {
            None
        };
        let init = if self.eat(&TokenKind::Assign) {
            if size.is_some() {
                return Err(LangError::new(
                    LangErrorKind::Invalid("arrays cannot have initializers".into()),
                    self.peek().span,
                ));
            }
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Stmt { id, kind: StmtKind::Decl { name, size, init }, span: start.merge(end) })
    }

    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `if`
        self.expect(&TokenKind::LParen, "`(`")?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let then_blk = self.block()?;
        let else_blk = if self.eat(&TokenKind::KwElse) {
            if self.at(&TokenKind::KwIf) {
                // `else if` desugars to `else { if ... }`.
                self.nest()?;
                let nested = self.if_stmt()?;
                self.unnest();
                Some(Block { stmts: vec![nested] })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        let span = start.merge(cond.span);
        Ok(Stmt { id, kind: StmtKind::If { cond, then_blk, else_blk }, span })
    }

    fn while_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `while`
        self.expect(&TokenKind::LParen, "`(`")?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        let span = start.merge(cond.span);
        Ok(Stmt { id, kind: StmtKind::While { cond, body }, span })
    }

    fn for_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `for`
        self.expect(&TokenKind::LParen, "`(`")?;
        let init =
            if self.at(&TokenKind::Semi) { None } else { Some(Box::new(self.simple_stmt()?)) };
        self.expect(&TokenKind::Semi, "`;`")?;
        let cond = if self.at(&TokenKind::Semi) { None } else { Some(self.expr()?) };
        self.expect(&TokenKind::Semi, "`;`")?;
        let step =
            if self.at(&TokenKind::RParen) { None } else { Some(Box::new(self.simple_stmt()?)) };
        self.expect(&TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        Ok(Stmt { id, kind: StmtKind::For { init, cond, step, body }, span: start })
    }

    /// A statement without its trailing `;` — the init/step slots of `for`.
    fn simple_stmt(&mut self) -> Result<Stmt, LangError> {
        if self.at(&TokenKind::KwInt) {
            let id = self.fresh_stmt();
            let start = self.bump().span;
            let name = self.ident("a variable name")?;
            self.expect(&TokenKind::Assign, "`=`")?;
            let init = Some(self.expr()?);
            Ok(Stmt { id, kind: StmtKind::Decl { name, size: None, init }, span: start })
        } else {
            let id = self.fresh_stmt();
            let target = self.lvalue()?;
            self.expect(&TokenKind::Assign, "`=`")?;
            let value = self.expr()?;
            let span = target.span.merge(value.span);
            Ok(Stmt { id, kind: StmtKind::Assign { target, value }, span })
        }
    }

    fn return_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `return`
        let value = if self.at(&TokenKind::Semi) { None } else { Some(self.expr()?) };
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Stmt { id, kind: StmtKind::Return(value), span: start.merge(end) })
    }

    fn unary_kw_stmt(&mut self, which: UnaryKw) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `print` / `assert`
        self.expect(&TokenKind::LParen, "`(`")?;
        let arg = self.expr()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        let kind = match which {
            UnaryKw::Print => StmtKind::Print(arg),
            UnaryKw::Assert => StmtKind::Assert(arg),
        };
        Ok(Stmt { id, kind, span: start.merge(end) })
    }

    fn sem_op_stmt(&mut self, op: SemOp) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `p`/`v`/`lock`/`unlock`
        self.expect(&TokenKind::LParen, "`(`")?;
        let sem = self.ident("a semaphore name")?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        let sync = match op {
            SemOp::P => SyncStmt::P(sem),
            SemOp::V => SyncStmt::V(sem),
            SemOp::Lock => SyncStmt::Lock(sem),
            SemOp::Unlock => SyncStmt::Unlock(sem),
        };
        Ok(Stmt { id, kind: StmtKind::Sync(sync), span: start.merge(end) })
    }

    fn send_stmt(&mut self, asynchronous: bool) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `send` / `asend`
        self.expect(&TokenKind::LParen, "`(`")?;
        let to = self.ident("a process name")?;
        self.expect(&TokenKind::Comma, "`,`")?;
        let value = self.expr()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        let sync =
            if asynchronous { SyncStmt::ASend { to, value } } else { SyncStmt::Send { to, value } };
        Ok(Stmt { id, kind: StmtKind::Sync(sync), span: start.merge(end) })
    }

    fn recv_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `recv`
        self.expect(&TokenKind::LParen, "`(`")?;
        // `recv(c, lv)` names the source channel; `recv(lv)` reads the
        // process mailbox. Disambiguated by the comma after the first name.
        let first = self.ident("a channel or variable name")?;
        let (from, into) = if self.eat(&TokenKind::Comma) {
            (Some(first), self.lvalue()?)
        } else {
            (None, self.lvalue_tail(first)?)
        };
        self.expect(&TokenKind::RParen, "`)`")?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Stmt { id, kind: StmtKind::Sync(SyncStmt::Recv { from, into }), span: start.merge(end) })
    }

    fn rendezvous_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `rendezvous`
        self.expect(&TokenKind::LParen, "`(`")?;
        let callee = self.ident("a process name")?;
        self.expect(&TokenKind::Comma, "`,`")?;
        let value = self.expr()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        Ok(Stmt {
            id,
            kind: StmtKind::Sync(SyncStmt::Rendezvous { callee, value }),
            span: start.merge(end),
        })
    }

    fn accept_stmt(&mut self) -> Result<Stmt, LangError> {
        let id = self.fresh_stmt();
        let start = self.bump().span; // `accept`
        self.expect(&TokenKind::LParen, "`(`")?;
        let param = self.ident("a parameter name")?;
        self.expect(&TokenKind::RParen, "`)`")?;
        let param_expr = self.fresh_expr();
        let body = self.block()?;
        Ok(Stmt {
            id,
            kind: StmtKind::Sync(SyncStmt::Accept { param, body, param_expr }),
            span: start.merge(param.span),
        })
    }

    fn assign_or_call_stmt(&mut self) -> Result<Stmt, LangError> {
        // Call statement: IDENT `(` ...
        if self.peek2().kind == TokenKind::LParen {
            let id = self.fresh_stmt();
            let expr = self.expr()?;
            let end = self.expect(&TokenKind::Semi, "`;`")?.span;
            let span = expr.span.merge(end);
            return Ok(Stmt { id, kind: StmtKind::ExprStmt(expr), span });
        }
        let id = self.fresh_stmt();
        let target = self.lvalue()?;
        self.expect(&TokenKind::Assign, "`=`")?;
        let value = self.expr()?;
        let end = self.expect(&TokenKind::Semi, "`;`")?.span;
        let span = target.span.merge(end);
        Ok(Stmt { id, kind: StmtKind::Assign { target, value }, span })
    }

    fn lvalue(&mut self) -> Result<LValue, LangError> {
        let name = self.ident("a variable name")?;
        self.lvalue_tail(name)
    }

    /// Finishes an lvalue whose leading identifier has already been read.
    fn lvalue_tail(&mut self, name: Ident) -> Result<LValue, LangError> {
        let id = self.fresh_expr();
        let index = if self.eat(&TokenKind::LBracket) {
            let e = self.expr()?;
            self.expect(&TokenKind::RBracket, "`]`")?;
            Some(Box::new(e))
        } else {
            None
        };
        Ok(LValue { id, name, index, span: name.span })
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.nest()?;
        let e = self.binary_expr(0)?;
        self.unnest();
        Ok(e)
    }

    /// Precedence climbing over the binary operators that bind at least
    /// as tightly as `min` (see [`binary_op`]). All are left-associative
    /// except the comparisons, which do not chain: `a < b < c` stops
    /// before the second `<`, as does `a && b < c < d`.
    fn binary_expr(&mut self, min: u8) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        // Binding strength of `lhs`'s outermost operator.
        let mut lhs_prec = u8::MAX;
        while let Some((op, prec)) = binary_op(&self.peek().kind) {
            if prec < min || (prec == CMP_PREC && lhs_prec <= CMP_PREC) {
                break;
            }
            let op_span = self.bump().span;
            let rhs = self.binary_expr(prec + 1)?;
            lhs = self.mk_binary(op, lhs, rhs, op_span)?;
            lhs_prec = prec;
        }
        Ok(lhs)
    }

    /// `("-" | "!")* primary`. The prefix operators are collected in a
    /// loop rather than by recursion, so a parenthesized expression
    /// costs the stack three frames per level (`expr`, `binary_expr`,
    /// `primary_expr`).
    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        let mut prefix = Vec::new();
        loop {
            let op = match self.peek().kind {
                TokenKind::Minus => UnOp::Neg,
                TokenKind::Bang => UnOp::Not,
                _ => break,
            };
            self.nest()?;
            prefix.push((op, self.bump().span));
        }
        let mut e = self.primary_expr()?;
        for (op, start) in prefix.into_iter().rev() {
            self.unnest();
            let id = self.fresh_expr();
            self.built(id, [&e], start)?;
            let span = start.merge(e.span);
            e = Expr { id, kind: ExprKind::Unary(op, Box::new(e)), span };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, LangError> {
        let tok = self.peek().clone();
        match &tok.kind {
            TokenKind::Int(n) => {
                self.bump();
                self.leaf(ExprKind::IntLit(*n), tok.span)
            }
            TokenKind::KwTrue | TokenKind::KwFalse => {
                let value = tok.kind == TokenKind::KwTrue;
                self.bump();
                self.leaf(ExprKind::BoolLit(value), tok.span)
            }
            TokenKind::KwInput => {
                self.bump();
                self.expect(&TokenKind::LParen, "`(`")?;
                self.expect(&TokenKind::RParen, "`)`")?;
                self.leaf(ExprKind::Input, tok.span)
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            k if k.as_ident_text().is_some() => self.name_expr(),
            _ => Err(self.err_expected("an expression")),
        }
    }

    /// A variable, an array element or a call.
    fn name_expr(&mut self) -> Result<Expr, LangError> {
        let name = self.ident("a name")?;
        if self.eat(&TokenKind::LParen) {
            let mut args = Vec::new();
            if !self.at(&TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            let end = self.expect(&TokenKind::RParen, "`)`")?.span;
            let id = self.fresh_expr();
            self.built(id, &args, name.span)?;
            Ok(Expr { id, kind: ExprKind::Call(name, args), span: name.span.merge(end) })
        } else if self.eat(&TokenKind::LBracket) {
            let ix = self.expr()?;
            let end = self.expect(&TokenKind::RBracket, "`]`")?.span;
            let id = self.fresh_expr();
            self.built(id, [&ix], name.span)?;
            Ok(Expr { id, kind: ExprKind::Index(name, Box::new(ix)), span: name.span.merge(end) })
        } else {
            self.leaf(ExprKind::Var(name), name.span)
        }
    }

    /// Builds `lhs op rhs`; `op_span` is blamed when the node nests
    /// too deep.
    fn mk_binary(
        &mut self,
        op: BinOp,
        lhs: Expr,
        rhs: Expr,
        op_span: Span,
    ) -> Result<Expr, LangError> {
        let id = self.fresh_expr();
        self.built(id, [&lhs, &rhs], op_span)?;
        let span = lhs.span.merge(rhs.span);
        Ok(Expr { id, kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span })
    }
}

/// Binding strength of the comparison operators.
const CMP_PREC: u8 = 3;

/// The binary operator a token spells, with its binding strength:
/// `||` 1, `&&` 2, comparisons [`CMP_PREC`], `+ -` 4, `* / %` 5.
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::Eq => (BinOp::Eq, CMP_PREC),
        TokenKind::Ne => (BinOp::Ne, CMP_PREC),
        TokenKind::Lt => (BinOp::Lt, CMP_PREC),
        TokenKind::Le => (BinOp::Le, CMP_PREC),
        TokenKind::Gt => (BinOp::Gt, CMP_PREC),
        TokenKind::Ge => (BinOp::Ge, CMP_PREC),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Rem, 5),
        _ => return None,
    })
}

enum UnaryKw {
    Print,
    Assert,
}

enum SemOp {
    P,
    V,
    Lock,
    Unlock,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn parses_shared_globals() {
        let p = parse_ok("shared int x; shared int a[4]; shared int y = -3;");
        let globals: Vec<_> = p.globals().collect();
        assert_eq!(globals.len(), 3);
        assert_eq!(globals[1].size, Some(4));
        assert_eq!(globals[2].init, Some(-3));
    }

    #[test]
    fn parses_semaphores_and_locks() {
        let p = parse_ok("sem s = 2; lockvar m;");
        let sems: Vec<_> = p.sems().collect();
        assert_eq!(sems.len(), 2);
        assert_eq!(sems[0].init, 2);
        assert_eq!(sems[0].kind, SemKind::Semaphore);
        assert_eq!(sems[1].init, 1);
        assert_eq!(sems[1].kind, SemKind::Lock);
    }

    #[test]
    fn parses_function_with_params() {
        let p = parse_ok("int add(int a, int b) { return a + b; }");
        let f = p.func("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert!(f.returns_value);
    }

    #[test]
    fn parses_process_with_sync_ops() {
        let p = parse_ok(
            "sem s = 1; shared int x;\
             process P1 { p(s); x = x + 1; v(s); send(P2, x); }\
             process P2 { int y; recv(y); asend(P1, y * 2); }",
        );
        assert_eq!(p.processes().count(), 2);
    }

    #[test]
    fn parses_rendezvous_and_accept() {
        let p = parse_ok(
            "process Caller { rendezvous(Server, 42); }\
             process Server { accept (x) { print(x); } }",
        );
        assert_eq!(p.processes().count(), 2);
    }

    #[test]
    fn parses_control_flow() {
        let p = parse_ok(
            "void f() {\
               int i;\
               for (i = 0; i < 10; i = i + 1) {\
                 if (i % 2 == 0) { print(i); } else if (i > 5) { print(0 - i); }\
               }\
               while (i > 0) { i = i - 1; }\
             }",
        );
        assert!(p.func("f").is_some());
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_ok("void f() { int x = 1 + 2 * 3; }");
        let f = p.func("f").unwrap();
        let StmtKind::Decl { init: Some(e), .. } = &f.body.stmts[0].kind else {
            panic!("expected decl");
        };
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!("expected +: {:?}", e.kind);
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parens_override_precedence() {
        let p = parse_ok("void f() { int x = (1 + 2) * 3; }");
        let f = p.func("f").unwrap();
        let StmtKind::Decl { init: Some(e), .. } = &f.body.stmts[0].kind else {
            panic!("expected decl");
        };
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn p_usable_as_variable_name() {
        // `p` is only a sync op when followed by `(` in statement position.
        let prog = parse_ok("void f() { int p = 1; p = p + 1; print(p); }");
        assert!(prog.func("f").is_some());
    }

    #[test]
    fn call_statement_vs_assignment() {
        let p = parse_ok("void g() {} void f() { g(); }");
        let f = p.func("f").unwrap();
        assert!(matches!(f.body.stmts[0].kind, StmtKind::ExprStmt(_)));
    }

    #[test]
    fn array_lvalue_and_rvalue() {
        let p = parse_ok("shared int a[8]; void f() { a[2] = a[1] + 1; }");
        let f = p.func("f").unwrap();
        let StmtKind::Assign { target, value } = &f.body.stmts[0].kind else {
            panic!("expected assignment");
        };
        assert!(target.index.is_some());
        let ExprKind::Binary(_, lhs, _) = &value.kind else { panic!() };
        assert!(matches!(lhs.kind, ExprKind::Index(_, _)));
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let p = parse_ok("void f() { int x = 1; if (x > 0) { x = x - 1; } while (x) { x = 0; } }");
        let mut seen = std::collections::HashSet::new();
        for f in p.funcs() {
            crate::ast::walk_stmts(&f.body, &mut |s| {
                assert!(seen.insert(s.id), "duplicate {:?}", s.id);
                assert!(s.id.0 < p.stmt_count);
            });
        }
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("void f() { int x = 1 }").is_err());
    }

    #[test]
    fn error_on_array_initializer() {
        assert!(parse("shared int a[3] = 5;").is_err());
        assert!(parse("void f() { int a[3] = 5; }").is_err());
    }

    #[test]
    fn error_on_negative_sizes_and_counts() {
        assert!(parse("shared int a[0];").is_err());
        assert!(parse("sem s = -1;").is_err());
    }

    #[test]
    fn error_on_unclosed_block() {
        assert!(parse("void f() { int x = 1;").is_err());
    }

    #[test]
    fn error_on_garbage_at_top_level() {
        assert!(parse("42;").is_err());
    }

    #[test]
    fn for_loop_slots_optional() {
        let p = parse_ok("void f() { int i = 0; for (;;) { i = i + 1; if (i > 3) { return; } } }");
        assert!(p.func("f").is_some());
    }

    #[test]
    fn input_expression() {
        let p = parse_ok("process Main { int x = input(); print(x); }");
        assert_eq!(p.processes().count(), 1);
    }

    #[test]
    fn parses_channel_declarations() {
        let p = parse_ok("chan c; chan done; process Main { send(c, 1); }");
        let chans: Vec<_> = p.chans().collect();
        assert_eq!(chans.len(), 2);
    }

    #[test]
    fn parses_chan_params() {
        let p = parse_ok("void f(chan q, int n) { send(q, n); }");
        let f = p.func("f").unwrap();
        assert!(f.params[0].is_chan);
        assert!(!f.params[1].is_chan);
    }

    #[test]
    fn parses_recv_forms() {
        let p = parse_ok(
            "chan c; shared int a[2];\
             process Main { int x; recv(x); recv(c, x); recv(c, a[1]); recv(a[0]); }",
        );
        let proc_ = p.processes().next().unwrap();
        let forms: Vec<(bool, bool)> = proc_.body.stmts[1..]
            .iter()
            .map(|s| match &s.kind {
                StmtKind::Sync(SyncStmt::Recv { from, into }) => {
                    (from.is_some(), into.index.is_some())
                }
                other => panic!("expected recv, got {other:?}"),
            })
            .collect();
        assert_eq!(forms, vec![(false, false), (true, false), (true, true), (false, true)]);
    }

    #[test]
    fn parses_bool_literals() {
        let p = parse_ok("process Main { int x = 0; if (true) { x = 1; } assert(x == 1); }");
        let proc_ = p.processes().next().unwrap();
        let StmtKind::If { cond, .. } = &proc_.body.stmts[1].kind else { panic!("expected if") };
        assert!(matches!(cond.kind, ExprKind::BoolLit(true)));
    }

    #[test]
    fn error_on_chan_initializer() {
        assert!(parse("chan c = 1;").is_err());
    }
}
