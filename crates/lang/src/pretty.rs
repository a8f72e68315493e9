//! Pretty-printing of programs, statements and expressions.
//!
//! Used for diagnostics and for labelling dynamic-graph nodes the way the
//! paper's Figure 4.1 does (`d > 0`, `sq = sqrt(d)`, ...).

use crate::ast::*;
use crate::symbol::Interner;
use std::fmt::Write as _;

/// Renders a whole program as source text.
pub fn program_to_string(program: &Program) -> String {
    let mut p = Printer::new(&program.interner);
    for item in &program.items {
        p.item(item);
    }
    p.out
}

/// Renders one statement (single line, no trailing newline) — the label
/// form used by dynamic-graph nodes.
pub fn stmt_label(stmt: &Stmt, interner: &Interner) -> String {
    let mut p = Printer::new(interner);
    p.stmt_head(stmt);
    p.out
}

struct Printer<'a> {
    interner: &'a Interner,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(interner: &'a Interner) -> Self {
        Printer { interner, out: String::new(), indent: 0 }
    }

    fn name(&self, ident: Ident) -> &'a str {
        self.interner.resolve(ident.sym)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, head: &str) {
        self.line(&format!("{head} {{"));
        self.indent += 1;
    }

    fn close(&mut self) {
        self.indent -= 1;
        self.line("}");
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Global(g) => {
                let mut s = format!("shared int {}", self.name(g.name));
                if let Some(n) = g.size {
                    let _ = write!(s, "[{n}]");
                }
                if let Some(v) = g.init {
                    let _ = write!(s, " = {v}");
                }
                s.push(';');
                self.line(&s);
            }
            Item::Sem(sd) => match sd.kind {
                SemKind::Semaphore => {
                    self.line(&format!("sem {} = {};", self.name(sd.name), sd.init))
                }
                SemKind::Lock => self.line(&format!("lockvar {};", self.name(sd.name))),
            },
            Item::Chan(c) => self.line(&format!("chan {};", self.name(c.name))),
            Item::Func(f) => {
                let ret = if f.returns_value { "int" } else { "void" };
                let params: Vec<String> = f
                    .params
                    .iter()
                    .map(|p| {
                        let ty = if p.is_chan { "chan" } else { "int" };
                        format!("{ty} {}", self.name(p.name))
                    })
                    .collect();
                self.open(&format!("{ret} {}({})", self.name(f.name), params.join(", ")));
                for s in &f.body.stmts {
                    self.full_stmt(s);
                }
                self.close();
            }
            Item::Process(p) => {
                self.open(&format!("process {}", self.name(p.name)));
                for s in &p.body.stmts {
                    self.full_stmt(s);
                }
                self.close();
            }
        }
    }

    fn full_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::If { cond, then_blk, else_blk } => {
                let mut head = String::from("if (");
                head.push_str(&render_expr(cond, self.interner));
                head.push(')');
                self.open(&head);
                for s in &then_blk.stmts {
                    self.full_stmt(s);
                }
                self.close();
                if let Some(e) = else_blk {
                    self.open("else");
                    for s in &e.stmts {
                        self.full_stmt(s);
                    }
                    self.close();
                }
            }
            StmtKind::While { cond, body } => {
                self.open(&format!("while ({})", render_expr(cond, self.interner)));
                for s in &body.stmts {
                    self.full_stmt(s);
                }
                self.close();
            }
            StmtKind::For { init, cond, step, body } => {
                let init_s = init.as_ref().map(|s| head_of(s, self.interner)).unwrap_or_default();
                let cond_s =
                    cond.as_ref().map(|c| render_expr(c, self.interner)).unwrap_or_default();
                let step_s = step.as_ref().map(|s| head_of(s, self.interner)).unwrap_or_default();
                self.open(&format!("for ({init_s}; {cond_s}; {step_s})"));
                for s in &body.stmts {
                    self.full_stmt(s);
                }
                self.close();
            }
            StmtKind::Sync(SyncStmt::Accept { param, body, .. }) => {
                self.open(&format!("accept ({})", self.name(*param)));
                for s in &body.stmts {
                    self.full_stmt(s);
                }
                self.close();
            }
            _ => {
                let mut head = String::new();
                let mut p = Printer::new(self.interner);
                p.stmt_head(stmt);
                head.push_str(&p.out);
                head.push(';');
                self.line(&head);
            }
        }
    }

    /// The single-line "head" of a statement: the whole statement for
    /// simple ones, `if (cond)` style heads for compound ones.
    fn stmt_head(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Decl { name, size, init } => {
                let n = self.name(*name);
                match size {
                    Some(k) => {
                        let _ = write!(self.out, "int {n}[{k}]");
                    }
                    None => {
                        let _ = write!(self.out, "int {n}");
                    }
                }
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
            }
            StmtKind::Assign { target, value } => {
                self.lvalue(target);
                self.out.push_str(" = ");
                self.expr(value);
            }
            StmtKind::If { cond, .. } => {
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push(')');
            }
            StmtKind::While { cond, .. } => {
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push(')');
            }
            StmtKind::For { cond, .. } => {
                self.out.push_str("for (");
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push(')');
            }
            StmtKind::Return(v) => {
                self.out.push_str("return");
                if let Some(e) = v {
                    self.out.push(' ');
                    self.expr(e);
                }
            }
            StmtKind::ExprStmt(e) => self.expr(e),
            StmtKind::Print(e) => {
                self.out.push_str("print(");
                self.expr(e);
                self.out.push(')');
            }
            StmtKind::Assert(e) => {
                self.out.push_str("assert(");
                self.expr(e);
                self.out.push(')');
            }
            StmtKind::Sync(sync) => match sync {
                SyncStmt::P(s) => {
                    let _ = write!(self.out, "p({})", self.name(*s));
                }
                SyncStmt::V(s) => {
                    let _ = write!(self.out, "v({})", self.name(*s));
                }
                SyncStmt::Lock(s) => {
                    let _ = write!(self.out, "lock({})", self.name(*s));
                }
                SyncStmt::Unlock(s) => {
                    let _ = write!(self.out, "unlock({})", self.name(*s));
                }
                SyncStmt::Send { to, value } => {
                    let _ = write!(self.out, "send({}, ", self.name(*to));
                    self.expr(value);
                    self.out.push(')');
                }
                SyncStmt::ASend { to, value } => {
                    let _ = write!(self.out, "asend({}, ", self.name(*to));
                    self.expr(value);
                    self.out.push(')');
                }
                SyncStmt::Recv { from, into } => {
                    self.out.push_str("recv(");
                    if let Some(from) = from {
                        let _ = write!(self.out, "{}, ", self.name(*from));
                    }
                    self.lvalue(into);
                    self.out.push(')');
                }
                SyncStmt::Rendezvous { callee, value } => {
                    let _ = write!(self.out, "rendezvous({}, ", self.name(*callee));
                    self.expr(value);
                    self.out.push(')');
                }
                SyncStmt::Accept { param, .. } => {
                    let _ = write!(self.out, "accept ({})", self.name(*param));
                }
            },
        }
    }

    fn lvalue(&mut self, lv: &LValue) {
        self.out.push_str(self.name(lv.name));
        if let Some(ix) = &lv.index {
            self.out.push('[');
            self.expr(ix);
            self.out.push(']');
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::IntLit(n) => {
                let _ = write!(self.out, "{n}");
            }
            ExprKind::BoolLit(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::Var(name) => self.out.push_str(self.name(*name)),
            ExprKind::Index(name, ix) => {
                self.out.push_str(self.name(*name));
                self.out.push('[');
                self.expr(ix);
                self.out.push(']');
            }
            ExprKind::Unary(op, e) => {
                self.out.push_str(op.symbol());
                if matches!(e.kind, ExprKind::Binary(_, _, _)) {
                    self.out.push('(');
                    self.expr(e);
                    self.out.push(')');
                } else {
                    self.expr(e);
                }
            }
            ExprKind::Binary(op, l, r) => {
                self.maybe_paren(l, *op, true);
                let _ = write!(self.out, " {} ", op.symbol());
                self.maybe_paren(r, *op, false);
            }
            ExprKind::Call(name, args) => {
                self.out.push_str(self.name(*name));
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::Input => self.out.push_str("input()"),
        }
    }

    fn maybe_paren(&mut self, child: &Expr, parent: BinOp, is_left: bool) {
        let need = match &child.kind {
            ExprKind::Binary(cop, _, _) => {
                let (pp, cp) = (prec(parent), prec(*cop));
                cp < pp || (cp == pp && !is_left)
            }
            _ => false,
        };
        if need {
            self.out.push('(');
            self.expr(child);
            self.out.push(')');
        } else {
            self.expr(child);
        }
    }
}

fn prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        Or => 1,
        And => 2,
        Eq | Ne | Lt | Le | Gt | Ge => 3,
        Add | Sub => 4,
        Mul | Div | Rem => 5,
    }
}

fn render_expr(e: &Expr, interner: &Interner) -> String {
    let mut p = Printer::new(interner);
    p.expr(e);
    p.out
}

fn head_of(s: &Stmt, interner: &Interner) -> String {
    let mut p = Printer::new(interner);
    p.stmt_head(s);
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap();
        let printed = program_to_string(&p1);
        let p2 =
            parse(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\nprinted:\n{printed}"));
        let printed2 = program_to_string(&p2);
        assert_eq!(printed, printed2, "printing is not a fixed point");
    }

    #[test]
    fn round_trips_representative_programs() {
        round_trip("shared int x; sem s = 1; process Main { p(s); x = x + 1; v(s); }");
        round_trip(
            "int f(int a, int b) { if (a > b) { return a; } else { return b; } } \
             process Main { print(f(1, 2)); }",
        );
        round_trip(
            "shared int a[4]; lockvar m; process P { lock(m); a[0] = a[1] * 2; unlock(m); } \
             process Q { int i; for (i = 0; i < 4; i = i + 1) { print(a[i]); } }",
        );
        round_trip("process S { accept (x) { print(x); } } process C { rendezvous(S, 9); }");
        round_trip("process M { int x = input(); while (x > 0) { x = x - 1; } assert(x == 0); }");
        round_trip(
            "chan c; chan done;\
             void pump(chan q, int n) { send(q, n); }\
             process P { pump(c, 5); send(done, true); }\
             process Q { int x; recv(c, x); int f; recv(done, f); assert(f == true); }",
        );
    }

    #[test]
    fn precedence_preserved_through_printing() {
        let src = "process M { int x = 1 + 2 * 3 - (4 - 5) - 6; print((1 + 2) * 3); }";
        let p = parse(src).unwrap();
        let printed = program_to_string(&p);
        assert!(printed.contains("1 + 2 * 3 - (4 - 5) - 6"), "{printed}");
        assert!(printed.contains("(1 + 2) * 3"), "{printed}");
    }

    #[test]
    fn stmt_labels_match_figure_style() {
        let src = "shared int d; process M { if (d > 0) { d = d - 1; } }";
        let p = parse(src).unwrap();
        let proc = p.processes().next().unwrap();
        let if_stmt = &proc.body.stmts[0];
        assert_eq!(stmt_label(if_stmt, &p.interner), "if (d > 0)");
        let StmtKind::If { then_blk, .. } = &if_stmt.kind else { panic!() };
        assert_eq!(stmt_label(&then_blk.stmts[0], &p.interner), "d = d - 1");
    }
}
