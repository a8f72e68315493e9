//! The program database (§3.2.1, §4.1).
//!
//! "The program database contains information on the program text such as
//! the places where an identifier is defined or used." What the debugger
//! reads of it is where each statement sits in the source: diagnostics
//! point at a statement's span, outcome lines name its line, and a
//! breakpoint maps a line to the statements starting on it. Per-variable
//! definition and use sets live in [`crate::usedef`], the GMOD/GREF
//! closures in [`crate::interproc`].

use ppd_lang::ast::walk_stmts;
use ppd_lang::{IdTable, ResolvedProgram, Span, StmtId};

/// The program database: the source span of every statement.
#[derive(Debug, Clone)]
pub struct ProgramDatabase {
    span_of: IdTable<StmtId, Span>,
}

impl ProgramDatabase {
    /// Records the span of every statement of every body.
    pub fn build(rp: &ResolvedProgram) -> ProgramDatabase {
        let mut span_of = IdTable::new();
        for body in rp.bodies() {
            walk_stmts(rp.body_block(body), &mut |stmt| {
                span_of.insert(stmt.id, stmt.span);
            });
        }
        ProgramDatabase { span_of }
    }

    /// The source span of `stmt`.
    pub fn span_of(&self, stmt: StmtId) -> Option<Span> {
        self.span_of.get(&stmt).copied()
    }

    /// The source line of `stmt` (1-based), if known.
    pub fn line_of(&self, stmt: StmtId) -> Option<u32> {
        self.span_of(stmt).map(|s| s.line)
    }

    /// All statements starting on source line `line`, in id order — how
    /// a debugger UI maps "break at line N" to statements.
    pub fn stmts_at_line(&self, line: u32) -> Vec<StmtId> {
        self.span_of.iter().filter(|(_, span)| span.line == line).map(|(stmt, _)| stmt).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> (ResolvedProgram, ProgramDatabase) {
        let rp = ppd_lang::compile(src).unwrap();
        let db = ProgramDatabase::build(&rp);
        (rp, db)
    }

    #[test]
    fn every_statement_has_its_span() {
        let (rp, db) = build("shared int x;\nprocess M {\n  x = 1;\n  print(x);\n}");
        let mut stmts = Vec::new();
        for body in rp.bodies() {
            walk_stmts(rp.body_block(body), &mut |s| stmts.push((s.id, s.span)));
        }
        assert_eq!(stmts.len(), 2);
        for (id, span) in stmts {
            assert_eq!(db.span_of(id), Some(span));
            assert_eq!(db.line_of(id), Some(span.line));
        }
        assert_eq!(db.span_of(StmtId(99)), None);
        assert_eq!(db.line_of(StmtId(99)), None);
    }

    #[test]
    fn stmts_at_line_lists_statements_starting_there_in_id_order() {
        let (_, db) = build(
            "shared int x;\nprocess M {\n  x = 1; x = 2;\n  print(x);\n}\nprocess N { x = 3; }",
        );
        let on_3 = db.stmts_at_line(3);
        assert_eq!(on_3.len(), 2);
        assert!(on_3[0] < on_3[1]);
        assert_eq!(db.stmts_at_line(4).len(), 1);
        assert_eq!(db.stmts_at_line(6).len(), 1);
        assert!(db.stmts_at_line(1).is_empty(), "a declaration is not a statement");
        assert!(db.stmts_at_line(99).is_empty());
    }
}
