//! # ppd-lang — the PPD source language
//!
//! The source language of the PPD debugger (Miller & Choi, *A Mechanism
//! for Efficient Debugging of Parallel Programs*, PLDI 1988): a small
//! C-like imperative language with processes, shared variables and the
//! synchronization operations the paper constructs synchronization edges
//! for (§6.2) — semaphores, locks, blocking/non-blocking messages and
//! Ada-style rendezvous.
//!
//! ## Pipeline
//!
//! ```text
//! &str --lexer--> Vec<Token> --parser--> Program --resolve--> ResolvedProgram
//! ```
//!
//! The [`ResolvedProgram`] binds every identifier occurrence to dense ids
//! ([`VarId`], [`FuncId`], [`ProcId`], [`SemId`]) so downstream analyses
//! can use flat side tables.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), ppd_lang::LangError> {
//! let rp = ppd_lang::compile(
//!     "shared int x; sem s = 1; \
//!      process Main { p(s); x = x + 1; v(s); print(x); }",
//! )?;
//! assert_eq!(rp.procs.len(), 1);
//! assert_eq!(rp.sems.len(), 1);
//! assert!(rp.is_shared(ppd_lang::VarId(0)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cells;
pub mod corpus;
pub mod diag;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod span;
pub mod symbol;
pub mod table;
pub mod token;
pub mod types;
pub mod value;

pub use ast::{
    BinOp, Block, Expr, ExprId, ExprKind, FuncDecl, GlobalDecl, Ident, Item, LValue, ProcessDecl,
    Program, SemDecl, SemKind, Stmt, StmtId, StmtKind, SyncStmt, UnOp,
};
pub use cells::CellMap;
pub use diag::SourceFile;
pub use error::{LangError, LangErrorKind};
pub use parser::parse;
pub use resolve::{
    compile, resolve, BodyId, ChanId, ChanInfo, ChanRef, FuncId, FuncInfo, ProcId, ProcInfo,
    ResolvedProgram, SemId, SemInfo, VarId, VarInfo, VarScope,
};
pub use span::Span;
pub use symbol::{Interner, Symbol};
pub use table::{DenseId, FxMap, IdTable};
pub use types::{check, SharedWrite, Ty, TypeCheck, TypeError, TypeErrorKind, TypeInfo};
pub use value::Value;
