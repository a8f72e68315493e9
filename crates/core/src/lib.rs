//! # ppd-core — the Parallel Program Debugger
//!
//! The integrated debugging system of Miller & Choi (PLDI 1988),
//! organized in the paper's three phases:
//!
//! 1. **Preparatory phase** ([`PpdSession::prepare`]) — the
//!    Compiler/Linker: semantic analyses, static program dependence
//!    graph, program database, e-block plan (§3.2.1);
//! 2. **Execution phase** ([`PpdSession::execute`]) — the instrumented
//!    object code runs, writing one log per process and building the
//!    parallel dynamic graph (§3.2.2);
//! 3. **Debugging phase** ([`Controller`]) — flowback analysis over a
//!    dynamic graph built incrementally by replaying exactly the log
//!    intervals the user asks about (§3.2.3, §5), plus race detection
//!    (§6) and state restoration / what-if replay (§5.7, [`restore`]).
//!
//! ## Quickstart
//!
//! ```
//! use ppd_core::{Controller, PpdSession, RunConfig};
//! use ppd_analysis::EBlockStrategy;
//!
//! # fn main() -> Result<(), ppd_core::PpdError> {
//! // A bug: `gain` is always 0, so the final division fails.
//! let session = PpdSession::prepare(
//!     ppd_lang::corpus::FLOWBACK_DEMO.source,
//!     EBlockStrategy::per_subroutine(),
//! )?;
//! let mut config = RunConfig::default();
//! config.inputs = vec![vec![42, 10]];
//! let execution = session.execute(config);
//! assert!(execution.outcome.is_failure());
//!
//! // Debugging: flow back from the failure.
//! let mut controller = Controller::new(&session, &execution);
//! let root = controller.start()?;
//! let causes = controller.flowback(root);
//! assert!(!causes.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod controller;
pub mod replay;
pub mod restore;
pub mod session;

#[cfg(test)]
mod tests;

pub use builder::{FeedReport, GraphBuilder, SubstitutedRef};
pub use cache::TraceCache;
pub use controller::{Controller, DeadlockEntry, RaceReport};
pub use replay::{ratio, DebugStats, ReplayEngine};
pub use restore::{faithful_replay, halt_stop_at, shared_state_at, what_if_replay, WhatIfResult};
pub use session::{Execution, PpdSession, RunConfig};

use std::error::Error;
use std::fmt;

/// Errors from the PPD system.
#[derive(Debug)]
pub enum PpdError {
    /// A parse or resolution error in the source program.
    Lang(ppd_lang::LangError),
    /// A debugging-phase failure (missing interval, bad expansion, ...).
    Debugging(String),
    /// A failure saving or loading the on-disk log store.
    Store(String),
}

impl fmt::Display for PpdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PpdError::Lang(e) => write!(f, "language error: {e}"),
            PpdError::Debugging(m) => write!(f, "debugging error: {m}"),
            PpdError::Store(m) => write!(f, "log store error: {m}"),
        }
    }
}

impl Error for PpdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PpdError::Lang(e) => Some(e),
            PpdError::Debugging(_) | PpdError::Store(_) => None,
        }
    }
}

impl From<ppd_log::SegError> for PpdError {
    fn from(e: ppd_log::SegError) -> Self {
        PpdError::Store(e.to_string())
    }
}

impl From<ppd_lang::LangError> for PpdError {
    fn from(e: ppd_lang::LangError) -> Self {
        PpdError::Lang(e)
    }
}
