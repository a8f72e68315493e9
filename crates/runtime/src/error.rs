//! Runtime failures — the paper's "externally visible symptoms" (§1)
//! that trigger a debugging session.

use ppd_lang::{ProcId, StmtId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A failure during program execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeError {
    /// Division by zero.
    DivideByZero,
    /// Remainder by zero.
    RemainderByZero,
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// An `assert` evaluated to zero.
    AssertFailed,
    /// `input()` was called but the input stream was exhausted.
    InputExhausted,
    /// A local variable was read before its declaration executed
    /// (possible only via replay of a mid-body region with an
    /// incomplete prelog — indicates a plan bug).
    UninitializedLocal,
    /// A `chan` parameter held a value that names no channel. The
    /// resolver and `ppd check` rule this out for well-formed programs;
    /// it can only arise from a corrupted binding.
    InvalidChannel(i64),
    /// Replay needed a log entry that was not found where expected.
    LogMismatch(String),
    /// Replay could not read a log entry: the on-disk store is damaged.
    /// The message names the segment file and block.
    LogUnreadable(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DivideByZero => write!(f, "division by zero"),
            RuntimeError::RemainderByZero => write!(f, "remainder by zero"),
            RuntimeError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of length {len}")
            }
            RuntimeError::AssertFailed => write!(f, "assertion failed"),
            RuntimeError::InputExhausted => write!(f, "input stream exhausted"),
            RuntimeError::UninitializedLocal => write!(f, "read of uninitialized local"),
            RuntimeError::InvalidChannel(v) => {
                write!(f, "value {v} does not name a channel")
            }
            RuntimeError::LogMismatch(m) => write!(f, "log mismatch during replay: {m}"),
            RuntimeError::LogUnreadable(m) => write!(f, "unreadable log during replay: {m}"),
        }
    }
}

impl Error for RuntimeError {}

impl From<ppd_log::SegError> for RuntimeError {
    fn from(e: ppd_log::SegError) -> RuntimeError {
        RuntimeError::LogUnreadable(e.to_string())
    }
}

/// Why a process is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockReason {
    /// Waiting in a semaphore's queue.
    Semaphore(ppd_lang::SemId),
    /// Waiting for a lock.
    LockWait(ppd_lang::SemId),
    /// Waiting for a message to arrive.
    AwaitMessage,
    /// Waiting for a message on a specific channel.
    AwaitChannel(ppd_lang::ChanId),
    /// A blocking send waiting for its receiver.
    AwaitDelivery,
    /// A rendezvous caller waiting for accept (or the accept body).
    AwaitRendezvous,
    /// An `accept` waiting for a caller.
    AwaitRendezvousCall,
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::Semaphore(s) => write!(f, "waiting on semaphore {s}"),
            BlockReason::LockWait(s) => write!(f, "waiting on lock {s}"),
            BlockReason::AwaitMessage => write!(f, "waiting for a message"),
            BlockReason::AwaitChannel(c) => write!(f, "waiting on channel {}", c.0),
            BlockReason::AwaitDelivery => write!(f, "blocking send awaiting receiver"),
            BlockReason::AwaitRendezvous => write!(f, "rendezvous call awaiting completion"),
            BlockReason::AwaitRendezvousCall => write!(f, "accept awaiting a caller"),
        }
    }
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Every process ran to completion.
    Completed,
    /// A process failed; all processes were halted (§5.7's timely halt).
    Failed {
        /// The failing process.
        proc: ProcId,
        /// The failing statement.
        stmt: StmtId,
        /// What went wrong.
        error: RuntimeError,
    },
    /// No process could make progress.
    Deadlock {
        /// Each blocked process, why it is blocked, and the statement it
        /// is blocked at (for replaying exactly up to the block point).
        blocked: Vec<(ProcId, BlockReason, StmtId)>,
    },
    /// The step budget was exhausted (runaway loop guard).
    StepLimit,
    /// Execution halted at a breakpoint — the paper's "user
    /// intervention" halt (§3.2.2, \[24\]): all processes stop in a
    /// timely fashion and the debugging phase can begin.
    Breakpoint {
        /// The process that hit the breakpoint.
        proc: ProcId,
        /// The statement about to execute.
        stmt: StmtId,
    },
}

impl Outcome {
    /// Whether the execution completed without failure.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Completed)
    }

    /// Whether the program halted due to an error — the condition that
    /// starts the debugging phase.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }

    /// Whether the execution deadlocked.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Outcome::Deadlock { .. })
    }

    /// Whether execution stopped at a breakpoint.
    pub fn is_breakpoint(&self) -> bool {
        matches!(self, Outcome::Breakpoint { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(RuntimeError::DivideByZero.to_string(), "division by zero");
        let e = RuntimeError::IndexOutOfBounds { index: -1, len: 4 };
        assert!(e.to_string().contains("-1"));
        assert!(BlockReason::AwaitMessage.to_string().contains("message"));
    }

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Completed.is_success());
        let f =
            Outcome::Failed { proc: ProcId(0), stmt: StmtId(0), error: RuntimeError::AssertFailed };
        assert!(f.is_failure());
        assert!(!f.is_success());
        assert!(Outcome::Deadlock { blocked: vec![] }.is_deadlock());
    }
}
