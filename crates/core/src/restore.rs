//! State restoration and what-if replay (§5.7).
//!
//! "The accumulation of the information carried by all the postlogs from
//! the first postlog up to postlog(i) is the same as the information
//! carried by the program state at the time at which postlog(i) is made."
//! This module rebuilds shared-memory state at any logical time from the
//! logs, and supports the paper's experiment of changing variable values
//! and re-running from the same point.

use crate::replay::ReplayEngine;
use crate::session::{Execution, PpdSession};
use crate::PpdError;
use ppd_lang::{ProcId, Value, VarId};
use ppd_log::{IntervalRef, LogEntry};
use ppd_runtime::{ReplayResult, TraceEvent, Tracer};

/// Rebuilds the values of all shared variables at logical time `t` by
/// replaying the logs' value records in time order. Every process's log
/// is read through a [`ppd_log::LogCursor`], the reader replay uses.
///
/// # Errors
///
/// Returns [`PpdError::Store`] if a log entry is damaged.
pub fn shared_state_at(
    session: &PpdSession,
    execution: &Execution,
    t: u64,
) -> Result<Vec<Value>, PpdError> {
    let rp = session.rp();
    // Initial shared state.
    let mut state: Vec<Value> = rp.vars[..rp.shared_count as usize]
        .iter()
        .map(|v| match v.size {
            Some(n) => Value::Array(vec![0; n]),
            None => Value::Int(v.init.unwrap_or(0)),
        })
        .collect();

    // Merge the value records up to `t` of all processes by timestamp
    // (stable, so equal times keep process order) and apply them.
    let mut records: Vec<(u64, Vec<(VarId, Value)>)> = Vec::new();
    for p in 0..execution.logs.process_count() {
        let mut cursor = execution.logs.cursor(ProcId(p as u32), 0);
        while let Some(e) = cursor.next_entry()? {
            let time = e.time();
            match e {
                LogEntry::Prelog { values, .. }
                | LogEntry::Postlog { values, .. }
                | LogEntry::SharedSnapshot { values, .. }
                    if time <= t =>
                {
                    records.push((time, values))
                }
                _ => {}
            }
        }
    }
    records.sort_by_key(|&(time, _)| time);
    for (var, value) in records.into_iter().flat_map(|(_, values)| values) {
        if rp.is_shared(var) {
            state[var.index()] = value;
        }
    }
    Ok(state)
}

/// Result of a what-if replay.
#[derive(Debug)]
pub struct WhatIfResult {
    /// How the modified replay ended.
    pub result: ReplayResult,
    /// The trace of the modified execution.
    pub events: Vec<TraceEvent>,
}

/// Replays `interval` with some variables overridden — "the user could
/// change the values of variables and re-start the program from the same
/// point to see the effect of these changes on program behavior" (§5.7).
///
/// The replay runs in *what-if* mode: logged shared snapshots are not
/// re-applied (they would overwrite the modification), and nested calls
/// are expanded rather than substituted (their logged postlogs describe
/// the unmodified execution).
///
/// # Errors
///
/// Returns [`PpdError::Store`] if a log entry the replay needs is
/// damaged.
pub fn what_if_replay(
    session: &PpdSession,
    execution: &Execution,
    interval: IntervalRef,
    changes: &[(VarId, Value)],
) -> Result<WhatIfResult, PpdError> {
    ReplayEngine::new(session, execution).what_if(interval, changes)
}

/// Replays `interval` faithfully and streams its events into `tracer` —
/// a convenience for examining "the effect" baseline before a what-if.
/// If the original execution halted mid-interval at a breakpoint or
/// deadlock, the replay stops at the same statement.
///
/// # Errors
///
/// Returns [`PpdError::Store`] if a log entry the replay needs is
/// damaged.
pub fn faithful_replay(
    session: &PpdSession,
    execution: &Execution,
    interval: IntervalRef,
    tracer: &mut dyn Tracer,
) -> Result<ReplayResult, PpdError> {
    ReplayEngine::new(session, execution).faithful(interval, tracer)
}

/// Where a replay of `interval` must stop to mirror the original halt:
/// the breakpoint statement (if this process hit it) or the statement a
/// deadlocked process is blocked at. `None` for completed/failed runs —
/// failures re-occur naturally during replay.
pub fn halt_stop_at(execution: &Execution, interval: IntervalRef) -> Option<ppd_lang::StmtId> {
    use ppd_runtime::Outcome;
    // Only intervals still open at the halt stop early: a *completed*
    // interval may well contain the breakpoint statement (e.g. earlier
    // loop iterations) and must replay in full.
    if interval.postlog_pos.is_some() {
        return None;
    }
    match &execution.outcome {
        Outcome::Breakpoint { proc, stmt } if *proc == interval.proc => Some(*stmt),
        Outcome::Deadlock { blocked } => {
            blocked.iter().find(|(p, _, _)| *p == interval.proc).map(|&(_, _, stmt)| stmt)
        }
        _ => None,
    }
}
