//! Log entry types (§3.2.2, §5.1, §5.5).
//!
//! During the execution phase the object code appends entries to one log
//! file per process (§5.6):
//!
//! - **prelogs** — at each e-block entry, the values of the variables in
//!   the block's USED set;
//! - **postlogs** — at each e-block exit, the values of the DEFINED set
//!   (plus the return value for function blocks);
//! - **shared snapshots** — at each synchronization-unit start (§5.5),
//!   the values of the shared variables the unit may read;
//! - **external values** — `input()` results and received message
//!   payloads, which replay cannot recompute.

use ppd_analysis::EBlockId;
use ppd_lang::{StmtId, Value, VarId};

/// A single log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// E-block entry: the USED-set values at interval start.
    Prelog {
        /// The e-block entered.
        eblock: EBlockId,
        /// Which dynamic instance of the e-block this is (per process).
        instance: u64,
        /// Saved `(variable, value)` pairs.
        values: Vec<(VarId, Value)>,
        /// Global logical time.
        time: u64,
    },
    /// E-block exit: the DEFINED-set values at interval end.
    Postlog {
        /// The e-block exited.
        eblock: EBlockId,
        /// Matching prelog instance.
        instance: u64,
        /// Saved `(variable, value)` pairs.
        values: Vec<(VarId, Value)>,
        /// The function's return value, if the block is a function body
        /// that returned one.
        ret: Option<Value>,
        /// Global logical time.
        time: u64,
    },
    /// Synchronization-unit start: values of the shared variables the
    /// unit may read (the "additional prelog" of §5.5).
    SharedSnapshot {
        /// The boundary statement, or `None` for body entry.
        at: Option<StmtId>,
        /// Saved `(variable, value)` pairs (shared variables only).
        values: Vec<(VarId, Value)>,
        /// Global logical time.
        time: u64,
    },
    /// A value read from the program's input stream.
    Input {
        /// The value `input()` returned.
        value: i64,
        /// Global logical time.
        time: u64,
    },
    /// A message payload delivered by `recv` or bound by `accept`.
    Receive {
        /// The delivered value.
        value: i64,
        /// Global logical time.
        time: u64,
    },
    /// One array-element read, recorded when the e-block strategy uses
    /// element-granular array logging (§7's "record all uses" option);
    /// replay consumes these instead of re-reading array memory.
    ElementRead {
        /// The value the read returned.
        value: i64,
        /// Global logical time.
        time: u64,
    },
}

impl LogEntry {
    /// The entry's logical timestamp.
    pub fn time(&self) -> u64 {
        match self {
            LogEntry::Prelog { time, .. }
            | LogEntry::Postlog { time, .. }
            | LogEntry::SharedSnapshot { time, .. }
            | LogEntry::Input { time, .. }
            | LogEntry::Receive { time, .. }
            | LogEntry::ElementRead { time, .. } => *time,
        }
    }

    /// Approximate on-disk size in bytes — the currency of experiment E2
    /// (log volume vs full-trace volume). 16 bytes of framing per entry
    /// plus 4+`logged_size` per saved value.
    pub fn size_bytes(&self) -> usize {
        let values_size =
            |vs: &[(VarId, Value)]| vs.iter().map(|(_, v)| 4 + v.logged_size()).sum::<usize>();
        16 + match self {
            LogEntry::Prelog { values, .. } => values_size(values),
            LogEntry::Postlog { values, ret, .. } => {
                values_size(values) + ret.as_ref().map_or(0, |r| r.logged_size())
            }
            LogEntry::SharedSnapshot { values, .. } => values_size(values),
            LogEntry::Input { .. } | LogEntry::Receive { .. } | LogEntry::ElementRead { .. } => 8,
        }
    }

    /// Short tag for statistics tables.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogEntry::Prelog { .. } => "prelog",
            LogEntry::Postlog { .. } => "postlog",
            LogEntry::SharedSnapshot { .. } => "shared",
            LogEntry::Input { .. } => "input",
            LogEntry::Receive { .. } => "receive",
            LogEntry::ElementRead { .. } => "element",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_accounting() {
        let e = LogEntry::Prelog {
            eblock: EBlockId(0),
            instance: 0,
            values: vec![(VarId(0), Value::Int(1)), (VarId(1), Value::Array(vec![0; 4]))],
            time: 0,
        };
        // 16 + (4+8) + (4+32)
        assert_eq!(e.size_bytes(), 64);
        let i = LogEntry::Input { value: 3, time: 1 };
        assert_eq!(i.size_bytes(), 24);
    }

    #[test]
    fn kind_names_and_times() {
        let e = LogEntry::Receive { value: 1, time: 42 };
        assert_eq!(e.kind_name(), "receive");
        assert_eq!(e.time(), 42);
    }
}
