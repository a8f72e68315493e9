//! # ppd-log — the incremental-tracing log model
//!
//! "The cornerstone of the need-to-generate concept is to generate a
//! small amount of information, called a log, during execution and fill
//! incrementally, during the interactive portion of the debugging
//! session, the gap between the information gathered in the log and the
//! information needed to do the flowback analysis" (§3.1).
//!
//! This crate defines the log records ([`LogEntry`]), the per-process
//! log files and whole-execution [`LogStore`] (§5.6), the log-interval
//! index ([`IntervalRef`] / [`IntervalIndex`], §5.1) and the
//! [`LogCursor`] that e-block replay consumes entries from — including
//! the nested-interval postlog substitution of §5.2 / Figure 5.2. The
//! [`IntervalIndex`] is built once per execution by a single-pass stack
//! matching of prelog/postlog pairs and serves all interval queries in
//! O(1) amortized time.
//!
//! For out-of-core logs, [`segment`] defines an append-only segmented
//! on-disk format whose CRC-guarded footers carry counts, offsets and a
//! structural digest, over the compact [`binio`] entry codec:
//! [`SegmentedLog`] opens a directory by `mmap` + footer decode (no
//! full rescan — the [`IntervalIndex`] rebuilds from digests), and
//! decodes a process's entries lazily from the mapped bytes. A
//! [`LogStore`] serves the same queries over either backing.
//!
//! ## Example
//!
//! ```
//! use ppd_log::{LogEntry, LogStore};
//! use ppd_analysis::EBlockId;
//! use ppd_lang::ProcId;
//!
//! let mut store = LogStore::new(1);
//! store.push(ProcId(0), LogEntry::Prelog {
//!     eblock: EBlockId(0), instance: 0, values: vec![], time: 0,
//! });
//! assert_eq!(store.open_intervals(ProcId(0)).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod binio;
pub mod entry;
pub mod index;
pub mod mmap;
pub mod segment;
pub mod store;

pub use binio::{BinError, BinErrorKind};
pub use entry::LogEntry;
pub use index::IntervalIndex;
pub use segment::{
    BlockMeta, HeatRecord, RecoveredTail, RefreshStats, SegError, SegmentFormat, SegmentMeta,
    SegmentWriter, SegmentedLog, SinkReport, VerifyReport, DEFAULT_BLOCK_BYTES,
    DEFAULT_SEGMENT_BYTES,
};
pub use store::{IntervalRef, LogCursor, LogStore, ProcessLog};
