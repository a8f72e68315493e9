//! The on-disk segmented log format (out-of-core log store).
//!
//! A production debugger must open the log of a long run without
//! rescanning it. A log directory holds one append-only **segment
//! file** per (process, sequence-number) pair plus a tiny
//! `manifest.json`; each segment carries, in a CRC-guarded footer,
//! everything the structural queries need — entry/byte counts, a time
//! span, per-entry payload offsets, and a **digest** of its prelog and
//! postlog events. Opening a directory is therefore `mmap` + footer
//! decode: the global [`IntervalIndex`] is rebuilt from the digests by
//! the same stack-matching builder the in-memory scan uses, and no
//! entry is decoded until a replay consumes it. A replay reads its
//! interval through a [`crate::LogCursor`], which inflates one payload
//! block at a time and decodes only the entries it hands out; a nested
//! interval is jumped over through the index, so only its postlog is
//! decoded. Callers that want a whole process
//! ([`SegmentedLog::process_log`]) decode it once and cache it.
//!
//! ## Segment layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   "PPDS" ver  proc  seq  base_seq          (varints)  │
//! │ payload  lzb frame … lzb frame       (whole binio entries    │
//! │          per frame; raw or compressed, checksummed)          │
//! │ footer   payload_crc:u32le                                   │
//! │          entry_count payload_len logical_bytes               │
//! │          counts[6] min_time max_time                         │
//! │          offsets (delta varints)  digest (pre/postlog events)│
//! │          block table (uncomp_len stored_len per block)       │
//! │ trailer  footer_len:u32le  footer_crc:u32le  "PPDF"          │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! There is one segment version, [`SEGMENT_VERSION`]; a header naming
//! any other is corruption wherever the file sits, never a misparse.
//! The payload is split into fixed-target blocks
//! (~[`DEFAULT_BLOCK_BYTES`] uncompressed, whole entries only), each
//! framed independently with the vendored `lzb` compressor — either
//! actually compressed ([`SegmentFormat::V2Compressed`]) or through the
//! raw escape ([`SegmentFormat::V2Raw`]), so incompressible data costs
//! at most a few framing bytes. The footer's block table maps
//! uncompressed offsets to file offsets; entry offsets stay
//! *uncompressed*-relative, so a reader binary-searches the table and
//! decompresses exactly the block holding the entry it wants (a
//! checksum or size mismatch is a [`SegError`] naming the segment and
//! block), while `verify` decompresses segments in parallel through the
//! vendored [`rayon::par_map`].
//!
//! Two CRC-32s guard a segment — [`lzb::crc32`], the IEEE checksum the
//! block frames carry too — split so that open-time cost is
//! proportional to the *footer*, not the log: the trailer's
//! `footer_crc` covers the footer body and is checked when the
//! directory is opened (a corrupt index must never be trusted), while
//! the footer's `payload_crc` covers the header + stored payload and
//! is checked by [`SegmentedLog::verify`] — the same deferred-payload
//! split LSM stores use, so a gigabyte log opens without touching a
//! gigabyte of bytes.
//!
//! ## Live tails
//!
//! A segment without a valid trailer is **unsealed**. Since the writer
//! flushes sealed frames incrementally ([`SegmentWriter::flush`]), an
//! unsealed final segment is not garbage — it is the live tail of a
//! run that is still going (or was killed mid-flush). Open scans it
//! checksummed frame by frame to the last valid entry and serves the
//! recovered prefix like any other entries.
//! An unsealed segment that is *not* its process's last file is a hard
//! corruption error, as before.

use crate::binio::{self, BinError, Reader};
use crate::entry::LogEntry;
use crate::index::{IntervalIndex, StructEvent};
use crate::mmap::Mapping;
use crate::store::{LogStore, ProcessLog};
use ppd_lang::ProcId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SEG_MAGIC: &[u8; 4] = b"PPDS";
const FOOT_MAGIC: &[u8; 4] = b"PPDF";
/// The segment version: block-framed payloads (raw or compressed). It is
/// also the manifest version.
pub const SEGMENT_VERSION: u8 = 2;
/// footer_len (4) + footer_crc (4) + "PPDF" (4).
const TRAILER_LEN: usize = 12;
/// Default payload capacity before a segment seals.
pub const DEFAULT_SEGMENT_BYTES: usize = 64 * 1024;
/// Target uncompressed bytes per payload block. Effective block
/// size is `min(capacity, DEFAULT_BLOCK_BYTES)`.
pub const DEFAULT_BLOCK_BYTES: usize = 256 * 1024;
/// The directory manifest file name.
pub const MANIFEST_NAME: &str = "manifest.json";
/// Fixed entry-kind order used by footer count tables (the binio tag
/// order).
pub const KIND_NAMES: [&str; 6] = ["prelog", "postlog", "shared", "input", "receive", "element"];

// ---------------------------------------------------------------------
// Errors, manifest, reports, formats
// ---------------------------------------------------------------------

/// A segmented-log failure.
#[derive(Debug)]
pub enum SegError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error.
        err: std::io::Error,
    },
    /// A sealed segment's bytes are structurally invalid (bad magic,
    /// CRC mismatch, inconsistent footer…).
    Corrupt {
        /// The offending segment file name.
        file: String,
        /// What exactly failed.
        detail: String,
    },
    /// Entry payload failed to decode ([`BinError`] carries the byte
    /// offset and segment context).
    Decode(BinError),
    /// The directory manifest is missing or malformed.
    Manifest(String),
}

impl fmt::Display for SegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            SegError::Corrupt { file, detail } => write!(f, "corrupt segment {file}: {detail}"),
            SegError::Decode(e) => write!(f, "segment payload: {e}"),
            SegError::Manifest(d) => write!(f, "log directory manifest: {d}"),
        }
    }
}

impl std::error::Error for SegError {}

impl From<BinError> for SegError {
    fn from(e: BinError) -> SegError {
        SegError::Decode(e)
    }
}

fn io_err(path: &Path, err: std::io::Error) -> SegError {
    SegError::Io { path: path.to_path_buf(), err }
}

/// A manifest-listed process with no segment file: data loss, not an
/// empty log, since the writer seals at least an empty segment 0.
fn no_segment_files(dir: &Path, proc: usize, listed: usize) -> SegError {
    SegError::Corrupt {
        file: segment_file_name(proc as u32, 0),
        detail: format!(
            "process {proc} has no segment files in {} (manifest lists {listed} processes)",
            dir.display()
        ),
    }
}

/// The `manifest.json` of a log directory: enough to know the process
/// count (processes that logged nothing have no segment files).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    format: String,
    version: u8,
    processes: usize,
}

/// How [`SegmentWriter`] frames payload blocks on disk. Both formats
/// write [`SEGMENT_VERSION`] segments and read back identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SegmentFormat {
    /// Block framing through the raw escape: walkable, checksummed
    /// frames without the compression cost.
    #[default]
    V2Raw,
    /// Block framing with lzb compression.
    V2Compressed,
}

impl SegmentFormat {
    /// Whether payload blocks go through the lzb matcher.
    pub fn compressed(self) -> bool {
        self == SegmentFormat::V2Compressed
    }
}

/// What a [`SegmentWriter`] (or [`LogStore::write_dir`]) produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// Sealed segment files written.
    pub segments: u64,
    /// Total file bytes written (headers + payloads + footers).
    pub bytes: u64,
    /// Entries appended.
    pub entries: u64,
}

/// What `ppd log verify` / [`SegmentedLog::verify`] checked.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Sealed segments whose CRC and payload decode were re-checked.
    pub segments: usize,
    /// Entries decoded and checked against footer metadata.
    pub entries: u64,
    /// Entries served from recovered unsealed tails (their frames were
    /// checksummed at scan time — not re-verified here).
    pub recovered: u64,
    /// Recovery warnings carried over from open (recovered or dropped
    /// unsealed tails).
    pub warnings: Vec<String>,
}

// ---------------------------------------------------------------------
// Segment metadata (parsed header + footer)
// ---------------------------------------------------------------------

/// A prelog/postlog digest event with a segment-local entry position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DigestEvent {
    pub(crate) is_prelog: bool,
    /// Entry position within this segment.
    pub(crate) pos: u64,
    pub(crate) eblock: u32,
    pub(crate) instance: u64,
    pub(crate) time: u64,
}

/// One payload block: where its uncompressed bytes fall in the
/// logical payload and where its stored frame falls in the file
/// (relative to the payload start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Uncompressed payload offset of the block's first byte.
    pub uncomp_off: u64,
    /// Uncompressed byte length.
    pub uncomp_len: u64,
    /// Stored frame offset, relative to the payload start.
    pub stored_off: u64,
    /// Stored frame length in the file.
    pub stored_len: u64,
}

/// Everything a segment's header and footer say about it — parsed
/// without touching the payload.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// File name within the log directory.
    pub file: String,
    /// Segment format version (always [`SEGMENT_VERSION`]).
    pub version: u8,
    /// Owning process.
    pub proc: u32,
    /// Sequence number within the process (0-based, contiguous).
    pub seq: u64,
    /// Global entry index (within the process log) of this segment's
    /// first entry.
    pub base_seq: u64,
    /// Entries in the payload.
    pub entry_count: u64,
    /// Uncompressed payload byte length.
    pub payload_len: u64,
    /// Stored payload byte length in the file.
    pub stored_len: u64,
    /// Sum of the entries' logical [`LogEntry::size_bytes`].
    pub logical_bytes: u64,
    /// Entry counts in [`KIND_NAMES`] order.
    pub counts: [u64; 6],
    /// Smallest entry time (0 when empty).
    pub min_time: u64,
    /// Largest entry time (0 when empty).
    pub max_time: u64,
    /// File offset where the payload begins.
    payload_start: usize,
    /// CRC32 of header + stored payload, stored in the footer and
    /// checked by [`SegmentedLog::verify`] (not at open).
    payload_crc: u32,
    /// Uncompressed-payload-relative byte offset of each entry.
    offsets: Vec<u64>,
    /// Prelog/postlog digest, in entry order.
    digest: Vec<DigestEvent>,
    /// Block table, in payload order.
    blocks: Vec<BlockMeta>,
}

impl SegmentMeta {
    /// File offset of the payload within the segment.
    pub fn payload_start(&self) -> usize {
        self.payload_start
    }

    /// Uncompressed-payload-relative byte offset of entry `i`.
    pub fn entry_offset(&self, i: usize) -> Option<u64> {
        self.offsets.get(i).copied()
    }

    /// The block table, in payload order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Number of stored payload blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// The canonical segment file name for `(proc, seq)`.
pub fn segment_file_name(proc: u32, seq: u64) -> String {
    format!("p{proc:04}-s{seq:06}.seg")
}

/// Parses a segment file name back to `(proc, seq)`.
fn parse_file_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix('p')?.strip_suffix(".seg")?;
    let (proc, seq) = rest.split_once("-s")?;
    Some((proc.parse().ok()?, seq.parse().ok()?))
}

/// The version byte of a complete segment header (magic plus version)
/// that names a version other than [`SEGMENT_VERSION`]. Such a file is
/// corrupt wherever it sits — never an unsealed tail to recover a
/// prefix from — so open rejects it before either parse below.
fn unsupported_version(bytes: &[u8]) -> Option<u8> {
    let version = *bytes.get(SEG_MAGIC.len())?;
    (bytes.starts_with(SEG_MAGIC) && version != SEGMENT_VERSION).then_some(version)
}

/// Parses header + footer of one sealed segment whose version
/// [`unsupported_version`] has accepted. `Err(detail)` means the bytes
/// are not a sealed segment (the caller decides whether that is a
/// recoverable unsealed tail or hard corruption).
fn parse_segment(file: &str, bytes: &[u8]) -> Result<SegmentMeta, String> {
    if bytes.len() < SEG_MAGIC.len() + 1 + TRAILER_LEN {
        return Err(format!("file too short ({} bytes) to be a sealed segment", bytes.len()));
    }
    if &bytes[..4] != SEG_MAGIC {
        return Err("bad segment magic".into());
    }
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    if &trailer[8..12] != FOOT_MAGIC {
        return Err("missing footer magic (unsealed segment)".into());
    }
    let footer_len = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]) as usize;
    let stored_crc = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    let body_end = bytes.len() - TRAILER_LEN;
    let footer_start = body_end
        .checked_sub(footer_len)
        .filter(|&s| s > SEG_MAGIC.len())
        .ok_or_else(|| format!("footer length {footer_len} exceeds file"))?;
    if footer_len < 4 {
        return Err(format!("footer length {footer_len} too short for payload crc"));
    }
    // Open-time integrity covers exactly the bytes open relies on: the
    // footer body. The payload crc stored inside it is deferred to
    // `verify`, keeping open O(footer) instead of O(log).
    let actual_crc = lzb::crc32(&bytes[footer_start..body_end]);
    if actual_crc != stored_crc {
        return Err(format!(
            "footer crc mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        ));
    }
    let payload_crc = u32::from_le_bytes([
        bytes[footer_start],
        bytes[footer_start + 1],
        bytes[footer_start + 2],
        bytes[footer_start + 3],
    ]);
    let err_str = |e: BinError| format!("footer decode failed: {e}");
    // Header varints.
    let mut h = Reader::with_base(&bytes[5..footer_start], 5);
    let proc = h.varint().map_err(err_str)? as u32;
    let seq = h.varint().map_err(err_str)?;
    let base_seq = h.varint().map_err(err_str)?;
    let payload_start = h.offset();
    // Footer body (after the fixed-width payload crc).
    let mut r = Reader::with_base(&bytes[footer_start + 4..body_end], footer_start + 4);
    let entry_count = r.varint().map_err(err_str)?;
    let payload_len = r.varint().map_err(err_str)?;
    let logical_bytes = r.varint().map_err(err_str)?;
    let mut counts = [0u64; 6];
    for c in &mut counts {
        *c = r.varint().map_err(err_str)?;
    }
    let min_time = r.varint().map_err(err_str)?;
    let max_time = r.varint().map_err(err_str)?;
    let n_offsets = r.varint().map_err(err_str)? as usize;
    if n_offsets as u64 != entry_count {
        return Err(format!("offset table has {n_offsets} entries, footer says {entry_count}"));
    }
    let mut offsets = Vec::with_capacity(n_offsets.min(1 << 20));
    let mut at = 0u64;
    for i in 0..n_offsets {
        let delta = r.varint().map_err(err_str)?;
        at = if i == 0 { delta } else { at + delta };
        offsets.push(at);
    }
    let n_digest = r.varint().map_err(err_str)? as usize;
    let mut digest = Vec::with_capacity(n_digest.min(1 << 20));
    let mut prev_pos = 0u64;
    for i in 0..n_digest {
        let is_prelog = r.byte().map_err(err_str)? != 0;
        let delta = r.varint().map_err(err_str)?;
        let pos = if i == 0 { delta } else { prev_pos + delta };
        prev_pos = pos;
        digest.push(DigestEvent {
            is_prelog,
            pos,
            eblock: r.varint().map_err(err_str)? as u32,
            instance: r.varint().map_err(err_str)?,
            time: r.varint().map_err(err_str)?,
        });
    }
    // The block table maps uncompressed payload offsets to stored frame
    // offsets, so readers can seek without decompressing the whole
    // payload.
    let n_blocks = r.varint().map_err(err_str)? as usize;
    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 16));
    let mut uoff = 0u64;
    let mut stored_len = 0u64;
    for _ in 0..n_blocks {
        let ulen = r.varint().map_err(err_str)?;
        let slen = r.varint().map_err(err_str)?;
        blocks.push(BlockMeta {
            uncomp_off: uoff,
            uncomp_len: ulen,
            stored_off: stored_len,
            stored_len: slen,
        });
        uoff += ulen;
        stored_len += slen;
    }
    if uoff != payload_len {
        return Err(format!(
            "block table uncompressed total {uoff} disagrees with payload length {payload_len}"
        ));
    }
    if payload_start + stored_len as usize != footer_start {
        return Err(format!(
            "block table stored total {stored_len} inconsistent with footer position {footer_start}"
        ));
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after footer body", r.remaining()));
    }
    Ok(SegmentMeta {
        file: file.to_string(),
        version: SEGMENT_VERSION,
        proc,
        seq,
        base_seq,
        entry_count,
        payload_len,
        stored_len,
        logical_bytes,
        counts,
        min_time,
        max_time,
        payload_start,
        payload_crc,
        offsets,
        digest,
        blocks,
    })
}

/// Which count slot (in [`KIND_NAMES`] order) an entry falls in.
fn kind_slot(e: &LogEntry) -> usize {
    match e {
        LogEntry::Prelog { .. } => 0,
        LogEntry::Postlog { .. } => 1,
        LogEntry::SharedSnapshot { .. } => 2,
        LogEntry::Input { .. } => 3,
        LogEntry::Receive { .. } => 4,
        LogEntry::ElementRead { .. } => 5,
    }
}

// ---------------------------------------------------------------------
// Writer (the runtime's streaming sink and `ppd log pack`)
// ---------------------------------------------------------------------

/// Per-process state of an in-progress segment.
#[derive(Debug, Default)]
struct ProcWriter {
    seq: u64,
    /// Global entry index of the current segment's first entry.
    base_seq: u64,
    /// Header + *stored* payload bytes (sealed lzb frames) accumulated
    /// so far.
    buf: Vec<u8>,
    /// Uncompressed entry bytes waiting to be framed as a block.
    block_buf: Vec<u8>,
    /// Sealed `(uncompressed_len, stored_len)` per block.
    blocks: Vec<(u64, u64)>,
    /// Uncompressed payload bytes already framed into `buf`.
    uncomp_len: u64,
    /// Bytes of `buf` already flushed to the segment file.
    flushed: usize,
    /// The open segment file, once anything has been flushed.
    file: Option<std::fs::File>,
    entries: u64,
    offsets: Vec<u64>,
    counts: [u64; 6],
    logical_bytes: u64,
    min_time: u64,
    max_time: u64,
    digest: Vec<DigestEvent>,
}

/// Streaming writer of a segmented log directory: entries are appended
/// one at a time (the runtime calls it from every log write), and a
/// segment is sealed — footer built, CRC stamped, file flushed — as
/// soon as its payload reaches capacity, **while the program is still
/// running**. Each segment's payload is framed into blocks as it
/// grows, and [`SegmentWriter::flush`] pushes the sealed frames to
/// disk so a live reader can recover them before the segment seals.
/// [`SegmentWriter::finish`] seals the partial tails and (re)writes the
/// manifest.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    capacity: usize,
    /// Uncompressed bytes per block.
    block_bytes: usize,
    format: SegmentFormat,
    procs: Vec<ProcWriter>,
    /// First I/O failure; once set, appends become no-ops so a full
    /// disk cannot take the traced program down with it.
    error: Option<String>,
    report: SinkReport,
}

impl SegmentWriter {
    /// Creates `dir` (if needed), writes the manifest, and prepares one
    /// stream per process, framing blocks in `format`. `capacity` is the
    /// payload size at which a segment seals; 0 means
    /// [`DEFAULT_SEGMENT_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns [`SegError::Io`] if the directory or manifest cannot be
    /// written.
    pub fn create(
        dir: &Path,
        processes: usize,
        capacity: usize,
        format: SegmentFormat,
    ) -> Result<SegmentWriter, SegError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let capacity = if capacity == 0 { DEFAULT_SEGMENT_BYTES } else { capacity };
        let mut w = SegmentWriter {
            dir: dir.to_path_buf(),
            capacity,
            block_bytes: capacity.clamp(1, DEFAULT_BLOCK_BYTES),
            format,
            procs: (0..processes).map(|_| ProcWriter::default()).collect(),
            error: None,
            report: SinkReport::default(),
        };
        w.write_manifest(processes)?;
        for p in 0..processes {
            w.begin_segment(p);
        }
        Ok(w)
    }

    /// Overrides the uncompressed block target — used by tests and
    /// benches to force multi-block segments.
    pub fn with_block_bytes(mut self, bytes: usize) -> SegmentWriter {
        self.block_bytes = bytes.max(1);
        self
    }

    fn write_manifest(&self, processes: usize) -> Result<(), SegError> {
        let manifest = Manifest {
            format: "ppd-segmented-log".to_string(),
            version: SEGMENT_VERSION,
            processes,
        };
        let path = self.dir.join(MANIFEST_NAME);
        let json =
            serde_json::to_string(&manifest).map_err(|e| SegError::Manifest(e.to_string()))?;
        std::fs::write(&path, json).map_err(|e| io_err(&path, e))
    }

    /// Starts a fresh segment buffer for process `p` (header only).
    fn begin_segment(&mut self, p: usize) {
        let pw = &mut self.procs[p];
        pw.buf.clear();
        pw.buf.extend_from_slice(SEG_MAGIC);
        pw.buf.push(SEGMENT_VERSION);
        binio::put_varint(&mut pw.buf, u64::from(p as u32));
        binio::put_varint(&mut pw.buf, pw.seq);
        binio::put_varint(&mut pw.buf, pw.base_seq);
        pw.block_buf.clear();
        pw.blocks.clear();
        pw.uncomp_len = 0;
        pw.flushed = 0;
        pw.file = None;
        pw.entries = 0;
        pw.offsets.clear();
        pw.counts = [0; 6];
        pw.logical_bytes = 0;
        pw.min_time = u64::MAX;
        pw.max_time = 0;
        pw.digest.clear();
    }

    /// Appends one entry to `proc`'s stream, sealing blocks and the
    /// segment as targets are reached. A no-op after the first I/O
    /// error.
    pub fn append(&mut self, proc: ProcId, e: &LogEntry) {
        if self.error.is_some() {
            return;
        }
        let capacity = self.capacity;
        let block_bytes = self.block_bytes;
        let p = proc.index();
        let pw = &mut self.procs[p];
        pw.offsets.push(pw.uncomp_len + pw.block_buf.len() as u64);
        binio::put_entry(&mut pw.block_buf, e);
        pw.counts[kind_slot(e)] += 1;
        pw.logical_bytes += e.size_bytes() as u64;
        let t = e.time();
        pw.min_time = pw.min_time.min(t);
        pw.max_time = pw.max_time.max(t);
        if let Some(ev) = StructEvent::of_entry(pw.entries as usize, e) {
            pw.digest.push(DigestEvent {
                is_prelog: ev.is_prelog,
                pos: ev.pos as u64,
                eblock: ev.eblock.0,
                instance: ev.instance,
                time: ev.time,
            });
        }
        pw.entries += 1;
        self.report.entries += 1;
        if pw.uncomp_len as usize + pw.block_buf.len() >= capacity {
            self.seal(p, false);
        } else if pw.block_buf.len() >= block_bytes {
            self.seal_block(p);
        }
    }

    /// Frames the pending uncompressed block into the stored buffer
    /// (compressed, or through the raw escape).
    fn seal_block(&mut self, p: usize) {
        let compress = self.format.compressed();
        let pw = &mut self.procs[p];
        if pw.block_buf.is_empty() {
            return;
        }
        let stored = if compress {
            lzb::compress_into(&pw.block_buf, &mut pw.buf)
        } else {
            lzb::frame_raw_into(&pw.block_buf, &mut pw.buf)
        };
        pw.blocks.push((pw.block_buf.len() as u64, stored as u64));
        pw.uncomp_len += pw.block_buf.len() as u64;
        pw.block_buf.clear();
    }

    /// Writes `buf` bytes beyond the flush high-water mark to the
    /// segment file, creating it on first use. Only called once the
    /// segment has entries, so a crash never leaves a header-only file.
    fn flush_buf(&mut self, p: usize) {
        if self.error.is_some() {
            return;
        }
        let name = segment_file_name(p as u32, self.procs[p].seq);
        let path = self.dir.join(&name);
        let pw = &mut self.procs[p];
        if pw.entries == 0 || pw.flushed == pw.buf.len() {
            return;
        }
        let res = (|| -> std::io::Result<()> {
            if pw.file.is_none() {
                pw.file = Some(std::fs::File::create(&path)?);
            }
            pw.file.as_mut().expect("file just created").write_all(&pw.buf[pw.flushed..])
        })();
        match res {
            Ok(()) => pw.flushed = pw.buf.len(),
            Err(e) => self.error = Some(format!("{}: {e}", path.display())),
        }
    }

    /// Flushes every process's stream: pending blocks are framed and
    /// all sealed bytes are pushed to disk. After a flush, a
    /// concurrent [`SegmentedLog::open`] of the directory recovers
    /// every flushed entry from the unsealed live tails.
    pub fn flush(&mut self) {
        for p in 0..self.procs.len() {
            self.seal_block(p);
            self.flush_buf(p);
        }
    }

    /// Seals process `p`'s current segment to disk and starts the
    /// next. With `force`, an empty first segment is still written so
    /// every manifest-listed process owns at least one file (an empty
    /// directory entry is indistinguishable from data loss otherwise).
    fn seal(&mut self, p: usize, force: bool) {
        self.seal_block(p);
        if self.procs[p].entries == 0 && !(force && self.procs[p].seq == 0) {
            return;
        }
        let name = segment_file_name(p as u32, self.procs[p].seq);
        let path = self.dir.join(&name);
        let (tail, buf_len) = {
            let pw = &mut self.procs[p];
            if pw.min_time == u64::MAX {
                pw.min_time = 0;
            }
            let mut footer = Vec::new();
            // Payload crc first (fixed width): covers header + stored
            // payload, i.e. everything already in `pw.buf`.
            footer.extend_from_slice(&lzb::crc32(&pw.buf).to_le_bytes());
            binio::put_varint(&mut footer, pw.entries);
            binio::put_varint(&mut footer, pw.uncomp_len);
            binio::put_varint(&mut footer, pw.logical_bytes);
            for c in pw.counts {
                binio::put_varint(&mut footer, c);
            }
            binio::put_varint(&mut footer, pw.min_time);
            binio::put_varint(&mut footer, pw.max_time);
            binio::put_varint(&mut footer, pw.offsets.len() as u64);
            let mut prev = 0u64;
            for (i, &off) in pw.offsets.iter().enumerate() {
                binio::put_varint(&mut footer, if i == 0 { off } else { off - prev });
                prev = off;
            }
            binio::put_varint(&mut footer, pw.digest.len() as u64);
            let mut prev_pos = 0u64;
            for (i, ev) in pw.digest.iter().enumerate() {
                footer.push(u8::from(ev.is_prelog));
                binio::put_varint(&mut footer, if i == 0 { ev.pos } else { ev.pos - prev_pos });
                prev_pos = ev.pos;
                binio::put_varint(&mut footer, u64::from(ev.eblock));
                binio::put_varint(&mut footer, ev.instance);
                binio::put_varint(&mut footer, ev.time);
            }
            binio::put_varint(&mut footer, pw.blocks.len() as u64);
            for &(ulen, slen) in &pw.blocks {
                binio::put_varint(&mut footer, ulen);
                binio::put_varint(&mut footer, slen);
            }
            let footer_crc = lzb::crc32(&footer);
            let mut tail = footer;
            let footer_len = tail.len() as u32;
            tail.extend_from_slice(&footer_len.to_le_bytes());
            tail.extend_from_slice(&footer_crc.to_le_bytes());
            tail.extend_from_slice(FOOT_MAGIC);
            (tail, pw.buf.len())
        };
        if self.error.is_none() {
            let pw = &mut self.procs[p];
            let res = (|| -> std::io::Result<()> {
                if pw.file.is_none() {
                    pw.file = Some(std::fs::File::create(&path)?);
                }
                let f = pw.file.as_mut().expect("file just created");
                f.write_all(&pw.buf[pw.flushed..])?;
                f.write_all(&tail)
            })();
            match res {
                Ok(()) => {
                    let total = (buf_len + tail.len()) as u64;
                    self.report.segments += 1;
                    self.report.bytes += total;
                    ppd_obs::global().counter("log.segments_sealed").inc();
                    ppd_obs::global().counter("log.segment_bytes_written").add(total);
                }
                Err(e) => {
                    self.error = Some(format!("{}: {e}", path.display()));
                }
            }
        }
        let pw = &mut self.procs[p];
        pw.file = None;
        pw.seq += 1;
        pw.base_seq += pw.entries;
        self.begin_segment(p);
    }

    /// The first I/O failure, if any (appends were dropped from that
    /// point on).
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Seals every partial tail segment and returns the write report.
    /// Processes that logged nothing still get an (empty) segment 0 —
    /// [`SegmentedLog::open`] treats a manifest-listed process with no
    /// files as corruption.
    ///
    /// # Errors
    ///
    /// Returns [`SegError::Io`] if any write (including earlier,
    /// already-recorded failures) occurred.
    pub fn finish(mut self) -> Result<SinkReport, SegError> {
        for p in 0..self.procs.len() {
            self.seal(p, true);
        }
        match self.error.take() {
            Some(detail) => {
                Err(SegError::Io { path: self.dir.clone(), err: std::io::Error::other(detail) })
            }
            None => Ok(self.report),
        }
    }
}

/// Packs a store into `dir` as a segmented log in `format`. A
/// segment-backed store is decoded process by process on the way.
///
/// # Errors
///
/// Returns [`SegError::Io`] if the directory or a segment cannot be
/// written, and the decode error naming the segment and block if a
/// segment-backed store's payload is damaged.
pub fn write_store(
    store: &LogStore,
    dir: &Path,
    capacity: usize,
    format: SegmentFormat,
) -> Result<SinkReport, SegError> {
    let mut span = ppd_obs::span("log", "segment_pack");
    span.arg("procs", store.process_count());
    span.arg("compress", u64::from(format.compressed()));
    let mut w = SegmentWriter::create(dir, store.process_count(), capacity, format)?;
    for p in 0..store.process_count() {
        let proc = ProcId(p as u32);
        let log = match store.segmented() {
            Some(seg) => seg.process_log(proc)?,
            None => store.log(proc),
        };
        for e in &log.entries {
            w.append(proc, e);
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------
// Live-tail recovery
// ---------------------------------------------------------------------

/// The recovered prefix of an unsealed tail segment: every entry that
/// could be read back from the flushed bytes.
#[derive(Debug)]
pub struct RecoveredTail {
    file: String,
    base_seq: u64,
    entries: Vec<LogEntry>,
    digest: Vec<DigestEvent>,
    counts: [u64; 6],
    logical_bytes: u64,
    /// File length at scan time.
    file_len: u64,
    /// Why the segment failed to parse as sealed.
    detail: String,
}

impl RecoveredTail {
    /// The tail segment's file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Recovered entries, in log order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of recovered entries.
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Global entry index (within the process log) of the first
    /// recovered entry.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Why the segment was unsealed (the parse failure detail).
    pub fn detail(&self) -> &str {
        &self.detail
    }

    fn push_entry(&mut self, e: LogEntry) {
        self.counts[kind_slot(&e)] += 1;
        self.logical_bytes += e.size_bytes() as u64;
        if let Some(ev) = StructEvent::of_entry(self.entries.len(), &e) {
            self.digest.push(DigestEvent {
                is_prelog: ev.is_prelog,
                pos: ev.pos as u64,
                eblock: ev.eblock.0,
                instance: ev.instance,
                time: ev.time,
            });
        }
        self.entries.push(e);
    }
}

/// Scans an unsealed tail segment frame by frame to the last valid
/// entry. `Err(why)` means the file cannot be trusted at all (bad
/// header, or it does not continue the sealed chain) and must be
/// dropped; open has already rejected unsupported versions.
fn scan_tail(
    file: &str,
    bytes: &[u8],
    expect_proc: u32,
    expect_seq: u64,
    expect_base: u64,
    unsealed_detail: &str,
) -> Result<RecoveredTail, String> {
    if bytes.len() < SEG_MAGIC.len() + 1 {
        return Err(format!("file too short ({} bytes) for a segment header", bytes.len()));
    }
    if &bytes[..4] != SEG_MAGIC {
        return Err("bad segment magic".into());
    }
    let hdr = |e: BinError| format!("header decode failed: {e}");
    let mut h = Reader::with_base(&bytes[5..], 5);
    let proc = h.varint().map_err(hdr)? as u32;
    let seq = h.varint().map_err(hdr)?;
    let base_seq = h.varint().map_err(hdr)?;
    if proc != expect_proc || seq != expect_seq || base_seq != expect_base {
        return Err(format!(
            "header (process {proc}, segment {seq}, base {base_seq}) does not continue the \
             sealed chain (expected process {expect_proc}, segment {expect_seq}, base \
             {expect_base})"
        ));
    }
    let mut tail = RecoveredTail {
        file: file.to_string(),
        base_seq,
        entries: Vec::new(),
        digest: Vec::new(),
        counts: [0; 6],
        logical_bytes: 0,
        file_len: bytes.len() as u64,
        detail: unsealed_detail.to_string(),
    };
    // Every frame is checksummed and holds whole entries, so recovery is
    // exact: walk frames until one is truncated or fails its crc, decode
    // each in full.
    let mut at = h.offset();
    let mut data = Vec::new();
    'frames: while at < bytes.len() {
        data.clear();
        let Ok(consumed) = lzb::decompress_into(&bytes[at..], &mut data) else { break };
        let mut r = Reader::new(&data);
        let mut pending = Vec::new();
        while r.remaining() > 0 {
            let Ok(e) = binio::get_entry(&mut r) else { break 'frames };
            pending.push(e);
        }
        for e in pending {
            tail.push_entry(e);
        }
        at += consumed;
    }
    Ok(tail)
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Worker threads for the concurrent open and verify passes: every
/// hardware thread the host will give us.
fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One mapped, footer-verified segment.
#[derive(Debug)]
struct LoadedSegment {
    map: Mapping,
    meta: SegmentMeta,
}

/// An opened segmented log directory: every sealed segment mapped and
/// its footer verified, **no payload decoded**; unsealed live tails
/// scanned to their last valid entry. Replay decodes only the entries
/// it consumes; a whole process's entry vector materializes (at most
/// once) only for callers that read all of it.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    /// Per process: its sealed segments in sequence order.
    procs: Vec<Vec<LoadedSegment>>,
    /// Per process: the recovered unsealed tail, if any.
    tails: Vec<Option<RecoveredTail>>,
    warnings: Vec<String>,
    /// Whole-process decodes, cached by [`process_log`](Self::process_log).
    decoded: Vec<OnceLock<ProcessLog>>,
    /// The footer-built interval index, cached after its first load.
    index_cache: OnceLock<Arc<IntervalIndex>>,
    /// How many entries have been decoded since open — the scan
    /// counter the no-full-rescan acceptance test asserts on.
    entries_decoded: AtomicU64,
    /// How many payload blocks have been decompressed since open — the
    /// counter the block-seeking tests assert on.
    blocks_decompressed: AtomicU64,
    /// How many stored payload bytes (block frames) have been read since
    /// open.
    bytes_read: AtomicU64,
    /// Per process, per sealed segment: access-heatmap counters,
    /// parallel to `procs`.
    heat: Vec<Vec<SegHeat>>,
}

/// Access counters for one sealed segment.
#[derive(Debug, Default)]
struct SegHeat {
    entries: AtomicU64,
    blocks: AtomicU64,
    bytes: AtomicU64,
}

/// One sealed segment's access-heatmap counters: how much of it this
/// session actually decoded. Segments never touched report all zeros —
/// on a large store the non-zero rows show exactly which parts a
/// debugging session paid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatRecord {
    /// Segment file name.
    pub file: String,
    /// Owning process.
    pub proc: u32,
    /// Segment sequence number within the process.
    pub seq: u64,
    /// Entries decoded from this segment since open.
    pub entries_decoded: u64,
    /// Compressed blocks inflated from this segment since open.
    pub blocks_inflated: u64,
    /// Stored payload bytes read from this segment since open.
    pub bytes_read: u64,
}

impl SegmentedLog {
    /// Opens a log directory: reads the manifest, maps every `.seg`
    /// file, and parses/CRC-checks footers only — concurrently across
    /// every hardware thread, since the per-segment work is independent
    /// and at multi-GB sizes the CRC pass dominates the open cost. An
    /// unsealed **final** segment of a process is scanned for
    /// recoverable entries (the live tail of a still-running or killed
    /// writer); an invalid segment anywhere else, or a segment of an
    /// unsupported version anywhere, is an error.
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] on I/O failure, a missing/bad manifest,
    /// non-tail corruption, or a manifest-listed process with no
    /// segment files at all.
    pub fn open(dir: &Path) -> Result<SegmentedLog, SegError> {
        let jobs = available_jobs();
        let mut span = ppd_obs::span("log", "segment_open");
        span.arg("jobs", jobs);
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest_json =
            std::fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let manifest: Manifest =
            serde_json::from_str(&manifest_json).map_err(|e| SegError::Manifest(e.to_string()))?;
        if manifest.format != "ppd-segmented-log" {
            return Err(SegError::Manifest(format!("unknown format `{}`", manifest.format)));
        }
        if manifest.version != SEGMENT_VERSION {
            return Err(SegError::Manifest(format!(
                "unsupported segmented-log version {}",
                manifest.version
            )));
        }

        // Collect segment files as (proc, seq, name), sorted numerically.
        let mut files: Vec<(u32, u64, String)> = Vec::new();
        let rd = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
        for ent in rd {
            let ent = ent.map_err(|e| io_err(dir, e))?;
            let name = ent.file_name().to_string_lossy().into_owned();
            if let Some((proc, seq)) = parse_file_name(&name) {
                files.push((proc, seq, name));
            }
        }
        files.sort();
        // Every listed process has at least one file, so a count above
        // the number of files is refused before anything is sized by it,
        // naming the first process with none.
        if manifest.processes > files.len() {
            let mut missing = 0;
            for &(proc, _, _) in &files {
                if proc as usize == missing {
                    missing += 1;
                } else if proc as usize > missing {
                    break;
                }
            }
            return Err(no_segment_files(dir, missing, manifest.processes));
        }

        // Map + parse every segment concurrently: each file's CRC check
        // and footer decode is independent of the others.
        enum FileParse {
            Sealed(Box<LoadedSegment>),
            Io(std::io::Error),
            Unsupported(u8),
            Unsealed(Box<Mapping>, String),
        }
        let parse_one = |(_, _, name): &(u32, u64, String)| {
            let path = dir.join(name);
            match Mapping::open(&path) {
                Err(e) => FileParse::Io(e),
                Ok(map) => match unsupported_version(&map) {
                    Some(v) => FileParse::Unsupported(v),
                    None => match parse_segment(name, &map) {
                        Ok(meta) => FileParse::Sealed(Box::new(LoadedSegment { map, meta })),
                        Err(detail) => FileParse::Unsealed(Box::new(map), detail),
                    },
                },
            }
        };
        let parsed = rayon::par_map(&files, jobs, parse_one);

        let mut procs: Vec<Vec<LoadedSegment>> =
            (0..manifest.processes).map(|_| Vec::new()).collect();
        let mut pending_tails: Vec<Option<(String, Mapping, String)>> =
            (0..manifest.processes).map(|_| None).collect();
        let mut warnings = Vec::new();
        for (i, ((proc, seq, name), outcome)) in files.iter().zip(parsed).enumerate() {
            let is_proc_tail = files.get(i + 1).map(|f| f.0) != Some(*proc);
            if *proc as usize >= manifest.processes {
                return Err(SegError::Corrupt {
                    file: name.clone(),
                    detail: format!(
                        "process {proc} out of range (manifest has {})",
                        manifest.processes
                    ),
                });
            }
            match outcome {
                FileParse::Io(e) => return Err(io_err(&dir.join(name), e)),
                FileParse::Unsupported(v) => {
                    return Err(SegError::Corrupt {
                        file: name.clone(),
                        detail: format!("unsupported segment version {v}"),
                    })
                }
                FileParse::Sealed(seg) => {
                    if seg.meta.proc != *proc || seg.meta.seq != *seq {
                        return Err(SegError::Corrupt {
                            file: name.clone(),
                            detail: format!(
                                "header says process {} segment {}, file name says process {proc} segment {seq}",
                                seg.meta.proc, seg.meta.seq
                            ),
                        });
                    }
                    procs[*proc as usize].push(*seg);
                }
                FileParse::Unsealed(map, detail) if is_proc_tail => {
                    // The live tail (or the flush the writer died in):
                    // scanned for recoverable entries once the sealed
                    // chain below it is validated.
                    pending_tails[*proc as usize] = Some((name.clone(), *map, detail));
                }
                FileParse::Unsealed(_, detail) => {
                    return Err(SegError::Corrupt { file: name.clone(), detail })
                }
            }
        }

        // Per-process continuity: sequence numbers and base_seq chains.
        for (p, segs) in procs.iter().enumerate() {
            let mut expected_base = 0u64;
            for (k, seg) in segs.iter().enumerate() {
                if seg.meta.seq != k as u64 {
                    return Err(SegError::Corrupt {
                        file: seg.meta.file.clone(),
                        detail: format!(
                            "process {p} segment sequence gap: expected {k}, found {}",
                            seg.meta.seq
                        ),
                    });
                }
                if seg.meta.base_seq != expected_base {
                    return Err(SegError::Corrupt {
                        file: seg.meta.file.clone(),
                        detail: format!(
                            "base entry index {} does not continue previous segments ({expected_base})",
                            seg.meta.base_seq
                        ),
                    });
                }
                expected_base += seg.meta.entry_count;
            }
        }

        // Scan pending live tails now that the sealed chain (and hence
        // the expected seq/base of each tail) is validated.
        let mut tails: Vec<Option<RecoveredTail>> = (0..manifest.processes).map(|_| None).collect();
        for (p, slot) in pending_tails.into_iter().enumerate() {
            let Some((name, map, detail)) = slot else { continue };
            let expect_seq = procs[p].len() as u64;
            let expect_base: u64 = procs[p].iter().map(|s| s.meta.entry_count).sum();
            match scan_tail(&name, &map, p as u32, expect_seq, expect_base, &detail) {
                Ok(tail) if !tail.entries.is_empty() => {
                    warnings.push(format!(
                        "recovered {} entries from unsealed tail segment {name} of process {p}: {detail}",
                        tail.entries.len()
                    ));
                    tails[p] = Some(tail);
                }
                Ok(_) => warnings.push(format!(
                    "dropped unsealed tail segment {name} of process {p}: no recoverable entries ({detail})"
                )),
                Err(why) => warnings.push(format!(
                    "dropped unsealed tail segment {name} of process {p}: {why}"
                )),
            }
        }

        // A listed process may still have none: no file of its own, or
        // only a dropped tail.
        for p in 0..manifest.processes {
            if procs[p].is_empty() && tails[p].is_none() {
                return Err(no_segment_files(dir, p, manifest.processes));
            }
        }

        let total_segments: usize = procs.iter().map(Vec::len).sum();
        span.arg("files", total_segments);
        span.arg("procs", manifest.processes);
        ppd_obs::global().counter("log.segments_opened").add(total_segments as u64);
        ppd_obs::flight::note_with(
            "log",
            "segment_open",
            format!("dir={} segments={total_segments} procs={}", dir.display(), manifest.processes),
        );
        for w in &warnings {
            ppd_obs::flight::note_with("log", "recovery", w.clone());
        }
        let heat =
            procs.iter().map(|segs| segs.iter().map(|_| SegHeat::default()).collect()).collect();
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            decoded: (0..manifest.processes).map(|_| OnceLock::new()).collect(),
            procs,
            tails,
            warnings,
            index_cache: OnceLock::new(),
            entries_decoded: AtomicU64::new(0),
            blocks_decompressed: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            heat,
        })
    }

    /// The directory this log was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of processes (from the manifest).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Recovery warnings produced at open (recovered or dropped
    /// unsealed tails).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Sealed segment metadata, per process, in sequence order.
    pub fn segments(&self, proc: ProcId) -> impl Iterator<Item = &SegmentMeta> {
        self.procs[proc.index()].iter().map(|s| &s.meta)
    }

    /// The recovered unsealed tail of `proc`, if open found one.
    pub fn recovered_tail(&self, proc: ProcId) -> Option<&RecoveredTail> {
        self.tails[proc.index()].as_ref()
    }

    /// Entries recovered from unsealed tails, across all processes.
    pub fn recovered_entries(&self) -> u64 {
        self.tails.iter().flatten().map(|t| t.entries.len() as u64).sum()
    }

    fn proc_total_entries(&self, p: usize) -> u64 {
        self.procs[p].iter().map(|s| s.meta.entry_count).sum::<u64>()
            + self.tails[p].as_ref().map_or(0, |t| t.entries.len() as u64)
    }

    /// Total entries (sealed + recovered tails), from footers alone.
    pub fn total_entries(&self) -> u64 {
        (0..self.procs.len()).map(|p| self.proc_total_entries(p)).sum()
    }

    /// Total logical log bytes (sum of [`LogEntry::size_bytes`]), from
    /// footers alone.
    pub fn total_logical_bytes(&self) -> u64 {
        self.procs.iter().flatten().map(|s| s.meta.logical_bytes).sum::<u64>()
            + self.tails.iter().flatten().map(|t| t.logical_bytes).sum::<u64>()
    }

    /// Total on-disk file bytes across sealed segments and tails.
    pub fn total_file_bytes(&self) -> u64 {
        self.procs.iter().flatten().map(|s| s.map.len() as u64).sum::<u64>()
            + self.tails.iter().flatten().map(|t| t.file_len).sum::<u64>()
    }

    /// Total *uncompressed* payload bytes across sealed segments.
    pub fn total_payload_bytes(&self) -> u64 {
        self.procs.iter().flatten().map(|s| s.meta.payload_len).sum()
    }

    /// Total *stored* payload bytes across sealed segments — compare
    /// with [`total_payload_bytes`](Self::total_payload_bytes) for the
    /// directory-wide compression ratio.
    pub fn total_stored_bytes(&self) -> u64 {
        self.procs.iter().flatten().map(|s| s.meta.stored_len).sum()
    }

    /// Entry counts in [`KIND_NAMES`] order, from footers alone.
    pub fn counts_by_kind(&self) -> [u64; 6] {
        let mut counts = [0u64; 6];
        for s in self.procs.iter().flatten() {
            for (slot, c) in s.meta.counts.iter().enumerate() {
                counts[slot] += c;
            }
        }
        for t in self.tails.iter().flatten() {
            for (slot, c) in t.counts.iter().enumerate() {
                counts[slot] += c;
            }
        }
        counts
    }

    /// How many entries have been decoded from sealed payloads since
    /// open. Stays 0 across open + index load + structural queries —
    /// that is the "no full rescan" guarantee, and the acceptance test
    /// asserts exactly this. (Tail entries were decoded by the
    /// recovery scan at open and are not re-counted.)
    pub fn entries_decoded(&self) -> u64 {
        self.entries_decoded.load(Ordering::Relaxed)
    }

    /// How many payload blocks have been decompressed since open.
    pub fn blocks_decompressed(&self) -> u64 {
        self.blocks_decompressed.load(Ordering::Relaxed)
    }

    /// Stored payload bytes (block frames) read since open.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// The per-segment access heatmap: one record per sealed segment
    /// (all processes, sequence order) with the entries / blocks /
    /// bytes this session has decoded from it. Untouched segments
    /// report zeros.
    pub fn access_heatmap(&self) -> Vec<HeatRecord> {
        self.procs
            .iter()
            .zip(&self.heat)
            .flat_map(|(segs, heats)| {
                segs.iter().zip(heats).map(|(seg, h)| HeatRecord {
                    file: seg.meta.file.clone(),
                    proc: seg.meta.proc,
                    seq: seg.meta.seq,
                    entries_decoded: h.entries.load(Ordering::Relaxed),
                    blocks_inflated: h.blocks.load(Ordering::Relaxed),
                    bytes_read: h.bytes.load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Records a read of `entries` / `blocks` / `bytes` against one
    /// segment's heatmap slot and the store-wide counters.
    fn note_read(&self, seg: &LoadedSegment, entries: u64, blocks: u64, bytes: u64) {
        let h = &self.heat[seg.meta.proc as usize][seg.meta.seq as usize];
        h.entries.fetch_add(entries, Ordering::Relaxed);
        h.blocks.fetch_add(blocks, Ordering::Relaxed);
        h.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.entries_decoded.fetch_add(entries, Ordering::Relaxed);
        self.blocks_decompressed.fetch_add(blocks, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Whether every mapped segment is backed by a real `mmap` (as
    /// opposed to the heap-read fallback).
    pub fn fully_mapped(&self) -> bool {
        self.procs.iter().flatten().all(|s| s.map.is_mapped())
    }

    /// The footer-built interval index, cached after the first load.
    pub fn index(&self) -> Arc<IntervalIndex> {
        Arc::clone(self.index_cache.get_or_init(|| Arc::new(self.index_from_footers())))
    }

    fn digest_event(seg_base: u64, ev: &DigestEvent) -> StructEvent {
        StructEvent {
            pos: (seg_base + ev.pos) as usize,
            is_prelog: ev.is_prelog,
            eblock: ppd_analysis::EBlockId(ev.eblock),
            instance: ev.instance,
            time: ev.time,
        }
    }

    /// The interval index, rebuilt from footer digests (sealed
    /// segments *and* recovered tails) — no payload bytes are touched.
    /// Identical to what a full entry scan would build, because both
    /// feed the same stack-matching builder.
    pub fn index_from_footers(&self) -> IntervalIndex {
        // Streamed straight out of the decoded footers — at millions of
        // intervals, materializing the events first costs more than the
        // index build itself.
        let streams = (0..self.procs.len())
            .map(|p| {
                let hint: usize =
                    self.procs[p].iter().map(|seg| seg.meta.digest.len()).sum::<usize>()
                        + self.tails[p].as_ref().map_or(0, |t| t.digest.len());
                let sealed = self.procs[p].iter().flat_map(|seg| {
                    seg.meta.digest.iter().map(move |ev| Self::digest_event(seg.meta.base_seq, ev))
                });
                let tail = self.tails[p].iter().flat_map(|t| {
                    t.digest.iter().map(move |ev| Self::digest_event(t.base_seq, ev))
                });
                (ProcId(p as u32), hint, sealed.chain(tail))
            })
            .collect();
        IntervalIndex::build_from_events(streams)
    }

    /// Inflates block `i` of a sealed segment, appending its bytes to
    /// `out`. A frame that fails its checksum, or whose sizes disagree
    /// with the footer's block table, is an error naming the segment
    /// and the block.
    fn inflate_block(
        &self,
        seg: &LoadedSegment,
        i: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), SegError> {
        let b = seg.meta.blocks[i];
        let corrupt = |detail: String| SegError::Corrupt { file: seg.meta.file.clone(), detail };
        let frame = usize::try_from(b.stored_off)
            .ok()
            .and_then(|off| seg.meta.payload_start.checked_add(off))
            .zip(usize::try_from(b.stored_len).ok())
            .and_then(|(at, len)| seg.map.get(at..at.checked_add(len)?))
            .ok_or_else(|| corrupt(format!("block {i} lies outside the file")))?;
        let start = out.len();
        let n = lzb::decompress_into(frame, out).map_err(|e| corrupt(format!("block {i}: {e}")))?;
        if n != frame.len() || (out.len() - start) as u64 != b.uncomp_len {
            return Err(corrupt(format!("block {i} sizes disagree with the footer block table")));
        }
        self.note_read(seg, 0, 1, b.stored_len);
        Ok(())
    }

    /// The uncompressed payload of one sealed segment, decompressed
    /// block by block.
    fn segment_payload(&self, seg: &LoadedSegment) -> Result<Vec<u8>, SegError> {
        let mut out = Vec::with_capacity(seg.meta.payload_len as usize);
        for i in 0..seg.meta.blocks.len() {
            self.inflate_block(seg, i, &mut out)?;
        }
        Ok(out)
    }

    /// The decoded log of one process (sealed entries plus the
    /// recovered tail), materialized on first use and cached — for
    /// callers that read a whole process. Replay reads through a
    /// [`crate::LogCursor`] instead, which decodes only what it
    /// consumes.
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] naming the segment and block if a payload
    /// block fails its checksum or an entry fails to decode. Nothing is
    /// cached then, so a later call fails the same way.
    pub fn process_log(&self, proc: ProcId) -> Result<&ProcessLog, SegError> {
        let slot = &self.decoded[proc.index()];
        if let Some(log) = slot.get() {
            return Ok(log);
        }
        let mut span = ppd_obs::span("log", "segment_decode");
        span.arg("proc", proc.index());
        let mut reader = BlockReader::new(self, proc);
        let mut entries = Vec::with_capacity(reader.len());
        while let Some(e) = reader.entry(entries.len())? {
            entries.push(e.into_owned());
        }
        span.arg("entries", entries.len());
        Ok(slot.get_or_init(|| ProcessLog { entries }))
    }

    /// Full integrity check of one segment; returns its entry count.
    fn verify_segment(&self, seg: &LoadedSegment) -> Result<u64, SegError> {
        let corrupt = |detail: String| SegError::Corrupt { file: seg.meta.file.clone(), detail };
        // The payload crc covers header + *stored* payload — checked
        // first so a flipped bit is pinned to the checksum, whether it
        // lands in a raw-escape or a compressed frame.
        let stored_end = seg.meta.payload_start + seg.meta.stored_len as usize;
        let actual_crc = lzb::crc32(&seg.map[..stored_end]);
        if actual_crc != seg.meta.payload_crc {
            return Err(corrupt(format!(
                "payload crc mismatch (stored {:#010x}, computed {actual_crc:#010x})",
                seg.meta.payload_crc
            )));
        }
        let payload = self.segment_payload(seg)?;
        if payload.len() as u64 != seg.meta.payload_len {
            return Err(corrupt(format!(
                "decoded payload is {} bytes, footer says {}",
                payload.len(),
                seg.meta.payload_len
            )));
        }
        let mut r = Reader::new(&payload);
        let mut digest = seg.meta.digest.iter();
        let mut entries = 0u64;
        for i in 0..seg.meta.entry_count {
            let at = r.offset() as u64;
            if seg.meta.offsets.get(i as usize) != Some(&at) {
                return Err(corrupt(format!(
                    "entry {i} starts at payload offset {at}, footer says {:?}",
                    seg.meta.offsets.get(i as usize)
                )));
            }
            let e = binio::get_entry(&mut r)
                .map_err(|err| SegError::Decode(err.with_context(seg.meta.file.clone())))?;
            if e.time() < seg.meta.min_time || e.time() > seg.meta.max_time {
                return Err(corrupt(format!(
                    "entry {i} time {} outside footer span [{}, {}]",
                    e.time(),
                    seg.meta.min_time,
                    seg.meta.max_time
                )));
            }
            if let Some(ev) = StructEvent::of_entry(i as usize, &e) {
                let expected = DigestEvent {
                    is_prelog: ev.is_prelog,
                    pos: i,
                    eblock: ev.eblock.0,
                    instance: ev.instance,
                    time: ev.time,
                };
                if digest.next() != Some(&expected) {
                    return Err(corrupt(format!("digest disagrees with decoded entry {i}")));
                }
            }
            entries += 1;
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!(
                "{} payload bytes beyond the footer's entry count",
                r.remaining()
            )));
        }
        if digest.next().is_some() {
            return Err(corrupt("digest has events beyond the payload".to_string()));
        }
        Ok(entries)
    }

    /// Full integrity check: checks every segment's payload CRC (open
    /// only checks footer CRCs), decompresses and decodes every
    /// payload, and cross-checks footer metadata (entry counts, offset
    /// tables, block tables, digests, time spans) against the decoded
    /// entries. The per-segment passes are independent, so they run
    /// concurrently across every hardware thread through the vendored
    /// [`rayon::par_map`].
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (in file order).
    pub fn verify(&self) -> Result<VerifyReport, SegError> {
        let segs: Vec<&LoadedSegment> = self.procs.iter().flatten().collect();
        let results = rayon::par_map(&segs, available_jobs(), |s| self.verify_segment(s));
        let mut report = VerifyReport {
            segments: segs.len(),
            entries: 0,
            recovered: self.recovered_entries(),
            warnings: self.warnings.clone(),
        };
        for r in results {
            report.entries += r?;
        }
        Ok(report)
    }
}

/// Reads one process's entries of a [`SegmentedLog`] by position,
/// holding one inflated payload block at a time: the single
/// block-seeking decoder behind replay cursors and whole-process
/// decodes. Each entry it decodes counts once in the segment's heatmap
/// and in [`SegmentedLog::entries_decoded`]; recovered-tail entries are
/// already in memory and are lent out, not counted.
pub(crate) struct BlockReader<'a> {
    log: &'a SegmentedLog,
    proc: usize,
    /// `(segment, block)` whose bytes `data` holds.
    loaded: Option<(usize, usize)>,
    data: Vec<u8>,
}

impl<'a> BlockReader<'a> {
    pub(crate) fn new(log: &'a SegmentedLog, proc: ProcId) -> BlockReader<'a> {
        BlockReader { log, proc: proc.index(), loaded: None, data: Vec::new() }
    }

    /// Entries in the process's log, sealed and recovered.
    pub(crate) fn len(&self) -> usize {
        self.log.proc_total_entries(self.proc) as usize
    }

    /// The entry at `pos` of the process log, or `None` past its end.
    ///
    /// # Errors
    ///
    /// Returns [`SegError`] naming the segment and block when the block
    /// holding the entry fails to inflate or the entry fails to decode.
    pub(crate) fn entry(&mut self, pos: usize) -> Result<Option<Cow<'a, LogEntry>>, SegError> {
        let log = self.log;
        let segs = &log.procs[self.proc];
        let pos = pos as u64;
        let k = segs.partition_point(|s| s.meta.base_seq + s.meta.entry_count <= pos);
        let Some(seg) = segs.get(k) else {
            let tail = log.tails[self.proc].as_ref();
            let entry = tail.and_then(|t| t.entries.get(pos.checked_sub(t.base_seq)? as usize));
            return Ok(entry.map(Cow::Borrowed));
        };
        let meta = &seg.meta;
        let off = meta.offsets[(pos - meta.base_seq) as usize];
        let b = meta.blocks.partition_point(|b| b.uncomp_off + b.uncomp_len <= off);
        let corrupt = |detail: String| SegError::Corrupt { file: meta.file.clone(), detail };
        let Some(block) = meta.blocks.get(b) else {
            return Err(corrupt(format!("entry offset {off} lies past the block table")));
        };
        if self.loaded != Some((k, b)) {
            self.loaded = None;
            self.data.clear();
            log.inflate_block(seg, b, &mut self.data)?;
            self.loaded = Some((k, b));
        }
        let rel = (off - block.uncomp_off) as usize;
        let mut r = Reader::with_base(&self.data[rel..], off as usize);
        let e = binio::get_entry(&mut r).map_err(|err| {
            SegError::Decode(err.with_context(format!("{} block {b}", meta.file)))
        })?;
        log.note_read(seg, 1, 0, 0);
        Ok(Some(Cow::Owned(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_analysis::EBlockId;
    use ppd_lang::{Value, VarId};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ppd-segment-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn prelog(b: u32, i: u64, t: u64) -> LogEntry {
        LogEntry::Prelog { eblock: EBlockId(b), instance: i, values: vec![], time: t }
    }

    fn postlog(b: u32, i: u64, t: u64) -> LogEntry {
        LogEntry::Postlog {
            eblock: EBlockId(b),
            instance: i,
            values: vec![(VarId(0), Value::Int(t as i64))],
            ret: None,
            time: t,
        }
    }

    /// Two processes, nested and open intervals, enough entries to
    /// force several segments at a small capacity.
    fn sample_store(rounds: u64) -> LogStore {
        let mut s = LogStore::new(2);
        let mut t = 0;
        for i in 0..rounds {
            t += 1;
            s.push(ProcId(0), prelog(0, i, t));
            t += 1;
            s.push(ProcId(0), LogEntry::Input { value: -(i as i64), time: t });
            t += 1;
            s.push(ProcId(0), prelog(1, i, t));
            t += 1;
            s.push(ProcId(0), postlog(1, i, t));
            t += 1;
            s.push(ProcId(0), postlog(0, i, t));
            t += 1;
            s.push(ProcId(1), LogEntry::Receive { value: i as i64, time: t });
            t += 1;
            s.push(ProcId(1), prelog(2, i, t));
        }
        s
    }

    /// The entries of `s` round-trip byte-identically through a
    /// directory written in `format`.
    fn assert_round_trip(s: &LogStore, dir: &Path, capacity: usize, format: SegmentFormat) {
        let report = write_store(s, dir, capacity, format).unwrap();
        assert_eq!(report.entries, s.total_entries() as u64);
        let seg = SegmentedLog::open(dir).unwrap();
        assert!(seg.warnings().is_empty(), "{:?}", seg.warnings());
        for p in 0..s.process_count() {
            let pid = ProcId(p as u32);
            assert_eq!(seg.process_log(pid).unwrap().entries, s.log(pid).entries, "{format:?}");
        }
        seg.verify().unwrap();
    }

    #[test]
    fn tiny_capacity_round_trips_across_many_segments() {
        let dir = tmp_dir("many-segments");
        let s = sample_store(40);
        let report = write_store(&s, &dir, 64, SegmentFormat::default()).unwrap();
        assert!(report.segments > 4, "capacity 64 must split: {report:?}");
        assert_eq!(report.entries, s.total_entries() as u64);
        let seg = SegmentedLog::open(&dir).unwrap();
        assert!(seg.warnings().is_empty());
        for p in 0..2 {
            let pid = ProcId(p);
            assert_eq!(seg.process_log(pid).unwrap().entries, s.log(pid).entries);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_format_round_trips() {
        let s = sample_store(25);
        for (name, format) in
            [("rt-v2raw", SegmentFormat::V2Raw), ("rt-v2z", SegmentFormat::V2Compressed)]
        {
            let dir = tmp_dir(name);
            assert_round_trip(&s, &dir, 256, format);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unsupported_versions_are_corruption_wherever_they_sit() {
        let dir = tmp_dir("bad-version");
        write_store(&sample_store(40), &dir, 64, SegmentFormat::default()).unwrap();
        let (tail, not_tail) = {
            let seg = SegmentedLog::open(&dir).unwrap();
            assert!(seg.segments(ProcId(0)).all(|m| m.version == 2 && m.block_count() > 0));
            (seg.segments(ProcId(1)).last().unwrap().file.clone(), segment_file_name(0, 0))
        };
        // A version byte naming another format fails the open with an
        // error naming the file — as a process's last segment too, where
        // an unsealed tail would have been recovered with a warning.
        for (victim, version) in [(&tail, 3), (&tail, 1), (&not_tail, 1), (&not_tail, 3)] {
            let path = dir.join(victim);
            let good = std::fs::read(&path).unwrap();
            let mut bad = good.clone();
            bad[4] = version;
            std::fs::write(&path, &bad).unwrap();
            match SegmentedLog::open(&dir) {
                Err(SegError::Corrupt { file, detail }) => {
                    assert_eq!(&file, victim, "error names the segment");
                    assert_eq!(detail, format!("unsupported segment version {version}"));
                }
                other => panic!("expected corruption for version {version}, got {other:?}"),
            }
            std::fs::write(&path, &good).unwrap();
        }
        // A manifest of another version is refused before any segment.
        std::fs::write(
            dir.join(MANIFEST_NAME),
            r#"{"format":"ppd-segmented-log","version":1,"processes":2}"#,
        )
        .unwrap();
        match SegmentedLog::open(&dir) {
            Err(SegError::Manifest(detail)) => {
                assert!(detail.contains("unsupported segmented-log version 1"), "{detail}")
            }
            other => panic!("expected a manifest error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compression_shrinks_stored_payload() {
        // A value-carrying workload shaped like the paper's §5.5 logs:
        // each interval snapshots the same USED set, and most variable
        // values are unchanged between consecutive iterations.  These
        // entries dominate real log volume and compress well; require a
        // real ratio, not just "no expansion".
        let mut s = LogStore::new(1);
        for i in 0..2000u64 {
            let used: Vec<(VarId, Value)> =
                (0..8).map(|v| (VarId(v), Value::Int(1_000 + v as i64))).collect();
            s.push(
                ProcId(0),
                LogEntry::Prelog {
                    eblock: EBlockId(7),
                    instance: i,
                    values: used.clone(),
                    time: 2 * i + 1,
                },
            );
            s.push(
                ProcId(0),
                LogEntry::Postlog {
                    eblock: EBlockId(7),
                    instance: i,
                    values: used,
                    ret: Some(Value::Int(0)),
                    time: 2 * i + 2,
                },
            );
        }
        let draw = tmp_dir("ratio-raw");
        let dz = tmp_dir("ratio-z");
        write_store(&s, &draw, 1 << 20, SegmentFormat::V2Raw).unwrap();
        write_store(&s, &dz, 1 << 20, SegmentFormat::V2Compressed).unwrap();
        let raw = SegmentedLog::open(&draw).unwrap();
        let z = SegmentedLog::open(&dz).unwrap();
        assert_eq!(raw.total_payload_bytes(), z.total_payload_bytes());
        assert!(
            z.total_stored_bytes() * 2 <= raw.total_stored_bytes(),
            "expected >=2x payload compression, got {} -> {}",
            raw.total_stored_bytes(),
            z.total_stored_bytes()
        );
        assert_eq!(z.process_log(ProcId(0)).unwrap().entries, s.log(ProcId(0)).entries);
        z.verify().unwrap();
        let _ = std::fs::remove_dir_all(&draw);
        let _ = std::fs::remove_dir_all(&dz);
    }

    #[test]
    fn open_and_index_decode_nothing() {
        let dir = tmp_dir("no-rescan");
        let s = sample_store(20);
        write_store(&s, &dir, 256, SegmentFormat::default()).unwrap();
        let seg = SegmentedLog::open(&dir).unwrap();
        let idx = seg.index();
        assert_eq!(seg.entries_decoded(), 0, "open + index must not decode entries");
        assert_eq!(seg.blocks_decompressed(), 0, "open + index must not decompress blocks");
        // The footer-built index equals the full-scan rebuild.
        let scan = s.index();
        for p in 0..2 {
            let pid = ProcId(p);
            assert_eq!(idx.intervals(pid), scan.intervals(pid));
            assert_eq!(idx.open_intervals(pid), scan.open_intervals(pid));
            assert_eq!(idx.top_level(pid), scan.top_level(pid));
        }
        // Touching a payload does decode — and only that process.
        let n0 = seg.process_log(ProcId(0)).unwrap().entries.len() as u64;
        assert_eq!(seg.entries_decoded(), n0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_stats_match_store() {
        let dir = tmp_dir("footer-stats");
        let s = sample_store(10);
        write_store(&s, &dir, 512, SegmentFormat::default()).unwrap();
        let seg = SegmentedLog::open(&dir).unwrap();
        assert_eq!(seg.total_entries(), s.total_entries() as u64);
        assert_eq!(seg.total_logical_bytes(), s.total_bytes() as u64);
        assert_eq!(seg.entries_decoded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_bit_flip_is_hard_corruption_at_open() {
        let dir = tmp_dir("bit-flip-footer");
        write_store(&sample_store(40), &dir, 64, SegmentFormat::default()).unwrap();
        // Flip one footer byte of process 0's first (non-tail) segment:
        // the footer crc check at open must refuse it.
        let victim = dir.join(segment_file_name(0, 0));
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() - TRAILER_LEN - 2;
        bytes[at] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        match SegmentedLog::open(&dir) {
            Err(SegError::Corrupt { file, detail }) => {
                assert_eq!(file, segment_file_name(0, 0), "error names the segment");
                assert!(detail.contains("footer crc mismatch"), "{detail}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_bit_flip_opens_but_fails_verify() {
        let dir = tmp_dir("bit-flip-payload");
        write_store(&sample_store(40), &dir, 64, SegmentFormat::default()).unwrap();
        // Flip one payload byte: open only checks footers (that is the
        // whole point of the crc split), so the store opens — and
        // `verify` pins the damage to the payload crc.
        let victim = dir.join(segment_file_name(0, 0));
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[SEG_MAGIC.len() + 8] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let seg = SegmentedLog::open(&dir).expect("payload damage must not block open");
        match seg.verify() {
            Err(SegError::Corrupt { file, detail }) => {
                assert_eq!(file, segment_file_name(0, 0), "error names the segment");
                assert!(detail.contains("payload crc mismatch"), "{detail}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_recovers_a_prefix_with_warning() {
        for (name, format) in [
            ("truncated-tail-v2", SegmentFormat::V2Raw),
            ("truncated-tail-v2z", SegmentFormat::V2Compressed),
        ] {
            let dir = tmp_dir(name);
            let s = sample_store(40);
            write_store(&s, &dir, 64, format).unwrap();
            // Truncate process 1's last segment mid-payload, as if the
            // writer died during the flush: cut strictly inside the
            // stored payload so at least one entry is unrecoverable.
            let (last_seq, cut) = {
                let probe = SegmentedLog::open(&dir).unwrap();
                let meta = probe.segments(ProcId(1)).last().unwrap();
                (meta.seq, meta.payload_start() + meta.stored_len as usize / 2)
            };
            let victim = dir.join(segment_file_name(1, last_seq));
            let bytes = std::fs::read(&victim).unwrap();
            std::fs::write(&victim, &bytes[..cut]).unwrap();
            let seg = SegmentedLog::open(&dir).expect("tail truncation must be recoverable");
            assert_eq!(seg.warnings().len(), 1, "{format:?}: {:?}", seg.warnings());
            assert!(
                seg.warnings()[0].contains(&segment_file_name(1, last_seq)),
                "{:?}",
                seg.warnings()
            );
            // The surviving prefix still decodes and is a strict
            // prefix of the original log.
            let got = &seg.process_log(ProcId(1)).unwrap().entries;
            let full = &s.log(ProcId(1)).entries;
            assert!(got.len() < full.len(), "{format:?} must lose at least one entry");
            assert_eq!(got.as_slice(), &full[..got.len()], "{format:?}");
            // Process 0 is untouched.
            assert_eq!(seg.process_log(ProcId(0)).unwrap().entries, s.log(ProcId(0)).entries);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn live_tail_is_recovered_and_indexed() {
        let dir = tmp_dir("live-tail");
        let s = sample_store(12);
        // Big capacity: nothing seals, everything lives in the tails.
        let mut w = SegmentWriter::create(&dir, 2, 1 << 20, SegmentFormat::V2Compressed).unwrap();
        for p in 0..2 {
            let pid = ProcId(p);
            for e in &s.log(pid).entries {
                w.append(pid, e);
            }
        }
        w.flush();
        // The writer is still alive — open the directory anyway.
        let seg = SegmentedLog::open(&dir).expect("live tail must open");
        assert_eq!(seg.warnings().len(), 2, "{:?}", seg.warnings());
        assert!(seg.warnings()[0].contains("recovered"), "{:?}", seg.warnings());
        assert_eq!(seg.recovered_entries(), s.total_entries() as u64);
        for p in 0..2 {
            let pid = ProcId(p);
            assert_eq!(seg.process_log(pid).unwrap().entries, s.log(pid).entries);
            assert_eq!(seg.index().intervals(pid), s.index().intervals(pid));
        }
        // Sealing turns the tails into ordinary segments.
        w.finish().unwrap();
        let sealed = SegmentedLog::open(&dir).unwrap();
        assert!(sealed.warnings().is_empty(), "{:?}", sealed.warnings());
        assert_eq!(sealed.recovered_entries(), 0);
        assert_eq!(sealed.total_entries(), s.total_entries() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_reader_inflates_only_the_blocks_it_reads() {
        let dir = tmp_dir("range-blocks");
        let s = sample_store(200);
        // One huge segment per process, tiny blocks: reading a few
        // entries must not decompress the whole payload.
        let mut w = SegmentWriter::create(&dir, 2, 1 << 22, SegmentFormat::V2Compressed)
            .unwrap()
            .with_block_bytes(512);
        for p in 0..2 {
            let pid = ProcId(p);
            for e in &s.log(pid).entries {
                w.append(pid, e);
            }
        }
        w.finish().unwrap();
        let seg = SegmentedLog::open(&dir).unwrap();
        let total_blocks: usize = seg.segments(ProcId(0)).map(|m| m.block_count()).sum();
        assert!(total_blocks > 4, "block target 512 must split: {total_blocks}");
        let mut r = BlockReader::new(&seg, ProcId(0));
        for pos in 10..20 {
            assert_eq!(r.entry(pos).unwrap().as_deref(), Some(&s.log(ProcId(0)).entries[pos]));
        }
        assert_eq!(seg.entries_decoded(), 10, "one decode per entry read");
        assert!(
            (seg.blocks_decompressed() as usize) < total_blocks,
            "10 entries must not decompress all {total_blocks} blocks"
        );
        // Reads crossing block, segment and tail boundaries still agree,
        // and the log ends with `None`.
        let mut r = BlockReader::new(&seg, ProcId(1));
        let all: Vec<LogEntry> =
            (0..).map_while(|pos| r.entry(pos).unwrap().map(Cow::into_owned)).collect();
        assert_eq!(all, s.log(ProcId(1)).entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_payload_is_an_error_naming_segment_and_block() {
        let dir = tmp_dir("damaged-payload");
        write_store(&sample_store(40), &dir, 64, SegmentFormat::default()).unwrap();
        let victim = dir.join(segment_file_name(0, 0));
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[SEG_MAGIC.len() + 8] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let seg = SegmentedLog::open(&dir).expect("payload damage must not block open");
        let whole = seg.process_log(ProcId(0)).unwrap_err();
        let one = BlockReader::new(&seg, ProcId(0)).entry(0).unwrap_err();
        let out = tmp_dir("damaged-payload-repack");
        let store = LogStore::open_dir(&dir).unwrap();
        let repacked = store.write_dir(&out, 64, SegmentFormat::default()).unwrap_err();
        for err in [whole, one, repacked] {
            let msg = err.to_string();
            assert!(msg.contains(&segment_file_name(0, 0)) && msg.contains("block 0"), "{msg}");
        }
        // A damaged decode caches nothing; the other process is intact.
        assert!(seg.process_log(ProcId(0)).is_err());
        assert!(seg.process_log(ProcId(1)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn empty_process_gets_an_empty_segment() {
        let dir = tmp_dir("empty-proc");
        let mut s = LogStore::new(2);
        s.push(ProcId(0), prelog(0, 0, 1));
        s.push(ProcId(0), postlog(0, 0, 2));
        write_store(&s, &dir, 0, SegmentFormat::default()).unwrap();
        assert!(dir.join(segment_file_name(1, 0)).exists(), "empty process still owns a file");
        let seg = SegmentedLog::open(&dir).unwrap();
        assert!(seg.process_log(ProcId(1)).unwrap().entries.is_empty());
        assert_eq!(seg.total_entries(), 2);
        seg.verify().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_segment_process_is_a_positioned_error() {
        // Every segment of process 1 deleted while the manifest still
        // lists it, or a manifest listing 2^64 - 1 processes, which open
        // must refuse before sizing anything by it. Either way the error
        // names the first process without a segment.
        let huge = format!(
            r#"{{"format":"ppd-segmented-log","version":{SEGMENT_VERSION},"processes":{}}}"#,
            usize::MAX
        );
        for (case, missing) in [("deleted", 1), ("huge-count", 2)] {
            let dir = tmp_dir(&format!("zero-seg-{case}"));
            write_store(&sample_store(5), &dir, 0, SegmentFormat::default()).unwrap();
            if case == "huge-count" {
                std::fs::write(dir.join(MANIFEST_NAME), &huge).unwrap();
            } else {
                for ent in std::fs::read_dir(&dir).unwrap() {
                    let path = ent.unwrap().path();
                    if path.file_name().unwrap().to_string_lossy().starts_with("p0001") {
                        std::fs::remove_file(path).unwrap();
                    }
                }
            }
            match SegmentedLog::open(&dir) {
                Err(SegError::Corrupt { file, detail }) => {
                    assert_eq!(file, segment_file_name(missing, 0), "{case}");
                    let want = format!("process {missing} has no segment files");
                    assert!(detail.contains(&want), "{case}: {detail}");
                }
                other => panic!("{case}: expected a positioned corruption error, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn verify_checks_payload_against_footer() {
        let dir = tmp_dir("verify-good");
        let s = sample_store(15);
        write_store(&s, &dir, 128, SegmentFormat::default()).unwrap();
        let seg = SegmentedLog::open(&dir).unwrap();
        let report = seg.verify().unwrap();
        assert_eq!(report.entries, s.total_entries() as u64);
        assert!(report.segments > 0);
        assert!(report.warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = tmp_dir("no-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(SegmentedLog::open(&dir), Err(SegError::Io { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_file_names_parse_back() {
        assert_eq!(parse_file_name(&segment_file_name(7, 42)), Some((7, 42)));
        assert_eq!(parse_file_name("manifest.json"), None);
        assert_eq!(parse_file_name("p0007.seg"), None);
    }
}
