//! The compact binary entry codec — the payload format of the segmented
//! on-disk log ([`crate::segment`]).
//!
//! Each entry is a one-byte tag followed by its fields. Every integer is
//! an unsigned LEB128 varint; signed values are zigzag-mapped first. A
//! decode failure is a [`BinError`] carrying the absolute byte offset
//! where it was detected and, once the segment reader attaches it, the
//! segment file it fell in.

use crate::entry::LogEntry;
use ppd_analysis::EBlockId;
use ppd_lang::{StmtId, Value, VarId};
use std::fmt;

const TAG_PRELOG: u8 = 0;
const TAG_POSTLOG: u8 = 1;
const TAG_SHARED: u8 = 2;
const TAG_INPUT: u8 = 3;
const TAG_RECEIVE: u8 = 4;
const TAG_ELEMENT: u8 = 5;

const VAL_INT: u8 = 0;
const VAL_ARRAY: u8 = 1;

/// What went wrong while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinErrorKind {
    /// An entry or value tag byte was not recognized.
    BadTag(u8),
    /// The input ended mid-record.
    UnexpectedEof,
}

/// A binary decoding failure: the failure kind, the absolute byte
/// offset in the decoded input where it was detected, and — when the
/// failing bytes belong to an on-disk segment — which one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// The failure itself.
    pub kind: BinErrorKind,
    /// Absolute byte offset (into the segment payload or file) at which
    /// decoding failed.
    pub offset: usize,
    /// Enclosing container, e.g. a segment file name, when known.
    pub context: Option<String>,
}

impl BinError {
    pub(crate) fn new(kind: BinErrorKind, offset: usize) -> BinError {
        BinError { kind, offset, context: None }
    }

    /// Attaches (or replaces) the container context.
    pub(crate) fn with_context(mut self, context: impl Into<String>) -> BinError {
        self.context = Some(context.into());
        self
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BinErrorKind::BadTag(t) => write!(f, "unknown record tag {t}")?,
            BinErrorKind::UnexpectedEof => write!(f, "truncated binary log")?,
        }
        write!(f, " at byte {}", self.offset)?;
        if let Some(ctx) = &self.context {
            write!(f, " in {ctx}")?;
        }
        Ok(())
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------------
// Primitive writers/readers (shared with the segment footer codec and
// the parallel-graph record of a saved run)
// ---------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_signed(out: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes of either sign stay short.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A bounds-checked byte reader that knows its absolute position inside
/// the containing blob or file, so every error carries a real offset.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Absolute offset of `bytes[0]` within the containing input.
    base: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, offsets counted from its start.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0, base: 0 }
    }

    /// A reader over a slice that starts `base` bytes into the
    /// containing input (error offsets stay absolute).
    pub fn with_base(bytes: &'a [u8], base: usize) -> Reader<'a> {
        Reader { bytes, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn err(&self, kind: BinErrorKind) -> BinError {
        BinError::new(kind, self.offset())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`BinErrorKind::UnexpectedEof`] at the end of the input.
    pub fn byte(&mut self) -> Result<u8, BinError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err(BinErrorKind::UnexpectedEof))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`BinErrorKind::UnexpectedEof`] if the input ends inside it,
    /// [`BinErrorKind::BadTag`] (with the offending byte) if it runs
    /// past 64 bits.
    pub fn varint(&mut self) -> Result<u64, BinError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let at = self.offset();
            let b = self.byte()?;
            if shift >= 64 {
                return Err(BinError::new(BinErrorKind::BadTag(b), at));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub(crate) fn signed(&mut self) -> Result<i64, BinError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Appends `len` signed cells to `out`. A run of one-byte cells
    /// decodes in one pass over the slice; a multi-byte cell (or the end
    /// of the input) goes through [`signed`](Self::signed), so errors and
    /// their offsets are those of a cell-by-cell decode. Every cell takes
    /// at least one byte, so the reservation is bounded by the bytes
    /// left, whatever `len` claims.
    fn cells(&mut self, len: usize, out: &mut Vec<i64>) -> Result<(), BinError> {
        out.reserve_exact(len.min(self.remaining()));
        let mut left = len;
        while left > 0 {
            let rest = &self.bytes[self.pos..];
            let before = out.len();
            for &b in &rest[..left.min(rest.len())] {
                if b & 0x80 != 0 {
                    break;
                }
                out.push(unzigzag(u64::from(b)));
            }
            let run = out.len() - before;
            self.pos += run;
            left -= run;
            if left > 0 {
                out.push(self.signed()?);
                left -= 1;
            }
        }
        Ok(())
    }
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// Values and entries
// ---------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(n) => {
            out.push(VAL_INT);
            put_signed(out, *n);
        }
        Value::Array(a) => {
            out.push(VAL_ARRAY);
            put_varint(out, a.len() as u64);
            for &n in a {
                put_signed(out, n);
            }
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value, BinError> {
    let at = r.offset();
    match r.byte()? {
        VAL_INT => Ok(Value::Int(r.signed()?)),
        VAL_ARRAY => {
            let len = r.varint()? as usize;
            let mut a = Vec::new();
            r.cells(len, &mut a)?;
            Ok(Value::Array(a))
        }
        t => Err(BinError::new(BinErrorKind::BadTag(t), at)),
    }
}

fn put_values(out: &mut Vec<u8>, vs: &[(VarId, Value)]) {
    put_varint(out, vs.len() as u64);
    for (var, value) in vs {
        put_varint(out, u64::from(var.0));
        put_value(out, value);
    }
}

fn get_values(r: &mut Reader<'_>) -> Result<Vec<(VarId, Value)>, BinError> {
    let len = r.varint()? as usize;
    let mut vs = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        let var = VarId(r.varint()? as u32);
        vs.push((var, get_value(r)?));
    }
    Ok(vs)
}

/// Appends one entry in the tagged wire format.
pub(crate) fn put_entry(out: &mut Vec<u8>, e: &LogEntry) {
    match e {
        LogEntry::Prelog { eblock, instance, values, time } => {
            out.push(TAG_PRELOG);
            put_varint(out, u64::from(eblock.0));
            put_varint(out, *instance);
            put_values(out, values);
            put_varint(out, *time);
        }
        LogEntry::Postlog { eblock, instance, values, ret, time } => {
            out.push(TAG_POSTLOG);
            put_varint(out, u64::from(eblock.0));
            put_varint(out, *instance);
            put_values(out, values);
            match ret {
                Some(v) => {
                    out.push(1);
                    put_value(out, v);
                }
                None => out.push(0),
            }
            put_varint(out, *time);
        }
        LogEntry::SharedSnapshot { at, values, time } => {
            out.push(TAG_SHARED);
            match at {
                Some(stmt) => {
                    out.push(1);
                    put_varint(out, u64::from(stmt.0));
                }
                None => out.push(0),
            }
            put_values(out, values);
            put_varint(out, *time);
        }
        LogEntry::Input { value, time } => {
            out.push(TAG_INPUT);
            put_signed(out, *value);
            put_varint(out, *time);
        }
        LogEntry::Receive { value, time } => {
            out.push(TAG_RECEIVE);
            put_signed(out, *value);
            put_varint(out, *time);
        }
        LogEntry::ElementRead { value, time } => {
            out.push(TAG_ELEMENT);
            put_signed(out, *value);
            put_varint(out, *time);
        }
    }
}

/// Reads one entry in the tagged wire format.
pub(crate) fn get_entry(r: &mut Reader<'_>) -> Result<LogEntry, BinError> {
    let at = r.offset();
    match r.byte()? {
        TAG_PRELOG => Ok(LogEntry::Prelog {
            eblock: EBlockId(r.varint()? as u32),
            instance: r.varint()?,
            values: get_values(r)?,
            time: r.varint()?,
        }),
        TAG_POSTLOG => Ok(LogEntry::Postlog {
            eblock: EBlockId(r.varint()? as u32),
            instance: r.varint()?,
            values: get_values(r)?,
            ret: match r.byte()? {
                0 => None,
                _ => Some(get_value(r)?),
            },
            time: r.varint()?,
        }),
        TAG_SHARED => Ok(LogEntry::SharedSnapshot {
            at: match r.byte()? {
                0 => None,
                _ => Some(StmtId(r.varint()? as u32)),
            },
            values: get_values(r)?,
            time: r.varint()?,
        }),
        TAG_INPUT => Ok(LogEntry::Input { value: r.signed()?, time: r.varint()? }),
        TAG_RECEIVE => Ok(LogEntry::Receive { value: r.signed()?, time: r.varint()? }),
        TAG_ELEMENT => Ok(LogEntry::ElementRead { value: r.signed()?, time: r.varint()? }),
        t => Err(BinError::new(BinErrorKind::BadTag(t), at)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One entry of every kind, with edge-case values.
    fn every_kind() -> Vec<LogEntry> {
        vec![
            LogEntry::Prelog {
                eblock: EBlockId(0),
                instance: 0,
                values: vec![(VarId(0), Value::Int(-7)), (VarId(3), Value::Array(vec![1, -2, 3]))],
                time: 1,
            },
            LogEntry::Input { value: i64::MIN, time: 2 },
            LogEntry::SharedSnapshot {
                at: Some(StmtId(9)),
                values: vec![(VarId(1), Value::Int(0))],
                time: 3,
            },
            LogEntry::Postlog {
                eblock: EBlockId(0),
                instance: 0,
                values: vec![(VarId(2), Value::Int(1 << 40))],
                ret: Some(Value::Int(-1)),
                time: 4,
            },
            LogEntry::Postlog {
                eblock: EBlockId(u32::MAX),
                instance: u64::MAX,
                values: vec![],
                ret: None,
                time: u64::MAX,
            },
            LogEntry::Receive { value: 99, time: 5 },
            LogEntry::ElementRead { value: -99, time: 6 },
            LogEntry::SharedSnapshot { at: None, values: vec![], time: 7 },
        ]
    }

    fn encode(entries: &[LogEntry]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in entries {
            put_entry(&mut out, e);
        }
        out
    }

    /// Decodes `count` entries from `bytes`, which start `base` bytes
    /// into segment `p0001-s000002.seg`, tagging errors the way the
    /// segment reader does.
    fn decode(bytes: &[u8], base: usize, count: usize) -> Result<Vec<LogEntry>, BinError> {
        let mut r = Reader::with_base(bytes, base);
        (0..count)
            .map(|_| get_entry(&mut r).map_err(|e| e.with_context("p0001-s000002.seg")))
            .collect()
    }

    #[test]
    fn every_entry_kind_round_trips() {
        let entries = every_kind();
        let bytes = encode(&entries);
        let mut r = Reader::new(&bytes);
        for e in &entries {
            assert_eq!(&get_entry(&mut r).expect("decodes"), e);
        }
        assert_eq!(r.remaining(), 0, "decode consumes exactly the encoded bytes");
    }

    #[test]
    fn flipped_tag_reports_bad_tag_at_its_absolute_offset() {
        let entries = every_kind();
        // Corrupt the tag of the sixth entry (the Receive).
        let at = encode(&entries[..5]).len();
        let mut bytes = encode(&entries);
        bytes[at] ^= 0xE0;
        let base = 17;
        let err = decode(&bytes, base, entries.len()).unwrap_err();
        assert_eq!(err.kind, BinErrorKind::BadTag(TAG_RECEIVE ^ 0xE0));
        assert_eq!(err.offset, base + at, "error pinpoints the flipped byte");
        assert_eq!(err.context.as_deref(), Some("p0001-s000002.seg"));
        let msg = err.to_string();
        assert!(msg.contains(&format!("at byte {}", base + at)), "{msg}");
        assert!(msg.contains("in p0001-s000002.seg"), "{msg}");
    }

    #[test]
    fn truncation_reports_unexpected_eof_at_the_end() {
        let entries = every_kind();
        let mut bytes = encode(&entries);
        bytes.truncate(bytes.len() - 1);
        let base = 5;
        let err = decode(&bytes, base, entries.len()).unwrap_err();
        assert_eq!(err.kind, BinErrorKind::UnexpectedEof);
        assert_eq!(err.offset, base + bytes.len(), "offset names the truncation point");
        assert_eq!(err.context.as_deref(), Some("p0001-s000002.seg"));
    }

    /// A byte-at-a-time decode of a postlog — one bounds check and one
    /// error offset per byte — kept as the reference the array fast path
    /// must agree with, errors and offsets included.
    struct Slow<'a> {
        bytes: &'a [u8],
        pos: usize,
        base: usize,
    }

    impl Slow<'_> {
        fn byte(&mut self) -> Result<u8, BinError> {
            let at = self.base + self.pos;
            let b =
                *self.bytes.get(self.pos).ok_or(BinError::new(BinErrorKind::UnexpectedEof, at))?;
            self.pos += 1;
            Ok(b)
        }

        fn varint(&mut self) -> Result<u64, BinError> {
            let (mut v, mut shift) = (0u64, 0u32);
            loop {
                let at = self.base + self.pos;
                let b = self.byte()?;
                if shift >= 64 {
                    return Err(BinError::new(BinErrorKind::BadTag(b), at));
                }
                v |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
        }

        fn signed(&mut self) -> Result<i64, BinError> {
            let v = self.varint()?;
            Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
        }

        fn value(&mut self) -> Result<Value, BinError> {
            let at = self.base + self.pos;
            match self.byte()? {
                VAL_INT => Ok(Value::Int(self.signed()?)),
                VAL_ARRAY => {
                    let len = self.varint()?;
                    (0..len).map(|_| self.signed()).collect::<Result<_, _>>().map(Value::Array)
                }
                t => Err(BinError::new(BinErrorKind::BadTag(t), at)),
            }
        }

        fn postlog(&mut self) -> Result<LogEntry, BinError> {
            let at = self.base + self.pos;
            match self.byte()? {
                TAG_POSTLOG => Ok(LogEntry::Postlog {
                    eblock: EBlockId(self.varint()? as u32),
                    instance: self.varint()?,
                    values: (0..self.varint()?)
                        .map(|_| Ok((VarId(self.varint()? as u32), self.value()?)))
                        .collect::<Result<_, _>>()?,
                    ret: match self.byte()? {
                        0 => None,
                        _ => Some(self.value()?),
                    },
                    time: self.varint()?,
                }),
                t => Err(BinError::new(BinErrorKind::BadTag(t), at)),
            }
        }
    }

    /// A postlog carrying `cells` as an array snapshot and as the
    /// return value, around a scalar.
    fn array_postlog(cells: &[i64]) -> LogEntry {
        LogEntry::Postlog {
            eblock: EBlockId(300),
            instance: 7,
            values: vec![(VarId(1), Value::Array(cells.to_vec())), (VarId(200), Value::Int(-65))],
            ret: Some(Value::Array(cells.iter().rev().copied().collect())),
            time: 1 << 20,
        }
    }

    /// Mostly one-byte cells (zigzag -64..=63), with multi-byte cells —
    /// the extremes included — breaking the runs at random positions.
    fn cells(picks: &[(u8, i64)]) -> Vec<i64> {
        let extremes = [i64::MIN, i64::MAX, 64, -65];
        picks
            .iter()
            .map(|&(pick, v)| match pick {
                0..=7 => v.rem_euclid(128) - 64,
                8 => v,
                _ => extremes[v.rem_euclid(4) as usize],
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Arrays whose one-byte runs are broken by multi-byte cells
        /// round-trip, consuming exactly their bytes.
        #[test]
        fn arrays_with_broken_runs_round_trip(picks in proptest::collection::vec((0u8..10, any::<i64>()), 0..300)) {
            let e = array_postlog(&cells(&picks));
            let bytes = encode(std::slice::from_ref(&e));
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(get_entry(&mut r).expect("decodes"), e);
            prop_assert_eq!(r.remaining(), 0);
        }

        /// Every truncation of an array entry is `UnexpectedEof` at the
        /// offset the byte-at-a-time reference reports.
        #[test]
        fn array_truncations_match_the_reference(
            picks in proptest::collection::vec((0u8..10, any::<i64>()), 0..300),
            base in 0usize..100,
        ) {
            let bytes = encode(&[array_postlog(&cells(&picks))]);
            for cut in 0..bytes.len() {
                let fast = get_entry(&mut Reader::with_base(&bytes[..cut], base)).unwrap_err();
                let slow = Slow { bytes: &bytes[..cut], pos: 0, base }.postlog().unwrap_err();
                prop_assert_eq!(&fast, &slow);
                prop_assert_eq!(fast.kind, BinErrorKind::UnexpectedEof);
            }
        }

        /// Damaged array entries decode to what the reference decodes,
        /// or fail with its error kind at its offset.
        #[test]
        fn damaged_arrays_match_the_reference(
            picks in proptest::collection::vec((0u8..10, any::<i64>()), 0..300),
            flips in proptest::collection::vec((any::<usize>(), 1u8..255), 1..4),
        ) {
            let mut bytes = encode(&[array_postlog(&cells(&picks))]);
            for (at, mask) in flips {
                // Past the tag: the reference decodes postlogs only.
                let at = 1 + at % (bytes.len() - 1);
                bytes[at] ^= mask;
            }
            let fast = get_entry(&mut Reader::with_base(&bytes, 9));
            let slow = Slow { bytes: &bytes, pos: 0, base: 9 }.postlog();
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn hostile_array_length_is_eof_without_allocating_it() {
        // 2^40 cells declared over three bytes of cells.
        let mut bytes = vec![VAL_ARRAY];
        put_varint(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[2, 4, 6]);
        let err = get_value(&mut Reader::with_base(&bytes, 40)).unwrap_err();
        assert_eq!(err, BinError::new(BinErrorKind::UnexpectedEof, 40 + bytes.len()));
        let mut r = Reader::with_base(&bytes[bytes.len() - 3..], 40);
        let mut out = Vec::new();
        let err = r.cells(1 << 40, &mut out).unwrap_err();
        assert_eq!(err, BinError::new(BinErrorKind::UnexpectedEof, 43));
        assert_eq!(out, [1, 2, 3], "the cells before the end decode");
        assert!(out.capacity() <= 3, "reserved {} cells for 3 bytes", out.capacity());
    }
}
