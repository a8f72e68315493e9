//! Property suite for the vendored `lzb` block compressor that segment
//! format v2 frames its payloads with.
//!
//! Round-trip fidelity over adversarial input shapes (random,
//! all-zero, repetitive, incompressible), the framing overhead bound,
//! and rejection of damaged frames: every truncation and every
//! single-byte corruption must fail with a *positioned* error — the
//! store's recovery scan depends on a damaged frame never decoding to
//! plausible garbage.
//!
//! The decoder's kernels are checked against slow references kept
//! here: the byte-at-a-time token decoder it replaced (on generated
//! token streams, intact and damaged) and a bit-at-a-time CRC-32.

use lzb::{
    compress, crc32, decompress, decompress_into, frame_sizes, LzbError, LzbErrorKind,
    MAX_FRAME_OVERHEAD, MAX_OFFSET, METHOD_LZB, MIN_MATCH,
};
use proptest::prelude::*;

/// Deterministic xorshift bytes: effectively incompressible input.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

fn assert_round_trip(input: &[u8]) {
    let frame = compress(input);
    assert!(
        frame.len() <= input.len() + MAX_FRAME_OVERHEAD,
        "frame for {} bytes expanded to {} (> input + MAX_FRAME_OVERHEAD)",
        input.len(),
        frame.len()
    );
    let (uncomp, total) = frame_sizes(&frame).expect("well-formed frame");
    assert_eq!(total, frame.len(), "frame_sizes sees the whole frame");
    assert_eq!(uncomp, input.len());
    let back = decompress(&frame).expect("round trip decodes");
    assert_eq!(back, input, "round trip must be lossless");
}

#[test]
fn fixed_shapes_round_trip() {
    assert_round_trip(b"");
    assert_round_trip(b"a");
    assert_round_trip(b"abcd");
    assert_round_trip(&[0u8; 100_000]);
    assert_round_trip(&b"the quick brown fox ".repeat(5_000));
    assert_round_trip(&noise(42, 100_000));
    // Compressible shapes actually compress.
    assert!(compress(&[0u8; 100_000]).len() < 1_000, "zeros compress hard");
    assert!(compress(&b"abcabcabc".repeat(10_000)).len() < 10_000, "repeats compress");
}

#[test]
fn decompress_into_appends_and_reports_consumed_bytes() {
    let a = b"first block first block first block".to_vec();
    let b = noise(7, 300);
    let mut frames = compress(&a);
    frames.extend_from_slice(&compress(&b));
    let mut out = Vec::new();
    let used = decompress_into(&frames, &mut out).expect("first frame decodes");
    assert_eq!(out, a);
    let used2 = decompress_into(&frames[used..], &mut out).expect("second frame decodes");
    assert_eq!(used + used2, frames.len());
    assert_eq!(&out[a.len()..], &b[..], "second frame appended after the first");
}

/// Every proper prefix of a frame is rejected, and the reported offset
/// points inside (or just past) the prefix we handed in.
fn assert_truncations_rejected(input: &[u8]) {
    let frame = compress(input);
    // Sample prefixes densely at the edges, sparsely in the middle.
    let len = frame.len();
    let cuts: Vec<usize> = (0..len.min(8))
        .chain((8..len).step_by((len / 37).max(1)))
        .chain(len.saturating_sub(6)..len)
        .collect();
    for cut in cuts {
        let mut out = Vec::new();
        let e: LzbError =
            decompress_into(&frame[..cut], &mut out).expect_err("truncated frame must not decode");
        assert!(e.offset <= cut, "error offset {} beyond the {cut}-byte prefix", e.offset);
        assert!(out.is_empty(), "failed decode must not leave partial output");
    }
}

/// Every single-byte corruption is rejected: the CRC trailer (over the
/// *decoded* bytes) backstops whatever the token stream fails to catch.
fn assert_corruptions_rejected(input: &[u8]) {
    let frame = compress(input);
    let step = (frame.len() / 61).max(1);
    for pos in (0..frame.len()).step_by(step) {
        for flip in [0x01u8, 0x80] {
            let mut bad = frame.clone();
            bad[pos] ^= flip;
            let mut out = Vec::new();
            match decompress_into(&bad, &mut out) {
                Err(e) => {
                    assert!(
                        e.offset <= bad.len(),
                        "error offset {} beyond frame length {}",
                        e.offset,
                        bad.len()
                    );
                    assert!(out.is_empty(), "failed decode must truncate its output");
                }
                Ok(_) => panic!(
                    "flip of bit {flip:#04x} at byte {pos} decoded successfully \
                     ({}-byte frame)",
                    frame.len()
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random bytes of random length round-trip losslessly.
    #[test]
    fn random_input_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        assert_round_trip(&bytes);
    }

    /// All-zero, repetitive and incompressible shapes round-trip at
    /// every length.
    #[test]
    fn shaped_input_round_trips(len in 0usize..8192, seed in any::<u64>()) {
        assert_round_trip(&vec![0u8; len]);
        let unit = [(seed as u8), (seed >> 8) as u8, (seed >> 16) as u8];
        let repetitive: Vec<u8> =
            unit.iter().copied().cycle().take(len).collect();
        assert_round_trip(&repetitive);
        assert_round_trip(&noise(seed, len));
    }

    /// Truncated frames are rejected with positioned errors, whatever
    /// the payload looked like.
    #[test]
    fn truncated_frames_rejected(bytes in proptest::collection::vec(any::<u8>(), 1..2048), seed in any::<u64>()) {
        assert_truncations_rejected(&bytes);
        assert_truncations_rejected(&vec![7u8; bytes.len()]);
        assert_truncations_rejected(&noise(seed, bytes.len()));
    }

    /// Bit-flipped frames are rejected with positioned errors.
    #[test]
    fn corrupted_frames_rejected(bytes in proptest::collection::vec(any::<u8>(), 1..1024), seed in any::<u64>()) {
        assert_corruptions_rejected(&bytes);
        assert_corruptions_rejected(&b"ppd ppd ppd ppd ".repeat(1 + bytes.len() / 16));
        assert_corruptions_rejected(&noise(seed, bytes.len()));
    }
}

/// The byte-at-a-time frame decoder the run-copying one replaced, kept
/// as the reference it must agree with: same output, or the same error
/// kind at the same offset.
mod reference {
    use lzb::{LzbError, LzbErrorKind, METHOD_LZB, METHOD_RAW, MIN_MATCH};

    fn err<T>(kind: LzbErrorKind, offset: usize) -> Result<T, LzbError> {
        Err(LzbError { kind, offset })
    }

    fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, LzbError> {
        let start = *pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            if *pos >= bytes.len() {
                return err(LzbErrorKind::Truncated, start);
            }
            let b = bytes[*pos];
            *pos += 1;
            if shift >= 63 && b > 1 {
                return err(LzbErrorKind::BadVarint, start);
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return err(LzbErrorKind::BadVarint, start);
            }
        }
    }

    fn get_len_ext(bytes: &[u8], pos: &mut usize) -> Result<usize, LzbError> {
        let mut v = 0usize;
        loop {
            if *pos >= bytes.len() {
                return err(LzbErrorKind::Truncated, *pos);
            }
            let b = bytes[*pos];
            *pos += 1;
            v += b as usize;
            if b != 255 {
                return Ok(v);
            }
        }
    }

    pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, LzbError> {
        let Some(&method) = frame.first() else {
            return err(LzbErrorKind::Truncated, 0);
        };
        if method != METHOD_RAW && method != METHOD_LZB {
            return err(LzbErrorKind::BadMethod(method), 0);
        }
        let mut pos = 1usize;
        let uncomp = get_varint(frame, &mut pos)? as usize;
        let stored = get_varint(frame, &mut pos)? as usize;
        let payload_start = pos;
        let crc_off = payload_start
            .checked_add(stored)
            .filter(|end| end.checked_add(4).is_some())
            .ok_or(LzbError { kind: LzbErrorKind::BadVarint, offset: pos })?;
        if crc_off + 4 > frame.len() {
            return err(LzbErrorKind::Truncated, frame.len());
        }
        let payload = &frame[payload_start..crc_off];
        let stored_crc = u32::from_le_bytes(frame[crc_off..crc_off + 4].try_into().unwrap());
        let mut out = Vec::new();
        if method == METHOD_RAW {
            if stored != uncomp {
                return err(
                    LzbErrorKind::LengthMismatch { declared: uncomp, produced: stored },
                    payload_start,
                );
            }
            out.extend_from_slice(payload);
        } else {
            decode_tokens(payload, payload_start, uncomp, &mut out)?;
        }
        if out.len() != uncomp {
            return err(
                LzbErrorKind::LengthMismatch { declared: uncomp, produced: out.len() },
                crc_off,
            );
        }
        let computed = super::crc32_bitwise(&out);
        if computed != stored_crc {
            return err(LzbErrorKind::Checksum { stored: stored_crc, computed }, crc_off);
        }
        Ok(out)
    }

    fn decode_tokens(
        payload: &[u8],
        base: usize,
        expect: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), LzbError> {
        let at = |mut e: LzbError| {
            e.offset += base;
            e
        };
        let out_start = out.len();
        let mut pos = 0usize;
        while pos < payload.len() {
            let token = payload[pos];
            pos += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len += get_len_ext(payload, &mut pos).map_err(at)?;
            }
            if pos + lit_len > payload.len() {
                return err(LzbErrorKind::Truncated, base + payload.len());
            }
            out.extend_from_slice(&payload[pos..pos + lit_len]);
            pos += lit_len;
            if pos == payload.len() {
                if token & 0x0F != 0 {
                    return err(LzbErrorKind::Truncated, base + payload.len());
                }
                break;
            }
            if pos + 2 > payload.len() {
                return err(LzbErrorKind::Truncated, base + payload.len());
            }
            let offset = u16::from_le_bytes([payload[pos], payload[pos + 1]]) as usize;
            let tok_pos = pos;
            pos += 2;
            let mut match_len = (token & 0x0F) as usize;
            if match_len == 15 {
                match_len += get_len_ext(payload, &mut pos).map_err(at)?;
            }
            match_len += MIN_MATCH;
            let produced = out.len() - out_start;
            if offset == 0 || offset > produced {
                return err(LzbErrorKind::BadMatchOffset { offset, produced }, base + tok_pos);
            }
            if produced + match_len > expect {
                return err(
                    LzbErrorKind::LengthMismatch {
                        declared: expect,
                        produced: produced + match_len,
                    },
                    base + tok_pos,
                );
            }
            let src = out.len() - offset;
            for i in src..src + match_len {
                let b = out[i];
                out.push(b);
            }
        }
        Ok(())
    }
}

/// Bit-at-a-time IEEE CRC-32: the definition the table-driven one must
/// reproduce.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_len_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// One generated sequence: `(shape, literal_len, match_len, seed)`.
/// `shape % 4` picks the match offset — 1, every byte produced so far,
/// less than the match length (an overlapping copy), or anywhere —
/// and `shape / 4` whether the literal run and the match carry length
/// extensions.
type Sequence = (u8, usize, usize, u64);

/// Builds a token stream from `seqs` the way the encoder lays one out
/// (a final literal-only token included) and returns the stream, the
/// output it must decode to, and where in the stream each match offset
/// sits.
fn token_stream(seqs: &[Sequence], tail: usize) -> (Vec<u8>, Vec<u8>, Vec<usize>) {
    let (mut payload, mut out, mut offsets) = (Vec::new(), Vec::new(), Vec::new());
    let literal = |payload: &mut Vec<u8>, out: &mut Vec<u8>, n: usize, seed: u64| {
        // A small alphabet, so literals also repeat what came before.
        let bytes: Vec<u8> = noise(seed, n).iter().map(|b| b % 4 + b'a').collect();
        payload.extend_from_slice(&bytes);
        out.extend_from_slice(&bytes);
    };
    for &(shape, lit, len, seed) in seqs {
        let long = shape / 4;
        let mut lit_len = if long & 1 == 1 { 15 + lit } else { lit % 15 };
        if out.is_empty() && lit_len == 0 {
            lit_len = 1; // a match needs something to point at
        }
        let extra = if long & 2 == 2 { 15 + len } else { len % 15 };
        let match_len = MIN_MATCH + extra;
        let produced = (out.len() + lit_len).min(MAX_OFFSET);
        let offset = match shape % 4 {
            0 => 1,
            1 => produced,
            2 => 1 + (seed as usize) % produced.min(match_len - 1),
            _ => 1 + (seed as usize) % produced,
        };
        payload.push(((lit_len.min(15) as u8) << 4) | extra.min(15) as u8);
        if lit_len >= 15 {
            put_len_ext(&mut payload, lit_len - 15);
        }
        literal(&mut payload, &mut out, lit_len, seed);
        offsets.push(payload.len());
        payload.extend_from_slice(&(offset as u16).to_le_bytes());
        if extra >= 15 {
            put_len_ext(&mut payload, extra - 15);
        }
        let src = out.len() - offset;
        for i in src..src + match_len {
            out.push(out[i]);
        }
    }
    payload.push((tail.min(15) as u8) << 4);
    if tail >= 15 {
        put_len_ext(&mut payload, tail - 15);
    }
    literal(&mut payload, &mut out, tail, 99);
    (payload, out, offsets)
}

/// Frames a token stream as lzb does: method, declared size, stored
/// size, payload, CRC-32 of the output.
fn lzb_frame(payload: &[u8], declared: usize, out: &[u8]) -> Vec<u8> {
    let mut frame = vec![METHOD_LZB];
    put_varint(&mut frame, declared as u64);
    put_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32_bitwise(out).to_le_bytes());
    frame
}

/// Both decoders give the same bytes, or fail the same way at the same
/// offset; a failed `decompress_into` leaves nothing behind.
fn assert_decoders_agree(frame: &[u8]) -> Result<Vec<u8>, LzbError> {
    let mut out = b"prefix".to_vec();
    let fast = decompress_into(frame, &mut out).map(|n| {
        assert_eq!(n, frame.len(), "a whole frame is consumed");
        out.split_off(6)
    });
    if fast.is_err() {
        assert_eq!(out, b"prefix", "a failed decode leaves the buffer as it was");
    }
    assert_eq!(fast, reference::decompress(frame), "{} byte frame", frame.len());
    fast
}

#[test]
fn every_match_shape_decodes_like_the_reference() {
    // Offsets 1, = produced, < length and anywhere; literal runs and
    // match lengths with and without extensions (255-continuations
    // included). The same stream declared one byte short is a length
    // mismatch in both.
    let seqs: Vec<Sequence> =
        (0..32u8).map(|s| (s % 16, 300 * (s as usize % 3), 600, 7 + s as u64)).collect();
    let (payload, out, _) = token_stream(&seqs, 20);
    assert_eq!(
        assert_decoders_agree(&lzb_frame(&payload, out.len(), &out)).as_deref(),
        Ok(&out[..])
    );
    let e = assert_decoders_agree(&lzb_frame(&payload, out.len() - 1, &out)).unwrap_err();
    assert!(matches!(e.kind, LzbErrorKind::LengthMismatch { .. }), "{e}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Generated token streams decode byte for byte like the reference.
    #[test]
    fn token_streams_decode_like_the_reference(
        seqs in proptest::collection::vec((0u8..16, 0usize..300, 0usize..300, any::<u64>()), 0..24),
        tail in 0usize..40,
    ) {
        let (payload, out, _) = token_stream(&seqs, tail);
        prop_assert_eq!(assert_decoders_agree(&lzb_frame(&payload, out.len(), &out)), Ok(out));
    }

    /// Damaged streams — a redirected match, flipped bytes, a wrong
    /// declared size, a cut — fail with the reference's error kind at
    /// the reference's offset.
    #[test]
    fn damaged_token_streams_fail_like_the_reference(
        seqs in proptest::collection::vec((0u8..16, 0usize..20, 0usize..300, any::<u64>()), 1..12),
        (redirect, offset) in (any::<usize>(), any::<u16>()),
        flips in proptest::collection::vec((any::<usize>(), 1u8..255), 0..3),
        (declared, cut) in (0usize..8, any::<usize>()),
    ) {
        let (mut payload, out, offsets) = token_stream(&seqs, 3);
        if redirect % 2 == 0 {
            let at = offsets[redirect / 2 % offsets.len()];
            payload[at..at + 2].copy_from_slice(&(offset % 64).to_le_bytes());
        }
        let declared = [out.len() - 1, out.len() + 1, out.len() / 2].get(declared).copied().unwrap_or(out.len());
        let mut frame = lzb_frame(&payload, declared, &out);
        for (at, mask) in flips {
            let at = at % frame.len();
            frame[at] ^= mask;
        }
        if cut % 4 == 0 {
            frame.truncate(cut / 4 % frame.len());
        }
        let _ = assert_decoders_agree(&frame);
    }

    /// The slice-by-16 CRC-32 equals the bitwise definition on random
    /// unaligned sub-slices.
    #[test]
    fn crc32_of_unaligned_slices_matches_bitwise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        (start, len) in (any::<usize>(), any::<usize>()),
    ) {
        let start = start % (bytes.len() + 1);
        let end = start + len % (bytes.len() - start + 1);
        prop_assert_eq!(crc32(&bytes[start..end]), crc32_bitwise(&bytes[start..end]));
    }
}

#[test]
fn crc32_matches_bitwise_at_every_short_length() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    // Every length to 80: the 16-byte body zero to five times, with every
    // remainder length, at every alignment of the slice start.
    let data = noise(3, 100);
    for start in 0..16 {
        for len in 0..=80 {
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "start {start} length {len}");
        }
    }
}
