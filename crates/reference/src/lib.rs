//! # rr-reference — differential oracles for the `.rrlog` codecs
//!
//! Slow, obviously-correct reimplementations that the tests and the codec
//! bench compare the production codec in `relaxreplay::wire` against:
//!
//! * [`crc32_reference`] — CRC32 (IEEE), one byte and one bit at a time,
//!   against the slicing-by-16 `wire::crc32`;
//! * [`decode_chunked_reference`] — an entry-at-a-time chunked decoder
//!   that walks the frames itself, against the batched SWAR fast path;
//! * [`decode_flat`] — the decoder of the fixed-width
//!   `IntervalLog::encode_flat` baseline;
//! * [`assert_damage_is_typed`] — the corruption harness every byte
//!   format's decoder runs under: each single-bit flip and each
//!   truncation must decode to the intact value or a typed error.
//!
//! Built only from `relaxreplay`'s public API (`parse_header`,
//! `read_varint`, the log types), so no code is shared with the path
//! under test beyond the varint primitive. This crate is only ever a
//! `[dev-dependency]`; no production crate may depend on it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use relaxreplay::wire::{parse_header, read_varint, WireError};
use relaxreplay::{IntervalLog, LogEntry};
use rr_mem::CoreId;

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), one byte per
/// step and one bit per inner step, with no lookup table.
#[must_use]
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Entry tags of a chunk payload (DESIGN §2.3.1).
const TAG_INORDER: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_RMW_STORED: u8 = 3;
const TAG_RMW_FAILED: u8 = 4;
const TAG_FRAME: u8 = 5;

/// `n` bytes at `*pos`, advancing past them; `None` if the stream ends
/// first.
fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let s = bytes.get(*pos..pos.checked_add(n)?)?;
    *pos += n;
    Some(s)
}

/// Decodes one entry of chunk `chunk`'s payload at `*pos`.
/// `prev_timestamp` is the previous frame's timestamp in the same chunk.
fn decode_entry(
    payload: &[u8],
    pos: &mut usize,
    prev_timestamp: &mut u64,
    chunk: usize,
) -> Result<LogEntry, WireError> {
    let corrupt = |detail| WireError::Corrupt { chunk, detail };
    let tag = take(payload, pos, 1).ok_or(corrupt("entry tag missing"))?[0];
    let varint =
        |pos: &mut usize| read_varint(payload, pos).ok_or(corrupt("varint truncated or overlong"));
    let offset =
        |pos: &mut usize| u32::try_from(varint(pos)?).map_err(|_| corrupt("offset exceeds u32"));
    Ok(match tag {
        TAG_INORDER => LogEntry::InorderBlock {
            instrs: u32::try_from(varint(pos)?).map_err(|_| corrupt("block size exceeds u32"))?,
        },
        TAG_LOAD => LogEntry::ReorderedLoad {
            value: varint(pos)?,
        },
        TAG_STORE => LogEntry::ReorderedStore {
            addr: varint(pos)?,
            value: varint(pos)?,
            offset: offset(pos)?,
        },
        TAG_RMW_STORED | TAG_RMW_FAILED => LogEntry::ReorderedRmw {
            loaded: varint(pos)?,
            addr: varint(pos)?,
            stored: if tag == TAG_RMW_STORED {
                Some(varint(pos)?)
            } else {
                None
            },
            offset: offset(pos)?,
        },
        TAG_FRAME => {
            let cisn = u16::try_from(varint(pos)?).map_err(|_| corrupt("cisn exceeds u16"))?;
            *prev_timestamp = prev_timestamp.wrapping_add(varint(pos)?);
            LogEntry::IntervalFrame {
                cisn,
                timestamp: *prev_timestamp,
            }
        }
        _ => return Err(corrupt("unknown entry tag")),
    })
}

/// Decodes a chunked `.rrlog` stream one frame and one entry at a time.
/// Must return exactly what `relaxreplay::wire::decode_chunked` returns on
/// every input, valid or not.
///
/// # Errors
///
/// The first [`WireError`] of the stream, as `decode_chunked`.
pub fn decode_chunked_reference(bytes: &[u8]) -> Result<IntervalLog, WireError> {
    let (core, _) = parse_header(bytes)?;
    let mut log = IntervalLog::new(core);
    let mut pos = 7usize;
    let mut chunk = 0usize;
    while pos < bytes.len() {
        let truncated = WireError::Truncated { chunk };
        let u32_at = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes"));
        let len = take(bytes, &mut pos, 4).ok_or(truncated.clone())?;
        let payload = take(bytes, &mut pos, u32_at(len) as usize).ok_or(truncated.clone())?;
        let stored = u32_at(take(bytes, &mut pos, 4).ok_or(truncated)?);
        let computed = crc32_reference(payload);
        if stored != computed {
            return Err(WireError::CrcMismatch {
                chunk,
                stored,
                computed,
            });
        }
        // Every chunk restarts the frame-timestamp delta state.
        let mut prev_timestamp = 0u64;
        let mut p = 0usize;
        while p < payload.len() {
            log.entries
                .push(decode_entry(payload, &mut p, &mut prev_timestamp, chunk)?);
        }
        chunk += 1;
    }
    Ok(log)
}

/// Deserializes a log produced by `IntervalLog::encode_flat`.
///
/// # Errors
///
/// Returns [`LogDecodeError`] on truncated input or an unknown entry tag.
pub fn decode_flat(bytes: &[u8]) -> Result<IntervalLog, LogDecodeError> {
    let mut i = 0usize;
    let field =
        |i: &mut usize, n: usize| take(bytes, i, n).ok_or(LogDecodeError::Truncated { at: *i });
    let u16_at = |s: &[u8]| u16::from_le_bytes(s.try_into().expect("2 bytes"));
    let u32_at = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes"));
    let u64_at = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8 bytes"));
    let core = CoreId::new(field(&mut i, 1)?[0]);
    let mut entries = Vec::new();
    while i < bytes.len() {
        let tag = field(&mut i, 1)?[0];
        let entry = match tag {
            0 => LogEntry::InorderBlock {
                instrs: u32_at(field(&mut i, 4)?),
            },
            1 => LogEntry::ReorderedLoad {
                value: u64_at(field(&mut i, 8)?),
            },
            2 => LogEntry::ReorderedStore {
                addr: u64_at(field(&mut i, 8)?),
                value: u64_at(field(&mut i, 8)?),
                offset: u32_at(field(&mut i, 4)?),
            },
            3 | 4 => LogEntry::ReorderedRmw {
                loaded: u64_at(field(&mut i, 8)?),
                addr: u64_at(field(&mut i, 8)?),
                stored: if tag == 3 {
                    Some(u64_at(field(&mut i, 8)?))
                } else {
                    None
                },
                offset: u32_at(field(&mut i, 4)?),
            },
            5 => LogEntry::IntervalFrame {
                cisn: u16_at(field(&mut i, 2)?),
                timestamp: u64_at(field(&mut i, 8)?),
            },
            other => return Err(LogDecodeError::UnknownTag { tag: other, at: i }),
        };
        entries.push(entry);
    }
    Ok(IntervalLog { core, entries })
}

/// Errors from [`decode_flat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogDecodeError {
    /// The byte stream ended mid-entry.
    Truncated {
        /// Offset at which more bytes were needed.
        at: usize,
    },
    /// An entry tag byte was not recognized.
    UnknownTag {
        /// The offending tag.
        tag: u8,
        /// Offset just past the tag.
        at: usize,
    },
}

/// The corruption harness: each single-bit flip and each truncation of
/// `bytes` must `decode` to the value the intact bytes decode to, or to
/// an error `typed` accepts as the format's own, and never panic. It
/// panics, naming the flipped bit or the cut, at the first that does not.
pub fn assert_damage_is_typed<T: PartialEq + Debug, E: Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    typed: impl Fn(&E) -> bool,
) {
    let intact = decode(bytes).expect("the intact bytes decode");
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        (format!("flip of bit {bit}"), flipped)
    });
    let cuts = (0..bytes.len()).map(|cut| (format!("cut at byte {cut}"), bytes[..cut].to_vec()));
    for (what, damaged) in flips.chain(cuts) {
        match catch_unwind(AssertUnwindSafe(|| decode(&damaged))) {
            Err(_) => panic!("{what}: the decoder panicked"),
            Ok(Ok(value)) => assert!(value == intact, "{what}: decoded to {value:?}"),
            Ok(Err(e)) => assert!(typed(&e), "{what}: untyped error {e:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxreplay::wire::{self, CodecError};

    const MAGIC: [u8; 4] = *b"TEST";

    fn sealed() -> Vec<u8> {
        wire::seal(MAGIC, 1, |out| {
            for v in [1, 300, u64::MAX] {
                wire::write_varint(out, v);
            }
        })
    }

    fn body(mut r: wire::Reader<'_, CodecError>) -> Result<Vec<u64>, CodecError> {
        let values = (0..3).map(|_| r.varint()).collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(values)
    }

    #[test]
    fn a_sealed_envelope_passes_the_harness() {
        let decode = |b: &[u8]| body(wire::open(b, MAGIC, 1, |e| e)?);
        assert_damage_is_typed(&sealed(), decode, |_| true);
    }

    /// The harness has teeth: a decoder that reads the same body but
    /// skips the envelope's CRC check decodes a flipped body bit to
    /// another value.
    #[test]
    #[should_panic(expected = "decoded to")]
    fn a_decoder_without_its_crc_check_fails_the_harness() {
        let decode = |b: &[u8]| {
            if b.len() < 10 || b[..4] != MAGIC {
                return Err(CodecError::BadHeader);
            }
            body(wire::Reader::new(&b[6..b.len() - 4], |e| e))
        };
        assert_damage_is_typed(&sealed(), decode, |_| true);
    }
}
