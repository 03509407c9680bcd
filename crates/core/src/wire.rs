//! The `.rrlog` wire format: log sinks and a chunked, checksummed binary
//! codec for interval logs.
//!
//! RelaxReplay's value proposition is a *compact, continuously produced*
//! log, so the on-disk format is built for streaming and durability rather
//! than one-shot serialization (the model of rr and other deployable
//! record/replay systems):
//!
//! * **Header** — magic `RRLG`, a format version, and the recorded core id.
//! * **Chunks** — length-prefixed runs of entries, each closed by a CRC32
//!   over the payload. Entries never span chunks, so a file truncated or
//!   corrupted anywhere still decodes to everything up to the last intact
//!   chunk boundary, with a typed [`WireError`] naming the failing chunk —
//!   never a panic.
//! * **Varint/delta entry encoding** — exploits the paper's Figure 6(c)
//!   field statistics: `InorderBlock` counts and `ReorderedStore` offsets
//!   are small, and frame timestamps are monotonically increasing, so
//!   LEB128 varints plus timestamp deltas shrink the log well below the
//!   flat fixed-width encoding.
//!
//! Writing streams: a [`Recorder`](crate::Recorder) can emit entries into
//! any [`LogSink`] at interval boundaries (streaming mode), and
//! [`ChunkedWriter`] frames them into chunks as they arrive.
//!
//! Reading is whole-log, as the paper's offline patch step (§3.3.2) is:
//! the bytes of one log (a file read whole, a store blob, a network fetch)
//! decode in one of two ways, both walking the chunk framing through one
//! parser:
//!
//! * **strict** — [`decode_chunked`], or [`decode_chunked_into`] for a
//!   reused output log, a [`Probe`], and the intact prefix on error;
//! * **lenient** — [`decode_chunked_skip`] skips damaged chunks instead of
//!   stopping and reports every chunk's health (diagnostics only).
//!
//! [`chunk_spans`] walks the same framing without touching payloads.

use core::fmt;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rr_mem::CoreId;

use crate::log::{IntervalLog, LogEntry};
use crate::prof::{CodecPhase, Probe};

/// File magic, first four bytes of every `.rrlog`.
pub const MAGIC: [u8; 4] = *b"RRLG";

/// The wire-format version: the only one written, and the only one read.
///
/// * v1/v2 carried the frame-timestamp delta state across chunks. Their
///   headers, like any but this one, give [`WireError::UnsupportedVersion`].
/// * v3 restarts the delta state in every chunk, so each chunk decodes alone.
pub const VERSION: u16 = 3;

/// Default chunk payload target in bytes: a chunk is closed at the first
/// entry boundary at or past this size.
pub const DEFAULT_CHUNK_BYTES: usize = 4096;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slicing-by-16 lookup tables. `tables[0]` is the classic one-byte table;
/// `tables[k][i]` extends the CRC of byte `i` by `k` zero bytes, so sixteen
/// input bytes fold through `tables[15]..tables[0]` in one step.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = crc32_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC32 (IEEE) of `bytes` — the checksum closing every chunk.
///
/// Implemented with slicing-by-16: the hot loop consumes sixteen bytes per
/// iteration through sixteen precomputed tables (16 KiB, L1-resident)
/// instead of one byte through one table, breaking the byte-serial
/// dependency chain into four independent 32-bit lanes per step.
/// Differentially tested against the bytewise oracle in the dev-only
/// `rr-reference` crate.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for ch in &mut chunks {
        let a = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let b = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        let d = u32::from_le_bytes([ch[8], ch[9], ch[10], ch[11]]);
        let e = u32::from_le_bytes([ch[12], ch[13], ch[14], ch[15]]);
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Appends `v` to `buf` as an unsigned LEB128 varint (1 byte for values
/// below 128 — the common case for block sizes and store offsets).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from `buf` starting at `*pos`,
/// advancing `*pos`. Returns `None` on truncation or overflow past 64
/// bits.
#[must_use]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// SWAR payload-compaction step: packs the low 7 bits of each byte of a
/// little-endian varint word into one contiguous value. Three fold rounds
/// (1→2→4-byte lanes) plus a final merge place byte `i`'s payload at bits
/// `7*i`, exactly the OR-accumulation the byte-at-a-time loop performs.
#[inline(always)]
const fn compact7(x: u64) -> u64 {
    let x = x & 0x7F7F_7F7F_7F7F_7F7F;
    let x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
    (x & 0x0FFF_FFFF) | ((x >> 4) & 0x00FF_FFFF_F000_0000)
}

/// Word-at-a-time (SWAR) varint read. The single- and two-byte cases
/// (block sizes, offsets, timestamp deltas, short addresses — the vast
/// majority of fields) exit after at most two bounds checks and two
/// compares, before any word-level work.
/// Longer varints load 8 bytes at once, find the first byte with a
/// clear continuation bit via `!word & 0x80…80`, and compact the 7-bit
/// payloads branchlessly with [`compact7`]; 9- and 10-byte encodings
/// (full 64-bit values) complete from the compacted low 56 bits plus one
/// or two tail bytes instead of re-running the byte loop. Reads within 8
/// bytes of the buffer end fall back to the byte loop, so
/// truncation/overflow semantics are bit-identical to [`read_varint`].
/// Differentially pinned to [`read_varint`] by the `prop_wire` suite and
/// the unit vectors below.
#[inline(always)]
fn read_varint_swar(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    let b = *buf.get(p)?;
    if b < 0x80 {
        *pos = p + 1;
        return Some(u64::from(b));
    }
    let b1 = *buf.get(p + 1)?;
    if b1 < 0x80 {
        *pos = p + 2;
        return Some(u64::from(b & 0x7F) | (u64::from(b1) << 7));
    }
    let Some(window) = buf.get(p..p + 8) else {
        // Fewer than 8 bytes left — the tail of the chunk payload. The
        // one-byte case was handled above, so go straight to the loop.
        return read_varint(buf, pos);
    };
    let word = u64::from_le_bytes(window.try_into().expect("8 bytes"));
    let stops = !word & 0x8080_8080_8080_8080;
    if stops == 0 {
        // All 8 bytes have continuation bits set: a 9- or 10-byte varint
        // (or an overlong/overflowing one). Complete it from the tail
        // bytes, mirroring `read_varint`'s overflow rules: byte 9 is the
        // final 7-bit group, byte 10 may only contribute bit 63.
        let low = compact7(word);
        let b8 = *buf.get(p + 8)?;
        if b8 < 0x80 {
            *pos = p + 9;
            return Some(low | (u64::from(b8) << 56));
        }
        let b9 = *buf.get(p + 9)?;
        if b9 > 1 {
            return None; // continuation past byte 10, or overflow past u64
        }
        *pos = p + 10;
        return Some(low | (u64::from(b8 & 0x7F) << 56) | (u64::from(b9) << 63));
    }
    let len = (stops.trailing_zeros() as usize >> 3) + 1; // 1..=8
    let keep = word & (u64::MAX >> ((8 - len) * 8));
    *pos = p + len;
    Some(compact7(keep))
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from encoding or decoding the `.rrlog` wire format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// An underlying I/O operation failed (message carries the detail).
    Io(String),
    /// The stream does not start with the `RRLG` magic.
    BadMagic,
    /// The header's version is not one this decoder understands.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The stream ended mid-header or mid-chunk. Every chunk before
    /// `chunk` decoded intact.
    Truncated {
        /// Index of the chunk that could not be completed (0-based).
        chunk: usize,
    },
    /// A chunk's CRC32 did not match its payload. Every chunk before
    /// `chunk` decoded intact.
    CrcMismatch {
        /// Index of the corrupt chunk (0-based).
        chunk: usize,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload as read.
        computed: u32,
    },
    /// A chunk passed its CRC but contained an entry the decoder does not
    /// recognize — a version-skew bug, not random corruption.
    Corrupt {
        /// Index of the chunk holding the malformed entry (0-based).
        chunk: usize,
        /// Human-readable detail (offending tag, varint overflow, …).
        detail: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "i/o error: {msg}"),
            WireError::BadMagic => write!(f, "not an .rrlog stream (bad magic)"),
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported .rrlog version {version}")
            }
            WireError::Truncated { chunk } => {
                write!(f, "stream truncated in chunk {chunk} (prior chunks intact)")
            }
            WireError::CrcMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} CRC mismatch (stored {stored:#010x}, computed {computed:#010x}; prior chunks intact)"
            ),
            WireError::Corrupt { chunk, detail } => {
                write!(f, "chunk {chunk} is malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A consumer of log entries: where a recorder streams its log.
///
/// Entries arrive in counting order; [`LogSink::close`] is called exactly
/// once, after the final [`LogEntry::IntervalFrame`], and must flush any
/// buffered state.
pub trait LogSink {
    /// Accepts the next entry in counting order.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the entry could not be durably accepted
    /// (e.g. the backing writer failed).
    fn emit(&mut self, entry: &LogEntry) -> Result<(), WireError>;

    /// Flushes and finalizes the sink. Called once, after the last entry.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if flushing failed.
    fn close(&mut self) -> Result<(), WireError>;
}

/// A [`LogSink`] that simply collects entries in memory (tests and
/// tooling; production streaming uses [`ChunkedWriter`]).
#[derive(Debug, Default)]
pub struct VecSink {
    /// Entries emitted so far, in counting order.
    pub entries: Vec<LogEntry>,
    /// Whether [`LogSink::close`] has been called.
    pub closed: bool,
}

impl LogSink for VecSink {
    fn emit(&mut self, entry: &LogEntry) -> Result<(), WireError> {
        self.entries.push(*entry);
        Ok(())
    }

    fn close(&mut self) -> Result<(), WireError> {
        self.closed = true;
        Ok(())
    }
}

/// A [`LogSink`] that accepts a fixed number of entries and then fails
/// every further emit with an injected I/O error — fault injection for the
/// recorder's poisoning path (rr-check's `sink-fault` pressure mode and
/// the mid-record-failure regression tests).
///
/// The accepted prefix is kept behind a shared handle
/// ([`FailingSink::handle`]) so callers can inspect what reached "disk"
/// after the sink was boxed away into a recorder, including from another
/// thread (the sweep engine records on worker threads).
#[derive(Debug)]
pub struct FailingSink {
    accepted: std::sync::Arc<std::sync::Mutex<Vec<LogEntry>>>,
    fail_after: usize,
}

impl FailingSink {
    /// A sink that accepts exactly `fail_after` entries before failing.
    #[must_use]
    pub fn new(fail_after: usize) -> Self {
        FailingSink {
            accepted: std::sync::Arc::default(),
            fail_after,
        }
    }

    /// A shared view of the entries accepted so far; clone before boxing
    /// the sink into a recorder.
    #[must_use]
    pub fn handle(&self) -> std::sync::Arc<std::sync::Mutex<Vec<LogEntry>>> {
        std::sync::Arc::clone(&self.accepted)
    }
}

impl LogSink for FailingSink {
    fn emit(&mut self, entry: &LogEntry) -> Result<(), WireError> {
        let mut accepted = self.accepted.lock().expect("sink lock");
        if accepted.len() >= self.fail_after {
            return Err(WireError::Io("injected sink fault".into()));
        }
        accepted.push(*entry);
        Ok(())
    }

    fn close(&mut self) -> Result<(), WireError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Entry codec (within a chunk payload)
// ---------------------------------------------------------------------------

const TAG_INORDER: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_RMW_STORED: u8 = 3;
const TAG_RMW_FAILED: u8 = 4;
const TAG_FRAME: u8 = 5;

/// Appends `e` to a chunk payload. Frame timestamps are delta-coded
/// against `prev_timestamp`, the previous frame's timestamp in the same
/// chunk (0 at the start of every chunk): timestamps are monotone cycle
/// counts, so deltas are small.
fn encode_entry(buf: &mut Vec<u8>, e: &LogEntry, prev_timestamp: &mut u64) {
    match e {
        LogEntry::InorderBlock { instrs } => {
            buf.push(TAG_INORDER);
            write_varint(buf, u64::from(*instrs));
        }
        LogEntry::ReorderedLoad { value } => {
            buf.push(TAG_LOAD);
            write_varint(buf, *value);
        }
        LogEntry::ReorderedStore {
            addr,
            value,
            offset,
        } => {
            buf.push(TAG_STORE);
            write_varint(buf, *addr);
            write_varint(buf, *value);
            write_varint(buf, u64::from(*offset));
        }
        LogEntry::ReorderedRmw {
            loaded,
            addr,
            stored,
            offset,
        } => {
            buf.push(if stored.is_some() {
                TAG_RMW_STORED
            } else {
                TAG_RMW_FAILED
            });
            write_varint(buf, *loaded);
            write_varint(buf, *addr);
            if let Some(s) = stored {
                write_varint(buf, *s);
            }
            write_varint(buf, u64::from(*offset));
        }
        LogEntry::IntervalFrame { cisn, timestamp } => {
            buf.push(TAG_FRAME);
            write_varint(buf, u64::from(*cisn));
            write_varint(buf, timestamp.wrapping_sub(*prev_timestamp));
            *prev_timestamp = *timestamp;
        }
    }
}

/// Batched decode of a whole chunk payload into `out`.
///
/// This is the codec hot path: one tight loop over the payload with the
/// word-at-a-time SWAR varint reader, instead of a dispatch per entry. On
/// error the entries already decoded stay in `out` (they are an intact
/// prefix of the chunk) and the returned [`WireError`] carries `chunk`.
/// The frame-timestamp delta state starts at 0, as the encoder's does in
/// every chunk.
fn decode_chunk_entries(
    payload: &[u8],
    chunk: usize,
    out: &mut Vec<LogEntry>,
) -> Result<(), WireError> {
    let corrupt = |detail| WireError::Corrupt { chunk, detail };
    let mut pos = 0usize;
    let mut prev_timestamp = 0u64;
    macro_rules! varint {
        () => {
            match read_varint_swar(payload, &mut pos) {
                Some(v) => v,
                None => return Err(corrupt("varint truncated or overlong")),
            }
        };
    }
    while pos < payload.len() {
        let tag = payload[pos];
        pos += 1;
        let entry = match tag {
            TAG_INORDER => LogEntry::InorderBlock {
                instrs: u32::try_from(varint!()).map_err(|_| corrupt("block size exceeds u32"))?,
            },
            TAG_LOAD => LogEntry::ReorderedLoad { value: varint!() },
            TAG_STORE => LogEntry::ReorderedStore {
                addr: varint!(),
                value: varint!(),
                offset: u32::try_from(varint!()).map_err(|_| corrupt("offset exceeds u32"))?,
            },
            TAG_RMW_STORED | TAG_RMW_FAILED => {
                let loaded = varint!();
                let addr = varint!();
                let stored = if tag == TAG_RMW_STORED {
                    Some(varint!())
                } else {
                    None
                };
                let offset = u32::try_from(varint!()).map_err(|_| corrupt("offset exceeds u32"))?;
                LogEntry::ReorderedRmw {
                    loaded,
                    addr,
                    stored,
                    offset,
                }
            }
            TAG_FRAME => {
                let cisn = u16::try_from(varint!()).map_err(|_| corrupt("cisn exceeds u16"))?;
                let timestamp = prev_timestamp.wrapping_add(varint!());
                prev_timestamp = timestamp;
                LogEntry::IntervalFrame { cisn, timestamp }
            }
            _ => return Err(corrupt("unknown entry tag")),
        };
        out.push(entry);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chunked writer
// ---------------------------------------------------------------------------

/// Streams entries into a `Write` as the chunked `.rrlog` format.
///
/// The header is written on construction; entries accumulate into an
/// in-memory payload buffer that is framed (length prefix + CRC32) and
/// flushed whenever it reaches the chunk target. [`LogSink::close`]
/// flushes the final partial chunk.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    prev_timestamp: u64,
    chunk_bytes: usize,
    chunks_written: usize,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the `.rrlog` header for `core` and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError::Io`] if the header cannot be written.
    pub fn new(w: W, core: CoreId) -> Result<Self, WireError> {
        Self::with_chunk_bytes(w, core, DEFAULT_CHUNK_BYTES)
    }

    /// As [`ChunkedWriter::new`] with a custom chunk payload target
    /// (smaller chunks recover more of a damaged file; larger chunks
    /// amortize framing overhead).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError::Io`] if the header cannot be written.
    pub fn with_chunk_bytes(mut w: W, core: CoreId, chunk_bytes: usize) -> Result<Self, WireError> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[core.index() as u8])?;
        Ok(ChunkedWriter {
            w,
            buf: Vec::with_capacity(chunk_bytes + 64),
            prev_timestamp: 0,
            chunk_bytes: chunk_bytes.max(1),
            chunks_written: 0,
        })
    }

    /// Chunks written (closed) so far.
    #[must_use]
    pub fn chunks_written(&self) -> usize {
        self.chunks_written
    }

    fn flush_chunk(&mut self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let len = u32::try_from(self.buf.len())
            .map_err(|_| WireError::Io("chunk payload exceeds u32::MAX bytes".to_string()))?;
        self.w.write_all(&len.to_le_bytes())?;
        self.w.write_all(&self.buf)?;
        self.w.write_all(&crc32(&self.buf).to_le_bytes())?;
        self.buf.clear();
        self.chunks_written += 1;
        // Chunks are self-contained: the next chunk's first frame carries
        // its absolute timestamp.
        self.prev_timestamp = 0;
        Ok(())
    }
}

impl<W: Write> LogSink for ChunkedWriter<W> {
    fn emit(&mut self, entry: &LogEntry) -> Result<(), WireError> {
        encode_entry(&mut self.buf, entry, &mut self.prev_timestamp);
        if self.buf.len() >= self.chunk_bytes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), WireError> {
        self.flush_chunk()?;
        self.w.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Whole-log helpers
// ---------------------------------------------------------------------------

/// Encodes a whole log as one chunked `.rrlog` byte stream.
#[must_use]
pub fn encode_chunked(log: &IntervalLog) -> Vec<u8> {
    encode_chunked_with(log, DEFAULT_CHUNK_BYTES)
}

/// As [`encode_chunked`] with an explicit chunk payload target.
///
/// # Panics
///
/// Never panics: writing to a `Vec<u8>` cannot fail.
#[must_use]
pub fn encode_chunked_with(log: &IntervalLog, chunk_bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(log.entries.len() * 3 + 16);
    let mut w = ChunkedWriter::with_chunk_bytes(&mut out, log.core, chunk_bytes)
        .expect("Vec<u8> writes cannot fail");
    for e in &log.entries {
        w.emit(e).expect("Vec<u8> writes cannot fail");
    }
    w.close().expect("Vec<u8> writes cannot fail");
    out
}

/// Parses and validates the 7-byte `.rrlog` header of an in-memory
/// stream, returning the recorded core and the wire version.
///
/// # Errors
///
/// [`WireError::Truncated`] if fewer than 7 bytes, [`WireError::BadMagic`]
/// for foreign streams, [`WireError::UnsupportedVersion`] for any version
/// but [`VERSION`].
pub fn parse_header(bytes: &[u8]) -> Result<(CoreId, u16), WireError> {
    if bytes.len() < 7 {
        return Err(WireError::Truncated { chunk: 0 });
    }
    if bytes[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    Ok((CoreId::new(bytes[6]), version))
}

/// One framed chunk of an in-memory stream, before CRC verification. The
/// payload is a zero-copy slice of the input.
struct RawChunk<'a> {
    payload: &'a [u8],
    stored_crc: u32,
}

/// Advances `*pos` over the next chunk frame. `None` at a clean end of
/// stream, `Some(Err(Truncated))` if the frame is cut short.
fn next_raw_chunk<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    index: usize,
) -> Option<Result<RawChunk<'a>, WireError>> {
    if *pos >= bytes.len() {
        return None;
    }
    let truncated = WireError::Truncated { chunk: index };
    let Some(len_bytes) = bytes.get(*pos..*pos + 4) else {
        return Some(Err(truncated));
    };
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let Some(payload) = bytes.get(*pos + 4..*pos + 4 + len) else {
        return Some(Err(truncated));
    };
    let Some(crc_bytes) = bytes.get(*pos + 4 + len..*pos + 8 + len) else {
        return Some(Err(truncated));
    };
    *pos += 8 + len;
    Some(Ok(RawChunk {
        payload,
        stored_crc: u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")),
    }))
}

/// Decodes a chunked `.rrlog` byte stream, requiring it intact end to end.
///
/// This is the fast path: a zero-copy walk over the in-memory stream with
/// sliced CRC verification and batched whole-chunk entry decode straight
/// into the output log — no per-entry dispatch and no intermediate
/// buffers. Bit-identical to the `rr-reference` oracle decoder on every
/// input, valid or not.
///
/// # Errors
///
/// Returns the first [`WireError`]; use [`decode_chunked_into`] to also
/// keep the entries recovered before the failure point.
pub fn decode_chunked(bytes: &[u8]) -> Result<IntervalLog, WireError> {
    let mut log = IntervalLog::new(CoreId::new(0));
    decode_chunked_into(bytes, &mut log, &mut ())?;
    Ok(log)
}

/// Output-reservation policy for the strict decoder.
///
/// Entry width varies 2..10+ bytes with the reordered mix, so a fixed
/// guess is always wrong somewhere, and extrapolating the *first* chunk's
/// entry density across a multi-GB stream over-reserves wildly when the
/// stream is front-loaded with dense entries. Instead the decoder
/// re-extrapolates every [`RESERVE_CHECK_CHUNKS`] chunks from *cumulative*
/// observed density, clamped twice:
///
/// * by what the remaining bytes can physically hold (an entry is at
///   least [`MIN_ENTRY_WIRE_BYTES`] on the wire), and
/// * by 3× the entries decoded so far, so capacity never exceeds 4× the
///   high-water entry count no matter how skewed the density profile is.
const RESERVE_CHECK_CHUNKS: usize = 64;

/// Minimum wire footprint of one entry: a tag byte plus one 1-byte varint.
const MIN_ENTRY_WIRE_BYTES: usize = 2;

#[inline]
fn reserve_for_remainder(
    entries: &mut Vec<LogEntry>,
    decoded_payload_bytes: usize,
    remaining_stream_bytes: usize,
) {
    let decoded = entries.len();
    if decoded == 0 || decoded_payload_bytes == 0 {
        return;
    }
    let extrapolated = ((decoded as u128 * remaining_stream_bytes as u128)
        / decoded_payload_bytes as u128) as usize;
    let additional = extrapolated
        .min(remaining_stream_bytes / MIN_ENTRY_WIRE_BYTES)
        .min(3 * decoded);
    if entries.capacity() < decoded + additional {
        entries.reserve(additional);
    }
}

/// Runs `f`, timing it into `probe` as `phase` when the probe is enabled.
#[inline]
fn timed<P: Probe, T>(probe: &mut P, phase: CodecPhase, f: impl FnOnce() -> T) -> T {
    if !P::ENABLED {
        return f();
    }
    let t = Instant::now();
    let out = f();
    probe.codec_phase(phase, t.elapsed().as_nanos() as u64);
    out
}

/// The strict whole-stream walk behind [`decode_chunked`], into a
/// caller-owned log and reporting to a [`Probe`] (`&mut ()` for none):
///
/// * **Reuse** — `log` is reset first (core re-stamped, entries truncated
///   but capacity kept), so decoding many streams, or one stream
///   repeatedly, does not re-fault a multi-GB output allocation each time.
/// * **Recovery** — on error `log` keeps every entry up to the last intact
///   chunk boundary, plus the intact prefix of a chunk holding a malformed
///   entry. Header failures leave an empty log for core 0.
/// * **Instrumentation** — CRC verification, batched varint entry decode
///   and output-buffer reservation are each timed into
///   [`Probe::codec_phase`], and every decoded chunk is announced through
///   [`Probe::chunk_decoded`]. `rr-bench` passes a
///   [`CodecPhases`](crate::prof::CodecPhases) to decompose the
///   large-stream decode cliff; the log and error are exactly those of the
///   unprobed walk.
///
/// # Errors
///
/// Exactly the conditions of [`decode_chunked`]. The probe holds whatever
/// work happened before the error.
pub fn decode_chunked_into<P: Probe>(
    bytes: &[u8],
    log: &mut IntervalLog,
    probe: &mut P,
) -> Result<(), WireError> {
    log.entries.clear();
    log.core = CoreId::new(0);
    let (core, _) = parse_header(bytes)?;
    log.core = core;
    // Seed capacity for the first chunk only (~3 payload bytes per
    // entry); reserve_for_remainder grows it as density is observed.
    let seed = bytes.len().min(DEFAULT_CHUNK_BYTES + 16) / 3;
    timed(probe, CodecPhase::Reserve, || {
        if log.entries.capacity() < seed {
            log.entries.reserve(seed);
        }
    });
    let mut pos = 7usize;
    let mut index = 0usize;
    let mut payload_seen = 0usize;
    while let Some(raw) = next_raw_chunk(bytes, &mut pos, index) {
        let raw = raw?;
        decode_raw_chunk(&raw, index, &mut log.entries, probe)?;
        payload_seen += raw.payload.len();
        if index.is_multiple_of(RESERVE_CHECK_CHUNKS) {
            timed(probe, CodecPhase::Reserve, || {
                reserve_for_remainder(&mut log.entries, payload_seen, bytes.len() - pos);
            });
        }
        index += 1;
    }
    Ok(())
}

/// One chunk of a strict decode: CRC check, then batched entry decode
/// onto `out`. On a malformed entry the chunk's decoded prefix stays in
/// `out`.
#[inline]
fn decode_raw_chunk<P: Probe>(
    raw: &RawChunk<'_>,
    index: usize,
    out: &mut Vec<LogEntry>,
    probe: &mut P,
) -> Result<(), WireError> {
    let computed = timed(probe, CodecPhase::Crc, || crc32(raw.payload));
    if raw.stored_crc != computed {
        return Err(WireError::CrcMismatch {
            chunk: index,
            stored: raw.stored_crc,
            computed,
        });
    }
    timed(probe, CodecPhase::Entries, || {
        decode_chunk_entries(raw.payload, index, out)
    })?;
    probe.chunk_decoded(raw.payload.len());
    Ok(())
}

/// Result of a lenient [`decode_chunked_skip`] walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Salvage {
    /// Every entry from every chunk that passed its CRC.
    pub log: IntervalLog,
    /// Every framed chunk's position and health, in stream order; the
    /// entry counts sum to `log.entries.len()`.
    pub chunks: Vec<ChunkInfo>,
    /// The first error encountered (`None` for a clean stream).
    pub err: Option<WireError>,
}

/// One chunk's position and health inside an `.rrlog` stream, as reported
/// by [`decode_chunked_skip`]: the basis of `rr-inspect stat`'s chunk
/// table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Chunk index (0-based), matching the indices in [`WireError`]s.
    pub index: usize,
    /// Byte offset of the chunk's 4-byte length prefix within the stream.
    pub offset: usize,
    /// Payload bytes (excluding the length prefix and trailing CRC).
    pub payload_bytes: usize,
    /// Entries decoded from the payload (0 if the CRC failed — a corrupt
    /// payload is never entry-decoded).
    pub entries: usize,
    /// Whether the stored CRC32 matched the payload as read.
    pub crc_ok: bool,
    /// Absolute timestamp of the first `IntervalFrame` decoded from this
    /// chunk (`None` if the chunk holds no frame or was not decoded).
    pub first_timestamp: Option<u64>,
}

/// Lenient decode: every entry from every chunk that passes its CRC, with
/// damaged chunks *skipped* rather than ending the walk. A CRC mismatch
/// or malformed entry is noted and the walk moves on to the next
/// length-prefixed boundary, so one flipped byte does not hide the chunks
/// after it; only truncation ends it. Every framed chunk gets a
/// [`ChunkInfo`] row.
///
/// Used by diagnostics (`rr-inspect stat`) that want a chunk table and
/// density statistics over everything salvageable. The salvaged entries
/// are *exact* — chunks are self-contained, so damage cannot leak into
/// later timestamps — but replay must **not** consume a log with holes;
/// the strict paths stop at the first error instead.
///
/// Header failures return an empty log for core 0 and no chunks, as
/// [`decode_chunked_into`] leaves it.
#[must_use]
pub fn decode_chunked_skip(bytes: &[u8]) -> Salvage {
    let core = match parse_header(bytes) {
        Ok((core, _)) => core,
        Err(e) => {
            return Salvage {
                log: IntervalLog::new(CoreId::new(0)),
                chunks: Vec::new(),
                err: Some(e),
            }
        }
    };
    let mut log = IntervalLog::new(core);
    let mut chunks = Vec::new();
    let mut first_err = None;
    let out = &mut log.entries;
    let mut pos = 7usize;
    let mut index = 0usize;
    loop {
        let offset = pos;
        let raw = match next_raw_chunk(bytes, &mut pos, index) {
            None => break,
            Some(Ok(raw)) => raw,
            Some(Err(e)) => {
                first_err.get_or_insert(e);
                break;
            }
        };
        let computed = crc32(raw.payload);
        let crc_ok = raw.stored_crc == computed;
        let start = out.len();
        if crc_ok {
            // A malformed entry keeps the chunk's decoded prefix (its
            // timestamps are sound).
            if let Err(e) = decode_chunk_entries(raw.payload, index, out) {
                first_err.get_or_insert(e);
            }
        } else {
            first_err.get_or_insert(WireError::CrcMismatch {
                chunk: index,
                stored: raw.stored_crc,
                computed,
            });
        }
        let first_timestamp = out[start..].iter().find_map(|e| match e {
            LogEntry::IntervalFrame { timestamp, .. } => Some(*timestamp),
            _ => None,
        });
        chunks.push(ChunkInfo {
            index,
            offset,
            payload_bytes: raw.payload.len(),
            entries: out.len() - start,
            crc_ok,
            first_timestamp,
        });
        index += 1;
    }
    Salvage {
        log,
        chunks,
        err: first_err,
    }
}

/// One chunk's frame position inside an `.rrlog` stream, from the cheap
/// [`chunk_spans`] walk — offsets only, no CRC or payload work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Byte offset of the chunk's 4-byte length prefix within the stream.
    pub offset: usize,
    /// Payload bytes (excluding the length prefix and trailing CRC).
    pub payload_bytes: usize,
}

/// Walks only the chunk *framing* of an `.rrlog` stream — hopping
/// length prefixes without touching payloads or CRCs — and returns the
/// recorded core, the wire version, every complete chunk's span, and
/// whether the stream ended mid-frame (`Some(Truncated)`). The spans are
/// exactly the [`ChunkInfo`] offsets and sizes of [`decode_chunked_skip`]
/// over the same bytes: both walk the one frame parser.
///
/// # Errors
///
/// Returns a [`WireError`] only if the 7-byte header itself is missing,
/// foreign, or version-skewed.
#[allow(clippy::type_complexity)]
pub fn chunk_spans(
    bytes: &[u8],
) -> Result<(CoreId, u16, Vec<ChunkSpan>, Option<WireError>), WireError> {
    let (core, version) = parse_header(bytes)?;
    let mut spans = Vec::new();
    let mut pos = 7usize;
    loop {
        let offset = pos;
        match next_raw_chunk(bytes, &mut pos, spans.len()) {
            None => return Ok((core, version, spans, None)),
            Some(Ok(raw)) => spans.push(ChunkSpan {
                offset,
                payload_bytes: raw.payload.len(),
            }),
            Some(Err(e)) => return Ok((core, version, spans, Some(e))),
        }
    }
}

/// Reads an `.rrlog` file ([`encode_chunked`] or any [`ChunkedWriter`]
/// output).
///
/// # Errors
///
/// Returns a [`WireError`] on I/O failure, truncation, or corruption.
pub fn read_rrlog(path: &Path) -> Result<IntervalLog, WireError> {
    decode_chunked(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<LogEntry> {
        vec![
            LogEntry::InorderBlock { instrs: 2 },
            LogEntry::ReorderedLoad { value: 0xdead_beef },
            LogEntry::InorderBlock { instrs: 4096 },
            LogEntry::ReorderedStore {
                addr: 0x1_0000,
                value: 7,
                offset: 5,
            },
            LogEntry::ReorderedRmw {
                loaded: 1,
                addr: 0x200,
                stored: Some(u64::MAX),
                offset: 2,
            },
            LogEntry::ReorderedRmw {
                loaded: 9,
                addr: 0x208,
                stored: None,
                offset: 1,
            },
            LogEntry::IntervalFrame {
                cisn: 15,
                timestamp: 123_456,
            },
            LogEntry::InorderBlock { instrs: 1 },
            LogEntry::IntervalFrame {
                cisn: 16,
                timestamp: 123_490,
            },
        ]
    }

    fn sample_log() -> IntervalLog {
        IntervalLog {
            core: CoreId::new(3),
            entries: sample_entries(),
        }
    }

    /// The strict walk's recovered prefix and error, as one value.
    fn recover(bytes: &[u8]) -> (IntervalLog, Option<WireError>) {
        let mut log = IntervalLog::new(CoreId::new(0));
        let err = decode_chunked_into(bytes, &mut log, &mut ()).err();
        (log, err)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes cannot fit in a u64.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn round_trip_is_lossless_and_byte_identical() {
        let log = sample_log();
        let bytes = encode_chunked(&log);
        let decoded = decode_chunked(&bytes).expect("decodes");
        assert_eq!(decoded, log);
        assert_eq!(encode_chunked(&decoded), bytes, "re-encode is identical");
    }

    #[test]
    fn empty_log_round_trips() {
        let log = IntervalLog::new(CoreId::new(7));
        let bytes = encode_chunked(&log);
        assert_eq!(bytes.len(), 7, "header only, no chunks");
        let decoded = decode_chunked(&bytes).expect("decodes");
        assert_eq!(decoded, log);
    }

    #[test]
    fn multi_chunk_streams_round_trip() {
        // Tiny chunks force many chunk boundaries.
        let log = sample_log();
        for chunk_bytes in [1, 2, 3, 8, 64] {
            let bytes = encode_chunked_with(&log, chunk_bytes);
            let decoded = decode_chunked(&bytes).expect("decodes");
            assert_eq!(decoded, log, "chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_chunked(&sample_log());
        bytes[0] = b'X';
        assert_eq!(decode_chunked(&bytes), Err(WireError::BadMagic));

        // A valid v3 body under any other header version is refused by
        // every reader, never decoded with the wrong delta rule.
        let dir = std::env::temp_dir().join("rr_wire_test_versions");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for version in [0u16, 1, 2, 4, 0xFFFF] {
            let mut bytes = encode_chunked_with(&sample_log(), 4);
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let want = WireError::UnsupportedVersion { version };
            assert_eq!(decode_chunked(&bytes), Err(want.clone()));
            let mut log = sample_log();
            let into = decode_chunked_into(&bytes, &mut log, &mut ());
            assert_eq!((into, log.entries.len()), (Err(want.clone()), 0));
            let salvage = decode_chunked_skip(&bytes);
            assert_eq!(
                (salvage.err, salvage.log.entries.len()),
                (Some(want.clone()), 0)
            );
            assert!(salvage.chunks.is_empty());
            assert_eq!(chunk_spans(&bytes), Err(want.clone()));

            let path = dir.join(format!("v{version}.rrlog"));
            std::fs::write(&path, &bytes).expect("writes");
            assert_eq!(read_rrlog(&path), Err(want));
        }
    }

    /// Byte offsets at which a cut leaves a *complete* stream: the end of
    /// the header and the end of each chunk's trailing CRC.
    fn chunk_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut boundaries = vec![7];
        let mut pos = 7usize;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 4 + len + 4;
            boundaries.push(pos);
        }
        boundaries
    }

    #[test]
    fn truncation_recovers_prior_chunks() {
        let log = sample_log();
        let bytes = encode_chunked_with(&log, 4); // several small chunks
        let boundaries = chunk_boundaries(&bytes);
        assert!(boundaries.len() > 3, "want several chunks");
        for cut in 0..bytes.len() {
            let (recovered, err) = recover(&bytes[..cut]);
            if boundaries.contains(&cut) {
                assert!(err.is_none(), "cut at chunk boundary {cut}: {err:?}");
            } else {
                assert!(
                    matches!(err, Some(WireError::Truncated { .. })),
                    "cut mid-chunk at {cut} must yield Truncated, got {err:?}"
                );
            }
            assert_eq!(
                recovered.entries[..],
                log.entries[..recovered.entries.len()],
                "cut at {cut}: recovered entries must be an intact prefix"
            );
        }
        // Cutting the very last CRC byte still recovers all earlier chunks.
        let (recovered, err) = recover(&bytes[..bytes.len() - 1]);
        assert!(matches!(err, Some(WireError::Truncated { .. })));
        assert!(!recovered.entries.is_empty());
    }

    #[test]
    fn every_payload_byte_flip_is_caught() {
        let log = sample_log();
        let bytes = encode_chunked(&log); // one chunk
                                          // Header is 7 bytes, then 4 length bytes; payload follows.
        let payload_start = 7 + 4;
        let payload_end = bytes.len() - 4; // CRC trails
        for i in payload_start..payload_end {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            match decode_chunked(&corrupted) {
                Err(WireError::CrcMismatch { chunk: 0, .. }) => {}
                other => panic!("flip at {i}: expected CrcMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_flip_itself_is_caught() {
        let log = sample_log();
        let mut bytes = encode_chunked(&log);
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert!(matches!(
            decode_chunked(&bytes),
            Err(WireError::CrcMismatch { chunk: 0, .. })
        ));
    }

    #[test]
    fn sink_and_source_agree_with_vec_sink() {
        let log = sample_log();
        let mut sink = VecSink::default();
        for e in &log.entries {
            sink.emit(e).expect("vec sink");
        }
        sink.close().expect("vec sink");
        assert!(sink.closed);
        assert_eq!(sink.entries, log.entries);

        // A ChunkedWriter fed the same entries decodes back to them.
        let mut bytes = Vec::new();
        let mut w = ChunkedWriter::new(&mut bytes, log.core).expect("header");
        for e in &sink.entries {
            w.emit(e).expect("Vec<u8> writes cannot fail");
        }
        w.close().expect("Vec<u8> writes cannot fail");
        assert_eq!(decode_chunked(&bytes), Ok(log));
    }

    #[test]
    fn salvage_reports_every_chunk_of_a_clean_stream() {
        let log = sample_log();
        let bytes = encode_chunked_with(&log, 4);
        let Salvage {
            log: salvaged,
            chunks: map,
            err,
        } = decode_chunked_skip(&bytes);
        assert_eq!(salvaged.core, log.core);
        assert!(err.is_none());
        assert!(map.len() > 3, "want several chunks");
        assert_eq!(
            map.iter().map(|c| c.entries).sum::<usize>(),
            log.entries.len()
        );
        assert!(map.iter().all(|c| c.crc_ok));
        // Offsets tile the stream exactly: header, then framed chunks.
        let mut pos = 7;
        for c in &map {
            assert_eq!(c.offset, pos);
            pos += 4 + c.payload_bytes + 4;
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn salvage_survives_a_corrupt_middle_chunk() {
        let log = sample_log();
        let bytes = encode_chunked_with(&log, 4);
        let clean = decode_chunked_skip(&bytes).chunks;
        assert!(clean.len() >= 3);
        // Flip a payload byte of the second chunk.
        let mut corrupted = bytes.clone();
        corrupted[clean[1].offset + 4] ^= 0x40;
        let Salvage {
            chunks: map, err, ..
        } = decode_chunked_skip(&corrupted);
        assert_eq!(map.len(), clean.len(), "later chunks still mapped");
        assert!(map[0].crc_ok && !map[1].crc_ok && map[2].crc_ok);
        assert_eq!(map[1].entries, 0, "corrupt payloads are not decoded");
        assert!(matches!(err, Some(WireError::CrcMismatch { chunk: 1, .. })));
    }

    #[test]
    fn salvage_flags_truncation_and_foreign_streams() {
        let log = sample_log();
        let bytes = encode_chunked(&log);
        let cut = decode_chunked_skip(&bytes[..bytes.len() - 2]);
        assert!(cut.chunks.is_empty(), "the only chunk is cut short");
        assert!(matches!(cut.err, Some(WireError::Truncated { chunk: 0 })));

        for (bad, err) in [
            (&b"RRL"[..], WireError::Truncated { chunk: 0 }),
            (b"NOPEnope", WireError::BadMagic),
        ] {
            let s = decode_chunked_skip(bad);
            assert_eq!((s.log.entries.len(), s.chunks.len()), (0, 0));
            assert_eq!(s.err, Some(err));
        }
    }

    #[test]
    fn file_round_trip() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("rr_wire_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("core3.rrlog");
        std::fs::write(&path, encode_chunked(&log)).expect("writes");
        let read = read_rrlog(&path).expect("reads");
        assert_eq!(read, log);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir()
            .join("rr_wire_test")
            .join("does-not-exist.rrlog");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(read_rrlog(&path), Err(WireError::Io(_))));
    }

    #[test]
    fn empty_file_is_a_typed_header_error() {
        let dir = std::env::temp_dir().join("rr_wire_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("empty.rrlog");
        std::fs::write(&path, b"").expect("writes");
        assert_eq!(read_rrlog(&path), Err(WireError::Truncated { chunk: 0 }));
    }

    #[test]
    fn damaged_file_fails_like_the_memory_decoder() {
        let mut bytes = encode_chunked_with(&sample_log(), 8);
        // Flip a payload byte in a middle chunk.
        let map = decode_chunked_skip(&bytes).chunks;
        assert!(map.len() >= 3);
        bytes[map[1].offset + 4] ^= 0x20;
        let dir = std::env::temp_dir().join("rr_wire_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("corrupt.rrlog");
        std::fs::write(&path, &bytes).expect("writes");

        let want = decode_chunked(&bytes);
        assert!(matches!(want, Err(WireError::CrcMismatch { chunk: 1, .. })));
        assert_eq!(read_rrlog(&path), want);
    }

    #[test]
    fn chunked_is_smaller_than_flat() {
        // A realistic mix: mostly InorderBlocks with small counts and
        // frames with small timestamp deltas.
        let mut log = IntervalLog::new(CoreId::new(0));
        for i in 0..1000u64 {
            log.entries.push(LogEntry::InorderBlock {
                instrs: 50 + (i % 100) as u32,
            });
            if i % 7 == 0 {
                log.entries.push(LogEntry::ReorderedLoad { value: i * 3 });
            }
            log.entries.push(LogEntry::IntervalFrame {
                cisn: (i % 65_536) as u16,
                timestamp: i * 900,
            });
        }
        let flat = log.encode_flat().len();
        let chunked = encode_chunked(&log).len();
        assert!(
            chunked * 2 < flat,
            "chunked ({chunked} B) should be well under half of flat ({flat} B)"
        );
    }

    #[test]
    fn profiled_decoder_matches_plain_and_attributes_phases() {
        let probed = |bytes: &[u8], phases: &mut crate::prof::CodecPhases| {
            let mut log = IntervalLog::new(CoreId::new(0));
            decode_chunked_into(bytes, &mut log, phases).map(|()| log)
        };
        let log = sample_log();
        for chunk_bytes in [1, 8, 64, DEFAULT_CHUNK_BYTES] {
            let bytes = encode_chunked_with(&log, chunk_bytes);
            let mut phases = crate::prof::CodecPhases::default();
            assert_eq!(
                probed(&bytes, &mut phases),
                decode_chunked(&bytes),
                "chunk_bytes={chunk_bytes}"
            );
            assert!(phases.chunks > 0, "chunk_bytes={chunk_bytes}");
            assert_eq!(
                phases.payload_bytes,
                (bytes.len() - 7 - 8 * phases.chunks as usize) as u64,
                "payload accounting, chunk_bytes={chunk_bytes}"
            );
        }
        // Error parity on corruption and truncation.
        let bytes = encode_chunked_with(&log, 4);
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            let mut phases = crate::prof::CodecPhases::default();
            assert_eq!(
                probed(&corrupted, &mut phases),
                decode_chunked(&corrupted),
                "flip at {i}"
            );
        }
        for cut in 0..bytes.len() {
            let mut phases = crate::prof::CodecPhases::default();
            assert_eq!(
                probed(&bytes[..cut], &mut phases),
                decode_chunked(&bytes[..cut]),
                "cut at {cut}"
            );
        }
    }

    /// Builds a stream whose second chunk ends in an unknown entry tag but
    /// still carries a valid CRC (version-skew corruption, not bit rot).
    fn stream_with_corrupt_entry() -> (Vec<u8>, usize) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(3);
        let chunk = |payload: &[u8], bytes: &mut Vec<u8>| {
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        };
        let mut p0 = Vec::new();
        encode_entry(&mut p0, &LogEntry::InorderBlock { instrs: 2 }, &mut 0);
        chunk(&p0, &mut bytes);
        let mut p1 = Vec::new();
        encode_entry(&mut p1, &LogEntry::ReorderedLoad { value: 9 }, &mut 0);
        let good_in_p1 = 1;
        p1.push(0xEE); // unknown tag
        chunk(&p1, &mut bytes);
        (bytes, 1 + good_in_p1)
    }

    #[test]
    fn corrupt_entry_surfaces_after_the_decoded_prefix() {
        let (bytes, good) = stream_with_corrupt_entry();
        let (log, err) = recover(&bytes);
        assert_eq!(log.entries.len(), good);
        assert!(
            matches!(err, Some(WireError::Corrupt { chunk: 1, .. })),
            "got {err:?}"
        );
        // The lenient walk keeps the same prefix and reports the same error.
        let salvage = decode_chunked_skip(&bytes);
        assert_eq!(salvage.log, log);
        assert_eq!(salvage.err, err);
        assert_eq!(salvage.chunks[1].entries, good - 1);
    }

    #[test]
    fn skip_decoder_agrees_with_its_chunk_table_on_a_corrupt_middle_chunk() {
        let log = sample_log();
        let bytes = encode_chunked_with(&log, 4);
        let clean = decode_chunked_skip(&bytes).chunks;
        assert!(clean.len() >= 3);
        let mut corrupted = bytes.clone();
        corrupted[clean[1].offset + 4] ^= 0x40;

        let salvage = decode_chunked_skip(&corrupted);
        assert_eq!(
            salvage.log.entries.len(),
            salvage.chunks.iter().map(|c| c.entries).sum::<usize>(),
            "the entries and the chunk table must count the same entries"
        );
        assert!(
            salvage.log.entries.len() > clean[0].entries,
            "chunks after the corrupt one decode"
        );
        assert!(matches!(
            salvage.err,
            Some(WireError::CrcMismatch { chunk: 1, .. })
        ));
        // The strict walk, by contrast, stops at the damage.
        let (prefix, _) = recover(&corrupted);
        assert_eq!(prefix.entries[..], log.entries[..prefix.entries.len()]);
        assert!(prefix.entries.len() < salvage.log.entries.len());
    }

    #[test]
    fn skip_decoder_matches_strict_decode_on_clean_streams() {
        let log = sample_log();
        for chunk_bytes in [1, 4, 64] {
            let bytes = encode_chunked_with(&log, chunk_bytes);
            let salvage = decode_chunked_skip(&bytes);
            assert!(salvage.err.is_none());
            assert_eq!(salvage.log, log);
        }
    }

    /// A corrupt middle chunk salvages the suffix with *exact* timestamps:
    /// every chunk re-anchors on an absolute first-frame timestamp.
    #[test]
    fn salvage_after_corrupt_chunk_is_exact() {
        // Frames with large distinct timestamps, so any stale delta
        // context would produce visibly wrong values.
        let mut log = IntervalLog::new(CoreId::new(1));
        for i in 0..40u64 {
            log.entries.push(LogEntry::InorderBlock { instrs: 3 });
            log.entries.push(LogEntry::IntervalFrame {
                cisn: i as u16,
                timestamp: 1_000_000 + i * 10_007,
            });
        }
        let bytes = encode_chunked_with(&log, 32);
        let clean = decode_chunked_skip(&bytes).chunks;
        assert!(clean.len() >= 4, "want several chunks");
        let mut corrupted = bytes.clone();
        corrupted[clean[1].offset + 4] ^= 0x40;

        let salvage = decode_chunked_skip(&corrupted);
        assert!(matches!(
            salvage.err,
            Some(WireError::CrcMismatch { chunk: 1, .. })
        ));
        // The salvaged log is the original minus exactly chunk 1's
        // entries: prefix from chunk 0, suffix from chunks 2.. .
        let (prefix, lost) = (clean[0].entries, clean[1].entries);
        assert_eq!(salvage.log.entries.len(), log.entries.len() - lost);
        assert_eq!(salvage.log.entries[..prefix], log.entries[..prefix]);
        assert_eq!(
            salvage.log.entries[prefix..],
            log.entries[prefix + lost..],
            "salvaged suffix timestamps must be exact"
        );
    }

    /// Satellite regression (reservation clamp): a stream whose first
    /// chunks are maximally dense (2-byte entries) and whose bulk is
    /// sparse (many-byte entries) must not reserve output capacity by
    /// extrapolating the dense prefix across the whole stream. The policy
    /// bounds capacity by 4× the decoded entry count.
    #[test]
    fn dense_then_sparse_stream_reserves_bounded_capacity() {
        let mut log = IntervalLog::new(CoreId::new(0));
        // ~4KB of 2-byte entries (one full default chunk), then ~1MB of
        // ~28-byte entries.
        for _ in 0..2048 {
            log.entries.push(LogEntry::InorderBlock { instrs: 1 });
        }
        for i in 0..40_000u64 {
            log.entries.push(LogEntry::ReorderedRmw {
                loaded: u64::MAX - i,
                addr: u64::MAX - 1,
                stored: Some(u64::MAX - 2),
                offset: u32::MAX,
            });
        }
        let bytes = encode_chunked(&log);
        let (decoded, err) = recover(&bytes);
        assert!(err.is_none());
        assert_eq!(decoded, log);
        assert!(
            decoded.entries.capacity() <= 4 * decoded.entries.len(),
            "capacity {} must stay within 4x of {} entries",
            decoded.entries.capacity(),
            decoded.entries.len()
        );
    }

    #[test]
    fn decode_into_reuses_capacity_and_matches_fresh_decode() {
        let a = sample_log();
        let mut b = IntervalLog::new(CoreId::new(1));
        b.entries.push(LogEntry::InorderBlock { instrs: 7 });
        let bytes_a = encode_chunked_with(&a, 4);
        let bytes_b = encode_chunked(&b);

        let mut out = IntervalLog::new(CoreId::new(9));
        decode_chunked_into(&bytes_a, &mut out, &mut ()).expect("decodes");
        assert_eq!(out, a);
        let cap = out.entries.capacity();
        decode_chunked_into(&bytes_b, &mut out, &mut ()).expect("decodes");
        assert_eq!(out, b);
        assert!(out.entries.capacity() >= cap, "capacity is retained");
        // Error parity with the fresh-log path, including recovered prefix.
        let cut = &bytes_a[..bytes_a.len() - 1];
        let (fresh, fresh_err) = recover(cut);
        let reused_err = decode_chunked_into(cut, &mut out, &mut ()).unwrap_err();
        assert_eq!(Some(reused_err), fresh_err);
        assert_eq!(out, fresh);
    }

    #[test]
    fn swar_varint_matches_reference_on_exhaustive_vectors() {
        // Every encoded length 1..=10, boundary values, and non-canonical
        // (overlong) encodings — the SWAR path and the byte loop must
        // agree on value, final position, and rejection.
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for v in [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            0x001F_FFFF,
            0x0020_0000,
            0x0FFF_FFFF,
            0x1000_0000,
            u32::MAX as u64,
            (1u64 << 35) - 1,
            1u64 << 35,
            (1u64 << 42) - 1,
            (1u64 << 49) - 1,
            (1u64 << 56) - 1, // longest 8-byte varint: SWAR's edge
            1u64 << 56,       // 9 bytes: falls back
            u64::MAX,         // 10 bytes
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            cases.push(buf);
        }
        // Non-canonical: trailing zero-payload continuation bytes.
        cases.push(vec![0x80, 0x00]);
        cases.push(vec![0xFF, 0x80, 0x80, 0x00]);
        // Overlong / overflowing.
        cases.push(vec![0xFF; 11]);
        cases.push(vec![
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,
        ]);
        for case in &cases {
            // With slack after (word loads see trailing bytes) and exactly
            // at the end of the buffer (bounds fallback).
            for pad in [0usize, 1, 7, 8] {
                let mut buf = case.clone();
                buf.extend(std::iter::repeat_n(0xA5, pad));
                let mut p_ref = 0usize;
                let mut p_swar = 0usize;
                let r = read_varint(&buf, &mut p_ref);
                let s = read_varint_swar(&buf, &mut p_swar);
                assert_eq!(r, s, "case {case:?} pad {pad}");
                if r.is_some() {
                    assert_eq!(p_ref, p_swar, "case {case:?} pad {pad}");
                }
            }
            // Every truncation of the encoding.
            for cut in 0..case.len() {
                let buf = &case[..cut];
                let mut p_ref = 0usize;
                let mut p_swar = 0usize;
                assert_eq!(
                    read_varint(buf, &mut p_ref),
                    read_varint_swar(buf, &mut p_swar),
                    "case {case:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn compact7_places_every_payload_group() {
        // One bit set per 7-bit group, in each byte position.
        for i in 0..8u32 {
            let word = 1u64 << (8 * i);
            assert_eq!(compact7(word), 1u64 << (7 * i), "byte {i}");
        }
        assert_eq!(compact7(0x7F7F_7F7F_7F7F_7F7F), (1u64 << 56) - 1);
    }

    #[test]
    fn chunk_spans_tile_the_stream_and_flag_truncation() {
        let log = sample_log();
        let bytes = encode_chunked_with(&log, 4);
        let (core, version, spans, trunc) = chunk_spans(&bytes).expect("header");
        assert_eq!(core, log.core);
        assert_eq!(version, VERSION);
        assert!(trunc.is_none());
        let map = decode_chunked_skip(&bytes).chunks;
        assert_eq!(spans.len(), map.len());
        for (s, c) in spans.iter().zip(&map) {
            assert_eq!((s.offset, s.payload_bytes), (c.offset, c.payload_bytes));
        }
        // Truncation mid-final-chunk: prior spans intact, truncation noted.
        let (_, _, cut_spans, cut_trunc) = chunk_spans(&bytes[..bytes.len() - 1]).expect("header");
        assert_eq!(cut_spans.len(), spans.len() - 1);
        assert!(matches!(cut_trunc, Some(WireError::Truncated { .. })));
    }
}
