//! The `.rridx` skip-index sidecar: a per-file chunk table (offset →
//! entry count / first timestamp / CRC health) built on the first full
//! walk of an `.rrlog` and persisted next to it, so later `rr-inspect
//! stat` / `chunk_map` consumers answer structural queries without
//! re-decoding entry payloads.
//!
//! The index is a pure cache and is **never trusted**: [`SkipIndex::load`]
//! verifies the sidecar's own magic, version, and trailing CRC32, and
//! [`SkipIndex::load_or_build`] additionally fingerprints the source
//! stream (length plus head/tail CRCs) against the values recorded when
//! the index was built. Any mismatch — corrupt sidecar, rewritten log,
//! version skew — silently rebuilds from the `.rrlog` itself and rewrites
//! the sidecar. Agreement with a fresh [`chunk_map`]
//! walk is a tested invariant, on clean and corrupt files alike.
//!
//! ## Sidecar format (`RRIX` version 1)
//!
//! ```text
//! "RRIX" | index version u16 LE | wire version u16 LE | core u8 | flags u8
//! source_len u64 LE | source head CRC32 u32 LE | source tail CRC32 u32 LE
//! chunk count (varint)
//! per chunk: payload_bytes varint | entries varint | flags u8
//!            | first_timestamp varint (iff flags bit 1)
//! CRC32 over all preceding bytes, u32 LE
//! ```
//!
//! Chunk offsets are not stored: chunk 0 starts at byte 7 and each chunk
//! occupies `payload_bytes + 8` framing bytes, so the table re-derives
//! them exactly. Head/tail CRCs cover the first and last
//! [`FINGERPRINT_BYTES`] of the source — enough to catch truncation,
//! appends, and header rewrites without re-reading a multi-GB file.

use std::path::{Path, PathBuf};

use rr_mem::CoreId;

use crate::wire::{self, chunk_map, crc32, read_varint, write_varint, ChunkInfo, WireError};

/// Sidecar magic, first four bytes of every `.rridx`.
pub const INDEX_MAGIC: [u8; 4] = *b"RRIX";

/// Current `.rridx` format version.
pub const INDEX_VERSION: u16 = 1;

/// Bytes of the source stream fingerprinted at each end.
pub const FINGERPRINT_BYTES: usize = 64;

/// The extension used for sidecars (`foo.rrlog` → `foo.rridx`).
pub const INDEX_EXTENSION: &str = "rridx";

const FLAG_CLEAN: u8 = 1;
const CHUNK_FLAG_CRC_OK: u8 = 1;
const CHUNK_FLAG_HAS_TS: u8 = 2;

/// One chunk's cached structural facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexChunk {
    /// Byte offset of the chunk's 4-byte length prefix in the source.
    pub offset: usize,
    /// Payload bytes (excluding length prefix and trailing CRC).
    pub payload_bytes: usize,
    /// Entries decoded from the payload (0 if the CRC failed).
    pub entries: usize,
    /// Absolute timestamp of the chunk's first `IntervalFrame`, if any.
    pub first_timestamp: Option<u64>,
    /// Whether the stored CRC32 matched when the index was built.
    pub crc_ok: bool,
}

/// How [`SkipIndex::load_or_build`] obtained its answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexProvenance {
    /// A valid, fingerprint-matching sidecar was loaded.
    Loaded,
    /// No sidecar existed; the index was built and persisted.
    RebuiltMissing,
    /// A sidecar existed but failed its own integrity checks (magic,
    /// version, or CRC); it was rebuilt from the source.
    RebuiltCorrupt,
    /// A structurally valid sidecar described a different source stream
    /// (length or head/tail fingerprint mismatch); rebuilt.
    RebuiltStale,
}

impl IndexProvenance {
    /// Whether the index came from a fresh walk rather than the sidecar.
    #[must_use]
    pub fn rebuilt(&self) -> bool {
        !matches!(self, IndexProvenance::Loaded)
    }
}

/// A chunk table for one `.rrlog` stream plus the source fingerprint it
/// was built against. See the module docs for trust rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkipIndex {
    /// The recorded core from the source header.
    pub core: CoreId,
    /// The source's wire-format version.
    pub wire_version: u16,
    /// Source stream length in bytes when the index was built.
    pub source_len: u64,
    /// CRC32 of the source's first [`FINGERPRINT_BYTES`] bytes.
    pub head_crc: u32,
    /// CRC32 of the source's last [`FINGERPRINT_BYTES`] bytes.
    pub tail_crc: u32,
    /// Whether the walk saw no error (CRC failures, malformed entries,
    /// or a truncated tail all clear this).
    pub clean: bool,
    /// Per-chunk table, in stream order.
    pub chunks: Vec<IndexChunk>,
}

fn fingerprint(bytes: &[u8]) -> (u32, u32) {
    let head = &bytes[..bytes.len().min(FINGERPRINT_BYTES)];
    let tail = &bytes[bytes.len().saturating_sub(FINGERPRINT_BYTES)..];
    (crc32(head), crc32(tail))
}

impl SkipIndex {
    /// Builds the index from a full walk of `bytes` (the decoding walk of
    /// [`chunk_map`], so entry counts agree with it by
    /// construction).
    ///
    /// # Errors
    ///
    /// A [`WireError`] only if the 7-byte source header is missing,
    /// foreign, or version-skewed — damaged chunks are indexed, not
    /// errors.
    pub fn build(bytes: &[u8]) -> Result<Self, WireError> {
        let (core, map, first_err) = chunk_map(bytes)?;
        let (_, wire_version) = wire::parse_header(bytes)?;
        let (head_crc, tail_crc) = fingerprint(bytes);
        // A trailing partial chunk is not in the map; detect it by tiling.
        let mapped_end = map.last().map_or(7, |c| c.offset + c.payload_bytes + 8);
        let chunks = map
            .iter()
            .map(|c| IndexChunk {
                offset: c.offset,
                payload_bytes: c.payload_bytes,
                entries: c.entries,
                first_timestamp: c.first_timestamp,
                crc_ok: c.crc_ok,
            })
            .collect();
        Ok(SkipIndex {
            core,
            wire_version,
            source_len: bytes.len() as u64,
            head_crc,
            tail_crc,
            clean: first_err.is_none() && mapped_end == bytes.len(),
            chunks,
        })
    }

    /// Whether this index describes `bytes` as they are *now*: same
    /// length, same head/tail fingerprint, same core and wire version.
    #[must_use]
    pub fn matches_source(&self, bytes: &[u8]) -> bool {
        if self.source_len != bytes.len() as u64 {
            return false;
        }
        let Ok((core, version)) = wire::parse_header(bytes) else {
            return false;
        };
        if core != self.core || version != self.wire_version {
            return false;
        }
        let (head, tail) = fingerprint(bytes);
        head == self.head_crc && tail == self.tail_crc
    }

    /// The chunk table as [`ChunkInfo`] rows — interchangeable with a
    /// fresh [`chunk_map`] walk of the matching source.
    #[must_use]
    pub fn chunk_infos(&self) -> Vec<ChunkInfo> {
        self.chunks
            .iter()
            .enumerate()
            .map(|(index, c)| ChunkInfo {
                index,
                offset: c.offset,
                payload_bytes: c.payload_bytes,
                entries: c.entries,
                crc_ok: c.crc_ok,
                first_timestamp: c.first_timestamp,
            })
            .collect()
    }

    /// Total entries across all intact chunks.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.chunks.iter().map(|c| c.entries).sum()
    }

    /// Serializes the sidecar (format in the module docs).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.chunks.len() * 8);
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        out.extend_from_slice(&self.wire_version.to_le_bytes());
        out.push(self.core.index() as u8);
        out.push(if self.clean { FLAG_CLEAN } else { 0 });
        out.extend_from_slice(&self.source_len.to_le_bytes());
        out.extend_from_slice(&self.head_crc.to_le_bytes());
        out.extend_from_slice(&self.tail_crc.to_le_bytes());
        write_varint(&mut out, self.chunks.len() as u64);
        for c in &self.chunks {
            write_varint(&mut out, c.payload_bytes as u64);
            write_varint(&mut out, c.entries as u64);
            let mut flags = 0u8;
            if c.crc_ok {
                flags |= CHUNK_FLAG_CRC_OK;
            }
            if c.first_timestamp.is_some() {
                flags |= CHUNK_FLAG_HAS_TS;
            }
            out.push(flags);
            if let Some(ts) = c.first_timestamp {
                write_varint(&mut out, ts);
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a sidecar, verifying magic, version, structure, and
    /// the trailing CRC. `None` on *any* defect — a bad sidecar is
    /// indistinguishable from a missing one by design (rebuild, don't
    /// trust).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 + 2 + 2 + 1 + 1 + 8 + 4 + 4 + 1 + 4 {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        if body[..4] != INDEX_MAGIC {
            return None;
        }
        if u16::from_le_bytes([body[4], body[5]]) != INDEX_VERSION {
            return None;
        }
        let wire_version = u16::from_le_bytes([body[6], body[7]]);
        if wire_version != wire::VERSION {
            return None;
        }
        let core = CoreId::new(body[8]);
        let clean = body[9] & FLAG_CLEAN != 0;
        let source_len = u64::from_le_bytes(body[10..18].try_into().ok()?);
        let head_crc = u32::from_le_bytes(body[18..22].try_into().ok()?);
        let tail_crc = u32::from_le_bytes(body[22..26].try_into().ok()?);
        let mut pos = 26usize;
        let count = usize::try_from(read_varint(body, &mut pos)?).ok()?;
        // Each chunk row is at least 3 bytes; reject absurd counts before
        // reserving.
        if count > body.len() {
            return None;
        }
        let mut chunks = Vec::with_capacity(count);
        let mut offset = 7usize;
        for _ in 0..count {
            let payload_bytes = usize::try_from(read_varint(body, &mut pos)?).ok()?;
            let entries = usize::try_from(read_varint(body, &mut pos)?).ok()?;
            let flags = *body.get(pos)?;
            pos += 1;
            let first_timestamp = if flags & CHUNK_FLAG_HAS_TS != 0 {
                Some(read_varint(body, &mut pos)?)
            } else {
                None
            };
            chunks.push(IndexChunk {
                offset,
                payload_bytes,
                entries,
                first_timestamp,
                crc_ok: flags & CHUNK_FLAG_CRC_OK != 0,
            });
            offset = offset.checked_add(payload_bytes.checked_add(8)?)?;
        }
        if pos != body.len() {
            return None; // trailing garbage inside a CRC-valid body
        }
        Some(SkipIndex {
            core,
            wire_version,
            source_len,
            head_crc,
            tail_crc,
            clean,
            chunks,
        })
    }

    /// The sidecar path for an `.rrlog` path (`foo.rrlog` → `foo.rridx`).
    #[must_use]
    pub fn sidecar_path(rrlog: &Path) -> PathBuf {
        rrlog.with_extension(INDEX_EXTENSION)
    }

    /// Loads and structurally validates the sidecar for `rrlog`. `None`
    /// if missing or defective. This does **not** check the index against
    /// the current source bytes — use [`SkipIndex::matches_source`] or
    /// [`SkipIndex::load_or_build`] for that.
    #[must_use]
    pub fn load(rrlog: &Path) -> Option<Self> {
        let bytes = std::fs::read(Self::sidecar_path(rrlog)).ok()?;
        Self::from_bytes(&bytes)
    }

    /// Persists the sidecar next to `rrlog`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on filesystem failure.
    pub fn save(&self, rrlog: &Path) -> Result<(), WireError> {
        std::fs::write(Self::sidecar_path(rrlog), self.to_bytes())?;
        Ok(())
    }

    /// The one-call consumer API: returns a chunk index for `bytes` (the
    /// current contents of `rrlog`), loading the sidecar when it is valid
    /// *and* fingerprints the same source, and otherwise rebuilding from
    /// the stream and best-effort rewriting the sidecar (an unwritable
    /// sidecar degrades to building every time, never to a wrong answer).
    ///
    /// # Errors
    ///
    /// A [`WireError`] only if the source header itself is unusable, as
    /// [`SkipIndex::build`].
    pub fn load_or_build(rrlog: &Path, bytes: &[u8]) -> Result<(Self, IndexProvenance), WireError> {
        let sidecar = std::fs::read(Self::sidecar_path(rrlog)).ok();
        let provenance = match sidecar {
            None => IndexProvenance::RebuiltMissing,
            Some(raw) => match Self::from_bytes(&raw) {
                None => IndexProvenance::RebuiltCorrupt,
                Some(index) if index.matches_source(bytes) => {
                    return Ok((index, IndexProvenance::Loaded))
                }
                Some(_) => IndexProvenance::RebuiltStale,
            },
        };
        let index = Self::build(bytes)?;
        let _ = index.save(rrlog); // best-effort cache write
        Ok((index, provenance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{IntervalLog, LogEntry};
    use crate::wire::{chunk_map, encode_chunked_with};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rr_index_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn sample_log() -> IntervalLog {
        let mut log = IntervalLog::new(CoreId::new(2));
        for i in 0..300u64 {
            log.entries.push(LogEntry::InorderBlock {
                instrs: 1 + (i % 7) as u32,
            });
            log.entries.push(LogEntry::IntervalFrame {
                cisn: (i % 50) as u16,
                timestamp: 10_000 + i * 93,
            });
        }
        log
    }

    fn assert_agrees_with_chunk_map(index: &SkipIndex, bytes: &[u8]) {
        let (core, map, err) = chunk_map(bytes).expect("header");
        assert_eq!(index.core, core);
        assert_eq!(index.chunk_infos(), map);
        assert_eq!(
            index.total_entries(),
            map.iter().map(|c| c.entries).sum::<usize>()
        );
        let mapped_end = map.last().map_or(7, |c| c.offset + c.payload_bytes + 8);
        assert_eq!(index.clean, err.is_none() && mapped_end == bytes.len());
    }

    #[test]
    fn index_round_trips_and_agrees_with_chunk_map() {
        let bytes = encode_chunked_with(&sample_log(), 128);
        let index = SkipIndex::build(&bytes).expect("builds");
        assert!(index.clean);
        assert!(index.matches_source(&bytes));
        assert_agrees_with_chunk_map(&index, &bytes);

        let round = SkipIndex::from_bytes(&index.to_bytes()).expect("parses");
        assert_eq!(round, index);
        // First timestamps are populated and absolute.
        assert!(index.chunks.iter().all(|c| c.first_timestamp.is_some()));
        assert_eq!(index.chunks[0].first_timestamp, Some(10_000));
    }

    #[test]
    fn index_agrees_with_chunk_map_on_corrupt_and_truncated_files() {
        let bytes = encode_chunked_with(&sample_log(), 128);
        let (_, clean_map, _) = chunk_map(&bytes).expect("header");
        assert!(clean_map.len() >= 4);

        let mut corrupted = bytes.clone();
        corrupted[clean_map[2].offset + 5] ^= 0x10;
        let index = SkipIndex::build(&corrupted).expect("builds");
        assert!(!index.clean);
        assert!(!index.chunks[2].crc_ok);
        assert_eq!(index.chunks[2].entries, 0);
        assert_agrees_with_chunk_map(&index, &corrupted);

        let truncated = &bytes[..bytes.len() - 3];
        let index = SkipIndex::build(truncated).expect("builds");
        assert!(!index.clean, "a cut tail is not a clean stream");
        assert_agrees_with_chunk_map(&index, truncated);
    }

    #[test]
    fn every_sidecar_byte_flip_is_rejected() {
        let bytes = encode_chunked_with(&sample_log(), 256);
        let sidecar = SkipIndex::build(&bytes).expect("builds").to_bytes();
        for i in 0..sidecar.len() {
            let mut bad = sidecar.clone();
            bad[i] ^= 0x01;
            assert!(
                SkipIndex::from_bytes(&bad).is_none(),
                "flip at byte {i} must invalidate the sidecar"
            );
        }
        for cut in 0..sidecar.len() {
            assert!(SkipIndex::from_bytes(&sidecar[..cut]).is_none());
        }
    }

    #[test]
    fn load_or_build_lifecycle_rebuilds_rather_than_trusts() {
        let path = temp_path("lifecycle.rrlog");
        let bytes = encode_chunked_with(&sample_log(), 128);
        std::fs::write(&path, &bytes).expect("writes");
        let _ = std::fs::remove_file(SkipIndex::sidecar_path(&path));

        // First touch: no sidecar → built and persisted.
        let (first, prov) = SkipIndex::load_or_build(&path, &bytes).expect("builds");
        assert_eq!(prov, IndexProvenance::RebuiltMissing);
        assert!(SkipIndex::sidecar_path(&path).exists());

        // Second touch: loaded, identical.
        let (second, prov) = SkipIndex::load_or_build(&path, &bytes).expect("loads");
        assert_eq!(prov, IndexProvenance::Loaded);
        assert_eq!(second, first);

        // Corrupt the sidecar: must be rebuilt, not trusted.
        let sidecar = SkipIndex::sidecar_path(&path);
        let mut raw = std::fs::read(&sidecar).expect("sidecar");
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&sidecar, &raw).expect("rewrites");
        let (third, prov) = SkipIndex::load_or_build(&path, &bytes).expect("rebuilds");
        assert_eq!(prov, IndexProvenance::RebuiltCorrupt);
        assert_eq!(third, first);

        // Change the source: a structurally valid sidecar goes stale.
        let mut longer = sample_log();
        longer.entries.push(LogEntry::InorderBlock { instrs: 9 });
        let new_bytes = encode_chunked_with(&longer, 128);
        std::fs::write(&path, &new_bytes).expect("rewrites source");
        let (fourth, prov) = SkipIndex::load_or_build(&path, &new_bytes).expect("rebuilds");
        assert_eq!(prov, IndexProvenance::RebuiltStale);
        assert!(fourth.matches_source(&new_bytes));
        assert_agrees_with_chunk_map(&fourth, &new_bytes);

        // A same-length in-place byte flip is caught by the fingerprint
        // (flip inside the tail window).
        let mut flipped = new_bytes.clone();
        let n = flipped.len();
        flipped[n - 10] ^= 0x08;
        assert!(!fourth.matches_source(&flipped));
    }
}
