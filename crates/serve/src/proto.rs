//! RRSP/v2 — the RelaxReplay serve protocol.
//!
//! A length-prefixed binary framing over any ordered byte stream
//! (TCP in production, an in-memory pipe in tests):
//!
//! ```text
//! frame := u32 LE payload_len | payload | u32 LE crc32(payload)
//! payload := u8 msg_type | body
//! ```
//!
//! The CRC closes the whole payload (type byte included), so a flipped
//! bit anywhere — length, type, or body — surfaces as a typed
//! [`WireError`](relaxreplay::WireError)-style failure on the receiver
//! instead of a misparse. Bodies are encoded with the same varint +
//! length-prefixed-bytes vocabulary as the `.rrlog` wire format, so the
//! whole protocol shares one codec idiom with the artifacts it ships.
//!
//! Requests travel client → server, each answered by exactly one
//! response (the matching ack, or [`Msg::Error`]). Chunk payloads ride
//! verbatim: a [`Msg::PutChunk`] body carries the exact bytes that sit
//! between a chunk's length prefix and trailing CRC in an `.rrlog`
//! file, which is what makes server-side reassembly byte-identical to a
//! local save.

use std::io::{Read, Write};

use relaxreplay::wire::{crc32, read_varint, write_varint};

use crate::ServeError;
use rr_sim::logdir::{RunFiles, VariantFiles};
use rr_sim::{RemoteFault, VariantStat};

/// Protocol version spoken by this build. Version 2 dropped the byte-range
/// verb (type codes 0x07/0x87, now unknown) and the per-core index blobs
/// of [`Msg::RunBundle`], so a version-1 peer is refused at `Hello`.
pub const PROTO_VERSION: u16 = 2;

/// Upper bound on a single frame's payload, guarding both sides against
/// a corrupt or hostile length prefix committing them to a huge
/// allocation. 256 MiB comfortably exceeds any real chunk or bundle.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// One per-(variant, core) log within a [`Msg::SealRun`] declaration:
/// how many chunks were staged and what wire version framed them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealCore {
    /// `.rrlog` wire version the chunks were encoded with.
    pub wire_version: u16,
    /// Chunks staged for this (variant, core), sequence 0..n.
    pub chunks: u64,
}

/// One variant within a [`Msg::SealRun`] declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealVariant {
    /// The variant's label (a checked path-safe name).
    pub label: String,
    /// Per-core chunk declarations, index = core id.
    pub cores: Vec<SealCore>,
    /// The `ordering.bin` sidecar bytes, verbatim, when the variant was
    /// recorded with an interval partial order.
    pub ordering: Option<Vec<u8>>,
}

/// Every RRSP/v2 message. Requests use low type codes, responses the
/// same code with the top bit set; [`Msg::Error`] (0x7F) answers any
/// request that failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Client hello: the protocol version it speaks.
    Hello {
        /// Client's protocol version.
        version: u16,
    },
    /// Server accepts the connection at `version`.
    HelloAck {
        /// Version the conversation will use.
        version: u16,
    },
    /// Stage one chunk of one (run, variant, core) log.
    PutChunk {
        /// Run being assembled.
        run: String,
        /// Variant label.
        variant: String,
        /// Core id.
        core: u8,
        /// Chunk sequence number within the (variant, core) log, from 0.
        seq: u64,
        /// Wire version of the `.rrlog` the chunk came from.
        wire_version: u16,
        /// The chunk payload, verbatim (no length prefix, no CRC).
        payload: Vec<u8>,
    },
    /// Chunk accepted.
    PutAck {
        /// True when an identical blob already existed (dedup hit).
        dedup: bool,
    },
    /// Declare a staged run complete and publish it atomically.
    SealRun {
        /// Run name.
        run: String,
        /// Recorded core count.
        cores: u8,
        /// Per-variant declarations; staged chunks must match exactly.
        variants: Vec<SealVariant>,
        /// The `truth.bin` ground-truth sidecar, verbatim.
        truth: Vec<u8>,
    },
    /// Run sealed and visible.
    SealAck {
        /// Logical `.rrlog` bytes the run materializes to.
        log_bytes: u64,
    },
    /// Fetch a complete run.
    GetRun {
        /// Run name.
        run: String,
    },
    /// A complete run as the bytes of its files: every variant's
    /// reassembled `.rrlog` files and `ordering.bin`, in sealed order,
    /// and `truth.bin`, verbatim. The core count travels as a `u8`; a
    /// store seals no run of more than 255 cores.
    RunBundle(RunFiles),
    /// List sealed runs.
    ListRuns,
    /// The sealed run names, sorted.
    ListAck {
        /// Run names.
        runs: Vec<String>,
    },
    /// Stat one run (verifies every referenced blob).
    Stat {
        /// Run name.
        run: String,
    },
    /// The run's sizing plus store-wide dedup accounting.
    StatAck {
        /// Recorded core count.
        cores: u8,
        /// Per-variant sizing.
        variants: Vec<VariantStat>,
        /// `truth.bin` size.
        truth_bytes: u64,
        /// Distinct blobs in the store.
        blobs: u64,
        /// Bytes those blobs occupy.
        blob_bytes: u64,
        /// Chunk bytes all catalogs reference.
        logical_bytes: u64,
    },
    /// Any request's failure, with the fault category preserved.
    Error {
        /// What kind of failure.
        kind: RemoteFault,
        /// Human-readable detail.
        detail: String,
    },
}

const T_HELLO: u8 = 0x01;
const T_PUT_CHUNK: u8 = 0x02;
const T_SEAL_RUN: u8 = 0x03;
const T_GET_RUN: u8 = 0x04;
const T_LIST_RUNS: u8 = 0x05;
const T_STAT: u8 = 0x06;
const T_HELLO_ACK: u8 = 0x81;
const T_PUT_ACK: u8 = 0x82;
const T_SEAL_ACK: u8 = 0x83;
const T_RUN_BUNDLE: u8 = 0x84;
const T_LIST_ACK: u8 = 0x85;
const T_STAT_ACK: u8 = 0x86;
const T_ERROR: u8 = 0x7f;

fn fault_code(kind: RemoteFault) -> u8 {
    match kind {
        RemoteFault::Connect => 0,
        RemoteFault::Io => 1,
        RemoteFault::Protocol => 2,
        RemoteFault::UnsupportedVersion => 3,
        RemoteFault::UnknownRun => 4,
        RemoteFault::BadName => 5,
        RemoteFault::Conflict => 6,
        RemoteFault::CorruptBlob => 7,
        RemoteFault::Catalog => 8,
        RemoteFault::Server => 9,
    }
}

fn fault_from_code(code: u8) -> Option<RemoteFault> {
    Some(match code {
        0 => RemoteFault::Connect,
        1 => RemoteFault::Io,
        2 => RemoteFault::Protocol,
        3 => RemoteFault::UnsupportedVersion,
        4 => RemoteFault::UnknownRun,
        5 => RemoteFault::BadName,
        6 => RemoteFault::Conflict,
        7 => RemoteFault::CorruptBlob,
        8 => RemoteFault::Catalog,
        9 => RemoteFault::Server,
        _ => return None,
    })
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_opt_bytes(out: &mut Vec<u8>, bytes: Option<&[u8]>) {
    match bytes {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_bytes(out, b);
        }
    }
}

struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn truncated() -> ServeError {
        ServeError::new(RemoteFault::Protocol, "frame body truncated")
    }

    fn varint(&mut self) -> Result<u64, ServeError> {
        read_varint(self.buf, &mut self.pos).ok_or_else(Self::truncated)
    }

    fn byte(&mut self) -> Result<u8, ServeError> {
        let b = *self.buf.get(self.pos).ok_or_else(Self::truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        let lo = self.byte()?;
        let hi = self.byte()?;
        Ok(u16::from_le_bytes([lo, hi]))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ServeError> {
        let len = usize::try_from(self.varint()?).map_err(|_| Self::truncated())?;
        if len > MAX_FRAME_BYTES {
            return Err(Self::truncated());
        }
        let end = self.pos.checked_add(len).ok_or_else(Self::truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or_else(Self::truncated)?;
        self.pos = end;
        Ok(slice.to_vec())
    }

    fn string(&mut self) -> Result<String, ServeError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| ServeError::new(RemoteFault::Protocol, "frame string not UTF-8"))
    }

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            _ => Err(ServeError::new(
                RemoteFault::Protocol,
                "bad option tag in frame body",
            )),
        }
    }

    fn finish(self) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::new(
                RemoteFault::Protocol,
                "frame body has trailing bytes",
            ))
        }
    }
}

impl Msg {
    /// Serializes the message to a frame payload (type byte + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello { version } => {
                out.push(T_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Msg::HelloAck { version } => {
                out.push(T_HELLO_ACK);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Msg::PutChunk {
                run,
                variant,
                core,
                seq,
                wire_version,
                payload,
            } => {
                out.push(T_PUT_CHUNK);
                put_str(&mut out, run);
                put_str(&mut out, variant);
                out.push(*core);
                write_varint(&mut out, *seq);
                out.extend_from_slice(&wire_version.to_le_bytes());
                put_bytes(&mut out, payload);
            }
            Msg::PutAck { dedup } => {
                out.push(T_PUT_ACK);
                out.push(u8::from(*dedup));
            }
            Msg::SealRun {
                run,
                cores,
                variants,
                truth,
            } => {
                out.push(T_SEAL_RUN);
                put_str(&mut out, run);
                out.push(*cores);
                write_varint(&mut out, variants.len() as u64);
                for v in variants {
                    put_str(&mut out, &v.label);
                    write_varint(&mut out, v.cores.len() as u64);
                    for c in &v.cores {
                        out.extend_from_slice(&c.wire_version.to_le_bytes());
                        write_varint(&mut out, c.chunks);
                    }
                    put_opt_bytes(&mut out, v.ordering.as_deref());
                }
                put_bytes(&mut out, truth);
            }
            Msg::SealAck { log_bytes } => {
                out.push(T_SEAL_ACK);
                write_varint(&mut out, *log_bytes);
            }
            Msg::GetRun { run } => {
                out.push(T_GET_RUN);
                put_str(&mut out, run);
            }
            Msg::RunBundle(files) => {
                out.push(T_RUN_BUNDLE);
                out.push(files.cores as u8);
                write_varint(&mut out, files.variants.len() as u64);
                for v in &files.variants {
                    put_str(&mut out, &v.label);
                    write_varint(&mut out, v.logs.len() as u64);
                    for log in &v.logs {
                        put_bytes(&mut out, log);
                    }
                    put_opt_bytes(&mut out, v.ordering.as_deref());
                }
                put_bytes(&mut out, &files.truth);
            }
            Msg::ListRuns => out.push(T_LIST_RUNS),
            Msg::ListAck { runs } => {
                out.push(T_LIST_ACK);
                write_varint(&mut out, runs.len() as u64);
                for r in runs {
                    put_str(&mut out, r);
                }
            }
            Msg::Stat { run } => {
                out.push(T_STAT);
                put_str(&mut out, run);
            }
            Msg::StatAck {
                cores,
                variants,
                truth_bytes,
                blobs,
                blob_bytes,
                logical_bytes,
            } => {
                out.push(T_STAT_ACK);
                out.push(*cores);
                write_varint(&mut out, variants.len() as u64);
                for v in variants {
                    put_str(&mut out, &v.label);
                    write_varint(&mut out, v.chunks);
                    write_varint(&mut out, v.log_bytes);
                    out.push(u8::from(v.has_ordering));
                }
                write_varint(&mut out, *truth_bytes);
                write_varint(&mut out, *blobs);
                write_varint(&mut out, *blob_bytes);
                write_varint(&mut out, *logical_bytes);
            }
            Msg::Error { kind, detail } => {
                out.push(T_ERROR);
                out.push(fault_code(*kind));
                put_str(&mut out, detail);
            }
        }
        out
    }

    /// Parses a frame payload produced by [`Msg::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] with [`RemoteFault::Protocol`] on any
    /// unknown type, truncation, or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Msg, ServeError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or_else(|| ServeError::new(RemoteFault::Protocol, "empty frame payload"))?;
        let mut r = BodyReader::new(body);
        let msg = match tag {
            T_HELLO => Msg::Hello { version: r.u16()? },
            T_HELLO_ACK => Msg::HelloAck { version: r.u16()? },
            T_PUT_CHUNK => Msg::PutChunk {
                run: r.string()?,
                variant: r.string()?,
                core: r.byte()?,
                seq: r.varint()?,
                wire_version: r.u16()?,
                payload: r.bytes()?,
            },
            T_PUT_ACK => Msg::PutAck {
                dedup: r.byte()? != 0,
            },
            T_SEAL_RUN => {
                let run = r.string()?;
                let cores = r.byte()?;
                let nv = r.varint()?;
                let mut variants = Vec::new();
                for _ in 0..nv {
                    let label = r.string()?;
                    let nc = r.varint()?;
                    let mut seal_cores = Vec::new();
                    for _ in 0..nc {
                        seal_cores.push(SealCore {
                            wire_version: r.u16()?,
                            chunks: r.varint()?,
                        });
                    }
                    variants.push(SealVariant {
                        label,
                        cores: seal_cores,
                        ordering: r.opt_bytes()?,
                    });
                }
                Msg::SealRun {
                    run,
                    cores,
                    variants,
                    truth: r.bytes()?,
                }
            }
            T_SEAL_ACK => Msg::SealAck {
                log_bytes: r.varint()?,
            },
            T_GET_RUN => Msg::GetRun { run: r.string()? },
            T_RUN_BUNDLE => {
                let cores = usize::from(r.byte()?);
                let nv = r.varint()?;
                let mut variants = Vec::new();
                for _ in 0..nv {
                    let label = r.string()?;
                    let nl = r.varint()?;
                    let mut logs = Vec::new();
                    for _ in 0..nl {
                        logs.push(r.bytes()?);
                    }
                    variants.push(VariantFiles {
                        label,
                        logs,
                        ordering: r.opt_bytes()?,
                    });
                }
                Msg::RunBundle(RunFiles {
                    cores,
                    variants,
                    truth: r.bytes()?,
                })
            }
            T_LIST_RUNS => Msg::ListRuns,
            T_LIST_ACK => {
                let n = r.varint()?;
                let mut runs = Vec::new();
                for _ in 0..n {
                    runs.push(r.string()?);
                }
                Msg::ListAck { runs }
            }
            T_STAT => Msg::Stat { run: r.string()? },
            T_STAT_ACK => {
                let cores = r.byte()?;
                let nv = r.varint()?;
                let mut variants = Vec::new();
                for _ in 0..nv {
                    variants.push(VariantStat {
                        label: r.string()?,
                        chunks: r.varint()?,
                        log_bytes: r.varint()?,
                        has_ordering: r.byte()? != 0,
                    });
                }
                Msg::StatAck {
                    cores,
                    variants,
                    truth_bytes: r.varint()?,
                    blobs: r.varint()?,
                    blob_bytes: r.varint()?,
                    logical_bytes: r.varint()?,
                }
            }
            T_ERROR => {
                let code = r.byte()?;
                let kind = fault_from_code(code).ok_or_else(|| {
                    ServeError::new(RemoteFault::Protocol, "unknown error fault code")
                })?;
                Msg::Error {
                    kind,
                    detail: r.string()?,
                }
            }
            other => {
                return Err(ServeError::new(
                    RemoteFault::Protocol,
                    format!("unknown frame type 0x{other:02x}"),
                ))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes one framed message to `w`.
///
/// # Errors
///
/// Returns [`RemoteFault::Io`] if the transport fails.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> Result<(), ServeError> {
    let payload = msg.encode();
    let len = u32::try_from(payload.len())
        .map_err(|_| ServeError::new(RemoteFault::Protocol, "frame payload exceeds u32"))?;
    let io = |e: std::io::Error| ServeError::new(RemoteFault::Io, format!("send failed: {e}"));
    // One write per frame: three small writes would interact with
    // Nagle + delayed ACK and stall every request by tens of ms.
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    w.write_all(&frame).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(())
}

/// Reads one framed message from `r`, verifying the CRC.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between messages).
///
/// # Errors
///
/// Returns [`RemoteFault::Io`] on transport failure or mid-frame EOF,
/// [`RemoteFault::Protocol`] on oversized frames, CRC mismatch, or
/// unparseable payloads.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Msg>, ServeError> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < 4 {
                let n = r
                    .read(&mut len_bytes[got..])
                    .map_err(|e| ServeError::new(RemoteFault::Io, format!("recv failed: {e}")))?;
                if n == 0 {
                    return Err(ServeError::new(
                        RemoteFault::Io,
                        "connection closed mid-frame",
                    ));
                }
                got += n;
            }
        }
        Err(e) => {
            return Err(ServeError::new(
                RemoteFault::Io,
                format!("recv failed: {e}"),
            ))
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(ServeError::new(
            RemoteFault::Protocol,
            format!("frame payload length {len} out of range"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut crc_bytes = [0u8; 4];
    let io = |e: std::io::Error| ServeError::new(RemoteFault::Io, format!("recv failed: {e}"));
    r.read_exact(&mut payload).map_err(io)?;
    r.read_exact(&mut crc_bytes).map_err(io)?;
    if crc32(&payload) != u32::from_le_bytes(crc_bytes) {
        return Err(ServeError::new(RemoteFault::Protocol, "frame CRC mismatch"));
    }
    Msg::decode(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Msg) {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg).expect("writes");
        let back = read_frame(&mut wire.as_slice())
            .expect("reads")
            .expect("one frame");
        assert_eq!(&back, msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(&Msg::Hello { version: 1 });
        round_trip(&Msg::HelloAck { version: 1 });
        round_trip(&Msg::PutChunk {
            run: "fft".into(),
            variant: "Opt-4K".into(),
            core: 3,
            seq: 17,
            wire_version: 3,
            payload: vec![0xab; 300],
        });
        round_trip(&Msg::PutAck { dedup: true });
        round_trip(&Msg::SealRun {
            run: "fft".into(),
            cores: 2,
            variants: vec![SealVariant {
                label: "Opt-4K".into(),
                cores: vec![
                    SealCore {
                        wire_version: 3,
                        chunks: 5,
                    },
                    SealCore {
                        wire_version: 3,
                        chunks: 0,
                    },
                ],
                ordering: Some(vec![1, 2, 3]),
            }],
            truth: vec![9, 9],
        });
        round_trip(&Msg::SealAck { log_bytes: 1 << 40 });
        round_trip(&Msg::GetRun { run: "fft".into() });
        round_trip(&Msg::RunBundle(RunFiles {
            cores: 1,
            variants: vec![VariantFiles {
                label: "Base".into(),
                logs: vec![vec![1, 2]],
                ordering: None,
            }],
            truth: vec![7],
        }));
        round_trip(&Msg::ListRuns);
        round_trip(&Msg::ListAck {
            runs: vec!["a".into(), "b".into()],
        });
        round_trip(&Msg::Stat { run: "a".into() });
        round_trip(&Msg::StatAck {
            cores: 4,
            variants: vec![VariantStat {
                label: "Base".into(),
                chunks: 9,
                log_bytes: 1234,
                has_ordering: true,
            }],
            truth_bytes: 55,
            blobs: 8,
            blob_bytes: 4096,
            logical_bytes: 8192,
        });
        round_trip(&Msg::Error {
            kind: RemoteFault::CorruptBlob,
            detail: "object 0123 damaged".into(),
        });
    }

    /// The retired byte-range verb and its reply (type codes 0x07 and
    /// 0x87) are unknown frame types: a version-1 peer that sends one gets
    /// a typed protocol error, even for a body that once parsed.
    #[test]
    fn retired_range_frames_are_typed_errors() {
        let mut body = Vec::new();
        put_str(&mut body, "a");
        put_str(&mut body, "Base");
        body.push(0);
        write_varint(&mut body, 7);
        write_varint(&mut body, u64::MAX);
        for tag in [0x07u8, 0x87] {
            for payload in [vec![tag], [&[tag][..], &body].concat()] {
                let err = Msg::decode(&payload).expect_err("retired frame type");
                assert_eq!(err.kind, RemoteFault::Protocol);
                assert_eq!(err.detail, format!("unknown frame type 0x{tag:02x}"));
                let mut wire = Vec::new();
                wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wire.extend_from_slice(&payload);
                wire.extend_from_slice(&crc32(&payload).to_le_bytes());
                let err = read_frame(&mut wire.as_slice()).expect_err("typed error");
                assert_eq!(err.kind, RemoteFault::Protocol);
            }
        }
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Msg::ListRuns).expect("writes");
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let res = read_frame(&mut bad.as_slice());
            assert!(
                res.is_err() || res.as_ref().ok().and_then(|m| m.as_ref()) != Some(&Msg::ListRuns),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));
        let mut wire = Vec::new();
        write_frame(&mut wire, &Msg::ListRuns).expect("writes");
        let mut cut = &wire[..wire.len() - 2];
        assert!(read_frame(&mut cut).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice()).expect_err("rejected");
        assert_eq!(err.kind, RemoteFault::Protocol);
    }
}
