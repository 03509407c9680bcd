//! RRSP/v3 — the RelaxReplay serve protocol.
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
//! [`RemoteFault::Protocol`] failure on the receiver instead of a
//! misparse. The protocol holds no codec of its own: frames are written
//! and parsed by the frame codec of `relaxreplay::wire`
//! ([`wire::begin_frame`]/[`wire::end_frame`], [`Reader::frame`]) that
//! also frames `.rrlog` chunks, and bodies are read through its bounded
//! [`Reader`], whose failures map onto [`RemoteFault::Protocol`].
//!
//! Requests travel client → server, each answered by exactly one
//! response (the matching ack, or [`Msg::Error`]). A run travels whole,
//! both ways, as the bytes of its files: a save is one [`Msg::PutRun`], a
//! load one [`Msg::RunBundle`], and both carry the same [`RunFiles`]
//! body, written by one encoder and read by one decoder. Its `.rrlog`
//! files ride verbatim, which is what makes the server's stored chunks
//! reassemble byte-identical to a local save.

use std::io::{Read, Write};

use relaxreplay::codec_message;
use relaxreplay::wire::{self, write_bytes, write_varint, CodecError, Reader};

use crate::ServeError;
use rr_sim::logdir::{RunFiles, VariantFiles};
use rr_sim::{RemoteFault, VariantStat};

/// Protocol version spoken by this build, and the only one it accepts
/// at `Hello`. Version 2 dropped the byte-range verb (type codes
/// 0x07/0x87, now unknown) and the per-core index blobs of
/// [`Msg::RunBundle`]. Version 3 saves a run in one [`Msg::PutRun`]: the
/// per-chunk verb and its ack and the seal declaration (0x02, 0x82 and
/// 0x03) are unknown frame types.
pub const PROTO_VERSION: u16 = 3;

/// Upper bound on a single frame's payload, guarding both sides against
/// a corrupt or hostile length prefix committing them to a huge
/// allocation. A run travels in one frame either way, so this also caps
/// the size of a run that can be saved or fetched.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Every RRSP/v3 message. Requests use low type codes, responses the top
/// bit set: [`Msg::PutRun`] (0x08) is answered by [`Msg::SealAck`] (0x83),
/// every other request by its own code | 0x80, and [`Msg::Error`] (0x7F)
/// answers any request that failed.
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
    /// Save a whole run under `run`: every variant's `.rrlog` files and
    /// `ordering.bin`, and `truth.bin`, in the body a [`Msg::RunBundle`]
    /// carries. Answered by [`Msg::SealAck`] once the run is published.
    PutRun {
        /// Run name.
        run: String,
        /// The run's files.
        files: RunFiles,
    },
    /// Run saved and visible.
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
const T_GET_RUN: u8 = 0x04;
const T_LIST_RUNS: u8 = 0x05;
const T_STAT: u8 = 0x06;
const T_PUT_RUN: u8 = 0x08;
const T_HELLO_ACK: u8 = 0x81;
const T_SEAL_ACK: u8 = 0x83;
const T_RUN_BUNDLE: u8 = 0x84;
const T_LIST_ACK: u8 = 0x85;
const T_STAT_ACK: u8 = 0x86;
const T_ERROR: u8 = 0x7f;

/// Every fault at the index of its wire code, which is its declaration
/// order (so `kind as u8` encodes it).
const FAULTS: [RemoteFault; 10] = [
    RemoteFault::Connect,
    RemoteFault::Io,
    RemoteFault::Protocol,
    RemoteFault::UnsupportedVersion,
    RemoteFault::UnknownRun,
    RemoteFault::BadName,
    RemoteFault::Conflict,
    RemoteFault::CorruptBlob,
    RemoteFault::Catalog,
    RemoteFault::Server,
];

fn protocol_err(e: CodecError) -> ServeError {
    ServeError::new(RemoteFault::Protocol, codec_message!("frame body", e))
}

impl Msg {
    /// The message's type byte.
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => T_HELLO,
            Msg::HelloAck { .. } => T_HELLO_ACK,
            Msg::PutRun { .. } => T_PUT_RUN,
            Msg::SealAck { .. } => T_SEAL_ACK,
            Msg::GetRun { .. } => T_GET_RUN,
            Msg::RunBundle(_) => T_RUN_BUNDLE,
            Msg::ListRuns => T_LIST_RUNS,
            Msg::ListAck { .. } => T_LIST_ACK,
            Msg::Stat { .. } => T_STAT,
            Msg::StatAck { .. } => T_STAT_ACK,
            Msg::Error { .. } => T_ERROR,
        }
    }

    /// Appends the message to `out` as a frame payload (type byte + body).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Msg::Hello { version } | Msg::HelloAck { version } => {
                out.extend_from_slice(&version.to_le_bytes());
            }
            Msg::PutRun { run, files } => {
                write_bytes(out, run.as_bytes());
                encode_files(out, files);
            }
            Msg::SealAck { log_bytes } => write_varint(out, *log_bytes),
            Msg::GetRun { run } | Msg::Stat { run } => write_bytes(out, run.as_bytes()),
            Msg::RunBundle(files) => encode_files(out, files),
            Msg::ListRuns => {}
            Msg::ListAck { runs } => {
                write_varint(out, runs.len() as u64);
                for r in runs {
                    write_bytes(out, r.as_bytes());
                }
            }
            Msg::StatAck {
                cores,
                variants,
                truth_bytes,
                blobs,
                blob_bytes,
                logical_bytes,
            } => {
                out.push(*cores);
                write_varint(out, variants.len() as u64);
                for v in variants {
                    write_bytes(out, v.label.as_bytes());
                    write_varint(out, v.chunks);
                    write_varint(out, v.log_bytes);
                    out.push(u8::from(v.has_ordering));
                }
                write_varint(out, *truth_bytes);
                write_varint(out, *blobs);
                write_varint(out, *blob_bytes);
                write_varint(out, *logical_bytes);
            }
            Msg::Error { kind, detail } => {
                out.push(*kind as u8);
                write_bytes(out, detail.as_bytes());
            }
        }
    }

    /// Parses a frame payload produced by [`Msg::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] with [`RemoteFault::Protocol`] on any
    /// unknown type, truncation, flag byte other than 0/1, or trailing
    /// garbage.
    pub fn decode(payload: &[u8]) -> Result<Msg, ServeError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or_else(|| ServeError::new(RemoteFault::Protocol, "empty frame payload"))?;
        let mut r = Reader::new(body, protocol_err);
        let string = |r: &mut Reader<'_, ServeError>| r.str(MAX_FRAME_BYTES).map(str::to_owned);
        let msg = match tag {
            T_HELLO => Msg::Hello { version: r.u16()? },
            T_HELLO_ACK => Msg::HelloAck { version: r.u16()? },
            T_PUT_RUN => Msg::PutRun {
                run: string(&mut r)?,
                files: decode_files(&mut r)?,
            },
            T_SEAL_ACK => Msg::SealAck {
                log_bytes: r.varint()?,
            },
            T_GET_RUN => Msg::GetRun {
                run: string(&mut r)?,
            },
            T_RUN_BUNDLE => Msg::RunBundle(decode_files(&mut r)?),
            T_LIST_RUNS => Msg::ListRuns,
            T_LIST_ACK => {
                let mut runs = Vec::new();
                for _ in 0..r.varint()? {
                    runs.push(string(&mut r)?);
                }
                Msg::ListAck { runs }
            }
            T_STAT => Msg::Stat {
                run: string(&mut r)?,
            },
            T_STAT_ACK => {
                let cores = r.u8()?;
                let mut variants = Vec::new();
                for _ in 0..r.varint()? {
                    variants.push(VariantStat {
                        label: string(&mut r)?,
                        chunks: r.varint()?,
                        log_bytes: r.varint()?,
                        has_ordering: r.flag()?,
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
                let kind = FAULTS.get(usize::from(r.u8()?)).copied();
                let kind = kind.ok_or_else(|| {
                    ServeError::new(RemoteFault::Protocol, "unknown error fault code")
                })?;
                Msg::Error {
                    kind,
                    detail: string(&mut r)?,
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

/// Appends a [`RunFiles`] body, the body of [`Msg::PutRun`] and
/// [`Msg::RunBundle`]: the core count (a `u8`; the sender refuses a run
/// of more cores), then each variant's label, `.rrlog` files and
/// optional `ordering.bin`, then `truth.bin`.
fn encode_files(out: &mut Vec<u8>, files: &RunFiles) {
    out.push(files.cores as u8);
    write_varint(out, files.variants.len() as u64);
    for v in &files.variants {
        write_bytes(out, v.label.as_bytes());
        write_varint(out, v.logs.len() as u64);
        for log in &v.logs {
            write_bytes(out, log);
        }
        out.push(u8::from(v.ordering.is_some()));
        if let Some(ordering) = &v.ordering {
            write_bytes(out, ordering);
        }
    }
    write_bytes(out, &files.truth);
}

/// Reads a body written by [`encode_files`]. It checks only the framing:
/// what the files say is for [`RunFiles::decode`] and the store to judge.
fn decode_files(r: &mut Reader<'_, ServeError>) -> Result<RunFiles, ServeError> {
    let bytes = |r: &mut Reader<'_, ServeError>| r.bytes(MAX_FRAME_BYTES).map(<[u8]>::to_vec);
    let cores = usize::from(r.u8()?);
    let mut variants = Vec::new();
    for _ in 0..r.varint()? {
        let label = r.str(MAX_FRAME_BYTES)?.to_owned();
        let mut logs = Vec::new();
        for _ in 0..r.varint()? {
            logs.push(bytes(r)?);
        }
        variants.push(VariantFiles {
            label,
            logs,
            ordering: r.flag()?.then(|| bytes(r)).transpose()?,
        });
    }
    Ok(RunFiles {
        cores,
        variants,
        truth: bytes(r)?,
    })
}

/// Writes one framed message to `w`: the message is encoded straight
/// into its frame ([`wire::begin_frame`] / [`wire::end_frame`]).
///
/// # Errors
///
/// Returns [`RemoteFault::Io`] if the transport fails.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> Result<(), ServeError> {
    let mut frame = Vec::new();
    let start = wire::begin_frame(&mut frame);
    msg.encode(&mut frame);
    wire::end_frame(&mut frame, start)
        .map_err(|_| ServeError::new(RemoteFault::Protocol, "frame payload exceeds u32"))?;
    let io = |e: std::io::Error| ServeError::new(RemoteFault::Io, format!("send failed: {e}"));
    // One write per frame: three small writes would interact with
    // Nagle + delayed ACK and stall every request by tens of ms.
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
    let io = |e: std::io::Error| ServeError::new(RemoteFault::Io, format!("recv failed: {e}"));
    let mut frame = vec![0u8; 4];
    let got = r.read(&mut frame).map_err(io)?;
    if got == 0 {
        return Ok(None);
    }
    r.read_exact(&mut frame[got..]).map_err(io)?;
    let len = Reader::new(&frame, protocol_err).u32()? as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(ServeError::new(
            RemoteFault::Protocol,
            format!("frame payload length {len} out of range"),
        ));
    }
    // The buffer grows as bytes arrive, so a length prefix alone commits
    // no memory.
    let rest = (len + wire::FRAME_BYTES - frame.len()) as u64;
    if r.take(rest).read_to_end(&mut frame).map_err(io)? as u64 != rest {
        return Err(io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    let payload = Reader::new(&frame, protocol_err)
        .frame()?
        .verify()
        .map_err(|_| ServeError::new(RemoteFault::Protocol, "frame CRC mismatch"))?;
    Msg::decode(payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message of every variant.
    fn every_msg() -> Vec<Msg> {
        vec![
            Msg::Hello { version: 1 },
            Msg::HelloAck { version: 1 },
            Msg::PutRun {
                run: "fft".into(),
                files: RunFiles {
                    cores: 2,
                    variants: vec![VariantFiles {
                        label: "Opt-4K".into(),
                        logs: vec![vec![0xab; 300], vec![]],
                        ordering: Some(vec![1, 2, 3]),
                    }],
                    truth: vec![9, 9],
                },
            },
            Msg::SealAck { log_bytes: 1 << 40 },
            Msg::GetRun { run: "fft".into() },
            Msg::RunBundle(RunFiles {
                cores: 1,
                variants: vec![VariantFiles {
                    label: "Base".into(),
                    logs: vec![vec![1, 2]],
                    ordering: None,
                }],
                truth: vec![7],
            }),
            Msg::ListRuns,
            Msg::ListAck {
                runs: vec!["a".into(), "b".into()],
            },
            Msg::Stat { run: "a".into() },
            Msg::StatAck {
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
            },
            Msg::Error {
                kind: RemoteFault::CorruptBlob,
                detail: "object 0123 damaged".into(),
            },
        ]
    }

    fn frame_of(msg: &Msg) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg).expect("writes");
        wire
    }

    /// A frame around `payload`, whatever it holds.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        let start = wire::begin_frame(&mut frame);
        frame.extend_from_slice(payload);
        wire::end_frame(&mut frame, start).expect("small payload");
        frame
    }

    /// A fault's wire code is its declaration order, and `FAULTS` lists
    /// every fault: a new one fails to compile in the match below until
    /// it is listed there and here.
    #[test]
    fn fault_codes_are_declaration_order() {
        for (code, kind) in FAULTS.into_iter().enumerate() {
            assert_eq!(kind as usize, code, "{kind:?}");
            match kind {
                RemoteFault::Connect
                | RemoteFault::Io
                | RemoteFault::Protocol
                | RemoteFault::UnsupportedVersion
                | RemoteFault::UnknownRun
                | RemoteFault::BadName
                | RemoteFault::Conflict
                | RemoteFault::CorruptBlob
                | RemoteFault::Catalog
                | RemoteFault::Server => {}
            }
        }
        assert_eq!(FAULTS.len(), RemoteFault::Server as usize + 1);
    }

    #[test]
    fn every_message_round_trips() {
        for msg in every_msg() {
            let back = read_frame(&mut frame_of(&msg).as_slice())
                .expect("reads")
                .expect("one frame");
            assert_eq!(back, msg);
        }
    }

    /// Every single-bit flip and every truncation of a frame of every
    /// message decodes to the same message or a typed error: `Protocol`
    /// for a damaged frame, `Io` for one that ends early.
    #[test]
    fn every_message_frame_survives_the_corruption_harness() {
        let read = |mut b: &[u8]| {
            read_frame(&mut b)?
                .ok_or_else(|| ServeError::new(RemoteFault::Io, "no frame before EOF"))
        };
        let typed = |e: &ServeError| matches!(e.kind, RemoteFault::Protocol | RemoteFault::Io);
        for msg in every_msg() {
            rr_reference::assert_damage_is_typed(&frame_of(&msg), read, typed);
        }
    }

    /// A flag is 0 or 1, in every message that carries one: any other
    /// byte in a frame whose CRC holds is a typed protocol error, not
    /// `true`.
    #[test]
    fn flag_bytes_other_than_0_or_1_are_protocol_errors() {
        let stat_ack = |flag: u8| {
            let mut payload = vec![T_STAT_ACK, 1, 1];
            write_bytes(&mut payload, b"Base");
            payload.extend_from_slice(&[9, 9, flag, 0, 0, 0, 0]);
            payload
        };
        let option = |flag: u8| {
            let mut payload = vec![T_RUN_BUNDLE, 1, 1];
            write_bytes(&mut payload, b"Base");
            payload.extend_from_slice(&[0, flag, 0]);
            payload
        };
        for payload in [stat_ack(1), option(0)] {
            assert!(read_frame(&mut raw_frame(&payload).as_slice()).is_ok());
        }
        for payload in [stat_ack(2), option(2)] {
            let err = read_frame(&mut raw_frame(&payload).as_slice()).expect_err("flag 2");
            assert_eq!(err.kind, RemoteFault::Protocol);
            assert_eq!(err.detail, "frame body flag not 0/1");
        }
    }

    /// The retired verbs are unknown frame types: version 1's byte range
    /// and its reply (0x07, 0x87) and version 2's chunk, its ack and the
    /// seal (0x02, 0x82, 0x03). A peer that sends one gets a typed
    /// protocol error, whatever body follows, a version-1 range body
    /// included.
    #[test]
    fn retired_range_frames_are_typed_errors() {
        let mut body = Vec::new();
        write_bytes(&mut body, b"a");
        write_bytes(&mut body, b"Base");
        body.push(0);
        write_varint(&mut body, 7);
        write_varint(&mut body, u64::MAX);
        for tag in [0x02u8, 0x03, 0x07, 0x82, 0x87] {
            for payload in [vec![tag], [&[tag][..], &body].concat()] {
                let err = Msg::decode(&payload).expect_err("retired frame type");
                assert_eq!(err.kind, RemoteFault::Protocol);
                assert_eq!(err.detail, format!("unknown frame type 0x{tag:02x}"));
                let err = read_frame(&mut raw_frame(&payload).as_slice()).expect_err("typed error");
                assert_eq!(err.kind, RemoteFault::Protocol);
            }
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));
        let wire = frame_of(&Msg::ListRuns);
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

    /// A reader that serves `data`, then EOF, and notes the largest buffer
    /// it was asked to fill.
    struct Stingy {
        data: Vec<u8>,
        pos: usize,
        largest_ask: usize,
    }

    impl Read for Stingy {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_frame_cut_short_is_an_io_error_and_commits_only_what_arrived() {
        let mut data = (64u32 << 20).to_le_bytes().to_vec();
        data.extend([7u8; 10]);
        let mut r = Stingy {
            data,
            pos: 0,
            largest_ask: 0,
        };
        let err = read_frame(&mut r).expect_err("EOF mid-frame");
        assert_eq!(err.kind, RemoteFault::Io, "{err}");
        assert!(
            r.largest_ask < 1 << 20,
            "asked to fill {} bytes of a frame that sent 10",
            r.largest_ask
        );
    }
}
