//! Property tests of the `.rrlog` wire format: byte-identical round
//! trips, CRC detection of arbitrary single-byte corruption (reported
//! with the failing chunk's index), and prefix recovery under arbitrary
//! truncation.

use proptest::prelude::*;
use relaxreplay::wire::{self, WireError};
use relaxreplay::{IntervalLog, LogEntry};
use rr_mem::CoreId;
use rr_reference::{decode_chunked_reference, decode_flat};

/// The strict walk's recovered prefix and error, as one value.
fn recover(bytes: &[u8]) -> (IntervalLog, Option<WireError>) {
    let mut log = IntervalLog::new(CoreId::new(0));
    let err = wire::decode_chunked_into(bytes, &mut log, &mut ()).err();
    (log, err)
}

fn entry_strategy() -> impl Strategy<Value = LogEntry> {
    prop_oneof![
        any::<u32>().prop_map(|instrs| LogEntry::InorderBlock { instrs }),
        any::<u64>().prop_map(|value| LogEntry::ReorderedLoad { value }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(addr, value, offset)| {
            LogEntry::ReorderedStore {
                addr,
                value,
                offset,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
            any::<u32>()
        )
            .prop_map(|(loaded, addr, stored, offset)| LogEntry::ReorderedRmw {
                loaded,
                addr,
                stored,
                offset,
            }),
        (any::<u16>(), any::<u64>())
            .prop_map(|(cisn, timestamp)| LogEntry::IntervalFrame { cisn, timestamp }),
    ]
}

/// Payload spans `(start, len)` of every chunk in an encoded stream,
/// reconstructed from the length prefixes.
fn chunk_payload_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 7; // magic + version + core id
    while pos < bytes.len() {
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length prefix")) as usize;
        spans.push((pos + 4, len));
        pos += 4 + len + 4; // length + payload + crc
    }
    spans
}

proptest! {
    #[test]
    fn wire_round_trip_is_byte_identical(
        core in 0u8..32,
        entries in proptest::collection::vec(entry_strategy(), 0..300),
    ) {
        let log = IntervalLog {
            core: CoreId::new(core),
            entries,
        };
        let bytes = wire::encode_chunked(&log);
        let decoded = wire::decode_chunked(&bytes).expect("round trip");
        prop_assert_eq!(&decoded, &log);
        // Re-encoding the decoded log reproduces the exact byte stream.
        prop_assert_eq!(wire::encode_chunked(&decoded), bytes);
    }

    #[test]
    fn any_payload_byte_flip_is_caught_with_its_chunk_index(
        entries in proptest::collection::vec(entry_strategy(), 1..120),
        flip_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let log = IntervalLog {
            core: CoreId::new(1),
            entries,
        };
        // Small chunks so multi-chunk streams are the common case.
        let bytes = wire::encode_chunked_with(&log, 32);
        let spans = chunk_payload_spans(&bytes);
        let payload_total: usize = spans.iter().map(|(_, len)| len).sum();
        let mut remaining = (flip_pick as usize) % payload_total;
        let (damaged_chunk, byte_pos) = spans
            .iter()
            .enumerate()
            .find_map(|(i, &(start, len))| {
                if remaining < len {
                    Some((i, start + remaining))
                } else {
                    remaining -= len;
                    None
                }
            })
            .expect("pick lands inside some chunk");

        let mut bad = bytes.clone();
        bad[byte_pos] ^= 1 << bit;
        match wire::decode_chunked(&bad) {
            Err(WireError::CrcMismatch { chunk, .. }) => {
                prop_assert_eq!(chunk, damaged_chunk);
            }
            other => prop_assert!(false, "expected a CRC mismatch, got {:?}", other),
        }
        // Every chunk before the damaged one still decodes intact, and the
        // recovered entries are a prefix of the original log.
        let (prefix, err) = recover(&bad);
        prop_assert!(err.is_some());
        prop_assert!(
            log.entries.starts_with(&prefix.entries),
            "recovered {} entries are not a prefix of the original {}",
            prefix.entries.len(),
            log.entries.len()
        );
    }

    #[test]
    fn truncation_at_any_byte_recovers_a_clean_prefix(
        entries in proptest::collection::vec(entry_strategy(), 0..120),
        cut_pick in any::<u64>(),
    ) {
        let log = IntervalLog {
            core: CoreId::new(3),
            entries,
        };
        let bytes = wire::encode_chunked_with(&log, 32);
        let cut = (cut_pick as usize) % (bytes.len() + 1);
        // Never panics; whatever decodes is a prefix of the original.
        let (prefix, _err) = recover(&bytes[..cut]);
        prop_assert!(log.entries.starts_with(&prefix.entries));
        if cut == bytes.len() {
            prop_assert_eq!(prefix.entries.len(), log.entries.len());
        }
    }

    /// The batched fast-path decoder is bit-identical to the
    /// entry-at-a-time reference decoder on arbitrary clean logs at
    /// arbitrary chunk sizes.
    #[test]
    fn fast_decoder_matches_reference_on_arbitrary_logs(
        core in 0u8..32,
        entries in proptest::collection::vec(entry_strategy(), 0..300),
        chunk_bytes in 1usize..128,
    ) {
        let log = IntervalLog {
            core: CoreId::new(core),
            entries,
        };
        let bytes = wire::encode_chunked_with(&log, chunk_bytes);
        let fast = wire::decode_chunked(&bytes);
        let reference = decode_chunked_reference(&bytes);
        prop_assert_eq!(fast, reference);
    }

    /// ... and on arbitrarily damaged streams: a bit flip anywhere (header,
    /// framing, payload, CRC) or a truncation at any byte produces the
    /// exact same `Result` — same recovered value or same typed error.
    #[test]
    fn fast_decoder_matches_reference_under_arbitrary_damage(
        entries in proptest::collection::vec(entry_strategy(), 1..120),
        flip_pick in any::<u64>(),
        bit in 0u8..8,
        cut_pick in any::<u64>(),
    ) {
        let log = IntervalLog {
            core: CoreId::new(2),
            entries,
        };
        let bytes = wire::encode_chunked_with(&log, 32);
        let mut bad = bytes.clone();
        bad[(flip_pick as usize) % bytes.len()] ^= 1 << bit;
        prop_assert_eq!(
            wire::decode_chunked(&bad),
            decode_chunked_reference(&bad)
        );
        let cut = (cut_pick as usize) % (bytes.len() + 1);
        prop_assert_eq!(
            wire::decode_chunked(&bytes[..cut]),
            decode_chunked_reference(&bytes[..cut])
        );
        // The lenient skip decoder's chunk table counts exactly the
        // entries it salvaged from the damaged stream.
        let salvage = wire::decode_chunked_skip(&bad);
        prop_assert_eq!(
            salvage.log.entries.len(),
            salvage.chunks.iter().map(|c| c.entries).sum::<usize>()
        );
    }

    #[test]
    fn flat_and_chunked_decode_agree(
        core in 0u8..32,
        entries in proptest::collection::vec(entry_strategy(), 0..150),
    ) {
        let log = IntervalLog {
            core: CoreId::new(core),
            entries,
        };
        let via_flat = decode_flat(&log.encode_flat()).expect("flat codec");
        let via_wire = wire::decode_chunked(&wire::encode_chunked(&log)).expect("wire codec");
        prop_assert_eq!(&via_flat, &log);
        prop_assert_eq!(&via_wire, &log);
    }

    /// Max-length-varint stress: entries whose every field is at or near
    /// the u64/u32 ceiling produce 5–10-byte varints back to back, so at
    /// chunk sizes 1..64 the SWAR word loop hits varints spanning word
    /// *and* chunk boundaries plus truncated final words; the fast decoder
    /// must agree with the reference bit-for-bit, errors included.
    #[test]
    fn swar_decoder_matches_reference_on_maximal_varints(
        lanes in proptest::collection::vec(any::<u8>(), 1..60),
        chunk_bytes in 1usize..64,
        cut_pick in any::<u64>(),
    ) {
        let entries: Vec<LogEntry> = lanes
            .iter()
            .map(|&b| match b % 4 {
                0 => LogEntry::ReorderedLoad { value: u64::MAX - u64::from(b) },
                1 => LogEntry::ReorderedStore {
                    addr: u64::MAX,
                    value: (1u64 << 56) - 1 - u64::from(b), // longest 8-byte varint
                    offset: u32::MAX,
                },
                2 => LogEntry::ReorderedRmw {
                    loaded: 1u64 << 56, // shortest 9-byte varint
                    addr: u64::MAX / 2,
                    stored: Some(u64::MAX),
                    offset: u32::MAX - u32::from(b),
                },
                _ => LogEntry::IntervalFrame {
                    cisn: u16::MAX,
                    timestamp: u64::MAX - u64::from(b), // huge first delta
                },
            })
            .collect();
        let log = IntervalLog { core: CoreId::new(0), entries };
        let bytes = wire::encode_chunked_with(&log, chunk_bytes);
        prop_assert_eq!(
            wire::decode_chunked(&bytes),
            decode_chunked_reference(&bytes)
        );
        let cut = (cut_pick as usize) % (bytes.len() + 1);
        prop_assert_eq!(
            wire::decode_chunked(&bytes[..cut]),
            decode_chunked_reference(&bytes[..cut])
        );
    }

    /// Clean, bit-flipped and truncated streams decode identically through
    /// the fast and reference decoders, and the clean stream round-trips.
    #[test]
    fn all_wire_versions_agree_bit_for_bit_including_errors(
        entries in proptest::collection::vec(entry_strategy(), 1..100),
        flip_pick in any::<u64>(),
        bit in 0u8..8,
        cut_pick in any::<u64>(),
    ) {
        let log = IntervalLog { core: CoreId::new(5), entries };
        let bytes = wire::encode_chunked_with(&log, 32);
        prop_assert_eq!(
            wire::decode_chunked(&bytes).expect("clean stream decodes"),
            log
        );
        prop_assert_eq!(
            wire::decode_chunked(&bytes),
            decode_chunked_reference(&bytes)
        );
        let mut bad = bytes.clone();
        bad[(flip_pick as usize) % bytes.len()] ^= 1 << bit;
        prop_assert_eq!(
            wire::decode_chunked(&bad),
            decode_chunked_reference(&bad)
        );
        let cut = (cut_pick as usize) % (bytes.len() + 1);
        prop_assert_eq!(
            wire::decode_chunked(&bytes[..cut]),
            decode_chunked_reference(&bytes[..cut])
        );
    }

    /// `read_rrlog` (the mmap-backed file path every tool uses) returns
    /// exactly `decode_chunked`'s `Result` on arbitrarily damaged files.
    #[test]
    fn mapped_source_matches_memory_decoder_under_damage(
        entries in proptest::collection::vec(entry_strategy(), 1..80),
        flip_pick in any::<u64>(),
        bit in 0u8..8,
        damage in 0u8..3,
        case in any::<u64>(),
    ) {
        let log = IntervalLog { core: CoreId::new(6), entries };
        let mut bytes = wire::encode_chunked_with(&log, 32);
        match damage {
            0 => {}
            1 => {
                let p = (flip_pick as usize) % bytes.len();
                bytes[p] ^= 1 << bit;
            }
            _ => {
                let cut = (flip_pick as usize) % (bytes.len() + 1);
                bytes.truncate(cut);
            }
        }
        let dir = std::env::temp_dir().join("rr_prop_mmap");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("case-{case}.rrlog"));
        std::fs::write(&path, &bytes).expect("write");

        prop_assert_eq!(wire::read_rrlog(&path), wire::decode_chunked(&bytes));
        let _ = std::fs::remove_file(&path);
    }

    /// The framing-only `chunk_spans` walk and the lenient decoder see the
    /// same chunks on any bit-flipped or truncated stream: equal offsets
    /// and payload sizes, and both stop at the same chunk index.
    #[test]
    fn chunk_spans_frame_exactly_the_salvaged_chunks(
        entries in proptest::collection::vec(entry_strategy(), 1..150),
        chunk_bytes in 1usize..96,
        pick in any::<u64>(),
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        let log = IntervalLog { core: CoreId::new(7), entries };
        let mut bytes = wire::encode_chunked_with(&log, chunk_bytes);
        if truncate {
            bytes.truncate((pick as usize) % (bytes.len() + 1));
        } else {
            let p = (pick as usize) % bytes.len();
            bytes[p] ^= 1 << bit;
        }
        let salvage = wire::decode_chunked_skip(&bytes);
        match wire::chunk_spans(&bytes) {
            Ok((core, version, spans, trunc)) => {
                prop_assert_eq!(core, salvage.log.core);
                prop_assert_eq!(version, wire::VERSION);
                let framed: Vec<(usize, usize)> =
                    spans.iter().map(|s| (s.offset, s.payload.len())).collect();
                let salvaged: Vec<(usize, usize)> = salvage
                    .chunks
                    .iter()
                    .map(|c| (c.offset, c.payload_bytes))
                    .collect();
                prop_assert_eq!(framed, salvaged);
                // A cut frame stops both walks at the same chunk, and the
                // lenient walk remembers it unless an earlier chunk failed.
                if let Some(WireError::Truncated { chunk }) = trunc {
                    prop_assert_eq!(chunk, salvage.chunks.len());
                    prop_assert!(salvage.err.is_some());
                } else {
                    prop_assert!(trunc.is_none());
                }
            }
            Err(e) => {
                // Header damage: nothing is framed or salvaged.
                prop_assert!(salvage.chunks.is_empty());
                prop_assert_eq!(salvage.err, Some(e));
            }
        }
    }
}
