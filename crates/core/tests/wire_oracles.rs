//! The production codecs checked against the test-only oracles of
//! `rr-reference`: the sliced CRC32 against a bytewise one, the batched
//! chunk decoder against an entry-at-a-time one (clean, bit-flipped and
//! truncated streams), and the flat encoder against its decoder.

use relaxreplay::wire::{self, DEFAULT_CHUNK_BYTES};
use relaxreplay::{IntervalLog, LogEntry};
use rr_mem::CoreId;
use rr_reference::{crc32_reference, decode_chunked_reference, decode_flat, LogDecodeError};

fn sample_log() -> IntervalLog {
    IntervalLog {
        core: CoreId::new(3),
        entries: vec![
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
        ],
    }
}

#[test]
fn crc32_sliced_matches_reference_at_every_length() {
    // Cover the unaligned head/tail paths of the 16-byte slicing loop.
    let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
    for len in 0..data.len() {
        assert_eq!(
            wire::crc32(&data[..len]),
            crc32_reference(&data[..len]),
            "len={len}"
        );
    }
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
}

#[test]
fn fast_decoder_matches_reference_on_clean_streams() {
    let log = sample_log();
    for chunk_bytes in [1, 2, 3, 8, 64, DEFAULT_CHUNK_BYTES] {
        let bytes = wire::encode_chunked_with(&log, chunk_bytes);
        assert_eq!(
            wire::decode_chunked(&bytes),
            decode_chunked_reference(&bytes),
            "chunk_bytes={chunk_bytes}"
        );
        assert_eq!(decode_chunked_reference(&bytes).as_ref(), Ok(&log));
    }
}

#[test]
fn fast_decoder_matches_reference_on_every_byte_flip() {
    let bytes = wire::encode_chunked_with(&sample_log(), 4);
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x40, 0x80] {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= mask;
            assert_eq!(
                wire::decode_chunked(&corrupted),
                decode_chunked_reference(&corrupted),
                "flip at {i} mask {mask:#04x}"
            );
        }
    }
}

#[test]
fn fast_decoder_matches_reference_on_every_truncation() {
    let bytes = wire::encode_chunked_with(&sample_log(), 4);
    for cut in 0..bytes.len() {
        assert_eq!(
            wire::decode_chunked(&bytes[..cut]),
            decode_chunked_reference(&bytes[..cut]),
            "cut at {cut}"
        );
    }
}

#[test]
fn flat_encode_decode_round_trip() {
    let log = sample_log();
    assert_eq!(decode_flat(&log.encode_flat()), Ok(log));
}

/// Byte offsets in the flat encoding at which an entry (or the header)
/// ends — the only places a cut can produce a valid stream.
fn flat_entry_boundaries(log: &IntervalLog) -> Vec<usize> {
    let mut boundaries = vec![1]; // after the core-id header byte
    let mut at = 1usize;
    for e in &log.entries {
        at += match e {
            LogEntry::InorderBlock { .. } => 1 + 4,
            LogEntry::ReorderedLoad { .. } => 1 + 8,
            LogEntry::ReorderedStore { .. } => 1 + 8 + 8 + 4,
            LogEntry::ReorderedRmw { stored, .. } => {
                1 + 8 + 8 + if stored.is_some() { 8 } else { 0 } + 4
            }
            LogEntry::IntervalFrame { .. } => 1 + 2 + 8,
        };
        boundaries.push(at);
    }
    boundaries
}

#[test]
fn flat_truncation_is_detected_at_every_non_boundary_byte() {
    let log = sample_log();
    let bytes = log.encode_flat();
    let boundaries = flat_entry_boundaries(&log);
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    for cut in 1..bytes.len() {
        let result = decode_flat(&bytes[..cut]);
        if boundaries.contains(&cut) {
            let decoded =
                result.unwrap_or_else(|e| panic!("cut at entry boundary {cut} must decode: {e:?}"));
            let n = boundaries.iter().position(|&b| b == cut).unwrap();
            assert_eq!(decoded.entries[..], log.entries[..n], "cut at {cut}");
        } else {
            assert!(
                matches!(result, Err(LogDecodeError::Truncated { .. })),
                "cut mid-entry at {cut} must yield Truncated, got {result:?}"
            );
        }
    }
}

#[test]
fn flat_unknown_tag_is_detected() {
    let mut bytes = sample_log().encode_flat();
    bytes.push(99);
    assert!(matches!(
        decode_flat(&bytes),
        Err(LogDecodeError::UnknownTag { tag: 99, .. })
    ));
}

#[test]
fn wide_offsets_round_trip_in_both_codecs() {
    let log = IntervalLog {
        core: CoreId::new(0),
        entries: vec![
            LogEntry::ReorderedStore {
                addr: 0x100,
                value: 7,
                offset: u32::from(u16::MAX) + 2,
            },
            LogEntry::ReorderedRmw {
                loaded: 1,
                addr: 0x200,
                stored: Some(9),
                offset: u32::MAX,
            },
            LogEntry::IntervalFrame {
                cisn: 1,
                timestamp: 10,
            },
        ],
    };
    assert_eq!(IntervalLog::decode(&log.encode()).expect("chunked"), log);
    assert_eq!(decode_flat(&log.encode_flat()).expect("flat"), log);
}
