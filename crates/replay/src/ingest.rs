//! Parallel per-core `.rrlog` ingest.
//!
//! Each core's log is an independent stream — nothing about decoding core
//! *k* depends on core *j* — so a multi-core recording saved with
//! `--save-logs` can be decoded on a worker pool before the replayers
//! start consuming. The pool mirrors the sweep engine's shape (scoped
//! threads, an atomic work cursor, per-slot results) so outputs come back
//! in input order and the first failure is attributed deterministically
//! regardless of worker interleaving.
//!
//! Decoding is the batched fast path of `relaxreplay::wire`: each worker
//! maps a whole file and decodes it zero-copy, so ingest of an
//! eight-core run costs roughly one core-log's decode time once the pool
//! is wide enough.
//!
//! Chunks are self-contained, so a *single* large stream can also be
//! decoded in parallel: [`decode_chunked_parallel`] walks the
//! chunk framing once (no payload work), partitions contiguous chunk
//! ranges balanced by payload bytes, and decodes the ranges on scoped
//! threads. The result is bit-identical to a sequential decode, and the
//! lowest-indexed chunk's error wins deterministically.

use core::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use relaxreplay::wire::{chunk_spans, decode_chunked, decode_chunked_range};
use relaxreplay::{IntervalLog, LogEntry, MappedBytes, WireError};

/// An ingest failure, attributed to the stream that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestError {
    /// Index of the failing stream in the input order.
    pub index: usize,
    /// Path of the failing file (`None` for in-memory streams).
    pub path: Option<PathBuf>,
    /// The underlying wire failure.
    pub source: WireError,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(p) => write!(f, "log {} ({}): {}", self.index, p.display(), self.source),
            None => write!(f, "log {}: {}", self.index, self.source),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The ingest worker count to use when the caller does not care: the
/// host's available parallelism.
#[must_use]
pub fn default_ingest_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `job(0..n)` across `workers` scoped threads, returning results in
/// input order; the lowest-indexed failure wins deterministically.
fn ingest_pool<T, F>(n: usize, workers: usize, job: F) -> Result<Vec<T>, IngestError>
where
    T: Send,
    F: Fn(usize) -> Result<T, IngestError> + Sync,
{
    let workers = if workers == 0 {
        default_ingest_workers()
    } else {
        workers
    }
    .min(n.max(1));

    if workers <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }

    let slots: Vec<Mutex<Option<Result<T, IngestError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("ingest slot poisoned") = Some(job(i));
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.push(
            slot.into_inner()
                .expect("ingest slot poisoned")
                .expect("every index below the cursor was executed")?,
        );
    }
    Ok(out)
}

/// Splits `spans` into at most `parts` contiguous ranges balanced by
/// payload bytes. Every range is non-empty and the ranges tile
/// `0..spans.len()` in order.
fn partition_spans(spans: &[relaxreplay::ChunkSpan], parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.min(spans.len()).max(1);
    let total: usize = spans.iter().map(|s| s.payload_bytes).sum();
    let per = total / parts + 1;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, span) in spans.iter().enumerate() {
        acc += span.payload_bytes;
        if acc >= per && ranges.len() + 1 < parts && i + 1 < spans.len() {
            ranges.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    ranges.push((start, spans.len()));
    ranges
}

/// Decodes one `.rrlog` stream with `workers` threads splitting the chunk
/// ranges (`workers == 0` uses [`default_ingest_workers`]).
///
/// Single-worker calls, single-chunk streams, and streams whose framing
/// walk already reports damage fall back to the sequential
/// [`decode_chunked`], so the result (entries *and* error) is identical
/// to a sequential decode for every worker count.
///
/// # Errors
///
/// Exactly the errors of [`decode_chunked`] on the same stream: the
/// lowest-indexed chunk's failure wins regardless of which worker hit it.
pub fn decode_chunked_parallel(bytes: &[u8], workers: usize) -> Result<IntervalLog, WireError> {
    let workers = if workers == 0 {
        default_ingest_workers()
    } else {
        workers
    };
    let (core, _, spans, walk_err) = chunk_spans(bytes)?;
    if workers <= 1 || spans.len() < 2 || walk_err.is_some() {
        return decode_chunked(bytes);
    }

    let ranges = partition_spans(&spans, workers);
    let results: Vec<Result<Vec<LogEntry>, WireError>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                let spans = &spans[start..end];
                s.spawn(move || {
                    let mut out = Vec::new();
                    decode_chunked_range(bytes, spans, start, &mut out).map(|()| out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("range decode worker panicked"))
            .collect()
    });

    // Ranges are contiguous and ascending, so the first failing range in
    // order holds the lowest-indexed failing chunk.
    let mut entries =
        Vec::with_capacity(results.iter().map(|r| r.as_ref().map_or(0, Vec::len)).sum());
    for r in results {
        entries.append(&mut r?);
    }
    Ok(IntervalLog { core, entries })
}

/// Decodes many independent in-memory `.rrlog` streams in parallel,
/// returning the logs in input order (`workers == 0` uses
/// [`default_ingest_workers`]; results are identical for any worker
/// count).
///
/// A single input stream is instead range-partitioned *within* the
/// stream via [`decode_chunked_parallel`], so the worker budget is not
/// wasted when one core's log dwarfs the rest of the ingest.
///
/// # Errors
///
/// Returns the lowest-indexed stream's [`WireError`], wrapped with its
/// index.
pub fn decode_logs_parallel(
    streams: &[&[u8]],
    workers: usize,
) -> Result<Vec<IntervalLog>, IngestError> {
    if streams.len() == 1 {
        return decode_chunked_parallel(streams[0], workers)
            .map(|log| vec![log])
            .map_err(|source| IngestError {
                index: 0,
                path: None,
                source,
            });
    }
    ingest_pool(streams.len(), workers, |i| {
        decode_chunked(streams[i]).map_err(|source| IngestError {
            index: i,
            path: None,
            source,
        })
    })
}

/// Reads and decodes many `.rrlog` files in parallel, returning the logs
/// in input order — the ingest path for `--replay-from` directories and
/// `rr-inspect check` over saved runs.
///
/// # Errors
///
/// Returns the lowest-indexed file's failure (I/O mapped to
/// [`WireError::Io`]), wrapped with its index and path.
pub fn read_rrlogs_parallel(
    paths: &[PathBuf],
    workers: usize,
) -> Result<Vec<IntervalLog>, IngestError> {
    ingest_pool(paths.len(), workers, |i| {
        let wrap = |source| IngestError {
            index: i,
            path: Some(paths[i].clone()),
            source,
        };
        // Zero-copy where the platform allows: mmap the file instead of
        // staging it through a heap buffer (plain-read fallback inside).
        let bytes = MappedBytes::open(&paths[i]).map_err(wrap)?;
        decode_chunked(&bytes).map_err(wrap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxreplay::wire::encode_chunked_with;
    use relaxreplay::LogEntry;
    use rr_mem::CoreId;

    fn logs(n: usize) -> Vec<IntervalLog> {
        (0..n)
            .map(|k| {
                let mut log = IntervalLog::new(CoreId::new(k as u8));
                for i in 0..200u64 {
                    log.entries.push(LogEntry::InorderBlock {
                        instrs: 1 + (i + k as u64) as u32 % 50,
                    });
                    log.entries.push(LogEntry::IntervalFrame {
                        cisn: i as u16,
                        timestamp: i * 7 + k as u64,
                    });
                }
                log
            })
            .collect()
    }

    #[test]
    fn parallel_decode_matches_serial_for_any_worker_count() {
        let logs = logs(8);
        let encoded: Vec<Vec<u8>> = logs.iter().map(|l| encode_chunked_with(l, 64)).collect();
        let streams: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        for workers in [0, 1, 2, 8, 16] {
            let decoded = decode_logs_parallel(&streams, workers).expect("decodes");
            assert_eq!(decoded, logs, "workers={workers}");
        }
    }

    #[test]
    fn first_failing_stream_wins_deterministically() {
        let logs = logs(6);
        let mut encoded: Vec<Vec<u8>> = logs.iter().map(|l| encode_chunked_with(l, 64)).collect();
        // Corrupt streams 2 and 4; index 2 must always be reported.
        let n2 = encoded[2].len();
        encoded[2][n2 - 1] ^= 0x10;
        let n4 = encoded[4].len();
        encoded[4][n4 - 1] ^= 0x10;
        let streams: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        for workers in [1, 2, 8] {
            let err = decode_logs_parallel(&streams, workers).expect_err("must fail");
            assert_eq!(err.index, 2, "workers={workers}");
            assert!(matches!(err.source, WireError::CrcMismatch { .. }));
        }
    }

    #[test]
    fn range_parallel_decode_is_bit_identical_to_serial() {
        let log = &logs(1)[0];
        let encoded = encode_chunked_with(log, 48);
        let serial = decode_chunked(&encoded).expect("serial decodes");
        for workers in [0, 1, 2, 3, 8, 64] {
            let par = decode_chunked_parallel(&encoded, workers).expect("parallel decodes");
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn range_parallel_decode_reports_the_same_error_as_serial() {
        let log = &logs(1)[0];
        let mut encoded = encode_chunked_with(log, 48);
        // Corrupt a payload byte in the middle of the stream.
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x40;
        let serial_err = decode_chunked(&encoded).expect_err("serial fails");
        for workers in [2, 4, 8] {
            let par_err = decode_chunked_parallel(&encoded, workers).expect_err("parallel fails");
            assert_eq!(par_err, serial_err, "workers={workers}");
        }
    }

    #[test]
    fn other_header_versions_are_rejected_at_every_worker_count() {
        let log = &logs(1)[0];
        for version in [0u16, 1, 2, 4, 0xFFFF] {
            let mut encoded = encode_chunked_with(log, 48);
            encoded[4..6].copy_from_slice(&version.to_le_bytes());
            for workers in [1, 4] {
                assert_eq!(
                    decode_chunked_parallel(&encoded, workers),
                    Err(WireError::UnsupportedVersion { version }),
                    "version={version} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn single_worker_parallel_decode_equals_direct_decode() {
        let log = &logs(1)[0];
        let encoded = encode_chunked_with(log, 48);
        assert_eq!(
            decode_chunked_parallel(&encoded, 1).expect("decodes"),
            decode_chunked(&encoded).expect("decodes"),
        );
    }

    #[test]
    fn single_stream_ingest_partitions_within_the_stream() {
        let log = &logs(1)[0];
        let encoded = encode_chunked_with(log, 48);
        let streams = [encoded.as_slice()];
        for workers in [0, 1, 4] {
            let decoded = decode_logs_parallel(&streams, workers).expect("decodes");
            assert_eq!(decoded.len(), 1);
            assert_eq!(&decoded[0], log, "workers={workers}");
        }
    }

    #[test]
    fn span_partitions_tile_and_are_nonempty() {
        let log = &logs(1)[0];
        let encoded = encode_chunked_with(log, 48);
        let (_, _, spans, walk_err) = relaxreplay::chunk_spans(&encoded).expect("spans");
        assert!(walk_err.is_none());
        assert!(spans.len() > 2, "need a multi-chunk stream for this test");
        for parts in 1..=spans.len() + 2 {
            let ranges = partition_spans(&spans, parts);
            assert!(ranges.len() <= parts.max(1));
            let mut next = 0usize;
            for &(start, end) in &ranges {
                assert_eq!(start, next, "parts={parts}");
                assert!(end > start, "parts={parts}: empty range");
                next = end;
            }
            assert_eq!(next, spans.len(), "parts={parts}");
        }
    }

    #[test]
    fn file_ingest_round_trips_and_attributes_errors() {
        let dir = std::env::temp_dir().join("rr_ingest_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let logs = logs(4);
        let mut paths = Vec::new();
        for (k, log) in logs.iter().enumerate() {
            let path = dir.join(format!("core{k}.rrlog"));
            std::fs::write(&path, log.encode()).expect("writes");
            paths.push(path);
        }
        let decoded = read_rrlogs_parallel(&paths, 4).expect("decodes");
        assert_eq!(decoded, logs);

        paths.push(dir.join("missing.rrlog"));
        let err = read_rrlogs_parallel(&paths, 4).expect_err("must fail");
        assert_eq!(err.index, 4);
        assert!(matches!(err.source, WireError::Io(_)));
        assert!(err.to_string().contains("missing.rrlog"));
    }
}
