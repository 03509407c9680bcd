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
//! reads a whole file and decodes it ([`read_rrlog`]), so ingest of an
//! eight-core run costs roughly one core-log's decode time once the pool
//! is wide enough.

use core::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use relaxreplay::wire::{decode_chunked, read_rrlog};
use relaxreplay::{IntervalLog, WireError};

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

/// Decodes many independent in-memory `.rrlog` streams in parallel,
/// returning the logs in input order (`workers == 0` uses
/// [`default_ingest_workers`]; results are identical for any worker
/// count). A lone stream is decoded whole on the calling thread.
///
/// # Errors
///
/// Returns the lowest-indexed stream's [`WireError`], wrapped with its
/// index.
pub fn decode_logs_parallel(
    streams: &[&[u8]],
    workers: usize,
) -> Result<Vec<IntervalLog>, IngestError> {
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
        read_rrlog(&paths[i]).map_err(|source| IngestError {
            index: i,
            path: Some(paths[i].clone()),
            source,
        })
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
    fn other_header_versions_are_rejected_at_every_worker_count() {
        let log = &logs(1)[0];
        for version in [0u16, 1, 2, 4, 0xFFFF] {
            let mut encoded = encode_chunked_with(log, 48);
            encoded[4..6].copy_from_slice(&version.to_le_bytes());
            for workers in [1, 4] {
                let err =
                    decode_logs_parallel(&[encoded.as_slice()], workers).expect_err("must fail");
                assert_eq!(
                    (err.index, err.source),
                    (0, WireError::UnsupportedVersion { version }),
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
            decode_logs_parallel(&[encoded.as_slice()], 1).expect("decodes"),
            vec![decode_chunked(&encoded).expect("decodes")],
        );
    }

    #[test]
    fn single_stream_ingest_decodes_the_stream_whole() {
        let log = &logs(1)[0];
        let mut encoded = encode_chunked_with(log, 48);
        for workers in [0, 1, 4] {
            let decoded = decode_logs_parallel(&[encoded.as_slice()], workers).expect("decodes");
            assert_eq!(decoded, vec![log.clone()], "workers={workers}");
        }
        // A damaged lone stream fails exactly as the strict decoder does.
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x40;
        let serial_err = decode_chunked(&encoded).expect_err("serial fails");
        for workers in [0, 1, 4] {
            let err = decode_logs_parallel(&[encoded.as_slice()], workers).expect_err("fails");
            assert_eq!((err.index, err.source), (0, serial_err.clone()));
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
