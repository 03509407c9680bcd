//! The one ordered worker pool, [`ordered_pool`], that per-core `.rrlog`
//! ingest and the sweep engine both run on. Each core's log is an
//! independent stream, so a multi-core recording decodes one whole
//! in-memory stream per job before the replayers start; outside benches,
//! `rr_sim::logdir::RunFiles::decode` is the one caller, for local and
//! `rr-serve` runs alike. Scoped threads, an atomic work cursor and
//! per-slot results bring outputs back in input order and attribute the
//! first failure deterministically whatever the worker interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available parallelism (1 when it cannot be determined):
/// the worker count of every pool — ingest, sweep, threaded replay —
/// when the caller passes 0.
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker count of a pool over `n` jobs: `workers`, or
/// [`host_parallelism`] when it is 0, clamped to `1..=n`.
#[must_use]
pub fn pool_workers(n: usize, workers: usize) -> usize {
    if workers == 0 {
        host_parallelism()
    } else {
        workers
    }
    .min(n.max(1))
}

/// The one ordered worker pool, shared by ingest and the sweep engine:
/// runs `job(0..n)` on [`pool_workers`]`(n, workers)` scoped threads,
/// each taking the next index from an atomic cursor into its own result
/// slot, and returns the results in input order. The lowest-indexed
/// failure wins, whatever the interleaving. With one worker the jobs run
/// on the calling thread and stop at the first failure.
///
/// # Errors
///
/// The error of the lowest-indexed failing job.
pub fn ordered_pool<T, E, F>(n: usize, workers: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = pool_workers(n, workers);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }

    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("pool slot poisoned") = Some(job(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool slot poisoned")
                .expect("every index below the cursor was executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxreplay::wire::{decode_chunked, encode_chunked_with};
    use relaxreplay::{IntervalLog, LogEntry, WireError};
    use rr_mem::CoreId;

    /// A failed stream's index and its wire error.
    #[derive(Debug, PartialEq)]
    struct IngestError {
        index: usize,
        source: WireError,
    }

    /// Decodes every stream on the pool, as ingest does.
    fn decode_logs_parallel(
        streams: &[&[u8]],
        workers: usize,
    ) -> Result<Vec<IntervalLog>, IngestError> {
        ordered_pool(streams.len(), workers, |i| {
            decode_chunked(streams[i]).map_err(|source| IngestError { index: i, source })
        })
    }

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
}
