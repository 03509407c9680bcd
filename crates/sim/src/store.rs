//! The [`RunStore`] abstraction: one API for every place a recorded run
//! can live.
//!
//! PR 2 gave the experiments durable run directories (`rr_sim::logdir`);
//! the rr-serve backend adds a second, network-reachable home for the
//! same artifacts. This module is the seam between the two: a
//! [`RunStore`] saves, loads, lists, and stats complete recorded runs,
//! and everything above it — `--save-logs`, `--replay-from`, `rr-check`,
//! `rr-inspect` — speaks the trait, so a plain directory path and an
//! `rr://host:port/run` URL are interchangeable.
//!
//! * [`LocalStore`] wraps the `logdir` run-directory format.
//! * `RemoteStore` (in the `rr-serve` crate, which depends on this one)
//!   speaks the RRSP/v1 protocol to a running `rr-serve`.
//! * [`StoreSpec`] is the URL parser: pure string classification with no
//!   networking, so `rr-sim` stays free of any transport dependency.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::logdir::{self, LogDirError, SavedRun};
use crate::machine::RunResult;

/// Where a run store lives, parsed from a CLI argument or environment
/// variable: a filesystem path, or an `rr://host:port[/run]` URL naming
/// an `rr-serve` backend (optionally scoped to one run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreSpec {
    /// A local `--save-logs`-style root directory.
    Local(PathBuf),
    /// A remote `rr-serve` backend at `addr` (`host:port`), optionally
    /// scoped to a single run name.
    Remote {
        /// The `host:port` to connect to.
        addr: String,
        /// A single run within the store, when the URL carried a path
        /// component (`rr://host:port/run-name`).
        run: Option<String>,
    },
}

impl StoreSpec {
    /// Parses a store spec: anything starting with `rr://` is a remote
    /// URL (`rr://host:port` for a whole store, `rr://host:port/name`
    /// for one run); everything else is a local directory path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadSpec`] for malformed URLs: a missing
    /// `host:port`, an empty or nested run path, or an unusable run name.
    pub fn parse(spec: &str) -> Result<StoreSpec, StoreError> {
        let Some(rest) = spec.strip_prefix("rr://") else {
            if spec.is_empty() {
                return Err(StoreError::BadSpec("empty store spec".to_string()));
            }
            return Ok(StoreSpec::Local(PathBuf::from(spec)));
        };
        let (addr, run) = match rest.split_once('/') {
            Some((addr, run)) => (addr, Some(run)),
            None => (rest, None),
        };
        if addr.is_empty() || !addr.contains(':') {
            return Err(StoreError::BadSpec(format!(
                "{spec:?}: rr:// URLs need host:port"
            )));
        }
        let run = match run {
            None | Some("") => None,
            Some(name) => {
                if name.contains('/') {
                    return Err(StoreError::BadSpec(format!(
                        "{spec:?}: run names cannot be nested paths"
                    )));
                }
                logdir::check_name(name).map_err(|_| {
                    StoreError::BadSpec(format!("{spec:?}: unusable run name {name:?}"))
                })?;
                Some(name.to_string())
            }
        };
        Ok(StoreSpec::Remote {
            addr: addr.to_string(),
            run,
        })
    }

    /// The run name carried by the spec, if any (`rr://host:port/name`).
    /// Local paths never scope to a single run.
    #[must_use]
    pub fn run(&self) -> Option<&str> {
        match self {
            StoreSpec::Local(_) => None,
            StoreSpec::Remote { run, .. } => run.as_deref(),
        }
    }
}

impl fmt::Display for StoreSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreSpec::Local(p) => write!(f, "{}", p.display()),
            StoreSpec::Remote { addr, run: None } => write!(f, "rr://{addr}"),
            StoreSpec::Remote {
                addr,
                run: Some(run),
            } => write!(f, "rr://{addr}/{run}"),
        }
    }
}

/// The category of a remote-store failure, preserved across the wire so
/// callers can distinguish connectivity problems from data corruption
/// without parsing message strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteFault {
    /// The TCP connection could not be established.
    Connect,
    /// The connection died mid-conversation (send/receive failure).
    Io,
    /// A frame failed to parse, its CRC mismatched, or the peer spoke an
    /// unexpected message.
    Protocol,
    /// The peer's RRSP version is not supported.
    UnsupportedVersion,
    /// The named run does not exist in the store.
    UnknownRun,
    /// A run or variant name was rejected by the server.
    BadName,
    /// The request conflicted with the store's state (e.g. sealing a run
    /// that already exists with different contents).
    Conflict,
    /// A content-addressed blob failed its checksum on the server — the
    /// stored data is damaged.
    CorruptBlob,
    /// The run's catalog is missing, malformed, or inconsistent.
    Catalog,
    /// The server reported an internal failure.
    Server,
}

impl RemoteFault {
    /// Stable lowercase name (used in wire frames and error messages).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RemoteFault::Connect => "connect",
            RemoteFault::Io => "io",
            RemoteFault::Protocol => "protocol",
            RemoteFault::UnsupportedVersion => "unsupported-version",
            RemoteFault::UnknownRun => "unknown-run",
            RemoteFault::BadName => "bad-name",
            RemoteFault::Conflict => "conflict",
            RemoteFault::CorruptBlob => "corrupt-blob",
            RemoteFault::Catalog => "catalog",
            RemoteFault::Server => "server",
        }
    }
}

/// Errors from any [`RunStore`] implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A local run-directory failure.
    Local(LogDirError),
    /// A remote store failure, categorized by [`RemoteFault`].
    Remote {
        /// What kind of failure this is.
        kind: RemoteFault,
        /// Human-readable detail (includes the address or object name).
        detail: String,
    },
    /// The store spec (path or `rr://` URL) was unparseable.
    BadSpec(String),
}

impl StoreError {
    /// Constructs a remote failure.
    #[must_use]
    pub fn remote(kind: RemoteFault, detail: impl Into<String>) -> Self {
        StoreError::Remote {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Local(e) => write!(f, "{e}"),
            StoreError::Remote { kind, detail } => {
                write!(f, "remote store error ({}): {detail}", kind.name())
            }
            StoreError::BadSpec(d) => write!(f, "bad store spec: {d}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Local(e) => Some(e),
            StoreError::Remote { .. } | StoreError::BadSpec(_) => None,
        }
    }
}

impl From<LogDirError> for StoreError {
    fn from(e: LogDirError) -> Self {
        StoreError::Local(e)
    }
}

/// Per-variant sizing of a stored run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantStat {
    /// The variant's label.
    pub label: String,
    /// Chunks across all cores of the variant.
    pub chunks: u64,
    /// `.rrlog` payload-carrying bytes across all cores (headers and
    /// chunk framing included — the size of the materialized files).
    pub log_bytes: u64,
    /// Whether the variant carries an `ordering.bin` partial-order
    /// sidecar (parallel replay).
    pub has_ordering: bool,
}

/// Store-wide dedup accounting, reported by content-addressed backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DedupStat {
    /// Distinct chunk blobs on disk.
    pub blobs: u64,
    /// Bytes those blobs occupy.
    pub blob_bytes: u64,
    /// Chunk bytes the catalogs reference (what the same runs would
    /// occupy without dedup).
    pub logical_bytes: u64,
}

impl DedupStat {
    /// Logical-over-physical ratio: 1.0 means no sharing, 2.0 means every
    /// blob is referenced twice on average.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.blob_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.blob_bytes as f64
    }
}

/// What a store knows about one run without decoding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStat {
    /// The run's name.
    pub name: String,
    /// Recorded core count.
    pub cores: usize,
    /// Per-variant sizing, in recording order.
    pub variants: Vec<VariantStat>,
    /// Size of the ground-truth sidecar.
    pub truth_bytes: u64,
    /// Store-wide dedup accounting (content-addressed backends only;
    /// `None` for plain run directories).
    pub dedup: Option<DedupStat>,
}

/// A durable home for recorded runs: save, load, list, stat.
///
/// Implementations must be usable from multiple threads through `&self`
/// (the sweep engine saves from worker threads); hence the `Sync + Send`
/// bounds.
pub trait RunStore: Sync + Send {
    /// A human-readable identity for messages (`results/logs` or
    /// `rr://127.0.0.1:7878`).
    fn describe(&self) -> String;

    /// Saves one recorded run under `name`. Returns the logical `.rrlog`
    /// bytes the run encodes to (before any dedup).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on unusable names, I/O, or transport
    /// failures.
    fn save_run(&self, name: &str, result: &RunResult) -> Result<u64, StoreError>;

    /// Loads a complete run back, decoding on the default-width ingest
    /// pool.
    ///
    /// # Errors
    ///
    /// As [`RunStore::load_run_with`].
    fn load_run(&self, name: &str) -> Result<SavedRun, StoreError> {
        self.load_run_with(name, 0)
    }

    /// As [`RunStore::load_run`] with an explicit ingest worker count
    /// (0 = the host's available parallelism). The result is identical
    /// for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the run is missing, any log fails to
    /// decode, or the transport fails. Corruption surfaces as a typed
    /// error, never a panic.
    fn load_run_with(&self, name: &str, workers: usize) -> Result<SavedRun, StoreError>;

    /// Names of every sealed run, sorted for determinism.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the store cannot be enumerated.
    fn list_runs(&self) -> Result<Vec<String>, StoreError>;

    /// Sizing and integrity summary for one run. Content-addressed
    /// backends verify the referenced blobs, so a damaged object surfaces
    /// here as [`RemoteFault::CorruptBlob`] rather than at replay time.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on unknown runs, damaged catalogs or blobs,
    /// or transport failures.
    fn stat_run(&self, name: &str) -> Result<RunStat, StoreError>;
}

/// The filesystem-backed [`RunStore`]: a root directory of `logdir` run
/// directories, exactly what `--save-logs <dir>` has always produced.
#[derive(Clone, Debug)]
pub struct LocalStore {
    root: PathBuf,
}

impl LocalStore {
    /// A store rooted at `root`. The directory is created lazily on the
    /// first save.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LocalStore { root: root.into() }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl RunStore for LocalStore {
    fn describe(&self) -> String {
        self.root.display().to_string()
    }

    fn save_run(&self, name: &str, result: &RunResult) -> Result<u64, StoreError> {
        Ok(logdir::save_run_impl(&self.root, name, result)?)
    }

    fn load_run_with(&self, name: &str, workers: usize) -> Result<SavedRun, StoreError> {
        Ok(logdir::load_run_impl(&self.root, name, workers)?)
    }

    fn list_runs(&self) -> Result<Vec<String>, StoreError> {
        Ok(logdir::list_runs_impl(&self.root)?)
    }

    fn stat_run(&self, name: &str) -> Result<RunStat, StoreError> {
        logdir::check_name(name)?;
        let run_dir = self.root.join(name);
        let (cores, labels) = logdir::read_manifest(&run_dir)?;
        let mut variants = Vec::new();
        for label in labels {
            let vdir = run_dir.join(&label);
            let mut chunks = 0u64;
            let mut log_bytes = 0u64;
            for k in 0..cores {
                let path = vdir.join(format!("core{k}.rrlog"));
                let bytes = std::fs::read(&path)
                    .map_err(|e| LogDirError::Io(format!("{}: {e}", path.display())))?;
                let (_, _, spans, damage) =
                    relaxreplay::wire::chunk_spans(&bytes).map_err(LogDirError::Wire)?;
                if let Some(e) = damage {
                    return Err(StoreError::Local(LogDirError::Wire(e)));
                }
                chunks += spans.len() as u64;
                log_bytes += bytes.len() as u64;
            }
            variants.push(VariantStat {
                label,
                chunks,
                log_bytes,
                has_ordering: vdir.join("ordering.bin").is_file(),
            });
        }
        let truth_bytes = std::fs::metadata(run_dir.join("truth.bin"))
            .map(|m| m.len())
            .unwrap_or(0);
        Ok(RunStat {
            name: name.to_string(),
            cores,
            variants,
            truth_bytes,
            dedup: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_local_paths() {
        assert_eq!(
            StoreSpec::parse("results/logs").unwrap(),
            StoreSpec::Local(PathBuf::from("results/logs"))
        );
        assert!(StoreSpec::parse("").is_err());
    }

    #[test]
    fn spec_parses_remote_urls() {
        assert_eq!(
            StoreSpec::parse("rr://127.0.0.1:7878").unwrap(),
            StoreSpec::Remote {
                addr: "127.0.0.1:7878".to_string(),
                run: None,
            }
        );
        assert_eq!(
            StoreSpec::parse("rr://host:1/fft").unwrap(),
            StoreSpec::Remote {
                addr: "host:1".to_string(),
                run: Some("fft".to_string()),
            }
        );
        // A trailing slash scopes to the whole store.
        assert_eq!(StoreSpec::parse("rr://host:1/").unwrap().run(), None);
    }

    #[test]
    fn spec_rejects_malformed_urls() {
        for bad in [
            "rr://",
            "rr://hostonly",
            "rr://host:1/a/b",
            "rr://host:1/..",
            "rr://host:1/bad name",
        ] {
            assert!(
                matches!(StoreSpec::parse(bad), Err(StoreError::BadSpec(_))),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn spec_displays_round_trip() {
        for s in ["results/logs", "rr://h:1", "rr://h:1/fft"] {
            assert_eq!(StoreSpec::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn dedup_ratio_handles_zero() {
        let d = DedupStat {
            blobs: 0,
            blob_bytes: 0,
            logical_bytes: 0,
        };
        assert!((d.ratio() - 1.0).abs() < f64::EPSILON);
        let d = DedupStat {
            blobs: 1,
            blob_bytes: 100,
            logical_bytes: 300,
        };
        assert!((d.ratio() - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn remote_error_displays_kind() {
        let e = StoreError::remote(RemoteFault::CorruptBlob, "object 1234 damaged");
        assert_eq!(
            e.to_string(),
            "remote store error (corrupt-blob): object 1234 damaged"
        );
    }
}
