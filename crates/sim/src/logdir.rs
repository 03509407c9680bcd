//! Durable run artifacts, and the one codec between a recorded run and
//! its files: [`RunFiles::encode`] turns a [`RunResult`] into the bytes
//! of its files, and [`RunFiles::decode`] turns those bytes back into a
//! [`SavedRun`], checking that every piece agrees on the core count.
//! Both stores only move these bytes: a local store writes them to a run
//! directory ([`write_run_dir`]) and reads them back ([`RunFiles::read`]);
//! `rr-serve` stores them as chunks and ships them back in one `RunBundle`.
//!
//! Layout under the root directory passed to `--save-logs`:
//!
//! ```text
//! <dir>/<run-name>/
//!     manifest.txt            # lines: "cores <n>" then one variant label per line
//!     truth.bin               # RecordedExecution sidecar (CRC32-protected)
//!     <variant-label>/core<k>.rrlog
//!     <variant-label>/ordering.bin   # interval partial order (optional, CRC32)
//! ```
//!
//! The `ordering.bin` sidecar carries the recorded interval partial order
//! ([`IntervalOrdering`]) that enables parallel replay; runs saved without
//! it load fine and replay in the recorded total order. Version 2 holds
//! only what the `.rrlog` files do not ([`encode_ordering`]); version 1,
//! which repeated every frame timestamp, is refused.
//!
//! Both sidecars are sealed envelopes of the shared codec in
//! `relaxreplay::wire` ([`wire::seal`], [`wire::open`]) and are read
//! through its bounded [`wire::Reader`]: this module checks no magic,
//! version or CRC itself.
//!
//! Run and variant names become path components verbatim, so they must not
//! contain separators; [`check_name`] rejects names that do.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use relaxreplay::wire::{self, decode_chunked, write_varint};
use relaxreplay::{codec_message, IntervalLog, IntervalOrdering, WireError};
use rr_isa::{MemImage, WORD_BYTES};
use rr_mem::CoreId;
use rr_replay::{ordered_pool, RecordedExecution};

use crate::machine::RunResult;

/// Magic tag opening a `truth.bin` ground-truth sidecar.
const TRUTH_MAGIC: [u8; 4] = *b"RRTR";
/// Sidecar format version.
const TRUTH_VERSION: u16 = 1;
/// Magic tag opening an `ordering.bin` interval-order sidecar.
const ORDER_MAGIC: [u8; 4] = *b"RROD";
/// Ordering sidecar format version.
const ORDER_VERSION: u16 = 2;

/// Errors from saving or loading a run directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogDirError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// An `.rrlog` file failed to decode: the variant's label, the core
    /// whose log it is, and the wire failure.
    Wire {
        /// The variant's label (its subdirectory).
        label: String,
        /// The core whose log failed.
        core: usize,
        /// The underlying wire failure.
        source: WireError,
    },
    /// The manifest or a sidecar is malformed, or the run's files
    /// disagree on its core count.
    Malformed(&'static str),
    /// A run or variant name is unusable as a path component.
    BadName(String),
}

impl fmt::Display for LogDirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogDirError::Io(m) => write!(f, "log dir I/O failed: {m}"),
            LogDirError::Wire {
                label,
                core,
                source,
            } => write!(f, "{label}/core{core}.rrlog failed to decode: {source}"),
            LogDirError::Malformed(d) => write!(f, "run directory malformed: {d}"),
            LogDirError::BadName(n) => {
                write!(f, "name {n:?} cannot be used as a path component")
            }
        }
    }
}

impl std::error::Error for LogDirError {}

fn io_err(path: &Path, e: &std::io::Error) -> LogDirError {
    LogDirError::Io(format!("{}: {e}", path.display()))
}

/// Validates a run or variant name as a safe path component (non-empty,
/// ASCII alphanumerics plus `- _ . @`, not `.`/`..`). The same rule
/// applies to local run directories and to remote store keys, so a run
/// saved locally can always be streamed to an `rr-serve` backend and back.
///
/// # Errors
///
/// Returns [`LogDirError::BadName`] when the name is unusable.
pub fn check_name(name: &str) -> Result<(), LogDirError> {
    let ok = !name.is_empty()
        && name != "."
        && name != ".."
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '@'));
    if ok {
        Ok(())
    } else {
        Err(LogDirError::BadName(name.to_string()))
    }
}

/// One recorder variant loaded back from disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedVariant {
    /// The variant's label (e.g. `Opt-4K`), as recorded in the manifest.
    pub label: String,
    /// Per-core interval logs, index = core id.
    pub logs: Vec<IntervalLog>,
    /// Per-core interval partial order, when the run was saved with an
    /// `ordering.bin` sidecar. `None` for runs saved by older versions —
    /// the threaded engine replays them in the recorded total order
    /// ([`crate::Engine::Threaded`]).
    pub ordering: Option<Vec<IntervalOrdering>>,
}

/// A complete recorded run loaded back from disk.
#[derive(Clone, Debug)]
pub struct SavedRun {
    /// The run's name (its subdirectory).
    pub name: String,
    /// Every saved recorder variant, in recording order.
    pub variants: Vec<SavedVariant>,
    /// Ground truth for replay verification.
    pub recorded: RecordedExecution,
}

impl SavedRun {
    /// The variant with the given label, if present.
    #[must_use]
    pub fn variant(&self, label: &str) -> Option<&SavedVariant> {
        self.variants.iter().find(|v| v.label == label)
    }
}

/// One recorder variant of a run directory, as the bytes of its files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantFiles {
    /// The variant's label (`Opt-4K`, …): its subdirectory name.
    pub label: String,
    /// Complete `.rrlog` files (header + framed chunks), index = core id.
    pub logs: Vec<Vec<u8>>,
    /// The `ordering.bin` sidecar bytes, if present.
    pub ordering: Option<Vec<u8>>,
}

/// A whole run as the bytes of its files: what a run directory holds and
/// what an RRSP `RunBundle` carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFiles {
    /// Recorded core count (the manifest's `cores` line).
    pub cores: usize,
    /// Every recorder variant, in recording order.
    pub variants: Vec<VariantFiles>,
    /// The `truth.bin` ground-truth sidecar bytes.
    pub truth: Vec<u8>,
}

impl RunFiles {
    /// Encodes a recorded run: each variant's per-core `.rrlog` files (by
    /// position, so index = core id), its `ordering.bin` when the variant
    /// recorded an interval order, and the `truth.bin` sidecar.
    #[must_use]
    pub fn encode(result: &RunResult) -> RunFiles {
        RunFiles {
            cores: result.recorded.load_traces.len(),
            variants: result
                .variants
                .iter()
                .map(|variant| VariantFiles {
                    label: variant.spec.label(),
                    logs: variant.logs.iter().map(IntervalLog::encode).collect(),
                    ordering: (!variant.ordering.is_empty())
                        .then(|| encode_ordering(&variant.ordering)),
                })
                .collect(),
            truth: encode_truth(&result.recorded),
        }
    }

    /// Total bytes of the run's `.rrlog` files.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.variants
            .iter()
            .flat_map(|v| &v.logs)
            .map(|log| log.len() as u64)
            .sum()
    }

    /// Reads run `name`'s files from `dir/name` as [`write_run_dir`] laid
    /// them out, without decoding any of them.
    ///
    /// # Errors
    ///
    /// [`LogDirError::BadName`] for an unusable name, the errors of
    /// [`read_manifest`], and [`LogDirError::Io`] (naming the path) for a
    /// missing or unreadable `.rrlog` or `truth.bin`.
    pub fn read(dir: &Path, name: &str) -> Result<RunFiles, LogDirError> {
        check_name(name)?;
        let run_dir = dir.join(name);
        let (cores, labels) = read_manifest(&run_dir)?;
        let read = |path: PathBuf| fs::read(&path).map_err(|e| io_err(&path, &e));
        let variants = labels
            .into_iter()
            .map(|label| {
                let vdir = run_dir.join(&label);
                let logs = (0..cores)
                    .map(|k| read(vdir.join(format!("core{k}.rrlog"))))
                    .collect::<Result<_, _>>()?;
                let opath = vdir.join("ordering.bin");
                let ordering = match fs::read(&opath) {
                    Ok(bytes) => Some(bytes),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                    Err(e) => return Err(io_err(&opath, &e)),
                };
                Ok(VariantFiles {
                    label,
                    logs,
                    ordering,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(RunFiles {
            cores,
            variants,
            truth: read(run_dir.join("truth.bin"))?,
        })
    }

    /// Decodes the run as `name`, its `.rrlog` files in one parallel batch
    /// on `workers` ingest threads (0 = the host's available parallelism).
    /// Every core's log of every variant is an independent stream, so the
    /// result is identical for any worker count.
    ///
    /// # Errors
    ///
    /// [`LogDirError::Wire`], naming the variant and core, if a log fails
    /// to decode (truncation and corruption are typed, never panics);
    /// [`LogDirError::Malformed`] if a variant holds a log too few or too
    /// many, a log's header names another core than its slot,
    /// `ordering.bin` or `truth.bin` is damaged or covers another core
    /// count, or `ordering.bin` counts another number of intervals than a
    /// log holds.
    pub fn decode(&self, name: &str, workers: usize) -> Result<SavedRun, LogDirError> {
        let cores = self.cores;
        if self.variants.iter().any(|v| v.logs.len() != cores) {
            return Err(LogDirError::Malformed("variant log count != run cores"));
        }
        let streams: Vec<&[u8]> = self
            .variants
            .iter()
            .flat_map(|v| &v.logs)
            .map(Vec::as_slice)
            .collect();
        let mut logs = ordered_pool(streams.len(), workers, |i| {
            decode_chunked(streams[i]).map_err(|source| LogDirError::Wire {
                label: self.variants[i / cores].label.clone(),
                core: i % cores,
                source,
            })
        })?
        .into_iter();
        let mut variants = Vec::with_capacity(self.variants.len());
        for v in &self.variants {
            let logs: Vec<IntervalLog> = logs.by_ref().take(cores).collect();
            if logs
                .iter()
                .enumerate()
                .any(|(k, log)| log.core.index() != k)
            {
                return Err(LogDirError::Malformed("log header names another core"));
            }
            let ordering = v.ordering.as_deref().map(decode_ordering).transpose()?;
            if ordering.as_ref().is_some_and(|o| o.len() != cores) {
                return Err(LogDirError::Malformed(
                    "ordering sidecar core count != run cores",
                ));
            }
            // A log cut at a chunk boundary is a well-formed shorter log;
            // its ordering still counts every recorded interval.
            if ordering.as_ref().is_some_and(|o| {
                o.iter()
                    .zip(&logs)
                    .any(|(o, log)| o.preds.len() != log.intervals())
            }) {
                return Err(LogDirError::Malformed(
                    "ordering sidecar interval count != log intervals",
                ));
            }
            variants.push(SavedVariant {
                label: v.label.clone(),
                logs,
                ordering,
            });
        }
        let recorded = decode_truth(&self.truth)?;
        if recorded.load_traces.len() != cores {
            return Err(LogDirError::Malformed("truth trace count != run cores"));
        }
        Ok(SavedRun {
            name: name.to_string(),
            variants,
            recorded,
        })
    }
}

/// Writes run `name` under `dir` in the layout of the module docs (plus
/// the text `sidecars` in the run directory), the manifest last. Every
/// name is [`check_name`]d before anything is created, so none can place
/// a file outside `dir/name`. Returns the total `.rrlog` bytes written.
///
/// # Errors
///
/// [`LogDirError::BadName`] (with nothing written) for an unusable run,
/// label or sidecar name; [`LogDirError::Io`] on filesystem failure.
pub fn write_run_dir(
    dir: &Path,
    name: &str,
    files: &RunFiles,
    sidecars: &[(&str, String)],
) -> Result<u64, LogDirError> {
    check_name(name)?;
    for v in &files.variants {
        check_name(&v.label)?;
    }
    for (file, _) in sidecars {
        check_name(file)?;
    }
    let write = |path: &Path, bytes: &[u8]| fs::write(path, bytes).map_err(|e| io_err(path, &e));
    let run_dir = dir.join(name);
    fs::create_dir_all(&run_dir).map_err(|e| io_err(&run_dir, &e))?;
    let mut manifest = format!("cores {}\n", files.cores);
    for v in &files.variants {
        let vdir = run_dir.join(&v.label);
        fs::create_dir_all(&vdir).map_err(|e| io_err(&vdir, &e))?;
        for (k, log) in v.logs.iter().enumerate() {
            write(&vdir.join(format!("core{k}.rrlog")), log)?;
        }
        if let Some(ord) = &v.ordering {
            write(&vdir.join("ordering.bin"), ord)?;
        }
        manifest.push_str(&v.label);
        manifest.push('\n');
    }
    write(&run_dir.join("truth.bin"), &files.truth)?;
    for (file, text) in sidecars {
        write(&run_dir.join(file), text.as_bytes())?;
    }
    write(&run_dir.join("manifest.txt"), manifest.as_bytes())?;
    Ok(files.log_bytes())
}

/// Reads `run_dir/manifest.txt`: the core count and the variant labels,
/// each checked as a path component.
///
/// # Errors
///
/// [`LogDirError::Io`] if the manifest cannot be read,
/// [`LogDirError::Malformed`] without a `cores` line or with more cores
/// than a `u8` core id can name (256),
/// [`LogDirError::BadName`] for an unusable label.
pub fn read_manifest(run_dir: &Path) -> Result<(usize, Vec<String>), LogDirError> {
    let path = run_dir.join("manifest.txt");
    let manifest = fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
    let mut lines = manifest.lines();
    let cores = lines
        .next()
        .and_then(|l| l.strip_prefix("cores "))
        .and_then(|n| n.parse().ok())
        .ok_or(LogDirError::Malformed("manifest missing cores line"))?;
    // Readers size per-core path lists from this count before opening a
    // file, so a hostile count must be bounded here.
    if cores > usize::from(u8::MAX) + 1 {
        return Err(LogDirError::Malformed(
            "manifest claims more than 256 cores",
        ));
    }
    let labels = lines
        .filter(|l| !l.is_empty())
        .map(|l| check_name(l).map(|()| l.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((cores, labels))
}

/// Names of every run saved under `dir`, sorted for determinism.
///
/// # Errors
///
/// Returns [`LogDirError::Io`] if the directory cannot be read.
pub(crate) fn list_runs_impl(dir: &Path) -> Result<Vec<String>, LogDirError> {
    let mut names = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path: PathBuf = entry.path();
        if path.is_dir() && path.join("manifest.txt").is_file() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Serializes the ground truth in a sealed envelope ([`wire::seal`]):
/// varint-encoded final memory (its non-zero words as address/value pairs
/// in address order) and per-thread load traces.
#[must_use]
pub fn encode_truth(recorded: &RecordedExecution) -> Vec<u8> {
    wire::seal(TRUTH_MAGIC, TRUTH_VERSION, |out| {
        let cells: Vec<(u64, u64)> = recorded.final_mem.words().collect();
        write_varint(out, cells.len() as u64);
        for (addr, value) in cells {
            write_varint(out, addr);
            write_varint(out, value);
        }
        write_varint(out, recorded.load_traces.len() as u64);
        for trace in &recorded.load_traces {
            write_varint(out, trace.len() as u64);
            for &v in trace {
                write_varint(out, v);
            }
        }
    })
}

/// Serializes the per-core interval partial order (version 2) in a
/// sealed envelope ([`wire::seal`]): core count, then per core the
/// interval count, each interval's predecessor list (its length, then
/// `core, ordinal` pairs) and the barrier ordinals (their count, then
/// each one, ascending). Every number is a plain varint.
#[must_use]
pub fn encode_ordering(ordering: &[IntervalOrdering]) -> Vec<u8> {
    wire::seal(ORDER_MAGIC, ORDER_VERSION, |out| {
        write_varint(out, ordering.len() as u64);
        for ord in ordering {
            write_varint(out, ord.preds.len() as u64);
            for preds in &ord.preds {
                write_varint(out, preds.len() as u64);
                for &(core, ordinal) in preds {
                    write_varint(out, core.index() as u64);
                    write_varint(out, ordinal);
                }
            }
            write_varint(out, ord.barriers.len() as u64);
            for &b in &ord.barriers {
                write_varint(out, b);
            }
        }
    })
}

/// Decodes an `ordering.bin` sidecar produced by [`encode_ordering`].
/// Lists grow as their entries decode, so a hostile count cannot make it
/// allocate ahead of the bytes that back it.
///
/// # Errors
///
/// Returns [`LogDirError::Malformed`] on any envelope or structural
/// damage, including barrier ordinals that are not ascending below their
/// core's interval count — never panics.
fn decode_ordering(bytes: &[u8]) -> Result<Vec<IntervalOrdering>, LogDirError> {
    let mut r = wire::open(bytes, ORDER_MAGIC, ORDER_VERSION, |e| {
        LogDirError::Malformed(codec_message!("ordering sidecar", e))
    })?;
    let mut ordering = Vec::new();
    for _ in 0..r.varint()? {
        let n = r.varint()?;
        let mut ord = IntervalOrdering::default();
        for _ in 0..n {
            let mut preds = Vec::new();
            for _ in 0..r.varint()? {
                let core = u8::try_from(r.varint()?)
                    .map_err(|_| LogDirError::Malformed("ordering predecessor core > 255"))?;
                preds.push((CoreId::new(core), r.varint()?));
            }
            ord.preds.push(preds);
        }
        for _ in 0..r.varint()? {
            let b = r.varint()?;
            if b >= n || ord.barriers.last().is_some_and(|&prev| prev >= b) {
                return Err(LogDirError::Malformed("ordering barriers out of order"));
            }
            ord.barriers.push(b);
        }
        ordering.push(ord);
    }
    r.finish()?;
    Ok(ordering)
}

/// Decodes a `truth.bin` sidecar produced by [`encode_truth`], which
/// writes one canonical form: non-zero, word-aligned cells in strictly
/// ascending address order.
///
/// # Errors
///
/// Returns [`LogDirError::Malformed`] on any envelope or structural
/// damage, or a cell out of that form — never panics.
fn decode_truth(bytes: &[u8]) -> Result<RecordedExecution, LogDirError> {
    let mut r = wire::open(bytes, TRUTH_MAGIC, TRUTH_VERSION, |e| {
        LogDirError::Malformed(codec_message!("truth sidecar", e))
    })?;
    let mut final_mem = MemImage::new();
    let mut next_addr = 0;
    for _ in 0..r.varint()? {
        let addr = r.varint()?;
        let value = r.varint()?;
        if !addr.is_multiple_of(WORD_BYTES) {
            return Err(LogDirError::Malformed(
                "truth cell address not word-aligned",
            ));
        }
        if addr < next_addr || value == 0 {
            return Err(LogDirError::Malformed(
                "truth cell out of address order or zero",
            ));
        }
        final_mem.store(addr, value);
        next_addr = addr.saturating_add(WORD_BYTES);
    }
    let mut load_traces = Vec::new();
    for _ in 0..r.varint()? {
        let mut trace = Vec::new();
        for _ in 0..r.varint()? {
            trace.push(r.varint()?);
        }
        load_traces.push(trace);
    }
    r.finish()?;
    Ok(RecordedExecution {
        final_mem,
        load_traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_reference::assert_damage_is_typed;

    fn sample_truth() -> RecordedExecution {
        let mut mem = MemImage::new();
        mem.store(0x8, 300);
        mem.store(0x1000, u64::MAX);
        RecordedExecution {
            final_mem: mem,
            load_traces: vec![vec![1, 2, 3], vec![], vec![u64::MAX, 0]],
        }
    }

    #[test]
    fn truth_round_trips() {
        let truth = sample_truth();
        let bytes = encode_truth(&truth);
        let back = decode_truth(&bytes).expect("decodes");
        assert!(back.final_mem.contents_eq(&truth.final_mem));
        assert_eq!(back.load_traces, truth.load_traces);
    }

    #[test]
    fn truth_writes_only_non_zero_words_in_address_order() {
        let mut mem = MemImage::new();
        mem.store(0x1000, 5);
        mem.store(0x8, 0);
        mem.store(0x10, 6);
        let bytes = encode_truth(&RecordedExecution {
            final_mem: mem,
            load_traces: vec![],
        });
        // magic, version, 2 cells, (0x10, 6), (0x1000, 5), 0 traces, CRC.
        assert_eq!(&bytes[6..13], &[2, 0x10, 6, 0x80, 0x20, 5, 0]);
        assert_eq!(bytes.len(), 13 + 4);
    }

    /// A truth sidecar whose body is `numbers` as varints, sealed.
    fn truth_sidecar(numbers: &[u64]) -> Vec<u8> {
        wire::seal(TRUTH_MAGIC, TRUTH_VERSION, |out| {
            for &n in numbers {
                write_varint(out, n);
            }
        })
    }

    #[test]
    fn unaligned_truth_cell_is_malformed_not_a_panic() {
        assert_eq!(
            decode_truth(&truth_sidecar(&[1, 0x103, 7, 0])).map(drop),
            Err(LogDirError::Malformed(
                "truth cell address not word-aligned"
            ))
        );
    }

    /// `encode_truth` writes one form of a memory image, so any other
    /// is damage: cells out of address order, a repeated address (the
    /// last one would win) and a zero word.
    #[test]
    fn non_canonical_truth_cells_are_malformed() {
        let canonical = [2, 0x8, 5, 0x10, 6, 0];
        assert!(decode_truth(&truth_sidecar(&canonical)).is_ok());
        for cells in [
            &[2, 0x10, 6, 0x8, 5, 0][..],
            &[2, 0x8, 5, 0x8, 6, 0],
            &[2, 0x8, 5, 0x10, 0, 0],
        ] {
            assert_eq!(
                decode_truth(&truth_sidecar(cells)).map(drop),
                Err(LogDirError::Malformed(
                    "truth cell out of address order or zero"
                )),
                "{cells:?}"
            );
        }
    }

    fn sample_ordering() -> Vec<IntervalOrdering> {
        vec![
            IntervalOrdering {
                preds: vec![vec![], vec![(CoreId::new(1), 0)]],
                barriers: vec![1],
            },
            IntervalOrdering {
                preds: vec![vec![(CoreId::new(0), 0)]],
                barriers: vec![],
            },
        ]
    }

    /// An ordering sidecar of `version` whose body is `numbers` as
    /// varints, sealed.
    fn sidecar(version: u16, numbers: &[u64]) -> Vec<u8> {
        wire::seal(ORDER_MAGIC, version, |out| {
            for &n in numbers {
                write_varint(out, n);
            }
        })
    }

    #[test]
    fn ordering_round_trips() {
        let ordering = sample_ordering();
        let bytes = encode_ordering(&ordering);
        // cores, then per core: intervals, pred lists, barrier ordinals.
        assert_eq!(bytes, sidecar(2, &[2, 2, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0]));
        assert_eq!(decode_ordering(&bytes), Ok(ordering));
    }

    /// One directory-mode ocean run, recorded once for the corruption
    /// harness tests below; directory mode, so every variant's ordering
    /// sidecar holds barriers too.
    fn recorded_ocean() -> &'static RunResult {
        static RUN: std::sync::OnceLock<RunResult> = std::sync::OnceLock::new();
        RUN.get_or_init(|| {
            let w = rr_workloads::by_name("ocean", 4, 1).expect("known workload");
            let cfg = crate::MachineConfig::splash_default(4).with_directory();
            crate::RecordSession::new(&w.programs, &w.initial_mem)
                .config(&cfg)
                .run()
                .expect("records")
        })
    }

    fn malformed(e: &LogDirError) -> bool {
        matches!(e, LogDirError::Malformed(_))
    }

    /// Every single-bit flip and every truncation of a recorded run's
    /// `truth.bin` decodes to the identical value or a typed error.
    #[test]
    fn truth_corruption_is_detected() {
        let words = |r: RecordedExecution| (r.final_mem.words().collect::<Vec<_>>(), r.load_traces);
        let truth = encode_truth(&recorded_ocean().recorded);
        assert_damage_is_typed(&truth, |b| decode_truth(b).map(words), malformed);
    }

    /// Every single-bit flip and every truncation of each variant's
    /// `ordering.bin` decodes to the identical value or a typed error.
    #[test]
    fn ordering_corruption_is_detected() {
        for v in &recorded_ocean().variants {
            assert!(v.ordering.iter().any(|o| !o.barriers.is_empty()));
            assert_damage_is_typed(&encode_ordering(&v.ordering), decode_ordering, malformed);
        }
    }

    /// Every single-bit flip and every truncation of a recorded run's
    /// smallest `.rrlog` decodes to the identical log or a typed error.
    #[test]
    fn recorded_log_survives_the_corruption_harness() {
        // A log is read as `RunFiles::decode` reads it, in its core's
        // slot: the `.rrlog` header's core byte is outside every CRC, so
        // only that slot check turns a flip of it into an error.
        let files = RunFiles::encode(recorded_ocean());
        let (v, core) = (0..files.variants.len())
            .flat_map(|v| (0..files.cores).map(move |k| (v, k)))
            .min_by_key(|&(v, k)| files.variants[v].logs[k].len())
            .expect("a log");
        let one_variant = RunFiles {
            variants: vec![files.variants[v].clone()],
            ..files
        };
        let decode_slot = |b: &[u8]| {
            let mut damaged = one_variant.clone();
            damaged.variants[0].logs[core] = b.to_vec();
            let saved = damaged.decode("harness", 1)?;
            Ok::<_, LogDirError>(saved.variants[0].logs[core].clone())
        };
        let typed =
            |e: &LogDirError| matches!(e, LogDirError::Wire { .. } | LogDirError::Malformed(_));
        assert_damage_is_typed(&one_variant.variants[0].logs[core], decode_slot, typed);
    }

    #[test]
    fn ordering_sidecar_damage_is_typed() {
        let malformed = |numbers: &[u64], version| match decode_ordering(&sidecar(version, numbers))
        {
            Err(LogDirError::Malformed(d)) => d,
            other => panic!("{numbers:?}: want a typed error, got {other:?}"),
        };
        // Version 1: one core, one interval (timestamp 5, flag 0, no preds).
        assert_eq!(
            malformed(&[1, 1, 5, 0, 0], 1),
            "unsupported ordering sidecar version"
        );
        // One core, three intervals without preds, then barrier lists.
        for barriers in [&[2, 2, 1][..], &[2, 1, 1], &[1, 3]] {
            let numbers = [&[1, 3, 0, 0, 0][..], barriers].concat();
            assert_eq!(malformed(&numbers, 2), "ordering barriers out of order");
        }
        // Counts far beyond the bytes behind them run out of input; they
        // are never allocated up front.
        for numbers in [
            &[u64::MAX][..],
            &[1, u64::MAX],
            &[1, 1, u64::MAX],
            &[1, 0, u64::MAX],
        ] {
            assert_eq!(malformed(numbers, 2), "ordering sidecar truncated");
        }
    }

    #[test]
    fn names_are_validated() {
        assert!(check_name("fft-small").is_ok());
        assert!(check_name("Opt-4K").is_ok());
        assert!(check_name("").is_err());
        assert!(check_name("a/b").is_err());
        assert!(check_name("..").is_err());
    }
}
