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
//! Run and variant names become path components verbatim, so they must not
//! contain separators; [`check_name`] rejects names that do.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use relaxreplay::wire::{crc32, decode_chunked, read_varint, write_varint};
use relaxreplay::{IntervalLog, IntervalOrdering, WireError};
use rr_isa::{MemImage, WORD_BYTES};
use rr_mem::CoreId;
use rr_replay::{ordered_pool, RecordedExecution};

use crate::machine::RunResult;

/// Magic tag opening a `truth.bin` ground-truth sidecar.
const TRUTH_MAGIC: &[u8; 4] = b"RRTR";
/// Sidecar format version.
const TRUTH_VERSION: u16 = 1;
/// Magic tag opening an `ordering.bin` interval-order sidecar.
const ORDER_MAGIC: &[u8; 4] = b"RROD";
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
    /// many, a log's header names another core than its slot, or
    /// `ordering.bin` or `truth.bin` is damaged or covers another core
    /// count.
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

/// Serializes the ground truth: magic + version, varint-encoded final
/// memory (its non-zero words as address/value pairs in address order) and
/// per-thread load traces, closed with a CRC32 over everything before it.
#[must_use]
pub fn encode_truth(recorded: &RecordedExecution) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(TRUTH_MAGIC);
    out.extend_from_slice(&TRUTH_VERSION.to_le_bytes());

    let cells: Vec<(u64, u64)> = recorded.final_mem.words().collect();
    write_varint(&mut out, cells.len() as u64);
    for (addr, value) in cells {
        write_varint(&mut out, addr);
        write_varint(&mut out, value);
    }
    write_varint(&mut out, recorded.load_traces.len() as u64);
    for trace in &recorded.load_traces {
        write_varint(&mut out, trace.len() as u64);
        for &v in trace {
            write_varint(&mut out, v);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Serializes the per-core interval partial order (version 2): magic +
/// version, core count, then per core the interval count, each
/// interval's predecessor list (its length, then `core, ordinal` pairs)
/// and the barrier ordinals (their count, then each one, ascending);
/// closed with a CRC32. Every number is a plain varint.
#[must_use]
pub fn encode_ordering(ordering: &[IntervalOrdering]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(ORDER_MAGIC);
    out.extend_from_slice(&ORDER_VERSION.to_le_bytes());
    write_varint(&mut out, ordering.len() as u64);
    for ord in ordering {
        write_varint(&mut out, ord.preds.len() as u64);
        for preds in &ord.preds {
            write_varint(&mut out, preds.len() as u64);
            for &(core, ordinal) in preds {
                write_varint(&mut out, core.index() as u64);
                write_varint(&mut out, ordinal);
            }
        }
        write_varint(&mut out, ord.barriers.len() as u64);
        for &b in &ord.barriers {
            write_varint(&mut out, b);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes an `ordering.bin` sidecar produced by [`encode_ordering`].
/// Lists grow as their entries decode, so a hostile count cannot make it
/// allocate ahead of the bytes that back it.
///
/// # Errors
///
/// Returns [`LogDirError::Malformed`] on any header, version, CRC or
/// structural damage, including barrier ordinals that are not ascending
/// below their core's interval count — never panics.
fn decode_ordering(bytes: &[u8]) -> Result<Vec<IntervalOrdering>, LogDirError> {
    const MALFORMED: LogDirError = LogDirError::Malformed("ordering sidecar truncated");
    if bytes.len() < 10 || &bytes[..4] != ORDER_MAGIC {
        return Err(LogDirError::Malformed("bad ordering sidecar header"));
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != ORDER_VERSION {
        return Err(LogDirError::Malformed(
            "unsupported ordering sidecar version",
        ));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(LogDirError::Malformed("ordering sidecar CRC mismatch"));
    }

    let mut pos = 6usize;
    let varint = |pos: &mut usize| read_varint(body, pos).ok_or(MALFORMED);
    let cores = varint(&mut pos)?;
    let mut ordering = Vec::new();
    for _ in 0..cores {
        let n = varint(&mut pos)?;
        let mut ord = IntervalOrdering::default();
        for _ in 0..n {
            let np = varint(&mut pos)?;
            let mut preds = Vec::new();
            for _ in 0..np {
                let core = varint(&mut pos)?;
                let ordinal = varint(&mut pos)?;
                if core > u64::from(u8::MAX) {
                    return Err(LogDirError::Malformed("ordering predecessor core > 255"));
                }
                preds.push((CoreId::new(core as u8), ordinal));
            }
            ord.preds.push(preds);
        }
        for _ in 0..varint(&mut pos)? {
            let b = varint(&mut pos)?;
            if b >= n || ord.barriers.last().is_some_and(|&prev| prev >= b) {
                return Err(LogDirError::Malformed("ordering barriers out of order"));
            }
            ord.barriers.push(b);
        }
        ordering.push(ord);
    }
    if pos != body.len() {
        return Err(LogDirError::Malformed(
            "ordering sidecar has trailing bytes",
        ));
    }
    Ok(ordering)
}

/// Decodes a `truth.bin` sidecar produced by [`encode_truth`].
///
/// # Errors
///
/// Returns [`LogDirError::Malformed`] on any header, CRC, or structural
/// damage — never panics.
fn decode_truth(bytes: &[u8]) -> Result<RecordedExecution, LogDirError> {
    const MALFORMED: LogDirError = LogDirError::Malformed("truth sidecar truncated");
    if bytes.len() < 10 || &bytes[..4] != TRUTH_MAGIC {
        return Err(LogDirError::Malformed("bad truth sidecar header"));
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != TRUTH_VERSION {
        return Err(LogDirError::Malformed("unsupported truth sidecar version"));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(LogDirError::Malformed("truth sidecar CRC mismatch"));
    }

    let mut pos = 6usize;
    let varint = |pos: &mut usize| read_varint(body, pos).ok_or(MALFORMED);
    let cells = varint(&mut pos)?;
    let mut final_mem = MemImage::new();
    for _ in 0..cells {
        let addr = varint(&mut pos)?;
        let value = varint(&mut pos)?;
        if !addr.is_multiple_of(WORD_BYTES) {
            return Err(LogDirError::Malformed(
                "truth cell address not word-aligned",
            ));
        }
        final_mem.store(addr, value);
    }
    let threads = varint(&mut pos)?;
    let mut load_traces = Vec::new();
    for _ in 0..threads {
        let len = varint(&mut pos)?;
        let mut trace = Vec::new();
        for _ in 0..len {
            trace.push(varint(&mut pos)?);
        }
        load_traces.push(trace);
    }
    if pos != body.len() {
        return Err(LogDirError::Malformed("truth sidecar has trailing bytes"));
    }
    Ok(RecordedExecution {
        final_mem,
        load_traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn truth_corruption_is_detected() {
        let bytes = encode_truth(&sample_truth());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_truth(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                decode_truth(&bytes[..cut]).is_err(),
                "truncation at {cut} went undetected"
            );
        }
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

    #[test]
    fn unaligned_truth_cell_is_malformed_not_a_panic() {
        let mut bytes = TRUTH_MAGIC.to_vec();
        bytes.extend_from_slice(&TRUTH_VERSION.to_le_bytes());
        for v in [1, 0x103, 7, 0] {
            write_varint(&mut bytes, v);
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_truth(&bytes),
            Err(LogDirError::Malformed(
                "truth cell address not word-aligned"
            ))
        ));
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

    /// A sidecar of `version` whose body is `numbers` as varints, closed
    /// with a valid CRC.
    fn sidecar(version: u16, numbers: &[u64]) -> Vec<u8> {
        let mut out = ORDER_MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        for &n in numbers {
            write_varint(&mut out, n);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn ordering_round_trips() {
        let ordering = sample_ordering();
        let bytes = encode_ordering(&ordering);
        // cores, then per core: intervals, pred lists, barrier ordinals.
        assert_eq!(bytes, sidecar(2, &[2, 2, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0]));
        assert_eq!(decode_ordering(&bytes), Ok(ordering));
    }

    /// Every single-bit flip and every truncation of a recorded run's
    /// sidecar is a typed error or decodes to the identical value.
    #[test]
    fn ordering_corruption_is_detected() {
        // Directory mode, so every variant's sidecar holds barriers too.
        let w = rr_workloads::by_name("ocean", 4, 1).expect("known workload");
        let cfg = crate::MachineConfig::splash_default(4).with_directory();
        let run = crate::RecordSession::new(&w.programs, &w.initial_mem)
            .config(&cfg)
            .run()
            .expect("records");
        for v in &run.variants {
            let ordering = &v.ordering;
            assert!(ordering.iter().any(|o| !o.barriers.is_empty()));
            let bytes = encode_ordering(ordering);
            let check = |result, what: &str| match result {
                Ok(back) => assert_eq!(&back, ordering, "{what} decoded to another value"),
                Err(LogDirError::Malformed(_)) => {}
                Err(e) => panic!("{what}: untyped {e:?}"),
            };
            for i in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[i / 8] ^= 1 << (i % 8);
                check(decode_ordering(&bad), &format!("flip of bit {i}"));
            }
            for cut in 0..bytes.len() {
                check(decode_ordering(&bytes[..cut]), &format!("cut at {cut}"));
            }
        }
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
