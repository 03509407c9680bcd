//! The content-addressed chunk store behind the rr-serve backend.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/{crc32:08x}{rr_hash64:016x}.chunk   # one blob per distinct chunk payload
//! runs/<name>/catalog.bin                     # RRCT v1: chunk refs + wire versions (CRC32)
//! runs/<name>/truth.bin                       # ground-truth sidecar, verbatim
//! runs/<name>/<label>.ordering                # interval partial order, verbatim
//! ```
//!
//! Chunks are keyed by `(crc32, rr_hash64)` of their payload, so the
//! identical chunk appearing in two runs (or two cores, or two recorder
//! variants) lands on disk exactly once; the catalogs reference it. Both
//! halves of the key are verified on every read, so a damaged object
//! surfaces as a typed [`RemoteFault::CorruptBlob`] — never a misparse
//! downstream.
//!
//! Because wire v3 chunks are self-contained, a materialized `.rrlog` is
//! purely `header ++ (len | payload | crc32)*` over the cataloged refs —
//! byte-identical to what a local `--save-logs` writes for the same run,
//! which is what the round-trip CI job diffs for.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use relaxreplay::wire::{self, crc32, write_bytes, write_varint};
use relaxreplay::{codec_message, rr_hash64};
use rr_mem::CoreId;
use rr_sim::logdir::{check_name, RunFiles, VariantFiles};
use rr_sim::{RemoteFault, VariantStat};

use crate::proto::MAX_FRAME_BYTES;
use crate::ServeError;

/// Magic tag opening a `catalog.bin`.
const CATALOG_MAGIC: [u8; 4] = *b"RRCT";
/// Catalog format version.
const CATALOG_VERSION: u16 = 1;

/// The content-addressed identity of one chunk payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChunkRef {
    /// CRC32 of the payload (the same checksum the `.rrlog` frame carries).
    pub crc: u32,
    /// FNV-1a 64 of the payload.
    pub hash: u64,
    /// Payload length in bytes.
    pub len: u64,
}

impl ChunkRef {
    /// Computes the ref for a payload.
    #[must_use]
    pub fn of(payload: &[u8]) -> Self {
        ChunkRef {
            crc: crc32(payload),
            hash: rr_hash64(payload),
            len: payload.len() as u64,
        }
    }

    /// The blob's object file name: `{crc:08x}{hash:016x}.chunk`.
    #[must_use]
    pub fn object_name(&self) -> String {
        format!("{:08x}{:016x}.chunk", self.crc, self.hash)
    }
}

/// One (variant, core) log in a catalog: its wire version and chunk refs
/// in sequence order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogCore {
    /// `.rrlog` wire version the chunks were encoded with.
    pub wire_version: u16,
    /// Chunk refs, sequence order.
    pub chunks: Vec<ChunkRef>,
}

impl CatalogCore {
    /// Bytes of the `.rrlog` file these chunks materialize to.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        wire::stream_len(self.chunks.iter().map(|r| r.len))
    }
}

/// One recorder variant in a catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogVariant {
    /// The variant's label.
    pub label: String,
    /// Per-core logs, index = core id.
    pub cores: Vec<CatalogCore>,
    /// Whether an `ordering.bin` sidecar is stored alongside.
    pub has_ordering: bool,
}

/// A sealed run's catalog: everything needed to rematerialize its
/// `.rrlog` files from the object store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Catalog {
    /// Recorded core count.
    pub cores: u8,
    /// Variants in sealed order.
    pub variants: Vec<CatalogVariant>,
}

impl Catalog {
    /// Total `.rrlog` bytes the catalog materializes to (headers and
    /// chunk framing included).
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.variants
            .iter()
            .flat_map(|v| &v.cores)
            .map(CatalogCore::log_bytes)
            .sum()
    }

    /// Serializes the catalog (RRCT v1) in a sealed envelope
    /// ([`wire::seal`]).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::seal(CATALOG_MAGIC, CATALOG_VERSION, |out| {
            out.push(self.cores);
            write_varint(out, self.variants.len() as u64);
            for v in &self.variants {
                write_bytes(out, v.label.as_bytes());
                out.push(u8::from(v.has_ordering));
                for c in &v.cores {
                    out.extend_from_slice(&c.wire_version.to_le_bytes());
                    write_varint(out, c.chunks.len() as u64);
                    for r in &c.chunks {
                        out.extend_from_slice(&r.crc.to_le_bytes());
                        out.extend_from_slice(&r.hash.to_le_bytes());
                        write_varint(out, r.len);
                    }
                }
            }
        })
    }

    /// Parses a catalog written by [`Catalog::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`RemoteFault::Catalog`] on any envelope or structural
    /// damage — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let mut r = wire::open(bytes, CATALOG_MAGIC, CATALOG_VERSION, |e| {
            ServeError::new(RemoteFault::Catalog, codec_message!("catalog", e))
        })?;
        let cores = r.u8()?;
        let mut variants = Vec::new();
        for _ in 0..r.varint()? {
            // A label arrived in a `SealRun` frame, so no longer than one.
            let label = r.str(MAX_FRAME_BYTES)?.to_string();
            let has_ordering = r.flag()?;
            let mut catalog_cores = Vec::new();
            for _ in 0..cores {
                let wire_version = r.u16()?;
                if wire_version != wire::VERSION {
                    return Err(ServeError::new(
                        RemoteFault::Catalog,
                        "catalog names an unsupported .rrlog wire version",
                    ));
                }
                let mut chunks = Vec::new();
                for _ in 0..r.varint()? {
                    chunks.push(ChunkRef {
                        crc: r.u32()?,
                        hash: r.u64()?,
                        len: r.varint()?,
                    });
                }
                catalog_cores.push(CatalogCore {
                    wire_version,
                    chunks,
                });
            }
            variants.push(CatalogVariant {
                label,
                cores: catalog_cores,
                has_ordering,
            });
        }
        r.finish()?;
        Ok(Catalog { cores, variants })
    }
}

/// Counter making concurrent temp-file names unique within the process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(path: &Path, e: &std::io::Error) -> ServeError {
    ServeError::new(RemoteFault::Server, format!("{}: {e}", path.display()))
}

/// A sealed run's sidecar that cannot be read: its catalog promises a
/// file the store does not hold, so the run is [`RemoteFault::Catalog`].
fn sidecar_err(run: &str, file: &str, e: &std::io::Error) -> ServeError {
    ServeError::new(
        RemoteFault::Catalog,
        format!("run {run:?} sidecar {file} unreadable: {e}"),
    )
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync-free rename. Safe under concurrent writers producing identical
/// content (the loser's rename just replaces equal bytes).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    Ok(())
}

/// What [`ChunkStore::seal_run`] needs per variant: the staged refs in
/// sequence order plus the opaque ordering sidecar.
#[derive(Clone, Debug)]
pub struct SealedVariant {
    /// The variant's label.
    pub label: String,
    /// Per-core (wire version, chunk refs), index = core id.
    pub cores: Vec<CatalogCore>,
    /// The `ordering.bin` sidecar bytes, if recorded.
    pub ordering: Option<Vec<u8>>,
}

/// The on-disk content-addressed store. All methods take `&self` and are
/// safe under concurrent use from the server's worker threads: blob
/// writes are idempotent (identical content, atomic rename) and runs
/// become visible only when their catalog is renamed into place.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    root: PathBuf,
}

impl ChunkStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`RemoteFault::Server`] if the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let root = root.into();
        for sub in ["objects", "runs"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        }
        Ok(ChunkStore { root })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, r: &ChunkRef) -> PathBuf {
        self.root.join("objects").join(r.object_name())
    }

    fn run_dir(&self, run: &str) -> PathBuf {
        self.root.join("runs").join(run)
    }

    /// Stores one chunk payload, deduplicating against existing blobs.
    /// Returns the ref and whether an identical blob already existed.
    ///
    /// # Errors
    ///
    /// Returns [`RemoteFault::Server`] on filesystem failure.
    pub fn put_chunk(&self, payload: &[u8]) -> Result<(ChunkRef, bool), ServeError> {
        let r = ChunkRef::of(payload);
        let path = self.object_path(&r);
        if path.is_file() {
            return Ok((r, true));
        }
        write_atomic(&path, payload)?;
        Ok((r, false))
    }

    /// Reads one blob back, verifying length, CRC32, and content hash.
    ///
    /// # Errors
    ///
    /// Returns [`RemoteFault::CorruptBlob`] if the object is missing or
    /// fails any check — stored damage is always typed, never a panic
    /// or a silent misparse.
    pub fn get_blob(&self, r: &ChunkRef) -> Result<Vec<u8>, ServeError> {
        let path = self.object_path(&r.clone());
        let corrupt = |d: String| ServeError::new(RemoteFault::CorruptBlob, d);
        let bytes = fs::read(&path)
            .map_err(|e| corrupt(format!("object {} unreadable: {e}", r.object_name())))?;
        if ChunkRef::of(&bytes) != *r {
            return Err(corrupt(format!(
                "object {} ({} bytes) does not match its address",
                r.object_name(),
                bytes.len()
            )));
        }
        Ok(bytes)
    }

    /// Publishes a staged run atomically: every referenced blob is
    /// verified and the sidecars written first, then the catalog rename
    /// makes the run visible.
    /// Re-sealing an identical run is idempotent; sealing a different
    /// run under an existing name is a [`RemoteFault::Conflict`].
    ///
    /// # Errors
    ///
    /// Returns [`RemoteFault::BadName`] for unusable names,
    /// [`RemoteFault::Conflict`] for divergent re-seals,
    /// [`RemoteFault::CorruptBlob`] if a referenced blob fails
    /// verification, and [`RemoteFault::Server`] on filesystem failure.
    pub fn seal_run(
        &self,
        run: &str,
        cores: u8,
        variants: Vec<SealedVariant>,
        truth: &[u8],
    ) -> Result<u64, ServeError> {
        check_name(run).map_err(|e| ServeError::new(RemoteFault::BadName, e.to_string()))?;
        for v in &variants {
            check_name(&v.label)
                .map_err(|e| ServeError::new(RemoteFault::BadName, e.to_string()))?;
            if v.cores.len() != usize::from(cores) {
                return Err(ServeError::new(
                    RemoteFault::Protocol,
                    format!(
                        "variant {:?} declares {} cores, run has {cores}",
                        v.label,
                        v.cores.len()
                    ),
                ));
            }
        }
        let catalog = Catalog {
            cores,
            variants: variants
                .iter()
                .map(|v| CatalogVariant {
                    label: v.label.clone(),
                    cores: v.cores.clone(),
                    has_ordering: v.ordering.is_some(),
                })
                .collect(),
        };
        let dir = self.run_dir(run);
        let catalog_path = dir.join("catalog.bin");
        let catalog_bytes = catalog.to_bytes();
        if let Ok(existing) = fs::read(&catalog_path) {
            if existing == catalog_bytes {
                return Ok(catalog.log_bytes());
            }
            return Err(ServeError::new(
                RemoteFault::Conflict,
                format!("run {run:?} already sealed with different contents"),
            ));
        }
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        write_atomic(&dir.join("truth.bin"), truth)?;
        for v in &variants {
            if let Some(ordering) = &v.ordering {
                write_atomic(&dir.join(format!("{}.ordering", v.label)), ordering)?;
            }
            // A run is published only if GetRun can serve it back.
            for r in v.cores.iter().flat_map(|c| &c.chunks) {
                self.get_blob(r)?;
            }
        }
        write_atomic(&catalog_path, &catalog_bytes)?;
        Ok(catalog.log_bytes())
    }

    /// Loads a sealed run's catalog.
    ///
    /// # Errors
    ///
    /// [`RemoteFault::UnknownRun`] if the run was never sealed;
    /// [`RemoteFault::Catalog`] if the catalog is damaged.
    pub fn catalog(&self, run: &str) -> Result<Catalog, ServeError> {
        check_name(run).map_err(|e| ServeError::new(RemoteFault::BadName, e.to_string()))?;
        let path = self.run_dir(run).join("catalog.bin");
        let bytes = fs::read(&path).map_err(|_| {
            ServeError::new(RemoteFault::UnknownRun, format!("no sealed run {run:?}"))
        })?;
        Catalog::from_bytes(&bytes)
    }

    /// Materializes one (variant, core) `.rrlog` file from the object
    /// store: header, then each cataloged chunk in its frame
    /// ([`wire::begin_frame`]/[`wire::end_frame`]).
    ///
    /// # Errors
    ///
    /// [`RemoteFault::CorruptBlob`] if any referenced blob fails
    /// verification.
    pub fn assemble_core(&self, core: &CatalogCore, core_id: u8) -> Result<Vec<u8>, ServeError> {
        let mut out = Vec::with_capacity(usize::try_from(core.log_bytes()).unwrap_or(0));
        out.extend_from_slice(&wire::header(CoreId::new(core_id)));
        for r in &core.chunks {
            let payload = self.get_blob(r)?;
            let start = wire::begin_frame(&mut out);
            out.extend_from_slice(&payload);
            wire::end_frame(&mut out, start).map_err(|e| {
                ServeError::new(RemoteFault::CorruptBlob, codec_message!("chunk", e))
            })?;
        }
        Ok(out)
    }

    /// Reads run sidecar `file` (see [`sidecar_err`]).
    fn read_sidecar(&self, run: &str, file: &str) -> Result<Vec<u8>, ServeError> {
        fs::read(self.run_dir(run).join(file)).map_err(|e| sidecar_err(run, file, &e))
    }

    /// Materializes a whole run as its [`RunFiles`] — the body of a
    /// `RunBundle` response.
    ///
    /// # Errors
    ///
    /// As [`ChunkStore::catalog`] and [`ChunkStore::assemble_core`];
    /// missing sidecars are [`RemoteFault::Catalog`].
    pub fn assemble_run(&self, run: &str) -> Result<RunFiles, ServeError> {
        let catalog = self.catalog(run)?;
        let truth = self.read_sidecar(run, "truth.bin")?;
        let mut variants = Vec::new();
        for v in &catalog.variants {
            let logs = v
                .cores
                .iter()
                .enumerate()
                .map(|(k, core)| self.assemble_core(core, k as u8))
                .collect::<Result<_, _>>()?;
            let ordering = if v.has_ordering {
                Some(self.read_sidecar(run, &format!("{}.ordering", v.label))?)
            } else {
                None
            };
            variants.push(VariantFiles {
                label: v.label.clone(),
                logs,
                ordering,
            });
        }
        Ok(RunFiles {
            cores: usize::from(catalog.cores),
            variants,
            truth,
        })
    }

    /// Names of every sealed run, sorted.
    ///
    /// # Errors
    ///
    /// [`RemoteFault::Server`] if the runs directory cannot be read.
    pub fn list_runs(&self) -> Result<Vec<String>, ServeError> {
        let dir = self.root.join("runs");
        let mut names = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io_err(&dir, &e))? {
            let entry = entry.map_err(|e| io_err(&dir, &e))?;
            let path = entry.path();
            if path.is_dir() && path.join("catalog.bin").is_file() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Stats one run, verifying every blob it references (a damaged
    /// object surfaces here as [`RemoteFault::CorruptBlob`] before any
    /// replay is attempted).
    ///
    /// # Errors
    ///
    /// As [`ChunkStore::catalog`], plus [`RemoteFault::CorruptBlob`];
    /// a missing `truth.bin` is [`RemoteFault::Catalog`], as it is for
    /// [`ChunkStore::assemble_run`].
    pub fn stat_run(&self, run: &str) -> Result<(u8, Vec<VariantStat>, u64), ServeError> {
        let catalog = self.catalog(run)?;
        let mut variants = Vec::new();
        for v in &catalog.variants {
            for r in v.cores.iter().flat_map(|c| &c.chunks) {
                self.get_blob(r)?;
            }
            variants.push(VariantStat {
                label: v.label.clone(),
                chunks: v.cores.iter().map(|c| c.chunks.len() as u64).sum(),
                log_bytes: v.cores.iter().map(CatalogCore::log_bytes).sum(),
                has_ordering: v.has_ordering,
            });
        }
        let truth = fs::metadata(self.run_dir(run).join("truth.bin"))
            .map_err(|e| sidecar_err(run, "truth.bin", &e))?;
        Ok((catalog.cores, variants, truth.len()))
    }

    /// Store-wide dedup accounting: distinct blobs on disk, the bytes
    /// they occupy, and the chunk bytes all catalogs reference.
    ///
    /// # Errors
    ///
    /// [`RemoteFault::Server`] on filesystem failure,
    /// [`RemoteFault::Catalog`] if any catalog is damaged.
    pub fn dedup_stat(&self) -> Result<(u64, u64, u64), ServeError> {
        let objects = self.root.join("objects");
        let mut blobs = 0u64;
        let mut blob_bytes = 0u64;
        for entry in fs::read_dir(&objects).map_err(|e| io_err(&objects, &e))? {
            let entry = entry.map_err(|e| io_err(&objects, &e))?;
            let meta = entry.metadata().map_err(|e| io_err(&objects, &e))?;
            if meta.is_file() && entry.path().extension().is_some_and(|e| e == "chunk") {
                blobs += 1;
                blob_bytes += meta.len();
            }
        }
        let mut logical_bytes = 0u64;
        for run in self.list_runs()? {
            let catalog = self.catalog(&run)?;
            logical_bytes += catalog
                .variants
                .iter()
                .flat_map(|v| &v.cores)
                .flat_map(|c| &c.chunks)
                .map(|r| r.len)
                .sum::<u64>();
        }
        Ok((blobs, blob_bytes, logical_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rr_serve_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_dedups_and_get_verifies() {
        let root = scratch("cas");
        let store = ChunkStore::open(&root).expect("opens");
        let (r1, existed1) = store.put_chunk(b"hello chunk").expect("puts");
        assert!(!existed1);
        let (r2, existed2) = store.put_chunk(b"hello chunk").expect("puts");
        assert!(existed2);
        assert_eq!(r1, r2);
        assert_eq!(store.get_blob(&r1).expect("reads"), b"hello chunk");

        // Damage the blob on disk: reads become a typed CorruptBlob.
        let path = root.join("objects").join(r1.object_name());
        fs::write(&path, b"hello chunk!").expect("overwrite");
        let err = store.get_blob(&r1).expect_err("corrupt");
        assert_eq!(err.kind, RemoteFault::CorruptBlob);
        fs::write(&path, b"hellp chunk").expect("overwrite");
        assert_eq!(
            store.get_blob(&r1).expect_err("corrupt").kind,
            RemoteFault::CorruptBlob
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// Damage to a catalog is caught by the corruption harness over a
    /// real seal's catalog (`tests/round_trip.rs`).
    #[test]
    fn catalog_round_trips_and_refuses_other_wire_versions() {
        use relaxreplay::wire::{chunk_spans, encode_chunked};
        use relaxreplay::{IntervalLog, LogEntry};

        // Core 0 logs one chunk, core 1 nothing.
        let mut busy = IntervalLog::new(CoreId::new(0));
        busy.entries.push(LogEntry::InorderBlock { instrs: 4096 });
        let encoded = [
            encode_chunked(&busy),
            encode_chunked(&IntervalLog::new(CoreId::new(1))),
        ];
        let cores = encoded
            .iter()
            .map(|bytes| {
                let (_, _, frames, _) = chunk_spans(bytes).expect("header");
                CatalogCore {
                    wire_version: 3,
                    chunks: frames.iter().map(|f| ChunkRef::of(f.payload)).collect(),
                }
            })
            .collect();
        let catalog = Catalog {
            cores: 2,
            variants: vec![CatalogVariant {
                label: "Opt-4K".into(),
                cores,
                has_ordering: true,
            }],
        };
        let bytes = catalog.to_bytes();
        assert_eq!(Catalog::from_bytes(&bytes).expect("decodes"), catalog);
        assert_eq!(
            catalog.log_bytes(),
            encoded.iter().map(|b| b.len() as u64).sum::<u64>()
        );
        // A CRC-valid catalog naming another wire version is corrupt too.
        let mut old = catalog.clone();
        old.variants[0].cores[1].wire_version = 2;
        let err = Catalog::from_bytes(&old.to_bytes()).expect_err("v2 refused");
        assert_eq!(err.kind, RemoteFault::Catalog);
    }

    #[test]
    fn divergent_reseal_conflicts_identical_reseal_is_idempotent() {
        let root = scratch("seal");
        let store = ChunkStore::open(&root).expect("opens");
        let (r, _) = store.put_chunk(b"payload").expect("puts");
        let variants = vec![SealedVariant {
            label: "Base".into(),
            cores: vec![CatalogCore {
                wire_version: 3,
                chunks: vec![r],
            }],
            ordering: None,
        }];
        store
            .seal_run("run-a", 1, variants.clone(), b"truth")
            .expect("seals");
        store
            .seal_run("run-a", 1, variants.clone(), b"truth")
            .expect("idempotent reseal");
        let (r2, _) = store.put_chunk(b"other payload").expect("puts");
        let divergent = vec![SealedVariant {
            label: "Base".into(),
            cores: vec![CatalogCore {
                wire_version: 3,
                chunks: vec![r2],
            }],
            ordering: None,
        }];
        let err = store
            .seal_run("run-a", 1, divergent, b"truth")
            .expect_err("conflict");
        assert_eq!(err.kind, RemoteFault::Conflict);
        let _ = fs::remove_dir_all(&root);
    }
}
