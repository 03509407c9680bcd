//! RRSP/v2 clients: the raw [`Client`] and the [`RemoteStore`] that makes
//! an `rr-serve` backend a drop-in [`RunStore`]. Reading a log back is
//! [`RemoteStore`]'s job: it fetches a variant's `.rrlog` bytes and
//! decodes them whole, as a local load does.
//!
//! Saving through [`RemoteStore`] is deliberately byte-deterministic:
//! logs are encoded with the same default `ChunkedWriter` parameters a
//! local `--save-logs` uses, so the server's reassembled `.rrlog` files
//! are byte-identical to the local ones — the round-trip CI job diffs
//! them directly.

use std::net::TcpStream;
use std::path::Path;

use relaxreplay::wire::{chunk_spans, encode_chunked};
use relaxreplay::IntervalLog;
use rr_replay::decode_logs_parallel;
use rr_sim::logdir::{decode_ordering, decode_truth, encode_ordering, encode_truth, write_run_dir};
use rr_sim::{
    DedupStat, RemoteFault, RunResult, RunStat, RunStore, SavedRun, SavedVariant, StoreError,
    VariantStat,
};

use crate::proto::{self, BundleVariant, Msg, SealCore, SealVariant, StatVariant, PROTO_VERSION};
use crate::ServeError;

fn serve_err(e: ServeError) -> StoreError {
    StoreError::Remote {
        kind: e.kind,
        detail: e.detail,
    }
}

/// A connected RRSP/v2 conversation. One request at a time; chunk
/// staging is per-connection on the server, so a whole run's ingest —
/// every variant, every core, the seal — flows over one `Client`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: String,
}

impl Client {
    /// Connects and completes the version handshake.
    ///
    /// # Errors
    ///
    /// [`RemoteFault::Connect`] if the TCP connect fails,
    /// [`RemoteFault::UnsupportedVersion`] or
    /// [`RemoteFault::Protocol`] if the handshake does.
    pub fn connect(addr: &str) -> Result<Self, StoreError> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            StoreError::remote(RemoteFault::Connect, format!("connect {addr}: {e}"))
        })?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            addr: addr.to_string(),
        };
        match client.call(&Msg::Hello {
            version: PROTO_VERSION,
        })? {
            Msg::HelloAck { version } if version == PROTO_VERSION => Ok(client),
            Msg::HelloAck { version } => Err(StoreError::remote(
                RemoteFault::UnsupportedVersion,
                format!("server answered hello with version {version}"),
            )),
            other => Err(StoreError::remote(
                RemoteFault::Protocol,
                format!("unexpected hello response {other:?}"),
            )),
        }
    }

    /// The address this client is connected to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/response exchange. Server-reported failures come
    /// back as [`StoreError::Remote`] with their typed fault kind.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`RemoteFault::Io`].
    pub fn call(&mut self, msg: &Msg) -> Result<Msg, StoreError> {
        proto::write_frame(&mut self.stream, msg).map_err(serve_err)?;
        match proto::read_frame(&mut self.stream).map_err(serve_err)? {
            Some(Msg::Error { kind, detail }) => Err(StoreError::Remote { kind, detail }),
            Some(reply) => Ok(reply),
            None => Err(StoreError::remote(
                RemoteFault::Io,
                format!("{}: server closed the connection", self.addr),
            )),
        }
    }

    fn unexpected(reply: &Msg) -> StoreError {
        StoreError::remote(
            RemoteFault::Protocol,
            format!("unexpected server reply {reply:?}"),
        )
    }

    /// Stages one chunk. Returns whether the blob already existed.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn put_chunk(
        &mut self,
        run: &str,
        variant: &str,
        core: u8,
        seq: u64,
        wire_version: u16,
        payload: &[u8],
    ) -> Result<bool, StoreError> {
        match self.call(&Msg::PutChunk {
            run: run.to_string(),
            variant: variant.to_string(),
            core,
            seq,
            wire_version,
            payload: payload.to_vec(),
        })? {
            Msg::PutAck { dedup } => Ok(dedup),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Seals a staged run. Returns the logical `.rrlog` bytes.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn seal_run(
        &mut self,
        run: &str,
        cores: u8,
        variants: Vec<SealVariant>,
        truth: Vec<u8>,
    ) -> Result<u64, StoreError> {
        match self.call(&Msg::SealRun {
            run: run.to_string(),
            cores,
            variants,
            truth,
        })? {
            Msg::SealAck { log_bytes } => Ok(log_bytes),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetches a whole run.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn get_run(&mut self, run: &str) -> Result<(u8, Vec<BundleVariant>, Vec<u8>), StoreError> {
        match self.call(&Msg::GetRun {
            run: run.to_string(),
        })? {
            Msg::RunBundle {
                cores,
                variants,
                truth,
            } => Ok((cores, variants, truth)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetches run `run` into `out` as a local log directory (what
    /// `--save-logs` writes). Returns the `.rrlog` bytes written.
    ///
    /// # Errors
    ///
    /// As [`Client::get_run`]; a server-supplied name that is not a safe
    /// path component is [`rr_sim::LogDirError::BadName`] (inside
    /// [`StoreError::Local`]), and nothing is written.
    pub fn fetch_run(&mut self, run: &str, out: &Path) -> Result<u64, StoreError> {
        let (cores, variants, truth) = self.get_run(run)?;
        Ok(write_run_dir(
            out,
            run,
            usize::from(cores),
            &variants,
            &truth,
            &[],
        )?)
    }

    /// Lists sealed runs.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn list_runs(&mut self) -> Result<Vec<String>, StoreError> {
        match self.call(&Msg::ListRuns)? {
            Msg::ListAck { runs } => Ok(runs),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Stats one run (the server verifies every referenced blob).
    ///
    /// # Errors
    ///
    /// As [`Client::call`]; a damaged blob is
    /// [`RemoteFault::CorruptBlob`].
    pub fn stat(&mut self, run: &str) -> Result<RunStat, StoreError> {
        match self.call(&Msg::Stat {
            run: run.to_string(),
        })? {
            Msg::StatAck {
                cores,
                variants,
                truth_bytes,
                blobs,
                blob_bytes,
                logical_bytes,
            } => Ok(RunStat {
                name: run.to_string(),
                cores: usize::from(cores),
                variants: variants
                    .into_iter()
                    .map(|v: StatVariant| VariantStat {
                        label: v.label,
                        chunks: v.chunks,
                        log_bytes: v.log_bytes,
                        has_ordering: v.has_ordering,
                    })
                    .collect(),
                truth_bytes,
                dedup: Some(DedupStat {
                    blobs,
                    blob_bytes,
                    logical_bytes,
                }),
            }),
            other => Err(Self::unexpected(&other)),
        }
    }
}

/// The remote [`RunStore`]: an `rr-serve` backend at `addr`, addressed
/// as `rr://addr`. Each operation opens its own connection, so the
/// store is freely shared across threads.
#[derive(Clone, Debug)]
pub struct RemoteStore {
    addr: String,
}

impl RemoteStore {
    /// A store speaking to the server at `addr` (`host:port`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteStore { addr: addr.into() }
    }
}

/// Splits an encoded `.rrlog` byte stream into its chunk payloads.
fn chunk_payloads(bytes: &[u8]) -> Result<Vec<&[u8]>, StoreError> {
    let (_, _, spans, damage) = chunk_spans(bytes).map_err(|e| {
        StoreError::remote(
            RemoteFault::Protocol,
            format!("encoded log unparseable: {e}"),
        )
    })?;
    if let Some(e) = damage {
        return Err(StoreError::remote(
            RemoteFault::Protocol,
            format!("encoded log truncated: {e}"),
        ));
    }
    Ok(spans
        .iter()
        .map(|s| &bytes[s.offset + 4..s.offset + 4 + s.payload_bytes])
        .collect())
}

impl RunStore for RemoteStore {
    fn describe(&self) -> String {
        format!("rr://{}", self.addr)
    }

    fn save_run(&self, name: &str, result: &RunResult) -> Result<u64, StoreError> {
        let cores = result.recorded.load_traces.len();
        let cores = u8::try_from(cores).map_err(|_| {
            StoreError::remote(
                RemoteFault::Protocol,
                format!("{cores} cores exceed the protocol's u8 core id"),
            )
        })?;
        let mut client = Client::connect(&self.addr)?;
        let mut seal_variants = Vec::new();
        let mut total_bytes = 0u64;
        for variant in &result.variants {
            let label = variant.spec.label();
            let mut seal_cores = vec![
                SealCore {
                    wire_version: relaxreplay::wire::VERSION,
                    chunks: 0,
                };
                usize::from(cores)
            ];
            for log in &variant.logs {
                // Identical encoder parameters to the local save path:
                // the server's reassembly is byte-identical to a local
                // save of the same log.
                let bytes = encode_chunked(log);
                total_bytes += bytes.len() as u64;
                let payloads = chunk_payloads(&bytes)?;
                let core = log.core.index();
                for (seq, payload) in payloads.iter().enumerate() {
                    client.put_chunk(
                        name,
                        &label,
                        core as u8,
                        seq as u64,
                        relaxreplay::wire::VERSION,
                        payload,
                    )?;
                }
                let slot = seal_cores.get_mut(core).ok_or_else(|| {
                    StoreError::remote(
                        RemoteFault::Protocol,
                        format!("log for core {core} exceeds run core count {cores}"),
                    )
                })?;
                *slot = SealCore {
                    wire_version: relaxreplay::wire::VERSION,
                    chunks: payloads.len() as u64,
                };
            }
            seal_variants.push(SealVariant {
                label,
                cores: seal_cores,
                ordering: (!variant.ordering.is_empty())
                    .then(|| encode_ordering(&variant.ordering)),
            });
        }
        client.seal_run(name, cores, seal_variants, encode_truth(&result.recorded))?;
        Ok(total_bytes)
    }

    fn load_run_with(&self, name: &str, workers: usize) -> Result<SavedRun, StoreError> {
        let mut client = Client::connect(&self.addr)?;
        let (cores, variants, truth) = client.get_run(name)?;
        let cores = usize::from(cores);
        let catalog_err = |d: String| StoreError::remote(RemoteFault::Catalog, d);

        for v in &variants {
            if v.logs.len() != cores {
                return Err(catalog_err(format!(
                    "variant {:?} bundles {} logs for a {cores}-core run",
                    v.label,
                    v.logs.len()
                )));
            }
        }
        // Every (variant, core) file is an independent stream: decode them
        // all in one parallel batch, variant-major.
        let files: Vec<&[u8]> = variants
            .iter()
            .flat_map(|v| &v.logs)
            .map(Vec::as_slice)
            .collect();
        let mut decoded = decode_logs_parallel(&files, workers)
            .map_err(|e| {
                let v = &variants[e.index / cores];
                StoreError::remote(
                    RemoteFault::CorruptBlob,
                    format!(
                        "{}/core{}: fetched log failed to decode: {}",
                        v.label,
                        e.index % cores,
                        e.source
                    ),
                )
            })?
            .into_iter();

        let mut saved_variants = Vec::new();
        for v in &variants {
            let logs: Vec<IntervalLog> = decoded.by_ref().take(cores).collect();
            for (k, log) in logs.iter().enumerate() {
                if log.core.index() != k {
                    return Err(catalog_err(format!(
                        "{}/core{k}: fetched log claims core {}",
                        v.label,
                        log.core.index()
                    )));
                }
            }
            let ordering = match &v.ordering {
                None => None,
                Some(bytes) => {
                    let ord = decode_ordering(bytes).map_err(|e| catalog_err(e.to_string()))?;
                    if ord.len() != cores {
                        return Err(catalog_err(
                            "ordering sidecar core count != run cores".to_string(),
                        ));
                    }
                    Some(ord)
                }
            };
            saved_variants.push(SavedVariant {
                label: v.label.clone(),
                logs,
                ordering,
            });
        }
        let recorded = decode_truth(&truth).map_err(|e| catalog_err(e.to_string()))?;
        if recorded.load_traces.len() != cores {
            return Err(catalog_err("truth trace count != run cores".to_string()));
        }
        Ok(SavedRun {
            name: name.to_string(),
            variants: saved_variants,
            recorded,
        })
    }

    fn list_runs(&self) -> Result<Vec<String>, StoreError> {
        Client::connect(&self.addr)?.list_runs()
    }

    fn stat_run(&self, name: &str) -> Result<RunStat, StoreError> {
        Client::connect(&self.addr)?.stat(name)
    }
}
