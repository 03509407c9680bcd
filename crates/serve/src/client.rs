//! RRSP/v2 clients: the raw [`Client`] and the [`RemoteStore`] that makes
//! an `rr-serve` backend a drop-in [`RunStore`].
//!
//! [`RemoteStore`] only moves a run's bytes. A save encodes the run with
//! [`RunFiles::encode`], the encoder a local save uses, and streams each
//! `.rrlog` as its chunks. So the server's reassembled files are
//! byte-identical to the local ones, which the round-trip CI job diffs
//! directly. A load fetches the run's [`RunFiles`] in one `RunBundle` and
//! decodes them with [`RunFiles::decode`], the decoder a local load uses.

use std::net::TcpStream;
use std::path::Path;

use relaxreplay::wire::{chunk_spans, VERSION};
use rr_sim::logdir::{write_run_dir, RunFiles};
use rr_sim::{
    DedupStat, LogDirError, RemoteFault, RunResult, RunStat, RunStore, SavedRun, StoreError,
};

use crate::proto::{self, Msg, SealCore, SealVariant, PROTO_VERSION};

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
        proto::write_frame(&mut self.stream, msg)?;
        match proto::read_frame(&mut self.stream)? {
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

    /// Fetches a whole run as the bytes of its files.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn get_run(&mut self, run: &str) -> Result<RunFiles, StoreError> {
        match self.call(&Msg::GetRun {
            run: run.to_string(),
        })? {
            Msg::RunBundle(files) => Ok(files),
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
        let files = self.get_run(run)?;
        Ok(write_run_dir(out, run, &files, &[])?)
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
                variants,
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
    match chunk_spans(bytes) {
        Ok((_, _, frames, None)) => Ok(frames.iter().map(|f| f.payload).collect()),
        Ok((.., Some(e))) | Err(e) => Err(StoreError::remote(
            RemoteFault::Protocol,
            format!("encoded log unparseable: {e}"),
        )),
    }
}

impl RunStore for RemoteStore {
    fn describe(&self) -> String {
        format!("rr://{}", self.addr)
    }

    fn save_run(&self, name: &str, result: &RunResult) -> Result<u64, StoreError> {
        let files = RunFiles::encode(result);
        let cores = u8::try_from(files.cores).map_err(|_| {
            StoreError::remote(
                RemoteFault::Protocol,
                format!("{} cores exceed the protocol's u8 core id", files.cores),
            )
        })?;
        let log_bytes = files.log_bytes();
        let mut client = Client::connect(&self.addr)?;
        let mut seal_variants = Vec::with_capacity(files.variants.len());
        for v in files.variants {
            let mut seal_cores = Vec::with_capacity(v.logs.len());
            for (core, bytes) in v.logs.iter().enumerate() {
                let payloads = chunk_payloads(bytes)?;
                for (seq, payload) in payloads.iter().enumerate() {
                    client.put_chunk(name, &v.label, core as u8, seq as u64, VERSION, payload)?;
                }
                seal_cores.push(SealCore {
                    wire_version: VERSION,
                    chunks: payloads.len() as u64,
                });
            }
            seal_variants.push(SealVariant {
                label: v.label,
                cores: seal_cores,
                ordering: v.ordering,
            });
        }
        client.seal_run(name, cores, seal_variants, files.truth)?;
        Ok(log_bytes)
    }

    /// Fetches the run's [`RunFiles`] and decodes them. A log that fails
    /// to decode is [`RemoteFault::CorruptBlob`]; any other inconsistency
    /// of the fetched files is [`RemoteFault::Catalog`].
    fn load_run_with(&self, name: &str, workers: usize) -> Result<SavedRun, StoreError> {
        let files = Client::connect(&self.addr)?.get_run(name)?;
        files.decode(name, workers).map_err(|e| {
            let kind = match e {
                LogDirError::Wire { .. } => RemoteFault::CorruptBlob,
                _ => RemoteFault::Catalog,
            };
            StoreError::remote(kind, format!("fetched run {name:?}: {e}"))
        })
    }

    fn list_runs(&self) -> Result<Vec<String>, StoreError> {
        Client::connect(&self.addr)?.list_runs()
    }

    fn stat_run(&self, name: &str) -> Result<RunStat, StoreError> {
        Client::connect(&self.addr)?.stat(name)
    }
}
