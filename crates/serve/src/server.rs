//! The rr-serve TCP server: a `std::net` listener feeding a fixed pool
//! of worker threads (the sweep-engine shape — the workspace is offline,
//! so no async runtime), each worker owning one client connection at a
//! time and speaking RRSP/v2 over it.
//!
//! Ingest isolation: every connection stages its `PutChunk`s privately
//! and only `SealRun` publishes them — atomically, via the catalog
//! rename in [`ChunkStore::seal_run`]. Four recorders streaming four
//! runs concurrently therefore cannot interleave: blobs dedup freely
//! across connections (identical content, idempotent writes), but run
//! *membership* is decided by each connection's own staging table.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rr_sim::logdir::check_name;
use rr_sim::RemoteFault;

use crate::proto::{self, Msg, SealVariant, PROTO_VERSION};
use crate::store::{CatalogCore, ChunkRef, ChunkStore, SealedVariant};
use crate::ServeError;

/// Fault injection for the server, driven by the crash regression tests:
/// after accepting `kill_after_chunks` `PutChunk` frames on a connection,
/// the server drops that socket without a response — exactly what a
/// crashed backend looks like to a client mid-save.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultSpec {
    /// Kill each connection after this many accepted chunks
    /// (`None` = never).
    pub kill_after_chunks: Option<u64>,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Store root directory.
    pub root: PathBuf,
    /// Worker threads (connections served concurrently). 0 = available
    /// parallelism, at least 4 so the concurrent-ingest guarantee holds
    /// even on small hosts.
    pub workers: usize,
    /// Fault injection (tests only).
    pub fault: FaultSpec,
}

impl ServerConfig {
    /// A production config for `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            root: root.into(),
            workers: 0,
            fault: FaultSpec::default(),
        }
    }

    /// The worker count `serve` will actually spawn (resolving the
    /// `0 = host parallelism, min 4` default).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        rr_replay::host_parallelism().max(4)
    }
}

/// Ingest counters, exposed for the bench harness and logs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Chunks accepted across all connections.
    pub chunks: AtomicU64,
    /// Chunk payload bytes accepted.
    pub chunk_bytes: AtomicU64,
    /// Chunks that hit an existing blob (dedup).
    pub dedup_hits: AtomicU64,
    /// Runs sealed.
    pub seals: AtomicU64,
}

struct Shared {
    store: ChunkStore,
    fault: FaultSpec,
    stats: ServerStats,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    conns: Mutex<Vec<TcpStream>>,
}

/// A running server: bind, serve, shut down. Dropping the handle
/// without calling [`ServerHandle::shutdown`] leaves the threads
/// serving until process exit (what the `rr-serve` binary wants).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use port 0 in tests to get an ephemeral one).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address formatted as an `rr://` URL prefix.
    #[must_use]
    pub fn url(&self) -> String {
        format!("rr://{}", self.addr)
    }

    /// The server's ingest counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Direct access to the underlying store (tests and the bench
    /// harness inspect dedup state through this).
    #[must_use]
    pub fn store(&self) -> &ChunkStore {
        &self.shared.store
    }

    /// Stops accepting, closes every live connection, and joins all
    /// threads. In-flight requests see their sockets shut down.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Unblock workers parked on reads.
        for c in self.shared.conns.lock().expect("conns lock").iter() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        self.shared.available.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks the calling thread until the server exits (the `rr-serve`
    /// binary's serve loop; only shutdown or process death end it).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and starts serving RRSP/v2 in background threads.
///
/// # Errors
///
/// Returns [`RemoteFault::Server`] if the address cannot be bound or
/// the store cannot be opened.
pub fn serve(addr: &str, config: ServerConfig) -> Result<ServerHandle, ServeError> {
    let store = ChunkStore::open(&config.root)?;
    let listener = TcpListener::bind(addr)
        .map_err(|e| ServeError::new(RemoteFault::Server, format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| ServeError::new(RemoteFault::Server, format!("local_addr: {e}")))?;
    let shared = Arc::new(Shared {
        store,
        fault: config.fault,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        conns: Mutex::new(Vec::new()),
    });

    let workers = (0..config.effective_workers())
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rr-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("rr-serve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Request/response protocol: never batch small frames.
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    accept_shared.conns.lock().expect("conns lock").push(clone);
                }
                accept_shared
                    .queue
                    .lock()
                    .expect("queue lock")
                    .push_back(stream);
                accept_shared.available.notify_one();
            }
            // Wake every worker so they observe shutdown.
            accept_shared.available.notify_all();
        })
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr: local,
        shared,
        accept_thread: Some(accept_thread),
        workers,
    })
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                queue = shared.available.wait(queue).expect("queue wait");
            }
        };
        // A protocol error or client disconnect ends this connection
        // only; the worker goes back for the next one.
        let _ = handle_connection(shared, stream);
    }
}

/// One staged core log: chunk refs by sequence number.
type StagedLog = Vec<(u64, ChunkRef)>;

/// One connection's staged-but-unsealed chunks, keyed (run, variant, core).
#[derive(Default)]
struct Staging {
    logs: HashMap<(String, String, u8), StagedLog>,
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) -> Result<(), ServeError> {
    let mut staging = Staging::default();
    let mut accepted_chunks = 0u64;

    // Handshake first: anything else is a protocol error.
    match proto::read_frame(&mut stream)? {
        Some(Msg::Hello { version }) if version == PROTO_VERSION => {
            proto::write_frame(&mut stream, &Msg::HelloAck { version })?;
        }
        Some(Msg::Hello { version }) => {
            let err = Msg::Error {
                kind: RemoteFault::UnsupportedVersion,
                detail: format!("server speaks RRSP/{PROTO_VERSION}, client sent {version}"),
            };
            proto::write_frame(&mut stream, &err)?;
            return Ok(());
        }
        Some(_) | None => return Ok(()),
    }

    while let Some(msg) = proto::read_frame(&mut stream)? {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        if let Msg::PutChunk { .. } = &msg {
            if let Some(kill_after) = shared.fault.kill_after_chunks {
                if accepted_chunks >= kill_after {
                    // Injected crash: drop the socket, no response.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return Ok(());
                }
            }
        }
        let reply = handle_request(shared, &mut staging, msg, &mut accepted_chunks);
        let frame = match reply {
            Ok(m) => m,
            Err(e) => Msg::Error {
                kind: e.kind,
                detail: e.detail,
            },
        };
        proto::write_frame(&mut stream, &frame)?;
    }
    Ok(())
}

fn handle_request(
    shared: &Shared,
    staging: &mut Staging,
    msg: Msg,
    accepted_chunks: &mut u64,
) -> Result<Msg, ServeError> {
    match msg {
        Msg::PutChunk {
            run,
            variant,
            core,
            seq,
            wire_version,
            payload,
        } => {
            check_name(&run).map_err(|e| ServeError::new(RemoteFault::BadName, e.to_string()))?;
            check_name(&variant)
                .map_err(|e| ServeError::new(RemoteFault::BadName, e.to_string()))?;
            check_wire_version(wire_version)?;
            let (r, dedup) = shared.store.put_chunk(&payload)?;
            staging
                .logs
                .entry((run, variant, core))
                .or_default()
                .push((seq, r));
            *accepted_chunks += 1;
            shared.stats.chunks.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .chunk_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            if dedup {
                shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Msg::PutAck { dedup })
        }
        Msg::SealRun {
            run,
            cores,
            variants,
            truth,
        } => {
            let sealed = collect_staged(staging, &run, &variants)?;
            let log_bytes = shared.store.seal_run(&run, cores, sealed, &truth)?;
            // Sealed chunks leave the staging table; an accidental
            // double-seal over the same connection revalidates cleanly
            // against zero staged chunks only if the run declared zero.
            staging
                .logs
                .retain(|(staged_run, _, _), _| staged_run != &run);
            shared.stats.seals.fetch_add(1, Ordering::Relaxed);
            Ok(Msg::SealAck { log_bytes })
        }
        Msg::GetRun { run } => Ok(Msg::RunBundle(shared.store.assemble_run(&run)?)),
        Msg::ListRuns => Ok(Msg::ListAck {
            runs: shared.store.list_runs()?,
        }),
        Msg::Stat { run } => {
            let (cores, variants, truth_bytes) = shared.store.stat_run(&run)?;
            let (blobs, blob_bytes, logical_bytes) = shared.store.dedup_stat()?;
            Ok(Msg::StatAck {
                cores,
                variants,
                truth_bytes,
                blobs,
                blob_bytes,
                logical_bytes,
            })
        }
        Msg::Hello { .. } => Err(ServeError::new(RemoteFault::Protocol, "duplicate hello")),
        other => Err(ServeError::new(
            RemoteFault::Protocol,
            format!("unexpected client frame {other:?}"),
        )),
    }
}

/// Refuses every `.rrlog` wire version but [`relaxreplay::wire::VERSION`]:
/// a run stamped with any other would be refused, or misread, when fetched.
fn check_wire_version(wire_version: u16) -> Result<(), ServeError> {
    if wire_version == relaxreplay::wire::VERSION {
        return Ok(());
    }
    Err(ServeError::new(
        RemoteFault::Protocol,
        format!(
            "unsupported .rrlog wire version {wire_version} (this server stores only v{})",
            relaxreplay::wire::VERSION
        ),
    ))
}

/// Validates a seal declaration against this connection's staging table
/// and produces the store's sealed-variant form: every declared
/// (variant, core) must carry the current wire version and have exactly
/// its declared chunks staged, with contiguous sequence numbers from 0.
fn collect_staged(
    staging: &mut Staging,
    run: &str,
    variants: &[SealVariant],
) -> Result<Vec<SealedVariant>, ServeError> {
    let mut sealed = Vec::new();
    for v in variants {
        let mut catalog_cores = Vec::new();
        for (k, declared) in v.cores.iter().enumerate() {
            check_wire_version(declared.wire_version)?;
            let key = (run.to_string(), v.label.clone(), k as u8);
            let mut staged = match staging.logs.get(&key) {
                Some(refs) => refs.clone(),
                None if declared.chunks == 0 => Vec::new(),
                None => {
                    return Err(ServeError::new(
                        RemoteFault::Protocol,
                        format!(
                            "seal declares {} chunks for {}/core{k} but none were staged \
                             on this connection",
                            declared.chunks, v.label
                        ),
                    ))
                }
            };
            staged.sort_by_key(|(seq, _)| *seq);
            if staged.len() as u64 != declared.chunks
                || staged
                    .iter()
                    .enumerate()
                    .any(|(i, (seq, _))| *seq != i as u64)
            {
                return Err(ServeError::new(
                    RemoteFault::Protocol,
                    format!(
                        "{}/core{k}: staged {} chunks, seal declares {} (sequence must be \
                         contiguous from 0)",
                        v.label,
                        staged.len(),
                        declared.chunks
                    ),
                ));
            }
            catalog_cores.push(CatalogCore {
                wire_version: declared.wire_version,
                chunks: staged.into_iter().map(|(_, r)| r).collect(),
            });
        }
        sealed.push(SealedVariant {
            label: v.label.clone(),
            cores: catalog_cores,
            ordering: v.ordering.clone(),
        });
    }
    Ok(sealed)
}
