//! The rr-serve TCP server: a `std::net` listener feeding a fixed pool
//! of worker threads (the sweep-engine shape — the workspace is offline,
//! so no async runtime), each worker owning one client connection at a
//! time and speaking RRSP/v3 over it.
//!
//! Ingest isolation: a run arrives whole, in one `PutRun` frame, and
//! [`ChunkStore::save_run`] checks all of it before it stores a blob and
//! publishes it only by the final catalog rename. Four recorders saving
//! four runs concurrently therefore cannot interleave: blobs dedup freely
//! across connections (identical content, idempotent writes), but run
//! *membership* is decided by each run's own frame. The server keeps no
//! state between frames, so a client that hangs up mid-save leaves
//! nothing behind.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rr_sim::RemoteFault;

use crate::proto::{self, Msg, PROTO_VERSION};
use crate::store::ChunkStore;
use crate::ServeError;

/// Fault injection for the server, driven by the crash regression tests:
/// after storing `kill_after_chunks` chunk blobs of a save, the server
/// drops that socket without a response and without publishing the run —
/// exactly what a crashed backend looks like to a client mid-save.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultSpec {
    /// Kill the connection after storing this many chunks of one save
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
    /// Chunks stored across all saves, dedup hits included.
    pub chunks: AtomicU64,
    /// Runs saved.
    pub seals: AtomicU64,
}

struct Shared {
    store: ChunkStore,
    fault: FaultSpec,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Accepted connections waiting for a worker, with their ids.
    queue: Mutex<VecDeque<(u64, TcpStream)>>,
    available: Condvar,
    /// A clone of every open connection's socket by id, so shutdown can
    /// unblock the workers parked on them; a worker removes its entry
    /// when the connection ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
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
        for c in self.shared.conns.lock().expect("conns lock").values() {
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

/// Binds `addr` and starts serving RRSP/v3 in background threads.
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
        conns: Mutex::new(HashMap::new()),
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
            for (id, conn) in (0u64..).zip(listener.incoming()) {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if !admit(&accept_shared, id, conn) {
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
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

/// How long the accept loop waits after a failed `accept`. An error such
/// as EMFILE lasts until some connection closes, so retrying at once spins.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Hands one `accept` result to the workers: registers the connection
/// under `id` and queues it. Returns `false` if `accept` failed.
fn admit(shared: &Shared, id: u64, conn: std::io::Result<TcpStream>) -> bool {
    let Ok(stream) = conn else { return false };
    // Request/response protocol: never batch small frames.
    let _ = stream.set_nodelay(true);
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().expect("conns lock").insert(id, clone);
    }
    shared
        .queue
        .lock()
        .expect("queue lock")
        .push_back((id, stream));
    shared.available.notify_one();
    true
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, stream) = {
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
        // only; the worker closes it and goes back for the next one.
        let _ = handle_connection(shared, stream);
        shared.conns.lock().expect("conns lock").remove(&id);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) -> Result<(), ServeError> {
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
        let reply = handle_request(shared, &stream, msg).unwrap_or_else(|e| Msg::Error {
            kind: e.kind,
            detail: e.detail,
        });
        proto::write_frame(&mut stream, &reply)?;
    }
    Ok(())
}

fn handle_request(shared: &Shared, stream: &TcpStream, msg: Msg) -> Result<Msg, ServeError> {
    match msg {
        Msg::PutRun { run, files } => {
            let mut stored = 0;
            let log_bytes = shared.store.save_run(&run, &files, || {
                shared.stats.chunks.fetch_add(1, Ordering::Relaxed);
                stored += 1;
                if shared.fault.kill_after_chunks != Some(stored) {
                    return Ok(());
                }
                // Injected crash: the socket goes now, so the error below
                // never reaches the client and the run is never published.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                Err(ServeError::new(RemoteFault::Server, "injected crash"))
            })?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_queues_an_accepted_connection_and_refuses_a_failed_accept() {
        let root = std::env::temp_dir().join(format!("rr_serve_admit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shared = Shared {
            store: ChunkStore::open(&root).expect("open store"),
            fault: FaultSpec::default(),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
        };
        // EMFILE: the process is out of file descriptors. Nothing is
        // queued, and the loop is told to back off.
        let emfile = std::io::Error::from_raw_os_error(24);
        assert!(!admit(&shared, 0, Err(emfile)));
        assert!(shared.queue.lock().unwrap().is_empty());
        assert!(shared.conns.lock().unwrap().is_empty());

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        assert!(admit(&shared, 1, Ok(stream)));
        let queued: Vec<u64> = shared
            .queue
            .lock()
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(queued, [1]);
        assert!(shared.conns.lock().unwrap().contains_key(&1));
        drop(shared);
        std::fs::remove_dir_all(&root).expect("remove store");
    }
}
