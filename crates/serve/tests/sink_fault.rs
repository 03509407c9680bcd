//! RemoteSink failure semantics: a server that drops the socket
//! mid-stream must poison the recorder, keep the un-streamed suffix
//! buffered, and leave every entry accounted for across the server,
//! the sink's unsent buffer, and the recorder — the PR 4 sink-fault
//! contract, network edition.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

use relaxreplay::{Design, LogSink, Recorder, RecorderConfig};
use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::{AccessKind, CoreId, LineAddr};
use rr_serve::proto::{SealCore, SealVariant};
use rr_serve::{serve, Client, FaultSpec, RemoteSink, ServerConfig};
use rr_sim::{RemoteFault, StoreError};

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rr-serve-fault-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drives a recorder through a deterministic synthetic access stream
/// (the recorder unit tests' `drive` idiom): dispatch, perform, retire,
/// tick per access, with periodic conflicting snoops so intervals keep
/// terminating and log entries keep flowing into the sink.
fn drive(rec: &mut Recorder, accesses: u64) {
    for seq in 0..accesses {
        assert!(rec.on_dispatch(seq, true));
        rec.on_perform(&PerformRecord {
            seq,
            kind: AccessKind::Load,
            addr: (seq % 64) * 8,
            line: LineAddr::containing((seq % 64) * 8),
            loaded: Some(seq),
            stored: None,
            cycle: seq,
        });
        rec.on_retire(seq, true, seq);
        rec.tick(seq);
        if seq % 5 == 0 {
            rec.on_snoop(LineAddr::containing((seq % 64) * 8), true, seq);
        }
    }
    rec.finish(accesses);
}

/// The fault-free twin: the exact entry stream the faulty run would
/// have produced, for conservation accounting.
fn twin_entries(accesses: u64) -> Vec<relaxreplay::LogEntry> {
    let cfg = RecorderConfig::splash_default(Design::Base, Some(64));
    let mut rec = Recorder::new(CoreId::new(0), cfg);
    drive(&mut rec, accesses);
    rec.into_log().entries
}

#[test]
fn healthy_stream_seals_and_reads_back() {
    let root = tmp_root("healthy");
    let handle = serve("127.0.0.1:0", ServerConfig::new(&root)).expect("serve");
    let addr = handle.addr().to_string();

    let client = Arc::new(Mutex::new(Client::connect(&addr).expect("connect")));
    // Tiny chunks so even a short drive crosses many chunk boundaries.
    let mut sink =
        RemoteSink::with_chunk_bytes(Arc::clone(&client), "live", "stream", CoreId::new(0), 64)
            .expect("sink");
    let entries = twin_entries(400);
    assert!(entries.len() > 8, "want a multi-chunk stream");
    for e in &entries {
        sink.emit(e).expect("healthy emit");
    }
    sink.close().expect("healthy close");
    assert!(sink.error().is_none());
    assert_eq!(sink.acked_entries(), entries.len() as u64);
    assert!(sink.chunks_sent() > 1, "want multiple chunks on the wire");
    assert!(sink.unsent_handle().lock().expect("unsent").is_empty());

    // Seal the streamed chunks into a run and read the log back.
    let chunks = sink.chunks_sent();
    client
        .lock()
        .expect("client")
        .seal_run(
            "live",
            1,
            vec![SealVariant {
                label: "stream".to_string(),
                cores: vec![SealCore {
                    wire_version: relaxreplay::wire::VERSION,
                    chunks,
                }],
                ordering: None,
            }],
            Vec::new(),
        )
        .expect("seal streamed run");

    let bytes = client
        .lock()
        .expect("client")
        .get_range("live", "stream", 0, 0, u64::MAX)
        .expect("fetch streamed log");
    let log = relaxreplay::wire::decode_chunked(&bytes).expect("decode streamed log");
    assert_eq!(log.entries, entries, "streamed log round-trips exactly");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropped_connection_poisons_recorder_and_conserves_entries() {
    const KILL_AFTER: u64 = 3;
    let root = tmp_root("kill");
    let mut config = ServerConfig::new(&root);
    config.fault = FaultSpec {
        kill_after_chunks: Some(KILL_AFTER),
    };
    let handle = serve("127.0.0.1:0", config).expect("serve");
    let addr = handle.addr().to_string();

    let accesses = 400;
    let twin = twin_entries(accesses);

    let client = Arc::new(Mutex::new(Client::connect(&addr).expect("connect")));
    let sink =
        RemoteSink::with_chunk_bytes(Arc::clone(&client), "doomed", "stream", CoreId::new(0), 64)
            .expect("sink");
    let stats = sink.stats_handle();
    let unsent = sink.unsent_handle();

    let cfg = RecorderConfig::splash_default(Design::Base, Some(64));
    let mut rec = Recorder::new(CoreId::new(0), cfg);
    rec.set_sink(Box::new(sink));
    drive(&mut rec, accesses);

    // The recorder latched the transport failure and poisoned itself.
    assert!(rec.is_poisoned(), "dropped connection must poison");
    let err = rec.take_sink_error().expect("latched sink error");
    assert!(
        matches!(err, relaxreplay::WireError::Io(_)),
        "latched error is the transport fault: {err:?}"
    );

    // Accounting: the server acked exactly KILL_AFTER chunks; the sink
    // accepted more entries than it could deliver; the recorder kept
    // the never-accepted suffix in its buffer.
    let acked = stats.acked_entries.load(Relaxed);
    let sent_chunks = stats.chunks_sent.load(Relaxed);
    assert_eq!(sent_chunks, KILL_AFTER, "server killed after {KILL_AFTER}");
    assert_eq!(handle.stats().chunks.load(Relaxed), KILL_AFTER);

    let unsent = unsent.lock().expect("unsent").clone();
    assert!(!unsent.is_empty(), "accepted-but-unacked entries survive");
    assert_eq!(
        rec.streamed_entries(),
        acked + unsent.len() as u64,
        "streamed = acked + unsent (sink-accepted entries)"
    );
    let retained = rec.log().entries.clone();
    assert!(!retained.is_empty(), "un-streamed suffix stays buffered");

    // Conservation: server-acked prefix ++ sink-unsent ++ recorder
    // buffer is exactly the fault-free twin's entry stream.
    let mut reconstructed = twin[..acked as usize].to_vec();
    reconstructed.extend_from_slice(&unsent);
    reconstructed.extend_from_slice(&retained);
    assert_eq!(reconstructed, twin, "no entry lost or duplicated");

    // The doomed run was never sealed, so it is invisible to readers.
    match Client::connect(&addr).expect("connect").get_run("doomed") {
        Err(StoreError::Remote { kind, .. }) => assert_eq!(kind, RemoteFault::UnknownRun),
        other => panic!("unsealed run must be unknown, got {other:?}"),
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
