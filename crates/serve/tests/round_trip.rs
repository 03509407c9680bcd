//! End-to-end rr-serve coverage: remote round trips are byte-identical
//! to local saves, identical corpora dedupe in the content-addressed
//! store, damaged blobs surface as typed errors, ≥ 4 recorder clients
//! can ingest concurrently without interleaving corruption, a server
//! that dies mid-save publishes nothing, a client of another protocol
//! version is refused at hello, a fetch never writes outside its
//! output directory, whatever labels the server sends, and a run whose
//! files disagree fails with the same typed error from either store.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use rr_serve::{serve, Client, FaultSpec, RemoteStore, ServerConfig};
use rr_sim::logdir::{encode_ordering, encode_truth, write_run_dir, RunFiles, VariantFiles};
use rr_sim::{
    LocalStore, LogDirError, RecordSession, RecorderSpec, RemoteFault, RunResult, RunStore,
    StoreError,
};
use rr_workloads::litmus::litmus_suite;
use rr_workloads::Workload;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rr-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn record(w: &Workload) -> RunResult {
    RecordSession::new(&w.programs, &w.initial_mem)
        .run()
        .expect("record workload")
}

/// Every file under `dir`, relative path → contents.
fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn remote_round_trip_matches_local() {
    let root = tmp_dir("roundtrip");
    let local_dir = tmp_dir("roundtrip-local");
    let handle = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    let remote = RemoteStore::new(handle.addr().to_string());
    let local = LocalStore::new(&local_dir);

    for w in litmus_suite() {
        let run = record(&w);
        let local_bytes = local.save_run(w.name, &run).expect("local save");
        let remote_bytes = remote.save_run(w.name, &run).expect("remote save");
        assert_eq!(local_bytes, remote_bytes, "{}: logical byte count", w.name);
    }

    let mut names = remote.list_runs().expect("list");
    names.sort();
    let mut expect: Vec<String> = litmus_suite().iter().map(|w| w.name.to_string()).collect();
    expect.sort();
    assert_eq!(names, expect);

    for name in &names {
        let local_run = local.load_run(name).expect("local load");
        let remote_run = remote.load_run(name).expect("remote load");
        assert_eq!(
            local_run.variants.len(),
            remote_run.variants.len(),
            "{name}: variant count"
        );
        for (a, b) in local_run.variants.iter().zip(&remote_run.variants) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.logs.len(), b.logs.len());
            for (la, lb) in a.logs.iter().zip(&b.logs) {
                assert_eq!(la.core, lb.core, "{name}/{}", a.label);
                assert_eq!(la.entries, lb.entries, "{name}/{}", a.label);
            }
            assert_eq!(a.ordering, b.ordering, "{name}/{}: ordering", a.label);
        }
        assert!(
            local_run
                .recorded
                .final_mem
                .contents_eq(&remote_run.recorded.final_mem),
            "{name}: ground-truth memory differs"
        );
        assert_eq!(
            local_run.recorded.load_traces, remote_run.recorded.load_traces,
            "{name}: ground-truth load traces differ"
        );

        // Byte-level: every materialized remote file equals the local
        // twin written by the plain `--save-logs` path.
        let bundle = Client::connect(&handle.addr().to_string())
            .expect("connect")
            .get_run(name)
            .expect("get_run")
            .variants;
        assert_eq!(bundle.len(), local_run.variants.len(), "{name}");
        for v in &bundle {
            for (k, remote_bytes) in v.logs.iter().enumerate() {
                let local_bytes = std::fs::read(
                    local_dir
                        .join(name)
                        .join(&v.label)
                        .join(format!("core{k}.rrlog")),
                )
                .expect("local .rrlog");
                assert_eq!(&local_bytes, remote_bytes, "{name}/{}/core{k}", v.label);
            }
        }
    }

    // The stat path sees the same shape and verifies every blob.
    let stat = remote.stat_run(&names[0]).expect("stat");
    assert!(stat.cores >= 2);
    assert!(stat
        .variants
        .iter()
        .all(|v| v.chunks > 0 && v.log_bytes > 0));
    assert!(stat.truth_bytes > 0);
    let dedup = stat.dedup.expect("remote stat carries dedup");
    assert!(dedup.blobs > 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&local_dir);
}

#[test]
fn fetch_materializes_byte_identical_logdir() {
    let root = tmp_dir("fetch");
    let local_dir = tmp_dir("fetch-local");
    let out_dir = tmp_dir("fetch-out");
    let handle = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    let remote = RemoteStore::new(handle.addr().to_string());
    let local = LocalStore::new(&local_dir);

    let w = litmus_suite().remove(0);
    let run = record(&w);
    local.save_run(w.name, &run).expect("local save");
    remote.save_run(w.name, &run).expect("remote save");

    let exe = env!("CARGO_BIN_EXE_rr-serve");
    let status = std::process::Command::new(exe)
        .args([
            "fetch",
            &format!("{}/{}", handle.url(), w.name),
            "--out",
            out_dir.to_str().expect("utf8 path"),
        ])
        .status()
        .expect("run rr-serve fetch");
    assert!(status.success(), "fetch failed");

    // The fetched tree equals the locally saved twin, file for file.
    assert_eq!(
        dir_snapshot(&local_dir),
        dir_snapshot(&out_dir),
        "fetched tree != local twin"
    );

    // And the fetched directory loads as a normal local store.
    let fetched = LocalStore::new(&out_dir)
        .load_run(w.name)
        .expect("load fetched");
    assert_eq!(fetched.variants.len(), run.variants.len());

    handle.shutdown();
    for d in [&root, &local_dir, &out_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn doubled_corpus_dedupes_to_one_blob_set() {
    let root = tmp_dir("dedup");
    let handle = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    let remote = RemoteStore::new(handle.addr().to_string());

    let w = litmus_suite().remove(0);
    let run = record(&w);
    remote.save_run("first", &run).expect("first save");
    let (blobs_a, blob_bytes_a, logical_a) = handle.store().dedup_stat().expect("dedup stat");
    assert!(blobs_a > 0 && blob_bytes_a > 0);

    // The identical run under a new name: every chunk payload dedupes,
    // so the blob set does not grow at all while logical bytes double.
    remote.save_run("second", &run).expect("second save");
    let (blobs_b, blob_bytes_b, logical_b) = handle.store().dedup_stat().expect("dedup stat");
    assert_eq!(blobs_a, blobs_b, "identical rerecord must add no blobs");
    assert_eq!(blob_bytes_a, blob_bytes_b);
    assert_eq!(logical_b, logical_a * 2);
    let ratio = logical_b as f64 / blob_bytes_b as f64;
    assert!(ratio >= 1.5, "dedup ratio {ratio:.2} below 1.5x");

    // The reported savings reach clients through stat.
    let stat = remote.stat_run("second").expect("stat");
    let dedup = stat.dedup.expect("dedup figures");
    assert!(
        dedup.ratio() >= 1.5,
        "client-visible ratio {:.2}",
        dedup.ratio()
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_blob_surfaces_as_typed_error_not_panic() {
    let root = tmp_dir("corrupt");
    let store_root = root.join("store");
    let handle = serve("127.0.0.1:0", ServerConfig::new(&store_root)).expect("serve");
    let addr = handle.addr().to_string();
    let remote = RemoteStore::new(addr.clone());

    let w = litmus_suite().remove(0);
    let run = record(&w);
    remote.save_run(w.name, &run).expect("save");

    // Flip one byte in the middle of the largest blob.
    let objects = store_root.join("objects");
    let blob_path = std::fs::read_dir(&objects)
        .expect("objects dir")
        .map(|e| e.expect("entry").path())
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("at least one blob");
    let mut blob = std::fs::read(&blob_path).expect("read blob");
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    std::fs::write(&blob_path, &blob).expect("write corrupted blob");

    match remote.stat_run(w.name) {
        Err(StoreError::Remote { kind, detail }) => {
            assert_eq!(kind, RemoteFault::CorruptBlob, "detail: {detail}");
        }
        other => panic!("want typed corrupt-blob error, got {other:?}"),
    }

    // The CLI reports it and exits nonzero rather than panicking.
    let exe = env!("CARGO_BIN_EXE_rr-serve");
    let out = std::process::Command::new(exe)
        .args(["stat", &format!("rr://{addr}/{}", w.name)])
        .output()
        .expect("run rr-serve stat");
    assert!(!out.status.success(), "stat over a corrupt blob must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt-blob"),
        "stderr missing typed fault: {stderr}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A declared `.rrlog` wire version other than the current one is refused
/// with a typed protocol error at `PutChunk` and at `SealRun` (zero-chunk
/// cores included), and nothing is published: under a v2 header the
/// fetched log would misread its frame timestamps; under 999 no reader
/// could open it.
#[test]
fn foreign_wire_versions_are_refused_and_publish_nothing() {
    use relaxreplay::wire::{chunk_spans, encode_chunked_with, VERSION};
    use rr_serve::proto::{SealCore, SealVariant};

    fn refused<T>(r: Result<T, StoreError>, what: &str) {
        match r {
            Err(StoreError::Remote { kind, detail }) => {
                assert_eq!(kind, RemoteFault::Protocol, "{what}: {detail}");
            }
            Ok(_) => panic!("{what}: accepted, want a protocol error"),
            Err(other) => panic!("{what}: want a protocol error, got {other:?}"),
        }
    }

    let root = tmp_dir("wire-version");
    let handle = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    let addr = handle.addr().to_string();
    let remote = RemoteStore::new(addr.clone());

    let run = record(&litmus_suite().remove(0));
    let cores = run.recorded.load_traces.len() as u8;
    let truth = encode_truth(&run.recorded);
    let label = run.variants[0].spec.label();
    let bytes = encode_chunked_with(&run.variants[0].logs[0], 1);
    let (_, _, frames, _) = chunk_spans(&bytes).expect("header");
    let payloads: Vec<&[u8]> = frames.iter().map(|f| f.payload).collect();
    assert!(payloads.len() > 1, "want a multi-chunk stream");
    // Core 0 declares `chunks`; every other core declares none.
    let seal = |wire_version: u16, chunks: u64| {
        let mut cores = vec![
            SealCore {
                wire_version,
                chunks: 0
            };
            usize::from(cores)
        ];
        cores[0].chunks = chunks;
        let ordering = None;
        vec![SealVariant {
            label: label.clone(),
            cores,
            ordering,
        }]
    };

    for bad in [2u16, 999] {
        let name = format!("declared-v{bad}");
        let mut client = Client::connect(&addr).expect("connect");
        for (seq, payload) in payloads.iter().enumerate() {
            refused(
                client.put_chunk(&name, &label, 0, seq as u64, bad, payload),
                &format!("v{bad} PutChunk {seq}"),
            );
        }
        refused(
            client.seal_run(&name, cores, seal(bad, 0), truth.clone()),
            &format!("v{bad} seal of zero-chunk cores"),
        );
        // Chunks staged at the current version cannot be sealed as `bad`.
        for (seq, payload) in payloads.iter().enumerate() {
            client
                .put_chunk(&name, &label, 0, seq as u64, VERSION, payload)
                .expect("current version is staged");
        }
        refused(
            client.seal_run(
                &name,
                cores,
                seal(bad, payloads.len() as u64),
                truth.clone(),
            ),
            &format!("v{bad} seal of staged chunks"),
        );

        match remote.stat_run(&name) {
            Err(StoreError::Remote { kind, .. }) => assert_eq!(kind, RemoteFault::UnknownRun),
            other => panic!("v{bad}: run must not exist, got {other:?}"),
        }
        assert!(!remote.list_runs().expect("list").contains(&name));
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_ingest_from_four_clients() {
    let root = tmp_dir("concurrent");
    let handle = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    let addr = handle.addr().to_string();

    // Four distinct workloads, recorded up front; each thread streams
    // its own run over its own connection, all at once.
    let runs: Vec<(String, RunResult)> = litmus_suite()
        .iter()
        .take(4)
        .map(|w| (w.name.to_string(), record(w)))
        .collect();
    assert_eq!(runs.len(), 4, "need 4 concurrent recorder clients");

    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter()
            .map(|(name, run)| {
                let addr = addr.clone();
                s.spawn(move || {
                    let remote = RemoteStore::new(addr);
                    remote.save_run(name, run).expect("concurrent save");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("ingest thread");
        }
    });

    // Every run survives intact — no cross-run interleaving.
    let remote = RemoteStore::new(addr);
    for (name, run) in &runs {
        let loaded = remote.load_run(name).expect("load after concurrent ingest");
        assert_eq!(loaded.variants.len(), run.variants.len(), "{name}");
        for (a, b) in loaded.variants.iter().zip(&run.variants) {
            for (la, lb) in a.logs.iter().zip(&b.logs) {
                assert_eq!(la.entries, lb.entries, "{name}/{}", a.label);
            }
        }
        assert!(
            loaded
                .recorded
                .final_mem
                .contents_eq(&run.recorded.final_mem),
            "{name}: ground truth differs"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A server that dies after accepting `KILL_AFTER` chunks fails the save
/// with a typed remote error, and the half-sent run is never published:
/// a fresh server on the same store root neither lists nor loads it.
#[test]
fn server_killed_mid_save_fails_typed_and_publishes_nothing() {
    const KILL_AFTER: u64 = 3;
    let root = tmp_dir("killed");
    let mut config = ServerConfig::new(root.join("store"));
    config.fault = FaultSpec {
        kill_after_chunks: Some(KILL_AFTER),
    };
    let handle = serve("127.0.0.1:0", config).expect("serve");

    let w = litmus_suite().remove(0);
    let run = record(&w);
    match RemoteStore::new(handle.addr().to_string()).save_run(w.name, &run) {
        Err(StoreError::Remote { kind, detail }) => {
            assert_eq!(kind, RemoteFault::Io, "detail: {detail}");
        }
        other => panic!("want a typed remote I/O error, got {other:?}"),
    }
    assert_eq!(handle.stats().chunks.load(Ordering::Relaxed), KILL_AFTER);
    assert_eq!(handle.stats().seals.load(Ordering::Relaxed), 0);
    handle.shutdown();

    let fresh = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    let remote = RemoteStore::new(fresh.addr().to_string());
    assert!(remote.list_runs().expect("list").is_empty());
    match remote.load_run(w.name) {
        Err(StoreError::Remote { kind, .. }) => assert_eq!(kind, RemoteFault::UnknownRun),
        other => panic!("an unsealed run must be unknown, got {other:?}"),
    }
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A client speaking RRSP version 1 (or any version but this build's) is
/// answered at `Hello` with a typed unsupported-version error, before it
/// can send a frame this server would misread.
#[test]
fn other_protocol_versions_are_refused_at_hello() {
    use rr_serve::proto::{read_frame, write_frame, Msg, PROTO_VERSION};
    let root = tmp_dir("hello");
    let handle = serve("127.0.0.1:0", ServerConfig::new(root.join("store"))).expect("serve");
    for version in [1, PROTO_VERSION + 1, u16::MAX] {
        let mut conn = std::net::TcpStream::connect(handle.addr()).expect("connect");
        write_frame(&mut conn, &Msg::Hello { version }).expect("hello");
        match read_frame(&mut conn) {
            Ok(Some(Msg::Error { kind, detail })) => {
                assert_eq!(kind, RemoteFault::UnsupportedVersion, "{detail}");
                assert!(
                    detail.contains(&format!("client sent {version}")),
                    "{detail}"
                );
            }
            other => panic!("version {version}: want an unsupported-version error, got {other:?}"),
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A fake RRSP server that answers every `GetRun` with `bundle`, for
/// `connections` client connections.
fn fake_server(bundle: RunFiles, connections: usize) -> (String, std::thread::JoinHandle<()>) {
    use rr_serve::proto::{read_frame, write_frame, Msg, PROTO_VERSION};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        for _ in 0..connections {
            let (mut conn, _) = listener.accept().expect("accept");
            while let Ok(Some(msg)) = read_frame(&mut conn) {
                let reply = match msg {
                    Msg::Hello { .. } => Msg::HelloAck {
                        version: PROTO_VERSION,
                    },
                    Msg::GetRun { .. } => Msg::RunBundle(bundle.clone()),
                    other => panic!("unexpected request {other:?}"),
                };
                write_frame(&mut conn, &reply).expect("reply");
            }
        }
    });
    (addr, server)
}

/// A fake RRSP server that answers every `GetRun` with one variant under
/// `label`, for `connections` client connections.
fn hostile_server(label: String, connections: usize) -> (String, std::thread::JoinHandle<()>) {
    let bundle = RunFiles {
        cores: 1,
        variants: vec![VariantFiles {
            label,
            logs: vec![b"not an rrlog".to_vec()],
            ordering: Some(b"not an ordering".to_vec()),
        }],
        truth: b"not a truth sidecar".to_vec(),
    };
    fake_server(bundle, connections)
}

#[test]
fn fetch_refuses_server_labels_that_escape_the_output_directory() {
    let root = tmp_dir("fetch-hostile");
    let out_dir = root.join("out");
    let absolute = std::env::temp_dir().join("rr-serve-escape");
    let absolute = absolute.to_str().expect("utf8 path");
    for label in ["../escape", "../../escape", absolute, "a/b"] {
        let (addr, server) = hostile_server(label.to_string(), 2);

        // The library call fails with the typed bad-name error.
        let err = Client::connect(&addr)
            .expect("connect")
            .fetch_run("victim", &out_dir)
            .expect_err("a hostile label must be refused");
        assert!(
            matches!(&err, StoreError::Local(LogDirError::BadName(n)) if n == label),
            "{label}: {err:?}"
        );

        // So does the binary, writing nothing either.
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_rr-serve"))
            .args([
                "fetch",
                &format!("rr://{addr}/victim"),
                "--out",
                out_dir.to_str().expect("utf8 path"),
            ])
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run rr-serve fetch");
        assert!(!status.success(), "{label}: fetch succeeded");
        server.join().expect("fake server");

        assert!(!out_dir.exists(), "{label}: fetch created {out_dir:?}");
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .expect("read root")
            .map(|e| e.expect("entry").path())
            .collect();
        assert!(leftovers.is_empty(), "{label}: wrote {leftovers:?}");
    }
    assert!(!Path::new(absolute).exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// Every single-bit flip and every truncation of the catalog a real seal
/// writes decodes to the identical catalog or a typed catalog fault.
#[test]
fn sealed_catalog_survives_the_corruption_harness() {
    use rr_serve::store::Catalog;
    let root = tmp_dir("catalog-harness");
    let store_root = root.join("store");
    let handle = serve("127.0.0.1:0", ServerConfig::new(&store_root)).expect("serve");
    let w = litmus_suite().remove(0);
    RemoteStore::new(handle.addr().to_string())
        .save_run(w.name, &record(&w))
        .expect("save");
    handle.shutdown();
    let catalog = std::fs::read(store_root.join("runs").join(w.name).join("catalog.bin"))
        .expect("the seal wrote a catalog");
    rr_reference::assert_damage_is_typed(&catalog, Catalog::from_bytes, |e| {
        e.kind == RemoteFault::Catalog
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// A sealed run whose `truth.bin` is gone is a catalog fault for `stat`,
/// as it already is for a load, not a run with a 0-byte sidecar.
#[test]
fn stat_of_a_run_without_its_truth_sidecar_is_a_catalog_fault() {
    let root = tmp_dir("stat-no-truth");
    let store_root = root.join("store");
    let handle = serve("127.0.0.1:0", ServerConfig::new(&store_root)).expect("serve");
    let remote = RemoteStore::new(handle.addr().to_string());
    let w = litmus_suite().remove(0);
    remote.save_run(w.name, &record(&w)).expect("save");
    std::fs::remove_file(store_root.join("runs").join(w.name).join("truth.bin"))
        .expect("delete truth.bin");
    for (what, result) in [
        ("stat", remote.stat_run(w.name).map(drop)),
        ("load", remote.load_run(w.name).map(drop)),
    ] {
        match result {
            Err(StoreError::Remote { kind, detail }) => {
                assert_eq!(kind, RemoteFault::Catalog, "{what}: {detail}");
                assert!(detail.contains("truth.bin"), "{what}: {detail}");
            }
            other => panic!("{what}: want a catalog fault, got {other:?}"),
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One way to damage a run's files, and the typed error each reader
/// gives for it: [`RunFiles::decode`], a [`LocalStore`] holding the files
/// on disk, and a [`RemoteStore`] fetching them from a server.
struct Damage {
    what: &'static str,
    damage: fn(&mut RunFiles, &RunResult),
    decode: LogDirError,
    local: LogDirError,
    remote: RemoteFault,
}

fn malformed(d: &'static str) -> LogDirError {
    LogDirError::Malformed(d)
}

#[test]
fn malformed_bundles_fail_alike_in_decode_and_both_stores() {
    use relaxreplay::wire::HEADER_BYTES;
    use relaxreplay::WireError;
    // A damaged log is located by its variant's label and its core.
    let cut_log = LogDirError::Wire {
        label: RecorderSpec::paper_matrix()[1].label(),
        core: 1,
        source: WireError::Truncated { chunk: 0 },
    };
    let table = [
        Damage {
            what: "a log whose header names another core",
            damage: |files, _| files.variants[0].logs.swap(0, 1),
            decode: malformed("log header names another core"),
            local: malformed("log header names another core"),
            remote: RemoteFault::Catalog,
        },
        Damage {
            what: "a variant with one log too few",
            damage: |files, _| {
                files.variants[0].logs.pop();
            },
            decode: malformed("variant log count != run cores"),
            // On disk the missing log is a missing file.
            local: LogDirError::Io(String::new()),
            remote: RemoteFault::Catalog,
        },
        Damage {
            what: "an ordering.bin for another core count",
            damage: |files, _| {
                let ordering = vec![Default::default(); files.cores + 1];
                files.variants[0].ordering = Some(encode_ordering(&ordering));
            },
            decode: malformed("ordering sidecar core count != run cores"),
            local: malformed("ordering sidecar core count != run cores"),
            remote: RemoteFault::Catalog,
        },
        Damage {
            what: "a truth.bin for another trace count",
            damage: |files, run| {
                let mut recorded = run.recorded.clone();
                recorded.load_traces.push(Vec::new());
                files.truth = encode_truth(&recorded);
            },
            decode: malformed("truth trace count != run cores"),
            local: malformed("truth trace count != run cores"),
            remote: RemoteFault::Catalog,
        },
        Damage {
            what: "a log cut inside its first chunk's length prefix",
            damage: |files, _| files.variants[1].logs[1].truncate(HEADER_BYTES + 2),
            decode: cut_log.clone(),
            local: cut_log,
            remote: RemoteFault::CorruptBlob,
        },
    ];

    let root = tmp_dir("malformed");
    let run = record(&litmus_suite().remove(0));
    let intact = RunFiles::encode(&run);
    assert!(intact.cores >= 2, "want a multi-core run");
    intact.decode("intact", 1).expect("the intact run decodes");
    let local = LocalStore::new(&root);

    for (i, row) in table.iter().enumerate() {
        let mut files = intact.clone();
        (row.damage)(&mut files, &run);
        let name = format!("damaged-{i}");
        for workers in [1, 2] {
            let err = files.decode(&name, workers).expect_err(row.what);
            assert_eq!(err, row.decode, "{}: decode, {workers} workers", row.what);
        }

        write_run_dir(&root, &name, &files, &[]).expect("writes the damaged files");
        match (local.load_run(&name), &row.local) {
            (Err(StoreError::Local(LogDirError::Io(m))), LogDirError::Io(_)) => {
                assert!(m.contains(".rrlog"), "{}: local: {m}", row.what);
            }
            (Err(StoreError::Local(got)), want) => {
                assert_eq!(&got, want, "{}: local", row.what);
            }
            (other, _) => panic!("{}: local: want a typed error, got {other:?}", row.what),
        }

        let (addr, server) = fake_server(files, 1);
        match RemoteStore::new(addr).load_run(&name) {
            Err(StoreError::Remote { kind, detail }) => {
                assert_eq!(kind, row.remote, "{}: remote: {detail}", row.what);
                if let LogDirError::Wire { label, core, .. } = &row.decode {
                    let file = format!("{label}/core{core}.rrlog");
                    assert!(detail.contains(&file), "{}: remote: {detail}", row.what);
                }
            }
            other => panic!("{}: remote: want a typed error, got {other:?}", row.what),
        }
        server.join().expect("fake server");
    }
    let _ = std::fs::remove_dir_all(&root);
}
