//! End-to-end rr-serve coverage: remote round trips are byte-identical
//! to local saves, identical corpora dedupe in the content-addressed
//! store, damaged blobs surface as typed errors, ≥ 4 recorder clients
//! can ingest concurrently without interleaving corruption, and a fetch
//! never writes outside its output directory, whatever labels the server
//! sends.

use std::path::{Path, PathBuf};

use rr_serve::{serve, Client, RemoteStore, ServerConfig};
use rr_sim::{
    LocalStore, LogDirError, RecordSession, RemoteFault, RunResult, RunStore, StoreError,
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
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        for v in &local_run.variants {
            for (k, _) in v.logs.iter().enumerate() {
                let local_bytes = std::fs::read(
                    local_dir
                        .join(name)
                        .join(&v.label)
                        .join(format!("core{k}.rrlog")),
                )
                .expect("local .rrlog");
                let remote_bytes = client
                    .get_range(name, &v.label, k as u8, 0, u64::MAX)
                    .expect("get_range");
                assert_eq!(local_bytes, remote_bytes, "{name}/{}/core{k}", v.label);
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

    // The fetched tree equals the locally saved twin, modulo the
    // `.rridx` skip indexes the server materializes eagerly (local
    // saves build them lazily on load).
    let local_files: Vec<_> = dir_snapshot(&local_dir)
        .into_iter()
        .filter(|(p, _)| !p.ends_with(".rridx"))
        .collect();
    let fetched_files: Vec<_> = dir_snapshot(&out_dir)
        .into_iter()
        .filter(|(p, _)| !p.ends_with(".rridx"))
        .collect();
    assert_eq!(local_files, fetched_files, "fetched tree != local twin");

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

/// A fake RRSP server that answers every `GetRun` with one variant under
/// `label`, for `connections` client connections.
fn hostile_server(label: String, connections: usize) -> (String, std::thread::JoinHandle<()>) {
    use rr_serve::proto::{read_frame, write_frame, BundleVariant, Msg, PROTO_VERSION};
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
                    Msg::GetRun { .. } => Msg::RunBundle {
                        cores: 1,
                        variants: vec![BundleVariant {
                            label: label.clone(),
                            logs: vec![b"not an rrlog".to_vec()],
                            indexes: vec![b"not an index".to_vec()],
                            ordering: Some(b"not an ordering".to_vec()),
                        }],
                        truth: b"not a truth sidecar".to_vec(),
                    },
                    other => panic!("unexpected request {other:?}"),
                };
                write_frame(&mut conn, &reply).expect("reply");
            }
        }
    });
    (addr, server)
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
