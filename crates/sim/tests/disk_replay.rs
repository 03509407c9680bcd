//! The durable-artifact differential test: record every workload, save
//! the logs as `.rrlog` files plus the ground-truth sidecar, load them
//! back, and prove the disk round trip is lossless — loaded logs equal
//! the in-memory ones entry-for-entry, and patch → replay → verify passes
//! against the *loaded* ground truth. Also pins corruption robustness of
//! the saved artifacts and the out-of-range-variant hardening.

use std::fs;
use std::path::PathBuf;

use rr_replay::{patch, replay, verify, CostModel};
use rr_sim::{
    replay_and_verify, LocalStore, LogDirError, MachineConfig, RecordSession, RecorderSpec,
    RunStore, StoreError,
};
use rr_workloads::suite;

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rr_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_workload_round_trips_through_disk() {
    let threads = 2;
    let cfg = MachineConfig::splash_default(threads);
    let specs = RecorderSpec::paper_matrix();
    let scratch = ScratchDir::new("disk_replay");

    let store = LocalStore::new(&scratch.0);
    let workloads = suite(threads, 1);
    let mut results = Vec::new();
    for w in &workloads {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .config(&cfg)
            .specs(&specs)
            .run()
            .unwrap_or_else(|e| panic!("{}: recording failed: {e}", w.name));
        let bytes = store
            .save_run(w.name, &result)
            .unwrap_or_else(|e| panic!("{}: save failed: {e}", w.name));
        assert!(bytes > 0, "{}: no .rrlog bytes written", w.name);
        results.push(result);
    }

    let listed = store.list_runs().expect("list runs");
    let mut expected: Vec<String> = workloads.iter().map(|w| w.name.to_string()).collect();
    expected.sort();
    assert_eq!(listed, expected);

    for (w, result) in workloads.iter().zip(&results) {
        let saved = store
            .load_run(w.name)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        // Lossless: every variant's loaded logs equal the in-memory logs
        // entry-for-entry.
        assert_eq!(saved.variants.len(), result.variants.len(), "{}", w.name);
        for (sv, v) in saved.variants.iter().zip(&result.variants) {
            assert_eq!(sv.label, v.spec.label(), "{}", w.name);
            assert_eq!(sv.logs.len(), v.logs.len(), "{}", w.name);
            for (loaded, original) in sv.logs.iter().zip(&v.logs) {
                assert_eq!(
                    loaded, original,
                    "{} [{}]: disk round trip altered the log",
                    w.name, sv.label
                );
            }
        }

        // The loaded ground truth matches what was recorded.
        assert!(saved
            .recorded
            .final_mem
            .contents_eq(&result.recorded.final_mem));
        assert_eq!(saved.recorded.load_traces, result.recorded.load_traces);

        // And the loaded artifacts alone drive a verified replay:
        // patch → replay → verify against the *loaded* truth.
        for sv in &saved.variants {
            let patched: Vec<_> = sv
                .logs
                .iter()
                .map(patch)
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("{} [{}]: patch failed: {e}", w.name, sv.label));
            let outcome = replay(
                &w.programs,
                &patched,
                w.initial_mem.clone(),
                &CostModel::splash_default(),
            )
            .unwrap_or_else(|e| panic!("{} [{}]: replay failed: {e}", w.name, sv.label));
            verify(&saved.recorded, &outcome)
                .unwrap_or_else(|e| panic!("{} [{}]: verify failed: {e}", w.name, sv.label));
        }
    }
}

#[test]
fn corrupted_rrlog_fails_with_a_typed_error_not_a_panic() {
    let threads = 2;
    let cfg = MachineConfig::splash_default(threads);
    let specs = RecorderSpec::paper_matrix();
    let scratch = ScratchDir::new("disk_corrupt");
    let store = LocalStore::new(&scratch.0);

    let w = &suite(threads, 1)[0];
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&cfg)
        .specs(&specs)
        .run()
        .expect("records");
    store.save_run(w.name, &result).expect("saves");

    let label = specs[0].label();
    let victim = scratch.0.join(w.name).join(&label).join("core0.rrlog");
    let mut bytes = fs::read(&victim).expect("read rrlog");
    assert!(bytes.len() > 16, "need a non-trivial log to corrupt");

    // Flip a byte inside the first chunk's payload.
    bytes[12] ^= 0xff;
    fs::write(&victim, &bytes).expect("write corrupted rrlog");
    match store.load_run(w.name) {
        Err(StoreError::Local(e @ LogDirError::Wire { .. })) => {
            let msg = e.to_string();
            assert!(
                msg.contains("chunk 0") && msg.contains(&format!("{label}/core0.rrlog")),
                "error should identify the failing file and chunk: {msg}"
            );
        }
        other => panic!("expected a wire error, got {other:?}"),
    }

    // Truncate mid-stream instead: still a typed error, never a panic.
    fs::write(&victim, &bytes[..bytes.len() - 3]).expect("truncate rrlog");
    assert!(matches!(
        store.load_run(w.name),
        Err(StoreError::Local(LogDirError::Wire { core: 0, .. }))
    ));
}

#[test]
fn out_of_range_variant_indexes_are_rejected() {
    let threads = 2;
    let cfg = MachineConfig::splash_default(threads);
    let specs = RecorderSpec::paper_matrix();
    let w = &suite(threads, 1)[0];
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&cfg)
        .specs(&specs)
        .run()
        .expect("records");

    assert!(result.log_rate_mbps(0).is_some());
    assert!(result.log_rate_mbps(specs.len()).is_none());
    assert!(result.log_rate_mbps(usize::MAX).is_none());

    let err = replay_and_verify(
        &w.programs,
        &w.initial_mem,
        &result,
        specs.len(),
        &CostModel::splash_default(),
    )
    .expect_err("out-of-range variant must not panic");
    assert!(err.to_string().contains("out of range"), "{err}");
}

/// A manifest's core count sizes the per-core path lists before any file
/// is opened, so one claiming more cores than a `u8` core id can name is
/// refused as malformed by every local reader.
#[test]
fn manifest_claiming_more_than_256_cores_is_malformed() {
    let scratch = ScratchDir::new("disk_replay_cores");
    let run_dir = scratch.0.join("hostile");
    fs::create_dir_all(&run_dir).expect("mkdir");
    fs::write(run_dir.join("manifest.txt"), "cores 257\nBase-4K\n").expect("writes");
    let store = LocalStore::new(&scratch.0);
    let want = LogDirError::Malformed("manifest claims more than 256 cores");
    assert_eq!(
        store.load_run("hostile").expect_err("must fail"),
        StoreError::Local(want.clone())
    );
    assert_eq!(
        store.stat_run("hostile").expect_err("must fail"),
        StoreError::Local(want)
    );
}

/// A run whose `truth.bin` is gone cannot be loaded, so `stat_run` refuses
/// it with the same typed I/O error as `load_run`, naming the file,
/// rather than reporting a 0-byte sidecar.
#[test]
fn stat_of_a_run_without_its_truth_sidecar_is_an_io_error() {
    let scratch = ScratchDir::new("disk_stat_no_truth");
    let store = LocalStore::new(&scratch.0);
    let w = &suite(2, 1)[0];
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&MachineConfig::splash_default(2))
        .run()
        .expect("records");
    store.save_run(w.name, &result).expect("saves");
    assert!(store.stat_run(w.name).expect("stats").truth_bytes > 0);

    fs::remove_file(scratch.0.join(w.name).join("truth.bin")).expect("delete truth.bin");
    for (what, result) in [
        ("stat", store.stat_run(w.name).map(drop)),
        ("load", store.load_run(w.name).map(drop)),
    ] {
        match result {
            Err(StoreError::Local(LogDirError::Io(m))) => {
                assert!(m.contains("truth.bin"), "{what}: {m}");
            }
            other => panic!("{what}: want a typed I/O error, got {other:?}"),
        }
    }
}
