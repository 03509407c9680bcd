//! Integration tests for the `rr-inspect` CLI: stat/dump over healthy
//! `.rrlog` files and run directories, check over corrupted artifacts
//! (nonzero exit), and trace-sidecar conversion to Chrome/Perfetto JSON.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use relaxreplay::trace::{TraceConfig, TraceLevel};
use rr_isa::{MemImage, ProgramBuilder, Reg};
use rr_serve::{serve, RemoteStore, ServerConfig};
use rr_sim::logdir::encode_ordering;
use rr_sim::{LocalStore, MachineConfig, RecordSession, RecorderSpec, RunResult, RunStore};

fn rr_inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rr-inspect"))
        .args(args)
        .output()
        .expect("rr-inspect spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Records a small two-core run (with tracing, so the trace sidecars are
/// written too) and saves it under `root/<name>`.
fn save_sample_run(root: &Path, name: &str) -> PathBuf {
    LocalStore::new(root)
        .save_run(name, &sample_run())
        .expect("saves");
    root.join(name)
}

/// The run [`save_sample_run`] saves.
fn sample_run() -> RunResult {
    let mk = |mine: i64, other: i64| {
        let mut b = ProgramBuilder::new();
        b.load_imm(Reg::new(1), mine);
        b.load_imm(Reg::new(2), other);
        for i in 0..24 {
            b.store(Reg::new(2), Reg::new(1), 8 * i);
            b.load(Reg::new(3), Reg::new(2), 8 * i);
        }
        b.halt();
        b.build()
    };
    let programs = vec![mk(0x1000, 0x2000), mk(0x2000, 0x1000)];
    let cfg = MachineConfig::splash_default(2).with_trace(TraceConfig::level(TraceLevel::Full));
    RecordSession::new(&programs, &MemImage::new())
        .config(&cfg)
        .specs(&RecorderSpec::paper_matrix())
        .run()
        .expect("records")
}

/// The cells of the `rr-inspect dag` table row for `label`.
fn dag_row(text: &str, label: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.split_whitespace().map(String::from).collect::<Vec<_>>())
        .find(|cells| cells.first().map(String::as_str) == Some(label))
        .unwrap_or_else(|| panic!("no {label} row:\n{text}"))
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rr_inspect_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn stat_and_dump_describe_a_healthy_log() {
    let root = temp_root("stat");
    let run_dir = save_sample_run(&root, "sample");
    let rrlog = run_dir.join("Base-4K").join("core0.rrlog");
    assert!(rrlog.is_file());

    let out = rr_inspect(&["stat", rrlog.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("chunk map"), "{text}");
    assert!(text.contains("entry histogram"), "{text}");
    assert!(text.contains("reordered density"), "{text}");
    assert!(text.contains("integrity: ok"), "{text}");

    // stat over the whole run directory tabulates every variant's files.
    let out = rr_inspect(&["stat", run_dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for label in ["Base-4K", "Opt-4K", "Base-INF", "Opt-INF"] {
        assert!(text.contains(label), "{text}");
    }
    assert!(text.contains("truth.bin"), "{text}");
    assert!(text.contains("trace.jsonl"), "{text}");

    // dump prints entries and honours --limit.
    let out = rr_inspect(&["dump", rrlog.to_str().unwrap(), "--limit", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("IntervalFrame") || text.contains("more)"),
        "{text}"
    );
    let full = rr_inspect(&["dump", rrlog.to_str().unwrap()]);
    assert!(
        stdout(&full).lines().count() >= text.lines().count(),
        "unlimited dump is at least as long"
    );
}

#[test]
fn check_passes_clean_runs_and_fails_corrupted_ones() {
    let root = temp_root("check");
    let run_dir = save_sample_run(&root, "sample");

    // Clean: the --save-logs root and the single run dir both pass.
    let out = rr_inspect(&["check", root.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("truth verified"));
    let out = rr_inspect(&["check", run_dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Corrupt one payload byte of one log: check must exit nonzero, on the
    // file itself and on the containing directory tree.
    let victim = run_dir.join("Opt-4K").join("core1.rrlog");
    let mut bytes = std::fs::read(&victim).expect("reads");
    assert!(bytes.len() > 16, "log long enough to corrupt");
    let flip = bytes.len() - 6; // inside the last chunk's payload
    bytes[flip] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("writes");

    let out = rr_inspect(&["check", victim.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt file must fail check");
    assert!(stderr(&out).contains("CRC") || stderr(&out).contains("chunk"));
    let out = rr_inspect(&["check", root.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt run must fail a tree check");

    // stat still works on the damaged file but reports the damage.
    let out = rr_inspect(&["stat", victim.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("DAMAGED"), "{}", stdout(&out));

    // Missing paths and bad usage are reported, not panicked.
    let out = rr_inspect(&["stat", "/nonexistent/nope.rrlog"]);
    assert!(!out.status.success());
    let out = rr_inspect(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = rr_inspect(&[]);
    assert_eq!(out.status.code(), Some(2));
    // An option value that is no number, or an output option with no
    // path, is a usage error too, not a silent fall-back to the default.
    let default_trace_out = victim.with_extension("json");
    let victim = victim.to_str().unwrap();
    let root = root.to_str().unwrap();
    for bad in [
        vec!["dump", victim, "--limit", "x"],
        vec!["dump", victim, "--limit=-1"],
        vec!["dump", victim, "--limit"],
        vec!["prof", root, "--workers", "x"],
        vec!["prof", root, "--workers="],
        vec!["prof", root, "--size", "big"],
        vec!["prof", root, "--size=1.5"],
        vec!["prof", root, "--out"],
        vec!["prof", root, "--out="],
        vec!["dag", root, "--dot"],
        vec!["trace", victim, "-o"],
        vec!["trace", victim, "--out"],
        vec!["trace", victim, "--out="],
    ] {
        let out = rr_inspect(&bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage:"), "{bad:?}: {}", stderr(&out));
    }
    assert!(
        !default_trace_out.exists(),
        "a valueless -o must not write the default output"
    );
}

#[test]
fn trace_subcommand_converts_sidecars_to_perfetto_json() {
    let root = temp_root("trace");
    let run_dir = save_sample_run(&root, "sample");
    let jsonl = run_dir.join("trace.jsonl");
    assert!(jsonl.is_file(), "tracing was on, sidecar must exist");

    let converted = run_dir.join("converted.json");
    let out = rr_inspect(&[
        "trace",
        jsonl.to_str().unwrap(),
        "-o",
        converted.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("Perfetto"), "{}", stdout(&out));

    let chrome = std::fs::read_to_string(&converted).expect("converted output");
    let stats = relaxreplay::trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
    // One track per core plus the coherence track.
    assert_eq!(stats.tracks, 3, "{:?}", stats.track_names);
    assert!(stats.events > 0);

    // Garbage input fails with a line diagnostic, not a panic.
    let bad = root.join("bad.jsonl");
    std::fs::write(&bad, "{\"not\":\"a trace\"}\n").expect("writes");
    let out = rr_inspect(&["trace", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));
}

#[test]
fn stat_histogram_agrees_with_the_chunk_table_around_a_corrupt_middle_chunk() {
    let root = temp_root("stat_corrupt");
    let run_dir = save_sample_run(&root, "sample");
    let rrlog = run_dir.join("Base-4K").join("core0.rrlog");

    // Re-encode the log with tiny chunks so it spans many chunks, then
    // flip a payload byte in a middle chunk (keeping the framing intact).
    let log = relaxreplay::wire::read_rrlog(&rrlog).expect("reads");
    let mut bytes = relaxreplay::wire::encode_chunked_with(&log, 16);
    let chunks = relaxreplay::wire::decode_chunked_skip(&bytes).chunks;
    assert!(
        chunks.len() >= 3,
        "need a middle chunk, got {}",
        chunks.len()
    );
    let mid = &chunks[chunks.len() / 2];
    bytes[mid.offset + 4] ^= 0x01; // first payload byte, after the u32 len
    let corrupt = root.join("corrupt.rrlog");
    std::fs::write(&corrupt, &bytes).expect("writes");

    let out = rr_inspect(&["stat", corrupt.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt file must exit nonzero");
    let text = stdout(&out);
    assert!(text.contains("integrity: DAMAGED"), "{text}");
    assert!(text.contains("MISMATCH"), "{text}");
    assert!(
        text.contains(&format!(", {} chunk(s)", chunks.len())),
        "{text}"
    );

    // The chunk table lists every chunk, with only the damaged one
    // failing its CRC, and its per-chunk entry counts sum to exactly the
    // histogram's TOTAL: the skip decoder keeps decoding after the damaged
    // chunk instead of stopping at it.
    let mut in_map = false;
    let mut map_sum = 0u64;
    let mut crcs = Vec::new();
    let mut total = None;
    for line in text.lines() {
        if line.starts_with("== chunk map ==") {
            in_map = true;
            continue;
        }
        if line.starts_with("== ") {
            in_map = false;
        }
        let cells: Vec<&str> = line.split_whitespace().collect();
        // Data rows: chunk, offset, payload B, entries, first ts, crc.
        if in_map && cells.len() == 6 {
            if let Ok(entries) = cells[3].parse::<u64>() {
                map_sum += entries;
                crcs.push(cells[5] == "ok");
            }
        }
        if cells.first() == Some(&"TOTAL") {
            total = cells[1].parse::<u64>().ok();
        }
    }
    let want: Vec<bool> = (0..chunks.len()).map(|i| i != chunks.len() / 2).collect();
    assert_eq!(
        crcs, want,
        "one row per chunk, only the middle one damaged:\n{text}"
    );
    let total = total.expect("histogram TOTAL row present");
    assert!(map_sum > 0, "chunk map parsed:\n{text}");
    assert_eq!(
        map_sum, total,
        "chunk-map entry sum and histogram TOTAL disagree:\n{text}"
    );

    // Entries from chunks after the damaged one are counted (strictly
    // more than the clean prefix alone).
    let prefix: u64 = chunks[..chunks.len() / 2]
        .iter()
        .map(|c| c.entries as u64)
        .sum();
    assert!(
        total > prefix,
        "skip decoder must keep decoding past the damaged chunk ({total} <= {prefix})"
    );
}

#[test]
fn stat_rejects_pre_v3_streams_naming_the_version() {
    let root = temp_root("stat_v2");
    let run_dir = save_sample_run(&root, "sample");
    let rrlog = run_dir.join("Base-4K").join("core0.rrlog");

    // A valid v3 body under a v2 header: v2 carried frame-delta state
    // across chunks, so reading it with the v3 rule would misread
    // timestamps. It must be refused, not summarised.
    let mut bytes = std::fs::read(&rrlog).expect("reads");
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    let old = root.join("old_v2.rrlog");
    std::fs::write(&old, &bytes).expect("writes");

    let out = rr_inspect(&["stat", old.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("unsupported .rrlog version 2"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn check_rejects_a_truth_sidecar_with_an_unaligned_cell() {
    use relaxreplay::wire::{crc32, write_varint};
    let root = temp_root("check_truth_align");
    let run_dir = save_sample_run(&root, "sample");
    // A CRC-valid sidecar: one cell at 0x103 = 7, then two empty traces.
    let mut truth = b"RRTR".to_vec();
    truth.extend_from_slice(&1u16.to_le_bytes());
    for v in [1, 0x103, 7, 2, 0, 0] {
        write_varint(&mut truth, v);
    }
    let crc = crc32(&truth);
    truth.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(run_dir.join("truth.bin"), &truth).expect("writes");

    let out = rr_inspect(&["check", run_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("truth cell address not word-aligned"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn stat_rejects_a_manifest_claiming_more_than_256_cores() {
    let root = temp_root("stat_cores");
    let run_dir = root.join("hostile");
    std::fs::create_dir_all(&run_dir).expect("mkdir");
    std::fs::write(run_dir.join("manifest.txt"), "cores 257\nBase-4K\n").expect("writes");

    let out = rr_inspect(&["stat", run_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("manifest claims more than 256 cores"),
        "{}",
        stderr(&out)
    );
    assert!(!stdout(&out).contains("core0.rrlog"), "{}", stdout(&out));
}

#[test]
fn dag_reports_stats_and_exports_dot() {
    let root = temp_root("dag");
    let run = sample_run();
    LocalStore::new(&root)
        .save_run("dagrun", &run)
        .expect("saves");
    let run_dir = root.join("dagrun");
    let dot_dir = root.join("dot");

    let out = rr_inspect(&[
        "dag",
        run_dir.to_str().unwrap(),
        "--dot",
        dot_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "dag failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("interval DAG"),
        "missing table title:\n{text}"
    );
    // A freshly saved run carries an `ordering.bin` sidecar, so every
    // variant row must report the recorded partial order.
    assert!(text.contains("partial"), "expected partial order:\n{text}");
    assert!(
        !text.contains(" total "),
        "no variant should fall back:\n{text}"
    );

    // `preds` counts the recorded predecessor entries and `ordering B` is
    // the encoded sidecar's size, the same for a local and an `rr://`
    // store.
    let server = serve("127.0.0.1:0", ServerConfig::new(root.join("served"))).expect("serves");
    RemoteStore::new(server.addr().to_string())
        .save_run("dagrun", &run)
        .expect("remote save");
    let remote = rr_inspect(&["dag", &format!("{}/dagrun", server.url())]);
    server.shutdown();
    assert!(remote.status.success(), "stderr: {}", stderr(&remote));
    let header = dag_row(&text, "variant");
    let col = |name: &str| {
        header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no {name} column:\n{text}"))
    };
    // "ordering B" is two header words; every column after it shifts one.
    assert_eq!(
        header[col("edges") + 1..col("edges") + 3],
        ["ordering", "B"]
    );
    let (preds_at, bytes_at) = (col("preds"), col("edges") + 1);
    assert!(
        run.variants
            .iter()
            .flat_map(|v| &v.ordering)
            .any(|o| o.preds.iter().any(|p| !p.is_empty())),
        "the sample run records cross-core predecessors"
    );
    for v in &run.variants {
        let label = v.spec.label();
        let row = dag_row(&text, &label);
        let preds: usize = v.ordering.iter().flat_map(|o| &o.preds).map(Vec::len).sum();
        assert_eq!(row[preds_at], preds.to_string(), "{label}:\n{text}");
        let bytes = encode_ordering(&v.ordering).len();
        assert_eq!(row[bytes_at], bytes.to_string(), "{label}:\n{text}");
        assert_eq!(dag_row(&stdout(&remote), &label), row, "{label}");
    }

    // One .dot per variant, each a syntactically plausible digraph.
    let dots: Vec<PathBuf> = std::fs::read_dir(&dot_dir)
        .expect("dot dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(!dots.is_empty(), "no .dot files written");
    for p in &dots {
        let s = std::fs::read_to_string(p).expect("readable .dot");
        assert!(s.starts_with("digraph"), "{}: not a digraph", p.display());
        assert!(s.trim_end().ends_with('}'), "{}: unterminated", p.display());
        // The cost-weighted critical path is highlighted: at least one
        // node and (in a multi-interval DAG) one edge carry the red
        // emphasis attributes.
        assert!(
            s.contains("color=red") && s.contains("penwidth=2.0"),
            "{}: critical path not highlighted:\n{s}",
            p.display()
        );
    }

    // Without the sidecar the command still works, in total order.
    std::fs::remove_file(run_dir.join("Base").join("ordering.bin")).ok();
    for entry in std::fs::read_dir(&run_dir).expect("run dir") {
        let p = entry.expect("entry").path();
        if p.is_dir() {
            let _ = std::fs::remove_file(p.join("ordering.bin"));
        }
    }
    let out = rr_inspect(&["dag", run_dir.to_str().unwrap()]);
    assert!(out.status.success(), "dag (total) failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("total"),
        "expected total-order fallback:\n{text}"
    );
    assert!(!text.contains("partial"), "sidecars were removed:\n{text}");
    let row = dag_row(&text, "Opt-4K");
    assert_eq!(row[preds_at], "-", "no sidecar, no entries:\n{text}");
    assert_eq!(row[bytes_at], "-", "no sidecar, no bytes:\n{text}");
}

#[test]
fn prof_writes_blame_sidecar_and_worker_timeline_for_a_named_workload() {
    let root = temp_root("prof");
    // Record the real `fft` workload so `rr-inspect prof` can regenerate
    // its programs by name and run the profiled engine.
    let w = rr_workloads::by_name("fft", 2, 1).expect("fft exists");
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&MachineConfig::splash_default(2))
        .specs(&RecorderSpec::paper_matrix())
        .run()
        .expect("records");
    LocalStore::new(&root)
        .save_run("fft", &result)
        .expect("saves");

    let out_dir = root.join("prof-out");
    let out = rr_inspect(&[
        "prof",
        root.to_str().unwrap(),
        "--size",
        "1",
        "--workers",
        "2",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "prof failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("critical-path blame"), "{text}");
    for label in ["Base-4K", "Opt-4K", "Base-INF", "Opt-INF"] {
        assert!(text.contains(label), "{text}");
    }

    let prof_json =
        std::fs::read_to_string(out_dir.join("fft.prof.json")).expect("prof sidecar written");
    let stats = relaxreplay::validate_prof_json(&prof_json).expect("valid rr-prof/v1");
    assert_eq!(stats.entries, 4, "one entry per recorder variant");
    assert_eq!(stats.with_engine, 4, "named workload gets engine timelines");

    let chrome =
        std::fs::read_to_string(out_dir.join("fft.prof.trace.json")).expect("timeline written");
    let tstats = relaxreplay::trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
    assert!(tstats.events > 0);
    assert!(
        tstats.track_names.iter().any(|n| n == "worker 0"),
        "{:?}",
        tstats.track_names
    );
}

#[test]
fn prof_still_emits_blame_when_the_workload_name_is_unknown() {
    let root = temp_root("prof_unknown");
    let run_dir = save_sample_run(&root, "sample");

    let out = rr_inspect(&["prof", run_dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "prof must degrade gracefully: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("skipping the engine timeline"),
        "unknown workload must be noted:\n{text}"
    );
    assert!(text.contains("critical-path blame"), "{text}");

    // Blame sidecar lands next to the run (the --save-logs root), with no
    // engine sections and no timeline file.
    let prof_json =
        std::fs::read_to_string(root.join("sample.prof.json")).expect("prof sidecar written");
    let stats = relaxreplay::validate_prof_json(&prof_json).expect("valid rr-prof/v1");
    assert_eq!(stats.entries, 4);
    assert_eq!(stats.with_engine, 0);
    assert!(!root.join("sample.prof.trace.json").exists());
}
