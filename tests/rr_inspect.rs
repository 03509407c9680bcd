//! Integration tests for the `rr-inspect` CLI: stat/dump over healthy
//! `.rrlog` files and run directories, check over corrupted artifacts
//! (nonzero exit), and trace-sidecar conversion to Chrome/Perfetto JSON.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use relaxreplay::trace::{TraceConfig, TraceLevel};
use rr_isa::{MemImage, ProgramBuilder, Reg};
use rr_sim::{LocalStore, MachineConfig, RecordSession, RecorderSpec, RunStore};

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
    let result = RecordSession::new(&programs, &MemImage::new())
        .config(&cfg)
        .specs(&RecorderSpec::paper_matrix())
        .run()
        .expect("records");
    LocalStore::new(root)
        .save_run(name, &result)
        .expect("saves");
    root.join(name)
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
fn dag_reports_stats_and_exports_dot() {
    let root = temp_root("dag");
    let run_dir = save_sample_run(&root, "dagrun");
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
