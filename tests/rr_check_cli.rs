//! CLI regression tests for `rr-check`: workload resolution (litmus,
//! corpus, and single-shape names), the exact usage-error contract
//! (exit 2, and an unknown `--workload` names every known workload so
//! typos are self-diagnosing), and the `fuzz` subcommand end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rr_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rr-check"))
        .args(args)
        .output()
        .expect("rr-check spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rr_check_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unknown_workload_exits_2_and_lists_every_known_name() {
    let out = rr_check(&["explore", "--workload", "spinlok"]);
    assert_eq!(out.status.code(), Some(2), "usage error is exit 2");
    let err = stderr(&out);
    assert!(err.contains("unknown workload \"spinlok\""), "{err}");
    // The listing must cover all three families plus the two keywords.
    for name in [
        "litmus",
        "corpus",
        "fft",
        "radiosity",
        "sb",
        "iriw",
        "spinlock",
        "rcu_epoch",
    ] {
        assert!(err.contains(name), "error should list {name:?}:\n{err}");
    }
}

#[test]
fn usage_errors_exit_2() {
    // (args, whether the error echoes the usage text)
    for (args, echoes_usage) in [
        (vec![], true),
        (vec!["frobnicate"], true),
        (vec!["explore", "--no-such-flag"], true),
        (vec!["explore", "--seeds"], true),
        (vec!["explore", "--pressure", "nonesuch"], true),
        (vec!["fuzz", "--no-such-flag"], true),
        (vec!["fuzz", "--count", "many"], false),
        (vec!["explore", "--seeds", "many"], false),
    ] {
        let out = rr_check(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        if echoes_usage {
            assert!(stderr(&out).contains("usage:"), "{args:?}");
        }
    }
}

#[test]
fn modes_lists_every_pressure_mode() {
    let out = rr_check(&["modes"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for m in [
        "none",
        "force-close",
        "traq",
        "sig-alias",
        "cisn-wrap",
        "sink-fault",
    ] {
        assert!(text.lines().any(|l| l == m), "missing mode {m}:\n{text}");
    }
}

#[test]
fn explore_resolves_a_corpus_shape_by_name() {
    let dir = temp_out("corpus_shape");
    let out = rr_check(&[
        "explore",
        "--workload",
        "spinlock",
        "--seeds",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("spinlock"), "{text}");
    assert!(text.contains("replay deterministically"), "{text}");
    assert!(dir.join("rr-check.csv").is_file(), "CSV artifact written");
}

#[test]
fn fuzz_smoke_runs_clean_and_reports_the_seed_range() {
    let dir = temp_out("fuzz");
    let out = rr_check(&[
        "fuzz",
        "--count",
        "3",
        "--start-seed",
        "7",
        "--schedules",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("seeds 7..10"), "{text}");
    assert!(text.contains("replay deterministically"), "{text}");
}

/// `verify` reads its own flags after the store; the experiments config
/// it builds on skips them rather than rejecting them as the figure
/// binaries do.
#[test]
fn verify_with_workers_replays_a_saved_store() {
    let dir = temp_out("verify");
    let w = rr_workloads::by_name("sb", 2, 1).expect("sb litmus workload");
    let run = rr_sim::RecordSession::new(&w.programs, &w.initial_mem)
        .config(&rr_sim::MachineConfig::splash_default(w.programs.len()))
        .specs(&rr_sim::RecorderSpec::paper_matrix())
        .run()
        .expect("records");
    rr_sim::RunStore::save_run(&rr_sim::LocalStore::new(&dir), "sb", &run).expect("saves");

    let out = rr_check(&["verify", dir.to_str().unwrap(), "--workers", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("verified against the recorded ground truth"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn explore_trace_writes_the_seed0_trace_pair() {
    let dir = temp_out("trace");
    let out = rr_check(&[
        "explore",
        "--workload",
        "sb",
        "--seeds",
        "1",
        "--trace",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let chrome = std::fs::read_to_string(dir.join("rr-check-sb.trace.json")).expect("trace");
    relaxreplay::trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
    let jsonl = std::fs::read_to_string(dir.join("rr-check-sb.trace.jsonl")).expect("jsonl");
    assert!(
        jsonl.lines().all(|l| l.contains("\"run\":\"sb/seed0\"")),
        "{jsonl}"
    );
}
