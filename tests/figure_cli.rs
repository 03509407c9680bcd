//! CLI tests for the figure binaries' shared driver
//! (`rr_experiments::figure_main`): an argument naming no flag is a usage
//! error, and `--prof` / `--trace` leave the same sidecars whichever
//! figure is run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rr_figure_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn an_unknown_argument_is_a_usage_error_naming_it() {
    let results = temp_results("unknown");
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--wokers", "3"])
        .env("RR_RESULTS_DIR", &results)
        .output()
        .expect("table1 spawns");
    assert_eq!(out.status.code(), Some(2), "usage error is exit 2");
    let err = stderr(&out);
    assert!(err.contains("unknown argument \"--wokers\""), "{err}");
    assert!(
        err.contains("--workers N"),
        "the error lists the flags: {err}"
    );
    assert!(!results.exists(), "nothing runs after a usage error");
}

#[test]
fn fig09_writes_prof_and_trace_sidecars() {
    let results = temp_results("fig09");
    let out = Command::new(env!("CARGO_BIN_EXE_fig09_reordered"))
        .args(["--prof", "--trace", "intervals"])
        .env("RR_THREADS", "2")
        .env("RR_SIZE", "1")
        .env("RR_RESULTS_DIR", &results)
        .output()
        .expect("fig09_reordered spawns");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let read = |name: &str| {
        std::fs::read_to_string(results.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };

    let prof = relaxreplay::validate_prof_json(&read("fig09.prof.json")).expect("rr-prof/v1");
    let metrics = read("fig09.metrics.jsonl");
    assert_eq!(
        prof.entries,
        metrics.lines().count() * 4,
        "blame for every run x variant"
    );
    let trace = relaxreplay::trace::validate_chrome_trace(&read("fig09.trace.json"))
        .expect("valid chrome trace");
    assert!(trace.events > 0);
    assert!(read("fig09.trace.jsonl").lines().count() > 0);
    assert!(read("fig09.csv").starts_with("workload,"));
    let _ = std::fs::remove_dir_all(&results);
}
