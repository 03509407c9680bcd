//! Runs every workload for one round (`--smoke`), untraced and traced,
//! and checks the output against `BENCHMARK.json`: each named metric is
//! printed with its unit and sample count, `error_rate` with its base,
//! the last line is the result object, and in a traced run the item
//! spans' children cover at least 95% of the items' wall time, so a stage
//! the benchmark forgot to time shows up.

use std::path::{Path, PathBuf};
use std::process::Command;

use relaxreplay::trace::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn spec_metrics(list: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rr-benchmark"))
        .args(args)
        .output()
        .expect("run rr-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

fn value(v: &Value) -> f64 {
    match v {
        Value::UInt(n) => *n as f64,
        Value::Num(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

/// Checks one run's output and returns its metric values by name.
fn check_output(stdout: &str, metrics: &[(String, String)]) -> Vec<(String, f64)> {
    for (name, unit) in metrics {
        let prefix = format!("metric {name} ");
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no line for metric {name}:\n{stdout}"));
        assert!(
            line.contains(&format!(" {unit} samples=")),
            "{name} printed without its unit and sample count: {line}"
        );
    }
    let error_rate = stdout
        .lines()
        .find(|l| l.starts_with("error_rate "))
        .expect("an error_rate line");
    assert!(
        error_rate.contains(" failed of ") && error_rate.ends_with(" attempted)"),
        "error_rate printed without its base: {error_rate}"
    );

    let last = json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let keys: Vec<&str> = last
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(
        last.get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    let printed = last
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(printed.len(), metrics.len(), "exactly the listed metrics");
    metrics
        .iter()
        .map(|(name, unit)| {
            let m = last.get("metrics").and_then(|ms| ms.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            (name.clone(), value(m.get("value").expect("value")))
        })
        .collect()
}

fn check_workload(workload: &str) {
    std::fs::create_dir_all(out_dir()).expect("out dir");
    let results = out_dir().join(format!("test-{workload}.jsonl"));
    let _ = std::fs::remove_file(&results);
    let results_arg = results.to_str().expect("UTF-8 path");
    let common = ["--workload", workload, "--smoke", "--out", results_arg];

    let (ok, stdout) = bench(&[&common[..], &["--trace", "0"]].concat());
    assert!(ok, "untraced run failed");
    let e2e = check_output(&stdout, &spec_metrics("end_to_end"));
    for (name, v) in &e2e {
        assert!(*v > 0.0, "end-to-end metric {name} is {v}");
    }

    let (ok, stdout) = bench(&[&common[..], &["--trace", "1"]].concat());
    assert!(ok, "traced run failed");
    let layers = check_output(&stdout, &spec_metrics("per_layer"));
    let coverage = layers
        .iter()
        .find(|(n, _)| n == "trace.coverage_pct")
        .expect("coverage metric")
        .1;
    assert!(
        coverage >= 95.0,
        "spans cover only {coverage}% of the items' time"
    );
    let trace = std::fs::read_to_string(out_dir().join(format!("trace-{workload}.json")))
        .expect("trace file");
    let events = json::parse(&trace).expect("trace is JSON");
    let events = events
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("item")));

    // A run compared with itself is ok on every metric; the same run
    // with a doubled latency regresses.
    let (ok, stdout) = bench(&["--compare", results_arg, results_arg]);
    assert!(
        ok && stdout.lines().skip(1).all(|l| l.starts_with("ok ")),
        "{stdout}"
    );
    let text = std::fs::read_to_string(&results).expect("results");
    let untraced = text
        .lines()
        .find(|l| l.contains("\"trace\":0"))
        .expect("untraced line");
    let p50 = e2e
        .iter()
        .find(|(n, _)| n == "item_p50_ms")
        .expect("item_p50_ms")
        .1;
    let slower = untraced.replace(
        &format!("{{\"value\":{p50},"),
        &format!("{{\"value\":{},", 2.0 * p50),
    );
    assert_ne!(slower, untraced, "item_p50_ms found in the --out line");
    let slower_path = out_dir().join(format!("test-{workload}-slower.jsonl"));
    std::fs::write(&slower_path, slower).expect("write");
    let (ok, stdout) = bench(&[
        "--compare",
        results_arg,
        slower_path.to_str().expect("UTF-8"),
    ]);
    assert!(!ok, "a doubled p50 must fail the comparison");
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("regressed ") && l.contains("item_p50_ms")));
    let _ = std::fs::remove_file(&results);
    let _ = std::fs::remove_file(&slower_path);
}

#[test]
fn record_splash() {
    check_workload("record-splash");
}

#[test]
fn check_fuzz() {
    check_workload("check-fuzz");
}

#[test]
fn replay_store() {
    check_workload("replay-store");
}

#[test]
fn serve_roundtrip() {
    check_workload("serve-roundtrip");
}
