//! `rr-bench` — the bench-trajectory gate.
//!
//! The measurement harnesses live in `benches/` (`cargo bench -p rr-bench
//! --bench codec -- --out BENCH_codec.json`); this binary judges their
//! output over time:
//!
//! ```text
//! rr-bench compare OLD.json NEW.json [--threshold PCT]
//!                  [--threshold NAME=PCT]... [--warn-only]
//! ```
//!
//! Exit status: `0` clean (or `--warn-only`), `1` regression detected or
//! a simulated `cycles`/`instrs` count changed (even under `--warn-only`),
//! `2` usage or unreadable/unparseable input.

use std::process::ExitCode;

use rr_bench::compare::{compare, parse_bench_json, BenchDoc, Thresholds};
use rr_experiments::report::Table;

const USAGE: &str = "\
usage: rr-bench compare <old.json> <new.json> [options]

Compares two bench result files (any rr-bench/* schema) and exits
nonzero if any bench's new median exceeds its regression threshold, or
if a bench both files time carries different cycles or instrs counts.

options:
  --threshold PCT        default allowed slowdown in percent (default 50)
  --threshold NAME=PCT   per-bench override (repeatable)
  --warn-only            report slow medians but exit 0 (shared CI runners)
";

fn load(path: &str) -> Result<BenchDoc, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_bench_json(&s).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut thresholds = Thresholds::default();
    let mut warn_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let spec = if let Some(v) = arg.strip_prefix("--threshold=") {
            Some(v.to_string())
        } else if arg == "--threshold" {
            match it.next() {
                Some(v) => Some(v.clone()),
                None => {
                    eprintln!("rr-bench: --threshold needs a value");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--warn-only" {
            warn_only = true;
            None
        } else if arg.starts_with('-') {
            eprintln!("rr-bench: unknown option {arg}\n{USAGE}");
            return ExitCode::from(2);
        } else {
            files.push(arg.clone());
            None
        };
        if let Some(spec) = spec {
            let parsed = match spec.split_once('=') {
                Some((name, pct)) => pct.parse::<f64>().map(|p| (Some(name.to_string()), p)),
                None => spec.parse::<f64>().map(|p| (None, p)),
            };
            match parsed {
                Ok((Some(name), pct)) => thresholds.per_bench.push((name, pct)),
                Ok((None, pct)) => thresholds.default_pct = pct,
                Err(_) => {
                    eprintln!("rr-bench: bad threshold {spec:?} (want PCT or NAME=PCT)");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rr-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if old.schema != new.schema {
        eprintln!(
            "rr-bench: note: comparing across schemas ({} vs {})",
            old.schema, new.schema
        );
    }
    let cmp = compare(&old, &new, &thresholds);
    if let Some((a, b)) = &cmp.mode_mismatch {
        eprintln!("rr-bench: warning: mode mismatch (old {a:?} vs new {b:?}) — medians are not comparable");
    }

    let mut t = Table::new(
        &format!("bench trajectory: {old_path} -> {new_path}"),
        &["bench", "old ns", "new ns", "delta", "threshold", "verdict"],
    );
    for d in &cmp.deltas {
        t.row(vec![
            d.name.clone(),
            d.old_ns.to_string(),
            d.new_ns.to_string(),
            format!("{:+.1}%", d.delta_pct),
            format!("{:.0}%", d.threshold_pct),
            if d.regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    print!("{}", t.render());
    for name in &cmp.added {
        println!("  new bench (no baseline): {name}");
    }
    for name in &cmp.removed {
        println!("  bench disappeared: {name}");
    }

    for change in &cmp.counter_changes {
        println!("  simulated counter changed: {change}");
    }
    if !cmp.counter_changes.is_empty() {
        println!(
            "{} simulated counter(s) changed: the benches no longer compute the same thing",
            cmp.counter_changes.len()
        );
        return ExitCode::from(1);
    }
    let regressions = cmp.regressions();
    if regressions.is_empty() {
        println!("no regressions ({} benches compared)", cmp.deltas.len());
        return ExitCode::SUCCESS;
    }
    println!(
        "{} regression(s): {}",
        regressions.len(),
        regressions.join(", ")
    );
    if warn_only {
        println!("(--warn-only: exiting 0)");
        return ExitCode::SUCCESS;
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(cmd) => {
            eprintln!("rr-bench: unknown command {cmd:?}\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
