//! `rr-inspect` — offline forensics for RelaxReplay artifacts.
//!
//! ```text
//! rr-inspect stat  <file.rrlog | run-dir | rr://host:port[/run]>
//!                                             chunk map, entry histogram,
//!                                             per-interval reordered density;
//!                                             store stats for rr:// specs
//! rr-inspect dump  <file.rrlog> [--limit N]   print decoded entries
//! rr-inspect check <file.rrlog | dir | rr://host:port[/run]>
//!                                             verify integrity (exit 1 on damage)
//! rr-inspect dag   <run-dir | rr://host:port[/run]> [--dot DIR]
//!                                             interval-DAG stats per variant
//!                                             (+ Graphviz export with --dot;
//!                                             the critical path is red)
//! rr-inspect prof  <run-dir | root> [--workers N] [--size N] [--out DIR]
//!                                             critical-path blame per variant,
//!                                             `<run>.prof.json` sidecars, and a
//!                                             per-worker Perfetto timeline of
//!                                             the profiled replay engine
//! rr-inspect trace <trace.jsonl> [-o out.json] convert a trace sidecar to
//!                                             Chrome/Perfetto trace JSON
//! ```
//!
//! `check`, `dag`, and `prof` on a directory accept either one run
//! directory (it contains `manifest.txt`) or a `--save-logs` root holding
//! many runs; a run check also validates the `truth.bin` ground-truth
//! sidecar. `stat`, `check`, and `dag` also accept an `rr://host:port[/run]`
//! store URL and operate on the runs a running `rr-serve` holds; corruption
//! in the remote chunk store surfaces as a typed error and exit code 1,
//! never a panic.
//!
//! `dag` patches each variant's logs and builds the replay interval DAG —
//! the recorded partial order when the run carries an `ordering.bin`
//! sidecar, otherwise the timestamp total order — and reports the node
//! count, the recorded predecessor entries (`preds`: the transitive
//! reduction, only the cross-core entries no other edge implies), the
//! DAG's edge count (same-core chains, one cross-core edge per entry,
//! barriers), the sidecar's encoded size (`ordering B`), critical-path
//! length, maximum antichain width, and the ideal speedup bound
//! `nodes / critical_path` that the parallel replay engine cannot exceed
//! (paper §3.6).
//!
//! `prof` goes one step further: for each variant it weights that DAG
//! under the replay cost model, attributes the modeled makespan to cores
//! and op kinds (critical-path blame), and — when the run's workload can
//! be regenerated by name (`--size` must match the recorded size) —
//! re-replays it on the span-instrumented threaded engine, writing a
//! `<run>.prof.trace.json` per-worker timeline for Perfetto next to the
//! `<run>.prof.json` blame sidecar.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use relaxreplay::wire::{decode_chunked_into, decode_chunked_skip, parse_header};
use relaxreplay::{IntervalLog, LogEntry};
use rr_experiments::report::Table;
use rr_sim::{with_variant_dag, RunStore};

const USAGE: &str = "usage:
  rr-inspect stat  <file.rrlog | run-dir | rr://host:port[/run]>
  rr-inspect dump  <file.rrlog> [--limit N]
  rr-inspect check <file.rrlog | dir | rr://host:port[/run]>
  rr-inspect dag   <run-dir | rr://host:port[/run]> [--dot DIR]
  rr-inspect prof  <run-dir | root> [--workers N] [--size N] [--out DIR]
  rr-inspect trace <trace.jsonl> [-o out.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "stat" => cmd_stat(rest),
            "dump" => cmd_dump(rest),
            "check" => cmd_check(rest),
            "dag" => cmd_dag(rest),
            "prof" => cmd_prof(rest),
            "trace" => cmd_trace(rest),
            "-h" | "--help" | "help" => {
                println!("{USAGE}");
                0
            }
            other => {
                eprintln!("unknown command {other:?}\n{USAGE}");
                2
            }
        },
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    ExitCode::from(code)
}

fn one_path(args: &[String], cmd: &str) -> Result<PathBuf, u8> {
    match args.first() {
        Some(p) => Ok(PathBuf::from(p)),
        None => {
            eprintln!("rr-inspect {cmd}: missing path\n{USAGE}");
            Err(2)
        }
    }
}

/// The value of option `flag` when `arg` is `flag` (the value is the next
/// argument, if any) or `flag=value`; `None` when `arg` is something else.
fn flag_arg<'a>(
    flag: &str,
    arg: &'a str,
    rest: &mut std::slice::Iter<'a, String>,
) -> Option<Option<&'a str>> {
    if arg == flag {
        Some(rest.next().map(String::as_str))
    } else {
        arg.strip_prefix(flag)?.strip_prefix('=').map(Some)
    }
}

/// An argument that names no option of `cmd`: a usage error (exit 2)
/// naming it.
fn unknown_arg(cmd: &str, arg: &str) -> u8 {
    let what = if arg.starts_with('-') {
        "unknown option"
    } else {
        "unexpected argument"
    };
    eprintln!("rr-inspect {cmd}: {what} {arg:?}\n{USAGE}");
    2
}

/// A numeric option's value; a missing or unparseable one is a usage
/// error (exit 2).
fn parse_num<T: std::str::FromStr>(cmd: &str, flag: &str, value: Option<&str>) -> Result<T, u8> {
    value.and_then(|v| v.parse().ok()).ok_or_else(|| {
        eprintln!("rr-inspect {cmd}: {flag} needs a number\n{USAGE}");
        2
    })
}

/// A path option's value; a missing or empty one is a usage error (exit
/// 2), never a fall-back to the default path.
fn parse_path(cmd: &str, flag: &str, value: Option<&str>) -> Result<PathBuf, u8> {
    match value {
        Some(v) if !v.is_empty() => Ok(PathBuf::from(v)),
        _ => {
            eprintln!("rr-inspect {cmd}: {flag} needs a path\n{USAGE}");
            Err(2)
        }
    }
}

// ---------------------------------------------------------------------------
// stat
// ---------------------------------------------------------------------------

fn cmd_stat(args: &[String]) -> u8 {
    let path = match one_path(args, "stat") {
        Ok(p) => p,
        Err(c) => return c,
    };
    if args[0].starts_with("rr://") {
        return stat_store(&args[0]);
    }
    if path.is_dir() {
        stat_run_dir(&path)
    } else {
        stat_file(&path)
    }
}

/// `stat rr://host:port[/run]` — per-run sizing straight from the store's
/// catalogs, plus the content-addressed dedup accounting. A damaged blob
/// comes back as a typed `StoreError` (e.g. `corrupt-blob`) and exit
/// code 1, never a panic.
fn stat_store(spec: &str) -> u8 {
    let (store, names) = match resolve_store(spec) {
        Ok(t) => t,
        Err(c) => return c,
    };
    let mut code = 0u8;
    let mut dedup: Option<rr_sim::DedupStat> = None;
    for name in &names {
        let stat = match store.stat_run(name) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{name}: {e}");
                code = 1;
                continue;
            }
        };
        let mut t = Table::new(
            &format!(
                "{name}: {} core(s), truth sidecar {} B",
                stat.cores, stat.truth_bytes
            ),
            &["variant", "chunks", "log bytes", "ordering"],
        );
        for v in &stat.variants {
            t.row(vec![
                v.label.clone(),
                format!("{}", v.chunks),
                format!("{}", v.log_bytes),
                if v.has_ordering { "partial" } else { "total" }.to_string(),
            ]);
        }
        t.print();
        dedup = stat.dedup.or(dedup);
    }
    if let Some(d) = dedup {
        println!(
            "store {}: {} blob(s), {} B physical, {} B logical, dedup {:.2}x",
            store.describe(),
            d.blobs,
            d.blob_bytes,
            d.logical_bytes,
            d.ratio()
        );
    }
    code
}

fn entry_name(e: &LogEntry) -> &'static str {
    match e {
        LogEntry::InorderBlock { .. } => "InorderBlock",
        LogEntry::ReorderedLoad { .. } => "ReorderedLoad",
        LogEntry::ReorderedStore { .. } => "ReorderedStore",
        LogEntry::ReorderedRmw { .. } => "ReorderedRmw",
        LogEntry::IntervalFrame { .. } => "IntervalFrame",
    }
}

/// Reordered entries per interval: one count per `IntervalFrame`, plus the
/// count of trailing entries after the last frame if any (an unterminated
/// tail, e.g. on a truncated file).
fn reordered_density(entries: &[LogEntry]) -> Vec<u64> {
    let mut per_interval = Vec::new();
    let mut current = 0u64;
    let mut tail = false;
    for e in entries {
        match e {
            LogEntry::IntervalFrame { .. } => {
                per_interval.push(current);
                current = 0;
                tail = false;
            }
            LogEntry::InorderBlock { .. } => tail = true,
            _ => {
                current += 1;
                tail = true;
            }
        }
    }
    if tail {
        per_interval.push(current);
    }
    per_interval
}

fn stat_file(path: &Path) -> u8 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    // A foreign or version-skewed header has nothing to summarise.
    let (core, version) = match parse_header(&bytes) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    // One lenient walk yields the chunk table and every salvageable
    // entry: it skips damaged chunks, so the histogram totals always
    // agree with the table's per-chunk entry counts — including the
    // chunks *after* a corrupt one.
    let salvage = decode_chunked_skip(&bytes);
    println!(
        "{}: core {}, wire v{version}, {} bytes, {} chunk(s)",
        path.display(),
        core.index(),
        bytes.len(),
        salvage.chunks.len(),
    );

    let mut t = Table::new(
        "chunk map",
        &["chunk", "offset", "payload B", "entries", "first ts", "crc"],
    );
    for c in &salvage.chunks {
        t.row(vec![
            format!("{}", c.index),
            format!("{}", c.offset),
            format!("{}", c.payload_bytes),
            format!("{}", c.entries),
            c.first_timestamp
                .map_or_else(|| "-".to_string(), |ts| format!("{ts}")),
            if c.crc_ok { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    t.print();

    let (log, decode_err) = (salvage.log, salvage.err);
    let mut hist: Vec<(&'static str, u64)> = Vec::new();
    for e in &log.entries {
        let name = entry_name(e);
        match hist.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => hist.push((name, 1)),
        }
    }
    let mut t = Table::new("entry histogram", &["entry", "count"]);
    for (name, count) in &hist {
        t.row(vec![(*name).to_string(), format!("{count}")]);
    }
    t.row(vec!["TOTAL".into(), format!("{}", log.entries.len())]);
    t.print();

    let density = reordered_density(&log.entries);
    if density.is_empty() {
        println!("no intervals decoded");
    } else {
        let total: u64 = density.iter().sum();
        let max = density.iter().copied().max().unwrap_or(0);
        println!(
            "reordered density: {} interval(s), {:.2} reordered/interval avg, {max} max",
            density.len(),
            total as f64 / density.len() as f64
        );
    }

    match decode_err {
        None => {
            println!("integrity: ok");
            0
        }
        Some(e) => {
            println!("integrity: DAMAGED — {e}");
            1
        }
    }
}

fn stat_run_dir(run_dir: &Path) -> u8 {
    let (cores, labels) = match rr_sim::logdir::read_manifest(run_dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "{}: {e} (expected a run directory saved by --save-logs)",
                run_dir.display()
            );
            return 1;
        }
    };
    println!("{}: {cores} core(s)", run_dir.display());

    let mut code = 0u8;
    let mut t = Table::new(
        "variants",
        &["variant", "core", "bytes", "chunks", "entries", "crc"],
    );
    for label in &labels {
        for k in 0..cores {
            let path = run_dir.join(label).join(format!("core{k}.rrlog"));
            let row = match std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|b| {
                    parse_header(&b).map_err(|e| e.to_string())?;
                    let salvage = decode_chunked_skip(&b);
                    Ok((b.len(), salvage.chunks, salvage.err))
                }) {
                Ok((bytes, chunks, err)) => {
                    if err.is_some() {
                        code = 1;
                    }
                    vec![
                        label.to_string(),
                        format!("{k}"),
                        format!("{bytes}"),
                        format!("{}", chunks.len()),
                        format!("{}", chunks.iter().map(|c| c.entries).sum::<usize>()),
                        match err {
                            None => "ok".to_string(),
                            Some(e) => format!("DAMAGED ({e})"),
                        },
                    ]
                }
                Err(e) => {
                    code = 1;
                    vec![
                        label.to_string(),
                        format!("{k}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("ERROR ({e})"),
                    ]
                }
            };
            t.row(row);
        }
    }
    t.print();
    for sidecar in ["truth.bin", "trace.jsonl", "trace.json"] {
        let p = run_dir.join(sidecar);
        if let Ok(meta) = std::fs::metadata(&p) {
            println!("{sidecar}: {} bytes", meta.len());
        }
    }
    code
}

// ---------------------------------------------------------------------------
// dump
// ---------------------------------------------------------------------------

fn cmd_dump(args: &[String]) -> u8 {
    let path = match one_path(args, "dump") {
        Ok(p) => p,
        Err(c) => return c,
    };
    let mut limit = usize::MAX;
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if let Some(v) = flag_arg("--limit", a, &mut rest) {
            match parse_num("dump", "--limit", v) {
                Ok(n) => limit = n,
                Err(c) => return c,
            }
        } else {
            return unknown_arg("dump", a);
        }
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    let mut log = IntervalLog::new(rr_mem::CoreId::new(0));
    let err = decode_chunked_into(&bytes, &mut log, &mut ()).err();
    println!(
        "{}: core {}, {} entr{}",
        path.display(),
        log.core.index(),
        log.entries.len(),
        if log.entries.len() == 1 { "y" } else { "ies" }
    );
    for (i, e) in log.entries.iter().take(limit).enumerate() {
        let text = match e {
            LogEntry::InorderBlock { instrs } => format!("InorderBlock    instrs={instrs}"),
            LogEntry::ReorderedLoad { value } => format!("ReorderedLoad   value={value:#x}"),
            LogEntry::ReorderedStore {
                addr,
                value,
                offset,
            } => format!("ReorderedStore  addr={addr:#x} value={value:#x} offset={offset}"),
            LogEntry::ReorderedRmw {
                loaded,
                addr,
                stored,
                offset,
            } => match stored {
                Some(s) => format!(
                    "ReorderedRmw    addr={addr:#x} loaded={loaded:#x} stored={s:#x} offset={offset}"
                ),
                None => format!(
                    "ReorderedRmw    addr={addr:#x} loaded={loaded:#x} (failed) offset={offset}"
                ),
            },
            LogEntry::IntervalFrame { cisn, timestamp } => {
                format!("IntervalFrame   cisn={cisn} timestamp={timestamp}")
            }
        };
        println!("{i:>8}  {text}");
    }
    if log.entries.len() > limit {
        println!("... ({} more)", log.entries.len() - limit);
    }
    match err {
        None => 0,
        Some(e) => {
            eprintln!("stream damaged after the entries above: {e}");
            1
        }
    }
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn cmd_check(args: &[String]) -> u8 {
    let path = match one_path(args, "check") {
        Ok(p) => p,
        Err(c) => return c,
    };
    if !args[0].starts_with("rr://") && !path.is_dir() {
        return match relaxreplay::wire::read_rrlog(&path) {
            Ok(log) => {
                println!(
                    "{}: ok (core {}, {} entries)",
                    path.display(),
                    log.core.index(),
                    log.entries.len()
                );
                0
            }
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                1
            }
        };
    }
    // A run directory, a --save-logs root full of them, or a store URL.
    let (store, names) = match resolve_store(&args[0]) {
        Ok(t) => t,
        Err(c) => return c,
    };
    let mut code = 0u8;
    for name in &names {
        match store.load_run(name) {
            Ok(run) => {
                let logs: usize = run.variants.iter().map(|v| v.logs.len()).sum();
                println!(
                    "{name}: ok ({} variant(s), {logs} .rrlog file(s), truth verified)",
                    run.variants.len()
                );
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                code = 1;
            }
        }
    }
    code
}

/// Resolves a path to `(root, run names)`: a single run directory (it
/// contains `manifest.txt`) yields itself; anything else is treated as a
/// `--save-logs` root and enumerated.
fn resolve_runs(path: &Path) -> Result<(PathBuf, Vec<String>), u8> {
    if path.join("manifest.txt").is_file() {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => {
                eprintln!("{}: unusable directory name", path.display());
                return Err(1);
            }
        };
        let root = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        Ok((root, vec![name]))
    } else {
        match rr_sim::LocalStore::new(path).list_runs() {
            Ok(names) if !names.is_empty() => Ok((path.to_path_buf(), names)),
            Ok(_) => {
                eprintln!("{}: no saved runs found", path.display());
                Err(1)
            }
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                Err(1)
            }
        }
    }
}

/// Resolves any store spec — a run directory, a `--save-logs` root, or an
/// `rr://host:port[/run]` URL — to an opened [`rr_sim::RunStore`] plus the
/// run names to operate on.
fn resolve_store(arg: &str) -> Result<(Box<dyn rr_sim::RunStore>, Vec<String>), u8> {
    if arg.starts_with("rr://") {
        let (store, run) = match rr_serve::parse_and_open(arg) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{arg}: {e}");
                return Err(1);
            }
        };
        let names = match run {
            Some(name) => vec![name],
            None => match store.list_runs() {
                Ok(names) if !names.is_empty() => names,
                Ok(_) => {
                    eprintln!("{arg}: no sealed runs");
                    return Err(1);
                }
                Err(e) => {
                    eprintln!("{arg}: {e}");
                    return Err(1);
                }
            },
        };
        return Ok((store, names));
    }
    let (root, names) = resolve_runs(Path::new(arg))?;
    Ok((Box::new(rr_sim::LocalStore::new(root)), names))
}

// ---------------------------------------------------------------------------
// dag
// ---------------------------------------------------------------------------

fn cmd_dag(args: &[String]) -> u8 {
    let path = match one_path(args, "dag") {
        Ok(p) => p,
        Err(c) => return c,
    };
    if !args[0].starts_with("rr://") && !path.is_dir() {
        eprintln!(
            "rr-inspect dag: {} is not a directory (expected a run saved by --save-logs \
             or an rr://host:port[/run] store URL)",
            path.display()
        );
        return 1;
    }
    let mut dot_dir: Option<PathBuf> = None;
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if let Some(v) = flag_arg("--dot", a, &mut rest) {
            match parse_path("dag", "--dot", v) {
                Ok(p) => dot_dir = Some(p),
                Err(c) => return c,
            }
        } else {
            return unknown_arg("dag", a);
        }
    }
    let (store, names) = match resolve_store(&args[0]) {
        Ok(t) => t,
        Err(c) => return c,
    };
    if let Some(dir) = &dot_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("{}: {e}", dir.display());
            return 1;
        }
    }
    let mut code = 0u8;
    for name in &names {
        let run = match store.load_run(name) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{name}: {e}");
                code = 1;
                continue;
            }
        };
        let mut t = Table::new(
            &format!("{name}: interval DAG"),
            &[
                "variant",
                "order",
                "nodes",
                "preds",
                "edges",
                "ordering B",
                "crit path",
                "max width",
                "ideal x",
            ],
        );
        for v in &run.variants {
            // The recorded predecessor entries and the sidecar's encoded
            // size; a run saved without `ordering.bin` has neither.
            let (order, preds, ordering_bytes) = match &v.ordering {
                Some(ordering) => (
                    "partial",
                    ordering
                        .iter()
                        .flat_map(|o| &o.preds)
                        .map(Vec::len)
                        .sum::<usize>()
                        .to_string(),
                    rr_sim::logdir::encode_ordering(ordering).len().to_string(),
                ),
                None => ("total", "-".to_string(), "-".to_string()),
            };
            let drawn = with_variant_dag(&v.logs, v.ordering.as_deref(), None, |dag| {
                let s = dag.stats();
                t.row(vec![
                    v.label.clone(),
                    order.to_string(),
                    format!("{}", s.nodes),
                    preds.clone(),
                    format!("{}", s.edges),
                    ordering_bytes.clone(),
                    format!("{}", s.critical_path),
                    format!("{}", s.max_width),
                    format!("{:.2}", s.ideal_speedup()),
                ]);
                let Some(dir) = &dot_dir else {
                    return;
                };
                let file = dir.join(format!("{name}-{}.dot", v.label));
                // Highlight the cost-weighted critical path (red, thick) so
                // the rendered graph shows where the makespan lives.
                let blame =
                    rr_replay::critical_path_blame(dag, &rr_replay::CostModel::splash_default());
                let dot = dag.to_dot_with_path(&format!("{name}/{}", v.label), &blame.path);
                if let Err(e) = std::fs::write(&file, dot) {
                    eprintln!("{}: {e}", file.display());
                    code = 1;
                } else {
                    println!("wrote {}", file.display());
                }
            });
            if let Err(e) = drawn {
                eprintln!("{name}/{}: {e}", v.label);
                code = 1;
            }
        }
        t.print();
    }
    code
}

// ---------------------------------------------------------------------------
// prof
// ---------------------------------------------------------------------------

fn cmd_prof(args: &[String]) -> u8 {
    let path = match one_path(args, "prof") {
        Ok(p) => p,
        Err(c) => return c,
    };
    let mut workers = 4usize;
    let mut size = 6u32;
    let mut out_dir: Option<PathBuf> = None;
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if let Some(v) = flag_arg("--workers", a, &mut rest) {
            match parse_num("prof", "--workers", v) {
                Ok(n) => workers = n,
                Err(c) => return c,
            }
        } else if let Some(v) = flag_arg("--size", a, &mut rest) {
            match parse_num("prof", "--size", v) {
                Ok(n) => size = n,
                Err(c) => return c,
            }
        } else if let Some(v) = flag_arg("--out", a, &mut rest) {
            match parse_path("prof", "--out", v) {
                Ok(p) => out_dir = Some(p),
                Err(c) => return c,
            }
        } else {
            return unknown_arg("prof", a);
        }
    }
    if !path.is_dir() {
        eprintln!(
            "rr-inspect prof: {} is not a directory (expected a run saved by --save-logs)",
            path.display()
        );
        return 1;
    }
    let (root, names) = match resolve_runs(&path) {
        Ok(t) => t,
        Err(c) => return c,
    };
    let out_dir = out_dir.unwrap_or_else(|| root.clone());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return 1;
    }
    let cost = rr_replay::CostModel::splash_default();
    let store = rr_sim::LocalStore::new(&root);
    let mut code = 0u8;
    for name in &names {
        let run = match store.load_run(name) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{name}: {e}");
                code = 1;
                continue;
            }
        };
        // Engine timelines need the workload's programs; regenerate them by
        // name, resolving `fft@16c`-style scalability labels to their
        // recorded core counts. Runs with unknown names (hand-built logs)
        // still get blame, just no measured timeline.
        let base = name.split_once('@').map_or(name.as_str(), |(b, _)| b);
        let threads = run.variants.first().map_or(0, |v| v.logs.len());
        let workload = rr_workloads::by_name(base, threads, size);
        if workload.is_none() {
            println!("{name}: no workload named {base:?} — skipping the engine timeline");
        }

        let mut t = Table::new(
            &format!("{name}: critical-path blame (replay cost model)"),
            &[
                "variant",
                "makespan cyc",
                "ideal x",
                "coverage",
                "top core",
                "top kind",
            ],
        );
        let mut entries = Vec::new();
        for v in &run.variants {
            let profiled = with_variant_dag(&v.logs, v.ordering.as_deref(), None, |dag| {
                let blame = rr_replay::critical_path_blame(dag, &cost);
                let top_core = blame
                    .per_core
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
                    .map_or("-".to_string(), |(i, c)| format!("core {i} ({c})"));
                let top_kind = blame
                    .per_kind
                    .iter()
                    .max_by_key(|(_, c)| *c)
                    .map_or("-".to_string(), |(k, c)| format!("{k} ({c})"));
                t.row(vec![
                    v.label.clone(),
                    format!("{}", blame.makespan_cycles),
                    format!("{:.2}", blame.ideal_speedup()),
                    format!("{:.1}%", blame.coverage_pct()),
                    top_core,
                    top_kind,
                ]);

                let mut engine = None;
                if let Some(w) = &workload {
                    let mut prof = relaxreplay::EngineProf::default();
                    match rr_replay::execute_threaded_probed(
                        &w.programs,
                        dag,
                        w.initial_mem.clone(),
                        &cost,
                        workers,
                        &mut prof,
                    ) {
                        Ok(outcome) => {
                            if let Err(e) = rr_replay::verify(&run.recorded, &outcome) {
                                eprintln!("{name}/{}: profiled replay diverged: {e}", v.label);
                                code = 1;
                            } else {
                                engine = Some(prof);
                            }
                        }
                        Err(e) => {
                            eprintln!("{name}/{}: profiled replay failed: {e}", v.label);
                            code = 1;
                        }
                    }
                }
                entries.push(rr_replay::prof::ProfEntry {
                    run: name.clone(),
                    variant: v.label.clone(),
                    blame,
                    engine,
                });
            });
            if let Err(e) = profiled {
                eprintln!("{name}/{}: {e}", v.label);
                code = 1;
            }
        }
        t.print();
        if entries.is_empty() {
            continue;
        }

        let prof_path = out_dir.join(format!("{name}.prof.json"));
        let json = rr_replay::prof_json(&entries);
        if let Err(e) = relaxreplay::validate_prof_json(&json) {
            eprintln!(
                "internal error: produced an invalid {}: {e}",
                prof_path.display()
            );
            code = 1;
            continue;
        }
        if let Err(e) = std::fs::write(&prof_path, &json) {
            eprintln!("{}: {e}", prof_path.display());
            code = 1;
            continue;
        }
        println!("wrote {}", prof_path.display());
        let refs: Vec<(String, &relaxreplay::prof::EngineProf)> = entries
            .iter()
            .filter_map(|e| Some((format!("{}/{}", e.run, e.variant), e.engine.as_ref()?)))
            .collect();
        if !refs.is_empty() {
            let trace_path = out_dir.join(format!("{name}.prof.trace.json"));
            let chrome = relaxreplay::engine_chrome_trace(&refs);
            match relaxreplay::trace::validate_chrome_trace(&chrome) {
                Ok(stats) => {
                    if let Err(e) = std::fs::write(&trace_path, &chrome) {
                        eprintln!("{}: {e}", trace_path.display());
                        code = 1;
                    } else {
                        println!(
                            "wrote {} ({} events, {} track(s)) — load it in Perfetto",
                            trace_path.display(),
                            stats.events,
                            stats.tracks
                        );
                    }
                }
                Err(e) => {
                    eprintln!("internal error: produced an invalid Chrome trace: {e}");
                    code = 1;
                }
            }
        }
    }
    code
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

fn cmd_trace(args: &[String]) -> u8 {
    let path = match one_path(args, "trace") {
        Ok(p) => p,
        Err(c) => return c,
    };
    let mut out_path: Option<PathBuf> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let a = if arg == "-o" { "--out" } else { arg };
        if let Some(v) = flag_arg("--out", a, &mut rest) {
            match parse_path("trace", "-o", v) {
                Ok(p) => out_path = Some(p),
                Err(c) => return c,
            }
        } else {
            return unknown_arg("trace", arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| path.with_extension("json"));
    let input = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    let chrome = match relaxreplay::trace::chrome_trace_from_jsonl(&input) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
    };
    if let Err(e) = std::fs::write(&out_path, &chrome) {
        eprintln!("{}: {e}", out_path.display());
        return 1;
    }
    match relaxreplay::trace::validate_chrome_trace(&chrome) {
        Ok(stats) => {
            println!(
                "{} -> {} ({} events, {} track(s)) — load it in Perfetto or chrome://tracing",
                path.display(),
                out_path.display(),
                stats.events,
                stats.tracks
            );
            0
        }
        Err(e) => {
            eprintln!("internal error: produced an invalid Chrome trace: {e}");
            1
        }
    }
}
