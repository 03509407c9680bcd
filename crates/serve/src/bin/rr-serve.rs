//! `rr-serve` — run, query, and benchmark the content-addressed log
//! service.
//!
//! ```text
//! rr-serve serve --root DIR [--listen HOST:PORT] [--workers N]
//! rr-serve fetch rr://host:port/run --out DIR
//! rr-serve stat <dir|rr://host:port[/run]>
//! rr-serve bench [--root DIR] [--out FILE] [--check-dedup RATIO] [--workers N]
//! ```
//!
//! `fetch` materializes a remote run as a local log directory with the
//! exact layout `--save-logs` writes (manifest, per-core `.rrlog`
//! files, ordering + ground-truth sidecars) — the CI round-trip job
//! diffs it byte for byte against a locally saved twin. `bench` records the concurrent data-structure corpus,
//! streams it to an in-process server twice (cold, then duplicated),
//! and writes a `BENCH_serve.json` trajectory document for
//! `rr-bench compare`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use relaxreplay::trace::json::{self, Fixed};
use rr_serve::{parse_and_open, serve, Client, RemoteStore, ServerConfig};
use rr_sim::sweep::{run_sweep, ReplayPolicy, SweepJob};
use rr_sim::{MachineConfig, RecorderSpec, RunStore, StoreError, StoreSpec};

const USAGE: &str = "usage:
  rr-serve serve --root DIR [--listen HOST:PORT] [--workers N]
  rr-serve fetch rr://host:port/run --out DIR
  rr-serve stat <dir|rr://host:port[/run]>
  rr-serve bench [--root DIR] [--out FILE] [--check-dedup RATIO] [--workers N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rr-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value following `flag` (or `flag=value`) out of `args`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn positional(args: &[String]) -> Option<&String> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if let Some(rest) = a.strip_prefix("--") {
            skip = !rest.contains('=');
            continue;
        }
        return Some(a);
    }
    None
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let root = flag_value(args, "--root").ok_or("serve: --root DIR is required")?;
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let mut config = ServerConfig::new(root);
    if let Some(w) = flag_value(args, "--workers") {
        config.workers = w.parse().map_err(|_| format!("bad --workers {w:?}"))?;
    }
    let workers = config.effective_workers();
    let handle = serve(&listen, config).map_err(|e| e.to_string())?;
    eprintln!(
        "rr-serve: listening on {} ({workers} workers) — store at {}",
        handle.url(),
        handle.store().root().display()
    );
    handle.join();
    Ok(())
}

fn cmd_fetch(args: &[String]) -> Result<(), String> {
    let spec = positional(args).ok_or("fetch: missing rr://host:port/run URL")?;
    let out = flag_value(args, "--out").ok_or("fetch: --out DIR is required")?;
    let parsed = StoreSpec::parse(spec).map_err(|e| e.to_string())?;
    let StoreSpec::Remote {
        addr,
        run: Some(run),
    } = parsed
    else {
        return Err("fetch: the source must be an rr://host:port/run URL naming one run".into());
    };
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let bytes = client
        .fetch_run(&run, Path::new(&out))
        .map_err(|e| format!("fetch: {e}"))?;
    eprintln!("fetched {run}: {bytes} .rrlog bytes under {out}");
    Ok(())
}

fn cmd_stat(args: &[String]) -> Result<(), String> {
    let spec = positional(args).ok_or("stat: missing <dir|rr://host:port[/run]>")?;
    let (store, run) = parse_and_open(spec).map_err(|e| e.to_string())?;
    let runs = match run {
        Some(r) => vec![r],
        None => store.list_runs().map_err(|e| e.to_string())?,
    };
    if runs.is_empty() {
        println!("{}: no sealed runs", store.describe());
        return Ok(());
    }
    let mut dedup = None;
    for name in &runs {
        let stat = store.stat_run(name).map_err(|e| e.to_string())?;
        println!(
            "run {}: {} core(s), truth {} bytes",
            stat.name, stat.cores, stat.truth_bytes
        );
        for v in &stat.variants {
            println!(
                "  {}: {} chunk(s), {} .rrlog bytes{}",
                v.label,
                v.chunks,
                v.log_bytes,
                if v.has_ordering { ", ordering" } else { "" }
            );
        }
        dedup = stat.dedup.or(dedup);
    }
    if let Some(d) = dedup {
        println!(
            "store: {} blob(s), {} stored / {} logical bytes (dedup {:.2}x)",
            d.blobs,
            d.blob_bytes,
            d.logical_bytes,
            d.ratio()
        );
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let check_dedup: Option<f64> = match flag_value(args, "--check-dedup") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --check-dedup {v:?}"))?),
        None => None,
    };
    let workers: usize = match flag_value(args, "--workers") {
        Some(v) => v.parse().map_err(|_| format!("bad --workers {v:?}"))?,
        None => 0,
    };
    let root = flag_value(args, "--root").map_or_else(
        || std::env::temp_dir().join(format!("rr-serve-bench-{}", std::process::id())),
        PathBuf::from,
    );

    // Record the corpus once; the bench measures the service, not the
    // simulator, so replay is skipped.
    let specs = RecorderSpec::paper_matrix();
    let jobs: Vec<SweepJob> = rr_workloads::corpus_suite()
        .into_iter()
        .map(|w| {
            let machine = MachineConfig::splash_default(w.programs.len());
            SweepJob::from_specs(
                w.name,
                w.programs,
                w.initial_mem,
                machine,
                &specs,
                ReplayPolicy::Skip,
            )
        })
        .collect();
    let report = run_sweep(&jobs, workers).map_err(|e| format!("corpus sweep: {e}"))?;

    let handle = serve("127.0.0.1:0", ServerConfig::new(&root)).map_err(|e| e.to_string())?;
    let remote = RemoteStore::new(handle.addr().to_string());
    let bench = |f: &dyn Fn() -> Result<u64, StoreError>| -> Result<(u64, u64), String> {
        let t = Instant::now();
        let bytes = f().map_err(|e| e.to_string())?;
        Ok((bytes, t.elapsed().as_nanos() as u64))
    };

    // Pass A: cold ingest. Pass B: the identical corpus under fresh run
    // names — every chunk payload dedupes against pass A's blobs.
    let (cold_bytes, cold_ns) = bench(&|| {
        let mut total = 0;
        for o in &report.outputs {
            total += remote.save_run(&o.name, &o.run)?;
        }
        Ok(total)
    })?;
    let (dup_bytes, dup_ns) = bench(&|| {
        let mut total = 0;
        for o in &report.outputs {
            total += remote.save_run(&format!("{}-b", o.name), &o.run)?;
        }
        Ok(total)
    })?;

    let first = &report.outputs[0].name;
    let t = Instant::now();
    let fetched = remote.load_run(first).map_err(|e| e.to_string())?;
    let fetch_ns = t.elapsed().as_nanos() as u64;
    if fetched.variants.len() != report.outputs[0].run.variants.len() {
        return Err("bench: fetched run lost variants".into());
    }

    let stat = remote.stat_run(first).map_err(|e| e.to_string())?;
    let dedup = stat
        .dedup
        .ok_or("bench: remote stat carried no dedup figures")?;
    let ratio = dedup.ratio();
    handle.shutdown();

    let mb_per_s = |bytes: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / 1.0e6 / (ns as f64 / 1.0e9)
        }
    };
    // The `rr-bench` doc shape (`rr_bench::compare::bench_json`), written
    // here directly: rr-bench depends on this crate, not the reverse.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let ingest = |name: &str, bytes: u64, ns: u64, rows: &mut json::Arr<'_>| {
        rows.object(|r| {
            r.field("name", name)
                .field("bytes", bytes)
                .field("median_ns", ns)
                .field("mb_per_s", Fixed(mb_per_s(bytes, ns), 2));
        });
    };
    let mut doc = json::object(|o| {
        o.field("schema", "rr-bench/serve/v1")
            .field("mode", "full")
            .field("host_cpus", host_cpus)
            .field("dedup_ratio", Fixed(ratio, 4))
            .field("ingest_mb_per_s", Fixed(mb_per_s(cold_bytes, cold_ns), 2))
            .array("benches", |rows| {
                ingest("ingest/corpus-cold", cold_bytes, cold_ns, rows);
                ingest("ingest/corpus-dup", dup_bytes, dup_ns, rows);
                rows.object(|r| {
                    r.field("name", "fetch/one-run")
                        .field("median_ns", fetch_ns);
                });
            });
    });
    doc.push('\n');
    std::fs::write(&out, doc).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "bench: ingest {:.1} MB/s cold / {:.1} MB/s dup, dedup {ratio:.2}x, wrote {out}",
        mb_per_s(cold_bytes, cold_ns),
        mb_per_s(dup_bytes, dup_ns)
    );

    if let Some(min) = check_dedup {
        if ratio < min {
            return Err(format!(
                "bench: dedup ratio {ratio:.2}x below required {min:.2}x"
            ));
        }
    }
    Ok(())
}
