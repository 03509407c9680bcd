//! `rr-serve` — run and query the content-addressed log service.
//!
//! ```text
//! rr-serve serve --root DIR [--listen HOST:PORT] [--workers N]
//! rr-serve fetch rr://host:port/run --out DIR
//! rr-serve stat <dir|rr://host:port[/run]>
//! ```
//!
//! `fetch` materializes a remote run as a local log directory with the
//! exact layout `--save-logs` writes (manifest, per-core `.rrlog`
//! files, ordering + ground-truth sidecars) — the CI round-trip job
//! diffs it byte for byte against a locally saved twin. The service's
//! ingest, dedup and fetch bench is `cargo bench -p rr-bench --bench
//! serve`.

use std::path::Path;
use std::process::ExitCode;

use rr_serve::{parse_and_open, serve, Client, ServerConfig};
use rr_sim::StoreSpec;

const USAGE: &str = "usage:
  rr-serve serve --root DIR [--listen HOST:PORT] [--workers N]
  rr-serve fetch rr://host:port/run --out DIR
  rr-serve stat <dir|rr://host:port[/run]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
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
