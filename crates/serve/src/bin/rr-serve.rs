//! `rr-serve` — run and query the content-addressed log service.
//!
//! ```text
//! rr-serve serve --root DIR [--listen HOST:PORT] [--workers N]
//! rr-serve fetch rr://host:port/run --out DIR
//! rr-serve stat <dir|rr://host:port[/run]>
//! ```
//!
//! Every argument is parsed before anything runs: an unknown option, an
//! extra argument, a missing required one or a non-numeric `--workers`
//! is a usage error naming it (exit 2), and no server starts.
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

/// Why a command failed: a usage error (exit 2, printed with [`USAGE`])
/// or a failure of the command itself (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

fn run_err(e: impl std::fmt::Display) -> Failure {
    Failure::Run(e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "serve" => Args::parse(cmd, rest, &["--root", "--listen", "--workers"], false)
            .and_then(|a| cmd_serve(&a)),
        "fetch" => Args::parse(cmd, rest, &["--out"], true).and_then(|a| cmd_fetch(&a)),
        "stat" => Args::parse(cmd, rest, &[], true).and_then(|a| cmd_stat(&a)),
        other => Err(Failure::Usage(format!(
            "rr-serve: unknown command {other:?}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("rr-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's arguments, all parsed before the command runs.
struct Args<'a> {
    cmd: &'a str,
    positional: Option<&'a str>,
    flags: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Parses `args` as options named in `flags` (`--flag value` or
    /// `--flag=value`) plus, if `positional`, one positional argument.
    /// Anything else — an unknown option, an extra argument, an option
    /// without a value — is a usage error naming it.
    fn parse(
        cmd: &'a str,
        args: &'a [String],
        flags: &[&'static str],
        positional: bool,
    ) -> Result<Self, Failure> {
        let mut parsed = Args {
            cmd,
            positional: None,
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value)),
                _ => (arg.as_str(), None),
            };
            if let Some(&flag) = flags.iter().find(|&&f| f == name) {
                match inline.or_else(|| it.next().map(String::as_str)) {
                    Some(value) if !value.is_empty() => parsed.flags.push((flag, value)),
                    _ => return Err(parsed.usage(format!("{flag} needs a value"))),
                }
            } else if arg.starts_with('-') {
                return Err(parsed.usage(format!("unknown option {arg:?}")));
            } else if positional && parsed.positional.is_none() {
                parsed.positional = Some(arg);
            } else {
                return Err(parsed.usage(format!("unexpected argument {arg:?}")));
            }
        }
        Ok(parsed)
    }

    fn usage(&self, what: String) -> Failure {
        Failure::Usage(format!("rr-serve {}: {what}", self.cmd))
    }

    /// The last value given for `flag`, if any.
    fn flag(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// A required option's value; a missing one is a usage error.
    fn required(&self, flag: &str, what: &str) -> Result<&'a str, Failure> {
        self.flag(flag)
            .ok_or_else(|| self.usage(format!("{flag} {what} is required")))
    }

    /// The positional argument; a missing one is a usage error.
    fn positional(&self, what: &str) -> Result<&'a str, Failure> {
        self.positional
            .ok_or_else(|| self.usage(format!("missing {what}")))
    }
}

fn cmd_serve(args: &Args) -> Result<(), Failure> {
    let mut config = ServerConfig::new(args.required("--root", "DIR")?);
    if let Some(w) = args.flag("--workers") {
        config.workers = w
            .parse()
            .map_err(|_| args.usage(format!("--workers needs a number, got {w:?}")))?;
    }
    let listen = args.flag("--listen").unwrap_or("127.0.0.1:7117");
    let workers = config.effective_workers();
    let handle = serve(listen, config).map_err(run_err)?;
    eprintln!(
        "rr-serve: listening on {} ({workers} workers) — store at {}",
        handle.url(),
        handle.store().root().display()
    );
    handle.join();
    Ok(())
}

fn cmd_fetch(args: &Args) -> Result<(), Failure> {
    let spec = args.positional("rr://host:port/run URL")?;
    let out = args.required("--out", "DIR")?;
    let parsed = StoreSpec::parse(spec).map_err(run_err)?;
    let StoreSpec::Remote {
        addr,
        run: Some(run),
    } = parsed
    else {
        return Err(run_err(
            "fetch: the source must be an rr://host:port/run URL naming one run",
        ));
    };
    let mut client = Client::connect(&addr).map_err(run_err)?;
    let bytes = client
        .fetch_run(&run, Path::new(out))
        .map_err(|e| run_err(format!("fetch: {e}")))?;
    eprintln!("fetched {run}: {bytes} .rrlog bytes under {out}");
    Ok(())
}

fn cmd_stat(args: &Args) -> Result<(), Failure> {
    let spec = args.positional("<dir|rr://host:port[/run]>")?;
    let (store, run) = parse_and_open(spec).map_err(run_err)?;
    let runs = match run {
        Some(r) => vec![r],
        None => store.list_runs().map_err(run_err)?,
    };
    if runs.is_empty() {
        println!("{}: no sealed runs", store.describe());
        return Ok(());
    }
    let mut dedup = None;
    for name in &runs {
        let stat = store.stat_run(name).map_err(run_err)?;
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
