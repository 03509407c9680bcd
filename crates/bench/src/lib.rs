//! # rr-bench — benchmark support for the RelaxReplay reproduction
//!
//! Every bench in `benches/` is a `harness = false` binary that writes
//! one `BENCH_<name>.json` trajectory document:
//!
//! * `codec` — wire-codec encode/decode and parallel ingest throughput;
//! * `replay` — the sequential and multithreaded replay engines;
//! * `record` — recording (simulator plus recorders) in simulated
//!   cycles and instructions per second;
//! * `serve` — `rr-serve` ingest, dedup and fetch over loopback.
//!
//! They share one harness, [`run`]: it parses `--test`/`--out`, picks the
//! default output path, writes the document with
//! [`compare::bench_json`] and maps a failed gate to the exit code. The
//! `rr-bench` binary's `compare` subcommand judges the documents over
//! time ([`compare`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use relaxreplay::trace::json;

/// What one bench invocation was asked for on its command line.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--test` (or `--smoke`): one quick pass per row, every gate still
    /// enforced, the document's `mode` is `test`.
    pub smoke: bool,
    out: PathBuf,
    flags: Vec<String>,
}

impl BenchArgs {
    /// Parses `args` (without the program name) for the bench `name`.
    /// `--out PATH` overrides the default `BENCH_<name>.json` at the
    /// workspace root; `--bench` (which `cargo bench` passes) is
    /// skipped; any argument in `flags` is kept for the bench to query
    /// with [`flag`](Self::flag); anything else is reported and ignored,
    /// as `cargo bench -- <filter>` expects.
    ///
    /// # Errors
    ///
    /// A usage message when `--out` has no path.
    pub fn parse(
        name: &str,
        flags: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut parsed = BenchArgs {
            smoke: false,
            out: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(format!("BENCH_{name}.json")),
            flags: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--test" | "--smoke" => parsed.smoke = true,
                "--out" => match args.next() {
                    Some(p) if !p.is_empty() => parsed.out = PathBuf::from(p),
                    _ => return Err("--out needs a path".to_string()),
                },
                "--bench" => {}
                f if flags.contains(&f) => parsed.flags.push(a),
                other => eprintln!("{name} bench: ignoring argument {other:?}"),
            }
        }
        Ok(parsed)
    }

    /// Whether the bench-specific flag `flag` was given.
    #[must_use]
    pub fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The document's `mode`: `test` or `full`.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "test"
        } else {
            "full"
        }
    }

    /// Writes the bench document (see [`compare::bench_json`]) to the
    /// output path.
    ///
    /// # Errors
    ///
    /// The path and the I/O error when the file cannot be written.
    pub fn write(
        &self,
        schema: &str,
        header: impl FnOnce(&mut json::Obj<'_>),
        rows: impl FnOnce(&mut json::Arr<'_>),
    ) -> Result<(), String> {
        let doc = compare::bench_json(schema, self.mode(), header, rows);
        std::fs::write(&self.out, doc)
            .map_err(|e| format!("writing {}: {e}", self.out.display()))?;
        println!("results written to {}", self.out.display());
        Ok(())
    }
}

/// The `main` of bench `name`: parses the process arguments (see
/// [`BenchArgs::parse`]) and runs `body`, which measures, enforces its
/// gates and writes the document with [`BenchArgs::write`]. Exits 0 on
/// success, 1 when `body` fails (a gate, a recording, the write), 2 on a
/// usage error; either failure is printed as `<name> bench: <message>`.
pub fn run(
    name: &'static str,
    flags: &[&str],
    body: impl FnOnce(&BenchArgs) -> Result<(), String>,
) -> ExitCode {
    let args = match BenchArgs::parse(name, flags, std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name} bench: {e}");
            return ExitCode::from(2);
        }
    };
    match body(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name} bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times `f` and returns the median per-iteration nanoseconds: a warm-up
/// run sizes 7 samples of about 0.2 s each. In smoke mode `f` runs twice
/// and the second run's time is returned — enough to prove the path
/// works, not to measure it.
pub fn median_ns(smoke: bool, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    if smoke {
        let t = Instant::now();
        f();
        return t.elapsed().as_nanos() as f64;
    }
    let iters = ((0.2 / one).ceil() as u64).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(
            "codec",
            &["--regen-data"],
            args.iter().map(ToString::to_string),
        )
    }

    #[test]
    fn args_pick_mode_output_and_bench_flags() {
        let a = parse(&["--bench"]).expect("parses");
        assert_eq!(a.mode(), "full");
        assert!(a.out.ends_with("BENCH_codec.json"), "{}", a.out.display());
        assert!(!a.flag("--regen-data"));

        let a = parse(&["--test", "--out", "x.json", "--regen-data", "filter"]).expect("parses");
        assert_eq!(a.mode(), "test");
        assert_eq!(a.out, PathBuf::from("x.json"));
        assert!(a.flag("--regen-data"));

        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--out", ""]).is_err());
    }
}
