//! rr-benchmark: times the RelaxReplay pipeline — record → store →
//! replay → serve — end to end and layer by layer, on four workloads.
//! See README.md for what each workload and metric is for.

mod disk;
mod host;
mod report;
mod spans;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Spec;
use workloads::{Config, Kind};

const USAGE: &str = "usage: rr-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE]\n       rr-benchmark --compare A.jsonl B.jsonl\n\
workloads: record-splash, check-fuzz, replay-store, serve-roundtrip (default: all)";

struct Args {
    /// `None` runs every workload, each in a process of its own.
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                a.workload = Some(Kind::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("--out")?.into()),
            "--compare" => {
                let x = value("--compare")?;
                let y = value("--compare")?;
                a.compare = Some((x.into(), y.into()));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// Where traces and stores go: `out/` beside this package's manifest,
/// inside the checkout the benchmark was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `path` relative to the checkout, for printing.
fn shown(path: &Path) -> String {
    let checkout = Path::new(env!("CARGO_MANIFEST_DIR")).parent();
    checkout
        .and_then(|c| path.strip_prefix(c).ok())
        .unwrap_or(path)
        .display()
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("rr-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rr-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Returns `Ok(false)` only for a `--compare` that found a regression or
/// an unresolved metric; failed items do not change the exit code.
fn run(args: &Args, raw: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    if let Some((a, b)) = &args.compare {
        return report::compare(&spec, a, b);
    }
    if let Some(kind) = args.workload {
        run_workload(kind, args, &spec)?;
        return Ok(true);
    }
    // Every workload runs in a process of its own, as it does with
    // `--workload`: none inherits another's heap, so peak RSS and the
    // allocator's state do not depend on the order they ran in.
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    for kind in Kind::ALL {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", kind.name()])
            .status()
            .map_err(|e| format!("start {}: {e}", kind.name()))?;
        if !status.success() {
            return Err(format!("{} {status}", kind.name()));
        }
    }
    Ok(true)
}

fn run_workload(kind: Kind, args: &Args, spec: &Spec) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let place = disk::place(
        &out_dir().join("stores"),
        &format!("{}-{}", kind.name(), std::process::id()),
    )?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        trace: args.trace,
        smoke: args.smoke,
        store_root: place.root.clone(),
    };
    println!(
        "rr-benchmark {} seed={} seconds={} trace={} smoke={} host_cpus={cpus} \
         replay_workers={} serve_workers={}",
        kind.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        workloads::THREADED_WORKERS,
        workloads::SERVE_WORKERS,
    );
    println!(
        "stores: {}, {:.1} µs to create a file there, {} placement(s) tried, spread={}",
        shown(&place.root),
        place.probe_us,
        place.tried.len(),
        u8::from(place.spread)
    );
    let outcome = workloads::run(kind, &cfg);
    // The stores are scratch space; a failed clean-up costs only disk.
    for dir in &place.tried {
        let _ = std::fs::remove_dir_all(dir);
    }
    let o = outcome?;
    println!(
        "measured {:.2} s: {} items, {} rounds, set-up {:?} s",
        o.measured_s,
        o.item_ms.len(),
        o.round_rates.len(),
        o.setup_s
    );
    println!(
        "host speed: calibration loop median {:.3} ms over {} calls; host times are \
         scaled to a host where it takes {:.3} ms",
        stats::median(&o.calib_ms),
        o.calib_ms.len(),
        host::REFERENCE_MS
    );
    let beyond = o.item_ms.len() - (0.9 * o.item_ms.len() as f64).ceil() as usize;
    println!("item_p90_ms has {beyond} samples beyond it");
    println!(
        "error_rate {} ({} failed of {} attempted)",
        if o.attempted == 0 {
            0.0
        } else {
            o.failed as f64 / o.attempted as f64
        },
        o.failed,
        o.attempted
    );
    let (list, computed) = if cfg.trace {
        let wall = o.spans.wall_ms();
        print!("{}", report::span_table(&o.spans.stats(), wall));
        let path = out_dir().join(format!("trace-{}.json", kind.name()));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, o.spans.chrome_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {}", shown(&path));
        (&spec.per_layer, report::per_layer(&o))
    } else {
        (&spec.end_to_end, report::end_to_end(&o))
    };
    let selected = report::select(list, &computed)?;
    for (s, v) in &selected {
        println!(
            "metric {} {} {} samples={}",
            s.name, v.value, s.unit, v.samples
        );
    }
    if let Some(path) = &args.out {
        let line = report::out_line(
            kind.name(),
            cfg.seed,
            cfg.trace,
            o.attempted,
            o.failed,
            &selected,
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(o.attempted, o.failed, &selected));
    Ok(())
}
