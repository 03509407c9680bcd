//! `rr-check` — the schedule-exploration differential checker.
//!
//! ```text
//! rr-check explore [--seeds N] [--pressure <mode>|all] [--workload <w>|litmus|corpus]
//!                  [--workers K] [--replay-workers LIST] [--out DIR] [--trace]
//! rr-check fuzz    [--count N] [--start-seed S] [--schedules K]
//!                  [--pressure <mode>|all] [--workers K] [--replay-workers LIST] [--out DIR]
//! rr-check verify  <dir | rr://host:port[/run]> [--workers K] [--size N]
//! rr-check modes
//! ```
//!
//! `verify` replays every run saved in a store — a `--save-logs`
//! directory or a running `rr-serve` instance — and checks each variant
//! against the recorded ground truth, exactly like `--replay-from` in the
//! figure binaries. Exit 0 means the durable artifact replays
//! deterministically.
//!
//! `--replay-workers 1,2,4,8` additionally replays every recording on the
//! multithreaded replay engine at each listed worker count; those outcomes
//! join the same differential cross-check, so the zero-divergence gate
//! covers every engine.
//!
//! For every seed, `explore` derives a deterministic schedule
//! perturbation (stalls / priority rotation over the simulator's step
//! loop), optionally stacks a recorder pressure mode on top (forced
//! interval closes, TRAQ near-overflow, signature aliasing, CISN
//! wraparound, injected sink faults), records the perturbed execution
//! under **both** paper designs (Base-4K and Opt-4K), replays each log,
//! and cross-checks every replay against the sequential ground truth and
//! against each other. Any disagreement is a recorder/replayer bug: the
//! offending spec is shrunk to a locally minimal still-failing form and
//! re-recorded with tracing for a forensic `divergence.md` report.
//!
//! `fuzz` runs the same differential check over generated workloads:
//! each seed produces a random racy `.asm` program
//! (`rr_workloads::fuzz`), assembled through the text frontend and
//! explored under several schedule perturbations. A divergence saves the
//! generated source next to the forensic report so the case can be
//! replayed by hand.
//!
//! Exit status: 0 = all schedules agree, 1 = divergence found, 2 = usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rr_experiments::report::{results_dir, write_metrics_jsonl, Table};
use rr_experiments::{replay_forensic, write_trace_pairs};
use rr_replay::CostModel;
use rr_sim::{
    explore_sweep, minimize_divergence, Error, ExploreSpec, MachineConfig, PressureMode,
    RecordSession,
};
use rr_workloads::{corpus_suite, fuzz_case, litmus_suite, FuzzCase, Workload};

const USAGE: &str = "usage:
  rr-check explore [--seeds N] [--pressure <mode>|all] [--workload <w>|litmus|corpus]
                   [--workers K] [--replay-workers LIST] [--out DIR] [--trace]
  rr-check fuzz    [--count N] [--start-seed S] [--schedules K]
                   [--pressure <mode>|all] [--workers K] [--replay-workers LIST] [--out DIR]
  rr-check verify  <dir | rr://host:port[/run]> [--workers K] [--size N]
  rr-check modes

modes: none force-close traq sig-alias cisn-wrap sink-fault
workloads: litmus (= sb mp lb iriw), corpus (all data-structure shapes),
           or any single workload name — a SPLASH-2 analogue (e.g. fft),
           a litmus shape, or a corpus shape (e.g. spinlock)
--replay-workers: comma-separated threaded-engine worker counts (e.g. 1,2,4,8);
           each recording is additionally replayed on the multithreaded engine
           at every listed count and cross-checked against the sequential replay";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "explore" => cmd_explore(rest),
            "fuzz" => cmd_fuzz(rest),
            "verify" => cmd_verify(rest),
            "modes" => {
                for m in PressureMode::ALL {
                    println!("{}", m.name());
                }
                0
            }
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

struct Options {
    seeds: u64,
    pressures: Vec<PressureMode>,
    workloads: Vec<Workload>,
    workers: usize,
    replay_workers: Vec<usize>,
    out: PathBuf,
    trace: bool,
}

/// Parses a `--replay-workers` list: comma-separated positive counts.
fn parse_worker_list(v: &str) -> Option<Vec<usize>> {
    v.split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&w| w >= 1))
        .collect()
}

/// The value after option `name` of command `cmd`; a missing one is a
/// usage error (exit 2).
fn value<'a>(cmd: &str, name: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, u8> {
    it.next().map(String::as_str).ok_or_else(|| {
        eprintln!("rr-check {cmd}: {name} needs a value\n{USAGE}");
        2
    })
}

/// The value after option `name` of command `cmd` as a number; a missing
/// or unparseable one is a usage error (exit 2).
fn number<T>(cmd: &str, name: &str, it: &mut std::slice::Iter<'_, String>) -> Result<T, u8>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value(cmd, name, it)?.parse().map_err(|e| {
        eprintln!("rr-check {cmd}: bad {name}: {e}");
        2
    })
}

fn parse(args: &[String]) -> Result<Options, u8> {
    let mut seeds = 16u64;
    let mut pressures = vec![PressureMode::None];
    let mut workload = "litmus".to_string();
    let mut workers = 0usize;
    let mut replay_workers = Vec::new();
    let mut out = results_dir().join("rr-check");
    let mut trace = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => seeds = number("explore", flag, &mut it)?,
            "--pressure" => {
                let v = value("explore", flag, &mut it)?;
                pressures = if v == "all" {
                    PressureMode::ALL.to_vec()
                } else {
                    vec![PressureMode::parse(v).ok_or_else(|| {
                        eprintln!("rr-check explore: unknown pressure mode {v:?}\n{USAGE}");
                        2
                    })?]
                };
            }
            "--workload" => workload = value("explore", flag, &mut it)?.to_string(),
            "--workers" => workers = number("explore", flag, &mut it)?,
            "--replay-workers" => {
                let v = value("explore", flag, &mut it)?;
                replay_workers = parse_worker_list(v).ok_or_else(|| {
                    eprintln!("rr-check explore: bad --replay-workers {v:?} (want e.g. 1,2,4,8)");
                    2
                })?;
            }
            "--out" => out = PathBuf::from(value("explore", flag, &mut it)?),
            "--trace" => trace = true,
            other => {
                eprintln!("rr-check explore: unknown flag {other:?}\n{USAGE}");
                return Err(2);
            }
        }
    }

    let workloads = match workload.as_str() {
        "litmus" => litmus_suite(),
        "corpus" => corpus_suite(),
        name => match rr_workloads::by_name(name, 4, 1) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "rr-check explore: unknown workload {workload:?}\n\
                     known workloads: litmus, corpus, {}",
                    rr_workloads::known_names().join(", ")
                );
                return Err(2);
            }
        },
    };
    Ok(Options {
        seeds,
        pressures,
        workloads,
        workers,
        replay_workers,
        out,
        trace,
    })
}

fn cmd_explore(args: &[String]) -> u8 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(c) => return c,
    };
    match run_explore(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rr-check explore: {e}");
            1
        }
    }
}

fn run_explore(opts: &Options) -> Result<u8, Error> {
    let mut table = Table::new(
        "rr-check: schedule exploration",
        &[
            "workload", "pressure", "seeds", "diverged", "stalls", "forced", "faulted",
        ],
    );
    let mut divergent_total = 0usize;
    let mut jsonl = String::new();

    for w in &opts.workloads {
        let machine = MachineConfig::splash_default(w.programs.len());
        for &pressure in &opts.pressures {
            let specs: Vec<ExploreSpec> = (0..opts.seeds)
                .map(|s| ExploreSpec::for_seed(s, pressure))
                .collect();
            let report = explore_sweep(
                &w.programs,
                &w.initial_mem,
                &machine,
                &specs,
                opts.workers,
                &opts.replay_workers,
            )
            .map_err(|e| Error::from(e).context(format!("{}/{}", w.name, pressure.name())))?;
            jsonl.push_str(&report.sweep.to_jsonl());

            let stalls: u64 = report
                .outcomes
                .iter()
                .map(|o| o.pressure.stalled_ticks)
                .sum();
            let forced: u64 = report
                .outcomes
                .iter()
                .map(|o| o.pressure.forced_closes)
                .sum();
            let faulted: usize = report
                .outcomes
                .iter()
                .filter_map(|o| o.pressure.sink.as_ref())
                .filter(|s| s.poisoned.iter().any(|&p| p))
                .count();
            let divergent = report.divergent();
            table.row(vec![
                w.name.to_string(),
                pressure.name().to_string(),
                opts.seeds.to_string(),
                divergent.len().to_string(),
                stalls.to_string(),
                forced.to_string(),
                faulted.to_string(),
            ]);

            for o in divergent {
                divergent_total += 1;
                eprintln!(
                    "DIVERGENCE {}/{}: {}",
                    w.name,
                    o.name,
                    o.divergence.as_deref().unwrap_or("?")
                );
                report_divergence(w, &machine, o.spec.clone(), &opts.out);
            }
        }
        if opts.trace {
            write_seed0_trace(w, &opts.out);
        }
    }

    table.print();
    table
        .write_csv(&opts.out, "rr-check")
        .map_err(|e| Error::from(e).context("write csv"))?;
    write_metrics_jsonl(&opts.out, "rr-check", &jsonl)
        .map_err(|e| Error::from(e).context("write metrics"))?;

    if divergent_total > 0 {
        eprintln!(
            "rr-check: {divergent_total} divergent schedule(s); minimized reports under {}",
            opts.out.display()
        );
        Ok(1)
    } else {
        println!("rr-check: all explored schedules replay deterministically");
        Ok(0)
    }
}

/// `verify <dir | rr://host:port[/run]>` — the store-replay gate. Loads
/// every saved run from the named store (all of them, or just the one an
/// `rr://…/run` URL singles out), replays each variant, and verifies it
/// against the recorded ground truth.
fn cmd_verify(args: &[String]) -> u8 {
    let Some(spec) = args.first() else {
        eprintln!("rr-check verify: missing <dir | rr://host:port[/run]>\n{USAGE}");
        return 2;
    };
    let mut cfg = rr_experiments::ExperimentConfig::from_env();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let res = match flag.as_str() {
            "--workers" => number("verify", flag, &mut it).map(|n| cfg.workers = n),
            "--size" => number("verify", flag, &mut it).map(|n| cfg.size = n),
            other => {
                eprintln!("rr-check verify: unknown flag {other:?}\n{USAGE}");
                Err(2)
            }
        };
        if let Err(c) = res {
            return c;
        }
    }
    cfg.replay_from = Some(spec.clone());
    match rr_experiments::handle_replay_from(&cfg) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("rr-check verify: {e}");
            1
        }
    }
}

struct FuzzOptions {
    count: u64,
    start_seed: u64,
    schedules: u64,
    pressures: Vec<PressureMode>,
    workers: usize,
    replay_workers: Vec<usize>,
    out: PathBuf,
}

fn parse_fuzz(args: &[String]) -> Result<FuzzOptions, u8> {
    let mut opts = FuzzOptions {
        count: 50,
        start_seed: 0,
        schedules: 2,
        pressures: vec![PressureMode::None],
        workers: 0,
        replay_workers: Vec::new(),
        out: results_dir().join("rr-check"),
    };

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--count" => opts.count = number("fuzz", flag, &mut it)?,
            "--start-seed" => opts.start_seed = number("fuzz", flag, &mut it)?,
            "--schedules" => opts.schedules = number("fuzz", flag, &mut it)?,
            "--pressure" => {
                let v = value("fuzz", flag, &mut it)?;
                opts.pressures = if v == "all" {
                    PressureMode::ALL.to_vec()
                } else {
                    vec![PressureMode::parse(v).ok_or_else(|| {
                        eprintln!("rr-check fuzz: unknown pressure mode {v:?}\n{USAGE}");
                        2
                    })?]
                };
            }
            "--workers" => opts.workers = number("fuzz", flag, &mut it)?,
            "--replay-workers" => {
                let v = value("fuzz", flag, &mut it)?;
                opts.replay_workers = parse_worker_list(v).ok_or_else(|| {
                    eprintln!("rr-check fuzz: bad --replay-workers {v:?} (want e.g. 1,2,4,8)");
                    2
                })?;
            }
            "--out" => opts.out = PathBuf::from(value("fuzz", flag, &mut it)?),
            other => {
                eprintln!("rr-check fuzz: unknown flag {other:?}\n{USAGE}");
                return Err(2);
            }
        }
    }
    Ok(opts)
}

fn cmd_fuzz(args: &[String]) -> u8 {
    let opts = match parse_fuzz(args) {
        Ok(o) => o,
        Err(c) => return c,
    };
    match run_fuzz(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rr-check fuzz: {e}");
            1
        }
    }
}

fn run_fuzz(opts: &FuzzOptions) -> Result<u8, Error> {
    let mut divergent_total = 0usize;
    let mut schedules_total = 0u64;
    for seed in opts.start_seed..opts.start_seed.saturating_add(opts.count) {
        let case = fuzz_case(seed);
        let w = &case.workload;
        let machine = MachineConfig::splash_default(w.programs.len());
        for &pressure in &opts.pressures {
            // Decorrelate schedule seeds from the generator seed so two
            // fuzz cases never explore the same perturbation sequence.
            let specs: Vec<ExploreSpec> = (0..opts.schedules)
                .map(|s| ExploreSpec::for_seed(seed.wrapping_mul(7919).wrapping_add(s), pressure))
                .collect();
            let report = explore_sweep(
                &w.programs,
                &w.initial_mem,
                &machine,
                &specs,
                opts.workers,
                &opts.replay_workers,
            )
            .map_err(|e| Error::from(e).context(format!("{}/{}", case.label, pressure.name())))?;
            schedules_total += opts.schedules;
            for o in report.divergent() {
                divergent_total += 1;
                eprintln!(
                    "DIVERGENCE {}/{}: {}",
                    case.label,
                    o.name,
                    o.divergence.as_deref().unwrap_or("?")
                );
                save_fuzz_source(&case, &opts.out);
                report_divergence(w, &machine, o.spec.clone(), &opts.out);
            }
        }
    }

    if divergent_total > 0 {
        eprintln!(
            "rr-check fuzz: {divergent_total} divergent schedule(s) over {} case(s); \
             generated sources and minimized reports under {}",
            opts.count,
            opts.out.display()
        );
        Ok(1)
    } else {
        println!(
            "rr-check fuzz: {} case(s) (seeds {}..{}), {schedules_total} explored schedule(s), \
             all replay deterministically",
            opts.count,
            opts.start_seed,
            opts.start_seed.saturating_add(opts.count)
        );
        Ok(0)
    }
}

/// Saves a divergent fuzz case's generated `.asm` source so the failure
/// can be re-run by hand (`rr-check explore` can't regenerate it without
/// the seed; the source is the durable artifact).
fn save_fuzz_source(case: &FuzzCase, out: &Path) {
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("rr-check fuzz: create {}: {e}", out.display());
        return;
    }
    let path = out.join(format!("{}.asm", case.label));
    match std::fs::write(&path, &case.asm) {
        Ok(()) => eprintln!("  generated source saved to {}", path.display()),
        Err(e) => eprintln!("rr-check fuzz: could not save {}: {e}", path.display()),
    }
}

/// Shrinks a divergent spec, then re-records it with tracing enabled and
/// replays every variant with a trace probe ([`replay_forensic`]), which
/// writes `divergence.md` next to the CSVs.
fn report_divergence(w: &Workload, machine: &MachineConfig, spec: ExploreSpec, out: &Path) {
    let min = minimize_divergence(&w.programs, &w.initial_mem, machine, spec);
    eprintln!(
        "  minimized: seed={} schedule={:?} pressure={}",
        min.seed,
        min.schedule,
        min.pressure.name()
    );
    let traced = machine.clone().with_trace(relaxreplay::TraceConfig::full());
    let Ok(run) = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&traced)
        .recorder_configs(&min.recorder_configs())
        .options(&min.options())
        .run()
    else {
        eprintln!("  (forensic re-record failed)");
        return;
    };
    let dir = out.join(format!(
        "divergence-{}-{}",
        w.name,
        min.label().replace('/', "-")
    ));
    for v in 0..run.variants.len() {
        if let Err(e) = replay_forensic(
            &w.programs,
            &w.initial_mem,
            &run,
            v,
            &CostModel::splash_default(),
            &dir,
        ) {
            eprintln!("  [{}] {e}", run.variants[v].spec.label());
        }
    }
}

/// Records the unperturbed seed-0 schedule with tracing and writes the
/// Perfetto-convertible trace sidecar (`--trace`).
fn write_seed0_trace(w: &Workload, out: &Path) {
    let spec = ExploreSpec::for_seed(0, PressureMode::None);
    let machine = MachineConfig::splash_default(w.programs.len())
        .with_trace(relaxreplay::TraceConfig::full());
    match RecordSession::new(&w.programs, &w.initial_mem)
        .config(&machine)
        .recorder_configs(&spec.recorder_configs())
        .options(&spec.options())
        .run()
    {
        Ok(run) => {
            if let Some(trace) = &run.trace {
                if let Err(e) = write_trace_pairs(
                    out,
                    &format!("rr-check-{}", w.name),
                    &[(format!("{}/seed0", w.name), trace)],
                ) {
                    eprintln!("rr-check: trace write for {} failed: {e}", w.name);
                }
            }
        }
        Err(e) => eprintln!("rr-check: trace record of {} failed: {e}", w.name),
    }
}
