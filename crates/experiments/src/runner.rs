//! The experiments driver: the configuration every figure binary reads,
//! the sweeps that record the workload suite (`rr-sim`'s parallel sweep
//! engine), the shared `main` of the figure binaries and the one writer
//! of their sidecars.

use std::path::Path;
use std::process::ExitCode;

use relaxreplay::trace::{TraceConfig, TraceLevel, TraceRing};
use relaxreplay::RunTrace;
use rr_replay::prof::ProfEntry;
use rr_replay::{
    critical_path_blame, divergence_report, prof_json, verify, verify_traced, CostModel,
    ReplayOutcome,
};
use rr_sim::{
    host_parallelism, replay_variant, run_sweep, with_variant_dag, Engine, Error, JobOutput,
    MachineConfig, RecorderSpec, ReplayPolicy, RunResult, SweepJob, SweepReport,
};
use rr_workloads::{suite, Workload};

use crate::report::results_dir;

/// Configuration of an experiment campaign.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of cores / threads (the paper's default is 8).
    pub threads: usize,
    /// Workload size factor (larger = longer runs, tighter statistics).
    pub size: u32,
    /// Replay cost model for Figure 13.
    pub cost: CostModel,
    /// Whether to replay (and verify) every variant. Disable for
    /// recording-only experiments to save time.
    pub replay: bool,
    /// Sweep worker threads (0 = the host's available parallelism). Runs
    /// are deterministic regardless of this value; it only changes
    /// wall-clock.
    pub workers: usize,
    /// Save every recorded run as `.rrlog` files into this store — a
    /// local directory or an `rr://host:port` log service
    /// (`--save-logs <dir|rr://…>` / `RR_SAVE_LOGS`).
    pub save_logs: Option<String>,
    /// Instead of recording, load runs previously saved in this store
    /// (a directory or an `rr://host:port[/run]` URL) and replay +
    /// verify them (`--replay-from <dir|rr://…>` / `RR_REPLAY_FROM`).
    pub replay_from: Option<String>,
    /// Replay executor for the `--replay-from` verification pass
    /// (`--replay-workers N` / `RR_REPLAY_WORKERS`): `None` replays
    /// sequentially, `Some(N)` on the multithreaded engine with N workers
    /// (0 = the host's available parallelism). Saved runs carrying an
    /// `ordering.bin` sidecar replay the recorded partial order; older
    /// runs fall back to total order.
    pub replay_workers: Option<usize>,
    /// Event-tracing configuration (`--trace <level>` / `RR_TRACE`).
    /// Off by default; when enabled, every recorded run carries per-core
    /// timelines and the binaries write `<slug>.trace.jsonl` +
    /// `<slug>.trace.json` (Perfetto) next to their metrics sidecars.
    /// Tracing never changes the recorded `.rrlog` bytes.
    pub trace: TraceConfig,
    /// Replay profiling (`--prof` / `RR_PROF`). Off by default; when
    /// enabled, the binaries write a `<slug>.prof.json` sidecar
    /// (`rr-prof/v1`: critical-path blame per run × variant) next to
    /// their metrics sidecars. Profiling never changes the recorded
    /// `.rrlog` bytes or the replay outcomes.
    pub prof: bool,
}

impl ExperimentConfig {
    /// The defaults used by the figure binaries: 8 cores, a size giving a
    /// few hundred thousand instructions per workload, host-parallel
    /// sweeps.
    #[must_use]
    pub fn paper_default() -> Self {
        ExperimentConfig {
            threads: 8,
            size: 6,
            cost: CostModel::splash_default(),
            replay: true,
            workers: 0,
            save_logs: None,
            replay_from: None,
            replay_workers: None,
            trace: TraceConfig::off(),
            prof: false,
        }
    }

    /// Reads `RR_THREADS` / `RR_SIZE` / `RR_WORKERS` / `RR_SAVE_LOGS` /
    /// `RR_REPLAY_FROM` / `RR_REPLAY_WORKERS` / `RR_TRACE` / `RR_PROF`
    /// environment overrides and the `--workers N`, `--save-logs <dir>`,
    /// `--replay-from <dir>`, `--replay-workers N`,
    /// `--trace <off|intervals|accesses|full>`, `--prof` command-line
    /// flags (used by the binaries so runs can be scaled without
    /// recompiling); a flag overrides its variable, and other arguments
    /// are left to the caller. A value that does not parse — a
    /// non-numeric `RR_THREADS`, `RR_SIZE`, `RR_WORKERS`,
    /// `RR_REPLAY_WORKERS`, `--workers` or `--replay-workers`, an unknown
    /// `RR_TRACE` or `--trace` level — is a usage error: it is printed,
    /// naming the variable or flag, and the process exits with status 2.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_process().0
    }

    /// [`from_env`](Self::from_env), also returning the arguments that
    /// name no flag, in order.
    fn from_process() -> (Self, Vec<String>) {
        let mut cfg = Self::paper_default();
        let applied = cfg
            .apply_env(|name| std::env::var(name).ok())
            .and_then(|()| cfg.apply_args(std::env::args().skip(1)));
        match applied {
            Ok(unknown) => (cfg, unknown),
            Err(e) => {
                eprintln!("usage error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Applies the environment variables [`from_env`](Self::from_env)
    /// reads, looking each up with `var`; an empty value counts as unset.
    ///
    /// # Errors
    ///
    /// A message naming the variable when a numeric one does not parse
    /// or `RR_TRACE` names no trace level.
    fn apply_env(&mut self, var: impl Fn(&str) -> Option<String>) -> Result<(), String> {
        let var = |name: &str| var(name).filter(|v| !v.is_empty());
        if let Some(t) = var("RR_THREADS") {
            self.threads = number("RR_THREADS", Some(t))?;
        }
        if let Some(s) = var("RR_SIZE") {
            self.size = number("RR_SIZE", Some(s))?;
        }
        if let Some(w) = var("RR_WORKERS") {
            self.workers = number("RR_WORKERS", Some(w))?;
        }
        if let Some(d) = var("RR_SAVE_LOGS") {
            self.save_logs = Some(d);
        }
        if let Some(d) = var("RR_REPLAY_FROM") {
            self.replay_from = Some(d);
        }
        if let Some(l) = var("RR_TRACE") {
            self.trace = trace_level("RR_TRACE", Some(l))?;
        }
        if let Some(p) = var("RR_PROF") {
            self.prof = p != "0";
        }
        if let Some(w) = var("RR_REPLAY_WORKERS") {
            self.replay_workers = Some(number("RR_REPLAY_WORKERS", Some(w))?);
        }
        Ok(())
    }

    /// Applies the command-line flags [`from_env`](Self::from_env) reads,
    /// each as `--flag value` or `--flag=value`, and returns the other
    /// arguments.
    ///
    /// # Errors
    ///
    /// A message naming the flag when `--workers` or `--replay-workers`
    /// has no numeric value or `--trace` names no trace level.
    fn apply_args(
        &mut self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Vec<String>, String> {
        let mut args = args.into_iter();
        let mut unknown = Vec::new();
        while let Some(a) = args.next() {
            if let Some(v) = flag_value("--workers", &a, &mut args) {
                self.workers = number("--workers", v)?;
            } else if let Some(v) = flag_value("--replay-workers", &a, &mut args) {
                self.replay_workers = Some(number("--replay-workers", v)?);
            } else if let Some(v) = flag_value("--trace", &a, &mut args) {
                self.trace = trace_level("--trace", v)?;
            } else if let Some(v) = flag_value("--save-logs", &a, &mut args) {
                self.save_logs = v;
            } else if let Some(v) = flag_value("--replay-from", &a, &mut args) {
                self.replay_from = v;
            } else if a == "--prof" {
                self.prof = true;
            } else {
                unknown.push(a);
            }
        }
        Ok(unknown)
    }
}

/// The value of option `flag` when `arg` is `flag` (the value is the next
/// argument, if any) or `flag=value`; `None` when `arg` is something else.
fn flag_value(
    flag: &str,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<Option<String>> {
    if arg == flag {
        Some(rest.next())
    } else {
        arg.strip_prefix(flag)?
            .strip_prefix('=')
            .map(|v| Some(v.to_string()))
    }
}

/// A numeric flag's or variable's value, or a message naming it.
fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.as_deref();
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number{}", got(value)))
}

/// The trace configuration a flag's or variable's level names, or a
/// message naming it.
fn trace_level(flag: &str, value: Option<String>) -> Result<TraceConfig, String> {
    let value = value.as_deref();
    value
        .and_then(TraceLevel::parse)
        .map(TraceConfig::level)
        .ok_or_else(|| {
            format!(
                "{flag} needs one of off|intervals|accesses|full{}",
                got(value)
            )
        })
}

/// The rejected value for a usage message; nothing when it is missing.
fn got(value: Option<&str>) -> String {
    value.map_or(String::new(), |v| format!(", got {v:?}"))
}

fn replay_policy(cfg: &ExperimentConfig) -> ReplayPolicy {
    if cfg.replay {
        // Native replay re-executes the same instruction stream with warm
        // caches and no coherence contention, so its IPC is at least the
        // recorded per-core IPC (the paper's sequential replay of 8 cores
        // taking only 6.7x the parallel recording implies the same).
        ReplayPolicy::AdaptiveIpc {
            base: cfg.cost,
            headroom: 1.2,
        }
    } else {
        ReplayPolicy::Skip
    }
}

/// A job recording `w` under the paper's four recorder variants.
fn paper_job(
    name: impl Into<String>,
    w: Workload,
    machine: MachineConfig,
    replay: ReplayPolicy,
) -> SweepJob {
    let specs = RecorderSpec::paper_matrix();
    SweepJob::from_specs(name, w.programs, w.initial_mem, machine, &specs, replay)
}

/// Runs `jobs` as one sweep on `cfg.workers` and saves every run when
/// `--save-logs` asks. `what` names the sweep in its error.
fn sweep(cfg: &ExperimentConfig, jobs: &[SweepJob], what: &str) -> Result<SweepReport, Error> {
    let report = run_sweep(jobs, cfg.workers).map_err(|e| Error::from(e).context(what))?;
    if let Some(spec) = &cfg.save_logs {
        let (store, run) =
            rr_serve::parse_and_open(spec).map_err(|e| Error::from(e).context("--save-logs"))?;
        if run.is_some() {
            return Err(Error::msg(format!(
                "--save-logs {spec}: name the store, not a single run \
                 (runs are keyed by workload name)"
            )));
        }
        let bytes = report
            .save_to(&*store)
            .map_err(|e| Error::from(e).context("--save-logs"))?;
        eprintln!(
            "saved {} run(s), {bytes} .rrlog bytes, into {}",
            report.outputs.len(),
            store.describe()
        );
    }
    Ok(report)
}

/// Records (and optionally replays + verifies) the entire workload suite,
/// one sweep job per workload, named after it, in suite order.
///
/// # Errors
///
/// Returns the first sweep failure (a recording deadlock or a replay
/// verification mismatch — either a correctness bug, not an experiment
/// outcome) or a `--save-logs` write failure.
pub fn run_suite(cfg: &ExperimentConfig) -> Result<SweepReport, Error> {
    let machine = MachineConfig::splash_default(cfg.threads).with_trace(cfg.trace);
    let jobs: Vec<SweepJob> = suite(cfg.threads, cfg.size)
        .into_iter()
        .map(|w| paper_job(w.name, w, machine.clone(), replay_policy(cfg)))
        .collect();
    sweep(cfg, &jobs, "sweep")
}

/// Records (and optionally replays + verifies) the concurrent
/// data-structure corpus (`rr_workloads::corpus_suite`) the same way
/// [`run_suite`] runs the SPLASH-2 analogues. Corpus core counts are
/// intrinsic to each `.asm` source, so `cfg.threads` / `cfg.size` are
/// ignored; everything else (replay policy, `--save-logs`, tracing)
/// applies as usual.
///
/// # Errors
///
/// As [`run_suite`].
pub fn run_corpus_suite(cfg: &ExperimentConfig) -> Result<SweepReport, Error> {
    let jobs: Vec<SweepJob> = rr_workloads::corpus_suite()
        .into_iter()
        .map(|w| {
            let machine = MachineConfig::splash_default(w.programs.len()).with_trace(cfg.trace);
            paper_job(w.name, w, machine, replay_policy(cfg))
        })
        .collect();
    sweep(cfg, &jobs, "corpus sweep")
}

/// Records the suite at several core counts (Figure 14) in one flat
/// parallel sweep, core count by core count; each job is named
/// `<workload>@<cores>c`. Replay is skipped (Figure 14 is about
/// recording).
///
/// # Errors
///
/// As [`run_suite`].
pub fn run_scalability(
    cfg: &ExperimentConfig,
    core_counts: &[usize],
) -> Result<SweepReport, Error> {
    let mut jobs = Vec::new();
    for &cores in core_counts {
        let machine = MachineConfig::splash_default(cores).with_trace(cfg.trace);
        for w in suite(cores, cfg.size) {
            let name = format!("{}@{cores}c", w.name);
            jobs.push(paper_job(name, w, machine.clone(), ReplayPolicy::Skip));
        }
    }
    sweep(cfg, &jobs, "sweep")
}

/// Summary of a replay-from-disk verification pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayFromSummary {
    /// Saved runs replayed.
    pub runs: usize,
    /// Recorder variants verified across all runs.
    pub variants: usize,
}

/// Replays every run saved in `store` (by a prior `--save-logs`
/// invocation — a local directory or a remote `rr://` log service),
/// verifying each variant's replay against the stored ground truth.
/// Programs and initial memory are regenerated by name
/// (`rr_workloads::by_name`, which also resolves litmus and corpus
/// shapes) — generators and the assembler are deterministic, so the
/// `.rrlog` files plus `(threads, size)` fully determine the execution.
///
/// `only` restricts the pass to a single named run (what an
/// `rr://host:port/run` URL means); `None` replays everything the
/// store lists.
///
/// Run names of the form `fft@16c` (the scalability sweep) override the
/// configured thread count with the recorded one.
///
/// # Errors
///
/// Returns the first load, patch, replay, or verification failure, with
/// the run and variant named in the error's context and the underlying
/// typed error preserved in its source chain.
pub fn replay_suite_from(
    cfg: &ExperimentConfig,
    store: &dyn rr_sim::RunStore,
    only: Option<&str>,
) -> Result<ReplayFromSummary, Error> {
    let names = match only {
        Some(run) => vec![run.to_string()],
        None => store
            .list_runs()
            .map_err(|e| Error::from(e).context("listing saved runs"))?,
    };
    if names.is_empty() {
        return Err(Error::msg(format!("no saved runs in {}", store.describe())));
    }
    let workers = cfg
        .replay_workers
        .map(|w| if w == 0 { host_parallelism() } else { w });
    let mut variants = 0usize;
    for name in &names {
        // Per-core logs of a saved run decode on the parallel ingest pool.
        let saved = store
            .load_run_with(name, cfg.workers)
            .map_err(|e| Error::from(e).context(name.clone()))?;
        let (base, threads) = match name.split_once('@') {
            Some((b, suffix)) => {
                let cores = suffix
                    .strip_suffix('c')
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| Error::msg(format!("{name}: unparseable core-count suffix")))?;
                (b, cores)
            }
            None => (name.as_str(), cfg.threads),
        };
        let workload = rr_workloads::by_name(base, threads, cfg.size)
            .ok_or_else(|| Error::msg(format!("{name}: no workload named {base:?} is known")))?;
        for v in &saved.variants {
            let at = |stage: &str| format!("{name} [{}]: {stage}", v.label);
            let engine = workers.map_or(Engine::Sequential, |w| {
                Engine::Threaded(w, v.ordering.as_deref())
            });
            let outcome = replay_variant(
                &workload.programs,
                &workload.initial_mem,
                &cfg.cost,
                &v.logs,
                engine,
                &mut (),
                None,
            )
            .map_err(|e| e.into_error(at, "replay failed"))?;
            verify(&saved.recorded, &outcome)
                .map_err(|e| Error::from(e).context(at("verification failed")))?;
            variants += 1;
        }
    }
    Ok(ReplayFromSummary {
        runs: names.len(),
        variants,
    })
}

/// The `--replay-from` entry point shared by every figure binary: when the
/// flag is set, replays all saved runs from disk, prints a verification
/// summary, and returns `true` so the binary exits without recording.
///
/// # Errors
///
/// Returns the failure of any saved run to load, replay, or verify — the
/// whole point of the flag is to prove the durable artifact is sound.
pub fn handle_replay_from(cfg: &ExperimentConfig) -> Result<bool, Error> {
    let Some(spec) = &cfg.replay_from else {
        return Ok(false);
    };
    let (store, run) =
        rr_serve::parse_and_open(spec).map_err(|e| Error::from(e).context("--replay-from"))?;
    let summary =
        replay_suite_from(cfg, &*store, run.as_deref()).map_err(|e| e.context("--replay-from"))?;
    println!(
        "replay-from {}: {} run(s), {} variant replay(s) verified against the recorded \
         ground truth [{}]",
        store.describe(),
        summary.runs,
        summary.variants,
        cfg.replay_workers
            .map_or_else(|| "seq".to_string(), |w| format!("thr{w}"))
    );
    Ok(true)
}

/// The flags [`figure_main`] accepts, for its unknown-argument error.
const FLAGS: &str = "flags: --workers N, --replay-workers N, \
    --trace off|intervals|accesses|full, --save-logs <dir|rr://…>, \
    --replay-from <dir|rr://…>, --prof (a value also as --flag=value)";

/// The `main` of every figure binary. Reads the configuration like
/// [`ExperimentConfig::from_env`], except that an argument naming no flag
/// is a usage error too (printed with the accepted flags, exit 2). With
/// `--replay-from` set it replays and verifies the saved runs
/// ([`handle_replay_from`]); otherwise it runs `body` with the
/// configuration and the results directory. A failure is printed as
/// `<name>: <error>` and ends the process with status 1.
pub fn figure_main(
    name: &str,
    body: impl FnOnce(ExperimentConfig, &Path) -> Result<(), Error>,
) -> ExitCode {
    let (cfg, unknown) = ExperimentConfig::from_process();
    if let Some(arg) = unknown.first() {
        eprintln!("usage error: {name}: unknown argument {arg:?}\n{FLAGS}");
        return ExitCode::from(2);
    }
    let result = handle_replay_from(&cfg).and_then(|replayed| {
        if replayed {
            Ok(())
        } else {
            body(cfg, &results_dir())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes every sidecar of a figure run into `dir` (created if needed),
/// each named after `slug`:
///
/// * `<slug>.metrics.jsonl`, always: one line per output, as
///   [`SweepReport::to_jsonl`] renders it;
/// * `<slug>.trace.jsonl` (one JSON object per trace record, every run
///   concatenated) and `<slug>.trace.json` (Chrome trace-event format —
///   open it in Perfetto, one track per core plus a coherence/replay
///   track per run), when any output carries a trace (`--trace`);
/// * `<slug>.prof.json` (`rr-prof/v1`), with `--prof` and at least one
///   recorded variant: critical-path blame per output × variant over
///   the recorded partial order. An entry of `measured` replaces the
///   entry of the same run and variant, so harnesses that time the
///   threaded engine (`fig13_replay`, `parallel_replay`) add their
///   engine timelines.
///
/// # Errors
///
/// Returns the first blame-construction or write failure — every
/// artifact was explicitly requested.
pub fn write_sidecars(
    dir: &Path,
    slug: &str,
    outputs: &[JobOutput],
    cfg: &ExperimentConfig,
    measured: Vec<ProfEntry>,
) -> Result<(), Error> {
    let write = |ext: &str, content: String| {
        let path = dir.join(format!("{slug}.{ext}"));
        std::fs::write(&path, content)
            .map_err(|e| Error::from(e).context(format!("write {}", path.display())))?;
        Ok::<_, Error>(path)
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::from(e).context(format!("create {}", dir.display())))?;
    write(
        "metrics.jsonl",
        outputs.iter().map(|o| o.jsonl_line() + "\n").collect(),
    )?;

    let traced: Vec<(String, &RunTrace)> = outputs
        .iter()
        .filter_map(|o| Some((o.name.clone(), o.run.trace.as_ref()?)))
        .collect();
    if !traced.is_empty() {
        let jsonl = write(
            "trace.jsonl",
            traced.iter().map(|(label, t)| t.to_jsonl(label)).collect(),
        )?;
        let chrome = write("trace.json", relaxreplay::trace::chrome_trace(&traced))?;
        eprintln!(
            "trace artifacts: {} and {} ({} run(s), {} record(s))",
            jsonl.display(),
            chrome.display(),
            traced.len(),
            traced.iter().map(|(_, t)| t.total_records()).sum::<usize>()
        );
    }

    let mut entries = if cfg.prof {
        prof_entries(outputs, &cfg.cost)?
    } else {
        Vec::new()
    };
    if !entries.is_empty() {
        for m in measured {
            if let Some(e) = entries
                .iter_mut()
                .find(|e| e.run == m.run && e.variant == m.variant)
            {
                *e = m;
            }
        }
        let path = write("prof.json", prof_json(&entries))?;
        let with_engine = entries.iter().filter(|e| e.engine.is_some()).count();
        eprintln!(
            "prof artifacts: {} ({} entr{}, {with_engine} with engine timelines)",
            path.display(),
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" },
        );
    }
    Ok(())
}

/// Replays variant `variant` of `result` through [`replay_variant`] with
/// a [`TraceRing`] probe and verifies it traced. When verification fails
/// on a run recorded with tracing, writes `divergence.md` (both
/// timelines' event windows around the divergent load) into `report_dir`
/// and names it in the error.
///
/// # Errors
///
/// The first patch, replay or verification failure, or an out-of-range
/// `variant` index; a report write failure is appended to the
/// verification error's context rather than masking it.
pub fn replay_forensic(
    programs: &[rr_isa::Program],
    initial_mem: &rr_isa::MemImage,
    result: &RunResult,
    variant: usize,
    cost: &CostModel,
    report_dir: &std::path::Path,
) -> Result<ReplayOutcome, Error> {
    let v = result.variant(variant)?;
    // The replay ring lives outside the simulated machine, so it cannot
    // perturb anything.
    let mut ring = TraceRing::new(rr_mem::CoreId::new(u8::MAX), &TraceConfig::full());
    let outcome = replay_variant(
        programs,
        initial_mem,
        cost,
        &v.logs,
        Engine::Sequential,
        &mut ring,
        None,
    )
    .map_err(|e| e.into_error(|s| s.to_string(), "replay failed"))?;
    let Err(err) = verify_traced(&result.recorded, &outcome, Some(&mut ring)) else {
        return Ok(outcome);
    };
    let note = match &result.trace {
        None => "record the run with tracing enabled to get a divergence report".to_string(),
        Some(record_trace) => {
            let report = divergence_report(
                &err,
                &result.recorded,
                &outcome,
                record_trace,
                &ring,
                rr_replay::forensics::DEFAULT_WINDOW,
            );
            let path = report_dir.join("divergence.md");
            match std::fs::create_dir_all(report_dir).and_then(|()| std::fs::write(&path, report)) {
                Ok(()) => format!("forensic report: {}", path.display()),
                Err(io) => format!("report write failed: {io}"),
            }
        }
    };
    let label = v.spec.label();
    Err(Error::from(err).context(format!("verification failed [{label}] ({note})")))
}

/// The critical-path blame entries for a set of runs: one [`ProfEntry`]
/// per run × recorder variant, over the DAG of the variant's recorded
/// partial order.
///
/// # Errors
///
/// Returns the first patch or DAG-construction failure (a correctness
/// bug — recorded logs always patch and order).
fn prof_entries(outputs: &[JobOutput], cost: &CostModel) -> Result<Vec<ProfEntry>, Error> {
    let mut entries = Vec::new();
    for o in outputs {
        for v in &o.run.variants {
            let at = |stage: &str| format!("{} [{}]: {stage}", o.name, v.spec.label());
            let blame = with_variant_dag(&v.logs, Some(&v.ordering), None, |dag| {
                critical_path_blame(dag, cost)
            })
            .map_err(|e| e.into_error(at, "dag failed"))?;
            entries.push(ProfEntry {
                run: o.name.clone(),
                variant: v.spec.label(),
                blame,
                engine: None,
            });
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_config_defaults_are_sane() {
        let cfg = ExperimentConfig::paper_default();
        assert_eq!(cfg.threads, 8);
        assert!(cfg.replay);
        assert_eq!(cfg.workers, 0, "0 = host parallelism");
    }

    #[test]
    fn flags_parse_in_both_forms_and_bad_values_name_their_flag() {
        let parse = |args: &[&str]| {
            let mut cfg = ExperimentConfig::paper_default();
            cfg.apply_args(args.iter().map(ToString::to_string))
                .map(|_| cfg)
        };
        let cfg = parse(&[
            "--workers",
            "3",
            "--replay-workers=2",
            "--trace",
            "full",
            "--save-logs=out",
            "--prof",
        ])
        .expect("valid flags");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.replay_workers, Some(2));
        assert_eq!(cfg.trace, TraceConfig::level(TraceLevel::Full));
        assert_eq!(cfg.save_logs.as_deref(), Some("out"));
        assert!(cfg.prof);
        let cfg = parse(&["--workers=5", "--replay-workers", "0", "--trace=intervals"])
            .expect("valid flags");
        assert_eq!((cfg.workers, cfg.replay_workers), (5, Some(0)));
        assert_eq!(cfg.trace, TraceConfig::level(TraceLevel::Intervals));
        // Arguments naming no flag are handed back, in order.
        let mut rest = ExperimentConfig::paper_default();
        let unknown = rest.apply_args(["verify", "--wokers", "3", "--prof"].map(String::from));
        assert_eq!(unknown.expect("valid flags"), ["verify", "--wokers", "3"]);
        assert!(rest.prof);

        for (args, flag) in [
            (&["--workers", "abc"][..], "--workers"),
            (&["--workers=abc"], "--workers"),
            (&["--workers"], "--workers"),
            (&["--replay-workers", "x"], "--replay-workers"),
            (&["--replay-workers=-1"], "--replay-workers"),
            (&["--trace", "loud"], "--trace"),
            (&["--trace=loud"], "--trace"),
            (&["--trace"], "--trace"),
        ] {
            let err = parse(args).expect_err("a usage error");
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn env_values_parse_and_bad_ones_name_their_variable() {
        let parse = |vars: &[(&str, &str)]| {
            let mut cfg = ExperimentConfig::paper_default();
            cfg.apply_env(|name| {
                vars.iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| (*v).to_string())
            })
            .map(|()| cfg)
        };
        let cfg = parse(&[
            ("RR_THREADS", "2"),
            ("RR_SIZE", "3"),
            ("RR_WORKERS", "4"),
            ("RR_REPLAY_WORKERS", "0"),
            ("RR_TRACE", "accesses"),
            ("RR_SAVE_LOGS", "out"),
            ("RR_PROF", "1"),
        ])
        .expect("valid variables");
        assert_eq!((cfg.threads, cfg.size, cfg.workers), (2, 3, 4));
        assert_eq!(cfg.replay_workers, Some(0));
        assert_eq!(cfg.trace, TraceConfig::level(TraceLevel::Accesses));
        assert_eq!(cfg.save_logs.as_deref(), Some("out"));
        assert!(cfg.prof);
        // An empty value is unset, not an error.
        let cfg = parse(&[("RR_THREADS", ""), ("RR_TRACE", "")]).expect("empty is unset");
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.trace, TraceConfig::off());

        for (name, value) in [
            ("RR_THREADS", "eight"),
            ("RR_SIZE", "-1"),
            ("RR_WORKERS", "all"),
            ("RR_REPLAY_WORKERS", "2.5"),
            ("RR_TRACE", "loud"),
        ] {
            let err = parse(&[(name, value)]).expect_err("a usage error");
            assert!(err.starts_with(name), "{name}={value}: {err}");
            assert!(err.contains(value), "{name}={value}: {err}");
        }
    }

    #[test]
    fn tiny_suite_runs_in_parallel_and_keeps_order() {
        let cfg = ExperimentConfig {
            threads: 2,
            size: 1,
            replay: false,
            workers: 4,
            ..ExperimentConfig::paper_default()
        };
        let report = run_suite(&cfg).expect("suite");
        assert_eq!(report.outputs.len(), 12);
        assert_eq!(report.outputs[0].name, "fft");
        assert!(report.workers >= 1);
        for (i, o) in report.outputs.iter().enumerate() {
            assert_eq!(o.job, i);
            assert!(o.metrics.counter("cpu.retired") > 0, "{}", o.name);
            assert!(o.phases.record > 0, "{}", o.name);
        }
        let dir = std::env::temp_dir().join("rr_suite_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_sidecars(&dir, "suite", &report.outputs, &cfg, Vec::new()).expect("sidecars");
        let jsonl = std::fs::read_to_string(dir.join("suite.metrics.jsonl")).expect("metrics");
        assert_eq!(jsonl, report.to_jsonl());
        assert!(jsonl.lines().next().unwrap().contains("\"name\":\"fft\""));
    }

    #[test]
    fn prof_artifacts_validate_against_the_sidecar_schema() {
        let cfg = ExperimentConfig {
            threads: 2,
            size: 1,
            replay: false,
            workers: 2,
            prof: true,
            ..ExperimentConfig::paper_default()
        };
        let runs = run_suite(&cfg).expect("suite").outputs;
        let entries = prof_entries(&runs, &cfg.cost).expect("blame");
        assert_eq!(
            entries.len(),
            runs.len() * RecorderSpec::paper_matrix().len()
        );
        for e in &entries {
            assert!(
                e.blame.coverage_pct() >= 95.0,
                "{} [{}]: attribution must cover the makespan",
                e.run,
                e.variant
            );
        }

        let dir = std::env::temp_dir().join("rr_prof_artifacts_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_sidecars(&dir, "suite", &runs, &cfg, Vec::new()).expect("artifacts");
        let json = std::fs::read_to_string(dir.join("suite.prof.json")).expect("prof written");
        let stats = relaxreplay::validate_prof_json(&json).expect("valid rr-prof/v1");
        assert_eq!(stats.entries, entries.len());
    }

    #[test]
    fn trace_artifacts_are_written_when_tracing_is_on() {
        let cfg = ExperimentConfig {
            threads: 2,
            size: 1,
            replay: false,
            workers: 2,
            trace: TraceConfig::level(TraceLevel::Intervals),
            ..ExperimentConfig::paper_default()
        };
        let runs = run_suite(&cfg).expect("suite").outputs;
        assert!(runs.iter().all(|o| o.run.trace.is_some()));

        let dir = std::env::temp_dir().join("rr_trace_artifacts_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_sidecars(&dir, "suite", &runs, &cfg, Vec::new()).expect("artifacts");
        let jsonl = std::fs::read_to_string(dir.join("suite.trace.jsonl")).expect("jsonl written");
        assert!(jsonl.lines().count() > 0);
        assert!(jsonl.lines().all(|l| l.contains("\"run\":")));
        let chrome = std::fs::read_to_string(dir.join("suite.trace.json")).expect("json written");
        let stats = relaxreplay::trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
        assert!(stats.events > 0);

        // And no trace files with tracing off.
        let off_cfg = ExperimentConfig {
            trace: TraceConfig::off(),
            ..cfg.clone()
        };
        let off = run_suite(&off_cfg).expect("suite").outputs;
        assert!(off.iter().all(|o| o.run.trace.is_none()));
        let off_dir = std::env::temp_dir().join("rr_trace_artifacts_off_test");
        let _ = std::fs::remove_dir_all(&off_dir);
        write_sidecars(&off_dir, "suite", &off, &off_cfg, Vec::new()).expect("artifacts");
        assert!(off_dir.join("suite.metrics.jsonl").exists());
        assert!(
            !off_dir.join("suite.trace.jsonl").exists(),
            "no traces when off"
        );
        assert!(
            !off_dir.join("suite.trace.json").exists(),
            "no traces when off"
        );
    }
}
