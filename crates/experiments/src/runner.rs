//! Runs the workload suite through the simulator and the replayer,
//! spreading independent simulations over a parallel sweep (`rr-sim`'s
//! sweep engine), and producing everything the individual figures need —
//! including the per-run metrics JSONL sidecars.

use relaxreplay::trace::{TraceConfig, TraceLevel, TraceRing};
use rr_replay::prof::ProfEntry;
use rr_replay::{
    critical_path_blame, divergence_report, prof_json, verify, verify_traced, CostModel,
    ReplayOutcome,
};
use rr_sim::sweep::{default_workers, run_sweep, ReplayPolicy, SweepJob, SweepReport};
use rr_sim::{
    metrics, replay_variant, with_variant_dag, Engine, Error, MachineConfig, MetricsRegistry,
    PhaseNanos, RecorderSpec, RunResult,
};
use rr_workloads::{suite, Workload};

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
    /// recompiling). A flag value that does not parse — a non-numeric
    /// `--workers` or `--replay-workers`, an unknown `--trace` level — is
    /// a usage error: it is printed, naming the flag, and the process
    /// exits with status 2.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Self::paper_default();
        if let Ok(t) = std::env::var("RR_THREADS") {
            if let Ok(t) = t.parse() {
                cfg.threads = t;
            }
        }
        if let Ok(s) = std::env::var("RR_SIZE") {
            if let Ok(s) = s.parse() {
                cfg.size = s;
            }
        }
        if let Ok(w) = std::env::var("RR_WORKERS") {
            if let Ok(w) = w.parse() {
                cfg.workers = w;
            }
        }
        if let Ok(d) = std::env::var("RR_SAVE_LOGS") {
            if !d.is_empty() {
                cfg.save_logs = Some(d);
            }
        }
        if let Ok(d) = std::env::var("RR_REPLAY_FROM") {
            if !d.is_empty() {
                cfg.replay_from = Some(d);
            }
        }
        if let Ok(l) = std::env::var("RR_TRACE") {
            if let Some(level) = TraceLevel::parse(&l) {
                cfg.trace = TraceConfig::level(level);
            }
        }
        if let Ok(p) = std::env::var("RR_PROF") {
            if !p.is_empty() && p != "0" {
                cfg.prof = true;
            }
        }
        if let Ok(w) = std::env::var("RR_REPLAY_WORKERS") {
            if let Ok(w) = w.parse() {
                cfg.replay_workers = Some(w);
            }
        }
        if let Err(e) = cfg.apply_args(std::env::args().skip(1)) {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
        cfg
    }

    /// Applies the command-line flags [`from_env`](Self::from_env) reads,
    /// each as `--flag value` or `--flag=value`; other arguments are left
    /// to the binary.
    ///
    /// # Errors
    ///
    /// A message naming the flag when `--workers` or `--replay-workers`
    /// has no numeric value or `--trace` names no trace level.
    fn apply_args(&mut self, args: impl IntoIterator<Item = String>) -> Result<(), String> {
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if let Some(v) = flag_value("--workers", &a, &mut args) {
                self.workers = number("--workers", v)?;
            } else if let Some(v) = flag_value("--replay-workers", &a, &mut args) {
                self.replay_workers = Some(number("--replay-workers", v)?);
            } else if let Some(v) = flag_value("--trace", &a, &mut args) {
                let level = v.as_deref().and_then(TraceLevel::parse).ok_or_else(|| {
                    format!(
                        "--trace needs one of off|intervals|accesses|full{}",
                        got(v.as_deref())
                    )
                })?;
                self.trace = TraceConfig::level(level);
            } else if let Some(v) = flag_value("--save-logs", &a, &mut args) {
                self.save_logs = v;
            } else if let Some(v) = flag_value("--replay-from", &a, &mut args) {
                self.replay_from = v;
            } else if a == "--prof" {
                self.prof = true;
            }
        }
        Ok(())
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

/// A numeric flag's value, or a message naming the flag.
fn number(flag: &str, value: Option<String>) -> Result<usize, String> {
    let value = value.as_deref();
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number{}", got(value)))
}

/// The rejected value for a usage message; nothing when it is missing.
fn got(value: Option<&str>) -> String {
    value.map_or(String::new(), |v| format!(", got {v:?}"))
}

/// One workload's complete results: the recorded run (with all four
/// recorder variants), per-variant verified replay outcomes, and the
/// run's deterministic metrics plus host phase timings.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Workload name.
    pub name: &'static str,
    /// Label used in metrics sidecars (equals `name` unless the run is
    /// part of a larger sweep, e.g. `fft@16c` in the scalability sweep).
    pub label: String,
    /// The recorded execution and per-variant logs/stats.
    pub record: RunResult,
    /// Replay outcomes, parallel to `record.variants` (empty if replay was
    /// disabled).
    pub replays: Vec<ReplayOutcome>,
    /// Deterministic per-run counters and histograms.
    pub metrics: MetricsRegistry,
    /// Host wall-clock per phase (record / patch / replay / verify).
    pub phases: PhaseNanos,
}

/// A suite run plus the sweep's execution envelope (worker count and
/// wall-clock), for harnesses that report throughput.
#[derive(Debug)]
pub struct SuiteRun {
    /// One entry per workload, in suite order.
    pub runs: Vec<WorkloadRun>,
    /// Workers the sweep actually used.
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole sweep.
    pub wall_ns: u64,
}

/// The recorder variants, in the order used by every figure:
/// `Base-4K, Opt-4K, Base-INF, Opt-INF`.
#[must_use]
pub fn variant_specs() -> Vec<RecorderSpec> {
    RecorderSpec::paper_matrix()
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

/// Records (and optionally replays + verifies) the entire workload suite,
/// one sweep job per workload, returning runs plus sweep timing.
///
/// # Errors
///
/// Returns the first sweep failure (a recording deadlock or a replay
/// verification mismatch — either a correctness bug, not an experiment
/// outcome) or a `--save-logs` write failure.
pub fn run_suite_timed(cfg: &ExperimentConfig) -> Result<SuiteRun, Error> {
    let machine = MachineConfig::splash_default(cfg.threads).with_trace(cfg.trace);
    sweep_suite(
        cfg,
        suite(cfg.threads, cfg.size),
        |_| machine.clone(),
        "sweep",
    )
}

/// One sweep job per workload, on the machine `machine` picks for it,
/// under the configured replay policy; saves the runs when
/// `--save-logs` asks. `what` names the sweep in its error.
fn sweep_suite(
    cfg: &ExperimentConfig,
    workloads: Vec<Workload>,
    machine: impl Fn(&Workload) -> MachineConfig,
    what: &str,
) -> Result<SuiteRun, Error> {
    let specs = variant_specs();
    let names: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
    let jobs: Vec<SweepJob> = workloads
        .into_iter()
        .map(|w| {
            let machine = machine(&w);
            SweepJob::from_specs(
                w.name,
                w.programs,
                w.initial_mem,
                machine,
                &specs,
                replay_policy(cfg),
            )
        })
        .collect();
    let report = run_sweep(&jobs, cfg.workers).map_err(|e| Error::from(e).context(what))?;
    save_report_logs(cfg, &report)?;
    Ok(report_to_suite(report, &names))
}

/// Saves every run of a sweep into the `cfg.save_logs` store — a local
/// directory or a remote `rr://` log service (no-op when unset).
fn save_report_logs(cfg: &ExperimentConfig, report: &SweepReport) -> Result<(), Error> {
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
    Ok(())
}

/// [`run_suite_timed`] without the envelope — the shape every figure
/// helper consumes.
///
/// # Errors
///
/// As [`run_suite_timed`].
pub fn run_suite(cfg: &ExperimentConfig) -> Result<Vec<WorkloadRun>, Error> {
    Ok(run_suite_timed(cfg)?.runs)
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
/// As [`run_suite_timed`].
pub fn run_corpus_suite(cfg: &ExperimentConfig) -> Result<Vec<WorkloadRun>, Error> {
    let machine =
        |w: &Workload| MachineConfig::splash_default(w.programs.len()).with_trace(cfg.trace);
    Ok(sweep_suite(cfg, rr_workloads::corpus_suite(), machine, "corpus sweep")?.runs)
}

fn report_to_suite(report: SweepReport, names: &[&'static str]) -> SuiteRun {
    let workers = report.workers;
    let wall_ns = report.wall_ns;
    let runs = report
        .outputs
        .into_iter()
        .zip(names)
        .map(|(o, name)| WorkloadRun {
            name,
            label: o.name,
            record: o.run,
            replays: o.replays,
            metrics: o.metrics,
            phases: o.phases,
        })
        .collect();
    SuiteRun {
        runs,
        workers,
        wall_ns,
    }
}

/// Records the suite at several core counts (Figure 14) in one flat
/// parallel sweep. Returns `(cores, runs)` pairs. Replay is skipped
/// (Figure 14 is about recording).
///
/// # Errors
///
/// As [`run_suite_timed`].
pub fn run_scalability(
    cfg: &ExperimentConfig,
    core_counts: &[usize],
) -> Result<Vec<(usize, Vec<WorkloadRun>)>, Error> {
    let specs = variant_specs();
    let mut jobs = Vec::new();
    let mut names = Vec::new();
    for &cores in core_counts {
        let machine = MachineConfig::splash_default(cores).with_trace(cfg.trace);
        for w in suite(cores, cfg.size) {
            names.push((cores, w.name));
            jobs.push(SweepJob::from_specs(
                format!("{}@{cores}c", w.name),
                w.programs,
                w.initial_mem,
                machine.clone(),
                &specs,
                ReplayPolicy::Skip,
            ));
        }
    }
    let report = run_sweep(&jobs, cfg.workers).map_err(|e| Error::from(e).context("sweep"))?;
    save_report_logs(cfg, &report)?;

    let workloads: Vec<&'static str> = names.iter().map(|&(_, name)| name).collect();
    let runs = report_to_suite(report, &workloads).runs;
    let mut grouped: Vec<(usize, Vec<WorkloadRun>)> =
        core_counts.iter().map(|&c| (c, Vec::new())).collect();
    for (run, &(cores, _)) in runs.into_iter().zip(&names) {
        let slot = grouped
            .iter_mut()
            .find(|(c, _)| *c == cores)
            .expect("core count present");
        slot.1.push(run);
    }
    Ok(grouped)
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
        .map(|w| if w == 0 { default_workers() } else { w });
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

/// Writes the event-trace artifacts for a set of runs next to the metrics
/// sidecars: `<slug>.trace.jsonl` (one JSON object per trace record,
/// every run concatenated) and `<slug>.trace.json` (Chrome trace-event
/// format — open it in Perfetto or `chrome://tracing`, one track per
/// core plus a coherence/replay track per run).
///
/// A no-op unless tracing was enabled (`--trace` / `RR_TRACE`) and at
/// least one run carries a trace.
///
/// # Errors
///
/// Returns the write failure — the artifact was explicitly requested.
pub fn write_trace_artifacts(
    dir: &std::path::Path,
    slug: &str,
    runs: &[WorkloadRun],
) -> Result<(), Error> {
    let traced: Vec<(String, &relaxreplay::RunTrace)> = runs
        .iter()
        .filter_map(|r| r.record.trace.as_ref().map(|t| (r.label.clone(), t)))
        .collect();
    write_trace_pairs(dir, slug, &traced)
}

/// As [`write_trace_artifacts`], but over pre-labelled `(run, trace)`
/// pairs — for harnesses (ablation, parallel replay) that drive sweeps
/// directly instead of going through [`run_suite`]. No-op on an empty
/// slice.
///
/// # Errors
///
/// Returns the write failure — the artifact was explicitly requested.
pub fn write_trace_pairs(
    dir: &std::path::Path,
    slug: &str,
    traced: &[(String, &relaxreplay::RunTrace)],
) -> Result<(), Error> {
    if traced.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::from(e).context(format!("create {}", dir.display())))?;
    let mut jsonl = String::new();
    for (label, trace) in traced {
        jsonl.push_str(&trace.to_jsonl(label));
    }
    let jsonl_path = dir.join(format!("{slug}.trace.jsonl"));
    std::fs::write(&jsonl_path, jsonl)
        .map_err(|e| Error::from(e).context(format!("write {}", jsonl_path.display())))?;
    let chrome_path = dir.join(format!("{slug}.trace.json"));
    std::fs::write(&chrome_path, relaxreplay::trace::chrome_trace(traced))
        .map_err(|e| Error::from(e).context(format!("write {}", chrome_path.display())))?;
    eprintln!(
        "trace artifacts: {} and {} ({} run(s), {} record(s))",
        jsonl_path.display(),
        chrome_path.display(),
        traced.len(),
        traced.iter().map(|(_, t)| t.total_records()).sum::<usize>()
    );
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

/// Builds the critical-path blame entries for a set of runs: one
/// [`rr_replay::ProfEntry`] per run × recorder variant, with the DAG
/// built from the variant's recorded partial order.
///
/// # Errors
///
/// Returns the first patch or DAG-construction failure (a correctness
/// bug — recorded logs always patch and order).
pub fn prof_entries(runs: &[WorkloadRun], cost: &CostModel) -> Result<Vec<ProfEntry>, Error> {
    let mut entries = Vec::new();
    for r in runs {
        for v in &r.record.variants {
            let at = |stage: &str| format!("{} [{}]: {stage}", r.label, v.spec.label());
            let blame = with_variant_dag(&v.logs, Some(&v.ordering), None, |dag| {
                critical_path_blame(dag, cost)
            })
            .map_err(|e| e.into_error(at, "dag failed"))?;
            entries.push(ProfEntry {
                run: r.label.clone(),
                variant: v.spec.label(),
                blame,
                engine: None,
            });
        }
    }
    Ok(entries)
}

/// Writes the `<slug>.prof.json` profiling sidecar (schema `rr-prof/v1`)
/// for a set of runs: critical-path blame per run × variant, next to the
/// metrics sidecars. Call when `cfg.prof` is set; a no-op on an empty
/// run set. Measured engine timelines are the `rr-inspect prof` command's
/// job — this sidecar carries the modeled blame every figure binary can
/// produce without re-replaying.
///
/// # Errors
///
/// Returns the first blame-construction or write failure — the artifact
/// was explicitly requested.
pub fn write_prof_artifacts(
    dir: &std::path::Path,
    slug: &str,
    runs: &[WorkloadRun],
    cost: &CostModel,
) -> Result<(), Error> {
    let entries = prof_entries(runs, cost)?;
    write_prof_pairs(dir, slug, &entries)
}

/// As [`write_prof_artifacts`], but over pre-built entries — for
/// harnesses that attach measured [`relaxreplay::prof::EngineProf`]
/// timelines or drive sweeps directly. No-op on an empty slice.
///
/// # Errors
///
/// Returns the write failure — the artifact was explicitly requested.
pub fn write_prof_pairs(
    dir: &std::path::Path,
    slug: &str,
    entries: &[ProfEntry],
) -> Result<(), Error> {
    if entries.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::from(e).context(format!("create {}", dir.display())))?;
    let path = dir.join(format!("{slug}.prof.json"));
    std::fs::write(&path, prof_json(entries))
        .map_err(|e| Error::from(e).context(format!("write {}", path.display())))?;
    let with_engine = entries.iter().filter(|e| e.engine.is_some()).count();
    eprintln!(
        "prof artifacts: {} ({} entr{}, {with_engine} with engine timelines)",
        path.display(),
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" },
    );
    Ok(())
}

/// Renders every run's metrics as JSONL, one line per run — the sidecar
/// every experiments binary writes next to its CSV.
#[must_use]
pub fn metrics_jsonl(runs: &[WorkloadRun]) -> String {
    let mut out = String::new();
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&metrics::jsonl_object(&r.label, i, &r.metrics, &r.phases));
        out.push('\n');
    }
    out
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
                .map(|()| cfg)
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
    fn tiny_suite_runs_in_parallel_and_keeps_order() {
        let cfg = ExperimentConfig {
            threads: 2,
            size: 1,
            replay: false,
            workers: 4,
            ..ExperimentConfig::paper_default()
        };
        let suite_run = run_suite_timed(&cfg).expect("suite");
        assert_eq!(suite_run.runs.len(), 12);
        assert_eq!(suite_run.runs[0].name, "fft");
        assert!(suite_run.workers >= 1);
        for r in &suite_run.runs {
            assert_eq!(r.label, r.name);
            assert!(r.metrics.counter("cpu.retired") > 0, "{}", r.name);
            assert!(r.phases.record > 0, "{}", r.name);
        }
        let jsonl = metrics_jsonl(&suite_run.runs);
        assert_eq!(jsonl.lines().count(), 12);
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
        let runs = run_suite(&cfg).expect("suite");
        let entries = prof_entries(&runs, &cfg.cost).expect("blame");
        assert_eq!(entries.len(), runs.len() * variant_specs().len());
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
        write_prof_artifacts(&dir, "suite", &runs, &cfg.cost).expect("artifacts");
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
        let runs = run_suite(&cfg).expect("suite");
        assert!(runs.iter().all(|r| r.record.trace.is_some()));

        let dir = std::env::temp_dir().join("rr_trace_artifacts_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_trace_artifacts(&dir, "suite", &runs).expect("artifacts");
        let jsonl = std::fs::read_to_string(dir.join("suite.trace.jsonl")).expect("jsonl written");
        assert!(jsonl.lines().count() > 0);
        assert!(jsonl.lines().all(|l| l.contains("\"run\":")));
        let chrome = std::fs::read_to_string(dir.join("suite.trace.json")).expect("json written");
        let stats = relaxreplay::trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
        assert!(stats.events > 0);

        // And a strict no-op with tracing off.
        let off = run_suite(&ExperimentConfig {
            trace: TraceConfig::off(),
            ..cfg.clone()
        })
        .expect("suite");
        assert!(off.iter().all(|r| r.record.trace.is_none()));
        let off_dir = std::env::temp_dir().join("rr_trace_artifacts_off_test");
        let _ = std::fs::remove_dir_all(&off_dir);
        write_trace_artifacts(&off_dir, "suite", &off).expect("artifacts");
        assert!(!off_dir.exists(), "no artifacts when tracing is off");
    }
}
