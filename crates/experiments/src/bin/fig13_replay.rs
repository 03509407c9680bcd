//! Figure 13: sequential replay time relative to parallel recording,
//! plus a replay-engine scaling table — measured wall-clock of the
//! multithreaded DAG executor at 1/2/4/8 workers on the same runs
//! (Opt-4K, every outcome verified). The scaling table lands in
//! `results/fig13-scaling.csv`; measured speedup tracks the host's
//! actual core count, while the modeled column is the list scheduler's
//! host-independent makespan bound.

use std::time::Instant;

use relaxreplay::EngineProf;
use rr_experiments::report::{f2, results_dir, write_metrics_jsonl, Table};
use rr_experiments::{
    figures, metrics_jsonl, prof_entries, run_corpus_suite, run_suite, write_prof_artifacts,
    write_prof_pairs, write_trace_artifacts, ExperimentConfig, WorkloadRun,
};
use rr_replay::prof::ProfEntry;
use rr_replay::{
    patch, replay_parallel, replay_threaded, replay_threaded_probed, verify, CostModel,
};

/// Worker counts for the measured scaling columns.
const SCALING_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Opt-4K's index in the `RecorderSpec::paper_matrix()` variant order.
const OPT_4K: usize = 1;

fn scaling_table(runs: &[WorkloadRun], size: u32) -> Result<Table, rr_sim::Error> {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut t = Table::new(
        &format!("Replay-engine scaling (Opt-4K, verified; host cpus {host_cpus})"),
        &["workload", "modeled x", "w1 ms", "w2 x", "w4 x", "w8 x"],
    );
    let cost = CostModel::splash_default();
    for r in runs {
        let v = &r.record.variants[OPT_4K];
        let at = |stage: &str| format!("{} [{}]: {stage}", r.name, v.spec.label());
        let patched: Vec<_> = v
            .logs
            .iter()
            .map(patch)
            .collect::<Result<_, _>>()
            .map_err(|e| rr_sim::Error::from(e).context(at("patch failed")))?;
        // Regenerate the workload by name — generators are deterministic,
        // so `(name, threads, size)` reproduces the recorded programs and
        // initial memory exactly (same contract as `--replay-from`).
        let w = rr_workloads::by_name(r.name, v.logs.len(), size)
            .ok_or_else(|| rr_sim::Error::msg(at("unknown workload")))?;
        let modeled = replay_parallel(
            &w.programs,
            &patched,
            &v.ordering,
            w.initial_mem.clone(),
            &cost,
            v.logs.len(),
        )
        .map_err(|e| rr_sim::Error::from(e).context(at("modeled replay failed")))?
        .speedup();
        let mut secs = Vec::with_capacity(SCALING_WORKERS.len());
        for &workers in &SCALING_WORKERS {
            let start = Instant::now();
            let outcome = replay_threaded(
                &w.programs,
                &patched,
                &v.ordering,
                w.initial_mem.clone(),
                &cost,
                workers,
            )
            .map_err(|e| {
                rr_sim::Error::from(e).context(at(&format!("threaded replay (w={workers})")))
            })?;
            secs.push(start.elapsed().as_secs_f64());
            verify(&r.record.recorded, &outcome).map_err(|e| {
                rr_sim::Error::from(e).context(at(&format!("threaded verify (w={workers})")))
            })?;
        }
        t.row(vec![
            r.name.to_string(),
            f2(modeled),
            format!("{:.3}", secs[0] * 1e3),
            f2(secs[0] / secs[1]),
            f2(secs[0] / secs[2]),
            f2(secs[0] / secs[3]),
        ]);
    }
    Ok(t)
}

/// Blame entries for every run × variant, with a measured engine
/// timeline (span-instrumented threaded replay, verified) attached to
/// each Opt-4K entry.
fn profiled_entries(
    runs: &[WorkloadRun],
    cfg: &ExperimentConfig,
) -> Result<Vec<ProfEntry>, rr_sim::Error> {
    let mut entries = prof_entries(runs, &cfg.cost)?;
    let variants = runs.first().map_or(0, |r| r.record.variants.len());
    for (i, r) in runs.iter().enumerate() {
        let v = &r.record.variants[OPT_4K];
        let at = |stage: &str| format!("{} [{}]: {stage}", r.name, v.spec.label());
        let patched: Vec<_> = v
            .logs
            .iter()
            .map(patch)
            .collect::<Result<_, _>>()
            .map_err(|e| rr_sim::Error::from(e).context(at("patch failed")))?;
        let w = rr_workloads::by_name(r.name, v.logs.len(), cfg.size)
            .ok_or_else(|| rr_sim::Error::msg(at("unknown workload")))?;
        let mut engine = EngineProf::default();
        let outcome = replay_threaded_probed(
            &w.programs,
            &patched,
            Some(&v.ordering),
            w.initial_mem.clone(),
            &cfg.cost,
            cfg.threads,
            &mut engine,
        )
        .map_err(|e| rr_sim::Error::from(e).context(at("profiled replay failed")))?;
        verify(&r.record.recorded, &outcome)
            .map_err(|e| rr_sim::Error::from(e).context(at("profiled verify failed")))?;
        entries[i * variants + OPT_4K].engine = Some(engine);
    }
    Ok(entries)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig13: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), rr_sim::Error> {
    let cfg = ExperimentConfig::from_env(); // replay enabled by default
    if rr_experiments::handle_replay_from(&cfg)? {
        return Ok(());
    }
    let runs = run_suite(&cfg)?;
    let t = figures::fig13(&runs);
    t.print();
    let dir = results_dir();
    t.write_csv(&dir, "fig13")?;
    write_metrics_jsonl(&dir, "fig13", &metrics_jsonl(&runs))?;
    write_trace_artifacts(&dir, "fig13", &runs)?;
    if cfg.prof {
        write_prof_pairs(&dir, "fig13", &profiled_entries(&runs, &cfg)?)?;
    }

    let ts = scaling_table(&runs, cfg.size)?;
    ts.print();
    ts.write_csv(&dir, "fig13-scaling")?;

    // Corpus shapes replay under the same policy; reported separately so
    // the paper's SPLASH-2 ratios stay comparable to the original figure.
    let corpus = run_corpus_suite(&cfg)?;
    let tc = figures::fig13_corpus(&corpus);
    tc.print();
    tc.write_csv(&dir, "fig13-corpus")?;
    write_metrics_jsonl(&dir, "fig13-corpus", &metrics_jsonl(&corpus))?;
    write_trace_artifacts(&dir, "fig13-corpus", &corpus)?;
    if cfg.prof {
        write_prof_artifacts(&dir, "fig13-corpus", &corpus, &cfg.cost)?;
    }
    Ok(())
}
