//! Figure 13: sequential replay time relative to parallel recording,
//! plus a replay-engine scaling table on the same runs (Opt-4K, every
//! outcome verified): the modeled speedup of the cost-model list
//! schedule next to measured wall-clock of the multithreaded DAG
//! executor at 1/2/4/8 workers, best of 3 (`rr_experiments::scaling`).
//! The scaling table lands in `results/fig13-scaling.csv`; measured
//! speedup tracks the host's actual core count, while the modeled column
//! is the host-independent makespan bound.

use rr_experiments::report::Table;
use rr_experiments::{
    figure_main, figures, replay_scaling, run_corpus_suite, run_suite, write_sidecars,
    ExperimentConfig,
};
use rr_replay::prof::ProfEntry;
use rr_sim::{host_parallelism, JobOutput};

/// Opt-4K's index in the `RecorderSpec::paper_matrix()` variant order.
const OPT_4K: usize = 1;

/// The scaling table over every run's Opt-4K variant. With `--prof`, also
/// each run's Opt-4K prof entry carrying a measured engine timeline at
/// `--threads` workers.
fn scaling(
    runs: &[JobOutput],
    cfg: &ExperimentConfig,
) -> Result<(Table, Vec<ProfEntry>), rr_sim::Error> {
    let mut t = Table::new(
        &format!(
            "Replay-engine scaling (Opt-4K, verified; host cpus {})",
            host_parallelism()
        ),
        &["workload", "modeled x", "w1 ms", "w2 x", "w4 x", "w8 x"],
    );
    let mut measured = Vec::new();
    for r in runs {
        let threads = r.run.variants[OPT_4K].logs.len();
        // Regenerate the workload by name — generators are deterministic,
        // so `(name, threads, size)` reproduces the recorded programs and
        // initial memory exactly (same contract as `--replay-from`).
        let w = rr_workloads::by_name(&r.name, threads, cfg.size)
            .ok_or_else(|| rr_sim::Error::msg(format!("{}: unknown workload", r.name)))?;
        let s = replay_scaling(
            &r.name,
            &w,
            &r.run,
            OPT_4K,
            &cfg.cost,
            threads,
            cfg.prof.then_some(cfg.threads),
        )?;
        let mut row = vec![r.name.clone()];
        row.extend(s.cells());
        t.row(row);
        measured.extend(s.prof);
    }
    Ok((t, measured))
}

fn main() -> std::process::ExitCode {
    // Replay is enabled by default: Figure 13 needs the outcomes.
    figure_main("fig13", |cfg, dir| {
        let report = run_suite(&cfg)?;
        let runs = &report.outputs;
        figures::fig13(runs).emit(dir, "fig13")?;
        let (scaling, measured) = scaling(runs, &cfg)?;
        write_sidecars(dir, "fig13", runs, &cfg, measured)?;
        scaling.emit(dir, "fig13-scaling")?;

        // Corpus shapes replay under the same policy; reported separately
        // so the paper's SPLASH-2 ratios stay comparable to the original
        // figure.
        let corpus = run_corpus_suite(&cfg)?;
        figures::fig13_corpus(&corpus.outputs).emit(dir, "fig13-corpus")?;
        write_sidecars(dir, "fig13-corpus", &corpus.outputs, &cfg, Vec::new())
    })
}
