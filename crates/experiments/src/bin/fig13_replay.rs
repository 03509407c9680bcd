//! Figure 13: sequential replay time relative to parallel recording,
//! plus a replay-engine scaling table on the same runs (Opt-4K, every
//! outcome verified): the modeled speedup of the cost-model list
//! schedule next to measured wall-clock of the multithreaded DAG
//! executor at 1/2/4/8 workers, best of 3 (`rr_experiments::scaling`).
//! The scaling table lands in `results/fig13-scaling.csv`; measured
//! speedup tracks the host's actual core count, while the modeled column
//! is the host-independent makespan bound.

use rr_experiments::report::{results_dir, write_metrics_jsonl, Table};
use rr_experiments::{
    figures, metrics_jsonl, prof_entries, replay_scaling, run_corpus_suite, run_suite,
    write_prof_artifacts, write_prof_pairs, write_trace_artifacts, ExperimentConfig, WorkloadRun,
};
use rr_replay::prof::ProfEntry;

/// Opt-4K's index in the `RecorderSpec::paper_matrix()` variant order.
const OPT_4K: usize = 1;

/// The scaling table over every run's Opt-4K variant. With `--prof`, also
/// the blame entries for every run × variant, each Opt-4K entry carrying
/// a measured engine timeline at `--threads` workers.
fn scaling(
    runs: &[WorkloadRun],
    cfg: &ExperimentConfig,
) -> Result<(Table, Vec<ProfEntry>), rr_sim::Error> {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut t = Table::new(
        &format!("Replay-engine scaling (Opt-4K, verified; host cpus {host_cpus})"),
        &["workload", "modeled x", "w1 ms", "w2 x", "w4 x", "w8 x"],
    );
    let mut entries = if cfg.prof {
        prof_entries(runs, &cfg.cost)?
    } else {
        Vec::new()
    };
    let variants = runs.first().map_or(0, |r| r.record.variants.len());
    for (i, r) in runs.iter().enumerate() {
        let threads = r.record.variants[OPT_4K].logs.len();
        // Regenerate the workload by name — generators are deterministic,
        // so `(name, threads, size)` reproduces the recorded programs and
        // initial memory exactly (same contract as `--replay-from`).
        let w = rr_workloads::by_name(r.name, threads, cfg.size)
            .ok_or_else(|| rr_sim::Error::msg(format!("{}: unknown workload", r.name)))?;
        let s = replay_scaling(
            &r.label,
            &w,
            &r.record,
            OPT_4K,
            &cfg.cost,
            threads,
            cfg.prof.then_some(cfg.threads),
        )?;
        let mut row = vec![r.name.to_string()];
        row.extend(s.cells());
        t.row(row);
        if let Some(entry) = s.prof {
            entries[i * variants + OPT_4K] = entry;
        }
    }
    Ok((t, entries))
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

    let (ts, prof) = scaling(&runs, &cfg)?;
    write_prof_pairs(&dir, "fig13", &prof)?;
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
