//! Extension experiment (paper §3.6, §5.4 closing remark): parallel replay
//! speedup when RelaxReplay's intervals are ordered by the recorded
//! partial order instead of the QuickRec total order. Compares snoopy
//! (broadcast observers ⇒ conservative edges) against directory coherence
//! (filtered observers ⇒ real parallelism). Recording runs as one
//! parallel sweep (one job per workload × coherence mode).
//!
//! Two speedup columns per workload × coherence mode:
//!
//! * **modeled** — the cost-model list schedule's makespan ratio
//!   (`total_work / makespan`) at `--threads` replay cores, a pure
//!   function of the interval DAG. Host-independent; this is the paper's
//!   metric.
//! * **measured wN** — wall-clock speedup of the multithreaded replay
//!   engine at N OS workers, relative to the same engine at one worker
//!   (best of 3 repetitions, outcome verified every time). Tracks the
//!   modeled bound only when the host actually has N hardware threads —
//!   on a smaller host the extra workers time-slice one core and the
//!   column reports ≈1× or below; the printed `host cpus` line makes
//!   that legible.
//!
//! Both columns, and the `--prof` entries, come from
//! `rr_experiments::replay_scaling`, the measurement behind
//! `fig13_replay`'s scaling table too.

use std::path::Path;

use rr_experiments::report::{f2, Table};
use rr_experiments::{figure_main, replay_scaling, write_sidecars, ExperimentConfig, SCALING_REPS};
use rr_replay::CostModel;
use rr_sim::{host_parallelism, run_sweep, MachineConfig, RecorderSpec, ReplayPolicy, SweepJob};
use rr_workloads::suite;

fn main() -> std::process::ExitCode {
    figure_main("parallel_replay", run)
}

fn run(cfg: ExperimentConfig, dir: &Path) -> Result<(), rr_sim::Error> {
    let specs = vec![RecorderSpec {
        design: relaxreplay::Design::Opt,
        max_interval: Some(4096),
    }];
    let snoopy = MachineConfig::splash_default(cfg.threads).with_trace(cfg.trace);
    let directory = MachineConfig::splash_default(cfg.threads)
        .with_directory()
        .with_trace(cfg.trace);

    let workloads = suite(cfg.threads, cfg.size);
    let jobs: Vec<SweepJob> = workloads
        .iter()
        .flat_map(|w| {
            [("snoopy", &snoopy), ("directory", &directory)]
                .into_iter()
                .map(|(mode, machine)| {
                    SweepJob::from_specs(
                        format!("{}@{mode}", w.name),
                        w.programs.clone(),
                        w.initial_mem.clone(),
                        machine.clone(),
                        &specs,
                        ReplayPolicy::Skip,
                    )
                })
        })
        .collect();
    let report = run_sweep(&jobs, cfg.workers)
        .map_err(|e| rr_sim::Error::from(e).context("parallel-replay sweep"))?;

    let host_cpus = host_parallelism();
    let mut t = Table::new(
        &format!(
            "Extension: parallel replay on {} replay cores (Opt-4K, verified; host cpus {host_cpus})",
            cfg.threads
        ),
        &[
            "workload",
            "mode",
            "modeled x",
            "meas w1 ms",
            "meas w2 x",
            "meas w4 x",
            "meas w8 x",
        ],
    );
    let (mut ss, mut sd) = (0.0, 0.0);
    let mut measured = Vec::new();
    // Jobs alternate snoopy, directory per workload, as built above.
    for (w, pair) in workloads.iter().zip(report.outputs.chunks(2)) {
        for (mode, o) in ["snoopy", "directory"].into_iter().zip(pair) {
            let s = replay_scaling(
                &o.name,
                w,
                &o.run,
                0,
                &CostModel::splash_default(),
                cfg.threads,
                cfg.prof.then_some(cfg.threads),
            )?;
            match mode {
                "snoopy" => ss += s.modeled,
                _ => sd += s.modeled,
            }
            let mut row = vec![w.name.into(), mode.into()];
            row.extend(s.cells());
            t.row(row);
            measured.extend(s.prof);
        }
    }
    let n = workloads.len() as f64;
    t.row(vec![
        "AVERAGE modeled".into(),
        "snoopy/dir".into(),
        format!("{} / {}", f2(ss / n), f2(sd / n)),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.emit(dir, "parallel_replay")?;
    println!(
        "measured columns are wall-clock (best of {SCALING_REPS}); with {host_cpus} host \
         cpu(s) the engine can exploit at most {host_cpus}-way parallelism, so measured \
         scaling beyond that reflects scheduling overhead, not the DAG"
    );
    write_sidecars(dir, "parallel_replay", &report.outputs, &cfg, measured)
}
