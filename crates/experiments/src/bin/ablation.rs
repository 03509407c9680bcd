//! Ablation studies of RelaxReplay's hardware parameters (the design
//! choices DESIGN.md calls out): Snoop Table size, signature size, TRAQ
//! depth, counting bandwidth, and the NMI field width.
//!
//! Each sweep records the same workloads under custom recorder
//! configurations and reports the recorder-visible consequences. All
//! cells are independent simulations, so the whole ablation matrix runs
//! as one flat parallel sweep.

use std::path::Path;

use relaxreplay::{Design, RecorderConfig};
use rr_cpu::ConsistencyModel;
use rr_experiments::report::{pct, Table};
use rr_experiments::{figure_main, write_sidecars, ExperimentConfig};
use rr_sim::{JobOutput, MachineConfig, ReplayPolicy, SweepJob};
use rr_workloads::by_name;

const WORKLOADS: [&str; 3] = ["fft", "barnes", "radix"];

fn job(
    name: String,
    workload: &str,
    cfg: &ExperimentConfig,
    machine: MachineConfig,
    recorders: Vec<RecorderConfig>,
) -> SweepJob {
    let w = by_name(workload, cfg.threads, cfg.size).expect("known workload");
    SweepJob {
        name,
        programs: w.programs,
        initial_mem: w.initial_mem,
        machine,
        recorders,
        replay: ReplayPolicy::Skip,
        options: rr_sim::RunOptions::default(),
    }
}

fn main() -> std::process::ExitCode {
    figure_main("ablation", |cfg, dir| run(&cfg, dir))
}

fn run(cfg: &ExperimentConfig, dir: &Path) -> Result<(), rr_sim::Error> {
    let machine = MachineConfig::splash_default(cfg.threads).with_trace(cfg.trace);

    const MODELS: [(ConsistencyModel, &str); 3] = [
        (ConsistencyModel::Sc, "sc"),
        (ConsistencyModel::Tso, "tso"),
        (ConsistencyModel::Rc, "rc"),
    ];

    // Build the whole ablation matrix as one job list, in table order.
    let mut jobs = Vec::new();
    for name in WORKLOADS {
        for (model, tag) in MODELS {
            jobs.push(job(
                format!("{name}/consistency/{tag}"),
                name,
                cfg,
                MachineConfig::splash_default(cfg.threads)
                    .with_consistency(model)
                    .with_trace(cfg.trace),
                vec![RecorderConfig::splash_default(Design::Base, Some(4096))],
            ));
        }
    }
    for name in WORKLOADS {
        jobs.push(job(
            format!("{name}/snoop_table"),
            name,
            cfg,
            machine.clone(),
            [8usize, 64, 512]
                .into_iter()
                .map(|entries| RecorderConfig {
                    snoop_entries: entries,
                    ..RecorderConfig::splash_default(Design::Opt, None)
                })
                .collect(),
        ));
    }
    for name in WORKLOADS {
        jobs.push(job(
            format!("{name}/signature"),
            name,
            cfg,
            machine.clone(),
            [64u32, 256, 1024]
                .into_iter()
                .map(|bits| RecorderConfig {
                    sig_bits: bits,
                    ..RecorderConfig::splash_default(Design::Base, None)
                })
                .collect(),
        ));
    }
    for name in WORKLOADS {
        // TRAQ depth changes dispatch stalls, counting bandwidth and the
        // NMI width change filler allocation — all alter TRAQ dynamics, so
        // each configuration must observe its own run: one recorder per
        // core drives every attached variant through one TRAQ, and a
        // session whose variants differ in these parameters is refused
        // (`SimError::MixedTraq`).
        for entries in [44usize, 88, 176] {
            jobs.push(job(
                format!("{name}/traq/{entries}"),
                name,
                cfg,
                machine.clone(),
                vec![RecorderConfig {
                    traq_entries: entries,
                    ..RecorderConfig::splash_default(Design::Base, Some(4096))
                }],
            ));
        }
    }
    for name in WORKLOADS {
        for count in [1usize, 2, 4] {
            jobs.push(job(
                format!("{name}/counting/{count}"),
                name,
                cfg,
                machine.clone(),
                vec![RecorderConfig {
                    count_per_cycle: count,
                    ..RecorderConfig::splash_default(Design::Base, Some(4096))
                }],
            ));
        }
    }
    for name in WORKLOADS {
        for nmi in [3u32, 15, 63] {
            jobs.push(job(
                format!("{name}/nmi/{nmi}"),
                name,
                cfg,
                machine.clone(),
                vec![RecorderConfig {
                    nmi_max: nmi,
                    ..RecorderConfig::splash_default(Design::Base, None)
                }],
            ));
        }
    }

    let report = rr_sim::run_sweep(&jobs, cfg.workers)
        .map_err(|e| rr_sim::Error::from(e).context("ablation sweep"))?;
    eprintln!(
        "ablation sweep: {} runs on {} workers in {:.2}s",
        report.outputs.len(),
        report.workers,
        report.wall_ns as f64 / 1e9
    );
    write_sidecars(dir, "ablation", &report.outputs, cfg, Vec::new())?;
    let mut outs = report.outputs.into_iter();
    let mut take = |n: usize| -> Vec<JobOutput> { outs.by_ref().take(n).collect() };

    // --- Consistency model: the same recorder under SC / TSO / RC -------
    // (the paper's central claim: one design for any model with write
    // atomicity; reordering collapses under stricter models but recording
    // works unchanged).
    let mut t = Table::new(
        "Ablation: consistency model — OOO performed / logged reordered (Base-4K)",
        &["workload", "SC", "TSO", "RC"],
    );
    for name in WORKLOADS {
        let mut cells = vec![name.to_string()];
        for o in take(3) {
            cells.push(format!(
                "{} / {}",
                pct(o.run.ooo_fraction()),
                pct(o.run.variants[0].reordered_fraction())
            ));
        }
        t.row(cells);
    }
    t.emit(dir, "ablation_consistency")?;

    // --- Snoop Table size (Opt-INF): aliasing vs reordered fraction -----
    let mut t = Table::new(
        "Ablation: Snoop Table entries per array (Opt-INF)",
        &["workload", "8", "64 (paper)", "512"],
    );
    for name in WORKLOADS {
        let o = take(1).remove(0);
        t.row(vec![
            name.into(),
            pct(o.run.variants[0].reordered_fraction()),
            pct(o.run.variants[1].reordered_fraction()),
            pct(o.run.variants[2].reordered_fraction()),
        ]);
    }
    t.emit(dir, "ablation_snoop_table")?;

    // --- Signature size (Base-INF): false positives vs intervals --------
    let mut t = Table::new(
        "Ablation: signature bits per bank (Base-INF) — intervals recorded",
        &["workload", "64b", "256b (paper)", "1024b"],
    );
    for name in WORKLOADS {
        let o = take(1).remove(0);
        let intervals = |v: usize| -> u64 {
            o.run.variants[v]
                .logs
                .iter()
                .map(|l| l.intervals() as u64)
                .sum()
        };
        t.row(vec![
            name.into(),
            format!("{}", intervals(0)),
            format!("{}", intervals(1)),
            format!("{}", intervals(2)),
        ]);
    }
    t.emit(dir, "ablation_signature")?;

    // --- TRAQ depth: dispatch stalls and reordered fraction -------------
    let mut t = Table::new(
        "Ablation: TRAQ depth (Base-4K) — stall cycles / reordered",
        &["workload", "44", "88", "176 (paper)"],
    );
    for name in WORKLOADS {
        let mut cells = vec![name.to_string()];
        for o in take(3) {
            let stalls: u64 = o.run.core_stats.iter().map(|s| s.traq_stall_cycles).sum();
            cells.push(format!(
                "{stalls} / {}",
                pct(o.run.variants[0].reordered_fraction())
            ));
        }
        t.row(cells);
    }
    t.emit(dir, "ablation_traq")?;

    // --- Counting bandwidth: TRAQ occupancy ------------------------------
    let mut t = Table::new(
        "Ablation: counting reads per cycle — average TRAQ occupancy",
        &["workload", "1", "2 (paper)", "4"],
    );
    for name in WORKLOADS {
        let mut cells = vec![name.to_string()];
        for o in take(3) {
            let s = &o.run.variants[0].stats;
            let avg = s.iter().map(|x| x.traq_avg()).sum::<f64>() / s.len() as f64;
            cells.push(format!("{avg:.1}"));
        }
        t.row(cells);
    }
    t.emit(dir, "ablation_counting")?;

    // --- NMI width: filler entries vs block sizes ------------------------
    let mut t = Table::new(
        "Ablation: NMI field maximum — InorderBlock entries (Base-INF)",
        &["workload", "nmi<=3", "nmi<=15 (paper)", "nmi<=63"],
    );
    for name in WORKLOADS {
        let mut cells = vec![name.to_string()];
        for o in take(3) {
            cells.push(format!("{}", o.run.variants[0].inorder_blocks()));
        }
        t.row(cells);
    }
    t.emit(dir, "ablation_nmi")?;
    Ok(())
}
