//! Regenerates every table and figure of the paper's evaluation from one
//! set of recorded executions (plus the separate scalability sweep), and
//! writes CSVs plus the sidecars to the results directory.

use rr_experiments::{figure_main, figures, run_scalability, run_suite, write_sidecars};
use rr_sim::MachineConfig;

fn main() -> std::process::ExitCode {
    figure_main("all_figures", |cfg, dir| {
        eprintln!(
            "running the suite: {} cores, size {}, {} sweep workers \
             (override with RR_THREADS / RR_SIZE / --workers N)",
            cfg.threads,
            cfg.size,
            if cfg.workers == 0 {
                "host".to_string()
            } else {
                cfg.workers.to_string()
            }
        );
        figures::table1(&MachineConfig::splash_default(cfg.threads)).emit(dir, "table1")?;

        let report = run_suite(&cfg)?;
        eprintln!(
            "suite sweep: {} runs on {} workers in {:.2}s",
            report.outputs.len(),
            report.workers,
            report.wall_ns as f64 / 1e9
        );
        let runs = &report.outputs;
        for (t, slug) in [
            (figures::fig01(runs), "fig01"),
            (figures::fig09(runs), "fig09"),
            (figures::fig10(runs), "fig10"),
            (figures::fig11(runs), "fig11"),
            (figures::fig12(runs), "fig12"),
            (
                figures::fig12_histogram(runs, &["fft", "radix", "barnes", "water_nsq"]),
                "fig12_hist",
            ),
            (figures::fig13(runs), "fig13"),
        ] {
            t.emit(dir, slug)?;
        }
        write_sidecars(dir, "all_figures", runs, &cfg, Vec::new())?;

        eprintln!("running the scalability sweep (4/8/16 cores)...");
        let scal = run_scalability(&cfg, &[4, 8, 16])?;
        figures::fig14(&scal.outputs).emit(dir, "fig14")?;
        write_sidecars(dir, "fig14", &scal.outputs, &cfg, Vec::new())?;

        figures::summary(runs).emit(dir, "summary")?;
        eprintln!("CSVs and sidecars written to {}", dir.display());
        Ok(())
    })
}
