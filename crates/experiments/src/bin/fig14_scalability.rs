//! Figure 14: recording behaviour at 4, 8 and 16 cores.

use rr_experiments::{figure_main, figures, run_scalability, write_sidecars};

fn main() -> std::process::ExitCode {
    figure_main("fig14", |cfg, dir| {
        let report = run_scalability(&cfg, &[4, 8, 16])?;
        figures::fig14(&report.outputs).emit(dir, "fig14")?;
        write_sidecars(dir, "fig14", &report.outputs, &cfg, Vec::new())
    })
}
