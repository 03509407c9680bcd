//! Figure 1: fraction of memory accesses performed out of program order.

use rr_experiments::{figure_main, figures, run_suite, write_sidecars};

fn main() -> std::process::ExitCode {
    figure_main("fig01", |mut cfg, dir| {
        cfg.replay = false;
        let report = run_suite(&cfg)?;
        figures::fig01(&report.outputs).emit(dir, "fig01")?;
        write_sidecars(dir, "fig01", &report.outputs, &cfg, Vec::new())
    })
}
