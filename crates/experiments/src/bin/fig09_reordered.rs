//! Figure 9: fraction of memory accesses logged as reordered.

use rr_experiments::{figure_main, figures, run_suite, write_sidecars};

fn main() -> std::process::ExitCode {
    figure_main("fig09", |mut cfg, dir| {
        cfg.replay = false;
        let report = run_suite(&cfg)?;
        figures::fig09(&report.outputs).emit(dir, "fig09")?;
        write_sidecars(dir, "fig09", &report.outputs, &cfg, Vec::new())
    })
}
