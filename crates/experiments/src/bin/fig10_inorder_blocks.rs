//! Figure 10: InorderBlock entry counts, Opt normalized to Base.

use rr_experiments::{figure_main, figures, run_suite, write_sidecars};

fn main() -> std::process::ExitCode {
    figure_main("fig10", |mut cfg, dir| {
        cfg.replay = false;
        let report = run_suite(&cfg)?;
        figures::fig10(&report.outputs).emit(dir, "fig10")?;
        write_sidecars(dir, "fig10", &report.outputs, &cfg, Vec::new())
    })
}
