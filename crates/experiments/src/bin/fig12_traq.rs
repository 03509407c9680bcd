//! Figure 12: TRAQ occupancy (average, peak, distribution) and the
//! recording-overhead evidence of §5.3.

use rr_experiments::{figure_main, figures, run_suite, write_sidecars};

fn main() -> std::process::ExitCode {
    figure_main("fig12", |mut cfg, dir| {
        cfg.replay = false;
        let report = run_suite(&cfg)?;
        let runs = &report.outputs;
        figures::fig12(runs).emit(dir, "fig12")?;
        let hist = figures::fig12_histogram(runs, &["fft", "radix", "barnes", "water_nsq"]);
        hist.emit(dir, "fig12_hist")?;
        write_sidecars(dir, "fig12", runs, &cfg, Vec::new())
    })
}
