//! Figure 11: uncompressed log size and log bandwidth.

use rr_experiments::{figure_main, figures, run_corpus_suite, run_suite, write_sidecars};

fn main() -> std::process::ExitCode {
    figure_main("fig11", |mut cfg, dir| {
        cfg.replay = false;
        let report = run_suite(&cfg)?;
        figures::fig11(&report.outputs).emit(dir, "fig11")?;
        write_sidecars(dir, "fig11", &report.outputs, &cfg, Vec::new())?;

        // The data-structure corpus gets its own table so the paper's
        // SPLASH-2 AVERAGE row stays comparable to the original figure.
        let corpus = run_corpus_suite(&cfg)?;
        figures::fig11_corpus(&corpus.outputs).emit(dir, "fig11-corpus")?;
        write_sidecars(dir, "fig11-corpus", &corpus.outputs, &cfg, Vec::new())
    })
}
