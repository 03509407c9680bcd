//! Prints Table 1 (architectural parameters of the simulated machine).

use rr_experiments::{figure_main, figures, write_sidecars};
use rr_sim::{JobOutput, MachineConfig, MetricsRegistry, RunResult};

fn main() -> std::process::ExitCode {
    figure_main("table1", |cfg, dir| {
        let machine = MachineConfig::splash_default(cfg.threads);
        figures::table1(&machine).emit(dir, "table1")?;

        // Table 1 runs no simulation; its sidecar records the machine's
        // parameters so downstream tooling sees the campaign configuration.
        let mut metrics = MetricsRegistry::default();
        for (key, value) in [
            ("machine.cores", machine.num_cores),
            ("machine.rob_entries", machine.cpu.rob_entries),
            ("machine.lsq_entries", machine.cpu.lsq_entries),
            ("machine.issue_width", machine.cpu.issue_width),
            ("machine.l1_bytes", machine.mem.l1_bytes),
            ("machine.l2_bytes_per_core", machine.mem.l2_bytes_per_core),
        ] {
            metrics.set(key, value as u64);
        }
        let machine_only = JobOutput {
            job: 0,
            name: "table1".to_string(),
            run: RunResult {
                cycles: 0,
                core_stats: Vec::new(),
                mem_stats: Default::default(),
                recorded: Default::default(),
                variants: Vec::new(),
                clock_ghz: machine.clock_ghz,
                trace: None,
            },
            replays: Vec::new(),
            pressure: Default::default(),
            metrics,
            phases: Default::default(),
        };
        write_sidecars(dir, "table1", &[machine_only], &cfg, Vec::new())
    })
}
