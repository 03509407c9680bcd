//! # rr-experiments — regenerating every table and figure of the paper
//!
//! One module per experiment, mirroring the paper's evaluation (§5):
//!
//! | item | function / binary | paper result reproduced |
//! |------|-------------------|-------------------------|
//! | Table 1 | [`figures::table1`] / `table1` | architectural parameters |
//! | Figure 1 | [`figures::fig01`] / `fig01_ooo_fraction` | fraction of memory accesses performed out of order |
//! | Figure 9 | [`figures::fig09`] / `fig09_reordered` | fraction of accesses logged as reordered |
//! | Figure 10 | [`figures::fig10`] / `fig10_inorder_blocks` | number of InorderBlock entries, Opt vs Base |
//! | Figure 11 | [`figures::fig11`] / `fig11_log_size` | log size in bits/kilo-instruction and MB/s |
//! | Figure 12 | [`figures::fig12`] / `fig12_traq` | TRAQ occupancy (average, histogram) and recording overhead |
//! | Figure 13 | [`figures::fig13`] / `fig13_replay` | sequential replay time vs parallel recording, user/OS split |
//! | Figure 14 | [`figures::fig14`] / `fig14_scalability` | reordered fraction and log rate at 4/8/16 cores |
//!
//! The `all_figures` binary runs every experiment off a single set of
//! recorded executions and writes CSVs next to the printed tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod report;
pub mod runner;
pub mod scaling;

pub use runner::{
    handle_replay_from, metrics_jsonl, prof_entries, replay_forensic, replay_suite_from,
    run_corpus_suite, run_suite, run_suite_timed, write_prof_artifacts, write_prof_pairs,
    write_trace_artifacts, write_trace_pairs, ExperimentConfig, ReplayFromSummary, SuiteRun,
    WorkloadRun,
};
pub use scaling::{replay_scaling, ReplayScaling, SCALING_REPS, SCALING_WORKERS};
