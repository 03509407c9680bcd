//! # rr-sim — the simulated multicore of the RelaxReplay reproduction
//!
//! A deterministic, cycle-stepped simulator combining:
//!
//! * `rr-cpu` out-of-order cores (release consistency, Table 1 parameters),
//! * the `rr-mem` MESI snoopy-ring (or directory) memory system,
//! * one or more `relaxreplay` recorder variants attached as observers,
//! * a [`TraceCollector`] capturing the ground truth for replay
//!   verification.
//!
//! The headline API is [`RecordSession`], a builder that runs one thread
//! per core to completion and returns a [`RunResult`] carrying per-variant
//! interval logs plus every statistic the paper's figures need, and
//! [`replay_and_verify`], which closes the loop: patch → sequential replay
//! → determinism check against the recorded execution. A recorded
//! variant, fresh or loaded back from a store, is patched and turned into
//! a DAG in one place: [`replay_variant`] (patch → DAG → executor), or
//! its first two steps [`with_variant_dag`] for callers that use the DAG.
//!
//! ```no_run
//! use rr_isa::{MemImage, ProgramBuilder, Reg};
//! use rr_replay::CostModel;
//! use rr_sim::{replay_and_verify, RecordSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.load_imm(Reg::new(1), 1);
//! b.halt();
//! let programs = vec![b.build()];
//! let mem = MemImage::new();
//! let result = RecordSession::new(&programs, &mem).run()?;
//! for v in 0..result.variants.len() {
//!     replay_and_verify(&programs, &mem, &result, v, &CostModel::splash_default())?;
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
pub mod explore;
pub mod logdir;
mod machine;
pub mod metrics;
mod replay;
mod session;
pub mod store;
pub mod sweep;
mod tracer;

pub use config::{MachineConfig, RecorderSpec};
pub use error::Error;
pub use explore::{
    explore_one, explore_sweep, minimize_divergence, ExploreOutcome, ExploreReport, ExploreSpec,
    PressureMode,
};
pub use logdir::{LogDirError, SavedRun, SavedVariant};
pub use machine::{
    PressureReport, PressureSpec, RunOptions, RunResult, ScheduleStrategy, SimError,
    SinkFaultReport, VariantResult,
};
pub use metrics::{MetricsRegistry, PhaseNanos};
pub use replay::{replay_and_verify, replay_variant, with_variant_dag, Engine, ReplayStageError};
pub use rr_replay::host_parallelism;
pub use session::RecordSession;
pub use store::{
    DedupStat, LocalStore, RemoteFault, RunStat, RunStore, StoreError, StoreSpec, VariantStat,
};
pub use sweep::{run_sweep, JobOutput, ReplayPolicy, SweepError, SweepJob, SweepReport};
pub use tracer::TraceCollector;
