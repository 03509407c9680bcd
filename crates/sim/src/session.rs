//! The unified record-session API.
//!
//! [`RecordSession`] replaces the old `record` / `record_custom` /
//! `record_with` trio with one builder: name the workload, then layer on
//! exactly the knobs the run needs — machine config, recorder variants
//! (paper specs or fully custom configs), schedule perturbation, recorder
//! pressure, event tracing — and call [`RecordSession::run`]. Every stage
//! is optional; the defaults reproduce the paper's SPLASH-style machine
//! with the standard recorder matrix. The different ways of spelling the
//! same run — paper specs or recorder configs, default or spelled-out
//! options, `run` or `run_reported` — record byte-identical `.rrlog`
//! streams (pinned by the `session_equivalence` test over the full
//! litmus suite).
//!
//! ```no_run
//! use rr_isa::{MemImage, ProgramBuilder, Reg};
//! use rr_sim::RecordSession;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.load_imm(Reg::new(1), 1);
//! b.halt();
//! let programs = vec![b.build()];
//! let initial_mem = MemImage::new();
//! let result = RecordSession::new(&programs, &initial_mem).run()?;
//! assert_eq!(result.variants.len(), rr_sim::RecorderSpec::paper_matrix().len());
//! # Ok(())
//! # }
//! ```

use relaxreplay::{RecorderConfig, TraceConfig};
use rr_isa::{MemImage, Program};

use crate::config::{MachineConfig, RecorderSpec};
use crate::machine::{
    run_machine, PressureReport, PressureSpec, RunOptions, RunResult, ScheduleStrategy, SimError,
};

/// A builder-style recording session: workload → config → recorders →
/// options → trace → run.
#[derive(Clone, Debug)]
pub struct RecordSession<'a> {
    programs: &'a [Program],
    initial_mem: &'a MemImage,
    config: Option<MachineConfig>,
    recorders: Option<Vec<RecorderConfig>>,
    options: RunOptions,
}

impl<'a> RecordSession<'a> {
    /// A session recording `programs` (one thread per core) against
    /// `initial_mem`, with every knob at its default: a
    /// [`MachineConfig::splash_default`] machine sized to the thread
    /// count, the [`RecorderSpec::paper_matrix`] recorder variants, the
    /// baseline schedule, and no pressure or tracing.
    #[must_use]
    pub fn new(programs: &'a [Program], initial_mem: &'a MemImage) -> Self {
        RecordSession {
            programs,
            initial_mem,
            config: None,
            recorders: None,
            options: RunOptions::default(),
        }
    }

    /// Uses `config` for the simulated machine (cores, memory system,
    /// tracing) instead of the sized default.
    #[must_use]
    pub fn config(mut self, config: &MachineConfig) -> Self {
        self.config = Some(config.clone());
        self
    }

    /// Records with one variant per [`RecorderSpec`] (the paper-matrix
    /// level of control: design + interval limit, defaults elsewhere).
    #[must_use]
    pub fn specs(mut self, specs: &[RecorderSpec]) -> Self {
        self.recorders = Some(specs.iter().map(RecorderSpec::recorder_config).collect());
        self
    }

    /// Records with fully custom recorder configurations (ablation-study
    /// level of control: TRAQ depth, signature geometry, …).
    #[must_use]
    pub fn recorder_configs(mut self, configs: &[RecorderConfig]) -> Self {
        self.recorders = Some(configs.to_vec());
        self
    }

    /// Replaces the whole option block (schedule + pressure) at once —
    /// the bridge for callers that already hold a [`RunOptions`], e.g.
    /// the explore specs.
    #[must_use]
    pub fn options(mut self, options: &RunOptions) -> Self {
        self.options = options.clone();
        self
    }

    /// Perturbs the per-cycle core schedule (seeded stalls or priority
    /// rotation) instead of the deterministic baseline.
    #[must_use]
    pub fn schedule(mut self, schedule: ScheduleStrategy) -> Self {
        self.options.schedule = schedule;
        self
    }

    /// Applies recorder pressure (forced interval closes, CISN
    /// pre-advance, injected sink faults).
    #[must_use]
    pub fn pressure(mut self, pressure: PressureSpec) -> Self {
        self.options.pressure = pressure;
        self
    }

    /// Enables event tracing on the machine (overriding the config's
    /// trace setting) so the run carries a forensic timeline.
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        let cfg = self
            .config
            .take()
            .unwrap_or_else(|| MachineConfig::splash_default(self.programs.len()));
        self.config = Some(cfg.with_trace(trace));
        self
    }

    /// Records the session, discarding the pressure report (the common
    /// case — no pressure was injected).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the machine exceeds its cycle
    /// budget, or [`SimError::TooManyThreads`].
    pub fn run(self) -> Result<RunResult, SimError> {
        self.run_reported().map(|(run, _)| run)
    }

    /// Records the session and also returns the [`PressureReport`] saying
    /// what any injected pressure actually did.
    ///
    /// # Errors
    ///
    /// As [`RecordSession::run`].
    pub fn run_reported(self) -> Result<(RunResult, PressureReport), SimError> {
        let config = self
            .config
            .unwrap_or_else(|| MachineConfig::splash_default(self.programs.len()));
        let recorders = self.recorders.unwrap_or_else(|| {
            RecorderSpec::paper_matrix()
                .iter()
                .map(RecorderSpec::recorder_config)
                .collect()
        });
        run_machine(
            self.programs,
            self.initial_mem,
            &config,
            &recorders,
            &self.options,
        )
    }
}
