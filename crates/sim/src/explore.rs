//! Schedule exploration and differential checking — the engine behind
//! `rr-check` (paper §5's "is replay deterministic?" claim, tested
//! adversarially instead of on happy paths).
//!
//! Each [`ExploreSpec`] names one *deterministic* perturbed execution: a
//! seed-derived [`ScheduleStrategy`] (stalls or priority rotation over
//! the machine step loop) plus an optional [`PressureMode`] stressing the
//! recorder where its arithmetic is most fragile (forced interval closes,
//! TRAQ near-overflow, signature aliasing, CISN wraparound, mid-record
//! sink faults). [`explore_sweep`] records every spec under **both**
//! paper designs (Base-4K and Opt-4K) on the parallel sweep engine, then
//! replays each log and runs the differential oracle
//! ([`rr_replay::cross_check`]): every replay must match the sequential
//! ground truth and every other replay, load for load, byte for byte.
//!
//! A divergence is a recorder/replayer bug. [`minimize_divergence`]
//! shrinks the offending spec to a locally minimal still-failing form
//! (fewer stalls, tamer pressure, smaller seed) via
//! [`rr_replay::minimize`], ready for forensic re-recording with tracing
//! enabled.

use rr_isa::{MemImage, Program};
use rr_replay::{cross_check, execute_threaded, CostModel, Shrink};

use crate::config::MachineConfig;
use crate::machine::{PressureSpec, RunOptions, ScheduleStrategy, SimError};
use crate::replay::{replay_variant, with_variant_dag, Engine};
use crate::session::RecordSession;
use crate::sweep::{run_sweep, ReplayPolicy, SweepError, SweepJob, SweepReport};

/// The targeted stress modes `rr-check` can apply on top of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PressureMode {
    /// No pressure: pure schedule exploration.
    None,
    /// Force-close intervals on a short period — tiny intervals, many
    /// `Forced` terminations, maximal interval-ordering traffic.
    ForceClose,
    /// Shrink the TRAQ to a handful of entries so it runs near overflow
    /// (back-pressuring dispatch) for the whole run.
    Traq,
    /// Shrink the Bloom signatures to one narrow bank so address aliasing
    /// is rampant — conservative conflict closes must stay sound.
    SigAlias,
    /// Pre-advance the interval counters past 65 500 so the 16-bit CISN
    /// wraps mid-run (the PR 4 wraparound-bug regression, end to end).
    CisnWrap,
    /// Stream a shadow recorder into a sink that fails mid-record and
    /// audit poisoning/retention against the fault-free log.
    SinkFault,
}

impl PressureMode {
    /// All modes, in CLI listing order.
    pub const ALL: [PressureMode; 6] = [
        PressureMode::None,
        PressureMode::ForceClose,
        PressureMode::Traq,
        PressureMode::SigAlias,
        PressureMode::CisnWrap,
        PressureMode::SinkFault,
    ];

    /// The CLI name (`--pressure <name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PressureMode::None => "none",
            PressureMode::ForceClose => "force-close",
            PressureMode::Traq => "traq",
            PressureMode::SigAlias => "sig-alias",
            PressureMode::CisnWrap => "cisn-wrap",
            PressureMode::SinkFault => "sink-fault",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        PressureMode::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// One deterministic perturbed execution to check: everything about it is
/// derived from the seed and the pressure mode, so a spec fully names a
/// reproducible case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreSpec {
    /// The exploration seed (0 = the unperturbed baseline schedule).
    pub seed: u64,
    /// Seed-derived schedule perturbation.
    pub schedule: ScheduleStrategy,
    /// Recorder stress to apply.
    pub pressure: PressureMode,
}

impl ExploreSpec {
    /// The spec for one seed: seed 0 keeps the baseline schedule (the
    /// reference point every sweep should include); odd seeds stall,
    /// even seeds rotate priority, with rates/periods varied by the seed
    /// so no two seeds explore the same schedule.
    #[must_use]
    pub fn for_seed(seed: u64, pressure: PressureMode) -> Self {
        let schedule = if seed == 0 {
            ScheduleStrategy::Baseline
        } else if seed % 2 == 1 {
            ScheduleStrategy::SeededStall {
                seed,
                stall_permille: (100 + (seed % 8) * 100) as u16,
                max_consecutive: 2 + (seed % 7) as u32,
            }
        } else {
            ScheduleStrategy::RotatePriority {
                period: 1 + seed % 13,
            }
        };
        ExploreSpec {
            seed,
            schedule,
            pressure,
        }
    }

    /// The run options realizing this spec's schedule + pressure.
    #[must_use]
    pub fn options(&self) -> RunOptions {
        let pressure = match self.pressure {
            PressureMode::None | PressureMode::Traq | PressureMode::SigAlias => {
                PressureSpec::default()
            }
            PressureMode::ForceClose => PressureSpec {
                force_close_period: Some(40 + self.seed % 80),
                ..PressureSpec::default()
            },
            PressureMode::CisnWrap => PressureSpec {
                // Close enough to 2^16 that a moderate run crosses it.
                preadvance_intervals: 65_500,
                ..PressureSpec::default()
            },
            PressureMode::SinkFault => PressureSpec {
                sink_fail_after: Some(1 + (self.seed % 16) as usize),
                ..PressureSpec::default()
            },
        };
        RunOptions {
            schedule: self.schedule.clone(),
            pressure,
        }
    }

    /// The recorder variants to check differentially: the two paper
    /// designs at 4K intervals, with TRAQ/signature pressure applied to
    /// both when the mode asks for it (both designs must survive it —
    /// that is the point of differential checking).
    #[must_use]
    pub fn recorder_configs(&self) -> Vec<relaxreplay::RecorderConfig> {
        [relaxreplay::Design::Base, relaxreplay::Design::Opt]
            .into_iter()
            .map(|design| {
                let mut c = relaxreplay::RecorderConfig::splash_default(design, Some(4096));
                match self.pressure {
                    PressureMode::Traq => {
                        c.traq_entries = 4 + (self.seed % 4) as usize;
                        c.count_per_cycle = 1;
                    }
                    PressureMode::SigAlias => {
                        c.sig_banks = 1;
                        c.sig_bits = 16;
                    }
                    _ => {}
                }
                c
            })
            .collect()
    }

    /// A stable human-readable identity, e.g. `seed3/traq`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("seed{}/{}", self.seed, self.pressure.name())
    }
}

/// Shrinking an [`ExploreSpec`]: drop the pressure first (is the schedule
/// alone enough?), then tame the schedule itself — fewer stalls, slower
/// rotation, finally the baseline schedule.
impl Shrink for ExploreSpec {
    fn candidates(&self) -> Vec<Self> {
        let mut c = Vec::new();
        if self.pressure != PressureMode::None {
            c.push(ExploreSpec {
                pressure: PressureMode::None,
                ..self.clone()
            });
        }
        match self.schedule {
            ScheduleStrategy::Baseline => {}
            ScheduleStrategy::SeededStall {
                seed,
                stall_permille,
                max_consecutive,
            } => {
                c.push(ExploreSpec {
                    schedule: ScheduleStrategy::Baseline,
                    ..self.clone()
                });
                if stall_permille > 1 {
                    c.push(ExploreSpec {
                        schedule: ScheduleStrategy::SeededStall {
                            seed,
                            stall_permille: stall_permille / 2,
                            max_consecutive,
                        },
                        ..self.clone()
                    });
                }
                if max_consecutive > 1 {
                    c.push(ExploreSpec {
                        schedule: ScheduleStrategy::SeededStall {
                            seed,
                            stall_permille,
                            max_consecutive: max_consecutive / 2,
                        },
                        ..self.clone()
                    });
                }
            }
            ScheduleStrategy::RotatePriority { period } => {
                c.push(ExploreSpec {
                    schedule: ScheduleStrategy::Baseline,
                    ..self.clone()
                });
                c.push(ExploreSpec {
                    schedule: ScheduleStrategy::RotatePriority { period: period * 2 },
                    ..self.clone()
                });
            }
        }
        c
    }
}

/// The outcome of checking one spec.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// The spec that was checked.
    pub spec: ExploreSpec,
    /// Its job name in the sweep (`<workload>/<label>` style identity is
    /// the caller's; here it is just [`ExploreSpec::label`]).
    pub name: String,
    /// Cycles the perturbed run took.
    pub cycles: u64,
    /// What the injected pressure actually did.
    pub pressure: crate::machine::PressureReport,
    /// `None` = all variants agreed with ground truth and each other;
    /// `Some(description)` = a divergence (a recorder/replayer bug).
    pub divergence: Option<String>,
}

/// The result of an exploration sweep.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// One outcome per spec, in spec order.
    pub outcomes: Vec<ExploreOutcome>,
    /// The underlying sweep report (metrics/JSONL sidecars, wall clock).
    pub sweep: SweepReport,
}

impl ExploreReport {
    /// Outcomes that diverged.
    #[must_use]
    pub fn divergent(&self) -> Vec<&ExploreOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.divergence.is_some())
            .collect()
    }
}

fn check_run(
    programs: &[Program],
    initial_mem: &MemImage,
    run: &crate::machine::RunResult,
    pressure: &crate::machine::PressureReport,
    cost: &CostModel,
    replay_workers: &[usize],
) -> Option<String> {
    // Replay every variant's log — sequentially, then on the threaded
    // engine at every requested worker count — and cross-check all of the
    // outcomes at once: the zero-divergence gate covers every engine.
    let mut outcomes = Vec::with_capacity(run.variants.len() * (1 + replay_workers.len()));
    for v in &run.variants {
        let seq = Engine::Sequential;
        match replay_variant(programs, initial_mem, cost, &v.logs, seq, &mut (), None) {
            Ok(o) => outcomes.push((v.spec.label(), o)),
            Err(e) => {
                let at = |stage: &str| format!("[{}] {stage}", v.spec.label());
                return Some(e.into_error(at, "replay failed").to_string());
            }
        }
        if replay_workers.is_empty() {
            continue;
        }
        // One partial-order DAG serves every worker count.
        let threaded = with_variant_dag(&v.logs, Some(&v.ordering), None, |dag| {
            for &w in replay_workers {
                match execute_threaded(programs, dag, initial_mem.clone(), cost, w) {
                    Ok(o) => outcomes.push((format!("{}/w{w}", v.spec.label()), o)),
                    Err(e) => return Some(format!("[{}/w{w}] replay failed: {e}", v.spec.label())),
                }
            }
            None
        });
        match threaded {
            Ok(None) => {}
            Ok(Some(verdict)) => return Some(verdict),
            Err(e) => return Some(format!("[{}] {e}", v.spec.label())),
        }
    }
    let labeled: Vec<(&str, &rr_replay::ReplayOutcome)> = outcomes
        .iter()
        .map(|(label, o)| (label.as_str(), o))
        .collect();
    if let Err(e) = cross_check(&run.recorded, &labeled) {
        return Some(e.to_string());
    }
    // The sink-fault contract is part of the oracle: a faulted shadow
    // must poison, keep an accurate streamed count, and retain every
    // unsent entry.
    if let Some(sink) = &pressure.sink {
        if !sink.prefix_intact {
            return Some(format!(
                "sink-fault shadow lost or corrupted entries \
                 (streamed {:?}, retained {:?})",
                sink.streamed, sink.retained
            ));
        }
    }
    None
}

/// Records, replays, and cross-checks **one** spec. This is the
/// minimizer's probe (and the single-seed path of [`explore_sweep`]).
///
/// # Errors
///
/// Returns [`SimError`] if the perturbed simulation itself fails (e.g. a
/// total-stall schedule deadlocks); divergences are *not* errors — they
/// land in [`ExploreOutcome::divergence`].
pub fn explore_one(
    programs: &[Program],
    initial_mem: &MemImage,
    machine: &MachineConfig,
    spec: &ExploreSpec,
) -> Result<ExploreOutcome, SimError> {
    let (run, pressure) = RecordSession::new(programs, initial_mem)
        .config(machine)
        .recorder_configs(&spec.recorder_configs())
        .options(&spec.options())
        .run_reported()?;
    let divergence = check_run(
        programs,
        initial_mem,
        &run,
        &pressure,
        &CostModel::splash_default(),
        &[],
    );
    Ok(ExploreOutcome {
        spec: spec.clone(),
        name: spec.label(),
        cycles: run.cycles,
        pressure,
        divergence,
    })
}

/// Records every spec in parallel on the sweep engine, then replays and
/// cross-checks each recording. Divergences are collected, not fatal —
/// `rr-check` wants *all* of them, minimized, not just the first.
///
/// Every recording is also replayed on the threaded engine at each worker
/// count in `replay_workers` (`&[]` for none); the threaded outcomes enter
/// the same cross-check as the sequential ones (labelled `<variant>/w<n>`),
/// so a divergence at any worker count fails the spec.
///
/// # Errors
///
/// Returns [`SweepError`] only if a simulation itself fails.
pub fn explore_sweep(
    programs: &[Program],
    initial_mem: &MemImage,
    machine: &MachineConfig,
    specs: &[ExploreSpec],
    workers: usize,
    replay_workers: &[usize],
) -> Result<ExploreReport, SweepError> {
    let jobs: Vec<SweepJob> = specs
        .iter()
        .map(|spec| SweepJob {
            name: spec.label(),
            programs: programs.to_vec(),
            initial_mem: initial_mem.clone(),
            machine: machine.clone(),
            recorders: spec.recorder_configs(),
            // Replay + differential check happen below, against *all*
            // variants at once; the sweep only records.
            replay: ReplayPolicy::Skip,
            options: spec.options(),
        })
        .collect();
    let sweep = run_sweep(&jobs, workers)?;
    let cost = CostModel::splash_default();
    let outcomes = specs
        .iter()
        .zip(&sweep.outputs)
        .map(|(spec, out)| ExploreOutcome {
            spec: spec.clone(),
            name: out.name.clone(),
            cycles: out.run.cycles,
            pressure: out.pressure.clone(),
            divergence: check_run(
                programs,
                initial_mem,
                &out.run,
                &out.pressure,
                &cost,
                replay_workers,
            ),
        })
        .collect();
    Ok(ExploreReport { outcomes, sweep })
}

/// Shrinks a divergent spec to a locally minimal still-diverging form by
/// re-running [`explore_one`] on each candidate. Simulation errors during
/// probing count as "not failing" (the candidate is rejected), keeping
/// the minimizer total.
#[must_use]
pub fn minimize_divergence(
    programs: &[Program],
    initial_mem: &MemImage,
    machine: &MachineConfig,
    seed_spec: ExploreSpec,
) -> ExploreSpec {
    rr_replay::minimize(seed_spec, |cand| {
        explore_one(programs, initial_mem, machine, cand)
            .map(|o| o.divergence.is_some())
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_isa::{ProgramBuilder, Reg};

    fn racy_pair() -> (Vec<Program>, MemImage) {
        // Two threads hammering the same two lines: enough contention
        // that schedule perturbation actually changes interleavings.
        let mut programs = Vec::new();
        for t in 0..2u8 {
            let mut b = ProgramBuilder::new();
            b.load_imm(Reg::new(1), 0x100);
            b.load_imm(Reg::new(2), 0x140);
            for k in 0..12 {
                b.load_imm(Reg::new(3), i64::from(t) * 100 + k);
                b.store(Reg::new(3), Reg::new(1), 0);
                b.load(Reg::new(4), Reg::new(2), 0);
                b.store(Reg::new(4), Reg::new(2), 8);
            }
            b.halt();
            programs.push(b.build());
        }
        (programs, MemImage::new())
    }

    #[test]
    fn seed_zero_is_baseline_and_seeds_are_distinct() {
        let s0 = ExploreSpec::for_seed(0, PressureMode::None);
        assert_eq!(s0.schedule, ScheduleStrategy::Baseline);
        let s1 = ExploreSpec::for_seed(1, PressureMode::None);
        let s2 = ExploreSpec::for_seed(2, PressureMode::None);
        assert!(matches!(s1.schedule, ScheduleStrategy::SeededStall { .. }));
        assert!(matches!(
            s2.schedule,
            ScheduleStrategy::RotatePriority { .. }
        ));
    }

    #[test]
    fn pressure_mode_names_round_trip() {
        for m in PressureMode::ALL {
            assert_eq!(PressureMode::parse(m.name()), Some(m));
        }
        assert_eq!(PressureMode::parse("bogus"), None);
    }

    #[test]
    fn explore_one_agrees_on_a_racy_workload() {
        let (programs, mem) = racy_pair();
        let machine = MachineConfig::splash_default(2);
        for seed in 0..4 {
            let spec = ExploreSpec::for_seed(seed, PressureMode::None);
            let out = explore_one(&programs, &mem, &machine, &spec).expect("sim ok");
            assert_eq!(out.divergence, None, "seed {seed} diverged");
        }
    }

    #[test]
    fn perturbed_schedules_change_the_execution() {
        // The explorer is pointless if every seed yields the same run;
        // stalls must actually move cycles around.
        let (programs, mem) = racy_pair();
        let machine = MachineConfig::splash_default(2);
        let base = explore_one(
            &programs,
            &mem,
            &machine,
            &ExploreSpec::for_seed(0, PressureMode::None),
        )
        .expect("sim ok");
        let stalled = explore_one(
            &programs,
            &mem,
            &machine,
            &ExploreSpec::for_seed(1, PressureMode::None),
        )
        .expect("sim ok");
        assert_ne!(base.cycles, stalled.cycles, "stalls changed nothing");
    }

    #[test]
    fn cisn_wrap_pressure_crosses_the_wrap_point() {
        let (programs, mem) = racy_pair();
        let machine = MachineConfig::splash_default(2);
        let spec = ExploreSpec::for_seed(0, PressureMode::CisnWrap);
        let out = explore_one(&programs, &mem, &machine, &spec).expect("sim ok");
        assert_eq!(out.divergence, None);
        assert_eq!(out.pressure.preadvanced, 65_500);
    }

    #[test]
    fn sink_fault_pressure_reports_an_intact_prefix() {
        let (programs, mem) = racy_pair();
        let machine = MachineConfig::splash_default(2);
        let spec = ExploreSpec::for_seed(0, PressureMode::SinkFault);
        let out = explore_one(&programs, &mem, &machine, &spec).expect("sim ok");
        assert_eq!(out.divergence, None);
        let sink = out.pressure.sink.expect("shadow attached");
        assert!(sink.prefix_intact);
        assert!(
            sink.poisoned.iter().any(|&p| p),
            "fail_after=1 must fault on a workload with many entries"
        );
    }

    #[test]
    fn default_options_are_byte_identical_to_plain_run() {
        use crate::machine::PressureReport;
        let (programs, mem) = racy_pair();
        let machine = MachineConfig::splash_default(2);
        let configs = ExploreSpec::for_seed(0, PressureMode::None).recorder_configs();
        let plain = RecordSession::new(&programs, &mem)
            .config(&machine)
            .recorder_configs(&configs)
            .run()
            .expect("sim ok");
        let (with, report) = RecordSession::new(&programs, &mem)
            .config(&machine)
            .recorder_configs(&configs)
            .options(&RunOptions::default())
            .run_reported()
            .expect("sim ok");
        assert_eq!(plain.cycles, with.cycles);
        assert_eq!(report, PressureReport::default());
        for (a, b) in plain.variants.iter().zip(&with.variants) {
            for (la, lb) in a.logs.iter().zip(&b.logs) {
                assert_eq!(la.entries, lb.entries);
            }
        }
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let (programs, mem) = racy_pair();
        let machine = MachineConfig::splash_default(2);
        let spec = ExploreSpec::for_seed(5, PressureMode::ForceClose);
        let mut runs = (0..2).map(|_| {
            RecordSession::new(&programs, &mem)
                .config(&machine)
                .recorder_configs(&spec.recorder_configs())
                .options(&spec.options())
                .run_reported()
                .expect("sim ok")
        });
        let (a, ra) = runs.next().unwrap();
        let (b, rb) = runs.next().unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(ra, rb);
        for (va, vb) in a.variants.iter().zip(&b.variants) {
            for (la, lb) in va.logs.iter().zip(&vb.logs) {
                assert_eq!(la.entries, lb.entries);
            }
        }
    }

    #[test]
    fn minimizer_lands_on_baseline_for_an_always_failing_oracle() {
        // Drive minimize() with a fake oracle (always fails) — it must
        // walk the shrink lattice down to the fully minimal spec.
        let spec = ExploreSpec::for_seed(7, PressureMode::Traq);
        let min = rr_replay::minimize(spec, |_| true);
        assert_eq!(min.schedule, ScheduleStrategy::Baseline);
        assert_eq!(min.pressure, PressureMode::None);
    }
}
