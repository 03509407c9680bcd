//! Tier-1 differential test: the `rr-check` explorer sweeps the four
//! litmus shapes (SB, MP, LB, IRIW) over 64 seeded schedule
//! perturbations each, recording every perturbed execution under both
//! paper designs (Base-4K and Opt-4K), replaying both logs, and
//! cross-checking them against the sequential ground truth and against
//! each other. Zero divergences is the paper's determinism claim, tested
//! adversarially; byte-stability per seed is what makes any future
//! failure reproducible from its seed alone.

use rr_sim::{explore_one, explore_sweep, ExploreSpec, MachineConfig, PressureMode};
use rr_workloads::litmus_suite;

/// `rr-check explore --seeds 64` over every litmus shape: all schedules
/// must replay deterministically under both designs.
#[test]
fn litmus_shapes_agree_across_64_seeded_schedules() {
    for w in litmus_suite() {
        let machine = MachineConfig::splash_default(w.programs.len());
        let specs: Vec<ExploreSpec> = (0..64)
            .map(|s| ExploreSpec::for_seed(s, PressureMode::None))
            .collect();
        let report = explore_sweep(&w.programs, &w.initial_mem, &machine, &specs, 0, &[])
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for o in &report.outcomes {
            assert_eq!(
                o.divergence, None,
                "{}/{}: Base and Opt must agree with ground truth",
                w.name, o.name
            );
        }
        // The explorer must actually explore: perturbed seeds change the
        // execution relative to seed 0.
        let baseline = report.outcomes[0].cycles;
        assert!(
            report.outcomes.iter().any(|o| o.cycles != baseline),
            "{}: no seed perturbed the schedule",
            w.name
        );
    }
}

/// The pressure modes that flush out this PR's bug fixes, end to end:
/// CISN wraparound (intervals counted past 2^16) and mid-record sink
/// faults (poisoned shadow, intact retained prefix) must not cost a
/// single bit of replay fidelity.
#[test]
fn bugfix_pressure_modes_stay_deterministic() {
    for w in litmus_suite() {
        let machine = MachineConfig::splash_default(w.programs.len());
        for pressure in [PressureMode::CisnWrap, PressureMode::SinkFault] {
            let specs: Vec<ExploreSpec> =
                (0..4).map(|s| ExploreSpec::for_seed(s, pressure)).collect();
            let report = explore_sweep(&w.programs, &w.initial_mem, &machine, &specs, 0, &[])
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, pressure.name()));
            for o in &report.outcomes {
                assert_eq!(o.divergence, None, "{}/{}", w.name, o.name);
                match pressure {
                    PressureMode::CisnWrap => {
                        assert_eq!(o.pressure.preadvanced, 65_500, "{}", o.name);
                    }
                    PressureMode::SinkFault => {
                        let sink = o.pressure.sink.as_ref().expect("shadow attached");
                        assert!(sink.prefix_intact, "{}/{}", w.name, o.name);
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

/// Regression: the first bug this checker flushed out. Under
/// `SeededStall` (lb, seed 31) a stalled core used to skip its whole
/// tick, so a load whose memory transaction had already completed did
/// not perform until the stall ended — and the conflicting remote
/// store's invalidation snoop slipped into that gap, before the perform,
/// where it could not conflict-close the loader's interval. Both final
/// intervals then closed with equal timestamps and the replayer's
/// (timestamp, core) tie-break ran them in the wrong order, replaying
/// the load as 1 where recording saw 0. Stalled cores now drain their
/// completions on the contracted cycle, so the snoop lands *after* the
/// perform and closes the interval with a strictly smaller timestamp.
#[test]
fn stall_schedules_preserve_the_perform_timing_contract() {
    let w = rr_workloads::litmus::lb();
    let machine = MachineConfig::splash_default(w.programs.len());
    let spec = ExploreSpec::for_seed(31, PressureMode::None);
    let outcome = explore_one(&w.programs, &w.initial_mem, &machine, &spec)
        .expect("lb/seed31 records and replays");
    assert!(
        outcome.pressure.stalled_ticks > 0,
        "seed 31 must actually stall the pipeline"
    );
    assert_eq!(outcome.divergence, None, "{}", outcome.name);
}

/// Byte-stability: the same seed must reproduce the same logs, bit for
/// bit — a divergence report that cannot be re-run from its seed is
/// useless.
#[test]
fn explored_schedules_are_byte_stable_per_seed() {
    for w in litmus_suite() {
        let machine = MachineConfig::splash_default(w.programs.len());
        let spec = ExploreSpec::for_seed(3, PressureMode::None);
        let runs: Vec<_> = (0..2)
            .map(|_| {
                explore_one(&w.programs, &w.initial_mem, &machine, &spec)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            })
            .collect();
        assert_eq!(runs[0].cycles, runs[1].cycles, "{}", w.name);
        assert_eq!(runs[0].pressure, runs[1].pressure, "{}", w.name);
        assert_eq!(runs[0].divergence, runs[1].divergence, "{}", w.name);
    }
}
