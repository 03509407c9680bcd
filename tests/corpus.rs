//! Tier-1 differential tests over the concurrent data-structure corpus:
//! every `.asm` shape (locks, seqlock, Treiber stack, MPMC ring,
//! work-stealing deque, RCU epochs) is swept over 64 seeded schedule
//! perturbations, recorded under both paper designs (Base-4K and
//! Opt-4K), replayed, and cross-checked against the sequential ground
//! truth and against each other — the same bar `tests/rr_check.rs` sets
//! for the litmus shapes, applied to real synchronization idioms. The
//! fuzz generator is held to the same bar end to end: generated `.asm`
//! text goes through the assembler frontend, the recorder, and the
//! replayer with zero divergence.

use rr_experiments::{figures, run_corpus_suite, ExperimentConfig};
use rr_sim::{explore_sweep, ExploreSpec, MachineConfig, PressureMode};
use rr_workloads::{corpus_names, corpus_suite, fuzz_case};

/// `rr-check explore --workload corpus --seeds 64`: every corpus shape
/// must replay deterministically under both designs on every schedule.
#[test]
fn corpus_shapes_agree_across_64_seeded_schedules() {
    for w in corpus_suite() {
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
        // Contended data structures are schedule-sensitive by nature; if
        // no seed changed the cycle count the explorer isn't exploring.
        let baseline = report.outcomes[0].cycles;
        assert!(
            report.outcomes.iter().any(|o| o.cycles != baseline),
            "{}: no seed perturbed the schedule",
            w.name
        );
    }
}

/// A slice of the corpus also holds up under recorder pressure (forced
/// interval closes and TRAQ near-overflow) — the modes that stress
/// interval-boundary bookkeeping hardest on RMW-heavy code.
#[test]
fn contended_locks_survive_recorder_pressure() {
    for name in ["spinlock", "ticket_lock"] {
        let w = rr_workloads::corpus_by_name(name).expect("catalog name");
        let machine = MachineConfig::splash_default(w.programs.len());
        for pressure in [PressureMode::ForceClose, PressureMode::Traq] {
            let specs: Vec<ExploreSpec> =
                (0..4).map(|s| ExploreSpec::for_seed(s, pressure)).collect();
            let report = explore_sweep(&w.programs, &w.initial_mem, &machine, &specs, 0, &[])
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, pressure.name()));
            for o in &report.outcomes {
                assert_eq!(o.divergence, None, "{}/{}", w.name, o.name);
            }
        }
    }
}

/// The fuzz pipeline end to end: generated `.asm` text → assembler →
/// record under both designs → replay → cross-check, over a batch of
/// seeds and two schedule perturbations each (the CI job runs the same
/// check at `rr-check fuzz --count 200` scale).
#[test]
fn fuzzed_programs_replay_deterministically_end_to_end() {
    for seed in 0..24u64 {
        let case = fuzz_case(seed);
        let w = &case.workload;
        let machine = MachineConfig::splash_default(w.programs.len());
        let specs: Vec<ExploreSpec> = (0..2)
            .map(|s| ExploreSpec::for_seed(seed * 100 + s, PressureMode::None))
            .collect();
        let report = explore_sweep(&w.programs, &w.initial_mem, &machine, &specs, 0, &[])
            .unwrap_or_else(|e| panic!("{}: {e}", case.label));
        for o in &report.outcomes {
            assert_eq!(
                o.divergence, None,
                "{}/{}: divergence on generated program:\n{}",
                case.label, o.name, case.asm
            );
        }
    }
}

/// The experiments harness runs the corpus like any other suite: all
/// four recorder variants record, every variant replays and verifies,
/// and the per-shape rows land in the corpus editions of Figures 11
/// and 13.
#[test]
fn corpus_suite_records_replays_and_fills_the_figures() {
    let cfg = ExperimentConfig {
        workers: 4,
        ..ExperimentConfig::paper_default()
    };
    let runs = run_corpus_suite(&cfg).expect("corpus suite").outputs;
    assert_eq!(runs.len(), 7);
    for (r, name) in runs.iter().zip(corpus_names()) {
        assert_eq!(r.name, name, "suite order matches the catalog");
        assert_eq!(r.run.variants.len(), 4, "{name}: paper matrix");
        assert_eq!(r.replays.len(), 4, "{name}: every variant replays");
        for v in 0..4 {
            let bits = r.run.variants[v].bits_per_kilo_instr();
            assert!(
                bits.is_finite() && bits > 0.0,
                "{name}: variant {v} logged nothing"
            );
        }
    }
    let t11 = figures::fig11_corpus(&runs).render();
    let t13 = figures::fig13_corpus(&runs).render();
    for name in corpus_names() {
        assert!(t11.contains(name), "fig11-corpus misses {name}:\n{t11}");
        assert!(t13.contains(name), "fig13-corpus misses {name}:\n{t13}");
    }
    assert!(t11.contains("AVERAGE"), "{t11}");
    assert!(t13.contains("AVERAGE"), "{t13}");
}
