//! Tier-1 gate for the multithreaded interval-DAG replay engine: at every
//! worker count the threaded executor must produce exactly the outcome the
//! sequential DAG executor produces — across the litmus shapes and the
//! full concurrent data-structure corpus, over 64 seeded schedules each,
//! for both recorder designs (Base-4K / Opt-4K), and under every rr-check
//! pressure mode. Corrupt interval orderings (cycles, short orderings,
//! out-of-range cores) must surface as typed [`ReplayError`]s — never a
//! hang, panic, or silent wrong answer — and the engine fails the same
//! way with a profiling probe attached. A final differential test pins
//! the sequential DAG executor to the retained legacy replay path.

use relaxreplay::prof::{EngineProf, Probe};
use relaxreplay::IntervalOrdering;
use rr_isa::{MemImage, Program};
use rr_replay::{
    execute_threaded_probed, patch, replay, replay_reference, CostModel, IntervalDag, PatchedLog,
    ReplayError, ReplayOp, ReplayOutcome,
};
use rr_sim::{
    explore_sweep, ExploreReport, ExploreSpec, MachineConfig, PressureMode, RecordSession,
    RecorderSpec,
};
use rr_workloads::{corpus_suite, litmus_suite, Workload};

/// Worker counts the threaded engine is exercised at (the zero-divergence
/// gate of the issue: 1/2/4/8).
const REPLAY_WORKERS: [usize; 4] = [1, 2, 4, 8];

const SEEDS: u64 = 64;

fn sweep(w: &Workload, specs: &[ExploreSpec]) -> ExploreReport {
    let machine = MachineConfig::splash_default(w.programs.len());
    explore_sweep(
        &w.programs,
        &w.initial_mem,
        &machine,
        specs,
        0,
        &REPLAY_WORKERS,
    )
    .unwrap_or_else(|e| panic!("{}: sweep failed: {e}", w.name))
}

fn assert_no_divergence(w: &Workload, report: &ExploreReport) {
    for o in &report.outcomes {
        assert!(
            o.divergence.is_none(),
            "{}/{}: threaded replay diverged: {}",
            w.name,
            o.name,
            o.divergence.as_deref().unwrap_or("")
        );
    }
}

/// Litmus shapes × 64 seeded schedules × Base/Opt, threaded at 1/2/4/8
/// workers joining the sequential cross-check.
#[test]
fn litmus_shapes_verify_at_every_worker_count() {
    let specs: Vec<ExploreSpec> = (0..SEEDS)
        .map(|s| ExploreSpec::for_seed(s, PressureMode::None))
        .collect();
    for w in litmus_suite() {
        let report = sweep(&w, &specs);
        assert_eq!(report.outcomes.len(), SEEDS as usize, "{}", w.name);
        assert_no_divergence(&w, &report);
    }
}

/// All seven corpus shapes × 64 seeded schedules × Base/Opt, threaded at
/// 1/2/4/8 workers.
#[test]
fn corpus_shapes_verify_at_every_worker_count() {
    let specs: Vec<ExploreSpec> = (0..SEEDS)
        .map(|s| ExploreSpec::for_seed(s, PressureMode::None))
        .collect();
    let suite = corpus_suite();
    assert_eq!(suite.len(), 7, "corpus catalog grew — extend this gate");
    for w in suite {
        let report = sweep(&w, &specs);
        assert_no_divergence(&w, &report);
    }
}

/// Every rr-check pressure mode (force-close, TRAQ overflow, signature
/// aliasing, CISN wraparound, sink faults) with the threaded engine in
/// the cross-check: recorder stress must not open an engine-specific
/// divergence.
#[test]
fn pressure_modes_verify_threaded() {
    let targets = [litmus_suite().remove(1), corpus_suite().remove(0)]; // mp, spinlock
    for w in &targets {
        for pressure in PressureMode::ALL {
            let specs: Vec<ExploreSpec> =
                (0..8).map(|s| ExploreSpec::for_seed(s, pressure)).collect();
            let report = sweep(w, &specs);
            assert_no_divergence(w, &report);
        }
    }
}

/// The threaded engine at `workers` over the partial-order DAG of `logs`
/// and `ordering`, reporting to `probe`.
fn threaded<P: Probe + Default + Send>(
    programs: &[Program],
    logs: &[PatchedLog],
    ordering: &[IntervalOrdering],
    mem: MemImage,
    workers: usize,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    let dag = IntervalDag::partial_order(programs.len(), logs, ordering)?;
    let cost = CostModel::splash_default();
    execute_threaded_probed(programs, &dag, mem, &cost, workers, probe)
}

/// Records one Opt-4K run and hands back everything a corruption fixture
/// needs: programs, patched logs, and the genuine interval ordering.
fn recorded_fixture() -> (
    Vec<rr_isa::Program>,
    rr_isa::MemImage,
    Vec<PatchedLog>,
    Vec<relaxreplay::IntervalOrdering>,
) {
    let w = litmus_suite().remove(0); // sb: 2 cores, plenty of conflicts
    let specs = vec![RecorderSpec {
        design: relaxreplay::Design::Opt,
        max_interval: Some(4096),
    }];
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&MachineConfig::splash_default(w.programs.len()))
        .specs(&specs)
        .run()
        .expect("records");
    let v = &result.variants[0];
    let patched: Vec<PatchedLog> = v.logs.iter().map(patch).collect::<Result<_, _>>().unwrap();
    (w.programs, w.initial_mem, patched, v.ordering.clone())
}

/// A mutual cross-core dependency is a cycle; both the DAG builder and
/// the threaded engine must reject it with the typed error, not hang.
#[test]
fn cyclic_ordering_is_a_typed_error() {
    let (programs, mem, patched, mut ordering) = recorded_fixture();
    let last0 = ordering[0].preds.len() - 1;
    let last1 = ordering[1].preds.len() - 1;
    ordering[0].preds[last0].push((rr_mem::CoreId::new(1), last1 as u64));
    ordering[1].preds[last1].push((rr_mem::CoreId::new(0), last0 as u64));

    let dag = IntervalDag::partial_order(programs.len(), &patched, &ordering);
    assert!(
        matches!(dag, Err(ReplayError::CyclicOrdering { .. })),
        "DAG builder accepted a cycle: {dag:?}"
    );
    for workers in REPLAY_WORKERS {
        let err = threaded(
            &programs,
            &patched,
            &ordering,
            mem.clone(),
            workers,
            &mut (),
        )
        .expect_err("a cyclic ordering cannot replay");
        assert!(
            matches!(err, ReplayError::CyclicOrdering { .. }),
            "w={workers}: wrong error: {err}"
        );
    }
}

/// An ordering shorter than its log's interval count (a truncated
/// `ordering.bin`) must fail loudly with the mismatch error.
#[test]
fn short_ordering_is_a_typed_error() {
    let (programs, mem, patched, mut ordering) = recorded_fixture();
    ordering[0].preds.pop();

    let err = threaded(&programs, &patched, &ordering, mem, 2, &mut ())
        .expect_err("a short ordering cannot replay");
    assert!(
        matches!(err, ReplayError::OrderingMismatch { core: 0, .. }),
        "wrong error: {err}"
    );
}

/// A predecessor edge naming a core outside the thread set (corrupt or
/// foreign sidecar) must fail with the range error.
#[test]
fn out_of_range_pred_core_is_a_typed_error() {
    let (programs, mem, patched, mut ordering) = recorded_fixture();
    ordering[1].preds[0].push((rr_mem::CoreId::new(7), 0));

    let err = threaded(&programs, &patched, &ordering, mem, 4, &mut ())
        .expect_err("an out-of-range core cannot replay");
    assert!(
        matches!(err, ReplayError::CoreOutOfRange { .. }),
        "wrong error: {err}"
    );
}

/// The engine fails identically with the `EngineProf` probe and without
/// it. The corrupt orderings above are rejected while the DAG is built,
/// before any worker runs; a log that skips a store where its program
/// has none fails inside a worker, so the probe must also report when
/// the first error struck. Either way the pool stops without executing
/// more intervals than the DAG holds.
#[test]
fn probed_engine_fails_like_the_plain_engine() {
    let (programs, mem, patched, ordering) = recorded_fixture();
    let mut cyclic = ordering.clone();
    let (last0, last1) = (cyclic[0].preds.len() - 1, cyclic[1].preds.len() - 1);
    cyclic[0].preds[last0].push((rr_mem::CoreId::new(1), last1 as u64));
    cyclic[1].preds[last1].push((rr_mem::CoreId::new(0), last0 as u64));
    let mut short = ordering.clone();
    short[0].preds.pop();
    let mut out_of_range = ordering.clone();
    out_of_range[1].preds[0].push((rr_mem::CoreId::new(7), 0));
    // sb's threads open with `load_imm`, so a leading skip mismatches.
    let mut bad_op = patched.clone();
    bad_op[0].ops.insert(0, ReplayOp::SkipStore);

    let cases = [
        ("cyclic", &patched, &cyclic),
        ("short", &patched, &short),
        ("out-of-range", &patched, &out_of_range),
        ("bad op", &bad_op, &ordering),
    ];
    for (name, logs, ord) in cases {
        for workers in REPLAY_WORKERS {
            let at = format!("{name} w={workers}");
            let plain =
                threaded(&programs, logs, ord, mem.clone(), workers, &mut ()).expect_err(&at);
            let mut prof = EngineProf::default();
            let probed =
                threaded(&programs, logs, ord, mem.clone(), workers, &mut prof).expect_err(&at);
            assert_eq!(probed, plain, "{at}");
            let executed: u64 = prof.workers.iter().map(|w| w.executed).sum();
            assert!(executed <= prof.nodes as u64, "{at}: {executed} executed");
            if name == "bad op" {
                assert!(
                    matches!(probed, ReplayError::InstructionMismatch { pc: 0, .. }),
                    "{at}: wrong error: {probed}"
                );
                assert!(prof.first_error_ns.is_some(), "{at}: no first-error time");
                assert!(executed >= 1, "{at}: the failing interval was not counted");
            }
        }
    }
}

/// The sequential executor is the DAG engine at one worker; the legacy
/// split-sort-execute path is retained purely as a differential baseline.
/// They must agree on every litmus shape — load values, event counts, and
/// modeled cycles alike.
#[test]
fn dag_executor_matches_the_legacy_reference_path() {
    let cost = CostModel::splash_default();
    let specs = RecorderSpec::paper_matrix();
    for w in litmus_suite() {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .config(&MachineConfig::splash_default(w.programs.len()))
            .specs(&specs)
            .run()
            .unwrap_or_else(|e| panic!("{}: records: {e}", w.name));
        for v in &result.variants {
            let patched: Vec<PatchedLog> =
                v.logs.iter().map(patch).collect::<Result<_, _>>().unwrap();
            let new = replay(&w.programs, &patched, w.initial_mem.clone(), &cost)
                .unwrap_or_else(|e| panic!("{}: DAG replay: {e}", w.name));
            let old = replay_reference(&w.programs, &patched, w.initial_mem.clone(), &cost)
                .unwrap_or_else(|e| panic!("{}: legacy replay: {e}", w.name));
            assert_eq!(new.load_traces, old.load_traces, "{}", w.name);
            assert_eq!(new.events, old.events, "{}", w.name);
            assert_eq!(new.user_cycles, old.user_cycles, "{}", w.name);
            assert_eq!(new.os_cycles, old.os_cycles, "{}", w.name);
            rr_replay::verify(&result.recorded, &new)
                .unwrap_or_else(|e| panic!("{}: DAG verify: {e}", w.name));
            rr_replay::verify(&result.recorded, &old)
                .unwrap_or_else(|e| panic!("{}: legacy verify: {e}", w.name));
        }
    }
}
