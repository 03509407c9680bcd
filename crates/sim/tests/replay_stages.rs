//! The one replay path names the stage a corrupt variant fails at —
//! patch, DAG or replay — on the sequential and the threaded engine
//! alike, and keeps the typed error of that stage.

use std::error::Error as _;

use relaxreplay::{IntervalLog, IntervalOrdering, LogEntry};
use rr_isa::{MemImage, Program, ProgramBuilder};
use rr_mem::CoreId;
use rr_replay::{verify, CostModel, PatchError, ReplayError, ReplayOutcome};
use rr_sim::{replay_variant, Engine, RecordSession, ReplayStageError, RunResult};
use rr_workloads::{suite, Workload};

/// The sequential engine, and the threaded one over `ordering`.
fn engines(ordering: &[IntervalOrdering]) -> [Engine<'_>; 2] {
    [Engine::Sequential, Engine::Threaded(2, Some(ordering))]
}

fn recorded() -> (Workload, RunResult) {
    let w = suite(2, 1).into_iter().next().expect("fft");
    let run = RecordSession::new(&w.programs, &w.initial_mem)
        .run()
        .expect("records");
    (w, run)
}

fn replay_on(
    programs: &[Program],
    initial_mem: &MemImage,
    logs: &[IntervalLog],
    engine: Engine<'_>,
) -> Result<ReplayOutcome, ReplayStageError> {
    let cost = CostModel::splash_default();
    replay_variant(programs, initial_mem, &cost, logs, engine, &mut (), None)
}

#[test]
fn untouched_variants_replay_and_verify_on_both_engines() {
    let (w, run) = recorded();
    for v in &run.variants {
        for engine in engines(&v.ordering) {
            let outcome = replay_on(&w.programs, &w.initial_mem, &v.logs, engine)
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            verify(&run.recorded, &outcome).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        }
    }
}

#[test]
fn an_unaligned_store_fails_at_patch() {
    let (w, run) = recorded();
    let v = &run.variants[0];
    let mut logs = v.logs.clone();
    logs[0].entries.insert(
        0,
        LogEntry::ReorderedStore {
            addr: 0x103,
            value: 7,
            offset: 0,
        },
    );
    for engine in engines(&v.ordering) {
        let err = replay_on(&w.programs, &w.initial_mem, &logs, engine)
            .expect_err("an unaligned store cannot patch");
        let want = PatchError::UnalignedStore {
            interval: 0,
            addr: 0x103,
        };
        assert_eq!(err, ReplayStageError::Patch(want), "{engine:?}");
        assert!(err.to_string().starts_with("patch failed: "), "{err}");
        assert_eq!(
            err.source().map(ToString::to_string),
            Some(want.to_string())
        );
    }
}

#[test]
fn a_log_naming_a_core_the_run_lacks_fails_at_dag() {
    let (w, run) = recorded();
    let v = &run.variants[0];
    let mut logs = v.logs.clone();
    logs[1].core = CoreId::new(7);
    for engine in engines(&v.ordering) {
        let err = replay_on(&w.programs, &w.initial_mem, &logs, engine)
            .expect_err("core 7 of a 2-core run");
        let want = ReplayError::CoreOutOfRange {
            core: 7,
            threads: 2,
        };
        assert_eq!(err, ReplayStageError::Dag(want), "{engine:?}");
        assert!(err.to_string().starts_with("DAG build failed: "), "{err}");
    }
}

/// Only the threaded engine reads the recorded partial order.
#[test]
fn an_ordering_naming_an_interval_the_logs_lack_fails_at_dag() {
    let (w, run) = recorded();
    let v = &run.variants[0];
    let mut ordering = v.ordering.clone();
    ordering[0].preds[0].push((CoreId::new(7), 0));
    let engine = Engine::Threaded(2, Some(&ordering));
    let err = replay_on(&w.programs, &w.initial_mem, &v.logs, engine)
        .expect_err("the ordering names core 7's interval 0");
    assert_eq!(
        err,
        ReplayStageError::Dag(ReplayError::CoreOutOfRange {
            core: 7,
            threads: 2
        })
    );
    assert!(err.to_string().starts_with("DAG build failed: "), "{err}");
}

#[test]
fn a_program_shorter_than_its_log_fails_at_replay() {
    let (mut w, run) = recorded();
    let v = &run.variants[0];
    let mut b = ProgramBuilder::new();
    b.halt();
    w.programs[0] = b.build();
    for engine in engines(&v.ordering) {
        let err = replay_on(&w.programs, &w.initial_mem, &v.logs, engine)
            .expect_err("the log runs past the program");
        assert!(
            matches!(err, ReplayStageError::Replay(_)),
            "{engine:?}: {err}"
        );
        assert!(err.to_string().starts_with("replay failed: "), "{err}");
    }
}
