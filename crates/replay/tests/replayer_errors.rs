//! Error-path tests of the sequential replayer: malformed logs are
//! reported precisely, never executed past the inconsistency.

use relaxreplay::{IntervalLog, IntervalOrdering, LogEntry};
use rr_isa::{MemImage, Program, ProgramBuilder, Reg};
use rr_mem::CoreId;
use rr_replay::{
    execute_sequential, patch, replay, CostModel, IntervalDag, PatchError, PatchedLog, ReplayError,
    ReplayOutcome,
};

fn tiny_program() -> rr_isa::Program {
    let mut b = ProgramBuilder::new();
    b.load_imm(Reg::new(1), 5); // 1 instruction
    b.halt(); // 2nd
    b.build()
}

fn log_of(entries: Vec<LogEntry>) -> IntervalLog {
    IntervalLog {
        core: CoreId::new(0),
        entries,
    }
}

/// The list-schedule replay: the partial-order DAG run on the
/// single-thread executor in its list schedule's order for `workers`
/// modelled replay cores.
fn list_scheduled(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: &[IntervalOrdering],
    workers: usize,
) -> Result<ReplayOutcome, ReplayError> {
    let cost = CostModel::splash_default();
    let dag = IntervalDag::partial_order(programs.len(), logs, orderings)?;
    let order = dag.list_schedule(&cost, workers).0;
    execute_sequential(programs, &dag, &order, MemImage::new(), &cost, &mut ())
}

#[test]
fn thread_count_mismatch_is_reported() {
    let p = tiny_program();
    let err = replay(
        std::slice::from_ref(&p),
        &[],
        MemImage::new(),
        &CostModel::splash_default(),
    )
    .expect_err("must fail");
    assert_eq!(
        err,
        ReplayError::ThreadCountMismatch {
            programs: 1,
            logs: 0
        }
    );
}

#[test]
fn block_longer_than_the_program_is_reported() {
    let p = tiny_program();
    let log = log_of(vec![
        LogEntry::InorderBlock { instrs: 99 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&log).expect("patches");
    let err = replay(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        MemImage::new(),
        &CostModel::splash_default(),
    )
    .expect_err("must fail");
    assert!(matches!(err, ReplayError::BlockEndedEarly { remaining, .. } if remaining == 97));
}

#[test]
fn injecting_a_load_at_a_non_load_is_reported() {
    let p = tiny_program(); // first instruction is a LoadImm, not a Load
    let log = log_of(vec![
        LogEntry::ReorderedLoad { value: 7 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&log).expect("patches");
    let err = replay(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        MemImage::new(),
        &CostModel::splash_default(),
    )
    .expect_err("must fail");
    assert!(matches!(
        err,
        ReplayError::InstructionMismatch {
            expected: "load",
            ..
        }
    ));
}

#[test]
fn log_ending_exactly_at_the_halt_is_accepted() {
    // The log covers only 1 of the program's 2 instructions, but the PC
    // parks on the Halt — a valid thread end by design.
    let p = tiny_program();
    let log = log_of(vec![
        LogEntry::InorderBlock { instrs: 1 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&log).expect("patches");
    replay(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        MemImage::new(),
        &CostModel::splash_default(),
    )
    .expect("a PC parked on Halt is a valid end");
}

#[test]
fn longer_program_with_short_log_is_incomplete() {
    let mut b = ProgramBuilder::new();
    b.load_imm(Reg::new(1), 5);
    b.load_imm(Reg::new(2), 6);
    b.load_imm(Reg::new(3), 7);
    b.halt();
    let p = b.build();
    let log = log_of(vec![
        LogEntry::InorderBlock { instrs: 1 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&log).expect("patches");
    let err = replay(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        MemImage::new(),
        &CostModel::splash_default(),
    )
    .expect_err("must fail");
    assert!(matches!(err, ReplayError::IncompleteReplay { .. }));
}

/// Regression: the parallel replayer runs the same end-state check as
/// `replay`. It once accepted a log that stops after 1 of the program's
/// 3 instructions.
#[test]
fn parallel_replay_with_short_log_is_incomplete() {
    let mut b = ProgramBuilder::new();
    b.load_imm(Reg::new(1), 5);
    b.load_imm(Reg::new(2), 6);
    b.load_imm(Reg::new(3), 7);
    b.halt();
    let p = b.build();
    let log = log_of(vec![
        LogEntry::InorderBlock { instrs: 1 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&log).expect("patches");
    let ordering = IntervalOrdering {
        preds: vec![vec![]],
        barriers: vec![],
    };
    let err = list_scheduled(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        std::slice::from_ref(&ordering),
        2,
    )
    .expect_err("must fail");
    assert_eq!(
        err,
        ReplayError::IncompleteReplay {
            core: CoreId::new(0)
        }
    );
}

/// Regression: a log claiming a core outside the replayed thread set must
/// yield a typed error. Pre-fix, the scheduler indexed
/// `interps[interval.core]` unchecked and panicked out of bounds on a
/// corrupted (or misattributed) log.
#[test]
fn out_of_range_core_is_a_typed_error() {
    let programs = vec![tiny_program(), tiny_program()];
    let log = IntervalLog {
        core: CoreId::new(7), // only threads 0–1 exist
        entries: vec![
            LogEntry::InorderBlock { instrs: 2 },
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 1,
            },
        ],
    };
    let ok = log_of(vec![
        LogEntry::InorderBlock { instrs: 2 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 0,
        },
    ]);
    let patched = vec![patch(&ok).expect("patches"), patch(&log).expect("patches")];
    let err = replay(
        &programs,
        &patched,
        MemImage::new(),
        &CostModel::splash_default(),
    )
    .expect_err("must fail");
    assert_eq!(
        err,
        ReplayError::CoreOutOfRange {
            core: 7,
            threads: 2
        }
    );
}

/// The parallel replayer validates both the logs' own core ids and the
/// cores named by recorded predecessor edges.
#[test]
fn parallel_replay_rejects_out_of_range_cores() {
    let p = tiny_program();
    let log = IntervalLog {
        core: CoreId::new(9),
        entries: vec![
            LogEntry::InorderBlock { instrs: 2 },
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 1,
            },
        ],
    };
    let patched = patch(&log).expect("patches");
    let ordering = IntervalOrdering {
        preds: vec![vec![]],
        barriers: vec![],
    };
    let err = list_scheduled(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        std::slice::from_ref(&ordering),
        2,
    )
    .expect_err("must fail");
    assert_eq!(
        err,
        ReplayError::CoreOutOfRange {
            core: 9,
            threads: 1
        }
    );

    // An ordering edge from a phantom core is rejected too.
    let ok = log_of(vec![
        LogEntry::InorderBlock { instrs: 2 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&ok).expect("patches");
    let ordering = IntervalOrdering {
        preds: vec![vec![(CoreId::new(5), 0)]],
        barriers: vec![],
    };
    let err = list_scheduled(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        std::slice::from_ref(&ordering),
        2,
    )
    .expect_err("must fail");
    assert_eq!(
        err,
        ReplayError::CoreOutOfRange {
            core: 5,
            threads: 1
        }
    );
}

#[test]
fn parallel_replay_rejects_length_mismatch() {
    let p = tiny_program();
    let log = log_of(vec![
        LogEntry::InorderBlock { instrs: 2 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let patched = patch(&log).expect("patches");
    let err = list_scheduled(
        std::slice::from_ref(&p),
        std::slice::from_ref(&patched),
        &[], // no orderings
        2,
    )
    .expect_err("must fail");
    assert!(matches!(err, ReplayError::ThreadCountMismatch { .. }));
}

/// `execute_sequential` checks the order it is handed before running
/// anything: every node of the DAG exactly once, each after all its
/// predecessors — else a typed error naming the first bad position.
#[test]
fn execute_sequential_rejects_orders_that_are_not_topological() {
    let p = tiny_program();
    // Two intervals of one instruction each: node 0 precedes node 1.
    let log = log_of(vec![
        LogEntry::InorderBlock { instrs: 1 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
        LogEntry::InorderBlock { instrs: 1 },
        LogEntry::IntervalFrame {
            cisn: 1,
            timestamp: 2,
        },
    ]);
    let patched = patch(&log).expect("patches");
    let logs = std::slice::from_ref(&patched);
    let dag = IntervalDag::total_order(1, logs).expect("builds");
    let cost = CostModel::splash_default();
    let run = |order: &[usize]| {
        execute_sequential(
            std::slice::from_ref(&p),
            &dag,
            order,
            MemImage::new(),
            &cost,
            &mut (),
        )
    };
    run(&[0, 1]).expect("the topological order replays");
    let invalid = |position| ReplayError::InvalidOrder {
        position,
        intervals: 2,
    };
    for (what, order, position) in [
        ("out-of-range id", &[0, 2][..], 1),
        ("repeated id", &[0, 0], 1),
        ("missing node", &[0], 1),
        ("node before its predecessor", &[1, 0], 0),
    ] {
        assert_eq!(run(order).expect_err(what), invalid(position), "{what}");
    }
}

/// A CRC-valid `.rrlog` can still carry a store address no word access
/// can reach; patching rejects it instead of letting replay assert on it.
#[test]
fn crc_valid_log_with_unaligned_store_is_a_patch_error() {
    let log = log_of(vec![
        LogEntry::ReorderedStore {
            addr: 0x103,
            value: 7,
            offset: 0,
        },
        LogEntry::InorderBlock { instrs: 1 },
        LogEntry::IntervalFrame {
            cisn: 0,
            timestamp: 1,
        },
    ]);
    let decoded = relaxreplay::wire::decode_chunked(&relaxreplay::wire::encode_chunked(&log))
        .expect("the wire codec accepts any address");
    assert_eq!(
        patch(&decoded),
        Err(PatchError::UnalignedStore {
            interval: 0,
            addr: 0x103
        })
    );
}
