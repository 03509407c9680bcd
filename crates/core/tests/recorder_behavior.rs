//! Scripted-event tests of the RelaxReplay recorder: the same perform /
//! retire / snoop sequences are fed directly through the observer
//! interface, and the produced logs are checked entry by entry against the
//! paper's semantics (§3.3, Figure 4).

use relaxreplay::{Design, IntervalLog, LogEntry, Recorder, RecorderConfig};
use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::{AccessKind, CoreId, LineAddr};

fn cfg(design: Design, max: Option<u32>) -> RecorderConfig {
    RecorderConfig::splash_default(design, max)
}

fn recorder(design: Design) -> Recorder {
    Recorder::new(CoreId::new(0), cfg(design, None))
}

fn perform(rec: &mut Recorder, seq: u64, kind: AccessKind, addr: u64, cycle: u64) {
    let (loaded, stored) = match kind {
        AccessKind::Load => (Some(addr ^ 0xf00d), None),
        AccessKind::Store => (None, Some(addr ^ 0xbeef)),
        AccessKind::Rmw => (Some(1), Some(2)),
    };
    rec.on_perform(&PerformRecord {
        seq,
        kind,
        addr,
        line: LineAddr::containing(addr),
        loaded,
        stored,
        cycle,
    });
}

/// Dispatch + perform + retire a memory access, fully in order.
fn quick_access(rec: &mut Recorder, seq: u64, kind: AccessKind, addr: u64, cycle: u64) {
    assert!(rec.on_dispatch(seq, true));
    perform(rec, seq, kind, addr, cycle);
    rec.on_retire(seq, true, cycle);
}

fn entries(log: &IntervalLog) -> &[LogEntry] {
    &log.entries
}

#[test]
fn fully_in_order_run_logs_one_block() {
    let mut rec = recorder(Design::Base);
    for seq in 0..5 {
        quick_access(&mut rec, seq, AccessKind::Load, 0x1000 + seq * 8, 10 + seq);
        rec.tick(10 + seq);
    }
    rec.finish(100);
    let log = rec.into_recordings().remove(0).log;
    assert_eq!(
        entries(&log),
        &[
            LogEntry::InorderBlock { instrs: 5 },
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 100
            },
        ]
    );
}

#[test]
fn base_and_opt_differ_on_unobserved_interval_crossing() {
    // Two loads (lines A, B) perform in interval 0; a remote write to A
    // terminates the interval before either is counted. Base must log both
    // as reordered; Opt must log only A (B saw no conflicting traffic).
    let run = |design: Design| -> IntervalLog {
        let mut rec = recorder(design);
        assert!(rec.on_dispatch(0, true));
        assert!(rec.on_dispatch(1, true));
        perform(&mut rec, 0, AccessKind::Load, 0x100, 5); // line A
        perform(&mut rec, 1, AccessKind::Load, 0x200, 6); // line B
        rec.on_snoop(LineAddr::containing(0x100), true, 8); // conflicts with A
        rec.on_retire(0, true, 9);
        rec.on_retire(1, true, 9);
        rec.tick(10);
        rec.finish(20);
        rec.into_recordings().remove(0).log
    };

    let base = run(Design::Base);
    assert_eq!(
        entries(&base),
        &[
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 8
            },
            LogEntry::ReorderedLoad {
                value: 0x100 ^ 0xf00d
            },
            LogEntry::ReorderedLoad {
                value: 0x200 ^ 0xf00d
            },
            LogEntry::IntervalFrame {
                cisn: 1,
                timestamp: 20
            },
        ]
    );

    let opt = run(Design::Opt);
    assert_eq!(
        entries(&opt),
        &[
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 8
            },
            LogEntry::ReorderedLoad {
                value: 0x100 ^ 0xf00d
            },
            // B moved across intervals: logged as part of an in-order block.
            LogEntry::InorderBlock { instrs: 1 },
            LogEntry::IntervalFrame {
                cisn: 1,
                timestamp: 20
            },
        ]
    );
}

#[test]
fn reordered_store_carries_offset_across_intervals() {
    let mut rec = recorder(Design::Base);
    assert!(rec.on_dispatch(0, true));
    perform(&mut rec, 0, AccessKind::Store, 0x300, 5); // performs in interval 0
                                                       // Two conflicting snoops (both hit the write signature) terminate two
                                                       // intervals before the store is counted.
    rec.on_snoop(LineAddr::containing(0x300), false, 6);
    // Second termination needs something in the new interval's signature:
    // another performed access.
    assert!(rec.on_dispatch(1, true));
    perform(&mut rec, 1, AccessKind::Load, 0x400, 7);
    rec.on_snoop(LineAddr::containing(0x400), true, 8);
    rec.on_retire(0, true, 9);
    rec.on_retire(1, true, 9);
    rec.tick(10);
    rec.finish(20);
    let log = rec.into_recordings().remove(0).log;
    assert_eq!(
        entries(&log),
        &[
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 6
            },
            LogEntry::IntervalFrame {
                cisn: 1,
                timestamp: 8
            },
            LogEntry::ReorderedStore {
                addr: 0x300,
                value: 0x300 ^ 0xbeef,
                offset: 2
            },
            LogEntry::ReorderedLoad {
                value: 0x400 ^ 0xf00d
            },
            LogEntry::IntervalFrame {
                cisn: 2,
                timestamp: 20
            },
        ]
    );
}

#[test]
fn remote_read_conflicts_only_with_writes() {
    let mut rec = recorder(Design::Base);
    quick_access(&mut rec, 0, AccessKind::Load, 0x100, 5);
    // A remote *read* of a line we only read must not terminate.
    rec.on_snoop(LineAddr::containing(0x100), false, 6);
    rec.tick(7);
    rec.finish(10);
    let log = rec.into_recordings().remove(0).log;
    assert_eq!(log.intervals(), 1, "no conflict termination expected");
    assert_eq!(log.entries[0], LogEntry::InorderBlock { instrs: 1 });
}

#[test]
fn max_interval_size_splits_intervals() {
    let mut rec = Recorder::new(CoreId::new(0), cfg(Design::Base, Some(3)));
    for seq in 0..6 {
        quick_access(&mut rec, seq, AccessKind::Load, 0x1000 + seq * 64, 10 + seq);
        rec.tick(10 + seq);
    }
    // Let counting drain fully.
    for c in 20..30 {
        rec.tick(c);
    }
    rec.finish(40);
    let log = rec.into_recordings().remove(0).log;
    assert_eq!(log.intervals(), 2);
    assert_eq!(
        log.entries
            .iter()
            .filter_map(|e| match e {
                LogEntry::InorderBlock { instrs } => Some(*instrs),
                _ => None,
            })
            .collect::<Vec<_>>(),
        vec![3, 3]
    );
}

#[test]
fn nmi_groups_nonmemory_instructions() {
    let mut rec = recorder(Design::Base);
    // 20 non-memory instructions: a filler at 15, 5 pending.
    for seq in 0..20 {
        assert!(rec.on_dispatch(seq, false));
        rec.on_retire(seq, false, seq);
    }
    // A memory access carrying the remaining NMI count of 5.
    quick_access(&mut rec, 20, AccessKind::Store, 0x500, 25);
    rec.tick(26);
    rec.tick(27);
    rec.finish(30);
    let log = rec.into_recordings().remove(0).log;
    assert_eq!(
        entries(&log),
        &[
            LogEntry::InorderBlock { instrs: 21 },
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 30
            },
        ]
    );
}

#[test]
fn squash_discards_uncounted_suffix_and_recovers_nmi() {
    let mut rec = recorder(Design::Base);
    // Dispatch: 2 non-mem (survive), then a mem + 3 non-mem + mem that are
    // all squashed.
    assert!(rec.on_dispatch(0, false));
    assert!(rec.on_dispatch(1, false));
    assert!(rec.on_dispatch(2, true)); // will be squashed
    assert!(rec.on_dispatch(3, false));
    assert!(rec.on_dispatch(4, false));
    assert!(rec.on_dispatch(5, false));
    assert!(rec.on_dispatch(6, true)); // will be squashed
    rec.on_squash_after(1, 5);
    // Re-dispatch the correct path: one mem access, which must carry
    // NMI = 2 (the two surviving non-memory instructions).
    assert!(rec.on_dispatch(2, true));
    rec.on_retire(0, false, 5);
    rec.on_retire(1, false, 5);
    perform(&mut rec, 2, AccessKind::Load, 0x700, 6);
    rec.on_retire(2, true, 7);
    rec.tick(8);
    rec.finish(10);
    let log = rec.into_recordings().remove(0).log;
    assert_eq!(
        entries(&log),
        &[
            LogEntry::InorderBlock { instrs: 3 },
            LogEntry::IntervalFrame {
                cisn: 0,
                timestamp: 10
            },
        ]
    );
}

#[test]
fn traq_full_stalls_dispatch() {
    let mut config = cfg(Design::Base, None);
    config.traq_entries = 2;
    let mut rec = Recorder::new(CoreId::new(0), config);
    assert!(rec.on_dispatch(0, true));
    assert!(rec.on_dispatch(1, true));
    assert!(!rec.on_dispatch(2, true), "TRAQ full must refuse");
    // Refusal must be stateless: retrying after draining works.
    perform(&mut rec, 0, AccessKind::Load, 0x10, 1);
    rec.on_retire(0, true, 1);
    rec.tick(2);
    assert!(rec.on_dispatch(2, true));
}

#[test]
fn counting_is_rate_limited_per_cycle() {
    let mut rec = recorder(Design::Base);
    for seq in 0..5 {
        quick_access(&mut rec, seq, AccessKind::Load, 0x1000 + seq * 64, 3);
    }
    assert_eq!(rec.traq_len(), 5);
    rec.tick(4); // counts at most 2
    assert_eq!(rec.traq_len(), 3);
    rec.tick(5);
    assert_eq!(rec.traq_len(), 1);
}

#[test]
fn dirty_eviction_conservatively_reorders_in_opt() {
    let mut rec = recorder(Design::Opt);
    assert!(rec.on_dispatch(0, true));
    perform(&mut rec, 0, AccessKind::Load, 0x900, 2);
    // Interval changes for an unrelated reason (conflict on another line).
    assert!(rec.on_dispatch(1, true));
    perform(&mut rec, 1, AccessKind::Load, 0xa00, 3);
    rec.on_snoop(LineAddr::containing(0xa00), true, 4);
    // Directory mode: our own dirty eviction of line 0x900 is reported;
    // the still-uncounted load must now be declared reordered.
    rec.on_dirty_eviction(LineAddr::containing(0x900), 4);
    rec.on_retire(0, true, 5);
    rec.on_retire(1, true, 5);
    rec.tick(6);
    rec.finish(10);
    let stats_reordered = rec.stats(0).reordered_loads;
    assert_eq!(stats_reordered, 2, "evicted line + conflicting line");
}

#[test]
fn reordered_rmw_logs_combined_entry() {
    let mut rec = recorder(Design::Base);
    assert!(rec.on_dispatch(0, true));
    perform(&mut rec, 0, AccessKind::Rmw, 0x40, 2);
    rec.on_snoop(LineAddr::containing(0x40), true, 3);
    rec.on_retire(0, true, 4);
    rec.tick(5);
    rec.finish(8);
    let log = rec.into_recordings().remove(0).log;
    assert!(matches!(
        log.entries[1],
        LogEntry::ReorderedRmw {
            loaded: 1,
            addr: 0x40,
            stored: Some(2),
            offset: 1
        }
    ));
}

#[test]
fn stats_reordered_fraction() {
    let mut rec = recorder(Design::Base);
    quick_access(&mut rec, 0, AccessKind::Load, 0x100, 1);
    rec.tick(1); // count the first load while still in interval 0
    assert!(rec.on_dispatch(1, true));
    perform(&mut rec, 1, AccessKind::Load, 0x200, 2);
    rec.on_snoop(LineAddr::containing(0x200), true, 3);
    rec.on_retire(1, true, 4);
    rec.tick(5);
    rec.tick(6);
    rec.finish(9);
    let s = rec.stats(0);
    assert_eq!(s.counted_mem(), 2);
    assert_eq!(s.reordered(), 1);
    assert!((s.reordered_fraction() - 0.5).abs() < 1e-12);
}
