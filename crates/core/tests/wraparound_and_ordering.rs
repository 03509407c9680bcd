//! Edge-case tests: CISN wrap-around across the 16-bit boundary, and the
//! interval partial-order (parallel replay) bookkeeping.

use relaxreplay::{Design, LogEntry, Recorder, RecorderConfig};
use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::{AccessKind, CoreId, LineAddr};

fn quick_access(rec: &mut Recorder, seq: u64, addr: u64, cycle: u64) {
    assert!(rec.on_dispatch(seq, true));
    rec.on_perform(&PerformRecord {
        seq,
        kind: AccessKind::Load,
        addr,
        line: LineAddr::containing(addr),
        loaded: Some(seq),
        stored: None,
        cycle,
    });
    rec.on_retire(seq, true, cycle);
}

#[test]
fn cisn_wraps_across_u16_boundary() {
    // Max interval of 1 instruction: every counted access closes an
    // interval. Drive past 65536 intervals and check the frames wrap while
    // ordinals keep counting.
    let mut rec = Recorder::new(
        CoreId::new(0),
        RecorderConfig::splash_default(Design::Base, Some(1)),
    );
    let n = 66_000u64;
    for seq in 0..n {
        quick_access(&mut rec, seq, 0x1000 + (seq % 64) * 8, seq);
        rec.tick(seq);
    }
    // Drain the counting backlog (2 per tick).
    for c in n..(2 * n + 10) {
        rec.tick(c);
    }
    rec.finish(2 * n + 10);
    let log = rec.log(0);
    assert_eq!(log.intervals(), n as usize);
    // The frame CISNs wrap at 65536.
    let frames: Vec<u16> = log
        .entries
        .iter()
        .filter_map(|e| match e {
            LogEntry::IntervalFrame { cisn, .. } => Some(*cisn),
            _ => None,
        })
        .collect();
    assert_eq!(frames[0], 0);
    assert_eq!(frames[65535], 65535);
    assert_eq!(frames[65536], 0, "CISN must wrap");
    // The ordering sidecar uses non-wrapping ordinals.
    assert_eq!(rec.ordering(0).preds.len(), n as usize);
    assert_eq!(rec.intervals_completed(0), n);
}

#[test]
fn reordered_store_offset_wraps_correctly() {
    // A store performs just before the CISN wrap and is counted just
    // after: offset arithmetic must wrap (paper stores a 16-bit CISN).
    let mut rec = Recorder::new(
        CoreId::new(0),
        RecorderConfig::splash_default(Design::Base, Some(1)),
    );
    // Fill 65535 intervals (CISN 0..=65534 closed; current CISN = 65535).
    for seq in 0..65_535u64 {
        quick_access(&mut rec, seq, 0x1000 + (seq % 64) * 8, seq);
        rec.tick(seq);
        rec.tick(seq); // drain fully so counting keeps pace
    }
    // A store performs in interval 65535...
    assert!(rec.on_dispatch(70_000, true));
    rec.on_perform(&PerformRecord {
        seq: 70_000,
        kind: AccessKind::Store,
        addr: 0x9000,
        line: LineAddr::containing(0x9000),
        loaded: None,
        stored: Some(42),
        cycle: 70_000,
    });
    // ...the interval terminates twice before it is counted (once via
    // conflict on another performed line, once more via another one),
    // wrapping the CISN to 0.
    assert!(rec.on_dispatch(70_001, true));
    rec.on_perform(&PerformRecord {
        seq: 70_001,
        kind: AccessKind::Load,
        addr: 0xa000,
        line: LineAddr::containing(0xa000),
        loaded: Some(1),
        stored: None,
        cycle: 70_001,
    });
    rec.on_snoop(LineAddr::containing(0xa000), true, 70_002); // closes 65535
    rec.on_retire(70_000, true, 70_003);
    rec.on_retire(70_001, true, 70_003);
    // Counted in interval 0 (post-wrap): offset = 0 - 65535 (wrapping) = 1.
    for c in 70_004..70_010 {
        rec.tick(c);
    }
    rec.finish(70_010);
    let store_entry = rec
        .log(0)
        .entries
        .iter()
        .find_map(|e| match e {
            LogEntry::ReorderedStore { offset, value, .. } => Some((*offset, *value)),
            _ => None,
        })
        .expect("store must be logged as reordered");
    assert_eq!(
        store_entry,
        (1, 42),
        "offset must wrap across the CISN boundary"
    );
}

#[test]
fn predecessors_attach_to_the_open_interval() {
    let mut rec = Recorder::new(
        CoreId::new(0),
        RecorderConfig::splash_default(Design::Opt, None),
    );
    quick_access(&mut rec, 0, 0x100, 1);
    rec.on_predecessor(0, CoreId::new(2), 7);
    rec.on_predecessor(0, CoreId::new(1), 3);
    // Terminate via conflict.
    rec.on_snoop(LineAddr::containing(0x100), true, 5);
    // Next interval gets different predecessors.
    quick_access(&mut rec, 1, 0x200, 6);
    rec.on_predecessor(0, CoreId::new(3), 9);
    rec.tick(7);
    rec.tick(8);
    rec.finish(10);
    let ord = rec.ordering(0);
    assert_eq!(ord.preds.len(), 2);
    // One entry per source core, kept in core order.
    assert_eq!(ord.preds[0], vec![(CoreId::new(1), 3), (CoreId::new(2), 7)]);
    assert_eq!(ord.preds[1], vec![(CoreId::new(3), 9)]);
    assert!(ord.barriers.is_empty());
}

#[test]
fn dirty_eviction_marks_a_barrier_interval() {
    let mut rec = Recorder::new(
        CoreId::new(0),
        RecorderConfig::splash_default(Design::Opt, None),
    );
    // A performed store puts the line in the write signature...
    assert!(rec.on_dispatch(0, true));
    rec.on_perform(&PerformRecord {
        seq: 0,
        kind: AccessKind::Store,
        addr: 0x300,
        line: LineAddr::containing(0x300),
        loaded: None,
        stored: Some(5),
        cycle: 1,
    });
    rec.on_retire(0, true, 2);
    // ...and its dirty eviction closes the interval as a barrier.
    rec.on_dirty_eviction(LineAddr::containing(0x300), 3);
    rec.tick(4);
    rec.finish(10);
    let ord = rec.ordering(0);
    // The eviction-closed interval is a barrier; the trailing final
    // interval (with the counted store) is not.
    assert_eq!(ord.preds.len(), 2);
    assert_eq!(
        ord.barriers,
        vec![0],
        "eviction-closed interval must be a barrier"
    );
}
