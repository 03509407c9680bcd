//! Regression test for the local same-address anti-dependence hazard in
//! RelaxReplay_Opt (see DESIGN.md §2.2).
//!
//! Scenario: a load L performs in interval I; the same core's *younger*
//! store S to the same line also performs in I (stores drain from the write
//! buffer while the TRAQ is backed up); the interval then terminates, and
//! both are counted in I+1. S is reordered and will be patched to the end
//! of I. If Opt declared L "in order" (moved to I+1), replay would execute
//! L *after* S's patched store and read the wrong value. The Snoop Table as
//! the paper describes it only observes remote transactions and cannot see
//! this; our recorder also records the core's own store performs, which
//! forces L to be logged by value.

use relaxreplay::{Design, LogEntry, Recorder, RecorderConfig};
use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::{AccessKind, CoreId, LineAddr};

fn perform(rec: &mut Recorder, seq: u64, kind: AccessKind, addr: u64, value: u64, cycle: u64) {
    let (loaded, stored) = match kind {
        AccessKind::Load => (Some(value), None),
        AccessKind::Store => (None, Some(value)),
        AccessKind::Rmw => (Some(value), Some(value + 1)),
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

#[test]
fn opt_logs_load_that_its_own_younger_store_would_overtake() {
    let mut rec = Recorder::new(
        CoreId::new(0),
        RecorderConfig::splash_default(Design::Opt, None),
    );
    // Program order: L (load X), S (store X). Both perform in interval 0;
    // L first (value 7), then S (value 9) — S drained from the write
    // buffer after retiring, while neither is counted yet.
    assert!(rec.on_dispatch(0, true)); // L
    assert!(rec.on_dispatch(1, true)); // S
    perform(&mut rec, 0, AccessKind::Load, 0x100, 7, 10);
    rec.on_retire(0, true, 11);
    rec.on_retire(1, true, 12);
    perform(&mut rec, 1, AccessKind::Store, 0x100, 9, 13);
    // A remote conflict on an unrelated line the core also touched
    // terminates interval 0 before anything is counted.
    assert!(rec.on_dispatch(2, true));
    perform(&mut rec, 2, AccessKind::Load, 0x900, 1, 14);
    rec.on_retire(2, true, 14);
    rec.on_snoop(LineAddr::containing(0x900), true, 15);
    // Count everything, finish.
    for c in 16..24 {
        rec.tick(c);
    }
    rec.finish(30);
    let log = rec.into_recordings().remove(0).log;
    // L must be logged as a reordered load carrying its value (7). If it
    // were moved into interval 1 as in-order, replay would read 9 from the
    // patched store.
    assert!(
        log.entries
            .iter()
            .any(|e| matches!(e, LogEntry::ReorderedLoad { value: 7 })),
        "the load must be logged by value; log: {:?}",
        log.entries
    );
    // The store itself may legitimately move in order into interval 1 (no
    // traffic touched its line after *its* perform): replay then executes
    // it after the injected load, which is the correct program order.
    let store_reordered = log
        .entries
        .iter()
        .any(|e| matches!(e, LogEntry::ReorderedStore { value: 9, .. }));
    let store_in_order = log
        .entries
        .iter()
        .any(|e| matches!(e, LogEntry::InorderBlock { .. }));
    assert!(store_reordered || store_in_order, "log: {:?}", log.entries);
}

#[test]
fn opt_store_does_not_flag_itself() {
    // A store whose perform/count window crosses an interval with no other
    // traffic on its line must still be declared reordered only because of
    // the Base rule... no: in Opt it must NOT be flagged by its *own*
    // Snoop Table record (sampling happens after recording). With no
    // remote traffic, a moved store stays in order.
    let mut rec = Recorder::new(
        CoreId::new(0),
        RecorderConfig::splash_default(Design::Opt, None),
    );
    assert!(rec.on_dispatch(0, true));
    perform(&mut rec, 0, AccessKind::Store, 0x100, 5, 10);
    rec.on_retire(0, true, 11);
    // Unrelated conflict terminates the interval before counting.
    assert!(rec.on_dispatch(1, true));
    perform(&mut rec, 1, AccessKind::Load, 0x900, 1, 12);
    rec.on_retire(1, true, 12);
    rec.on_snoop(LineAddr::containing(0x900), true, 13);
    for c in 14..20 {
        rec.tick(c);
    }
    rec.finish(30);
    assert_eq!(rec.stats(0).reordered_stores, 0, "{:?}", rec.stats(0));
    assert_eq!(rec.stats(0).moved_across_intervals, 1);
}
