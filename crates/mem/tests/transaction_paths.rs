//! Targeted tests of the less-travelled memory-system paths: MSHR request
//! upgrading, L2 servicing after write-backs, ring-latency scaling, and
//! quick-grant conversions.

use rr_mem::{
    AccessKind, CoreId, LineAddr, MemConfig, MemTickOutput, MemorySystem, MesiState, Response,
};

fn core(i: u8) -> CoreId {
    CoreId::new(i)
}

fn line(n: u64) -> LineAddr {
    LineAddr::from_line_number(n)
}

fn pending(r: Response) -> u64 {
    match r {
        Response::Pending { req } => req,
        other => panic!("expected Pending, got {other:?}"),
    }
}

fn drain(mem: &mut MemorySystem, start: u64, reqs: &[u64]) -> u64 {
    let mut remaining: Vec<u64> = reqs.to_vec();
    let mut out = MemTickOutput::default();
    for cycle in start..start + 10_000 {
        mem.tick(cycle, &mut out);
        for c in &out.completions {
            remaining.retain(|&r| r != c.req);
        }
        if remaining.is_empty() {
            return cycle;
        }
    }
    panic!("requests {remaining:?} never completed");
}

#[test]
fn pending_load_upgraded_by_store_becomes_one_write_transaction() {
    // A load miss queued but not yet granted; a store to the same line
    // arrives: the queued request is upgraded to a write and both complete
    // from a single GetM.
    let mut mem = MemorySystem::new(MemConfig::splash_default(2));
    let r0 = pending(mem.access(0, core(0), AccessKind::Load, line(5)));
    let r1 = pending(mem.access(0, core(0), AccessKind::Store, line(5)));
    drain(&mut mem, 1, &[r0, r1]);
    assert_eq!(mem.stats().transactions(), 1, "one merged transaction");
    assert_eq!(mem.stats().getm, 1, "the merged transaction is a write");
    assert_eq!(mem.l1_state(core(0), line(5)), MesiState::Modified);
}

#[test]
fn l2_services_lines_after_dirty_writeback() {
    // Core 0 dirties a line, then a conflicting install evicts it (tiny
    // L1); core 1's later miss must be serviced by the L2, not memory.
    let mut cfg = MemConfig::splash_default(2);
    cfg.l1_bytes = 4 * 32; // one 4-way set
    let mut mem = MemorySystem::new(cfg);
    let mut cycle = 1;
    let r = pending(mem.access(0, core(0), AccessKind::Store, line(0)));
    cycle = drain(&mut mem, cycle, &[r]) + 1;
    // Evict line 0 by filling the set.
    for n in 1..5 {
        let r = pending(mem.access(cycle, core(0), AccessKind::Load, line(n)));
        cycle = drain(&mut mem, cycle + 1, &[r]) + 1;
    }
    assert_eq!(mem.l1_state(core(0), line(0)), MesiState::Invalid);
    assert_eq!(mem.stats().dirty_evictions, 1);
    let mem_fetches_before = mem.stats().src_memory;
    let r = pending(mem.access(cycle, core(1), AccessKind::Load, line(0)));
    drain(&mut mem, cycle + 1, &[r]);
    assert_eq!(
        mem.stats().src_memory,
        mem_fetches_before,
        "the written-back line must come from the L2"
    );
    assert_eq!(mem.stats().src_l2, 1);
}

#[test]
fn ring_latency_scales_with_core_count() {
    // The same cold miss takes longer on a larger ring.
    let mut t = Vec::new();
    for cores in [2usize, 8, 16] {
        let mut mem = MemorySystem::new(MemConfig::splash_default(cores));
        let r = pending(mem.access(0, core(0), AccessKind::Load, line(1)));
        t.push(drain(&mut mem, 1, &[r]));
    }
    assert!(t[0] < t[1] && t[1] < t[2], "latencies must grow: {t:?}");
}

#[test]
fn rmw_acquires_exclusive_ownership() {
    let mut mem = MemorySystem::new(MemConfig::splash_default(2));
    // Both cores read the line first (shared).
    let r0 = pending(mem.access(0, core(0), AccessKind::Load, line(9)));
    let c = drain(&mut mem, 1, &[r0]);
    let r1 = pending(mem.access(c + 1, core(1), AccessKind::Load, line(9)));
    let c = drain(&mut mem, c + 2, &[r1]);
    assert_eq!(mem.l1_state(core(0), line(9)), MesiState::Shared);
    // Core 0's RMW upgrades and invalidates core 1.
    let r2 = pending(mem.access(c + 1, core(0), AccessKind::Rmw, line(9)));
    drain(&mut mem, c + 2, &[r2]);
    assert_eq!(mem.l1_state(core(0), line(9)), MesiState::Modified);
    assert_eq!(mem.l1_state(core(1), line(9)), MesiState::Invalid);
    assert_eq!(mem.stats().upgrades, 1);
}

#[test]
fn snoopy_snoops_count_observers() {
    // 4 cores: one GetM must deliver 3 observer notifications.
    let mut mem = MemorySystem::new(MemConfig::splash_default(4));
    let r = pending(mem.access(0, core(0), AccessKind::Store, line(3)));
    drain(&mut mem, 1, &[r]);
    assert_eq!(mem.stats().snoops_delivered, 3);
}

#[test]
fn queue_wait_accumulates_under_contention() {
    let mut mem = MemorySystem::new(MemConfig::splash_default(4));
    // Four cores hit the same line: the bus serializes them.
    let reqs: Vec<u64> = (0..4)
        .map(|i| pending(mem.access(0, core(i), AccessKind::Store, line(7))))
        .collect();
    drain(&mut mem, 1, &reqs);
    assert!(
        mem.stats().queue_wait_cycles > 3 * mem.config().memory_total_latency() / 2,
        "same-line contention must serialize: waited {} cycles",
        mem.stats().queue_wait_cycles
    );
}
