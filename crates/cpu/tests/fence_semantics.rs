//! Observable release-consistency semantics of fences and atomics in the
//! core: acquire blocks younger loads, release drains the write buffer,
//! atomics do both — checked through the perform-event stream.

use rr_cpu::{Core, CoreObserver, CpuConfig, PerformRecord};
use rr_isa::{FenceKind, MemImage, Program, ProgramBuilder, Reg};
use rr_mem::{AccessKind, CoreId, MemConfig, MemTickOutput, MemorySystem};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Collects perform events in order, with cycles.
#[derive(Default)]
struct PerformLog {
    events: Vec<(u64, AccessKind, u64, u64)>, // (seq, kind, addr, cycle)
}

impl CoreObserver for PerformLog {
    fn on_dispatch(&mut self, _seq: u64, _is_mem: bool) -> bool {
        true
    }
    fn on_perform(&mut self, rec: &PerformRecord) {
        self.events.push((rec.seq, rec.kind, rec.addr, rec.cycle));
    }
    fn on_retire(&mut self, _s: u64, _m: bool, _c: u64) {}
    fn on_squash_after(&mut self, seq: u64, _cycle: u64) {
        self.events.retain(|e| e.0 <= seq);
    }
}

fn run(p: &Program) -> PerformLog {
    let mut mem = MemorySystem::new(MemConfig::splash_default(1));
    let mut img = MemImage::new();
    let mut core = Core::new(CoreId::new(0), CpuConfig::splash_default(), p);
    let mut obs = PerformLog::default();
    let mut cycle = 0;
    let mut out = MemTickOutput::default();
    loop {
        mem.tick(cycle, &mut out);
        for c in &out.completions {
            core.push_completion(c.req);
        }
        core.tick(cycle, &mut img, &mut mem, &mut obs);
        if core.is_done() && mem.quiescent() {
            return obs;
        }
        cycle += 1;
        assert!(cycle < 1_000_000, "deadlock");
    }
}

fn perform_cycle_of(log: &PerformLog, addr: u64) -> u64 {
    log.events
        .iter()
        .find(|e| e.2 == addr)
        .unwrap_or_else(|| panic!("no perform at {addr:#x}"))
        .3
}

#[test]
fn without_acquire_a_young_load_overtakes_a_miss() {
    // Cold miss to A (slow), then a load to B: without a fence, B performs
    // before A.
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x1000);
    b.load_imm(r(2), 0x8000);
    b.load(r(3), r(1), 0); // A: cold miss
    b.load(r(4), r(2), 0); // B: also a miss, but issued concurrently
    b.halt();
    let log = run(&b.build());
    // Both miss; they overlap — B must NOT wait for A's completion plus
    // its own full latency (i.e. performs within the overlap window).
    let (a, bb) = (
        perform_cycle_of(&log, 0x1000),
        perform_cycle_of(&log, 0x8000),
    );
    assert!(bb < a + 50, "loads should overlap: A at {a}, B at {bb}");
}

#[test]
fn acquire_fence_blocks_younger_loads() {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x1000);
    b.load_imm(r(2), 0x8000);
    b.load(r(3), r(1), 0); // A: cold miss (~170 cycles)
    b.fence(FenceKind::Acquire);
    b.load(r(4), r(2), 0); // B: must wait for the fence to retire
    b.halt();
    let log = run(&b.build());
    let (a, bb) = (
        perform_cycle_of(&log, 0x1000),
        perform_cycle_of(&log, 0x8000),
    );
    assert!(
        bb > a,
        "B ({bb}) must perform after A ({a}): the acquire fence orders them"
    );
}

#[test]
fn release_fence_drains_the_write_buffer_before_later_stores() {
    // ST A (cold miss, slow); release; ST B. Without the fence the two
    // independent stores overlap; with it, B's perform must follow A's.
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x1000);
    b.load_imm(r(2), 0x8000);
    b.load_imm(r(3), 7);
    b.store(r(3), r(1), 0);
    b.fence(FenceKind::Release);
    b.store(r(3), r(2), 0);
    b.halt();
    let log = run(&b.build());
    let (a, bb) = (
        perform_cycle_of(&log, 0x1000),
        perform_cycle_of(&log, 0x8000),
    );
    assert!(bb > a, "B ({bb}) must perform after A ({a})");
}

#[test]
fn stores_overlap_without_a_release_fence() {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x1000);
    b.load_imm(r(2), 0x8000);
    b.load_imm(r(3), 7);
    b.store(r(3), r(1), 0);
    b.store(r(3), r(2), 0);
    b.halt();
    let log = run(&b.build());
    let (a, bb) = (
        perform_cycle_of(&log, 0x1000),
        perform_cycle_of(&log, 0x8000),
    );
    // Cold misses ~170 cycles each; overlapping means B completes well
    // before A + 170.
    assert!(
        bb < a + 50,
        "independent stores should overlap: {a} vs {bb}"
    );
}

#[test]
fn atomics_order_both_sides() {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x1000);
    b.load_imm(r(2), 0x8000);
    b.load_imm(r(3), 0x4000);
    b.load_imm(r(4), 1);
    b.store(r(4), r(1), 0); // older store
    b.fetch_add(r(5), r(3), r(4)); // atomic: drains WB, blocks younger
    b.load(r(6), r(2), 0); // younger load
    b.halt();
    let log = run(&b.build());
    let st = perform_cycle_of(&log, 0x1000);
    let rmw = perform_cycle_of(&log, 0x4000);
    let ld = perform_cycle_of(&log, 0x8000);
    assert!(
        st < rmw,
        "atomic must wait for the write buffer ({st} !< {rmw})"
    );
    assert!(
        rmw < ld,
        "younger load must wait for the atomic ({rmw} !< {ld})"
    );
}

#[test]
fn same_line_stores_stay_ordered_in_the_write_buffer() {
    // Two stores to the same line must perform in program order even
    // though independent-line stores may overlap.
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x1000);
    b.load_imm(r(2), 1);
    b.load_imm(r(3), 2);
    b.store(r(2), r(1), 0); // word 0
    b.store(r(3), r(1), 8); // word 1, same 32-byte line
    b.halt();
    let log = run(&b.build());
    let first = perform_cycle_of(&log, 0x1000);
    let second = perform_cycle_of(&log, 0x1008);
    assert!(
        first <= second,
        "same-line stores reordered: {first} vs {second}"
    );
}
