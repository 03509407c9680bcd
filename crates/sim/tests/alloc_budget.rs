//! Allocation budget of the record path: recording a SPLASH-style program
//! with the paper's four recorder variants may make at most
//! [`MAX_ALLOCS_PER_CYCLE`] heap allocations per simulated cycle, set-up
//! and log growth included.
//!
//! The cycle loop itself allocates nothing once its buffers have grown;
//! what remains is per-transaction and per-interval bookkeeping (request
//! lists, log entries, ordering edges). A `Vec` or map built afresh on
//! every cycle, per core or per snoop puts the count well above the bound:
//! before the loop was made allocation-free it stood at 51–58 per cycle on
//! these programs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rr_sim::{MachineConfig, RecordSession, RecorderSpec};

const MAX_ALLOCS_PER_CYCLE: f64 = 10.0;

/// Counts heap allocations (including reallocations) per thread, so tests
/// running in parallel do not count each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Records `name` at 8 cores, size 1, with the paper's four variants and
/// returns `(allocations, simulated cycles)` of the recording alone.
fn record(name: &str) -> (u64, u64) {
    let w = rr_workloads::by_name(name, 8, 1).expect("known workload");
    let cfg = MachineConfig::splash_default(w.programs.len());
    let specs = RecorderSpec::paper_matrix();
    let session = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&cfg)
        .specs(&specs);
    let before = allocs();
    let run = session.run().expect("records");
    let made = allocs() - before;
    (made, run.cycles)
}

fn assert_within_budget(name: &str) {
    let (made, cycles) = record(name);
    let per_cycle = made as f64 / cycles as f64;
    println!("{name}: {made} allocations over {cycles} cycles = {per_cycle:.2}/cycle");
    assert!(
        per_cycle <= MAX_ALLOCS_PER_CYCLE,
        "{name}: {per_cycle:.2} heap allocations per simulated cycle \
         ({made} over {cycles} cycles) exceeds the budget of {MAX_ALLOCS_PER_CYCLE}"
    );
}

#[test]
fn ocean_records_within_the_allocation_budget() {
    assert_within_budget("ocean");
}

#[test]
fn radix_records_within_the_allocation_budget() {
    assert_within_budget("radix");
}

#[test]
fn water_nsq_records_within_the_allocation_budget() {
    assert_within_budget("water_nsq");
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocs();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
    assert!(allocs() > before, "a fresh Vec must be counted");
    drop(v);
}
