//! Allocation budget of the record path: recording a SPLASH-style program
//! with the paper's four recorder variants may make at most
//! [`MAX_ALLOCS_PER_CYCLE`] heap allocations per simulated cycle, set-up
//! and log growth included, in snoopy and in directory mode.
//!
//! The cycle loop itself allocates nothing once its buffers have grown;
//! what remains is per-transaction and per-interval bookkeeping (request
//! lists, log entries, ordering edges). A `Vec` or map built afresh on
//! every cycle, per core or per snoop puts the count well above the bound:
//! before the loop was made allocation-free it stood at 51–58 per cycle on
//! these programs.
//!
//! Set-up has a budget of its own: building a `MemorySystem` must not
//! allocate anything sized by its caches' capacity (the caches claim their
//! sets as a run fills them), and one whole recording of a short fuzz case
//! — the unit `rr-check` repeats thousands of times — stays under
//! [`MAX_ALLOCS_PER_FUZZ_RECORDING`] allocations. With one `Vec` per cache
//! set, building the 2-core machine alone made 3 072.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rr_mem::{MemConfig, MemorySystem};
use rr_sim::{MachineConfig, RecordSession, RecorderSpec};

const MAX_ALLOCS_PER_CYCLE: f64 = 10.0;

const MAX_ALLOCS_PER_FUZZ_RECORDING: u64 = 1_000;

/// Counts heap allocations (including reallocations) and the bytes they
/// request per thread, so tests running in parallel do not count each
/// other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only const-initialised thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
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

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocations and requested bytes made while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a, b) = (allocs(), bytes());
    let out = f();
    (out, allocs() - a, bytes() - b)
}

/// Records `name` at 8 cores, size 1, with the paper's four variants and
/// returns `(allocations, simulated cycles)` of the recording alone.
fn record(name: &str, directory: bool) -> (u64, u64) {
    let w = rr_workloads::by_name(name, 8, 1).expect("known workload");
    let mut cfg = MachineConfig::splash_default(w.programs.len());
    if directory {
        cfg = cfg.with_directory();
    }
    let specs = RecorderSpec::paper_matrix();
    let session = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&cfg)
        .specs(&specs);
    let (run, made, _) = counted(|| session.run().expect("records"));
    (made, run.cycles)
}

fn assert_within_budget(name: &str, directory: bool) {
    let (made, cycles) = record(name, directory);
    let per_cycle = made as f64 / cycles as f64;
    let mode = if directory { "directory" } else { "snoopy" };
    println!("{name} ({mode}): {made} allocations over {cycles} cycles = {per_cycle:.2}/cycle");
    assert!(
        per_cycle <= MAX_ALLOCS_PER_CYCLE,
        "{name} ({mode}): {per_cycle:.2} heap allocations per simulated cycle \
         ({made} over {cycles} cycles) exceeds the budget of {MAX_ALLOCS_PER_CYCLE}"
    );
}

#[test]
fn ocean_records_within_the_allocation_budget() {
    assert_within_budget("ocean", false);
}

#[test]
fn radix_records_within_the_allocation_budget() {
    assert_within_budget("radix", false);
}

#[test]
fn water_nsq_records_within_the_allocation_budget() {
    assert_within_budget("water_nsq", false);
}

#[test]
fn ocean_records_within_the_allocation_budget_under_a_directory() {
    assert_within_budget("ocean", true);
}

#[test]
fn building_a_memory_system_costs_the_same_for_any_l2_size() {
    for cores in [2, 4, 8] {
        let small = MemConfig::splash_default(cores);
        let large = MemConfig {
            l2_bytes_per_core: small.l2_bytes_per_core * 16,
            ..small.clone()
        };
        let (_, small_allocs, small_bytes) =
            counted(|| std::hint::black_box(MemorySystem::new(small)));
        let (_, large_allocs, large_bytes) =
            counted(|| std::hint::black_box(MemorySystem::new(large)));
        println!("{cores} cores: {small_allocs} allocations, {small_bytes} bytes");
        assert_eq!(
            (small_allocs, small_bytes),
            (large_allocs, large_bytes),
            "{cores} cores: (allocations, bytes) grew with the L2"
        );
    }
}

#[test]
fn one_fuzz_recording_stays_within_its_allocation_budget() {
    let case = (0..)
        .map(rr_workloads::fuzz_case)
        .find(|c| c.workload.programs.len() == 2)
        .expect("the generator makes 2-core cases");
    let w = &case.workload;
    let cfg = MachineConfig::splash_default(w.programs.len());
    let session = RecordSession::new(&w.programs, &w.initial_mem).config(&cfg);
    let (run, made, _) = counted(|| session.run().expect("records"));
    println!(
        "{}: {made} allocations over {} cycles",
        case.label, run.cycles
    );
    assert!(
        made <= MAX_ALLOCS_PER_FUZZ_RECORDING,
        "{}: one recording made {made} allocations, over the budget of \
         {MAX_ALLOCS_PER_FUZZ_RECORDING}",
        case.label
    );
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocs();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
    assert!(allocs() > before, "a fresh Vec must be counted");
    drop(v);
}
