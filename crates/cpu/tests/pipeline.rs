//! End-to-end tests of the out-of-order core against the coherent memory
//! system: functional correctness vs. the sequential interpreter,
//! store-to-load forwarding, out-of-order performs, misprediction recovery,
//! and multi-threaded synchronization under release consistency.

use rr_cpu::{Core, CoreObserver, CoreStats, CpuConfig, NullObserver, PerformRecord};
use rr_isa::{BranchCond, FenceKind, Interp, MemImage, Program, ProgramBuilder, Reg, StopReason};
use rr_mem::{MemConfig, MemTickOutput, MemorySystem};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

struct RunResult {
    img: MemImage,
    stats: Vec<CoreStats>,
    committed: Vec<Vec<u64>>,
    cycles: u64,
}

/// Runs one core per program to completion on a shared memory system.
fn run_system(programs: &[Program]) -> RunResult {
    run_system_with(programs, &mut NullObserver, MemImage::new())
}

fn run_system_with(programs: &[Program], obs: &mut dyn CoreObserver, img: MemImage) -> RunResult {
    run_system_on(&CpuConfig::splash_default(), programs, obs, img)
}

fn run_system_on(
    cfg: &CpuConfig,
    programs: &[Program],
    obs: &mut dyn CoreObserver,
    mut img: MemImage,
) -> RunResult {
    let mut mem = MemorySystem::new(MemConfig::splash_default(programs.len()));
    let mut cores: Vec<Core> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| Core::new(rr_mem::CoreId::new(i as u8), cfg.clone(), p))
        .collect();
    let mut cycle = 0;
    let mut out = MemTickOutput::default();
    loop {
        mem.tick(cycle, &mut out);
        for c in &out.completions {
            cores[c.core.index()].push_completion(c.req);
        }
        for core in &mut cores {
            core.tick(cycle, &mut img, &mut mem, obs);
        }
        if cores.iter().all(Core::is_done) && mem.quiescent() {
            break;
        }
        cycle += 1;
        assert!(cycle < 50_000_000, "system deadlocked");
    }
    RunResult {
        img,
        committed: cores
            .iter()
            .map(|c| (0..32).map(|i| c.committed_reg(r(i))).collect())
            .collect(),
        stats: cores.into_iter().map(|c| c.stats().clone()).collect(),
        cycles: cycle,
    }
}

/// Runs `program` on the reference interpreter.
fn run_interp(program: &Program) -> (MemImage, Vec<u64>) {
    let mut img = MemImage::new();
    let mut interp = Interp::new(program);
    assert_eq!(interp.run(&mut img, 100_000_000), StopReason::Halted);
    (img, (0..32).map(|i| interp.reg(r(i))).collect())
}

#[test]
fn single_thread_matches_interpreter() {
    // A loop with loads, stores and data-dependent arithmetic.
    let mut b = ProgramBuilder::new();
    let (i, sum, limit, base, tmp) = (r(1), r(2), r(3), r(4), r(5));
    b.load_imm(i, 0)
        .load_imm(sum, 0)
        .load_imm(limit, 64)
        .load_imm(base, 0x1000);
    let top = b.bind_new();
    // mem[base + 8*i] = i*3; tmp = mem[base + 8*i]; sum += tmp
    b.op_imm(rr_isa::AluOp::Mul, tmp, i, 3);
    b.op_imm(rr_isa::AluOp::Shl, r(6), i, 3);
    b.add(r(7), base, r(6));
    b.store(tmp, r(7), 0);
    b.load(r(8), r(7), 0);
    b.add(sum, sum, r(8));
    b.add_imm(i, i, 1);
    b.branch(BranchCond::Lt, i, limit, top);
    b.halt();
    let p = b.build();

    let (ref_img, ref_regs) = run_interp(&p);
    let run = run_system(std::slice::from_ref(&p));
    assert!(run.img.contents_eq(&ref_img), "memory must match");
    assert_eq!(run.committed[0], ref_regs, "registers must match");
    // Dynamic instruction count: 4 setup + 64 iterations of 8 + halt.
    assert_eq!(run.stats[0].retired, 4 + 64 * 8 + 1);
}

#[test]
fn store_to_load_forwarding_supplies_pending_store() {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x2000);
    b.load_imm(r(2), 77);
    b.store(r(2), r(1), 0);
    b.load(r(3), r(1), 0); // must forward from the LSQ or write buffer
    b.halt();
    let p = b.build();
    let run = run_system(std::slice::from_ref(&p));
    assert_eq!(run.committed[0][3], 77);
    assert!(
        run.stats[0].forwarded_loads >= 1,
        "the load should have been forwarded, stats: {:?}",
        run.stats[0]
    );
}

#[test]
fn independent_loads_perform_out_of_order() {
    // Warm a line, then issue a cold miss followed by a hit to the warm
    // line: the hit performs in ~2 cycles while the miss is still pending.
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x9000);
    b.load(r(2), r(1), 0x40); // warm the second line
    b.nops(800); // let the warming miss complete (~170 cycles)
    b.load(r(3), r(1), 0x2000); // cold miss (~170 cycles)
    b.load(r(4), r(1), 0x40); // hits; performs while the miss is pending
    b.halt();
    let p = b.build();
    let run = run_system(std::slice::from_ref(&p));
    assert!(
        run.stats[0].ooo_loads >= 1,
        "later loads should perform while the first is pending: {:?}",
        run.stats[0]
    );
}

#[test]
fn mispredicted_branches_recover_correctly() {
    // A branch whose direction alternates every iteration defeats 2-bit
    // counters, forcing squashes; the architectural result must still be
    // exact.
    let mut b = ProgramBuilder::new();
    let (i, acc, limit) = (r(1), r(2), r(3));
    b.load_imm(i, 0).load_imm(acc, 0).load_imm(limit, 100);
    let top = b.bind_new();
    let odd = b.label();
    let join = b.label();
    b.op_imm(rr_isa::AluOp::And, r(4), i, 1);
    b.branch(BranchCond::Ne, r(4), Reg::ZERO, odd);
    b.add_imm(acc, acc, 5); // even path
    b.jump(join);
    b.bind(odd);
    b.add_imm(acc, acc, 1); // odd path
    b.bind(join);
    b.add_imm(i, i, 1);
    b.branch(BranchCond::Lt, i, limit, top);
    b.halt();
    let p = b.build();

    let (_, ref_regs) = run_interp(&p);
    let run = run_system(std::slice::from_ref(&p));
    assert_eq!(run.committed[0][2], ref_regs[2]);
    assert!(
        run.stats[0].squashes > 10,
        "alternating branch must mispredict: {:?}",
        run.stats[0].squashes
    );
}

/// Builds the classic message-passing producer: data then release-fence
/// then flag.
fn mp_producer(data_addr: i64, flag_addr: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), data_addr);
    b.load_imm(r(2), 4242);
    b.store(r(2), r(1), 0);
    b.fence(FenceKind::Release);
    b.load_imm(r(3), flag_addr);
    b.load_imm(r(4), 1);
    b.store(r(4), r(3), 0);
    b.halt();
    b.build()
}

/// Spin on the flag, acquire-fence, then read data.
fn mp_consumer(data_addr: i64, flag_addr: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), flag_addr);
    b.load_imm(r(2), 1);
    let spin = b.bind_new();
    b.load(r(3), r(1), 0);
    b.branch(BranchCond::Ne, r(3), r(2), spin);
    b.fence(FenceKind::Acquire);
    b.load_imm(r(4), data_addr);
    b.load(r(5), r(4), 0);
    b.halt();
    b.build()
}

#[test]
fn message_passing_with_fences_is_ordered() {
    // Different cache lines for data and flag, so reordering would be
    // possible without the fences.
    let programs = vec![mp_producer(0x100, 0x200), mp_consumer(0x100, 0x200)];
    let run = run_system(&programs);
    assert_eq!(run.committed[1][5], 4242, "consumer must see the data");
    assert_eq!(run.img.load(0x100), 4242);
    assert_eq!(run.img.load(0x200), 1);
}

#[test]
fn atomic_fetch_add_from_many_threads_sums() {
    let counter = 0x4000;
    let per_thread = 50;
    let make = || {
        let mut b = ProgramBuilder::new();
        let (addr, one, i, n) = (r(1), r(2), r(3), r(4));
        b.load_imm(addr, counter)
            .load_imm(one, 1)
            .load_imm(i, 0)
            .load_imm(n, per_thread);
        let top = b.bind_new();
        b.fetch_add(r(5), addr, one);
        b.add_imm(i, i, 1);
        b.branch(BranchCond::Lt, i, n, top);
        b.halt();
        b.build()
    };
    let programs: Vec<Program> = (0..4).map(|_| make()).collect();
    let run = run_system(&programs);
    assert_eq!(run.img.load(counter as u64), 4 * per_thread as u64);
    assert_eq!(run.stats[0].rmws, per_thread as u64);
}

#[test]
fn cas_spinlock_protects_critical_section() {
    let lock = 0x5000;
    let counter = 0x5100;
    let rounds = 25;
    let make = || {
        let mut b = ProgramBuilder::new();
        let (laddr, caddr, zero, one, i, n, tmp) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        b.load_imm(laddr, lock)
            .load_imm(caddr, counter)
            .load_imm(zero, 0)
            .load_imm(one, 1)
            .load_imm(i, 0)
            .load_imm(n, rounds);
        let top = b.bind_new();
        let acquire = b.bind_new();
        b.cas(r(8), laddr, zero, one);
        b.branch(BranchCond::Ne, r(8), zero, acquire);
        // Critical section: non-atomic read-modify-write.
        b.load(tmp, caddr, 0);
        b.add_imm(tmp, tmp, 1);
        b.store(tmp, caddr, 0);
        // Unlock: release fence, then plain store.
        b.fence(FenceKind::Release);
        b.store(zero, laddr, 0);
        b.add_imm(i, i, 1);
        b.branch(BranchCond::Lt, i, n, top);
        b.halt();
        b.build()
    };
    let programs: Vec<Program> = (0..2).map(|_| make()).collect();
    let run = run_system(&programs);
    assert_eq!(
        run.img.load(counter as u64),
        2 * rounds as u64,
        "lost update: lock is broken"
    );
}

#[test]
fn execution_is_deterministic() {
    let programs = vec![mp_producer(0x100, 0x200), mp_consumer(0x100, 0x200)];
    let a = run_system(&programs);
    let b = run_system(&programs);
    assert_eq!(a.img.digest(), b.img.digest());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn program_without_halt_finishes() {
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 5);
    let p = b.build();
    let run = run_system(std::slice::from_ref(&p));
    assert_eq!(run.committed[0][1], 5);
}

#[test]
fn observer_refusals_stall_but_preserve_correctness() {
    /// Refuses every other dispatch offer.
    struct Flaky(bool);
    impl CoreObserver for Flaky {
        fn on_dispatch(&mut self, _seq: u64, _is_mem: bool) -> bool {
            self.0 = !self.0;
            self.0
        }
        fn on_perform(&mut self, _r: &PerformRecord) {}
        fn on_retire(&mut self, _s: u64, _m: bool, _c: u64) {}
        fn on_squash_after(&mut self, _s: u64, _c: u64) {}
    }
    let mut bld = ProgramBuilder::new();
    let (i, sum, limit) = (r(1), r(2), r(3));
    bld.load_imm(i, 0).load_imm(sum, 0).load_imm(limit, 40);
    let top = bld.bind_new();
    bld.add(sum, sum, i).add_imm(i, i, 1);
    bld.branch(BranchCond::Lt, i, limit, top);
    bld.halt();
    let p = bld.build();
    let (_, ref_regs) = run_interp(&p);
    let mut obs = Flaky(false);
    let run = run_system_with(std::slice::from_ref(&p), &mut obs, MemImage::new());
    assert_eq!(run.committed[0][2], ref_regs[2]);
    assert!(run.stats[0].traq_stall_cycles > 0);
}

#[test]
fn perform_events_carry_values_and_retire_is_in_order() {
    #[derive(Default)]
    struct Collect {
        performs: Vec<PerformRecord>,
        retires: Vec<u64>,
    }
    impl CoreObserver for Collect {
        fn on_dispatch(&mut self, _seq: u64, _is_mem: bool) -> bool {
            true
        }
        fn on_perform(&mut self, rec: &PerformRecord) {
            self.performs.push(*rec);
        }
        fn on_retire(&mut self, seq: u64, _m: bool, _c: u64) {
            self.retires.push(seq);
        }
        fn on_squash_after(&mut self, seq: u64, _cycle: u64) {
            self.performs.retain(|p| p.seq <= seq);
            self.retires.retain(|&s| s <= seq);
        }
    }
    let mut b = ProgramBuilder::new();
    b.load_imm(r(1), 0x3000);
    b.load_imm(r(2), 9);
    b.store(r(2), r(1), 0);
    b.load(r(3), r(1), 0);
    b.halt();
    let p = b.build();
    let mut obs = Collect::default();
    let _ = run_system_with(std::slice::from_ref(&p), &mut obs, MemImage::new());
    // Retirement is in program order.
    let mut sorted = obs.retires.clone();
    sorted.sort_unstable();
    assert_eq!(obs.retires, sorted);
    // The store perform carries its value; the load perform carries the
    // loaded (possibly forwarded) value.
    assert!(obs
        .performs
        .iter()
        .any(|p| p.kind == rr_mem::AccessKind::Store && p.stored == Some(9)));
    assert!(obs
        .performs
        .iter()
        .any(|p| p.kind == rr_mem::AccessKind::Load && p.loaded == Some(9)));
}

/// Tracks how many instructions are in flight (dispatched, neither
/// retired nor squashed) and the most there ever were.
#[derive(Default)]
struct RobOccupancy {
    head: u64,
    next: u64,
    max: u64,
}

impl CoreObserver for RobOccupancy {
    fn on_dispatch(&mut self, seq: u64, _is_mem: bool) -> bool {
        assert_eq!(seq, self.next, "seqs are dispatched in order");
        self.next = seq + 1;
        self.max = self.max.max(self.next - self.head);
        true
    }
    fn on_perform(&mut self, _r: &PerformRecord) {}
    fn on_retire(&mut self, seq: u64, _m: bool, _c: u64) {
        assert_eq!(seq, self.head, "retirement is in order");
        self.head = seq + 1;
    }
    fn on_squash_after(&mut self, seq: u64, _cycle: u64) {
        self.next = seq + 1;
    }
}

#[test]
fn rob_holds_at_most_rob_entries_at_any_ring_size() {
    // A loop around a dependent multiply chain: the chain retires one
    // iteration per 4 cycles while dispatch could take 4 instructions a
    // cycle, so the ROB fills. Its seqs wrap the ROB ring many times, with
    // loads, stores and a mispredicted exit on the way.
    let mut b = ProgramBuilder::new();
    let (i, acc, limit, base) = (r(1), r(2), r(3), r(4));
    b.load_imm(i, 0)
        .load_imm(acc, 1)
        .load_imm(limit, 300)
        .load_imm(base, 0x4000);
    let top = b.bind_new();
    b.op_imm(rr_isa::AluOp::Mul, acc, acc, 3);
    b.add(acc, acc, i);
    b.op_imm(rr_isa::AluOp::And, r(5), i, 7);
    b.op_imm(rr_isa::AluOp::Shl, r(5), r(5), 3);
    b.add(r(6), base, r(5));
    b.store(acc, r(6), 0);
    b.load(r(7), base, 0);
    b.add_imm(i, i, 1);
    b.branch(BranchCond::Lt, i, limit, top);
    b.halt();
    let p = b.build();
    let (ref_img, ref_regs) = run_interp(&p);

    // 176 is Table 1's ROB, a ring of 256 slots; 5 is a ring of 8.
    for rob_entries in [176, 5] {
        let cfg = CpuConfig {
            rob_entries,
            ..CpuConfig::splash_default()
        };
        let mut obs = RobOccupancy::default();
        let run = run_system_on(&cfg, std::slice::from_ref(&p), &mut obs, MemImage::new());
        assert!(run.img.contents_eq(&ref_img), "memory at ROB {rob_entries}");
        assert_eq!(run.committed[0], ref_regs, "registers at ROB {rob_entries}");
        assert_eq!(
            obs.max, rob_entries as u64,
            "ROB {rob_entries} fills, never more"
        );
        assert!(
            run.stats[0].rob_stall_cycles > 0,
            "the chain stalls dispatch at ROB {rob_entries}: {:?}",
            run.stats[0]
        );
    }
}
