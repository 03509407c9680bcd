//! Differential property test: arbitrary single-thread programs (including
//! data-dependent branches, loops with bounded trip counts, loads, stores
//! and atomics) must produce exactly the interpreter's architectural state
//! when run on the out-of-order core — speculation, forwarding and
//! reordering must never be architecturally visible.

use proptest::prelude::*;
use rr_cpu::{Core, CpuConfig, NullObserver};
use rr_isa::{AluOp, BranchCond, Interp, MemImage, Program, ProgramBuilder, Reg, StopReason};
use rr_mem::{CoreId, MemConfig, MemTickOutput, MemorySystem};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

#[derive(Clone, Debug)]
enum Op {
    Alu {
        op: u8,
        dst: u8,
        a: u8,
        b: u8,
    },
    AluImm {
        op: u8,
        dst: u8,
        a: u8,
        imm: i16,
    },
    LoadImm {
        dst: u8,
        imm: i16,
    },
    Load {
        dst: u8,
        slot: u8,
    },
    Store {
        src: u8,
        slot: u8,
    },
    FetchAdd {
        dst: u8,
        slot: u8,
        operand: u8,
    },
    /// A bounded countdown loop with a small body of ALU work.
    Loop {
        iters: u8,
        body: u8,
    },
    /// A data-dependent forward branch skipping the next chunk.
    SkipIfEven {
        reg: u8,
    },
    Nops {
        n: u8,
    },
}

fn alu_of(code: u8) -> AluOp {
    match code % 8 {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::And,
        4 => AluOp::Or,
        5 => AluOp::Xor,
        6 => AluOp::Shl,
        _ => AluOp::Shr,
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Registers r1..r12 are fair game; r13-r15 reserved for generated
    // control structures.
    let reg = 1u8..12;
    prop_oneof![
        (any::<u8>(), reg.clone(), reg.clone(), reg.clone()).prop_map(|(op, dst, a, b)| Op::Alu {
            op,
            dst,
            a,
            b
        }),
        (any::<u8>(), reg.clone(), reg.clone(), any::<i16>())
            .prop_map(|(op, dst, a, imm)| Op::AluImm { op, dst, a, imm }),
        (reg.clone(), any::<i16>()).prop_map(|(dst, imm)| Op::LoadImm { dst, imm }),
        (reg.clone(), 0u8..16).prop_map(|(dst, slot)| Op::Load { dst, slot }),
        (reg.clone(), 0u8..16).prop_map(|(src, slot)| Op::Store { src, slot }),
        (reg.clone(), 0u8..16, reg.clone()).prop_map(|(dst, slot, operand)| Op::FetchAdd {
            dst,
            slot,
            operand
        }),
        (1u8..8, 1u8..5).prop_map(|(iters, body)| Op::Loop { iters, body }),
        reg.prop_map(|reg| Op::SkipIfEven { reg }),
        (1u8..10).prop_map(|n| Op::Nops { n }),
    ]
}

fn build(ops: &[Op]) -> Program {
    let mut b = ProgramBuilder::new();
    let base = r(31); // address base register, set once
    b.load_imm(base, 0x1000);
    for op in ops {
        match *op {
            Op::Alu { op, dst, a, b: src } => {
                b.op(alu_of(op), r(dst), r(a), r(src));
            }
            Op::AluImm { op, dst, a, imm } => {
                b.op_imm(alu_of(op), r(dst), r(a), i64::from(imm));
            }
            Op::LoadImm { dst, imm } => {
                b.load_imm(r(dst), i64::from(imm));
            }
            Op::Load { dst, slot } => {
                b.load(r(dst), base, i64::from(slot) * 8);
            }
            Op::Store { src, slot } => {
                b.store(r(src), base, i64::from(slot) * 8);
            }
            Op::FetchAdd { dst, slot, operand } => {
                b.op_imm(AluOp::Add, r(13), base, i64::from(slot) * 8);
                b.fetch_add(r(dst), r(13), r(operand));
            }
            Op::Loop { iters, body } => {
                b.load_imm(r(14), i64::from(iters));
                let top = b.bind_new();
                for k in 0..body {
                    b.op_imm(AluOp::Add, r(1 + k % 8), r(1 + (k + 1) % 8), 3);
                }
                b.op_imm(AluOp::Sub, r(14), r(14), 1);
                b.branch(BranchCond::Ne, r(14), Reg::ZERO, top);
            }
            Op::SkipIfEven { reg } => {
                b.op_imm(AluOp::And, r(15), r(reg), 1);
                let skip = b.label();
                b.branch(BranchCond::Eq, r(15), Reg::ZERO, skip);
                b.op_imm(AluOp::Xor, r(reg), r(reg), 0x7f);
                b.op_imm(AluOp::Add, r(reg), r(reg), 11);
                b.bind(skip);
            }
            Op::Nops { n } => {
                b.nops(n as usize);
            }
        }
    }
    b.halt();
    b.build()
}

fn run_core(p: &Program) -> (MemImage, Vec<u64>, u64) {
    let cfg = CpuConfig::splash_default();
    let mut mem = MemorySystem::new(MemConfig::splash_default(1));
    let mut img = MemImage::new();
    let mut core = Core::new(CoreId::new(0), cfg, p);
    let mut obs = NullObserver;
    let mut cycle = 0u64;
    let mut out = MemTickOutput::default();
    loop {
        mem.tick(cycle, &mut out);
        for c in &out.completions {
            core.push_completion(c.req);
        }
        core.tick(cycle, &mut img, &mut mem, &mut obs);
        if core.is_done() && mem.quiescent() {
            break;
        }
        cycle += 1;
        assert!(cycle < 5_000_000, "core deadlocked");
    }
    let regs = (0..32).map(|i| core.committed_reg(r(i))).collect();
    (img, regs, core.stats().retired)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn core_matches_interpreter(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let p = build(&ops);
        let mut ref_img = MemImage::new();
        let mut interp = Interp::new(&p);
        prop_assert_eq!(interp.run(&mut ref_img, 10_000_000), StopReason::Halted);
        let ref_regs: Vec<u64> = (0..32).map(|i| interp.reg(r(i))).collect();

        let (img, regs, retired) = run_core(&p);
        prop_assert_eq!(&regs, &ref_regs, "register state diverged");
        prop_assert!(img.contents_eq(&ref_img), "memory diverged");
        prop_assert_eq!(retired, interp.retired(), "retired-instruction counts diverged");
    }
}
