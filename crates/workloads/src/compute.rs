//! Private-compute kernels interleaved between communication events.
//!
//! Real SPLASH-2 applications spend thousands of instructions in purely
//! local computation between inter-processor communications; the recorder's
//! behaviour (interval lengths, reorder rates, log size) is governed by
//! that ratio. Every workload generator interleaves this kernel between its
//! sharing events to reproduce realistic communication density.

use rr_isa::{AluOp, BranchCond, ProgramBuilder, Reg};

/// Registers the local-compute kernel may clobber. Chosen high so workload
/// bodies can use `r1..=r14` freely (`r28..=r31` belong to the sync
/// emitters).
#[derive(Clone, Copy, Debug)]
pub struct LocalRegs {
    /// Base address of the private work area.
    pub base: Reg,
    /// Loop counter.
    pub i: Reg,
    /// Loop limit.
    pub lim: Reg,
    /// Address scratch.
    pub addr: Reg,
    /// Value scratch.
    pub v: Reg,
    /// Running accumulator; also drives the data-dependent access stream.
    pub acc: Reg,
}

impl LocalRegs {
    /// The default register assignment (`r15..=r20`).
    #[must_use]
    pub fn standard() -> Self {
        LocalRegs {
            base: Reg::new(15),
            i: Reg::new(16),
            lim: Reg::new(17),
            addr: Reg::new(18),
            v: Reg::new(19),
            acc: Reg::new(20),
        }
    }
}

/// Emits `iters` iterations (~15 instructions each: two loads, one store,
/// ALU) of a private compute kernel over a `words`-word private array at
/// `base_addr`.
///
/// The two loads use *independent*, index-derived strided addresses, so
/// consecutive iterations' loads overlap in the ROB — misses overlap with
/// younger hits and the store stream, producing the heavily out-of-order
/// perform behaviour Figure 1 of the paper measures, with zero sharing.
///
/// # Panics
///
/// Panics if `words` is not a power of two.
pub fn emit_local_work(
    b: &mut ProgramBuilder,
    regs: &LocalRegs,
    base_addr: i64,
    words: i64,
    iters: i64,
) {
    assert!(
        words > 0 && (words & (words - 1)) == 0,
        "words must be a power of two"
    );
    let LocalRegs {
        base,
        i,
        lim,
        addr,
        v,
        acc,
    } = *regs;
    b.load_imm(base, base_addr);
    b.load_imm(i, 0);
    b.load_imm(lim, iters);
    let top = b.bind_new();
    // Strided load #1 (independent address: derived from i only).
    b.op_imm(AluOp::Mul, addr, i, 7);
    b.op_imm(AluOp::And, addr, addr, words - 1);
    b.op_imm(AluOp::Shl, addr, addr, 3);
    b.add(addr, base, addr);
    b.load(v, addr, 0);
    b.add(acc, acc, v);
    // Strided load #2 (different stride, also independent).
    b.op_imm(AluOp::Mul, addr, i, 13);
    b.op_imm(AluOp::Xor, addr, addr, 0x55);
    b.op_imm(AluOp::And, addr, addr, words - 1);
    b.op_imm(AluOp::Shl, addr, addr, 3);
    b.add(addr, base, addr);
    b.load(v, addr, 0);
    b.op_imm(AluOp::Xor, acc, acc, 0x1f);
    b.add(acc, acc, v);
    // Streaming store.
    b.op_imm(AluOp::And, addr, i, words - 1);
    b.op_imm(AluOp::Shl, addr, addr, 3);
    b.add(addr, base, addr);
    b.store(acc, addr, 0);
    b.add_imm(i, i, 1);
    b.branch(BranchCond::Lt, i, lim, top);
}

/// Approximate dynamic instruction count of [`emit_local_work`] with the
/// given iteration count (for sizing workloads).
#[must_use]
pub fn local_work_instrs(iters: i64) -> i64 {
    3 + iters * 21
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_isa::{Interp, MemImage, StopReason};

    #[test]
    fn kernel_terminates_and_touches_private_memory() {
        let mut b = ProgramBuilder::new();
        emit_local_work(&mut b, &LocalRegs::standard(), 0x9000, 64, 50);
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        assert_eq!(interp.run(&mut mem, 100_000), StopReason::Halted);
        let touched = mem.words().count();
        assert!(touched > 10, "only {touched} words written");
    }

    #[test]
    fn instruction_estimate_is_close() {
        let mut b = ProgramBuilder::new();
        emit_local_work(&mut b, &LocalRegs::standard(), 0x9000, 64, 80);
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        interp.run(&mut mem, 1_000_000);
        let actual = interp.retired() as i64 - 1; // minus halt
        let estimate = local_work_instrs(80);
        assert!(
            (actual - estimate).abs() <= estimate / 10,
            "estimate {estimate} vs actual {actual}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut b = ProgramBuilder::new();
        emit_local_work(&mut b, &LocalRegs::standard(), 0, 100, 1);
    }
}
