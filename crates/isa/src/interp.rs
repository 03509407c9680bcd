use crate::{AtomicOp, Instr, Memory, Program, Reg, NUM_REGS};

/// What a single interpreted instruction did.
///
/// Returned by [`Interp::step`]; the replayer and tests use these events to
/// observe load values and store effects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// A non-memory, non-control instruction executed.
    Alu,
    /// A load read `value` from `addr`.
    Load {
        /// Byte address accessed.
        addr: u64,
        /// Value read.
        value: u64,
    },
    /// A store wrote `value` to `addr`.
    Store {
        /// Byte address accessed.
        addr: u64,
        /// Value written.
        value: u64,
    },
    /// An atomic RMW at `addr` read `loaded` and, if `stored` is `Some`,
    /// wrote that value (a failed CAS stores nothing).
    Atomic {
        /// Byte address accessed.
        addr: u64,
        /// Old value read from memory.
        loaded: u64,
        /// New value written, if the RMW succeeded.
        stored: Option<u64>,
    },
    /// A branch or jump executed; `taken` reports the outcome.
    Branch {
        /// Whether control transferred to the target.
        taken: bool,
    },
    /// A fence executed.
    Fence,
    /// The thread was already halted (or ran past the end of the program).
    Halted,
}

/// Why [`Interp::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The thread executed a `halt` or ran past the end of its program.
    Halted,
    /// The instruction budget was exhausted (the replayer's
    /// instruction-count interrupt, paper §3.5).
    InstrLimit,
}

/// A sequential interpreter for one thread's [`Program`].
///
/// During **recording** this is not used for execution (the cycle-level core
/// model in `rr-cpu` is); it serves as the functional semantics referenced by
/// tests. During **replay** it stands in for native hardware execution: the
/// replay driver runs `InorderBlock`s with an instruction budget
/// ([`Interp::run`]), injects logged values for reordered loads
/// ([`Interp::set_reg`] + [`Interp::skip`]), and skips dummy entries
/// ([`Interp::skip`]).
///
/// ```
/// use rr_isa::{Interp, MemImage, ProgramBuilder, Reg, StopReason};
/// let mut b = ProgramBuilder::new();
/// b.load_imm(Reg::new(1), 3);
/// b.halt();
/// let p = b.build();
/// let mut mem = MemImage::new();
/// let mut i = Interp::new(&p);
/// assert_eq!(i.run(&mut mem, 10), StopReason::Halted);
/// assert_eq!(i.reg(Reg::new(1)), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    regs: [u64; NUM_REGS],
    pc: usize,
    halted: bool,
    retired: u64,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter at `pc = 0` with all registers zero.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            regs: [0; NUM_REGS],
            pc: 0,
            halted: false,
            retired: 0,
        }
    }

    /// Current program counter (an instruction index).
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the thread has halted.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far (skipped instructions count,
    /// matching the replay driver's "advance the program counter" step).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (replay value injection for `ReorderedLoad`
    /// entries, paper §3.5).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Returns the instruction the PC currently points at, if any.
    #[must_use]
    pub fn current_instr(&self) -> Option<&Instr> {
        self.program.get(self.pc)
    }

    /// Advances the PC past the current instruction *without executing it*,
    /// counting it as retired. Used by the replay driver for reordered loads
    /// (after injecting the logged value) and for dummy store entries.
    pub fn skip(&mut self) {
        if !self.halted {
            self.pc += 1;
            self.retired += 1;
            if self.program.get(self.pc).is_none() {
                // Past the end: halt on the next step.
            }
        }
    }

    /// Executes one instruction against `mem` — any [`Memory`]
    /// implementation: the plain [`MemImage`](crate::MemImage) or a
    /// concurrently shared [`SharedMemHandle`](crate::SharedMemHandle).
    // The replay executors' block loop calls this once per instruction.
    // Without the hint, whether LLVM inlines it there flips with unrelated
    // codegen changes, and sequential replay swings by tens of percent.
    #[inline]
    pub fn step<M: Memory>(&mut self, mem: &mut M) -> StepEvent {
        if self.halted {
            return StepEvent::Halted;
        }
        let Some(&instr) = self.program.get(self.pc) else {
            self.halted = true;
            return StepEvent::Halted;
        };
        self.pc += 1;
        self.retired += 1;
        match instr {
            Instr::Op { op, dst, a, b } => {
                self.regs[dst.index()] = op.apply(self.regs[a.index()], self.regs[b.index()]);
                StepEvent::Alu
            }
            Instr::OpImm { op, dst, a, imm } => {
                self.regs[dst.index()] = op.apply(self.regs[a.index()], imm as u64);
                StepEvent::Alu
            }
            Instr::LoadImm { dst, imm } => {
                self.regs[dst.index()] = imm as u64;
                StepEvent::Alu
            }
            Instr::Load { dst, base, offset } => {
                let addr = self.regs[base.index()].wrapping_add(offset as u64);
                let value = mem.load(addr);
                self.regs[dst.index()] = value;
                StepEvent::Load { addr, value }
            }
            Instr::Store { src, base, offset } => {
                let addr = self.regs[base.index()].wrapping_add(offset as u64);
                let value = self.regs[src.index()];
                mem.store(addr, value);
                StepEvent::Store { addr, value }
            }
            Instr::Atomic {
                op,
                dst,
                addr,
                expected,
                operand,
            } => {
                let addr = self.regs[addr.index()];
                let operand = self.regs[operand.index()];
                let expected = self.regs[expected.index()];
                let mut stored = None;
                let loaded = mem.rmw(addr, |old| {
                    stored = match op {
                        AtomicOp::Cas => (old == expected).then_some(operand),
                        AtomicOp::FetchAdd => Some(old.wrapping_add(operand)),
                        AtomicOp::Swap => Some(operand),
                    };
                    stored
                });
                self.regs[dst.index()] = loaded;
                StepEvent::Atomic {
                    addr,
                    loaded,
                    stored,
                }
            }
            Instr::Branch { cond, a, b, target } => {
                let taken = cond.eval(self.regs[a.index()], self.regs[b.index()]);
                if taken {
                    self.pc = target as usize;
                }
                StepEvent::Branch { taken }
            }
            Instr::Jump { target } => {
                self.pc = target as usize;
                StepEvent::Branch { taken: true }
            }
            Instr::Fence(_) => StepEvent::Fence,
            Instr::Nop => StepEvent::Alu,
            Instr::Halt => {
                // The halt retires like any other instruction (the core
                // model and the recorder count it too, so replay block
                // sizes line up), and the thread stops.
                self.halted = true;
                StepEvent::Halted
            }
        }
    }

    /// Runs up to `max_instrs` instructions, stopping early on halt.
    pub fn run<M: Memory>(&mut self, mem: &mut M, max_instrs: u64) -> StopReason {
        for _ in 0..max_instrs {
            if let StepEvent::Halted = self.step(mem) {
                return StopReason::Halted;
            }
        }
        if self.halted {
            StopReason::Halted
        } else {
            StopReason::InstrLimit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchCond, MemImage, ProgramBuilder};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn loop_sums_correctly() {
        let mut b = ProgramBuilder::new();
        let (i, sum, limit) = (r(1), r(2), r(3));
        b.load_imm(i, 0).load_imm(sum, 0).load_imm(limit, 100);
        let top = b.bind_new();
        b.add(sum, sum, i).add_imm(i, i, 1);
        b.branch(BranchCond::Lt, i, limit, top);
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        assert_eq!(interp.run(&mut mem, 1_000_000), StopReason::Halted);
        assert_eq!(interp.reg(sum), (0..100).sum::<u64>());
    }

    #[test]
    fn loads_and_stores_hit_memory() {
        let mut b = ProgramBuilder::new();
        b.load_imm(r(1), 0x200);
        b.load_imm(r(2), 99);
        b.store(r(2), r(1), 8);
        b.load(r(3), r(1), 8);
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        interp.run(&mut mem, 100);
        assert_eq!(mem.load(0x208), 99);
        assert_eq!(interp.reg(r(3)), 99);
    }

    #[test]
    fn cas_success_and_failure_events() {
        let mut b = ProgramBuilder::new();
        b.load_imm(r(1), 0x40); // addr
        b.load_imm(r(2), 0); // expected
        b.load_imm(r(3), 7); // desired
        b.cas(r(4), r(1), r(2), r(3));
        b.cas(r(5), r(1), r(2), r(3)); // now fails: mem == 7 != 0
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        for _ in 0..3 {
            interp.step(&mut mem);
        }
        assert_eq!(
            interp.step(&mut mem),
            StepEvent::Atomic {
                addr: 0x40,
                loaded: 0,
                stored: Some(7)
            }
        );
        assert_eq!(
            interp.step(&mut mem),
            StepEvent::Atomic {
                addr: 0x40,
                loaded: 7,
                stored: None
            }
        );
        assert_eq!(interp.reg(r(4)), 0);
        assert_eq!(interp.reg(r(5)), 7);
    }

    #[test]
    fn fetch_add_accumulates() {
        let mut b = ProgramBuilder::new();
        b.load_imm(r(1), 0x80);
        b.load_imm(r(2), 5);
        b.fetch_add(r(3), r(1), r(2));
        b.fetch_add(r(4), r(1), r(2));
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        interp.run(&mut mem, 100);
        assert_eq!(interp.reg(r(3)), 0);
        assert_eq!(interp.reg(r(4)), 5);
        assert_eq!(mem.load(0x80), 10);
    }

    #[test]
    fn instr_limit_interrupt() {
        let mut b = ProgramBuilder::new();
        b.nops(10).halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        assert_eq!(interp.run(&mut mem, 4), StopReason::InstrLimit);
        assert_eq!(interp.retired(), 4);
        assert_eq!(interp.run(&mut mem, 100), StopReason::Halted);
        // The halt itself retires (block-size accounting during replay
        // counts it too): 10 nops + 1 halt.
        assert_eq!(interp.retired(), 11);
    }

    #[test]
    fn skip_advances_without_executing() {
        let mut b = ProgramBuilder::new();
        b.load_imm(r(1), 42);
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        interp.skip(); // skip the load_imm
        assert_eq!(interp.reg(r(1)), 0);
        assert_eq!(interp.retired(), 1);
        assert_eq!(interp.run(&mut mem, 10), StopReason::Halted);
        assert_eq!(interp.reg(r(1)), 0, "skipped instruction must not execute");
    }

    #[test]
    fn running_past_end_halts() {
        let mut b = ProgramBuilder::new();
        b.nops(1);
        let p = b.build();
        let mut mem = MemImage::new();
        let mut interp = Interp::new(&p);
        assert_eq!(interp.run(&mut mem, 10), StopReason::Halted);
        assert!(interp.is_halted());
    }

    #[test]
    fn value_injection_feeds_consumers() {
        // Simulates replay of a reordered load: skip the load, inject the
        // logged value, and check a consumer sees it.
        let mut b = ProgramBuilder::new();
        b.load_imm(r(1), 0x100);
        b.load(r(2), r(1), 0);
        b.add_imm(r(3), r(2), 1);
        b.halt();
        let p = b.build();
        let mut mem = MemImage::new();
        mem.store(0x100, 500); // memory now holds a *different* value
        let mut interp = Interp::new(&p);
        interp.step(&mut mem); // load_imm
        interp.set_reg(r(2), 41); // injected logged value
        interp.skip(); // skip the load itself
        interp.run(&mut mem, 10);
        assert_eq!(interp.reg(r(3)), 42);
    }
}
