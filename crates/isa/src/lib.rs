//! # rr-isa — mini ISA for the RelaxReplay reproduction
//!
//! The RelaxReplay paper ([Honarmand & Torrellas, ASPLOS 2014]) evaluates its
//! memory-race recorder on SPLASH-2 binaries running on a simulated
//! out-of-order multicore. This crate provides the instruction set that our
//! reproduction's simulator executes, together with:
//!
//! * [`Instr`] — the instruction definitions (ALU ops, 8-byte loads/stores,
//!   atomic read-modify-writes, conditional branches, fences),
//! * [`ProgramBuilder`] — an assembler-like builder with labels for writing
//!   workloads programmatically,
//! * [`asm`] — a text assembler (`.asm` source with labels, per-core
//!   sections, fences and parameters → per-core [`Program`]s plus an
//!   initial [`MemImage`]), and a matching disassembler,
//! * [`MemImage`] — a sparse, word-granular shared-memory image,
//! * [`Interp`] — a sequential interpreter used both as the functional
//!   reference during recording and as the "native hardware" during replay
//!   (it supports the instruction-count breakpoints, register value
//!   injection and instruction skipping that replay needs; see paper §3.5).
//!
//! Values and memory words are 64-bit; memory accesses are 8-byte aligned.
//!
//! ```
//! use rr_isa::{Interp, MemImage, ProgramBuilder, Reg, StopReason};
//!
//! let mut b = ProgramBuilder::new();
//! let r1 = Reg::new(1);
//! b.load_imm(r1, 7);
//! b.add_imm(r1, r1, 35);
//! b.store(r1, Reg::ZERO, 0x100);
//! b.halt();
//! let program = b.build();
//!
//! let mut mem = MemImage::new();
//! let mut interp = Interp::new(&program);
//! let stop = interp.run(&mut mem, u64::MAX);
//! assert_eq!(stop, StopReason::Halted);
//! assert_eq!(mem.load(0x100), 42);
//! ```
//!
//! [Honarmand & Torrellas, ASPLOS 2014]: https://doi.org/10.1145/2541940.2541979

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
mod idhash;
mod instr;
mod interp;
mod mem_image;
mod memory;
mod program;
mod reg;
mod shared_mem;

pub use idhash::{IdHashMap, IdHasher, RandomIdState};
pub use instr::{AluOp, AtomicOp, BranchCond, FenceKind, Instr};
pub use interp::{Interp, StepEvent, StopReason};
pub use mem_image::MemImage;
pub use memory::Memory;
pub use program::{Label, Program, ProgramBuilder, ProgramError};
pub use reg::Reg;
pub use shared_mem::{SharedMem, SharedMemHandle};

/// Number of architectural registers in the ISA.
pub const NUM_REGS: usize = 32;

/// Size in bytes of a memory word (all loads/stores are word-sized).
pub const WORD_BYTES: u64 = 8;
