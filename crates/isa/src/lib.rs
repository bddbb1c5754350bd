//! # bfetch-isa
//!
//! A small, fixed-width RISC instruction set used as the execution substrate
//! for the B-Fetch reproduction (MICRO 2014).
//!
//! The published system evaluates on Alpha binaries under gem5. B-Fetch only
//! observes three aspects of the architecture:
//!
//! 1. **Branches** — PC, taken/not-taken direction, and target address.
//! 2. **Loads/stores** — the source (base) register, the static offset, and
//!    the generated effective address.
//! 3. **Register transformations** — how register values evolve across basic
//!    blocks.
//!
//! This crate provides exactly that surface: a register machine with 32
//! general-purpose 64-bit registers (`r0` hardwired to zero), `reg + offset`
//! addressing for memory operations, compare-and-branch control flow, a
//! sparse word-granularity memory, and a label-based [`ProgramBuilder`]
//! assembler for constructing workloads programmatically.
//!
//! # Example
//!
//! ```
//! use bfetch_isa::{ProgramBuilder, Reg, ArchState};
//!
//! // Sum a 16-element array.
//! let mut b = ProgramBuilder::new("sum16");
//! let base = 0x1_0000u64;
//! b.init_words(base, &(0..16).map(|i| i as u64).collect::<Vec<_>>());
//! b.li(Reg::R1, base as i64);      // cursor
//! b.li(Reg::R2, (base + 16 * 8) as i64); // end
//! b.li(Reg::R3, 0);                // accumulator
//! let top = b.label();
//! b.bind(top);
//! b.load(Reg::R4, Reg::R1, 0);
//! b.add(Reg::R3, Reg::R3, Reg::R4);
//! b.addi(Reg::R1, Reg::R1, 8);
//! b.blt(Reg::R1, Reg::R2, top);
//! b.halt();
//! let program = b.finish();
//!
//! let mut state = ArchState::new(&program);
//! while !state.halted() {
//!     state.step(&program);
//! }
//! assert_eq!(state.reg(Reg::R3), (0..16).sum::<u64>());
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod builder;
/// The ISA + assembly-language reference manual (`docs/ISA.md`),
/// included verbatim so its examples run as doctests and the doc gate
/// keeps the manual honest.
#[doc = include_str!("../../../docs/ISA.md")]
pub mod manual {}
pub mod inst;
pub mod mem;
pub mod program;
pub mod reg;
pub mod state;

pub use asm::{assemble, assemble_with, disassemble, AsmError, AsmErrorKind};
pub use builder::ProgramBuilder;
pub use inst::{Inst, MemInfo, OpClass};
pub use mem::SparseMemory;
pub use program::{Program, StaticInst, CODE_BASE, INST_BYTES};
pub use reg::Reg;
pub use state::{ArchState, ExecInfo};
