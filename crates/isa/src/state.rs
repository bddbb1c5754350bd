//! Functional (architectural) execution state.

use crate::inst::Inst;
use crate::mem::SparseMemory;
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};

/// Summary of one functionally executed instruction, consumed by the timing
/// model and by the B-Fetch learning hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecInfo {
    /// Instruction index that executed.
    pub idx: usize,
    /// The instruction itself.
    pub inst: Inst,
    /// Instruction index of the next instruction on the *actual* path.
    pub next_idx: usize,
    /// For branches: whether the branch was taken.
    pub taken: bool,
    /// For memory operations: the generated effective address.
    pub ea: Option<u64>,
    /// Whether the program halted at this instruction.
    pub halted: bool,
}

/// The architectural state of one hardware context: 32 GPRs, a PC
/// (instruction index), and a data memory.
///
/// [`ArchState::step`] executes exactly one instruction and reports what
/// happened; the timing simulator replays this "execute-at-fetch" stream
/// through its pipeline model.
#[derive(Debug, Clone)]
pub struct ArchState {
    regs: [u64; NUM_REGS],
    pc: usize,
    halted: bool,
    mem: SparseMemory,
    retired: u64,
}

impl ArchState {
    /// Creates a fresh state for `program`, with the PC at the entry point
    /// and a memory over the program's data image: no line of it is
    /// generated until a load or store touches it.
    pub fn new(program: &Program) -> Self {
        Self {
            regs: [0; NUM_REGS],
            pc: 0,
            halted: false,
            mem: program.initial_memory(),
            retired: 0,
        }
    }

    /// Current PC as an instruction index.
    #[inline]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether a `halt` has been executed (or the PC ran off the end).
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions functionally executed.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads a register (`r0` always reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// A snapshot of the whole register file.
    #[inline]
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.regs
    }

    /// Writes a register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The data memory.
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// The data memory, to load from as the program does or to store to.
    pub fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// Resets control state (PC, halt flag) without clearing registers or
    /// memory — used to loop a workload for long timing runs.
    pub fn restart(&mut self) {
        self.pc = 0;
        self.halted = false;
    }

    /// Computes the effective address `base + offset` with wrapping
    /// arithmetic, as the hardware AGU would.
    #[inline]
    pub fn effective_address(&self, base: Reg, offset: i64) -> u64 {
        self.reg(base).wrapping_add(offset as u64)
    }

    /// Executes one instruction at the current PC.
    ///
    /// Returns `None` if the state is already halted.
    pub fn step(&mut self, program: &Program) -> Option<ExecInfo> {
        if self.halted {
            return None;
        }
        let idx = self.pc;
        let inst = match program.get(idx) {
            Some(i) => i,
            None => {
                self.halted = true;
                return None;
            }
        };

        let mut taken = false;
        let mut ea = None;
        let mut next = idx + 1;
        let mut halted = false;

        match inst {
            Inst::Nop => {}
            Inst::Halt => {
                halted = true;
                next = idx;
            }
            Inst::Add { rd, ra, rb } => self.set_reg(rd, self.reg(ra).wrapping_add(self.reg(rb))),
            Inst::Sub { rd, ra, rb } => self.set_reg(rd, self.reg(ra).wrapping_sub(self.reg(rb))),
            Inst::Mul { rd, ra, rb } => self.set_reg(rd, self.reg(ra).wrapping_mul(self.reg(rb))),
            Inst::Xor { rd, ra, rb } => self.set_reg(rd, self.reg(ra) ^ self.reg(rb)),
            Inst::And { rd, ra, rb } => self.set_reg(rd, self.reg(ra) & self.reg(rb)),
            Inst::Or { rd, ra, rb } => self.set_reg(rd, self.reg(ra) | self.reg(rb)),
            Inst::AddI { rd, rs, imm } => self.set_reg(rd, self.reg(rs).wrapping_add(imm as u64)),
            Inst::SllI { rd, rs, sh } => self.set_reg(rd, self.reg(rs) << (sh as u32 & 63)),
            Inst::SrlI { rd, rs, sh } => self.set_reg(rd, self.reg(rs) >> (sh as u32 & 63)),
            Inst::LoadImm { rd, imm } => self.set_reg(rd, imm as u64),
            Inst::Load { rd, base, offset } => {
                let a = self.effective_address(base, offset);
                ea = Some(a);
                let v = self.mem.load_touch(a);
                self.set_reg(rd, v);
            }
            Inst::Store { rs, base, offset } => {
                let a = self.effective_address(base, offset);
                ea = Some(a);
                self.mem.store(a, self.reg(rs));
            }
            Inst::Beq { ra, rb, target } => {
                taken = self.reg(ra) == self.reg(rb);
                if taken {
                    next = target;
                }
            }
            Inst::Bne { ra, rb, target } => {
                taken = self.reg(ra) != self.reg(rb);
                if taken {
                    next = target;
                }
            }
            Inst::Blt { ra, rb, target } => {
                taken = (self.reg(ra) as i64) < (self.reg(rb) as i64);
                if taken {
                    next = target;
                }
            }
            Inst::Bge { ra, rb, target } => {
                taken = (self.reg(ra) as i64) >= (self.reg(rb) as i64);
                if taken {
                    next = target;
                }
            }
            Inst::Jmp { target } => {
                taken = true;
                next = target;
            }
        }

        self.pc = next;
        self.halted = halted;
        self.retired += 1;
        Some(ExecInfo {
            idx,
            inst,
            next_idx: next,
            taken,
            ea,
            halted,
        })
    }

    /// Runs until halt or until `max_steps` instructions have executed.
    /// Returns the number of instructions executed.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps && self.step(program).is_some() {
            n += 1;
        }
        n
    }
}

// Loaded into a state fresh from the same program, which supplies the
// image the memory delta goes on top of (the program itself is
// snapshotted separately).
bfetch_snapshot::snap_state!(ArchState {
    regs: val,
    pc: val,
    halted: val,
    mem: state,
    retired: val,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn r0_is_hardwired_zero() {
        let mut b = ProgramBuilder::new("z");
        b.li(Reg::R0, 55);
        b.addi(Reg::R1, Reg::R0, 3);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 100);
        assert_eq!(s.reg(Reg::R0), 0);
        assert_eq!(s.reg(Reg::R1), 3);
    }

    #[test]
    fn alu_semantics() {
        let mut b = ProgramBuilder::new("alu");
        b.li(Reg::R1, 10);
        b.li(Reg::R2, 3);
        b.add(Reg::R3, Reg::R1, Reg::R2);
        b.sub(Reg::R4, Reg::R1, Reg::R2);
        b.mul(Reg::R5, Reg::R1, Reg::R2);
        b.xor(Reg::R6, Reg::R1, Reg::R2);
        b.slli(Reg::R7, Reg::R1, 2);
        b.srli(Reg::R8, Reg::R1, 1);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 100);
        assert_eq!(s.reg(Reg::R3), 13);
        assert_eq!(s.reg(Reg::R4), 7);
        assert_eq!(s.reg(Reg::R5), 30);
        assert_eq!(s.reg(Reg::R6), 9);
        assert_eq!(s.reg(Reg::R7), 40);
        assert_eq!(s.reg(Reg::R8), 5);
    }

    #[test]
    fn load_store_round_trip_reports_ea() {
        let mut b = ProgramBuilder::new("mem");
        b.li(Reg::R1, 0x2000);
        b.li(Reg::R2, 77);
        b.store(Reg::R2, Reg::R1, 8);
        b.load(Reg::R3, Reg::R1, 8);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.step(&p);
        s.step(&p);
        let st = s.step(&p).unwrap();
        assert_eq!(st.ea, Some(0x2008));
        let ld = s.step(&p).unwrap();
        assert_eq!(ld.ea, Some(0x2008));
        assert_eq!(s.reg(Reg::R3), 77);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut b = ProgramBuilder::new("br");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1);
        let skip = b.label();
        b.beq(Reg::R1, Reg::R2, skip); // not taken
        b.li(Reg::R3, 11);
        b.bind(skip);
        b.bne(Reg::R1, Reg::R2, skip); // taken... would loop; use jmp over
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.step(&p);
        s.step(&p);
        let nt = s.step(&p).unwrap();
        assert!(!nt.taken);
        let body = s.step(&p).unwrap();
        assert_eq!(
            body.inst,
            Inst::LoadImm {
                rd: Reg::R3,
                imm: 11
            }
        );
        let t = s.step(&p).unwrap();
        assert!(t.taken);
        assert_eq!(t.next_idx, 4); // bound at the bne itself
    }

    #[test]
    fn halt_stops_and_step_returns_none() {
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        let e = s.step(&p).unwrap();
        assert!(e.halted);
        assert!(s.halted());
        assert!(s.step(&p).is_none());
        assert_eq!(s.retired(), 1);
    }

    #[test]
    fn running_off_the_end_halts() {
        let p = Program::new("off", vec![Inst::Nop], vec![]);
        let mut s = ArchState::new(&p);
        assert!(s.step(&p).is_some());
        assert!(s.step(&p).is_none());
        assert!(s.halted());
    }

    /// Overwrites the first word of each of `pages` image pages at `base`.
    fn rewriter(base: u64, pages: u64) -> Program {
        let mut b = ProgramBuilder::new("rewrite");
        b.init_words_iter(base, (0..pages * 512).map(|i| i + 1));
        for p in 0..pages {
            b.li(Reg::R1, (base + p * 4096) as i64);
            b.li(Reg::R2, 1000 + p as i64);
            b.store(Reg::R2, Reg::R1, 0);
        }
        b.halt();
        b.finish()
    }

    #[test]
    fn a_store_is_private_to_the_state_that_made_it() {
        let p = rewriter(0x10_0000, 2);
        let (mut a, b) = (ArchState::new(&p), ArchState::new(&p));
        a.run(&p, 100);
        assert_eq!(
            (a.mem().load(0x10_0000), a.mem().load(0x10_1000)),
            (1000, 1001)
        );
        assert_eq!((a.mem().load(0x10_0008), a.mem().load(0x10_1008)), (2, 514));
        assert_eq!((b.mem().load(0x10_0000), b.mem().load(0x10_1000)), (1, 513));
        assert_eq!(ArchState::new(&p).mem().load(0x10_0000), 1);
        assert_eq!(p.data(), vec![(0x10_0000, (1..=1024).collect())]);
        assert_eq!(a.mem().written_pages(), vec![0x100, 0x101]);
        assert!(b.mem().written_pages().is_empty());
    }

    #[test]
    fn a_checkpoint_restores_onto_a_fresh_state() {
        use bfetch_snapshot::{Decoder, Encoder, SnapState};
        let p = rewriter(0x10_0000, 3);
        let mut a = ArchState::new(&p);
        a.run(&p, 7); // two of the three pages rewritten, mid-run
        let mut w = Encoder::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = ArchState::new(&p);
        let mut r = Decoder::new(&bytes);
        b.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(
            (b.pc(), b.retired(), b.regs()),
            (a.pc(), a.retired(), a.regs())
        );
        assert_eq!(b.mem().written_pages(), vec![0x100, 0x101]);
        a.run(&p, 100);
        b.run(&p, 100);
        for addr in (0x10_0000..0x10_3000).step_by(8) {
            assert_eq!(a.mem().load(addr), b.mem().load(addr), "{addr:#x}");
        }
    }

    #[test]
    fn restart_preserves_registers_and_memory() {
        let mut b = ProgramBuilder::new("r");
        b.li(Reg::R1, 0x3000);
        b.li(Reg::R2, 5);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 100);
        assert!(s.halted());
        s.restart();
        assert!(!s.halted());
        assert_eq!(s.pc(), 0);
        assert_eq!(s.reg(Reg::R2), 5);
        assert_eq!(s.mem().load(0x3000), 5);
    }
}
