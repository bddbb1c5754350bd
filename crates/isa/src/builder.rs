//! Label-based program assembler.

use crate::inst::Inst;
use crate::mem::{copying, Image};
use crate::program::Program;
use crate::reg::Reg;
use std::panic::RefUnwindSafe;

/// An opaque forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incrementally assembles a [`Program`], resolving forward branch targets
/// through [`Label`]s.
///
/// # Example
///
/// ```
/// use bfetch_isa::{ProgramBuilder, Reg};
/// let mut b = ProgramBuilder::new("count");
/// b.li(Reg::R1, 0);
/// b.li(Reg::R2, 10);
/// let top = b.label();
/// b.bind(top);
/// b.addi(Reg::R1, Reg::R1, 1);
/// b.blt(Reg::R1, Reg::R2, top);
/// b.halt();
/// let p = b.finish();
/// assert_eq!(p.len(), 5);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    image: Image,
    labels: Vec<Option<usize>>,
    // (instruction index, label) pairs awaiting backpatch
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Starts a new program named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the *next* emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len());
    }

    /// Index that the next emitted instruction will occupy.
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Appends a raw instruction and returns its index.
    pub fn inst(&mut self, i: Inst) -> usize {
        self.insts.push(i);
        self.insts.len() - 1
    }

    /// Registers an initial data segment of 8-byte `words` at `base`. The
    /// program keeps a copy of the words.
    pub fn init_words(&mut self, base: u64, words: &[u64]) {
        self.init_words_iter(base, words.iter().copied());
    }

    /// [`ProgramBuilder::init_words`] from an iterator, collected into the
    /// program's copy. A large generated image belongs in
    /// [`ProgramBuilder::init_words_fill`] instead, which holds no words.
    pub fn init_words_iter(&mut self, base: u64, words: impl IntoIterator<Item = u64>) {
        let words: Vec<u64> = words.into_iter().collect();
        self.image.push(base, words.len(), copying(words));
    }

    /// Registers an initial data segment of `len` words at `base` that
    /// `fill` generates on demand: `fill(first, out)` writes the segment's
    /// words `first..first + out.len()` into `out`. It is called for the
    /// page of each line a run first touches, for [`Program::data`] and
    /// for a checkpoint's copy of the program, so it must give the same
    /// words for the same positions however the segment is split.
    pub fn init_words_fill(
        &mut self,
        base: u64,
        len: usize,
        fill: impl Fn(usize, &mut [u64]) + Send + Sync + RefUnwindSafe + 'static,
    ) {
        self.image.push(base, len, Box::new(fill));
    }

    // ---- convenience emitters -------------------------------------------

    /// `rd = imm`
    pub fn li(&mut self, rd: Reg, imm: i64) -> usize {
        self.inst(Inst::LoadImm { rd, imm })
    }
    /// `rd = rs + imm`
    pub fn addi(&mut self, rd: Reg, rs: Reg, imm: i64) -> usize {
        self.inst(Inst::AddI { rd, rs, imm })
    }
    /// `rd = ra + rb`
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) -> usize {
        self.inst(Inst::Add { rd, ra, rb })
    }
    /// `rd = ra - rb`
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) -> usize {
        self.inst(Inst::Sub { rd, ra, rb })
    }
    /// `rd = ra * rb`
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) -> usize {
        self.inst(Inst::Mul { rd, ra, rb })
    }
    /// `rd = ra ^ rb`
    pub fn xor(&mut self, rd: Reg, ra: Reg, rb: Reg) -> usize {
        self.inst(Inst::Xor { rd, ra, rb })
    }
    /// `rd = ra & rb`
    pub fn and(&mut self, rd: Reg, ra: Reg, rb: Reg) -> usize {
        self.inst(Inst::And { rd, ra, rb })
    }
    /// `rd = ra | rb`
    pub fn or(&mut self, rd: Reg, ra: Reg, rb: Reg) -> usize {
        self.inst(Inst::Or { rd, ra, rb })
    }
    /// `rd = rs << sh`
    pub fn slli(&mut self, rd: Reg, rs: Reg, sh: u8) -> usize {
        self.inst(Inst::SllI { rd, rs, sh })
    }
    /// `rd = rs >> sh`
    pub fn srli(&mut self, rd: Reg, rs: Reg, sh: u8) -> usize {
        self.inst(Inst::SrlI { rd, rs, sh })
    }
    /// `rd = mem[base + offset]`
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i64) -> usize {
        self.inst(Inst::Load { rd, base, offset })
    }
    /// `mem[base + offset] = rs`
    pub fn store(&mut self, rs: Reg, base: Reg, offset: i64) -> usize {
        self.inst(Inst::Store { rs, base, offset })
    }
    /// `nop`
    pub fn nop(&mut self) -> usize {
        self.inst(Inst::Nop)
    }
    /// `halt`
    pub fn halt(&mut self) -> usize {
        self.inst(Inst::Halt)
    }

    fn branch(&mut self, make: impl FnOnce(usize) -> Inst, label: Label) -> usize {
        let idx = self.inst(make(usize::MAX));
        self.fixups.push((idx, label));
        idx
    }

    /// `beq ra, rb, label`
    pub fn beq(&mut self, ra: Reg, rb: Reg, label: Label) -> usize {
        self.branch(|target| Inst::Beq { ra, rb, target }, label)
    }
    /// `bne ra, rb, label`
    pub fn bne(&mut self, ra: Reg, rb: Reg, label: Label) -> usize {
        self.branch(|target| Inst::Bne { ra, rb, target }, label)
    }
    /// `blt ra, rb, label` (signed)
    pub fn blt(&mut self, ra: Reg, rb: Reg, label: Label) -> usize {
        self.branch(|target| Inst::Blt { ra, rb, target }, label)
    }
    /// `bge ra, rb, label` (signed)
    pub fn bge(&mut self, ra: Reg, rb: Reg, label: Label) -> usize {
        self.branch(|target| Inst::Bge { ra, rb, target }, label)
    }
    /// `jmp label`
    pub fn jmp(&mut self, label: Label) -> usize {
        self.branch(|target| Inst::Jmp { target }, label)
    }

    /// Resolves all labels and produces the [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound, or if two data
    /// segments share a word.
    pub fn finish(mut self) -> Program {
        for (idx, label) in self.fixups.drain(..) {
            let target = self.labels[label.0]
                .unwrap_or_else(|| panic!("label {label:?} referenced but never bound"));
            let inst = &mut self.insts[idx];
            *inst = match *inst {
                Inst::Beq { ra, rb, .. } => Inst::Beq { ra, rb, target },
                Inst::Bne { ra, rb, .. } => Inst::Bne { ra, rb, target },
                Inst::Blt { ra, rb, .. } => Inst::Blt { ra, rb, target },
                Inst::Bge { ra, rb, .. } => Inst::Bge { ra, rb, target },
                Inst::Jmp { .. } => Inst::Jmp { target },
                other => panic!("fixup on non-branch {other}"),
            };
        }
        Program::from_image(self.name, self.insts, self.image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ArchState;

    #[test]
    fn forward_label_backpatches() {
        let mut b = ProgramBuilder::new("fwd");
        let end = b.label();
        b.li(Reg::R1, 1);
        b.beq(Reg::R1, Reg::R1, end); // taken, jumps forward
        b.li(Reg::R2, 99); // skipped
        b.bind(end);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 10);
        assert_eq!(s.reg(Reg::R2), 0);
    }

    #[test]
    fn backward_label_loops() {
        let mut b = ProgramBuilder::new("back");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 5);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 100);
        assert_eq!(s.reg(Reg::R1), 5);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new("x");
        let l = b.label();
        b.jmp(l);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new("x");
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn data_segments_flow_through() {
        let mut b = ProgramBuilder::new("d");
        b.init_words(0x9000, &[1, 2, 3]);
        b.halt();
        let p = b.finish();
        assert_eq!(p.data(), vec![(0x9000, vec![1, 2, 3])]);
    }

    #[test]
    fn streamed_and_sliced_segments_agree() {
        let mut b = ProgramBuilder::new("s");
        b.init_words_iter(0x9000, (0..1000).map(|i| i * 3));
        b.init_words(0x1_0000, &[7]);
        b.halt();
        let p = b.finish();
        let streamed: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(p.data(), vec![(0x9000, streamed), (0x1_0000, vec![7])]);
    }

    #[test]
    fn here_tracks_position() {
        let mut b = ProgramBuilder::new("h");
        assert_eq!(b.here(), 0);
        b.nop();
        assert_eq!(b.here(), 1);
    }
}
