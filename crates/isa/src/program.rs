//! Programs: instruction sequences plus initial data images.

use crate::inst::{Inst, OpClass};
use crate::mem::{copying, Image, SparseMemory};
use bfetch_snapshot::{Decoder, Encoder, Snap, SnapshotError, Source};
use std::convert::Infallible;
use std::sync::Arc;

/// Base byte address at which code is laid out (for I-cache modelling and
/// PC hashing). Data segments must live below or well above this.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Encoded instruction size in bytes (fixed-width, RISC style).
pub const INST_BYTES: u64 = 4;

/// Byte PC of the instruction at index `idx` of any program.
#[inline]
fn pc_of(idx: usize) -> u64 {
    CODE_BASE + (idx as u64) * INST_BYTES
}

/// Everything about one static instruction that a timing model asks of it
/// for every dynamic instance, decoded once per [`Program`] so the fetch
/// loop reads one 32-byte record where it would otherwise re-match the
/// [`Inst`] enum a dozen times. Derived from the instruction stream: never
/// serialized, rebuilt by [`Program::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Byte PC ([`Program::pc_addr`] of the instruction's index).
    pub pc: u64,
    /// Taken-target byte PC of a branch, `0` otherwise.
    pub taken_target: u64,
    /// Byte PC of the next sequential instruction.
    pub fallthrough: u64,
    /// Destination register index, when [`StaticInst::HAS_DST`] is set
    /// (`r0` is still reported, as by [`Inst::dst`]).
    pub dst: u8,
    /// Source register indices with `r0` filtered out: `0` means no
    /// dependence in that position.
    pub srcs: [u8; 2],
    /// Base register index of a load or store, `0` otherwise.
    pub base_reg: u8,
    /// The `IS_*`/`HAS_DST` bits below.
    pub flags: u8,
}

impl StaticInst {
    /// Writes [`StaticInst::dst`].
    pub const HAS_DST: u8 = 1 << 0;
    /// Any control transfer.
    pub const IS_BRANCH: u8 = 1 << 1;
    /// A conditional branch (implies [`StaticInst::IS_BRANCH`]).
    pub const IS_COND: u8 = 1 << 2;
    /// A memory read.
    pub const IS_LOAD: u8 = 1 << 3;
    /// A memory write.
    pub const IS_STORE: u8 = 1 << 4;
    /// Executes on the multiplier ([`OpClass::IntMul`]).
    pub const IS_MUL: u8 = 1 << 5;

    fn decode(idx: usize, inst: Inst) -> Self {
        let pc = pc_of(idx);
        let class = inst.class();
        let mut flags = 0;
        for (bit, on) in [
            (Self::HAS_DST, inst.dst().is_some()),
            (Self::IS_BRANCH, class == OpClass::Branch),
            (Self::IS_COND, inst.is_cond_branch()),
            (Self::IS_LOAD, class == OpClass::Load),
            (Self::IS_STORE, class == OpClass::Store),
            (Self::IS_MUL, class == OpClass::IntMul),
        ] {
            if on {
                flags |= bit;
            }
        }
        Self {
            pc,
            taken_target: inst.branch_target().map_or(0, pc_of),
            fallthrough: pc + INST_BYTES,
            dst: inst.dst().map_or(0, |r| r.index() as u8),
            srcs: inst.srcs().map(|s| s.map_or(0, |r| r.index() as u8)),
            base_reg: inst.mem_info().map_or(0, |m| m.base.index() as u8),
            flags,
        }
    }

    /// Whether every bit of `mask` is set.
    #[inline]
    pub fn is(&self, mask: u8) -> bool {
        self.flags & mask == mask
    }

    /// The destination register index, if the instruction writes one.
    #[inline]
    pub fn dest(&self) -> Option<u8> {
        self.is(Self::HAS_DST).then_some(self.dst)
    }
}

/// A complete program: instruction stream, name, and initial data image.
///
/// Instruction indices are the canonical "location" unit; byte PCs (as seen
/// by predictors and prefetchers) are derived with [`Program::pc_addr`].
///
/// The instruction stream and data image are immutable once built and are
/// shared behind `Arc`, so `Clone` is O(1) and the many per-core copies a
/// CMP run makes (one per [`Core`](../bfetch_sim) plus the caller's) all
/// alias one allocation. The data image is kept as segments, each a word
/// count and a fill that produces any run of its words: a generated
/// segment holds no words at all, and each
/// [`ArchState`](crate::ArchState) built from the program generates only
/// the 64-byte lines it touches (see [`SparseMemory`]).
#[derive(Debug, Clone, Default)]
pub struct Program {
    name: Arc<str>,
    insts: Arc<[Inst]>,
    decoded: Arc<[StaticInst]>,
    image: Arc<Image>,
}

/// What keeps `insts` and `image` from being a program, if anything: the
/// reason a snapshot load reports, and the detail a constructor panics
/// with.
fn defect(insts: &[Inst], image: &Image) -> Option<(&'static str, String)> {
    for (i, inst) in insts.iter().enumerate() {
        if let Some(t) = inst.branch_target().filter(|&t| t >= insts.len()) {
            return Some((
                "branch target out of program range",
                format!("instruction {i} ({inst}) targets out-of-range index {t}"),
            ));
        }
    }
    image
        .conflict()
        .map(|detail| ("data segments overlap or wrap", detail))
}

impl Program {
    /// Creates a program from parts. Prefer [`ProgramBuilder`](crate::ProgramBuilder).
    ///
    /// # Panics
    ///
    /// Panics if any branch target is out of range, or if two data
    /// segments share a word.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>, data: Vec<(u64, Vec<u64>)>) -> Self {
        let mut image = Image::default();
        for (base, words) in data {
            image.push(base, words.len(), copying(words));
        }
        Self::from_image(name.into(), insts, image)
    }

    /// [`Program::new`] over an image already built.
    pub(crate) fn from_image(name: String, insts: Vec<Inst>, image: Image) -> Self {
        if let Some((_, detail)) = defect(&insts, &image) {
            panic!("{detail}");
        }
        Self {
            name: name.into(),
            decoded: insts
                .iter()
                .enumerate()
                .map(|(i, &inst)| StaticInst::decode(i, inst))
                .collect(),
            insts: insts.into(),
            image: Arc::new(image),
        }
    }

    /// The same program under another name.
    pub(crate) fn renamed(mut self, name: String) -> Self {
        self.name = name.into();
        self
    }

    /// The program's name (workload identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn inst(&self, idx: usize) -> Inst {
        self.insts[idx]
    }

    /// The instruction at `idx`, or `None` past the end.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<Inst> {
        self.insts.get(idx).copied()
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All instructions, in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The predecoded record of every instruction, in order.
    #[inline]
    pub fn decoded(&self) -> &[StaticInst] {
        &self.decoded
    }

    /// Byte PC of the instruction at `idx`.
    #[inline]
    pub fn pc_addr(&self, idx: usize) -> u64 {
        pc_of(idx)
    }

    /// Inverse of [`Program::pc_addr`].
    #[inline]
    pub fn addr_to_idx(&self, pc: u64) -> usize {
        ((pc - CODE_BASE) / INST_BYTES) as usize
    }

    /// Initial data segments `(base address, words)`, in the order they
    /// were given, each produced whole from its fill: a copy, for
    /// inspection and round-trip checks.
    pub fn data(&self) -> Vec<(u64, Vec<u64>)> {
        self.image.data()
    }

    /// A data memory over the initial image, with no line resident yet.
    pub(crate) fn initial_memory(&self) -> SparseMemory {
        SparseMemory::over(Arc::clone(&self.image))
    }

    /// Count of static conditional branches (useful for predictor sizing
    /// sanity checks).
    pub fn cond_branch_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_cond_branch()).count()
    }
}

/// A program's encoding is the bytes of `(String, Vec<Inst>, Vec<(u64,
/// Vec<u64>)>)` for the name, instructions and [`Program::data`], written
/// from the segments' fills. It is produced a page of data words at a
/// time, so a checkpoint streams a generated image of any size to its
/// file without a whole copy; a decoded program holds its words.
impl Program {
    /// Hands the encoding to `sink` in pieces of at most a page of data
    /// words (the first also carries the name and instructions).
    pub fn save_to<E>(&self, mut sink: impl FnMut(&[u8]) -> Result<(), E>) -> Result<(), E> {
        let mut w = Encoder::new();
        w.put_len_bytes(self.name.as_bytes());
        bfetch_snapshot::save_slice(&self.insts, &mut w);
        self.image.save_to(&mut w, &mut sink)
    }

    /// Decodes a program from `s`, a buffer or a frame section streamed
    /// from a file. A corrupt encoding is a typed error, never the
    /// constructor's panic.
    pub fn read_from(s: &mut impl Source) -> Result<Self, SnapshotError> {
        let n = s.take_count(1)?;
        let name = s.decode(n, |r| {
            String::from_utf8(r.take_bytes(n)?.to_vec()).map_err(|_| SnapshotError::Invalid {
                what: "string is not UTF-8",
            })
        })?;
        let insts = (0..s.take_count(1)?)
            .map(|_| s.decode(0, Inst::load))
            .collect::<Result<Vec<_>, _>>()?;
        let image = Image::read(s)?;
        if let Some((what, _)) = defect(&insts, &image) {
            return Err(SnapshotError::Invalid { what });
        }
        Ok(Program::from_image(name, insts, image))
    }
}

impl Snap for Program {
    fn save(&self, w: &mut Encoder) {
        let Ok(()) = self.save_to(|bytes| {
            w.put_bytes(bytes);
            Ok::<_, Infallible>(())
        });
    }

    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Program::read_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;
    use bfetch_snapshot::Snap;

    fn tiny() -> Program {
        Program::new(
            "tiny",
            vec![
                Inst::LoadImm {
                    rd: Reg::R1,
                    imm: 1,
                },
                Inst::Beq {
                    ra: Reg::R1,
                    rb: Reg::R0,
                    target: 0,
                },
                Inst::Halt,
            ],
            vec![(0x1000, vec![9, 8])],
        )
    }

    #[test]
    fn pc_mapping_round_trips() {
        let p = tiny();
        for idx in 0..p.len() {
            assert_eq!(p.addr_to_idx(p.pc_addr(idx)), idx);
        }
        assert_eq!(p.pc_addr(0), CODE_BASE);
        assert_eq!(p.pc_addr(1), CODE_BASE + 4);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn rejects_wild_branch_target() {
        Program::new("bad", vec![Inst::Jmp { target: 10 }], vec![]);
    }

    #[test]
    fn data_image_loads() {
        let m = tiny().initial_memory();
        assert_eq!(m.load(0x1000), 9);
        assert_eq!(m.load(0x1008), 8);
    }

    #[test]
    #[should_panic(expected = "data segments at 0x1010 and 0x1000 overlap")]
    fn rejects_overlapping_segments() {
        Program::new(
            "bad",
            vec![Inst::Halt],
            vec![(0x1010, vec![1]), (0x1000, vec![2, 3, 4])],
        );
    }

    #[test]
    fn overlapping_segments_in_a_snapshot_are_invalid() {
        let mut w = bfetch_snapshot::Encoder::new();
        "bad".to_string().save(&mut w);
        vec![Inst::Halt].save(&mut w);
        vec![(0x1000u64, vec![1u64, 2]), (0x1008, vec![3])].save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            Program::load(&mut bfetch_snapshot::Decoder::new(&bytes)).unwrap_err(),
            bfetch_snapshot::SnapshotError::Invalid {
                what: "data segments overlap or wrap"
            }
        );
    }

    #[test]
    fn snapshot_bytes_are_the_segment_list_encoding() {
        let p = Program::new(
            "segs",
            vec![Inst::Halt],
            vec![(0x2ff0, (0..700).collect()), (0x9, vec![]), (0x11, vec![5])],
        );
        let mut want = bfetch_snapshot::Encoder::new();
        (p.name().to_string(), p.insts().to_vec(), p.data()).save(&mut want);
        let mut got = bfetch_snapshot::Encoder::new();
        p.save(&mut got);
        let bytes = got.into_bytes();
        assert_eq!(bytes, want.into_bytes());
        let back = Program::load(&mut bfetch_snapshot::Decoder::new(&bytes)).unwrap();
        assert_eq!(
            (back.name(), back.insts(), back.data()),
            (p.name(), p.insts(), p.data())
        );
    }

    #[test]
    fn decoded_records_agree_with_the_instruction_helpers() {
        let p = Program::new(
            "decode",
            vec![
                Inst::Load {
                    rd: Reg::R0,
                    base: Reg::R2,
                    offset: 8,
                },
                Inst::Store {
                    rs: Reg::R0,
                    base: Reg::R3,
                    offset: 0,
                },
                Inst::Mul {
                    rd: Reg::R4,
                    ra: Reg::R4,
                    rb: Reg::R0,
                },
                Inst::Blt {
                    ra: Reg::R1,
                    rb: Reg::R2,
                    target: 0,
                },
                Inst::Jmp { target: 2 },
                Inst::Halt,
            ],
            vec![],
        );
        for (idx, (d, inst)) in p.decoded().iter().zip(p.insts()).enumerate() {
            assert_eq!(d.pc, p.pc_addr(idx));
            assert_eq!(d.fallthrough, p.pc_addr(idx + 1));
            assert_eq!(
                d.taken_target,
                inst.branch_target().map_or(0, |t| p.pc_addr(t))
            );
            assert_eq!(d.dest(), inst.dst().map(|r| r.index() as u8));
            let srcs = inst.srcs().map(|s| s.map_or(0, |r| r.index() as u8));
            assert_eq!(d.srcs, srcs, "r0 and no source are both 0");
            assert_eq!(d.is(StaticInst::IS_BRANCH), inst.is_branch());
            assert_eq!(d.is(StaticInst::IS_COND), inst.is_cond_branch());
            assert_eq!(d.is(StaticInst::IS_LOAD), inst.class() == OpClass::Load);
            assert_eq!(d.is(StaticInst::IS_STORE), inst.class() == OpClass::Store);
            assert_eq!(d.is(StaticInst::IS_MUL), inst.class() == OpClass::IntMul);
            assert_eq!(
                d.base_reg,
                inst.mem_info().map_or(0, |m| m.base.index() as u8)
            );
        }
        // the load writes r0: still a destination, as `Inst::dst` reports it
        assert_eq!(p.decoded()[0].dest(), Some(0));
    }

    #[test]
    fn counts_cond_branches() {
        assert_eq!(tiny().cond_branch_count(), 1);
    }
}
