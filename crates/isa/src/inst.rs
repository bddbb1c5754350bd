//! Instruction definitions and static classification helpers.

use crate::reg::Reg;
use std::fmt;

/// A single instruction.
///
/// Branch targets are *instruction indices* into the owning
/// [`Program`](crate::Program); byte addresses are derived via
/// [`Program::pc_addr`](crate::Program::pc_addr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stop execution.
    Halt,
    /// `rd = ra + rb`
    Add { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra - rb`
    Sub { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra * rb` (wrapping)
    Mul { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra ^ rb`
    Xor { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra & rb`
    And { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra | rb`
    Or { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = rs + imm` (wrapping, signed immediate)
    AddI { rd: Reg, rs: Reg, imm: i64 },
    /// `rd = rs << sh`
    SllI { rd: Reg, rs: Reg, sh: u8 },
    /// `rd = rs >> sh` (logical)
    SrlI { rd: Reg, rs: Reg, sh: u8 },
    /// `rd = imm`
    LoadImm { rd: Reg, imm: i64 },
    /// `rd = mem[base + offset]`
    Load { rd: Reg, base: Reg, offset: i64 },
    /// `mem[base + offset] = rs`
    Store { rs: Reg, base: Reg, offset: i64 },
    /// Branch to `target` if `ra == rb`.
    Beq { ra: Reg, rb: Reg, target: usize },
    /// Branch to `target` if `ra != rb`.
    Bne { ra: Reg, rb: Reg, target: usize },
    /// Branch to `target` if `ra < rb` (signed).
    Blt { ra: Reg, rb: Reg, target: usize },
    /// Branch to `target` if `ra >= rb` (signed).
    Bge { ra: Reg, rb: Reg, target: usize },
    /// Unconditional jump to `target`.
    Jmp { target: usize },
}

/// Coarse functional-unit class of an instruction, used by the timing model
/// to pick execution latency and issue port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU operation (1 cycle).
    IntAlu,
    /// Integer multiply (3 cycles).
    IntMul,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Control transfer.
    Branch,
    /// No functional unit (nop/halt).
    None,
}

/// Static description of a memory instruction: its base register, signed
/// offset, and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemInfo {
    /// The base (address-generating) register.
    pub base: Reg,
    /// The static displacement added to the base register.
    pub offset: i64,
    /// `true` for loads, `false` for stores.
    pub is_load: bool,
}

impl Inst {
    /// The destination register written by this instruction, if any.
    ///
    /// Writes to `r0` are architectural no-ops but are still reported here;
    /// the functional state discards them.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Add { rd, .. }
            | Inst::Sub { rd, .. }
            | Inst::Mul { rd, .. }
            | Inst::Xor { rd, .. }
            | Inst::And { rd, .. }
            | Inst::Or { rd, .. }
            | Inst::AddI { rd, .. }
            | Inst::SllI { rd, .. }
            | Inst::SrlI { rd, .. }
            | Inst::LoadImm { rd, .. }
            | Inst::Load { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Up to two source registers read by this instruction.
    pub fn srcs(&self) -> [Option<Reg>; 2] {
        match *self {
            Inst::Add { ra, rb, .. }
            | Inst::Sub { ra, rb, .. }
            | Inst::Mul { ra, rb, .. }
            | Inst::Xor { ra, rb, .. }
            | Inst::And { ra, rb, .. }
            | Inst::Or { ra, rb, .. }
            | Inst::Beq { ra, rb, .. }
            | Inst::Bne { ra, rb, .. }
            | Inst::Blt { ra, rb, .. }
            | Inst::Bge { ra, rb, .. } => [Some(ra), Some(rb)],
            Inst::AddI { rs, .. } | Inst::SllI { rs, .. } | Inst::SrlI { rs, .. } => {
                [Some(rs), None]
            }
            Inst::Load { base, .. } => [Some(base), None],
            Inst::Store { rs, base, .. } => [Some(base), Some(rs)],
            Inst::Nop | Inst::Halt | Inst::LoadImm { .. } | Inst::Jmp { .. } => [None, None],
        }
    }

    /// The functional-unit class of this instruction.
    pub fn class(&self) -> OpClass {
        match self {
            Inst::Nop | Inst::Halt => OpClass::None,
            Inst::Mul { .. } => OpClass::IntMul,
            Inst::Load { .. } => OpClass::Load,
            Inst::Store { .. } => OpClass::Store,
            Inst::Beq { .. }
            | Inst::Bne { .. }
            | Inst::Blt { .. }
            | Inst::Bge { .. }
            | Inst::Jmp { .. } => OpClass::Branch,
            _ => OpClass::IntAlu,
        }
    }

    /// Whether this is any control-transfer instruction (conditional or not).
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.class() == OpClass::Branch
    }

    /// Whether this is a *conditional* branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(
            self,
            Inst::Beq { .. } | Inst::Bne { .. } | Inst::Blt { .. } | Inst::Bge { .. }
        )
    }

    /// The static branch target (instruction index), if this is a branch.
    pub fn branch_target(&self) -> Option<usize> {
        match *self {
            Inst::Beq { target, .. }
            | Inst::Bne { target, .. }
            | Inst::Blt { target, .. }
            | Inst::Bge { target, .. }
            | Inst::Jmp { target } => Some(target),
            _ => None,
        }
    }

    /// Static memory-operand description, if this is a load or store.
    pub fn mem_info(&self) -> Option<MemInfo> {
        match *self {
            Inst::Load { base, offset, .. } => Some(MemInfo {
                base,
                offset,
                is_load: true,
            }),
            Inst::Store { base, offset, .. } => Some(MemInfo {
                base,
                offset,
                is_load: false,
            }),
            _ => None,
        }
    }

    /// Whether this instruction accesses data memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }
}

bfetch_snapshot::impl_snap_enum!(Inst {
    Inst::Nop = 0,
    Inst::Halt = 1,
    Inst::Add { rd, ra, rb } = 2,
    Inst::Sub { rd, ra, rb } = 3,
    Inst::Mul { rd, ra, rb } = 4,
    Inst::Xor { rd, ra, rb } = 5,
    Inst::And { rd, ra, rb } = 6,
    Inst::Or { rd, ra, rb } = 7,
    Inst::AddI { rd, rs, imm } = 8,
    Inst::SllI { rd, rs, sh } = 9,
    Inst::SrlI { rd, rs, sh } = 10,
    Inst::LoadImm { rd, imm } = 11,
    Inst::Load { rd, base, offset } = 12,
    Inst::Store { rs, base, offset } = 13,
    Inst::Beq { ra, rb, target } = 14,
    Inst::Bne { ra, rb, target } = 15,
    Inst::Blt { ra, rb, target } = 16,
    Inst::Bge { ra, rb, target } = 17,
    Inst::Jmp { target } = 18,
});

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::Add { rd, ra, rb } => write!(f, "add {rd}, {ra}, {rb}"),
            Inst::Sub { rd, ra, rb } => write!(f, "sub {rd}, {ra}, {rb}"),
            Inst::Mul { rd, ra, rb } => write!(f, "mul {rd}, {ra}, {rb}"),
            Inst::Xor { rd, ra, rb } => write!(f, "xor {rd}, {ra}, {rb}"),
            Inst::And { rd, ra, rb } => write!(f, "and {rd}, {ra}, {rb}"),
            Inst::Or { rd, ra, rb } => write!(f, "or {rd}, {ra}, {rb}"),
            Inst::AddI { rd, rs, imm } => write!(f, "addi {rd}, {rs}, {imm:#x}"),
            Inst::SllI { rd, rs, sh } => write!(f, "slli {rd}, {rs}, {sh}"),
            Inst::SrlI { rd, rs, sh } => write!(f, "srli {rd}, {rs}, {sh}"),
            Inst::LoadImm { rd, imm } => write!(f, "li {rd}, {imm:#x}"),
            Inst::Load { rd, base, offset } => write!(f, "load {rd}, {offset}({base})"),
            Inst::Store { rs, base, offset } => write!(f, "store {rs}, {offset}({base})"),
            Inst::Beq { ra, rb, target } => write!(f, "beq {ra}, {rb}, @{target}"),
            Inst::Bne { ra, rb, target } => write!(f, "bne {ra}, {rb}, @{target}"),
            Inst::Blt { ra, rb, target } => write!(f, "blt {ra}, {rb}, @{target}"),
            Inst::Bge { ra, rb, target } => write!(f, "bge {ra}, {rb}, @{target}"),
            Inst::Jmp { target } => write!(f, "jmp @{target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let ld = Inst::Load {
            rd: Reg::R1,
            base: Reg::R2,
            offset: 8,
        };
        assert_eq!(ld.class(), OpClass::Load);
        assert!(ld.is_mem());
        assert!(!ld.is_branch());
        assert_eq!(ld.dst(), Some(Reg::R1));
        assert_eq!(ld.srcs(), [Some(Reg::R2), None]);
        let mi = ld.mem_info().unwrap();
        assert_eq!(mi.base, Reg::R2);
        assert_eq!(mi.offset, 8);
        assert!(mi.is_load);
    }

    #[test]
    fn store_sources_include_data_register() {
        let st = Inst::Store {
            rs: Reg::R7,
            base: Reg::R3,
            offset: -16,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), [Some(Reg::R3), Some(Reg::R7)]);
        assert!(!st.mem_info().unwrap().is_load);
    }

    #[test]
    fn branch_properties() {
        let b = Inst::Blt {
            ra: Reg::R1,
            rb: Reg::R2,
            target: 42,
        };
        assert!(b.is_branch());
        assert!(b.is_cond_branch());
        assert_eq!(b.branch_target(), Some(42));

        let j = Inst::Jmp { target: 7 };
        assert!(j.is_branch());
        assert!(!j.is_cond_branch());
        assert_eq!(j.branch_target(), Some(7));

        assert!(!Inst::Nop.is_branch());
        assert_eq!(Inst::Nop.branch_target(), None);
    }

    #[test]
    fn display_nonempty_for_all_variants() {
        let insts = [
            Inst::Nop,
            Inst::Halt,
            Inst::Add {
                rd: Reg::R1,
                ra: Reg::R2,
                rb: Reg::R3,
            },
            Inst::AddI {
                rd: Reg::R1,
                rs: Reg::R2,
                imm: -4,
            },
            Inst::LoadImm {
                rd: Reg::R1,
                imm: 99,
            },
            Inst::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Inst::Store {
                rs: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Inst::Beq {
                ra: Reg::R1,
                rb: Reg::R0,
                target: 0,
            },
            Inst::Jmp { target: 0 },
        ];
        for i in insts {
            assert!(!i.to_string().is_empty());
        }
    }

    #[test]
    fn mul_uses_mul_class() {
        let m = Inst::Mul {
            rd: Reg::R1,
            ra: Reg::R1,
            rb: Reg::R1,
        };
        assert_eq!(m.class(), OpClass::IntMul);
    }
}
