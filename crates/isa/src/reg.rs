//! Architectural register names.

use std::fmt;

/// One of the 32 general-purpose 64-bit architectural registers.
///
/// `R0` is hardwired to zero: reads return `0` and writes are discarded,
/// mirroring the Alpha/MIPS convention the paper's ISA follows.
///
/// # Example
///
/// ```
/// use bfetch_isa::Reg;
/// let r = Reg::from_index(5).unwrap();
/// assert_eq!(r, Reg::R5);
/// assert_eq!(r.index(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Reg {
    R0 = 0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
    R16,
    R17,
    R18,
    R19,
    R20,
    R21,
    R22,
    R23,
    R24,
    R25,
    R26,
    R27,
    R28,
    R29,
    R30,
    R31,
}

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

impl Reg {
    /// All registers in index order.
    pub const ALL: [Reg; NUM_REGS] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
        Reg::R16,
        Reg::R17,
        Reg::R18,
        Reg::R19,
        Reg::R20,
        Reg::R21,
        Reg::R22,
        Reg::R23,
        Reg::R24,
        Reg::R25,
        Reg::R26,
        Reg::R27,
        Reg::R28,
        Reg::R29,
        Reg::R30,
        Reg::R31,
    ];

    /// The register's index in `0..32`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a register from an index.
    ///
    /// Returns `None` when `idx >= 32`.
    #[inline]
    pub fn from_index(idx: usize) -> Option<Reg> {
        Reg::ALL.get(idx).copied()
    }

    /// Whether this is the hardwired-zero register.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Reg::R0
    }
}

impl bfetch_snapshot::Snap for Reg {
    fn save(&self, w: &mut bfetch_snapshot::Encoder) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut bfetch_snapshot::Decoder<'_>) -> Result<Self, bfetch_snapshot::SnapshotError> {
        Reg::from_index(r.take_u8()? as usize).ok_or(bfetch_snapshot::SnapshotError::Invalid {
            what: "register index out of range",
        })
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for i in 0..NUM_REGS {
            let r = Reg::from_index(i).expect("valid index");
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn out_of_range_is_none() {
        assert_eq!(Reg::from_index(32), None);
        assert_eq!(Reg::from_index(usize::MAX), None);
    }

    #[test]
    fn zero_register() {
        assert!(Reg::R0.is_zero());
        assert!(!Reg::R1.is_zero());
    }

    #[test]
    fn display_format() {
        assert_eq!(Reg::R0.to_string(), "r0");
        assert_eq!(Reg::R31.to_string(), "r31");
    }

    #[test]
    fn all_is_sorted_and_unique() {
        for w in Reg::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
