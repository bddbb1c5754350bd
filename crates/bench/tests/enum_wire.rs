//! Pins the snapshot wire bytes of the two enums with fields: one instance
//! of every `Inst` variant (every instruction of a checkpointed program)
//! and every `TraceKind` variant (every lifecycle event of a checkpointed
//! trace ring). A tag or field-order change makes old cache entries and
//! checkpoints decode as something else, so it must show up here first.
//! Each encoding is the `u8` tag, then the fields in declaration order,
//! little-endian; `usize` travels as eight bytes.

use bfetch_isa::{Inst, Reg};
use bfetch_snapshot::{Decoder, Encoder, Snap, SnapshotError};
use bfetch_stats::trace::{DropReason, ServiceLevel, TraceKind};
use std::fmt::Debug;

fn hex<T: Snap>(v: &T) -> String {
    let mut w = Encoder::new();
    v.save(&mut w);
    w.into_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// Each value encodes to its pinned hex and decodes back to itself.
fn check<T: Snap + PartialEq + Debug>(cases: &[(T, &str)]) {
    for (v, want) in cases {
        assert_eq!(hex(v), *want, "{v:?}");
        let mut w = Encoder::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert_eq!(&T::load(&mut r).unwrap(), v);
        r.finish().unwrap();
    }
}

fn unknown_tag<T: Snap + Debug>(tag: u8) -> &'static str {
    match T::load(&mut Decoder::new(&[tag])) {
        Err(SnapshotError::Invalid { what }) => what,
        other => panic!("tag {tag}: expected Invalid, got {other:?}"),
    }
}

#[test]
fn every_inst_variant_encodes_to_its_pinned_bytes() {
    let (a, b, c) = (Reg::R1, Reg::R2, Reg::R31);
    check(&[
        (Inst::Nop, "00"),
        (Inst::Halt, "01"),
        (
            Inst::Add {
                rd: a,
                ra: b,
                rb: c,
            },
            "0201021f",
        ),
        (
            Inst::Sub {
                rd: a,
                ra: b,
                rb: c,
            },
            "0301021f",
        ),
        (
            Inst::Mul {
                rd: a,
                ra: b,
                rb: c,
            },
            "0401021f",
        ),
        (
            Inst::Xor {
                rd: a,
                ra: b,
                rb: c,
            },
            "0501021f",
        ),
        (
            Inst::And {
                rd: a,
                ra: b,
                rb: c,
            },
            "0601021f",
        ),
        (
            Inst::Or {
                rd: a,
                ra: b,
                rb: c,
            },
            "0701021f",
        ),
        (
            Inst::AddI {
                rd: a,
                rs: b,
                imm: -5,
            },
            "080102fbffffffffffffff",
        ),
        (
            Inst::SllI {
                rd: a,
                rs: b,
                sh: 7,
            },
            "09010207",
        ),
        (
            Inst::SrlI {
                rd: a,
                rs: b,
                sh: 63,
            },
            "0a01023f",
        ),
        (
            Inst::LoadImm {
                rd: c,
                imm: 0x0123_4567_89ab_cdef,
            },
            "0b1fefcdab8967452301",
        ),
        (
            Inst::Load {
                rd: a,
                base: b,
                offset: -8,
            },
            "0c0102f8ffffffffffffff",
        ),
        (
            Inst::Store {
                rs: a,
                base: b,
                offset: 24,
            },
            "0d01021800000000000000",
        ),
        (
            Inst::Beq {
                ra: a,
                rb: b,
                target: 0x1234,
            },
            "0e01023412000000000000",
        ),
        (
            Inst::Bne {
                ra: a,
                rb: b,
                target: 1,
            },
            "0f01020100000000000000",
        ),
        (
            Inst::Blt {
                ra: b,
                rb: a,
                target: 2,
            },
            "1002010200000000000000",
        ),
        (
            Inst::Bge {
                ra: c,
                rb: a,
                target: 3,
            },
            "111f010300000000000000",
        ),
        (
            Inst::Jmp {
                target: 0xdead_beef,
            },
            "12efbeadde00000000",
        ),
    ]);
    assert_eq!(unknown_tag::<Inst>(19), "unknown Inst discriminant");
}

#[test]
fn every_trace_kind_variant_encodes_to_its_pinned_bytes() {
    check(&[
        (
            TraceKind::BranchPredicted {
                pc: 0x40_1000,
                taken: true,
                confidence: 0.75,
            },
            "00001040000000000001000000000000e83f",
        ),
        (
            TraceKind::BranchResolved {
                pc: 0x40_1004,
                taken: false,
                mispredicted: true,
            },
            "0104104000000000000001",
        ),
        (
            TraceKind::PrefetchIssued {
                line: 0x8000_0040,
                pc_hash: 0x3ff,
            },
            "024000008000000000ff03",
        ),
        (
            TraceKind::PrefetchDropped {
                line: 0x8000_0080,
                pc_hash: 1,
                reason: DropReason::MshrFull,
            },
            "038000008000000000010002",
        ),
        (
            TraceKind::PrefetchMshrMerged {
                line: 0x8000_00c0,
                pc_hash: 2,
                remaining_cycles: 17,
            },
            "04c00000800000000002001100000000000000",
        ),
        (
            TraceKind::PrefetchFilled {
                line: 0x8000_0100,
                pc_hash: 3,
            },
            "0500010080000000000300",
        ),
        (
            TraceKind::PrefetchFirstUse {
                line: 0x8000_0140,
                pc_hash: 4,
                lead_cycles: 300,
            },
            "06400100800000000004002c01000000000000",
        ),
        (
            TraceKind::PrefetchEvictedUnused {
                line: 0x8000_0180,
                pc_hash: 5,
            },
            "0780010080000000000500",
        ),
        (
            TraceKind::DemandMiss {
                line: 0x8000_01c0,
                level: ServiceLevel::L3,
            },
            "08c00100800000000002",
        ),
    ]);
    assert_eq!(
        unknown_tag::<TraceKind>(9),
        "unknown TraceKind discriminant"
    );
}
