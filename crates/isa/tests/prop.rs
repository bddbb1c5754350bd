//! Randomized property tests for the ISA substrate, driven by the in-tree
//! deterministic PRNG (see `bfetch-prng`; the external `proptest` stack is
//! unavailable offline). Set `BFETCH_PROP_CASES` to run more cases.

use bfetch_isa::{ArchState, Inst, Program, ProgramBuilder, Reg, SparseMemory};
use bfetch_prng::{cases, Pcg32};

/// Memory: last write to a word wins, all other words unaffected.
#[test]
fn memory_last_write_wins() {
    for case in 0..cases(64) as u64 {
        let mut r = Pcg32::new(0x15a_0001 ^ case);
        let n = r.range(1, 64) as usize;
        let writes: Vec<(u64, u64)> = (0..n)
            .map(|_| (r.gen_range(0x10_0000), r.next_u64()))
            .collect();
        let mut m = SparseMemory::new();
        for (a, v) in &writes {
            m.store(*a, *v);
        }
        // replay to compute expected final value per aligned word
        let mut expect = std::collections::HashMap::new();
        for (a, v) in &writes {
            expect.insert(a & !7u64, *v);
        }
        for (a, v) in expect {
            assert_eq!(m.load(a), v);
        }
    }
}

/// Effective-address arithmetic wraps exactly like the functional step.
#[test]
fn ea_matches_manual_computation() {
    for case in 0..cases(128) as u64 {
        let mut r = Pcg32::new(0x15a_0002 ^ case);
        let base = r.next_u64();
        let off = r.range_i64(-4096, 4096);
        let mut b = ProgramBuilder::new("ea");
        b.li(Reg::R1, base as i64);
        b.load(Reg::R2, Reg::R1, off);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.step(&p);
        let e = s.step(&p).unwrap();
        assert_eq!(e.ea, Some(base.wrapping_add(off as u64)));
    }
}

/// A counted loop executes exactly `n` iterations regardless of bounds.
#[test]
fn counted_loop_iterations() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x15a_0003 ^ case);
        let n = r.range_i64(1, 200);
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 10_000);
        assert_eq!(s.reg(Reg::R1), n as u64);
    }
}

/// Register writes never alias other registers.
#[test]
fn register_isolation() {
    for case in 0..cases(64) as u64 {
        let mut r = Pcg32::new(0x15a_0004 ^ case);
        let rd = Reg::from_index(r.range(1, 32) as usize).unwrap();
        let v = r.next_u64() as i64;
        let mut b = ProgramBuilder::new("iso");
        b.li(rd, v);
        b.halt();
        let p = b.finish();
        let mut s = ArchState::new(&p);
        s.run(&p, 10);
        for reg in Reg::ALL {
            if reg == rd {
                assert_eq!(s.reg(reg), v as u64);
            } else {
                assert_eq!(s.reg(reg), 0);
            }
        }
    }
}

/// pc_addr/addr_to_idx round-trips for arbitrary program sizes.
#[test]
fn pc_round_trip() {
    for case in 0..cases(128) as u64 {
        let mut r = Pcg32::new(0x15a_0005 ^ case);
        let len = r.range(1, 1000) as usize;
        let idx = r.gen_range(len as u64) as usize;
        let p = Program::new("rt", vec![Inst::Nop; len], vec![]);
        assert_eq!(p.addr_to_idx(p.pc_addr(idx)), idx);
    }
}
