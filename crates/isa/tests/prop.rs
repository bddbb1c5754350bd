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

/// A segment whose word `i` is the `i`-th `next_u64` of a generator
/// seeded `seed`, positioned with one jump per fill.
fn generated(b: &mut ProgramBuilder, base: u64, len: usize, seed: u64) {
    let start = Pcg32::new(seed);
    b.init_words_fill(base, len, move |first, out| {
        let mut g = start.clone();
        g.advance(2 * first as u64);
        out.fill_with(|| g.next_u64());
    });
}

/// A program over `segments` (base, words) that loads the word at `addr`.
fn touching(segments: &[(u64, usize)], seed: u64, addr: u64) -> Program {
    let mut b = ProgramBuilder::new("page");
    for (i, &(base, len)) in segments.iter().enumerate() {
        generated(&mut b, base, len, seed + i as u64);
    }
    b.li(Reg::R1, addr as i64);
    b.load(Reg::R2, Reg::R1, 0);
    b.halt();
    b.finish()
}

/// Paging in: a page generated alone, by a load's first touch, holds the
/// words a sequential fill of its segments gives. Every case lays out
/// two to four segments that start mid-page, end on a partial page and
/// share that page with the next segment, after a gap of up to its rest.
#[test]
fn a_page_generated_alone_equals_the_sequential_fill() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x15a_0006 ^ case);
        let mut segments = Vec::new();
        let mut at = 0x10_0000 + 8 * r.range(1, 512);
        for _ in 0..r.range(2, 5) {
            let mut len = r.range(1, 1500);
            if (at + 8 * len).is_multiple_of(4096) {
                len += 1; // end on a partial page
            }
            segments.push((at, len as usize));
            at += 8 * len;
            at += 8 * r.gen_range((4096 - at % 4096) / 8); // the next starts on this page
        }
        // the sequential fill, word by word
        let p = touching(&segments, case, 0);
        let mut want = std::collections::HashMap::new();
        for (base, words) in p.data() {
            assert_eq!(
                words.len(),
                segments.iter().find(|s| s.0 == base).unwrap().1
            );
            for (i, w) in words.into_iter().enumerate() {
                want.insert(base + 8 * i as u64, w);
            }
        }
        // each page, generated alone in a fresh state
        let pages: std::collections::BTreeSet<u64> = want.keys().map(|a| a >> 12).collect();
        for page in pages {
            let addr = (page << 12) + 8 * r.gen_range(512);
            let p = touching(&segments, case, addr);
            let mut s = ArchState::new(&p);
            s.run(&p, 3);
            assert_eq!(s.mem().resident_pages(), 1);
            assert_eq!(s.reg(Reg::R2), want.get(&addr).copied().unwrap_or(0));
            for a in (page << 12..(page + 1) << 12).step_by(8) {
                let w = want.get(&a).copied().unwrap_or(0);
                assert_eq!(s.mem().load(a), w, "case {case}: {a:#x} of {segments:x?}");
            }
        }
    }
}

/// The read-only accessor reads an untouched generated page from the
/// image without making it resident.
#[test]
fn a_read_only_load_leaves_a_generated_page_alone() {
    let p = touching(&[(0x20_0010, 1000)], 9, 0x20_0010);
    let want = &p.data()[0].1;
    let s = ArchState::new(&p);
    for (i, &w) in want.iter().enumerate().step_by(97) {
        assert_eq!(s.mem().load(0x20_0010 + 8 * i as u64), w);
    }
    assert_eq!(s.mem().load(0x20_0008), 0);
    assert_eq!(s.mem().resident_pages(), 0);
}
