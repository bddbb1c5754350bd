//! Randomized property tests for the ISA substrate, driven by the in-tree
//! deterministic PRNG (see `bfetch-prng`; the external `proptest` stack is
//! unavailable offline). Set `BFETCH_PROP_CASES` to run more cases.

use bfetch_isa::mem::StoredWords;
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

/// Stored words read as the plain slice they were given: every window
/// `(first, len)`, most of them crossing 64-word blocks, fills with the
/// slice's words, over segments of 0 to 2 999 words (a multiple of 64 or
/// not) whose words are zero with probability 0, 1/12, 1/2 or 1. A store
/// built in uneven pieces, as a program file is read a page at a time,
/// equals one built in one go.
#[test]
fn stored_words_fill_as_the_plain_slice() {
    for case in 0..cases(64) as u64 {
        let mut r = Pcg32::new(0x15a_0009 ^ case);
        let len = match case % 3 {
            0 => 64 * r.gen_range(47) as usize,
            _ => r.gen_range(3000) as usize,
        };
        let zero = [0.0, 1.0 / 12.0, 0.5, 1.0][case as usize % 4];
        let plain: Vec<u64> = (0..len)
            .map(|_| {
                let w = r.next_u64().max(1);
                if r.gen_bool(zero) {
                    0
                } else {
                    w
                }
            })
            .collect();
        let mut s = StoredWords::new();
        let mut at = 0;
        while at < len {
            let k = (r.range(1, 700) as usize).min(len - at);
            s.try_extend(plain[at..at + k].iter().copied()).unwrap();
            at += k;
        }
        assert_eq!(s, plain.iter().copied().collect(), "case {case}");
        assert_eq!((s.len(), s.is_empty()), (len, len == 0));
        let windows = (0..40).map(|_| {
            let first = r.gen_range(len as u64 + 1) as usize;
            (first, r.gen_range((len - first) as u64 + 1) as usize)
        });
        for (first, n) in windows.chain([(0, len), (len, 0)]) {
            let mut out = vec![u64::MAX; n];
            s.fill(first, &mut out);
            assert_eq!(
                out,
                plain[first..first + n],
                "case {case}: window {first}+{n} of {len}"
            );
        }
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

/// Generation: a page generated alone, by a load's first touch, holds the
/// words a sequential fill of its segments gives, and only the touched
/// line becomes resident. Every case lays out two to four segments that
/// start mid-page, end on a partial page and share that page with the
/// next segment, after a gap of up to its rest.
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
            let holds = want.keys().any(|a| a >> 6 == addr >> 6);
            assert_eq!(s.mem().resident_lines(), usize::from(holds));
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

/// A memory over a generated image reads as a flat map of words from the
/// image's sequential fill, under any mix of read-only loads, touching
/// loads and stores. Segments start mid-page, share pages and leave gap
/// lines between them; addresses are unaligned, in the image, in its gaps
/// or far outside it. The resident lines are exactly those stored to or
/// touched while holding a segment word.
#[test]
fn a_memory_over_a_generated_image_reads_as_a_flat_word_map() {
    use std::collections::{HashMap, HashSet};
    for case in 0..cases(32) as u64 {
        let mut r = Pcg32::new(0x15a_0008 ^ case);
        let mut segments = Vec::new();
        let mut at = 0x30_0000 + 8 * r.range(1, 512);
        for _ in 0..r.range(2, 6) {
            let len = r.range(1, 900);
            segments.push((at, len as usize));
            at += 8 * len;
            // a gap of a few words, often a line or more
            at += 8 * r.gen_range(40);
        }
        let (lo, hi) = (segments[0].0 & !0xfff, (at | 0xfff) + 1);
        let mut b = ProgramBuilder::new("flat");
        for (i, &(base, len)) in segments.iter().enumerate() {
            generated(&mut b, base, len, case ^ (i as u64) << 32);
        }
        b.halt();
        let p = b.finish();
        let mut flat: HashMap<u64, u64> = HashMap::new();
        for (base, words) in p.data() {
            flat.extend(
                words
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| (base + 8 * i as u64, w)),
            );
        }
        let image_lines: HashSet<u64> = flat.keys().map(|a| a >> 6).collect();
        let mut resident = HashSet::new();
        let mut s = ArchState::new(&p);
        for op in 0..r.range(50, 400) {
            let addr = match r.gen_range(8) {
                0 => r.next_u64(),
                1 => hi + r.gen_range(0x2000),
                _ => lo + r.gen_range(hi - lo),
            };
            let want = flat.get(&(addr & !7)).copied().unwrap_or(0);
            match r.gen_range(3) {
                0 => assert_eq!(
                    s.mem().load(addr),
                    want,
                    "case {case} op {op}: load {addr:#x}"
                ),
                1 => {
                    let got = s.mem_mut().load_touch(addr);
                    assert_eq!(got, want, "case {case} op {op}: load_touch {addr:#x}");
                    if image_lines.contains(&(addr >> 6)) {
                        resident.insert(addr >> 6);
                    }
                }
                _ => {
                    let v = r.next_u64();
                    s.mem_mut().store(addr, v);
                    flat.insert(addr & !7, v);
                    resident.insert(addr >> 6);
                }
            }
        }
        assert_eq!(s.mem().resident_lines(), resident.len(), "case {case}");
        for a in (lo..hi).step_by(8) {
            let want = flat.get(&a).copied().unwrap_or(0);
            assert_eq!(
                s.mem().load(a),
                want,
                "case {case}: {a:#x} of {segments:x?}"
            );
        }
        for (&a, &w) in &flat {
            assert_eq!(s.mem().load(a), w, "case {case}: {a:#x}");
        }
    }
}
