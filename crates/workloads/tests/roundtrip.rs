//! Round-trip equivalence between the builder-made synthetic kernels and
//! the text-assembly frontend: `disassemble(kernel)` must reassemble to
//! the identical program — same instruction stream, same data image —
//! for every registry kernel and every bundled `.s` program, at both
//! scales. This pins the two program-construction paths to one ISA.

use bfetch_isa::{assemble, disassemble, ArchState};
use bfetch_prng::Pcg32;
use bfetch_workloads::{kernels, programs};

#[test]
fn every_synthetic_kernel_round_trips_through_text() {
    for k in kernels() {
        for p in [k.build_small(), k.build_full()] {
            let text = disassemble(&p);
            let again =
                assemble(&text).unwrap_or_else(|e| panic!("{} disassembly rejected: {e}", k.name));
            assert_eq!(p.name(), again.name(), "{}", k.name);
            assert_eq!(p.insts(), again.insts(), "{}", k.name);
            assert_eq!(p.data(), again.data(), "{}", k.name);
        }
    }
}

#[test]
fn every_real_program_round_trips_through_text() {
    for k in programs() {
        let p = k.build_small();
        let text = disassemble(&p);
        let again =
            assemble(&text).unwrap_or_else(|e| panic!("{} disassembly rejected: {e}", k.name));
        assert_eq!(p.insts(), again.insts(), "{}", k.name);
        assert_eq!(p.data(), again.data(), "{}", k.name);
    }
}

/// A kernel's image is generated where it is read, so every way of
/// reading it must give the words of one sequential fill: a word alone
/// (a fresh state's read-only load), and a page alone (the pages a
/// functional run touches, each generated on its first load).
#[test]
fn generated_images_read_the_same_a_word_or_a_page_at_a_time() {
    let mut r = Pcg32::new(0x1a2e);
    for k in kernels() {
        let p = k.build_small();
        let data = p.data();
        let fresh = ArchState::new(&p);
        for (base, words) in &data {
            for _ in 0..256 {
                let i = r.gen_range(words.len() as u64);
                let got = fresh.mem().load(base + 8 * i);
                assert_eq!(got, words[i as usize], "{} word {i}", k.name);
            }
        }
        assert_eq!(fresh.mem().resident_pages(), 0, "{}", k.name);

        let mut run = ArchState::new(&p);
        run.run(&p, 50_000);
        for (base, words) in &data {
            for (i, &w) in words.iter().enumerate() {
                let got = run.mem().load(base + 8 * i as u64);
                assert_eq!(got, w, "{} word {i}", k.name);
            }
        }
        if !data.is_empty() {
            let touched = run.mem().resident_pages();
            assert!(touched > 1, "{} touched its image", k.name);
        }
    }
}
