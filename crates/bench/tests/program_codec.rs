//! A checkpoint's `Program` section is encoded from the program's data
//! segments, a page of words at a time. Its bytes must stay what encoding
//! the name, the instruction list and the segment list `(base, words)` as
//! plain values gives, for every bundled workload: that is the section
//! layout every earlier checkpoint used, so it cannot drift unnoticed.

use bfetch_isa::Program;
use bfetch_snapshot::{Decoder, Encoder, Snap};
use bfetch_workloads::{kernels, programs, Scale};

#[test]
fn program_section_bytes_are_the_segment_list_encoding() {
    let built: Vec<Program> = kernels()
        .iter()
        .flat_map(|k| [k.build(Scale::Small), k.build(Scale::Full)])
        .chain(programs().iter().map(|p| p.build(Scale::Small)))
        .collect();
    assert_eq!(built.len(), 2 * 18 + 6);
    for p in &built {
        let mut want = Encoder::new();
        (p.name().to_string(), p.insts().to_vec(), p.data()).save(&mut want);
        let mut got = Encoder::new();
        p.save(&mut got);
        let bytes = got.into_bytes();
        assert!(
            bytes == want.into_bytes(),
            "{}: section bytes moved",
            p.name()
        );

        let mut r = Decoder::new(&bytes);
        let back = Program::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(
            (back.insts(), back.data()),
            (p.insts(), p.data()),
            "{}",
            p.name()
        );
    }
}

/// FNV-1a 64 over a program's initial data: per segment its base, word
/// count and words, each as 8 little-endian bytes.
fn data_digest(p: &Program) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (base, words) in p.data() {
        eat(base);
        eat(words.len() as u64);
        words.into_iter().for_each(&mut eat);
    }
    h
}

/// The section test above compares two views of one image, so a wrong
/// word reads the same in both; and the goldens see only the pages a run
/// touches. This pins the words themselves: one digest per kernel and
/// scale in `golden/kernel_data.txt`, regenerated with
/// `BFETCH_BLESS=1 cargo test -p bfetch-bench --test program_codec`.
#[test]
fn kernel_data_matches_the_committed_digests() {
    let mut got = String::new();
    for k in kernels() {
        for (tag, scale) in [("small", Scale::Small), ("full", Scale::Full)] {
            let p = k.build(scale);
            got += &format!("{:<12} {tag:<5} {:016x}\n", k.name, data_digest(&p));
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/kernel_data.txt");
    if std::env::var_os("BFETCH_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture exists");
    assert!(
        got == want,
        "kernel data moved:\n--- want\n{want}--- got\n{got}"
    );
}
