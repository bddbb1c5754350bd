//! A checkpoint's `Program` section is encoded in place from the program's
//! paged data image. Its bytes must stay what encoding the name, the
//! instruction list and the segment list `(base, words)` as plain values
//! gives, for every bundled workload: that is the section layout every
//! earlier checkpoint used, so it cannot drift unnoticed.

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
