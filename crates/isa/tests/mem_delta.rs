//! The bytes a memory's checkpoint delta is made of, pinned by a fixture:
//! a written page is saved whole, whichever of its lines were written,
//! only generated from the image, or never touched. Regenerate the
//! fixture with `BFETCH_BLESS=1 cargo test -p bfetch-isa --test mem_delta`.

use bfetch_isa::{ArchState, ProgramBuilder, Reg};
use bfetch_prng::Pcg32;
use bfetch_snapshot::{Decoder, Encoder, SnapState};

#[test]
fn a_mixed_page_saves_the_committed_bytes() {
    let mut b = ProgramBuilder::new("delta");
    // generated words from mid-page 0x100 onto page 0x101, then a copied
    // segment after a gap on page 0x101
    let start = Pcg32::new(0xde17a);
    b.init_words_fill(0x10_0410, 700, move |first, out| {
        let mut g = start.clone();
        g.advance(2 * first as u64);
        out.fill_with(|| g.next_u64());
    });
    b.init_words(0x10_1c00, &[11, 12, 13, 14, 15, 16, 17, 18, 19]);
    b.li(Reg::R1, 0);
    b.halt();
    let p = b.finish();

    let mut s = ArchState::new(&p);
    let m = s.mem_mut();
    m.load_touch(0x10_0410); // generated only
    m.load_touch(0x10_0800);
    m.store(0x10_0a08, 0xdead); // written, the rest of its line generated
    m.store(0x10_0008, 7); // written, on a line the image leaves empty
    m.load_touch(0x10_1c08); // the copied segment, generated only
    m.store(0x10_1c40, 99);
    m.store(0x20_0ff8, 1); // a page outside the image
    assert_eq!(s.mem().written_pages(), [0x100, 0x101, 0x200]);

    let mut w = Encoder::new();
    s.mem().save_state(&mut w);
    let bytes = w.into_bytes();
    let got: String = bytes
        .chunks(32)
        .map(|row| row.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mem_delta.txt");
    if std::env::var_os("BFETCH_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("a directory")).expect("fixture directory");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture exists");
    assert!(got == want, "checkpoint bytes of the mixed pages moved");

    let mut fresh = ArchState::new(&p);
    let mut r = Decoder::new(&bytes);
    fresh.mem_mut().load_state(&mut r).expect("the delta loads");
    r.finish().expect("and is consumed");
    for addr in (0x10_0000..0x10_2000).step_by(8).chain([0x20_0ff8]) {
        assert_eq!(fresh.mem().load(addr), s.mem().load(addr), "{addr:#x}");
    }
}
