//! Checkpoint/restore contract tests: a run that is killed and resumed —
//! any number of times — must produce byte-identical output to the
//! uninterrupted run, and a corrupted checkpoint must always surface as a
//! typed error, never a panic or silent misresume.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bfetch_isa::{ArchState, Program, ProgramBuilder, Reg};
use bfetch_sim::{
    PrefetcherKind, RunOutput, SimConfig, SimError, SimSession, SnapshotError, SCHEMA_VERSION,
};

fn kernel(name: &str, words: u64) -> Program {
    let mut b = ProgramBuilder::new(name);
    let base = 0x100_0000u64;
    b.li(Reg::R1, base as i64);
    b.li(Reg::R2, (base + words * 8) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    for _ in 0..6 {
        b.add(Reg::R5, Reg::R5, Reg::R4);
        b.xor(Reg::R6, Reg::R6, Reg::R5);
    }
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

fn cfg() -> SimConfig {
    let mut c = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
    c.warmup_insts = 1_000;
    c
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bfetch-snap-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn armed_stop() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(true))
}

/// Runs `session` to completion by repeatedly interrupting it at every
/// 1024-cycle poll point and resuming from the checkpoint it wrote —
/// exercising kill/resume at every poll boundary of the run — and returns
/// the final output plus how many times the run was interrupted.
fn run_with_constant_interrupts(
    session: SimSession,
    programs: &[Program],
    ckpt: &Path,
) -> (RunOutput, u32) {
    let mut interrupts = 0;
    let mut out = session.stop_flag(armed_stop()).run(programs);
    loop {
        match out {
            Ok(o) => return (o, interrupts),
            Err(SimError::Interrupted { .. }) => {
                interrupts += 1;
                assert!(interrupts < 10_000, "run never finishes");
                out = SimSession::resume_with_stop(ckpt, armed_stop());
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

fn assert_same_output(a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.results, b.results, "per-core results differ");
    assert_eq!(a.timeline, b.timeline, "CPI timelines differ");
    match (&a.trace, &b.trace) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.events, y.events, "trace events differ");
            assert_eq!(x.lifecycle, y.lifecycle, "lifecycle tallies differ");
        }
        _ => panic!("trace presence differs"),
    }
}

#[test]
fn kill_and_resume_at_every_poll_point_is_byte_identical_single_core() {
    let p = kernel("ckpt-seq", 16 * 1024);
    let uninterrupted = SimSession::new(cfg())
        .instructions(3_000)
        .run_one(&p)
        .unwrap();

    let dir = tmpdir("seq");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) =
        run_with_constant_interrupts(session, std::slice::from_ref(&p), &ckpt);
    assert!(interrupts >= 3, "run too short to exercise resume ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_at_every_poll_point_is_byte_identical_multi_core() {
    let programs = [kernel("ckpt-cmp-a", 16 * 1024), kernel("ckpt-cmp-b", 12 * 1024)];
    let uninterrupted = SimSession::new(cfg())
        .instructions(3_000)
        .run(&programs)
        .unwrap();

    let dir = tmpdir("cmp");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) = run_with_constant_interrupts(session, &programs, &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_and_cpi_runs_survive_kill_and_resume() {
    let p = kernel("ckpt-obs", 16 * 1024);
    let mut c = cfg();
    c.cpi.timeline_interval = 500;
    let uninterrupted = SimSession::new(c.clone())
        .trace(true)
        .cpi(true)
        .instructions(3_000)
        .run_one(&p)
        .unwrap();
    assert!(uninterrupted.trace.is_some());
    assert!(!uninterrupted.timeline.is_empty());

    let dir = tmpdir("obs");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(c)
        .trace(true)
        .cpi(true)
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) =
        run_with_constant_interrupts(session, std::slice::from_ref(&p), &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpointing_does_not_perturb_results() {
    let p = kernel("ckpt-noop", 16 * 1024);
    let plain = SimSession::new(cfg())
        .instructions(3_000)
        .run_one(&p)
        .unwrap();
    let dir = tmpdir("periodic");
    let ckpt_run = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(2_048, &dir)
        .run_one(&p)
        .unwrap();
    assert_same_output(&plain, &ckpt_run);
    assert!(
        dir.join("checkpoint.snap").exists(),
        "periodic checkpoint was never written"
    );
    // The periodic checkpoint resumes into the identical tail too.
    let resumed = SimSession::resume(dir.join("checkpoint.snap")).unwrap();
    assert_same_output(&plain, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_the_same_checkpoint_twice_is_deterministic() {
    let p = kernel("ckpt-det", 16 * 1024);
    let dir = tmpdir("det");
    let ckpt = dir.join("checkpoint.snap");
    let err = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir)
        .stop_flag(armed_stop())
        .run_one(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }));
    let bytes = std::fs::read(&ckpt).unwrap();
    let a = SimSession::resume(&ckpt).unwrap();
    // Restore the file (the first resume's own checkpointing may have
    // overwritten it) and resume again.
    std::fs::write(&ckpt, &bytes).unwrap();
    let b = SimSession::resume(&ckpt).unwrap();
    assert_same_output(&a, &b);
    let _ = std::fs::remove_dir_all(&dir);
}

const IMAGE: u64 = 0x100_0000;
const FRESH: u64 = 0x200_0000;
const PAGE: u64 = 4096;

/// No bundled workload stores into its own data image, so this one does:
/// an 8-page image whose first half it rewrites, a line at a time, while
/// it also fills four pages the image never had. Each pass bumps every
/// rewritten word and branches on its parity, so a resume that lost a
/// written page would take other branches than the fresh run.
fn rewriter() -> Program {
    let mut b = ProgramBuilder::new("ckpt-rewrite");
    b.init_words_iter(IMAGE, 0..8 * PAGE / 8);
    b.li(Reg::R1, IMAGE as i64);
    b.li(Reg::R2, (IMAGE + 4 * PAGE) as i64);
    b.li(Reg::R3, FRESH as i64);
    b.li(Reg::R7, 1);
    let top = b.label();
    let even = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    b.addi(Reg::R4, Reg::R4, 1);
    b.store(Reg::R4, Reg::R1, 0);
    b.and(Reg::R5, Reg::R4, Reg::R7);
    b.beq(Reg::R5, Reg::R0, even);
    b.store(Reg::R4, Reg::R3, 0);
    b.bind(even);
    b.addi(Reg::R1, Reg::R1, 64);
    b.addi(Reg::R3, Reg::R3, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// Page numbers `[first, first + n)` of the pages from `base`.
fn pages(base: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| base / PAGE + i)
}

#[test]
fn a_run_that_rewrites_its_image_resumes_at_every_poll_point() {
    let p = rewriter();
    // one pass writes exactly the rewritten half and the created pages
    let mut arch = ArchState::new(&p);
    arch.run(&p, u64::MAX);
    assert!(arch.halted());
    let want: Vec<u64> = pages(IMAGE, 4).chain(pages(FRESH, 4)).collect();
    assert_eq!(arch.mem().written_pages(), want);

    let uninterrupted = SimSession::new(cfg())
        .instructions(3_000)
        .run_one(&p)
        .unwrap();
    let dir = tmpdir("rewrite");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) =
        run_with_constant_interrupts(session, std::slice::from_ref(&p), &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bumps one word per line over `bytes` of fresh memory, pass after pass;
/// the load paces the stream at the rate the demand misses return. Once
/// it has covered the L1D, L2 and L3 every new line pushes a dirty one
/// out of the L3, so with writebacks modelled the caches hold dirty lines
/// at any later checkpoint and the tail's writebacks depend on them.
fn dirty_stream(bytes: u64) -> Program {
    let mut b = ProgramBuilder::new("ckpt-dirty");
    b.li(Reg::R1, FRESH as i64);
    b.li(Reg::R2, (FRESH + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    b.addi(Reg::R4, Reg::R4, 1);
    b.store(Reg::R4, Reg::R1, 0);
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// The dirty bits are all the L2 and L3 keep per line, and the
/// checkpoint carries them: the last periodic checkpoint of a
/// writeback-heavy run lands after the first L3 writeback, and resuming
/// it reproduces the fresh run, writeback count included.
#[test]
fn a_writeback_run_resumes_from_its_checkpoint_to_the_fresh_result() {
    let p = dirty_stream(5 << 19); // 2.5 MB: past the L1D + L2 + L3's 2.3 MB
    let c = SimConfig::baseline()
        .with_writebacks(true)
        .with_warmup(1_000);
    let fresh = SimSession::new(c.clone())
        .instructions(240_000)
        .run_one(&p)
        .unwrap();
    // the first writeback leaves the L3 near cycle 1.9 M of 2.8 M
    assert!(fresh.results[0].mem.writebacks > 0);

    let dir = tmpdir("writebacks");
    let periodic = SimSession::new(c)
        .instructions(240_000)
        .checkpoint_every(1 << 20, &dir) // the last at cycle 2 097 152
        .run_one(&p)
        .unwrap();
    assert_same_output(&fresh, &periodic);
    let resumed = SimSession::resume(dir.join("checkpoint.snap")).unwrap();
    assert_same_output(&fresh, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where [`rewriter`]'s memory delta starts in a single-core checkpoint:
/// the cores section (id 4) opens with the core's `ArchState` — 32
/// registers, the pc and the halted byte — and then its delta: a page
/// count, then each page number and its 4096 bytes.
fn delta_at(bytes: &[u8]) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut at = bfetch_snapshot::MAGIC.len() + 8;
    while u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) != 4 {
        at += 12 + word(at + 4) as usize;
    }
    at + 12 + 32 * 8 + 8 + 1
}

#[test]
fn a_checkpoint_carries_only_the_pages_the_run_owns() {
    let p = rewriter();
    let dir = tmpdir("delta");
    let ckpt = dir.join("checkpoint.snap");
    let err = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir)
        .stop_flag(armed_stop())
        .run_one(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }));
    let bytes = std::fs::read(&ckpt).unwrap();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());

    // the saved pages are exactly those a functional replay to the saved
    // instruction count writes (the core restarts a halted program)
    let at = delta_at(&bytes);
    let n = word(at) as usize;
    let keys: Vec<u64> = (0..n).map(|i| word(at + 8 + i * (8 + 4096))).collect();
    let retired = word(at + 8 + n * (8 + 4096));
    let mut arch = ArchState::new(&p);
    while arch.retired() < retired {
        if arch.halted() {
            arch.restart();
        }
        arch.step(&p);
    }
    assert!(n >= 2, "the first poll comes after both first stores");
    assert_eq!(keys, arch.mem().written_pages());
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`rewriter`] over a generated image: the 8 pages at `IMAGE` hold a
/// hash of each word's index and are made only where a load or store
/// first touches them. Each pass loads a word of every line of all 8,
/// bumps it, stores it back in the first 4 only, and branches on its
/// parity, so a resume that lost a written page, or generated one wrong,
/// would take other branches than the fresh run.
fn generated_rewriter() -> Program {
    let mut b = ProgramBuilder::new("ckpt-generated");
    b.init_words_fill(IMAGE, (8 * PAGE / 8) as usize, |first, out| {
        for (i, w) in (first as u64..).zip(out) {
            *w = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
        }
    });
    b.li(Reg::R1, IMAGE as i64);
    b.li(Reg::R2, (IMAGE + 8 * PAGE) as i64);
    b.li(Reg::R3, (IMAGE + 4 * PAGE) as i64);
    b.li(Reg::R7, 1);
    let top = b.label();
    let read_only = b.label();
    let even = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    b.addi(Reg::R4, Reg::R4, 1);
    b.bge(Reg::R1, Reg::R3, read_only);
    b.store(Reg::R4, Reg::R1, 0);
    b.bind(read_only);
    b.and(Reg::R5, Reg::R4, Reg::R7);
    b.beq(Reg::R5, Reg::R0, even);
    b.addi(Reg::R6, Reg::R6, 1);
    b.bind(even);
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

#[test]
fn a_run_over_a_generated_image_resumes_at_every_poll_point() {
    let p = generated_rewriter();
    // one pass generates all 8 pages and writes the first 4
    let mut arch = ArchState::new(&p);
    arch.run(&p, u64::MAX);
    assert!(arch.halted());
    assert_eq!(arch.mem().resident_pages(), 8);
    let half: Vec<u64> = pages(IMAGE, 4).collect();
    assert_eq!(arch.mem().written_pages(), half);

    let uninterrupted = SimSession::new(cfg())
        .instructions(6_000)
        .run_one(&p)
        .unwrap();
    let dir = tmpdir("generated");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(cfg())
        .instructions(6_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) =
        run_with_constant_interrupts(session, std::slice::from_ref(&p), &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The last periodic checkpoint of a run past its first pass carries the
/// 4 written pages and none of the 4 it only read, and resumes to the
/// fresh result.
#[test]
fn a_checkpoint_over_a_generated_image_carries_only_its_written_pages() {
    let p = generated_rewriter();
    let fresh = SimSession::new(cfg())
        .instructions(12_000)
        .run_one(&p)
        .unwrap();
    let dir = tmpdir("generated-delta");
    let periodic = SimSession::new(cfg())
        .instructions(12_000)
        .checkpoint_every(1 << 13, &dir)
        .run_one(&p)
        .unwrap();
    assert_same_output(&fresh, &periodic);

    let bytes = std::fs::read(dir.join("checkpoint.snap")).unwrap();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let at = delta_at(&bytes);
    let n = word(at) as usize;
    let keys: Vec<u64> = (0..n).map(|i| word(at + 8 + i * (8 + 4096))).collect();
    assert_eq!(keys, pages(IMAGE, 4).collect::<Vec<_>>());
    // a functional replay to the saved instruction count has read all 8
    let retired = word(at + 8 + n * (8 + 4096));
    let mut arch = ArchState::new(&p);
    while arch.retired() < retired {
        if arch.halted() {
            arch.restart();
        }
        arch.step(&p);
    }
    let read = arch.mem().resident_pages();
    assert_eq!(read, 8, "checkpoint taken after the first pass");
    assert_eq!(keys, arch.mem().written_pages());

    let resumed = SimSession::resume(dir.join("checkpoint.snap")).unwrap();
    assert_same_output(&fresh, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unsorted_or_duplicate_delta_page_is_a_typed_error() {
    let p = rewriter();
    let dir = tmpdir("bad-delta");
    let ckpt = dir.join("checkpoint.snap");
    let err = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir)
        .stop_flag(armed_stop())
        .run_one(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }));
    let bytes = std::fs::read(&ckpt).unwrap();
    let (first, second) = (delta_at(&bytes) + 8, delta_at(&bytes) + 8 + 8 + 4096);
    let key = |at: usize| bytes[at..at + 8].to_vec();
    let (a, b) = (key(first), key(second));
    for (tag, keys) in [("unsorted", [&b, &a]), ("duplicate", [&a, &a])] {
        let mut bad = bytes.clone();
        bad[first..first + 8].copy_from_slice(keys[0]);
        bad[second..second + 8].copy_from_slice(keys[1]);
        let body = bad.len() - 4;
        let crc = bfetch_snapshot::crc32(&bad[..body]);
        bad[body..].copy_from_slice(&crc.to_le_bytes());
        let path = dir.join(format!("{tag}.snap"));
        std::fs::write(&path, &bad).unwrap();
        match SimSession::resume(&path) {
            Err(SimError::Snapshot(SnapshotError::Invalid { what })) => {
                assert_eq!(what, "memory pages not strictly sorted", "{tag}")
            }
            Err(e) => panic!("{tag}: wrong error kind {e}"),
            Ok(_) => panic!("{tag} delta resumed successfully"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_checkpoint_is_a_typed_error() {
    let err = SimSession::resume("/nonexistent/bfetch/checkpoint.snap").unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "got {err}");
}

/// Produces one real mid-measurement checkpoint to corrupt.
fn checkpoint_bytes(dir: &Path) -> Vec<u8> {
    let p = kernel("ckpt-corrupt", 16 * 1024);
    let ckpt = dir.join("checkpoint.snap");
    let mut c = cfg();
    c.warmup_insts = 500; // checkpoints land inside the measurement window
    let err = SimSession::new(c)
        .instructions(5_000)
        .checkpoint_every(0, dir)
        .stop_flag(armed_stop())
        .run_one(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }));
    std::fs::read(ckpt).unwrap()
}

#[test]
fn every_truncation_is_a_typed_error() {
    let dir = tmpdir("trunc");
    let bytes = checkpoint_bytes(&dir);
    let path = dir.join("mangled.snap");
    // Every prefix of the header region, then sampled longer prefixes.
    let lengths: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(997))
        .chain([bytes.len() - 1])
        .collect();
    for n in lengths {
        std::fs::write(&path, &bytes[..n]).unwrap();
        match SimSession::resume(&path) {
            Err(SimError::Snapshot(_)) => {}
            Err(e) => panic!("truncation at {n}: wrong error kind {e}"),
            Ok(_) => panic!("truncation at {n} resumed successfully"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_sampled_bit_flip_is_a_typed_error_or_detected() {
    let dir = tmpdir("flip");
    let bytes = checkpoint_bytes(&dir);
    let path = dir.join("mangled.snap");
    // Flip one bit in every header byte and in every 509th byte after
    // that. The whole-file checksum catches all of these, so resume must
    // return a typed SnapshotError — never panic, never run.
    let offsets: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(509))
        .collect();
    for off in offsets {
        let mut bad = bytes.clone();
        bad[off] ^= 1 << (off % 8);
        std::fs::write(&path, &bad).unwrap();
        match SimSession::resume(&path) {
            Err(SimError::Snapshot(_)) => {}
            Err(e) => panic!("bit flip at {off}: wrong error kind {e}"),
            Ok(_) => panic!("bit flip at {off} resumed successfully"),
        }
    }
    // A checkpoint from an earlier schema is a well-formed frame the
    // checksum passes: the version check names it.
    for got in 1..SCHEMA_VERSION {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&got.to_le_bytes());
        let body = old.len() - 4;
        let crc = bfetch_snapshot::crc32(&old[..body]);
        old[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        match SimSession::resume(&path) {
            Err(SimError::Snapshot(e)) => {
                assert_eq!(e, SnapshotError::BadVersion { got, want: SCHEMA_VERSION })
            }
            Err(e) => panic!("version {got}: wrong error kind {e}"),
            Ok(_) => panic!("version {got} resumed successfully"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overwrites the 8-byte word `offset` bytes into the checkpoint's config
/// section (id 2, `SimConfig::wire_bytes`) and restamps the whole-file CRC,
/// so nothing but per-field validation stands between the crafted value
/// and the constructors.
fn patch_config_word(bytes: &mut [u8], offset: usize, expect: u64, value: u64) {
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    // frame: magic, u32 version, u32 section count, then (u32 id, u64 len, payload)*
    let mut at = bfetch_snapshot::MAGIC.len() + 8;
    while u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) != 2 {
        at += 12 + word(bytes, at + 4) as usize;
    }
    let field = at + 12 + offset;
    assert_eq!(word(bytes, field), expect, "config layout moved: fix the index");
    bytes[field..field + 8].copy_from_slice(&value.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = bfetch_snapshot::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Where one leaf's word starts in the config section: the first byte at
/// which `cfg()`'s wire bytes and those of a copy `edit` changed differ
/// (`edit` must change the leaf's low byte).
fn leaf_offset(edit: fn(&mut SimConfig)) -> usize {
    let mut edited = cfg();
    edit(&mut edited);
    let (a, b) = (cfg().wire_bytes(), edited.wire_bytes());
    assert_eq!(a.len(), b.len(), "the edit resized the section");
    a.iter().zip(&b).position(|(x, y)| x != y).expect("the edit moved no byte")
}

/// Writes `bytes` with one config leaf crafted to `value` and resumes it:
/// the resume must be a typed `SimError::Config` naming `knob`.
fn resume_crafted(name: &str, edit: fn(&mut SimConfig), expect: u64, value: u64, knob: &str) {
    let dir = tmpdir(name);
    let mut bytes = checkpoint_bytes(&dir);
    patch_config_word(&mut bytes, leaf_offset(edit), expect, value);
    let path = dir.join("crafted.snap");
    std::fs::write(&path, &bytes).unwrap();
    match SimSession::resume(&path) {
        Err(SimError::Config(e)) => assert!(e.to_string().contains(knob), "{e}"),
        other => panic!("{knob} = {value}: expected a config error, got {:?}", other.map(|_| ())),
    }
    // the restamp is what makes this a validation test: the same edit
    // without it dies at the checksum instead
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(SimSession::resume(&path), Err(SimError::Snapshot(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed file whose configuration no constructor could honour: a
/// pipeline 2⁴⁰ wide, whose port rings could neither count a cycle's
/// reservations nor be allocated. `read_checkpoint` must refuse it at
/// `validate()`, before `Core::new` asserts on it or tries to allocate it.
#[test]
fn crafted_oversized_width_is_a_typed_error_not_a_panic() {
    resume_crafted("big-width", |c| c.width += 1, cfg().width as u64, 1 << 40, "width");
}

/// The nested prefetcher configs are validated too: a three-entry BrTC
/// used to pass `validate()` and panic in `BranchTraceCache::new`, whether
/// it came from the caller or a file.
#[test]
fn non_power_of_two_brtc_is_a_typed_error_from_run_and_resume() {
    let mut c = cfg();
    c.bfetch.brtc_entries = 3;
    let p = kernel("bad-brtc", 1024);
    match SimSession::new(c).instructions(100).run_one(&p) {
        Err(SimError::Config(e)) => assert!(e.to_string().contains("brtc_entries"), "{e}"),
        other => panic!("expected a config error, got {:?}", other.map(|_| ())),
    }
    let brtc = cfg().bfetch.brtc_entries as u64;
    resume_crafted("bad-brtc", |c| c.bfetch.brtc_entries += 1, brtc, 3, "brtc_entries");
}

/// Cycle-count knobs are bounded too: a cycle budget of `u64::MAX` is past
/// what a cycle stamp plus one can reach without overflowing.
#[test]
fn crafted_cycle_budget_is_a_typed_error_from_resume() {
    let budget = cfg().max_cycles;
    resume_crafted("big-max-cycles", |c| c.max_cycles += 1, budget, u64::MAX, "max_cycles");
}

/// Table sizes are bounded too: a 2⁵⁰-entry MHT is a power of two, so the
/// geometry rules alone let `MemoryHistoryTable::new` try to allocate it.
#[test]
fn crafted_oversized_table_is_a_typed_error_from_resume() {
    let mht = cfg().bfetch.mht_entries as u64;
    resume_crafted("big-mht", |c| c.bfetch.mht_entries += 1, mht, 1 << 50, "bfetch.mht_entries");
}

#[test]
fn invalid_config_is_rejected_before_running() {
    let p = kernel("bad-cfg", 1024);
    let mut c = cfg();
    c.width = 0;
    let err = SimSession::new(c).instructions(100).run_one(&p).unwrap_err();
    match err {
        SimError::Config(e) => assert!(e.to_string().contains("width"), "{e}"),
        other => panic!("expected config error, got {other}"),
    }
}
