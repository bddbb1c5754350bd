//! Checkpoint/restore contract tests: a run that is killed and resumed —
//! any number of times — must produce byte-identical output to the
//! uninterrupted run, and a corrupted checkpoint must always surface as a
//! typed error, never a panic or silent misresume.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bfetch_isa::{Program, ProgramBuilder, Reg};
use bfetch_sim::{PrefetcherKind, RunOutput, SimConfig, SimError, SimSession};

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
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overwrites the 8-byte word `offset` bytes into the checkpoint's config
/// section (id 2; `SimConfig` saves its fields in declaration order, a
/// `usize` as a little-endian `u64`, an enum as a one-byte tag) and
/// restamps the whole-file CRC, so nothing but per-field validation stands
/// between the crafted value and the constructors.
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

/// A well-formed file whose configuration no constructor could honour:
/// `rob_entries` (the fourth knob) far beyond the ring the wake-up links
/// can address. `read_checkpoint` must refuse it at `validate()`, before
/// `Core::new` asserts on it or tries to allocate it.
#[test]
fn crafted_oversized_rob_is_a_typed_error_not_a_panic() {
    let dir = tmpdir("big-rob");
    let mut bytes = checkpoint_bytes(&dir);
    patch_config_word(&mut bytes, 3 * 8, cfg().rob_entries as u64, 1 << 40);
    let path = dir.join("crafted.snap");
    std::fs::write(&path, &bytes).unwrap();
    match SimSession::resume(&path) {
        Err(SimError::Config(e)) => assert!(e.to_string().contains("rob_entries"), "{e}"),
        Err(e) => panic!("wrong error kind {e}"),
        Ok(_) => panic!("a 2^40-entry ROB resumed successfully"),
    }
    // the restamp is what makes this a validation test: the same edit
    // without it dies at the checksum instead
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(SimSession::resume(&path), Err(SimError::Snapshot(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The nested prefetcher configs are validated too: a three-entry BrTC
/// (`bfetch.brtc_entries` follows the nine leading words and the one-byte
/// prefetcher tag) used to pass `validate()` and panic in
/// `BranchTraceCache::new`, whether it came from the caller or a file.
#[test]
fn non_power_of_two_brtc_is_a_typed_error_from_run_and_resume() {
    let mut c = cfg();
    c.bfetch.brtc_entries = 3;
    let p = kernel("bad-brtc", 1024);
    match SimSession::new(c).instructions(100).run_one(&p) {
        Err(SimError::Config(e)) => assert!(e.to_string().contains("brtc_entries"), "{e}"),
        other => panic!("expected a config error, got {:?}", other.map(|_| ())),
    }

    let dir = tmpdir("bad-brtc");
    let mut bytes = checkpoint_bytes(&dir);
    patch_config_word(&mut bytes, 9 * 8 + 1, cfg().bfetch.brtc_entries as u64, 3);
    let path = dir.join("crafted.snap");
    std::fs::write(&path, &bytes).unwrap();
    match SimSession::resume(&path) {
        Err(SimError::Config(e)) => assert!(e.to_string().contains("brtc_entries"), "{e}"),
        other => panic!("expected a config error, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_config_is_rejected_before_running() {
    let p = kernel("bad-cfg", 1024);
    let mut c = cfg();
    c.rob_entries = 0;
    let err = SimSession::new(c).instructions(100).run_one(&p).unwrap_err();
    match err {
        SimError::Config(e) => assert!(e.to_string().contains("rob_entries"), "{e}"),
        other => panic!("expected config error, got {other}"),
    }
}
