//! A checkpoint's programs live in a program file written once per run
//! beside its state files (`checkpoint.snap` → `checkpoint.prog`), which
//! every state file names with the file's length and CRC-32. These tests
//! pin that a run writes it once and that every way it can go wrong is a
//! typed `SnapshotError` out of `SimSession::resume`, never a panic or a
//! run on the wrong programs.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bfetch_isa::{Program, ProgramBuilder, Reg};
use bfetch_sim::{PrefetcherKind, SimConfig, SimError, SimSession, SnapshotError, SCHEMA_VERSION};
use bfetch_snapshot::{crc32, Encoder, FrameReader, FrameWriter, Snap};

/// A streaming loop over a two-page-plus data image of `words` words.
fn kernel(name: &str, words: u64) -> Program {
    let mut b = ProgramBuilder::new(name);
    let base = 0x100_0000u64;
    b.init_words_iter(base, 0..words);
    b.li(Reg::R1, base as i64);
    b.li(Reg::R2, (base + words * 8) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    b.add(Reg::R5, Reg::R5, Reg::R4);
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

fn session() -> SimSession {
    let mut c = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
    c.warmup_insts = 1_000;
    SimSession::new(c).instructions(3_000)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bfetch-prog-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Interrupts a run of `p` at its first poll point, leaving
/// `dir/checkpoint.snap` and the `dir/checkpoint.prog` it names.
fn interrupted(dir: &Path, p: &Program) -> PathBuf {
    let err = session()
        .checkpoint_every(0, dir)
        .stop_flag(Arc::new(AtomicBool::new(true)))
        .run_one(p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }), "{err}");
    dir.join("checkpoint.snap")
}

fn resume_err(state: &Path) -> SnapshotError {
    match SimSession::resume(state) {
        Err(SimError::Snapshot(e)) => e,
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("resumed from a damaged checkpoint"),
    }
}

const NOT_NAMED: SnapshotError = SnapshotError::Invalid {
    what: "program file is not the one the checkpoint names",
};

#[test]
fn the_program_file_is_named_after_the_state_file() {
    assert_eq!(
        bfetch_sim::program_path(Path::new("d/checkpoint.snap")),
        Path::new("d/checkpoint.prog")
    );
    assert_eq!(
        bfetch_sim::program_path(Path::new("0af3.snap")),
        Path::new("0af3.prog")
    );
}

/// The program file goes through a symlink planted at its tmp name: the
/// first write follows the link and renames *the link* into place, and
/// any later write would replace it with a plain file. So a program file
/// that is still that link after every checkpoint was written exactly once.
#[test]
#[cfg(unix)]
fn a_run_with_many_periodic_checkpoints_writes_its_program_file_once() {
    let dir = tmpdir("once");
    let target = dir.join("program-bytes");
    let prog = dir.join("checkpoint.prog");
    let tmp = dir.join(format!("checkpoint.prog.tmp.{}", std::process::id()));
    std::os::unix::fs::symlink(&target, &tmp).unwrap();

    let p = kernel("once", 16 * 1024);
    let fresh = session().run_one(&p).unwrap();
    let ckpt = session().checkpoint_every(1024, &dir).run_one(&p).unwrap();
    assert_eq!(fresh.results, ckpt.results);
    // the last periodic state file is from cycle 3 072 or later: at least
    // three state files were written, each naming the one program file
    let bytes = std::fs::read(dir.join("checkpoint.snap")).unwrap();
    let frame = FrameReader::parse(&bytes).unwrap();
    let cycle = u64::load(&mut frame.section(6).unwrap()).unwrap();
    assert!(cycle >= 3 * 1024, "only reached cycle {cycle}");
    let meta = std::fs::symlink_metadata(&prog).unwrap();
    assert!(
        meta.file_type().is_symlink(),
        "the program file was rewritten"
    );

    // a resume reuses the program file that verifies: still the link
    let resumed = SimSession::resume(dir.join("checkpoint.snap")).unwrap();
    assert_eq!(resumed.results, fresh.results);
    assert!(std::fs::symlink_metadata(&prog)
        .unwrap()
        .file_type()
        .is_symlink());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_program_file_is_an_io_error() {
    let dir = tmpdir("missing");
    let state = interrupted(&dir, &kernel("missing", 1024));
    std::fs::remove_file(dir.join("checkpoint.prog")).unwrap();
    assert!(matches!(
        resume_err(&state),
        SnapshotError::Io {
            op: "open program file",
            ..
        }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_program_file_is_not_the_named_one() {
    let dir = tmpdir("truncated");
    let state = interrupted(&dir, &kernel("truncated", 1024));
    let prog = dir.join("checkpoint.prog");
    let bytes = std::fs::read(&prog).unwrap();
    for n in [0, 1, 16, 28, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&prog, &bytes[..n]).unwrap();
        assert_eq!(resume_err(&state), NOT_NAMED, "truncated to {n}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One flipped bit anywhere — header, instructions, image words, the
/// trailing CRC — is caught before the programs are used; in the image
/// it can only be the CRC.
#[test]
fn a_flipped_byte_in_the_program_file_is_a_typed_error() {
    let dir = tmpdir("flip");
    let p = kernel("flip", 2048);
    let state = interrupted(&dir, &p);
    let prog = dir.join("checkpoint.prog");
    let bytes = std::fs::read(&prog).unwrap();
    let offsets: Vec<usize> = (0..64)
        .chain((64..bytes.len()).step_by(251))
        .chain([bytes.len() - 1])
        .collect();
    for at in offsets {
        let mut bad = bytes.clone();
        bad[at] ^= 1 << (at % 8);
        std::fs::write(&prog, &bad).unwrap();
        resume_err(&state);
    }
    // the middle of the image is data: only the CRC can tell
    let mut bad = bytes.clone();
    bad[bytes.len() / 2] ^= 0x10;
    std::fs::write(&prog, &bad).unwrap();
    assert!(matches!(
        resume_err(&state),
        SnapshotError::BadChecksum { .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Another run's program file under the right name: another length, or
/// the same length and another CRC — both refused.
#[test]
fn a_program_file_from_another_run_is_refused() {
    let dir = tmpdir("mine");
    let other = tmpdir("other");
    let state = interrupted(&dir, &kernel("mine", 1024));
    let prog = dir.join("checkpoint.prog");
    for stranger in [kernel("theirs-is-longer", 4096), kernel("same", 1024)] {
        interrupted(&other, &stranger);
        std::fs::copy(other.join("checkpoint.prog"), &prog).unwrap();
        assert_eq!(resume_err(&state), NOT_NAMED, "{}", stranger.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}

/// A schema-6 checkpoint was one file: the programs were its section 3
/// and no program file was named. Rebuilt from a schema-7 checkpoint,
/// it is refused by version, before anything else is read.
#[test]
fn a_schema_6_single_file_checkpoint_is_bad_version() {
    let dir = tmpdir("schema6");
    let p = kernel("schema6", 1024);
    let state = interrupted(&dir, &p);
    let bytes = std::fs::read(&state).unwrap();
    let frame = FrameReader::parse(&bytes).unwrap();
    let mut programs = Encoder::new();
    vec![p].save(&mut programs);
    let mut w = FrameWriter::new(Vec::new(), 6).unwrap();
    for id in [1, 2, 3, 4, 5, 6] {
        match id {
            3 => w.section(3, programs.as_bytes()).unwrap(),
            _ => {
                let mut r = frame.section(id).unwrap();
                w.section(id, r.take_bytes(r.remaining()).unwrap()).unwrap();
            }
        }
    }
    let mut old = w.finish().unwrap().0;
    old[8..12].copy_from_slice(&6u32.to_le_bytes());
    let n = old.len();
    let crc = crc32(&old[..n - 4]);
    old[n - 4..].copy_from_slice(&crc.to_le_bytes());
    let single = dir.join("single.snap");
    std::fs::write(&single, &old).unwrap();
    assert_eq!(
        resume_err(&single),
        SnapshotError::BadVersion {
            got: 6,
            want: SCHEMA_VERSION
        }
    );
    let _ = std::fs::remove_dir_all(&dir);
}
