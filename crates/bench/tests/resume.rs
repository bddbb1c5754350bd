//! Checkpoint/resume integration tests for the harness: an interrupted
//! sweep leaves snapshot sidecars and a re-run resumes them to the exact
//! results a never-interrupted run produces; corrupt sidecars are
//! quarantined and recomputed; a SIGKILLed figure binary resumes from
//! its periodic checkpoint on the next invocation.

use bfetch_bench::harness::cache;
use bfetch_bench::{FailureKind, GridPoint, Harness, SweepSpec};
use bfetch_sim::{PrefetcherKind, SimConfig, SimError, SimSession, SnapshotError};
use bfetch_workloads::{kernel_by_name, Scale};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Enough instructions that every point comfortably passes the first
/// checkpoint-poll boundary (cycle 1024) before finishing.
const INSTRUCTIONS: u64 = 10_000;

fn cfg(kind: PrefetcherKind) -> SimConfig {
    SimConfig::baseline().with_prefetcher(kind).with_warmup(1_000)
}

fn sweep() -> SweepSpec {
    let kernels = [
        kernel_by_name("libquantum").unwrap(),
        kernel_by_name("mcf").unwrap(),
    ];
    let cfgs = [
        ("base", cfg(PrefetcherKind::None)),
        ("bfetch", cfg(PrefetcherKind::BFetch)),
    ];
    let mut spec = SweepSpec::new();
    spec.push_grid(&kernels, &cfgs, INSTRUCTIONS, Scale::Small);
    spec
}

fn tmp_cache(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bfetch-resume-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn snap_path(dir: &std::path::Path, p: &GridPoint) -> PathBuf {
    dir.join(cache::snap_name(&p.cache_key()))
}

/// A sweep stopped through a pre-armed flag (the same mechanism SIGINT
/// uses) fails every point as `Interrupted`, leaves one sidecar per
/// point, and a plain re-run resumes them all to results byte-identical
/// with an uninterrupted run.
#[test]
fn interrupted_sweep_leaves_sidecars_and_resumes_identically() {
    let dir = tmp_cache("resume");
    let spec = sweep();

    // Pre-armed stop flag: each point starts, hits its first poll
    // boundary, checkpoints, and reports Interrupted.
    let stop = Arc::new(AtomicBool::new(true));
    let out = Harness::new(2)
        .with_cache_dir(&dir)
        .quiet()
        .with_stop_flag(stop)
        .run(&spec);
    assert!(out.outcomes.is_empty(), "no point may complete under stop");
    assert_eq!(out.failures.len(), spec.len());
    for f in &out.failures {
        assert_eq!(f.kind, FailureKind::Interrupted, "at {}", f.label);
        assert_eq!(f.attempts, 1, "interrupts must not be retried");
    }
    for p in &spec.points {
        assert!(
            snap_path(&dir, p).exists(),
            "missing sidecar for {}",
            p.label
        );
    }

    // Re-run without the stop flag: every point resumes from its
    // sidecar (counted as a simulation, not a cache hit) and the
    // sidecar is consumed.
    let resumed = Harness::new(2).with_cache_dir(&dir).quiet().run(&spec);
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.stats.sims_run, spec.len());
    assert_eq!(resumed.stats.cache_hits, 0);
    for p in &spec.points {
        assert!(
            !snap_path(&dir, p).exists(),
            "sidecar for {} must be removed after completion",
            p.label
        );
    }

    let fresh = Harness::new(2).without_cache().quiet().run(&spec);
    for (r, f) in resumed.outcomes.iter().zip(fresh.outcomes.iter()) {
        assert_eq!(r.label, f.label);
        assert_eq!(r.results, f.results, "resumed != fresh at {}", r.label);
    }
    assert_eq!(resumed.to_json(), fresh.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sidecar holding garbage is quarantined to `.snap.bad` and the
/// point recomputes from scratch — corruption never fails the sweep.
#[test]
fn garbage_sidecar_is_quarantined_and_recomputed() {
    let dir = tmp_cache("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = sweep();
    let victim = &spec.points[0];
    std::fs::write(snap_path(&dir, victim), b"not a snapshot at all").unwrap();

    let out = Harness::new(1).with_cache_dir(&dir).quiet().run(&spec);
    assert!(out.failures.is_empty(), "corruption must not fail the point");
    assert_eq!(out.stats.sims_run, spec.len());

    let mut bad = snap_path(&dir, victim).into_os_string();
    bad.push(".bad");
    assert!(
        PathBuf::from(bad).exists(),
        "corrupt sidecar must be quarantined"
    );

    let fresh = Harness::new(1).without_cache().quiet().run(&spec);
    assert_eq!(out.to_json(), fresh.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Damages one *real* checkpoint with `damage` and checks the whole
/// recovery chain: resuming it is a typed snapshot error (`want`, when the
/// exact defect is known), the harness quarantines it to `.snap.bad`, and
/// the point recomputes to the results a fresh run produces.
fn damaged_sidecar_recovers(
    tag: &str,
    damage: impl Fn(&[u8]) -> Vec<u8>,
    want: Option<SnapshotError>,
) {
    let dir = tmp_cache(tag);
    let spec = sweep();

    let stop = Arc::new(AtomicBool::new(true));
    Harness::new(1)
        .with_cache_dir(&dir)
        .quiet()
        .with_stop_flag(stop)
        .run(&spec);
    let victim = snap_path(&dir, &spec.points[0]);
    let bytes = std::fs::read(&victim).unwrap();
    assert!(bytes.len() > 64, "checkpoint should be non-trivial");
    std::fs::write(&victim, damage(&bytes)).unwrap();
    match SimSession::resume(&victim) {
        Err(SimError::Snapshot(e)) => {
            if let Some(want) = want {
                assert_eq!(e, want, "{tag}");
            }
        }
        Err(e) => panic!("{tag}: wrong error kind {e}"),
        Ok(_) => panic!("{tag}: damaged sidecar resumed"),
    }

    let out = Harness::new(1).with_cache_dir(&dir).quiet().run(&spec);
    assert!(out.failures.is_empty(), "{tag}");
    let mut bad = victim.into_os_string();
    bad.push(".bad");
    assert!(PathBuf::from(bad).exists(), "{tag} sidecar quarantined");

    let fresh = Harness::new(1).without_cache().quiet().run(&spec);
    assert_eq!(out.to_json(), fresh.to_json(), "{tag}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint truncated mid-file (a torn write or a partial copy) is
/// caught by the whole-file checksum; one left over from an earlier
/// snapshot schema (a well-formed frame stamped version 1 to 5) is
/// caught by the version check. None panics, all are quarantined and
/// recomputed.
#[test]
fn truncated_or_old_schema_sidecar_is_quarantined_and_recomputed() {
    damaged_sidecar_recovers("truncated", |b| b[..b.len() / 2].to_vec(), None);
    for (tag, version) in [
        ("schema-v1", 1u32),
        ("schema-v2", 2),
        ("schema-v3", 3),
        ("schema-v4", 4),
        ("schema-v5", 5),
    ] {
        damaged_sidecar_recovers(
            tag,
            |b| {
                let mut old = b.to_vec();
                let n = old.len();
                old[8..12].copy_from_slice(&version.to_le_bytes());
                let crc = bfetch_snapshot::crc32(&old[..n - 4]);
                old[n - 4..].copy_from_slice(&crc.to_le_bytes());
                old
            },
            Some(SnapshotError::BadVersion {
                got: version,
                want: 6,
            }),
        );
    }
}

/// End-to-end crash recovery: a figure binary running with periodic
/// checkpoints is SIGKILLed mid-sweep; re-running the same command
/// resumes from the sidecars and prints the same bytes an uninterrupted
/// invocation prints.
#[test]
#[cfg(unix)]
fn killed_process_resumes_from_periodic_checkpoint() {
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_bfetch");
    let dir = tmp_cache("kill");
    let fresh_dir = tmp_cache("kill-fresh");
    let args = |cache: &PathBuf| {
        vec![
            "fig08_single".to_string(),
            "--small".to_string(),
            "--kernels".to_string(),
            "mcf".to_string(),
            "-n".to_string(),
            "120000".to_string(),
            "--warmup".to_string(),
            "20000".to_string(),
            "--checkpoint-every".to_string(),
            "2000".to_string(),
            "--threads".to_string(),
            "1".to_string(),
            "--cache-dir".to_string(),
            cache.display().to_string(),
        ]
    };

    // Start the sweep and SIGKILL it as soon as a periodic checkpoint
    // lands on disk (or let it finish if it wins the race — the rerun
    // is then served from the cache, which exercises the same
    // idempotence contract).
    let mut child = Command::new(bin)
        .args(args(&dir))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fig08_single");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let has_snap = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.flatten()
                    .any(|e| e.path().extension().is_some_and(|x| x == "snap"))
            })
            .unwrap_or(false);
        if has_snap || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL: no chance to clean up
    let _ = child.wait();

    // Rerun to completion (resuming any sidecars), then a fresh
    // uninterrupted run in a separate cache dir; stdout must match.
    let rerun = Command::new(bin)
        .args(args(&dir))
        .output()
        .expect("rerun fig08_single");
    assert!(rerun.status.success(), "rerun failed: {:?}", rerun);
    let fresh = Command::new(bin)
        .args(args(&fresh_dir))
        .output()
        .expect("fresh fig08_single");
    assert!(fresh.status.success());
    assert_eq!(
        rerun.stdout, fresh.stdout,
        "resumed sweep must print the same bytes as an uninterrupted one"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}
