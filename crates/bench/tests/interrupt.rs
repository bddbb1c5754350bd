//! Interrupt integration tests for the harness: once the stop flag is
//! set, no new grid point starts, every point already simulating finishes
//! and is cached whole, and a re-run simulates exactly the skipped points
//! to the results a never-interrupted run produces. A harness point is
//! never checkpointed, so the cache directory only ever holds `.res`
//! entries; a figure binary sent SIGINT or SIGKILL mid-sweep re-runs to the
//! same stdout.

use bfetch_bench::harness::cache;
use bfetch_bench::{FailureKind, Harness, SweepSpec};
use bfetch_sim::{PrefetcherKind, SimConfig, SimSession};
use bfetch_workloads::{kernel_by_name, Scale};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_cache(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bfetch-interrupt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn count_ext(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == ext))
            .count()
    })
}

/// A sweep at `-j 1` whose stop flag is set from another thread as soon
/// as its first entry lands: the point in flight then finishes and is
/// cached, every later one is skipped before it starts, and nothing but
/// `.res` entries is left behind. The checks hold wherever the flag lands.
#[test]
fn a_stopped_sweep_finishes_its_points_in_flight_and_skips_the_rest() {
    let dir = tmp_cache("drain");
    let kernels = ["libquantum", "mcf", "astar"].map(|k| kernel_by_name(k).unwrap());
    let cfgs = [PrefetcherKind::None, PrefetcherKind::BFetch].map(|kind| {
        (
            kind.name(),
            SimConfig::baseline()
                .with_prefetcher(kind)
                .with_warmup(5_000),
        )
    });
    let mut spec = SweepSpec::new();
    spec.push_grid(&kernels, &cfgs, 20_000, Scale::Full);

    let stop = Arc::new(AtomicBool::new(false));
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if count_ext(&dir, "res") > 0 {
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = Harness::new(1)
            .with_cache_dir(&dir)
            .quiet()
            .with_stop_flag(stop.clone())
            .run(&spec);
        done.store(true, Ordering::SeqCst);
        out
    });

    for o in &out.outcomes {
        let point = spec.points.iter().find(|p| p.label == o.label).unwrap();
        assert!(
            dir.join(cache::file_name(&point.cache_key())).exists(),
            "{} not cached",
            o.label
        );
    }
    for f in &out.failures {
        assert_eq!(
            (&f.kind, f.attempts),
            (&FailureKind::Interrupted, 0),
            "at {}",
            f.label
        );
    }
    for ext in ["snap", "prog", "bad"] {
        assert_eq!(
            count_ext(&dir, ext),
            0,
            "a .{ext} file in the cache directory"
        );
    }

    let rerun = Harness::new(1).with_cache_dir(&dir).quiet().run(&spec);
    assert_eq!(rerun.stats.sims_run, out.failures.len());
    let fresh = Harness::new(1).without_cache().quiet().run(&spec);
    assert_eq!(rerun.to_json(), fresh.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A periodic checkpoint of mcf at its full footprint carries the
/// machine state and no program: the 12 MB image is in the program file
/// beside it, once, and the state file names it instead.
#[test]
fn a_periodic_mcf_state_file_is_small_and_holds_no_program() {
    let dir = tmp_cache("mcf-size");
    let mcf = kernel_by_name("mcf").unwrap().build(Scale::Full);
    let cfg = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(20_000);
    SimSession::new(cfg)
        .instructions(10_000)
        .checkpoint_every(65_536, &dir)
        .run_one(&mcf)
        .unwrap();
    let state = std::fs::read(dir.join("checkpoint.snap")).expect("a periodic checkpoint");
    // 515 268 bytes at schema 11, plus about 10 %
    assert!(
        state.len() <= 567_000,
        "state file is {} bytes",
        state.len()
    );
    let ids = bfetch_snapshot::FrameReader::parse(&state)
        .unwrap()
        .section_ids();
    assert!(
        !ids.contains(&3),
        "state file has a programs section: {ids:?}"
    );

    // the program file holds mcf's encoding, whose head (name,
    // instructions, the first page of the image) the state file lacks
    let prog = std::fs::read(dir.join("checkpoint.prog")).unwrap();
    assert!(
        prog.len() > 12_000_000,
        "program file is {} bytes",
        prog.len()
    );
    let mut head = Vec::new();
    mcf.save_to(|b| {
        if head.is_empty() {
            head.extend_from_slice(b);
        }
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap();
    assert!(head.len() > 4096);
    assert!(
        prog.windows(head.len()).any(|w| w == head),
        "the program file holds the program"
    );
    assert!(
        !state.windows(head.len()).any(|w| w == head),
        "the state file holds program bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// End to end: a figure binary is sent `signal` (through `kill`) as soon
/// as its first entry lands. After SIGINT it exits 130 with nothing on
/// stdout, or 0 if it finished first; after either signal, re-running the
/// same command serves what was cached and prints the bytes an
/// uninterrupted run prints.
#[cfg(unix)]
fn signalled_figure_reruns_to_the_same_stdout(signal: &str) {
    use std::process::{Command, Stdio};

    let bin = env!("CARGO_BIN_EXE_bfetch");
    let dir = tmp_cache(signal);
    let common = [
        "fig08_single",
        "--small",
        "--kernels",
        "mcf",
        "-n",
        "120000",
        "--warmup",
        "20000",
        "-j",
        "1",
    ];
    let cached = || {
        let mut c = Command::new(bin);
        c.args(common).arg("--cache-dir").arg(&dir);
        c
    };

    let mut child = cached()
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fig08_single");
    let deadline = Instant::now() + Duration::from_secs(120);
    while count_ext(&dir, "res") == 0 && child.try_wait().expect("try_wait").is_none() {
        assert!(Instant::now() < deadline, "no entry appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    let pid = child.id().to_string();
    let _ = Command::new("kill")
        .args([&format!("-{signal}"), pid.as_str()])
        .status();
    let signalled = child.wait_with_output().expect("wait");
    if signal == "INT" {
        match signalled.status.code() {
            Some(130) => assert!(
                signalled.stdout.is_empty(),
                "an interrupted run printed results"
            ),
            Some(0) => {}
            other => panic!("SIGINT exit status {other:?}"),
        }
    }

    let rerun = cached().output().expect("rerun fig08_single");
    assert!(rerun.status.success(), "rerun failed: {rerun:?}");
    let fresh = Command::new(bin)
        .args(common)
        .arg("--no-cache")
        .output()
        .expect("fresh fig08_single");
    assert!(fresh.status.success());
    assert_eq!(
        rerun.stdout, fresh.stdout,
        "the rerun must print what an uninterrupted run prints"
    );
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("[harness]") && l.ends_with("cached")),
        "the rerun served nothing from the cache:\n{stderr}"
    );
    assert_eq!((count_ext(&dir, "snap"), count_ext(&dir, "prog")), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn a_figure_sent_sigint_drains_and_reruns_to_the_same_stdout() {
    signalled_figure_reruns_to_the_same_stdout("INT");
}

#[test]
#[cfg(unix)]
fn a_figure_sent_sigkill_reruns_to_the_same_stdout() {
    signalled_figure_reruns_to_the_same_stdout("KILL");
}
