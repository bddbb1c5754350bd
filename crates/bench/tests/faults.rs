//! End-to-end fault injection: a sweep with panicking, livelocked and
//! runaway grid points must complete, isolate each failure to its point,
//! report deterministically, and leave the cache clean.

use bfetch_bench::harness::CACHE_IO_ATTEMPTS;
use bfetch_bench::{FailureKind, GridPoint, Harness, SweepSpec};
use bfetch_sim::{PrefetcherKind, SimConfig, SimError};
use bfetch_workloads::faults::{FaultKernel, FaultMode};
use bfetch_workloads::{kernel_by_name, Scale};
use std::path::PathBuf;

fn healthy_cfg() -> SimConfig {
    SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::None)
        .with_warmup(500)
}

fn fault_cfg() -> SimConfig {
    // tight watchdog + budget so injected stalls abort in milliseconds
    healthy_cfg().with_watchdog(1_500).with_max_cycles(200_000)
}

/// Distinct `insts` per point: the cache key excludes the label, so
/// identical budgets would collapse the points into one cache entry.
fn healthy(label: &str, insts: u64) -> GridPoint {
    GridPoint::single(
        label,
        kernel_by_name("mcf").unwrap(),
        healthy_cfg(),
        insts,
        Scale::Small,
    )
}

fn faulty(label: &str, mode: FaultMode) -> GridPoint {
    GridPoint::faulty(
        label,
        FaultKernel {
            mode,
            at_insts: 1_000,
        },
        fault_cfg(),
        1_500,
    )
}

/// healthy / panic / healthy / livelock / healthy — the acceptance
/// criterion's sweep, one of each failure plus surviving neighbours.
fn mixed_spec() -> SweepSpec {
    let mut spec = SweepSpec::new();
    spec.push(healthy("ok/first", 1_500));
    spec.push(faulty("bad/panics", FaultMode::Panic));
    spec.push(healthy("ok/middle", 1_600));
    spec.push(faulty("bad/livelocks", FaultMode::Livelock));
    spec.push(healthy("ok/last", 1_700));
    spec
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bfetch-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn panicking_point_is_isolated_and_neighbours_survive() {
    for threads in [1, 4] {
        let out = Harness::new(threads)
            .without_cache()
            .quiet()
            .run(&mixed_spec());
        let labels: Vec<&str> = out.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["ok/first", "ok/middle", "ok/last"]);
        for o in &out.outcomes {
            assert!(o.results[0].instructions >= 1_500);
        }
        assert_eq!(out.stats.points, 5);
        assert_eq!(out.stats.failed, 2);
        assert_eq!(out.stats.sims_run, 3);

        // failures in spec order, each with the right class
        assert_eq!(out.failures.len(), 2);
        assert_eq!(out.failures[0].label, "bad/panics");
        assert_eq!(out.failures[0].index, 1);
        assert_eq!(out.failures[0].attempts, 1, "panics are never retried");
        match &out.failures[0].kind {
            FailureKind::Panic(msg) => assert!(msg.contains("injected fault"), "{msg}"),
            other => panic!("expected panic, got {other}"),
        }
        assert_eq!(out.failures[1].label, "bad/livelocks");
        match &out.failures[1].kind {
            FailureKind::Sim(SimError::Watchdog {
                idle_cycles,
                snapshot,
                ..
            }) => {
                assert_eq!(*idle_cycles, 1_500);
                assert_eq!(snapshot.cores.len(), 1);
                assert!(snapshot.cores[0].committed >= 1_000);
            }
            other => panic!("expected watchdog, got {other}"),
        }
    }
}

#[test]
fn runaway_point_hits_the_cycle_budget() {
    let mut spec = SweepSpec::new();
    spec.push(faulty("bad/runs-away", FaultMode::Runaway));
    let out = Harness::new(1).without_cache().quiet().run(&spec);
    assert!(out.outcomes.is_empty());
    match &out.failures[0].kind {
        FailureKind::Sim(SimError::CycleBudget { limit, .. }) => assert_eq!(*limit, 200_000),
        other => panic!("expected cycle budget, got {other}"),
    }
}

#[test]
fn failure_reports_are_deterministic() {
    let run = || Harness::new(4).without_cache().quiet().run(&mixed_spec());
    let (a, b) = (run(), run());
    assert_eq!(a.failures, b.failures, "same sweep, same failure report");
    // the JSON rendering (which includes failures) is byte-identical too
    assert_eq!(a.to_json(), b.to_json());
    let doc = bfetch_bench::harness::jsonio::Json::parse(&a.to_json()).unwrap();
    match doc
        .get("failures")
        .expect("failures key present when failing")
    {
        bfetch_bench::harness::jsonio::Json::Arr(fs) => {
            assert_eq!(fs.len(), 2);
            assert_eq!(fs[0].get("class").unwrap().as_str(), Some("panic"));
            assert_eq!(fs[1].get("class").unwrap().as_str(), Some("sim"));
        }
        _ => panic!("failures not an array"),
    }
}

#[test]
fn failed_points_are_never_cached() {
    let dir = tmp_dir("nocache");
    let h = Harness::new(2).with_cache_dir(&dir).quiet();
    let first = h.run(&mixed_spec());
    assert_eq!(first.stats.failed, 2);
    assert_eq!(first.stats.sims_run, 3);
    // second run: healthy points hit the cache, failures recompute & refail
    let second = h.run(&mixed_spec());
    assert_eq!(second.stats.cache_hits, 3);
    assert_eq!(second.stats.sims_run, 0);
    assert_eq!(
        second.stats.failed, 2,
        "failures must not be served from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_io_failures_are_retried_then_reported() {
    let dir = tmp_dir("cacheio");
    std::fs::create_dir_all(&dir).unwrap();
    let point = healthy("ok/blocked", 1_500);
    // a directory squatting on the entry's path makes every read fail
    // with a non-NotFound error — the retriable cache-I/O class
    let entry = dir.join(bfetch_bench::harness::cache::file_name(&point.cache_key()));
    std::fs::create_dir(&entry).unwrap();
    let mut spec = SweepSpec::new();
    spec.push(point);
    spec.push(healthy("ok/normal", 1_600));
    let out = Harness::new(2).with_cache_dir(&dir).quiet().run(&spec);
    assert_eq!(out.outcomes.len(), 1);
    assert_eq!(out.outcomes[0].label, "ok/normal");
    let f = &out.failures[0];
    assert_eq!(f.label, "ok/blocked");
    assert_eq!(f.attempts, CACHE_IO_ATTEMPTS, "cache I/O is retried");
    assert!(matches!(f.kind, FailureKind::CacheIo(_)), "{}", f.kind);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn or_fail_passes_a_clean_sweep_through() {
    let mut spec = SweepSpec::new();
    spec.push(healthy("ok/only", 1_500));
    let out = Harness::new(1).without_cache().quiet().run(&spec).or_fail();
    assert_eq!(out.outcomes.len(), 1);
    assert!(out.failures.is_empty());
}

/// The process-level contract: `or_fail` on a failing sweep prints one
/// `FAILED <label>: <reason>` line per failure and exits 1. Runs the
/// sweep in a child process (this same test re-invoked with an env var)
/// and checks the exit code plus report determinism across two children.
#[test]
fn or_fail_exits_nonzero_with_deterministic_report() {
    if std::env::var_os("BFETCH_FAULTS_CHILD").is_some() {
        let out = Harness::new(2).without_cache().quiet().run(&mixed_spec());
        let _ = out.or_fail(); // exits 1
        unreachable!("or_fail must exit on a failing sweep");
    }
    let exe = std::env::current_exe().unwrap();
    let run_child = || {
        std::process::Command::new(&exe)
            .args([
                "or_fail_exits_nonzero_with_deterministic_report",
                "--exact",
                "--test-threads=1",
                "--nocapture",
            ])
            .env("BFETCH_FAULTS_CHILD", "1")
            .output()
            .expect("spawn child test process")
    };
    let first = run_child();
    assert_eq!(first.status.code(), Some(1), "failing sweep must exit 1");
    let failed_lines = |raw: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(raw)
            .lines()
            .filter(|l| l.starts_with("FAILED "))
            .map(str::to_string)
            .collect()
    };
    let lines = failed_lines(&first.stderr);
    assert_eq!(
        lines.len(),
        2,
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(
        lines[0].starts_with("FAILED bad/panics: panic: injected fault"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("FAILED bad/livelocks: watchdog:"),
        "{}",
        lines[1]
    );
    let second = run_child();
    assert_eq!(second.status.code(), Some(1));
    assert_eq!(
        lines,
        failed_lines(&second.stderr),
        "report must be deterministic"
    );
}
