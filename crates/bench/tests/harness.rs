//! Integration tests for the experiment harness: parallel == serial,
//! and a repeated sweep is served entirely from the cache.

use bfetch_bench::{Harness, SweepSpec};
use bfetch_sim::{PrefetcherKind, SimConfig};
use bfetch_workloads::{kernel_by_name, Scale};
use std::path::PathBuf;

fn quick_cfg(kind: PrefetcherKind) -> SimConfig {
    SimConfig::baseline().with_prefetcher(kind).with_warmup(500)
}

/// Three kernels x three prefetchers, as the issue's acceptance criteria
/// demand (>= 3 kernels, >= 2 prefetchers).
fn sweep() -> SweepSpec {
    let kernels = [
        kernel_by_name("libquantum").unwrap(),
        kernel_by_name("mcf").unwrap(),
        kernel_by_name("astar").unwrap(),
    ];
    let cfgs = [
        ("base", quick_cfg(PrefetcherKind::None)),
        ("stride", quick_cfg(PrefetcherKind::Stride)),
        ("bfetch", quick_cfg(PrefetcherKind::BFetch)),
    ];
    let mut spec = SweepSpec::new();
    spec.push_grid(&kernels, &cfgs, 3_000, Scale::Small);
    spec
}

fn tmp_cache(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bfetch-harness-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn four_thread_sweep_matches_serial_exactly() {
    let spec = sweep();
    let serial = Harness::new(1).without_cache().quiet().run(&spec);
    let parallel = Harness::new(4).without_cache().quiet().run(&spec);

    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (s, p) in serial.outcomes.iter().zip(parallel.outcomes.iter()) {
        assert_eq!(s.label, p.label, "outcome order must be input order");
        assert_eq!(s.results, p.results, "results differ at {}", s.label);
    }
    // byte-identical machine-readable output, whatever the thread count
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn second_invocation_is_served_entirely_from_cache() {
    let dir = tmp_cache("repeat");
    let spec = sweep();

    let first = Harness::new(4).with_cache_dir(&dir).quiet().run(&spec);
    assert_eq!(first.stats.cache_hits, 0, "cold cache must miss everywhere");
    assert_eq!(first.stats.sims_run, spec.len());

    // a fresh harness on the same directory: zero simulations
    let second = Harness::new(4).with_cache_dir(&dir).quiet().run(&spec);
    assert_eq!(
        second.stats.sims_run, 0,
        "warm cache must serve every point"
    );
    assert_eq!(second.stats.cache_hits, spec.len());
    for (a, b) in first.outcomes.iter().zip(second.outcomes.iter()) {
        assert_eq!(a.results, b.results, "cached results differ at {}", a.label);
    }
    assert_eq!(first.to_json(), second.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_and_fresh_results_agree_across_thread_counts() {
    let dir = tmp_cache("cross");
    let spec = sweep();
    let warm = Harness::new(2).with_cache_dir(&dir).quiet().run(&spec);
    let cached = Harness::new(4).with_cache_dir(&dir).quiet().run(&spec);
    let fresh = Harness::new(3).without_cache().quiet().run(&spec);
    for ((w, c), f) in warm
        .outcomes
        .iter()
        .zip(cached.outcomes.iter())
        .zip(fresh.outcomes.iter())
    {
        assert_eq!(w.results, c.results);
        assert_eq!(w.results, f.results);
        assert!(c.from_cache);
        assert!(!f.from_cache);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
