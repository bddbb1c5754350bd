//! Robustness under extreme configurations: tiny structures, degenerate
//! thresholds, saturated resources. The system must stay correct (and
//! deterministic) even when every queue and table is under pressure.

use bfetch::core::BFetchConfig;
use bfetch::isa::Program;
use bfetch::sim::{PrefetcherKind, RunResult, SimConfig, SimSession};
use bfetch::workloads::kernel_by_name;

fn run_single(p: &Program, cfg: &SimConfig, insts: u64) -> RunResult {
    SimSession::new(cfg.clone())
        .instructions(insts)
        .run_one(p)
        .expect("run succeeds")
        .into_single()
}

fn base() -> SimConfig {
    let mut c = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
    c.warmup_insts = 10_000;
    c
}

const INSTS: u64 = 20_000;

#[test]
fn zero_confidence_threshold_walks_to_depth_cap() {
    let p = kernel_by_name("libquantum").unwrap().build_small();
    let mut c = base();
    c.bfetch = BFetchConfig::baseline().with_confidence_threshold(0.0);
    let r = run_single(&p, &c, INSTS);
    let e = r.engine.expect("engine active");
    assert!(e.confidence_stops == 0, "nothing stops at threshold 0");
    assert!(r.ipc() > 0.1);
}

#[test]
fn unit_confidence_threshold_stops_everything() {
    let p = kernel_by_name("libquantum").unwrap().build_small();
    let mut c = base();
    c.bfetch = BFetchConfig::baseline().with_confidence_threshold(1.01);
    let r = run_single(&p, &c, INSTS);
    let e = r.engine.expect("engine active");
    assert_eq!(e.branches_walked, 0, "no walk survives threshold > 1");
    // with the engine muted, behaviour matches the no-prefetch baseline
    let baseline = run_single(
        &p,
        &SimConfig {
            prefetcher: PrefetcherKind::None,
            ..c.clone()
        },
        INSTS,
    );
    assert_eq!(r.cycles, baseline.cycles);
}

#[test]
fn single_entry_tables_still_function() {
    let p = kernel_by_name("astar").unwrap().build_small();
    let mut c = base();
    c.bfetch.brtc_entries = 1;
    c.bfetch.mht_entries = 1;
    c.bfetch.filter_entries = 1;
    let r = run_single(&p, &c, INSTS);
    assert!(r.ipc() > 0.05);
}

#[test]
fn one_mshr_serializes_but_completes() {
    let p = kernel_by_name("lbm").unwrap().build_small();
    let mut c = base();
    c.l1d_mshrs = 1;
    let r = run_single(&p, &c, INSTS);
    assert!(r.ipc() > 0.005, "serialized system still makes progress");
}

/// The queue is Table I's fixed 100 entries; unfiltered walks that only
/// the depth cap stops offer it more candidates than it holds.
#[test]
fn tiny_prefetch_queue_overflows_gracefully() {
    let p = kernel_by_name("soplex").unwrap().build_small();
    let mut c = base();
    c.bfetch.confidence_threshold = 0.0;
    c.bfetch.enable_filter = false;
    let r = run_single(&p, &c, INSTS);
    let e = r.engine.expect("engine active");
    assert!(e.queue_overflow > 0, "pressure must be visible in stats");
    assert!(r.ipc() > 0.1);
}

#[test]
fn narrow_and_wide_pipelines_run() {
    let p = kernel_by_name("gamess").unwrap().build_small();
    for w in [1usize, 2, 8, 16] {
        let c = base().with_width(w);
        let r = run_single(&p, &c, INSTS);
        assert!(r.ipc() > 0.05, "width {w} gave IPC {}", r.ipc());
        assert!(r.ipc() <= w as f64, "IPC cannot exceed the width");
    }
}

#[test]
fn filter_threshold_extremes() {
    let p = kernel_by_name("soplex").unwrap().build_small();
    // threshold 0: everything passes; threshold 21: everything mutes
    for (t, expect_some) in [(0u8, true), (22u8, false)] {
        let mut c = base();
        c.bfetch.filter_threshold = t;
        let r = run_single(&p, &c, INSTS);
        let e = r.engine.expect("engine active");
        if expect_some {
            assert!(e.candidates > 0);
        } else {
            // only the 1/256 probation trickle can pass
            assert!(
                e.candidates < e.filtered / 16 + 64,
                "muted engine leaked: {e:?}"
            );
        }
    }
}

mod typed_failures {
    //! Injected faults surface as typed errors through the facade:
    //! a frozen core trips the watchdog with a diagnostic snapshot, a
    //! runaway run exhausts the cycle budget, and healthy runs are
    //! untouched by the (default-on) watchdog.

    use bfetch::isa::Program;
    use bfetch::sim::{FaultInjection, RunResult, SimConfig, SimError, SimSession};
    use bfetch::workloads::kernel_by_name;
    use bfetch::workloads::FAULT_KERNEL;

    fn try_run_single(p: &Program, cfg: &SimConfig, insts: u64) -> Result<RunResult, SimError> {
        SimSession::new(cfg.clone())
            .instructions(insts)
            .run_one(p)
            .map(|out| out.into_single())
    }

    fn frozen_cfg() -> SimConfig {
        let mut c = SimConfig::baseline().with_watchdog(2_000);
        c.warmup_insts = 500;
        c.fault = FaultInjection {
            panic_at_insts: 0,
            freeze_at_insts: 1_000,
        };
        c
    }

    #[test]
    fn watchdog_reports_a_snapshot_for_a_frozen_core() {
        let p = FAULT_KERNEL.build_small();
        let err = try_run_single(&p, &frozen_cfg(), 5_000).unwrap_err();
        match &err {
            SimError::Watchdog {
                idle_cycles,
                snapshot,
                ..
            } => {
                assert_eq!(*idle_cycles, 2_000);
                assert_eq!(snapshot.cores.len(), 1);
                assert!(snapshot.cores[0].committed >= 1_000);
                let text = err.to_string();
                assert!(text.contains("watchdog"), "{text}");
                assert!(text.contains("core 0"), "{text}");
            }
            other => panic!("expected watchdog, got {other}"),
        }
    }

    #[test]
    fn cycle_budget_is_the_backstop_when_the_watchdog_is_off() {
        let cfg = frozen_cfg().with_watchdog(0).with_max_cycles(50_000);
        let p = FAULT_KERNEL.build_small();
        match try_run_single(&p, &cfg, 5_000).unwrap_err() {
            SimError::CycleBudget { limit, cycle, .. } => {
                assert_eq!(limit, 50_000);
                assert!(cycle >= limit);
            }
            other => panic!("expected cycle budget, got {other}"),
        }
    }

    #[test]
    fn healthy_runs_pass_the_default_watchdog_untouched() {
        let p = kernel_by_name("libquantum").unwrap().build_small();
        let cfg = SimConfig::baseline();
        assert_eq!(cfg.watchdog_cycles, 1_000_000, "watchdog defaults on");
        let r = try_run_single(&p, &cfg, 20_000).expect("healthy run succeeds");
        // the session path is deterministic: an identical second run agrees
        let again = try_run_single(&p, &cfg, 20_000).expect("repeat run succeeds");
        assert_eq!(r.cycles, again.cycles, "repeated runs agree");
    }
}
