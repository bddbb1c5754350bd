//! End-to-end checks of the observability layer: the metrics derived from
//! the trace-event stream must agree with the memory system's own
//! independently maintained counters, and enabling tracing must not
//! perturb simulation results.

use bfetch::isa::{Program, ProgramBuilder, Reg};
use bfetch::sim::{PrefetcherKind, RunResult, SimConfig, SimSession};
use bfetch::stats::LifecycleCounts;
use bfetch::workloads::kernel_by_name;

fn run_single(p: &Program, cfg: &SimConfig, insts: u64) -> RunResult {
    SimSession::new(cfg.clone())
        .instructions(insts)
        .run_one(p)
        .expect("run succeeds")
        .into_single()
}

struct Traced {
    results: Vec<RunResult>,
    lifecycle: Vec<LifecycleCounts>,
}

fn run_single_traced(p: &Program, cfg: &SimConfig, insts: u64) -> Traced {
    let out = SimSession::new(cfg.clone())
        .trace(true)
        .instructions(insts)
        .run_one(p)
        .expect("run succeeds");
    let trace = out.trace.expect("trace requested");
    Traced {
        results: out.results,
        lifecycle: trace.lifecycle,
    }
}

/// A deterministic unit-stride streaming loop: one load per 64 B line with
/// enough per-line compute that prefetching genuinely hides latency.
fn stride_kernel(lines: u64) -> Program {
    let mut b = ProgramBuilder::new("stride-obs");
    let base = 0x200_0000u64;
    b.li(Reg::R1, base as i64);
    b.li(Reg::R2, (base + lines * 64) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    for _ in 0..12 {
        b.add(Reg::R5, Reg::R5, Reg::R4);
        b.xor(Reg::R6, Reg::R6, Reg::R5);
    }
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

fn cfg(kind: PrefetcherKind) -> SimConfig {
    let mut c = SimConfig::baseline().with_prefetcher(kind);
    c.warmup_insts = 2_000;
    c
}

#[test]
fn trace_metrics_match_hand_derived_values_on_stride_kernel() {
    let p = stride_kernel(16 * 1024);
    let insts = 15_000;

    // Two independent counting paths over the same deterministic run: the
    // memory system's aggregate MemStats (from an *untraced* run) and the
    // per-event lifecycle tallies (from a traced one).
    let plain = run_single(&p, &cfg(PrefetcherKind::BFetch), insts);
    let traced = run_single_traced(&p, &cfg(PrefetcherKind::BFetch), insts);
    let lc = traced.lifecycle[0];
    let m = lc.metrics();

    // Hand-derive accuracy and coverage from the aggregate counters using
    // the DESIGN.md definitions, then demand exact agreement.
    let useful = plain.mem.prefetch_useful as f64;
    let hand_accuracy = useful / (useful + plain.mem.prefetch_useless as f64);
    let uncovered = (plain.mem.l1d_misses - plain.mem.prefetch_late) as f64;
    let hand_coverage = useful / (useful + uncovered);
    assert_eq!(m.accuracy, hand_accuracy, "accuracy definitions diverge");
    assert_eq!(m.coverage, hand_coverage, "coverage definitions diverge");

    // A streaming loop with a predictable branch is B-Fetch's best case:
    // the metrics should show a genuinely effective prefetcher.
    assert!(
        m.accuracy > 0.9,
        "stride accuracy {:.3} too low",
        m.accuracy
    );
    assert!(
        m.coverage > 0.5,
        "stride coverage {:.3} too low",
        m.coverage
    );
    assert!(lc.useful() > 100, "too few useful prefetches: {lc:?}");
}

#[test]
fn enabling_tracing_does_not_perturb_results() {
    for name in ["mcf", "libquantum"] {
        let p = kernel_by_name(name).unwrap().build_small();
        let plain = run_single(&p, &cfg(PrefetcherKind::BFetch), 10_000);
        let traced = run_single_traced(&p, &cfg(PrefetcherKind::BFetch), 10_000);
        assert_eq!(plain, traced.results[0], "tracing perturbed {name}");
    }
}

#[test]
fn registry_agrees_with_result_counters_end_to_end() {
    let p = kernel_by_name("mcf").unwrap().build_small();
    let r = run_single(&p, &cfg(PrefetcherKind::BFetch), 10_000);
    let reg = r.registry();
    assert_eq!(reg.get("core.instructions"), r.instructions);
    assert_eq!(reg.get("prefetch.useful"), r.mem.prefetch_useful);
    assert_eq!(reg.get("dram.reqs"), r.mem.dram_reqs);
    // the hierarchical prefix view sees exactly the prefetch counters
    let prefetch: Vec<&str> = reg.with_prefix("prefetch.").map(|(k, _)| k).collect();
    assert!(prefetch.contains(&"prefetch.issued"));
    assert!(prefetch.iter().all(|k| k.starts_with("prefetch.")));
}
