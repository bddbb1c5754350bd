//! Prefetcher shootout: compare every prefetcher in the repository on a
//! workload chosen from the command line (default: a memory-bound stencil).
//!
//! ```sh
//! cargo run --release --example prefetcher_shootout -- mcf
//! ```

use bfetch::sim::{PrefetcherKind, SimConfig, SimSession};

/// One measured run through the session API.
fn run(program: &bfetch::isa::Program, cfg: SimConfig) -> bfetch::sim::RunResult {
    SimSession::new(cfg)
        .instructions(100_000)
        .run_one(program)
        .expect("simulation succeeds")
        .into_single()
}
use bfetch::stats::Table;
use bfetch::workloads::{kernel_by_name, kernels};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "leslie3d".into());
    let kernel = kernel_by_name(&name).unwrap_or_else(|| {
        let names: Vec<&str> = kernels().iter().map(|k| k.name).collect();
        panic!("unknown kernel {name:?}; choose one of {names:?}");
    });
    let program = kernel.build_small();

    let base = run(&program, SimConfig::baseline());
    let mut t = Table::new(vec![
        "prefetcher".into(),
        "IPC".into(),
        "speedup".into(),
        "L1D miss".into(),
        "pf useful".into(),
        "pf useless".into(),
        "accuracy".into(),
    ]);
    for kind in [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::Sms,
        PrefetcherKind::BFetch,
        PrefetcherKind::Perfect,
    ] {
        let cfg = SimConfig::baseline().with_prefetcher(kind);
        let r = run(&program, cfg);
        t.row(vec![
            kind.name().into(),
            format!("{:.3}", r.ipc()),
            format!("{:.2}x", r.ipc() / base.ipc()),
            r.mem.l1d_misses.to_string(),
            r.mem.prefetch_useful.to_string(),
            r.mem.prefetch_useless.to_string(),
            format!("{:.0}%", 100.0 * r.mem.prefetch_accuracy()),
        ]);
    }
    println!(
        "workload: {} (small scale, 100k measured instructions)",
        kernel.name
    );
    print!("{t}");
}
