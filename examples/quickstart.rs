//! Quickstart: simulate one SPEC-like kernel with and without B-Fetch and
//! print the speedup plus the engine's internal behaviour.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bfetch::sim::{PrefetcherKind, SimConfig, SimSession};
use bfetch::workloads::kernel_by_name;

fn main() {
    let kernel = kernel_by_name("libquantum").expect("known kernel");
    let program = kernel.build_small();

    let baseline = SimSession::new(SimConfig::baseline())
        .instructions(100_000)
        .run_one(&program)
        .expect("simulation succeeds")
        .into_single();
    let bfetch_cfg = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
    let bfetch = SimSession::new(bfetch_cfg)
        .instructions(100_000)
        .run_one(&program)
        .expect("simulation succeeds")
        .into_single();

    println!("workload      : {}", kernel.name);
    println!("baseline IPC  : {:.3}", baseline.ipc());
    println!("B-Fetch IPC   : {:.3}", bfetch.ipc());
    println!("speedup       : {:.2}x", bfetch.ipc() / baseline.ipc());
    println!(
        "bp miss rate  : {:.2}%",
        100.0 * bfetch.branch_mispredict_rate()
    );
    println!(
        "prefetches    : {} issued, {} useful, {} useless, {} late",
        bfetch.mem.prefetch_issued,
        bfetch.mem.prefetch_useful,
        bfetch.mem.prefetch_useless,
        bfetch.mem.prefetch_late
    );
    if let Some(e) = bfetch.engine {
        println!(
            "engine        : {} lookaheads, mean depth {:.1} branches, {} filtered",
            e.lookaheads,
            e.mean_depth(),
            e.filtered
        );
    }
}
