//! Scale-out: 16/32/64-core CMPs with a banked shared L3, the full kernel
//! registry tiled round-robin across the cores. Reports per-core IPC,
//! normalized weighted speedup and prefetch quality at each size — does
//! B-Fetch's accuracy advantage survive the contention of a large chip?
//!
//! The L3 keeps the baseline 2 MB/core capacity but is interleaved across
//! `cores/4` line-granularity banks (DESIGN.md §12 documents the mapping);
//! bank count only changes replacement locality, not capacity.
//!
//! Flags beyond the common set:
//!
//! ```text
//! --quick        reduced instruction budget (CI smoke run)
//! ```

use bfetch_bench::harness::executor::run_indexed;
use bfetch_bench::{rows_to_json, usage, Opts};
use bfetch_sim::{PrefetcherKind, SimSession};
use bfetch_stats::{weighted_speedup, Table};
use bfetch_workloads::{kernels, Kernel};

const CORE_COUNTS: [usize; 3] = [16, 32, 64];
const PREFETCHERS: [PrefetcherKind; 2] = [PrefetcherKind::None, PrefetcherKind::BFetch];

fn main() {
    // Split our own flags out before handing the rest to the common parser.
    let mut quick = false;
    let mut rest: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!(
                    "scale-out CMP: 16/32/64 cores, banked L3, registry tiled round-robin\n\
                     \x20 --quick                  reduced instruction budget (CI smoke run)\n\
                     {}",
                    usage()
                );
                return;
            }
            _ => rest.push(a),
        }
    }
    let mut opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let _prof = bfetch_bench::profiling::start(&opts);
    // A 64-core chip simulates 64 instruction windows per run; default to a
    // small per-core window, smaller still under --quick, unless pinned.
    let explicit_insts = std::env::args().any(|a| a == "--instructions" || a == "-n");
    let explicit_warmup = std::env::args().any(|a| a == "--warmup");
    if !explicit_insts {
        opts.instructions = if quick { 6_000 } else { 40_000 };
    }
    if !explicit_warmup {
        opts.warmup = if quick { 3_000 } else { 20_000 };
    }

    // Solo weights for the weighted-speedup denominator: each registry
    // kernel alone under each prefetcher, spread over the harness executor.
    let registry: Vec<&'static Kernel> = kernels().iter().collect();
    let solo_grid: Vec<(&'static Kernel, PrefetcherKind)> = registry
        .iter()
        .flat_map(|&k| PREFETCHERS.iter().map(move |&p| (k, p)))
        .collect();
    let solo_ipc: Vec<f64> = run_indexed(&solo_grid, opts.threads, |_, &(k, p)| {
        SimSession::new(opts.config(p))
            .instructions(opts.instructions)
            .run_one(&k.build(opts.scale))
            .unwrap_or_else(|e| die(&e.to_string()))
            .into_single()
            .ipc()
    });
    let solo = |kernel: &str, p: PrefetcherKind| -> f64 {
        solo_grid
            .iter()
            .zip(&solo_ipc)
            .find(|((k, kp), _)| k.name == kernel && *kp == p)
            .map(|(_, &ipc)| ipc)
            .expect("solo grid covers every (kernel, prefetcher) pair")
    };

    // The chip runs: registry tiled round-robin to N cores, L3 banked
    // cores/4 ways (power-of-two core counts keep every bank's set count a
    // power of two).
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for &cores in &CORE_COUNTS {
        let members: Vec<&'static Kernel> =
            (0..cores).map(|i| registry[i % registry.len()]).collect();
        let programs: Vec<_> = members.iter().map(|k| k.build(opts.scale)).collect();
        let banks = cores / 4;
        // one DDR controller per 8 cores: the baseline's single 12.8 GB/s
        // channel would serialize a 64-core chip into a bandwidth study
        let channels = cores / 8;
        let mut per_pf: Vec<(PrefetcherKind, Vec<bfetch_sim::RunResult>)> = Vec::new();
        for p in PREFETCHERS {
            let mut cfg = opts.config(p).with_l3_banks(banks);
            cfg.dram.channels = channels;
            let out = SimSession::new(cfg)
                .instructions(opts.instructions)
                .run(&programs)
                .unwrap_or_else(|e| die(&e.to_string()));
            per_pf.push((p, out.results));
        }
        let ws_of = |p: PrefetcherKind, results: &[bfetch_sim::RunResult]| -> f64 {
            let pairs: Vec<(f64, f64)> = results
                .iter()
                .zip(&members)
                .map(|(r, k)| (r.ipc(), solo(k.name, p)))
                .collect();
            weighted_speedup(&pairs)
        };
        let (_, base) = &per_pf[0];
        let (_, bf) = &per_pf[1];
        let ws_base = ws_of(PrefetcherKind::None, base);
        let ws_bf = ws_of(PrefetcherKind::BFetch, bf);
        let ipc_per_core =
            |rs: &[bfetch_sim::RunResult]| rs.iter().map(|r| r.ipc()).sum::<f64>() / rs.len() as f64;
        let useful: u64 = bf.iter().map(|r| r.mem.prefetch_useful).sum();
        let useless: u64 = bf.iter().map(|r| r.mem.prefetch_useless).sum();
        rows.push((
            format!("{cores}c/{banks}-bank L3/{channels}ch"),
            vec![
                ipc_per_core(base),
                ipc_per_core(bf),
                ws_bf / ws_base,
                useful as f64,
                useless as f64,
            ],
        ));
    }

    let headers = [
        "IPC/core (none)",
        "IPC/core (bfetch)",
        "bfetch WS",
        "pf useful",
        "pf useless",
    ];
    if opts.json {
        println!("{}", rows_to_json(&headers, &rows));
        return;
    }
    println!(
        "== Scale-out figure: 16/32/64-core CMP, banked L3{} ==",
        if quick { ", --quick" } else { "" },
    );
    let mut t = Table::new(
        std::iter::once("chip".to_string())
            .chain(headers.iter().map(|h| h.to_string()))
            .collect(),
    );
    for (name, vals) in &rows {
        t.row(
            std::iter::once(name.clone())
                .chain(vals.iter().enumerate().map(|(i, v)| match i {
                    3 | 4 => format!("{v:.0}"),
                    _ => format!("{v:.3}"),
                }))
                .collect(),
        );
    }
    print!("{t}");
    println!("(bfetch WS is weighted speedup normalized to no prefetching;");
    println!(" L3 stays 2 MB/core across cores/4 line banks; DRAM scales one");
    println!(" 12.8 GB/s channel per 8 cores)");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
