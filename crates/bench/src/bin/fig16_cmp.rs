//! CMP deep dive: the highest-contention mix at 2, 4 and 8 cores —
//! normalized weighted speedup plus a per-core CPI stack for every run,
//! so the figure shows *where* each co-runner's cycles went, not just the
//! aggregate (Section V-B's mix figures, cross-cut with the top-down
//! accounting of DESIGN.md §10).
//!
//! Flags beyond the common set:
//!
//! ```text
//! --quick        reduced instruction budget (CI smoke run)
//! ```

use bfetch_bench::harness::executor::run_indexed;
use bfetch_bench::{rows_to_json, usage, Opts};
use bfetch_sim::{CpiComponent, CpiStack, PrefetcherKind, RunResult, SimSession};
use bfetch_stats::{weighted_speedup, Table};
use bfetch_workloads::{select_mixes, Kernel, Mix};

const CORE_COUNTS: [usize; 3] = [2, 4, 8];
const PREFETCHERS: [PrefetcherKind; 2] = [PrefetcherKind::None, PrefetcherKind::BFetch];

/// Display groups for the per-core stacks: the three memory levels fold
/// their prefetch-covered halves in (same folding as ext_cpistack).
const GROUPS: [(&str, &[CpiComponent]); 9] = [
    ("base", &[CpiComponent::Base]),
    ("mispred", &[CpiComponent::Mispredict]),
    ("fetch", &[CpiComponent::FetchStall]),
    ("rob", &[CpiComponent::RobFull]),
    ("lsq", &[CpiComponent::LsqFull]),
    ("mshr", &[CpiComponent::MshrFull]),
    ("L2", &[CpiComponent::MemL2, CpiComponent::MemL2Covered]),
    ("L3", &[CpiComponent::MemL3, CpiComponent::MemL3Covered]),
    (
        "dram",
        &[CpiComponent::MemDram, CpiComponent::MemDramCovered],
    ),
];

fn group_cpi(stack: &CpiStack, members: &[CpiComponent]) -> f64 {
    members.iter().map(|&c| stack.component_cpi(c)).sum()
}

/// One finished CMP run: the mix, the prefetcher, and per-core results.
struct CmpRun {
    mix: Mix,
    prefetcher: &'static str,
    results: Vec<RunResult>,
}

fn main() {
    // Split our own flags out before handing the rest to the common parser.
    let mut quick = false;
    let mut rest: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!(
                    "CMP weighted speedup + per-core CPI stacks (2/4/8 cores)\n\
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
    // 8-core CPI runs are heavy; default to the ext_mix8 window, or the CI
    // smoke budget under --quick, unless the user pinned one explicitly.
    let explicit_insts = std::env::args().any(|a| a == "--instructions" || a == "-n");
    let explicit_warmup = std::env::args().any(|a| a == "--warmup");
    if !explicit_insts {
        opts.instructions = if quick { 20_000 } else { 120_000 };
    }
    if !explicit_warmup {
        opts.warmup = if quick { 10_000 } else { 60_000 };
    }

    // Solo weights: every distinct member kernel under every prefetcher,
    // spread over the harness executor (grid parallelism, -j).
    let mixes: Vec<Mix> = CORE_COUNTS
        .iter()
        .map(|&n| select_mixes(n, 1)[0].clone())
        .collect();
    let mut solo_members: Vec<&'static Kernel> = Vec::new();
    for m in &mixes {
        for k in &m.members {
            if !solo_members.iter().any(|s| s.name == k.name) {
                solo_members.push(k);
            }
        }
    }
    let solo_grid: Vec<(&'static Kernel, PrefetcherKind)> = solo_members
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
            .expect("solo grid covers every (member, prefetcher) pair")
    };

    // CMP runs: each mix under each prefetcher, CPI accounting on.
    let mut runs: Vec<CmpRun> = Vec::new();
    for mix in &mixes {
        let programs: Vec<_> = mix.members.iter().map(|k| k.build(opts.scale)).collect();
        for p in PREFETCHERS {
            let out = SimSession::new(opts.config(p))
                .cpi(true)
                .instructions(opts.instructions)
                .run(&programs)
                .unwrap_or_else(|e| die(&e.to_string()));
            runs.push(CmpRun {
                mix: mix.clone(),
                prefetcher: p.name(),
                results: out.results,
            });
        }
    }

    // -- weighted speedup table --------------------------------------------
    let ws_of = |run: &CmpRun, p: PrefetcherKind| -> f64 {
        let pairs: Vec<(f64, f64)> = run
            .results
            .iter()
            .zip(&run.mix.members)
            .map(|(r, k)| (r.ipc(), solo(k.name, p)))
            .collect();
        weighted_speedup(&pairs)
    };
    let ws_rows: Vec<(String, Vec<f64>)> = mixes
        .iter()
        .map(|mix| {
            // every arity's top mix is named "mix1", so key on size too
            let arity = mix.members.len();
            let base = runs
                .iter()
                .find(|r| r.results.len() == arity && r.prefetcher == "baseline")
                .expect("runs cover every (mix, prefetcher) pair");
            let bf = runs
                .iter()
                .find(|r| r.results.len() == arity && r.prefetcher == "bfetch")
                .expect("runs cover every (mix, prefetcher) pair");
            let ws_base = ws_of(base, PrefetcherKind::None);
            let ws_bf = ws_of(bf, PrefetcherKind::BFetch);
            (
                format!("{}c {}", mix.members.len(), mix.name),
                vec![ws_base, ws_bf / ws_base],
            )
        })
        .collect();

    // -- per-core CPI stack rows -------------------------------------------
    let cpi_rows: Vec<(String, Vec<f64>)> = runs
        .iter()
        .flat_map(|run| {
            run.results.iter().enumerate().map(move |(i, r)| {
                let stack = r.cpi.expect("CPI accounting was toggled on");
                let vals = std::iter::once(stack.cpi())
                    .chain(GROUPS.iter().map(|(_, m)| group_cpi(&stack, m)))
                    .collect();
                (
                    format!(
                        "{}c/{}/c{}:{}",
                        run.results.len(),
                        run.prefetcher,
                        i,
                        run.mix.members[i].name
                    ),
                    vals,
                )
            })
        })
        .collect();

    let ws_headers = ["ws (none)", "bfetch"];
    let cpi_headers: Vec<&str> = std::iter::once("CPI")
        .chain(GROUPS.iter().map(|(name, _)| *name))
        .collect();
    if opts.json {
        println!(
            "{{\"ws\":{},\"cpi\":{}}}",
            rows_to_json(&ws_headers, &ws_rows),
            rows_to_json(&cpi_headers, &cpi_rows)
        );
        return;
    }

    println!(
        "== CMP figure: weighted speedup + per-core CPI stacks (2/4/8 cores{}) ==",
        if quick { ", --quick" } else { "" },
    );
    let mut t = Table::new(
        std::iter::once("mix".to_string())
            .chain(ws_headers.iter().map(|h| h.to_string()))
            .collect(),
    );
    for (name, vals) in &ws_rows {
        t.row(
            std::iter::once(name.clone())
                .chain(vals.iter().map(|v| format!("{v:.3}")))
                .collect(),
        );
    }
    print!("{t}");
    println!("(bfetch column is weighted speedup normalized to no prefetching)");
    println!();

    let mut t = Table::new(
        std::iter::once("core".to_string())
            .chain(cpi_headers.iter().map(|h| h.to_string()))
            .collect(),
    );
    for (name, vals) in &cpi_rows {
        t.row(
            std::iter::once(name.clone())
                .chain(vals.iter().map(|v| format!("{v:.3}")))
                .collect(),
        );
    }
    print!("{t}");
    println!("L2/L3/dram fold in their prefetch-covered halves (DESIGN.md §10)");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
