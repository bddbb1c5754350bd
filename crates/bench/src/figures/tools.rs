//! The utilities: the general-purpose `simulate` driver, the `probe`
//! diagnostic and the `asmcheck` assembler gate. None has a committed
//! `results/*.txt`.

use super::table;
use crate::registry::{usage_error, Ctx};
use crate::{GridPoint, OptsError, SweepSpec};
use bfetch_isa::asm;
use bfetch_sim::PrefetcherKind;
use bfetch_workloads::{kernel_by_name, kernels, Kernel, Scale};

fn bad_value(flag: &'static str, v: &str) -> ! {
    usage_error(OptsError::BadValue(flag, v.to_string()))
}

/// General-purpose simulation driver: run any kernel (or mix of kernels,
/// one core each, in `--kernels` order; default libquantum) under any
/// prefetcher/width configuration and print the full result.
///
/// ```sh
/// cargo run --release -p bfetch-bench -- simulate \
///     --kernels mcf,libquantum --prefetcher bfetch --instructions 500000
/// ```
pub fn simulate(ctx: &Ctx) {
    let opts = &ctx.opts;
    if ctx.own("--list").is_some() {
        for k in kernels() {
            println!(
                "{:12} {}",
                k.name,
                if k.prefetch_sensitive {
                    "prefetch-sensitive"
                } else {
                    "cache-resident"
                }
            );
        }
        return;
    }
    if let Some(name) = ctx.own("--dump") {
        let k = kernel_by_name(name)
            .unwrap_or_else(|| usage_error(OptsError::UnknownKernel(name.to_string())));
        let p = k.build(Scale::Small);
        println!("; {} — {} static instructions", p.name(), p.len());
        for (i, inst) in p.insts().iter().enumerate() {
            println!("{i:5}: {inst}");
        }
        return;
    }

    let mut cfg = opts.config(match ctx.own("--prefetcher").unwrap_or("none") {
        "none" => PrefetcherKind::None,
        "stride" => PrefetcherKind::Stride,
        "sms" => PrefetcherKind::Sms,
        "bfetch" => PrefetcherKind::BFetch,
        "perfect" => PrefetcherKind::Perfect,
        other => bad_value("--prefetcher", other),
    });
    if let Some(width) = ctx.parsed("--width") {
        cfg = cfg.with_width(width);
    }
    cfg = cfg.with_writebacks(ctx.own("--writebacks").is_some());
    cfg.dram.row_model = ctx.own("--row-dram").is_some();
    if let Some(t) = ctx.parsed("--confidence") {
        cfg.bfetch = cfg.bfetch.with_confidence_threshold(t);
    }
    if let Err(e) = cfg.validate() {
        usage_error(e);
    }

    // a mix runs its members in the order given (Opts::parse validated them)
    let names = opts
        .kernels
        .clone()
        .unwrap_or_else(|| vec!["libquantum".to_string()]);
    let members: Vec<&'static Kernel> = names
        .iter()
        .map(|n| kernel_by_name(n).expect("--kernels names are validated when parsed"))
        .collect();
    // one core per kernel: the shared L3 is sized by the count
    if let Err(e) = cfg.check_cores(members.len()) {
        usage_error(e);
    }

    let insts = opts.instructions;
    let mut spec = SweepSpec::new();
    spec.push(GridPoint::mix(
        "run",
        members.clone(),
        cfg.clone(),
        insts,
        opts.scale,
    ));
    let out = ctx.harness().run(&spec).or_fail();
    if opts.json {
        println!("{}", out.to_json());
        return;
    }
    let results = out.require_all("run");

    let mut t = table([
        "core",
        "workload",
        "IPC",
        "bp miss",
        "L1D MPKI",
        "pf useful",
        "pf useless",
    ]);
    for (i, r) in results.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            r.workload.clone(),
            format!("{:.3}", r.ipc()),
            format!("{:.2}%", 100.0 * r.branch_mispredict_rate()),
            format!("{:.1}", r.mpki()),
            r.mem.prefetch_useful.to_string(),
            r.mem.prefetch_useless.to_string(),
        ]);
    }
    println!(
        "prefetcher={} cores={} insts={insts}",
        cfg.prefetcher.name(),
        members.len()
    );
    print!("{t}");
    if let Some(e) = &results[0].engine {
        println!(
            "engine: mean lookahead depth {:.1}, {} candidates, {} filtered, {} conf stops",
            e.mean_depth(),
            e.candidates,
            e.filtered,
            e.confidence_stops
        );
    }
}

/// Diagnostic probe: per-kernel prefetcher internals (not a paper figure).
/// Select kernels with `--kernels a,b,c` (default: libquantum only).
pub fn probe(ctx: &Ctx) {
    let opts = &ctx.opts;
    let kernels = match &opts.kernels {
        Some(_) => opts.selected_kernels(),
        None => vec![kernel_by_name("libquantum").expect("registry kernel")],
    };
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::Sms,
        PrefetcherKind::BFetch,
        PrefetcherKind::Perfect,
    ];
    // the probe is a quick diagnostic: always the small footprints
    let mut spec = SweepSpec::new();
    let cfgs = kinds.map(|kind| (kind.name(), opts.config(kind)));
    spec.push_grid(&kernels, &cfgs, opts.instructions, Scale::Small);
    let out = ctx.harness().run(&spec).or_fail();

    if opts.json {
        println!("{}", out.to_json());
        return;
    }
    for k in &kernels {
        println!("=== {} ===", k.name);
        for kind in kinds {
            let r = out.require(&format!("{}/{}", k.name, kind.name()));
            println!(
                "{:10} ipc={:.3} l1dmiss={} merges={} pf: issued={} redundant={} mshr_drop={} useful={} useless={} late={}",
                kind.name(),
                r.ipc(),
                r.mem.l1d_misses,
                r.mem.mshr_merges,
                r.mem.prefetch_issued,
                r.mem.prefetch_redundant,
                r.mem.prefetch_mshr_drops,
                r.mem.prefetch_useful,
                r.mem.prefetch_useless,
                r.mem.prefetch_late,
            );
            if let Some(e) = r.engine {
                println!(
                    "  engine: lookaheads={} walked={} conf_stop={} brtc_stop={} depth_stop={} candidates={} filtered={} qovf={} dbr_drop={} depth={:.1}",
                    e.lookaheads, e.branches_walked, e.confidence_stops, e.brtc_stops,
                    e.depth_stops, e.candidates, e.filtered, e.queue_overflow, e.dbr_dropped,
                    e.mean_depth()
                );
            }
        }
    }
}

/// asmcheck: assemble `.s` files and report their shape, exiting nonzero
/// if any file fails — the verify.sh/CI gate that keeps every bundled
/// workload program (`crates/workloads/asm/*.s`) assembling cleanly.
///
/// Errors print as `path:line:col: message` (the assembler's positioned
/// diagnostics, see docs/ISA.md).
pub fn asmcheck(ctx: &Ctx) {
    let paths: Vec<&str> = ctx.all("FILE.s").collect();
    if paths.is_empty() {
        eprintln!("usage: bfetch asmcheck FILE.s [FILE.s ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
            Ok(src) => match asm::assemble(&src) {
                Ok(p) => {
                    let words: usize = p.data().iter().map(|(_, w)| w.len()).sum();
                    println!(
                        "{path}: {} — {} instructions, {} conditional branches, {} data words",
                        p.name(),
                        p.len(),
                        p.cond_branch_count(),
                        words
                    );
                }
                Err(e) => {
                    eprintln!("{path}:{e}");
                    failed = true;
                }
            },
        }
    }
    if failed {
        std::process::exit(1);
    }
}
