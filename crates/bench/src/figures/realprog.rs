//! Extension: real-program cross-validation — the six text-assembly
//! algorithm programs (`crates/workloads/asm/*.s`, see docs/WORKLOADS.md)
//! swept under none/stride/bfetch next to the synthetic kernels that
//! claim to model them ([`bfetch_workloads::ANALOGS`]).
//!
//! Two questions, two tables:
//!
//! 1. **Speedups** — per workload (real and synthetic), stride and
//!    B-Fetch speedup over the no-prefetch baseline plus the CPI-stack
//!    dram/mshr deltas under B-Fetch.
//! 2. **Cross-validation** — per (program, analog) pair: does the
//!    prefetcher *ranking* (ordered by cycles) measured on the real
//!    algorithm match the synthetic stand-in, and do the dram/mshr
//!    components move the same way? This is the kernel-fidelity claim of
//!    the workload suite turned into a measured result.
//!
//! Runs go through the `Harness` result cache, so stdout is byte-identical
//! across `--threads` counts and cache states (pinned by verify.sh).

use super::{group_cpi, table, CPI_PREFETCHERS};
use crate::{rows_to_json, Ctx, GridPoint, SweepSpec};
use bfetch_sim::{CpiComponent, CpiConfig, CpiStack, RunResult};
use bfetch_workloads::{kernel_by_name, Kernel, ANALOGS};

const DRAM: &[CpiComponent] = &[CpiComponent::MemDram, CpiComponent::MemDramCovered];
const MSHR: &[CpiComponent] = &[CpiComponent::MshrFull];

/// Component deltas smaller than this count as "flat" when the
/// cross-validation compares movement directions.
const FLAT_EPS: f64 = 0.005;

/// Relative cycle-count band within which two prefetchers count as tied
/// in the ranking strings (0.5%).
const RANK_TIE: f64 = 0.005;

/// One workload's three runs, in [`CPI_PREFETCHERS`] order.
struct Row {
    name: &'static str,
    family: &'static str,
    cycles: [u64; 3],
    stacks: [CpiStack; 3],
}

impl Row {
    fn speedup(&self, pf: usize) -> f64 {
        self.cycles[0] as f64 / self.cycles[pf] as f64
    }

    fn delta(&self, members: &[CpiComponent]) -> f64 {
        group_cpi(&self.stacks[2], members) - group_cpi(&self.stacks[0], members)
    }

    /// Prefetchers ordered best-first by cycle count, with near-ties
    /// (within [`RANK_TIE`] of the best) collapsed into `=` groups so tie
    /// noise never reads as a ranking disagreement. Quantization makes
    /// the string deterministic.
    fn ranking(&self) -> String {
        let best = *self.cycles.iter().min().expect("three runs") as f64;
        // bucket index: 0 = within RANK_TIE of the best, then RANK_TIE steps
        let bucket = |c: u64| ((c as f64 / best - 1.0) / RANK_TIE).floor() as i64;
        let mut order = [0usize, 1, 2];
        order.sort_by_key(|&i| (bucket(self.cycles[i]), i));
        let mut out = String::new();
        for (pos, &i) in order.iter().enumerate() {
            if pos > 0 {
                let tied = bucket(self.cycles[i]) == bucket(self.cycles[order[pos - 1]]);
                out.push_str(if tied { " = " } else { " > " });
            }
            out.push_str(CPI_PREFETCHERS[i].name());
        }
        out
    }
}

/// Classifies a CPI delta as shrinking, flat, or growing.
fn direction(delta: f64) -> &'static str {
    if delta < -FLAT_EPS {
        "shrinks"
    } else if delta > FLAT_EPS {
        "grows"
    } else {
        "flat"
    }
}

/// The `fig_realprog` registry entry. Real algorithms spend O(N log N)+
/// instructions over their O(N) data, so the common 300k window would
/// measure mostly their init phases; its budget reaches the
/// load-dominated steady state.
pub fn fig_realprog(ctx: &Ctx) {
    let opts = &ctx.opts;
    // The sweep covers each selected program and its synthetic analog,
    // deduplicated in case two programs ever share one analog.
    let pairs: Vec<(&'static Kernel, &'static Kernel)> = opts
        .selected_programs()
        .into_iter()
        .map(|p| {
            let analog = ANALOGS
                .iter()
                .find(|(prog, _)| *prog == p.name)
                .map(|(_, k)| *k)
                .expect("every registered program has an analog entry");
            let k = kernel_by_name(analog).expect("analog names a registry kernel");
            (p, k)
        })
        .collect();
    let mut workloads: Vec<(&'static Kernel, &'static str)> = Vec::new();
    for &(p, k) in &pairs {
        workloads.push((p, "real"));
        if !workloads.iter().any(|&(w, _)| std::ptr::eq(w, k)) {
            workloads.push((k, "synthetic"));
        }
    }

    let mut spec = SweepSpec::new();
    for &(w, _) in &workloads {
        for kind in CPI_PREFETCHERS {
            spec.push(GridPoint::single(
                format!("{}/{}", w.name, kind.name()),
                w,
                opts.config(kind).with_cpi(CpiConfig::on()),
                opts.instructions,
                opts.scale,
            ));
        }
    }
    let outcome = ctx.harness().run(&spec).or_fail();

    let rows: Vec<Row> = workloads
        .iter()
        .map(|&(w, family)| {
            let runs: Vec<&RunResult> = CPI_PREFETCHERS
                .iter()
                .map(|kind| outcome.require(&format!("{}/{}", w.name, kind.name())))
                .collect();
            Row {
                name: w.name,
                family,
                cycles: [runs[0].cycles, runs[1].cycles, runs[2].cycles],
                stacks: std::array::from_fn(|i| {
                    runs[i].cpi.expect("CPI accounting was requested for every point")
                }),
            }
        })
        .collect();

    if opts.json {
        let headers = [
            "base_cpi",
            "stride_speedup",
            "bfetch_speedup",
            "bfetch_dram_delta",
            "bfetch_mshr_delta",
        ];
        let json_rows: Vec<(String, Vec<f64>)> = rows
            .iter()
            .map(|r| {
                (
                    format!("{}/{}", r.family, r.name),
                    vec![
                        r.stacks[0].cpi(),
                        r.speedup(1),
                        r.speedup(2),
                        r.delta(DRAM),
                        r.delta(MSHR),
                    ],
                )
            })
            .collect();
        println!("{}", rows_to_json(&headers, &json_rows));
        return;
    }

    // -- speedup table ------------------------------------------------------
    println!(
        "== Extension: real programs vs. synthetic analogs ({} pairs x {} prefetchers{}) ==",
        pairs.len(),
        CPI_PREFETCHERS.len(),
        if opts.quick { ", --quick" } else { "" }
    );
    let mut t = table(["workload", "family", "CPI", "stride", "bfetch", "dram d", "mshr d"]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            r.family.to_string(),
            format!("{:.3}", r.stacks[0].cpi()),
            format!("{:.3}", r.speedup(1)),
            format!("{:.3}", r.speedup(2)),
            format!("{:+.3}", r.delta(DRAM)),
            format!("{:+.3}", r.delta(MSHR)),
        ]);
    }
    print!("{t}");
    println!();
    println!("stride/bfetch columns are speedups over the no-prefetch baseline;");
    println!("dram/mshr d = B-Fetch's CPI-stack component delta vs. that baseline");

    // -- cross-validation ---------------------------------------------------
    println!();
    println!("cross-validation (real program vs. the synthetic kernel modeling it):");
    let row_of = |name: &str| rows.iter().find(|r| r.name == name).expect("swept above");
    let mut t =
        table(["program", "analog", "ranking", "analog ranking", "dram", "mshr", "verdict"]);
    let mut agree = 0usize;
    for &(p, k) in &pairs {
        let (rp, rk) = (row_of(p.name), row_of(k.name));
        let rank_match = rp.ranking() == rk.ranking();
        let dram_match = direction(rp.delta(DRAM)) == direction(rk.delta(DRAM));
        let mshr_match = direction(rp.delta(MSHR)) == direction(rk.delta(MSHR));
        let verdict = if rank_match && dram_match && mshr_match {
            agree += 1;
            "agree"
        } else if rank_match {
            "rank only"
        } else {
            "differ"
        };
        t.row(vec![
            p.name.to_string(),
            k.name.to_string(),
            rp.ranking(),
            rk.ranking(),
            format!("{}/{}", direction(rp.delta(DRAM)), direction(rk.delta(DRAM))),
            format!("{}/{}", direction(rp.delta(MSHR)), direction(rk.delta(MSHR))),
            verdict.to_string(),
        ]);
    }
    print!("{t}");
    println!();
    println!(
        "{agree}/{} pairs fully agree (prefetcher ranking + dram/mshr movement, \
         flat band +-{FLAT_EPS})",
        pairs.len()
    );
}
