//! Extension: top-down CPI-stack breakdown per kernel for none vs. stride
//! vs. B-Fetch — where each configuration's cycles went, and which
//! component each prefetcher shrank (DESIGN.md "Cycle accounting &
//! timeline" documents the charging rules and the export schemas).
//!
//! Every run's stack is checked against the one-cause-per-slot invariant
//! (`committed_slots + Σ lost == width × cycles`) before anything is
//! printed; a violation is a simulator bug and aborts the report.
//!
//! With `--timeline PATH` the interval time series of every run is also
//! exported: a `.csv` path selects CSV (one row per sample, prefixed with
//! kernel and prefetcher columns), anything else JSONL (one `run_begin`
//! delimiter object per run followed by its samples).

use super::{group_cpi, table, write_sidecar, CPI_PREFETCHERS, GROUPS};
use crate::harness::executor::run_indexed;
use crate::{exit_err, rows_to_json, Ctx};
use bfetch_sim::{CpiComponent, CpiStack, PrefetcherKind, SimSession, TimelineSample};
use bfetch_workloads::Kernel;
use std::io::Write;

/// One finished grid point: its stack plus the interval samples.
struct Point {
    kernel: &'static str,
    prefetcher: &'static str,
    stack: CpiStack,
    timeline: Vec<TimelineSample>,
}

/// The prefetch-covered total: its own summary column next to the groups.
fn covered_cpi(stack: &CpiStack) -> f64 {
    CpiComponent::ALL.iter().filter(|c| c.is_covered()).map(|&c| stack.component_cpi(c)).sum()
}

/// The `ext_cpistack` registry entry.
pub fn ext_cpistack(ctx: &Ctx) {
    let opts = &ctx.opts;
    let kernels = opts.selected_kernels();

    // CPI runs carry a timeline, so they never go through the result
    // cache; the work-stealing executor keeps the grid parallel while the
    // output stays in (kernel, prefetcher) order.
    let grid: Vec<(&'static Kernel, PrefetcherKind)> =
        kernels.iter().flat_map(|&k| CPI_PREFETCHERS.iter().map(move |&p| (k, p))).collect();
    let points: Vec<Point> = run_indexed(&grid, opts.threads, |_, &(k, p)| {
        let program = k.build(opts.scale);
        let run = SimSession::new(opts.config(p))
            .cpi(true)
            .instructions(opts.instructions)
            .run_one(&program)
            .unwrap_or_else(|e| exit_err(e));
        let r = &run.results[0];
        let stack = r.cpi.expect("CPI run must carry a stack");
        // the acceptance invariant, checked on every grid point
        if !stack.holds_invariant()
            || stack.cycles != r.cycles
            || stack.committed_slots != r.instructions
        {
            exit_err(format_args!(
                "CPI invariant violated for {}/{}: {stack:?} vs {} cycles, {} insts",
                k.name,
                p.name(),
                r.cycles,
                r.instructions
            ));
        }
        Point { kernel: k.name, prefetcher: p.name(), stack, timeline: run.timeline }
    });

    if let Some(path) = &opts.timeline {
        let csv = path.extension().is_some_and(|e| e == "csv");
        write_sidecar(path, |out| export_timeline(out, csv, &points));
    }

    if opts.json {
        let headers: Vec<&str> = ["cpi", "commit"]
            .into_iter()
            .chain(CpiComponent::ALL.iter().map(|c| c.as_str()))
            .collect();
        let rows: Vec<(String, Vec<f64>)> = points
            .iter()
            .map(|pt| {
                let vals = [pt.stack.cpi(), pt.stack.commit_cpi()]
                    .into_iter()
                    .chain(CpiComponent::ALL.iter().map(|&c| pt.stack.component_cpi(c)))
                    .collect();
                (format!("{}/{}", pt.kernel, pt.prefetcher), vals)
            })
            .collect();
        println!("{}", rows_to_json(&headers, &rows));
        return;
    }

    // -- stacked breakdown table -------------------------------------------
    let group_names = GROUPS.iter().map(|(name, _)| *name);
    let mut t = table(
        ["benchmark", "pf", "CPI", "commit"].into_iter().chain(group_names).chain(["pf-cov"]),
    );
    for pt in &points {
        t.row(
            vec![
                pt.kernel.to_string(),
                pt.prefetcher.to_string(),
                format!("{:.3}", pt.stack.cpi()),
                format!("{:.3}", pt.stack.commit_cpi()),
            ]
            .into_iter()
            .chain(
                GROUPS.iter().map(|(_, members)| format!("{:.3}", group_cpi(&pt.stack, members))),
            )
            .chain(std::iter::once(format!("{:.3}", covered_cpi(&pt.stack))))
            .collect(),
        );
    }
    println!(
        "== Extension: top-down CPI stack ({} kernels x {} prefetchers{}) ==",
        kernels.len(),
        CPI_PREFETCHERS.len(),
        if opts.quick { ", --quick" } else { "" }
    );
    print!("{t}");
    println!();
    println!("every row satisfies committed + lost == width x cycles (checked);");
    println!("L2/L3/dram fold in their prefetch-covered halves; pf-cov = covered total");

    // -- which component did each prefetcher shrink? -----------------------
    println!();
    println!("component shrink vs. no prefetching:");
    let point = |kernel: &str, pf: &str| {
        points
            .iter()
            .find(|p| p.kernel == kernel && p.prefetcher == pf)
            .expect("grid covers every (kernel, prefetcher) pair")
    };
    for k in &kernels {
        let base = point(k.name, "baseline");
        for pf in ["stride", "bfetch"] {
            let pt = point(k.name, pf);
            let d_cpi = pt.stack.cpi() - base.stack.cpi();
            let (biggest, d_big) = GROUPS
                .iter()
                .map(|(name, members)| {
                    (*name, group_cpi(&pt.stack, members) - group_cpi(&base.stack, members))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("GROUPS is nonempty");
            let d_mispred = pt.stack.component_cpi(CpiComponent::Mispredict)
                - base.stack.component_cpi(CpiComponent::Mispredict);
            println!(
                "  {:<10} {pf:<7} dCPI {d_cpi:+.3}; largest shrink {biggest} ({d_big:+.3}); \
                 mispredict {d_mispred:+.3}",
                k.name
            );
        }
    }
    if opts.timeline.is_none() {
        println!();
        println!("(re-run with --timeline PATH to export the interval time series)");
    }
}

/// Exports every run's interval samples; `.csv` selects CSV with
/// kernel/prefetcher prefix columns, anything else the JSONL stream.
fn export_timeline(out: &mut impl Write, csv: bool, points: &[Point]) -> std::io::Result<()> {
    if csv {
        writeln!(out, "kernel,prefetcher,{}", TimelineSample::csv_header())?;
        for pt in points {
            for s in &pt.timeline {
                writeln!(out, "{},{},{}", pt.kernel, pt.prefetcher, s.csv_row())?;
            }
        }
    } else {
        for pt in points {
            writeln!(
                out,
                "{{\"event\":\"run_begin\",\"kernel\":\"{}\",\"prefetcher\":\"{}\",\"samples\":{}}}",
                pt.kernel,
                pt.prefetcher,
                pt.timeline.len()
            )?;
            for s in &pt.timeline {
                writeln!(out, "{}", s.to_json_line())?;
            }
        }
    }
    Ok(())
}
