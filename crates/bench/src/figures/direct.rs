//! The figure that fans out over the harness executor directly instead of
//! sweeping through the result cache: the cache stores `RunResult`s, and
//! this needs what it does not hold — the traced event stream of every run.

use super::write_sidecar;
use crate::harness::executor::run_indexed;
use crate::{exit_err, Ctx, Report, Row};
use bfetch_sim::{PrefetcherKind, SimSession};
use bfetch_stats::trace::{LifecycleCounts, TraceEvent};
use std::io::Write;

/// One kernel's traced run: the retained event stream and exact
/// lifecycle tallies (this tool reports quality metrics, not timing).
struct TracedRun {
    events: Vec<TraceEvent>,
    lifecycle: Vec<LifecycleCounts>,
}

/// Extension: prefetch-lifecycle quality metrics for B-Fetch — per-kernel
/// accuracy / coverage / timeliness / pollution / mean lead time derived
/// from the traced event stream rather than aggregate counters (DESIGN.md
/// "Observability" documents the event schema and metric definitions).
///
/// With `--trace PATH` the raw event stream is also exported as JSONL: one
/// `run_begin` delimiter object per kernel followed by that kernel's
/// retained events.
pub fn ext_lifecycle(ctx: &Ctx) {
    let opts = &ctx.opts;
    let kernels = opts.selected_kernels();
    let cfg = opts.config(PrefetcherKind::BFetch);

    // The work-stealing executor keeps the sweep parallel while the output
    // stays in kernel-registry order.
    let runs: Vec<TracedRun> = run_indexed(&kernels, opts.threads, |_, k| {
        let program = k.build(opts.scale);
        let out = SimSession::new(cfg.clone())
            .trace(true)
            .instructions(opts.instructions)
            .run_one(&program)
            .unwrap_or_else(|e| exit_err(e));
        let trace = out.trace.expect("tracing was toggled on");
        TracedRun { events: trace.events, lifecycle: trace.lifecycle }
    });

    if let Some(path) = &opts.trace {
        write_sidecar(path, |out| export_jsonl(out, &kernels, &runs));
    }

    let headers = [
        "issued",
        "filled",
        "useful",
        "late",
        "unused",
        "accuracy",
        "coverage",
        "timeliness",
        "pollution",
        "lead",
    ];
    let mut total = LifecycleCounts::default();
    let mut rows: Vec<Row> = Vec::new();
    for (k, run) in kernels.iter().zip(&runs) {
        let lc = run.lifecycle[0];
        total = total.combined(&lc);
        rows.push((k.name.to_string(), row_of(&lc)));
    }
    rows.push(("TOTAL".to_string(), row_of(&total)));

    let mut note = "\n\
         accuracy   = useful / (useful + unused)      [Section V \"accuracy\"]\n\
         coverage   = useful / (useful + demand miss) [Section V \"coverage\"]\n\
         timeliness = timely first uses / useful; lead = mean fill-to-use cycles\n"
        .to_string();
    if opts.trace.is_none() {
        note.push_str("(re-run with --trace PATH to export the raw event stream as JSONL)\n");
    }
    Report::new("== Extension: B-Fetch prefetch lifecycle (traced) ==", "benchmark", headers, rows)
        .cell(|i, v| match i {
            0..=4 => format!("{v:.0}"),
            9 => format!("{v:.1}"),
            _ => format!("{v:.3}"),
        })
        .note(note)
        .emit(opts.json);
}

fn row_of(lc: &LifecycleCounts) -> Vec<f64> {
    let m = lc.metrics();
    vec![
        lc.issued as f64,
        lc.filled as f64,
        lc.useful() as f64,
        lc.merged_late as f64,
        lc.evicted_unused as f64,
        m.accuracy,
        m.coverage,
        m.timeliness,
        m.pollution,
        m.mean_lead_cycles,
    ]
}

/// Writes one `run_begin` delimiter object per kernel followed by that
/// kernel's retained events, one JSON object per line.
fn export_jsonl(
    out: &mut impl Write,
    kernels: &[&'static bfetch_workloads::Kernel],
    runs: &[TracedRun],
) -> std::io::Result<()> {
    for (k, run) in kernels.iter().zip(runs) {
        writeln!(
            out,
            "{{\"event\":\"run_begin\",\"kernel\":\"{}\",\"prefetcher\":\"bfetch\",\"events\":{}}}",
            k.name,
            run.events.len()
        )?;
        for e in &run.events {
            writeln!(out, "{}", e.to_json_line())?;
        }
    }
    Ok(())
}
