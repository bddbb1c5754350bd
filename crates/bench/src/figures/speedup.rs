//! Per-benchmark speedup over the no-prefetch baseline, varying one
//! parameter per column, plus the geomean and prefetch-sensitive geomean
//! rows: Figures 1, 8, 12, 14, 15 and the design-choice ablation.

use super::kernel_sweep;
use crate::{summary_rows, Ctx, Report, Row};
use bfetch_core::BFetchConfig;
use bfetch_sim::{PrefetcherKind, SimConfig};

/// Appends the geomean rows and prints the figure.
fn emit<H: Into<String>>(
    ctx: &Ctx,
    title: &str,
    headers: impl IntoIterator<Item = H>,
    mut rows: Vec<Row>,
    note: &str,
) {
    rows.extend(summary_rows(&rows));
    Report::new(title, "benchmark", headers, rows).note(note).emit(ctx.opts.json);
}

/// Per-kernel speedups of the labelled configurations against the
/// no-prefetch baseline, over the selected kernels, through the harness
/// (parallel + cached).
fn speedup_rows(ctx: &Ctx, columns: &[(String, SimConfig)]) -> Vec<Row> {
    let mut cfgs = vec![("base".to_string(), ctx.opts.config(PrefetcherKind::None))];
    cfgs.extend_from_slice(columns);
    let (kernels, out) = kernel_sweep(ctx, &cfgs);
    kernels
        .iter()
        .map(|k| {
            let base = out.require(&format!("{}/base", k.name)).ipc();
            let vals = columns
                .iter()
                .map(|(n, _)| out.require(&format!("{}/{}", k.name, n)).ipc() / base)
                .collect();
            (k.name.to_string(), vals)
        })
        .collect()
}

/// The speedup figure with one column per labelled configuration.
fn speedup_figure(ctx: &Ctx, title: &str, columns: &[(String, SimConfig)], note: &str) {
    let rows = speedup_rows(ctx, columns);
    emit(ctx, title, columns.iter().map(|(n, _)| n.as_str()), rows, note);
}

/// One column per prefetcher in `kinds`.
fn prefetcher_speedups(ctx: &Ctx, title: &str, kinds: &[PrefetcherKind]) {
    let columns: Vec<_> =
        kinds.iter().map(|&kind| (kind.name().to_string(), ctx.opts.config(kind))).collect();
    speedup_figure(ctx, title, &columns, "");
}

/// One column per labelled B-Fetch engine configuration.
fn bfetch_variants(ctx: &Ctx, title: &str, variants: &[(String, BFetchConfig)], note: &str) {
    let columns: Vec<_> = variants
        .iter()
        .map(|(name, bfetch)| {
            (name.clone(), ctx.opts.config(PrefetcherKind::BFetch).with_bfetch(*bfetch))
        })
        .collect();
    speedup_figure(ctx, title, &columns, note);
}

/// Figure 1: motivation — Stride and SMS vs a Perfect L1D prefetcher.
pub fn fig01_perfect(ctx: &Ctx) {
    prefetcher_speedups(
        ctx,
        "== Figure 1: Stride / SMS / Perfect prefetcher speedups ==",
        &[PrefetcherKind::Stride, PrefetcherKind::Sms, PrefetcherKind::Perfect],
    );
}

/// Figure 8: single-threaded workload speedups — Stride vs SMS vs B-Fetch.
pub fn fig08_single(ctx: &Ctx) {
    prefetcher_speedups(
        ctx,
        "== Figure 8: single-threaded speedups (vs no-prefetch baseline) ==",
        &[PrefetcherKind::Stride, PrefetcherKind::Sms, PrefetcherKind::BFetch],
    );
}

/// Figure 12: sensitivity of B-Fetch to the branch path-confidence
/// threshold (0.45 / 0.75 / 0.90).
pub fn fig12_confidence(ctx: &Ctx) {
    let thresholds = [0.45, 0.75, 0.90]
        .map(|t| (format!("conf={t:.2}"), BFetchConfig::baseline().with_confidence_threshold(t)));
    bfetch_variants(
        ctx,
        "== Figure 12: branch confidence threshold sensitivity (B-Fetch speedup) ==",
        &thresholds,
        "\npaper reference: 20.6% / 23.2% / 23.0% mean speedup — best at 0.75,\n\
         stable across the range thanks to the per-load filter.\n",
    );
}

/// Figure 15: B-Fetch storage sensitivity — BrTC/MHT scaled through
/// 64/128/256/512 entries (≈ 8.01 / 9.65 / 12.94 / 19.46 KB in Table I
/// accounting).
pub fn fig15_storage(ctx: &Ctx) {
    // our kernels' static code is far smaller than SPEC's, so the capacity
    // knee sits lower than the paper's 64-512 sweep; include tiny tables to
    // expose it
    let sizes = [4usize, 16, 64, 256, 512].map(|entries| {
        let cfg = BFetchConfig::baseline().with_table_entries(entries);
        (format!("{:.2}KB", cfg.storage_report().total_kb()), cfg)
    });
    bfetch_variants(
        ctx,
        "== Figure 15: B-Fetch storage sensitivity ==",
        &sizes,
        "\npaper reference: 17.0% / 18.9% / 23.2% / 23.1% mean speedup —\n\
         saturating at the 256-entry BrTC / 128-entry MHT design point.\n",
    );
}

/// Extension: ablation of B-Fetch's design choices (not a paper figure,
/// but each switch corresponds to a mechanism Section IV argues for):
///
/// * `no-filter`  — per-load filter disabled (Section IV-B3);
/// * `no-loops`   — loop detection / `LoopCnt × LoopDelta` disabled;
/// * `no-patt`    — pos/negPatt sibling expansion disabled;
/// * `retire-arf` — ARF copied from retire-stage architectural state
///   instead of the sampling-latched execute values (Section IV-B2 reports
///   the execute copy gives a significant improvement).
pub fn ext_ablation(ctx: &Ctx) {
    let variant = |name: &str, tweak: fn(&mut BFetchConfig)| {
        let mut cfg = BFetchConfig::baseline();
        tweak(&mut cfg);
        (name.to_string(), cfg)
    };
    bfetch_variants(
        ctx,
        "== Extension: B-Fetch design-choice ablation (speedup vs baseline) ==",
        &[
            variant("full", |_| {}),
            variant("no-filter", |c| c.enable_filter = false),
            variant("no-loops", |c| c.enable_loops = false),
            variant("no-patt", |c| c.enable_patt = false),
            variant("retire-arf", |c| c.arf_at_retire = true),
        ],
        "",
    );
}

/// Figure 14: B-Fetch speedup across CPU pipeline widths (2/4/8-wide),
/// each width normalized to the no-prefetch baseline of the same width.
pub fn fig14_width(ctx: &Ctx) {
    let widths = [2usize, 4, 8];
    let cfgs: Vec<(String, SimConfig)> = widths
        .iter()
        .flat_map(|&w| {
            [("base", PrefetcherKind::None), ("bfetch", PrefetcherKind::BFetch)]
                .map(|(name, kind)| (format!("{name}/{w}"), ctx.opts.config(kind).with_width(w)))
        })
        .collect();
    let (kernels, out) = kernel_sweep(ctx, &cfgs);
    let rows = kernels
        .iter()
        .map(|k| {
            let ipc = |cfg: &str, w: usize| out.require(&format!("{}/{cfg}/{w}", k.name)).ipc();
            let vals = widths.iter().map(|&w| ipc("bfetch", w) / ipc("base", w)).collect();
            (k.name.to_string(), vals)
        })
        .collect();
    emit(
        ctx,
        "== Figure 14: CPU pipeline width sensitivity (B-Fetch speedup per width) ==",
        widths.map(|w| format!("{w}-wide")),
        rows,
        "\npaper reference: 22.6% / 23.2% / 26.7% mean speedups — gains grow\n\
         mildly with width as memory latency dominates wider machines more.\n",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opts;

    #[test]
    fn speedup_rows_run_through_the_harness() {
        let opts = Opts {
            instructions: 2_000,
            warmup: 500,
            scale: bfetch_workloads::Scale::Small,
            kernels: Some(vec!["libquantum".into()]),
            no_cache: true,
            threads: 2,
            ..Opts::default()
        };
        let ctx = Ctx::new(opts, Vec::new());
        let perfect = ("perfect".to_string(), ctx.opts.config(PrefetcherKind::Perfect));
        let rows = speedup_rows(&ctx, &[perfect]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "libquantum");
        assert!(rows[0].1[0] > 0.0);
    }
}
