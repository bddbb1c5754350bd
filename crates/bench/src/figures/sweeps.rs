//! Harness sweeps whose rows aggregate over the kernels instead of
//! listing them: one row per predictor size or DRAM model (Figure 13 and
//! one extension), plus the per-kernel prefetch counts of Figure 11.

use super::kernel_sweep;
use crate::{Ctx, Report, Row};
use bfetch_sim::{PrefetcherKind, SimConfig};
use bfetch_stats::{geomean, mean};

/// Figure 11: useful vs useless prefetches issued by SMS and B-Fetch per
/// benchmark — the accuracy argument behind B-Fetch's multiprogrammed wins.
pub fn fig11_accuracy(ctx: &Ctx) {
    let kinds = [PrefetcherKind::Sms, PrefetcherKind::BFetch];
    let (kernels, out) = kernel_sweep(ctx, &kinds.map(|k| (k.name(), ctx.opts.config(k))));

    let mut totals = [0u64; 4];
    let mut rows: Vec<Row> = Vec::new();
    for k in &kernels {
        let sms = out.require(&format!("{}/sms", k.name)).mem;
        let bf = out.require(&format!("{}/bfetch", k.name)).mem;
        let row =
            [sms.prefetch_useful, sms.prefetch_useless, bf.prefetch_useful, bf.prefetch_useless];
        for (tot, v) in totals.iter_mut().zip(row.iter()) {
            *tot += v;
        }
        rows.push((k.name.to_string(), row.iter().map(|&v| v as f64).collect()));
    }
    rows.push(("TOTAL".to_string(), totals.iter().map(|&v| v as f64).collect()));

    let sms_acc = totals[0] as f64 / (totals[0] + totals[1]).max(1) as f64;
    let bf_acc = totals[2] as f64 / (totals[2] + totals[3]).max(1) as f64;
    let headers = ["sms useful", "sms useless", "bfetch useful", "bfetch useless"];
    Report::new(
        "== Figure 11: useful and useless prefetches issued ==",
        "benchmark",
        headers,
        rows,
    )
    .cell(|_, v| format!("{v:.0}"))
    .note(format!(
        "\naccuracy: sms {:.1}%  bfetch {:.1}%\n\
             paper reference: B-Fetch issues ~4% more useful and ~50% fewer\n\
             useless prefetches than SMS.\n",
        100.0 * sms_acc,
        100.0 * bf_acc
    ))
    .emit(ctx.opts.json);
}

/// Figure 13: sensitivity to branch predictor size (0.5×/1×/2×/4× the
/// 6.55 KB tournament baseline), reporting baseline IPC, B-Fetch IPC, the
/// speedup, and the suite misprediction rate at each size.
pub fn fig13_bpsize(ctx: &Ctx) {
    let scales = [0.5, 1.0, 2.0, 4.0f64];
    // one sweep: the 1x no-prefetch reference plus (scale × {base,bfetch})
    let mut cfgs = vec![("ref".to_string(), ctx.opts.config(PrefetcherKind::None))];
    for s in scales {
        for (name, kind) in [("base", PrefetcherKind::None), ("bfetch", PrefetcherKind::BFetch)] {
            cfgs.push((format!("{name}/{s}"), ctx.opts.config(kind).with_bpred_scale(s)));
        }
    }
    let (kernels, out) = kernel_sweep(ctx, &cfgs);

    let rows: Vec<Row> = scales
        .iter()
        .map(|s| {
            let (mut base_ratio, mut bf_ratio, mut rates) = (Vec::new(), Vec::new(), Vec::new());
            for k in &kernels {
                let ref_ipc = out.require(&format!("{}/ref", k.name)).ipc();
                let b = out.require(&format!("{}/base/{s}", k.name));
                let f = out.require(&format!("{}/bfetch/{s}", k.name));
                base_ratio.push(b.ipc() / ref_ipc);
                bf_ratio.push(f.ipc() / ref_ipc);
                rates.push(b.branch_mispredict_rate());
            }
            (format!("{s}x"), vec![geomean(&base_ratio), geomean(&bf_ratio), mean(&rates)])
        })
        .collect();

    let headers = ["baseline speedup", "bfetch speedup", "miss rate"];
    Report::new(
        "== Figure 13: branch predictor size sensitivity ==",
        "predictor size",
        headers,
        rows,
    )
    .cell(|i, v| if i == 2 { format!("{:.2}%", 100.0 * v) } else { format!("{v:.4}") })
    .note(
        "\npaper reference: baseline 0.994/1.000/1.005/1.008, B-Fetch\n\
             1.225/1.232/1.237/1.241, miss rate 2.95%->2.53% — B-Fetch gains\n\
             little from a larger predictor because the default is already accurate.\n",
    )
    .emit(ctx.opts.json);
}

/// Extension: substrate study — flat-latency DRAM (the Table II model all
/// recorded experiments use) vs a bank/row-buffer model. Spatially local
/// streams gain effective bandwidth from open rows, which compresses
/// prefetcher speedups; scattered patterns are unaffected.
pub fn ext_dram(ctx: &Ctx) {
    let models = [("flat 200-cycle", false), ("8-bank row buffer", true)];
    let prefetchers = [
        ("base", PrefetcherKind::None),
        ("bfetch", PrefetcherKind::BFetch),
        ("sms", PrefetcherKind::Sms),
    ];
    let mut cfgs: Vec<(String, SimConfig)> = Vec::new();
    for (mi, &(_, row_model)) in models.iter().enumerate() {
        for (pname, kind) in prefetchers {
            let mut cfg = ctx.opts.config(kind);
            cfg.dram.row_model = row_model;
            cfgs.push((format!("{mi}/{pname}"), cfg));
        }
    }
    let (kernels, out) = kernel_sweep(ctx, &cfgs);

    let mut rows: Vec<Row> = Vec::new();
    for (mi, (label, _)) in models.iter().enumerate() {
        let mut base_ipc = Vec::new();
        let mut bf = Vec::new();
        let mut sms = Vec::new();
        for k in &kernels {
            let b = out.require(&format!("{}/{mi}/base", k.name)).ipc();
            base_ipc.push(b);
            bf.push(out.require(&format!("{}/{mi}/bfetch", k.name)).ipc() / b);
            sms.push(out.require(&format!("{}/{mi}/sms", k.name)).ipc() / b);
        }
        rows.push((label.to_string(), vec![geomean(&base_ipc), geomean(&bf), geomean(&sms)]));
    }

    let headers = ["baseline IPC (geomean)", "bfetch speedup", "sms speedup"];
    Report::new("== Extension: DRAM model sensitivity ==", "dram model", headers, rows)
        .emit(ctx.opts.json);
}
