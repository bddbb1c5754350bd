//! The paper's artifacts that are not speedup tables: the Figure 3 delta
//! CDFs, the Figure 7 branch-fetch histogram, and the Table I storage
//! accounting.

use super::{kernel_sweep, table};
use crate::harness::executor;
use crate::harness::jsonio::Json;
use crate::Ctx;
use bfetch_core::BFetchConfig;
use bfetch_prefetch::{Prefetcher, Sms, Stride};
use bfetch_sim::analysis::{delta_cdfs, DeltaCdfs, HORIZONS};
use bfetch_sim::PrefetcherKind;
use bfetch_stats::{percent, Cdf};

/// Figure 3: cumulative distribution of (a) register-content variation and
/// (b) effective-address variation across 1/3/12 basic blocks, at 64 B
/// cache-block granularity, aggregated over all 18 kernels.
///
/// The delta analysis produces CDFs rather than `RunResult`s, so this
/// fans out over kernels with the harness executor directly and merges in
/// registry order (the output is thread-count independent).
pub fn fig03_deltas(ctx: &Ctx) {
    let opts = &ctx.opts;
    let kernels = opts.selected_kernels();
    let per_kernel: Vec<DeltaCdfs> = executor::run_indexed(&kernels, opts.threads, |_, k| {
        let p = k.build(opts.scale);
        delta_cdfs(&p, opts.instructions)
    });
    let mut reg: [Cdf; 3] = [Cdf::new(), Cdf::new(), Cdf::new()];
    let mut ea: [Cdf; 3] = [Cdf::new(), Cdf::new(), Cdf::new()];
    for d in &per_kernel {
        for i in 0..3 {
            reg[i].merge(&d.reg[i]);
            ea[i].merge(&d.ea[i]);
        }
    }

    if opts.json {
        let series = |cdfs: &mut [Cdf; 3]| {
            Json::Arr(
                (0..3)
                    .map(|i| {
                        Json::Arr(
                            (0..=32u64)
                                .map(|x| Json::f64_of(cdfs[i].fraction_at_or_below(x)))
                                .collect(),
                        )
                    })
                    .collect(),
            )
        };
        let doc = Json::Obj(vec![
            (
                "horizons".into(),
                Json::Arr(HORIZONS.iter().map(|&h| Json::u64_of(h)).collect()),
            ),
            ("reg".into(), series(&mut reg)),
            ("ea".into(), series(&mut ea)),
        ]);
        println!("{doc}");
        return;
    }

    for (title, cdfs) in [
        ("(a) register content", &mut reg),
        ("(b) effective address", &mut ea),
    ] {
        println!("== Figure 3{title}: cumulative distribution of variation (64B blocks) ==");
        println!(
            "delta   {}",
            HORIZONS.map(|h| format!("{h:>2}BB ")).join("   ")
        );
        for x in 0..=32u64 {
            let vals: Vec<String> = (0..3)
                .map(|i| format!("{:.3}", cdfs[i].fraction_at_or_below(x)))
                .collect();
            println!("{x:>5}   {}", vals.join("   "));
        }
        println!();
    }
    println!("paper reference: 92% / 89% / 82% of register deltas within one");
    println!("block at 1/3/12 BB; effective addresses spread far wider.");
}

/// Figure 7: breakdown of the number of branch instructions fetched per
/// cycle, aggregated across the 18 kernels — the argument that the main
/// pipeline's branch predictor port is almost always free for B-Fetch.
pub fn fig07_branches(ctx: &Ctx) {
    let opts = &ctx.opts;
    let (kernels, out) = kernel_sweep(ctx, &[("base", opts.config(PrefetcherKind::None))]);

    let mut hist = [0u64; 5];
    for k in &kernels {
        let r = out.require(&format!("{}/base", k.name));
        for (i, v) in r.branch_fetch_hist.iter().enumerate() {
            hist[i] += v;
        }
    }
    let with_branch: u64 = hist[1..].iter().sum();
    if opts.json {
        let doc = Json::Obj(vec![(
            "branch_fetch_hist".into(),
            Json::Arr(hist.iter().map(|&v| Json::u64_of(v)).collect()),
        )]);
        println!("{doc}");
        return;
    }
    println!("== Figure 7: branches fetched per cycle (cycles fetching >=1 branch) ==");
    for (n, &count) in hist.iter().enumerate().skip(1) {
        println!(
            "{n} branch{}: {:6.2}%",
            if n == 1 { "  " } else { "es" },
            percent(count, with_branch)
        );
    }
    let multi: u64 = hist[3..].iter().sum();
    println!();
    println!(
        "cycles fetching >2 branches: {:.4}% of branch-fetching cycles",
        percent(multi, with_branch)
    );
    println!("paper reference: >=2 branches cover >99.95% of fetch cycles,");
    println!("so the predictor port is effectively always available to B-Fetch.");
}

/// Table I: hardware storage overhead of B-Fetch vs SMS, computed from the
/// configured structure geometries. No simulation runs — the table is pure
/// accounting.
pub fn tab1_storage(ctx: &Ctx) {
    let opts = &ctx.opts;
    let report = BFetchConfig::baseline().storage_report();
    let sms = Sms::baseline();
    let stride = Stride::degree8();

    if opts.json {
        let row = |prefetcher: &str, component: &str, entries: usize, kb: f64| {
            Json::Obj(vec![
                ("prefetcher".into(), Json::Str(prefetcher.into())),
                ("component".into(), Json::Str(component.into())),
                ("entries".into(), Json::u64_of(entries as u64)),
                ("kb".into(), Json::f64_of(kb)),
            ])
        };
        let mut rows: Vec<Json> = report
            .rows
            .iter()
            .map(|r| row("bfetch", r.component, r.entries, r.kb))
            .collect();
        rows.push(row(
            "sms",
            "AGT + PHT",
            sms.config().pht_entries,
            sms.storage_kb(),
        ));
        rows.push(row(
            "stride",
            "Reference prediction table",
            256,
            stride.storage_kb(),
        ));
        let doc = Json::Obj(vec![
            ("bfetch_total_kb".into(), Json::f64_of(report.total_kb())),
            ("rows".into(), Json::Arr(rows)),
        ]);
        println!("{doc}");
        return;
    }

    let mut t = table(["prefetcher", "component", "# entries", "size (KB)"]);
    for row in &report.rows {
        t.row(vec![
            "B-Fetch".into(),
            row.component.into(),
            if row.entries == 0 {
                "-".into()
            } else {
                row.entries.to_string()
            },
            format!("{:.2}", row.kb),
        ]);
    }
    t.row(vec![
        "B-Fetch".into(),
        "TOTAL SIZE".into(),
        "".into(),
        format!("{:.2}", report.total_kb()),
    ]);

    t.row(vec![
        "SMS".into(),
        "AGT + PHT (2KB regions, 16K-entry PHT)".into(),
        format!("{}", sms.config().pht_entries),
        format!("{:.2}", sms.storage_kb()),
    ]);
    t.row(vec![
        "Stride".into(),
        "Reference prediction table".into(),
        "256".into(),
        format!("{:.2}", stride.storage_kb()),
    ]);

    println!("== Table I: hardware storage overhead (KB) ==");
    print!("{t}");
    println!();
    let saving = 100.0 * (1.0 - report.total_kb() / sms.storage_kb());
    println!(
        "B-Fetch uses {:.0}% less storage than SMS (paper: 65% less, 12.84 vs 36.57 KB)",
        saving
    );
}
