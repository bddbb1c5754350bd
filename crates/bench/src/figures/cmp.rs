//! Chip-multiprocessor figures: the FOA-selected mixes of Figures 9/10
//! and the 8-core extension, and the 2/4/8-core CPI deep dive. Every chip
//! run is a [`GridPoint::mix`] in one harness sweep next to the solo runs
//! that weight it, so chips run in parallel under `-j`, are cached,
//! checkpointed and fault-isolated like any other point.

use super::{group_cpi, GROUPS};
use crate::harness::jsonio::Json;
use crate::{mix_summary, Ctx, GridPoint, Report, Row, SweepOutcome, SweepSpec};
use bfetch_sim::{CpiConfig, PrefetcherKind, RunResult, SimConfig};
use bfetch_workloads::{select_mixes, Kernel, Mix, NUM_MIXES};

/// No prefetching vs B-Fetch: the two configurations the CPI deep dive runs.
const PREFETCHERS: [PrefetcherKind; 2] = [PrefetcherKind::None, PrefetcherKind::BFetch];

/// A labelled chip: the kernels on its cores, in core order.
type Chip = (String, Vec<&'static Kernel>);

/// The kernels `mixes` run, each once, in first-appearance order: the
/// solo runs a weighted speedup needs.
fn distinct_members(mixes: &[Mix]) -> Vec<&'static Kernel> {
    let mut members: Vec<&'static Kernel> = Vec::new();
    for k in mixes.iter().flat_map(|m| &m.members) {
        if !members.iter().any(|s| s.name == k.name) {
            members.push(k);
        }
    }
    members
}

/// One sweep for a multiprogrammed study: every kernel in `solo` alone
/// under each of `solo_kinds` (labelled `solo/{kernel}/{prefetcher}`),
/// then every chip under each of `kinds` (labelled
/// `{chip}/{prefetcher}`), its configuration passed through `chip_cfg`.
fn cmp_sweep(
    ctx: &Ctx,
    solo: &[&'static Kernel],
    solo_kinds: &[PrefetcherKind],
    chips: &[Chip],
    kinds: &[PrefetcherKind],
    chip_cfg: impl Fn(SimConfig) -> SimConfig,
) -> SweepOutcome {
    let opts = &ctx.opts;
    let mut spec = SweepSpec::new();
    for &k in solo {
        for p in solo_kinds {
            let label = format!("solo/{}/{}", k.name, p.name());
            spec.push(GridPoint::single(label, k, opts.config(*p), opts.instructions, opts.scale));
        }
    }
    for (label, members) in chips {
        for p in kinds {
            spec.push(GridPoint::mix(
                format!("{label}/{}", p.name()),
                members.clone(),
                chip_cfg(opts.config(*p)),
                opts.instructions,
                opts.scale,
            ));
        }
    }
    ctx.harness().run(&spec).or_fail()
}

/// The results of `chip` under `kind`, one per core.
fn chip_results<'a>(out: &'a SweepOutcome, chip: &Chip, kind: PrefetcherKind) -> &'a [RunResult] {
    out.require_all(&format!("{}/{}", chip.0, kind.name()))
}

/// The weighted speedup `Σ IPC_multi / IPC_single` of `chip` under
/// `kind`, each core weighted by its kernel's solo run under `solo_kind`.
fn weighted_speedup(
    out: &SweepOutcome,
    chip: &Chip,
    kind: PrefetcherKind,
    solo_kind: PrefetcherKind,
) -> f64 {
    let pairs: Vec<(f64, f64)> = chip_results(out, chip, kind)
        .iter()
        .zip(&chip.1)
        .map(|(r, k)| {
            (r.ipc(), out.require(&format!("solo/{}/{}", k.name, solo_kind.name())).ipc())
        })
        .collect();
    bfetch_stats::weighted_speedup(&pairs)
}

/// Normalized weighted speedups for the paper's multiprogrammed
/// experiments (Figures 9 and 10, and the 8-core extension).
///
/// For each of the `count` highest-contention FOA-selected mixes of
/// `arity` kernels and each of Stride / SMS / B-Fetch, runs the mix on a
/// CMP with a shared L3 sized per Table II (2 MB/core), computes the
/// weighted speedup, and normalizes it to the no-prefetch baseline's
/// weighted speedup for the same mix. The solo IPCs are measured on the
/// *baseline* (no-prefetch) configuration for every column — a common set
/// of weights, so the normalized value measures the prefetcher's weighted
/// throughput gain in the mix (consistent with the paper's Figure 9/10
/// bars, which reach 2.6x). One sweep holds everything: the common
/// solo-weight runs (shared across mixes and columns) plus every
/// (mix × config) CMP run.
fn mix_figure(ctx: &Ctx, arity: usize, count: usize, title: &str, note: &str) {
    let all_kinds =
        [PrefetcherKind::None, PrefetcherKind::Stride, PrefetcherKind::Sms, PrefetcherKind::BFetch];
    let (&base, kinds) = all_kinds.split_first().expect("the baseline comes first");
    let mixes = select_mixes(arity, count);
    let chips: Vec<Chip> =
        mixes.iter().map(|m| (format!("mix/{}", m.name), m.members.clone())).collect();
    let out = cmp_sweep(ctx, &distinct_members(&mixes), &[base], &chips, &all_kinds, |c| c);

    let mut rows: Vec<Row> = mixes
        .iter()
        .zip(&chips)
        .map(|(m, chip)| {
            let ws = |kind| weighted_speedup(&out, chip, kind, base);
            let base_ws = ws(base);
            (m.name.clone(), kinds.iter().map(|&kind| ws(kind) / base_ws).collect())
        })
        .collect();
    rows.push(mix_summary(&rows));
    Report::new(title, "mix", kinds.iter().map(|k| k.name()), rows).note(note).emit(ctx.opts.json);
}

/// Figure 9: the 29 highest-contention 2-application mixes.
pub fn fig09_mix2(ctx: &Ctx) {
    let title = "== Figure 9: normalized weighted speedup, mixes of 2 ==";
    mix_figure(ctx, 2, NUM_MIXES, title, "");
}

/// Figure 10: the 29 highest-contention 4-application mixes.
pub fn fig10_mix4(ctx: &Ctx) {
    let title = "== Figure 10: normalized weighted speedup, mixes of 4 ==";
    mix_figure(ctx, 4, NUM_MIXES, title, "");
}

/// Extension: mixes of 8 workloads. Section V-B2 notes "preliminary
/// results with mixes of 8 workloads continue this trend" — this checks
/// that claim on an 8-core CMP with a 16 MB shared L3.
pub fn ext_mix8(ctx: &Ctx) {
    mix_figure(
        ctx,
        8,
        10,
        "== Extension: normalized weighted speedup, mixes of 8 ==",
        "\npaper reference (Section V-B2): the mix-2/mix-4 trend — B-Fetch's\n\
         accuracy advantage growing with contention — continues at 8 apps.\n",
    );
}

/// CMP deep dive: the highest-contention mix at 2, 4 and 8 cores —
/// normalized weighted speedup plus a per-core CPI stack for every run,
/// so the figure shows *where* each co-runner's cycles went, not just the
/// aggregate (Section V-B's mix figures, cross-cut with the top-down
/// accounting of DESIGN.md §10).
pub fn fig16_cmp(ctx: &Ctx) {
    let mixes: Vec<Mix> = [2, 4, 8].map(|n| select_mixes(n, 1)[0].clone()).to_vec();
    let chips: Vec<Chip> =
        mixes.iter().map(|m| (format!("{}c", m.members.len()), m.members.clone())).collect();
    let solo = distinct_members(&mixes);
    let out = cmp_sweep(ctx, &solo, &PREFETCHERS, &chips, &PREFETCHERS, |cfg| {
        cfg.with_cpi(CpiConfig::on())
    });

    // each core weighted by its solo run under the same prefetcher
    let ws_rows: Vec<Row> = mixes
        .iter()
        .zip(&chips)
        .map(|(mix, chip)| {
            let [base, bfetch] = PREFETCHERS.map(|p| weighted_speedup(&out, chip, p, p));
            (format!("{}c {}", mix.members.len(), mix.name), vec![base, bfetch / base])
        })
        .collect();
    let mut cpi_rows: Vec<Row> = Vec::new();
    for chip in &chips {
        for p in PREFETCHERS {
            for (i, (r, k)) in chip_results(&out, chip, p).iter().zip(&chip.1).enumerate() {
                let stack = r.cpi.expect("CPI accounting was requested for every chip");
                let vals = std::iter::once(stack.cpi())
                    .chain(GROUPS.iter().map(|(_, m)| group_cpi(&stack, m)))
                    .collect();
                cpi_rows.push((format!("{}/{}/c{i}:{}", chip.0, p.name(), k.name), vals));
            }
        }
    }

    let title = format!(
        "== CMP figure: weighted speedup + per-core CPI stacks (2/4/8 cores{}) ==",
        if ctx.opts.quick { ", --quick" } else { "" },
    );
    let ws = Report::new(title, "mix", ["ws (none)", "bfetch"], ws_rows)
        .note("(bfetch column is weighted speedup normalized to no prefetching)\n\n");
    let cpi_headers = std::iter::once("CPI").chain(GROUPS.iter().map(|(name, _)| *name));
    let cpi = Report::new("", "core", cpi_headers, cpi_rows)
        .note("L2/L3/dram fold in their prefetch-covered halves (DESIGN.md §10)\n");
    if ctx.opts.json {
        println!("{}", Json::obj([("ws", ws.json()), ("cpi", cpi.json())]));
    } else {
        print!("{}{}", ws.to_text(), cpi.to_text());
    }
}
