//! Measured per-phase cost breakdown of the simulator hot path, replacing
//! DESIGN.md §13's estimated cost model with numbers from the `bfetch-prof`
//! span timers.
//!
//! Runs the ext_mix8 workload (the first eight registry kernels on an
//! 8-core CMP, B-Fetch config) with profiling enabled, and prints each
//! phase's count, total, mean, p50/p99 and share of the end-to-end
//! `sim.run` wall time. A machine-readable copy goes to `--out` (default
//! `target/PROF_phase_report.json`).
//!
//! Coverage is the self-check that the instrumentation accounts for the
//! run: the top-level phases that tile `sim.run` (`sim.drain_chip` +
//! `sim.step` + `sim.bookkeep`) must sum to ~100% of it.
//! `--min-coverage PCT` turns that into an exit-code gate for CI.
//!
//! This is a *timing* figure: its stdout reports wall clock and is exempt
//! from the byte-identity contract (see `tests/stdout_contract.rs`).

use super::table;
use crate::harness::jsonio::Json;
use crate::{exit_err, Ctx};
use bfetch_prof::PHASE_NAMES;
use bfetch_sim::{PrefetcherKind, SimSession};
use bfetch_workloads::{kernels, Scale};
use std::path::{Path, PathBuf};

/// The `ext_profile` registry entry (`--quick` also shrinks the
/// workload footprints).
pub fn ext_profile(ctx: &Ctx) {
    let opts = &ctx.opts;
    let out_path = PathBuf::from(ctx.own("--out").unwrap_or("target/PROF_phase_report.json"));
    let min_coverage: f64 = ctx.parsed("--min-coverage").unwrap_or(0.0);

    if let Some(path) = ctx.own("--check-trace") {
        validate_trace(Path::new(path));
        return;
    }

    let scale = if opts.quick { Scale::Small } else { opts.scale };
    let programs: Vec<_> = kernels().iter().take(8).map(|k| k.build(scale)).collect();

    println!(
        "== Extension: measured phase breakdown (mix8, {} insts/core{}) ==",
        opts.instructions,
        if opts.quick { ", --quick" } else { "" }
    );
    bfetch_prof::enable();
    SimSession::new(opts.config(PrefetcherKind::BFetch))
        .instructions(opts.instructions)
        .run(&programs)
        .unwrap_or_else(|e| exit_err(e));
    let profile = bfetch_prof::drain().unwrap_or_else(|| exit_err("profiler captured nothing"));
    let report = profile.report();

    let run_ns = report.phase_total_ns("sim.run");
    if run_ns == 0 {
        exit_err("no sim.run span recorded");
    }
    let covered: u64 = ["sim.drain_chip", "sim.step", "sim.bookkeep"]
        .iter()
        .map(|n| report.phase_total_ns(n))
        .sum();
    let coverage = covered as f64 / run_ns as f64 * 100.0;

    let mut t = table(["phase", "count", "total", "mean", "p50", "p99", "% of run"]);
    for name in PHASE_NAMES {
        let Some(p) = report.phase(name) else {
            continue;
        };
        if p.count == 0 {
            continue;
        }
        t.row(vec![
            p.name.to_string(),
            p.count.to_string(),
            bfetch_prof::fmt_ns(p.total_ns),
            bfetch_prof::fmt_ns(p.mean_ns()),
            bfetch_prof::fmt_ns(p.p50_ns),
            bfetch_prof::fmt_ns(p.p99_ns),
            format!("{:.1}", p.total_ns as f64 / run_ns as f64 * 100.0),
        ]);
    }
    print!("{t}");
    println!(
        "coverage: {coverage:.1}% of sim.run ({} of {}) via drain+sim.step+bookkeep",
        bfetch_prof::fmt_ns(covered),
        bfetch_prof::fmt_ns(run_ns),
    );

    let phases_json: Vec<(String, Json)> = report
        .phases
        .iter()
        .filter(|p| p.count > 0)
        .map(|p| {
            (
                p.name.to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::u64_of(p.count)),
                    ("total_ns".into(), Json::u64_of(p.total_ns)),
                    ("mean_ns".into(), Json::u64_of(p.mean_ns())),
                    ("p50_ns".into(), Json::u64_of(p.p50_ns)),
                    ("p99_ns".into(), Json::u64_of(p.p99_ns)),
                    (
                        "pct_of_run".into(),
                        Json::f64_of((p.total_ns as f64 / run_ns as f64 * 1000.0).round() / 10.0),
                    ),
                ]),
            )
        })
        .collect();

    let doc = Json::Obj(vec![
        ("schema".into(), Json::u64_of(2)),
        ("quick".into(), Json::Bool(opts.quick)),
        ("instructions".into(), Json::u64_of(opts.instructions)),
        ("warmup".into(), Json::u64_of(opts.warmup)),
        ("wall_ns".into(), Json::u64_of(run_ns)),
        ("coverage_pct".into(), Json::f64_of((coverage * 10.0).round() / 10.0)),
        ("phases".into(), Json::Obj(phases_json)),
    ]);
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, doc.to_string()) {
        exit_err(format_args!("writing {}: {e}", out_path.display()));
    }
    println!("wrote {}", out_path.display());

    if coverage < min_coverage {
        exit_err(format_args!(
            "coverage gate failed: {coverage:.1}% is below --min-coverage {min_coverage}%"
        ));
    }
}

/// `--check-trace`: the CI leg that proves a `--profile` run produced a
/// loadable Chrome trace. Validates the JSON parses and every event is
/// well-formed (metadata `M` events name things; complete `X` events carry
/// `name`/`ts`/`dur`), then prints a one-line summary.
fn validate_trace(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| exit_err(format_args!("reading {}: {e}", path.display())));
    let doc = Json::parse(&text)
        .unwrap_or_else(|| exit_err(format_args!("{} is not valid JSON", path.display())));
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        exit_err(format_args!("{}: no traceEvents array", path.display()));
    };
    let mut complete = 0u64;
    let mut meta = 0u64;
    let mut tids = std::collections::HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| exit_err(format_args!("event {i}: missing \"ph\"")));
        if ev.get("name").and_then(Json::as_str).is_none() {
            exit_err(format_args!("event {i}: missing \"name\""));
        }
        if let Some(tid) = ev.get("tid").and_then(Json::as_u64) {
            tids.insert(tid);
        }
        match ph {
            "X" => {
                if ev.get("ts").and_then(Json::as_f64).is_none()
                    || ev.get("dur").and_then(Json::as_f64).is_none()
                {
                    exit_err(format_args!("event {i}: X event without numeric ts/dur"));
                }
                complete += 1;
            }
            "M" => meta += 1,
            other => exit_err(format_args!("event {i}: unexpected phase type {other:?}")),
        }
    }
    if complete == 0 {
        exit_err(format_args!("{}: no complete (X) events", path.display()));
    }
    println!(
        "trace ok: {} events ({complete} spans, {meta} metadata) across {} threads",
        events.len(),
        tids.len()
    );
}
