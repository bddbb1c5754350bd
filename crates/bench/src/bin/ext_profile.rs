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
//! This is a *timing* binary: its stdout reports wall clock and is exempt
//! from the byte-identity contract (see `tests/stdout_contract.rs`).
//!
//! ```text
//! --quick              reduced instruction budget (CI smoke run)
//! --out PATH           phase-report JSON (default target/PROF_phase_report.json)
//! --min-coverage PCT   fail if the run's coverage is below PCT (default 0)
//! --check-trace FILE   validate a Chrome trace-event JSON file and exit
//! ```

use bfetch_bench::harness::jsonio::Json;
use bfetch_prof::PHASE_NAMES;
use bfetch_sim::{PrefetcherKind, SimConfig, SimSession};
use bfetch_stats::Table;
use bfetch_workloads::{kernels, Scale};
use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_path = PathBuf::from("target/PROF_phase_report.json");
    let mut min_coverage = 0.0f64;
    let mut check_trace: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(v) => out_path = PathBuf::from(v),
                None => die("--out requires a value"),
            },
            "--min-coverage" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => min_coverage = v,
                None => die("--min-coverage requires a number"),
            },
            "--check-trace" => match args.next() {
                Some(v) => check_trace = Some(PathBuf::from(v)),
                None => die("--check-trace requires a path"),
            },
            "--help" | "-h" => {
                println!(
                    "measured per-phase cost breakdown (replaces the DESIGN.md §13 estimates)\n\
                     \x20 --quick              reduced instruction budget (CI smoke run)\n\
                     \x20 --out PATH           phase-report JSON (target/PROF_phase_report.json)\n\
                     \x20 --min-coverage PCT   fail if the run covers less than PCT of sim.run\n\
                     \x20 --check-trace FILE   validate a Chrome trace-event JSON file and exit"
                );
                return;
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    if let Some(path) = check_trace {
        validate_trace(&path);
        return;
    }
    if !bfetch_prof::capture_compiled() {
        die("built without the `prof` feature; rebuild bfetch-bench with default features");
    }

    let (insts, warmup) = if quick { (15_000, 8_000) } else { (120_000u64, 60_000u64) };
    let scale = if quick { Scale::Small } else { Scale::Full };
    let members: Vec<_> = kernels().iter().take(8).collect();
    let programs: Vec<_> = members.iter().map(|k| k.build(scale)).collect();

    println!(
        "== Extension: measured phase breakdown (mix8, {} insts/core{}) ==",
        insts,
        if quick { ", --quick" } else { "" }
    );
    let cfg = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(warmup);
    bfetch_prof::enable();
    SimSession::new(cfg)
        .instructions(insts)
        .run(&programs)
        .unwrap_or_else(|e| die(&e.to_string()));
    let profile = bfetch_prof::drain().unwrap_or_else(|| die("profiler captured nothing"));
    let report = profile.report();

    let run_ns = report.phase_total_ns("sim.run");
    if run_ns == 0 {
        die("no sim.run span recorded");
    }
    let covered: u64 = ["sim.drain_chip", "sim.step", "sim.bookkeep"]
        .iter()
        .map(|n| report.phase_total_ns(n))
        .sum();
    let coverage = covered as f64 / run_ns as f64 * 100.0;

    let mut t = Table::new(vec![
        "phase".into(),
        "count".into(),
        "total".into(),
        "mean".into(),
        "p50".into(),
        "p99".into(),
        "% of run".into(),
    ]);
    for name in PHASE_NAMES {
        let Some(p) = report.phase(name) else { continue };
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
        ("quick".into(), Json::Bool(quick)),
        ("instructions".into(), Json::u64_of(insts)),
        ("warmup".into(), Json::u64_of(warmup)),
        ("wall_ns".into(), Json::u64_of(run_ns)),
        (
            "coverage_pct".into(),
            Json::f64_of((coverage * 10.0).round() / 10.0),
        ),
        ("phases".into(), Json::Obj(phases_json)),
    ]);
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, doc.to_string()) {
        eprintln!("error: writing {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());

    if coverage < min_coverage {
        eprintln!(
            "error: coverage gate failed: {coverage:.1}% is below --min-coverage {min_coverage}%"
        );
        std::process::exit(1);
    }
}

/// `--check-trace`: the CI leg that proves a `--profile` run produced a
/// loadable Chrome trace. Validates the JSON parses and every event is
/// well-formed (metadata `M` events name things; complete `X` events carry
/// `name`/`ts`/`dur`), then prints a one-line summary.
fn validate_trace(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("reading {}: {e}", path.display())));
    let doc = Json::parse(&text)
        .unwrap_or_else(|| die(&format!("{} is not valid JSON", path.display())));
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        die(&format!("{}: no traceEvents array", path.display()));
    };
    let mut complete = 0u64;
    let mut meta = 0u64;
    let mut tids = std::collections::HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| die(&format!("event {i}: missing \"ph\"")));
        if ev.get("name").and_then(Json::as_str).is_none() {
            die(&format!("event {i}: missing \"name\""));
        }
        if let Some(tid) = ev.get("tid").and_then(Json::as_u64) {
            tids.insert(tid);
        }
        match ph {
            "X" => {
                if ev.get("ts").and_then(Json::as_f64).is_none()
                    || ev.get("dur").and_then(Json::as_f64).is_none()
                {
                    die(&format!("event {i}: X event without numeric ts/dur"));
                }
                complete += 1;
            }
            "M" => meta += 1,
            other => die(&format!("event {i}: unexpected phase type {other:?}")),
        }
    }
    if complete == 0 {
        die(&format!("{}: no complete (X) events", path.display()));
    }
    println!(
        "trace ok: {} events ({complete} spans, {meta} metadata) across {} threads",
        events.len(),
        tids.len()
    );
}
