//! Profiler observability tests: capture must be a pure observer (golden
//! registry counters identical whether the profiler is enabled or not), and the exported artifacts must be well-formed —
//! the Chrome trace parses as trace-event JSON and the report JSON
//! round-trips through the self-contained parser.
//!
//! The profiler is process-global state, so the capturing tests serialize
//! on a mutex.

use bfetch_bench::harness::jsonio::Json;
use bfetch_sim::{PrefetcherKind, SimConfig, SimSession};
use bfetch_workloads::{kernel_by_name, kernels, Scale};
use std::path::PathBuf;
use std::sync::Mutex;

/// Matches the golden.rs scenario budget so fixtures compare directly.
const INSTRUCTIONS: u64 = 20_000;
const WARMUP: u64 = 5_000;

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry_render(kind: PrefetcherKind) -> String {
    let k = kernel_by_name("mcf").expect("kernel registered");
    let cfg = SimConfig::baseline().with_prefetcher(kind).with_warmup(WARMUP);
    let reg = SimSession::new(cfg)
        .instructions(INSTRUCTIONS)
        .run_one(&k.build(Scale::Small))
        .unwrap_or_else(|e| panic!("{e}"))
        .into_single()
        .registry();
    let mut out = String::new();
    for (name, value) in reg.iter() {
        out.push_str(&format!("{name} {value}\n"));
    }
    out
}

fn fixture(stem: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.txt"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()))
}

/// The disabled state — every figure run without `--profile` — must
/// reproduce the committed golden counters exactly.
#[test]
fn disabled_profiler_matches_golden_fixture() {
    let _g = lock();
    bfetch_prof::disable();
    assert_eq!(
        registry_render(PrefetcherKind::BFetch),
        fixture("mcf_bfetch"),
        "a disabled profiler changed simulation outcomes"
    );
}

/// Capture *enabled* must be an observer too: the registry counters stay
/// byte-identical to the fixture while spans are being recorded.
#[test]
fn enabled_profiler_is_an_observer() {
    let _g = lock();
    bfetch_prof::enable();
    let got = registry_render(PrefetcherKind::BFetch);
    let profile = bfetch_prof::drain().expect("capture enabled, spans recorded");
    assert_eq!(
        got,
        fixture("mcf_bfetch"),
        "enabling the profiler changed simulation outcomes"
    );
    let report = profile.report();
    assert!(
        report.phase("sim.run").is_some_and(|p| p.count == 1),
        "one run span expected"
    );
}

/// A profiled CMP run exports a parseable Chrome trace: top-level
/// trace-event envelope, thread-name metadata, and complete (`X`) events
/// with microsecond timestamps for the coarse spans.
#[test]
fn chrome_trace_is_well_formed() {
    let _g = lock();
    let members: Vec<_> = kernels().iter().take(2).collect();
    let programs: Vec<_> = members.iter().map(|k| k.build(Scale::Small)).collect();
    let cfg = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(1_000);
    bfetch_prof::enable();
    SimSession::new(cfg)
        .instructions(5_000)
        .run(&programs)
        .unwrap_or_else(|e| panic!("{e}"));
    let profile = bfetch_prof::drain().expect("capture enabled");
    let trace = profile.chrome_trace();

    let doc = Json::parse(&trace).expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    let mut names = std::collections::HashSet::new();
    let mut complete = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event has ph");
        match ph {
            "M" => {
                // metadata: process_name / thread_name declarations
                assert!(ev.get("args").is_some(), "metadata event without args");
            }
            "X" => {
                assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "X without ts");
                assert!(ev.get("dur").and_then(Json::as_f64).is_some(), "X without dur");
                names.insert(ev.get("name").and_then(Json::as_str).unwrap().to_string());
                complete += 1;
            }
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert!(complete >= 1, "no complete events in the trace");
    assert!(
        names.contains("sim.run"),
        "sim.run span missing from trace (got {names:?})"
    );
}

/// The aggregate report round-trips through the JSON parser and stays
/// internally consistent (sub-phases nest inside the stepping phase).
#[test]
fn report_json_round_trips() {
    let _g = lock();
    bfetch_prof::enable();
    let _ = registry_render(PrefetcherKind::BFetch);
    let report = bfetch_prof::drain().expect("capture enabled").report();
    let doc = Json::parse(&report.to_json()).expect("report JSON parses");
    let Some(Json::Arr(phases)) = doc.get("phases") else {
        panic!("no phases array");
    };
    let find = |name: &str| {
        phases
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
    };
    let run = find("sim.run").expect("sim.run in report");
    assert_eq!(run.get("count").and_then(Json::as_u64), Some(1));
    let run_total = run.get("total_ns").and_then(Json::as_u64).unwrap();
    let step_total = find("sim.step")
        .and_then(|p| p.get("total_ns"))
        .and_then(Json::as_u64)
        .expect("sim.step in report");
    assert!(
        step_total <= run_total,
        "stepping ({step_total} ns) cannot exceed the run ({run_total} ns)"
    );
    // The per-cycle sub-phases nest inside sim.step.
    for sub in ["sim.fetch", "sim.pending_mem", "sim.commit"] {
        let t = find(sub)
            .and_then(|p| p.get("total_ns"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{sub} missing from report"));
        assert!(t <= run_total, "{sub} exceeds the whole run");
    }
    // Threads section names the caller.
    let Some(Json::Arr(threads)) = doc.get("threads") else {
        panic!("no threads array");
    };
    assert!(
        threads
            .iter()
            .any(|t| t.get("name").and_then(Json::as_str) == Some("main")),
        "main thread missing from report"
    );
}

/// Without `enable()`, `drain()` yields nothing — the runtime-off state
/// records zero data.
#[test]
fn drain_without_enable_is_empty() {
    let _g = lock();
    bfetch_prof::disable();
    let _ = registry_render(PrefetcherKind::None);
    assert!(bfetch_prof::drain().is_none());
}
