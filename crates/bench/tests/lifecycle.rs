//! Integration tests for the observability layer's JSONL export: the
//! `bfetch ext_lifecycle` figure's `--trace` output must validate line-by-line
//! against the schema documented in DESIGN.md ("Observability"), and the
//! in-process event stream must serialise to parseable JSON.

use bfetch_bench::harness::jsonio::Json;
use bfetch_sim::{PrefetcherKind, SimConfig, SimSession};
use bfetch_workloads::{kernel_by_name, Scale};

/// Every event name the schema defines, with the payload keys each
/// requires beyond the common `event` / `cycle` / `core` triple.
fn required_payload(event: &str) -> Option<&'static [&'static str]> {
    Some(match event {
        "branch_predicted" => &["pc", "taken", "confidence"],
        "branch_resolved" => &["pc", "taken", "mispredicted"],
        "prefetch_issued" | "prefetch_filled" | "prefetch_evicted_unused" => {
            &["line", "pc_hash"]
        }
        "prefetch_dropped" => &["line", "pc_hash", "reason"],
        "prefetch_mshr_merged" => &["line", "pc_hash", "remaining_cycles"],
        "prefetch_first_use" => &["line", "pc_hash", "lead_cycles"],
        "demand_miss" => &["line", "level"],
        _ => return None,
    })
}

fn assert_line_matches_schema(line: &str) {
    let j = Json::parse(line).unwrap_or_else(|| panic!("unparseable JSONL line: {line}"));
    let event = j
        .get("event")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("line without event name: {line}"));
    if event == "run_begin" {
        assert!(j.get("kernel").is_some(), "run_begin without kernel: {line}");
        assert!(
            j.get("prefetcher").is_some(),
            "run_begin without prefetcher: {line}"
        );
        return;
    }
    let payload =
        required_payload(event).unwrap_or_else(|| panic!("unknown event {event:?}: {line}"));
    assert!(j.get("cycle").and_then(Json::as_u64).is_some(), "{line}");
    assert!(j.get("core").and_then(Json::as_u64).is_some(), "{line}");
    for key in payload {
        assert!(
            j.get(key).is_some(),
            "event {event:?} missing {key:?}: {line}"
        );
    }
}

#[test]
fn in_process_event_stream_serialises_to_schema_valid_json() {
    let kernel = kernel_by_name("mcf").unwrap();
    let cfg = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(1_000);
    let out = SimSession::new(cfg)
        .trace(true)
        .instructions(3_000)
        .run_one(&kernel.build(Scale::Small))
        .unwrap_or_else(|e| panic!("{e}"));
    let traced = out.trace.expect("tracing was toggled on");
    assert!(!traced.events.is_empty(), "traced run recorded no events");
    let mut names = std::collections::BTreeSet::new();
    for e in &traced.events {
        assert_line_matches_schema(&e.to_json_line());
        names.insert(e.kind.name());
    }
    // A real run exercises the core of the schema, not just one variant.
    for expected in ["branch_predicted", "prefetch_issued", "demand_miss"] {
        assert!(names.contains(expected), "no {expected} event recorded");
    }
}

#[test]
fn ext_lifecycle_trace_export_validates_line_by_line() {
    let trace = std::env::temp_dir().join(format!(
        "bfetch-lifecycle-it-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bfetch"))
        .args([
            "ext_lifecycle",
            "--small",
            "--instructions",
            "3000",
            "--warmup",
            "1000",
            "--kernels",
            "mcf",
            "--json",
            "--trace",
        ])
        .arg(&trace)
        .output()
        .expect("ext_lifecycle runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // stdout is the usual --json report, independent of the trace export
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = Json::parse(stdout.trim()).expect("--json output parses");
    assert!(report.get("headers").is_some() && report.get("rows").is_some());

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1, "trace holds a delimiter plus events");
    assert!(
        lines[0].contains("\"event\":\"run_begin\"") && lines[0].contains("\"kernel\":\"mcf\""),
        "first line is the run delimiter: {}",
        lines[0]
    );
    for line in &lines {
        assert_line_matches_schema(line);
    }
    let _ = std::fs::remove_file(&trace);
}
