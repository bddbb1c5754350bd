//! The stdout byte-identity contract, pinned end-to-end: a figure's
//! stdout must be one byte stream regardless of host threading
//! (`--threads`), cache state, or profiling (`--profile`), and must never
//! echo any of those knobs.
//! Run-dependent observability (timings, cache stats, profiler notes)
//! belongs on stderr or in sidecar files.
//!
//! `bfetch fig08_single` stands in for the figures here (they all share
//! one dispatch path, `Opts` + `Harness`; `tests/registry.rs` holds every
//! sweeping figure to `-j 1` == `-j 2`). The *timing* figure ext_profile
//! is deliberately exempt: wall clock is its subject matter, so its
//! stdout is inherently run-dependent.

use std::path::PathBuf;
use std::process::Command;

/// Shared args: tiny budget, no cache unless a variant opts in.
const BASE: &[&str] = &["-n", "2000", "--warmup", "500", "--small"];

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bfetch-stdout-contract-{tag}-{}", std::process::id()))
}

/// `bfetch fig08_single` with the base args.
fn fig08() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bfetch"));
    cmd.arg("fig08_single").args(BASE);
    cmd
}

/// Runs fig08_single with `extra` appended to the base args, returning
/// stdout. Panics (with stderr attached) if the binary fails.
fn fig08_stdout(extra: &[&str]) -> String {
    let out = fig08()
        .args(extra)
        .output()
        .expect("spawn fig08_single");
    assert!(
        out.status.success(),
        "fig08_single {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn stdout_is_byte_identical_across_threading_profiling_and_cache_state() {
    let profile_dir = unique_dir("profile");
    let cache_dir = unique_dir("cache");
    let _ = std::fs::remove_dir_all(&profile_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let baseline = fig08_stdout(&["--no-cache", "-j", "1"]);
    assert!(!baseline.is_empty(), "fig08_single printed nothing");

    let variants: Vec<(&str, Vec<String>)> = vec![
        ("host threads", vec!["--no-cache".into(), "-j".into(), "2".into()]),
        (
            "profiled",
            vec![
                "--no-cache".into(),
                "-j".into(),
                "1".into(),
                "--profile".into(),
                profile_dir.display().to_string(),
            ],
        ),
        (
            "cold cache",
            vec!["--cache-dir".into(), cache_dir.display().to_string(), "-j".into(), "1".into()],
        ),
        (
            "warm cache",
            vec!["--cache-dir".into(), cache_dir.display().to_string(), "-j".into(), "2".into()],
        ),
    ];
    for (what, args) in &variants {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let got = fig08_stdout(&argv);
        assert_eq!(
            got, baseline,
            "stdout diverged from the -j 1 baseline under the {what} variant"
        );
    }

    // The profiled run must have written its sidecars *next to* stdout,
    // never into it.
    for file in ["trace.json", "report.json", "report.txt"] {
        assert!(
            profile_dir.join(file).is_file(),
            "--profile did not write {file}"
        );
    }

    let _ = std::fs::remove_dir_all(&profile_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn stdout_never_echoes_threading_or_profiling_knobs() {
    let dir = unique_dir("echo");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = fig08_stdout(&[
        "--no-cache",
        "-j",
        "2",
        "--profile",
        &dir.display().to_string(),
    ]);
    // "threads" (plural) catches any echo of a thread *count* while
    // allowing prose like "single-threaded" in figure titles.
    let lowered = stdout.to_lowercase();
    for forbidden in ["--profile", "threads", "profile"] {
        assert!(
            !lowered.contains(forbidden),
            "stdout echoes {forbidden:?} (run-dependent knobs belong on stderr):\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parallel CMP engine is gone and so is its flag: the parser
/// rejects it like any other unknown flag — usage on stderr, exit 2,
/// nothing on stdout. A flag that exists but that this figure does not
/// implement gets the same treatment instead of being a silent no-op:
/// `--trace` must not exit 0 having written no trace.
#[test]
fn removed_sim_threads_flag_is_rejected_with_usage() {
    let trace = unique_dir("rejected-trace");
    let trace_arg = trace.display().to_string();
    for (args, complaint) in [
        (["--sim-threads", "4"], "unknown flag --sim-threads"),
        (["--trace", trace_arg.as_str()], "fig08_single does not implement --trace"),
    ] {
        let out = fig08()
            .arg("--no-cache")
            .args(args)
            .output()
            .expect("spawn fig08_single");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "a rejected command line printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{stderr}");
        assert!(stderr.contains("common flags:"), "usage missing from stderr:\n{stderr}");
    }
    assert!(!trace.exists(), "a rejected --trace still wrote {trace_arg}");

    // `simulate --predictor` went with the perceptron (even the value that
    // used to be the default is an undeclared flag now) and `--forwarding`
    // with the store-to-load forwarding model
    for (args, flag, usage_line) in [
        (&["--predictor", "tournament"][..], "--predictor", "predictor KIND"),
        (&["--forwarding"][..], "--forwarding", "  --forwarding"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bfetch"))
            .arg("simulate")
            .args(args)
            .output()
            .expect("spawn simulate");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "a rejected command line printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(!stderr.contains(usage_line), "usage still offers it:\n{stderr}");
    }
}
