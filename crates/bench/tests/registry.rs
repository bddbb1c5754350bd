//! The figure registry, pinned at the process level: what `bfetch list`
//! and a bad name print, that the registry and the committed
//! `results/*.txt` name the same figures, and that every deterministic
//! entry runs at a tiny budget — exit 0, `--json` that parses, and stdout
//! that does not depend on `-j`.
//!
//! The args for each entry are derived from its registry declaration
//! (`--kernels`/`--programs` subsets and `--quick` where it implements
//! them), so a new entry is covered without touching this file.

use bfetch_bench::harness::jsonio::Json;
use bfetch_bench::registry::{figures, Figure};
use std::collections::BTreeSet;
use std::process::{Command, Output};

/// Entries with no committed `results/<name>.txt`: tools, diagnostics
/// and the exports whose interest is the sidecar file, not the table.
const UTILITIES: [&str; 6] =
    ["asmcheck", "ext_cpistack", "ext_lifecycle", "ext_profile", "probe", "simulate"];

/// The multi-core entries are most of the suite's run time, and the
/// 64-core one most of that: each group gets a test (and with it a
/// thread) of its own.
const MIXES: [&str; 4] = ["fig09_mix2", "fig10_mix4", "ext_mix8", "fig16_cmp"];
const SCALE_OUT: &str = "fig17_scale";

fn bfetch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfetch")).args(args).output().expect("spawn bfetch")
}

#[test]
fn registry_names_are_the_committed_results_plus_the_utilities() {
    let names: BTreeSet<String> = figures().iter().map(|f| f.name.to_string()).collect();
    assert_eq!(names.len(), figures().len(), "duplicate registry name");
    assert_eq!(names.len(), 25, "the 19 committed results and the 6 utilities");

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut expected: BTreeSet<String> = UTILITIES.iter().map(|u| u.to_string()).collect();
    for entry in std::fs::read_dir(&results).expect("results/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "txt") {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            assert!(names.contains(&stem), "{} has no registry entry", path.display());
            assert!(expected.insert(stem), "{} is listed as a utility", path.display());
        }
    }
    assert_eq!(names, expected);
}

#[test]
fn list_prints_one_name_and_about_line_per_entry() {
    let out = bfetch(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), figures().len());
    for (line, f) in lines.iter().zip(figures()) {
        let (name, about) = line.split_once("  ").expect("two-space separator");
        assert_eq!((name, about.trim_start()), (f.name, f.about));
    }
}

#[test]
fn no_name_or_an_unknown_name_prints_the_registry_and_exits_2() {
    // the last three were entries until the extension audit removed them
    let gone = ["ext_perceptron", "ext_iprefetch", "ext_energy"];
    assert!(figures().iter().all(|f| !gone.contains(&f.name)));
    let unknown = gone.iter().map(std::slice::from_ref);
    for args in [&[][..], &["nosuch"], &["nosuch", "--help"]].into_iter().chain(unknown) {
        let out = bfetch(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for f in figures() {
            assert!(stderr.contains(f.name), "{} missing from:\n{stderr}", f.name);
        }
    }
}

#[test]
fn help_names_the_figures_own_flags_on_stdout() {
    let out = bfetch(&["ext_profile", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in ["--min-coverage PCT", "--quick", "common flags:", "--no-cache"] {
        assert!(stdout.contains(flag), "{flag} missing from:\n{stdout}");
    }
    assert!(!stdout.contains("--kernels"), "ext_profile does not sweep kernels:\n{stdout}");
}

/// Runs `f` at a tiny budget three ways and holds it to the contract.
fn runs_deterministically(f: &Figure) {
    let mut base = vec![f.name, "-n", "60", "--warmup", "20", "--small", "--no-cache"];
    if f.flag("--kernels").is_some() {
        base.extend(["--kernels", "mcf,libquantum"]);
    }
    if f.flag("--programs").is_some() {
        base.extend(["--programs", "sieve,blur"]);
    }
    if f.quick.is_some() {
        base.push("--quick");
    }
    let run = |extra: &[&str]| {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = bfetch(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} failed:\n{stderr}");
        String::from_utf8(out.stdout).expect("stdout is UTF-8")
    };
    let serial = run(&["-j", "1"]);
    assert!(!serial.is_empty(), "{} printed nothing", f.name);
    assert_eq!(serial, run(&["-j", "2"]), "{}: stdout depends on -j", f.name);
    let json = run(&["-j", "2", "--json"]);
    assert!(Json::parse(json.trim()).is_some(), "{} --json does not parse:\n{json}", f.name);
}

/// Holds every entry `pick` selects to the contract. Never picked: the
/// timing figure (wall clock is its subject) and asmcheck (it takes
/// files, not a budget).
fn check(pick: impl Fn(&str) -> bool) {
    let checked = figures()
        .iter()
        .filter(|f| !["ext_profile", "asmcheck"].contains(&f.name) && pick(f.name))
        .map(runs_deterministically)
        .count();
    assert!(checked > 0, "the filter selected nothing");
}

#[test]
fn every_single_core_figure_runs_and_ignores_the_thread_count() {
    check(|name| !MIXES.contains(&name) && name != SCALE_OUT);
}

#[test]
fn every_mix_figure_runs_and_ignores_the_thread_count() {
    check(|name| MIXES.contains(&name));
}

#[test]
fn the_scale_out_figure_runs_and_ignores_the_thread_count() {
    check(|name| name == SCALE_OUT);
}

#[test]
fn asmcheck_reports_every_bundled_program_and_fails_on_a_bad_one() {
    let asm = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../workloads/asm");
    let mut files: Vec<String> = std::fs::read_dir(&asm)
        .expect("bundled programs exist")
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".s"))
        .collect();
    files.sort();
    let args: Vec<&str> =
        std::iter::once("asmcheck").chain(files.iter().map(String::as_str)).collect();
    let out = bfetch(&args);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), files.len());

    let bad = std::env::temp_dir().join(format!("bfetch-registry-bad-{}.s", std::process::id()));
    std::fs::write(&bad, "not an instruction\n").unwrap();
    let out = bfetch(&["asmcheck", &bad.display().to_string()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(bfetch(&["asmcheck"]).status.code(), Some(2), "no operand is a usage error");
    let _ = std::fs::remove_file(&bad);
}
