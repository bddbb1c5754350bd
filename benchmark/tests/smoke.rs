//! Drives the built driver in `--quick` mode (small scale, tiny budgets,
//! one repetition): every workload, timed and traced, through `suite`,
//! then `compare`, which must refuse the smoke documents.

use bfetch_bench::harness::jsonio::Json;
use bfetch_benchmark::metrics::{END_TO_END, PER_LAYER};
use bfetch_benchmark::workload::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn driver(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfetch-benchmark"))
        .args(args)
        .output()
        .expect("driver runs")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("some output");
    Json::parse(line).unwrap_or_else(|| panic!("last line is not JSON: {line}"))
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|| panic!("{}: not JSON", path.display()))
}

#[test]
fn quick_suite_reports_every_metric_and_compare_refuses_it() {
    let dir = out_dir("suite");
    let d = dir.to_str().unwrap();
    let out = driver(&["suite", "--quick", "--seed", "2", "--out", d]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let results = read(&dir.join("results.json"));
    let Some(Json::Arr(runs)) = results.get("runs") else {
        panic!("no runs")
    };
    assert_eq!(runs.len(), 2 * NAMES.len());
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(
            run.get("workload").and_then(Json::as_str),
            Some(NAMES[i / 2])
        );
        assert_eq!(run.get("quick"), Some(&Json::Bool(true)));
        assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0), "{run}");
        let traced = run.get("traced") == Some(&Json::Bool(true));
        assert_eq!(traced, i % 2 == 1);
        if traced {
            let layers = run.get("per_layer").unwrap();
            for m in PER_LAYER {
                // the single-point chip has no -j 2 figure
                let absent_by_design =
                    m.name == "bench.j2_speedup" && NAMES[i / 2] == "chip8_bfetch";
                assert_eq!(
                    layers.get(m.name).is_some(),
                    !absent_by_design,
                    "{} on {}",
                    m.name,
                    NAMES[i / 2]
                );
            }
            let engine = layers.get("sim.engine_ns").and_then(Json::as_f64).unwrap();
            assert_eq!(
                engine == 0.0,
                NAMES[i / 2] == "solo_mem_nopf",
                "sim.engine_ns {engine}"
            );
        } else {
            for m in END_TO_END {
                let median = run
                    .get("end_to_end")
                    .unwrap()
                    .get(m.name)
                    .unwrap()
                    .get("median");
                assert!(median.and_then(Json::as_f64).unwrap() > 0.0, "{}", m.name);
            }
        }
    }
    // only the sweep can form the paper's geomeans
    let paper_err = |run: &Json| {
        run.get("simulated")
            .unwrap()
            .get("paper_err")
            .and_then(Json::as_f64)
    };
    assert!(paper_err(&runs[0]).is_none());
    assert!(paper_err(&runs[8]).unwrap() > 0.0);

    let trace = read(&dir.join("trace.json"));
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents")
    };
    let named = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    assert!(named("sim.SimSession::run") && named("bench.Harness::run") && named("sim.run"));
    assert!(!dir.join("tmp").exists(), "temporary caches are removed");

    let file = dir.join("results.json");
    let refused = driver(&["compare", file.to_str().unwrap(), file.to_str().unwrap()]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--quick"));
}

#[test]
fn one_run_ends_with_the_contract_line_and_repeats_exactly() {
    let dir = out_dir("single");
    let d = dir.to_str().unwrap();
    let args = [
        "--workload",
        "solo_mem_bfetch",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
        "--out",
        d,
    ];
    let first = driver(&args);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let line = last_line(&first);
    let Json::Obj(fields) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());

    // the same seed simulates the same thing, bit for bit
    let digest = |dir: &Path| {
        let doc = read(&dir.join("solo_mem_bfetch.json"));
        doc.get("simulated")
            .unwrap()
            .get("stats_digest")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    let before = digest(&dir);
    assert!(driver(&args).status.success());
    assert_eq!(digest(&dir), before);

    let traced = driver(&[
        "--workload",
        "solo_mem_bfetch",
        "--seed",
        "5",
        "--trace",
        "1",
        "--quick",
        "--out",
        d,
    ]);
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    let Some(Json::Obj(metrics)) = last_line(&traced).get("metrics").cloned() else {
        panic!("no metrics")
    };
    assert_eq!(metrics.len(), PER_LAYER.len());
}

#[test]
fn bad_command_lines_are_usage_errors() {
    for args in [
        &["--workload", "nosuch"][..],
        &["--workload", "chip8_bfetch", "--trace", "2"],
        &["--workload", "chip8_bfetch", "--bogus", "1"],
        &["--seed", "1"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = driver(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty() || args.is_empty(),
            "{args:?} printed a result"
        );
    }
    assert_eq!(driver(&["--help"]).status.code(), Some(0));
}
