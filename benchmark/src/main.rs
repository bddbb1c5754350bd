//! The benchmark driver's command line.

use bfetch_benchmark::run::Options;
use bfetch_benchmark::{compare, metrics, run, suite, workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  bfetch-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
      run one workload; the last line of stdout is the result as one JSON object
  bfetch-benchmark suite [--seed N] [--seconds S] [--out DIR] [--quick]
      every workload timed, then traced, each in a fresh process;
      writes DIR/results.json and DIR/trace.json
  bfetch-benchmark compare BASE.json... -- NEW.json...
      (or exactly two files) one row per workload x end-to-end metric;
      exits 1 on a regression beyond a bound or any simulated difference
  bfetch-benchmark describe
      print BENCHMARK.json from the metric tables

  --seed N      workload seed (default 1): permutes kernel, core and point order
  --seconds S   how long the timed repetitions go on (default 15)
  --trace 1     the traced run: per-layer metrics, one repetition
  --out DIR     result documents, traces and temporary caches (default benchmark/out)
  --quick       smoke mode (small scale, tiny budgets); refused by compare
workloads: solo_mem_nopf solo_mem_bfetch solo_compute_bfetch chip8_bfetch sweep_fig08";

/// Seconds a timed run measures for when `--seconds` is not given; equals
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 15;

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn finish(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    pin_malloc_policy();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            return if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        Some("describe") => {
            print!("{}", metrics::benchmark_json(DEFAULT_SECONDS));
            return ExitCode::SUCCESS;
        }
        Some("compare") => return run_compare(&args[1..]),
        _ => {}
    }
    let is_suite = args[0] == "suite";
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS as f64,
        traced: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args[usize::from(is_suite)..].iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage_error(&format!("{flag} requires a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" if !is_suite => {
                opts.workload = value.clone();
                workload::NAMES.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| opts.seconds = v)
                .is_ok_and(|()| opts.seconds.is_finite() && opts.seconds >= 0.0),
            "--trace" if !is_suite => match value.as_str() {
                "0" | "1" => {
                    opts.traced = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                opts.out = PathBuf::from(value);
                true
            }
            _ => return usage_error(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage_error(&format!("invalid value {value:?} for {flag}"));
        }
    }
    if is_suite {
        let mut pass = vec![
            "--seed".to_string(),
            opts.seed.to_string(),
            "--seconds".to_string(),
            opts.seconds.to_string(),
            "--out".to_string(),
            opts.out.display().to_string(),
        ];
        if opts.quick {
            pass.push("--quick".to_string());
        }
        return finish(suite::suite(&opts.out, &pass));
    }
    if opts.workload.is_empty() {
        return usage_error("--workload is required");
    }
    finish(run::run(&opts))
}

fn run_compare(args: &[String]) -> ExitCode {
    let (base, new) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => return usage_error("compare takes two files, or two sets separated by --"),
    };
    if base.is_empty() || new.is_empty() {
        return usage_error("compare needs at least one file on each side");
    }
    let load_all = |paths: &[String]| {
        let mut docs = Vec::new();
        for p in paths {
            docs.extend(compare::load(p)?);
        }
        Ok::<_, String>(docs)
    };
    let outcome = load_all(base).and_then(|b| Ok((b, load_all(new)?)));
    match outcome.and_then(|(b, n)| compare::compare(&b, &n)) {
        Ok((report, bad)) => {
            print!("{report}");
            ExitCode::from(u8::from(bad))
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Pins two glibc malloc tunables so that memory use and page placement
/// repeat (README, "Method").
///
/// The mmap threshold stays at its initial 128 KiB. Left alone it adapts to
/// the sizes freed so far, so whether a program image or a cache array
/// lives on the heap or in a mapping of its own — and with it peak RSS and
/// which physical pages a repetition reuses — depends on the order of
/// earlier allocations, i.e. on the seed and on chance. Pinned, every large
/// allocation is a fresh mapping that is returned when freed.
///
/// One arena: each `Harness::run` spawns a worker thread, and whether that
/// thread inherits an earlier worker's arena or gets a new one is a race
/// that moved peak RSS of one seed between 112 and 124 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_policy() {
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only adjusts allocator tunables; it is called before
    // any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_policy() {}
