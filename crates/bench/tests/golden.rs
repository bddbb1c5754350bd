//! Golden-determinism fixtures: a few kernels are simulated at a pinned
//! scale/instruction budget and every counter of `RunResult::registry()`
//! must match the committed snapshot exactly. This pins cycle-level
//! behaviour of the hot-path data structures (MSHR probe table, packed-rank
//! LRU, scratch-buffer drains) — any rewrite that changes a single victim
//! choice or fill ordering shows up as a counter diff here.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! BFETCH_BLESS=1 cargo test -p bfetch-bench --test golden
//! ```
//!
//! then review the fixture diff like any other behavioural change.

use bfetch_isa::Program;
use bfetch_sim::{PrefetcherKind, RunOutput, SimConfig, SimSession};

fn run_single(p: &Program, cfg: &SimConfig, insts: u64) -> bfetch_sim::RunResult {
    SimSession::new(cfg.clone())
        .instructions(insts)
        .run_one(p)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_single()
}

fn run_single_cpi(p: &Program, cfg: &SimConfig, insts: u64) -> RunOutput {
    SimSession::new(cfg.clone())
        .cpi(true)
        .instructions(insts)
        .run_one(p)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn run_single_traced(p: &Program, cfg: &SimConfig, insts: u64) -> RunOutput {
    SimSession::new(cfg.clone())
        .trace(true)
        .instructions(insts)
        .run_one(p)
        .unwrap_or_else(|e| panic!("{e}"))
}
use bfetch_stats::StatsRegistry;
use bfetch_workloads::{kernel_by_name, Scale};
use std::path::PathBuf;

const INSTRUCTIONS: u64 = 20_000;
const WARMUP: u64 = 5_000;

/// The pinned scenarios: (kernel, prefetcher, fixture stem). One
/// pointer-chasing and one streaming kernel, each under the baseline
/// (no-prefetch) and B-Fetch configurations, so both the demand path and
/// the full engine/prefetch path are covered.
const SCENARIOS: [(&str, PrefetcherKind, &str); 4] = [
    ("mcf", PrefetcherKind::None, "mcf_none"),
    ("mcf", PrefetcherKind::BFetch, "mcf_bfetch"),
    ("libquantum", PrefetcherKind::None, "libquantum_none"),
    ("libquantum", PrefetcherKind::BFetch, "libquantum_bfetch"),
];

fn fixture_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.txt"))
}

fn render(reg: &StatsRegistry) -> String {
    // BTreeMap iteration order is already sorted, so the rendering is
    // canonical: one `name value` line per counter.
    let mut out = String::new();
    for (name, value) in reg.iter() {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

fn run_scenario(kernel: &str, kind: PrefetcherKind) -> StatsRegistry {
    let k = kernel_by_name(kernel).expect("kernel registered");
    let cfg = SimConfig::baseline()
        .with_prefetcher(kind)
        .with_warmup(WARMUP);
    run_single(&k.build(Scale::Small), &cfg, INSTRUCTIONS).registry()
}

#[test]
fn registry_counters_match_committed_fixtures() {
    let bless = std::env::var_os("BFETCH_BLESS").is_some();
    let mut failures = Vec::new();
    for (kernel, kind, stem) in SCENARIOS {
        let got = render(&run_scenario(kernel, kind));
        let path = fixture_path(stem);
        if bless {
            std::fs::write(&path, &got).expect("write fixture");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with BFETCH_BLESS=1 to create it",
                path.display()
            )
        });
        if got != want {
            let diff: Vec<String> = diff_lines(&want, &got);
            failures.push(format!("{stem}:\n{}", diff.join("\n")));
        }
    }
    assert!(
        failures.is_empty(),
        "golden fixtures diverged (intentional model changes need BFETCH_BLESS=1 + fixture review):\n{}",
        failures.join("\n")
    );
}

/// Dirty-line writebacks, which every other fixture and results file
/// leaves off: lbm's stencil stores at `Scale::Small` under B-Fetch, alone
/// and on a 2-core chip beside a second copy. 300 k instructions is past
/// the point where dirty lines start falling out of the shared L3, so the
/// L1D → L2 → L3 → DRAM writeback cascade runs, and a change that moves a
/// dirty bit shows up here. The 2-core fixture renders each core's
/// registry under a `# core N` line.
const WB_SCENARIOS: [(usize, &str); 2] = [(1, "lbm_bfetch_wb"), (2, "lbm_bfetch_wb_2core")];
const WB_INSTRUCTIONS: u64 = 300_000;

#[test]
fn writeback_registry_counters_match_committed_fixtures() {
    let bless = std::env::var_os("BFETCH_BLESS").is_some();
    let lbm = kernel_by_name("lbm")
        .expect("kernel registered")
        .build(Scale::Small);
    let cfg = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(WARMUP)
        .with_writebacks(true);
    let mut failures = Vec::new();
    for (cores, stem) in WB_SCENARIOS {
        let run = SimSession::new(cfg.clone())
            .instructions(WB_INSTRUCTIONS)
            .run(&vec![lbm.clone(); cores])
            .unwrap_or_else(|e| panic!("{e}"));
        let mut got = String::new();
        for (i, r) in run.results.iter().enumerate() {
            let reg = r.registry();
            assert!(
                reg.get("mem.writebacks") > 0,
                "{stem} core {i}: no writebacks"
            );
            if cores > 1 {
                got.push_str(&format!("# core {i}\n"));
            }
            got.push_str(&render(&reg));
        }
        let path = fixture_path(stem);
        if bless {
            std::fs::write(&path, &got).expect("write fixture");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with BFETCH_BLESS=1 to create it",
                path.display()
            )
        });
        if got != want {
            failures.push(format!("{stem}:\n{}", diff_lines(&want, &got).join("\n")));
        }
    }
    assert!(
        failures.is_empty(),
        "writeback fixtures diverged (intentional model changes need BFETCH_BLESS=1 + fixture review):\n{}",
        failures.join("\n")
    );
}

/// CPI accounting pinned the same way: the accounted registry (which
/// additionally carries the `cpi.*` keys) is snapshot for one pointer-chase
/// and one streaming scenario. `BFETCH_BLESS=1` regenerates these too.
#[test]
fn cpi_registry_counters_match_committed_fixtures() {
    let bless = std::env::var_os("BFETCH_BLESS").is_some();
    let mut failures = Vec::new();
    for (kernel, kind, stem) in [
        ("mcf", PrefetcherKind::None, "mcf_none_cpi"),
        ("mcf", PrefetcherKind::BFetch, "mcf_bfetch_cpi"),
    ] {
        let k = kernel_by_name(kernel).expect("kernel registered");
        let cfg = SimConfig::baseline()
            .with_prefetcher(kind)
            .with_warmup(WARMUP);
        let run = run_single_cpi(&k.build(Scale::Small), &cfg, INSTRUCTIONS);
        let got = render(&run.results[0].registry());
        let path = fixture_path(stem);
        if bless {
            std::fs::write(&path, &got).expect("write fixture");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with BFETCH_BLESS=1 to create it",
                path.display()
            )
        });
        if got != want {
            let diff: Vec<String> = diff_lines(&want, &got);
            failures.push(format!("{stem}:\n{}", diff.join("\n")));
        }
    }
    assert!(
        failures.is_empty(),
        "CPI golden fixtures diverged (intentional model changes need BFETCH_BLESS=1 + fixture review):\n{}",
        failures.join("\n")
    );
}

/// Accounting must be an observer twice over: an accounted run's registry
/// minus the `cpi.*` keys equals the plain fixture byte-for-byte, and the
/// stack satisfies the one-cause-per-slot invariant on every scenario.
#[test]
fn cpi_run_matches_plain_fixture_and_holds_invariant() {
    if std::env::var_os("BFETCH_BLESS").is_some() {
        return; // the fixture-owning tests regenerate; here we only compare
    }
    for (kernel, kind, stem) in SCENARIOS {
        let k = kernel_by_name(kernel).expect("kernel registered");
        let cfg = SimConfig::baseline()
            .with_prefetcher(kind)
            .with_warmup(WARMUP);
        let run = run_single_cpi(&k.build(Scale::Small), &cfg, INSTRUCTIONS);
        let r = &run.results[0];

        let stack = r.cpi.expect("CPI run carries a stack");
        assert!(
            stack.holds_invariant(),
            "slot invariant violated for {stem}"
        );
        assert_eq!(
            stack.cycles, r.cycles,
            "stack window != run window ({stem})"
        );
        assert_eq!(
            stack.committed_slots, r.instructions,
            "committed slots != instructions ({stem})"
        );

        let mut reg = r.registry();
        let cpi_keys: Vec<String> = reg
            .iter()
            .map(|(name, _)| name.to_string())
            .filter(|name| name.starts_with("cpi."))
            .collect();
        assert!(!cpi_keys.is_empty(), "accounted registry lacks cpi.* keys");
        for key in cpi_keys {
            reg.remove(&key);
        }
        let want = std::fs::read_to_string(fixture_path(stem)).expect("fixture exists");
        assert_eq!(
            render(&reg),
            want,
            "CPI accounting changed simulation outcomes for {stem}"
        );
    }
}

/// Tracing must be an observer: a traced run's registry equals the
/// untraced fixture byte-for-byte.
#[test]
fn traced_run_matches_untraced_fixture() {
    let (kernel, kind, stem) = SCENARIOS[1]; // mcf + bfetch: full engine path
    let k = kernel_by_name(kernel).expect("kernel registered");
    let cfg = SimConfig::baseline()
        .with_prefetcher(kind)
        .with_warmup(WARMUP)
        .with_trace(bfetch_sim::TraceConfig::on());
    let traced = run_single_traced(&k.build(Scale::Small), &cfg, INSTRUCTIONS);
    let got = render(&traced.results[0].registry());
    if std::env::var_os("BFETCH_BLESS").is_some() {
        // the untraced test owns the fixture; here we only compare
        return;
    }
    let want = std::fs::read_to_string(fixture_path(stem)).expect("fixture exists");
    assert_eq!(got, want, "tracing changed simulation outcomes for {stem}");
}

fn diff_lines(want: &str, got: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut want_it = want.lines();
    let mut got_it = got.lines();
    loop {
        match (want_it.next(), got_it.next()) {
            (None, None) => break,
            (w, g) => {
                if w != g {
                    out.push(format!(
                        "  fixture: {}  |  run: {}",
                        w.unwrap_or("<eof>"),
                        g.unwrap_or("<eof>")
                    ));
                }
            }
        }
    }
    out
}
