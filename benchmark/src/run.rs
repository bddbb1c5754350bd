//! One run of one workload: the timed run (end-to-end metrics, tracing
//! off) and the traced run (per-layer metrics, one repetition).
//!
//! Method, the same for every workload: closed loop, one driver thread,
//! one simulation at a time, in the driver's own fresh process. A timed
//! run sets up repeatedly (the median is `setup_s`), makes one untimed
//! pass, then repeats the workload until `--seconds` have elapsed; every
//! timing it reports is the median over those repetitions.

use crate::doc::{Measured, Ops, RunDoc, SimTotals};
use crate::layers::{self, Layers};
use crate::spans::{self, Recorder};
use crate::stats::{
    highest_supported_percentile, median, paper_err, percentile, Summary, PAPER_GEOMEANS,
};
use crate::workload::{kind_label, Via, Workload};
use bfetch_bench::harness::cache::ResultCache;
use bfetch_bench::{GridPoint, Harness, SweepOutcome, SweepSpec};
use bfetch_isa::Program;
use bfetch_sim::{RunResult, SimSession};
use bfetch_stats::geomean;
use bfetch_workloads::kernels;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions go on, seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: small scale, tiny budgets, one repetition.
    pub quick: bool,
    /// Where result documents, traces and temporary caches go.
    pub out: PathBuf,
}

/// Fewest and most set-up repeats behind `setup_s`, and how long the
/// repeats go on in between: a set-up of microseconds (five tiny
/// programs) needs hundreds of repeats before its median settles.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 5..=300;
const SETUP_SECONDS: f64 = 0.5;
/// Fewest timed repetitions of a `Via::Session` workload.
const MIN_REPS: usize = 3;
/// Most timed repetitions of any workload.
const MAX_REPS: usize = 99;
/// `ResultCache::load` samples the traced run aims for.
const LOAD_SAMPLES: usize = 4_500;
/// Points the traced repetition covers.
const TRACED_POINTS: usize = 12;

/// Temporary directories under `<out>/tmp/<pid>/`, removed on drop.
struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    fn new(out: &Path) -> std::io::Result<Self> {
        let root = out.join("tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: 0 })
    }

    fn dir(&mut self) -> std::io::Result<PathBuf> {
        self.next += 1;
        let d = self.root.join(self.next.to_string());
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // succeeds only once the last concurrent run has left
        if let Some(tmp) = self.root.parent() {
            let _ = std::fs::remove_dir(tmp);
        }
    }
}

/// A workload ready to run.
struct Prepared {
    workload: Workload,
    /// Each distinct program, built once, in first-use order.
    distinct: Vec<Program>,
    /// The same programs per point, core order.
    programs: Vec<Vec<Program>>,
    spec: SweepSpec,
}

/// Set-up: generate the workload, build each distinct program once,
/// validate every configuration, construct the sweep spec and a temp dir.
fn prepare(
    opts: &Options,
    scratch: &mut Scratch,
    rec: &mut Recorder,
) -> Result<(Prepared, PathBuf), String> {
    let workload = Workload::generate(&opts.workload, opts.seed, opts.quick);
    let built: Vec<(&str, Program)> = workload
        .distinct_kernels()
        .into_iter()
        .map(|k| {
            (
                k.name,
                rec.span("workloads.Kernel::build", k.name, |_| {
                    k.build(workload.scale)
                }),
            )
        })
        .collect();
    let program = |name: &str| {
        let (_, p) = built.iter().find(|(n, _)| *n == name).expect("built above");
        p.clone()
    };
    let programs = workload
        .points
        .iter()
        .map(|p| p.members.iter().map(|k| program(k.name)).collect())
        .collect();
    for p in &workload.points {
        rec.span("sim.SimConfig::validate", &p.label, |_| p.config.validate())
            .map_err(|e| format!("{}: {e}", p.label))?;
    }
    let spec = rec.span("bench.SweepSpec::push", "", |_| {
        let mut spec = SweepSpec::new();
        for p in &workload.points {
            spec.push(p.clone());
        }
        spec
    });
    let dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
    Ok((
        Prepared {
            distinct: built.into_iter().map(|(_, program)| program).collect(),
            workload,
            programs,
            spec,
        },
        dir,
    ))
}

/// One execution of every point of the workload.
struct Rep {
    wall_ns: u64,
    cpu_s: f64,
    /// Wall per point, spec order.
    point_ns: Vec<u64>,
    /// Results per point (empty for a failed point), spec order.
    results: Vec<Vec<RunResult>>,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// Runs the first `limit` points through `SimSession` with the prebuilt
/// programs.
fn session_rep(p: &Prepared, limit: usize, label: &str, rec: &mut Recorder, ops: &mut Ops) -> Rep {
    let cpu0 = cpu_seconds();
    let mut point_ns = Vec::with_capacity(limit);
    let mut results = Vec::with_capacity(limit);
    let ((), wall_ns) = rec.time("driver.repetition", label, |rec| {
        for (point, programs) in p.workload.points.iter().zip(&p.programs).take(limit) {
            let (out, ns) = rec.time("sim.SimSession::run", &point.label, |_| {
                SimSession::new(point.config.clone())
                    .instructions(point.instructions)
                    .run(programs)
            });
            point_ns.push(ns);
            ops.record(out.is_ok(), || {
                format!("simulation {}: {}", point.label, out.as_ref().unwrap_err())
            });
            results.push(out.map(|o| o.results).unwrap_or_default());
        }
    });
    Rep {
        wall_ns,
        cpu_s: cpu_seconds() - cpu0,
        point_ns,
        results,
    }
}

/// Runs `spec` through a fresh `Harness` on `threads` workers with its
/// cache in `dir`. Every point is one counted operation.
fn harness_pass(
    spec: &SweepSpec,
    dir: &Path,
    threads: usize,
    label: &str,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> (SweepOutcome, Rep) {
    let cpu0 = cpu_seconds();
    let (out, wall_ns) = rec.time("bench.Harness::run", label, |_| {
        Harness::new(threads).quiet().with_cache_dir(dir).run(spec)
    });
    let cpu_s = cpu_seconds() - cpu0;
    ops.attempted += out.outcomes.len() as u64;
    for f in &out.failures {
        ops.record(false, || format!("harness point {f}"));
    }
    let mut point_ns = vec![0; spec.len()];
    let mut results = vec![Vec::new(); spec.len()];
    for o in &out.outcomes {
        // labels are unique within a workload
        if let Some(i) = spec.points.iter().position(|p| p.label == o.label) {
            point_ns[i] = (o.millis * 1e6) as u64;
            results[i] = o.results.clone();
        }
    }
    let rep = Rep {
        wall_ns,
        cpu_s,
        point_ns,
        results,
    };
    (out, rep)
}

/// The output checks every repetition must pass: each core committed at
/// least its measured budget, and the totals equal those of the first
/// pass over the same points (`reference`).
fn check_rep(w: &Workload, rep: &Rep, reference: &[Vec<RunResult>], what: &str, ops: &mut Ops) {
    let reference = SimTotals::of(&reference[..rep.results.len()]);
    let short = rep
        .results
        .iter()
        .flatten()
        .filter(|r| r.instructions < w.budget.measured)
        .count();
    let complete = rep.results.iter().all(|r| r.len() == w.cores());
    ops.record(short == 0 && complete, || {
        format!(
            "{what}: {short} core(s) committed less than {} instructions",
            w.budget.measured
        )
    });
    let totals = SimTotals::of(&rep.results);
    ops.record(totals == reference, || {
        format!(
            "{what}: stats digest {:016x} differs from the first pass's {:016x}",
            totals.stats_digest, reference.stats_digest
        )
    });
}

/// Warm passes: every outcome must come from the cache and equal the cold
/// result field for field. Returns microseconds per point, per pass.
fn warm_passes(
    p: &Prepared,
    dir: &Path,
    cold: &[Vec<RunResult>],
    passes: usize,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> (Vec<f64>, u64, u64) {
    let n = p.spec.len();
    let mut us_per_point = Vec::with_capacity(passes);
    let (mut hits, mut retries) = (0, 0);
    for pass in 0..passes {
        let (out, rep) = harness_pass(&p.spec, dir, 1, "warm", rec, ops);
        us_per_point.push(rep.wall_ns as f64 / 1e3 / n as f64);
        let served = out.outcomes.iter().all(|o| o.from_cache) && out.stats.cache_hits == n;
        ops.record(served && out.stats.sims_run == 0, || {
            format!(
                "warm pass {pass}: {} of {n} points were cache hits",
                out.stats.cache_hits
            )
        });
        ops.record(rep.results == cold, || {
            format!("warm pass {pass}: a cached result differs from its cold result")
        });
        hits = out.stats.cache_hits as u64;
        retries += out.stats.cache_retries;
    }
    (us_per_point, hits, retries)
}

/// The single-core result of the point labelled `label`, if the workload
/// has it and it ran.
fn result_of<'a>(
    w: &Workload,
    results: &'a [Vec<RunResult>],
    label: &str,
) -> Option<&'a RunResult> {
    let i = w.points.iter().position(|p| p.label == label)?;
    results[i].first()
}

/// Geomean speedups over the 18 kernels for every prefetcher the workload
/// ran next to the no-prefetch baseline; empty unless it ran all 18.
fn geomeans(w: &Workload, results: &[Vec<RunResult>]) -> Vec<(&'static str, f64)> {
    let ipc = |label: String| result_of(w, results, &label).map(RunResult::ipc);
    crate::workload::SWEEP_KINDS[1..]
        .iter()
        .filter_map(|kind| {
            let speedups: Option<Vec<f64>> = kernels()
                .iter()
                .map(|k| {
                    Some(
                        ipc(format!("{}/{}", k.name, kind_label(*kind)))?
                            / ipc(format!("{}/none", k.name))?,
                    )
                })
                .collect();
            Some((kind_label(*kind), geomean(&speedups?)))
        })
        .collect()
}

/// A Perfect L1D prefetcher is an upper bound: per kernel, its IPC must
/// reach 0.999 of every real prefetcher's. One operation per kernel and
/// real prefetcher that ran beside Perfect.
fn check_perfect_bound(w: &Workload, results: &[Vec<RunResult>], ops: &mut Ops) {
    let find = |label: String| result_of(w, results, &label);
    for k in kernels() {
        let Some(perfect) = find(format!("{}/perfect", k.name)) else {
            continue;
        };
        for kind in ["stride", "sms", "bfetch"] {
            if let Some(real) = find(format!("{}/{kind}", k.name)) {
                ops.record(perfect.ipc() >= 0.999 * real.ipc(), || {
                    format!(
                        "{}: Perfect IPC {:.4} below {kind} IPC {:.4}",
                        k.name,
                        perfect.ipc(),
                        real.ipc()
                    )
                });
            }
        }
    }
}

/// A run of `mcf/bfetch` resumed from its last periodic checkpoint must
/// equal both the checkpointing run and the workload's own result.
fn check_resume(
    p: &Prepared,
    results: &[Vec<RunResult>],
    quick: bool,
    dir: &Path,
    rec: &mut Recorder,
    ops: &mut Ops,
) {
    let Some(i) = p
        .workload
        .points
        .iter()
        .position(|pt| pt.label == "mcf/bfetch")
    else {
        return;
    };
    let point: &GridPoint = &p.workload.points[i];
    let fresh = rec.span("sim.SimSession::run", "checkpointing", |_| {
        SimSession::new(point.config.clone())
            .instructions(point.instructions)
            .checkpoint_every(layers::checkpoint_cadence(quick), dir)
            .run(&p.programs[i])
    });
    let round_trip = fresh.and_then(|f| Ok((f.results, layers::resume_from(rec, dir)?)));
    match round_trip {
        Ok((fresh, (resumed, bytes))) => ops.record(bytes > 0 && fresh == resumed && fresh == results[i], || {
            format!("{}: run resumed from the last periodic checkpoint ({bytes} B) differs from the fresh run", point.label)
        }),
        Err(e) => ops.record(false, || format!("{}: checkpoint/resume: {e}", point.label)),
    }
}

/// The "Geomean" row of a committed `results/*.txt` table.
fn committed_geomeans(path: &str) -> Option<Vec<f64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let row = text.lines().find(|l| l.starts_with("Geomean "))?;
    row.split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect()
}

/// Prints the measured geomeans beside the committed and the paper's.
/// Informational: a later fidelity change may move them on purpose.
fn fidelity_report(doc: &RunDoc) -> String {
    use std::fmt::Write as _;
    if doc.geomeans.is_empty() {
        return String::new();
    }
    let fig08 = committed_geomeans("results/fig08_single.txt");
    let fig01 = committed_geomeans("results/fig01_perfect.txt");
    let committed = |kind: &str| match kind {
        "stride" => fig08.as_ref().and_then(|r| r.first().copied()),
        "sms" => fig08.as_ref().and_then(|r| r.get(1).copied()),
        "bfetch" => fig08.as_ref().and_then(|r| r.get(2).copied()),
        _ => fig01.as_ref().and_then(|r| r.get(2).copied()),
    };
    let mut o = String::from("geomean speedup over 18 kernels (simulated, exact):\n");
    for (kind, g) in &doc.geomeans {
        let paper = PAPER_GEOMEANS
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, v)| *v);
        let _ = writeln!(
            o,
            "  {kind:<8} measured {g:.3}   committed results/ {}   paper {}",
            committed(kind).map_or("n/a".into(), |v| format!("{v:.3}")),
            paper.map_or("-".into(), |v| format!("{v:.3}")),
        );
    }
    if let Some(e) = doc.paper_err {
        let _ = writeln!(
            o,
            "paper_err {e:.4} log% — against the geomeans the paper reports from its own \
             simulation (B-Fetch 1.232, SMS 1.197, Perfect 2.0), not against hardware"
        );
    }
    o
}

fn fill_fidelity(doc: &mut RunDoc, w: &Workload, results: &[Vec<RunResult>]) {
    doc.geomeans = geomeans(w, results);
    let pairs: Vec<(f64, f64)> = PAPER_GEOMEANS
        .iter()
        .filter_map(|(kind, paper)| {
            let (_, g) = doc.geomeans.iter().find(|(k, _)| k == kind)?;
            Some((*g, *paper))
        })
        .collect();
    doc.paper_err = (pairs.len() == PAPER_GEOMEANS.len()).then(|| paper_err(&pairs));
}

/// Process CPU time (user + system, all threads) in seconds.
fn cpu_seconds() -> f64 {
    // /proc/self/stat: fields 14 and 15 after the parenthesised command,
    // in clock ticks; USER_HZ is 100 on Linux
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn new_doc(opts: &Options, w: &Workload) -> RunDoc {
    RunDoc {
        workload: w.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        quick: opts.quick,
        order: w.order().into_iter().map(str::to_string).collect(),
        ..RunDoc::default()
    }
}

/// Warm passes per run: enough that the median settles, more when a pass
/// has few points.
fn warm_pass_count(points: usize, quick: bool) -> usize {
    if quick {
        3
    } else {
        (LOAD_SAMPLES / points).clamp(50, 400)
    }
}

/// One timed set-up from nothing: whatever `slot` held — programs, spec — is
/// dropped before the clock starts, then `slot` is prepared afresh. Returns
/// the temp dir the set-up created.
fn set_up(
    opts: &Options,
    scratch: &mut Scratch,
    rec: &mut Recorder,
    slot: &mut Option<Prepared>,
    setup_s: &mut Vec<f64>,
) -> Result<PathBuf, String> {
    *slot = None;
    let t = Instant::now();
    let (prepared, dir) = prepare(opts, scratch, rec)?;
    setup_s.push(t.elapsed().as_secs_f64());
    *slot = Some(prepared);
    Ok(dir)
}

/// The timed run: end-to-end metrics, tracing off.
fn timed(opts: &Options, scratch: &mut Scratch) -> Result<RunDoc, String> {
    let mut rec = Recorder::new(false);
    let mut ops = Ops::default();

    // set up from nothing, repeatedly; the last one is the one that runs
    let mut setup_s = Vec::new();
    let mut slot = None;
    let mut cache_dir = set_up(opts, scratch, &mut rec, &mut slot, &mut setup_s)?;
    let setting_up = Instant::now();
    while setup_s.len() < *SETUP_REPEATS.start()
        || (setup_s.len() < *SETUP_REPEATS.end()
            && setting_up.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let _ = std::fs::remove_dir(&cache_dir);
        cache_dir = set_up(opts, scratch, &mut rec, &mut slot, &mut setup_s)?;
    }

    // one untimed pass: it warms the host, fills the cache the warm passes
    // read, and fixes the totals every later repetition must reproduce
    let mut first = None;
    {
        let p = slot.as_ref().expect("set up above");
        if p.workload.via == Via::Session {
            let (out, rep) =
                harness_pass(&p.spec, &cache_dir, 1, "cold, untimed", &mut rec, &mut ops);
            ops.record(out.stats.sims_run == p.spec.len(), || {
                format!(
                    "cold pass simulated {} of {} points",
                    out.stats.sims_run,
                    p.spec.len()
                )
            });
            first = Some(rep);
        }
    }

    let mut reps: Vec<Rep> = Vec::new();
    let mut warm_us = Vec::new();
    let started = Instant::now();
    let points = slot.as_ref().expect("set up above").spec.len();
    let passes = warm_pass_count(points, opts.quick);
    let min_reps = match (
        opts.quick,
        slot.as_ref().expect("set up above").workload.via,
    ) {
        (true, _) | (_, Via::Harness) => 1,
        (false, Via::Session) => MIN_REPS,
    };
    while reps.len() < MAX_REPS
        && (reps.len() < min_reps
            || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds))
    {
        let p = slot.as_ref().expect("set up above");
        let label = format!("timed {}", reps.len());
        let rep = match p.workload.via {
            Via::Session => session_rep(p, points, &label, &mut rec, &mut ops),
            Via::Harness => {
                // a cold sweep is the user's first run: the cache starts empty
                cache_dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
                let (out, rep) = harness_pass(&p.spec, &cache_dir, 1, &label, &mut rec, &mut ops);
                ops.record(out.stats.sims_run == points, || {
                    format!(
                        "cold sweep simulated {} of {points} points",
                        out.stats.sims_run
                    )
                });
                rep
            }
        };
        reps.push(rep);
        // Between repetitions: a slice of the warm passes and one more
        // set-up. The host's slow spells last from milliseconds to minutes;
        // the fastest warm pass and the fastest set-up should be drawn from
        // the whole run, not from one short window at either end of it.
        let cold = &first.as_ref().unwrap_or(&reps[0]).results;
        let slice = (passes / 16).max(3).min(passes - warm_us.len().min(passes));
        warm_us.extend(warm_passes(p, &cache_dir, cold, slice, &mut rec, &mut ops).0);
        let spare = set_up(opts, scratch, &mut rec, &mut slot, &mut setup_s)?;
        let _ = std::fs::remove_dir(spare);
    }
    let p = slot.as_ref().expect("set up above");
    let w = &p.workload;
    // the first pass fixes what every later one must reproduce, the cached
    // results included
    let cold = &first.as_ref().unwrap_or(&reps[0]).results;
    for (i, rep) in first.iter().chain(&reps).enumerate() {
        check_rep(w, rep, cold, &format!("pass {i}"), &mut ops);
    }
    let rest = passes.saturating_sub(warm_us.len());
    warm_us.extend(warm_passes(p, &cache_dir, cold, rest, &mut rec, &mut ops).0);
    check_perfect_bound(w, cold, &mut ops);
    let resume_dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
    check_resume(p, cold, opts.quick, &resume_dir, &mut rec, &mut ops);

    let mut doc = new_doc(opts, w);
    let kinst = w.credited_insts() as f64 / 1e3;
    doc.reps = reps.len();
    doc.warm_passes = passes;
    // a point costs what its fastest repetition took; a repetition as a
    // whole is kept for the median and quartiles printed beside it
    let best_ns: u64 = (0..p.spec.len())
        .map(|i| reps.iter().map(|r| r.point_ns[i]).min().unwrap_or(0))
        .sum();
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    doc.e2e = vec![
        (
            "sim_kips",
            Measured {
                value: kinst / (best_ns as f64 / 1e9),
                reps: Summary::of(reps.iter().map(|r| kinst / r.wall_s()).collect()),
            },
        ),
        ("warm_us_per_point", Measured::fastest(warm_us)),
        ("peak_rss_mb", Measured::once(rss)),
        ("setup_s", Measured::fastest(setup_s)),
    ];
    doc.cpu_wall = reps.iter().map(|r| r.cpu_s / r.wall_s()).collect();
    doc.sim = SimTotals::of(cold);
    fill_fidelity(&mut doc, w, cold);
    doc.ops = ops;
    Ok(doc)
}

/// `bfetch_prof` phase totals of the traced repetition, per simulated
/// core-cycle (`sim.step` fires once per chip cycle).
fn prof_layers(report: &bfetch_prof::Report, cores: usize, untraced_wall_ns: u64) -> Layers {
    let mut l = Layers::new();
    let core_cycles = report.phase("sim.step").map_or(0, |p| p.count) as f64 * cores as f64;
    if core_cycles == 0.0 {
        return l;
    }
    let total = |name: &str| report.phase_total_ns(name) as f64;
    for (metric, phase) in [
        ("sim.step_ns", "sim.step"),
        ("sim.fetch_ns", "sim.fetch"),
        ("sim.engine_ns", "sim.engine"),
        ("sim.pending_mem_ns", "sim.pending_mem"),
        ("sim.commit_ns", "sim.commit"),
        ("sim.issue_ns", "sim.issue"),
        ("sim.bookkeep_ns", "sim.bookkeep"),
        ("sim.drain_chip_ns", "sim.drain_chip"),
    ] {
        l.insert(metric, total(phase) / core_cycles);
    }
    let children: f64 = [
        "sim.pending_mem",
        "sim.commit",
        "sim.fetch",
        "sim.engine",
        "sim.issue",
    ]
    .iter()
    .map(|n| total(n))
    .sum();
    l.insert(
        "sim.step_self_pct",
        (total("sim.step") - children) / total("sim.step") * 100.0,
    );
    let covered = total("sim.drain_chip") + total("sim.step") + total("sim.bookkeep");
    l.insert("sim.run_cover_pct", covered / total("sim.run") * 100.0);
    l.insert("sim.ns_per_cycle", untraced_wall_ns as f64 / core_cycles);
    l
}

/// The harness layer from outside: key, store and load costs on the
/// workload's own points and results, per-point overhead against direct
/// runs, and `-j 2` scaling.
#[allow(clippy::too_many_arguments)]
fn bench_layers(
    p: &Prepared,
    cold: &Rep,
    direct_ns: &[(usize, u64)],
    warm_dir: &Path,
    scratch: &mut Scratch,
    quick: bool,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> Result<(Layers, usize), String> {
    let mut l = Layers::new();
    let points = &p.workload.points;
    let n = points.len();
    l.insert("bench.points_per_s", n as f64 / cold.wall_ns as f64 * 1e9);
    let overheads: Vec<f64> = direct_ns
        .iter()
        .map(|(i, ns)| (cold.point_ns[*i] as f64 - *ns as f64) / 1e3)
        .collect();
    l.insert("bench.point_overhead_us", median(&overheads));

    let rounds = if quick { 2 } else { (2_000 / n).max(10) };
    let (keys, ns) = rec.time("bench.GridPoint::cache_key", "", |_| {
        let mut keys = Vec::new();
        for _ in 0..rounds {
            keys = points.iter().map(GridPoint::cache_key).collect::<Vec<_>>();
        }
        keys
    });
    l.insert("bench.cache_key_us", ns as f64 / 1e3 / (rounds * n) as f64);

    let store_dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
    let store = ResultCache::new(&store_dir).map_err(|e| format!("store cache: {e}"))?;
    let store_us: Vec<f64> = keys
        .iter()
        .zip(&cold.results)
        .map(|(key, results)| {
            let (stored, ns) = rec.time("bench.ResultCache::store", "", |_| {
                store.store(key, results)
            });
            ops.record(stored.is_ok(), || {
                format!("cache store: {}", stored.as_ref().unwrap_err())
            });
            ns as f64 / 1e3
        })
        .collect();
    l.insert("bench.cache_store_us", median(&store_us));

    let warm = ResultCache::new(warm_dir).map_err(|e| format!("warm cache: {e}"))?;
    let samples = if quick { 4 * n } else { LOAD_SAMPLES.max(n) };
    let mut load_us = Vec::with_capacity(samples);
    let mut all_hit = true;
    rec.span("bench.ResultCache::load", "", |_| {
        for key in keys.iter().cycle().take(samples) {
            let t = Instant::now();
            let loaded = warm.load(key);
            load_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            all_hit &= matches!(loaded, Ok(Some(_)));
        }
    });
    ops.record(all_hit, || {
        "a direct ResultCache::load missed or failed".to_string()
    });
    l.insert("bench.cache_load_us_p50", median(&load_us));
    let tail = highest_supported_percentile(samples).map_or(50.0, |p| p.min(99.0));
    l.insert("bench.cache_load_us_p99", percentile(&load_us, tail));

    // -j 2 over a prefix of the spec, against the same points' -j 1 walls;
    // a single point cannot be split, so it has no such figure
    let prefix = n.min(30);
    if prefix >= 2 {
        let mut sub = SweepSpec::new();
        for point in &points[..prefix] {
            sub.push(point.clone());
        }
        let j2_dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
        let (_, j2) = harness_pass(&sub, &j2_dir, 2, "cold -j 2", rec, ops);
        l.insert(
            "bench.j2_speedup",
            prefix_ns(cold, prefix) as f64 / j2.wall_ns as f64,
        );
    }
    Ok((l, samples))
}

/// Sums the first `n` per-point walls.
fn prefix_ns(rep: &Rep, n: usize) -> u64 {
    rep.point_ns[..n].iter().sum()
}

/// The traced run: one untraced repetition, then one with `bfetch_prof`
/// switched on, driver spans around every call into a layer, then the
/// per-layer measurements.
///
/// The profiler's per-cycle spans slow the simulator severalfold, so the
/// traced repetition covers the first [`TRACED_POINTS`] points of the
/// seed's order; its cost is set against the same points untraced.
fn traced(opts: &Options, scratch: &mut Scratch) -> Result<(RunDoc, String), String> {
    let mut rec = Recorder::new(true);
    let mut ops = Ops::default();
    let (p, cache_dir) = rec.span("driver.setup", "", |rec| prepare(opts, scratch, rec))?;
    let w = &p.workload;
    let n = p.spec.len();

    // the cold harness pass; for a harness workload it is the untraced
    // repetition itself
    let (cold_out, cold) = harness_pass(&p.spec, &cache_dir, 1, "cold", &mut rec, &mut ops);
    ops.record(cold_out.stats.sims_run == n, || {
        format!(
            "cold pass simulated {} of {n} points",
            cold_out.stats.sims_run
        )
    });
    check_rep(w, &cold, &cold.results, "cold pass", &mut ops);
    let session_untraced = match w.via {
        Via::Session => Some(session_rep(&p, n, "untraced", &mut rec, &mut ops)),
        Via::Harness => None,
    };
    let untraced = session_untraced.as_ref().unwrap_or(&cold);

    let covered = n.min(TRACED_POINTS);
    let prof_offset_ns = rec.now_ns();
    bfetch_prof::enable();
    let traced_rep = match w.via {
        Via::Session => session_rep(&p, covered, "traced", &mut rec, &mut ops),
        Via::Harness => {
            let mut sub = SweepSpec::new();
            for point in &w.points[..covered] {
                sub.push(point.clone());
            }
            let dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
            harness_pass(&sub, &dir, 1, "traced", &mut rec, &mut ops).1
        }
    };
    let profile = bfetch_prof::drain();
    for (what, rep) in [
        ("untraced repetition", untraced),
        ("traced repetition", &traced_rep),
    ] {
        check_rep(w, rep, &cold.results, what, &mut ops);
    }

    let passes = if opts.quick { 2 } else { 5 };
    let (_, hits, warm_retries) =
        warm_passes(&p, &cache_dir, &cold.results, passes, &mut rec, &mut ops);
    check_perfect_bound(w, &cold.results, &mut ops);

    let reference = SimTotals::of(&cold.results);
    let mut layers = reference.layers();
    ops.record(profile.is_some(), || {
        "bfetch_prof captured nothing".to_string()
    });
    let prof_trace = profile.as_ref().map(bfetch_prof::Profile::chrome_trace);
    if let Some(profile) = &profile {
        layers.extend(prof_layers(
            &profile.report(),
            w.cores(),
            prefix_ns(untraced, covered),
        ));
    }
    layers.insert(
        "prof.overhead_pct",
        (prefix_ns(&traced_rep, covered) as f64 / prefix_ns(untraced, covered) as f64 - 1.0)
            * 100.0,
    );
    layers.insert("prof.span_ns", layers::prof_span_ns(&mut rec, opts.quick));
    layers.insert("host.cpu_wall_ratio", untraced.cpu_s / untraced.wall_s());
    // one untraced repetition: no spread to speak of (the timed run has it)
    layers.insert("host.rep_spread_pct", 0.0);

    let functional_insts = w.budget.measured + w.budget.warmup;
    layers.extend(layers::primitives(
        &mut rec,
        opts.seed,
        opts.quick,
        w.scale,
        &p.distinct,
        functional_insts,
    ));

    // observer costs on the mcf/B-Fetch point, whatever the workload
    let mcf = bfetch_workloads::kernel_by_name("mcf").ok_or("mcf left the registry")?;
    let obs_dir = scratch.dir().map_err(|e| format!("temp dir: {e}"))?;
    let solo = if opts.quick {
        w.budget
    } else {
        crate::workload::Budget::SOLO
    };
    match layers::observers(&mut rec, mcf, w.scale, solo, opts.quick, &obs_dir) {
        Ok(obs) => {
            ops.record(obs.results_equal, || {
                "an observer knob changed the results of mcf/bfetch".to_string()
            });
            ops.record(obs.resume_equal, || {
                "mcf/bfetch resumed from the last periodic checkpoint differs from the fresh run"
                    .to_string()
            });
            layers.extend(obs.layers);
        }
        Err(e) => ops.record(false, || format!("observer A/B: {e}")),
    }

    // direct runs to set the harness's per-point wall against
    let subset = n.min(10);
    let direct_ns: Vec<(usize, u64)> = match w.via {
        Via::Session => untraced
            .point_ns
            .iter()
            .copied()
            .enumerate()
            .take(subset)
            .collect(),
        Via::Harness => (0..subset)
            .map(|i| {
                let point = &w.points[i];
                let (out, ns) = rec.time(
                    "sim.SimSession::run",
                    &format!("direct {}", point.label),
                    |_| {
                        SimSession::new(point.config.clone())
                            .instructions(point.instructions)
                            .run(&p.programs[i])
                    },
                );
                ops.record(out.is_ok(), || format!("direct simulation {}", point.label));
                (i, ns)
            })
            .collect(),
    };
    let (bench, load_samples) = bench_layers(
        &p, &cold, &direct_ns, &cache_dir, scratch, opts.quick, &mut rec, &mut ops,
    )?;
    layers.extend(bench);
    layers.insert("bench.sims_run", cold_out.stats.sims_run as f64);
    layers.insert("bench.cache_hits", hits as f64);
    layers.insert(
        "bench.retries",
        (cold_out.stats.cache_retries + warm_retries) as f64,
    );

    let mut doc = new_doc(opts, w);
    doc.reps = 1;
    doc.warm_passes = passes;
    doc.sim = reference;
    fill_fidelity(&mut doc, w, &cold.results);
    layers.insert("paper_err", doc.paper_err.unwrap_or(0.0));
    doc.layers = layers;
    doc.cpu_wall = vec![untraced.cpu_s / untraced.wall_s()];
    doc.span_totals = rec.totals();
    doc.load_samples = load_samples;
    doc.ops = ops;

    let mut events = rec.chrome_events(1, w.name);
    if let Some(t) = prof_trace {
        events.extend(spans::prof_events(&t, 2, prof_offset_ns));
    }
    Ok((doc, spans::chrome_doc(events).to_string()))
}

/// Runs one workload as `opts` says, prints the report and the contract
/// line, writes the result document (and the trace) under `opts.out`, and
/// returns whether every operation succeeded.
pub fn run(opts: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let mut scratch = Scratch::new(&opts.out).map_err(|e| format!("scratch: {e}"))?;
    let (doc, trace) = if opts.traced {
        let (doc, trace) = traced(opts, &mut scratch)?;
        (doc, Some(trace))
    } else {
        (timed(opts, &mut scratch)?, None)
    };
    drop(scratch);

    let stem = format!(
        "{}{}",
        doc.workload,
        if doc.traced { ".traced" } else { "" }
    );
    let write = |name: String, text: String| {
        let path = opts.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{stem}.json"), doc.to_json().to_string())?;
    if let Some(trace) = trace {
        write(format!("{}.trace.json", doc.workload), trace)?;
    }
    print!("{}", doc.render());
    print!("{}", fidelity_report(&doc));
    let finite = doc
        .table()
        .iter()
        .all(|m| doc.value(m.name).unwrap_or(0.0).is_finite());
    if !finite {
        return Err("a metric is not a finite number".to_string());
    }
    println!("{}", doc.contract_line());
    Ok(doc.correct())
}
