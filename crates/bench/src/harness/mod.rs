//! The experiment harness: declarative sweeps, a work-stealing parallel
//! executor, and a content-addressed result cache.
//!
//! A figure used to be a nest of serial loops calling
//! `run_single`/`run_multi` directly. With the harness it instead
//! *declares* its grid — every (workload × config × instruction-budget)
//! point it needs — and hands the whole sweep to [`Harness::run`], which:
//!
//! 1. executes points on `--threads N` workers (work-stealing, so a slow
//!    8-core mix doesn't serialize behind finished singles),
//! 2. serves any point it has seen before from `results/cache/`
//!    (content-addressed by a schema-versioned canonical key), and
//! 3. collects outcomes **in input order**, so stdout is bit-identical
//!    whatever the thread count or cache state.
//!
//! Timings and cache statistics go to stderr only; `--json` renders the
//! raw results machine-readably on stdout.
//!
//! ## Failure isolation
//!
//! One bad grid point must not cost the sweep. Each point runs under
//! `catch_unwind`, and a panic, a typed simulator abort
//! ([`SimError`]: watchdog, cycle budget) or a cache I/O failure becomes a
//! [`PointError`] in [`SweepOutcome::failures`] while every healthy point
//! completes (and caches) normally. Cache I/O failures — the only
//! transient class — are retried up to [`CACHE_IO_ATTEMPTS`] times;
//! deterministic simulator failures are not. Binaries call
//! [`SweepOutcome::or_fail`], which on the no-failure path returns the
//! outcome untouched (stdout stays byte-identical) and otherwise prints a
//! deterministic `FAILED <label>: <reason>` report to stderr and exits
//! non-zero.
//!
//! ## Interrupt
//!
//! SIGINT (installed by [`Harness::from_opts`], see [`crate::interrupt`])
//! drains the sweep: no new point starts, every point already simulating
//! runs to completion and is cached as usual, the stderr report still
//! runs, and the process exits with `[harness] interrupted` and status
//! 130. Re-running the same command serves the finished points from the
//! cache and simulates the skipped ones. A point is never checkpointed:
//! the longest one takes seconds, and its only file is its `.res` entry
//! (DESIGN.md §15.4).

pub mod cache;
pub mod executor;
pub mod jsonio;

use crate::opts::Opts;
use bfetch_sim::{FaultInjection, RunResult, SimConfig, SimError, SimSession};
use bfetch_workloads::faults::{FaultKernel, FaultMode};
use bfetch_workloads::{Kernel, Scale};
use cache::{Entry, ResultCache};
use jsonio::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many times a point whose *cache* failed (I/O error class, not a
/// simulator failure) is attempted before giving up.
pub const CACHE_IO_ATTEMPTS: u32 = 3;

/// One experiment point: a workload (single kernel or a mix) under one
/// configuration for one instruction budget.
#[derive(Clone)]
pub struct GridPoint {
    /// Unique label within a sweep; outcomes are addressed by it.
    pub label: String,
    /// The kernels on the CMP's cores (one entry = single-core run).
    pub members: Vec<&'static Kernel>,
    /// Full system configuration.
    pub config: SimConfig,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Workload footprint scale.
    pub scale: Scale,
}

impl GridPoint {
    /// A single-core point.
    pub fn single(
        label: impl Into<String>,
        kernel: &'static Kernel,
        config: SimConfig,
        instructions: u64,
        scale: Scale,
    ) -> Self {
        Self::mix(label, vec![kernel], config, instructions, scale)
    }

    /// A multiprogrammed point (one core per member).
    pub fn mix(
        label: impl Into<String>,
        members: Vec<&'static Kernel>,
        config: SimConfig,
        instructions: u64,
        scale: Scale,
    ) -> Self {
        assert!(!members.is_empty(), "a mix needs at least one member");
        Self {
            label: label.into(),
            members,
            config,
            instructions,
            scale,
        }
    }

    /// A fault-injection point (testing): runs the fault-loop workload
    /// with `config` armed to fail per `fault`. `Panic` panics mid-run,
    /// `Livelock` freezes commit so the watchdog aborts, `Runaway`
    /// freezes with the watchdog disabled so the cycle budget is the
    /// backstop.
    pub fn faulty(
        label: impl Into<String>,
        fault: FaultKernel,
        config: SimConfig,
        instructions: u64,
    ) -> Self {
        let config = match fault.mode {
            FaultMode::Panic => config.with_fault(FaultInjection {
                panic_at_insts: fault.at_insts,
                freeze_at_insts: 0,
            }),
            FaultMode::Livelock => config.with_fault(FaultInjection {
                panic_at_insts: 0,
                freeze_at_insts: fault.at_insts,
            }),
            FaultMode::Runaway => config.with_watchdog(0).with_fault(FaultInjection {
                panic_at_insts: 0,
                freeze_at_insts: fault.at_insts,
            }),
        };
        Self::single(label, fault.kernel(), config, instructions, Scale::Small)
    }

    /// The canonical cache key: schema version and model
    /// ([`cache::key_prefix`]), members, scale, instruction budget, and the
    /// complete configuration as the hex of its wire bytes
    /// ([`SimConfig::wire_bytes`], which `config_fields!` makes cover every
    /// leaf). The label is deliberately excluded — two binaries labelling
    /// the same simulation differently share one cache entry.
    pub fn cache_key(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let members: Vec<&str> = self.members.iter().map(|k| k.name).collect();
        let mut key = format!(
            "{}members={}|scale={:?}|insts={}|cfg=",
            cache::key_prefix(),
            members.join("+"),
            self.scale,
            self.instructions,
        );
        let wire = self.config.wire_bytes();
        key.reserve(2 * wire.len());
        for b in wire {
            key.push(HEX[usize::from(b >> 4)] as char);
            key.push(HEX[usize::from(b & 15)] as char);
        }
        key
    }
}

/// An ordered collection of grid points; the declarative description of
/// everything one experiment needs simulated.
#[derive(Clone, Default)]
pub struct SweepSpec {
    /// The points, in the order outcomes will be returned.
    pub points: Vec<GridPoint>,
}

impl SweepSpec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point and returns its index.
    pub fn push(&mut self, point: GridPoint) -> usize {
        self.points.push(point);
        self.points.len() - 1
    }

    /// Appends one single-core point per (kernel, labelled config) pair —
    /// the common kernel × config grid, labelled `"{kernel}/{name}"`.
    pub fn push_grid(
        &mut self,
        kernels: &[&'static Kernel],
        configs: &[(impl AsRef<str>, SimConfig)],
        instructions: u64,
        scale: Scale,
    ) {
        for &k in kernels {
            for (name, cfg) in configs {
                self.push(GridPoint::single(
                    format!("{}/{}", k.name, name.as_ref()),
                    k,
                    cfg.clone(),
                    instructions,
                    scale,
                ));
            }
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The outcome of one grid point.
pub struct PointOutcome {
    /// The point's label, copied from the spec.
    pub label: String,
    /// One result per core, in core order.
    pub results: Vec<RunResult>,
    /// Whether the result was served from the on-disk cache.
    pub from_cache: bool,
    /// Wall-clock spent on this point (load or simulate), milliseconds.
    pub millis: f64,
    /// Attempts made (> 1 only when transient cache-I/O errors were
    /// retried on the way to this success).
    pub attempts: u32,
}

/// Why a grid point failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The simulation (or the workload builder) panicked; carries the
    /// panic message. Deterministic — never retried.
    Panic(String),
    /// A typed simulator abort (watchdog or cycle budget).
    /// Deterministic — never retried.
    Sim(SimError),
    /// The result cache could not be read — a transient environment
    /// problem, retried up to [`CACHE_IO_ATTEMPTS`] times.
    CacheIo(String),
    /// The sweep was interrupted (SIGINT) before this point started, so
    /// it was skipped (`attempts` 0); the next invocation simulates it.
    /// [`SweepOutcome::or_fail`] exits with [`crate::interrupt::EXIT_CODE`].
    Interrupted,
}

impl FailureKind {
    /// Machine-readable class tag for the JSON report.
    pub fn class(&self) -> &'static str {
        match self {
            FailureKind::Panic(_) => "panic",
            FailureKind::Sim(_) => "sim",
            FailureKind::CacheIo(_) => "cache-io",
            FailureKind::Interrupted => "interrupted",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::Sim(e) => write!(f, "{e}"),
            FailureKind::CacheIo(msg) => write!(f, "cache I/O: {msg}"),
            FailureKind::Interrupted => write!(f, "interrupted"),
        }
    }
}

/// A failed grid point: which point, how often it was attempted, and why
/// it failed. Collected in [`SweepOutcome::failures`], spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct PointError {
    /// The point's index in the spec.
    pub index: usize,
    /// The point's label.
    pub label: String,
    /// Attempts made (> 1 only for the retriable cache-I/O class).
    pub attempts: u32,
    /// The failure itself.
    pub kind: FailureKind,
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.kind)
    }
}

impl std::error::Error for PointError {}

/// A label lookup that found nothing: either the spec never contained the
/// point (a programming error in the binary) or the point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingPoint {
    /// The label looked up.
    pub label: String,
    /// Whether the point exists in the sweep but failed.
    pub failed: bool,
}

impl std::fmt::Display for MissingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.failed {
            write!(
                f,
                "grid point {:?} failed; see the failure report",
                self.label
            )
        } else {
            write!(f, "no grid point labelled {:?} in this sweep", self.label)
        }
    }
}

impl std::error::Error for MissingPoint {}

/// Aggregate counters for one [`Harness::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Grid points in the sweep.
    pub points: usize,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Simulations actually executed (successfully).
    pub sims_run: usize,
    /// Points that failed (see [`SweepOutcome::failures`]).
    pub failed: usize,
    /// Total wall-clock for the sweep, milliseconds.
    pub wall_millis: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Result-cache load hits during this sweep (cache-level counter; can
    /// exceed `cache_hits` when retried loads hit more than once).
    pub cache_load_hits: u64,
    /// Result-cache load misses during this sweep.
    pub cache_load_misses: u64,
    /// Corrupt cache entries quarantined (and recomputed) this sweep.
    pub cache_recomputes: u64,
    /// Extra attempts spent retrying transient cache-I/O failures.
    pub cache_retries: u64,
    /// Entries evicted by the `--cache-gc` sweep preceding this run.
    pub gc_evicted: u64,
}

impl SweepStats {
    /// Machine-readable rendering, emitted on **stderr** in `--json` mode
    /// (`[harness] stats {...}`). Stats are run-dependent (cache state,
    /// thread count, wall clock), so they must never reach stdout — the
    /// stdout byte-identity contract covers only deterministic results.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("model".into(), Json::Str(cache::MODEL_ID.into())),
            ("points".into(), Json::u64_of(self.points as u64)),
            ("cache_hits".into(), Json::u64_of(self.cache_hits as u64)),
            ("sims_run".into(), Json::u64_of(self.sims_run as u64)),
            ("failed".into(), Json::u64_of(self.failed as u64)),
            ("wall_millis".into(), Json::f64_of(self.wall_millis)),
            ("threads".into(), Json::u64_of(self.threads as u64)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("load_hits".into(), Json::u64_of(self.cache_load_hits)),
                    ("load_misses".into(), Json::u64_of(self.cache_load_misses)),
                    ("recomputes".into(), Json::u64_of(self.cache_recomputes)),
                    ("retries".into(), Json::u64_of(self.cache_retries)),
                    ("gc_evicted".into(), Json::u64_of(self.gc_evicted)),
                ]),
            ),
        ])
        .to_string()
    }
}

/// Everything a sweep produced: per-point outcomes for the healthy points
/// (input order), the failures (input order), and aggregate statistics.
pub struct SweepOutcome {
    pub outcomes: Vec<PointOutcome>,
    pub failures: Vec<PointError>,
    pub stats: SweepStats,
}

impl SweepOutcome {
    /// The outcome for `label`, if the sweep contained it and it
    /// succeeded.
    pub fn get(&self, label: &str) -> Option<&PointOutcome> {
        self.outcomes.iter().find(|o| o.label == label)
    }

    /// The failure for `label`, if that point failed.
    pub fn failure(&self, label: &str) -> Option<&PointError> {
        self.failures.iter().find(|f| f.label == label)
    }

    /// The single-core result for `label`.
    pub fn try_result(&self, label: &str) -> Result<&RunResult, MissingPoint> {
        self.try_results(label).map(|rs| &rs[0])
    }

    /// All results for `label` (mix points have one per core).
    pub fn try_results(&self, label: &str) -> Result<&[RunResult], MissingPoint> {
        match self.get(label) {
            Some(o) => Ok(&o.results),
            None => Err(MissingPoint {
                label: label.to_string(),
                failed: self.failure(label).is_some(),
            }),
        }
    }

    /// The single-core result for `label`; prints the error and exits
    /// with status 1 if the point is absent or failed (the binaries'
    /// lookup path — a missing label is unrecoverable for a figure).
    pub fn require(&self, label: &str) -> &RunResult {
        self.try_result(label)
            .unwrap_or_else(|e| crate::exit_err(e))
    }

    /// All results for `label`; prints the error and exits with status 1
    /// if the point is absent or failed.
    pub fn require_all(&self, label: &str) -> &[RunResult] {
        self.try_results(label)
            .unwrap_or_else(|e| crate::exit_err(e))
    }

    /// The binaries' gate: on the no-failure path returns `self`
    /// untouched; otherwise prints one deterministic
    /// `FAILED <label>: <reason>` line per failure (spec order, stderr)
    /// plus a summary, and exits with status 1. Healthy points were still
    /// simulated and cached — a rerun after the fix only pays for the
    /// failed points.
    pub fn or_fail(self) -> SweepOutcome {
        if self.failures.is_empty() {
            return self;
        }
        for f in &self.failures {
            eprintln!("FAILED {}: {}", f.label, f.kind);
        }
        eprintln!(
            "{} of {} grid points failed ({} healthy, results cached)",
            self.failures.len(),
            self.stats.points,
            self.outcomes.len(),
        );
        if self
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::Interrupted)
        {
            // a graceful Ctrl-C, not a defect: the points that ran are
            // cached, so re-running the same command simulates the rest
            eprintln!("[harness] interrupted");
            std::process::exit(crate::interrupt::EXIT_CODE);
        }
        std::process::exit(1);
    }

    /// Machine-readable rendering of the whole sweep (the `--json` mode).
    ///
    /// Deliberately omits everything run-dependent — thread count, cache
    /// hits, wall clock — so the output is byte-identical whatever the
    /// parallelism or cache state; those live in the stderr report. The
    /// `schema` and `model` fields name the build that simulated it. A
    /// `failures` array is appended only when something failed, keeping
    /// the no-failure rendering byte-identical to earlier versions.
    pub fn to_json(&self) -> String {
        let points = self
            .outcomes
            .iter()
            .map(|o| {
                Json::Obj(vec![
                    ("label".into(), Json::Str(o.label.clone())),
                    (
                        "results".into(),
                        Json::Arr(o.results.iter().map(jsonio::result_to_json).collect()),
                    ),
                ])
            })
            .collect();
        let mut top = vec![
            (
                "schema".into(),
                Json::u64_of(bfetch_sim::SCHEMA_VERSION as u64),
            ),
            ("model".into(), Json::Str(cache::MODEL_ID.into())),
            (
                "stats".into(),
                Json::Obj(vec![(
                    "points".into(),
                    Json::u64_of(self.stats.points as u64),
                )]),
            ),
            ("points".into(), Json::Arr(points)),
        ];
        if !self.failures.is_empty() {
            let failures = self
                .failures
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("label".into(), Json::Str(f.label.clone())),
                        ("class".into(), Json::Str(f.kind.class().to_string())),
                        ("attempts".into(), Json::u64_of(f.attempts as u64)),
                        ("reason".into(), Json::Str(f.kind.to_string())),
                    ])
                })
                .collect();
            top.push(("failures".into(), Json::Arr(failures)));
        }
        Json::Obj(top).to_string()
    }
}

/// The executor + cache pairing that runs sweeps.
pub struct Harness {
    threads: usize,
    cache: Option<ResultCache>,
    quiet: bool,
    /// Also emit a machine-readable `[harness] stats {...}` line on stderr
    /// after each sweep (set from `--json`; stats never go to stdout).
    json_stats: bool,
    /// Once true, no new point starts: each is skipped as
    /// [`FailureKind::Interrupted`], while points already simulating run
    /// to completion. [`Harness::from_opts`] wires it to the SIGINT
    /// handler.
    stop: Arc<AtomicBool>,
    /// Evictions recorded by the last [`Harness::run_cache_gc`] sweep,
    /// surfaced in the next sweep's stats.
    gc_evicted: std::sync::atomic::AtomicU64,
}

impl Harness {
    /// A harness with `threads` workers and the default cache directory.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cache: ResultCache::new(ResultCache::default_dir()).ok(),
            quiet: std::env::var_os("BFETCH_HARNESS_QUIET").is_some(),
            json_stats: false,
            stop: Arc::default(),
            gc_evicted: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// A harness configured from the shared command-line options
    /// (`--threads`, `--no-cache`, `--cache-dir`; `--cache-gc` runs the
    /// maintenance sweep before the harness is returned). Also installs
    /// the graceful-SIGINT handler: Ctrl-C lets in-flight points finish,
    /// skips the rest and exits with [`crate::interrupt::EXIT_CODE`] after
    /// the stderr report.
    pub fn from_opts(opts: &Opts) -> Self {
        let mut h = Self::new(opts.threads);
        if opts.no_cache {
            h.cache = None;
        } else if let Some(dir) = &opts.cache_dir {
            h.cache = ResultCache::new(dir).ok();
        }
        h.json_stats = opts.json;
        h.stop = crate::interrupt::install();
        if std::env::var_os("BFETCH_HARNESS_INTERRUPT").is_some() {
            // deterministic test hook: behave as if Ctrl-C arrived before
            // the sweep, so every point is skipped
            h.stop.store(true, Ordering::SeqCst);
        }
        if opts.cache_gc {
            h.run_cache_gc(opts.cache_cap);
        }
        h
    }

    /// Run the `--cache-gc` maintenance sweep: report to stderr on
    /// success, exit with an error if GC fails or the cache is disabled.
    fn run_cache_gc(&self, cap_bytes: u64) {
        match self.cache.as_ref() {
            Some(c) => match c.gc(cap_bytes) {
                Ok(report) => {
                    self.gc_evicted
                        .store(report.evicted, std::sync::atomic::Ordering::Relaxed);
                    eprintln!("[harness] {report}");
                }
                Err(e) => crate::exit_err(format_args!("cache-gc failed: {e}")),
            },
            None => crate::exit_err("--cache-gc needs a cache (drop --no-cache)"),
        }
    }

    /// Disables the on-disk cache.
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Uses a specific cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = ResultCache::new(dir).ok();
        self
    }

    /// Suppresses the stderr report (tests).
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Uses `stop` as the flag that stops new points from starting (tests;
    /// the binaries get theirs from the SIGINT handler via
    /// [`Harness::from_opts`]).
    pub fn with_stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = stop;
        self
    }

    /// Runs every point of `spec` and returns outcomes in spec order.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        let t0 = Instant::now();
        // Snapshot the cache's process-lifetime counters so the stats
        // report per-sweep deltas.
        let cache_before = self
            .cache
            .as_ref()
            .map_or((0, 0, 0), |c| (c.hits(), c.misses(), c.quarantined()));
        let raw = executor::run_indexed(&spec.points, self.threads, |i, point| {
            self.run_point(i, point)
        });
        let mut outcomes = Vec::with_capacity(raw.len());
        let mut failures = Vec::new();
        for r in raw {
            match r {
                Ok(o) => outcomes.push(o),
                Err(e) => failures.push(e),
            }
        }
        let cache_hits = outcomes.iter().filter(|o| o.from_cache).count();
        let cache_after = self
            .cache
            .as_ref()
            .map_or((0, 0, 0), |c| (c.hits(), c.misses(), c.quarantined()));
        let cache_retries = outcomes
            .iter()
            .map(|o| u64::from(o.attempts.saturating_sub(1)))
            .chain(
                failures
                    .iter()
                    .map(|f| u64::from(f.attempts.saturating_sub(1))),
            )
            .sum();
        let stats = SweepStats {
            points: spec.points.len(),
            cache_hits,
            sims_run: outcomes.len() - cache_hits,
            failed: failures.len(),
            wall_millis: t0.elapsed().as_secs_f64() * 1e3,
            threads: self.threads,
            cache_load_hits: cache_after.0 - cache_before.0,
            cache_load_misses: cache_after.1 - cache_before.1,
            cache_recomputes: cache_after.2 - cache_before.2,
            cache_retries,
            gc_evicted: self.gc_evicted.load(std::sync::atomic::Ordering::Relaxed),
        };
        if !self.quiet {
            self.report(&outcomes, &failures, &stats);
        }
        SweepOutcome {
            outcomes,
            failures,
            stats,
        }
    }

    /// One grid point, isolated: cache-I/O errors are retried
    /// ([`CACHE_IO_ATTEMPTS`]); a panic or a typed simulator abort fails
    /// the point immediately (deterministic — a retry would fail the
    /// same way).
    fn run_point(&self, index: usize, point: &GridPoint) -> Result<PointOutcome, PointError> {
        // A point not yet started when SIGINT arrived is skipped; points
        // already simulating never look at the flag and finish.
        if self.stop.load(Ordering::SeqCst) {
            return Err(PointError {
                index,
                label: point.label.clone(),
                attempts: 0,
                kind: FailureKind::Interrupted,
            });
        }
        let _point_span = bfetch_prof::span_labeled(bfetch_prof::HARNESS_POINT, &point.label);
        let pt0 = Instant::now();
        let key = point.cache_key();
        let entry = self.cache.as_ref().map(|c| c.entry(&key));
        let mut attempts = 0;
        loop {
            attempts += 1;
            match self.attempt_point(point, entry.as_ref()) {
                Ok((results, from_cache)) => {
                    return Ok(PointOutcome {
                        label: point.label.clone(),
                        results,
                        from_cache,
                        millis: pt0.elapsed().as_secs_f64() * 1e3,
                        attempts,
                    })
                }
                Err(kind) => {
                    if matches!(kind, FailureKind::CacheIo(_)) && attempts < CACHE_IO_ATTEMPTS {
                        continue;
                    }
                    return Err(PointError {
                        index,
                        label: point.label.clone(),
                        attempts,
                        kind,
                    });
                }
            }
        }
    }

    /// One attempt at a point: a load from its cache `entry` (`None` with
    /// the cache disabled), and on a miss a simulation whose results are
    /// stored there.
    fn attempt_point(
        &self,
        point: &GridPoint,
        entry: Option<&Entry>,
    ) -> Result<(Vec<RunResult>, bool), FailureKind> {
        let loaded = entry.map(|e| {
            let _load_span = bfetch_prof::span_traced(bfetch_prof::HARNESS_CACHE_LOAD);
            e.load()
        });
        match loaded {
            Some(Err(e)) => return Err(FailureKind::CacheIo(e.to_string())),
            Some(Ok(Some(results))) => return Ok((results, true)),
            _ => {}
        }
        let simulate = || {
            let programs: Vec<_> = point.members.iter().map(|k| k.build(point.scale)).collect();
            SimSession::new(point.config.clone())
                .instructions(point.instructions)
                .run(&programs)
        };
        let results = catch_unwind(AssertUnwindSafe(simulate))
            .map_err(|p| FailureKind::Panic(executor::panic_message(p.as_ref())))?
            .map_err(FailureKind::Sim)?
            .results;
        if let Some(e) = entry {
            // a failed store only costs a future re-simulation
            let _store_span = bfetch_prof::span_traced(bfetch_prof::HARNESS_CACHE_STORE);
            let _ = e.store(&results);
        }
        Ok((results, false))
    }

    /// Observability: per-point wall clock and the sweep totals, on
    /// stderr so stdout stays byte-identical across thread counts and
    /// cache states.
    fn report(&self, outcomes: &[PointOutcome], failures: &[PointError], stats: &SweepStats) {
        for o in outcomes {
            eprintln!(
                "[harness] {:<32} {:>9.1} ms  {}",
                o.label,
                o.millis,
                if o.from_cache { "cached" } else { "simulated" }
            );
        }
        for f in failures {
            eprintln!(
                "[harness] {:<32} FAILED after {} attempt{}: {}",
                f.label,
                f.attempts,
                if f.attempts == 1 { "" } else { "s" },
                f.kind
            );
        }
        eprintln!(
            "[harness] {} points in {:.2}s on {} thread{}: {} cached, {} simulated{}{}",
            stats.points,
            stats.wall_millis / 1e3,
            stats.threads,
            if stats.threads == 1 { "" } else { "s" },
            stats.cache_hits,
            stats.sims_run,
            if stats.failed > 0 {
                format!(", {} FAILED", stats.failed)
            } else {
                String::new()
            },
            if self.cache.is_none() {
                " (cache disabled)"
            } else {
                ""
            },
        );
        if self.cache.is_some() {
            eprintln!(
                "[harness] cache: {} load hits, {} misses, {} recomputed, {} retries, {} GC-evicted",
                stats.cache_load_hits,
                stats.cache_load_misses,
                stats.cache_recomputes,
                stats.cache_retries,
                stats.gc_evicted,
            );
        }
        if self.json_stats {
            eprintln!("[harness] stats {}", stats.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_sim::PrefetcherKind;
    use bfetch_workloads::kernel_by_name;

    fn quick_cfg(kind: PrefetcherKind) -> SimConfig {
        SimConfig::baseline().with_prefetcher(kind).with_warmup(500)
    }

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new();
        for name in ["libquantum", "mcf"] {
            let k = kernel_by_name(name).unwrap();
            spec.push(GridPoint::single(
                format!("{name}/base"),
                k,
                quick_cfg(PrefetcherKind::None),
                2_000,
                Scale::Small,
            ));
        }
        spec
    }

    #[test]
    fn outcomes_follow_spec_order_and_labels() {
        let h = Harness::new(2).without_cache().quiet();
        let out = h.run(&tiny_spec());
        let labels: Vec<&str> = out.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["libquantum/base", "mcf/base"]);
        assert!(out.try_result("mcf/base").unwrap().instructions >= 2_000);
        assert_eq!(out.stats.sims_run, 2);
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.failed, 0);
        assert!(out.failures.is_empty());
    }

    #[test]
    fn missing_label_is_a_typed_error() {
        let h = Harness::new(1).without_cache().quiet();
        let out = h.run(&tiny_spec());
        let err = out.try_result("nonexistent/label").unwrap_err();
        assert!(!err.failed);
        assert!(err.to_string().contains("no grid point labelled"));
        assert!(out.try_results("also/missing").is_err());
    }

    #[test]
    fn cache_key_covers_config_and_budget_not_label() {
        let k = kernel_by_name("mcf").unwrap();
        let mk = |label: &str, kind, insts| {
            GridPoint::single(label, k, quick_cfg(kind), insts, Scale::Small)
        };
        let a = mk("one", PrefetcherKind::None, 1000);
        assert_eq!(
            a.cache_key(),
            mk("two", PrefetcherKind::None, 1000).cache_key()
        );
        assert_ne!(
            a.cache_key(),
            mk("one", PrefetcherKind::Sms, 1000).cache_key()
        );
        assert_ne!(
            a.cache_key(),
            mk("one", PrefetcherKind::None, 1001).cache_key()
        );
        let mut wider = a.clone();
        wider.config = wider.config.with_width(8);
        assert_ne!(a.cache_key(), wider.cache_key());
        let mut full = a.clone();
        full.scale = Scale::Full;
        assert_ne!(a.cache_key(), full.cache_key());
    }

    /// Every leaf of the configuration tree moved off its baseline value
    /// (nested structs as literals, so a new field must be listed here).
    fn every_knob_moved() -> SimConfig {
        use bfetch_core::BFetchConfig;
        use bfetch_mem::DramConfig;
        use bfetch_sim::{CpiConfig, TraceConfig};
        let mut c = SimConfig::baseline();
        c.width = 8;
        c.bpred_scale = 2.0;
        c.prefetcher = PrefetcherKind::Sms;
        c.bfetch = BFetchConfig {
            brtc_entries: 512,
            mht_entries: 64,
            mht_slots: 4,
            filter_entries: 1024,
            filter_threshold: 2,
            confidence_threshold: 0.9,
            enable_filter: false,
            enable_loops: false,
            enable_patt: false,
            arf_at_retire: true,
        };
        c.dram = DramConfig { row_model: true };
        (c.l1d_mshrs, c.model_writebacks, c.warmup_insts) = (8, true, 7_000);
        c.trace = TraceConfig {
            enabled: true,
            capacity: 1000,
        };
        c.cpi = CpiConfig {
            enabled: true,
            timeline_interval: 5000,
        };
        (c.watchdog_cycles, c.max_cycles) = (123_456, 9_999_999);
        c.fault = FaultInjection {
            panic_at_insts: 11,
            freeze_at_insts: 22,
        };
        c
    }

    /// The configuration's wire bytes (the checkpoint's config section)
    /// and one cache key with its model id zeroed, as CRC-32s: a reordered
    /// or retyped leaf would otherwise invalidate every cache entry and
    /// checkpoint silently.
    #[test]
    fn config_wire_bytes_and_cache_key_are_pinned() {
        use bfetch_snapshot::crc32;
        let pins = [
            (SimConfig::baseline(), 130, 0xd15f_fcd7, 0x1717_b280),
            (every_knob_moved(), 130, 0x35ce_0825, 0xa23a_df47),
        ];
        for (c, len, wire, key) in pins {
            assert_eq!(c.validate(), Ok(()));
            let bytes = c.wire_bytes();
            let k = kernel_by_name("mcf").unwrap();
            let point = GridPoint::single("pin", k, c, 10_000, Scale::Small);
            let got = (
                bytes.len(),
                crc32(&bytes),
                crc32(
                    point
                        .cache_key()
                        .replacen(cache::MODEL_ID, "0000000000000000", 1)
                        .as_bytes(),
                ),
            );
            assert_eq!(got, (len, wire, key), "wire bytes or cache key moved");
        }
    }

    #[test]
    fn push_grid_enumerates_kernels_times_configs() {
        let mut spec = SweepSpec::new();
        let ks = [
            kernel_by_name("mcf").unwrap(),
            kernel_by_name("astar").unwrap(),
        ];
        let cfgs = [
            ("base", quick_cfg(PrefetcherKind::None)),
            ("sms", quick_cfg(PrefetcherKind::Sms)),
        ];
        spec.push_grid(&ks, &cfgs, 1000, Scale::Small);
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.points[0].label, "mcf/base");
        assert_eq!(spec.points[3].label, "astar/sms");
    }

    #[test]
    fn json_rendering_is_parseable_and_complete() {
        let h = Harness::new(1).without_cache().quiet();
        let out = h.run(&tiny_spec());
        let doc = Json::parse(&out.to_json()).expect("valid json");
        assert_eq!(
            doc.get("stats").unwrap().get("points").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(12));
        assert_eq!(
            doc.get("model").and_then(Json::as_str),
            Some(cache::MODEL_ID)
        );
        let stats = Json::parse(&out.stats.to_json()).expect("valid json");
        assert_eq!(
            stats.get("model").and_then(Json::as_str),
            Some(cache::MODEL_ID)
        );
        // no failures → no failures key (byte-identical no-failure path)
        assert!(doc.get("failures").is_none());
        match doc.get("points").unwrap() {
            Json::Arr(points) => {
                assert_eq!(points.len(), 2);
                let first = &points[0];
                assert_eq!(
                    first.get("label").unwrap().as_str(),
                    Some("libquantum/base")
                );
                match first.get("results").unwrap() {
                    Json::Arr(rs) => {
                        let insts = rs[0].get("instructions").and_then(Json::as_u64);
                        assert!(insts.is_some_and(|n| n >= 2_000), "{insts:?}");
                    }
                    _ => panic!("results not an array"),
                }
            }
            _ => panic!("points not an array"),
        }
    }
}
