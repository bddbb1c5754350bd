//! The unified run API: one builder, one output type.
//!
//! Historically the run surface was ten free functions — `run_single` /
//! `run_multi` crossed with plain / `_traced` / `_cpi` variants and `try_`
//! prefixes. [`SimSession`] collapses them into a single builder:
//!
//! ```
//! use bfetch_sim::{SimSession, SimConfig, PrefetcherKind};
//! use bfetch_isa::{ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new("demo");
//! b.li(Reg::R1, 0x10_0000);
//! let top = b.label();
//! b.bind(top);
//! b.load(Reg::R2, Reg::R1, 0);
//! b.addi(Reg::R1, Reg::R1, 64);
//! b.jmp(top);
//! let program = b.finish();
//!
//! let mut cfg = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
//! cfg.warmup_insts = 1_000;
//! let out = SimSession::new(cfg)
//!     .cpi(true)
//!     .instructions(2_000)
//!     .run(std::slice::from_ref(&program))
//!     .expect("run completes");
//! assert_eq!(out.results.len(), 1);
//! assert!(out.results[0].cpi.is_some());
//! ```
//!
//! The toggles mirror the old variants: [`SimSession::trace`] is
//! `run_multi_traced`, [`SimSession::cpi`] is `run_multi_cpi`, and the
//! `Result` return is the `try_` prefix. Host throughput comes from
//! running independent sessions side by side (the harness's `-j`), not
//! from threads inside one.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::cmp::{RawRunOutput, RunCtrl, RunResult};
use crate::config::SimConfig;
use crate::error::SimError;
use bfetch_isa::Program;
use bfetch_stats::cpi::TimelineSample;
use bfetch_stats::trace::{LifecycleCounts, TraceEvent};

/// The lifecycle trace a traced run produces: the retained event window
/// plus exact per-core tallies (immune to ring overflow).
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// Retained trace events, oldest first (the ring keeps the most recent
    /// [`TraceConfig::capacity`](crate::TraceConfig) events).
    pub events: Vec<TraceEvent>,
    /// Exact per-core lifecycle tallies; `lifecycle[i]` is valid for every
    /// core `i`.
    pub lifecycle: Vec<LifecycleCounts>,
}

/// Everything one run produces. `results` is always populated (one entry
/// per program, in core order); the other fields reflect the session's
/// toggles.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Per-core measurement results.
    pub results: Vec<RunResult>,
    /// The lifecycle trace, when [`SimSession::trace`] was enabled.
    pub trace: Option<TraceOutput>,
    /// Interval samples across all cores (each stamped with its core id),
    /// when [`SimSession::cpi`] accounting was enabled; empty otherwise.
    pub timeline: Vec<TimelineSample>,
}

impl RunOutput {
    /// The single result of a one-program run.
    ///
    /// # Panics
    ///
    /// Panics if the run had more than one core.
    pub fn into_single(mut self) -> RunResult {
        assert_eq!(self.results.len(), 1, "run had {} cores", self.results.len());
        self.results.pop().expect("one result")
    }
}

/// A configured simulation run, built once and executed with
/// [`SimSession::run`].
///
/// The session owns a [`SimConfig`] copy; the builder methods adjust the
/// toggles that used to be baked into separate entry-point functions.
/// Everything else (prefetcher, cache geometry, warmup length, fault
/// injection, …) is configured on the `SimConfig` before constructing the
/// session.
#[derive(Debug, Clone)]
pub struct SimSession {
    cfg: SimConfig,
    insts: u64,
    ckpt_every: u64,
    ckpt_dir: Option<PathBuf>,
    ckpt_name: String,
    stop: Option<Arc<AtomicBool>>,
}

impl SimSession {
    /// Starts a session from `cfg`. The measurement quota defaults to
    /// unset; call [`SimSession::instructions`] before running.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            cfg,
            insts: 0,
            ckpt_every: 0,
            ckpt_dir: None,
            ckpt_name: "checkpoint.snap".to_string(),
            stop: None,
        }
    }

    /// The configuration this session will run with (after builder
    /// adjustments).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Sets the per-core measurement quota: each core must commit this
    /// many instructions after warmup.
    pub fn instructions(mut self, insts: u64) -> Self {
        self.insts = insts;
        self
    }

    /// Enables (or disables) lifecycle tracing for the measurement window.
    /// Timing results are identical either way: tracing only observes.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.cfg.trace.enabled = enabled;
        self
    }

    /// Enables (or disables) CPI-stack cycle accounting: every result
    /// carries the stack decomposing its measurement window, and the
    /// interval sampler's time series comes back in
    /// [`RunOutput::timeline`]. Timing results are identical either way:
    /// accounting only observes.
    pub fn cpi(mut self, enabled: bool) -> Self {
        self.cfg.cpi.enabled = enabled;
        self
    }

    /// Arms periodic checkpointing: every `cycles` simulated cycles
    /// (rounded up to the loop's 1024-cycle poll grid) the full machine
    /// state is written atomically to a snapshot file in `dir` (created if
    /// missing; file name set by [`SimSession::checkpoint_name`]).
    ///
    /// A run resumed from any of these checkpoints with
    /// [`SimSession::resume`] produces byte-identical results to the
    /// uninterrupted run. With `cycles` of 0 the checkpoint is written
    /// only when the [`SimSession::stop_flag`] interrupts the run.
    pub fn checkpoint_every(mut self, cycles: u64, dir: impl Into<PathBuf>) -> Self {
        self.ckpt_every = cycles;
        self.ckpt_dir = Some(dir.into());
        self
    }

    /// Overrides the checkpoint file name inside the
    /// [`SimSession::checkpoint_every`] directory (default
    /// `checkpoint.snap`), so concurrent runs can share a directory.
    pub fn checkpoint_name(mut self, name: impl Into<String>) -> Self {
        self.ckpt_name = name.into();
        self
    }

    /// Installs a cooperative stop flag (e.g. set from a SIGINT handler):
    /// when it reads `true` at a poll point, the run writes a final
    /// checkpoint (if [`SimSession::checkpoint_every`] armed one) and
    /// returns [`SimError::Interrupted`].
    pub fn stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    /// Runs `programs`, one per core, measuring
    /// [`instructions`](SimSession::instructions) committed instructions
    /// per core after the configured warmup. Cores that reach their quota
    /// keep executing (continuing to contend for the shared LLC and DRAM)
    /// until every core has finished, as in the paper's multiprogrammed
    /// methodology.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the configuration fails
    /// [`SimConfig::validate`], [`SimError::Watchdog`] when no core
    /// commits for the configured window, [`SimError::CycleBudget`] when
    /// the cycle cap is exhausted, [`SimError::Interrupted`] when the
    /// [`SimSession::stop_flag`] fires, and [`SimError::Snapshot`] when an
    /// armed checkpoint cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or the instruction quota was never
    /// set.
    pub fn run(&self, programs: &[Program]) -> Result<RunOutput, SimError> {
        assert!(
            self.insts > 0,
            "set SimSession::instructions before running"
        );
        self.cfg.validate()?;
        let ctrl = RunCtrl {
            every: self.ckpt_every,
            path: self.ckpt_dir.as_ref().map(|d| d.join(&self.ckpt_name)),
            stop: self.stop.clone(),
            resume: None,
        };
        let _run_span = bfetch_prof::span_traced(bfetch_prof::SIM_RUN);
        let raw = crate::cmp::run_ctrl(programs, &self.cfg, self.insts, ctrl)?;
        Ok(wrap_output(programs.len(), raw))
    }

    /// Single-program convenience wrapper around [`SimSession::run`].
    pub fn run_one(&self, program: &Program) -> Result<RunOutput, SimError> {
        self.run(std::slice::from_ref(program))
    }

    /// Resumes a run from a checkpoint file and carries it to completion.
    ///
    /// Everything the run needs — configuration, programs, quota, machine
    /// state, partial results — lives in the checkpoint, so this takes
    /// nothing else. Periodic checkpointing stays armed with the stored
    /// cadence, overwriting the same file, so a run can be killed and
    /// resumed any number of times. The completed output is byte-identical
    /// to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] when the file is missing, truncated,
    /// bit-flipped, or version-skewed (the payload names the defect), plus
    /// everything [`SimSession::run`] can return.
    pub fn resume(path: impl AsRef<Path>) -> Result<RunOutput, SimError> {
        Self::resume_inner(path.as_ref(), None)
    }

    /// Like [`SimSession::resume`], with a cooperative stop flag installed
    /// (see [`SimSession::stop_flag`]) so the resumed run is itself
    /// interruptible.
    pub fn resume_with_stop(
        path: impl AsRef<Path>,
        stop: Arc<AtomicBool>,
    ) -> Result<RunOutput, SimError> {
        Self::resume_inner(path.as_ref(), Some(stop))
    }

    fn resume_inner(path: &Path, stop: Option<Arc<AtomicBool>>) -> Result<RunOutput, SimError> {
        let rs = crate::snapshot::read_checkpoint(path)?;
        let ctrl = RunCtrl {
            every: rs.every,
            path: Some(path.to_path_buf()),
            stop,
            resume: Some(Box::new(rs.state)),
        };
        let _run_span = bfetch_prof::span_traced(bfetch_prof::SIM_RUN);
        let raw = crate::cmp::run_ctrl(&rs.programs, &rs.cfg, rs.insts, ctrl)?;
        Ok(wrap_output(rs.programs.len(), raw))
    }
}

fn wrap_output(n: usize, (results, sink, timeline): RawRunOutput) -> RunOutput {
    let trace = sink.map(|s| {
        let (events, mut lifecycle) = s.into_parts();
        // A core that never emitted an event has no per-core slot yet;
        // pad so `lifecycle[i]` is valid for every core.
        lifecycle.resize(n, LifecycleCounts::default());
        TraceOutput { events, lifecycle }
    });
    RunOutput {
        results,
        trace,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use bfetch_isa::{ProgramBuilder, Reg};

    fn kernel() -> Program {
        let mut b = ProgramBuilder::new("session-test");
        let base = 0x100_0000u64;
        b.li(Reg::R1, base as i64);
        b.li(Reg::R2, (base + 64 * 1024) as i64);
        let top = b.label();
        b.bind(top);
        b.load(Reg::R4, Reg::R1, 0);
        b.add(Reg::R5, Reg::R5, Reg::R4);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.finish()
    }

    fn cfg() -> SimConfig {
        let mut c = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
        c.warmup_insts = 1_000;
        c
    }

    #[test]
    fn plain_run_has_no_trace_or_timeline() {
        let out = SimSession::new(cfg())
            .instructions(2_000)
            .run_one(&kernel())
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert!(out.trace.is_none());
        assert!(out.timeline.is_empty());
        assert!(out.results[0].cpi.is_none());
        assert!(out.results[0].instructions >= 2_000);
    }

    #[test]
    fn toggles_populate_their_outputs() {
        let mut c = cfg();
        // Sample often enough that a 2k-instruction window produces points.
        c.cpi.timeline_interval = 500;
        let out = SimSession::new(c)
            .trace(true)
            .cpi(true)
            .instructions(2_000)
            .run_one(&kernel())
            .unwrap();
        let trace = out.trace.expect("trace toggled on");
        assert_eq!(trace.lifecycle.len(), 1);
        assert!(trace.lifecycle[0].issued > 0);
        assert!(!out.timeline.is_empty());
        assert!(out.results[0].cpi.is_some());
    }

    #[test]
    fn into_single_unwraps_one_core() {
        let out = SimSession::new(cfg())
            .instructions(2_000)
            .run_one(&kernel())
            .unwrap();
        let r = out.into_single();
        assert!(r.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "instructions")]
    fn missing_quota_is_a_loud_error() {
        let _ = SimSession::new(cfg()).run_one(&kernel());
    }

    #[test]
    fn toggles_do_not_change_timing() {
        let plain = SimSession::new(cfg())
            .instructions(2_000)
            .run_one(&kernel())
            .unwrap();
        let observed = SimSession::new(cfg())
            .trace(true)
            .cpi(true)
            .instructions(2_000)
            .run_one(&kernel())
            .unwrap();
        assert_eq!(plain.results[0].cycles, observed.results[0].cycles);
        assert_eq!(plain.results[0].mem, observed.results[0].mem);
    }
}
