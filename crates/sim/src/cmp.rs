//! The CMP driver: lockstep multi-core simulation and measurement windows.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::config::SimConfig;
use crate::core::{Core, CoreCounters};
use crate::error::{DiagSnapshot, SimError};
use crate::snapshot::{self, ProgramFile};
use bfetch_core::EngineStats;
use bfetch_isa::Program;
use bfetch_mem::{
    drain_chip, AccessKind, AccessOutcome, ChipGuard, CoreMem, MemStats, MemoryInterface,
    MemorySystem, SharedMem,
};
use bfetch_stats::cpi::{CpiStack, TimelineSample};
use bfetch_stats::trace::{TraceSink, Tracer};
use bfetch_stats::StatsRegistry;

/// Measured results for one core over its measurement window (after
/// warmup).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: &'static str,
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// Instructions committed in the window.
    pub instructions: u64,
    /// Memory-system statistics over the window.
    pub mem: MemStats,
    /// Conditional branches fetched in the window.
    pub cond_branches: u64,
    /// Mispredicted conditional branches in the window.
    pub mispredicts: u64,
    /// Histogram of branches fetched per fetch-active cycle (0..=4).
    pub branch_fetch_hist: [u64; 5],
    /// B-Fetch engine statistics (when configured) over the window.
    pub engine: Option<EngineStats>,
    /// CPI-stack over the window, when `SimConfig::cpi` accounting was
    /// enabled (`None` otherwise — plain runs carry no accounting state).
    pub cpi: Option<CpiStack>,
}

impl RunResult {
    /// Instructions per cycle over the measurement window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate in `[0, 1]`.
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// L1D demand misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem.l1d_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Flattens every counter of this result into a [`StatsRegistry`] with
    /// hierarchical names (`core.*`, `l1d.*`, `prefetch.*`, `bfetch.*`), so
    /// tooling can enumerate and diff runs without knowing the struct
    /// layout.
    pub fn registry(&self) -> StatsRegistry {
        let mut r = StatsRegistry::new();
        r.set("core.cycles", self.cycles);
        r.set("core.instructions", self.instructions);
        r.set("core.cond_branches", self.cond_branches);
        r.set("core.mispredicts", self.mispredicts);
        r.set_hist("core.branch_fetch_hist", &self.branch_fetch_hist);
        let m = &self.mem;
        r.set("mem.loads", m.loads);
        r.set("mem.stores", m.stores);
        r.set("mem.inst_fetches", m.inst_fetches);
        r.set("mem.writebacks", m.writebacks);
        r.set("l1i.misses", m.l1i_misses);
        r.set("l1d.hits", m.l1d_hits);
        r.set("l1d.misses", m.l1d_misses);
        r.set("l2.hits", m.l2_hits);
        r.set("l3.hits", m.l3_hits);
        r.set("dram.reqs", m.dram_reqs);
        r.set("mshr.merges", m.mshr_merges);
        r.set("prefetch.issued", m.prefetch_issued);
        r.set("prefetch.redundant", m.prefetch_redundant);
        r.set("prefetch.useful", m.prefetch_useful);
        r.set("prefetch.useless", m.prefetch_useless);
        r.set("prefetch.late", m.prefetch_late);
        r.set("prefetch.mshr_drops", m.prefetch_mshr_drops);
        if let Some(e) = &self.engine {
            r.set("bfetch.lookaheads", e.lookaheads);
            r.set("bfetch.branches_walked", e.branches_walked);
            r.set("bfetch.stops.confidence", e.confidence_stops);
            r.set("bfetch.stops.brtc", e.brtc_stops);
            r.set("bfetch.stops.depth", e.depth_stops);
            r.set("bfetch.candidates", e.candidates);
            r.set("bfetch.filtered", e.filtered);
            r.set("bfetch.queue_overflow", e.queue_overflow);
            r.set("bfetch.dbr_dropped", e.dbr_dropped);
        }
        // emitted only when accounting ran, so registries (and the golden
        // fixtures rendered from them) of plain runs are unchanged
        if let Some(cpi) = &self.cpi {
            cpi.fill_registry(&mut r);
        }
        r
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Snapshot {
    pub(crate) committed: u64,
    pub(crate) counters: CoreCounters,
    pub(crate) mem: MemStats,
    pub(crate) engine: Option<EngineStats>,
    pub(crate) cycle: u64,
}

bfetch_snapshot::impl_snap_struct!(Snapshot {
    committed,
    counters,
    mem,
    engine,
    cycle
});

/// Out-of-band run control: checkpoint cadence/destination, cooperative
/// stop, and a restored state to continue from. The default arms nothing,
/// and the loop skips the whole control path in that case, so a plain run
/// pays nothing for the machinery.
pub(crate) struct RunCtrl {
    /// Write a checkpoint every this many cycles (0 = only on stop).
    pub(crate) every: u64,
    /// Where checkpoints go; `None` disables writing entirely.
    pub(crate) path: Option<PathBuf>,
    /// The program file this run's state files name: written at the first
    /// checkpoint of a fresh run, the resumed state file's for a resume.
    pub(crate) program_file: Option<ProgramFile>,
    /// Cooperative stop: when set, the run checkpoints (if armed) and
    /// returns [`SimError::Interrupted`] at the next poll point.
    pub(crate) stop: Option<Arc<AtomicBool>>,
    /// Continue from this restored state instead of constructing fresh.
    pub(crate) resume: Option<Box<LoopState>>,
}

/// How often the loop polls the stop flag and checkpoint cadence: every
/// 1024 cycles, as a single masked compare on the hot path. Checkpoints
/// and interrupts therefore land on multiples of 1024. The poll point is
/// the top of the cycle loop, *before* the cycle-start drain: every fill
/// still queued there completes at or after `now`, no core is mid-step,
/// and each core's feedback queue and scheduled-minimum note are empty —
/// so [`LoopState`] is the whole machine and a resume re-enters the loop
/// exactly where the interrupted run stood.
pub(crate) const POLL_MASK: u64 = 1023;

/// Everything the cycle loop carries from one cycle to the next: the
/// machine and the driver's own bookkeeping. A checkpoint serializes
/// exactly this (plus the run's identity), and both ways of starting a
/// run — [`LoopState::fresh`] and `snapshot::read_checkpoint` — produce
/// one, so the loop below has a single entry.
pub(crate) struct LoopState {
    pub(crate) cores: Vec<Core>,
    pub(crate) mems: Vec<CoreMem>,
    pub(crate) shared: SharedMem,
    pub(crate) guard: ChipGuard,
    /// The cycle about to execute.
    pub(crate) now: u64,
    /// Watchdog re-check deadline (`u64::MAX` when the watchdog is off).
    pub(crate) wd_deadline: u64,
    /// Committed-instruction total at the last watchdog check.
    pub(crate) wd_committed: u64,
    /// Whether injected-fault freezing has triggered.
    pub(crate) frozen: bool,
    /// Measurement-window baselines: `None` while warming up, and
    /// snapshotting them marks the start of the window.
    pub(crate) snaps: Option<Vec<Snapshot>>,
    /// Per-core banked results (`None` until that core reaches quota).
    pub(crate) finished: Vec<Option<RunResult>>,
    /// The lifecycle tracer, once the measurement window of a traced run
    /// has started.
    pub(crate) tracer: Option<Tracer>,
}

impl LoopState {
    /// A cold machine at cycle 0.
    fn fresh(programs: &[Program], cfg: &SimConfig) -> Self {
        let n = programs.len();
        let (mems, shared) = MemorySystem::new(cfg.hierarchy(n)).into_parts();
        let wd = cfg.watchdog_cycles;
        Self {
            cores: programs
                .iter()
                .enumerate()
                .map(|(i, p)| Core::new(i, p.clone(), cfg))
                .collect(),
            mems,
            shared,
            guard: ChipGuard::new(),
            now: 0,
            wd_deadline: if wd > 0 { wd } else { u64::MAX },
            wd_committed: 0,
            frozen: false,
            snaps: None,
            finished: (0..n).map(|_| None).collect(),
            tracer: None,
        }
    }

    /// Hands every core and private hierarchy a clone of `t` and keeps the
    /// original for the end-of-run sink.
    pub(crate) fn install_tracer(&mut self, t: Tracer) {
        for m in self.mems.iter_mut() {
            m.set_tracer(t.clone());
        }
        for c in self.cores.iter_mut() {
            c.set_tracer(&t);
        }
        self.tracer = Some(t);
    }
}

pub(crate) fn hist_delta(now: &[u64; 5], then: &[u64; 5]) -> [u64; 5] {
    let mut h = [0u64; 5];
    for i in 0..5 {
        h[i] = now[i] - then[i];
    }
    h
}

// Deterministic fault injection (see `FaultInjection`): fires once any
// core's total committed count crosses a trigger. Only called when a
// trigger is armed, so production runs never pay for the scan.
fn check_faults(cfg: &SimConfig, cores: &[Core], frozen: &mut bool) {
    let f = &cfg.fault;
    if f.panic_at_insts > 0 {
        for c in cores {
            let done = c.counters().committed;
            if done >= f.panic_at_insts {
                panic!(
                    "injected fault: core panicked after {done} committed instructions \
                     (panic_at_insts={})",
                    f.panic_at_insts
                );
            }
        }
    }
    if f.freeze_at_insts > 0
        && cores
            .iter()
            .any(|c| c.counters().committed >= f.freeze_at_insts)
    {
        *frozen = true;
    }
}

fn snapshot_cores(cores: &[Core], mems: &[CoreMem], now: u64) -> DiagSnapshot {
    DiagSnapshot {
        cycle: now,
        cores: cores.iter().zip(mems).map(|(c, m)| c.diag(m)).collect(),
    }
}

/// The memory system as a stepping core sees it: its private hierarchy
/// plus the shared levels, borrowed directly for the duration of one
/// [`Core::cycle`] call.
///
/// This replaces driving cores through the [`MemorySystem`] facade, whose
/// per-access ceremony (a chip-drain guard check, a core-index bounds
/// check, and a scheduled-minimum note) is pure overhead inside a cycle:
/// fills complete strictly in the future, so the cycle-start [`drain_chip`]
/// already anchors the install point, and the guard notes are equivalent
/// when taken once per core at end of cycle (see the per-cycle loop).
pub struct SeqMem<'a> {
    mem: &'a mut CoreMem,
    shared: &'a mut SharedMem,
}

impl<'a> SeqMem<'a> {
    /// Borrows one core's private hierarchy plus the shared levels for one
    /// [`Core::cycle`] call. Public so the hot-path microbenches can step
    /// the exact view the cycle loop uses.
    pub fn new(mem: &'a mut CoreMem, shared: &'a mut SharedMem) -> Self {
        Self { mem, shared }
    }
}

impl MemoryInterface for SeqMem<'_> {
    fn access(&mut self, core: usize, kind: AccessKind, addr: u64, now: u64) -> AccessOutcome {
        debug_assert_eq!(core, self.mem.id());
        self.mem.access(self.shared, kind, addr, now)
    }

    fn prefetch(&mut self, core: usize, addr: u64, pc_hash: u16, now: u64) -> Option<u64> {
        debug_assert_eq!(core, self.mem.id());
        self.mem.prefetch(self.shared, addr, pc_hash, now)
    }

    fn stats(&self, core: usize) -> &MemStats {
        debug_assert_eq!(core, self.mem.id());
        self.mem.stats()
    }

    fn mshr_live(&self, core: usize) -> usize {
        debug_assert_eq!(core, self.mem.id());
        self.mem.mshr_live()
    }

    fn pf_mshr_live(&self, core: usize) -> usize {
        debug_assert_eq!(core, self.mem.id());
        self.mem.pf_mshr_live()
    }
}

/// Everything one CMP run produces, in raw form: per-core results, the
/// optional lifecycle trace sink, and the interval timeline.
/// [`crate::SimSession`] wraps this into the public
/// [`crate::session::RunOutput`].
pub(crate) type RawRunOutput = (Vec<RunResult>, Option<TraceSink>, Vec<TimelineSample>);

pub(crate) fn run_ctrl(
    programs: &[Program],
    cfg: &SimConfig,
    insts: u64,
    mut ctrl: RunCtrl,
) -> Result<RawRunOutput, SimError> {
    assert!(!programs.is_empty(), "need at least one program");
    assert!(insts > 0, "need a nonzero instruction quota");
    // Cores step against a borrowed `SeqMem` view of the split hierarchy,
    // so the facade's per-access ceremony (guard check + bounds check +
    // sched-min note) is hoisted out of the cycle loop entirely. This is
    // equivalent because fills complete strictly in the future: nothing a
    // core schedules during cycle `now` can be due at `now`, so the one
    // cycle-start `drain_chip` installs exactly what the facade's
    // per-access drains would, and noting each core's scheduled minimum
    // once at end of cycle reaches the guard before the next cycle's
    // drain — the only point that reads it.
    let hard_cap: u64 = if cfg.max_cycles > 0 {
        cfg.max_cycles
    } else {
        // `insts` is the caller's, not a validated knob: saturate
        cfg.warmup_insts
            .saturating_add(insts)
            .saturating_mul(600)
            .saturating_add(4_000_000)
    };
    // Forward-progress watchdog: one compare per cycle against a deadline;
    // the (more expensive) committed-total sum is recomputed only when the
    // deadline passes, so a stall is caught within [wd, 2*wd] cycles.
    let wd = cfg.watchdog_cycles;
    // Fault injection (testing only): false in production configs.
    let fault_on = cfg.fault.active();

    // One unified loop covers warmup and measurement, fresh and resumed.
    let mut st = match ctrl.resume.take() {
        Some(resumed) => *resumed,
        None => LoopState::fresh(programs, cfg),
    };
    let mut remaining = st.finished.iter().filter(|f| f.is_none()).count();

    // Control-path state: polled with one masked compare per cycle when
    // armed, skipped entirely otherwise (a plain run's loop is unchanged).
    // `start_now` keeps the first iteration from re-firing the poll a
    // resumed or stopped run already handled at this cycle.
    let ctrl_on = ctrl.path.is_some() || ctrl.stop.is_some();
    let start_now = st.now;
    let mut last_ckpt = st.now;

    // Quiescent-cycle skipping (DESIGN.md §13.5). `wake[i]` is the first
    // cycle at which core `i`'s full step would do anything; until then the
    // core is only charged its idle side effects. Wake times are a pure
    // function of core state, recomputed after every full step, so they
    // live here and not in `LoopState`: a resumed run derives the same
    // values a fresh one holds at that cycle.
    let mut wake: Vec<u64> = st.cores.iter().map(|c| c.wake_at(st.now)).collect();

    loop {
        if ctrl_on && st.now & POLL_MASK == 0 && st.now != start_now {
            let stop_hit = ctrl.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst));
            let due = ctrl.every > 0 && st.now - last_ckpt >= ctrl.every;
            if let (true, Some(path)) = (stop_hit || due, ctrl.path.as_ref()) {
                let file = match ctrl.program_file {
                    Some(ref file) => file,
                    None => ctrl
                        .program_file
                        .insert(snapshot::write_programs(path, programs)?),
                };
                snapshot::write_checkpoint(path, cfg, file, insts, ctrl.every, &st)?;
                last_ckpt = st.now;
            }
            if stop_hit {
                return Err(SimError::Interrupted { cycle: st.now });
            }
        }
        // Install every fill due by `now` before any core steps (fills are
        // always scheduled strictly in the future, so the install point is
        // cycle-aligned).
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_DRAIN);
            drain_chip(&mut st.mems, &mut st.shared, st.now, &mut st.guard);
        }
        // Feedback and guard notes are fused into the stepping pass: a
        // core's feedback queue is only fed by the cycle-start drain above
        // and by its own step, and the guard is only read by the *next*
        // cycle's drain, so draining right after each core steps delivers
        // the identical events in the identical order while touching each
        // core's state once per cycle instead of twice. A sleeping core
        // still takes its feedback every cycle (the drain above may have
        // evicted one of its unused prefetches, and the filter must see
        // that before the walk that next reads it) but schedules nothing,
        // so it has no guard note.
        // One sim.step span covers the whole per-cycle core pass: a single
        // span per cycle (instead of one per core) keeps the profiler's
        // unaccounted inter-span gap under the coverage gate.
        // A frozen (injected livelock) chip does nothing at all, not even
        // idle accounting, until the watchdog or the cycle budget fires.
        let mut next_wake = u64::MAX;
        if !st.frozen {
            let _p = bfetch_prof::span(bfetch_prof::SIM_STEP);
            let per_core = st.cores.iter_mut().zip(&mut st.mems).zip(&mut wake);
            for ((c, m), w) in per_core {
                if *w > st.now {
                    c.skip_idle(st.now, st.now + 1);
                } else {
                    c.cycle(
                        st.now,
                        &mut SeqMem {
                            mem: m,
                            shared: &mut st.shared,
                        },
                    );
                    st.guard.note(m.take_sched_min());
                    *w = c.wake_at(st.now + 1);
                }
                m.drain_feedback(|fb| c.feedback(fb.pc_hash, fb.useful));
                next_wake = next_wake.min(*w);
            }
            if fault_on {
                check_faults(cfg, &st.cores, &mut st.frozen);
            }
        }
        let _bookkeep = bfetch_prof::span(bfetch_prof::SIM_BOOKKEEP);
        st.now += 1;

        match &st.snaps {
            None => {
                if st
                    .cores
                    .iter()
                    .all(|c| c.counters().committed >= cfg.warmup_insts)
                {
                    // The tracer is installed at the warmup/measurement
                    // boundary so the event stream and lifecycle tallies
                    // cover exactly the measurement window.
                    if cfg.trace.enabled {
                        st.install_tracer(Tracer::enabled(&cfg.trace));
                    }
                    // CPI accounting starts at the same point: the stack's
                    // cycle count then equals the measurement window exactly
                    // (the sum invariant is checked against
                    // `RunResult::cycles`).
                    if cfg.cpi.enabled {
                        for (c, m) in st.cores.iter_mut().zip(st.mems.iter()) {
                            c.enable_cpi(&cfg.cpi, m);
                        }
                    }
                    st.snaps = Some(
                        st.cores
                            .iter()
                            .zip(st.mems.iter())
                            .map(|(c, m)| Snapshot {
                                committed: c.counters().committed,
                                counters: *c.counters(),
                                mem: *m.stats(),
                                engine: c.engine().map(|e| *e.stats()),
                                cycle: st.now,
                            })
                            .collect(),
                    );
                    // The old two-loop engine broke out of warmup before its
                    // watchdog/budget checks on the completing cycle; keep
                    // that cycle-for-cycle behavior.
                    continue;
                }
            }
            Some(snaps) => {
                for (i, c) in st.cores.iter().enumerate() {
                    if st.finished[i].is_some() {
                        continue;
                    }
                    let snap = &snaps[i];
                    if c.counters().committed - snap.committed >= insts {
                        let counters = c.counters();
                        st.finished[i] = Some(RunResult {
                            workload: c.program_name().to_string(),
                            prefetcher: cfg.prefetcher.name(),
                            cycles: st.now - snap.cycle,
                            instructions: counters.committed - snap.committed,
                            mem: st.mems[i].stats().delta(&snap.mem),
                            cond_branches: counters.cond_branches - snap.counters.cond_branches,
                            mispredicts: counters.mispredicts - snap.counters.mispredicts,
                            branch_fetch_hist: hist_delta(
                                &counters.branch_fetch_hist,
                                &snap.counters.branch_fetch_hist,
                            ),
                            engine: c
                                .engine()
                                .map(|e| e.stats().delta(&snap.engine.expect("snapshot taken"))),
                            // snapshot at quota time: committed_slots == the
                            // window's instruction count and cycles == the
                            // window's cycles, even though fast cores keep
                            // running (and sampling) until every core
                            // finishes
                            cpi: c.cpi_stack().copied(),
                        });
                        remaining -= 1;
                    }
                }
                if remaining == 0 {
                    break;
                }
            }
        }
        // Every core asleep: no core and no fill has work before `target`,
        // so the clock jumps there, each core charged its idle cycles in
        // one batch. The clamps keep every check firing at the cycle it
        // would fire at stepping one by one: the fill drain and MSHR
        // expiry (`next_due`), the poll point and port-ring sweep (the
        // next 1024-cycle boundary, which `wake_at` never passes either),
        // and the two checks below, which then see `target` itself.
        if !st.frozen && next_wake > st.now {
            let boundary = (st.now + POLL_MASK) & !POLL_MASK;
            let target = next_wake
                .min(st.guard.next_due())
                .min(boundary)
                .min(st.wd_deadline)
                .min(hard_cap);
            if target > st.now {
                for c in st.cores.iter_mut() {
                    c.skip_idle(st.now, target);
                }
                st.now = target;
            }
        }
        if st.now >= st.wd_deadline {
            let total: u64 = st.cores.iter().map(|c| c.counters().committed).sum();
            if total == st.wd_committed {
                return Err(SimError::Watchdog {
                    cycle: st.now,
                    idle_cycles: wd,
                    snapshot: snapshot_cores(&st.cores, &st.mems, st.now),
                });
            }
            st.wd_committed = total;
            st.wd_deadline = st.now + wd;
        }
        if st.now >= hard_cap {
            return Err(SimError::CycleBudget {
                phase: if st.snaps.is_none() {
                    "warmup"
                } else {
                    "measurement"
                },
                cycle: st.now,
                limit: hard_cap,
            });
        }
    }

    let LoopState {
        mut cores,
        mems,
        finished,
        tracer,
        ..
    } = st;
    let results = finished
        .into_iter()
        .map(|r| r.expect("all finished"))
        .collect();
    let timeline: Vec<TimelineSample> = cores.iter_mut().flat_map(Core::take_timeline).collect();
    // Release the cores' and hierarchy's tracer clones so `finish` can
    // unwrap the shared sink without copying it.
    drop(cores);
    drop(mems);
    Ok((results, tracer.and_then(|t| t.finish()), timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use crate::session::SimSession;
    use bfetch_isa::{ProgramBuilder, Reg};
    use bfetch_stats::trace::{LifecycleCounts, TraceEvent};

    // The historical free-function surface, kept as local helpers so the
    // behavioral tests below read unchanged on top of `SimSession`.
    fn run_single(p: &Program, cfg: &SimConfig, insts: u64) -> RunResult {
        SimSession::new(cfg.clone())
            .instructions(insts)
            .run_one(p)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_single()
    }

    fn run_multi(programs: &[Program], cfg: &SimConfig, insts: u64) -> Vec<RunResult> {
        SimSession::new(cfg.clone())
            .instructions(insts)
            .run(programs)
            .unwrap_or_else(|e| panic!("{e}"))
            .results
    }

    fn try_run_single(p: &Program, cfg: &SimConfig, insts: u64) -> Result<RunResult, SimError> {
        SimSession::new(cfg.clone())
            .instructions(insts)
            .run_one(p)
            .map(crate::session::RunOutput::into_single)
    }

    struct TracedRun {
        results: Vec<RunResult>,
        events: Vec<TraceEvent>,
        lifecycle: Vec<LifecycleCounts>,
    }

    fn run_multi_traced(programs: &[Program], cfg: &SimConfig, insts: u64) -> TracedRun {
        let out = SimSession::new(cfg.clone())
            .trace(true)
            .instructions(insts)
            .run(programs)
            .unwrap_or_else(|e| panic!("{e}"));
        let trace = out.trace.expect("tracing was forced on");
        TracedRun {
            results: out.results,
            events: trace.events,
            lifecycle: trace.lifecycle,
        }
    }

    fn run_single_traced(p: &Program, cfg: &SimConfig, insts: u64) -> TracedRun {
        run_multi_traced(std::slice::from_ref(p), cfg, insts)
    }

    struct CpiRun {
        results: Vec<RunResult>,
        timeline: Vec<TimelineSample>,
    }

    fn run_multi_cpi(programs: &[Program], cfg: &SimConfig, insts: u64) -> CpiRun {
        let out = SimSession::new(cfg.clone())
            .cpi(true)
            .instructions(insts)
            .run(programs)
            .unwrap_or_else(|e| panic!("{e}"));
        CpiRun {
            results: out.results,
            timeline: out.timeline,
        }
    }

    fn run_single_cpi(p: &Program, cfg: &SimConfig, insts: u64) -> CpiRun {
        run_multi_cpi(std::slice::from_ref(p), cfg, insts)
    }

    /// A latency-bound streaming kernel: one load per 64 B line plus ~28
    /// ALU operations of per-line compute, so memory-level parallelism is
    /// ROB-limited and prefetching genuinely hides latency (a pure
    /// back-to-back miss stream would be DRAM-bandwidth-bound, where no
    /// prefetcher can help).
    fn stream_kernel(words: u64) -> Program {
        let mut b = ProgramBuilder::new("stream-test");
        let base = 0x100_0000u64;
        b.li(Reg::R1, base as i64);
        b.li(Reg::R2, (base + words * 8) as i64);
        b.li(Reg::R3, 0);
        let top = b.label();
        b.bind(top);
        b.load(Reg::R4, Reg::R1, 0);
        for _ in 0..14 {
            b.add(Reg::R5, Reg::R5, Reg::R4);
            b.xor(Reg::R6, Reg::R6, Reg::R5);
        }
        b.add(Reg::R3, Reg::R3, Reg::R6);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.finish()
    }

    fn quick_cfg(kind: PrefetcherKind) -> SimConfig {
        let mut c = SimConfig::baseline().with_prefetcher(kind);
        c.warmup_insts = 2_000;
        c
    }

    #[test]
    fn ipc_is_sane() {
        let p = stream_kernel(64 * 1024);
        let r = run_single(&p, &quick_cfg(PrefetcherKind::None), 20_000);
        let ipc = r.ipc();
        assert!(ipc > 0.05 && ipc < 4.0, "baseline IPC {ipc} out of range");
        assert!(r.instructions >= 20_000);
    }

    #[test]
    fn perfect_prefetcher_beats_baseline() {
        let p = stream_kernel(64 * 1024);
        let base = run_single(&p, &quick_cfg(PrefetcherKind::None), 20_000);
        let perf = run_single(&p, &quick_cfg(PrefetcherKind::Perfect), 20_000);
        assert!(
            perf.ipc() > base.ipc() * 1.3,
            "perfect {} should clearly beat baseline {}",
            perf.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn stride_prefetcher_helps_streaming() {
        let p = stream_kernel(64 * 1024);
        let base = run_single(&p, &quick_cfg(PrefetcherKind::None), 20_000);
        let stride = run_single(&p, &quick_cfg(PrefetcherKind::Stride), 20_000);
        assert!(
            stride.ipc() > base.ipc() * 1.1,
            "stride {} vs baseline {}",
            stride.ipc(),
            base.ipc()
        );
        assert!(stride.mem.prefetch_issued > 0);
        assert!(stride.mem.prefetch_useful > 0);
    }

    #[test]
    fn bfetch_helps_streaming() {
        let p = stream_kernel(64 * 1024);
        let base = run_single(&p, &quick_cfg(PrefetcherKind::None), 20_000);
        let bf = run_single(&p, &quick_cfg(PrefetcherKind::BFetch), 20_000);
        let e = bf.engine.expect("engine stats present");
        assert!(e.lookaheads > 0, "engine never walked: {e:?}");
        assert!(bf.mem.prefetch_issued > 0, "no prefetches issued: {e:?}");
        assert!(
            bf.ipc() > base.ipc() * 1.1,
            "bfetch {} vs baseline {} ({e:?})",
            bf.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let p = stream_kernel(16 * 1024);
        let a = run_single(&p, &quick_cfg(PrefetcherKind::Sms), 10_000);
        let b = run_single(&p, &quick_cfg(PrefetcherKind::Sms), 10_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem.prefetch_issued, b.mem.prefetch_issued);
        assert_eq!(a.mispredicts, b.mispredicts);
    }

    #[test]
    fn branch_predictor_learns_the_loop() {
        let p = stream_kernel(64 * 1024);
        let r = run_single(&p, &quick_cfg(PrefetcherKind::None), 20_000);
        assert!(
            r.branch_mispredict_rate() < 0.05,
            "loop branch should be predictable, rate {}",
            r.branch_mispredict_rate()
        );
    }

    #[test]
    fn two_cores_share_bandwidth() {
        let p = stream_kernel(64 * 1024);
        let solo = run_single(&p, &quick_cfg(PrefetcherKind::None), 10_000);
        let duo = run_multi(
            &[p.clone(), p.clone()],
            &quick_cfg(PrefetcherKind::None),
            10_000,
        );
        assert_eq!(duo.len(), 2);
        for r in &duo {
            assert!(
                r.ipc() <= solo.ipc() * 1.05,
                "shared run cannot beat solo: {} vs {}",
                r.ipc(),
                solo.ipc()
            );
        }
    }

    #[test]
    fn fetch_histogram_accumulates() {
        let p = stream_kernel(8 * 1024);
        let r = run_single(&p, &quick_cfg(PrefetcherKind::None), 5_000);
        let total: u64 = r.branch_fetch_hist.iter().sum();
        assert!(total > 0);
        assert!(r.branch_fetch_hist[1] > 0, "{:?}", r.branch_fetch_hist);
    }

    #[test]
    fn tracing_does_not_change_results() {
        let p = stream_kernel(32 * 1024);
        let cfg = quick_cfg(PrefetcherKind::BFetch);
        let plain = run_single(&p, &cfg, 10_000);
        let traced = run_single_traced(&p, &cfg, 10_000);
        assert_eq!(plain, traced.results[0], "tracing must only observe");
        assert!(!traced.events.is_empty(), "traced run recorded no events");
    }

    #[test]
    fn lifecycle_matches_mem_stats() {
        let p = stream_kernel(32 * 1024);
        let traced = run_single_traced(&p, &quick_cfg(PrefetcherKind::BFetch), 10_000);
        let r = &traced.results[0];
        let lc = &traced.lifecycle[0];
        // The event stream and MemStats count the same underlying facts
        // over the same (post-warmup) window.
        assert_eq!(lc.useful(), r.mem.prefetch_useful, "useful mismatch");
        assert_eq!(lc.evicted_unused, r.mem.prefetch_useless, "unused mismatch");
        assert_eq!(lc.merged_late, r.mem.prefetch_late, "late mismatch");
        // DemandMiss is emitted for every data-side L1D miss not covered by
        // a prefetch merge.
        assert_eq!(
            lc.demand_misses,
            r.mem.l1d_misses - r.mem.prefetch_late,
            "demand-miss identity"
        );
        assert!(lc.issued > 0 && lc.filled > 0);
        let m = lc.metrics();
        assert!(m.accuracy > 0.0 && m.accuracy <= 1.0);
        assert!(m.coverage > 0.0 && m.coverage <= 1.0);
    }

    #[test]
    fn registry_flattens_counters() {
        let p = stream_kernel(16 * 1024);
        let r = run_single(&p, &quick_cfg(PrefetcherKind::BFetch), 5_000);
        let reg = r.registry();
        assert_eq!(reg.get("core.cycles"), r.cycles);
        assert_eq!(reg.get("l1d.misses"), r.mem.l1d_misses);
        assert_eq!(reg.get("prefetch.issued"), r.mem.prefetch_issued);
        assert_eq!(reg.get("core.branch_fetch_hist.1"), r.branch_fetch_hist[1]);
        assert!(reg.contains("bfetch.lookaheads"));
        // Snapshot/delta over a registry built from the same result is zero.
        let snap = reg.snapshot();
        assert!(reg.delta(&snap).iter().all(|(_, v)| v == 0));
    }

    #[test]
    fn cpi_accounting_does_not_change_results() {
        let p = stream_kernel(32 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::BFetch);
        cfg.cpi.timeline_interval = 2_500;
        let plain = run_single(&p, &cfg, 10_000);
        let cpi = run_single_cpi(&p, &cfg, 10_000);
        let mut accounted = cpi.results[0].clone();
        let stack = accounted.cpi.take().expect("accounting was forced on");
        assert_eq!(plain, accounted, "accounting must only observe");
        assert!(stack.cycles > 0);
        assert!(
            !cpi.timeline.is_empty(),
            "sampler must fire within 10k insts"
        );
    }

    #[test]
    fn cpi_stack_sums_to_width_times_cycles() {
        let p = stream_kernel(32 * 1024);
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::BFetch,
        ] {
            let run = run_single_cpi(&p, &quick_cfg(kind), 10_000);
            let r = &run.results[0];
            let stack = r.cpi.as_ref().expect("accounting on");
            assert!(stack.holds_invariant(), "{kind:?}: {stack:?}");
            // the stack covers exactly the measurement window
            assert_eq!(stack.cycles, r.cycles, "{kind:?}");
            assert_eq!(stack.committed_slots, r.instructions, "{kind:?}");
            assert_eq!(stack.total_slots(), stack.width * r.cycles, "{kind:?}");
        }
    }

    #[test]
    fn memory_bound_kernel_charges_memory_components() {
        let p = stream_kernel(64 * 1024);
        let base = run_single_cpi(&p, &quick_cfg(PrefetcherKind::None), 20_000);
        let bf = run_single_cpi(&p, &quick_cfg(PrefetcherKind::BFetch), 20_000);
        let s_base = base.results[0].cpi.unwrap();
        let s_bf = bf.results[0].cpi.unwrap();
        // the streaming kernel stalls on memory without a prefetcher...
        assert!(
            s_base.memory_cpi() > 0.3 * s_base.cpi(),
            "baseline memory share too small: {} of {}",
            s_base.memory_cpi(),
            s_base.cpi()
        );
        // ...and B-Fetch's speedup shows up as a shrunken memory component
        assert!(
            s_bf.memory_cpi() < s_base.memory_cpi(),
            "bfetch {} vs baseline {}",
            s_bf.memory_cpi(),
            s_base.memory_cpi()
        );
    }

    #[test]
    fn timeline_samples_are_exact_interval_deltas() {
        let p = stream_kernel(32 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::Stride);
        cfg.cpi.timeline_interval = 2_000;
        let run = run_single_cpi(&p, &cfg, 10_000);
        assert!(run.timeline.len() >= 5, "{} samples", run.timeline.len());
        let mut insts = 0;
        let mut cycles = 0;
        for (i, s) in run.timeline.iter().enumerate() {
            assert_eq!(s.core, 0);
            assert_eq!(s.index as usize, i);
            insts += s.interval_instructions;
            cycles += s.interval_cycles;
            // cumulative fields re-derive from the interval fields
            assert_eq!(s.instructions, insts);
            assert_eq!(s.cycle, cycles);
            // the sampler fires within one commit-group of the boundary
            assert!(s.instructions >= (i as u64 + 1) * 2_000);
            assert!(s.instructions < (i as u64 + 1) * 2_000 + cfg.width as u64);
        }
    }

    #[test]
    fn multi_core_cpi_stacks_are_per_core() {
        let p = stream_kernel(16 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::None);
        cfg.cpi.timeline_interval = 1_000;
        let run = run_multi_cpi(&[p.clone(), p.clone()], &cfg, 5_000);
        assert_eq!(run.results.len(), 2);
        for (i, r) in run.results.iter().enumerate() {
            let stack = r.cpi.as_ref().expect("accounting on");
            assert!(stack.holds_invariant(), "core {i}");
            assert_eq!(stack.cycles, r.cycles, "core {i}");
        }
        assert!(run.timeline.iter().any(|s| s.core == 0));
        assert!(run.timeline.iter().any(|s| s.core == 1));
    }

    #[test]
    fn watchdog_catches_injected_livelock() {
        let p = stream_kernel(16 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::None);
        cfg.watchdog_cycles = 2_000;
        cfg.fault.freeze_at_insts = 4_000;
        let err = try_run_single(&p, &cfg, 10_000).expect_err("frozen run must abort");
        match &err {
            crate::SimError::Watchdog {
                idle_cycles,
                snapshot,
                ..
            } => {
                assert_eq!(*idle_cycles, 2_000);
                assert_eq!(snapshot.cores.len(), 1);
                assert!(snapshot.cores[0].committed >= 4_000);
            }
            other => panic!("expected watchdog, got {other}"),
        }
        // deterministic: same config, same abort
        let err2 = try_run_single(&p, &cfg, 10_000).expect_err("still aborts");
        assert_eq!(err, err2);
    }

    #[test]
    fn cycle_budget_is_a_typed_error_when_watchdog_off() {
        let p = stream_kernel(16 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::None);
        cfg.watchdog_cycles = 0; // force the budget to be the backstop
        cfg.max_cycles = 30_000;
        cfg.fault.freeze_at_insts = 4_000;
        let err = try_run_single(&p, &cfg, 10_000).expect_err("frozen run must abort");
        assert!(
            matches!(err, crate::SimError::CycleBudget { limit: 30_000, .. }),
            "expected budget error, got {err}"
        );
    }

    /// The derived budget saturates: the largest warmup `validate` accepts
    /// plus a `u64::MAX` quota used to overflow computing it.
    #[test]
    fn the_derived_cycle_budget_saturates_at_the_warmup_bound() {
        let p = stream_kernel(16 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::None).with_warmup(crate::config::MAX_RUN_LENGTH);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.watchdog_cycles = 2_000;
        cfg.fault.freeze_at_insts = 4_000;
        let err = try_run_single(&p, &cfg, u64::MAX).expect_err("frozen run must abort");
        assert!(matches!(err, crate::SimError::Watchdog { .. }), "got {err}");
    }

    #[test]
    fn injected_panic_fires_deterministically() {
        let p = stream_kernel(16 * 1024);
        let mut cfg = quick_cfg(PrefetcherKind::None);
        cfg.fault.panic_at_insts = 3_000;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_run_single(&p, &cfg, 10_000)
        }))
        .expect_err("injection must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "panic message: {msg}");
    }

    #[test]
    fn watchdog_default_does_not_perturb_healthy_runs() {
        let p = stream_kernel(16 * 1024);
        let cfg = quick_cfg(PrefetcherKind::Stride);
        let mut off = cfg.clone();
        off.watchdog_cycles = 0;
        let a = run_single(&p, &cfg, 10_000);
        let b = run_single(&p, &off, 10_000);
        assert_eq!(a, b, "watchdog must only observe");
    }

    #[test]
    fn multi_core_lifecycle_is_per_core() {
        let p = stream_kernel(16 * 1024);
        let traced = run_multi_traced(
            &[p.clone(), p.clone()],
            &quick_cfg(PrefetcherKind::Stride),
            5_000,
        );
        assert_eq!(traced.lifecycle.len(), 2);
        for (i, lc) in traced.lifecycle.iter().enumerate() {
            assert!(lc.issued > 0, "core {i} issued no prefetches");
        }
    }
}
