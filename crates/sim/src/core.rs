//! The cycle-stepped out-of-order core timing model.
//!
//! Functional state advances on the correct path at fetch
//! ("execute-at-fetch"); timing is modelled with an analytically scheduled
//! dataflow pipeline:
//!
//! * **fetch/dispatch** — up to `fetch_width` instructions per cycle follow
//!   the actual path, consulting the branch predictor at every branch; a
//!   misprediction stalls fetch until the branch's writeback plus a
//!   redirect penalty (wrong-path instructions are not simulated — their
//!   *timing* cost is the stall, their side effects are out of scope);
//! * **issue** — each instruction's issue time is the max of its operands'
//!   completion times, serialized through bounded issue/memory ports;
//!   non-memory latencies are fixed per class, loads ask the memory
//!   hierarchy *at their issue cycle* so in-flight prefetches are seen with
//!   correct timing;
//! * **commit** — in order, `commit_width` per cycle, bounded by the
//!   192-entry ROB; commit trains the branch predictor, the confidence
//!   estimators, the BrTC and the MHT, exactly as Section IV prescribes.
//!
//! The ROB is a fixed power-of-two ring indexed by `seq & mask` whose
//! entries hold only what differs between dynamic instances; everything
//! static comes from the program's predecoded table
//! ([`bfetch_isa::StaticInst`]) through the entry's instruction index, and
//! wake-up lists are links threaded through the waiting entries
//! (DESIGN.md §5).

use crate::config::{PrefetcherKind, SimConfig};
use crate::ports::PortRing;
use bfetch_bpred::{
    Btb, CompositeConfidence, ConfidenceConfig, HistoryRegister, TournamentConfig,
    TournamentPredictor,
};
use bfetch_core::{BFetchEngine, DecodedBranch};
use bfetch_isa::{ArchState, Program, StaticInst};
use bfetch_mem::{AccessKind, HitLevel, MemStats, MemoryInterface};
use bfetch_prefetch::{AccessEvent, Isb, NextN, PrefetchRequest, Prefetcher, Sms, Stride};
use bfetch_snapshot::SnapshotError;
use bfetch_stats::cpi::{CpiComponent, CpiConfig, CpiStack, TimelineSample};
use bfetch_stats::trace::{TraceKind, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const PORT_HORIZON: u64 = 1 << 14;

/// "No entry" in a wake-up link.
const NO_LINK: u32 = u32::MAX;
/// Wake-up links an entry owns: one per source operand.
const LINKS: usize = 2;

/// One in-flight instruction: what differs between dynamic instances of
/// the static instruction `inst` names.
///
/// An unscheduled producer's dependents form a FIFO list threaded through
/// the dependents themselves. A list node is `(ROB slot << 2) | link`: the
/// dependent and which of its [`LINKS`] the list runs through (a consumer
/// waits on at most two sources, and sits in one producer's list twice when
/// both sources name it). The producer keeps the first and last node; each
/// node's `next[link]` is the node appended after it. Dependents are woken
/// first-appended first, because [`Core::try_schedule`] reserves ports in
/// that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RobEntry {
    /// Earliest issue cycle known so far: the cycle after dispatch, raised
    /// to each source's completion as it becomes known.
    ready_at: u64,
    complete_at: u64,
    dest_val: u64,
    /// Effective address of a load or store.
    ea: u64,
    /// A load's base register as it stood at the last branch before it —
    /// what the MHT learns its offset against.
    base_at_block_entry: u64,
    inst: u32,
    wake_head: u32,
    wake_tail: u32,
    next: [u32; LINKS],
    unresolved: u8,
    scheduled: bool,
    // cycle-accounting provenance (written on schedule; read only when the
    // entry stalls commit from the head of the ROB)
    port_delayed: bool,
    mem_pf_covered: bool,
    mem_service: HitLevel,
    mem_queued_until: u64,
}

// the ring is walked and written per instruction: keep an entry small
const _: () = assert!(std::mem::size_of::<RobEntry>() <= 80);

impl RobEntry {
    const EMPTY: Self = Self {
        ready_at: 0,
        complete_at: u64::MAX,
        dest_val: 0,
        ea: 0,
        base_at_block_entry: 0,
        inst: 0,
        wake_head: NO_LINK,
        wake_tail: NO_LINK,
        next: [NO_LINK; LINKS],
        unresolved: 0,
        scheduled: false,
        port_delayed: false,
        mem_pf_covered: false,
        mem_service: HitLevel::L1,
        mem_queued_until: 0,
    };
}

/// What a branch carries from fetch to commit, queued beside the ROB:
/// branches retire in fetch order, so commit pops the front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BranchRecord {
    ghr_before: u64,
    taken: bool,
    pred_taken: bool,
    pred_strength: u8,
}

/// Register values as they stood at the last fetched branch, captured
/// lazily: the first write to a register inside a block saves the value it
/// overwrites, so "register `r` at block entry" is the saved value if `r`
/// was written since and the live one otherwise (DESIGN.md §13.7). This is
/// what the B-Fetch engine's commit-side MHT training reads for a load's
/// base register, without a register-file copy per branch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockEntryRegs {
    /// Bit `r`: register `r` was written since the last fetched branch.
    written: u32,
    /// Block-entry value of every register whose `written` bit is set.
    old: [u64; 32],
    /// The whole register file as of the last fetched branch: the eager
    /// copy the lazy capture replaces, kept in debug builds to check it.
    #[cfg(debug_assertions)]
    oracle: [u64; 32],
}

impl BlockEntryRegs {
    fn new() -> Self {
        Self {
            written: 0,
            old: [0; 32],
            #[cfg(debug_assertions)]
            oracle: [0; 32],
        }
    }

    /// A branch was fetched: a new block starts with `regs` as its entry
    /// state.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn open_block(&mut self, regs: &[u64; 32]) {
        self.written = 0;
        #[cfg(debug_assertions)]
        {
            self.oracle = *regs;
        }
    }

    /// Call before an instruction writes `reg`; `regs` is the register file
    /// it has not yet touched.
    #[inline]
    fn before_write(&mut self, reg: u8, regs: &[u64; 32]) {
        let bit = 1u32 << (reg & 31);
        if self.written & bit == 0 {
            self.written |= bit;
            self.old[reg as usize & 31] = regs[reg as usize & 31];
        }
    }

    /// `reg` as it stood at block entry; `regs` is the live register file.
    #[inline]
    fn at_entry(&self, reg: u8, regs: &[u64; 32]) -> u64 {
        let r = reg as usize & 31;
        let v = if self.written >> r & 1 != 0 {
            self.old[r]
        } else {
            regs[r]
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(v, self.oracle[r], "lazy block-entry value of r{r}");
        v
    }
}

/// The configuration fields the per-cycle loop consults, copied out of
/// [`SimConfig`] at construction: the core carries this small `Copy`
/// block instead of cloning the whole config for a handful of scalars.
#[derive(Debug, Clone, Copy)]
struct CoreParams {
    mul_latency: u64,
    commit_width: usize,
    arf_at_retire: bool,
    mispredict_penalty: u64,
    fetch_width: usize,
    rob_entries: usize,
    l1i_latency: u64,
    l1d_latency: u64,
    btb_miss_penalty: u64,
    prefetch_issue_per_cycle: usize,
}

impl CoreParams {
    fn of(cfg: &SimConfig) -> Self {
        Self {
            mul_latency: cfg.mul_latency,
            commit_width: cfg.commit_width,
            arf_at_retire: cfg.bfetch.arf_at_retire,
            mispredict_penalty: cfg.mispredict_penalty,
            fetch_width: cfg.fetch_width,
            rob_entries: cfg.rob_entries,
            l1i_latency: cfg.l1i.latency,
            l1d_latency: cfg.l1d.latency,
            btb_miss_penalty: cfg.btb_miss_penalty,
            prefetch_issue_per_cycle: cfg.prefetch_issue_per_cycle,
        }
    }
}

/// Per-core counters sampled by the run harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Instructions committed.
    pub committed: u64,
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Histogram of branches fetched per active fetch cycle (index 0..=4).
    pub branch_fetch_hist: [u64; 5],
    /// Times the workload ran to completion and was restarted.
    pub restarts: u64,
    /// Demand-prefetcher requests dropped on queue overflow.
    pub pf_queue_overflow: u64,
}

/// Why fetch is currently stalled (`fetch_stall_until` in the future).
/// Only consulted by the cycle accounting; updated whenever a stall site
/// raises `fetch_stall_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchStallReason {
    /// Post-resolution redirect after a mispredicted branch.
    Redirect,
    /// L1I miss blocking instruction supply.
    ICache,
    /// Decode redirect for a predicted-taken branch absent from the BTB.
    Btb,
}

/// CPI-stack state carried by a core while accounting is enabled: the
/// cumulative stack plus the interval sampler's bookkeeping.
#[derive(Debug)]
struct CpiAccounting {
    stack: CpiStack,
    /// Committed instructions between samples (`0` disables the sampler).
    interval: u64,
    next_sample_at: u64,
    samples: Vec<TimelineSample>,
    // previous-sample snapshots for interval deltas
    last_stack: CpiStack,
    last_mem: MemStats,
    last_mispredicts: u64,
}

/// One simulated core: functional state, branch prediction, the optional
/// B-Fetch engine or demand prefetcher, and the out-of-order timing model.
pub struct Core {
    id: usize,
    program: Program,
    arch: ArchState,
    params: CoreParams,
    // prediction
    bp: TournamentPredictor,
    ghr: HistoryRegister,
    btb: Btb,
    conf: CompositeConfidence,
    // prefetching
    engine: Option<BFetchEngine>,
    demand_pf: Option<Box<dyn Prefetcher>>,
    pf_queue: VecDeque<PrefetchRequest>,
    pf_scratch: Vec<PrefetchRequest>, // reusable per-access request buffer
    perfect: bool,
    block_entry: BlockEntryRegs,
    // pipeline: the live ROB is sequence numbers `rob_base..next_seq`,
    // instruction `seq` in slot `seq & rob_mask`; the other slots hold
    // retired entries nothing reads
    rob: Box<[RobEntry]>,
    rob_mask: u64,
    rob_base: u64,
    next_seq: u64,
    // one record per branch in the ROB, oldest first
    branch_q: VecDeque<BranchRecord>,
    issue_ports: PortRing,
    mem_ports: PortRing,
    pending_mem: BinaryHeap<Reverse<(u64, u64)>>, // (issue cycle, seq)
    fetch_blocked_by: Option<u64>,
    fetch_stall_until: u64,
    fetch_stall_reason: FetchStallReason,
    cur_iline: u64,
    writers: [Option<u64>; 32],
    counters: CoreCounters,
    tracer: Tracer,
    cpi: Option<Box<CpiAccounting>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("program", &self.program.name())
            .field("committed", &self.counters.committed)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Builds a core running `program` under `cfg`.
    pub fn new(id: usize, program: Program, cfg: &SimConfig) -> Self {
        let arch = ArchState::new(&program);
        let bp = TournamentPredictor::new(TournamentConfig::scaled(cfg.bpred_scale));
        let conf = CompositeConfidence::new(ConfidenceConfig::baseline());
        let (engine, demand_pf, perfect): (
            Option<BFetchEngine>,
            Option<Box<dyn Prefetcher>>,
            bool,
        ) = match cfg.prefetcher {
            PrefetcherKind::None => (None, None, false),
            PrefetcherKind::BFetch => (Some(BFetchEngine::new(cfg.bfetch)), None, false),
            PrefetcherKind::NextN(n) => (None, Some(Box::new(NextN::new(n))), false),
            PrefetcherKind::Stride => (None, Some(Box::new(Stride::new(cfg.stride))), false),
            PrefetcherKind::Sms => (None, Some(Box::new(Sms::new(cfg.sms))), false),
            PrefetcherKind::Isb => (None, Some(Box::new(Isb::baseline())), false),
            PrefetcherKind::Perfect => (None, None, true),
        };
        let ring = cfg.rob_entries.next_power_of_two();
        assert!(
            ring <= 1 << 30 && program.len() <= u32::MAX as usize,
            "wake-up links and instruction indices are 32-bit"
        );
        Self {
            id,
            arch,
            program,
            bp,
            ghr: HistoryRegister::new(),
            btb: Btb::new(512, 4),
            conf,
            engine,
            demand_pf,
            pf_queue: VecDeque::new(),
            pf_scratch: Vec::new(),
            perfect,
            block_entry: BlockEntryRegs::new(),
            rob: vec![RobEntry::EMPTY; ring].into_boxed_slice(),
            rob_mask: ring as u64 - 1,
            rob_base: 0,
            next_seq: 0,
            branch_q: VecDeque::with_capacity(cfg.rob_entries),
            issue_ports: PortRing::new(cfg.issue_width, PORT_HORIZON),
            mem_ports: PortRing::new(cfg.mem_ports, PORT_HORIZON),
            pending_mem: BinaryHeap::with_capacity(cfg.rob_entries),
            fetch_blocked_by: None,
            fetch_stall_until: 0,
            fetch_stall_reason: FetchStallReason::Redirect,
            cur_iline: u64::MAX,
            writers: [None; 32],
            counters: CoreCounters::default(),
            tracer: Tracer::disabled(),
            cpi: None,
            params: CoreParams::of(cfg),
        }
    }

    /// Installs a trace handle; the core stamps its own id on branch events
    /// and forwards a pre-stamped clone to the B-Fetch engine.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.for_core(self.id as u32);
        if let Some(engine) = self.engine.as_mut() {
            engine.set_tracer(self.tracer.clone());
        }
    }

    /// This core's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The workload's name.
    pub fn program_name(&self) -> &str {
        self.program.name()
    }

    /// Sampled counters.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Branch predictor `(lookups, mispredicts)`.
    pub fn bp_stats(&self) -> (u64, u64) {
        self.bp.stats()
    }

    /// The B-Fetch engine, when configured.
    pub fn engine(&self) -> Option<&BFetchEngine> {
        self.engine.as_ref()
    }

    /// Off-chip prefetcher meta-data traffic generated so far, in bytes.
    pub fn pf_metadata_bytes(&self) -> u64 {
        self.demand_pf
            .as_ref()
            .map_or(0, |p| p.metadata_traffic_bytes())
    }

    /// Captures this core's machine state for a watchdog abort report:
    /// where the pipeline is wedged (ROB head, prefetch queues, MSHRs,
    /// frontend stall), cheap enough to take once per abort.
    pub fn diag<M: MemoryInterface>(&self, mem: &M) -> crate::error::CoreDiag {
        crate::error::CoreDiag {
            core: self.id,
            committed: self.counters.committed,
            rob_len: self.rob_len(),
            rob_head: self.head().map(|h| crate::error::RobHeadDiag {
                seq: self.rob_base,
                pc: self.static_of(h).pc,
                scheduled: h.scheduled,
                complete_at: h.complete_at,
            }),
            pf_queue_len: self.pf_queue.len(),
            engine_queue_len: self.engine.as_ref().map(|e| e.queue_len()),
            mshr_live: mem.mshr_live(self.id),
            pf_mshr_live: mem.pf_mshr_live(self.id),
            fetch_stall_until: self.fetch_stall_until,
        }
    }

    /// Routes L1D prefetch-usefulness feedback into the per-load filter.
    pub fn feedback(&mut self, pc_hash: u16, useful: bool) {
        if let Some(e) = self.engine.as_mut() {
            e.on_feedback(pc_hash, useful);
        }
    }

    /// Switches on CPI-stack accounting (and, with a nonzero
    /// `timeline_interval`, the interval sampler) from the *next* cycle on.
    /// Called by the run harness right after warmup so the stack covers
    /// exactly the measurement window. `mem` seeds the sampler's
    /// interval-delta baselines.
    pub fn enable_cpi<M: MemoryInterface>(&mut self, cfg: &CpiConfig, mem: &M) {
        if !cfg.enabled {
            return;
        }
        let width = self.params.commit_width as u64;
        self.cpi = Some(Box::new(CpiAccounting {
            stack: CpiStack::new(width),
            interval: cfg.timeline_interval,
            next_sample_at: cfg.timeline_interval.max(1),
            samples: Vec::new(),
            last_stack: CpiStack::new(width),
            last_mem: *mem.stats(self.id),
            last_mispredicts: self.counters.mispredicts,
        }));
    }

    /// The accumulated CPI stack, when accounting is enabled.
    pub fn cpi_stack(&self) -> Option<&CpiStack> {
        self.cpi.as_ref().map(|c| &c.stack)
    }

    /// Drains the timeline samples collected so far.
    pub fn take_timeline(&mut self) -> Vec<TimelineSample> {
        self.cpi
            .as_mut()
            .map(|c| std::mem::take(&mut c.samples))
            .unwrap_or_default()
    }

    // ---- the ROB ring ------------------------------------------------------

    #[inline]
    fn rob_len(&self) -> usize {
        (self.next_seq - self.rob_base) as usize
    }

    #[inline]
    fn slot_of(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// The ring slot of `seq` while it is in the ROB.
    #[inline]
    fn live_slot(&self, seq: u64) -> Option<usize> {
        (self.rob_base..self.next_seq)
            .contains(&seq)
            .then(|| self.slot_of(seq))
    }

    /// The oldest in-flight instruction.
    #[inline]
    fn head(&self) -> Option<&RobEntry> {
        self.live_slot(self.rob_base).map(|s| &self.rob[s])
    }

    #[inline]
    fn static_of(&self, e: &RobEntry) -> &StaticInst {
        &self.program.decoded()[e.inst as usize]
    }

    /// Appends the dependent at `slot`, through its link `link`, to the
    /// wake-up list of the unscheduled producer at `producer`.
    #[inline]
    fn await_producer(&mut self, producer: usize, slot: usize, link: usize) {
        let node = (slot as u32) << 2 | link as u32;
        match std::mem::replace(&mut self.rob[producer].wake_tail, node) {
            NO_LINK => self.rob[producer].wake_head = node,
            tail => self.rob[(tail >> 2) as usize].next[(tail & 3) as usize] = node,
        }
        self.rob[slot].unresolved += 1;
    }

    /// Makes the just-dispatched instruction at `slot` depend on the older
    /// instruction `producer_seq`: on its completion time if that is known,
    /// on its wake-up list otherwise. A producer that already retired
    /// completed long ago and constrains nothing.
    #[inline]
    fn depend_on(&mut self, producer_seq: u64, slot: usize, link: usize) {
        let Some(p) = self.live_slot(producer_seq) else {
            return;
        };
        if self.rob[p].scheduled {
            let c = self.rob[p].complete_at;
            let e = &mut self.rob[slot];
            e.ready_at = e.ready_at.max(c);
        } else {
            self.await_producer(p, slot, link);
        }
    }

    /// Advances this core by one cycle.
    pub fn cycle<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        if now & 1023 == 0 {
            self.issue_ports.release_before(now, 1024);
            self.mem_ports.release_before(now, 1024);
        }
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_PENDING_MEM);
            self.process_pending_mem(now, mem);
        }
        self.check_fetch_block();
        // accounting classifies against pre-fetch state: the ROB snapshot
        // right after commit still shows *why* commit fell short
        let rob_was_full = self.cpi.is_some() && self.rob_len() >= self.params.rob_entries;
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_COMMIT);
            let committed = self.commit(now);
            if self.cpi.is_some() {
                self.account_cycle(now, committed, rob_was_full, mem);
            }
        }
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_FETCH);
            self.fetch(now, mem);
        }
        self.prefetch_tick(now, mem);
    }

    // ---- quiescence --------------------------------------------------------

    /// The first cycle `>= now` at which [`Core::cycle`] would do anything
    /// beyond the idle side effects [`Core::skip_idle`] reproduces. Pure,
    /// and derived only from this core's own state: nothing outside the
    /// core (a fill, prefetch feedback, another core) can move it earlier,
    /// so the stepping loop may leave the core unstepped until then
    /// (DESIGN.md §13.5 lists every waker and why the list is complete).
    pub fn wake_at(&self, now: u64) -> u64 {
        // the common busy case first: a core that can fetch is awake
        let fetch_open =
            self.fetch_blocked_by.is_none() && self.rob_len() < self.params.rob_entries;
        if fetch_open && self.fetch_stall_until <= now {
            return now;
        }
        if now & 1023 == 0 {
            return now; // port-ring sweep
        }
        if !self.pf_queue.is_empty() || self.engine.as_ref().is_some_and(|e| !e.is_drained()) {
            return now; // a lookahead walk or a prefetch issue is due
        }
        if self.fetch_block_resolved().is_some() {
            return now; // this cycle turns the block into a redirect stall
        }
        let mut wake = (now | 1023) + 1;
        if fetch_open {
            wake = wake.min(self.fetch_stall_until);
        }
        if let Some(&Reverse((t, _))) = self.pending_mem.peek() {
            wake = wake.min(t);
        }
        if let Some(head) = self.head() {
            if head.scheduled {
                wake = wake.min(head.complete_at);
            }
        }
        wake.max(now)
    }

    /// Applies what [`Core::cycle`] would have done to this core over the
    /// cycles `from..to`, none of which reaches [`Core::wake_at`]: a full
    /// ROB with fetch neither blocked nor stalled still records a
    /// zero-branch fetch cycle, and the CPI stack (when accounting is on)
    /// still charges every lost slot. Everything else such a cycle touches
    /// is either unchanged or lazy: the ARF matures its posted writes on
    /// the next [`BFetchEngine::tick`], and nothing reads it before then.
    pub fn skip_idle(&mut self, from: u64, to: u64) {
        debug_assert!(
            from < to && to <= self.wake_at(from),
            "skipping a waking cycle"
        );
        let rob_full = self.rob_len() >= self.params.rob_entries;
        if rob_full && self.fetch_blocked_by.is_none() {
            self.counters.branch_fetch_hist[0] +=
                to.saturating_sub(from.max(self.fetch_stall_until));
        }
        if self.cpi.is_none() {
            return;
        }
        // no instruction commits, so the interval sampler never fires; the
        // cause of the lost slots depends on the cycle only through three
        // thresholds, so each run of cycles between them is one charge
        let mut t = from;
        while t < to {
            let cause = self.classify_stall(t, rob_full);
            let head = self.head();
            let until = [
                self.fetch_stall_until,
                head.map_or(0, |h| h.mem_queued_until),
                head.map_or(0, |h| h.complete_at),
            ]
            .into_iter()
            .filter(|&edge| edge > t)
            .fold(to, u64::min);
            let acc = self.cpi.as_mut().expect("checked above");
            acc.stack.account_idle(until - t, cause);
            t = until;
        }
    }

    // ---- cycle accounting ------------------------------------------------

    /// Charges this cycle's lost commit slots to one root cause and runs
    /// the interval sampler. Only called while accounting is enabled; with
    /// `cpi == None` the cycle loop pays a single branch, keeping disabled
    /// runs on the pre-accounting hot path.
    fn account_cycle<M: MemoryInterface>(&mut self, now: u64, committed: usize, rob_was_full: bool, mem: &M) {
        let cause = if committed < self.params.commit_width {
            self.classify_stall(now, rob_was_full)
        } else {
            CpiComponent::Base // no lost slots: the cause is never recorded
        };
        let id = self.id;
        let mispredicts = self.counters.mispredicts;
        let Some(acc) = self.cpi.as_mut() else { return };
        acc.stack.account_cycle(committed as u64, cause);
        if acc.interval == 0 {
            return;
        }
        while acc.stack.committed_slots >= acc.next_sample_at {
            let interval = acc.stack.delta(&acc.last_stack);
            let mem_now = *mem.stats(id);
            let mem_d = mem_now.delta(&acc.last_mem);
            acc.samples.push(TimelineSample {
                core: id as u32,
                index: acc.samples.len() as u32,
                cycle: acc.stack.cycles,
                instructions: acc.stack.committed_slots,
                interval_cycles: interval.cycles,
                interval_instructions: interval.committed_slots,
                interval_mispredicts: mispredicts - acc.last_mispredicts,
                interval_l1d_misses: mem_d.l1d_misses,
                interval_pf_useful: mem_d.prefetch_useful,
                interval_pf_useless: mem_d.prefetch_useless,
                interval_pf_late: mem_d.prefetch_late,
                lost: interval.lost,
            });
            acc.last_stack = acc.stack;
            acc.last_mem = mem_now;
            acc.last_mispredicts = mispredicts;
            acc.next_sample_at += acc.interval;
        }
    }

    /// Picks the single root cause for a cycle whose commit fell short of
    /// the machine width. The decision tree leans on in-order commit: the
    /// ROB head's operands are strictly older and already committed, so the
    /// head is never waiting on a dependence — it is either queued for a
    /// port, executing, or waiting on memory.
    fn classify_stall(&self, now: u64, rob_was_full: bool) -> CpiComponent {
        let Some(head) = self.head() else {
            // empty window: the frontend is not supplying instructions
            if self.fetch_blocked_by.is_some() {
                return CpiComponent::Mispredict;
            }
            if now < self.fetch_stall_until {
                return match self.fetch_stall_reason {
                    FetchStallReason::Redirect => CpiComponent::Mispredict,
                    FetchStallReason::ICache | FetchStallReason::Btb => CpiComponent::FetchStall,
                };
            }
            // pipeline refill: fetch runs this cycle, commit sees it later
            return CpiComponent::FetchStall;
        };
        let si = self.static_of(head);
        if si.is(StaticInst::IS_LOAD) {
            if !head.scheduled {
                // still queued for a memory port (or, rarely, just
                // dispatched): structural only if the port ring pushed it
                // past its ready time
                return if head.port_delayed {
                    CpiComponent::LsqFull
                } else {
                    CpiComponent::Base
                };
            }
            if head.mem_service != HitLevel::L1 {
                if now < head.mem_queued_until {
                    return CpiComponent::MshrFull;
                }
                return match (head.mem_service, head.mem_pf_covered) {
                    (HitLevel::L2, false) => CpiComponent::MemL2,
                    (HitLevel::L2, true) => CpiComponent::MemL2Covered,
                    (HitLevel::L3, false) => CpiComponent::MemL3,
                    (HitLevel::L3, true) => CpiComponent::MemL3Covered,
                    (_, false) => CpiComponent::MemDram,
                    (_, true) => CpiComponent::MemDramCovered,
                };
            }
            // L1-hit latency: plain pipeline depth, falls through to base
        }
        if si.is(StaticInst::IS_STORE) && head.port_delayed && head.complete_at > now {
            return CpiComponent::LsqFull;
        }
        if rob_was_full {
            CpiComponent::RobFull
        } else {
            CpiComponent::Base
        }
    }

    // ---- scheduling ------------------------------------------------------

    /// Gives the live entry at `slot` its issue slot once every source's
    /// completion time is known.
    fn try_schedule(&mut self, slot: usize) {
        let e = &self.rob[slot];
        if e.scheduled || e.unresolved > 0 {
            return;
        }
        let earliest = e.ready_at;
        let flags = self.static_of(e).flags;
        if flags & (StaticInst::IS_LOAD | StaticInst::IS_STORE) != 0 {
            if e.complete_at == u64::MAX {
                let is_store = flags & StaticInst::IS_STORE != 0;
                let t = self.mem_ports.reserve(earliest);
                let e = &mut self.rob[slot];
                e.port_delayed = t > earliest;
                if is_store {
                    // stores drain through the store buffer: dependents (and
                    // commit) see them complete right after address issue
                    e.scheduled = true;
                    e.complete_at = t + 1;
                }
                let seq = self.seq_of(slot);
                self.pending_mem.push(Reverse((t, seq)));
                if is_store {
                    self.on_scheduled(slot);
                }
            }
            return;
        }
        let latency = if flags & StaticInst::IS_MUL != 0 {
            self.params.mul_latency
        } else {
            1
        };
        let t = self.issue_ports.reserve(earliest);
        let e = &mut self.rob[slot];
        e.scheduled = true;
        e.complete_at = t + latency;
        self.on_scheduled(slot);
    }

    /// The sequence number of the live instruction in `slot`.
    #[inline]
    fn seq_of(&self, slot: usize) -> u64 {
        let seq = self.rob_base + ((slot as u64).wrapping_sub(self.rob_base) & self.rob_mask);
        debug_assert!(seq < self.next_seq, "slot {slot} is not live");
        seq
    }

    /// Propagates a newly known completion time to dependents, in the order
    /// they were appended. Recursion happens through
    /// [`Core::try_schedule`], whose depth is bounded by the dependence
    /// chains inside the ROB window; the list is detached before the walk
    /// and every node is visited exactly once, so no work queue is needed.
    fn on_scheduled(&mut self, slot: usize) {
        let e = &mut self.rob[slot];
        debug_assert!(e.scheduled);
        let complete = e.complete_at;
        let mut node = std::mem::replace(&mut e.wake_head, NO_LINK);
        e.wake_tail = NO_LINK;
        // post the register value toward the B-Fetch ARF
        if !self.params.arf_at_retire {
            let seq = self.seq_of(slot);
            if let Some(engine) = self.engine.as_mut() {
                let e = &self.rob[slot];
                if let Some(d) = self.program.decoded()[e.inst as usize].dest() {
                    engine.post_regwrite(d as usize, e.dest_val, seq, complete);
                }
            }
        }
        while node != NO_LINK {
            let w = (node >> 2) as usize;
            let we = &mut self.rob[w];
            node = std::mem::replace(&mut we.next[(node & 3) as usize], NO_LINK);
            we.ready_at = we.ready_at.max(complete);
            we.unresolved -= 1;
            if we.unresolved == 0 {
                self.try_schedule(w);
            }
        }
    }

    fn process_pending_mem<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        while let Some(&Reverse((t, seq))) = self.pending_mem.peek() {
            if t > now {
                break;
            }
            self.pending_mem.pop();
            let Some(slot) = self.live_slot(seq) else {
                continue;
            };
            let e = &self.rob[slot];
            let ea = e.ea;
            let si = self.static_of(e);
            let (is_load, pc) = (si.is(StaticInst::IS_LOAD), si.pc);
            if is_load {
                let (complete, service, pf_covered, queued_until) = if self.perfect {
                    (now + self.params.l1d_latency, HitLevel::L1, false, 0)
                } else {
                    let out = mem.access(self.id, AccessKind::Load, ea, now);
                    self.observe_access(pc, ea, out.level == HitLevel::L1, true);
                    (out.complete_at, out.service, out.pf_covered, out.queued_until)
                };
                let e = &mut self.rob[slot];
                e.scheduled = true;
                e.complete_at = complete.max(now + 1);
                e.mem_service = service;
                e.mem_pf_covered = pf_covered;
                e.mem_queued_until = queued_until;
                self.on_scheduled(slot);
            } else if !self.perfect {
                let out = mem.access(self.id, AccessKind::Store, ea, now);
                self.observe_access(pc, ea, out.level == HitLevel::L1, false);
            }
        }
    }

    fn observe_access(&mut self, pc: u64, addr: u64, hit: bool, is_load: bool) {
        if let Some(pf) = self.demand_pf.as_mut() {
            let ev = AccessEvent {
                pc,
                addr,
                hit,
                is_load,
            };
            self.pf_scratch.clear();
            pf.on_access(&ev, &mut self.pf_scratch);
            for i in 0..self.pf_scratch.len() {
                let r = self.pf_scratch[i];
                if self.pf_queue.len() >= 100 {
                    self.counters.pf_queue_overflow += 1;
                } else {
                    self.pf_queue.push_back(r);
                }
            }
        }
    }

    // ---- commit ----------------------------------------------------------

    /// Retires up to `commit_width` finished instructions in order and
    /// returns how many committed (the cycle accounting charges the
    /// remaining slots).
    fn commit(&mut self, now: u64) -> usize {
        let mut committed = 0;
        for _ in 0..self.params.commit_width {
            let Some(head) = self.head() else { break };
            if !head.scheduled || head.complete_at > now {
                break;
            }
            committed += 1;
            let (dest_val, ea, base_at_block_entry) =
                (head.dest_val, head.ea, head.base_at_block_entry);
            let si = *self.static_of(head);
            let seq = self.rob_base;
            self.rob_base += 1;
            self.counters.committed += 1;
            if self.params.arf_at_retire {
                if let (Some(d), Some(engine)) = (si.dest(), self.engine.as_mut()) {
                    engine.post_regwrite(d as usize, dest_val, seq, now);
                }
            }
            if si.is(StaticInst::IS_BRANCH) {
                let br = self
                    .branch_q
                    .pop_front()
                    .expect("one record per in-flight branch");
                let is_cond = si.is(StaticInst::IS_COND);
                if is_cond {
                    self.bp.update(si.pc, br.ghr_before, br.taken);
                    self.conf.train(
                        si.pc,
                        br.ghr_before,
                        br.pred_strength,
                        br.pred_taken == br.taken,
                    );
                    self.tracer.emit(
                        now,
                        TraceKind::BranchResolved {
                            pc: si.pc,
                            taken: br.taken,
                            mispredicted: br.pred_taken != br.taken,
                        },
                    );
                }
                if br.taken {
                    self.btb.install(si.pc, si.taken_target);
                }
                if let Some(engine) = self.engine.as_mut() {
                    engine.on_commit_branch(
                        si.pc,
                        is_cond,
                        br.taken,
                        si.taken_target,
                        si.fallthrough,
                    );
                }
            } else if si.is(StaticInst::IS_LOAD) {
                if let Some(engine) = self.engine.as_mut() {
                    engine.on_commit_load(si.pc, si.base_reg, base_at_block_entry, ea);
                }
            }
        }
        committed
    }

    // ---- fetch -----------------------------------------------------------

    /// When the mispredicted branch blocking fetch resolved; `None` while
    /// fetch is not blocked or the branch has no completion time yet.
    fn fetch_block_resolved(&self) -> Option<u64> {
        let seq = self.fetch_blocked_by?;
        match self.live_slot(seq).map(|s| &self.rob[s]) {
            Some(e) if e.scheduled => Some(e.complete_at),
            None => Some(0), // already retired: resolved long ago
            _ => None,
        }
    }

    fn check_fetch_block(&mut self) {
        if let Some(c) = self.fetch_block_resolved() {
            let until = c + self.params.mispredict_penalty;
            if until > self.fetch_stall_until {
                self.fetch_stall_until = until;
                self.fetch_stall_reason = FetchStallReason::Redirect;
            }
            self.fetch_blocked_by = None;
        }
    }

    fn fetch<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        if self.fetch_blocked_by.is_some() || now < self.fetch_stall_until {
            return;
        }
        let mut branches_this_cycle = 0usize;
        let l1i_lat = self.params.l1i_latency;
        for _ in 0..self.params.fetch_width {
            if self.rob_len() >= self.params.rob_entries {
                break;
            }
            if self.arch.halted() {
                self.counters.restarts += 1;
                self.arch.restart();
            }
            let idx = self.arch.pc();
            let pc = self.program.pc_addr(idx);
            let line = pc & !63;
            if line != self.cur_iline {
                let out = mem.access(self.id, AccessKind::InstFetch, pc, now);
                self.cur_iline = line;
                if out.complete_at > now + l1i_lat {
                    self.fetch_stall_until = out.complete_at;
                    self.fetch_stall_reason = FetchStallReason::ICache;
                    break;
                }
            }
            let Some(&si) = self.program.decoded().get(idx) else {
                // ran off the end: the step only raises the halt flag
                let stepped = self.arch.step(&self.program);
                debug_assert!(stepped.is_none());
                break;
            };
            // block-entry capture reads the registers before the
            // instruction writes them (a load may overwrite its own base);
            // without an engine nothing reads it, so skip the bookkeeping
            let mut base_at_block_entry = 0;
            if self.engine.is_some() {
                let regs = self.arch.regs();
                if si.is(StaticInst::IS_LOAD) {
                    base_at_block_entry = self.block_entry.at_entry(si.base_reg, regs);
                }
                if let Some(d) = si.dest() {
                    self.block_entry.before_write(d, regs);
                }
            }
            let Some(info) = self.arch.step(&self.program) else {
                break;
            };
            let ea = info.ea.unwrap_or(0);
            let seq = self.next_seq;
            let slot = self.slot_of(seq);
            self.next_seq += 1;
            self.rob[slot] = RobEntry {
                ready_at: now + 1,
                dest_val: si.dest().map_or(0, |d| self.arch.regs()[d as usize & 31]),
                ea,
                base_at_block_entry,
                inst: idx as u32,
                ..RobEntry::EMPTY
            };

            let mut mispredicted = false;
            if si.is(StaticInst::IS_BRANCH) {
                branches_this_cycle += 1;
                let is_cond = si.is(StaticInst::IS_COND);
                let ghr_before = self.ghr.bits();
                let (mut pred_taken, mut pred_strength) = (true, 3);
                if is_cond {
                    self.counters.cond_branches += 1;
                    let p = self.bp.predict(pc, ghr_before);
                    (pred_taken, pred_strength) = (p.taken, p.strength);
                    self.ghr.push(info.taken);
                    mispredicted = p.taken != info.taken;
                    if mispredicted {
                        self.counters.mispredicts += 1;
                    }
                }
                // taken branches whose target is not in the BTB pay a small
                // decode-redirect penalty
                if pred_taken && self.btb.lookup(pc).is_none() {
                    let until = now + self.params.btb_miss_penalty;
                    if until > self.fetch_stall_until {
                        self.fetch_stall_until = until;
                        self.fetch_stall_reason = FetchStallReason::Btb;
                    }
                }
                self.branch_q.push_back(BranchRecord {
                    ghr_before,
                    taken: info.taken,
                    pred_taken,
                    pred_strength,
                });
                let confidence = self.conf.estimate(pc, ghr_before, pred_strength);
                if is_cond {
                    self.tracer.emit(
                        now,
                        TraceKind::BranchPredicted {
                            pc,
                            taken: pred_taken,
                            confidence,
                        },
                    );
                }
                if let Some(engine) = self.engine.as_mut() {
                    self.block_entry.open_block(self.arch.regs());
                    engine.on_branch_decoded(DecodedBranch {
                        pc,
                        predicted_taken: pred_taken,
                        taken_target: si.taken_target,
                        fallthrough: si.fallthrough,
                        is_cond,
                        ghr_before,
                        confidence,
                    });
                }
            }

            // dependency wiring
            for (link, &src) in si.srcs.iter().enumerate() {
                if src == 0 {
                    continue;
                }
                if let Some(producer_seq) = self.writers[src as usize & 31] {
                    self.depend_on(producer_seq, slot, link);
                }
            }
            if let Some(d) = si.dest() {
                self.writers[d as usize & 31] = Some(seq);
            }

            self.try_schedule(slot);

            if mispredicted {
                self.fetch_blocked_by = Some(seq);
                break;
            }
            if info.halted {
                break;
            }
            if now < self.fetch_stall_until {
                break;
            }
        }
        self.counters.branch_fetch_hist[branches_this_cycle.min(4)] += 1;
    }

    // ---- prefetch issue ----------------------------------------------------

    fn prefetch_tick<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        let per_cycle = self.params.prefetch_issue_per_cycle;
        if let Some(engine) = self.engine.as_mut() {
            {
                let _p = bfetch_prof::span(bfetch_prof::SIM_ENGINE);
                engine.tick(now, &self.bp, &self.conf);
            }
            let _p = bfetch_prof::span(bfetch_prof::SIM_ISSUE);
            for c in engine.pop_prefetches(per_cycle) {
                mem.prefetch(self.id, c.addr, c.pc_hash, now);
            }
        } else if self.demand_pf.is_some() {
            let _p = bfetch_prof::span(bfetch_prof::SIM_ISSUE);
            for _ in 0..per_cycle {
                let Some(r) = self.pf_queue.pop_front() else {
                    break;
                };
                mem.prefetch(self.id, r.addr, r.pc_hash & 0x3ff, now);
            }
        }
    }
}

bfetch_snapshot::impl_snap_enum!(FetchStallReason {
    FetchStallReason::Redirect = 0,
    FetchStallReason::ICache = 1,
    FetchStallReason::Btb = 2
});

bfetch_snapshot::impl_snap_struct!(CoreCounters {
    committed,
    cond_branches,
    mispredicts,
    branch_fetch_hist,
    restarts,
    pf_queue_overflow
});

bfetch_snapshot::impl_snap_struct!(RobEntry {
    ready_at,
    complete_at,
    dest_val,
    ea,
    base_at_block_entry,
    inst,
    wake_head,
    wake_tail,
    next,
    unresolved,
    scheduled,
    port_delayed,
    mem_pf_covered,
    mem_service,
    mem_queued_until
});

bfetch_snapshot::impl_snap_struct!(BranchRecord {
    ghr_before,
    taken,
    pred_taken,
    pred_strength
});

bfetch_snapshot::impl_snap_struct!(CpiAccounting {
    stack,
    interval,
    next_sample_at,
    samples,
    last_stack,
    last_mem,
    last_mispredicts
});

impl Core {
    /// Checks a restored ROB against the program, its side queues and
    /// itself, so that no later step can index out of range, follow a
    /// wake-up link forever or underflow a dependence count.
    fn validate_rob(&self) -> Result<(), SnapshotError> {
        let invalid = |what| Err(SnapshotError::Invalid { what });
        let entries = || (self.rob_base..self.next_seq).map(|seq| (seq, &self.rob[self.slot_of(seq)]));
        if entries().any(|(_, e)| e.inst as usize >= self.program.len()) {
            return invalid("rob instruction index past the program");
        }
        let branches = entries().filter(|(_, e)| self.static_of(e).is(StaticInst::IS_BRANCH));
        if branches.count() != self.branch_q.len() {
            return invalid("branch queue does not match the rob's branches");
        }
        // every wake-up list: each node names a link of a live entry, no
        // node is reached twice (so no cycle and no shared tail), the
        // recorded tail is the last node, and every dependent waits on
        // exactly the lists it sits in
        let is_live = |slot: usize| {
            ((slot as u64).wrapping_sub(self.rob_base) & self.rob_mask) < self.rob_len() as u64
        };
        let mut seen = vec![false; self.rob.len() << 2];
        let mut waits = vec![0u8; self.rob.len()];
        for (_, e) in entries() {
            let (mut node, mut last) = (e.wake_head, NO_LINK);
            while node != NO_LINK {
                let (w, link) = ((node >> 2) as usize, (node & 3) as usize);
                if link >= LINKS || w >= self.rob.len() || !is_live(w) {
                    return invalid("rob wake-up link out of range");
                }
                if std::mem::replace(&mut seen[node as usize], true) {
                    return invalid("rob wake-up links cross or cycle");
                }
                waits[w] += 1;
                last = node;
                node = self.rob[w].next[link];
            }
            if last != e.wake_tail {
                return invalid("rob wake-up list tail");
            }
        }
        if entries().any(|(seq, e)| e.unresolved != waits[self.slot_of(seq)]) {
            return invalid("rob dependence count");
        }
        Ok(())
    }
}

bfetch_snapshot::snap_state!(BlockEntryRegs {
    written: val,
    old: val,
    #[cfg(debug_assertions)]
    oracle: skip,
});

impl Core {
    // Of the ROB ring only the live window `rob_base..next_seq` crosses the
    // wire, oldest first, and its length is the difference of the two
    // counters loaded just before it: not a field's encoding, so by hand.
    fn save_rob(&self, w: &mut bfetch_snapshot::Encoder) {
        use bfetch_snapshot::Snap as _;
        for seq in self.rob_base..self.next_seq {
            self.rob[self.slot_of(seq)].save(w);
        }
    }

    fn load_rob(&mut self, r: &mut bfetch_snapshot::Decoder<'_>) -> Result<(), SnapshotError> {
        use bfetch_snapshot::Snap as _;
        if self
            .next_seq
            .checked_sub(self.rob_base)
            .is_none_or(|live| live > self.params.rob_entries as u64)
        {
            return Err(SnapshotError::Invalid {
                what: "rob larger than configured",
            });
        }
        self.rob.fill(RobEntry::EMPTY);
        for seq in self.rob_base..self.next_seq {
            self.rob[self.slot_of(seq)] = RobEntry::load(r)?;
        }
        Ok(())
    }

    // A heap's internal order depends on its push history, so it is framed
    // in canonical order, ascending (issue cycle, seq); seq numbers are
    // unique, so rebuild-from-sorted pops identically.
    fn save_pending_mem(&self, w: &mut bfetch_snapshot::Encoder) {
        use bfetch_snapshot::Snap as _;
        let mut pending: Vec<(u64, u64)> = self.pending_mem.iter().map(|&Reverse(p)| p).collect();
        pending.sort_unstable();
        pending.save(w);
    }

    fn load_pending_mem(&mut self, r: &mut bfetch_snapshot::Decoder<'_>) -> Result<(), SnapshotError> {
        use bfetch_snapshot::Snap as _;
        self.pending_mem.clear();
        self.pending_mem.extend(Vec::<(u64, u64)>::load(r)?.into_iter().map(Reverse));
        Ok(())
    }
}

// The tracer is re-installed by whoever owns the run; `pf_scratch` is
// cleared before every use.
bfetch_snapshot::snap_state!(Core {
    id: skip,
    program: skip,
    params: skip,
    arch: val,
    bp: state,
    ghr: val,
    btb: state,
    conf: state,
    engine: state,
    demand_pf: state,
    pf_queue: val,
    pf_scratch: skip,
    perfect: skip,
    block_entry: state,
    rob_base: val,
    next_seq: val,
    rob: with(Core::save_rob, Core::load_rob),
    rob_mask: skip,
    branch_q: val,
    issue_ports: state,
    mem_ports: state,
    pending_mem: with(Core::save_pending_mem, Core::load_pending_mem),
    fetch_blocked_by: val,
    fetch_stall_until: val,
    fetch_stall_reason: val,
    cur_iline: val,
    writers: val,
    counters: val,
    tracer: skip,
    cpi: val,
} check |c| {
    #[cfg(debug_assertions)]
    {
        let (b, regs) = (&mut c.block_entry, c.arch.regs());
        b.oracle = std::array::from_fn(|i| if b.written >> i & 1 != 0 { b.old[i] } else { regs[i] });
    }
    c.validate_rob()
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimSession;
    use bfetch_isa::{ProgramBuilder, Reg};

    fn quick(cfg: &SimConfig, p: &Program, insts: u64) -> crate::cmp::RunResult {
        let mut c = cfg.clone();
        c.warmup_insts = 2_000;
        SimSession::new(c)
            .instructions(insts)
            .run_one(p)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_single()
    }

    /// An L1-resident ALU loop: IPC approaches (but never exceeds) the
    /// machine width.
    #[test]
    fn alu_loop_is_issue_bound() {
        let mut b = ProgramBuilder::new("alu-loop");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1_000_000);
        let top = b.label();
        b.bind(top);
        // independent ALU ops to fill the issue ports
        b.add(Reg::R3, Reg::R1, Reg::R2);
        b.add(Reg::R4, Reg::R1, Reg::R2);
        b.add(Reg::R5, Reg::R1, Reg::R2);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let r = quick(&SimConfig::baseline(), &p, 20_000);
        assert!(
            r.ipc() > 2.0,
            "independent ALU loop should near width: {}",
            r.ipc()
        );
        assert!(r.ipc() <= 4.0);
    }

    /// A hard-to-predict branch costs cycles relative to a predictable one.
    #[test]
    fn mispredictions_cost_cycles() {
        let build = |name: &str, mask: i64| {
            let mut b = ProgramBuilder::new(name);
            b.li(Reg::R1, 0x9e3779b9);
            b.li(Reg::R2, 0);
            b.li(Reg::R3, 1_000_000);
            b.li(Reg::R4, mask);
            b.li(Reg::R7, 6364136223846793005);
            let top = b.label();
            let skip = b.label();
            b.bind(top);
            b.mul(Reg::R1, Reg::R1, Reg::R7);
            b.addi(Reg::R1, Reg::R1, 0x1234567);
            b.srli(Reg::R5, Reg::R1, 33);
            b.and(Reg::R5, Reg::R5, Reg::R4);
            b.beq(Reg::R5, Reg::R0, skip);
            b.xor(Reg::R6, Reg::R6, Reg::R1);
            b.bind(skip);
            b.addi(Reg::R2, Reg::R2, 1);
            b.blt(Reg::R2, Reg::R3, top);
            b.finish()
        };
        let predictable = quick(&SimConfig::baseline(), &build("pred", 0), 20_000);
        let random = quick(&SimConfig::baseline(), &build("rand", 1), 20_000);
        assert!(random.bp_miss_rate() > 0.2, "mask 1 is a coin flip");
        assert!(predictable.bp_miss_rate() < 0.02);
        assert!(
            random.ipc() < predictable.ipc() * 0.9,
            "mispredicts must cost: {} vs {}",
            random.ipc(),
            predictable.ipc()
        );
    }

    /// A dependent multiply chain runs at ~1/mul_latency IPC.
    #[test]
    fn dependent_mul_chain_is_latency_bound() {
        let mut b = ProgramBuilder::new("mul-chain");
        b.li(Reg::R1, 3);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 1_000_000);
        let top = b.label();
        b.bind(top);
        for _ in 0..8 {
            b.mul(Reg::R1, Reg::R1, Reg::R1);
        }
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        let p = b.finish();
        let r = quick(&SimConfig::baseline(), &p, 20_000);
        // 11 insts per iteration, 8 serial muls of 3 cycles => >= 24 cycles
        let ipc = r.ipc();
        assert!(ipc < 0.6, "serial multiply chain too fast: {ipc}");
    }

    /// Wider machines retire an ILP-rich loop faster.
    #[test]
    fn width_scales_ilp_rich_code() {
        let mut b = ProgramBuilder::new("ilp");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1_000_000);
        let top = b.label();
        b.bind(top);
        for i in 3..11u8 {
            let r = Reg::from_index(i as usize).unwrap();
            b.addi(r, Reg::R1, i as i64);
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let narrow = quick(&SimConfig::baseline().with_width(2), &p, 20_000);
        let wide = quick(&SimConfig::baseline().with_width(8), &p, 20_000);
        assert!(
            wide.ipc() > narrow.ipc() * 1.5,
            "8-wide {} vs 2-wide {}",
            wide.ipc(),
            narrow.ipc()
        );
    }

    /// Writeback modelling surfaces DRAM writeback traffic for a
    /// store-streaming kernel and none without stores.
    #[test]
    fn writebacks_counted_for_dirty_streams() {
        let mut b = ProgramBuilder::new("wb");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0x400_0000);
        let top = b.label();
        b.bind(top);
        b.store(Reg::R5, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let mut cfg = SimConfig::baseline();
        cfg.model_writebacks = true;
        // tiny caches: the bandwidth-throttled fill stream must overflow
        // all three levels within the measurement window
        cfg.l1d = bfetch_mem::CacheConfig::new(2 * 1024, 2, 2);
        cfg.l2 = bfetch_mem::CacheConfig::new(4 * 1024, 2, 10);
        cfg.l3_bytes_per_core = 4 * 1024;
        let r = quick(&cfg, &p, 60_000);
        assert!(r.mem.writebacks > 0, "{:?}", r.mem);
        let mut off = cfg.clone();
        off.model_writebacks = false;
        let r2 = quick(&off, &p, 20_000);
        assert_eq!(r2.mem.writebacks, 0);
    }

    /// Retire-time ARF updates still produce a functional engine.
    #[test]
    fn retire_arf_mode_runs() {
        let mut b = ProgramBuilder::new("stream");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0x120_0000);
        let top = b.label();
        b.bind(top);
        b.load(Reg::R4, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let mut cfg = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
        cfg.bfetch.arf_at_retire = true;
        let r = quick(&cfg, &p, 20_000);
        assert!(r.mem.prefetch_issued > 0);
        assert!(r.ipc() > 0.05);
    }

    /// One producer, seven entries in its wake-up list, one issue port.
    /// `P` waits on a load, so everything fetched in its group queues on it:
    /// a one-source consumer, one whose *both* sources are `P`, a store of
    /// `P`, a multiply, a consumer of `P` and of a load that waits on nothing
    /// in the ROB, and one more. Waking them in any other order reserves the
    /// single port differently, so every completion time is pinned to what
    /// the three-link ROB produced with store-to-load forwarding off
    /// (recorded from the parent commit before the third link went).
    fn wake_order_program() -> Program {
        let mut b = ProgramBuilder::new("wake-order");
        b.init_words(0x2000, &[5, 6, 7, 8]);
        b.li(Reg::R1, 0x2000);
        b.li(Reg::R9, 7);
        b.load(Reg::R8, Reg::R1, 0); // L: unscheduled until its memory issue
        b.add(Reg::R2, Reg::R8, Reg::R8); // P: the producer, waits on L
        b.add(Reg::R3, Reg::R2, Reg::R9); // one source
        b.add(Reg::R4, Reg::R2, Reg::R2); // both sources
        b.store(Reg::R2, Reg::R1, 8); // store data
        b.mul(Reg::R5, Reg::R2, Reg::R9);
        b.load(Reg::R6, Reg::R1, 8); // reads the stored word through memory
        b.add(Reg::R7, Reg::R6, Reg::R2); // that load and P
        b.sub(Reg::R10, Reg::R9, Reg::R2);
        b.halt();
        b.finish()
    }

    fn wake_order_cfg() -> SimConfig {
        let mut cfg = SimConfig::baseline();
        cfg.fetch_width = 16;
        cfg.issue_width = 1;
        cfg.mem_ports = 1;
        cfg
    }

    /// Length of the wake-up list of the live entry at `slot`.
    fn waiters(core: &Core, slot: usize) -> usize {
        let (mut node, mut n) = (core.rob[slot].wake_head, 0);
        while node != NO_LINK {
            n += 1;
            node = core.rob[(node >> 2) as usize].next[(node & 3) as usize];
        }
        n
    }

    #[test]
    fn dependents_wake_in_the_order_they_were_appended() {
        let p = wake_order_program();
        let n = p.len() as u64;
        let cfg = wake_order_cfg();
        let mut core = Core::new(0, p, &cfg);
        let mut mem = bfetch_mem::MemorySystem::new(cfg.hierarchy(1));
        let mut complete_at = vec![u64::MAX; n as usize];
        let mut longest_list = 0;
        for now in 0..2_000 {
            core.cycle(now, &mut mem);
            if let Some(producer) = core.live_slot(3) {
                longest_list = longest_list.max(waiters(&core, producer));
            }
            for seq in core.rob_base..core.next_seq.min(n) {
                let e = &core.rob[core.slot_of(seq)];
                if e.scheduled {
                    complete_at[seq as usize] = e.complete_at;
                }
            }
        }
        assert_eq!(longest_list, 7, "the whole group queued on the producer");
        assert_eq!(
            complete_at,
            [234, 235, 466, 467, 468, 469, 468, 472, 466, 472, 471, 236]
        );
    }

    fn save(core: &Core) -> Vec<u8> {
        use bfetch_snapshot::SnapState as _;
        let mut w = bfetch_snapshot::Encoder::new();
        core.save_state(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8], p: &Program, cfg: &SimConfig) -> Result<Core, SnapshotError> {
        use bfetch_snapshot::SnapState as _;
        let mut core = Core::new(0, p.clone(), cfg);
        let mut r = bfetch_snapshot::Decoder::new(bytes);
        core.load_state(&mut r)?;
        r.finish()?;
        Ok(core)
    }

    /// A CRC-valid snapshot can still hold a ROB no run ever produced;
    /// every such state must come back as `Invalid`, not as an index panic,
    /// an endless wake-up walk or a silently different run.
    #[test]
    fn snapshot_round_trips_and_rejects_an_inconsistent_rob() {
        let p = wake_order_program();
        let cfg = wake_order_cfg().with_prefetcher(PrefetcherKind::BFetch);
        let mut core = Core::new(0, p.clone(), &cfg);
        let mut mem = bfetch_mem::MemorySystem::new(cfg.hierarchy(1));
        // stop in the cycle the first group dispatched: the producer's list
        // is at its longest and the block's registers are half written
        let mut now = 0;
        while core.live_slot(3).is_none_or(|s| waiters(&core, s) < 7) {
            core.cycle(now, &mut mem);
            now += 1;
            assert!(now < 2_000, "the group never queued on its producer");
        }
        assert!(core.block_entry.written != 0);
        let producer = core.live_slot(3).unwrap();

        let bytes = save(&core);
        let back = load(&bytes, &p, &cfg).expect("valid snapshot");
        assert_eq!(save(&back), bytes, "re-encoding is canonical");
        assert_eq!(back.rob, core.rob);

        let invalid = |what: &str, core: &Core| match load(&save(core), &p, &cfg) {
            Err(SnapshotError::Invalid { .. }) => {}
            other => panic!("{what}: expected Invalid, got {:?}", other.map(|_| ())),
        };

        let head = core.rob[producer].wake_head;
        let (first, link) = ((head >> 2) as usize, (head & 3) as usize);
        let second = core.rob[first].next[link];

        // a link naming a slot past the ring, a retired slot, or a third
        // link of an entry
        for bad in [(core.rob.len() as u32) << 2, (core.rob.len() as u32 - 1) << 2, head | 2] {
            core.rob[producer].wake_head = bad;
            invalid("wake-up link out of range", &core);
        }
        core.rob[producer].wake_head = head;

        // a cycle: the second node points back at the first
        core.rob[first].next[link] = head;
        invalid("wake-up link cycle", &core);
        core.rob[first].next[link] = second;

        // a tail that is not the last node would append into mid-list
        let tail = std::mem::replace(&mut core.rob[producer].wake_tail, head);
        invalid("wake-up list tail", &core);
        core.rob[producer].wake_tail = tail;

        // a dependence count that disagrees with the lists underflows or
        // never reaches zero
        core.rob[first].unresolved += 1;
        invalid("dependence count", &core);
        core.rob[first].unresolved -= 1;

        // an instruction index past the program
        let inst = std::mem::replace(&mut core.rob[first].inst, p.len() as u32);
        invalid("instruction index", &core);
        core.rob[first].inst = inst;

        // more live entries than the configured ROB holds, or fewer than
        // none
        let (rob_base, next_seq) = (core.rob_base, core.next_seq);
        core.next_seq = rob_base + cfg.rob_entries as u64 + 1;
        invalid("rob longer than rob_entries", &core);
        core.next_seq = next_seq;
        core.rob_base = next_seq + 1;
        invalid("rob of negative length", &core);
        core.rob_base = rob_base;

        // one record per in-flight branch, and this ROB holds none
        core.branch_q.push_back(BranchRecord {
            ghr_before: 0,
            taken: true,
            pred_taken: true,
            pred_strength: 3,
        });
        invalid("branch_q longer than the branches", &core);
        core.branch_q.pop_back();

        assert_eq!(save(&core), bytes, "every mutation was undone");
        load(&bytes, &p, &cfg).expect("the untouched snapshot still loads");
    }

    /// Steps a core and its memory for `cycles` cycles from `now`.
    fn step(core: &mut Core, mem: &mut bfetch_mem::MemorySystem, now: &mut u64, cycles: u64) {
        for _ in 0..cycles {
            core.cycle(*now, mem);
            mem.drain_feedback(|fb| core.feedback(fb.pc_hash, fb.useful));
            *now += 1;
        }
    }

    /// The sequence numbers cross many multiples of the ring size with the
    /// ROB full (a streaming kernel on cold caches, under B-Fetch), and a
    /// checkpoint taken with the ROB full and the block half fetched —
    /// registers already overwritten since its entry branch — resumes into
    /// the run the uninterrupted core goes on to have.
    #[test]
    fn ring_wrap_with_a_full_rob_survives_a_mid_block_checkpoint() {
        use bfetch_snapshot::SnapState as _;
        let mut b = ProgramBuilder::new("wrap");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0x800_0000);
        let top = b.label();
        b.bind(top);
        b.load(Reg::R4, Reg::R1, 0);
        for _ in 0..10 {
            b.add(Reg::R5, Reg::R5, Reg::R4);
            b.xor(Reg::R6, Reg::R6, Reg::R5);
        }
        b.addi(Reg::R1, Reg::R1, 64);
        b.load(Reg::R7, Reg::R1, -56); // base overwritten since block entry
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let p = b.finish();
        let cfg = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
        let ring = cfg.rob_entries.next_power_of_two() as u64;

        let mut core = Core::new(0, p.clone(), &cfg);
        let mut mem = bfetch_mem::MemorySystem::new(cfg.hierarchy(1));
        let mut now = 0;
        step(&mut core, &mut mem, &mut now, 20_000);
        // on to a cycle that leaves the ROB full in the middle of a block
        let mid_block_and_full = |c: &Core| {
            c.rob_len() == cfg.rob_entries && c.block_entry.written.count_ones() >= 3
        };
        while !mid_block_and_full(&core) {
            step(&mut core, &mut mem, &mut now, 1);
            assert!(now < 40_000, "the ROB never filled mid-block");
        }
        assert!(core.next_seq > 8 * ring, "only {} instructions", core.next_seq);

        let mut resumed = load(&save(&core), &p, &cfg).expect("core restores");
        let mut mw = bfetch_snapshot::Encoder::new();
        mem.save_state(&mut mw);
        let mut resumed_mem = bfetch_mem::MemorySystem::new(cfg.hierarchy(1));
        resumed_mem
            .load_state(&mut bfetch_snapshot::Decoder::new(&mw.into_bytes()))
            .expect("memory restores");

        let mut resumed_now = now;
        step(&mut core, &mut mem, &mut now, 20_000);
        step(&mut resumed, &mut resumed_mem, &mut resumed_now, 20_000);
        assert!(core.next_seq > 16 * ring);
        assert_eq!(save(&resumed), save(&core), "machine state diverged");
        assert_eq!(resumed.counters, core.counters);
        assert_eq!(resumed_mem.stats(0), mem.stats(0));
        assert_eq!(
            resumed.engine().map(|e| *e.stats()),
            core.engine().map(|e| *e.stats())
        );
    }
}
