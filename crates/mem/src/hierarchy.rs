//! The multi-level CMP memory hierarchy.
//!
//! Per-core L1I/L1D/L2 backed by a shared L3 and a bandwidth-limited DRAM
//! channel (Table II). Fills are installed when they *complete*, not when
//! they are requested, so prefetch timeliness is modelled: a late prefetch
//! only shaves the remaining fill latency off the demand access that merges
//! with it in the MSHRs.
//!
//! # Structure
//!
//! The chip is split along the private/shared boundary, so the stepping
//! loop in `bfetch-sim` can borrow one core's private state together with
//! the shared levels for the duration of that core's cycle:
//!
//! * [`CoreMem`] — one core's L1I/L1D/L2, demand and prefetch MSHRs,
//!   statistics, usefulness feedback, and the pending fills that touch only
//!   private levels (L2/L3 hits).
//! * [`SharedMem`] — the L3, the DRAM channel, and the pending fills
//!   that install into the L3 (DRAM-serviced misses). A [`CoreMem`]
//!   reaches it on an L2 miss through the `&mut SharedMem` its caller
//!   passes in.
//! * [`MemorySystem`] — the facade gluing the parts back together under
//!   the original single-object API.
//!
//! Fills carry a per-core *issue sequence* stamp. Shared fills install
//! their L3 portion in global completion order and are then re-queued onto
//! the owning core, so each core's L1/L2 installs happen in that core's
//! issue order — the property that makes the split observation-equivalent
//! to the old monolithic single-heap design.
//!
//! Standalone use constructs a [`MemorySystem`] from a [`HierarchyConfig`]
//! (usually `HierarchyConfig::baseline(cores)`); simulations built through
//! `bfetch-sim` get one from `SimConfig::hierarchy(cores)` so the figure
//! binaries share a single source of geometry truth.
//!
//! When a `Tracer` is installed via [`MemorySystem::set_tracer`], the
//! data-side prefetch lifecycle (issued, dropped, MSHR-merged, filled,
//! first-use, evicted-unused) and uncovered demand misses are emitted as
//! cycle-stamped trace events; with the default disabled tracer every
//! emission is a no-op branch.

use crate::cache::{CacheConfig, LineMeta, SetAssocCache};
use crate::dram::{Dram, DramConfig};
use crate::line_of;
use crate::mshr::{MshrFile, MshrOutcome};
use bfetch_stats::trace::{DropReason, ServiceLevel, TraceKind, Tracer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Each level's per-way payload (see [`WayMeta`](crate::WayMeta)). The
/// L1D keeps the per-load filter's feedback fields, the L2 and L3 only a
/// dirty bit for writeback modelling, and the L1I, which is never
/// written, nothing.
type L1iWay = ();
type L1dWay = LineMeta;
type L2Way = bool;
type L3Way = bool;

const _: () = {
    use std::mem::size_of;
    assert!(size_of::<L1dWay>() == 16);
    assert!(size_of::<L2Way>() == 1 && size_of::<L3Way>() == 1);
    assert!(size_of::<L1iWay>() == 0);
};

/// Per-core physical address stride: workloads on different cores occupy
/// disjoint physical ranges, standing in for per-process address spaces.
pub const CORE_ADDR_STRIDE: u64 = 1 << 40;

/// The kind of demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I side).
    InstFetch,
    /// Data load.
    Load,
    /// Data store (write-allocate; writebacks are not timed).
    Store,
}

/// Which level serviced a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// First-level hit.
    L1,
    /// Second-level hit.
    L2,
    /// Shared LLC hit.
    L3,
    /// Went to memory.
    Dram,
    /// Merged with an in-flight miss (possibly a late prefetch).
    InFlight,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available to the pipeline.
    pub complete_at: u64,
    /// Level that serviced the access.
    pub level: HitLevel,
    /// The level actually producing the data. Equal to `level` except for
    /// [`HitLevel::InFlight`] merges, where it is the level servicing the
    /// outstanding fill — the miss-level provenance the CPI-stack
    /// accounting charges stall cycles to.
    pub service: HitLevel,
    /// The access merged with an in-flight *prefetch-originated* fill, so
    /// part of the latency was already absorbed before the demand arrived.
    pub pf_covered: bool,
    /// When a full demand-MSHR file delayed the downstream issue, the
    /// cycle the structural delay ends; `0` when the miss issued
    /// immediately.
    pub queued_until: u64,
}

/// Usefulness feedback for a previously issued prefetch, consumed by the
/// B-Fetch per-load filter (Section IV-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchFeedback {
    /// Core whose L1D produced the event.
    pub core: usize,
    /// 10-bit hash of the load PC that triggered the prefetch.
    pub pc_hash: u16,
    /// `true` if a demand access touched the prefetched line; `false` if it
    /// was evicted untouched.
    pub useful: bool,
}

/// Per-core memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand loads observed at L1D.
    pub loads: u64,
    /// Demand stores observed at L1D.
    pub stores: u64,
    /// Instruction fetch lines observed at L1I.
    pub inst_fetches: u64,
    /// L1I demand misses.
    pub l1i_misses: u64,
    /// L1D demand hits.
    pub l1d_hits: u64,
    /// L1D demand misses.
    pub l1d_misses: u64,
    /// Demand accesses that merged with an in-flight fill.
    pub mshr_merges: u64,
    /// L2 demand hits (data side).
    pub l2_hits: u64,
    /// Shared L3 demand hits (data side).
    pub l3_hits: u64,
    /// DRAM line requests (demand, data side).
    pub dram_reqs: u64,
    /// Prefetches issued into the hierarchy.
    pub prefetch_issued: u64,
    /// Prefetches dropped as redundant (already cached or in flight).
    pub prefetch_redundant: u64,
    /// Prefetched lines first-touched by a demand access.
    pub prefetch_useful: u64,
    /// Prefetched lines evicted untouched.
    pub prefetch_useless: u64,
    /// Useful prefetches that were still in flight when demanded.
    pub prefetch_late: u64,
    /// Prefetches dropped to preserve MSHR capacity for demand misses.
    pub prefetch_mshr_drops: u64,
    /// Dirty-line writebacks that reached DRAM (writeback modelling only).
    pub writebacks: u64,
}

impl MemStats {
    /// Demand accesses to L1D.
    pub fn l1d_accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Field-wise difference `self − earlier` (for measuring a window of a
    /// longer run, e.g. after warmup).
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            inst_fetches: self.inst_fetches - earlier.inst_fetches,
            l1i_misses: self.l1i_misses - earlier.l1i_misses,
            l1d_hits: self.l1d_hits - earlier.l1d_hits,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            mshr_merges: self.mshr_merges - earlier.mshr_merges,
            l2_hits: self.l2_hits - earlier.l2_hits,
            l3_hits: self.l3_hits - earlier.l3_hits,
            dram_reqs: self.dram_reqs - earlier.dram_reqs,
            prefetch_issued: self.prefetch_issued - earlier.prefetch_issued,
            prefetch_redundant: self.prefetch_redundant - earlier.prefetch_redundant,
            prefetch_useful: self.prefetch_useful - earlier.prefetch_useful,
            prefetch_useless: self.prefetch_useless - earlier.prefetch_useless,
            prefetch_late: self.prefetch_late - earlier.prefetch_late,
            prefetch_mshr_drops: self.prefetch_mshr_drops - earlier.prefetch_mshr_drops,
            writebacks: self.writebacks - earlier.writebacks,
        }
    }

    /// Fraction of issued prefetches that proved useful, in `[0, 1]`.
    pub fn prefetch_accuracy(&self) -> f64 {
        let judged = self.prefetch_useful + self.prefetch_useless;
        if judged == 0 {
            0.0
        } else {
            self.prefetch_useful as f64 / judged as f64
        }
    }
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores sharing the L3.
    pub cores: usize,
    /// Per-core instruction cache.
    pub l1i: CacheConfig,
    /// Per-core data cache.
    pub l1d: CacheConfig,
    /// Per-core unified L2.
    pub l2: CacheConfig,
    /// Shared LLC (*total* capacity, already multiplied by core count).
    pub l3: CacheConfig,
    /// DRAM controller parameters.
    pub dram: DramConfig,
    /// L1D demand MSHR entries per core.
    pub l1d_mshrs: usize,
    /// Per-core prefetch buffer entries (outstanding prefetch fills; a
    /// separate pool so speculative traffic can never starve demand
    /// misses, and vice versa).
    pub prefetch_buffers: usize,
    /// Model dirty-line writebacks: evicted dirty lines cascade down the
    /// hierarchy and LLC writebacks consume DRAM channel bandwidth.
    /// Default off (the recorded experiments use the paper's
    /// read-traffic-only model).
    pub model_writebacks: bool,
}

impl HierarchyConfig {
    /// The Table II baseline for `cores` cores: 64 KB/8-way L1s (2 cycles),
    /// 256 KB/8-way L2 (10 cycles), 2 MB/core 16-way shared L3 (20 cycles),
    /// 200-cycle DRAM at 12.8 GB/s.
    pub fn baseline(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self {
            cores,
            l1i: CacheConfig::new(64 * 1024, 8, 2),
            l1d: CacheConfig::new(64 * 1024, 8, 2),
            l2: CacheConfig::new(256 * 1024, 8, 10),
            l3: CacheConfig::new(2 * 1024 * 1024 * cores as u64, 16, 20),
            dram: DramConfig::baseline(),
            l1d_mshrs: 4,
            prefetch_buffers: 32,
            model_writebacks: false,
        }
    }
}

/// A scheduled cache fill, installed when its completion cycle arrives.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    complete_at: u64,
    core: usize,
    phys: u64,
    meta: LineMeta,
    fill_l2: bool,
    fill_l3: bool,
    is_inst: bool,
    /// Owning core's monotone issue counter: all of one core's fills
    /// install into its private levels in issue order, even when the fill
    /// detours through the shared queue.
    issue_seq: u64,
}

/// A slot-recycling priority queue of [`PendingFill`]s ordered by
/// `(complete_at, seq)`.
#[derive(Debug, Default)]
struct FillPool {
    // (complete_at, seq, slot): `seq` is a monotone counter so fills
    // completing on the same cycle retire in issue order even though slots
    // are recycled through the free list.
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    data: Vec<Option<PendingFill>>,
    free: Vec<u64>,
}

impl FillPool {
    fn push(&mut self, seq: u64, fill: PendingFill) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.data[i as usize] = Some(fill);
                i
            }
            None => {
                self.data.push(Some(fill));
                (self.data.len() - 1) as u64
            }
        };
        self.heap.push(Reverse((fill.complete_at, seq, slot)));
    }

    fn pop_due(&mut self, now: u64) -> Option<PendingFill> {
        let &Reverse((t, _seq, slot)) = self.heap.peek()?;
        if t > now {
            return None;
        }
        self.heap.pop();
        self.free.push(slot);
        Some(self.data[slot as usize].take().expect("fill present"))
    }

    /// Earliest outstanding completion cycle (`u64::MAX` when empty).
    fn next_due(&self) -> u64 {
        self.heap.peek().map_or(u64::MAX, |&Reverse((t, _, _))| t)
    }

    fn mark_used(&mut self, core: usize, line: u64) {
        for f in self.data.iter_mut().flatten() {
            if f.core == core && line_of(f.phys) == line {
                f.meta.used = true;
            }
        }
    }
}

/// The chip-shared memory levels: L3, DRAM channel, and the queue of fills
/// that install into the L3.
#[derive(Debug)]
pub struct SharedMem {
    cfg: HierarchyConfig,
    l3: SetAssocCache<L3Way>,
    dram: Dram,
    fills: FillPool,
    fill_seq: u64,
}

impl SharedMem {
    fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l3: SetAssocCache::new(cfg.l3),
            dram: Dram::new(cfg.dram),
            fills: FillPool::default(),
            fill_seq: 0,
            cfg,
        }
    }

    /// Handles a (possibly dirty) L3 victim: dirty lines are written back
    /// to DRAM, consuming channel bandwidth.
    fn dirty_l3_victim(&mut self, stats: &mut MemStats, victim: Option<(u64, bool)>, now: u64) {
        if let Some((vaddr, true)) = victim {
            stats.writebacks += 1;
            self.dram.request(line_of(vaddr), now);
        }
    }

    /// The shared DRAM controller (for utilization reporting).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Walks L3 → DRAM for a line that missed a core's L2; the L3 lookup
    /// starts at `start`. Returns `(complete_at, level, fill_l3)`;
    /// `fill_l3` is set when the line came from DRAM and must install into
    /// the L3.
    fn lower(
        &mut self,
        phys: u64,
        start: u64,
        demand: bool,
        stats: &mut MemStats,
    ) -> (u64, HitLevel, bool) {
        let t_l3 = start + self.cfg.l3.latency;
        if self.l3.touch(phys) {
            if demand {
                stats.l3_hits += 1;
            }
            return (t_l3, HitLevel::L3, false);
        }
        if demand {
            stats.dram_reqs += 1;
        }
        let done = self.dram.request(line_of(phys), t_l3);
        (done, HitLevel::Dram, true)
    }

    /// Queues a fill that installs into the shared L3 before completing in
    /// the owner's private levels.
    fn schedule_fill(&mut self, fill: PendingFill) {
        let seq = self.fill_seq;
        self.fill_seq += 1;
        self.fills.push(seq, fill);
    }

    /// Marks any in-flight shared fill of `line` owned by `core` as used
    /// (a demand access merged with it; the eventual install must not
    /// double-report usefulness).
    fn mark_fill_used(&mut self, core: usize, line: u64) {
        self.fills.mark_used(core, line);
    }
}

/// One core's private slice of the memory system: L1I/L1D/L2, MSHRs,
/// statistics, prefetch-usefulness feedback, and the fills that touch only
/// private levels.
///
/// Timestamps must be non-decreasing across calls for a given run, and the
/// chip-wide fill drain ([`drain_chip`] or [`MemorySystem::drain`]) must
/// have been run at the current cycle before an access — fills always
/// complete strictly in the future, so one drain per cycle suffices.
#[derive(Debug)]
pub struct CoreMem {
    id: usize,
    cfg: HierarchyConfig,
    l1i: SetAssocCache<L1iWay>,
    l1d: SetAssocCache<L1dWay>,
    l2: SetAssocCache<L2Way>,
    mshr: MshrFile,
    pf_mshr: MshrFile,
    fills: FillPool,
    issue_seq: u64,
    /// Earliest completion this core has scheduled since the guard last
    /// collected it (`u64::MAX` when none); feeds [`ChipGuard::note`].
    sched_min: u64,
    feedback: Vec<PrefetchFeedback>,
    stats: MemStats,
    tracer: Tracer,
}

impl CoreMem {
    fn new(id: usize, cfg: HierarchyConfig) -> Self {
        Self {
            id,
            cfg,
            l1i: SetAssocCache::new(cfg.l1i),
            l1d: SetAssocCache::new(cfg.l1d),
            l2: SetAssocCache::new(cfg.l2),
            mshr: MshrFile::new(cfg.l1d_mshrs),
            pf_mshr: MshrFile::new(cfg.prefetch_buffers),
            fills: FillPool::default(),
            issue_seq: 0,
            sched_min: u64::MAX,
            feedback: Vec::new(),
            stats: MemStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// This core's index on the chip.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This core's statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Live demand-MSHR entries (watchdog diagnostics).
    pub fn mshr_live(&self) -> usize {
        self.mshr.len()
    }

    /// Live prefetch-MSHR entries (watchdog diagnostics).
    pub fn pf_mshr_live(&self) -> usize {
        self.pf_mshr.len()
    }

    /// Installs a trace handle for this core's events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drains pending feedback through a callback, keeping capacity.
    pub fn drain_feedback(&mut self, mut f: impl FnMut(PrefetchFeedback)) {
        for fb in self.feedback.drain(..) {
            f(fb);
        }
    }

    /// Collects (and resets) the earliest completion cycle scheduled since
    /// the last collection — the chip guard's update feed.
    pub fn take_sched_min(&mut self) -> u64 {
        std::mem::replace(&mut self.sched_min, u64::MAX)
    }

    #[inline]
    fn translate(&self, addr: u64) -> u64 {
        addr.wrapping_add(self.id as u64 * CORE_ADDR_STRIDE)
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.issue_seq;
        self.issue_seq += 1;
        s
    }

    /// Routes a finished fill to the right queue: L3-installing fills
    /// arbitrate through the shared level, private ones stay local.
    fn dispatch_fill(&mut self, shared: &mut SharedMem, fill: PendingFill) {
        self.sched_min = self.sched_min.min(fill.complete_at);
        if fill.fill_l3 {
            shared.schedule_fill(fill);
        } else {
            self.fills.push(fill.issue_seq, fill);
        }
    }

    /// Walks L2 → shared levels starting the lookup at `start` and returns
    /// `(complete_at, level, fill_l2, fill_l3)`.
    fn lower_levels(
        &mut self,
        shared: &mut SharedMem,
        phys: u64,
        start: u64,
        demand: bool,
    ) -> (u64, HitLevel, bool, bool) {
        let t_l2 = start + self.cfg.l2.latency;
        if self.l2.touch(phys) {
            if demand {
                self.stats.l2_hits += 1;
            }
            return (t_l2, HitLevel::L2, false, false);
        }
        let (done, level, fill_l3) = shared.lower(phys, t_l2, demand, &mut self.stats);
        (done, level, true, fill_l3)
    }

    /// Performs a demand access at cycle `now`. The caller is responsible
    /// for the cycle's chip-wide drain having already run.
    pub fn access(
        &mut self,
        shared: &mut SharedMem,
        kind: AccessKind,
        addr: u64,
        now: u64,
    ) -> AccessOutcome {
        let phys = self.translate(addr);
        let line = line_of(phys);
        let is_inst = kind == AccessKind::InstFetch;
        match kind {
            AccessKind::InstFetch => self.stats.inst_fetches += 1,
            AccessKind::Load => self.stats.loads += 1,
            AccessKind::Store => self.stats.stores += 1,
        }

        let l1_latency = if is_inst {
            self.cfg.l1i.latency
        } else {
            self.cfg.l1d.latency
        };
        let l1_hit = if is_inst {
            self.l1i.access(phys).is_some()
        } else if let Some(before) = self.l1d.access(phys) {
            if kind == AccessKind::Store && self.cfg.model_writebacks {
                self.l1d.mark_dirty(phys);
            }
            self.stats.l1d_hits += 1;
            if before.prefetched && !before.used {
                self.stats.prefetch_useful += 1;
                self.tracer.emit_for(
                    self.id as u32,
                    now,
                    TraceKind::PrefetchFirstUse {
                        line,
                        pc_hash: before.pc_hash,
                        lead_cycles: now.saturating_sub(before.fill_at),
                    },
                );
                self.feedback.push(PrefetchFeedback {
                    core: self.id,
                    pc_hash: before.pc_hash,
                    useful: true,
                });
            }
            true
        } else {
            false
        };
        if l1_hit {
            return AccessOutcome {
                complete_at: now + l1_latency,
                level: HitLevel::L1,
                service: HitLevel::L1,
                pf_covered: false,
                queued_until: 0,
            };
        }
        if is_inst {
            self.stats.l1i_misses += 1;
        } else {
            self.stats.l1d_misses += 1;
        }

        // merge with an outstanding demand miss?
        if let Some((complete_at, _, _, service)) = self.mshr.lookup(line) {
            self.stats.mshr_merges += 1;
            if !is_inst {
                self.tracer.emit_for(
                    self.id as u32,
                    now,
                    TraceKind::DemandMiss {
                        line,
                        level: ServiceLevel::InFlight,
                    },
                );
            }
            return AccessOutcome {
                complete_at: complete_at.max(now + l1_latency),
                level: HitLevel::InFlight,
                service,
                pf_covered: false,
                queued_until: 0,
            };
        }
        // merge with an in-flight prefetch? (a *late* prefetch — only the
        // first merging demand scores it; the entry is then promoted)
        if let Some((complete_at, was_prefetch, pc_hash, service)) = self.pf_mshr.lookup(line) {
            self.stats.mshr_merges += 1;
            if was_prefetch && !is_inst {
                self.stats.prefetch_useful += 1;
                self.stats.prefetch_late += 1;
                self.tracer.emit_for(
                    self.id as u32,
                    now,
                    TraceKind::PrefetchMshrMerged {
                        line,
                        pc_hash,
                        remaining_cycles: complete_at.saturating_sub(now),
                    },
                );
                self.feedback.push(PrefetchFeedback {
                    core: self.id,
                    pc_hash,
                    useful: true,
                });
                self.pf_mshr.promote_to_demand(line);
                // the eventual fill must not double-report
                self.fills.mark_used(self.id, line);
                shared.mark_fill_used(self.id, line);
            } else if !is_inst {
                // promoted entry: plain in-flight demand merge
                self.tracer.emit_for(
                    self.id as u32,
                    now,
                    TraceKind::DemandMiss {
                        line,
                        level: ServiceLevel::InFlight,
                    },
                );
            }
            return AccessOutcome {
                complete_at: complete_at.max(now + l1_latency),
                level: HitLevel::InFlight,
                service,
                // the entire pf_mshr pool is prefetch-originated, so even a
                // merge after promotion rides a fill a prefetch started
                pf_covered: true,
                queued_until: 0,
            };
        }
        match self.mshr.request(line, now) {
            MshrOutcome::Merged { .. } => unreachable!("lookup checked above"),
            MshrOutcome::Allocated { start_at } => {
                let (done, level, fill_l2, fill_l3) =
                    self.lower_levels(shared, phys, start_at + l1_latency, true);
                if !is_inst {
                    let service = match level {
                        HitLevel::L2 => ServiceLevel::L2,
                        HitLevel::L3 => ServiceLevel::L3,
                        _ => ServiceLevel::Dram,
                    };
                    self.tracer.emit_for(
                        self.id as u32,
                        now,
                        TraceKind::DemandMiss {
                            line,
                            level: service,
                        },
                    );
                }
                self.mshr.fill_scheduled(line, done, false, 0, level);
                let fill = PendingFill {
                    complete_at: done,
                    core: self.id,
                    phys,
                    meta: LineMeta {
                        prefetched: false,
                        used: true,
                        pc_hash: 0,
                        dirty: kind == AccessKind::Store,
                        fill_at: done,
                    },
                    fill_l2,
                    fill_l3,
                    is_inst,
                    issue_seq: self.next_seq(),
                };
                self.dispatch_fill(shared, fill);
                AccessOutcome {
                    complete_at: done,
                    level,
                    service: level,
                    pf_covered: false,
                    queued_until: if start_at > now { start_at } else { 0 },
                }
            }
        }
    }

    /// Issues a prefetch of `addr` into this core's L1D, tagged with the
    /// 10-bit originating-load-PC hash. Returns the fill completion cycle,
    /// or `None` if the prefetch was dropped as redundant.
    pub fn prefetch(
        &mut self,
        shared: &mut SharedMem,
        addr: u64,
        pc_hash: u16,
        now: u64,
    ) -> Option<u64> {
        let phys = self.translate(addr);
        let line = line_of(phys);
        self.stats.prefetch_issued += 1;
        if self.l1d.probe(phys) || self.mshr.contains(line) || self.pf_mshr.contains(line) {
            self.stats.prefetch_redundant += 1;
            self.tracer.emit_for(
                self.id as u32,
                now,
                TraceKind::PrefetchDropped {
                    line,
                    pc_hash: pc_hash & 0x3ff,
                    reason: DropReason::Redundant,
                },
            );
            return None;
        }
        // the prefetch buffer pool is bounded: drop rather than queue so
        // stale speculative requests never pile up
        if self.pf_mshr.free() == 0 {
            self.stats.prefetch_mshr_drops += 1;
            self.tracer.emit_for(
                self.id as u32,
                now,
                TraceKind::PrefetchDropped {
                    line,
                    pc_hash: pc_hash & 0x3ff,
                    reason: DropReason::MshrFull,
                },
            );
            return None;
        }
        // the line is in no MSHR and a prefetch buffer is free, so the
        // buffer is allocated now: `MshrFile::request` would only say so
        let (done, level, fill_l2, fill_l3) =
            self.lower_levels(shared, phys, now + self.cfg.l1d.latency, false);
        self.pf_mshr
            .fill_scheduled(line, done, true, pc_hash & 0x3ff, level);
        self.tracer.emit_for(
            self.id as u32,
            now,
            TraceKind::PrefetchIssued {
                line,
                pc_hash: pc_hash & 0x3ff,
            },
        );
        let fill = PendingFill {
            complete_at: done,
            core: self.id,
            phys,
            meta: LineMeta {
                prefetched: true,
                used: false,
                pc_hash: pc_hash & 0x3ff,
                dirty: false,
                fill_at: done,
            },
            fill_l2,
            fill_l3,
            is_inst: false,
            issue_seq: self.next_seq(),
        };
        self.dispatch_fill(shared, fill);
        Some(done)
    }

    /// Installs this core's due fills (including shared fills already
    /// re-queued here by the chip drain) in issue order, and retires the
    /// corresponding MSHR entries.
    fn drain_private(&mut self, shared: &mut SharedMem, now: u64) {
        while let Some(fill) = self.fills.pop_due(now) {
            // a routed shared fill's L3 portion was already installed by
            // the chip drain; only the private levels remain
            if fill.fill_l2 {
                let v2 = self.l2.insert(fill.phys, false);
                self.dirty_l2_victim(shared, v2, fill.complete_at);
            }
            if fill.is_inst {
                self.l1i.insert(fill.phys, ());
            } else {
                if fill.meta.prefetched {
                    self.tracer.emit_for(
                        self.id as u32,
                        fill.complete_at,
                        TraceKind::PrefetchFilled {
                            line: line_of(fill.phys),
                            pc_hash: fill.meta.pc_hash,
                        },
                    );
                }
                if let Some((vaddr, vmeta)) = self.l1d.insert(fill.phys, fill.meta) {
                    if vmeta.prefetched && !vmeta.used {
                        self.stats.prefetch_useless += 1;
                        self.tracer.emit_for(
                            self.id as u32,
                            fill.complete_at,
                            TraceKind::PrefetchEvictedUnused {
                                line: vaddr,
                                pc_hash: vmeta.pc_hash,
                            },
                        );
                        self.feedback.push(PrefetchFeedback {
                            core: self.id,
                            pc_hash: vmeta.pc_hash,
                            useful: false,
                        });
                    }
                    if self.cfg.model_writebacks && vmeta.dirty {
                        self.writeback(shared, vaddr, fill.complete_at);
                    }
                }
            }
            self.mshr.expire(now.min(fill.complete_at));
            self.pf_mshr.expire(now.min(fill.complete_at));
        }
    }

    /// Pushes a dirty line evicted from the L1D down one level; dirty lines
    /// falling out of the LLC consume DRAM channel bandwidth.
    fn writeback(&mut self, shared: &mut SharedMem, line_addr: u64, now: u64) {
        if !self.l2.mark_dirty(line_addr) {
            let v2 = self.l2.insert(line_addr, true);
            self.dirty_l2_victim(shared, v2, now);
        }
    }

    /// Handles a (possibly dirty) L2 victim: dirty lines move to the L3.
    fn dirty_l2_victim(&mut self, shared: &mut SharedMem, victim: Option<(u64, bool)>, now: u64) {
        let Some((vaddr, true)) = victim else { return };
        if !shared.l3.mark_dirty(vaddr) {
            let v3 = shared.l3.insert(vaddr, true);
            shared.dirty_l3_victim(&mut self.stats, v3, now);
        }
    }

    /// Sweeps both MSHR files at `now` (each file internally guards with
    /// its own earliest-completion bound) and returns the new lower bound
    /// on this core's earliest outstanding completion.
    fn expire_mshrs(&mut self, now: u64) -> u64 {
        self.mshr.expire(now);
        self.pf_mshr.expire(now);
        self.mshr.earliest().min(self.pf_mshr.earliest())
    }
}

/// Chip-wide skip guards: lower bounds on the earliest outstanding fill
/// completion and MSHR retirement anywhere on the chip. Stale-low is
/// harmless (one wasted sweep); stale-high would skip retirements, so the
/// bounds are only lowered by [`ChipGuard::note`] as fills are scheduled
/// and only raised by a full sweep in [`drain_chip`].
#[derive(Debug, Clone, Copy)]
pub struct ChipGuard {
    earliest_fill: u64,
    earliest_mshr: u64,
}

impl ChipGuard {
    /// A guard for an idle chip (nothing outstanding).
    pub fn new() -> Self {
        Self {
            earliest_fill: u64::MAX,
            earliest_mshr: u64::MAX,
        }
    }

    /// Records a newly scheduled completion at `t` (u64::MAX is a no-op,
    /// so feeding [`CoreMem::take_sched_min`] straight in is safe).
    pub fn note(&mut self, t: u64) {
        self.earliest_fill = self.earliest_fill.min(t);
        self.earliest_mshr = self.earliest_mshr.min(t);
    }

    /// The first cycle at which [`drain_chip`] may have a fill to install or
    /// an MSHR entry to retire (`u64::MAX` on an idle chip). A lower bound:
    /// draining at any earlier cycle is a no-op.
    pub fn next_due(&self) -> u64 {
        self.earliest_fill.min(self.earliest_mshr)
    }
}

impl Default for ChipGuard {
    fn default() -> Self {
        Self::new()
    }
}

/// Installs every fill that has completed by `now` — shared fills' L3
/// portions in global completion order, each core's private installs in
/// that core's issue order — and retires the corresponding MSHR entries.
///
/// This is the one chip-wide synchronization point of the memory model.
/// Fills complete strictly in the future (the shortest path is an L2 hit,
/// `now` + L1 + L2 latency), so nothing scheduled during cycle `now` can
/// be due at `now`: running the drain once at the start of a cycle (the
/// stepping loop) and running it before every access of that cycle (the
/// [`MemorySystem`] facade) install the same fills at the same point.
pub fn drain_chip(cores: &mut [CoreMem], shared: &mut SharedMem, now: u64, guard: &mut ChipGuard) {
    if guard.earliest_fill <= now {
        while let Some(fill) = shared.fills.pop_due(now) {
            let v3 = shared.l3.insert(fill.phys, false);
            let owner = &mut cores[fill.core];
            shared.dirty_l3_victim(&mut owner.stats, v3, fill.complete_at);
            // hand the private portion back to the owner; its issue stamp
            // slots it into the core's install order
            owner.fills.push(fill.issue_seq, fill);
        }
        let mut next = shared.fills.next_due(); // always > now here
        for c in cores.iter_mut() {
            c.drain_private(shared, now);
            next = next.min(c.fills.next_due());
        }
        guard.earliest_fill = next;
    }
    if guard.earliest_mshr <= now {
        guard.earliest_mshr = cores
            .iter_mut()
            .map(|c| c.expire_mshrs(now))
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// The memory-system surface a timing core drives. The [`MemorySystem`]
/// facade implements it for standalone use; the stepping loop's per-core
/// view implements it over one [`CoreMem`] plus the [`SharedMem`]. Cores
/// are generic over it (monomorphized), so the indirection costs nothing
/// on the hot path.
pub trait MemoryInterface {
    /// Performs a demand access for `core` at cycle `now`.
    fn access(&mut self, core: usize, kind: AccessKind, addr: u64, now: u64) -> AccessOutcome;
    /// Issues a data prefetch; `None` when dropped.
    fn prefetch(&mut self, core: usize, addr: u64, pc_hash: u16, now: u64) -> Option<u64>;
    /// Per-core statistics.
    fn stats(&self, core: usize) -> &MemStats;
    /// Live demand-MSHR entries for `core` (watchdog diagnostics).
    fn mshr_live(&self, core: usize) -> usize;
    /// Live prefetch-MSHR entries for `core` (watchdog diagnostics).
    fn pf_mshr_live(&self, core: usize) -> usize;
}

/// The chip's memory system: all caches, MSHRs and DRAM, advanced by the
/// timestamps the timing cores pass in (which must be non-decreasing per
/// call site within a run).
///
/// This is the facade over the [`CoreMem`]/[`SharedMem`] split;
/// [`MemorySystem::into_parts`] hands the pieces to the stepping loop.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: HierarchyConfig,
    cores: Vec<CoreMem>,
    shared: SharedMem,
    guard: ChipGuard,
}

impl MemorySystem {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on invalid cache geometry or a zero core count.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        Self {
            cores: (0..cfg.cores).map(|i| CoreMem::new(i, cfg)).collect(),
            shared: SharedMem::new(cfg),
            guard: ChipGuard::new(),
            cfg,
        }
    }

    /// Installs the trace handle shared with the rest of the simulation.
    /// The memory system is shared by all cores, so it stamps core indices
    /// explicitly on each event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for c in &mut self.cores {
            c.set_tracer(tracer.clone());
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> &MemStats {
        self.cores[core].stats()
    }

    /// The shared DRAM controller (for utilization reporting).
    pub fn dram(&self) -> &Dram {
        self.shared.dram()
    }

    /// Live demand-MSHR entries for `core` (watchdog diagnostics).
    pub fn mshr_live(&self, core: usize) -> usize {
        self.cores[core].mshr_live()
    }

    /// Live prefetch-MSHR entries for `core` (watchdog diagnostics).
    pub fn pf_mshr_live(&self, core: usize) -> usize {
        self.cores[core].pf_mshr_live()
    }

    /// Splits the system into its per-core and shared halves for the
    /// stepping loop.
    pub fn into_parts(self) -> (Vec<CoreMem>, SharedMem) {
        (self.cores, self.shared)
    }

    /// Drains and returns pending prefetch-usefulness feedback events,
    /// grouped by core (within a core, in event order).
    pub fn take_feedback(&mut self) -> Vec<PrefetchFeedback> {
        let mut out = Vec::new();
        for c in &mut self.cores {
            out.append(&mut c.feedback);
        }
        out
    }

    /// Drains pending feedback through a callback, keeping the buffers'
    /// capacity. The per-cycle path uses this so an idle chip does no heap
    /// work ([`MemorySystem::take_feedback`] hands a whole vector out and
    /// forces a fresh allocation on the next event).
    pub fn drain_feedback(&mut self, mut f: impl FnMut(PrefetchFeedback)) {
        for c in &mut self.cores {
            c.drain_feedback(&mut f);
        }
    }

    /// Installs every fill that has completed by `now` and retires the
    /// corresponding MSHR entries.
    pub fn drain(&mut self, now: u64) {
        drain_chip(&mut self.cores, &mut self.shared, now, &mut self.guard);
    }

    /// Performs a demand access for `core` at cycle `now`.
    ///
    /// Timestamps must be non-decreasing across calls for a given run.
    pub fn access(&mut self, core: usize, kind: AccessKind, addr: u64, now: u64) -> AccessOutcome {
        self.drain(now);
        let out = self.cores[core].access(&mut self.shared, kind, addr, now);
        self.guard.note(self.cores[core].take_sched_min());
        out
    }

    /// Issues a prefetch of `addr` into `core`'s L1D, tagged with the 10-bit
    /// originating-load-PC hash. Returns the fill completion cycle, or
    /// `None` if the prefetch was dropped as redundant.
    pub fn prefetch(&mut self, core: usize, addr: u64, pc_hash: u16, now: u64) -> Option<u64> {
        self.drain(now);
        let out = self.cores[core].prefetch(&mut self.shared, addr, pc_hash, now);
        self.guard.note(self.cores[core].take_sched_min());
        out
    }
}

impl MemoryInterface for MemorySystem {
    fn access(&mut self, core: usize, kind: AccessKind, addr: u64, now: u64) -> AccessOutcome {
        MemorySystem::access(self, core, kind, addr, now)
    }
    fn prefetch(&mut self, core: usize, addr: u64, pc_hash: u16, now: u64) -> Option<u64> {
        MemorySystem::prefetch(self, core, addr, pc_hash, now)
    }
    fn stats(&self, core: usize) -> &MemStats {
        MemorySystem::stats(self, core)
    }
    fn mshr_live(&self, core: usize) -> usize {
        MemorySystem::mshr_live(self, core)
    }
    fn pf_mshr_live(&self, core: usize) -> usize {
        MemorySystem::pf_mshr_live(self, core)
    }
}

bfetch_snapshot::impl_snap_enum!(HitLevel {
    HitLevel::L1 = 0,
    HitLevel::L2 = 1,
    HitLevel::L3 = 2,
    HitLevel::Dram = 3,
    HitLevel::InFlight = 4
});

bfetch_snapshot::impl_snap_struct!(PrefetchFeedback {
    core,
    pc_hash,
    useful
});

bfetch_snapshot::impl_snap_struct!(MemStats {
    loads,
    stores,
    inst_fetches,
    l1i_misses,
    l1d_hits,
    l1d_misses,
    mshr_merges,
    l2_hits,
    l3_hits,
    dram_reqs,
    prefetch_issued,
    prefetch_redundant,
    prefetch_useful,
    prefetch_useless,
    prefetch_late,
    prefetch_mshr_drops,
    writebacks
});

bfetch_snapshot::impl_snap_struct!(PendingFill {
    complete_at,
    core,
    phys,
    meta,
    fill_l2,
    fill_l3,
    is_inst,
    issue_seq
});

bfetch_snapshot::impl_snap_struct!(ChipGuard {
    earliest_fill,
    earliest_mshr
});

// The pool is framed in canonical `(complete_at, seq, slot)` heap order and
// rebuilt with compacted slots and an empty free list. Slot indices are a
// storage detail: `(complete_at, seq)` pairs are unique (every producer
// stamps a monotone counter), so the slot tie-break never decides pop
// order and the compaction is observation-equivalent.
impl bfetch_snapshot::SnapState for FillPool {
    fn save_state(&self, w: &mut bfetch_snapshot::Encoder) {
        use bfetch_snapshot::Snap as _;
        let mut entries: Vec<(u64, u64, u64)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        entries.sort_unstable();
        w.put_usize(entries.len());
        for (_, seq, slot) in entries {
            seq.save(w);
            match self.data.get(slot as usize).and_then(|f| f.as_ref()) {
                Some(fill) => fill.save(w),
                // a heap entry always points at a live slot; encode a
                // defused default so a broken invariant cannot panic here
                None => PendingFill {
                    complete_at: 0,
                    core: 0,
                    phys: 0,
                    meta: LineMeta::default(),
                    fill_l2: false,
                    fill_l3: false,
                    is_inst: false,
                    issue_seq: 0,
                }
                .save(w),
            }
        }
    }

    fn load_state(
        &mut self,
        r: &mut bfetch_snapshot::Decoder<'_>,
    ) -> Result<(), bfetch_snapshot::SnapshotError> {
        use bfetch_snapshot::Snap as _;
        let n = r.take_len()?;
        self.heap.clear();
        self.data.clear();
        self.free.clear();
        for i in 0..n {
            let seq = u64::load(r)?;
            let fill = PendingFill::load(r)?;
            self.heap.push(Reverse((fill.complete_at, seq, i as u64)));
            self.data.push(Some(fill));
        }
        Ok(())
    }
}

bfetch_snapshot::snap_state!(SharedMem {
    cfg: skip,
    l3: state,
    dram: state,
    fills: state,
    fill_seq: val,
});

// The tracer is re-installed by whoever owns the run.
bfetch_snapshot::snap_state!(CoreMem {
    id: skip,
    cfg: skip,
    l1i: state,
    l1d: state,
    l2: state,
    mshr: state,
    pf_mshr: state,
    fills: state,
    issue_seq: val,
    sched_min: val,
    feedback: val,
    stats: val,
    tracer: skip,
});

bfetch_snapshot::snap_state!(MemorySystem {
    cfg: skip,
    cores: each,
    shared: state,
    guard: val,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(HierarchyConfig::baseline(cores))
    }

    #[test]
    fn cold_miss_goes_to_dram_with_full_latency() {
        let mut m = sys(1);
        let out = m.access(0, AccessKind::Load, 0x10_0000, 0);
        assert_eq!(out.level, HitLevel::Dram);
        // 2 (L1) + 10 (L2) + 20 (L3) + 200 (DRAM)
        assert_eq!(out.complete_at, 232);
    }

    #[test]
    fn fill_installs_only_after_completion() {
        let mut m = sys(1);
        let miss = m.access(0, AccessKind::Load, 0x10_0000, 0);
        // before the fill lands, another access merges in-flight
        let merged = m.access(0, AccessKind::Load, 0x10_0000, 10);
        assert_eq!(merged.level, HitLevel::InFlight);
        assert_eq!(merged.complete_at, miss.complete_at);
        // after the fill lands, it's an L1 hit
        let hit = m.access(0, AccessKind::Load, 0x10_0000, miss.complete_at + 1);
        assert_eq!(hit.level, HitLevel::L1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = sys(1);
        let done = m.access(0, AccessKind::Load, 0x10_0000, 0).complete_at;
        let mut now = done + 1;
        // blow the line out of L1D (64KB, 8-way, 128 sets): 9 conflicting
        // lines at 8KB stride map to the same set.
        for i in 1..=16u64 {
            let out = m.access(0, AccessKind::Load, 0x10_0000 + i * 8 * 1024, now);
            now = out.complete_at + 1;
        }
        let out = m.access(0, AccessKind::Load, 0x10_0000, now);
        assert_eq!(out.level, HitLevel::L2);
        assert_eq!(out.complete_at, now + 2 + 10);
    }

    #[test]
    fn prefetch_then_demand_is_useful_l1_hit() {
        let mut m = sys(1);
        let fill = m.prefetch(0, 0x20_0000, 0x155, 0).expect("accepted");
        let out = m.access(0, AccessKind::Load, 0x20_0000, fill + 5);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(m.stats(0).prefetch_useful, 1);
        let fb = m.take_feedback();
        assert_eq!(fb.len(), 1);
        assert!(fb[0].useful);
        assert_eq!(fb[0].pc_hash, 0x155);
    }

    #[test]
    fn late_prefetch_merges_and_counts_late() {
        let mut m = sys(1);
        let fill = m.prefetch(0, 0x20_0000, 7, 0).expect("accepted");
        let out = m.access(0, AccessKind::Load, 0x20_0000, 50);
        assert_eq!(out.level, HitLevel::InFlight);
        assert_eq!(out.complete_at, fill);
        assert_eq!(m.stats(0).prefetch_late, 1);
        assert_eq!(m.stats(0).prefetch_useful, 1);
        // once filled, no double-count of usefulness
        let _ = m.access(0, AccessKind::Load, 0x20_0000, fill + 1);
        assert_eq!(m.stats(0).prefetch_useful, 1);
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let mut m = sys(1);
        let fill = m.prefetch(0, 0x20_0000, 7, 0).unwrap();
        assert!(m.prefetch(0, 0x20_0000, 7, 1).is_none(), "in-flight dup");
        assert!(
            m.prefetch(0, 0x20_0000, 7, fill + 1).is_none(),
            "cached dup"
        );
        assert_eq!(m.stats(0).prefetch_redundant, 2);
    }

    #[test]
    fn useless_prefetch_reported_on_eviction() {
        let mut m = sys(1);
        let fill = m.prefetch(0, 0x30_0000, 9, 0).unwrap();
        let mut now = fill + 1;
        // force eviction of the prefetched (untouched) line
        for i in 1..=16u64 {
            let out = m.access(0, AccessKind::Load, 0x30_0000 + i * 8 * 1024, now);
            now = out.complete_at + 1;
        }
        m.drain(now + 1000);
        assert_eq!(m.stats(0).prefetch_useless, 1);
        let fb = m.take_feedback();
        assert!(fb.iter().any(|f| !f.useful && f.pc_hash == 9));
    }

    #[test]
    fn cores_do_not_alias_in_private_levels() {
        let mut m = sys(2);
        let a = m.access(0, AccessKind::Load, 0x40_0000, 0);
        let b = m.access(1, AccessKind::Load, 0x40_0000, 0);
        assert_eq!(a.level, HitLevel::Dram);
        assert_eq!(b.level, HitLevel::Dram, "same vaddr, different phys");
    }

    #[test]
    fn dram_bandwidth_contention_across_cores() {
        let mut m = sys(2);
        let a = m.access(0, AccessKind::Load, 0x50_0000, 0).complete_at;
        let b = m.access(1, AccessKind::Load, 0x50_0000, 0).complete_at;
        assert_eq!(b - a, 16, "second request queues one line interval");
    }

    #[test]
    fn inst_fetches_use_l1i() {
        let mut m = sys(1);
        let miss = m.access(0, AccessKind::InstFetch, 0x40_0000, 0);
        assert_eq!(miss.level, HitLevel::Dram);
        let hit = m.access(0, AccessKind::InstFetch, 0x40_0000, miss.complete_at + 1);
        assert_eq!(hit.level, HitLevel::L1);
        // data side never saw anything
        assert_eq!(m.stats(0).l1d_accesses(), 0);
        assert_eq!(m.stats(0).inst_fetches, 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = sys(1);
        let done = m.access(0, AccessKind::Load, 0x1000, 0).complete_at;
        m.access(0, AccessKind::Store, 0x1000, done + 1);
        let s = m.stats(0);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.l1d_hits, 1);
        assert_eq!(s.l1d_misses, 1);
        assert_eq!(s.dram_reqs, 1);
    }

    fn traced_sys(cores: usize) -> (MemorySystem, Tracer) {
        let tracer = Tracer::enabled(&bfetch_stats::TraceConfig::on());
        let mut m = sys(cores);
        m.set_tracer(tracer.clone());
        (m, tracer)
    }

    #[test]
    fn lifecycle_events_cover_issue_fill_first_use() {
        let (mut m, t) = traced_sys(1);
        let fill = m.prefetch(0, 0x20_0000, 0x155, 0).expect("accepted");
        let used_at = fill + 5;
        m.access(0, AccessKind::Load, 0x20_0000, used_at);
        drop(m);
        let sink = t.finish().unwrap();
        let kinds: Vec<&'static str> = sink.events().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            ["prefetch_issued", "prefetch_filled", "prefetch_first_use"]
        );
        let first_use = sink
            .events()
            .find_map(|e| match e.kind {
                TraceKind::PrefetchFirstUse { lead_cycles, .. } => Some((e.cycle, lead_cycles)),
                _ => None,
            })
            .unwrap();
        // lead time is exactly the gap between the fill and the demand
        assert_eq!(first_use, (used_at, 5));
        let c = sink.lifecycle(0);
        assert_eq!((c.issued, c.filled, c.first_use), (1, 1, 1));
        assert_eq!(c.demand_misses, 0, "covered miss is not a demand miss");
    }

    #[test]
    fn late_prefetch_traces_merge_not_demand_miss() {
        let (mut m, t) = traced_sys(1);
        let fill = m.prefetch(0, 0x20_0000, 7, 0).expect("accepted");
        m.access(0, AccessKind::Load, 0x20_0000, 50);
        drop(m);
        let sink = t.finish().unwrap();
        let c = sink.lifecycle(0);
        assert_eq!(c.merged_late, 1);
        assert_eq!(c.demand_misses, 0);
        let remaining = sink
            .events()
            .find_map(|e| match e.kind {
                TraceKind::PrefetchMshrMerged {
                    remaining_cycles, ..
                } => Some(remaining_cycles),
                _ => None,
            })
            .unwrap();
        assert_eq!(remaining, fill - 50);
    }

    #[test]
    fn uncovered_misses_and_drops_are_traced_data_side_only() {
        let (mut m, t) = traced_sys(1);
        m.access(0, AccessKind::Load, 0x10_0000, 0); // DRAM miss
        m.access(0, AccessKind::Load, 0x10_0000, 10); // merges in flight
        m.access(0, AccessKind::InstFetch, 0x40_0000, 20); // inst side: no events
        let fill = m.prefetch(0, 0x20_0000, 7, 30).unwrap();
        m.prefetch(0, 0x20_0000, 7, 31); // redundant duplicate
        drop(m);
        let sink = t.finish().unwrap();
        let c = sink.lifecycle(0);
        assert_eq!(c.demand_misses, 2, "DRAM miss + in-flight merge");
        assert_eq!(c.dropped, [0, 0, 0, 1], "one redundant drop");
        assert!(fill > 30);
        let levels: Vec<ServiceLevel> = sink
            .events()
            .filter_map(|e| match e.kind {
                TraceKind::DemandMiss { level, .. } => Some(level),
                _ => None,
            })
            .collect();
        assert_eq!(levels, [ServiceLevel::Dram, ServiceLevel::InFlight]);
    }

    #[test]
    fn unused_prefetch_eviction_traced() {
        let (mut m, t) = traced_sys(1);
        let fill = m.prefetch(0, 0x30_0000, 9, 0).unwrap();
        let mut now = fill + 1;
        for i in 1..=16u64 {
            let out = m.access(0, AccessKind::Load, 0x30_0000 + i * 8 * 1024, now);
            now = out.complete_at + 1;
        }
        m.drain(now + 1000);
        drop(m);
        let sink = t.finish().unwrap();
        assert_eq!(sink.lifecycle(0).evicted_unused, 1);
        assert_eq!(sink.lifecycle(0).first_use, 0);
    }

    #[test]
    fn disabled_tracer_changes_no_stats() {
        // identical access pattern with and without a live tracer must
        // produce identical MemStats and outcomes
        let drive = |m: &mut MemorySystem| {
            let mut outs = Vec::new();
            let fill = m.prefetch(0, 0x20_0000, 7, 0).unwrap();
            outs.push(m.access(0, AccessKind::Load, 0x20_0000, fill + 2));
            outs.push(m.access(0, AccessKind::Load, 0x99_0000, fill + 3));
            (outs, *m.stats(0))
        };
        let mut plain = sys(1);
        let (outs_a, stats_a) = drive(&mut plain);
        let (mut traced, t) = traced_sys(1);
        let (outs_b, stats_b) = drive(&mut traced);
        assert_eq!(outs_a, outs_b);
        assert_eq!(stats_a, stats_b);
        drop(traced);
        assert!(t.finish().unwrap().total_recorded() > 0);
    }

    #[test]
    fn fill_slots_are_recycled() {
        // fill bookkeeping must not grow with run length: after each fill
        // completes, its slot is reused by the next outstanding miss
        let mut m = sys(1);
        let mut now = 0;
        for i in 0..200u64 {
            let out = m.access(0, AccessKind::Load, 0x10_0000 + i * 64 * 1024, now);
            now = out.complete_at + 1;
        }
        m.drain(now + 1000);
        for pool in [&m.shared.fills, &m.cores[0].fills] {
            assert!(
                pool.data.len() < 16,
                "fill pool grew to {} for strictly serial misses",
                pool.data.len()
            );
            assert_eq!(pool.free.len(), pool.data.len(), "all slots free");
        }
    }

    #[test]
    fn outcomes_carry_miss_level_provenance() {
        let mut m = sys(1);
        // cold DRAM miss: service == level, issued immediately
        let miss = m.access(0, AccessKind::Load, 0x10_0000, 0);
        assert_eq!((miss.service, miss.pf_covered), (HitLevel::Dram, false));
        assert_eq!(miss.queued_until, 0);
        // demand merge inherits the primary miss's service level
        let merged = m.access(0, AccessKind::Load, 0x10_0000, 10);
        assert_eq!(merged.level, HitLevel::InFlight);
        assert_eq!(merged.service, HitLevel::Dram);
        assert!(!merged.pf_covered);
        // a late-prefetch merge is marked covered with the fill's level
        let fill = m.prefetch(0, 0x20_0000, 7, 20).expect("accepted");
        let late = m.access(0, AccessKind::Load, 0x20_0000, 30);
        assert!(late.pf_covered);
        assert_eq!(late.service, HitLevel::Dram);
        assert_eq!(late.complete_at, fill);
        // L1 hits report L1 service
        let hit = m.access(0, AccessKind::Load, 0x20_0000, fill + 1);
        assert_eq!((hit.level, hit.service), (HitLevel::L1, HitLevel::L1));
    }

    #[test]
    fn full_mshr_file_reports_queued_until() {
        let mut m = sys(1);
        let mut first_done = 0;
        // the baseline file has 4 demand MSHRs: fill them with distinct lines
        for i in 0..4u64 {
            let out = m.access(0, AccessKind::Load, 0x10_0000 + i * 64 * 1024, 0);
            if i == 0 {
                first_done = out.complete_at;
            }
            assert_eq!(out.queued_until, 0, "file not yet full");
        }
        let stalled = m.access(0, AccessKind::Load, 0x80_0000, 1);
        // the fifth concurrent miss waits for the earliest outstanding fill
        assert_eq!(stalled.queued_until, first_done);
        assert!(stalled.complete_at > stalled.queued_until);
    }

    #[test]
    fn accuracy_metric() {
        let s = MemStats {
            prefetch_useful: 3,
            prefetch_useless: 1,
            ..MemStats::default()
        };
        assert!((s.prefetch_accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(MemStats::default().prefetch_accuracy(), 0.0);
    }

    /// Warm a chip, snapshot it with fills still in flight, restore into a
    /// fresh chip, and drive both through the same tail of traffic: every
    /// outcome and final statistic must match, and the restored chip must
    /// re-encode to the identical byte stream.
    #[test]
    fn snapshot_round_trip_mid_flight() {
        use bfetch_snapshot::{Decoder, Encoder, SnapState};

        let mut cfg = HierarchyConfig::baseline(2);
        cfg.model_writebacks = true;
        let mut a = MemorySystem::new(cfg);

        let mut now = 0;
        for i in 0..200u64 {
            let core = (i % 2) as usize;
            let kind = if i % 5 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let out = a.access(core, kind, 0x10_0000 + (i * 37 % 64) * 8 * 1024, now);
            if i % 3 == 0 {
                a.prefetch(core, 0x40_0000 + i * 64, (i as u16) & 0x3ff, now);
            }
            now = out.complete_at.min(now + 7) + 1;
        }
        // leave fills and MSHR entries outstanding at snapshot time
        assert!(a.mshr_live(0) + a.pf_mshr_live(0) + a.mshr_live(1) + a.pf_mshr_live(1) > 0);

        let mut w = Encoder::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut b = MemorySystem::new(cfg);
        let mut r = Decoder::new(&bytes);
        b.load_state(&mut r).expect("load");
        r.finish().expect("no trailing bytes");

        let mut w2 = Encoder::new();
        b.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "canonical re-encode");

        for i in 0..300u64 {
            let core = (i % 2) as usize;
            let addr = 0x10_0000 + (i * 53 % 80) * 8 * 1024;
            let oa = a.access(core, AccessKind::Load, addr, now);
            let ob = b.access(core, AccessKind::Load, addr, now);
            assert_eq!(oa, ob, "outcome diverged at access {i}");
            let pa = a.prefetch(core, 0x50_0000 + i * 64, 7, now);
            let pb = b.prefetch(core, 0x50_0000 + i * 64, 7, now);
            assert_eq!(pa, pb);
            now = oa.complete_at.min(now + 11) + 1;
        }
        a.drain(now + 10_000);
        b.drain(now + 10_000);
        assert_eq!(a.stats(0), b.stats(0));
        assert_eq!(a.stats(1), b.stats(1));
        assert_eq!(a.take_feedback(), b.take_feedback());
        assert_eq!(a.dram().requests(), b.dram().requests());
        assert_eq!(a.dram().queue_cycles(), b.dram().queue_cycles());
    }

    /// Any truncation of a mid-flight snapshot surfaces as a typed error,
    /// never a panic.
    #[test]
    fn truncated_snapshot_is_typed_error() {
        use bfetch_snapshot::{Decoder, Encoder, SnapState};

        let cfg = HierarchyConfig::baseline(1);
        let mut a = MemorySystem::new(cfg);
        let mut now = 0;
        for i in 0..50u64 {
            let out = a.access(0, AccessKind::Load, 0x10_0000 + i * 4096, now);
            now = out.complete_at.min(now + 3) + 1;
        }
        let mut w = Encoder::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();

        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut b = MemorySystem::new(cfg);
            let mut r = Decoder::new(&bytes[..cut]);
            assert!(
                b.load_state(&mut r).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
