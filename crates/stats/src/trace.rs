//! Prefetch-lifecycle event tracing.
//!
//! The figure binaries summarise each run with aggregate counters, but the
//! paper's accuracy / coverage / timeliness arguments (Sections V–VI) are
//! statements about individual prefetches: was the line *used* before
//! eviction, did the demand arrive *before* the fill, how many cycles of
//! lead time did the predictor-directed walk buy. This module records that
//! lifecycle as a stream of typed, cycle-stamped [`TraceEvent`]s:
//!
//! ```text
//! issued ─→ filled ─→ first_use          (timely, useful)
//!        ─→ mshr_merged                  (late but useful)
//!        ─→ filled ─→ evicted_unused     (useless / polluting)
//!        ─→ dropped(filter | queue_full | mshr_full | redundant)
//! ```
//!
//! Events land in a bounded ring buffer ([`TraceSink`]) so a long run keeps
//! the most recent window; per-core [`LifecycleCounts`] accumulate alongside
//! the ring and are therefore exact even after it wraps. The derived
//! [`LifecycleMetrics`] match the schema documented in `DESIGN.md`
//! ("Observability").
//!
//! Components hold a [`Tracer`] handle. Disabled (the default) it is a
//! `None` and every `emit` is a branch on an `Option` — no allocation, no
//! formatting, no shared state — which is what keeps untraced simulations
//! byte-identical to builds without this module.
//!
//! # Example
//!
//! ```
//! use bfetch_stats::trace::{TraceConfig, TraceKind, Tracer};
//!
//! let tracer = Tracer::enabled(&TraceConfig { enabled: true, capacity: 64 });
//! let t0 = tracer.for_core(0);
//! t0.emit(100, TraceKind::PrefetchIssued { line: 0x1000, pc_hash: 7 });
//! t0.emit(140, TraceKind::PrefetchFilled { line: 0x1000, pc_hash: 7 });
//! t0.emit(160, TraceKind::PrefetchFirstUse { line: 0x1000, pc_hash: 7, lead_cycles: 20 });
//!
//! let sink = tracer.finish().unwrap();
//! let m = sink.lifecycle(0).metrics();
//! assert_eq!(m.accuracy, 1.0);
//! assert_eq!(m.timeliness, 1.0);
//! assert_eq!(sink.events().count(), 3);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Why the engine or memory system discarded a prefetch candidate before it
/// became an in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The per-load filter rejected the candidate (low confidence or
    /// duplicate-window suppression).
    Filter,
    /// The engine's bounded request queue was full.
    QueueFull,
    /// No prefetch MSHR was free.
    MshrFull,
    /// The line was already cached or already in flight.
    Redundant,
}

impl DropReason {
    /// Stable snake_case token used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Filter => "filter",
            DropReason::QueueFull => "queue_full",
            DropReason::MshrFull => "mshr_full",
            DropReason::Redundant => "redundant",
        }
    }
}

/// Where a demand miss was ultimately serviced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Merged with a request already outstanding in an MSHR.
    InFlight,
    /// Filled from the shared L2.
    L2,
    /// Filled from the shared L3.
    L3,
    /// Filled from DRAM.
    Dram,
}

impl ServiceLevel {
    /// Stable snake_case token used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceLevel::InFlight => "in_flight",
            ServiceLevel::L2 => "l2",
            ServiceLevel::L3 => "l3",
            ServiceLevel::Dram => "dram",
        }
    }
}

/// The payload of a trace event. Field units: `cycle`/`lead_cycles`/
/// `remaining_cycles` are core clock cycles; `line` is the byte address of
/// a 64 B-aligned cache line; `pc` is a byte address; `pc_hash` is the
/// 10-bit load-PC hash the B-Fetch filter uses; `confidence` is the path
/// confidence estimate in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// A conditional branch entered fetch with a direction prediction.
    BranchPredicted {
        pc: u64,
        taken: bool,
        confidence: f64,
    },
    /// A branch committed; `mispredicted` compares predicted vs actual
    /// direction.
    BranchResolved {
        pc: u64,
        taken: bool,
        mispredicted: bool,
    },
    /// A B-Fetch candidate left the engine queue and entered the memory
    /// system.
    PrefetchIssued { line: u64, pc_hash: u16 },
    /// A candidate was discarded before issue.
    PrefetchDropped {
        line: u64,
        pc_hash: u16,
        reason: DropReason,
    },
    /// A demand access found its line already in flight under a prefetch
    /// MSHR — a *late* (but still useful) prefetch. `remaining_cycles` is
    /// how long the demand still had to wait for the fill.
    PrefetchMshrMerged {
        line: u64,
        pc_hash: u16,
        remaining_cycles: u64,
    },
    /// A prefetched line was installed in the L1.
    PrefetchFilled { line: u64, pc_hash: u16 },
    /// First demand hit on a prefetched line. `lead_cycles` is the gap
    /// between fill and this use — the lead time the prefetch bought.
    PrefetchFirstUse {
        line: u64,
        pc_hash: u16,
        lead_cycles: u64,
    },
    /// A prefetched line was evicted without ever being demanded.
    PrefetchEvictedUnused { line: u64, pc_hash: u16 },
    /// A data-side demand miss not covered by any prefetch.
    DemandMiss { line: u64, level: ServiceLevel },
}

impl TraceKind {
    /// Stable snake_case event name used in the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::BranchPredicted { .. } => "branch_predicted",
            TraceKind::BranchResolved { .. } => "branch_resolved",
            TraceKind::PrefetchIssued { .. } => "prefetch_issued",
            TraceKind::PrefetchDropped { .. } => "prefetch_dropped",
            TraceKind::PrefetchMshrMerged { .. } => "prefetch_mshr_merged",
            TraceKind::PrefetchFilled { .. } => "prefetch_filled",
            TraceKind::PrefetchFirstUse { .. } => "prefetch_first_use",
            TraceKind::PrefetchEvictedUnused { .. } => "prefetch_evicted_unused",
            TraceKind::DemandMiss { .. } => "demand_miss",
        }
    }
}

/// One cycle-stamped occurrence in a simulated core's prefetch lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Core clock cycle the event occurred at.
    pub cycle: u64,
    /// Index of the core the event belongs to.
    pub core: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// Trace options carried by the simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Record events. Off by default; when off the simulation takes the
    /// exact same code paths as before this module existed.
    pub enabled: bool,
    /// Ring-buffer capacity in events. Older events are overwritten once
    /// the ring is full; lifecycle *counts* are unaffected by overflow.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// Tracing on with the default ring capacity.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Exact per-core tallies of each lifecycle outcome, accumulated
/// independently of the event ring (so they survive ring overflow).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Prefetches that entered the memory system.
    pub issued: u64,
    /// Candidates discarded before issue, by [`DropReason`] order:
    /// `[filter, queue_full, mshr_full, redundant]`.
    pub dropped: [u64; 4],
    /// Prefetched lines installed in the L1.
    pub filled: u64,
    /// Prefetched lines whose first demand hit arrived after the fill.
    pub first_use: u64,
    /// Demand accesses that merged with an in-flight prefetch (late
    /// prefetches).
    pub merged_late: u64,
    /// Prefetched lines evicted without a demand hit.
    pub evicted_unused: u64,
    /// Data-side demand misses not covered by any prefetch.
    pub demand_misses: u64,
    /// Sum of `lead_cycles` over all first uses (for mean lead time).
    pub lead_cycles_total: u64,
    /// Conditional branches predicted / resolved / mispredicted.
    pub branches_predicted: u64,
    pub branches_resolved: u64,
    pub mispredicts: u64,
}

impl LifecycleCounts {
    fn observe(&mut self, kind: &TraceKind) {
        match kind {
            TraceKind::BranchPredicted { .. } => self.branches_predicted += 1,
            TraceKind::BranchResolved { mispredicted, .. } => {
                self.branches_resolved += 1;
                self.mispredicts += u64::from(*mispredicted);
            }
            TraceKind::PrefetchIssued { .. } => self.issued += 1,
            TraceKind::PrefetchDropped { reason, .. } => self.dropped[*reason as usize] += 1,
            TraceKind::PrefetchMshrMerged { .. } => self.merged_late += 1,
            TraceKind::PrefetchFilled { .. } => self.filled += 1,
            TraceKind::PrefetchFirstUse { lead_cycles, .. } => {
                self.first_use += 1;
                self.lead_cycles_total += lead_cycles;
            }
            TraceKind::PrefetchEvictedUnused { .. } => self.evicted_unused += 1,
            TraceKind::DemandMiss { .. } => self.demand_misses += 1,
        }
    }

    /// Prefetches that did useful work: timely first uses plus late MSHR
    /// merges.
    pub fn useful(&self) -> u64 {
        self.first_use + self.merged_late
    }

    /// Sums two cores' tallies (for whole-CMP metrics).
    pub fn combined(&self, other: &LifecycleCounts) -> LifecycleCounts {
        let mut out = *self;
        out.issued += other.issued;
        for (d, o) in out.dropped.iter_mut().zip(other.dropped) {
            *d += o;
        }
        out.filled += other.filled;
        out.first_use += other.first_use;
        out.merged_late += other.merged_late;
        out.evicted_unused += other.evicted_unused;
        out.demand_misses += other.demand_misses;
        out.lead_cycles_total += other.lead_cycles_total;
        out.branches_predicted += other.branches_predicted;
        out.branches_resolved += other.branches_resolved;
        out.mispredicts += other.mispredicts;
        out
    }

    /// Derives the paper's Section V metrics from the tallies. See
    /// `DESIGN.md` ("Observability") for the exact definitions.
    pub fn metrics(&self) -> LifecycleMetrics {
        fn ratio(num: u64, den: u64) -> f64 {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        }
        let useful = self.useful();
        LifecycleMetrics {
            accuracy: ratio(useful, useful + self.evicted_unused),
            coverage: ratio(useful, useful + self.demand_misses),
            timeliness: ratio(self.first_use, useful),
            pollution: ratio(self.evicted_unused, self.filled),
            mean_lead_cycles: ratio(self.lead_cycles_total, self.first_use),
        }
    }
}

/// Per-run prefetch quality metrics derived from [`LifecycleCounts`].
///
/// All ratios are in `[0, 1]` and are `0.0` when their denominator is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleMetrics {
    /// `useful / (useful + evicted_unused)` — of the prefetches whose fate
    /// is known, the fraction that were demanded.
    pub accuracy: f64,
    /// `useful / (useful + demand_misses)` — the fraction of would-be
    /// misses the prefetcher absorbed.
    pub coverage: f64,
    /// `first_use / useful` — of the useful prefetches, the fraction that
    /// arrived *before* the demand (the rest merged late in an MSHR).
    pub timeliness: f64,
    /// `evicted_unused / filled` — the fraction of installed prefetches
    /// that only displaced other data. A proxy: true pollution needs
    /// shadow tags.
    pub pollution: f64,
    /// Mean `lead_cycles` over timely first uses.
    pub mean_lead_cycles: f64,
}

/// Bounded event ring plus exact per-core lifecycle tallies.
#[derive(Debug, Clone)]
pub struct TraceSink {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    /// Events discarded from the front of the ring after it filled.
    overwritten: u64,
    per_core: Vec<LifecycleCounts>,
}

impl TraceSink {
    /// An empty sink retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            overwritten: 0,
            per_core: Vec::new(),
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        let core = event.core as usize;
        if core >= self.per_core.len() {
            self.per_core.resize(core + 1, LifecycleCounts::default());
        }
        self.per_core[core].observe(&event.kind);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// How many events were pushed out of the ring by overflow.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total events observed (retained + overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.ring.len() as u64 + self.overwritten
    }

    /// Number of cores that have recorded at least one event.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Exact tallies for `core` (zeros if it never recorded an event).
    pub fn lifecycle(&self, core: usize) -> LifecycleCounts {
        self.per_core.get(core).copied().unwrap_or_default()
    }

    /// Tallies summed over every core.
    pub fn lifecycle_total(&self) -> LifecycleCounts {
        self.per_core
            .iter()
            .fold(LifecycleCounts::default(), |acc, c| acc.combined(c))
    }

    /// Consumes the sink into `(events, per-core tallies)`.
    pub fn into_parts(self) -> (Vec<TraceEvent>, Vec<LifecycleCounts>) {
        (self.ring.into_iter().collect(), self.per_core)
    }
}

/// A cheap, cloneable handle components use to emit events.
///
/// Clones share one [`TraceSink`]; [`Tracer::for_core`] derives a clone
/// that stamps a fixed core index so deep components (the B-Fetch engine,
/// the memory hierarchy) need not thread core ids through every call.
/// The disabled handle ([`Tracer::disabled`], also `Default`) makes every
/// `emit` a no-op branch.
///
/// Not `Send`: a simulation (and its tracer) lives on one worker thread;
/// only extracted results cross threads.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<TraceSink>>>,
    core: u32,
}

impl Tracer {
    /// The no-op handle every component starts with.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live handle backed by a fresh sink, or the disabled handle if
    /// `cfg.enabled` is false.
    pub fn enabled(cfg: &TraceConfig) -> Self {
        if !cfg.enabled {
            return Self::disabled();
        }
        Self {
            sink: Some(Rc::new(RefCell::new(TraceSink::new(cfg.capacity)))),
            core: 0,
        }
    }

    /// A clone of this handle that stamps events with `core`.
    pub fn for_core(&self, core: u32) -> Self {
        Self {
            sink: self.sink.clone(),
            core,
        }
    }

    /// Whether emits reach a sink. Callers with expensive payloads can
    /// check this first; plain emits don't need to.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records `kind` at `cycle`, stamped with this handle's core.
    #[inline]
    pub fn emit(&self, cycle: u64, kind: TraceKind) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(TraceEvent {
                cycle,
                core: self.core,
                kind,
            });
        }
    }

    /// Records `kind` at `cycle` for an explicit `core`, for shared
    /// components (the memory system) that serve several cores through
    /// one handle.
    #[inline]
    pub fn emit_for(&self, core: u32, cycle: u64, kind: TraceKind) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(TraceEvent { cycle, core, kind });
        }
    }

    /// Unwraps the sink, if this handle is live and holds the last
    /// reference. Call after dropping all component clones.
    pub fn finish(self) -> Option<TraceSink> {
        let rc = self.sink?;
        match Rc::try_unwrap(rc) {
            Ok(cell) => Some(cell.into_inner()),
            Err(rc) => Some(rc.borrow().clone()),
        }
    }
}

// --- snapshot support -----------------------------------------------------

bfetch_snapshot::impl_snap_enum!(DropReason {
    DropReason::Filter = 0,
    DropReason::QueueFull = 1,
    DropReason::MshrFull = 2,
    DropReason::Redundant = 3,
});

bfetch_snapshot::impl_snap_enum!(ServiceLevel {
    ServiceLevel::InFlight = 0,
    ServiceLevel::L2 = 1,
    ServiceLevel::L3 = 2,
    ServiceLevel::Dram = 3,
});

bfetch_snapshot::impl_snap_enum!(TraceKind {
    TraceKind::BranchPredicted { pc, taken, confidence } = 0,
    TraceKind::BranchResolved { pc, taken, mispredicted } = 1,
    TraceKind::PrefetchIssued { line, pc_hash } = 2,
    TraceKind::PrefetchDropped { line, pc_hash, reason } = 3,
    TraceKind::PrefetchMshrMerged { line, pc_hash, remaining_cycles } = 4,
    TraceKind::PrefetchFilled { line, pc_hash } = 5,
    TraceKind::PrefetchFirstUse { line, pc_hash, lead_cycles } = 6,
    TraceKind::PrefetchEvictedUnused { line, pc_hash } = 7,
    TraceKind::DemandMiss { line, level } = 8,
});

bfetch_snapshot::impl_snap_struct!(TraceEvent { cycle, core, kind });
bfetch_snapshot::impl_snap_struct!(LifecycleCounts {
    issued,
    dropped,
    filled,
    first_use,
    merged_late,
    evicted_unused,
    demand_misses,
    lead_cycles_total,
    branches_predicted,
    branches_resolved,
    mispredicts,
});
bfetch_snapshot::impl_snap_struct!(TraceSink {
    ring,
    capacity,
    overwritten,
    per_core
});

impl Tracer {
    /// A copy of the backing sink for checkpointing (`None` when disabled).
    pub fn snapshot_sink(&self) -> Option<TraceSink> {
        self.sink.as_ref().map(|s| s.borrow().clone())
    }

    /// Replaces the backing sink's contents with a restored snapshot.
    /// Returns `false` (and does nothing) on a disabled handle.
    pub fn restore_sink(&self, sink: TraceSink) -> bool {
        match &self.sink {
            Some(cell) => {
                *cell.borrow_mut() = sink;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issued(line: u64) -> TraceKind {
        TraceKind::PrefetchIssued { line, pc_hash: 1 }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(1, issued(0x40));
        assert!(t.finish().is_none());
        // enabled:false config also yields the disabled handle
        let t = Tracer::enabled(&TraceConfig::default());
        assert!(!t.is_enabled());
    }

    #[test]
    fn ring_overflow_drops_oldest_but_counts_stay_exact() {
        let mut sink = TraceSink::new(3);
        for i in 0..5u64 {
            sink.record(TraceEvent {
                cycle: i,
                core: 0,
                kind: issued(0x40 * i),
            });
        }
        assert_eq!(sink.overwritten(), 2);
        assert_eq!(sink.total_recorded(), 5);
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, [2, 3, 4]); // oldest two gone
        assert_eq!(sink.lifecycle(0).issued, 5); // exact despite overflow
    }

    #[test]
    fn per_core_tallies_are_separate_and_total_sums() {
        let cfg = TraceConfig {
            enabled: true,
            capacity: 16,
        };
        let t = Tracer::enabled(&cfg);
        let c0 = t.for_core(0);
        let c1 = t.for_core(1);
        c0.emit(1, issued(0x40));
        c1.emit(2, issued(0x80));
        c1.emit(
            3,
            TraceKind::PrefetchFilled {
                line: 0x80,
                pc_hash: 1,
            },
        );
        drop((c0, c1));
        let sink = t.finish().unwrap();
        assert_eq!(sink.cores(), 2);
        assert_eq!(sink.lifecycle(0).issued, 1);
        assert_eq!(sink.lifecycle(1).filled, 1);
        assert_eq!(sink.lifecycle_total().issued, 2);
    }

    #[test]
    fn metrics_match_hand_computed_values() {
        // 4 issued; 3 filled; 2 first-use (leads 10 and 30), 1 merged late,
        // 1 evicted unused; 6 uncovered demand misses.
        let mut c = LifecycleCounts {
            issued: 4,
            filled: 3,
            first_use: 2,
            merged_late: 1,
            evicted_unused: 1,
            demand_misses: 6,
            lead_cycles_total: 40,
            ..LifecycleCounts::default()
        };
        assert_eq!(c.useful(), 3);
        let m = c.metrics();
        assert_eq!(m.accuracy, 3.0 / 4.0);
        assert_eq!(m.coverage, 3.0 / 9.0);
        assert_eq!(m.timeliness, 2.0 / 3.0);
        assert_eq!(m.pollution, 1.0 / 3.0);
        assert_eq!(m.mean_lead_cycles, 20.0);
        // all-zero counts give 0.0 everywhere, not NaN
        c = LifecycleCounts::default();
        let z = c.metrics();
        assert_eq!(z.accuracy, 0.0);
        assert_eq!(z.coverage, 0.0);
        assert!(z.timeliness == 0.0 && z.pollution == 0.0);
    }

    #[test]
    fn dropped_reasons_bucket_independently() {
        let mut sink = TraceSink::new(8);
        for (i, reason) in [
            DropReason::Filter,
            DropReason::Filter,
            DropReason::QueueFull,
            DropReason::Redundant,
        ]
        .into_iter()
        .enumerate()
        {
            sink.record(TraceEvent {
                cycle: i as u64,
                core: 0,
                kind: TraceKind::PrefetchDropped {
                    line: 0,
                    pc_hash: 0,
                    reason,
                },
            });
        }
        assert_eq!(sink.lifecycle(0).dropped, [2, 1, 0, 1]);
    }

    #[test]
    fn tracer_handles_share_one_ring_across_wraparound() {
        // two per-core handles feed one 4-entry ring past capacity: the
        // ring keeps only the newest four events, but both cores' lifecycle
        // tallies (which accumulate outside the ring) stay exact
        let cfg = TraceConfig {
            enabled: true,
            capacity: 4,
        };
        let t = Tracer::enabled(&cfg);
        let c0 = t.for_core(0);
        let c1 = t.for_core(1);
        for i in 0..5u64 {
            c0.emit(2 * i, issued(0x40 * i));
            c1.emit(2 * i + 1, issued(0x40 * i));
        }
        drop((c0, c1));
        let sink = t.finish().unwrap();
        assert_eq!(sink.total_recorded(), 10);
        assert_eq!(sink.overwritten(), 6);
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle).collect();
        assert_eq!(
            cycles,
            [6, 7, 8, 9],
            "ring keeps the newest events in order"
        );
        assert_eq!(sink.lifecycle(0).issued, 5, "tallies survive wraparound");
        assert_eq!(sink.lifecycle(1).issued, 5);
        assert_eq!(sink.lifecycle_total().issued, 10);
    }

    #[test]
    fn zero_capacity_ring_clamps_to_one() {
        let mut sink = TraceSink::new(0);
        sink.record(TraceEvent {
            cycle: 1,
            core: 0,
            kind: issued(0x40),
        });
        sink.record(TraceEvent {
            cycle: 2,
            core: 0,
            kind: issued(0x80),
        });
        assert_eq!(sink.events().count(), 1);
        assert_eq!(sink.total_recorded(), 2);
        assert_eq!(sink.overwritten(), 1);
    }

    #[test]
    fn finish_clones_when_other_handles_remain() {
        let t = Tracer::enabled(&TraceConfig::on());
        let other = t.for_core(3);
        t.emit(1, issued(0x40));
        // `other` still alive: finish falls back to cloning the sink
        let sink = t.clone().finish().unwrap();
        assert_eq!(sink.total_recorded(), 1);
        drop((t, other));
    }
}
