//! Top-down CPI-stack cycle accounting and interval timeline telemetry.
//!
//! A run's aggregate IPC says *how fast* a core went; it cannot say *where
//! the cycles went*. This module provides the missing decomposition: every
//! cycle a core fails to commit its full width, the lost commit slots are
//! charged to exactly one root cause (a [`CpiComponent`]), accumulated in
//! a [`CpiStack`]. Because each cycle contributes `width` slots that are
//! either committed or charged to a single component, the stack satisfies
//!
//! ```text
//! committed_slots + Σ lost[c]  ==  commit_width × cycles
//! ```
//!
//! by construction ([`CpiStack::holds_invariant`]), so the per-component
//! CPI contributions sum exactly to the measured CPI — a "speedup came
//! from shrinking the memory component" claim is checkable arithmetic,
//! not an estimate.
//!
//! On top of the stack, an interval sampler (driven by the simulator core)
//! snapshots the stack plus key memory/branch counters every
//! `timeline_interval` committed instructions into [`TimelineSample`]s,
//! making phase behaviour — warmup tails, pointer-chase bursts, prefetch
//! ramp-up — visible as a time series exportable as JSONL or CSV.
//!
//! Like the [`trace`](crate::trace) module, the accounting is opt-in via
//! [`CpiConfig`] and the simulator takes identical code paths when it is
//! disabled.
//!
//! # Example
//!
//! ```
//! use bfetch_stats::cpi::{CpiComponent, CpiStack};
//!
//! let mut stack = CpiStack::new(4);
//! stack.account_cycle(4, CpiComponent::Base);          // full-width commit
//! stack.account_cycle(1, CpiComponent::MemDram);       // 3 slots lost to DRAM
//! stack.account_cycle(0, CpiComponent::Mispredict);    // redirect drain
//! assert!(stack.holds_invariant());
//! assert_eq!(stack.total_slots(), 4 * 3);
//! assert_eq!(stack.lost[CpiComponent::MemDram as usize], 3);
//! ```

use crate::registry::StatsRegistry;

/// The single root cause a cycle's lost commit slots are charged to.
///
/// The discriminants index [`CpiStack::lost`]; `COUNT` is the array
/// length. Charging rules (who decides which component a stall belongs
/// to) live in the simulator core and are documented in DESIGN.md
/// ("Cycle accounting & timeline").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CpiComponent {
    /// Issue-width, dependence-chain and execute-latency limits — the
    /// residual after every attributable structural/memory cause.
    Base = 0,
    /// Fetch squashed behind an unresolved mispredicted branch, or the
    /// post-resolution redirect penalty.
    Mispredict = 1,
    /// Frontend starvation from an L1I miss or a BTB-miss decode redirect,
    /// or pipeline refill after a full drain.
    FetchStall = 2,
    /// A long non-memory dependence stalled commit while the ROB was full
    /// (window-limited).
    RobFull = 3,
    /// The oldest instruction was delayed by load/store port contention
    /// (the LSQ drain rate).
    LsqFull = 4,
    /// The oldest load's miss could not issue downstream because the
    /// demand MSHR file was full (structural memory stall).
    MshrFull = 5,
    /// Oldest load waiting on a fill serviced by the L2.
    MemL2 = 6,
    /// As [`CpiComponent::MemL2`], but the load merged with an in-flight
    /// prefetch that had already absorbed part of the latency.
    MemL2Covered = 7,
    /// Oldest load waiting on a fill serviced by the shared L3.
    MemL3 = 8,
    /// As [`CpiComponent::MemL3`], prefetch-covered.
    MemL3Covered = 9,
    /// Oldest load waiting on a DRAM fill.
    MemDram = 10,
    /// As [`CpiComponent::MemDram`], prefetch-covered.
    MemDramCovered = 11,
}

impl CpiComponent {
    /// Number of components (the length of [`CpiStack::lost`]).
    pub const COUNT: usize = 12;

    /// Every component in discriminant order.
    pub const ALL: [CpiComponent; CpiComponent::COUNT] = [
        CpiComponent::Base,
        CpiComponent::Mispredict,
        CpiComponent::FetchStall,
        CpiComponent::RobFull,
        CpiComponent::LsqFull,
        CpiComponent::MshrFull,
        CpiComponent::MemL2,
        CpiComponent::MemL2Covered,
        CpiComponent::MemL3,
        CpiComponent::MemL3Covered,
        CpiComponent::MemDram,
        CpiComponent::MemDramCovered,
    ];

    /// Stable snake_case token used in registry keys and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            CpiComponent::Base => "base",
            CpiComponent::Mispredict => "mispredict",
            CpiComponent::FetchStall => "fetch_stall",
            CpiComponent::RobFull => "rob_full",
            CpiComponent::LsqFull => "lsq_full",
            CpiComponent::MshrFull => "mshr_full",
            CpiComponent::MemL2 => "mem_l2",
            CpiComponent::MemL2Covered => "mem_l2_covered",
            CpiComponent::MemL3 => "mem_l3",
            CpiComponent::MemL3Covered => "mem_l3_covered",
            CpiComponent::MemDram => "mem_dram",
            CpiComponent::MemDramCovered => "mem_dram_covered",
        }
    }

    /// Whether this is one of the six memory-latency components.
    pub fn is_memory(self) -> bool {
        (self as usize) >= CpiComponent::MemL2 as usize
    }

    /// Whether this memory component was partially covered by an
    /// in-flight prefetch (`false` for non-memory components).
    pub fn is_covered(self) -> bool {
        matches!(
            self,
            CpiComponent::MemL2Covered | CpiComponent::MemL3Covered | CpiComponent::MemDramCovered
        )
    }
}

/// Cycle-accounting options carried by the simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpiConfig {
    /// Account lost commit slots. Off by default; when off the simulation
    /// takes the exact same timing paths as before this module existed.
    pub enabled: bool,
    /// Emit a [`TimelineSample`] every this many committed instructions
    /// (`0` disables the sampler; the stack still accumulates).
    pub timeline_interval: u64,
}

impl Default for CpiConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            timeline_interval: 20_000,
        }
    }
}

impl CpiConfig {
    /// Accounting on with the default sampling interval.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Lost-commit-slot tallies for one core over an accounting window.
///
/// See the [module docs](self) for the sum invariant. The struct is plain
/// `Copy` data so measurement windows are snapshot/delta like every other
/// stat block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpiStack {
    /// The commit width the slots are measured against.
    pub width: u64,
    /// Cycles accounted.
    pub cycles: u64,
    /// Slots that committed an instruction (equals instructions committed
    /// in the window).
    pub committed_slots: u64,
    /// Lost slots per component, indexed by [`CpiComponent`] discriminant.
    pub lost: [u64; CpiComponent::COUNT],
}

impl CpiStack {
    /// An empty stack for a `width`-wide core.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "commit width must be nonzero");
        Self {
            width,
            ..Self::default()
        }
    }

    /// Accounts one cycle: `committed` slots did useful work, and the
    /// remaining `width − committed` are all charged to `cause`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `committed` exceeds the width.
    #[inline]
    pub fn account_cycle(&mut self, committed: u64, cause: CpiComponent) {
        debug_assert!(committed <= self.width, "committed beyond width");
        self.cycles += 1;
        self.committed_slots += committed;
        let lost = self.width - committed;
        if lost > 0 {
            self.lost[cause as usize] += lost;
        }
    }

    /// Accounts `cycles` cycles in which nothing committed, all charged to
    /// `cause`: the same as that many `account_cycle(0, cause)` calls.
    #[inline]
    pub fn account_idle(&mut self, cycles: u64, cause: CpiComponent) {
        self.cycles += cycles;
        self.lost[cause as usize] += self.width * cycles;
    }

    /// Total lost slots across all components.
    pub fn lost_total(&self) -> u64 {
        self.lost.iter().sum()
    }

    /// Total slots accounted (committed + lost).
    pub fn total_slots(&self) -> u64 {
        self.committed_slots + self.lost_total()
    }

    /// The one-cause-per-slot invariant: every slot of every cycle is
    /// accounted exactly once.
    pub fn holds_invariant(&self) -> bool {
        self.total_slots() == self.width * self.cycles
    }

    /// Overall CPI for the window (`0.0` before anything committed).
    pub fn cpi(&self) -> f64 {
        if self.committed_slots == 0 {
            0.0
        } else {
            self.cycles as f64 / self.committed_slots as f64
        }
    }

    /// The ideal CPI floor a `width`-wide machine pays per instruction
    /// (`1 / width`); the "commit" segment of the stack.
    pub fn commit_cpi(&self) -> f64 {
        1.0 / self.width as f64
    }

    /// CPI contributed by `c`: `lost[c] / (width × instructions)`.
    /// `commit_cpi() + Σ component_cpi(c)` equals [`CpiStack::cpi`]
    /// exactly (when the invariant holds).
    pub fn component_cpi(&self, c: CpiComponent) -> f64 {
        if self.committed_slots == 0 {
            0.0
        } else {
            self.lost[c as usize] as f64 / (self.width * self.committed_slots) as f64
        }
    }

    /// CPI summed over the six memory components (the "memory stall"
    /// segment a prefetcher attacks).
    pub fn memory_cpi(&self) -> f64 {
        CpiComponent::ALL
            .iter()
            .filter(|c| c.is_memory())
            .map(|&c| self.component_cpi(c))
            .sum()
    }

    /// Component-wise difference `self − earlier` over a sub-window.
    ///
    /// # Panics
    ///
    /// Panics (debug) on mismatched widths.
    pub fn delta(&self, earlier: &CpiStack) -> CpiStack {
        debug_assert_eq!(self.width, earlier.width, "window width changed");
        let mut lost = [0u64; CpiComponent::COUNT];
        for (slot, (a, b)) in lost.iter_mut().zip(self.lost.iter().zip(earlier.lost)) {
            *slot = a - b;
        }
        CpiStack {
            width: self.width,
            cycles: self.cycles - earlier.cycles,
            committed_slots: self.committed_slots - earlier.committed_slots,
            lost,
        }
    }

    /// Sums two cores' stacks (for whole-CMP aggregates; widths must
    /// match).
    pub fn combined(&self, other: &CpiStack) -> CpiStack {
        debug_assert_eq!(self.width, other.width, "mixed-width combine");
        let mut out = *self;
        out.cycles += other.cycles;
        out.committed_slots += other.committed_slots;
        for (slot, o) in out.lost.iter_mut().zip(other.lost) {
            *slot += o;
        }
        out
    }

    /// Flattens the stack into `registry` under the `cpi.` prefix:
    /// `cpi.width`, `cpi.cycles`, `cpi.slots.committed`, and one
    /// `cpi.slots.<component>` per [`CpiComponent`].
    pub fn fill_registry(&self, registry: &mut StatsRegistry) {
        registry.set("cpi.width", self.width);
        registry.set("cpi.cycles", self.cycles);
        registry.set("cpi.slots.committed", self.committed_slots);
        for c in CpiComponent::ALL {
            registry.set(format!("cpi.slots.{}", c.as_str()), self.lost[c as usize]);
        }
    }
}

/// One interval snapshot of a core's behaviour: where the window's commit
/// slots went plus the memory/branch counters needed for IPC, MPKI and
/// prefetch accuracy/coverage over the interval.
///
/// All fields are exact `u64` tallies over the *interval* (not cumulative,
/// except `cycle`/`instructions` which locate the sample in the run); the
/// derived-metric methods compute the ratios on demand so nothing is lost
/// to rounding in storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSample {
    /// Core the sample belongs to.
    pub core: u32,
    /// Sample index within the core's series (0-based).
    pub index: u32,
    /// Cycles since accounting was enabled, at sample time.
    pub cycle: u64,
    /// Instructions committed since accounting was enabled, at sample time.
    pub instructions: u64,
    /// Cycles elapsed in this interval.
    pub interval_cycles: u64,
    /// Instructions committed in this interval.
    pub interval_instructions: u64,
    /// Conditional-branch mispredicts in this interval.
    pub interval_mispredicts: u64,
    /// L1D demand misses in this interval.
    pub interval_l1d_misses: u64,
    /// Prefetched lines first-touched by demand in this interval.
    pub interval_pf_useful: u64,
    /// Prefetched lines evicted untouched in this interval.
    pub interval_pf_useless: u64,
    /// Demand accesses that merged with in-flight prefetches in this
    /// interval (late prefetches; a subset of `interval_l1d_misses`).
    pub interval_pf_late: u64,
    /// Lost commit slots per [`CpiComponent`] in this interval.
    pub lost: [u64; CpiComponent::COUNT],
}

bfetch_snapshot::impl_snap_struct!(CpiConfig { enabled, timeline_interval });
bfetch_snapshot::impl_snap_struct!(CpiStack { width, cycles, committed_slots, lost });
bfetch_snapshot::impl_snap_struct!(TimelineSample {
    core,
    index,
    cycle,
    instructions,
    interval_cycles,
    interval_instructions,
    interval_mispredicts,
    interval_l1d_misses,
    interval_pf_useful,
    interval_pf_useless,
    interval_pf_late,
    lost,
});

impl TimelineSample {
    /// Instructions per cycle over the interval.
    pub fn ipc(&self) -> f64 {
        if self.interval_cycles == 0 {
            0.0
        } else {
            self.interval_instructions as f64 / self.interval_cycles as f64
        }
    }

    /// L1D misses per kilo-instruction over the interval.
    pub fn mpki(&self) -> f64 {
        if self.interval_instructions == 0 {
            0.0
        } else {
            self.interval_l1d_misses as f64 * 1000.0 / self.interval_instructions as f64
        }
    }

    /// Prefetch accuracy over the interval: `useful / (useful + useless)`.
    pub fn pf_accuracy(&self) -> f64 {
        let judged = self.interval_pf_useful + self.interval_pf_useless;
        if judged == 0 {
            0.0
        } else {
            self.interval_pf_useful as f64 / judged as f64
        }
    }

    /// Prefetch coverage over the interval:
    /// `useful / (useful + uncovered demand misses)`, where uncovered
    /// demand misses are L1D misses minus late-prefetch merges.
    pub fn pf_coverage(&self) -> f64 {
        let uncovered = self.interval_l1d_misses - self.interval_pf_late.min(self.interval_l1d_misses);
        let den = self.interval_pf_useful + uncovered;
        if den == 0 {
            0.0
        } else {
            self.interval_pf_useful as f64 / den as f64
        }
    }

    /// Serialises the sample as one line of JSON with a fixed key order
    /// (schema documented in DESIGN.md "Cycle accounting & timeline").
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "{{\"event\":\"timeline_sample\",\"core\":{},\"index\":{},\"cycle\":{},\
             \"instructions\":{},\"interval_cycles\":{},\"interval_instructions\":{},\
             \"ipc\":{:.4},\"mpki\":{:.3},\"mispredicts\":{},\"l1d_misses\":{},\
             \"pf_accuracy\":{:.4},\"pf_coverage\":{:.4},\"lost\":{{",
            self.core,
            self.index,
            self.cycle,
            self.instructions,
            self.interval_cycles,
            self.interval_instructions,
            self.ipc(),
            self.mpki(),
            self.interval_mispredicts,
            self.interval_l1d_misses,
            self.pf_accuracy(),
            self.pf_coverage(),
        );
        for (i, c) in CpiComponent::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.as_str(), self.lost[c as usize]);
        }
        out.push_str("}}");
        out
    }

    /// The CSV column names matching [`TimelineSample::csv_row`].
    pub fn csv_header() -> String {
        let mut out = String::from(
            "core,index,cycle,instructions,interval_cycles,interval_instructions,\
             ipc,mpki,mispredicts,l1d_misses,pf_accuracy,pf_coverage",
        );
        for c in CpiComponent::ALL {
            out.push_str(",lost_");
            out.push_str(c.as_str());
        }
        out
    }

    /// Serialises the sample as one CSV row (column order of
    /// [`TimelineSample::csv_header`]).
    pub fn csv_row(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "{},{},{},{},{},{},{:.4},{:.3},{},{},{:.4},{:.4}",
            self.core,
            self.index,
            self.cycle,
            self.instructions,
            self.interval_cycles,
            self.interval_instructions,
            self.ipc(),
            self.mpki(),
            self.interval_mispredicts,
            self.interval_l1d_misses,
            self.pf_accuracy(),
            self.pf_coverage(),
        );
        for c in CpiComponent::ALL {
            let _ = write!(out, ",{}", self.lost[c as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimelineSample {
        let mut lost = [0u64; CpiComponent::COUNT];
        lost[CpiComponent::MemDram as usize] = 300;
        lost[CpiComponent::Mispredict as usize] = 100;
        TimelineSample {
            core: 0,
            index: 2,
            cycle: 3_000,
            instructions: 6_000,
            interval_cycles: 1_000,
            interval_instructions: 2_000,
            interval_mispredicts: 10,
            interval_l1d_misses: 40,
            interval_pf_useful: 30,
            interval_pf_useless: 10,
            interval_pf_late: 20,
            lost,
        }
    }

    #[test]
    fn invariant_holds_by_construction() {
        let mut s = CpiStack::new(4);
        s.account_cycle(4, CpiComponent::Base);
        s.account_cycle(2, CpiComponent::MemDram);
        s.account_cycle(0, CpiComponent::Mispredict);
        s.account_cycle(3, CpiComponent::RobFull);
        assert!(s.holds_invariant());
        assert_eq!(s.total_slots(), 16);
        assert_eq!(s.committed_slots, 9);
        assert_eq!(s.lost[CpiComponent::MemDram as usize], 2);
        assert_eq!(s.lost[CpiComponent::Mispredict as usize], 4);
        assert_eq!(s.lost[CpiComponent::RobFull as usize], 1);
    }

    #[test]
    fn component_cpis_sum_to_total_cpi() {
        let mut s = CpiStack::new(4);
        s.account_cycle(4, CpiComponent::Base);
        s.account_cycle(1, CpiComponent::MemL3);
        s.account_cycle(2, CpiComponent::LsqFull);
        s.account_cycle(0, CpiComponent::FetchStall);
        let parts: f64 = CpiComponent::ALL.iter().map(|&c| s.component_cpi(c)).sum();
        assert!((s.commit_cpi() + parts - s.cpi()).abs() < 1e-12);
        assert!(s.memory_cpi() > 0.0);
    }

    #[test]
    fn delta_and_combined_are_componentwise() {
        let mut a = CpiStack::new(4);
        a.account_cycle(1, CpiComponent::MemDram);
        let snap = a;
        a.account_cycle(2, CpiComponent::MemL2Covered);
        let d = a.delta(&snap);
        assert_eq!(d.cycles, 1);
        assert_eq!(d.committed_slots, 2);
        assert_eq!(d.lost[CpiComponent::MemL2Covered as usize], 2);
        assert_eq!(d.lost[CpiComponent::MemDram as usize], 0);
        assert!(d.holds_invariant());
        let c = snap.combined(&d);
        assert_eq!(c, a);
    }

    #[test]
    fn registry_keys_cover_every_component() {
        let mut s = CpiStack::new(4);
        s.account_cycle(0, CpiComponent::MshrFull);
        let mut r = StatsRegistry::new();
        s.fill_registry(&mut r);
        assert_eq!(r.get("cpi.width"), 4);
        assert_eq!(r.get("cpi.cycles"), 1);
        assert_eq!(r.get("cpi.slots.mshr_full"), 4);
        for c in CpiComponent::ALL {
            assert!(r.contains(&format!("cpi.slots.{}", c.as_str())));
        }
    }

    #[test]
    fn component_tokens_are_unique_and_ordered() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, c) in CpiComponent::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL must follow discriminant order");
            assert!(seen.insert(c.as_str()), "duplicate token {}", c.as_str());
        }
        assert!(CpiComponent::MemDramCovered.is_memory());
        assert!(CpiComponent::MemDramCovered.is_covered());
        assert!(!CpiComponent::MshrFull.is_memory());
        assert!(!CpiComponent::MemL3.is_covered());
    }

    #[test]
    fn sample_metrics_match_hand_computed_values() {
        let s = sample();
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.mpki() - 20.0).abs() < 1e-12);
        assert!((s.pf_accuracy() - 0.75).abs() < 1e-12);
        // uncovered demand misses = 40 - 20 = 20; coverage = 30 / 50
        assert!((s.pf_coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sample_export_shapes_are_stable() {
        let s = sample();
        let line = s.to_json_line();
        assert!(line.starts_with("{\"event\":\"timeline_sample\",\"core\":0,\"index\":2,"));
        assert!(line.contains("\"ipc\":2.0000"));
        assert!(line.contains("\"lost\":{\"base\":0,"));
        assert!(line.ends_with("\"mem_dram\":300,\"mem_dram_covered\":0}}"));
        let header = TimelineSample::csv_header();
        let row = s.csv_row();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "header/row column mismatch"
        );
        assert!(header.ends_with("lost_mem_dram,lost_mem_dram_covered"));
        assert!(row.starts_with("0,2,3000,6000,1000,2000,2.0000,20.000,10,40,"));
    }

    #[test]
    fn config_defaults_off() {
        assert!(!CpiConfig::default().enabled);
        let on = CpiConfig::on();
        assert!(on.enabled && on.timeline_interval > 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_width_rejected() {
        CpiStack::new(0);
    }
}
