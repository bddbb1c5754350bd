//! Simulator configuration (Table II).

use bfetch_core::BFetchConfig;
use bfetch_mem::{CacheConfig, DramConfig, HierarchyConfig};
use bfetch_prefetch::{SmsConfig, StrideConfig};
use bfetch_stats::{CpiConfig, TraceConfig};

/// Which prefetcher a core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No prefetching (the paper's speedup baseline).
    None,
    /// Sequential next-N-lines.
    NextN(usize),
    /// Reference-prediction-table stride prefetcher (degree 8).
    Stride,
    /// Spatial Memory Streaming.
    Sms,
    /// Irregular Stream Buffer (heavy-weight comparison point).
    Isb,
    /// B-Fetch (the paper's contribution).
    BFetch,
    /// Oracle: every data access completes with L1 latency (Figure 1's
    /// "Perfect" prefetcher).
    Perfect,
}

impl PrefetcherKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PrefetcherKind::None => "baseline",
            PrefetcherKind::NextN(_) => "next-n",
            PrefetcherKind::Stride => "stride",
            PrefetcherKind::Sms => "sms",
            PrefetcherKind::Isb => "isb",
            PrefetcherKind::BFetch => "bfetch",
            PrefetcherKind::Perfect => "perfect",
        }
    }
}

/// Deterministic fault injection for robustness testing: make the
/// simulator panic or stop committing at a chosen instruction count.
///
/// Both triggers compare against a core's *total* committed instructions
/// (warmup included), so a fault can be planted in either phase. The
/// default (`0`/`0`) disables injection entirely and keeps the cycle loop
/// on its fault-free fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultInjection {
    /// Panic once any core has committed this many instructions
    /// (0 = never). Exercises the harness's `catch_unwind` isolation.
    pub panic_at_insts: u64,
    /// Freeze every core (stop cycling them) once any core has committed
    /// this many instructions (0 = never). With the watchdog on this
    /// yields `SimError::Watchdog`; with it off, `SimError::CycleBudget`.
    pub freeze_at_insts: u64,
}

impl FaultInjection {
    /// Whether any trigger is armed.
    pub fn active(&self) -> bool {
        self.panic_at_insts > 0 || self.freeze_at_insts > 0
    }
}

/// A rejected [`SimConfig`]: which knob is unusable and why.
///
/// Produced by [`SimConfig::validate`], which every run entry point calls
/// before constructing any simulation state, so a bad knob surfaces as a
/// typed [`SimError::Config`](crate::SimError::Config) value instead of a
/// panic deep inside a constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural knob that must be at least one was zero.
    Zero {
        /// The knob's field path (e.g. `"issue_width"`, `"dram.channels"`).
        knob: &'static str,
    },
    /// A structural knob above what its container can index or what a
    /// constructor should allocate on a file's say-so ([`MAX_WIDTH`],
    /// [`MAX_ROB_ENTRIES`], [`MAX_MSHR_ENTRIES`], [`MAX_TABLE_ENTRIES`],
    /// [`MAX_MHT_SLOTS`]).
    TooLarge {
        /// The knob's field path.
        knob: &'static str,
        /// The largest accepted value.
        max: usize,
    },
    /// `bpred_scale` does not map onto a tournament-predictor geometry
    /// (the supported factors are 0.5, 1, 2, 4 and 8).
    BpredScale {
        /// The rejected scale factor.
        scale: f64,
    },
    /// A cache's geometry cannot be built.
    Cache {
        /// Which cache (`"l1i"`, `"l1d"`, `"l2"`, `"l3"`).
        cache: &'static str,
        /// What is wrong with it.
        problem: &'static str,
    },
    /// A prefetcher table's geometry cannot be built.
    Table {
        /// The knob's field path (e.g. `"bfetch.brtc_entries"`).
        knob: &'static str,
        /// What is wrong with it.
        problem: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero { knob } => write!(f, "config: {knob} must be nonzero"),
            ConfigError::TooLarge { knob, max } => {
                write!(f, "config: {knob} exceeds its structural maximum of {max}")
            }
            ConfigError::BpredScale { scale } => write!(
                f,
                "config: bpred_scale {scale} is not a supported tournament \
                 scale (0.5, 1, 2, 4 or 8)"
            ),
            ConfigError::Cache { cache, problem } => {
                write!(f, "config: {cache} geometry invalid: {problem}")
            }
            ConfigError::Table { knob, problem } => write!(f, "config: {knob} {problem}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Widest pipeline stage and most load/store ports: `PortRing` counts a
/// cycle's reservations in a `u8`, and the widths move together
/// ([`SimConfig::with_width`]), so one cap serves all four knobs.
pub const MAX_WIDTH: usize = u8::MAX as usize;

/// Largest reorder buffer. The ROB ring's 32-bit wake-up links could
/// address 2³⁰ slots (what `Core::new` asserts); the cap sits where the
/// ring is still a sane allocation (80 MB), because a checkpoint's
/// configuration is validated *instead of* trusted before any
/// constructor allocates from it.
pub const MAX_ROB_ENTRIES: usize = 1 << 20;

/// Largest L1D MSHR file or prefetch buffer: both are flat arrays sized
/// at construction and probed by linear scan (real files hold 4–32).
pub const MAX_MSHR_ENTRIES: usize = 1 << 16;

/// Largest prefetcher table or queue (BrTC, MHT slot array, per-load
/// filter, prefetch queue, DBR, SMS AGT/PHT, stride table): each is
/// allocated whole at construction, and a million entries is tens of
/// megabytes for the widest of them (the paper's largest is 16 K).
pub const MAX_TABLE_ENTRIES: usize = 1 << 20;

/// Most register-history slots per MHT entry: the entry's valid mask is
/// one `u32` bit per slot.
pub const MAX_MHT_SLOTS: usize = u32::BITS as usize;

/// Checks one cache geometry the way `SetAssocCache::new` would, returning
/// the problem instead of panicking.
fn check_cache(cache: &'static str, cfg: &CacheConfig) -> Result<(), ConfigError> {
    let fail = |problem| Err(ConfigError::Cache { cache, problem });
    if cfg.ways == 0 {
        return fail("associativity must be nonzero");
    }
    if cfg.ways >= u8::MAX as usize {
        return fail("associativity too large");
    }
    let sets = (cfg.size_bytes / bfetch_mem::LINE_BYTES) as usize / cfg.ways;
    if sets == 0 {
        return fail("too small for one set");
    }
    if !sets.is_power_of_two() {
        return fail("set count must be a power of two");
    }
    Ok(())
}

/// Full system configuration. [`SimConfig::baseline`] reproduces Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched/decoded per cycle (Table II: 4-wide).
    pub fetch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries (Table II: 192).
    pub rob_entries: usize,
    /// Load/store ports.
    pub mem_ports: usize,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Frontend refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Penalty for a taken branch whose target missed in the BTB.
    pub btb_miss_penalty: u64,
    /// Branch predictor scale relative to the 6.55 KB baseline
    /// (Figure 13 sweeps 0.5/1/2/4).
    pub bpred_scale: f64,
    /// The prefetcher to run on every core.
    pub prefetcher: PrefetcherKind,
    /// B-Fetch engine geometry and thresholds.
    pub bfetch: BFetchConfig,
    /// SMS geometry.
    pub sms: SmsConfig,
    /// Stride geometry.
    pub stride: StrideConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified per-core L2.
    pub l2: CacheConfig,
    /// Shared L3 capacity *per core* in bytes (Table II: 2 MB/core).
    pub l3_bytes_per_core: u64,
    /// Shared L3 associativity.
    pub l3_ways: usize,
    /// Shared L3 latency.
    pub l3_latency: u64,
    /// Address-interleaved L3 banks (NUCA-style; 1 = monolithic LLC,
    /// bit-identical to the unbanked model). Large-core-count scale-out
    /// configs raise this so LLC capacity pressure stays realistic.
    pub l3_banks: usize,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// L1D demand MSHR entries.
    pub l1d_mshrs: usize,
    /// Outstanding-prefetch buffer entries per core.
    pub prefetch_buffers: usize,
    /// Model dirty-line writebacks down to DRAM (off by default; see
    /// `bfetch-mem`).
    pub model_writebacks: bool,
    /// Prefetches injected into the hierarchy per core per cycle.
    pub prefetch_issue_per_cycle: usize,
    /// Instructions committed per core before measurement begins.
    pub warmup_insts: u64,
    /// Prefetch-lifecycle event tracing (off by default; the tracer is
    /// installed after warmup so events cover the measurement window only).
    pub trace: TraceConfig,
    /// CPI-stack cycle accounting + interval timeline sampling (off by
    /// default; enabled after warmup so the stack covers exactly the
    /// measurement window).
    pub cpi: CpiConfig,
    /// Forward-progress watchdog: abort with
    /// [`SimError::Watchdog`](crate::SimError::Watchdog) if no core
    /// commits an instruction for this many cycles (0 = off). On by
    /// default; costs one compare per cycle. A stall is detected within
    /// one-to-two multiples of this threshold (the committed total is
    /// re-checked every `watchdog_cycles`, not every cycle).
    pub watchdog_cycles: u64,
    /// Hard per-run cycle budget, surfaced as
    /// [`SimError::CycleBudget`](crate::SimError::CycleBudget) when
    /// exhausted (0 = derive from the instruction quota, the historical
    /// behaviour: `(warmup + insts) * 600 + 4_000_000`).
    pub max_cycles: u64,
    /// Deterministic fault injection (testing only; defaults off).
    pub fault: FaultInjection,
}

impl SimConfig {
    /// The Table II baseline: 4-wide out-of-order, 192-entry ROB, 64 KB
    /// L1s (2 cycles), 256 KB L2 (10 cycles), 2 MB/core shared L3
    /// (20 cycles), 200-cycle DRAM at 12.8 GB/s, tournament predictor,
    /// path-confidence threshold 0.75, per-load filter threshold 3 — and
    /// **no prefetching** (the speedup baseline).
    pub fn baseline() -> Self {
        Self {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 192,
            mem_ports: 2,
            mul_latency: 3,
            mispredict_penalty: 10,
            btb_miss_penalty: 2,
            bpred_scale: 1.0,
            prefetcher: PrefetcherKind::None,
            bfetch: BFetchConfig::baseline(),
            sms: SmsConfig::baseline(),
            stride: StrideConfig::baseline(),
            l1i: CacheConfig::new(64 * 1024, 8, 2),
            l1d: CacheConfig::new(64 * 1024, 8, 2),
            l2: CacheConfig::new(256 * 1024, 8, 10),
            l3_bytes_per_core: 2 * 1024 * 1024,
            l3_ways: 16,
            l3_latency: 20,
            l3_banks: 1,
            dram: DramConfig::baseline(),
            l1d_mshrs: 4,
            prefetch_buffers: 32,
            model_writebacks: false,
            prefetch_issue_per_cycle: 2,
            warmup_insts: 50_000,
            trace: TraceConfig::default(),
            cpi: CpiConfig::default(),
            watchdog_cycles: 1_000_000,
            max_cycles: 0,
            fault: FaultInjection::default(),
        }
    }

    /// Baseline with a different prefetcher.
    pub fn with_prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetcher = kind;
        self
    }

    /// Baseline with a different pipeline width (Figure 14: 2/4/8-wide).
    pub fn with_width(mut self, width: usize) -> Self {
        self.fetch_width = width;
        self.issue_width = width;
        self.commit_width = width;
        self.mem_ports = (width / 2).max(1);
        self
    }

    /// Baseline with a different per-core warmup budget.
    pub fn with_warmup(mut self, insts: u64) -> Self {
        self.warmup_insts = insts;
        self
    }

    /// Baseline with a scaled branch predictor (Figure 13: 0.5/1/2/4×).
    pub fn with_bpred_scale(mut self, scale: f64) -> Self {
        self.bpred_scale = scale;
        self
    }

    /// Baseline with different B-Fetch engine geometry/thresholds.
    pub fn with_bfetch(mut self, bfetch: BFetchConfig) -> Self {
        self.bfetch = bfetch;
        self
    }

    /// Baseline with different DRAM parameters (the ext_dram sweep).
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Baseline with an address-interleaved (banked) L3.
    pub fn with_l3_banks(mut self, banks: usize) -> Self {
        self.l3_banks = banks;
        self
    }

    /// Baseline with dirty-line writeback modelling toggled.
    pub fn with_writebacks(mut self, on: bool) -> Self {
        self.model_writebacks = on;
        self
    }

    /// Baseline with lifecycle tracing configured (see `bfetch-stats`).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Baseline with CPI-stack accounting configured (see `bfetch-stats`).
    pub fn with_cpi(mut self, cpi: CpiConfig) -> Self {
        self.cpi = cpi;
        self
    }

    /// Baseline with a different watchdog threshold (0 disables it).
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = cycles;
        self
    }

    /// Baseline with an explicit hard cycle budget (0 = derived default).
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Baseline with deterministic fault injection armed (testing only).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = fault;
        self
    }

    /// Validates every knob a run would otherwise assert on deep inside a
    /// component constructor. Called by the run entry points before any
    /// simulation state is built; a failure comes back as a typed
    /// [`ConfigError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let nonzero = [
            ("fetch_width", self.fetch_width as u64),
            ("issue_width", self.issue_width as u64),
            ("commit_width", self.commit_width as u64),
            ("rob_entries", self.rob_entries as u64),
            ("mem_ports", self.mem_ports as u64),
            ("l3_ways", self.l3_ways as u64),
            ("l3_banks", self.l3_banks as u64),
            ("l3_bytes_per_core", self.l3_bytes_per_core),
            ("l1d_mshrs", self.l1d_mshrs as u64),
            ("prefetch_buffers", self.prefetch_buffers as u64),
            ("dram.channels", self.dram.channels as u64),
            ("dram.line_interval", self.dram.line_interval),
            ("dram.banks_per_channel", self.dram.banks_per_channel as u64),
            ("dram.row_bytes", self.dram.row_bytes),
            ("bfetch.mht_slots", self.bfetch.mht_slots as u64),
            ("sms.agt_entries", self.sms.agt_entries as u64),
            ("stride.degree", self.stride.degree as u64),
        ];
        for (knob, v) in nonzero {
            if v == 0 {
                return Err(ConfigError::Zero { knob });
            }
        }
        if self.prefetcher == PrefetcherKind::NextN(0) {
            return Err(ConfigError::Zero { knob: "prefetcher.next_n" });
        }
        let bounded = [
            ("fetch_width", self.fetch_width, MAX_WIDTH),
            ("issue_width", self.issue_width, MAX_WIDTH),
            ("commit_width", self.commit_width, MAX_WIDTH),
            ("rob_entries", self.rob_entries, MAX_ROB_ENTRIES),
            ("mem_ports", self.mem_ports, MAX_WIDTH),
            ("l1d_mshrs", self.l1d_mshrs, MAX_MSHR_ENTRIES),
            ("prefetch_buffers", self.prefetch_buffers, MAX_MSHR_ENTRIES),
            ("bfetch.brtc_entries", self.bfetch.brtc_entries, MAX_TABLE_ENTRIES),
            ("bfetch.mht_entries", self.bfetch.mht_entries, MAX_TABLE_ENTRIES),
            ("bfetch.mht_slots", self.bfetch.mht_slots, MAX_MHT_SLOTS),
            ("bfetch.filter_entries", self.bfetch.filter_entries, MAX_TABLE_ENTRIES),
            ("bfetch.queue_entries", self.bfetch.queue_entries, MAX_TABLE_ENTRIES),
            ("bfetch.dbr_entries", self.bfetch.dbr_entries, MAX_TABLE_ENTRIES),
            ("sms.agt_entries", self.sms.agt_entries, MAX_TABLE_ENTRIES),
            ("sms.pht_entries", self.sms.pht_entries, MAX_TABLE_ENTRIES),
            ("stride.entries", self.stride.entries, MAX_TABLE_ENTRIES),
        ];
        for (knob, v, max) in bounded {
            if v > max {
                return Err(ConfigError::TooLarge { knob, max });
            }
        }
        // the slot array is `mht_entries × mht_slots` in one allocation
        if self.bfetch.mht_entries * self.bfetch.mht_slots > MAX_TABLE_ENTRIES {
            return Err(ConfigError::TooLarge {
                knob: "bfetch.mht_entries × mht_slots",
                max: MAX_TABLE_ENTRIES,
            });
        }
        let pow2 = [
            ("bfetch.brtc_entries", self.bfetch.brtc_entries as u64),
            ("bfetch.mht_entries", self.bfetch.mht_entries as u64),
            ("bfetch.filter_entries", self.bfetch.filter_entries as u64),
            ("sms.pht_entries", self.sms.pht_entries as u64),
            ("sms.region_bytes", self.sms.region_bytes),
            ("sms.block_bytes", self.sms.block_bytes),
            ("stride.entries", self.stride.entries as u64),
        ];
        for (knob, v) in pow2 {
            if !v.is_power_of_two() {
                return Err(ConfigError::Table { knob, problem: "must be a power of two" });
            }
        }
        let sms = |problem| Err(ConfigError::Table { knob: "sms.block_bytes", problem });
        if self.sms.block_bytes < bfetch_mem::LINE_BYTES {
            return sms("must be at least a cache line");
        }
        if self.sms.region_bytes <= self.sms.block_bytes {
            return sms("must be smaller than the region");
        }
        if self.sms.blocks_per_region() > 32 {
            return sms("leaves more than 32 blocks per region");
        }
        if bfetch_bpred::TournamentConfig::try_scaled(self.bpred_scale).is_none() {
            return Err(ConfigError::BpredScale {
                scale: self.bpred_scale,
            });
        }
        check_cache("l1i", &self.l1i)?;
        check_cache("l1d", &self.l1d)?;
        check_cache("l2", &self.l2)?;
        // The shared L3 is sized per core and split across banks; one core
        // and one bank is the weakest geometry every run must satisfy (the
        // banked split itself is re-checked per run in `hierarchy`, whose
        // caller knows the core count).
        check_cache(
            "l3",
            &CacheConfig::new(self.l3_bytes_per_core, self.l3_ways, self.l3_latency),
        )?;
        if !self
            .l3_bytes_per_core
            .is_multiple_of(self.l3_banks as u64)
        {
            return Err(ConfigError::Cache {
                cache: "l3",
                problem: "capacity must divide evenly across banks",
            });
        }
        Ok(())
    }

    /// The memory hierarchy configuration for `cores` cores.
    pub fn hierarchy(&self, cores: usize) -> HierarchyConfig {
        HierarchyConfig {
            cores,
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            l3: CacheConfig::new(
                self.l3_bytes_per_core * cores as u64,
                self.l3_ways,
                self.l3_latency,
            ),
            l3_banks: self.l3_banks,
            dram: self.dram,
            l1d_mshrs: self.l1d_mshrs,
            prefetch_buffers: self.prefetch_buffers,
            model_writebacks: self.model_writebacks,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

// NextN carries a payload, so the unit-variant macro does not apply.
impl bfetch_snapshot::Snap for PrefetcherKind {
    fn save(&self, w: &mut bfetch_snapshot::Encoder) {
        match self {
            PrefetcherKind::None => w.put_u8(0),
            PrefetcherKind::NextN(n) => {
                w.put_u8(1);
                n.save(w);
            }
            PrefetcherKind::Stride => w.put_u8(2),
            PrefetcherKind::Sms => w.put_u8(3),
            PrefetcherKind::Isb => w.put_u8(4),
            PrefetcherKind::BFetch => w.put_u8(5),
            PrefetcherKind::Perfect => w.put_u8(6),
        }
    }

    fn load(
        r: &mut bfetch_snapshot::Decoder<'_>,
    ) -> Result<Self, bfetch_snapshot::SnapshotError> {
        Ok(match r.take_u8()? {
            0 => PrefetcherKind::None,
            1 => PrefetcherKind::NextN(usize::load(r)?),
            2 => PrefetcherKind::Stride,
            3 => PrefetcherKind::Sms,
            4 => PrefetcherKind::Isb,
            5 => PrefetcherKind::BFetch,
            6 => PrefetcherKind::Perfect,
            _ => {
                return Err(bfetch_snapshot::SnapshotError::Invalid {
                    what: "PrefetcherKind tag",
                })
            }
        })
    }
}

bfetch_snapshot::impl_snap_struct!(FaultInjection {
    panic_at_insts,
    freeze_at_insts
});

bfetch_snapshot::impl_snap_struct!(SimConfig {
    fetch_width,
    issue_width,
    commit_width,
    rob_entries,
    mem_ports,
    mul_latency,
    mispredict_penalty,
    btb_miss_penalty,
    bpred_scale,
    prefetcher,
    bfetch,
    sms,
    stride,
    l1i,
    l1d,
    l2,
    l3_bytes_per_core,
    l3_ways,
    l3_latency,
    l3_banks,
    dram,
    l1d_mshrs,
    prefetch_buffers,
    model_writebacks,
    prefetch_issue_per_cycle,
    warmup_insts,
    trace,
    cpi,
    watchdog_cycles,
    max_cycles,
    fault
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_ii() {
        let c = SimConfig::baseline();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.latency, 2);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.latency, 10);
        assert_eq!(c.l3_bytes_per_core, 2 * 1024 * 1024);
        assert_eq!(c.l3_latency, 20);
        assert_eq!(c.dram.latency, 200);
        assert_eq!(c.bfetch.confidence_threshold, 0.75);
        assert_eq!(c.bfetch.filter_threshold, 3);
        assert_eq!(c.prefetcher, PrefetcherKind::None);
    }

    #[test]
    fn width_builder_scales_ports() {
        let c = SimConfig::baseline().with_width(8);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.mem_ports, 4);
        let c2 = SimConfig::baseline().with_width(2);
        assert_eq!(c2.mem_ports, 1);
    }

    #[test]
    fn hierarchy_scales_l3_with_cores() {
        let c = SimConfig::baseline();
        assert_eq!(c.hierarchy(1).l3.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.hierarchy(4).l3.size_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::baseline()
            .with_prefetcher(PrefetcherKind::BFetch)
            .with_warmup(1_234)
            .with_bpred_scale(2.0)
            .with_writebacks(true);
        assert_eq!(c.prefetcher, PrefetcherKind::BFetch);
        assert_eq!(c.warmup_insts, 1_234);
        assert_eq!(c.bpred_scale, 2.0);
        assert!(c.model_writebacks);
        // untouched fields keep baseline values
        assert_eq!(c.rob_entries, 192);
    }

    #[test]
    fn trace_defaults_off_and_builder_enables() {
        assert!(!SimConfig::baseline().trace.enabled);
        let c = SimConfig::baseline().with_trace(TraceConfig::on());
        assert!(c.trace.enabled);
        assert!(c.trace.capacity > 0);
    }

    #[test]
    fn cpi_defaults_off_and_builder_enables() {
        assert!(!SimConfig::baseline().cpi.enabled);
        let c = SimConfig::baseline().with_cpi(CpiConfig::on());
        assert!(c.cpi.enabled);
        assert!(c.cpi.timeline_interval > 0);
    }

    #[test]
    fn watchdog_defaults_on_and_fault_defaults_off() {
        let c = SimConfig::baseline();
        assert_eq!(c.watchdog_cycles, 1_000_000);
        assert_eq!(c.max_cycles, 0);
        assert!(!c.fault.active());
        let c = c
            .with_watchdog(500)
            .with_max_cycles(9_999)
            .with_fault(FaultInjection {
                panic_at_insts: 3,
                freeze_at_insts: 0,
            });
        assert_eq!(c.watchdog_cycles, 500);
        assert_eq!(c.max_cycles, 9_999);
        assert!(c.fault.active());
    }

    #[test]
    fn prefetcher_names() {
        assert_eq!(PrefetcherKind::BFetch.name(), "bfetch");
        assert_eq!(PrefetcherKind::None.name(), "baseline");
    }

    #[test]
    fn baseline_validates() {
        assert_eq!(SimConfig::baseline().validate(), Ok(()));
    }

    #[test]
    fn zero_width_is_rejected() {
        let c = SimConfig::baseline().with_width(0);
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                knob: "fetch_width"
            })
        );
    }

    #[test]
    fn zero_rob_is_rejected() {
        let mut c = SimConfig::baseline();
        c.rob_entries = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                knob: "rob_entries"
            })
        );
    }

    /// `knob` is accepted at `max` and rejected one above it.
    fn assert_bounded(knob: &'static str, max: usize, set: fn(&mut SimConfig, usize)) {
        let mut c = SimConfig::baseline();
        set(&mut c, max);
        assert_eq!(c.validate(), Ok(()), "{knob} at its maximum");
        set(&mut c, max + 1);
        assert_eq!(c.validate(), Err(ConfigError::TooLarge { knob, max }));
    }

    #[test]
    fn widths_and_ports_beyond_the_port_ring_counter_are_rejected() {
        assert_bounded("fetch_width", MAX_WIDTH, |c, v| c.fetch_width = v);
        assert_bounded("issue_width", MAX_WIDTH, |c, v| c.issue_width = v);
        assert_bounded("commit_width", MAX_WIDTH, |c, v| c.commit_width = v);
        assert_bounded("mem_ports", MAX_WIDTH, |c, v| c.mem_ports = v);
        // the counter the bound protects: one more port would wrap it to 0
        assert_eq!((MAX_WIDTH + 1) as u8, 0);
    }

    #[test]
    fn oversized_rob_is_rejected() {
        assert_bounded("rob_entries", MAX_ROB_ENTRIES, |c, v| c.rob_entries = v);
        let mut c = SimConfig::baseline();
        c.rob_entries = 1 << 40;
        assert!(matches!(c.validate(), Err(ConfigError::TooLarge { knob: "rob_entries", .. })));
    }

    #[test]
    fn oversized_mshr_files_are_rejected() {
        assert_bounded("l1d_mshrs", MAX_MSHR_ENTRIES, |c, v| c.l1d_mshrs = v);
        assert_bounded("prefetch_buffers", MAX_MSHR_ENTRIES, |c, v| c.prefetch_buffers = v);
    }

    #[test]
    fn unsupported_bpred_scale_is_rejected() {
        let c = SimConfig::baseline().with_bpred_scale(3.0);
        assert_eq!(c.validate(), Err(ConfigError::BpredScale { scale: 3.0 }));
    }

    #[test]
    fn zero_bpred_scale_is_rejected() {
        let c = SimConfig::baseline().with_bpred_scale(0.0);
        assert_eq!(c.validate(), Err(ConfigError::BpredScale { scale: 0.0 }));
    }

    #[test]
    fn zero_l3_banks_is_rejected() {
        let c = SimConfig::baseline().with_l3_banks(0);
        assert_eq!(c.validate(), Err(ConfigError::Zero { knob: "l3_banks" }));
    }

    #[test]
    fn zero_mshrs_is_rejected() {
        let mut c = SimConfig::baseline();
        c.l1d_mshrs = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { knob: "l1d_mshrs" }));
    }

    #[test]
    fn zero_dram_channels_is_rejected() {
        let mut c = SimConfig::baseline();
        c.dram.channels = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                knob: "dram.channels"
            })
        );
    }

    #[test]
    fn non_power_of_two_cache_is_rejected() {
        let mut c = SimConfig::baseline();
        c.l1d = CacheConfig::new(48 * 1024, 8, 2); // 96 sets: not a power of two
        assert_eq!(
            c.validate(),
            Err(ConfigError::Cache {
                cache: "l1d",
                problem: "set count must be a power of two"
            })
        );
    }

    #[test]
    fn zero_way_cache_is_rejected() {
        let mut c = SimConfig::baseline();
        c.l2 = CacheConfig::new(256 * 1024, 0, 10);
        assert_eq!(
            c.validate(),
            Err(ConfigError::Cache {
                cache: "l2",
                problem: "associativity must be nonzero"
            })
        );
    }

    /// Why `validate` refuses the baseline after `set` edits it.
    fn rejection(set: fn(&mut SimConfig)) -> ConfigError {
        let mut c = SimConfig::baseline();
        set(&mut c);
        c.validate().expect_err("validate must refuse this geometry")
    }

    /// Each geometry a prefetcher constructor asserts on (`BranchTraceCache`,
    /// `MemoryHistoryTable`, `PerLoadFilter`, `Sms`, `Stride`, `NextN`) is
    /// refused here first, whichever prefetcher is selected.
    #[test]
    fn prefetcher_geometry_the_constructors_assert_on_is_rejected() {
        let table = |knob, problem| ConfigError::Table { knob, problem };
        let zero = |knob| ConfigError::Zero { knob };
        let block = |problem| table("sms.block_bytes", problem);
        let pow2 = "must be a power of two";
        assert_eq!(rejection(|c| c.bfetch.brtc_entries = 3), table("bfetch.brtc_entries", pow2));
        assert_eq!(rejection(|c| c.bfetch.brtc_entries = 0), table("bfetch.brtc_entries", pow2));
        assert_eq!(rejection(|c| c.bfetch.mht_entries = 96), table("bfetch.mht_entries", pow2));
        assert_eq!(rejection(|c| c.bfetch.mht_slots = 0), zero("bfetch.mht_slots"));
        assert_eq!(rejection(|c| c.bfetch.filter_entries = 2047), table("bfetch.filter_entries", pow2));
        assert_eq!(rejection(|c| c.sms.pht_entries = 1000), table("sms.pht_entries", pow2));
        assert_eq!(rejection(|c| c.sms.agt_entries = 0), zero("sms.agt_entries"));
        assert_eq!(rejection(|c| c.sms.region_bytes = 3000), table("sms.region_bytes", pow2));
        assert_eq!(rejection(|c| c.sms.block_bytes = 0), block(pow2));
        assert_eq!(rejection(|c| c.sms.block_bytes = 32), block("must be at least a cache line"));
        assert_eq!(rejection(|c| c.sms.block_bytes = 2048), block("must be smaller than the region"));
        assert_eq!(
            rejection(|c| c.sms.region_bytes = 8192),
            block("leaves more than 32 blocks per region")
        );
        assert_eq!(rejection(|c| c.stride.entries = 100), table("stride.entries", pow2));
        assert_eq!(rejection(|c| c.stride.degree = 0), zero("stride.degree"));
        let c = SimConfig::baseline().with_prefetcher(PrefetcherKind::NextN(0));
        assert_eq!(c.validate(), Err(zero("prefetcher.next_n")));
    }

    #[test]
    fn oversized_prefetcher_tables_are_rejected() {
        assert_bounded("bfetch.brtc_entries", MAX_TABLE_ENTRIES, |c, v| c.bfetch.brtc_entries = v);
        assert_bounded("bfetch.filter_entries", MAX_TABLE_ENTRIES, |c, v| {
            c.bfetch.filter_entries = v
        });
        assert_bounded("bfetch.queue_entries", MAX_TABLE_ENTRIES, |c, v| c.bfetch.queue_entries = v);
        assert_bounded("bfetch.dbr_entries", MAX_TABLE_ENTRIES, |c, v| c.bfetch.dbr_entries = v);
        assert_bounded("bfetch.mht_slots", MAX_MHT_SLOTS, |c, v| c.bfetch.mht_slots = v);
        assert_bounded("sms.agt_entries", MAX_TABLE_ENTRIES, |c, v| c.sms.agt_entries = v);
        assert_bounded("sms.pht_entries", MAX_TABLE_ENTRIES, |c, v| c.sms.pht_entries = v);
        assert_bounded("stride.entries", MAX_TABLE_ENTRIES, |c, v| c.stride.entries = v);
        // the MHT's slot array is the product of two knobs
        assert_bounded("bfetch.mht_entries", MAX_TABLE_ENTRIES, |c, v| {
            c.bfetch.mht_slots = 1;
            c.bfetch.mht_entries = v;
        });
        let mut c = SimConfig::baseline();
        c.bfetch.mht_entries = MAX_TABLE_ENTRIES;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooLarge {
                knob: "bfetch.mht_entries × mht_slots",
                max: MAX_TABLE_ENTRIES
            })
        );
    }

    /// The smallest geometry `validate` accepts builds under every
    /// prefetcher that reads it.
    #[test]
    fn the_smallest_accepted_geometry_constructs() {
        let mut c = SimConfig::baseline();
        c.bfetch.brtc_entries = 1;
        c.bfetch.mht_entries = 1;
        c.bfetch.mht_slots = MAX_MHT_SLOTS;
        c.bfetch.filter_entries = 1;
        c.bfetch.queue_entries = 0;
        c.bfetch.dbr_entries = 0;
        c.sms.agt_entries = 1;
        c.sms.pht_entries = 1;
        c.sms.region_bytes = 128;
        c.sms.block_bytes = 64;
        c.stride.entries = 1;
        c.stride.degree = 1;
        let program = bfetch_isa::ProgramBuilder::new("empty").finish();
        for kind in [
            PrefetcherKind::BFetch,
            PrefetcherKind::Sms,
            PrefetcherKind::Stride,
            PrefetcherKind::NextN(1),
        ] {
            let c = c.clone().with_prefetcher(kind);
            assert_eq!(c.validate(), Ok(()));
            crate::core::Core::new(0, program.clone(), &c);
        }
    }

    #[test]
    fn config_errors_render_the_knob() {
        let s = ConfigError::Zero { knob: "mem_ports" }.to_string();
        assert!(s.contains("mem_ports"), "{s}");
        let s = ConfigError::TooLarge { knob: "rob_entries", max: 7 }.to_string();
        assert!(s.contains("rob_entries") && s.contains('7'), "{s}");
        let s = ConfigError::BpredScale { scale: 3.0 }.to_string();
        assert!(s.contains("3"), "{s}");
        let s = ConfigError::Cache {
            cache: "l1i",
            problem: "too small for one set",
        }
        .to_string();
        assert!(s.contains("l1i") && s.contains("too small"), "{s}");
        let s = ConfigError::Table {
            knob: "bfetch.brtc_entries",
            problem: "must be a power of two",
        }
        .to_string();
        assert!(s.contains("bfetch.brtc_entries") && s.contains("power of two"), "{s}");
    }

    #[test]
    fn config_snapshot_round_trips() {
        use bfetch_snapshot::{Decoder, Encoder, Snap as _};
        let mut c = SimConfig::baseline()
            .with_prefetcher(PrefetcherKind::NextN(3))
            .with_bpred_scale(2.0)
            .with_l3_banks(4)
            .with_writebacks(true);
        c.cpi.enabled = true;
        c.trace.enabled = true;
        let mut w = Encoder::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = SimConfig::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
    }
}
