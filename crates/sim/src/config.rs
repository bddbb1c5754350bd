//! Simulator configuration (Table II): the knobs a figure varies, and the
//! Table II values no figure varies as constants.

use bfetch_core::BFetchConfig;
use bfetch_mem::{CacheConfig, DramConfig, HierarchyConfig};
use bfetch_stats::{CpiConfig, TraceConfig};

/// Table II's per-core L1 instruction cache: 64 KB, 8-way, 2 cycles.
pub const L1I: CacheConfig = CacheConfig::new(64 * 1024, 8, 2);
/// Table II's per-core L1 data cache: 64 KB, 8-way, 2 cycles.
pub const L1D: CacheConfig = CacheConfig::new(64 * 1024, 8, 2);
/// Table II's unified per-core L2: 256 KB, 8-way, 10 cycles.
pub const L2: CacheConfig = CacheConfig::new(256 * 1024, 8, 10);
/// Table II's shared L3 capacity per core: 2 MB.
pub const L3_BYTES_PER_CORE: u64 = 2 * 1024 * 1024;
/// Table II's shared L3 associativity.
pub const L3_WAYS: usize = 16;
/// Table II's shared L3 latency in cycles.
pub const L3_LATENCY: u64 = 20;
/// Outstanding-prefetch buffer entries per core.
pub const PREFETCH_BUFFERS: usize = 32;

/// Which prefetcher a core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No prefetching (the paper's speedup baseline).
    None,
    /// Reference-prediction-table stride prefetcher (degree 8).
    Stride,
    /// Spatial Memory Streaming.
    Sms,
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
            PrefetcherKind::Stride => "stride",
            PrefetcherKind::Sms => "sms",
            PrefetcherKind::BFetch => "bfetch",
            PrefetcherKind::Perfect => "perfect",
        }
    }

    /// Every variant, in snapshot tag order.
    const ALL: [Self; 5] = [Self::None, Self::Stride, Self::Sms, Self::BFetch, Self::Perfect];

    /// The `&'static str` [`name`](Self::name) returns for `name`, or
    /// `None` when no kind is called that.
    pub(crate) fn static_name(name: &str) -> Option<&'static str> {
        Self::ALL.iter().map(Self::name).find(|&n| n == name)
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
        /// The knob's field path (e.g. `"width"`, `"bfetch.mht_slots"`).
        knob: &'static str,
    },
    /// A knob above what its container can index, what a constructor
    /// should allocate on a file's say-so, or what a cycle stamp can
    /// absorb (the `MAX_*` constants of this module).
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
    /// A prefetcher table's geometry cannot be built.
    Table {
        /// The knob's field path (e.g. `"bfetch.brtc_entries"`).
        knob: &'static str,
        /// What is wrong with it.
        problem: &'static str,
    },
    /// A real-valued knob outside its range, or NaN.
    Range {
        /// The knob's field path (e.g. `"bfetch.confidence_threshold"`).
        knob: &'static str,
        /// The smallest accepted value.
        lo: f64,
        /// The largest accepted value.
        hi: f64,
    },
    /// A run was given no programs: it has one core per program.
    NoCores,
    /// The shared L3 this many cores get cannot be built: `bytes` is
    /// [`L3_BYTES_PER_CORE`] `× cores`.
    L3 {
        /// The run's core count.
        cores: usize,
        /// The L3's total capacity.
        bytes: u64,
        /// Its associativity.
        ways: usize,
        /// What is wrong with its geometry.
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
            ConfigError::Table { knob, problem } => write!(f, "config: {knob} {problem}"),
            ConfigError::Range { knob, lo, hi } => {
                write!(f, "config: {knob} must be a number in [{lo}, {hi}]")
            }
            ConfigError::NoCores => write!(f, "config: a run needs a program per core, and has none"),
            ConfigError::L3 { cores, bytes, ways, problem } => write!(
                f,
                "config: l3 geometry invalid for {cores} cores \
                 ({bytes} bytes, {ways} ways): {problem}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Widest pipeline: `PortRing` counts a cycle's reservations in a `u8`,
/// and fetch, issue, commit and the load/store ports all follow
/// [`SimConfig::width`].
pub const MAX_WIDTH: usize = u8::MAX as usize;

/// Largest L1D MSHR file: a flat array sized at construction and probed by
/// linear scan (real files hold 4–32).
pub const MAX_MSHR_ENTRIES: usize = 1 << 16;

/// Largest B-Fetch table (BrTC, MHT slot array, per-load filter) or trace
/// ring: each is allocated whole at construction, and a million entries is
/// tens of megabytes for the widest of them (the paper's largest is 16 K).
pub const MAX_TABLE_ENTRIES: usize = 1 << 20;

/// Most register-history slots per MHT entry: the entry's valid mask is
/// one `u32` bit per slot.
pub const MAX_MHT_SLOTS: usize = u32::BITS as usize;

/// Largest instruction or cycle count a knob names (warmup, the timeline
/// interval, the watchdog, the cycle budget, fault triggers): far beyond
/// any run, and small enough that a cycle stamp plus one cannot overflow.
pub const MAX_RUN_LENGTH: u64 = 1 << 40;

/// Full system configuration: every knob a figure or flag varies, plus the
/// observer and failure-model seams. [`SimConfig::baseline`] reproduces
/// Table II; the Table II values nothing varies are this module's constants
/// (caches), `core`'s (pipeline) and the prefetchers' own `baseline()`s.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched, issued and committed per cycle (Table II:
    /// 4-wide; Figure 14 sweeps 2/4/8). The core gets `max(width / 2, 1)`
    /// load/store ports.
    pub width: usize,
    /// Branch predictor scale relative to the 6.55 KB baseline
    /// (Figure 13 sweeps 0.5/1/2/4).
    pub bpred_scale: f64,
    /// The prefetcher to run on every core.
    pub prefetcher: PrefetcherKind,
    /// B-Fetch engine geometry and thresholds.
    pub bfetch: BFetchConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// L1D demand MSHR entries.
    pub l1d_mshrs: usize,
    /// Model dirty-line writebacks down to DRAM (off by default; see
    /// `bfetch-mem`).
    pub model_writebacks: bool,
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
            width: 4,
            bpred_scale: 1.0,
            prefetcher: PrefetcherKind::None,
            bfetch: BFetchConfig::baseline(),
            dram: DramConfig::baseline(),
            l1d_mshrs: 4,
            model_writebacks: false,
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
        self.width = width;
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

    /// Checks what [`SimConfig::validate`] cannot, because the core count
    /// is the run's: that there is a core ([`ConfigError::NoCores`]), and
    /// that the L3 this many cores share can be built the way
    /// `SetAssocCache::new` would build it, instead of its panic
    /// ([`ConfigError::L3`]; three baseline cores make a 6 MB L3 of 6 144
    /// sets, not a power of two). Every run and resume checks it before
    /// building the hierarchy.
    pub fn check_cores(&self, cores: usize) -> Result<(), ConfigError> {
        if cores == 0 {
            return Err(ConfigError::NoCores);
        }
        let bytes = L3_BYTES_PER_CORE.saturating_mul(cores as u64);
        let sets = (bytes / bfetch_mem::LINE_BYTES) as usize / L3_WAYS;
        if sets.is_power_of_two() {
            return Ok(());
        }
        let problem = "set count must be a power of two";
        Err(ConfigError::L3 { cores, bytes, ways: L3_WAYS, problem })
    }

    /// The configuration's wire bytes: its [`Snap`](bfetch_snapshot::Snap)
    /// encoding, as a checkpoint's config section carries it.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut w = bfetch_snapshot::Encoder::new();
        bfetch_snapshot::Snap::save(self, &mut w);
        w.into_bytes()
    }

    /// The memory hierarchy configuration for `cores` cores.
    pub fn hierarchy(&self, cores: usize) -> HierarchyConfig {
        HierarchyConfig {
            cores,
            l1i: L1I,
            l1d: L1D,
            l2: L2,
            l3: CacheConfig::new(L3_BYTES_PER_CORE * cores as u64, L3_WAYS, L3_LATENCY),
            dram: self.dram,
            l1d_mshrs: self.l1d_mshrs,
            prefetch_buffers: PREFETCH_BUFFERS,
            model_writebacks: self.model_writebacks,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// `config_fields!`'s `count(max)` (`min` 1) and `upto(max)` (`min` 0).
#[doc(hidden)]
pub fn check_bounded(knob: &'static str, v: u64, min: u64, max: u64) -> Result<(), ConfigError> {
    if v < min {
        return Err(ConfigError::Zero { knob });
    }
    if v > max {
        return Err(ConfigError::TooLarge { knob, max: max as usize });
    }
    Ok(())
}

/// Declares a configuration tree once: every leaf with its domain, nested
/// structs by path, in field order. From that one list it emits
/// `validate` (each leaf checked against its domain, then the `check`
/// block's cross-field rules) and the tree's [`Snap`](bfetch_snapshot::Snap)
/// pair, which encodes the leaves inline in list order.
///
/// | domain | accepts | otherwise |
/// |---|---|---|
/// | `count(max)` | `1..=max` | `Zero`, `TooLarge` |
/// | `upto(max)` | `0..=max` | `TooLarge` |
/// | `pow2(max)` | powers of two up to `max` | `TooLarge`, `Table` |
/// | `ratio(lo, hi)` | `f64` in `[lo, hi]` | `Range` (NaN included) |
/// | `any` | every value of the type | — |
/// | `geometry` | whatever the `check` block accepts with the leaf's siblings | — |
///
/// A knob is named by its path, `"dram.row_model"` for a nested leaf.
///
/// ```
/// #[derive(Clone)]
/// struct Knobs { ways: usize, depth: u64 }
/// bfetch_sim::config_fields!(Knobs { ways: count(8), depth: upto(4) } check |_k| { Ok(()) });
/// assert!(Knobs { ways: 0, depth: 1 }.validate().is_err());
/// assert!(Knobs { ways: 2, depth: 4 }.validate().is_ok());
/// ```
///
/// The tree is rebuilt as a struct literal, so a field nobody classified
/// does not compile:
///
/// ```compile_fail,E0063
/// #[derive(Clone)]
/// struct Knobs { ways: usize, depth: u64 }
/// bfetch_sim::config_fields!(Knobs { ways: count(8) } check |_k| { Ok(()) });
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! config_fields {
    ($ty:ident {
        $($field:ident : $dom:ident $(($($arg:tt)*))? $({ $($body:tt)* })?),+ $(,)?
    } check |$c:ident| $check:block) => {
        impl $ty {
            /// Checks each leaf against its `config_fields!` domain, then the
            /// cross-field rules. Every run entry point calls it before
            /// building state, so a bad knob is a typed [`ConfigError`]($crate::config::ConfigError), not a panic.
            pub fn validate(&self) -> Result<(), $crate::config::ConfigError> {
                $($crate::config_fields!(@each check(self) $field: $dom $(($($arg)*))? $({ $($body)* })?);)+
                let $c = self;
                $check
            }
        }

        impl ::bfetch_snapshot::Snap for $ty {
            fn save(&self, w: &mut ::bfetch_snapshot::Encoder) {
                $($crate::config_fields!(@each save(self, w) $field: $dom $(($($arg)*))? $({ $($body)* })?);)+
            }

            fn load(
                r: &mut ::bfetch_snapshot::Decoder<'_>,
            ) -> Result<Self, ::bfetch_snapshot::SnapshotError> {
                Ok(Self { $($field: $crate::config_fields!(@load r, $dom $({ $($body)* })?)),+ })
            }
        }

        #[cfg(test)]
        impl $ty {
            /// `base` once per probe value of every leaf, with the knob's
            /// name (see `config::tests::Probe`).
            fn leaf_probes(base: &Self) -> Vec<(&'static str, Self)> {
                let mut out = Vec::new();
                $($crate::config_fields!(@each probe(base, out) $field: $dom $(($($arg)*))? $({ $($body)* })?);)+
                out
            }
        }
    };

    // one `@$mode` call per leaf: its path from the root, name and domain
    (@each $mode:ident $ctx:tt $f:ident: $ty:ident { $($sub:ident : $d:ident $(($($a:tt)*))?),+ $(,)? }) => {
        $($crate::config_fields!(@$mode $ctx [$f.$sub] concat!(stringify!($f), ".", stringify!($sub)), $d $(($($a)*))?);)+
    };
    (@each $mode:ident $ctx:tt $f:ident: $($leaf:tt)+) => {
        $crate::config_fields!(@$mode $ctx [$f] stringify!($f), $($leaf)+);
    };
    (@check ($s:ident) [$($p:ident).+] $k:expr, count($max:expr)) => {
        $crate::config::check_bounded($k, $s.$($p).+ as u64, 1, $max as u64)?
    };
    (@check ($s:ident) [$($p:ident).+] $k:expr, upto($max:expr)) => {
        $crate::config::check_bounded($k, $s.$($p).+ as u64, 0, $max as u64)?
    };
    (@check ($s:ident) [$($p:ident).+] $k:expr, pow2($max:expr)) => {
        $crate::config::check_bounded($k, $s.$($p).+ as u64, 0, $max as u64)?;
        if !($s.$($p).+ as u64).is_power_of_two() {
            let problem = "must be a power of two";
            return Err($crate::config::ConfigError::Table { knob: $k, problem });
        }
    };
    (@check ($s:ident) [$($p:ident).+] $k:expr, ratio($lo:expr, $hi:expr)) => {
        if !($lo..=$hi).contains(&$s.$($p).+) {
            return Err($crate::config::ConfigError::Range { knob: $k, lo: $lo, hi: $hi });
        }
    };
    (@check $s:tt $p:tt $k:expr, any) => {};
    (@check $s:tt $p:tt $k:expr, geometry) => {};
    (@save ($s:ident, $w:ident) [$($p:ident).+] $k:expr, $($d:tt)+) => {
        ::bfetch_snapshot::Snap::save(&$s.$($p).+, $w)
    };
    (@probe ($base:ident, $out:ident) [$($p:ident).+] $k:expr, $d:ident $(($max:expr $(, $hi:expr)?))?) => {
        for v in $crate::config::tests::Probe::probes(u64::MAX $(.min($max as u64))?) {
            let mut c = $base.clone();
            c.$($p).+ = v;
            $out.push(($k, c));
        }
    };
    (@load $r:ident, $ty:ident { $($sub:ident : $d:ident $(($($a:tt)*))?),+ $(,)? }) => {
        $ty { $($sub: ::bfetch_snapshot::Snap::load($r)?),+ }
    };
    (@load $r:ident, $d:ident) => { ::bfetch_snapshot::Snap::load($r)? };
}

config_fields!(SimConfig {
    width: count(MAX_WIDTH),
    bpred_scale: geometry,
    prefetcher: any,
    bfetch: BFetchConfig {
        brtc_entries: pow2(MAX_TABLE_ENTRIES),
        mht_entries: pow2(MAX_TABLE_ENTRIES),
        mht_slots: count(MAX_MHT_SLOTS),
        filter_entries: pow2(MAX_TABLE_ENTRIES),
        filter_threshold: any,
        // above 1 stops every walk (a legitimate setting); 2 catches a
        // percentage typed as a fraction
        confidence_threshold: ratio(0.0, 2.0),
        enable_filter: any,
        enable_loops: any,
        enable_patt: any,
        arf_at_retire: any,
    },
    dram: DramConfig { row_model: any },
    l1d_mshrs: count(MAX_MSHR_ENTRIES),
    model_writebacks: any,
    warmup_insts: upto(MAX_RUN_LENGTH),
    trace: TraceConfig { enabled: any, capacity: count(MAX_TABLE_ENTRIES) },
    cpi: CpiConfig { enabled: any, timeline_interval: upto(MAX_RUN_LENGTH) },
    watchdog_cycles: upto(MAX_RUN_LENGTH),
    max_cycles: upto(MAX_RUN_LENGTH),
    fault: FaultInjection { panic_at_insts: upto(MAX_RUN_LENGTH), freeze_at_insts: upto(MAX_RUN_LENGTH) },
} check |c| {
    // the slot array is `mht_entries × mht_slots` in one allocation
    if c.bfetch.mht_entries * c.bfetch.mht_slots > MAX_TABLE_ENTRIES {
        return Err(ConfigError::TooLarge {
            knob: "bfetch.mht_entries × mht_slots",
            max: MAX_TABLE_ENTRIES,
        });
    }
    if bfetch_bpred::TournamentConfig::try_scaled(c.bpred_scale).is_none() {
        return Err(ConfigError::BpredScale { scale: c.bpred_scale });
    }
    Ok(())
});

bfetch_snapshot::impl_snap_enum!(PrefetcherKind {
    PrefetcherKind::None = 0,
    PrefetcherKind::Stride = 1,
    PrefetcherKind::Sms = 2,
    PrefetcherKind::BFetch = 3,
    PrefetcherKind::Perfect = 4,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_ii() {
        let c = SimConfig::baseline();
        assert_eq!(c.width, 4);
        let h = c.hierarchy(1);
        assert_eq!((h.l1d.size_bytes, h.l1d.latency), (64 * 1024, 2));
        assert_eq!((h.l2.size_bytes, h.l2.latency), (256 * 1024, 10));
        assert_eq!((h.l3.size_bytes, h.l3.latency), (2 * 1024 * 1024, 20));
        assert_eq!(h.prefetch_buffers, PREFETCH_BUFFERS);
        assert!(!c.dram.row_model, "Table II's flat 200-cycle DRAM");
        assert_eq!(bfetch_mem::dram::LATENCY, 200);
        assert_eq!(c.bfetch.confidence_threshold, 0.75);
        assert_eq!(c.bfetch.filter_threshold, 3);
        assert_eq!(c.prefetcher, PrefetcherKind::None);
    }

    #[test]
    fn hierarchy_scales_l3_with_cores() {
        let c = SimConfig::baseline();
        assert_eq!(c.hierarchy(1).l3.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.hierarchy(4).l3.size_bytes, 8 * 1024 * 1024);
    }

    /// A power-of-two core count keeps the baseline L3's set count a power
    /// of two; any other count is the L3 geometry error.
    #[test]
    fn core_counts_the_l3_cannot_be_built_for_are_typed_errors() {
        let c = SimConfig::baseline();
        for cores in [1, 2, 4, 8, 64] {
            assert_eq!(c.check_cores(cores), Ok(()), "{cores} cores");
        }
        for cores in [3, 5, 6, 7] {
            let err = c.check_cores(cores).unwrap_err();
            assert_eq!(
                err,
                ConfigError::L3 {
                    cores,
                    bytes: cores as u64 * L3_BYTES_PER_CORE,
                    ways: L3_WAYS,
                    problem: "set count must be a power of two",
                }
            );
            assert!(err.to_string().contains(&format!("l3 geometry invalid for {cores} cores")), "{err}");
        }
        assert_eq!(c.check_cores(0), Err(ConfigError::NoCores));
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
        assert_eq!(c.width, 4);
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
        assert_eq!(PrefetcherKind::static_name("stride"), Some("stride"));
        assert_eq!(PrefetcherKind::static_name("perfect"), Some("perfect"));
        assert_eq!(PrefetcherKind::static_name("experimental-9"), None);
    }

    #[test]
    fn baseline_validates() {
        assert_eq!(SimConfig::baseline().validate(), Ok(()));
    }

    #[test]
    fn zero_width_is_rejected() {
        let c = SimConfig::baseline().with_width(0);
        assert_eq!(c.validate(), Err(ConfigError::Zero { knob: "width" }));
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
    fn widths_beyond_the_port_ring_counter_are_rejected() {
        assert_bounded("width", MAX_WIDTH, |c, v| c.width = v);
        // the counter the bound protects: one more port would wrap it to 0
        assert_eq!((MAX_WIDTH + 1) as u8, 0);
    }

    #[test]
    fn oversized_mshr_files_are_rejected() {
        assert_bounded("l1d_mshrs", MAX_MSHR_ENTRIES, |c, v| c.l1d_mshrs = v);
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
    fn zero_mshrs_is_rejected() {
        let mut c = SimConfig::baseline();
        c.l1d_mshrs = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { knob: "l1d_mshrs" }));
    }

    /// Why `validate` refuses the baseline after `set` edits it.
    fn rejection(set: fn(&mut SimConfig)) -> ConfigError {
        let mut c = SimConfig::baseline();
        set(&mut c);
        c.validate().expect_err("validate must refuse this geometry")
    }

    /// Each geometry a B-Fetch table constructor asserts on
    /// (`BranchTraceCache`, `MemoryHistoryTable`, `PerLoadFilter`) is
    /// refused here first, whichever prefetcher is selected.
    #[test]
    fn prefetcher_geometry_the_constructors_assert_on_is_rejected() {
        let table = |knob, problem| ConfigError::Table { knob, problem };
        let zero = |knob| ConfigError::Zero { knob };
        let pow2 = "must be a power of two";
        assert_eq!(rejection(|c| c.bfetch.brtc_entries = 3), table("bfetch.brtc_entries", pow2));
        assert_eq!(rejection(|c| c.bfetch.brtc_entries = 0), table("bfetch.brtc_entries", pow2));
        assert_eq!(rejection(|c| c.bfetch.mht_entries = 96), table("bfetch.mht_entries", pow2));
        assert_eq!(rejection(|c| c.bfetch.mht_slots = 0), zero("bfetch.mht_slots"));
        assert_eq!(rejection(|c| c.bfetch.filter_entries = 2047), table("bfetch.filter_entries", pow2));
    }

    #[test]
    fn oversized_prefetcher_tables_are_rejected() {
        assert_bounded("bfetch.brtc_entries", MAX_TABLE_ENTRIES, |c, v| c.bfetch.brtc_entries = v);
        assert_bounded("bfetch.filter_entries", MAX_TABLE_ENTRIES, |c, v| {
            c.bfetch.filter_entries = v
        });
        assert_bounded("bfetch.mht_slots", MAX_MHT_SLOTS, |c, v| c.bfetch.mht_slots = v);
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

    /// The smallest B-Fetch geometry `validate` accepts builds.
    #[test]
    fn the_smallest_accepted_geometry_constructs() {
        let mut c = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
        c.bfetch.brtc_entries = 1;
        c.bfetch.mht_entries = 1;
        c.bfetch.mht_slots = MAX_MHT_SLOTS;
        c.bfetch.filter_entries = 1;
        assert_eq!(c.validate(), Ok(()));
        crate::core::Core::new(0, bfetch_isa::ProgramBuilder::new("empty").finish(), &c);
    }

    #[test]
    fn config_errors_render_the_knob() {
        let s = ConfigError::Zero { knob: "width" }.to_string();
        assert!(s.contains("width"), "{s}");
        let s = ConfigError::TooLarge { knob: "l1d_mshrs", max: 7 }.to_string();
        assert!(s.contains("l1d_mshrs") && s.contains('7'), "{s}");
        let s = ConfigError::BpredScale { scale: 3.0 }.to_string();
        assert!(s.contains("3"), "{s}");
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
            .with_prefetcher(PrefetcherKind::Sms)
            .with_bpred_scale(2.0)
            .with_writebacks(true);
        c.dram.row_model = true;
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

    /// A frame whose prefetcher tag names no variant is a typed `Invalid`.
    #[test]
    fn an_unknown_prefetcher_tag_loads_as_invalid() {
        use bfetch_snapshot::{Decoder, Snap as _, SnapshotError};
        let encode = |kind| SimConfig::baseline().with_prefetcher(kind).wire_bytes();
        let (first, last) = (encode(PrefetcherKind::ALL[0]), encode(PrefetcherKind::ALL[4]));
        let at = first.iter().zip(&last).position(|(a, b)| a != b).expect("the tag differs");
        assert_eq!(last[at], 4, "the last variant's tag");
        let mut bad = last;
        bad[at] = PrefetcherKind::ALL.len() as u8;
        let err = SimConfig::load(&mut Decoder::new(&bad)).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn unset_and_oversized_run_knobs_are_rejected() {
        let max = MAX_RUN_LENGTH as usize;
        assert_bounded("warmup_insts", max, |c, v| c.warmup_insts = v as u64);
        assert_bounded("watchdog_cycles", max, |c, v| c.watchdog_cycles = v as u64);
        assert_bounded("max_cycles", max, |c, v| c.max_cycles = v as u64);
        assert_bounded("cpi.timeline_interval", max, |c, v| c.cpi.timeline_interval = v as u64);
        assert_bounded("fault.panic_at_insts", max, |c, v| c.fault.panic_at_insts = v as u64);
        assert_bounded("fault.freeze_at_insts", max, |c, v| c.fault.freeze_at_insts = v as u64);
        // `TraceSink::new` reserves the whole ring up front
        assert_bounded("trace.capacity", MAX_TABLE_ENTRIES, |c, v| c.trace.capacity = v);
        assert_eq!(rejection(|c| c.trace.capacity = 0), ConfigError::Zero { knob: "trace.capacity" });
    }

    #[test]
    fn a_nan_or_out_of_range_confidence_threshold_is_rejected() {
        let range = ConfigError::Range { knob: "bfetch.confidence_threshold", lo: 0.0, hi: 2.0 };
        for t in [f64::NAN, -0.5, 2.5, f64::INFINITY] {
            let mut c = SimConfig::baseline();
            c.bfetch.confidence_threshold = t;
            assert_eq!(c.validate(), Err(range.clone()), "{t}");
        }
        let s = range.to_string();
        assert!(s.contains("bfetch.confidence_threshold") && s.contains("[0, 2]"), "{s}");
    }

    /// The values the leaf walk sets a knob to: 0, one past its domain's
    /// maximum and the type's largest (NaN and ±∞ for a real).
    pub(super) trait Probe: Sized {
        fn probes(max: u64) -> Vec<Self>;
    }

    macro_rules! probe_ints {
        ($($t:ty),+) => {$(
            impl Probe for $t {
                fn probes(max: u64) -> Vec<Self> {
                    [0, max.saturating_add(1), u64::MAX]
                        .map(|v| <$t>::try_from(v).unwrap_or(<$t>::MAX))
                        .to_vec()
                }
            }
        )+};
    }
    probe_ints!(u8, u32, u64, usize);

    impl Probe for bool {
        fn probes(_: u64) -> Vec<Self> {
            vec![false, true]
        }
    }

    impl Probe for f64 {
        fn probes(_: u64) -> Vec<Self> {
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        }
    }

    impl Probe for PrefetcherKind {
        fn probes(_: u64) -> Vec<Self> {
            PrefetcherKind::ALL.to_vec()
        }
    }

    /// Every leaf the list knows, at each probe value, is a typed
    /// `ConfigError` or a 1 000-cycle run that does not panic, under the
    /// prefetcher that reads it (and with tracing and CPI accounting on,
    /// so their knobs are read too).
    #[test]
    fn every_leaf_at_its_extremes_is_rejected_or_runs() {
        use bfetch_isa::{ProgramBuilder, Reg};
        let mut b = ProgramBuilder::new("walk");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0x100_0000 + 64 * 4096);
        let top = b.label();
        b.bind(top);
        b.load(Reg::R4, Reg::R1, 0);
        b.add(Reg::R5, Reg::R5, Reg::R4);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let program = b.finish();

        let mut base = SimConfig::baseline();
        base.warmup_insts = 0;
        base.max_cycles = 1_000;
        base.trace.enabled = true;
        base.cpi.enabled = true;
        let probes = SimConfig::leaf_probes(&base);
        let mut knobs: Vec<&str> = probes.iter().map(|(k, _)| *k).collect();
        knobs.dedup();
        assert_eq!(knobs.len(), 25, "one entry per leaf: {knobs:?}");
        for (knob, mut c) in probes {
            if knob != "prefetcher" {
                c.prefetcher = PrefetcherKind::BFetch;
            }
            if c.validate().is_err() {
                continue;
            }
            let run = std::panic::catch_unwind(|| {
                crate::SimSession::new(c.clone()).instructions(2_000).run_one(&program)
            });
            match run {
                Err(_) => panic!("{knob}: an accepted value panicked\n{c:?}"),
                Ok(Err(crate::SimError::Config(e))) => panic!("{knob}: validate passed, run said {e}"),
                Ok(_) => {}
            }
        }
    }
}
