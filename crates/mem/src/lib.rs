//! # bfetch-mem
//!
//! The memory-system substrate for the B-Fetch reproduction: set-associative
//! caches with per-line prefetch metadata, MSHRs, a bandwidth-limited DRAM
//! channel, and the multi-level per-core + shared-LLC hierarchy of Table II:
//!
//! * L1I & L1D: 64 KB, 8-way, 2-cycle latency
//! * L2: unified 256 KB, 8-way, 10-cycle latency (per core)
//! * L3: shared, 2 MB/core, 16-way, 20-cycle latency
//! * DRAM: 200-cycle latency, 12.8 GB/s channel (one 64 B line per 16
//!   cycles at the nominal 3.2 GHz clock)
//!
//! Prefetches install into the L1D with a *prefetched* bit, a 10-bit hash of
//! the originating load PC and a *used* bit — exactly the metadata Section
//! IV-B3 adds to support the per-load filter. The hierarchy reports
//! usefulness feedback events ([`PrefetchFeedback`]) when a demand access
//! first touches a prefetched line (useful) or when an untouched prefetched
//! line is evicted (useless); these drive both Figure 11 and the per-load
//! filter training.
//!
//! Per-core physical address spaces are disambiguated with a large
//! per-core offset, standing in for virtual memory in multiprogrammed runs.
//!
//! # Example
//!
//! ```
//! use bfetch_mem::{MemorySystem, HierarchyConfig, AccessKind};
//!
//! let mut mem = MemorySystem::new(HierarchyConfig::baseline(1));
//! let miss = mem.access(0, AccessKind::Load, 0x10_0000, 0);
//! let hit = mem.access(0, AccessKind::Load, 0x10_0000, miss.complete_at);
//! assert!(hit.complete_at - miss.complete_at <= 2 + 1);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod mshr;
pub mod probe;

pub use cache::{CacheConfig, CacheStats, LineMeta, SetAssocCache};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{
    drain_chip, AccessKind, AccessOutcome, ChipGuard, CoreMem, CoreProbe, HierarchyConfig,
    HitLevel, MemStats, MemoryInterface, MemorySystem, PrefetchFeedback, SharedMem,
};
pub use mshr::{MshrFile, MshrOutcome};

/// Cache line size in bytes used throughout the system (and by the paper's
/// delta analyses, which are expressed "at the granularity of a cache block
/// (64B)").
pub const LINE_BYTES: u64 = 64;

/// Aligns an address down to its cache-line base.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x1234_5678), 0x1234_5640);
    }
}
