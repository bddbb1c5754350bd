//! Spatial Memory Streaming (Somogyi et al., ISCA 2006 / JILP 2011).

use crate::{hash_pc10, AccessEvent, PrefetchRequest, Prefetcher};
use bfetch_mem::LINE_BYTES;

/// SMS geometry. The defaults reproduce the configuration the paper
/// compares against (Section IV-C): 2 KB spatial regions, a 64-entry active
/// generation table, a 16 K-entry pattern history table, and the JILP-2011
/// revision that drops the separate filter table. Patterns are recorded at
/// 128 B-block granularity, which together with a tag-less PHT yields the
/// 36.57 KB total of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsConfig {
    /// Spatial region size in bytes (power of two).
    pub region_bytes: u64,
    /// Pattern granularity in bytes (power of two, ≥ line size).
    pub block_bytes: u64,
    /// Active generation table entries.
    pub agt_entries: usize,
    /// Pattern history table entries (power of two, tag-less).
    pub pht_entries: usize,
}

impl SmsConfig {
    /// The paper's practical configuration.
    pub fn baseline() -> Self {
        Self {
            region_bytes: 2048,
            block_bytes: 128,
            agt_entries: 64,
            pht_entries: 16 * 1024,
        }
    }

    /// A variant with a different spatial region size (used to replicate
    /// the milc discussion in Section V-B1).
    pub fn with_region(mut self, region_bytes: u64) -> Self {
        self.region_bytes = region_bytes;
        self
    }

    /// Blocks per region.
    pub fn blocks_per_region(&self) -> u32 {
        (self.region_bytes / self.block_bytes) as u32
    }
}

impl Default for SmsConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[derive(Debug, Clone, Copy)]
struct AgtEntry {
    region: u64, // region number
    trigger_pc: u64,
    trigger_block: u32,
    pattern: u32,
    stamp: u64,
    valid: bool,
}

/// The SMS prefetcher.
///
/// A *generation* begins when a PC touches a spatial region with no active
/// AGT entry (the *trigger*); subsequent accesses to the region accumulate
/// a block-granularity bit pattern. When the generation ends (AGT
/// eviction), the pattern is filed in the PHT keyed by the trigger's
/// `(PC, block offset)`. The next trigger by the same key replays the
/// pattern as prefetches across the new region.
///
/// # Example
///
/// ```
/// use bfetch_prefetch::{Sms, Prefetcher, AccessEvent};
/// let mut sms = Sms::baseline();
/// let mut out = Vec::new();
/// let ld = |addr| AccessEvent { pc: 0x400100, addr, hit: false, is_load: true };
/// // one generation: blocks 0 and 3 of a region
/// sms.on_access(&ld(0x0000), &mut out);
/// sms.on_access(&ld(0x0180), &mut out);
/// sms.flush();
/// // a fresh region replays the learned pattern
/// sms.on_access(&ld(0x10_0000), &mut out);
/// assert!(out.iter().any(|r| r.addr == 0x10_0180));
/// ```
#[derive(Debug, Clone)]
pub struct Sms {
    cfg: SmsConfig,
    agt: Vec<AgtEntry>,
    pht: Vec<u32>, // tag-less pattern storage
    tick: u64,
    generations_committed: u64,
}

impl Sms {
    /// Builds the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (non-power-of-two sizes, region smaller
    /// than block, block smaller than a cache line, or > 32 blocks/region).
    pub fn new(cfg: SmsConfig) -> Self {
        assert!(cfg.region_bytes.is_power_of_two(), "region size");
        assert!(cfg.block_bytes.is_power_of_two(), "block size");
        assert!(cfg.block_bytes >= LINE_BYTES, "block >= line");
        assert!(cfg.region_bytes > cfg.block_bytes, "region > block");
        assert!(cfg.blocks_per_region() <= 32, "pattern must fit in 32 bits");
        assert!(cfg.pht_entries.is_power_of_two(), "pht entries");
        assert!(cfg.agt_entries > 0, "agt entries");
        Self {
            agt: vec![
                AgtEntry {
                    region: 0,
                    trigger_pc: 0,
                    trigger_block: 0,
                    pattern: 0,
                    stamp: 0,
                    valid: false,
                };
                cfg.agt_entries
            ],
            pht: vec![0; cfg.pht_entries],
            tick: 0,
            generations_committed: 0,
            cfg,
        }
    }

    /// Baseline-configured SMS.
    pub fn baseline() -> Self {
        Self::new(SmsConfig::baseline())
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmsConfig {
        &self.cfg
    }

    /// Generations committed to the PHT so far.
    pub fn generations_committed(&self) -> u64 {
        self.generations_committed
    }

    #[inline]
    fn region_of(&self, addr: u64) -> u64 {
        addr / self.cfg.region_bytes
    }

    #[inline]
    fn block_of(&self, addr: u64) -> u32 {
        ((addr % self.cfg.region_bytes) / self.cfg.block_bytes) as u32
    }

    #[inline]
    fn pht_index(&self, pc: u64, block: u32) -> usize {
        let h = (pc >> 2)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            ^ block as u64;
        (h as usize) & (self.cfg.pht_entries - 1)
    }

    fn commit(&mut self, e: AgtEntry) {
        // a generation with only its trigger block carries no spatial signal
        if e.pattern.count_ones() >= 2 {
            let idx = self.pht_index(e.trigger_pc, e.trigger_block);
            self.pht[idx] = e.pattern;
            self.generations_committed += 1;
        }
    }

    /// Ends all active generations, committing their patterns (used at the
    /// end of sampling windows and in tests).
    pub fn flush(&mut self) {
        for i in 0..self.agt.len() {
            if self.agt[i].valid {
                let e = self.agt[i];
                self.agt[i].valid = false;
                self.commit(e);
            }
        }
    }
}

bfetch_snapshot::impl_snap_struct!(SmsConfig {
    region_bytes,
    block_bytes,
    agt_entries,
    pht_entries
});

bfetch_snapshot::impl_snap_struct!(AgtEntry {
    region,
    trigger_pc,
    trigger_block,
    pattern,
    stamp,
    valid
});

impl Prefetcher for Sms {
    fn name(&self) -> &'static str {
        "sms"
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let region = self.region_of(ev.addr);
        let block = self.block_of(ev.addr);
        self.tick += 1;
        let tick = self.tick;

        // active generation: accumulate
        if let Some(e) = self.agt.iter_mut().find(|e| e.valid && e.region == region) {
            e.pattern |= 1 << block;
            e.stamp = tick;
            return;
        }

        // end stale generations: the hardware ends a generation when one of
        // the region's lines leaves the cache; we approximate that with an
        // access-count staleness window so long-lived AGT entries still
        // publish their patterns
        for i in 0..self.agt.len() {
            if self.agt[i].valid && tick.saturating_sub(self.agt[i].stamp) > 512 {
                let e = self.agt[i];
                self.agt[i].valid = false;
                self.commit(e);
            }
        }

        // trigger access: replay any learned pattern for this (pc, offset)
        let idx = self.pht_index(ev.pc, block);
        let learned = self.pht[idx];
        if learned != 0 {
            let h = hash_pc10(ev.pc);
            let region_base = region * self.cfg.region_bytes;
            let lines_per_block = self.cfg.block_bytes / LINE_BYTES;
            for b in 0..self.cfg.blocks_per_region() {
                if b == block || learned & (1 << b) == 0 {
                    continue;
                }
                let block_base = region_base.wrapping_add(b as u64 * self.cfg.block_bytes);
                for l in 0..lines_per_block {
                    out.push(PrefetchRequest {
                        addr: block_base.wrapping_add(l * LINE_BYTES),
                        pc_hash: h,
                    });
                }
            }
        }

        // open a new generation, evicting the LRU entry
        let victim_idx = if let Some(i) = self.agt.iter().position(|e| !e.valid) {
            i
        } else {
            let i = self
                .agt
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("agt nonempty");
            let e = self.agt[i];
            self.commit(e);
            i
        };
        self.agt[victim_idx] = AgtEntry {
            region,
            trigger_pc: ev.pc,
            trigger_block: block,
            pattern: 1 << block,
            stamp: tick,
            valid: true,
        };
    }

    fn storage_bits(&self) -> u64 {
        let blocks = self.cfg.blocks_per_region() as u64;
        // AGT: region tag(26) + pc(16) + trigger block(log2) + pattern
        let off_bits = blocks.next_power_of_two().trailing_zeros() as u64;
        let agt = self.cfg.agt_entries as u64 * (26 + 16 + off_bits + blocks);
        // tag-less PHT: pattern + valid/replacement bits
        let pht = self.cfg.pht_entries as u64 * (blocks + 2);
        agt + pht
    }
}

bfetch_snapshot::snap_state!(Sms {
    cfg: skip,
    agt: slice("sms agt"),
    pht: slice("sms pht"),
    tick: val,
    generations_committed: val,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn access(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            pc,
            addr,
            hit: false,
            is_load: true,
        }
    }

    /// Train a spatial pattern in region r, then trigger the same PC in a
    /// fresh region and expect the pattern to replay.
    #[test]
    fn learns_and_replays_spatial_pattern() {
        let mut sms = Sms::baseline();
        let mut out = Vec::new();
        let pc = 0x40_0100;
        // generation in region 0: blocks 0, 3, 5
        sms.on_access(&access(pc, 0x0000), &mut out); // trigger, block 0
        sms.on_access(&access(pc, 0x0180), &mut out); // block 3
        sms.on_access(&access(pc, 0x0280), &mut out); // block 5
        assert!(out.is_empty(), "learning phase is silent");
        sms.flush();
        assert_eq!(sms.generations_committed(), 1);

        // trigger in a fresh region at the same block offset
        sms.on_access(&access(pc, 0x10_0000), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        // blocks 3 and 5 of the new region, both lines of each 128B block
        assert!(addrs.contains(&0x10_0180));
        assert!(addrs.contains(&0x10_01c0));
        assert!(addrs.contains(&0x10_0280));
        assert!(addrs.contains(&0x10_02c0));
        assert_eq!(addrs.len(), 4);
    }

    #[test]
    fn trigger_block_not_prefetched() {
        let mut sms = Sms::baseline();
        let mut out = Vec::new();
        let pc = 0x40_0200;
        sms.on_access(&access(pc, 0x0000), &mut out);
        sms.on_access(&access(pc, 0x0080), &mut out);
        sms.flush();
        sms.on_access(&access(pc, 0x20_0000), &mut out);
        assert!(
            out.iter().all(|r| r.addr >= 0x20_0080),
            "the demanded trigger block itself must not be prefetched"
        );
    }

    #[test]
    fn agt_eviction_commits_generation() {
        let mut sms = Sms::new(SmsConfig {
            agt_entries: 1,
            ..SmsConfig::baseline()
        });
        let mut out = Vec::new();
        let pc = 0x40_0300;
        sms.on_access(&access(pc, 0x0000), &mut out);
        sms.on_access(&access(pc, 0x0100), &mut out);
        // touching a different region evicts (and commits) the generation
        sms.on_access(&access(pc, 0x8000), &mut out);
        assert_eq!(sms.generations_committed(), 1);
    }

    #[test]
    fn single_block_generations_not_stored() {
        let mut sms = Sms::baseline();
        let mut out = Vec::new();
        sms.on_access(&access(0x40_0400, 0x0000), &mut out);
        sms.flush();
        assert_eq!(sms.generations_committed(), 0);
        sms.on_access(&access(0x40_0400, 0x30_0000), &mut out);
        assert!(out.is_empty(), "no pattern should replay");
    }

    #[test]
    fn storage_matches_table_1_ballpark() {
        let kb = Sms::baseline().storage_kb();
        assert!(
            (34.0..40.0).contains(&kb),
            "SMS storage should be ~36.57 KB as in Table I, got {kb}"
        );
    }

    #[test]
    fn region_and_block_mapping() {
        let sms = Sms::baseline();
        assert_eq!(sms.region_of(0x0), 0);
        assert_eq!(sms.region_of(0x7ff), 0);
        assert_eq!(sms.region_of(0x800), 1);
        assert_eq!(sms.block_of(0x0), 0);
        assert_eq!(sms.block_of(0x80), 1);
        assert_eq!(sms.block_of(0x7ff), 15);
    }

    #[test]
    fn smaller_regions_cover_less() {
        let cfg = SmsConfig::baseline().with_region(256);
        let sms = Sms::new(cfg);
        assert_eq!(sms.config().blocks_per_region(), 2);
    }

    #[test]
    #[should_panic(expected = "pattern must fit")]
    fn oversized_region_rejected() {
        Sms::new(SmsConfig {
            region_bytes: 8192,
            block_bytes: 64,
            ..SmsConfig::baseline()
        });
    }
}
