//! The Irregular Stream Buffer (Jain & Lin, MICRO 2013) — the paper's
//! representative *heavy-weight* prefetcher (Section III-B).
//!
//! ISB introduces an extra level of indirection: temporally correlated
//! physical addresses are assigned consecutive *structural* addresses, so
//! irregular physical streams become sequential structural streams and can
//! be prefetched with a trivial next-N policy. The cost is the mapping
//! meta-data: conceptually megabytes of physical↔structural tables held
//! off-chip, shuttled through small on-chip caches (the paper quotes 8 MB
//! of off-chip storage and 8.4% extra memory traffic for ISB).
//!
//! This implementation keeps the full mappings (the "off-chip" store) in
//! host memory and models the on-chip caches as LRU sets of meta-data
//! pages; every on-chip miss is counted as meta-data traffic, reproducing
//! the traffic-overhead comparison the B-Fetch paper draws. Meta-data
//! latency is not folded into prefetch timing (the real design hides it
//! behind TLB-miss synchronization).

use crate::{hash_pc10, line_of, AccessEvent, PrefetchRequest, Prefetcher};
use bfetch_mem::LINE_BYTES;
use std::collections::HashMap;

/// ISB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsbConfig {
    /// Structural-stream prefetch degree.
    pub degree: usize,
    /// Lines per structural stream region (new streams are allocated at
    /// this granularity).
    pub stream_lines: u64,
    /// On-chip meta-data cache entries (pages) per direction (PS and SP).
    pub metadata_cache_pages: usize,
    /// Meta-data page size in bytes (one transfer unit).
    pub metadata_page_bytes: u64,
}

impl IsbConfig {
    /// A configuration in the spirit of the MICRO 2013 design.
    pub fn baseline() -> Self {
        Self {
            degree: 4,
            stream_lines: 256,
            metadata_cache_pages: 128,
            metadata_page_bytes: 64,
        }
    }
}

impl Default for IsbConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// A small LRU set of meta-data page numbers, modelling one on-chip
/// address-mapping cache.
#[derive(Debug, Clone)]
struct PageLru {
    pages: Vec<(u64, u64)>, // (page, stamp)
    capacity: usize,
    tick: u64,
}

impl PageLru {
    fn new(capacity: usize) -> Self {
        Self {
            pages: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
        }
    }

    /// Touches `page`; returns `true` on hit, `false` on a miss (which the
    /// caller must count as an off-chip transfer).
    fn touch(&mut self, page: u64) -> bool {
        self.tick += 1;
        if let Some(e) = self.pages.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.tick;
            return true;
        }
        if self.pages.len() < self.capacity {
            self.pages.push((page, self.tick));
        } else if let Some(victim) = self.pages.iter_mut().min_by_key(|(_, stamp)| *stamp) {
            *victim = (page, self.tick);
        }
        false
    }
}

/// The ISB prefetcher.
///
/// # Example
///
/// ```
/// use bfetch_prefetch::{Isb, Prefetcher, AccessEvent};
/// let mut isb = Isb::baseline();
/// let mut out = Vec::new();
/// let ld = |addr| AccessEvent { pc: 0x400100, addr, hit: false, is_load: true };
/// // an irregular but repeating temporal stream...
/// for &a in &[0x1_0000u64, 0x9_3400, 0x2_bc40] {
///     isb.on_access(&ld(a), &mut out);
/// }
/// out.clear();
/// // ...is prefetched on its second traversal
/// isb.on_access(&ld(0x1_0000), &mut out);
/// assert!(out.iter().any(|r| r.addr == 0x9_3400));
/// ```
#[derive(Debug, Clone)]
pub struct Isb {
    cfg: IsbConfig,
    // conceptually off-chip: full physical↔structural maps (line granular)
    ps: HashMap<u64, u64>,
    sp: HashMap<u64, u64>,
    // per-PC training unit: last physical line touched by this PC
    training: HashMap<u64, u64>,
    next_structural: u64,
    ps_cache: PageLru,
    sp_cache: PageLru,
    metadata_transfers: u64,
}

impl Isb {
    /// Builds an ISB instance.
    ///
    /// # Panics
    ///
    /// Panics if the degree or stream length is zero.
    pub fn new(cfg: IsbConfig) -> Self {
        assert!(cfg.degree > 0, "degree must be nonzero");
        assert!(cfg.stream_lines > 0, "streams must be nonempty");
        Self {
            cfg,
            ps: HashMap::new(),
            sp: HashMap::new(),
            training: HashMap::new(),
            next_structural: 0,
            ps_cache: PageLru::new(cfg.metadata_cache_pages),
            sp_cache: PageLru::new(cfg.metadata_cache_pages),
            metadata_transfers: 0,
        }
    }

    /// Baseline-configured ISB.
    pub fn baseline() -> Self {
        Self::new(IsbConfig::baseline())
    }

    /// The configuration in use.
    pub fn config(&self) -> &IsbConfig {
        &self.cfg
    }

    /// Off-chip meta-data transfers so far (each
    /// [`IsbConfig::metadata_page_bytes`] long).
    pub fn metadata_transfers(&self) -> u64 {
        self.metadata_transfers
    }

    /// Off-chip meta-data traffic in bytes.
    pub fn metadata_traffic_bytes(&self) -> u64 {
        self.metadata_transfers * self.cfg.metadata_page_bytes
    }

    /// Conceptual off-chip meta-data footprint in bytes (both maps).
    pub fn offchip_bytes(&self) -> u64 {
        (self.ps.len() + self.sp.len()) as u64 * 8
    }

    #[inline]
    fn meta_page(&self, key: u64) -> u64 {
        key / (self.cfg.metadata_page_bytes / 8).max(1)
    }

    fn touch_ps(&mut self, phys_line: u64) {
        let page = self.meta_page(phys_line / LINE_BYTES);
        if !self.ps_cache.touch(page) {
            self.metadata_transfers += 1;
        }
    }

    fn touch_sp(&mut self, structural: u64) {
        let page = self.meta_page(structural);
        if !self.sp_cache.touch(page) {
            self.metadata_transfers += 1;
        }
    }

    fn assign(&mut self, phys_line: u64, structural: u64) {
        if let Some(old) = self.ps.insert(phys_line, structural) {
            self.sp.remove(&old);
        }
        if let Some(displaced) = self.sp.insert(structural, phys_line) {
            if displaced != phys_line {
                self.ps.remove(&displaced);
            }
        }
    }
}

impl Prefetcher for Isb {
    fn name(&self) -> &'static str {
        "isb"
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if !ev.is_load {
            return;
        }
        let line = line_of(ev.addr);
        self.touch_ps(line);

        // ---- training: extend this PC's temporal stream -------------------
        if let Some(prev) = self.training.insert(ev.pc, line) {
            if prev != line {
                let s_prev = match self.ps.get(&prev) {
                    Some(&s) => s,
                    None => {
                        // open a new structural stream region
                        let s = self.next_structural;
                        self.next_structural += self.cfg.stream_lines;
                        self.assign(prev, s);
                        s
                    }
                };
                let want = s_prev + 1;
                // keep streams within their allocated region, and never
                // steal a line that already belongs to a stream — temporal
                // streams are stable, and re-homing a stream head on a
                // wrap-around pair would destroy the learned sequence
                let in_region = !want.is_multiple_of(self.cfg.stream_lines);
                if in_region && !self.ps.contains_key(&line) {
                    self.assign(line, want);
                }
            }
        }

        // ---- prediction: structural next-N --------------------------------
        if let Some(&s) = self.ps.get(&line) {
            self.touch_sp(s);
            let h = hash_pc10(ev.pc);
            for k in 1..=self.cfg.degree as u64 {
                let sn = s + k;
                if sn % self.cfg.stream_lines == 0 {
                    break; // stream region boundary
                }
                if let Some(&phys) = self.sp.get(&sn) {
                    out.push(PrefetchRequest {
                        addr: phys,
                        pc_hash: h,
                    });
                }
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // on-chip: two meta-data caches + the training unit (off-chip
        // storage is reported separately via offchip_bytes)
        let cache = 2 * self.cfg.metadata_cache_pages as u64 * self.cfg.metadata_page_bytes * 8;
        let training = 128 * (16 + 32);
        cache + training
    }

    fn metadata_traffic_bytes(&self) -> u64 {
        Isb::metadata_traffic_bytes(self)
    }
}

bfetch_snapshot::snap_state!(PageLru {
    pages: val,
    capacity: skip,
    tick: val,
} check |c| {
    if c.pages.len() > c.capacity {
        return Err(bfetch_snapshot::SnapshotError::Invalid {
            what: "isb metadata cache overflow",
        });
    }
    Ok(())
});

// The three maps are `Snap` values in key order (see `bfetch_snapshot`), so
// the bytes do not depend on hasher state.
bfetch_snapshot::snap_state!(Isb {
    cfg: skip,
    ps: val,
    sp: val,
    training: val,
    next_structural: val,
    ps_cache: state,
    sp_cache: state,
    metadata_transfers: val,
});

bfetch_snapshot::impl_snap_struct!(IsbConfig {
    degree,
    stream_lines,
    metadata_cache_pages,
    metadata_page_bytes
});

#[cfg(test)]
mod tests {
    use super::*;

    fn load(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            pc,
            addr,
            hit: false,
            is_load: true,
        }
    }

    /// The defining ISB property: an *irregular but repeating* temporal
    /// sequence is learned on the first pass and prefetched on the second.
    #[test]
    fn learns_irregular_temporal_stream() {
        let mut isb = Isb::baseline();
        let seq = [0x1_0000u64, 0x9_3400, 0x2_bc40, 0x7_0080, 0x4_55c0];
        let mut out = Vec::new();
        for &a in &seq {
            isb.on_access(&load(0x400100, a), &mut out);
        }
        out.clear();
        // second pass: accessing the first element must prefetch successors
        isb.on_access(&load(0x400100, seq[0]), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert!(addrs.contains(&line_of(seq[1])), "{addrs:#x?}");
        assert!(addrs.contains(&line_of(seq[2])), "{addrs:#x?}");
    }

    #[test]
    fn reassignment_follows_changed_stream() {
        let mut isb = Isb::baseline();
        let mut out = Vec::new();
        // first A -> B
        isb.on_access(&load(0x400100, 0x1000), &mut out);
        isb.on_access(&load(0x400100, 0x2000), &mut out);
        // later the stream changes to A -> C
        isb.on_access(&load(0x400100, 0x1000), &mut out);
        isb.on_access(&load(0x400100, 0x3000), &mut out);
        out.clear();
        isb.on_access(&load(0x400100, 0x1000), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert!(addrs.contains(&0x3000), "stream must retrain: {addrs:#x?}");
        assert!(!addrs.contains(&0x2000), "stale successor must be unmapped");
    }

    #[test]
    fn distinct_pcs_get_distinct_streams() {
        let mut isb = Isb::baseline();
        let mut out = Vec::new();
        isb.on_access(&load(0x400100, 0x1000), &mut out);
        isb.on_access(&load(0x400200, 0x8000), &mut out);
        isb.on_access(&load(0x400100, 0x2000), &mut out);
        isb.on_access(&load(0x400200, 0x9000), &mut out);
        out.clear();
        isb.on_access(&load(0x400100, 0x1000), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert!(addrs.contains(&0x2000));
        assert!(!addrs.contains(&0x9000), "cross-PC pollution: {addrs:#x?}");
    }

    #[test]
    fn metadata_traffic_accumulates() {
        let mut isb = Isb::baseline();
        let mut out = Vec::new();
        // touch many distinct lines: the small on-chip caches must miss
        for i in 0..10_000u64 {
            isb.on_access(&load(0x400100, i * 8192), &mut out);
        }
        assert!(
            isb.metadata_transfers() > 1_000,
            "{}",
            isb.metadata_transfers()
        );
        assert!(isb.offchip_bytes() > 100_000);
    }

    #[test]
    fn stores_do_not_train() {
        let mut isb = Isb::baseline();
        let mut out = Vec::new();
        isb.on_access(
            &AccessEvent {
                pc: 0x400100,
                addr: 0x1000,
                hit: false,
                is_load: false,
            },
            &mut out,
        );
        assert_eq!(isb.offchip_bytes(), 0);
    }

    #[test]
    fn stream_regions_bound_runaway_chains() {
        let cfg = IsbConfig {
            stream_lines: 4,
            ..IsbConfig::baseline()
        };
        let mut isb = Isb::new(cfg);
        let mut out = Vec::new();
        for i in 0..16u64 {
            isb.on_access(&load(0x400100, 0x1_0000 + i * 4096), &mut out);
        }
        out.clear();
        isb.on_access(&load(0x400100, 0x1_0000), &mut out);
        assert!(out.len() < 4, "degree bounded by the stream region");
    }
}
