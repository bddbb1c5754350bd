//! Set-associative cache with prefetch metadata.

use crate::{line_of, LINE_BYTES};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a config; geometry is validated by [`SetAssocCache::new`].
    pub const fn new(size_bytes: u64, ways: usize, latency: u64) -> Self {
        Self {
            size_bytes,
            ways,
            latency,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize / self.ways
    }
}

/// Per-line metadata carried for the per-load filter (Section IV-B3): a
/// prefetched bit, a used bit, and a 10-bit hash of the load PC that
/// triggered the prefetch — plus a dirty bit for writeback accounting and
/// the fill cycle, which lets the trace layer report how much lead time a
/// prefetch bought at first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// The line was installed by a prefetch.
    pub prefetched: bool,
    /// The line has been touched by a demand access since install.
    pub used: bool,
    /// 10-bit hash of the originating load PC (0 when not a prefetch).
    pub pc_hash: u16,
    /// The line holds store data not yet written back.
    pub dirty: bool,
    /// Cycle the line was installed (fill provenance for tracing).
    pub fill_at: u64,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines installed by prefetches.
    pub prefetch_fills: u64,
    /// Prefetched lines evicted without ever being demanded.
    pub prefetch_evicted_unused: u64,
}

/// An invalid way: `rank` holds either an LRU age (0 = MRU) or this
/// sentinel. Associativities are ≤ 16, far below the sentinel.
const INVALID: u8 = u8::MAX;

// The lane-parallel probe re-declares the sentinel; they must never drift.
const _: () = assert!(INVALID == crate::probe::INVALID_RANK);

/// A set-associative, LRU-replacement cache over 64 B lines.
///
/// Timing lives in the [`hierarchy`](crate::hierarchy); this type tracks
/// presence, replacement and prefetch metadata only.
///
/// Storage is split into parallel set-major arrays: the probe loop walks
/// only the packed tag and rank words (at 16 ways that is two cache lines
/// of tags and 16 bytes of ranks), while the larger [`LineMeta`] payload
/// is touched on hits alone. Replacement state is an exact-LRU age per
/// way — `rank == 0` is MRU, `rank == valid_ways - 1` is the victim —
/// updated in place instead of scanning 64-bit timestamps. The valid
/// ranks of a set always form a permutation of `0..valid_ways`, which
/// makes victim choice a rank comparison with no tie to break.
///
/// # Example
///
/// ```
/// use bfetch_mem::{SetAssocCache, CacheConfig, LineMeta};
/// let mut l1 = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 2));
/// assert!(l1.access(0x1000).is_none()); // cold miss
/// l1.insert(0x1000, LineMeta::default());
/// assert!(l1.access(0x1000).is_some()); // hit
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: usize,
    tags: Vec<u64>, // sets * ways, set-major; meaningful iff rank != INVALID
    ranks: Vec<u8>, // LRU age per way, or INVALID
    metas: Vec<LineMeta>,
    stats: CacheStats,
}

/// The result of inserting a line: the evicted victim's line address and
/// metadata, if a valid line was displaced.
pub type Evicted = Option<(u64, LineMeta)>;

impl SetAssocCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry yields a power-of-two, nonzero set count
    /// (and the associativity leaves room for the invalid-rank sentinel).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.ways > 0, "associativity must be nonzero");
        assert!(cfg.ways < INVALID as usize, "associativity too large");
        let n = sets * cfg.ways;
        Self {
            cfg,
            sets,
            tags: vec![0; n],
            ranks: vec![INVALID; n],
            metas: vec![LineMeta::default(); n],
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        (((line / LINE_BYTES) as usize) & (self.sets - 1)) * self.cfg.ways
    }

    /// Index of `line`'s way within `base..base + ways`, if present.
    #[inline]
    fn find(&self, base: usize, line: u64) -> Option<usize> {
        let end = base + self.cfg.ways;
        crate::probe::find_way(&self.tags[base..end], &self.ranks[base..end], line)
            .map(|way| base + way)
    }

    /// Makes way `i` the set's MRU: every valid way younger than it ages
    /// by one. Preserves the rank permutation.
    #[inline]
    fn promote(&mut self, base: usize, i: usize) {
        let old = self.ranks[i];
        for r in &mut self.ranks[base..base + self.cfg.ways] {
            if *r < old {
                *r += 1;
            }
        }
        self.ranks[i] = 0;
    }

    /// Demand lookup. On hit, refreshes LRU, marks the line used, and
    /// returns the line's metadata *as it was before* this access (so the
    /// caller can detect the first use of a prefetched line).
    pub fn access(&mut self, addr: u64) -> Option<LineMeta> {
        let line = line_of(addr);
        let base = self.set_base(line);
        if let Some(i) = self.find(base, line) {
            let before = self.metas[i];
            self.promote(base, i);
            self.metas[i].used = true;
            self.stats.hits += 1;
            return Some(before);
        }
        self.stats.misses += 1;
        None
    }

    /// Presence probe without LRU, metadata or statistics side effects.
    pub fn probe(&self, addr: u64) -> bool {
        let line = line_of(addr);
        self.find(self.set_base(line), line).is_some()
    }

    /// Installs `addr`'s line with `meta`, evicting the LRU victim if the
    /// set is full. Returns the victim, if any.
    pub fn insert(&mut self, addr: u64, meta: LineMeta) -> Evicted {
        let line = line_of(addr);
        if meta.prefetched {
            self.stats.prefetch_fills += 1;
        }
        let base = self.set_base(line);
        let ways = self.cfg.ways;
        // already present: refresh recency only (metadata is kept)
        if let Some(i) = self.find(base, line) {
            self.promote(base, i);
            return None;
        }
        // free way (first invalid in way order)
        if let Some(i) = (base..base + ways).find(|&i| self.ranks[i] == INVALID) {
            for r in &mut self.ranks[base..base + ways] {
                if *r != INVALID {
                    *r += 1;
                }
            }
            self.ranks[i] = 0;
            self.tags[i] = line;
            self.metas[i] = meta;
            return None;
        }
        // evict LRU: the way holding the maximum rank
        let victim_idx = (base..base + ways)
            .max_by_key(|&i| self.ranks[i])
            .expect("nonempty set");
        let victim = (self.tags[victim_idx], self.metas[victim_idx]);
        if victim.1.prefetched && !victim.1.used {
            self.stats.prefetch_evicted_unused += 1;
        }
        self.promote(base, victim_idx);
        self.tags[victim_idx] = line;
        self.metas[victim_idx] = meta;
        Some(victim)
    }

    /// Marks `addr`'s line dirty if present (store hit).
    pub fn mark_dirty(&mut self, addr: u64) {
        let line = line_of(addr);
        if let Some(i) = self.find(self.set_base(line), line) {
            self.metas[i].dirty = true;
        }
    }

    /// Invalidates `addr`'s line if present, returning its metadata.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineMeta> {
        let line = line_of(addr);
        let base = self.set_base(line);
        let i = self.find(base, line)?;
        let old = self.ranks[i];
        // re-compact surviving ranks so they stay a 0..valid_ways
        // permutation
        for r in &mut self.ranks[base..base + self.cfg.ways] {
            if *r != INVALID && *r > old {
                *r -= 1;
            }
        }
        self.ranks[i] = INVALID;
        Some(self.metas[i])
    }

    /// Number of currently valid lines (for occupancy checks in tests).
    pub fn valid_lines(&self) -> usize {
        self.ranks.iter().filter(|&&r| r != INVALID).count()
    }
}

bfetch_snapshot::impl_snap_struct!(LineMeta {
    prefetched,
    used,
    pc_hash,
    dirty,
    fill_at
});

bfetch_snapshot::impl_snap_struct!(CacheStats {
    hits,
    misses,
    prefetch_fills,
    prefetch_evicted_unused
});

bfetch_snapshot::snap_state!(SetAssocCache {
    cfg: skip,
    sets: skip,
    tags: slice("cache tags"),
    ranks: slice("cache ranks"),
    metas: slice("cache metas"),
    stats: val,
} check |c| {
    // every valid rank must stay below the associativity, or the LRU
    // permutation invariant is broken before the first access
    if c.ranks.iter().any(|&rk| rk != INVALID && rk as usize >= c.cfg.ways) {
        return Err(bfetch_snapshot::SnapshotError::Invalid {
            what: "cache rank out of range",
        });
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B
        SetAssocCache::new(CacheConfig::new(512, 2, 1))
    }

    #[test]
    fn miss_then_hit_after_insert() {
        let mut c = small();
        assert!(c.access(0x1000).is_none());
        c.insert(0x1000, LineMeta::default());
        assert!(c.access(0x1000).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut c = small();
        c.insert(0x1000, LineMeta::default());
        assert!(c.access(0x103f).is_some());
        assert!(c.access(0x1040).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small(); // 4 sets => set stride 256
                             // three lines mapping to the same set (stride = sets * 64 = 256)
        c.insert(0x0, LineMeta::default());
        c.insert(0x100, LineMeta::default());
        c.access(0x0); // make 0x0 MRU
        c.insert(0x200, LineMeta::default()); // evicts 0x100
        assert!(c.probe(0x0));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn first_use_of_prefetched_line_visible_once() {
        let mut c = small();
        c.insert(
            0x40,
            LineMeta {
                prefetched: true,
                used: false,
                pc_hash: 0x2aa,
                dirty: false,
                fill_at: 0,
            },
        );
        let first = c.access(0x40).unwrap();
        assert!(first.prefetched && !first.used);
        assert_eq!(first.pc_hash, 0x2aa);
        let second = c.access(0x40).unwrap();
        assert!(second.used, "used bit sticks after first touch");
    }

    #[test]
    fn unused_prefetch_eviction_counted() {
        let mut c = small();
        c.insert(
            0x0,
            LineMeta {
                prefetched: true,
                used: false,
                pc_hash: 1,
                dirty: false,
                fill_at: 0,
            },
        );
        c.insert(0x100, LineMeta::default());
        let victim = c.insert(0x200, LineMeta::default());
        let (vaddr, vmeta) = victim.expect("someone was evicted");
        assert_eq!(vaddr, 0x0);
        assert!(vmeta.prefetched && !vmeta.used);
        assert_eq!(c.stats().prefetch_evicted_unused, 1);
    }

    #[test]
    fn used_prefetch_eviction_not_counted_useless() {
        let mut c = small();
        c.insert(
            0x0,
            LineMeta {
                prefetched: true,
                used: false,
                pc_hash: 1,
                dirty: false,
                fill_at: 0,
            },
        );
        c.access(0x0); // use it
        c.insert(0x100, LineMeta::default());
        c.insert(0x200, LineMeta::default());
        assert_eq!(c.stats().prefetch_evicted_unused, 0);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = small();
        c.insert(0x0, LineMeta::default());
        assert!(c.insert(0x0, LineMeta::default()).is_none());
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn reinsert_makes_line_mru() {
        let mut c = small();
        c.insert(0x0, LineMeta::default());
        c.insert(0x100, LineMeta::default());
        c.insert(0x0, LineMeta::default()); // refresh: 0x100 is now LRU
        c.insert(0x200, LineMeta::default());
        assert!(c.probe(0x0));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0x0, LineMeta::default());
        assert!(c.invalidate(0x0).is_some());
        assert!(!c.probe(0x0));
        assert!(c.invalidate(0x0).is_none());
    }

    #[test]
    fn invalidate_keeps_lru_order_of_survivors() {
        // 3-way set: fill a, b, c (LRU order a < b < c), invalidate b,
        // insert d, e — evictions must follow a, then c
        let mut c = SetAssocCache::new(CacheConfig::new(192, 3, 1)); // 1 set x 3 ways
        c.insert(0x0, LineMeta::default());
        c.insert(0x40, LineMeta::default());
        c.insert(0x80, LineMeta::default());
        c.invalidate(0x40);
        c.insert(0xc0, LineMeta::default()); // takes the freed way
        let (v1, _) = c.insert(0x100, LineMeta::default()).expect("evicts");
        assert_eq!(v1, 0x0, "oldest survivor goes first");
        let (v2, _) = c.insert(0x140, LineMeta::default()).expect("evicts");
        assert_eq!(v2, 0x80);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = small();
        c.insert(0x0, LineMeta::default());
        let s = *c.stats();
        assert!(c.probe(0x0));
        assert_eq!(*c.stats(), s);
    }

    #[test]
    fn ranks_stay_a_permutation_under_churn() {
        // deterministic pseudo-random workload over one 4-way set
        let mut c = SetAssocCache::new(CacheConfig::new(256, 4, 1)); // 1 set x 4 ways
        let mut x = 0x9e3779b9u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = (x >> 33) % 16 * 64;
            match x % 3 {
                0 => {
                    c.insert(line, LineMeta::default());
                }
                1 => {
                    c.access(line);
                }
                _ => {
                    c.invalidate(line);
                }
            }
            let mut ranks: Vec<u8> = c.ranks.iter().copied().filter(|&r| r != INVALID).collect();
            ranks.sort_unstable();
            let want: Vec<u8> = (0..ranks.len() as u8).collect();
            assert_eq!(ranks, want, "valid ranks must stay a permutation");
        }
    }

    #[test]
    fn table_ii_geometries_valid() {
        // 64KB 8-way, 256KB 8-way, 2MB 16-way
        SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 2));
        SetAssocCache::new(CacheConfig::new(256 * 1024, 8, 10));
        SetAssocCache::new(CacheConfig::new(2 * 1024 * 1024, 16, 20));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        SetAssocCache::new(CacheConfig::new(192, 1, 1));
    }
}
