//! Set-associative cache, generic over what each way stores.

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

/// The L1D's per-way payload, carried for the per-load filter (Section
/// IV-B3): a prefetched bit, a used bit, and a 10-bit hash of the load PC
/// that triggered the prefetch — plus a dirty bit for writeback accounting
/// and the fill cycle, which lets the trace layer report how much lead
/// time a prefetch bought at first use.
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

/// What a cache level stores per way beside its tag and LRU rank, and how
/// a demand hit or a store changes it. Each level stores only what it
/// reads: the L1D a [`LineMeta`] (the per-load filter's feedback), the L2
/// and L3 a `bool` dirty bit, the L1I nothing (`()`).
pub trait WayMeta: Copy + Default + bfetch_snapshot::Snap {
    /// The line holds store data not yet written back.
    fn dirty(&self) -> bool;
    /// Records a store into the line.
    fn mark_dirty(&mut self);
    /// Records a demand hit on the line.
    fn on_hit(&mut self) {}
}

impl WayMeta for LineMeta {
    #[inline]
    fn dirty(&self) -> bool {
        self.dirty
    }
    #[inline]
    fn mark_dirty(&mut self) {
        self.dirty = true;
    }
    #[inline]
    fn on_hit(&mut self) {
        self.used = true;
    }
}

/// A dirty bit and nothing else.
impl WayMeta for bool {
    #[inline]
    fn dirty(&self) -> bool {
        *self
    }
    #[inline]
    fn mark_dirty(&mut self) {
        *self = true;
    }
}

/// No state: a level that is never written (the L1I).
impl WayMeta for () {
    #[inline]
    fn dirty(&self) -> bool {
        false
    }
    #[inline]
    fn mark_dirty(&mut self) {}
}

/// An invalid way: `rank` holds either an LRU age (0 = MRU) or this
/// sentinel. Associativities are ≤ 16, far below the sentinel.
const INVALID: u8 = u8::MAX;

// The lane-parallel probe re-declares the sentinel; they must never drift.
const _: () = assert!(INVALID == crate::probe::INVALID_RANK);

/// A set-associative, LRU-replacement cache over 64 B lines.
///
/// Timing lives in the [`hierarchy`](crate::hierarchy); this type tracks
/// presence, replacement and a per-way payload `M` only: a [`LineMeta`]
/// by default (the L1D), a `bool` dirty bit for the L2 and L3, `()` for
/// the L1I (see [`WayMeta`]).
///
/// Storage is split into parallel set-major arrays: the probe loop walks
/// only the packed tag and rank words (at 16 ways that is two cache lines
/// of tags and 16 bytes of ranks), while the payload is touched on hits
/// alone. Replacement state is an exact-LRU age per way — `rank == 0` is
/// MRU, `rank == valid_ways - 1` is the victim — updated in place instead
/// of scanning 64-bit timestamps. The valid ranks of a set always form a
/// permutation of `0..valid_ways`, which makes victim choice a rank
/// comparison with no tie to break.
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
pub struct SetAssocCache<M = LineMeta> {
    cfg: CacheConfig,
    sets: usize,
    tags: Vec<u64>, // sets * ways, set-major; meaningful iff rank != INVALID
    ranks: Vec<u8>, // LRU age per way, or INVALID
    metas: Vec<M>,
}

/// The result of inserting a line: the evicted victim's line address and
/// payload, if a valid line was displaced.
pub type Evicted<M = LineMeta> = Option<(u64, M)>;

impl<M: WayMeta> SetAssocCache<M> {
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
            metas: vec![M::default(); n],
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
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

    /// Demand lookup. On hit, refreshes LRU, records the hit in the
    /// payload ([`WayMeta::on_hit`]: an L1D line is marked used), and
    /// returns the payload *as it was before* this access (so the caller
    /// can detect the first use of a prefetched line).
    pub fn access(&mut self, addr: u64) -> Option<M> {
        let line = line_of(addr);
        let base = self.set_base(line);
        let i = self.find(base, line)?;
        let before = self.metas[i];
        self.promote(base, i);
        self.metas[i].on_hit();
        Some(before)
    }

    /// Presence probe without LRU or payload side effects.
    pub fn probe(&self, addr: u64) -> bool {
        let line = line_of(addr);
        self.find(self.set_base(line), line).is_some()
    }

    /// Makes `addr`'s line MRU if present, leaving its payload alone.
    /// Returns whether it was present: one tag scan where a
    /// [`probe`](Self::probe) and a refreshing [`insert`](Self::insert)
    /// would take two.
    pub fn touch(&mut self, addr: u64) -> bool {
        let line = line_of(addr);
        let base = self.set_base(line);
        match self.find(base, line) {
            Some(i) => {
                self.promote(base, i);
                true
            }
            None => false,
        }
    }

    /// Installs `addr`'s line with `meta`, evicting the LRU victim if the
    /// set is full. Returns the victim, if any.
    pub fn insert(&mut self, addr: u64, meta: M) -> Evicted<M> {
        let line = line_of(addr);
        let base = self.set_base(line);
        let ways = self.cfg.ways;
        // already present: refresh recency only (the payload is kept)
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
        self.promote(base, victim_idx);
        self.tags[victim_idx] = line;
        self.metas[victim_idx] = meta;
        Some(victim)
    }

    /// Marks `addr`'s line dirty if present (a store hit or a writeback
    /// into this level), without touching LRU. Returns whether it was
    /// present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let line = line_of(addr);
        match self.find(self.set_base(line), line) {
            Some(i) => {
                self.metas[i].mark_dirty();
                true
            }
            None => false,
        }
    }

    /// Invalidates `addr`'s line if present, returning its payload.
    pub fn invalidate(&mut self, addr: u64) -> Option<M> {
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

bfetch_snapshot::snap_state!(impl<M: WayMeta> SetAssocCache<M> {
    cfg: skip,
    sets: skip,
    tags: slice("cache tags"),
    ranks: slice("cache ranks"),
    metas: slice("cache metas"),
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
        assert_eq!(c.access(0x1000), None);
        c.insert(0x1000, LineMeta::default());
        // a hit returns the payload as it was, then marks the line used
        assert_eq!(c.access(0x1000), Some(LineMeta::default()));
        let used = LineMeta {
            used: true,
            ..LineMeta::default()
        };
        assert_eq!(c.access(0x1000), Some(used));
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
        assert!(vmeta.prefetched && !vmeta.used, "evicted untouched");
        assert_eq!(vmeta.pc_hash, 1);
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
        let (vaddr, vmeta) = c.insert(0x200, LineMeta::default()).expect("evicts");
        assert_eq!(vaddr, 0x0);
        assert!(vmeta.prefetched && vmeta.used, "evicted after use");
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
        let prefetched = LineMeta {
            prefetched: true,
            pc_hash: 3,
            ..LineMeta::default()
        };
        c.insert(0x0, prefetched);
        c.insert(0x100, LineMeta::default()); // 0x0 is now LRU
        let before = (c.tags.clone(), c.ranks.clone(), c.metas.clone());
        assert!(c.probe(0x0));
        assert!(!c.probe(0x200));
        assert_eq!((c.tags.clone(), c.ranks.clone(), c.metas.clone()), before);
    }

    #[test]
    fn touch_promotes_and_keeps_the_payload() {
        let mut c: SetAssocCache<bool> = SetAssocCache::new(CacheConfig::new(512, 2, 1));
        c.insert(0x0, true);
        c.insert(0x100, false);
        assert!(c.touch(0x0)); // 0x100 is now LRU
        assert!(!c.touch(0x200), "absent line");
        assert_eq!(c.insert(0x200, false), Some((0x100, false)));
        assert_eq!(c.insert(0x300, false), Some((0x0, true)), "dirty bit kept");
    }

    #[test]
    fn mark_dirty_reports_presence_without_promoting() {
        let mut c: SetAssocCache<bool> = SetAssocCache::new(CacheConfig::new(512, 2, 1));
        assert!(!c.mark_dirty(0x0), "absent line");
        assert_eq!(c.valid_lines(), 0);
        c.insert(0x0, false);
        c.insert(0x100, false);
        assert!(c.mark_dirty(0x0));
        // 0x0 stayed LRU, and leaves dirty
        assert_eq!(c.insert(0x200, false), Some((0x0, true)));
    }

    #[test]
    fn a_payload_free_cache_tracks_presence_and_lru() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(512, 2, 1));
        c.insert(0x0, ());
        c.insert(0x100, ());
        assert_eq!(c.access(0x0), Some(()));
        assert_eq!(c.insert(0x200, ()), Some((0x100, ())));
        assert!(c.mark_dirty(0x0));
        assert!(c.metas.iter().all(|m| !m.dirty()), "nothing to make dirty");
    }

    #[test]
    fn ranks_stay_a_permutation_under_churn() {
        // deterministic pseudo-random workload over one 4-way set
        let mut c = SetAssocCache::new(CacheConfig::new(256, 4, 1)); // 1 set x 4 ways
        let mut x = 0x9e3779b9u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
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
        SetAssocCache::<LineMeta>::new(CacheConfig::new(64 * 1024, 8, 2));
        SetAssocCache::<bool>::new(CacheConfig::new(256 * 1024, 8, 10));
        SetAssocCache::<bool>::new(CacheConfig::new(2 * 1024 * 1024, 16, 20));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        SetAssocCache::<()>::new(CacheConfig::new(192, 1, 1));
    }
}
