//! Branch target buffer.

/// A set-associative branch target buffer mapping branch PCs to their
/// targets, with LRU replacement.
///
/// The timing core charges a small redirect penalty when a taken branch
/// misses in the BTB (the target only becomes known at decode).
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    ways: usize,
    // per set: (tag, target, lru) — lower lru == more recently used
    entries: Vec<Vec<(u64, u64, u8)>>,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `sets` sets (power of two) and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        Self {
            sets,
            ways,
            entries: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    /// Looks up the predicted target for the branch at `pc`, updating LRU
    /// and hit/miss statistics.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let si = self.set_of(pc);
        let set = &mut self.entries[si];
        if let Some(pos) = set.iter().position(|&(tag, _, _)| tag == pc) {
            let target = set[pos].1;
            let old = set[pos].2;
            for e in set.iter_mut() {
                if e.2 < old {
                    e.2 += 1;
                }
            }
            set[pos].2 = 0;
            self.hits += 1;
            Some(target)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Read-only peek (no LRU or stats update) — used by the lookahead.
    pub fn peek(&self, pc: u64) -> Option<u64> {
        self.entries[self.set_of(pc)]
            .iter()
            .find(|&&(tag, _, _)| tag == pc)
            .map(|&(_, t, _)| t)
    }

    /// Installs or refreshes the mapping `pc -> target`.
    pub fn install(&mut self, pc: u64, target: u64) {
        let si = self.set_of(pc);
        let ways = self.ways;
        let set = &mut self.entries[si];
        if let Some(pos) = set.iter().position(|&(tag, _, _)| tag == pc) {
            set[pos].1 = target;
            let old = set[pos].2;
            for e in set.iter_mut() {
                if e.2 < old {
                    e.2 += 1;
                }
            }
            set[pos].2 = 0;
            return;
        }
        for e in set.iter_mut() {
            e.2 += 1;
        }
        if set.len() < ways {
            set.push((pc, target, 0));
        } else {
            let victim = set
                .iter()
                .enumerate()
                .max_by_key(|(_, &(_, _, lru))| lru)
                .map(|(i, _)| i)
                .expect("nonempty set");
            set[victim] = (pc, target, 0);
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

bfetch_snapshot::snap_state!(Btb {
    sets: skip,
    ways: skip,
    entries: slice("btb set count"),
    hits: val,
    misses: val,
} check |b| {
    if b.entries.iter().any(|set| set.len() > b.ways) {
        return Err(bfetch_snapshot::SnapshotError::Invalid {
            what: "btb set exceeds associativity",
        });
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::new(64, 4);
        assert_eq!(btb.lookup(0x400000), None);
        btb.install(0x400000, 0x400100);
        assert_eq!(btb.lookup(0x400000), Some(0x400100));
        assert_eq!(btb.stats(), (1, 1));
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut btb = Btb::new(64, 4);
        btb.install(0x400000, 0x400100);
        assert_eq!(btb.peek(0x400000), Some(0x400100));
        assert_eq!(btb.peek(0x400004), None);
        assert_eq!(btb.stats(), (0, 0));
    }

    #[test]
    fn reinstall_updates_target() {
        let mut btb = Btb::new(64, 2);
        btb.install(0x400000, 0x1);
        btb.install(0x400000, 0x2);
        assert_eq!(btb.peek(0x400000), Some(0x2));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut btb = Btb::new(1, 2);
        btb.install(0x0, 0xa);
        btb.install(0x4, 0xb);
        btb.lookup(0x0); // refresh 0x0
        btb.install(0x8, 0xc); // evicts 0x4
        assert_eq!(btb.peek(0x0), Some(0xa));
        assert_eq!(btb.peek(0x4), None);
        assert_eq!(btb.peek(0x8), Some(0xc));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        Btb::new(3, 2);
    }
}
