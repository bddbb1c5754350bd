//! The per-load prefetch filter (Section IV-B3).

/// A skewed-sampling per-load confidence filter, inspired by the dead-block
/// predictor of Khan et al. (MICRO 2010): three tables of 3-bit up/down
/// saturating counters, each indexed by a *different* hash of the load's
/// PC hash. A prefetch for a load is issued only while the sum of its three
/// counters stays at or above the threshold (Table II: 3); counters are
/// incremented when the L1D reports the prefetch useful and decremented
/// when it reports the line evicted untouched.
///
/// The per-load confidence has precedence over the branch path confidence:
/// a load that repeatedly produces useless prefetches is muted even on
/// perfectly predictable paths.
///
/// # Example
///
/// ```
/// use bfetch_core::PerLoadFilter;
/// let mut f = PerLoadFilter::new(2048, 3);
/// assert!(f.allow(0x2a)); // cold loads may prefetch
/// for _ in 0..8 { f.train(0x2a, false); }
/// assert!(!f.allow(0x2a)); // muted after a useless streak
/// ```
#[derive(Debug, Clone)]
pub struct PerLoadFilter {
    tables: [Vec<u8>; 3],
    mask: usize,
    threshold: u8,
    allowed: u64,
    blocked: u64,
}

const MULTIPLIERS: [u64; 3] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x165667b19e3779f9,
];

impl PerLoadFilter {
    /// Creates a filter with `entries` counters per table and the given
    /// issue `threshold` on the 3-counter sum.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize, threshold: u8) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            // start at 1 each: sum 3 passes the default threshold, so cold
            // loads may prefetch until proven harmful
            tables: [vec![1; entries], vec![1; entries], vec![1; entries]],
            mask: entries - 1,
            threshold,
            allowed: 0,
            blocked: 0,
        }
    }

    #[inline]
    fn index(&self, table: usize, pc_hash: u16) -> usize {
        ((pc_hash as u64)
            .wrapping_mul(MULTIPLIERS[table])
            .rotate_left(11 + 7 * table as u32) as usize)
            & self.mask
    }

    /// The 3-counter confidence sum for this load.
    pub fn confidence(&self, pc_hash: u16) -> u8 {
        (0..3).map(|t| self.tables[t][self.index(t, pc_hash)]).sum()
    }

    /// Whether a prefetch for this load may be issued (updates statistics).
    ///
    /// A muted load is granted a *probation* issue every 256th decision so
    /// the filter can observe whether its prefetches have become useful
    /// again — without it, a load muted once could never recover, since
    /// useful-feedback only flows for issued prefetches.
    pub fn allow(&mut self, pc_hash: u16) -> bool {
        let below = self.confidence(pc_hash) < self.threshold;
        if below {
            self.blocked += 1;
            if self.blocked.is_multiple_of(256) {
                self.allowed += 1;
                return true;
            }
            return false;
        }
        self.allowed += 1;
        true
    }

    /// Trains the filter with L1D usefulness feedback.
    pub fn train(&mut self, pc_hash: u16, useful: bool) {
        for t in 0..3 {
            let i = self.index(t, pc_hash);
            let c = &mut self.tables[t][i];
            if useful {
                if *c < 7 {
                    *c += 1;
                }
            } else if *c > 0 {
                *c -= 1;
            }
        }
    }

    /// `(allowed, blocked)` issue decisions so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.allowed, self.blocked)
    }
}

bfetch_snapshot::snap_state!(PerLoadFilter {
    tables: val,
    mask: skip,
    threshold: skip,
    allowed: val,
    blocked: val,
} check |f| {
    if f.tables.iter().any(|t| t.len() != f.mask + 1) {
        return Err(bfetch_snapshot::SnapshotError::Invalid { what: "filter table" });
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_loads_allowed() {
        let mut f = PerLoadFilter::new(2048, 3);
        assert!(f.allow(0x155));
    }

    #[test]
    fn useless_streak_blocks_then_useful_restores() {
        let mut f = PerLoadFilter::new(2048, 3);
        for _ in 0..8 {
            f.train(0x2a, false);
        }
        assert!(!f.allow(0x2a), "muted after useless streak");
        for _ in 0..8 {
            f.train(0x2a, true);
        }
        assert!(f.allow(0x2a), "restored after useful streak");
    }

    #[test]
    fn training_is_per_load() {
        let mut f = PerLoadFilter::new(2048, 3);
        for _ in 0..8 {
            f.train(0x111, false);
        }
        assert!(!f.allow(0x111));
        assert!(f.allow(0x222), "other loads unaffected");
    }

    #[test]
    fn counters_saturate() {
        let mut f = PerLoadFilter::new(2048, 3);
        for _ in 0..100 {
            f.train(0x7, true);
        }
        assert_eq!(f.confidence(0x7), 21);
        for _ in 0..100 {
            f.train(0x7, false);
        }
        assert_eq!(f.confidence(0x7), 0);
    }

    #[test]
    fn stats_count_decisions() {
        let mut f = PerLoadFilter::new(2048, 3);
        f.allow(1);
        for _ in 0..8 {
            f.train(2, false);
        }
        f.allow(2);
        assert_eq!(f.stats(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        PerLoadFilter::new(100, 3);
    }
}
