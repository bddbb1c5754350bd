//! Issue-port bandwidth scheduling.

/// A ring buffer tracking how many operations are scheduled in each future
/// cycle, enforcing a per-cycle issue width.
///
/// The timing core computes instruction issue times analytically at
/// dispatch; this structure serializes them through a bounded number of
/// issue (or memory) ports without a per-cycle scan of the whole window.
#[derive(Debug, Clone)]
pub struct PortRing {
    counts: Vec<u8>,
    width: u8,
    horizon: u64,
}

impl PortRing {
    /// Creates a ring with `width` ports and a scheduling horizon of
    /// `horizon` cycles (must exceed the longest possible stall).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or does not fit the per-cycle `u8`
    /// counters, or if `horizon` is not a power of two.
    pub fn new(width: usize, horizon: u64) -> Self {
        assert!(width > 0, "width must be nonzero");
        assert!(
            width <= u8::MAX as usize,
            "width must fit the u8 slot counters"
        );
        assert!(horizon.is_power_of_two(), "horizon must be a power of two");
        Self {
            counts: vec![0; horizon as usize],
            width: width as u8,
            horizon,
        }
    }

    #[inline]
    fn slot(&self, cycle: u64) -> usize {
        (cycle & (self.horizon - 1)) as usize
    }

    /// Reserves a port at the first cycle `>= earliest` with free capacity
    /// and returns that cycle.
    ///
    /// The caller must guarantee that reservations never look further back
    /// than `horizon` cycles behind the most recent reservation (true in
    /// the simulator: all times are near the global clock). Slots are
    /// cleared lazily by [`PortRing::release_before`].
    pub fn reserve(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        loop {
            let s = self.slot(t);
            if self.counts[s] < self.width {
                self.counts[s] += 1;
                return t;
            }
            t += 1;
            debug_assert!(
                t - earliest < self.horizon,
                "port search exceeded scheduling horizon"
            );
        }
    }

    /// Clears all slots strictly before `cycle` (call as the clock
    /// advances; `span` bounds how far back to sweep): the slots of cycles
    /// `cycle - span..cycle`, at most two contiguous runs of the ring.
    pub fn release_before(&mut self, cycle: u64, span: u64) {
        let n = span.min(cycle);
        if n >= self.horizon {
            self.counts.fill(0);
            return;
        }
        let (lo, hi) = (self.slot(cycle - n), self.slot(cycle));
        if lo <= hi {
            self.counts[lo..hi].fill(0);
        } else {
            self.counts[lo..].fill(0);
            self.counts[..hi].fill(0);
        }
    }
}

bfetch_snapshot::snap_state!(PortRing {
    counts: slice("port ring counts"),
    width: skip,
    horizon: skip,
} check |p| {
    if p.counts.iter().any(|&c| c > p.width) {
        return Err(bfetch_snapshot::SnapshotError::Invalid {
            what: "port ring count exceeds width",
        });
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_width_then_spills() {
        let mut p = PortRing::new(2, 1024);
        assert_eq!(p.reserve(10), 10);
        assert_eq!(p.reserve(10), 10);
        assert_eq!(p.reserve(10), 11);
        assert_eq!(p.reserve(10), 11);
        assert_eq!(p.reserve(10), 12);
    }

    #[test]
    fn later_earliest_skips_ahead() {
        let mut p = PortRing::new(1, 1024);
        assert_eq!(p.reserve(5), 5);
        assert_eq!(p.reserve(3), 3, "earlier slot still free");
        assert_eq!(p.reserve(3), 4);
        assert_eq!(p.reserve(3), 6, "5 already full");
    }

    #[test]
    fn release_frees_old_slots() {
        let mut p = PortRing::new(1, 8);
        for _ in 0..8 {
            p.reserve(0);
        }
        p.release_before(8, 8);
        assert_eq!(p.reserve(8), 8);
    }

    /// The sweep clears exactly the slots a cycle-by-cycle clear does:
    /// none, a run, a run that wraps the ring, or all of it.
    #[test]
    fn release_clears_what_a_cycle_by_cycle_sweep_clears() {
        for cycle in 0..40 {
            for span in 0..20 {
                let mut p = PortRing::new(3, 16);
                for (i, c) in p.counts.iter_mut().enumerate() {
                    *c = 1 + i as u8 % 3;
                }
                let mut want = p.counts.clone();
                for t in cycle - span.min(cycle)..cycle {
                    want[(t % 16) as usize] = 0;
                }
                p.release_before(cycle, span);
                assert_eq!(p.counts, want, "cycle {cycle}, span {span}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_horizon_rejected() {
        PortRing::new(1, 100);
    }
}
