//! Miss status holding registers.

use crate::hierarchy::HitLevel;
use crate::NO_LINE;

/// Result of consulting the MSHR file for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line is already in flight; the new request merges and completes
    /// at the recorded fill time.
    Merged {
        /// Cycle the outstanding fill completes.
        complete_at: u64,
        /// The in-flight request was a prefetch (a *late* prefetch from the
        /// demand's perspective).
        was_prefetch: bool,
        /// Load-PC hash carried by the in-flight prefetch.
        pc_hash: u16,
        /// Hierarchy level servicing the outstanding fill (miss-level
        /// provenance for cycle accounting).
        level: HitLevel,
    },
    /// A new entry was allocated; the miss may proceed starting at
    /// `start_at` (delayed past `now` when the file was full).
    Allocated {
        /// Earliest cycle the miss may be issued downstream.
        start_at: u64,
    },
}

/// One register of the file. `valid` gates the slot: real hardware keeps a
/// fixed bank of registers and a free bit per entry. Lookups do not touch
/// these records at all — the line keys live in the separate flat
/// [`MshrFile::lines`] array so a probe is one contiguous `u64` scan; the
/// `line`/`valid` fields here are the payload-side mirror used by victim
/// selection and the expiry sweep.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    complete_at: u64,
    pc_hash: u16,
    is_prefetch: bool,
    valid: bool,
    level: HitLevel,
}

const FREE: Slot = Slot {
    line: 0,
    complete_at: 0,
    pc_hash: 0,
    is_prefetch: false,
    valid: false,
    level: HitLevel::Dram,
};

/// A bounded file of outstanding line misses.
///
/// Secondary misses to an in-flight line merge with the primary. When all
/// entries are busy, new misses are delayed until the earliest outstanding
/// fill returns — modelling the structural stall a full MSHR file causes.
///
/// The file is a fixed-capacity array sized at construction; MSHR files
/// are small (4–32 entries), so a probe is a plain first-match scan over a
/// flat key array that stays within one to four cache lines and never
/// allocates. Free slots hold [`NO_LINE`] in the key array — line
/// addresses are 64 B aligned, so the sentinel can never collide with a
/// live key and validity needs no second array. Victim
/// selection on an overfull insert is by `(complete_at, line)`, which is
/// deterministic by construction — no iteration-order tie-break needed.
///
/// # Example
///
/// ```
/// use bfetch_mem::{HitLevel, MshrFile, MshrOutcome};
/// let mut mshr = MshrFile::new(4);
/// assert!(matches!(mshr.request(0x40, 10), MshrOutcome::Allocated { start_at: 10 }));
/// mshr.fill_scheduled(0x40, 242, false, 0, HitLevel::Dram);
/// assert!(matches!(mshr.request(0x40, 50), MshrOutcome::Merged { complete_at: 242, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    slots: Box<[Slot]>,
    /// Probe keys, parallel to `slots`: `lines[i] == slots[i].line` when
    /// `slots[i].valid`, [`NO_LINE`] otherwise. The only array a lookup
    /// reads.
    lines: Box<[u64]>,
    live: usize,
    /// Earliest `complete_at` among valid slots (`u64::MAX` when empty):
    /// lets [`MshrFile::expire`] skip the slot sweep entirely on the hot
    /// path, where most calls have nothing to retire.
    earliest: u64,
    merges: u64,
    full_stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        Self {
            slots: vec![FREE; capacity].into_boxed_slice(),
            lines: vec![NO_LINE; capacity].into_boxed_slice(),
            live: 0,
            earliest: u64::MAX,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// The slot whose key is `line` — a free slot when `line` is
    /// [`NO_LINE`].
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Drops entries whose fills have completed by `now`.
    pub fn expire(&mut self, now: u64) {
        if self.earliest > now {
            return; // nothing can have completed yet
        }
        let mut earliest = u64::MAX;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.valid {
                if s.complete_at <= now {
                    s.valid = false;
                    self.lines[i] = NO_LINE;
                    self.live -= 1;
                } else {
                    earliest = earliest.min(s.complete_at);
                }
            }
        }
        self.earliest = earliest;
    }

    /// Looks up `line`; merges with an in-flight request or reserves a new
    /// entry. After an `Allocated` outcome the caller must follow up with
    /// [`MshrFile::fill_scheduled`] to record the completion time.
    pub fn request(&mut self, line: u64, now: u64) -> MshrOutcome {
        if let Some(i) = self.find(line) {
            let s = self.slots[i];
            self.merges += 1;
            return MshrOutcome::Merged {
                complete_at: s.complete_at,
                was_prefetch: s.is_prefetch,
                pc_hash: s.pc_hash,
                level: s.level,
            };
        }
        let start_at = if self.live >= self.slots.len() {
            self.full_stalls += 1;
            self.slots
                .iter()
                .filter(|s| s.valid)
                .map(|s| s.complete_at)
                .min()
                .unwrap_or(now)
                .max(now)
        } else {
            now
        };
        MshrOutcome::Allocated { start_at }
    }

    /// Records that the miss for `line` will fill at `complete_at`,
    /// serviced by hierarchy `level`.
    ///
    /// If the file is full, the displaced entry is the one that completes
    /// earliest (it is guaranteed to have drained by `start_at`), with the
    /// line address as the deterministic tie-break.
    pub fn fill_scheduled(
        &mut self,
        line: u64,
        complete_at: u64,
        is_prefetch: bool,
        pc_hash: u16,
        level: HitLevel,
    ) {
        debug_assert_ne!(line, NO_LINE, "64 B-aligned lines never hit the sentinel");
        if self.live >= self.slots.len() {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.valid)
                .min_by_key(|(_, s)| (s.complete_at, s.line))
                .map(|(i, _)| i)
                .expect("full file has a victim");
            self.slots[victim].valid = false;
            self.lines[victim] = NO_LINE;
            self.live -= 1;
        }
        let entry = Slot {
            line,
            complete_at,
            pc_hash,
            is_prefetch,
            valid: true,
            level,
        };
        // `earliest` is a lower bound on the live minimum: eviction above
        // may leave it stale-low (harmless — the expire guard just fires a
        // no-op sweep), but it must never be stale-high
        self.earliest = self.earliest.min(complete_at);
        match self.find(line) {
            Some(i) => self.slots[i] = entry,
            None => {
                let i = self.find(NO_LINE).expect("eviction freed a slot");
                self.slots[i] = entry;
                self.lines[i] = line;
                self.live += 1;
            }
        }
    }

    /// Marks the in-flight request for `line` as demanded (no longer purely
    /// a prefetch), so later merges see it as demand traffic.
    pub fn promote_to_demand(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            self.slots[i].is_prefetch = false;
        }
    }

    /// Whether a request for `line` is currently outstanding.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// The outstanding entry for `line`, if any:
    /// `(complete_at, is_prefetch, pc_hash, level)`.
    pub fn lookup(&self, line: u64) -> Option<(u64, bool, u16, HitLevel)> {
        self.find(line).map(|i| {
            let s = self.slots[i];
            (s.complete_at, s.is_prefetch, s.pc_hash, s.level)
        })
    }

    /// Lower bound on the earliest outstanding `complete_at` (`u64::MAX`
    /// when the file is empty). May be stale-low after an eviction, never
    /// stale-high — callers can use it to skip [`MshrFile::expire`] sweeps.
    pub fn earliest(&self) -> u64 {
        self.earliest
    }

    /// Free entries remaining.
    pub fn free(&self) -> usize {
        self.slots.len() - self.live
    }

    /// Outstanding entry count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `(merges, full_stalls)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.merges, self.full_stalls)
    }
}

bfetch_snapshot::impl_snap_struct!(Slot {
    line,
    complete_at,
    pc_hash,
    is_prefetch,
    valid,
    level
});

// The probe-key array and the live count are functions of the slots and
// are rebuilt from them.
bfetch_snapshot::snap_state!(MshrFile {
    slots: slice("mshr slots"),
    lines: skip,
    live: skip,
    earliest: val,
    merges: val,
    full_stalls: val,
} check |m| {
    if m.slots.iter().any(|s| s.valid && s.line == NO_LINE) {
        return Err(bfetch_snapshot::SnapshotError::Invalid {
            what: "mshr line collides with sentinel",
        });
    }
    for (key, s) in m.lines.iter_mut().zip(m.slots.iter()) {
        *key = if s.valid { s.line } else { NO_LINE };
    }
    m.live = m.slots.iter().filter(|s| s.valid).count();
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        match m.request(0x40, 10) {
            MshrOutcome::Allocated { start_at } => assert_eq!(start_at, 10),
            other => panic!("expected allocation, got {other:?}"),
        }
        m.fill_scheduled(0x40, 210, false, 0, HitLevel::Dram);
        match m.request(0x40, 50) {
            MshrOutcome::Merged {
                complete_at,
                was_prefetch,
                ..
            } => {
                assert_eq!(complete_at, 210);
                assert!(!was_prefetch);
            }
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(m.stats().0, 1);
    }

    #[test]
    fn expire_clears_finished() {
        let mut m = MshrFile::new(2);
        m.fill_scheduled(0x0, 100, false, 0, HitLevel::Dram);
        m.fill_scheduled(0x40, 200, false, 0, HitLevel::Dram);
        m.expire(150);
        assert!(!m.contains(0x0));
        assert!(m.contains(0x40));
    }

    #[test]
    fn full_file_delays_start() {
        let mut m = MshrFile::new(2);
        m.fill_scheduled(0x0, 100, false, 0, HitLevel::Dram);
        m.fill_scheduled(0x40, 120, false, 0, HitLevel::Dram);
        match m.request(0x80, 10) {
            MshrOutcome::Allocated { start_at } => assert_eq!(start_at, 100),
            other => panic!("expected delayed allocation, got {other:?}"),
        }
        assert_eq!(m.stats().1, 1);
    }

    #[test]
    fn prefetch_merge_reports_late_prefetch() {
        let mut m = MshrFile::new(4);
        m.fill_scheduled(0x40, 300, true, 0x155, HitLevel::L3);
        match m.request(0x40, 100) {
            MshrOutcome::Merged {
                was_prefetch,
                pc_hash,
                ..
            } => {
                assert!(was_prefetch);
                assert_eq!(pc_hash, 0x155);
            }
            other => panic!("expected merge, got {other:?}"),
        }
        m.promote_to_demand(0x40);
        match m.request(0x40, 101) {
            MshrOutcome::Merged { was_prefetch, .. } => assert!(!was_prefetch),
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn overfull_insert_displaces_earliest() {
        let mut m = MshrFile::new(1);
        m.fill_scheduled(0x0, 100, false, 0, HitLevel::Dram);
        m.fill_scheduled(0x40, 200, false, 0, HitLevel::Dram);
        assert_eq!(m.len(), 1);
        assert!(m.contains(0x40));
    }

    #[test]
    fn overfull_insert_ties_break_on_line_address() {
        // two entries with the same completion time: the lower line
        // address is displaced, whatever order the slots were filled in
        let mut m = MshrFile::new(2);
        m.fill_scheduled(0x80, 100, false, 0, HitLevel::Dram);
        m.fill_scheduled(0x40, 100, false, 0, HitLevel::Dram);
        m.fill_scheduled(0xc0, 200, false, 0, HitLevel::Dram);
        assert!(!m.contains(0x40));
        assert!(m.contains(0x80));
        assert!(m.contains(0xc0));
    }

    #[test]
    fn slots_are_reused_after_expiry() {
        let mut m = MshrFile::new(2);
        for round in 0..100u64 {
            let t = round * 10;
            m.fill_scheduled(round * 0x40, t + 5, false, 0, HitLevel::Dram);
            assert!(m.len() <= 2);
            m.expire(t + 9);
        }
        assert!(m.is_empty());
        assert_eq!(m.free(), 2);
    }

    #[test]
    fn merge_and_lookup_report_service_level() {
        let mut m = MshrFile::new(4);
        m.fill_scheduled(0x40, 300, true, 0x155, HitLevel::L3);
        match m.request(0x40, 100) {
            MshrOutcome::Merged { level, .. } => assert_eq!(level, HitLevel::L3),
            other => panic!("expected merge, got {other:?}"),
        }
        // promotion flips the prefetch bit but keeps the provenance
        m.promote_to_demand(0x40);
        assert_eq!(m.lookup(0x40), Some((300, false, 0x155, HitLevel::L3)));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        MshrFile::new(0);
    }
}
