//! The Branch Trace Cache (Section IV-B1, Figure 5).

use crate::bb_key;

/// One BrTC entry: for a basic block entered via `(branch, direction,
/// target)`, the branch that *ends* that block, its taken-target, and
/// whether it is conditional — everything the lookahead needs to hop whole
/// basic blocks per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrTcEntry {
    /// Byte PC of the branch terminating the entered block.
    pub next_branch_pc: u64,
    /// That branch's taken-target byte PC.
    pub next_taken_target: u64,
    /// Whether the terminating branch is conditional (needs a prediction).
    pub next_is_cond: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    entry: BrTcEntry,
    valid: bool,
}

/// The Branch Trace Cache: a direct-mapped table indexed by the
/// [`bb_key`](crate::bb_key()) hash of (branch PC, direction, target).
///
/// Filled dynamically at runtime with **commit-time updates only**
/// (Section IV-B1), so wrong-path execution never corrupts it.
///
/// # Example
///
/// ```
/// use bfetch_core::{BranchTraceCache, BrTcEntry};
/// let mut brtc = BranchTraceCache::new(256);
/// let next = BrTcEntry { next_branch_pc: 0x400140, next_taken_target: 0x400100, next_is_cond: true };
/// brtc.update(0x400100, true, 0x400120, next);
/// assert_eq!(brtc.lookup(0x400100, true, 0x400120), Some(next));
/// ```
#[derive(Debug, Clone)]
pub struct BranchTraceCache {
    slots: Vec<Slot>,
    mask: usize,
    lookups: u64,
    hits: u64,
}

impl BranchTraceCache {
    /// Creates a BrTC with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            slots: vec![
                Slot {
                    tag: 0,
                    entry: BrTcEntry {
                        next_branch_pc: 0,
                        next_taken_target: 0,
                        next_is_cond: false,
                    },
                    valid: false,
                };
                entries
            ],
            mask: entries - 1,
            lookups: 0,
            hits: 0,
        }
    }

    /// Records, at commit, that the block entered via `(branch_pc, taken,
    /// target)` is terminated by `next` — chaining the dynamic control-flow
    /// sequence.
    pub fn update(&mut self, branch_pc: u64, taken: bool, target: u64, next: BrTcEntry) {
        let key = bb_key(branch_pc, taken, target);
        let idx = (key as usize) & self.mask;
        self.slots[idx] = Slot {
            tag: key,
            entry: next,
            valid: true,
        };
    }

    /// Looks up the branch terminating the block entered via the given
    /// edge. Read-only with respect to contents (statistics aside).
    pub fn lookup(&mut self, branch_pc: u64, taken: bool, target: u64) -> Option<BrTcEntry> {
        self.lookups += 1;
        let key = bb_key(branch_pc, taken, target);
        let s = &self.slots[(key as usize) & self.mask];
        if s.valid && s.tag == key {
            self.hits += 1;
            Some(s.entry)
        } else {
            None
        }
    }

    /// `(lookups, hits)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }
}

bfetch_snapshot::impl_snap_struct!(BrTcEntry {
    next_branch_pc,
    next_taken_target,
    next_is_cond
});

bfetch_snapshot::impl_snap_struct!(Slot { tag, entry, valid });

bfetch_snapshot::snap_state!(BranchTraceCache {
    slots: slice("brtc slots"),
    mask: skip,
    lookups: val,
    hits: val,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_lookup() {
        let mut b = BranchTraceCache::new(256);
        let e = BrTcEntry {
            next_branch_pc: 0x400140,
            next_taken_target: 0x400100,
            next_is_cond: true,
        };
        b.update(0x400100, true, 0x400120, e);
        assert_eq!(b.lookup(0x400100, true, 0x400120), Some(e));
        assert_eq!(b.lookup(0x400100, false, 0x400104), None);
        assert_eq!(b.stats(), (2, 1));
    }

    #[test]
    fn taken_and_not_taken_edges_are_distinct() {
        let mut b = BranchTraceCache::new(256);
        let taken_succ = BrTcEntry {
            next_branch_pc: 0x400200,
            next_taken_target: 0x400000,
            next_is_cond: true,
        };
        let nt_succ = BrTcEntry {
            next_branch_pc: 0x400300,
            next_taken_target: 0x400000,
            next_is_cond: false,
        };
        b.update(0x400100, true, 0x400180, taken_succ);
        b.update(0x400100, false, 0x400104, nt_succ);
        assert_eq!(b.lookup(0x400100, true, 0x400180), Some(taken_succ));
        assert_eq!(b.lookup(0x400100, false, 0x400104), Some(nt_succ));
    }

    #[test]
    fn conflicting_keys_evict() {
        let mut b = BranchTraceCache::new(1); // everything conflicts
        let e1 = BrTcEntry {
            next_branch_pc: 1,
            next_taken_target: 2,
            next_is_cond: false,
        };
        let e2 = BrTcEntry {
            next_branch_pc: 3,
            next_taken_target: 4,
            next_is_cond: true,
        };
        b.update(0x100, true, 0x200, e1);
        b.update(0x300, false, 0x304, e2);
        assert_eq!(b.lookup(0x100, true, 0x200), None, "evicted");
        assert_eq!(b.lookup(0x300, false, 0x304), Some(e2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        BranchTraceCache::new(100);
    }
}
