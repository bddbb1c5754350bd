//! The Memory History Table (Section IV-B2, Figure 6).

use bfetch_mem::LINE_BYTES;

/// One register-history slot of an MHT entry (Figure 6): the source
/// register used for address generation in the block, its value at the
/// block-entry branch, the learned `Offset` (register variation **plus**
/// static displacement — Equation 1), sibling-load pattern vectors, and the
/// loop stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhtSlot {
    /// Source register index (`RegIdx`, 5 bits).
    pub reg_idx: u8,
    /// Register value observed at the block-entry branch (`RegVal`).
    pub reg_val: u64,
    /// `EA − RegVal` learned at commit (`Offset`).
    pub offset: i64,
    /// Sibling loads off the same register at negative cache-block
    /// displacements (5 bits: −1..−5 blocks).
    pub neg_patt: u8,
    /// Sibling loads at positive displacements (+1..+5 blocks).
    pub pos_patt: u8,
    /// EA stride between consecutive executions of the training load
    /// (`LoopDelta`).
    pub loop_delta: i64,
    /// 10-bit hash of the training load's PC (for per-load filtering).
    pub load_pc_hash: u16,
    /// Last EA seen from the training load (runtime-only, trains
    /// `loop_delta`).
    pub last_ea: u64,
    /// Valid bit.
    pub valid: bool,
}

impl MhtSlot {
    const INVALID: MhtSlot = MhtSlot {
        reg_idx: 0,
        reg_val: 0,
        offset: 0,
        neg_patt: 0,
        pos_patt: 0,
        loop_delta: 0,
        load_pc_hash: 0,
        last_ea: 0,
        valid: false,
    };

    /// Equation 3: the prefetch effective address given the *current*
    /// (ARF) value of the slot's register and the lookahead loop count.
    #[inline]
    pub fn prefetch_address(&self, current_reg_val: u64, loop_cnt: u32) -> u64 {
        current_reg_val
            .wrapping_add(self.offset as u64)
            .wrapping_add((self.loop_delta.wrapping_mul(loop_cnt as i64)) as u64)
    }
}

/// Per-entry header: the tag pair plus allocation state. The slots
/// themselves live in one flat `Vec<MhtSlot>` at stride `slots_per_entry`
/// (entry `i` owns `slots[i*spe .. (i+1)*spe]`), so a probe touches the
/// dense header lane first and only dereferences slot storage on a tag
/// match — no per-entry heap hop.
#[derive(Debug, Clone)]
struct Entry {
    tag: u64, // block-entry branch PC (Fig 6: 32-bit Branch field)
    key: u64,
    alloc_rr: u32,
    /// One bit per valid slot, mirroring the slots' `valid` flags, so a
    /// lookup can reject empty entries without reading slot storage.
    valid_mask: u32,
}

/// The Memory History Table: one entry per basic block (indexed by the
/// [`bb_key`](crate::bb_key()) hash of the block-entry edge), each holding
/// up to three register-history slots.
///
/// Learned entirely from committed instructions; queried read-only by the
/// lookahead.
///
/// # Example
///
/// ```
/// use bfetch_core::MemoryHistoryTable;
/// let mut mht = MemoryHistoryTable::new(128, 3);
/// // at block entry, r5 held 0x1000; the block's load touched 0x1018
/// mht.learn_load(0xbeef, 0x40_0100, 5, 0x1000, 0x1018, 0x42);
/// let slot = mht.lookup(0xbeef, 0x40_0100).unwrap()[0];
/// // next visit the register holds 0x8000: Equation 2 follows it
/// assert_eq!(slot.prefetch_address(0x8000, 0), 0x8018);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHistoryTable {
    entries: Vec<Entry>,
    slots: Vec<MhtSlot>,
    mask: usize,
    slots_per_entry: usize,
    lookups: u64,
    hits: u64,
}

impl MemoryHistoryTable {
    /// Creates an MHT with `entries` entries of `slots_per_entry` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two and `slots_per_entry > 0`.
    pub fn new(entries: usize, slots_per_entry: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(slots_per_entry > 0, "need at least one slot");
        Self {
            entries: vec![
                Entry {
                    tag: 0,
                    key: 0,
                    alloc_rr: 0,
                    valid_mask: 0,
                };
                entries
            ],
            slots: vec![MhtSlot::INVALID; entries * slots_per_entry],
            mask: entries - 1,
            slots_per_entry,
            lookups: 0,
            hits: 0,
        }
    }

    /// Trains the table with a committed load: the load executed inside the
    /// block entered via `key` (whose entry branch is `branch_pc`), used
    /// `reg_idx` as its base register, that register held
    /// `reg_val_at_branch` when the block was entered, and the load
    /// generated effective address `ea`.
    pub fn learn_load(
        &mut self,
        key: u64,
        branch_pc: u64,
        reg_idx: u8,
        reg_val_at_branch: u64,
        ea: u64,
        load_pc_hash: u16,
    ) {
        let idx = (key as usize) & self.mask;
        let slots_per_entry = self.slots_per_entry;
        let e = &mut self.entries[idx];
        let slots = &mut self.slots[idx * slots_per_entry..(idx + 1) * slots_per_entry];
        if e.tag != branch_pc || e.key != key {
            // aliasing or first touch: reallocate the whole entry
            e.tag = branch_pc;
            e.key = key;
            e.alloc_rr = 0;
            e.valid_mask = 0;
            for s in slots.iter_mut() {
                *s = MhtSlot::INVALID;
            }
        }

        // exact owner slot: same register, same training load
        if let Some(pos) = slots
            .iter()
            .position(|s| s.valid && s.reg_idx == reg_idx && s.load_pc_hash == load_pc_hash)
        {
            let s = &mut slots[pos];
            // same load, re-executed: refresh the offset and learn the
            // loop stride from consecutive EAs
            let delta = ea.wrapping_sub(s.last_ea) as i64;
            if delta != 0 {
                s.loop_delta = delta;
            }
            s.offset = ea.wrapping_sub(reg_val_at_branch) as i64;
            s.reg_val = reg_val_at_branch;
            s.last_ea = ea;
            return;
        }

        // a sibling load off an already tracked register: if its line falls
        // within the ±5-block pattern window of that slot, record it there
        // (Listing 2's consecutive-loads case) instead of burning a slot
        if let Some(pos) = slots.iter().position(|s| s.valid && s.reg_idx == reg_idx) {
            let s = &mut slots[pos];
            let own_line = (s.reg_val.wrapping_add(s.offset as u64) / LINE_BYTES) as i64;
            let sib_line = (ea / LINE_BYTES) as i64;
            match sib_line - own_line {
                0 => return, // same line: the owner's prefetch covers it
                d @ 1..=5 => {
                    s.pos_patt |= 1 << (d - 1);
                    return;
                }
                d @ -5..=-1 => {
                    s.neg_patt |= 1 << (-d - 1);
                    return;
                }
                _ => {} // too far: falls through to slot allocation
            }
        }

        // allocate a slot: prefer a free one; when the entry is full, only
        // displace if this register is not already tracked — clobbering an
        // established owner for an out-of-window sibling would churn the
        // entry every iteration and destroy its learned loop deltas
        let pos = match slots.iter().position(|s| !s.valid) {
            Some(free) => free,
            None => {
                if slots.iter().any(|s| s.reg_idx == reg_idx) {
                    return;
                }
                let rr = e.alloc_rr as usize;
                e.alloc_rr = ((rr + 1) % slots_per_entry) as u32;
                rr
            }
        };
        slots[pos] = MhtSlot {
            reg_idx,
            reg_val: reg_val_at_branch,
            offset: ea.wrapping_sub(reg_val_at_branch) as i64,
            neg_patt: 0,
            pos_patt: 0,
            loop_delta: 0,
            load_pc_hash,
            last_ea: ea,
            valid: true,
        };
        e.valid_mask |= 1 << pos;
    }

    /// Looks up the block entered via `key`/`branch_pc`. A hit returns the
    /// entry's whole slot lane — all `slots_per_entry` slots in allocation
    /// order, at least one of them valid — so callers check
    /// [`MhtSlot::valid`] per slot.
    pub fn lookup(&mut self, key: u64, branch_pc: u64) -> Option<&[MhtSlot]> {
        self.lookups += 1;
        let idx = (key as usize) & self.mask;
        let e = &self.entries[idx];
        if e.tag == branch_pc && e.key == key && e.valid_mask != 0 {
            self.hits += 1;
            let spe = self.slots_per_entry;
            Some(&self.slots[idx * spe..(idx + 1) * spe])
        } else {
            None
        }
    }

    /// `(lookups, hits)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }
}

bfetch_snapshot::impl_snap_struct!(MhtSlot {
    reg_idx,
    reg_val,
    offset,
    neg_patt,
    pos_patt,
    loop_delta,
    load_pc_hash,
    last_ea,
    valid
});

bfetch_snapshot::impl_snap_struct!(Entry {
    tag,
    key,
    alloc_rr,
    valid_mask
});

bfetch_snapshot::snap_state!(MemoryHistoryTable {
    entries: slice("mht entries"),
    slots: slice("mht slots"),
    mask: skip,
    slots_per_entry: skip,
    lookups: val,
    hits: val,
});

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u64 = 0xdead_beef_1234;
    const BR: u64 = 0x40_0100;

    #[test]
    fn offset_learning_reconstructs_ea() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        // register r5 held 0x1000 at the branch; the load hit 0x1018
        mht.learn_load(KEY, BR, 5, 0x1000, 0x1018, 0x42);
        let slots = mht.lookup(KEY, BR).expect("entry present");
        let s = slots.iter().find(|s| s.valid).unwrap();
        assert_eq!(s.offset, 0x18);
        // if the register now holds 0x2000, the predicted EA follows it
        assert_eq!(s.prefetch_address(0x2000, 0), 0x2018);
    }

    #[test]
    fn loop_delta_learned_from_consecutive_executions() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(KEY, BR, 2, 0x8000, 0x8010, 0x7);
        mht.learn_load(KEY, BR, 2, 0x8000, 0x8090, 0x7); // +0x80 per iter
        let s = mht.lookup(KEY, BR).unwrap()[0];
        assert_eq!(s.loop_delta, 0x80);
        // Equation 3: two lookahead iterations ahead
        assert_eq!(s.prefetch_address(0x8000, 2), 0x8090 + 0x100);
    }

    #[test]
    fn sibling_loads_set_pattern_bits() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        // two loads off r3 in the same block, 2 blocks apart (cf. Listing 2)
        mht.learn_load(KEY, BR, 3, 0x4000, 0x4018, 0xa);
        mht.learn_load(KEY, BR, 3, 0x4000, 0x4018 + 2 * 64, 0xb);
        let s = mht.lookup(KEY, BR).unwrap()[0];
        assert_eq!(s.pos_patt, 0b10, "sibling at +2 blocks");
        assert_eq!(s.neg_patt, 0);
    }

    #[test]
    fn negative_sibling_displacement() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(KEY, BR, 3, 0x4000, 0x4100, 0xa);
        mht.learn_load(KEY, BR, 3, 0x4000, 0x4100 - 64, 0xb);
        let s = mht.lookup(KEY, BR).unwrap()[0];
        assert_eq!(s.neg_patt, 0b1);
    }

    #[test]
    fn distinct_registers_use_distinct_slots() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(KEY, BR, 1, 0x1000, 0x1000, 1);
        mht.learn_load(KEY, BR, 2, 0x2000, 0x2008, 2);
        mht.learn_load(KEY, BR, 3, 0x3000, 0x3010, 3);
        let slots = mht.lookup(KEY, BR).unwrap();
        let regs: Vec<u8> = slots
            .iter()
            .filter(|s| s.valid)
            .map(|s| s.reg_idx)
            .collect();
        assert_eq!(regs.len(), 3);
        assert!(regs.contains(&1) && regs.contains(&2) && regs.contains(&3));
    }

    #[test]
    fn fourth_register_round_robins() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        for r in 1..=4u8 {
            mht.learn_load(KEY, BR, r, 0x1000 * r as u64, 0x1000 * r as u64, r as u16);
        }
        let slots = mht.lookup(KEY, BR).unwrap();
        assert_eq!(slots.iter().filter(|s| s.valid).count(), 3);
        assert!(slots.iter().any(|s| s.valid && s.reg_idx == 4));
    }

    #[test]
    fn alias_reallocates_entry() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(KEY, BR, 1, 0, 0x40, 1);
        // same index (same key), different branch tag ⇒ realloc
        mht.learn_load(KEY, BR + 8, 2, 0, 0x80, 2);
        assert!(mht.lookup(KEY, BR).is_none());
        let slots = mht.lookup(KEY, BR + 8).unwrap();
        assert_eq!(slots.iter().filter(|s| s.valid).count(), 1);
    }

    #[test]
    fn lookup_miss_on_cold_table() {
        let mut mht = MemoryHistoryTable::new(128, 3);
        assert!(mht.lookup(0x999, 0x40_0000).is_none());
        assert_eq!(mht.stats(), (1, 0));
    }

    #[test]
    fn offset_tracks_register_variation_within_block() {
        // Paper's key insight: Offset = ΔRegisterValue + StaticOffset.
        // The register was 0x1000 at the branch but got bumped by 0xC8
        // before the load (static offset 0x20): EA = 0x10E8.
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(KEY, BR, 9, 0x1000, 0x10E8, 0x3);
        let s = mht.lookup(KEY, BR).unwrap()[0];
        assert_eq!(s.offset, 0xE8);
        // next visit, the branch-time register value is 0x5000
        assert_eq!(s.prefetch_address(0x5000, 0), 0x50E8);
    }
}
