//! Randomized property tests for the B-Fetch engine structures, driven by
//! the in-tree deterministic PRNG (`bfetch-prng`). Set `BFETCH_PROP_CASES`
//! for more cases.

use bfetch_core::{
    bb_key, BFetchConfig, BrTcEntry, BranchTraceCache, MemoryHistoryTable, PerLoadFilter,
};
use bfetch_prng::{cases, Pcg32};

/// MHT offset learning reconstructs the training EA exactly when the
/// register value is unchanged (Equation 1/2 identity).
#[test]
fn mht_reconstructs_training_ea() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0xc0e_0001 ^ case);
        let key = r.next_u64();
        let branch_pc = (0x40_0000 + r.gen_range(0x10_0000)) & !3;
        let reg = r.range(1, 32) as u8;
        let reg_val = r.next_u64();
        let ea = r.next_u64();
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(key, branch_pc, reg, reg_val, ea, 0x55);
        let slots = mht.lookup(key, branch_pc).expect("just trained");
        let s = slots
            .iter()
            .find(|s| s.valid && s.reg_idx == reg)
            .expect("slot");
        assert_eq!(s.prefetch_address(reg_val, 0), ea);
    }
}

/// The prediction tracks register motion: if the register moves by
/// delta, the prefetch address moves by exactly delta.
#[test]
fn mht_prediction_follows_register() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0xc0e_0002 ^ case);
        let reg_val = r.next_u64();
        let ea = r.next_u64();
        let delta = r.next_u64();
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(7, 0x40_0000, 3, reg_val, ea, 1);
        let s = mht.lookup(7, 0x40_0000).unwrap()[0];
        assert_eq!(
            s.prefetch_address(reg_val.wrapping_add(delta), 0),
            ea.wrapping_add(delta)
        );
    }
}

/// Loop extrapolation is linear in the loop count.
#[test]
fn mht_loop_delta_linear() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0xc0e_0003 ^ case);
        let base = r.next_u64();
        let stride = r.range_i64(1, 1_000_000);
        let k = r.gen_range(31) as u32;
        let mut mht = MemoryHistoryTable::new(128, 3);
        mht.learn_load(9, 0x40_0100, 2, base, base, 4);
        mht.learn_load(9, 0x40_0100, 2, base, base.wrapping_add(stride as u64), 4);
        let s = mht.lookup(9, 0x40_0100).unwrap()[0];
        let predicted = s.prefetch_address(base, k);
        let expect = base
            .wrapping_add(stride as u64)
            .wrapping_add((stride.wrapping_mul(k as i64)) as u64);
        assert_eq!(predicted, expect);
    }
}

/// The BrTC returns exactly what was last stored for an edge (or
/// nothing), never a different edge's data under the same key.
#[test]
fn brtc_no_false_hits() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0xc0e_0004 ^ case);
        let n = r.range(1, 64) as usize;
        let edges: Vec<(u64, bool, u64)> = (0..n)
            .map(|_| {
                (
                    (0x40_0000 + r.gen_range(0x4000)) & !3,
                    r.gen_bool(0.5),
                    r.next_u64(),
                )
            })
            .collect();
        let mut brtc = BranchTraceCache::new(64);
        use std::collections::HashMap;
        let mut truth = HashMap::new();
        for (i, (pc, taken, target)) in edges.iter().enumerate() {
            let e = BrTcEntry {
                next_branch_pc: i as u64 * 4 + 0x50_0000,
                next_taken_target: *target,
                next_is_cond: *taken,
            };
            brtc.update(*pc, *taken, *target, e);
            truth.insert((*pc, *taken, *target), e);
        }
        for ((pc, taken, target), e) in truth {
            if let Some(found) = brtc.lookup(pc, taken, target) {
                assert_eq!(found, e, "stale or aliased BrTC entry");
            }
        }
    }
}

/// bb_key: the same edge always hashes identically, and flipping the
/// direction changes the key.
#[test]
fn bb_key_properties() {
    for case in 0..cases(128) as u64 {
        let mut r = Pcg32::new(0xc0e_0005 ^ case);
        let pc = r.next_u64();
        let target = r.next_u64();
        assert_eq!(bb_key(pc, true, target), bb_key(pc, true, target));
        assert_ne!(bb_key(pc, true, target), bb_key(pc, false, target));
    }
}

/// The filter's confidence is always the sum of three 3-bit counters
/// and the train/allow cycle never panics or over/underflows.
#[test]
fn filter_counters_bounded() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0xc0e_0006 ^ case);
        let n = r.gen_range(500) as usize;
        let mut f = PerLoadFilter::new(2048, 3);
        for _ in 0..n {
            let h = r.next_u32() as u16;
            let useful = r.gen_bool(0.5);
            f.train(h & 0x3ff, useful);
            let c = f.confidence(h & 0x3ff);
            assert!(c <= 21);
            let _ = f.allow(h & 0x3ff);
        }
    }
}

/// Storage accounting scales monotonically with table entries.
#[test]
fn storage_monotone() {
    for shift in 4u32..10 {
        let small = BFetchConfig::baseline()
            .with_table_entries(1 << shift)
            .storage_report()
            .total_kb();
        let big = BFetchConfig::baseline()
            .with_table_entries(1 << (shift + 1))
            .storage_report()
            .total_kb();
        assert!(big > small);
    }
}
