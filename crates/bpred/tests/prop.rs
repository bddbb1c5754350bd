//! Randomized property tests for the prediction substrate, driven by the
//! in-tree deterministic PRNG (`bfetch-prng`). Set `BFETCH_PROP_CASES` for
//! more cases.

use bfetch_bpred::{
    Btb, CompositeConfidence, ConfidenceConfig, HistoryRegister, PathConfidence, TournamentConfig,
    TournamentPredictor,
};
use bfetch_prng::{cases, Pcg32};

/// The predictor converges on any single-branch periodic pattern with
/// period <= 8 (well within the local history length).
#[test]
fn converges_on_short_periodic_patterns() {
    for case in 0..cases(24) as u64 {
        let mut r = Pcg32::new(0xb9_0001 ^ case);
        let plen = r.range(1, 8) as usize;
        let pattern: Vec<bool> = (0..plen).map(|_| r.gen_bool(0.5)).collect();
        let pc = (0x40_0000 + r.gen_range(0x8_0000)) & !3;
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let mut ghr = 0u64;
        // train
        for _ in 0..400 {
            for &t in &pattern {
                bp.update(pc, ghr, t);
                ghr = (ghr << 1) | t as u64;
            }
        }
        // measure
        let mut correct = 0usize;
        let total = pattern.len() * 50;
        for _ in 0..50 {
            for &t in &pattern {
                if bp.predict(pc, ghr).taken == t {
                    correct += 1;
                }
                bp.update(pc, ghr, t);
                ghr = (ghr << 1) | t as u64;
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.9,
            "pattern {pattern:?} predicted {correct}/{total}"
        );
    }
}

/// Training with outcome X makes an immediate re-prediction lean
/// toward X at least as much as before (monotone counter property).
#[test]
fn training_is_monotone() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0xb9_0002 ^ case);
        let pc = r.next_u64();
        let ghr = r.next_u64();
        let taken = r.gen_bool(0.5);
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        for _ in 0..8 {
            bp.update(pc, ghr, taken);
        }
        assert_eq!(bp.predict(pc, ghr).taken, taken);
    }
}

/// Path confidence is the exact product of the extended values.
#[test]
fn path_confidence_is_a_product() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0xb9_0003 ^ case);
        let n = r.range(1, 20) as usize;
        let mut p = PathConfidence::new(0.0);
        let mut expect = 1.0;
        for _ in 0..n {
            let v = 0.01 + 0.99 * r.next_f64();
            p.extend(v);
            expect *= v;
        }
        assert!((p.value() - expect).abs() < 1e-9);
    }
}

/// Confidence estimates are probabilities, whatever the training
/// history.
#[test]
fn estimates_are_probabilities() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0xb9_0004 ^ case);
        let n = r.gen_range(200) as usize;
        let mut c = CompositeConfidence::new(ConfidenceConfig::baseline());
        for _ in 0..n {
            let pc = r.next_u64();
            let ok = r.gen_bool(0.5);
            c.train(pc, pc >> 3, (pc % 4) as u8, ok);
        }
        let q = r.next_u64();
        let e = c.estimate(q, q >> 3, (q % 4) as u8);
        assert!(e > 0.0 && e < 1.0);
    }
}

/// BTB: installed mappings are retrievable until evicted; lookups never
/// return a target that was not installed for that PC.
#[test]
fn btb_returns_only_installed_targets() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0xb9_0005 ^ case);
        let n = r.range(1, 100) as usize;
        let mut btb = Btb::new(64, 4);
        use std::collections::HashMap;
        let mut last: HashMap<u64, u64> = HashMap::new();
        for _ in 0..n {
            let pc = r.gen_range(4096);
            let tgt = r.next_u64();
            btb.install(pc << 2, tgt);
            last.insert(pc << 2, tgt);
        }
        let probe = r.gen_range(4096);
        if let Some(t) = btb.lookup(probe << 2) {
            assert_eq!(Some(&t), last.get(&(probe << 2)));
        }
    }
}

/// History register push/restore round-trips.
#[test]
fn ghr_round_trip() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0xb9_0006 ^ case);
        let bits = r.next_u64();
        let n = r.gen_range(64) as usize;
        let mut h = HistoryRegister::new();
        h.restore(bits);
        let snap = h.bits();
        for _ in 0..n {
            h.push(r.gen_bool(0.5));
        }
        h.restore(snap);
        assert_eq!(h.bits(), bits);
    }
}
