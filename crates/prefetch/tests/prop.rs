//! Randomized property tests for the demand-driven prefetchers, driven by
//! the in-tree deterministic PRNG (`bfetch-prng`). Set `BFETCH_PROP_CASES`
//! for more cases.

use bfetch_prefetch::{AccessEvent, Isb, NextN, Prefetcher, Sms, Stride};
use bfetch_prng::{cases, Pcg32};

fn ev(pc: u64, addr: u64) -> AccessEvent {
    AccessEvent {
        pc,
        addr,
        hit: false,
        is_load: true,
    }
}

/// No prefetcher ever emits a request for the line being demanded
/// (that fetch is already in flight).
#[test]
fn never_prefetch_the_demand_line() {
    for case in 0..cases(24) as u64 {
        let mut r = Pcg32::new(0x9f_0001 ^ case);
        let n = r.range(1, 200) as usize;
        let mut out = Vec::new();
        let mut stride = Stride::degree8();
        let mut sms = Sms::baseline();
        let mut nextn = NextN::new(4);
        for _ in 0..n {
            let pcid = r.gen_range(64);
            let addr = r.gen_range(0x100_0000);
            let e = ev(0x40_0000 + pcid * 4, addr);
            for pf in [&mut stride as &mut dyn Prefetcher, &mut sms, &mut nextn] {
                out.clear();
                pf.on_access(&e, &mut out);
                for req in &out {
                    assert_ne!(
                        req.addr & !63,
                        addr & !63,
                        "{} prefetched the demand line",
                        pf.name()
                    );
                }
            }
        }
    }
}

/// A steady stride stream is covered: after warmup, every future line
/// within the degree window has been requested before it is demanded.
#[test]
fn stride_covers_its_window() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x9f_0002 ^ case);
        let stride_bytes = r.range(64, 512) & !7; // aligned
        if stride_bytes < 64 {
            continue;
        }
        let start = r.gen_range(0x10_0000);
        let mut pf = Stride::degree8();
        let mut out = Vec::new();
        let mut requested = std::collections::HashSet::new();
        let mut misses_after_warmup = 0;
        for i in 0..64u64 {
            let addr = start + i * stride_bytes;
            if i > 8 && !requested.contains(&(addr & !63)) {
                misses_after_warmup += 1;
            }
            out.clear();
            pf.on_access(&ev(0x400100, addr), &mut out);
            for req in &out {
                requested.insert(req.addr & !63);
            }
        }
        assert_eq!(misses_after_warmup, 0, "uncovered stride accesses");
    }
}

/// SMS pattern replay never escapes the trigger's spatial region.
#[test]
fn sms_stays_in_region() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x9f_0003 ^ case);
        let n = r.range(2, 12) as usize;
        let offsets: Vec<u64> = (0..n).map(|_| r.gen_range(2048)).collect();
        let region = r.range(1, 512);
        let mut sms = Sms::baseline();
        let mut out = Vec::new();
        let base = region * 2048;
        for off in &offsets {
            sms.on_access(&ev(0x400200, base + off), &mut out);
        }
        sms.flush();
        out.clear();
        // trigger a new region with the same first offset
        let new_base = (region + 1000) * 2048;
        sms.on_access(&ev(0x400200, new_base + offsets[0]), &mut out);
        for req in &out {
            assert!(
                req.addr >= new_base && req.addr < new_base + 2048,
                "SMS prefetch {:#x} escaped region {:#x}",
                req.addr,
                new_base
            );
        }
    }
}

/// ISB replays an arbitrary repeated sequence: on the second traversal,
/// each access predicts at least its immediate successor.
#[test]
fn isb_replays_any_repeated_sequence() {
    let mut ran = 0usize;
    let mut case = 0u64;
    while ran < cases(24) {
        let mut r = Pcg32::new(0x9f_0004 ^ case);
        case += 1;
        let n = r.range(3, 20) as usize;
        // distinct lines only
        let mut seq: Vec<u64> = Vec::new();
        for _ in 0..n {
            let a = r.gen_range(0x4000) * 64;
            if !seq.contains(&a) {
                seq.push(a);
            }
        }
        if seq.len() < 3 {
            continue;
        }
        ran += 1;
        let mut isb = Isb::baseline();
        let mut out = Vec::new();
        for &a in &seq {
            isb.on_access(&ev(0x400300, a), &mut out);
        }
        // second pass: check successor coverage
        let mut covered = 0;
        for (i, &a) in seq.iter().enumerate().take(seq.len() - 1) {
            out.clear();
            isb.on_access(&ev(0x400300, a), &mut out);
            if out.iter().any(|req| req.addr == seq[i + 1]) {
                covered += 1;
            }
        }
        assert!(
            covered * 10 >= (seq.len() - 1) * 8,
            "ISB covered only {covered}/{} successors",
            seq.len() - 1
        );
    }
}

/// Storage accounting is stable (pure function of configuration).
#[test]
fn storage_is_config_pure() {
    for case in 0..cases(24) as u64 {
        let mut r = Pcg32::new(0x9f_0005 ^ case);
        let n = r.gen_range(1000);
        let mut s = Stride::degree8();
        let before = s.storage_bits();
        let mut out = Vec::new();
        for i in 0..n {
            s.on_access(&ev(i * 4, i * 128), &mut out);
        }
        assert_eq!(s.storage_bits(), before);
    }
}
