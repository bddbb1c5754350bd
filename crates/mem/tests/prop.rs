//! Randomized property tests for the memory substrate, driven by the
//! in-tree deterministic PRNG (`bfetch-prng`). Set `BFETCH_PROP_CASES` for
//! more cases.

use bfetch_mem::probe::{find_line, find_line_scalar, find_way, find_way_scalar, INVALID_RANK};
use bfetch_mem::{
    AccessKind, CacheConfig, HierarchyConfig, HitLevel, LineMeta, MemorySystem, MshrFile,
    SetAssocCache,
};
use bfetch_prng::{cases, Pcg32};

/// An inserted line is resident until at least `ways` other lines of
/// the same set displace it (LRU guarantee).
#[test]
fn recently_inserted_line_is_resident() {
    for case in 0..cases(128) as u64 {
        let mut r = Pcg32::new(0x3e3_0001 ^ case);
        let addr = r.gen_range(0x100_0000);
        let mut c = SetAssocCache::new(CacheConfig::new(8 * 1024, 4, 1));
        c.insert(addr, LineMeta::default());
        assert!(c.probe(addr));
    }
}

/// Whatever sequence of inserts happens, occupancy never exceeds the
/// cache's line capacity.
#[test]
fn occupancy_bounded() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x3e3_0002 ^ case);
        let n = r.range(1, 300) as usize;
        let cfg = CacheConfig::new(4 * 1024, 2, 1); // 64 lines
        let mut c = SetAssocCache::new(cfg);
        for _ in 0..n {
            c.insert(r.gen_range(0x40_0000), LineMeta::default());
        }
        assert!(c.valid_lines() <= 64);
    }
}

/// A hit follows every insert; a second access to the same line is
/// always a hit until that set overflows.
#[test]
fn insert_then_access_hits() {
    for case in 0..cases(128) as u64 {
        let mut r = Pcg32::new(0x3e3_0003 ^ case);
        let addr = r.gen_range(0x100_0000);
        let mut c = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 2));
        assert!(c.access(addr).is_none());
        c.insert(addr, LineMeta::default());
        assert!(c.access(addr).is_some());
    }
}

/// Hierarchy access times are causal: completion is strictly after the
/// request, and a repeat access completes no later than a cold one.
#[test]
fn hierarchy_latency_causal() {
    for case in 0..cases(64) as u64 {
        let mut r = Pcg32::new(0x3e3_0004 ^ case);
        let addr = r.gen_range(0x1000_0000);
        let gap = r.range(1, 1000);
        let mut m = MemorySystem::new(HierarchyConfig::baseline(1));
        let first = m.access(0, AccessKind::Load, addr, 0);
        assert!(first.complete_at > 0);
        let t2 = first.complete_at + gap;
        let second = m.access(0, AccessKind::Load, addr, t2);
        assert!(second.complete_at >= t2);
        assert!(
            second.complete_at - t2 <= first.complete_at,
            "repeat access not slower than cold"
        );
    }
}

/// Demand accesses never lose data availability ordering: completion
/// times of a sequence of accesses at increasing timestamps are each
/// >= their own request time.
#[test]
fn monotone_request_stream() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x3e3_0005 ^ case);
        let n = r.range(1, 60) as usize;
        let mut m = MemorySystem::new(HierarchyConfig::baseline(1));
        let mut now = 0;
        for _ in 0..n {
            let a = r.gen_range(0x100_0000);
            let out = m.access(0, AccessKind::Load, a, now);
            assert!(out.complete_at >= now);
            now += 3;
        }
    }
}

/// The chunked probe (`find_way`) agrees with the scalar reference on
/// every step of an arbitrary insert / invalidate / promote churn over a
/// set's tag and rank lanes. First-match order matters — the result feeds
/// the LRU promote — so the assertion is on the index, not mere presence.
#[test]
fn probe_paths_agree_under_churn() {
    for case in 0..cases(96) as u64 {
        let mut r = Pcg32::new(0x3e3_0007 ^ case);
        let ways = r.range(1, 25) as usize; // through chunked + tail lengths
        let mut tags = vec![0u64; ways];
        let mut ranks = vec![INVALID_RANK; ways];
        for _ in 0..64 {
            let way = r.gen_range(ways as u64) as usize;
            match r.gen_range(4) {
                // insert: fresh tag, MRU rank (duplicates across ways allowed:
                // shadowed stale tags must not confuse first-match)
                0 => {
                    tags[way] = r.gen_range(64);
                    ranks[way] = 0;
                }
                // invalidate: rank lane goes to the sentinel, tag goes stale
                1 => ranks[way] = INVALID_RANK,
                // promote: re-age the valid lanes, promoted way to MRU
                2 => {
                    for rank in ranks.iter_mut().filter(|r| **r != INVALID_RANK) {
                        *rank = rank.saturating_add(1);
                    }
                    if ranks[way] != INVALID_RANK {
                        ranks[way] = 0;
                    }
                }
                // tag rewrite without validity change (fill reuse)
                _ => tags[way] = r.gen_range(64),
            }
            let key = r.gen_range(64);
            let want = find_way_scalar(&tags, &ranks, key);
            assert_eq!(find_way(&tags, &ranks, key), want, "chunked probe diverged");
            // the rank-free line probe (MSHR / engine-dedup path) must agree
            // on the same lane data, first match included
            assert_eq!(
                find_line(&tags, key),
                find_line_scalar(&tags, key),
                "line probe diverged"
            );
        }
    }
}

/// The MSHR's flat line mirror stays consistent with its slots across
/// arbitrary allocate / fill / expire churn: `lookup` (which probes the
/// mirror through the chunked `find_line` path) reports exactly the lines
/// an independent model says are live, at every step and for every probed
/// line — so the vectorized path can never drift from slot state.
#[test]
fn mshr_lookup_agrees_under_churn() {
    for case in 0..cases(48) as u64 {
        let mut r = Pcg32::new(0x3e3_0008 ^ case);
        let cap = r.range(1, 33) as usize;
        let mut mshr = MshrFile::new(cap);
        // model: line -> scheduled completion. Mirrors the file's contract:
        // a full file evicts its `(complete_at, line)`-minimum entry before
        // the insert-or-refresh, and a refresh overwrites the completion.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        for _ in 0..96 {
            now += r.range(1, 8);
            let line = r.gen_range(24) * 64;
            match r.gen_range(2) {
                0 => {
                    let complete = now + r.range(2, 64);
                    mshr.fill_scheduled(line, complete, r.gen_range(2) == 0, 7, HitLevel::L3);
                    if model.len() == cap {
                        let victim = model
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (l, c))| (*c, *l))
                            .map(|(i, _)| i)
                            .expect("nonempty");
                        model.swap_remove(victim);
                    }
                    match model.iter_mut().find(|(l, _)| *l == line) {
                        Some(e) => e.1 = complete,
                        None => model.push((line, complete)),
                    }
                }
                _ => {
                    let horizon = now.saturating_sub(16);
                    mshr.expire(horizon);
                    model.retain(|(_, c)| *c > horizon);
                }
            }
            for probe_line in (0..24u64).map(|l| l * 64) {
                assert_eq!(
                    mshr.lookup(probe_line).is_some(),
                    model.iter().any(|(l, _)| *l == probe_line),
                    "lookup diverged from model at line {probe_line:#x}"
                );
            }
            assert!(mshr.len() <= cap);
            assert_eq!(mshr.len(), model.len(), "occupancy diverged from model");
        }
    }
}

/// Prefetch then demand: the demand is never slower than a cold miss
/// would have been, and usefulness accounting stays consistent.
#[test]
fn prefetch_never_hurts_the_same_line() {
    for case in 0..cases(64) as u64 {
        let mut r = Pcg32::new(0x3e3_0006 ^ case);
        let addr = r.gen_range(0x1000_0000);
        let delay = r.gen_range(600);
        let mut cold = MemorySystem::new(HierarchyConfig::baseline(1));
        let cold_out = cold.access(0, AccessKind::Load, addr, delay);

        let mut m = MemorySystem::new(HierarchyConfig::baseline(1));
        m.prefetch(0, addr, 0x7f, 0);
        let out = m.access(0, AccessKind::Load, addr, delay);
        assert!(out.complete_at <= cold_out.complete_at);
        let s = m.stats(0);
        assert!(s.prefetch_useful <= 1);
        assert_eq!(s.prefetch_useless, 0);
    }
}
