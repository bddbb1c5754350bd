//! Microbenchmarks of the individual hardware-model components: how fast
//! the substrate itself runs (lookups/updates per second), independent of
//! any full-system experiment.
//!
//! Plain `harness = false` timing mains (no external bench framework is
//! available offline); enable with `--features criterion-benches`:
//!
//! ```text
//! cargo bench -p bfetch-bench --features criterion-benches
//! ```

use bfetch_bpred::{CompositeConfidence, ConfidenceConfig, TournamentConfig, TournamentPredictor};
use bfetch_core::{BFetchConfig, BFetchEngine, MemoryHistoryTable, PerLoadFilter};
use bfetch_mem::{AccessKind, CacheConfig, HierarchyConfig, MemorySystem, SetAssocCache};
use bfetch_prefetch::{AccessEvent, Prefetcher, Sms, Stride};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 200_000;

/// Run `f` ITERS times and print ns/op (median of 3 batches).
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    let mut per_op: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.total_cmp(b));
    println!("{name:<28} {:>10.1} ns/op", per_op[1]);
}

fn main() {
    println!("{:<28} {:>16}", "bench", "median");

    let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
    let mut i = 0u64;
    bench("tournament_predict_update", || {
        i = i.wrapping_add(1);
        let pc = 0x40_0000 + (i % 64) * 4;
        let p = bp.predict(pc, i);
        bp.update(pc, i, !i.is_multiple_of(3));
        p.taken
    });

    let mut conf = CompositeConfidence::new(ConfidenceConfig::baseline());
    let mut i = 0u64;
    bench("composite_confidence", || {
        i = i.wrapping_add(1);
        let e = conf.estimate(i * 4, i, (i % 4) as u8);
        conf.train(i * 4, i, (i % 4) as u8, !i.is_multiple_of(5));
        e
    });

    let mut cache = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 2));
    let mut i = 0u64;
    bench("l1d_access_insert", || {
        i = i.wrapping_add(64);
        let addr = i % (256 * 1024);
        if cache.access(addr).is_none() {
            cache.insert(addr, Default::default());
        }
        addr
    });

    let mut mem = MemorySystem::new(HierarchyConfig::baseline(1));
    let mut now = 0u64;
    let mut addr = 0u64;
    bench("hierarchy_streaming_access", || {
        now += 4;
        addr += 64;
        mem.access(0, AccessKind::Load, addr, now).complete_at
    });

    let mut pf = Stride::degree8();
    let mut out = Vec::new();
    let mut addr = 0u64;
    bench("stride_on_access", || {
        addr += 256;
        out.clear();
        pf.on_access(
            &AccessEvent {
                pc: 0x400100,
                addr,
                hit: false,
                is_load: true,
            },
            &mut out,
        );
        out.len()
    });

    let mut pf = Sms::baseline();
    let mut out = Vec::new();
    let mut addr = 0u64;
    bench("sms_on_access", || {
        addr += 320;
        out.clear();
        pf.on_access(
            &AccessEvent {
                pc: 0x400200,
                addr,
                hit: false,
                is_load: true,
            },
            &mut out,
        );
        out.len()
    });

    let mut mht = MemoryHistoryTable::new(128, 3);
    let mut i = 0u64;
    bench("mht_learn_lookup", || {
        i = i.wrapping_add(1);
        let key = i % 512;
        mht.learn_load(
            key,
            0x400000 + key * 4,
            (i % 8) as u8,
            i * 64,
            i * 64 + 24,
            7,
        );
        mht.lookup(key, 0x400000 + key * 4).is_some()
    });

    let mut f = PerLoadFilter::new(2048, 3);
    let mut i = 0u16;
    bench("per_load_filter", || {
        i = i.wrapping_add(1) & 0x3ff;
        let ok = f.allow(i);
        f.train(i, i.is_multiple_of(3));
        ok
    });

    let bp = TournamentPredictor::new(TournamentConfig::baseline());
    let conf = CompositeConfidence::new(ConfidenceConfig::baseline());
    let mut engine = BFetchEngine::new(BFetchConfig::baseline());
    // prime BrTC/MHT with a two-block loop
    for _ in 0..64 {
        engine.on_commit_branch(0x400100, true, true, 0x400080, 0x400104);
        engine.on_commit_load(0x400084, 1, 0, 0x1000);
        engine.on_commit_branch(0x400200, true, true, 0x400100, 0x400204);
    }
    let mut now = 0u64;
    bench("bfetch_engine_tick", || {
        now += 1;
        engine.on_branch_decoded(bfetch_core::DecodedBranch {
            pc: 0x400100,
            predicted_taken: true,
            taken_target: 0x400080,
            fallthrough: 0x400104,
            is_cond: true,
            ghr_before: now,
            confidence: 0.99,
        });
        engine.tick(now, &bp, &conf);
        engine.pop_prefetches(4).count()
    });
}
