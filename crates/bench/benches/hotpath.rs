//! Hot-path microbenchmarks for the structures the per-cycle loop leans
//! on: MSHR probes and allocation, cache probe+fill, the B-Fetch lookahead
//! walk, building the kernels and the functional state a core starts from,
//! generating a line of mcf's image on first touch and loading a resident
//! one, a warm
//! result-cache hit, a profiler span while the profiler is off, and a full
//! `Core::cycle` against the real memory hierarchy. These
//! are the operations the flat-table/packed-rank rewrite targets, so
//! regressions here show up before they are visible in the `benchmark/`
//! workloads' `sim_kips`.
//!
//! Plain `harness = false` timing mains (no external bench framework is
//! available offline); enable with `--features criterion-benches`:
//!
//! ```text
//! cargo bench -p bfetch-bench --features criterion-benches --bench hotpath
//! ```

use bfetch_bench::harness::{cache::ResultCache, GridPoint};
use bfetch_bpred::{CompositeConfidence, ConfidenceConfig, TournamentConfig, TournamentPredictor};
use bfetch_core::{BFetchConfig, BFetchEngine, DecodedBranch};
use bfetch_isa::ArchState;
use bfetch_mem::{
    drain_chip, CacheConfig, ChipGuard, HitLevel, LineMeta, MemorySystem, MshrFile, SetAssocCache,
    WayMeta,
};
use bfetch_sim::{Core, PrefetcherKind, SeqMem, SimConfig, SimSession};
use bfetch_workloads::{kernel_by_name, kernels, Scale};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 200_000;

/// Median of 3 timed batches, each reporting its own ns per unit of work.
fn median_of_3(batch: impl FnMut() -> f64) -> f64 {
    let mut per_unit: Vec<f64> = std::iter::repeat_with(batch).take(3).collect();
    per_unit.sort_by(|a, b| a.total_cmp(b));
    per_unit[1]
}

/// Run `f` ITERS times and print ns/op (median of 3 batches).
fn bench<R>(name: &str, f: impl FnMut() -> R) {
    bench_n(name, ITERS, f);
}

/// [`bench`] for operations too slow to repeat `ITERS` times.
fn bench_n<R>(name: &str, iters: u64, mut f: impl FnMut() -> R) {
    let per_op = median_of_3(|| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    });
    println!("{name:<28} {per_op:>10.1} ns/op");
}

/// Cache probe+fill over a footprint 4x the capacity, so roughly every
/// fourth access misses and exercises rank promotion + victim choice; then
/// hits on `ways` resident lines, the steady-state hit path (find +
/// promote).
fn cache_loops<M: WayMeta>(prefix: &str, cfg: CacheConfig) {
    let mut cache = SetAssocCache::<M>::new(cfg);
    let span = 4 * cfg.size_bytes;
    let mut i = 0u64;
    bench(&format!("{prefix}cache_probe_fill"), || {
        i = i.wrapping_add(64);
        let addr = i % span;
        if cache.access(addr).is_none() {
            cache.insert(addr, M::default());
        }
        addr
    });

    let mut hot = SetAssocCache::<M>::new(cfg);
    for w in 0..cfg.ways as u64 {
        hot.insert(w * 64, M::default());
    }
    let mut i = 0u64;
    bench(&format!("{prefix}cache_hit_promote"), || {
        i = i.wrapping_add(1);
        hot.access((i % cfg.ways as u64) * 64).is_some()
    });
}

/// The lookahead walk, per walked block: the paper's Listing 1 loop (one
/// block, one strided load, a backward branch the predictor is sure of), so
/// every walk runs to the 24-block depth cap and re-derives the window the
/// previous walk queued, one new iteration aside — the duplicate-heavy
/// steady state of a streaming kernel. One walk per tick, the queue drained
/// at the core's 2 prefetches per cycle.
fn engine_walk() {
    let (br_pc, loop_top) = (0x40_0400u64, 0x40_03f0u64);
    let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
    let mut conf = CompositeConfidence::new(ConfidenceConfig::baseline());
    let mut engine = BFetchEngine::new(BFetchConfig::baseline());
    let mut regs = [0u64; 32];
    regs[2] = 0x1_0000;
    let mut ghr = 0u64;
    let mut now = 0u64;
    // one loop iteration: commit-side training, the register write the ARF
    // samples, then the decoded branch's walk and the drain
    let mut iteration = |engine: &mut BFetchEngine| {
        now += 4;
        let p = bp.predict(br_pc, ghr);
        conf.train(br_pc, ghr, p.strength, p.taken);
        bp.update(br_pc, ghr, true);
        engine.on_commit_branch(br_pc, true, true, loop_top, br_pc + 4);
        engine.on_commit_load(loop_top, 2, regs[2], regs[2] + 0x18);
        regs[2] += 0x80;
        engine.post_regwrite(2, regs[2], now, now);
        engine.on_branch_decoded(DecodedBranch {
            pc: br_pc,
            predicted_taken: true,
            taken_target: loop_top,
            fallthrough: br_pc + 4,
            is_cond: true,
            ghr_before: ghr,
            confidence: conf.estimate(br_pc, ghr, p.strength),
        });
        ghr = (ghr << 1) | 1;
        engine.tick(now, &bp, &conf);
        engine.pop_prefetches(2).count()
    };
    for _ in 0..2_000 {
        iteration(&mut engine);
    }
    let per_block = median_of_3(|| {
        let walked = engine.stats().branches_walked;
        let t = Instant::now();
        for _ in 0..ITERS / 8 {
            black_box(iteration(&mut engine));
        }
        let blocks = engine.stats().branches_walked - walked;
        t.elapsed().as_nanos() as f64 / blocks as f64
    });
    let s = engine.stats();
    println!(
        "{:<28} {:>10.1} ns/block  (depth {:.1}, {:.2} queued/block)",
        "engine.walk",
        per_block,
        s.mean_depth(),
        s.candidates as f64 / s.branches_walked as f64
    );
}

fn main() {
    println!("{:<28} {:>16}", "bench", "median");

    // MSHR probe against a full file: every lookup scans all slots — the
    // worst case for the linear probe, and the common case mid-run.
    let mut mshr = MshrFile::new(4);
    for i in 0..4u64 {
        mshr.fill_scheduled(i * 64, u64::MAX, false, 0, HitLevel::Dram);
    }
    let mut i = 0u64;
    bench("mshr_lookup_hit", || {
        i = i.wrapping_add(1);
        mshr.lookup((i % 4) * 64)
    });
    bench("mshr_lookup_miss", || {
        i = i.wrapping_add(1);
        mshr.lookup(0x1000 + (i % 64) * 64)
    });

    // Allocate/expire churn: request → fill_scheduled → expire, the full
    // life of one demand miss through a 32-entry (prefetch-sized) file.
    let mut pf = MshrFile::new(32);
    let mut now = 0u64;
    bench("mshr_alloc_expire", || {
        now += 4;
        let line = (now % 4096) * 64;
        let _ = pf.request(line, now);
        pf.fill_scheduled(line, now + 200, true, 7, HitLevel::L3);
        pf.expire(now.saturating_sub(220));
        pf.len()
    });

    // The L1D (64 KB, 8-way, `LineMeta` per way) and the L3 (2 MB, 16-way,
    // a dirty bit per way), each through the same two loops.
    cache_loops::<LineMeta>("", CacheConfig::new(64 * 1024, 8, 2));
    cache_loops::<bool>("l3_", CacheConfig::new(2 * 1024 * 1024, 16, 20));

    engine_walk();

    // Building programs and the functional state every core starts from:
    // a build records how to generate each image, not its words; a new
    // state reserves room for the image's lines and generates none; the
    // first touch of a line generates its page into the memory's scratch
    // page (mcf: positioning the generator, then 512 words) and keeps the
    // line, which first_touch_line times once on each of the 3072 pages of
    // mcf's arcs. load_touch_hit loads a resident line, a different one
    // each time, over all those pages: what a program's load costs once
    // its line is resident.
    let mcf = kernel_by_name("mcf").expect("kernel registered");
    bench_n("kernel_build_mcf", 10, || mcf.build(Scale::Full).len());
    bench_n("kernel_build_full", 10, || {
        kernels()
            .iter()
            .map(|k| k.build(Scale::Full).len())
            .sum::<usize>()
    });
    let image = mcf.build(Scale::Full);
    bench_n("arch_state_new_mcf", 1_000, || ArchState::new(&image).pc());
    let (arcs, arc_pages) = {
        let (base, words) = &image.data()[0];
        (*base, words.len() as u64 / 512)
    };
    let per_page = median_of_3(|| {
        let mut s = ArchState::new(&image);
        let t = Instant::now();
        for page in 0..arc_pages {
            black_box(s.mem_mut().load_touch(arcs + page * 4096));
        }
        t.elapsed().as_nanos() as f64 / arc_pages as f64
    });
    println!("{:<28} {per_page:>10.1} ns/op", "first_touch_line");
    let mut s = ArchState::new(&image);
    let lines: Vec<u64> = (0..arc_pages)
        .map(|page| arcs + page * 4096 + 64 * (page % 64))
        .collect();
    for &addr in &lines {
        s.mem_mut().load_touch(addr);
    }
    let mut next = 0;
    bench("load_touch_hit", || {
        next = (next + 1) % lines.len();
        s.mem_mut().load_touch(lines[next])
    });

    // A warm harness hit, what each point of a cached figure pays: name the
    // entry, open, read, decode, refresh its mtime. The key is a real Fig 8
    // point's (mcf under B-Fetch at the figure's budget); the stored results
    // come from a short run of the same point, so the entry has its shape.
    let fig08 = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(150_000);
    let key = GridPoint::single("mcf/bfetch", mcf, fig08.clone(), 300_000, Scale::Full).cache_key();
    let results = SimSession::new(fig08.with_warmup(5_000))
        .instructions(20_000)
        .run_one(&mcf.build(Scale::Small))
        .expect("mcf runs")
        .results;
    let dir = std::env::temp_dir().join(format!("bfetch-hotpath-cache-{}", std::process::id()));
    let cache = ResultCache::new(&dir).expect("temporary cache directory");
    cache.store(&key, &results).expect("entry stored");
    bench_n("cache_load_hit", 10_000, || {
        cache
            .load(&key)
            .expect("entry readable")
            .expect("a hit")
            .len()
    });
    let _ = std::fs::remove_dir_all(&dir);

    // What every stage span in `Core::cycle` costs a run that never enabled
    // the profiler: a span opened and dropped.
    assert!(!bfetch_prof::enabled(), "measured with the profiler off");
    bench("span_disabled", || {
        bfetch_prof::span(bfetch_prof::SIM_FETCH)
    });

    // Full Core::cycle with the B-Fetch engine attached: fetch, schedule,
    // commit, prefetch issue — the whole per-cycle loop the `solo_*`
    // benchmark workloads measure end to end. mcf chases pointers and
    // mostly waits on DRAM; gamess is cache-resident, so its cycles are the
    // dispatch-to-commit path's fixed cost per instruction. The
    // no-prefetch variant isolates the engine's per-cycle cost (tick +
    // decode hooks + commit training) from the pipeline model itself.
    for (name, kernel, pf) in [
        ("core_cycle_mcf_bfetch", "mcf", PrefetcherKind::BFetch),
        ("core_cycle_mcf_nopf", "mcf", PrefetcherKind::None),
        ("core_cycle_gamess_bfetch", "gamess", PrefetcherKind::BFetch),
    ] {
        let k = kernel_by_name(kernel).expect("kernel registered");
        let cfg = SimConfig::baseline().with_prefetcher(pf);
        let mut core = Core::new(0, k.build(Scale::Small), &cfg);
        let mut mem = MemorySystem::new(cfg.hierarchy(1));
        let mut now = 0u64;
        bench(name, || {
            now += 1;
            core.cycle(now, &mut mem);
            mem.drain_feedback(|fb| core.feedback(fb.pc_hash, fb.useful));
            core.counters().committed
        });
    }

    // The per-cycle feedback sweep over an 8-core chip with nothing queued:
    // the fixed cost every mix8 cycle pays whether or not prefetch feedback
    // arrived.
    let cfg8 = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
    let (mut fb_mems, _fb_shared) = MemorySystem::new(cfg8.hierarchy(8)).into_parts();
    bench("drain_feedback_idle8", || {
        let mut n = 0u32;
        for m in fb_mems.iter_mut() {
            m.drain_feedback(|_| n += 1);
        }
        n
    });

    // One full mix8 cycle, exactly as the cycle loop runs it: chip drain,
    // 8 cores stepped through the SeqMem view, end-of-cycle feedback +
    // guard notes. This is the unit the `chip8_bfetch` benchmark workload
    // measures millions of (same mix: the first eight registry kernels).
    let (mut mems, mut shared) = MemorySystem::new(cfg8.hierarchy(8)).into_parts();
    let mut guard = ChipGuard::new();
    let mut cores: Vec<Core> = kernels()
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, k)| Core::new(i, k.build(Scale::Small), &cfg8))
        .collect();
    let mut now = 0u64;
    bench("mix8_cycle", || {
        drain_chip(&mut mems, &mut shared, now, &mut guard);
        for (c, m) in cores.iter_mut().zip(mems.iter_mut()) {
            c.cycle(now, &mut SeqMem::new(m, &mut shared));
        }
        for (c, m) in cores.iter_mut().zip(mems.iter_mut()) {
            m.drain_feedback(|fb| c.feedback(fb.pc_hash, fb.useful));
            guard.note(m.take_sched_min());
        }
        now += 1;
        now
    });
}
