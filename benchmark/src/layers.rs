//! Per-layer host costs, measured from outside: timed loops over each
//! crate's public primitives, program construction, and the observer
//! knobs (trace, CPI, checkpointing) as an interleaved A/B on one point.
//!
//! Address, PC and outcome streams are drawn from the seed before a loop
//! is timed; every loop runs inside a driver span.

use crate::spans::Recorder;
use crate::stats::median;
use bfetch_bpred::{CompositeConfidence, ConfidenceConfig, TournamentConfig, TournamentPredictor};
use bfetch_core::{BFetchConfig, MemoryHistoryTable, PerLoadFilter};
use bfetch_isa::{ArchState, Program};
use bfetch_mem::{
    AccessKind, CacheConfig, HitLevel, LineMeta, MemorySystem, MshrFile, SetAssocCache,
};
use bfetch_prefetch::{AccessEvent, Prefetcher, Sms, Stride};
use bfetch_prng::Pcg32;
use bfetch_sim::{PrefetcherKind, RunResult, SimConfig, SimError, SimSession};
use bfetch_workloads::{kernels, programs, Kernel, Scale};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Metric name → value, for the metrics a traced run produced.
pub type Layers = BTreeMap<&'static str, f64>;

const LINE: u64 = 64;
/// Batches per primitive loop; the reported figure is the median batch.
const BATCHES: usize = 3;

/// Times `BATCHES` batches of `ops` calls of `f(i)` and returns the median
/// nanoseconds per call.
fn ns_per_op(
    rec: &mut Recorder,
    span: &'static str,
    label: &str,
    ops: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let ((), ns) = rec.time(span, label, |_| {
                for i in 0..ops {
                    f(i);
                }
            });
            ns as f64 / ops as f64
        })
        .collect();
    median(&per_op)
}

/// Median milliseconds of three runs of `f`.
fn ms_of(rec: &mut Recorder, span: &'static str, label: &str, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..BATCHES)
        .map(|_| rec.time(span, label, |_| f()).1 as f64 / 1e6)
        .collect();
    median(&ms)
}

/// The workload-independent primitive loops plus construction costs.
/// `programs` are the workload's distinct programs (for `isa.exec_mips`),
/// `insts` the per-program functional budget.
pub fn primitives(
    rec: &mut Recorder,
    seed: u64,
    quick: bool,
    scale: Scale,
    programs_of_workload: &[Program],
    insts: u64,
) -> Layers {
    let ops = if quick { 2_000 } else { 200_000 };
    let mut rng = Pcg32::with_stream(seed, 0x1a7e25);
    let mut out = Layers::new();

    // ---- mem: one cache, one MSHR file, the whole hierarchy ----
    let l1 = CacheConfig::new(64 * 1024, 8, 2);
    let resident: Vec<u64> = (0..ops)
        .map(|_| rng.gen_range(l1.size_bytes / LINE) * LINE)
        .collect();
    let mut cache = SetAssocCache::new(l1);
    for line in 0..l1.size_bytes / LINE {
        cache.insert(line * LINE, LineMeta::default());
    }
    out.insert(
        "mem.cache_hit_ns",
        ns_per_op(rec, "mem.SetAssocCache::access", "hit", ops, |i| {
            black_box(cache.access(resident[i]));
        }),
    );
    let wide: Vec<u64> = (0..ops)
        .map(|_| rng.gen_range(4 * l1.size_bytes / LINE) * LINE)
        .collect();
    out.insert(
        "mem.cache_miss_fill_ns",
        ns_per_op(rec, "mem.SetAssocCache::access", "miss+insert", ops, |i| {
            if cache.access(wide[i]).is_none() {
                black_box(cache.insert(wide[i], LineMeta::default()));
            }
        }),
    );

    let mshrs = SimConfig::baseline().hierarchy(1).l1d_mshrs;
    let mut full = MshrFile::new(mshrs);
    for i in 0..mshrs as u64 {
        full.fill_scheduled(i * LINE, u64::MAX, false, 0, HitLevel::Dram);
    }
    // half the probes hit a live entry, half scan the file and miss
    let probes: Vec<u64> = (0..ops)
        .map(|_| rng.gen_range(2 * mshrs as u64) * LINE)
        .collect();
    out.insert(
        "mem.mshr_lookup_ns",
        ns_per_op(rec, "mem.MshrFile::lookup", "full file", ops, |i| {
            black_box(full.lookup(probes[i]));
        }),
    );
    let mut pf = MshrFile::new(SimConfig::baseline().hierarchy(1).prefetch_buffers);
    let lines: Vec<u64> = (0..ops).map(|_| rng.gen_range(4096) * LINE).collect();
    let mut now = 0u64;
    out.insert(
        "mem.mshr_alloc_expire_ns",
        ns_per_op(
            rec,
            "mem.MshrFile::request",
            "alloc+fill+expire",
            ops,
            |i| {
                now += 4;
                let _ = pf.request(lines[i], now);
                pf.fill_scheduled(lines[i], now + 200, true, 7, HitLevel::L3);
                pf.expire(now.saturating_sub(220));
            },
        ),
    );

    for (name, label, footprint) in [
        ("mem.hier_stream_ns", "stream", 1u64 << 30),
        ("mem.hier_hit_ns", "L1 hits", 16 * 1024),
    ] {
        let mut mem = MemorySystem::new(SimConfig::baseline().hierarchy(1));
        let base = rng.gen_range(1 << 20) * LINE;
        let mut now = 0u64;
        let mut next = 0u64;
        out.insert(
            name,
            ns_per_op(rec, "mem.MemorySystem::access", label, ops, |_| {
                now += 4;
                next = (next + LINE) % footprint;
                black_box(mem.access(0, AccessKind::Load, base + next, now));
            }),
        );
    }

    // ---- bpred: a few hundred static branches with seeded biases ----
    let branches: Vec<(u64, f64)> = (0..256)
        .map(|_| (0x40_0000 + rng.gen_range(1 << 16) * 4, rng.next_f64()))
        .collect();
    let stream: Vec<(u64, bool)> = (0..ops)
        .map(|_| {
            let (pc, bias) = branches[rng.gen_range(branches.len() as u64) as usize];
            (pc, rng.gen_bool(bias))
        })
        .collect();
    let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
    let mut ghr = 0u64;
    out.insert(
        "bpred.predict_update_ns",
        ns_per_op(
            rec,
            "bpred.TournamentPredictor::predict",
            "predict+update",
            ops,
            |i| {
                let (pc, taken) = stream[i];
                black_box(bp.predict(pc, ghr));
                bp.update(pc, ghr, taken);
                ghr = (ghr << 1) | u64::from(taken);
            },
        ),
    );
    let mut conf = CompositeConfidence::new(ConfidenceConfig::baseline());
    let mut ghr = 0u64;
    out.insert(
        "bpred.confidence_ns",
        ns_per_op(
            rec,
            "bpred.CompositeConfidence::estimate",
            "estimate+train",
            ops,
            |i| {
                let (pc, taken) = stream[i];
                let strength = (pc >> 2) as u8 & 3;
                black_box(conf.estimate(pc, ghr, strength));
                conf.train(pc, ghr, strength, taken);
                ghr = (ghr << 1) | u64::from(taken);
            },
        ),
    );

    // ---- core: the B-Fetch engine's two tables ----
    let bf = BFetchConfig::baseline();
    let mut mht = MemoryHistoryTable::new(bf.mht_entries, bf.mht_slots);
    let blocks: Vec<(u64, u64, u8, u64)> = (0..ops)
        .map(|_| {
            let pc = 0x40_0000 + rng.gen_range(512) * 16;
            (
                bfetch_core::bb_key(pc, true, pc + 64),
                pc,
                rng.gen_range(8) as u8 + 1,
                rng.next_u64() >> 20,
            )
        })
        .collect();
    out.insert(
        "core.mht_ns",
        ns_per_op(
            rec,
            "core.MemoryHistoryTable::lookup",
            "learn_load+lookup",
            ops,
            |i| {
                let (key, pc, reg, val) = blocks[i];
                mht.learn_load(
                    key,
                    pc,
                    reg,
                    val,
                    val + 8 * u64::from(reg),
                    (pc >> 2) as u16 & 0x3ff,
                );
                black_box(mht.lookup(key, pc).map(<[_]>::len));
            },
        ),
    );
    let mut filter = PerLoadFilter::new(bf.filter_entries, bf.filter_threshold);
    let feedback: Vec<(u16, bool)> = (0..ops)
        .map(|_| (rng.gen_range(1024) as u16, rng.gen_bool(0.6)))
        .collect();
    out.insert(
        "core.filter_ns",
        ns_per_op(rec, "core.PerLoadFilter::allow", "allow+train", ops, |i| {
            let (hash, useful) = feedback[i];
            black_box(filter.allow(hash));
            filter.train(hash, useful);
        }),
    );

    // ---- prefetch: sixteen load PCs, each striding through its own region ----
    let mut cursor = [0u64; 16];
    let events: Vec<AccessEvent> = (0..ops)
        .map(|_| {
            let s = rng.gen_range(16) as usize;
            cursor[s] += LINE * (s as u64 % 4 + 1);
            AccessEvent {
                pc: 0x40_1000 + 4 * s as u64,
                addr: ((s as u64) << 28) + cursor[s],
                hit: rng.gen_bool(0.5),
                is_load: true,
            }
        })
        .collect();
    let mut reqs = Vec::new();
    let mut stride = Stride::degree8();
    out.insert(
        "prefetch.stride_ns",
        ns_per_op(rec, "prefetch.Stride::on_access", "", ops, |i| {
            reqs.clear();
            stride.on_access(&events[i], &mut reqs);
            black_box(reqs.len());
        }),
    );
    let mut sms = Sms::baseline();
    out.insert(
        "prefetch.sms_ns",
        ns_per_op(rec, "prefetch.Sms::on_access", "", ops, |i| {
            reqs.clear();
            sms.on_access(&events[i], &mut reqs);
            black_box(reqs.len());
        }),
    );

    // ---- workloads, isa: construction and functional execution ----
    out.insert(
        "workloads.build_ms",
        ms_of(rec, "workloads.Kernel::build", "all 18", || {
            for k in kernels() {
                black_box(k.build(scale));
            }
        }),
    );
    // the six real programs are `.s` sources: building one is assembling it
    out.insert(
        "isa.assemble_ms",
        ms_of(rec, "isa.asm::assemble", "six .s programs", || {
            for p in programs() {
                black_box(p.build(scale));
            }
        }),
    );
    let (executed, ns) = rec.time("isa.ArchState::run", "functional", |_| {
        programs_of_workload
            .iter()
            .map(|p| functional_run(p, insts))
            .sum::<u64>()
    });
    out.insert("isa.exec_mips", executed as f64 * 1e3 / ns as f64);

    for (name, cores) in [("sim.construct1_ms", 1usize), ("sim.construct8_ms", 8)] {
        let members: Vec<Program> = kernels()
            .iter()
            .take(cores)
            .map(|k| k.build(scale))
            .collect();
        let cfg = SimConfig::baseline()
            .with_prefetcher(PrefetcherKind::BFetch)
            .with_warmup(0);
        out.insert(
            name,
            ms_of(rec, "sim.SimSession::run", "1 instruction", || {
                black_box(
                    SimSession::new(cfg.clone())
                        .instructions(1)
                        .run(&members)
                        .is_ok(),
                );
            }),
        );
    }
    out
}

/// What one `bfetch_prof` span costs the host while the profiler is on,
/// measured around empty spans. Every `sim.*_ns` phase figure carries
/// about this much per span it (and each of its children) opened.
pub fn prof_span_ns(rec: &mut Recorder, quick: bool) -> f64 {
    let ops = if quick { 2_000 } else { 200_000 };
    bfetch_prof::enable();
    let ns = ns_per_op(rec, "prof.span", "empty", ops, |_| {
        drop(black_box(bfetch_prof::span(bfetch_prof::SIM_BOOKKEEP)));
    });
    drop(bfetch_prof::drain());
    ns
}

/// Executes `insts` instructions of `p` functionally, restarting a program
/// that halts, as the timing model does.
fn functional_run(p: &Program, insts: u64) -> u64 {
    let mut s = ArchState::new(p);
    let mut done = 0;
    while done < insts {
        let n = s.run(p, insts - done);
        done += n;
        if s.halted() {
            s.restart();
        } else if n == 0 {
            break;
        }
    }
    done
}

/// What the observer A/B learned.
pub struct Observers {
    pub layers: Layers,
    /// A run resumed from the last periodic checkpoint equalled the fresh
    /// run.
    pub resume_equal: bool,
    /// Every knob left the results untouched.
    pub results_equal: bool,
}

/// Cycles between periodic checkpoints.
pub fn checkpoint_cadence(quick: bool) -> u64 {
    if quick {
        1024
    } else {
        65_536
    }
}

/// Resumes from the checkpoint a `checkpoint_every(_, dir)` run left in
/// `dir`. Returns the resumed results and the checkpoint's size.
pub fn resume_from(rec: &mut Recorder, dir: &Path) -> Result<(Vec<RunResult>, u64), SimError> {
    let snap = dir.join("checkpoint.snap");
    let bytes = std::fs::metadata(&snap).map_or(0, |m| m.len());
    let resumed = rec.span("sim.SimSession::resume", "", |_| SimSession::resume(&snap))?;
    Ok((resumed.results, bytes))
}

/// The "zero cost when off" table: each observer knob against the all-off
/// run of the same point (`kernel` under B-Fetch), interleaved, minimum of
/// three. Checkpointing writes the whole memory image every cadence, so
/// it is run once; its checkpoint then feeds the resume check.
pub fn observers(
    rec: &mut Recorder,
    kernel: &Kernel,
    scale: Scale,
    budget: crate::workload::Budget,
    quick: bool,
    dir: &Path,
) -> Result<Observers, SimError> {
    let rounds = if quick { 1 } else { 3 };
    let cadence = checkpoint_cadence(quick);
    let program = kernel.build(scale);
    let cfg = SimConfig::baseline()
        .with_prefetcher(PrefetcherKind::BFetch)
        .with_warmup(budget.warmup);
    let session = |knob: usize| {
        let s = SimSession::new(cfg.clone()).instructions(budget.measured);
        match knob {
            1 => s.trace(true),
            2 => s.cpi(true),
            3 => s.checkpoint_every(cadence, dir),
            _ => s,
        }
    };
    const KNOBS: [&str; 4] = ["all off", "trace", "cpi", "checkpoint_every"];
    let mut best = [f64::INFINITY; 4];
    let mut base: Option<RunResult> = None;
    let mut results_equal = true;
    for round in 0..rounds {
        for (knob, label) in KNOBS.iter().enumerate() {
            if knob == 3 && round > 0 {
                continue;
            }
            let (out, ns) = rec.time("sim.SimSession::run", label, |_| {
                session(knob).run_one(&program)
            });
            let mut r = out?.into_single();
            // the CPI stack is the one field accounting is meant to add
            r.cpi = None;
            results_equal &= *base.get_or_insert_with(|| r.clone()) == r;
            best[knob] = best[knob].min(ns as f64);
        }
    }
    let (resumed, bytes) = resume_from(rec, dir)?;
    // the same execution with the window opened at cycle 0 tells the run's
    // total cycles, hence how many checkpoints the cadence produced
    let whole =
        SimSession::new(cfg.clone().with_warmup(0)).instructions(budget.measured + budget.warmup);
    let total_cycles = rec
        .span("sim.SimSession::run", "counting cycles", |_| {
            whole.run_one(&program)
        })?
        .into_single()
        .cycles;
    let checkpoints = (total_cycles / cadence).max(1);

    let pct = |knob: usize| (best[knob] / best[0] - 1.0) * 100.0;
    let mut layers = Layers::new();
    layers.insert("stats.trace_overhead_pct", pct(1));
    layers.insert("stats.cpi_overhead_pct", pct(2));
    layers.insert("snapshot.ckpt_overhead_pct", pct(3));
    layers.insert(
        "snapshot.save_ms",
        (best[3] - best[0]) / 1e6 / checkpoints as f64,
    );
    layers.insert("snapshot.bytes", bytes as f64);
    Ok(Observers {
        layers,
        resume_equal: bytes > 0 && base.as_ref() == resumed.first() && resumed.len() == 1,
        results_equal,
    })
}
