//! The five workloads: which grid points each runs, in which order, and
//! how a timed repetition executes them. Everything here is a function of
//! `(name, seed, quick)`; the simulator only ever sees the generated
//! programs, configurations and point order.

use bfetch_bench::GridPoint;
use bfetch_prng::Pcg32;
use bfetch_sim::{PrefetcherKind, SimConfig};
use bfetch_workloads::{kernel_by_name, kernels, Kernel, Scale};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "solo_mem_nopf",
    "solo_mem_bfetch",
    "solo_compute_bfetch",
    "chip8_bfetch",
    "sweep_fig08",
];

/// The cache-resident kernels: a Perfect prefetcher gains them at most
/// 1.26x (results/fig01_perfect.txt). h264ref is left out on purpose: the
/// registry flags it insensitive, yet Perfect speeds it up 14.5x.
pub const COMPUTE_KERNELS: [&str; 5] = ["bzip2", "calculix", "gamess", "gromacs", "sjeng"];

/// The prefetchers of Figure 1 ∪ Figure 8, baseline first.
pub const SWEEP_KINDS: [PrefetcherKind; 5] = [
    PrefetcherKind::None,
    PrefetcherKind::Stride,
    PrefetcherKind::Sms,
    PrefetcherKind::BFetch,
    PrefetcherKind::Perfect,
];

/// Per-core instruction budgets: (measured, warm-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    pub measured: u64,
    pub warmup: u64,
}

impl Budget {
    /// The single-core figures' default (`Opts::default`).
    pub const SOLO: Budget = Budget {
        measured: 300_000,
        warmup: 150_000,
    };
    /// The CMP figures' default (ext_mix8, ext_simspeed).
    pub const CHIP: Budget = Budget {
        measured: 120_000,
        warmup: 60_000,
    };
    /// `--quick` smoke budget; results are not comparable.
    pub const QUICK: Budget = Budget {
        measured: 6_000,
        warmup: 2_000,
    };
}

/// How a timed repetition executes the points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `SimSession::run` per point with prebuilt programs: the harness is
    /// bypassed.
    Session,
    /// One cold `Harness::run` at `-j 1` into a fresh cache directory:
    /// program build + cache key + simulate + store per point.
    Harness,
}

/// One generated workload.
pub struct Workload {
    pub name: &'static str,
    pub via: Via,
    pub budget: Budget,
    pub scale: Scale,
    /// The points in execution order. Every point has the same core count.
    pub points: Vec<GridPoint>,
}

/// The one-line reason each workload exists (also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "solo_mem_nopf" => "12 prefetch-sensitive kernels, no prefetcher: stall-dominated single core; mem miss path and sim's per-cycle fixed cost, no B-Fetch engine",
        "solo_mem_bfetch" => "same 12 kernels under B-Fetch: mem also carries prefetch fills and feedback, core's engine walks BrTC/MHT",
        "solo_compute_bfetch" => "5 cache-resident kernels under B-Fetch: sim fetch/issue/commit, bpred and isa dominate; DRAM, L3 and MSHRs nearly idle",
        "chip8_bfetch" => "one 8-core chip, B-Fetch on every core: the CMP loop, drain_chip and the shared L3/DRAM, nowhere else exercised",
        "sweep_fig08" => "18 kernels x 5 prefetchers through the Harness, cold then warm: the path users take, and the only output held against the paper",
        other => panic!("no workload {other:?}"),
    }
}

fn config(kind: PrefetcherKind, budget: Budget) -> SimConfig {
    // what `Opts::config` builds for the figure binaries (sim_threads 1)
    SimConfig::baseline()
        .with_prefetcher(kind)
        .with_warmup(budget.warmup)
}

/// The label a point carries for `kind`: the report name, except that the
/// no-prefetch baseline reads `none`.
pub fn kind_label(kind: PrefetcherKind) -> &'static str {
    match kind {
        PrefetcherKind::None => "none",
        other => other.name(),
    }
}

fn kernel(name: &str) -> &'static Kernel {
    kernel_by_name(name).unwrap_or_else(|| panic!("kernel {name:?} left the registry"))
}

fn solo_points(
    ks: &[&'static Kernel],
    kind: PrefetcherKind,
    b: Budget,
    s: Scale,
) -> Vec<GridPoint> {
    ks.iter()
        .map(|k| {
            let label = format!("{}/{}", k.name, kind_label(kind));
            GridPoint::single(label, k, config(kind, b), b.measured, s)
        })
        .collect()
}

impl Workload {
    /// Generates workload `name` for `seed`. Equal arguments give an
    /// identical workload; the seed only ever permutes — kernel order,
    /// core order, point order — so every seed simulates the same
    /// instructions and seeds can be compared with each other.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`NAMES`].
    pub fn generate(name: &str, seed: u64, quick: bool) -> Workload {
        let scale = if quick { Scale::Small } else { Scale::Full };
        let budget = |full: Budget| if quick { Budget::QUICK } else { full };
        let mut rng = Pcg32::with_stream(
            seed,
            NAMES
                .iter()
                .position(|n| *n == name)
                .map_or(0, |i| i as u64),
        );
        let sensitive: Vec<&'static Kernel> =
            kernels().iter().filter(|k| k.prefetch_sensitive).collect();
        let (name, via, budget, mut points) = match name {
            "solo_mem_nopf" => {
                let b = budget(Budget::SOLO);
                (
                    "solo_mem_nopf",
                    Via::Session,
                    b,
                    solo_points(&sensitive, PrefetcherKind::None, b, scale),
                )
            }
            "solo_mem_bfetch" => {
                let b = budget(Budget::SOLO);
                (
                    "solo_mem_bfetch",
                    Via::Session,
                    b,
                    solo_points(&sensitive, PrefetcherKind::BFetch, b, scale),
                )
            }
            "solo_compute_bfetch" => {
                let b = budget(Budget::SOLO);
                let ks: Vec<&'static Kernel> = COMPUTE_KERNELS.iter().map(|n| kernel(n)).collect();
                (
                    "solo_compute_bfetch",
                    Via::Session,
                    b,
                    solo_points(&ks, PrefetcherKind::BFetch, b, scale),
                )
            }
            "chip8_bfetch" => {
                let b = budget(Budget::CHIP);
                // the historical mix8: the first eight registry kernels
                let mut members: Vec<&'static Kernel> = kernels().iter().take(8).collect();
                if seed != 1 {
                    rng.shuffle(&mut members);
                }
                let label = format!(
                    "mix8/{}",
                    members.iter().map(|k| k.name).collect::<Vec<_>>().join("+")
                );
                let cfg = config(PrefetcherKind::BFetch, b);
                (
                    "chip8_bfetch",
                    Via::Session,
                    b,
                    vec![GridPoint::mix(label, members, cfg, b.measured, scale)],
                )
            }
            "sweep_fig08" => {
                let b = budget(Budget::SOLO);
                let mut points = Vec::new();
                for k in kernels() {
                    for kind in SWEEP_KINDS {
                        points.extend(solo_points(&[k], kind, b, scale));
                    }
                }
                ("sweep_fig08", Via::Harness, b, points)
            }
            other => panic!("no workload {other:?}"),
        };
        if points.len() > 1 {
            rng.shuffle(&mut points);
        }
        Workload {
            name,
            via,
            budget,
            scale,
            points,
        }
    }

    /// Cores per point.
    pub fn cores(&self) -> usize {
        self.points[0].members.len()
    }

    /// Simulated instructions one repetition is credited with: (warm-up +
    /// measured budget) x cores x points.
    pub fn credited_insts(&self) -> u64 {
        (self.budget.measured + self.budget.warmup) * self.cores() as u64 * self.points.len() as u64
    }

    /// The distinct kernels of the workload, in first-use order.
    pub fn distinct_kernels(&self) -> Vec<&'static Kernel> {
        let mut out: Vec<&'static Kernel> = Vec::new();
        for k in self.points.iter().flat_map(|p| p.members.iter().copied()) {
            if !out.iter().any(|o| o.name == k.name) {
                out.push(k);
            }
        }
        out
    }

    /// Point labels in execution order (with a mix's core order inside
    /// its label): the workload's identity for a given seed.
    pub fn order(&self) -> Vec<&str> {
        self.points.iter().map(|p| p.label.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_workloads_and_seeds_differ() {
        for name in NAMES {
            for quick in [false, true] {
                let a = Workload::generate(name, 1, quick);
                let b = Workload::generate(name, 1, quick);
                assert_eq!(a.order(), b.order(), "{name}");
                let keys = |w: &Workload| {
                    w.points
                        .iter()
                        .map(GridPoint::cache_key)
                        .collect::<Vec<_>>()
                };
                assert_eq!(keys(&a), keys(&b), "{name}");
                let c = Workload::generate(name, 2, quick);
                assert_ne!(a.order(), c.order(), "{name}: seed 2 must reorder");
                // the seed permutes, it never changes what is simulated
                let mut ka = keys(&a);
                let mut kc = keys(&c);
                if name != "chip8_bfetch" {
                    ka.sort();
                    kc.sort();
                    assert_eq!(ka, kc, "{name}");
                }
                assert_eq!(a.credited_insts(), c.credited_insts());
            }
        }
    }

    #[test]
    fn shapes_match_the_issue() {
        let sizes: Vec<(usize, usize)> = NAMES
            .iter()
            .map(|n| {
                let w = Workload::generate(n, 1, false);
                (w.points.len(), w.cores())
            })
            .collect();
        assert_eq!(sizes, [(12, 1), (12, 1), (5, 1), (1, 8), (90, 1)]);
        let chip = Workload::generate("chip8_bfetch", 1, false);
        let first8: Vec<&str> = kernels().iter().take(8).map(|k| k.name).collect();
        let members: Vec<&str> = chip.points[0].members.iter().map(|k| k.name).collect();
        assert_eq!(members, first8, "seed 1 is the historical mix8");
        let mut other: Vec<&str> = Workload::generate("chip8_bfetch", 7, false).points[0]
            .members
            .iter()
            .map(|k| k.name)
            .collect();
        assert_ne!(other, first8);
        other.sort_unstable();
        assert_eq!(other, first8, "other seeds permute the same eight kernels");
        assert_eq!(chip.credited_insts(), 180_000 * 8);
        let sweep = Workload::generate("sweep_fig08", 1, false);
        assert_eq!(sweep.via, Via::Harness);
        assert_eq!(sweep.credited_insts(), 450_000 * 90);
        assert_eq!(sweep.distinct_kernels().len(), 18);
        let compute = Workload::generate("solo_compute_bfetch", 3, false);
        let mut names: Vec<&str> = compute.distinct_kernels().iter().map(|k| k.name).collect();
        names.sort_unstable();
        assert_eq!(names, COMPUTE_KERNELS);
    }
}
