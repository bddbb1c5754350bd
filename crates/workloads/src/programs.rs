//! The real-program workload family: algorithm programs written in text
//! assembly (`crates/workloads/asm/*.s`) and assembled at registration
//! time via [`bfetch_isa::asm`].
//!
//! Where [`kernels`](mod@crate::kernels) are hand-engineered stand-ins tuned
//! to match characterization-literature *statistics*, these are the
//! algorithms themselves — quicksort really sorts, the sieve really finds
//! primes (the functional tests below check the results against Rust
//! reimplementations). Each program names the synthetic kernel it is the
//! real-code analog of ([`ANALOGS`]), which is what the `fig_realprog`
//! cross-validation report keys on: do prefetcher rankings measured on
//! the real algorithm match the synthetic kernel that claims to model it?
//!
//! Programs reuse the [`Kernel`] descriptor (name, FOA score, prefetch
//! sensitivity, `build(Scale)`), so everything downstream — grid points,
//! the harness cache, mixes assembled by hand — treats both families
//! uniformly. Scale is injected by overriding each source's `.default`
//! size constants through [`bfetch_isa::asm::assemble_with`].

use crate::kernels::{Kernel, Scale};
use bfetch_isa::{asm, Program};

/// `(program, synthetic kernel)` analog pairs used by the `fig_realprog`
/// cross-validation report.
pub const ANALOGS: &[(&str, &str)] = &[
    ("blur", "leslie3d"),
    ("bsearch", "astar"),
    ("hashjoin", "soplex"),
    ("matmul", "calculix"),
    ("quicksort", "bzip2"),
    ("sieve", "libquantum"),
];

fn build(src: &str, defs: &[(&str, i64)]) -> Program {
    // The sources ship inside the crate and are assembled in tests and in
    // `scripts/verify.sh`'s asmcheck stage, so a failure here is a build
    // bug, not user input.
    match asm::assemble_with(src, defs) {
        Ok(p) => p,
        Err(e) => panic!("bundled workload program failed to assemble: {e}"),
    }
}

fn quicksort(scale: Scale) -> Program {
    let n = match scale {
        Scale::Small => 1024,
        Scale::Full => 8192,
    };
    build(include_str!("../asm/quicksort.s"), &[("N", n)])
}

fn matmul(scale: Scale) -> Program {
    let n = match scale {
        Scale::Small => 16,
        Scale::Full => 48,
    };
    build(include_str!("../asm/matmul.s"), &[("N", n)])
}

fn blur(scale: Scale) -> Program {
    let (w, h) = match scale {
        Scale::Small => (64, 32),
        Scale::Full => (1024, 256),
    };
    build(include_str!("../asm/blur.s"), &[("W", w), ("H", h)])
}

fn sieve(scale: Scale) -> Program {
    let n = match scale {
        Scale::Small => 8192,
        Scale::Full => 262144,
    };
    build(include_str!("../asm/sieve.s"), &[("N", n)])
}

fn bsearch(scale: Scale) -> Program {
    let (n, nbits) = match scale {
        Scale::Small => (4096, 12),
        Scale::Full => (65536, 16),
    };
    build(
        include_str!("../asm/bsearch.s"),
        &[("N", n), ("NBITS", nbits)],
    )
}

fn hashjoin(scale: Scale) -> Program {
    let (b, nk) = match scale {
        Scale::Small => (12, 1024),
        Scale::Full => (17, 8192),
    };
    build(include_str!("../asm/hashjoin.s"), &[("B", b), ("NK", nk)])
}

/// The real-program registry, alphabetical like [`kernels`](mod@crate::kernels).
/// FOA scores and sensitivity classes track each program's synthetic
/// analog (slightly offset so mix selection never ties).
pub fn programs() -> &'static [Kernel] {
    &[
        Kernel {
            name: "blur",
            prefetch_sensitive: true,
            foa: 0.72,
            build: blur,
        },
        Kernel {
            name: "bsearch",
            prefetch_sensitive: true,
            foa: 0.42,
            build: bsearch,
        },
        Kernel {
            name: "hashjoin",
            prefetch_sensitive: true,
            foa: 0.62,
            build: hashjoin,
        },
        Kernel {
            name: "matmul",
            prefetch_sensitive: false,
            foa: 0.12,
            build: matmul,
        },
        Kernel {
            name: "quicksort",
            prefetch_sensitive: false,
            foa: 0.22,
            build: quicksort,
        },
        Kernel {
            name: "sieve",
            prefetch_sensitive: true,
            foa: 0.88,
            build: sieve,
        },
    ]
}

/// Looks up a real program by name.
pub fn program_by_name(name: &str) -> Option<&'static Kernel> {
    programs().iter().find(|k| k.name == name)
}

/// Looks up a workload in either family: synthetic kernels first, then
/// real programs (names are disjoint, pinned by a test below).
pub fn workload_by_name(name: &str) -> Option<&'static Kernel> {
    crate::kernels::kernel_by_name(name).or_else(|| program_by_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_isa::{ArchState, Reg};

    const MULT: u64 = 0x5851_F42D_4C95_7F2D;
    const INC: u64 = 0x1405_7B7E_F767_814F;

    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(MULT).wrapping_add(INC);
        *x
    }

    fn run_to_halt(p: &Program, budget: u64) -> ArchState {
        let mut s = ArchState::new(p);
        s.run(p, budget);
        assert!(
            s.halted(),
            "{} did not halt within {budget} steps",
            p.name()
        );
        s
    }

    #[test]
    fn registry_is_alphabetical_and_disjoint_from_kernels() {
        let names: Vec<&str> = programs().iter().map(|k| k.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        for n in &names {
            assert!(
                crate::kernels::kernel_by_name(n).is_none(),
                "`{n}` collides with a synthetic kernel"
            );
        }
        assert_eq!(programs().len(), ANALOGS.len());
    }

    #[test]
    fn analogs_name_real_entries_on_both_sides() {
        for (prog, kernel) in ANALOGS {
            assert!(program_by_name(prog).is_some(), "{prog}");
            assert!(crate::kernels::kernel_by_name(kernel).is_some(), "{kernel}");
        }
        assert!(workload_by_name("mcf").is_some());
        assert!(workload_by_name("quicksort").is_some());
        assert!(workload_by_name("nonesuch").is_none());
    }

    #[test]
    fn quicksort_sorts_and_checksums() {
        let p = program_by_name("quicksort").unwrap().build_small();
        let s = run_to_halt(&p, 2_000_000);
        // reproduce the fill, then check memory is its signed-sorted order
        let mut x = 12345u64;
        let mut want: Vec<u64> = (0..1024).map(|_| lcg(&mut x)).collect();
        want.sort_unstable_by_key(|&v| v as i64);
        let sum = want.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        for (i, &v) in want.iter().enumerate() {
            assert_eq!(s.mem().load(0x100_0000 + i as u64 * 8), v, "A[{i}]");
        }
        assert_eq!(s.reg(Reg::R3), sum);
    }

    #[test]
    fn matmul_matches_reference_product() {
        let p = program_by_name("matmul").unwrap().build_small();
        let s = run_to_halt(&p, 2_000_000);
        let n = 16usize;
        let mut x = 777u64;
        let a: Vec<u64> = (0..n * n).map(|_| lcg(&mut x)).collect();
        let b: Vec<u64> = (0..n * n).map(|_| lcg(&mut x)).collect();
        for i in [0usize, 7, n - 1] {
            for j in [0usize, 3, n - 1] {
                let want = (0..n).fold(0u64, |acc, k| {
                    acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]))
                });
                let got = s.mem().load(0x200_0000 + ((i * n + j) as u64) * 8);
                assert_eq!(got, want, "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn blur_averages_the_neighborhood() {
        let p = program_by_name("blur").unwrap().build_small();
        let s = run_to_halt(&p, 2_000_000);
        let (w, h) = (64u64, 32u64);
        let src = |y: u64, x: u64| s.mem().load(0x100_0000 + (y * w + x) * 8);
        for (y, x) in [(1u64, 1u64), (5, 20), (h - 2, w - 2)] {
            let mut sum = 0u64;
            for dy in [-1i64, 0, 1] {
                for dx in [-1i64, 0, 1] {
                    sum =
                        sum.wrapping_add(src(y.wrapping_add(dy as u64), x.wrapping_add(dx as u64)));
                }
            }
            let got = s.mem().load(0x300_0000 + (y * w + x) * 8);
            assert_eq!(got, sum >> 3, "DST[{y}][{x}]");
        }
    }

    #[test]
    fn sieve_counts_exactly_the_primes() {
        let p = program_by_name("sieve").unwrap().build_small();
        let s = run_to_halt(&p, 2_000_000);
        let n = 8192usize;
        let mut composite = vec![false; n];
        let mut count = 0u64;
        for i in 2..n {
            if !composite[i] {
                count += 1;
                let mut j = i * i;
                while j < n {
                    composite[j] = true;
                    j += i;
                }
            }
        }
        assert_eq!(s.reg(Reg::R10), count);
    }

    #[test]
    fn bsearch_hits_exactly_the_even_draws() {
        let p = program_by_name("bsearch").unwrap().build_small();
        let s = run_to_halt(&p, 2_000_000);
        // keys derived from even LCG draws are multiples of STEP and in
        // the table; odd draws add 1 and must miss
        let mut x = 98765u64;
        let hits = (0..4096 / 4).filter(|_| lcg(&mut x) & 1 == 0).count() as u64;
        assert_eq!(s.reg(Reg::R14), hits);
    }

    #[test]
    fn hashjoin_matches_a_reference_join() {
        let p = program_by_name("hashjoin").unwrap().build_small();
        let s = run_to_halt(&p, 2_000_000);
        let (b, nk) = (12u32, 1024u64);
        let phi = 0x9E37_79B9_7F4A_7C15u64;
        let bucket = |key: u64| (key.wrapping_mul(phi) >> (64 - b)) as usize;
        // build: table[bucket] = (key, payload = countdown)
        let mut table = vec![(0u64, 0u64); 1 << b];
        let mut x = 31415u64;
        let mut counter = nk;
        for _ in 0..nk {
            let k = lcg(&mut x);
            table[bucket(k)] = (k, counter);
            counter -= 1;
        }
        // probe: replayed build stream + disjoint stream
        let mut acc = 0u64;
        let (mut x1, mut x2) = (31415u64, 271828u64);
        for _ in 0..nk {
            let k = lcg(&mut x1);
            let (tk, tv) = table[bucket(k)];
            if tk == k {
                acc = acc.wrapping_add(tv);
            }
            let q = lcg(&mut x2);
            let (tk, tv) = table[bucket(q)];
            if tk == q {
                acc = acc.wrapping_add(tv);
            }
        }
        assert_eq!(s.reg(Reg::R14), acc);
    }

    #[test]
    fn programs_restart_deterministically() {
        // restart() preserves memory; a second pass must still halt and
        // leave the same architectural results (the .s headers argue why)
        for k in programs() {
            let p = k.build_small();
            let mut s = ArchState::new(&p);
            s.run(&p, 2_000_000);
            assert!(s.halted(), "{} first pass", k.name);
            let r14 = s.reg(Reg::R14);
            let r10 = s.reg(Reg::R10);
            s.restart();
            s.run(&p, 2_000_000);
            assert!(s.halted(), "{} second pass", k.name);
            assert_eq!(s.reg(Reg::R14), r14, "{} r14 drifted", k.name);
            assert_eq!(s.reg(Reg::R10), r10, "{} r10 drifted", k.name);
        }
    }

    #[test]
    fn full_scale_changes_the_size_constants() {
        // program text is scale-invariant, but the size immediates that
        // .default injects must differ between Small and Full builds
        for k in programs() {
            let small = k.build_small();
            let full = k.build_full();
            assert_eq!(small.len(), full.len(), "{}", k.name);
            assert_ne!(small.insts(), full.insts(), "{}", k.name);
        }
    }
}
