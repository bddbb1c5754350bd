//! # bfetch-workloads
//!
//! The 18 synthetic kernels standing in for the SPEC CPU2006 subset the
//! paper evaluates (Section V-A), plus the frequency-of-access (FOA) mix
//! selection for the multiprogrammed experiments.
//!
//! SPEC CPU2006 is proprietary and cannot ship with this reproduction, so
//! each kernel is engineered to the *memory and control behaviour* the
//! characterization literature reports for its namesake: streaming
//! (libquantum, lbm, bwaves), strided stencils (leslie3d, zeusmp,
//! cactusADM, milc), pointer chasing (mcf, astar), indexed sparse gathers
//! (soplex, sphinx), table-driven DP (hmmer), and cache-resident
//! compute/branch codes that see little benefit from any prefetcher
//! (gamess, calculix, gromacs, sjeng, bzip2, h264ref). What matters for
//! the reproduction is the *class* of access pattern, the footprint
//! relative to the cache hierarchy, and branch predictability — these
//! drive every figure in the paper's evaluation.
//!
//! All data initialization is deterministic (seeded in-tree PCG32, see
//! `bfetch-prng`), so runs are bit-reproducible.
//!
//! # Example
//!
//! ```
//! use bfetch_workloads::{kernels, kernel_by_name};
//! assert_eq!(kernels().len(), 18);
//! let k = kernel_by_name("mcf").unwrap();
//! let p = k.build_small();
//! assert!(p.len() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod faults;
/// The workload-authoring guide (`docs/WORKLOADS.md`), included verbatim
/// so its examples run as doctests.
#[doc = include_str!("../../../docs/WORKLOADS.md")]
pub mod guide {}
pub mod kernels;
pub mod mix;
pub mod programs;

pub use faults::{FaultKernel, FaultMode, FAULT_KERNEL};
pub use kernels::{kernel_by_name, kernels, Kernel, Scale};
pub use mix::{select_mixes, Mix, NUM_MIXES};
pub use programs::{program_by_name, programs, workload_by_name, ANALOGS};

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_isa::ArchState;

    #[test]
    fn all_kernels_run_functionally() {
        for k in kernels() {
            let p = k.build_small();
            let mut s = ArchState::new(&p);
            let n = s.run(&p, 200_000);
            assert!(n > 1_000, "{} executed only {n} instructions", k.name);
        }
    }

    #[test]
    fn kernels_restart_cleanly() {
        for k in kernels() {
            let p = k.build_small();
            let mut s = ArchState::new(&p);
            s.run(&p, 100_000);
            if s.halted() {
                s.restart();
                let n = s.run(&p, 10_000);
                assert!(n > 100, "{} failed to restart", k.name);
            }
        }
    }

    #[test]
    fn expected_sensitivity_split() {
        let sensitive: Vec<&str> = kernels()
            .iter()
            .filter(|k| k.prefetch_sensitive)
            .map(|k| k.name)
            .collect();
        assert_eq!(sensitive.len(), 12);
        assert!(sensitive.contains(&"libquantum"));
        assert!(sensitive.contains(&"mcf"));
        assert!(!sensitive.contains(&"gamess"));
        assert!(!sensitive.contains(&"sjeng"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = kernels().iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }
}
