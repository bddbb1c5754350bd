//! # bfetch
//!
//! Facade crate for the B-Fetch reproduction (Kadjo et al., MICRO 2014):
//! branch-prediction directed data prefetching for chip multiprocessors,
//! together with the full simulation substrate it is evaluated on.
//!
//! The implementation is split into focused crates, re-exported here:
//!
//! * [`isa`] — the RISC execution substrate (registers, instructions,
//!   functional state, program builder).
//! * [`bpred`] — tournament branch predictor, BTB, composite branch
//!   confidence, path confidence.
//! * [`mem`] — cache hierarchy, MSHRs, DRAM, prefetch-aware statistics.
//! * [`prefetch`] — the prefetcher framework and the paper's comparison
//!   points: Stride and SMS.
//! * [`core`] — the B-Fetch engine itself (DBR, Branch Trace Cache, Memory
//!   History Table, Alternate Register File, per-load filter).
//! * [`sim`] — the cycle-stepped out-of-order core and CMP driver.
//! * [`workloads`] — the 18 SPEC-CPU2006-inspired synthetic kernels and the
//!   FOA mix selection.
//! * [`stats`] — geometric means, weighted speedup, CDFs, text tables.
//!
//! # Quickstart
//!
//! ```
//! use bfetch::sim::{SimConfig, PrefetcherKind, SimSession};
//! use bfetch::workloads::kernel_by_name;
//!
//! let program = kernel_by_name("libquantum").expect("known kernel").build_small();
//! let baseline = SimSession::new(SimConfig::baseline())
//!     .instructions(50_000)
//!     .run_one(&program)?
//!     .into_single();
//! let mut cfg = SimConfig::baseline();
//! cfg.prefetcher = PrefetcherKind::BFetch;
//! let bfetch = SimSession::new(cfg)
//!     .instructions(50_000)
//!     .run_one(&program)?
//!     .into_single();
//! assert!(bfetch.ipc() > 0.0 && baseline.ipc() > 0.0);
//! # Ok::<(), bfetch::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]

pub use bfetch_bpred as bpred;
pub use bfetch_core as core;
pub use bfetch_isa as isa;
pub use bfetch_mem as mem;
pub use bfetch_prefetch as prefetch;
pub use bfetch_sim as sim;
pub use bfetch_stats as stats;
pub use bfetch_workloads as workloads;
