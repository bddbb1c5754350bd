//! # bfetch-sim
//!
//! The cycle-stepped chip-multiprocessor timing simulator the B-Fetch
//! reproduction is evaluated on — standing in for the paper's gem5 setup
//! (Table II): 4-wide out-of-order cores with 192-entry ROBs, per-core
//! L1I/L1D/L2, a shared L3 (2 MB/core), a bandwidth-limited DRAM channel,
//! a tournament branch predictor, and pluggable prefetchers (none, Next-N,
//! Stride, SMS, B-Fetch, or a Perfect oracle).
//!
//! See [`SimSession`] for the measurement entry point and [`analysis`]
//! for the instrumentation used by Figures 3 and 7.
//! [`SimSession::trace`] adds prefetch-lifecycle observability — typed
//! trace events plus exact per-core lifecycle tallies — without
//! perturbing timing (see `bfetch-stats`); [`SimSession::cpi`] charges
//! every lost commit slot to a root cause and samples an interval
//! timeline, again without perturbing timing.
//! [`SimSession::checkpoint_every`] / [`SimSession::resume`] snapshot the
//! whole machine to disk and continue a killed run with byte-identical
//! results (see DESIGN.md §15).
//!
//! ## Fidelity notes (also in DESIGN.md)
//!
//! * Functional execution advances on the correct path at fetch; wrong-path
//!   *timing* is modelled as a fetch stall until branch resolution plus a
//!   redirect penalty, but wrong-path memory side effects are not simulated.
//! * The global history register is updated with actual outcomes at fetch,
//!   so predictor accuracy is marginally optimistic; identical treatment
//!   across all configurations keeps speedups comparable.
//! * Fills install when they complete, so prefetch timeliness (including
//!   late prefetches that merge in the MSHRs) is modelled faithfully.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cmp;
pub mod config;
pub mod core;
pub mod error;
pub mod ports;
pub mod session;
mod snapshot;

pub use analysis::{delta_cdfs, DeltaCdfs};
pub use bfetch_snapshot::SnapshotError;
pub use bfetch_stats::{CpiComponent, CpiConfig, CpiStack, TimelineSample, TraceConfig};
pub use cmp::{RunResult, SeqMem};
pub use session::{RunOutput, SimSession, TraceOutput};
pub use config::{
    ConfigError, FaultInjection, PrefetcherKind, SimConfig, MAX_MHT_SLOTS, MAX_MSHR_ENTRIES,
    MAX_ROB_ENTRIES, MAX_TABLE_ENTRIES, MAX_WIDTH,
};
pub use error::{CoreDiag, DiagSnapshot, RobHeadDiag, SimError};
pub use core::{Core, CoreCounters};
