//! # bfetch-core
//!
//! The B-Fetch prefetch engine itself (Kadjo et al., MICRO 2014, Section
//! IV): a small three-stage pipeline running beside the main core that
//!
//! 1. **Branch Lookahead** — starting from each branch decoded by the main
//!    pipeline (delivered through the Decoded Branch Register), walks the
//!    *predicted* future control-flow path using the shared branch
//!    predictor and the [`BranchTraceCache`], accumulating a multiplicative
//!    path confidence and stopping below the threshold (0.75);
//! 2. **Register Lookup** — for every basic block on the path, consults the
//!    [`MemoryHistoryTable`] for the registers that generate load addresses
//!    in that block and the learned `offset` between each register's value
//!    at the block-entry branch and the loads' effective addresses, reading
//!    current register values from the [`AlternateRegisterFile`]; and
//! 3. **Prefetch Calculate** — forms
//!    `prefetch = RegVal + Offset + LoopCnt × LoopDelta` (Equation 3),
//!    expands the `pos`/`negPatt` same-register sibling-load vectors, and
//!    filters each candidate through the [`PerLoadFilter`] before pushing
//!    it onto the bounded prefetch queue.
//!
//! Learning happens at commit: branch commits chain [`BranchTraceCache`]
//! entries and open the next basic block; load commits train MHT offsets
//! and loop deltas against the base register's value at block entry, which
//! the embedding core supplies with each load; prefetch-usefulness feedback
//! from the L1D trains the per-load filter.
//!
//! # Example
//!
//! ```
//! use bfetch_core::{BFetchConfig, BFetchEngine};
//! use bfetch_bpred::{TournamentPredictor, TournamentConfig, CompositeConfidence, ConfidenceConfig};
//!
//! let engine = BFetchEngine::new(BFetchConfig::baseline());
//! let report = engine.storage_report();
//! // Table I: the whole engine is ~13 KB of state.
//! assert!(report.total_kb() < 16.0);
//! ```

#![forbid(unsafe_code)]

pub mod arf;
pub mod brtc;
pub mod config;
pub mod engine;
pub mod filter;
pub mod mht;

pub use arf::AlternateRegisterFile;
pub use brtc::{BrTcEntry, BranchTraceCache};
pub use config::{BFetchConfig, StorageReport};
pub use engine::{BFetchEngine, DecodedBranch, EngineStats, PrefetchCandidate};
pub use filter::PerLoadFilter;
pub use mht::{MemoryHistoryTable, MhtSlot};

/// Computes the basic-block key the paper indexes the BrTC and MHT with: a
/// hash of the current branch PC, its (predicted or resolved) direction,
/// and the target address (Section IV-B1 — including the target covers
/// indirect branches and distinguishes taken/fall-through successors).
#[inline]
pub fn bb_key(branch_pc: u64, taken: bool, target: u64) -> u64 {
    let x = (branch_pc >> 2)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(13)
        ^ (target >> 2).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ ((taken as u64) << 61);
    x ^ (x >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bb_key_distinguishes_direction() {
        assert_ne!(
            bb_key(0x400100, true, 0x400200),
            bb_key(0x400100, false, 0x400104)
        );
    }

    #[test]
    fn bb_key_distinguishes_targets() {
        assert_ne!(
            bb_key(0x400100, true, 0x400200),
            bb_key(0x400100, true, 0x400300)
        );
    }

    #[test]
    fn bb_key_deterministic() {
        assert_eq!(bb_key(0x1234, true, 0x5678), bb_key(0x1234, true, 0x5678));
    }
}
