//! # bfetch-stats
//!
//! Statistics utilities shared across the B-Fetch reproduction: mean
//! aggregators (geometric mean for speedups, as used throughout the paper's
//! evaluation), the weighted-speedup metric for multiprogrammed workloads
//! (Section V-A), empirical CDFs (Figure 3), and plain-text table rendering
//! for the figure/table regeneration binaries.
//!
//! It also hosts the simulator-wide observability layer: [`registry`]
//! (named hierarchical counters with snapshot/delta), [`trace`]
//! (cycle-stamped prefetch-lifecycle events and the derived
//! accuracy/coverage/timeliness metrics), and [`cpi`] (top-down
//! CPI-stack cycle accounting with the one-cause-per-slot invariant,
//! plus interval timeline samples).
//!
//! # Example
//!
//! ```
//! use bfetch_stats::{geomean, weighted_speedup};
//! let speedups = [1.2, 1.5, 1.0];
//! assert!((geomean(&speedups) - 1.216).abs() < 0.01);
//! let ws = weighted_speedup(&[(2.0, 1.0), (3.0, 3.0)]); // ipc_multi/ipc_single pairs
//! assert!((ws - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod cdf;
pub mod cpi;
pub mod registry;
pub mod table;
pub mod trace;

pub use cdf::Cdf;
pub use cpi::{CpiComponent, CpiConfig, CpiStack, TimelineSample};
pub use registry::StatsRegistry;
pub use table::Table;
pub use trace::{
    DropReason, LifecycleCounts, LifecycleMetrics, ServiceLevel, TraceConfig, TraceEvent,
    TraceKind, TraceSink, Tracer,
};

/// Geometric mean of strictly positive values.
///
/// Returns `1.0` for an empty slice (the neutral speedup).
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let mut log_sum = 0.0;
    for &v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The multiprogrammed *weighted speedup* metric of Section V-A:
/// `Σ (IPC_multi / IPC_single)` over the applications in a mix.
///
/// Takes `(ipc_multi, ipc_single)` pairs.
///
/// # Panics
///
/// Panics if any solo IPC is not strictly positive.
pub fn weighted_speedup(pairs: &[(f64, f64)]) -> f64 {
    pairs
        .iter()
        .map(|&(multi, single)| {
            assert!(single > 0.0, "solo IPC must be positive");
            multi / single
        })
        .sum()
}

/// Ratio `a / b` guarded against a zero denominator (returns 0).
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Percentage `100 * a / b` guarded against a zero denominator.
pub fn percent(a: u64, b: u64) -> f64 {
    100.0 * ratio(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity_is_one() {
        assert_eq!(geomean(&[1.0, 1.0, 1.0]), 1.0);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_below_arithmetic_mean() {
        let v = [1.1, 2.3, 0.7, 5.0];
        assert!(geomean(&v) <= mean(&v));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn weighted_speedup_solo_equals_count() {
        // each app running as fast as solo => ws == n
        let ws = weighted_speedup(&[(1.5, 1.5), (0.7, 0.7)]);
        assert!((ws - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(percent(1, 2), 50.0);
    }
}
