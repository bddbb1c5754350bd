//! Typed simulation failures and the diagnostic snapshot the
//! forward-progress watchdog captures when it aborts a run.
//!
//! Production batch infrastructure treats an individual hung or runaway
//! simulation as a routine, recoverable event: the run is killed with a
//! diagnosis attached and the rest of the sweep continues. [`SimError`] is
//! that diagnosis — a value, not a panic — so the experiment harness can
//! report it per grid point while healthy points complete normally (see
//! [`SimSession::run`](crate::SimSession::run)).

use std::fmt;

/// The state of one ROB head entry at abort time: the instruction the
/// core was trying to retire when progress stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobHeadDiag {
    /// Global sequence number of the head instruction.
    pub seq: u64,
    /// Its program counter.
    pub pc: u64,
    /// Whether it ever got scheduled onto a port.
    pub scheduled: bool,
    /// Its completion cycle (`u64::MAX` while unscheduled).
    pub complete_at: u64,
}

/// Per-core state captured when a run aborts: enough to tell *where* the
/// machine wedged (frontend, ROB head, memory system, or engine queue)
/// without re-running under a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDiag {
    /// Core id.
    pub core: usize,
    /// Instructions committed so far (including warmup).
    pub committed: u64,
    /// Occupied ROB entries.
    pub rob_len: usize,
    /// The oldest in-flight instruction, if any.
    pub rob_head: Option<RobHeadDiag>,
    /// Queued demand-prefetcher requests.
    pub pf_queue_len: usize,
    /// B-Fetch engine prefetch-queue occupancy, when an engine is
    /// configured.
    pub engine_queue_len: Option<usize>,
    /// Live demand-MSHR entries in this core's L1D.
    pub mshr_live: usize,
    /// Live prefetch-MSHR entries in this core's L1D.
    pub pf_mshr_live: usize,
    /// The cycle fetch is stalled until (0 or past = not stalled).
    pub fetch_stall_until: u64,
}

impl fmt::Display for CoreDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {}: committed={} rob={}",
            self.core, self.committed, self.rob_len
        )?;
        match &self.rob_head {
            Some(h) => write!(
                f,
                " head{{seq={} pc={:#x} scheduled={} complete_at={}}}",
                h.seq,
                h.pc,
                h.scheduled,
                if h.complete_at == u64::MAX {
                    "never".to_string()
                } else {
                    h.complete_at.to_string()
                }
            )?,
            None => write!(f, " head=empty")?,
        }
        write!(
            f,
            " mshr={}/{}pf pfq={}",
            self.mshr_live, self.pf_mshr_live, self.pf_queue_len
        )?;
        if let Some(q) = self.engine_queue_len {
            write!(f, " engineq={q}")?;
        }
        write!(f, " fetch_stall_until={}", self.fetch_stall_until)
    }
}

/// Everything the watchdog saw at abort time, one line per core when
/// rendered with `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagSnapshot {
    /// The cycle the snapshot was taken.
    pub cycle: u64,
    /// Per-core state, in core order.
    pub cores: Vec<CoreDiag>,
}

impl fmt::Display for DiagSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot at cycle {}", self.cycle)?;
        for c in &self.cores {
            write!(f, "; {c}")?;
        }
        Ok(())
    }
}

/// A failed simulation run. Deterministic: the same configuration and
/// workload produce the same error, cycle numbers included.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No core committed an instruction for at least
    /// [`SimConfig::watchdog_cycles`](crate::SimConfig::watchdog_cycles)
    /// cycles — the machine is livelocked or deadlocked. Carries a
    /// diagnostic snapshot of every core.
    Watchdog {
        /// The cycle the watchdog fired at.
        cycle: u64,
        /// The configured no-commit threshold that was exceeded.
        idle_cycles: u64,
        /// Per-core machine state at abort time.
        snapshot: DiagSnapshot,
    },
    /// The run exceeded its hard cycle budget
    /// ([`SimConfig::max_cycles`](crate::SimConfig::max_cycles), or the
    /// derived default) before every core reached its instruction quota.
    CycleBudget {
        /// Which phase ran out: `"warmup"` or `"measurement"`.
        phase: &'static str,
        /// The cycle the budget was exhausted at.
        cycle: u64,
        /// The configured (or derived) budget.
        limit: u64,
    },
    /// The configuration failed [`SimConfig::validate`](crate::SimConfig::validate)
    /// before any simulation state was built.
    Config(crate::config::ConfigError),
    /// A checkpoint file could not be written or read back: truncated,
    /// bit-flipped, version-skewed, or an I/O failure. The payload names
    /// the exact defect (see `bfetch-snapshot`).
    Snapshot(bfetch_snapshot::SnapshotError),
    /// The run was stopped cooperatively (e.g. SIGINT relayed through
    /// `SimSession::stop_flag`). When checkpointing was configured, the
    /// state at `cycle` was written out first, so the run can resume.
    Interrupted {
        /// The cycle the run stopped at.
        cycle: u64,
    },
}

impl From<crate::config::ConfigError> for SimError {
    fn from(e: crate::config::ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<bfetch_snapshot::SnapshotError> for SimError {
    fn from(e: bfetch_snapshot::SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Watchdog {
                cycle,
                idle_cycles,
                snapshot,
            } => write!(
                f,
                "watchdog: no instruction committed for {idle_cycles} cycles \
                 (aborted at cycle {cycle}); {snapshot}"
            ),
            SimError::CycleBudget {
                phase,
                cycle,
                limit,
            } => write!(
                f,
                "cycle budget exhausted during {phase}: {cycle} cycles \
                 elapsed (limit {limit})"
            ),
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Snapshot(e) => write!(f, "snapshot: {e}"),
            SimError::Interrupted { cycle } => {
                write!(f, "interrupted at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> CoreDiag {
        CoreDiag {
            core: 0,
            committed: 123,
            rob_len: 4,
            rob_head: Some(RobHeadDiag {
                seq: 9,
                pc: 0x40,
                scheduled: false,
                complete_at: u64::MAX,
            }),
            pf_queue_len: 2,
            engine_queue_len: Some(7),
            mshr_live: 3,
            pf_mshr_live: 1,
            fetch_stall_until: 55,
        }
    }

    #[test]
    fn watchdog_display_names_every_core_fact() {
        let e = SimError::Watchdog {
            cycle: 10_000,
            idle_cycles: 5_000,
            snapshot: DiagSnapshot {
                cycle: 10_000,
                cores: vec![diag()],
            },
        };
        let s = e.to_string();
        for needle in [
            "watchdog",
            "5000 cycles",
            "cycle 10000",
            "core 0",
            "committed=123",
            "rob=4",
            "seq=9",
            "complete_at=never",
            "mshr=3/1pf",
            "engineq=7",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }

    #[test]
    fn budget_display_names_phase_and_limit() {
        let e = SimError::CycleBudget {
            phase: "warmup",
            cycle: 42,
            limit: 40,
        };
        let s = e.to_string();
        assert!(s.contains("warmup") && s.contains("42") && s.contains("limit 40"));
    }

    #[test]
    fn errors_are_comparable_values() {
        let a = SimError::CycleBudget {
            phase: "measurement",
            cycle: 1,
            limit: 1,
        };
        assert_eq!(a.clone(), a);
    }
}
