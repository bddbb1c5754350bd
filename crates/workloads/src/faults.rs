//! The fault-injection workload used by the robustness test suite.
//!
//! [`FAULT_KERNEL`] is a deliberately boring program — a tiny
//! cache-resident counted loop with a perfectly predictable branch — so a
//! fault-injection run spends no time on memory behaviour and the failure
//! fires at a deterministic cycle. The *fault itself* is not encoded in
//! the program (a functional workload cannot livelock the timing model):
//! it is armed through `SimConfig::fault` / watchdog / cycle-budget
//! settings, which [`FaultMode`]'s documentation maps out.
//! [`FAULT_KERNEL`] is intentionally **not** part of [`mod@crate::kernels`]'
//! registry — sweeps over "all kernels" must never pick it up.

use crate::kernels::{Kernel, Scale};
use bfetch_isa::{Program, ProgramBuilder, Reg};

/// How an injected fault should manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic inside the simulator once the trigger count commits
    /// (exercises `catch_unwind` isolation in the harness executor).
    Panic,
    /// Stop committing once the trigger count commits (exercises the
    /// forward-progress watchdog, `SimError::Watchdog`).
    Livelock,
    /// Stop committing with the watchdog disabled, so the hard cycle
    /// budget is the backstop (`SimError::CycleBudget`).
    Runaway,
}

/// A fault-injection plan: the mode plus the committed-instruction count
/// it triggers at. Pair with [`FAULT_KERNEL`]; the harness's
/// `GridPoint::faulty` translates the plan into `SimConfig` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKernel {
    /// How the fault manifests.
    pub mode: FaultMode,
    /// Total committed instructions (warmup included) at which it fires.
    pub at_insts: u64,
}

impl FaultKernel {
    /// The workload to run the fault under.
    pub fn kernel(&self) -> &'static Kernel {
        &FAULT_KERNEL
    }

    /// Builds the (scale-independent) fault-loop program.
    pub fn program(&self) -> Program {
        faultloop(Scale::Small)
    }
}

/// The fault-loop workload: a predictable counted loop over a handful of
/// cache-resident lines. Not registered in [`crate::kernels::kernels`].
pub static FAULT_KERNEL: Kernel = Kernel {
    name: "faultloop",
    prefetch_sensitive: false,
    foa: 0.0,
    build: faultloop,
};

fn faultloop(_scale: Scale) -> Program {
    let mut b = ProgramBuilder::new("faultloop");
    let base = 0x10_0000u64;
    b.li(Reg::R1, base as i64);
    b.li(Reg::R2, 0);
    b.li(Reg::R3, 1_000_000_000); // far beyond any test's quota
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    b.add(Reg::R5, Reg::R5, Reg::R4);
    b.xor(Reg::R6, Reg::R6, Reg::R5);
    b.addi(Reg::R2, Reg::R2, 1);
    b.blt(Reg::R2, Reg::R3, top);
    b.halt();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_isa::ArchState;

    #[test]
    fn fault_kernel_is_not_in_the_registry() {
        assert!(crate::kernels().iter().all(|k| k.name != FAULT_KERNEL.name));
    }

    #[test]
    fn fault_loop_runs_functionally() {
        let p = FaultKernel {
            mode: FaultMode::Panic,
            at_insts: 1,
        }
        .program();
        let mut s = ArchState::new(&p);
        let n = s.run(&p, 50_000);
        assert!(n >= 50_000, "fault loop stopped after {n} instructions");
    }

    #[test]
    fn kernel_builder_matches_program() {
        let fk = FaultKernel {
            mode: FaultMode::Livelock,
            at_insts: 5_000,
        };
        assert_eq!(fk.kernel().name, "faultloop");
        assert_eq!(fk.kernel().build_small().len(), fk.program().len());
    }
}
