//! Random-program stress tests: arbitrary (valid) instruction sequences
//! must run through the full timing pipeline without panics, deadlocks or
//! IPC anomalies, under every prefetcher. Driven by the in-tree
//! deterministic PRNG (`bfetch-prng`); set `BFETCH_PROP_CASES` for more
//! cases.

use bfetch_isa::{Inst, Program, Reg};
use bfetch_prng::{cases, Pcg32};
use bfetch_sim::{PrefetcherKind, SimConfig, SimSession};

/// The old `run_single` contract through the unified session API.
fn run_single(p: &bfetch_isa::Program, cfg: &SimConfig, insts: u64) -> bfetch_sim::RunResult {
    SimSession::new(cfg.clone())
        .instructions(insts)
        .run_one(p)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_single()
}

/// A random but structurally valid instruction.
fn arb_inst(r: &mut Pcg32, len: usize) -> Inst {
    let reg = |r: &mut Pcg32| Reg::from_index(r.gen_range(32) as usize).expect("valid");
    match r.gen_range(10) {
        0 => Inst::Add {
            rd: reg(r),
            ra: reg(r),
            rb: reg(r),
        },
        1 => Inst::Mul {
            rd: reg(r),
            ra: reg(r),
            rb: reg(r),
        },
        2 => Inst::AddI {
            rd: reg(r),
            rs: reg(r),
            imm: r.range_i64(-256, 256),
        },
        3 => Inst::LoadImm {
            rd: reg(r),
            imm: r.range_i64(0, 0x10_0000),
        },
        4 => Inst::Load {
            rd: reg(r),
            base: reg(r),
            offset: r.range_i64(0, 4096),
        },
        5 => Inst::Store {
            rs: reg(r),
            base: reg(r),
            offset: r.range_i64(0, 4096),
        },
        6 => Inst::Beq {
            ra: reg(r),
            rb: reg(r),
            target: r.gen_range(len as u64) as usize,
        },
        7 => Inst::Bne {
            ra: reg(r),
            rb: reg(r),
            target: r.gen_range(len as u64) as usize,
        },
        8 => {
            let rd = reg(r);
            Inst::SllI {
                rd,
                rs: rd,
                sh: r.gen_range(64) as u8,
            }
        }
        _ => Inst::Nop,
    }
}

fn arb_program(r: &mut Pcg32) -> Program {
    let len = r.range(8, 64) as usize;
    let insts = (0..len).map(|_| arb_inst(r, len)).collect();
    Program::new("fuzz", insts, vec![])
}

fn quick(kind: PrefetcherKind) -> SimConfig {
    SimConfig::baseline().with_prefetcher(kind).with_warmup(500)
}

/// Any random program completes its instruction quota with a plausible
/// IPC under the baseline configuration.
#[test]
fn random_programs_complete() {
    for case in 0..cases(48) as u64 {
        let mut rng = Pcg32::new(0x5_1e55_0001 ^ case);
        let p = arb_program(&mut rng);
        let r = run_single(&p, &quick(PrefetcherKind::None), 3_000);
        assert!(r.instructions >= 3_000);
        assert!(r.ipc() > 0.0 && r.ipc() <= 4.0);
    }
}

/// The B-Fetch engine never corrupts execution: committed instruction
/// streams and cycle counts are deterministic, and IPC is not absurd.
#[test]
fn random_programs_with_bfetch() {
    for case in 0..cases(48) as u64 {
        let mut rng = Pcg32::new(0x5_1e55_0002 ^ case);
        let p = arb_program(&mut rng);
        let a = run_single(&p, &quick(PrefetcherKind::BFetch), 2_000);
        let b = run_single(&p, &quick(PrefetcherKind::BFetch), 2_000);
        assert_eq!(a.cycles, b.cycles, "nondeterminism detected");
        assert!(a.ipc() > 0.0 && a.ipc() <= 4.0);
    }
}

/// Every prefetcher survives arbitrary access patterns.
#[test]
fn random_programs_all_prefetchers() {
    for case in 0..cases(48) as u64 {
        let mut rng = Pcg32::new(0x5_1e55_0003 ^ case);
        let p = arb_program(&mut rng);
        let kind = [
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
            PrefetcherKind::BFetch,
            PrefetcherKind::Perfect,
        ][rng.gen_range(4) as usize];
        let r = run_single(&p, &quick(kind), 2_000);
        assert!(r.instructions >= 2_000);
    }
}
