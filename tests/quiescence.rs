//! Quiescent-cycle skipping is cycle-exact (DESIGN.md §13.5): a core whose
//! `wake_at` lies in the future can be left unstepped, charged only the
//! idle side effects `skip_idle` reproduces.
//!
//! The reference here is the stepping the hot-path microbenches drive:
//! `drain_chip` plus the full `Core::cycle` through `SeqMem`, every cycle.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bfetch::core::EngineStats;
use bfetch::isa::Program;
use bfetch::mem::{drain_chip, ChipGuard, CoreMem, CoreProbe, MemStats, MemorySystem, SharedMem};
use bfetch::sim::{
    Core, CoreCounters, CoreDiag, CpiConfig, CpiStack, PrefetcherKind, RunOutput, SeqMem,
    SimConfig, SimError, SimSession,
};
use bfetch::workloads::{kernel_by_name, kernels, select_mixes};

/// Cycles each configuration is stepped for: a dozen port-ring sweeps and,
/// on cold caches, hundreds of DRAM stalls.
const CYCLES: u64 = 12 * 1024;
/// CPI accounting switches on here, so both halves of a run are covered.
/// A 1024-cycle boundary: `wake_at` never sleeps across one.
const CPI_FROM: u64 = 4 * 1024;

const PREFETCHERS: [PrefetcherKind; 5] = [
    PrefetcherKind::None,
    PrefetcherKind::Stride,
    PrefetcherKind::Sms,
    PrefetcherKind::BFetch,
    PrefetcherKind::Perfect,
];

/// Everything about one core a run can observe.
#[derive(Debug, Clone, PartialEq)]
struct View {
    counters: CoreCounters,
    diag: CoreDiag,
    mem: MemStats,
    engine: Option<EngineStats>,
    cpi: Option<CpiStack>,
}

impl View {
    fn of(core: &Core, mem: &CoreMem) -> Self {
        Self {
            counters: *core.counters(),
            diag: core.diag(&CoreProbe(mem)),
            mem: *mem.stats(),
            engine: core.engine().map(|e| *e.stats()),
            cpi: core.cpi_stack().copied(),
        }
    }

    /// The view with the two things an idle cycle moves blanked out.
    fn sans_idle_effects(mut self) -> Self {
        self.counters.branch_fetch_hist[0] = 0;
        self.cpi = None;
        self
    }
}

/// One chip, hand-driven the way the cycle loop drives it.
struct Machine {
    cores: Vec<Core>,
    mems: Vec<CoreMem>,
    shared: SharedMem,
    guard: ChipGuard,
}

impl Machine {
    fn new(programs: &[Program], cfg: &SimConfig) -> Self {
        let (mems, shared) = MemorySystem::new(cfg.hierarchy(programs.len())).into_parts();
        Self {
            cores: programs
                .iter()
                .enumerate()
                .map(|(i, p)| Core::new(i, p.clone(), cfg))
                .collect(),
            mems,
            shared,
            guard: ChipGuard::new(),
        }
    }

    fn start_of_cycle(&mut self, now: u64) {
        if now == CPI_FROM {
            let cpi = CpiConfig {
                enabled: true,
                timeline_interval: 64,
            };
            for (c, m) in self.cores.iter_mut().zip(&self.mems) {
                c.enable_cpi(&cpi, &CoreProbe(m));
            }
        }
        drain_chip(&mut self.mems, &mut self.shared, now, &mut self.guard);
    }

    fn full_step(&mut self, i: usize, now: u64) {
        let (c, m) = (&mut self.cores[i], &mut self.mems[i]);
        c.cycle(now, &mut SeqMem::new(m, &mut self.shared));
        self.guard.note(m.take_sched_min());
    }

    fn take_feedback(&mut self, i: usize) {
        let (c, m) = (&mut self.cores[i], &mut self.mems[i]);
        m.drain_feedback(|fb| c.feedback(fb.pc_hash, fb.useful));
    }

    fn view(&self, i: usize) -> View {
        View::of(&self.cores[i], &self.mems[i])
    }
}

/// Steps two copies of one chip side by side for `CYCLES` cycles. The
/// reference runs the full `Core::cycle` every cycle and checks that a
/// cycle before `wake_at` changes nothing but the idle side effects. The
/// other copy sleeps each core until its wake time, charging the whole
/// stretch with one `skip_idle` call, and must present the identical view
/// — `branch_fetch_hist[0]` and CPI stack included — whenever it wakes.
/// Returns how many core-cycles were slept through.
fn check_against_reference(label: &str, programs: &[Program], cfg: &SimConfig) -> u64 {
    let mut reference = Machine::new(programs, cfg);
    let mut skipping = Machine::new(programs, cfg);
    let mut asleep_until = vec![0u64; programs.len()];
    let mut slept = 0;
    for now in 0..CYCLES {
        reference.start_of_cycle(now);
        skipping.start_of_cycle(now);
        for (i, asleep_until) in asleep_until.iter_mut().enumerate() {
            let before = reference.view(i);
            let idle = reference.cores[i].wake_at(now) > now;
            reference.full_step(i, now);
            if idle {
                assert_eq!(
                    before.clone().sans_idle_effects(),
                    reference.view(i).sans_idle_effects(),
                    "{label}: core {i} cycle {now} lies before wake_at yet did work"
                );
            }
            reference.take_feedback(i);

            if *asleep_until > now {
                slept += 1;
            } else {
                assert_eq!(
                    before,
                    skipping.view(i),
                    "{label}: core {i} woke at cycle {now} in a different state"
                );
                skipping.full_step(i, now);
                let wake = skipping.cores[i].wake_at(now + 1);
                if wake > now + 1 {
                    skipping.cores[i].skip_idle(now + 1, wake);
                }
                *asleep_until = wake;
            }
            // asleep or not, a core takes its feedback every cycle: the
            // chip drain may have evicted one of its unused prefetches
            skipping.take_feedback(i);
        }
    }
    slept
}

fn cfg(kind: PrefetcherKind) -> SimConfig {
    SimConfig::baseline().with_prefetcher(kind)
}

#[test]
fn cycles_before_wake_at_change_nothing_but_idle_effects() {
    let mut slept = 0;
    for k in kernels() {
        let p = k.build_small();
        for kind in PREFETCHERS {
            let label = format!("{}/{}", k.name, kind.name());
            slept += check_against_reference(&label, std::slice::from_ref(&p), &cfg(kind));
        }
    }
    // the property is vacuous if nothing ever sleeps
    let stepped = CYCLES * (kernels().len() * PREFETCHERS.len()) as u64;
    assert!(
        slept > stepped / 10,
        "only {slept} of {stepped} core-cycles slept"
    );
}

#[test]
fn a_sleeping_core_on_a_busy_chip_stays_exact() {
    let mix = &select_mixes(4, 1)[0];
    let programs: Vec<Program> = mix.members.iter().map(|k| k.build_small()).collect();
    let slept = check_against_reference("mix4/bfetch", &programs, &cfg(PrefetcherKind::BFetch));
    assert!(slept > 0, "no core of the mix ever slept");
}

/// Runs `session` to completion, interrupting it at every 1024-cycle poll
/// point and resuming from the checkpoint it wrote; returns the output and
/// the cycles it was interrupted at.
fn run_interrupted_everywhere(
    session: SimSession,
    program: &Program,
    ckpt: &Path,
) -> (RunOutput, Vec<u64>) {
    let armed = || Arc::new(AtomicBool::new(true));
    let mut cycles = Vec::new();
    let mut out = session.stop_flag(armed()).run_one(program);
    loop {
        match out {
            Ok(o) => return (o, cycles),
            Err(SimError::Interrupted { cycle }) => {
                cycles.push(cycle);
                assert!(cycles.len() < 10_000, "run never finishes");
                out = SimSession::resume_with_stop(ckpt, armed());
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// The poll points `1024..limit` that fall inside a stall: the core slept
/// through the cycle before the boundary and goes straight back to sleep
/// after the sweep the boundary forces on it.
fn mid_stall_poll_points(program: &Program, cfg: &SimConfig, limit: u64) -> Vec<u64> {
    let mut m = Machine::new(std::slice::from_ref(program), cfg);
    let mut found = Vec::new();
    let mut slept_last_cycle = false;
    for now in 0..limit {
        drain_chip(&mut m.mems, &mut m.shared, now, &mut m.guard);
        let asleep = m.cores[0].wake_at(now) > now;
        m.full_step(0, now);
        m.take_feedback(0);
        if now > 0 && now % 1024 == 0 && slept_last_cycle && m.cores[0].wake_at(now + 1) > now + 1 {
            found.push(now);
        }
        slept_last_cycle = asleep;
    }
    found
}

#[test]
fn checkpoint_in_the_middle_of_a_stall_resumes_to_the_fresh_result() {
    // mcf without a prefetcher is the stall-dominated case the skip exists
    // for; CPI accounting and tracing both ride through the checkpoint
    let p = kernel_by_name("mcf")
        .expect("kernel registered")
        .build_small();
    let mut c = cfg(PrefetcherKind::None);
    c.warmup_insts = 1_000;
    c.cpi.timeline_interval = 500;
    let session = || {
        SimSession::new(c.clone())
            .trace(true)
            .cpi(true)
            .instructions(4_000)
    };
    let fresh = session().run_one(&p).unwrap();

    let dir = std::env::temp_dir().join(format!("bfetch-quiescence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (resumed, interrupted_at) = run_interrupted_everywhere(
        session().checkpoint_every(0, &dir),
        &p,
        &dir.join("checkpoint.snap"),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let last = *interrupted_at.last().expect("run crosses a poll point");
    let mid_stall = mid_stall_poll_points(&p, &c, last + 1);
    assert!(
        mid_stall.iter().any(|b| interrupted_at.contains(b)),
        "no checkpoint fell inside a stall: interrupted at {interrupted_at:?}"
    );
    assert_eq!(fresh.results, resumed.results);
    assert_eq!(fresh.timeline, resumed.timeline);
    let (a, b) = (fresh.trace.expect("traced"), resumed.trace.expect("traced"));
    assert_eq!(a.events, b.events);
    assert_eq!(a.lifecycle, b.lifecycle);
}
