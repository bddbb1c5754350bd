//! The `run` functions behind the [registry](crate::registry) entries,
//! grouped by the shape of the experiment: per-kernel speedup tables
//! ([`speedup`]), chip-multiprocessor mixes ([`cmp`]), sweeps whose rows
//! aggregate over kernels ([`sweeps`]), the paper's non-speedup artifacts
//! ([`analysis`]), fan-outs that bypass the result cache ([`direct`],
//! [`cpistack`]), the real-program cross-validation ([`realprog`]), the
//! host-time breakdown ([`profile`]) and the utilities ([`tools`]).
//!
//! Every function takes the dispatch path's [`Ctx`] and prints the
//! figure to stdout; what it prints is pinned byte for byte by the
//! committed `results/<name>.txt`.

pub mod analysis;
pub mod cmp;
pub mod cpistack;
pub mod direct;
pub mod profile;
pub mod realprog;
pub mod speedup;
pub mod sweeps;
pub mod tools;

use crate::report::table;
use crate::{exit_err, Ctx, SweepOutcome, SweepSpec};
use bfetch_core::BFetchConfig;
use bfetch_prefetch::{Isb, Prefetcher, Sms, Stride};
use bfetch_sim::{CpiComponent, CpiStack, PrefetcherKind, SimConfig};
use bfetch_workloads::Kernel;
use std::io::{BufWriter, Write};

/// None vs. stride vs. B-Fetch: what the CPI-stack studies compare.
const CPI_PREFETCHERS: [PrefetcherKind; 3] =
    [PrefetcherKind::None, PrefetcherKind::Stride, PrefetcherKind::BFetch];

/// Display groups for CPI stacks: the three memory levels fold their
/// prefetch-covered halves in.
const GROUPS: [(&str, &[CpiComponent]); 9] = [
    ("base", &[CpiComponent::Base]),
    ("mispred", &[CpiComponent::Mispredict]),
    ("fetch", &[CpiComponent::FetchStall]),
    ("rob", &[CpiComponent::RobFull]),
    ("lsq", &[CpiComponent::LsqFull]),
    ("mshr", &[CpiComponent::MshrFull]),
    ("L2", &[CpiComponent::MemL2, CpiComponent::MemL2Covered]),
    ("L3", &[CpiComponent::MemL3, CpiComponent::MemL3Covered]),
    ("dram", &[CpiComponent::MemDram, CpiComponent::MemDramCovered]),
];

fn group_cpi(stack: &CpiStack, members: &[CpiComponent]) -> f64 {
    members.iter().map(|&c| stack.component_cpi(c)).sum()
}

/// On-chip storage of `kind`'s baseline geometry.
fn storage_kb(kind: PrefetcherKind) -> f64 {
    match kind {
        PrefetcherKind::Stride => Stride::degree8().storage_kb(),
        PrefetcherKind::Sms => Sms::baseline().storage_kb(),
        PrefetcherKind::Isb => Isb::baseline().storage_kb(),
        PrefetcherKind::BFetch => BFetchConfig::baseline().storage_report().total_kb(),
        _ => 0.0,
    }
}

/// Runs the selected kernels under every labelled configuration through
/// the harness; points are labelled `"{kernel}/{name}"`.
fn kernel_sweep(
    ctx: &Ctx,
    cfgs: &[(impl AsRef<str>, SimConfig)],
) -> (Vec<&'static Kernel>, SweepOutcome) {
    let kernels = ctx.opts.selected_kernels();
    let mut spec = SweepSpec::new();
    spec.push_grid(&kernels, cfgs, ctx.opts.instructions, ctx.opts.scale);
    let out = ctx.harness().run(&spec).or_fail();
    (kernels, out)
}

/// Writes the sidecar file a flag asked for (`--trace`, `--timeline`)
/// through `body`; an I/O error ends the figure with status 1.
fn write_sidecar(
    path: &std::path::Path,
    body: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) {
    let written = std::fs::File::create(path).map(BufWriter::new).and_then(|mut out| {
        body(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        exit_err(format_args!("writing {}: {e}", path.display()));
    }
}
