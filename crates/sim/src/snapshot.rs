//! Checkpoint/restore for whole CMP runs.
//!
//! A checkpoint is one `bfetch-snapshot` frame holding everything a run
//! needs to continue: the configuration and programs (so a resume needs
//! nothing but the file), every core's pipeline and predictor state, the
//! full memory hierarchy, and the driver loop's own bookkeeping (cycle
//! count, watchdog deadline, measurement-window baselines, per-core
//! results already banked, and the trace sink when tracing is on).
//!
//! Checkpoints are taken at the top of the cycle loop — before the
//! cycle-start [`drain_chip`](bfetch_mem::drain_chip) — where the loop's
//! [`LoopState`] is the whole machine: every queued fill completes at or
//! after the cycle about to run (fills complete strictly in the future and
//! the previous cycle's drain installed everything due before it), no core
//! is mid-step, and the per-core feedback queues and scheduled-minimum
//! notes were emptied by the previous cycle's stepping pass. A run resumed
//! from a checkpoint therefore re-enters the loop in exactly the state the
//! uninterrupted run had at that cycle and produces byte-identical results
//! (see DESIGN.md §15).
//!
//! Corruption never propagates: the frame's magic/version/length/checksum
//! layers plus per-field validation on load turn any truncated or
//! bit-flipped file into a typed
//! [`SnapshotError`](bfetch_snapshot::SnapshotError).
//!
//! A result-cache entry is the same kind of frame with one section: the
//! cache key and the finished results ([`encode_results`] /
//! [`decode_results`]; the cache owns the file handling).

use std::path::Path;

use crate::cmp::{LoopState, RunResult, Snapshot};
use crate::config::{PrefetcherKind, SimConfig};
use crate::core::Core;
use crate::error::SimError;
use bfetch_isa::Program;
use bfetch_mem::{ChipGuard, MemorySystem};
use bfetch_snapshot::{
    Decoder, Encoder, FrameReader, FrameWriter, Snap, SnapState, SnapshotError,
};
use bfetch_stats::trace::{TraceSink, Tracer};

/// Run identity: quota, checkpoint cadence, core count.
const SEC_META: u32 = 1;
/// The full [`SimConfig`].
const SEC_CONFIG: u32 = 2;
/// The per-core programs.
const SEC_PROGRAMS: u32 = 3;
/// Every core's pipeline/predictor/engine state, in core order.
const SEC_CORES: u32 = 4;
/// The memory hierarchy: per-core levels, shared levels, chip guard.
const SEC_MEM: u32 = 5;
/// The driver loop's bookkeeping (cycle, watchdog, window, results).
const SEC_LOOP: u32 = 6;
/// A result-cache entry: its key, then each result's prefetcher name and
/// [`save_result`] encoding.
const SEC_RESULTS: u32 = 7;

/// A fully reconstructed run: its identity plus the loop state to
/// re-enter the cycle loop with. Produced by [`read_checkpoint`].
pub(crate) struct ResumeState {
    pub cfg: SimConfig,
    pub programs: Vec<Program>,
    pub insts: u64,
    pub every: u64,
    pub state: LoopState,
}

// `RunResult::prefetcher` is a &'static str the loader supplies: the
// config's in a checkpoint, the interned stored name in a cache entry.
fn save_result(r: &RunResult, w: &mut Encoder) {
    r.workload.save(w);
    r.cycles.save(w);
    r.instructions.save(w);
    r.mem.save(w);
    r.cond_branches.save(w);
    r.mispredicts.save(w);
    r.branch_fetch_hist.save(w);
    r.engine.save(w);
    r.pf_metadata_bytes.save(w);
    r.cpi.save(w);
}

fn load_result(r: &mut Decoder<'_>, prefetcher: &'static str) -> Result<RunResult, SnapshotError> {
    Ok(RunResult {
        workload: String::load(r)?,
        prefetcher,
        cycles: u64::load(r)?,
        instructions: u64::load(r)?,
        mem: Snap::load(r)?,
        cond_branches: u64::load(r)?,
        mispredicts: u64::load(r)?,
        branch_fetch_hist: Snap::load(r)?,
        engine: Snap::load(r)?,
        pf_metadata_bytes: u64::load(r)?,
        cpi: Snap::load(r)?,
    })
}

/// Encodes a result-cache entry: `key` and `results` in one frame.
pub fn encode_results(key: &str, results: &[RunResult]) -> Vec<u8> {
    let mut w = Encoder::new();
    w.put_len_bytes(key.as_bytes());
    results.len().save(&mut w);
    for r in results {
        w.put_len_bytes(r.prefetcher.as_bytes());
        save_result(r, &mut w);
    }
    let mut frame = FrameWriter::new();
    frame.add(SEC_RESULTS, w);
    frame.finish()
}

/// Decodes an [`encode_results`] frame into its key and results. A frame
/// of another schema is [`SnapshotError::BadVersion`]; a prefetcher name
/// no [`PrefetcherKind`] has is [`SnapshotError::Invalid`].
pub fn decode_results(bytes: &[u8]) -> Result<(String, Vec<RunResult>), SnapshotError> {
    let frame = FrameReader::parse(bytes)?;
    let mut r = frame.section(SEC_RESULTS)?;
    let key = String::load(&mut r)?;
    let n = r.take_len()?;
    let mut results = Vec::new();
    for _ in 0..n {
        let name = String::load(&mut r)?;
        let prefetcher = PrefetcherKind::static_name(&name)
            .ok_or(SnapshotError::Invalid { what: "unknown prefetcher name" })?;
        results.push(load_result(&mut r, prefetcher)?);
    }
    r.finish()?;
    Ok((key, results))
}

/// Serializes the whole run into a frame and writes it to `path`
/// atomically (pid-tagged tmp sibling + rename), so a reader — including
/// a resume racing a crash — never observes a half-written checkpoint.
pub(crate) fn write_checkpoint(
    path: &Path,
    cfg: &SimConfig,
    programs: &[Program],
    insts: u64,
    every: u64,
    st: &LoopState,
) -> Result<(), SnapshotError> {
    let mut frame = FrameWriter::new();

    let mut meta = Encoder::new();
    insts.save(&mut meta);
    every.save(&mut meta);
    st.cores.len().save(&mut meta);
    frame.add(SEC_META, meta);

    let mut config = Encoder::new();
    cfg.save(&mut config);
    frame.add(SEC_CONFIG, config);

    let mut progs = Encoder::new();
    bfetch_snapshot::save_slice(programs, &mut progs);
    frame.add(SEC_PROGRAMS, progs);

    let mut cs = Encoder::new();
    for c in &st.cores {
        c.save_state(&mut cs);
    }
    frame.add(SEC_CORES, cs);

    let mut mem = Encoder::new();
    for m in &st.mems {
        m.save_state(&mut mem);
    }
    st.shared.save_state(&mut mem);
    st.guard.save(&mut mem);
    frame.add(SEC_MEM, mem);

    let mut lp = Encoder::new();
    st.now.save(&mut lp);
    st.wd_deadline.save(&mut lp);
    st.wd_committed.save(&mut lp);
    st.frozen.save(&mut lp);
    st.snaps.save(&mut lp);
    st.finished.len().save(&mut lp);
    for f in &st.finished {
        match f {
            Some(r) => {
                lp.put_u8(1);
                save_result(r, &mut lp);
            }
            None => lp.put_u8(0),
        }
    }
    // A copy of the trace sink, when tracing is enabled and the
    // measurement window has started.
    st.tracer.as_ref().and_then(Tracer::snapshot_sink).save(&mut lp);
    frame.add(SEC_LOOP, lp);

    bfetch_snapshot::write_file_atomic(path, &frame.finish())
}

/// Reads and fully validates a checkpoint, reconstructing every simulation
/// component. The embedded configuration is re-validated *before* any
/// constructor runs, so a corrupted config surfaces as a typed error, not
/// a constructor panic; every decoder finishes exactly, so trailing or
/// missing bytes in any section are typed errors too.
pub(crate) fn read_checkpoint(path: &Path) -> Result<ResumeState, SimError> {
    let bytes = bfetch_snapshot::read_file(path)?;
    let frame = FrameReader::parse(&bytes)?;

    let mut meta = frame.section(SEC_META)?;
    let insts = u64::load(&mut meta)?;
    let every = u64::load(&mut meta)?;
    let n = usize::load(&mut meta)?;
    meta.finish()?;
    if insts == 0 || n == 0 {
        return Err(SnapshotError::Invalid { what: "empty run in checkpoint meta" }.into());
    }

    let mut config = frame.section(SEC_CONFIG)?;
    let cfg = SimConfig::load(&mut config)?;
    config.finish()?;
    cfg.validate()?;

    let mut progs = frame.section(SEC_PROGRAMS)?;
    let programs = Vec::<Program>::load(&mut progs)?;
    progs.finish()?;
    if programs.len() != n {
        return Err(SnapshotError::Invalid { what: "program count mismatch" }.into());
    }

    let mut cs = frame.section(SEC_CORES)?;
    let mut cores: Vec<Core> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| Core::new(i, p.clone(), &cfg))
        .collect();
    for c in cores.iter_mut() {
        c.load_state(&mut cs)?;
    }
    cs.finish()?;

    let mut mem = frame.section(SEC_MEM)?;
    let (mut mems, mut shared) = MemorySystem::new(cfg.hierarchy(n)).into_parts();
    for m in mems.iter_mut() {
        m.load_state(&mut mem)?;
    }
    shared.load_state(&mut mem)?;
    let guard = ChipGuard::load(&mut mem)?;
    mem.finish()?;

    let mut lp = frame.section(SEC_LOOP)?;
    let now = u64::load(&mut lp)?;
    let wd_deadline = u64::load(&mut lp)?;
    let wd_committed = u64::load(&mut lp)?;
    let frozen = bool::load(&mut lp)?;
    let snaps = Option::<Vec<Snapshot>>::load(&mut lp)?;
    if let Some(s) = &snaps {
        if s.len() != n {
            return Err(SnapshotError::Invalid { what: "window baseline count mismatch" }.into());
        }
    }
    let n_finished = usize::load(&mut lp)?;
    if n_finished != n {
        return Err(SnapshotError::Invalid { what: "result slot count mismatch" }.into());
    }
    let mut finished = Vec::with_capacity(n);
    for _ in 0..n {
        finished.push(match lp.take_u8()? {
            0 => None,
            1 => Some(load_result(&mut lp, cfg.prefetcher.name())?),
            _ => return Err(SnapshotError::Invalid { what: "result presence flag" }.into()),
        });
    }
    if snaps.is_none() && finished.iter().any(Option::is_some) {
        return Err(SnapshotError::Invalid { what: "results banked before measurement" }.into());
    }
    let trace_sink = Option::<TraceSink>::load(&mut lp)?;
    lp.finish()?;

    let mut state = LoopState {
        cores,
        mems,
        shared,
        guard,
        now,
        wd_deadline,
        wd_committed,
        frozen,
        snaps,
        finished,
        tracer: None,
    };
    // The tracer handle is reconstructed (it holds an `Rc`, not
    // serializable state) and the saved sink contents are poured back in,
    // so a resumed traced run continues the same event ring and lifecycle
    // tallies.
    if let (true, Some(sink)) = (cfg.trace.enabled, trace_sink) {
        let t = Tracer::enabled(&cfg.trace);
        t.restore_sink(sink);
        state.install_tracer(t);
    }

    Ok(ResumeState {
        cfg,
        programs,
        insts,
        every,
        state,
    })
}
