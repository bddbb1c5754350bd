//! Checkpoint/restore for whole CMP runs.
//!
//! A checkpoint is two `bfetch-snapshot` frames. The *state file* holds
//! what changes as the run goes: the configuration, every core's pipeline
//! and predictor state, the full memory hierarchy, and the driver loop's
//! own bookkeeping (cycle count, watchdog deadline, measurement-window
//! baselines, per-core results already banked, and the trace sink when
//! tracing is on). The programs never change, so a run writes them once,
//! into a *program file* beside the first state file
//! ([`program_path`]: `checkpoint.snap` → `checkpoint.prog`), and every
//! state file names it together with its length and CRC-32. A resume needs
//! nothing but the state file's path: it finds the program file from the
//! name, and refuses one whose length or CRC is not the recorded one.
//! Both frames stream to and from disk, the program file a page of data at
//! a time, so neither is ever held whole in memory.
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
//! cache key and the finished results ([`write_results`] /
//! [`decode_results`]; the cache owns naming, locking and quarantine).

use std::convert::Infallible;
use std::ffi::OsStr;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::cmp::{LoopState, RunResult, Snapshot};
use crate::config::{PrefetcherKind, SimConfig};
use crate::core::Core;
use crate::error::SimError;
use bfetch_isa::Program;
use bfetch_mem::{ChipGuard, MemorySystem};
use bfetch_snapshot::{
    Decoder, Encoder, FrameReader, FrameStamp, FrameStream, FrameWriter, Snap, SnapState,
    SnapshotError, Source,
};
use bfetch_stats::trace::{TraceSink, Tracer};

/// Run identity: quota, checkpoint cadence, core count.
const SEC_META: u32 = 1;
/// The full [`SimConfig`].
const SEC_CONFIG: u32 = 2;
/// The per-core programs: the program file's one section.
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
/// The [`ProgramFile`] a state file names.
const SEC_PROGRAM_FILE: u32 = 8;

/// The program file a state file names: its file name in the state file's
/// directory, and its [`FrameStamp`], which a resume checks before it uses
/// a program from the file.
pub(crate) struct ProgramFile {
    name: String,
    stamp: FrameStamp,
}

bfetch_snapshot::impl_snap_struct!(ProgramFile { name, stamp });

/// Where a checkpoint at `state` writes its program file: beside it, with
/// the extension `prog` (`checkpoint.snap` → `checkpoint.prog`,
/// `<hash>.snap` → `<hash>.prog`).
pub fn program_path(state: &Path) -> PathBuf {
    state.with_extension("prog")
}

/// A fully reconstructed run: its identity plus the loop state to
/// re-enter the cycle loop with. Produced by [`read_checkpoint`].
pub(crate) struct ResumeState {
    pub cfg: SimConfig,
    pub programs: Vec<Program>,
    pub program_file: ProgramFile,
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

/// Writes a result-cache entry, `key` and `results` in one frame, to
/// `path` atomically (see [`bfetch_snapshot::write_frame`]).
pub fn write_results(path: &Path, key: &str, results: &[RunResult]) -> Result<(), SnapshotError> {
    let mut w = Encoder::new();
    w.put_len_bytes(key.as_bytes());
    results.len().save(&mut w);
    for r in results {
        w.put_len_bytes(r.prefetcher.as_bytes());
        save_result(r, &mut w);
    }
    bfetch_snapshot::write_frame(path, 1, |f| f.section(SEC_RESULTS, w.as_bytes()))?;
    Ok(())
}

/// Decodes a [`write_results`] frame into its key and results. A frame
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

/// Writes `programs` as the program file beside the state file `state`,
/// streamed a page of data at a time: one section, id 3, holding the bytes
/// the programs section of a single-file checkpoint held. A run writes it
/// once, before its first state file — the crash-ordering rule: a program
/// file is renamed into place before any state file that names it, so a
/// crash in between strands an unnamed program file, never a state file
/// naming a missing one.
pub(crate) fn write_programs(state: &Path, programs: &[Program]) -> Result<ProgramFile, SnapshotError> {
    let path = program_path(state);
    let name = match path.file_name().and_then(OsStr::to_str) {
        Some(name) if path != state => name.to_string(),
        _ => {
            return Err(SnapshotError::Invalid {
                what: "checkpoint name leaves no room for its program file",
            })
        }
    };
    let mut count = Encoder::new();
    programs.len().save(&mut count);
    let mut len = count.len() as u64;
    for p in programs {
        let Ok(()) = p.save_to(|bytes| {
            len += bytes.len() as u64;
            Ok::<_, Infallible>(())
        });
    }
    let stamp = bfetch_snapshot::write_frame(&path, 1, |f| {
        f.begin(SEC_PROGRAMS, len)?;
        f.write(count.as_bytes())?;
        programs.iter().try_for_each(|p| p.save_to(|bytes| f.write(bytes)))
    })?;
    Ok(ProgramFile { name, stamp })
}

/// Reads the program file `file` names beside the state file `state`,
/// through a window, and checks it is the file the state file recorded:
/// its length before reading, its own CRC and the recorded one before any
/// program from it is returned.
fn read_programs(state: &Path, file: &ProgramFile) -> Result<Vec<Program>, SnapshotError> {
    if Path::new(&file.name).file_name() != Some(OsStr::new(&file.name)) {
        return Err(SnapshotError::Invalid { what: "program file name is not a bare file name" });
    }
    let io = |op| move |e: std::io::Error| SnapshotError::Io { op, detail: e.to_string() };
    let other = SnapshotError::Invalid { what: "program file is not the one the checkpoint names" };
    let f = std::fs::File::open(state.with_file_name(&file.name)).map_err(io("open program file"))?;
    if f.metadata().map_err(io("stat program file"))?.len() != file.stamp.len {
        return Err(other);
    }
    let mut s = FrameStream::open(f)?;
    s.section(SEC_PROGRAMS)?;
    let programs = (0..s.take_count(1)?)
        .map(|_| Program::read_from(&mut s))
        .collect::<Result<Vec<_>, _>>()?;
    if s.finish()? != file.stamp {
        return Err(other);
    }
    Ok(programs)
}

/// Encodes one state-file section in `w` and writes it.
fn put_section<W: Write>(
    f: &mut FrameWriter<W>,
    w: &mut Encoder,
    id: u32,
    encode: impl FnOnce(&mut Encoder),
) -> Result<(), SnapshotError> {
    w.clear();
    encode(w);
    f.section(id, w.as_bytes())
}

/// Streams the run's state into a state file at `path`, atomically
/// (pid-tagged tmp sibling + rename), so a reader — including a resume
/// racing a crash — never observes a half-written checkpoint. The state
/// file names `programs`, which must already be in place.
pub(crate) fn write_checkpoint(
    path: &Path,
    cfg: &SimConfig,
    programs: &ProgramFile,
    insts: u64,
    every: u64,
    st: &LoopState,
) -> Result<(), SnapshotError> {
    let mut w = Encoder::new();
    bfetch_snapshot::write_frame(path, 6, |f| {
        put_section(f, &mut w, SEC_META, |w| {
            insts.save(w);
            every.save(w);
            st.cores.len().save(w);
        })?;
        put_section(f, &mut w, SEC_CONFIG, |w| cfg.save(w))?;
        put_section(f, &mut w, SEC_PROGRAM_FILE, |w| programs.save(w))?;
        put_section(f, &mut w, SEC_CORES, |w| {
            for c in &st.cores {
                c.save_state(w);
            }
        })?;
        put_section(f, &mut w, SEC_MEM, |w| {
            for m in &st.mems {
                m.save_state(w);
            }
            st.shared.save_state(w);
            st.guard.save(w);
        })?;
        put_section(f, &mut w, SEC_LOOP, |w| {
            st.now.save(w);
            st.wd_deadline.save(w);
            st.wd_committed.save(w);
            st.frozen.save(w);
            st.snaps.save(w);
            st.finished.len().save(w);
            for slot in &st.finished {
                match slot {
                    Some(r) => {
                        w.put_u8(1);
                        save_result(r, w);
                    }
                    None => w.put_u8(0),
                }
            }
            // A copy of the trace sink, when tracing is enabled and the
            // measurement window has started.
            st.tracer.as_ref().and_then(Tracer::snapshot_sink).save(w);
        })
    })?;
    Ok(())
}

/// Reads and fully validates a checkpoint, reconstructing every simulation
/// component. The embedded configuration is re-validated *before* any
/// constructor runs — and before the program file is opened — so a
/// corrupted config surfaces as a typed error, not a constructor panic;
/// every decoder finishes exactly, so trailing or missing bytes in any
/// section are typed errors too.
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
    cfg.check_cores(n)?;

    let mut record = frame.section(SEC_PROGRAM_FILE)?;
    let program_file = ProgramFile::load(&mut record)?;
    record.finish()?;
    let programs = read_programs(path, &program_file)?;
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
        program_file,
        insts,
        every,
        state,
    })
}
