//! The B-Fetch prefetch pipeline (Figure 4).

use crate::arf::AlternateRegisterFile;
use crate::bb_key;
use crate::brtc::{BrTcEntry, BranchTraceCache};
use crate::config::{BFetchConfig, StorageReport};
use crate::filter::PerLoadFilter;
use crate::mht::MemoryHistoryTable;
use bfetch_bpred::{CompositeConfidence, DirectionPredictor, PathConfidence, SpeculativeCursor};
use bfetch_mem::probe::find_line;
use bfetch_mem::{line_of, LINE_BYTES};
use bfetch_stats::trace::{DropReason, TraceKind, Tracer};
use std::collections::VecDeque;

/// A branch handed from the main pipeline's decode stage to the Decoded
/// Branch Register (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedBranch {
    /// Branch byte PC.
    pub pc: u64,
    /// Direction predicted by the main pipeline.
    pub predicted_taken: bool,
    /// Taken-target byte PC.
    pub taken_target: u64,
    /// Fall-through byte PC.
    pub fallthrough: u64,
    /// Whether the branch is conditional.
    pub is_cond: bool,
    /// Global history bits *before* this branch's outcome was shifted in.
    pub ghr_before: u64,
    /// Composite confidence of the main pipeline's prediction for this
    /// branch.
    pub confidence: f64,
}

/// A filtered prefetch candidate emitted by the Prefetch Calculate stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchCandidate {
    /// Virtual address to prefetch.
    pub addr: u64,
    /// 10-bit load-PC hash for L1D tagging / filter training.
    pub pc_hash: u16,
}

/// Counters describing the engine's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Lookahead walks started (one per DBR entry consumed).
    pub lookaheads: u64,
    /// Total branches traversed across all walks.
    pub branches_walked: u64,
    /// Walks stopped by the path-confidence threshold.
    pub confidence_stops: u64,
    /// Walks stopped by a BrTC miss (unexplored control flow).
    pub brtc_stops: u64,
    /// Walks that hit the hard depth cap.
    pub depth_stops: u64,
    /// Candidates that passed the per-load filter.
    pub candidates: u64,
    /// Candidates suppressed by the per-load filter.
    pub filtered: u64,
    /// Candidates dropped because the prefetch queue was full.
    pub queue_overflow: u64,
    /// Decoded branches dropped because the DBR was full.
    pub dbr_dropped: u64,
}

impl EngineStats {
    /// Mean lookahead depth in branches (the paper reports ~8 BB at the
    /// 0.75 threshold).
    pub fn mean_depth(&self) -> f64 {
        if self.lookaheads == 0 {
            0.0
        } else {
            self.branches_walked as f64 / self.lookaheads as f64
        }
    }

    /// Field-wise difference `self − earlier` (measurement windows).
    pub fn delta(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            lookaheads: self.lookaheads - earlier.lookaheads,
            branches_walked: self.branches_walked - earlier.branches_walked,
            confidence_stops: self.confidence_stops - earlier.confidence_stops,
            brtc_stops: self.brtc_stops - earlier.brtc_stops,
            depth_stops: self.depth_stops - earlier.depth_stops,
            candidates: self.candidates - earlier.candidates,
            filtered: self.filtered - earlier.filtered,
            queue_overflow: self.queue_overflow - earlier.queue_overflow,
            dbr_dropped: self.dbr_dropped - earlier.dbr_dropped,
        }
    }
}

/// The complete B-Fetch engine for one core.
///
/// See the [crate docs](crate) for the pipeline overview. The embedding
/// simulator (constructed through `SimConfig::with_bfetch` in
/// `bfetch-sim`) drives it with hooks grouped by pipeline stage:
///
/// * [`BFetchEngine::on_branch_decoded`] — decode-side DBR fill;
/// * [`BFetchEngine::post_regwrite`] / [`BFetchEngine::tick`] — execute-side
///   ARF sampling and the per-cycle lookahead step;
/// * [`BFetchEngine::on_commit_branch`] / [`BFetchEngine::on_commit_load`]
///   — commit-side learning;
/// * [`BFetchEngine::on_feedback`] — L1D prefetch-usefulness feedback;
/// * [`BFetchEngine::pop_prefetches`] / [`BFetchEngine::pop_inst_prefetches`]
///   — drain the bounded prefetch queues.
///
/// With a live tracer installed ([`BFetchEngine::set_tracer`]) the engine
/// reports candidates it discards — per-load-filter rejections and queue
/// overflow — as `prefetch_dropped` trace events; benign de-duplication
/// against already-queued lines is not an event.
#[derive(Debug)]
pub struct BFetchEngine {
    cfg: BFetchConfig,
    brtc: BranchTraceCache,
    mht: MemoryHistoryTable,
    arf: AlternateRegisterFile,
    filter: PerLoadFilter,
    dbr: VecDeque<DecodedBranch>,
    queue: VecDeque<PrefetchCandidate>,
    // the queued candidates' line addresses, mirrored in push/drain order,
    // so the per-candidate dedup check is a flat chunked `find_line` scan
    // instead of an O(queue) `line_of` recomputation per element — the
    // single hottest comparison loop in a deep lookahead walk
    queue_lines: VecDeque<u64>,
    iqueue: VecDeque<u64>,
    last_branch: Option<(u64, bool, u64)>, // (pc, taken, actual target)
    cur_bb: Option<(u64, u64)>,            // (key, branch pc)
    bb_snapshot: [u64; 32],
    // small CAM of recently queued lines: consecutive lookahead walks
    // largely re-derive the same window, and re-issuing those lines would
    // waste prefetch-port bandwidth on hierarchy-side redundancy drops
    recent_lines: [u64; 64],
    recent_pos: usize,
    // per-walk scratch, reused across calls so the per-cycle path never
    // allocates once warm (DESIGN.md "Performance engineering")
    slot_scratch: Vec<crate::mht::MhtSlot>,
    visit_scratch: Vec<(u64, u32)>, // (bb key, visit count) for loop detection
    stats: EngineStats,
    tracer: Tracer,
}

impl BFetchEngine {
    /// Builds an engine with the given configuration.
    pub fn new(cfg: BFetchConfig) -> Self {
        Self {
            brtc: BranchTraceCache::new(cfg.brtc_entries),
            mht: MemoryHistoryTable::new(cfg.mht_entries, cfg.mht_slots),
            arf: AlternateRegisterFile::new(cfg.arf_sampling_delay),
            filter: PerLoadFilter::new(cfg.filter_entries, cfg.filter_threshold),
            dbr: VecDeque::with_capacity(cfg.dbr_entries),
            queue: VecDeque::with_capacity(cfg.queue_entries),
            queue_lines: VecDeque::with_capacity(cfg.queue_entries),
            iqueue: VecDeque::with_capacity(cfg.queue_entries),
            last_branch: None,
            cur_bb: None,
            bb_snapshot: [0; 32],
            recent_lines: [u64::MAX; 64],
            recent_pos: 0,
            slot_scratch: Vec::with_capacity(cfg.mht_slots),
            visit_scratch: Vec::with_capacity(8),
            stats: EngineStats::default(),
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Installs the trace handle (pre-stamped with this engine's core).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The configuration in use.
    pub fn config(&self) -> &BFetchConfig {
        &self.cfg
    }

    /// Engine behaviour counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The Table I storage breakdown for this configuration.
    pub fn storage_report(&self) -> StorageReport {
        self.cfg.storage_report()
    }

    // ---- decode side -----------------------------------------------------

    /// Delivers a decoded branch into the DBR, dropping the oldest entry if
    /// the register is full.
    pub fn on_branch_decoded(&mut self, db: DecodedBranch) {
        if self.dbr.len() >= self.cfg.dbr_entries {
            self.dbr.pop_front();
            self.stats.dbr_dropped += 1;
        }
        self.dbr.push_back(db);
    }

    // ---- execute side ----------------------------------------------------

    /// Posts an execute-stage register writeback toward the ARF sampling
    /// latches.
    pub fn post_regwrite(&mut self, reg: usize, value: u64, seq: u64, now: u64) {
        self.arf.post_write(reg, value, seq, now);
    }

    /// Runs one engine cycle at time `now`: applies matured ARF writes and,
    /// if a decoded branch is waiting, performs one full lookahead walk
    /// (the three pipeline stages are modelled as a one-walk-per-cycle
    /// throughput, matching the paper's one-branch-per-cycle lookahead
    /// rate across walks).
    pub fn tick(&mut self, now: u64, bp: &dyn DirectionPredictor, conf: &CompositeConfidence) {
        self.arf.apply(now);
        let Some(db) = self.dbr.pop_front() else {
            return;
        };
        self.lookahead(db, bp, conf, now);
    }

    fn push_candidate(&mut self, addr: u64, pc_hash: u16, now: u64) {
        debug_assert_eq!(self.queue.len(), self.queue_lines.len());
        let line = line_of(addr);
        if find_line(&self.recent_lines, line).is_some() {
            return; // queued or issued moments ago
        }
        if deque_contains_line(&self.queue_lines, line) {
            return; // already queued
        }
        if self.queue.len() >= self.cfg.queue_entries {
            self.stats.queue_overflow += 1;
            self.tracer.emit(
                now,
                TraceKind::PrefetchDropped {
                    line,
                    pc_hash,
                    reason: DropReason::QueueFull,
                },
            );
            return;
        }
        self.stats.candidates += 1;
        self.recent_lines[self.recent_pos] = line;
        self.recent_pos = (self.recent_pos + 1) % self.recent_lines.len();
        self.queue.push_back(PrefetchCandidate { addr, pc_hash });
        self.queue_lines.push_back(line);
    }

    fn emit_for_block(&mut self, key: u64, branch_pc: u64, loop_cnt: u32, now: u64) {
        // copy the valid slots into the reusable scratch buffer (disjoint
        // field borrows: `mht` is read while `slot_scratch` is written)
        self.slot_scratch.clear();
        match self.mht.lookup(key, branch_pc) {
            Some(slots) => self
                .slot_scratch
                .extend(slots.iter().filter(|s| s.valid).copied()),
            None => return,
        }
        let effective_loop_cnt = if self.cfg.enable_loops { loop_cnt } else { 0 };
        for i in 0..self.slot_scratch.len() {
            let s = self.slot_scratch[i];
            let base = s.prefetch_address(self.arf.read(s.reg_idx as usize), effective_loop_cnt);
            if self.cfg.enable_filter && !self.filter.allow(s.load_pc_hash) {
                self.stats.filtered += 1;
                self.tracer.emit(
                    now,
                    TraceKind::PrefetchDropped {
                        line: line_of(base),
                        pc_hash: s.load_pc_hash,
                        reason: DropReason::Filter,
                    },
                );
                continue;
            }
            self.push_candidate(base, s.load_pc_hash, now);
            if !self.cfg.enable_patt {
                continue;
            }
            for b in 0..5u32 {
                if s.pos_patt & (1 << b) != 0 {
                    self.push_candidate(
                        base.wrapping_add((b as u64 + 1) * LINE_BYTES),
                        s.load_pc_hash,
                        now,
                    );
                }
                if s.neg_patt & (1 << b) != 0 {
                    self.push_candidate(
                        base.wrapping_sub((b as u64 + 1) * LINE_BYTES),
                        s.load_pc_hash,
                        now,
                    );
                }
            }
        }
    }

    fn lookahead(
        &mut self,
        db: DecodedBranch,
        bp: &dyn DirectionPredictor,
        conf: &CompositeConfidence,
        now: u64,
    ) {
        self.stats.lookaheads += 1;
        let mut path = PathConfidence::new(self.cfg.confidence_threshold);
        if db.is_cond && !path.extend(db.confidence) {
            self.stats.confidence_stops += 1;
            return;
        }

        // the speculative history mirrors the main pipeline's GHR, which
        // records conditional outcomes only
        let mut cursor = SpeculativeCursor::new(db.ghr_before);
        if db.is_cond {
            cursor.advance(db.predicted_taken);
        }

        let mut cur_pc = db.pc;
        let mut cur_taken = if db.is_cond { db.predicted_taken } else { true };
        let mut cur_target = if cur_taken {
            db.taken_target
        } else {
            db.fallthrough
        };
        // (key, visit count) pairs for runtime loop detection, in the
        // reusable per-walk scratch buffer
        self.visit_scratch.clear();

        for depth in 0..self.cfg.max_lookahead {
            let key = bb_key(cur_pc, cur_taken, cur_target);
            let loop_cnt = match self.visit_scratch.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => {
                    *n = (*n + 1).min(self.cfg.loop_cnt_max);
                    *n
                }
                None => {
                    self.visit_scratch.push((key, 0));
                    0
                }
            };
            self.emit_for_block(key, cur_pc, loop_cnt, now);
            self.stats.branches_walked += 1;

            let Some(BrTcEntry {
                next_branch_pc,
                next_taken_target,
                next_is_cond,
            }) = self.brtc.lookup(cur_pc, cur_taken, cur_target)
            else {
                self.stats.brtc_stops += 1;
                return;
            };
            if self.cfg.inst_prefetch {
                // the block spans [entry target, terminating branch]:
                // prefetch its instruction lines ahead of the front end
                let mut l = cur_target & !63;
                let end = next_branch_pc & !63;
                let mut lines = 0;
                while l <= end && lines < 8 {
                    self.push_inst_candidate(l);
                    l += 64;
                    lines += 1;
                }
            }

            // Both possible next-block keys are known the moment the BrTC
            // entry returns, but the walk won't probe either table until
            // the direction predictor and confidence estimator below have
            // run — hint both so the entry lines are in flight behind that
            // work. Pure cache hints, no architectural effect.
            let key_t = bb_key(next_branch_pc, true, next_taken_target);
            self.mht.prefetch_hint(key_t);
            self.brtc.prefetch_hint(key_t);
            if next_is_cond {
                let key_n = bb_key(next_branch_pc, false, next_branch_pc + 4);
                self.mht.prefetch_hint(key_n);
                self.brtc.prefetch_hint(key_n);
            }

            if next_is_cond {
                let ghr_before = cursor.ghr();
                let pred = cursor.predict_and_advance(bp, next_branch_pc);
                let c = conf.estimate(next_branch_pc, ghr_before, pred.strength);
                if !path.extend(c) {
                    self.stats.confidence_stops += 1;
                    return;
                }
                cur_taken = pred.taken;
            } else {
                cur_taken = true;
            }
            cur_target = if cur_taken {
                next_taken_target
            } else {
                next_branch_pc + 4
            };
            cur_pc = next_branch_pc;
            if depth + 1 == self.cfg.max_lookahead {
                self.stats.depth_stops += 1;
            }
        }
    }

    /// Drains up to `max` prefetch candidates from the queue, oldest
    /// first, without allocating (the caller consumes the iterator; any
    /// items it leaves unconsumed are still removed from the queue).
    pub fn pop_prefetches(
        &mut self,
        max: usize,
    ) -> impl Iterator<Item = PrefetchCandidate> + '_ {
        let n = max.min(self.queue.len());
        self.queue_lines.drain(..n);
        self.queue.drain(..n)
    }

    /// Drains up to `max` *instruction* prefetch addresses (empty unless
    /// [`BFetchConfig::inst_prefetch`] is enabled).
    pub fn pop_inst_prefetches(&mut self, max: usize) -> impl Iterator<Item = u64> + '_ {
        let n = max.min(self.iqueue.len());
        self.iqueue.drain(..n)
    }

    fn push_inst_candidate(&mut self, pc: u64) {
        let line = pc & !63;
        if deque_contains_line(&self.iqueue, line) || self.iqueue.len() >= self.cfg.queue_entries {
            return;
        }
        self.iqueue.push_back(line);
    }

    /// Candidates currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether [`BFetchEngine::tick`] and both `pop_*` drains would find
    /// nothing to do: no decoded branch waits for a lookahead walk and both
    /// prefetch queues are empty. A drained engine changes only through the
    /// decode- and commit-side hooks (and feedback, which trains the filter
    /// but queues nothing), so the embedding core need not tick it.
    pub fn is_drained(&self) -> bool {
        self.dbr.is_empty() && self.queue.is_empty() && self.iqueue.is_empty()
    }

    // ---- commit side -----------------------------------------------------

    /// Observes a committed branch: chains the BrTC, opens the new basic
    /// block for MHT learning, and snapshots the architectural register
    /// file at block entry.
    pub fn on_commit_branch(
        &mut self,
        pc: u64,
        is_cond: bool,
        taken: bool,
        taken_target: u64,
        fallthrough: u64,
        arch_regs: &[u64; 32],
    ) {
        let actual_target = if taken { taken_target } else { fallthrough };
        if let Some((ppc, ptaken, ptarget)) = self.last_branch {
            self.brtc.update(
                ppc,
                ptaken,
                ptarget,
                BrTcEntry {
                    next_branch_pc: pc,
                    next_taken_target: taken_target,
                    next_is_cond: is_cond,
                },
            );
        }
        self.last_branch = Some((pc, taken, actual_target));
        self.cur_bb = Some((bb_key(pc, taken, actual_target), pc));
        self.bb_snapshot = *arch_regs;
    }

    /// Observes a committed load: trains the MHT entry of the current
    /// basic block.
    pub fn on_commit_load(&mut self, load_pc: u64, base_reg: u8, ea: u64) {
        let Some((key, branch_pc)) = self.cur_bb else {
            return; // no block-entry branch committed yet
        };
        let reg_val = self.bb_snapshot[base_reg as usize & 31];
        self.mht.learn_load(
            key,
            branch_pc,
            base_reg,
            reg_val,
            ea,
            crate::engine::hash_pc10(load_pc),
        );
    }

    /// Trains the per-load filter with L1D usefulness feedback.
    pub fn on_feedback(&mut self, pc_hash: u16, useful: bool) {
        self.filter.train(pc_hash, useful);
    }

    /// Read access to the per-load filter (for diagnostics).
    pub fn filter(&self) -> &PerLoadFilter {
        &self.filter
    }

    /// Read access to the ARF (for diagnostics).
    pub fn arf(&self) -> &AlternateRegisterFile {
        &self.arf
    }
}

/// Chunked [`find_line`] over a deque's two contiguous halves.
#[inline]
fn deque_contains_line(dq: &VecDeque<u64>, line: u64) -> bool {
    let (a, b) = dq.as_slices();
    find_line(a, line).is_some() || find_line(b, line).is_some()
}

/// The 10-bit load-PC hash (same function the hierarchy tags lines with).
#[inline]
pub fn hash_pc10(pc: u64) -> u16 {
    (((pc >> 2) ^ (pc >> 12) ^ (pc >> 22)) & 0x3ff) as u16
}

bfetch_snapshot::impl_snap_struct!(DecodedBranch {
    pc,
    predicted_taken,
    taken_target,
    fallthrough,
    is_cond,
    ghr_before,
    confidence
});

bfetch_snapshot::impl_snap_struct!(PrefetchCandidate { addr, pc_hash });

bfetch_snapshot::impl_snap_struct!(EngineStats {
    lookaheads,
    branches_walked,
    confidence_stops,
    brtc_stops,
    depth_stops,
    candidates,
    filtered,
    queue_overflow,
    dbr_dropped
});

// The configuration and tracer are not serialized: restore happens into an
// engine freshly built from the run's `BFetchConfig`, and the tracer is
// re-installed by the embedding simulator. The per-walk scratch buffers
// (`slot_scratch`, `visit_scratch`) are cleared at the start of every use,
// so an empty pair on resume is indistinguishable from never stopping.
impl bfetch_snapshot::SnapState for BFetchEngine {
    fn save_state(&self, w: &mut bfetch_snapshot::Encoder) {
        use bfetch_snapshot::Snap as _;
        self.brtc.save_state(w);
        self.mht.save_state(w);
        self.arf.save_state(w);
        self.filter.save_state(w);
        self.dbr.save(w);
        self.queue.save(w);
        self.queue_lines.save(w);
        self.iqueue.save(w);
        self.last_branch.save(w);
        self.cur_bb.save(w);
        self.bb_snapshot.save(w);
        self.recent_lines.save(w);
        self.recent_pos.save(w);
        self.stats.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut bfetch_snapshot::Decoder<'_>,
    ) -> Result<(), bfetch_snapshot::SnapshotError> {
        use bfetch_snapshot::Snap as _;
        self.brtc.load_state(r)?;
        self.mht.load_state(r)?;
        self.arf.load_state(r)?;
        self.filter.load_state(r)?;
        self.dbr = bfetch_snapshot::Snap::load(r)?;
        self.queue = bfetch_snapshot::Snap::load(r)?;
        self.queue_lines = bfetch_snapshot::Snap::load(r)?;
        self.iqueue = bfetch_snapshot::Snap::load(r)?;
        self.last_branch = bfetch_snapshot::Snap::load(r)?;
        self.cur_bb = bfetch_snapshot::Snap::load(r)?;
        self.bb_snapshot = <[u64; 32]>::load(r)?;
        self.recent_lines = <[u64; 64]>::load(r)?;
        self.recent_pos = usize::load(r)?;
        self.stats = EngineStats::load(r)?;
        if self.dbr.len() > self.cfg.dbr_entries.max(1)
            || self.queue.len() > self.cfg.queue_entries
            || self.queue.len() != self.queue_lines.len()
        {
            return Err(bfetch_snapshot::SnapshotError::Invalid {
                what: "bfetch engine queue bounds",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_bpred::{ConfidenceConfig, TournamentConfig, TournamentPredictor};

    fn predictor_trained_taken(pc: u64) -> (TournamentPredictor, CompositeConfidence) {
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let mut conf = CompositeConfidence::new(ConfidenceConfig::baseline());
        let mut ghr = 0u64;
        for _ in 0..400 {
            let p = bp.predict(pc, ghr);
            conf.train(pc, ghr, p.strength, p.taken);
            bp.update(pc, ghr, true);
            ghr = (ghr << 1) | 1;
        }
        (bp, conf)
    }

    /// Models the paper's Listing 1: a single-block loop
    /// `load r1, 24(r2); lda r2, r2, #128; beq -> Start`, training via
    /// commits and then checking the lookahead prefetches future
    /// iterations.
    #[test]
    fn loop_lookahead_prefetches_future_iterations() {
        let br_pc = 0x40_0400u64;
        let loop_top = 0x40_03f0u64;
        let (bp, conf) = predictor_trained_taken(br_pc);
        let mut e = BFetchEngine::new(BFetchConfig::baseline());

        // Commit several loop iterations: r2 advances by 0x80 per iteration,
        // the load reads r2 + 0x18.
        let mut regs = [0u64; 32];
        regs[2] = 0x1_0000;
        let mut seq = 0u64;
        for _ in 0..6 {
            e.on_commit_branch(br_pc, true, true, loop_top, br_pc + 4, &regs);
            e.on_commit_load(loop_top, 2, regs[2] + 0x18);
            regs[2] += 0x80;
            // the ARF sees the updated register
            seq += 1;
            e.post_regwrite(2, regs[2], seq, seq);
        }
        // let ARF writes mature
        e.tick(1000, &bp, &conf);

        // Decode the loop branch once more: the walk should revisit the
        // same block repeatedly (loop detection) and prefetch future
        // iterations: r2_now + 0x18 + k*0x80.
        e.on_branch_decoded(DecodedBranch {
            pc: br_pc,
            predicted_taken: true,
            taken_target: loop_top,
            fallthrough: br_pc + 4,
            is_cond: true,
            ghr_before: u64::MAX, // long taken history
            confidence: 0.99,
        });
        e.tick(1001, &bp, &conf);

        let got: Vec<_> = e.pop_prefetches(64).collect();
        assert!(!got.is_empty(), "lookahead produced no prefetches");
        let r2_now = regs[2];
        let expect0 = r2_now + 0x18;
        let addrs: Vec<u64> = got.iter().map(|c| c.addr).collect();
        assert!(
            addrs.contains(&expect0),
            "first-iteration prefetch missing: {addrs:#x?} vs {expect0:#x}"
        );
        // at least one future iteration (loop delta applied)
        assert!(
            addrs
                .iter()
                .any(|&a| a > expect0 && (a - expect0) % 0x80 == 0),
            "no loop-delta prefetches in {addrs:#x?}"
        );
        assert!(e.stats().lookaheads == 1);
        assert!(e.stats().branches_walked > 1, "loop should be walked deep");
    }

    #[test]
    fn low_confidence_branch_stops_walk_immediately() {
        let (bp, conf) = predictor_trained_taken(0x40_0000);
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        e.on_branch_decoded(DecodedBranch {
            pc: 0x40_0000,
            predicted_taken: true,
            taken_target: 0x40_0100,
            fallthrough: 0x40_0004,
            is_cond: true,
            ghr_before: 0,
            confidence: 0.1, // below 0.75 path threshold
        });
        e.tick(0, &bp, &conf);
        assert_eq!(e.stats().confidence_stops, 1);
        assert_eq!(e.stats().branches_walked, 0);
        assert!(e.pop_prefetches(10).next().is_none());
    }

    #[test]
    fn cold_brtc_stops_after_first_block() {
        let (bp, conf) = predictor_trained_taken(0x40_0000);
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        e.on_branch_decoded(DecodedBranch {
            pc: 0x40_0000,
            predicted_taken: true,
            taken_target: 0x40_0100,
            fallthrough: 0x40_0004,
            is_cond: true,
            ghr_before: 0,
            confidence: 0.99,
        });
        e.tick(0, &bp, &conf);
        assert_eq!(e.stats().brtc_stops, 1);
        assert_eq!(e.stats().branches_walked, 1);
    }

    #[test]
    fn dbr_overflow_drops_oldest() {
        let mut e = BFetchEngine::new(BFetchConfig {
            dbr_entries: 2,
            ..BFetchConfig::baseline()
        });
        for i in 0..3u64 {
            e.on_branch_decoded(DecodedBranch {
                pc: 0x40_0000 + i * 4,
                predicted_taken: false,
                taken_target: 0,
                fallthrough: 0x40_0004 + i * 4,
                is_cond: true,
                ghr_before: 0,
                confidence: 0.9,
            });
        }
        assert_eq!(e.stats().dbr_dropped, 1);
    }

    #[test]
    fn filter_feedback_mutes_bad_load() {
        let br_pc = 0x40_0400u64;
        let loop_top = 0x40_03f0u64;
        let (bp, conf) = predictor_trained_taken(br_pc);
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        let mut regs = [0u64; 32];
        regs[2] = 0x1_0000;
        e.on_commit_branch(br_pc, true, true, loop_top, br_pc + 4, &regs);
        e.on_commit_load(loop_top, 2, regs[2] + 0x18);

        let h = hash_pc10(loop_top);
        for _ in 0..8 {
            e.on_feedback(h, false);
        }
        e.on_branch_decoded(DecodedBranch {
            pc: br_pc,
            predicted_taken: true,
            taken_target: loop_top,
            fallthrough: br_pc + 4,
            is_cond: true,
            ghr_before: u64::MAX,
            confidence: 0.99,
        });
        e.tick(0, &bp, &conf);
        assert!(
            e.pop_prefetches(10).next().is_none(),
            "muted load must not prefetch"
        );
        assert!(e.stats().filtered > 0);
    }

    #[test]
    fn queue_dedupes_same_line() {
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        e.push_candidate(0x1000, 1, 0);
        e.push_candidate(0x1008, 2, 0); // same line
        e.push_candidate(0x1040, 3, 0);
        assert_eq!(e.queue_len(), 2);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut e = BFetchEngine::new(BFetchConfig {
            queue_entries: 4,
            ..BFetchConfig::baseline()
        });
        for i in 0..10u64 {
            e.push_candidate(i * 64, 0, 0);
        }
        assert_eq!(e.queue_len(), 4);
        assert_eq!(e.stats().queue_overflow, 6);
    }
}
