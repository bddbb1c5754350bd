//! The B-Fetch prefetch pipeline (Figure 4).

use crate::arf::AlternateRegisterFile;
use crate::bb_key;
use crate::brtc::{BrTcEntry, BranchTraceCache};
use crate::config::{BFetchConfig, StorageReport};
use crate::filter::PerLoadFilter;
use crate::mht::MemoryHistoryTable;
use bfetch_bpred::{CompositeConfidence, PathConfidence, SpeculativeCursor, TournamentPredictor};
use bfetch_mem::probe::{find_line, NO_LINE};
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
///   — commit-side learning, in program order: a branch opens a block, and
///   each load that follows brings its base register's value as it stood at
///   that branch (the engine keeps no copy of the register file);
/// * [`BFetchEngine::on_feedback`] — L1D prefetch-usefulness feedback;
/// * [`BFetchEngine::pop_prefetches`] — drain the bounded prefetch queue.
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
    queue: CandidateQueue,
    last_branch: Option<(u64, bool, u64)>, // (pc, taken, actual target)
    cur_bb: Option<(u64, u64)>,            // (key, branch pc)
    // per-walk scratch, reused across calls so the per-cycle path never
    // allocates once warm (DESIGN.md "Performance engineering")
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
            queue: CandidateQueue::new(cfg.queue_entries),
            last_branch: None,
            cur_bb: None,
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
    pub fn tick(&mut self, now: u64, bp: &TournamentPredictor, conf: &CompositeConfidence) {
        self.arf.apply(now);
        let Some(db) = self.dbr.pop_front() else {
            return;
        };
        self.lookahead(db, bp, conf, now);
    }

    fn emit_for_block(&mut self, key: u64, branch_pc: u64, loop_cnt: u32, now: u64) {
        // disjoint field borrows: the MHT lane is read in place while the
        // filter, queue and counters beside it are written
        let Self {
            cfg,
            mht,
            arf,
            filter,
            queue,
            stats,
            tracer,
            ..
        } = self;
        let Some(slots) = mht.lookup(key, branch_pc) else {
            return;
        };
        let effective_loop_cnt = if cfg.enable_loops { loop_cnt } else { 0 };
        for s in slots.iter().filter(|s| s.valid) {
            let base = s.prefetch_address(arf.read(s.reg_idx as usize), effective_loop_cnt);
            if cfg.enable_filter && !filter.allow(s.load_pc_hash) {
                stats.filtered += 1;
                tracer.emit(
                    now,
                    TraceKind::PrefetchDropped {
                        line: line_of(base),
                        pc_hash: s.load_pc_hash,
                        reason: DropReason::Filter,
                    },
                );
                continue;
            }
            let mut push = |addr| queue.push(addr, s.load_pc_hash, now, stats, tracer);
            push(base);
            if !cfg.enable_patt {
                continue;
            }
            for b in 0..5u32 {
                if s.pos_patt & (1 << b) != 0 {
                    push(base.wrapping_add((b as u64 + 1) * LINE_BYTES));
                }
                if s.neg_patt & (1 << b) != 0 {
                    push(base.wrapping_sub((b as u64 + 1) * LINE_BYTES));
                }
            }
        }
    }

    fn lookahead(
        &mut self,
        db: DecodedBranch,
        bp: &TournamentPredictor,
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
    pub fn pop_prefetches(&mut self, max: usize) -> impl Iterator<Item = PrefetchCandidate> + '_ {
        self.queue.pop(max)
    }

    /// Candidates currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.entries.len()
    }

    /// Whether [`BFetchEngine::tick`] and [`BFetchEngine::pop_prefetches`]
    /// would find nothing to do: no decoded branch waits for a lookahead
    /// walk and the prefetch queue is empty. A drained engine changes only
    /// through the decode- and commit-side hooks (and feedback, which trains
    /// the filter but queues nothing), so the embedding core need not tick
    /// it.
    pub fn is_drained(&self) -> bool {
        self.dbr.is_empty() && self.queue.entries.is_empty()
    }

    // ---- commit side -----------------------------------------------------

    /// Observes a committed branch: chains the BrTC and opens the new
    /// basic block for MHT learning. The register values that block's loads
    /// are learned against arrive with the loads themselves (see
    /// [`BFetchEngine::on_commit_load`]), so no register file changes hands
    /// here.
    pub fn on_commit_branch(
        &mut self,
        pc: u64,
        is_cond: bool,
        taken: bool,
        taken_target: u64,
        fallthrough: u64,
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
    }

    /// Observes a committed load: trains the MHT entry of the current
    /// basic block. `base_at_block_entry` is the value `base_reg` held when
    /// the block was entered — at the branch most recently passed to
    /// [`BFetchEngine::on_commit_branch`], before anything in the block
    /// (the load included) wrote it. The MHT learns the load's offset from
    /// that value, which is what the ARF will hold when a lookahead walk
    /// reaches the block.
    pub fn on_commit_load(
        &mut self,
        load_pc: u64,
        base_reg: u8,
        base_at_block_entry: u64,
        ea: u64,
    ) {
        let Some((key, branch_pc)) = self.cur_bb else {
            return; // no block-entry branch committed yet
        };
        self.mht.learn_load(
            key,
            branch_pc,
            base_reg,
            base_at_block_entry,
            ea,
            hash_pc10(load_pc),
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

/// Buckets per [`LineSet`] (a power of two): 4.5 KB a set, 9 KB an engine.
const LINE_SET_BUCKETS: usize = 512;

/// An exact membership accelerator over a small multiset of line addresses
/// whose truth lives elsewhere (the `recent_lines` ring, `queue_lines`).
/// Each bucket keeps how many members hash to it and the XOR of their
/// addresses: count 0 proves absence, count 1 names the only member, and a
/// shared bucket defers to the caller's scan — so every answer is the
/// scan's answer (DESIGN.md §13.6). Derived state: never serialized,
/// rebuilt from the scanned arrays on restore.
#[derive(Debug)]
struct LineSet {
    xor: [u64; LINE_SET_BUCKETS],
    count: [u8; LINE_SET_BUCKETS],
}

impl LineSet {
    /// A count that reached `u8::MAX` is no longer tracked: the bucket stays
    /// there and answers by scan for good. Only a queue configured past 255
    /// entries can get a bucket that far.
    const OVERFLOWED: u8 = u8::MAX;

    fn new() -> Box<Self> {
        Box::new(Self {
            xor: [0; LINE_SET_BUCKETS],
            count: [0; LINE_SET_BUCKETS],
        })
    }

    /// Fibonacci hash of the line number: neighbouring and power-of-two
    /// strided lines, what a lookahead window is made of, spread evenly.
    #[inline]
    fn bucket(line: u64) -> usize {
        const SHIFT: u32 = u64::BITS - LINE_SET_BUCKETS.trailing_zeros();
        const _: () = assert!(LINE_SET_BUCKETS.is_power_of_two());
        ((line / LINE_BYTES).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> SHIFT) as usize
    }

    #[inline]
    fn insert(&mut self, line: u64) {
        let b = Self::bucket(line);
        if self.count[b] != Self::OVERFLOWED {
            self.count[b] += 1;
            self.xor[b] ^= line;
        }
    }

    #[inline]
    fn remove(&mut self, line: u64) {
        let b = Self::bucket(line);
        if self.count[b] != Self::OVERFLOWED {
            debug_assert!(self.count[b] > 0, "removing a line that was never inserted");
            self.count[b] -= 1;
            self.xor[b] ^= line;
        }
    }

    /// Whether `line` is a member; `scan` is the authoritative search the
    /// set stands in front of, consulted only for a shared bucket.
    #[inline]
    fn contains(&self, line: u64, scan: impl Fn() -> bool) -> bool {
        let b = Self::bucket(line);
        let hit = match self.count[b] {
            0 => false,
            1 => self.xor[b] == line,
            _ => scan(),
        };
        debug_assert_eq!(hit, scan(), "line set disagrees with the scan");
        hit
    }
}

/// The bounded prefetch queue with its two de-duplication windows.
#[derive(Debug)]
struct CandidateQueue {
    capacity: usize,
    entries: VecDeque<PrefetchCandidate>,
    // `line_of(entries[i].addr)`, mirrored in push/drain order: what "is
    // this line already queued?" means, and the flat array the chunked
    // `find_line` scan answers it from when `queue_set` cannot
    lines: VecDeque<u64>,
    // ring of the last 64 lines queued (`NO_LINE` until first written):
    // consecutive lookahead walks largely re-derive the same window, and
    // re-issuing those lines would waste prefetch-port bandwidth on
    // hierarchy-side redundancy drops. Like `lines`, the truth that
    // `recent_set` is derived from and checked against
    recent_lines: [u64; 64],
    recent_pos: usize,
    recent_set: Box<LineSet>,
    queue_set: Box<LineSet>,
}

impl CandidateQueue {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            lines: VecDeque::with_capacity(capacity),
            recent_lines: [NO_LINE; 64],
            recent_pos: 0,
            recent_set: LineSet::new(),
            queue_set: LineSet::new(),
        }
    }

    /// Queues `addr` unless its line was queued moments ago, is queued
    /// now, or the queue is full (counted and traced as an overflow).
    fn push(
        &mut self,
        addr: u64,
        pc_hash: u16,
        now: u64,
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) {
        debug_assert_eq!(self.entries.len(), self.lines.len());
        let line = line_of(addr);
        if self
            .recent_set
            .contains(line, || find_line(&self.recent_lines, line).is_some())
            || self
                .queue_set
                .contains(line, || deque_contains_line(&self.lines, line))
        {
            return;
        }
        if self.entries.len() >= self.capacity {
            stats.queue_overflow += 1;
            tracer.emit(
                now,
                TraceKind::PrefetchDropped {
                    line,
                    pc_hash,
                    reason: DropReason::QueueFull,
                },
            );
            return;
        }
        stats.candidates += 1;
        let evicted = std::mem::replace(&mut self.recent_lines[self.recent_pos], line);
        if evicted != NO_LINE {
            self.recent_set.remove(evicted);
        }
        self.recent_set.insert(line);
        self.recent_pos = (self.recent_pos + 1) % self.recent_lines.len();
        self.entries.push_back(PrefetchCandidate { addr, pc_hash });
        self.lines.push_back(line);
        self.queue_set.insert(line);
    }

    fn pop(&mut self, max: usize) -> impl Iterator<Item = PrefetchCandidate> + '_ {
        let n = max.min(self.entries.len());
        // most cycles find the queue empty: skip building the drains then
        (n > 0)
            .then(|| {
                for line in self.lines.drain(..n) {
                    self.queue_set.remove(line);
                }
                self.entries.drain(..n)
            })
            .into_iter()
            .flatten()
    }

    /// Checks the restored arrays against each other and the configuration,
    /// then rebuilds both sets from them.
    fn validate_and_index(&mut self) -> Result<(), bfetch_snapshot::SnapshotError> {
        let consistent = self.entries.len() <= self.capacity
            && self.entries.len() == self.lines.len()
            && self.recent_pos < self.recent_lines.len()
            && self
                .entries
                .iter()
                .zip(&self.lines)
                .all(|(c, &line)| line_of(c.addr) == line);
        if !consistent {
            return Err(bfetch_snapshot::SnapshotError::Invalid {
                what: "bfetch engine prefetch queue",
            });
        }
        self.recent_set = LineSet::new();
        self.queue_set = LineSet::new();
        for &line in self.recent_lines.iter().filter(|&&l| l != NO_LINE) {
            self.recent_set.insert(line);
        }
        for &line in &self.lines {
            self.queue_set.insert(line);
        }
        Ok(())
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

// The two `LineSet`s are functions of `lines` and `recent_lines`: the check
// rebuilds them.
bfetch_snapshot::snap_state!(CandidateQueue {
    capacity: skip,
    entries: val,
    lines: val,
    recent_lines: val,
    recent_pos: val,
    recent_set: skip,
    queue_set: skip,
} check |q| { q.validate_and_index() });

// The tracer is re-installed by the embedding simulator. The per-walk
// `visit_scratch` is cleared at the start of every use, so an empty one on
// resume is indistinguishable from never stopping.
bfetch_snapshot::snap_state!(BFetchEngine {
    cfg: skip,
    brtc: state,
    mht: state,
    arf: state,
    filter: state,
    dbr: val,
    queue: state,
    last_branch: val,
    cur_bb: val,
    visit_scratch: skip,
    stats: val,
    tracer: skip,
} check |e| {
    if e.dbr.len() > e.cfg.dbr_entries.max(1) {
        return Err(bfetch_snapshot::SnapshotError::Invalid {
            what: "bfetch engine dbr bounds",
        });
    }
    Ok(())
});

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
            e.on_commit_branch(br_pc, true, true, loop_top, br_pc + 4);
            e.on_commit_load(loop_top, 2, regs[2], regs[2] + 0x18);
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
        e.on_commit_branch(br_pc, true, true, loop_top, br_pc + 4);
        e.on_commit_load(loop_top, 2, regs[2], regs[2] + 0x18);

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

    fn push(e: &mut BFetchEngine, addr: u64, pc_hash: u16) {
        e.queue.push(addr, pc_hash, 0, &mut e.stats, &e.tracer);
    }

    #[test]
    fn queue_dedupes_same_line() {
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        push(&mut e, 0x1000, 1);
        push(&mut e, 0x1008, 2); // same line
        push(&mut e, 0x1040, 3);
        assert_eq!(e.queue_len(), 2);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut e = BFetchEngine::new(BFetchConfig {
            queue_entries: 4,
            ..BFetchConfig::baseline()
        });
        for i in 0..10u64 {
            push(&mut e, i * 64, 0);
        }
        assert_eq!(e.queue_len(), 4);
        assert_eq!(e.stats().queue_overflow, 6);
    }

    /// The dedupe rule written as the two scans alone: what `CandidateQueue`
    /// must reproduce whatever its `LineSet`s answer.
    struct ScanQueue {
        capacity: usize,
        entries: VecDeque<PrefetchCandidate>,
        recent: [u64; 64],
        pos: usize,
        candidates: u64,
        overflow: u64,
    }

    impl ScanQueue {
        fn push(&mut self, addr: u64, pc_hash: u16) {
            let line = line_of(addr);
            if self.recent.contains(&line) || self.entries.iter().any(|c| line_of(c.addr) == line) {
                return;
            }
            if self.entries.len() >= self.capacity {
                self.overflow += 1;
                return;
            }
            self.candidates += 1;
            self.recent[self.pos] = line;
            self.pos = (self.pos + 1) % 64;
            self.entries.push_back(PrefetchCandidate { addr, pc_hash });
        }
    }

    fn assert_matches(e: &BFetchEngine, r: &ScanQueue, step: usize) {
        assert_eq!(e.queue.entries, r.entries, "queue at step {step}");
        assert_eq!(e.queue.recent_lines, r.recent, "ring at step {step}");
        assert_eq!(e.queue.recent_pos, r.pos, "ring cursor at step {step}");
        assert_eq!(
            e.stats.candidates, r.candidates,
            "candidates at step {step}"
        );
        assert_eq!(
            e.stats.queue_overflow, r.overflow,
            "overflow at step {step}"
        );
    }

    fn save(e: &BFetchEngine) -> Vec<u8> {
        use bfetch_snapshot::SnapState as _;
        let mut w = bfetch_snapshot::Encoder::new();
        e.save_state(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<BFetchEngine, bfetch_snapshot::SnapshotError> {
        use bfetch_snapshot::SnapState as _;
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        e.load_state(&mut bfetch_snapshot::Decoder::new(bytes))?;
        Ok(e)
    }

    /// Lines drawn from a universe a little larger than the bucket count, so
    /// ring and queue members share buckets all the time, pushed in bursts
    /// that fill the 100-entry queue and drained in bursts that empty it.
    #[test]
    fn line_sets_never_change_what_the_scans_decide() {
        for case in 0..bfetch_prng::cases(8) as u64 {
            let mut rng = bfetch_prng::Pcg32::new(0xded0_0001 ^ case);
            let mut e = BFetchEngine::new(BFetchConfig::baseline());
            let mut r = ScanQueue {
                capacity: e.cfg.queue_entries,
                entries: VecDeque::new(),
                recent: [NO_LINE; 64],
                pos: 0,
                candidates: 0,
                overflow: 0,
            };
            // a resumed twin, swapped in mid-stream
            let resume_at = 2000 + rng.gen_range(2000) as usize;
            let (mut shared_buckets, mut full, mut emptied) = (false, false, false);
            for step in 0..6000 {
                if step == resume_at {
                    e = load(&save(&e)).expect("own snapshot loads");
                }
                // alternate phases that outrun the drain with ones it outruns
                let filling = (step / 500) % 2 == 0;
                for _ in 0..rng.gen_range(if filling { 6 } else { 2 }) {
                    // two strided regions plus byte offsets inside the line
                    let k = rng.gen_range(700);
                    let addr = if k < 400 {
                        0x10_0000 + k * 64
                    } else {
                        0x4000_0000 + (k - 400) * 4096
                    } + rng.gen_range(64);
                    let pc_hash = rng.gen_range(1024) as u16;
                    push(&mut e, addr, pc_hash);
                    r.push(addr, pc_hash);
                }
                let max = rng.gen_range(if filling { 3 } else { 8 }) as usize;
                let got: Vec<_> = e.pop_prefetches(max).collect();
                let n = max.min(r.entries.len());
                let want: Vec<_> = r.entries.drain(..n).collect();
                assert_eq!(got, want, "drained at step {step}");
                assert_matches(&e, &r, step);
                shared_buckets |= e.queue.queue_set.count.iter().any(|&c| c > 1)
                    && e.queue.recent_set.count.iter().any(|&c| c > 1);
                full |= r.entries.len() == r.capacity;
                emptied |= step > 0 && r.entries.is_empty();
            }
            assert!(
                shared_buckets && full && emptied && r.overflow > 0,
                "the stream must exercise shared buckets, a full queue and an empty one"
            );

            // empty both windows: nothing may be left behind in either set
            assert_eq!(e.pop_prefetches(usize::MAX).count(), r.entries.len());
            assert!(e.queue.queue_set.count.iter().all(|&c| c == 0));
            assert!(e.queue.queue_set.xor.iter().all(|&x| x == 0));
            for line in e.queue.recent_lines {
                e.queue.recent_set.remove(line);
            }
            assert!(e.queue.recent_set.count.iter().all(|&c| c == 0));
            assert!(e.queue.recent_set.xor.iter().all(|&x| x == 0));
        }
    }

    /// A bucket pushed to the count's ceiling (a queue configured past 255
    /// entries could) stops being tracked and answers by scan from then on.
    #[test]
    fn overflowed_bucket_defers_to_the_scan_for_good() {
        let mut set = LineSet::new();
        let b = LineSet::bucket(0);
        let same_bucket: Vec<u64> = (0..)
            .map(|n| n * LINE_BYTES)
            .filter(|&l| LineSet::bucket(l) == b)
            .take(300)
            .collect();
        for &l in &same_bucket {
            set.insert(l);
        }
        assert_eq!(set.count[b], LineSet::OVERFLOWED);
        for &l in &same_bucket[..299] {
            set.remove(l);
        }
        assert_eq!(set.count[b], LineSet::OVERFLOWED);
        for truth in [false, true] {
            assert_eq!(set.contains(same_bucket[299], || truth), truth);
            assert_eq!(set.contains(same_bucket[0], || truth), truth);
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_inconsistent_queue_state() {
        let mut e = BFetchEngine::new(BFetchConfig::baseline());
        for i in 0..70u64 {
            push(&mut e, 0x8000 + i * 64, i as u16);
        }
        assert_eq!(e.pop_prefetches(3).count(), 3);
        let bytes = save(&e);
        let back = load(&bytes).expect("valid snapshot");
        assert_eq!(save(&back), bytes, "re-encoding is canonical");
        assert_eq!(back.queue.queue_set.count, e.queue.queue_set.count);
        assert_eq!(back.queue.queue_set.xor, e.queue.queue_set.xor);
        assert_eq!(back.queue.recent_set.count, e.queue.recent_set.count);
        assert_eq!(back.queue.recent_set.xor, e.queue.recent_set.xor);

        let invalid = |what: &str, bytes: Vec<u8>| match load(&bytes) {
            Err(bfetch_snapshot::SnapshotError::Invalid { .. }) => {}
            other => panic!("{what}: expected Invalid, got {:?}", other.map(|_| ())),
        };

        // a ring cursor past the ring would index out of bounds on the
        // next push
        e.queue.recent_pos = e.queue.recent_lines.len();
        invalid("recent_pos == 64", save(&e));
        e.queue.recent_pos = usize::MAX;
        invalid("recent_pos == usize::MAX", save(&e));
        e.queue.recent_pos = 0;

        // a mirrored line that is not its candidate's line would change
        // what dedupes after resume
        e.queue.lines[5] += 64;
        invalid("queue_lines[5] != line_of(queue[5].addr)", save(&e));
        e.queue.lines[5] -= 64;

        e.queue.lines.pop_back();
        invalid("queue_lines shorter than queue", save(&e));
        load(&bytes).expect("the untouched snapshot still loads");
    }
}
