//! Alpha 21264-style tournament branch predictor.

/// Geometry of the tournament predictor. All entry counts must be powers of
/// two.
///
/// [`TournamentConfig::baseline`] reproduces the paper's 6.55 KB predictor;
/// [`TournamentConfig::scaled`] produces the 0.5×/2×/4× variants used by the
/// Figure 13 sensitivity study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TournamentConfig {
    /// Entries in the per-branch local history table.
    pub local_history_entries: usize,
    /// Bits of local history per entry.
    pub local_history_bits: u32,
    /// Entries in the local pattern table (3-bit counters).
    pub local_pattern_entries: usize,
    /// Entries in the global (gshare) table (2-bit counters).
    pub global_entries: usize,
    /// Entries in the chooser table (2-bit counters).
    pub chooser_entries: usize,
    /// Bits of global history used for indexing.
    pub global_history_bits: u32,
}

impl TournamentConfig {
    /// The Table II baseline (~6.5 KB of predictor state).
    pub fn baseline() -> Self {
        Self {
            local_history_entries: 2048,
            local_history_bits: 10,
            local_pattern_entries: 1024,
            global_entries: 8192,
            chooser_entries: 8192,
            global_history_bits: 13,
        }
    }

    /// Scales every table by a power-of-two factor relative to baseline
    /// (Figure 13: 0.5×, 1×, 2×, 4×).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not one of 0.5, 1, 2, 4, 8.
    pub fn scaled(factor: f64) -> Self {
        Self::try_scaled(factor)
            .unwrap_or_else(|| panic!("unsupported predictor scale factor {factor}"))
    }

    /// Non-panicking variant of [`TournamentConfig::scaled`]: returns `None`
    /// for unsupported factors so config validation can report them as a
    /// typed error instead of aborting.
    pub fn try_scaled(factor: f64) -> Option<Self> {
        let base = Self::baseline();
        let (num, den): (usize, usize) = if factor == 0.5 {
            (1, 2)
        } else if factor == 1.0 {
            (1, 1)
        } else if factor == 2.0 {
            (2, 1)
        } else if factor == 4.0 {
            (4, 1)
        } else if factor == 8.0 {
            (8, 1)
        } else {
            return None;
        };
        // log2(factor); num and den are powers of two
        let extra_bits = num.trailing_zeros() as i32 - den.trailing_zeros() as i32;
        Some(Self {
            local_history_entries: base.local_history_entries * num / den,
            local_history_bits: base.local_history_bits,
            local_pattern_entries: base.local_pattern_entries * num / den,
            global_entries: base.global_entries * num / den,
            chooser_entries: base.chooser_entries * num / den,
            global_history_bits: (base.global_history_bits as i32 + extra_bits) as u32,
        })
    }

    /// Total predictor storage in bits.
    pub fn storage_bits(&self) -> u64 {
        let lht = self.local_history_entries as u64 * self.local_history_bits as u64;
        let lpt = self.local_pattern_entries as u64 * 3;
        let global = self.global_entries as u64 * 2;
        let chooser = self.chooser_entries as u64 * 2;
        lht + lpt + global + chooser
    }

    /// Total predictor storage in kilobytes.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

impl Default for TournamentConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Outcome of a prediction lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Strength of the selected component's saturating counter: distance
    /// from the weakest state, in `0..=3`. Feeds the *self* confidence
    /// estimator.
    pub strength: u8,
    /// Whether the chooser selected the global component.
    pub used_global: bool,
}

#[inline]
fn bump(ctr: &mut u8, up: bool, max: u8) {
    if up {
        if *ctr < max {
            *ctr += 1;
        }
    } else if *ctr > 0 {
        *ctr -= 1;
    }
}

/// The tournament predictor: local history + gshare + chooser.
///
/// Tables are trained at commit with the history captured at prediction
/// time, matching the timing core's in-order-commit training.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    cfg: TournamentConfig,
    local_history: Vec<u16>,
    local_pattern: Vec<u8>, // 3-bit counters
    global: Vec<u8>,        // 2-bit counters
    chooser: Vec<u8>,       // 2-bit: >=2 selects global
    lookups: u64,
    mispredicts: u64,
}

impl TournamentPredictor {
    /// Builds a predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any entry count is not a power of two.
    pub fn new(cfg: TournamentConfig) -> Self {
        for n in [
            cfg.local_history_entries,
            cfg.local_pattern_entries,
            cfg.global_entries,
            cfg.chooser_entries,
        ] {
            assert!(n.is_power_of_two(), "table sizes must be powers of two");
        }
        Self {
            cfg,
            local_history: vec![0; cfg.local_history_entries],
            // weakly-taken initial bias gets loop code off the ground fast
            local_pattern: vec![4; cfg.local_pattern_entries],
            global: vec![2; cfg.global_entries],
            chooser: vec![2; cfg.chooser_entries],
            lookups: 0,
            mispredicts: 0,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &TournamentConfig {
        &self.cfg
    }

    #[inline]
    fn lht_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.local_history_entries - 1)
    }

    #[inline]
    fn lpt_index(&self, local_hist: u16) -> usize {
        (local_hist as usize) & (self.cfg.local_pattern_entries - 1)
    }

    #[inline]
    fn global_index(&self, pc: u64, ghr: u64) -> usize {
        let h = ghr & ((1u64 << self.cfg.global_history_bits) - 1);
        (((pc >> 2) ^ h) as usize) & (self.cfg.global_entries - 1)
    }

    #[inline]
    fn chooser_index(&self, ghr: u64) -> usize {
        (ghr as usize) & (self.cfg.chooser_entries - 1)
    }

    /// Looks up a prediction for the conditional branch at `pc` under global
    /// history `ghr`. Read-only: usable by the lookahead engine.
    pub fn predict(&self, pc: u64, ghr: u64) -> Prediction {
        let lh = self.local_history[self.lht_index(pc)];
        let local_ctr = self.local_pattern[self.lpt_index(lh)];
        let global_ctr = self.global[self.global_index(pc, ghr)];
        let use_global = self.chooser[self.chooser_index(ghr)] >= 2;
        let (taken, strength) = if use_global {
            (
                global_ctr >= 2,
                if global_ctr >= 2 {
                    global_ctr - 2
                } else {
                    1 - global_ctr
                } * 3,
            )
        } else {
            (
                local_ctr >= 4,
                if local_ctr >= 4 {
                    local_ctr - 4
                } else {
                    3 - local_ctr
                },
            )
        };
        Prediction {
            taken,
            strength: strength.min(3),
            used_global: use_global,
        }
    }

    /// Trains the predictor with the resolved outcome of the branch at
    /// `pc`, using the history `ghr` that was live when it was predicted.
    pub fn update(&mut self, pc: u64, ghr: u64, taken: bool) {
        self.lookups += 1;
        let lht = self.lht_index(pc);
        let lh = self.local_history[lht];
        let lpt = self.lpt_index(lh);
        let gi = self.global_index(pc, ghr);
        let ci = self.chooser_index(ghr);

        let local_correct = (self.local_pattern[lpt] >= 4) == taken;
        let global_correct = (self.global[gi] >= 2) == taken;
        let overall = if self.chooser[ci] >= 2 {
            global_correct
        } else {
            local_correct
        };
        if !overall {
            self.mispredicts += 1;
        }

        // chooser trains toward whichever component was right (when they
        // disagree)
        if local_correct != global_correct {
            bump(&mut self.chooser[ci], global_correct, 3);
        }
        bump(&mut self.local_pattern[lpt], taken, 7);
        bump(&mut self.global[gi], taken, 3);

        let mask = (1u16 << self.cfg.local_history_bits) - 1;
        self.local_history[lht] = ((lh << 1) | taken as u16) & mask;
    }

    /// `(lookups, mispredicts)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }

    /// Misprediction rate in `[0, 1]`; 0 when untrained.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

bfetch_snapshot::impl_snap_struct!(TournamentConfig {
    local_history_entries,
    local_history_bits,
    local_pattern_entries,
    global_entries,
    chooser_entries,
    global_history_bits
});

bfetch_snapshot::impl_snap_struct!(Prediction {
    taken,
    strength,
    used_global
});

bfetch_snapshot::snap_state!(TournamentPredictor {
    cfg: skip,
    local_history: slice("tournament local history"),
    local_pattern: slice("tournament local pattern"),
    global: slice("tournament global table"),
    chooser: slice("tournament chooser table"),
    lookups: val,
    mispredicts: val,
});

/// A read-only lookahead cursor over a [`TournamentPredictor`].
///
/// The B-Fetch Branch Lookahead stage walks *future* branches: it predicts
/// each one, pushes the predicted outcome into its private history copy, and
/// continues, never mutating the shared tables. Local histories are read
/// as-is (the same approximation the hardware makes, since speculative
/// local-history update would require per-branch checkpointing).
#[derive(Debug, Clone, Copy)]
pub struct SpeculativeCursor {
    ghr: u64,
}

impl SpeculativeCursor {
    /// Snapshots the architectural history.
    pub fn new(ghr_bits: u64) -> Self {
        Self { ghr: ghr_bits }
    }

    /// Current speculative history bits.
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Predicts the branch at `pc` and advances the speculative history.
    pub fn predict_and_advance(&mut self, bp: &TournamentPredictor, pc: u64) -> Prediction {
        let p = bp.predict(pc, self.ghr);
        self.ghr = (self.ghr << 1) | p.taken as u64;
        p
    }

    /// Advances the history with a known outcome (unconditional branches).
    pub fn advance(&mut self, taken: bool) {
        self.ghr = (self.ghr << 1) | taken as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(bp: &mut TournamentPredictor, pc: u64, pattern: &[bool], reps: usize) -> f64 {
        let mut ghr = 0u64;
        let mut correct = 0u64;
        let mut total = 0u64;
        for _ in 0..reps {
            for &taken in pattern {
                let p = bp.predict(pc, ghr);
                if p.taken == taken {
                    correct += 1;
                }
                total += 1;
                bp.update(pc, ghr, taken);
                ghr = (ghr << 1) | taken as u64;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_always_taken() {
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let acc = train(&mut bp, 0x40_0000, &[true], 500);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_biased_loop_exit() {
        // taken 15 times, then one not-taken (loop exit): local predictor
        // with 10-bit history should nail the exit too.
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let mut pat = vec![true; 7];
        pat.push(false);
        let acc = train(&mut bp, 0x40_0040, &pat, 500);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let acc = train(&mut bp, 0x40_0080, &[true, false], 500);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn random_pattern_near_chance() {
        // A non-repeating pseudorandom stream cannot be predicted much above
        // its 50% bias.
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let mut x = 0x1234_5678u64;
        let pat: Vec<bool> = (0..8192)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 63) & 1 == 1
            })
            .collect();
        let acc = train(&mut bp, 0x40_00c0, &pat, 1);
        assert!(acc < 0.65, "random pattern predicted too well: {acc}");
    }

    #[test]
    fn miss_rate_tracks_updates() {
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        train(&mut bp, 0x40_0100, &[true], 100);
        let (lookups, miss) = bp.stats();
        assert_eq!(lookups, 100);
        assert!(bp.miss_rate() < 0.2);
        assert!(miss < 20);
    }

    #[test]
    fn scaled_configs_storage_monotone() {
        let half = TournamentConfig::scaled(0.5).storage_bits();
        let one = TournamentConfig::scaled(1.0).storage_bits();
        let two = TournamentConfig::scaled(2.0).storage_bits();
        let four = TournamentConfig::scaled(4.0).storage_bits();
        assert!(half < one && one < two && two < four);
        // baseline lands in the ballpark of the paper's 6.55 KB
        let kb = TournamentConfig::baseline().storage_kb();
        assert!((4.0..9.0).contains(&kb), "baseline predictor {kb} KB");
    }

    /// The global history grows one bit per doubling. (It used to come
    /// out as 13 ± 63 for every factor but 1, which only indexed
    /// correctly because a release build masks the shift count; a debug
    /// build panicked on the first prediction.)
    #[test]
    fn scaled_global_history_tracks_the_table_size() {
        for (factor, bits) in [(0.5, 12), (1.0, 13), (2.0, 14), (4.0, 15), (8.0, 16)] {
            let cfg = TournamentConfig::scaled(factor);
            assert_eq!(cfg.global_history_bits, bits, "scale {factor}");
            let bp = TournamentPredictor::new(cfg);
            bp.predict(0x40, u64::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "power")]
    fn rejects_non_power_of_two() {
        let mut cfg = TournamentConfig::baseline();
        cfg.global_entries = 1000;
        TournamentPredictor::new(cfg);
    }

    #[test]
    fn cursor_does_not_mutate_tables() {
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        train(&mut bp, 0x40_0000, &[true], 200);
        let before = bp.clone();
        let mut cur = SpeculativeCursor::new(0b1011);
        for _ in 0..32 {
            cur.predict_and_advance(&bp, 0x40_0000);
        }
        assert_eq!(bp.stats(), before.stats());
        assert_eq!(
            bp.predict(0x40_0000, 0b1011).taken,
            before.predict(0x40_0000, 0b1011).taken
        );
    }

    #[test]
    fn cursor_history_advances() {
        let bp = TournamentPredictor::new(TournamentConfig::baseline());
        let mut cur = SpeculativeCursor::new(0);
        let p = cur.predict_and_advance(&bp, 0x40_0000);
        assert_eq!(cur.ghr() & 1, p.taken as u64);
        cur.advance(true);
        assert_eq!(cur.ghr() & 1, 1);
    }
}
