//! Branch and path confidence estimation.
//!
//! B-Fetch throttles its lookahead with a *path confidence*: the product of
//! per-branch confidence probabilities along the predicted path (Malik et
//! al., PaCo, HPCA 2008). Per-branch confidence comes from a *composite*
//! estimator (Jimenez, SBAC-PAD 2009) voting three ways:
//!
//! * **JRS**: a table of resetting miss-distance counters indexed by
//!   `pc ^ history` — incremented on correct predictions, reset on
//!   mispredictions; a high counter means a long streak of correctness.
//! * **Up/down**: per-PC saturating counters incremented on correct and
//!   decremented on incorrect predictions.
//! * **Self**: the strength of the predictor's own saturating counter for
//!   this lookup (a strong counter is usually right).
//!
//! To produce *probabilities* (what the PaCo product needs) rather than
//! binary votes, the composite tracks the empirical accuracy of each of the
//! eight vote combinations and reports it, with a weak prior so cold
//! combinations neither stall nor run away.

/// Geometry and thresholds for the composite estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidenceConfig {
    /// Entries in the JRS miss-distance-counter table (power of two).
    pub jrs_entries: usize,
    /// JRS counter saturation (counts of consecutive correct predictions).
    pub jrs_max: u8,
    /// JRS "confident" threshold.
    pub jrs_threshold: u8,
    /// Entries in the up/down table (power of two).
    pub updown_entries: usize,
    /// Up/down counter saturation.
    pub updown_max: u8,
    /// Up/down "confident" threshold.
    pub updown_threshold: u8,
    /// Predictor self-strength "confident" threshold (`0..=3`).
    pub self_threshold: u8,
}

impl ConfidenceConfig {
    /// Table I geometry (~2 KB path-confidence estimator state).
    pub fn baseline() -> Self {
        Self {
            jrs_entries: 2048,
            jrs_max: 15,
            jrs_threshold: 8,
            updown_entries: 2048,
            updown_max: 15,
            updown_threshold: 10,
            self_threshold: 2,
        }
    }

    /// Total storage in bits (JRS + up/down counters + accuracy meters).
    pub fn storage_bits(&self) -> u64 {
        let jrs = self.jrs_entries as u64 * 4;
        let ud = self.updown_entries as u64 * 4;
        let meters = 8 * 2 * 16; // eight (correct,total) 16-bit pairs
        jrs + ud + meters
    }
}

impl Default for ConfidenceConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// The composite per-branch confidence estimator.
#[derive(Debug, Clone)]
pub struct CompositeConfidence {
    cfg: ConfidenceConfig,
    jrs: Vec<u8>,
    updown: Vec<u8>,
    // empirical accuracy per 3-bit vote combination
    meter_correct: [u32; 8],
    meter_total: [u32; 8],
    // `meter_estimate` of each combination's meters, refreshed wherever the
    // meters change, so the per-walked-block `estimate` is a table read
    estimates: [f64; 8],
}

/// The reported probability for vote combination `votes` given its accuracy
/// meters: a weak Beta-like prior keyed to the vote count, so cold
/// combinations start at a sensible place (all-confident ~0.97, none ~0.55).
fn meter_estimate(votes: usize, correct: u32, total: u32) -> f64 {
    let prior_p = match votes.count_ones() {
        3 => 0.97,
        2 => 0.90,
        1 => 0.75,
        _ => 0.55,
    };
    let prior_n = 32.0;
    let c = correct as f64;
    let t = total as f64;
    let p = (c + prior_p * prior_n) / (t + prior_n);
    p.clamp(0.01, 0.999)
}

impl CompositeConfidence {
    /// Builds the estimator.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two.
    pub fn new(cfg: ConfidenceConfig) -> Self {
        assert!(cfg.jrs_entries.is_power_of_two(), "jrs size");
        assert!(cfg.updown_entries.is_power_of_two(), "updown size");
        let mut c = Self {
            cfg,
            jrs: vec![0; cfg.jrs_entries],
            updown: vec![cfg.updown_max / 2; cfg.updown_entries],
            meter_correct: [0; 8],
            meter_total: [0; 8],
            estimates: [0.0; 8],
        };
        c.refresh_estimates();
        c
    }

    fn refresh_estimates(&mut self) {
        for v in 0..8 {
            self.estimates[v] = meter_estimate(v, self.meter_correct[v], self.meter_total[v]);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ConfidenceConfig {
        &self.cfg
    }

    #[inline]
    fn jrs_index(&self, pc: u64, ghr: u64) -> usize {
        (((pc >> 2) ^ ghr) as usize) & (self.cfg.jrs_entries - 1)
    }

    #[inline]
    fn ud_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.updown_entries - 1)
    }

    #[inline]
    fn votes(&self, pc: u64, ghr: u64, self_strength: u8) -> usize {
        let j = (self.jrs[self.jrs_index(pc, ghr)] >= self.cfg.jrs_threshold) as usize;
        let u = (self.updown[self.ud_index(pc)] >= self.cfg.updown_threshold) as usize;
        let s = (self_strength >= self.cfg.self_threshold) as usize;
        (j << 2) | (u << 1) | s
    }

    /// Estimated probability that the prediction for the branch at `pc`
    /// (looked up under history `ghr`, with predictor counter strength
    /// `self_strength`) is correct. Always in `(0, 1)`.
    pub fn estimate(&self, pc: u64, ghr: u64, self_strength: u8) -> f64 {
        self.estimates[self.votes(pc, ghr, self_strength)]
    }

    /// Trains the estimator with the resolved correctness of a prediction.
    pub fn train(&mut self, pc: u64, ghr: u64, self_strength: u8, correct: bool) {
        let v = self.votes(pc, ghr, self_strength);
        if self.meter_total[v] >= u32::MAX / 2 {
            self.meter_total[v] /= 2;
            self.meter_correct[v] /= 2;
        }
        self.meter_total[v] += 1;
        if correct {
            self.meter_correct[v] += 1;
        }
        self.estimates[v] = meter_estimate(v, self.meter_correct[v], self.meter_total[v]);

        let ji = self.jrs_index(pc, ghr);
        if correct {
            if self.jrs[ji] < self.cfg.jrs_max {
                self.jrs[ji] += 1;
            }
        } else {
            self.jrs[ji] = 0; // resetting counter
        }

        let ui = self.ud_index(pc);
        if correct {
            if self.updown[ui] < self.cfg.updown_max {
                self.updown[ui] += 1;
            }
        } else if self.updown[ui] > 0 {
            self.updown[ui] -= 1;
        }
    }
}

bfetch_snapshot::impl_snap_struct!(ConfidenceConfig {
    jrs_entries,
    jrs_max,
    jrs_threshold,
    updown_entries,
    updown_max,
    updown_threshold,
    self_threshold
});

bfetch_snapshot::snap_state!(CompositeConfidence {
    cfg: skip,
    jrs: slice("confidence jrs table"),
    updown: slice("confidence updown table"),
    meter_correct: val,
    meter_total: val,
    estimates: skip,
} check |c| {
    c.refresh_estimates();
    Ok(())
});

/// Multiplicative path confidence accumulator (PaCo-style).
///
/// # Example
///
/// ```
/// use bfetch_bpred::PathConfidence;
/// let mut pc = PathConfidence::new(0.75);
/// assert!(pc.extend(0.95)); // 0.95 >= 0.75: keep going
/// assert!(!pc.extend(0.5)); // 0.475 < 0.75: stop lookahead
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PathConfidence {
    value: f64,
    threshold: f64,
}

impl PathConfidence {
    /// Starts a fresh path at confidence 1.0 with the given stop threshold
    /// (Table II: 0.75).
    pub fn new(threshold: f64) -> Self {
        Self {
            value: 1.0,
            threshold,
        }
    }

    /// Current cumulative confidence.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Multiplies in one branch's confidence; returns `true` while the path
    /// remains at or above the threshold.
    pub fn extend(&mut self, branch_confidence: f64) -> bool {
        self.value *= branch_confidence;
        self.value >= self.threshold
    }

    /// Whether the path is still above threshold.
    pub fn alive(&self) -> bool {
        self.value >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaks_raise_confidence() {
        let mut c = CompositeConfidence::new(ConfidenceConfig::baseline());
        let pc = 0x40_0000;
        let cold = c.estimate(pc, 0, 3);
        for _ in 0..200 {
            c.train(pc, 0, 3, true);
        }
        let hot = c.estimate(pc, 0, 3);
        assert!(hot > cold, "expected {hot} > {cold}");
        assert!(hot > 0.95);
    }

    #[test]
    fn mispredictions_lower_confidence() {
        let mut c = CompositeConfidence::new(ConfidenceConfig::baseline());
        let pc = 0x40_0040;
        for _ in 0..100 {
            c.train(pc, 0, 0, false);
        }
        let low = c.estimate(pc, 0, 0);
        assert!(low < 0.6, "expected low confidence, got {low}");
    }

    #[test]
    fn jrs_counter_resets_on_miss() {
        let mut c = CompositeConfidence::new(ConfidenceConfig::baseline());
        let pc = 0x40_0080;
        for _ in 0..20 {
            c.train(pc, 7, 3, true);
        }
        let confident = c.estimate(pc, 7, 3);
        c.train(pc, 7, 3, false);
        // after reset, the JRS vote flips and the estimate must not increase
        let after = c.estimate(pc, 7, 3);
        assert!(after <= confident);
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        let mut c = CompositeConfidence::new(ConfidenceConfig::baseline());
        for i in 0..1000u64 {
            c.train(i * 4, i, (i % 4) as u8, i % 3 != 0);
            let e = c.estimate(i * 4, i, (i % 4) as u8);
            assert!(e > 0.0 && e < 1.0);
        }
    }

    /// The expression `estimate` evaluated per call before it read a table.
    fn closed_form(c: &CompositeConfidence, v: usize) -> f64 {
        let prior_p = [0.55, 0.75, 0.90, 0.97][v.count_ones() as usize];
        let p = (c.meter_correct[v] as f64 + prior_p * 32.0) / (c.meter_total[v] as f64 + 32.0);
        p.clamp(0.01, 0.999)
    }

    #[test]
    fn estimate_is_the_closed_form_for_every_vote_combination() {
        for case in 0..bfetch_prng::cases(16) as u64 {
            let mut r = bfetch_prng::Pcg32::new(0xc0f1_0001 ^ case);
            let mut c = CompositeConfidence::new(ConfidenceConfig::baseline());
            if case % 2 == 1 {
                // park every meter just short of the halving branch, as a
                // restored snapshot of a very long run would
                c.meter_total = [u32::MAX / 2 - 3; 8];
                c.meter_correct = std::array::from_fn(|_| r.gen_range(1 << 31) as u32);
                c.refresh_estimates();
            }
            let (mut seen, mut queried) = ([false; 8], [false; 8]);
            let mut halved = false;
            for _ in 0..4000 {
                // few PCs and histories, so counters cross their thresholds;
                // every PC is always right under one history (JRS confident)
                // and odd PCs mostly wrong under the rest (up/down not), so
                // every combination turns up
                let k = r.gen_range(16);
                let pc = 0x40_0000 + k * 4;
                let ghr = r.gen_range(4) << 4;
                let strength = r.gen_range(4) as u8;
                let v = c.votes(pc, ghr, strength);
                seen[v] = true;
                let before = c.meter_total[v];
                let correct = ghr == 0 || r.gen_bool(if k % 2 == 1 { 0.2 } else { 0.9 });
                c.train(pc, ghr, strength, correct);
                halved |= c.meter_total[v] < before;
                for q in 0..4u64 {
                    let (pc, ghr, s) = (pc + q * 4, ghr ^ q, (strength + q as u8) % 4);
                    let v = c.votes(pc, ghr, s);
                    queried[v] = true;
                    assert_eq!(
                        c.estimate(pc, ghr, s).to_bits(),
                        closed_form(&c, v).to_bits()
                    );
                }
            }
            assert_eq!(seen, [true; 8], "every vote combination trained");
            assert_eq!(queried, [true; 8], "every vote combination estimated");
            assert_eq!(halved, case % 2 == 1, "odd cases cross the halving branch");

            // a restore recomputes the table from the meters it loads
            use bfetch_snapshot::SnapState as _;
            let mut w = bfetch_snapshot::Encoder::new();
            c.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut back = CompositeConfidence::new(ConfidenceConfig::baseline());
            back.load_state(&mut bfetch_snapshot::Decoder::new(&bytes))
                .expect("own snapshot loads");
            assert_eq!(
                back.estimates.map(f64::to_bits),
                c.estimates.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn path_confidence_product() {
        let mut p = PathConfidence::new(0.5);
        assert!(p.extend(0.9));
        assert!(p.extend(0.8)); // 0.72
        assert!(!p.extend(0.6)); // 0.432
        assert!(!p.alive());
        assert!((p.value() - 0.9 * 0.8 * 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_never_stops() {
        let mut p = PathConfidence::new(0.0);
        for _ in 0..100 {
            assert!(p.extend(0.5));
        }
    }

    #[test]
    fn unit_threshold_stops_immediately_on_imperfect() {
        let mut p = PathConfidence::new(1.0);
        assert!(!p.extend(0.999));
    }
}
