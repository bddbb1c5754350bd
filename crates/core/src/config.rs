//! Engine configuration and Table I storage accounting.

/// Configuration of the B-Fetch engine. Defaults reproduce the paper's
/// evaluated design point (Table I geometry, Table II thresholds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BFetchConfig {
    /// Branch Trace Cache entries (Table I: 256).
    pub brtc_entries: usize,
    /// Memory History Table entries (Table I: 128).
    pub mht_entries: usize,
    /// Register-history slots per MHT entry (Section IV-B2: three slots
    /// "generally sufficient").
    pub mht_slots: usize,
    /// Entries in *each* of the three per-load filter tables
    /// (Table I: 2048 total counters ⇒ 2.25 KB at 3 tables × 3 bits... the
    /// paper counts 2048 counters per table).
    pub filter_entries: usize,
    /// Per-load filter issue threshold on the 3-counter sum (Table II: 3).
    pub filter_threshold: u8,
    /// Path-confidence stop threshold (Table II: 0.75; Figure 12 sweeps
    /// 0.45/0.75/0.90).
    pub confidence_threshold: f64,
    /// Hard cap on lookahead depth in branches (the paper reports an
    /// average depth of 8 BBs at threshold 0.75).
    pub max_lookahead: usize,
    /// Prefetch queue capacity (Table I: 100).
    pub queue_entries: usize,
    /// Decoded Branch Register capacity.
    pub dbr_entries: usize,
    /// Cycles between a register writeback and its visibility in the ARF
    /// (the "sampling latches" of Figure 4).
    pub arf_sampling_delay: u64,
    /// Saturation for the loop iteration counter (Fig 6: 5-bit LoopCnt).
    pub loop_cnt_max: u32,
    /// Ablation: enable the per-load filter (Section IV-B3). Disabling it
    /// issues every computed candidate.
    pub enable_filter: bool,
    /// Ablation: enable runtime loop detection and the
    /// `LoopCnt × LoopDelta` term of Equation 3.
    pub enable_loops: bool,
    /// Ablation: enable the pos/negPatt sibling-load expansion.
    pub enable_patt: bool,
    /// Ablation: update the ARF from retire-stage architectural state
    /// instead of the sampling-latch execute copy (the paper reports the
    /// execute copy gives "significant improvement in performance").
    pub arf_at_retire: bool,
}

impl BFetchConfig {
    /// The evaluated design point.
    pub fn baseline() -> Self {
        Self {
            brtc_entries: 256,
            mht_entries: 128,
            mht_slots: 3,
            filter_entries: 2048,
            filter_threshold: 3,
            confidence_threshold: 0.75,
            max_lookahead: 24,
            queue_entries: 100,
            dbr_entries: 8,
            arf_sampling_delay: 3,
            loop_cnt_max: 31,
            enable_filter: true,
            enable_loops: true,
            enable_patt: true,
            arf_at_retire: false,
        }
    }

    /// The Figure 15 storage-sensitivity variants: scales BrTC and MHT
    /// entries together (64/128/256/512 ⇒ 8.01/9.65/12.94/19.46 KB).
    ///
    /// # Panics
    ///
    /// Panics unless `brtc_entries` is a power of two.
    pub fn with_table_entries(mut self, brtc_entries: usize) -> Self {
        assert!(brtc_entries.is_power_of_two());
        self.brtc_entries = brtc_entries;
        self.mht_entries = (brtc_entries / 2).max(1);
        self
    }

    /// The Figure 12 confidence-sensitivity variant.
    pub fn with_confidence_threshold(mut self, t: f64) -> Self {
        self.confidence_threshold = t;
        self
    }
}

impl Default for BFetchConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

bfetch_snapshot::impl_snap_struct!(BFetchConfig {
    brtc_entries,
    mht_entries,
    mht_slots,
    filter_entries,
    filter_threshold,
    confidence_threshold,
    max_lookahead,
    queue_entries,
    dbr_entries,
    arf_sampling_delay,
    loop_cnt_max,
    enable_filter,
    enable_loops,
    enable_patt,
    arf_at_retire
});

/// One row of the Table I storage breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageRow {
    /// Component name as in Table I.
    pub component: &'static str,
    /// Entry count (0 when not applicable).
    pub entries: usize,
    /// Size in kilobytes.
    pub kb: f64,
}

/// The engine's storage breakdown (Table I reproduction).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StorageReport {
    /// Component rows.
    pub rows: Vec<StorageRow>,
}

impl StorageReport {
    /// Total size across components, in KB.
    pub fn total_kb(&self) -> f64 {
        self.rows.iter().map(|r| r.kb).sum()
    }
}

impl BFetchConfig {
    /// Computes the Table I storage breakdown for this configuration.
    ///
    /// Field widths follow Figures 5 and 6: BrTC entries are 66 bits
    /// (32-bit branch + 32-bit next + direction + valid), MHT entries are
    /// 32-bit tag + 3 × 85-bit register-history slots (+ a 10-bit per-slot
    /// load-PC hash this implementation adds for filter addressing), the
    /// ARF is 32 × (32-bit value + 8-bit sequence), the filter is 3 tables
    /// of 3-bit counters, each L1D line carries 11 extra bits, queue
    /// entries are 42 bits, and the path confidence estimator is two 4-bit
    /// tables (see `bfetch-bpred`).
    pub fn storage_report(&self) -> StorageReport {
        let kb = |bits: u64| bits as f64 / 8.0 / 1024.0;
        let brtc_bits = self.brtc_entries as u64 * 66;
        let slot_bits = 85 + 10; // Fig 6 fields + load-PC hash
        let mht_bits = self.mht_entries as u64 * (32 + self.mht_slots as u64 * slot_bits);
        let arf_bits = 32 * (32 + 8);
        let filter_bits = 3 * self.filter_entries as u64 * 3;
        let l1d_lines = 64 * 1024 / 64;
        let cache_bits = l1d_lines * 11;
        let queue_bits = self.queue_entries as u64 * 42;
        let conf_bits = 2048 * 4 * 2;
        StorageReport {
            rows: vec![
                StorageRow {
                    component: "Branch Trace Cache",
                    entries: self.brtc_entries,
                    kb: kb(brtc_bits),
                },
                StorageRow {
                    component: "Memory History Table",
                    entries: self.mht_entries,
                    kb: kb(mht_bits),
                },
                StorageRow {
                    component: "Alternate Register File",
                    entries: 32,
                    kb: kb(arf_bits),
                },
                StorageRow {
                    component: "Per-Load Prefetch Filter",
                    entries: self.filter_entries,
                    kb: kb(filter_bits),
                },
                StorageRow {
                    component: "Additional Cache bits",
                    entries: 0,
                    kb: kb(cache_bits),
                },
                StorageRow {
                    component: "Prefetch Queue",
                    entries: self.queue_entries,
                    kb: kb(queue_bits),
                },
                StorageRow {
                    component: "Path Confidence Estimator",
                    entries: 2048,
                    kb: kb(conf_bits),
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_storage_matches_table_1() {
        let total = BFetchConfig::baseline().storage_report().total_kb();
        // Table I: 12.84 KB (we add 10 bits/slot for the load-PC hash)
        assert!(
            (12.0..14.5).contains(&total),
            "baseline B-Fetch storage should be ~12.84 KB, got {total}"
        );
    }

    #[test]
    fn component_rows_match_table_1() {
        let r = BFetchConfig::baseline().storage_report();
        let get = |name: &str| {
            r.rows
                .iter()
                .find(|row| row.component == name)
                .map(|row| row.kb)
                .expect("row present")
        };
        assert!((get("Branch Trace Cache") - 2.06).abs() < 0.1);
        assert!((get("Alternate Register File") - 0.156).abs() < 0.01);
        assert!((get("Per-Load Prefetch Filter") - 2.25).abs() < 0.01);
        assert!((get("Additional Cache bits") - 1.37).abs() < 0.01);
        assert!((get("Prefetch Queue") - 0.51).abs() < 0.01);
        assert!((get("Path Confidence Estimator") - 2.0).abs() < 0.01);
        // MHT slightly above the paper's 4.5 KB due to the load-PC hash
        assert!((get("Memory History Table") - 4.5).abs() < 0.6);
    }

    #[test]
    fn figure_15_sizes_are_ordered() {
        let sizes: Vec<f64> = [64, 128, 256, 512]
            .iter()
            .map(|&e| {
                BFetchConfig::baseline()
                    .with_table_entries(e)
                    .storage_report()
                    .total_kb()
            })
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Figure 15 lists 8.01 / 9.65 / 12.94 / 19.46 KB
        assert!((sizes[0] - 8.0).abs() < 1.0, "{sizes:?}");
        assert!((sizes[3] - 19.5).abs() < 2.0, "{sizes:?}");
    }

    #[test]
    fn threshold_builder() {
        let c = BFetchConfig::baseline().with_confidence_threshold(0.9);
        assert_eq!(c.confidence_threshold, 0.9);
    }
}
