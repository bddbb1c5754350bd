//! Bandwidth-limited DRAM model, with an optional bank/row-buffer mode.

/// DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Fixed access latency in core cycles (Table II: 200). In row-buffer
    /// mode this is the row-*miss* (activate + precharge) latency.
    pub latency: u64,
    /// Minimum cycles between successive 64 B line transfers on one
    /// channel. Section V-A limits the controller to 12.8 GB/s; at the
    /// nominal 3.2 GHz core clock that is one line per 16 cycles.
    pub line_interval: u64,
    /// Independent channels (the baseline models a single x64 DDR3
    /// controller).
    pub channels: usize,
    /// Enable the bank/row-buffer model. Off by default: the paper's
    /// Table II gives only a flat 200-cycle latency, and the flat model is
    /// what every recorded experiment uses; the row model is available for
    /// substrate studies (see the `ext_dram` bench binary).
    pub row_model: bool,
    /// Banks per channel (row-buffer mode).
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes (row-buffer mode).
    pub row_bytes: u64,
    /// Access latency on a row-buffer hit (row-buffer mode).
    pub row_hit_latency: u64,
}

impl DramConfig {
    /// Table II / Section V-A baseline (flat 200-cycle latency).
    pub fn baseline() -> Self {
        Self {
            latency: 200,
            line_interval: 16,
            channels: 1,
            row_model: false,
            banks_per_channel: 8,
            row_bytes: 8 * 1024,
            row_hit_latency: 110,
        }
    }

    /// The baseline with the bank/row-buffer model enabled.
    pub fn with_row_model() -> Self {
        Self {
            row_model: true,
            ..Self::baseline()
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// A DRAM controller with per-channel occupancy: each line transfer seizes
/// its channel for [`DramConfig::line_interval`] cycles, so requests queue
/// when bandwidth saturates — the contention effect the multiprogrammed
/// experiments (Figures 9-11) depend on.
///
/// # Example
///
/// ```
/// use bfetch_mem::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig::baseline());
/// assert_eq!(dram.request(0x0, 0), 200);   // idle channel: full latency
/// assert_eq!(dram.request(0x40, 0), 216);  // queued one line interval
/// ```
///
/// With [`DramConfig::row_model`] enabled, requests additionally resolve
/// against per-bank open rows: consecutive accesses to the same DRAM row
/// complete at [`DramConfig::row_hit_latency`], giving spatially local
/// streams higher effective bandwidth, as on real DDR parts.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    next_free: Vec<u64>,
    banks: Vec<Bank>,
    requests: u64,
    row_hits: u64,
    busy_cycles: u64,
    queue_cycles: u64,
}

impl Dram {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics if `channels`, `line_interval`, `banks_per_channel` or
    /// `row_bytes` is zero.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0, "need at least one channel");
        assert!(cfg.line_interval > 0, "line interval must be nonzero");
        assert!(cfg.banks_per_channel > 0, "need at least one bank");
        assert!(cfg.row_bytes > 0, "rows must be nonempty");
        Self {
            next_free: vec![0; cfg.channels],
            banks: vec![Bank::default(); cfg.channels * cfg.banks_per_channel],
            requests: 0,
            row_hits: 0,
            busy_cycles: 0,
            queue_cycles: 0,
            cfg,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Schedules a line fetch for `line_addr` arriving at `now`; returns the
    /// completion cycle (queueing + access latency).
    pub fn request(&mut self, line_addr: u64, now: u64) -> u64 {
        let ch = (line_addr / crate::LINE_BYTES) as usize % self.cfg.channels;
        let start = now.max(self.next_free[ch]);
        self.next_free[ch] = start + self.cfg.line_interval;
        self.requests += 1;
        self.busy_cycles += self.cfg.line_interval;
        self.queue_cycles += start - now;

        if !self.cfg.row_model {
            return start + self.cfg.latency;
        }

        let bank_idx = ch * self.cfg.banks_per_channel
            + ((line_addr / self.cfg.row_bytes) as usize % self.cfg.banks_per_channel);
        let row = line_addr / (self.cfg.row_bytes * self.cfg.banks_per_channel as u64);
        let bank = &mut self.banks[bank_idx];
        let begin = start.max(bank.busy_until);
        let (latency, occupancy) = if bank.open_row == Some(row) {
            self.row_hits += 1;
            // a row hit only occupies the bank for its data burst
            (self.cfg.row_hit_latency, self.cfg.line_interval)
        } else {
            bank.open_row = Some(row);
            // a row miss holds the bank for the precharge+activate window
            // (tRC-order), which is what makes bank conflicts expensive
            (self.cfg.latency, self.cfg.line_interval * 6)
        };
        bank.busy_until = begin + occupancy;
        begin + latency
    }

    /// Total line requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Row-buffer hits (row-buffer mode only).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Cumulative cycles requests spent queued behind the channel.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Channel utilization over `elapsed` cycles, in `[0, 1]` (can read >1
    /// transiently if `elapsed` undercounts outstanding work).
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (elapsed * self.cfg.channels as u64) as f64
        }
    }
}

bfetch_snapshot::impl_snap_struct!(DramConfig {
    latency,
    line_interval,
    channels,
    row_model,
    banks_per_channel,
    row_bytes,
    row_hit_latency
});

bfetch_snapshot::impl_snap_struct!(Bank {
    open_row,
    busy_until
});

bfetch_snapshot::snap_state!(Dram {
    cfg: skip,
    next_free: slice("dram channels"),
    banks: slice("dram banks"),
    requests: val,
    row_hits: val,
    busy_cycles: val,
    queue_cycles: val,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_full_latency_only() {
        let mut d = Dram::new(DramConfig::baseline());
        assert_eq!(d.request(0x0, 100), 300);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = Dram::new(DramConfig::baseline());
        let a = d.request(0x0, 0);
        let b = d.request(0x40, 0);
        let c = d.request(0x80, 0);
        assert_eq!(a, 200);
        assert_eq!(b, 216);
        assert_eq!(c, 232);
        assert_eq!(d.queue_cycles(), 16 + 32);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut d = Dram::new(DramConfig::baseline());
        let a = d.request(0x0, 0);
        let b = d.request(0x40, 100);
        assert_eq!(a, 200);
        assert_eq!(b, 300);
        assert_eq!(d.queue_cycles(), 0);
    }

    #[test]
    fn multiple_channels_interleave() {
        let mut d = Dram::new(DramConfig {
            channels: 2,
            ..DramConfig::baseline()
        });
        // consecutive lines map to alternating channels
        let a = d.request(0x0, 0);
        let b = d.request(0x40, 0);
        assert_eq!(a, 200);
        assert_eq!(b, 200, "second line rides the other channel");
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut d = Dram::new(DramConfig::baseline());
        d.request(0, 0);
        d.request(64, 0);
        assert!((d.utilization(64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let mut d = Dram::new(DramConfig::with_row_model());
        let miss = d.request(0x0, 0);
        let hit = d.request(0x40, 1000); // same 8 KB row, later
        assert_eq!(miss, 200);
        assert!(hit - 1000 < 200, "row hit should be faster: {}", hit - 1000);
        assert_eq!(d.row_hits(), 1);
    }

    #[test]
    fn row_conflict_reopens() {
        let cfg = DramConfig::with_row_model();
        let mut d = Dram::new(cfg);
        d.request(0x0, 0);
        // same bank, different row: banks repeat every banks*row_bytes
        let conflict = cfg.row_bytes * cfg.banks_per_channel as u64;
        let t = d.request(conflict, 5000);
        assert_eq!(t - 5000, cfg.latency, "row conflict pays full latency");
    }

    #[test]
    fn different_banks_overlap() {
        let cfg = DramConfig::with_row_model();
        let mut d = Dram::new(cfg);
        let a = d.request(0x0, 0);
        let b = d.request(cfg.row_bytes, 0); // next bank
                                             // both pay full latency but only the channel interval separates them
        assert_eq!(a, 200);
        assert!(b <= 200 + cfg.line_interval);
    }

    #[test]
    fn flat_mode_ignores_rows() {
        let mut d = Dram::new(DramConfig::baseline());
        d.request(0x0, 0);
        d.request(0x40, 500);
        assert_eq!(d.row_hits(), 0);
    }

    #[test]
    #[should_panic(expected = "channel")]
    fn rejects_zero_channels() {
        Dram::new(DramConfig {
            channels: 0,
            ..DramConfig::baseline()
        });
    }
}
