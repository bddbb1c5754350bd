//! Bandwidth-limited DRAM model, with an optional bank/row-buffer mode.

/// Fixed access latency in core cycles (Table II: 200). In row-buffer mode
/// this is the row-*miss* (activate + precharge) latency.
pub const LATENCY: u64 = 200;
/// Minimum cycles between successive 64 B line transfers on the channel.
/// Section V-A limits the controller to 12.8 GB/s; at the nominal 3.2 GHz
/// core clock that is one line per 16 cycles.
pub const LINE_INTERVAL: u64 = 16;
/// Banks of the row-buffer mode.
pub const ROW_BANKS: usize = 8;
/// Row-buffer size in bytes (row-buffer mode).
pub const ROW_BYTES: u64 = 8 * 1024;
/// Access latency on a row-buffer hit (row-buffer mode).
pub const ROW_HIT_LATENCY: u64 = 110;

/// DRAM timing parameters: the one a figure varies. The rest are this
/// module's constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramConfig {
    /// Enable the bank/row-buffer model. Off by default: the paper's
    /// Table II gives only a flat 200-cycle latency, and the flat model is
    /// what every recorded experiment uses; the row model is available for
    /// substrate studies (see the `ext_dram` bench binary).
    pub row_model: bool,
}

impl DramConfig {
    /// Table II / Section V-A baseline (flat 200-cycle latency).
    pub fn baseline() -> Self {
        Self::default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// A single-channel DRAM controller: each line transfer seizes the
/// channel for [`LINE_INTERVAL`] cycles, so requests queue when bandwidth
/// saturates — the contention effect the multiprogrammed experiments
/// (Figures 9-11) depend on.
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
/// complete at [`ROW_HIT_LATENCY`], giving spatially local streams higher
/// effective bandwidth, as on real DDR parts.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    next_free: u64,
    banks: [Bank; ROW_BANKS],
    requests: u64,
    row_hits: u64,
    busy_cycles: u64,
    queue_cycles: u64,
}

impl Dram {
    /// Builds the controller.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            next_free: 0,
            banks: [Bank::default(); ROW_BANKS],
            requests: 0,
            row_hits: 0,
            busy_cycles: 0,
            queue_cycles: 0,
            cfg,
        }
    }

    /// Schedules a line fetch for `line_addr` arriving at `now`; returns the
    /// completion cycle (queueing + access latency).
    pub fn request(&mut self, line_addr: u64, now: u64) -> u64 {
        let start = now.max(self.next_free);
        self.next_free = start + LINE_INTERVAL;
        self.requests += 1;
        self.busy_cycles += LINE_INTERVAL;
        self.queue_cycles += start - now;

        if !self.cfg.row_model {
            return start + LATENCY;
        }

        let bank = &mut self.banks[(line_addr / ROW_BYTES) as usize % ROW_BANKS];
        let row = line_addr / (ROW_BYTES * ROW_BANKS as u64);
        let begin = start.max(bank.busy_until);
        let (latency, occupancy) = if bank.open_row == Some(row) {
            self.row_hits += 1;
            // a row hit only occupies the bank for its data burst
            (ROW_HIT_LATENCY, LINE_INTERVAL)
        } else {
            bank.open_row = Some(row);
            // a row miss holds the bank for the precharge+activate window
            // (tRC-order), which is what makes bank conflicts expensive
            (LATENCY, LINE_INTERVAL * 6)
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
            self.busy_cycles as f64 / elapsed as f64
        }
    }
}

bfetch_snapshot::impl_snap_struct!(Bank {
    open_row,
    busy_until
});

bfetch_snapshot::snap_state!(Dram {
    cfg: skip,
    next_free: val,
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
    fn utilization_tracks_busy_time() {
        let mut d = Dram::new(DramConfig::baseline());
        d.request(0, 0);
        d.request(64, 0);
        assert!((d.utilization(64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let mut d = Dram::new(DramConfig { row_model: true });
        let miss = d.request(0x0, 0);
        let hit = d.request(0x40, 1000); // same 8 KB row, later
        assert_eq!(miss, 200);
        assert!(hit - 1000 < 200, "row hit should be faster: {}", hit - 1000);
        assert_eq!(d.row_hits(), 1);
    }

    #[test]
    fn row_conflict_reopens() {
        let mut d = Dram::new(DramConfig { row_model: true });
        d.request(0x0, 0);
        // same bank, different row: banks repeat every banks*row_bytes
        let t = d.request(ROW_BYTES * ROW_BANKS as u64, 5000);
        assert_eq!(t - 5000, LATENCY, "row conflict pays full latency");
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(DramConfig { row_model: true });
        let a = d.request(0x0, 0);
        let b = d.request(ROW_BYTES, 0); // next bank
        // both pay full latency but only the channel interval separates them
        assert_eq!(a, 200);
        assert!(b <= 200 + LINE_INTERVAL);
    }

    #[test]
    fn flat_mode_ignores_rows() {
        let mut d = Dram::new(DramConfig::baseline());
        d.request(0x0, 0);
        d.request(0x40, 500);
        assert_eq!(d.row_hits(), 0);
    }
}
