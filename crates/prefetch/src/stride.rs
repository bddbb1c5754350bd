//! Reference-prediction-table stride prefetcher (Chen & Baer, 1995).

use crate::{hash_pc10, line_of, AccessEvent, PrefetchRequest, Prefetcher};

/// Geometry and aggressiveness of the stride prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Reference prediction table entries (power of two).
    pub entries: usize,
    /// Prefetch degree: how many strided addresses ahead to cover.
    /// Section V-A: "prefetching the next 8 strided addresses provides the
    /// most speedup".
    pub degree: usize,
}

impl StrideConfig {
    /// The paper's evaluated configuration (degree 8).
    pub fn baseline() -> Self {
        Self {
            entries: 256,
            degree: 8,
        }
    }
}

impl Default for StrideConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Per-PC reference prediction entry state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
    NoPred,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    state: State,
    // furthest line already requested, to avoid re-issuing the same window
    frontier: u64,
    valid: bool,
}

/// The stride prefetcher: a PC-indexed reference prediction table whose
/// entries walk the classic `Initial → Transient → Steady` state machine;
/// entries in `Steady` issue `degree` strided prefetches ahead of the
/// demand stream, advancing a per-entry frontier so each line is requested
/// once.
#[derive(Debug, Clone)]
pub struct Stride {
    cfg: StrideConfig,
    table: Vec<Entry>,
}

impl Stride {
    /// Builds the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two and `degree` is nonzero.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(
            cfg.entries.is_power_of_two(),
            "entries must be power of two"
        );
        assert!(cfg.degree > 0, "degree must be nonzero");
        Self {
            cfg,
            table: vec![
                Entry {
                    tag: 0,
                    last_addr: 0,
                    stride: 0,
                    state: State::Initial,
                    frontier: 0,
                    valid: false,
                };
                cfg.entries
            ],
        }
    }

    /// The paper's degree-8 configuration.
    pub fn degree8() -> Self {
        Self::new(StrideConfig::baseline())
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.entries - 1)
    }
}

impl Prefetcher for Stride {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let idx = self.index(ev.pc);
        let degree = self.cfg.degree as u64;
        let e = &mut self.table[idx];

        if !e.valid || e.tag != ev.pc {
            *e = Entry {
                tag: ev.pc,
                last_addr: ev.addr,
                stride: 0,
                state: State::Initial,
                frontier: line_of(ev.addr),
                valid: true,
            };
            return;
        }

        let new_stride = ev.addr.wrapping_sub(e.last_addr) as i64;
        let matches = new_stride == e.stride && new_stride != 0;
        e.state = match (e.state, matches) {
            (State::Initial, true) => State::Steady,
            (State::Initial, false) => State::Transient,
            (State::Transient, true) => State::Steady,
            (State::Transient, false) => State::NoPred,
            (State::Steady, true) => State::Steady,
            (State::Steady, false) => State::Initial,
            (State::NoPred, true) => State::Transient,
            (State::NoPred, false) => State::NoPred,
        };
        if !matches {
            e.stride = new_stride;
        }
        e.last_addr = ev.addr;

        if e.state == State::Steady {
            let h = hash_pc10(ev.pc);
            let target_frontier = line_of(ev.addr.wrapping_add((e.stride * degree as i64) as u64));
            let mut last_pushed = u64::MAX;
            for k in 1..=degree {
                let a = ev.addr.wrapping_add((e.stride * k as i64) as u64);
                let la = line_of(a);
                // only issue beyond the frontier (forward or backward streams)
                let beyond = if e.stride >= 0 {
                    la > e.frontier
                } else {
                    la < e.frontier
                };
                if beyond && la != line_of(ev.addr) && la != last_pushed {
                    out.push(PrefetchRequest {
                        addr: la,
                        pc_hash: h,
                    });
                    last_pushed = la;
                }
            }
            e.frontier = target_frontier;
        } else {
            e.frontier = line_of(ev.addr);
        }
    }

    fn storage_bits(&self) -> u64 {
        // tag(32) + last_addr(32) + stride(16) + state(2) + frontier(32)
        self.cfg.entries as u64 * (32 + 32 + 16 + 2 + 32)
    }
}

bfetch_snapshot::snap_state!(Stride {
    cfg: skip,
    table: slice("stride table"),
});

bfetch_snapshot::impl_snap_struct!(StrideConfig { entries, degree });
bfetch_snapshot::impl_snap_enum!(State {
    State::Initial = 0,
    State::Transient = 1,
    State::Steady = 2,
    State::NoPred = 3
});
bfetch_snapshot::impl_snap_struct!(Entry {
    tag,
    last_addr,
    stride,
    state,
    frontier,
    valid
});

#[cfg(test)]
mod tests {
    use super::*;

    fn access(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            pc,
            addr,
            hit: false,
            is_load: true,
        }
    }

    #[test]
    fn detects_constant_stride_and_issues_degree() {
        let mut p = Stride::degree8();
        let mut out = Vec::new();
        // 256-byte stride: 3rd access reaches Steady
        p.on_access(&access(0x400100, 0x1_0000), &mut out);
        p.on_access(&access(0x400100, 0x1_0100), &mut out);
        assert!(out.is_empty(), "not steady yet");
        p.on_access(&access(0x400100, 0x1_0200), &mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(out[0].addr, 0x1_0300);
        assert_eq!(out[7].addr, 0x1_0a00);
    }

    #[test]
    fn frontier_prevents_reissue() {
        let mut p = Stride::degree8();
        let mut out = Vec::new();
        for i in 0..3u64 {
            p.on_access(&access(0x400100, 0x1_0000 + i * 256), &mut out);
        }
        let first_burst = out.len();
        out.clear();
        p.on_access(&access(0x400100, 0x1_0300), &mut out);
        assert_eq!(first_burst, 8);
        assert_eq!(out.len(), 1, "only one new line past the frontier");
        assert_eq!(out[0].addr, 0x1_0b00);
    }

    #[test]
    fn small_strides_within_line_do_not_spam() {
        let mut p = Stride::degree8();
        let mut out = Vec::new();
        // 8-byte stride: 8 iterations stay inside one or two lines
        for i in 0..8u64 {
            p.on_access(&access(0x400200, 0x2_0000 + i * 8), &mut out);
        }
        // all requests must be distinct lines
        let mut lines: Vec<u64> = out.iter().map(|r| r.addr).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), out.len(), "no duplicate line requests");
    }

    #[test]
    fn negative_stride_streams_backward() {
        let mut p = Stride::degree8();
        let mut out = Vec::new();
        for i in 0..3i64 {
            p.on_access(&access(0x400300, (0x9_0000 - i * 128) as u64), &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.addr < 0x9_0000));
    }

    #[test]
    fn irregular_stream_goes_quiet() {
        let mut p = Stride::degree8();
        let mut out = Vec::new();
        let addrs = [0x1000u64, 0x5000, 0x2000, 0x9000, 0x3000, 0x7777];
        for a in addrs {
            p.on_access(&access(0x400400, a), &mut out);
        }
        assert!(out.len() <= 8, "irregular pattern must not stream");
    }

    #[test]
    fn pc_conflict_reallocates() {
        let mut p = Stride::new(StrideConfig {
            entries: 1,
            degree: 2,
        });
        let mut out = Vec::new();
        p.on_access(&access(0x400100, 0x1000), &mut out);
        p.on_access(&access(0x400200, 0x9000), &mut out); // evicts
        p.on_access(&access(0x400100, 0x1100), &mut out); // fresh entry
        assert!(out.is_empty());
    }

    #[test]
    fn storage_in_lightweight_class() {
        let kb = Stride::degree8().storage_kb();
        assert!(kb < 8.0, "stride must stay light-weight, got {kb} KB");
    }
}
