//! Sequential next-N-lines prefetcher.

use crate::{hash_pc10, line_of, AccessEvent, PrefetchRequest, Prefetcher};
use bfetch_mem::LINE_BYTES;

/// The classic "Next-n Lines" prefetcher (Smith, 1978): on every demand
/// miss, queue the next `n` sequential lines.
///
/// Included as the simplest member of the paper's "light-weight" class
/// (Section III-A); useful as a sanity baseline and for ablations.
#[derive(Debug, Clone)]
pub struct NextN {
    n: usize,
    last_line: u64,
}

impl NextN {
    /// Prefetch the next `n` lines after each miss.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "degree must be nonzero");
        Self {
            n,
            last_line: u64::MAX,
        }
    }
}

impl Prefetcher for NextN {
    fn name(&self) -> &'static str {
        "next-n"
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.hit {
            return;
        }
        let line = line_of(ev.addr);
        if line == self.last_line {
            return;
        }
        self.last_line = line;
        let h = hash_pc10(ev.pc);
        for k in 1..=self.n as u64 {
            out.push(PrefetchRequest {
                addr: line.wrapping_add(k * LINE_BYTES),
                pc_hash: h,
            });
        }
    }

    fn storage_bits(&self) -> u64 {
        64 // just the last-line latch
    }
}

bfetch_snapshot::snap_state!(NextN {
    n: skip,
    last_line: val,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(addr: u64) -> AccessEvent {
        AccessEvent {
            pc: 0x40_0000,
            addr,
            hit: false,
            is_load: true,
        }
    }

    #[test]
    fn emits_n_sequential_lines_on_miss() {
        let mut p = NextN::new(3);
        let mut out = Vec::new();
        p.on_access(&miss(0x1000), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x1040, 0x1080, 0x10c0]);
    }

    #[test]
    fn silent_on_hits() {
        let mut p = NextN::new(2);
        let mut out = Vec::new();
        p.on_access(
            &AccessEvent {
                pc: 0,
                addr: 0x1000,
                hit: true,
                is_load: true,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn deduplicates_same_line_misses() {
        let mut p = NextN::new(2);
        let mut out = Vec::new();
        p.on_access(&miss(0x1000), &mut out);
        p.on_access(&miss(0x1008), &mut out); // same line
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_degree_rejected() {
        NextN::new(0);
    }
}
