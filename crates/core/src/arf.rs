//! The Alternate Register File (Section IV-B2).

use std::collections::VecDeque;

/// A pseudo-architectural copy of the register file, updated by
/// sampling-latch-delayed writes from the execute stage.
///
/// Two properties from the paper:
///
/// * updates become visible a fixed delay after writeback (the engine is
///   off the execution units' critical path), and
/// * each register carries an instruction **sequence number** so an older
///   in-flight instruction can never overwrite the value written by a
///   younger one (out-of-order writeback ordering guard).
///
/// # Example
///
/// ```
/// use bfetch_core::AlternateRegisterFile;
/// let mut arf = AlternateRegisterFile::new(3);
/// arf.post_write(5, 42, 1, 10); // visible at cycle 13
/// arf.apply(12);
/// assert_eq!(arf.read(5), 0);
/// arf.apply(13);
/// assert_eq!(arf.read(5), 42);
/// ```
#[derive(Debug, Clone)]
pub struct AlternateRegisterFile {
    values: [u64; 32],
    seqs: [u64; 32],
    pending: VecDeque<(u64, u8, u64, u64)>, // (visible_at, reg, value, seq)
    delay: u64,
}

impl AlternateRegisterFile {
    /// Creates an ARF whose writes become visible `sampling_delay` cycles
    /// after they are posted.
    pub fn new(sampling_delay: u64) -> Self {
        Self {
            values: [0; 32],
            seqs: [0; 32],
            pending: VecDeque::new(),
            delay: sampling_delay,
        }
    }

    /// Posts a register write from the execute stage at cycle `now` by the
    /// instruction with sequence number `seq`.
    pub fn post_write(&mut self, reg: usize, value: u64, seq: u64, now: u64) {
        debug_assert!(reg < 32);
        if reg == 0 {
            return; // r0 is hardwired zero
        }
        self.pending
            .push_back((now + self.delay, reg as u8, value, seq));
    }

    /// Applies every posted write that has become visible by `now`.
    pub fn apply(&mut self, now: u64) {
        while let Some(&(t, reg, value, seq)) = self.pending.front() {
            if t > now {
                break;
            }
            self.pending.pop_front();
            let r = reg as usize;
            // only an instruction younger than the previous writer may update
            if seq >= self.seqs[r] {
                self.values[r] = value;
                self.seqs[r] = seq;
            }
        }
    }

    /// Reads the register as currently visible to the prefetch engine.
    #[inline]
    pub fn read(&self, reg: usize) -> u64 {
        debug_assert!(reg < 32);
        self.values[reg]
    }

    /// Snapshot of all 32 registers.
    pub fn snapshot(&self) -> [u64; 32] {
        self.values
    }

    /// Pending (not yet visible) writes.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

bfetch_snapshot::snap_state!(AlternateRegisterFile {
    values: val,
    seqs: val,
    pending: val,
    delay: skip,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_visible_after_delay() {
        let mut arf = AlternateRegisterFile::new(3);
        arf.post_write(5, 42, 1, 10);
        arf.apply(12);
        assert_eq!(arf.read(5), 0, "not yet visible");
        arf.apply(13);
        assert_eq!(arf.read(5), 42);
    }

    #[test]
    fn younger_write_wins_regardless_of_arrival_order() {
        let mut arf = AlternateRegisterFile::new(0);
        // younger instruction (seq 10) writes back first
        arf.post_write(3, 100, 10, 0);
        arf.apply(0);
        // older instruction (seq 5) writes back later — must be ignored
        arf.post_write(3, 7, 5, 1);
        arf.apply(1);
        assert_eq!(arf.read(3), 100);
    }

    #[test]
    fn equal_or_newer_seq_updates() {
        let mut arf = AlternateRegisterFile::new(0);
        arf.post_write(3, 1, 5, 0);
        arf.post_write(3, 2, 6, 0);
        arf.apply(0);
        assert_eq!(arf.read(3), 2);
    }

    #[test]
    fn r0_writes_discarded() {
        let mut arf = AlternateRegisterFile::new(0);
        arf.post_write(0, 99, 1, 0);
        arf.apply(0);
        assert_eq!(arf.read(0), 0);
        assert_eq!(arf.pending_len(), 0);
    }

    #[test]
    fn apply_is_incremental() {
        let mut arf = AlternateRegisterFile::new(2);
        arf.post_write(1, 11, 1, 0); // visible at 2
        arf.post_write(2, 22, 2, 5); // visible at 7
        arf.apply(3);
        assert_eq!(arf.read(1), 11);
        assert_eq!(arf.read(2), 0);
        arf.apply(7);
        assert_eq!(arf.read(2), 22);
    }
}
