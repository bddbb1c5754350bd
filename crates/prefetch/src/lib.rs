//! # bfetch-prefetch
//!
//! The demand-side prefetcher framework and the two comparison points the
//! paper evaluates (Figs 8–15):
//!
//! * [`Stride`] — reference-prediction-table stride prefetcher (Chen &
//!   Baer, 1995), run at degree 8 as Section V-A found best.
//! * [`Sms`] — Spatial Memory Streaming (Somogyi et al., ISCA 2006), at the
//!   paper's practical configuration: 2 KB spatial regions, a 64-entry
//!   active generation table and a 16 K-entry pattern history table
//!   (Section IV-C / Table I).
//!
//! All of these observe the demand L1D access stream ([`AccessEvent`]) and
//! emit [`PrefetchRequest`]s; the simulator feeds those into the
//! [`MemorySystem`](bfetch_mem::MemorySystem) prefetch port. The B-Fetch
//! engine itself lives in `bfetch-core` — it is *not* demand-driven, which
//! is the point of the paper.
//!
//! # Example
//!
//! ```
//! use bfetch_prefetch::{AccessEvent, Prefetcher, Stride};
//!
//! let mut pf = Stride::degree8();
//! let mut out = Vec::new();
//! for i in 0..4u64 {
//!     let ev = AccessEvent { pc: 0x400100, addr: 0x1_0000 + i * 256, hit: false, is_load: true };
//!     pf.on_access(&ev, &mut out);
//! }
//! assert!(!out.is_empty(), "steady 256B stride detected");
//! ```

#![forbid(unsafe_code)]

pub mod sms;
pub mod stride;

pub use sms::{Sms, SmsConfig};
pub use stride::{Stride, StrideConfig};

use bfetch_mem::LINE_BYTES;

/// One demand access observed at the L1D, as seen by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Byte PC of the memory instruction.
    pub pc: u64,
    /// Virtual address accessed.
    pub addr: u64,
    /// Whether the access hit in the L1D.
    pub hit: bool,
    /// Load (`true`) or store (`false`).
    pub is_load: bool,
}

/// A prefetch candidate produced by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Virtual address to prefetch (any byte within the target line).
    pub addr: u64,
    /// 10-bit hash of the originating PC, carried through the hierarchy for
    /// usefulness accounting.
    pub pc_hash: u16,
}

/// The 10-bit PC hash stored with prefetched lines (Section IV-B3).
#[inline]
pub fn hash_pc10(pc: u64) -> u16 {
    (((pc >> 2) ^ (pc >> 12) ^ (pc >> 22)) & 0x3ff) as u16
}

/// A demand-stream-driven data prefetcher.
///
/// Implementations observe every L1D demand access and append any prefetch
/// candidates to `out`. They are deterministic state machines; all timing
/// is applied downstream by the memory system.
///
/// [`SnapState`](bfetch_snapshot::SnapState) checkpoints the mutable state
/// only: restore happens into a prefetcher freshly constructed from the
/// same configuration, and a geometry mismatch is a typed error.
pub trait Prefetcher: std::fmt::Debug + bfetch_snapshot::SnapState {
    /// Short identifier used in reports ("stride", "sms", ...).
    fn name(&self) -> &'static str;

    /// Observes one demand access, appending prefetch candidates to `out`.
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>);

    /// Total prefetcher state in bits (Table I reproduction).
    fn storage_bits(&self) -> u64;

    /// Storage in kilobytes.
    fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

bfetch_snapshot::impl_snap_struct!(PrefetchRequest { addr, pc_hash });

/// Aligns an address down to its cache line (re-exported convenience).
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_hash_is_10_bits() {
        for pc in [0u64, 0x40_0000, u64::MAX, 0x1234_5678] {
            assert!(hash_pc10(pc) < 1024);
        }
    }

    #[test]
    fn pc_hash_distinguishes_nearby_pcs() {
        assert_ne!(hash_pc10(0x40_0000), hash_pc10(0x40_0004));
    }

    /// Serialize → restore → continue must be indistinguishable from never
    /// stopping, for every prefetcher kind (the checkpoint/resume contract).
    #[test]
    fn restored_prefetchers_continue_identically() {
        let mut kinds: Vec<(Box<dyn Prefetcher>, Box<dyn Prefetcher>)> = vec![
            (Box::new(Stride::degree8()), Box::new(Stride::degree8())),
            (Box::new(Sms::baseline()), Box::new(Sms::baseline())),
        ];
        let ev = |i: u64| AccessEvent {
            pc: 0x40_0000 + (i % 13) * 4,
            addr: (i.wrapping_mul(0x9e37_79b9) >> 7) % 0x10_0000,
            hit: i.is_multiple_of(3),
            is_load: !i.is_multiple_of(5),
        };
        for (a, b) in kinds.iter_mut() {
            let mut sink = Vec::new();
            for i in 0..400u64 {
                a.on_access(&ev(i), &mut sink);
            }
            let mut w = bfetch_snapshot::Encoder::new();
            a.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = bfetch_snapshot::Decoder::new(&bytes);
            b.load_state(&mut r).unwrap();
            r.finish().unwrap();

            // the restored copy must also re-encode to the same bytes
            // (canonical encoding, independent of hasher iteration order)
            let mut w2 = bfetch_snapshot::Encoder::new();
            b.save_state(&mut w2);
            assert_eq!(bytes, w2.into_bytes(), "{} not canonical", a.name());

            for i in 400..800u64 {
                let (mut oa, mut ob) = (Vec::new(), Vec::new());
                a.on_access(&ev(i), &mut oa);
                b.on_access(&ev(i), &mut ob);
                assert_eq!(oa, ob, "{} diverged after restore", a.name());
            }
        }
    }
}
