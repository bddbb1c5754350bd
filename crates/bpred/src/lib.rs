//! # bfetch-bpred
//!
//! Branch prediction substrate for the B-Fetch reproduction.
//!
//! The paper's baseline core (Table II) uses a **6.55 KB tournament
//! predictor** (Alpha 21264 style: a local history predictor, a gshare-like
//! global predictor, and a chooser) achieving a 2.76% misprediction rate on
//! its SPEC subset. B-Fetch additionally requires:
//!
//! * a **composite per-branch confidence estimator** (Jimenez, SBAC-PAD
//!   2009) combining JRS miss-distance counters, an up/down counter, and a
//!   *self* estimator derived from the strength of the predictor's own
//!   saturating counter, and
//! * a **path confidence** (Malik et al., HPCA 2008: PaCo) — the product of
//!   per-branch confidence probabilities along the speculative lookahead
//!   path, used to throttle lookahead depth (threshold 0.75 in Table II).
//!
//! The main pipeline owns a [`TournamentPredictor`] plus a
//! [`HistoryRegister`]; the B-Fetch lookahead walks future branches with a
//! [`SpeculativeCursor`], which snapshots the history and queries the shared
//! tables read-only (Section IV-C argues the predictor port is idle >99.95%
//! of cycles, so no second copy of the state is needed).
//!
//! # Example
//!
//! ```
//! use bfetch_bpred::{TournamentPredictor, TournamentConfig, HistoryRegister};
//!
//! let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
//! let mut ghr = HistoryRegister::new();
//! // A loop branch taken 9 of 10 times trains quickly.
//! for i in 0..1000u32 {
//!     let taken = i % 10 != 9;
//!     let p = bp.predict(0x400100, ghr.bits());
//!     bp.update(0x400100, ghr.bits(), taken);
//!     ghr.push(taken);
//!     let _ = p;
//! }
//! let p = bp.predict(0x400100, ghr.bits());
//! assert!(p.taken);
//! ```

#![forbid(unsafe_code)]

pub mod btb;
pub mod confidence;
pub mod ghr;
pub mod tournament;

pub use btb::Btb;
pub use confidence::{CompositeConfidence, ConfidenceConfig, PathConfidence};
pub use ghr::HistoryRegister;
pub use tournament::{Prediction, SpeculativeCursor, TournamentConfig, TournamentPredictor};

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use bfetch_snapshot::{Decoder, Encoder, SnapState, SnapshotError};

    fn train(bp: &mut TournamentPredictor, seed: u64) {
        let mut ghr = HistoryRegister::new();
        for i in 0..500u64 {
            let pc = 0x40_0000 + (i % 17) * 4;
            let taken = (i.wrapping_mul(seed) >> 3) & 1 == 0;
            bp.update(pc, ghr.bits(), taken);
            ghr.push(taken);
        }
    }

    #[test]
    fn tournament_state_round_trips() {
        let mut a = TournamentPredictor::new(TournamentConfig::baseline());
        train(&mut a, 0x9e37);
        let mut w = Encoder::new();
        SnapState::save_state(&a, &mut w);
        let bytes = w.into_bytes();

        let mut b = TournamentPredictor::new(TournamentConfig::baseline());
        let mut r = Decoder::new(&bytes);
        SnapState::load_state(&mut b, &mut r).unwrap();
        r.finish().unwrap();
        for pc in (0x40_0000u64..0x40_0100).step_by(4) {
            assert_eq!(a.predict(pc, 0b1011), b.predict(pc, 0b1011));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn tournament_geometry_mismatch_is_typed_error() {
        let mut a = TournamentPredictor::new(TournamentConfig::baseline());
        train(&mut a, 7);
        let mut w = Encoder::new();
        SnapState::save_state(&a, &mut w);
        let bytes = w.into_bytes();

        let mut b = TournamentPredictor::new(TournamentConfig::scaled(2.0));
        let mut r = Decoder::new(&bytes);
        assert_eq!(
            SnapState::load_state(&mut b, &mut r),
            Err(SnapshotError::Invalid {
                what: "tournament local history"
            })
        );
    }

    #[test]
    fn btb_and_confidence_round_trip() {
        let mut btb = Btb::new(64, 4);
        let mut conf = CompositeConfidence::new(ConfidenceConfig::baseline());
        for i in 0..200u64 {
            btb.install(0x40_0000 + i * 12, 0x41_0000 + i * 4);
            btb.lookup(0x40_0000 + (i % 7) * 12);
            conf.train(0x40_0000 + i * 4, i, (i % 4) as u8, i % 5 != 0);
        }
        let mut w = Encoder::new();
        btb.save_state(&mut w);
        conf.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut btb2 = Btb::new(64, 4);
        let mut conf2 = CompositeConfidence::new(ConfidenceConfig::baseline());
        let mut r = Decoder::new(&bytes);
        btb2.load_state(&mut r).unwrap();
        conf2.load_state(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..200u64 {
            let pc = 0x40_0000 + i * 12;
            assert_eq!(btb.peek(pc), btb2.peek(pc));
            let cpc = 0x40_0000 + i * 4;
            assert_eq!(
                conf.estimate(cpc, i, (i % 4) as u8).to_bits(),
                conf2.estimate(cpc, i, (i % 4) as u8).to_bits()
            );
        }
        assert_eq!(btb.stats(), btb2.stats());
    }
}
