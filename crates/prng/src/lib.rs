//! # bfetch-prng
//!
//! Small, dependency-free, deterministic pseudo-random number generators
//! for workload data initialization and randomized testing.
//!
//! The repository must build with no access to crates.io (the evaluation
//! environment is network-isolated), so the external `rand`/`rand_chacha`
//! stack is replaced by two textbook generators:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer; used for seeding
//!   and for one-shot hashing of cache keys.
//! * [`Pcg32`] — O'Neill's PCG-XSH-RR 64/32; the workhorse stream
//!   generator for kernel data initialization and randomized tests.
//!
//! Both are bit-stable across platforms and releases: workload data (and
//! therefore the golden functional traces pinned in `tests/golden.rs`)
//! depends on these exact sequences. Do not change the algorithms without
//! re-pinning the golden hashes.
//!
//! # Example
//!
//! ```
//! use bfetch_prng::Pcg32;
//! let mut a = Pcg32::new(42);
//! let mut b = Pcg32::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

#![forbid(unsafe_code)]

/// SplitMix64: a tiny, high-quality 64-bit generator and mixer.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot SplitMix64 finalizer: mixes `v` into a well-distributed
/// 64-bit value. Used for content-addressed cache keys.
pub fn mix64(v: u64) -> u64 {
    SplitMix64::new(v).next_u64()
}

/// PCG-XSH-RR 64/32 (O'Neill, 2014): 64-bit LCG state, 32-bit output with
/// an xorshift-high + random-rotate output function.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// A generator on the default stream, seeded via SplitMix64 so that
    /// nearby seeds produce unrelated sequences.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// A generator on an explicit stream (any value; forced odd).
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut g = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        g.state = g.state.wrapping_mul(PCG_MULT).wrapping_add(g.inc);
        g.state = g.state.wrapping_add(sm.next_u64());
        g.state = g.state.wrapping_mul(PCG_MULT).wrapping_add(g.inc);
        g
    }

    /// The next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Moves the generator `delta` draws ahead, as `delta` calls of
    /// [`Pcg32::next_u32`] would, in O(log `delta`) steps (Brown's LCG
    /// jump-ahead). A [`Pcg32::next_u64`] is two draws.
    pub fn advance(&mut self, mut delta: u64) {
        // (mult, plus) of the affine map one step applies, squared per bit
        let (mut mult, mut plus) = (PCG_MULT, self.inc);
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        while delta > 0 {
            if delta & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(mult);
                acc_plus = acc_plus.wrapping_mul(mult).wrapping_add(plus);
            }
            plus = mult.wrapping_add(1).wrapping_mul(plus);
            mult = mult.wrapping_mul(mult);
            delta >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }

    /// The next 64-bit value (two 32-bit draws, high word first).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A uniform value in `[0, n)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range requires a nonzero bound");
        // reject the partial final stripe to stay unbiased
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.gen_range(hi - lo)
    }

    /// A uniform signed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.gen_range((hi.wrapping_sub(lo)) as u64) as i64)
    }

    /// A uniform `f64` in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

// Snapshot support: a generator's entire state is its raw words, so the
// codec's struct macro captures it exactly (mid-stream positions included).
bfetch_snapshot::impl_snap_struct!(SplitMix64 { state });
bfetch_snapshot::impl_snap_struct!(Pcg32 { state, inc });

/// Number of cases randomized ("property") tests should run.
///
/// Defaults to `default`; the `BFETCH_PROP_CASES` environment variable
/// overrides it (CI can crank it up, a quick local run can dial it down).
pub fn cases(default: usize) -> usize {
    std::env::var("BFETCH_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        let mut a = SplitMix64::new(1234567);
        let mut b = SplitMix64::new(1234567);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // adjacent seeds diverge immediately
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn pcg_is_deterministic_and_seed_sensitive() {
        let mut a = Pcg32::new(7);
        let mut b = Pcg32::new(7);
        let mut c = Pcg32::new(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn advance_matches_stepping_every_draw() {
        let start = Pcg32::with_stream(0x5eed, 3);
        let mut stepped = start.clone();
        for n in 0..=10_000u64 {
            let mut jumped = start.clone();
            jumped.advance(n);
            assert_eq!(jumped.state, stepped.state, "advance({n})");
            stepped.next_u32();
        }
    }

    #[test]
    fn advances_compose() {
        let mut seeds = SplitMix64::new(11);
        for _ in 0..64 {
            let start = Pcg32::new(seeds.next_u64());
            let (a, b) = (seeds.next_u64() >> 24, seeds.next_u64() >> 24); // < 2^40
            let (mut split, mut whole) = (start.clone(), start);
            split.advance(a);
            split.advance(b);
            whole.advance(a + b);
            assert_eq!(
                split.next_u64(),
                whole.next_u64(),
                "advance({a}) + advance({b})"
            );
        }
        let mut g = Pcg32::new(1);
        let mut h = g.clone();
        g.advance(1 << 40);
        h.advance(1 << 39);
        h.advance(1 << 39);
        assert_eq!(g.state, h.state);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut r = Pcg32::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn range_i64_handles_negative_bounds() {
        let mut r = Pcg32::new(3);
        for _ in 0..500 {
            let v = r.range_i64(-256, 256);
            assert!((-256..256).contains(&v));
        }
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut r = Pcg32::new(17);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Pcg32::new(5);
        let mut xs: Vec<u32> = (0..64).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(
            xs, sorted,
            "64 elements virtually never shuffle to identity"
        );
    }

    #[test]
    fn cases_defaults_without_env() {
        // (the env var is not set in the test environment)
        assert_eq!(cases(32), 32);
    }

    #[test]
    fn snapshot_round_trips_mid_stream() {
        use bfetch_snapshot::{Decoder, Encoder, Snap};
        let mut g = Pcg32::with_stream(1234, 77);
        for _ in 0..100 {
            g.next_u32();
        }
        let mut w = Encoder::new();
        g.save(&mut w);
        let bytes = w.into_bytes();
        let mut back = Pcg32::load(&mut Decoder::new(&bytes)).unwrap();
        // the restored stream continues bit-identically
        for _ in 0..100 {
            assert_eq!(back.next_u64(), g.next_u64());
        }

        let mut sm = SplitMix64::new(9);
        sm.next_u64();
        let mut w = Encoder::new();
        sm.save(&mut w);
        let bytes = w.into_bytes();
        let mut sm2 = SplitMix64::load(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(sm2.next_u64(), sm.next_u64());
    }
}
