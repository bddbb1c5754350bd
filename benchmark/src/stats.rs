//! The driver's own arithmetic: order statistics, the paper-error
//! figure, and the statistics fingerprint.

/// Median, quartiles and the raw samples of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The samples in the order they were measured.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: Vec<f64>) -> Self {
        let sorted = sorted(&samples);
        let (q1, median, q3) = quartiles(&sorted);
        Self {
            median,
            q1,
            q3,
            samples,
        }
    }

    /// Interquartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// `(q1, median, q3)` of ascending `sorted`, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// numbers agree with whoever re-checks the spread from the raw samples.
/// A single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // after clamping j the weight may leave 0..=4: Python extrapolates
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted(samples)).1
}

/// The `p`-th percentile (0..=100) of `samples`, linear interpolation
/// between closest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The tail percentiles a report may quote, highest first, each with the
/// share of samples beyond it in parts per thousand.
const TAIL_LADDER: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest tail percentile that still has at least ten of `n`
/// samples beyond it; `None` when even p75 does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// The paper's reported geomean speedups the repository holds: B-Fetch and
/// SMS from Figure 8, Perfect from Figure 1. The reference is the paper's
/// own simulation, not hardware.
pub const PAPER_GEOMEANS: [(&str, f64); 3] = [("bfetch", 1.232), ("sms", 1.197), ("perfect", 2.0)];

/// 100 × the mean of |ln(measured ÷ paper)| over `pairs` of
/// `(measured, paper)` geomean speedups: a log-percent error that treats
/// over- and undershoot alike.
pub fn paper_err(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|(m, p)| (m / p).ln().abs()).sum();
    100.0 * sum / pairs.len() as f64
}

/// Incremental FNV-1a (64-bit) over bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.samples, [3.0, 1.0, 2.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(4_500), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
    }

    #[test]
    fn paper_err_on_hand_computed_pairs() {
        // the three geomeans of results/fig0{1,8}_*.txt against the paper:
        //   ln(1.760/1.232) = 0.356675, ln(1.475/1.197) = 0.208842,
        //   ln(5.339/2.0) = 0.981891; mean 0.515803
        let e = paper_err(&[(1.760, 1.232), (1.475, 1.197), (5.339, 2.0)]);
        assert!((e - 51.5803).abs() < 1e-3, "{e}");
        // an undershoot counts like the same overshoot
        assert!((paper_err(&[(1.0, 2.0)]) - paper_err(&[(4.0, 2.0)])).abs() < 1e-12);
        assert_eq!(paper_err(&[(1.232, 1.232)]), 0.0);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
