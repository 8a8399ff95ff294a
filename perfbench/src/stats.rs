//! Order statistics and the seeded input generator shared by the
//! workloads.

use mcps_sim::stats::percentile;

/// The median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A tail figure: the value at the highest percentile that still has at
/// least [`Tail::BEYOND`] samples above it, with that percentile and the
/// sample count, so a reader knows how much data stands behind it.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

impl Tail {
    /// Samples that must lie beyond the reported value.
    pub const BEYOND: usize = 10;

    /// With fewer than `BEYOND + 1` samples no percentile qualifies;
    /// the maximum is reported instead (percentile 100).
    pub fn of(values: &[f64]) -> Tail {
        let mut xs: Vec<f64> = values.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n == 0 {
            return Tail { value: 0.0, percentile: 0.0, samples: 0 };
        }
        if n <= Self::BEYOND {
            return Tail { value: xs[n - 1], percentile: 100.0, samples: n };
        }
        let k = n - Self::BEYOND - 1;
        Tail { value: xs[k], percentile: 100.0 * (k + 1) as f64 / n as f64, samples: n }
    }
}

/// SplitMix64: a tiny seeded generator for workload inputs, so the
/// inputs depend on the seed and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), Tail::BEYOND);
        assert!((t.percentile - 90.0).abs() < 1e-9);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = Tail::of(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
    }

    #[test]
    fn splitmix_is_seeded() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        assert!((0..4).all(|_| a.next_u64() == b.next_u64()));
        let x = SplitMix::new(1).range(2.0, 3.0);
        assert!((2.0..3.0).contains(&x));
    }
}
