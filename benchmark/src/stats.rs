//! Exact order statistics over retained samples, and the harness's PRNG.
//!
//! The repo's older snapshots reported log₂-bucket bounds as "percentiles";
//! everything here sorts the samples it kept and reads the answer off the
//! sorted list.

/// Sorted copy of `values`; NaNs (never produced by a timer) sort last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile of an ascending list by the "exclusive" rule Python's
/// `statistics.quantiles` uses (position `q·(n+1)`, linear interpolation,
/// clamped to the extremes), so the quartiles printed here are the ones the
/// acceptance pipeline computes from the same values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0) - 1.0;
    if pos <= 0.0 {
        return sorted[0];
    }
    let lo = pos.floor() as usize;
    if lo + 1 >= n {
        return sorted[n - 1];
    }
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
}

/// Median, quartiles, tail and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile that still has at least ten samples beyond it
    /// (the lowest sample when fewer than eleven were taken)…
    pub tail_q: f64,
    /// …and the sample sitting there.
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let n = s.len();
        let idx = n.saturating_sub(11);
        Summary {
            n,
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            tail_q: (idx + 1) as f64 / n as f64,
            tail: s[idx],
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance pipeline holds against each metric's bound.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The median, or 0 — which every metric here reads as "none" — when there
/// is nothing to take it of.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// SplitMix64: the harness's own generator. `--seed` feeds this and nothing
/// else; the program under test only ever sees the inputs drawn from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// small ranges drawn here.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = sorted(&[3.0, 1.0, 2.0]);
        assert_eq!(
            [quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75)],
            [1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn median_is_exact_not_a_bucket_bound() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_q, 0.9);
        assert_eq!(v.iter().filter(|x| **x > s.tail).count(), 10);
        // Too few samples for any tail: the lowest sample, labelled as such.
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail, few.n), (1.0, 3));
    }

    #[test]
    fn iqr_frac_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&v).iqr_frac(), 1.0);
        assert_eq!(Summary::of(&[2.0, 2.0, 2.0]).iqr_frac(), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        // Reference value of the published algorithm for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        let mut r = SplitMix64::new(7);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }
}
