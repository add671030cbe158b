//! Counter / gauge / histogram registry.
//!
//! The [`Histogram`] is log-bucketed (one bucket per power of two of
//! nanoseconds), which gives percentile estimates with bounded relative
//! error at a fixed 64-slot footprint — cheap enough to sit on a hot path
//! and mergeable across ranks by summing buckets.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of power-of-two buckets; covers `0..2^63` ns (≈ 292 years).
const BUCKETS: usize = 64;

/// A log-bucketed histogram of `u64` samples (nanoseconds by convention).
///
/// Bucket `i` holds samples whose highest set bit is `i - 1` (bucket 0 holds
/// the value 0), i.e. values in `[2^(i-1), 2^i)`. Percentiles are reported
/// as the upper bound of the bucket the rank falls into, so they
/// over-estimate by at most 2× — plenty for "where did the time go".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= BUCKETS {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = Self::bucket_index(value).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of the samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` (bucket upper bound; 0 when
    /// empty). `q` outside the range is clamped.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; ceil so p100 hits the last one.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(BUCKETS - 1)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Adds another histogram's samples into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// One named metric in a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-value-wins measurement.
    Gauge(f64),
    /// A distribution of `u64` samples (boxed: a [`Histogram`] is two
    /// orders of magnitude larger than the other variants).
    Histogram(Box<Histogram>),
}

/// A process-wide registry of named counters, gauges and histograms.
///
/// Writes take a single mutex; this is deliberately simple — the hot-path
/// probes only touch it at `FEIR_TRACE=counters`, and the solvers' inner
/// loops go through [`crate::span`], not through named lookups.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter `name` by 1, creating it at 0 first.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments the counter `name` by `delta`. Replaces a same-named
    /// gauge/histogram with a counter.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.get_mut(name) {
            Some(Metric::Counter(v)) => *v += delta,
            _ => {
                inner.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .unwrap()
            .insert(name.to_string(), Metric::Gauge(value));
    }

    /// Records `value` into the histogram `name`, creating it if absent.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            _ => {
                let mut h = Histogram::new();
                h.observe(value);
                inner.insert(name.to_string(), Metric::Histogram(Box::new(h)));
            }
        }
    }

    /// The current value of counter `name`, 0 if absent or not a counter.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.inner.lock().unwrap().get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Removes every metric.
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }
}

/// Time by state — the paper's Table 3 breakdown — as fractions of the total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateBreakdown {
    /// Fraction of worker time doing useful work.
    pub useful_fraction: f64,
    /// Fraction of worker time doing runtime work.
    pub runtime_fraction: f64,
    /// Fraction of worker time idling.
    pub idle_fraction: f64,
}

impl StateBreakdown {
    /// Percentage-point increase of each state relative to a baseline run —
    /// the quantity reported in Table 3 ("increase of time spent per state").
    ///
    /// Returns `(imbalance, runtime, useful)` increases in percent, matching
    /// the column order of the paper's table.
    pub fn increase_over(&self, baseline: &StateBreakdown) -> (f64, f64, f64) {
        let rel = |ours: f64, base: f64| {
            if base <= 0.0 {
                if ours <= 0.0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                (ours - base) / base * 100.0
            }
        };
        (
            rel(self.idle_fraction, baseline.idle_fraction),
            rel(self.runtime_fraction, baseline.runtime_fraction),
            rel(self.useful_fraction, baseline.useful_fraction),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        assert!((h.mean() - 1_001_006.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // 99 fast samples around 100ns, one slow 1ms outlier.
        for _ in 0..99 {
            h.observe(100);
        }
        h.observe(1_000_000);
        // 100 lands in [64,128) → upper bound 127.
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p90(), 127);
        // p99 rank is 99 → still the fast bucket; p100 hits the outlier.
        assert_eq!(h.p99(), 127);
        assert!(h.percentile(1.0) >= 1_000_000);
        // Bucket bound over-estimates by < 2x.
        assert!(h.percentile(1.0) < 2_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn merge_sums_counts_and_preserves_percentiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..10 {
            a.observe(100);
            b.observe(100_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(a.p50(), 127);
        assert!(a.p99() >= 100_000 && a.p99() < 200_000);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let m = Metrics::new();
        m.inc("retransmit");
        m.add("retransmit", 4);
        m.set_gauge("ranks", 4.0);
        m.observe("halo_ns", 1500);
        m.observe("halo_ns", 2500);
        assert_eq!(m.counter_value("retransmit"), 5);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 3);
        match snap.iter().find(|(k, _)| k == "halo_ns").map(|(_, v)| v) {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        m.clear();
        assert_eq!(m.counter_value("retransmit"), 0);
    }

    #[test]
    fn increase_over_baseline() {
        let baseline = StateBreakdown {
            useful_fraction: 0.8,
            runtime_fraction: 0.1,
            idle_fraction: 0.1,
        };
        let with_recovery = StateBreakdown {
            useful_fraction: 0.82,
            runtime_fraction: 0.11,
            idle_fraction: 0.125,
        };
        let (imbalance, runtime, useful) = with_recovery.increase_over(&baseline);
        assert!((imbalance - 25.0).abs() < 1e-9);
        assert!((runtime - 10.0).abs() < 1e-9);
        assert!((useful - 2.5).abs() < 1e-9);
    }

    #[test]
    fn increase_from_zero_baseline_is_capped() {
        let baseline = StateBreakdown::default();
        let other = StateBreakdown {
            useful_fraction: 0.5,
            runtime_fraction: 0.0,
            idle_fraction: 0.5,
        };
        let (imbalance, runtime, useful) = other.increase_over(&baseline);
        assert_eq!(runtime, 0.0);
        assert_eq!(imbalance, 100.0);
        assert_eq!(useful, 100.0);
    }
}
