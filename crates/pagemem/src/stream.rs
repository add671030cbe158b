//! The DUE stream on the iteration clock.
//!
//! The paper injects errors from a separate thread at exponentially
//! distributed inter-arrival times and strikes a page chosen uniformly over
//! all protected pages (Section 5.3). [`FaultStream`] is that process with
//! the clock switched from wall time to solver iterations. A solver reads it
//! at fixed *arrival points* of each iteration; which DUEs arrive at a point
//! is a pure function of (seed, rank, iteration, point), drawn from a
//! generator keyed by those coordinates (the counter-based scheme of Salmon
//! et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). A run
//! therefore replays bit for bit on any machine and under any load.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::registry::PageRegistry;

/// The DUEs one solve is exposed to.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSchedule {
    /// Exponential arrivals on the iteration clock (the Figure 4 and 5
    /// experiments).
    Stream(FaultStream),
    /// Explicit `(iteration, flat page)` faults, each striking at the top of
    /// its iteration (the single-error trace of Figure 3). The flat index
    /// runs over every registered page in registration order, as
    /// [`PageRegistry::flat_index_to_target`] maps it. An empty list is a
    /// fault-free solve.
    Listed(Vec<(usize, usize)>),
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::Listed(Vec::new())
    }
}

impl FaultSchedule {
    /// Injects the DUEs due at arrival point `point` (of `points` per
    /// iteration) of `iteration` into `registry`, rank 0 of a stream, and
    /// returns how many landed on a healthy page.
    pub fn strike(
        &self,
        registry: &PageRegistry,
        iteration: usize,
        point: usize,
        points: usize,
    ) -> usize {
        let flats = match self {
            FaultSchedule::Stream(s) => s.draw(0, iteration, point, points, registry.total_pages()),
            FaultSchedule::Listed(faults) => faults
                .iter()
                .filter(|&&(at, _)| point == 0 && at == iteration)
                .map(|&(_, flat)| flat)
                .collect(),
        };
        let target = |flat| registry.flat_index_to_target(flat);
        flats
            .into_iter()
            .filter(|&flat| target(flat).is_some_and(|(v, page)| registry.inject(v, page)))
            .count()
    }
}

/// A seeded exponential DUE process on the iteration clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStream {
    /// Key of every draw; two streams with the same seed and mean strike the
    /// same pages at the same points.
    pub seed: u64,
    /// Mean number of iterations between two DUEs on one rank.
    pub mean_iterations: f64,
}

impl FaultStream {
    /// The paper's normalised error frequency: `rate` expected DUEs per
    /// solve of `iterations` iterations, a mean of `iterations ÷ rate`
    /// iterations between DUEs. `None` when `rate` is not positive.
    pub fn normalized(rate: f64, iterations: usize, seed: u64) -> Option<Self> {
        (rate > 0.0).then(|| FaultStream {
            seed,
            mean_iterations: (iterations.max(1) as f64 / rate).max(1e-3),
        })
    }

    /// Flat page indices (uniform over `total_pages`) struck at arrival
    /// point `point` of `iteration` on `rank`, when one iteration holds
    /// `points` equally long arrival points. Inter-arrival times are
    /// exponential, so this is the arrivals of the memoryless process that
    /// fall inside the point.
    ///
    /// # Panics
    /// Panics if `mean_iterations` is not positive.
    pub fn draw(
        &self,
        rank: usize,
        iteration: usize,
        point: usize,
        points: usize,
        total_pages: usize,
    ) -> Vec<usize> {
        assert!(
            self.mean_iterations > 0.0,
            "a fault stream needs a positive mean"
        );
        if total_pages == 0 {
            return Vec::new();
        }
        let key = [rank, iteration, point]
            .into_iter()
            .fold(self.seed, |h, c| mix(h ^ c as u64));
        let mut rng = StdRng::seed_from_u64(key);
        // Measured in arrival points, so each point is one unit long.
        let mean = self.mean_iterations * points.max(1) as f64;
        let mut hits = Vec::new();
        let mut clock = 0.0;
        loop {
            // Inverse CDF; (1 - u) is in (0, 1] so the log is finite.
            clock -= mean * (1.0 - rng.random_range(0.0..1.0)).ln();
            if clock >= 1.0 {
                return hits;
            }
            hits.push(rng.random_range(0..total_pages));
        }
    }
}

/// SplitMix64's finaliser: folds one coordinate into the draw key.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mean_iterations: f64) -> FaultStream {
        FaultStream {
            seed: 42,
            mean_iterations,
        }
    }

    /// Arrivals over `iterations` iterations of `points` points each.
    fn arrivals(s: &FaultStream, iterations: usize, points: usize) -> usize {
        (0..iterations)
            .flat_map(|t| (0..points).map(move |p| (t, p)))
            .map(|(t, p)| s.draw(0, t, p, points, 100).len())
            .sum()
    }

    #[test]
    fn draws_are_a_pure_function_of_their_coordinates() {
        let s = stream(3.0);
        for (rank, t, p) in [(0, 0, 0), (1, 7, 3), (2, 100, 5)] {
            assert_eq!(s.draw(rank, t, p, 8, 50), s.draw(rank, t, p, 8, 50));
        }
        let all = |s: &FaultStream, rank| -> Vec<Vec<usize>> {
            (0..200).map(|t| s.draw(rank, t, 0, 1, 50)).collect()
        };
        let reseeded = FaultStream { seed: 43, ..s };
        assert_ne!(all(&s, 0), all(&reseeded, 0), "the seed keys the draws");
        assert_ne!(all(&s, 0), all(&s, 1), "each rank draws its own stream");
    }

    #[test]
    fn arrivals_follow_the_mean_whatever_the_points_per_iteration() {
        // Mean 5 iterations: ≈ 2 000 arrivals over 10 000 iterations.
        let s = stream(5.0);
        for points in [1, 8] {
            let n = arrivals(&s, 10_000, points);
            assert!((1_850..=2_150).contains(&n), "{points} points: {n}");
        }
    }

    #[test]
    fn targets_are_uniform_over_the_pages() {
        let s = stream(0.05);
        let mut counts = [0usize; 4];
        for t in 0..2_000 {
            for page in s.draw(0, t, 0, 1, 4) {
                counts[page] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert!(total > 30_000, "{total}");
        for c in counts {
            assert!((c as f64 / total as f64 - 0.25).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn normalized_rate_sets_the_mean() {
        let s = FaultStream::normalized(4.0, 80, 1).expect("positive rate");
        assert!((s.mean_iterations - 20.0).abs() < 1e-12);
        assert_eq!(FaultStream::normalized(0.0, 80, 1), None);
    }

    #[test]
    fn listed_faults_strike_at_the_top_of_their_iteration() {
        let reg = PageRegistry::new();
        let x = reg.register("x", 4);
        let g = reg.register("g", 4);
        let faults = FaultSchedule::Listed(vec![(3, 2), (3, 5), (4, 99)]);
        assert_eq!(faults.strike(&reg, 2, 0, 8), 0);
        assert_eq!(faults.strike(&reg, 3, 1, 8), 0);
        assert_eq!(faults.strike(&reg, 3, 0, 8), 2);
        assert_eq!(reg.poisoned_pages(x), vec![2]);
        assert_eq!(reg.poisoned_pages(g), vec![1]);
        // A flat index past the registry strikes nothing.
        assert_eq!(faults.strike(&reg, 4, 0, 8), 0);
    }

    #[test]
    fn stream_strikes_count_effective_injections() {
        let reg = PageRegistry::new();
        reg.register("x", 64);
        let s = FaultSchedule::Stream(stream(0.5));
        let landed: usize = (0..50).map(|t| s.strike(&reg, t, 0, 1)).sum();
        assert!(landed > 0);
        assert_eq!(reg.injected_count(), landed);
        // No pages, no faults.
        assert_eq!(s.strike(&PageRegistry::new(), 0, 0, 1), 0);
    }
}
