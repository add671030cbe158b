//! The scripted DUE schedule of the `due_*` workloads.
//!
//! What the seed chooses: the iteration of every fault, the rank and page of
//! every interior fault, and the order the vectors are struck in. What it
//! never changes: how many pages of each vector are lost, how many of them
//! sit on the rank boundary, and that exactly one iteration carries the
//! coupled pair. A page of `x` or `d` costs a 512×512 factorization to
//! rebuild and a page of `g` only a row sweep, so holding the mix fixed is
//! what keeps `solve_s` comparable from seed to seed.

use feir_dist::{ProtectedVector, ScriptedFault};

use crate::stats::SplitMix64;

/// How many single faults strike pages away from the rank boundary, per
/// vector (`x`, `d`, `g`). The four boundary faults below are always added.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub x: usize,
    pub d: usize,
    pub g: usize,
}

impl Mix {
    /// The full-size schedule: 24 faults (10 `x`, 8 `d`, 6 `g`).
    pub const FULL: Mix = Mix { x: 7, d: 7, g: 6 };
    /// The `--smoke` schedule: 8 faults.
    pub const SMOKE: Mix = Mix { x: 2, d: 1, g: 1 };

    /// Schedule length: the interior faults, two boundary singles and the
    /// coupled pair.
    pub fn faults(&self) -> usize {
        self.x + self.d + self.g + 4
    }
}

/// Pages reconstructed by the cross-rank coupled round: the pair.
pub const COUPLED_PAGES: usize = 2;

/// Draws the schedule for a 2-rank solve with `pages_per_rank` pages per
/// protected vector whose fault-free run takes `iterations` iterations.
///
/// Faults land in the first three quarters of the solve, one iteration slot
/// each with at least one clean iteration between neighbours, so every loss
/// is repaired from intact data — except the one slot that holds the
/// coupled pair: `x` on rank 0's last page and on rank 1's first page in the
/// same iteration, stencil-adjacent across the boundary.
///
/// # Panics
/// Panics if the solve is too short or the vectors too small to place every
/// fault in a slot of its own.
pub fn fault_schedule(
    rng: &mut SplitMix64,
    mix: Mix,
    pages_per_rank: usize,
    iterations: usize,
) -> Vec<ScriptedFault> {
    assert!(pages_per_rank >= 2, "need an interior page on each rank");
    let boundary = [pages_per_rank - 1, 0]; // rank 0's last page, rank 1's first
    let slots = mix.faults() - 1;
    let first = 3; // d and q exist from iteration 1 on; stay clear of start-up
    let horizon = iterations * 3 / 4;
    assert!(
        horizon >= first + 2 * slots,
        "a {iterations}-iteration solve cannot hold {slots} separated fault slots"
    );
    let width = (horizon - first) / slots;

    // What happens in each slot, then shuffled so the seed decides the order.
    #[derive(Clone, Copy)]
    enum Kind {
        Pair,
        Boundary(ProtectedVector),
        Interior(ProtectedVector),
    }
    let mut kinds = vec![
        Kind::Pair,
        Kind::Boundary(ProtectedVector::X),
        Kind::Boundary(ProtectedVector::D),
    ];
    for (vector, count) in [
        (ProtectedVector::X, mix.x),
        (ProtectedVector::D, mix.d),
        (ProtectedVector::G, mix.g),
    ] {
        kinds.extend(std::iter::repeat_n(Kind::Interior(vector), count));
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }

    let mut faults = Vec::with_capacity(mix.faults());
    for (slot, kind) in kinds.into_iter().enumerate() {
        // The last iteration of every slot stays clean.
        let iteration = first + slot * width + rng.below(width - 1);
        let mut push = |rank: usize, vector, page| {
            faults.push(ScriptedFault {
                iteration,
                rank,
                vector,
                page,
            })
        };
        match kind {
            Kind::Pair => {
                push(0, ProtectedVector::X, boundary[0]);
                push(1, ProtectedVector::X, boundary[1]);
            }
            Kind::Boundary(vector) => {
                let rank = rng.below(2);
                push(rank, vector, boundary[rank]);
            }
            Kind::Interior(vector) => {
                let rank = rng.below(2);
                // Rank 0's interior is pages 0..P-1, rank 1's is 1..P.
                push(rank, vector, rank + rng.below(pages_per_rank - 1));
            }
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn draw(seed: u64) -> Vec<ScriptedFault> {
        fault_schedule(&mut SplitMix64::new(seed), Mix::FULL, 16, 306)
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn only_the_coupled_pair_shares_an_iteration() {
        for seed in 0..200 {
            let faults = draw(seed);
            assert_eq!(faults.len(), Mix::FULL.faults());
            let mut by_iteration: BTreeMap<usize, Vec<&ScriptedFault>> = BTreeMap::new();
            for f in &faults {
                by_iteration.entry(f.iteration).or_default().push(f);
            }
            let shared: Vec<_> = by_iteration.values().filter(|g| g.len() > 1).collect();
            assert_eq!(shared.len(), 1, "seed {seed}: one shared iteration");
            let pair = shared[0];
            assert_eq!(pair.len(), COUPLED_PAGES);
            assert!(pair.iter().all(|f| f.vector == ProtectedVector::X));
            assert_eq!((pair[0].rank, pair[0].page), (0, 15));
            assert_eq!((pair[1].rank, pair[1].page), (1, 0));
            // Neighbouring fault iterations are never adjacent: every loss
            // is repaired before the next one lands.
            let its: Vec<usize> = by_iteration.keys().copied().collect();
            assert!(its.windows(2).all(|w| w[1] >= w[0] + 2), "seed {seed}");
            assert!(its[0] >= 3 && *its.last().unwrap() < 306 * 3 / 4);
        }
    }

    #[test]
    fn the_mix_of_vectors_and_boundary_pages_is_the_same_for_every_seed() {
        for seed in 0..50 {
            let faults = draw(seed);
            let count = |v| faults.iter().filter(|f| f.vector == v).count();
            assert_eq!(count(ProtectedVector::X), 10);
            assert_eq!(count(ProtectedVector::D), 8);
            assert_eq!(count(ProtectedVector::G), 6);
            let on_boundary = faults
                .iter()
                .filter(|f| f.page == if f.rank == 0 { 15 } else { 0 })
                .count();
            assert_eq!(on_boundary, 4, "pair + two singles that fetch across ranks");
            assert!(faults.iter().all(|f| f.rank < 2 && f.page < 16));
        }
    }

    #[test]
    fn smoke_mix_fits_a_short_solve() {
        let faults = fault_schedule(&mut SplitMix64::new(3), Mix::SMOKE, 8, 60);
        assert_eq!(faults.len(), 8);
    }
}
