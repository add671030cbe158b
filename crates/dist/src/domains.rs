//! Per-rank fault domains: one [`PageRegistry`] per simulated rank.
//!
//! On a distributed machine a DUE is reported by the node that owns the
//! page, and only that node's data is lost — the failure domain is the rank.
//! [`RankDomains`] models that: every rank gets an independent registry, so
//! an injection targets exactly one rank and the others keep clean state.
//! This is the substrate the distributed FEIR/AFEIR recovery of Section 3.4
//! plugs into (tracked in ROADMAP.md).

use std::sync::Arc;

use feir_pagemem::{PageRegistry, VectorId};

/// Snapshot of one rank's fault counters, so campaign reports can attribute
/// faults to the rank that owns the affected pages (not just machine totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFaultCounts {
    /// The rank these counters belong to.
    pub rank: usize,
    /// Injections that landed on a healthy page of this rank.
    pub injected: usize,
    /// Faults discovered by this rank on access.
    pub discovered: usize,
    /// Pages of this rank marked recovered.
    pub recovered: usize,
}

/// One independent [`PageRegistry`] per simulated rank.
#[derive(Debug, Clone)]
pub struct RankDomains {
    registries: Vec<Arc<PageRegistry>>,
}

impl RankDomains {
    /// Creates `ranks` empty fault domains.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        Self {
            registries: (0..ranks).map(|_| Arc::new(PageRegistry::new())).collect(),
        }
    }

    /// Number of fault domains.
    pub fn num_ranks(&self) -> usize {
        self.registries.len()
    }

    /// The registry of one rank.
    pub fn registry(&self, rank: usize) -> Arc<PageRegistry> {
        Arc::clone(&self.registries[rank])
    }

    /// Registers the named vectors with `pages_each` pages in `rank`'s
    /// domain; returns their ids in order.
    pub fn register_rank_vectors(
        &self,
        rank: usize,
        names: &[&str],
        pages_each: usize,
    ) -> Vec<VectorId> {
        let registry = &self.registries[rank];
        names
            .iter()
            .map(|name| registry.register(format!("rank{rank}/{name}"), pages_each))
            .collect()
    }

    /// Sum of pages injected across every rank.
    pub fn total_injected(&self) -> usize {
        self.registries.iter().map(|r| r.injected_count()).sum()
    }

    /// Sum of faults discovered across every rank.
    pub fn total_discovered(&self) -> usize {
        self.registries.iter().map(|r| r.discovered_count()).sum()
    }

    /// Sum of pages recovered across every rank.
    pub fn total_recovered(&self) -> usize {
        self.registries.iter().map(|r| r.recovered_count()).sum()
    }

    /// Fault counters of one rank.
    pub fn rank_counts(&self, rank: usize) -> RankFaultCounts {
        let registry = &self.registries[rank];
        RankFaultCounts {
            rank,
            injected: registry.injected_count(),
            discovered: registry.discovered_count(),
            recovered: registry.recovered_count(),
        }
    }

    /// Per-rank fault counter breakdown across every rank, in rank order.
    pub fn per_rank_counts(&self) -> Vec<RankFaultCounts> {
        (0..self.num_ranks()).map(|r| self.rank_counts(r)).collect()
    }

    /// True if every page of every rank is healthy.
    pub fn all_healthy(&self) -> bool {
        self.registries.iter().all(|r| r.all_healthy())
    }

    /// Resets every rank's registry.
    pub fn reset(&self) {
        for registry in &self.registries {
            registry.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_pagemem::{AccessOutcome, PageStatus};

    #[test]
    fn faults_are_contained_to_one_rank() {
        let domains = RankDomains::new(3);
        for rank in 0..3 {
            domains.register_rank_vectors(rank, &["x", "g"], 4);
        }
        let target = domains.registry(1);
        let ids = (0..target.num_vectors()).map(VectorId).collect::<Vec<_>>();
        assert!(target.inject(ids[0], 2));
        assert_eq!(domains.total_injected(), 1);
        // Ranks 0 and 2 are untouched.
        assert!(domains.registry(0).all_healthy());
        assert!(domains.registry(2).all_healthy());
        assert!(!domains.all_healthy());
        // The owning rank discovers and recovers the fault locally.
        assert_eq!(target.on_access(ids[0], 2), AccessOutcome::FaultDiscovered);
        target.mark_recovered(ids[0], 2);
        assert_eq!(target.probe(ids[0], 2), PageStatus::Healthy);
        assert!(domains.all_healthy());
        assert_eq!(domains.total_discovered(), 1);
        assert_eq!(domains.total_recovered(), 1);
    }

    #[test]
    fn names_are_scoped_by_rank() {
        let domains = RankDomains::new(2);
        let ids = domains.register_rank_vectors(1, &["d"], 2);
        assert_eq!(domains.registry(1).name(ids[0]), "rank1/d");
        assert_eq!(domains.registry(0).num_vectors(), 0);
    }

    #[test]
    fn reset_clears_every_rank() {
        let domains = RankDomains::new(2);
        let ids = domains.register_rank_vectors(0, &["x"], 1);
        domains.registry(0).inject(ids[0], 0);
        domains.reset();
        assert!(domains.all_healthy());
        assert_eq!(domains.total_injected(), 0);
    }

    #[test]
    fn per_rank_counts_attribute_faults_to_the_owning_rank() {
        let domains = RankDomains::new(3);
        for rank in 0..3 {
            domains.register_rank_vectors(rank, &["x"], 4);
        }
        let target = domains.registry(2);
        target.inject(VectorId(0), 1);
        target.inject(VectorId(0), 3);
        target.on_access(VectorId(0), 1);
        target.mark_recovered(VectorId(0), 1);

        let counts = domains.per_rank_counts();
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0], domains.rank_counts(0));
        assert_eq!(counts[2].rank, 2);
        assert_eq!(counts[2].injected, 2);
        assert_eq!(counts[2].discovered, 1);
        assert_eq!(counts[2].recovered, 1);
        // The totals stay consistent with the breakdown.
        assert_eq!(
            domains.total_injected(),
            counts.iter().map(|c| c.injected).sum::<usize>()
        );
    }
}
