//! Protected, page-partitioned vectors with guarded access.
//!
//! A [`PagedVector`] couples a plain `Vec<f64>` with its entry in the
//! [`PageRegistry`]. Accessing a page *through the guard API* performs the
//! poisoned→lost transition that corresponds to the application catching the
//! OS `SIGBUS`: the data of the page is replaced by zeros (the fresh blank
//! page mapped by the signal handler in the paper) and the caller is informed
//! through a [`PageFault`] so the solver-level logic can skip / recover.
//!
//! Plain (unguarded) slice access is also available for constant data and for
//! code paths that have already performed the check.

use std::sync::Arc;

use feir_sparse::blocking::BlockPartition;

use crate::registry::{AccessOutcome, PageRegistry, VectorId};

/// Information about a fault observed while accessing a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault {
    /// The vector in which the fault was observed.
    pub vector: VectorId,
    /// The page index within the vector.
    pub page: usize,
    /// True if this access is the one that discovered the fault (received the
    /// simulated SIGBUS); false if the page was already known to be lost.
    pub first_discovery: bool,
}

/// Result of a guarded page access.
#[derive(Debug, PartialEq)]
pub enum PageAccess<'a> {
    /// The page is healthy; the slice holds valid data.
    Clean(&'a mut [f64]),
    /// The page was lost; the slice has been blanked (all zeros) and the fault
    /// details are reported so the caller can skip or trigger recovery.
    Faulted(&'a mut [f64], PageFault),
}

/// A protected vector: data plus page-state bookkeeping.
#[derive(Debug, Clone)]
pub struct PagedVector {
    id: VectorId,
    registry: Arc<PageRegistry>,
    partition: BlockPartition,
    data: Vec<f64>,
}

impl PagedVector {
    /// Creates a protected vector of length `n` initialised to zero and
    /// registers it with page-sized blocks.
    pub fn zeros(name: &str, n: usize, registry: Arc<PageRegistry>) -> Self {
        Self::from_vec(name, vec![0.0; n], registry)
    }

    /// Creates a protected vector from existing data.
    pub fn from_vec(name: &str, data: Vec<f64>, registry: Arc<PageRegistry>) -> Self {
        let partition = BlockPartition::pages(data.len());
        let id = registry.register(name, partition.num_blocks());
        Self {
            id,
            registry,
            partition,
            data,
        }
    }

    /// Creates a protected vector with an explicit block (page) size, useful
    /// in tests that want small pages.
    pub fn with_block_size(
        name: &str,
        data: Vec<f64>,
        block_size: usize,
        registry: Arc<PageRegistry>,
    ) -> Self {
        let partition = BlockPartition::new(data.len(), block_size);
        let id = registry.register(name, partition.num_blocks());
        Self {
            id,
            registry,
            partition,
            data,
        }
    }

    /// Registry identifier of this vector.
    pub fn id(&self) -> VectorId {
        self.id
    }

    /// The page partition of this vector.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// Length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.partition.num_blocks()
    }

    /// Unguarded read-only view of the whole vector.
    ///
    /// Only valid for data known to be healthy (e.g. after recovery has run,
    /// or for measuring convergence in the experiment driver).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Read-only view of one page without touching the fault state.
    pub fn page_slice(&self, page: usize) -> &[f64] {
        &self.data[self.partition.range(page)]
    }

    /// Guarded access to one page.
    ///
    /// If the page was poisoned, it transitions to lost, its data is zeroed
    /// (fresh blank page) and the access reports the fault. The transition is
    /// performed exactly once even under concurrent access; subsequent
    /// accesses of the still-lost page also report a fault (with
    /// `first_discovery == false`) and see the blank data.
    pub fn access_page_mut(&mut self, page: usize) -> PageAccess<'_> {
        let outcome = self.registry.on_access(self.id, page);
        let range = self.partition.range(page);
        match outcome {
            AccessOutcome::Ok => PageAccess::Clean(&mut self.data[range]),
            AccessOutcome::FaultDiscovered => {
                for v in &mut self.data[range.clone()] {
                    *v = 0.0;
                }
                PageAccess::Faulted(
                    &mut self.data[range],
                    PageFault {
                        vector: self.id,
                        page,
                        first_discovery: true,
                    },
                )
            }
            AccessOutcome::AlreadyLost => PageAccess::Faulted(
                &mut self.data[range],
                PageFault {
                    vector: self.id,
                    page,
                    first_discovery: false,
                },
            ),
        }
    }

    /// Guarded check of a page used by *readers*: reports (and materialises)
    /// a fault exactly like [`Self::access_page_mut`] but without handing out
    /// a mutable slice. Returns `None` when the page is healthy.
    pub fn check_page(&mut self, page: usize) -> Option<PageFault> {
        match self.access_page_mut(page) {
            PageAccess::Clean(_) => None,
            PageAccess::Faulted(_, fault) => Some(fault),
        }
    }

    /// Writes `values` into `page` and marks it healthy in the registry —
    /// this is what a recovery does after reconstructing the data.
    pub fn restore_page(&mut self, page: usize, values: &[f64]) {
        let range = self.partition.range(page);
        assert_eq!(values.len(), range.len(), "restore_page length mismatch");
        self.data[range].copy_from_slice(values);
        self.registry.mark_recovered(self.id, page);
    }

    /// Marks a page healthy without changing data (used when the blank page
    /// happens to be the correct content, e.g. trivial recovery).
    pub fn mark_page_recovered(&mut self, page: usize) {
        self.registry.mark_recovered(self.id, page);
    }

    /// Pages of this vector currently lost (discovered but not recovered).
    pub fn lost_pages(&self) -> Vec<usize> {
        self.registry.lost_pages(self.id)
    }

    /// Pages of this vector currently poisoned (injected, not yet observed).
    pub fn poisoned_pages(&self) -> Vec<usize> {
        self.registry.poisoned_pages(self.id)
    }

    /// Scans every page, materialising any poisoned page into the lost state
    /// (blanking its data). Returns all pages that are lost after the scan.
    ///
    /// This mirrors the paper's FEIR recovery tasks, which run after all
    /// compute tasks and therefore observe every error discovered so far.
    pub fn sweep_faults(&mut self) -> Vec<usize> {
        let mut lost = Vec::new();
        for page in 0..self.num_pages() {
            if self.check_page(page).is_some() {
                lost.push(page);
            }
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<PageRegistry> {
        Arc::new(PageRegistry::new())
    }

    #[test]
    fn construction_and_basic_views() {
        let reg = registry();
        let v = PagedVector::from_vec("x", (0..1000).map(|i| i as f64).collect(), reg.clone());
        assert_eq!(v.len(), 1000);
        assert_eq!(v.num_pages(), 2);
        assert_eq!(v.page_slice(0).len(), 512);
        assert_eq!(v.page_slice(1).len(), 488);
        assert_eq!(v.as_slice()[999], 999.0);
        assert_eq!(reg.num_vectors(), 1);
    }

    #[test]
    fn clean_access_leaves_data_untouched() {
        let reg = registry();
        let mut v = PagedVector::from_vec("x", vec![7.0; 100], reg);
        match v.access_page_mut(0) {
            PageAccess::Clean(slice) => assert!(slice.iter().all(|&x| x == 7.0)),
            PageAccess::Faulted(..) => panic!("unexpected fault"),
        }
    }

    #[test]
    fn fault_is_discovered_once_and_page_is_blanked() {
        let reg = registry();
        let mut v = PagedVector::with_block_size("x", vec![3.0; 64], 16, reg.clone());
        assert!(reg.inject(v.id(), 2));
        // Untouched pages still hold data.
        assert_eq!(v.page_slice(2)[0], 3.0);
        match v.access_page_mut(2) {
            PageAccess::Faulted(slice, fault) => {
                assert!(fault.first_discovery);
                assert_eq!(fault.page, 2);
                assert!(slice.iter().all(|&x| x == 0.0));
            }
            PageAccess::Clean(_) => panic!("expected a fault"),
        }
        // Second access: still faulted, not a first discovery.
        match v.access_page_mut(2) {
            PageAccess::Faulted(_, fault) => assert!(!fault.first_discovery),
            PageAccess::Clean(_) => panic!("page must stay lost until recovered"),
        }
        assert_eq!(v.lost_pages(), vec![2]);
    }

    #[test]
    fn restore_page_heals_and_rewrites() {
        let reg = registry();
        let mut v = PagedVector::with_block_size("x", vec![1.0; 32], 8, reg.clone());
        reg.inject(v.id(), 1);
        assert!(v.check_page(1).is_some());
        let replacement = vec![9.0; 8];
        v.restore_page(1, &replacement);
        assert!(v.lost_pages().is_empty());
        match v.access_page_mut(1) {
            PageAccess::Clean(slice) => assert!(slice.iter().all(|&x| x == 9.0)),
            PageAccess::Faulted(..) => panic!("page should be healthy after restore"),
        }
    }

    #[test]
    fn sweep_faults_materialises_all_poisoned_pages() {
        let reg = registry();
        let mut v = PagedVector::with_block_size("x", vec![5.0; 40], 10, reg.clone());
        reg.inject(v.id(), 0);
        reg.inject(v.id(), 3);
        let lost = v.sweep_faults();
        assert_eq!(lost, vec![0, 3]);
        assert!(v.page_slice(0).iter().all(|&x| x == 0.0));
        assert!(v.page_slice(3).iter().all(|&x| x == 0.0));
        assert!(v.page_slice(1).iter().all(|&x| x == 5.0));
    }

    #[test]
    fn mark_page_recovered_without_rewrite() {
        let reg = registry();
        let mut v = PagedVector::with_block_size("x", vec![1.0; 16], 8, reg.clone());
        reg.inject(v.id(), 0);
        v.check_page(0);
        v.mark_page_recovered(0);
        assert!(v.lost_pages().is_empty());
        // Data stays blank (that is the trivial recovery semantics).
        assert!(v.page_slice(0).iter().all(|&x| x == 0.0));
    }
}
