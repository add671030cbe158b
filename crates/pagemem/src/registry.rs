//! Atomic per-page poison/lost state for every protected vector.
//!
//! The registry plays the role of the machine-check registers plus the OS view
//! of retired pages: a fault stream flips pages to *poisoned* at the solver's
//! arrival points, solver tasks discover the loss on access (the transition
//! to *lost* corresponds to the paper's caught `SIGBUS`), and recovery code
//! marks pages healthy again once the data has been reconstructed.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use parking_lot::RwLock;

/// Identifier of a protected vector inside a [`PageRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VectorId(pub usize);

/// State of one protected memory page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageStatus {
    /// The page holds valid data.
    Healthy,
    /// A DUE has been injected but the application has not touched the page
    /// yet (the OS "poisoned page" state).
    Poisoned,
    /// The loss has been observed by the application; the backing data has
    /// been replaced by a fresh blank page and awaits recovery.
    Lost,
}

const HEALTHY: u8 = 0;
const POISONED: u8 = 1;
const LOST: u8 = 2;

/// Outcome of touching a page through [`PageRegistry::on_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page is healthy; proceed normally.
    Ok,
    /// The access discovered a poisoned page (this caller "received the
    /// SIGBUS"): the caller must blank the data and handle the loss.
    FaultDiscovered,
    /// The page was already known to be lost (someone else discovered it and
    /// the data is already blank) and has not been recovered yet.
    AlreadyLost,
}

#[derive(Debug)]
struct VectorState {
    name: String,
    pages: Vec<AtomicU8>,
}

/// Registry of the poison state of every page of every protected vector.
///
/// All page-state transitions are lock-free; the vector table itself is only
/// locked on registration (which happens before the solver starts).
#[derive(Debug)]
pub struct PageRegistry {
    vectors: RwLock<Vec<VectorState>>,
    injected: AtomicUsize,
    discovered: AtomicUsize,
    recovered: AtomicUsize,
}

impl Default for PageRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PageRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            vectors: RwLock::new(Vec::new()),
            injected: AtomicUsize::new(0),
            discovered: AtomicUsize::new(0),
            recovered: AtomicUsize::new(0),
        }
    }

    /// Registers a protected vector with `num_pages` pages and returns its id.
    pub fn register(&self, name: impl Into<String>, num_pages: usize) -> VectorId {
        let mut vectors = self.vectors.write();
        let id = VectorId(vectors.len());
        vectors.push(VectorState {
            name: name.into(),
            pages: (0..num_pages).map(|_| AtomicU8::new(HEALTHY)).collect(),
        });
        id
    }

    /// Number of registered vectors.
    pub fn num_vectors(&self) -> usize {
        self.vectors.read().len()
    }

    /// Name of a registered vector.
    pub fn name(&self, v: VectorId) -> String {
        self.vectors.read()[v.0].name.clone()
    }

    /// Number of pages of a registered vector.
    pub fn num_pages(&self, v: VectorId) -> usize {
        self.vectors.read()[v.0].pages.len()
    }

    /// Total number of registered pages across all vectors.
    pub fn total_pages(&self) -> usize {
        self.vectors.read().iter().map(|v| v.pages.len()).sum()
    }

    /// Marks a page poisoned (the hardware/OS detected a DUE there).
    ///
    /// Returns `true` if the page was healthy and is now poisoned, `false` if
    /// it was already poisoned or lost (the injection is then a no-op, as a
    /// second DUE on an already-retired page would be).
    pub fn inject(&self, v: VectorId, page: usize) -> bool {
        let vectors = self.vectors.read();
        let slot = &vectors[v.0].pages[page];
        let swapped = slot
            .compare_exchange(HEALTHY, POISONED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if swapped {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        swapped
    }

    /// Maps a flat page index in `[0, total_pages)` to a concrete
    /// `(vector, page)` target. Used by the fault stream to pick pages uniformly
    /// over all protected data, as the paper does.
    pub fn flat_index_to_target(&self, flat: usize) -> Option<(VectorId, usize)> {
        let vectors = self.vectors.read();
        let mut remaining = flat;
        for (i, v) in vectors.iter().enumerate() {
            if remaining < v.pages.len() {
                return Some((VectorId(i), remaining));
            }
            remaining -= v.pages.len();
        }
        None
    }

    /// Reads the status of a page without changing it (the solver never does
    /// this — it corresponds to the OS scrubber's view — but recovery tasks
    /// and tests do).
    pub fn probe(&self, v: VectorId, page: usize) -> PageStatus {
        let vectors = self.vectors.read();
        match vectors[v.0].pages[page].load(Ordering::Acquire) {
            POISONED => PageStatus::Poisoned,
            LOST => PageStatus::Lost,
            _ => PageStatus::Healthy,
        }
    }

    /// Touches a page on behalf of the application.
    ///
    /// A poisoned page transitions to lost and the caller is told it just
    /// discovered the fault (it must blank the data, mimicking the fresh
    /// `mmap` of the paper's signal handler). Exactly one caller receives
    /// [`AccessOutcome::FaultDiscovered`] per loss.
    pub fn on_access(&self, v: VectorId, page: usize) -> AccessOutcome {
        let vectors = self.vectors.read();
        let slot = &vectors[v.0].pages[page];
        match slot.load(Ordering::Acquire) {
            HEALTHY => AccessOutcome::Ok,
            LOST => AccessOutcome::AlreadyLost,
            _ => {
                if slot
                    .compare_exchange(POISONED, LOST, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.discovered.fetch_add(1, Ordering::Relaxed);
                    AccessOutcome::FaultDiscovered
                } else {
                    AccessOutcome::AlreadyLost
                }
            }
        }
    }

    /// Marks a page healthy again after its data has been reconstructed.
    pub fn mark_recovered(&self, v: VectorId, page: usize) {
        let vectors = self.vectors.read();
        let prev = vectors[v.0].pages[page].swap(HEALTHY, Ordering::AcqRel);
        if prev != HEALTHY {
            self.recovered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Indices of pages of `v` currently in the lost state.
    pub fn lost_pages(&self, v: VectorId) -> Vec<usize> {
        let vectors = self.vectors.read();
        vectors[v.0]
            .pages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.load(Ordering::Acquire) == LOST)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of pages of `v` currently poisoned (injected but undiscovered).
    pub fn poisoned_pages(&self, v: VectorId) -> Vec<usize> {
        let vectors = self.vectors.read();
        vectors[v.0]
            .pages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.load(Ordering::Acquire) == POISONED)
            .map(|(i, _)| i)
            .collect()
    }

    /// True if no page of any vector is poisoned or lost.
    pub fn all_healthy(&self) -> bool {
        let vectors = self.vectors.read();
        vectors
            .iter()
            .all(|v| v.pages.iter().all(|p| p.load(Ordering::Acquire) == HEALTHY))
    }

    /// Resets every page to healthy and zeroes the counters. Used between
    /// repetitions of an experiment.
    pub fn reset(&self) {
        let vectors = self.vectors.read();
        for v in vectors.iter() {
            for p in &v.pages {
                p.store(HEALTHY, Ordering::Release);
            }
        }
        self.injected.store(0, Ordering::Relaxed);
        self.discovered.store(0, Ordering::Relaxed);
        self.recovered.store(0, Ordering::Relaxed);
    }

    /// Number of injections that landed on a healthy page.
    pub fn injected_count(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// Number of faults discovered by the application.
    pub fn discovered_count(&self) -> usize {
        self.discovered.load(Ordering::Relaxed)
    }

    /// Number of pages marked recovered.
    pub fn recovered_count(&self) -> usize {
        self.recovered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_probe() {
        let reg = PageRegistry::new();
        let x = reg.register("x", 4);
        let g = reg.register("g", 2);
        assert_eq!(reg.num_vectors(), 2);
        assert_eq!(reg.num_pages(x), 4);
        assert_eq!(reg.num_pages(g), 2);
        assert_eq!(reg.total_pages(), 6);
        assert_eq!(reg.name(g), "g");
        assert_eq!(reg.probe(x, 0), PageStatus::Healthy);
        assert!(reg.all_healthy());
    }

    #[test]
    fn inject_discover_recover_lifecycle() {
        let reg = PageRegistry::new();
        let x = reg.register("x", 3);
        assert!(reg.inject(x, 1));
        assert_eq!(reg.probe(x, 1), PageStatus::Poisoned);
        assert_eq!(reg.poisoned_pages(x), vec![1]);
        // Double injection on the same page is a no-op.
        assert!(!reg.inject(x, 1));
        assert_eq!(reg.injected_count(), 1);

        // First access discovers the fault, later accesses see AlreadyLost.
        assert_eq!(reg.on_access(x, 1), AccessOutcome::FaultDiscovered);
        assert_eq!(reg.on_access(x, 1), AccessOutcome::AlreadyLost);
        assert_eq!(reg.probe(x, 1), PageStatus::Lost);
        assert_eq!(reg.lost_pages(x), vec![1]);
        assert_eq!(reg.discovered_count(), 1);

        // Healthy pages are unaffected.
        assert_eq!(reg.on_access(x, 0), AccessOutcome::Ok);

        reg.mark_recovered(x, 1);
        assert_eq!(reg.probe(x, 1), PageStatus::Healthy);
        assert_eq!(reg.recovered_count(), 1);
        assert!(reg.all_healthy());
    }

    #[test]
    fn flat_index_maps_across_vectors() {
        let reg = PageRegistry::new();
        let a = reg.register("a", 3);
        let b = reg.register("b", 2);
        assert_eq!(reg.flat_index_to_target(0), Some((a, 0)));
        assert_eq!(reg.flat_index_to_target(2), Some((a, 2)));
        assert_eq!(reg.flat_index_to_target(3), Some((b, 0)));
        assert_eq!(reg.flat_index_to_target(4), Some((b, 1)));
        assert_eq!(reg.flat_index_to_target(5), None);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = PageRegistry::new();
        let x = reg.register("x", 2);
        reg.inject(x, 0);
        reg.on_access(x, 0);
        reg.reset();
        assert!(reg.all_healthy());
        assert_eq!(reg.injected_count(), 0);
        assert_eq!(reg.discovered_count(), 0);
    }
}
