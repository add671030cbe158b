//! Per-page atomic bitmasks tracking skipped (not-produced) task outputs.
//!
//! Section 3.3.2 of the paper: "*we maintain an atomic bitmask per block of
//! failure granularity, thus per memory page. Each data vector and task output
//! is represented by a bit in this mask. Thus, if a task works on a page `p`
//! of a vector, it can check whether one of its inputs was corrupted or
//! skipped, and if so skip the computation while marking the bitmask with the
//! bit representing the task's output.*"
//!
//! Skipping is what keeps reductions finite: a page whose input was lost
//! contributes nothing instead of accumulating NaN/Inf, and the recovery tasks
//! later recompute exactly the skipped contributions.

use std::sync::atomic::{AtomicU64, Ordering};

/// One atomic 64-bit mask per page; each bit identifies a logical data item
/// (vector or task output) whose page-sized block is currently invalid.
#[derive(Debug)]
pub struct SkipMask {
    masks: Vec<AtomicU64>,
}

impl SkipMask {
    /// Creates a mask set for `num_pages` pages, all clear.
    pub fn new(num_pages: usize) -> Self {
        Self {
            masks: (0..num_pages).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of pages tracked.
    pub fn num_pages(&self) -> usize {
        self.masks.len()
    }

    /// Marks item `bit` of `page` as skipped/invalid.
    ///
    /// # Panics
    /// Panics if `bit >= 64`.
    pub fn set(&self, page: usize, bit: u32) {
        assert!(bit < 64, "SkipMask supports at most 64 items");
        self.masks[page].fetch_or(1 << bit, Ordering::AcqRel);
    }

    /// Clears item `bit` of `page` (its data is valid again).
    pub fn clear(&self, page: usize, bit: u32) {
        assert!(bit < 64, "SkipMask supports at most 64 items");
        self.masks[page].fetch_and(!(1 << bit), Ordering::AcqRel);
    }

    /// True if item `bit` of `page` is currently marked skipped.
    pub fn is_set(&self, page: usize, bit: u32) -> bool {
        assert!(bit < 64, "SkipMask supports at most 64 items");
        self.masks[page].load(Ordering::Acquire) & (1 << bit) != 0
    }

    /// True if *any* of the items in `bits` is marked skipped on `page`.
    /// `bits` is a bit-set (not a bit index).
    pub fn any_of(&self, page: usize, bits: u64) -> bool {
        self.masks[page].load(Ordering::Acquire) & bits != 0
    }

    /// Raw mask of `page`.
    pub fn raw(&self, page: usize) -> u64 {
        self.masks[page].load(Ordering::Acquire)
    }

    /// True if no item is skipped on any page.
    pub fn all_clear(&self) -> bool {
        self.masks.iter().all(|m| m.load(Ordering::Acquire) == 0)
    }

    /// Pages for which any of the items in the `bits` bit-set is skipped.
    pub fn pages_with_any(&self, bits: u64) -> Vec<usize> {
        self.masks
            .iter()
            .enumerate()
            .filter(|(_, m)| m.load(Ordering::Acquire) & bits != 0)
            .map(|(p, _)| p)
            .collect()
    }

    /// Clears every bit of every page.
    pub fn clear_all(&self) {
        for m in &self.masks {
            m.store(0, Ordering::Release);
        }
    }
}

/// Builds the bit-set containing the single item `bit`.
pub const fn bit(bit: u32) -> u64 {
    1 << bit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_check_clear() {
        let mask = SkipMask::new(4);
        assert!(mask.all_clear());
        mask.set(2, 5);
        assert!(mask.is_set(2, 5));
        assert!(!mask.is_set(2, 4));
        assert!(!mask.is_set(1, 5));
        assert!(mask.any_of(2, bit(5) | bit(9)));
        assert!(!mask.any_of(2, bit(9)));
        assert_eq!(mask.pages_with_any(bit(5)), vec![2]);
        mask.clear(2, 5);
        assert!(mask.all_clear());
    }

    #[test]
    fn clear_all_resets_every_page() {
        let mask = SkipMask::new(3);
        mask.set(0, 0);
        mask.set(1, 1);
        mask.set(2, 63);
        mask.clear_all();
        assert!(mask.all_clear());
    }

    #[test]
    fn raw_exposes_full_bitset() {
        let mask = SkipMask::new(1);
        mask.set(0, 0);
        mask.set(0, 3);
        assert_eq!(mask.raw(0), 0b1001);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn bit_index_out_of_range_panics() {
        let mask = SkipMask::new(1);
        mask.set(0, 64);
    }
}
