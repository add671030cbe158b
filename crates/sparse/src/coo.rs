//! Coordinate-format (triplet) matrix builder.
//!
//! The COO format is the natural intermediate when entries arrive out of
//! order or repeated, as in random assembly or MatrixMarket files; it is
//! converted to [`CsrMatrix`] before use in solvers.

use crate::csr::narrow_col;
use crate::{CsrMatrix, SparseError};

/// A sparse matrix in coordinate (triplet) format.
///
/// Duplicate entries are allowed and are summed when converting to CSR, which
/// matches the usual finite-element assembly semantics.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with the given shape and a capacity hint for
    /// the expected number of non-zeros.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries, duplicates included.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Pushes one entry. Entries with value exactly `0.0` are still stored so
    /// that explicit zeros survive the round-trip through MatrixMarket files.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] if the position lies outside
    /// the matrix.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                shape: (self.rows, self.cols),
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Pushes an entry and, if it is off-diagonal, its transposed twin.
    /// Convenient when reading symmetric MatrixMarket files, which store only
    /// the lower triangle.
    pub fn push_symmetric(
        &mut self,
        row: usize,
        col: usize,
        value: f64,
    ) -> Result<(), SparseError> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// Iterates over stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, usize, f64)> {
        self.entries.iter()
    }

    /// Converts into CSR, summing duplicates.
    ///
    /// # Errors
    /// Returns [`SparseError::TooManyColumns`] if the matrix is wider than a
    /// `u32` column index addresses.
    pub fn to_csr(&self) -> Result<CsrMatrix, SparseError> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|e| (e.0, e.1));

        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());

        row_ptr.push(0usize);
        let mut current_row = 0usize;
        for &(r, c, v) in &sorted {
            let c = narrow_col(c);
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if let (Some(&last_c), true) = (col_idx.last(), !values.is_empty()) {
                if last_c == c && row_ptr.len() - 1 == r && row_ptr[r] < col_idx.len() {
                    // Same row (row_ptr for r already open) and same column: accumulate.
                    *values.last_mut().expect("values non-empty") += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }

        CsrMatrix::from_raw(self.rows, self.cols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_convert() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.get(0, 0), 2.0);
        assert_eq!(csr.get(0, 2), 1.0);
        assert_eq!(csr.get(2, 2), 4.0);
        assert_eq!(csr.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 2);
        assert!((csr.get(0, 0) - 3.5).abs() < 1e-15);
    }

    #[test]
    fn push_order_does_not_change_the_csr() {
        // A 5-point-like pattern with an empty row, values dyadic so that
        // duplicate sums are exact in any order.
        let n = 12usize;
        let pattern: std::collections::BTreeSet<(usize, usize)> = (0..n)
            .filter(|r| *r != 5)
            .flat_map(|r| [r.saturating_sub(3), r, (r + 4).min(n - 1)].map(|c| (r, c)))
            .collect();
        let entries: Vec<(usize, usize, f64)> = pattern
            .into_iter()
            .map(|(r, c)| (r, c, 0.25 * (1 + r * n + c) as f64))
            .collect();
        let csr_of = |triplets: &[(usize, usize, f64)]| {
            let mut coo = CooMatrix::new(n, n);
            for &(r, c, v) in triplets {
                coo.push(r, c, v).unwrap();
            }
            coo.to_csr().unwrap()
        };
        // The reference walks the sorted, summed map.
        let reference = |triplets: &[(usize, usize, f64)]| {
            let mut summed = std::collections::BTreeMap::new();
            for &(r, c, v) in triplets {
                *summed.entry((r, c)).or_insert(0.0) += v;
            }
            let mut row_ptr = vec![0usize; n + 1];
            for &(r, _) in summed.keys() {
                row_ptr[r + 1] += 1;
            }
            for r in 0..n {
                row_ptr[r + 1] += row_ptr[r];
            }
            let col_idx = summed.keys().map(|&(_, c)| narrow_col(c)).collect();
            let values = summed.values().copied().collect();
            CsrMatrix::from_raw(n, n, row_ptr, col_idx, values).unwrap()
        };

        // In order.
        let in_order = csr_of(&entries);
        assert_eq!(in_order, reference(&entries));
        assert_eq!(in_order.row(5).0.len(), 0);

        // Shuffled (a stride coprime to the length).
        assert_ne!(
            entries.len() % 7,
            0,
            "the stride must be coprime to the length"
        );
        let shuffled: Vec<_> = (0..entries.len())
            .map(|i| entries[(i * 7) % entries.len()])
            .collect();
        assert_eq!(csr_of(&shuffled), in_order);

        // Duplicates are summed, scattered or adjacent.
        let mut doubled = entries.clone();
        doubled.extend(entries.iter().step_by(3).map(|&(r, c, v)| (r, c, 2.0 * v)));
        let mut adjacent = doubled.clone();
        adjacent.sort_by_key(|e| (e.0, e.1));
        assert_eq!(csr_of(&doubled), reference(&doubled));
        assert_eq!(csr_of(&adjacent), reference(&doubled));
        assert_ne!(csr_of(&doubled), in_order);
    }

    #[test]
    fn to_csr_passes_on_the_column_width_error() {
        let wide = u32::MAX as usize + 1;
        assert_eq!(
            CooMatrix::new(1, wide).to_csr(),
            Err(SparseError::TooManyColumns { cols: wide })
        );
        let widest = u32::MAX as usize;
        let mut coo = CooMatrix::new(1, widest);
        coo.push(0, widest - 1, 2.5).unwrap();
        let a = coo.to_csr().unwrap();
        assert_eq!(a.row(0), (&[u32::MAX - 1][..], &[2.5][..]));
        assert_eq!(a.get(0, widest - 1), 2.5);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 5, 1.0).is_err());
    }

    #[test]
    fn symmetric_push_mirrors_off_diagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(1, 0, -1.0).unwrap();
        coo.push_symmetric(1, 1, 2.0).unwrap();
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(1, 1), 2.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn empty_rows_have_consistent_pointers() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(3, 3, 1.0).unwrap();
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.row(1).0.len(), 0);
        assert_eq!(csr.row(2).0.len(), 0);
        assert_eq!(csr.nnz(), 2);
    }
}
