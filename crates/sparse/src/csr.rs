//! Compressed Sparse Row matrix with serial and rayon-parallel kernels.

use rayon::prelude::*;
use serde::Serialize;

use crate::{DenseMatrix, SparseError};

/// Row tile of the SpMV sweeps: each pass touches one tile of output rows
/// before moving on, bounding the live `y` working set to 2 KiB. The value
/// is coordinated with the rest of the hot path — it equals the minimum
/// parallel row chunk (so pool chunks are whole tiles), divides
/// [`MIN_PARALLEL_SPMV_ROWS`] (16 tiles) and the reduction chunk
/// [`crate::vecops::DOT_CHUNK`] (16 tiles), and matches the SELL sorting
/// window [`crate::sell::SELL_SIGMA`], so every backend blocks rows on the
/// same boundaries.
pub(crate) const SPMV_ROW_TILE: usize = 256;

/// Minimum rows per parallel SpMV chunk: rows carry several multiply-adds
/// each, so they amortize scheduling overhead much sooner than scalar
/// elements do.
const MIN_SPMV_ROW_CHUNK: usize = SPMV_ROW_TILE;

/// A matrix paired with an input vector of exactly its width: the only way
/// into [`RowGather::row_product`], whose gather reads `x` without a
/// per-entry bounds check. [`RowGather::new`] asserts the width once, so no
/// caller can reach the gather without that assert.
#[derive(Clone, Copy)]
pub(crate) struct RowGather<'a> {
    a: &'a CsrMatrix,
    x: &'a [f64],
}

impl<'a> RowGather<'a> {
    /// # Panics
    /// Panics if `x.len() != a.cols()`.
    #[inline]
    pub(crate) fn new(a: &'a CsrMatrix, x: &'a [f64]) -> Self {
        assert_eq!(x.len(), a.cols(), "spmv: x has wrong length");
        Self { a, x }
    }

    /// Row `r` of the product: `Σ_c A[r,c]·x[c]` folded in stored-column
    /// order with a single accumulator. With `UNROLL` the loop runs 4-wide,
    /// issuing exactly the same adds in exactly the same order as the plain
    /// loop — it trims loop-control overhead and exposes the gathers early,
    /// but never reassociates, so every caller keeps its bitwise contract.
    /// The fused matvec-dots run the plain loop: there every row product
    /// feeds the serial `acc += x[r]·y_r` dot chain, and on the short banded
    /// rows of the bench operators the unroll's chunk setup stalls it.
    ///
    /// # Safety
    /// The read of `x[c]` skips its bounds check. That is sound because
    /// every stored column is `< cols`: [`CsrMatrix::from_raw`] checks it,
    /// the other constructors (`identity`, `from_diagonal`, `transpose`)
    /// write only in-bounds columns, and no method mutates a column after
    /// construction. [`RowGather::new`] asserted `x.len() == cols`.
    ///
    /// # Panics
    /// Panics if `r` is not a row of the matrix.
    #[inline]
    pub(crate) fn row_product<const UNROLL: bool>(&self, r: usize) -> f64 {
        let (cols, vals) = self.a.row(r);
        let x = self.x;
        let at = |c: u32| {
            let c = c as usize;
            debug_assert!(c < x.len());
            // SAFETY: `c` is a stored column of `self.a`, hence `< cols`
            // (checked by `from_raw`, see `# Safety` above), and
            // `RowGather::new` asserted `x.len() == cols`.
            unsafe { *x.get_unchecked(c) }
        };
        let mut acc = 0.0;
        if !UNROLL {
            for (&c, v) in cols.iter().zip(vals) {
                acc += v * at(c);
            }
            return acc;
        }
        let mut c4 = cols.chunks_exact(4);
        let mut v4 = vals.chunks_exact(4);
        for (c, v) in (&mut c4).zip(&mut v4) {
            acc += v[0] * at(c[0]);
            acc += v[1] * at(c[1]);
            acc += v[2] * at(c[2]);
            acc += v[3] * at(c[3]);
        }
        for (&c, v) in c4.remainder().iter().zip(v4.remainder()) {
            acc += v * at(c);
        }
        acc
    }
}

/// Below this row count `spmv_parallel` runs the serial kernel: the whole
/// product costs only a few microseconds, less than waking the workers.
/// Sized independently of the dot and axpy gates in [`crate::vecops`] — an
/// SpMV row carries several multiply-adds, so it breaks even much earlier
/// than a scalar element does.
pub(crate) const MIN_PARALLEL_SPMV_ROWS: usize = 4096;

/// Narrows a column index that is already bounded by the matrix width.
///
/// Builders call this before [`CsrMatrix::from_raw`] has seen the width, so
/// the conversion saturates instead of failing: a column only exceeds
/// `u32::MAX` in a matrix wider than that, which `from_raw` rejects before
/// it reads a column — the width is checked once, there.
#[inline]
pub(crate) fn narrow_col(col: usize) -> u32 {
    u32::try_from(col).unwrap_or(u32::MAX)
}

/// A sparse matrix stored in Compressed Sparse Row format.
///
/// Column indices inside a row are kept sorted, which is what the blocked
/// extraction routines of [`crate::blocking`] rely on. They are stored as
/// `u32` — 4 bytes of index beside each 8-byte value, 12 bytes per stored
/// entry — so a matrix has at most `u32::MAX` columns, which
/// [`CsrMatrix::from_raw`] checks. Row pointers stay `usize`: the entry
/// count is not capped.
///
/// The SpMV kernels read `x` without a per-entry bounds check, on the
/// strength of `col < cols` holding for every stored column. So there is
/// no `Deserialize`: a decoded matrix must come in through
/// [`CsrMatrix::from_raw`], which checks it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating the structure.
    ///
    /// # Errors
    /// Returns a [`SparseError`] if `cols` exceeds `u32::MAX` (the widest
    /// matrix a `u32` column index addresses), the row pointer array has the
    /// wrong length, is not monotonically increasing, or any column index is
    /// out of range.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        mut col_idx: Vec<u32>,
        mut values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if cols > u32::MAX as usize {
            return Err(SparseError::TooManyColumns { cols });
        }
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::Parse(format!(
                "row_ptr length {} does not match rows {} + 1",
                row_ptr.len(),
                rows
            )));
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::Parse(format!(
                "col_idx length {} does not match values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        if *row_ptr.last().unwrap_or(&0) != col_idx.len() {
            return Err(SparseError::Parse(
                "last row pointer does not equal nnz".to_string(),
            ));
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::Parse(
                    "row pointers must be non-decreasing".to_string(),
                ));
            }
        }
        // One pass per row: a sorted row is bounded by its last column, so
        // only an unsorted one has every column checked before it is sorted.
        for (r, w) in row_ptr.windows(2).enumerate() {
            let (cols_r, vals_r) = (&mut col_idx[w[0]..w[1]], &mut values[w[0]..w[1]]);
            let sorted = cols_r.windows(2).all(|p| p[0] <= p[1]);
            let checked = if sorted {
                &cols_r[cols_r.len().saturating_sub(1)..]
            } else {
                &cols_r[..]
            };
            if let Some(&c) = checked.iter().find(|&&c| c as usize >= cols) {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c as usize,
                    shape: (rows, cols),
                });
            }
            if !sorted {
                let mut pairs: Vec<(u32, f64)> =
                    cols_r.iter().copied().zip(vals_r.iter().copied()).collect();
                pairs.sort_unstable_by_key(|p| p.0);
                for ((c, v), (pc, pv)) in cols_r.iter_mut().zip(vals_r.iter_mut()).zip(pairs) {
                    (*c, *v) = (pc, pv);
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds an identity matrix of dimension `n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn identity(n: usize) -> Self {
        Self::diagonal_of(vec![1.0; n])
    }

    /// Builds a diagonal matrix from the given diagonal values.
    ///
    /// # Panics
    /// Panics if `diag` is longer than `u32::MAX`.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        Self::diagonal_of(diag.to_vec())
    }

    fn diagonal_of(values: Vec<f64>) -> Self {
        let n = values.len();
        let width = u32::try_from(n).expect("a diagonal matrix wider than u32::MAX columns");
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..width).collect(),
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array (length `rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Value at `(row, col)`; zero if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match u32::try_from(col).map(|c| cols.binary_search(&c)) {
            Ok(Ok(k)) => vals[k],
            _ => 0.0,
        }
    }

    /// Extracts the main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Serial sparse matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x has wrong length");
        assert_eq!(y.len(), self.rows, "spmv: y has wrong length");
        self.spmv_rows(0, self.rows, x, y);
    }

    /// Rayon-parallel sparse matrix–vector product `y = A x`.
    ///
    /// Row blocks sized for the ambient pool ([`crate::vecops::parallel_chunk_len`])
    /// are fanned out across the workers; each row is accumulated exactly as
    /// in [`CsrMatrix::spmv`], so the output is bitwise-identical to the
    /// serial product at any thread count.
    pub fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x has wrong length");
        assert_eq!(y.len(), self.rows, "spmv: y has wrong length");
        // Small systems (or a single-worker pool) do not amortize the fan-out:
        // fall through to the serial kernel, which computes the exact same
        // per-row accumulations.
        if self.rows < MIN_PARALLEL_SPMV_ROWS || rayon::current_num_threads() <= 1 {
            return self.spmv(x, y);
        }
        let gather = RowGather::new(self, x);
        let chunk = crate::vecops::parallel_chunk_len_with_min(self.rows, MIN_SPMV_ROW_CHUNK);
        y.par_chunks_mut(chunk).enumerate().for_each(|(ci, yc)| {
            let base = ci * chunk;
            for (i, out) in yc.iter_mut().enumerate() {
                *out = gather.row_product::<true>(base + i);
            }
        });
    }

    /// Computes `y = A x` for the row range `[row_begin, row_end)` only.
    ///
    /// This is the kernel behind the strip-mined `q ⇐ A·d` tasks of the
    /// paper's task decomposition (Figure 1): each task produces one block row
    /// of the output while reading the whole input vector.
    ///
    /// # Panics
    /// Panics if the row range is out of bounds or `x`/`y` have the wrong
    /// length.
    pub fn spmv_rows(&self, row_begin: usize, row_end: usize, x: &[f64], y: &mut [f64]) {
        assert!(row_end <= self.rows);
        assert_eq!(x.len(), self.cols, "spmv: x has wrong length");
        assert_eq!(y.len(), row_end - row_begin);
        let gather = RowGather::new(self, x);
        // Tiled sweep: per-row accumulation is independent, so the tiling
        // changes traversal locality only, never values.
        for (t, yt) in y.chunks_mut(SPMV_ROW_TILE).enumerate() {
            let base = row_begin + t * SPMV_ROW_TILE;
            for (i, out) in yt.iter_mut().enumerate() {
                *out = gather.row_product::<true>(base + i);
            }
        }
    }

    /// Computes the partial product of rows `[row_begin, row_end)` while
    /// *excluding* the columns in `[col_skip_begin, col_skip_end)`.
    ///
    /// Used by the inverse block relations of Table 1:
    /// `A_ii x_i = b_i − g_i − Σ_{j≠i} A_ij x_j`, where the sum over `j ≠ i`
    /// is exactly a row-range SpMV with the `i`-th column block skipped.
    pub fn spmv_rows_excluding(
        &self,
        row_begin: usize,
        row_end: usize,
        col_skip_begin: usize,
        col_skip_end: usize,
        x: &[f64],
        y: &mut [f64],
    ) {
        assert!(row_end <= self.rows);
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), row_end - row_begin);
        for (out, r) in y.iter_mut().zip(row_begin..row_end) {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c >= col_skip_begin && c < col_skip_end {
                    continue;
                }
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// # Panics
    /// Panics if the matrix has more than `u32::MAX` rows, which would be
    /// the transpose's column count.
    pub fn transpose(&self) -> CsrMatrix {
        assert!(
            u32::try_from(self.rows).is_ok(),
            "transpose: {} rows exceed u32::MAX columns",
            self.rows
        );
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut next = counts;
        for (r, r32) in (0..self.rows).zip(0u32..) {
            let (cols, vals) = self.row(r);
            for (&c, v) in cols.iter().zip(vals) {
                let pos = next[c as usize];
                col_idx[pos] = r32;
                values[pos] = *v;
                next[c as usize] += 1;
            }
        }
        // Source rows are scattered in increasing order, so every row of
        // the transpose comes out sorted.
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Checks symmetry up to an absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, v) in cols.iter().zip(vals) {
                if (v - self.get(c as usize, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the dense sub-matrix `A[rows_range, cols_range]`.
    pub fn dense_block(
        &self,
        row_begin: usize,
        row_end: usize,
        col_begin: usize,
        col_end: usize,
    ) -> DenseMatrix {
        let m = row_end - row_begin;
        let n = col_end - col_begin;
        let mut block = DenseMatrix::zeros(m, n);
        for r in row_begin..row_end {
            let (cols, vals) = self.row(r);
            for (&c, v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c >= col_begin && c < col_end {
                    block.set(r - row_begin, c - col_begin, *v);
                }
            }
        }
        block
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Scales all values by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Converts to a dense matrix (intended for tests and small matrices).
    pub fn to_dense(&self) -> DenseMatrix {
        self.dense_block(0, self.rows, 0, self.cols)
    }

    /// Estimates the largest eigenvalue with a fixed number of power
    /// iterations. Used by the matrix proxy generators to report conditioning.
    pub fn power_iteration_max_eigenvalue(&self, iterations: usize) -> f64 {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        if n == 0 {
            return 0.0;
        }
        let mut v = vec![1.0 / (n as f64).sqrt(); n];
        let mut av = vec![0.0; n];
        let mut lambda = 0.0;
        for _ in 0..iterations {
            self.spmv(&v, &mut av);
            let norm = av.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm == 0.0 {
                return 0.0;
            }
            lambda = norm;
            for (vi, avi) in v.iter_mut().zip(&av) {
                *vi = avi / norm;
            }
        }
        lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small_matrix() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0).unwrap();
        }
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 2, -1.0).unwrap();
        coo.push(2, 1, -1.0).unwrap();
        coo.to_csr().unwrap()
    }

    #[test]
    fn spmv_matches_manual_product() {
        let a = small_matrix();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![4.0 - 2.0, -1.0 + 8.0 - 3.0, -2.0 + 12.0]);
    }

    #[test]
    fn parallel_spmv_matches_serial() {
        let a = crate::generators::poisson_2d(20);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; a.rows()];
        let mut y2 = vec![0.0; a.rows()];
        a.spmv(&x, &mut y1);
        a.spmv_parallel(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_rows_is_a_slice_of_full_spmv() {
        let a = crate::generators::poisson_2d(10);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + i as f64 * 0.01).collect();
        let mut full = vec![0.0; a.rows()];
        a.spmv(&x, &mut full);
        let mut partial = vec![0.0; 30];
        a.spmv_rows(20, 50, &x, &mut partial);
        assert_eq!(&full[20..50], partial.as_slice());
    }

    #[test]
    fn spmv_rows_excluding_skips_column_block() {
        let a = small_matrix();
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        // Skip column 1 entirely.
        a.spmv_rows_excluding(0, 3, 1, 2, &x, &mut y);
        assert_eq!(y, vec![4.0, -1.0 - 1.0, 4.0]);
    }

    #[test]
    fn transpose_of_symmetric_matrix_is_identical() {
        let a = small_matrix();
        let t = a.transpose();
        assert_eq!(a, t);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn transpose_of_rectangular_matrix() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 5.0).unwrap();
        coo.push(1, 0, 3.0).unwrap();
        let a = coo.to_csr().unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 3.0);
    }

    #[test]
    fn dense_block_extraction() {
        let a = small_matrix();
        let b = a.dense_block(1, 3, 0, 2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.get(0, 0), -1.0);
        assert_eq!(b.get(0, 1), 4.0);
        assert_eq!(b.get(1, 1), -1.0);
    }

    #[test]
    fn identity_and_diagonal_constructors() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        i.spmv(&x, &mut y);
        assert_eq!(x, y);

        let d = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        let mut y2 = vec![0.0; 2];
        d.spmv(&[1.0, 1.0], &mut y2);
        assert_eq!(y2, vec![2.0, 3.0]);
    }

    #[test]
    fn norms_and_scaling() {
        let mut a = CsrMatrix::from_diagonal(&[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert!((a.inf_norm() - 4.0).abs() < 1e-15);
        a.scale(2.0);
        assert!((a.inf_norm() - 8.0).abs() < 1e-15);
    }

    #[test]
    fn from_raw_rejects_bad_structure() {
        // row_ptr has the wrong length.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // last row pointer does not match nnz.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err());
        // column index out of range.
        assert!(CsrMatrix::from_raw(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // decreasing row pointers.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // col_idx / values length mismatch.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0]).is_err());
        let oob = |row_ptr: Vec<usize>, col_idx: Vec<u32>| {
            let values = vec![1.0; col_idx.len()];
            CsrMatrix::from_raw(2, 3, row_ptr, col_idx, values)
        };
        // Out-of-range column in an unsorted row, ahead of its last entry.
        assert!(matches!(
            oob(vec![0, 1, 4], vec![0, 7, 2, 1]),
            Err(SparseError::IndexOutOfBounds { row: 1, col: 7, .. })
        ));
        // Out-of-range column as the last entry of a sorted row.
        assert!(matches!(
            oob(vec![0, 3, 4], vec![0, 1, 3, 2]),
            Err(SparseError::IndexOutOfBounds { row: 0, col: 3, .. })
        ));
    }

    #[test]
    fn from_raw_checks_the_column_width() {
        // Empty rows: nothing of the width is ever allocated.
        let wide = u32::MAX as usize + 1;
        assert_eq!(
            CsrMatrix::from_raw(1, wide, vec![0, 0], vec![], vec![]),
            Err(SparseError::TooManyColumns { cols: wide })
        );
        // The widest matrix a u32 column addresses keeps its last column.
        let widest = u32::MAX as usize;
        let (cols, vals) = (vec![0, u32::MAX - 1], vec![1.5, 2.5]);
        let a = CsrMatrix::from_raw(1, widest, vec![0, 2], cols.clone(), vals.clone()).unwrap();
        assert_eq!(a.row(0), (&cols[..], &vals[..]));
        assert_eq!(a.get(0, widest - 1), 2.5);
        assert_eq!(a.get(0, widest - 2), 0.0);
        // 2^32 must not wrap to column 0.
        assert_eq!(a.get(0, wide), 0.0, "a column past u32::MAX is not stored");
    }

    #[test]
    fn from_raw_sorts_an_unsorted_row_with_its_values() {
        let a = CsrMatrix::from_raw(
            2,
            4,
            vec![0, 2, 5],
            vec![1, 3, 3, 0, 2],
            vec![1.0, 2.0, 30.0, 10.0, 20.0],
        )
        .unwrap();
        assert_eq!(a.col_idx(), &[1, 3, 0, 2, 3]);
        assert_eq!(a.values(), &[1.0, 2.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn power_iteration_on_diagonal_matrix() {
        let a = CsrMatrix::from_diagonal(&[1.0, 5.0, 2.0]);
        let lambda = a.power_iteration_max_eigenvalue(200);
        assert!((lambda - 5.0).abs() < 1e-6, "lambda = {lambda}");
    }

    #[test]
    fn get_returns_zero_for_missing_entries() {
        let a = small_matrix();
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 0), 0.0);
    }

    // Each public CSR matvec asserts `x.len() == cols` before its first
    // unchecked gather: a short `x` panics with the length message, not
    // with the gather's debug assert or an out-of-bounds read.
    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_rejects_a_short_x() {
        small_matrix().spmv(&[1.0, 2.0], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_parallel_rejects_a_short_x() {
        let a = crate::generators::poisson_2d(70); // above the parallel gate
        a.spmv_parallel(&vec![0.0; a.cols() - 1], &mut vec![0.0; a.rows()]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_rows_rejects_a_short_x() {
        small_matrix().spmv_rows(1, 3, &[1.0, 2.0], &mut [0.0; 2]);
    }
}
