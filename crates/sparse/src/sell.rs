//! SELL-C-σ (sliced ELLPACK) storage: the vectorization-friendly second
//! backend of the SpMV hot path.
//!
//! The format (Kreutzer et al.) groups rows into *slices* of a fixed height
//! `C` and stores each slice column-major, padded to the slice's longest
//! row. Sorting rows by descending length inside a window of `σ` consecutive
//! rows keeps slice mates similar in length (little padding) while keeping
//! the permutation *local*: row `r` can only move within its σ-window, so
//! any σ-aligned block of the output is produced entirely from the matching
//! σ-aligned block of rows.
//!
//! # Bitwise contract
//!
//! Every kernel here is **bitwise-identical to its CSR counterpart**:
//!
//! * each lane (row) owns an independent accumulator and folds its entries
//!   in stored order — the conversion preserves CSR's sorted-column entry
//!   order per row, so the per-row sum is the exact fold
//!   [`CsrMatrix::spmv`] computes;
//! * padding never enters the arithmetic: the kernels bound every lane by
//!   its true row length, so padded entries are never multiplied or added
//!   (an `acc += 0.0 * x[pad]` would already flip `-0.0` signs and launder
//!   NaN/inf through the product — skipping is what makes identity exact);
//! * the fused dots accumulate `x[r]·y[r]` in **original row order** (not
//!   slice-permuted order) with a single accumulator per [`DOT_CHUNK`]
//!   block, folding blocks in order — the same fold shape as
//!   [`crate::fused::spmv_dot`] / [`crate::fused::spmv_dot_parallel`];
//! * parallel row chunks are σ-aligned, so chunking changes scheduling,
//!   never values, exactly like the CSR gates.
//!
//! # Safety contract
//!
//! The slice loop reads `x[col]` without a bounds check, once per stored
//! entry. Three facts make that sound:
//!
//! * every column is `< cols`: [`SellMatrix::from_csr_rows`] copies the
//!   columns verbatim from a [`CsrMatrix`], whose columns are checked in
//!   [`CsrMatrix::from_raw`] and never change afterwards, and no method of
//!   this type writes a column after construction;
//! * padded entries are never read — each lane stops at its true length;
//! * the slice loop asserts `x.len() == cols` on entry, and every public
//!   kernel asserts the same before it, so a short `x` panics before any
//!   read.
//!
//! The layout constants are coordinated with the rest of the crate:
//! `C = 8` lanes match one cache line of doubles, `σ = 256` equals the
//! minimum parallel SpMV row chunk, and `DOT_CHUNK = 4096` is an exact
//! multiple of σ (16 windows per reduction chunk), so every reduction
//! boundary of the parallel kernels falls on a window boundary.

use rayon::prelude::*;

use crate::csr::MIN_PARALLEL_SPMV_ROWS;
use crate::vecops::{DOT_CHUNK, MIN_PARALLEL_DOT_ELEMS};
use crate::{CsrMatrix, SparseError};

/// Slice height: rows per slice, i.e. SIMD lanes of the column-major block.
pub const SELL_C: usize = 8;

/// Sorting window: rows may be reordered only within σ consecutive rows.
/// Equal to the minimum parallel SpMV row chunk so pool chunk boundaries
/// can always be σ-aligned, and a divisor of [`DOT_CHUNK`] so reduction
/// chunks cover whole windows.
pub const SELL_SIGMA: usize = 256;

// Layout invariants the kernels rely on; violating either breaks the
// σ-aligned chunking and the fused fold shapes.
const _: () = assert!(SELL_SIGMA.is_multiple_of(SELL_C));
const _: () = assert!(DOT_CHUNK.is_multiple_of(SELL_SIGMA));

/// Sentinel in `perm` marking a padding lane (row count not a multiple of
/// `C`); such lanes have length 0 and are never scattered.
const PAD_LANE: usize = usize::MAX;

/// A sparse matrix in SELL-C-σ format, converted one-shot from CSR.
///
/// The conversion is exact and reversible: [`SellMatrix::to_csr`] rebuilds
/// the source matrix bit-for-bit (structure and values). Column indices are
/// `u32`, copied as stored from the CSR source (which already caps the
/// width at `u32::MAX`), so both formats read 12 bytes per stored entry;
/// what SELL adds is `C` independent row accumulators per slice, at the cost
/// of the padding.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Data offset of each slice (length `num_slices + 1`); slice `s` holds
    /// `(slice_ptr[s+1] - slice_ptr[s]) / C` padded columns.
    slice_ptr: Vec<usize>,
    /// True row length per lane, length `num_slices * C`; padding lanes are 0.
    row_len: Vec<usize>,
    /// Lane → original (block-local) row, length `num_slices * C`;
    /// [`PAD_LANE`] for padding lanes. Lane `k` only ever maps inside the
    /// σ-window containing `k`.
    perm: Vec<usize>,
    /// Column-major slice data: entry `(lane, j)` of slice `s` lives at
    /// `slice_ptr[s] + j*C + lane`. Padded entries are exactly `0.0`.
    values: Vec<f64>,
    /// Same layout as `values`; padded entries point at column 0 (in
    /// bounds, never dereferenced by the kernels).
    col_idx: Vec<u32>,
}

impl SellMatrix {
    /// Converts a full CSR matrix. See [`SellMatrix::from_csr_rows`].
    pub fn from_csr(a: &CsrMatrix) -> Self {
        Self::from_csr_rows(a, 0, a.rows()).expect("the full row range is in bounds")
    }

    /// Converts the row block `[row_begin, row_end)` of a CSR matrix —
    /// the rank-local form used by the distributed solvers, where each rank
    /// converts only the rows it owns while x stays full-length.
    ///
    /// # Errors
    /// Returns [`SparseError::Parse`] if the row range is out of bounds.
    pub fn from_csr_rows(
        a: &CsrMatrix,
        row_begin: usize,
        row_end: usize,
    ) -> Result<Self, SparseError> {
        if row_end < row_begin || row_end > a.rows() {
            return Err(SparseError::Parse(format!(
                "row range {row_begin}..{row_end} out of bounds for {} rows",
                a.rows()
            )));
        }
        let rows = row_end - row_begin;
        let num_slices = rows.div_ceil(SELL_C);
        let lanes = num_slices * SELL_C;

        // Sort each σ-window by descending row length (stable: ties keep
        // original order), recording the lane → original-row permutation.
        let mut perm = Vec::with_capacity(lanes);
        let row_length = |r: usize| a.row_ptr()[row_begin + r + 1] - a.row_ptr()[row_begin + r];
        let mut window: Vec<usize> = Vec::with_capacity(SELL_SIGMA);
        let mut w0 = 0;
        while w0 < rows {
            let w1 = (w0 + SELL_SIGMA).min(rows);
            window.clear();
            window.extend(w0..w1);
            window.sort_by_key(|&r| std::cmp::Reverse(row_length(r)));
            perm.extend_from_slice(&window);
            w0 = w1;
        }
        perm.resize(lanes, PAD_LANE);

        let mut row_len = vec![0usize; lanes];
        for (k, &r) in perm.iter().enumerate() {
            if r != PAD_LANE {
                row_len[k] = row_length(r);
            }
        }

        let mut slice_ptr = Vec::with_capacity(num_slices + 1);
        slice_ptr.push(0usize);
        for s in 0..num_slices {
            let width = row_len[s * SELL_C..(s + 1) * SELL_C]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            slice_ptr.push(slice_ptr[s] + width * SELL_C);
        }

        let padded = *slice_ptr.last().unwrap();
        let mut values = vec![0.0f64; padded];
        let mut col_idx = vec![0u32; padded];
        for (s, &base) in slice_ptr.iter().take(num_slices).enumerate() {
            for lane in 0..SELL_C {
                let k = s * SELL_C + lane;
                if perm[k] == PAD_LANE {
                    continue;
                }
                let (cols, vals) = a.row(row_begin + perm[k]);
                for (j, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                    values[base + j * SELL_C + lane] = v;
                    col_idx[base + j * SELL_C + lane] = c;
                }
            }
        }

        Ok(Self {
            rows,
            cols: a.cols(),
            nnz: a.row_ptr()[row_end] - a.row_ptr()[row_begin],
            slice_ptr,
            row_len,
            perm,
            values,
            col_idx,
        })
    }

    /// Number of (block-local) rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (always the full matrix width).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries, excluding padding.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored entries *including* padding.
    #[inline]
    pub fn padded_nnz(&self) -> usize {
        self.values.len()
    }

    /// Padding overhead: `padded_nnz / nnz` (1.0 = no padding). Empty
    /// matrices report 1.0.
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_nnz() as f64 / self.nnz as f64
        }
    }

    #[inline]
    fn num_slices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Rebuilds the source CSR block, bit-for-bit (exact round-trip).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for (k, &r) in self.perm.iter().enumerate() {
            if r != PAD_LANE {
                row_ptr[r + 1] = self.row_len[k];
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        for (k, &r) in self.perm.iter().enumerate() {
            if r == PAD_LANE {
                continue;
            }
            let (s, lane) = (k / SELL_C, k % SELL_C);
            let base = self.slice_ptr[s];
            let dst = row_ptr[r];
            for j in 0..self.row_len[k] {
                col_idx[dst + j] = self.col_idx[base + j * SELL_C + lane];
                values[dst + j] = self.values[base + j * SELL_C + lane];
            }
        }
        CsrMatrix::from_raw(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("SELL round-trip produced invalid CSR structure")
    }

    /// Products of the slices covering rows `[y_base, y_base + y.len())`,
    /// scattered into `y` (indexed from `y_base`). The caller guarantees the
    /// range is σ-aligned (or covers the matrix tail), so every lane of
    /// every touched slice lands inside `y`.
    ///
    /// Per slice, each lane owns an accumulator folding its entries in
    /// stored (row) order. The dense common-prefix loop is the vectorizable
    /// part (all `C` lanes active, unit stride over the slice data); the
    /// ragged tails finish each longer lane with the *same* accumulator,
    /// continuing at the exact element the prefix stopped at — so the
    /// per-row fold order is identical to CSR's. Lanes are sorted by
    /// descending length, so a slice whose first and last lanes are equally
    /// long has no tail at all.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`: the one check the gather relies on (see
    /// the safety contract in the module docs).
    fn spmv_block(&self, y_base: usize, y: &mut [f64], x: &[f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x has wrong length");
        let at = |c: u32| {
            let c = c as usize;
            debug_assert!(c < x.len());
            // SAFETY: every column a lane reads is a stored column of the
            // source CSR matrix, copied verbatim, hence `< cols`, and
            // `x.len() == cols` was asserted above. Padded entries are
            // never read.
            unsafe { *x.get_unchecked(c) }
        };
        let s_begin = y_base / SELL_C;
        let s_end = (y_base + y.len()).div_ceil(SELL_C);
        for s in s_begin..s_end {
            let base = self.slice_ptr[s];
            let lanes = s * SELL_C..(s + 1) * SELL_C;
            let lens = &self.row_len[lanes.clone()];
            let min_len = lens[SELL_C - 1];
            let mut acc = [0.0f64; SELL_C];
            let dense = &self.values[base..base + min_len * SELL_C];
            let dense_cols = &self.col_idx[base..base + min_len * SELL_C];
            for (vals, cols) in dense
                .chunks_exact(SELL_C)
                .zip(dense_cols.chunks_exact(SELL_C))
            {
                for lane in 0..SELL_C {
                    acc[lane] += vals[lane] * at(cols[lane]);
                }
            }
            if lens[0] != min_len {
                for (lane, a) in acc.iter_mut().enumerate() {
                    for j in min_len..lens[lane] {
                        let off = base + j * SELL_C + lane;
                        *a += self.values[off] * at(self.col_idx[off]);
                    }
                }
            }
            for (&r, &v) in self.perm[lanes].iter().zip(&acc) {
                if r != PAD_LANE {
                    y[r - y_base] = v;
                }
            }
        }
    }

    /// Serial `y = A·x`, bitwise-identical to [`CsrMatrix::spmv`] on the
    /// source matrix (every real row is written, including empty rows).
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x has wrong length");
        assert_eq!(y.len(), self.rows, "spmv: y has wrong length");
        self.spmv_block(0, y, x);
    }

    /// Rayon-parallel `y = A·x` over σ-aligned row chunks. Row permutations
    /// never cross a σ-window, so σ-aligned chunks write disjoint `y`
    /// ranges; per-row accumulation is unchanged, so the result is
    /// bitwise-identical to [`SellMatrix::spmv`] (and hence to the CSR
    /// kernels) at any thread count.
    pub fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x has wrong length");
        assert_eq!(y.len(), self.rows, "spmv: y has wrong length");
        if self.rows < MIN_PARALLEL_SPMV_ROWS || rayon::current_num_threads() <= 1 {
            return self.spmv(x, y);
        }
        let chunk = crate::vecops::parallel_chunk_len_with_min(self.rows, SELL_SIGMA)
            .div_ceil(SELL_SIGMA)
            * SELL_SIGMA;
        y.par_chunks_mut(chunk).enumerate().for_each(|(ci, yc)| {
            self.spmv_block(ci * chunk, yc, x);
        });
    }

    /// Fused serial `y = A·x` with the partial dot
    /// `⟨x[first_row..first_row + rows], y⟩`: the rank-local
    /// `q ⇐ A·d` fused with `⟨d, q⟩`, where this matrix holds the row block
    /// starting at global row `first_row`. Single accumulator, original row
    /// order — bitwise-identical to
    /// [`crate::fused::spmv_rows_dot`] on the source matrix.
    pub fn spmv_dot_at(&self, first_row: usize, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.cols, "spmv_dot: x has wrong length");
        assert_eq!(y.len(), self.rows, "spmv_dot: y has wrong length");
        assert!(
            first_row + self.rows <= self.cols,
            "spmv_dot: row block exceeds x"
        );
        let mut acc = 0.0;
        let mut w0 = 0;
        while w0 < self.rows {
            let w1 = (w0 + SELL_SIGMA).min(self.rows);
            // Window rows are fully computed before they enter the dot, and
            // the dot reads them in original row order: the exact add
            // sequence of the CSR fused kernel.
            self.spmv_block(w0, &mut y[w0..w1], x);
            for r in w0..w1 {
                acc += x[first_row + r] * y[r];
            }
            w0 = w1;
        }
        acc
    }

    /// Fused serial `y = A·x` with `⟨x, y⟩` for the square full-matrix case;
    /// bitwise-identical to [`crate::fused::spmv_dot`].
    pub fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows, self.cols, "spmv_dot: matrix must be square");
        self.spmv_dot_at(0, x, y)
    }

    /// Rayon-parallel fused `y = A·x` with `⟨x, y⟩`: [`DOT_CHUNK`]-row
    /// blocks (always a whole number of σ-windows) each produce their rows
    /// and their partial dot; partials fold in block order. Gates and fold
    /// shape mirror [`crate::fused::spmv_dot_parallel`], so the result is
    /// bitwise-identical to it at every thread count.
    pub fn spmv_dot_parallel(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows, self.cols, "spmv_dot: matrix must be square");
        assert_eq!(x.len(), self.cols, "spmv_dot: x has wrong length");
        assert_eq!(y.len(), self.rows, "spmv_dot: y has wrong length");
        let chunk_partial = |ci: usize, yc: &mut [f64]| -> f64 {
            let base = ci * DOT_CHUNK;
            self.spmv_block(base, yc, x);
            let mut acc = 0.0;
            for (i, &v) in yc.iter().enumerate() {
                acc += x[base + i] * v;
            }
            acc
        };
        if self.rows < MIN_PARALLEL_DOT_ELEMS.min(MIN_PARALLEL_SPMV_ROWS)
            || rayon::current_num_threads() <= 1
        {
            let mut total = 0.0;
            for (ci, yc) in y.chunks_mut(DOT_CHUNK).enumerate() {
                total += chunk_partial(ci, yc);
            }
            return total;
        }
        y.par_chunks_mut(DOT_CHUNK)
            .enumerate()
            .map(|(ci, yc)| chunk_partial(ci, yc))
            .sum()
    }

    /// Checks the padding contract: every padded entry holds exactly `0.0`
    /// and an in-bounds column index, every real lane's length matches its
    /// source row, and the permutation stays inside its σ-window. Used by
    /// tests; cheap enough for debug assertions.
    pub fn validate_padding(&self) -> Result<(), String> {
        for s in 0..self.num_slices() {
            let base = self.slice_ptr[s];
            let width = (self.slice_ptr[s + 1] - base) / SELL_C;
            for lane in 0..SELL_C {
                let k = s * SELL_C + lane;
                let r = self.perm[k];
                if r == PAD_LANE {
                    if self.row_len[k] != 0 {
                        return Err(format!("padding lane {k} has non-zero length"));
                    }
                } else {
                    let window = k / SELL_SIGMA;
                    if r / SELL_SIGMA != window {
                        return Err(format!("lane {k} maps to row {r} outside its σ-window"));
                    }
                }
                for j in self.row_len[k]..width {
                    let off = base + j * SELL_C + lane;
                    if self.values[off].to_bits() != 0.0f64.to_bits() {
                        return Err(format!(
                            "padded value at slice {s} lane {lane} col {j} is not +0.0"
                        ));
                    }
                    if self.col_idx[off] as usize >= self.cols.max(1) {
                        return Err(format!(
                            "padded index at slice {s} lane {lane} col {j} out of bounds"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{poisson_2d, poisson_3d_27pt, random_spd};
    use crate::{fused, CooMatrix};

    fn test_x(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 - 0.25)
            .collect()
    }

    #[test]
    fn round_trip_is_exact() {
        for a in [poisson_2d(23), random_spd(777, 5, 3)] {
            let sell = SellMatrix::from_csr(&a);
            assert_eq!(sell.nnz(), a.nnz());
            assert_eq!(sell.to_csr(), a);
            sell.validate_padding().unwrap();
        }
    }

    #[test]
    fn round_trip_of_row_block_is_exact() {
        let a = poisson_2d(20);
        let (begin, end) = (130, 391); // deliberately σ-unaligned
        let sell = SellMatrix::from_csr_rows(&a, begin, end).unwrap();
        sell.validate_padding().unwrap();
        let block = sell.to_csr();
        assert_eq!(block.rows(), end - begin);
        assert_eq!(block.cols(), a.cols());
        for r in begin..end {
            let (cols, vals) = a.row(r);
            let (bc, bv) = block.row(r - begin);
            assert_eq!(cols, bc);
            assert_eq!(vals, bv);
        }
    }

    #[test]
    fn handles_empty_and_irregular_rows() {
        // Rows: empty, 1 entry, very long, empty — exercises padding lanes,
        // empty real rows, and the ragged tails.
        let mut coo = CooMatrix::new(7, 40);
        coo.push(1, 3, 2.5).unwrap();
        for c in 0..40 {
            coo.push(2, c, 1.0 + c as f64).unwrap();
        }
        coo.push(4, 0, -1.0).unwrap();
        coo.push(4, 39, 4.0).unwrap();
        let a = coo.to_csr().unwrap();
        let sell = SellMatrix::from_csr(&a);
        sell.validate_padding().unwrap();
        assert_eq!(sell.to_csr(), a);
        let x = test_x(a.cols());
        let mut y_csr = vec![f64::NAN; a.rows()];
        let mut y_sell = vec![f64::NAN; a.rows()];
        a.spmv(&x, &mut y_csr);
        sell.spmv(&x, &mut y_sell);
        // Empty rows must be *written* (0.0), not skipped.
        for (u, v) in y_csr.iter().zip(&y_sell) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn spmv_matches_csr_bitwise() {
        for a in [poisson_2d(17), poisson_2d(33), random_spd(1000, 7, 11)] {
            let sell = SellMatrix::from_csr(&a);
            let x = test_x(a.cols());
            let mut y_csr = vec![0.0; a.rows()];
            let mut y_sell = vec![0.0; a.rows()];
            a.spmv(&x, &mut y_csr);
            sell.spmv(&x, &mut y_sell);
            for (u, v) in y_csr.iter().zip(&y_sell) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn block_spmv_matches_csr_rows_bitwise() {
        let a = poisson_2d(24);
        let (begin, end) = (100, 500);
        let sell = SellMatrix::from_csr_rows(&a, begin, end).unwrap();
        let x = test_x(a.cols());
        let mut y_csr = vec![0.0; end - begin];
        let mut y_sell = vec![0.0; end - begin];
        a.spmv_rows(begin, end, &x, &mut y_csr);
        sell.spmv(&x, &mut y_sell);
        for (u, v) in y_csr.iter().zip(&y_sell) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn fused_dot_matches_csr_fused_bitwise() {
        let a = poisson_2d(26);
        let sell = SellMatrix::from_csr(&a);
        let x = test_x(a.cols());
        let mut y_csr = vec![0.0; a.rows()];
        let mut y_sell = vec![0.0; a.rows()];
        let expected = fused::spmv_dot(&a, &x, &mut y_csr);
        let got = sell.spmv_dot(&x, &mut y_sell);
        assert_eq!(expected.to_bits(), got.to_bits());
        assert_eq!(y_csr, y_sell);

        let (begin, end) = (256, 620);
        let block = SellMatrix::from_csr_rows(&a, begin, end).unwrap();
        let mut q_csr = vec![0.0; end - begin];
        let mut q_sell = vec![0.0; end - begin];
        let expected = fused::spmv_rows_dot(&a, begin, end, &x, &mut q_csr);
        let got = block.spmv_dot_at(begin, &x, &mut q_sell);
        assert_eq!(expected.to_bits(), got.to_bits());
        assert_eq!(q_csr, q_sell);
    }

    #[test]
    fn fused_dot_parallel_matches_csr_fused_bitwise() {
        let a = poisson_2d(70); // 4900 rows: above the serial gates.
        let sell = SellMatrix::from_csr(&a);
        let x = test_x(a.cols());
        let mut y_csr = vec![0.0; a.rows()];
        let mut y_sell = vec![0.0; a.rows()];
        let expected = fused::spmv_dot_parallel(&a, &x, &mut y_csr);
        let got = sell.spmv_dot_parallel(&x, &mut y_sell);
        assert_eq!(expected.to_bits(), got.to_bits());
        assert_eq!(y_csr, y_sell);
    }

    #[test]
    fn parallel_spmv_matches_serial_bitwise() {
        let a = poisson_2d(70);
        let sell = SellMatrix::from_csr(&a);
        let x = test_x(a.cols());
        let mut y1 = vec![0.0; a.rows()];
        let mut y2 = vec![0.0; a.rows()];
        sell.spmv(&x, &mut y1);
        sell.spmv_parallel(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn rejects_bad_row_ranges() {
        let a = poisson_2d(4);
        assert!(SellMatrix::from_csr_rows(&a, 10, 5).is_err());
        assert!(SellMatrix::from_csr_rows(&a, 0, 17).is_err());
    }

    #[test]
    fn fill_ratio_reflects_padding() {
        // A banded stencil sorts into near-uniform slices: tiny padding.
        let banded = SellMatrix::from_csr(&poisson_2d(32));
        assert!(banded.fill_ratio() < 1.2, "fill {}", banded.fill_ratio());
        // One dense row per window forces a full-width slice each window.
        let mut coo = CooMatrix::new(SELL_SIGMA, SELL_SIGMA);
        for c in 0..SELL_SIGMA {
            coo.push(0, c, 1.0).unwrap();
            coo.push(c, c, 1.0).unwrap();
        }
        let spiked = SellMatrix::from_csr(&coo.to_csr().unwrap());
        assert!(spiked.fill_ratio() > 2.0, "fill {}", spiked.fill_ratio());
    }

    /// `x` carrying the values the bitwise contract must pass through
    /// unchanged: `-0.0`, `±inf`, and NaN at column `cols − 1`. The `inf`
    /// at column 0 — where padded entries point — turns any product with a
    /// padded `0.0` into NaN.
    fn special_x(n: usize) -> Vec<f64> {
        let mut x = test_x(n);
        for (i, v) in [
            (0, f64::INFINITY),
            (n / 3, -0.0),
            (n / 2, f64::NEG_INFINITY),
            (2 * n / 3, -0.0),
            (n - 1, f64::NAN),
        ] {
            x[i] = v;
        }
        x
    }

    fn assert_bits_eq(expected: &[f64], got: &[f64], label: &str) {
        assert_eq!(expected.len(), got.len(), "{label}");
        for (i, (u, v)) in expected.iter().zip(got).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "{label}: row {i}");
        }
    }

    /// Slices taking the uniform path (no ragged tail) and the ragged path.
    fn slice_paths(sell: &SellMatrix) -> (usize, usize) {
        let uniform = (0..sell.num_slices())
            .filter(|&s| sell.row_len[s * SELL_C] == sell.row_len[(s + 1) * SELL_C - 1])
            .count();
        (uniform, sell.num_slices() - uniform)
    }

    #[test]
    fn both_slice_paths_match_csr_bitwise_on_special_values() {
        // A 27-point stencil (boundary rows make ragged slices) and a
        // high-row-variance random operator; both above the parallel gates.
        let operators = [
            ("poisson_3d_27pt(17)", poisson_3d_27pt(17)),
            ("random_spd(5000, 7, 5)", random_spd(5000, 7, 5)),
        ];
        let (mut uniform, mut ragged) = (0, 0);
        for (name, a) in &operators {
            let n = a.rows();
            // The diagonal of the last row reads column `cols − 1`.
            assert_eq!(a.row(n - 1).0.last().map(|&c| c as usize), Some(n - 1));
            for x in [test_x(n), special_x(n)] {
                // σ-unaligned blocks, one of them ending at the last row.
                for (begin, end) in [(0, n), (130, n), (37, n - 101)] {
                    let label = format!("{name} rows {begin}..{end}");
                    let sell = SellMatrix::from_csr_rows(a, begin, end).unwrap();
                    let (u, r) = slice_paths(&sell);
                    (uniform, ragged) = (uniform + u, ragged + r);
                    let mut y_csr = vec![0.0; end - begin];
                    let mut y_sell = vec![f64::NAN; end - begin];
                    a.spmv_rows(begin, end, &x, &mut y_csr);
                    sell.spmv(&x, &mut y_sell);
                    assert_bits_eq(&y_csr, &y_sell, &label);
                    let d_csr = fused::spmv_rows_dot(a, begin, end, &x, &mut y_csr);
                    let d_sell = sell.spmv_dot_at(begin, &x, &mut y_sell);
                    assert_eq!(d_csr.to_bits(), d_sell.to_bits(), "{label}: dot");
                    assert_bits_eq(&y_csr, &y_sell, &label);
                }
                let full = SellMatrix::from_csr(a);
                let mut y_csr = vec![0.0; n];
                a.spmv(&x, &mut y_csr);
                for threads in [1, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("pool construction failed");
                    let label = format!("{name} at {threads} threads");
                    let mut y_sell = vec![f64::NAN; n];
                    pool.install(|| full.spmv_parallel(&x, &mut y_sell));
                    assert_bits_eq(&y_csr, &y_sell, &label);
                    let mut y_ref = vec![0.0; n];
                    let (d_ref, d_sell) = pool.install(|| {
                        let d_ref = fused::spmv_dot_parallel(a, &x, &mut y_ref);
                        (d_ref, full.spmv_dot_parallel(&x, &mut y_sell))
                    });
                    assert_eq!(d_ref.to_bits(), d_sell.to_bits(), "{label}: dot");
                    assert_bits_eq(&y_ref, &y_sell, &label);
                }
            }
        }
        assert!(
            uniform > 0 && ragged > 0,
            "{uniform} uniform, {ragged} ragged slices"
        );
    }

    // Each public SELL kernel asserts `x.len() == cols` before its first
    // unchecked gather: a short `x` panics with the length message, not
    // with the gather's debug assert or an out-of-bounds read.
    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_rejects_a_short_x() {
        SellMatrix::from_csr(&poisson_2d(4)).spmv(&[0.0; 15], &mut [0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_parallel_rejects_a_short_x() {
        let sell = SellMatrix::from_csr(&poisson_2d(70)); // above the parallel gate
        sell.spmv_parallel(&vec![0.0; sell.cols() - 1], &mut vec![0.0; sell.rows()]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_dot_at_rejects_a_short_x() {
        let block = SellMatrix::from_csr_rows(&poisson_2d(4), 8, 16).unwrap();
        block.spmv_dot_at(8, &[0.0; 15], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_dot_parallel_rejects_a_short_x() {
        let sell = SellMatrix::from_csr(&poisson_2d(70)); // above the parallel gates
        sell.spmv_dot_parallel(&vec![0.0; sell.cols() - 1], &mut vec![0.0; sell.rows()]);
    }
}
