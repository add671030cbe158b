//! Page-aligned block partitions of vectors and matrices.
//!
//! The paper's error model loses data in units of one memory page
//! (512 doubles). All recovery relations of Table 1 are therefore expressed
//! over a block partition of the vector index space where block `i` covers the
//! rows `[i·B, min((i+1)·B, n))` with `B = 512` by default. This module owns
//! that partition and the extraction/factorization of the diagonal blocks
//! `A_ii` needed for inverse (right-hand-side) recoveries.

use crate::dense::{Cholesky, Lu};
use crate::{CsrMatrix, DenseMatrix, SparseError, PAGE_DOUBLES};

/// A uniform block partition of `n` indices into blocks of at most
/// `block_size` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPartition {
    n: usize,
    block_size: usize,
}

impl BlockPartition {
    /// Creates a partition of `n` indices with the given block size.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(n: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self { n, block_size }
    }

    /// Creates the default page-sized partition (512 doubles per block).
    pub fn pages(n: usize) -> Self {
        Self::new(n, PAGE_DOUBLES)
    }

    /// Total number of indices covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the partition covers no indices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Block size (last block may be smaller).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.n.div_ceil(self.block_size)
    }

    /// Half-open index range of block `b`.
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        let start = b * self.block_size;
        let end = ((b + 1) * self.block_size).min(self.n);
        assert!(
            start < self.n || (self.n == 0 && start == 0),
            "block out of range"
        );
        start..end
    }

    /// Block that contains index `i`.
    pub fn block_of(&self, i: usize) -> usize {
        assert!(i < self.n, "index out of range");
        i / self.block_size
    }

    /// Iterates over `(block_index, range)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        (0..self.num_blocks()).map(move |b| (b, self.range(b)))
    }
}

/// Pre-extracted (and optionally pre-factorized) diagonal blocks `A_ii` of a
/// square sparse matrix over a [`BlockPartition`].
///
/// For SPD matrices the blocks are factorized with Cholesky; for general
/// matrices LU with partial pivoting is used. A block whose factorization
/// fails falls back to a least-squares solve performed lazily by the caller.
#[derive(Debug, Clone)]
pub struct DiagonalBlocks {
    partition: BlockPartition,
    factors: Vec<BlockFactor>,
}

/// Factorization of one diagonal block.
#[derive(Debug, Clone)]
pub enum BlockFactor {
    /// Cholesky factor of an SPD block.
    Cholesky(Cholesky),
    /// LU factor of a general non-singular block.
    Lu(Lu),
    /// The block could not be factorized (singular); callers must fall back to
    /// a least-squares recovery on the full block column.
    Singular,
}

impl DiagonalBlocks {
    /// Extracts and factorizes all diagonal blocks of `a` over `partition`.
    ///
    /// If `spd` is true, Cholesky is attempted first and LU is used as a
    /// fallback (a diagonal block of an SPD matrix is SPD, but round-off or a
    /// user passing a nearly-singular matrix should not abort the solver).
    ///
    /// # Errors
    /// Returns an error if the matrix is not square or does not match the
    /// partition size.
    pub fn factorize(
        a: &CsrMatrix,
        partition: BlockPartition,
        spd: bool,
    ) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.rows() != partition.len() {
            return Err(SparseError::DimensionMismatch {
                expected: (partition.len(), partition.len()),
                found: (a.rows(), a.cols()),
            });
        }
        let mut factors = Vec::with_capacity(partition.num_blocks());
        for (_, range) in partition.iter() {
            let block = a.dense_block(range.start, range.end, range.start, range.end);
            factors.push(Self::factorize_block(&block, spd));
        }
        Ok(Self { partition, factors })
    }

    fn factorize_block(block: &DenseMatrix, spd: bool) -> BlockFactor {
        if spd {
            if let Ok(chol) = block.cholesky() {
                return BlockFactor::Cholesky(chol);
            }
        }
        match block.lu() {
            Ok(lu) => BlockFactor::Lu(lu),
            Err(_) => BlockFactor::Singular,
        }
    }

    /// The partition the blocks were extracted over.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.factors.len()
    }

    /// Factor of block `b`.
    pub fn factor(&self, b: usize) -> &BlockFactor {
        &self.factors[b]
    }

    /// Returns true if block `b` has a usable direct factorization.
    pub fn is_solvable(&self, b: usize) -> bool {
        !matches!(self.factors[b], BlockFactor::Singular)
    }

    /// Solves `A_bb x = rhs` for block `b`, returning `None` if the block is
    /// singular and a least-squares fallback is required.
    pub fn solve(&self, b: usize, rhs: &[f64]) -> Option<Vec<f64>> {
        match &self.factors[b] {
            BlockFactor::Cholesky(c) => Some(c.solve(rhs)),
            BlockFactor::Lu(lu) => Some(lu.solve(rhs)),
            BlockFactor::Singular => None,
        }
    }

    /// Solves the combined system for several simultaneously lost blocks
    /// (Section 2.4, case 1 of the paper):
    ///
    /// ```text
    /// [ A_ii A_ij ] [x_i]   [rhs_i]
    /// [ A_ji A_jj ] [x_j] = [rhs_j]
    /// ```
    ///
    /// generalized to any number of blocks. The combined dense sub-matrix is
    /// factorized on the fly (it is not pre-computed since simultaneous
    /// related losses are rare).
    pub fn solve_combined(
        &self,
        a: &CsrMatrix,
        blocks: &[usize],
        rhs: &[f64],
        spd: bool,
    ) -> Option<Vec<f64>> {
        let ranges: Vec<_> = blocks.iter().map(|&b| self.partition.range(b)).collect();
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(rhs.len(), total, "combined rhs length mismatch");
        // Assemble the combined dense matrix.
        let mut m = DenseMatrix::zeros(total, total);
        let mut row_offset = 0;
        for ri in &ranges {
            let mut col_offset = 0;
            for rj in &ranges {
                let block = a.dense_block(ri.start, ri.end, rj.start, rj.end);
                for r in 0..block.rows() {
                    for c in 0..block.cols() {
                        m.set(row_offset + r, col_offset + c, block.get(r, c));
                    }
                }
                col_offset += rj.len();
            }
            row_offset += ri.len();
        }
        match Self::factorize_block(&m, spd) {
            BlockFactor::Cholesky(c) => Some(c.solve(rhs)),
            BlockFactor::Lu(lu) => Some(lu.solve(rhs)),
            BlockFactor::Singular => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson_2d;

    #[test]
    fn partition_geometry() {
        let p = BlockPartition::new(1000, 512);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.range(0), 0..512);
        assert_eq!(p.range(1), 512..1000);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(511), 0);
        assert_eq!(p.block_of(512), 1);
        assert_eq!(p.block_of(999), 1);
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn pages_partition_uses_512() {
        let p = BlockPartition::pages(2048);
        assert_eq!(p.block_size(), PAGE_DOUBLES);
        assert_eq!(p.num_blocks(), 4);
    }

    #[test]
    fn exact_multiple_partition() {
        let p = BlockPartition::new(1024, 512);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.range(1), 512..1024);
    }

    #[test]
    fn diagonal_block_solve_recovers_block_of_known_solution() {
        // A x = b, erase block 1 of x and recover it from
        // A_11 x_1 = b_1 - sum_{j != 1} A_1j x_j.
        let a = poisson_2d(12); // n = 144
        let n = a.rows();
        let part = BlockPartition::new(n, 48);
        let blocks = DiagonalBlocks::factorize(&a, part, true).unwrap();
        assert_eq!(blocks.num_blocks(), 3);
        assert!(blocks.is_solvable(1));

        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);

        let range = part.range(1);
        let mut rhs = vec![0.0; range.len()];
        a.spmv_rows_excluding(
            range.start,
            range.end,
            range.start,
            range.end,
            &x_true,
            &mut rhs,
        );
        for (k, r) in range.clone().enumerate() {
            rhs[k] = b[r] - rhs[k];
        }
        let recovered = blocks.solve(1, &rhs).unwrap();
        for (k, r) in range.enumerate() {
            assert!(
                (recovered[k] - x_true[r]).abs() < 1e-9,
                "row {r}: {} vs {}",
                recovered[k],
                x_true[r]
            );
        }
    }

    #[test]
    fn combined_solve_recovers_two_adjacent_blocks() {
        let a = poisson_2d(12);
        let n = a.rows();
        let part = BlockPartition::new(n, 36);
        let blocks = DiagonalBlocks::factorize(&a, part, true).unwrap();

        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);

        // Lose blocks 1 and 2 simultaneously.
        let lost = [1usize, 2usize];
        let ranges: Vec<_> = lost.iter().map(|&l| part.range(l)).collect();
        let mut rhs = Vec::new();
        for ri in &ranges {
            for r in ri.clone() {
                let (cols, vals) = a.row(r);
                let mut acc = b[r];
                for (&c, v) in cols.iter().zip(vals) {
                    let c = c as usize;
                    let in_lost = ranges.iter().any(|rj| rj.contains(&c));
                    if !in_lost {
                        acc -= v * x_true[c];
                    }
                }
                rhs.push(acc);
            }
        }
        let recovered = blocks.solve_combined(&a, &lost, &rhs, true).unwrap();
        let mut k = 0;
        for ri in &ranges {
            for r in ri.clone() {
                assert!((recovered[k] - x_true[r]).abs() < 1e-9);
                k += 1;
            }
        }
    }

    #[test]
    fn singular_block_reports_unsolvable() {
        // A matrix with an all-zero diagonal block.
        let mut coo = crate::CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        // rows 2..4 are zero => block 1 singular
        let a = coo.to_csr().unwrap();
        let part = BlockPartition::new(4, 2);
        let blocks = DiagonalBlocks::factorize(&a, part, false).unwrap();
        assert!(blocks.is_solvable(0));
        assert!(!blocks.is_solvable(1));
        assert!(blocks.solve(1, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn factorize_rejects_mismatched_partition() {
        let a = poisson_2d(4);
        let part = BlockPartition::new(10, 4);
        assert!(DiagonalBlocks::factorize(&a, part, true).is_err());
    }
}
