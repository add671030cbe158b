//! Block-Jacobi preconditioner.
//!
//! The paper's preconditioned CG uses block-Jacobi with blocks matching the
//! memory-page size (512×512), so that the factorization of the diagonal
//! blocks needed for the *recovery* of a lost page is already available from
//! the preconditioner — one of the reasons the paper selects it (Section 5.1).

use crate::blocking::{BlockFactor, BlockPartition, DiagonalBlocks};
use crate::{CsrMatrix, SparseError};

/// Solves one diagonal-block system `M_bb z = r` with the pre-computed
/// factor, falling back to point-Jacobi on `diag[diag_range]` for singular
/// blocks — the single dispatch shared by the global and rank-local
/// preconditioners so their solves can never diverge.
fn solve_factored_block(
    factor: &BlockFactor,
    diag: &[f64],
    diag_range: std::ops::Range<usize>,
    r: &[f64],
    z: &mut [f64],
) {
    match factor {
        BlockFactor::Cholesky(c) => {
            z.copy_from_slice(r);
            c.solve_in_place(z);
        }
        BlockFactor::Lu(lu) => {
            let solved = lu.solve(r);
            z.copy_from_slice(&solved);
        }
        BlockFactor::Singular => {
            for ((zi, ri), idx) in z.iter_mut().zip(r).zip(diag_range) {
                let d = diag[idx];
                *zi = if d.abs() > f64::EPSILON { ri / d } else { *ri };
            }
        }
    }
}

/// A block-Jacobi preconditioner `M = blockdiag(A_00, A_11, …)`.
///
/// `apply` solves `M z = r` block by block using the pre-computed Cholesky /
/// LU factors. Singular blocks fall back to a simple point-Jacobi (diagonal)
/// solve on their rows so the preconditioner never fails outright.
#[derive(Debug, Clone)]
pub struct BlockJacobi {
    blocks: DiagonalBlocks,
    /// Point-Jacobi fallback for singular blocks.
    diag: Vec<f64>,
}

impl BlockJacobi {
    /// Builds the preconditioner over the given block partition.
    ///
    /// # Errors
    /// Returns an error if `a` is not square or does not match the partition.
    pub fn new(a: &CsrMatrix, partition: BlockPartition, spd: bool) -> Result<Self, SparseError> {
        let blocks = DiagonalBlocks::factorize(a, partition, spd)?;
        let diag = a.diagonal();
        Ok(Self { blocks, diag })
    }

    /// Builds the preconditioner with page-sized blocks (the paper's default).
    pub fn with_page_blocks(a: &CsrMatrix, spd: bool) -> Result<Self, SparseError> {
        Self::new(a, BlockPartition::pages(a.rows()), spd)
    }

    /// The block partition used by this preconditioner.
    pub fn partition(&self) -> BlockPartition {
        self.blocks.partition()
    }

    /// Access to the underlying factorized diagonal blocks (shared with the
    /// FEIR recovery, which is what makes recovery cheap under PCG).
    pub fn diagonal_blocks(&self) -> &DiagonalBlocks {
        &self.blocks
    }

    /// Applies the preconditioner: solves `M z = r`.
    ///
    /// # Panics
    /// Panics if the slice lengths do not match the partition.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        let partition = self.blocks.partition();
        assert_eq!(r.len(), partition.len());
        assert_eq!(z.len(), partition.len());
        for (b, range) in partition.iter() {
            self.apply_block(b, &r[range.clone()], &mut z[range]);
        }
    }

    /// Applies the preconditioner to a single block — the *partial
    /// application* the paper relies on to recover preconditioned vectors
    /// cheaply (Section 3.2).
    pub fn apply_block(&self, block: usize, r: &[f64], z: &mut [f64]) {
        solve_factored_block(
            self.blocks.factor(block),
            &self.diag,
            self.blocks.partition().range(block),
            r,
            z,
        );
    }
}

/// Block-Jacobi preconditioner over a *contiguous row range* of a larger
/// matrix — the rank-local form used by the distributed PCG.
///
/// On a block-row distributed machine every rank owns a contiguous slice of
/// rows and applies the preconditioner only to its own residual block: the
/// diagonal blocks never cross a rank boundary, so the application needs no
/// communication. `LocalBlockJacobi` factorizes exactly the diagonal blocks
/// of one rank's page partition (at global row offset `rows.start`) and
/// applies them to rank-local slices. This is also the factorization the
/// engine's exact recovery of preconditioned-residual pages reuses: a lost
/// `z` page is reconstructed by re-solving `M_pp z_p = g_p` with the same
/// factor (the paper's Section 3.2 partial application).
#[derive(Debug, Clone)]
pub struct LocalBlockJacobi {
    factors: Vec<BlockFactor>,
    /// Partition of the *local* index space `0..rows.len()`.
    partition: BlockPartition,
    /// Global row offset of local index 0.
    offset: usize,
    /// Rank-local diagonal, the point-Jacobi fallback for singular blocks.
    diag: Vec<f64>,
}

impl LocalBlockJacobi {
    /// Factorizes the diagonal blocks of `a` restricted to the contiguous
    /// global `rows`, partitioned into blocks of at most `block_size` rows.
    ///
    /// # Errors
    /// Returns an error if `a` is not square or `rows` exceeds its dimension.
    pub fn new(
        a: &CsrMatrix,
        rows: std::ops::Range<usize>,
        block_size: usize,
        spd: bool,
    ) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if rows.end > a.rows() || rows.start > rows.end {
            return Err(SparseError::DimensionMismatch {
                expected: (a.rows(), a.rows()),
                found: (rows.start, rows.end),
            });
        }
        let partition = BlockPartition::new(rows.len(), block_size);
        let mut factors = Vec::with_capacity(partition.num_blocks());
        for (_, local) in partition.iter() {
            let gs = rows.start + local.start;
            let ge = rows.start + local.end;
            let block = a.dense_block(gs, ge, gs, ge);
            factors.push(crate::blocking::DiagonalBlocks::factorize_block(
                &block, spd,
            ));
        }
        let full_diag = a.diagonal();
        let diag = full_diag[rows.clone()].to_vec();
        Ok(Self {
            factors,
            partition,
            offset: rows.start,
            diag,
        })
    }

    /// The partition of the local index space.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// Global row offset of local index 0.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of local blocks.
    pub fn num_blocks(&self) -> usize {
        self.factors.len()
    }

    /// True if local block `b` has a usable direct factorization.
    pub fn is_solvable(&self, b: usize) -> bool {
        !matches!(self.factors[b], BlockFactor::Singular)
    }

    /// Solves `M_bb z = r` for one local block (`r` and `z` are block-sized
    /// slices). Singular blocks fall back to point-Jacobi on their rows.
    pub fn apply_block(&self, block: usize, r: &[f64], z: &mut [f64]) {
        solve_factored_block(
            &self.factors[block],
            &self.diag,
            self.partition.range(block),
            r,
            z,
        );
    }

    /// Applies the preconditioner to the whole local range, block by block
    /// in block order (deterministic: the distributed plain and resilient
    /// PCG paths both call this sequence and stay bitwise-identical).
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.partition.len());
        assert_eq!(z.len(), self.partition.len());
        for (b, range) in self.partition.iter() {
            self.apply_block(b, &r[range.clone()], &mut z[range]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson_2d;
    use crate::vecops;

    #[test]
    fn block_jacobi_solves_block_diagonal_exactly() {
        // When the matrix is exactly block diagonal, M = A and applying the
        // preconditioner solves the system exactly.
        let n = 32;
        let a = {
            let mut coo = crate::CooMatrix::new(n, n);
            for b in 0..4 {
                for i in 0..8 {
                    for j in 0..8 {
                        let v = if i == j { 10.0 } else { -0.5 };
                        coo.push(b * 8 + i, b * 8 + j, v).unwrap();
                    }
                }
            }
            coo.to_csr().unwrap()
        };
        let bj = BlockJacobi::new(&a, BlockPartition::new(n, 8), true).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut z = vec![0.0; n];
        bj.apply(&b, &mut z);
        for (zi, xi) in z.iter().zip(&x_true) {
            assert!((zi - xi).abs() < 1e-12);
        }
    }

    #[test]
    fn preconditioned_richardson_step_contracts_error_in_a_norm() {
        // Block-Jacobi on the 5-point Laplacian is a convergent regular
        // splitting, so one Richardson step x1 = M⁻¹ b starting from x0 = 0
        // must reduce the A-norm of the error (the same norm the paper's
        // Lossy-Approach theorems are stated in).
        let a = poisson_2d(16);
        let n = a.rows();
        let b = vec![1.0; n];
        let x_star = a.to_dense().cholesky().unwrap().solve(&b);
        let bj = BlockJacobi::new(&a, BlockPartition::new(n, 64), true).unwrap();
        let mut z = vec![0.0; n];
        bj.apply(&b, &mut z);
        let mut e1 = vec![0.0; n];
        vecops::sub(&x_star, &z, &mut e1);
        let err_before = vecops::a_norm(&a, &x_star); // error of x0 = 0
        let err_after = vecops::a_norm(&a, &e1);
        assert!(
            err_after < err_before,
            "A-norm error did not contract: {err_after} >= {err_before}"
        );
    }

    #[test]
    fn partial_application_matches_full_application() {
        let a = poisson_2d(16);
        let n = a.rows();
        let part = BlockPartition::new(n, 64);
        let bj = BlockJacobi::new(&a, part, true).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut z_full = vec![0.0; n];
        bj.apply(&r, &mut z_full);
        // Apply only block 2 and compare to the corresponding slice.
        let range = part.range(2);
        let mut z_block = vec![0.0; range.len()];
        bj.apply_block(2, &r[range.clone()], &mut z_block);
        assert_eq!(&z_full[range], z_block.as_slice());
    }

    #[test]
    fn page_block_constructor_uses_page_partition() {
        let a = poisson_2d(40); // 1600 unknowns => 4 pages
        let bj = BlockJacobi::with_page_blocks(&a, true).unwrap();
        assert_eq!(bj.partition().block_size(), crate::PAGE_DOUBLES);
        assert_eq!(bj.partition().num_blocks(), 4);
    }

    #[test]
    fn local_block_jacobi_matches_global_on_aligned_ranges() {
        // Splitting the matrix into two equal rank ranges with the same block
        // size must reproduce the global block-Jacobi application exactly.
        let a = poisson_2d(16); // n = 256
        let n = a.rows();
        let global = BlockJacobi::new(&a, BlockPartition::new(n, 32), true).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut z_global = vec![0.0; n];
        global.apply(&r, &mut z_global);
        for (start, end) in [(0usize, 128usize), (128, 256)] {
            let local = LocalBlockJacobi::new(&a, start..end, 32, true).unwrap();
            assert_eq!(local.offset(), start);
            assert_eq!(local.num_blocks(), (end - start) / 32);
            let mut z_local = vec![0.0; end - start];
            local.apply(&r[start..end], &mut z_local);
            assert_eq!(&z_global[start..end], z_local.as_slice());
        }
    }

    #[test]
    fn local_block_jacobi_rejects_out_of_range_rows() {
        let a = poisson_2d(4);
        assert!(LocalBlockJacobi::new(&a, 0..100, 8, true).is_err());
    }

    #[test]
    fn singular_block_falls_back_to_point_jacobi() {
        // Matrix whose second 2x2 diagonal block is entirely zero; the block
        // factorization is singular and the preconditioner must fall back to
        // point-Jacobi (or an identity pass-through where the diagonal is 0)
        // while still producing finite output.
        let mut coo = crate::CooMatrix::new(4, 4);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        coo.push(3, 0, 1.0).unwrap();
        let a = coo.to_csr().unwrap();
        let bj = BlockJacobi::new(&a, BlockPartition::new(4, 2), false).unwrap();
        assert!(!bj.diagonal_blocks().is_solvable(1));
        let r = vec![1.0, 1.0, 1.0, 1.0];
        let mut z = vec![0.0; 4];
        bj.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z[0], 0.5);
        assert_eq!(z[1], 0.5);
        assert_eq!(z[2], 1.0);
        assert_eq!(z[3], 1.0);
    }
}
