//! Block-Jacobi preconditioner.
//!
//! The paper's preconditioned CG uses block-Jacobi with blocks matching the
//! memory-page size (512×512), so that the factorization of the diagonal
//! blocks needed for the *recovery* of a lost page is already available from
//! the preconditioner — one of the reasons the paper selects it (Section 5.1).

use crate::blocking::{BlockFactor, BlockPartition, DiagonalBlocks};
use crate::{CsrMatrix, EnvelopeCholesky, SparseError};

/// Point-Jacobi solve `z_i = r_i / a_ii` over one block's rows, the fallback
/// for a block without a usable factor. A zero diagonal entry passes `r_i`
/// through.
fn point_jacobi(diag: &[f64], r: &[f64], z: &mut [f64]) {
    for ((zi, ri), d) in z.iter_mut().zip(r).zip(diag) {
        *zi = if d.abs() > f64::EPSILON { ri / d } else { *ri };
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
        match self.blocks.factor(block) {
            BlockFactor::Cholesky(c) => {
                z.copy_from_slice(r);
                c.solve_in_place(z);
            }
            BlockFactor::Lu(lu) => z.copy_from_slice(&lu.solve(r)),
            BlockFactor::Singular => {
                let range = self.blocks.partition().range(block);
                point_jacobi(&self.diag[range], r, z);
            }
        }
    }
}

/// Block-Jacobi preconditioner over a *contiguous row range* of a larger
/// SPD matrix — the rank-local form used by the distributed PCG.
///
/// On a block-row distributed machine every rank owns a contiguous slice of
/// rows and applies the preconditioner only to its own residual block: the
/// diagonal blocks never cross a rank boundary, so the application needs no
/// communication. `LocalBlockJacobi` factors each diagonal block of one
/// rank's page partition with [`EnvelopeCholesky`] — the same sparse factor
/// a page repair builds over the same rows — and applies it with that
/// factor's two triangular solves. A block that is not positive definite
/// falls back to point-Jacobi on its rows. The engine's exact recovery of a
/// lost `z` page re-solves `M_pp z_p = g_p` with this factor (the paper's
/// Section 3.2 partial application).
#[derive(Debug, Clone)]
pub struct LocalBlockJacobi {
    /// Factor of each local block; `None` for a block that is not positive
    /// definite.
    factors: Vec<Option<EnvelopeCholesky>>,
    /// Partition of the *local* index space `0..rows.len()`.
    partition: BlockPartition,
    /// Rank-local diagonal, the point-Jacobi fallback.
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
        let factors = partition
            .iter()
            .map(|(_, local)| {
                let global: Vec<usize> =
                    (rows.start + local.start..rows.start + local.end).collect();
                EnvelopeCholesky::factorize(a, &global).ok()
            })
            .collect();
        let diag = a.diagonal()[rows].to_vec();
        Ok(Self {
            factors,
            partition,
            diag,
        })
    }

    /// The partition of the local index space.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// Solves `M_bb z = r` for one local block (`r` and `z` are block-sized
    /// slices). A block that is not positive definite falls back to
    /// point-Jacobi on its rows.
    pub fn apply_block(&self, block: usize, r: &[f64], z: &mut [f64]) {
        match &self.factors[block] {
            Some(factor) => z.copy_from_slice(&factor.solve(r)),
            None => point_jacobi(&self.diag[self.partition.range(block)], r, z),
        }
    }

    /// Applies the preconditioner to the whole local range, block by block
    /// in block order: the sequence the distributed PCG rank loop runs page
    /// by page, so its result is the reference a page re-solve is held to.
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
    use crate::generators::{poisson_2d, poisson_3d_27pt};
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
        // size must reproduce the global block-Jacobi application. The local
        // factor is sparse and the global one dense, so they agree to
        // round-off, at the bound the envelope factor's own tests use.
        let a = poisson_2d(16); // n = 256
        let n = a.rows();
        let global = BlockJacobi::new(&a, BlockPartition::new(n, 32), true).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut z_global = vec![0.0; n];
        global.apply(&r, &mut z_global);
        for (start, end) in [(0usize, 128usize), (128, 256)] {
            let local = LocalBlockJacobi::new(&a, start..end, 32).unwrap();
            assert_eq!(local.partition().num_blocks(), (end - start) / 32);
            let mut z_local = vec![0.0; end - start];
            local.apply(&r[start..end], &mut z_local);
            let expected = &z_global[start..end];
            let scale = expected.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (i, (u, v)) in z_local.iter().zip(expected).enumerate() {
                assert!(
                    (u - v).abs() <= 1e-12 * scale,
                    "row {}: {u} vs {v}",
                    start + i
                );
            }
        }
    }

    #[test]
    fn local_block_is_the_page_repair_factor() {
        // One factor serves the preconditioner and the repair: on whole
        // 512-row pages, applying a rank-local block is bit for bit the
        // envelope solve a page repair runs over the same rows.
        for a in [poisson_2d(128), poisson_3d_27pt(16)] {
            let n = a.rows();
            let own = n / 2..n;
            let local = LocalBlockJacobi::new(&a, own.clone(), crate::PAGE_DOUBLES).unwrap();
            for (b, range) in local.partition().iter() {
                let rows: Vec<usize> = (own.start + range.start..own.start + range.end).collect();
                let r: Vec<f64> = rows
                    .iter()
                    .map(|&i| (i as f64 * 0.37).sin() + 0.5)
                    .collect();
                let mut z = vec![0.0; r.len()];
                local.apply_block(b, &r, &mut z);
                let repair = EnvelopeCholesky::factorize(&a, &rows).unwrap().solve(&r);
                assert_eq!(z, repair, "block {b} of n = {n}");
            }
        }
    }

    #[test]
    fn local_block_jacobi_rejects_out_of_range_rows() {
        let a = poisson_2d(4);
        assert!(LocalBlockJacobi::new(&a, 0..100, 8).is_err());
    }

    #[test]
    fn indefinite_local_block_falls_back_to_point_jacobi() {
        // Rows 2..6 of a diagonal-dominant matrix whose rows 4..6 carry a
        // negative diagonal entry: the second local block is not positive
        // definite and must fall back to `r_i / a_ii` on its rows, read at
        // their global diagonal, while the first block is solved exactly.
        let mut coo = crate::CooMatrix::new(6, 6);
        for (i, d) in [4.0, 4.0, 4.0, 4.0, -2.0, 4.0].into_iter().enumerate() {
            coo.push(i, i, d).unwrap();
        }
        for (i, j) in [(2, 3), (3, 2), (4, 5), (5, 4)] {
            coo.push(i, j, 1.0).unwrap();
        }
        let a = coo.to_csr().unwrap();
        let local = LocalBlockJacobi::new(&a, 2..6, 2).unwrap();
        let r = vec![1.0, 1.0, 1.0, 1.0];
        let mut z = vec![0.0; 4];
        local.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        // [[4, 1], [1, 4]] z = [1, 1] gives z = 1/5 up to round-off.
        assert!((z[0] - 0.2).abs() < 1e-15 && (z[1] - 0.2).abs() < 1e-15);
        assert_eq!(z[2], -0.5);
        assert_eq!(z[3], 0.25);
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
