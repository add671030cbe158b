//! Exact block interpolation: the recoveries of Table 1.
//!
//! Every routine reconstructs one page-sized block of a solver vector from a
//! redundancy relation that holds by construction. When the lost block sits on
//! the left-hand side the reconstruction is a direct recomputation; when it
//! sits on the right-hand side a small diagonal-block system `A_ii y_i = r_i`
//! is solved with the pre-factorized blocks (Cholesky for SPD matrices, LU
//! otherwise, least squares as last resort). These reconstructions are *exact*
//! up to round-off, which is what preserves CG's convergence (Section 2.3).

use feir_sparse::blocking::{BlockPartition, DiagonalBlocks};
use feir_sparse::{CsrMatrix, DenseMatrix};

/// Pre-computed state needed to recover blocks of the CG/PCG vectors.
#[derive(Debug, Clone)]
pub struct BlockRecovery {
    partition: BlockPartition,
    diagonal_blocks: DiagonalBlocks,
}

impl BlockRecovery {
    /// Builds the recovery helper: extracts and factorizes all diagonal
    /// blocks of `a` over the page partition.
    ///
    /// For the paper's PCG configuration the block-Jacobi preconditioner uses
    /// the same blocks, so this factorization is shared and effectively free;
    /// for non-preconditioned CG it is the "at worst factorizing a diagonal
    /// block" cost mentioned in Section 2.3 (done once here).
    pub fn new(a: &CsrMatrix, partition: BlockPartition, spd: bool) -> Self {
        let diagonal_blocks = DiagonalBlocks::factorize(a, partition, spd)
            .expect("matrix must be square and match the partition");
        Self {
            partition,
            diagonal_blocks,
        }
    }

    /// Builds the helper reusing already-factorized diagonal blocks (shared
    /// with a block-Jacobi preconditioner).
    pub fn from_diagonal_blocks(diagonal_blocks: DiagonalBlocks) -> Self {
        Self {
            partition: diagonal_blocks.partition(),
            diagonal_blocks,
        }
    }

    /// The block partition used.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// Access to the factorized diagonal blocks.
    pub fn diagonal_blocks(&self) -> &DiagonalBlocks {
        &self.diagonal_blocks
    }

    /// **lhs, `q = A·d`**: recomputes block `i` of the product, `q_i = Σ_j A_ij d_j`.
    pub fn recover_matvec_lhs(&self, a: &CsrMatrix, d: &[f64], block: usize, out: &mut [f64]) {
        let range = self.partition.range(block);
        debug_assert_eq!(out.len(), range.len());
        a.spmv_rows(range.start, range.end, d, out);
    }

    /// **rhs, `q = A·d`**: recovers block `i` of the *operand*:
    /// `A_ii d_i = q_i − Σ_{j≠i} A_ij d_j`.
    ///
    /// `d` must contain valid data outside block `i` (its content inside the
    /// block is ignored). Returns `false` if the diagonal block is singular
    /// and the least-squares fallback also fails.
    pub fn recover_matvec_rhs(
        &self,
        a: &CsrMatrix,
        q: &[f64],
        d: &[f64],
        block: usize,
        out: &mut [f64],
    ) -> bool {
        let range = self.partition.range(block);
        debug_assert_eq!(out.len(), range.len());
        let mut rhs = vec![0.0; range.len()];
        a.spmv_rows_excluding(range.start, range.end, range.start, range.end, d, &mut rhs);
        for (k, r) in range.clone().enumerate() {
            rhs[k] = q[r] - rhs[k];
        }
        self.solve_block(a, block, &rhs, out)
    }

    /// **lhs, `g = b − A·x`**: recomputes block `i` of the residual.
    pub fn recover_residual_lhs(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &[f64],
        block: usize,
        out: &mut [f64],
    ) {
        let range = self.partition.range(block);
        debug_assert_eq!(out.len(), range.len());
        a.spmv_rows(range.start, range.end, x, out);
        for (k, r) in range.enumerate() {
            out[k] = b[r] - out[k];
        }
    }

    /// **rhs, `g = b − A·x`**: recovers block `i` of the *iterate*:
    /// `A_ii x_i = b_i − g_i − Σ_{j≠i} A_ij x_j`.
    ///
    /// This is the recovery Chen used together with implicit checkpointing;
    /// here it runs forward, with no checkpoint at all.
    pub fn recover_iterate_rhs(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        g: &[f64],
        x: &[f64],
        block: usize,
        out: &mut [f64],
    ) -> bool {
        let range = self.partition.range(block);
        debug_assert_eq!(out.len(), range.len());
        let mut rhs = vec![0.0; range.len()];
        a.spmv_rows_excluding(range.start, range.end, range.start, range.end, x, &mut rhs);
        for (k, r) in range.clone().enumerate() {
            rhs[k] = b[r] - g[r] - rhs[k];
        }
        self.solve_block(a, block, &rhs, out)
    }

    /// **linear combination `u = α·v + β·w`**: recomputes block `i` directly.
    pub fn recover_linear_combination(
        &self,
        alpha: f64,
        v: &[f64],
        beta: f64,
        w: &[f64],
        block: usize,
        out: &mut [f64],
    ) {
        let range = self.partition.range(block);
        debug_assert_eq!(out.len(), range.len());
        for (k, r) in range.enumerate() {
            out[k] = alpha * v[r] + beta * w[r];
        }
    }

    /// Combined recovery of several simultaneously lost blocks of the iterate
    /// (Section 2.4, case 1): solves the coupled system over all lost blocks.
    ///
    /// Returns `None` if the combined sub-matrix is singular.
    pub fn recover_iterate_multi(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        g: &[f64],
        x: &[f64],
        blocks: &[usize],
        spd: bool,
    ) -> Option<Vec<f64>> {
        let ranges: Vec<_> = blocks
            .iter()
            .map(|&blk| self.partition.range(blk))
            .collect();
        let mut rhs = Vec::with_capacity(ranges.iter().map(|r| r.len()).sum());
        for ri in &ranges {
            for r in ri.clone() {
                let (cols, vals) = a.row(r);
                let mut acc = b[r] - g[r];
                for (&c, v) in cols.iter().zip(vals) {
                    let c = c as usize;
                    let lost = ranges.iter().any(|rj| rj.contains(&c));
                    if !lost {
                        acc -= v * x[c];
                    }
                }
                rhs.push(acc);
            }
        }
        self.diagonal_blocks.solve_combined(a, blocks, &rhs, spd)
    }

    /// Solves `A_ii y = rhs` with the pre-factorized block; falls back to a
    /// least-squares solve on the full block column when the block is
    /// singular (Agullo et al.'s approach for non-SPD matrices).
    fn solve_block(&self, a: &CsrMatrix, block: usize, rhs: &[f64], out: &mut [f64]) -> bool {
        if let Some(solution) = self.diagonal_blocks.solve(block, rhs) {
            out.copy_from_slice(&solution);
            return true;
        }
        // Least-squares fallback on the full column block: minimise
        // ‖A[:, range]·y − r_full‖ where r_full is the global residual of the
        // relation restricted to the known data. For the diagonal-block
        // relation the restriction of the rhs to the block rows is what we
        // have, so solve the (possibly rank-deficient) block in the
        // least-squares sense.
        let range = self.partition.range(block);
        let block_matrix = a.dense_block(range.start, range.end, range.start, range.end);
        match least_squares(&block_matrix, rhs) {
            Some(solution) => {
                out.copy_from_slice(&solution);
                true
            }
            None => false,
        }
    }
}

/// Minimum-norm-ish least squares via the normal equations with a small Tikhonov
/// shift; used only as a last-resort fallback for singular diagonal blocks.
fn least_squares(m: &DenseMatrix, rhs: &[f64]) -> Option<Vec<f64>> {
    let n = m.cols();
    let mt = m.transpose();
    let mut normal = mt.matmul(m);
    let shift = 1e-12 * (1.0 + normal.frobenius_norm());
    for i in 0..n {
        normal.add_to(i, i, shift);
    }
    let rhs_t = mt.matvec(rhs);
    normal.cholesky().ok().map(|c| c.solve(&rhs_t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d};
    use feir_sparse::vecops;

    fn setup() -> (CsrMatrix, BlockPartition, BlockRecovery, Vec<f64>, Vec<f64>) {
        let a = poisson_2d(16); // n = 256
        let n = a.rows();
        let partition = BlockPartition::new(n, 64);
        let recovery = BlockRecovery::new(&a, partition, true);
        let (x, b) = manufactured_rhs(&a, 99);
        (a, partition, recovery, x, b)
    }

    #[test]
    fn matvec_lhs_recovery_is_exact() {
        let (a, partition, recovery, d, _) = setup();
        let mut q = vec![0.0; a.rows()];
        a.spmv(&d, &mut q);
        for block in 0..partition.num_blocks() {
            let range = partition.range(block);
            let mut out = vec![0.0; range.len()];
            recovery.recover_matvec_lhs(&a, &d, block, &mut out);
            for (k, r) in range.enumerate() {
                assert!((out[k] - q[r]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_rhs_recovery_is_exact() {
        let (a, partition, recovery, d, _) = setup();
        let mut q = vec![0.0; a.rows()];
        a.spmv(&d, &mut q);
        for block in 0..partition.num_blocks() {
            let range = partition.range(block);
            // Corrupt the block in a copy of d; recovery must not read it.
            let mut d_damaged = d.clone();
            for v in &mut d_damaged[range.clone()] {
                *v = f64::NAN;
            }
            let mut out = vec![0.0; range.len()];
            assert!(recovery.recover_matvec_rhs(&a, &q, &d_damaged, block, &mut out));
            for (k, r) in range.enumerate() {
                assert!(
                    (out[k] - d[r]).abs() < 1e-9,
                    "block {block} row {r}: {} vs {}",
                    out[k],
                    d[r]
                );
            }
        }
    }

    #[test]
    fn residual_lhs_recovery_is_exact() {
        let (a, partition, recovery, x, b) = setup();
        let mut g = vec![0.0; a.rows()];
        a.spmv(&x, &mut g);
        for (gi, bi) in g.iter_mut().zip(&b) {
            *gi = bi - *gi;
        }
        let block = 2;
        let range = partition.range(block);
        let mut out = vec![0.0; range.len()];
        recovery.recover_residual_lhs(&a, &b, &x, block, &mut out);
        for (k, r) in range.enumerate() {
            assert!((out[k] - g[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn iterate_rhs_recovery_is_exact() {
        let (a, partition, recovery, x, b) = setup();
        let mut g = vec![0.0; a.rows()];
        a.spmv(&x, &mut g);
        for (gi, bi) in g.iter_mut().zip(&b) {
            *gi = bi - *gi;
        }
        for block in [0usize, 1, 3] {
            let range = partition.range(block);
            let mut x_damaged = x.clone();
            for v in &mut x_damaged[range.clone()] {
                *v = 0.0;
            }
            let mut out = vec![0.0; range.len()];
            assert!(recovery.recover_iterate_rhs(&a, &b, &g, &x_damaged, block, &mut out));
            for (k, r) in range.enumerate() {
                assert!((out[k] - x[r]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn linear_combination_recovery_is_exact() {
        let (_, partition, recovery, v, w) = setup();
        let alpha = 0.3;
        let beta = -1.7;
        let u: Vec<f64> = v
            .iter()
            .zip(&w)
            .map(|(a, b)| alpha * a + beta * b)
            .collect();
        let block = 1;
        let range = partition.range(block);
        let mut out = vec![0.0; range.len()];
        recovery.recover_linear_combination(alpha, &v, beta, &w, block, &mut out);
        for (k, r) in range.enumerate() {
            assert!((out[k] - u[r]).abs() < 1e-14);
        }
    }

    #[test]
    fn multi_block_iterate_recovery_is_exact() {
        let (a, partition, recovery, x, b) = setup();
        let mut g = vec![0.0; a.rows()];
        a.spmv(&x, &mut g);
        for (gi, bi) in g.iter_mut().zip(&b) {
            *gi = bi - *gi;
        }
        let lost = [1usize, 2usize];
        let mut x_damaged = x.clone();
        for &blk in &lost {
            for v in &mut x_damaged[partition.range(blk)] {
                *v = 0.0;
            }
        }
        let recovered = recovery
            .recover_iterate_multi(&a, &b, &g, &x_damaged, &lost, true)
            .expect("combined solve must succeed for SPD A");
        let mut k = 0;
        for &blk in &lost {
            for r in partition.range(blk) {
                assert!((recovered[k] - x[r]).abs() < 1e-9);
                k += 1;
            }
        }
    }

    #[test]
    fn recovered_data_preserves_cg_convergence() {
        // The headline property: after an exact recovery the solver state is
        // bit-for-bit (up to round-off) what it would have been, so CG
        // converges in the same number of iterations.
        use feir_solvers::{cg, SolveOptions};
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 5);
        let clean = cg(&a, &b, None, &SolveOptions::default());

        // Manually run CG, lose a block of d mid-way, recover it exactly, and
        // check the final iteration count matches.
        let n = a.rows();
        let partition = BlockPartition::new(n, 64);
        let recovery = BlockRecovery::new(&a, partition, true);
        let mut x = vec![0.0; n];
        let mut g = b.clone();
        let mut d = vec![0.0; n];
        let mut q = vec![0.0; n];
        let mut eps_old = f64::INFINITY;
        let norm_b = vecops::norm2(&b);
        let mut iterations = 0;
        for t in 0..10_000 {
            let eps = vecops::norm2_squared(&g);
            if eps.sqrt() / norm_b <= 1e-10 {
                iterations = t;
                break;
            }
            let beta = if eps_old.is_finite() {
                eps / eps_old
            } else {
                0.0
            };
            vecops::xpay(&g, beta, &mut d);
            a.spmv(&d, &mut q);
            if t == 7 {
                // Lose block 2 of d *after* q was computed, then recover it
                // from the inverse matvec relation.
                let range = partition.range(2);
                for v in &mut d[range.clone()] {
                    *v = 0.0;
                }
                let mut out = vec![0.0; range.len()];
                assert!(recovery.recover_matvec_rhs(&a, &q, &d, 2, &mut out));
                d[range].copy_from_slice(&out);
            }
            let alpha = eps / vecops::dot(&q, &d);
            vecops::axpy(alpha, &d, &mut x);
            vecops::axpy(-alpha, &q, &mut g);
            eps_old = eps;
            iterations = t + 1;
        }
        assert_eq!(
            iterations, clean.iterations,
            "exact recovery must not change convergence"
        );
    }
}
