//! The Lossy Restart (Section 4.3), adapted from Langou et al.'s Lossy
//! Approach to the paper's page-level error model.
//!
//! When a page of the iterate `x` is lost, one block-Jacobi step interpolates
//! a replacement from constant data and the surviving parts of `x`:
//!
//! ```text
//! A_ii x_i = b_i − Σ_{j≠i} A_ij x_j
//! ```
//!
//! (note: *without* the residual `g`, unlike the exact FEIR recovery). The
//! solver is then restarted from the interpolated iterate, which discards the
//! Krylov space and therefore CG's superlinear convergence — that is the
//! performance gap Figure 3 and 4 of the paper show.
//!
//! Theorems 1–3 of the paper characterise this interpolation: it is
//! contracting, diminishes the A-norm of the error, and (Theorem 3, proved in
//! the paper) *minimises* the A-norm of the error over all possible values of
//! the lost block. The helpers here expose the quantities the property tests
//! in `tests/theorems.rs` verify.

use feir_sparse::blocking::{BlockPartition, DiagonalBlocks};
use feir_sparse::{vecops, CsrMatrix};

/// Interpolates one lost block of the iterate with a block-Jacobi step.
///
/// `x` is read outside `block` only. Returns the interpolated block, or `None`
/// if the diagonal block cannot be solved.
pub fn lossy_interpolate_block(
    a: &CsrMatrix,
    b: &[f64],
    x: &[f64],
    blocks: &DiagonalBlocks,
    block: usize,
) -> Option<Vec<f64>> {
    let partition = blocks.partition();
    let range = partition.range(block);
    let mut rhs = vec![0.0; range.len()];
    a.spmv_rows_excluding(range.start, range.end, range.start, range.end, x, &mut rhs);
    for (k, r) in range.enumerate() {
        rhs[k] = b[r] - rhs[k];
    }
    blocks.solve(block, &rhs)
}

/// Applies the lossy interpolation in place for every block in `lost_blocks`.
///
/// Blocks are interpolated one at a time against the current content of `x`
/// (lost blocks are zero), which matches the paper's single-error-per-relation
/// assumption; the multi-error combined solve of FEIR is intentionally *not*
/// used here to stay faithful to the Lossy Restart baseline.
pub fn lossy_interpolate_in_place(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    blocks: &DiagonalBlocks,
    lost_blocks: &[usize],
) -> usize {
    let mut recovered = 0;
    for &block in lost_blocks {
        if let Some(values) = lossy_interpolate_block(a, b, x, blocks, block) {
            let range = blocks.partition().range(block);
            x[range].copy_from_slice(&values);
            recovered += 1;
        }
    }
    recovered
}

/// The contraction constant of Theorem 1:
/// `c_i = (1 + ‖A_ii⁻¹‖ · Σ_{j≠i} ‖A_ij‖)^{1/2}` (norms are spectral norms;
/// we bound them with Frobenius norms, which only enlarges the constant and
/// keeps the theorem's inequality checkable).
pub fn theorem1_contraction_constant(
    a: &CsrMatrix,
    partition: BlockPartition,
    block: usize,
) -> f64 {
    let range = partition.range(block);
    let a_ii = a.dense_block(range.start, range.end, range.start, range.end);
    // ‖A_ii⁻¹‖: invert through LU column by column (the block is small).
    let lu = match a_ii.lu() {
        Ok(lu) => lu,
        Err(_) => return f64::INFINITY,
    };
    let m = range.len();
    let mut inv_norm_sq = 0.0;
    let mut e = vec![0.0; m];
    for j in 0..m {
        e.iter_mut().for_each(|v| *v = 0.0);
        e[j] = 1.0;
        let col = lu.solve(&e);
        inv_norm_sq += col.iter().map(|v| v * v).sum::<f64>();
    }
    let inv_norm = inv_norm_sq.sqrt();
    // Σ_{j≠i} ‖A_ij‖_F over the other column blocks.
    let mut off_sum = 0.0;
    for (other, other_range) in partition.iter() {
        if other == block {
            continue;
        }
        let a_ij = a.dense_block(range.start, range.end, other_range.start, other_range.end);
        off_sum += a_ij.frobenius_norm();
    }
    (1.0 + inv_norm * off_sum).sqrt()
}

/// Error of an iterate in the A-norm, `‖x* − x‖_A`, given the exact solution.
pub fn a_norm_error(a: &CsrMatrix, x_exact: &[f64], x: &[f64]) -> f64 {
    let mut e: Vec<f64> = x_exact.iter().zip(x).map(|(s, v)| s - v).collect();
    // Guard against NaN garbage in lost blocks leaking into the norm.
    for v in &mut e {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    vecops::a_norm(a, &e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d, random_spd};

    fn setup(
        seed: u64,
    ) -> (
        CsrMatrix,
        BlockPartition,
        DiagonalBlocks,
        Vec<f64>,
        Vec<f64>,
        Vec<f64>,
    ) {
        let a = poisson_2d(12); // 144 unknowns
        let n = a.rows();
        let partition = BlockPartition::new(n, 36);
        let blocks = DiagonalBlocks::factorize(&a, partition, true).unwrap();
        let (x_exact, b) = manufactured_rhs(&a, seed);
        // A partially converged iterate: a noisy version of the solution.
        let x: Vec<f64> = x_exact
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.05 * ((i * 31 % 17) as f64 - 8.0) / 8.0)
            .collect();
        (a, partition, blocks, x_exact, x, b)
    }

    #[test]
    fn interpolation_restores_exact_solution_fixed_point() {
        // Fixed-point property: if x == x*, the interpolated block equals x*.
        let (a, partition, blocks, x_exact, _, b) = setup(3);
        for block in 0..partition.num_blocks() {
            let out = lossy_interpolate_block(&a, &b, &x_exact, &blocks, block).unwrap();
            for (k, r) in partition.range(block).enumerate() {
                assert!((out[k] - x_exact[r]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn theorem2_interpolation_diminishes_a_norm_error() {
        let (a, partition, blocks, x_exact, x, b) = setup(7);
        for block in 0..partition.num_blocks() {
            let mut damaged = x.clone();
            for v in &mut damaged[partition.range(block)] {
                *v = 0.0;
            }
            let err_before = a_norm_error(&a, &x_exact, &x);
            let mut interpolated = damaged.clone();
            let recovered =
                lossy_interpolate_in_place(&a, &b, &mut interpolated, &blocks, &[block]);
            assert_eq!(recovered, 1);
            let err_after = a_norm_error(&a, &x_exact, &interpolated);
            assert!(
                err_after <= err_before * (1.0 + 1e-12),
                "block {block}: {err_after} > {err_before}"
            );
        }
    }

    #[test]
    fn theorem3_interpolation_minimizes_a_norm_over_block_values() {
        // Compare the A-norm error of the interpolated block against several
        // alternative replacements (zeros, the old values, random noise): the
        // interpolation must be at least as good as all of them.
        let (a, partition, blocks, x_exact, x, b) = setup(11);
        let block = 1;
        let range = partition.range(block);
        let mut interpolated = x.clone();
        for v in &mut interpolated[range.clone()] {
            *v = 0.0;
        }
        lossy_interpolate_in_place(&a, &b, &mut interpolated, &blocks, &[block]);
        let err_interpolated = a_norm_error(&a, &x_exact, &interpolated);

        let mut alternatives: Vec<Vec<f64>> = Vec::new();
        // zeros
        let mut alt = x.clone();
        for v in &mut alt[range.clone()] {
            *v = 0.0;
        }
        alternatives.push(alt);
        // keep the old (pre-loss) values
        alternatives.push(x.clone());
        // pseudo-random noise
        let mut alt = x.clone();
        for (k, v) in alt[range.clone()].iter_mut().enumerate() {
            *v = ((k * 37 % 23) as f64 - 11.0) * 0.1;
        }
        alternatives.push(alt);

        for (i, alt) in alternatives.iter().enumerate() {
            let err_alt = a_norm_error(&a, &x_exact, alt);
            assert!(
                err_interpolated <= err_alt + 1e-12,
                "alternative {i} beats the interpolation: {err_alt} < {err_interpolated}"
            );
        }
    }

    #[test]
    fn theorem1_contraction_holds() {
        let (a, partition, blocks, x_exact, x, b) = setup(13);
        let block = 2;
        let c = theorem1_contraction_constant(&a, partition, block);
        assert!(c.is_finite() && c >= 1.0);
        let mut damaged = x.clone();
        for v in &mut damaged[partition.range(block)] {
            *v = 0.0;
        }
        let mut interpolated = damaged.clone();
        lossy_interpolate_in_place(&a, &b, &mut interpolated, &blocks, &[block]);
        // ‖e_I‖ ≤ c ‖e‖ in the 2-norm per Theorem 1.
        let e: f64 = x_exact
            .iter()
            .zip(&x)
            .map(|(s, v)| (s - v) * (s - v))
            .sum::<f64>()
            .sqrt();
        let e_i: f64 = x_exact
            .iter()
            .zip(&interpolated)
            .map(|(s, v)| (s - v) * (s - v))
            .sum::<f64>()
            .sqrt();
        assert!(e_i <= c * e * (1.0 + 1e-12), "{e_i} > {c} * {e}");
    }

    #[test]
    fn interpolation_works_on_random_spd_matrices() {
        let a = random_spd(120, 4, 77);
        let n = a.rows();
        let partition = BlockPartition::new(n, 30);
        let blocks = DiagonalBlocks::factorize(&a, partition, true).unwrap();
        let (x_exact, b) = manufactured_rhs(&a, 1);
        let x: Vec<f64> = x_exact.iter().map(|v| v * 0.9).collect();
        let mut damaged = x.clone();
        for v in &mut damaged[partition.range(2)] {
            *v = 0.0;
        }
        let before = a_norm_error(&a, &x_exact, &x);
        lossy_interpolate_in_place(&a, &b, &mut damaged, &blocks, &[2]);
        let after = a_norm_error(&a, &x_exact, &damaged);
        assert!(after <= before * (1.0 + 1e-12));
    }
}
