//! Block-row distributed **preconditioned** Conjugate Gradient over
//! simulated ranks (Listing 5 of the paper, in the Section 3.4 distributed
//! configuration).
//!
//! The preconditioner is block-Jacobi with **rank-local page blocks**
//! ([`LocalBlockJacobi`](feir_sparse::LocalBlockJacobi)): every diagonal
//! block lives inside one rank's row range, so applying `M⁻¹` needs no
//! communication — the iteration adds one coupled block solve per page and
//! one extra allreduce (`ρ = ⟨z, g⟩`) to the
//! [`distributed_cg`](crate::cg::distributed_cg) structure.
//!
//! The unprotected solve is the protected rank loop at
//! [`RecoveryPolicy::Ideal`](feir_recovery::RecoveryPolicy::Ideal), so the
//! fault-free runs of
//! [`distributed_resilient_pcg`](crate::resilient::distributed_resilient_pcg)
//! are bitwise-identical to it by construction.

use feir_sparse::CsrMatrix;

use crate::cg::DistSolveResult;
use crate::resilient::{plain_solve, DistSolver};

/// Solves `A x = b` with block-Jacobi PCG distributed over `ranks` simulated
/// ranks; `page_doubles` is the preconditioner block size (and the page size
/// the resilient twin protects at).
///
/// # Panics
/// Panics if the matrix is not square or `b` has the wrong length.
pub fn distributed_pcg(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    page_doubles: usize,
    tolerance: f64,
    max_iterations: usize,
) -> DistSolveResult {
    plain_solve(
        DistSolver::Pcg,
        a,
        b,
        ranks,
        page_doubles,
        tolerance,
        max_iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::distributed_cg;
    use feir_sparse::generators::{anisotropic_2d, manufactured_rhs, poisson_2d};

    #[test]
    fn distributed_pcg_converges_and_matches_the_manufactured_solution() {
        let a = poisson_2d(12);
        let (x_true, b) = manufactured_rhs(&a, 5);
        for ranks in [1usize, 2, 3] {
            let result = distributed_pcg(&a, &b, ranks, 16, 1e-10, 10_000);
            assert!(result.converged(), "{ranks} ranks did not converge");
            for (u, v) in result.x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-7, "{ranks} ranks: {u} vs {v}");
            }
        }
    }

    #[test]
    fn preconditioning_reduces_iterations_on_a_hard_problem() {
        let a = anisotropic_2d(24, 0.02);
        let (_, b) = manufactured_rhs(&a, 9);
        let plain = distributed_cg(&a, &b, 2, 1e-8, 50_000);
        let pre = distributed_pcg(&a, &b, 2, 64, 1e-8, 50_000);
        assert!(plain.converged() && pre.converged());
        assert!(
            pre.iterations < plain.iterations,
            "PCG ({}) should beat CG ({})",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn rank_count_is_clamped_and_history_recorded() {
        let a = poisson_2d(4);
        let (_, b) = manufactured_rhs(&a, 1);
        let result = distributed_pcg(&a, &b, 64, 8, 1e-12, 1_000);
        assert!(result.converged());
        assert_eq!(result.ranks, 16);
        assert_eq!(result.residual_history.len(), result.iterations + 1);
    }
}
