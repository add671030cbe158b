//! Block-row distributed **preconditioned** Conjugate Gradient over
//! simulated ranks (Listing 5 of the paper, in the Section 3.4 distributed
//! configuration).
//!
//! The preconditioner is block-Jacobi with **rank-local page blocks**
//! ([`LocalBlockJacobi`]): every diagonal block lives inside one rank's row
//! range, so applying `M⁻¹` needs no communication — the iteration adds one
//! coupled block solve per page and one extra allreduce (`ρ = ⟨z, g⟩`) to
//! the plain [`distributed_cg`](crate::cg::distributed_cg) structure.
//!
//! This loop is the *plain* reference implementation: the engine-based
//! [`distributed_resilient_pcg`](crate::resilient::distributed_resilient_pcg)
//! must be bitwise-identical to it in its fault-free runs (asserted in
//! `tests/resilience.rs`), which keeps the two code paths honest about
//! executing the same arithmetic in the same order.

use feir_sparse::{CsrMatrix, LocalBlockJacobi, SpmvBackend};

use crate::cg::DistSolveResult;
use crate::comm::{CommError, RankComm};
use crate::kernels;
use crate::partition::RankPartition;
use crate::rank_loop::RankOutcome;
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

/// The per-rank PCG loop under the rank-local block-Jacobi factor `jacobi`,
/// backend-agnostic (same body on in-process channels and on the socket
/// mesh of the process transport).
pub(crate) fn rank_pcg(
    a: &CsrMatrix,
    b: &[f64],
    comm: RankComm,
    partition: &RankPartition,
    jacobi: &LocalBlockJacobi,
    tolerance: f64,
    max_iterations: usize,
) -> Result<RankOutcome, CommError> {
    let rank = comm.rank();
    let own = partition.range(rank);
    let local_n = own.len();
    // Rank-local storage backend over the owned row block (see rank_cg).
    let op = SpmvBackend::select_rows(a, own.clone());

    let mut x = vec![0.0; local_n];
    let mut g: Vec<f64> = b[own.clone()].to_vec(); // g = b − A·0
    let mut z = vec![0.0; local_n];
    let mut d = vec![0.0; local_n];
    let mut q = vec![0.0; local_n];
    // Private full-length buffer for the halo exchange of d.
    let mut d_full = vec![0.0; a.cols()];

    let norm_b = kernels::global_rhs_norm(&comm, &b[own.clone()])?;
    let mut eps = comm.allreduce_sum(kernels::norm2_squared(&g))?;
    let mut rho_old = f64::INFINITY;
    let mut iterations = 0;
    let mut history = Vec::new();

    for t in 0..max_iterations {
        let rel = eps.max(0.0).sqrt() / norm_b;
        history.push(rel);
        if rel <= tolerance {
            break;
        }
        iterations = t + 1;
        let _it = feir_trace::span(feir_trace::Phase::Iteration);

        // z ⇐ M⁻¹ g: one coupled block solve per page, no communication.
        jacobi.apply(&g, &mut z);
        let rho = comm.allreduce_sum(kernels::dot(&z, &g))?;
        if kernels::is_breakdown(rho) {
            break;
        }
        let beta = kernels::beta_ratio(rho, rho_old);
        // d ⇐ z + β·d, then ship the halo of d.
        kernels::xpay(&z, beta, &mut d);
        d_full[own.clone()].copy_from_slice(&d);
        comm.exchange_halo(&mut d_full)?;

        // q ⇐ A·d over the owned rows, fused with the local ⟨d, q⟩ partial.
        let dq_local = {
            let _probe = feir_trace::span(feir_trace::Phase::Spmv);
            op.spmv_dot(a, &d_full, &mut q)
        };
        let dq = comm.allreduce_sum(dq_local)?;
        if kernels::is_breakdown(dq) {
            break;
        }
        let alpha = rho / dq;
        kernels::axpy(alpha, &d, &mut x);
        // g ⇐ g − α·q fused with the local ‖g‖² partial of the next ε.
        rho_old = rho;
        eps = comm.allreduce_sum(kernels::axpy_norm2(-alpha, &q, &mut g))?;
    }
    Ok(RankOutcome::plain(rank, x, iterations, history, &comm))
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
