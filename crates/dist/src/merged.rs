//! Merged-reduction distributed CG and PCG: **one allreduce per iteration**,
//! started split-phase and kept in flight across the halo exchange and the
//! matvec.
//!
//! The classic distributed loops synchronize two (CG) or three (PCG) times
//! per iteration, and every reduction sits *between* dependent kernels, so
//! its latency lands on the critical path. The merged variants use the
//! pipelined Chronopoulos–Gear recurrences (the Ghysels–Vanroose
//! rearrangement): the matvec moves onto an auxiliary vector, every scalar
//! the iteration needs is computed as a *local partial* by the previous
//! iteration's fused update sweep, and the batched vector allreduce
//! ([`RankComm::start_allreduce_vec`](crate::comm::RankComm::start_allreduce_vec))
//! is posted **before** the halo exchange and the local matvec — the
//! collective's latency hides behind the heaviest work of the iteration
//! instead of serializing with it.
//!
//! Per iteration, per rank:
//!
//! ```text
//! post     allreduce([γ, δ(, ε)])        ← partials from the last sweep
//! overlap  halo(w) ; n ⇐ A·w            ← (PCG: m ⇐ M⁻¹w first, halo(m), n ⇐ A·m)
//! finish   allreduce → global γ, δ(, ε)
//! scalars  β = γ/γ_old ; α = γ/(δ − β·γ/α_old)
//! sweep    z ⇐ n + β·z ; s ⇐ w + β·s ; p ⇐ r + β·p ; x ⇐ x + α·p ;
//!          r ⇐ r − α·s  (fused: next ‖r‖²) ; w ⇐ w − α·z  (fused: next ⟨w,r⟩)
//! ```
//!
//! The sweep maintains `s = A·p` and `z = A·s` by recurrence (for PCG also
//! `u = M⁻¹·r` and `q = M⁻¹·s`), so the iterates span the same Krylov space
//! as the classic loops — iteration counts agree within a few percent, but
//! the floating-point trajectory is **not** bitwise-identical to classic
//! CG/PCG (different recurrences). What *is* promised bitwise: the result is
//! deterministic run-to-run at every rank count. The per-rank loop is the
//! one the protected merged solvers run, at
//! [`RecoveryPolicy::Ideal`](feir_recovery::RecoveryPolicy::Ideal), so the
//! fault-free runs of [`crate::resilient::distributed_resilient_cg_merged`]
//! and
//! [`distributed_resilient_pcg_merged`](crate::resilient::distributed_resilient_pcg_merged)
//! are these solves bit for bit.

use feir_sparse::CsrMatrix;

use crate::cg::DistSolveResult;
use crate::kernels;
use crate::resilient::{plain_solve, DistSolver};

/// The guarded Chronopoulos–Gear step length `α = γ / (δ − β·γ/α_old)`;
/// `None` signals breakdown (zero or non-finite denominator).
pub(crate) fn merged_alpha(gamma: f64, delta: f64, beta: f64, alpha_old: f64) -> Option<f64> {
    let denom = if beta == 0.0 {
        delta
    } else {
        delta - beta * gamma / alpha_old
    };
    if kernels::is_breakdown(denom) {
        None
    } else {
        Some(gamma / denom)
    }
}

/// Solves `A x = b` with merged-reduction distributed CG: one batched
/// `[γ, δ]` allreduce per iteration, overlapped with the halo exchange and
/// the matvec. Interface and result match
/// [`distributed_cg`](crate::cg::distributed_cg).
///
/// # Panics
/// Panics if the matrix is not square or `b` has the wrong length.
pub fn distributed_cg_merged(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    tolerance: f64,
    max_iterations: usize,
) -> DistSolveResult {
    plain_solve(
        DistSolver::CgMerged,
        a,
        b,
        ranks,
        1,
        tolerance,
        max_iterations,
    )
}

/// Solves `A x = b` with merged-reduction block-Jacobi distributed PCG: one
/// batched `[γ, δ, ε]` allreduce per iteration, overlapped with the
/// preconditioner application, the halo exchange and the matvec. Interface
/// and result match [`distributed_pcg`](crate::pcg::distributed_pcg).
///
/// # Panics
/// Panics if the matrix is not square or `b` has the wrong length.
pub fn distributed_pcg_merged(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    page_doubles: usize,
    tolerance: f64,
    max_iterations: usize,
) -> DistSolveResult {
    plain_solve(
        DistSolver::PcgMerged,
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
    use crate::pcg::distributed_pcg;
    use feir_sparse::generators::{anisotropic_2d, manufactured_rhs, poisson_2d};

    fn assert_iterations_close(merged: usize, classic: usize) {
        let tolerance = (classic as f64 * 0.10).ceil() as i64 + 1;
        let diff = (merged as i64 - classic as i64).abs();
        assert!(
            diff <= tolerance,
            "merged {merged} vs classic {classic} iterations (allowed ±{tolerance})"
        );
    }

    #[test]
    fn merged_cg_converges_and_matches_classic_iterations() {
        let a = poisson_2d(12);
        let (x_true, b) = manufactured_rhs(&a, 5);
        let classic = distributed_cg(&a, &b, 2, 1e-10, 10_000);
        for ranks in [1usize, 2, 3] {
            let merged = distributed_cg_merged(&a, &b, ranks, 1e-10, 10_000);
            assert!(merged.converged(), "{ranks} ranks did not converge");
            assert_iterations_close(merged.iterations, classic.iterations);
            for (u, v) in merged.x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-7, "{ranks} ranks: {u} vs {v}");
            }
        }
    }

    #[test]
    fn merged_cg_issues_exactly_one_allreduce_per_iteration() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 3);
        for ranks in [1usize, 2, 4] {
            let merged = distributed_cg_merged(&a, &b, ranks, 1e-10, 10_000);
            assert!(merged.converged());
            // One collective per convergence check (= history entry) plus the
            // setup ‖b‖ reduction — nothing else.
            assert_eq!(
                merged.allreduces,
                merged.residual_history.len() as u64 + 1,
                "{ranks} ranks"
            );
            let classic = distributed_cg(&a, &b, ranks, 1e-10, 10_000);
            // Classic CG pays two allreduces per iteration (⟨d,q⟩ and ε)
            // plus the setup ‖b‖ and initial ε.
            assert_eq!(
                classic.allreduces,
                2 * classic.iterations as u64 + 2,
                "{ranks} ranks"
            );
        }
    }

    #[test]
    fn merged_pcg_converges_and_issues_one_allreduce_per_iteration() {
        let a = poisson_2d(12);
        let (x_true, b) = manufactured_rhs(&a, 7);
        let classic = distributed_pcg(&a, &b, 2, 16, 1e-10, 10_000);
        for ranks in [1usize, 2, 3] {
            let merged = distributed_pcg_merged(&a, &b, ranks, 16, 1e-10, 10_000);
            assert!(merged.converged(), "{ranks} ranks did not converge");
            assert_iterations_close(merged.iterations, classic.iterations);
            assert_eq!(
                merged.allreduces,
                merged.residual_history.len() as u64 + 1,
                "{ranks} ranks"
            );
            for (u, v) in merged.x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-7, "{ranks} ranks: {u} vs {v}");
            }
        }
    }

    #[test]
    fn merged_pcg_preconditioning_pays_off() {
        let a = anisotropic_2d(24, 0.02);
        let (_, b) = manufactured_rhs(&a, 9);
        let plain = distributed_cg_merged(&a, &b, 2, 1e-8, 50_000);
        let pre = distributed_pcg_merged(&a, &b, 2, 64, 1e-8, 50_000);
        assert!(plain.converged() && pre.converged());
        assert!(
            pre.iterations < plain.iterations,
            "merged PCG ({}) should beat merged CG ({})",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn merged_history_is_rank_count_invariant_to_roundoff() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 3);
        let one = distributed_cg_merged(&a, &b, 1, 1e-10, 10_000);
        assert_eq!(one.residual_history.len(), one.iterations + 1);
        for ranks in [2usize, 5] {
            let multi = distributed_cg_merged(&a, &b, ranks, 1e-10, 10_000);
            assert_eq!(multi.residual_history.len(), one.residual_history.len());
            for (u, v) in multi.residual_history.iter().zip(&one.residual_history) {
                assert!((u - v).abs() <= 1e-9 * (1.0 + v.abs()), "{u} vs {v}");
            }
        }
    }

    #[test]
    fn merged_cg_is_deterministic_run_to_run() {
        let a = poisson_2d(8);
        let (_, b) = manufactured_rhs(&a, 2);
        let first = distributed_cg_merged(&a, &b, 3, 1e-10, 10_000);
        let second = distributed_cg_merged(&a, &b, 3, 1e-10, 10_000);
        assert_eq!(first.iterations, second.iterations);
        for (u, v) in first.x.iter().zip(&second.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in first.residual_history.iter().zip(&second.residual_history) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn merged_iteration_cap_is_honoured() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 2);
        let merged = distributed_cg_merged(&a, &b, 4, 1e-14, 3);
        assert_eq!(merged.iterations, 3);
        assert!(!merged.converged());
    }
}
