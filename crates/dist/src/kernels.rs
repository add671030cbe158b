//! Rank-local numerical kernels shared by every distributed solver path.
//!
//! The BLAS-1 imports, the `β = ρ/ρ_old` guard, the global rhs norm and the
//! explicit residual check on the assembled solution, written once for both
//! rank loops (classic and merged).
//!
//! Both loops run the fused hot-path kernels ([`feir_sparse::fused`]) under
//! every policy: the classic loop's `q ⇐ A·d` merged with the local
//! `⟨d, q⟩` partial (via [`feir_sparse::SpmvBackend::spmv_dot`]) and
//! `g ⇐ g − α·q` merged with the next `‖g‖²` partial, and the merged loop's
//! update sweep. Where a scrub point may blank a page between the kernel
//! and the reduction, the loop recomputes the partial with the unfused
//! kernel after the repair. Either choice gives the same bits, because every
//! fused kernel is bitwise-identical to the composition it replaces —
//! asserted directly in `feir-sparse/tests/parallel_kernels.rs` and
//! end-to-end by the golden hashes of `tests/feir_afeir.rs`.

pub(crate) use feir_sparse::fused::{axpy_dot, axpy_norm2, dotn};
pub(crate) use feir_sparse::vecops::{axpy, dot, norm2_squared, xpay};

use feir_sparse::{vecops, CsrMatrix};

use crate::comm::{CommError, RankComm};

/// The guarded scalar recurrence ratio `num / den` of the CG/PCG β update:
/// zero while the denominator is still the `∞` sentinel of iteration 0 (or
/// an exact zero after a restart), the plain ratio otherwise.
pub(crate) fn beta_ratio(num: f64, den: f64) -> f64 {
    if den.is_finite() && den != 0.0 {
        num / den
    } else {
        0.0
    }
}

/// True when a reduction result ends the solve (CG breakdown: a zero or
/// non-finite curvature / inner product).
pub(crate) fn is_breakdown(value: f64) -> bool {
    value == 0.0 || !value.is_finite()
}

/// Global `‖b‖₂` via the deterministic rank-ordered allreduce, floored away
/// from zero so relative residuals stay finite.
pub(crate) fn global_rhs_norm(comm: &RankComm, b_own: &[f64]) -> Result<f64, CommError> {
    Ok(comm
        .allreduce_sum(vecops::norm2_squared(b_own))?
        .sqrt()
        .max(f64::MIN_POSITIVE))
}

/// Explicit relative residual `‖b − A·x‖₂ / ‖b‖₂`, recomputed on an
/// assembled solution — the honest convergence check every distributed
/// report ends with (honest even when a policy corrupted the solver's ε).
/// The matvec fans out on the ambient pool (bitwise equal to the serial
/// one row by row); the norms stay serial, so the result has the same bits
/// at every thread count.
pub(crate) fn explicit_relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let norm_b = vecops::norm2(b).max(f64::MIN_POSITIVE);
    let mut residual = vec![0.0; b.len()];
    a.spmv_parallel(x, &mut residual);
    for (ri, bi) in residual.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    vecops::norm2(&residual) / norm_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_ratio_guards_the_infinity_sentinel() {
        assert_eq!(beta_ratio(2.0, f64::INFINITY), 0.0);
        assert_eq!(beta_ratio(2.0, 0.0), 0.0);
        assert_eq!(beta_ratio(2.0, 4.0), 0.5);
    }

    #[test]
    fn breakdown_detects_zero_and_non_finite() {
        assert!(is_breakdown(0.0));
        assert!(is_breakdown(f64::NAN));
        assert!(is_breakdown(f64::INFINITY));
        assert!(!is_breakdown(1e-300));
    }

    #[test]
    fn explicit_residual_is_zero_at_the_solution() {
        let a = feir_sparse::generators::poisson_2d(6);
        let (x, b) = feir_sparse::generators::manufactured_rhs(&a, 3);
        assert!(explicit_relative_residual(&a, &b, &x) < 1e-12);
    }

    #[test]
    fn explicit_residual_has_the_same_bits_at_every_pool_size() {
        // 5 184 rows: above the parallel SpMV gate, so 2 threads fan out.
        let a = feir_sparse::generators::poisson_2d(72);
        let (mut x, b) = feir_sparse::generators::manufactured_rhs(&a, 5);
        for (i, xi) in x.iter_mut().enumerate() {
            *xi += (i as f64 * 0.61).sin() * 1e-3;
        }
        let at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction failed");
            pool.install(|| explicit_relative_residual(&a, &b, &x))
        };
        let one = at(1);
        assert!(one > 0.0);
        assert_eq!(one.to_bits(), at(2).to_bits());
    }
}
