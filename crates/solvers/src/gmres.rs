//! Restarted GMRES(m) (Listing 4 / 7 of the paper).
//!
//! Each outer iteration runs `m` steps of the Arnoldi process to build an
//! orthonormal basis `v_0 … v_m` and an upper-Hessenberg matrix `H`, solves the
//! small least-squares problem `min_y ‖β·e₁ − H·y‖` through Givens rotations,
//! and updates the iterate. The Hessenberg matrix is the redundancy the paper
//! uses to recover any lost Arnoldi vector (Section 3.1.3):
//!
//! ```text
//! v_l = (A·v_{l−1} − Σ_{k<l} h_{k,l−1} v_k) / h_{l,l−1}
//! ```

use std::time::Instant;

use feir_sparse::{vecops, CsrMatrix, DenseMatrix};

use crate::history::{ConvergenceHistory, SolveOptions, SolveResult, StopReason};
use crate::preconditioner::{IdentityPreconditioner, Preconditioner};

/// Options specific to GMRES.
#[derive(Debug, Clone)]
pub struct GmresOptions {
    /// Restart length `m`.
    pub restart: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        Self { restart: 30 }
    }
}

/// Solves `A x = b` with restarted GMRES(m).
pub fn gmres(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &SolveOptions,
    gmres_options: &GmresOptions,
) -> SolveResult {
    gmres_preconditioned(a, b, x0, &IdentityPreconditioner, options, gmres_options)
}

/// Right-preconditioned restarted GMRES(m) (Listing 7 of the paper).
///
/// Right preconditioning (`A M⁻¹ u = b`, `x = M⁻¹ u`) is used instead of left
/// preconditioning because the least-squares problem then minimises the *true*
/// residual norm: with a badly scaled `M` (diagonal entries spanning several
/// orders of magnitude), the left-preconditioned norm hides true-residual
/// components by up to `cond(M)`, which caps the attainable accuracy near
/// `ε·cond(M)` regardless of restart length.
pub fn gmres_preconditioned(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &dyn Preconditioner,
    options: &SolveOptions,
    gmres_options: &GmresOptions,
) -> SolveResult {
    assert_eq!(a.rows(), a.cols(), "GMRES requires a square matrix");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
    let m = gmres_options.restart.max(1).min(n.max(1));
    let start = Instant::now();

    let mut x = match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n, "initial guess length mismatch");
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    let norm_b = vecops::norm2(b);
    if norm_b == 0.0 {
        return SolveResult {
            x: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            stop_reason: StopReason::Converged,
            elapsed: start.elapsed(),
            history: ConvergenceHistory::default(),
        };
    }

    let spmv = |mat: &CsrMatrix, v: &[f64], out: &mut [f64]| {
        if options.parallel {
            mat.spmv_parallel(v, out);
        } else {
            mat.spmv(v, out);
        }
    };

    let mut history = ConvergenceHistory::default();
    let mut stop_reason = StopReason::MaxIterations;
    let mut total_inner = 0usize;
    let mut scratch = vec![0.0; n];
    let mut precond_scratch = vec![0.0; n];

    'outer: while total_inner < options.max_iterations {
        // r ⇐ b − A·x: with right preconditioning the Arnoldi process runs on
        // the true residual, so the inner estimate needs no rescaling.
        spmv(a, &x, &mut scratch);
        for (si, bi) in scratch.iter_mut().zip(b) {
            *si = bi - *si;
        }
        let true_rel = vecops::norm2(&scratch) / norm_b;
        if options.record_history {
            history.push(total_inner, true_rel, start.elapsed());
        }
        if true_rel <= options.tolerance {
            stop_reason = StopReason::Converged;
            break;
        }
        let beta = vecops::norm2(&scratch);
        if beta == 0.0 || !beta.is_finite() {
            stop_reason = StopReason::Breakdown;
            break;
        }

        // Arnoldi basis (m+1 vectors) and Hessenberg matrix (m+1 x m).
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        basis.push(scratch.iter().map(|v| v / beta).collect());
        let mut h = DenseMatrix::zeros(m + 1, m);

        // Givens rotations and the rotated rhs `g_vec = beta * e1`.
        let mut cs = vec![0.0; m];
        let mut sn = vec![0.0; m];
        let mut g_vec = vec![0.0; m + 1];
        g_vec[0] = beta;

        let mut inner_used = 0usize;
        for l in 0..m {
            if total_inner + l >= options.max_iterations {
                break;
            }
            // w ⇐ A M⁻¹ v_l
            preconditioner.apply(&basis[l], &mut precond_scratch);
            spmv(a, &precond_scratch, &mut scratch);
            let mut w = scratch.clone();
            // Modified Gram-Schmidt.
            for (k, vk) in basis.iter().enumerate().take(l + 1) {
                let hkl = vecops::dot(&w, vk);
                h.set(k, l, hkl);
                vecops::axpy(-hkl, vk, &mut w);
            }
            let wnorm = vecops::norm2(&w);
            h.set(l + 1, l, wnorm);
            inner_used = l + 1;

            // Apply the previous Givens rotations to the new column of H.
            for k in 0..l {
                let temp = cs[k] * h.get(k, l) + sn[k] * h.get(k + 1, l);
                let lower = -sn[k] * h.get(k, l) + cs[k] * h.get(k + 1, l);
                h.set(k, l, temp);
                h.set(k + 1, l, lower);
            }
            // Compute the new rotation annihilating h[l+1, l].
            let (c, s) = givens(h.get(l, l), h.get(l + 1, l));
            cs[l] = c;
            sn[l] = s;
            let hll = c * h.get(l, l) + s * h.get(l + 1, l);
            h.set(l, l, hll);
            h.set(l + 1, l, 0.0);
            // Update the rotated residual norm estimate.
            let g_new = -s * g_vec[l];
            g_vec[l + 1] = g_new;
            g_vec[l] *= c;

            let est_rel = g_vec[l + 1].abs() / norm_b;
            if options.record_history {
                history.push(total_inner + l + 1, est_rel, start.elapsed());
            }
            if est_rel <= options.tolerance {
                break;
            }
            if wnorm == 0.0 {
                // Lucky breakdown: the Krylov space is invariant, solution exact.
                break;
            }
            basis.push(w.iter().map(|v| v / wnorm).collect());
        }

        if inner_used == 0 {
            stop_reason = StopReason::Breakdown;
            break 'outer;
        }

        // Back-substitute R y = g_vec (R is the rotated H, upper triangular).
        let mut y = vec![0.0; inner_used];
        for i in (0..inner_used).rev() {
            let dot: f64 = ((i + 1)..inner_used).map(|k| h.get(i, k) * y[k]).sum();
            let sum = g_vec[i] - dot;
            let diag = h.get(i, i);
            y[i] = if diag.abs() > f64::EPSILON {
                sum / diag
            } else {
                0.0
            };
        }
        // x ⇐ x + M⁻¹ Σ y_l v_l (the update lives in the preconditioned
        // variable u; map it back through M⁻¹ once per cycle).
        vecops::zero(&mut scratch);
        for (l, yl) in y.iter().enumerate() {
            vecops::axpy(*yl, &basis[l], &mut scratch);
        }
        preconditioner.apply(&scratch, &mut precond_scratch);
        for (xi, zi) in x.iter_mut().zip(&precond_scratch) {
            *xi += zi;
        }
        total_inner += inner_used;
    }

    // Final explicit residual.
    spmv(a, &x, &mut scratch);
    for (si, bi) in scratch.iter_mut().zip(b) {
        *si = bi - *si;
    }
    let relative_residual = vecops::norm2(&scratch) / norm_b;
    if relative_residual <= options.tolerance {
        stop_reason = StopReason::Converged;
    }

    SolveResult {
        x,
        iterations: total_inner,
        relative_residual,
        stop_reason,
        elapsed: start.elapsed(),
        history,
    }
}

/// Computes the Givens rotation (c, s) such that
/// `[c s; -s c]ᵀ [a; b] = [r; 0]`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a == 0.0 {
        (0.0, 1.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preconditioner::JacobiPreconditioner;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d};
    use feir_sparse::CooMatrix;

    fn nonsymmetric_matrix(n: usize) -> CsrMatrix {
        let size = n * n;
        let mut coo = CooMatrix::new(size, size);
        let idx = |i: usize, j: usize| i * n + j;
        for i in 0..n {
            for j in 0..n {
                let row = idx(i, j);
                coo.push(row, row, 4.0).unwrap();
                if i > 0 {
                    coo.push(row, idx(i - 1, j), -1.4).unwrap();
                }
                if i + 1 < n {
                    coo.push(row, idx(i + 1, j), -0.6).unwrap();
                }
                if j > 0 {
                    coo.push(row, idx(i, j - 1), -1.2).unwrap();
                }
                if j + 1 < n {
                    coo.push(row, idx(i, j + 1), -0.8).unwrap();
                }
            }
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn givens_rotation_annihilates_second_entry() {
        let (c, s) = givens(3.0, 4.0);
        let r = c * 3.0 + s * 4.0;
        let zero = -s * 3.0 + c * 4.0;
        assert!((r - 5.0).abs() < 1e-12);
        assert!(zero.abs() < 1e-12);
        assert_eq!(givens(1.0, 0.0), (1.0, 0.0));
        assert_eq!(givens(0.0, 1.0), (0.0, 1.0));
    }

    #[test]
    fn solves_spd_system() {
        let a = poisson_2d(10);
        let (x_true, b) = manufactured_rhs(&a, 4);
        let result = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tolerance(1e-9),
            &GmresOptions { restart: 40 },
        );
        assert!(result.converged(), "{:?}", result.stop_reason);
        let err: f64 = result
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-5, "error {err}");
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let a = nonsymmetric_matrix(10);
        let (x_true, b) = manufactured_rhs(&a, 9);
        let result = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tolerance(1e-9),
            &GmresOptions { restart: 50 },
        );
        assert!(result.converged());
        let err: f64 = result
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-5);
    }

    #[test]
    fn short_restart_still_converges() {
        let a = poisson_2d(8);
        let (_, b) = manufactured_rhs(&a, 2);
        let result = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_tolerance(1e-8),
            &GmresOptions { restart: 5 },
        );
        assert!(result.converged());
        assert!(result.iterations > 5, "restarting must have happened");
    }

    #[test]
    fn preconditioned_gmres_converges_and_tracks_plain_gmres() {
        // With a diagonally-scaled variant of the convection-diffusion matrix
        // the Jacobi preconditioner genuinely helps; on the original matrix
        // (constant diagonal) it must at least not hurt by more than a couple
        // of iterations, since it reduces to a scaled identity there.
        let a = nonsymmetric_matrix(14);
        let (_, b) = manufactured_rhs(&a, 3);
        let opts = SolveOptions::default().with_tolerance(1e-9);
        let gopts = GmresOptions { restart: 20 };
        let plain = gmres(&a, &b, None, &opts, &gopts);
        let jacobi = JacobiPreconditioner::new(&a);
        let pre = gmres_preconditioned(&a, &b, None, &jacobi, &opts, &gopts);
        assert!(plain.converged() && pre.converged());
        assert!(pre.iterations <= plain.iterations + 2);

        // Badly scaled matrix: multiply row/col i by widely varying weights so
        // the diagonal varies over orders of magnitude.
        let mut coo = CooMatrix::new(a.rows(), a.cols());
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            let wi = 10f64.powi((i % 5) as i32 - 2);
            for (&c, v) in cols.iter().zip(vals) {
                let wj = 10f64.powi((c % 5) as i32 - 2);
                coo.push(i, c as usize, v * wi * wj).unwrap();
            }
        }
        let scaled = coo.to_csr().unwrap();
        let (_, b2) = manufactured_rhs(&scaled, 5);
        let plain2 = gmres(&scaled, &b2, None, &opts, &gopts);
        let jacobi2 = JacobiPreconditioner::new(&scaled);
        let pre2 = gmres_preconditioned(&scaled, &b2, None, &jacobi2, &opts, &gopts);
        assert!(pre2.converged());
        assert!(
            pre2.iterations < plain2.iterations || !plain2.converged(),
            "Jacobi should help on a badly scaled system ({} vs {})",
            pre2.iterations,
            plain2.iterations
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson_2d(4);
        let b = vec![0.0; a.rows()];
        let result = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default(),
            &GmresOptions::default(),
        );
        assert!(result.converged());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 6);
        let result = gmres(
            &a,
            &b,
            None,
            &SolveOptions::default().with_max_iterations(7),
            &GmresOptions { restart: 4 },
        );
        assert!(result.iterations <= 8);
        assert!(!result.converged());
    }
}
