//! Bi-Conjugate Gradient Stabilized (Listing 3 / 6 of the paper).

use std::time::Instant;

use feir_sparse::{vecops, CsrMatrix};

use crate::history::{ConvergenceHistory, SolveOptions, SolveResult, StopReason};
use crate::preconditioner::{IdentityPreconditioner, Preconditioner};

/// Solves `A x = b` with BiCGStab (general non-symmetric `A`).
///
/// Follows Listing 3 of the paper (`r` is the constant shadow residual):
///
/// ```text
/// g, r, d ⇐ b − A·x ; ρ ⇐ ⟨g,r⟩
/// loop: q ⇐ A·d ; α ⇐ ρ/⟨q,r⟩ ; s ⇐ g − α·q ; t ⇐ A·s ;
///       ω ⇐ ⟨t,s⟩/⟨t,t⟩ ; x ⇐ x + α·d + ω·s ; g ⇐ s − ω·t ;
///       ρ_old ⇐ ρ ; ρ ⇐ ⟨g,r⟩ ; β ⇐ (ρ/ρ_old)·(α/ω) ; d ⇐ g + β(d − ω·q)
/// ```
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &SolveOptions,
) -> SolveResult {
    bicgstab_preconditioned(a, b, x0, &IdentityPreconditioner, options)
}

/// Preconditioned BiCGStab (Listing 6 of the paper), with a generic
/// "solve `M u = v`" preconditioner.
pub fn bicgstab_preconditioned(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &dyn Preconditioner,
    options: &SolveOptions,
) -> SolveResult {
    assert_eq!(a.rows(), a.cols(), "BiCGStab requires a square matrix");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
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

    let spmv = |m: &CsrMatrix, v: &[f64], out: &mut [f64]| {
        if options.parallel {
            m.spmv_parallel(v, out);
        } else {
            m.spmv(v, out);
        }
    };

    // g, r, d ⇐ b − A·x
    let mut g = vec![0.0; n];
    spmv(a, &x, &mut g);
    for (gi, bi) in g.iter_mut().zip(b) {
        *gi = bi - *gi;
    }
    let r = g.clone(); // constant shadow residual
    let mut d = g.clone();
    let mut rho = vecops::dot(&g, &r);

    let mut p = vec![0.0; n]; // preconditioned d
    let mut q = vec![0.0; n];
    let mut s_hat = vec![0.0; n]; // preconditioned s
    let mut s = vec![0.0; n];
    let mut t = vec![0.0; n];

    let mut history = ConvergenceHistory::default();
    let mut stop_reason = StopReason::MaxIterations;
    let mut iterations = 0usize;

    for iter in 0..options.max_iterations {
        let rel = vecops::norm2(&g) / norm_b;
        if options.record_history {
            history.push(iter, rel, start.elapsed());
        }
        if rel <= options.tolerance {
            stop_reason = StopReason::Converged;
            iterations = iter;
            break;
        }
        // solve M p = d ; q ⇐ A·p
        preconditioner.apply(&d, &mut p);
        spmv(a, &p, &mut q);
        let qr = vecops::dot(&q, &r);
        if qr == 0.0 || !qr.is_finite() {
            stop_reason = StopReason::Breakdown;
            iterations = iter;
            break;
        }
        let alpha = rho / qr;
        // s ⇐ g − α·q
        vecops::linear_combination(1.0, &g, -alpha, &q, &mut s);
        // Early exit on tiny s keeps ω well defined.
        if vecops::norm2(&s) / norm_b <= options.tolerance {
            vecops::axpy(alpha, &p, &mut x);
            stop_reason = StopReason::Converged;
            iterations = iter + 1;
            break;
        }
        // solve M ŝ = s ; t ⇐ A·ŝ
        preconditioner.apply(&s, &mut s_hat);
        spmv(a, &s_hat, &mut t);
        let tt = vecops::dot(&t, &t);
        if tt == 0.0 || !tt.is_finite() {
            stop_reason = StopReason::Breakdown;
            iterations = iter;
            break;
        }
        let omega = vecops::dot(&t, &s) / tt;
        if omega == 0.0 || !omega.is_finite() {
            stop_reason = StopReason::Breakdown;
            iterations = iter;
            break;
        }
        // x ⇐ x + α·p + ω·ŝ
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(omega, &s_hat, &mut x);
        // g ⇐ s − ω·t
        vecops::linear_combination(1.0, &s, -omega, &t, &mut g);
        let rho_old = rho;
        rho = vecops::dot(&g, &r);
        if rho_old == 0.0 || !rho.is_finite() {
            stop_reason = StopReason::Breakdown;
            iterations = iter + 1;
            break;
        }
        let beta = (rho / rho_old) * (alpha / omega);
        // d ⇐ g + β(d − ω·q)
        for ((di, gi), qi) in d.iter_mut().zip(&g).zip(&q) {
            *di = gi + beta * (*di - omega * qi);
        }
        iterations = iter + 1;
    }

    let mut res = vec![0.0; n];
    spmv(a, &x, &mut res);
    for (ri, bi) in res.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let relative_residual = vecops::norm2(&res) / norm_b;
    if relative_residual <= options.tolerance {
        stop_reason = StopReason::Converged;
    }

    SolveResult {
        x,
        iterations,
        relative_residual,
        stop_reason,
        elapsed: start.elapsed(),
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preconditioner::JacobiPreconditioner;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d, random_spd};
    use feir_sparse::CooMatrix;

    /// A non-symmetric convection–diffusion style matrix.
    fn nonsymmetric_matrix(n: usize) -> CsrMatrix {
        let size = n * n;
        let mut coo = CooMatrix::new(size, size);
        let idx = |i: usize, j: usize| i * n + j;
        for i in 0..n {
            for j in 0..n {
                let row = idx(i, j);
                coo.push(row, row, 4.0).unwrap();
                if i > 0 {
                    coo.push(row, idx(i - 1, j), -1.0 - 0.3).unwrap();
                }
                if i + 1 < n {
                    coo.push(row, idx(i + 1, j), -1.0 + 0.3).unwrap();
                }
                if j > 0 {
                    coo.push(row, idx(i, j - 1), -1.0 - 0.2).unwrap();
                }
                if j + 1 < n {
                    coo.push(row, idx(i, j + 1), -1.0 + 0.2).unwrap();
                }
            }
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn solves_spd_system() {
        let a = poisson_2d(10);
        let (x_true, b) = manufactured_rhs(&a, 3);
        let result = bicgstab(&a, &b, None, &SolveOptions::default().with_tolerance(1e-9));
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
        let a = nonsymmetric_matrix(12);
        assert!(!a.is_symmetric(1e-12));
        let (x_true, b) = manufactured_rhs(&a, 5);
        let result = bicgstab(&a, &b, None, &SolveOptions::default().with_tolerance(1e-9));
        assert!(result.converged());
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
    fn preconditioning_reduces_iterations() {
        let a = random_spd(300, 5, 17);
        let (_, b) = manufactured_rhs(&a, 2);
        let opts = SolveOptions::default().with_tolerance(1e-9);
        let plain = bicgstab(&a, &b, None, &opts);
        let jacobi = JacobiPreconditioner::new(&a);
        let pre = bicgstab_preconditioned(&a, &b, None, &jacobi, &opts);
        assert!(plain.converged() && pre.converged());
        assert!(pre.iterations <= plain.iterations);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson_2d(4);
        let b = vec![0.0; a.rows()];
        let result = bicgstab(&a, &b, None, &SolveOptions::default());
        assert!(result.converged());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = nonsymmetric_matrix(16);
        let (_, b) = manufactured_rhs(&a, 8);
        let result = bicgstab(
            &a,
            &b,
            None,
            &SolveOptions::default().with_max_iterations(2),
        );
        assert!(result.iterations <= 2);
    }
}
