//! The other two Krylov methods the paper protects: BiCGStab and GMRES, with
//! the redundancy relations they conserve (Section 3.1) checked on the live
//! solver state.
//!
//! ```text
//! cargo run --release --example gmres_bicgstab
//! ```

use feir::prelude::*;
use feir::solvers::gmres::{gmres_preconditioned, GmresOptions};
use feir::solvers::relations;
use feir::solvers::JacobiPreconditioner;

fn main() {
    // A non-symmetric convection-diffusion style system.
    let n = 24;
    let mut coo = CooMatrix::new(n * n, n * n);
    let idx = |i: usize, j: usize| i * n + j;
    for i in 0..n {
        for j in 0..n {
            let row = idx(i, j);
            coo.push(row, row, 4.0).unwrap();
            if i > 0 {
                coo.push(row, idx(i - 1, j), -1.3).unwrap();
            }
            if i + 1 < n {
                coo.push(row, idx(i + 1, j), -0.7).unwrap();
            }
            if j > 0 {
                coo.push(row, idx(i, j - 1), -1.1).unwrap();
            }
            if j + 1 < n {
                coo.push(row, idx(i, j + 1), -0.9).unwrap();
            }
        }
    }
    let a = coo.to_csr().unwrap();
    let (x_true, b) = feir::sparse::generators::manufactured_rhs(&a, 99);
    let options = SolveOptions::default().with_tolerance(1e-9);

    // BiCGStab.
    let result = bicgstab(&a, &b, None, &options);
    let err: f64 = result
        .x
        .iter()
        .zip(&x_true)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    println!(
        "BiCGStab: {} iterations, residual {:.2e}, ‖x − x*‖ = {:.2e}",
        result.iterations, result.relative_residual, err
    );

    // GMRES(30) with a Jacobi preconditioner.
    let jacobi = JacobiPreconditioner::new(&a);
    let result = gmres_preconditioned(
        &a,
        &b,
        None,
        &jacobi,
        &options,
        &GmresOptions { restart: 30 },
    );
    println!(
        "GMRES(30)+Jacobi: {} iterations, residual {:.2e}",
        result.iterations, result.relative_residual
    );

    // The redundancy relations the recovery would use, verified on live data.
    let mut g = vec![0.0; a.rows()];
    a.spmv(&result.x, &mut g);
    for (gi, bi) in g.iter_mut().zip(&b) {
        *gi = bi - *gi;
    }
    println!(
        "residual relation ‖(b − A·x) − g‖/‖b‖ violation: {:.2e}",
        relations::residual_relation_violation(&a, &b, &result.x, &g)
    );
    println!("\nRelation catalogue used to protect each solver:");
    for entry in relations::bicgstab_relations() {
        println!("  BiCGStab  {:<18} {}", entry.protects, entry.statement);
    }
    for entry in relations::gmres_relations() {
        println!("  GMRES     {:<18} {}", entry.protects, entry.statement);
    }
}
