//! Quick start: protect a CG solve against page-level DUE with AFEIR.
//!
//! Builds a 2-D Poisson system, exposes the solve to a seeded fault stream
//! that poisons random memory pages of the solver's dynamic vectors, and
//! solves with the asynchronous forward exact interpolation recovery. Run
//! with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use feir::prelude::*;

fn main() {
    // 1. Build a symmetric positive definite system (a 96×96 Poisson grid).
    let a = feir::sparse::generators::poisson_2d(96);
    let (x_true, b) = feir::sparse::generators::manufactured_rhs(&a, 2024);
    println!("system: {} unknowns, {} non-zeros", a.rows(), a.nnz());

    // 2. Configure the resilient solver: AFEIR recovery, page-sized blocks.
    let config = ResilienceConfig {
        policy: RecoveryPolicy::Afeir,
        ..ResilienceConfig::default()
    };
    let options = SolveOptions::default().with_tolerance(1e-10);
    // 3. Expose it to a fault stream: one expected error every 40
    //    iterations, targeting the protected vectors uniformly (the paper's
    //    error model on the iteration clock, so every run is the same run).
    let stream = FaultStream {
        seed: 7,
        mean_iterations: 40.0,
    };
    let solver = ResilientCg::new(&a, &b, config).with_faults(FaultSchedule::Stream(stream));
    let registry = solver.registry();

    // 4. Solve. Lost pages are reconstructed exactly from the redundancy
    //    relations of Table 1, overlapped with the solver's reductions.
    let report = solver.solve(&options);

    // 5. Inspect the outcome.
    println!(
        "converged: {} in {} iterations ({:.3} s), final residual {:.2e}",
        report.converged(),
        report.iterations,
        report.elapsed.as_secs_f64(),
        report.relative_residual
    );
    println!(
        "errors injected: {}, discovered by the solver: {}, pages recovered exactly: {}",
        registry.injected_count(),
        report.faults_discovered,
        report.pages_recovered
    );
    let error: f64 = report
        .x
        .iter()
        .zip(&x_true)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    println!("‖x − x*‖₂ = {error:.3e}");
    assert!(report.converged());
}
