//! Smoke test mirroring `examples/quickstart.rs` at test scale: build a
//! Poisson system, script three early faults, solve with AFEIR and require
//! convergence to the true solution. CI additionally runs the real example
//! binary with its seeded exponential stream (`cargo run --example
//! quickstart`).

use feir::prelude::*;

#[test]
fn quickstart_flow_runs_to_convergence() {
    let a = feir::sparse::generators::poisson_2d(32);
    let (x_true, b) = feir::sparse::generators::manufactured_rhs(&a, 2024);

    let config = ResilienceConfig {
        policy: RecoveryPolicy::Afeir,
        page_doubles: 64,
        ..ResilienceConfig::default()
    };
    let options = SolveOptions::default().with_tolerance(1e-10);
    // Three faults at the tops of early iterations, by flat page index over
    // the protected vectors (x, g, d0, d1, q in registration order).
    let solver = ResilientCg::new(&a, &b, config).with_faults(FaultSchedule::Listed(vec![
        (2, 0),
        (4, 20),
        (6, 57),
    ]));
    let registry = solver.registry();
    let report = solver.solve(&options);

    assert!(report.converged(), "quickstart flow failed to converge");
    assert!(report.relative_residual <= 1e-9);
    // Every discovery stems from an injection that landed. (No relation is
    // asserted between discovered and recovered counts: a fault in the last
    // iteration may be blank-accepted, and skip propagation can recover
    // pages that never faulted in the registry.)
    assert!(registry.injected_count() >= report.faults_discovered);
    let error: f64 = report
        .x
        .iter()
        .zip(&x_true)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    assert!(error < 1e-6, "solution error {error}");
}
