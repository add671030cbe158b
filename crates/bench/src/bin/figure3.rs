//! Figure 3: convergence of CG under the different resilience methods with a
//! single error injected into the iterate `x` part-way through the solve
//! (the paper uses matrix `thermal2` and injects at t = 30 s).
//!
//! Prints one `(time, residual)` series per method, suitable for plotting
//! with gnuplot / matplotlib.

#![forbid(unsafe_code)]

use feir_bench::HarnessConfig;
use feir_core::{measure_ideal, run_with_single_error, PaperMatrix, RecoveryPolicy};
use feir_solvers::history::ConvergenceHistory;

fn print_series(name: &str, history: &ConvergenceHistory) {
    println!("## series {name}");
    println!("# method iteration time_s relative_residual");
    for (iteration, residual, elapsed) in &history.samples {
        println!(
            "{name} {iteration} {:.6} {:.6e}",
            elapsed.as_secs_f64(),
            residual.max(1e-300)
        );
    }
    println!();
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let matrix = PaperMatrix::Thermal2;
    let (a, b) = cfg.build_system(matrix);
    println!("# Figure 3: convergence with a single error in x at 50% of the ideal iterations");
    println!("# matrix proxy: {} (n = {})", matrix.name(), a.rows());

    let resilience_ref = cfg.resilience(RecoveryPolicy::Ideal, false);
    let ideal = measure_ideal(&a, &b, &resilience_ref, &cfg.options);
    println!(
        "# ideal: {} iterations, {:.3}s",
        ideal.iterations,
        ideal.elapsed.as_secs_f64()
    );
    print_series("Ideal", &ideal.history);

    let methods = [
        (RecoveryPolicy::Afeir, "AFEIR"),
        (RecoveryPolicy::Feir, "FEIR"),
        (RecoveryPolicy::LossyRestart, "Lossy"),
        (RecoveryPolicy::Checkpoint { interval: 1000 }, "ckpt"),
    ];
    for (policy, name) in methods {
        let resilience = cfg.resilience(policy, false);
        // Flat page 0 = first page of x, matching the paper's injection target.
        let report =
            run_with_single_error(&a, &b, &resilience, &cfg.options, ideal.iterations, 0.5, 0);
        println!(
            "# {name}: {} iterations, {:.3}s, converged={}, faults={}, recovered={}, rollbacks={}, restarts={}",
            report.iterations,
            report.elapsed.as_secs_f64(),
            report.converged(),
            report.faults_discovered,
            report.pages_recovered,
            report.rollbacks,
            report.restarts
        );
        print_series(name, &report.history);
    }
    println!("# expected shape (paper): FEIR/AFEIR continue smoothly; Lossy drops then converges slower; ckpt rolls back.");
}
