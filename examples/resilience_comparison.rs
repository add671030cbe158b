//! Compares all five resilience methods of the paper on one matrix under the
//! same error rate — a miniature of the Figure-4 experiment.
//!
//! ```text
//! cargo run --release --example resilience_comparison [normalized_rate]
//! ```

use feir::prelude::*;

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);

    let matrix = PaperMatrix::Cfd2;
    let a = matrix.build(0.35);
    let (_, b) = feir::sparse::generators::manufactured_rhs(&a, 11);
    let options = SolveOptions::default().with_tolerance(1e-8);
    println!(
        "matrix proxy {} ({} unknowns), normalized error rate {rate}",
        matrix.name(),
        a.rows()
    );

    // Ideal reference: the error rate is expressed as expected errors per
    // ideal solve, counted in its iterations (the x-axis of Figure 4 on the
    // iteration clock); its time τ is the slowdown reference.
    let base = ResilienceConfig {
        page_doubles: 256,
        ..ResilienceConfig::default()
    };
    let ideal = measure_ideal(&a, &b, &base, &options);
    println!(
        "ideal CG: {} iterations in {:.3} s\n",
        ideal.iterations,
        ideal.elapsed.as_secs_f64()
    );
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>9}",
        "method", "slowdown", "iters", "faults", "recovered", "converged"
    );

    for policy in [
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Feir,
        RecoveryPolicy::LossyRestart,
        RecoveryPolicy::Checkpoint { interval: 1000 },
        RecoveryPolicy::Trivial,
    ] {
        let experiment = ExperimentConfig {
            resilience: ResilienceConfig {
                policy,
                ..base.clone()
            },
            normalized_error_rate: rate,
            seed: 0xFE1A,
            options: options.clone(),
        };
        let report = run_with_errors(&a, &b, &experiment, ideal.iterations);
        println!(
            "{:<10} {:>9.2}% {:>8} {:>8} {:>10} {:>9}",
            policy.name(),
            report.slowdown_percent(ideal.elapsed).max(0.0),
            report.iterations,
            report.faults_discovered,
            report.pages_recovered,
            report.converged()
        );
    }
    println!(
        "\nExpected ordering at low rates (paper): AFEIR ≤ FEIR < Lossy << checkpoint, trivial."
    );
}
