//! Figure 4: performance slowdown of the five resilience methods under
//! increasing normalised error frequencies (1, 2, 5, 10, 20, 50 expected
//! errors per ideal solve, on the iteration clock: a mean of ideal
//! iterations ÷ rate iterations between errors), per matrix, plus the CG and
//! PCG means.
//!
//! By default a reduced sweep runs (three matrices, three rates, few reps) so
//! the harness finishes in minutes; set `FEIR_FULL=1` for the paper's full
//! 270-experiment grid and `FEIR_PCG=1` to add the preconditioned sweep.

#![forbid(unsafe_code)]

use std::time::Duration;

use feir_bench::{aggregate_slowdowns, compared_policies, HarnessConfig};
use feir_core::{measure_ideal, run_with_errors, PaperMatrix, SlowdownRecord};

fn main() {
    let cfg = HarnessConfig::from_env();
    let full = std::env::var("FEIR_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let with_pcg = std::env::var("FEIR_PCG").map(|v| v == "1").unwrap_or(false);

    let matrices: Vec<PaperMatrix> = if full {
        PaperMatrix::ALL.to_vec()
    } else {
        vec![PaperMatrix::Qa8fm, PaperMatrix::Cfd2, PaperMatrix::Thermal2]
    };
    let rates: Vec<f64> = if full {
        cfg.error_rates.clone()
    } else {
        vec![1.0, 5.0, 20.0]
    };

    println!("# Figure 4: slowdown vs ideal CG under normalised error rates");
    println!(
        "# matrices={} rates={:?} reps={} scale={} (FEIR_FULL=1 for the full grid)",
        matrices.len(),
        rates,
        cfg.repetitions,
        cfg.scale
    );
    println!(
        "{:<15} {:>5} {:<8} {:>10} {:>8} {:>6}",
        "matrix", "rate", "method", "slowdown", "faults", "conv"
    );

    let mut variants = vec![("CG", false)];
    if with_pcg {
        variants.push(("PCG", true));
    }

    for (variant, preconditioned) in variants {
        let mut per_method_all: Vec<(String, Vec<f64>)> = Vec::new();
        for &matrix in &matrices {
            let (a, b) = cfg.build_system(matrix);
            let ideal_resilience = cfg.resilience(feir_core::RecoveryPolicy::Ideal, preconditioned);
            // The ideal iteration count normalises every error rate; the
            // best-of-reps ideal time is the slowdown reference τ.
            let mut ideal_time = Duration::MAX;
            let mut ideal_iterations = 0;
            for _ in 0..cfg.repetitions {
                let ideal = measure_ideal(&a, &b, &ideal_resilience, &cfg.options);
                assert!(ideal.converged());
                ideal_time = ideal_time.min(ideal.elapsed);
                ideal_iterations = ideal.iterations;
            }
            for &rate in &rates {
                for (policy, name) in compared_policies(1000) {
                    let mut slowdowns = Vec::new();
                    let mut faults = 0;
                    let mut converged = true;
                    for rep in 0..cfg.repetitions {
                        let experiment = cfg.experiment(
                            policy,
                            preconditioned,
                            rate,
                            0x5EED + rep as u64 * 7919 + rate as u64,
                        );
                        let report = run_with_errors(&a, &b, &experiment, ideal_iterations);
                        slowdowns.push(report.slowdown_percent(ideal_time).max(0.0));
                        faults += report.faults_discovered;
                        converged &= report.converged();
                    }
                    let mean = aggregate_slowdowns(&slowdowns);
                    let record = SlowdownRecord {
                        matrix: matrix.name().to_string(),
                        policy: name.to_string(),
                        normalized_error_rate: rate,
                        slowdown_percent: mean,
                        faults_discovered: faults,
                        converged,
                        iterations: 0,
                    };
                    println!(
                        "{:<15} {:>5} {:<8} {:>9.2}% {:>8} {:>6}",
                        record.matrix,
                        rate,
                        record.policy,
                        record.slowdown_percent,
                        record.faults_discovered,
                        record.converged
                    );
                    if let Some(slot) = per_method_all.iter_mut().find(|(m, _)| *m == record.policy)
                    {
                        slot.1.push(record.slowdown_percent);
                    } else {
                        per_method_all.push((record.policy.clone(), vec![record.slowdown_percent]));
                    }
                }
            }
        }
        println!("\n# {variant} mean slowdown per method (harmonic mean over all cells)");
        for (method, values) in &per_method_all {
            println!(
                "{variant:<4} mean {:<8} {:>9.2}%",
                method,
                aggregate_slowdowns(values)
            );
        }
        println!();
    }
    println!("# expected shape (paper, rate=1, CG): AFEIR 3.59% < FEIR 5.37% < Lossy 8.4% << ckpt ~55% < trivial");
    println!("# and at rate=50: FEIR (29.7%) overtakes AFEIR (50.5%) — the FEIR/AFEIR trade-off.");
}
