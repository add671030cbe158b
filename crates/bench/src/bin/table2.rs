//! Table 2: overhead of each resilience method in the absence of faults.
//!
//! Paper values (harmonic mean over the nine matrices, 8 cores):
//! Lossy 0.00%, Trivial 0.00%, AFEIR 0.23%, FEIR 2.73%, ckpt@1000 17.62%,
//! ckpt@200 46.20%.

#![forbid(unsafe_code)]

use feir_bench::{aggregate_slowdowns, slowdown_percent, HarnessConfig};
use feir_core::{measure_ideal, run_overhead, PaperMatrix, RecoveryPolicy};

fn main() {
    let cfg = HarnessConfig::from_env();
    let methods = [
        (RecoveryPolicy::LossyRestart, "Lossy"),
        (RecoveryPolicy::Trivial, "Trivial"),
        (RecoveryPolicy::Afeir, "AFEIR"),
        (RecoveryPolicy::Feir, "FEIR"),
        (RecoveryPolicy::Checkpoint { interval: 1000 }, "ckpt 1K"),
        (RecoveryPolicy::Checkpoint { interval: 200 }, "ckpt 200"),
    ];
    let matrices = PaperMatrix::ALL;

    println!("# Table 2: resilience methods' overheads, no errors");
    println!(
        "# scale={} reps={} tol={:e}",
        cfg.scale, cfg.repetitions, cfg.options.tolerance
    );
    println!(
        "{:<12} {:>10}  (harmonic mean over {} matrices)",
        "method",
        "overhead",
        matrices.len()
    );

    let mut rows = Vec::new();
    for (policy, name) in methods {
        let mut slowdowns = Vec::new();
        for matrix in matrices {
            let (a, b) = cfg.build_system(matrix);
            let resilience = cfg.resilience(policy, false);
            // Per-matrix best-of-reps to damp scheduling noise, as overheads
            // in the paper are means of many repetitions.
            let mut ideal_best = f64::INFINITY;
            let mut method_best = f64::INFINITY;
            for _ in 0..cfg.repetitions {
                let ideal = measure_ideal(&a, &b, &resilience, &cfg.options);
                let run = run_overhead(&a, &b, &resilience, &cfg.options);
                assert!(
                    ideal.converged() && run.converged(),
                    "{name} on {} failed",
                    matrix.name()
                );
                ideal_best = ideal_best.min(ideal.elapsed.as_secs_f64());
                method_best = method_best.min(run.elapsed.as_secs_f64());
            }
            slowdowns.push(
                slowdown_percent(
                    std::time::Duration::from_secs_f64(method_best),
                    std::time::Duration::from_secs_f64(ideal_best),
                )
                .max(0.0),
            );
        }
        let mean = aggregate_slowdowns(&slowdowns);
        println!("{:<12} {:>9.2}%", name, mean);
        rows.push((name, mean));
    }

    println!("\n# paper reference: Lossy 0.00 / Trivial 0.00 / AFEIR 0.23 / FEIR 2.73 / ckpt1K 17.62 / ckpt200 46.20 (%)");
}
