//! Table 3: increase of time spent per state (imbalance / runtime / useful)
//! for the FEIR and AFEIR methods relative to the ideal CG, no errors.
//!
//! Paper values: AFEIR 4.30 / 8.11 / 1.90 (%), FEIR 25.06 / 7.84 / 2.78 (%).

#![forbid(unsafe_code)]

use feir_bench::HarnessConfig;
use feir_core::{measure_ideal, run_overhead, PaperMatrix, RecoveryPolicy, RunReport};
use feir_trace::metrics::StateBreakdown;

fn breakdown(report: &RunReport) -> StateBreakdown {
    StateBreakdown {
        useful_fraction: report.time.useful_fraction(),
        runtime_fraction: report.time.runtime_fraction(),
        idle_fraction: report.time.idle_fraction(),
    }
}

fn main() {
    let cfg = HarnessConfig::from_env();
    println!("# Table 3: increase of time spent per state for FEIR methods (no errors)");
    println!(
        "{:<8} {:>11} {:>9} {:>8}",
        "method", "imbalance", "runtime", "useful"
    );

    // Accumulate fractions over the full matrix set so one fast matrix does
    // not dominate, mirroring the paper's aggregated table.
    for (policy, name) in [
        (RecoveryPolicy::Afeir, "AFEIR"),
        (RecoveryPolicy::Feir, "FEIR"),
    ] {
        let mut ideal_acc = StateBreakdown::default();
        let mut method_acc = StateBreakdown::default();
        let mut count = 0.0;
        for matrix in PaperMatrix::ALL {
            let (a, b) = cfg.build_system(matrix);
            let resilience = cfg.resilience(policy, false);
            let ideal = measure_ideal(&a, &b, &resilience, &cfg.options);
            let run = run_overhead(&a, &b, &resilience, &cfg.options);
            let i = breakdown(&ideal);
            let m = breakdown(&run);
            ideal_acc.useful_fraction += i.useful_fraction;
            ideal_acc.runtime_fraction += i.runtime_fraction;
            ideal_acc.idle_fraction += i.idle_fraction;
            method_acc.useful_fraction += m.useful_fraction;
            method_acc.runtime_fraction += m.runtime_fraction;
            method_acc.idle_fraction += m.idle_fraction;
            count += 1.0;
        }
        for acc in [&mut ideal_acc, &mut method_acc] {
            acc.useful_fraction /= count;
            acc.runtime_fraction /= count;
            acc.idle_fraction /= count;
        }
        // The ideal baseline has no recovery/idle accounting of its own;
        // report the absolute fractions of the method next to the increases.
        let (imbalance, runtime, useful) = method_acc.increase_over(&ideal_acc);
        println!(
            "{:<8} {:>10.2}% {:>8.2}% {:>7.2}%   (absolute: useful {:.1}%, runtime {:.1}%, idle {:.1}%)",
            name,
            imbalance,
            runtime,
            useful,
            method_acc.useful_fraction * 100.0,
            method_acc.runtime_fraction * 100.0,
            method_acc.idle_fraction * 100.0,
        );
    }
    println!("\n# paper reference: AFEIR 4.30/8.11/1.90  FEIR 25.06/7.84/2.78 (%)");
    println!("# FEIR should show a clearly larger imbalance increase than AFEIR (critical-path recoveries).");
}
