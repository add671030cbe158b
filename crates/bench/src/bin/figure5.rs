//! Figure 5: strong-scaling speedup of the resilient MPI+OmpSs CG on the
//! 27-point 3-D Poisson problem, 64 → 1024 cores, 1 and 2 errors per run.
//!
//! Two parts are printed:
//!
//! 1. a *functional* check: the block-row distributed CG of `feir-dist` is run
//!    on a scaled-down 27-point stencil over several simulated ranks and
//!    compared against the shared-memory solver (validating the communication
//!    structure of Section 3.4);
//! 2. the calibrated analytic scaling model that regenerates the Figure-5
//!    speedup curves for every policy (see DESIGN.md for the substitution).

#![forbid(unsafe_code)]

use feir_dist::{distributed_cg, ScalingModel};
use feir_solvers::{cg, SolveOptions};
use feir_sparse::generators::{manufactured_rhs, poisson_3d_27pt};

fn main() {
    // Part 1: functional distributed CG on the paper's operator (scaled down).
    let grid = std::env::var("FEIR_GRID")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12usize);
    let a = poisson_3d_27pt(grid);
    let (_, b) = manufactured_rhs(&a, 27);
    println!(
        "# Figure 5 — part 1: functional distributed CG (27-point stencil, {}³ = {} unknowns)",
        grid,
        a.rows()
    );
    let serial = cg(&a, &b, None, &SolveOptions::default().with_tolerance(1e-8));
    println!(
        "serial      iterations={} residual={:.2e} time={:.3}s",
        serial.iterations,
        serial.relative_residual,
        serial.elapsed.as_secs_f64()
    );
    for ranks in [2usize, 4, 8] {
        let start = std::time::Instant::now();
        let dist = distributed_cg(&a, &b, ranks, 1e-8, 50_000);
        println!(
            "ranks={ranks:<3}   iterations={} residual={:.2e} time={:.3}s",
            dist.iterations,
            dist.relative_residual,
            start.elapsed().as_secs_f64()
        );
        assert!(dist.relative_residual <= 1e-7, "distributed CG diverged");
    }

    // Part 2: the calibrated scaling model (paper-scale 512³ problem).
    let model = ScalingModel::default();
    println!("\n# Figure 5 — part 2: speedup w.r.t. ideal CG on 64 cores (27-pt Poisson, 512³)");
    println!(
        "# ideal parallel efficiency at 1024 cores: {:.1}% (paper: 80.17%)",
        model.ideal_efficiency(1024) * 100.0
    );
    for errors in [1usize, 2] {
        println!("\n## {errors} error(s) per run");
        println!(
            "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "method", 64, 128, 256, 512, 1024
        );
        for (policy, points) in model.figure5_series(errors) {
            let name = policy.name();
            let row: Vec<String> = points
                .iter()
                .map(|p| format!("{:>6.2}", p.speedup))
                .collect();
            println!("{:<8} {}", name, row.join(" "));
        }
    }
    println!("\n# paper reference @1024 cores: 1 error AFEIR 10.01 / FEIR 7.50 / Lossy 8.17; 2 errors AFEIR 6.03 / FEIR 7.65 / Lossy 4.82");
}
