//! The multi-process transport end to end: each rank a real OS process, a
//! Unix-domain-socket mesh speaking the versioned `feir-wire` frame
//! protocol — and the assembled solve **bitwise identical** to the
//! in-process channel backend at 2 and 4 ranks, for all four solvers:
//! classic CG, block-Jacobi PCG and their merged-reduction twins.
//!
//! ```text
//! cargo run --release --example dist_process
//! ```
//!
//! The example re-executes itself as the rank workers: the launcher spawns
//! `current_exe()` once per rank with the `FEIR_RANK_WORKER` marker set and
//! a `WorkerConfig` frame on stdin, and each child detects that via
//! [`spawned_as_worker`] and runs [`worker_main`] instead of the demo.

use std::process::ExitCode;

use feir::dist::{
    distributed_cg, distributed_cg_merged, distributed_pcg, distributed_pcg_merged,
    solve_with_processes, spawned_as_worker, worker_main, DistSolveResult, DistSolver, ProcessSpec,
};
use feir::sparse::generators::{manufactured_rhs, poisson_2d};

fn bitwise_identical(a: &DistSolveResult, b: &DistSolveResult) -> bool {
    a.iterations == b.iterations
        && a.x.len() == b.x.len()
        && a.x
            .iter()
            .zip(&b.x)
            .all(|(u, v)| u.to_bits() == v.to_bits())
        && a.residual_history.len() == b.residual_history.len()
        && a.residual_history
            .iter()
            .zip(&b.residual_history)
            .all(|(u, v)| u.to_bits() == v.to_bits())
}

fn main() -> ExitCode {
    // Child processes run the rank worker protocol, not the demo.
    if spawned_as_worker() {
        return worker_main();
    }

    let worker = std::env::current_exe().expect("cannot locate own executable");
    let grid = 16; // 256 unknowns
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);

    println!("multi-process transport vs in-process channels, poisson_2d({grid}):");
    println!(
        "  {:<22} {:>6} {:>7} {:>13} {:>9}",
        "scenario", "ranks", "iters", "rel_residual", "bitwise"
    );
    for ranks in [2usize, 4] {
        for solver in DistSolver::ALL {
            // One process per rank over a Unix-socket mesh…
            let spec = ProcessSpec {
                solver,
                page_doubles: 2,
                ..ProcessSpec::cg(grid, ranks)
            };
            let via_processes =
                solve_with_processes(&worker, &spec).expect("multi-process solve failed");
            // …against the same rank loop on in-process channels.
            let (page, tol, maxit) = (spec.page_doubles, spec.tolerance, spec.max_iterations);
            let in_process = match solver {
                DistSolver::Cg => distributed_cg(&a, &b, ranks, tol, maxit),
                DistSolver::Pcg => distributed_pcg(&a, &b, ranks, page, tol, maxit),
                DistSolver::CgMerged => distributed_cg_merged(&a, &b, ranks, tol, maxit),
                DistSolver::PcgMerged => distributed_pcg_merged(&a, &b, ranks, page, tol, maxit),
            };
            let identical = bitwise_identical(&via_processes, &in_process);
            println!(
                "  {:<22} {:>6} {:>7} {:>13.2e} {:>9}",
                format!("{}/processes", solver.name()),
                ranks,
                via_processes.iterations,
                via_processes.relative_residual,
                identical
            );
            assert!(
                identical,
                "{} over processes diverged from in-process",
                solver.name()
            );
        }
    }

    println!(
        "\nevery collective is the same rank-ordered fold on both backends, so the \
         histories match bit for bit — the transport changes the medium, not the math"
    );
    ExitCode::SUCCESS
}
