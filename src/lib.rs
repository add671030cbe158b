//! # feir
//!
//! Umbrella crate for the FEIR project — a Rust reproduction of
//! *"Exploiting Asynchrony from Exact Forward Recovery for DUE in Iterative
//! Solvers"* (Jaulmes, Casas, Moretó, Ayguadé, Labarta, Valero — SC 2015).
//!
//! The paper protects Krylov iterative solvers (CG, BiCGStab, GMRES) against
//! Detected-and-Uncorrected memory Errors reported at memory-page granularity
//! by exploiting algebraic redundancy relations that already hold between the
//! solver's vectors, and shows that running the recovery tasks asynchronously
//! (overlapped with the solver's reductions) makes the protection nearly free.
//!
//! This crate re-exports the individual sub-crates:
//!
//! * [`sparse`] — CSR matrices, dense block factorizations, SPD generators,
//!   MatrixMarket I/O ([`feir_sparse`]);
//! * [`pagemem`] — the page-level DUE fault model and the seeded fault
//!   stream on the iteration clock ([`feir_pagemem`]);
//! * [`solvers`] — reference CG / PCG / BiCGStab / GMRES and the redundancy
//!   relation catalogue ([`feir_solvers`]);
//! * [`recovery`] — FEIR, AFEIR, Lossy Restart, checkpoint/rollback, trivial
//!   recovery and the resilient task-decomposed CG ([`feir_recovery`]);
//! * [`dist`] — the simulated distributed-memory substrate and the Figure-5
//!   scaling model ([`feir_dist`]);
//! * [`core`] — the experiment driver ([`feir_core`]).
//!
//! ## Quick start
//!
//! ```
//! use feir::prelude::*;
//!
//! // Build a small SPD system.
//! let a = feir::sparse::generators::poisson_2d(16);
//! let (_, b) = feir::sparse::generators::manufactured_rhs(&a, 42);
//!
//! // Solve it with the asynchronous forward exact interpolation recovery.
//! let config = ResilienceConfig {
//!     policy: RecoveryPolicy::Afeir,
//!     page_doubles: 64,
//!     ..ResilienceConfig::default()
//! };
//! let report = ResilientCg::new(&a, &b, config).solve(&SolveOptions::default());
//! assert!(report.converged());
//! ```

#![forbid(unsafe_code)]

pub use feir_core as core;
pub use feir_dist as dist;
pub use feir_pagemem as pagemem;
pub use feir_recovery as recovery;
pub use feir_solvers as solvers;
pub use feir_sparse as sparse;
pub use feir_trace as trace;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use feir_core::{
        measure_ideal, run_overhead, run_with_errors, run_with_single_error, ExperimentConfig,
    };
    pub use feir_pagemem::{FaultSchedule, FaultStream, PageRegistry};
    pub use feir_recovery::{
        RecoveryPolicy, ResilienceConfig, ResilientCg, ResilientCgBuilder, RunReport,
    };
    pub use feir_solvers::{bicgstab, cg, gmres, pcg, SolveOptions};
    pub use feir_sparse::{proxies::PaperMatrix, BlockJacobi, CooMatrix, CsrMatrix};
}
