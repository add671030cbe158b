//! # feir-core
//!
//! Public facade and experiment driver for the FEIR reproduction of
//! *"Exploiting Asynchrony from Exact Forward Recovery for DUE in Iterative
//! Solvers"* (Jaulmes et al., SC 2015).
//!
//! The crate ties the substrates together into the workflows the paper's
//! evaluation section uses:
//!
//! * [`experiment::measure_ideal`] — the fault-free reference run every
//!   overhead and slowdown is normalised against;
//! * [`experiment::run_overhead`] — a resilient run with *no* injected errors
//!   (Table 2);
//! * [`experiment::run_with_errors`] — a resilient run under an exponential
//!   error stream with the paper's normalised error frequency, on the
//!   iteration clock (Figure 4);
//! * [`experiment::run_with_single_error`] — one scheduled error at a fixed
//!   fraction of the ideal iteration count (Figure 3 trace);
//! * [`ExperimentConfig`] / result records (serde-serialisable) used by the
//!   `feir-bench` harnesses to print each table and figure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;

pub use experiment::{
    measure_ideal, run_overhead, run_with_errors, run_with_single_error, ExperimentConfig,
    SlowdownRecord,
};

pub use feir_recovery::{RecoveryPolicy, ResilienceConfig, RunReport};
pub use feir_solvers::SolveOptions;
pub use feir_sparse::proxies::PaperMatrix;
