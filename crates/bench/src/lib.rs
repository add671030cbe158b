//! # feir-bench
//!
//! Benchmark and experiment harnesses that regenerate every table and figure
//! of the paper's evaluation section:
//!
//! | Paper artefact | Binary | What it prints |
//! |---|---|---|
//! | Table 2 | `cargo run -p feir-bench --release --bin table2` | overhead of each method with no errors |
//! | Table 3 | `cargo run -p feir-bench --release --bin table3` | increase of time per state for FEIR / AFEIR |
//! | Figure 3 | `cargo run -p feir-bench --release --bin figure3` | convergence trace with a single error in `x` |
//! | Figure 4 | `cargo run -p feir-bench --release --bin figure4` | slowdown per matrix × method × error rate |
//! | Figure 5 | `cargo run -p feir-bench --release --bin figure5` | strong-scaling speedups, 1 and 2 errors per run |
//!
//! Problem sizes are scaled to laptop budgets by default; set the
//! `FEIR_SCALE` (matrix size multiplier), `FEIR_REPS` (repetitions) and
//! `FEIR_RATES` (comma-separated normalised error rates) environment
//! variables to enlarge a run towards the paper's full sweep.

#![forbid(unsafe_code)]

use std::time::Duration;

use feir_core::{ExperimentConfig, PaperMatrix, RecoveryPolicy, SolveOptions};
use feir_recovery::report::harmonic_mean_slowdown_percent;
use feir_recovery::ResilienceConfig;
use feir_sparse::generators::manufactured_rhs;
use feir_sparse::CsrMatrix;

/// Harness-wide settings read from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Matrix scale factor (1.0 = laptop default).
    pub scale: f64,
    /// Repetitions per experiment cell.
    pub repetitions: usize,
    /// Normalised error frequencies for the Figure-4 sweep.
    pub error_rates: Vec<f64>,
    /// Page size in doubles used by the experiments (small pages keep the
    /// laptop-scale matrices spanning many pages, preserving the error model).
    pub page_doubles: usize,
    /// Solver options.
    pub options: SolveOptions,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl HarnessConfig {
    /// Reads the configuration from `FEIR_SCALE`, `FEIR_REPS`, `FEIR_RATES`
    /// and `FEIR_TOL`.
    pub fn from_env() -> Self {
        let scale = std::env::var("FEIR_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.35);
        let repetitions = std::env::var("FEIR_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3);
        let error_rates = std::env::var("FEIR_RATES")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .collect::<Vec<f64>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0]);
        let tolerance = std::env::var("FEIR_TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1e-8);
        Self {
            scale,
            repetitions,
            error_rates,
            page_doubles: 256,
            options: SolveOptions::default()
                .with_tolerance(tolerance)
                .with_max_iterations(50_000),
        }
    }

    /// Builds the proxy matrix and right-hand side for one of the paper's
    /// evaluation matrices at the harness scale.
    pub fn build_system(&self, matrix: PaperMatrix) -> (CsrMatrix, Vec<f64>) {
        let a = matrix.build(self.scale);
        let (_, b) = manufactured_rhs(&a, 0xB0B + matrix.name().len() as u64);
        (a, b)
    }

    /// Resilience configuration for a policy under this harness.
    pub fn resilience(&self, policy: RecoveryPolicy, preconditioned: bool) -> ResilienceConfig {
        ResilienceConfig {
            policy,
            page_doubles: self.page_doubles,
            preconditioned,
            checkpoint_on_disk: true,
            threads: None,
        }
    }

    /// Experiment configuration for a (policy, rate, seed) cell.
    pub fn experiment(
        &self,
        policy: RecoveryPolicy,
        preconditioned: bool,
        rate: f64,
        seed: u64,
    ) -> ExperimentConfig {
        ExperimentConfig {
            resilience: self.resilience(policy, preconditioned),
            normalized_error_rate: rate,
            seed,
            options: self.options.clone(),
        }
    }
}

/// The five methods compared in the paper's evaluation plus their print names.
pub fn compared_policies(checkpoint_interval: usize) -> Vec<(RecoveryPolicy, &'static str)> {
    vec![
        (RecoveryPolicy::Afeir, "AFEIR"),
        (RecoveryPolicy::Feir, "FEIR"),
        (RecoveryPolicy::LossyRestart, "Lossy"),
        (
            RecoveryPolicy::Checkpoint {
                interval: checkpoint_interval,
            },
            "ckpt",
        ),
        (RecoveryPolicy::Trivial, "trivial"),
    ]
}

/// Slowdown in percent of `measured` with respect to `reference`.
pub fn slowdown_percent(measured: Duration, reference: Duration) -> f64 {
    if reference.as_secs_f64() <= 0.0 {
        return 0.0;
    }
    (measured.as_secs_f64() / reference.as_secs_f64() - 1.0) * 100.0
}

/// Harmonic-mean aggregation of slowdown percentages, as the paper uses.
pub fn aggregate_slowdowns(percents: &[f64]) -> f64 {
    harmonic_mean_slowdown_percent(percents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        let cfg = HarnessConfig::from_env();
        assert!(cfg.scale > 0.0);
        assert!(cfg.repetitions >= 1);
        assert_eq!(cfg.error_rates.len(), 6);
        assert!(cfg.page_doubles >= 64);
    }

    #[test]
    fn build_system_produces_consistent_shapes() {
        let cfg = HarnessConfig {
            scale: 0.2,
            ..HarnessConfig::from_env()
        };
        let (a, b) = cfg.build_system(PaperMatrix::Qa8fm);
        assert_eq!(a.rows(), b.len());
        assert!(a.is_symmetric(1e-10));
    }

    #[test]
    fn compared_policy_set_matches_paper() {
        let policies = compared_policies(1000);
        assert_eq!(policies.len(), 5);
        assert_eq!(policies[0].1, "AFEIR");
        assert_eq!(policies[4].1, "trivial");
    }

    #[test]
    fn slowdown_math() {
        assert!(
            (slowdown_percent(Duration::from_secs(3), Duration::from_secs(2)) - 50.0).abs() < 1e-9
        );
        assert_eq!(
            slowdown_percent(Duration::from_secs(1), Duration::ZERO),
            0.0
        );
        let agg = aggregate_slowdowns(&[10.0, 10.0]);
        assert!((agg - 10.0).abs() < 1e-9);
    }
}
