//! Experiment driver: sets up the solver, the fault stream and the error
//! rates the way the paper's evaluation does (Section 5), on the iteration
//! clock: a rate is normalised to the ideal solve's iteration count, not its
//! wall time, so every run replays bit for bit.

use feir_pagemem::{FaultSchedule, FaultStream};
use feir_recovery::{RecoveryPolicy, ResilienceConfig, ResilientCg, RunReport};
use feir_solvers::SolveOptions;
use feir_sparse::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Configuration of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Resilience configuration (policy, page size, preconditioning).
    pub resilience: ResilienceConfig,
    /// Normalised error frequency `n`: `n` expected errors per ideal solve,
    /// counted in its iterations (the x-axis annotation of Figure 4). Zero
    /// disables injection.
    pub normalized_error_rate: f64,
    /// RNG seed for the injection stream.
    pub seed: u64,
    /// Solver options (tolerance 1e-10 in the paper).
    pub options: SolveOptions,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            resilience: ResilienceConfig::default(),
            normalized_error_rate: 0.0,
            seed: 0,
            options: SolveOptions::default(),
        }
    }
}

/// Result record for one (matrix, policy, error-rate) cell of Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowdownRecord {
    /// Matrix name.
    pub matrix: String,
    /// Policy name.
    pub policy: String,
    /// Normalised error frequency.
    pub normalized_error_rate: f64,
    /// Measured slowdown vs the ideal CG, in percent.
    pub slowdown_percent: f64,
    /// Faults discovered during the run.
    pub faults_discovered: usize,
    /// Whether the run converged.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
}

/// Runs the ideal (non-resilient) CG/PCG and returns its report; its
/// iteration count is the clock every error rate is normalised to, its
/// elapsed time the reference of every slowdown.
pub fn measure_ideal(
    a: &CsrMatrix,
    b: &[f64],
    resilience: &ResilienceConfig,
    options: &SolveOptions,
) -> RunReport {
    let config = ResilienceConfig {
        policy: RecoveryPolicy::Ideal,
        ..resilience.clone()
    };
    ResilientCg::new(a, b, config).solve(options)
}

/// Runs a resilient solve with no error injection (Table 2 overheads).
pub fn run_overhead(
    a: &CsrMatrix,
    b: &[f64],
    resilience: &ResilienceConfig,
    options: &SolveOptions,
) -> RunReport {
    ResilientCg::new(a, b, resilience.clone()).solve(options)
}

/// Runs a resilient solve under the exponential error stream of Section 5.3
/// on the iteration clock: a mean of `ideal_iterations ÷ normalized_rate`
/// iterations between DUEs.
pub fn run_with_errors(
    a: &CsrMatrix,
    b: &[f64],
    config: &ExperimentConfig,
    ideal_iterations: usize,
) -> RunReport {
    let stream =
        FaultStream::normalized(config.normalized_error_rate, ideal_iterations, config.seed);
    ResilientCg::new(a, b, config.resilience.clone())
        .with_faults(stream.map_or_else(FaultSchedule::default, FaultSchedule::Stream))
        .solve(&config.options)
}

/// Runs a resilient solve with exactly one error, struck at the top of
/// iteration `⌊fraction_of_ideal · ideal_iterations⌋` into the given flat
/// page index, reproducing the single-error convergence trace of Figure 3.
pub fn run_with_single_error(
    a: &CsrMatrix,
    b: &[f64],
    resilience: &ResilienceConfig,
    options: &SolveOptions,
    ideal_iterations: usize,
    fraction_of_ideal: f64,
    flat_page: usize,
) -> RunReport {
    let at = (ideal_iterations as f64 * fraction_of_ideal.max(0.0)) as usize;
    ResilientCg::new(a, b, resilience.clone())
        .with_faults(FaultSchedule::Listed(vec![(at, flat_page)]))
        .solve(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d};

    fn config(policy: RecoveryPolicy, rate: f64) -> ExperimentConfig {
        ExperimentConfig {
            resilience: ResilienceConfig {
                policy,
                page_doubles: 64,
                ..ResilienceConfig::default()
            },
            normalized_error_rate: rate,
            seed: 7,
            options: SolveOptions::default(),
        }
    }

    #[test]
    fn ideal_measurement_converges() {
        let a = poisson_2d(14);
        let (_, b) = manufactured_rhs(&a, 1);
        let cfg = config(RecoveryPolicy::Feir, 0.0);
        let ideal = measure_ideal(&a, &b, &cfg.resilience, &cfg.options);
        assert!(ideal.converged());
        assert_eq!(ideal.faults_discovered, 0);
    }

    #[test]
    fn overhead_run_without_errors_matches_ideal_convergence() {
        let a = poisson_2d(14);
        let (_, b) = manufactured_rhs(&a, 2);
        let cfg = config(RecoveryPolicy::Afeir, 0.0);
        let ideal = measure_ideal(&a, &b, &cfg.resilience, &cfg.options);
        let afeir = run_overhead(&a, &b, &cfg.resilience, &cfg.options);
        assert!(afeir.converged());
        assert!((afeir.iterations as i64 - ideal.iterations as i64).abs() <= 1);
    }

    #[test]
    fn error_injection_run_still_converges_with_feir() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 3);
        let cfg = config(RecoveryPolicy::Feir, 5.0);
        let ideal = measure_ideal(&a, &b, &cfg.resilience, &cfg.options);
        let report = run_with_errors(&a, &b, &cfg, ideal.iterations);
        assert!(report.faults_discovered > 0);
        assert!(report.converged());
    }

    #[test]
    fn single_error_run_reports_the_fault() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 4);
        let cfg = config(RecoveryPolicy::Feir, 0.0);
        let ideal = measure_ideal(&a, &b, &cfg.resilience, &cfg.options);
        // Strike page 0 of x (flat index 0) at 30% of the ideal iterations.
        let report = run_with_single_error(
            &a,
            &b,
            &cfg.resilience,
            &cfg.options,
            ideal.iterations,
            0.3,
            0,
        );
        assert!(report.converged());
        assert_eq!(report.faults_discovered, 1);
    }

    #[test]
    fn slowdown_record_serialises() {
        let record = SlowdownRecord {
            matrix: "thermal2".into(),
            policy: "FEIR".into(),
            normalized_error_rate: 5.0,
            slowdown_percent: 4.2,
            faults_discovered: 3,
            converged: true,
            iterations: 1234,
        };
        // serde_json is intentionally not a dependency; check Debug formatting
        // and that the record round-trips through clone.
        assert!(format!("{record:?}").contains("thermal2"));
        let clone = record.clone();
        assert_eq!(clone.matrix, "thermal2");
        assert!(clone.converged);
    }
}
