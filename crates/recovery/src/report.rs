//! Run reports: convergence, recovery events, time accounting and the
//! per-rank fault aggregation consumed by distributed campaign runners.

use std::time::Duration;

use feir_solvers::history::{ConvergenceHistory, StopReason};
use serde::{Deserialize, Serialize};

use crate::policy::RecoveryPolicy;

/// What a recovery did about one lost page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Exact forward interpolation (lhs recomputation or rhs block solve).
    ExactInterpolation,
    /// Lossy block-Jacobi interpolation followed by a restart.
    LossyInterpolation,
    /// Rollback to the last checkpoint.
    Rollback,
    /// Blank page accepted as-is (trivial recovery).
    AcceptBlank,
    /// The error could not be recovered (simultaneous related losses) and was
    /// ignored, as in the paper's evaluation ("no fallback is used").
    Ignored,
}

/// One recovery event, for tracing and debugging.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Solver iteration at which the loss was handled.
    pub iteration: usize,
    /// Name of the affected vector.
    pub vector: String,
    /// Page index within the vector.
    pub page: usize,
    /// What was done.
    pub action: RecoveryAction,
}

/// Wall-time buckets accumulated by the resilient solver, used to reproduce
/// the per-state breakdown of Table 3.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TimeBuckets {
    /// Strip-mined solver computation (SpMV, axpy, dots).
    pub compute: Duration,
    /// Recovery-task work (scanning bitmasks, interpolating, restarting).
    pub recovery: Duration,
    /// Checkpoint writing and rollback reading.
    pub checkpoint: Duration,
    /// Task-creation / scheduling / bookkeeping overhead.
    pub runtime: Duration,
    /// Estimated idle time (imbalance): wall time not attributable to the
    /// other buckets, scaled by the worker count.
    pub idle: Duration,
}

impl TimeBuckets {
    /// Books a recovery plan that ran beside a reduction. AFEIR overlaps
    /// them on the pool: the window is compute for the reduction and
    /// recovery for the spare capacity the plan used. FEIR plans in the
    /// critical path while the other `threads − 1` workers idle.
    pub(crate) fn book_overlap(
        &mut self,
        policy: RecoveryPolicy,
        plan: Duration,
        reduce: Duration,
        threads: usize,
    ) {
        if policy == RecoveryPolicy::Afeir {
            let window = plan.max(reduce);
            self.compute += window;
            self.recovery += window;
        } else {
            self.recovery += plan;
            self.idle += plan.mul_f64((threads.saturating_sub(1)) as f64 / threads as f64);
            self.compute += reduce;
        }
    }

    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.compute + self.recovery + self.checkpoint + self.runtime + self.idle
    }

    /// Fraction of time spent doing useful solver work.
    pub fn useful_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.compute.as_secs_f64() / total
    }

    /// Fraction of time spent in runtime-like activities (recovery tasks,
    /// checkpointing, scheduling).
    pub fn runtime_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (self.recovery + self.checkpoint + self.runtime).as_secs_f64() / total
    }

    /// Fraction of time spent idle.
    pub fn idle_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.idle.as_secs_f64() / total
    }
}

/// Full report of one resilient solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy used.
    pub policy: RecoveryPolicy,
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations executed (including re-done iterations after rollbacks and
    /// restarts, i.e. total work performed).
    pub iterations: usize,
    /// Final relative residual (explicitly recomputed).
    pub relative_residual: f64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Per-iteration residual history (time-stamped), for Figure 3 traces.
    pub history: ConvergenceHistory,
    /// Recovery events in order.
    pub events: Vec<RecoveryEvent>,
    /// Faults discovered during the run.
    pub faults_discovered: usize,
    /// Pages recovered (any action other than `Ignored`).
    pub pages_recovered: usize,
    /// Number of rollbacks (checkpoint policy only).
    pub rollbacks: usize,
    /// Number of restarts (Lossy Restart policy only).
    pub restarts: usize,
    /// Time bucket accounting.
    pub time: TimeBuckets,
}

impl RunReport {
    /// True if the run converged.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }

    /// Slowdown of this run compared to a reference wall time, in percent
    /// (the y-axis of Figure 4).
    pub fn slowdown_percent(&self, reference: Duration) -> f64 {
        let reference_secs = reference.as_secs_f64();
        if reference_secs <= 0.0 {
            return 0.0;
        }
        (self.elapsed.as_secs_f64() / reference_secs - 1.0) * 100.0
    }
}

/// Fault accounting of one rank of a distributed resilient solve: the
/// registry-side counters of its fault domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankFaultStats {
    /// The rank these counters belong to.
    pub rank: usize,
    /// Injections that landed on a healthy page (effective DUEs).
    pub injected: usize,
    /// Faults discovered by the solver on access (the "SIGBUS" count).
    pub discovered: usize,
    /// Pages marked healthy again in this rank's registry — after an exact
    /// reconstruction *or* a blank acceptance (registries track page health,
    /// not recovery quality; compare with the solve report's
    /// `pages_recovered` / `pages_ignored` split for the latter).
    pub recovered: usize,
}

/// Per-rank registry counters aggregated into one unified fault report for a
/// whole distributed solve.
///
/// On the simulated distributed machine every rank draws its own fault
/// stream against its own registry; this type folds those per-rank views into
/// the single report the campaign runner consumes, while keeping the per-rank
/// attribution (which ranks were hit, how often) that machine-wide totals
/// lose.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedFaultReport {
    /// Fault statistics per rank, in rank order.
    pub per_rank: Vec<RankFaultStats>,
}

impl DistributedFaultReport {
    /// An empty report covering `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            per_rank: (0..ranks)
                .map(|rank| RankFaultStats {
                    rank,
                    ..RankFaultStats::default()
                })
                .collect(),
        }
    }

    /// Records one rank's registry-side counters (effective injections,
    /// discoveries, recoveries).
    pub fn set_registry_counts(
        &mut self,
        rank: usize,
        injected: usize,
        discovered: usize,
        recovered: usize,
    ) {
        let stats = &mut self.per_rank[rank];
        stats.injected = injected;
        stats.discovered = discovered;
        stats.recovered = recovered;
    }

    /// Total effective injections across every rank.
    pub fn total_injected(&self) -> usize {
        self.per_rank.iter().map(|s| s.injected).sum()
    }

    /// Total faults discovered across every rank.
    pub fn total_discovered(&self) -> usize {
        self.per_rank.iter().map(|s| s.discovered).sum()
    }

    /// Total pages recovered across every rank.
    pub fn total_recovered(&self) -> usize {
        self.per_rank.iter().map(|s| s.recovered).sum()
    }

    /// Number of ranks that saw at least one effective injection — the
    /// paper's fault-containment unit.
    pub fn faulty_ranks(&self) -> usize {
        self.per_rank.iter().filter(|s| s.injected > 0).count()
    }
}

/// Harmonic mean of a set of positive values — the aggregation the paper uses
/// to combine per-matrix overheads (Tables 2 and 4-adjacent text).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum_inverse: f64 = values.iter().map(|v| 1.0 / v.max(1e-300)).sum();
    values.len() as f64 / sum_inverse
}

/// Harmonic mean of slowdown factors expressed as percentages: the values are
/// converted to factors (1 + p/100), averaged harmonically and converted back.
pub fn harmonic_mean_slowdown_percent(percents: &[f64]) -> f64 {
    if percents.is_empty() {
        return 0.0;
    }
    let factors: Vec<f64> = percents.iter().map(|p| 1.0 + p / 100.0).collect();
    (harmonic_mean(&factors) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_bucket_fractions() {
        let t = TimeBuckets {
            compute: Duration::from_millis(80),
            recovery: Duration::from_millis(5),
            checkpoint: Duration::from_millis(5),
            runtime: Duration::from_millis(5),
            idle: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        assert!((t.useful_fraction() - 0.8).abs() < 1e-12);
        assert!((t.runtime_fraction() - 0.15).abs() < 1e-12);
        assert!((t.idle_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_time_fractions_are_zero() {
        let t = TimeBuckets::default();
        assert_eq!(t.useful_fraction(), 0.0);
        assert_eq!(t.runtime_fraction(), 0.0);
    }

    #[test]
    fn harmonic_mean_matches_hand_computation() {
        let values = [1.0, 2.0, 4.0];
        let expected = 3.0 / (1.0 + 0.5 + 0.25);
        assert!((harmonic_mean(&values) - expected).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn distributed_fault_report_aggregates_per_rank_views() {
        let mut report = DistributedFaultReport::new(3);
        report.set_registry_counts(1, 2, 2, 2);
        report.set_registry_counts(2, 1, 1, 0);

        assert_eq!(report.total_injected(), 3);
        assert_eq!(report.total_discovered(), 3);
        assert_eq!(report.total_recovered(), 2);
        assert_eq!(report.faulty_ranks(), 2);
        assert_eq!(report.per_rank[0], RankFaultStats::default());
        assert_eq!(report.per_rank[1].rank, 1);
        assert_eq!(report.per_rank[1].injected, 2);
    }

    #[test]
    fn harmonic_mean_of_slowdowns() {
        // Equal slowdowns stay unchanged.
        assert!((harmonic_mean_slowdown_percent(&[10.0, 10.0]) - 10.0).abs() < 1e-9);
        // Mixed slowdowns land between min and max, below the arithmetic mean.
        let m = harmonic_mean_slowdown_percent(&[0.0, 100.0]);
        assert!(m > 0.0 && m < 50.0);
    }
}
