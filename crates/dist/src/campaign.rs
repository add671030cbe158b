//! Fault campaigns: solver × policy × rank-count × fault-rate sweeps over
//! the distributed resilient solvers, producing the per-policy overhead
//! tables of the paper's scaling study (Section 5 / Figure 5's measured
//! points). The solver axis ([`DistSolver`]) covers the classic and the
//! merged CG and block-Jacobi PCG in one sweep driver.
//!
//! For every solver × rank count the campaign first measures the fault-free
//! ideal distributed solve as the baseline, then runs every `(policy,
//! frequency)` cell with one seeded fault stream per rank on the iteration
//! clock (frequency is machine-wide, in expected DUEs per fault-free solve of
//! the baseline's iterations, and is split evenly over the ranks), so a cell
//! replays bit for bit. Each cell records wall time, iteration count, the
//! overhead against the baseline, and the per-rank fault attribution from
//! [`DistributedFaultReport`] — so a report can say not just *how many*
//! errors occurred but *which ranks* absorbed and recovered them.

use std::path::Path;
use std::time::{Duration, Instant};

use feir_pagemem::FaultStream;
use feir_recovery::report::{DistributedFaultReport, RankFaultStats};
use feir_recovery::RecoveryPolicy;
use feir_sparse::CsrMatrix;
use feir_wire::chaos::FaultRates;

use crate::process::{
    spawn_workers_with, ChaosConfig, ProcessError, ProcessSpec, Transport, WorkerOptions,
};
use crate::resilient::{DistResilienceConfig, DistResilientSolver, DistSolver};

/// A solver × policy × rank-count × fault-rate sweep.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// Solvers to sweep. Every solver measures its overhead against its
    /// *own* ideal distributed baseline, so the tables compare across
    /// solvers without a second sweep driver.
    pub solvers: Vec<DistSolver>,
    /// Policies to compare.
    pub policies: Vec<RecoveryPolicy>,
    /// Simulated rank counts to run at.
    pub rank_counts: Vec<usize>,
    /// Machine-wide error frequencies, in expected DUEs per fault-free solve
    /// (the paper's normalized error frequency). `0.0` measures the pure
    /// protection overhead.
    pub error_frequencies: Vec<f64>,
    /// Page size in doubles of the per-rank fault domains.
    pub page_doubles: usize,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Iteration cap per solve.
    pub max_iterations: usize,
    /// Base RNG seed; every cell derives an independent deterministic seed.
    pub seed: u64,
}

impl Default for FaultCampaign {
    fn default() -> Self {
        Self {
            solvers: vec![DistSolver::Cg],
            policies: vec![
                RecoveryPolicy::Afeir,
                RecoveryPolicy::Feir,
                RecoveryPolicy::LossyRestart,
                RecoveryPolicy::Checkpoint { interval: 50 },
                RecoveryPolicy::Trivial,
                RecoveryPolicy::TrivialReplace,
            ],
            rank_counts: vec![1, 2, 4],
            error_frequencies: vec![0.0, 2.0],
            page_doubles: 64,
            tolerance: 1e-8,
            max_iterations: 50_000,
            seed: 0xC0FF_EE00,
        }
    }
}

/// Fault-free ideal distributed baseline at one solver × rank count.
#[derive(Debug, Clone, Copy)]
pub struct CampaignBaseline {
    /// Solver variant of this baseline.
    pub solver: DistSolver,
    /// Rank count.
    pub ranks: usize,
    /// Wall time of the ideal (unprotected) distributed solve.
    pub elapsed: Duration,
    /// Iterations of the ideal solve.
    pub iterations: usize,
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Solver variant of this cell.
    pub solver: DistSolver,
    /// Policy of this cell.
    pub policy: RecoveryPolicy,
    /// Rank count of this cell.
    pub ranks: usize,
    /// Machine-wide error frequency of this cell.
    pub frequency: f64,
    /// Iterations performed (including re-done work).
    pub iterations: usize,
    /// Wall time of the solve.
    pub elapsed: Duration,
    /// True if the explicit residual met the tolerance.
    pub converged: bool,
    /// Wall-time overhead versus the same-rank-count ideal baseline, in
    /// percent (Figure 4/5's y-axis).
    pub overhead_percent: f64,
    /// Iteration overhead versus the baseline, in percent (timing-noise-free
    /// work measure, useful on loaded CI machines).
    pub iteration_overhead_percent: f64,
    /// Per-rank fault attribution.
    pub faults: DistributedFaultReport,
    /// Pages reconstructed across all ranks.
    pub pages_recovered: usize,
    /// Values fetched across rank boundaries during recovery.
    pub cross_rank_values: usize,
    /// Rollbacks (checkpoint policy).
    pub rollbacks: usize,
    /// Restarts (Lossy Restart policy).
    pub restarts: usize,
    /// Per-phase trace summary of the solve, present when `FEIR_TRACE=spans`
    /// was active while the cell ran.
    pub trace: Option<feir_trace::TraceSummary>,
}

impl CampaignCell {
    /// Total time the cell spent inside the recovery phases (plan +
    /// reconstruct + install), from the trace; `None` without tracing.
    pub fn recovery_ns(&self) -> Option<u64> {
        use feir_trace::Phase;
        self.trace.as_ref().map(|t| {
            t.phase_total_ns(Phase::RecoveryPlan)
                + t.phase_total_ns(Phase::RecoveryReconstruct)
                + t.phase_total_ns(Phase::RecoveryInstall)
        })
    }
}

impl CampaignCell {
    /// Number of ranks that absorbed at least one effective DUE.
    pub fn faulty_ranks(&self) -> usize {
        self.faults.faulty_ranks()
    }

    /// Per-rank statistics, in rank order.
    pub fn per_rank(&self) -> &[RankFaultStats] {
        &self.faults.per_rank
    }
}

/// All measurements of one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Ideal baseline per rank count.
    pub baselines: Vec<CampaignBaseline>,
    /// Every measured cell, in sweep order (rank count, then policy, then
    /// frequency).
    pub cells: Vec<CampaignCell>,
}

impl CampaignReport {
    /// The baseline for a solver × rank count, if it was measured.
    pub fn baseline(&self, solver: DistSolver, ranks: usize) -> Option<&CampaignBaseline> {
        self.baselines
            .iter()
            .find(|b| b.solver == solver && b.ranks == ranks)
    }

    /// Renders the fixed-width overhead table (one row per cell).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "solver      ranks  policy   freq  conv  iters    time_ms  overhd%  it_ovh%  inj/disc/rec  hit_ranks  xrank  rec_ms\n",
        );
        for cell in &self.cells {
            let rec_ms = match cell.recovery_ns() {
                Some(ns) => format!("{:>6.2}", ns as f64 / 1e6),
                None => format!("{:>6}", "-"),
            };
            out.push_str(&format!(
                "{:<10}  {:>5}  {:<7}  {:>4.1}  {:>4}  {:>5}  {:>9.2}  {:>7.1}  {:>7.1}  {:>4}/{:>4}/{:>3}  {:>9}  {:>5}  {}\n",
                cell.solver.name(),
                cell.ranks,
                cell.policy.name(),
                cell.frequency,
                if cell.converged { "yes" } else { "NO" },
                cell.iterations,
                cell.elapsed.as_secs_f64() * 1e3,
                cell.overhead_percent,
                cell.iteration_overhead_percent,
                cell.faults.total_injected(),
                cell.faults.total_discovered(),
                cell.faults.total_recovered(),
                cell.faulty_ranks(),
                cell.cross_rank_values,
                rec_ms,
            ));
        }
        out
    }
}

impl FaultCampaign {
    /// Runs the sweep on `A x = b`.
    pub fn run(&self, a: &CsrMatrix, b: &[f64]) -> CampaignReport {
        let mut report = CampaignReport::default();
        for (si, &solver_kind) in self.solvers.iter().enumerate() {
            for (ri, &ranks) in self.rank_counts.iter().enumerate() {
                // Fault-free ideal distributed baseline at this solver ×
                // rank count.
                let ideal_config = self.cell_config(RecoveryPolicy::Ideal);
                let ideal =
                    DistResilientSolver::new(solver_kind, a, b, ranks, ideal_config).solve();
                let baseline = CampaignBaseline {
                    solver: solver_kind,
                    ranks: ideal.ranks,
                    elapsed: ideal.elapsed,
                    iterations: ideal.iterations,
                };
                report.baselines.push(baseline);

                for (pi, &policy) in self.policies.iter().enumerate() {
                    for (fi, &frequency) in self.error_frequencies.iter().enumerate() {
                        let solver = DistResilientSolver::new(
                            solver_kind,
                            a,
                            b,
                            ranks,
                            self.cell_config(policy),
                        );
                        // The frequency is machine-wide: split the error
                        // rate evenly over the per-rank streams.
                        let per_rank = frequency / solver.ranks() as f64;
                        let seed = self
                            .seed
                            .wrapping_add(100_000_000 * si as u64)
                            .wrapping_add(1_000_000 * ri as u64)
                            .wrapping_add(10_000 * pi as u64)
                            .wrapping_add(100 * fi as u64);
                        let solve =
                            match FaultStream::normalized(per_rank, baseline.iterations, seed) {
                                Some(stream) => solver.with_fault_stream(&stream),
                                None => solver,
                            }
                            .solve();
                        let overhead = |value: f64, base: f64| {
                            if base > 0.0 {
                                (value / base - 1.0) * 100.0
                            } else {
                                0.0
                            }
                        };
                        report.cells.push(CampaignCell {
                            solver: solver_kind,
                            policy,
                            ranks: solve.ranks,
                            frequency,
                            iterations: solve.iterations,
                            elapsed: solve.elapsed,
                            converged: solve.converged,
                            overhead_percent: overhead(
                                solve.elapsed.as_secs_f64(),
                                baseline.elapsed.as_secs_f64(),
                            ),
                            iteration_overhead_percent: overhead(
                                solve.iterations as f64,
                                baseline.iterations as f64,
                            ),
                            faults: solve.faults,
                            pages_recovered: solve.pages_recovered,
                            cross_rank_values: solve.cross_rank_values,
                            rollbacks: solve.rollbacks,
                            restarts: solve.restarts,
                            trace: solve.trace.as_ref().map(feir_trace::SolveTrace::summary),
                        });
                    }
                }
            }
        }
        report
    }

    fn cell_config(&self, policy: RecoveryPolicy) -> DistResilienceConfig {
        DistResilienceConfig::for_policy(policy)
            .with_page_doubles(self.page_doubles)
            .with_tolerance(self.tolerance)
            .with_max_iterations(self.max_iterations)
    }
}

/// Process-failure schedule of one [`NetFaultCampaign`] cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSchedule {
    /// No process failure: the cell measures the pure frame-fault overhead.
    None,
    /// Kill the worker of `rank` after `after` of wall clock, then respawn
    /// it immediately; the elastic mesh rejoins it mid-solve. Rank 0 is the
    /// result collector and cannot be scheduled.
    KillRespawn {
        /// Victim rank (`0 < rank < ranks`).
        rank: usize,
        /// Wall-clock delay before the kill.
        after: Duration,
    },
}

impl KillSchedule {
    fn label(&self) -> String {
        match self {
            KillSchedule::None => "-".into(),
            KillSchedule::KillRespawn { rank, after } => {
                format!("r{rank}@{}ms", after.as_millis())
            }
        }
    }
}

/// The transport-fault counterpart of [`FaultCampaign`]: a policy ×
/// frame-fault-rate × kill/respawn-schedule sweep over the **real
/// multi-process mesh**. Where [`FaultCampaign`] injects memory DUEs into
/// simulated ranks, this campaign subjects worker processes to a hostile
/// network — chaos-injected frames absorbed by the ack/retransmit sublayer
/// — and to whole-process loss healed by the elastic rejoin protocol, and
/// reports the overhead of each against the same clean-mesh ideal baseline.
///
/// Cells time the complete spawn → solve → join round trip (process
/// start-up included — it is part of what a respawn costs), and every cell
/// including the baseline runs under the same [`NetFaultCampaign::throttle`]
/// throttle so kill schedules land mid-solve without skewing the
/// comparison.
#[derive(Debug, Clone)]
pub struct NetFaultCampaign {
    /// Solver the workers run. Kill schedules need a classic `cg`/`pcg`
    /// solver: the merged loops have no rejoin repair.
    pub solver: DistSolver,
    /// Policies to compare.
    pub policies: Vec<RecoveryPolicy>,
    /// Aggregate frame-fault rates to sweep; each is split over the fault
    /// kinds (40% drop, 20% duplicate, 20% delay, 10% corrupt, 10%
    /// truncate) with retransmissions travelling clean. `0.0` measures the
    /// pure reliability-layer overhead.
    pub frame_fault_rates: Vec<f64>,
    /// Kill/respawn schedules to sweep. Schedules other than
    /// [`KillSchedule::None`] run the workers elastic.
    pub schedules: Vec<KillSchedule>,
    /// Poisson grid side (`grid²` unknowns).
    pub grid: usize,
    /// Seed of the manufactured right-hand side.
    pub rhs_seed: u64,
    /// Worker process count.
    pub ranks: usize,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Iteration cap per solve.
    pub max_iterations: usize,
    /// Page size in doubles of the per-rank fault domains.
    pub page_doubles: usize,
    /// Base chaos seed; every cell derives an independent deterministic
    /// per-link plan from it.
    pub seed: u64,
    /// Per-iteration worker throttle applied to *every* cell and the
    /// baseline alike; dilates the solve so a kill schedule reliably lands
    /// mid-iteration.
    pub throttle: Duration,
}

impl Default for NetFaultCampaign {
    fn default() -> Self {
        Self {
            solver: DistSolver::Cg,
            policies: vec![
                RecoveryPolicy::Afeir,
                RecoveryPolicy::Feir,
                RecoveryPolicy::Checkpoint { interval: 25 },
                RecoveryPolicy::Trivial,
                RecoveryPolicy::TrivialReplace,
            ],
            frame_fault_rates: vec![0.0, 0.02],
            schedules: vec![KillSchedule::None],
            grid: 24,
            rhs_seed: 9,
            ranks: 2,
            tolerance: 1e-8,
            max_iterations: 50_000,
            page_doubles: 64,
            seed: 0x00D1_CE00,
            throttle: Duration::ZERO,
        }
    }
}

/// Clean-mesh ideal baseline of a net campaign.
#[derive(Debug, Clone, Copy)]
pub struct NetCampaignBaseline {
    /// Spawn → join wall time of the clean ideal solve.
    pub elapsed: Duration,
    /// Iterations of the clean ideal solve.
    pub iterations: usize,
}

/// One measured cell of a net campaign.
#[derive(Debug, Clone)]
pub struct NetCampaignCell {
    /// Policy of this cell.
    pub policy: RecoveryPolicy,
    /// Aggregate frame-fault rate of this cell.
    pub fault_rate: f64,
    /// Kill/respawn schedule of this cell.
    pub schedule: KillSchedule,
    /// True if the assembled solution met the tolerance.
    pub converged: bool,
    /// Explicit relative residual of the assembled solution.
    pub relative_residual: f64,
    /// Iterations performed (restart re-work included).
    pub iterations: usize,
    /// Spawn → join wall time.
    pub elapsed: Duration,
    /// Wall-time overhead versus the clean ideal baseline, in percent.
    pub overhead_percent: f64,
    /// Iteration overhead versus the baseline, in percent — the
    /// timing-noise-free cost of the Krylov restart a rejoin forces.
    pub iteration_overhead_percent: f64,
    /// Reliability-layer retransmissions summed over every link of the mesh.
    pub retransmits: u64,
    /// Chaos-injected frame faults summed over every link of the mesh.
    pub frame_faults: u64,
    /// Per-phase trace summary of the solve, present when the workers ran
    /// with `FEIR_TRACE=spans` in their environment.
    pub trace: Option<feir_trace::TraceSummary>,
}

/// All measurements of one [`NetFaultCampaign`] run.
#[derive(Debug, Clone)]
pub struct NetCampaignReport {
    /// The clean-mesh ideal baseline.
    pub baseline: NetCampaignBaseline,
    /// Every measured cell, in sweep order (policy, then rate, then
    /// schedule).
    pub cells: Vec<NetCampaignCell>,
}

impl NetCampaignReport {
    /// Renders the fixed-width overhead table (one row per cell).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "policy   rate   kill      conv  iters    time_ms  overhd%  it_ovh%  retrans  faults\n",
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<7}  {:>5.3}  {:<8}  {:>4}  {:>5}  {:>9.2}  {:>7.1}  {:>7.1}  {:>7}  {:>6}\n",
                cell.policy.name(),
                cell.fault_rate,
                cell.schedule.label(),
                if cell.converged { "yes" } else { "NO" },
                cell.iterations,
                cell.elapsed.as_secs_f64() * 1e3,
                cell.overhead_percent,
                cell.iteration_overhead_percent,
                cell.retransmits,
                cell.frame_faults,
            ));
        }
        out
    }
}

impl NetFaultCampaign {
    /// Runs the sweep. `worker` is the rank-worker executable (any binary
    /// whose main calls [`crate::process::worker_main`]). Every cell runs
    /// over Unix domain sockets in its own fresh rendezvous directory.
    pub fn run(&self, worker: &Path) -> Result<NetCampaignReport, ProcessError> {
        for schedule in &self.schedules {
            if let KillSchedule::KillRespawn { rank, .. } = schedule {
                if *rank == 0 || *rank >= self.ranks {
                    return Err(ProcessError::Spawn(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!(
                            "kill schedule targets rank {rank} of {} (rank 0 is the result \
                             collector, whose report carries the residual history, and cannot \
                             be respawned)",
                            self.ranks
                        ),
                    )));
                }
            }
        }
        let spec = ProcessSpec {
            solver: self.solver,
            grid: self.grid,
            rhs_seed: self.rhs_seed,
            ranks: self.ranks,
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
            page_doubles: self.page_doubles,
        };
        let (baseline_solve, baseline_elapsed) = self.run_cell(
            worker,
            &spec,
            RecoveryPolicy::Ideal,
            0.0,
            KillSchedule::None,
            0,
        )?;
        let baseline = NetCampaignBaseline {
            elapsed: baseline_elapsed,
            iterations: baseline_solve.iterations,
        };
        let overhead = |value: f64, base: f64| {
            if base > 0.0 {
                (value / base - 1.0) * 100.0
            } else {
                0.0
            }
        };
        let mut cells = Vec::new();
        for (pi, &policy) in self.policies.iter().enumerate() {
            for (fi, &rate) in self.frame_fault_rates.iter().enumerate() {
                for (si, &schedule) in self.schedules.iter().enumerate() {
                    let cell_seed = self
                        .seed
                        .wrapping_add(1_000_000 * pi as u64)
                        .wrapping_add(10_000 * fi as u64)
                        .wrapping_add(100 * si as u64);
                    let (solve, elapsed) =
                        self.run_cell(worker, &spec, policy, rate, schedule, cell_seed)?;
                    cells.push(NetCampaignCell {
                        policy,
                        fault_rate: rate,
                        schedule,
                        converged: solve.converged,
                        relative_residual: solve.relative_residual,
                        iterations: solve.iterations,
                        elapsed,
                        overhead_percent: overhead(
                            elapsed.as_secs_f64(),
                            baseline.elapsed.as_secs_f64(),
                        ),
                        iteration_overhead_percent: overhead(
                            solve.iterations as f64,
                            baseline.iterations as f64,
                        ),
                        retransmits: solve.net.retransmits,
                        frame_faults: solve.net.injected_faults,
                        trace: solve.trace.as_ref().map(feir_trace::SolveTrace::summary),
                    });
                }
            }
        }
        Ok(NetCampaignReport { baseline, cells })
    }

    fn run_cell(
        &self,
        worker: &Path,
        spec: &ProcessSpec,
        policy: RecoveryPolicy,
        rate: f64,
        schedule: KillSchedule,
        cell_seed: u64,
    ) -> Result<(crate::cg::DistSolveResult, Duration), ProcessError> {
        let dir = crate::process::fresh_run_dir().map_err(ProcessError::Spawn)?;
        let options = WorkerOptions {
            policy: Some(policy),
            elastic: !matches!(schedule, KillSchedule::None),
            chaos: (rate > 0.0).then_some(ChaosConfig {
                seed: cell_seed,
                rates: FaultRates {
                    drop: 0.4 * rate,
                    duplicate: 0.2 * rate,
                    delay: 0.2 * rate,
                    corrupt: 0.1 * rate,
                    truncate: 0.1 * rate,
                },
                fault_retransmits: false,
            }),
            throttle: (!self.throttle.is_zero()).then_some(self.throttle),
            ..WorkerOptions::default()
        };
        let started = Instant::now();
        let mut handles = spawn_workers_with(worker, spec, &Transport::Uds { dir }, &options)?;
        if let KillSchedule::KillRespawn { rank, after } = schedule {
            std::thread::sleep(after);
            handles.kill_rank(rank).map_err(ProcessError::Spawn)?;
            // Give the survivors a moment to notice and park at the barrier.
            std::thread::sleep(Duration::from_millis(30));
            handles.respawn_rank(rank).map_err(ProcessError::Spawn)?;
        }
        let solve = handles.join()?;
        Ok((solve, started.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d};

    #[test]
    fn campaign_sweeps_and_attributes_faults_to_ranks() {
        let a = poisson_2d(12);
        let (_, b) = manufactured_rhs(&a, 7);
        let campaign = FaultCampaign {
            solvers: vec![DistSolver::Cg],
            policies: vec![RecoveryPolicy::Afeir, RecoveryPolicy::Feir],
            rank_counts: vec![1, 3],
            error_frequencies: vec![0.0, 2.0],
            page_doubles: 16,
            tolerance: 1e-8,
            max_iterations: 20_000,
            seed: 42,
        };
        let report = campaign.run(&a, &b);
        assert_eq!(report.baselines.len(), 2);
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        assert!(report.baseline(DistSolver::Cg, 3).is_some());
        for cell in &report.cells {
            assert!(cell.converged, "{:?} did not converge", cell.policy);
            assert!(cell.overhead_percent.is_finite());
            assert_eq!(cell.per_rank().len(), cell.ranks);
            // Totals must be consistent with the per-rank breakdown.
            let sum: usize = cell.per_rank().iter().map(|s| s.injected).sum();
            assert_eq!(sum, cell.faults.total_injected());
            if cell.frequency == 0.0 {
                assert_eq!(cell.faults.total_injected(), 0);
                assert_eq!(cell.faulty_ranks(), 0);
            }
        }
        let table = campaign.run(&a, &b).table();
        assert!(table.contains("AFEIR") && table.contains("FEIR"));
        assert!(table.lines().count() >= 9);
    }

    /// A cell's faults come from seeded streams on the iteration clock, so
    /// running the campaign twice records the same cell: the same faults
    /// on the same ranks, the same iterations and page counters.
    #[test]
    fn a_campaign_cell_replays() {
        let a = poisson_2d(12);
        let (_, b) = manufactured_rhs(&a, 7);
        let campaign = FaultCampaign {
            solvers: vec![DistSolver::Pcg],
            policies: vec![RecoveryPolicy::Feir],
            rank_counts: vec![2],
            error_frequencies: vec![4.0],
            page_doubles: 16,
            tolerance: 1e-8,
            max_iterations: 2_000,
            seed: 7,
        };
        let record = |cell: &CampaignCell| {
            (
                cell.iterations,
                cell.converged,
                cell.faults.clone(),
                cell.pages_recovered,
                cell.cross_rank_values,
            )
        };
        let first = campaign.run(&a, &b);
        let cell = &first.cells[0];
        assert!(cell.faults.total_injected() > 0, "{:?}", cell.faults);
        assert!(cell.converged);
        assert_eq!(record(cell), record(&campaign.run(&a, &b).cells[0]));
    }

    #[test]
    fn solver_axis_covers_the_merged_variants() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 5);
        let campaign = FaultCampaign {
            solvers: vec![DistSolver::Cg, DistSolver::CgMerged, DistSolver::PcgMerged],
            policies: vec![RecoveryPolicy::Afeir, RecoveryPolicy::Feir],
            rank_counts: vec![2],
            error_frequencies: vec![0.0, 1.5],
            page_doubles: 10,
            tolerance: 1e-8,
            max_iterations: 20_000,
            seed: 11,
        };
        let report = campaign.run(&a, &b);
        assert_eq!(report.baselines.len(), 3);
        assert_eq!(report.cells.len(), 3 * 2 * 2);
        let classic = report.baseline(DistSolver::Cg, 2).unwrap();
        let merged = report.baseline(DistSolver::CgMerged, 2).unwrap();
        // Same Krylov space: the merged baseline's iteration count stays
        // within ±10% of classic CG's.
        let allowed = (classic.iterations as f64 * 0.10).ceil() as i64 + 1;
        assert!((merged.iterations as i64 - classic.iterations as i64).abs() <= allowed);
        for cell in &report.cells {
            assert!(cell.converged, "{:?} {:?}", cell.solver, cell.policy);
            if cell.frequency == 0.0 {
                assert_eq!(cell.iteration_overhead_percent, 0.0);
            }
        }
        let table = report.table();
        assert!(table.contains("cg_m") && table.contains("pcg_m"));
    }

    #[test]
    fn solver_axis_covers_cg_and_pcg_in_one_sweep() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 3);
        let campaign = FaultCampaign {
            solvers: vec![DistSolver::Cg, DistSolver::Pcg],
            policies: vec![RecoveryPolicy::Feir],
            rank_counts: vec![2],
            error_frequencies: vec![0.0, 1.5],
            page_doubles: 10,
            tolerance: 1e-8,
            max_iterations: 20_000,
            seed: 7,
        };
        let report = campaign.run(&a, &b);
        // One baseline and one cell row per solver × frequency.
        assert_eq!(report.baselines.len(), 2);
        assert_eq!(report.cells.len(), 2 * 2);
        let cg_base = report.baseline(DistSolver::Cg, 2).unwrap();
        let pcg_base = report.baseline(DistSolver::Pcg, 2).unwrap();
        // Block-Jacobi preconditioning must pay off in iterations.
        assert!(pcg_base.iterations < cg_base.iterations);
        for cell in &report.cells {
            assert!(cell.converged, "{:?} {:?}", cell.solver, cell.policy);
            // Each cell's iteration overhead is against its own solver's
            // baseline, so fault-free cells sit at exactly zero.
            if cell.frequency == 0.0 {
                assert_eq!(cell.iteration_overhead_percent, 0.0);
            }
        }
        let table = report.table();
        assert!(table.contains("pcg") && table.contains("cg"));
    }
}
