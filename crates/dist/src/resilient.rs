//! Distributed resilient solvers: cross-rank FEIR/AFEIR recovery under
//! scripted and seeded-stream faults (the paper's Section 3.4 scaling
//! configuration).
//!
//! On the MPI+OmpSs machine of the paper a DUE is *contained to the rank that
//! owns the faulted page*: the other ranks keep computing, and the recovering
//! rank reconstructs the lost block with the exact forward interpolations of
//! Table 1. The iteration machinery lives in two layers:
//!
//! * the solver-agnostic **engine** ([`feir_recovery::engine`]) owns the
//!   algebraic recovery relations
//!   ([`RecoverableIteration`](feir_recovery::RecoverableIteration),
//!   instantiated as [`CgRelations`], [`PcgRelations`] and their merged
//!   twins), the coupled-row page-reconstruction kernels and scrub-point
//!   fault materialisation;
//! * the generic per-rank loops (the crate-private `rank_loop` and
//!   `rank_loop_merged` modules) drive one relations instance per rank
//!   under the full [`RecoveryPolicy`] matrix, using the cross-rank
//!   request/reply round ([`RankComm::recovery_exchange`]) for
//!   interpolations whose stencil crosses a rank boundary and the
//!   **split-phase allreduce** ([`RankComm::start_allreduce`]) so AFEIR
//!   posts its recovery requests inside the reduction window.
//!
//! This module is the thin layer on top: configuration, per-rank fault
//! domains, the seeded fault stream lowered into scripted faults
//! ([`DistResilientSolver::with_fault_stream`]), the solver enum
//! [`DistSolver`] — whose crate-private `rank_solve` is the one place a
//! solver picks its rank loop, for the in-process threads here and for the
//! worker processes of [`crate::process`] alike — and the public entry
//! points [`DistResilientSolver`] and [`distributed_resilient_cg`] and its
//! three siblings. An unprotected solve
//! ([`distributed_cg`](crate::cg::distributed_cg),
//! [`distributed_pcg`](crate::pcg::distributed_pcg) and the merged pair) is
//! the same rank loop at [`RecoveryPolicy::Ideal`], so with **zero faults
//! every protected solve is bitwise-identical to the unprotected one**: the
//! scrub points do no floating-point work, the fault flag rides a reduction
//! the `Ideal` solve enters anyway, and every kernel call and reduction
//! happens in the same order on the same values.

use std::time::{Duration, Instant};

use feir_pagemem::{FaultStream, PageRegistry, VectorId};
use feir_recovery::report::DistributedFaultReport;
use feir_recovery::{
    CgRelations, MergedCgRelations, MergedPcgRelations, PcgRelations, RecoveryPolicy,
};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::{CsrMatrix, LocalBlockJacobi};

use crate::cg::DistSolveResult;
use crate::comm::{effective_ranks, CommError, HaloPlan, RankComm};
use crate::domains::RankDomains;
use crate::kernels;
use crate::partition::RankPartition;
use crate::rank_loop::{rank_resilient_solve, RankCtx, RankOutcome};
use crate::rank_loop_merged::rank_merged_resilient_solve;

/// The protected vectors of a distributed solve, in registration order
/// (their [`VectorId`]s are 0..=4 within each rank's registry; `Z` exists
/// only for the preconditioned solver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectedVector {
    /// The iterate `x`.
    X,
    /// The residual `g`.
    G,
    /// The search direction `d`.
    D,
    /// The matvec product `q = A·d`.
    Q,
    /// The preconditioned residual `z = M⁻¹g` (PCG only).
    Z,
}

impl ProtectedVector {
    /// The registry id of this vector inside any rank's fault domain.
    pub fn id(self) -> VectorId {
        VectorId(self as usize)
    }

    /// The vectors a rank protects, in registry-id order (`Z` only for a
    /// preconditioned solver).
    pub(crate) fn protected(preconditioned: bool) -> &'static [ProtectedVector] {
        use ProtectedVector::*;
        &[X, G, D, Q, Z][..if preconditioned { 5 } else { 4 }]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtectedVector::X => "x",
            ProtectedVector::G => "g",
            ProtectedVector::D => "d",
            ProtectedVector::Q => "q",
            ProtectedVector::Z => "z",
        }
    }
}

/// One deterministic fault scripted against a solve: at the top of
/// `iteration`, page `page` of `vector` in `rank`'s fault domain is poisoned.
///
/// The same fault always lands at the same point of the iteration space,
/// which is what the policy comparison tests and benchmark snapshots need;
/// a seeded [`FaultStream`] lowers into the same list
/// ([`DistResilientSolver::with_fault_stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Solver iteration at whose start the fault is injected.
    pub iteration: usize,
    /// Rank whose fault domain is hit.
    pub rank: usize,
    /// Target vector.
    pub vector: ProtectedVector,
    /// Page index within the rank-local vector.
    pub page: usize,
}

/// Configuration of a distributed resilient solve.
#[derive(Debug, Clone)]
pub struct DistResilienceConfig {
    /// The recovery policy applied on every rank.
    pub policy: RecoveryPolicy,
    /// Page size in doubles of the per-rank fault domains (512 = one 4 KiB
    /// page, the paper's value; tests use smaller pages so small matrices
    /// span several pages per rank). For the PCG solver this is also the
    /// block size of the rank-local block-Jacobi preconditioner.
    pub page_doubles: usize,
    /// Convergence tolerance on the relative residual.
    pub tolerance: f64,
    /// Iteration cap (counting re-done iterations after rollbacks/restarts).
    pub max_iterations: usize,
    /// Deterministic faults injected at fixed iterations (see
    /// [`ScriptedFault`]). Ignored under [`RecoveryPolicy::Ideal`], which
    /// protects nothing.
    pub scripted_faults: Vec<ScriptedFault>,
}

impl Default for DistResilienceConfig {
    fn default() -> Self {
        Self {
            policy: RecoveryPolicy::Feir,
            page_doubles: feir_sparse::PAGE_DOUBLES,
            tolerance: 1e-10,
            max_iterations: 10_000,
            scripted_faults: Vec::new(),
        }
    }
}

impl DistResilienceConfig {
    /// Configuration for `policy` with every other field defaulted.
    pub fn for_policy(policy: RecoveryPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Builder-style setter for the page size.
    pub fn with_page_doubles(mut self, page_doubles: usize) -> Self {
        self.page_doubles = page_doubles.max(1);
        self
    }

    /// Builder-style setter for the tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Builder-style setter for the iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Builder-style setter for the scripted fault schedule.
    pub fn with_scripted_faults(mut self, faults: Vec<ScriptedFault>) -> Self {
        self.scripted_faults = faults;
        self
    }

    /// Every rank's fault pages under `partition`: its row block cut into
    /// `page_doubles`-sized pages, clamped to at least one double. The one
    /// place a rank's pages are computed.
    pub(crate) fn rank_pages(&self, partition: &RankPartition) -> Vec<BlockPartition> {
        (0..partition.num_ranks())
            .map(|rank| BlockPartition::new(partition.range(rank).len(), self.page_doubles.max(1)))
            .collect()
    }
}

/// Outcome of a distributed resilient solve.
#[derive(Debug, Clone)]
pub struct DistResilientReport {
    /// Solver that ran, by [`DistSolver::name`].
    pub solver: &'static str,
    /// The assembled solution.
    pub x: Vec<f64>,
    /// Iterations performed, counting re-done work after rollbacks/restarts.
    pub iterations: usize,
    /// Final relative residual, recomputed serially on the assembled
    /// solution (honest even when a policy corrupted the solver's own ε).
    pub relative_residual: f64,
    /// True if the explicit residual meets the tolerance.
    pub converged: bool,
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Policy that ran.
    pub policy: RecoveryPolicy,
    /// Relative residual estimate at every convergence check. With zero
    /// faults this is bitwise-identical to
    /// [`DistSolveResult::residual_history`](crate::cg::DistSolveResult).
    pub residual_history: Vec<f64>,
    /// Per-rank fault attribution (registry counters).
    pub faults: DistributedFaultReport,
    /// Pages reconstructed exactly or lossily across all ranks.
    pub pages_recovered: usize,
    /// Subset of `pages_recovered` reconstructed by the cross-rank coupled
    /// exchange (stencil-adjacent losses spanning a rank boundary that no
    /// single rank could solve alone).
    pub pages_coupled: usize,
    /// Pages blank-accepted because no recovery relation was solvable
    /// (simultaneous related losses — the paper "simply ignores" these).
    pub pages_ignored: usize,
    /// Values fetched across rank boundaries by the recovery protocol.
    pub cross_rank_values: usize,
    /// Checkpoint rollbacks (checkpoint policy only).
    pub rollbacks: usize,
    /// Krylov restarts (β = 0): after a loss (TrivialReplace, LossyRestart),
    /// a blank-accepted page (FEIR, AFEIR) or an elastic rejoin.
    pub restarts: usize,
    /// Collectives rank 0 entered (see
    /// [`DistSolveResult::allreduces`](crate::cg::DistSolveResult)). For the
    /// merged solvers under the forward policies this stays at one per
    /// fault-free iteration even though the fault flag travels too — it
    /// rides inside the same vector allreduce.
    pub allreduces: u64,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Per-rank trace streams, present when `FEIR_TRACE=spans` was active
    /// during the solve (see [`feir_trace`]). `None` otherwise.
    pub trace: Option<feir_trace::SolveTrace>,
}

/// The four distributed solvers. The discriminant is the solver's code in a
/// worker's launch frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistSolver {
    /// Classic distributed CG.
    Cg = 0,
    /// Block-Jacobi distributed PCG (rank-local page blocks).
    Pcg = 1,
    /// Merged-reduction (Chronopoulos–Gear) CG: one vector allreduce per
    /// iteration.
    CgMerged = 2,
    /// Merged-reduction block-Jacobi PCG: one vector allreduce per
    /// iteration (versus classic PCG's three).
    PcgMerged = 3,
}

impl DistSolver {
    /// Every solver, in code order.
    pub const ALL: [DistSolver; 4] = [
        DistSolver::Cg,
        DistSolver::Pcg,
        DistSolver::CgMerged,
        DistSolver::PcgMerged,
    ];

    /// Short name, as reports and overhead tables print it.
    pub fn name(self) -> &'static str {
        match self {
            DistSolver::Cg => "cg",
            DistSolver::Pcg => "pcg",
            DistSolver::CgMerged => "cg_merged",
            DistSolver::PcgMerged => "pcg_merged",
        }
    }

    /// True for the block-Jacobi solvers, which protect `z` as well.
    pub fn preconditioned(self) -> bool {
        matches!(self, DistSolver::Pcg | DistSolver::PcgMerged)
    }

    /// Runs this solver's rank loop on one rank under `ctx.policy` (inside
    /// the elastic rejoin harness when `ctx.elastic` is set); an
    /// unprotected solve runs it at [`RecoveryPolicy::Ideal`]. The one place
    /// a solver chooses its rank loop; both backends call it. The relations
    /// and the block-Jacobi factor are built here, inside the rank: on a
    /// real machine they are rank-local setup work.
    pub(crate) fn rank_solve(
        self,
        ctx: RankCtx<'_>,
        comm: RankComm,
    ) -> Result<RankOutcome, CommError> {
        use DistSolver::*;
        let (a, b) = (ctx.a, ctx.b);
        let (own, block) = (ctx.own.clone(), ctx.pages.block_size());
        // Invariant: `a` is square and `own` lies in its rows, which every
        // entry point checks before a rank starts.
        let factor = || {
            LocalBlockJacobi::new(a, own.clone(), block)
                .expect("rank-local block-Jacobi construction failed")
        };
        match self {
            CgMerged | PcgMerged if ctx.elastic.is_some() => Err(CommError::Protocol(format!(
                "{} has no rejoin repair: an elastic fleet runs only the classic cg and pcg \
                 solvers",
                self.name()
            ))),
            Cg => rank_resilient_solve(ctx, &CgRelations::new(a, b), comm),
            Pcg => rank_resilient_solve(ctx, &PcgRelations::new(a, b, &factor()), comm),
            CgMerged => rank_merged_resilient_solve(ctx, &MergedCgRelations::new(a, b), comm),
            PcgMerged => {
                rank_merged_resilient_solve(ctx, &MergedPcgRelations::new(a, b, &factor()), comm)
            }
        }
    }
}

/// Registers the protected vectors of `solver` in one rank's fault domain,
/// one page each per block of `pages`, in [`ProtectedVector`] id order.
pub(crate) fn register_protected(
    registry: &PageRegistry,
    rank: usize,
    solver: DistSolver,
    pages: &BlockPartition,
) {
    for vector in ProtectedVector::protected(solver.preconditioned()) {
        let id = registry.register(format!("rank{rank}/{}", vector.name()), pages.num_blocks());
        debug_assert_eq!(id, vector.id());
    }
}

/// A distributed solver bound to one system, one rank count and one set of
/// per-rank fault domains — any [`DistSolver`] under any
/// [`RecoveryPolicy`].
///
/// Create the solver first, then attach faults (scripted faults in the
/// config, a seeded stream through [`DistResilientSolver::with_fault_stream`],
/// or direct [`feir_pagemem::PageRegistry::inject`] calls on
/// [`DistResilientSolver::domains`]) and finally call
/// [`DistResilientSolver::solve`].
pub struct DistResilientSolver<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    ranks: usize,
    solver: DistSolver,
    config: DistResilienceConfig,
    partition: RankPartition,
    /// Each rank's fault pages ([`DistResilienceConfig::rank_pages`]).
    pages: Vec<BlockPartition>,
    plan: HaloPlan,
    domains: RankDomains,
}

impl<'a> DistResilientSolver<'a> {
    /// Creates the resilient `solver` and, when the policy protects
    /// anything, registers every rank's protected vectors in its fault
    /// domain: `x`, `g`, `d`, `q`, and `z` for a preconditioned solver. The
    /// merged solvers map their vectors onto the same ids (`r` at `G`, `p`
    /// at `D`, `s = A·p` at `Q`, `u = M⁻¹·r` at `Z`), so fault scripts and
    /// campaigns target both families alike. The block-Jacobi blocks match
    /// the fault pages (`config.page_doubles`), so the factorization that
    /// *recovers* a lost `z` page is the one the preconditioner already
    /// owns — why the paper pairs page-sized Jacobi blocks with FEIR
    /// (Section 5.1).
    ///
    /// # Panics
    /// Panics if the matrix is not square, `b` has the wrong length, or a
    /// scripted fault targets a rank/page/vector outside the solve.
    pub fn new(
        solver: DistSolver,
        a: &'a CsrMatrix,
        b: &'a [f64],
        ranks: usize,
        config: DistResilienceConfig,
    ) -> Self {
        assert_eq!(
            a.rows(),
            a.cols(),
            "distributed solve needs a square matrix"
        );
        assert_eq!(a.rows(), b.len(), "rhs length mismatch");
        let ranks = effective_ranks(a.rows(), ranks);
        let partition = RankPartition::new(a.rows(), ranks);
        let plan = HaloPlan::build(a, &partition);
        let domains = RankDomains::new(ranks);
        let protected = ProtectedVector::protected(solver.preconditioned());
        let pages = config.rank_pages(&partition);
        if config.policy.needs_protection() {
            for (rank, local) in pages.iter().enumerate() {
                register_protected(&domains.registry(rank), rank, solver, local);
            }
            // A scripted fault outside the (possibly clamped)
            // rank/page/vector space would silently never fire and the
            // experiment would measure a fault-free run while claiming
            // otherwise — reject it up front.
            for fault in &config.scripted_faults {
                assert!(
                    fault.rank < ranks,
                    "scripted fault targets rank {} but the solve runs on {ranks} ranks \
                     (rank count is clamped to the problem size)",
                    fault.rank
                );
                assert!(
                    protected.contains(&fault.vector),
                    "scripted fault targets vector {} which this solver does not protect \
                     (z exists only for the preconditioned solver)",
                    fault.vector.name()
                );
                assert!(
                    fault.page < pages[fault.rank].num_blocks(),
                    "scripted fault targets page {} of {} on rank {}, which has {} pages",
                    fault.page,
                    fault.vector.name(),
                    fault.rank,
                    pages[fault.rank].num_blocks()
                );
            }
        }
        Self {
            a,
            b,
            ranks,
            solver,
            config,
            partition,
            pages,
            plan,
            domains,
        }
    }

    /// The per-rank fault domains targeted by this solve.
    pub fn domains(&self) -> &RankDomains {
        &self.domains
    }

    /// Adds the DUEs `stream` draws to the scripted faults. The rank loops
    /// read faults at the top of each iteration, so each iteration up to
    /// the cap is one arrival point; rank `r` draws at the stream's rank
    /// coordinate `r` (an independent stream per rank) and strikes a page
    /// uniformly over its protected vectors. For a machine-wide rate of `n`
    /// DUEs per baseline solve of `k` iterations split over `R` ranks, use
    /// a mean of `R·k ÷ n` iterations. Ignored under
    /// [`RecoveryPolicy::Ideal`], which protects nothing.
    pub fn with_fault_stream(mut self, stream: &FaultStream) -> Self {
        if !self.config.policy.needs_protection() {
            return self;
        }
        let protected = ProtectedVector::protected(self.solver.preconditioned());
        for rank in 0..self.ranks {
            let pages = self.pages[rank].num_blocks();
            for iteration in 0..self.config.max_iterations {
                for flat in stream.draw(rank, iteration, 0, 1, protected.len() * pages) {
                    self.config.scripted_faults.push(ScriptedFault {
                        iteration,
                        rank,
                        vector: protected[flat / pages],
                        page: flat % pages,
                    });
                }
            }
        }
        self
    }

    /// Number of simulated ranks (after clamping to the problem size).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The configuration in use.
    pub fn config(&self) -> &DistResilienceConfig {
        &self.config
    }

    /// Runs [`DistSolver::rank_solve`] under the configured policy on one
    /// thread per rank and folds the outcomes.
    fn run_ranks(&self) -> RankOutcome {
        let (a, b, partition, config) = (self.a, self.b, &self.partition, &self.config);
        let comms = RankComm::for_ranks(&self.plan, self.ranks);
        let outcomes: Vec<RankOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.ranks);
            for comm in comms {
                let rank = comm.rank();
                let registry = self.domains.registry(rank);
                let pages = self.pages[rank];
                let ctx = RankCtx::new(a, b, partition, rank, config, registry, pages);
                handles.push(scope.spawn(move || {
                    feir_trace::set_thread_rank(rank as u32);
                    self.solver.rank_solve(ctx, comm)
                }));
            }
            // On the in-process backend a comm error implies a dead sibling
            // thread, which the join reports first.
            handles
                .into_iter()
                .map(|handle| handle.join().expect("rank thread panicked"))
                .map(|outcome| outcome.expect("in-process comm failed"))
                .collect()
        });
        RankOutcome::fold(partition, outcomes)
    }

    /// Runs the solve. Consumes the solver (the protected vectors are bound
    /// to this run's fault domains).
    pub fn solve(self) -> DistResilientReport {
        let start = Instant::now();
        let outcome = self.run_ranks();

        // Explicit residual on the assembled solution: honest convergence
        // reporting even when blank-accepted pages corrupted the solver's ε.
        let relative_residual = kernels::explicit_relative_residual(self.a, self.b, &outcome.x);

        let mut faults = DistributedFaultReport::new(self.ranks);
        for counts in self.domains.per_rank_counts() {
            faults.set_registry_counts(
                counts.rank,
                counts.injected,
                counts.discovered,
                counts.recovered,
            );
        }

        DistResilientReport {
            solver: self.solver.name(),
            x: outcome.x,
            iterations: outcome.iterations,
            relative_residual,
            converged: relative_residual <= self.config.tolerance,
            ranks: self.ranks,
            policy: self.config.policy,
            residual_history: outcome.history,
            faults,
            pages_recovered: outcome.pages.recovered,
            pages_coupled: outcome.pages.coupled,
            pages_ignored: outcome.pages.ignored,
            cross_rank_values: outcome.pages.cross_rank_values,
            rollbacks: outcome.rollbacks,
            restarts: outcome.restarts,
            allreduces: outcome.allreduces,
            elapsed: start.elapsed(),
            trace: crate::cg::collect_thread_trace(),
        }
    }
}

/// The unprotected solve of `solver` on in-process ranks: its rank loop at
/// [`RecoveryPolicy::Ideal`], which protects nothing. The body of
/// [`distributed_cg`](crate::cg::distributed_cg) and its three siblings.
pub(crate) fn plain_solve(
    solver: DistSolver,
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    page_doubles: usize,
    tolerance: f64,
    max_iterations: usize,
) -> DistSolveResult {
    let config = DistResilienceConfig::for_policy(RecoveryPolicy::Ideal)
        .with_page_doubles(page_doubles)
        .with_tolerance(tolerance)
        .with_max_iterations(max_iterations);
    let solve = DistResilientSolver::new(solver, a, b, ranks, config);
    let outcome = solve.run_ranks();
    DistSolveResult {
        trace: crate::cg::collect_thread_trace(),
        ..DistSolveResult::assemble(a, b, tolerance, solve.ranks, outcome)
    }
}

/// One-shot form of the resilient CG: builds the solver and runs it under
/// the scripted faults in `config`. With zero faults the solve is
/// bitwise-identical to [`distributed_cg`](crate::cg::distributed_cg), the
/// same rank loop at [`RecoveryPolicy::Ideal`].
pub fn distributed_resilient_cg(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::new(DistSolver::Cg, a, b, ranks, config).solve()
}

/// One-shot form of the resilient block-Jacobi PCG. With zero faults the
/// solve is bitwise-identical to
/// [`distributed_pcg`](crate::pcg::distributed_pcg) at the same page size,
/// the same rank loop at [`RecoveryPolicy::Ideal`].
pub fn distributed_resilient_pcg(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::new(DistSolver::Pcg, a, b, ranks, config).solve()
}

/// One-shot form of the resilient merged-reduction CG. With zero faults the
/// solve is bitwise-identical to
/// [`distributed_cg_merged`](crate::merged::distributed_cg_merged), the same
/// rank loop at [`RecoveryPolicy::Ideal`], and the
/// forward policies still issue exactly one allreduce per fault-free
/// iteration — the fault flag rides inside the vector collective. Extra
/// scalar collectives appear only where unavoidable: on *faulted* forward
/// rounds (the blank-acceptance restart flag) and in the checkpoint/lossy
/// baselines' end-of-iteration sweeps.
pub fn distributed_resilient_cg_merged(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::new(DistSolver::CgMerged, a, b, ranks, config).solve()
}

/// One-shot form of the resilient merged-reduction block-Jacobi PCG. With
/// zero faults the solve is bitwise-identical to
/// [`distributed_pcg_merged`](crate::merged::distributed_pcg_merged) at the
/// same page size, the same rank loop at [`RecoveryPolicy::Ideal`].
pub fn distributed_resilient_pcg_merged(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::new(DistSolver::PcgMerged, a, b, ranks, config).solve()
}
