//! Distributed resilient solvers: cross-rank FEIR/AFEIR recovery with live
//! fault injection (the paper's Section 3.4 scaling configuration).
//!
//! On the MPI+OmpSs machine of the paper a DUE is *contained to the rank that
//! owns the faulted page*: the other ranks keep computing, and the recovering
//! rank reconstructs the lost block with the exact forward interpolations of
//! Table 1. Since PR 4 the actual iteration machinery lives in two layers:
//!
//! * the solver-agnostic **engine** ([`feir_recovery::engine`]) owns the
//!   algebraic recovery relations
//!   ([`RecoverableIteration`](feir_recovery::RecoverableIteration),
//!   instantiated here as [`CgRelations`] and [`PcgRelations`]), the
//!   coupled-row page-reconstruction kernels, scrub-point fault
//!   materialisation and the FEIR/AFEIR overlap scheduler;
//! * the generic per-rank loop (the crate-private `rank_loop` module)
//!   drives one relations instance per rank under the full
//!   [`RecoveryPolicy`] matrix, using the cross-rank request/reply round
//!   ([`RankComm::recovery_exchange`]) for
//!   interpolations whose stencil crosses a rank boundary and the
//!   **split-phase allreduce** ([`RankComm::start_allreduce`]) so AFEIR
//!   overlaps page reconstruction with the reduction wait itself.
//!
//! This module is the thin instantiation layer on top: configuration,
//! per-rank fault domains, live injection ([`InjectionDriver`]), and the
//! public entry points [`distributed_resilient_cg`] /
//! [`distributed_resilient_pcg`] (block-Jacobi preconditioner with
//! rank-local page blocks, applied without communication). With **zero
//! faults both solvers are bitwise-identical to their plain counterparts**
//! ([`distributed_cg`](crate::cg::distributed_cg) /
//! [`distributed_pcg`](crate::pcg::distributed_pcg)): the scrub points do no
//! floating-point work, the fault flag rides the ε reduction as a second
//! lane (so a fault-free iteration enters the plain loop's 2 or 3
//! collectives), and every kernel call and reduction happens in the same
//! order on the same values.

use std::time::{Duration, Instant};

use feir_pagemem::{FaultInjector, InjectionPlan, InjectionReport, VectorId};
use feir_recovery::report::DistributedFaultReport;
use feir_recovery::{
    CgRelations, MergedCgRelations, MergedPcgRelations, PcgRelations, RecoveryPolicy,
};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::{CsrMatrix, LocalBlockJacobi};

// The coupled-row reconstruction kernels moved into the engine in PR 4;
// re-exported here so existing callers (and the cross-boundary tests) keep
// their import paths.
pub use feir_recovery::engine::{
    lossy_interpolate_rows, recover_direction_rows, recover_iterate_rows,
};

use crate::comm::{effective_ranks, HaloPlan, RankComm};
use crate::domains::RankDomains;
use crate::kernels;
use crate::partition::RankPartition;
use crate::rank_loop::{rank_resilient_solve, RankCtx};
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
/// Scripted faults complement the live (timing-based) [`InjectionDriver`]
/// streams with exactly reproducible experiments — the same fault always
/// lands at the same point of the iteration space, which is what the policy
/// comparison tests and benchmark snapshots need.
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
}

/// One live [`FaultInjector`] stream per rank, attached to the per-rank
/// registries of a [`RankDomains`].
///
/// This is the distributed version of the paper's injection methodology
/// (Section 5.3): every rank has an independent error process against its own
/// memory, so a DUE is always attributable to exactly one rank.
pub struct InjectionDriver {
    injectors: Vec<FaultInjector>,
}

impl InjectionDriver {
    /// Starts one injector per rank with the given per-rank plans.
    ///
    /// # Panics
    /// Panics if `plans.len()` differs from the number of ranks.
    pub fn start(domains: &RankDomains, plans: Vec<InjectionPlan>) -> Self {
        assert_eq!(
            plans.len(),
            domains.num_ranks(),
            "need exactly one injection plan per rank"
        );
        let injectors = plans
            .into_iter()
            .enumerate()
            .map(|(rank, plan)| FaultInjector::start(domains.registry(rank), plan))
            .collect();
        Self { injectors }
    }

    /// Starts one injector per rank from a single template plan. Exponential
    /// plans get a per-rank seed offset so the streams are independent (the
    /// MTBE is per rank: divide a machine-wide frequency by the rank count
    /// before calling this).
    pub fn start_uniform(domains: &RankDomains, plan: &InjectionPlan) -> Self {
        let plans = (0..domains.num_ranks())
            .map(|rank| match plan {
                InjectionPlan::Exponential { mtbe, seed } => InjectionPlan::Exponential {
                    mtbe: *mtbe,
                    seed: seed.wrapping_add(rank as u64),
                },
                other => other.clone(),
            })
            .collect();
        Self::start(domains, plans)
    }

    /// Number of rank streams.
    pub fn num_ranks(&self) -> usize {
        self.injectors.len()
    }

    /// Stops every stream and returns the per-rank injection reports, in
    /// rank order.
    pub fn stop(self) -> Vec<InjectionReport> {
        self.injectors
            .into_iter()
            .map(FaultInjector::stop)
            .collect()
    }
}

/// Outcome of a distributed resilient solve.
#[derive(Debug, Clone)]
pub struct DistResilientReport {
    /// Solver variant that ran (`"cg"` or `"pcg"`).
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
    /// Per-rank fault attribution (registry counters; attach the injector
    /// view with [`DistResilientReport::absorb_injection_reports`]).
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
    /// Restarts (Lossy Restart policy only).
    pub restarts: usize,
    /// Collectives rank 0 entered (see
    /// [`DistSolveResult::allreduces`](crate::cg::DistSolveResult)). For the
    /// merged solvers under the forward policies this stays at one per
    /// iteration even though the fault flag travels too — it rides inside
    /// the same vector allreduce.
    pub allreduces: u64,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Per-rank trace streams, present when `FEIR_TRACE=spans` was active
    /// during the solve (see [`feir_trace`]). `None` otherwise.
    pub trace: Option<feir_trace::SolveTrace>,
}

impl DistResilientReport {
    /// Folds the per-rank injector reports returned by
    /// [`InjectionDriver::stop`] into the fault attribution.
    pub fn absorb_injection_reports(&mut self, reports: &[InjectionReport]) {
        self.faults.absorb_injection_reports(reports);
    }
}

/// Which engine instantiation a [`DistResilientSolver`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SolverKind {
    Cg,
    Pcg,
    CgMerged,
    PcgMerged,
}

impl SolverKind {
    fn name(self) -> &'static str {
        match self {
            SolverKind::Cg => "cg",
            SolverKind::Pcg => "pcg",
            SolverKind::CgMerged => "cg_merged",
            SolverKind::PcgMerged => "pcg_merged",
        }
    }

    fn preconditioned(self) -> bool {
        matches!(self, SolverKind::Pcg | SolverKind::PcgMerged)
    }
}

/// A distributed resilient solver bound to one system, one rank count and
/// one set of per-rank fault domains — CG or block-Jacobi PCG, both thin
/// instantiations of the engine's generic per-rank loop.
///
/// Create the solver first, then attach injection (an [`InjectionDriver`] on
/// [`DistResilientSolver::domains`], scripted faults in the config, or
/// direct [`feir_pagemem::PageRegistry::inject`] calls) and finally call
/// [`DistResilientSolver::solve`].
pub struct DistResilientSolver<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    ranks: usize,
    kind: SolverKind,
    config: DistResilienceConfig,
    partition: RankPartition,
    plan: HaloPlan,
    domains: RankDomains,
    pages: Vec<BlockPartition>,
}

/// The historical name of the CG instantiation;
/// [`DistResilientSolver::new`] still builds exactly that solver.
pub type DistResilientCg<'a> = DistResilientSolver<'a>;

impl<'a> DistResilientSolver<'a> {
    /// Creates the resilient **CG** solver (equivalent to
    /// [`DistResilientSolver::cg`]; kept as `new` for source compatibility
    /// with the pre-engine API).
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], ranks: usize, config: DistResilienceConfig) -> Self {
        Self::cg(a, b, ranks, config)
    }

    /// Creates the resilient CG solver and registers the protected vectors
    /// (`x`, `g`, `d`, `q`) of every rank in its fault domain.
    ///
    /// # Panics
    /// Panics if the matrix is not square, `b` has the wrong length, or a
    /// scripted fault targets a rank/page/vector outside the solve.
    pub fn cg(a: &'a CsrMatrix, b: &'a [f64], ranks: usize, config: DistResilienceConfig) -> Self {
        Self::build(a, b, ranks, config, SolverKind::Cg)
    }

    /// Creates the resilient block-Jacobi **PCG** solver; the protected set
    /// gains the preconditioned residual `z`, and the preconditioner blocks
    /// match the fault pages (`config.page_doubles`) so the factorization
    /// needed to *recover* a lost `z` page is the one the preconditioner
    /// already owns — the reason the paper pairs page-sized Jacobi blocks
    /// with FEIR (Section 5.1).
    ///
    /// # Panics
    /// Same conditions as [`DistResilientSolver::cg`].
    pub fn pcg(a: &'a CsrMatrix, b: &'a [f64], ranks: usize, config: DistResilienceConfig) -> Self {
        Self::build(a, b, ranks, config, SolverKind::Pcg)
    }

    /// Creates the resilient **merged-reduction CG** solver (the pipelined
    /// Chronopoulos–Gear hot path of
    /// [`distributed_cg_merged`](crate::merged::distributed_cg_merged)). The
    /// protected ids map onto the merged vectors: `x` (iterate), `r`
    /// (residual, id `G`), `p` (direction, id `D`) and `s = A·p` (id `Q`);
    /// the forward policies fold their fault flag into the iteration's one
    /// vector allreduce, so the fault-free solve is bitwise-identical to the
    /// plain merged loop *and* still issues exactly one collective per
    /// iteration.
    ///
    /// # Panics
    /// Same conditions as [`DistResilientSolver::cg`].
    pub fn cg_merged(
        a: &'a CsrMatrix,
        b: &'a [f64],
        ranks: usize,
        config: DistResilienceConfig,
    ) -> Self {
        Self::build(a, b, ranks, config, SolverKind::CgMerged)
    }

    /// Creates the resilient **merged-reduction block-Jacobi PCG** solver
    /// (the engine twin of
    /// [`distributed_pcg_merged`](crate::merged::distributed_pcg_merged));
    /// the protected set gains `u = M⁻¹·r` at id `Z`, re-solved from the
    /// factorized diagonal blocks exactly like classic PCG's `z`.
    ///
    /// # Panics
    /// Same conditions as [`DistResilientSolver::cg`].
    pub fn pcg_merged(
        a: &'a CsrMatrix,
        b: &'a [f64],
        ranks: usize,
        config: DistResilienceConfig,
    ) -> Self {
        Self::build(a, b, ranks, config, SolverKind::PcgMerged)
    }

    fn build(
        a: &'a CsrMatrix,
        b: &'a [f64],
        ranks: usize,
        config: DistResilienceConfig,
        kind: SolverKind,
    ) -> Self {
        assert_eq!(a.rows(), a.cols(), "resilient solve needs a square matrix");
        assert_eq!(a.rows(), b.len(), "rhs length mismatch");
        let ranks = effective_ranks(a.rows(), ranks);
        let partition = RankPartition::new(a.rows(), ranks);
        let plan = HaloPlan::build(a, &partition);
        let domains = RankDomains::new(ranks);
        // The merged solvers reuse the classic ids for their renamed
        // vectors (G = r, D = p, Q = s, Z = u), so fault scripts and
        // campaigns target both families uniformly.
        let protected = ProtectedVector::protected(kind.preconditioned());
        // Clamp like `distributed_pcg` does, so the bitwise-identity pairing
        // of the plain and resilient entry points holds for every input.
        let page_doubles = config.page_doubles.max(1);
        let mut pages = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let local = BlockPartition::new(partition.range(rank).len(), page_doubles);
            if config.policy.needs_protection() {
                let registry = domains.registry(rank);
                for vector in protected {
                    let id = registry
                        .register(format!("rank{rank}/{}", vector.name()), local.num_blocks());
                    debug_assert_eq!(id, vector.id());
                }
            }
            pages.push(local);
        }
        // A scripted fault outside the (possibly clamped) rank/page/vector
        // space would silently never fire and the experiment would measure a
        // fault-free run while claiming otherwise — reject it up front.
        if config.policy.needs_protection() {
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
            kind,
            config,
            partition,
            plan,
            domains,
            pages,
        }
    }

    /// The per-rank fault domains targeted by this solve; hand them to an
    /// [`InjectionDriver`] for live injection.
    pub fn domains(&self) -> &RankDomains {
        &self.domains
    }

    /// Number of simulated ranks (after clamping to the problem size).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The configuration in use.
    pub fn config(&self) -> &DistResilienceConfig {
        &self.config
    }

    /// Runs the solve. Consumes the solver (the protected vectors are bound
    /// to this run's fault domains).
    pub fn solve(self) -> DistResilientReport {
        let start = Instant::now();
        let n = self.a.rows();
        let comms = RankComm::for_ranks(&self.plan, self.ranks);
        let kind = self.kind;

        let mut x = vec![0.0; n];
        let mut iterations = 0;
        let mut residual_history = Vec::new();
        let mut pages_recovered = 0;
        let mut pages_coupled = 0;
        let mut pages_ignored = 0;
        let mut cross_rank_values = 0;
        let mut rollbacks = 0;
        let mut restarts = 0;
        let mut allreduces = 0;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.ranks);
            for comm in comms {
                let rank = comm.rank();
                let ctx = RankCtx {
                    a: self.a,
                    b: self.b,
                    policy: self.config.policy,
                    tolerance: self.config.tolerance,
                    max_iterations: self.config.max_iterations,
                    rank,
                    own: self.partition.range(rank),
                    pages: self.pages[rank],
                    registry: self.domains.registry(rank),
                    partition: self.partition.clone(),
                    scripted: self
                        .config
                        .scripted_faults
                        .iter()
                        .filter(|f| f.rank == rank)
                        .copied()
                        .collect(),
                    throttle: Duration::ZERO,
                };
                handles.push(scope.spawn(move || {
                    feir_trace::set_thread_rank(rank as u32);
                    // The engine relations are built inside the rank thread:
                    // on a real machine the preconditioner factorization is
                    // rank-local work.
                    match kind {
                        SolverKind::Cg => {
                            let relations = CgRelations::new(ctx.a, ctx.b);
                            rank_resilient_solve(ctx, &relations, comm)
                        }
                        SolverKind::Pcg => {
                            let jacobi = LocalBlockJacobi::new(
                                ctx.a,
                                ctx.own.clone(),
                                ctx.pages.block_size(),
                                true,
                            )
                            .expect("rank-local block-Jacobi construction failed");
                            let relations = PcgRelations::new(ctx.a, ctx.b, &jacobi);
                            rank_resilient_solve(ctx, &relations, comm)
                        }
                        SolverKind::CgMerged => {
                            let relations = MergedCgRelations::new(ctx.a, ctx.b);
                            rank_merged_resilient_solve(ctx, &relations, comm)
                        }
                        SolverKind::PcgMerged => {
                            let jacobi = LocalBlockJacobi::new(
                                ctx.a,
                                ctx.own.clone(),
                                ctx.pages.block_size(),
                                true,
                            )
                            .expect("rank-local block-Jacobi construction failed");
                            let relations = MergedPcgRelations::new(ctx.a, ctx.b, &jacobi);
                            rank_merged_resilient_solve(ctx, &relations, comm)
                        }
                    }
                }));
            }
            for handle in handles {
                // On the in-process backend a comm error implies a dead
                // sibling thread, which the join reports first.
                let outcome = handle
                    .join()
                    .expect("rank thread panicked")
                    .expect("in-process comm failed");
                x[self.partition.range(outcome.rank)].copy_from_slice(&outcome.x_own);
                iterations = outcome.iterations;
                if outcome.rank == 0 {
                    residual_history = outcome.history;
                }
                pages_recovered += outcome.pages_recovered;
                pages_coupled += outcome.pages_coupled;
                pages_ignored += outcome.pages_ignored;
                cross_rank_values += outcome.cross_rank_values;
                // Rollbacks and restarts are global events: every rank
                // executes them together, so any one rank's count is the
                // machine count.
                if outcome.rank == 0 {
                    rollbacks = outcome.rollbacks;
                    restarts = outcome.restarts;
                    allreduces = outcome.allreduces;
                }
            }
        });

        // Explicit residual on the assembled solution: honest convergence
        // reporting even when blank-accepted pages corrupted the solver's ε.
        let relative_residual = kernels::explicit_relative_residual(self.a, self.b, &x);

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
            solver: kind.name(),
            x,
            iterations,
            relative_residual,
            converged: relative_residual <= self.config.tolerance,
            ranks: self.ranks,
            policy: self.config.policy,
            residual_history,
            faults,
            pages_recovered,
            pages_coupled,
            pages_ignored,
            cross_rank_values,
            rollbacks,
            restarts,
            allreduces,
            elapsed: start.elapsed(),
            trace: crate::cg::collect_thread_trace(),
        }
    }
}

/// One-shot form of the resilient CG: builds the solver and runs it with no
/// live injection (scripted faults in `config` still apply).
pub fn distributed_resilient_cg(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::cg(a, b, ranks, config).solve()
}

/// One-shot form of the resilient block-Jacobi PCG (see
/// [`DistResilientSolver::pcg`]). With zero faults the solve is
/// bitwise-identical to [`distributed_pcg`](crate::pcg::distributed_pcg) at
/// the same page size.
pub fn distributed_resilient_pcg(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::pcg(a, b, ranks, config).solve()
}

/// One-shot form of the resilient merged-reduction CG (see
/// [`DistResilientSolver::cg_merged`]). With zero faults the solve is
/// bitwise-identical to
/// [`distributed_cg_merged`](crate::merged::distributed_cg_merged), and the
/// forward policies still issue exactly one allreduce per fault-free
/// iteration — the fault flag rides inside the vector collective. Extra
/// scalar collectives appear only where unavoidable: on *faulted* forward
/// rounds (the blank-acceptance rebuild flag) and in the checkpoint/lossy
/// baselines' end-of-iteration sweeps.
pub fn distributed_resilient_cg_merged(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::cg_merged(a, b, ranks, config).solve()
}

/// One-shot form of the resilient merged-reduction block-Jacobi PCG (see
/// [`DistResilientSolver::pcg_merged`]). With zero faults the solve is
/// bitwise-identical to
/// [`distributed_pcg_merged`](crate::merged::distributed_pcg_merged) at the
/// same page size.
pub fn distributed_resilient_pcg_merged(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    config: DistResilienceConfig,
) -> DistResilientReport {
    DistResilientSolver::pcg_merged(a, b, ranks, config).solve()
}
