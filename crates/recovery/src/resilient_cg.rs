//! The page-protected, task-decomposed Conjugate Gradient solver.
//!
//! This is the executable heart of the paper: CG (Listing 1) strip-mined into
//! page-sized tasks (Figure 1), with the search direction `d` double-buffered
//! (Listing 2) so the update relation stays solvable, per-page skip bitmasks
//! (Section 3.3.2) so reductions never accumulate garbage, and recovery tasks
//! `r1` / `r2` / `r3` that reconstruct lost pages exactly — either in the
//! critical path (**FEIR**, Figure 2(a)) or overlapped with the reductions
//! (**AFEIR**, Figure 2(b)).
//!
//! The same driver also implements the three baselines the paper compares
//! against (trivial forward recovery, checkpoint/rollback, Lossy Restart) so
//! every method sees the identical fault stream and the identical kernels.
//!
//! ## Iteration structure
//!
//! ```text
//!  β ⇐ ε/ε_old
//!  d_cur ⇐ β·d_prev + g              (strip-mined, per page)
//!  q ⇐ A·d_cur                       (strip-mined, per page)
//!  r1: recover d_cur / q             (FEIR: before ⟨d,q⟩; AFEIR: overlapped)
//!  α ⇐ ε / ⟨d,q⟩
//!  x ⇐ x + α·d_cur ; g ⇐ g − α·q     (strip-mined, per page)
//!  r2/r3: recover g / x              (FEIR: before ε; AFEIR: overlapped)
//!  ε ⇐ ‖g‖²  → convergence check
//! ```
//!
//! ## Fault arrivals
//!
//! DUEs come from one [`FaultSchedule`] on the iteration clock. The solver
//! reads it at the arrival points of every iteration: the top of each
//! phase, and the start of the two reductions that run beside a recovery
//! plan — after the plan has scanned for lost pages, so a DUE there is
//! skipped by the reduction and missing from the plan until the fix-up
//! plans it again.

use std::sync::Arc;
use std::time::{Duration, Instant};

use feir_pagemem::{AccessOutcome, FaultSchedule, PageRegistry, SkipMask, VectorId};
use feir_solvers::history::{ConvergenceHistory, SolveOptions, StopReason};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::{vecops, BlockJacobi, CsrMatrix, SpmvBackend};
use rayon::prelude::*;

use crate::checkpoint::{CheckpointStore, CheckpointTarget};
use crate::engine::{self, RecoveryPlan};
use crate::interpolate::BlockRecovery;
use crate::lossy;
use crate::policy::{RecoveryPolicy, ResilienceConfig};
use crate::report::{RecoveryAction, RecoveryEvent, RunReport, TimeBuckets};

/// Skip-mask bit assignments, one per protected vector (Section 3.3.2: "each
/// data vector and task output is represented by a bit in this mask").
mod bits {
    pub const X: u32 = 0;
    pub const G: u32 = 1;
    pub const D0: u32 = 2;
    pub const D1: u32 = 3;
    pub const Q: u32 = 4;
    pub const Z: u32 = 5;
}

/// Fault arrival points of one iteration, in solve order. Every policy
/// reads every point, so every method sees the same faults.
mod arrival {
    pub const TOP: usize = 0; // PCG's preconditioner; CG's direction update
    pub const DIRECTION: usize = 1;
    pub const MATVEC: usize = 2;
    pub const DQ_PLAN: usize = 3; // before r1 scans d and q
    pub const DQ_REDUCE: usize = 4; // after r1's scan, before ⟨d,q⟩
    pub const UPDATE: usize = 5;
    pub const EPS_PLAN: usize = 6; // before r2/r3 scans x and g
    pub const EPS_REDUCE: usize = 7; // after r2/r3's scan, before ε
    pub const POINTS: usize = 8;
}

/// Runs a recovery closure either in the critical path (FEIR: `recover`
/// first, then `work`) or overlapped with the neighbouring solver work on
/// the work-stealing pool (AFEIR: `rayon::join`), and returns each result
/// with the time it took. The closures must not alias mutable state —
/// recovery *plans* into side buffers and the caller installs afterwards,
/// which is this solver's equivalent of the paper's communication through
/// atomic bitmasks rather than task dependences.
fn overlap<A, B, RA, RB>(
    asynchronous: bool,
    recover: A,
    work: B,
) -> ((RA, Duration), (RB, Duration))
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let recover = move || {
        let mark = Instant::now();
        (recover(), mark.elapsed())
    };
    let work = move || {
        let mark = Instant::now();
        (work(), mark.elapsed())
    };
    if asynchronous {
        rayon::join(recover, work)
    } else {
        (recover(), work())
    }
}

/// Builder for [`ResilientCg`].
#[derive(Debug, Clone, Default)]
pub struct ResilientCgBuilder {
    config: ResilienceConfig,
}

impl ResilientCgBuilder {
    /// Starts a builder with default configuration (FEIR, page-sized blocks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the recovery policy.
    pub fn policy(mut self, policy: RecoveryPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the page size in doubles (tests use small pages).
    pub fn page_doubles(mut self, page_doubles: usize) -> Self {
        self.config.page_doubles = page_doubles;
        self
    }

    /// Enables the block-Jacobi preconditioner (the paper's PCG variant).
    pub fn preconditioned(mut self, preconditioned: bool) -> Self {
        self.config.preconditioned = preconditioned;
        self
    }

    /// Writes checkpoints to local disk instead of memory.
    pub fn checkpoint_on_disk(mut self, on_disk: bool) -> Self {
        self.config.checkpoint_on_disk = on_disk;
        self
    }

    /// Overrides the full configuration.
    pub fn config(mut self, config: ResilienceConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the solver for the given system.
    pub fn build<'a>(self, a: &'a CsrMatrix, b: &'a [f64]) -> ResilientCg<'a> {
        ResilientCg::new(a, b, self.config)
    }
}

/// A resilient CG / PCG solver bound to one linear system, one fault
/// registry and one [`FaultSchedule`]. Create one instance per run.
pub struct ResilientCg<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    config: ResilienceConfig,
    registry: Arc<PageRegistry>,
    partition: BlockPartition,
    recovery: Option<BlockRecovery>,
    preconditioner: Option<BlockJacobi>,
    /// For each output page of the SpMV, the input pages its rows touch.
    touched_pages: Vec<Vec<usize>>,
    /// Storage backend (CSR or SELL-C-σ) for the full-matrix matvecs.
    op: SpmvBackend,
    /// One backend per output page for the skip-masked matvec of
    /// [`Self::phase_matvec`] — built once here so the hot per-page loop
    /// never re-analyzes or re-converts.
    page_ops: Vec<SpmvBackend>,
    /// Registry ids of the protected vectors (registered at construction so
    /// faults can target them before the solve starts).
    ids: VectorIds,
    /// The DUEs this solve is exposed to (none by default).
    faults: FaultSchedule,
}

/// Registry ids of the protected dynamic vectors.
#[derive(Debug, Clone, Copy)]
struct VectorIds {
    x: VectorId,
    g: VectorId,
    d0: VectorId,
    d1: VectorId,
    q: VectorId,
    z: Option<VectorId>,
}

impl<'a> ResilientCg<'a> {
    /// Creates a solver with the given configuration.
    ///
    /// # Panics
    /// Panics if the matrix is not square or does not match `b`.
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], config: ResilienceConfig) -> Self {
        assert_eq!(a.rows(), a.cols(), "resilient CG requires a square matrix");
        assert_eq!(a.rows(), b.len(), "rhs length mismatch");
        let n = a.rows();
        let partition = BlockPartition::new(n, config.page_doubles);

        let preconditioner = if config.preconditioned {
            Some(BlockJacobi::new(a, partition, true).expect("block-Jacobi construction failed"))
        } else {
            None
        };

        // FEIR / AFEIR / Lossy need the factorized diagonal blocks; when the
        // block-Jacobi preconditioner is present its factorization is reused
        // (which is exactly why the paper picks page-sized Jacobi blocks).
        let needs_recovery = matches!(
            config.policy,
            RecoveryPolicy::Feir | RecoveryPolicy::Afeir | RecoveryPolicy::LossyRestart
        );
        let recovery = if needs_recovery {
            Some(match &preconditioner {
                Some(p) => BlockRecovery::from_diagonal_blocks(p.diagonal_blocks().clone()),
                None => BlockRecovery::new(a, partition, true),
            })
        } else {
            None
        };

        let touched_pages = engine::compute_touched_pages(a, partition);
        let op = SpmvBackend::select(a);
        let page_ops = (0..partition.num_blocks())
            .map(|p| SpmvBackend::select_rows(a, partition.range(p)))
            .collect();

        // Register the protected dynamic vectors up front so faults can
        // target them for the whole run.
        let registry = Arc::new(PageRegistry::new());
        let num_pages = partition.num_blocks();
        let needs_protection = config.policy.needs_protection();
        let ids = if needs_protection {
            VectorIds {
                x: registry.register("x", num_pages),
                g: registry.register("g", num_pages),
                d0: registry.register("d0", num_pages),
                d1: registry.register("d1", num_pages),
                q: registry.register("q", num_pages),
                z: preconditioner
                    .as_ref()
                    .map(|_| registry.register("z", num_pages)),
            }
        } else {
            // The ideal baseline protects nothing; keep placeholder ids.
            VectorIds {
                x: VectorId(0),
                g: VectorId(0),
                d0: VectorId(0),
                d1: VectorId(0),
                q: VectorId(0),
                z: None,
            }
        };

        Self {
            a,
            b,
            config,
            registry,
            partition,
            recovery,
            preconditioner,
            touched_pages,
            op,
            page_ops,
            ids,
            faults: FaultSchedule::default(),
        }
    }

    /// Exposes the solve to `faults`: a seeded stream or an explicit list,
    /// read at the solver's arrival points. The registry is rank 0 of the
    /// stream. Ignored under [`RecoveryPolicy::Ideal`], which protects
    /// nothing.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// The fault registry targeted by this run (faults injected into it
    /// before [`Self::solve`] are present when the solve starts).
    pub fn registry(&self) -> Arc<PageRegistry> {
        Arc::clone(&self.registry)
    }

    /// The page partition used by the protected vectors.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// The configuration in use.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Runs the solve. Consumes the solver (the protected vectors are bound to
    /// this run's fault registry).
    pub fn solve(self, options: &SolveOptions) -> RunReport {
        match self.config.policy {
            RecoveryPolicy::Ideal => self.solve_ideal(options),
            _ => self.solve_protected(options),
        }
    }

    /// The ideal (non-resilient) baseline: plain CG/PCG with no fault checks.
    fn solve_ideal(self, options: &SolveOptions) -> RunReport {
        let result = match &self.preconditioner {
            Some(p) => feir_solvers::pcg(self.a, self.b, None, p, options),
            None => feir_solvers::cg(self.a, self.b, None, options),
        };
        RunReport {
            policy: RecoveryPolicy::Ideal,
            x: result.x,
            iterations: result.iterations,
            relative_residual: result.relative_residual,
            stop_reason: result.stop_reason,
            elapsed: result.elapsed,
            history: result.history,
            events: Vec::new(),
            faults_discovered: 0,
            pages_recovered: 0,
            rollbacks: 0,
            restarts: 0,
            time: TimeBuckets {
                compute: result.elapsed,
                ..TimeBuckets::default()
            },
        }
    }

    #[allow(clippy::too_many_lines)]
    fn solve_protected(self, options: &SolveOptions) -> RunReport {
        let n = self.a.rows();
        let num_pages = self.partition.num_blocks();
        let policy = self.config.policy;
        let start = Instant::now();
        let norm_b = vecops::norm2(self.b).max(f64::MIN_POSITIVE);

        // Protected dynamic vectors (registered at construction time).
        let VectorIds {
            x: x_id,
            g: g_id,
            d0: d0_id,
            d1: d1_id,
            q: q_id,
            z: z_id,
        } = self.ids;

        let mut x = vec![0.0; n];
        let mut g = self.b.to_vec(); // g = b - A·0
        let mut d0 = vec![0.0; n];
        let mut d1 = vec![0.0; n];
        let mut q = vec![0.0; n];
        let mut z = vec![0.0; n];

        let skip = SkipMask::new(num_pages);
        let mut time = TimeBuckets::default();
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut history = ConvergenceHistory::default();
        let mut pages_recovered = 0usize;
        let mut rollbacks = 0usize;
        let mut restarts = 0usize;

        let mut checkpoint_store = match policy {
            RecoveryPolicy::Checkpoint { .. } => Some(if self.config.checkpoint_on_disk {
                CheckpointStore::on_temp_disk()
            } else {
                CheckpointStore::new(CheckpointTarget::Memory)
            }),
            _ => None,
        };

        // Scalars are kept redundantly (registers / stack) and are not part of
        // the page-level error model, as in the paper.
        let mut eps_old = f64::INFINITY;
        let mut stop_reason = StopReason::MaxIterations;
        let mut iterations = 0usize;
        // The configured knob (policy `threads` override, else the ambient
        // pool, which honors FEIR_NUM_THREADS) feeds the idle-time model of
        // the FEIR critical-path accounting.
        let threads = self.config.effective_threads();

        // ε for iteration 0.
        let mark = Instant::now();
        let (mut eps, _skipped) = self.reduce_norm_sq(&g, g_id, bits::G, &skip);
        time.compute += mark.elapsed();

        for t in 0..options.max_iterations {
            let rel = eps.max(0.0).sqrt() / norm_b;
            if options.record_history {
                history.push(t, rel, start.elapsed());
            }
            if rel <= options.tolerance {
                stop_reason = StopReason::Converged;
                iterations = t;
                break;
            }
            iterations = t + 1;
            let strike = |point| {
                self.faults
                    .strike(&self.registry, t, point, arrival::POINTS);
            };
            strike(arrival::TOP);

            // Checkpoint if due.
            if let (RecoveryPolicy::Checkpoint { interval }, Some(store)) =
                (policy, checkpoint_store.as_mut())
            {
                if t % interval.max(1) == 0 {
                    let mark = Instant::now();
                    let d_cur_prev = if t % 2 == 0 { &d1 } else { &d0 };
                    store.checkpoint(t, &x, d_cur_prev, &[eps, eps_old]);
                    time.checkpoint += mark.elapsed();
                }
            }

            // Preconditioner: solve M z = g (PCG only).
            let rho = if let Some(p) = &self.preconditioner {
                let mark = Instant::now();
                let zid = z_id.expect("z registered when preconditioned");
                self.phase_precondition(p, &g, g_id, &mut z, zid, &skip);
                let (mut rho, skipped) =
                    self.reduce_dot(&z, zid, bits::Z, &g, g_id, bits::G, &skip);
                if policy.is_forward_exact() && !skipped.is_empty() {
                    // A `g` page lost at the top of the iteration left its
                    // `z` page unsolved: repair `g` (and `x`), re-solve `z`
                    // and reduce again before β uses ρ.
                    let x_lost = self.invalid_pages(x_id, bits::X, &skip);
                    let g_lost = self.invalid_pages(g_id, bits::G, &skip);
                    let plan = self.plan_r2_r3(&x, x_id, &g, g_id, &x_lost, &g_lost, t);
                    pages_recovered += self.apply_fixes(
                        &plan,
                        &mut [(x_id, bits::X, &mut x), (g_id, bits::G, &mut g)],
                        &skip,
                    );
                    events.extend(plan.events);
                    self.phase_precondition(p, &g, g_id, &mut z, zid, &skip);
                    rho = self
                        .reduce_dot(&z, zid, bits::Z, &g, g_id, bits::G, &skip)
                        .0;
                }
                time.compute += mark.elapsed();
                rho
            } else {
                eps
            };

            let beta = if eps_old.is_finite() && eps_old != 0.0 {
                rho / eps_old
            } else {
                0.0
            };

            // Double-buffered direction update: d_cur ⇐ β·d_prev + (z|g).
            let (d_cur, d_prev, d_cur_id, d_prev_id, d_cur_bit, d_prev_bit) = if t % 2 == 0 {
                (&mut d0, &d1, d0_id, d1_id, bits::D0, bits::D1)
            } else {
                (&mut d1, &d0, d1_id, d0_id, bits::D1, bits::D0)
            };
            let (update_src, update_src_id, update_src_bit) = match (&self.preconditioner, z_id) {
                (Some(_), Some(zid)) => (&z, zid, bits::Z),
                _ => (&g, g_id, bits::G),
            };

            strike(arrival::DIRECTION);
            let mark = Instant::now();
            self.phase_update_direction(
                beta,
                d_prev,
                d_prev_id,
                d_prev_bit,
                update_src,
                update_src_id,
                update_src_bit,
                d_cur,
                d_cur_id,
                d_cur_bit,
                &skip,
            );
            time.compute += mark.elapsed();
            // q ⇐ A·d_cur.
            strike(arrival::MATVEC);
            let mark = Instant::now();
            self.phase_matvec(d_cur, d_cur_id, d_cur_bit, &mut q, q_id, &skip);
            time.compute += mark.elapsed();

            // r1 recovery + ⟨d,q⟩ reduction. FEIR and AFEIR are the *same*
            // engine flow — scan for lost pages, plan into side buffers
            // while reducing over the valid pages, install, patch the
            // recovered pages' contributions — and differ only in the
            // scheduling flag handed to [`overlap`] (critical path vs.
            // work-stealing pool).
            strike(arrival::DQ_PLAN);
            let dq = if policy.is_forward_exact() {
                let d_lost = self.invalid_pages(d_cur_id, d_cur_bit, &skip);
                let q_lost = self.invalid_pages(q_id, bits::Q, &skip);
                strike(arrival::DQ_REDUCE);
                let ((plan, plan_dur), ((mut dq, skipped), reduce_dur)) = overlap(
                    policy == RecoveryPolicy::Afeir,
                    || {
                        self.plan_r1(
                            beta, d_prev, update_src, d_cur, &q, &d_lost, &q_lost, &skip, t,
                        )
                    },
                    || self.reduce_dot(d_cur, d_cur_id, d_cur_bit, &q, q_id, bits::Q, &skip),
                );
                pages_recovered += self.apply_fixes(
                    &plan,
                    &mut [(d_cur_id, d_cur_bit, &mut *d_cur), (q_id, bits::Q, &mut q)],
                    &skip,
                );
                events.extend(plan.events);
                // A page lost after the scan was skipped by the reduction
                // and is missing from the plan: scan again and plan it now.
                let d_late = self.invalid_pages(d_cur_id, d_cur_bit, &skip);
                let q_late = self.invalid_pages(q_id, bits::Q, &skip);
                let plan = self.plan_r1(
                    beta, d_prev, update_src, d_cur, &q, &d_late, &q_late, &skip, t,
                );
                pages_recovered += self.apply_fixes(
                    &plan,
                    &mut [(d_cur_id, d_cur_bit, &mut *d_cur), (q_id, bits::Q, &mut q)],
                    &skip,
                );
                events.extend(plan.events);
                // Fix-up: contributions of the pages the reduction skipped
                // and a plan recovered.
                for p in skipped {
                    if !self.page_invalid(d_cur_id, d_cur_bit, p, &skip)
                        && !self.page_invalid(q_id, bits::Q, p, &skip)
                    {
                        let range = self.partition.range(p);
                        dq += vecops::dot(&d_cur[range.clone()], &q[range]);
                    }
                }
                time.book_overlap(policy, plan_dur, reduce_dur, threads);
                dq
            } else {
                // Baselines: a page lost since the last sweep is skipped
                // here; the end-of-iteration sweep handles the loss.
                strike(arrival::DQ_REDUCE);
                let mark = Instant::now();
                let (dq, _) = self.reduce_dot(d_cur, d_cur_id, d_cur_bit, &q, q_id, bits::Q, &skip);
                time.compute += mark.elapsed();
                dq
            };

            if dq == 0.0 || !dq.is_finite() {
                stop_reason = StopReason::Breakdown;
                break;
            }
            let alpha = rho / dq;

            // x ⇐ x + α·d ; g ⇐ g − α·q.
            strike(arrival::UPDATE);
            let mark = Instant::now();
            self.phase_update_iterate(
                alpha, d_cur, d_cur_id, d_cur_bit, &q, q_id, &mut x, x_id, &mut g, g_id, &skip,
            );
            time.compute += mark.elapsed();

            // r2/r3 recovery + ε reduction: the same engine flow as r1.
            strike(arrival::EPS_PLAN);
            let new_eps = if policy.is_forward_exact() {
                let x_lost = self.invalid_pages(x_id, bits::X, &skip);
                let g_lost = self.invalid_pages(g_id, bits::G, &skip);
                strike(arrival::EPS_REDUCE);
                let ((plan, plan_dur), ((mut e, skipped), reduce_dur)) = overlap(
                    policy == RecoveryPolicy::Afeir,
                    || self.plan_r2_r3(&x, x_id, &g, g_id, &x_lost, &g_lost, t),
                    || self.reduce_norm_sq(&g, g_id, bits::G, &skip),
                );
                pages_recovered += self.apply_fixes(
                    &plan,
                    &mut [(x_id, bits::X, &mut x), (g_id, bits::G, &mut g)],
                    &skip,
                );
                events.extend(plan.events);
                // As in r1; the scan takes `x` too, so a `g` page is never
                // rebuilt from an `x` page lost beside it.
                let x_late = self.invalid_pages(x_id, bits::X, &skip);
                let g_late = self.invalid_pages(g_id, bits::G, &skip);
                let plan = self.plan_r2_r3(&x, x_id, &g, g_id, &x_late, &g_late, t);
                pages_recovered += self.apply_fixes(
                    &plan,
                    &mut [(x_id, bits::X, &mut x), (g_id, bits::G, &mut g)],
                    &skip,
                );
                events.extend(plan.events);
                for p in skipped {
                    if !self.page_invalid(g_id, bits::G, p, &skip) {
                        let range = self.partition.range(p);
                        e += vecops::norm2_squared(&g[range]);
                    }
                }
                time.book_overlap(policy, plan_dur, reduce_dur, threads);
                e
            } else {
                strike(arrival::EPS_REDUCE);
                let mark = Instant::now();
                let (e, _) = self.reduce_norm_sq(&g, g_id, bits::G, &skip);
                time.compute += mark.elapsed();
                e
            };

            // Baseline policies react to faults at the end of the iteration.
            match policy {
                RecoveryPolicy::Trivial => {
                    let mark = Instant::now();
                    let blanked = self.trivial_sweep(
                        &mut [
                            (&mut x, x_id, "x"),
                            (&mut g, g_id, "g"),
                            (&mut d0, d0_id, "d0"),
                            (&mut d1, d1_id, "d1"),
                            (&mut q, q_id, "q"),
                        ],
                        t,
                        &mut events,
                    );
                    pages_recovered += blanked;
                    // Blank pages are accepted as valid data from here on.
                    skip.clear_all();
                    time.recovery += mark.elapsed();
                }
                RecoveryPolicy::TrivialReplace if !self.registry.all_healthy() => {
                    let mark = Instant::now();
                    // Trivial blank-accept of every lost page ...
                    let blanked = self.trivial_sweep(
                        &mut [
                            (&mut x, x_id, "x"),
                            (&mut g, g_id, "g"),
                            (&mut d0, d0_id, "d0"),
                            (&mut d1, d1_id, "d1"),
                            (&mut q, q_id, "q"),
                        ],
                        t,
                        &mut events,
                    );
                    pages_recovered += blanked;
                    if let Some(zid) = z_id {
                        self.absorb_faults(&mut z, zid);
                        for p in self.registry.lost_pages(zid) {
                            self.registry.mark_recovered(zid, p);
                        }
                    }
                    // ... then residual replacement: recompute g from the
                    // blanked iterate and reset the Krylov space, so the
                    // accepted blanks become a consistent (if worse) state
                    // instead of silently breaking the recurrences.
                    self.op.spmv_parallel(self.a, &x, &mut g);
                    g.par_iter_mut()
                        .zip(self.b.par_iter())
                        .for_each(|(gi, bi)| *gi = bi - *gi);
                    d0.iter_mut().for_each(|v| *v = 0.0);
                    d1.iter_mut().for_each(|v| *v = 0.0);
                    eps_old = f64::INFINITY;
                    eps = vecops::norm2_squared(&g);
                    restarts += 1;
                    skip.clear_all();
                    time.recovery += mark.elapsed();
                    continue;
                }
                RecoveryPolicy::Checkpoint { .. } if !self.registry.all_healthy() => {
                    let mark = Instant::now();
                    // Blank / absorb every outstanding fault, then roll back.
                    for (vec, id) in [
                        (&mut x, x_id),
                        (&mut g, g_id),
                        (&mut d0, d0_id),
                        (&mut d1, d1_id),
                        (&mut q, q_id),
                        (&mut z, z_id.unwrap_or(q_id)),
                    ] {
                        self.absorb_faults(vec, id);
                    }
                    let store = checkpoint_store.as_mut().expect("store exists");
                    let mut scalars = Vec::new();
                    // The restored direction must act as d_prev of the
                    // *next* loop iteration (t+1): that is buffer 0 when
                    // t is even, buffer 1 when t is odd.
                    let d_target = if t % 2 == 0 { &mut d0 } else { &mut d1 };
                    if let Some(resume) = store.rollback(&mut x, d_target, &mut scalars) {
                        rollbacks += 1;
                        events.push(RecoveryEvent {
                            iteration: t,
                            vector: "x,d".into(),
                            page: 0,
                            action: RecoveryAction::Rollback,
                        });
                        // Recompute the residual from the restored iterate.
                        self.op.spmv_parallel(self.a, &x, &mut g);
                        g.par_iter_mut()
                            .zip(self.b.par_iter())
                            .for_each(|(gi, bi)| *gi = bi - *gi);
                        eps_old = scalars.get(1).copied().unwrap_or(f64::INFINITY);
                        eps = vecops::norm2_squared(&g);
                        let _ = resume;
                        // The rollback restored or will recompute every
                        // vector: clear all outstanding page-loss state.
                        for id in [x_id, g_id, d0_id, d1_id, q_id, z_id.unwrap_or(q_id)] {
                            for p in self.registry.lost_pages(id) {
                                self.registry.mark_recovered(id, p);
                            }
                        }
                        skip.clear_all();
                        time.checkpoint += mark.elapsed();
                        continue;
                    }
                    time.checkpoint += mark.elapsed();
                }
                RecoveryPolicy::LossyRestart if !self.registry.all_healthy() => {
                    let mark = Instant::now();
                    // Blank every lost page, then interpolate x and restart.
                    let lost_x = {
                        self.absorb_faults(&mut x, x_id);
                        self.registry.lost_pages(x_id)
                    };
                    for (vec, id) in [
                        (&mut g, g_id),
                        (&mut d0, d0_id),
                        (&mut d1, d1_id),
                        (&mut q, q_id),
                        (&mut z, z_id.unwrap_or(q_id)),
                    ] {
                        self.absorb_faults(vec, id);
                        for p in self.registry.lost_pages(id) {
                            self.registry.mark_recovered(id, p);
                        }
                    }
                    // Lossy interpolation of the lost iterate pages.
                    let recovery = self.recovery.as_ref().expect("lossy needs blocks");
                    let lost_pages = self.registry.lost_pages(x_id);
                    let all_lost: Vec<usize> =
                        lost_pages.iter().chain(lost_x.iter()).copied().collect();
                    let recovered = lossy::lossy_interpolate_in_place(
                        self.a,
                        self.b,
                        &mut x,
                        recovery.diagonal_blocks(),
                        &all_lost,
                    );
                    pages_recovered += recovered;
                    for p in &all_lost {
                        self.registry.mark_recovered(x_id, *p);
                        events.push(RecoveryEvent {
                            iteration: t,
                            vector: "x".into(),
                            page: *p,
                            action: RecoveryAction::LossyInterpolation,
                        });
                    }
                    // Restart: recompute g, reset the Krylov space.
                    self.op.spmv_parallel(self.a, &x, &mut g);
                    g.par_iter_mut()
                        .zip(self.b.par_iter())
                        .for_each(|(gi, bi)| *gi = bi - *gi);
                    d0.iter_mut().for_each(|v| *v = 0.0);
                    d1.iter_mut().for_each(|v| *v = 0.0);
                    eps_old = f64::INFINITY;
                    eps = vecops::norm2_squared(&g);
                    restarts += 1;
                    skip.clear_all();
                    time.recovery += mark.elapsed();
                    continue;
                }
                _ => {}
            }

            eps_old = if self.preconditioner.is_some() {
                rho
            } else {
                eps
            };
            eps = new_eps;
        }

        // Final explicit residual check.
        let mut residual = vec![0.0; n];
        self.op.spmv(self.a, &x, &mut residual);
        for (ri, bi) in residual.iter_mut().zip(self.b) {
            *ri = bi - *ri;
        }
        let relative_residual = vecops::norm2(&residual) / norm_b;
        if relative_residual <= options.tolerance {
            stop_reason = StopReason::Converged;
        } else if stop_reason == StopReason::Converged {
            // The page-level ε said converged but the true residual disagrees
            // (possible under trivial recovery): report honestly.
            stop_reason = StopReason::MaxIterations;
        }

        RunReport {
            policy,
            x,
            iterations,
            relative_residual,
            stop_reason,
            elapsed: start.elapsed(),
            history,
            events,
            faults_discovered: self.registry.discovered_count(),
            pages_recovered,
            rollbacks,
            restarts,
            time,
        }
    }

    // ----- page-level phases -------------------------------------------------

    /// True if page `p` of the vector is unusable (lost, poisoned, or marked
    /// skipped). Reading the state counts as an access, which is how lazily
    /// reported (scrubbed) errors surface — exactly like a SIGBUS on touch.
    fn page_invalid(&self, id: VectorId, bit: u32, p: usize, skip: &SkipMask) -> bool {
        if skip.is_set(p, bit) {
            return true;
        }
        !matches!(self.registry.on_access(id, p), AccessOutcome::Ok)
    }

    /// Marks an output page valid again after it has been fully overwritten.
    ///
    /// Writing a poisoned page still traps in the real hardware model, so the
    /// access is recorded first (counting the discovery) before the page is
    /// declared healthy — the full overwrite is itself the recovery.
    fn mark_output_valid(&self, id: VectorId, bit: u32, p: usize, skip: &SkipMask) {
        let _ = self.registry.on_access(id, p);
        self.registry.mark_recovered(id, p);
        skip.clear(p, bit);
    }

    /// `d_cur ⇐ β·d_prev + src` per page, with skip propagation.
    #[allow(clippy::too_many_arguments)]
    fn phase_update_direction(
        &self,
        beta: f64,
        d_prev: &[f64],
        d_prev_id: VectorId,
        d_prev_bit: u32,
        src: &[f64],
        src_id: VectorId,
        src_bit: u32,
        d_cur: &mut [f64],
        d_cur_id: VectorId,
        d_cur_bit: u32,
        skip: &SkipMask,
    ) {
        let partition = self.partition;
        d_cur
            .par_chunks_mut(partition.block_size())
            .enumerate()
            .for_each(|(p, out)| {
                let prev_ok = !self.page_invalid(d_prev_id, d_prev_bit, p, skip);
                let src_ok = !self.page_invalid(src_id, src_bit, p, skip);
                if prev_ok && src_ok {
                    let range = partition.range(p);
                    for ((o, dp), s) in out.iter_mut().zip(&d_prev[range.clone()]).zip(&src[range])
                    {
                        *o = beta * dp + s;
                    }
                    self.mark_output_valid(d_cur_id, d_cur_bit, p, skip);
                } else {
                    skip.set(p, d_cur_bit);
                }
            });
    }

    /// `q ⇐ A·d_cur` per output page; a page is skipped when any input page
    /// its rows touch is invalid.
    fn phase_matvec(
        &self,
        d_cur: &[f64],
        d_cur_id: VectorId,
        d_cur_bit: u32,
        q: &mut [f64],
        q_id: VectorId,
        skip: &SkipMask,
    ) {
        let partition = self.partition;
        q.par_chunks_mut(partition.block_size())
            .enumerate()
            .for_each(|(p, out)| {
                let inputs_ok = self.touched_pages[p]
                    .iter()
                    .all(|&ip| !self.page_invalid(d_cur_id, d_cur_bit, ip, skip));
                if inputs_ok {
                    self.page_ops[p].spmv(self.a, d_cur, out);
                    self.mark_output_valid(q_id, bits::Q, p, skip);
                } else {
                    skip.set(p, bits::Q);
                }
            });
    }

    /// PCG preconditioner application `M z = g` per page (block-Jacobi is
    /// block-local so this is an exact per-page operation).
    fn phase_precondition(
        &self,
        preconditioner: &BlockJacobi,
        g: &[f64],
        g_id: VectorId,
        z: &mut [f64],
        z_id: VectorId,
        skip: &SkipMask,
    ) {
        let partition = self.partition;
        z.par_chunks_mut(partition.block_size())
            .enumerate()
            .for_each(|(p, out)| {
                if !self.page_invalid(g_id, bits::G, p, skip) {
                    let range = partition.range(p);
                    preconditioner.apply_block(p, &g[range], out);
                    self.mark_output_valid(z_id, bits::Z, p, skip);
                } else {
                    skip.set(p, bits::Z);
                }
            });
    }

    /// `x ⇐ x + α·d ; g ⇐ g − α·q` per page, with skip propagation.
    #[allow(clippy::too_many_arguments)]
    fn phase_update_iterate(
        &self,
        alpha: f64,
        d_cur: &[f64],
        d_cur_id: VectorId,
        d_cur_bit: u32,
        q: &[f64],
        q_id: VectorId,
        x: &mut [f64],
        x_id: VectorId,
        g: &mut [f64],
        g_id: VectorId,
        skip: &SkipMask,
    ) {
        let partition = self.partition;
        let block = partition.block_size();
        x.par_chunks_mut(block)
            .zip(g.par_chunks_mut(block))
            .enumerate()
            .for_each(|(p, (xp, gp))| {
                let range = partition.range(p);
                let d_ok = !self.page_invalid(d_cur_id, d_cur_bit, p, skip);
                let q_ok = !self.page_invalid(q_id, bits::Q, p, skip);
                let x_ok = !self.page_invalid(x_id, bits::X, p, skip);
                let g_ok = !self.page_invalid(g_id, bits::G, p, skip);
                if d_ok && x_ok {
                    for (xi, di) in xp.iter_mut().zip(&d_cur[range.clone()]) {
                        *xi += alpha * di;
                    }
                } else {
                    skip.set(p, bits::X);
                }
                if q_ok && g_ok {
                    for (gi, qi) in gp.iter_mut().zip(&q[range]) {
                        *gi -= alpha * qi;
                    }
                } else {
                    skip.set(p, bits::G);
                }
            });
    }

    /// The pages of a vector that are lost, poisoned or skipped (reading
    /// them counts as an access, as in [`Self::page_invalid`]).
    fn invalid_pages(&self, id: VectorId, bit: u32, skip: &SkipMask) -> Vec<usize> {
        (0..self.partition.num_blocks())
            .filter(|&p| self.page_invalid(id, bit, p, skip))
            .collect()
    }

    /// Page-blocked dot product that skips invalid pages; returns the partial
    /// sum and the skipped pages.
    #[allow(clippy::too_many_arguments)]
    fn reduce_dot(
        &self,
        u: &[f64],
        u_id: VectorId,
        u_bit: u32,
        v: &[f64],
        v_id: VectorId,
        v_bit: u32,
        skip: &SkipMask,
    ) -> (f64, Vec<usize>) {
        let partition = self.partition;
        let results: Vec<(usize, Option<f64>)> = (0..partition.num_blocks())
            .into_par_iter()
            .map(|p| {
                if self.page_invalid(u_id, u_bit, p, skip)
                    || self.page_invalid(v_id, v_bit, p, skip)
                {
                    (p, None)
                } else {
                    let range = partition.range(p);
                    (p, Some(vecops::dot(&u[range.clone()], &v[range])))
                }
            })
            .collect();
        let mut sum = 0.0;
        let mut skipped = Vec::new();
        for (p, value) in results {
            match value {
                Some(v) => sum += v,
                None => skipped.push(p),
            }
        }
        (sum, skipped)
    }

    /// Page-blocked squared norm with skipping.
    fn reduce_norm_sq(
        &self,
        v: &[f64],
        v_id: VectorId,
        v_bit: u32,
        skip: &SkipMask,
    ) -> (f64, Vec<usize>) {
        self.reduce_dot(v, v_id, v_bit, v, v_id, v_bit, skip)
    }

    // ----- recovery tasks ----------------------------------------------------

    /// r1 (Figure 1(b)): plan the recovery of the lost/skipped pages
    /// `d_pages` of `d_cur` and `q_lost` of `q`. The plan only *reads* solver
    /// state and writes the reconstructed pages into side buffers, so it can
    /// run concurrently with the ⟨d,q⟩ reduction (AFEIR) without touching the
    /// pages the reduction is scanning; [`Self::apply_fixes`] installs the
    /// pages afterwards — which corresponds to the paper's communication
    /// through atomic bitmasks rather than task dependences.
    #[allow(clippy::too_many_arguments)]
    fn plan_r1(
        &self,
        beta: f64,
        d_prev: &[f64],
        src: &[f64],
        d_cur: &[f64],
        q: &[f64],
        d_pages: &[usize],
        q_lost: &[usize],
        skip: &SkipMask,
        iteration: usize,
    ) -> RecoveryPlan {
        let recovery = self.recovery.as_ref().expect("FEIR/AFEIR carry a recovery");
        let partition = self.partition;
        let mut plan = RecoveryPlan::default();
        if d_pages.is_empty() && q_lost.is_empty() {
            return plan;
        }
        // `d0` is the current direction on even iterations; `z` is the
        // update source when preconditioned.
        let (d_cur_id, d_cur_bit, d_prev_bit) = match iteration % 2 {
            0 => (self.ids.d0, bits::D0, bits::D1),
            _ => (self.ids.d1, bits::D1, bits::D0),
        };
        let src_bit = if self.ids.z.is_some() {
            bits::Z
        } else {
            bits::G
        };
        let q_id = self.ids.q;

        // Repaired view of d: start from the current data and patch the lost
        // pages as they are reconstructed (needed for the q recomputation).
        let mut d_view = d_cur.to_vec();

        for &p in d_pages {
            let range = partition.range(p);
            let prev_ok = !skip.is_set(p, d_prev_bit);
            let src_ok = !skip.is_set(p, src_bit);
            if prev_ok && src_ok {
                // Linear update relation d_cur = β·d_prev + src: exact and cheap.
                let mut out = vec![0.0; range.len()];
                for ((o, dp), s) in out
                    .iter_mut()
                    .zip(&d_prev[range.clone()])
                    .zip(&src[range.clone()])
                {
                    *o = beta * dp + s;
                }
                d_view[range].copy_from_slice(&out);
                plan.fix(d_cur_id, d_cur_bit, p, out);
                plan.push(iteration, "d", p, RecoveryAction::ExactInterpolation);
            } else if !q_lost.contains(&p) {
                // Fall back to the inverse matvec relation A_ii d_i = q_i − Σ….
                let mut out = vec![0.0; range.len()];
                if recovery.recover_matvec_rhs(self.a, q, &d_view, p, &mut out) {
                    d_view[range].copy_from_slice(&out);
                    plan.fix(d_cur_id, d_cur_bit, p, out);
                    plan.push(iteration, "d", p, RecoveryAction::ExactInterpolation);
                } else {
                    plan.give_up(d_cur_id, d_cur_bit, p);
                    plan.push(iteration, "d", p, RecoveryAction::Ignored);
                }
            } else {
                // Simultaneous errors on related data: ignored (Section 2.4).
                plan.give_up(d_cur_id, d_cur_bit, p);
                plan.push(iteration, "d", p, RecoveryAction::Ignored);
            }
        }

        let unrecovered_d = plan.abandoned_pages(d_cur_id);
        for &p in q_lost {
            let inputs_ok = self.touched_pages[p]
                .iter()
                .all(|ip| !unrecovered_d.contains(ip));
            if inputs_ok {
                let range = partition.range(p);
                let mut out = vec![0.0; range.len()];
                recovery.recover_matvec_lhs(self.a, &d_view, p, &mut out);
                plan.fix(q_id, bits::Q, p, out);
                plan.push(iteration, "q", p, RecoveryAction::ExactInterpolation);
            } else {
                plan.give_up(q_id, bits::Q, p);
                plan.push(iteration, "q", p, RecoveryAction::Ignored);
            }
        }
        plan
    }

    /// r2/r3 (Figure 1(b)): plan the recovery of the lost/skipped pages
    /// `x_pages` of `x` and `g_pages` of `g`, reading the solver state only
    /// (see [`Self::plan_r1`]).
    #[allow(clippy::too_many_arguments)]
    fn plan_r2_r3(
        &self,
        x: &[f64],
        x_id: VectorId,
        g: &[f64],
        g_id: VectorId,
        x_pages: &[usize],
        g_pages: &[usize],
        iteration: usize,
    ) -> RecoveryPlan {
        let recovery = self.recovery.as_ref().expect("FEIR/AFEIR carry a recovery");
        let partition = self.partition;
        let mut plan = RecoveryPlan::default();
        if x_pages.is_empty() && g_pages.is_empty() {
            return plan;
        }

        let mut x_view = x.to_vec();

        // Recover x first: A_ii x_i = b_i − g_i − Σ_{j≠i} A_ij x_j. Needs g_i
        // and the other x pages; simultaneous loss of x_i and g_i is the
        // "related data" case and is ignored.
        let (recoverable, _, conflicting) = engine::split_related(x_pages, g_pages);
        if recoverable.len() > 1 {
            // Combined multi-block solve (Section 2.4, case 1).
            if let Some(values) =
                recovery.recover_iterate_multi(self.a, self.b, g, &x_view, &recoverable, true)
            {
                let mut offset = 0;
                for &p in &recoverable {
                    let range = partition.range(p);
                    let out = values[offset..offset + range.len()].to_vec();
                    offset += range.len();
                    x_view[range].copy_from_slice(&out);
                    plan.fix(x_id, bits::X, p, out);
                    plan.push(iteration, "x", p, RecoveryAction::ExactInterpolation);
                }
            } else {
                for &p in &recoverable {
                    plan.give_up(x_id, bits::X, p);
                    plan.push(iteration, "x", p, RecoveryAction::Ignored);
                }
            }
        } else {
            for &p in &recoverable {
                let range = partition.range(p);
                let mut out = vec![0.0; range.len()];
                if recovery.recover_iterate_rhs(self.a, self.b, g, &x_view, p, &mut out) {
                    x_view[range].copy_from_slice(&out);
                    plan.fix(x_id, bits::X, p, out);
                    plan.push(iteration, "x", p, RecoveryAction::ExactInterpolation);
                } else {
                    plan.give_up(x_id, bits::X, p);
                    plan.push(iteration, "x", p, RecoveryAction::Ignored);
                }
            }
        }
        for &p in &conflicting {
            plan.give_up(x_id, bits::X, p);
            plan.push(iteration, "x", p, RecoveryAction::Ignored);
        }

        // Then recover g from the repaired iterate: g_i = b_i − Σ_j A_ij x_j.
        let unrecovered_x = plan.abandoned_pages(x_id);
        for &p in g_pages {
            let inputs_ok = self.touched_pages[p]
                .iter()
                .all(|ip| !unrecovered_x.contains(ip));
            if inputs_ok {
                let range = partition.range(p);
                let mut out = vec![0.0; range.len()];
                recovery.recover_residual_lhs(self.a, self.b, &x_view, p, &mut out);
                plan.fix(g_id, bits::G, p, out);
                plan.push(iteration, "g", p, RecoveryAction::ExactInterpolation);
            } else {
                plan.give_up(g_id, bits::G, p);
                plan.push(iteration, "g", p, RecoveryAction::Ignored);
            }
        }
        plan
    }

    /// Installs a recovery plan: copies the reconstructed pages into the live
    /// vectors and clears their lost / skip state. Pages the plan gave up on
    /// are also marked valid (blank data), matching the paper's evaluation
    /// where unrecoverable simultaneous errors are "simply ignored".
    fn apply_fixes(
        &self,
        plan: &RecoveryPlan,
        targets: &mut [(VectorId, u32, &mut [f64])],
        skip: &SkipMask,
    ) -> usize {
        let mut recovered = 0;
        for (id, bit, page, values) in &plan.fixes {
            if let Some((_, _, data)) = targets.iter_mut().find(|(tid, _, _)| tid == id) {
                let range = self.partition.range(*page);
                data[range].copy_from_slice(values);
                self.mark_output_valid(*id, *bit, *page, skip);
                recovered += 1;
            }
        }
        for (id, bit, page) in &plan.abandoned {
            if let Some((_, _, data)) = targets.iter_mut().find(|(tid, _, _)| tid == id) {
                let range = self.partition.range(*page);
                for v in &mut data[range] {
                    *v = 0.0;
                }
                self.mark_output_valid(*id, *bit, *page, skip);
            }
        }
        recovered
    }

    /// Trivial recovery: blank every lost page and keep going.
    fn trivial_sweep(
        &self,
        vectors: &mut [(&mut Vec<f64>, VectorId, &str)],
        iteration: usize,
        events: &mut Vec<RecoveryEvent>,
    ) -> usize {
        let mut blanked = 0;
        for (data, id, name) in vectors.iter_mut() {
            // Materialise poisoned pages, then accept the blanks.
            for p in 0..self.partition.num_blocks() {
                let _ = self.registry.on_access(*id, p);
            }
            for p in self.registry.lost_pages(*id) {
                let range = self.partition.range(p);
                for v in &mut data[range] {
                    *v = 0.0;
                }
                self.registry.mark_recovered(*id, p);
                blanked += 1;
                events.push(RecoveryEvent {
                    iteration,
                    vector: (*name).to_string(),
                    page: p,
                    action: RecoveryAction::AcceptBlank,
                });
            }
        }
        blanked
    }

    /// Blanks the data of every currently-lost page of a vector (without
    /// marking it recovered).
    fn absorb_faults(&self, data: &mut [f64], id: VectorId) {
        for p in 0..self.partition.num_blocks() {
            let _ = self.registry.on_access(id, p);
        }
        for p in self.registry.lost_pages(id) {
            let range = self.partition.range(p);
            for v in &mut data[range] {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_pagemem::FaultStream;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d};
    use std::ops::Range;
    use std::time::Duration;

    #[test]
    fn overlap_runs_both_closures_in_either_mode() {
        for asynchronous in [false, true] {
            let ((a, _), (b, _)) = overlap(asynchronous, || 6 * 7, || "done");
            assert_eq!(a, 42);
            assert_eq!(b, "done");
        }
    }

    fn small_options() -> SolveOptions {
        SolveOptions::default().with_tolerance(1e-10)
    }

    fn build<'a>(
        a: &'a CsrMatrix,
        b: &'a [f64],
        policy: RecoveryPolicy,
        preconditioned: bool,
    ) -> ResilientCg<'a> {
        // Small pages so the little test matrices span many pages.
        ResilientCgBuilder::new()
            .policy(policy)
            .page_doubles(64)
            .preconditioned(preconditioned)
            .build(a, b)
    }

    #[test]
    fn fault_free_runs_match_ideal_cg_iterations() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 4);
        let ideal = build(&a, &b, RecoveryPolicy::Ideal, false).solve(&small_options());
        assert!(ideal.converged());
        for policy in [
            RecoveryPolicy::Feir,
            RecoveryPolicy::Afeir,
            RecoveryPolicy::Trivial,
            RecoveryPolicy::LossyRestart,
            RecoveryPolicy::Checkpoint { interval: 50 },
        ] {
            let report = build(&a, &b, policy, false).solve(&small_options());
            assert!(report.converged(), "{policy:?} did not converge");
            assert!(
                (report.iterations as i64 - ideal.iterations as i64).abs() <= 1,
                "{policy:?}: {} vs ideal {}",
                report.iterations,
                ideal.iterations
            );
            assert!(report.relative_residual <= 1e-9);
            assert_eq!(report.faults_discovered, 0);
        }
    }

    #[test]
    fn feir_recovers_single_error_exactly() {
        let a = poisson_2d(20);
        let (x_true, b) = manufactured_rhs(&a, 9);
        let ideal = build(&a, &b, RecoveryPolicy::Ideal, false).solve(&small_options());

        // Strike page 2 of x ("x" is the first registered vector) once some
        // iterations have happened.
        let report = build(&a, &b, RecoveryPolicy::Feir, false)
            .with_faults(FaultSchedule::Listed(vec![(10, 2)]))
            .solve(&small_options());
        assert!(report.converged());
        assert_eq!(report.faults_discovered, 1);
        // Exact recovery must not disturb convergence meaningfully.
        assert!(
            report.iterations <= ideal.iterations + 3,
            "FEIR {} vs ideal {}",
            report.iterations,
            ideal.iterations
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6);
    }

    #[test]
    fn afeir_recovers_under_injection_stream() {
        let a = poisson_2d(20);
        let (_, b) = manufactured_rhs(&a, 2);
        let stream = FaultStream {
            seed: 5,
            mean_iterations: 10.0,
        };
        let report = build(&a, &b, RecoveryPolicy::Afeir, false)
            .with_faults(FaultSchedule::Stream(stream))
            .solve(&small_options());
        assert!(report.faults_discovered > 0);
        assert!(report.converged(), "AFEIR failed to converge under errors");
        assert!(report.relative_residual <= 1e-9);
    }

    #[test]
    fn checkpoint_policy_rolls_back_and_converges() {
        let a = poisson_2d(20);
        let (_, b) = manufactured_rhs(&a, 3);
        let report = build(&a, &b, RecoveryPolicy::Checkpoint { interval: 10 }, false)
            .with_faults(FaultSchedule::Listed(vec![(15, 1)]))
            .solve(&small_options());
        assert!(report.converged());
        assert!(report.faults_discovered > 0);
        assert!(report.rollbacks >= 1);
    }

    #[test]
    fn lossy_restart_recovers_and_converges() {
        let a = poisson_2d(20);
        let (_, b) = manufactured_rhs(&a, 8);
        let report = build(&a, &b, RecoveryPolicy::LossyRestart, false)
            .with_faults(FaultSchedule::Listed(vec![(15, 0)]))
            .solve(&small_options());
        assert!(report.converged());
        assert!(report.faults_discovered > 0);
        assert!(report.restarts >= 1);
    }

    #[test]
    fn trivial_policy_accepts_blank_pages_and_still_terminates() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 6);
        let report = build(&a, &b, RecoveryPolicy::Trivial, false)
            .with_faults(FaultSchedule::Listed(vec![(5, 4)]))
            .solve(&small_options().with_max_iterations(5_000));
        // Trivial recovery has no convergence guarantee, but it must not hang
        // or produce NaN.
        assert!(report.x.iter().all(|v| v.is_finite()));
    }

    /// Everything a replay must reproduce: the iterate's and the residual
    /// history's bits, the page counters and the event log.
    fn fingerprint(report: &RunReport) -> (Vec<u64>, Vec<u64>, usize, usize, String) {
        (
            report.x.iter().map(|v| v.to_bits()).collect(),
            report
                .history
                .samples
                .iter()
                .map(|s| s.1.to_bits())
                .collect(),
            report.faults_discovered,
            report.pages_recovered,
            format!("{:?}", report.events),
        )
    }

    /// A stream whose only DUE in the first `horizon` iterations lands at
    /// `point` of an iteration in `2..horizon - 12`, on a flat page in the
    /// range `target` gives for that iteration. Returns the stream and the
    /// iteration.
    fn lone_fault(
        point: usize,
        horizon: usize,
        total_pages: usize,
        target: impl Fn(usize) -> Range<usize>,
    ) -> (FaultStream, usize) {
        (0..)
            .map(|seed| FaultStream {
                seed,
                mean_iterations: horizon as f64,
            })
            .find_map(|stream| {
                let hits: Vec<(usize, usize, usize)> = (0..horizon)
                    .flat_map(|t| (0..arrival::POINTS).map(move |p| (t, p)))
                    .flat_map(|(t, p)| {
                        let draws = stream.draw(0, t, p, arrival::POINTS, total_pages);
                        draws.into_iter().map(move |flat| (t, p, flat))
                    })
                    .collect();
                match hits[..] {
                    [(t, p, flat)]
                        if p == point
                            && (2..horizon - 12).contains(&t)
                            && target(t).contains(&flat) =>
                    {
                        Some((stream, t))
                    }
                    _ => None,
                }
            })
            .expect("some seed places a lone fault")
    }

    /// A DUE between a recovery plan's scan and the reduction beside it is
    /// skipped by the reduction and missing from the plan; the fix-up plans
    /// it again before the sum is used, so one such fault on `g`, `d` or `q`
    /// costs at most one iteration, under FEIR and AFEIR, and replays.
    #[test]
    fn a_fault_between_plan_scan_and_reduction_is_planned_again() {
        let a = poisson_2d(20);
        let (_, b) = manufactured_rhs(&a, 9);
        let ideal = build(&a, &b, RecoveryPolicy::Ideal, false).solve(&small_options());
        let np = build(&a, &b, RecoveryPolicy::Feir, false)
            .partition()
            .num_blocks();
        // Flat layout: x, g, d0, d1, q; d_cur is d0 on even iterations.
        let flat = |v: usize| v * np..(v + 1) * np;
        let cases = [
            ("g", arrival::EPS_REDUCE),
            ("d", arrival::DQ_REDUCE),
            ("q", arrival::DQ_REDUCE),
        ];
        for (vector, point) in cases {
            let target = |t: usize| match vector {
                "g" => flat(1),
                "d" => flat(2 + t % 2),
                _ => flat(4),
            };
            let (stream, at) = lone_fault(point, ideal.iterations + 20, 5 * np, target);
            for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
                let solve = || {
                    build(&a, &b, policy, false)
                        .with_faults(FaultSchedule::Stream(stream))
                        .solve(&small_options())
                };
                let report = solve();
                let label = format!("{policy:?}, {vector} at iteration {at}");
                assert!(report.converged(), "{label}");
                assert_eq!(report.faults_discovered, 1, "{label}");
                assert!(
                    report.events.iter().any(|e| e.iteration == at
                        && e.vector == vector
                        && e.action == RecoveryAction::ExactInterpolation),
                    "{label}: {:?}",
                    report.events
                );
                assert!(
                    report.iterations.abs_diff(ideal.iterations) <= 1,
                    "{label}: {} vs ideal {}",
                    report.iterations,
                    ideal.iterations
                );
                assert_eq!(fingerprint(&report), fingerprint(&solve()), "{label}");
            }
        }
    }

    /// A `g` page lost at the top of a PCG iteration leaves its `z` page
    /// unsolved for ρ; FEIR repairs `g`, re-solves `z` and patches ρ.
    #[test]
    fn pcg_patches_rho_after_a_residual_loss() {
        let a = poisson_2d(20);
        let (_, b) = manufactured_rhs(&a, 9);
        let ideal = build(&a, &b, RecoveryPolicy::Ideal, true).solve(&small_options());
        let np = build(&a, &b, RecoveryPolicy::Feir, true)
            .partition()
            .num_blocks();
        for page in 0..np {
            let report = build(&a, &b, RecoveryPolicy::Feir, true)
                .with_faults(FaultSchedule::Listed(vec![(
                    ideal.iterations / 2,
                    np + page,
                )]))
                .solve(&small_options());
            assert!(report.converged(), "g page {page}");
            assert!(
                report.iterations.abs_diff(ideal.iterations) <= 1,
                "g page {page}: {} vs ideal {}",
                report.iterations,
                ideal.iterations
            );
        }
    }

    /// The same seed replays a faulted solve bit for bit: iterate, residual
    /// history, page counters and events — for every policy.
    #[test]
    fn a_seeded_stream_replays_bit_for_bit() {
        let a = poisson_2d(20);
        let (_, b) = manufactured_rhs(&a, 2);
        let stream = FaultSchedule::Stream(FaultStream {
            seed: 2015,
            mean_iterations: 8.0,
        });
        for policy in [
            RecoveryPolicy::Feir,
            RecoveryPolicy::Afeir,
            RecoveryPolicy::LossyRestart,
            RecoveryPolicy::Checkpoint { interval: 10 },
            RecoveryPolicy::Trivial,
        ] {
            for preconditioned in [false, true] {
                let solve = || {
                    let solver = build(&a, &b, policy, preconditioned).with_faults(stream.clone());
                    let registry = solver.registry();
                    let report = solver.solve(&small_options().with_max_iterations(2_000));
                    (fingerprint(&report), registry.injected_count())
                };
                let first = solve();
                assert!(first.1 > 0, "{policy:?}: the stream struck nothing");
                assert_eq!(
                    first,
                    solve(),
                    "{policy:?}, preconditioned {preconditioned}"
                );
            }
        }
    }

    #[test]
    fn preconditioned_feir_converges_faster_than_plain() {
        let a = feir_sparse::generators::anisotropic_2d(24, 0.05);
        let (_, b) = manufactured_rhs(&a, 12);
        let plain = build(&a, &b, RecoveryPolicy::Feir, false).solve(&small_options());
        let pre = build(&a, &b, RecoveryPolicy::Feir, true).solve(&small_options());
        assert!(plain.converged() && pre.converged());
        assert!(
            pre.iterations < plain.iterations,
            "PCG {} vs CG {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn registry_counts_injected_and_recovered_pages() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 1);
        let solver = build(&a, &b, RecoveryPolicy::Feir, false);
        let registry = solver.registry();
        // Directly poison two pages of the iterate x (vector index 0) before
        // solving: x is never fully overwritten, so the loss must be repaired
        // by the r3 recovery task and show up in the event log.
        registry.inject(VectorId(0), 0);
        registry.inject(VectorId(0), 1);
        let report = solver.solve(&small_options());
        assert!(report.converged());
        assert!(report.faults_discovered >= 1);
        assert!(!report.events.is_empty());
        assert!(report.pages_recovered >= 1);
    }

    #[test]
    fn history_is_recorded_with_timestamps() {
        let a = poisson_2d(12);
        let (_, b) = manufactured_rhs(&a, 5);
        let report = build(&a, &b, RecoveryPolicy::Afeir, false).solve(&small_options());
        assert!(report.history.len() >= 2);
        let (first_iter, _, first_time) = report.history.samples[0];
        let (last_iter, last_res, last_time) = *report.history.samples.last().unwrap();
        assert_eq!(first_iter, 0);
        assert!(last_iter > first_iter);
        assert!(last_time >= first_time);
        assert!(last_res < 1e-8);
    }

    #[test]
    fn time_buckets_are_populated() {
        let a = poisson_2d(16);
        let (_, b) = manufactured_rhs(&a, 7);
        let feir = build(&a, &b, RecoveryPolicy::Feir, false).solve(&small_options());
        assert!(feir.time.compute > Duration::ZERO);
        assert!(feir.time.recovery > Duration::ZERO);
        let ideal = build(&a, &b, RecoveryPolicy::Ideal, false).solve(&small_options());
        assert_eq!(ideal.time.recovery, Duration::ZERO);
    }
}
