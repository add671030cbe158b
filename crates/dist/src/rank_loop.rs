//! The engine-based per-rank resilient solver loop.
//!
//! This is the distributed instantiation of the
//! [`feir_recovery::engine`] layer: one generic loop, parameterised by a
//! [`RecoverableIteration`] describing the solver's algebraic relations,
//! runs the full [`RecoveryPolicy`] matrix on every simulated rank. Plain CG
//! is [`CgRelations`](feir_recovery::CgRelations), block-Jacobi PCG is
//! [`PcgRelations`](feir_recovery::PcgRelations); a future BiCGStab or
//! GMRES-restart variant is another relations impl, not another loop.
//!
//! The loop preserves two hard guarantees:
//!
//! * **fault-free bitwise identity** — with zero faults every kernel call
//!   and every collective happens in exactly the order of the plain
//!   [`distributed_cg`](crate::cg::distributed_cg) /
//!   [`distributed_pcg`](crate::pcg::distributed_pcg) loops, on the same
//!   values (the scrub points do no floating-point work, and the fault flag
//!   rides the ε reduction as a second lane that folds nothing into ε);
//! * **FEIR and AFEIR repair through one code path** — every lost page is
//!   rebuilt by the same calls in the same order under both policies, so
//!   their faulted solves are bitwise-identical too. AFEIR differs only in
//!   what the split-phase collectives let it post early: its round-1
//!   recovery requests go out inside the flagged ε reduction's window
//!   ([`RankComm::post_recovery_requests`]), and when a rank lost only
//!   iterate pages its ε reduction ([`RankComm::start_allreduce`]) is in
//!   flight during the whole iterate repair, because ε does not read `x`.
//!   Neither moves a floating-point operation.
//!
//! The loop is split into resumable phases
//! ([`alloc_state`] → [`init_collectives`] → [`resilient_iterations`] →
//! [`finish_outcome`]) around an explicit [`SolveState`], so the elastic
//! harness ([`crate::elastic`]) can abort the iteration phase on a peer
//! failure, repair the state after the rejoin barrier, and re-enter the
//! loop at the agreed iteration. [`rank_resilient_solve`] composes the
//! phases back into one single-shot solve.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use feir_pagemem::{AccessOutcome, PageRegistry};
use feir_recovery::checkpoint::{CheckpointStore, CheckpointTarget};
use feir_recovery::engine::{mark_page, plan_state_fixes, scrub_blank, split_related, StateLosses};
use feir_recovery::{RecoverableIteration, RecoveryPolicy};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::{CsrMatrix, SpmvBackend};

use crate::comm::{CommError, RankComm};
use crate::elastic::{rank_elastic_solve, ElasticCfg};
use crate::kernels;
use crate::partition::RankPartition;
use crate::resilient::{DistResilienceConfig, ScriptedFault};

/// Registry ids of the protected vectors, in registration order.
pub(crate) mod ids {
    use feir_pagemem::VectorId;

    pub const X: VectorId = VectorId(0);
    pub const G: VectorId = VectorId(1);
    pub const D: VectorId = VectorId(2);
    pub const Q: VectorId = VectorId(3);
    /// Preconditioned residual; registered only by the PCG instantiation.
    pub const Z: VectorId = VectorId(4);
}

/// Everything one rank's solver thread needs.
pub(crate) struct RankCtx<'a> {
    pub a: &'a CsrMatrix,
    pub b: &'a [f64],
    pub policy: RecoveryPolicy,
    pub tolerance: f64,
    pub max_iterations: usize,
    pub rank: usize,
    pub own: Range<usize>,
    pub pages: BlockPartition,
    pub registry: Arc<PageRegistry>,
    pub partition: RankPartition,
    pub scripted: Vec<ScriptedFault>,
    /// Per-iteration sleep at the top of both loops' bodies
    /// ([`iteration_top`]); `ZERO` (the normal case) does nothing at all.
    /// Kill/respawn tests dilate the solve with it so a failure
    /// deterministically lands mid-iteration.
    pub throttle: Duration,
    /// Run the classic resilient loop inside the elastic rejoin harness
    /// (worker processes of an elastic fleet only).
    pub elastic: Option<ElasticCfg>,
}

impl<'a> RankCtx<'a> {
    /// The context of `rank` under `config`: its row block, its pages, its
    /// scripted faults; no throttle and no elastic harness.
    pub(crate) fn new(
        a: &'a CsrMatrix,
        b: &'a [f64],
        partition: &RankPartition,
        rank: usize,
        config: &DistResilienceConfig,
        registry: Arc<PageRegistry>,
    ) -> Self {
        let own = partition.range(rank);
        RankCtx {
            a,
            b,
            policy: config.policy,
            tolerance: config.tolerance,
            max_iterations: config.max_iterations,
            rank,
            pages: BlockPartition::new(own.len(), config.page_doubles.max(1)),
            own,
            registry,
            partition: partition.clone(),
            scripted: config
                .scripted_faults
                .iter()
                .filter(|f| f.rank == rank)
                .copied()
                .collect(),
            throttle: Duration::ZERO,
            elastic: None,
        }
    }
}

/// What one rank's loop reports back — or, once [`fold`](Self::fold)ed,
/// the whole machine's outcome. The plain loops report zero page counters.
#[derive(Debug, Default)]
pub(crate) struct RankOutcome {
    pub rank: usize,
    /// The rank's owned block of the iterate; all of it once folded.
    pub x: Vec<f64>,
    pub iterations: usize,
    pub history: Vec<f64>,
    pub pages_recovered: usize,
    pub pages_ignored: usize,
    /// Subset of `pages_recovered` reconstructed by the cross-rank coupled
    /// exchange (losses spanning a rank boundary, solved as one union).
    pub pages_coupled: usize,
    pub cross_rank_values: usize,
    pub rollbacks: usize,
    pub restarts: usize,
    pub allreduces: u64,
}

impl RankOutcome {
    /// The outcome of a plain (unprotected) rank loop.
    pub(crate) fn plain(
        rank: usize,
        x: Vec<f64>,
        iterations: usize,
        history: Vec<f64>,
        comm: &RankComm,
    ) -> Self {
        RankOutcome {
            rank,
            x,
            iterations,
            history,
            allreduces: comm.collectives(),
            ..RankOutcome::default()
        }
    }

    /// Folds every rank's outcome into the machine's, on either backend:
    /// the owned blocks assembled into `x`, the page counters summed, and
    /// rank 0's iterations, history, rollbacks, restarts and collectives —
    /// every rank runs those in lockstep, so any one rank's count is the
    /// machine's.
    pub(crate) fn fold(
        partition: &RankPartition,
        outcomes: impl IntoIterator<Item = RankOutcome>,
    ) -> RankOutcome {
        let mut all = RankOutcome {
            x: vec![0.0; partition.len()],
            ..RankOutcome::default()
        };
        for outcome in outcomes {
            all.x[partition.range(outcome.rank)].copy_from_slice(&outcome.x);
            all.pages_recovered += outcome.pages_recovered;
            all.pages_ignored += outcome.pages_ignored;
            all.pages_coupled += outcome.pages_coupled;
            all.cross_rank_values += outcome.cross_rank_values;
            if outcome.rank == 0 {
                all.iterations = outcome.iterations;
                all.history = outcome.history;
                all.rollbacks = outcome.rollbacks;
                all.restarts = outcome.restarts;
                all.allreduces = outcome.allreduces;
            }
        }
        all
    }
}

/// Global row range of rank-local page `p`.
pub(crate) fn global_rows(own_start: usize, pages: &BlockPartition, p: usize) -> Range<usize> {
    let local = pages.range(p);
    own_start + local.start..own_start + local.end
}

/// For every given global row, the remote stencil columns grouped by owning
/// rank — the request set of one recovery exchange.
pub(crate) fn remote_stencil_requests(
    a: &CsrMatrix,
    partition: &RankPartition,
    rank: usize,
    rows: &[usize],
) -> HashMap<usize, Vec<usize>> {
    let own = partition.range(rank);
    let mut requests: HashMap<usize, Vec<usize>> = HashMap::new();
    for &r in rows {
        let (cols, _) = a.row(r);
        for &c in cols {
            let c = c as usize;
            if !own.contains(&c) {
                requests.entry(partition.owner_of(c)).or_default().push(c);
            }
        }
    }
    for indices in requests.values_mut() {
        indices.sort_unstable();
        indices.dedup();
    }
    requests
}

/// Page bookkeeping of one state-plan installation.
#[derive(Default)]
pub(crate) struct InstallCounters {
    pub(crate) recovered: usize,
    pub(crate) ignored: usize,
    /// Pages the cross-rank coupled exchange reconstructed (counted into
    /// `recovered` as well).
    pub(crate) coupled: usize,
}

/// Installs a planned iterate/residual reconstruction into the live vectors
/// and clears the page-loss state. Under AFEIR with only iterate pages lost
/// this runs inside the split-phase ε reduction's wait; the residual it
/// reduces is untouched by an iterate-only plan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn install_state_plan(
    plan: &feir_recovery::engine::StatePlan,
    pages: &BlockPartition,
    registry: &PageRegistry,
    conflicted: &[usize],
    x_full: &mut [f64],
    g: &mut [f64],
    counters: &mut InstallCounters,
) {
    let _probe = feir_trace::span(feir_trace::Phase::RecoveryInstall);
    // Pages the coupled cross-rank exchange repaired carry installed exact
    // values already; here they only need their page-state cleared and the
    // recovery credited.
    for &p in &plan.cross_rank {
        mark_page(registry, ids::X, p);
    }
    counters.recovered += plan.cross_rank.len();
    counters.coupled += plan.cross_rank.len();
    match &plan.x_values {
        Some(values) => {
            for (&r, v) in plan.x_rows.iter().zip(values) {
                x_full[r] = *v;
            }
            counters.recovered += plan.x_pages.len();
        }
        None => counters.ignored += plan.x_pages.len(),
    }
    for p in plan.x_pages.iter().chain(&plan.x_ignored) {
        mark_page(registry, ids::X, *p);
    }
    counters.ignored += plan.x_ignored.len();
    for (p, values) in &plan.g_fixes {
        g[pages.range(*p)].copy_from_slice(values);
        mark_page(registry, ids::G, *p);
    }
    counters.recovered += plan.g_fixes.len();
    for &p in &plan.g_ignored {
        mark_page(registry, ids::G, p);
    }
    counters.ignored += plan.g_ignored.len();
    for &p in conflicted {
        mark_page(registry, ids::X, p);
        mark_page(registry, ids::G, p);
    }
    counters.ignored += 2 * conflicted.len();
}

/// The baseline policies' end-of-iteration sweep: scrubs the iterate (when
/// given; LossyRestart scrubs it itself), the residual, the direction, its
/// matvec image and, when registered (preconditioned solvers), `z`, in
/// registry-id order — blanking each lost page and marking it healthy
/// again. Returns how many pages were blanked.
pub(crate) fn blank_sweep(
    ctx: &RankCtx<'_>,
    x: Option<&mut [f64]>,
    [g, d, q, z]: [&mut [f64]; 4],
) -> usize {
    let (registry, pages) = (&*ctx.registry, &ctx.pages);
    let entries = [
        (ids::X, x),
        (ids::G, Some(g)),
        (ids::D, Some(d)),
        (ids::Q, Some(q)),
        (ids::Z, (registry.num_vectors() > ids::Z.0).then_some(z)),
    ];
    let mut blanked = 0;
    for (id, data) in entries {
        for p in data.map_or(Vec::new(), |data| scrub_blank(registry, id, pages, data)) {
            mark_page(registry, id, p);
            blanked += 1;
        }
    }
    blanked
}

/// LossyRestart's iterate repair: fetches the remote stencil entries of the
/// lost iterate pages, interpolates each page with the lossy block-Jacobi
/// relation and marks it healthy. Lossy interpolation has no exactness
/// claim, so flagged-invalid fetches are used as-is (they are part of what
/// makes it lossy). Returns `(recovered, ignored, values fetched)`.
pub(crate) fn lossy_fill_iterate<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    comm: &RankComm,
    lost_x: &[usize],
    x_full: &mut [f64],
) -> Result<(usize, usize, usize), CommError> {
    let (own, pages) = (&ctx.own, &ctx.pages);
    let lost_rows: Vec<usize> = lost_x
        .iter()
        .flat_map(|&p| global_rows(own.start, pages, p))
        .collect();
    let requests = remote_stencil_requests(ctx.a, &ctx.partition, ctx.rank, &lost_rows);
    let (fetched, _) = comm.recovery_exchange(&requests, x_full, &lost_rows)?;
    let (mut recovered, mut ignored) = (0, 0);
    for &p in lost_x {
        let rows: Vec<usize> = global_rows(own.start, pages, p).collect();
        match relations.lossy_iterate_rows(&rows, x_full) {
            Some(values) => {
                for (&r, v) in rows.iter().zip(&values) {
                    x_full[r] = *v;
                }
                recovered += 1;
            }
            None => ignored += 1,
        }
        mark_page(&ctx.registry, ids::X, p);
    }
    Ok((recovered, ignored, fetched))
}

/// The complete mutable state of one rank's solve between iterations — what
/// the elastic harness snapshots conceptually when a peer dies: everything
/// here survives the aborted collective and is repaired (or rebuilt) before
/// the loop re-enters at the rejoin iteration.
pub(crate) struct SolveState {
    pub x_full: Vec<f64>,
    pub g: Vec<f64>,
    pub d: Vec<f64>,
    pub q: Vec<f64>,
    pub z: Vec<f64>,
    pub d_full: Vec<f64>,
    pub store: Option<CheckpointStore>,
    pub norm_b: f64,
    pub eps: f64,
    pub rho_old: f64,
    /// Next iteration to run (the loop counter).
    pub t: usize,
    pub iterations: usize,
    pub history: Vec<f64>,
    pub pages_recovered: usize,
    pub pages_ignored: usize,
    pub pages_coupled: usize,
    pub cross_rank_values: usize,
    pub rollbacks: usize,
    pub restarts: usize,
}

/// Allocates the solve vectors, runs the pre-loop scrub and creates the
/// checkpoint store. Purely rank-local: no collectives, so a newcomer can
/// run it before the rejoin barrier.
pub(crate) fn alloc_state(ctx: &RankCtx<'_>) -> SolveState {
    let own = ctx.own.clone();
    let n = ctx.a.cols();
    let protected = ctx.policy.needs_protection();
    let registry = &ctx.registry;
    let pages = &ctx.pages;

    // x lives inside its full-length buffer so cross-rank recovery can
    // scatter fetched halo entries around the owned range.
    let mut x_full = vec![0.0; n];
    let mut g: Vec<f64> = ctx.b[own.clone()].to_vec(); // g = b − A·0
    let mut d = vec![0.0; own.len()];
    let mut q = vec![0.0; own.len()];
    // z is allocated unconditionally; the CG instantiation never touches it
    // (resilient_iterations sizes its use by `relations.preconditioned()`).
    let mut z = vec![0.0; own.len()];
    let d_full = vec![0.0; n];

    // Pre-loop scrub: faults injected before the solve land on the known
    // initial state, so the blank page *is* the correct data (x = d = q = 0)
    // or is refilled trivially (g = b; z is recomputed before first use).
    if protected {
        for p in scrub_blank(registry, ids::X, pages, &mut x_full[own.clone()]) {
            mark_page(registry, ids::X, p);
        }
        for p in scrub_blank(registry, ids::D, pages, &mut d) {
            mark_page(registry, ids::D, p);
        }
        for p in scrub_blank(registry, ids::Q, pages, &mut q) {
            mark_page(registry, ids::Q, p);
        }
        if registry.num_vectors() > ids::Z.0 {
            for p in scrub_blank(registry, ids::Z, pages, &mut z) {
                mark_page(registry, ids::Z, p);
            }
        }
        for p in scrub_blank(registry, ids::G, pages, &mut g) {
            let local = pages.range(p);
            let global = global_rows(own.start, pages, p);
            g[local].copy_from_slice(&ctx.b[global]);
            mark_page(registry, ids::G, p);
        }
    }

    let store = match ctx.policy {
        RecoveryPolicy::Checkpoint { .. } => Some(CheckpointStore::new(CheckpointTarget::Memory)),
        _ => None,
    };

    SolveState {
        x_full,
        g,
        d,
        q,
        z,
        d_full,
        store,
        norm_b: 1.0,
        eps: 0.0,
        // For CG `ρ = ε` and this is the ε of the previous iteration; for
        // PCG it is the previous `⟨z, g⟩`. Both start from the ∞ sentinel
        // (β = 0).
        rho_old: f64::INFINITY,
        t: 0,
        iterations: 0,
        history: Vec::new(),
        pages_recovered: 0,
        pages_ignored: 0,
        pages_coupled: 0,
        cross_rank_values: 0,
        rollbacks: 0,
        restarts: 0,
    }
}

/// One coupled cross-rank recovery round plus the re-validation exchange
/// that follows it: the candidates' union is gathered, solved and installed
/// (see [`crate::coupled`]), then every fetched index round 1 flagged
/// invalid is re-requested once — its owner may just have received an exact
/// coupled reconstruction for it, in which case the refreshed value and
/// verdict keep the local planner from abandoning a now-solvable page. A
/// neighbourhood collective like its two halves; every rank calls it once
/// per faulty iteration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn coupled_round<F>(
    comm: &RankComm,
    a: &CsrMatrix,
    pages: &BlockPartition,
    own: &Range<usize>,
    rec: &[usize],
    lost: &[usize],
    own_blank: &[usize],
    requests: &HashMap<usize, Vec<usize>>,
    invalid_fetched: &[usize],
    rhs_local: &[f64],
    target_full: &mut [f64],
    solve: F,
) -> Result<(crate::coupled::CoupledOutcome, Vec<usize>, usize), CommError>
where
    F: Fn(&[usize], &[f64], &[f64]) -> Option<Vec<f64>>,
{
    let outcome = crate::coupled::coupled_cross_rank_recovery(
        comm,
        a,
        pages,
        own,
        rec,
        own_blank,
        invalid_fetched,
        rhs_local,
        target_full,
        solve,
    )?;
    let mut revalidate: HashMap<usize, Vec<usize>> = HashMap::new();
    for (peer, indices) in requests {
        let still: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|i| invalid_fetched.binary_search(i).is_ok())
            .collect();
        if !still.is_empty() {
            revalidate.insert(*peer, still);
        }
    }
    // Rows of pages the coupled round did not repair are still blank here
    // (local planning happens after this), so they stay unserviceable.
    let unserviceable: Vec<usize> = lost
        .iter()
        .filter(|p| outcome.recovered_pages.binary_search(p).is_err())
        .flat_map(|&p| global_rows(own.start, pages, p))
        .collect();
    let (fetched, invalid) = comm.recovery_exchange(&revalidate, target_full, &unserviceable)?;
    Ok((outcome, invalid, fetched))
}

/// The two opening collectives of the solve: ‖b‖ and the initial ε.
pub(crate) fn init_collectives(
    ctx: &RankCtx<'_>,
    comm: &RankComm,
    state: &mut SolveState,
) -> Result<(), CommError> {
    state.norm_b = kernels::global_rhs_norm(comm, &ctx.b[ctx.own.clone()])?;
    state.eps = comm.allreduce_sum(kernels::norm2_squared(&state.g))?;
    Ok(())
}

/// One collective reduces `[‖g‖², local_faults]`: `Some(ε)` — bitwise the
/// scalar `allreduce_sum` of `‖g‖²` — when no rank lost a page, else `None`
/// (the caller repairs, then reduces ε again). `prefetch` (AFEIR) posts the
/// round-1 recovery requests inside the collective's window.
fn eps_unless_faulted(
    comm: &RankComm,
    g: &[f64],
    local_faults: usize,
    prefetch: Option<&HashMap<usize, Vec<usize>>>,
) -> Result<Option<f64>, CommError> {
    let pending = comm.start_allreduce_vec(vec![kernels::norm2_squared(g), local_faults as f64])?;
    if let Some(requests) = prefetch {
        comm.post_recovery_requests(requests)?;
    }
    let sums = pending.finish()?;
    Ok((sums[1] == 0.0).then_some(sums[0]))
}

/// The top of iteration `t`, in both rank loops: the throttle sleep, then
/// the scripted faults due now, before any touch. A sleep does no
/// floating-point work, so a throttle leaves the bits untouched.
pub(crate) fn iteration_top(ctx: &RankCtx<'_>, t: usize) {
    if !ctx.throttle.is_zero() {
        std::thread::sleep(ctx.throttle);
    }
    if ctx.policy.needs_protection() {
        for fault in ctx.scripted.iter().filter(|f| f.iteration == t) {
            ctx.registry.inject(fault.vector.id(), fault.page);
        }
    }
}

/// The iteration phase: runs from `state.t` until convergence, breakdown or
/// the iteration cap, mutating `state` in place. A transport failure
/// surfaces as the typed [`CommError`] with `state` intact at the failed
/// iteration — which is exactly what the elastic rejoin path needs.
#[allow(clippy::too_many_lines)]
pub(crate) fn resilient_iterations<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    comm: &RankComm,
    state: &mut SolveState,
) -> Result<(), CommError> {
    let a = ctx.a;
    let b = ctx.b;
    let own = ctx.own.clone();
    let forward = ctx.policy.is_forward_exact();
    let preconditioned = relations.preconditioned();
    let registry = &ctx.registry;
    let pages = &ctx.pages;
    // Rank-local storage backend (CSR or SELL-C-σ) for the forward matvec
    // and the residual recomputations; per-page recovery matvecs run the
    // CSR row kernel over the lost rows (bitwise-identical to either
    // format, and converting a page to SELL would cost more than its
    // product).
    let op = SpmvBackend::select_rows(a, own.clone());
    // Residual replacement after a rollback or restart: g = b − A·x, then ε.
    let replace_residual = |x_full: &mut [f64], g: &mut [f64]| -> Result<f64, CommError> {
        comm.exchange_halo(x_full)?;
        op.spmv(a, x_full, g);
        for (k, r) in own.clone().enumerate() {
            g[k] = b[r] - g[k];
        }
        comm.allreduce_sum(kernels::norm2_squared(g))
    };

    let SolveState {
        x_full,
        g,
        d,
        q,
        z,
        d_full,
        store,
        norm_b,
        eps,
        rho_old,
        t,
        iterations,
        history,
        pages_recovered,
        pages_ignored,
        pages_coupled,
        cross_rank_values,
        rollbacks,
        restarts,
    } = state;

    while *t < ctx.max_iterations {
        let rel = eps.max(0.0).sqrt() / *norm_b;
        history.push(rel);
        if rel <= ctx.tolerance {
            break;
        }
        *iterations = *t + 1;
        let _it = feir_trace::span(feir_trace::Phase::Iteration);

        iteration_top(ctx, *t);

        // Periodic local checkpoint of (x, d, scalars).
        if let (RecoveryPolicy::Checkpoint { interval }, Some(store)) = (ctx.policy, store.as_mut())
        {
            if *t % interval.max(1) == 0 {
                store.checkpoint(*t, &x_full[own.clone()], d, &[*eps, *rho_old]);
            }
        }

        // ---- preconditioner application (PCG only) ------------------------
        // z ⇐ M⁻¹ g, one coupled block solve per page. For the forward
        // policies the reapplication is also the *recovery relation* for z:
        // a lost page is simply re-solved from the factorized diagonal
        // block, so the scrub here heals every z loss exactly. The baseline
        // policies must not get that exact recovery for free — their z
        // faults surface at the end-of-iteration sweeps and pay the
        // policy's own price (blanking, rollback, restart).
        let rho = if preconditioned {
            let lost_z = if forward {
                scrub_blank(registry, ids::Z, pages, z)
            } else {
                Vec::new()
            };
            for p in 0..pages.num_blocks() {
                let local = pages.range(p);
                relations.reapply_preconditioner(p, &g[local.clone()], &mut z[local]);
            }
            for &p in &lost_z {
                mark_page(registry, ids::Z, p);
            }
            *pages_recovered += lost_z.len();
            let rho = comm.allreduce_sum(kernels::dot(z, g))?;
            if kernels::is_breakdown(rho) {
                break;
            }
            rho
        } else {
            *eps
        };

        let beta = kernels::beta_ratio(rho, *rho_old);
        let src: &[f64] = if preconditioned { z } else { g };

        // ---- direction protection (FEIR/AFEIR; purely rank-local) --------
        // d still holds d(t−1) here and q holds A·d(t−1), so a lost page of
        // the direction is reconstructed from the inverse matvec relation
        // before the in-place update consumes it.
        let lost_d = if forward {
            scrub_blank(registry, ids::D, pages, d)
        } else {
            Vec::new()
        };
        if lost_d.is_empty() {
            // Fault-free fast path: the exact arithmetic of the plain loop.
            kernels::xpay(src, beta, d);
        } else {
            // Refresh the owned range of the retained snapshot (blanks
            // included — the lost values must not be readable) while the halo
            // keeps the d(t−1) entries of the neighbours.
            d_full[own.clone()].copy_from_slice(d);
            // A lost direction page is recoverable only if its q page
            // survived (simultaneous loss of d_R and q_R is the "related
            // data" case the paper ignores).
            let mut recoverable = Vec::new();
            let mut abandoned = Vec::new();
            for &p in &lost_d {
                if matches!(registry.on_access(ids::Q, p), AccessOutcome::Ok) {
                    recoverable.push(p);
                } else {
                    abandoned.push(p);
                }
            }
            let rows: Vec<usize> = recoverable
                .iter()
                .flat_map(|&p| global_rows(own.start, pages, p))
                .collect();
            let q_at_rows: Vec<f64> = recoverable
                .iter()
                .flat_map(|&p| pages.range(p))
                .map(|i| q[i])
                .collect();
            let values = if rows.is_empty() {
                None
            } else {
                relations.reconstruct_direction(&rows, &q_at_rows, d_full)
            };
            for p in 0..pages.num_blocks() {
                if !lost_d.contains(&p) {
                    for i in pages.range(p) {
                        d[i] = src[i] + beta * d[i];
                    }
                }
            }
            // Finish the update on the lost pages with the reconstructed
            // d(t−1) (or the blank, when unrecoverable).
            match values {
                Some(values) => {
                    for (&r, v) in rows.iter().zip(&values) {
                        let i = r - own.start;
                        d[i] = src[i] + beta * v;
                    }
                    *pages_recovered += recoverable.len();
                }
                None => {
                    for &p in &recoverable {
                        for i in pages.range(p) {
                            d[i] = src[i];
                        }
                    }
                    *pages_ignored += recoverable.len();
                }
            }
            for &p in &abandoned {
                for i in pages.range(p) {
                    d[i] = src[i];
                }
            }
            *pages_ignored += abandoned.len();
            for &p in &lost_d {
                mark_page(registry, ids::D, p);
            }
        }

        d_full[own.clone()].copy_from_slice(d);
        comm.exchange_halo(d_full)?;
        {
            let _probe = feir_trace::span(feir_trace::Phase::Spmv);
            op.spmv(a, d_full, q);
        }

        // ---- q protection (FEIR/AFEIR; local recompute, r1 of Figure 1) ---
        if forward {
            let lost_q = scrub_blank(registry, ids::Q, pages, q);
            for &p in &lost_q {
                let rows = global_rows(own.start, pages, p);
                a.spmv_rows(rows.start, rows.end, d_full, &mut q[pages.range(p)]);
                mark_page(registry, ids::Q, p);
            }
            *pages_recovered += lost_q.len();
        }
        let dq = comm.allreduce_sum(kernels::dot(d, q))?;
        if kernels::is_breakdown(dq) {
            break;
        }
        let alpha = rho / dq;
        kernels::axpy(alpha, d, &mut x_full[own.clone()]);
        kernels::axpy(-alpha, q, g);

        // ---- iterate/residual protection + ε reduction --------------------
        match ctx.policy {
            RecoveryPolicy::Ideal => {
                *rho_old = rho;
                *eps = comm.allreduce_sum(kernels::norm2_squared(g))?;
            }
            RecoveryPolicy::Feir | RecoveryPolicy::Afeir => {
                let lost_x = scrub_blank(registry, ids::X, pages, &mut x_full[own.clone()]);
                let lost_g = scrub_blank(registry, ids::G, pages, g);
                // Cross-rank round request set: the remote stencil entries
                // of every lost row (x is never exchanged by CG, so this is
                // the only way to evaluate the off-diagonal terms). Computed
                // before the flagged ε reduction so the AFEIR path can post
                // it inside that reduction's window.
                let lost_rows: Vec<usize> = lost_x
                    .iter()
                    .chain(&lost_g)
                    .flat_map(|&p| global_rows(own.start, pages, p))
                    .collect();
                let requests = if lost_rows.is_empty() {
                    HashMap::new()
                } else {
                    remote_stencil_requests(a, &ctx.partition, ctx.rank, &lost_rows)
                };
                // This rank's own scrubbed x rows are post-blank garbage: a
                // neighbour recovering at the same time must not treat them
                // as authoritative, so they travel as the unserviceable set.
                let own_blank_x: Vec<usize> = lost_x
                    .iter()
                    .flat_map(|&p| global_rows(own.start, pages, p))
                    .collect();
                // In-window AFEIR: a rank that lost pages posts its round-1
                // requests while the flagged ε reduction is in flight, so the
                // replies overlap its wait. Posted ⇒ consumed: a local loss
                // makes lane 1 > 0 on every rank, so all take the recovery
                // path below.
                let posted = ctx.policy == RecoveryPolicy::Afeir && !lost_rows.is_empty();
                let faults = lost_x.len() + lost_g.len();
                *rho_old = rho;
                if let Some(clean) =
                    eps_unless_faulted(comm, g, faults, posted.then_some(&requests))?
                {
                    *eps = clean;
                    *t += 1;
                    continue;
                }
                let (fetched, invalid_fetched) =
                    comm.complete_recovery_exchange(&requests, x_full, &own_blank_x, posted)?;
                *cross_rank_values += fetched;
                // Pages lost in both x and g are the unrecoverable
                // related-loss case: blank-accepted. Remote entries the
                // owner flagged invalid would poison a purely local solve —
                // but before giving up on them, the coupled cross-rank round
                // below tries to solve the boundary-spanning union exactly.
                let (rec_x, rec_g, conflicted) = split_related(&lost_x, &lost_g);
                let mut counters = InstallCounters::default();
                // AFEIR with only iterate losses: ε does not read x, so it
                // is posted now and the whole reconstruction — coupled
                // waves, re-validation, planning and installation — runs
                // inside its wait. FEIR, or a lost residual page, reduces
                // after the installation.
                let eps_in_flight = if ctx.policy == RecoveryPolicy::Afeir && lost_g.is_empty() {
                    Some(comm.start_allreduce(kernels::norm2_squared(g))?)
                } else {
                    None
                };
                let (coupled, invalid2, fetched2) = coupled_round(
                    comm,
                    a,
                    pages,
                    &own,
                    &rec_x,
                    &lost_x,
                    &own_blank_x,
                    &requests,
                    &invalid_fetched,
                    g,
                    x_full,
                    |rows, rhs, view| relations.reconstruct_iterate(rows, rhs, view),
                )?;
                *cross_rank_values += fetched2 + coupled.values_gathered;
                let mut blank_x: Vec<usize> = conflicted
                    .iter()
                    .flat_map(|&p| global_rows(own.start, pages, p))
                    .chain(invalid2)
                    .collect();
                blank_x.sort_unstable();
                blank_x.dedup();
                let losses = StateLosses {
                    rec_x: &rec_x,
                    rec_g: &rec_g,
                    blank_x: &blank_x,
                    cross_rank: &coupled.recovered_pages,
                };
                let plan = plan_state_fixes(relations, a, pages, own.start, losses, g, x_full);
                install_state_plan(
                    &plan,
                    pages,
                    registry,
                    &conflicted,
                    x_full,
                    g,
                    &mut counters,
                );
                *eps = match eps_in_flight {
                    Some(pending) => pending.finish()?,
                    None => comm.allreduce_sum(kernels::norm2_squared(g))?,
                };
                *pages_recovered += counters.recovered;
                *pages_ignored += counters.ignored;
                *pages_coupled += counters.coupled;
            }
            RecoveryPolicy::Trivial => {
                // Blank every lost page and keep going (Section 4.1): purely
                // local, no collectives beyond the ε reduction. z (when
                // present) is blank-accepted like everything else; the next
                // iteration's reapplication overwrites it anyway.
                *pages_ignored += blank_sweep(ctx, Some(&mut x_full[own.clone()]), [g, d, q, z]);
                *rho_old = rho;
                *eps = comm.allreduce_sum(kernels::norm2_squared(g))?;
            }
            RecoveryPolicy::TrivialReplace => {
                // Trivial blank-accept plus a residual-replacement rebuild:
                // lost pages are blanked exactly as Trivial does, but when
                // anything was lost anywhere the Krylov state is made
                // mutually consistent again — g is recomputed from the
                // blanked iterate and the direction recurrence restarts —
                // so the solve keeps converging at the price of a restart
                // instead of silently drifting on inconsistent vectors.
                let lost_total = blank_sweep(ctx, Some(&mut x_full[own.clone()]), [g, d, q, z]);
                *pages_ignored += lost_total;
                if let Some(clean) = eps_unless_faulted(comm, g, lost_total, None)? {
                    *rho_old = rho;
                    *eps = clean;
                } else {
                    d.iter_mut().for_each(|v| *v = 0.0);
                    *restarts += 1;
                    *rho_old = f64::INFINITY;
                    *eps = replace_residual(x_full, g)?;
                }
            }
            RecoveryPolicy::Checkpoint { .. } => {
                let lost_total = blank_sweep(ctx, Some(&mut x_full[own.clone()]), [g, d, q, z]);
                if let Some(clean) = eps_unless_faulted(comm, g, lost_total, None)? {
                    *rho_old = rho;
                    *eps = clean;
                } else {
                    // Global rollback: every rank restores its local
                    // checkpoint, then the residual is recomputed from the
                    // restored iterate (one extra halo exchange of x).
                    let store = store.as_mut().expect("checkpoint store exists");
                    let mut scalars = Vec::new();
                    if store
                        .rollback(&mut x_full[own.clone()], d, &mut scalars)
                        .is_some()
                    {
                        *rollbacks += 1;
                    }
                    *rho_old = scalars.get(1).copied().unwrap_or(f64::INFINITY);
                    *eps = replace_residual(x_full, g)?;
                }
            }
            RecoveryPolicy::LossyRestart => {
                let lost_x = scrub_blank(registry, ids::X, pages, &mut x_full[own.clone()]);
                let lost_total = lost_x.len() + blank_sweep(ctx, None, [g, d, q, z]);
                if let Some(clean) = eps_unless_faulted(comm, g, lost_total, None)? {
                    *rho_old = rho;
                    *eps = clean;
                } else {
                    // Interpolate the lost iterate pages (block-Jacobi step,
                    // no residual term), then restart globally.
                    let (recovered, ignored, fetched) =
                        lossy_fill_iterate(ctx, relations, comm, &lost_x, x_full)?;
                    *pages_recovered += recovered;
                    *pages_ignored += ignored;
                    *cross_rank_values += fetched;
                    // Restart: recompute g from the interpolated iterate and
                    // discard the Krylov space.
                    d.iter_mut().for_each(|v| *v = 0.0);
                    *restarts += 1;
                    *rho_old = f64::INFINITY;
                    *eps = replace_residual(x_full, g)?;
                }
            }
        }
        *t += 1;
    }
    Ok(())
}

/// Packages the finished state as the rank's outcome.
pub(crate) fn finish_outcome(ctx: &RankCtx<'_>, comm: &RankComm, state: SolveState) -> RankOutcome {
    RankOutcome {
        rank: ctx.rank,
        x: state.x_full[ctx.own.clone()].to_vec(),
        iterations: state.iterations,
        history: state.history,
        pages_recovered: state.pages_recovered,
        pages_ignored: state.pages_ignored,
        pages_coupled: state.pages_coupled,
        cross_rank_values: state.cross_rank_values,
        rollbacks: state.rollbacks,
        restarts: state.restarts,
        allreduces: comm.collectives(),
    }
}

/// The generic per-rank resilient loop (see the module docs): the four
/// phases composed back into one single-shot solve, or run by the elastic
/// harness when `ctx.elastic` is set. Like the plain rank loops it is
/// backend-agnostic and surfaces any transport failure as a typed
/// [`CommError`].
pub(crate) fn rank_resilient_solve<S: RecoverableIteration>(
    ctx: RankCtx<'_>,
    relations: &S,
    comm: RankComm,
) -> Result<RankOutcome, CommError> {
    if let Some(cfg) = &ctx.elastic {
        return rank_elastic_solve(&ctx, relations, comm, cfg);
    }
    let mut state = alloc_state(&ctx);
    init_collectives(&ctx, &comm, &mut state)?;
    resilient_iterations(&ctx, relations, &comm, &mut state)?;
    Ok(finish_outcome(&ctx, &comm, state))
}
