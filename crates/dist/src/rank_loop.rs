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
//! It is also the unprotected loop:
//! [`distributed_cg`](crate::cg::distributed_cg) and
//! [`distributed_pcg`](crate::pcg::distributed_pcg) run it at
//! [`RecoveryPolicy::Ideal`], which skips every scrub, repair and fault
//! flag. It preserves two hard guarantees:
//!
//! * **fault-free bitwise identity** — with zero faults a protected solve
//!   runs every kernel call and every collective in exactly the order of the
//!   `Ideal` solve, on the same values (the scrub points do no
//!   floating-point work, and the fault flag rides the ε reduction as a
//!   second lane that folds nothing into ε). Every policy runs the fused
//!   hot-path kernels: `q ⇐ A·d` with the local `⟨d, q⟩` partial, and
//!   `g ⇐ g − α·q` with the local `‖g‖²` partial. A fused partial is read
//!   only where no scrub, sweep or repair has changed its vector since the
//!   kernel ran; elsewhere the partial is computed again from the repaired
//!   vector;
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
//! Both resilient loops share their repair machinery. [`repair_pair`] is
//! the one FEIR/AFEIR round for a (vector, image) pair — recovery
//! exchange, related-loss split, coupled cross-rank round, taint fixpoint,
//! plan and installation — run here on `x`/`g` and by the merged loop on
//! `x`/`r` and `p`/`s`. [`SolveState::replace_residual`] is the one
//! residual replacement and Krylov restart, shared by the baseline
//! policies and the elastic rejoin, and [`PageCounts`] the one counter set.
//!
//! Both loops restart for a page a repair round blank-accepts — the related
//! data the paper ignores (§2.4), or any page whose relation reads a blank:
//! every rank replaces the residual. Here the count rides the post-repair ε
//! reduction as a second lane.
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

use feir_pagemem::{AccessOutcome, PageRegistry, VectorId};
use feir_recovery::checkpoint::{CheckpointStore, CheckpointTarget};
use feir_recovery::engine::{
    mark_page, plan_state_fixes, scrub_blank, split_related, StateLosses, StatePlan,
};
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
    /// The context of `rank` under `config`: its row block, its `pages`
    /// (see [`DistResilienceConfig::rank_pages`]), its scripted faults; no
    /// throttle and no elastic harness.
    pub(crate) fn new(
        a: &'a CsrMatrix,
        b: &'a [f64],
        partition: &RankPartition,
        rank: usize,
        config: &DistResilienceConfig,
        registry: Arc<PageRegistry>,
        pages: BlockPartition,
    ) -> Self {
        RankCtx {
            a,
            b,
            policy: config.policy,
            tolerance: config.tolerance,
            max_iterations: config.max_iterations,
            rank,
            own: partition.range(rank),
            pages,
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

/// The page counters of a resilient solve, as a rank loop accumulates them
/// and the outcome fold sums them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PageCounts {
    /// Pages reconstructed exactly or lossily.
    pub recovered: usize,
    /// Pages blank-accepted.
    pub ignored: usize,
    /// Subset of `recovered` reconstructed by the cross-rank coupled
    /// exchange (losses spanning a rank boundary, solved as one union).
    pub coupled: usize,
    /// Values fetched across rank boundaries by the recovery protocol.
    pub cross_rank_values: usize,
}

impl std::ops::AddAssign for PageCounts {
    fn add_assign(&mut self, other: PageCounts) {
        self.recovered += other.recovered;
        self.ignored += other.ignored;
        self.coupled += other.coupled;
        self.cross_rank_values += other.cross_rank_values;
    }
}

/// What one rank's loop reports back — or, once [`fold`](Self::fold)ed,
/// the whole machine's outcome. An `Ideal` solve reports zero page counters.
#[derive(Debug, Default)]
pub(crate) struct RankOutcome {
    pub rank: usize,
    /// The rank's owned block of the iterate; all of it once folded.
    pub x: Vec<f64>,
    pub iterations: usize,
    pub history: Vec<f64>,
    pub pages: PageCounts,
    pub rollbacks: usize,
    pub restarts: usize,
    pub allreduces: u64,
}

impl RankOutcome {
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
            all.pages += outcome.pages;
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

impl RankCtx<'_> {
    /// The global rows of the given local pages, in order.
    pub(crate) fn rows_of(&self, pages: &[usize]) -> Vec<usize> {
        pages
            .iter()
            .flat_map(|&p| global_rows(self.own.start, &self.pages, p))
            .collect()
    }

    /// For every given global row, the remote stencil columns grouped by
    /// owning rank — the request set of one recovery exchange.
    pub(crate) fn stencil_requests(&self, rows: &[usize]) -> HashMap<usize, Vec<usize>> {
        let mut requests: HashMap<usize, Vec<usize>> = HashMap::new();
        for &r in rows {
            let (cols, _) = self.a.row(r);
            for &c in cols {
                let c = c as usize;
                if !self.own.contains(&c) {
                    let owner = self.partition.owner_of(c);
                    requests.entry(owner).or_default().push(c);
                }
            }
        }
        for indices in requests.values_mut() {
            indices.sort_unstable();
            indices.dedup();
        }
        requests
    }
}

/// The lost pages of a protected vector and of its image in one faulted
/// iteration, with the round-1 request set the repair round exchanges.
pub(crate) struct PairLoss<'a> {
    /// Registry ids of the vector and of its image.
    ids: (VectorId, VectorId),
    lost: &'a [usize],
    lost_image: &'a [usize],
    /// The remote stencil entries of every lost row, by owning rank (the
    /// vector is never exchanged otherwise, so this is the only way to
    /// evaluate the off-diagonal terms).
    pub requests: HashMap<usize, Vec<usize>>,
    /// Whether AFEIR posts `requests` inside a reduction window before the
    /// round.
    posted: bool,
}

impl<'a> PairLoss<'a> {
    pub(crate) fn new(
        ctx: &RankCtx<'_>,
        ids: (VectorId, VectorId),
        lost: &'a [usize],
        lost_image: &'a [usize],
        posted: bool,
    ) -> Self {
        let rows = ctx.rows_of(&[lost, lost_image].concat());
        let requests = ctx.stencil_requests(&rows);
        PairLoss {
            ids,
            lost,
            lost_image,
            requests,
            posted,
        }
    }
}

/// One FEIR/AFEIR repair round for a (vector, image) pair — the classic
/// loop's `x`/`g` and the merged loop's `x`/`r` and `p`/`s`. Every rank
/// enters it together: the round-1 recovery exchange fetches the remote
/// stencil entries of the lost rows into `view` (the full-length vector
/// view), pages lost in both vectors are set aside as the related-data
/// case, the coupled cross-rank round solves the boundary-spanning union,
/// the planner runs the taint fixpoint and solves the rest, and the plan is
/// installed into `view` and `image`. `reconstruct` solves lost vector rows
/// from the image; `recompute` rebuilds image rows from the repaired view.
/// Returns the round's page counters and its plan.
pub(crate) fn repair_pair<R, C>(
    ctx: &RankCtx<'_>,
    comm: &RankComm,
    loss: &PairLoss<'_>,
    view: &mut [f64],
    image: &mut [f64],
    reconstruct: R,
    recompute: C,
) -> Result<(PageCounts, StatePlan), CommError>
where
    R: Fn(&[usize], &[f64], &[f64]) -> Option<Vec<f64>>,
    C: Fn(Range<usize>, &[f64], &mut [f64]),
{
    // This rank's own scrubbed rows are post-blank garbage: a neighbour
    // recovering at the same time must not treat them as authoritative, so
    // they travel as the unserviceable set.
    let own_blank = ctx.rows_of(loss.lost);
    let (fetched, invalid) =
        comm.complete_recovery_exchange(&loss.requests, view, &own_blank, loss.posted)?;
    // Pages lost in both vectors are the unrecoverable related-loss case:
    // blank-accepted. Remote entries the owner flagged invalid would poison
    // a purely local solve — but before giving up on them, the coupled
    // cross-rank round tries to solve the boundary-spanning union exactly.
    let (rec, rec_image, conflicted) = split_related(loss.lost, loss.lost_image);
    let (coupled, invalid, refetched) = coupled_round(
        comm,
        ctx,
        &rec,
        loss,
        &own_blank,
        &invalid,
        image,
        view,
        &reconstruct,
    )?;
    let mut counts = PageCounts {
        cross_rank_values: fetched + refetched + coupled.values_gathered,
        ..PageCounts::default()
    };
    let mut blank: Vec<usize> = ctx
        .rows_of(&conflicted)
        .into_iter()
        .chain(invalid)
        .collect();
    blank.sort_unstable();
    blank.dedup();
    let losses = StateLosses {
        rec: &rec,
        rec_image: &rec_image,
        blank: &blank,
        cross_rank: &coupled.recovered_pages,
    };
    let plan = plan_state_fixes(
        ctx.a,
        &ctx.pages,
        ctx.own.start,
        losses,
        image,
        view,
        reconstruct,
        recompute,
    );
    install_state_plan(&plan, ctx, loss.ids, &conflicted, view, image, &mut counts);
    Ok((counts, plan))
}

/// Installs a planned vector/image reconstruction into the live vectors and
/// clears the page-loss state of both. Under AFEIR with only iterate pages
/// lost this runs inside the split-phase ε reduction's wait; the residual
/// it reduces is untouched by an iterate-only plan.
fn install_state_plan(
    plan: &StatePlan,
    ctx: &RankCtx<'_>,
    (id, image_id): (VectorId, VectorId),
    conflicted: &[usize],
    view: &mut [f64],
    image: &mut [f64],
    counts: &mut PageCounts,
) {
    let _probe = feir_trace::span(feir_trace::Phase::RecoveryInstall);
    let (registry, pages) = (&*ctx.registry, &ctx.pages);
    // Pages the coupled cross-rank exchange repaired carry installed exact
    // values already; here they only need their page-state cleared and the
    // recovery credited.
    counts.recovered += plan.cross_rank.len();
    counts.coupled += plan.cross_rank.len();
    match &plan.values {
        Some(values) => {
            for (&r, v) in plan.rows.iter().zip(values) {
                view[r] = *v;
            }
            counts.recovered += plan.pages.len();
        }
        None => counts.ignored += plan.pages.len(),
    }
    for p in plan
        .cross_rank
        .iter()
        .chain(&plan.pages)
        .chain(&plan.ignored)
    {
        mark_page(registry, id, *p);
    }
    counts.ignored += plan.ignored.len();
    for (p, values) in &plan.image_fixes {
        image[pages.range(*p)].copy_from_slice(values);
        mark_page(registry, image_id, *p);
    }
    counts.recovered += plan.image_fixes.len();
    for &p in &plan.image_ignored {
        mark_page(registry, image_id, p);
    }
    counts.ignored += plan.image_ignored.len();
    for &p in conflicted {
        mark_page(registry, id, p);
        mark_page(registry, image_id, p);
    }
    counts.ignored += 2 * conflicted.len();
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
fn coupled_round<F>(
    comm: &RankComm,
    ctx: &RankCtx<'_>,
    rec: &[usize],
    loss: &PairLoss<'_>,
    own_blank: &[usize],
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
        ctx.a,
        &ctx.pages,
        &ctx.own,
        rec,
        own_blank,
        invalid_fetched,
        rhs_local,
        target_full,
        solve,
    )?;
    let mut revalidate: HashMap<usize, Vec<usize>> = HashMap::new();
    for (peer, indices) in &loss.requests {
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
    let unrepaired: Vec<usize> = loss
        .lost
        .iter()
        .copied()
        .filter(|p| outcome.recovered_pages.binary_search(p).is_err())
        .collect();
    let unserviceable = ctx.rows_of(&unrepaired);
    let (fetched, invalid) = comm.recovery_exchange(&revalidate, target_full, &unserviceable)?;
    Ok((outcome, invalid, fetched))
}

/// The baseline policies' end-of-iteration sweep: scrubs the iterate (when
/// given; LossyRestart scrubs it itself), the residual, the direction, its
/// matvec image and, when registered (preconditioned solvers), `z`, in
/// registry-id order — blanking each lost page and marking it healthy
/// again. Returns how many pages were blanked. The pre-loop scrub runs it
/// too: there a blank page is the known initial state.
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

/// Interpolates each given iterate page in place with the lossy
/// block-Jacobi relation (no residual term), counting it recovered, or
/// ignored when its block is unsolvable.
pub(crate) fn lossy_fill_pages<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    lost: impl IntoIterator<Item = usize>,
    x_full: &mut [f64],
    counts: &mut PageCounts,
) {
    for p in lost {
        let rows = ctx.rows_of(&[p]);
        match relations.lossy_iterate_rows(&rows, x_full) {
            Some(values) => {
                for (&r, v) in rows.iter().zip(&values) {
                    x_full[r] = *v;
                }
                counts.recovered += 1;
            }
            None => counts.ignored += 1,
        }
    }
}

/// LossyRestart's iterate repair: fetches the remote stencil entries of the
/// lost iterate pages, interpolates each page ([`lossy_fill_pages`]) and
/// marks it healthy. Lossy interpolation has no exactness claim, so
/// flagged-invalid fetches are used as-is (they are part of what makes it
/// lossy).
pub(crate) fn lossy_fill_iterate<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    comm: &RankComm,
    lost_x: &[usize],
    x_full: &mut [f64],
) -> Result<PageCounts, CommError> {
    let lost_rows = ctx.rows_of(lost_x);
    let requests = ctx.stencil_requests(&lost_rows);
    let (fetched, _) = comm.recovery_exchange(&requests, x_full, &lost_rows)?;
    let mut counts = PageCounts {
        cross_rank_values: fetched,
        ..PageCounts::default()
    };
    lossy_fill_pages(ctx, relations, lost_x.iter().copied(), x_full, &mut counts);
    for &p in lost_x {
        mark_page(&ctx.registry, ids::X, p);
    }
    Ok(counts)
}

/// The complete mutable state of one rank's solve between iterations — what
/// the elastic harness snapshots conceptually when a peer dies: everything
/// here survives the aborted collective and is repaired (or rebuilt) before
/// the loop re-enters at the rejoin iteration.
pub(crate) struct SolveState {
    /// Rank-local storage backend (CSR or SELL-C-σ) of the forward matvec
    /// and the residual replacements; per-page recovery matvecs run the CSR
    /// row kernel over the lost rows (bitwise-identical to either format,
    /// and converting a page to SELL would cost more than its product).
    pub op: SpmvBackend,
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
    pub pages: PageCounts,
    pub rollbacks: usize,
    pub restarts: usize,
}

impl SolveState {
    /// Residual replacement: `g = b − A·x` from the current iterate (one
    /// halo exchange of `x`), then ε reduced from it. With `restart` it is
    /// also a Krylov restart (β = 0): the direction is zeroed, `ρ_old` goes
    /// back to the ∞ sentinel and the restart is counted.
    pub(crate) fn replace_residual(
        &mut self,
        ctx: &RankCtx<'_>,
        comm: &RankComm,
        restart: bool,
    ) -> Result<(), CommError> {
        comm.exchange_halo(&mut self.x_full)?;
        self.op.spmv(ctx.a, &self.x_full, &mut self.g);
        for (k, r) in ctx.own.clone().enumerate() {
            self.g[k] = ctx.b[r] - self.g[k];
        }
        if restart {
            self.d.fill(0.0);
            self.rho_old = f64::INFINITY;
            self.restarts += 1;
        }
        self.eps = comm.allreduce_sum(kernels::norm2_squared(&self.g))?;
        Ok(())
    }

    /// Restores the last local checkpoint of `(x, d)`, if there is one, and
    /// counts the rollback; returns its scalars (empty without one).
    pub(crate) fn rollback(&mut self, own: &Range<usize>) -> Vec<f64> {
        let mut scalars = Vec::new();
        if let Some(store) = self.store.as_mut() {
            let x = &mut self.x_full[own.clone()];
            if store.rollback(x, &mut self.d, &mut scalars).is_some() {
                self.rollbacks += 1;
            }
        }
        scalars
    }
}

/// Allocates the solve vectors, runs the pre-loop scrub and creates the
/// checkpoint store. Purely rank-local: no collectives, so a newcomer can
/// run it before the rejoin barrier.
pub(crate) fn alloc_state(ctx: &RankCtx<'_>) -> SolveState {
    let own = ctx.own.clone();
    let n = ctx.a.cols();

    // x lives inside its full-length buffer so cross-rank recovery can
    // scatter fetched halo entries around the owned range.
    let mut x_full = vec![0.0; n];
    let mut g: Vec<f64> = ctx.b[own.clone()].to_vec(); // g = b − A·0
    let mut d = vec![0.0; own.len()];
    let mut q = vec![0.0; own.len()];
    // z is allocated unconditionally; the CG instantiation never touches it
    // (resilient_iterations sizes its use by `relations.preconditioned()`).
    let mut z = vec![0.0; own.len()];

    // Pre-loop scrub: faults injected before the solve land on the known
    // initial state, so the blank page *is* the correct data (x = d = q = 0)
    // or is refilled trivially (g = b; z is recomputed before first use).
    if ctx.policy.needs_protection() {
        let x = Some(&mut x_full[own.clone()]);
        blank_sweep(ctx, x, [&mut g, &mut d, &mut q, &mut z]);
        g.copy_from_slice(&ctx.b[own.clone()]);
    }

    let store = match ctx.policy {
        RecoveryPolicy::Checkpoint { .. } => Some(CheckpointStore::new(CheckpointTarget::Memory)),
        _ => None,
    };

    SolveState {
        op: SpmvBackend::select_rows(ctx.a, own),
        x_full,
        g,
        d,
        q,
        z,
        d_full: vec![0.0; n],
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
        pages: PageCounts::default(),
        rollbacks: 0,
        restarts: 0,
    }
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

/// One collective reduces `[g_norm2, local_faults]`: `Some(ε)` — bitwise
/// the scalar `allreduce_sum` of `g_norm2` — when no rank lost a page, else
/// `None` (the caller repairs, then reduces ε again). `g_norm2` is the local
/// `‖g‖²` partial of the residual update; it is read only when no rank lost
/// a page, so no scrub or sweep has changed `g` since it was computed.
/// `prefetch` (AFEIR) posts the round-1 recovery requests inside the
/// collective's window.
fn eps_unless_faulted(
    comm: &RankComm,
    g_norm2: f64,
    local_faults: usize,
    prefetch: Option<&HashMap<usize, Vec<usize>>>,
) -> Result<Option<f64>, CommError> {
    let pending = comm.start_allreduce_vec(vec![g_norm2, local_faults as f64])?;
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

/// The iteration phase: runs from `st.t` until convergence, breakdown or
/// the iteration cap, mutating the state in place. A transport failure
/// surfaces as the typed [`CommError`] with the state intact at the failed
/// iteration — which is exactly what the elastic rejoin path needs.
#[allow(clippy::too_many_lines)]
pub(crate) fn resilient_iterations<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    comm: &RankComm,
    st: &mut SolveState,
) -> Result<(), CommError> {
    let a = ctx.a;
    let own = ctx.own.clone();
    let forward = ctx.policy.is_forward_exact();
    let preconditioned = relations.preconditioned();
    let registry = &ctx.registry;
    let pages = &ctx.pages;

    while st.t < ctx.max_iterations {
        let rel = st.eps.max(0.0).sqrt() / st.norm_b;
        st.history.push(rel);
        if rel <= ctx.tolerance {
            break;
        }
        st.iterations = st.t + 1;
        let _it = feir_trace::span(feir_trace::Phase::Iteration);

        iteration_top(ctx, st.t);

        // Periodic local checkpoint of (x, d, scalars).
        if let (RecoveryPolicy::Checkpoint { interval }, Some(store)) =
            (ctx.policy, st.store.as_mut())
        {
            if st.t.is_multiple_of(interval.max(1)) {
                store.checkpoint(st.t, &st.x_full[own.clone()], &st.d, &[st.eps, st.rho_old]);
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
                scrub_blank(registry, ids::Z, pages, &mut st.z)
            } else {
                Vec::new()
            };
            for p in 0..pages.num_blocks() {
                let local = pages.range(p);
                relations.reapply_preconditioner(p, &st.g[local.clone()], &mut st.z[local]);
            }
            for &p in &lost_z {
                mark_page(registry, ids::Z, p);
            }
            st.pages.recovered += lost_z.len();
            let rho = comm.allreduce_sum(kernels::dot(&st.z, &st.g))?;
            if kernels::is_breakdown(rho) {
                break;
            }
            rho
        } else {
            st.eps
        };

        let beta = kernels::beta_ratio(rho, st.rho_old);
        let (src, d): (&[f64], _) = if preconditioned {
            (&st.z, &mut st.d)
        } else {
            (&st.g, &mut st.d)
        };

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
            // Fault-free fast path, and the only one at `Ideal`.
            kernels::xpay(src, beta, d);
        } else {
            // Refresh the owned range of the retained snapshot (blanks
            // included — the lost values must not be readable) while the halo
            // keeps the d(t−1) entries of the neighbours.
            st.d_full[own.clone()].copy_from_slice(d);
            // A lost direction page is recoverable only if its q page
            // survived (simultaneous loss of d_R and q_R is the "related
            // data" case the paper ignores).
            let (recoverable, abandoned): (Vec<usize>, Vec<usize>) = lost_d
                .iter()
                .partition(|&&p| matches!(registry.on_access(ids::Q, p), AccessOutcome::Ok));
            let rows = ctx.rows_of(&recoverable);
            let q_at_rows: Vec<f64> = recoverable
                .iter()
                .flat_map(|&p| pages.range(p))
                .map(|i| st.q[i])
                .collect();
            let values = if rows.is_empty() {
                None
            } else {
                relations.reconstruct_direction(&rows, &q_at_rows, &st.d_full)
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
                    st.pages.recovered += recoverable.len();
                }
                None => {
                    for &p in &recoverable {
                        for i in pages.range(p) {
                            d[i] = src[i];
                        }
                    }
                    st.pages.ignored += recoverable.len();
                }
            }
            for &p in &abandoned {
                for i in pages.range(p) {
                    d[i] = src[i];
                }
            }
            st.pages.ignored += abandoned.len();
            for &p in &lost_d {
                mark_page(registry, ids::D, p);
            }
        }

        st.d_full[own.clone()].copy_from_slice(&st.d);
        comm.exchange_halo(&mut st.d_full)?;
        // q ⇐ A·d over the owned rows, fused with the local ⟨d, q⟩ partial
        // (one sweep; bitwise-identical to the unfused pair).
        let mut dq_local = {
            let _probe = feir_trace::span(feir_trace::Phase::Spmv);
            st.op.spmv_dot(a, &st.d_full, &mut st.q)
        };

        // ---- q protection (FEIR/AFEIR; local recompute, r1 of Figure 1) ---
        if forward {
            let lost_q = scrub_blank(registry, ids::Q, pages, &mut st.q);
            if !lost_q.is_empty() {
                for &p in &lost_q {
                    let rows = global_rows(own.start, pages, p);
                    a.spmv_rows(rows.start, rows.end, &st.d_full, &mut st.q[pages.range(p)]);
                    mark_page(registry, ids::Q, p);
                }
                // The fused partial read the lost pages: reduce the repaired q.
                dq_local = kernels::dot(&st.d, &st.q);
            }
            st.pages.recovered += lost_q.len();
        }
        let dq = comm.allreduce_sum(dq_local)?;
        if kernels::is_breakdown(dq) {
            break;
        }
        let alpha = rho / dq;
        kernels::axpy(alpha, &st.d, &mut st.x_full[own.clone()]);
        // g ⇐ g − α·q fused with the local ‖g‖² partial of the next ε, valid
        // until a scrub, sweep or repair changes g.
        let g_norm2 = kernels::axpy_norm2(-alpha, &st.q, &mut st.g);

        // ---- iterate/residual protection + ε reduction --------------------
        match ctx.policy {
            RecoveryPolicy::Ideal => {
                st.rho_old = rho;
                st.eps = comm.allreduce_sum(g_norm2)?;
            }
            RecoveryPolicy::Feir | RecoveryPolicy::Afeir => {
                let lost_x = scrub_blank(registry, ids::X, pages, &mut st.x_full[own.clone()]);
                let lost_g = scrub_blank(registry, ids::G, pages, &mut st.g);
                // In-window AFEIR: a rank that lost pages posts its round-1
                // requests while the flagged ε reduction is in flight, so the
                // replies overlap its wait. Posted ⇒ consumed: a local loss
                // makes lane 1 > 0 on every rank, so all take the recovery
                // path below.
                let faults = lost_x.len() + lost_g.len();
                let posted = ctx.policy == RecoveryPolicy::Afeir && faults > 0;
                let loss = PairLoss::new(ctx, (ids::X, ids::G), &lost_x, &lost_g, posted);
                st.rho_old = rho;
                let prefetch = posted.then_some(&loss.requests);
                if let Some(clean) = eps_unless_faulted(comm, g_norm2, faults, prefetch)? {
                    st.eps = clean;
                    st.t += 1;
                    continue;
                }
                // AFEIR with only iterate losses: ε does not read x and the
                // round writes no residual page, so ε is posted now (from the
                // fused partial: g is unscrubbed) and the whole repair runs
                // inside its wait. FEIR, or a lost residual page, reduces
                // after the repair, its blank-accepted count as lane 1. An
                // early rank posts 0: having lost no `g` page, it can only
                // blank an `x` page whose chain of blanks starts at a rank
                // that did, and that rank's lane counts.
                let eps_in_flight = if ctx.policy == RecoveryPolicy::Afeir && lost_g.is_empty() {
                    Some(comm.start_allreduce_vec(vec![g_norm2, 0.0])?)
                } else {
                    None
                };
                let (counts, _) = repair_pair(
                    ctx,
                    comm,
                    &loss,
                    &mut st.x_full,
                    &mut st.g,
                    |rows, g_at, view| relations.reconstruct_iterate(rows, g_at, view),
                    |rows, view, out| relations.residual_rows(rows, view, out),
                )?;
                st.pages += counts;
                let ignored = counts.ignored as f64;
                let sums = match eps_in_flight {
                    Some(pending) => pending.finish()?,
                    None => comm.allreduce_vec(vec![kernels::norm2_squared(&st.g), ignored])?,
                };
                debug_assert!(ignored == 0.0 || sums[1] > 0.0);
                st.eps = sums[0];
                // A blank-accepted page leaves `g ≠ b − A·x` for good: restart.
                if sums[1] > 0.0 {
                    st.replace_residual(ctx, comm, true)?;
                }
            }
            RecoveryPolicy::Trivial => {
                // Blank every lost page and keep going (Section 4.1): purely
                // local, no collectives beyond the ε reduction. z (when
                // present) is blank-accepted like everything else; the next
                // iteration's reapplication overwrites it anyway.
                let x = Some(&mut st.x_full[own.clone()]);
                let blanked = blank_sweep(ctx, x, [&mut st.g, &mut st.d, &mut st.q, &mut st.z]);
                st.pages.ignored += blanked;
                st.rho_old = rho;
                let g_norm2 = if blanked == 0 {
                    g_norm2
                } else {
                    kernels::norm2_squared(&st.g)
                };
                st.eps = comm.allreduce_sum(g_norm2)?;
            }
            RecoveryPolicy::TrivialReplace
            | RecoveryPolicy::Checkpoint { .. }
            | RecoveryPolicy::LossyRestart => {
                // LossyRestart keeps its lost iterate pages lost until it
                // has interpolated them; the others blank them in the sweep.
                let lossy = ctx.policy == RecoveryPolicy::LossyRestart;
                let lost_x = if lossy {
                    scrub_blank(registry, ids::X, pages, &mut st.x_full[own.clone()])
                } else {
                    Vec::new()
                };
                let x = (!lossy).then_some(&mut st.x_full[own.clone()]);
                let lost_total = lost_x.len()
                    + blank_sweep(ctx, x, [&mut st.g, &mut st.d, &mut st.q, &mut st.z]);
                if ctx.policy == RecoveryPolicy::TrivialReplace {
                    st.pages.ignored += lost_total;
                }
                if let Some(clean) = eps_unless_faulted(comm, g_norm2, lost_total, None)? {
                    st.rho_old = rho;
                    st.eps = clean;
                } else if lossy || ctx.policy == RecoveryPolicy::TrivialReplace {
                    // Something was lost somewhere: make the Krylov state
                    // mutually consistent again — g recomputed from the
                    // blanked (TrivialReplace) or interpolated (LossyRestart,
                    // block-Jacobi step, no residual term) iterate, and the
                    // direction recurrence restarted — so the solve keeps
                    // converging at the price of a restart instead of
                    // silently drifting on inconsistent vectors.
                    if lossy {
                        st.pages +=
                            lossy_fill_iterate(ctx, relations, comm, &lost_x, &mut st.x_full)?;
                    }
                    st.replace_residual(ctx, comm, true)?;
                } else {
                    // Global rollback: every rank restores its local
                    // checkpoint, then the residual is recomputed from the
                    // restored iterate (one extra halo exchange of x).
                    st.rho_old = st.rollback(&own).get(1).copied().unwrap_or(f64::INFINITY);
                    st.replace_residual(ctx, comm, false)?;
                }
            }
        }
        st.t += 1;
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
        pages: state.pages,
        rollbacks: state.rollbacks,
        restarts: state.restarts,
        allreduces: comm.collectives(),
    }
}

/// The generic per-rank resilient loop (see the module docs): the four
/// phases composed back into one single-shot solve, or run by the elastic
/// harness when `ctx.elastic` is set. Backend-agnostic: it surfaces any
/// transport failure as a typed [`CommError`].
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
