//! The engine-based per-rank loop of the **merged-reduction** resilient
//! solvers.
//!
//! This is the merged (pipelined Chronopoulos–Gear) counterpart of
//! [`rank_loop`](crate::rank_loop): one generic loop, parameterised by a
//! [`RecoverableIteration`] ([`MergedCgRelations`](feir_recovery::MergedCgRelations)
//! or [`MergedPcgRelations`](feir_recovery::MergedPcgRelations)), runs the
//! full [`RecoveryPolicy`] matrix on every simulated rank while keeping the
//! merged hot path's defining property: **one collective per iteration**.
//!
//! The protected set maps the classic ids onto the merged vectors — `x`
//! (iterate), `r` (recurrence residual, id `G`), `p` (direction, id `D`),
//! `s = A·p` (matvec image, id `Q`) and for PCG `u = M⁻¹·r` (id `Z`). The
//! companion recurrences (`w = A·u`, `q = M⁻¹·s`, `z = A·q`) are pure
//! functions of protected vectors and stay unprotected.
//!
//! Three structural guarantees:
//!
//! * **fault-free bitwise identity** — with zero faults every kernel call,
//!   every halo exchange and the single vector allreduce happen exactly as
//!   at [`RecoveryPolicy::Ideal`] (the unprotected [`merged`](crate::merged)
//!   solve), on the same values. The forward policies append their
//!   scrubbed-fault count as an extra component of the *same* collective
//!   (component-wise reduction leaves the `γ, δ, ε` bits untouched), so even
//!   the fault flag costs no second synchronization. Only a faulted forward
//!   iteration enters a second one, after its repair: the restart flag.
//! * **FEIR and AFEIR repair through one code path** — the scrub point
//!   sits before the collective is posted, the matvec overlaps the
//!   reduction as at `Ideal`, and every lost page is rebuilt after the
//!   collective lands by the same calls under both policies, so their
//!   faulted solves are bitwise-identical. AFEIR only posts its
//!   direction-side round-1 recovery requests inside the reduction window
//!   ([`RankComm::post_recovery_requests`]), so the peers' replies overlap
//!   the wait. Both rounds — `p` against `s = A·p`, then `x` against `r` —
//!   are the classic loop's one [`repair_pair`], and a page either round
//!   blank-accepts restarts the solve, as in the classic loop.
//! * **losses materialise before the convergence check** — recovery (or
//!   blank-acceptance) completes before a converged iteration can break out
//!   of the loop, so the assembled solution never silently contains a
//!   scrubbed blank.

use feir_recovery::checkpoint::{CheckpointStore, CheckpointTarget};
use feir_recovery::engine::{mark_page, scrub_blank};
use feir_recovery::{RecoverableIteration, RecoveryPolicy};
use feir_sparse::SpmvBackend;

use crate::comm::{CommError, RankComm};
use crate::kernels;
use crate::merged::merged_alpha;
use crate::rank_loop::{
    blank_sweep, ids, iteration_top, lossy_fill_iterate, repair_pair, PageCounts, PairLoss,
    RankCtx, RankOutcome,
};

/// The merged loop's vectors and scalars between iterations.
struct MergedState {
    /// Rank-local storage backend (CSR or SELL-C-σ) of the forward matvecs
    /// and the recurrence rebuilds; per-page recovery matvecs run the CSR
    /// row kernel over the lost rows.
    op: SpmvBackend,
    /// The iterate inside its full-length buffer: cross-rank recovery
    /// scatters fetched halo entries around the owned range.
    x_full: Vec<f64>,
    r: Vec<f64>,
    /// `M⁻¹·r` (PCG only).
    u: Vec<f64>,
    /// `A·u` (CG: `A·r`), by setup then recurrence.
    w: Vec<f64>,
    /// The direction, and `s = A·p` by recurrence.
    p: Vec<f64>,
    s: Vec<f64>,
    /// `M⁻¹·s` (PCG only) and `A·q` (CG: `A·s`), by recurrence.
    q_aux: Vec<f64>,
    z_aux: Vec<f64>,
    /// `M⁻¹·w` (PCG only) and `A·m` (CG: `A·w`), fresh per iteration.
    m_buf: Vec<f64>,
    n_buf: Vec<f64>,
    /// Full-length matvec source, and the direction view of the
    /// direction-side repair round.
    mv_full: Vec<f64>,
    p_full: Vec<f64>,
    /// The reduction partials the next iteration posts.
    partials: Vec<f64>,
    gamma_old: f64,
    alpha_old: f64,
    store: Option<CheckpointStore>,
    pages: PageCounts,
    rollbacks: usize,
    restarts: usize,
}

/// The generic per-rank merged resilient loop (see the module docs).
/// Backend-agnostic; transport failures surface as typed [`CommError`]s.
#[allow(clippy::too_many_lines)]
pub(crate) fn rank_merged_resilient_solve<S: RecoverableIteration>(
    ctx: RankCtx<'_>,
    relations: &S,
    comm: RankComm,
) -> Result<RankOutcome, CommError> {
    let a = ctx.a;
    let own = ctx.own.clone();
    let n = a.cols();
    let local_n = own.len();
    let forward = ctx.policy.is_forward_exact();
    let preconditioned = relations.preconditioned();
    let registry = &ctx.registry;
    let pages = &ctx.pages;
    let pc_n = if preconditioned { local_n } else { 0 };

    let mut m = MergedState {
        op: SpmvBackend::select_rows(a, own.clone()),
        x_full: vec![0.0; n],
        r: ctx.b[own.clone()].to_vec(), // r = b − A·0
        u: vec![0.0; pc_n],
        w: vec![0.0; local_n],
        p: vec![0.0; local_n],
        s: vec![0.0; local_n],
        q_aux: vec![0.0; pc_n],
        z_aux: vec![0.0; local_n],
        m_buf: vec![0.0; pc_n],
        n_buf: vec![0.0; local_n],
        mv_full: vec![0.0; n],
        p_full: vec![0.0; n],
        partials: Vec::new(),
        gamma_old: f64::INFINITY,
        alpha_old: 0.0,
        store: match ctx.policy {
            RecoveryPolicy::Checkpoint { .. } => {
                Some(CheckpointStore::new(CheckpointTarget::Memory))
            }
            _ => None,
        },
        pages: PageCounts::default(),
        rollbacks: 0,
        restarts: 0,
    };

    // Pre-loop scrub: faults injected before the solve are healed for free —
    // the setup below recomputes every protected vector from b (and x = 0 is
    // already the correct initial iterate).
    if ctx.policy.needs_protection() {
        let x = Some(&mut m.x_full[own.clone()]);
        blank_sweep(&ctx, x, [&mut m.r, &mut m.p, &mut m.s, &mut m.u]);
        m.r.copy_from_slice(&ctx.b[own.clone()]);
    }

    let norm_b = kernels::global_rhs_norm(&comm, &ctx.b[own.clone()])?;
    // Setup, identical under every policy: u = M⁻¹·r (PCG), one halo
    // exchange of the matvec source, w = A·(u|r), first reduction partials.
    if preconditioned {
        for pg in 0..pages.num_blocks() {
            let lr = pages.range(pg);
            relations.reapply_preconditioner(pg, &m.r[lr.clone()], &mut m.u[lr]);
        }
        m.mv_full[own.clone()].copy_from_slice(&m.u);
    } else {
        m.mv_full[own.clone()].copy_from_slice(&m.r);
    }
    comm.exchange_halo(&mut m.mv_full)?;
    m.op.spmv(a, &m.mv_full, &mut m.w);
    m.partials = m.reduction_partials(preconditioned);

    let mut iterations = 0usize;
    let mut history = Vec::new();

    for t in 0..ctx.max_iterations {
        let _it = feir_trace::span(feir_trace::Phase::Iteration);
        iteration_top(&ctx, t);
        // Periodic local checkpoint of (x, p, recurrence scalars). Baseline
        // policies materialise faults at the end-of-iteration sweeps, so the
        // data checkpointed here is still intact.
        if let (RecoveryPolicy::Checkpoint { interval }, Some(store)) =
            (ctx.policy, m.store.as_mut())
        {
            if t % interval.max(1) == 0 {
                store.checkpoint(t, &m.x_full[own.clone()], &m.p, &[m.gamma_old, m.alpha_old]);
            }
        }

        // ---- scrub point (forward policies): materialise losses up front so
        // the fault count can ride inside the iteration's one collective.
        let (lost_x, lost_r, lost_p, lost_s, lost_u) = if forward {
            (
                scrub_blank(registry, ids::X, pages, &mut m.x_full[own.clone()]),
                scrub_blank(registry, ids::G, pages, &mut m.r),
                scrub_blank(registry, ids::D, pages, &mut m.p),
                scrub_blank(registry, ids::Q, pages, &mut m.s),
                if preconditioned {
                    scrub_blank(registry, ids::Z, pages, &mut m.u)
                } else {
                    Vec::new()
                },
            )
        } else {
            Default::default()
        };
        let local_faults = lost_x.len() + lost_r.len() + lost_p.len() + lost_s.len() + lost_u.len();

        // ---- the single collective of the iteration, posted before the
        // matvec it overlaps. Forward policies append their fault count as
        // one more component — same message to every peer, same fold.
        let mut post = m.partials.clone();
        if forward {
            post.push(local_faults as f64);
        }
        let pending = comm.start_allreduce_vec(post)?;

        // Direction-side round-1 requests of a faulted rank. AFEIR posts
        // them here, so the peers' replies overlap the reduction wait; a
        // local loss forces the global flag, so posted requests are always
        // consumed. Fault-free iterations post nothing and the wire schedule
        // stays bitwise-identical to the `Ideal` solve.
        let posted = ctx.policy == RecoveryPolicy::Afeir && local_faults > 0;
        let direction_loss = PairLoss::new(&ctx, (ids::D, ids::Q), &lost_p, &lost_s, posted);
        if posted {
            comm.post_recovery_requests(&direction_loss.requests)?;
        }

        // ---- reduction window: preconditioner application, halo exchange
        // and matvec all run with the collective in flight.
        if preconditioned {
            for pg in 0..pages.num_blocks() {
                let lr = pages.range(pg);
                relations.reapply_preconditioner(pg, &m.w[lr.clone()], &mut m.m_buf[lr]);
            }
            m.mv_full[own.clone()].copy_from_slice(&m.m_buf);
        } else {
            m.mv_full[own.clone()].copy_from_slice(&m.w);
        }
        comm.exchange_halo(&mut m.mv_full)?;
        {
            let _probe = feir_trace::span(feir_trace::Phase::Spmv);
            m.op.spmv(a, &m.mv_full, &mut m.n_buf);
        }

        let totals = pending.finish()?;
        let gamma = totals[0];
        let delta = totals[1];
        let check = if preconditioned { totals[2] } else { gamma };
        let faulted = forward && totals[m.partials.len()] > 0.0;

        let rel = check.max(0.0).sqrt() / norm_b;

        // ---- forward recovery, before the convergence check (a converged
        // break must never leave scrubbed blanks in the iterate).
        let mut restart = false;
        if faulted {
            let ignored_before = m.pages.ignored;
            // -- round 1: the direction p against its matvec image s = A·p,
            // repaired in its full-length view. Every rank participates
            // (empty requests when healthy).
            m.p_full[own.clone()].copy_from_slice(&m.p);
            let (counts, _) = repair_pair(
                &ctx,
                &comm,
                &direction_loss,
                &mut m.p_full,
                &mut m.s,
                |rows, s_at, view| relations.reconstruct_direction(rows, s_at, view),
                |rows, view, out| a.spmv_rows(rows.start, rows.end, view, out),
            )?;
            m.pages += counts;
            m.p.copy_from_slice(&m.p_full[own.clone()]);

            // -- round 2: the iterate x against the recurrence residual r,
            // the classic loop's pair.
            let iterate_loss = PairLoss::new(&ctx, (ids::X, ids::G), &lost_x, &lost_r, false);
            let (counts, plan) = repair_pair(
                &ctx,
                &comm,
                &iterate_loss,
                &mut m.x_full,
                &mut m.r,
                |rows, r_at, view| relations.reconstruct_iterate(rows, r_at, view),
                |rows, view, out| relations.residual_rows(rows, view, out),
            )?;
            m.pages += counts;
            // Preconditioned residual pages left over: re-solve from the
            // (possibly just repaired) r page, or blank-accept when that
            // page itself stayed blank.
            for &pg in &lost_u {
                let r_healthy =
                    !lost_r.contains(&pg) || plan.image_fixes.iter().any(|(fixed, _)| *fixed == pg);
                let range = pages.range(pg);
                let mut out = vec![0.0; range.len()];
                if r_healthy && relations.reapply_preconditioner(pg, &m.r[range.clone()], &mut out)
                {
                    m.u[range].copy_from_slice(&out);
                    m.pages.recovered += 1;
                } else {
                    m.pages.ignored += 1;
                }
                mark_page(registry, ids::Z, pg);
            }
            // The iteration's one reduction landed before this repair, and
            // a page can be blank-accepted with no same-page loss anywhere
            // (a split pair across a rank boundary), so whether any rank
            // blank-accepted one takes a collective of its own.
            let ignored = m.pages.ignored - ignored_before;
            restart = comm.allreduce_sum(ignored as f64)? > 0.0;
        }

        history.push(rel);
        if rel <= ctx.tolerance {
            break;
        }
        iterations = t + 1;
        // ---- residual replacement after blank-acceptance: a blank page
        // makes the merged recurrences inconsistent *permanently*, so every
        // rank rebuilds the recurrence state from the exact relations and
        // restarts the direction (β = 0). Exact recoveries do not pay this:
        // the restored bits equal the pre-fault state.
        if restart {
            m.rebuild_recurrence_state(&ctx, relations, &comm, false)?;
            m.restarts += 1;
            continue;
        }

        if preconditioned && kernels::is_breakdown(gamma) {
            break;
        }
        let beta = kernels::beta_ratio(gamma, m.gamma_old);
        let Some(alpha) = merged_alpha(gamma, delta, beta, m.alpha_old) else {
            break;
        };

        // ---- the fused update sweep, same kernel sequence under every
        // policy (fault-free bitwise identity lives here).
        kernels::xpay(&m.n_buf, beta, &mut m.z_aux);
        if preconditioned {
            kernels::xpay(&m.m_buf, beta, &mut m.q_aux);
        }
        kernels::xpay(&m.w, beta, &mut m.s);
        if preconditioned {
            kernels::xpay(&m.u, beta, &mut m.p);
        } else {
            kernels::xpay(&m.r, beta, &mut m.p);
        }
        kernels::axpy(alpha, &m.p, &mut m.x_full[own.clone()]);
        let eps_next = kernels::axpy_norm2(-alpha, &m.s, &mut m.r);
        if preconditioned {
            let gamma_next = kernels::axpy_dot(-alpha, &m.q_aux, &mut m.u, &m.r);
            let delta_next = kernels::axpy_dot(-alpha, &m.z_aux, &mut m.w, &m.u);
            m.partials = vec![gamma_next, delta_next, eps_next];
        } else {
            let delta_next = kernels::axpy_dot(-alpha, &m.z_aux, &mut m.w, &m.r);
            m.partials = vec![eps_next, delta_next];
        }
        m.gamma_old = gamma;
        m.alpha_old = alpha;

        // ---- baseline policies: end-of-iteration sweeps (the classic scrub
        // placement — checkpointed data stays intact until here).
        match ctx.policy {
            RecoveryPolicy::Ideal | RecoveryPolicy::Feir | RecoveryPolicy::Afeir => {}
            RecoveryPolicy::Trivial => {
                // Blank every lost page and keep going (Section 4.1). The
                // recurrence invariants (s = A·p, …) break on the blanked
                // pages; the explicit final residual reports the damage
                // honestly.
                let x = Some(&mut m.x_full[own.clone()]);
                m.pages.ignored += blank_sweep(&ctx, x, [&mut m.r, &mut m.p, &mut m.s, &mut m.u]);
            }
            RecoveryPolicy::TrivialReplace
            | RecoveryPolicy::Checkpoint { .. }
            | RecoveryPolicy::LossyRestart => {
                // LossyRestart keeps its lost iterate pages lost until it
                // has interpolated them; the others blank them in the sweep.
                let lossy = ctx.policy == RecoveryPolicy::LossyRestart;
                let lost_x = if lossy {
                    scrub_blank(registry, ids::X, pages, &mut m.x_full[own.clone()])
                } else {
                    Vec::new()
                };
                let x = (!lossy).then_some(&mut m.x_full[own.clone()]);
                let lost_total =
                    lost_x.len() + blank_sweep(&ctx, x, [&mut m.r, &mut m.p, &mut m.s, &mut m.u]);
                if ctx.policy == RecoveryPolicy::TrivialReplace {
                    m.pages.ignored += lost_total;
                }
                if comm.allreduce_sum(lost_total as f64)? == 0.0 {
                    continue;
                }
                if let Some(store) = m.store.as_mut() {
                    // Global rollback: restore (x, p, scalars), then rebuild
                    // the whole recurrence state from the exact relations.
                    let mut scalars = Vec::new();
                    let x = &mut m.x_full[own.clone()];
                    if store.rollback(x, &mut m.p, &mut scalars).is_some() {
                        m.rollbacks += 1;
                    }
                    m.gamma_old = scalars.first().copied().unwrap_or(f64::INFINITY);
                    m.alpha_old = scalars.get(1).copied().unwrap_or(0.0);
                    m.rebuild_recurrence_state(&ctx, relations, &comm, true)?;
                } else {
                    // TrivialReplace restarts from the blanked iterate, so
                    // the blanked pages stop poisoning the merged
                    // recurrences at the cost of a Krylov restart (β = 0);
                    // LossyRestart from the interpolated one (lossy
                    // block-Jacobi step).
                    if lossy {
                        m.pages +=
                            lossy_fill_iterate(&ctx, relations, &comm, &lost_x, &mut m.x_full)?;
                    }
                    m.rebuild_recurrence_state(&ctx, relations, &comm, false)?;
                    m.restarts += 1;
                }
            }
        }
    }

    Ok(RankOutcome {
        rank: ctx.rank,
        x: m.x_full[own].to_vec(),
        iterations,
        history,
        pages: m.pages,
        rollbacks: m.rollbacks,
        restarts: m.restarts,
        allreduces: comm.collectives(),
    })
}

impl MergedState {
    /// The reduction partials of the current recurrence state: `⟨r,u⟩`,
    /// `⟨w,u⟩`, `⟨r,r⟩` for PCG, `⟨r,r⟩`, `⟨w,r⟩` for CG.
    fn reduction_partials(&self, preconditioned: bool) -> Vec<f64> {
        if preconditioned {
            kernels::dotn(&[(&self.r, &self.u), (&self.w, &self.u), (&self.r, &self.r)])
        } else {
            kernels::dotn(&[(&self.r, &self.r), (&self.w, &self.r)])
        }
    }

    /// Rebuilds the merged recurrence state from (x, p) using the exact
    /// relations — `r = b − A·x`, `u = M⁻¹·r`, `w = A·u`, and, when
    /// `keep_direction` (checkpoint rollback), `s = A·p`, `q = M⁻¹·s`,
    /// `z = A·q` — and the reduction partials from it. Without
    /// `keep_direction` the direction and its images are zeroed and the
    /// recurrence scalars reset: a Krylov restart (β = 0). Every rank runs
    /// this together (the halo exchanges are collective over neighbours),
    /// which is how the rollback and the restarts stay globally consistent.
    fn rebuild_recurrence_state<S: RecoverableIteration>(
        &mut self,
        ctx: &RankCtx<'_>,
        relations: &S,
        comm: &RankComm,
        keep_direction: bool,
    ) -> Result<(), CommError> {
        let (a, own, pages) = (ctx.a, ctx.own.clone(), &ctx.pages);
        let preconditioned = relations.preconditioned();
        let apply = |src: &[f64], dst: &mut [f64]| {
            for pg in 0..pages.num_blocks() {
                let lr = pages.range(pg);
                relations.reapply_preconditioner(pg, &src[lr.clone()], &mut dst[lr]);
            }
        };
        // r = b − A·x (one halo exchange of the restored iterate).
        comm.exchange_halo(&mut self.x_full)?;
        self.op.spmv(a, &self.x_full, &mut self.r);
        for (k, row) in own.clone().enumerate() {
            self.r[k] = ctx.b[row] - self.r[k];
        }
        // w = A·u with u = M⁻¹·r (CG: u ≡ r).
        if preconditioned {
            apply(&self.r, &mut self.u);
            self.mv_full[own.clone()].copy_from_slice(&self.u);
        } else {
            self.mv_full[own.clone()].copy_from_slice(&self.r);
        }
        comm.exchange_halo(&mut self.mv_full)?;
        self.op.spmv(a, &self.mv_full, &mut self.w);
        if keep_direction {
            // s = A·p, q = M⁻¹·s, z = A·q — the Krylov direction survives the
            // rollback with its matvec images rebuilt exactly.
            self.mv_full[own.clone()].copy_from_slice(&self.p);
            comm.exchange_halo(&mut self.mv_full)?;
            self.op.spmv(a, &self.mv_full, &mut self.s);
            if preconditioned {
                apply(&self.s, &mut self.q_aux);
                self.mv_full[own.clone()].copy_from_slice(&self.q_aux);
            } else {
                self.mv_full[own.clone()].copy_from_slice(&self.s);
            }
            comm.exchange_halo(&mut self.mv_full)?;
            self.op.spmv(a, &self.mv_full, &mut self.z_aux);
        } else {
            for v in [&mut self.p, &mut self.s, &mut self.q_aux, &mut self.z_aux] {
                v.fill(0.0);
            }
            self.gamma_old = f64::INFINITY;
            self.alpha_old = 0.0;
        }
        self.partials = self.reduction_partials(preconditioned);
        Ok(())
    }
}
