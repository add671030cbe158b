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
//!   in the plain [`merged`](crate::merged) loops, on the same values. The
//!   forward policies append their scrubbed-fault count as an extra
//!   component of the *same* collective (component-wise reduction leaves
//!   the `γ, δ, ε` bits untouched), so even the fault flag costs no second
//!   synchronization.
//! * **FEIR and AFEIR repair through one code path** — the scrub point
//!   sits before the collective is posted, the matvec overlaps the
//!   reduction as in the plain loop, and every lost page is rebuilt after
//!   the collective lands by the same calls under both policies, so their
//!   faulted solves are bitwise-identical. AFEIR only posts its
//!   direction-side round-1 recovery requests inside the reduction window
//!   ([`RankComm::post_recovery_requests`]), so the peers' replies overlap
//!   the wait.
//! * **losses materialise before the convergence check** — recovery (or
//!   blank-acceptance) completes before a converged iteration can break out
//!   of the loop, so the assembled solution never silently contains a
//!   scrubbed blank.

use std::collections::HashMap;

use feir_recovery::checkpoint::{CheckpointStore, CheckpointTarget};
use feir_recovery::engine::{mark_page, plan_state_fixes, scrub_blank, split_related, StateLosses};
use feir_recovery::{RecoverableIteration, RecoveryPolicy};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::{CsrMatrix, SpmvBackend};

use crate::comm::{CommError, RankComm};
use crate::kernels;
use crate::merged::merged_alpha;
use crate::rank_loop::{
    blank_sweep, coupled_round, global_rows, ids, install_state_plan, iteration_top,
    lossy_fill_iterate, remote_stencil_requests, InstallCounters, RankCtx, RankOutcome,
};

/// The generic per-rank merged resilient loop (see the module docs).
/// Backend-agnostic; transport failures surface as typed [`CommError`]s.
#[allow(clippy::too_many_lines)]
pub(crate) fn rank_merged_resilient_solve<S: RecoverableIteration>(
    ctx: RankCtx<'_>,
    relations: &S,
    comm: RankComm,
) -> Result<RankOutcome, CommError> {
    let a = ctx.a;
    let b = ctx.b;
    let own = ctx.own.clone();
    let n = a.cols();
    let local_n = own.len();
    let protected = ctx.policy.needs_protection();
    let forward = ctx.policy.is_forward_exact();
    let preconditioned = relations.preconditioned();
    let registry = &ctx.registry;
    let pages = &ctx.pages;
    // Rank-local storage backend (CSR or SELL-C-σ) for the forward matvecs;
    // per-page recovery matvecs build their own over the lost rows.
    let op = SpmvBackend::select_rows(a, own.clone());

    // x lives inside its full-length buffer (cross-rank recovery scatters
    // fetched halo entries around the owned range); p gets one too for the
    // direction-side recovery round.
    let mut x_full = vec![0.0; n];
    let mut r: Vec<f64> = b[own.clone()].to_vec(); // r = b − A·0
    let mut u = vec![0.0; if preconditioned { local_n } else { 0 }];
    let mut w = vec![0.0; local_n]; // A·u (CG: A·r), by setup then recurrence
    let mut p = vec![0.0; local_n]; // direction
    let mut s = vec![0.0; local_n]; // A·p, by recurrence
    let mut q_aux = vec![0.0; if preconditioned { local_n } else { 0 }]; // M⁻¹·s
    let mut z_aux = vec![0.0; local_n]; // A·q (CG: A·s), by recurrence
    let mut m_buf = vec![0.0; if preconditioned { local_n } else { 0 }]; // M⁻¹·w
    let mut n_buf = vec![0.0; local_n]; // A·m (CG: A·w), fresh per iteration
    let mut mv_full = vec![0.0; n];
    let mut p_full = vec![0.0; n];

    let mut pages_recovered = 0usize;
    let mut pages_coupled = 0usize;
    let mut pages_ignored = 0usize;
    let mut cross_rank_values = 0usize;
    let mut rollbacks = 0usize;
    let mut restarts = 0usize;

    // Pre-loop scrub: faults injected before the solve are healed for free —
    // the setup below recomputes every protected vector from b (and x = 0 is
    // already the correct initial iterate).
    if protected {
        for pg in scrub_blank(registry, ids::X, pages, &mut x_full[own.clone()]) {
            mark_page(registry, ids::X, pg);
        }
        for pg in scrub_blank(registry, ids::G, pages, &mut r) {
            mark_page(registry, ids::G, pg);
        }
        for pg in scrub_blank(registry, ids::D, pages, &mut p) {
            mark_page(registry, ids::D, pg);
        }
        for pg in scrub_blank(registry, ids::Q, pages, &mut s) {
            mark_page(registry, ids::Q, pg);
        }
        if preconditioned {
            for pg in scrub_blank(registry, ids::Z, pages, &mut u) {
                mark_page(registry, ids::Z, pg);
            }
        }
        r.copy_from_slice(&b[own.clone()]);
    }

    let mut store = match ctx.policy {
        RecoveryPolicy::Checkpoint { .. } => Some(CheckpointStore::new(CheckpointTarget::Memory)),
        _ => None,
    };

    let norm_b = kernels::global_rhs_norm(&comm, &b[own.clone()])?;
    // Setup, identical to the plain merged loops: u = M⁻¹·r (PCG), one halo
    // exchange of the matvec source, w = A·(u|r), first reduction partials.
    if preconditioned {
        for pg in 0..pages.num_blocks() {
            let lr = pages.range(pg);
            relations.reapply_preconditioner(pg, &r[lr.clone()], &mut u[lr]);
        }
        mv_full[own.clone()].copy_from_slice(&u);
    } else {
        mv_full[own.clone()].copy_from_slice(&r);
    }
    comm.exchange_halo(&mut mv_full)?;
    op.spmv(a, &mv_full, &mut w);
    let mut partials = if preconditioned {
        kernels::dotn(&[(&r, &u), (&w, &u), (&r, &r)])
    } else {
        kernels::dotn(&[(&r, &r), (&w, &r)])
    };

    let mut gamma_old = f64::INFINITY;
    let mut alpha_old = 0.0;
    let mut iterations = 0usize;
    let mut history = Vec::new();

    for t in 0..ctx.max_iterations {
        let _it = feir_trace::span(feir_trace::Phase::Iteration);
        iteration_top(&ctx, t);
        // Periodic local checkpoint of (x, p, recurrence scalars). Baseline
        // policies materialise faults at the end-of-iteration sweeps, so the
        // data checkpointed here is still intact.
        if let (RecoveryPolicy::Checkpoint { interval }, Some(store)) = (ctx.policy, store.as_mut())
        {
            if t % interval.max(1) == 0 {
                store.checkpoint(t, &x_full[own.clone()], &p, &[gamma_old, alpha_old]);
            }
        }

        // ---- scrub point (forward policies): materialise losses up front so
        // the fault count can ride inside the iteration's one collective.
        let (lost_x, lost_r, lost_p, lost_s, lost_u) = if forward {
            (
                scrub_blank(registry, ids::X, pages, &mut x_full[own.clone()]),
                scrub_blank(registry, ids::G, pages, &mut r),
                scrub_blank(registry, ids::D, pages, &mut p),
                scrub_blank(registry, ids::Q, pages, &mut s),
                if preconditioned {
                    scrub_blank(registry, ids::Z, pages, &mut u)
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
        let mut post = partials.clone();
        if forward {
            post.push(local_faults as f64);
        }
        let pending = comm.start_allreduce_vec(post)?;

        // Direction-side round-1 requests of a faulted rank. AFEIR posts
        // them here, so the peers' replies overlap the reduction wait; a
        // local loss forces the global flag, so posted requests are always
        // consumed. Fault-free iterations post nothing and the wire schedule
        // stays bitwise-identical to the plain merged loop.
        let requests = if local_faults > 0 {
            let ps_rows: Vec<usize> = lost_p
                .iter()
                .chain(&lost_s)
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .collect();
            remote_stencil_requests(a, &ctx.partition, ctx.rank, &ps_rows)
        } else {
            HashMap::new()
        };
        let posted = ctx.policy == RecoveryPolicy::Afeir && local_faults > 0;
        if posted {
            comm.post_recovery_requests(&requests)?;
        }

        // ---- reduction window: preconditioner application, halo exchange
        // and matvec all run with the collective in flight.
        if preconditioned {
            for pg in 0..pages.num_blocks() {
                let lr = pages.range(pg);
                relations.reapply_preconditioner(pg, &w[lr.clone()], &mut m_buf[lr]);
            }
            mv_full[own.clone()].copy_from_slice(&m_buf);
        } else {
            mv_full[own.clone()].copy_from_slice(&w);
        }
        comm.exchange_halo(&mut mv_full)?;
        {
            let _probe = feir_trace::span(feir_trace::Phase::Spmv);
            op.spmv(a, &mv_full, &mut n_buf);
        }

        let totals = pending.finish()?;
        let gamma = totals[0];
        let delta = totals[1];
        let check = if preconditioned { totals[2] } else { gamma };
        let faults_global = if forward {
            *totals.last().expect("fault component present") > 0.0
        } else {
            false
        };

        let rel = check.max(0.0).sqrt() / norm_b;

        // ---- forward recovery, before the convergence check (a converged
        // break must never leave scrubbed blanks in the iterate).
        let ignored_before = pages_ignored;
        if forward && faults_global {
            // -- round 1: direction-side recovery exchange on p. Every
            // rank participates (empty requests when healthy).
            p_full[own.clone()].copy_from_slice(&p);
            let own_blank_p: Vec<usize> = lost_p
                .iter()
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .collect();
            let (fetched, invalid_p) =
                comm.complete_recovery_exchange(&requests, &mut p_full, &own_blank_p, posted)?;
            cross_rank_values += fetched;

            // Related p/s losses on the same page are unrecoverable.
            let (rec_p, rec_s, conflicted_ps) = split_related(&lost_p, &lost_s);

            // Coupled cross-rank round on the direction: stencil-adjacent
            // direction losses on neighbouring ranks merge into one union
            // solve over s = A·p (see `coupled`), then the revalidation
            // pass refreshes the invalid set against the repaired views.
            let (coupled_p, invalid_p, fetched2) = coupled_round(
                &comm,
                a,
                pages,
                &own,
                &rec_p,
                &lost_p,
                &own_blank_p,
                &requests,
                &invalid_p,
                &s,
                &mut p_full,
                |rows, rhs, view| relations.reconstruct_direction(rows, rhs, view),
            )?;
            cross_rank_values += fetched2 + coupled_p.values_gathered;
            for &pg in &coupled_p.recovered_pages {
                for row in global_rows(own.start, pages, pg) {
                    p[row - own.start] = p_full[row];
                }
            }
            pages_recovered += coupled_p.recovered_pages.len();
            pages_coupled += coupled_p.recovered_pages.len();

            let mut blank_p: Vec<usize> = conflicted_ps
                .iter()
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .chain(invalid_p.iter().copied())
                .collect();
            blank_p.sort_unstable();
            blank_p.dedup();
            // Taint fixpoint: a direction page whose stencil reads
            // known-blank entries is abandoned, and its own rows join
            // the blank set. Coupled-recovered pages are done already.
            let mut p_pages: Vec<usize> = rec_p
                .iter()
                .copied()
                .filter(|pg| coupled_p.recovered_pages.binary_search(pg).is_err())
                .collect();
            let mut p_ignored: Vec<usize> = Vec::new();
            loop {
                let touches = |pg: usize| {
                    global_rows(own.start, pages, pg).any(|row| {
                        let (cols, _) = a.row(row);
                        cols.iter()
                            .any(|&c| blank_p.binary_search(&(c as usize)).is_ok())
                    })
                };
                let (dropped, keep): (Vec<usize>, Vec<usize>) =
                    p_pages.iter().partition(|&&pg| touches(pg));
                p_pages = keep;
                if dropped.is_empty() {
                    break;
                }
                blank_p.extend(
                    dropped
                        .iter()
                        .flat_map(|&pg| global_rows(own.start, pages, pg)),
                );
                blank_p.sort_unstable();
                blank_p.dedup();
                p_ignored.extend(dropped);
            }
            let rows: Vec<usize> = p_pages
                .iter()
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .collect();
            let s_at: Vec<f64> = p_pages
                .iter()
                .flat_map(|&pg| pages.range(pg))
                .map(|i| s[i])
                .collect();
            let values = if rows.is_empty() {
                None
            } else {
                relations.reconstruct_direction(&rows, &s_at, &p_full)
            };
            match values {
                Some(values) => {
                    for (&row, v) in rows.iter().zip(&values) {
                        p[row - own.start] = *v;
                        p_full[row] = *v;
                    }
                    pages_recovered += p_pages.len();
                }
                None => {
                    blank_p.extend(rows.iter().copied());
                    blank_p.sort_unstable();
                    blank_p.dedup();
                    p_ignored.extend(p_pages.iter().copied());
                }
            }
            pages_ignored += p_ignored.len();
            for &pg in &lost_p {
                mark_page(registry, ids::D, pg);
            }
            // Matvec-image pages: recompute from the repaired direction
            // view, unless the stencil still reads blank p entries.
            for &pg in &rec_s {
                let rows = global_rows(own.start, pages, pg);
                let tainted = rows.clone().any(|row| {
                    let (cols, _) = a.row(row);
                    cols.iter()
                        .any(|&c| blank_p.binary_search(&(c as usize)).is_ok())
                });
                if tainted {
                    pages_ignored += 1;
                } else {
                    let mut out = vec![0.0; rows.len()];
                    a.spmv_rows(rows.start, rows.end, &p_full, &mut out);
                    s[pages.range(pg)].copy_from_slice(&out);
                    pages_recovered += 1;
                }
                mark_page(registry, ids::Q, pg);
            }
            for &pg in &conflicted_ps {
                mark_page(registry, ids::D, pg);
                mark_page(registry, ids::Q, pg);
            }
            pages_ignored += 2 * conflicted_ps.len();

            // -- round 2: iterate-side recovery exchange on x, exactly
            // the classic engine path (coupled x solves, r recomputes,
            // related-loss taint).
            let xr_rows: Vec<usize> = lost_x
                .iter()
                .chain(&lost_r)
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .collect();
            let requests = remote_stencil_requests(a, &ctx.partition, ctx.rank, &xr_rows);
            let own_blank_x: Vec<usize> = lost_x
                .iter()
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .collect();
            let (fetched, invalid_x) =
                comm.recovery_exchange(&requests, &mut x_full, &own_blank_x)?;
            cross_rank_values += fetched;
            let (rec_x, rec_r, conflicted_xr) = split_related(&lost_x, &lost_r);

            // Coupled cross-rank round on the iterate, mirroring the
            // classic loop: adjacent x losses across a boundary solve as
            // one union against the recurrence residual.
            let (coupled_x, invalid_x, fetched2) = coupled_round(
                &comm,
                a,
                pages,
                &own,
                &rec_x,
                &lost_x,
                &own_blank_x,
                &requests,
                &invalid_x,
                &r,
                &mut x_full,
                |rows, rhs, view| relations.reconstruct_iterate(rows, rhs, view),
            )?;
            cross_rank_values += fetched2 + coupled_x.values_gathered;

            let mut blank_x: Vec<usize> = conflicted_xr
                .iter()
                .flat_map(|&pg| global_rows(own.start, pages, pg))
                .chain(invalid_x.iter().copied())
                .collect();
            blank_x.sort_unstable();
            blank_x.dedup();
            let plan = plan_state_fixes(
                relations,
                a,
                pages,
                own.start,
                StateLosses {
                    rec_x: &rec_x,
                    rec_g: &rec_r,
                    blank_x: &blank_x,
                    cross_rank: &coupled_x.recovered_pages,
                },
                &r,
                &x_full,
            );
            let mut counters = InstallCounters::default();
            install_state_plan(
                &plan,
                pages,
                registry,
                &conflicted_xr,
                &mut x_full,
                &mut r,
                &mut counters,
            );
            // Preconditioned residual pages left over: re-solve from the
            // (possibly just repaired) r page, or blank-accept when that
            // page itself stayed blank.
            for &pg in &lost_u {
                let r_healthy =
                    !lost_r.contains(&pg) || plan.g_fixes.iter().any(|(fixed, _)| *fixed == pg);
                let range = pages.range(pg);
                let mut out = vec![0.0; range.len()];
                if r_healthy && relations.reapply_preconditioner(pg, &r[range.clone()], &mut out) {
                    u[range].copy_from_slice(&out);
                    counters.recovered += 1;
                } else {
                    counters.ignored += 1;
                }
                mark_page(registry, ids::Z, pg);
            }
            pages_recovered += counters.recovered;
            pages_coupled += counters.coupled;
            pages_ignored += counters.ignored;
            // ---- residual replacement after blank-acceptance. Unlike the
            // classic loop — whose matvec recomputes q = A·d from scratch
            // every iteration — the merged recurrences (`w = A·r`,
            // `s = A·p`, …) never self-correct: a blank-accepted page makes
            // them inconsistent *permanently* and the solve drifts. So when
            // any rank accepted a blank this round, every rank rebuilds the
            // recurrence state from the exact relations and restarts the
            // direction (β = 0), which is the standard residual-replacement
            // remedy of the pipelined-CG literature. Exact recoveries do
            // not pay this: the restored bits equal the pre-fault state, so
            // the recurrences are already consistent.
            if comm.fault_flag(pages_ignored - ignored_before)? {
                gamma_old = f64::INFINITY;
                alpha_old = 0.0;
                partials = rebuild_recurrence_state(RebuildCtx {
                    relations,
                    a,
                    b,
                    comm: &comm,
                    own: &own,
                    pages,
                    preconditioned,
                    keep_direction: false,
                    x_full: &mut x_full,
                    r: &mut r,
                    u: &mut u,
                    w: &mut w,
                    p: &mut p,
                    s: &mut s,
                    q_aux: &mut q_aux,
                    z_aux: &mut z_aux,
                    mv_full: &mut mv_full,
                })?;
                history.push(rel);
                if rel <= ctx.tolerance {
                    break;
                }
                iterations = t + 1;
                continue;
            }
        }

        history.push(rel);
        if rel <= ctx.tolerance {
            break;
        }
        iterations = t + 1;

        if preconditioned && kernels::is_breakdown(gamma) {
            break;
        }
        let beta = kernels::beta_ratio(gamma, gamma_old);
        let Some(alpha) = merged_alpha(gamma, delta, beta, alpha_old) else {
            break;
        };

        // ---- the fused update sweep, same kernel sequence as the plain
        // merged loops (fault-free bitwise identity lives here).
        kernels::xpay(&n_buf, beta, &mut z_aux);
        if preconditioned {
            kernels::xpay(&m_buf, beta, &mut q_aux);
        }
        kernels::xpay(&w, beta, &mut s);
        if preconditioned {
            kernels::xpay(&u, beta, &mut p);
        } else {
            kernels::xpay(&r, beta, &mut p);
        }
        kernels::axpy(alpha, &p, &mut x_full[own.clone()]);
        let eps_next = kernels::axpy_norm2(-alpha, &s, &mut r);
        if preconditioned {
            let gamma_next = kernels::axpy_dot(-alpha, &q_aux, &mut u, &r);
            let delta_next = kernels::axpy_dot(-alpha, &z_aux, &mut w, &u);
            partials = vec![gamma_next, delta_next, eps_next];
        } else {
            let delta_next = kernels::axpy_dot(-alpha, &z_aux, &mut w, &r);
            partials = vec![eps_next, delta_next];
        }
        gamma_old = gamma;
        alpha_old = alpha;

        // ---- baseline policies: end-of-iteration sweeps (the classic scrub
        // placement — checkpointed data stays intact until here).
        match ctx.policy {
            RecoveryPolicy::Ideal | RecoveryPolicy::Feir | RecoveryPolicy::Afeir => {}
            RecoveryPolicy::Trivial => {
                // Blank every lost page and keep going (Section 4.1). The
                // recurrence invariants (s = A·p, …) break on the blanked
                // pages; the explicit final residual reports the damage
                // honestly.
                let x = Some(&mut x_full[own.clone()]);
                pages_ignored += blank_sweep(&ctx, x, [&mut r, &mut p, &mut s, &mut u]);
            }
            RecoveryPolicy::TrivialReplace => {
                // Hybrid: blank-accept like Trivial, but pay one residual
                // replacement whenever any rank lost anything — the rebuilt
                // recurrences stop the blanked pages from poisoning the
                // merged recurrences permanently, at the cost of a Krylov
                // restart (β = 0) instead of Trivial's silent drift.
                let x = Some(&mut x_full[own.clone()]);
                let lost_total = blank_sweep(&ctx, x, [&mut r, &mut p, &mut s, &mut u]);
                pages_ignored += lost_total;
                if comm.fault_flag(lost_total)? {
                    gamma_old = f64::INFINITY;
                    alpha_old = 0.0;
                    partials = rebuild_recurrence_state(RebuildCtx {
                        relations,
                        a,
                        b,
                        comm: &comm,
                        own: &own,
                        pages,
                        preconditioned,
                        keep_direction: false,
                        x_full: &mut x_full,
                        r: &mut r,
                        u: &mut u,
                        w: &mut w,
                        p: &mut p,
                        s: &mut s,
                        q_aux: &mut q_aux,
                        z_aux: &mut z_aux,
                        mv_full: &mut mv_full,
                    })?;
                    restarts += 1;
                }
            }
            RecoveryPolicy::Checkpoint { .. } => {
                let x = Some(&mut x_full[own.clone()]);
                let lost_total = blank_sweep(&ctx, x, [&mut r, &mut p, &mut s, &mut u]);
                if comm.fault_flag(lost_total)? {
                    // Global rollback: restore (x, p, scalars), then rebuild
                    // the whole recurrence state from the exact relations.
                    let store = store.as_mut().expect("checkpoint store exists");
                    let mut scalars = Vec::new();
                    if store
                        .rollback(&mut x_full[own.clone()], &mut p, &mut scalars)
                        .is_some()
                    {
                        rollbacks += 1;
                    }
                    gamma_old = scalars.first().copied().unwrap_or(f64::INFINITY);
                    alpha_old = scalars.get(1).copied().unwrap_or(0.0);
                    partials = rebuild_recurrence_state(RebuildCtx {
                        relations,
                        a,
                        b,
                        comm: &comm,
                        own: &own,
                        pages,
                        preconditioned,
                        keep_direction: true,
                        x_full: &mut x_full,
                        r: &mut r,
                        u: &mut u,
                        w: &mut w,
                        p: &mut p,
                        s: &mut s,
                        q_aux: &mut q_aux,
                        z_aux: &mut z_aux,
                        mv_full: &mut mv_full,
                    })?;
                }
            }
            RecoveryPolicy::LossyRestart => {
                let lost_x = scrub_blank(registry, ids::X, pages, &mut x_full[own.clone()]);
                let lost_total =
                    lost_x.len() + blank_sweep(&ctx, None, [&mut r, &mut p, &mut s, &mut u]);
                if comm.fault_flag(lost_total)? {
                    // Interpolate the lost iterate pages (lossy block-Jacobi
                    // step), then restart the Krylov space globally.
                    let (recovered, ignored, fetched) =
                        lossy_fill_iterate(&ctx, relations, &comm, &lost_x, &mut x_full)?;
                    pages_recovered += recovered;
                    pages_ignored += ignored;
                    cross_rank_values += fetched;
                    gamma_old = f64::INFINITY;
                    alpha_old = 0.0;
                    partials = rebuild_recurrence_state(RebuildCtx {
                        relations,
                        a,
                        b,
                        comm: &comm,
                        own: &own,
                        pages,
                        preconditioned,
                        keep_direction: false,
                        x_full: &mut x_full,
                        r: &mut r,
                        u: &mut u,
                        w: &mut w,
                        p: &mut p,
                        s: &mut s,
                        q_aux: &mut q_aux,
                        z_aux: &mut z_aux,
                        mv_full: &mut mv_full,
                    })?;
                    restarts += 1;
                }
            }
        }
    }

    let allreduces = comm.collectives();
    Ok(RankOutcome {
        rank: ctx.rank,
        x: x_full[own].to_vec(),
        iterations,
        history,
        pages_recovered,
        pages_coupled,
        pages_ignored,
        cross_rank_values,
        rollbacks,
        restarts,
        allreduces,
    })
}

/// Everything [`rebuild_recurrence_state`] needs, bundled so the rollback and
/// restart paths stay readable.
struct RebuildCtx<'a, S: RecoverableIteration> {
    relations: &'a S,
    a: &'a CsrMatrix,
    b: &'a [f64],
    comm: &'a RankComm,
    own: &'a std::ops::Range<usize>,
    pages: &'a BlockPartition,
    preconditioned: bool,
    /// Keep the restored direction (checkpoint rollback) or zero it (lossy
    /// restart discards the Krylov space).
    keep_direction: bool,
    x_full: &'a mut Vec<f64>,
    r: &'a mut Vec<f64>,
    u: &'a mut Vec<f64>,
    w: &'a mut Vec<f64>,
    p: &'a mut Vec<f64>,
    s: &'a mut Vec<f64>,
    q_aux: &'a mut Vec<f64>,
    z_aux: &'a mut Vec<f64>,
    mv_full: &'a mut Vec<f64>,
}

/// Rebuilds the merged recurrence state from (x, p) using the exact
/// relations — `r = b − A·x`, `u = M⁻¹·r`, `w = A·u`, `s = A·p`,
/// `q = M⁻¹·s`, `z = A·q` — and returns the fresh reduction partials. Every
/// rank executes this together (the halo exchanges are collective over
/// neighbours), which is how the checkpoint rollback and lossy restart stay
/// globally consistent.
fn rebuild_recurrence_state<S: RecoverableIteration>(
    ctx: RebuildCtx<'_, S>,
) -> Result<Vec<f64>, CommError> {
    let own = ctx.own.clone();
    // Cold path (rollback/restart): the backend is rebuilt here rather than
    // threaded through RebuildCtx — rebuilds are rare by construction.
    let op = SpmvBackend::select_rows(ctx.a, own.clone());
    // r = b − A·x (one halo exchange of the restored iterate).
    ctx.comm.exchange_halo(ctx.x_full)?;
    op.spmv(ctx.a, ctx.x_full, &mut ctx.r[..]);
    for (k, row) in own.clone().enumerate() {
        ctx.r[k] = ctx.b[row] - ctx.r[k];
    }
    let apply = |pages: &BlockPartition, src: &[f64], dst: &mut [f64]| {
        for pg in 0..pages.num_blocks() {
            let lr = pages.range(pg);
            ctx.relations
                .reapply_preconditioner(pg, &src[lr.clone()], &mut dst[lr]);
        }
    };
    // w = A·u with u = M⁻¹·r (CG: u ≡ r).
    if ctx.preconditioned {
        apply(ctx.pages, ctx.r, ctx.u);
        ctx.mv_full[own.clone()].copy_from_slice(ctx.u);
    } else {
        ctx.mv_full[own.clone()].copy_from_slice(ctx.r);
    }
    ctx.comm.exchange_halo(ctx.mv_full)?;
    op.spmv(ctx.a, ctx.mv_full, &mut ctx.w[..]);
    if ctx.keep_direction {
        // s = A·p, q = M⁻¹·s, z = A·q — the Krylov direction survives the
        // rollback with its matvec images rebuilt exactly.
        ctx.mv_full[own.clone()].copy_from_slice(ctx.p);
        ctx.comm.exchange_halo(ctx.mv_full)?;
        op.spmv(ctx.a, ctx.mv_full, &mut ctx.s[..]);
        if ctx.preconditioned {
            apply(ctx.pages, ctx.s, ctx.q_aux);
            ctx.mv_full[own.clone()].copy_from_slice(ctx.q_aux);
        } else {
            ctx.mv_full[own.clone()].copy_from_slice(ctx.s);
        }
        ctx.comm.exchange_halo(ctx.mv_full)?;
        op.spmv(ctx.a, ctx.mv_full, &mut ctx.z_aux[..]);
    } else {
        for v in ctx.p.iter_mut() {
            *v = 0.0;
        }
        for v in ctx.s.iter_mut() {
            *v = 0.0;
        }
        for v in ctx.q_aux.iter_mut() {
            *v = 0.0;
        }
        for v in ctx.z_aux.iter_mut() {
            *v = 0.0;
        }
        // Matched (empty) halo rounds so ranks that kept their direction and
        // ranks that restarted can never coexist: the policy is global, so
        // every rank takes the same branch — these exchanges keep the two
        // branches' communication schedules aligned if that ever changes.
        ctx.comm.exchange_halo(ctx.mv_full)?;
        ctx.comm.exchange_halo(ctx.mv_full)?;
    }
    Ok(if ctx.preconditioned {
        kernels::dotn(&[
            (&ctx.r[..], &ctx.u[..]),
            (&ctx.w[..], &ctx.u[..]),
            (&ctx.r[..], &ctx.r[..]),
        ])
    } else {
        kernels::dotn(&[(&ctx.r[..], &ctx.r[..]), (&ctx.w[..], &ctx.r[..])])
    })
}
