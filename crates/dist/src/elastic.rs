//! Rank elasticity: resuming a distributed resilient solve after a worker
//! process dies and is respawned.
//!
//! The transport layer turns a dead peer into a typed
//! [`CommError::Disconnected`] (never a hang — see the ack/retransmit
//! sublayer in [`crate::process`]). This module is the policy layer above
//! that signal: survivors park at a **rejoin barrier**, the elastic
//! endpoint re-handshakes the respawned newcomer at a bumped link epoch,
//! every rank agrees on the resume iteration (the maximum any survivor
//! reached), and the solve state is repaired in lockstep before the
//! iteration phase re-enters.
//!
//! The repair treats the newcomer's pages exactly like the memory-fault
//! model treats lost pages at a scrub point, restricted to what survives a
//! process death (nothing — so only relations with a local reconstruction
//! that needs no prior state apply):
//!
//! * every policy recomputes the two restart invariants — ‖b‖ and the
//!   residual `g = b − A·x` — from the post-repair iterate, zeroes the
//!   search direction, and resets `ρ_old` to the ∞ sentinel: the Krylov
//!   restart [`RecoveryPolicy::LossyRestart`] runs after a fault, through
//!   the same `SolveState::replace_residual`;
//! * [`RecoveryPolicy::Checkpoint`] survivors roll back to their last
//!   local checkpoint first, so the global iterate is the checkpointed one
//!   everywhere except the newcomer's rows;
//! * the newcomer interpolates its own rows with the lossy block-Jacobi
//!   relation (`lossy_iterate_rows`, page by page as LossyRestart does)
//!   from the neighbours' fetched stencil entries — under
//!   Checkpoint/FEIR/AFEIR this rebuilds a usable iterate, counted in
//!   `pages_recovered`;
//! * [`RecoveryPolicy::Trivial`] honestly degrades: the newcomer's rows
//!   restart from zero and are counted in `pages_ignored`.
//!
//! Restarting the Krylov space costs iterations but keeps every policy
//! convergent; the overhead shows up in the
//! [`NetFaultCampaign`](crate::campaign::NetFaultCampaign) tables rather
//! than being hidden. Rank 0 is the result collector and cannot be
//! respawned; one failed rank at a time is supported (the paper's fault
//! model, Section 2).

use feir_recovery::{RecoverableIteration, RecoveryPolicy};

use crate::comm::{CommError, RankComm};
use crate::kernels;
use crate::rank_loop::{
    alloc_state, finish_outcome, init_collectives, lossy_fill_pages, resilient_iterations, RankCtx,
    RankOutcome, SolveState,
};

/// How the elastic harness behaves for this process.
pub(crate) struct ElasticCfg {
    /// True when this worker is a respawned replacement (its link epoch is
    /// non-zero): it skips the opening collectives and goes straight to the
    /// rejoin barrier the survivors are parked at.
    pub newcomer: bool,
    /// Upper bound on rejoin rounds before a disconnect is propagated as
    /// fatal; guards against a crash-looping replacement.
    pub max_rejoins: usize,
}

/// The elastic wrapper around the resilient iteration phase: runs the solve,
/// and on a recoverable peer disconnect re-links the mesh, agrees on the
/// resume iteration at the rejoin barrier, repairs the state and re-enters.
pub(crate) fn rank_elastic_solve<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    comm: RankComm,
    cfg: &ElasticCfg,
) -> Result<RankOutcome, CommError> {
    let mut state = alloc_state(ctx);
    if cfg.newcomer {
        // The survivors are already parked at the barrier waiting for this
        // process; `rejoin(None, ..)` connects the fresh mesh and joins them.
        let _probe = feir_trace::span(feir_trace::Phase::Rejoin);
        let t_resume = comm.rejoin(None, 0)?;
        rejoin_repair(ctx, relations, &comm, &mut state, t_resume, true)?;
    } else {
        init_collectives(ctx, &comm, &mut state)?;
    }
    let mut rejoins = 0usize;
    loop {
        match resilient_iterations(ctx, relations, &comm, &mut state) {
            Ok(()) => return Ok(finish_outcome(ctx, &comm, state)),
            Err(CommError::Disconnected { peer: Some(k), .. })
                if k != 0 && k != ctx.rank && rejoins < cfg.max_rejoins =>
            {
                rejoins += 1;
                let _probe = feir_trace::span(feir_trace::Phase::Rejoin);
                let t_resume = comm.rejoin(Some(k), state.t as u64)?;
                rejoin_repair(ctx, relations, &comm, &mut state, t_resume, false)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The lockstep post-rejoin repair. Every rank — survivors and newcomer —
/// runs the same sequence of collectives in the same order, so the repaired
/// mesh leaves this function with a globally consistent restart state.
fn rejoin_repair<S: RecoverableIteration>(
    ctx: &RankCtx<'_>,
    relations: &S,
    comm: &RankComm,
    state: &mut SolveState,
    t_resume: u64,
    newcomer: bool,
) -> Result<(), CommError> {
    let own = ctx.own.clone();

    // 1. ‖b‖ first: the cheapest collective doubles as a mesh liveness
    //    check right after the barrier, and the newcomer needs it anyway.
    state.norm_b = kernels::global_rhs_norm(comm, &ctx.b[own.clone()])?;

    // 2. Checkpoint survivors roll back to their last local checkpoint; the
    //    newcomer's store is empty, so the rollback is a harmless no-op
    //    there. Its scalars are not needed: step 5 restarts the recurrence.
    state.rollback(&own);

    // 3. One recovery exchange, entered by every rank (the collective is
    //    all-to-all). The newcomer requests the remote stencil entries of
    //    all its rows for the interpolation below; survivors request
    //    nothing but still serve their side.
    let trivial = ctx.policy == RecoveryPolicy::Trivial;
    let requests = if newcomer && !trivial {
        ctx.stencil_requests(&own.clone().collect::<Vec<_>>())
    } else {
        Default::default()
    };
    let (fetched, _) = comm.recovery_exchange(&requests, &mut state.x_full, &[])?;
    state.pages.cross_rank_values += fetched;

    // 4. The newcomer rebuilds its iterate rows page-by-page with the lossy
    //    interpolation (Trivial skips this and honestly restarts from zero).
    let all_pages = 0..ctx.pages.num_blocks();
    if newcomer && trivial {
        state.pages.ignored += all_pages.len();
    } else if newcomer {
        lossy_fill_pages(
            ctx,
            relations,
            all_pages,
            &mut state.x_full,
            &mut state.pages,
        );
    }

    // 5–9. Residual replacement and Krylov restart at the agreed iteration.
    state.replace_residual(ctx, comm, true)?;
    state.t = t_resume as usize;
    Ok(())
}
