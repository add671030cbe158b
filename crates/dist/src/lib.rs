//! # feir-dist
//!
//! Simulated distributed-memory substrate for the FEIR project (reproduction
//! of *"Exploiting Asynchrony from Exact Forward Recovery for DUE in
//! Iterative Solvers"*, Jaulmes et al., SC 2015).
//!
//! The paper's scaling study (Section 3.4 / Figure 5) runs the resilient CG
//! as MPI+OmpSs: the matrix is distributed by block rows, each rank exchanges
//! the halo of the search direction before its local SpMV, and the two dot
//! products of the iteration are global allreduces. This crate reproduces
//! that structure with *simulated ranks* — one OS thread per rank, message
//! passing over channels, no shared mutable state between ranks — so the
//! communication pattern (and its failure domains) can be studied on one
//! machine:
//!
//! * [`RankPartition`] — contiguous block-row ownership, the paper's
//!   distribution of the 27-point Poisson operator;
//! * [`HaloPlan`] / [`RankComm`] — per-pair exchange lists of exactly the
//!   remote entries each rank's rows reference, sent over channels each
//!   iteration ([`distributed_spmv`] is the one-shot form), and the
//!   deterministic rank-ordered sum allreduce used for the CG dot products
//!   ([`distributed_dot`] is the one-shot form). The same collectives also
//!   run over a **real multi-process transport** ([`process`]): each rank an
//!   OS process, a full socket mesh (Unix domain sockets, TCP fallback)
//!   speaking the versioned [`feir_wire`] frame protocol, with disconnects
//!   surfacing as typed [`CommError`]s on both backends and
//!   bitwise-identical results;
//! * [`RankDomains`] — one [`feir_pagemem::PageRegistry`] per rank: DUEs are
//!   contained to the rank that owns the page, which is the fault-domain
//!   model the distributed recovery of Section 3.4 relies on;
//! * [`distributed_cg`] / [`distributed_pcg`] — block-row distributed CG
//!   and block-Jacobi PCG (rank-local page blocks, no communication in the
//!   preconditioner) over the simulated ranks, agreeing with the
//!   shared-memory solvers to round-off; the allreduce also has a
//!   split-phase form ([`RankComm::start_allreduce`]) whose result is
//!   bitwise-identical to the blocking one;
//! * [`resilient`] — the distributed resilience subsystem, built on the
//!   solver-agnostic engine of
//!   [`feir_recovery::engine`]: per-rank live fault injection
//!   ([`InjectionDriver`]), the cross-rank request/reply round
//!   ([`RankComm::recovery_exchange`]) for interpolations whose stencil crosses a rank boundary, and
//!   [`distributed_resilient_cg`] / [`distributed_resilient_pcg`] running
//!   the full [`RecoveryPolicy`](feir_recovery::RecoveryPolicy) matrix
//!   (trivial / checkpoint / lossy / FEIR / AFEIR) with fault-free paths
//!   that are bitwise-identical to their plain counterparts;
//! * [`campaign`] — the [`FaultCampaign`] runner sweeping solver × policy ×
//!   rank-count × fault-rate into Figure-5-comparable overhead tables;
//! * [`ScalingModel`] — the calibrated analytic model regenerating the
//!   Figure-5 speedup curves for every recovery policy.

#![warn(missing_docs)]

pub mod campaign;
pub mod cg;
pub mod comm;
mod coupled;
pub mod domains;
mod elastic;
mod kernels;
pub mod merged;
pub mod model;
pub mod partition;
pub mod pcg;
pub mod process;
mod rank_loop;
mod rank_loop_merged;
pub mod resilient;

pub use campaign::{
    CampaignBaseline, CampaignCell, CampaignReport, CampaignSolver, FaultCampaign, KillSchedule,
    NetCampaignBaseline, NetCampaignCell, NetCampaignReport, NetFaultCampaign,
};
pub use cg::{distributed_cg, DistSolveResult, NetStats};
pub use comm::{
    distributed_dot, distributed_spmv, CommError, HaloPlan, PendingAllreduce, PendingVecAllreduce,
    RankComm,
};
pub use domains::{RankDomains, RankFaultCounts};
pub use merged::{distributed_cg_merged, distributed_pcg_merged};
pub use model::{ScalingModel, ScalingPoint};
pub use partition::RankPartition;
pub use pcg::distributed_pcg;
pub use process::{
    connect_mesh, solve_with_processes, spawn_workers, spawn_workers_with, spawned_as_worker,
    worker_main, ChaosConfig, MeshOptions, ProcessEndpoint, ProcessError, ProcessSpec, Transport,
    WorkerHandles, WorkerOptions, WorkerSolver,
};
pub use resilient::{
    distributed_resilient_cg, distributed_resilient_cg_merged, distributed_resilient_pcg,
    distributed_resilient_pcg_merged, DistResilienceConfig, DistResilientCg, DistResilientReport,
    DistResilientSolver, InjectionDriver, ProtectedVector, ScriptedFault,
};
