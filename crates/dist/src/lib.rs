//! # feir-dist
//!
//! Distributed-memory substrate for the FEIR project (reproduction of
//! *"Exploiting Asynchrony from Exact Forward Recovery for DUE in Iterative
//! Solvers"*, Jaulmes et al., SC 2015).
//!
//! The paper's scaling study (Section 3.4 / Figure 5) runs the resilient CG
//! as MPI+OmpSs: the matrix is distributed by block rows, each rank
//! exchanges the halo of the search direction before its local SpMV, and
//! the dot products of the iteration are global allreduces. This crate
//! reproduces that structure with one rank loop per rank:
//!
//! * [`RankPartition`] — contiguous block-row ownership;
//! * [`HaloPlan`] / [`RankComm`] — per-pair exchange lists of exactly the
//!   remote entries each rank's rows reference, and the deterministic
//!   rank-ordered allreduce (blocking and split-phase), written once over
//!   two backends: in-process ranks (one OS thread each, channels) and
//!   worker processes on a socket mesh ([`process`]) speaking the
//!   [`feir_wire`] frame protocol, bitwise-identical to each other, with
//!   disconnects surfacing as typed [`CommError`]s;
//! * [`DistSolver`] — the four solvers: classic CG ([`distributed_cg`]),
//!   block-Jacobi PCG ([`distributed_pcg`]) and their merged-reduction twins
//!   ([`merged`]). One crate-private dispatch picks a solver's rank loop,
//!   so every solver runs unmodified in-process and over worker processes;
//!   an unprotected solve is that loop at
//!   [`RecoveryPolicy::Ideal`](feir_recovery::RecoveryPolicy::Ideal);
//! * [`resilient`] — per-rank fault domains ([`RankDomains`]), scripted
//!   faults ([`ScriptedFault`]) and a seeded per-rank fault stream lowered
//!   into them on the iteration clock, and cross-rank recovery under the full
//!   [`RecoveryPolicy`](feir_recovery::RecoveryPolicy) matrix, built on
//!   [`feir_recovery::engine`]; fault-free resilient solves are
//!   bitwise-identical to the unprotected ones;
//! * [`campaign`] — solver × policy × rank-count × fault-rate sweeps into
//!   Figure-5-comparable overhead tables, in-process and over processes;
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
    CampaignBaseline, CampaignCell, CampaignReport, FaultCampaign, KillSchedule,
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
    WorkerHandles, WorkerOptions,
};
pub use resilient::{
    distributed_resilient_cg, distributed_resilient_cg_merged, distributed_resilient_pcg,
    distributed_resilient_pcg_merged, DistResilienceConfig, DistResilientReport,
    DistResilientSolver, DistSolver, ProtectedVector, ScriptedFault,
};
