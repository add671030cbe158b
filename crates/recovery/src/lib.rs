//! # feir-recovery
//!
//! The paper's primary contribution: **Forward Exact Interpolation Recovery**
//! (FEIR) and its asynchronous variant (AFEIR) for Detected-and-Uncorrected
//! memory errors in iterative solvers, together with the state-of-the-art
//! techniques it is compared against (Lossy Restart, checkpoint/rollback and
//! trivial forward recovery).
//!
//! The crate provides:
//!
//! * [`engine`] — the solver-agnostic **resilient iteration engine**: the
//!   [`RecoverableIteration`] trait describing
//!   a solver's algebraic relations per protected vector, the coupled-row
//!   page-reconstruction kernels, scrub-point fault materialisation and the
//!   related-data conflict split —
//!   shared by the shared-memory solver below and `feir-dist`'s distributed
//!   CG/PCG;
//! * [`interpolate`] — the exact block recoveries of Table 1: direct (lhs)
//!   recomputation and inverse (rhs) diagonal-block solves, including the
//!   combined multi-block solve for simultaneous errors (Section 2.4);
//! * [`lossy`] — the Lossy Restart adapted from Langou et al.'s Lossy
//!   Approach, plus helpers used by the property tests of Theorems 1–3;
//! * [`checkpoint`] — periodic checkpointing of `x` and `d` with the optimal
//!   interval computation used by the paper's rollback baseline;
//! * [`policy`] — the [`RecoveryPolicy`] switch
//!   selecting between Ideal, Trivial, Checkpoint, Lossy Restart, FEIR and
//!   AFEIR;
//! * [`resilient_cg`] — the page-protected, task-decomposed CG / PCG solver
//!   (double-buffered `d`, skip bitmasks, per-iteration recovery tasks either
//!   in the critical path or overlapped) driving every experiment;
//! * [`report`] — run reports with convergence history, recovery events and
//!   the useful/runtime/imbalance time breakdown of Table 3.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod interpolate;
pub mod lossy;
pub mod policy;
pub mod report;
pub mod resilient_cg;

pub use checkpoint::{optimal_checkpoint_interval, CheckpointStore};
pub use engine::{
    CgRelations, MergedCgRelations, MergedPcgRelations, PcgRelations, RecoverableIteration,
};
pub use interpolate::BlockRecovery;
pub use lossy::lossy_interpolate_block;
pub use policy::{RecoveryPolicy, ResilienceConfig};
pub use report::{DistributedFaultReport, RankFaultStats, RecoveryEvent, RunReport, TimeBuckets};
pub use resilient_cg::{ResilientCg, ResilientCgBuilder};
