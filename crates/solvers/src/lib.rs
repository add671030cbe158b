//! # feir-solvers
//!
//! Reference implementations of the Krylov-subspace methods the paper protects
//! — Conjugate Gradient (CG), Bi-Conjugate Gradient Stabilized (BiCGStab) and
//! restarted GMRES — in plain and preconditioned form, plus the catalogue of
//! algebraic redundancy relations (Table 1 / Listings 1–7 of the paper) that
//! the forward-recovery schemes exploit.
//!
//! The solvers here are the *ideal* (non-resilient) versions used as the
//! baseline of every experiment; the task-decomposed, fault-tolerant CG lives
//! in `feir-recovery` and reuses these kernels.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bicgstab;
pub mod cg;
pub mod cg_merged;
pub mod gmres;
pub mod history;
pub mod pcg;
pub mod preconditioner;
pub mod relations;

pub use bicgstab::bicgstab;
pub use cg::cg;
pub use cg_merged::cg_merged;
pub use gmres::gmres;
pub use history::{ConvergenceHistory, SolveOptions, SolveResult, StopReason};
pub use pcg::pcg;
pub use preconditioner::{IdentityPreconditioner, JacobiPreconditioner, Preconditioner};
