//! # feir-pagemem
//!
//! Software model of memory-page level Detected-and-Uncorrected Errors (DUE),
//! reproducing the error model of *"Exploiting Asynchrony from Exact Forward
//! Recovery for DUE in Iterative Solvers"* (Jaulmes et al., SC 2015).
//!
//! In the paper, a DUE is detected by the memory controller's ECC logic and
//! reported to the OS, which discards the affected 4 KiB page and delivers a
//! `SIGBUS` to the application when the page is accessed ("poisoned" pages are
//! only signalled lazily). The application's signal handler maps a fresh blank
//! page at the same virtual address and the solver-level recovery refills it.
//! The paper *injects* errors with `mprotect` from a separate thread at times
//! drawn from an exponential distribution.
//!
//! This crate substitutes the hardware/OS machinery with an equivalent,
//! portable software contract:
//!
//! * [`PageRegistry`] tracks a poison/lost/healthy state per page of every
//!   registered (dynamic) vector using atomics — the software analogue of the
//!   machine-check architecture registers plus the OS page table state.
//! * [`FaultStream`] is the paper's exponential error process (Section 5.3)
//!   on the iteration clock: a solver reads it at fixed arrival points of
//!   each iteration, and every draw is a pure function of (seed, rank,
//!   iteration, point), so a faulted run replays bit for bit.
//!   [`FaultSchedule`] pairs it with an explicit list for the Figure-3 style
//!   single-error experiments. No thread injects anything.
//! * [`PagedVector`] wraps a `Vec<f64>` and exposes *guarded* page accesses:
//!   touching a poisoned page transitions it to *lost*, zeroes the data (the
//!   fresh blank page of the paper) and reports a [`PageFault`] to the caller,
//!   which is the moment the paper's SIGBUS handler would run.
//! * [`SkipMask`] is the per-page atomic bitmask of Section 3.3.2 used to
//!   propagate "this contribution was skipped" information between tasks so
//!   that reductions never accumulate garbage.
//!
//! The solver-visible behaviour — data vanishes at page granularity at random
//! instants and is only noticed on access — is identical to the paper's, which
//! is what the recovery techniques exercise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod registry;
pub mod skipmask;
pub mod stream;
pub mod vector;

pub use registry::{AccessOutcome, PageRegistry, PageStatus, VectorId};
pub use skipmask::SkipMask;
pub use stream::{FaultSchedule, FaultStream};
pub use vector::{PageAccess, PageFault, PagedVector};

/// Number of `f64` values per protected page (4 KiB / 8 bytes), matching the
/// paper's failure granularity.
pub const PAGE_DOUBLES: usize = feir_sparse::PAGE_DOUBLES;
