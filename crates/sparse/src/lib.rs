//! # feir-sparse
//!
//! Sparse linear-algebra substrate for the FEIR project (reproduction of
//! *"Exploiting Asynchrony from Exact Forward Recovery for DUE in Iterative
//! Solvers"*, Jaulmes et al., SC 2015).
//!
//! The paper's recovery schemes operate on blocks of vectors (one memory page,
//! 512 `f64`) and on the corresponding block rows/columns of a sparse matrix.
//! This crate provides everything those schemes need:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with serial and
//!   [rayon]-parallel sparse matrix–vector products,
//! * [`DenseMatrix`] with [`Cholesky`], [`Lu`] and Householder [`Qr`]
//!   factorizations used to solve the small diagonal-block systems
//!   `A_ii x_i = r_i` of the recovery relations,
//! * [`EnvelopeCholesky`] — reverse-Cuthill–McKee-ordered band Cholesky of a
//!   principal submatrix taken straight from the CSR rows, which is what a
//!   page repair factors,
//! * [`blocking`] — page-aligned block partitions and extraction of dense
//!   diagonal blocks / block rows,
//! * [`BlockJacobi`] — the block-Jacobi preconditioner used by the paper's PCG
//!   (block size equal to the page size so the factorizations required for
//!   recovery are pre-computed),
//! * [`generators`] — Poisson stencils (5/7/27-point), anisotropic and
//!   jump-coefficient variants, random diagonally-dominant SPD matrices,
//! * [`proxies`] — synthetic stand-ins for the nine University-of-Florida
//!   matrices evaluated in the paper,
//! * [`matrixmarket`] — MatrixMarket I/O so real matrices can be used instead
//!   of the proxies,
//! * [`vecops`] — the dense vector kernels (dot, axpy, norms) used by all
//!   solvers, in serial and parallel form,
//! * [`fused`] — fused BLAS-1/SpMV kernels (`spmv_dot`, `axpy_norm2`,
//!   `xpay_dot`, multi-dot `dotn`) that merge an update or matvec with the
//!   reduction consuming it, bitwise-identical to the unfused compositions,
//! * [`sell`] — the SELL-C-σ storage backend whose kernels are
//!   bitwise-identical to CSR's, and [`mod@format`] — the per-matrix CSR/SELL
//!   auto-selection ([`SpmvBackend`], `FEIR_SPMV_FORMAT`).

#![warn(missing_docs)]
#![warn(clippy::cast_possible_truncation)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod blocking;
pub mod blockjacobi;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod envelope;
pub mod error;
pub mod format;
pub mod fused;
pub mod generators;
pub mod matrixmarket;
pub mod proxies;
pub mod sell;
pub mod vecops;

pub use blocking::{BlockPartition, DiagonalBlocks};
pub use blockjacobi::{BlockJacobi, LocalBlockJacobi};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::{Cholesky, DenseMatrix, Lu, Qr};
pub use envelope::EnvelopeCholesky;
pub use error::SparseError;
pub use format::{
    analyze, analyze_rows, FormatAnalysis, MatrixFormat, SparseOps, SpmvBackend, SpmvFormat,
    ENV_SPMV_FORMAT,
};
pub use sell::SellMatrix;

/// Number of `f64` values in one 4 KiB memory page — the granularity at which
/// the paper's hardware error model reports Detected-and-Uncorrected Errors.
pub const PAGE_DOUBLES: usize = 512;
