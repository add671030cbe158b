//! Per-matrix storage-format selection: CSR vs SELL-C-σ, chosen by a
//! one-shot analysis of the matrix (or forced via `FEIR_SPMV_FORMAT`).
//!
//! The solvers never pick a format themselves — they build a
//! [`SpmvBackend`] at solve entry (per rank, for the distributed loops) and
//! route every matvec and fused matvec-dot through it. Because the SELL
//! kernels are bitwise-identical to their CSR counterparts (see
//! [`crate::sell`]), the choice affects only speed, never results: a forced
//! `FEIR_SPMV_FORMAT=sell` run reproduces a `csr` run bit-for-bit.

use std::ops::Range;

use crate::sell::{SellMatrix, SELL_C, SELL_SIGMA};
use crate::{fused, CsrMatrix};

/// Environment knob forcing the SpMV storage format. Accepted values are
/// `csr`, `sell` and `auto` (the default); anything else is a hard error:
/// a typo must not silently fall back.
pub const ENV_SPMV_FORMAT: &str = "FEIR_SPMV_FORMAT";

/// Requested SpMV storage format (the value of [`ENV_SPMV_FORMAT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvFormat {
    /// Always use the CSR kernels.
    Csr,
    /// Always convert to SELL-C-σ, regardless of predicted padding.
    Sell,
    /// Let the [`FormatAnalysis`] heuristic decide per matrix (default).
    Auto,
}

impl SpmvFormat {
    /// Parses a format name.
    ///
    /// # Errors
    /// Returns a description of the valid values if `raw` is none of them.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "csr" => Ok(Self::Csr),
            "sell" => Ok(Self::Sell),
            "auto" => Ok(Self::Auto),
            _ => Err(format!(
                "{ENV_SPMV_FORMAT}={raw} is invalid: expected csr, sell, or auto"
            )),
        }
    }

    /// Reads [`ENV_SPMV_FORMAT`]; unset means [`SpmvFormat::Auto`].
    ///
    /// # Panics
    /// Panics on a malformed value: format selection changes performance
    /// only, so a typo silently ignored would be impossible to notice.
    pub fn from_env() -> Self {
        match std::env::var(ENV_SPMV_FORMAT) {
            Ok(raw) => match Self::parse(&raw) {
                Ok(format) => format,
                Err(msg) => panic!("{msg}"),
            },
            Err(_) => Self::Auto,
        }
    }
}

/// A *resolved* storage format: what a backend actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixFormat {
    /// Compressed sparse row.
    Csr,
    /// Sliced ELLPACK ([`crate::sell`]).
    Sell,
}

/// Row blocks smaller than this always stay CSR under `auto`: the one-shot
/// conversion and the permutation bookkeeping cannot pay off on a block
/// that fits in fewer than two σ-windows. A 512-row page is *not* below the
/// floor, which is why the per-page recovery matvecs call the CSR row
/// kernels directly instead of building a backend.
pub const SELL_MIN_ROWS: usize = 2 * SELL_SIGMA;

/// Maximum predicted SELL fill (`padded_nnz / nnz`) `auto` accepts: above
/// this, padding-induced extra traffic outweighs the vectorization win.
pub const SELL_MAX_FILL: f64 = 1.35;

/// One-shot structural analysis of a row block, driving `auto` selection.
#[derive(Debug, Clone)]
pub struct FormatAnalysis {
    /// Rows in the analyzed block.
    pub rows: usize,
    /// Stored entries in the analyzed block.
    pub nnz: usize,
    /// Shortest row.
    pub min_row_len: usize,
    /// Longest row.
    pub max_row_len: usize,
    /// Mean row length.
    pub mean_row_len: f64,
    /// Population variance of the row lengths.
    pub row_len_variance: f64,
    /// Predicted SELL fill ratio after σ-window sorting (≥ 1.0): the
    /// operative row-length-variance measure — variance *within* a σ-window
    /// is what padding pays for, variance across windows is free.
    pub predicted_fill: f64,
    /// The format `auto` resolves to for this block.
    pub choice: MatrixFormat,
}

/// Analyzes the row block `[row_begin, row_end)` of `a`.
///
/// Cost: O(rows) for the length statistics and the σ-sort simulation; the
/// column indices are never read.
pub fn analyze_rows(a: &CsrMatrix, row_begin: usize, row_end: usize) -> FormatAnalysis {
    assert!(row_end >= row_begin && row_end <= a.rows());
    let rows = row_end - row_begin;
    let nnz = a.row_ptr()[row_end] - a.row_ptr()[row_begin];
    let lens: Vec<usize> = (row_begin..row_end)
        .map(|r| a.row_ptr()[r + 1] - a.row_ptr()[r])
        .collect();
    let min_row_len = lens.iter().copied().min().unwrap_or(0);
    let max_row_len = lens.iter().copied().max().unwrap_or(0);
    let mean_row_len = if rows == 0 {
        0.0
    } else {
        nnz as f64 / rows as f64
    };
    let row_len_variance = if rows == 0 {
        0.0
    } else {
        lens.iter()
            .map(|&l| {
                let d = l as f64 - mean_row_len;
                d * d
            })
            .sum::<f64>()
            / rows as f64
    };

    // Simulate the σ-window descending-length sort and sum the resulting
    // slice widths: exactly the padding a real conversion would produce.
    let mut padded = 0usize;
    let mut window = Vec::with_capacity(SELL_SIGMA);
    for w in lens.chunks(SELL_SIGMA) {
        window.clear();
        window.extend_from_slice(w);
        window.sort_unstable_by(|x, y| y.cmp(x));
        for slice in window.chunks(SELL_C) {
            padded += slice[0] * SELL_C;
        }
    }
    let predicted_fill = if nnz == 0 {
        1.0
    } else {
        padded as f64 / nnz as f64
    };

    let choice = if rows < SELL_MIN_ROWS || nnz == 0 || predicted_fill > SELL_MAX_FILL {
        MatrixFormat::Csr
    } else {
        MatrixFormat::Sell
    };

    FormatAnalysis {
        rows,
        nnz,
        min_row_len,
        max_row_len,
        mean_row_len,
        row_len_variance,
        predicted_fill,
        choice,
    }
}

/// [`analyze_rows`] over the full matrix.
pub fn analyze(a: &CsrMatrix) -> FormatAnalysis {
    analyze_rows(a, 0, a.rows())
}

/// The format-polymorphic SpMV surface: both storage backends expose the
/// same serial/parallel matvec and fused matvec-dot kernels, all
/// bitwise-identical across implementors.
pub trait SparseOps {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Number of stored entries (excluding any padding).
    fn nnz(&self) -> usize;
    /// Serial `y = A·x`.
    fn spmv(&self, x: &[f64], y: &mut [f64]);
    /// Parallel `y = A·x`, bitwise-identical to [`SparseOps::spmv`].
    fn spmv_parallel(&self, x: &[f64], y: &mut [f64]);
    /// Fused serial `y = A·x` with `⟨x, y⟩` (square matrices).
    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64;
    /// Fused parallel form of [`SparseOps::spmv_dot`].
    fn spmv_dot_parallel(&self, x: &[f64], y: &mut [f64]) -> f64;
}

impl SparseOps for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }
    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::spmv(self, x, y);
    }
    fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::spmv_parallel(self, x, y);
    }
    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        fused::spmv_dot(self, x, y)
    }
    fn spmv_dot_parallel(&self, x: &[f64], y: &mut [f64]) -> f64 {
        fused::spmv_dot_parallel(self, x, y)
    }
}

impl SparseOps for SellMatrix {
    fn rows(&self) -> usize {
        SellMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        SellMatrix::cols(self)
    }
    fn nnz(&self) -> usize {
        SellMatrix::nnz(self)
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        SellMatrix::spmv(self, x, y);
    }
    fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        SellMatrix::spmv_parallel(self, x, y);
    }
    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        SellMatrix::spmv_dot(self, x, y)
    }
    fn spmv_dot_parallel(&self, x: &[f64], y: &mut [f64]) -> f64 {
        SellMatrix::spmv_dot_parallel(self, x, y)
    }
}

/// A resolved SpMV backend for one row block of one matrix.
///
/// Built once at solve entry (or once per rank, over the rank's owned
/// block) from a borrowed [`CsrMatrix`]; the optional SELL conversion is
/// one-shot and amortized over the whole solve. The backend itself owns no
/// reference to the source matrix — callers pass it to every kernel, which
/// keeps the type free of lifetimes so solver state can embed it.
#[derive(Debug, Clone)]
pub struct SpmvBackend {
    range: Range<usize>,
    cols: usize,
    format: MatrixFormat,
    sell: Option<SellMatrix>,
}

impl SpmvBackend {
    /// Selects a backend for the full matrix: [`SpmvFormat::from_env`]
    /// resolved through [`analyze`] when it says `auto`.
    pub fn select(a: &CsrMatrix) -> Self {
        Self::with_format_rows(a, 0..a.rows(), SpmvFormat::from_env())
    }

    /// Selects a backend for the row block `[range.start, range.end)` — the
    /// rank-local form: only the owned rows are analyzed and (possibly)
    /// converted, while `x` stays full-length.
    pub fn select_rows(a: &CsrMatrix, range: Range<usize>) -> Self {
        Self::with_format_rows(a, range, SpmvFormat::from_env())
    }

    /// [`SpmvBackend::select`] with an explicit format request.
    pub fn with_format(a: &CsrMatrix, format: SpmvFormat) -> Self {
        Self::with_format_rows(a, 0..a.rows(), format)
    }

    /// [`SpmvBackend::select_rows`] with an explicit format request.
    pub fn with_format_rows(a: &CsrMatrix, range: Range<usize>, format: SpmvFormat) -> Self {
        assert!(range.start <= range.end && range.end <= a.rows());
        let resolved = match format {
            SpmvFormat::Csr => MatrixFormat::Csr,
            SpmvFormat::Sell => MatrixFormat::Sell,
            SpmvFormat::Auto => analyze_rows(a, range.start, range.end).choice,
        };
        let sell = match resolved {
            MatrixFormat::Csr => None,
            MatrixFormat::Sell => Some(
                SellMatrix::from_csr_rows(a, range.start, range.end)
                    .expect("CSR→SELL conversion failed"),
            ),
        };
        Self {
            range,
            cols: a.cols(),
            format: resolved,
            sell,
        }
    }

    /// The format this backend resolved to.
    #[inline]
    pub fn format(&self) -> MatrixFormat {
        self.format
    }

    /// The row block this backend covers.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    #[inline]
    fn check(&self, a: &CsrMatrix) {
        debug_assert_eq!(a.cols(), self.cols, "backend used with a different matrix");
        debug_assert!(self.range.end <= a.rows());
    }

    /// Serial `y = A[range]·x`; for a full-range backend this is the plain
    /// matvec. Bitwise-identical across formats.
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        self.check(a);
        match &self.sell {
            Some(sell) => sell.spmv(x, y),
            None => a.spmv_rows(self.range.start, self.range.end, x, y),
        }
    }

    /// Parallel `y = A[range]·x`. Partial-range backends run on the rank's
    /// own thread and use the serial kernel; full-range backends fan out on
    /// the ambient pool. Bitwise-identical to [`SpmvBackend::spmv`] either
    /// way.
    pub fn spmv_parallel(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        self.check(a);
        if self.range.start != 0 || self.range.end != a.rows() {
            return self.spmv(a, x, y);
        }
        match &self.sell {
            Some(sell) => sell.spmv_parallel(x, y),
            None => a.spmv_parallel(x, y),
        }
    }

    /// Fused serial `y = A[range]·x` with the block-local partial
    /// `⟨x[range], y⟩` — [`fused::spmv_rows_dot`] dispatched over the
    /// formats; the square full-range case is exactly [`fused::spmv_dot`].
    pub fn spmv_dot(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> f64 {
        self.check(a);
        match &self.sell {
            Some(sell) => sell.spmv_dot_at(self.range.start, x, y),
            None => fused::spmv_rows_dot(a, self.range.start, self.range.end, x, y),
        }
    }

    /// Fused parallel `y = A·x` with `⟨x, y⟩`; full-range backends only.
    pub fn spmv_dot_parallel(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> f64 {
        self.check(a);
        assert!(
            self.range.start == 0 && self.range.end == a.rows(),
            "spmv_dot_parallel requires a full-range backend"
        );
        match &self.sell {
            Some(sell) => sell.spmv_dot_parallel(x, y),
            None => fused::spmv_dot_parallel(a, x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson_2d;
    use crate::CooMatrix;

    #[test]
    fn parse_accepts_exactly_the_three_values() {
        assert_eq!(SpmvFormat::parse("csr"), Ok(SpmvFormat::Csr));
        assert_eq!(SpmvFormat::parse("sell"), Ok(SpmvFormat::Sell));
        assert_eq!(SpmvFormat::parse("auto"), Ok(SpmvFormat::Auto));
        for bad in ["", "CSR", "sell ", "ellpack", "auto\n"] {
            let err = SpmvFormat::parse(bad).unwrap_err();
            assert!(err.contains("is invalid"), "{err}");
            assert!(err.contains(ENV_SPMV_FORMAT), "{err}");
        }
    }

    #[test]
    fn auto_picks_sell_for_banded_stencils() {
        let a = poisson_2d(32); // 1024 uniformish rows
        let analysis = analyze(&a);
        assert_eq!(analysis.choice, MatrixFormat::Sell);
        assert!(analysis.predicted_fill <= SELL_MAX_FILL);
        // The prediction matches what the conversion actually produces.
        let sell = SellMatrix::from_csr(&a);
        assert!((sell.fill_ratio() - analysis.predicted_fill).abs() < 1e-12);
    }

    #[test]
    fn auto_keeps_csr_for_high_row_variance() {
        // One dense row per σ-window blows up the slice widths.
        let n = 4 * SELL_SIGMA;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, 4.0).unwrap();
        }
        for w in 0..4 {
            let spike = w * SELL_SIGMA;
            for c in 0..n {
                coo.push(spike, c, 0.01).unwrap();
            }
        }
        let analysis = analyze(&coo.to_csr().unwrap());
        assert!(analysis.predicted_fill > SELL_MAX_FILL);
        assert_eq!(analysis.choice, MatrixFormat::Csr);
        assert!(analysis.row_len_variance > 1.0);
    }

    #[test]
    fn auto_keeps_csr_below_the_rows_floor() {
        let a = poisson_2d(8); // 64 rows: page-block scale
        let analysis = analyze(&a);
        assert_eq!(analysis.choice, MatrixFormat::Csr);
    }

    #[test]
    fn backend_dispatch_is_bitwise_identical_across_formats() {
        let a = poisson_2d(24);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.13).cos()).collect();
        let csr = SpmvBackend::with_format(&a, SpmvFormat::Csr);
        let sell = SpmvBackend::with_format(&a, SpmvFormat::Sell);
        assert_eq!(csr.format(), MatrixFormat::Csr);
        assert_eq!(sell.format(), MatrixFormat::Sell);
        let mut y1 = vec![0.0; a.rows()];
        let mut y2 = vec![0.0; a.rows()];
        let d1 = csr.spmv_dot(&a, &x, &mut y1);
        let d2 = sell.spmv_dot(&a, &x, &mut y2);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(y1, y2);

        let range = 128..448;
        let csr_b = SpmvBackend::with_format_rows(&a, range.clone(), SpmvFormat::Csr);
        let sell_b = SpmvBackend::with_format_rows(&a, range.clone(), SpmvFormat::Sell);
        let mut q1 = vec![0.0; range.len()];
        let mut q2 = vec![0.0; range.len()];
        let p1 = csr_b.spmv_dot(&a, &x, &mut q1);
        let p2 = sell_b.spmv_dot(&a, &x, &mut q2);
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert_eq!(q1, q2);
    }

    #[test]
    fn env_roundtrip_resolves_all_valid_values() {
        // Only ever set *valid* values: another test racing this one would
        // then still resolve a correct (bitwise-equivalent) backend.
        let previous = std::env::var(ENV_SPMV_FORMAT).ok();
        for (raw, expected) in [
            ("csr", SpmvFormat::Csr),
            ("sell", SpmvFormat::Sell),
            ("auto", SpmvFormat::Auto),
        ] {
            std::env::set_var(ENV_SPMV_FORMAT, raw);
            assert_eq!(SpmvFormat::from_env(), expected);
        }
        match previous {
            Some(v) => std::env::set_var(ENV_SPMV_FORMAT, v),
            None => std::env::remove_var(ENV_SPMV_FORMAT),
        }
        if std::env::var(ENV_SPMV_FORMAT).is_err() {
            assert_eq!(SpmvFormat::from_env(), SpmvFormat::Auto);
        }
    }
}
