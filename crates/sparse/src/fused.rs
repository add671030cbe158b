//! Fused BLAS-1 / SpMV kernels: one memory sweep where the textbook loop
//! takes two or three.
//!
//! The paper's premise is that large-machine Krylov iterations are bound by
//! memory traffic and synchronizing reductions, not flops. Every kernel here
//! merges an update (or a matvec) with the reduction that immediately
//! consumes its output, so the hot path reads each vector once per iteration
//! instead of once per operation:
//!
//! * [`spmv_dot`] — `y = A·x` and `⟨x, y⟩` in one sweep over the rows;
//! * [`spmv_rows_dot`] — the block-row form used by the distributed solvers
//!   (`q ⇐ A·d` fused with the local `⟨d, q⟩` partial);
//! * [`axpy_norm2`] — `y ← y + α·x` fused with `‖y‖²` (the `g ⇐ g − α·q`
//!   update fused with the next iteration's `ε`);
//! * [`axpy_dot`] / [`xpay_dot`] — update fused with a dot against a third
//!   vector (the merged-CG recurrence updates that also produce the next
//!   iteration's reduction partials);
//! * [`dotn`] — `k` inner products folded in a single pass (the batched
//!   scalar vector that merged-reduction CG allreduces once per iteration).
//!
//! # Bitwise contract
//!
//! Each fused kernel is **bitwise-identical to the unfused composition it
//! replaces**, in both the serial and the parallel form:
//!
//! * the serial kernels accumulate in element order, exactly like
//!   [`vecops::dot`](crate::vecops::dot) run after the unfused update — the
//!   update of element `i` completes before element `i` enters the
//!   accumulator, and multiplication order within a term is preserved;
//! * the parallel kernels reduce over the same fixed
//!   [`DOT_CHUNK`] boundaries as
//!   [`vecops::dot_parallel`](crate::vecops::dot_parallel), folding per-chunk
//!   partials in chunk order — bitwise-identical across thread counts *and*
//!   to the unfused parallel composition;
//! * the serial gates (small inputs, single-worker pool) compute exactly the
//!   same folds on one thread, so gating changes scheduling, never values.
//!
//! This is what lets the classic CG/PCG paths adopt the fused kernels while
//! staying bitwise-identical to their pre-fusion results (asserted in
//! `tests/parallel_kernels.rs`).

use rayon::prelude::*;

use crate::csr::RowGather;
use crate::vecops::{dot, DOT_CHUNK, MIN_PARALLEL_DOT_ELEMS};
use crate::CsrMatrix;

/// Fused `y = A·x` with `⟨x, y⟩`, serial: the dot accumulates in row order,
/// so the result is bitwise-identical to [`CsrMatrix::spmv`] followed by
/// [`vecops::dot`](crate::vecops::dot)`(x, y)`.
///
/// # Panics
/// Panics if the matrix is not square or the slice lengths mismatch.
pub fn spmv_dot(a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(a.rows(), a.cols(), "spmv_dot: matrix must be square");
    assert_eq!(x.len(), a.cols(), "spmv_dot: x has wrong length");
    assert_eq!(y.len(), a.rows(), "spmv_dot: y has wrong length");
    let gather = RowGather::new(a, x);
    let mut acc = 0.0;
    for (r, out) in y.iter_mut().enumerate() {
        let v = gather.row_product::<false>(r);
        *out = v;
        acc += x[r] * v;
    }
    acc
}

/// Fused block-row `y = (A·x)[row_begin..row_end]` with the local partial
/// `⟨x[row_begin..row_end], y⟩` — the distributed `q ⇐ A·d` fused with this
/// rank's `⟨d, q⟩` contribution. Serial, row-order accumulation: bitwise
/// equal to [`CsrMatrix::spmv_rows`] followed by a serial dot of the owned
/// slices.
pub fn spmv_rows_dot(
    a: &CsrMatrix,
    row_begin: usize,
    row_end: usize,
    x: &[f64],
    y: &mut [f64],
) -> f64 {
    assert!(row_end <= a.rows());
    assert_eq!(x.len(), a.cols(), "spmv_dot: x has wrong length");
    assert_eq!(y.len(), row_end - row_begin);
    let gather = RowGather::new(a, x);
    let mut acc = 0.0;
    for (out, r) in y.iter_mut().zip(row_begin..row_end) {
        let v = gather.row_product::<false>(r);
        *out = v;
        acc += x[r] * v;
    }
    acc
}

/// Rayon-parallel [`spmv_dot`]: row blocks of [`DOT_CHUNK`] rows each produce
/// their output rows *and* their partial dot in one pass; partials fold in
/// block order. Bitwise-identical to [`CsrMatrix::spmv_parallel`] followed
/// by [`vecops::dot_parallel`](crate::vecops::dot_parallel) at every thread
/// count (same element values, same chunk boundaries, same fold order).
pub fn spmv_dot_parallel(a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(a.rows(), a.cols(), "spmv_dot: matrix must be square");
    assert_eq!(x.len(), a.cols(), "spmv_dot: x has wrong length");
    assert_eq!(y.len(), a.rows(), "spmv_dot: y has wrong length");
    let gather = RowGather::new(a, x);
    if a.rows() < MIN_PARALLEL_DOT_ELEMS.min(crate::csr::MIN_PARALLEL_SPMV_ROWS)
        || rayon::current_num_threads() <= 1
    {
        // Single-threaded fast path: same chunk-ordered fold, no fan-out.
        let mut total = 0.0;
        for (ci, yc) in y.chunks_mut(DOT_CHUNK).enumerate() {
            let base = ci * DOT_CHUNK;
            let mut acc = 0.0;
            for (i, out) in yc.iter_mut().enumerate() {
                let v = gather.row_product::<false>(base + i);
                *out = v;
                acc += x[base + i] * v;
            }
            total += acc;
        }
        return total;
    }
    y.par_chunks_mut(DOT_CHUNK)
        .enumerate()
        .map(|(ci, yc)| {
            let base = ci * DOT_CHUNK;
            let mut acc = 0.0;
            for (i, out) in yc.iter_mut().enumerate() {
                let v = gather.row_product::<false>(base + i);
                *out = v;
                acc += x[base + i] * v;
            }
            acc
        })
        .sum()
}

/// Fused `y ← y + α·x` with `‖y‖²`, serial: element-order accumulation,
/// bitwise-identical to [`vecops::axpy`](crate::vecops::axpy) followed by
/// [`vecops::norm2_squared`](crate::vecops::norm2_squared).
pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_norm2: length mismatch");
    let mut acc = 0.0;
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
        acc += *yi * *yi;
    }
    acc
}

/// Rayon-parallel [`axpy_norm2`] over fixed [`DOT_CHUNK`] chunks, partials
/// folded in chunk order: bitwise-identical to
/// [`vecops::axpy_parallel`](crate::vecops::axpy_parallel) followed by
/// [`vecops::norm2_squared_parallel`](crate::vecops::norm2_squared_parallel)
/// at every thread count.
pub fn axpy_norm2_parallel(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_norm2: length mismatch");
    if y.len() < MIN_PARALLEL_DOT_ELEMS || rayon::current_num_threads() <= 1 {
        let mut total = 0.0;
        for (yc, xc) in y.chunks_mut(DOT_CHUNK).zip(x.chunks(DOT_CHUNK)) {
            let mut acc = 0.0;
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += alpha * xi;
                acc += *yi * *yi;
            }
            total += acc;
        }
        return total;
    }
    y.par_chunks_mut(DOT_CHUNK)
        .zip(x.par_chunks(DOT_CHUNK))
        .map(|(yc, xc)| {
            let mut acc = 0.0;
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += alpha * xi;
                acc += *yi * *yi;
            }
            acc
        })
        .sum()
}

/// Fused `y ← y + α·x` with `⟨y, w⟩` against a third vector, serial. The
/// merged-CG sweep uses this for recurrence updates whose result feeds the
/// next iteration's batched reduction (e.g. `w ⇐ w − α·z` with
/// `δ' = ⟨w, g⟩`). Bitwise-identical to the unfused `axpy` + serial dot.
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot: length mismatch");
    assert_eq!(w.len(), y.len(), "axpy_dot: length mismatch");
    let mut acc = 0.0;
    for ((yi, xi), wi) in y.iter_mut().zip(x).zip(w) {
        *yi += alpha * xi;
        acc += *yi * wi;
    }
    acc
}

/// Rayon-parallel [`axpy_dot`] with the [`DOT_CHUNK`] fold guarantee.
pub fn axpy_dot_parallel(alpha: f64, x: &[f64], y: &mut [f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot: length mismatch");
    assert_eq!(w.len(), y.len(), "axpy_dot: length mismatch");
    if y.len() < MIN_PARALLEL_DOT_ELEMS || rayon::current_num_threads() <= 1 {
        let mut total = 0.0;
        for ((yc, xc), wc) in y
            .chunks_mut(DOT_CHUNK)
            .zip(x.chunks(DOT_CHUNK))
            .zip(w.chunks(DOT_CHUNK))
        {
            let mut acc = 0.0;
            for ((yi, xi), wi) in yc.iter_mut().zip(xc).zip(wc) {
                *yi += alpha * xi;
                acc += *yi * wi;
            }
            total += acc;
        }
        return total;
    }
    y.par_chunks_mut(DOT_CHUNK)
        .zip(x.par_chunks(DOT_CHUNK))
        .zip(w.par_chunks(DOT_CHUNK))
        .map(|((yc, xc), wc)| {
            let mut acc = 0.0;
            for ((yi, xi), wi) in yc.iter_mut().zip(xc).zip(wc) {
                *yi += alpha * xi;
                acc += *yi * wi;
            }
            acc
        })
        .sum()
}

/// Fused `y ← x + β·y` with `⟨y, w⟩`, serial — the `d ⇐ g + β·d` form of
/// the recurrence updates, fused with a dot against a third vector.
/// Bitwise-identical to [`vecops::xpay`](crate::vecops::xpay) + serial dot.
pub fn xpay_dot(x: &[f64], beta: f64, y: &mut [f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "xpay_dot: length mismatch");
    assert_eq!(w.len(), y.len(), "xpay_dot: length mismatch");
    let mut acc = 0.0;
    for ((yi, xi), wi) in y.iter_mut().zip(x).zip(w) {
        *yi = xi + beta * *yi;
        acc += *yi * wi;
    }
    acc
}

/// Rayon-parallel [`xpay_dot`] with the [`DOT_CHUNK`] fold guarantee.
pub fn xpay_dot_parallel(x: &[f64], beta: f64, y: &mut [f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "xpay_dot: length mismatch");
    assert_eq!(w.len(), y.len(), "xpay_dot: length mismatch");
    if y.len() < MIN_PARALLEL_DOT_ELEMS || rayon::current_num_threads() <= 1 {
        let mut total = 0.0;
        for ((yc, xc), wc) in y
            .chunks_mut(DOT_CHUNK)
            .zip(x.chunks(DOT_CHUNK))
            .zip(w.chunks(DOT_CHUNK))
        {
            let mut acc = 0.0;
            for ((yi, xi), wi) in yc.iter_mut().zip(xc).zip(wc) {
                *yi = xi + beta * *yi;
                acc += *yi * wi;
            }
            total += acc;
        }
        return total;
    }
    y.par_chunks_mut(DOT_CHUNK)
        .zip(x.par_chunks(DOT_CHUNK))
        .zip(w.par_chunks(DOT_CHUNK))
        .map(|((yc, xc), wc)| {
            let mut acc = 0.0;
            for ((yi, xi), wi) in yc.iter_mut().zip(xc).zip(wc) {
                *yi = xi + beta * *yi;
                acc += *yi * wi;
            }
            acc
        })
        .sum()
}

/// `k` inner products in one pass: `out[j] = ⟨pairs[j].0, pairs[j].1⟩`.
///
/// Each accumulator folds in element order independently, so every component
/// is bitwise-identical to the serial [`vecops::dot`](crate::vecops::dot) of
/// its pair — the loop jam changes memory traffic (one sweep instead of `k`
/// when the pairs share vectors), never values.
///
/// # Panics
/// Panics if any slice length differs from the first pair's.
pub fn dotn(pairs: &[(&[f64], &[f64])]) -> Vec<f64> {
    let Some(&(first, _)) = pairs.first() else {
        return Vec::new();
    };
    let n = first.len();
    for (x, y) in pairs {
        assert_eq!(x.len(), n, "dotn: length mismatch");
        assert_eq!(y.len(), n, "dotn: length mismatch");
    }
    // The merged solvers batch 2 (CG) or 3 (PCG) scalars; those arities get
    // bounds-check-free zipped loops (independent accumulators, so the
    // compiler vectorizes each like a plain dot while the shared input
    // vectors are read once).
    match *pairs {
        [(x0, y0), (x1, y1)] => {
            let (mut a0, mut a1) = (0.0, 0.0);
            for ((u0, v0), (u1, v1)) in x0.iter().zip(y0).zip(x1.iter().zip(y1)) {
                a0 += u0 * v0;
                a1 += u1 * v1;
            }
            vec![a0, a1]
        }
        [(x0, y0), (x1, y1), (x2, y2)] => {
            let (mut a0, mut a1, mut a2) = (0.0, 0.0, 0.0);
            for (((u0, v0), (u1, v1)), (u2, v2)) in x0
                .iter()
                .zip(y0)
                .zip(x1.iter().zip(y1))
                .zip(x2.iter().zip(y2))
            {
                a0 += u0 * v0;
                a1 += u1 * v1;
                a2 += u2 * v2;
            }
            vec![a0, a1, a2]
        }
        _ => {
            let mut acc = vec![0.0; pairs.len()];
            for i in 0..n {
                for (a, (x, y)) in acc.iter_mut().zip(pairs) {
                    *a += x[i] * y[i];
                }
            }
            acc
        }
    }
}

/// Rayon-parallel [`dotn`]: per-[`DOT_CHUNK`] partial vectors folded
/// component-wise in chunk order, so every component is bitwise-identical to
/// [`vecops::dot_parallel`](crate::vecops::dot_parallel) of its pair at any
/// thread count.
pub fn dotn_parallel(pairs: &[(&[f64], &[f64])]) -> Vec<f64> {
    let Some(&(first, _)) = pairs.first() else {
        return Vec::new();
    };
    let n = first.len();
    for (x, y) in pairs {
        assert_eq!(x.len(), n, "dotn: length mismatch");
        assert_eq!(y.len(), n, "dotn: length mismatch");
    }
    let chunk_dots = |ci: usize| -> Vec<f64> {
        let begin = ci * DOT_CHUNK;
        let end = (begin + DOT_CHUNK).min(n);
        pairs
            .iter()
            .map(|(x, y)| dot(&x[begin..end], &y[begin..end]))
            .collect()
    };
    let num_chunks = n.div_ceil(DOT_CHUNK);
    let partials: Vec<Vec<f64>> = if n < MIN_PARALLEL_DOT_ELEMS || rayon::current_num_threads() <= 1
    {
        (0..num_chunks).map(chunk_dots).collect()
    } else {
        (0..num_chunks).into_par_iter().map(chunk_dots).collect()
    };
    let mut acc = vec![0.0; pairs.len()];
    for partial in partials {
        for (a, p) in acc.iter_mut().zip(partial) {
            *a += p;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson_2d;
    use crate::vecops;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() / 5.0).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin() - 0.4).collect();
        (x, y, w)
    }

    #[test]
    fn spmv_dot_matches_unfused_serial_bitwise() {
        let a = poisson_2d(24);
        let (x, _, _) = vectors(a.cols());
        let mut y_unfused = vec![0.0; a.rows()];
        a.spmv(&x, &mut y_unfused);
        let expected = vecops::dot(&x, &y_unfused);
        let mut y = vec![0.0; a.rows()];
        let fused = spmv_dot(&a, &x, &mut y);
        assert_eq!(fused.to_bits(), expected.to_bits());
        assert_eq!(y, y_unfused);
    }

    #[test]
    fn spmv_rows_dot_matches_slice_composition() {
        let a = poisson_2d(16);
        let (x, _, _) = vectors(a.cols());
        let (begin, end) = (40, 200);
        let mut block = vec![0.0; end - begin];
        a.spmv_rows(begin, end, &x, &mut block);
        let expected = vecops::dot(&x[begin..end], &block);
        let mut fused_block = vec![0.0; end - begin];
        let fused = spmv_rows_dot(&a, begin, end, &x, &mut fused_block);
        assert_eq!(fused.to_bits(), expected.to_bits());
        assert_eq!(block, fused_block);
    }

    #[test]
    fn spmv_dot_parallel_matches_unfused_parallel_bitwise() {
        let a = poisson_2d(70); // 4900 rows: above the serial gates.
        let (x, _, _) = vectors(a.cols());
        let mut y_unfused = vec![0.0; a.rows()];
        a.spmv_parallel(&x, &mut y_unfused);
        let expected = vecops::dot_parallel(&x, &y_unfused);
        let mut y = vec![0.0; a.rows()];
        let fused = spmv_dot_parallel(&a, &x, &mut y);
        assert_eq!(fused.to_bits(), expected.to_bits());
        assert_eq!(y, y_unfused);
    }

    #[test]
    fn axpy_norm2_matches_unfused_both_forms() {
        for n in [100usize, 10_000] {
            let (x, y0, _) = vectors(n);
            let mut y_unfused = y0.clone();
            vecops::axpy(0.75, &x, &mut y_unfused);
            let serial_expected = vecops::norm2_squared(&y_unfused);
            let mut y = y0.clone();
            let fused = axpy_norm2(0.75, &x, &mut y);
            assert_eq!(fused.to_bits(), serial_expected.to_bits());
            assert_eq!(y, y_unfused);

            let mut y_unfused_p = y0.clone();
            vecops::axpy_parallel(0.75, &x, &mut y_unfused_p);
            let parallel_expected = vecops::norm2_squared_parallel(&y_unfused_p);
            let mut y_p = y0.clone();
            let fused_p = axpy_norm2_parallel(0.75, &x, &mut y_p);
            assert_eq!(fused_p.to_bits(), parallel_expected.to_bits());
            assert_eq!(y_p, y_unfused_p);
        }
    }

    #[test]
    fn axpy_dot_and_xpay_dot_match_unfused() {
        for n in [64usize, 9_000] {
            let (x, y0, w) = vectors(n);

            let mut y = y0.clone();
            vecops::axpy(-0.3, &x, &mut y);
            let expected = vecops::dot(&y, &w);
            let mut y_f = y0.clone();
            let fused = axpy_dot(-0.3, &x, &mut y_f, &w);
            assert_eq!(fused.to_bits(), expected.to_bits());
            assert_eq!(y, y_f);

            let mut y = y0.clone();
            vecops::xpay(&x, 1.2, &mut y);
            let expected = vecops::dot(&y, &w);
            let mut y_f = y0.clone();
            let fused = xpay_dot(&x, 1.2, &mut y_f, &w);
            assert_eq!(fused.to_bits(), expected.to_bits());
            assert_eq!(y, y_f);

            let mut y = y0.clone();
            vecops::axpy_parallel(-0.3, &x, &mut y);
            let expected = vecops::dot_parallel(&y, &w);
            let mut y_f = y0.clone();
            let fused = axpy_dot_parallel(-0.3, &x, &mut y_f, &w);
            assert_eq!(fused.to_bits(), expected.to_bits());
            assert_eq!(y, y_f);

            let mut y = y0.clone();
            vecops::xpay_parallel(&x, 1.2, &mut y);
            let expected = vecops::dot_parallel(&y, &w);
            let mut y_f = y0.clone();
            let fused = xpay_dot_parallel(&x, 1.2, &mut y_f, &w);
            assert_eq!(fused.to_bits(), expected.to_bits());
            assert_eq!(y, y_f);
        }
    }

    #[test]
    fn dotn_folds_k_dots_bitwise() {
        for n in [5usize, 5_000] {
            let (x, y, w) = vectors(n);
            let serial = dotn(&[(&x, &y), (&x, &x), (&w, &y)]);
            assert_eq!(serial[0].to_bits(), vecops::dot(&x, &y).to_bits());
            assert_eq!(serial[1].to_bits(), vecops::dot(&x, &x).to_bits());
            assert_eq!(serial[2].to_bits(), vecops::dot(&w, &y).to_bits());
            let parallel = dotn_parallel(&[(&x, &y), (&x, &x), (&w, &y)]);
            assert_eq!(
                parallel[0].to_bits(),
                vecops::dot_parallel(&x, &y).to_bits()
            );
            assert_eq!(
                parallel[1].to_bits(),
                vecops::dot_parallel(&x, &x).to_bits()
            );
            assert_eq!(
                parallel[2].to_bits(),
                vecops::dot_parallel(&w, &y).to_bits()
            );
        }
        assert!(dotn(&[]).is_empty());
        assert!(dotn_parallel(&[]).is_empty());
    }

    // Each fused matvec-dot asserts `x.len() == cols` before its first
    // unchecked gather: a short `x` panics with the length message, not
    // with the gather's debug assert or an out-of-bounds read.
    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_dot_rejects_a_short_x() {
        spmv_dot(&poisson_2d(4), &[0.0; 15], &mut [0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_rows_dot_rejects_a_short_x() {
        spmv_rows_dot(&poisson_2d(4), 8, 16, &[0.0; 15], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn spmv_dot_parallel_rejects_a_short_x() {
        let a = poisson_2d(70); // above the parallel gates
        spmv_dot_parallel(&a, &vec![0.0; a.cols() - 1], &mut vec![0.0; a.rows()]);
    }
}
