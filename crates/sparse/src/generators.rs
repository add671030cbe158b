//! Matrix generators: Poisson stencils, anisotropic and jump-coefficient
//! diffusion problems, and random diagonally-dominant SPD matrices.
//!
//! The paper evaluates on nine University-of-Florida SPD matrices and, for the
//! scaling study, on the 27-point stencil discretization of the 3-D Poisson
//! equation used by HPCG. These generators produce matrices with the same
//! structure so every experiment can run without external data.
//!
//! Every stencil generator is assembled straight into the CSR arrays, each
//! row in increasing column order: no triplet stage, no sort. `row_ptr` comes
//! from each stencil's closed-form row length, so `col_idx` and `values` are
//! allocated at the exact entry count and written once, in row blocks split
//! on grid planes (3-D) or grid rows (2-D). As HPCG has every process
//! generate its own rows, an operator of at least 2^20 entries is written
//! in one block per pool worker; a smaller one is one block on the calling
//! thread. A row's entries do not depend on its block, so every operator has
//! the same bits at every thread count. [`random_spd`] sums duplicates, so it
//! goes through a [`CooMatrix`].

use std::mem::MaybeUninit;
use std::ops::Range;
use std::slice::IterMut;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::csr::narrow_col;
use crate::{CooMatrix, CsrMatrix};

/// Stored entries from which a stencil is assembled in one row block per pool
/// worker, and its manufactured right-hand side multiplied in parallel.
/// Below it the operator is a few MB, whose set-up costs less than a
/// fan-out: `poisson_2d(128)` (81 408 entries) stays on the calling thread.
const PARALLEL_ASSEMBLY_ENTRIES: usize = 1 << 20;

/// How a stencil's row length follows from its grid point's in-grid
/// neighbours along each axis.
#[derive(Clone, Copy)]
enum Shape {
    /// The point and its axis neighbours (5- and 7-point): 1 + their count.
    Star,
    /// Every point within one step on each axis (27-point): the product of
    /// each axis's in-grid count.
    Box,
}

/// One block's share of `col_idx`/`values`, written front to back exactly
/// once.
struct BlockWriter<'a> {
    cols: IterMut<'a, MaybeUninit<u32>>,
    vals: IterMut<'a, MaybeUninit<f64>>,
}

impl BlockWriter<'_> {
    #[inline]
    fn push(&mut self, col: usize, value: f64) {
        let (Some(c), Some(v)) = (self.cols.next(), self.vals.next()) else {
            panic!("stencil block writes more entries than its rows' lengths");
        };
        c.write(narrow_col(col));
        v.write(value);
    }
}

/// A stencil's row writer: the rows of a range of planes, in order.
trait Fill: Fn(Range<usize>, &mut BlockWriter<'_>) + Sync {}

impl<F: Fn(Range<usize>, &mut BlockWriter<'_>) + Sync> Fill for F {}

/// A stencil on an `n`-edge grid of `dims` dimensions, rows numbered with
/// the last axis fastest. `fill` writes the rows of a range of planes (the
/// first axis) in order, each row in increasing column order.
struct Stencil<F> {
    n: usize,
    dims: u32,
    shape: Shape,
    fill: F,
}

impl<F: Fill> Stencil<F> {
    /// Row pointers from the closed-form row lengths.
    fn row_ptr(&self) -> Vec<usize> {
        let n = self.n;
        let near: Vec<usize> = (0..n)
            .map(|m| usize::from(m > 0) + usize::from(m + 1 < n))
            .collect();
        // A 2-D grid is one plane of a 3-D one, with no neighbours across it.
        let planes: &[usize] = if self.dims == 3 { &near } else { &[0] };
        let mut row_ptr = Vec::with_capacity(n.pow(self.dims) + 1);
        row_ptr.push(0);
        let mut end = 0;
        for &a in planes {
            for &b in &near {
                for &c in &near {
                    end += match self.shape {
                        Shape::Star => 1 + a + b + c,
                        Shape::Box => (1 + a) * (1 + b) * (1 + c),
                    };
                    row_ptr.push(end);
                }
            }
        }
        row_ptr
    }

    /// The matrix, in one row block per pool worker if it has at least
    /// [`PARALLEL_ASSEMBLY_ENTRIES`] entries, else in one block.
    fn build(&self) -> CsrMatrix {
        let row_ptr = self.row_ptr();
        let blocks = if row_ptr[row_ptr.len() - 1] >= PARALLEL_ASSEMBLY_ENTRIES {
            rayon::current_num_threads()
        } else {
            1
        };
        self.assemble(row_ptr, blocks)
    }

    /// The matrix with the given row pointers, written in `blocks` blocks of
    /// whole planes (some empty if `blocks` exceeds the plane count). One
    /// block runs on the calling thread; more run through `rayon::join`.
    fn assemble(&self, row_ptr: Vec<usize>, blocks: usize) -> CsrMatrix {
        let size = row_ptr.len() - 1;
        let nnz = row_ptr[size];
        let mut col_idx = Vec::<u32>::with_capacity(nnz);
        let mut values = Vec::<f64>::with_capacity(nnz);
        let cols = &mut col_idx.spare_capacity_mut()[..nnz];
        let vals = &mut values.spare_capacity_mut()[..nnz];
        self.write_blocks(&row_ptr, 0..self.n, blocks, cols, vals);
        // SAFETY: `write_blocks` splits `0..nnz` into one share per block
        // and asserts that each block wrote every slot of its share, so the
        // first `nnz` entries of both buffers are initialized.
        unsafe {
            col_idx.set_len(nnz);
            values.set_len(nnz);
        }
        CsrMatrix::from_raw(size, size, row_ptr, col_idx, values)
            .expect("stencil columns are in bounds and fit a u32")
    }

    /// Writes `planes`, whose entries are exactly `cols`/`vals`, in `blocks`
    /// blocks: halves of the block count go to the two sides of
    /// `rayon::join`, each with the entries of its planes.
    fn write_blocks(
        &self,
        row_ptr: &[usize],
        planes: Range<usize>,
        blocks: usize,
        cols: &mut [MaybeUninit<u32>],
        vals: &mut [MaybeUninit<f64>],
    ) {
        if blocks <= 1 {
            let mut out = BlockWriter {
                cols: cols.iter_mut(),
                vals: vals.iter_mut(),
            };
            (self.fill)(planes, &mut out);
            assert!(
                out.cols.len() == 0 && out.vals.len() == 0,
                "stencil block writes fewer entries than its rows' lengths"
            );
            return;
        }
        let half = blocks / 2;
        let mid = planes.start + planes.len() * half / blocks;
        let entry = |plane: usize| row_ptr[plane * self.n.pow(self.dims - 1)];
        let split = entry(mid) - entry(planes.start);
        let (cols_a, cols_b) = cols.split_at_mut(split);
        let (vals_a, vals_b) = vals.split_at_mut(split);
        rayon::join(
            || self.write_blocks(row_ptr, planes.start..mid, half, cols_a, vals_a),
            || self.write_blocks(row_ptr, mid..planes.end, blocks - half, cols_b, vals_b),
        );
    }
}

/// A 5-point stencil on an `n × n` grid. `weights(i, j)` gives row `(i, j)`'s
/// entries for columns `[(i−1, j), (i, j−1), (i, j), (i, j+1), (i+1, j)]`;
/// those of off-grid neighbours are not read.
fn five_point(n: usize, weights: impl Fn(usize, usize) -> [f64; 5] + Sync) -> Stencil<impl Fill> {
    Stencil {
        n,
        dims: 2,
        shape: Shape::Star,
        fill: move |rows: Range<usize>, out: &mut BlockWriter<'_>| {
            let idx = |i: usize, j: usize| i * n + j;
            for i in rows {
                for j in 0..n {
                    let [up, left, diag, right, down] = weights(i, j);
                    if i > 0 {
                        out.push(idx(i - 1, j), up);
                    }
                    if j > 0 {
                        out.push(idx(i, j - 1), left);
                    }
                    out.push(idx(i, j), diag);
                    if j + 1 < n {
                        out.push(idx(i, j + 1), right);
                    }
                    if i + 1 < n {
                        out.push(idx(i + 1, j), down);
                    }
                }
            }
        },
    }
}

fn poisson_2d_stencil(n: usize) -> Stencil<impl Fill> {
    five_point(n, |_, _| [-1.0, -1.0, 4.0, -1.0, -1.0])
}

fn poisson_3d_7pt_stencil(n: usize) -> Stencil<impl Fill> {
    Stencil {
        n,
        dims: 3,
        shape: Shape::Star,
        fill: move |planes: Range<usize>, out: &mut BlockWriter<'_>| {
            let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
            for i in planes {
                for j in 0..n {
                    for k in 0..n {
                        if i > 0 {
                            out.push(idx(i - 1, j, k), -1.0);
                        }
                        if j > 0 {
                            out.push(idx(i, j - 1, k), -1.0);
                        }
                        if k > 0 {
                            out.push(idx(i, j, k - 1), -1.0);
                        }
                        out.push(idx(i, j, k), 6.0);
                        if k + 1 < n {
                            out.push(idx(i, j, k + 1), -1.0);
                        }
                        if j + 1 < n {
                            out.push(idx(i, j + 1, k), -1.0);
                        }
                        if i + 1 < n {
                            out.push(idx(i + 1, j, k), -1.0);
                        }
                    }
                }
            }
        },
    }
}

fn poisson_3d_27pt_stencil(n: usize) -> Stencil<impl Fill> {
    Stencil {
        n,
        dims: 3,
        shape: Shape::Box,
        fill: move |planes: Range<usize>, out: &mut BlockWriter<'_>| {
            let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
            // The in-grid neighbours of each axis, in increasing order.
            let near = |m: usize| m.saturating_sub(1)..(m + 2).min(n);
            for i in planes {
                for j in 0..n {
                    for k in 0..n {
                        let row = idx(i, j, k);
                        for ni in near(i) {
                            for nj in near(j) {
                                for nk in near(k) {
                                    let col = idx(ni, nj, nk);
                                    let value = if col == row { 26.0 } else { -1.0 };
                                    out.push(col, value);
                                }
                            }
                        }
                    }
                }
            }
        },
    }
}

fn anisotropic_2d_stencil(n: usize, epsilon: f64) -> Stencil<impl Fill> {
    assert!(epsilon > 0.0, "epsilon must be positive");
    five_point(n, move |_, _| {
        [-1.0, -epsilon, 2.0 + 2.0 * epsilon, -epsilon, -1.0]
    })
}

fn jump_coefficient_2d_stencil(n: usize, jump: f64) -> Stencil<impl Fill> {
    assert!(jump > 0.0, "jump must be positive");
    let coeff = move |j: usize| if j >= n / 2 { jump } else { 1.0 };
    five_point(n, move |i, j| {
        let c = coeff(j);
        let weight = |nj: usize| 0.5 * (c + coeff(nj));
        let up = (i > 0).then(|| weight(j));
        let down = (i + 1 < n).then(|| weight(j));
        let left = (j > 0).then(|| weight(j - 1));
        let right = (j + 1 < n).then(|| weight(j + 1));
        // The diagonal sums its weights in the order i−1, i+1, j−1, j+1,
        // not in column order: its rounding must not depend on the layout.
        let diag = [up, down, left, right]
            .into_iter()
            .flatten()
            .fold(0.0, |s, w| s + w);
        let off = |w: Option<f64>| -w.unwrap_or(0.0);
        // Add a boundary contribution so the matrix is non-singular.
        [off(up), off(left), diag + 0.5 * c, off(right), off(down)]
    })
}

/// 2-D 5-point Laplacian on an `n × n` grid (Dirichlet boundary), size `n²`.
pub fn poisson_2d(n: usize) -> CsrMatrix {
    poisson_2d_stencil(n).build()
}

/// 3-D 7-point Laplacian on an `n × n × n` grid (Dirichlet boundary), size `n³`.
pub fn poisson_3d_7pt(n: usize) -> CsrMatrix {
    poisson_3d_7pt_stencil(n).build()
}

/// 3-D 27-point stencil on an `n × n × n` grid — the HPCG-style discretization
/// used for the paper's scaling experiment (Figure 5).
///
/// The stencil has value 26 on the diagonal and −1 for each of the (up to) 26
/// neighbours, which is the standard HPCG operator.
pub fn poisson_3d_27pt(n: usize) -> CsrMatrix {
    poisson_3d_27pt_stencil(n).build()
}

/// Anisotropic 2-D diffusion operator: the `x`-direction coupling is scaled by
/// `epsilon` (0 < ε ≤ 1). Small ε slows CG convergence, which is how the
/// proxy matrices reproduce the wide range of iteration counts of the paper's
/// test set.
pub fn anisotropic_2d(n: usize, epsilon: f64) -> CsrMatrix {
    anisotropic_2d_stencil(n, epsilon).build()
}

/// 2-D diffusion with a jump in the coefficient: the right half of the domain
/// has conductivity `jump` times the left half. Mimics the heterogeneous
/// material problems (thermal / thermomechanical families) in the paper's
/// matrix set.
pub fn jump_coefficient_2d(n: usize, jump: f64) -> CsrMatrix {
    jump_coefficient_2d_stencil(n, jump).build()
}

/// Random sparse diagonally-dominant SPD matrix with roughly `nnz_per_row`
/// off-diagonal entries per row.
///
/// Built as `A = B + Bᵀ + α·I` where `B` is random sparse and `α` enforces
/// strict diagonal dominance, so the result is symmetric positive definite.
pub fn random_spd(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (nnz_per_row + 1) * 2);
    let mut row_sums = vec![0.0f64; n];
    for i in 0..n {
        for _ in 0..nnz_per_row {
            let j = rng.random_range(0..n);
            if j == i {
                continue;
            }
            let v: f64 = rng.random_range(-1.0..0.0);
            coo.push(i, j, v).expect("in bounds");
            coo.push(j, i, v).expect("in bounds");
            row_sums[i] += v.abs();
            row_sums[j] += v.abs();
        }
    }
    for (i, row_sum) in row_sums.iter().enumerate() {
        // Strictly dominant diagonal keeps the matrix SPD.
        coo.push(i, i, row_sum + 1.0 + rng.random_range(0.0..1.0))
            .expect("in bounds");
    }
    coo.to_csr()
        .expect("random_spd: n exceeds u32::MAX columns")
}

/// Builds a right-hand side `b = A·x_true` for a given "true" solution shape,
/// plus returns `x_true`. Useful for manufactured-solution tests.
///
/// `x_true` is drawn serially from `seed`. From 2^20 stored entries on, `b`
/// is multiplied by [`CsrMatrix::spmv_parallel`], which is bitwise equal to
/// [`CsrMatrix::spmv`].
pub fn manufactured_rhs(a: &CsrMatrix, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x_true: Vec<f64> = (0..a.cols()).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut b = vec![0.0; a.rows()];
    if a.nnz() >= PARALLEL_ASSEMBLY_ENTRIES {
        a.spmv_parallel(&x_true, &mut b);
    } else {
        a.spmv(&x_true, &mut b);
    }
    (x_true, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_2d_structure() {
        let a = poisson_2d(4);
        assert_eq!(a.rows(), 16);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 4), -1.0);
        assert_eq!(a.get(0, 5), 0.0);
        // Interior row has 5 entries.
        let (cols, _) = a.row(5);
        assert_eq!(cols.len(), 5);
    }

    #[test]
    fn poisson_3d_7pt_structure() {
        let a = poisson_3d_7pt(3);
        assert_eq!(a.rows(), 27);
        assert!(a.is_symmetric(0.0));
        // Center point has all 6 neighbours.
        let center = (3 + 1) * 3 + 1;
        let (cols, _) = a.row(center);
        assert_eq!(cols.len(), 7);
        assert_eq!(a.get(center, center), 6.0);
    }

    #[test]
    fn poisson_3d_27pt_structure() {
        let a = poisson_3d_27pt(3);
        assert_eq!(a.rows(), 27);
        assert!(a.is_symmetric(0.0));
        let center = (3 + 1) * 3 + 1;
        let (cols, vals) = a.row(center);
        assert_eq!(cols.len(), 27);
        assert_eq!(a.get(center, center), 26.0);
        let row_sum: f64 = vals.iter().sum();
        assert!(row_sum.abs() < 1e-12, "row sum of interior 27pt row is 0");
    }

    #[test]
    fn poisson_27pt_is_positive_definite_on_small_grid() {
        let a = poisson_3d_27pt(3);
        let dense = a.to_dense();
        assert!(dense.cholesky().is_ok());
    }

    #[test]
    fn anisotropic_is_spd() {
        let a = anisotropic_2d(8, 0.01);
        assert!(a.is_symmetric(1e-14));
        assert!(a.to_dense().cholesky().is_ok());
    }

    #[test]
    fn jump_coefficient_is_spd() {
        let a = jump_coefficient_2d(8, 1000.0);
        assert!(a.is_symmetric(1e-10));
        assert!(a.to_dense().cholesky().is_ok());
    }

    /// Builds an `n × n` 2-D stencil the way the generators used to: row
    /// by row through a `CooMatrix`, the diagonal first or last
    /// (`diagonal_first`) and the neighbours in the order i−1, i+1, j−1, j+1.
    fn unsorted_2d(
        n: usize,
        diagonal_first: bool,
        entry: impl Fn(usize, usize, &[(usize, usize)]) -> (f64, Vec<f64>),
    ) -> CsrMatrix {
        let mut coo = CooMatrix::new(n * n, n * n);
        for i in 0..n {
            for j in 0..n {
                let row = i * n + j;
                let mut nbrs = Vec::new();
                if i > 0 {
                    nbrs.push((i - 1, j));
                }
                if i + 1 < n {
                    nbrs.push((i + 1, j));
                }
                if j > 0 {
                    nbrs.push((i, j - 1));
                }
                if j + 1 < n {
                    nbrs.push((i, j + 1));
                }
                let (diag, offdiag) = entry(i, j, &nbrs);
                if diagonal_first {
                    coo.push(row, row, diag).unwrap();
                }
                for (&(ni, nj), &v) in nbrs.iter().zip(&offdiag) {
                    coo.push(row, ni * n + nj, v).unwrap();
                }
                if !diagonal_first {
                    coo.push(row, row, diag).unwrap();
                }
            }
        }
        coo.to_csr().unwrap()
    }

    /// The 3-D 7-point stencil in its former push order: diagonal, then
    /// i−1, i+1, j−1, j+1, k−1, k+1.
    fn unsorted_3d_7pt(n: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        let mut coo = CooMatrix::new(n * n * n, n * n * n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let row = idx(i, j, k);
                    coo.push(row, row, 6.0).unwrap();
                    for (near, col) in [
                        (i > 0, (i.wrapping_sub(1), j, k)),
                        (i + 1 < n, (i + 1, j, k)),
                        (j > 0, (i, j.wrapping_sub(1), k)),
                        (j + 1 < n, (i, j + 1, k)),
                        (k > 0, (i, j, k.wrapping_sub(1))),
                        (k + 1 < n, (i, j, k + 1)),
                    ] {
                        if near {
                            coo.push(row, idx(col.0, col.1, col.2), -1.0).unwrap();
                        }
                    }
                }
            }
        }
        coo.to_csr().unwrap()
    }

    /// The 27-point stencil as it was built before it was written straight
    /// into CSR: triplets pushed in (di, dj, dk) order through a `CooMatrix`.
    fn coo_3d_27pt(n: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        let near = |i: usize, d: usize| (i + d).checked_sub(1).filter(|&m| m < n);
        let mut coo = CooMatrix::new(n * n * n, n * n * n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let row = idx(i, j, k);
                    for di in 0..3 {
                        for dj in 0..3 {
                            for dk in 0..3 {
                                let (Some(ni), Some(nj), Some(nk)) =
                                    (near(i, di), near(j, dj), near(k, dk))
                                else {
                                    continue;
                                };
                                let col = idx(ni, nj, nk);
                                let value = if col == row { 26.0 } else { -1.0 };
                                coo.push(row, col, value).unwrap();
                            }
                        }
                    }
                }
            }
        }
        coo.to_csr().unwrap()
    }

    fn assert_same_bits(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: values");
    }

    #[test]
    fn stencils_in_column_order_match_the_sorted_build_bitwise() {
        for n in [1usize, 2, 3, 7, 64] {
            let poisson = unsorted_2d(n, true, |_, _, nbrs| (4.0, vec![-1.0; nbrs.len()]));
            assert_same_bits(&poisson_2d(n), &poisson, &format!("poisson_2d({n})"));
            assert_same_bits(
                &poisson_3d_7pt(n),
                &unsorted_3d_7pt(n),
                &format!("poisson_3d_7pt({n})"),
            );
            if n <= 7 {
                assert_same_bits(
                    &poisson_3d_27pt(n),
                    &coo_3d_27pt(n),
                    &format!("poisson_3d_27pt({n})"),
                );
            }
            for eps in [1.0, 0.01, 0.3, 1e-7] {
                let aniso = unsorted_2d(n, true, |i, _, nbrs| {
                    let offdiag = nbrs
                        .iter()
                        .map(|&(ni, _)| if ni != i { -1.0 } else { -eps })
                        .collect();
                    (2.0 + 2.0 * eps, offdiag)
                });
                assert_same_bits(
                    &anisotropic_2d(n, eps),
                    &aniso,
                    &format!("anisotropic_2d({n}, {eps})"),
                );
            }
            // Jumps at which the order of the diagonal sum changes its bits.
            for jump in [1.0, 1000.0, 0.1, 3.7, 1e-7, 1.0 / 7.0, 3.0001] {
                let coeff = |j: usize| if j >= n / 2 { jump } else { 1.0 };
                let jumped = unsorted_2d(n, false, |_, j, nbrs| {
                    let c = coeff(j);
                    let weights: Vec<f64> =
                        nbrs.iter().map(|&(_, nj)| 0.5 * (c + coeff(nj))).collect();
                    let mut diag = 0.0;
                    for w in &weights {
                        diag += w;
                    }
                    (diag + 0.5 * c, weights.iter().map(|w| -w).collect())
                });
                assert_same_bits(
                    &jump_coefficient_2d(n, jump),
                    &jumped,
                    &format!("jump_coefficient_2d({n}, {jump})"),
                );
            }
        }
    }

    #[test]
    fn stencils_are_bit_equal_in_any_number_of_row_blocks() {
        fn check<F: Fill>(stencil: Stencil<F>, what: &str) {
            let one = stencil.assemble(stencil.row_ptr(), 1);
            for blocks in [2, 3, 5] {
                let got = stencil.assemble(stencil.row_ptr(), blocks);
                assert_same_bits(&got, &one, &format!("{what} in {blocks} blocks"));
            }
        }
        for n in [1usize, 2, 3, 7, 17] {
            check(poisson_2d_stencil(n), &format!("poisson_2d({n})"));
            check(poisson_3d_7pt_stencil(n), &format!("poisson_3d_7pt({n})"));
            check(poisson_3d_27pt_stencil(n), &format!("poisson_3d_27pt({n})"));
            check(
                anisotropic_2d_stencil(n, 0.3),
                &format!("anisotropic_2d({n})"),
            );
            check(
                jump_coefficient_2d_stencil(n, 3.7),
                &format!("jump_coefficient_2d({n})"),
            );
        }
    }

    #[test]
    fn random_spd_is_spd() {
        let a = random_spd(60, 4, 42);
        assert!(a.is_symmetric(1e-12));
        assert!(a.to_dense().cholesky().is_ok());
    }

    #[test]
    fn random_spd_is_deterministic_per_seed() {
        let a = random_spd(40, 3, 7);
        let b = random_spd(40, 3, 7);
        assert_eq!(a, b);
        let c = random_spd(40, 3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn manufactured_rhs_is_consistent() {
        let a = poisson_2d(6);
        let (x_true, b) = manufactured_rhs(&a, 1);
        let mut ax = vec![0.0; a.rows()];
        a.spmv(&x_true, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert_eq!(u, v);
        }
    }
}
