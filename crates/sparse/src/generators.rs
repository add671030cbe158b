//! Matrix generators: Poisson stencils, anisotropic and jump-coefficient
//! diffusion problems, and random diagonally-dominant SPD matrices.
//!
//! The paper evaluates on nine University-of-Florida SPD matrices and, for the
//! scaling study, on the 27-point stencil discretization of the 3-D Poisson
//! equation used by HPCG. These generators produce matrices with the same
//! structure so every experiment can run without external data.
//!
//! Every stencil generator writes its rows straight into the CSR arrays, each
//! in increasing column order: no triplet stage, no sort. [`random_spd`] sums
//! duplicates, so it goes through a [`CooMatrix`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::csr::narrow_col;
use crate::{CooMatrix, CsrMatrix};

/// Appends the rows of a square CSR matrix in order. Each row's columns are
/// pushed in increasing order, so [`CsrMatrix::from_raw`] sorts nothing.
struct RowWriter {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl RowWriter {
    /// A writer for a `size × size` matrix with at most `nnz` entries.
    fn new(size: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(size + 1);
        row_ptr.push(0);
        Self {
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    #[inline]
    fn push(&mut self, col: usize, value: f64) {
        self.col_idx.push(narrow_col(col));
        self.values.push(value);
    }

    fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    fn finish(self) -> CsrMatrix {
        let size = self.row_ptr.len() - 1;
        CsrMatrix::from_raw(size, size, self.row_ptr, self.col_idx, self.values)
            .expect("stencil columns are in bounds and fit a u32")
    }
}

/// 2-D 5-point Laplacian on an `n × n` grid (Dirichlet boundary), size `n²`.
pub fn poisson_2d(n: usize) -> CsrMatrix {
    let size = n * n;
    let mut csr = RowWriter::new(size, 5 * size);
    let idx = |i: usize, j: usize| i * n + j;
    for i in 0..n {
        for j in 0..n {
            let row = idx(i, j);
            if i > 0 {
                csr.push(idx(i - 1, j), -1.0);
            }
            if j > 0 {
                csr.push(idx(i, j - 1), -1.0);
            }
            csr.push(row, 4.0);
            if j + 1 < n {
                csr.push(idx(i, j + 1), -1.0);
            }
            if i + 1 < n {
                csr.push(idx(i + 1, j), -1.0);
            }
            csr.end_row();
        }
    }
    csr.finish()
}

/// 3-D 7-point Laplacian on an `n × n × n` grid (Dirichlet boundary), size `n³`.
pub fn poisson_3d_7pt(n: usize) -> CsrMatrix {
    let size = n * n * n;
    let mut csr = RowWriter::new(size, 7 * size);
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let row = idx(i, j, k);
                if i > 0 {
                    csr.push(idx(i - 1, j, k), -1.0);
                }
                if j > 0 {
                    csr.push(idx(i, j - 1, k), -1.0);
                }
                if k > 0 {
                    csr.push(idx(i, j, k - 1), -1.0);
                }
                csr.push(row, 6.0);
                if k + 1 < n {
                    csr.push(idx(i, j, k + 1), -1.0);
                }
                if j + 1 < n {
                    csr.push(idx(i, j + 1, k), -1.0);
                }
                if i + 1 < n {
                    csr.push(idx(i + 1, j, k), -1.0);
                }
                csr.end_row();
            }
        }
    }
    csr.finish()
}

/// 3-D 27-point stencil on an `n × n × n` grid — the HPCG-style discretization
/// used for the paper's scaling experiment (Figure 5).
///
/// The stencil has value 26 on the diagonal and −1 for each of the (up to) 26
/// neighbours, which is the standard HPCG operator.
pub fn poisson_3d_27pt(n: usize) -> CsrMatrix {
    let size = n * n * n;
    let mut csr = RowWriter::new(size, 27 * size);
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let row = idx(i, j, k);
                // The in-grid neighbours of each axis, in increasing order.
                let near = |m: usize| m.saturating_sub(1)..(m + 2).min(n);
                for ni in near(i) {
                    for nj in near(j) {
                        for nk in near(k) {
                            let col = idx(ni, nj, nk);
                            let value = if col == row { 26.0 } else { -1.0 };
                            csr.push(col, value);
                        }
                    }
                }
                csr.end_row();
            }
        }
    }
    csr.finish()
}

/// Anisotropic 2-D diffusion operator: the `x`-direction coupling is scaled by
/// `epsilon` (0 < ε ≤ 1). Small ε slows CG convergence, which is how the
/// proxy matrices reproduce the wide range of iteration counts of the paper's
/// test set.
pub fn anisotropic_2d(n: usize, epsilon: f64) -> CsrMatrix {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let size = n * n;
    let mut csr = RowWriter::new(size, 5 * size);
    let idx = |i: usize, j: usize| i * n + j;
    for i in 0..n {
        for j in 0..n {
            let row = idx(i, j);
            if i > 0 {
                csr.push(idx(i - 1, j), -1.0);
            }
            if j > 0 {
                csr.push(idx(i, j - 1), -epsilon);
            }
            csr.push(row, 2.0 + 2.0 * epsilon);
            if j + 1 < n {
                csr.push(idx(i, j + 1), -epsilon);
            }
            if i + 1 < n {
                csr.push(idx(i + 1, j), -1.0);
            }
            csr.end_row();
        }
    }
    csr.finish()
}

/// 2-D diffusion with a jump in the coefficient: the right half of the domain
/// has conductivity `jump` times the left half. Mimics the heterogeneous
/// material problems (thermal / thermomechanical families) in the paper's
/// matrix set.
pub fn jump_coefficient_2d(n: usize, jump: f64) -> CsrMatrix {
    assert!(jump > 0.0, "jump must be positive");
    let size = n * n;
    let mut csr = RowWriter::new(size, 5 * size);
    let idx = |i: usize, j: usize| i * n + j;
    let coeff = |_i: usize, j: usize| if j >= n / 2 { jump } else { 1.0 };
    for i in 0..n {
        for j in 0..n {
            let row = idx(i, j);
            let c = coeff(i, j);
            let weight = |ni: usize, nj: usize| 0.5 * (c + coeff(ni, nj));
            let up = (i > 0).then(|| weight(i - 1, j));
            let down = (i + 1 < n).then(|| weight(i + 1, j));
            let left = (j > 0).then(|| weight(i, j - 1));
            let right = (j + 1 < n).then(|| weight(i, j + 1));
            // The diagonal sums its weights in the order i−1, i+1, j−1, j+1,
            // not in push order: its rounding must not depend on the layout.
            let diag = [up, down, left, right]
                .into_iter()
                .flatten()
                .fold(0.0, |s, w| s + w);
            if let Some(w) = up {
                csr.push(idx(i - 1, j), -w);
            }
            if let Some(w) = left {
                csr.push(idx(i, j - 1), -w);
            }
            // Add a boundary contribution so the matrix is non-singular.
            csr.push(row, diag + 0.5 * c);
            if let Some(w) = right {
                csr.push(idx(i, j + 1), -w);
            }
            if let Some(w) = down {
                csr.push(idx(i + 1, j), -w);
            }
            csr.end_row();
        }
    }
    csr.finish()
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
pub fn manufactured_rhs(a: &CsrMatrix, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x_true: Vec<f64> = (0..a.cols()).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut b = vec![0.0; a.rows()];
    a.spmv(&x_true, &mut b);
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
