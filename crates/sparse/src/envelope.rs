//! Sparse Cholesky of a principal submatrix `A_RR`, for page repairs.
//!
//! The recovery relations solve `A_RR y = rhs` over the rows `R` of the lost
//! pages. For a stencil operator that block is far from dense — a 512-row
//! page of the 5-point Laplacian on a 128-wide grid is a 4 × 128 strip —
//! and the classic envelope method (George & Liu) makes its factor narrow:
//! number the block's graph by reverse Cuthill–McKee from a
//! pseudo-peripheral node and every nonzero of the factor lies within `bw`
//! of the diagonal, `bw` being the widest BFS level rather than the grid
//! width. [`EnvelopeCholesky`] builds the block's graph straight from the
//! CSR rows, orders it, and factors the lower band in `k × (bw + 1)`
//! doubles at `O(k · bw²)` instead of the dense `O(k³)`.
//!
//! The ordering is a pure function of the sparsity structure and the row
//! set (ties break on the local index, nothing iterates a hash table), and
//! the factor and solve accumulate in a fixed order, so equal inputs give
//! bit-identical outputs.

use crate::{CsrMatrix, SparseError};

/// Banded Cholesky factor `P A_RR Pᵀ = L Lᵀ` of the principal submatrix of a
/// sparse SPD matrix over a sorted row set `R`, with `P` the reverse
/// Cuthill–McKee ordering of the submatrix's graph.
#[derive(Debug, Clone)]
pub struct EnvelopeCholesky {
    /// `perm[new] = old`: local index (position in the row set) of the row
    /// eliminated at step `new`.
    perm: Vec<usize>,
    /// Half bandwidth of the permuted block.
    bw: usize,
    /// Lower band of `L`, row-major, `bw + 1` doubles per row with the
    /// diagonal last: `L[i][c]` lives at `i * (bw + 1) + c + bw - i`.
    l: Vec<f64>,
}

impl EnvelopeCholesky {
    /// Factorizes `A_RR` for the sorted global rows `rows` of `a`.
    ///
    /// # Errors
    /// [`SparseError::SingularPivot`] at the first non-positive or
    /// non-finite pivot — the block is not SPD; `pivot` is the position in
    /// `rows` of the row being eliminated.
    ///
    /// # Panics
    /// Panics if a row index lies outside the matrix.
    pub fn factorize(a: &CsrMatrix, rows: &[usize]) -> Result<Self, SparseError> {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
        let k = rows.len();

        // The block in local indices: entry `(j, v)` of row `i` is
        // `A[rows[i]][rows[j]]`, the diagonal included.
        let mut ptr = Vec::with_capacity(k + 1);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let position = row_position(rows);
        ptr.push(0);
        for &r in rows {
            let (cols, vals) = a.row(r);
            for (&c, v) in cols.iter().zip(vals) {
                if let Some(j) = position(c as usize) {
                    entries.push((j, *v));
                }
            }
            ptr.push(entries.len());
        }
        // Cuthill–McKee visits a node's neighbours by increasing degree (here
        // the row's entry count, diagonal included); sorting each row once up
        // front makes every search below do so.
        let degree: Vec<usize> = ptr.windows(2).map(|w| w[1] - w[0]).collect();
        for i in 0..k {
            entries[ptr[i]..ptr[i + 1]].sort_unstable_by_key(|&(j, _)| (degree[j], j));
        }

        let perm = reverse_cuthill_mckee(&ptr, &entries, &degree);
        let mut pos = vec![0; k];
        for (new, &old) in perm.iter().enumerate() {
            pos[old] = new;
        }
        let row = |i: usize| &entries[ptr[i]..ptr[i + 1]];
        let mut bw = 0;
        for i in 0..k {
            for &(j, _) in row(i) {
                bw = bw.max(pos[i].abs_diff(pos[j]));
            }
        }
        let w = bw + 1;
        let mut l = vec![0.0; k * w];
        for i in 0..k {
            for &(j, v) in row(i) {
                if pos[j] <= pos[i] {
                    l[pos[i] * w + pos[j] + bw - pos[i]] = v;
                }
            }
        }

        // Row-oriented Cholesky confined to the band: the same recurrence and
        // pivot rule as `dense::Cholesky`, with the structural zeros skipped.
        for (i, &old) in perm.iter().enumerate() {
            let (done, rest) = l.split_at_mut(i * w);
            let row_i = &mut rest[..w];
            let lo = i.saturating_sub(bw);
            let first = lo + bw - i;
            for j in lo..i {
                let n = j - lo;
                let row_j = &done[j * w..(j + 1) * w];
                let mut sum = row_i[first + n];
                for (u, v) in row_i[first..first + n].iter().zip(&row_j[bw - n..bw]) {
                    sum -= u * v;
                }
                row_i[first + n] = sum / row_j[bw];
            }
            let mut sum = row_i[bw];
            for u in &row_i[first..bw] {
                sum -= u * u;
            }
            if sum <= 0.0 || !sum.is_finite() {
                return Err(SparseError::SingularPivot { pivot: old });
            }
            row_i[bw] = sum.sqrt();
        }
        Ok(Self { perm, bw, l })
    }

    /// Number of rows of the factorized block.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Half bandwidth of the block under the ordering: every nonzero of the
    /// factor lies at most this far from the diagonal.
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    /// Solves `A_RR x = rhs`, both indexed by position in the row set.
    pub fn solve(&self, rhs: &[f64]) -> Vec<f64> {
        assert_eq!(rhs.len(), self.dim());
        let (bw, w) = (self.bw, self.bw + 1);
        let mut y: Vec<f64> = self.perm.iter().map(|&old| rhs[old]).collect();
        // Forward substitution L y = P rhs.
        for i in 0..y.len() {
            let lo = i.saturating_sub(bw);
            let row = &self.l[i * w..(i + 1) * w];
            let mut sum = y[i];
            for (u, v) in row[lo + bw - i..bw].iter().zip(&y[lo..i]) {
                sum -= u * v;
            }
            y[i] = sum / row[bw];
        }
        // Backward substitution Lᵀ z = y, column by column so that it too
        // walks the stored rows.
        for i in (0..y.len()).rev() {
            let lo = i.saturating_sub(bw);
            let row = &self.l[i * w..(i + 1) * w];
            let z = y[i] / row[bw];
            y[i] = z;
            for (u, v) in row[lo + bw - i..bw].iter().zip(&mut y[lo..i]) {
                *v -= u * z;
            }
        }
        let mut x = vec![0.0; y.len()];
        for (&old, z) in self.perm.iter().zip(y) {
            x[old] = z;
        }
        x
    }
}

/// Position of a global index within the sorted row set `rows`. When the
/// rows are one contiguous run — a single page, or a union of adjacent
/// pages — membership is a range test; otherwise a binary search. Both give
/// the same answer, so the choice never changes a result.
pub fn row_position(rows: &[usize]) -> impl Fn(usize) -> Option<usize> + '_ {
    let run = match (rows.first(), rows.last()) {
        (Some(&lo), Some(&hi)) if hi - lo + 1 == rows.len() => Some(lo),
        _ => None,
    };
    move |c| match run {
        Some(lo) => c.checked_sub(lo).filter(|&j| j < rows.len()),
        None => rows.binary_search(&c).ok(),
    }
}

/// Reverse Cuthill–McKee ordering of the graph whose node `i` has the
/// neighbours `entries[ptr[i]..ptr[i + 1]]`, each list sorted by
/// `(degree, index)` (self loops are ignored). Returns `perm` with
/// `perm[new] = old`. Components are taken in order of their lowest node,
/// each from a pseudo-peripheral start.
fn reverse_cuthill_mckee(ptr: &[usize], entries: &[(usize, f64)], degree: &[usize]) -> Vec<usize> {
    let k = degree.len();
    // `seen[v]` holds the stamp of the last search that reached `v`.
    let mut seen = vec![0usize; k];
    let mut stamp = 0;
    // Breadth-first search from `root`: the visit order — which *is* the
    // Cuthill–McKee numbering — and where its last level starts.
    let mut search = |root: usize, order: &mut Vec<usize>| -> (usize, usize) {
        stamp += 1;
        order.clear();
        order.push(root);
        seen[root] = stamp;
        let (mut depth, mut level_start) = (0, 0);
        loop {
            let level_end = order.len();
            for at in level_start..level_end {
                let v = order[at];
                for &(j, _) in &entries[ptr[v]..ptr[v + 1]] {
                    if seen[j] != stamp {
                        seen[j] = stamp;
                        order.push(j);
                    }
                }
            }
            if order.len() == level_end {
                return (depth, level_start);
            }
            depth += 1;
            level_start = level_end;
        }
    };

    let mut perm = Vec::with_capacity(k);
    let mut numbered = vec![false; k];
    let (mut order, mut trial) = (Vec::new(), Vec::new());
    for first in 0..k {
        if numbered[first] {
            continue;
        }
        // George & Liu's pseudo-peripheral search: move to the lowest-degree
        // node of the last level for as long as that deepens the level
        // structure.
        let (mut depth, mut last_level) = search(first, &mut order);
        loop {
            let far = *order[last_level..]
                .iter()
                .min_by_key(|&&v| (degree[v], v))
                .expect("a level structure has no empty level");
            let (trial_depth, trial_last_level) = search(far, &mut trial);
            if trial_depth <= depth {
                break;
            }
            std::mem::swap(&mut order, &mut trial);
            (depth, last_level) = (trial_depth, trial_last_level);
        }
        for &v in &order {
            numbered[v] = true;
        }
        perm.extend_from_slice(&order);
    }
    perm.reverse();
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{poisson_2d, poisson_3d_27pt, random_spd};
    use crate::{CooMatrix, DenseMatrix};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `A_RR` densified the way the recovery engine used to.
    fn dense_block(a: &CsrMatrix, rows: &[usize]) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows.len(), rows.len());
        for (i, &r) in rows.iter().enumerate() {
            let (cols, vals) = a.row(r);
            for (&c, v) in cols.iter().zip(vals) {
                if let Ok(j) = rows.binary_search(&(c as usize)) {
                    m.set(i, j, *v);
                }
            }
        }
        m
    }

    fn assert_matches_dense(a: &CsrMatrix, rows: &[usize]) {
        let rhs: Vec<f64> = (0..rows.len())
            .map(|i| (i as f64 * 0.37).sin() + 0.5)
            .collect();
        let expected = dense_block(a, rows).cholesky().unwrap().solve(&rhs);
        let got = EnvelopeCholesky::factorize(a, rows).unwrap().solve(&rhs);
        let scale = expected.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (u, v)) in got.iter().zip(&expected).enumerate() {
            assert!((u - v).abs() <= 1e-12 * scale, "entry {i}: {u} vs {v}");
        }
    }

    #[test]
    fn whole_pages_agree_with_the_dense_factor() {
        assert_matches_dense(&poisson_2d(128), &(512..1024).collect::<Vec<_>>());
        assert_matches_dense(&poisson_3d_27pt(16), &(1024..1536).collect::<Vec<_>>());
        // An unstructured operator: no ordering makes this block narrow.
        let dubcova = crate::proxies::PaperMatrix::Dubcova3.build(0.25);
        assert_matches_dense(&dubcova, &(512..1024).collect::<Vec<_>>());
    }

    #[test]
    fn two_disconnected_pages_are_ordered_component_by_component() {
        let a = poisson_2d(32);
        let rows: Vec<usize> = (64..128).chain(512..576).collect();
        assert_matches_dense(&a, &rows);
        let factor = EnvelopeCholesky::factorize(&a, &rows).unwrap();
        // Two 2 × 32 strips: each orders to bandwidth ≈ 2, and the second
        // component must not widen the band of the first.
        assert!(factor.bandwidth() <= 4, "bandwidth {}", factor.bandwidth());
    }

    #[test]
    fn empty_and_single_row_sets() {
        let a = poisson_2d(4);
        let empty = EnvelopeCholesky::factorize(&a, &[]).unwrap();
        assert_eq!((empty.dim(), empty.bandwidth()), (0, 0));
        assert!(empty.solve(&[]).is_empty());
        let one = EnvelopeCholesky::factorize(&a, &[5]).unwrap();
        assert_eq!((one.dim(), one.bandwidth()), (1, 0));
        assert_eq!(one.solve(&[2.0]), vec![0.5]);
    }

    #[test]
    fn indefinite_block_fails_where_the_dense_factor_fails() {
        // SPD apart from a negative diagonal entry in row 3.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, if i == 3 { -1.0 } else { 4.0 }).unwrap();
            if i + 1 < 6 {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csr().unwrap();
        for rows in [vec![0, 1, 2], vec![0, 1, 2, 3, 4, 5], vec![3], vec![4, 5]] {
            let dense = dense_block(&a, &rows).cholesky();
            let envelope = EnvelopeCholesky::factorize(&a, &rows);
            assert_eq!(dense.is_ok(), envelope.is_ok(), "rows {rows:?}");
            if let Err(e) = envelope {
                assert!(matches!(e, SparseError::SingularPivot { pivot } if pivot < rows.len()));
            }
        }
    }

    #[test]
    fn equal_inputs_give_bit_identical_outputs() {
        let a = poisson_2d(128);
        let rows: Vec<usize> = (7680..8704).collect();
        let rhs: Vec<f64> = (0..rows.len()).map(|i| (i as f64).cos()).collect();
        let first = EnvelopeCholesky::factorize(&a, &rows).unwrap();
        let second = EnvelopeCholesky::factorize(&a, &rows).unwrap();
        assert_eq!(first.perm, second.perm);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first.l), bits(&second.l));
        assert_eq!(bits(&first.solve(&rhs)), bits(&second.solve(&rhs)));
    }

    /// What the repair cost rests on: the ordering turns a page's grid-wide
    /// band into one as wide as the strip is thick.
    #[test]
    fn ordered_bandwidth_of_a_page_is_the_strip_thickness() {
        let bandwidth = |a: &CsrMatrix, rows: std::ops::Range<usize>| {
            EnvelopeCholesky::factorize(a, &rows.collect::<Vec<_>>())
                .unwrap()
                .bandwidth()
        };
        let a = poisson_2d(128);
        assert!(bandwidth(&a, 512..1024) <= 8);
        // The pair of pages either side of the 2-rank boundary (row 8192).
        assert!(bandwidth(&a, 7680..8704) <= 16);
        assert!(bandwidth(&poisson_3d_27pt(16), 512..1024) < 512 / 4);
    }

    #[test]
    fn row_position_is_a_range_test_on_a_run_and_a_search_otherwise() {
        let run: Vec<usize> = (10..20).collect();
        let position = row_position(&run);
        assert_eq!(
            (position(9), position(10), position(19), position(20)),
            (None, Some(0), Some(9), None)
        );
        let gaps = [3, 4, 9];
        let position = row_position(&gaps);
        assert_eq!(
            (position(4), position(5), position(9)),
            (Some(1), None, Some(2))
        );
        assert_eq!(row_position(&[])(0), None);
    }

    /// One of three operators of differing structure and a random sorted
    /// subset of its rows, each row kept with probability `density`.
    fn operator_and_rows(which: usize, seed: u64, density: f64) -> (CsrMatrix, Vec<usize>) {
        let a = match which {
            0 => poisson_2d(16),
            1 => poisson_3d_27pt(6),
            _ => random_spd(200, 4, seed),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..a.rows())
            .filter(|_| rng.random_range(0.0..1.0) < density)
            .collect();
        (a, rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_row_subsets_agree_with_the_dense_factor_and_repeat_bitwise(
            which in 0usize..3,
            seed in 0u64..1_000_000,
            density in 0.05f64..0.95,
        ) {
            let (a, rows) = operator_and_rows(which, seed, density);
            assert_matches_dense(&a, &rows);
            let rhs: Vec<f64> = (0..rows.len()).map(|i| (i as f64 * 0.11).cos()).collect();
            let solve = || EnvelopeCholesky::factorize(&a, &rows).unwrap().solve(&rhs);
            let (first, second) = (solve(), solve());
            prop_assert!(first.iter().zip(&second).all(|(u, v)| u.to_bits() == v.to_bits()));
        }

        #[test]
        fn a_negated_diagonal_fails_exactly_when_the_dense_factor_fails(
            which in 0usize..3,
            seed in 0u64..1_000_000,
            density in 0.05f64..0.95,
            negated in 0usize..200,
        ) {
            // Diagonally dominant with one negative diagonal entry: a row set
            // holding that row is indefinite, any other is SPD.
            let (a, rows) = operator_and_rows(which, seed, density);
            let mut values = a.values().to_vec();
            let diagonal = u32::try_from(negated).unwrap();
            let at = a.row_ptr()[negated] + a.row(negated).0.binary_search(&diagonal).unwrap();
            values[at] = -values[at];
            let a = CsrMatrix::from_raw(
                a.rows(),
                a.cols(),
                a.row_ptr().to_vec(),
                a.col_idx().to_vec(),
                values,
            )
            .unwrap();
            let dense = dense_block(&a, &rows).cholesky();
            let envelope = EnvelopeCholesky::factorize(&a, &rows);
            prop_assert_eq!(dense.is_ok(), envelope.is_ok());
            prop_assert_eq!(envelope.is_ok(), !rows.contains(&negated));
        }
    }
}
