//! Golden bit hashes of the stencil operators large enough to be assembled
//! in parallel row blocks, and of the manufactured right-hand side on the
//! paper's Figure 5 operator. Every hash is taken under pools of 1, 2 and 3
//! workers: the CSR arrays and `b` must not depend on how many threads
//! built them.

use feir_sparse::generators::{
    jump_coefficient_2d, manufactured_rhs, poisson_3d_27pt, poisson_3d_7pt,
};
use feir_sparse::CsrMatrix;

/// FNV-1a over 64-bit words: a hash whose value is fixed by this file, not
/// by the standard library's hasher.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The hash of `(row_ptr, col_idx, value bits)`.
fn csr_hash(a: &CsrMatrix) -> u64 {
    fnv1a(
        a.row_ptr()
            .iter()
            .map(|&p| p as u64)
            .chain(a.col_idx().iter().map(|&c| u64::from(c)))
            .chain(a.values().iter().map(|v| v.to_bits())),
    )
}

fn on_pools(mut check: impl FnMut(usize)) {
    for threads in [1, 2, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction failed");
        pool.install(|| check(threads));
    }
}

mod generators {
    use super::*;

    #[test]
    fn poisson_3d_27pt_56_and_its_rhs_keep_their_bits() {
        on_pools(|threads| {
            let a = poisson_3d_27pt(56);
            assert_eq!(a.nnz(), 4_574_296);
            assert_eq!(
                csr_hash(&a),
                0x0f4c_c59e_4159_8a1f,
                "27-point A, {threads} threads"
            );
            let (x, b) = manufactured_rhs(&a, 7);
            let hash = fnv1a(x.iter().chain(&b).map(|v| v.to_bits()));
            assert_eq!(
                hash, 0x9a0c_68bf_c328_1523,
                "27-point (x, b), {threads} threads"
            );
        });
    }

    #[test]
    fn jump_coefficient_2d_512_keeps_its_bits() {
        on_pools(|threads| {
            let a = jump_coefficient_2d(512, 3.7);
            assert_eq!(
                csr_hash(&a),
                0x2932_f42e_2e1a_bbe3,
                "jump_coefficient_2d, {threads} threads"
            );
        });
    }

    #[test]
    fn poisson_3d_7pt_64_keeps_its_bits() {
        on_pools(|threads| {
            let a = poisson_3d_7pt(64);
            assert_eq!(
                csr_hash(&a),
                0x71fc_d202_b939_5f28,
                "7-point, {threads} threads"
            );
        });
    }
}
