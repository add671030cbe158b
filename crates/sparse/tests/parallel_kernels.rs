//! Parallel-kernel acceptance tests: `spmv_parallel` / `dot_parallel`
//! (1) match the serial kernels to round-off, (2) are bitwise-deterministic
//! across repeated runs and across thread counts, and (3) demonstrably
//! execute on more than one pool worker for large inputs.
//!
//! The container may expose a single hardware core, so every test builds its
//! pools explicitly with `ThreadPoolBuilder::num_threads` instead of relying
//! on `available_parallelism`.

use feir_sparse::generators::poisson_2d;
use feir_sparse::vecops;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction failed")
}

fn test_vectors(n: usize) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() / 5.0).collect();
    (x, y)
}

#[test]
fn dot_parallel_matches_serial_to_roundoff() {
    let (x, y) = test_vectors(100_000);
    let serial = vecops::dot(&x, &y);
    for threads in [1usize, 2, 8] {
        let parallel = pool(threads).install(|| vecops::dot_parallel(&x, &y));
        let tol = 1e-12 * serial.abs().max(1.0);
        assert!(
            (serial - parallel).abs() < tol,
            "threads={threads}: serial {serial} vs parallel {parallel}"
        );
    }
}

#[test]
fn dot_parallel_is_bitwise_deterministic_across_runs_and_thread_counts() {
    let (x, y) = test_vectors(150_000);
    // The documented contract: the left-to-right fold of fixed DOT_CHUNK
    // partial sums, independent of the pool.
    let reference: f64 = x
        .chunks(vecops::DOT_CHUNK)
        .zip(y.chunks(vecops::DOT_CHUNK))
        .map(|(xc, yc)| vecops::dot(xc, yc))
        .sum();
    for threads in [1usize, 2, 4, 8] {
        let p = pool(threads);
        for run in 0..5 {
            let value = p.install(|| vecops::dot_parallel(&x, &y));
            assert_eq!(
                value.to_bits(),
                reference.to_bits(),
                "threads={threads} run={run}"
            );
        }
    }
}

#[test]
fn spmv_parallel_is_bitwise_identical_to_serial_at_any_thread_count() {
    let a = poisson_2d(96); // 9216 rows: several chunks at every pool size
    let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64).sin()).collect();
    let mut serial = vec![0.0; a.rows()];
    a.spmv(&x, &mut serial);
    for threads in [1usize, 2, 8] {
        let p = pool(threads);
        for run in 0..3 {
            let mut parallel = vec![0.0; a.rows()];
            p.install(|| a.spmv_parallel(&x, &mut parallel));
            assert!(
                serial
                    .iter()
                    .zip(&parallel)
                    .all(|(s, q)| s.to_bits() == q.to_bits()),
                "threads={threads} run={run}: spmv_parallel diverged from serial"
            );
        }
    }
}

#[test]
fn axpy_and_xpay_parallel_are_bitwise_identical_to_serial() {
    let (x, base) = test_vectors(80_000);
    for threads in [1usize, 2, 8] {
        let p = pool(threads);
        let mut serial = base.clone();
        let mut parallel = base.clone();
        vecops::axpy(0.731, &x, &mut serial);
        p.install(|| vecops::axpy_parallel(0.731, &x, &mut parallel));
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(s, q)| s.to_bits() == q.to_bits()));

        let mut serial = base.clone();
        let mut parallel = base.clone();
        vecops::xpay(&x, -1.25, &mut serial);
        p.install(|| vecops::xpay_parallel(&x, -1.25, &mut parallel));
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(s, q)| s.to_bits() == q.to_bits()));
    }
}

/// Runs `kernel` repeatedly on a fresh 4-worker pool until at least two
/// distinct workers have executed jobs, and asserts that they did. The caller
/// parks while its chunks run, so every chunk executes on a pool worker; the
/// retry bounds scheduling noise on a single hardware core.
fn assert_runs_on_multiple_workers(name: &str, mut kernel: impl FnMut()) {
    let p = pool(4);
    let mut counts = Vec::new();
    for _ in 0..50 {
        p.install(&mut kernel);
        counts = p.job_counts();
        if counts.iter().filter(|&&c| c > 0).count() > 1 {
            break;
        }
    }
    let active = counts.iter().filter(|&&c| c > 0).count();
    assert!(
        active > 1,
        "{name}: expected chunks on >1 worker, job counts: {counts:?}"
    );
}

#[test]
fn spmv_executes_on_multiple_workers_for_large_inputs() {
    let a = poisson_2d(96);
    let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64).cos()).collect();
    let mut y = vec![0.0; a.rows()];
    assert_runs_on_multiple_workers("spmv_parallel", || {
        a.spmv_parallel(&x, &mut y);
        std::hint::black_box(&mut y);
    });
}

#[test]
fn dot_executes_on_multiple_workers_for_large_inputs() {
    // Isolated from spmv so a silently-sequential dot_parallel cannot hide
    // behind another kernel's pool jobs.
    let (u, v) = test_vectors(200_000);
    assert_runs_on_multiple_workers("dot_parallel", || {
        std::hint::black_box(vecops::dot_parallel(&u, &v));
    });
}

#[test]
fn axpy_executes_on_multiple_workers_for_large_inputs() {
    let (x, mut y) = test_vectors(200_000);
    assert_runs_on_multiple_workers("axpy_parallel", || {
        vecops::axpy_parallel(1.0000001, &x, &mut y);
        std::hint::black_box(&mut y);
    });
}

#[test]
fn norm_parallel_agrees_with_serial() {
    let (x, _) = test_vectors(64_000);
    let p = pool(3);
    let serial = vecops::norm2(&x);
    let parallel = p.install(|| vecops::norm2_parallel(&x));
    assert!((serial - parallel).abs() < 1e-12 * serial.max(1.0));
    let serial_sq = vecops::norm2_squared(&x);
    let parallel_sq = p.install(|| vecops::norm2_squared_parallel(&x));
    assert!((serial_sq - parallel_sq).abs() < 1e-11 * serial_sq.max(1.0));
}

// ----- fused-kernel acceptance (ISSUE 5) ------------------------------------
//
// Every fused kernel must be bitwise-identical to the unfused composition it
// replaces at 1, 2, 4 and 8 threads, and bitwise-identical across those
// thread counts. These are the guarantees that let the classic solver paths
// adopt the fused hot path without changing a single output bit.

#[test]
fn fused_kernels_are_bitwise_identical_to_unfused_across_thread_counts() {
    use feir_sparse::fused;

    let a = poisson_2d(72); // 5184 rows: above every serial gate.
    let n = a.rows();
    let (x, w) = test_vectors(n);
    let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).cos() * 2.0).collect();

    // Reference bits from the single-thread pool.
    let reference = pool(1).install(|| {
        let mut sy = vec![0.0; n];
        a.spmv_parallel(&x, &mut sy);
        let spmv_dot_ref = vecops::dot_parallel(&x, &sy);
        let mut ay = y0.clone();
        vecops::axpy_parallel(0.375, &x, &mut ay);
        let axpy_norm2_ref = vecops::norm2_squared_parallel(&ay);
        let dotn_ref = [vecops::dot_parallel(&x, &w), vecops::dot_parallel(&x, &x)];
        (sy, spmv_dot_ref, ay, axpy_norm2_ref, dotn_ref)
    });

    for threads in [1usize, 2, 4, 8] {
        let p = pool(threads);
        // spmv_dot vs spmv_parallel + dot_parallel.
        let (fused_y, fused_dot) = p.install(|| {
            let mut y = vec![0.0; n];
            let d = fused::spmv_dot_parallel(&a, &x, &mut y);
            (y, d)
        });
        assert_eq!(fused_y, reference.0, "spmv_dot y at {threads} threads");
        assert_eq!(
            fused_dot.to_bits(),
            reference.1.to_bits(),
            "spmv_dot at {threads} threads"
        );
        // axpy_norm2 vs axpy_parallel + norm2_squared_parallel.
        let (fused_ay, fused_norm) = p.install(|| {
            let mut y = y0.clone();
            let nrm = fused::axpy_norm2_parallel(0.375, &x, &mut y);
            (y, nrm)
        });
        assert_eq!(fused_ay, reference.2, "axpy_norm2 y at {threads} threads");
        assert_eq!(
            fused_norm.to_bits(),
            reference.3.to_bits(),
            "axpy_norm2 at {threads} threads"
        );
        // axpy_dot / xpay_dot vs their unfused pairs, inside the same pool.
        let (ad, xd, au, xu) = p.install(|| {
            let mut y = y0.clone();
            let ad = fused::axpy_dot_parallel(-0.25, &x, &mut y, &w);
            let mut y = y0.clone();
            let xd = fused::xpay_dot_parallel(&x, 1.5, &mut y, &w);
            let mut y = y0.clone();
            vecops::axpy_parallel(-0.25, &x, &mut y);
            let au = vecops::dot_parallel(&y, &w);
            let mut y = y0.clone();
            vecops::xpay_parallel(&x, 1.5, &mut y);
            let xu = vecops::dot_parallel(&y, &w);
            (ad, xd, au, xu)
        });
        assert_eq!(ad.to_bits(), au.to_bits(), "axpy_dot at {threads} threads");
        assert_eq!(xd.to_bits(), xu.to_bits(), "xpay_dot at {threads} threads");
        // dotn vs k separate dot_parallels.
        let folded = p.install(|| fused::dotn_parallel(&[(&x, &w), (&x, &x)]));
        assert_eq!(folded[0].to_bits(), reference.4[0].to_bits());
        assert_eq!(folded[1].to_bits(), reference.4[1].to_bits());
    }
}

// ----- SELL-C-σ format parity (ISSUE 9) -------------------------------------
//
// The SELL backend promises *bitwise* identity with CSR — not just to
// round-off — at every thread count. That promise is what lets the format
// auto-selector flip a solve to SELL without perturbing a single output bit
// (and what keeps the resilient engine's plain-vs-resilient identity tests
// meaningful regardless of the storage format in use).

#[test]
fn sell_spmv_is_bitwise_identical_to_csr_across_thread_counts() {
    use feir_sparse::SellMatrix;

    let a = poisson_2d(96); // 9216 rows: above every serial gate.
    let sell = SellMatrix::from_csr(&a);
    let x: Vec<f64> = (0..a.cols())
        .map(|i| (i as f64 * 0.23).sin() * 2.0)
        .collect();
    let mut csr_y = vec![0.0; a.rows()];
    a.spmv(&x, &mut csr_y);

    let mut sell_y = vec![0.0; a.rows()];
    sell.spmv(&x, &mut sell_y);
    assert!(
        csr_y
            .iter()
            .zip(&sell_y)
            .all(|(c, s)| c.to_bits() == s.to_bits()),
        "serial SELL spmv diverged from CSR"
    );

    for threads in [1usize, 2, 4, 8] {
        let p = pool(threads);
        for run in 0..3 {
            let mut y = vec![0.0; a.rows()];
            p.install(|| sell.spmv_parallel(&x, &mut y));
            assert!(
                csr_y
                    .iter()
                    .zip(&y)
                    .all(|(c, s)| c.to_bits() == s.to_bits()),
                "threads={threads} run={run}: SELL spmv_parallel diverged from CSR"
            );
        }
    }
}

#[test]
fn sell_fused_spmv_dot_is_bitwise_identical_to_csr_across_thread_counts() {
    use feir_sparse::{fused, SellMatrix};

    let a = poisson_2d(96);
    let sell = SellMatrix::from_csr(&a);
    let x: Vec<f64> = (0..a.cols())
        .map(|i| (i as f64 * 0.41).cos() * 3.0)
        .collect();

    let mut csr_y = vec![0.0; a.rows()];
    let csr_dot = fused::spmv_rows_dot(&a, 0, a.rows(), &x, &mut csr_y);

    let mut sell_y = vec![0.0; a.rows()];
    let sell_dot = sell.spmv_dot(&x, &mut sell_y);
    assert_eq!(sell_dot.to_bits(), csr_dot.to_bits(), "serial fused dot");
    assert!(csr_y
        .iter()
        .zip(&sell_y)
        .all(|(c, s)| c.to_bits() == s.to_bits()));

    // The parallel kernels fold per DOT_CHUNK (a different — but equally
    // deterministic — fold than the serial single-accumulator one), so the
    // parallel reference is CSR's parallel fused kernel in the same pool.
    for threads in [1usize, 2, 4, 8] {
        let p = pool(threads);
        let (y, d, ref_y, ref_d) = p.install(|| {
            let mut y = vec![0.0; a.rows()];
            let d = sell.spmv_dot_parallel(&x, &mut y);
            let mut ref_y = vec![0.0; a.rows()];
            let ref_d = fused::spmv_dot_parallel(&a, &x, &mut ref_y);
            (y, d, ref_y, ref_d)
        });
        assert_eq!(
            d.to_bits(),
            ref_d.to_bits(),
            "threads={threads}: SELL fused dot diverged from CSR"
        );
        assert!(
            ref_y
                .iter()
                .zip(&y)
                .all(|(c, s)| c.to_bits() == s.to_bits()),
            "threads={threads}: SELL fused y diverged from CSR"
        );
    }
}

#[test]
fn backend_dispatch_is_bitwise_identical_across_formats() {
    use feir_sparse::{SpmvBackend, SpmvFormat};

    let a = poisson_2d(80);
    let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.17).sin()).collect();
    let reference = {
        let op = SpmvBackend::with_format(&a, SpmvFormat::Csr);
        let mut y = vec![0.0; a.rows()];
        let d = op.spmv_dot(&a, &x, &mut y);
        (y, d)
    };
    for format in [SpmvFormat::Sell, SpmvFormat::Auto] {
        let op = SpmvBackend::with_format(&a, format);
        let mut y = vec![0.0; a.rows()];
        let d = op.spmv_dot(&a, &x, &mut y);
        assert_eq!(d.to_bits(), reference.1.to_bits(), "{format:?} fused dot");
        assert!(
            reference
                .0
                .iter()
                .zip(&y)
                .all(|(c, s)| c.to_bits() == s.to_bits()),
            "{format:?}: dispatched spmv_dot diverged from CSR"
        );
        let p = pool(4);
        let mut y = vec![0.0; a.rows()];
        p.install(|| op.spmv_parallel(&a, &x, &mut y));
        let mut csr_y = vec![0.0; a.rows()];
        p.install(|| a.spmv_parallel(&x, &mut csr_y));
        assert!(
            csr_y
                .iter()
                .zip(&y)
                .all(|(c, s)| c.to_bits() == s.to_bits()),
            "{format:?}: dispatched spmv_parallel diverged from CSR"
        );
    }
}

#[test]
fn dot_parallel_serial_gate_changes_scheduling_not_values() {
    // Above one DOT_CHUNK but below the parallel gate: the gated fast path
    // must still produce the chunk-ordered fold, at every pool size.
    let (x, y) = test_vectors(3 * vecops::DOT_CHUNK + 17);
    let reference = pool(1).install(|| vecops::dot_parallel(&x, &y));
    for threads in [2usize, 8] {
        let p = pool(threads);
        let gated = p.install(|| vecops::dot_parallel(&x, &y));
        assert_eq!(gated.to_bits(), reference.to_bits(), "{threads} threads");
    }
    // And the chunk fold is *not* the plain serial fold (the gate must not
    // silently change the reduction semantics).
    let plain = vecops::dot(&x, &y);
    assert!(
        plain.to_bits() != reference.to_bits() || (plain - reference).abs() == 0.0,
        "sanity: chunked and plain folds may only coincide by value"
    );
}
