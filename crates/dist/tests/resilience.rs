//! Integration tests of the distributed resilience subsystem: zero-fault
//! bitwise identity with the plain distributed CG, the full policy matrix
//! under injected DUEs, cross-boundary interpolation against the
//! shared-memory `BlockRecovery`, seeded per-rank fault streams, and the
//! worker throttle.

use std::time::{Duration, Instant};

use feir_dist::{
    distributed_cg, distributed_resilient_cg, distributed_resilient_pcg, spawn_workers_with,
    DistResilienceConfig, DistResilientSolver, DistSolver, ProcessSpec, ProtectedVector,
    ScriptedFault, Transport, WorkerOptions,
};
use feir_pagemem::FaultStream;
use feir_recovery::{BlockRecovery, CgRelations, RecoverableIteration, RecoveryPolicy};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::generators::{manufactured_rhs, poisson_2d};
use feir_sparse::CsrMatrix;

const TOL: f64 = 1e-10;

fn config(policy: RecoveryPolicy) -> DistResilienceConfig {
    DistResilienceConfig::for_policy(policy)
        .with_page_doubles(16)
        .with_tolerance(TOL)
        .with_max_iterations(20_000)
}

#[test]
fn zero_fault_run_is_bitwise_identical_to_distributed_cg() {
    let a = poisson_2d(14);
    let (_, b) = manufactured_rhs(&a, 11);
    for ranks in [1usize, 2, 3, 5] {
        let plain = distributed_cg(&a, &b, ranks, TOL, 20_000);
        for policy in [
            RecoveryPolicy::Ideal,
            RecoveryPolicy::Feir,
            RecoveryPolicy::Afeir,
            RecoveryPolicy::Trivial,
            RecoveryPolicy::TrivialReplace,
            RecoveryPolicy::Checkpoint { interval: 25 },
            RecoveryPolicy::LossyRestart,
        ] {
            let resilient = distributed_resilient_cg(&a, &b, ranks, config(policy));
            assert_eq!(
                resilient.iterations, plain.iterations,
                "{policy:?} at {ranks} ranks changed the iteration count"
            );
            assert_eq!(
                resilient.residual_history.len(),
                plain.residual_history.len(),
                "{policy:?} at {ranks} ranks changed the history length"
            );
            for (i, (u, v)) in resilient
                .residual_history
                .iter()
                .zip(&plain.residual_history)
                .enumerate()
            {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{policy:?} at {ranks} ranks: history[{i}] {u:e} != {v:e}"
                );
            }
            for (i, (u, v)) in resilient.x.iter().zip(&plain.x).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{policy:?} at {ranks} ranks: x[{i}] {u:e} != {v:e}"
                );
            }
            assert_eq!(resilient.faults.total_injected(), 0);
            assert_eq!(resilient.pages_recovered, 0);
            assert_eq!(resilient.cross_rank_values, 0);
        }
    }
}

/// Protection is free on the collective count: a fault-free protected
/// iteration carries its fault flag as a lane of the ε reduction, so it
/// enters exactly the plain loop's collectives — CG `⟨d,q⟩` and `ε`, PCG
/// also `⟨z,g⟩` — on top of the two opening ones (‖b‖ and the first ε).
#[test]
fn fault_free_protected_loops_enter_the_plain_collective_count() {
    let a = poisson_2d(14);
    let (_, b) = manufactured_rhs(&a, 11);
    for ranks in [1usize, 2, 4] {
        for policy in [
            RecoveryPolicy::Feir,
            RecoveryPolicy::Afeir,
            RecoveryPolicy::TrivialReplace,
            RecoveryPolicy::Checkpoint { interval: 5 },
            RecoveryPolicy::LossyRestart,
        ] {
            let cg = distributed_resilient_cg(&a, &b, ranks, config(policy));
            assert!(cg.converged, "{policy:?} cg at {ranks} ranks");
            assert_eq!(
                cg.allreduces,
                2 * cg.iterations as u64 + 2,
                "{policy:?} cg at {ranks} ranks: {} iterations",
                cg.iterations
            );
            let pcg = distributed_resilient_pcg(&a, &b, ranks, config(policy));
            assert!(pcg.converged, "{policy:?} pcg at {ranks} ranks");
            assert_eq!(
                pcg.allreduces,
                3 * pcg.iterations as u64 + 2,
                "{policy:?} pcg at {ranks} ranks: {} iterations",
                pcg.iterations
            );
        }
    }
}

/// A faulted iteration discards the flagged ε lane and reduces ε again over
/// the repaired residual: exactly one collective more than a fault-free
/// iteration, whether the lost page is the residual's or the iterate's.
#[test]
fn a_faulted_iteration_enters_exactly_one_extra_collective() {
    let a = poisson_2d(16);
    let (_, b) = manufactured_rhs(&a, 9);
    for vector in [ProtectedVector::G, ProtectedVector::X] {
        for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
            let fault = ScriptedFault {
                iteration: 5,
                rank: 1,
                vector,
                page: 3,
            };
            let report = distributed_resilient_cg(
                &a,
                &b,
                2,
                config(policy).with_scripted_faults(vec![fault]),
            );
            let label = format!("{policy:?} losing a {} page", vector.name());
            assert!(report.converged, "{label}");
            assert_eq!(
                (
                    report.pages_recovered,
                    report.pages_ignored,
                    report.pages_coupled
                ),
                (1, 0, 0),
                "{label}"
            );
            assert_eq!(
                report.allreduces,
                2 * report.iterations as u64 + 2 + 1,
                "{label}: {} iterations",
                report.iterations
            );
        }
    }
}

/// Scripted DUEs on the direction and matvec product: every policy in the
/// matrix must still converge to tolerance (these losses perturb the Krylov
/// space but never break the `g = b − A·x` invariant).
#[test]
fn policy_matrix_converges_under_scripted_dues() {
    let a = poisson_2d(15);
    let (x_true, b) = manufactured_rhs(&a, 4);
    let ranks = 3;
    let faults = vec![
        ScriptedFault {
            iteration: 3,
            rank: 0,
            vector: ProtectedVector::D,
            page: 1,
        },
        ScriptedFault {
            iteration: 6,
            rank: 2,
            vector: ProtectedVector::Q,
            page: 0,
        },
        ScriptedFault {
            iteration: 9,
            rank: 1,
            vector: ProtectedVector::D,
            page: 2,
        },
    ];
    let ideal = distributed_resilient_cg(&a, &b, ranks, config(RecoveryPolicy::Ideal));
    assert!(ideal.converged);
    for policy in [
        RecoveryPolicy::Feir,
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Trivial,
        RecoveryPolicy::TrivialReplace,
        RecoveryPolicy::Checkpoint { interval: 4 },
        RecoveryPolicy::LossyRestart,
    ] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(
            report.converged,
            "{policy:?} did not converge: residual {}",
            report.relative_residual
        );
        assert_eq!(report.faults.total_injected(), 3, "{policy:?}");
        assert!(report.faults.total_discovered() >= 1, "{policy:?}");
        assert_eq!(report.faults.faulty_ranks(), 3, "{policy:?}");
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "{policy:?}: solution error {err}");
        match policy {
            RecoveryPolicy::Feir | RecoveryPolicy::Afeir => {
                assert!(report.pages_recovered >= 3, "{policy:?} recovered nothing");
                // Exact forward recovery must not disturb convergence.
                assert!(
                    report.iterations <= ideal.iterations + 2,
                    "{policy:?}: {} vs ideal {}",
                    report.iterations,
                    ideal.iterations
                );
            }
            RecoveryPolicy::Checkpoint { .. } => {
                assert!(report.rollbacks >= 1, "checkpoint policy never rolled back")
            }
            RecoveryPolicy::LossyRestart => {
                assert!(report.restarts >= 1, "lossy policy never restarted")
            }
            RecoveryPolicy::TrivialReplace => {
                // The hybrid blank-accepts like Trivial but repairs the
                // residual invariant, so it both restarts and keeps the
                // convergence guarantee.
                assert!(report.restarts >= 1, "triv+rr never restarted");
                assert!(report.pages_ignored >= 3, "triv+rr must blank-accept");
            }
            _ => {}
        }
    }
}

/// Losing iterate and residual pages exercises the cross-rank recovery
/// protocol: the interpolation of a boundary page needs x entries owned by
/// the neighbouring rank, which are only reachable through the
/// `RankComm::recovery_exchange` request/reply round.
#[test]
fn feir_and_afeir_recover_iterate_losses_across_rank_boundaries() {
    let a = poisson_2d(16);
    let (x_true, b) = manufactured_rhs(&a, 9);
    let ranks = 2;
    // Page 0 of rank 1's x spans the first rows it owns: its 5-point stencil
    // reaches into rank 0's rows, so the recovery must fetch across the
    // boundary.
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 1,
            vector: ProtectedVector::X,
            page: 0,
        },
        ScriptedFault {
            iteration: 8,
            rank: 0,
            vector: ProtectedVector::G,
            page: 7,
        },
    ];
    let ideal = distributed_resilient_cg(&a, &b, ranks, config(RecoveryPolicy::Ideal));
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(report.converged, "{policy:?} did not converge");
        assert!(
            report.iterations <= ideal.iterations + 2,
            "{policy:?}: exact recovery changed convergence ({} vs {})",
            report.iterations,
            ideal.iterations
        );
        assert!(report.pages_recovered >= 2, "{policy:?}");
        assert!(
            report.cross_rank_values > 0,
            "{policy:?} never used the cross-rank recovery protocol"
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "{policy:?}: solution error {err}");
    }
}

/// The cross-rank row recovery must agree with the shared-memory
/// `BlockRecovery` interpolation to round-off on an aligned partition.
#[test]
fn cross_boundary_interpolation_matches_shared_memory_block_recovery() {
    let a = poisson_2d(16); // n = 256
    let n = a.rows();
    let block_size = 32;
    // With 2 ranks the boundary sits at row 128, which is block-aligned, so
    // global block 4 (rows 128..160) is exactly rank 1's first local page and
    // its stencil crosses the rank boundary.
    let partition = BlockPartition::new(n, block_size);
    let recovery = BlockRecovery::new(&a, partition, true);
    let (x_exact, b) = manufactured_rhs(&a, 3);
    // A partially converged iterate with a consistent residual g = b − A·x.
    let x: Vec<f64> = x_exact
        .iter()
        .enumerate()
        .map(|(i, v)| v + 0.01 * ((i * 13 % 7) as f64 - 3.0))
        .collect();
    let mut g = vec![0.0; n];
    a.spmv(&x, &mut g);
    for (gi, bi) in g.iter_mut().zip(&b) {
        *gi = bi - *gi;
    }
    let block = 4;
    let range = partition.range(block);
    let rows: Vec<usize> = range.clone().collect();

    // Iterate recovery: blank the block, recover through both paths.
    let mut damaged = x.clone();
    for v in &mut damaged[range.clone()] {
        *v = 0.0;
    }
    let mut shared = vec![0.0; range.len()];
    assert!(recovery.recover_iterate_rhs(&a, &b, &g, &damaged, block, &mut shared));
    let g_at_rows: Vec<f64> = range.clone().map(|r| g[r]).collect();
    let dist = CgRelations::new(&a, &b)
        .reconstruct_iterate(&rows, &g_at_rows, &damaged)
        .expect("cross-rank iterate recovery failed");
    for (k, r) in range.clone().enumerate() {
        assert!(
            (dist[k] - shared[k]).abs() <= 1e-10 * (1.0 + shared[k].abs()),
            "row {r}: distributed {} vs shared-memory {}",
            dist[k],
            shared[k]
        );
        assert!(
            (dist[k] - x[r]).abs() < 1e-8,
            "row {r}: recovered {} vs true {}",
            dist[k],
            x[r]
        );
    }

    // Direction recovery: same comparison through the inverse matvec
    // relation q = A·d.
    let d = x_exact.clone();
    let mut q = vec![0.0; n];
    a.spmv(&d, &mut q);
    let mut d_damaged = d.clone();
    for v in &mut d_damaged[range.clone()] {
        *v = f64::NAN; // recovery must not read the lost block
    }
    let mut shared_d = vec![0.0; range.len()];
    assert!(recovery.recover_matvec_rhs(&a, &q, &d_damaged, block, &mut shared_d));
    let q_at_rows: Vec<f64> = range.clone().map(|r| q[r]).collect();
    let dist_d = CgRelations::new(&a, &b)
        .reconstruct_direction(&rows, &q_at_rows, &d_damaged)
        .expect("cross-rank direction recovery failed");
    for (k, r) in range.clone().enumerate() {
        assert!(
            (dist_d[k] - shared_d[k]).abs() <= 1e-10 * (1.0 + shared_d[k].abs()),
            "row {r}: distributed {} vs shared-memory {}",
            dist_d[k],
            shared_d[k]
        );
    }
}

/// Simultaneous losses spanning several pages of one rank go through the
/// coupled multi-row solve and still recover exactly.
#[test]
fn coupled_multi_page_recovery_is_exact() {
    let a = poisson_2d(16);
    let n = a.rows();
    let partition = BlockPartition::new(n, 32);
    let (x_exact, b) = manufactured_rhs(&a, 21);
    let x: Vec<f64> = x_exact.iter().map(|v| 0.93 * v + 0.01).collect();
    let mut g = vec![0.0; n];
    a.spmv(&x, &mut g);
    for (gi, bi) in g.iter_mut().zip(&b) {
        *gi = bi - *gi;
    }
    // Two adjacent blocks lost at once.
    let rows: Vec<usize> = partition.range(2).chain(partition.range(3)).collect();
    let mut damaged = x.clone();
    for &r in &rows {
        damaged[r] = 0.0;
    }
    let g_at_rows: Vec<f64> = rows.iter().map(|&r| g[r]).collect();
    let recovered = CgRelations::new(&a, &b)
        .reconstruct_iterate(&rows, &g_at_rows, &damaged)
        .expect("coupled recovery failed");
    for (k, &r) in rows.iter().enumerate() {
        assert!(
            (recovered[k] - x[r]).abs() < 1e-8,
            "row {r}: {} vs {}",
            recovered[k],
            x[r]
        );
    }
}

/// Seeded per-rank fault streams (the paper's exponential error process on
/// the iteration clock) against AFEIR on 3 ranks: the solve converges, the
/// faults are attributed per rank, and the same seed replays bit for bit —
/// iterate, residual history and page counters.
#[test]
fn seeded_fault_streams_replay_bit_for_bit_per_rank() {
    let a = poisson_2d(20);
    let (_, b) = manufactured_rhs(&a, 2);
    let ranks = 3;
    let stream = FaultStream {
        seed: 77,
        mean_iterations: 15.0,
    };
    let solve = || {
        DistResilientSolver::new(DistSolver::Cg, &a, &b, ranks, config(RecoveryPolicy::Afeir))
            .with_fault_stream(&stream)
            .solve()
    };
    let report = solve();
    assert!(
        report.converged,
        "AFEIR failed to converge under the fault streams: residual {}",
        report.relative_residual
    );
    assert_eq!(report.faults.per_rank.len(), ranks);
    assert!(report.faults.faulty_ranks() > 1, "{:?}", report.faults);
    assert!(report.faults.total_discovered() <= report.faults.total_injected());
    let per_rank_sum: usize = report.faults.per_rank.iter().map(|s| s.injected).sum();
    assert_eq!(per_rank_sum, report.faults.total_injected());

    let again = solve();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.x), bits(&again.x));
    assert_eq!(
        bits(&report.residual_history),
        bits(&again.residual_history)
    );
    assert_eq!(report.faults, again.faults);
    assert_eq!(
        (
            report.pages_recovered,
            report.pages_ignored,
            report.pages_coupled
        ),
        (
            again.pages_recovered,
            again.pages_ignored,
            again.pages_coupled
        )
    );
}

/// The throttle sleeps at the top of every iteration of both rank loops: a
/// throttled worker solve takes at least iterations × throttle, protected
/// or not.
#[test]
fn throttled_worker_solves_sleep_every_iteration() {
    let throttle = Duration::from_millis(3);
    let inputs = [
        (DistSolver::CgMerged, Some(RecoveryPolicy::Feir)),
        (DistSolver::Cg, None),
    ];
    for (i, (solver, policy)) in inputs.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("feir-throttle-{}-{i}", std::process::id()));
        let spec = ProcessSpec {
            solver,
            ..ProcessSpec::cg(8, 2)
        };
        let options = WorkerOptions {
            policy,
            throttle: Some(throttle),
            ..WorkerOptions::default()
        };
        let worker = std::path::Path::new(env!("CARGO_BIN_EXE_feir-rank-worker"));
        let start = Instant::now();
        let solve = spawn_workers_with(worker, &spec, &Transport::Uds { dir }, &options)
            .and_then(|handles| handles.join())
            .expect("throttled solve failed");
        let elapsed = start.elapsed();
        assert!(solve.converged, "{solver:?} under {policy:?}");
        assert!(
            elapsed >= throttle * solve.iterations as u32,
            "{solver:?} under {policy:?}: {} iterations in {elapsed:?}",
            solve.iterations
        );
    }
}

/// A heavier deterministic storm: several pages of every vector across every
/// rank, forward policies must still converge with exact accuracy.
#[test]
fn feir_survives_a_multi_vector_fault_storm() {
    let a = poisson_2d(15);
    let (x_true, b) = manufactured_rhs(&a, 6);
    let ranks = 3;
    let mut faults = Vec::new();
    for (i, vector) in [
        ProtectedVector::X,
        ProtectedVector::G,
        ProtectedVector::D,
        ProtectedVector::Q,
    ]
    .into_iter()
    .enumerate()
    {
        for rank in 0..ranks {
            faults.push(ScriptedFault {
                iteration: 2 + 3 * i + rank,
                rank,
                vector,
                page: rank % 3,
            });
        }
    }
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(report.converged, "{policy:?} did not converge");
        assert_eq!(report.faults.faulty_ranks(), ranks);
        assert!(report.pages_recovered >= 8, "{policy:?}");
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "{policy:?}: solution error {err}");
    }
}

/// Sanity: a singular-free matrix and a fault on the very first iteration
/// (the blank *is* the correct initial state).
#[test]
fn faults_before_and_at_iteration_zero_are_harmless() {
    let a: CsrMatrix = poisson_2d(10);
    let (_, b) = manufactured_rhs(&a, 1);
    let solver = DistResilientSolver::new(DistSolver::Cg, &a, &b, 2, config(RecoveryPolicy::Feir));
    // Pre-solve injection into x and d of rank 0.
    let registry = solver.domains().registry(0);
    registry.inject(ProtectedVector::X.id(), 0);
    registry.inject(ProtectedVector::D.id(), 1);
    let report = solver.solve();
    assert!(report.converged);
    let with_t0 = distributed_resilient_cg(
        &a,
        &b,
        2,
        config(RecoveryPolicy::Afeir).with_scripted_faults(vec![ScriptedFault {
            iteration: 0,
            rank: 1,
            vector: ProtectedVector::D,
            page: 0,
        }]),
    );
    assert!(with_t0.converged);
}

// ---- PR 4: the engine-based PCG instantiation and split-phase AFEIR -------

#[test]
fn zero_fault_pcg_run_is_bitwise_identical_to_distributed_pcg() {
    let a = poisson_2d(14);
    let (_, b) = manufactured_rhs(&a, 8);
    for ranks in [1usize, 2, 4] {
        let plain = feir_dist::distributed_pcg(&a, &b, ranks, 16, TOL, 20_000);
        assert!(plain.converged(), "plain PCG at {ranks} ranks");
        for policy in [
            RecoveryPolicy::Ideal,
            RecoveryPolicy::Feir,
            RecoveryPolicy::Afeir,
            RecoveryPolicy::Trivial,
            RecoveryPolicy::TrivialReplace,
            RecoveryPolicy::Checkpoint { interval: 25 },
            RecoveryPolicy::LossyRestart,
        ] {
            let resilient = feir_dist::distributed_resilient_pcg(&a, &b, ranks, config(policy));
            assert_eq!(resilient.solver, "pcg");
            assert_eq!(
                resilient.iterations, plain.iterations,
                "{policy:?} at {ranks} ranks changed the PCG iteration count"
            );
            assert_eq!(
                resilient.residual_history.len(),
                plain.residual_history.len(),
                "{policy:?} at {ranks} ranks changed the history length"
            );
            for (i, (u, v)) in resilient
                .residual_history
                .iter()
                .zip(&plain.residual_history)
                .enumerate()
            {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{policy:?} at {ranks} ranks: history[{i}] {u:e} != {v:e}"
                );
            }
            for (i, (u, v)) in resilient.x.iter().zip(&plain.x).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{policy:?} at {ranks} ranks: x[{i}] {u:e} != {v:e}"
                );
            }
            assert_eq!(resilient.faults.total_injected(), 0);
            assert_eq!(resilient.pages_recovered, 0);
            assert_eq!(resilient.cross_rank_values, 0);
        }
    }
}

/// Scripted DUEs across every protected vector of the PCG — including the
/// preconditioned residual `z`, recovered by re-solving the block-Jacobi
/// coupled system — must leave FEIR/AFEIR converging to the same tolerance
/// as the fault-free run with undisturbed convergence.
#[test]
fn pcg_policy_matrix_converges_under_scripted_dues() {
    let a = poisson_2d(15);
    let (x_true, b) = manufactured_rhs(&a, 13);
    let ranks = 3;
    let faults = vec![
        ScriptedFault {
            iteration: 2,
            rank: 0,
            vector: ProtectedVector::D,
            page: 1,
        },
        ScriptedFault {
            iteration: 4,
            rank: 1,
            vector: ProtectedVector::Z,
            page: 0,
        },
        ScriptedFault {
            iteration: 6,
            rank: 2,
            vector: ProtectedVector::X,
            page: 0,
        },
        ScriptedFault {
            iteration: 8,
            rank: 1,
            vector: ProtectedVector::G,
            page: 2,
        },
    ];
    let ideal = feir_dist::distributed_resilient_pcg(&a, &b, ranks, config(RecoveryPolicy::Ideal));
    assert!(ideal.converged);
    for policy in [
        RecoveryPolicy::Feir,
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Trivial,
        RecoveryPolicy::TrivialReplace,
        RecoveryPolicy::Checkpoint { interval: 4 },
        RecoveryPolicy::LossyRestart,
    ] {
        let report = feir_dist::distributed_resilient_pcg(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert_eq!(report.faults.total_injected(), 4, "{policy:?}");
        if policy == RecoveryPolicy::Trivial {
            // Blanking an iterate page breaks the g = b − A·x invariant:
            // trivial recovery loses its convergence guarantee (Section 4.1)
            // but must stay finite and terminate.
            assert!(report.x.iter().all(|v| v.is_finite()), "trivial PCG NaN");
            continue;
        }
        assert!(
            report.converged,
            "PCG {policy:?} did not converge: residual {}",
            report.relative_residual
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "PCG {policy:?}: solution error {err}");
        if policy.is_forward_exact() {
            assert!(report.pages_recovered >= 4, "{policy:?} recovered too few");
            // Exact forward recovery must not disturb convergence: same
            // tolerance, essentially the fault-free iteration count.
            assert!(
                report.iterations <= ideal.iterations + 2,
                "PCG {policy:?}: {} vs ideal {}",
                report.iterations,
                ideal.iterations
            );
        }
    }
}

/// A cross-boundary iterate loss under PCG exercises the same request/reply
/// protocol as CG: the engine relations are solver-agnostic.
#[test]
fn pcg_recovers_iterate_losses_across_rank_boundaries() {
    let a = poisson_2d(16);
    let (_, b) = manufactured_rhs(&a, 5);
    let faults = vec![ScriptedFault {
        iteration: 4,
        rank: 1,
        vector: ProtectedVector::X,
        page: 0,
    }];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = feir_dist::distributed_resilient_pcg(
            &a,
            &b,
            2,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(report.converged, "{policy:?}");
        assert!(
            report.cross_rank_values > 0,
            "{policy:?} never fetched across the rank boundary"
        );
    }
}

/// The paper's configuration: block-Jacobi PCG on `poisson_2d(128)` at 2
/// ranks with 512-double pages, so each preconditioner block is one page
/// and its factor is the one a page repair builds. FEIR must repair losses
/// on every protected vector — including a coupled `x` pair flanking the
/// rank boundary — and converge within one iteration of the fault-free run.
#[test]
fn paper_configuration_pcg_feir_repairs_page_sized_dues() {
    let a = poisson_2d(128);
    let (x_true, b) = manufactured_rhs(&a, 3);
    let paper = |policy| config(policy).with_page_doubles(feir_sparse::PAGE_DOUBLES);
    let fault = |iteration, rank, vector, page| ScriptedFault {
        iteration,
        rank,
        vector,
        page,
    };
    let faults = vec![
        fault(5, 0, ProtectedVector::D, 3),
        fault(10, 1, ProtectedVector::Z, 7),
        fault(15, 0, ProtectedVector::X, 15),
        fault(15, 1, ProtectedVector::X, 0),
        fault(20, 1, ProtectedVector::G, 12),
    ];
    let ideal = distributed_resilient_pcg(&a, &b, 2, paper(RecoveryPolicy::Ideal));
    assert!(ideal.converged);
    let report = distributed_resilient_pcg(
        &a,
        &b,
        2,
        paper(RecoveryPolicy::Feir).with_scripted_faults(faults),
    );
    assert_eq!(report.faults.total_injected(), 5);
    assert!(report.converged, "residual {}", report.relative_residual);
    assert_eq!(report.pages_ignored, 0, "a page was blank-accepted");
    assert_eq!(report.pages_coupled, 2, "the boundary pair was not coupled");
    assert!(
        report.cross_rank_values > 0,
        "never fetched across the boundary"
    );
    assert!(
        report.iterations <= ideal.iterations + 1,
        "{} iterations vs ideal {}",
        report.iterations,
        ideal.iterations
    );
    let err: f64 = report
        .x
        .iter()
        .zip(&x_true)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    assert!(err < 1e-6, "solution error {err}");
}

/// The engine-based loop (and the split-phase AFEIR overlap) must be exactly
/// reproducible: the same scripted faults give bit-for-bit the same solve,
/// run after run — the property the policy-matrix experiments rely on.
#[test]
fn engine_based_solvers_are_bitwise_deterministic_under_scripted_faults() {
    let a = poisson_2d(13);
    let (_, b) = manufactured_rhs(&a, 6);
    let ranks = 3;
    let faults = vec![
        ScriptedFault {
            iteration: 3,
            rank: 0,
            vector: ProtectedVector::X,
            page: 1,
        },
        ScriptedFault {
            iteration: 5,
            rank: 2,
            vector: ProtectedVector::G,
            page: 0,
        },
        ScriptedFault {
            iteration: 7,
            rank: 1,
            vector: ProtectedVector::D,
            page: 2,
        },
    ];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let run_cg = || {
            distributed_resilient_cg(
                &a,
                &b,
                ranks,
                config(policy).with_scripted_faults(faults.clone()),
            )
        };
        let first = run_cg();
        let second = run_cg();
        assert!(first.converged, "{policy:?}");
        assert_eq!(first.iterations, second.iterations, "{policy:?}");
        assert_eq!(first.pages_recovered, second.pages_recovered);
        for (u, v) in first.x.iter().zip(&second.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "{policy:?} x not reproducible");
        }
        for (u, v) in first.residual_history.iter().zip(&second.residual_history) {
            assert_eq!(u.to_bits(), v.to_bits(), "{policy:?} history differs");
        }
        let run_pcg = || {
            feir_dist::distributed_resilient_pcg(
                &a,
                &b,
                ranks,
                config(policy).with_scripted_faults(faults.clone()),
            )
        };
        let p1 = run_pcg();
        let p2 = run_pcg();
        assert!(p1.converged, "PCG {policy:?}");
        for (u, v) in p1.x.iter().zip(&p2.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "PCG {policy:?} not reproducible");
        }
    }
}

/// More ranks than cores: eight rank threads on this machine's (or CI's one
/// pinned) core wait on each other through the spin → yield → park
/// discipline of the in-process collectives. How a wait passes its time must
/// not reach the arithmetic — two runs are bit-equal — and a waiting rank must
/// hand its core to the rank it waits for, so the solves finish well inside a
/// bound a busy-polling mesh would miss by orders of magnitude.
#[test]
fn oversubscribed_ranks_stay_bitwise_deterministic_and_quick() {
    let a = poisson_2d(32);
    let (_, b) = manufactured_rhs(&a, 4);
    let ranks = 8;
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 6,
            vector: ProtectedVector::X,
            page: 3,
        },
        ScriptedFault {
            iteration: 9,
            rank: 0,
            vector: ProtectedVector::D,
            page: 7,
        },
        ScriptedFault {
            iteration: 9,
            rank: 3,
            vector: ProtectedVector::G,
            page: 0,
        },
    ];
    let started = std::time::Instant::now();
    let run = || {
        distributed_resilient_cg(
            &a,
            &b,
            ranks,
            config(RecoveryPolicy::Afeir).with_scripted_faults(faults.clone()),
        )
    };
    let first = run();
    let second = run();
    let elapsed = started.elapsed();
    assert!(first.converged);
    assert_eq!(first.faults.total_injected(), 3);
    assert_eq!(first.iterations, second.iterations);
    assert_eq!(first.pages_recovered, second.pages_recovered);
    for (u, v) in first.x.iter().zip(&second.x) {
        assert_eq!(u.to_bits(), v.to_bits(), "x not reproducible");
    }
    for (u, v) in first.residual_history.iter().zip(&second.residual_history) {
        assert_eq!(u.to_bits(), v.to_bits(), "history differs");
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "two 8-rank solves took {elapsed:?}"
    );
}

/// A scripted fault against `z` on the plain CG solver (which has no `z`)
/// must be rejected loudly instead of silently never firing.
#[test]
#[should_panic(expected = "does not protect")]
fn z_faults_are_rejected_by_the_unpreconditioned_solver() {
    let a = poisson_2d(8);
    let (_, b) = manufactured_rhs(&a, 1);
    let _ = distributed_resilient_cg(
        &a,
        &b,
        2,
        config(RecoveryPolicy::Feir).with_scripted_faults(vec![ScriptedFault {
            iteration: 0,
            rank: 0,
            vector: ProtectedVector::Z,
            page: 0,
        }]),
    );
}

/// A DUE on the preconditioned residual must not be a free exact recovery
/// for the baseline policies: checkpoint rolls back, trivial blank-accepts,
/// while FEIR re-solves the block system in place with no lost iterations.
#[test]
fn z_faults_pay_each_policy_its_own_price() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 2);
    let fault = vec![ScriptedFault {
        iteration: 5,
        rank: 1,
        vector: ProtectedVector::Z,
        page: 0,
    }];
    let ideal = feir_dist::distributed_resilient_pcg(&a, &b, 2, config(RecoveryPolicy::Ideal));

    let feir = feir_dist::distributed_resilient_pcg(
        &a,
        &b,
        2,
        config(RecoveryPolicy::Feir).with_scripted_faults(fault.clone()),
    );
    assert!(feir.converged);
    assert_eq!(feir.iterations, ideal.iterations, "FEIR z recovery is free");
    assert!(feir.pages_recovered >= 1);

    let ckpt = feir_dist::distributed_resilient_pcg(
        &a,
        &b,
        2,
        config(RecoveryPolicy::Checkpoint { interval: 3 }).with_scripted_faults(fault.clone()),
    );
    assert!(ckpt.converged);
    assert!(
        ckpt.rollbacks >= 1,
        "checkpoint policy must roll back on a z DUE"
    );

    let trivial = feir_dist::distributed_resilient_pcg(
        &a,
        &b,
        2,
        config(RecoveryPolicy::Trivial).with_scripted_faults(fault),
    );
    assert!(
        trivial.pages_ignored >= 1,
        "trivial policy must blank-accept the z page"
    );
    assert!(trivial.x.iter().all(|v| v.is_finite()));
}

/// Two ranks losing stencil-adjacent iterate pages in the *same* iteration
/// is the cross-rank form of the paper's "related data" case: each rank's
/// reconstruction alone would read the other's post-scrub blanks, and up to
/// PR 9 this was honestly blank-accepted. The coupled cross-rank exchange
/// now gathers the union of the lost rows onto the boundary's lowest owner,
/// solves `A_UU x_U = b_U − g_U − Σ A_Uc x_c` once, and ships the entries
/// back — an *exact* reconstruction with `pages_ignored == 0`.
#[test]
fn simultaneous_cross_rank_x_losses_reconstruct_exactly() {
    let a = poisson_2d(16);
    let (x_true, b) = manufactured_rhs(&a, 9);
    // Rank 0's last page and rank 1's first page share a 5-point stencil
    // boundary; both are lost at iteration 4.
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::X,
            page: 7,
        },
        ScriptedFault {
            iteration: 4,
            rank: 1,
            vector: ProtectedVector::X,
            page: 0,
        },
    ];
    let ideal = distributed_resilient_cg(&a, &b, 2, config(RecoveryPolicy::Ideal));
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            2,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert_eq!(report.pages_ignored, 0, "{policy:?} blank-accepted");
        assert!(report.pages_recovered >= 2, "{policy:?}");
        assert_eq!(
            report.pages_coupled, 2,
            "{policy:?} did not use the coupled cross-rank round"
        );
        assert!(report.cross_rank_values > 0, "{policy:?}");
        assert!(report.converged, "{policy:?} did not converge");
        assert!(
            report.iterations <= ideal.iterations + 2,
            "{policy:?}: exact coupled recovery changed convergence ({} vs {})",
            report.iterations,
            ideal.iterations
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "{policy:?}: solution error {err}");
    }
}

/// The coupled round across the policy × solver × rank-count grid: adjacent
/// boundary losses reconstruct exactly (`pages_ignored == 0`) for CG and
/// PCG at 2 and 4 ranks, and the whole faulty solve is bitwise
/// run-to-run deterministic.
#[test]
fn coupled_cross_rank_recovery_spans_solvers_and_rank_counts() {
    let a = poisson_2d(16);
    let (x_true, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        // The two pages flanking the rank-0/rank-1 boundary: rank 0's last
        // page and rank 1's first (pages are 16 rows at 16 doubles/page).
        let last_page_r0 = 256 / ranks / 16 - 1;
        let faults = vec![
            ScriptedFault {
                iteration: 4,
                rank: 0,
                vector: ProtectedVector::X,
                page: last_page_r0,
            },
            ScriptedFault {
                iteration: 4,
                rank: 1,
                vector: ProtectedVector::X,
                page: 0,
            },
        ];
        for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
            for pcg in [false, true] {
                let run = || {
                    let cfg = config(policy).with_scripted_faults(faults.clone());
                    if pcg {
                        feir_dist::distributed_resilient_pcg(&a, &b, ranks, cfg)
                    } else {
                        distributed_resilient_cg(&a, &b, ranks, cfg)
                    }
                };
                let report = run();
                let tag = format!("{policy:?}/pcg={pcg}/{ranks} ranks");
                assert_eq!(report.pages_ignored, 0, "{tag} blank-accepted");
                assert_eq!(report.pages_coupled, 2, "{tag}");
                assert!(report.converged, "{tag} did not converge");
                let err: f64 = report
                    .x
                    .iter()
                    .zip(&x_true)
                    .map(|(u, v)| (u - v) * (u - v))
                    .sum::<f64>()
                    .sqrt();
                assert!(err < 1e-6, "{tag}: solution error {err}");
                let second = run();
                assert_eq!(report.iterations, second.iterations, "{tag}");
                for (u, v) in report.x.iter().zip(&second.x) {
                    assert_eq!(u.to_bits(), v.to_bits(), "{tag} not reproducible");
                }
            }
        }
    }
}

/// A loss chain spanning *three* ranks: every page of the middle rank plus
/// the flanking boundary pages of its neighbours. The gather wave hops the
/// union through the middle rank (ranks 0 and 2 are not even halo peers),
/// the lowest owner solves the 96-row union, and the result wave walks it
/// back up.
#[test]
fn coupled_recovery_chains_across_three_ranks() {
    let a = poisson_2d(16);
    let (x_true, b) = manufactured_rhs(&a, 7);
    let ranks = 4; // 64 rows per rank, 4 pages of 16 rows each
    let mut faults = vec![ScriptedFault {
        iteration: 5,
        rank: 0,
        vector: ProtectedVector::X,
        page: 3,
    }];
    for page in 0..4 {
        faults.push(ScriptedFault {
            iteration: 5,
            rank: 1,
            vector: ProtectedVector::X,
            page,
        });
    }
    faults.push(ScriptedFault {
        iteration: 5,
        rank: 2,
        vector: ProtectedVector::X,
        page: 0,
    });
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert_eq!(report.pages_ignored, 0, "{policy:?} blank-accepted");
        assert_eq!(report.pages_coupled, 6, "{policy:?}");
        assert!(report.converged, "{policy:?} did not converge");
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "{policy:?}: solution error {err}");
    }
}

/// Regression: the coupled round must stay honest. When the neighbour's
/// boundary page also loses its residual block, that page is conflicted —
/// it cannot join the union, the union's support stays invalid on every
/// rank, and *both* sides must blank-accept instead of solving on garbage.
/// The related loss then restarts the solve from `g = b − A·x`, so it still
/// converges.
#[test]
fn coupled_round_blank_accepts_when_a_residual_block_is_also_lost() {
    let a = poisson_2d(16);
    let (_, b) = manufactured_rhs(&a, 9);
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::X,
            page: 7,
        },
        ScriptedFault {
            iteration: 4,
            rank: 1,
            vector: ProtectedVector::X,
            page: 0,
        },
        ScriptedFault {
            iteration: 4,
            rank: 1,
            vector: ProtectedVector::G,
            page: 0,
        },
    ];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            2,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert_eq!(
            report.pages_coupled, 0,
            "{policy:?} coupled-solved against a lost residual block"
        );
        assert_eq!(
            report.pages_recovered, 0,
            "{policy:?} claimed an exact recovery built on a neighbour's blanks"
        );
        assert!(report.pages_ignored >= 3, "{policy:?} must blank-accept");
        assert!(report.x.iter().all(|v| v.is_finite()), "{policy:?}");
        assert!(report.restarts >= 1, "{policy:?} did not restart");
        assert!(
            report.converged,
            "{policy:?} did not converge: true residual {}",
            report.relative_residual
        );
    }
}

/// The blank taint must propagate *transitively*: when a conflicted page
/// poisons its neighbour, a further page adjacent to that neighbour is just
/// as unrecoverable, and must not be "exactly" reconstructed from the
/// neighbour's post-scrub blanks.
#[test]
fn blank_taint_propagates_transitively_through_adjacent_lost_pages() {
    let a = poisson_2d(16);
    let (_, b) = manufactured_rhs(&a, 9);
    // Single rank: pages 4..=6 of x lost together, page 6 also loses g
    // (conflicted). Page 5 touches page 6's rows, page 4 touches page 5's —
    // the whole chain is unrecoverable.
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::X,
            page: 4,
        },
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::X,
            page: 5,
        },
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::X,
            page: 6,
        },
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::G,
            page: 6,
        },
    ];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            1,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert_eq!(
            report.pages_recovered, 0,
            "{policy:?} reconstructed a page from a transitively tainted neighbour"
        );
        assert!(report.pages_ignored >= 4, "{policy:?}");
        assert!(report.x.iter().all(|v| v.is_finite()), "{policy:?}");
    }
}
