//! Integration tests of the merged-reduction (pipelined Chronopoulos–Gear)
//! distributed solvers: the one-allreduce-per-iteration contract, iteration
//! parity with the classic loops, fault-free bitwise identity between the
//! plain and resilient merged paths, and the recovery policy matrix on the
//! merged recurrences.

use feir_dist::{
    distributed_cg, distributed_cg_merged, distributed_pcg, distributed_pcg_merged,
    distributed_resilient_cg_merged, distributed_resilient_pcg_merged, DistResilienceConfig,
    ProtectedVector, ScriptedFault,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::{manufactured_rhs, poisson_2d, poisson_3d_27pt};

const TOL: f64 = 1e-10;

fn config(policy: RecoveryPolicy) -> DistResilienceConfig {
    DistResilienceConfig::for_policy(policy)
        .with_page_doubles(16)
        .with_tolerance(TOL)
        .with_max_iterations(20_000)
}

fn assert_iterations_close(merged: usize, classic: usize, label: &str) {
    let tolerance = (classic as f64 * 0.10).ceil() as i64 + 1;
    let diff = (merged as i64 - classic as i64).abs();
    assert!(
        diff <= tolerance,
        "{label}: merged {merged} vs classic {classic} iterations (allowed ±{tolerance})"
    );
}

/// The headline contract of the merged hot path: exactly one collective per
/// iteration (plus the setup ‖b‖ reduction), at every rank count, for both
/// merged solvers — versus two/three for the classic loops.
#[test]
fn merged_solvers_issue_exactly_one_allreduce_per_iteration() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [1usize, 2, 4] {
        let cg_m = distributed_cg_merged(&a, &b, ranks, TOL, 20_000);
        assert!(cg_m.converged());
        assert_eq!(
            cg_m.allreduces,
            cg_m.residual_history.len() as u64 + 1,
            "merged CG at {ranks} ranks"
        );
        let pcg_m = distributed_pcg_merged(&a, &b, ranks, 16, TOL, 20_000);
        assert!(pcg_m.converged());
        assert_eq!(
            pcg_m.allreduces,
            pcg_m.residual_history.len() as u64 + 1,
            "merged PCG at {ranks} ranks"
        );
        // Classic loops for contrast: 2 (CG) / 3 (PCG) collectives per
        // iteration plus the two setup reductions.
        let cg_c = distributed_cg(&a, &b, ranks, TOL, 20_000);
        assert_eq!(cg_c.allreduces, 2 * cg_c.iterations as u64 + 2);
        let pcg_c = distributed_pcg(&a, &b, ranks, 16, TOL, 20_000);
        assert_eq!(pcg_c.allreduces, 3 * pcg_c.iterations as u64 + 2);
    }
}

/// The merged resilient solvers keep the single collective per iteration on
/// their fault-free forward paths: the fault flag rides inside the vector
/// allreduce instead of paying a second synchronization.
#[test]
fn merged_resilient_forward_paths_keep_one_allreduce_per_iteration() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 5);
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg_merged(&a, &b, 3, config(policy));
        assert!(report.converged);
        assert_eq!(
            report.allreduces,
            report.residual_history.len() as u64 + 1,
            "{policy:?}"
        );
        let report = distributed_resilient_pcg_merged(&a, &b, 3, config(policy));
        assert!(report.converged);
        assert_eq!(
            report.allreduces,
            report.residual_history.len() as u64 + 1,
            "PCG {policy:?}"
        );
    }
}

/// Merged CG matches classic CG iteration counts within ±10% on the 2-D
/// Poisson operator and the paper's Figure-5 (27-point 3-D) operator.
#[test]
fn merged_iteration_counts_match_classic_within_ten_percent() {
    let poisson = poisson_2d(16);
    let (_, b2) = manufactured_rhs(&poisson, 7);
    let fig5 = poisson_3d_27pt(7);
    let (_, b3) = manufactured_rhs(&fig5, 3);
    for (label, a, b) in [("poisson_2d", &poisson, &b2), ("fig5_27pt", &fig5, &b3)] {
        for ranks in [1usize, 2, 4] {
            let classic = distributed_cg(a, b, ranks, 1e-8, 20_000);
            let merged = distributed_cg_merged(a, b, ranks, 1e-8, 20_000);
            assert!(classic.converged() && merged.converged(), "{label}");
            assert_iterations_close(
                merged.iterations,
                classic.iterations,
                &format!("{label} at {ranks} ranks"),
            );
        }
    }
}

/// Fault-free runs of the merged resilient solvers are bitwise-identical to
/// the plain merged loops at 1, 2 and 4 ranks, for every policy — the same
/// contract the classic pair upholds.
#[test]
fn zero_fault_merged_runs_are_bitwise_identical_to_plain_merged() {
    let a = poisson_2d(14);
    let (_, b) = manufactured_rhs(&a, 11);
    for ranks in [1usize, 2, 4] {
        let plain_cg = distributed_cg_merged(&a, &b, ranks, TOL, 20_000);
        let plain_pcg = distributed_pcg_merged(&a, &b, ranks, 16, TOL, 20_000);
        for policy in [
            RecoveryPolicy::Ideal,
            RecoveryPolicy::Feir,
            RecoveryPolicy::Afeir,
            RecoveryPolicy::Trivial,
            RecoveryPolicy::TrivialReplace,
            RecoveryPolicy::Checkpoint { interval: 25 },
            RecoveryPolicy::LossyRestart,
        ] {
            let resilient = distributed_resilient_cg_merged(&a, &b, ranks, config(policy));
            assert_eq!(
                resilient.iterations, plain_cg.iterations,
                "{policy:?} at {ranks} ranks changed the merged CG iteration count"
            );
            for (i, (u, v)) in resilient
                .residual_history
                .iter()
                .zip(&plain_cg.residual_history)
                .enumerate()
            {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{policy:?} at {ranks} ranks: history[{i}] {u:e} != {v:e}"
                );
            }
            for (i, (u, v)) in resilient.x.iter().zip(&plain_cg.x).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{policy:?} at {ranks} ranks: x[{i}] {u:e} != {v:e}"
                );
            }
            assert_eq!(resilient.pages_recovered, 0);
            assert_eq!(resilient.cross_rank_values, 0);

            let resilient = distributed_resilient_pcg_merged(&a, &b, ranks, config(policy));
            assert_eq!(
                resilient.iterations, plain_pcg.iterations,
                "PCG {policy:?} at {ranks} ranks changed the iteration count"
            );
            for (i, (u, v)) in resilient.x.iter().zip(&plain_pcg.x).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "PCG {policy:?} at {ranks} ranks: x[{i}] {u:e} != {v:e}"
                );
            }
            for (u, v) in resilient
                .residual_history
                .iter()
                .zip(&plain_pcg.residual_history)
            {
                assert_eq!(u.to_bits(), v.to_bits(), "PCG {policy:?} at {ranks} ranks");
            }
        }
    }
}

/// Scripted DUEs across every protected vector of the merged CG: the full
/// policy matrix still converges to tolerance and the forward policies
/// reconstruct (or honestly blank-accept) the losses.
#[test]
fn merged_policy_matrix_converges_under_scripted_dues() {
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
            iteration: 5,
            rank: 2,
            vector: ProtectedVector::X,
            page: 0,
        },
        ScriptedFault {
            iteration: 7,
            rank: 1,
            vector: ProtectedVector::Q,
            page: 2,
        },
        ScriptedFault {
            iteration: 9,
            rank: 1,
            vector: ProtectedVector::G,
            page: 0,
        },
    ];
    for policy in [
        RecoveryPolicy::Feir,
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Checkpoint { interval: 4 },
        RecoveryPolicy::LossyRestart,
    ] {
        let report = distributed_resilient_cg_merged(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(
            report.converged,
            "{policy:?} did not converge: residual {:e} after {} iterations",
            report.relative_residual, report.iterations
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "{policy:?} solution error {err}");
        assert_eq!(report.faults.total_injected(), faults.len());
        match policy {
            RecoveryPolicy::Feir | RecoveryPolicy::Afeir => {
                assert_eq!(
                    report.pages_recovered + report.pages_ignored,
                    faults.len(),
                    "{policy:?} must account for every loss"
                );
                assert!(
                    report.pages_recovered >= 3,
                    "{policy:?} recovered too little"
                );
            }
            RecoveryPolicy::Checkpoint { .. } => assert!(report.rollbacks >= 1),
            RecoveryPolicy::LossyRestart => assert!(report.restarts >= 1),
            _ => {}
        }
    }
}

/// The same scripted storm on the merged PCG, including a `u = M⁻¹·r` loss
/// (id `Z`) that only the preconditioned solver protects.
#[test]
fn merged_pcg_policy_matrix_converges_under_scripted_dues() {
    let a = poisson_2d(15);
    let (x_true, b) = manufactured_rhs(&a, 8);
    let ranks = 3;
    let faults = vec![
        ScriptedFault {
            iteration: 2,
            rank: 1,
            vector: ProtectedVector::Z,
            page: 1,
        },
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::X,
            page: 2,
        },
        ScriptedFault {
            iteration: 6,
            rank: 2,
            vector: ProtectedVector::D,
            page: 0,
        },
    ];
    for policy in [
        RecoveryPolicy::Feir,
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Checkpoint { interval: 4 },
        RecoveryPolicy::LossyRestart,
    ] {
        let report = distributed_resilient_pcg_merged(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(
            report.converged,
            "PCG {policy:?} did not converge: residual {:e}",
            report.relative_residual
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "PCG {policy:?} solution error {err}");
        if matches!(policy, RecoveryPolicy::Feir | RecoveryPolicy::Afeir) {
            assert_eq!(report.pages_recovered + report.pages_ignored, faults.len());
            assert!(report.pages_recovered >= 2);
        }
    }
}

/// Trivial blank-acceptance on the merged recurrences: unlike classic CG —
/// whose per-iteration matvec recomputes `q = A·d` and slowly re-absorbs the
/// damage — the pipelined recurrences (`w = A·r`, `s = A·p`) never
/// self-correct, so the zero-effort policy generally fails to converge. The
/// contract here is *honest reporting*: the explicit residual on the
/// assembled solution tells the truth, and every loss shows up in
/// `pages_ignored`.
#[test]
fn merged_trivial_blank_acceptance_reports_honestly() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 4);
    let faults = vec![ScriptedFault {
        iteration: 4,
        rank: 0,
        vector: ProtectedVector::G,
        page: 1,
    }];
    let report = distributed_resilient_cg_merged(
        &a,
        &b,
        2,
        config(RecoveryPolicy::Trivial)
            .with_max_iterations(2_000)
            .with_scripted_faults(faults),
    );
    assert_eq!(report.pages_ignored, 1);
    assert_eq!(report.pages_recovered, 0);
    // converged is derived from the explicit residual, never the solver's
    // internal estimate.
    assert_eq!(report.converged, report.relative_residual <= TOL);
}

/// A direction page on a rank boundary: its stencil reaches the neighbour
/// rank, so the reconstruction must fetch remote `p` entries through the
/// recovery exchange (the merged loop has no halo snapshot of `p` to fall
/// back on).
#[test]
fn merged_direction_recovery_fetches_across_rank_boundaries() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 6);
    let ranks = 2;
    // Page sized so the last page of rank 0 touches rank 1's rows.
    let cfg = DistResilienceConfig::for_policy(RecoveryPolicy::Feir)
        .with_page_doubles(24)
        .with_tolerance(TOL)
        .with_max_iterations(20_000)
        .with_scripted_faults(vec![ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::D,
            page: 2, // rows 48..72, stencil reaches row 84 on rank 1
        }]);
    let report = distributed_resilient_cg_merged(&a, &b, ranks, cfg);
    assert!(report.converged);
    assert_eq!(report.pages_recovered, 1);
    assert!(
        report.cross_rank_values > 0,
        "boundary reconstruction must fetch remote direction entries"
    );
}

/// Simultaneous loss of a page in both `p` and `s` is the merged form of the
/// related-data case: no relation can reconstruct either, so both are
/// blank-accepted and reported, never faked.
#[test]
fn merged_related_ps_losses_are_blank_accepted() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 9);
    let faults = vec![
        ScriptedFault {
            iteration: 5,
            rank: 0,
            vector: ProtectedVector::D,
            page: 1,
        },
        ScriptedFault {
            iteration: 5,
            rank: 0,
            vector: ProtectedVector::Q,
            page: 1,
        },
    ];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg_merged(
            &a,
            &b,
            2,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert!(report.converged, "{policy:?}");
        assert_eq!(report.pages_recovered, 0, "{policy:?} faked a recovery");
        assert_eq!(report.pages_ignored, 2, "{policy:?}");
    }
}

/// Scripted-fault merged solves are bitwise reproducible run-to-run (the
/// recovery paths, including AFEIR's in-window request posting, stay on the
/// deterministic reduction schedule).
#[test]
fn merged_resilient_solves_are_bitwise_deterministic_under_scripted_faults() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 13);
    let faults = vec![
        ScriptedFault {
            iteration: 2,
            rank: 1,
            vector: ProtectedVector::X,
            page: 1,
        },
        ScriptedFault {
            iteration: 6,
            rank: 0,
            vector: ProtectedVector::Q,
            page: 0,
        },
    ];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let run = || {
            distributed_resilient_cg_merged(
                &a,
                &b,
                3,
                config(policy).with_scripted_faults(faults.clone()),
            )
        };
        let first = run();
        let second = run();
        assert!(first.converged);
        assert_eq!(first.iterations, second.iterations, "{policy:?}");
        for (u, v) in first.x.iter().zip(&second.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "{policy:?} x not reproducible");
        }
        for (u, v) in first.residual_history.iter().zip(&second.residual_history) {
            assert_eq!(u.to_bits(), v.to_bits(), "{policy:?} history differs");
        }
    }
}

/// Adjacent iterate pages lost across a rank boundary in the same
/// iteration: the merged loop runs the same coupled cross-rank round as the
/// classic one, so the pages reconstruct exactly (`pages_ignored == 0`, no
/// residual-replacement restart) for both merged solvers at 2 and 4 ranks —
/// and the faulty solve stays bitwise run-to-run deterministic.
#[test]
fn merged_coupled_cross_rank_recovery_is_exact() {
    let a = poisson_2d(16);
    let (x_true, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
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
                        distributed_resilient_pcg_merged(&a, &b, ranks, cfg)
                    } else {
                        distributed_resilient_cg_merged(&a, &b, ranks, cfg)
                    }
                };
                let report = run();
                let tag = format!("merged {policy:?}/pcg={pcg}/{ranks} ranks");
                assert_eq!(report.pages_ignored, 0, "{tag} blank-accepted");
                assert_eq!(report.pages_coupled, 2, "{tag}");
                assert_eq!(
                    report.restarts, 0,
                    "{tag}: exact coupled recovery must not pay a restart"
                );
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

/// Adjacent *direction* pages lost across the boundary reconstruct through
/// the direction-side coupled round (`A_UU p_U = s_U − Σ A_Uc p_c`).
#[test]
fn merged_coupled_direction_losses_reconstruct_exactly() {
    let a = poisson_2d(16);
    let (x_true, b) = manufactured_rhs(&a, 8);
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 0,
            vector: ProtectedVector::D,
            page: 7,
        },
        ScriptedFault {
            iteration: 4,
            rank: 1,
            vector: ProtectedVector::D,
            page: 0,
        },
    ];
    for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
        let report = distributed_resilient_cg_merged(
            &a,
            &b,
            2,
            config(policy).with_scripted_faults(faults.clone()),
        );
        assert_eq!(report.pages_ignored, 0, "{policy:?} blank-accepted");
        assert_eq!(report.pages_coupled, 2, "{policy:?}");
        assert_eq!(report.restarts, 0, "{policy:?}");
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

/// TrivialReplace on the merged recurrences: blank-accept like Trivial but
/// rebuild the recurrence state (residual replacement), which restores the
/// convergence guarantee Trivial loses.
#[test]
fn merged_trivial_replace_restarts_and_converges() {
    let a = poisson_2d(12);
    let (x_true, b) = manufactured_rhs(&a, 4);
    let faults = vec![ScriptedFault {
        iteration: 4,
        rank: 0,
        vector: ProtectedVector::G,
        page: 1,
    }];
    let report = distributed_resilient_cg_merged(
        &a,
        &b,
        2,
        config(RecoveryPolicy::TrivialReplace).with_scripted_faults(faults),
    );
    assert_eq!(report.pages_ignored, 1);
    assert_eq!(report.pages_recovered, 0);
    assert!(
        report.restarts >= 1,
        "triv+rr never rebuilt the recurrences"
    );
    assert!(report.converged, "residual replacement lost convergence");
    let err: f64 = report
        .x
        .iter()
        .zip(&x_true)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    assert!(err < 1e-6, "solution error {err}");
}

/// `Z` faults target `u = M⁻¹·r`, which only the preconditioned merged
/// solver carries — the CG variant must reject the script loudly instead of
/// silently measuring a fault-free run.
#[test]
#[should_panic(expected = "does not protect")]
fn merged_cg_rejects_z_faults() {
    let a = poisson_2d(8);
    let (_, b) = manufactured_rhs(&a, 1);
    let cfg = config(RecoveryPolicy::Feir).with_scripted_faults(vec![ScriptedFault {
        iteration: 1,
        rank: 0,
        vector: ProtectedVector::Z,
        page: 0,
    }]);
    let _ = distributed_resilient_cg_merged(&a, &b, 2, cfg);
}
