//! FEIR and AFEIR repair every lost page through one code path in the rank
//! loops, so under the same scripted faults the two policies produce the
//! same bits: AFEIR only posts its recovery requests (and, when only
//! iterate pages are lost, its ε reduction) earlier. Golden hashes pin the
//! faulted bits of every policy on every solver, so a change to the repair
//! or restart arithmetic shows here before it shows as a convergence
//! difference, and the unprotected bits of every solver, so a change to the
//! fault-free arithmetic shows too.

use feir_dist::{
    distributed_cg, distributed_cg_merged, distributed_pcg, distributed_pcg_merged,
    distributed_resilient_cg, distributed_resilient_cg_merged, distributed_resilient_pcg,
    distributed_resilient_pcg_merged, DistResilienceConfig, DistResilientReport, ProtectedVector,
    ScriptedFault,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::{manufactured_rhs, poisson_2d};
use feir_sparse::CsrMatrix;
use proptest::prelude::*;

/// Grid edge: 256 unknowns, so 16-double pages give 8 pages per rank at 2
/// ranks and 4 at 4 ranks.
const GRID: usize = 16;
const PAGE: usize = 16;
const TOL: f64 = 1e-10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Solver {
    Cg,
    Pcg,
    CgMerged,
    PcgMerged,
}

impl Solver {
    const ALL: [Solver; 4] = [Solver::Cg, Solver::Pcg, Solver::CgMerged, Solver::PcgMerged];

    fn preconditioned(self) -> bool {
        matches!(self, Solver::Pcg | Solver::PcgMerged)
    }

    fn solve(
        self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: usize,
        policy: RecoveryPolicy,
        schedule: Schedule,
    ) -> DistResilientReport {
        let faults = schedule.faults(ranks, self.preconditioned());
        self.solve_under(a, b, ranks, policy, faults)
    }

    fn solve_under(
        self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: usize,
        policy: RecoveryPolicy,
        faults: Vec<ScriptedFault>,
    ) -> DistResilientReport {
        let config = DistResilienceConfig::for_policy(policy)
            .with_page_doubles(PAGE)
            .with_tolerance(TOL)
            .with_max_iterations(2_000)
            .with_scripted_faults(faults);
        match self {
            Solver::Cg => distributed_resilient_cg(a, b, ranks, config),
            Solver::Pcg => distributed_resilient_pcg(a, b, ranks, config),
            Solver::CgMerged => distributed_resilient_cg_merged(a, b, ranks, config),
            Solver::PcgMerged => distributed_resilient_pcg_merged(a, b, ranks, config),
        }
    }
}

fn fault(iteration: usize, rank: usize, vector: ProtectedVector, page: usize) -> ScriptedFault {
    ScriptedFault {
        iteration,
        rank,
        vector,
        page,
    }
}

/// The scripted fault schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Schedule {
    /// Losses on every protected vector: an iteration that loses only
    /// iterate pages, direction and matvec-image pages on different ranks,
    /// the coupled pair flanking the rank-0/rank-1 boundary, residual and
    /// iterate losses in one iteration, several vectors on one rank, and for
    /// the preconditioned solvers a lost `z`.
    Mixed,
    /// `Mixed` plus two related pairs no relation can repair: a direction
    /// page lost with its matvec-image page, and an iterate page lost with
    /// its residual page. They pin the blank-accept and taint paths.
    Related,
}

impl Schedule {
    fn faults(self, ranks: usize, preconditioned: bool) -> Vec<ScriptedFault> {
        use ProtectedVector::{D, G, Q, X};
        let mut faults = mixed(ranks, preconditioned);
        if self == Schedule::Related {
            faults.extend([
                fault(9, 0, D, 2),
                fault(9, 0, Q, 2),
                fault(11, 1, X, 1),
                fault(11, 1, G, 1),
            ]);
        }
        faults
    }
}

fn mixed(ranks: usize, preconditioned: bool) -> Vec<ScriptedFault> {
    use ProtectedVector::{D, G, Q, X, Z};
    let last = GRID * GRID / ranks / PAGE - 1;
    let mut faults = vec![
        fault(2, 0, X, 1),
        fault(3, 1, D, 1),
        fault(3, 0, Q, 2),
        fault(4, 0, X, last),
        fault(4, 1, X, 0),
        fault(5, 1, G, 2),
        fault(5, 0, X, 0),
        fault(7, 1, Q, 0),
        fault(7, 1, D, 3),
        fault(7, 0, G, 1),
    ];
    if preconditioned {
        faults.push(fault(6, 0, Z, 1));
        faults.push(fault(8, 1, Z, 2));
    }
    faults
}

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

/// The bits of the solution and the residual history, the iteration count
/// and the page counters.
fn fingerprint(report: &DistResilientReport) -> u64 {
    let counters = [
        report.iterations,
        report.pages_recovered,
        report.pages_ignored,
        report.pages_coupled,
        report.cross_rank_values,
    ];
    fnv1a(
        report
            .x
            .iter()
            .chain(&report.residual_history)
            .map(|v| v.to_bits())
            .chain(counters.iter().map(|&c| c as u64)),
    )
}

#[test]
fn feir_and_afeir_are_bitwise_equal() {
    let a = poisson_2d(GRID);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        for solver in Solver::ALL {
            let tag = format!("{solver:?} at {ranks} ranks");
            let feir = solver.solve(&a, &b, ranks, RecoveryPolicy::Feir, Schedule::Mixed);
            let afeir = solver.solve(&a, &b, ranks, RecoveryPolicy::Afeir, Schedule::Mixed);
            assert!(feir.converged, "{tag}: FEIR did not converge");
            assert!(feir.pages_coupled > 0, "{tag}: the coupled pair missed");
            assert_eq!(afeir.iterations, feir.iterations, "{tag}: iterations");
            assert_eq!(afeir.x.len(), feir.x.len(), "{tag}");
            for (i, (u, v)) in afeir.x.iter().zip(&feir.x).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{tag}: x[{i}] differs");
            }
            assert_eq!(
                afeir.residual_history.len(),
                feir.residual_history.len(),
                "{tag}: history length"
            );
            for (i, (u, v)) in afeir
                .residual_history
                .iter()
                .zip(&feir.residual_history)
                .enumerate()
            {
                assert_eq!(u.to_bits(), v.to_bits(), "{tag}: history[{i}] differs");
            }
            assert_eq!(afeir.pages_recovered, feir.pages_recovered, "{tag}");
            assert_eq!(afeir.pages_ignored, feir.pages_ignored, "{tag}");
            assert_eq!(afeir.pages_coupled, feir.pages_coupled, "{tag}");
            assert_eq!(afeir.cross_rank_values, feir.cross_rank_values, "{tag}");
            assert_eq!(afeir.allreduces, feir.allreduces, "{tag}: collectives");
        }
    }
}

/// Every policy's faulted bits at 2 ranks, hashed, with whether the solve
/// converged and how many collectives it entered. A changed hash means the
/// repair or restart arithmetic itself changed, not only its scheduling.
///
/// The FEIR rows under `Related` pin the one blank-acceptance rule (ROADMAP
/// item 24): the related pairs are blank-accepted and every rank then
/// replaces the residual and restarts, so all four solvers converge. The
/// classic loops' restart flag rides their post-repair ε reduction; the
/// merged loops reduce theirs once per faulted iteration.
#[test]
fn faulted_bits_match_their_golden_hashes() {
    use RecoveryPolicy::{Checkpoint, Feir, LossyRestart, Trivial, TrivialReplace};
    use Schedule::{Mixed, Related};
    use Solver::{Cg, CgMerged, Pcg, PcgMerged};
    let a = poisson_2d(GRID);
    let (_, b) = manufactured_rhs(&a, 5);
    let ckpt = Checkpoint { interval: 4 };
    // (solver, policy, schedule, converged, collectives, hash)
    let golden = [
        (Cg, Feir, Mixed, true, 120, 0x1cc4_dd96_839c_09fc),
        (Pcg, Feir, Mixed, true, 150, 0xb45c_5b37_6f8d_a2bb),
        (CgMerged, Feir, Mixed, true, 64, 0x711e_4846_a5ae_3b5d),
        (PcgMerged, Feir, Mixed, true, 57, 0x96a3_2e24_1b45_a92f),
        (Cg, Trivial, Mixed, false, 172, 0x3298_5197_1d17_e16e),
        (Pcg, Trivial, Mixed, false, 188, 0xf08a_e001_c0cb_7806),
        (CgMerged, Trivial, Mixed, false, 2001, 0x1c3d_f4ca_6109_b539),
        (PcgMerged, Trivial, Mixed, false, 70, 0x6c83_b310_1699_97bf),
        (Cg, TrivialReplace, Mixed, true, 129, 0xdde6_e527_7242_07f0),
        (Pcg, TrivialReplace, Mixed, true, 168, 0x0bd9_f81d_809f_4087),
        (
            CgMerged,
            TrivialReplace,
            Mixed,
            true,
            124,
            0x18a7_744a_f70f_7f56,
        ),
        (
            PcgMerged,
            TrivialReplace,
            Mixed,
            true,
            108,
            0xfabf_6a86_ae1a_d502,
        ),
        (Cg, ckpt, Mixed, true, 137, 0x5247_b9c6_3f17_761f),
        (Pcg, ckpt, Mixed, true, 180, 0xbc6f_36cf_936b_653f),
        (CgMerged, ckpt, Mixed, true, 132, 0x430b_98fb_7d57_d799),
        (PcgMerged, ckpt, Mixed, true, 116, 0xe3f4_f673_85b7_ac3b),
        (Cg, LossyRestart, Mixed, true, 125, 0x3e9c_eaba_7e37_77a3),
        (Pcg, LossyRestart, Mixed, true, 162, 0x4033_0799_3690_acd4),
        (
            CgMerged,
            LossyRestart,
            Mixed,
            true,
            120,
            0x929a_c6ab_96f8_61ad,
        ),
        (
            PcgMerged,
            LossyRestart,
            Mixed,
            true,
            104,
            0x8aec_927b_f7be_7f4f,
        ),
        (Cg, Feir, Related, true, 142, 0x5ec6_ee45_521b_3069),
        (Pcg, Feir, Related, true, 185, 0x1bcb_fe24_1c7e_3530),
        (CgMerged, Feir, Related, true, 76, 0xa857_d44d_2310_7bbd),
        (PcgMerged, Feir, Related, true, 70, 0xff31_b0e9_412f_1070),
    ];
    for (solver, policy, schedule, converged, collectives, expected) in golden {
        let tag = format!("{solver:?} under {policy:?} on {schedule:?}");
        let report = solver.solve(&a, &b, 2, policy, schedule);
        assert_eq!(report.converged, converged, "{tag}: convergence");
        assert_eq!(report.allreduces, collectives, "{tag}: collectives");
        assert_eq!(
            fingerprint(&report),
            expected,
            "{tag}: the faulted bits changed"
        );
    }
}

/// The unprotected solves through the public entry points at 1, 2 and 4
/// ranks, hashed: the bits of the solution and the residual history and the
/// iteration count, with whether the solve converged and how many
/// collectives it entered. A changed hash means the fault-free arithmetic
/// changed; the serial `feir_solvers::cg` stays the round-off oracle.
#[test]
fn plain_bits_match_their_golden_hashes() {
    use Solver::{Cg, CgMerged, Pcg, PcgMerged};
    let a = poisson_2d(GRID);
    let (_, b) = manufactured_rhs(&a, 5);
    // (solver, ranks, converged, collectives, hash)
    let golden = [
        (Cg, 1, true, 116, 0x95d9_9a04_b67d_438e),
        (Cg, 2, true, 116, 0x5d4e_d93c_8705_2fe5),
        (Cg, 4, true, 116, 0xc147_615a_b961_4341),
        (Pcg, 1, true, 146, 0x053e_c101_1da0_6fba),
        (Pcg, 2, true, 146, 0x1f35_2bfd_c84d_490b),
        (Pcg, 4, true, 146, 0x090b_ee89_d39a_65e8),
        (CgMerged, 1, true, 59, 0xc3c8_ea5a_592e_1a54),
        (CgMerged, 2, true, 59, 0xf5f1_273f_574d_4ba3),
        (CgMerged, 4, true, 59, 0xcfe8_240c_f0b9_87e7),
        (PcgMerged, 1, true, 50, 0x46fa_7b09_87fb_f060),
        (PcgMerged, 2, true, 50, 0x744f_98e7_7ebf_313d),
        (PcgMerged, 4, true, 50, 0xa65a_9f44_194c_51b6),
    ];
    for (solver, ranks, converged, collectives, expected) in golden {
        let tag = format!("plain {solver:?} at {ranks} ranks");
        let result = match solver {
            Cg => distributed_cg(&a, &b, ranks, 1e-10, 2_000),
            Pcg => distributed_pcg(&a, &b, ranks, PAGE, 1e-10, 2_000),
            CgMerged => distributed_cg_merged(&a, &b, ranks, 1e-10, 2_000),
            PcgMerged => distributed_pcg_merged(&a, &b, ranks, PAGE, 1e-10, 2_000),
        };
        assert_eq!(result.converged, converged, "{tag}: convergence");
        assert_eq!(result.allreduces, collectives, "{tag}: collectives");
        let hash = fnv1a(
            result
                .x
                .iter()
                .chain(&result.residual_history)
                .map(|v| v.to_bits())
                .chain([result.iterations as u64]),
        );
        assert_eq!(hash, expected, "{tag}: the plain bits changed");
    }
}

/// A related `x`/`g` loss drawn at random, in one of four shapes. `x` and
/// `g` lose the same page of one rank (0), plus an `x` loss on the next page
/// of that rank (1) or across the rank boundary (2), where the pair moves to
/// the boundary page so the coupled round meets its blanks on the
/// neighbouring rank. Or the pair splits across the boundary with no page
/// lost twice (3): `g` on one rank's boundary page, `x` on the neighbour's
/// page across it, so the residual page's recompute reads the neighbour's
/// blanks and is blank-accepted with no same-page conflict anywhere.
fn related_loss(
    ranks: usize,
    iteration: usize,
    rank: usize,
    page: usize,
    shape: usize,
) -> Vec<ScriptedFault> {
    use ProtectedVector::{G, X};
    let rank = rank % ranks;
    let last = GRID * GRID / ranks / PAGE - 1;
    let page = page % (last + 1);
    let next = if page == last { page - 1 } else { page + 1 };
    let (edge, (peer, peer_page)) = if rank < ranks - 1 {
        (last, (rank + 1, 0))
    } else {
        (0, (rank - 1, last))
    };
    let x_loss = |owner, page| fault(iteration, owner, X, page);
    let g_loss = |page| fault(iteration, rank, G, page);
    match shape {
        0 => vec![x_loss(rank, page), g_loss(page)],
        1 => vec![x_loss(rank, page), g_loss(page), x_loss(rank, next)],
        2 => vec![x_loss(rank, edge), g_loss(edge), x_loss(peer, peer_page)],
        _ => vec![g_loss(edge), x_loss(peer, peer_page)],
    }
}

/// A split related loss: rank 1 loses `x` page 0 and rank 0 its last
/// residual page in the same iteration, so rank 0's
/// residual recompute reads rank 1's blanks. For the merged solvers the
/// same split between `p` on rank 1 and `s = A·p` on rank 0. No page is lost
/// twice, yet a page is blank-accepted, and every solver restarts for it.
#[test]
fn split_related_losses_restart_and_converge() {
    use ProtectedVector::{D, G, Q, X};
    let a = poisson_2d(GRID);
    let (_, b) = manufactured_rhs(&a, 5);
    let last = GRID * GRID / 2 / PAGE - 1;
    let splits = Solver::ALL
        .map(|solver| (solver, [fault(12, 1, X, 0), fault(12, 0, G, last)]))
        .into_iter()
        .chain(
            [Solver::CgMerged, Solver::PcgMerged]
                .map(|solver| (solver, [fault(12, 1, D, 0), fault(12, 0, Q, last)])),
        );
    for (solver, faults) in splits {
        for policy in [RecoveryPolicy::Feir, RecoveryPolicy::Afeir] {
            let tag = format!("{solver:?} under {policy:?} with {faults:?}");
            let report = solver.solve_under(&a, &b, 2, policy, faults.to_vec());
            assert!(report.pages_ignored >= 1, "{tag}: nothing blank-accepted");
            assert!(report.restarts >= 1, "{tag}: no restart counted");
            assert!(report.converged, "{tag}: did not converge");
            assert!(
                report.relative_residual <= TOL,
                "{tag}: true residual {}",
                report.relative_residual
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every solver, under FEIR and AFEIR alike, converges to the true
    /// tolerance after a random related `x`+`g` loss: what the round cannot
    /// rebuild is blank-accepted and the solve pays a restart for it, with
    /// the same bits under both policies.
    #[test]
    fn related_losses_restart_and_converge(
        (iteration, rank, page, shape) in (1usize..40, 0usize..4, 0usize..8, 0usize..4),
        ranks in (0usize..2).prop_map(|k| 2 << k),
    ) {
        let a = poisson_2d(GRID);
        let (_, b) = manufactured_rhs(&a, 5);
        let faults = related_loss(ranks, iteration, rank, page, shape);
        for solver in Solver::ALL {
            let tag = format!("{solver:?} at {ranks} ranks under {faults:?}");
            let feir = solver.solve_under(&a, &b, ranks, RecoveryPolicy::Feir, faults.clone());
            let afeir = solver.solve_under(&a, &b, ranks, RecoveryPolicy::Afeir, faults.clone());
            prop_assert!(feir.converged, "{tag}: did not converge");
            prop_assert!(
                feir.relative_residual <= TOL,
                "{tag}: true residual {}",
                feir.relative_residual
            );
            prop_assert!(feir.restarts >= 1, "{tag}: no restart counted");
            prop_assert!(feir.pages_ignored >= 1, "{tag}: nothing blank-accepted");
            prop_assert_eq!(fingerprint(&afeir), fingerprint(&feir), "{tag}: FEIR ≠ AFEIR");
            prop_assert_eq!(afeir.restarts, feir.restarts, "{tag}: restarts");
            prop_assert_eq!(afeir.allreduces, feir.allreduces, "{tag}: collectives");
        }
    }
}
