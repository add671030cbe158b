//! FEIR and AFEIR repair every lost page through one code path in the rank
//! loops, so under the same scripted faults the two policies produce the
//! same bits: AFEIR only posts its recovery requests (and, when only
//! iterate pages are lost, its ε reduction) earlier. A golden hash pins
//! FEIR's own faulted bits, so a change to the repair arithmetic shows here
//! before it shows as a convergence difference.

use feir_dist::{
    distributed_resilient_cg, distributed_resilient_cg_merged, distributed_resilient_pcg,
    distributed_resilient_pcg_merged, DistResilienceConfig, DistResilientReport, ProtectedVector,
    ScriptedFault,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::{manufactured_rhs, poisson_2d};
use feir_sparse::CsrMatrix;

/// Grid edge: 256 unknowns, so 16-double pages give 8 pages per rank at 2
/// ranks and 4 at 4 ranks.
const GRID: usize = 16;
const PAGE: usize = 16;

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
    ) -> DistResilientReport {
        let config = DistResilienceConfig::for_policy(policy)
            .with_page_doubles(PAGE)
            .with_tolerance(1e-10)
            .with_max_iterations(2_000)
            .with_scripted_faults(schedule(ranks, self.preconditioned()));
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

/// Losses on every protected vector: an iteration that loses only iterate
/// pages, direction and matvec-image pages on different ranks, the coupled
/// pair flanking the rank-0/rank-1 boundary, residual and iterate losses in
/// one iteration, several vectors on one rank, and for the preconditioned
/// solvers a lost `z`.
fn schedule(ranks: usize, preconditioned: bool) -> Vec<ScriptedFault> {
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
            let feir = solver.solve(&a, &b, ranks, RecoveryPolicy::Feir);
            let afeir = solver.solve(&a, &b, ranks, RecoveryPolicy::Afeir);
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

/// FEIR's faulted bits at 2 ranks, hashed. A change here means the repair
/// arithmetic itself changed, not only its scheduling.
#[test]
fn feir_faulted_bits_match_their_golden_hashes() {
    let a = poisson_2d(GRID);
    let (_, b) = manufactured_rhs(&a, 5);
    let golden = [
        (Solver::Cg, 0x1cc4_dd96_839c_09fc),
        (Solver::Pcg, 0x0f79_35b0_253e_6fa6),
        (Solver::CgMerged, 0x711e_4846_a5ae_3b5d),
        (Solver::PcgMerged, 0x544a_cb6e_a243_7f06),
    ];
    for (solver, expected) in golden {
        let report = solver.solve(&a, &b, 2, RecoveryPolicy::Feir);
        assert!(report.converged, "{solver:?} did not converge");
        assert_eq!(
            fingerprint(&report),
            expected,
            "{solver:?}: FEIR's faulted bits changed"
        );
    }
}
