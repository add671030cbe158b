//! Block-row distributed Conjugate Gradient over simulated ranks.
//!
//! Each rank owns a contiguous block of rows (and the matching slices of
//! `x`, `g`, `d`, `q`), exchanges the halo of the search direction before its
//! local SpMV and contributes to the two allreduces of every iteration —
//! exactly the communication structure of the paper's MPI+OmpSs solver
//! (Section 3.4), with channels standing in for MPI. The per-rank loop is
//! the one [`distributed_resilient_cg`](crate::resilient::distributed_resilient_cg)
//! runs, at [`RecoveryPolicy::Ideal`](feir_recovery::RecoveryPolicy::Ideal):
//! with no fault to repair, the protected solver is the plain one.

use feir_sparse::CsrMatrix;

use crate::kernels;
use crate::rank_loop::RankOutcome;
use crate::resilient::{plain_solve, DistSolver};

/// Reliability-sublayer counters of one solve, summed over every rank's
/// links. All zeros for the in-process backend, which has no links — the
/// counters only tick on the socket mesh of [`crate::process`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data frames handed to the wire (every attempt, retransmits included).
    pub data_frames: u64,
    /// Frames retransmitted after an acknowledgement timeout.
    pub retransmits: u64,
    /// Chaos-injected frame faults (drops, duplicates, delays, corruptions,
    /// truncations) on outgoing links.
    pub injected_faults: u64,
    /// Inbound frames rejected by the integrity gate (bad envelope/decode).
    pub rejected: u64,
    /// Duplicate data frames received and suppressed by sequence tracking.
    pub dup_received: u64,
}

impl NetStats {
    /// The wire encoding of these counters (the `link` array of a
    /// `TraceDump` frame), in field order.
    pub fn to_wire(self) -> [u64; 5] {
        [
            self.data_frames,
            self.retransmits,
            self.injected_faults,
            self.rejected,
            self.dup_received,
        ]
    }

    /// Decodes the `link` array of a `TraceDump` frame.
    pub fn from_wire(link: [u64; 5]) -> NetStats {
        NetStats {
            data_frames: link[0],
            retransmits: link[1],
            injected_faults: link[2],
            rejected: link[3],
            dup_received: link[4],
        }
    }

    /// Adds another rank's counters into this sum.
    pub fn accumulate(&mut self, other: NetStats) {
        self.data_frames += other.data_frames;
        self.retransmits += other.retransmits;
        self.injected_faults += other.injected_faults;
        self.rejected += other.rejected;
        self.dup_received += other.dup_received;
    }
}

/// Outcome of a distributed solve.
#[derive(Debug, Clone)]
pub struct DistSolveResult {
    /// The assembled solution (gathered from every rank).
    pub x: Vec<f64>,
    /// Iterations performed (identical on every rank by construction).
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖₂ / ‖b‖₂`, recomputed serially on
    /// the assembled solution.
    pub relative_residual: f64,
    /// Number of simulated ranks that executed the solve.
    pub ranks: usize,
    /// True if the solver reported convergence before the iteration cap.
    pub converged: bool,
    /// Relative residual estimate `√ε / ‖b‖₂` at every convergence check, in
    /// iteration order (identical on every rank because every ε comes out of
    /// the deterministic rank-ordered allreduce). The resilient solver's
    /// zero-fault history is bitwise-identical to this one.
    pub residual_history: Vec<f64>,
    /// Collectives rank 0 entered during the solve (scalar and vector
    /// allreduces; halo exchanges are point-to-point and excluded). Classic
    /// CG pays two per iteration and PCG three; the merged-reduction
    /// variants pay exactly one.
    pub allreduces: u64,
    /// Reliability-layer frame counters summed over every rank (all zeros
    /// for the channel-backed in-process transport).
    pub net: NetStats,
    /// Merged per-rank trace streams, present when the solve ran with
    /// `FEIR_TRACE=spans` and at least one event was recorded. Export with
    /// [`feir_trace::SolveTrace::chrome_json`] or fold into a summary with
    /// [`feir_trace::SolveTrace::summary`].
    pub trace: Option<feir_trace::SolveTrace>,
}

impl DistSolveResult {
    /// True if the solver converged to the requested tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The result of a folded solve (see [`RankOutcome::fold`]), with its
    /// residual recomputed on the assembled solution. Both backends build
    /// their result here; `net` and `trace` are left for the caller.
    pub(crate) fn assemble(
        a: &CsrMatrix,
        b: &[f64],
        tolerance: f64,
        ranks: usize,
        outcome: RankOutcome,
    ) -> Self {
        let relative_residual = kernels::explicit_relative_residual(a, b, &outcome.x);
        DistSolveResult {
            x: outcome.x,
            iterations: outcome.iterations,
            relative_residual,
            ranks,
            converged: relative_residual <= tolerance,
            residual_history: outcome.history,
            allreduces: outcome.allreduces,
            net: NetStats::default(),
            trace: None,
        }
    }
}

/// Solves `A x = b` with CG distributed over `ranks` simulated ranks.
///
/// The iteration is algebraically identical to the serial CG (same update
/// order, deterministic rank-ordered reductions), so the iterate agrees with
/// the shared-memory solver to round-off.
///
/// # Panics
/// Panics if the matrix is not square or `b` has the wrong length.
pub fn distributed_cg(
    a: &CsrMatrix,
    b: &[f64],
    ranks: usize,
    tolerance: f64,
    max_iterations: usize,
) -> DistSolveResult {
    plain_solve(DistSolver::Cg, a, b, ranks, 1, tolerance, max_iterations)
}

/// Drains the rank-tagged thread sinks of this process into a merged trace;
/// `None` when tracing is below `spans` or nothing was recorded. Shared by
/// every in-process solver (the rank threads all tagged themselves in their
/// spawn closures).
pub(crate) fn collect_thread_trace() -> Option<feir_trace::SolveTrace> {
    if feir_trace::level() != feir_trace::TraceLevel::Spans {
        return None;
    }
    let trace = feir_trace::SolveTrace::new(feir_trace::drain_all());
    (!trace.is_empty()).then_some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_solvers::{cg, SolveOptions};
    use feir_sparse::generators::{manufactured_rhs, poisson_2d};

    #[test]
    fn distributed_cg_matches_serial_cg() {
        let a = poisson_2d(12);
        let (x_true, b) = manufactured_rhs(&a, 5);
        let serial = cg(&a, &b, None, &SolveOptions::default().with_tolerance(1e-10));
        for ranks in [1usize, 2, 3, 7] {
            let dist = distributed_cg(&a, &b, ranks, 1e-10, 10_000);
            assert!(dist.converged(), "{ranks} ranks did not converge");
            assert_eq!(dist.ranks, ranks);
            assert_eq!(dist.iterations, serial.iterations, "{ranks} ranks");
            for (u, v) in dist.x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-7, "{ranks} ranks: {u} vs {v}");
            }
        }
    }

    #[test]
    fn residual_history_is_recorded_and_rank_count_invariant() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 3);
        let one = distributed_cg(&a, &b, 1, 1e-10, 10_000);
        assert_eq!(one.residual_history.len(), one.iterations + 1);
        assert!(one.residual_history.windows(2).any(|w| w[1] < w[0]));
        assert!(*one.residual_history.last().unwrap() <= 1e-10);
        for ranks in [2usize, 5] {
            let multi = distributed_cg(&a, &b, ranks, 1e-10, 10_000);
            // The deterministic rank-ordered allreduce keeps the iteration
            // count identical; the per-rank partial sums differ, so the
            // histories agree to round-off rather than bitwise.
            assert_eq!(multi.residual_history.len(), one.residual_history.len());
            for (u, v) in multi.residual_history.iter().zip(&one.residual_history) {
                assert!((u - v).abs() <= 1e-9 * (1.0 + v.abs()), "{u} vs {v}");
            }
        }
    }

    #[test]
    fn more_ranks_than_rows_is_clamped() {
        let a = poisson_2d(2); // 4 unknowns
        let (_, b) = manufactured_rhs(&a, 1);
        let dist = distributed_cg(&a, &b, 64, 1e-12, 1_000);
        assert!(dist.converged());
        assert_eq!(dist.ranks, 4);
    }

    #[test]
    fn iteration_cap_is_honoured() {
        let a = poisson_2d(10);
        let (_, b) = manufactured_rhs(&a, 2);
        let dist = distributed_cg(&a, &b, 4, 1e-14, 3);
        assert_eq!(dist.iterations, 3);
        assert!(!dist.converged());
    }
}
