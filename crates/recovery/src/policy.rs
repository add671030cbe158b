//! Resilience policy selection and configuration.

use serde::{Deserialize, Serialize};

/// The resilience technique applied to the solver — the five methods compared
/// throughout the paper's evaluation plus the non-resilient ideal baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// No resilience mechanism and no fault checks at all; the reference
    /// "ideal CG" every overhead is measured against.
    Ideal,
    /// Trivial forward recovery: lost pages are replaced by blank pages and
    /// execution simply continues (Section 4.1). Convergence guarantees are
    /// lost.
    Trivial,
    /// Trivial blank-accept followed by a residual-replacement rebuild of
    /// the recurrence state (the merged solvers' restart machinery): the
    /// blanked vectors are made mutually consistent again, so the iteration
    /// keeps converging at the price of a restart. A fair comparison point
    /// for `Trivial`, which honestly diverges on the merged loops.
    TrivialReplace,
    /// Periodic checkpoint of `x` and `d` with rollback on error
    /// (Section 4.2). The interval is in solver iterations.
    Checkpoint {
        /// Checkpoint period in iterations.
        interval: usize,
    },
    /// The Lossy Restart (Section 4.3): block-Jacobi interpolation of lost
    /// iterate pages followed by a restart.
    LossyRestart,
    /// Forward Exact Interpolation Recovery with recovery tasks in the
    /// critical path (Figure 2(a)).
    Feir,
    /// Asynchronous FEIR: recovery tasks overlapped with the reductions at
    /// lower priority (Figure 2(b)). The shared-memory
    /// [`ResilientCg`](crate::ResilientCg) forks each recovery task onto the
    /// work-stealing pool beside the reduction it hides behind. The
    /// distributed rank loops repair exactly as [`RecoveryPolicy::Feir`]
    /// does, bit for bit, and only post earlier: the round-1 recovery
    /// requests inside the flagged reduction's window and, when only
    /// iterate pages were lost, the ε reduction before the iterate repair.
    Afeir,
}

impl RecoveryPolicy {
    /// All policies compared in Figure 4, in the paper's plotting order.
    pub const COMPARED: [RecoveryPolicy; 5] = [
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Feir,
        RecoveryPolicy::LossyRestart,
        RecoveryPolicy::Checkpoint { interval: 1000 },
        RecoveryPolicy::Trivial,
    ];

    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Ideal => "ideal",
            RecoveryPolicy::Trivial => "trivial",
            RecoveryPolicy::TrivialReplace => "triv+rr",
            RecoveryPolicy::Checkpoint { .. } => "ckpt",
            RecoveryPolicy::LossyRestart => "lossy",
            RecoveryPolicy::Feir => "FEIR",
            RecoveryPolicy::Afeir => "AFEIR",
        }
    }

    /// True for the two methods contributed by the paper.
    pub fn is_forward_exact(&self) -> bool {
        matches!(self, RecoveryPolicy::Feir | RecoveryPolicy::Afeir)
    }

    /// True if the policy needs page-fault tracking machinery (everything but
    /// the ideal baseline).
    pub fn needs_protection(&self) -> bool {
        !matches!(self, RecoveryPolicy::Ideal)
    }
}

/// Full configuration of a resilient solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// The recovery policy.
    pub policy: RecoveryPolicy,
    /// Block/page size in doubles (512 = one 4 KiB page, the paper's value;
    /// tests use smaller pages so small matrices span several pages).
    pub page_doubles: usize,
    /// Use the block-Jacobi preconditioner (the paper's PCG variant).
    pub preconditioned: bool,
    /// Checkpoints go to local disk (realistic cost) instead of memory.
    pub checkpoint_on_disk: bool,
    /// Worker-thread count assumed by the FEIR time-accounting model
    /// (`None` = the ambient rayon pool size; see
    /// [`ResilienceConfig::effective_threads`]).
    pub threads: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            policy: RecoveryPolicy::Feir,
            page_doubles: feir_sparse::PAGE_DOUBLES,
            preconditioned: false,
            checkpoint_on_disk: false,
            threads: None,
        }
    }
}

impl ResilienceConfig {
    /// Configuration for the given policy with all other fields defaulted.
    pub fn for_policy(policy: RecoveryPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Builder-style setter for the worker-thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Worker-thread count used by the solver's time-accounting model (the
    /// FEIR critical-path idle attribution): the explicit
    /// [`ResilienceConfig::threads`] override when set, otherwise the ambient
    /// rayon pool size (which itself honors the `FEIR_NUM_THREADS`
    /// environment variable).
    ///
    /// Note that the strip-mined phases always *execute* on the ambient
    /// rayon pool; an override only changes the accounting. To change actual
    /// execution width, size the pool itself (`FEIR_NUM_THREADS`,
    /// `rayon::ThreadPoolBuilder`, or `ThreadPool::install`) and leave this
    /// at `None` so model and hardware agree.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(rayon::current_num_threads)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(RecoveryPolicy::Feir.name(), "FEIR");
        assert_eq!(RecoveryPolicy::Afeir.name(), "AFEIR");
        assert_eq!(RecoveryPolicy::Checkpoint { interval: 7 }.name(), "ckpt");
        assert_eq!(RecoveryPolicy::Ideal.name(), "ideal");
    }

    #[test]
    fn classification_helpers() {
        assert!(RecoveryPolicy::Feir.is_forward_exact());
        assert!(RecoveryPolicy::Afeir.is_forward_exact());
        assert!(!RecoveryPolicy::LossyRestart.is_forward_exact());
        assert!(!RecoveryPolicy::TrivialReplace.is_forward_exact());
        assert!(!RecoveryPolicy::Ideal.needs_protection());
        assert!(RecoveryPolicy::Trivial.needs_protection());
        assert!(RecoveryPolicy::TrivialReplace.needs_protection());
        assert_eq!(RecoveryPolicy::TrivialReplace.name(), "triv+rr");
    }

    #[test]
    fn compared_set_has_five_methods() {
        assert_eq!(RecoveryPolicy::COMPARED.len(), 5);
        assert!(!RecoveryPolicy::COMPARED.contains(&RecoveryPolicy::Ideal));
    }

    #[test]
    fn effective_threads_prefers_the_explicit_override() {
        let cfg = ResilienceConfig::default().with_threads(Some(6));
        assert_eq!(cfg.effective_threads(), 6);
        let ambient = ResilienceConfig::default().with_threads(None);
        assert_eq!(ambient.effective_threads(), rayon::current_num_threads());
        // A zero override degenerates to one worker instead of panicking.
        let zero = ResilienceConfig::default().with_threads(Some(0));
        assert_eq!(zero.effective_threads(), 1);
    }

    #[test]
    fn default_config_uses_page_sized_blocks() {
        let cfg = ResilienceConfig::default();
        assert_eq!(cfg.page_doubles, 512);
        assert!(!cfg.preconditioned);
        let cfg2 = ResilienceConfig::for_policy(RecoveryPolicy::Trivial);
        assert_eq!(cfg2.policy, RecoveryPolicy::Trivial);
    }
}
