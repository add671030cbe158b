//! The five workloads: what each one solves, how one solve is run and timed
//! from outside, and the correctness gate every solve passes through.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use feir_dist::{
    distributed_resilient_cg, spawn_workers_with, ChaosConfig, DistResilienceConfig, HaloPlan,
    NetStats, ProcessSpec, RankPartition, ScriptedFault, Transport, WorkerHandles, WorkerOptions,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::{manufactured_rhs, poisson_2d, poisson_3d_27pt};
use feir_sparse::CsrMatrix;
use feir_trace::SolveTrace;

use crate::schedule::{fault_schedule, Mix, COUPLED_PAGES};
use crate::stats::SplitMix64;

/// Rank count of every workload. Fixed, not derived from the host: the
/// rank-ordered reductions make iteration counts depend on it.
pub const RANKS: usize = 2;
/// Every solve runs to this relative residual.
pub const TOLERANCE: f64 = 1e-8;
const MAX_ITERATIONS: usize = 10_000;
/// A process solve that has not returned by then is killed and counted as
/// failed. Two orders of magnitude above the slowest healthy solve.
const PROCESS_DEADLINE: Duration = Duration::from_secs(30);
/// `lossy_wire`: per-frame fault rates and the retransmission timeout.
const CHAOS_RATES: &str = "drop=0.01,dup=0.005,delay=0.005,corrupt=0.005";
const RETRANSMIT_TIMEOUT: Duration = Duration::from_millis(10);
/// `lossy_wire` walks this list of chaos seeds, one per solve, whatever
/// `--seed` is. A retransmission stalls the solve ≈22 ms and a solve sees
/// ≈25 of them, Poisson-distributed: drawing the fault pattern afresh per run
/// would put ≥6 % of run-to-run spread on `solve_s` that no change to the
/// code could remove. With a fixed cycle every run pays for the same faults
/// and `--seed` still chooses the right-hand side.
const CHAOS_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FfKernel,
    FfWire,
    DueAfeir,
    DueFeir,
    LossyWire,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::FfKernel,
        Kind::FfWire,
        Kind::DueAfeir,
        Kind::DueFeir,
        Kind::LossyWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FfKernel => "ff_kernel",
            Kind::FfWire => "ff_wire",
            Kind::DueAfeir => "due_afeir",
            Kind::DueFeir => "due_feir",
            Kind::LossyWire => "lossy_wire",
        }
    }

    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::FfKernel => {
                "in-process AFEIR CG, no faults, 27-point 3D Poisson 56^3: SpMV and fused BLAS-1 \
                 dominate, comm and recovery idle; the paper's protection-on, no-errors case"
            }
            Kind::FfWire => {
                "2 worker processes over UDS, clean wire, 2D Poisson 64^2: ~10 us of compute per \
                 iteration, so launch, framing and socket collectives are the time"
            }
            Kind::DueAfeir => {
                "in-process AFEIR CG on 2D Poisson 128^2 under 24 scripted DUEs incl. cross-rank \
                 and one coupled pair: reconstruction is ~90% of the solve, overlapped"
            }
            Kind::DueFeir => {
                "same inputs and fault schedule as due_afeir under FEIR: the recovery layer used \
                 synchronously; hiding recovery must move due_afeir only, cheaper recovery both"
            }
            Kind::LossyWire => {
                "ff_wire under 1% drop + 0.5% dup/delay/corrupt with a 10 ms RTO: time is \
                 retransmit stalls, so the ack/retransmit path shows here and not on ff_wire"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn uses_processes(self) -> bool {
        matches!(self, Kind::FfWire | Kind::LossyWire)
    }

    pub fn injects_dues(self) -> bool {
        matches!(self, Kind::DueAfeir | Kind::DueFeir)
    }

    /// The public call one solve of this workload is: the span the traced
    /// pass records around it.
    pub fn entry_point(self) -> &'static str {
        if self.uses_processes() {
            "process.spawn_workers_with..join"
        } else {
            "dist.distributed_resilient_cg"
        }
    }

    fn policy(self) -> RecoveryPolicy {
        match self {
            Kind::DueFeir => RecoveryPolicy::Feir,
            _ => RecoveryPolicy::Afeir,
        }
    }
}

/// Problem sizes and pass lengths: the measured configuration, or the tiny
/// one `--smoke` and the crate's test run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub kernel_grid: usize,
    pub wire_grid: usize,
    pub due_grid: usize,
    pub page_doubles: usize,
    pub mix: Mix,
    /// Discarded solves before timing starts.
    pub warmups: usize,
    /// Timed solves at least, however short `--seconds` is.
    pub min_timed: usize,
    /// Solves per reference configuration (ideal, fault-free, plain).
    pub ref_solves: usize,
    /// Solves in the traced pass.
    pub traced_solves: usize,
    /// Set-up repetitions at least; cheap set-ups repeat until
    /// `setup_budget` is spent.
    pub setup_reps: usize,
    pub setup_budget: Duration,
    /// Time budget of one harness probe.
    pub probe_budget: Duration,
    /// Batches per two-thread communication probe.
    pub comm_batches: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        kernel_grid: 56,
        wire_grid: 64,
        due_grid: 128,
        page_doubles: feir_sparse::PAGE_DOUBLES,
        mix: Mix::FULL,
        warmups: 2,
        min_timed: 4,
        ref_solves: 5,
        traced_solves: 5,
        setup_reps: 3,
        setup_budget: Duration::from_millis(500),
        probe_budget: Duration::from_millis(100),
        comm_batches: 15,
    };

    pub const SMOKE: Scale = Scale {
        kernel_grid: 8,
        wire_grid: 16,
        due_grid: 32,
        page_doubles: 64,
        mix: Mix::SMOKE,
        warmups: 1,
        min_timed: 3,
        ref_solves: 1,
        traced_solves: 2,
        setup_reps: 3,
        setup_budget: Duration::ZERO,
        probe_budget: Duration::from_millis(2),
        comm_batches: 2,
    };
}

/// The operator family of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Operator {
    Poisson2d(usize),
    Poisson3d27(usize),
}

impl Operator {
    pub fn build(self) -> CsrMatrix {
        match self {
            Operator::Poisson2d(grid) => poisson_2d(grid),
            Operator::Poisson3d27(grid) => poisson_3d_27pt(grid),
        }
    }

    /// The smallest member of the family spanning two pages — what the
    /// all-blocks `BlockRecovery::new` probe can afford to factorize.
    pub fn two_pages(self, page_doubles: usize) -> Operator {
        let rows = 2 * page_doubles;
        match self {
            Operator::Poisson2d(_) => {
                Operator::Poisson2d((1..).find(|g| g * g >= rows).expect("unbounded"))
            }
            Operator::Poisson3d27(_) => {
                Operator::Poisson3d27((1..).find(|g| g * g * g >= rows).expect("unbounded"))
            }
        }
    }
}

/// Everything built before the first solve; building it is `setup_s`.
pub struct Problem {
    pub a: CsrMatrix,
    pub b: Vec<f64>,
    pub partition: RankPartition,
    pub plan: HaloPlan,
}

impl Problem {
    pub fn build(operator: Operator, rhs_seed: u64) -> Problem {
        let a = operator.build();
        let (_, b) = manufactured_rhs(&a, rhs_seed);
        let partition = RankPartition::new(a.rows(), RANKS);
        let plan = HaloPlan::build(&a, &partition);
        Problem {
            a,
            b,
            partition,
            plan,
        }
    }
}

/// Which configuration of the workload's loop to run: the workload itself or
/// one of the references its derived metrics are taken against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Measured,
    /// Same loop, policy `Ideal`, no faults, clean wire.
    Ideal,
    /// The workload's policy with no DUEs and a clean wire.
    FaultFree,
    /// Process workloads: the plain (unprotected) rank loop on the same mesh.
    Plain,
}

/// What one solve returned, as the caller sees it.
pub struct Outcome {
    /// Call to return, on the `feir_trace::now_ns` clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process workloads: when `spawn_workers_with` returned (`join` runs
    /// from there to `end_ns`). Equal to `start_ns` in-process.
    pub launched_ns: u64,
    pub iterations: usize,
    pub residual_rel: f64,
    pub converged: bool,
    pub x: Vec<f64>,
    pub history: Vec<f64>,
    pub allreduces: u64,
    pub pages_injected: usize,
    pub pages_recovered: usize,
    pub pages_ignored: usize,
    pub pages_coupled: usize,
    pub cross_rank_values: usize,
    pub net: NetStats,
    pub trace: Option<SolveTrace>,
}

impl Outcome {
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn launch_s(&self) -> f64 {
        (self.launched_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn join_s(&self) -> f64 {
        (self.end_ns - self.launched_ns) as f64 * 1e-9
    }

    fn same_solution(&self, other: &Outcome) -> bool {
        self.iterations == other.iterations
            && self.x.len() == other.x.len()
            && self
                .x
                .iter()
                .zip(&other.x)
                .all(|(u, v)| u.to_bits() == v.to_bits())
    }
}

/// A workload bound to the inputs one `--seed` generated.
pub struct Workload {
    pub kind: Kind,
    pub scale: Scale,
    pub operator: Operator,
    pub rhs_seed: u64,
    pub problem: Problem,
    /// Seconds each `Problem::build` repetition took.
    pub setup_samples: Vec<f64>,
    /// `due_*`: the scripted DUEs. Empty elsewhere.
    pub schedule: Vec<ScriptedFault>,
    /// Process workloads: the in-process run of the same loop every process
    /// solve must equal bit for bit.
    in_process_twin: Option<Outcome>,
    exe: PathBuf,
}

impl Workload {
    /// Generates the inputs from `seed`, timing the set-up, then does the
    /// untimed preparation the gate needs.
    pub fn prepare(kind: Kind, scale: Scale, seed: u64, exe: &Path) -> Workload {
        // One generator for all workloads, so that `due_afeir` and
        // `due_feir` are handed identical inputs.
        let mut rng = SplitMix64::new(seed);
        let rhs_seed = rng.next_u64() >> 32;
        let mut schedule_rng = SplitMix64::new(rng.next_u64());

        let operator = match kind {
            Kind::FfKernel => Operator::Poisson3d27(scale.kernel_grid),
            Kind::FfWire | Kind::LossyWire => Operator::Poisson2d(scale.wire_grid),
            Kind::DueAfeir | Kind::DueFeir => Operator::Poisson2d(scale.due_grid),
        };
        let mut setup_samples = Vec::new();
        let setup_clock = std::time::Instant::now();
        let problem = loop {
            let t = std::time::Instant::now();
            let problem = Problem::build(operator, rhs_seed);
            setup_samples.push(t.elapsed().as_secs_f64());
            if setup_samples.len() >= scale.setup_reps
                && setup_clock.elapsed() >= scale.setup_budget
            {
                break problem;
            }
        };

        let mut workload = Workload {
            kind,
            scale,
            operator,
            rhs_seed,
            problem,
            setup_samples,
            schedule: Vec::new(),
            in_process_twin: None,
            exe: exe.to_path_buf(),
        };
        if kind.injects_dues() {
            // The schedule is laid over the fault-free iteration count, which
            // exact recovery preserves.
            let iterations = workload.in_process(RecoveryPolicy::Ideal, &[]).iterations;
            let pages = workload
                .problem
                .partition
                .range(0)
                .len()
                .div_ceil(scale.page_doubles);
            workload.schedule = fault_schedule(&mut schedule_rng, scale.mix, pages, iterations);
        }
        if kind.uses_processes() {
            workload.in_process_twin = Some(workload.in_process(kind.policy(), &[]));
        }
        workload
    }

    /// Runs one solve of `variant`. `index` numbers the solve within its
    /// pass (it selects `lossy_wire`'s chaos seed).
    pub fn solve(&self, variant: Variant, index: usize) -> Result<Outcome, String> {
        let policy = match variant {
            Variant::Ideal => RecoveryPolicy::Ideal,
            _ => self.kind.policy(),
        };
        if !self.kind.uses_processes() {
            let faults: &[ScriptedFault] = match variant {
                Variant::Measured => &self.schedule,
                _ => &[],
            };
            return Ok(self.in_process(policy, faults));
        }
        let spec = ProcessSpec {
            grid: self.scale.wire_grid,
            rhs_seed: self.rhs_seed,
            page_doubles: self.scale.page_doubles,
            tolerance: TOLERANCE,
            max_iterations: MAX_ITERATIONS,
            ..ProcessSpec::cg(self.scale.wire_grid, RANKS)
        };
        let mut options = WorkerOptions {
            policy: (variant != Variant::Plain).then_some(policy),
            ..WorkerOptions::default()
        };
        if self.kind == Kind::LossyWire && variant == Variant::Measured {
            let seed = CHAOS_SEEDS[self.wire_pattern(index)];
            options.chaos = Some(
                ChaosConfig::parse(&format!("seed={seed},{CHAOS_RATES}"))
                    .expect("the chaos rates are a constant of this file"),
            );
            options.retransmit_timeout = Some(RETRANSMIT_TIMEOUT);
        }
        self.over_processes(&spec, &options)
    }

    /// Which fault pattern the wire shows solve `index`: the position in the
    /// chaos-seed cycle on `lossy_wire`, 0 (always the same wire) elsewhere.
    pub fn wire_pattern(&self, index: usize) -> usize {
        if self.kind == Kind::LossyWire {
            index % CHAOS_SEEDS.len()
        } else {
            0
        }
    }

    fn in_process(&self, policy: RecoveryPolicy, faults: &[ScriptedFault]) -> Outcome {
        let config = DistResilienceConfig::for_policy(policy)
            .with_page_doubles(self.scale.page_doubles)
            .with_tolerance(TOLERANCE)
            .with_max_iterations(MAX_ITERATIONS)
            .with_scripted_faults(faults.to_vec());
        let start_ns = feir_trace::now_ns();
        let report = distributed_resilient_cg(&self.problem.a, &self.problem.b, RANKS, config);
        let end_ns = feir_trace::now_ns();
        Outcome {
            start_ns,
            end_ns,
            launched_ns: start_ns,
            iterations: report.iterations,
            residual_rel: report.relative_residual,
            converged: report.converged,
            x: report.x,
            history: report.residual_history,
            allreduces: report.allreduces,
            pages_injected: report.faults.total_injected(),
            pages_recovered: report.pages_recovered,
            pages_ignored: report.pages_ignored,
            pages_coupled: report.pages_coupled,
            cross_rank_values: report.cross_rank_values,
            net: NetStats::default(),
            trace: report.trace,
        }
    }

    fn over_processes(
        &self,
        spec: &ProcessSpec,
        options: &WorkerOptions,
    ) -> Result<Outcome, String> {
        let transport = Transport::Uds {
            dir: fresh_mesh_dir(),
        };
        let start_ns = feir_trace::now_ns();
        let handles = spawn_workers_with(&self.exe, spec, &transport, options)
            .map_err(|e| format!("launch: {e}"))?;
        let launched_ns = feir_trace::now_ns();
        let result = join_within(handles, PROCESS_DEADLINE)?;
        let end_ns = feir_trace::now_ns();
        Ok(Outcome {
            start_ns,
            end_ns,
            launched_ns,
            iterations: result.iterations,
            residual_rel: result.relative_residual,
            converged: result.converged,
            x: result.x,
            history: result.residual_history,
            allreduces: result.allreduces,
            pages_injected: 0,
            pages_recovered: 0,
            pages_ignored: 0,
            pages_coupled: 0,
            cross_rank_values: 0,
            net: result.net,
            trace: result.trace,
        })
    }

    /// The correctness gate of one measured solve against the workload's
    /// first. `Err` says what was wrong; the caller counts it as a failed
    /// operation and keeps no timing sample from it.
    pub fn gate(&self, outcome: &Outcome, first: &Outcome) -> Result<(), String> {
        let residual_ok = outcome.residual_rel <= TOLERANCE;
        if !(outcome.converged && residual_ok) {
            return Err(format!(
                "explicit residual {:e} misses {TOLERANCE:e} after {} iterations",
                outcome.residual_rel, outcome.iterations
            ));
        }
        if !outcome.same_solution(first) {
            return Err(format!(
                "solution differs from the workload's first solve ({} vs {} iterations)",
                outcome.iterations, first.iterations
            ));
        }
        if let Some(twin) = &self.in_process_twin {
            let same_history = outcome.history.len() == twin.history.len()
                && outcome
                    .history
                    .iter()
                    .zip(&twin.history)
                    .all(|(u, v)| u.to_bits() == v.to_bits());
            if !outcome.same_solution(twin) || !same_history {
                return Err("process solve is not bit-equal to the in-process loop".into());
            }
        }
        if self.kind == Kind::FfWire && outcome.net.retransmits != 0 {
            return Err(format!(
                "{} retransmits on a clean wire",
                outcome.net.retransmits
            ));
        }
        if self.kind.injects_dues() {
            let expected = (self.schedule.len(), 0, COUPLED_PAGES);
            let got = (
                outcome.pages_recovered,
                outcome.pages_ignored,
                outcome.pages_coupled,
            );
            if got != expected {
                return Err(format!(
                    "pages (recovered, ignored, coupled) = {got:?}, schedule says {expected:?}"
                ));
            }
        }
        Ok(())
    }
}

/// A fresh rendezvous directory under `out/`, named relative to the working
/// directory (the harness moves into its own crate directory at start-up):
/// socket paths must fit `sun_path`'s 108 bytes wherever the checkout lives,
/// and nothing is written outside the checkout. The launcher removes the
/// directory when the fleet is joined or dropped.
pub fn fresh_mesh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(format!(
        "out/mesh-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// `handles.join()` under a wall-clock deadline: a watchdog kills the
/// workers when it passes, which makes their pipes close and `join` return
/// an error. `join` reaps the workers and drops the rendezvous directory on
/// every path.
fn join_within(
    handles: WorkerHandles,
    deadline: Duration,
) -> Result<feir_dist::DistSolveResult, String> {
    let pids = handles.pids();
    let (done, wait) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let watchdog = scope.spawn(move || {
            let expired = wait.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout);
            if expired {
                for pid in pids {
                    kill(pid);
                }
            }
            expired
        });
        let result = handles.join();
        drop(done);
        let expired = watchdog.join().expect("the watchdog does not panic");
        match result {
            Ok(result) => Ok(result),
            Err(e) if expired => Err(format!("killed at the {deadline:?} deadline: {e}")),
            Err(e) => Err(e.to_string()),
        }
    })
}

/// SIGKILL to one of our own worker processes.
fn kill(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: `kill(2)` takes two integers and touches no memory of this
    // process. The pid is a child this process spawned and has not yet
    // reaped (the watchdog only fires while `join` is still blocked), so it
    // cannot have been reused.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}
