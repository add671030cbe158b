//! End-to-end validation of the multi-process transport (PR 6/7): real rank
//! worker processes over Unix domain sockets must produce **bitwise** the
//! same solve as the in-process channel backend — including over a
//! chaos-injected lossy mesh, where the ack/retransmit sublayer absorbs
//! every frame fault — and killing a rank mid-solve must surface as a typed
//! [`CommError::Disconnected`] (never a panic or a hang) or, with
//! elasticity on, heal through [`feir_dist::WorkerHandles::respawn_rank`]
//! and the rejoin protocol.

use std::path::Path;
use std::time::Duration;

use feir_dist::{
    distributed_cg, distributed_pcg, solve_with_processes, spawn_workers, spawn_workers_with,
    ChaosConfig, CommError, DistSolveResult, ProcessError, ProcessSpec, Transport, WorkerHandles,
    WorkerOptions, WorkerSolver,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::{manufactured_rhs, poisson_2d};

/// Path of the rank worker binary Cargo built alongside this test.
fn worker() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_feir-rank-worker"))
}

/// Asserts two solves agree bit for bit: solution, iteration count and the
/// full residual history (each ε comes out of the same rank-ordered fold on
/// both backends, so even the histories must match exactly).
fn assert_bitwise_identical(
    label: &str,
    via_processes: &DistSolveResult,
    in_process: &DistSolveResult,
) {
    assert_eq!(
        via_processes.iterations, in_process.iterations,
        "{label}: iteration counts differ"
    );
    assert_eq!(
        via_processes.ranks, in_process.ranks,
        "{label}: rank counts differ"
    );
    assert!(
        via_processes.converged,
        "{label}: process solve did not converge"
    );
    assert_eq!(
        via_processes.residual_history.len(),
        in_process.residual_history.len(),
        "{label}: history lengths differ"
    );
    for (i, (u, v)) in via_processes
        .residual_history
        .iter()
        .zip(&in_process.residual_history)
        .enumerate()
    {
        assert_eq!(
            u.to_bits(),
            v.to_bits(),
            "{label}: residual history diverges at iteration {i}: {u:e} vs {v:e}"
        );
    }
    assert_eq!(
        via_processes.x.len(),
        in_process.x.len(),
        "{label}: solution lengths differ"
    );
    for (i, (u, v)) in via_processes.x.iter().zip(&in_process.x).enumerate() {
        assert_eq!(
            u.to_bits(),
            v.to_bits(),
            "{label}: solution diverges at entry {i}: {u:e} vs {v:e}"
        );
    }
}

#[test]
fn process_backend_cg_is_bitwise_identical_to_in_process_at_2_and_4_ranks() {
    let grid = 12;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        let spec = ProcessSpec::cg(grid, ranks);
        let via_processes =
            solve_with_processes(worker(), &spec).expect("multi-process solve failed");
        let in_process = distributed_cg(&a, &b, ranks, spec.tolerance, spec.max_iterations);
        assert_bitwise_identical(&format!("cg/ranks{ranks}"), &via_processes, &in_process);
    }
}

#[test]
fn process_backend_pcg_is_bitwise_identical_to_in_process() {
    let grid = 12;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        let spec = ProcessSpec {
            solver: WorkerSolver::Pcg,
            page_doubles: 2,
            ..ProcessSpec::cg(grid, ranks)
        };
        let via_processes =
            solve_with_processes(worker(), &spec).expect("multi-process solve failed");
        let in_process = distributed_pcg(
            &a,
            &b,
            ranks,
            spec.page_doubles,
            spec.tolerance,
            spec.max_iterations,
        );
        assert_bitwise_identical(&format!("pcg/ranks{ranks}"), &via_processes, &in_process);
    }
}

#[test]
fn process_backend_over_tcp_matches_uds_bitwise() {
    let grid = 10;
    let spec = ProcessSpec::cg(grid, 2);
    let uds = solve_with_processes(worker(), &spec).expect("uds solve failed");
    // Find a free base port by probing; a stale listener from another test
    // run must not turn into a spurious failure.
    let base_port = (0..40)
        .map(|k| 43711 + k * 17)
        .find(|p| {
            (0..spec.ranks as u16)
                .all(|r| std::net::TcpListener::bind(("127.0.0.1", p + r)).is_ok())
        })
        .expect("no free tcp port range");
    let tcp = spawn_workers(worker(), &spec, &Transport::Tcp { base_port })
        .expect("tcp spawn failed")
        .join()
        .expect("tcp solve failed");
    assert_bitwise_identical("cg/tcp-vs-uds", &tcp, &uds);
}

/// The scripted chaos mix of the lossy-mesh tests: drops, duplicates,
/// one-slot reorders, header bit flips and truncations, with retransmissions
/// travelling clean (the default), so every fault is absorbable.
fn chaos_options() -> WorkerOptions {
    WorkerOptions {
        chaos: Some(
            ChaosConfig::parse(
                "seed=1207,drop=0.012,dup=0.006,delay=0.006,corrupt=0.004,trunc=0.004",
            )
            .expect("chaos schedule parses"),
        ),
        // A short timer keeps the retransmission stalls from dominating the
        // test's wall clock.
        retransmit_timeout: Some(Duration::from_millis(10)),
        ..WorkerOptions::default()
    }
}

/// Spawns a fresh UDS rendezvous for `spec` with `options` and joins it.
fn solve_uds_with(spec: &ProcessSpec, options: &WorkerOptions) -> DistSolveResult {
    let dir = std::env::temp_dir().join(format!(
        "feir-chaos-{}-{}",
        std::process::id(),
        spec.ranks * 1000 + spec.grid
    ));
    let _ = std::fs::remove_dir_all(&dir);
    spawn_workers_with(worker(), spec, &Transport::Uds { dir }, options)
        .expect("chaos spawn failed")
        .join()
        .expect("chaos solve failed")
}

#[test]
fn chaos_mesh_cg_is_bitwise_identical_to_clean_at_2_and_4_ranks() {
    let grid = 12;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        let spec = ProcessSpec::cg(grid, ranks);
        let lossy = solve_uds_with(&spec, &chaos_options());
        let clean = distributed_cg(&a, &b, ranks, spec.tolerance, spec.max_iterations);
        assert_bitwise_identical(&format!("chaos-cg/ranks{ranks}"), &lossy, &clean);
    }
}

#[test]
fn chaos_mesh_pcg_is_bitwise_identical_to_clean_at_2_and_4_ranks() {
    let grid = 12;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        let spec = ProcessSpec {
            solver: WorkerSolver::Pcg,
            page_doubles: 2,
            ..ProcessSpec::cg(grid, ranks)
        };
        let lossy = solve_uds_with(&spec, &chaos_options());
        let clean = distributed_pcg(
            &a,
            &b,
            ranks,
            spec.page_doubles,
            spec.tolerance,
            spec.max_iterations,
        );
        assert_bitwise_identical(&format!("chaos-pcg/ranks{ranks}"), &lossy, &clean);
    }
}

#[test]
fn chaos_mesh_over_tcp_is_bitwise_identical_to_clean_at_2_and_4_ranks() {
    let grid = 10;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        let spec = ProcessSpec::cg(grid, ranks);
        let base_port = (0..40)
            .map(|k| 44519 + k * 23)
            .find(|p| {
                (0..spec.ranks as u16)
                    .all(|r| std::net::TcpListener::bind(("127.0.0.1", p + r)).is_ok())
            })
            .expect("no free tcp port range");
        let lossy = spawn_workers_with(
            worker(),
            &spec,
            &Transport::Tcp { base_port },
            &chaos_options(),
        )
        .expect("tcp chaos spawn failed")
        .join()
        .expect("tcp chaos solve failed");
        let clean = distributed_cg(&a, &b, ranks, spec.tolerance, spec.max_iterations);
        assert_bitwise_identical(&format!("chaos-cg/tcp/ranks{ranks}"), &lossy, &clean);
    }
}

/// Spawns an elastic fleet, kills rank 1 mid-solve, respawns it, and joins.
fn kill_respawn_solve(spec: &ProcessSpec, policy: RecoveryPolicy, tag: &str) -> DistSolveResult {
    let dir = std::env::temp_dir().join(format!("feir-rejoin-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = WorkerOptions {
        policy: Some(policy),
        elastic: true,
        // Dilate the iterations so the kill deterministically lands
        // mid-solve (a sleep does no floating-point work).
        spin: Some(Duration::from_millis(8)),
        ..WorkerOptions::default()
    };
    let mut handles = spawn_workers_with(
        worker(),
        spec,
        &Transport::Uds { dir: dir.clone() },
        &options,
    )
    .expect("elastic spawn failed");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while (0..spec.ranks).any(|r| !dir.join(format!("rank{r}.sock")).exists()) {
        assert!(
            std::time::Instant::now() < deadline,
            "workers never bound their sockets"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The solve starts right after the handshake and runs ≥ 8 ms per
    // iteration; a quarter second in, the kill is safely mid-solve.
    std::thread::sleep(Duration::from_millis(250));
    handles.kill_rank(1).expect("kill failed");
    std::thread::sleep(Duration::from_millis(50));
    handles.respawn_rank(1).expect("respawn failed");
    handles.join().expect("elastic solve failed after rejoin")
}

#[test]
fn kill_and_respawn_completes_under_every_recovering_policy() {
    let grid = 20;
    let ranks = 3;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    let spec = ProcessSpec::cg(grid, ranks);
    let reference = distributed_cg(&a, &b, ranks, spec.tolerance, spec.max_iterations);
    assert!(reference.converged);
    let norm_ref: f64 = reference.x.iter().map(|v| v * v).sum::<f64>().sqrt();
    for policy in [
        RecoveryPolicy::Checkpoint { interval: 25 },
        RecoveryPolicy::Feir,
        RecoveryPolicy::Afeir,
    ] {
        let solve = kill_respawn_solve(&spec, policy, policy.name());
        assert!(
            solve.converged,
            "{policy:?}: rejoined solve did not converge"
        );
        assert!(
            solve.relative_residual <= spec.tolerance * 10.0,
            "{policy:?}: explicit residual {:e} after rejoin",
            solve.relative_residual
        );
        // Both solves meet the same residual tolerance, so the rejoined
        // solution must agree with the fault-free reference to round-off
        // (the conditioning of the Poisson operator bounds the gap).
        let diff: f64 = solve
            .x
            .iter()
            .zip(&reference.x)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(
            diff / norm_ref <= 1e-5,
            "{policy:?}: rejoined solution drifts {:e} from the reference",
            diff / norm_ref
        );
    }
}

#[test]
fn kill_and_respawn_under_trivial_policy_degrades_honestly_but_completes() {
    // Trivial restarts the rejoined rank's rows from zero instead of
    // interpolating them — a worse iterate, more restart iterations — but
    // CG still converges and the final answer still meets the tolerance.
    let grid = 20;
    let ranks = 3;
    let a = poisson_2d(grid);
    let (_, b) = manufactured_rhs(&a, 5);
    let spec = ProcessSpec::cg(grid, ranks);
    let reference = distributed_cg(&a, &b, ranks, spec.tolerance, spec.max_iterations);
    let solve = kill_respawn_solve(&spec, RecoveryPolicy::Trivial, "trivial");
    assert!(solve.converged, "trivial rejoin did not converge");
    assert!(
        solve.iterations >= reference.iterations,
        "a zeroed restart cannot use fewer iterations than the clean solve \
         ({} vs {})",
        solve.iterations,
        reference.iterations
    );
    assert!(solve.relative_residual <= spec.tolerance * 10.0);
}

#[test]
fn dropping_worker_handles_reaps_the_fleet() {
    // A solve that would run for minutes; dropping the handles must kill and
    // reap every worker rather than leaking orphans holding sockets.
    let spec = ProcessSpec {
        tolerance: -1.0,
        max_iterations: 50_000_000,
        ..ProcessSpec::cg(64, 2)
    };
    let dir = std::env::temp_dir().join(format!("feir-drop-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handles: WorkerHandles =
        spawn_workers(worker(), &spec, &Transport::Uds { dir: dir.clone() }).expect("spawn failed");
    let pids = handles.pids();
    assert_eq!(pids.len(), 2);
    for pid in &pids {
        assert!(
            Path::new(&format!("/proc/{pid}")).exists(),
            "worker {pid} is not running"
        );
    }
    drop(handles);
    // Drop kills and waits synchronously, so the processes are reaped (no
    // zombies) by the time it returns.
    for pid in &pids {
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "worker {pid} leaked past Drop"
        );
    }
}

/// Runs the worker binary with `stdin` as its launch input; returns whether
/// it succeeded and what it wrote to stderr. A worker still running after
/// 10 s is a failure of its own.
fn run_worker_with_stdin(stdin: &[u8]) -> (bool, String) {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(worker())
        .env("FEIR_RANK_WORKER", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker failed to start");
    // The worker may refuse a bad frame before reading all of it.
    let _ = child.stdin.take().unwrap().write_all(stdin);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("worker still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let stderr = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
    (status.success(), stderr)
}

#[test]
fn malformed_worker_config_is_refused() {
    use feir_wire::chaos::FaultRates;
    use feir_wire::{Message, WorkerConfig, HEADER_LEN, WIRE_VERSION};
    fn rates(c: &mut WorkerConfig) -> &mut FaultRates {
        &mut c.chaos.as_mut().unwrap().1
    }
    let dir = std::env::temp_dir().join(format!("feir-config-test-{}", std::process::id()));
    // A single-rank CG solve on a 4×4 grid over UDS under 1 % drops (the
    // zero transport, solver and policy codes are UDS, CG and the plain loop).
    let chaos = ChaosConfig::parse("seed=3,drop=0.01").unwrap();
    let good = WorkerConfig {
        ranks: 1,
        epochs: vec![0],
        uds_dir: dir.to_str().unwrap().as_bytes().to_vec(),
        grid: 4,
        rhs_seed: 1,
        page_doubles: 16,
        tolerance: 1e-8,
        max_iterations: 1000,
        chaos: Some((chaos.seed, chaos.rates, chaos.fault_retransmits)),
        retransmit_timeout_us: u64::MAX,
        spin_us: u64::MAX,
        ..WorkerConfig::default()
    };
    let edited = |edit: fn(&mut WorkerConfig)| {
        let mut config = good.clone();
        edit(&mut config);
        Message::WorkerConfig(config).encode()
    };
    let good_frame = edited(|_| {});
    let mut wrong_version = good_frame.clone();
    wrong_version[2] = WIRE_VERSION - 1;
    let wrong_tag = Message::GatherScalar {
        rank: 0,
        value: 0.0,
    }
    .encode();

    let mut cases = vec![
        ("empty stdin", Vec::new()),
        ("garbage", b"not a wire frame at all".to_vec()),
        ("wrong version", wrong_version),
        ("wrong tag", wrong_tag),
        ("rank >= ranks", edited(|c| c.rank = 1)),
        ("3 epochs", edited(|c| c.epochs = vec![0; 3])),
        ("solver code", edited(|c| c.solver = 9)),
        ("policy code", edited(|c| c.policy = 42)),
        ("transport code", edited(|c| c.transport = 7)),
        ("NaN rate", edited(|c| rates(c).drop = f64::NAN)),
        ("rate above 1", edited(|c| rates(c).drop = 2.0)),
        ("negative rate", edited(|c| rates(c).delay = -0.1)),
        ("rates over 1", edited(|c| rates(c).duplicate = 0.995)),
        ("grid 0", edited(|c| c.grid = 0)),
        ("page_doubles 0", edited(|c| c.page_doubles = 0)),
    ];
    for cut in [1, HEADER_LEN, HEADER_LEN + 9, good_frame.len() - 1] {
        cases.push(("truncated", good_frame[..cut].to_vec()));
    }
    for (what, stdin) in cases {
        let (ok, stderr) = run_worker_with_stdin(&stdin);
        assert!(!ok, "{what}: the worker accepted it");
        let one_line = stderr.trim().lines().count() == 1;
        assert!(
            one_line && !stderr.contains("panicked at"),
            "{what}: {stderr}"
        );
    }
    // Control: the well-formed frame runs the single-rank solve to success.
    let (ok, stderr) = run_worker_with_stdin(&good_frame);
    assert!(ok, "a well-formed launch frame was refused: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_a_rank_mid_solve_is_a_typed_disconnect_not_a_hang() {
    // A solve that cannot finish quickly: a negative tolerance is never
    // reached (the residual is non-negative), so the loop only ends at the
    // huge iteration cap or on exact breakdown — which the finite-termination
    // property of CG puts past n = 96² iterations, i.e. hundreds of
    // milliseconds of socket round trips. Kill rank 1 once the mesh is up;
    // the survivors must observe the closed sockets and report a typed
    // disconnect.
    let spec = ProcessSpec {
        tolerance: -1.0,
        max_iterations: 50_000_000,
        ..ProcessSpec::cg(96, 3)
    };
    let dir = std::env::temp_dir().join(format!("feir-kill-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut handles =
        spawn_workers(worker(), &spec, &Transport::Uds { dir: dir.clone() }).expect("spawn failed");
    // Wait for every rank's listener socket to appear — the solve starts
    // right after the mesh handshake, so from here a short sleep lands the
    // kill mid-iteration.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while (0..3).any(|r| !dir.join(format!("rank{r}.sock")).exists()) {
        assert!(
            std::time::Instant::now() < deadline,
            "workers never bound their sockets"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(100));
    handles.kill_rank(1).expect("kill failed");
    match handles.join() {
        Err(ProcessError::Comm {
            error: CommError::Disconnected { .. },
            ..
        }) => {}
        Err(other) => panic!("expected a typed disconnect, got: {other}"),
        Ok(result) => panic!(
            "solve unexpectedly completed ({} iterations) despite the killed rank",
            result.iterations
        ),
    }
}
