//! Cross-rank tracing over the real multi-process transport: run a solve
//! with `FEIR_TRACE=spans`, collect every worker's trace stream through the
//! `TraceDump` wire frame, merge them on the shared clock origin and export
//! Chrome trace-event JSON (load the printed file in `chrome://tracing` or
//! Perfetto — one track per rank).
//!
//! ```text
//! cargo run --release --example dist_trace
//! ```
//!
//! Two scenarios:
//! 1. a clean 2-rank CG solve — the CI leg: validates the Chrome export is
//!    well-formed, has one track per rank and balanced B/E markers;
//! 2. a 4-rank FEIR solve over a chaos-injected mesh with a mid-solve
//!    kill/respawn — retransmit instants, a rejoin span and the elastic
//!    repair, all on the merged timeline.
//!
//! The example re-executes itself as the rank workers (the
//! [`spawned_as_worker`] / [`worker_main`] trick of `dist_process.rs`).
//! Absolute durations in this container are time-sliced over one core, so
//! per-rank totals are meaningful but cross-rank sums exceed wall clock.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use feir::dist::{
    spawn_workers_with, spawned_as_worker, worker_main, ChaosConfig, DistSolveResult, ProcessSpec,
    Transport, WorkerOptions,
};
use feir::recovery::RecoveryPolicy;
use feir::trace::{Phase, SolveTrace};

/// Structural validation of the hand-rolled Chrome trace-event JSON: brace
/// and bracket balance, matched B/E span markers, per-track presence.
fn validate_chrome_json(json: &str, ranks: usize) {
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces"
    );
    assert_eq!(
        json.matches('[').count(),
        json.matches(']').count(),
        "unbalanced brackets"
    );
    let opens = json.matches("\"ph\":\"B\"").count();
    let closes = json.matches("\"ph\":\"E\"").count();
    assert_eq!(opens, closes, "unbalanced B/E span markers");
    assert!(opens > 0, "no spans exported");
    for rank in 0..ranks {
        assert!(
            json.contains(&format!("\"tid\":{rank}")),
            "missing track for rank {rank}"
        );
    }
}

/// Checks each rank's stream: ordered events, the expected phases, and the
/// iteration total reconciling with the solve's wall clock (every rank's
/// iteration spans are wall-time intervals, so their per-rank sum cannot
/// exceed the launcher-observed wall time by more than timer slack).
fn check_tracks(trace: &SolveTrace, ranks: usize, wall: Duration) {
    assert_eq!(trace.ranks.len(), ranks, "one stream per rank");
    for rt in &trace.ranks {
        assert!(
            rt.events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "rank {} events out of order",
            rt.rank
        );
        let has = |p: Phase| rt.events.iter().any(|e| e.phase == p);
        assert!(has(Phase::Iteration), "rank {} has no iterations", rt.rank);
        assert!(has(Phase::Halo), "rank {} has no halo spans", rt.rank);
        assert!(
            has(Phase::Allreduce) || has(Phase::AllreducePost),
            "rank {} has no allreduce spans",
            rt.rank
        );
        let iteration_ns: u64 = rt
            .events
            .iter()
            .filter(|e| e.phase == Phase::Iteration)
            .map(|e| e.dur_ns)
            .sum();
        let wall_ns = wall.as_nanos() as u64;
        assert!(
            iteration_ns <= wall_ns + wall_ns / 10,
            "rank {} iteration total {iteration_ns}ns exceeds wall {wall_ns}ns by >10%",
            rt.rank
        );
    }
}

fn export(trace: &SolveTrace, label: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("feir_trace_{}_{label}.json", std::process::id()));
    std::fs::write(&path, trace.chrome_json()).expect("write chrome json");
    path
}

fn main() -> ExitCode {
    // Child processes run the rank worker protocol, not the demo.
    if spawned_as_worker() {
        return worker_main();
    }
    // Workers inherit the environment; the launcher itself only merges.
    std::env::set_var("FEIR_TRACE", "spans");

    let worker = std::env::current_exe().expect("cannot locate own executable");
    let fresh_dir =
        |tag: &str| std::env::temp_dir().join(format!("feir-trace-{}-{tag}", std::process::id()));

    // ---- scenario 1: clean 2-rank CG solve ---------------------------------
    let ranks = 2;
    let spec = ProcessSpec::cg(16, ranks);
    let started = Instant::now();
    let result: DistSolveResult = spawn_workers_with(
        &worker,
        &spec,
        &Transport::Uds {
            dir: fresh_dir("clean"),
        },
        &WorkerOptions::default(),
    )
    .expect("spawn failed")
    .join()
    .expect("clean solve failed");
    let wall = started.elapsed();
    assert!(result.converged);
    let trace = result
        .trace
        .as_ref()
        .expect("trace collected over the wire");
    check_tracks(trace, ranks, wall);
    let json = trace.chrome_json();
    validate_chrome_json(&json, ranks);
    let path = export(trace, "clean");
    println!(
        "clean 2-rank CG: {} iterations, wall {:?}",
        result.iterations, wall
    );
    println!("chrome trace ({} bytes): {}", json.len(), path.display());
    println!("{}", trace.summary().table());

    // ---- scenario 2: 4-rank FEIR under chaos + kill/respawn ----------------
    let ranks = 4;
    let spec = ProcessSpec::cg(16, ranks);
    let options = WorkerOptions {
        policy: Some(RecoveryPolicy::Feir),
        elastic: true,
        chaos: Some(
            ChaosConfig::parse("seed=7,drop=0.01,dup=0.005,delay=0.005,corrupt=0.005")
                .expect("chaos schedule parses"),
        ),
        retransmit_timeout: Some(Duration::from_millis(10)),
        // Dilate iterations so the kill lands mid-solve.
        throttle: Some(Duration::from_millis(4)),
    };
    let started = Instant::now();
    let mut handles = spawn_workers_with(
        &worker,
        &spec,
        &Transport::Uds {
            dir: fresh_dir("chaos"),
        },
        &options,
    )
    .expect("elastic spawn failed");
    std::thread::sleep(Duration::from_millis(80));
    handles.kill_rank(2).expect("kill failed");
    std::thread::sleep(Duration::from_millis(30));
    handles.respawn_rank(2).expect("respawn failed");
    let result = handles.join().expect("rejoined solve failed");
    let wall = started.elapsed();
    assert!(result.converged);
    assert!(
        result.net.injected_faults > 0,
        "chaos injected no frame faults"
    );
    let trace = result
        .trace
        .as_ref()
        .expect("trace collected over the wire");
    assert_eq!(trace.ranks.len(), ranks, "one stream per rank after rejoin");
    let json = trace.chrome_json();
    validate_chrome_json(&json, ranks);
    let path = export(trace, "chaos");
    let summary = trace.summary();
    println!(
        "chaotic 4-rank FEIR + kill/respawn: {} iterations, wall {:?}, \
         frames {} retransmits {} faults {}",
        result.iterations,
        wall,
        result.net.data_frames,
        result.net.retransmits,
        result.net.injected_faults
    );
    println!("chrome trace ({} bytes): {}", json.len(), path.display());
    println!("{}", summary.table());
    if summary.rejoins == 0 {
        // The kill can race the solve's tail on fast machines; the solve
        // still validates, the rejoin span is just absent.
        println!("note: no rejoin span recorded (kill landed after convergence)");
    }

    println!("ok: traced solves converged, chrome exports validated");
    ExitCode::SUCCESS
}
