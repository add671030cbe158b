//! Tracing integration: bitwise identity of traced vs. untraced solves, the
//! cross-rank merge of the in-process backend, Chrome-trace export validity,
//! the recovery phases showing up under scripted faults and the retransmit
//! instants of a lossy process mesh agreeing with its link counters.
//!
//! The trace level and sink registry are process-global, so every test here
//! serializes on one mutex and restores `TraceLevel::Off` before releasing
//! it (a poisoned-lock unwrap would cascade — use the inner value either
//! way).

use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use feir_dist::{
    distributed_cg, distributed_pcg, distributed_resilient_cg, spawn_workers_with, ChaosConfig,
    DistResilienceConfig, ProcessSpec, ProtectedVector, ScriptedFault, Transport, WorkerOptions,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::{manufactured_rhs, poisson_2d};
use feir_trace::{Phase, TraceLevel};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with tracing at `level`, restoring `Off` (and draining any
/// leftover events) afterwards.
fn with_level<R>(level: TraceLevel, body: impl FnOnce() -> R) -> R {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    feir_trace::set_level(level);
    let out = body();
    feir_trace::set_level(TraceLevel::Off);
    let _ = feir_trace::drain_all();
    out
}

#[test]
fn spans_level_is_bitwise_identical_to_off_on_distributed_cg() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 5);
    let off = with_level(TraceLevel::Off, || distributed_cg(&a, &b, 3, 1e-10, 10_000));
    let spans = with_level(TraceLevel::Spans, || {
        distributed_cg(&a, &b, 3, 1e-10, 10_000)
    });
    assert!(off.converged() && spans.converged());
    assert_eq!(off.iterations, spans.iterations);
    for (u, v) in off.x.iter().zip(&spans.x) {
        assert_eq!(u.to_bits(), v.to_bits(), "iterate diverged under tracing");
    }
    for (u, v) in off.residual_history.iter().zip(&spans.residual_history) {
        assert_eq!(u.to_bits(), v.to_bits(), "history diverged under tracing");
    }
    assert!(off.trace.is_none(), "off run must not carry a trace");
    assert!(spans.trace.is_some(), "spans run must carry a trace");
}

#[test]
fn spans_level_is_bitwise_identical_to_off_on_distributed_pcg() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 7);
    let off = with_level(TraceLevel::Off, || {
        distributed_pcg(&a, &b, 2, 16, 1e-10, 10_000)
    });
    let spans = with_level(TraceLevel::Spans, || {
        distributed_pcg(&a, &b, 2, 16, 1e-10, 10_000)
    });
    assert!(off.converged() && spans.converged());
    assert_eq!(off.iterations, spans.iterations);
    for (u, v) in off.x.iter().zip(&spans.x) {
        assert_eq!(u.to_bits(), v.to_bits(), "iterate diverged under tracing");
    }
}

#[test]
fn in_process_merge_produces_one_ordered_track_per_rank() {
    let a = poisson_2d(10);
    let (_, b) = manufactured_rhs(&a, 3);
    for ranks in [2usize, 4] {
        let result = with_level(TraceLevel::Spans, || {
            distributed_cg(&a, &b, ranks, 1e-8, 10_000)
        });
        let trace = result.trace.expect("spans run carries a trace");
        assert_eq!(trace.ranks.len(), ranks, "one stream per rank");
        for (i, rt) in trace.ranks.iter().enumerate() {
            assert_eq!(rt.rank as usize, i, "streams sorted by rank");
            assert!(!rt.events.is_empty(), "rank {i} recorded events");
            // Events are sorted by start time within a rank's stream.
            assert!(
                rt.events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
                "rank {i} events out of order"
            );
            let has = |phase: Phase| rt.events.iter().any(|e| e.phase == phase);
            assert!(has(Phase::Iteration), "rank {i} missing iteration spans");
            assert!(has(Phase::Spmv), "rank {i} missing spmv spans");
            assert!(has(Phase::Allreduce), "rank {i} missing allreduce spans");
            if ranks > 1 {
                assert!(has(Phase::Halo), "rank {i} missing halo spans");
            }
        }
        // Every track appears in the Chrome export.
        let json = trace.chrome_json();
        for rank in 0..ranks {
            assert!(
                json.contains(&format!("\"tid\":{rank}")),
                "chrome json missing track for rank {rank}"
            );
        }
    }
}

#[test]
fn chrome_export_is_wellformed_with_balanced_span_markers() {
    let a = poisson_2d(10);
    let (_, b) = manufactured_rhs(&a, 1);
    let result = with_level(TraceLevel::Spans, || distributed_cg(&a, &b, 2, 1e-8, 5_000));
    let json = result.trace.expect("trace present").chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    let opens = json.matches("\"ph\":\"B\"").count();
    let closes = json.matches("\"ph\":\"E\"").count();
    assert_eq!(opens, closes, "unbalanced B/E markers");
    assert!(opens > 0, "no spans exported");
    // Structural balance of the hand-rolled JSON (no string in the export
    // contains braces, so raw counting is sound here).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn recovery_phases_appear_under_scripted_faults() {
    let a = poisson_2d(12);
    let (_, b) = manufactured_rhs(&a, 5);
    let config = DistResilienceConfig::for_policy(RecoveryPolicy::Feir)
        .with_page_doubles(32)
        .with_tolerance(1e-8)
        .with_max_iterations(20_000)
        .with_scripted_faults(vec![
            ScriptedFault {
                iteration: 3,
                rank: 1,
                vector: ProtectedVector::X,
                page: 0,
            },
            ScriptedFault {
                iteration: 5,
                rank: 0,
                vector: ProtectedVector::G,
                page: 1,
            },
        ]);
    let report = with_level(TraceLevel::Spans, || {
        distributed_resilient_cg(&a, &b, 2, config)
    });
    assert!(report.converged);
    assert!(report.pages_recovered >= 2);
    let summary = report.trace.expect("trace present").summary();
    let total = |p: Phase| summary.phase_total_ns(p);
    assert!(total(Phase::RecoveryPlan) > 0, "no recovery-plan span");
    assert!(
        total(Phase::RecoveryInstall) > 0,
        "no recovery-install span"
    );
    // The summary table renders every observed phase plus the fault footer.
    let table = summary.table();
    assert!(table.contains("recovery_plan") || table.contains("recovery"));
    assert!(table.contains("dropped_events="));
}

#[test]
fn retransmit_instants_equal_the_link_counter_on_a_lossy_process_mesh() {
    let spec = ProcessSpec::cg(16, 2);
    let options = WorkerOptions {
        chaos: Some(ChaosConfig::parse("seed=23,drop=0.05").expect("chaos schedule parses")),
        retransmit_timeout: Some(Duration::from_millis(10)),
        ..WorkerOptions::default()
    };
    let dir = std::env::temp_dir().join(format!("feir-trace-retx-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Workers read the level from their environment; `with_level` keeps
    // every other test of this binary out while the variable is set.
    let result = with_level(TraceLevel::Off, || {
        std::env::set_var("FEIR_TRACE", "spans");
        let result = spawn_workers_with(
            Path::new(env!("CARGO_BIN_EXE_feir-rank-worker")),
            &spec,
            &Transport::Uds { dir },
            &options,
        )
        .map(|workers| workers.join());
        std::env::remove_var("FEIR_TRACE");
        result
    })
    .expect("spawn failed")
    .expect("lossy solve failed");
    assert!(result.converged);
    assert!(result.net.retransmits > 0, "the schedule dropped nothing");
    // Whichever call serviced the timer — a blocked receive or the draining
    // endpoint — every re-send is both counted and traced, inside the
    // stream of the rank that sent it.
    let trace = result.trace.expect("workers shipped their traces");
    let mut instants = 0;
    for rank in &trace.ranks {
        assert_eq!(rank.dropped, 0, "rank {}: ring overflowed", rank.rank);
        let traced = rank
            .events
            .iter()
            .filter(|e| e.phase == Phase::Retransmit)
            .count() as u64;
        assert_eq!(
            traced, rank.link_retransmits,
            "rank {}: trace and counter drifted",
            rank.rank
        );
        instants += traced;
    }
    assert_eq!(instants, result.net.retransmits);
}

#[test]
fn off_level_records_nothing_anywhere() {
    let a = poisson_2d(8);
    let (_, b) = manufactured_rhs(&a, 2);
    let result = with_level(TraceLevel::Off, || distributed_cg(&a, &b, 2, 1e-8, 5_000));
    assert!(result.converged());
    assert!(result.trace.is_none());
}
