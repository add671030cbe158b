//! Distributed resilience end to end: the full recovery-policy matrix under
//! scripted DUEs, seeded per-rank fault streams that replay bit for bit, and
//! a small fault campaign — the Section 3.4 configuration of the paper on
//! the simulated rank substrate.
//!
//! ```text
//! cargo run --release --example dist_fault_recovery
//! ```

use feir::dist::{
    distributed_cg, distributed_pcg, distributed_resilient_cg, distributed_resilient_pcg,
    DistResilienceConfig, DistResilientSolver, DistSolver, FaultCampaign, ProtectedVector,
    ScriptedFault,
};
use feir::pagemem::FaultStream;
use feir::recovery::RecoveryPolicy;
use feir::sparse::generators::{manufactured_rhs, poisson_2d};

fn main() {
    let a = poisson_2d(24); // 576 unknowns
    let (_, b) = manufactured_rhs(&a, 5);
    let ranks = 4;
    let config = |policy| {
        DistResilienceConfig::for_policy(policy)
            .with_page_doubles(32)
            .with_tolerance(1e-9)
            .with_max_iterations(20_000)
    };

    // ---- 1. Zero faults: the resilient solver is bitwise the plain one ----
    let plain = distributed_cg(&a, &b, ranks, 1e-9, 20_000);
    let clean = distributed_resilient_cg(&a, &b, ranks, config(RecoveryPolicy::Afeir));
    let bitwise = plain
        .x
        .iter()
        .zip(&clean.x)
        .all(|(u, v)| u.to_bits() == v.to_bits())
        && plain
            .residual_history
            .iter()
            .zip(&clean.residual_history)
            .all(|(u, v)| u.to_bits() == v.to_bits());
    println!(
        "zero-fault AFEIR vs distributed_cg on {ranks} ranks: {} iterations, bitwise identical: {bitwise}",
        clean.iterations
    );
    assert!(bitwise, "zero-fault path diverged from distributed_cg");

    // ---- 2. Scripted DUEs through the whole policy matrix -----------------
    // Page 0 of rank 2's iterate sits on a rank boundary: its stencil crosses
    // into rank 1, so FEIR/AFEIR must fetch remote entries to recover it.
    let faults = vec![
        ScriptedFault {
            iteration: 4,
            rank: 2,
            vector: ProtectedVector::X,
            page: 0,
        },
        ScriptedFault {
            iteration: 7,
            rank: 0,
            vector: ProtectedVector::D,
            page: 1,
        },
        ScriptedFault {
            iteration: 11,
            rank: 3,
            vector: ProtectedVector::G,
            page: 2,
        },
    ];
    println!("\npolicy matrix under 3 scripted DUEs (x@rank2, d@rank0, g@rank3):");
    println!("  policy   conv  iters  recovered  ignored  xrank_values  rollbacks  restarts");
    for policy in [
        RecoveryPolicy::Afeir,
        RecoveryPolicy::Feir,
        RecoveryPolicy::LossyRestart,
        RecoveryPolicy::Checkpoint { interval: 8 },
        RecoveryPolicy::Trivial,
    ] {
        let report = distributed_resilient_cg(
            &a,
            &b,
            ranks,
            config(policy).with_scripted_faults(faults.clone()),
        );
        println!(
            "  {:<7}  {:>4}  {:>5}  {:>9}  {:>7}  {:>12}  {:>9}  {:>8}",
            policy.name(),
            if report.converged { "yes" } else { "NO" },
            report.iterations,
            report.pages_recovered,
            report.pages_ignored,
            report.cross_rank_values,
            report.rollbacks,
            report.restarts,
        );
    }

    // ---- 2b. The PCG instantiation of the same engine ---------------------
    // Block-Jacobi with rank-local page blocks: zero faults is bitwise the
    // plain distributed PCG, and the same scripted DUEs (plus one on the
    // preconditioned residual z) recover exactly.
    let plain_pcg = distributed_pcg(&a, &b, ranks, 32, 1e-9, 20_000);
    let clean_pcg = distributed_resilient_pcg(&a, &b, ranks, config(RecoveryPolicy::Afeir));
    let pcg_bitwise = plain_pcg
        .x
        .iter()
        .zip(&clean_pcg.x)
        .all(|(u, v)| u.to_bits() == v.to_bits());
    let mut pcg_faults = faults.clone();
    pcg_faults.push(ScriptedFault {
        iteration: 5,
        rank: 1,
        vector: ProtectedVector::Z,
        page: 1,
    });
    let pcg_report = distributed_resilient_pcg(
        &a,
        &b,
        ranks,
        config(RecoveryPolicy::Afeir).with_scripted_faults(pcg_faults),
    );
    println!(
        "\ndistributed PCG: zero-fault bitwise identical to plain: {pcg_bitwise}; \
         under 4 DUEs: converged={}, {} iterations ({} vs plain), {} pages recovered",
        pcg_report.converged,
        pcg_report.iterations,
        plain_pcg.iterations,
        pcg_report.pages_recovered
    );
    assert!(pcg_bitwise, "zero-fault PCG diverged from distributed_pcg");
    assert!(
        pcg_report.converged,
        "resilient PCG must converge under DUEs"
    );

    // ---- 3. Seeded per-rank fault streams ---------------------------------
    // One exponential stream per rank on the iteration clock, a mean of 40
    // iterations between DUEs on each: the same seed is the same run.
    let stream = FaultStream {
        seed: 2015,
        mean_iterations: 40.0,
    };
    let solve = || {
        DistResilientSolver::new(DistSolver::Cg, &a, &b, ranks, config(RecoveryPolicy::Afeir))
            .with_fault_stream(&stream)
            .solve()
    };
    let report = solve();
    println!(
        "\nAFEIR under seeded exponential streams (one per rank): converged={}, {} iterations",
        report.converged, report.iterations
    );
    println!("  rank  injected  discovered  recovered");
    for stats in &report.faults.per_rank {
        println!(
            "  {:>4}  {:>8}  {:>10}  {:>9}",
            stats.rank, stats.injected, stats.discovered, stats.recovered
        );
    }
    assert!(
        report.converged,
        "AFEIR must converge under the fault streams"
    );
    let replay = solve();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let replays = bits(&report.x) == bits(&replay.x)
        && bits(&report.residual_history) == bits(&replay.residual_history)
        && report.faults == replay.faults;
    println!("  the same seed replays bit for bit: {replays}");
    assert!(replays, "a seeded fault stream must replay bit for bit");

    // ---- 4. A small fault campaign over both solver variants --------------
    let campaign = FaultCampaign {
        solvers: vec![DistSolver::Cg, DistSolver::Pcg],
        policies: vec![
            RecoveryPolicy::Afeir,
            RecoveryPolicy::Feir,
            RecoveryPolicy::LossyRestart,
        ],
        rank_counts: vec![2, 4],
        error_frequencies: vec![0.0, 2.0],
        page_doubles: 32,
        tolerance: 1e-8,
        max_iterations: 50_000,
        seed: 0xFE1A,
    };
    println!("\nfault campaign (solver x policy x ranks x frequency):");
    print!("{}", campaign.run(&a, &b).table());
}
