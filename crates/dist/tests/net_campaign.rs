//! The transport-fault campaign end to end: a small policy ×
//! frame-fault-rate × kill/respawn sweep over real worker processes must
//! produce a consistent overhead table.

use std::path::Path;
use std::time::Duration;

use feir_dist::{DistSolver, KillSchedule, NetFaultCampaign};
use feir_recovery::RecoveryPolicy;

fn worker() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_feir-rank-worker"))
}

#[test]
fn net_campaign_sweeps_chaos_and_respawn_cells() {
    let campaign = NetFaultCampaign {
        solver: DistSolver::Cg,
        policies: vec![RecoveryPolicy::Feir, RecoveryPolicy::Afeir],
        frame_fault_rates: vec![0.0, 0.02],
        schedules: vec![
            KillSchedule::None,
            KillSchedule::KillRespawn {
                rank: 1,
                after: Duration::from_millis(150),
            },
        ],
        grid: 16,
        ranks: 2,
        // Dilates every cell (baseline included) so the kill schedule lands
        // mid-solve; overheads stay comparable because the throttle is
        // uniform.
        throttle: Duration::from_millis(5),
        max_iterations: 20_000,
        ..NetFaultCampaign::default()
    };
    let report = campaign.run(worker()).expect("campaign run failed");
    assert!(report.baseline.iterations > 0);
    assert_eq!(report.cells.len(), 2 * 2 * 2);
    for cell in &report.cells {
        assert!(
            cell.converged,
            "{:?} rate {} {:?} did not converge",
            cell.policy, cell.fault_rate, cell.schedule
        );
        assert!(cell.overhead_percent.is_finite());
        // A chaos-free, failure-free cell replays the ideal iteration
        // sequence exactly (bitwise identity), so its iteration overhead is
        // zero; a respawn forces a Krylov restart, which can only add work.
        match cell.schedule {
            KillSchedule::None => {
                assert_eq!(cell.iterations, report.baseline.iterations);
                assert_eq!(cell.iteration_overhead_percent, 0.0);
            }
            KillSchedule::KillRespawn { .. } => {
                assert!(cell.iterations >= report.baseline.iterations);
            }
        }
    }
    let table = report.table();
    assert!(table.contains("FEIR") && table.contains("r1@150ms"));
    assert!(table.lines().count() >= 9);
}

#[test]
fn net_campaign_trivial_replace_smoke_under_chaos() {
    // The cheap hybrid policy over real worker processes: blank-accept plus
    // residual-replacement restart. With no DUEs in the schedule the policy
    // code never fires, so both cells — clean wire and a chaos-injected one
    // the ack/retransmit sublayer absorbs (shipped in the WorkerConfig frame) —
    // must replay the ideal iteration sequence exactly.
    let campaign = NetFaultCampaign {
        solver: DistSolver::Cg,
        policies: vec![RecoveryPolicy::TrivialReplace],
        frame_fault_rates: vec![0.0, 0.02],
        schedules: vec![KillSchedule::None],
        grid: 16,
        ranks: 2,
        max_iterations: 20_000,
        ..NetFaultCampaign::default()
    };
    let report = campaign.run(worker()).expect("campaign run failed");
    assert_eq!(report.cells.len(), 2);
    for cell in &report.cells {
        assert!(
            cell.converged,
            "TrivialReplace rate {} did not converge",
            cell.fault_rate
        );
        assert_eq!(cell.iterations, report.baseline.iterations);
        assert_eq!(cell.iteration_overhead_percent, 0.0);
    }
    assert!(report.table().contains("triv+rr"));
}

#[test]
fn net_campaign_rejects_a_schedule_targeting_rank_zero() {
    let campaign = NetFaultCampaign {
        schedules: vec![KillSchedule::KillRespawn {
            rank: 0,
            after: Duration::from_millis(10),
        }],
        ..NetFaultCampaign::default()
    };
    assert!(campaign.run(worker()).is_err());
}
