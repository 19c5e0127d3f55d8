//! Gray failures end to end: the campaign's acceptance properties (BFT
//! systems view-change away from a limping leader and stay
//! degraded-or-better, nothing stalls once the fault heals, cells are
//! byte-identical under any worker count or system subset), engine-level
//! reactions (Raft re-election around a half-open leader, PBFT
//! view-change storms under a beyond-f slow quorum), LivenessMonitor
//! edge cases, and the campaign's golden pin.
//!
//! The full campaign is release-only — debug builds exercise the same
//! machinery through system subsets, which the content-addressed cell
//! seeds guarantee are byte-identical to the full campaign's cells.

use coconut::experiments::{grayfail, grayfail_for, ExperimentConfig, GrayKind};
use coconut::params::SystemKind;
use coconut::report::Report;
use coconut_consensus::pbft::PbftCluster;
use coconut_consensus::raft::RaftCluster;
use coconut_consensus::{Command, LivenessConfig, LivenessMonitor};
use coconut_simnet::{FaultEvent, LatencyModel, NetConfig};
use coconut_types::{ClientId, NodeId, SimDuration, SimTime, TxId};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

fn cmd(seq: u64) -> Command {
    Command::unit(TxId::new(ClientId(0), seq))
}

/// The campaign's core acceptance property: a mid-severity straggle on
/// the leader of each BFT system (PBFT for Sawtooth, IBFT for Quorum,
/// DiemBFT for Diem) must provoke at least one view/round change —
/// the protocol routes around the limping node rather than waiting on it
/// — and the end-of-run liveness verdict must be Degraded or better.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign cells are release-only; CI runs them via cargo test --release"
)]
fn slow_leader_forces_view_changes_and_stays_degraded_or_better() {
    let r = grayfail_for(
        &quick_cfg(),
        &[SystemKind::Sawtooth, SystemKind::Quorum, SystemKind::Diem],
    );
    for system in [SystemKind::Sawtooth, SystemKind::Quorum, SystemKind::Diem] {
        let c = r
            .cell(system, Some(GrayKind::SlowLeader), "mid")
            .expect("cell ran");
        let l = c.run.liveness.as_ref().expect("BFT systems carry monitors");
        assert!(
            l.view_changes >= 1,
            "{system}: a x32 straggling leader must trigger a view change \
             (saw {} changes, verdict {})",
            l.view_changes,
            l.verdict.label(),
        );
        assert!(
            l.verdict.is_at_least_degraded(),
            "{system}: slow-leader mid severity must not stall: {}",
            l.verdict.label(),
        );
    }
}

/// After the fault window heals, no system may end the run `Stalled` —
/// across every kind and severity of the full grid. The listen window
/// extends 8 s past the send window, under the monitor's 10 s stall gap,
/// so a healthy post-heal tail reads as live-or-degraded by design.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign is release-only; CI runs it via cargo test --release"
)]
fn no_system_stalls_after_the_heal() {
    let r = grayfail(&quick_cfg());
    for c in &r.cells {
        let l = c.run.liveness.as_ref().expect("all systems carry monitors");
        assert!(
            l.verdict.is_at_least_degraded(),
            "{} {}/{}: verdict {} after the heal",
            c.system.label(),
            c.kind_label(),
            c.severity,
            l.verdict.label(),
        );
    }
}

/// Like every grid campaign: cells are byte-identical for any worker
/// count and any system subset (seeds are content-addressed by
/// `(system, kind, severity)`).
#[test]
fn grayfail_cells_are_jobs_and_subset_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..quick_cfg()
    };
    let pair = [SystemKind::CordaOs, SystemKind::CordaEnterprise];
    let a = grayfail_for(&cfg(Some(1)), &pair);
    let b = grayfail_for(&cfg(Some(8)), &pair);
    assert_eq!(a.to_json(), b.to_json(), "worker count must not matter");
    let solo = grayfail_for(&cfg(Some(2)), &pair[..1]);
    for c in &solo.cells {
        let full = a
            .cell(c.system, c.kind, c.severity)
            .expect("cell present in the pair run");
        assert_eq!(c.run.accounting, full.run.accounting);
        assert_eq!(c.run.buckets, full.run.buckets);
        assert_eq!(c.run.liveness, full.run.liveness);
    }
}

/// A CFT leader whose *outbound* links are cut while inbound replies keep
/// flowing — the half-open failure — must lose leadership: followers miss
/// heartbeats, re-elect, and the cluster commits again once healed.
#[test]
fn raft_reelects_around_a_half_open_leader() {
    let mut c = RaftCluster::builder(3).seed(42).build();
    c.run_until(SimTime::from_secs(3));
    let old = c.leader().expect("a leader must emerge");
    let others: Vec<NodeId> = (0..3).map(NodeId).filter(|&n| n != old).collect();
    let applied = c.apply_net_fault(
        c.now(),
        &FaultEvent::AsymmetricPartition {
            from: vec![old],
            to: others,
        },
    );
    assert!(applied, "Raft must accept directional partitions");
    for s in 0..4 {
        c.submit(cmd(s));
    }
    c.run_until(SimTime::from_secs(20));
    let new = c.leader().expect("a replacement leader must emerge");
    assert_ne!(new, old, "the half-open leader must be deposed");
    let report = c.liveness_report();
    assert!(
        report.view_changes >= 1,
        "the monitor must count the re-election (saw {})",
        report.view_changes
    );
    // Heal and confirm the cluster commits again.
    assert!(c.apply_net_fault(c.now(), &FaultEvent::Heal));
    for s in 4..8 {
        c.submit(cmd(s));
    }
    let batches = c.run_until(SimTime::from_secs(30));
    assert!(
        batches.iter().flat_map(|b| b.commands.iter()).count() >= 4,
        "commits must resume after the heal"
    );
    assert!(
        c.liveness_report().verdict.is_at_least_degraded(),
        "a healed cluster must not read as stalled: {}",
        c.liveness_report().verdict.label()
    );
}

/// A beyond-f slow quorum in PBFT: three of four validators limp hard
/// enough that no three-phase commit round can outrun the (much shorter)
/// view-change cycle, so elections keep completing while no work ever
/// commits — a classic view-change storm. The monitor must count it.
#[test]
fn pbft_storms_under_a_beyond_f_slow_quorum() {
    let slow_lan = NetConfig {
        intra_server: LatencyModel::Constant(SimDuration::from_secs(1)),
        inter_server: LatencyModel::Constant(SimDuration::from_secs(1)),
        ..NetConfig::lan()
    };
    let mut c = PbftCluster::builder(4)
        .net(slow_lan)
        .timeout(SimDuration::from_millis(100))
        .seed(9)
        .build();
    for node in [NodeId(1), NodeId(2), NodeId(3)] {
        assert!(c.apply_net_fault(
            c.now(),
            &FaultEvent::SlowNode {
                node,
                factor: 8.0,
                window: SimDuration::from_secs(600),
            },
        ));
    }
    for s in 0..4 {
        c.submit(cmd(s));
    }
    c.run_until(SimTime::from_secs(120));
    let report = c.liveness_report();
    assert!(
        report.view_changes >= 3,
        "stalled work under slow quorum must keep electing ({} changes)",
        report.view_changes
    );
    assert!(
        report.storms >= 1,
        "three-plus commit-free view changes must register as a storm \
         ({} changes, {} storms, {} commits)",
        report.view_changes,
        report.storms,
        report.commits,
    );
}

/// Single-node edge case: a one-node "cluster" committing regularly is
/// Live with one observed node and no stragglers — and reads Stalled only
/// after the commit stream stops for the configured gap.
#[test]
fn liveness_monitor_handles_a_single_node_cluster() {
    let mut m = LivenessMonitor::new(LivenessConfig::default());
    for s in 1..=30u64 {
        let at = SimTime::from_secs(s);
        m.observe_commit(at);
        m.observe_progress(NodeId(0), at);
    }
    let live = m.report(SimTime::from_secs(31));
    assert!(live.verdict.is_live(), "{}", live.verdict.label());
    assert_eq!(live.observed_nodes, 1);
    assert_eq!(live.stragglers, 0);
    assert_eq!(live.commits, 30);
    // Silence past the stall gap flips the same monitor to Stalled.
    let stalled = m.report(SimTime::from_secs(41));
    assert!(
        !stalled.verdict.is_at_least_degraded(),
        "10+ s of silence must stall: {}",
        stalled.verdict.label()
    );
}

fn golden_cfg() -> ExperimentConfig {
    quick_cfg()
}

/// The gray-failure campaign's JSON, pinned byte-for-byte like the other
/// campaigns. Runs in release builds only (CI runs the test suite in
/// release; the full grid is too slow unoptimized).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign is release-only; CI runs it via cargo test --release"
)]
fn grayfail_campaign_json_matches_golden_file() {
    let rendered = grayfail(&golden_cfg()).to_json();
    let golden = include_str!("golden/grayfail_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "grayfail JSON drifted from tests/golden/grayfail_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_grayfail regenerate_grayfail_golden -- --ignored"
    );
}

/// Rewrites the grayfail golden file from the current implementation.
/// Run only when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/grayfail_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_grayfail_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/grayfail_scale002_seed_c0c0.json"
    );
    let mut json = grayfail(&golden_cfg()).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}
