//! Fault injection across the modelled systems: node crashes mid-benchmark
//! and the recovery behaviour of each consensus family. The paper only
//! studies fault-free runs; these tests pin down that the substrates react
//! to faults the way their protocols prescribe.

use coconut::params::{build_system, SystemKind, SystemSetup};
use coconut_chains::bitshares::{Bitshares, BitsharesConfig};
use coconut_chains::corda::{Corda, CordaConfig};
use coconut_chains::diem::{Diem, DiemConfig};
use coconut_chains::fabric::{Fabric, FabricConfig};
use coconut_chains::quorum::{Quorum, QuorumConfig};
use coconut_chains::sawtooth::{Sawtooth, SawtoothConfig};
use coconut_chains::BlockchainSystem;
use coconut_simnet::{ByzantineBehaviour, FaultEvent};
use coconut_types::{ClientId, ClientTx, NodeId, Payload, SimDuration, SimTime, ThreadId, TxId};

fn tx(seq: u64, payload: Payload, at: SimTime) -> ClientTx {
    ClientTx::single(
        TxId::new(ClientId((seq % 4) as u32), seq),
        ThreadId(0),
        payload,
        at,
    )
}

#[test]
fn fabric_survives_one_orderer_crash() {
    let cfg = FabricConfig {
        max_message_count: 20,
        ..Default::default()
    };
    let mut f = Fabric::new(cfg, 1);
    f.run_until(SimTime::from_secs(2));
    // Crash one of the three orderers: Raft still has a majority.
    assert!(f.crash_node(NodeId(2)));
    f.run_until(SimTime::from_secs(8)); // allow re-election if the leader died
    let gap = SimDuration::from_millis(10); // 100 tx/s
    let mut at = SimTime::from_secs(8);
    let mut committed = 0;
    for i in 0..100u64 {
        committed += f.run_until(at).iter().filter(|o| o.is_committed()).count();
        f.submit(at, tx(i, Payload::DoNothing, at));
        at += gap;
    }
    committed += f
        .run_until(SimTime::from_secs(20))
        .iter()
        .filter(|o| o.is_committed())
        .count();
    assert_eq!(committed, 100, "a 2/3 Raft majority must keep ordering");
}

#[test]
fn fabric_halts_without_orderer_majority_and_recovers() {
    let cfg = FabricConfig {
        max_message_count: 10,
        ..Default::default()
    };
    let mut f = Fabric::new(cfg, 2);
    f.run_until(SimTime::from_secs(2));
    assert!(f.crash_node(NodeId(1)));
    assert!(f.crash_node(NodeId(2)));
    let t0 = SimTime::from_secs(3);
    for i in 0..20u64 {
        f.run_until(t0);
        f.submit(t0, tx(i, Payload::DoNothing, t0));
    }
    let stalled = f.run_until(SimTime::from_secs(20));
    assert!(
        stalled.iter().filter(|o| o.is_committed()).count() == 0,
        "one of three orderers cannot commit"
    );
    // Recovery restores the pipeline (queued transactions flush).
    assert!(f.recover_node(NodeId(1)));
    let recovered = f.run_until(SimTime::from_secs(60));
    assert_eq!(
        recovered.iter().filter(|o| o.is_committed()).count(),
        20,
        "the queued transactions must commit after recovery"
    );
}

#[test]
fn quorum_tolerates_f_and_halts_at_f_plus_one() {
    // n = 4 → f = 1.
    let mut q = Quorum::new(QuorumConfig::default(), 3);
    assert!(q.crash_node(NodeId(3)));
    let t = SimTime::ZERO;
    for i in 0..10u64 {
        q.submit(t, tx(i, Payload::DoNothing, t));
    }
    let one_down = q.run_until(SimTime::from_secs(30));
    assert_eq!(
        one_down.iter().filter(|o| o.is_committed()).count(),
        10,
        "IBFT tolerates one fault out of four"
    );

    let mut q2 = Quorum::new(QuorumConfig::default(), 4);
    assert!(q2.crash_node(NodeId(2)));
    assert!(q2.crash_node(NodeId(3)));
    for i in 0..10u64 {
        q2.submit(t, tx(i, Payload::DoNothing, t));
    }
    let two_down = q2.run_until(SimTime::from_secs(30));
    assert!(
        two_down.iter().filter(|o| o.is_committed()).count() == 0,
        "two faults out of four exceed the BFT quorum"
    );
}

#[test]
fn sawtooth_view_change_replaces_dead_primary_mid_run() {
    let mut s = Sawtooth::new(SawtoothConfig::default(), 4);
    let t = SimTime::ZERO;
    for i in 0..5u64 {
        s.submit(t, tx(i, Payload::DoNothing, t));
    }
    let before = s.run_until(SimTime::from_secs(10));
    assert_eq!(before.iter().filter(|o| o.is_committed()).count(), 5);
    // Kill the current primary; later work must still finalize.
    assert!(s.crash_node(NodeId(0)));
    let t2 = SimTime::from_secs(10);
    for i in 100..105u64 {
        s.submit(t2, tx(i, Payload::DoNothing, t2));
    }
    let after = s.run_until(SimTime::from_secs(60));
    assert_eq!(
        after.iter().filter(|o| o.is_committed()).count(),
        5,
        "PBFT view change must rescue the pending batches"
    );
}

#[test]
fn diem_advances_past_dead_leaders() {
    let cfg = DiemConfig {
        spike_interval: None,
        ..Default::default()
    };
    let mut d = Diem::new(cfg, 5);
    let t = SimTime::ZERO;
    for i in 0..5u64 {
        d.submit(t, tx(i, Payload::DoNothing, t));
    }
    let before = d.run_until(SimTime::from_secs(10));
    assert_eq!(before.iter().filter(|o| o.is_committed()).count(), 5);
    assert!(d.crash_node(NodeId(1)));
    let t2 = SimTime::from_secs(10);
    for i in 100..105u64 {
        d.submit(t2, tx(i, Payload::DoNothing, t2));
    }
    let after = d.run_until(SimTime::from_secs(60));
    assert_eq!(
        after.iter().filter(|o| o.is_committed()).count(),
        5,
        "timeout certificates must route around the dead validator"
    );
}

#[test]
fn bitshares_skips_dead_witness_slots() {
    let mut b = Bitshares::new(BitsharesConfig::default(), 6);
    assert!(b.crash_node(NodeId(0)));
    let t = SimTime::ZERO;
    for i in 0..30u64 {
        b.submit(t, tx(i, Payload::DoNothing, t));
    }
    let outcomes = b.run_until(SimTime::from_secs(10));
    assert_eq!(
        outcomes.iter().filter(|o| o.is_committed()).count(),
        30,
        "remaining witnesses pack everything, just later"
    );
    // Recovery brings the witness back into the schedule.
    assert!(b.recover_node(NodeId(0)));
    let t2 = SimTime::from_secs(10);
    for i in 100..130u64 {
        b.submit(t2, tx(i, Payload::DoNothing, t2));
    }
    let after = b.run_until(SimTime::from_secs(20));
    assert_eq!(after.iter().filter(|o| o.is_committed()).count(), 30);
}

#[test]
fn quorum_round_change_rescues_crashed_proposer_within_timeout() {
    // IBFT's proposer for height 0 is validator 0; crash it before any
    // work so the very first block requires a round change.
    let mut q = Quorum::new(QuorumConfig::default(), 11);
    assert!(q.crash_node(NodeId(0)));
    let t = SimTime::ZERO;
    for i in 0..10u64 {
        q.submit(t, tx(i, Payload::DoNothing, t));
    }
    // Bounded recovery: block period (1 s) + round timeout (4 s) + a
    // processing margin must suffice — nowhere near the 30 s horizon.
    let bound = SimTime::from_secs(8);
    let outcomes = q.run_until(bound);
    let committed: Vec<_> = outcomes.iter().filter(|o| o.is_committed()).collect();
    assert_eq!(committed.len(), 10, "round change must rescue height 0");
    assert!(
        committed.iter().all(|o| o.finalized_at <= bound),
        "recovery must complete within one round timeout plus margin"
    );
}

#[test]
fn diem_pacemaker_resumes_within_bounded_time_after_crash() {
    let cfg = DiemConfig {
        spike_interval: None,
        ..Default::default()
    };
    let mut d = Diem::new(cfg, 13);
    let t = SimTime::ZERO;
    for i in 0..5u64 {
        d.submit(t, tx(i, Payload::DoNothing, t));
    }
    let before = d.run_until(SimTime::from_secs(10));
    assert_eq!(before.iter().filter(|o| o.is_committed()).count(), 5);

    // Crash a validator: some following rounds lose their leader, and the
    // pacemaker's timeout certificates must skip them in bounded time.
    assert!(d.crash_node(NodeId(2)));
    let t2 = SimTime::from_secs(10);
    for i in 100..105u64 {
        d.submit(t2, tx(i, Payload::DoNothing, t2));
    }
    let bound = SimTime::from_secs(30);
    let after = d.run_until(bound);
    let committed: Vec<_> = after.iter().filter(|o| o.is_committed()).collect();
    assert_eq!(
        committed.len(),
        5,
        "pacemaker must advance past the dead leader"
    );
    let worst = committed.iter().map(|o| o.finalized_at).max().unwrap();
    assert!(
        worst <= bound,
        "finalization after the crash stays inside the bounded horizon"
    );
}

#[test]
fn corda_notary_crash_halts_finality_until_recovery() {
    let mut c = Corda::new(CordaConfig::open_source(), 17);
    // With every notary down, write transactions get no finality at all.
    for idx in 0..4 {
        assert!(c.crash_notary(idx));
    }
    let t = SimTime::ZERO;
    for i in 0..10u64 {
        c.submit(t, tx(i, Payload::key_value_set(i, i), t));
    }
    let halted = c.run_until(SimTime::from_secs(30));
    assert!(
        halted.iter().filter(|o| o.is_committed()).count() == 0,
        "no notary, no finality"
    );
    assert_eq!(c.lost_to_notary_outage(), 10);
    assert!(!c.is_live());

    // One notary back is enough for the pool to serve again (failover
    // routes every shard to it); only *new* transactions benefit — the
    // halted ones were lost and stay lost unless the client re-sends.
    assert!(c.recover_notary(1));
    assert!(c.is_live());
    let t2 = SimTime::from_secs(30);
    for i in 100..110u64 {
        c.submit(t2, tx(i, Payload::key_value_set(i, i), t2));
    }
    let recovered = c.run_until(SimTime::from_secs(60));
    assert_eq!(
        recovered.iter().filter(|o| o.is_committed()).count(),
        10,
        "a single recovered notary restores finality for new work"
    );
}

#[test]
fn bitshares_witness_miss_skips_slots_with_bounded_delay() {
    let cfg = BitsharesConfig::default();
    let interval = cfg.block_interval;
    let witnesses = cfg.witnesses as u64;
    let mut b = Bitshares::new(cfg, 19);
    assert!(b.crash_node(NodeId(1)));
    let t = SimTime::ZERO;
    for i in 0..12u64 {
        b.submit(t, tx(i, Payload::DoNothing, t));
    }
    let outcomes = b.run_until(SimTime::from_secs(30));
    let committed: Vec<_> = outcomes.iter().filter(|o| o.is_committed()).collect();
    assert_eq!(committed.len(), 12, "live witnesses pack everything");
    // The dead witness's slots are skipped, not waited out: even if the
    // very next slot belonged to it, finality arrives within one full
    // schedule rotation plus a propagation margin.
    let bound = t + interval * (witnesses + 1) + SimDuration::from_secs(1);
    assert!(
        committed.iter().all(|o| o.finalized_at <= bound),
        "a missed slot delays finality by at most the skipped slots"
    );
}

#[test]
fn crash_recover_is_deterministic() {
    let run = || {
        let mut f = Fabric::new(FabricConfig::default(), 7);
        f.run_until(SimTime::from_secs(2));
        assert!(f.crash_node(NodeId(0)));
        f.run_until(SimTime::from_secs(6));
        let t = SimTime::from_secs(6);
        for i in 0..20u64 {
            f.submit(t, tx(i, Payload::key_value_set(i, i), t));
        }
        f.run_until(SimTime::from_secs(30))
            .iter()
            .map(|o| (o.tx, o.finalized_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Routes `event` to the one of the six fault methods that handles it.
fn dispatch(s: &mut dyn BlockchainSystem, at: SimTime, event: &FaultEvent) -> bool {
    match *event {
        FaultEvent::CrashNode(node) => s.crash_node(node),
        FaultEvent::RestartNode(node) => s.recover_node(node),
        FaultEvent::EquivocateProposer { node, window } => {
            s.inject_byzantine(node, ByzantineBehaviour::EquivocateProposer, at + window)
        }
        FaultEvent::DoubleVote { node, window } => {
            s.inject_byzantine(node, ByzantineBehaviour::DoubleVote, at + window)
        }
        FaultEvent::JoinNode(node) => s.join_node(at, node),
        FaultEvent::LeaveNode(node) => s.leave_node(at, node),
        ref net => s.apply_net_fault(at, net),
    }
}

/// The fault and report surface of all seven systems with one standby:
/// a crash, restart or Byzantine flag reaches exactly the provisioned
/// nodes of the crashable role (baseline plus standby), only the three
/// BFT systems take a Byzantine flag and carry a safety monitor, the
/// standby joins once, and only a member leaves. `apply_fault` on a twin
/// returns what the six methods return.
#[test]
fn fault_surface_contract_of_every_system() {
    use FaultEvent::*;
    let setup = SystemSetup::default().with_standby(1);
    let window = SimDuration::from_secs(5);
    for kind in SystemKind::ALL {
        let bft = matches!(
            kind,
            SystemKind::Quorum | SystemKind::Sawtooth | SystemKind::Diem
        );
        let corda = matches!(kind, SystemKind::CordaOs | SystemKind::CordaEnterprise);
        // Members of the crashable role; the standby's id comes next.
        let members = match kind {
            SystemKind::Bitshares | SystemKind::Fabric => 3,
            _ => 4,
        };
        let standby = NodeId(members);
        let outside = NodeId(members + 1);
        let script = [
            (CrashNode(NodeId(0)), true),
            (RestartNode(NodeId(0)), true),
            (CrashNode(standby), true),
            (RestartNode(standby), true),
            (CrashNode(outside), false),
            (RestartNode(outside), false),
            (
                DoubleVote {
                    node: NodeId(1),
                    window,
                },
                bft,
            ),
            (
                EquivocateProposer {
                    node: NodeId(1),
                    window,
                },
                bft,
            ),
            (
                DoubleVote {
                    node: outside,
                    window,
                },
                false,
            ),
            (JoinNode(standby), true),
            (JoinNode(standby), false),
            (JoinNode(outside), false),
            (LeaveNode(NodeId(1)), true),
            (LeaveNode(outside), false),
            (
                SlowNode {
                    node: NodeId(0),
                    factor: 2.0,
                    window,
                },
                true,
            ),
            (Heal, !corda),
        ];
        let mut s = build_system(kind, &setup, 11);
        let mut twin = build_system(kind, &setup, 11);
        assert_eq!(s.safety_report().is_some(), bft, "{kind}");
        let mut at = SimTime::from_secs(1);
        for (event, expected) in &script {
            s.run_until(at);
            twin.run_until(at);
            assert_eq!(dispatch(&mut *s, at, event), *expected, "{kind}: {event:?}");
            assert_eq!(twin.apply_fault(at, event), *expected, "{kind}: {event:?}");
            at += SimDuration::from_millis(500);
        }
        s.run_until(at);
        assert_eq!(s.safety_report().is_some(), bft, "{kind}");
        assert_eq!(twin.safety_report().is_some(), bft, "{kind}");
    }
}
