//! Pinned traces of the message-level consensus engines.
//!
//! Each engine runs one script on a small cluster with one standby, through
//! its fault, membership and idle paths. The three-phase BFT engine runs it
//! under both policies: steady submissions, a crashed leader that forces a
//! view/round change, an equivocating leader at f and then a second double
//! voter at f + 1, a ×8 slow node, a join then a leave, and an idle stretch
//! (empty IBFT blocks). Raft, DiemBFT and DPoS run a shared script: steady
//! submissions, a leader or witness crash and recovery, a ×8 slow node, a
//! half-open partition then a heal, a join then a leave, and an idle
//! stretch; DiemBFT adds an equivocating leader at f and then f + 1.
//!
//! Every committed batch, the liveness report and the network counters
//! (and for the BFT engines the safety report and the stale-epoch counter)
//! feed one digest, so a change to the send order, the timer order, the
//! RNG draws or the vote arithmetic that alters the run shows up as a
//! different number.

use coconut_consensus::diembft::DiemBftCluster;
use coconut_consensus::dpos::DposCluster;
use coconut_consensus::ibft::IbftCluster;
use coconut_consensus::pbft::PbftCluster;
use coconut_consensus::raft::RaftCluster;
use coconut_consensus::three_phase::{Cluster, Policy};
use coconut_consensus::{Command, CommittedBatch};
use coconut_simnet::{ByzantineBehaviour, FaultEvent};
use coconut_types::{ClientId, Hasher64, NodeId, SimDuration, SimTime, TxId};

/// Simulated length of the script, in 250 ms steps (70 s).
const STEPS: u64 = 280;

/// Running digest over every committed batch, plus what the scripts
/// steer and check by.
struct Trace {
    h: Hasher64,
    /// The proposer of each committed batch, in commit order.
    proposers: Vec<NodeId>,
    empty_blocks: u64,
}

impl Trace {
    fn new() -> Self {
        Trace {
            h: Hasher64::new(),
            proposers: Vec::new(),
            empty_blocks: 0,
        }
    }

    fn record(&mut self, batches: Vec<CommittedBatch>) {
        for b in batches {
            self.proposers.push(b.proposer);
            self.empty_blocks += b.commands.is_empty() as u64;
            self.h.write(format!("{b:?}").as_bytes());
        }
    }

    fn last_proposer(&self) -> NodeId {
        self.proposers.last().copied().unwrap_or(NodeId(0))
    }
}

/// Runs the script against a freshly built cluster and returns its digest
/// and empty-block count. The assertions check that every scripted path
/// ran, so a digest match cannot come from a script that silently stopped
/// exercising one.
fn scripted_run<P: Policy>(mut c: Cluster<P>) -> (u64, u64) {
    let mut tr = Trace::new();
    let mut seq = 0u64;
    let mut joined = false;
    let mut left = false;
    let mut equivocator = NodeId(0);
    let mut leave_armed = false;
    for step in 1..=STEPS {
        let at = SimTime::from_millis(250 * step);
        let now = c.now();
        match step {
            // 5 s: the view-0 primary / height-0 proposer crashes.
            20 => assert!(c.crash(NodeId(0))),
            // 12 s: it comes back in its old view.
            48 => assert!(c.recover(NodeId(0))),
            // 15 s: the latest proposer turns into an equivocating,
            // double-voting leader (f = 1).
            60 => {
                equivocator = tr.last_proposer();
                let until = SimTime::from_secs(30);
                c.set_byzantine(equivocator, ByzantineBehaviour::EquivocateProposer, until);
                c.set_byzantine(equivocator, ByzantineBehaviour::DoubleVote, until);
            }
            // 22 s: a second double voter takes the count to f + 1.
            88 => {
                let voter = NodeId((equivocator.0 + 1) % 4);
                c.set_byzantine(
                    voter,
                    ByzantineBehaviour::DoubleVote,
                    SimTime::from_secs(30),
                );
            }
            // 32 s: node 3 limps at ×8 for 5 s.
            128 => {
                assert!(c.apply_net_fault(
                    now,
                    &FaultEvent::SlowNode {
                        node: NodeId(3),
                        factor: 8.0,
                        window: SimDuration::from_secs(5),
                    },
                ));
            }
            // 40 s: the standby joins.
            160 => joined = c.join(NodeId(4)),
            // From 48 s: node 2 leaves.
            192 => leave_armed = true,
            _ => {}
        }
        // Steady trickle until 55 s, then an idle stretch.
        if step <= 220 {
            for _ in 0..5 {
                c.submit(Command::unit(TxId::new(ClientId(0), seq)));
                seq += 1;
            }
        }
        if leave_armed {
            // Leave once the next proposal's prepares are on the wire,
            // so votes of the superseded epoch are still in flight.
            let mut t = now;
            let mut proposed_at_msgs = None;
            while leave_armed && t < at {
                t += SimDuration::from_micros(100);
                tr.record(c.run_until(t));
                let msgs = c.net_stats().messages_sent;
                match proposed_at_msgs {
                    None if c.pending_len() == 0 => proposed_at_msgs = Some(msgs),
                    Some(m) if msgs > m => {
                        left = c.leave(NodeId(2));
                        leave_armed = false;
                    }
                    _ => {}
                }
            }
        }
        tr.record(c.run_until(at));
    }
    let safety = c.safety_report().unwrap();
    let liveness = c.liveness_report();
    tr.h.write(format!("{safety:?}").as_bytes());
    tr.h.write(format!("{liveness:?}").as_bytes());
    tr.h.write(format!("{:?}", c.net_stats()).as_bytes());
    tr.h.write_u64(c.stale_epoch_rejections());
    assert!(joined && left, "membership changes must be accepted");
    assert_eq!(c.active_count(), 4);
    assert_eq!(c.config_epoch(), 2);
    assert!(!tr.proposers.is_empty());
    assert!(liveness.view_changes > 0, "the crash must force a change");
    assert!(
        safety.observed.equivocating_proposals > 0,
        "the attack must run"
    );
    assert!(
        c.stale_epoch_rejections() > 0,
        "the leave must strand votes"
    );
    (tr.h.finish(), tr.empty_blocks)
}

#[test]
fn pbft_trace_is_pinned() {
    let (digest, empty) = scripted_run(PbftCluster::builder(4).standby(1).seed(41).build());
    assert_eq!(empty, 0, "PBFT never publishes an empty block");
    assert_eq!(digest, 0x747d_5bd2_689d_56be, "pbft digest {digest:#018x}");
    // With the period equal to the timeout, a proposer timer and the watch
    // timers armed with it fire at the same instant, so the order they are
    // armed in shows (an epoch restart, for one).
    let (digest, empty) = scripted_run(
        PbftCluster::builder(4)
            .standby(1)
            .period(SimDuration::from_secs(2))
            .timeout(SimDuration::from_secs(2))
            .seed(43)
            .build(),
    );
    assert_eq!(empty, 0, "PBFT never publishes an empty block");
    assert_eq!(
        digest, 0x2d4b_3867_7692_1ef7,
        "tied pbft digest {digest:#018x}"
    );
}

#[test]
fn ibft_trace_is_pinned() {
    let (digest, empty) = scripted_run(IbftCluster::builder(4).standby(1).seed(42).build());
    assert!(empty > 0, "the idle stretch must mint empty blocks");
    assert_eq!(digest, 0x1d8d_7456_f8d0_78ee, "ibft digest {digest:#018x}");
    let (digest, empty) = scripted_run(
        IbftCluster::builder(4)
            .standby(1)
            .period(SimDuration::from_secs(2))
            .timeout(SimDuration::from_secs(2))
            .seed(44)
            .build(),
    );
    assert!(empty > 0, "the idle stretch must mint empty blocks");
    assert_eq!(
        digest, 0x9a6f_8f4c_8e42_d41d,
        "tied ibft digest {digest:#018x}"
    );
}

/// The calls the shared script makes, forwarded to each engine's own
/// inherent method.
trait Engine {
    fn now(&self) -> SimTime;
    fn submit(&mut self, cmd: Command);
    fn run_until(&mut self, deadline: SimTime) -> Vec<CommittedBatch>;
    fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool;
    fn crash(&mut self, node: NodeId) -> bool;
    fn recover(&mut self, node: NodeId) -> bool;
    fn join(&mut self, node: NodeId) -> bool;
    fn leave(&mut self, node: NodeId) -> bool;
    fn messages_sent(&self) -> u64;
}

macro_rules! engine {
    ($($t:ty),*) => {$(
        impl Engine for $t {
            fn now(&self) -> SimTime {
                <$t>::now(self)
            }
            fn submit(&mut self, cmd: Command) {
                <$t>::submit(self, cmd)
            }
            fn run_until(&mut self, deadline: SimTime) -> Vec<CommittedBatch> {
                <$t>::run_until(self, deadline)
            }
            fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
                <$t>::apply_net_fault(self, at, event)
            }
            fn crash(&mut self, node: NodeId) -> bool {
                <$t>::crash(self, node)
            }
            fn recover(&mut self, node: NodeId) -> bool {
                <$t>::recover(self, node)
            }
            fn join(&mut self, node: NodeId) -> bool {
                <$t>::join(self, node)
            }
            fn leave(&mut self, node: NodeId) -> bool {
                <$t>::leave(self, node)
            }
            fn messages_sent(&self) -> u64 {
                <$t>::net_stats(self).messages_sent
            }
        }
    )*};
}

engine!(RaftCluster, DiemBftCluster, DposCluster);

/// The shared script over 70 s. The node `crash_target` picks crashes at
/// 5 s, recovers at 12 s and must propose again, node 3 limps at ×8 over 20–25 s, node 0's
/// links to nodes 1 and 2 go half-open over 28–33 s, `standby` joins at
/// 40 s, and `leaver` leaves just after 48 s, in the first 100 µs slice
/// that puts a message on the wire, so messages of the superseded epoch
/// are in flight. Submissions stop at 55 s for an idle stretch. `extra`
/// adds engine-specific steps.
fn shared_script<E: Engine>(
    c: &mut E,
    standby: NodeId,
    leaver: NodeId,
    crash_target: impl Fn(&E, &Trace) -> NodeId,
    mut extra: impl FnMut(&mut E, u64, &Trace),
) -> Trace {
    let mut tr = Trace::new();
    let (mut joined, mut left) = (false, false);
    let mut crashed = NodeId(0);
    let mut recovered_at = 0;
    let mut seq = 0u64;
    for step in 1..=STEPS {
        let at = SimTime::from_millis(250 * step);
        let now = c.now();
        match step {
            20 => {
                crashed = crash_target(c, &tr);
                c.crash(crashed);
            }
            48 => {
                c.recover(crashed);
                recovered_at = tr.proposers.len();
            }
            80 => assert!(c.apply_net_fault(
                now,
                &FaultEvent::SlowNode {
                    node: NodeId(3),
                    factor: 8.0,
                    window: SimDuration::from_secs(5),
                },
            )),
            112 => assert!(c.apply_net_fault(
                now,
                &FaultEvent::AsymmetricPartition {
                    from: vec![NodeId(0)],
                    to: vec![NodeId(1), NodeId(2)],
                },
            )),
            132 => assert!(c.apply_net_fault(now, &FaultEvent::Heal)),
            160 => joined = c.join(standby),
            192 => {
                let mut t = now;
                while !left && t < at {
                    let sent = c.messages_sent();
                    t += SimDuration::from_micros(100);
                    tr.record(c.run_until(t));
                    if c.messages_sent() > sent {
                        left = c.leave(leaver);
                        assert!(left, "the leave must be accepted");
                    }
                }
            }
            _ => {}
        }
        extra(c, step, &tr);
        if step <= 220 {
            for _ in 0..5 {
                c.submit(Command::unit(TxId::new(ClientId(0), seq)));
                seq += 1;
            }
        }
        tr.record(c.run_until(at));
    }
    assert!(joined && left, "membership changes must be accepted");
    assert!(
        tr.proposers[recovered_at..].contains(&crashed),
        "the recovered node must propose again"
    );
    tr
}

#[test]
fn raft_trace_is_pinned() {
    let mut c = RaftCluster::builder(3).standby(1).seed(61).build();
    let tr = shared_script(
        &mut c,
        NodeId(3),
        NodeId(1),
        |c, _| c.leader().expect("a leader is elected by 5 s"),
        |_, _, _| {},
    );
    let mut h = tr.h;
    let liveness = c.liveness_report();
    h.write(format!("{liveness:?}").as_bytes());
    h.write(format!("{:?}", c.net_stats()).as_bytes());
    assert_eq!(c.active_count(), 3, "AddVoter and RemoveVoter committed");
    assert_eq!(c.config_epoch(), 2);
    assert!(
        liveness.view_changes > 1,
        "the crash must force a re-election"
    );
    assert!(
        c.net_stats().messages_partitioned > 0,
        "the partition must bite"
    );
    let digest = h.finish();
    assert_eq!(digest, 0x3c2b_6fcd_acbe_5491, "raft digest {digest:#018x}");
}

#[test]
fn diembft_trace_is_pinned() {
    let mut c = DiemBftCluster::builder(4).standby(1).seed(62).build();
    let mut equivocator = NodeId(0);
    let tr = shared_script(
        &mut c,
        NodeId(4),
        NodeId(2),
        |_, _| NodeId(0),
        |c, step, tr| {
            let until = SimTime::from_secs(38);
            let byzantine = match step {
                // 15 s: the latest proposer equivocates and double-votes
                // (f = 1).
                60 => {
                    equivocator = tr.last_proposer();
                    equivocator
                }
                // 22 s: a second colluder takes the count to f + 1.
                88 => NodeId((equivocator.0 + 1) % 4),
                _ => return,
            };
            c.set_byzantine(byzantine, ByzantineBehaviour::EquivocateProposer, until);
            c.set_byzantine(byzantine, ByzantineBehaviour::DoubleVote, until);
        },
    );
    let mut h = tr.h;
    let safety = c.safety_report().unwrap();
    let liveness = c.liveness_report();
    h.write(format!("{safety:?}").as_bytes());
    h.write(format!("{liveness:?}").as_bytes());
    h.write(format!("{:?}", c.net_stats()).as_bytes());
    h.write_u64(c.stale_epoch_rejections());
    assert_eq!(c.active_count(), 4);
    assert_eq!(c.config_epoch(), 2);
    assert!(liveness.view_changes > 0, "the crash must time rounds out");
    assert!(
        safety.observed.equivocating_proposals > 0,
        "the attack must run"
    );
    assert!(
        safety.violations.conflicting_certificates > 0,
        "f + 1 colluders must certify a conflicting block"
    );
    assert!(
        c.stale_epoch_rejections() > 0,
        "the leave must strand votes"
    );
    assert!(
        c.net_stats().messages_partitioned > 0,
        "the partition must bite"
    );
    let digest = h.finish();
    assert_eq!(
        digest, 0x8e6d_d797_b05f_8c3c,
        "diembft digest {digest:#018x}"
    );
}

#[test]
fn dpos_trace_is_pinned() {
    let mut c = DposCluster::builder(3).standby(1).seed(63).build();
    let tr = shared_script(
        &mut c,
        NodeId(3),
        NodeId(1),
        |_, tr| tr.last_proposer(),
        |_, _, _| {},
    );
    let mut h = tr.h;
    let liveness = c.liveness_report();
    h.write(format!("{liveness:?}").as_bytes());
    h.write(format!("{:?}", c.net_stats()).as_bytes());
    h.write_u64(c.blocks_produced());
    h.write_u64(c.slots_missed());
    assert_eq!(c.active_count(), 3);
    assert_eq!(c.config_epoch(), 2);
    assert!(c.slots_missed() > 0, "the crash must cost slots");
    assert!(
        c.net_stats().messages_partitioned > 0,
        "the partition must bite"
    );
    let digest = h.finish();
    assert_eq!(digest, 0x258d_922f_64ee_e49c, "dpos digest {digest:#018x}");
}
