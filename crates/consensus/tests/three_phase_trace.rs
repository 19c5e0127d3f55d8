//! Pinned traces of the three-phase BFT engine under its two policies.
//!
//! Each policy runs one script on a 4-node cluster with one standby,
//! through every path the policies share and every path where they differ:
//! steady submissions, a crashed leader that forces a view/round change,
//! an equivocating leader at f and then a second double voter at f + 1, a
//! ×8 slow node, a join then a leave, and an idle stretch (empty IBFT
//! blocks). Every committed batch, the safety and liveness reports, the
//! network counters and the stale-epoch counter feed one digest, so a
//! change to the send order, the timer order, the RNG draws or the vote
//! arithmetic that alters the run shows up as a different number.

use coconut_consensus::ibft::IbftCluster;
use coconut_consensus::pbft::PbftCluster;
use coconut_consensus::three_phase::{Cluster, Policy};
use coconut_consensus::{Command, CommittedBatch};
use coconut_simnet::{ByzantineBehaviour, FaultEvent};
use coconut_types::{ClientId, Hasher64, NodeId, SimDuration, SimTime, TxId};

/// Simulated length of the script, in 250 ms steps (70 s).
const STEPS: u64 = 280;

/// Running digest over every committed batch, plus the counters the
/// script steers by.
struct Trace {
    h: Hasher64,
    blocks: u64,
    empty_blocks: u64,
    last_proposer: NodeId,
}

impl Trace {
    fn record(&mut self, batches: Vec<CommittedBatch>) {
        for b in batches {
            self.blocks += 1;
            self.empty_blocks += b.commands.is_empty() as u64;
            self.last_proposer = b.proposer;
            self.h.write(format!("{b:?}").as_bytes());
        }
    }
}

/// Runs the script against a freshly built cluster and returns its digest
/// and empty-block count. The assertions check that every scripted path
/// ran, so a digest match cannot come from a script that silently stopped
/// exercising one.
fn scripted_run<P: Policy>(mut c: Cluster<P>) -> (u64, u64) {
    let mut tr = Trace {
        h: Hasher64::new(),
        blocks: 0,
        empty_blocks: 0,
        last_proposer: NodeId(0),
    };
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
            20 => c.crash(NodeId(0)),
            // 12 s: it comes back in its old view.
            48 => c.recover(NodeId(0)),
            // 15 s: the latest proposer turns into an equivocating,
            // double-voting leader (f = 1).
            60 => {
                equivocator = tr.last_proposer;
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
    let safety = c.safety_report();
    let liveness = c.liveness_report();
    tr.h.write(format!("{safety:?}").as_bytes());
    tr.h.write(format!("{liveness:?}").as_bytes());
    tr.h.write(format!("{:?}", c.net_stats()).as_bytes());
    tr.h.write_u64(c.stale_epoch_rejections());
    assert!(joined && left, "membership changes must be accepted");
    assert_eq!(c.active_count(), 4);
    assert_eq!(c.config_epoch(), 2);
    assert!(tr.blocks > 0);
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
