//! Practical Byzantine Fault Tolerance — the consensus of the modelled
//! Hyperledger Sawtooth (the paper runs Sawtooth 1.2.6 with `sawtooth-pbft`,
//! Table 2).
//!
//! Message-level three-phase PBFT on the shared [`three_phase`] engine: the
//! primary broadcasts a `PrePrepare` carrying the block (batch), replicas
//! exchange `Prepare` and `Commit` messages, and a batch finalizes when
//! 2f + 1 nodes have committed. A view change (new primary) is triggered
//! when replicas see no progress on an outstanding proposal within the
//! commit timeout ([`Builder::timeout`]).
//!
//! Sawtooth's `sawtooth.consensus.pbft.block_publishing_delay` maps to
//! [`Builder::period`]: the primary waits this long after the previous
//! block before publishing the next one, and with an empty pool it waits
//! another period rather than publish an empty block.
//!
//! The [`Pbft`] policy keys everything to one global view: the primary of
//! view *v* is member `v mod n`, votes count in the node's view at any
//! sequence, and view-change votes are tallied per view. Only the incoming
//! primary adopts a view on quorum; it broadcasts `NewView` and the others
//! follow.
//!
//! [`three_phase`]: crate::three_phase

use std::collections::HashMap;

use coconut_types::{Hasher64, NodeId, SimDuration};

use crate::three_phase::{Builder, Cluster, Msg, Node, Policy, CHANGE_BYTES, PROC_PER_MSG};
use crate::Command;

/// The PBFT policy of the three-phase engine.
#[derive(Debug, Clone, Copy)]
pub struct Pbft;

/// A node's view-change state.
#[derive(Debug, Default)]
pub struct ViewChange {
    /// View-change votes received, per target view.
    votes: HashMap<u64, u32>,
    /// Highest view this node has voted to move to.
    voted: u64,
}

/// Configuration for a [`PbftCluster`]; build with [`Cluster::builder`].
pub type PbftBuilder = Builder<Pbft>;

/// A simulated PBFT cluster.
///
/// # Example
///
/// ```
/// use coconut_consensus::{pbft::PbftCluster, Command};
/// use coconut_types::{ClientId, SimTime, TxId};
///
/// let mut pbft = PbftCluster::builder(4).seed(3).build();
/// pbft.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let batches = pbft.run_until(SimTime::from_secs(5));
/// assert_eq!(batches.len(), 1);
/// ```
pub type PbftCluster = Cluster<Pbft>;

impl Policy for Pbft {
    type Change = ViewChange;
    const BATCH_COMMANDS: usize = 200;
    const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(5);
    const PROPOSES_EMPTY_BLOCKS: bool = false;

    fn rotation(_seq: u64, view: u64) -> u64 {
        view
    }

    fn digest(batch: &[Command], seq: u64, view: u64, sibling: bool) -> u64 {
        let key = view ^ (seq << 32) ^ if sibling { 0xB12A_57DE } else { 0 };
        let mut h = Hasher64::with_key(key);
        for c in batch {
            h.write_u64(c.tx.as_u64()).write_u64(c.ops as u64);
        }
        h.finish()
    }

    fn accepts_vote(node: &Node<ViewChange>, _seq: u64, view: u64) -> bool {
        view == node.view
    }

    fn accepts_proposal(node: &Node<ViewChange>, seq: u64, view: u64) -> bool {
        view == node.view && seq >= node.height
    }

    fn view_after_commit(view: u64) -> u64 {
        view
    }

    fn watch_delay(_period: SimDuration, timeout: SimDuration) -> SimDuration {
        timeout
    }

    fn on_timeout(c: &mut PbftCluster, me: NodeId, seq: u64, view: u64) {
        let node = &c.p.nodes[me.0 as usize];
        if node.view != view || seq < c.p.next_height {
            return; // stale timer
        }
        let slot = node.slots.get(&(seq, view));
        if slot.is_some_and(|s| s.committed) {
            return;
        }
        // Only complain when there is actually stalled work: an outstanding
        // proposal, or queued commands nobody is proposing. Otherwise keep
        // watching.
        if slot.is_none() && c.pending.is_empty() {
            c.watch(me, seq, view);
            return;
        }
        let new_view = view + 1;
        let now = c.net.now();
        let done = c.cpu.process(me, now, PROC_PER_MSG);
        let change = &mut c.p.nodes[me.0 as usize].change;
        if change.voted >= new_view {
            return;
        }
        change.voted = new_view;
        c.net
            .broadcast_delayed(me, done - now, CHANGE_BYTES, |_| Msg::ViewChange {
                height: seq,
                view: new_view,
            });
        // Count own vote.
        Self::on_view_change(c, me, seq, new_view);
    }

    fn on_view_change(c: &mut PbftCluster, me: NodeId, _seq: u64, new_view: u64) {
        let quorum = c.quorum();
        let is_new_primary = c.leader(0, new_view) == me;
        let node = &mut c.p.nodes[me.0 as usize];
        if new_view <= node.view {
            return;
        }
        let votes = node.change.votes.entry(new_view).or_insert(0);
        *votes += 1;
        if *votes >= quorum && is_new_primary {
            let now = c.net.now();
            // Only the incoming primary reaches this branch, so each
            // successful view change is counted once cluster-wide.
            c.liveness.observe_view_change(now);
            let done = c.cpu.process(me, now, PROC_PER_MSG);
            adopt_view(c, me, new_view);
            c.net
                .broadcast_delayed(me, done - now, CHANGE_BYTES, |_| Msg::NewView {
                    view: new_view,
                });
            // The new primary re-proposes pending work.
            c.net.timer(
                me,
                c.p.period,
                Msg::ProposeTimer {
                    height: c.p.next_height,
                    view: new_view,
                },
            );
        }
    }

    fn on_new_view(c: &mut PbftCluster, me: NodeId, view: u64) {
        if view > c.p.nodes[me.0 as usize].view {
            adopt_view(c, me, view);
            c.watch(me, c.p.next_height, view);
        }
    }

    /// The joiner adopts the highest view among its peers.
    fn align_joiner(c: &mut PbftCluster, joiner: NodeId) {
        let view = highest_active_view(c);
        let joiner = &mut c.p.nodes[joiner.0 as usize];
        joiner.view = view;
        joiner.change.voted = joiner.change.voted.max(view);
    }

    /// The primary of the highest active view proposes the next sequence,
    /// and every active replica watches it.
    fn restart_epoch(c: &mut PbftCluster) {
        let view = highest_active_view(c);
        let seq = c.p.next_height;
        c.net.timer(
            c.leader(seq, view),
            c.p.period,
            Msg::ProposeTimer { height: seq, view },
        );
        c.watch_active(seq, view);
    }
}

/// The highest view among live active replicas.
fn highest_active_view(c: &PbftCluster) -> u64 {
    c.p.nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| c.alive[i] && c.membership.is_active(NodeId(i as u32)))
        .map(|(_, n)| n.view)
        .max()
        .unwrap_or(0)
}

/// Moves `me` to `view`. Outstanding uncommitted slots from older views
/// are abandoned, but their commands are reclaimed into the pending queue.
fn adopt_view(c: &mut PbftCluster, me: NodeId, view: u64) {
    let next = c.p.next_height;
    let node = &mut c.p.nodes[me.0 as usize];
    node.view = view;
    node.change.voted = node.change.voted.max(view);
    c.reclaim(me, |seq, v| v < view && seq >= next);
    c.p.nodes[me.0 as usize]
        .slots
        .retain(|&(_, v), s| v >= view || s.committed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchConfig;
    use coconut_simnet::ByzantineBehaviour;
    use coconut_types::{ClientId, SimTime, TxId};

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    #[test]
    fn commits_one_batch() {
        let mut c = PbftCluster::builder(4).seed(1).build();
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(5));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].commands.len(), 1);
        assert_eq!(batches[0].proposer, NodeId(0));
    }

    #[test]
    fn respects_publishing_delay() {
        let mut c = PbftCluster::builder(4)
            .seed(2)
            .period(SimDuration::from_secs(2))
            .batch(BatchConfig::new(1, SimDuration::from_secs(1)))
            .build();
        for s in 0..3 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(30));
        assert_eq!(batches.len(), 3);
        for w in batches.windows(2) {
            let gap = w[1].committed_at - w[0].committed_at;
            assert!(
                gap >= SimDuration::from_secs(2),
                "blocks must be ≥ publishing_delay apart, got {gap}"
            );
        }
    }

    #[test]
    fn batch_size_bounds_block_content() {
        let mut c = PbftCluster::builder(4)
            .seed(3)
            .batch(BatchConfig::new(5, SimDuration::from_secs(1)))
            .period(SimDuration::from_millis(100))
            .build();
        for s in 0..17 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(20));
        let total: usize = batches.iter().map(|b| b.commands.len()).sum();
        assert_eq!(total, 17);
        assert!(batches.iter().all(|b| b.commands.len() <= 5));
    }

    #[test]
    fn commit_order_matches_submission_order() {
        let mut c = PbftCluster::builder(4)
            .seed(4)
            .period(SimDuration::from_millis(50))
            .batch(BatchConfig::new(8, SimDuration::from_millis(100)))
            .build();
        for s in 0..40 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(30));
        let seqs: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        assert_eq!(seqs.len(), 40);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.round, i as u64, "rounds are consecutive");
        }
    }

    #[test]
    fn primary_crash_triggers_view_change_and_progress() {
        let mut c = PbftCluster::builder(4).seed(5).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert_eq!(first.len(), 1);
        // Kill the primary (node 0, view 0).
        c.crash(NodeId(0));
        c.submit(tx(2));
        let batches = c.run_until(c.now() + SimDuration::from_secs(30));
        assert_eq!(batches.len(), 1, "view change must allow progress");
        assert_ne!(batches[0].proposer, NodeId(0));
    }

    #[test]
    fn no_progress_beyond_f_faults() {
        let mut c = PbftCluster::builder(4).seed(6).build();
        // f = 1 for n = 4; crashing two nodes destroys the quorum.
        c.crash(NodeId(2));
        c.crash(NodeId(3));
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(30));
        assert!(
            batches.is_empty(),
            "2f+1 quorum is unreachable with 2 of 4 down"
        );
    }

    #[test]
    fn tolerates_exactly_f_faults() {
        let mut c = PbftCluster::builder(4).seed(7).build();
        c.crash(NodeId(3)); // f = 1
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(10));
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = PbftCluster::builder(4)
                .seed(seed)
                .period(SimDuration::from_millis(200))
                .build();
            for s in 0..10 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(20))
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn empty_cluster_produces_no_blocks() {
        let mut c = PbftCluster::builder(4).seed(8).build();
        let batches = c.run_until(SimTime::from_secs(10));
        assert!(batches.is_empty(), "no commands, no blocks");
    }

    #[test]
    fn one_equivocating_primary_is_safe() {
        let mut c = PbftCluster::builder(4).seed(11).build();
        c.set_byzantine(
            NodeId(0),
            ByzantineBehaviour::EquivocateProposer,
            SimTime::from_secs(60),
        );
        c.set_byzantine(
            NodeId(0),
            ByzantineBehaviour::DoubleVote,
            SimTime::from_secs(60),
        );
        for s in 0..6 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(30));
        assert!(!batches.is_empty(), "f = 1 equivocator must not halt PBFT");
        let r = c.safety_report().unwrap();
        assert!(
            r.observed.equivocating_proposals > 0,
            "the attack must actually run"
        );
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "≤ f Byzantine: {:?}", r.violations);
    }

    #[test]
    fn two_byzantine_nodes_break_safety_and_are_counted() {
        let mut c = PbftCluster::builder(4).seed(12).build();
        for node in [NodeId(0), NodeId(1)] {
            c.set_byzantine(
                node,
                ByzantineBehaviour::EquivocateProposer,
                SimTime::from_secs(60),
            );
            c.set_byzantine(node, ByzantineBehaviour::DoubleVote, SimTime::from_secs(60));
        }
        for s in 0..6 {
            c.submit(tx(s));
        }
        let _ = c.run_until(SimTime::from_secs(30));
        let r = c.safety_report().unwrap();
        assert!(
            r.violations.conflicting_commits > 0,
            "f+1 Byzantine must commit a conflicting block: {r:?}"
        );
    }

    #[test]
    fn byzantine_run_is_deterministic() {
        let run = || {
            let mut c = PbftCluster::builder(4).seed(13).build();
            for node in [NodeId(0), NodeId(1)] {
                c.set_byzantine(
                    node,
                    ByzantineBehaviour::EquivocateProposer,
                    SimTime::from_secs(60),
                );
                c.set_byzantine(node, ByzantineBehaviour::DoubleVote, SimTime::from_secs(60));
            }
            for s in 0..8 {
                c.submit(tx(s));
            }
            let batches = c.run_until(SimTime::from_secs(30));
            (format!("{:?}", c.safety_report().unwrap()), batches.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn join_grows_membership_after_sync_without_violations() {
        let mut c = PbftCluster::builder(4).standby(1).seed(21).build();
        assert_eq!((c.active_count(), c.config_epoch()), (4, 0));
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert_eq!(first.len(), 1);
        assert!(c.join(NodeId(4)), "standby is admitted");
        assert!(!c.join(NodeId(4)), "double join rejected");
        assert_eq!(c.active_count(), 4, "not active until synced");
        for s in 2..8 {
            c.submit(tx(s));
        }
        let more = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(!more.is_empty(), "commits continue through the join");
        assert_eq!((c.active_count(), c.config_epoch()), (5, 1));
        let r = c.safety_report().unwrap();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn leave_shrinks_membership_and_rotates_primary_away() {
        let mut c = PbftCluster::builder(4).seed(22).build();
        c.submit(tx(1));
        assert_eq!(c.run_until(SimTime::from_secs(5)).len(), 1);
        // The current primary departs: the epoch advances and the next
        // blocks must come from surviving members.
        assert!(c.leave(NodeId(0)));
        assert_eq!((c.active_count(), c.config_epoch()), (3, 1));
        for s in 2..6 {
            c.submit(tx(s));
        }
        let batches = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(!batches.is_empty(), "the shrunken cluster keeps committing");
        assert!(batches.iter().all(|b| b.proposer != NodeId(0)));
        let r = c.safety_report().unwrap();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
        assert!(!c.leave(NodeId(0)), "already departed");
    }

    #[test]
    fn joiner_never_votes_before_sync_completes() {
        let mut c = PbftCluster::builder(4).standby(1).seed(23).build();
        for s in 0..4 {
            c.submit(tx(s));
        }
        let _ = c.run_until(SimTime::from_secs(6));
        assert!(c.join(NodeId(4)));
        for s in 4..10 {
            c.submit(tx(s));
        }
        let _ = c.run_until(c.now() + SimDuration::from_secs(30));
        let r = c.safety_report().unwrap();
        assert_eq!(r.violations.presync_votes, 0, "no vote before catch-up");
        assert_eq!(r.violations.stale_epoch_commits, 0);
        assert_eq!(c.active_count(), 5);
    }

    #[test]
    fn churn_run_is_deterministic() {
        let run = || {
            let mut c = PbftCluster::builder(4).standby(1).seed(24).build();
            for s in 0..12 {
                c.submit(tx(s));
            }
            let mut got = c.run_until(SimTime::from_secs(4)).len();
            c.join(NodeId(4));
            got += c.run_until(SimTime::from_secs(8)).len();
            c.leave(NodeId(1));
            got += c.run_until(SimTime::from_secs(40)).len();
            (
                got,
                c.config_epoch(),
                format!("{:?}", c.safety_report().unwrap()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn larger_clusters_commit_slower() {
        let latency = |n: u32| {
            let mut c = PbftCluster::builder(n)
                .seed(10)
                .period(SimDuration::from_millis(10))
                .build();
            let t0 = c.now();
            c.submit(tx(1));
            let batches = c.run_until(SimTime::from_secs(30));
            assert_eq!(batches.len(), 1, "n={n}");
            batches[0].committed_at - t0
        };
        let small = latency(4);
        let large = latency(32);
        assert!(
            large > small,
            "32 nodes ({large}) must be slower than 4 ({small}): O(n²) messages"
        );
    }
}
