//! Istanbul BFT — the consensus of the modelled Quorum (the paper runs
//! ConsenSys Quorum with `istanbul.blockperiod` ∈ {1, 2, 5, 10} s, Table 6).
//!
//! IBFT is a three-phase BFT protocol with a rotating proposer, run on the
//! shared [`three_phase`] engine: the proposer of height *h*, round *r* is
//! node `(h + r) mod n`. Like the real Quorum, the modelled cluster
//! produces a block every `blockperiod` ([`Builder::period`]) *even when
//! the transaction pool is empty* — empty blocks are exactly what the paper
//! observes during Quorum's liveness anomaly (§5.5), so the engine emits
//! them.
//!
//! The [`Ibft`] policy keys everything to `(height, round)`: votes count
//! only at the node's current height and round, and a committed height
//! starts the next one at round 0. A round change (`RoundChange` messages,
//! 2f + 1 quorum per height and round) replaces a non-performing proposer;
//! every validator adopts the new round on quorum and reclaims the blocks
//! of that height's abandoned rounds.
//!
//! [`three_phase`]: crate::three_phase

use coconut_types::{Hasher64, MixMap, NodeId, SimDuration};

use crate::three_phase::{Builder, Cluster, Msg, Node, Policy, CHANGE_BYTES, PROC_PER_MSG};
use crate::Command;

/// The IBFT policy of the three-phase engine.
#[derive(Debug, Clone, Copy)]
pub struct Ibft;

/// A validator's round-change state.
#[derive(Debug, Default)]
pub struct RoundChange {
    /// Round-change votes received, per (height, round).
    votes: MixMap<(u64, u64), u32>,
    /// Highest round this validator has voted to move to, per height.
    voted: MixMap<u64, u64>,
}

/// Configuration for an [`IbftCluster`]; build with [`Cluster::builder`].
pub type IbftBuilder = Builder<Ibft>;

/// A simulated Istanbul BFT validator set.
///
/// # Example
///
/// ```
/// use coconut_consensus::{ibft::IbftCluster, Command};
/// use coconut_types::{ClientId, SimDuration, SimTime, TxId};
///
/// let mut ibft = IbftCluster::builder(4)
///     .seed(5)
///     .period(SimDuration::from_secs(1))
///     .build();
/// ibft.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let blocks = ibft.run_until(SimTime::from_secs(3));
/// assert!(blocks.iter().any(|b| !b.commands.is_empty()));
/// ```
pub type IbftCluster = Cluster<Ibft>;

impl Policy for Ibft {
    type Change = RoundChange;
    const BATCH_COMMANDS: usize = 1000;
    const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(4);
    const PROPOSES_EMPTY_BLOCKS: bool = true;

    fn rotation(height: u64, round: u64) -> u64 {
        height + round
    }

    fn digest(batch: &[Command], height: u64, round: u64, sibling: bool) -> u64 {
        let key = height.wrapping_mul(31).wrapping_add(round);
        let key = if sibling {
            key.wrapping_add(0xB12A_57DE)
        } else {
            key
        };
        let mut h = Hasher64::with_key(key);
        for c in batch {
            h.write_u64(c.tx.as_u64());
        }
        h.finish()
    }

    fn accepts_vote(node: &Node<RoundChange>, height: u64, round: u64) -> bool {
        height == node.height && round == node.view
    }

    fn view_after_commit(_round: u64) -> u64 {
        0
    }

    /// The next proposer waits a block period before proposing, so the
    /// watch covers that too.
    fn watch_delay(period: SimDuration, timeout: SimDuration) -> SimDuration {
        period + timeout
    }

    fn on_timeout(c: &mut IbftCluster, me: NodeId, height: u64, round: u64) {
        let node = &mut c.p.nodes[me.0 as usize];
        if node.height != height
            || node.view != round
            || node
                .slots
                .get(&(height, round))
                .is_some_and(|s| s.committed)
        {
            return;
        }
        let new_round = round + 1;
        let voted = node.change.voted.entry(height).or_insert(0);
        if *voted >= new_round {
            return;
        }
        *voted = new_round;
        let now = c.net.now();
        let done = c.cpu.process(me, now, PROC_PER_MSG);
        c.net
            .broadcast_delayed(me, done - now, CHANGE_BYTES, |_| Msg::ViewChange {
                height,
                view: new_round,
            });
        Self::on_view_change(c, me, height, new_round);
    }

    fn on_view_change(c: &mut IbftCluster, me: NodeId, height: u64, round: u64) {
        let quorum = c.quorum();
        let node = &mut c.p.nodes[me.0 as usize];
        if node.height != height || round <= node.view {
            return;
        }
        let votes = node.change.votes.entry((height, round)).or_insert(0);
        *votes += 1;
        if *votes < quorum {
            return;
        }
        node.view = round;
        // Blocks stuck in the abandoned rounds of this height are reclaimed
        // so their commands are re-proposed, not stranded.
        c.reclaim(me, |h, r| h == height && r < round);
        if c.leader(height, round) == me {
            // Exactly one node is the new proposer, so this is counted once
            // per successful round change across the cluster.
            c.liveness.observe_view_change(c.net.now());
            c.net.timer(
                me,
                SimDuration::from_millis(10),
                Msg::ProposeTimer {
                    height,
                    view: round,
                },
            );
        }
        c.watch(me, height, round);
    }

    fn align_joiner(c: &mut IbftCluster, joiner: NodeId) {
        c.p.nodes[joiner.0 as usize].view = 0;
    }

    /// Every active validator realigns on (next height, round 0) and
    /// watches it; then its proposer re-proposes.
    fn restart_epoch(c: &mut IbftCluster) {
        let height = c.p.next_height;
        for (i, node) in c.p.nodes.iter_mut().enumerate() {
            node.change = RoundChange::default();
            if c.alive[i] && c.membership.is_active(NodeId(i as u32)) {
                node.height = height;
                node.view = 0;
            }
        }
        c.watch_active(height, 0);
        c.net.timer(
            c.leader(height, 0),
            c.p.period,
            Msg::ProposeTimer { height, view: 0 },
        );
    }
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
    fn commits_transactions_in_blocks() {
        let mut c = IbftCluster::builder(4).seed(1).build();
        for s in 0..5 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(4));
        let total: usize = blocks.iter().map(|b| b.commands.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn produces_empty_blocks_on_cadence() {
        let mut c = IbftCluster::builder(4)
            .seed(2)
            .period(SimDuration::from_secs(1))
            .build();
        let blocks = c.run_until(SimTime::from_secs(10));
        assert!(
            blocks.len() >= 8,
            "expected ~1 block/s even with no transactions, got {}",
            blocks.len()
        );
        assert!(blocks.iter().all(|b| b.commands.is_empty()));
    }

    #[test]
    fn block_period_paces_production() {
        for period_s in [1u64, 2] {
            let mut c = IbftCluster::builder(4)
                .seed(4)
                .period(SimDuration::from_secs(period_s))
                .build();
            let blocks = c.run_until(SimTime::from_secs(20));
            for w in blocks.windows(2) {
                let gap = w[1].committed_at - w[0].committed_at;
                assert!(
                    gap >= SimDuration::from_secs(period_s),
                    "gap {gap} < block period {period_s}s"
                );
            }
        }
    }

    #[test]
    fn proposers_rotate() {
        let mut c = IbftCluster::builder(4).seed(5).build();
        let blocks = c.run_until(SimTime::from_secs(8));
        let proposers: Vec<NodeId> = blocks.iter().map(|b| b.proposer).collect();
        // Height h proposer = h mod 4, so the sequence cycles.
        for (i, p) in proposers.iter().enumerate() {
            assert_eq!(p.0, (i % 4) as u32);
        }
    }

    #[test]
    fn proposer_crash_triggers_round_change() {
        let mut c = IbftCluster::builder(4).seed(6).build();
        // Proposer of height 0 is node 0; crash it before anything happens.
        c.crash(NodeId(0));
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(30));
        let non_empty: Vec<_> = blocks.iter().filter(|b| !b.commands.is_empty()).collect();
        assert_eq!(
            non_empty.len(),
            1,
            "round change must rescue the stalled height"
        );
        assert_ne!(non_empty[0].proposer, NodeId(0));
    }

    #[test]
    fn no_progress_without_quorum() {
        let mut c = IbftCluster::builder(4).seed(7).build();
        c.crash(NodeId(2));
        c.crash(NodeId(3));
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(20));
        assert!(blocks.is_empty());
    }

    #[test]
    fn submission_order_is_preserved() {
        let mut c = IbftCluster::builder(4)
            .seed(8)
            .batch(BatchConfig::new(3, SimDuration::from_secs(1)))
            .period(SimDuration::from_millis(500))
            .build();
        for s in 0..12 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        let seqs: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        assert_eq!(seqs.len(), 12);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = IbftCluster::builder(4).seed(seed).build();
            for s in 0..6 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(10))
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(12), run(12));
    }

    #[test]
    fn one_equivocating_proposer_is_safe() {
        let mut c = IbftCluster::builder(4).seed(21).build();
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
        let blocks = c.run_until(SimTime::from_secs(30));
        assert!(
            blocks.len() >= 8,
            "f = 1 equivocator must not halt block production, got {}",
            blocks.len()
        );
        let r = c.safety_report().unwrap();
        assert!(r.observed.equivocating_proposals > 0, "attack must run");
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "≤ f Byzantine: {:?}", r.violations);
    }

    #[test]
    fn two_byzantine_validators_break_safety_and_are_counted() {
        let mut c = IbftCluster::builder(4).seed(22).build();
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
            let mut c = IbftCluster::builder(4).seed(23).build();
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
            let blocks = c.run_until(SimTime::from_secs(30));
            (format!("{:?}", c.safety_report().unwrap()), blocks.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn join_grows_membership_after_sync_without_violations() {
        let mut c = IbftCluster::builder(4).standby(1).seed(31).build();
        assert_eq!((c.active_count(), c.config_epoch()), (4, 0));
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(3));
        assert!(first.iter().any(|b| !b.commands.is_empty()));
        assert!(c.join(NodeId(4)), "standby is admitted");
        assert!(!c.join(NodeId(4)), "double join rejected");
        assert_eq!(c.active_count(), 4, "not active until synced");
        for s in 2..8 {
            c.submit(tx(s));
        }
        let more = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(
            more.iter().any(|b| !b.commands.is_empty()),
            "commits continue through the join"
        );
        assert_eq!((c.active_count(), c.config_epoch()), (5, 1));
        let r = c.safety_report().unwrap();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn leave_shrinks_membership_and_keeps_minting() {
        let mut c = IbftCluster::builder(4).seed(32).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(3));
        assert!(first.iter().any(|b| !b.commands.is_empty()));
        assert!(c.leave(NodeId(0)));
        assert_eq!((c.active_count(), c.config_epoch()), (3, 1));
        for s in 2..6 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(
            blocks.iter().any(|b| !b.commands.is_empty()),
            "the shrunken validator set keeps committing"
        );
        assert!(blocks.iter().all(|b| b.proposer != NodeId(0)));
        let r = c.safety_report().unwrap();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
        assert!(!c.leave(NodeId(0)), "already departed");
    }

    #[test]
    fn joiner_never_votes_before_sync_completes() {
        let mut c = IbftCluster::builder(4).standby(1).seed(33).build();
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
            let mut c = IbftCluster::builder(4).standby(1).seed(34).build();
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
    fn drop_pending_flushes_pool() {
        let mut c = IbftCluster::builder(4).seed(9).build();
        for s in 0..10 {
            c.submit(tx(s));
        }
        assert_eq!(c.pending_len(), 10);
        assert_eq!(c.drop_pending(), 10);
        assert_eq!(c.pending_len(), 0);
    }
}
