//! DiemBFT — the consensus of the modelled Diem (the paper runs Diem at
//! commit `94a8bca0fa` with `max_block_size` ∈ {100, 500, 1000, 2000},
//! Table 5).
//!
//! DiemBFT is a chained HotStuff-family protocol: a leader per round
//! proposes a block extending the highest quorum certificate (QC),
//! validators send votes to the *next* leader, who aggregates 2f + 1 votes
//! into a QC and proposes the next block carrying it. A block commits under
//! the 2-chain rule: a QC'd block is committed once a QC forms for a child
//! block in the *contiguous* next round. The pacemaker advances rounds via
//! timeout certificates (2f + 1 timeout messages) when a leader stalls.
//!
//! Diem's proposal generator caps blocks at `max_block_size`
//! ([`Builder::batch`]); when the mempool is empty but uncommitted
//! QC'd blocks remain, leaders propose NIL blocks so the 2-chain rule can
//! finish committing the tail.
//!
//! # Byzantine fault injection
//!
//! [`Shell::set_byzantine`] arms a validator with a
//! [`ByzantineBehaviour`]. An equivocating leader proposes two conflicting
//! blocks for its round — fellow Byzantine validators receive both, honest
//! validators are split between them — and votes for both. A double-voting
//! validator answers a conflicting proposal for a round it already voted in
//! with a second vote. A [`SafetyMonitor`] observes every proposal, vote,
//! quorum certificate, and commit; with at most `f` Byzantine validators the
//! minority block falls short of a QC and the report stays clean, while
//! `f + 1` colluders can certify two blocks in one round — counted as
//! conflicting certificates, never a panic.
//!
//! [`ByzantineBehaviour`]: coconut_simnet::ByzantineBehaviour
//! [`SafetyMonitor`]: crate::SafetyMonitor

use std::collections::{HashMap, HashSet};

use coconut_simnet::NetSim;
use coconut_types::{Hasher64, NodeId, SimDuration, SimTime};

use crate::safety::VotePhase;
use crate::shell::{Bft, Builder, Protocol, Shell};
use crate::{BatchConfig, Command, CommittedBatch};

use wire::DiemMsg;

/// Minimum spacing between a leader's proposals (paces NIL rounds).
const ROUND_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Pacemaker round timeout.
const ROUND_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Fixed CPU cost of handling any protocol message.
const PROC_PER_MSG: SimDuration = SimDuration::from_micros(40);
/// Additional CPU cost per command in a proposal.
const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(8);

/// Messages; public only to the engine shell.
mod wire {
    use crate::Command;
    use coconut_types::NodeId;

    /// DiemBFT protocol messages and pacemaker timers.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DiemMsg {
        /// Leader cadence timer.
        ProposeTimer {
            round: u64,
        },
        /// Pacemaker timeout for a round.
        RoundTimeout {
            round: u64,
        },
        Proposal {
            round: u64,
            digest: u64,
            parent: u64,
            parent_round: u64,
            batch: Vec<Command>,
        },
        Vote {
            epoch: u64,
            round: u64,
            digest: u64,
            from: NodeId,
        },
        Timeout {
            round: u64,
        },
        /// A joiner's catch-up/state transfer finished: activate it.
        SyncDone,
    }
}

/// A proposed block as tracked in the (global, for emission) block store.
#[derive(Debug, Clone)]
struct BlockInfo {
    round: u64,
    parent: u64,
    parent_round: u64,
    batch: Vec<Command>,
    proposer: NodeId,
}

#[derive(Debug)]
struct DiemNode {
    round: u64,
    highest_voted: u64,
}

/// The DiemBFT protocol state of a [`DiemBftCluster`].
#[derive(Debug)]
pub struct DiemBft {
    nodes: Vec<DiemNode>,
    /// digest → block (proposals are broadcast; this is the union store).
    blocks: HashMap<u64, BlockInfo>,
    /// (round, digest) → vote count at the aggregating leader.
    votes: HashMap<(u64, u64), u32>,
    /// digest → round, for certified blocks.
    qcs: HashMap<u64, u64>,
    /// Highest formed QC as (round, digest).
    highest_qc: (u64, u64),
    timeout_votes: HashMap<u64, u32>,
    committed_digests: HashSet<u64>,
    /// Digests of certified, uncommitted blocks with a non-empty batch —
    /// the blocks that still need a child QC. Kept in step with `qcs`,
    /// `committed_digests` and `blocks` by [`Shell::refresh_work`] so
    /// [`Shell::has_work`] never scans `qcs`, which is never pruned.
    uncommitted_work: HashSet<u64>,
    last_committed_round: u64,
    proposed_rounds: HashSet<u64>,
    bft: Bft,
}

/// Configuration for a [`DiemBftCluster`]; build with [`Shell::builder`].
pub type DiemBftBuilder = Builder<DiemBft>;

/// A simulated DiemBFT validator set.
///
/// # Example
///
/// ```
/// use coconut_consensus::{diembft::DiemBftCluster, Command};
/// use coconut_types::{ClientId, SimTime, TxId};
///
/// let mut diem = DiemBftCluster::builder(4).seed(2).build();
/// diem.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let blocks = diem.run_until(SimTime::from_secs(5));
/// assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
/// ```
pub type DiemBftCluster = Shell<DiemBft>;

impl Protocol for DiemBft {
    type Msg = DiemMsg;
    type Config = ();
    const CONFIG: () = ();
    const BATCH: BatchConfig = BatchConfig {
        max_commands: 3000,
        max_wait: SimDuration::from_millis(250),
    };
    const SYNC_DONE: DiemMsg = DiemMsg::SyncDone;

    /// Round 1's leader proposes after one interval.
    fn init(b: &DiemBftBuilder, net: &mut NetSim<DiemMsg>) -> Self {
        let first_leader = NodeId((1 % b.nodes as u64) as u32);
        net.timer(
            first_leader,
            ROUND_INTERVAL,
            DiemMsg::ProposeTimer { round: 1 },
        );
        // Genesis: digest 0, round 0, self-parent, certified.
        let genesis = BlockInfo {
            round: 0,
            parent: 0,
            parent_round: 0,
            batch: Vec::new(),
            proposer: NodeId(0),
        };
        DiemBft {
            nodes: (0..b.provisioned())
                .map(|_| DiemNode {
                    round: 1,
                    highest_voted: 0,
                })
                .collect(),
            blocks: HashMap::from([(0, genesis)]),
            votes: HashMap::new(),
            qcs: HashMap::from([(0, 0)]),
            highest_qc: (0, 0),
            timeout_votes: HashMap::new(),
            committed_digests: HashSet::new(),
            uncommitted_work: HashSet::new(),
            last_committed_round: 0,
            proposed_rounds: HashSet::new(),
            bft: Bft::new(b),
        }
    }

    /// A joiner syncs every committed block.
    fn sync_units(s: &DiemBftCluster) -> u64 {
        s.p.committed_digests.len() as u64
    }

    fn deliver(s: &mut DiemBftCluster, me: NodeId, at: SimTime, msg: DiemMsg) {
        match msg {
            DiemMsg::ProposeTimer { round } => s.on_propose_timer(me, round),
            DiemMsg::RoundTimeout { round } => s.on_round_timeout(me, round),
            DiemMsg::Proposal {
                round,
                digest,
                parent,
                parent_round,
                batch,
            } => s.on_proposal(me, at, round, digest, parent, parent_round, batch),
            DiemMsg::Vote {
                epoch,
                round,
                digest,
                from,
            } => {
                if s.current_epoch(epoch) {
                    s.on_vote(me, at, round, digest, from);
                }
            }
            DiemMsg::Timeout { round } => s.on_timeout_msg(me, at, round),
            DiemMsg::SyncDone => {} // the shell's
        }
    }

    fn on_join(s: &mut DiemBftCluster, node: NodeId) {
        s.p.bft.monitor.observe_sync_start(node);
    }

    /// The joiner enters at the current frontier round.
    fn admit(s: &mut DiemBftCluster, node: NodeId) {
        s.p.bft.monitor.observe_sync_complete(node);
        let frontier = s.p.highest_qc.0;
        let joiner = &mut s.p.nodes[node.0 as usize];
        joiner.round = joiner.round.max(frontier + 1);
        // The joiner must never retro-vote a pre-sync round.
        joiner.highest_voted = joiner.highest_voted.max(frontier);
    }

    /// Recomputes the quorum over the new active count, resets in-flight
    /// vote/timeout tallies (their epoch is superseded — a quorum of the
    /// old membership must not certify a block), reclaims commands stuck
    /// in uncertified frontier blocks, and restarts the proposal chain over
    /// the new membership.
    fn on_epoch_change(s: &mut DiemBftCluster) {
        let quorum = s.quorum();
        s.p.bft.monitor.begin_epoch(s.membership.epoch(), quorum);
        s.p.votes.clear();
        s.p.timeout_votes.clear();
        // Blocks proposed past the highest QC can no longer certify (their
        // vote tallies are void).
        let frontier = s.p.highest_qc.0;
        s.reclaim_rounds(|r| r > frontier);
        // The frontier round may be re-proposed under the new epoch.
        s.p.proposed_rounds.retain(|&r| r <= frontier);
        let next = frontier + 1;
        s.net.timer(
            s.leader_of(next),
            ROUND_INTERVAL,
            DiemMsg::ProposeTimer { round: next },
        );
        s.arm_round_timeouts(next);
    }

    /// A recovered validator resumes at the highest round a live validator
    /// knows (models Diem's "spiking" stalls when the chain layer pairs
    /// crash and recover on a timer).
    fn on_recover(s: &mut DiemBftCluster, node: NodeId) {
        let max_round =
            s.p.nodes
                .iter()
                .zip(&s.alive)
                .filter(|(_, &alive)| alive)
                .map(|(n, _)| n.round)
                .max()
                .unwrap_or(1);
        let n = &mut s.p.nodes[node.0 as usize];
        n.round = n.round.max(max_round);
    }

    /// Kicks idle leaders when work arrived between calls.
    fn before_run(s: &mut DiemBftCluster) {
        s.kick_current_leader();
    }

    fn bft(&self) -> Option<&Bft> {
        Some(&self.bft)
    }

    fn bft_mut(&mut self) -> Option<&mut Bft> {
        Some(&mut self.bft)
    }
}

/// The digest of a block at `key` (its round, salted for skip and
/// equivocated blocks) extending `parent` with `batch`.
fn block_digest(key: u64, parent: u64, batch: &[Command]) -> u64 {
    let mut h = Hasher64::with_key(key);
    h.write_u64(parent);
    for c in batch {
        h.write_u64(c.tx.as_u64());
    }
    h.finish()
}

impl Shell<DiemBft> {
    fn leader_of(&self, round: u64) -> NodeId {
        // Rotation over the active membership; identical to `round mod n`
        // until the first join/leave.
        self.membership.select(round)
    }

    fn kick_current_leader(&mut self) {
        let round = self.p.highest_qc.0 + 1;
        if !self.p.proposed_rounds.contains(&round) {
            let leader = self.leader_of(round);
            self.net.timer(
                leader,
                SimDuration::from_micros(1),
                DiemMsg::ProposeTimer { round },
            );
            if !self.alive[leader.0 as usize] {
                // A crashed proposer swallows the kick; the pacemaker must
                // still run so a timeout certificate can skip its round.
                self.arm_round_timeouts(round);
            }
        }
    }

    /// Arms the pacemaker for `round` at every alive validator (entering a
    /// round always starts a local timeout in DiemBFT).
    fn arm_round_timeouts(&mut self, round: u64) {
        for i in 0..self.p.nodes.len() {
            let id = NodeId(i as u32);
            if self.alive[i] && self.membership.is_active(id) {
                self.net
                    .timer(id, ROUND_TIMEOUT, DiemMsg::RoundTimeout { round });
            }
        }
    }

    /// Whether there is any reason to keep proposing: work in the mempool,
    /// or an uncommitted certified *non-empty* block that needs a child QC
    /// to commit under the 2-chain rule. An empty certified tail carries
    /// nothing to commit, so the cluster may go idle on it.
    fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.p.uncommitted_work.is_empty()
    }

    /// Recomputes whether `digest` belongs in `uncommitted_work`. Called
    /// after every write that can change one of its four facts: the QC,
    /// the commit, the block (a re-proposed round can overwrite a drained
    /// block under the same digest) and the block's batch.
    fn refresh_work(&mut self, digest: u64) {
        let p = &mut self.p;
        if digest != 0
            && p.qcs.contains_key(&digest)
            && !p.committed_digests.contains(&digest)
            && p.blocks.get(&digest).is_some_and(|b| !b.batch.is_empty())
        {
            p.uncommitted_work.insert(digest);
        } else {
            p.uncommitted_work.remove(&digest);
        }
    }

    /// Requeues, ahead of the mempool, the commands of the non-empty blocks
    /// at the rounds `abandoned` selects: such a block can never certify.
    /// Blocks go in digest order (block-store iteration order is not
    /// deterministic); real mempools only evict on commit.
    fn reclaim_rounds(&mut self, abandoned: impl Fn(u64) -> bool) {
        let mut stranded: Vec<u64> = self
            .p
            .blocks
            .iter()
            .filter(|(_, b)| abandoned(b.round) && !b.batch.is_empty())
            .map(|(&d, _)| d)
            .collect();
        stranded.sort_unstable();
        let mut cmds = Vec::new();
        for d in stranded {
            if let Some(b) = self.p.blocks.get_mut(&d) {
                cmds.append(&mut b.batch);
            }
            self.refresh_work(d);
        }
        let mut reclaimed = self.p.bft.unfinalized(&self.pending, cmds);
        reclaimed.append(&mut self.pending);
        self.pending = reclaimed;
    }

    fn on_propose_timer(&mut self, me: NodeId, round: u64) {
        if self.leader_of(round) != me || self.p.proposed_rounds.contains(&round) {
            return;
        }
        // Propose only for the round following our highest QC (chained rule).
        if round != self.p.highest_qc.0 + 1 {
            return;
        }
        if !self.has_work() {
            // Idle: re-check after an interval.
            self.net
                .timer(me, ROUND_INTERVAL, DiemMsg::ProposeTimer { round });
            return;
        }
        self.propose(me, round, false);
    }

    /// `me` proposes a block for `round` extending the highest QC, votes
    /// for it and arms its pacemaker. A `skip` proposal follows a timeout
    /// certificate: it extends the highest QC at a non-contiguous round (so
    /// it cannot immediately commit its parent — matching the protocol's
    /// safety rule) under its own digest salt, and never equivocates.
    fn propose(&mut self, me: NodeId, round: u64, skip: bool) {
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let parent = self.p.highest_qc.1;
        let parent_round = self.p.blocks.get(&parent).map_or(0, |b| b.round);
        let block = |batch: &[Command]| BlockInfo {
            round,
            parent,
            parent_round,
            batch: batch.to_vec(),
            proposer: me,
        };
        let digest = block_digest(if skip { round ^ 0xDEAD } else { round }, parent, &batch);
        self.p.proposed_rounds.insert(round);
        self.p.blocks.insert(digest, block(&batch));
        self.refresh_work(digest);
        self.p.bft.monitor.observe_proposal(0, round, me, digest);
        let bytes = 96 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = PROC_PER_MSG + PROC_PER_COMMAND * batch.len() as u64;
        let now = self.net.now();
        let extra = self.cpu.process(me, now, cost) - now;
        let proposal = |digest| DiemMsg::Proposal {
            round,
            digest,
            parent,
            parent_round,
            batch: batch.clone(),
        };
        if !skip && self.p.bft.byz[me.0 as usize].equivocates(now) && self.p.nodes.len() >= 3 {
            // Equivocation: a second block for the same round over the same
            // commands, under a salted digest. Fellow Byzantine validators
            // receive both versions, honest validators are split between
            // them, and the leader votes for both — with at most `f`
            // colluders the minority block falls short of a QC.
            let alt = block_digest(round ^ 0xB12A_57DE, parent, &batch);
            self.p.blocks.insert(alt, block(&batch));
            self.refresh_work(alt);
            self.p.bft.monitor.observe_proposal(0, round, me, alt);
            let mut honest_idx = 0usize;
            for i in 0..self.p.nodes.len() {
                let peer = NodeId(i as u32);
                if peer == me {
                    continue;
                }
                if self.p.bft.byz[i].is_byzantine(now) {
                    self.net
                        .send_delayed(me, peer, extra, bytes, proposal(digest));
                    self.net.send_delayed(me, peer, extra, bytes, proposal(alt));
                } else {
                    let d = if honest_idx.is_multiple_of(2) {
                        digest
                    } else {
                        alt
                    };
                    honest_idx += 1;
                    self.net.send_delayed(me, peer, extra, bytes, proposal(d));
                }
            }
            self.cast_vote(me, round, digest);
            self.cast_vote(me, round, alt);
        } else {
            self.net
                .broadcast_delayed(me, extra, bytes, |_| proposal(digest));
            // The leader votes for its own proposal (the vote goes to the
            // next leader).
            self.cast_vote(me, round, digest);
        }
        // Arm pacemaker for this round at the leader.
        self.net
            .timer(me, ROUND_TIMEOUT, DiemMsg::RoundTimeout { round });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_proposal(
        &mut self,
        me: NodeId,
        at: SimTime,
        round: u64,
        digest: u64,
        parent: u64,
        parent_round: u64,
        batch: Vec<Command>,
    ) {
        let cost = PROC_PER_MSG + PROC_PER_COMMAND * batch.len() as u64;
        let _ = self.cpu.process(me, at, cost);
        let proposer = self.leader_of(round);
        self.p.blocks.entry(digest).or_insert(BlockInfo {
            round,
            parent,
            parent_round,
            batch,
            proposer,
        });
        self.refresh_work(digest);
        // A double-voting validator answers a conflicting proposal for the
        // round it just voted in with a second vote, violating the
        // vote-once safety rule.
        let dv = self.p.bft.byz[me.0 as usize].double_votes(at);
        self.liveness.observe_progress(me, at);
        let node = &mut self.p.nodes[me.0 as usize];
        node.round = node.round.max(round);
        if node.highest_voted >= round && !(dv && node.highest_voted == round) {
            return; // already voted this round (safety rule)
        }
        node.highest_voted = round;
        self.cast_vote(me, round, digest);
        // Arm pacemaker for the next round.
        self.net.timer(
            me,
            ROUND_TIMEOUT,
            DiemMsg::RoundTimeout { round: round + 1 },
        );
    }

    fn cast_vote(&mut self, me: NodeId, round: u64, digest: u64) {
        let next_leader = self.leader_of(round + 1);
        let now = self.net.now();
        let done = self.cpu.process(me, now, PROC_PER_MSG);
        if next_leader == me {
            self.on_vote(me, now, round, digest, me);
        } else {
            let epoch = self.membership.epoch();
            self.net.send_delayed(
                me,
                next_leader,
                done - now,
                64,
                DiemMsg::Vote {
                    epoch,
                    round,
                    digest,
                    from: me,
                },
            );
        }
    }

    fn on_vote(&mut self, me: NodeId, at: SimTime, round: u64, digest: u64, from: NodeId) {
        let _ = self.cpu.process(me, at, PROC_PER_MSG);
        if self.leader_of(round + 1) != me {
            return;
        }
        self.p
            .bft
            .monitor
            .observe_vote(me, VotePhase::Vote, 0, round, digest, from);
        let count = self.p.votes.entry((round, digest)).or_insert(0);
        *count += 1;
        if *count == self.quorum() {
            // QC formed.
            let monitor = &mut self.p.bft.monitor;
            monitor.observe_quorum(me, VotePhase::Vote, 0, round, digest);
            monitor.observe_certificate(round, digest);
            self.p.qcs.insert(digest, round);
            self.refresh_work(digest);
            if round > self.p.highest_qc.0 {
                self.p.highest_qc = (round, digest);
            }
            self.try_commit(digest);
            // Chained: the next leader (us) proposes after the round
            // interval (paces NIL rounds; real DiemBFT proposes
            // back-to-back, but the interval is what Diem's round timer
            // amounts to under our virtual clock).
            self.net.timer(
                me,
                ROUND_INTERVAL,
                DiemMsg::ProposeTimer { round: round + 1 },
            );
        }
    }

    /// 2-chain commit: forming a QC for block B commits B's parent when the
    /// parent is at the contiguous previous round.
    fn try_commit(&mut self, certified: u64) {
        let Some(block) = self.p.blocks.get(&certified) else {
            return;
        };
        let parent_digest = block.parent;
        let contiguous = block.parent_round + 1 == block.round;
        if !contiguous || parent_digest == 0 || !self.p.qcs.contains_key(&parent_digest) {
            return;
        }
        // Commit parent and any uncommitted certified ancestors (in order).
        let mut chain = Vec::new();
        let mut cur = parent_digest;
        while cur != 0 && !self.p.committed_digests.contains(&cur) {
            chain.push(cur);
            cur = self.p.blocks.get(&cur).map_or(0, |b| b.parent);
        }
        let now = self.net.now();
        let p = &mut self.p;
        for digest in chain.into_iter().rev() {
            let info = &p.blocks[&digest];
            if info.round <= p.last_committed_round {
                continue;
            }
            p.committed_digests.insert(digest);
            p.uncommitted_work.remove(&digest);
            p.last_committed_round = info.round;
            self.liveness.observe_commit(now);
            // Vote tallies are reset on every membership change, so the QC
            // behind this commit formed entirely in the current epoch.
            p.bft
                .monitor
                .observe_epoch_commit(self.membership.epoch(), info.round, digest);
            p.bft.finalize(&info.batch);
            if !info.batch.is_empty() {
                self.committed.push(CommittedBatch {
                    commands: info.batch.clone(),
                    proposer: info.proposer,
                    round: info.round,
                    committed_at: now,
                });
            }
        }
    }

    fn on_round_timeout(&mut self, me: NodeId, round: u64) {
        // Complain only if the round is still the frontier (no QC yet).
        if self.p.highest_qc.0 >= round {
            return;
        }
        let now = self.net.now();
        let done = self.cpu.process(me, now, PROC_PER_MSG);
        self.net
            .broadcast_delayed(me, done - now, 48, |_| DiemMsg::Timeout { round });
        self.on_timeout_msg(me, now, round);
    }

    fn on_timeout_msg(&mut self, me: NodeId, at: SimTime, round: u64) {
        let _ = self.cpu.process(me, at, PROC_PER_MSG);
        let votes = self.p.timeout_votes.entry(round).or_insert(0);
        *votes += 1;
        if *votes != self.quorum() {
            return;
        }
        // Timeout certificate: the round is dead; the next round's leader
        // proposes from the highest QC. Mark the dead round as proposed so
        // nobody revives it. The shared tally fires exactly once per round,
        // so this counts one pacemaker advance cluster-wide.
        self.liveness.observe_view_change(at);
        self.p.proposed_rounds.insert(round);
        let next = round + 1;
        if self.p.highest_qc.0 < round {
            // A block proposed at the dead round can never certify (nobody
            // votes it again, and a skip proposal extends the highest QC,
            // not it).
            self.reclaim_rounds(|r| r == round);
            // Rounds up to `round` are skipped: the new leader extends the
            // highest QC at round `next`.
            let leader = self.leader_of(next);
            if self.alive[leader.0 as usize] && !self.p.proposed_rounds.contains(&next) {
                self.propose(leader, next, true);
            } else {
                // The skip target is dead too: keep the pacemaker running
                // so `next` can also be timed out.
                self.arm_round_timeouts(next);
            }
        }
        self.p.timeout_votes.remove(&round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_simnet::ByzantineBehaviour;
    use coconut_types::{ClientId, TxId};

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    impl DiemBftCluster {
        /// The full `qcs` scan `has_work` used to make: certified,
        /// uncommitted, non-genesis blocks with a non-empty batch.
        fn uncommitted_work_by_scan(&self) -> HashSet<u64> {
            self.p
                .qcs
                .keys()
                .copied()
                .filter(|digest| {
                    *digest != 0
                        && !self.p.committed_digests.contains(digest)
                        && self
                            .p
                            .blocks
                            .get(digest)
                            .is_some_and(|b| !b.batch.is_empty())
                })
                .collect()
        }

        /// Runs to `deadline` in 50 ms steps, checking the maintained set
        /// against the scan after every step. Returns the commits and
        /// how many steps saw a non-empty set.
        fn run_checking_work(&mut self, deadline: SimTime) -> (Vec<CommittedBatch>, usize) {
            let mut blocks = Vec::new();
            let mut busy_steps = 0;
            while self.now() < deadline {
                let step = (self.now() + SimDuration::from_millis(50)).min(deadline);
                blocks.extend(self.run_until(step));
                let scanned = self.uncommitted_work_by_scan();
                assert_eq!(self.p.uncommitted_work, scanned, "at {:?}", self.now());
                assert_eq!(
                    self.has_work(),
                    !self.pending.is_empty() || !scanned.is_empty()
                );
                busy_steps += usize::from(!scanned.is_empty());
            }
            (blocks, busy_steps)
        }
    }

    fn equivocating_cluster(byzantine: &[u32], seed: u64) -> DiemBftCluster {
        let mut c = DiemBftCluster::builder(4).seed(seed).build();
        for &node in byzantine {
            for behaviour in [
                ByzantineBehaviour::EquivocateProposer,
                ByzantineBehaviour::DoubleVote,
            ] {
                c.set_byzantine(NodeId(node), behaviour, SimTime::from_secs(60));
            }
        }
        c
    }

    #[test]
    fn work_set_matches_scan_with_equivocating_leaders() {
        // f = 1 equivocator, then f + 1 = 2 colluders certifying siblings.
        for (byzantine, seed) in [(&[1][..], 31), (&[1, 2][..], 32)] {
            let mut c = equivocating_cluster(byzantine, seed);
            for s in 0..40 {
                c.submit(tx(s));
            }
            let (_, busy) = c.run_checking_work(SimTime::from_secs(10));
            for s in 40..80 {
                c.submit(tx(s));
            }
            let (_, more) = c.run_checking_work(SimTime::from_secs(30));
            assert!(busy + more > 0, "the set must be exercised");
            assert!(c.safety_report().unwrap().observed.equivocating_proposals > 0);
        }
    }

    #[test]
    fn work_set_matches_scan_through_timeout_certificates() {
        let mut c = DiemBftCluster::builder(4).seed(5).build();
        for s in 0..20 {
            c.submit(tx(s));
        }
        let _ = c.run_checking_work(SimTime::from_secs(5));
        let leader = c.leader_of(c.p.highest_qc.0 + 1);
        c.crash(leader);
        for s in 20..60 {
            c.submit(tx(s));
        }
        let (blocks, busy) = c.run_checking_work(c.now() + SimDuration::from_secs(30));
        assert!(busy > 0);
        assert!(
            c.liveness_report().view_changes > 0,
            "a timeout certificate must have formed"
        );
        assert!(blocks
            .iter()
            .any(|b| b.commands.iter().any(|cmd| cmd.tx.seq() >= 20)));
    }

    #[test]
    fn work_set_matches_scan_through_join_and_leave() {
        let mut c = DiemBftCluster::builder(4).standby(1).seed(44).build();
        for s in 0..30 {
            c.submit(tx(s));
        }
        let _ = c.run_checking_work(SimTime::from_secs(4));
        assert!(c.join(NodeId(4)));
        for s in 30..60 {
            c.submit(tx(s));
        }
        let _ = c.run_checking_work(SimTime::from_secs(8));
        assert!(c.leave(NodeId(1)));
        for s in 60..90 {
            c.submit(tx(s));
        }
        let (blocks, _) = c.run_checking_work(SimTime::from_secs(40));
        assert!(!blocks.is_empty());
        assert_eq!(c.config_epoch(), 2);
    }

    #[test]
    fn commits_a_command_via_two_chain() {
        let mut c = DiemBftCluster::builder(4).seed(1).build();
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(5));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
    }

    #[test]
    fn commits_many_commands_in_order() {
        let mut c = DiemBftCluster::builder(4).seed(2).build();
        for s in 0..100 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        let seqs: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        assert_eq!(seqs.len(), 100);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn max_block_size_bounds_blocks() {
        let mut c = DiemBftCluster::builder(4)
            .seed(3)
            .batch(BatchConfig::new(10, SimDuration::from_millis(100)))
            .build();
        for s in 0..35 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(30));
        assert!(blocks.iter().all(|b| b.commands.len() <= 10));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 35);
    }

    #[test]
    fn rounds_strictly_increase() {
        let mut c = DiemBftCluster::builder(4).seed(4).build();
        for s in 0..20 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        assert!(blocks.windows(2).all(|w| w[0].round < w[1].round));
    }

    #[test]
    fn leader_crash_recovers_via_timeout_certificate() {
        let mut c = DiemBftCluster::builder(4).seed(5).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert!(!first.is_empty());
        // Crash the leader of the next frontier round.
        let next_round = c.p.highest_qc.0 + 1;
        let leader = c.leader_of(next_round);
        c.crash(leader);
        c.submit(tx(2));
        let blocks = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(
            blocks
                .iter()
                .any(|b| b.commands.iter().any(|cmd| cmd.tx.seq() == 2)),
            "timeout certificate must allow progress past a dead leader"
        );
    }

    #[test]
    fn no_progress_without_quorum() {
        let mut c = DiemBftCluster::builder(4).seed(6).build();
        c.crash(NodeId(2));
        c.crash(NodeId(3));
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(20));
        assert!(blocks.is_empty());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = DiemBftCluster::builder(4).seed(seed).build();
            for s in 0..10 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(10))
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn idle_cluster_stays_quiet() {
        let mut c = DiemBftCluster::builder(4).seed(8).build();
        let blocks = c.run_until(SimTime::from_secs(5));
        assert!(blocks.is_empty());
        // The idle cluster should not have exploded in events:
        assert!(c.net_stats().messages_sent < 1000, "idle spin detected");
    }

    #[test]
    fn late_submissions_are_picked_up() {
        let mut c = DiemBftCluster::builder(4).seed(9).build();
        c.run_until(SimTime::from_secs(3));
        c.submit(tx(1));
        let blocks = c.run_until(c.now() + SimDuration::from_secs(5));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
    }

    #[test]
    fn join_grows_membership_after_sync_without_violations() {
        let mut c = DiemBftCluster::builder(4).standby(1).seed(41).build();
        assert_eq!((c.active_count(), c.config_epoch()), (4, 0));
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert_eq!(first.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
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
    fn leave_shrinks_membership_and_keeps_committing() {
        let mut c = DiemBftCluster::builder(4).seed(42).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert!(!first.is_empty());
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
        let r = c.safety_report().unwrap();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
        assert!(!c.leave(NodeId(0)), "already departed");
    }

    #[test]
    fn joiner_never_votes_before_sync_completes() {
        let mut c = DiemBftCluster::builder(4).standby(1).seed(43).build();
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
            let mut c = DiemBftCluster::builder(4).standby(1).seed(44).build();
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
    fn one_equivocating_leader_is_safe() {
        // Node 1 leads round 1, so the attack fires immediately.
        let mut c = DiemBftCluster::builder(4).seed(31).build();
        c.set_byzantine(
            NodeId(1),
            ByzantineBehaviour::EquivocateProposer,
            SimTime::from_secs(60),
        );
        c.set_byzantine(
            NodeId(1),
            ByzantineBehaviour::DoubleVote,
            SimTime::from_secs(60),
        );
        for s in 0..6 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(30));
        assert!(
            !blocks.is_empty(),
            "f = 1 equivocator must not halt DiemBFT"
        );
        let r = c.safety_report().unwrap();
        assert!(
            r.observed.equivocating_proposals > 0,
            "the attack must actually run"
        );
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "≤ f Byzantine: {:?}", r.violations);
    }

    #[test]
    fn two_byzantine_validators_break_safety_and_are_counted() {
        let mut c = DiemBftCluster::builder(4).seed(32).build();
        for node in [NodeId(1), NodeId(2)] {
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
        // Under the 2-chain rule the sibling block certifies but never gains
        // a child, so the break surfaces as a conflicting QC, not a commit.
        assert!(
            r.violations.conflicting_certificates > 0,
            "f+1 Byzantine must certify conflicting blocks in one round: {r:?}"
        );
    }

    #[test]
    fn byzantine_run_is_deterministic() {
        let run = || {
            let mut c = DiemBftCluster::builder(4).seed(33).build();
            for node in [NodeId(1), NodeId(2)] {
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
}
