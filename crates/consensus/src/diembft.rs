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
//! ([`DiemBftBuilder::batch`]); when the mempool is empty but uncommitted
//! QC'd blocks remain, leaders propose NIL blocks so the 2-chain rule can
//! finish committing the tail.
//!
//! # Byzantine fault injection
//!
//! [`DiemBftCluster::set_byzantine`] arms a validator with a
//! [`ByzantineBehaviour`]. An equivocating leader proposes two conflicting
//! blocks for its round — fellow Byzantine validators receive both, honest
//! validators are split between them — and votes for both. A double-voting
//! validator answers a conflicting proposal for a round it already voted in
//! with a second vote. A [`SafetyMonitor`] observes every proposal, vote,
//! quorum certificate, and commit; with at most `f` Byzantine validators the
//! minority block falls short of a QC and the report stays clean, while
//! `f + 1` colluders can certify two blocks in one round — counted as
//! conflicting certificates, never a panic.

use std::collections::{BTreeSet, HashMap, HashSet};

use coconut_simnet::{ByzantineBehaviour, FaultEvent, NetConfig, NetSim, NetStats, Topology};
use coconut_types::{Hasher64, NodeId, SimDuration, SimTime};

use crate::liveness::{LivenessMonitor, LivenessReport};
use crate::safety::{ByzantineFlags, SafetyMonitor, SafetyReport, VotePhase};
use crate::{bft_quorum, BatchConfig, Command, CommittedBatch, CpuModel, Membership};

/// Base catch-up time a joiner spends before it may vote (state-transfer
/// handshake), plus a per-committed-block transfer cost.
const SYNC_BASE: SimDuration = SimDuration::from_millis(250);
const SYNC_PER_BATCH: SimDuration = SimDuration::from_millis(2);

/// DiemBFT protocol messages and pacemaker timers.
#[derive(Debug, Clone)]
enum DiemMsg {
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
        from: NodeId,
    },
    /// A joiner's catch-up/state transfer finished: activate it.
    SyncDone {
        node: NodeId,
    },
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
    alive: bool,
}

/// Configuration for a [`DiemBftCluster`]; build with
/// [`DiemBftCluster::builder`].
#[derive(Debug, Clone)]
pub struct DiemBftBuilder {
    nodes: u32,
    standby: u32,
    topology: Option<Topology>,
    net: NetConfig,
    seed: u64,
    batch: BatchConfig,
    round_interval: SimDuration,
    round_timeout: SimDuration,
    proc_per_msg: SimDuration,
    proc_per_command: SimDuration,
}

impl DiemBftBuilder {
    /// Node placement (defaults to one node per server).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Pre-provisions `k` standby validators (ids `nodes..nodes + k`) that
    /// start outside the active membership and can be admitted at runtime
    /// via [`DiemBftCluster::join`]. Default 0.
    pub fn standby(mut self, k: u32) -> Self {
        self.standby = k;
        self
    }

    /// Network characteristics.
    pub fn net(mut self, c: NetConfig) -> Self {
        self.net = c;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Proposal-generator bound: `max_block_size` maps to
    /// `batch.max_commands`.
    pub fn batch(mut self, b: BatchConfig) -> Self {
        self.batch = b;
        self
    }

    /// Minimum spacing between a leader's proposals (paces NIL rounds).
    pub fn round_interval(mut self, d: SimDuration) -> Self {
        self.round_interval = d;
        self
    }

    /// Pacemaker round timeout.
    pub fn round_timeout(mut self, d: SimDuration) -> Self {
        self.round_timeout = d;
        self
    }

    /// Fixed CPU cost of handling any protocol message.
    pub fn proc_per_msg(mut self, d: SimDuration) -> Self {
        self.proc_per_msg = d;
        self
    }

    /// Additional CPU cost per command in a proposal.
    pub fn proc_per_command(mut self, d: SimDuration) -> Self {
        self.proc_per_command = d;
        self
    }

    /// Builds the cluster; round 1's leader proposes after one interval.
    pub fn build(self) -> DiemBftCluster {
        let n = self.nodes;
        let total = n + self.standby;
        let topology = self
            .topology
            .unwrap_or_else(|| Topology::round_robin(total, total));
        assert_eq!(
            topology.node_count(),
            total,
            "topology must cover baseline + standby nodes"
        );
        let mut net = NetSim::new(topology, self.net, self.seed);
        let first_leader = NodeId((1 % n as u64) as u32);
        net.timer(
            first_leader,
            self.round_interval,
            DiemMsg::ProposeTimer { round: 1 },
        );
        let mut blocks = HashMap::new();
        // Genesis: digest 0, round 0, self-parent.
        blocks.insert(
            0u64,
            BlockInfo {
                round: 0,
                parent: 0,
                parent_round: 0,
                batch: Vec::new(),
                proposer: NodeId(0),
            },
        );
        let mut qc_round_of = HashMap::new();
        qc_round_of.insert(0u64, 0u64); // genesis is certified
        DiemBftCluster {
            nodes: (0..total)
                .map(|_| DiemNode {
                    round: 1,
                    highest_voted: 0,
                    alive: true,
                })
                .collect(),
            membership: Membership::new(n, self.standby),
            net,
            cpu: CpuModel::new(total),
            batch: self.batch,
            pending: Vec::new(),
            committed: Vec::new(),
            blocks,
            votes: HashMap::new(),
            qcs: qc_round_of,
            highest_qc: (0, 0),
            timeout_votes: HashMap::new(),
            committed_digests: HashSet::new(),
            uncommitted_work: HashSet::new(),
            last_committed_round: 0,
            round_interval: self.round_interval,
            round_timeout: self.round_timeout,
            proc_per_msg: self.proc_per_msg,
            proc_per_command: self.proc_per_command,
            proposed_rounds: HashSet::new(),
            byz: vec![ByzantineFlags::default(); total as usize],
            monitor: SafetyMonitor::new(bft_quorum(n)),
            liveness: LivenessMonitor::default(),
            stale_epoch_rejections: 0,
            committed_txs: BTreeSet::new(),
        }
    }
}

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
#[derive(Debug)]
pub struct DiemBftCluster {
    nodes: Vec<DiemNode>,
    /// Epoch-versioned active membership over the provisioned universe.
    membership: Membership,
    net: NetSim<DiemMsg>,
    cpu: CpuModel,
    batch: BatchConfig,
    pending: Vec<Command>,
    committed: Vec<CommittedBatch>,
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
    /// `committed_digests` and `blocks` by [`DiemBftCluster::refresh_work`]
    /// so [`DiemBftCluster::has_work`] never scans `qcs`, which is never
    /// pruned.
    uncommitted_work: HashSet<u64>,
    last_committed_round: u64,
    round_interval: SimDuration,
    round_timeout: SimDuration,
    proc_per_msg: SimDuration,
    proc_per_command: SimDuration,
    proposed_rounds: HashSet<u64>,
    /// Per-node Byzantine fault windows.
    byz: Vec<ByzantineFlags>,
    /// Message-level safety observer (never influences the protocol).
    monitor: SafetyMonitor,
    /// Commit-cadence and timeout-storm liveness tracker.
    liveness: LivenessMonitor,
    /// Votes dropped because they carried a superseded membership epoch.
    stale_epoch_rejections: u64,
    /// Transactions already finalized, so a block orphaned by a timeout or
    /// epoch change is never re-proposed after its commands committed.
    committed_txs: BTreeSet<u64>,
}

impl DiemBftCluster {
    /// Starts building a DiemBFT cluster of `nodes` validators.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn builder(nodes: u32) -> DiemBftBuilder {
        assert!(nodes > 0, "a cluster needs at least one node");
        DiemBftBuilder {
            nodes,
            standby: 0,
            topology: None,
            net: NetConfig::lan(),
            seed: 0,
            batch: BatchConfig::new(3000, SimDuration::from_millis(250)),
            round_interval: SimDuration::from_millis(100),
            round_timeout: SimDuration::from_secs(3),
            proc_per_msg: SimDuration::from_micros(40),
            proc_per_command: SimDuration::from_micros(8),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Number of validators.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Network counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Applies a network-level fault (partition, heal, loss burst, latency
    /// spike) to the cluster's message fabric. Crash/restart events are not
    /// network faults and return `false`.
    pub fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        self.net.apply_fault(at, event)
    }

    /// Commands in the mempool.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submits a command to the mempool.
    pub fn submit(&mut self, cmd: Command) {
        self.pending.push(cmd);
    }

    /// Flags `node` to misbehave (`behaviour`) until virtual time `until`.
    pub fn set_byzantine(&mut self, node: NodeId, behaviour: ByzantineBehaviour, until: SimTime) {
        self.byz[node.0 as usize].arm(behaviour, until);
    }

    /// The safety monitor's verdict over everything observed so far.
    pub fn safety_report(&self) -> SafetyReport {
        self.monitor.report()
    }

    /// The liveness monitor's verdict as of the current virtual time.
    pub fn liveness_report(&self) -> LivenessReport {
        self.liveness.report(self.net.now())
    }

    /// Crashes a validator (models Diem's "spiking" stalls when paired with
    /// [`DiemBftCluster::recover`] on a timer in the chain layer).
    pub fn crash(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].alive = false;
    }

    /// Recovers a crashed validator at the highest known round.
    pub fn recover(&mut self, node: NodeId) {
        let max_round = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.round)
            .max()
            .unwrap_or(1);
        let n = &mut self.nodes[node.0 as usize];
        n.alive = true;
        n.round = n.round.max(max_round);
    }

    /// Runs the protocol until `deadline`, returning blocks committed by the
    /// 2-chain rule in this window.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<CommittedBatch> {
        // Kick idle leaders when work arrives between calls.
        self.kick_current_leader();
        while let Some(ev) = self.net.pop_at_or_before(deadline) {
            self.dispatch(ev.dst, ev.at, ev.msg);
        }
        self.net.advance_to(deadline);
        std::mem::take(&mut self.committed)
    }

    /// Due time of the next internal event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.net.next_event_time()
    }

    /// Validators currently in the active membership.
    pub fn active_count(&self) -> u32 {
        self.membership.active_count()
    }

    /// Current membership configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Votes dropped because they carried a superseded membership epoch.
    pub fn stale_epoch_rejections(&self) -> u64 {
        self.stale_epoch_rejections
    }

    /// Starts admitting a pre-provisioned standby validator: it first syncs
    /// the chain (catch-up takes longer the more blocks were committed) and
    /// only joins the active membership — bumping the epoch — when the
    /// transfer completes. Returns `false` if `node` is unknown, already
    /// active, or already syncing.
    pub fn join(&mut self, node: NodeId) -> bool {
        if node.0 >= self.membership.provisioned()
            || self.membership.is_active(node)
            || self.monitor.is_syncing(node)
        {
            return false;
        }
        self.monitor.observe_sync_start(node);
        let sync = SYNC_BASE + SYNC_PER_BATCH * self.committed_digests.len() as u64;
        self.net.timer(node, sync, DiemMsg::SyncDone { node });
        true
    }

    /// Removes a validator from the active membership, bumping the epoch
    /// and recomputing the quorum. Returns `false` if `node` is not an
    /// active member or is the last one.
    pub fn leave(&mut self, node: NodeId) -> bool {
        if !self.membership.leave(node) {
            return false;
        }
        self.on_epoch_change();
        true
    }

    fn quorum(&self) -> u32 {
        bft_quorum(self.membership.active_count())
    }

    fn leader_of(&self, round: u64) -> NodeId {
        // Rotation over the active membership; identical to `round mod n`
        // until the first join/leave.
        self.membership.select(round)
    }

    fn kick_current_leader(&mut self) {
        let round = self.highest_qc.0 + 1;
        if !self.proposed_rounds.contains(&round) {
            let leader = self.leader_of(round);
            self.net.timer(
                leader,
                SimDuration::from_micros(1),
                DiemMsg::ProposeTimer { round },
            );
            if !self.nodes[leader.0 as usize].alive {
                // A crashed proposer swallows the kick; the pacemaker must
                // still run so a timeout certificate can skip its round.
                self.arm_round_timeouts(round);
            }
        }
    }

    /// Arms the pacemaker for `round` at every alive validator (entering a
    /// round always starts a local timeout in DiemBFT).
    fn arm_round_timeouts(&mut self, round: u64) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].alive && self.membership.is_active(NodeId(i as u32)) {
                self.net.timer(
                    NodeId(i as u32),
                    self.round_timeout,
                    DiemMsg::RoundTimeout { round },
                );
            }
        }
    }

    fn dispatch(&mut self, me: NodeId, at: SimTime, msg: DiemMsg) {
        if !self.nodes[me.0 as usize].alive {
            return;
        }
        if !self.membership.is_active(me) {
            // A standby/departed validator ignores the protocol entirely;
            // only its own sync-completion timer is meaningful.
            if let DiemMsg::SyncDone { node } = msg {
                self.on_sync_done(node);
            }
            return;
        }
        match msg {
            DiemMsg::ProposeTimer { round } => self.on_propose_timer(me, round),
            DiemMsg::RoundTimeout { round } => self.on_round_timeout(me, round),
            DiemMsg::Proposal {
                round,
                digest,
                parent,
                parent_round,
                batch,
            } => self.on_proposal(me, at, round, digest, parent, parent_round, batch),
            DiemMsg::Vote {
                epoch,
                round,
                digest,
                from,
            } => {
                if epoch != self.membership.epoch() {
                    self.stale_epoch_rejections += 1;
                    return;
                }
                self.on_vote(me, at, round, digest, from)
            }
            DiemMsg::Timeout { round, from } => self.on_timeout_msg(me, at, round, from),
            DiemMsg::SyncDone { .. } => {}
        }
    }

    /// A joiner finished its catch-up: admit it to the active membership at
    /// the current frontier round and bump the configuration epoch.
    fn on_sync_done(&mut self, node: NodeId) {
        if !self.monitor.is_syncing(node) || !self.membership.join(node) {
            return;
        }
        self.monitor.observe_sync_complete(node);
        {
            let frontier = self.highest_qc.0;
            let joiner = &mut self.nodes[node.0 as usize];
            joiner.round = joiner.round.max(frontier + 1);
            // The joiner must never retro-vote a pre-sync round.
            joiner.highest_voted = joiner.highest_voted.max(frontier);
        }
        self.on_epoch_change();
    }

    /// Applies a membership change: recompute the quorum over the new
    /// active count, reset in-flight vote/timeout tallies (their epoch is
    /// superseded — a quorum of the old membership must not certify a
    /// block), reclaim commands stuck in uncertified frontier blocks, and
    /// restart the proposal chain over the new membership.
    fn on_epoch_change(&mut self) {
        let quorum = self.quorum();
        self.monitor.begin_epoch(self.membership.epoch(), quorum);
        self.votes.clear();
        self.timeout_votes.clear();
        // Blocks proposed past the highest QC can no longer certify (their
        // vote tallies are void); reclaim their commands, deduplicated and
        // filtered against already-finalized transactions, in digest order
        // (block-store iteration order is not deterministic).
        let frontier = self.highest_qc.0;
        let mut stranded: Vec<u64> = self
            .blocks
            .iter()
            .filter(|(_, b)| b.round > frontier && !b.batch.is_empty())
            .map(|(&d, _)| d)
            .collect();
        stranded.sort_unstable();
        let mut seen: BTreeSet<u64> = self.pending.iter().map(|c| c.tx.as_u64()).collect();
        let mut reclaimed: Vec<Command> = Vec::new();
        for d in stranded {
            if let Some(b) = self.blocks.get_mut(&d) {
                for c in b.batch.drain(..) {
                    if !self.committed_txs.contains(&c.tx.as_u64()) && seen.insert(c.tx.as_u64()) {
                        reclaimed.push(c);
                    }
                }
            }
            self.refresh_work(d);
        }
        reclaimed.append(&mut self.pending);
        self.pending = reclaimed;
        // The frontier round may be re-proposed under the new epoch.
        self.proposed_rounds.retain(|&r| r <= frontier);
        let next = frontier + 1;
        self.net.timer(
            self.leader_of(next),
            self.round_interval,
            DiemMsg::ProposeTimer { round: next },
        );
        self.arm_round_timeouts(next);
    }

    /// Whether there is any reason to keep proposing: work in the mempool,
    /// or an uncommitted certified *non-empty* block that needs a child QC
    /// to commit under the 2-chain rule. An empty certified tail carries
    /// nothing to commit, so the cluster may go idle on it.
    fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.uncommitted_work.is_empty()
    }

    /// Recomputes whether `digest` belongs in `uncommitted_work`. Called
    /// after every write that can change one of its four facts: the QC,
    /// the commit, the block (a re-proposed round can overwrite a drained
    /// block under the same digest) and the block's batch.
    fn refresh_work(&mut self, digest: u64) {
        if digest != 0
            && self.qcs.contains_key(&digest)
            && !self.committed_digests.contains(&digest)
            && self
                .blocks
                .get(&digest)
                .is_some_and(|b| !b.batch.is_empty())
        {
            self.uncommitted_work.insert(digest);
        } else {
            self.uncommitted_work.remove(&digest);
        }
    }

    fn on_propose_timer(&mut self, me: NodeId, round: u64) {
        if self.leader_of(round) != me || self.proposed_rounds.contains(&round) {
            return;
        }
        // Propose only for the round following our highest QC (chained rule).
        if round != self.highest_qc.0 + 1 {
            return;
        }
        if !self.has_work() {
            // Idle: re-check after an interval.
            self.net
                .timer(me, self.round_interval, DiemMsg::ProposeTimer { round });
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let parent_digest = self.highest_qc.1;
        let parent_round = self.blocks.get(&parent_digest).map_or(0, |b| b.round);
        let digest = {
            let mut h = Hasher64::with_key(round);
            h.write_u64(parent_digest);
            for c in &batch {
                h.write_u64(c.tx.as_u64());
            }
            h.finish()
        };
        self.proposed_rounds.insert(round);
        self.blocks.insert(
            digest,
            BlockInfo {
                round,
                parent: parent_digest,
                parent_round,
                batch: batch.clone(),
                proposer: me,
            },
        );
        self.refresh_work(digest);
        self.monitor.observe_proposal(0, round, me, digest);
        let bytes = 96 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let now = self.net.now();
        let done = self.cpu.process(me, now, cost);
        if self.byz[me.0 as usize].equivocates(now) && self.nodes.len() >= 3 {
            // Equivocation: a second block for the same round over the same
            // commands, under a salted digest. Fellow Byzantine validators
            // receive both versions, honest validators are split between
            // them, and the leader votes for both — with at most `f`
            // colluders the minority block falls short of a QC.
            let alt = Self::sibling_digest_of(&batch, parent_digest, round);
            self.blocks.insert(
                alt,
                BlockInfo {
                    round,
                    parent: parent_digest,
                    parent_round,
                    batch: batch.clone(),
                    proposer: me,
                },
            );
            self.refresh_work(alt);
            self.monitor.observe_proposal(0, round, me, alt);
            let mut honest_idx = 0usize;
            for i in 0..self.nodes.len() {
                let peer = NodeId(i as u32);
                if peer == me {
                    continue;
                }
                let proposal = |d: u64| DiemMsg::Proposal {
                    round,
                    digest: d,
                    parent: parent_digest,
                    parent_round,
                    batch: batch.clone(),
                };
                if self.byz[i].is_byzantine(now) {
                    self.net
                        .send_delayed(me, peer, done - now, bytes, proposal(digest));
                    self.net
                        .send_delayed(me, peer, done - now, bytes, proposal(alt));
                } else {
                    let d = if honest_idx.is_multiple_of(2) {
                        digest
                    } else {
                        alt
                    };
                    honest_idx += 1;
                    self.net
                        .send_delayed(me, peer, done - now, bytes, proposal(d));
                }
            }
            self.cast_vote(me, round, digest);
            self.cast_vote(me, round, alt);
        } else {
            self.net
                .broadcast_delayed(me, done - now, bytes, |_| DiemMsg::Proposal {
                    round,
                    digest,
                    parent: parent_digest,
                    parent_round,
                    batch: batch.clone(),
                });
            // Leader votes for its own proposal (vote goes to next leader).
            self.cast_vote(me, round, digest);
        }
        // Arm pacemaker for this round at the leader.
        self.net
            .timer(me, self.round_timeout, DiemMsg::RoundTimeout { round });
    }

    /// The digest an equivocating leader uses for the conflicting sibling of
    /// its real proposal: same parent and commands, salted key.
    fn sibling_digest_of(batch: &[Command], parent_digest: u64, round: u64) -> u64 {
        let mut h = Hasher64::with_key(round ^ 0xB12A_57DE);
        h.write_u64(parent_digest);
        for c in batch {
            h.write_u64(c.tx.as_u64());
        }
        h.finish()
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
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let _ = self.cpu.process(me, at, cost);
        let proposer = self.leader_of(round);
        self.blocks.entry(digest).or_insert(BlockInfo {
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
        let dv = self.byz[me.0 as usize].double_votes(at);
        self.liveness.observe_progress(me, at);
        {
            let node = &mut self.nodes[me.0 as usize];
            node.round = node.round.max(round);
            if node.highest_voted >= round && !(dv && node.highest_voted == round) {
                return; // already voted this round (safety rule)
            }
            node.highest_voted = round;
        }
        self.cast_vote(me, round, digest);
        // Arm pacemaker for the next round.
        self.net.timer(
            me,
            self.round_timeout,
            DiemMsg::RoundTimeout { round: round + 1 },
        );
    }

    fn cast_vote(&mut self, me: NodeId, round: u64, digest: u64) {
        let next_leader = self.leader_of(round + 1);
        let now = self.net.now();
        let done = self.cpu.process(me, now, self.proc_per_msg);
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
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        if self.leader_of(round + 1) != me {
            return;
        }
        self.monitor
            .observe_vote(me, VotePhase::Vote, 0, round, digest, from);
        let count = self.votes.entry((round, digest)).or_insert(0);
        *count += 1;
        if *count == self.quorum() {
            // QC formed.
            self.monitor
                .observe_quorum(me, VotePhase::Vote, 0, round, digest);
            self.monitor.observe_certificate(round, digest);
            self.qcs.insert(digest, round);
            self.refresh_work(digest);
            if round > self.highest_qc.0 {
                self.highest_qc = (round, digest);
            }
            self.try_commit(digest);
            // Chained: the next leader (us) proposes after the round
            // interval (paces NIL rounds; real DiemBFT proposes
            // back-to-back, but the interval is what Diem's round timer
            // amounts to under our virtual clock).
            self.net.timer(
                me,
                self.round_interval,
                DiemMsg::ProposeTimer { round: round + 1 },
            );
        }
    }

    /// 2-chain commit: forming a QC for block B commits B's parent when the
    /// parent is at the contiguous previous round.
    fn try_commit(&mut self, certified: u64) {
        let Some(block) = self.blocks.get(&certified) else {
            return;
        };
        let parent_digest = block.parent;
        let contiguous = block.parent_round + 1 == block.round;
        if !contiguous || parent_digest == 0 {
            return;
        }
        if !self.qcs.contains_key(&parent_digest) {
            return;
        }
        // Commit parent and any uncommitted certified ancestors (in order).
        let mut chain = Vec::new();
        let mut cur = parent_digest;
        while cur != 0 && !self.committed_digests.contains(&cur) {
            chain.push(cur);
            cur = self.blocks.get(&cur).map_or(0, |b| b.parent);
        }
        let now = self.net.now();
        for digest in chain.into_iter().rev() {
            let info = &self.blocks[&digest];
            if info.round <= self.last_committed_round {
                continue;
            }
            self.committed_digests.insert(digest);
            self.uncommitted_work.remove(&digest);
            self.last_committed_round = info.round;
            self.liveness.observe_commit(now);
            // Vote tallies are reset on every membership change, so the QC
            // behind this commit formed entirely in the current epoch.
            self.monitor
                .observe_epoch_commit(self.membership.epoch(), info.round, digest);
            for c in &info.batch {
                self.committed_txs.insert(c.tx.as_u64());
            }
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
        if self.highest_qc.0 >= round {
            return;
        }
        let now = self.net.now();
        let done = self.cpu.process(me, now, self.proc_per_msg);
        self.net
            .broadcast_delayed(me, done - now, 48, |_| DiemMsg::Timeout { round, from: me });
        self.on_timeout_msg(me, now, round, me);
    }

    fn on_timeout_msg(&mut self, me: NodeId, at: SimTime, round: u64, _from: NodeId) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        let votes = self.timeout_votes.entry(round).or_insert(0);
        *votes += 1;
        if *votes == self.quorum() {
            // Timeout certificate: the round is dead; the next round's leader
            // proposes from the highest QC. Mark the dead round as proposed
            // so nobody revives it. The shared tally fires exactly once per
            // round, so this counts one pacemaker advance cluster-wide.
            self.liveness.observe_view_change(at);
            self.proposed_rounds.insert(round);
            let next = round + 1;
            // Allow re-proposal chain: treat highest_qc round frontier as `round`.
            if self.highest_qc.0 < round {
                // A block proposed at the dead round can never certify
                // (nobody votes it again, and a skip proposal extends the
                // highest QC, not it). Re-queue its commands at the front
                // of the mempool — real mempools only evict on commit.
                let mut stranded: Vec<u64> = self
                    .blocks
                    .iter()
                    .filter(|(_, b)| b.round == round && !b.batch.is_empty())
                    .map(|(&d, _)| d)
                    .collect();
                stranded.sort_unstable();
                if !stranded.is_empty() {
                    let mut seen: BTreeSet<u64> =
                        self.pending.iter().map(|c| c.tx.as_u64()).collect();
                    let mut reclaimed = Vec::new();
                    for d in stranded {
                        if let Some(b) = self.blocks.get_mut(&d) {
                            for c in b.batch.drain(..) {
                                if !self.committed_txs.contains(&c.tx.as_u64())
                                    && seen.insert(c.tx.as_u64())
                                {
                                    reclaimed.push(c);
                                }
                            }
                        }
                        self.refresh_work(d);
                    }
                    reclaimed.append(&mut self.pending);
                    self.pending = reclaimed;
                }
                // Pretend rounds up to `round` are skipped: the new leader
                // extends the highest QC but at round `next`.
                let leader = self.leader_of(next);
                let qc_digest = self.highest_qc.1;
                // Propose directly here to keep the skip logic in one place.
                if self.nodes[leader.0 as usize].alive && !self.proposed_rounds.contains(&next) {
                    self.propose_skip(leader, next, qc_digest);
                } else {
                    // The skip target is dead too: keep the pacemaker
                    // running so `next` can also be timed out.
                    self.arm_round_timeouts(next);
                }
            }
            self.timeout_votes.remove(&round);
        }
    }

    /// A post-timeout proposal: extends the highest QC at a non-contiguous
    /// round (so it cannot immediately commit its parent — matching the
    /// protocol's safety rule).
    fn propose_skip(&mut self, me: NodeId, round: u64, parent_digest: u64) {
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let parent_round = self.blocks.get(&parent_digest).map_or(0, |b| b.round);
        let digest = {
            let mut h = Hasher64::with_key(round ^ 0xDEAD);
            h.write_u64(parent_digest);
            for c in &batch {
                h.write_u64(c.tx.as_u64());
            }
            h.finish()
        };
        self.proposed_rounds.insert(round);
        self.blocks.insert(
            digest,
            BlockInfo {
                round,
                parent: parent_digest,
                parent_round,
                batch: batch.clone(),
                proposer: me,
            },
        );
        self.refresh_work(digest);
        self.monitor.observe_proposal(0, round, me, digest);
        let bytes = 96 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let now = self.net.now();
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let done = self.cpu.process(me, now, cost);
        self.net
            .broadcast_delayed(me, done - now, bytes, |_| DiemMsg::Proposal {
                round,
                digest,
                parent: parent_digest,
                parent_round,
                batch: batch.clone(),
            });
        self.cast_vote(me, round, digest);
        self.net
            .timer(me, self.round_timeout, DiemMsg::RoundTimeout { round });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::{ClientId, TxId};

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    impl DiemBftCluster {
        /// The full `qcs` scan `has_work` used to make: certified,
        /// uncommitted, non-genesis blocks with a non-empty batch.
        fn uncommitted_work_by_scan(&self) -> HashSet<u64> {
            self.qcs
                .keys()
                .copied()
                .filter(|digest| {
                    *digest != 0
                        && !self.committed_digests.contains(digest)
                        && self.blocks.get(digest).is_some_and(|b| !b.batch.is_empty())
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
                assert_eq!(self.uncommitted_work, scanned, "at {:?}", self.now());
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
            assert!(c.safety_report().observed.equivocating_proposals > 0);
        }
    }

    #[test]
    fn work_set_matches_scan_through_timeout_certificates() {
        let mut c = DiemBftCluster::builder(4).seed(5).build();
        for s in 0..20 {
            c.submit(tx(s));
        }
        let _ = c.run_checking_work(SimTime::from_secs(5));
        let leader = c.leader_of(c.highest_qc.0 + 1);
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
        let next_round = c.highest_qc.0 + 1;
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
        let r = c.safety_report();
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
        let r = c.safety_report();
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
        let r = c.safety_report();
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
            (got, c.config_epoch(), format!("{:?}", c.safety_report()))
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
        let r = c.safety_report();
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
        let r = c.safety_report();
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
            (format!("{:?}", c.safety_report()), blocks.len())
        };
        assert_eq!(run(), run());
    }
}
