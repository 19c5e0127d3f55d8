//! One three-phase BFT engine behind Sawtooth's PBFT and Quorum's IBFT.
//!
//! Both protocols are Castro–Liskov PBFT adaptations: a leader broadcasts a
//! `PrePrepare` carrying the block (batch), replicas exchange `Prepare` and
//! `Commit` votes, and a block finalizes once 2f + 1 nodes have committed
//! it. [`Cluster`] owns everything the two share: slots and per-digest vote
//! tallies, the proposal and equivocation path, the prepare and commit
//! quorums, finalization into [`CommittedBatch`], join/sync and the
//! epoch-change reclaim, the fault surface, and the [`SafetyMonitor`] /
//! [`LivenessMonitor`] calls.
//!
//! A [`Policy`] supplies each point where the protocols differ, as one
//! named method or constant: leader rotation, digests, the vote window,
//! what a local commit does to a node's position, whether an empty pool
//! proposes an empty block, the watch delay after a commit, the
//! per-protocol defaults, and the whole view/round-change sub-protocol
//! (its messages, node-local state, joiner alignment and epoch restart).
//! The policy is a type parameter, so the hot path is statically
//! dispatched and the core never branches on which protocol it runs.
//!
//! Slots are keyed by `(height, view)`: PBFT's `(seq, view)` and IBFT's
//! `(height, round)`.
//!
//! # Byzantine behaviour
//!
//! Nodes flagged via [`Cluster::set_byzantine`] misbehave while their fault
//! window is open: an equivocating leader proposes two conflicting blocks
//! (same commands, different digests) to disjoint halves of the honest
//! peers, and a double-voting replica answers a conflicting pre-prepare
//! with prepare *and* commit votes for both digests. The [`SafetyMonitor`]
//! observes every proposal, vote, and commit and counts invariant breaks —
//! with ≤ f flagged nodes the minority fork starves below quorum and the
//! report stays clean; beyond f the forged votes carry a conflicting block
//! to commit and the monitor records it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::marker::PhantomData;

use coconut_simnet::{ByzantineBehaviour, FaultEvent, NetConfig, NetSim, NetStats, Topology};
use coconut_types::{NodeId, SimDuration, SimTime};

use crate::liveness::{LivenessMonitor, LivenessReport};
use crate::safety::{ByzantineFlags, SafetyMonitor, SafetyReport, VotePhase};
use crate::{bft_quorum, BatchConfig, Command, CommittedBatch, CpuModel, Membership};

/// Base catch-up time a joiner spends before it may vote (state-transfer
/// handshake), plus a per-committed-block transfer cost.
const SYNC_BASE: SimDuration = SimDuration::from_millis(250);
const SYNC_PER_BATCH: SimDuration = SimDuration::from_millis(2);

/// Bytes of a vote; a pre-prepare is this plus its batch.
const VOTE_BYTES: usize = 64;

/// Bytes of a view/round-change message.
pub(crate) const CHANGE_BYTES: usize = 48;

/// The points where PBFT and IBFT differ. Everything else is [`Cluster`].
pub trait Policy: Sized + Debug {
    /// Node-local view/round-change state.
    type Change: Default + Debug;

    /// Default block-size bound of the builder.
    const BATCH_COMMANDS: usize;

    /// CPU cost per command in a pre-prepare.
    const PROC_PER_COMMAND: SimDuration;

    /// Whether a leader with an empty pool proposes an empty block (IBFT,
    /// like Quorum) or waits one more period (PBFT, like Sawtooth).
    const PROPOSES_EMPTY_BLOCKS: bool;

    /// Index into the active membership of the leader of `(height, view)`.
    fn rotation(height: u64, view: u64) -> u64;

    /// Digest of a proposal; `sibling` is the conflicting digest an
    /// equivocating leader pairs with it (same commands, different
    /// serialization).
    fn digest(batch: &[Command], height: u64, view: u64, sibling: bool) -> u64;

    /// Whether `node` counts a vote for `(height, view)`.
    fn accepts_vote(node: &Node<Self::Change>, height: u64, view: u64) -> bool;

    /// Whether `node` accepts a pre-prepare for `(height, view)`.
    fn accepts_proposal(node: &Node<Self::Change>, height: u64, view: u64) -> bool {
        Self::accepts_vote(node, height, view)
    }

    /// The view the next height starts in after a commit in `view`; a
    /// node's view takes it on its local commit.
    fn view_after_commit(view: u64) -> u64;

    /// How long a node that just committed waits for the next height.
    fn watch_delay(period: SimDuration, timeout: SimDuration) -> SimDuration;

    /// `me`'s watch timer for `(height, view)` fired.
    fn on_timeout(c: &mut Cluster<Self>, me: NodeId, height: u64, view: u64);

    /// A view/round-change vote for `view` (at `height`) reached `me`.
    fn on_view_change(c: &mut Cluster<Self>, me: NodeId, height: u64, view: u64);

    /// A new-view announcement reached `me`. IBFT sends none.
    fn on_new_view(_c: &mut Cluster<Self>, _me: NodeId, _view: u64) {}

    /// Aligns the view of `joiner`, just admitted at the next open height.
    fn align_joiner(c: &mut Cluster<Self>, joiner: NodeId);

    /// Restarts proposing and watching after a membership change, once the
    /// abandoned slots are reclaimed.
    fn restart_epoch(c: &mut Cluster<Self>);
}

/// Protocol messages and local timers, keyed by `(height, view)`.
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// Leader cadence timer: propose at `(height, view)`.
    ProposeTimer { height: u64, view: u64 },
    /// A node's progress timer for an outstanding `(height, view)`.
    Timeout { height: u64, view: u64 },
    PrePrepare {
        height: u64,
        view: u64,
        digest: u64,
        batch: Vec<Command>,
    },
    Vote {
        phase: VotePhase,
        epoch: u64,
        height: u64,
        view: u64,
        digest: u64,
        from: NodeId,
    },
    /// A vote to move to `view` (PBFT ignores `height`: its view is global).
    ViewChange { height: u64, view: u64 },
    /// PBFT's incoming primary announces `view`.
    NewView { view: u64 },
    /// A joiner's catch-up/state transfer finished: activate it.
    SyncDone { node: NodeId },
}

/// Per-slot consensus progress at one node. Vote tallies are kept per
/// digest so that votes for an equivocated sibling block can never inflate
/// the count of the block this node actually holds.
#[derive(Debug, Default, Clone)]
pub(crate) struct Slot {
    pub(crate) digest: Option<u64>,
    pub(crate) batch: Option<Vec<Command>>,
    prepares: HashMap<u64, u32>,
    commits: HashMap<u64, u32>,
    prepared: bool,
    pub(crate) committed: bool,
}

impl Slot {
    fn tally(&mut self, phase: VotePhase) -> &mut HashMap<u64, u32> {
        match phase {
            VotePhase::Prepare => &mut self.prepares,
            _ => &mut self.commits,
        }
    }
}

/// One replica's position in the protocol.
#[derive(Debug)]
pub struct Node<C> {
    /// Next height this node expects to commit (PBFT's low-water mark).
    pub(crate) height: u64,
    /// Current view (IBFT: the round at `height`).
    pub(crate) view: u64,
    pub(crate) slots: HashMap<(u64, u64), Slot>,
    /// The policy's view/round-change state.
    pub(crate) change: C,
    pub(crate) alive: bool,
}

/// Configuration for a [`Cluster`]; build with [`Cluster::builder`].
#[derive(Debug, Clone)]
pub struct Builder<P> {
    nodes: u32,
    standby: u32,
    topology: Option<Topology>,
    net: NetConfig,
    seed: u64,
    batch: BatchConfig,
    period: SimDuration,
    timeout: SimDuration,
    proc_per_msg: SimDuration,
    policy: PhantomData<P>,
}

impl<P: Policy> Builder<P> {
    /// Node placement (defaults to one node per server).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Pre-provisions `k` standby replicas (ids `nodes..nodes + k`) that
    /// start outside the active membership and can be admitted at runtime
    /// via [`Cluster::join`]. Default 0.
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

    /// Batch-cut policy (block size bound).
    pub fn batch(mut self, b: BatchConfig) -> Self {
        self.batch = b;
        self
    }

    /// The pause between a commit and the next proposal: Sawtooth's
    /// `block_publishing_delay`, Quorum's `istanbul.blockperiod`. Default
    /// 1 s.
    pub fn period(mut self, d: SimDuration) -> Self {
        self.period = d;
        self
    }

    /// How long a node waits for an outstanding proposal to commit before
    /// voting for a view (PBFT) or round (IBFT) change. Default 4 s.
    pub fn timeout(mut self, d: SimDuration) -> Self {
        self.timeout = d;
        self
    }

    /// Fixed CPU cost of handling any protocol message.
    pub fn proc_per_msg(mut self, d: SimDuration) -> Self {
        self.proc_per_msg = d;
        self
    }

    /// Builds the cluster. The first leader (node 0) proposes after one
    /// period, and every active replica watches height 0 so a dead first
    /// leader is detected even though it never sends a pre-prepare.
    pub fn build(self) -> Cluster<P> {
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
        net.timer(
            NodeId(0),
            self.period,
            Msg::ProposeTimer { height: 0, view: 0 },
        );
        for i in 0..n {
            net.timer(NodeId(i), self.timeout, Msg::Timeout { height: 0, view: 0 });
        }
        Cluster {
            nodes: (0..total)
                .map(|_| Node {
                    height: 0,
                    view: 0,
                    slots: HashMap::new(),
                    change: P::Change::default(),
                    alive: true,
                })
                .collect(),
            membership: Membership::new(n, self.standby),
            net,
            cpu: CpuModel::new(total),
            batch: self.batch,
            pending: Vec::new(),
            committed: Vec::new(),
            next_height: 0,
            period: self.period,
            timeout: self.timeout,
            proc_per_msg: self.proc_per_msg,
            commit_quorum_times: HashMap::new(),
            byz: vec![ByzantineFlags::default(); total as usize],
            monitor: SafetyMonitor::new(bft_quorum(n)),
            liveness: LivenessMonitor::default(),
            equiv_sibling: HashMap::new(),
            stale_epoch_rejections: 0,
            committed_txs: BTreeSet::new(),
        }
    }
}

/// A simulated three-phase BFT cluster running policy `P`; see
/// [`PbftCluster`](crate::pbft::PbftCluster) and
/// [`IbftCluster`](crate::ibft::IbftCluster).
#[derive(Debug)]
pub struct Cluster<P: Policy> {
    pub(crate) nodes: Vec<Node<P::Change>>,
    /// Epoch-versioned active membership over the provisioned universe.
    pub(crate) membership: Membership,
    pub(crate) net: NetSim<Msg>,
    pub(crate) cpu: CpuModel,
    batch: BatchConfig,
    pub(crate) pending: Vec<Command>,
    committed: Vec<CommittedBatch>,
    /// The height the cluster finalizes next.
    pub(crate) next_height: u64,
    pub(crate) period: SimDuration,
    pub(crate) timeout: SimDuration,
    pub(crate) proc_per_msg: SimDuration,
    /// (height, view) → nodes that reached local commit, for quorum
    /// detection.
    commit_quorum_times: HashMap<(u64, u64), Vec<(NodeId, SimTime)>>,
    /// Per-node Byzantine fault windows.
    byz: Vec<ByzantineFlags>,
    /// Message-level safety invariant checker.
    monitor: SafetyMonitor,
    /// Commit-cadence and view-change-storm liveness tracker.
    pub(crate) liveness: LivenessMonitor,
    /// (height, view) → the conflicting sibling digest an equivocating
    /// leader broadcast alongside its real proposal.
    equiv_sibling: HashMap<(u64, u64), u64>,
    /// Votes dropped because they carried a superseded membership epoch.
    stale_epoch_rejections: u64,
    /// Transactions already finalized, so a batch orphaned by a view or
    /// epoch change is never re-proposed after its commands committed.
    committed_txs: BTreeSet<u64>,
}

impl<P: Policy> Cluster<P> {
    /// Starts building a cluster of `nodes` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn builder(nodes: u32) -> Builder<P> {
        assert!(nodes > 0, "a cluster needs at least one node");
        Builder {
            nodes,
            standby: 0,
            topology: None,
            net: NetConfig::lan(),
            seed: 0,
            batch: BatchConfig::new(P::BATCH_COMMANDS, SimDuration::from_secs(1)),
            period: SimDuration::from_secs(1),
            timeout: SimDuration::from_secs(4),
            proc_per_msg: SimDuration::from_micros(30),
            policy: PhantomData,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Number of provisioned replicas.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Network counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Applies a network-level fault (partition, heal, loss burst, latency
    /// spike, slow node) to the cluster's message fabric. Crash/restart
    /// events are not network faults and return `false`.
    pub fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        self.net.apply_fault(at, event)
    }

    /// Commands accepted but not yet proposed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submits a command for ordering.
    pub fn submit(&mut self, cmd: Command) {
        self.pending.push(cmd);
    }

    /// Removes every queued command (models a txpool flush).
    pub fn drop_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
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

    /// Crashes a replica (it stops processing messages).
    pub fn crash(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].alive = false;
    }

    /// Recovers a crashed replica in its old view.
    pub fn recover(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].alive = true;
    }

    /// Current active-membership size (`n` of the quorum arithmetic).
    pub fn active_count(&self) -> u32 {
        self.membership.active_count()
    }

    /// Current membership-configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Votes dropped for carrying a superseded membership epoch.
    pub fn stale_epoch_rejections(&self) -> u64 {
        self.stale_epoch_rejections
    }

    /// Admits standby replica `node`: catch-up (state transfer of the
    /// committed ledger, longer the more blocks were committed) starts now,
    /// and only once it completes does the epoch advance and the joiner
    /// vote or lead. Returns `false` when `node` is not a provisioned
    /// standby or is already joining/active.
    pub fn join(&mut self, node: NodeId) -> bool {
        if node.0 >= self.membership.provisioned()
            || self.membership.is_active(node)
            || self.monitor.is_syncing(node)
        {
            return false;
        }
        self.monitor.observe_sync_start(node);
        let sync = SYNC_BASE + SYNC_PER_BATCH * self.next_height;
        self.net.timer(node, sync, Msg::SyncDone { node });
        true
    }

    /// Removes `node` from the active membership: the epoch advances,
    /// quorum sizes shrink with `n`, and in-flight votes of the superseded
    /// epoch are rejected. Returns `false` when `node` is not active or is
    /// the last active replica.
    pub fn leave(&mut self, node: NodeId) -> bool {
        if !self.membership.leave(node) {
            return false;
        }
        self.on_epoch_change();
        true
    }

    /// Runs the protocol until `deadline`, returning the blocks that
    /// reached commit quorum in this window (IBFT's empty blocks included).
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<CommittedBatch> {
        while let Some(ev) = self.net.pop_at_or_before(deadline) {
            self.dispatch(ev.dst, ev.at, ev.msg);
        }
        self.net.advance_to(deadline);
        std::mem::take(&mut self.committed)
    }

    pub(crate) fn quorum(&self) -> u32 {
        bft_quorum(self.membership.active_count())
    }

    /// The leader of `(height, view)`: rotation over the active membership,
    /// identical to `rotation mod n` until the first join/leave.
    pub(crate) fn leader(&self, height: u64, view: u64) -> NodeId {
        self.membership.select(P::rotation(height, view))
    }

    /// Arms `me`'s progress timer for `(height, view)`.
    pub(crate) fn watch(&mut self, me: NodeId, height: u64, view: u64) {
        self.net
            .timer(me, self.timeout, Msg::Timeout { height, view });
    }

    /// Arms the progress timer of every live active replica.
    pub(crate) fn watch_active(&mut self, height: u64, view: u64) {
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            if self.nodes[i].alive && self.membership.is_active(id) {
                self.watch(id, height, view);
            }
        }
    }

    /// Requeues the batches of `me`'s uncommitted slots that `abandoned`
    /// selects, so a proposal orphaned by a view/round change is
    /// re-proposed rather than stranded. Reclaim runs in (height, view)
    /// order — slot iteration order is not deterministic and the pending
    /// order feeds the next proposal — and skips commands already pending
    /// or finalized.
    pub(crate) fn reclaim(&mut self, me: NodeId, abandoned: impl Fn(u64, u64) -> bool) {
        let mut by_slot: BTreeMap<(u64, u64), Vec<Command>> = BTreeMap::new();
        for (&(height, view), slot) in self.nodes[me.0 as usize].slots.iter_mut() {
            if !slot.committed && abandoned(height, view) {
                if let Some(batch) = slot.batch.take() {
                    by_slot.insert((height, view), batch);
                }
            }
        }
        if by_slot.is_empty() {
            return;
        }
        let mut seen: BTreeSet<u64> = self.pending.iter().map(|c| c.tx.as_u64()).collect();
        for c in by_slot.into_values().flatten() {
            if !self.committed_txs.contains(&c.tx.as_u64()) && seen.insert(c.tx.as_u64()) {
                self.pending.push(c);
            }
        }
    }

    fn dispatch(&mut self, me: NodeId, at: SimTime, msg: Msg) {
        if !self.nodes[me.0 as usize].alive {
            return;
        }
        // Only the sync-completion timer reaches a node outside the active
        // membership: standbys and departed replicas neither vote nor lead.
        if !self.membership.is_active(me) {
            if let Msg::SyncDone { node } = msg {
                self.on_sync_done(node);
            }
            return;
        }
        match msg {
            Msg::ProposeTimer { height, view } => self.on_propose_timer(me, height, view),
            Msg::Timeout { height, view } => P::on_timeout(self, me, height, view),
            Msg::PrePrepare {
                height,
                view,
                digest,
                batch,
            } => self.on_pre_prepare(me, at, height, view, digest, batch),
            Msg::Vote {
                phase,
                epoch,
                height,
                view,
                digest,
                from,
            } => {
                if epoch != self.membership.epoch() {
                    self.stale_epoch_rejections += 1;
                    return;
                }
                self.on_vote(me, at, phase, height, view, digest, from);
            }
            Msg::ViewChange { height, view } => P::on_view_change(self, me, height, view),
            Msg::NewView { view } => P::on_new_view(self, me, view),
            Msg::SyncDone { .. } => {} // already active: stale sync timer
        }
    }

    /// A joiner finished catch-up: it enters the membership at the next
    /// open height, the epoch advances, and quorum arithmetic now runs over
    /// the grown `n`.
    fn on_sync_done(&mut self, node: NodeId) {
        if !self.monitor.is_syncing(node) || !self.membership.join(node) {
            return;
        }
        self.monitor.observe_sync_complete(node);
        self.nodes[node.0 as usize].height = self.next_height;
        P::align_joiner(self, node);
        self.on_epoch_change();
    }

    /// Applies a membership change: recompute the quorum over the new
    /// active count, abandon in-flight slots (their epoch is superseded —
    /// a quorum of the old membership must not certify a commit), reclaim
    /// their commands, and let the policy restart proposing and watching
    /// over the new membership.
    fn on_epoch_change(&mut self) {
        let quorum = self.quorum();
        self.monitor.begin_epoch(self.membership.epoch(), quorum);
        // Reclaim commands stuck in uncommitted slots, in (height, view)
        // order, deduplicated (several replicas hold the same in-flight
        // batch) and filtered against already-finalized transactions. They
        // go ahead of the pending queue.
        let mut by_slot: BTreeMap<(u64, u64), Vec<Command>> = BTreeMap::new();
        for node in &mut self.nodes {
            for (&key, slot) in node.slots.iter() {
                if slot.committed {
                    continue;
                }
                if let Some(batch) = &slot.batch {
                    by_slot.entry(key).or_insert_with(|| batch.clone());
                }
            }
            node.slots.retain(|_, s| s.committed);
        }
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut restored: Vec<Command> = Vec::new();
        for c in by_slot.into_values().flatten() {
            if !self.committed_txs.contains(&c.tx.as_u64()) && seen.insert(c.tx.as_u64()) {
                restored.push(c);
            }
        }
        restored.append(&mut self.pending);
        self.pending = restored;
        let next = self.next_height;
        self.commit_quorum_times
            .retain(|&(height, _), _| height < next);
        P::restart_epoch(self);
    }

    fn on_propose_timer(&mut self, me: NodeId, height: u64, view: u64) {
        {
            let node = &self.nodes[me.0 as usize];
            if node.view != view || height != self.next_height || self.leader(height, view) != me {
                return;
            }
            if node
                .slots
                .get(&(height, view))
                .is_some_and(|s| s.digest.is_some())
            {
                return; // already proposed this slot (duplicate timer)
            }
        }
        if self.pending.is_empty() && !P::PROPOSES_EMPTY_BLOCKS {
            // Nothing to propose; retry a period later.
            self.net
                .timer(me, self.period, Msg::ProposeTimer { height, view });
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let digest = P::digest(&batch, height, view, false);
        let bytes = VOTE_BYTES + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = self.proc_per_msg + P::PROC_PER_COMMAND * batch.len() as u64;
        let now = self.net.now();
        let done = self.cpu.process(me, now, cost);
        // The leader pre-prepares locally.
        let slot = self.nodes[me.0 as usize]
            .slots
            .entry((height, view))
            .or_default();
        slot.digest = Some(digest);
        slot.batch = Some(batch.clone());
        slot.prepares.insert(digest, 1); // own implicit prepare
        self.monitor.observe_proposal(view, height, me, digest);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, height, digest, me);
        let extra = done - now;
        let pre_prepare = |digest| Msg::PrePrepare {
            height,
            view,
            digest,
            batch: batch.clone(),
        };
        if self.byz[me.0 as usize].equivocates(now) && self.nodes.len() >= 3 {
            // Equivocating leader: a sibling block with the same commands
            // but a conflicting digest goes to half the honest peers;
            // Byzantine accomplices receive both versions.
            let alt = P::digest(&batch, height, view, true);
            self.equiv_sibling.insert((height, view), alt);
            self.monitor.observe_proposal(view, height, me, alt);
            let mut honest_idx = 0usize;
            for i in 0..self.nodes.len() {
                let dst = NodeId(i as u32);
                if dst == me {
                    continue;
                }
                let accomplice = self.byz[i].is_byzantine(now);
                if accomplice || honest_idx.is_multiple_of(2) {
                    self.net
                        .send_delayed(me, dst, extra, bytes, pre_prepare(digest));
                }
                if accomplice || honest_idx % 2 == 1 {
                    self.net
                        .send_delayed(me, dst, extra, bytes, pre_prepare(alt));
                }
                if !accomplice {
                    honest_idx += 1;
                }
            }
        } else {
            self.net
                .broadcast_delayed(me, extra, bytes, |_| pre_prepare(digest));
        }
        // Arm the leader's own progress timer.
        self.watch(me, height, view);
    }

    /// Broadcasts `me`'s `phase` vote for `digest` at `(height, view)`.
    fn broadcast_vote(
        &mut self,
        me: NodeId,
        extra: SimDuration,
        phase: VotePhase,
        height: u64,
        view: u64,
        digest: u64,
    ) {
        let epoch = self.membership.epoch();
        self.net
            .broadcast_delayed(me, extra, VOTE_BYTES, |_| Msg::Vote {
                phase,
                epoch,
                height,
                view,
                digest,
                from: me,
            });
    }

    fn on_pre_prepare(
        &mut self,
        me: NodeId,
        at: SimTime,
        height: u64,
        view: u64,
        digest: u64,
        batch: Vec<Command>,
    ) {
        let cost = self.proc_per_msg + P::PROC_PER_COMMAND * batch.len() as u64;
        let done = self.cpu.process(me, at, cost);
        let extra = done - at;
        let node = &mut self.nodes[me.0 as usize];
        if !P::accepts_proposal(node, height, view) {
            return;
        }
        let slot = node.slots.entry((height, view)).or_default();
        if slot.batch.is_some() {
            if slot.digest != Some(digest) && self.byz[me.0 as usize].double_votes(at) {
                // A conflicting pre-prepare for a slot we already accepted:
                // honest replicas drop it; a double-voting replica votes
                // for it anyway (prepare and commit) without adopting it.
                self.broadcast_vote(me, extra, VotePhase::Prepare, height, view, digest);
                self.broadcast_vote(me, extra, VotePhase::Commit, height, view, digest);
            }
            return; // duplicate (or conflicting) pre-prepare
        }
        slot.digest = Some(digest);
        slot.batch = Some(batch);
        *slot.prepares.entry(digest).or_insert(0) += 2; // leader implicit + own
        let leader = self.leader(height, view);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, height, digest, leader);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, height, digest, me);
        self.broadcast_vote(me, extra, VotePhase::Prepare, height, view, digest);
        self.watch(me, height, view);
        self.check_prepared(me, height, view, digest);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_vote(
        &mut self,
        me: NodeId,
        at: SimTime,
        phase: VotePhase,
        height: u64,
        view: u64,
        digest: u64,
        from: NodeId,
    ) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        let node = &mut self.nodes[me.0 as usize];
        if !P::accepts_vote(node, height, view) {
            return;
        }
        let slot = node.slots.entry((height, view)).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        *slot.tally(phase).entry(digest).or_insert(0) += 1;
        self.monitor
            .observe_vote(me, phase, view, height, digest, from);
        match phase {
            VotePhase::Prepare => self.check_prepared(me, height, view, digest),
            _ => self.check_committed(me, height, view, digest),
        }
    }

    fn check_prepared(&mut self, me: NodeId, height: u64, view: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        let slot = self.nodes[me.0 as usize]
            .slots
            .entry((height, view))
            .or_default();
        let should_commit = !slot.prepared
            && slot.digest == Some(digest)
            && slot.prepares.get(&digest).copied().unwrap_or(0) >= quorum;
        if !should_commit {
            return;
        }
        slot.prepared = true;
        *slot.commits.entry(digest).or_insert(0) += 1; // own commit
        self.monitor
            .observe_quorum(me, VotePhase::Prepare, view, height, digest);
        self.monitor
            .observe_vote(me, VotePhase::Commit, view, height, digest, me);
        let done = self.cpu.process(me, now, self.proc_per_msg);
        self.broadcast_vote(me, done - now, VotePhase::Commit, height, view, digest);
        // An equivocating leader finishes its attack: the sibling fork
        // needs its commit vote too.
        if self.leader(height, view) == me {
            if let Some(&alt) = self.equiv_sibling.get(&(height, view)) {
                if alt != digest {
                    self.broadcast_vote(me, done - now, VotePhase::Commit, height, view, alt);
                }
            }
        }
        self.check_committed(me, height, view, digest);
    }

    fn check_committed(&mut self, me: NodeId, height: u64, view: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        {
            let node = &mut self.nodes[me.0 as usize];
            let slot = node.slots.entry((height, view)).or_default();
            let locally_committed = !slot.committed
                && slot.prepared
                && slot.digest == Some(digest)
                && slot.commits.get(&digest).copied().unwrap_or(0) >= quorum;
            if !locally_committed {
                return;
            }
            slot.committed = true;
            node.height = node.height.max(height + 1);
            node.view = P::view_after_commit(node.view);
        }
        self.liveness.observe_progress(me, now);
        self.monitor
            .observe_quorum(me, VotePhase::Commit, view, height, digest);
        // Vote tallies are reset on every membership change, so the quorum
        // behind this commit formed entirely in the current epoch.
        self.monitor
            .observe_epoch_commit(self.membership.epoch(), height, digest);
        // Watch the next height so a leader that dies between blocks is
        // detected.
        let next_view = P::view_after_commit(view);
        self.net.timer(
            me,
            P::watch_delay(self.period, self.timeout),
            Msg::Timeout {
                height: height + 1,
                view: next_view,
            },
        );
        // Record this node's local commit; on quorum, finalize cluster-wide.
        let entry = self.commit_quorum_times.entry((height, view)).or_default();
        if !entry.iter().any(|(n, _)| *n == me) {
            entry.push((me, now));
        }
        if entry.len() as u32 >= quorum && height == self.next_height {
            let committed_at = entry.iter().map(|&(_, t)| t).max().unwrap_or(now);
            let batch = self
                .nodes
                .iter()
                .find_map(|n| n.slots.get(&(height, view)).and_then(|s| s.batch.clone()))
                .unwrap_or_default();
            self.next_height = height + 1;
            self.liveness.observe_commit(committed_at);
            for c in &batch {
                self.committed_txs.insert(c.tx.as_u64());
            }
            self.committed.push(CommittedBatch {
                commands: batch,
                proposer: self.leader(height, view),
                round: height,
                committed_at,
            });
            // Schedule the next proposal at the (possibly new) leader.
            self.net.timer(
                self.leader(height + 1, next_view),
                self.period,
                Msg::ProposeTimer {
                    height: height + 1,
                    view: next_view,
                },
            );
        }
    }
}
