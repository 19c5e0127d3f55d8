//! One three-phase BFT engine behind Sawtooth's PBFT and Quorum's IBFT.
//!
//! Both protocols are Castro–Liskov PBFT adaptations: a leader broadcasts a
//! `PrePrepare` carrying the block (batch), replicas exchange `Prepare` and
//! `Commit` votes, and a block finalizes once 2f + 1 nodes have committed
//! it. [`Core`], a [`Protocol`] of the engine [`Shell`], owns everything
//! the two share: slots and per-digest vote tallies, the proposal and
//! equivocation path, the prepare and commit quorums, finalization into
//! [`CommittedBatch`], joiner admission and the epoch-change reclaim, and
//! the [`SafetyMonitor`] / [`LivenessMonitor`] calls.
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
//! Nodes flagged via [`Shell::set_byzantine`] misbehave while their fault
//! window is open: an equivocating leader proposes two conflicting blocks
//! (same commands, different digests) to disjoint halves of the honest
//! peers, and a double-voting replica answers a conflicting pre-prepare
//! with prepare *and* commit votes for both digests. The [`SafetyMonitor`]
//! observes every proposal, vote, and commit and counts invariant breaks —
//! with ≤ f flagged nodes the minority fork starves below quorum and the
//! report stays clean; beyond f the forged votes carry a conflicting block
//! to commit and the monitor records it.
//!
//! [`SafetyMonitor`]: crate::SafetyMonitor
//! [`LivenessMonitor`]: crate::LivenessMonitor

use std::collections::BTreeMap;
use std::fmt::Debug;

use coconut_simnet::NetSim;
use coconut_types::{MixMap, NodeId, SimDuration, SimTime};

use crate::safety::VotePhase;
use crate::shell::{self, Bft, Protocol, Shell};
use crate::{BatchConfig, Command, CommittedBatch};

pub(crate) use wire::Msg;

/// Fixed CPU cost of handling any protocol message.
pub(crate) const PROC_PER_MSG: SimDuration = SimDuration::from_micros(30);

/// Bytes of a vote; a pre-prepare is this plus its batch.
const VOTE_BYTES: usize = 64;

/// Bytes of a view/round-change message.
pub(crate) const CHANGE_BYTES: usize = 48;

/// The points where PBFT and IBFT differ. Everything else is [`Core`].
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

/// Messages; public only to the engine shell.
mod wire {
    use crate::safety::VotePhase;
    use crate::Command;
    use coconut_types::NodeId;

    /// Protocol messages and local timers, keyed by `(height, view)`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Msg {
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
        /// A vote to move to `view` (PBFT ignores `height`: its view is
        /// global).
        ViewChange { height: u64, view: u64 },
        /// PBFT's incoming primary announces `view`.
        NewView { view: u64 },
        /// A joiner's catch-up/state transfer finished: activate it.
        SyncDone,
    }
}

/// Per-slot consensus progress at one node. Vote tallies are kept per
/// digest so that votes for an equivocated sibling block can never inflate
/// the count of the block this node actually holds.
#[derive(Debug, Default, Clone)]
pub(crate) struct Slot {
    pub(crate) digest: Option<u64>,
    pub(crate) batch: Option<Vec<Command>>,
    prepares: MixMap<u64, u32>,
    commits: MixMap<u64, u32>,
    prepared: bool,
    pub(crate) committed: bool,
}

impl Slot {
    fn tally(&mut self, phase: VotePhase) -> &mut MixMap<u64, u32> {
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
    pub(crate) slots: MixMap<(u64, u64), Slot>,
    /// The policy's view/round-change state.
    pub(crate) change: C,
}

/// Configuration for a [`Cluster`]; build with [`Shell::builder`].
pub type Builder<P> = shell::Builder<Core<P>>;

impl<P: Policy> Builder<P> {
    /// The pause between a commit and the next proposal: Sawtooth's
    /// `block_publishing_delay`, Quorum's `istanbul.blockperiod`. Default
    /// 1 s.
    pub fn period(mut self, d: SimDuration) -> Self {
        self.config.0 = d;
        self
    }

    /// How long a node waits for an outstanding proposal to commit before
    /// voting for a view (PBFT) or round (IBFT) change. Default 4 s.
    pub fn timeout(mut self, d: SimDuration) -> Self {
        self.config.1 = d;
        self
    }
}

/// A simulated three-phase BFT cluster running policy `P`; see
/// [`PbftCluster`](crate::pbft::PbftCluster) and
/// [`IbftCluster`](crate::ibft::IbftCluster).
pub type Cluster<P> = Shell<Core<P>>;

/// The three-phase protocol state of a [`Cluster`] under policy `P`.
#[derive(Debug)]
pub struct Core<P: Policy> {
    pub(crate) nodes: Vec<Node<P::Change>>,
    /// The height the cluster finalizes next.
    pub(crate) next_height: u64,
    pub(crate) period: SimDuration,
    pub(crate) timeout: SimDuration,
    /// (height, view) → nodes that reached local commit, for quorum
    /// detection.
    commit_quorum_times: MixMap<(u64, u64), Vec<(NodeId, SimTime)>>,
    /// (height, view) → the conflicting sibling digest an equivocating
    /// leader broadcast alongside its real proposal.
    equiv_sibling: MixMap<(u64, u64), u64>,
    bft: Bft,
}

impl<P: Policy> Protocol for Core<P> {
    type Msg = Msg;
    /// `(period, timeout)`.
    type Config = (SimDuration, SimDuration);
    const CONFIG: Self::Config = (SimDuration::from_secs(1), SimDuration::from_secs(4));
    const BATCH: BatchConfig = BatchConfig {
        max_commands: P::BATCH_COMMANDS,
        max_wait: SimDuration::from_secs(1),
    };
    const SYNC_DONE: Msg = Msg::SyncDone;

    /// The first leader (node 0) proposes after one period, and every
    /// active replica watches height 0 so a dead first leader is detected
    /// even though it never sends a pre-prepare.
    fn init(b: &Builder<P>, net: &mut NetSim<Msg>) -> Self {
        let (period, timeout) = b.config;
        net.timer(NodeId(0), period, Msg::ProposeTimer { height: 0, view: 0 });
        for i in 0..b.nodes {
            net.timer(NodeId(i), timeout, Msg::Timeout { height: 0, view: 0 });
        }
        Core {
            nodes: (0..b.provisioned())
                .map(|_| Node {
                    height: 0,
                    view: 0,
                    slots: MixMap::default(),
                    change: P::Change::default(),
                })
                .collect(),
            next_height: 0,
            period,
            timeout,
            commit_quorum_times: MixMap::default(),
            equiv_sibling: MixMap::default(),
            bft: Bft::new(b),
        }
    }

    /// A joiner transfers every committed block.
    fn sync_units(c: &Cluster<P>) -> u64 {
        c.p.next_height
    }

    fn deliver(c: &mut Cluster<P>, me: NodeId, at: SimTime, msg: Msg) {
        match msg {
            Msg::ProposeTimer { height, view } => c.on_propose_timer(me, height, view),
            Msg::Timeout { height, view } => P::on_timeout(c, me, height, view),
            Msg::PrePrepare {
                height,
                view,
                digest,
                batch,
            } => c.on_pre_prepare(me, at, height, view, digest, batch),
            Msg::Vote {
                phase,
                epoch,
                height,
                view,
                digest,
                from,
            } => {
                if c.current_epoch(epoch) {
                    c.on_vote(me, at, phase, height, view, digest, from);
                }
            }
            Msg::ViewChange { height, view } => P::on_view_change(c, me, height, view),
            Msg::NewView { view } => P::on_new_view(c, me, view),
            Msg::SyncDone => {} // the shell's
        }
    }

    fn on_join(c: &mut Cluster<P>, node: NodeId) {
        c.p.bft.monitor.observe_sync_start(node);
    }

    /// The joiner enters the membership at the next open height.
    fn admit(c: &mut Cluster<P>, node: NodeId) {
        c.p.bft.monitor.observe_sync_complete(node);
        c.p.nodes[node.0 as usize].height = c.p.next_height;
        P::align_joiner(c, node);
    }

    /// Recomputes the quorum over the new active count, abandons in-flight
    /// slots (their epoch is superseded — a quorum of the old membership
    /// must not certify a commit), reclaims their commands, and lets the
    /// policy restart proposing and watching over the new membership.
    fn on_epoch_change(c: &mut Cluster<P>) {
        let quorum = c.quorum();
        c.p.bft.monitor.begin_epoch(c.membership.epoch(), quorum);
        // Reclaim commands stuck in uncommitted slots, in (height, view)
        // order, deduplicated (several replicas hold the same in-flight
        // batch) and filtered against already-finalized transactions. They
        // go ahead of the pending queue.
        let mut by_slot: BTreeMap<(u64, u64), Vec<Command>> = BTreeMap::new();
        for node in &mut c.p.nodes {
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
        let mut restored = c.p.bft.unfinalized(&[], by_slot.into_values().flatten());
        restored.append(&mut c.pending);
        c.pending = restored;
        let next = c.p.next_height;
        c.p.commit_quorum_times
            .retain(|&(height, _), _| height < next);
        P::restart_epoch(c);
    }

    fn bft(&self) -> Option<&Bft> {
        Some(&self.bft)
    }

    fn bft_mut(&mut self) -> Option<&mut Bft> {
        Some(&mut self.bft)
    }
}

impl<P: Policy> Shell<Core<P>> {
    /// Removes every queued command (models a txpool flush).
    pub fn drop_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
    }

    /// The leader of `(height, view)`: rotation over the active membership,
    /// identical to `rotation mod n` until the first join/leave.
    pub(crate) fn leader(&self, height: u64, view: u64) -> NodeId {
        self.membership.select(P::rotation(height, view))
    }

    /// Arms `me`'s progress timer for `(height, view)`.
    pub(crate) fn watch(&mut self, me: NodeId, height: u64, view: u64) {
        self.net
            .timer(me, self.p.timeout, Msg::Timeout { height, view });
    }

    /// Arms the progress timer of every live active replica.
    pub(crate) fn watch_active(&mut self, height: u64, view: u64) {
        for i in 0..self.p.nodes.len() {
            let id = NodeId(i as u32);
            if self.alive[i] && self.membership.is_active(id) {
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
        for (&(height, view), slot) in self.p.nodes[me.0 as usize].slots.iter_mut() {
            if !slot.committed && abandoned(height, view) {
                if let Some(batch) = slot.batch.take() {
                    by_slot.insert((height, view), batch);
                }
            }
        }
        let reclaimed = self
            .p
            .bft
            .unfinalized(&self.pending, by_slot.into_values().flatten());
        self.pending.extend(reclaimed);
    }

    fn on_propose_timer(&mut self, me: NodeId, height: u64, view: u64) {
        {
            let node = &self.p.nodes[me.0 as usize];
            if node.view != view || height != self.p.next_height || self.leader(height, view) != me
            {
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
                .timer(me, self.p.period, Msg::ProposeTimer { height, view });
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let digest = P::digest(&batch, height, view, false);
        let bytes = VOTE_BYTES + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = PROC_PER_MSG + P::PROC_PER_COMMAND * batch.len() as u64;
        let now = self.net.now();
        let done = self.cpu.process(me, now, cost);
        // The leader pre-prepares locally.
        let slot = self.p.nodes[me.0 as usize]
            .slots
            .entry((height, view))
            .or_default();
        slot.digest = Some(digest);
        slot.batch = Some(batch.clone());
        slot.prepares.insert(digest, 1); // own implicit prepare
        self.p
            .bft
            .monitor
            .observe_proposal(view, height, me, digest);
        self.p
            .bft
            .monitor
            .observe_vote(me, VotePhase::Prepare, view, height, digest, me);
        let extra = done - now;
        let pre_prepare = |digest| Msg::PrePrepare {
            height,
            view,
            digest,
            batch: batch.clone(),
        };
        if self.p.bft.byz[me.0 as usize].equivocates(now) && self.p.nodes.len() >= 3 {
            // Equivocating leader: a sibling block with the same commands
            // but a conflicting digest goes to half the honest peers;
            // Byzantine accomplices receive both versions.
            let alt = P::digest(&batch, height, view, true);
            self.p.equiv_sibling.insert((height, view), alt);
            self.p.bft.monitor.observe_proposal(view, height, me, alt);
            let mut honest_idx = 0usize;
            for i in 0..self.p.nodes.len() {
                let dst = NodeId(i as u32);
                if dst == me {
                    continue;
                }
                let accomplice = self.p.bft.byz[i].is_byzantine(now);
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
        let cost = PROC_PER_MSG + P::PROC_PER_COMMAND * batch.len() as u64;
        let done = self.cpu.process(me, at, cost);
        let extra = done - at;
        let node = &mut self.p.nodes[me.0 as usize];
        if !P::accepts_proposal(node, height, view) {
            return;
        }
        let slot = node.slots.entry((height, view)).or_default();
        if slot.batch.is_some() {
            if slot.digest != Some(digest) && self.p.bft.byz[me.0 as usize].double_votes(at) {
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
        self.p
            .bft
            .monitor
            .observe_vote(me, VotePhase::Prepare, view, height, digest, leader);
        self.p
            .bft
            .monitor
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
        let _ = self.cpu.process(me, at, PROC_PER_MSG);
        let node = &mut self.p.nodes[me.0 as usize];
        if !P::accepts_vote(node, height, view) {
            return;
        }
        let slot = node.slots.entry((height, view)).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        *slot.tally(phase).entry(digest).or_insert(0) += 1;
        self.p
            .bft
            .monitor
            .observe_vote(me, phase, view, height, digest, from);
        match phase {
            VotePhase::Prepare => self.check_prepared(me, height, view, digest),
            _ => self.check_committed(me, height, view, digest),
        }
    }

    fn check_prepared(&mut self, me: NodeId, height: u64, view: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        let slot = self.p.nodes[me.0 as usize]
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
        self.p
            .bft
            .monitor
            .observe_quorum(me, VotePhase::Prepare, view, height, digest);
        self.p
            .bft
            .monitor
            .observe_vote(me, VotePhase::Commit, view, height, digest, me);
        let done = self.cpu.process(me, now, PROC_PER_MSG);
        self.broadcast_vote(me, done - now, VotePhase::Commit, height, view, digest);
        // An equivocating leader finishes its attack: the sibling fork
        // needs its commit vote too.
        if self.leader(height, view) == me {
            if let Some(&alt) = self.p.equiv_sibling.get(&(height, view)) {
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
            let node = &mut self.p.nodes[me.0 as usize];
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
        self.p
            .bft
            .monitor
            .observe_quorum(me, VotePhase::Commit, view, height, digest);
        // Vote tallies are reset on every membership change, so the quorum
        // behind this commit formed entirely in the current epoch.
        self.p
            .bft
            .monitor
            .observe_epoch_commit(self.membership.epoch(), height, digest);
        // Watch the next height so a leader that dies between blocks is
        // detected.
        let next_view = P::view_after_commit(view);
        self.net.timer(
            me,
            P::watch_delay(self.p.period, self.p.timeout),
            Msg::Timeout {
                height: height + 1,
                view: next_view,
            },
        );
        // Record this node's local commit; on quorum, finalize cluster-wide.
        let entry = self
            .p
            .commit_quorum_times
            .entry((height, view))
            .or_default();
        if !entry.iter().any(|(n, _)| *n == me) {
            entry.push((me, now));
        }
        if entry.len() as u32 >= quorum && height == self.p.next_height {
            let committed_at = entry.iter().map(|&(_, t)| t).max().unwrap_or(now);
            let batch = self
                .p
                .nodes
                .iter()
                .find_map(|n| n.slots.get(&(height, view)).and_then(|s| s.batch.clone()))
                .unwrap_or_default();
            self.p.next_height = height + 1;
            self.liveness.observe_commit(committed_at);
            self.p.bft.finalize(&batch);
            self.committed.push(CommittedBatch {
                commands: batch,
                proposer: self.leader(height, view),
                round: height,
                committed_at,
            });
            // Schedule the next proposal at the (possibly new) leader.
            self.net.timer(
                self.leader(height + 1, next_view),
                self.p.period,
                Msg::ProposeTimer {
                    height: height + 1,
                    view: next_view,
                },
            );
        }
    }
}
