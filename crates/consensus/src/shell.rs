//! One engine shell under the message-level consensus engines.
//!
//! Raft, DiemBFT, the three-phase BFT core and DPoS all run the same
//! scaffold around their protocol: a builder, an epoch-versioned
//! [`Membership`], a [`NetSim`] carrying their messages and timers, a
//! [`CpuModel`], the `pending` and `committed` queues, a
//! [`LivenessMonitor`], per-node crash state, the set of joiners still
//! syncing, and one fault and membership surface. [`Shell`] owns all of
//! it. Each engine is a [`Protocol`]: its state, messages, timers and
//! commit rule, plus the hooks where it really differs from the others.
//! The protocol is a type parameter, so dispatch is static.
//!
//! Sawtooth draws the same line between its validator and a pluggable
//! consensus engine (Sawtooth RFC 0004); BLOCKBENCH treats consensus as
//! one swappable layer.

use std::collections::BTreeSet;
use std::fmt::Debug;

use coconut_simnet::{ByzantineBehaviour, FaultEvent, NetConfig, NetSim, NetStats, Topology};
use coconut_types::{NodeId, SimDuration, SimTime};

use crate::liveness::{LivenessMonitor, LivenessReport};
use crate::safety::{ByzantineFlags, SafetyMonitor, SafetyReport};
use crate::{bft_quorum, BatchConfig, Command, CommittedBatch, CpuModel, Membership};

/// Base catch-up time a joiner spends on state transfer before it may vote,
/// lead or produce, plus a transfer cost per unit of chain history (see
/// [`Protocol::sync_units`]).
pub(crate) const SYNC_BASE: SimDuration = SimDuration::from_millis(250);
pub(crate) const SYNC_PER_UNIT: SimDuration = SimDuration::from_millis(2);

/// One consensus protocol run by a [`Shell`]: its node state, messages
/// and the hooks where it differs from the other engines. Hooks take the
/// whole shell, so a protocol reaches the shared state directly.
pub trait Protocol: Sized + Debug {
    /// Protocol messages and local timers.
    type Msg: Debug + PartialEq;
    /// Builder settings only this protocol has.
    type Config: Debug;
    /// Default of [`Protocol::Config`].
    const CONFIG: Self::Config;
    /// Default batch-cut policy of the builder.
    const BATCH: BatchConfig;
    /// The timer that ends a joiner's state transfer, armed on the joiner.
    const SYNC_DONE: Self::Msg;

    /// Builds the protocol state and arms its initial timers. The order
    /// is part of the protocol's behaviour: same-instant timers fire in
    /// insertion order.
    fn init(b: &Builder<Self>, net: &mut NetSim<Self::Msg>) -> Self;

    /// Units of chain history a joiner transfers, each costing
    /// `SYNC_PER_UNIT` on top of `SYNC_BASE`.
    fn sync_units(s: &Shell<Self>) -> u64;

    /// Whether `me` handles `msg` at all. By default crashed nodes drop
    /// everything, and nodes outside the active membership handle only
    /// their sync completion.
    fn admits(s: &Shell<Self>, me: NodeId, msg: &Self::Msg) -> bool {
        s.alive[me.0 as usize] && (s.membership.is_active(me) || *msg == Self::SYNC_DONE)
    }

    /// Handles an admitted message other than a sync completion.
    fn deliver(s: &mut Shell<Self>, me: NodeId, at: SimTime, msg: Self::Msg);

    /// Runs after a command joins the pending queue.
    fn on_submit(_s: &mut Shell<Self>) {}

    /// Runs when `node` starts syncing, before its sync timer is armed.
    fn on_join(_s: &mut Shell<Self>, _node: NodeId) {}

    /// `node`, still syncing, finished its state transfer. By default it
    /// enters the membership, [`Protocol::admit`] and
    /// [`Protocol::on_epoch_change`] run.
    fn on_sync_done(s: &mut Shell<Self>, node: NodeId) {
        if !s.membership.join(node) {
            return;
        }
        s.syncing.remove(&node);
        Self::admit(s, node);
        Self::on_epoch_change(s);
    }

    /// Aligns `node`, just admitted to the membership.
    fn admit(_s: &mut Shell<Self>, _node: NodeId) {}

    /// Reacts to a membership change in the shell.
    fn on_epoch_change(_s: &mut Shell<Self>) {}

    /// Removes `node` from the membership; `false` when it is not active
    /// or is the last member.
    fn leave(s: &mut Shell<Self>, node: NodeId) -> bool {
        if !s.membership.leave(node) {
            return false;
        }
        Self::on_epoch_change(s);
        true
    }

    /// Runs when `node` recovers, before it is marked alive.
    fn on_recover(_s: &mut Shell<Self>, _node: NodeId) {}

    /// Runs at the start of every [`Shell::run_until`].
    fn before_run(_s: &mut Shell<Self>) {}

    /// The shared Byzantine-tolerance state of an engine that carries one
    /// (DiemBFT and the three-phase core). Raft and DPoS keep the default
    /// `None`: they take no Byzantine flag and carry no safety monitor.
    fn bft(&self) -> Option<&Bft> {
        None
    }

    /// [`Protocol::bft`], mutably.
    fn bft_mut(&mut self) -> Option<&mut Bft> {
        None
    }
}

/// Configuration for a [`Shell`]; build with [`Shell::builder`].
#[derive(Debug)]
pub struct Builder<P: Protocol> {
    pub(crate) nodes: u32,
    standby: u32,
    topology: Option<Topology>,
    net: NetConfig,
    pub(crate) seed: u64,
    batch: BatchConfig,
    pub(crate) config: P::Config,
}

impl<P: Protocol> Builder<P> {
    /// Node placement (defaults to one node per server).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Pre-provisions `k` standby nodes (ids `nodes..nodes + k`) that start
    /// outside the active membership and can be admitted at runtime via
    /// [`Shell::join`]. Default 0.
    pub fn standby(mut self, k: u32) -> Self {
        self.standby = k;
        self
    }

    /// Network characteristics (defaults to [`NetConfig::lan`]).
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

    /// Baseline plus standby nodes.
    pub(crate) fn provisioned(&self) -> u32 {
        self.nodes + self.standby
    }

    /// Builds the cluster.
    pub fn build(mut self) -> Shell<P> {
        let total = self.provisioned();
        let topology = self
            .topology
            .take()
            .unwrap_or_else(|| Topology::round_robin(total, total));
        assert_eq!(
            topology.node_count(),
            total,
            "topology must cover baseline + standby nodes"
        );
        let mut net = NetSim::new(topology, self.net.clone(), self.seed);
        Shell {
            p: P::init(&self, &mut net),
            membership: Membership::new(self.nodes, self.standby),
            net,
            cpu: CpuModel::new(total),
            batch: self.batch,
            pending: Vec::new(),
            committed: Vec::new(),
            liveness: LivenessMonitor::default(),
            alive: vec![true; total as usize],
            syncing: BTreeSet::new(),
        }
    }
}

/// A simulated cluster running protocol `P`; see
/// [`RaftCluster`](crate::raft::RaftCluster),
/// [`DiemBftCluster`](crate::diembft::DiemBftCluster),
/// [`PbftCluster`](crate::pbft::PbftCluster),
/// [`IbftCluster`](crate::ibft::IbftCluster) and
/// [`DposCluster`](crate::dpos::DposCluster).
#[derive(Debug)]
pub struct Shell<P: Protocol> {
    /// The protocol's own state.
    pub(crate) p: P,
    /// Epoch-versioned active membership over the provisioned universe.
    pub(crate) membership: Membership,
    pub(crate) net: NetSim<P::Msg>,
    pub(crate) cpu: CpuModel,
    pub(crate) batch: BatchConfig,
    pub(crate) pending: Vec<Command>,
    pub(crate) committed: Vec<CommittedBatch>,
    /// Commit-cadence and view-change liveness tracker.
    pub(crate) liveness: LivenessMonitor,
    pub(crate) alive: Vec<bool>,
    /// Joiners in state transfer, not yet admitted.
    pub(crate) syncing: BTreeSet<NodeId>,
}

impl<P: Protocol> Shell<P> {
    /// Starts building a cluster of `nodes` active nodes.
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
            batch: P::BATCH,
            config: P::CONFIG,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Number of provisioned nodes: baseline plus standby.
    pub fn node_count(&self) -> u32 {
        self.membership.provisioned()
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

    /// Commands accepted but not yet ordered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submits a command for ordering.
    pub fn submit(&mut self, cmd: Command) {
        self.pending.push(cmd);
        P::on_submit(self);
    }

    /// The liveness monitor's verdict as of the current virtual time.
    pub fn liveness_report(&self) -> LivenessReport {
        self.liveness.report(self.net.now())
    }

    /// Crashes a node (crash-stop: it stops handling messages). Returns
    /// `false` when `node` is not provisioned.
    pub fn crash(&mut self, node: NodeId) -> bool {
        match self.alive.get_mut(node.0 as usize) {
            Some(alive) => {
                *alive = false;
                true
            }
            None => false,
        }
    }

    /// Recovers a crashed node through the protocol's recovery path.
    /// Returns `false` when `node` is not provisioned.
    pub fn recover(&mut self, node: NodeId) -> bool {
        if node.0 as usize >= self.alive.len() {
            return false;
        }
        P::on_recover(self, node);
        self.alive[node.0 as usize] = true;
        true
    }

    /// Flags `node` to misbehave (`behaviour`) until virtual time `until`.
    /// Returns `false` when the protocol carries no [`Bft`] state or
    /// `node` is not provisioned.
    pub fn set_byzantine(
        &mut self,
        node: NodeId,
        behaviour: ByzantineBehaviour,
        until: SimTime,
    ) -> bool {
        match self
            .p
            .bft_mut()
            .and_then(|b| b.byz.get_mut(node.0 as usize))
        {
            Some(flags) => {
                flags.arm(behaviour, until);
                true
            }
            None => false,
        }
    }

    /// The safety monitor's verdict over everything observed so far;
    /// `None` for a protocol without [`Bft`] state.
    pub fn safety_report(&self) -> Option<SafetyReport> {
        self.p.bft().map(|b| b.monitor.report())
    }

    /// Votes dropped for carrying a superseded membership epoch.
    pub fn stale_epoch_rejections(&self) -> u64 {
        self.p.bft().map_or(0, |b| b.stale_epoch_rejections)
    }

    /// Byzantine quorum (2f + 1) over the active membership.
    pub(crate) fn quorum(&self) -> u32 {
        bft_quorum(self.membership.active_count())
    }

    /// Whether a vote tagged `epoch` belongs to the current membership;
    /// a stale one is counted and must be dropped.
    pub(crate) fn current_epoch(&mut self, epoch: u64) -> bool {
        if epoch == self.membership.epoch() {
            return true;
        }
        if let Some(b) = self.p.bft_mut() {
            b.stale_epoch_rejections += 1;
        }
        false
    }

    /// Current active-membership size (`n` of the quorum arithmetic).
    pub fn active_count(&self) -> u32 {
        self.membership.active_count()
    }

    /// Current membership-configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Starts admitting standby node `node`: its state transfer starts now
    /// and takes longer the more history the cluster has, and only when it
    /// completes does the protocol admit it. Returns `false` when `node` is
    /// not provisioned, already active or already syncing.
    pub fn join(&mut self, node: NodeId) -> bool {
        if node.0 >= self.membership.provisioned()
            || self.membership.is_active(node)
            || self.syncing.contains(&node)
        {
            return false;
        }
        self.syncing.insert(node);
        P::on_join(self, node);
        let sync = SYNC_BASE + SYNC_PER_UNIT * P::sync_units(self);
        self.net.timer(node, sync, P::SYNC_DONE);
        true
    }

    /// Removes `node` from the active membership. Returns `false` when
    /// `node` is not active or is the last active member.
    pub fn leave(&mut self, node: NodeId) -> bool {
        P::leave(self, node)
    }

    /// Runs the protocol until `deadline`, returning the batches committed
    /// in this window, in commit order.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<CommittedBatch> {
        P::before_run(self);
        while let Some(ev) = self.net.pop_at_or_before(deadline) {
            self.dispatch(ev.dst, ev.at, ev.msg);
        }
        self.net.advance_to(deadline);
        std::mem::take(&mut self.committed)
    }

    /// Due time of the next internal event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.net.next_event_time()
    }

    fn dispatch(&mut self, me: NodeId, at: SimTime, msg: P::Msg) {
        if !P::admits(self, me, &msg) {
            return;
        }
        if msg != P::SYNC_DONE {
            P::deliver(self, me, at, msg);
        } else if self.syncing.contains(&me) {
            P::on_sync_done(self, me);
        }
    }
}

/// State the Byzantine-tolerant engines (DiemBFT and the three-phase core)
/// share: fault windows, the safety monitor, the stale-epoch counter and
/// the finalized-transaction set.
#[derive(Debug)]
pub struct Bft {
    /// Per-node Byzantine fault windows.
    pub(crate) byz: Vec<ByzantineFlags>,
    /// Message-level safety observer (never influences the protocol).
    pub(crate) monitor: SafetyMonitor,
    /// Votes dropped because they carried a superseded membership epoch.
    stale_epoch_rejections: u64,
    /// Transactions already finalized, so a batch orphaned by a view,
    /// round or epoch change is never re-proposed after it committed.
    committed_txs: BTreeSet<u64>,
}

impl Bft {
    pub(crate) fn new<P: Protocol>(b: &Builder<P>) -> Self {
        Bft {
            byz: vec![ByzantineFlags::default(); b.provisioned() as usize],
            monitor: SafetyMonitor::new(bft_quorum(b.nodes)),
            stale_epoch_rejections: 0,
            committed_txs: BTreeSet::new(),
        }
    }

    /// Records `batch` as finalized.
    pub(crate) fn finalize(&mut self, batch: &[Command]) {
        self.committed_txs
            .extend(batch.iter().map(|c| c.tx.as_u64()));
    }

    /// The commands of `cmds`, in order, that are neither finalized, nor in
    /// `pending`, nor earlier in `cmds`: what an abandoned batch may put
    /// back into the pending queue.
    pub(crate) fn unfinalized(
        &self,
        pending: &[Command],
        cmds: impl IntoIterator<Item = Command>,
    ) -> Vec<Command> {
        let mut seen: BTreeSet<u64> = pending.iter().map(|c| c.tx.as_u64()).collect();
        cmds.into_iter()
            .filter(|c| !self.committed_txs.contains(&c.tx.as_u64()) && seen.insert(c.tx.as_u64()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::dpos::DposCluster;
    use crate::pbft::PbftCluster;
    use crate::raft::RaftCluster;
    use coconut_simnet::ByzantineBehaviour::DoubleVote;
    use coconut_types::{NodeId, SimTime};

    /// `node_count` means provisioned nodes for every engine, DPoS too.
    #[test]
    fn node_count_counts_standby_nodes() {
        let mut c = DposCluster::builder(3).standby(1).build();
        assert_eq!((c.node_count(), c.active_count()), (4, 3));
        assert!(c.join(NodeId(3)));
        assert_eq!(c.node_count(), 4);
    }

    /// Crash, recover and Byzantine flags reach exactly the provisioned
    /// nodes, standby included; only a protocol with [`super::Bft`] state
    /// takes the flag and reports safety.
    #[test]
    fn fault_surface_covers_the_provisioned_nodes() {
        let until = SimTime::from_secs(1);
        let mut d = DposCluster::builder(3).standby(1).build();
        assert!(d.crash(NodeId(3)) && d.recover(NodeId(3)));
        assert!(!d.crash(NodeId(4)) && !d.recover(NodeId(4)));
        assert!(!d.set_byzantine(NodeId(0), DoubleVote, until));
        assert!(d.safety_report().is_none());
        let mut r = RaftCluster::builder(3).build();
        assert!(!r.crash(NodeId(3)));
        assert!(!r.set_byzantine(NodeId(0), DoubleVote, until));
        assert!(r.safety_report().is_none());
        let mut p = PbftCluster::builder(4).standby(1).build();
        assert!(p.set_byzantine(NodeId(4), DoubleVote, until));
        assert!(!p.set_byzantine(NodeId(5), DoubleVote, until));
        assert!(p.crash(NodeId(4)) && !p.crash(NodeId(5)));
        assert!(p.safety_report().is_some());
    }
}
