//! The network overlay: latency, bandwidth, loss, partitions, statistics.

use std::collections::{HashMap, HashSet};

use coconut_types::{NodeId, SimDuration, SimRng, SimTime};

use crate::latency::LatencyModel;
use crate::sim::{Event, Sim};
use crate::topology::Topology;

/// Network configuration: per-link latency distributions, bandwidth, and
/// loss probability.
///
/// # Example
///
/// ```
/// use coconut_simnet::{LatencyModel, NetConfig};
///
/// // Baseline LAN, then the paper's netem overlay for §5.8.1:
/// let base = NetConfig::lan();
/// let emulated = NetConfig::lan().with_inter_server(LatencyModel::netem_paper());
/// assert!(emulated.inter_server.mean() > base.inter_server.mean());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Latency between containers on the same server.
    pub intra_server: LatencyModel,
    /// Latency between different servers.
    pub inter_server: LatencyModel,
    /// Link bandwidth in bits per second (the paper's servers have a
    /// 1 Gbit/s uplink); transmission delay = message bits / bandwidth.
    pub bandwidth_bps: u64,
    /// Probability that any given message is silently dropped.
    pub loss_probability: f64,
}

impl NetConfig {
    /// The paper's baseline data-center LAN: 200 µs inter-server, 30 µs
    /// intra-server, 1 Gbit/s, no loss.
    pub fn lan() -> Self {
        NetConfig {
            intra_server: LatencyModel::local(),
            inter_server: LatencyModel::lan(),
            bandwidth_bps: 1_000_000_000,
            loss_probability: 0.0,
        }
    }

    /// The §5.8.1 latency-emulation setting: netem N(12 ms, 2 ms) between
    /// servers, on top of the baseline LAN characteristics.
    pub fn emulated_latency() -> Self {
        NetConfig::lan().with_inter_server(LatencyModel::netem_paper())
    }

    /// Replaces the inter-server latency model.
    pub fn with_inter_server(mut self, model: LatencyModel) -> Self {
        self.inter_server = model;
        self
    }

    /// Sets the link bandwidth in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = bps;
        self
    }

    /// Sets the message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_loss_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.loss_probability = p;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan()
    }
}

/// A region assignment plus a per-region-pair extra-latency matrix: the
/// regioned-WAN topology of the gray-failure experiments.
///
/// The map composes with — it does not replace — the configured
/// [`LatencyModel`]s: while active, [`RegionMap::extra`] is *added* to every
/// sampled link delay, so jitter distributions keep their shape and only the
/// deterministic cross-region propagation moves. Intra-region links (and
/// self-sends) gain nothing.
///
/// # Example
///
/// ```
/// use coconut_simnet::RegionMap;
/// use coconut_types::{NodeId, SimDuration};
///
/// // Four nodes round-robined over two regions, 80 ms inter-region RTT:
/// let map = RegionMap::round_robin(4, 2, SimDuration::from_millis(80));
/// assert_eq!(map.extra(NodeId(0), NodeId(2)), SimDuration::ZERO); // same region
/// assert_eq!(map.extra(NodeId(0), NodeId(1)), SimDuration::from_millis(40)); // one way
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMap {
    /// `assignment[node] = region`.
    assignment: Vec<u32>,
    n_regions: u32,
    /// Row-major `n_regions × n_regions` one-way extra latency in µs.
    extra_us: Vec<u64>,
}

impl RegionMap {
    /// Builds a map from an explicit node→region assignment and a one-way
    /// extra-latency matrix (`extra_us[a * n_regions + b]`, µs).
    ///
    /// # Panics
    ///
    /// Panics if `n_regions` is zero, any assignment is out of range, or the
    /// matrix is not `n_regions²` long.
    pub fn new(assignment: Vec<u32>, n_regions: u32, extra_us: Vec<u64>) -> Self {
        assert!(n_regions > 0, "a region map needs at least one region");
        assert!(
            assignment.iter().all(|&r| r < n_regions),
            "region assignment out of range"
        );
        assert_eq!(
            extra_us.len(),
            (n_regions * n_regions) as usize,
            "latency matrix must be n_regions x n_regions"
        );
        RegionMap {
            assignment,
            n_regions,
            extra_us,
        }
    }

    /// The common symmetric case: `n_nodes` assigned round-robin over
    /// `n_regions` regions, every cross-region link adding half the given
    /// RTT each way and intra-region links adding nothing.
    pub fn round_robin(n_nodes: u32, n_regions: u32, inter_region_rtt: SimDuration) -> Self {
        assert!(n_regions > 0, "a region map needs at least one region");
        let one_way = SimDuration::from_micros(inter_region_rtt.as_micros() / 2);
        let mut extra_us = vec![0u64; (n_regions * n_regions) as usize];
        for a in 0..n_regions {
            for b in 0..n_regions {
                if a != b {
                    extra_us[(a * n_regions + b) as usize] = one_way.as_micros();
                }
            }
        }
        RegionMap {
            assignment: (0..n_nodes).map(|n| n % n_regions).collect(),
            n_regions,
            extra_us,
        }
    }

    /// The region `node` lives in (nodes beyond the assignment wrap
    /// round-robin, so late joiners are still placed deterministically).
    pub fn region_of(&self, node: NodeId) -> u32 {
        if self.assignment.is_empty() {
            return 0;
        }
        self.assignment[node.0 as usize % self.assignment.len()]
    }

    /// One-way extra propagation delay from `src` to `dst`.
    pub fn extra(&self, src: NodeId, dst: NodeId) -> SimDuration {
        let (a, b) = (self.region_of(src), self.region_of(dst));
        SimDuration::from_micros(self.extra_us[(a * self.n_regions + b) as usize])
    }

    /// Number of regions.
    pub fn regions(&self) -> u32 {
        self.n_regions
    }
}

/// Counters kept by [`NetSim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages actually delivered (sent − dropped − partitioned).
    pub messages_delivered: u64,
    /// Messages dropped by the loss model.
    pub messages_dropped: u64,
    /// Messages suppressed by an active partition.
    pub messages_partitioned: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
}

/// A simulated message-passing network between blockchain nodes.
///
/// Combines the event queue ([`Sim`]), node placement ([`Topology`]), and
/// link characteristics ([`NetConfig`]). All randomness comes from one
/// seeded RNG, so runs are reproducible.
///
/// # Example
///
/// ```
/// use coconut_simnet::{NetConfig, NetSim, Topology};
/// use coconut_types::{NodeId, SimTime};
///
/// let mut net = NetSim::new(Topology::paper_baseline(), NetConfig::lan(), 1);
/// net.broadcast(NodeId(0), 256, |_dst| "hello");
/// let mut delivered = 0;
/// while net.pop_before(SimTime::MAX).is_some() {
///     delivered += 1;
/// }
/// assert_eq!(delivered, 3, "broadcast reaches the other three nodes");
/// ```
#[derive(Debug)]
pub struct NetSim<M> {
    sim: Sim<M>,
    topology: Topology,
    config: NetConfig,
    rng: SimRng,
    stats: NetStats,
    partitioned: HashSet<(NodeId, NodeId)>,
    /// Directional partitions: `(src, dst)` pairs whose `src → dst` traffic
    /// is suppressed while the reverse direction keeps flowing.
    asym_partitioned: HashSet<(NodeId, NodeId)>,
    /// Per-link flaky windows: unordered link → (drop probability, until).
    flaky: HashMap<(NodeId, NodeId), (f64, SimTime)>,
    /// Dedicated RNG stream for flaky-link draws, so arming a flaky window
    /// never perturbs the main stream's draw order (and therefore never
    /// shifts latency samples or baseline-loss decisions elsewhere).
    flaky_rng: SimRng,
    /// Stragglers: node → (stretch factor, until). While active, the node's
    /// timers and its messages (in both directions) take `factor ×` as long.
    slow: HashMap<NodeId, (f64, SimTime)>,
    /// Regioned-WAN latency overlay active until the given instant.
    region: Option<(RegionMap, SimTime)>,
    /// Elevated loss probability active until the given instant.
    loss_burst: Option<(f64, SimTime)>,
    /// Inter-server latency override active until the given instant.
    latency_spike: Option<(LatencyModel, SimTime)>,
}

impl<M> NetSim<M> {
    /// Creates a network over `topology` with the given `config` and RNG
    /// `seed`.
    pub fn new(topology: Topology, config: NetConfig, seed: u64) -> Self {
        NetSim {
            sim: Sim::new(),
            topology,
            config,
            rng: SimRng::seed_from_u64(seed),
            stats: NetStats::default(),
            partitioned: HashSet::new(),
            asym_partitioned: HashSet::new(),
            flaky: HashMap::new(),
            flaky_rng: SimRng::seed_from_u64(seed ^ 0xF1A6_F1A6_F1A6_F1A6),
            slow: HashMap::new(),
            region: None,
            loss_burst: None,
            latency_spike: None,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The node placement.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Network counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends `msg` of `bytes` payload size from `src` to `dst`.
    ///
    /// The message is subject to partition suppression, random loss, link
    /// latency, and transmission delay. Self-sends are delivered with
    /// loopback latency and are never lost.
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: usize, msg: M) {
        self.send_delayed(src, dst, SimDuration::ZERO, bytes, msg);
    }

    /// Like [`NetSim::send`] but with an additional sender-side delay before
    /// the message enters the link (e.g. CPU processing time before the
    /// reply is produced).
    pub fn send_delayed(
        &mut self,
        src: NodeId,
        dst: NodeId,
        extra: SimDuration,
        bytes: usize,
        msg: M,
    ) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if src != dst {
            if self.is_partitioned(src, dst) || self.asym_partitioned.contains(&(src, dst)) {
                self.stats.messages_partitioned += 1;
                return;
            }
            let p_loss = self.effective_loss_probability();
            if p_loss > 0.0 && self.rng.gen_f64() < p_loss {
                self.stats.messages_dropped += 1;
                return;
            }
            // Flaky-link draws come from a dedicated stream so arming a
            // window never shifts the main stream's draw order.
            if !self.flaky.is_empty() {
                if let Some(&(p, until)) = self.flaky.get(&ordered(src, dst)) {
                    if self.sim.now() < until && self.flaky_rng.gen_f64() < p {
                        self.stats.messages_dropped += 1;
                        return;
                    }
                }
            }
        }
        let mut delay = extra + self.link_delay(src, dst, bytes);
        let stretch = self.stretch(src).max(self.stretch(dst));
        if stretch > 1.0 {
            delay = delay.mul_f64(stretch);
        }
        self.stats.messages_delivered += 1;
        self.sim.schedule(delay, dst, msg);
    }

    /// Broadcasts to every node except `src`; `make_msg` builds the
    /// (possibly distinct) message per destination.
    pub fn broadcast<F>(&mut self, src: NodeId, bytes: usize, mut make_msg: F)
    where
        F: FnMut(NodeId) -> M,
    {
        for dst in 0..self.topology.node_count() {
            let dst = NodeId(dst);
            if dst != src {
                self.send(src, dst, bytes, make_msg(dst));
            }
        }
    }

    /// Broadcast with an additional sender-side delay (see
    /// [`NetSim::send_delayed`]).
    pub fn broadcast_delayed<F>(
        &mut self,
        src: NodeId,
        extra: SimDuration,
        bytes: usize,
        mut make_msg: F,
    ) where
        F: FnMut(NodeId) -> M,
    {
        for dst in 0..self.topology.node_count() {
            let dst = NodeId(dst);
            if dst != src {
                self.send_delayed(src, dst, extra, bytes, make_msg(dst));
            }
        }
    }

    /// Schedules a local timer at `dst` after `delay` (no network involved).
    ///
    /// A [`NetSim::slow_node`] window stretches the delay: a straggler's
    /// timers fire late, it does not stop. The stretch is decided at
    /// scheduling time (timers armed before the window opens fire on time).
    pub fn timer(&mut self, dst: NodeId, delay: SimDuration, msg: M) {
        let at = self.timer_due(dst, delay);
        self.sim.schedule_at(at, dst, msg);
    }

    /// Like [`NetSim::timer`], in `scope`: the timer leaves the queue
    /// unfired once [`NetSim::cancel_through`] reaches `scope`, and is
    /// dropped at once if its scope is already cancelled. It takes its
    /// place in the push order either way, so a timer that a protocol
    /// would ignore on arrival can be cancelled without moving any other
    /// event (DiemBFT scopes its pacemaker timers by round).
    pub fn timer_scoped(&mut self, dst: NodeId, delay: SimDuration, scope: u64, msg: M) {
        let at = self.timer_due(dst, delay);
        self.sim.schedule_at_scoped(at, scope, dst, msg);
    }

    /// Cancels every timer in a scope at or below `scope`; messages are
    /// never scoped.
    pub fn cancel_through(&mut self, scope: u64) {
        self.sim.cancel_through(scope);
    }

    /// The instant a [`NetSim::timer`] armed now at `dst` after `delay`
    /// would fire.
    pub fn timer_due(&self, dst: NodeId, delay: SimDuration) -> SimTime {
        let stretch = self.stretch(dst);
        let delay = if stretch > 1.0 {
            delay.mul_f64(stretch)
        } else {
            delay
        };
        self.sim.now() + delay
    }

    /// Schedules a local event at an absolute time. Under an active
    /// [`NetSim::slow_node`] window the *remaining* interval is stretched.
    pub fn timer_at(&mut self, dst: NodeId, at: SimTime, msg: M) {
        let stretch = self.stretch(dst);
        let at = if stretch > 1.0 && at > self.sim.now() {
            self.sim.now() + (at - self.sim.now()).mul_f64(stretch)
        } else {
            at
        };
        self.sim.schedule_at(at, dst, msg);
    }

    /// Pops the next due event strictly before `deadline`, advancing the
    /// clock (see [`Sim::pop_before`]).
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event<M>> {
        self.sim.pop_before(deadline)
    }

    /// Pops the next due event at or before `deadline`.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<Event<M>> {
        self.sim.pop_at_or_before(deadline)
    }

    /// Due time of the next event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.sim.next_event_time()
    }

    /// Advances the clock without processing (driver interleaving).
    pub fn advance_to(&mut self, t: SimTime) {
        self.sim.advance_to(t);
    }

    /// Number of in-flight events; cancelled timers are not counted.
    pub fn pending(&self) -> usize {
        self.sim.pending()
    }

    /// Every in-flight message and live timer, in no particular order.
    pub fn queued(&self) -> impl Iterator<Item = &M> {
        self.sim.queued()
    }

    /// Messages and timers queued so far, delivered or not
    /// ([`EventQueue::pushes`](crate::EventQueue::pushes)).
    pub fn pushes(&self) -> u64 {
        self.sim.pushes()
    }

    /// Cuts bidirectional connectivity between `a` and `b`.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.insert(ordered(a, b));
    }

    /// Set-based partition: isolates `set` from every node outside it.
    /// Links *within* the set (and within its complement) stay up.
    pub fn partition_isolate(&mut self, set: &[NodeId]) {
        let inside: HashSet<NodeId> = set.iter().copied().collect();
        for a in 0..self.topology.node_count() {
            let a = NodeId(a);
            if !inside.contains(&a) {
                continue;
            }
            for b in 0..self.topology.node_count() {
                let b = NodeId(b);
                if !inside.contains(&b) {
                    self.partitioned.insert(ordered(a, b));
                }
            }
        }
    }

    /// Directional partition: every `from → to` message is suppressed while
    /// `to → from` traffic keeps flowing (the classic gray failure of a
    /// half-open link or a broken NIC transmit queue).
    ///
    /// Directional and symmetric partitions compose as a union: a link is
    /// suppressed in a direction if *either* kind blocks it, and
    /// [`NetSim::heal`] / [`NetSim::heal_all`] clear both kinds, so a heal
    /// never leaves a half-open residue behind.
    pub fn partition_directional(&mut self, from: &[NodeId], to: &[NodeId]) {
        for &a in from {
            for &b in to {
                if a != b {
                    self.asym_partitioned.insert((a, b));
                }
            }
        }
    }

    /// `true` if `src → dst` traffic is currently suppressed in that
    /// direction only (symmetric partitions are reported by
    /// [`NetSim::is_partitioned`]).
    pub fn is_asym_partitioned(&self, src: NodeId, dst: NodeId) -> bool {
        self.asym_partitioned.contains(&(src, dst))
    }

    /// Arms a flaky window on the (bidirectional) link `a ↔ b`: until
    /// virtual time `until`, each message on the link is independently
    /// dropped with probability `p`, drawn from a dedicated seeded stream.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn flaky_link(&mut self, a: NodeId, b: NodeId, p: f64, until: SimTime) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.flaky.insert(ordered(a, b), (p, until));
    }

    /// Marks `node` as a straggler until virtual time `until`: its timers
    /// and every message it sends or receives take `factor ×` as long. The
    /// node keeps participating — gray failure, not a crash.
    ///
    /// # Panics
    ///
    /// Panics unless `factor >= 1.0`.
    pub fn slow_node(&mut self, node: NodeId, factor: f64, until: SimTime) {
        assert!(factor >= 1.0, "a slow-node factor must be >= 1");
        self.slow.insert(node, (factor, until));
    }

    /// Applies a regioned-WAN latency overlay until virtual time `until`:
    /// [`RegionMap::extra`] is added to every cross-region link delay on top
    /// of whatever latency model is in force.
    pub fn region_latency(&mut self, map: RegionMap, until: SimTime) {
        self.region = Some((map, until));
    }

    /// The active stretch factor for `node` (1.0 when it is healthy).
    pub fn stretch(&self, node: NodeId) -> f64 {
        match self.slow.get(&node) {
            Some(&(factor, until)) if self.sim.now() < until => factor,
            _ => 1.0,
        }
    }

    /// Removes every active partition at once — symmetric and directional —
    /// so a heal never leaves a half-open link behind.
    pub fn heal_all(&mut self) {
        self.partitioned.clear();
        self.asym_partitioned.clear();
    }

    /// Raises the loss probability to `p` until virtual time `until`
    /// (whichever of `p` and the configured baseline is larger applies).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn loss_burst(&mut self, p: f64, until: SimTime) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.loss_burst = Some((p, until));
    }

    /// Overrides the inter-server latency model until virtual time `until`.
    pub fn latency_spike(&mut self, model: LatencyModel, until: SimTime) {
        self.latency_spike = Some((model, until));
    }

    /// The loss probability in force right now (baseline or active burst).
    fn effective_loss_probability(&mut self) -> f64 {
        match self.loss_burst {
            Some((p, until)) if self.sim.now() < until => p.max(self.config.loss_probability),
            Some((_, until)) if self.sim.now() >= until => {
                self.loss_burst = None;
                self.config.loss_probability
            }
            _ => self.config.loss_probability,
        }
    }

    /// Restores connectivity between `a` and `b` in both directions,
    /// clearing symmetric and directional suppression alike.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.remove(&ordered(a, b));
        self.asym_partitioned.remove(&(a, b));
        self.asym_partitioned.remove(&(b, a));
    }

    /// `true` if a partition currently suppresses `a` ↔ `b` traffic.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned.contains(&ordered(a, b))
    }

    /// One-way delay for a message of `bytes` from `src` to `dst`:
    /// propagation (sampled from the link's latency model) plus
    /// transmission (bytes at the configured bandwidth).
    fn link_delay(&mut self, src: NodeId, dst: NodeId, bytes: usize) -> SimDuration {
        let model = if src == dst || self.topology.same_server(src, dst) {
            self.config.intra_server
        } else {
            match self.latency_spike {
                Some((spike, until)) if self.sim.now() < until => spike,
                _ => self.config.inter_server,
            }
        };
        let propagation = model.sample(&mut self.rng);
        let transmission_us =
            (bytes as u64 * 8).saturating_mul(1_000_000) / self.config.bandwidth_bps;
        let regional = match &self.region {
            Some((map, until)) if self.sim.now() < *until => map.extra(src, dst),
            _ => SimDuration::ZERO,
        };
        propagation + SimDuration::from_micros(transmission_us) + regional
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan_net() -> NetSim<u32> {
        NetSim::new(Topology::paper_baseline(), NetConfig::lan(), 9)
    }

    #[test]
    fn send_delivers_after_latency() {
        let mut net = lan_net();
        net.send(NodeId(0), NodeId(1), 100, 7);
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!(ev.dst, NodeId(1));
        assert_eq!(ev.msg, 7);
        // 200µs propagation + 100B*8/1Gbps ≈ 0.8µs transmission
        assert!(ev.at >= SimTime::from_micros(200));
        assert!(ev.at < SimTime::from_micros(300));
    }

    #[test]
    fn intra_server_is_faster_than_inter_server() {
        let topo = Topology::explicit(vec![0, 0, 1]);
        let mut net: NetSim<u32> = NetSim::new(topo, NetConfig::lan(), 1);
        net.send(NodeId(0), NodeId(1), 0, 1); // same server
        net.send(NodeId(0), NodeId(2), 0, 2); // cross server
        let first = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!(first.msg, 1, "loopback message arrives first");
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut net = lan_net();
        net.broadcast(NodeId(2), 10, |dst| dst.0);
        let mut dsts = Vec::new();
        while let Some(ev) = net.pop_before(SimTime::MAX) {
            dsts.push(ev.dst);
        }
        dsts.sort();
        assert_eq!(dsts, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(net.stats().messages_sent, 3);
        assert_eq!(net.stats().messages_delivered, 3);
    }

    #[test]
    fn partition_suppresses_and_heal_restores() {
        let mut net = lan_net();
        net.partition(NodeId(0), NodeId(1));
        assert!(
            net.is_partitioned(NodeId(1), NodeId(0)),
            "partitions are symmetric"
        );
        net.send(NodeId(0), NodeId(1), 10, 1);
        assert!(net.pop_before(SimTime::MAX).is_none());
        assert_eq!(net.stats().messages_partitioned, 1);

        net.heal(NodeId(1), NodeId(0));
        net.send(NodeId(0), NodeId(1), 10, 2);
        assert!(net.pop_before(SimTime::MAX).is_some());
    }

    #[test]
    fn loss_probability_drops_messages() {
        let cfg = NetConfig::lan().with_loss_probability(1.0);
        let mut net: NetSim<u32> = NetSim::new(Topology::paper_baseline(), cfg, 5);
        net.send(NodeId(0), NodeId(1), 10, 1);
        assert!(net.pop_before(SimTime::MAX).is_none());
        assert_eq!(net.stats().messages_dropped, 1);
    }

    #[test]
    fn self_send_is_never_lost() {
        let cfg = NetConfig::lan().with_loss_probability(1.0);
        let mut net: NetSim<u32> = NetSim::new(Topology::paper_baseline(), cfg, 5);
        net.send(NodeId(0), NodeId(0), 10, 1);
        assert!(net.pop_before(SimTime::MAX).is_some());
    }

    #[test]
    fn transmission_delay_scales_with_size() {
        let cfg = NetConfig::lan().with_bandwidth_bps(8_000_000); // 1 MB/s
        let mut net: NetSim<u32> = NetSim::new(Topology::paper_baseline(), cfg, 5);
        net.send(NodeId(0), NodeId(1), 1_000_000, 1); // 1 MB → 1 s transmission
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert!(ev.at >= SimTime::from_secs(1));
    }

    #[test]
    fn timers_fire_locally() {
        let mut net = lan_net();
        net.timer(NodeId(3), SimDuration::from_millis(10), 42);
        net.timer_at(NodeId(2), SimTime::from_millis(5), 41);
        let first = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!((first.dst, first.msg), (NodeId(2), 41));
        let second = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!((second.dst, second.msg), (NodeId(3), 42));
    }

    #[test]
    fn cancelled_timers_leave_and_keep_their_place() {
        let mut net = lan_net();
        net.slow_node(NodeId(1), 2.0, SimTime::from_secs(5));
        net.timer_scoped(NodeId(1), SimDuration::from_millis(10), 8, 1);
        net.timer_scoped(NodeId(2), SimDuration::from_millis(1), 7, 2);
        net.send(NodeId(0), NodeId(3), 8, 3);
        net.cancel_through(7);
        net.timer_scoped(NodeId(2), SimDuration::from_millis(1), 7, 4);
        assert_eq!((net.pending(), net.queued().count()), (2, 2));
        assert_eq!(net.pushes(), 4, "the dropped push is counted");
        assert_eq!(net.pop_before(SimTime::MAX).map(|ev| ev.msg), Some(3));
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!((ev.at, ev.msg), (SimTime::from_millis(20), 1));
        assert!(net.pop_before(SimTime::MAX).is_none());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut net: NetSim<u32> = NetSim::new(
                Topology::paper_baseline(),
                NetConfig::emulated_latency(),
                seed,
            );
            for i in 0..50 {
                net.send(NodeId(i % 4), NodeId((i + 1) % 4), 64, i);
            }
            let mut log = Vec::new();
            while let Some(ev) = net.pop_before(SimTime::MAX) {
                log.push((ev.at, ev.dst, ev.msg));
            }
            log
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn fractional_loss_is_seed_deterministic() {
        let run = |seed| {
            let cfg = NetConfig::lan().with_loss_probability(0.5);
            let mut net: NetSim<u32> = NetSim::new(Topology::paper_baseline(), cfg, seed);
            for i in 0..200u32 {
                net.send(NodeId(i % 4), NodeId((i + 1) % 4), 32, i);
            }
            let mut delivered = Vec::new();
            while let Some(ev) = net.pop_before(SimTime::MAX) {
                delivered.push(ev.msg);
            }
            (delivered, net.stats().messages_dropped)
        };
        let (a, dropped_a) = run(9);
        let (b, dropped_b) = run(9);
        assert_eq!(a, b, "the same seed must drop the same messages");
        assert_eq!(dropped_a, dropped_b);
        assert!(
            (50..150).contains(&dropped_a),
            "p = 0.5 should drop roughly half of 200: {dropped_a}"
        );
        assert_ne!(
            a,
            run(10).0,
            "a different seed draws a different loss pattern"
        );
    }

    #[test]
    fn config_builder_validation() {
        let c = NetConfig::lan()
            .with_bandwidth_bps(10)
            .with_loss_probability(0.5);
        assert_eq!(c.bandwidth_bps, 10);
        assert_eq!(c.loss_probability, 0.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_probability_rejected() {
        let _ = NetConfig::lan().with_loss_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = NetConfig::lan().with_bandwidth_bps(0);
    }

    #[test]
    fn asym_partition_drops_forward_and_delivers_reverse() {
        // Property sweep: under AsymmetricPartition{a→b}, every a→b send is
        // suppressed and every b→a send is delivered, whatever the payload
        // sizes and interleaving.
        let mut gen = coconut_types::SimRng::seed_from_u64(77);
        for case in 0..32 {
            let mut net: NetSim<u32> = lan_net();
            net.partition_directional(&[NodeId(0)], &[NodeId(1)]);
            let n = gen.gen_range_inclusive(1, 40);
            let mut forward = 0u64;
            let mut reverse = 0u64;
            for i in 0..n {
                let bytes = gen.gen_range_inclusive(0, 2048) as usize;
                if gen.gen_bool(0.5) {
                    net.send(NodeId(0), NodeId(1), bytes, i as u32);
                    forward += 1;
                } else {
                    net.send(NodeId(1), NodeId(0), bytes, i as u32);
                    reverse += 1;
                }
            }
            let mut delivered = 0u64;
            while let Some(ev) = net.pop_before(SimTime::MAX) {
                assert_eq!(ev.dst, NodeId(0), "case {case}: only b→a may deliver");
                delivered += 1;
            }
            assert_eq!(delivered, reverse, "case {case}");
            assert_eq!(net.stats().messages_partitioned, forward, "case {case}");
        }
    }

    #[test]
    fn asym_partition_is_directional_and_heals() {
        let mut net = lan_net();
        net.partition_directional(&[NodeId(0)], &[NodeId(1)]);
        assert!(net.is_asym_partitioned(NodeId(0), NodeId(1)));
        assert!(!net.is_asym_partitioned(NodeId(1), NodeId(0)));
        assert!(
            !net.is_partitioned(NodeId(0), NodeId(1)),
            "directional suppression is not a symmetric partition"
        );
        net.heal(NodeId(0), NodeId(1));
        net.send(NodeId(0), NodeId(1), 8, 1);
        assert!(
            net.pop_before(SimTime::MAX).is_some(),
            "heal clears the half-open link"
        );
    }

    #[test]
    fn symmetric_and_asym_partitions_union_and_heal_together() {
        let mut net = lan_net();
        net.partition(NodeId(0), NodeId(1));
        net.partition_directional(&[NodeId(0)], &[NodeId(1)]);
        // Both kinds block 0→1; the symmetric one also blocks 1→0.
        net.send(NodeId(0), NodeId(1), 8, 1);
        net.send(NodeId(1), NodeId(0), 8, 2);
        assert!(net.pop_before(SimTime::MAX).is_none());
        assert_eq!(net.stats().messages_partitioned, 2);
        // A global heal removes both kinds at once — no half-open residue.
        net.heal_all();
        net.send(NodeId(0), NodeId(1), 8, 3);
        net.send(NodeId(1), NodeId(0), 8, 4);
        let mut n = 0;
        while net.pop_before(SimTime::MAX).is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn flaky_link_drops_only_on_that_link_and_expires() {
        let mut net = lan_net();
        net.flaky_link(NodeId(0), NodeId(1), 1.0, SimTime::from_secs(1));
        net.send(NodeId(0), NodeId(1), 8, 1); // dropped (p = 1)
        net.send(NodeId(1), NodeId(0), 8, 2); // dropped (link is bidirectional)
        net.send(NodeId(2), NodeId(3), 8, 3); // other link unaffected
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!(ev.msg, 3);
        assert!(net.pop_before(SimTime::MAX).is_none());
        assert_eq!(net.stats().messages_dropped, 2);
        // After the window the link is healthy again.
        net.advance_to(SimTime::from_secs(2));
        net.send(NodeId(0), NodeId(1), 8, 4);
        assert!(net.pop_before(SimTime::MAX).is_some());
    }

    #[test]
    fn flaky_draws_never_perturb_the_main_stream() {
        // Delivery times of traffic on *other* links must be bit-identical
        // whether or not a flaky window is armed somewhere else: the flaky
        // stream is separate, so golden runs stay byte-stable.
        let run = |armed: bool| {
            let mut net: NetSim<u32> = lan_net();
            if armed {
                net.flaky_link(NodeId(0), NodeId(1), 0.9, SimTime::from_secs(60));
            }
            let mut log = Vec::new();
            for i in 0..100 {
                net.send(NodeId(2), NodeId(3), 64, i);
            }
            while let Some(ev) = net.pop_before(SimTime::MAX) {
                log.push((ev.at, ev.msg));
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn flaky_link_is_seed_deterministic() {
        let run = || {
            let mut net: NetSim<u32> = lan_net();
            net.flaky_link(NodeId(0), NodeId(1), 0.5, SimTime::from_secs(60));
            let mut got = Vec::new();
            for i in 0..200 {
                net.send(NodeId(0), NodeId(1), 8, i);
            }
            while let Some(ev) = net.pop_before(SimTime::MAX) {
                got.push(ev.msg);
            }
            (got, net.stats().messages_dropped)
        };
        let (a, dropped) = run();
        assert_eq!(run(), (a, dropped));
        assert!(
            (50..150).contains(&dropped),
            "p = 0.5 should drop roughly half: {dropped}"
        );
    }

    #[test]
    fn slow_node_stretches_timers_and_messages_then_recovers() {
        let mut net = lan_net();
        net.slow_node(NodeId(1), 10.0, SimTime::from_secs(5));
        // A healthy node's timer is untouched; the straggler's stretches.
        net.timer(NodeId(0), SimDuration::from_millis(10), 1);
        net.timer(NodeId(1), SimDuration::from_millis(10), 2);
        let first = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!((first.dst, first.msg), (NodeId(0), 1));
        assert_eq!(first.at, SimTime::from_millis(10));
        let second = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!((second.dst, second.msg), (NodeId(1), 2));
        assert_eq!(second.at, SimTime::from_millis(100), "10× stretch");
        // Messages to or from the straggler stretch too.
        net.send(NodeId(0), NodeId(1), 0, 3);
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert!(
            ev.at - second.at >= SimDuration::from_millis(2),
            "LAN latency (200 µs) stretched 10× = 2 ms: {:?}",
            ev.at - second.at
        );
        // After the window closes the node is healthy again.
        net.advance_to(SimTime::from_secs(6));
        assert_eq!(net.stretch(NodeId(1)), 1.0);
        net.timer(NodeId(1), SimDuration::from_millis(10), 4);
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!(ev.at, SimTime::from_secs(6) + SimDuration::from_millis(10));
    }

    #[test]
    fn slow_node_stretches_absolute_timers_by_remaining_interval() {
        let mut net = lan_net();
        net.advance_to(SimTime::from_secs(1));
        net.slow_node(NodeId(0), 3.0, SimTime::from_secs(60));
        // 500 ms remaining, stretched 3× → fires at 1 s + 1.5 s.
        net.timer_at(NodeId(0), SimTime::from_millis(1500), 1);
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert_eq!(ev.at, SimTime::from_millis(2500));
    }

    #[test]
    fn region_map_adds_cross_region_latency_until_expiry() {
        let map = RegionMap::round_robin(4, 2, SimDuration::from_millis(80));
        let mut net = lan_net();
        net.region_latency(map, SimTime::from_secs(1));
        // Nodes 0 and 2 share a region; 0 and 1 do not.
        net.send(NodeId(0), NodeId(2), 0, 1);
        let same = net.pop_before(SimTime::MAX).unwrap();
        assert!(same.at < SimTime::from_millis(5), "intra-region stays LAN");
        let before = net.now();
        net.send(NodeId(0), NodeId(1), 0, 2);
        let cross = net.pop_before(SimTime::MAX).unwrap();
        assert!(
            cross.at - before >= SimDuration::from_millis(40),
            "one-way inter-region extra is RTT/2"
        );
        // Past the window the overlay expires.
        net.advance_to(SimTime::from_secs(2));
        let before = net.now();
        net.send(NodeId(0), NodeId(1), 0, 3);
        let ev = net.pop_before(SimTime::MAX).unwrap();
        assert!(ev.at - before < SimDuration::from_millis(5));
    }

    #[test]
    fn region_map_explicit_matrix_is_asymmetric_capable() {
        // A deliberately asymmetric matrix: region 0 → 1 is slow, 1 → 0 fast.
        let map = RegionMap::new(vec![0, 1], 2, vec![0, 30_000, 5_000, 0]);
        assert_eq!(
            map.extra(NodeId(0), NodeId(1)),
            SimDuration::from_millis(30)
        );
        assert_eq!(map.extra(NodeId(1), NodeId(0)), SimDuration::from_millis(5));
        assert_eq!(map.regions(), 2);
        // Nodes beyond the assignment wrap deterministically.
        assert_eq!(map.region_of(NodeId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "n_regions x n_regions")]
    fn region_map_rejects_bad_matrix() {
        let _ = RegionMap::new(vec![0, 1], 2, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn slow_node_rejects_sub_unit_factor() {
        let mut net = lan_net();
        net.slow_node(NodeId(0), 0.5, SimTime::from_secs(1));
    }

    #[test]
    fn all_unpartitioned_lossless_messages_deliver() {
        // Randomized-but-seeded sweep (formerly a proptest): every message
        // on a lossless, unpartitioned LAN must be delivered.
        let mut gen = coconut_types::SimRng::seed_from_u64(1234);
        for case in 0..64 {
            let n = gen.gen_range_inclusive(1, 99) as usize;
            let sends: Vec<(u32, u32, usize)> = (0..n)
                .map(|_| {
                    (
                        gen.gen_range_inclusive(0, 3) as u32,
                        gen.gen_range_inclusive(0, 3) as u32,
                        gen.gen_range_inclusive(0, 4095) as usize,
                    )
                })
                .collect();
            let mut net: NetSim<usize> =
                NetSim::new(Topology::paper_baseline(), NetConfig::lan(), 11);
            for (i, &(src, dst, bytes)) in sends.iter().enumerate() {
                net.send(NodeId(src), NodeId(dst), bytes, i);
            }
            let mut count = 0;
            while net.pop_before(SimTime::MAX).is_some() {
                count += 1;
            }
            assert_eq!(count, sends.len(), "case {case}");
            assert_eq!(net.stats().messages_delivered, sends.len() as u64);
        }
    }
}
