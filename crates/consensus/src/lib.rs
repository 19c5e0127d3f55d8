//! Message-level consensus engines for the modelled blockchain systems.
//!
//! The paper's seven systems span five consensus families plus Corda's
//! notary-based finality (Table 2). This crate implements each of them as a
//! deterministic state machine over the [`coconut_simnet`] discrete-event
//! network:
//!
//! | Engine | Used by | Module |
//! |---|---|---|
//! | Raft (leader election + log replication) | Fabric ordering service | [`raft`] |
//! | Three-phase BFT (pre-prepare/prepare/commit) with the [`pbft::Pbft`] policy (global view change) and the [`ibft::Ibft`] policy (per-height round change, empty blocks) | Sawtooth, Quorum | [`three_phase`] |
//! | DiemBFT (chained rounds, quorum certificates, pacemaker) | Diem | [`diembft`] |
//! | Delegated Proof-of-Stake (witness schedule, slots) | BitShares | [`dpos`] |
//! | Notary uniqueness service (consumed-state checking) | Corda | [`notary`] |
//!
//! Engines share a vocabulary — [`Command`]s go in, [`CommittedBatch`]es come
//! out — and a per-node CPU queue model ([`CpuModel`]) so that the quadratic
//! message complexity of the BFT protocols translates into the scalability
//! degradation the paper measures in §5.8.2. Every engine but the notary is
//! a [`shell::Protocol`] on one [`shell::Shell`], which owns the builder,
//! membership, network, queues, join/sync and the fault surface.
//!
//! # Example
//!
//! ```
//! use coconut_consensus::{raft::RaftCluster, Command};
//! use coconut_types::{ClientId, SimTime, TxId};
//!
//! let mut raft = RaftCluster::builder(3).seed(7).build();
//! raft.run_until(SimTime::from_secs(2)); // elect a leader
//! raft.submit(Command::unit(TxId::new(ClientId(0), 1)));
//! let batches = raft.run_until(SimTime::from_secs(6));
//! assert_eq!(batches.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diembft;
pub mod dpos;
pub mod ibft;
pub mod liveness;
pub mod notary;
pub mod pbft;
pub mod raft;
pub mod safety;
pub mod shell;
pub mod three_phase;

pub use liveness::{LivenessConfig, LivenessMonitor, LivenessReport, LivenessVerdict};
pub use safety::{
    ByzantineFlags, ByzantineObservations, SafetyMonitor, SafetyReport, SafetyViolations, VotePhase,
};

use coconut_types::{NodeId, SimDuration, SimTime, TxId};

/// A client command handed to a consensus engine for ordering.
///
/// Commands carry just enough metadata for the engines to model batching and
/// transmission cost: the transaction id, its operation count (BitShares
/// operations / Sawtooth inner transactions), and its serialized size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// The transaction being ordered.
    pub tx: TxId,
    /// Operations carried (≥ 1).
    pub ops: u32,
    /// Serialized size in bytes.
    pub bytes: u32,
}

impl Command {
    /// A single-operation command with a default envelope size.
    pub fn unit(tx: TxId) -> Self {
        Command {
            tx,
            ops: 1,
            bytes: 96,
        }
    }

    /// Creates a command with explicit operation count and size.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn new(tx: TxId, ops: u32, bytes: u32) -> Self {
        assert!(ops > 0, "a command carries at least one operation");
        Command { tx, ops, bytes }
    }
}

/// A batch of commands finalized by consensus — the engine-level analogue of
/// a block body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedBatch {
    /// Commands in commit order.
    pub commands: Vec<Command>,
    /// The node that proposed the batch (leader / primary / witness).
    pub proposer: NodeId,
    /// Consensus round / height / slot the batch committed in.
    pub round: u64,
    /// Virtual time at which the batch was committed by a quorum.
    pub committed_at: SimTime,
}

impl CommittedBatch {
    /// Total operations across the batch's commands.
    pub fn op_count(&self) -> u64 {
        self.commands.iter().map(|c| c.ops as u64).sum()
    }
}

/// Batch-formation policy: cut a batch when `max_commands` accumulate or
/// when `max_wait` elapses since the first pending command, whichever comes
/// first.
///
/// This is Fabric's `MaxMessageCount`/`BatchTimeout` pair; the other systems
/// use one of the two dimensions (Diem: `max_block_size`; Quorum/Sawtooth/
/// BitShares: a pure time trigger with an upper size bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commands per batch.
    pub max_commands: usize,
    /// Maximum time the oldest pending command waits before a cut.
    pub max_wait: SimDuration,
}

impl BatchConfig {
    /// Creates a batch policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_commands` is zero.
    pub fn new(max_commands: usize, max_wait: SimDuration) -> Self {
        assert!(max_commands > 0, "batches must allow at least one command");
        BatchConfig {
            max_commands,
            max_wait,
        }
    }
}

impl Default for BatchConfig {
    /// Fabric's defaults: 500 messages or 2 s, whichever first.
    fn default() -> Self {
        BatchConfig::new(500, SimDuration::from_secs(2))
    }
}

/// Per-node CPU queue: serializes message processing on each node so that
/// message complexity shows up as throughput loss at scale.
///
/// When a message arrives at `t`, its processing *starts* at
/// `max(t, node_free)` and completes `cost` later; the node is busy until
/// then. This is what makes an O(n²) BFT protocol degrade as n grows, as
/// the paper observes for Diem, Quorum and Sawtooth in §5.8.2.
#[derive(Debug, Clone)]
pub struct CpuModel {
    free_at: Vec<SimTime>,
}

impl CpuModel {
    /// A CPU model for `nodes` nodes, all initially idle.
    pub fn new(nodes: u32) -> Self {
        CpuModel {
            free_at: vec![SimTime::ZERO; nodes as usize],
        }
    }

    /// Reserves `cost` of CPU on `node` for work arriving at `arrival`;
    /// returns the completion time.
    pub fn process(&mut self, node: NodeId, arrival: SimTime, cost: SimDuration) -> SimTime {
        let start = arrival.max(self.free_at[node.0 as usize]);
        let done = start + cost;
        self.free_at[node.0 as usize] = done;
        done
    }

    /// The time at which `node` next becomes idle.
    pub fn free_at(&self, node: NodeId) -> SimTime {
        self.free_at[node.0 as usize]
    }

    /// Current backlog of `node` relative to `now`.
    pub fn backlog(&self, node: NodeId, now: SimTime) -> SimDuration {
        self.free_at[node.0 as usize].saturating_since(now)
    }
}

/// Size of a Byzantine quorum (2f + 1) for `n = 3f + 1` nodes; for other
/// `n` the largest tolerated `f = (n - 1) / 3` is used.
///
/// # Example
///
/// ```
/// use coconut_consensus::bft_quorum;
///
/// assert_eq!(bft_quorum(4), 3);
/// assert_eq!(bft_quorum(7), 5);
/// assert_eq!(bft_quorum(32), 21);
/// ```
pub fn bft_quorum(n: u32) -> u32 {
    let f = (n.saturating_sub(1)) / 3;
    2 * f + 1
}

/// Size of a crash-fault majority quorum.
///
/// # Example
///
/// ```
/// use coconut_consensus::majority_quorum;
///
/// assert_eq!(majority_quorum(3), 2);
/// assert_eq!(majority_quorum(4), 3);
/// assert_eq!(majority_quorum(5), 3);
/// ```
pub fn majority_quorum(n: u32) -> u32 {
    n / 2 + 1
}

/// Epoch-versioned membership of a consensus cluster over a fixed universe
/// of provisioned node ids (`baseline` initially active members plus
/// `standby` pre-provisioned joiners).
///
/// The provisioned universe is fixed at construction — topology, CPU
/// queues and network links exist for every provisioned node — while the
/// *active* subset changes at runtime through [`Membership::join`] /
/// [`Membership::leave`]. Every membership change advances the
/// configuration epoch, and `n`, `f` and quorum sizes are recomputed from
/// the active count; votes tagged with a superseded epoch are rejected by
/// the engines.
///
/// # Example
///
/// ```
/// use coconut_consensus::{bft_quorum, Membership};
/// use coconut_types::NodeId;
///
/// let mut m = Membership::new(4, 1);
/// assert_eq!((m.active_count(), m.epoch()), (4, 0));
/// assert!(m.join(NodeId(4)));
/// assert_eq!((m.active_count(), m.epoch()), (5, 1));
/// assert_eq!(bft_quorum(m.active_count()), 3);
/// assert!(m.leave(NodeId(0)));
/// assert_eq!((m.active_count(), m.epoch()), (4, 2));
/// assert_eq!(m.select(0), NodeId(1), "selection skips departed nodes");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    active: Vec<bool>,
    /// How many of `active` are set, kept in step by `join` and `leave`.
    count: u32,
    epoch: u64,
}

impl Membership {
    /// A membership of `baseline` active members (`0..baseline`) plus
    /// `standby` inactive pre-provisioned joiners
    /// (`baseline..baseline + standby`), at epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is zero.
    pub fn new(baseline: u32, standby: u32) -> Self {
        assert!(baseline > 0, "membership needs at least one active node");
        let mut active = vec![true; baseline as usize];
        active.resize((baseline + standby) as usize, false);
        Membership {
            active,
            count: baseline,
            epoch: 0,
        }
    }

    /// Total provisioned node ids (active or not).
    pub fn provisioned(&self) -> u32 {
        self.active.len() as u32
    }

    /// Current active-member count — the `n` quorum arithmetic runs on.
    pub fn active_count(&self) -> u32 {
        self.count
    }

    /// `true` when `node` is provisioned and currently active.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// The current configuration epoch (0 = genesis membership; each join
    /// or leave advances it by one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Activates a provisioned standby node and advances the epoch.
    /// Returns `false` (no epoch change) when `node` is unprovisioned or
    /// already active.
    pub fn join(&mut self, node: NodeId) -> bool {
        match self.active.get_mut(node.0 as usize) {
            Some(a) if !*a => {
                *a = true;
                self.count += 1;
                self.epoch += 1;
                true
            }
            _ => false,
        }
    }

    /// Deactivates an active node and advances the epoch. Returns `false`
    /// (no epoch change) when `node` is not active or is the last active
    /// member — an empty membership cannot run consensus.
    pub fn leave(&mut self, node: NodeId) -> bool {
        if !self.is_active(node) || self.count <= 1 {
            return false;
        }
        self.active[node.0 as usize] = false;
        self.count -= 1;
        self.epoch += 1;
        true
    }

    /// The active members in ascending id order.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Deterministic rotation over the active set: the `index mod n`-th
    /// active member in id order. With the genesis membership `0..n` fully
    /// active this reduces to `NodeId(index % n)`, so engines that adopt it
    /// keep their pre-churn leader schedules bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if no node is active (construction and [`Membership::leave`]
    /// make that unreachable).
    pub fn select(&self, index: u64) -> NodeId {
        let k = (index % u64::from(self.count)) as usize;
        let (id, _) = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .nth(k)
            .expect("the active count matches the active flags");
        NodeId(id as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::ClientId;

    #[test]
    fn command_constructors() {
        let tx = TxId::new(ClientId(0), 1);
        let c = Command::unit(tx);
        assert_eq!((c.ops, c.bytes), (1, 96));
        let c2 = Command::new(tx, 100, 9_600);
        assert_eq!(c2.ops, 100);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn zero_ops_rejected() {
        let _ = Command::new(TxId::new(ClientId(0), 1), 0, 10);
    }

    #[test]
    fn batch_aggregates() {
        let tx = |s| TxId::new(ClientId(0), s);
        let b = CommittedBatch {
            commands: vec![Command::new(tx(1), 3, 100), Command::new(tx(2), 2, 50)],
            proposer: NodeId(0),
            round: 1,
            committed_at: SimTime::ZERO,
        };
        assert_eq!(b.op_count(), 5);
    }

    #[test]
    fn quorums() {
        assert_eq!(bft_quorum(1), 1);
        assert_eq!(bft_quorum(4), 3);
        assert_eq!(bft_quorum(8), 5);
        assert_eq!(bft_quorum(16), 11);
        assert_eq!(majority_quorum(1), 1);
        assert_eq!(majority_quorum(2), 2);
        assert_eq!(majority_quorum(7), 4);
    }

    /// Exhaustive sweep of the quorum arithmetic: for every n the quorum is
    /// 2f+1 with f = ⌊(n-1)/3⌋, it stays reachable with f nodes down, and —
    /// on aligned n = 3f+1 — f+1 failures block it and any two quorums
    /// intersect in ≥ f+1 nodes (the property safety rests on).
    #[test]
    fn bft_quorum_bounds_hold_for_every_n() {
        for n in 1..=1024u32 {
            let f = (n - 1) / 3;
            let q = bft_quorum(n);
            assert_eq!(q, 2 * f + 1, "n={n}");
            assert!(q <= n, "a quorum must be formable from n nodes (n={n})");
            assert!(n - f >= q, "f crashes must still leave a quorum (n={n})");
            if n == 3 * f + 1 {
                assert!(n - (f + 1) < q, "beyond f, no quorum forms (n={n})");
                assert!(2 * q > n + f, "quorum intersection ≥ f+1 (n={n})");
            } else {
                // Non-aligned n: f is rounded down, so the cluster carries
                // 1–2 spare nodes beyond 3f+1. The spares only widen the
                // margins above; they never earn extra fault tolerance
                // (f stays ⌊(n-1)/3⌋).
                assert!(n > 3 * f + 1, "n={n}");
                assert!(n - 3 * f - 1 <= 2, "n={n}");
            }
        }
    }

    /// The degenerate clusters n ≤ 3 all have f = 0 and a "quorum" of one:
    /// correctness then rests entirely on the no-faulty-node assumption,
    /// and for n = 2, 3 two quorums need not even intersect.
    #[test]
    fn bft_quorum_degenerate_small_clusters() {
        assert_eq!(bft_quorum(1), 1);
        assert_eq!(bft_quorum(2), 1);
        assert_eq!(bft_quorum(3), 1);
        // n = 3, f = 0: one crash (beyond f) still leaves 2 ≥ q = 1 nodes,
        // so the beyond-f liveness bound genuinely does not apply here...
        assert!(2 >= bft_quorum(3), "n=3: two survivors still reach q");
        // ...and two one-node quorums can be disjoint (2q < n + f + 1).
        assert!(2 * bft_quorum(3) < 3 + 1);
    }

    /// Membership churn property: walking a cluster up from 1 active node
    /// to `baseline + standby` and back down, `f` and `q` are recomputed
    /// from the *active* count at every epoch — for both quorum families —
    /// and the epoch advances exactly once per membership change.
    #[test]
    fn quorums_recompute_across_membership_epochs() {
        for baseline in 1..=16u32 {
            for standby in 0..=8u32 {
                let mut m = Membership::new(baseline, standby);
                let mut expected_epoch = 0u64;
                // Grow: admit every standby in id order.
                for j in 0..standby {
                    assert!(m.join(NodeId(baseline + j)));
                    expected_epoch += 1;
                    let n = baseline + j + 1;
                    assert_eq!(m.active_count(), n);
                    assert_eq!(m.epoch(), expected_epoch);
                    let f = (n - 1) / 3;
                    assert_eq!(bft_quorum(n), 2 * f + 1, "grow to n={n}");
                    assert!(n - f >= bft_quorum(n), "f crashes leave a quorum");
                    assert_eq!(majority_quorum(n), n / 2 + 1);
                    assert!(2 * majority_quorum(n) > n);
                }
                // Shrink back to a single node, leaving highest id first.
                let full = baseline + standby;
                for gone in 1..full {
                    assert!(m.leave(NodeId(full - gone)));
                    expected_epoch += 1;
                    let n = full - gone;
                    assert_eq!(m.active_count(), n);
                    assert_eq!(m.epoch(), expected_epoch);
                    let f = (n - 1) / 3;
                    assert_eq!(bft_quorum(n), 2 * f + 1, "shrink to n={n}");
                    assert_eq!(majority_quorum(n), n / 2 + 1);
                }
                // The last member may never leave: n = 0 has no quorum.
                assert!(!m.leave(NodeId(0)));
                assert_eq!(m.active_count(), 1);
                assert_eq!(m.epoch(), expected_epoch);
            }
        }
    }

    /// Membership bookkeeping: joins/leaves are idempotent-rejecting, the
    /// provisioned universe never changes, and rotation reduces to plain
    /// modulo order on the genesis membership.
    #[test]
    fn membership_join_leave_semantics() {
        let mut m = Membership::new(4, 2);
        assert_eq!(m.provisioned(), 6);
        assert_eq!(m.active_nodes(), (0..4).map(NodeId).collect::<Vec<_>>());
        for i in 0..40u64 {
            assert_eq!(m.select(i), NodeId((i % 4) as u32), "genesis = modulo");
        }
        assert!(!m.join(NodeId(0)), "already active");
        assert!(!m.join(NodeId(6)), "unprovisioned");
        assert!(!m.leave(NodeId(5)), "not active");
        assert_eq!(m.epoch(), 0, "rejected changes keep the epoch");
        assert!(m.join(NodeId(5)));
        assert!(m.leave(NodeId(1)));
        assert_eq!(m.provisioned(), 6, "universe is fixed");
        assert_eq!(
            m.active_nodes(),
            vec![NodeId(0), NodeId(2), NodeId(3), NodeId(5)]
        );
        // Rotation skips the departed node and folds in the joiner.
        assert_eq!(m.select(1), NodeId(2));
        assert_eq!(m.select(3), NodeId(5));
        assert_eq!(m.select(7), NodeId(5));
    }

    /// `select` without its `Vec`: over a seeded walk of joins and leaves
    /// (node 0 leaving and standby nodes admitted among them) it always
    /// picks `active_nodes()[i % n]`.
    #[test]
    fn select_matches_the_active_list_through_churn() {
        let mut rng = coconut_types::SimRng::seed_from_u64(17);
        let mut m = Membership::new(5, 3);
        let check = |m: &Membership| {
            let nodes = m.active_nodes();
            assert_eq!(m.active_count() as usize, nodes.len());
            for i in 0..64u64 {
                assert_eq!(m.select(i), nodes[(i % nodes.len() as u64) as usize]);
            }
        };
        check(&m);
        assert!(m.leave(NodeId(0)));
        check(&m);
        assert!(m.join(NodeId(6)));
        check(&m);
        let mut changes = 0;
        for _ in 0..200 {
            let node = NodeId(rng.gen_range_inclusive(0, 7) as u32);
            let changed = if rng.gen_range_inclusive(0, 1) == 0 {
                m.join(node)
            } else {
                m.leave(node)
            };
            changes += u64::from(changed);
            check(&m);
        }
        assert_eq!(m.epoch(), 2 + changes);
        assert!(changes > 50, "the walk must churn: {changes}");
    }

    /// Majority quorums: any two always intersect, for every n.
    #[test]
    fn majority_quorum_always_intersects() {
        for n in 1..=1024u32 {
            let q = majority_quorum(n);
            assert!(q <= n, "n={n}");
            assert!(2 * q > n, "two majorities must share a node (n={n})");
        }
    }

    #[test]
    fn cpu_model_serializes_work() {
        let mut cpu = CpuModel::new(2);
        let n0 = NodeId(0);
        let t0 = SimTime::from_millis(10);
        let cost = SimDuration::from_millis(5);
        let first = cpu.process(n0, t0, cost);
        assert_eq!(first, SimTime::from_millis(15));
        // Second arrival during the first job queues behind it:
        let second = cpu.process(n0, SimTime::from_millis(12), cost);
        assert_eq!(second, SimTime::from_millis(20));
        // Other nodes are unaffected:
        assert_eq!(cpu.free_at(NodeId(1)), SimTime::ZERO);
        assert_eq!(
            cpu.backlog(n0, SimTime::from_millis(10)),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn cpu_idle_gap_resets_start_time() {
        let mut cpu = CpuModel::new(1);
        cpu.process(
            NodeId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
        );
        let done = cpu.process(
            NodeId(0),
            SimTime::from_secs(10),
            SimDuration::from_millis(1),
        );
        assert_eq!(done, SimTime::from_secs(10) + SimDuration::from_millis(1));
    }

    #[test]
    fn batch_config_default_is_fabric() {
        let c = BatchConfig::default();
        assert_eq!(c.max_commands, 500);
        assert_eq!(c.max_wait, SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "at least one command")]
    fn zero_batch_size_rejected() {
        let _ = BatchConfig::new(0, SimDuration::ZERO);
    }
}
