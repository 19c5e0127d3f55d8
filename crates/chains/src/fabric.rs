//! Hyperledger Fabric model: execute-order-validate over a Raft ordering
//! service.
//!
//! Pipeline (matching Fabric 2.2.1 as benchmarked in the paper):
//!
//! 1. **Endorse** — the client's peer simulates the transaction against its
//!    world state, producing a read/write set ([`coconut_iel::simulate`]).
//! 2. **Order** — the endorsed transaction goes to the three-orderer Raft
//!    cluster ([`coconut_consensus::raft`]); blocks are cut at
//!    `MaxMessageCount` transactions or the batch timeout.
//! 3. **Validate & commit** — every peer receives the block, MVCC-validates
//!    each transaction's read set, applies valid writes, and appends the
//!    block. *Invalid transactions are appended too* and their block events
//!    still reach the client — the paper explicitly counts them (§5.4).
//!
//! Anomalies reproduced:
//! * under overload the peers' validation backlog grows and late block
//!   events are dropped, losing transactions from the client's view
//!   (Table 14: 408,749 of 480,000 received at RL = 1600);
//! * at 16 or more peers the block-event delivery to clients breaks
//!   entirely — nodes and orderers keep finalizing, but "the clients do not
//!   receive any confirmation" (§5.8.2).

use std::collections::HashMap;

use coconut_consensus::raft::{Raft, RaftCluster};
use coconut_consensus::{BatchConfig, Command, CommittedBatch, CpuModel};
use coconut_iel::{simulate, validate_and_apply, RwSet};
use coconut_simnet::{EventQueue, NetConfig};
use coconut_types::{
    tx::FailReason, ClientTx, NodeId, SeedDeriver, SimDuration, SimTime, TxId, TxOutcome,
};

use crate::chain::{Chain, Model};
use crate::runtime::{command_for, ChainRuntime, PoolLimits, Stage};
use crate::system::SubmitOutcome;
use crate::util::WorkerPool;

/// Raft orderers (the paper: 3, on servers 1–3).
const ORDERERS: u32 = 3;
/// `BatchTimeout`: maximum wait before a partial block is cut.
const BATCH_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// CPU cost of endorsing one operation at a peer.
const ENDORSE_COST: SimDuration = SimDuration::from_micros(550);
/// CPU cost of validating one transaction at each peer.
const VALIDATE_COST: SimDuration = SimDuration::from_micros(600);
/// Block events whose peer-side validation lag exceeds this are dropped
/// before reaching the client (overload loss).
const EVENT_DROP_BACKLOG: SimDuration = SimDuration::from_secs(8);
/// Peer count at which the client event service breaks (§5.8.2 observes
/// 16).
const EVENT_BREAK_AT: u32 = 16;
/// Concurrent endorsement (gRPC) slots per peer. Each endorsement holds a
/// slot for its CPU time *plus* the response round-trip, so added network
/// latency throttles endorsement throughput — the §5.8.1 finding that
/// Fabric loses 33–40% under netem.
const ENDORSE_WORKERS: u32 = 6;

/// Configuration of the Fabric deployment.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of peers (the paper's baseline: 4, one per server).
    pub peers: u32,
    /// Pre-provisioned standby orderers (ids after the baseline) that
    /// start outside the Raft voter set and can be admitted at runtime via
    /// [`crate::system::BlockchainSystem::join_node`].
    pub standby: u32,
    /// `MaxMessageCount`: transactions per block before a cut.
    pub max_message_count: usize,
    /// Network characteristics (set [`NetConfig::emulated_latency`] for the
    /// §5.8.1 experiments).
    pub net: NetConfig,
    /// Bounded-pool parameters: the capacity bounds the endorsed-but-
    /// uncommitted in-flight set; at capacity submissions get `Busy`
    /// backpressure instead of piling further onto the orderer.
    pub pool: PoolLimits,
}

impl Default for FabricConfig {
    /// The paper's baseline: 4 peers, 3 orderers, Fabric's default block
    /// cutting (500 messages / 2 s) on a LAN.
    fn default() -> Self {
        FabricConfig {
            peers: 4,
            standby: 0,
            max_message_count: 500,
            net: NetConfig::lan(),
            pool: PoolLimits::bounded(100_000),
        }
    }
}

/// A pending transaction: endorsed, waiting to enter the orderer.
#[derive(Debug)]
struct EndorsedTx {
    command: Command,
}

/// Bookkeeping for a transaction between endorsement and validation.
#[derive(Debug)]
struct InFlight {
    rwset: RwSet,
    ops: u32,
    /// When endorsement completed (the ordering stage starts here).
    endorsed_at: SimTime,
}

/// The modelled Fabric network (see module docs).
pub type Fabric = Chain<FabricModel>;

/// Fabric's own state in its [`Chain`].
#[derive(Debug)]
pub struct FabricModel {
    config: FabricConfig,
    /// Orderers currently in the Raft voter set (joins/leaves reconcile
    /// against this; peer-side replication width is a separate role and
    /// does not move with orderer churn).
    orderer_members: u32,
    peer_cpu: CpuModel,
    endorse_pool: Vec<WorkerPool>,
    in_flight: HashMap<TxId, InFlight>,
    /// Endorsement completions waiting to be injected into the orderer.
    injections: EventQueue<EndorsedTx>,
    valid_txs: u64,
    invalid_txs: u64,
}

impl Fabric {
    /// Builds a Fabric deployment from `config` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.peers` is zero.
    pub fn new(config: FabricConfig, seed: u64) -> Self {
        assert!(config.peers > 0, "need at least one peer");
        let seeds = SeedDeriver::new(seed);
        let raft = RaftCluster::builder(ORDERERS)
            .standby(config.standby)
            .seed(seeds.seed("orderers", 0))
            .net(config.net.clone())
            .batch(BatchConfig::new(config.max_message_count, BATCH_TIMEOUT))
            .build();
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.peers);
        rt.set_pool_limits(config.pool);
        // The in-flight cap guards the endorsement pipeline, so generic
        // sheds book to `Execution`.
        rt.probe_mut().set_queue_stage(Stage::Execution);
        let peers = config.peers;
        let m = FabricModel {
            orderer_members: ORDERERS,
            peer_cpu: CpuModel::new(peers),
            endorse_pool: (0..peers)
                .map(|_| WorkerPool::new(ENDORSE_WORKERS))
                .collect(),
            in_flight: HashMap::new(),
            injections: EventQueue::new(),
            config,
            valid_txs: 0,
            invalid_txs: 0,
        };
        Chain::from_parts(rt, raft, peers, m)
    }

    /// Transactions whose write sets survived MVCC validation.
    pub fn valid_txs(&self) -> u64 {
        self.m.valid_txs
    }

    /// Transactions appended to the chain but invalidated by MVCC.
    pub fn invalid_txs(&self) -> u64 {
        self.m.invalid_txs
    }

    fn process_batches(&mut self, batches: Vec<CommittedBatch>) {
        let events_broken = self.m.config.peers >= EVENT_BREAK_AT;
        for batch in batches {
            let tb = batch.committed_at;
            let block = self.rt.append_block(
                batch.proposer,
                tb,
                batch.commands.iter().map(|c| c.tx),
                None,
            );
            // Every peer receives and validates the whole block.
            let validation = VALIDATE_COST * batch.commands.len() as u64;
            let persist = self.rt.replicate(&mut self.m.peer_cpu, tb, validation);
            let lag = persist - tb;
            let events_dropped = lag > EVENT_DROP_BACKLOG;
            for cmd in &batch.commands {
                let Some(fl) = self.m.in_flight.remove(&cmd.tx) else {
                    continue;
                };
                // Stage boundaries: ordering spans endorsement completion
                // → batch cut, commit is block validation on every peer.
                {
                    let probe = self.rt.probe_mut();
                    probe.span(Stage::Consensus, cmd.tx, fl.endorsed_at, tb);
                    probe.span(Stage::Commit, cmd.tx, tb, persist);
                }
                // MVCC validation in commit order; invalid txs stay on the
                // chain (and in the client's received count) but do not
                // touch the world state.
                if validate_and_apply(&fl.rwset, &mut self.state) {
                    self.m.valid_txs += 1;
                } else {
                    self.m.invalid_txs += 1;
                }
                if events_broken || events_dropped {
                    // The client never learns: shed at the notify stage
                    // (broken event service / dropped backlog).
                    self.rt.probe_mut().shed(Stage::Notify, 1);
                    continue;
                }
                let event_at = persist + self.rt.hop();
                self.rt
                    .probe_mut()
                    .span(Stage::Notify, cmd.tx, persist, event_at);
                self.rt.emit_committed(cmd.tx, block, event_at, fl.ops);
            }
        }
    }
}

impl Model for FabricModel {
    type Protocol = Raft;
    const NAME: &'static str = "Fabric";

    fn submit(c: &mut Fabric, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        // The in-flight (endorsed, uncommitted) set is Fabric's pending
        // store; at capacity the peer sheds with backpressure before any
        // endorsement work is spent.
        if c.m.in_flight.len() >= c.rt.pool_limits().capacity {
            c.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
            return c.rt.busy();
        }
        c.rt.accept();
        // Endorsement at the client's peer: the simulation consumes peer
        // CPU (shared with block validation), and the gRPC slot stays held
        // from request arrival through the response round-trip — so added
        // network latency throttles endorsement throughput (§5.8.1).
        let peer = NodeId(tx.id().client().0 % c.m.config.peers);
        let arrive = now + c.rt.hop();
        let cpu = ENDORSE_COST * tx.op_count() as u64;
        let cpu_done = c.m.peer_cpu.process(peer, arrive, cpu);
        // The slot is held for the endorsement service time plus the
        // request/response legs (not the CPU queueing delay, which gRPC
        // concurrency hides).
        let hold = cpu + c.rt.hop() + c.rt.hop();
        let done = c.m.endorse_pool[peer.0 as usize]
            .process(arrive, hold)
            .max(cpu_done);
        // Stage boundaries: ingress is the client → peer leg, execution
        // is the endorsement sojourn (gRPC slot wait + chaincode CPU).
        {
            let probe = c.rt.probe_mut();
            probe.span(Stage::Ingress, tx.id(), now, arrive);
            probe.span(Stage::Execution, tx.id(), arrive, done);
        }
        // Simulate against the committed state as of submission; conflicts
        // appear when the state moves before validation.
        let payload = &tx.payloads()[0];
        let sim = match simulate(payload, &c.state) {
            Ok(sim) => sim,
            Err(_) => {
                // Endorsement failure: the client learns immediately after
                // the endorsement round-trip and the tx never reaches the
                // orderer. (Rare in the paper's workloads.)
                let event_at = done + c.rt.hop();
                c.rt.probe_mut()
                    .span(Stage::Notify, tx.id(), done, event_at);
                c.rt.emit_failed(tx.id(), FailReason::ExecutionError, event_at);
                return SubmitOutcome::Accepted;
            }
        };
        c.m.in_flight.insert(
            tx.id(),
            InFlight {
                rwset: sim.rwset,
                ops: tx.op_count() as u32,
                endorsed_at: done,
            },
        );
        let command = command_for(&tx);
        let inject_at = done + c.rt.hop();
        c.m.injections.push(inject_at, EndorsedTx { command });
        SubmitOutcome::Accepted
    }

    fn run_until(c: &mut Fabric, deadline: SimTime) -> Vec<TxOutcome> {
        loop {
            match c.m.injections.peek_time() {
                Some(t) if t <= deadline => {
                    let (at, endorsed) = c.m.injections.pop().expect("peeked");
                    let batches = c.engine.run_until(at);
                    c.process_batches(batches);
                    c.engine.submit(endorsed.command);
                }
                _ => break,
            }
        }
        let batches = c.engine.run_until(deadline);
        c.process_batches(batches);
        let active = c.engine.active_count();
        while c.m.orderer_members < active {
            c.rt.note_join();
            c.m.orderer_members += 1;
        }
        while c.m.orderer_members > active {
            c.rt.note_leave();
            c.m.orderer_members -= 1;
        }
        c.rt.drain(deadline)
    }

    fn conflicts(c: &Fabric) -> u64 {
        c.m.invalid_txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockchainSystem;
    use coconut_types::{AccountId, ClientId, Payload, ThreadId};

    fn tx(seq: u64, payload: Payload) -> ClientTx {
        ClientTx::single(
            TxId::new(ClientId(0), seq),
            ThreadId(0),
            payload,
            SimTime::ZERO,
        )
    }

    fn warmed(seed: u64) -> Fabric {
        let mut f = Fabric::new(FabricConfig::default(), seed);
        // Let the orderers elect a leader before traffic arrives.
        f.run_until(SimTime::from_secs(2));
        f
    }

    #[test]
    fn commits_a_do_nothing_tx() {
        let mut f = warmed(1);
        let now = SimTime::from_secs(2);
        f.submit(now, tx(1, Payload::DoNothing));
        let outcomes = f.run_until(SimTime::from_secs(10));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_committed());
        assert!(outcomes[0].finalized_at > now);
        assert_eq!(f.height(), 1);
    }

    #[test]
    fn block_cut_by_max_message_count() {
        let cfg = FabricConfig {
            max_message_count: 10,
            ..Default::default()
        };
        let mut f = Fabric::new(cfg, 2);
        f.run_until(SimTime::from_secs(2));
        for s in 0..30 {
            f.submit(SimTime::from_secs(2), tx(s, Payload::DoNothing));
        }
        let outcomes = f.run_until(SimTime::from_secs(12));
        assert_eq!(outcomes.len(), 30);
        assert_eq!(f.height(), 3, "30 txs at MM=10 → 3 blocks");
    }

    #[test]
    fn latency_at_moderate_load_is_subsecond() {
        // Table 13: RL=800, MM=100 → MFLS 0.22 s.
        let cfg = FabricConfig {
            max_message_count: 100,
            ..Default::default()
        };
        let mut f = Fabric::new(cfg, 3);
        f.run_until(SimTime::from_secs(2));
        // 0.5 s of traffic at 800/s.
        let mut sent = Vec::new();
        let mut outcomes = Vec::new();
        for i in 0..400u64 {
            let at = SimTime::from_secs(2) + SimDuration::from_micros(i * 1250);
            outcomes.extend(f.run_until(at));
            f.submit(at, tx(i, Payload::DoNothing));
            sent.push(at);
        }
        outcomes.extend(f.run_until(SimTime::from_secs(20)));
        outcomes.sort_by_key(|o| o.tx.seq());
        assert_eq!(outcomes.len(), 400);
        let mean_latency_us: u64 = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (o.finalized_at - sent[i]).as_micros())
            .sum::<u64>()
            / 400;
        assert!(
            (50_000..700_000).contains(&mean_latency_us),
            "mean latency {mean_latency_us}µs should be a few hundred ms"
        );
    }

    #[test]
    fn mvcc_conflicts_are_appended_but_not_applied() {
        let mut f = warmed(4);
        let t = SimTime::from_secs(2);
        f.submit(t, tx(1, Payload::create_account(AccountId(1), 100, 0)));
        f.submit(t, tx(2, Payload::create_account(AccountId(2), 100, 0)));
        f.run_until(SimTime::from_secs(8));
        // Two concurrent payments endorsed against the same snapshot:
        let t2 = f.engine.now();
        f.submit(
            t2,
            tx(3, Payload::send_payment(AccountId(1), AccountId(2), 10)),
        );
        f.submit(
            t2,
            tx(4, Payload::send_payment(AccountId(1), AccountId(2), 20)),
        );
        let outcomes = f.run_until(t2 + SimDuration::from_secs(8));
        // Both are received by the client (appended to the chain)...
        assert_eq!(outcomes.iter().filter(|o| o.is_committed()).count(), 2);
        // ...but only one touched the world state.
        assert_eq!(f.invalid_txs(), 1);
        assert_eq!(f.valid_txs(), 3); // 2 creates + 1 payment
        use coconut_iel::StateKey;
        let b1 = f
            .world_state()
            .get(&StateKey::Checking(AccountId(1)))
            .unwrap();
        assert!(
            b1 == 90 || b1 == 80,
            "exactly one payment applied, got {b1}"
        );
    }

    #[test]
    fn event_service_breaks_at_sixteen_peers() {
        let cfg = FabricConfig {
            peers: 16,
            ..Default::default()
        };
        let mut f = Fabric::new(cfg, 5);
        f.run_until(SimTime::from_secs(2));
        for s in 0..10 {
            f.submit(SimTime::from_secs(2), tx(s, Payload::DoNothing));
        }
        let outcomes = f.run_until(SimTime::from_secs(12));
        assert!(outcomes.is_empty(), "clients receive nothing at n ≥ 16");
        assert!(f.height() > 0, "yet the chain itself advanced");
    }

    #[test]
    fn overload_grows_latency() {
        let cfg = FabricConfig {
            max_message_count: 100,
            ..Default::default()
        };
        let mut f = Fabric::new(cfg, 6);
        f.run_until(SimTime::from_secs(2));
        // 2500/s for 4 s: beyond the validation service rate.
        let mut sent = HashMap::new();
        let mut outcomes = Vec::new();
        for i in 0..10_000u64 {
            let at = SimTime::from_secs(2) + SimDuration::from_micros(i * 400);
            outcomes.extend(f.run_until(at));
            f.submit(at, tx(i, Payload::DoNothing));
            sent.insert(i, at);
        }
        outcomes.extend(f.run_until(SimTime::from_secs(60)));
        outcomes.sort_by_key(|o| o.tx.seq());
        let latencies: Vec<u64> = outcomes
            .iter()
            .map(|o| (o.finalized_at - sent[&o.tx.seq()]).as_micros())
            .collect();
        let first = latencies.iter().take(100).sum::<u64>() / 100;
        let last = latencies.iter().rev().take(100).sum::<u64>() / 100;
        assert!(
            last > first * 2,
            "latency must grow under overload: first {first}µs → last {last}µs"
        );
    }

    #[test]
    fn severe_overload_loses_events() {
        let cfg = FabricConfig {
            max_message_count: 100,
            ..Default::default()
        };
        let mut f = Fabric::new(cfg, 7);
        f.run_until(SimTime::from_secs(2));
        let mut outcomes = Vec::new();
        for i in 0..20_000u64 {
            let at = SimTime::from_secs(2) + SimDuration::from_micros(i * 250); // 4000/s
            outcomes.extend(f.run_until(at));
            f.submit(at, tx(i, Payload::DoNothing));
        }
        outcomes.extend(f.run_until(SimTime::from_secs(120)));
        assert!(
            outcomes.len() < 20_000,
            "some events must be dropped, got all {}",
            outcomes.len()
        );
        assert!(!outcomes.is_empty(), "but not everything");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut f = warmed(seed);
            for s in 0..50 {
                f.submit(SimTime::from_secs(2), tx(s, Payload::key_value_set(s, s)));
            }
            f.run_until(SimTime::from_secs(15))
                .iter()
                .map(|o| (o.tx, o.finalized_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8));
    }

    #[test]
    fn stats_track_accept_and_blocks() {
        let mut f = warmed(9);
        for s in 0..5 {
            f.submit(SimTime::from_secs(2), tx(s, Payload::DoNothing));
        }
        f.run_until(SimTime::from_secs(10));
        let st = f.stats();
        assert_eq!(st.accepted, 5);
        assert!(st.blocks >= 1);
        assert_eq!(st.outcomes_emitted, 5);
        assert!(st.consensus_messages > 0);
    }

    #[test]
    fn emulated_latency_slows_finalization() {
        let run = |net: NetConfig| {
            let cfg = FabricConfig {
                net,
                max_message_count: 10,
                ..Default::default()
            };
            let mut f = Fabric::new(cfg, 10);
            f.run_until(SimTime::from_secs(3));
            let t = f.engine.now();
            for s in 0..10 {
                f.submit(t, tx(s, Payload::DoNothing));
            }
            let outcomes = f.run_until(t + SimDuration::from_secs(20));
            assert_eq!(outcomes.len(), 10);
            outcomes
                .iter()
                .map(|o| (o.finalized_at - t).as_micros())
                .sum::<u64>()
                / 10
        };
        let lan = run(NetConfig::lan());
        let wan = run(NetConfig::emulated_latency());
        assert!(
            wan > lan + 20_000,
            "netem must add tens of ms: {lan} vs {wan}"
        );
    }
}
