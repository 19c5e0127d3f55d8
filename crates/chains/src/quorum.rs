//! Quorum model: an Ethereum-derived account-model chain (order-execute)
//! over Istanbul BFT.
//!
//! Pipeline: submissions enter the txpool (bounded, like geth's); the IBFT
//! proposer drains up to a block's worth every `istanbul.blockperiod`;
//! every validator executes the block's transactions sequentially
//! (order-execute, §5.5: "Ethereum's order-execute paradigm"); the client
//! is notified once all validators have executed and persisted the block.
//!
//! Anomalies reproduced:
//! * **The block-period liveness stall** (§5.5): with
//!   `istanbul.blockperiod` ≤ 2 s under high load, "Quorum adds
//!   transactions to a queue, but the queue is no longer processed" while
//!   "the Quorum nodes generate empty blocks". Once the pool overflows at a
//!   short block period, the model freezes the pool: accepted transactions
//!   are never confirmed, IBFT keeps minting empty blocks, and
//!   [`BlockchainSystem::is_live`](crate::BlockchainSystem::is_live) turns
//!   `false`.
//! * **Pool overflow loss**: beyond the pool bound, submissions are
//!   silently dropped (geth-style), which the client observes as lost
//!   transactions.

use coconut_consensus::ibft::{Ibft, IbftCluster};
use coconut_consensus::three_phase::Core;
use coconut_consensus::{BatchConfig, CpuModel};
use coconut_simnet::{NetConfig, Topology};
use coconut_types::{
    tx::FailReason, ClientTx, Payload, SeedDeriver, SimDuration, SimTime, TxOutcome,
};

use crate::chain::{Chain, Model};
use crate::runtime::{command_for, ChainRuntime, PoolLimits, Stage};
use crate::system::SubmitOutcome;

/// Configuration of the Quorum deployment.
#[derive(Debug, Clone)]
pub struct QuorumConfig {
    /// Number of validators (paper baseline: 4).
    pub nodes: u32,
    /// Pre-provisioned standby validators (ids after the baseline) that start
    /// outside the membership and can be admitted at runtime via
    /// [`crate::system::BlockchainSystem::join_node`].
    pub standby: u32,
    /// `istanbul.blockperiod`: minimum spacing between blocks.
    pub block_period: SimDuration,
    /// Maximum transactions pulled into one block.
    pub block_tx_limit: usize,
    /// Transaction-pool bound; submissions beyond it are dropped.
    pub txpool_limit: usize,
    /// Network characteristics.
    pub net: NetConfig,
    /// Base CPU cost of executing one transaction on a validator.
    pub exec_base: SimDuration,
    /// Additional CPU cost per state read.
    pub exec_per_read: SimDuration,
    /// Additional CPU cost per state write.
    pub exec_per_write: SimDuration,
    /// Enables the §5.5 liveness anomaly (pool freeze at a short block
    /// period under load). Disable for the ablation.
    pub stall_anomaly: bool,
    /// Block periods at or below this trigger the anomaly when the pool
    /// depth crosses [`QuorumConfig::stall_pool_threshold`].
    pub stall_period_threshold: SimDuration,
    /// Pool depth that, combined with a short block period, freezes the
    /// pool.
    pub stall_pool_threshold: usize,
    /// Bounded-pool parameters for the runtime's pending store; the
    /// capacity backstops `txpool_limit` with a `Busy` backpressure
    /// verdict instead of a silent geth-style drop.
    pub pool: PoolLimits,
}

impl Default for QuorumConfig {
    /// The paper's baseline: 4 validators, blockperiod 1 s (Quorum's
    /// default), geth-like pool bound.
    fn default() -> Self {
        QuorumConfig {
            nodes: 4,
            standby: 0,
            block_period: SimDuration::from_secs(1),
            block_tx_limit: 4096,
            txpool_limit: 5120,
            net: NetConfig::lan(),
            exec_base: SimDuration::from_micros(1150),
            exec_per_read: SimDuration::from_micros(600),
            exec_per_write: SimDuration::from_micros(250),
            stall_anomaly: true,
            stall_period_threshold: SimDuration::from_secs(2),
            stall_pool_threshold: 500,
            pool: PoolLimits::bounded(50_000),
        }
    }
}

/// The modelled Quorum network (see module docs).
pub type Quorum = Chain<QuorumModel>;

/// Quorum's own state in its [`Chain`].
#[derive(Debug)]
pub struct QuorumModel {
    config: QuorumConfig,
    exec_cpu: CpuModel,
    stalled: bool,
}

impl Quorum {
    /// Builds a Quorum deployment from `config` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero.
    pub fn new(config: QuorumConfig, seed: u64) -> Self {
        assert!(config.nodes > 0, "need at least one validator");
        let seeds = SeedDeriver::new(seed);
        let total = config.nodes + config.standby;
        let ibft = IbftCluster::builder(config.nodes)
            .standby(config.standby)
            .seed(seeds.seed("ibft", 0))
            .net(config.net.clone())
            .topology(Topology::round_robin(total, total.min(8)))
            .period(config.block_period)
            .batch(BatchConfig::new(config.block_tx_limit, config.block_period))
            .build();
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.nodes);
        rt.set_pool_limits(config.pool);
        // The txpool bound guards the ordering pipeline: a full pool means
        // IBFT is not draining fast enough, so sheds book to `Consensus`.
        rt.probe_mut().set_queue_stage(Stage::Consensus);
        let nodes = config.nodes;
        let m = QuorumModel {
            exec_cpu: CpuModel::new(total),
            config,
            stalled: false,
        };
        Chain::from_parts(rt, ibft, nodes, m)
    }

    /// `true` once the txpool has frozen (the §5.5 anomaly).
    pub fn is_stalled(&self) -> bool {
        self.m.stalled
    }
}

impl QuorumModel {
    fn exec_cost(&self, payload: &Payload) -> SimDuration {
        let kind = payload.kind();
        let reads = if kind.is_read() { 2 } else { 0 };
        let writes = if kind.is_write() { 2 } else { 0 };
        let base = self.config.exec_base
            + self.config.exec_per_read * reads
            + self.config.exec_per_write * writes;
        // Per-block work grows with the validator set (more signatures to
        // verify, more gossip) — the §5.8.2 downward trend from 8 nodes.
        base.mul_f64(1.0 + 0.02 * self.config.nodes.saturating_sub(4) as f64)
    }
}

impl Model for QuorumModel {
    type Protocol = Core<Ibft>;
    const NAME: &'static str = "Quorum";

    fn submit(c: &mut Quorum, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        c.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
        if c.m.stalled {
            // The pool still accepts (geth keeps queueing) but nothing is
            // ever processed; the client sees the transaction as lost —
            // shed inside the frozen ordering stage.
            c.rt.probe_mut().shed(Stage::Consensus, 1);
            c.rt.accept();
            return SubmitOutcome::Accepted;
        }
        let config = &c.m.config;
        if config.stall_anomaly
            && config.block_period <= config.stall_period_threshold
            && c.engine.pending_len() >= config.stall_pool_threshold
        {
            // The paper's liveness violation: short block period + high
            // load freezes the pool for good; blocks continue empty.
            c.m.stalled = true;
            let dropped = c.engine.drop_pending();
            c.rt.reject_n(dropped as u64);
            c.rt.probe_mut().shed(Stage::Consensus, dropped as u64 + 1);
            c.rt.mempool().clear();
            c.rt.accept();
            return SubmitOutcome::Accepted;
        }
        let full = c.engine.pending_len() >= config.txpool_limit;
        let outcome = c.rt.admit(now, &tx, full);
        if outcome.is_accepted() {
            c.engine.submit(command_for(&tx));
        }
        outcome
    }

    fn run_until(c: &mut Quorum, deadline: SimTime) -> Vec<TxOutcome> {
        let blocks = c.engine.run_until(deadline);
        c.rt.sync_membership(c.engine.active_count());
        for block in blocks {
            let block_id = c.rt.append_block(
                block.proposer,
                block.committed_at,
                block.commands.iter().map(|cmd| cmd.tx).collect(),
                None,
            );
            if block.commands.is_empty() {
                continue;
            }
            if c.m.stalled {
                continue; // in-flight blocks during the freeze notify nobody
            }
            // Every validator executes the block sequentially; the slowest
            // validator gates the client notification ("persisted in all
            // participating blockchain nodes").
            let mut costs = SimDuration::ZERO;
            let mut executed = Vec::with_capacity(block.commands.len());
            for cmd in &block.commands {
                let Some(tx) = c.rt.mempool().take(&cmd.tx) else {
                    continue;
                };
                let cost = c.m.exec_cost(&tx.payloads()[0]);
                costs += cost;
                // Order-execute: failures (reverts) are still mined and the
                // client still gets a receipt.
                let ok = c.state.apply(&tx.payloads()[0]).is_ok();
                executed.push((cmd.tx, cmd.ops, ok, tx.created_at()));
            }
            let persist = c.rt.replicate(&mut c.m.exec_cpu, block.committed_at, costs);
            // Order-execute stage boundaries: ordering spans submission →
            // block commitment, every validator then executes the whole
            // block (`costs`), and commit waits for the slowest replica.
            let exec_end = block.committed_at + costs;
            for (txid, ops, ok, created_at) in executed {
                let event_at = persist + c.rt.hop();
                let probe = c.rt.probe_mut();
                probe.span(Stage::Consensus, txid, created_at, block.committed_at);
                probe.span(Stage::Execution, txid, block.committed_at, exec_end);
                probe.span(Stage::Commit, txid, exec_end, persist);
                probe.span(Stage::Notify, txid, persist, event_at);
                if ok {
                    c.rt.emit_committed(txid, block_id, event_at, ops);
                } else {
                    c.rt.emit_failed(txid, FailReason::ExecutionError, event_at);
                }
            }
        }
        c.rt.drain(deadline)
    }

    fn is_live(c: &Quorum) -> bool {
        !c.m.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockchainSystem;
    use coconut_types::{AccountId, ClientId, ThreadId, TxId};

    fn tx(seq: u64, payload: Payload) -> ClientTx {
        ClientTx::single(
            TxId::new(ClientId(0), seq),
            ThreadId(0),
            payload,
            SimTime::ZERO,
        )
    }

    #[test]
    fn commits_and_notifies() {
        let mut q = Quorum::new(QuorumConfig::default(), 1);
        q.submit(SimTime::ZERO, tx(1, Payload::DoNothing));
        let outcomes = q.run_until(SimTime::from_secs(5));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_committed());
        // Latency ≈ one block period plus consensus:
        assert!(outcomes[0].finalized_at >= SimTime::from_secs(1));
        assert!(outcomes[0].finalized_at < SimTime::from_secs(2));
    }

    #[test]
    fn empty_blocks_keep_chain_growing() {
        let mut q = Quorum::new(QuorumConfig::default(), 2);
        let outcomes = q.run_until(SimTime::from_secs(8));
        assert!(outcomes.is_empty());
        assert!(
            q.height() >= 6,
            "empty blocks every second, got {}",
            q.height()
        );
    }

    #[test]
    fn execution_failures_still_get_receipts() {
        let mut q = Quorum::new(QuorumConfig::default(), 3);
        q.submit(SimTime::ZERO, tx(1, Payload::balance(AccountId(77))));
        let outcomes = q.run_until(SimTime::from_secs(5));
        assert_eq!(outcomes.len(), 1);
        assert!(
            !outcomes[0].is_committed(),
            "balance of unknown account reverts"
        );
    }

    #[test]
    fn pool_overflow_drops_when_period_is_long() {
        let cfg = QuorumConfig {
            block_period: SimDuration::from_secs(5),
            txpool_limit: 100,
            ..Default::default()
        };
        let mut q = Quorum::new(cfg, 4);
        let mut rejected = 0;
        for s in 0..200 {
            if !q
                .submit(SimTime::ZERO, tx(s, Payload::DoNothing))
                .is_accepted()
            {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 100, "beyond the pool bound, submissions drop");
        assert!(q.is_live(), "no stall at a 5 s block period");
    }

    #[test]
    fn short_block_period_under_load_stalls_liveness() {
        // Table 15: BP = 2 s, RL = 400 → 0 received, empty blocks.
        let cfg = QuorumConfig {
            block_period: SimDuration::from_secs(2),
            stall_pool_threshold: 200,
            ..Default::default()
        };
        let mut q = Quorum::new(cfg, 5);
        for s in 0..500 {
            q.submit(SimTime::ZERO, tx(s, Payload::DoNothing));
        }
        assert!(q.is_stalled());
        assert!(!q.is_live());
        let outcomes = q.run_until(SimTime::from_secs(30));
        assert!(outcomes.is_empty(), "no confirmations after the stall");
        assert!(q.height() > 10, "but empty blocks keep being minted");
    }

    #[test]
    fn stall_anomaly_can_be_disabled() {
        let cfg = QuorumConfig {
            block_period: SimDuration::from_secs(1),
            stall_pool_threshold: 200,
            stall_anomaly: false,
            ..Default::default()
        };
        let mut q = Quorum::new(cfg, 6);
        for s in 0..500 {
            q.submit(SimTime::ZERO, tx(s, Payload::DoNothing));
        }
        assert!(q.is_live());
        let outcomes = q.run_until(SimTime::from_secs(20));
        assert!(!outcomes.is_empty(), "without the anomaly the pool drains");
    }

    #[test]
    fn block_period_paces_latency() {
        let latency = |period_s: u64| {
            let cfg = QuorumConfig {
                block_period: SimDuration::from_secs(period_s),
                ..Default::default()
            };
            let mut q = Quorum::new(cfg, 7);
            q.submit(SimTime::ZERO, tx(1, Payload::DoNothing));
            let outcomes = q.run_until(SimTime::from_secs(30));
            assert_eq!(outcomes.len(), 1);
            outcomes[0].finalized_at
        };
        assert!(
            latency(5) > latency(1),
            "longer blockperiod → later confirmation"
        );
    }

    #[test]
    fn world_state_reflects_payments() {
        let mut q = Quorum::new(QuorumConfig::default(), 8);
        q.submit(
            SimTime::ZERO,
            tx(1, Payload::create_account(AccountId(1), 100, 0)),
        );
        q.submit(
            SimTime::ZERO,
            tx(2, Payload::create_account(AccountId(2), 100, 0)),
        );
        q.run_until(SimTime::from_secs(3));
        let now = SimTime::from_secs(3);
        q.submit(
            now,
            tx(3, Payload::send_payment(AccountId(1), AccountId(2), 30)),
        );
        let outcomes = q.run_until(SimTime::from_secs(6));
        assert!(outcomes.iter().all(|o| o.is_committed()));
        use coconut_iel::StateKey;
        assert_eq!(
            q.world_state().get(&StateKey::Checking(AccountId(1))),
            Some(70)
        );
        assert_eq!(
            q.world_state().get(&StateKey::Checking(AccountId(2))),
            Some(130)
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut q = Quorum::new(QuorumConfig::default(), seed);
            for s in 0..20 {
                q.submit(SimTime::ZERO, tx(s, Payload::key_value_set(s, s)));
            }
            q.run_until(SimTime::from_secs(10))
                .iter()
                .map(|o| (o.tx, o.finalized_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
