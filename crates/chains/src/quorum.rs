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
//!   [`BlockchainSystem::is_live`] turns `false`.
//! * **Pool overflow loss**: beyond the pool bound, submissions are
//!   silently dropped (geth-style), which the client observes as lost
//!   transactions.

use coconut_consensus::ibft::IbftCluster;
use coconut_consensus::{BatchConfig, CpuModel, LivenessReport, SafetyReport};
use coconut_iel::WorldState;
use coconut_simnet::{ByzantineBehaviour, FaultEvent, NetConfig, Topology};
use coconut_types::{
    tx::FailReason, ClientTx, NodeId, Payload, SeedDeriver, SimDuration, SimTime, TxOutcome,
};

use crate::ledger::Ledger;
use crate::runtime::{command_for, ChainRuntime, PoolLimits, Stage, StageProbe};
use crate::system::{BlockchainSystem, SubmitOutcome, SystemStats};

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
#[derive(Debug)]
pub struct Quorum {
    config: QuorumConfig,
    rt: ChainRuntime,
    ibft: IbftCluster,
    exec_cpu: CpuModel,
    state: WorldState,
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
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.nodes, total);
        rt.set_pool_limits(config.pool);
        // The txpool bound guards the ordering pipeline: a full pool means
        // IBFT is not draining fast enough, so sheds book to `Consensus`.
        rt.probe_mut().set_queue_stage(Stage::Consensus);
        Quorum {
            rt,
            exec_cpu: CpuModel::new(total),
            ibft,
            state: WorldState::new(),
            config,
            stalled: false,
        }
    }

    /// The committed world state (for semantic assertions).
    pub fn world_state(&self) -> &WorldState {
        &self.state
    }

    /// Chain height including empty blocks.
    pub fn height(&self) -> u64 {
        self.rt.height()
    }

    /// The hash-linked ledger (tamper-evident block chain).
    pub fn ledger(&self) -> &Ledger {
        self.rt.ledger()
    }

    /// `true` once the txpool has frozen (the §5.5 anomaly).
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Crashes a validator (fault injection). IBFT keeps committing while
    /// 2f + 1 validators survive; round changes skip dead proposers.
    pub fn crash_validator(&mut self, node: NodeId) {
        self.ibft.crash(node);
    }

    /// Recovers a crashed validator.
    pub fn recover_validator(&mut self, node: NodeId) {
        self.ibft.recover(node);
    }

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

impl BlockchainSystem for Quorum {
    fn name(&self) -> &str {
        "Quorum"
    }

    fn node_count(&self) -> u32 {
        self.config.nodes
    }

    fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        self.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
        if self.stalled {
            // The pool still accepts (geth keeps queueing) but nothing is
            // ever processed; the client sees the transaction as lost —
            // shed inside the frozen ordering stage.
            self.rt.probe_mut().shed(Stage::Consensus, 1);
            self.rt.accept();
            return SubmitOutcome::Accepted;
        }
        if self.config.stall_anomaly
            && self.config.block_period <= self.config.stall_period_threshold
            && self.ibft.pending_len() >= self.config.stall_pool_threshold
        {
            // The paper's liveness violation: short block period + high
            // load freezes the pool for good; blocks continue empty.
            self.stalled = true;
            let dropped = self.ibft.drop_pending();
            self.rt.reject_n(dropped as u64);
            self.rt
                .probe_mut()
                .shed(Stage::Consensus, dropped as u64 + 1);
            self.rt.mempool().clear();
            self.rt.accept();
            return SubmitOutcome::Accepted;
        }
        let full = self.ibft.pending_len() >= self.config.txpool_limit;
        let outcome = self.rt.admit(now, &tx, full);
        if outcome.is_accepted() {
            self.ibft.submit(command_for(&tx));
        }
        outcome
    }

    fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
        let blocks = self.ibft.run_until(deadline);
        self.rt.sync_membership(self.ibft.active_count());
        for block in blocks {
            let block_id = self.rt.append_block(
                block.proposer,
                block.committed_at,
                block.commands.iter().map(|c| c.tx).collect(),
                None,
            );
            if block.commands.is_empty() {
                continue;
            }
            if self.stalled {
                continue; // in-flight blocks during the freeze notify nobody
            }
            // Every validator executes the block sequentially; the slowest
            // validator gates the client notification ("persisted in all
            // participating blockchain nodes").
            let mut costs = SimDuration::ZERO;
            let mut executed = Vec::with_capacity(block.commands.len());
            for cmd in &block.commands {
                let Some(tx) = self.rt.mempool().take(&cmd.tx) else {
                    continue;
                };
                let cost = self.exec_cost(&tx.payloads()[0]);
                costs += cost;
                // Order-execute: failures (reverts) are still mined and the
                // client still gets a receipt.
                let ok = self.state.apply(&tx.payloads()[0]).is_ok();
                executed.push((cmd.tx, cmd.ops, ok, tx.created_at()));
            }
            let persist = self
                .rt
                .replicate(&mut self.exec_cpu, block.committed_at, costs);
            // Order-execute stage boundaries: ordering spans submission →
            // block commitment, every validator then executes the whole
            // block (`costs`), and commit waits for the slowest replica.
            let exec_end = block.committed_at + costs;
            for (txid, ops, ok, created_at) in executed {
                let event_at = persist + self.rt.hop();
                let probe = self.rt.probe_mut();
                probe.span(Stage::Consensus, txid, created_at, block.committed_at);
                probe.span(Stage::Execution, txid, block.committed_at, exec_end);
                probe.span(Stage::Commit, txid, exec_end, persist);
                probe.span(Stage::Notify, txid, persist, event_at);
                if ok {
                    self.rt.emit_committed(txid, block_id, event_at, ops);
                } else {
                    self.rt
                        .emit_failed(txid, FailReason::ExecutionError, event_at);
                }
            }
        }
        self.rt.drain(deadline)
    }

    fn stats(&self) -> SystemStats {
        self.rt.stats_with(self.ibft.net_stats().messages_sent)
    }

    fn preload(&mut self, payloads: &[coconut_types::Payload]) {
        for p in payloads {
            let _ = self.state.apply(p);
        }
    }

    fn ledger_state(&self) -> Option<coconut_iel::LedgerState> {
        Some(coconut_iel::LedgerState::of_world(&self.state))
    }

    fn crash_node(&mut self, node: NodeId) -> bool {
        if !self.rt.has_node(node) {
            return false;
        }
        self.crash_validator(node);
        true
    }

    fn recover_node(&mut self, node: NodeId) -> bool {
        if !self.rt.has_node(node) {
            return false;
        }
        self.recover_validator(node);
        true
    }

    fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        self.ibft.apply_net_fault(at, event)
    }

    fn inject_byzantine(
        &mut self,
        node: NodeId,
        behaviour: ByzantineBehaviour,
        until: SimTime,
    ) -> bool {
        if !self.rt.has_node(node) {
            return false;
        }
        self.ibft.set_byzantine(node, behaviour, until);
        true
    }

    fn join_node(&mut self, _now: SimTime, node: NodeId) -> bool {
        self.ibft.join(node)
    }

    fn leave_node(&mut self, _now: SimTime, node: NodeId) -> bool {
        self.ibft.leave(node)
    }

    fn config_epoch(&self) -> u64 {
        self.ibft.config_epoch()
    }

    fn safety_report(&self) -> Option<SafetyReport> {
        Some(self.ibft.safety_report())
    }

    fn liveness_report(&self) -> Option<LivenessReport> {
        Some(self.ibft.liveness_report())
    }

    fn is_live(&self) -> bool {
        !self.stalled
    }

    fn probe(&self) -> Option<&StageProbe> {
        Some(self.rt.probe())
    }

    fn probe_mut(&mut self) -> Option<&mut StageProbe> {
        Some(self.rt.probe_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
