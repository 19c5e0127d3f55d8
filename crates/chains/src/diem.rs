//! Diem model: a sequence-numbered account chain over DiemBFT.
//!
//! Pipeline: submissions enter the mempool (the DiemBFT engine's pending
//! set); leaders pull up to `max_block_size` transactions per proposal; at
//! commit every validator executes the block through the Move VM model and
//! the client is notified once all validators have persisted.
//!
//! Anomalies reproduced:
//! * **Spiking** (§5.7, after Balster): "validators temporarily stop
//!   validating further transactions". The model stalls every validator's
//!   execution pipeline for 5 s every `spike_interval`,
//!   which keeps blocks from saturating and inflates latency.
//! * **Admission overhead**: every validator pays CPU to admit each
//!   gossiped transaction, so higher rate limiters *reduce* throughput
//!   (Table 19: 64 MTPS at RL = 200 vs 37 at RL = 1600 for BS = 2000).
//! * **Massive client-side loss**: Diem's service rate sits near 100 tx/s,
//!   so most of a 200–1600 tx/s workload is still unconfirmed when the
//!   client stops listening (Table 20: 16,752 of 60,000 received).

use coconut_consensus::diembft::{DiemBft, DiemBftCluster};
use coconut_consensus::{BatchConfig, CommittedBatch, CpuModel};
use coconut_simnet::{NetConfig, Topology};
use coconut_types::{
    tx::FailReason, ClientTx, NodeId, SeedDeriver, SimDuration, SimTime, TxOutcome,
};

use crate::chain::{Chain, Model};
use crate::runtime::{command_for, ChainRuntime, IngressLoad, PoolLimits, Stage};
use crate::system::SubmitOutcome;

/// Mempool bound; submissions beyond it are dropped.
const MEMPOOL_LIMIT: usize = 50_000;
/// CPU cost of executing one transaction at each validator.
const EXEC_PER_TX: SimDuration = SimDuration::from_micros(10_000);
/// CPU cost per transaction of mempool admission at every validator.
const INGRESS_PER_TX: SimDuration = SimDuration::from_micros(400);
/// How long a spike lasts.
const SPIKE_DURATION: SimDuration = SimDuration::from_secs(5);
/// Client-set transaction expiration: a transaction not committed within
/// this time is discarded by the validators (Diem's
/// `expiration_timestamp`); the client never hears about it.
const TX_EXPIRATION: SimDuration = SimDuration::from_secs(30);

/// Configuration of the Diem deployment.
#[derive(Debug, Clone)]
pub struct DiemConfig {
    /// Number of validators (paper baseline: 4).
    pub nodes: u32,
    /// Pre-provisioned standby validators (ids after the baseline) that
    /// start outside the membership and can be admitted at runtime via
    /// [`crate::system::BlockchainSystem::join_node`].
    pub standby: u32,
    /// `max_block_size`: transactions per proposal (paper: 100–2000).
    pub max_block_size: usize,
    /// Network characteristics.
    pub net: NetConfig,
    /// How often validators "spike" (stop validating); `None` disables.
    pub spike_interval: Option<SimDuration>,
    /// Bounded-pool parameters for the runtime's pending store; the
    /// capacity backstops the mempool bound with a `Busy` backpressure
    /// verdict instead of a silent drop.
    pub pool: PoolLimits,
}

impl Default for DiemConfig {
    /// The paper's baseline: 4 validators, Diem's default
    /// `max_block_size` = 3000, spiking enabled.
    fn default() -> Self {
        DiemConfig {
            nodes: 4,
            standby: 0,
            max_block_size: 3000,
            net: NetConfig::lan(),
            spike_interval: Some(SimDuration::from_secs(25)),
            pool: PoolLimits::bounded(100_000),
        }
    }
}

/// The modelled Diem network (see module docs).
pub type Diem = Chain<DiemModel>;

/// Diem's own state in its [`Chain`].
#[derive(Debug)]
pub struct DiemModel {
    config: DiemConfig,
    exec_cpu: CpuModel,
    next_spike: SimTime,
    spikes: u64,
    /// Mempool-admission load estimator (validators verify and share
    /// every gossiped transaction).
    ingress: IngressLoad,
    current_slowdown: f64,
    expired: u64,
}

impl Diem {
    /// Builds a Diem deployment from `config` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero.
    pub fn new(config: DiemConfig, seed: u64) -> Self {
        assert!(config.nodes > 0, "need at least one validator");
        let seeds = SeedDeriver::new(seed);
        let total = config.nodes + config.standby;
        let engine = DiemBftCluster::builder(config.nodes)
            .standby(config.standby)
            .seed(seeds.seed("diembft", 0))
            .net(config.net.clone())
            .topology(Topology::round_robin(total, total.min(8)))
            .batch(BatchConfig::new(
                config.max_block_size,
                SimDuration::from_millis(250),
            ))
            .build();
        let next_spike = match config.spike_interval {
            Some(interval) => SimTime::ZERO + interval,
            None => SimTime::MAX,
        };
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.nodes);
        rt.set_pool_limits(config.pool);
        let nodes = config.nodes;
        let m = DiemModel {
            exec_cpu: CpuModel::new(total),
            ingress: IngressLoad::new(SimDuration::from_secs(2), INGRESS_PER_TX, 0.9),
            config,
            next_spike,
            spikes: 0,
            current_slowdown: 1.0,
            expired: 0,
        };
        Chain::from_parts(rt, engine, nodes, m)
    }

    /// Number of spikes (validator stalls) injected so far.
    pub fn spikes(&self) -> u64 {
        self.m.spikes
    }

    /// Transactions dropped because they outlived their expiration.
    pub fn expired(&self) -> u64 {
        self.m.expired
    }

    fn process_blocks(&mut self, blocks: Vec<CommittedBatch>) {
        let nodes = self.m.config.nodes;
        for block in blocks {
            if block.commands.is_empty() {
                continue;
            }
            let block_id = self.rt.append_block(
                block.proposer,
                block.committed_at,
                block.commands.iter().map(|c| c.tx),
                None,
            );
            let mut results = Vec::with_capacity(block.commands.len());
            let mut total_cost = SimDuration::ZERO;
            let slowdown = self.m.current_slowdown;
            let mut expired = 0u64;
            for cmd in &block.commands {
                let Some(tx) = self.rt.mempool().take(&cmd.tx) else {
                    continue;
                };
                // Expired transactions are discarded with a cheap check —
                // no execution, no client notification (a lost tx).
                if block.committed_at - tx.created_at() > TX_EXPIRATION {
                    expired += 1;
                    self.rt.probe_mut().shed(Stage::MempoolWait, 1);
                    continue;
                }
                let n_factor = 1.0 + 0.02 * nodes.saturating_sub(4) as f64;
                total_cost += (EXEC_PER_TX * tx.op_count() as u64).mul_f64(slowdown * n_factor);
                let ok = self.state.apply(&tx.payloads()[0]).is_ok();
                results.push((cmd.tx, cmd.ops, ok, tx.created_at()));
            }
            self.m.expired += expired;
            // Every validator re-executes; the slowest gates notification.
            let persist = self
                .rt
                .replicate(&mut self.m.exec_cpu, block.committed_at, total_cost);
            // Stage boundaries: mempool wait spans submission → block
            // commitment (DiemBFT's pickup), execution is the block-wide
            // re-execution on every validator, commit waits for the
            // slowest replica.
            let exec_end = block.committed_at + total_cost;
            for (txid, ops, ok, created_at) in results {
                let event_at = persist + self.rt.hop();
                let probe = self.rt.probe_mut();
                probe.span(Stage::MempoolWait, txid, created_at, block.committed_at);
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
    }
}

impl DiemModel {
    /// Injects any validator spikes due before `deadline`.
    fn inject_spikes(&mut self, deadline: SimTime) {
        let Some(interval) = self.config.spike_interval else {
            return;
        };
        while self.next_spike <= deadline {
            for v in 0..self.config.nodes {
                self.exec_cpu
                    .process(NodeId(v), self.next_spike, SPIKE_DURATION);
            }
            self.spikes += 1;
            self.next_spike += interval;
        }
    }
}

impl Model for DiemModel {
    type Protocol = DiemBft;
    const NAME: &'static str = "Diem";

    fn submit(c: &mut Diem, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        c.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
        let full = c.engine.pending_len() >= MEMPOOL_LIMIT;
        let outcome = c.rt.admit(now, &tx, full);
        if outcome.is_accepted() {
            // Mempool admission: every validator verifies and shares the
            // tx — a higher rate limiter leaves less CPU for execution
            // (Table 19: 64 MTPS at RL = 200 vs 37 at RL = 1600).
            c.m.current_slowdown = c.m.ingress.record(now, tx.op_count() as u32);
            c.rt.probe_mut()
                .utilization(Stage::Ingress, 1.0 - 1.0 / c.m.current_slowdown);
            c.engine.submit(command_for(&tx));
        }
        outcome
    }

    fn run_until(c: &mut Diem, deadline: SimTime) -> Vec<TxOutcome> {
        // Interleave spike injections with consensus so a spike only stalls
        // execution of blocks committed after it.
        loop {
            let upto = c.m.next_spike.min(deadline);
            let blocks = c.engine.run_until(upto);
            c.rt.sync_membership(c.engine.active_count());
            c.process_blocks(blocks);
            if c.m.next_spike > deadline {
                break;
            }
            c.m.inject_spikes(upto);
        }
        c.rt.drain(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockchainSystem;
    use coconut_types::{ClientId, Payload, ThreadId, TxId};

    /// A transaction stamped with `sent`, the time it is submitted at:
    /// Diem's expiration counts from that stamp.
    fn tx(seq: u64, payload: Payload, sent: SimTime) -> ClientTx {
        ClientTx::single(TxId::new(ClientId(0), seq), ThreadId(0), payload, sent)
    }

    fn no_spike() -> DiemConfig {
        DiemConfig {
            spike_interval: None,
            ..DiemConfig::default()
        }
    }

    #[test]
    fn commits_and_notifies() {
        let mut d = Diem::new(no_spike(), 1);
        d.submit(SimTime::ZERO, tx(1, Payload::DoNothing, SimTime::ZERO));
        let outcomes = d.run_until(SimTime::from_secs(10));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_committed());
    }

    #[test]
    fn max_block_size_bounds_blocks() {
        let mut cfg = no_spike();
        cfg.max_block_size = 10;
        let mut d = Diem::new(cfg, 2);
        for s in 0..35 {
            d.submit(SimTime::ZERO, tx(s, Payload::DoNothing, SimTime::ZERO));
        }
        let outcomes = d.run_until(SimTime::from_secs(60));
        assert_eq!(outcomes.iter().filter(|o| o.is_committed()).count(), 35);
        assert!(d.height() >= 4, "10-tx blocks → at least 4 blocks");
    }

    #[test]
    fn mempool_limit_drops_excess() {
        let mut d = Diem::new(no_spike(), 3);
        let mut rejected = 0;
        for s in 0..MEMPOOL_LIMIT as u64 + 30 {
            if !d
                .submit(SimTime::ZERO, tx(s, Payload::DoNothing, SimTime::ZERO))
                .is_accepted()
            {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 30);
    }

    #[test]
    fn spiking_delays_confirmations() {
        // Sustained load across several spikes: count what confirms within
        // a fixed horizon. Spikes stall execution, so the spiky run must
        // confirm strictly less.
        let run = |spike: Option<SimDuration>| {
            let cfg = DiemConfig {
                spike_interval: spike,
                ..Default::default()
            };
            let mut d = Diem::new(cfg, 4);
            let mut outcomes = Vec::new();
            // 50/s for 24 s — within the ~100/s service rate when calm.
            for i in 0..1200u64 {
                let at = SimTime::from_millis(i * 20);
                outcomes.extend(d.run_until(at));
                d.submit(at, tx(i, Payload::DoNothing, at));
            }
            // Each transaction is stamped when it is sent, and the horizon
            // ends 26 s after the first send, inside the 30 s expiration,
            // so none expires: spiking alone makes the difference.
            outcomes.extend(d.run_until(SimTime::from_secs(26)));
            assert_eq!(d.expired(), 0);
            outcomes.len()
        };
        let calm = run(None);
        let spiky = run(Some(SimDuration::from_secs(10)));
        assert!(
            spiky < calm,
            "spikes must reduce on-time confirmations: {calm} vs {spiky}"
        );
    }

    #[test]
    fn spike_counter_advances() {
        let mut d = Diem::new(DiemConfig::default(), 5);
        d.run_until(SimTime::from_secs(60));
        assert_eq!(d.spikes(), 2, "spikes at 25 s and 50 s");
    }

    #[test]
    fn execution_failures_are_reported() {
        let mut d = Diem::new(no_spike(), 6);
        d.submit(
            SimTime::ZERO,
            tx(1, Payload::key_value_get(404), SimTime::ZERO),
        );
        let outcomes = d.run_until(SimTime::from_secs(10));
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].is_committed());
    }

    #[test]
    fn overload_leaves_backlog_unconfirmed() {
        // 2000/s against a ~100/s service: most of the work must still be
        // in flight when we stop looking shortly after the send window.
        let mut d = Diem::new(no_spike(), 7);
        let mut outcomes = Vec::new();
        for i in 0..2000u64 {
            let at = SimTime::from_micros(i * 500);
            outcomes.extend(d.run_until(at));
            d.submit(at, tx(i, Payload::DoNothing, at));
        }
        outcomes.extend(d.run_until(SimTime::from_secs(5)));
        assert!(
            outcomes.len() < 1000,
            "service ≈ 100/s cannot confirm {} of 2000 in 5 s",
            outcomes.len()
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut d = Diem::new(DiemConfig::default(), seed);
            for s in 0..20 {
                d.submit(
                    SimTime::ZERO,
                    tx(s, Payload::key_value_set(s, s), SimTime::ZERO),
                );
            }
            d.run_until(SimTime::from_secs(30))
                .iter()
                .map(|o| (o.tx, o.finalized_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8));
    }
}
