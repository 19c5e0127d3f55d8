//! Hyperledger Sawtooth model: atomic batches over PBFT with a bounded
//! validator queue.
//!
//! Pipeline: a COCONUT submission is an *atomic batch* of transactions
//! (the paper runs 1, 50 and 100 transactions per batch). Batches enter a
//! bounded validator queue — "a queue that rejects new incoming
//! transactions if the occupancy of the queue is too high" (§5.6), the
//! decisive factor behind Sawtooth's lost transactions. Accepted batches
//! are ordered by PBFT (`block_publishing_delay` paces proposals), and at
//! commit every validator executes the batch's transactions through the
//! transaction processor; if any inner transaction fails, the *whole batch*
//! is discarded (atomicity, §5.6).
//!
//! Two further behaviours from the paper:
//! * submission handling itself costs validator CPU (every validator
//!   verifies every gossiped batch), so raising the rate limiter *starves
//!   execution* — reproducing the throughput collapse from 66.7 MTPS at
//!   RL = 200 to 14.3 at RL = 1600 (Table 17);
//! * at 16 or more nodes, batches "remain in the pending state without
//!   being finalized" (§5.8.2) — the queue accepts but consensus never
//!   includes them.

use std::collections::VecDeque;

use coconut_consensus::pbft::{Pbft, PbftCluster};
use coconut_consensus::three_phase::Core;
use coconut_consensus::{BatchConfig, CpuModel};
use coconut_simnet::{NetConfig, Topology};
use coconut_types::{tx::FailReason, ClientTx, SeedDeriver, SimDuration, SimTime, TxOutcome};

use crate::chain::{Chain, Model};
use crate::runtime::{command_for, ChainRuntime, IngressLoad, PoolLimits, Stage};
use crate::system::SubmitOutcome;

/// Configuration of the Sawtooth deployment.
#[derive(Debug, Clone)]
pub struct SawtoothConfig {
    /// Number of validators (paper baseline: 4).
    pub nodes: u32,
    /// Pre-provisioned standby validators (ids after the baseline) that start
    /// outside the membership and can be admitted at runtime via
    /// [`crate::system::BlockchainSystem::join_node`].
    pub standby: u32,
    /// `sawtooth.consensus.pbft.block_publishing_delay`.
    pub publishing_delay: SimDuration,
    /// Maximum batches per block.
    pub batches_per_block: usize,
    /// Validator queue bound, in batches; beyond it submissions are
    /// rejected.
    pub queue_limit: usize,
    /// Network characteristics.
    pub net: NetConfig,
    /// CPU cost of executing one inner transaction at each validator.
    pub exec_per_tx: SimDuration,
    /// CPU cost per inner transaction of admitting a gossiped batch at
    /// *every* validator (signature checks) — the load that starves
    /// execution at high rate limiters.
    pub ingress_per_tx: SimDuration,
    /// Node count at which batches stay pending forever (§5.8.2 observes
    /// 16); `None` disables the anomaly.
    pub pending_stall_at: Option<u32>,
    /// Bounded-pool parameters for the runtime's pending store. The
    /// validator queue (`queue_limit`) still rejects first, paper-style;
    /// the pool capacity is a second line of defence that answers `Busy`.
    pub pool: PoolLimits,
}

impl Default for SawtoothConfig {
    /// The paper's baseline: 4 validators, 1 s publishing delay.
    fn default() -> Self {
        SawtoothConfig {
            nodes: 4,
            standby: 0,
            publishing_delay: SimDuration::from_secs(1),
            batches_per_block: 100,
            queue_limit: 100,
            net: NetConfig::lan(),
            exec_per_tx: SimDuration::from_micros(7_500),
            ingress_per_tx: SimDuration::from_micros(800),
            pending_stall_at: Some(16),
            pool: PoolLimits::bounded(50_000),
        }
    }
}

/// The modelled Sawtooth network (see module docs).
pub type Sawtooth = Chain<SawtoothModel>;

/// Sawtooth's own state in its [`Chain`].
#[derive(Debug)]
pub struct SawtoothModel {
    config: SawtoothConfig,
    exec_cpu: CpuModel,
    aborted_batches: u64,
    /// Per-block (execution-finished-at, batch count): committed batches
    /// still occupying the validator until the transaction processors are
    /// done with them.
    executing: VecDeque<(SimTime, u32)>,
    /// Admission-load estimator (every validator signature-checks every
    /// gossiped batch).
    ingress: IngressLoad,
    /// Latest admission slowdown factor, applied to block execution.
    current_slowdown: f64,
}

impl Sawtooth {
    /// Builds a Sawtooth deployment from `config` with a deterministic
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero.
    pub fn new(config: SawtoothConfig, seed: u64) -> Self {
        assert!(config.nodes > 0, "need at least one validator");
        let seeds = SeedDeriver::new(seed);
        let total = config.nodes + config.standby;
        let pbft = PbftCluster::builder(config.nodes)
            .standby(config.standby)
            .seed(seeds.seed("pbft", 0))
            .net(config.net.clone())
            .topology(Topology::round_robin(total, total.min(8)))
            .period(config.publishing_delay)
            // The view-change timeout must comfortably exceed the
            // publishing cadence, or idle gaps between slow blocks would
            // look like a dead primary.
            .timeout((config.publishing_delay * 3).max(SimDuration::from_secs(4)))
            .batch(BatchConfig::new(
                config.batches_per_block,
                config.publishing_delay,
            ))
            .build();
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.nodes);
        rt.set_pool_limits(config.pool);
        let nodes = config.nodes;
        let m = SawtoothModel {
            exec_cpu: CpuModel::new(total),
            ingress: IngressLoad::new(SimDuration::from_secs(2), config.ingress_per_tx, 0.9),
            config,
            aborted_batches: 0,
            executing: VecDeque::new(),
            current_slowdown: 1.0,
        };
        Chain::from_parts(rt, pbft, nodes, m)
    }

    /// Batches discarded atomically because an inner transaction failed.
    pub fn aborted_batches(&self) -> u64 {
        self.m.aborted_batches
    }

    /// Validator queue occupancy in batches: batches waiting for a block
    /// plus batches whose execution has not finished by `now`. This is what
    /// Sawtooth's back-pressure looks at — blocks drain the *consensus*
    /// queue, but the transaction processors are the slow stage.
    fn occupancy(&mut self, now: SimTime) -> usize {
        let executing = &mut self.m.executing;
        while let Some(&(done, _)) = executing.front() {
            if done <= now {
                executing.pop_front();
            } else {
                break;
            }
        }
        self.engine.pending_len() + executing.iter().map(|&(_, n)| n as usize).sum::<usize>()
    }
}

impl SawtoothModel {
    fn pending_stalled(&self) -> bool {
        self.config
            .pending_stall_at
            .is_some_and(|n| self.config.nodes >= n)
    }
}

impl Model for SawtoothModel {
    type Protocol = Core<Pbft>;
    const NAME: &'static str = "Sawtooth";

    fn submit(c: &mut Sawtooth, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        c.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
        // Admission work is paid even for batches the full queue turns
        // away — feed the load estimator before the queue decides. The
        // flood-induced slowdown (1/(1 − u)) is what collapses Sawtooth
        // from 66.7 MTPS at RL = 200 to 14.3 at RL = 1600 (Table 17).
        c.m.current_slowdown = c.m.ingress.record(now, tx.op_count() as u32);
        c.rt.probe_mut()
            .utilization(Stage::Ingress, 1.0 - 1.0 / c.m.current_slowdown);
        // The bounded validator queue is the decisive Sawtooth behaviour:
        // a full queue rejects, and the client must re-send (COCONUT does
        // not, so the batch is lost).
        if c.occupancy(now) >= c.m.config.queue_limit {
            c.rt.reject();
            c.rt.probe_mut().shed(Stage::MempoolWait, 1);
            return SubmitOutcome::Rejected;
        }
        // The bounded pending store is a second line of defence behind
        // the validator queue: at capacity it sheds with backpressure
        // rather than the queue's hard reject.
        c.rt.evict_expired(now);
        if c.rt.pool_full() {
            return c.rt.busy();
        }
        c.rt.accept();
        if c.m.pending_stalled() {
            // §5.8.2: at 16/32 nodes everything stays pending forever.
            c.rt.probe_mut().shed(Stage::Consensus, 1);
            return SubmitOutcome::Accepted;
        }
        c.rt.mempool().insert(tx.clone());
        c.engine.submit(command_for(&tx));
        SubmitOutcome::Accepted
    }

    fn run_until(c: &mut Sawtooth, deadline: SimTime) -> Vec<TxOutcome> {
        let blocks = c.engine.run_until(deadline);
        c.rt.sync_membership(c.engine.active_count());
        for block in blocks {
            if block.commands.is_empty() {
                continue;
            }
            let ops: u64 = block.commands.iter().map(|cmd| cmd.ops as u64).sum();
            let block_id = c.rt.append_block(
                block.proposer,
                block.committed_at,
                block.commands.iter().map(|cmd| cmd.tx).collect(),
                Some(ops),
            );
            // Execute every batch at every validator (transaction
            // processors run per node); atomic batches roll back wholesale.
            let mut results = Vec::with_capacity(block.commands.len());
            let mut total_cost = SimDuration::ZERO;
            let slowdown = c.m.current_slowdown;
            for cmd in &block.commands {
                let Some(batch) = c.rt.mempool().take(&cmd.tx) else {
                    continue;
                };
                total_cost += (c.m.config.exec_per_tx * batch.op_count() as u64).mul_f64(slowdown);
                // Dry-run the batch atomically: all payloads must succeed.
                let mut scratch = c.state.clone();
                let mut ok = true;
                for p in batch.payloads() {
                    if scratch.apply(p).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    c.state = scratch;
                } else {
                    c.m.aborted_batches += 1;
                }
                results.push((cmd.tx, cmd.ops, ok, batch.created_at()));
            }
            let persist =
                c.rt.replicate(&mut c.m.exec_cpu, block.committed_at, total_cost);
            c.m.executing.push_back((persist, results.len() as u32));
            // Stage boundaries: batches wait in the validator queue from
            // submission to block commitment (Sawtooth exposes no separate
            // ordering boundary — block inclusion *is* the pickup), then
            // every validator runs the transaction processors, then the
            // slowest replica gates commit.
            let exec_end = block.committed_at + total_cost;
            for (txid, ops, ok, created_at) in results {
                let event_at = persist + c.rt.hop();
                let probe = c.rt.probe_mut();
                probe.span(Stage::MempoolWait, txid, created_at, block.committed_at);
                probe.span(Stage::Execution, txid, block.committed_at, exec_end);
                probe.span(Stage::Commit, txid, exec_end, persist);
                probe.span(Stage::Notify, txid, persist, event_at);
                if ok {
                    c.rt.emit_committed(txid, block_id, event_at, ops);
                } else {
                    c.rt.emit_failed(txid, FailReason::Conflict, event_at);
                }
            }
        }
        c.rt.drain(deadline)
    }

    fn conflicts(c: &Sawtooth) -> u64 {
        c.m.aborted_batches
    }

    fn is_live(c: &Sawtooth) -> bool {
        !c.m.pending_stalled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockchainSystem;
    use coconut_types::{ClientId, Payload, ThreadId, TxId};

    fn batch(seq: u64, payloads: Vec<Payload>) -> ClientTx {
        ClientTx::new(
            TxId::new(ClientId(0), seq),
            ThreadId(0),
            payloads,
            SimTime::ZERO,
        )
    }

    fn single(seq: u64, p: Payload) -> ClientTx {
        batch(seq, vec![p])
    }

    #[test]
    fn commits_a_batch() {
        let mut s = Sawtooth::new(SawtoothConfig::default(), 1);
        s.submit(
            SimTime::ZERO,
            batch(1, vec![Payload::key_value_set(1, 1); 10]),
        );
        let outcomes = s.run_until(SimTime::from_secs(10));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_committed());
        assert_eq!(outcomes[0].ops_confirmed(), 10);
    }

    #[test]
    fn queue_rejects_when_full() {
        let cfg = SawtoothConfig {
            queue_limit: 5,
            ..Default::default()
        };
        let mut s = Sawtooth::new(cfg, 2);
        let mut rejected = 0;
        for i in 0..20 {
            if !s
                .submit(SimTime::ZERO, single(i, Payload::DoNothing))
                .is_accepted()
            {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 15, "queue_limit=5 admits only the first five");
        assert_eq!(s.stats().rejected, 15);
    }

    #[test]
    fn queue_drains_between_blocks() {
        let cfg = SawtoothConfig {
            queue_limit: 5,
            publishing_delay: SimDuration::from_millis(200),
            ..Default::default()
        };
        let mut s = Sawtooth::new(cfg, 3);
        for i in 0..5 {
            s.submit(SimTime::ZERO, single(i, Payload::DoNothing));
        }
        let first = s.run_until(SimTime::from_secs(5));
        assert_eq!(first.len(), 5);
        // After draining, new submissions are accepted again.
        assert!(s
            .submit(s.engine.now(), single(9, Payload::DoNothing))
            .is_accepted());
    }

    #[test]
    fn atomic_batch_aborts_on_single_failure() {
        let mut s = Sawtooth::new(SawtoothConfig::default(), 4);
        // 9 good writes + 1 read of a missing key → whole batch dies.
        let mut payloads: Vec<Payload> = (0..9).map(|k| Payload::key_value_set(k, k)).collect();
        payloads.push(Payload::key_value_get(999));
        s.submit(SimTime::ZERO, batch(1, payloads));
        let outcomes = s.run_until(SimTime::from_secs(10));
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].is_committed());
        assert_eq!(s.aborted_batches(), 1);
        // None of the nine writes survive:
        assert!(s.world_state().is_empty());
    }

    #[test]
    fn publishing_delay_paces_blocks() {
        let cfg = SawtoothConfig {
            publishing_delay: SimDuration::from_secs(2),
            batches_per_block: 1,
            ..Default::default()
        };
        let mut s = Sawtooth::new(cfg, 5);
        for i in 0..3 {
            s.submit(SimTime::ZERO, single(i, Payload::DoNothing));
        }
        let outcomes = s.run_until(SimTime::from_secs(30));
        assert_eq!(outcomes.len(), 3);
        for w in outcomes.windows(2) {
            assert!(w[1].finalized_at - w[0].finalized_at >= SimDuration::from_secs(2));
        }
    }

    #[test]
    fn sixteen_nodes_leave_batches_pending() {
        let cfg = SawtoothConfig {
            nodes: 16,
            ..Default::default()
        };
        let mut s = Sawtooth::new(cfg, 6);
        assert!(!s.is_live());
        for i in 0..10 {
            assert!(s
                .submit(SimTime::ZERO, single(i, Payload::DoNothing))
                .is_accepted());
        }
        let outcomes = s.run_until(SimTime::from_secs(20));
        assert!(outcomes.is_empty(), "batches stay pending forever");
        assert_eq!(s.height(), 0);
    }

    #[test]
    fn high_rate_ingress_starves_execution() {
        // Submit the same number of batches either instantly spread over a
        // long window (low rate) or in a dense burst (high rate): the dense
        // burst's admission work delays execution completions.
        let run = |gap_us: u64| {
            let mut s = Sawtooth::new(SawtoothConfig::default(), 7);
            let mut last = SimTime::ZERO;
            let mut outcomes = Vec::new();
            for i in 0..50u64 {
                let at = SimTime::from_micros(i * gap_us);
                outcomes.extend(s.run_until(at));
                s.submit(at, batch(i, vec![Payload::DoNothing; 100]));
                last = at;
            }
            outcomes.extend(s.run_until(last + SimDuration::from_secs(600)));
            let committed = outcomes.iter().filter(|o| o.is_committed()).count();
            assert!(committed > 0);
            outcomes
                .iter()
                .map(|o| o.finalized_at.as_micros())
                .max()
                .unwrap()
        };
        let relaxed = run(500_000); // 2 batches/s
        let burst = run(1_000); // 1000 batches/s
                                // The burst finishes its last confirmation later relative to its
                                // last submission (50 × 0.5 s head start for relaxed).
        assert!(
            burst + 25_000_000 > relaxed,
            "ingress starvation must slow the burst: {burst} vs {relaxed}"
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut s = Sawtooth::new(SawtoothConfig::default(), seed);
            for i in 0..10 {
                s.submit(
                    SimTime::ZERO,
                    batch(i, vec![Payload::key_value_set(i, i); 5]),
                );
            }
            s.run_until(SimTime::from_secs(20))
                .iter()
                .map(|o| (o.tx, o.finalized_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8));
    }
}
