//! BitShares model: a Graphene-style DPoS chain with multi-operation
//! transactions.
//!
//! Pipeline: a COCONUT submission is one BitShares transaction carrying 1,
//! 50 or 100 *operations* (§4.4); pending transactions are packed into a
//! block by the scheduled witness every `block_interval`, and the client is
//! notified when the block is applied — which is why the paper finds the
//! finalization latency "close to the specified block_interval" (§5.3).
//!
//! Anomalies reproduced:
//! * **Interacting operations**: a transaction whose operations touch an
//!   account already touched by a *pending* transaction is discarded — the
//!   paper's conclusion that "BitShares does not include interacting
//!   operations or transactions in a block" (§5.3). The
//!   BankingApp-SendPayment workload (account *n* pays *n+1*) makes almost
//!   every transaction interact, so almost all are lost.
//! * **Atomicity**: if any operation fails during execution, the whole
//!   transaction is discarded.
//! * **Liveness stall after a conflict storm**: sustained interference
//!   stops the node from sending out finalized-transaction events (§5.3:
//!   "the system is no longer sending out finalized transactions, which
//!   consequently violates the liveness criterion"), which also sinks the
//!   *following* BankingApp-Balance benchmark of the same unit.
//! * **Per-transaction overhead**: the witness can pack only as many
//!   transactions as fit its per-slot CPU budget, capping single-operation
//!   throughput near 600 tx/s while 100-op transactions reach the full
//!   1,600 op/s of the workload (Table 11).

use std::collections::VecDeque;

use coconut_consensus::dpos::{Dpos, DposCluster};
use coconut_consensus::{BatchConfig, CommittedBatch, CpuModel};
use coconut_iel::StateKey;
use coconut_simnet::{NetConfig, Topology};
use coconut_types::{
    ClientTx, MixMap, NodeId, Payload, SeedDeriver, SimDuration, SimTime, TxId, TxOutcome,
};

use crate::chain::{Chain, Model};
use crate::runtime::{command_for, cut_by_budget, ChainRuntime, PoolLimits, Stage};
use crate::system::SubmitOutcome;

/// Per-transaction packing/verification overhead at the witness.
const PER_TX_OVERHEAD: SimDuration = SimDuration::from_micros(1_350);
/// Per-operation application cost.
const PER_OP_COST: SimDuration = SimDuration::from_micros(12);
/// Fraction of the slot the witness may spend producing a block.
const SLOT_BUDGET: f64 = 0.8;
/// Conflicted transactions after which event emission stalls (the
/// liveness violation).
const STALL_AFTER_CONFLICTS: u64 = 300;

/// Configuration of the BitShares deployment.
#[derive(Debug, Clone)]
pub struct BitsharesConfig {
    /// Number of witnesses (Table 4: n − 1 = 3 for the 4-node baseline).
    pub witnesses: u32,
    /// Pre-provisioned standby witnesses (ids after the baseline) that
    /// start outside the schedule and can be admitted at runtime via
    /// [`crate::system::BlockchainSystem::join_node`].
    pub standby: u32,
    /// `block_interval`: the witness slot length.
    pub block_interval: SimDuration,
    /// Network characteristics.
    pub net: NetConfig,
    /// Bounded-pool parameters for the runtime's pending store; at
    /// capacity the node answers `Busy` instead of queueing unboundedly.
    pub pool: PoolLimits,
}

impl Default for BitsharesConfig {
    /// The paper's baseline: 3 witnesses, 1 s block interval.
    fn default() -> Self {
        BitsharesConfig {
            witnesses: 3,
            standby: 0,
            block_interval: SimDuration::from_secs(1),
            net: NetConfig::lan(),
            pool: PoolLimits::bounded(100_000),
        }
    }
}

/// The modelled BitShares network (see module docs).
pub type Bitshares = Chain<BitsharesModel>;

/// BitShares' own state in its [`Chain`].
#[derive(Debug)]
pub struct BitsharesModel {
    config: BitsharesConfig,
    exec_cpu: CpuModel,
    /// Accounts/keys written by transactions still waiting for a block.
    pending_touched: MixMap<StateKey, TxId>,
    touched_by: MixMap<TxId, Vec<StateKey>>,
    /// Footprints of recently packed transactions, still interfering until
    /// `release_at` (one block interval past packing — Graphene's
    /// duplicate/TaPoS window), sorted by release time. Every footprint
    /// cools for the same two intervals, so a block's keys nearly always
    /// go at the back.
    cooling: VecDeque<(SimTime, StateKey)>,
    stalled: bool,
}

impl Bitshares {
    /// Builds a BitShares deployment from `config` with a deterministic
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.witnesses` is zero.
    pub fn new(config: BitsharesConfig, seed: u64) -> Self {
        assert!(config.witnesses > 0, "need at least one witness");
        let seeds = SeedDeriver::new(seed);
        let total = config.witnesses + config.standby;
        let dpos = DposCluster::builder(config.witnesses)
            .standby(config.standby)
            .seed(seeds.seed("dpos", 0))
            .net(config.net.clone())
            .topology(Topology::round_robin(total, total.min(8)))
            .block_interval(config.block_interval)
            // The slot CPU budget, not a count, bounds block content; keep
            // the count bound loose.
            .batch(BatchConfig::new(100_000, config.block_interval))
            .build();
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.witnesses);
        rt.set_pool_limits(config.pool);
        // The pool bound guards the witness-slot pipeline: a full pool
        // means slots are not draining fast enough — sheds book to
        // `Consensus`.
        rt.probe_mut().set_queue_stage(Stage::Consensus);
        let witnesses = config.witnesses;
        let m = BitsharesModel {
            exec_cpu: CpuModel::new(total),
            pending_touched: MixMap::default(),
            touched_by: MixMap::default(),
            cooling: VecDeque::new(),
            config,
            stalled: false,
        };
        Chain::from_parts(rt, dpos, witnesses, m)
    }

    /// Transactions rejected for interfering with pending ones.
    pub fn conflicts(&self) -> u64 {
        BitsharesModel::conflicts(self)
    }

    /// `true` once event emission has stalled.
    pub fn is_stalled(&self) -> bool {
        self.m.stalled
    }

    /// Packs, executes, and notifies one produced block.
    fn process_block(&mut self, block: CommittedBatch) {
        if block.commands.is_empty() {
            return;
        }
        let interval = self.m.config.block_interval;
        let witness = block.proposer;
        // Pack within the slot CPU budget; what does not fit stays for
        // the next block via re-submission to the engine.
        let budget = interval.mul_f64(SLOT_BUDGET);
        let (packed, overflow, used) =
            cut_by_budget(block.commands, budget, PER_TX_OVERHEAD, PER_OP_COST);
        for cmd in overflow {
            self.engine.submit(cmd);
        }
        let ops: u64 = packed.iter().map(|c| c.ops as u64).sum();
        let block_id = self.rt.append_block(
            witness,
            block.committed_at,
            packed.iter().map(|c| c.tx).collect(),
            Some(ops),
        );
        // Execute packed transactions atomically.
        let exec_done = self.m.exec_cpu.process(witness, block.committed_at, used);
        let mut emitted: Vec<(TxId, u32, bool, SimTime)> = Vec::new();
        let cooling_until = block.committed_at + interval * 2;
        for cmd in &packed {
            let Some(tx) = self.rt.mempool().take(&cmd.tx) else {
                continue;
            };
            // The footprint keeps interfering for one more block interval
            // (Graphene's duplicate/TaPoS window) before it is released.
            if let Some(keys) = self.m.touched_by.remove(&cmd.tx) {
                let cooling = &mut self.m.cooling;
                let at = cooling.partition_point(|&(t, _)| t <= cooling_until);
                for (i, k) in (at..).zip(keys) {
                    cooling.insert(i, (cooling_until, k));
                }
            }
            let mut scratch = self.state.clone();
            let mut ok = true;
            for p in tx.payloads() {
                if scratch.apply(p).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                self.state = scratch;
            }
            emitted.push((cmd.tx, cmd.ops, ok, tx.created_at()));
        }
        if self.m.stalled {
            // Liveness violation: no events leave the node — everything
            // executed here is shed at the notify stage.
            self.rt
                .probe_mut()
                .shed(Stage::Notify, emitted.len() as u64);
            return;
        }
        // Distribute the block to the other witnesses, then notify.
        let mut persist = exec_done;
        for w in 0..self.m.config.witnesses {
            if NodeId(w) != witness {
                persist = persist.max(exec_done + self.rt.hop());
            }
        }
        for (txid, ops, ok, created_at) in emitted {
            // Stage boundaries: the slot wait (including overflow re-
            // packing) is ordering, the witness's packed-block execution
            // spans committed_at → exec_done, and commit is block
            // distribution to the other witnesses.
            let probe = self.rt.probe_mut();
            probe.span(Stage::Consensus, txid, created_at, block.committed_at);
            probe.span(Stage::Execution, txid, block.committed_at, exec_done);
            probe.span(Stage::Commit, txid, exec_done, persist);
            if !ok {
                // Atomic abort: the transaction vanishes; the client is
                // never notified (a lost transaction).
                self.rt.probe_mut().shed(Stage::Execution, 1);
                continue;
            }
            let event_at = persist + self.rt.hop();
            self.rt
                .probe_mut()
                .span(Stage::Notify, txid, persist, event_at);
            self.rt.emit_committed(txid, block_id, event_at, ops);
        }
    }
}

/// The state keys a payload writes (interference footprint).
fn written_keys(payload: &Payload) -> Vec<StateKey> {
    match *payload {
        Payload::KeyValueSet { key, .. } => vec![StateKey::Kv(key)],
        Payload::CreateAccount { account, .. } => vec![StateKey::Checking(account)],
        Payload::SendPayment { from, to, .. } => {
            vec![StateKey::Checking(from), StateKey::Checking(to)]
        }
        Payload::TransactSavings { account, .. } | Payload::DepositChecking { account, .. } => {
            vec![StateKey::Checking(account), StateKey::Saving(account)]
        }
        Payload::WriteCheck { from, to, .. } => {
            vec![StateKey::Checking(from), StateKey::Checking(to)]
        }
        Payload::Amalgamate { from, to } => {
            vec![
                StateKey::Checking(from),
                StateKey::Saving(from),
                StateKey::Checking(to),
            ]
        }
        _ => vec![],
    }
}

impl Model for BitsharesModel {
    type Protocol = Dpos;
    const NAME: &'static str = "BitShares";

    fn submit(c: &mut Bitshares, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        c.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
        // A pool at capacity sheds with backpressure before any per-tx
        // work (footprint checks) is spent on the submission.
        c.rt.evict_expired(now);
        if c.rt.pool_full() {
            return c.rt.busy();
        }
        c.rt.accept();
        let m = &mut c.m;
        // Release footprints whose cooling window has passed.
        while let Some(&(release_at, key)) = m.cooling.front() {
            if release_at > now {
                break;
            }
            m.pending_touched.remove(&key);
            m.cooling.pop_front();
        }
        let mut keys: Vec<StateKey> = Vec::new();
        for p in tx.payloads() {
            keys.extend(written_keys(p));
        }
        keys.sort_unstable();
        keys.dedup();
        if keys.iter().any(|k| m.pending_touched.contains_key(k)) {
            // Interacting transaction: silently discarded — shed by the
            // interference check guarding execution.
            c.rt.reject();
            c.rt.probe_mut().shed(Stage::Execution, 1);
            if c.conflicts() >= STALL_AFTER_CONFLICTS {
                c.m.stalled = true;
            }
            return SubmitOutcome::Rejected;
        }
        for k in &keys {
            m.pending_touched.insert(*k, tx.id());
        }
        m.touched_by.insert(tx.id(), keys);
        c.rt.mempool().insert(tx.clone());
        c.engine.submit(command_for(&tx));
        SubmitOutcome::Accepted
    }

    fn run_until(c: &mut Bitshares, deadline: SimTime) -> Vec<TxOutcome> {
        // Step the witness schedule one event at a time so that overflow
        // re-submissions are pending again before the *next* slot fires.
        while let Some(t) = c.engine.next_event_time() {
            if t > deadline {
                break;
            }
            let blocks = c.engine.run_until(t);
            c.rt.sync_membership(c.engine.active_count());
            for block in blocks {
                c.process_block(block);
            }
        }
        c.engine.run_until(deadline); // advance the clock to the window end
        c.rt.sync_membership(c.engine.active_count());
        c.rt.drain(deadline)
    }

    /// Interference with a pending footprint is BitShares' only
    /// rejection, so the runtime's rejected counter is the conflict count.
    fn conflicts(c: &Bitshares) -> u64 {
        c.rt.stats().rejected
    }

    fn is_live(c: &Bitshares) -> bool {
        !c.m.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockchainSystem;
    use coconut_types::{AccountId, ClientId, ThreadId};

    fn tx_ops(seq: u64, payloads: Vec<Payload>) -> ClientTx {
        ClientTx::new(
            TxId::new(ClientId(0), seq),
            ThreadId(0),
            payloads,
            SimTime::ZERO,
        )
    }

    fn single(seq: u64, p: Payload) -> ClientTx {
        tx_ops(seq, vec![p])
    }

    #[test]
    fn latency_tracks_block_interval() {
        for secs in [1u64, 2] {
            let cfg = BitsharesConfig {
                block_interval: SimDuration::from_secs(secs),
                ..Default::default()
            };
            let mut b = Bitshares::new(cfg, 1);
            b.submit(SimTime::ZERO, single(1, Payload::DoNothing));
            let outcomes = b.run_until(SimTime::from_secs(secs * 3));
            assert_eq!(outcomes.len(), 1);
            let latency = outcomes[0].finalized_at - SimTime::ZERO;
            assert!(latency >= SimDuration::from_secs(secs));
            assert!(latency < SimDuration::from_secs(secs) + SimDuration::from_millis(200));
        }
    }

    #[test]
    fn multi_op_transactions_count_all_ops() {
        let mut b = Bitshares::new(BitsharesConfig::default(), 2);
        b.submit(SimTime::ZERO, tx_ops(1, vec![Payload::DoNothing; 100]));
        let outcomes = b.run_until(SimTime::from_secs(3));
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].ops_confirmed(), 100);
    }

    #[test]
    fn interacting_payments_are_rejected() {
        let mut b = Bitshares::new(BitsharesConfig::default(), 3);
        // Fund the accounts first (and let the creates' cooling window
        // lapse: packed at ~1 s + one interval).
        for n in 0..3u64 {
            b.submit(
                SimTime::ZERO,
                single(n, Payload::create_account(AccountId(n), 100, 0)),
            );
        }
        b.run_until(SimTime::from_secs(4));
        let now = b.engine.now();
        // Payment 0→1 pending, then 1→2 interacts via account 1.
        let first = b.submit(
            now,
            single(10, Payload::send_payment(AccountId(0), AccountId(1), 1)),
        );
        let second = b.submit(
            now,
            single(11, Payload::send_payment(AccountId(1), AccountId(2), 1)),
        );
        assert!(first.is_accepted());
        assert!(!second.is_accepted(), "interference with a pending tx");
        assert_eq!(b.conflicts(), 1);
    }

    #[test]
    fn footprint_released_after_block() {
        let mut b = Bitshares::new(BitsharesConfig::default(), 4);
        for n in 0..2u64 {
            b.submit(
                SimTime::ZERO,
                single(n, Payload::create_account(AccountId(n), 100, 0)),
            );
        }
        b.run_until(SimTime::from_secs(4));
        let t1 = b.engine.now();
        assert!(b
            .submit(
                t1,
                single(10, Payload::send_payment(AccountId(0), AccountId(1), 1))
            )
            .is_accepted());
        b.run_until(t1 + SimDuration::from_secs(5));
        // After the block plus the one-interval cooling window, the same
        // accounts are free again.
        let t2 = b.engine.now();
        assert!(b
            .submit(
                t2,
                single(11, Payload::send_payment(AccountId(0), AccountId(1), 1))
            )
            .is_accepted());
    }

    #[test]
    fn conflict_storm_stalls_liveness() {
        let mut b = Bitshares::new(BitsharesConfig::default(), 6);
        for n in 0..20u64 {
            b.submit(
                SimTime::ZERO,
                single(n, Payload::create_account(AccountId(n), 100, 0)),
            );
        }
        b.run_until(SimTime::from_secs(2));
        let now = b.engine.now();
        // A chain of interacting payments: every second one conflicts
        // until all twenty accounts are pending, then every one does.
        for n in 0..2 * STALL_AFTER_CONFLICTS {
            let from = AccountId(n % 19);
            let to = AccountId(n % 19 + 1);
            b.submit(now, single(100 + n, Payload::send_payment(from, to, 1)));
        }
        assert!(b.is_stalled(), "conflict storm must trip the stall");
        assert!(!b.is_live());
        // Later traffic gets no confirmations (the following Balance
        // benchmark of the unit sees nothing).
        let before = b.run_until(now + SimDuration::from_secs(5)).len();
        b.submit(b.engine.now(), single(999, Payload::balance(AccountId(0))));
        let after = b.run_until(b.engine.now() + SimDuration::from_secs(5));
        assert!(
            after.is_empty(),
            "stalled node emits no events ({before} before)"
        );
    }

    #[test]
    fn atomic_abort_loses_whole_transaction() {
        let mut b = Bitshares::new(BitsharesConfig::default(), 7);
        b.submit(
            SimTime::ZERO,
            single(1, Payload::create_account(AccountId(1), 5, 0)),
        );
        b.run_until(SimTime::from_secs(2));
        let now = b.engine.now();
        // 3 ops, the last one overdraws → all discarded, no event.
        let payloads = vec![
            Payload::create_account(AccountId(2), 5, 0),
            Payload::create_account(AccountId(3), 5, 0),
            Payload::send_payment(AccountId(1), AccountId(2), 100),
        ];
        b.submit(now, tx_ops(10, payloads));
        let outcomes = b.run_until(now + SimDuration::from_secs(3));
        assert!(outcomes.is_empty(), "atomic abort means no confirmation");
        // And none of the ops took effect:
        assert!(b
            .world_state()
            .get(&StateKey::Checking(AccountId(2)))
            .is_none());
    }

    #[test]
    fn slot_budget_caps_single_op_throughput() {
        // 3000 single-op txs at once: with ~1.35 ms per tx and an 0.8 s
        // budget, one block fits ≈ 590 — the paper's single-op ceiling.
        let mut b = Bitshares::new(BitsharesConfig::default(), 8);
        for n in 0..3000u64 {
            b.submit(SimTime::ZERO, single(n, Payload::DoNothing));
        }
        let outcomes = b.run_until(SimTime::from_millis(2_300));
        assert!(
            (400..700).contains(&outcomes.len()),
            "first block should carry ≈ 590 txs, got {}",
            outcomes.len()
        );
        // The rest follow in later blocks.
        let rest = b.run_until(SimTime::from_secs(20));
        assert_eq!(outcomes.len() + rest.len(), 3000);
    }

    #[test]
    fn hundred_op_transactions_hit_full_rate() {
        // 16 tx/s × 100 ops ≫ single-op ceiling: the per-tx overhead is
        // amortized (Table 11: 1,599.89 MTPS at RL = 1600 with 100 ops).
        let mut b = Bitshares::new(BitsharesConfig::default(), 9);
        for n in 0..16u64 {
            b.submit(SimTime::ZERO, tx_ops(n, vec![Payload::DoNothing; 100]));
        }
        let outcomes = b.run_until(SimTime::from_secs(2));
        let ops: u32 = outcomes.iter().map(|o| o.ops_confirmed()).sum();
        assert_eq!(ops, 1600, "all 1,600 operations in the first block");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut b = Bitshares::new(BitsharesConfig::default(), seed);
            for n in 0..30u64 {
                b.submit(SimTime::ZERO, single(n, Payload::key_value_set(n, n)));
            }
            b.run_until(SimTime::from_secs(5))
                .iter()
                .map(|o| (o.tx, o.finalized_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(10), run(10));
    }
}
