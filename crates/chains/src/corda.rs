//! Corda model (Open Source and Enterprise): a block-less UTXO ledger with
//! flow-based transaction processing and notary finality.
//!
//! A submission starts a *flow* on the client's node: the flow resolves
//! input states by querying the vault (a linear scan — §5.1 reason 1),
//! collects signatures from **every** node in the network (§5.1 reason 2:
//! "each of the four nodes must sign the submitted transaction"; Corda OS
//! does this *serially*, Corda Enterprise in parallel \[48\]), sends the
//! transaction to the notary for a double-spend check, and distributes
//! finality to all nodes before the client is notified.
//!
//! Edition differences reproduced (§5.1–§5.2):
//! * **Corda OS** signs serially with heavyweight flow checkpointing, scans
//!   the vault so slowly on reads that every KeyValue-Get times out inside
//!   the benchmark window, and chokes on submission handling at higher
//!   rate limiters (Table 7: 4.08 MTPS at RL = 20 *dropping* to 1.04 at
//!   RL = 160).
//! * **Corda Enterprise** signs in parallel with multithreaded flow
//!   processing — roughly an order of magnitude faster, with reads slow
//!   but functional.
//!
//! The notary rejects already-consumed states, which is what the
//! BankingApp-SendPayment benchmark provokes (§4.1).

use std::collections::HashMap;

use coconut_consensus::notary::NotaryPool;
use coconut_consensus::{LivenessMonitor, LivenessReport};
use coconut_iel::vault::Vault;
use coconut_simnet::FaultEvent;
use coconut_simnet::NetConfig;
use coconut_types::{
    tx::FailReason, AccountId, BlockId, ClientId, ClientTx, Payload, PayloadKind, SeedDeriver,
    SimDuration, SimTime, StateRef, TxId, TxOutcome,
};

use crate::runtime::{ChainRuntime, IngressLoad, PoolLimits, Stage, StageProbe};
use crate::system::{BlockchainSystem, SubmitOutcome, SystemStats};

/// Which Corda product is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edition {
    /// Corda Open Source: serial signing, slow vault iteration.
    OpenSource,
    /// Corda Enterprise: parallel signing, multithreaded flows.
    Enterprise,
}

/// Flow workers per node.
const FLOW_WORKERS: u32 = 1;
/// Notaries in the cluster (Table 4: one per server, four servers), capped
/// by the node count.
const MAX_NOTARIES: u32 = 4;

/// An edition's calibrated costs (§5.1–§5.2).
#[derive(Debug)]
struct Profile {
    /// CPU cost of one counterparty signature round (excluding network).
    sign_cost: SimDuration,
    /// Vault-scan cost per state for the duplicate check of a `Set`.
    set_scan_per_state: SimDuration,
    /// Vault-scan cost per state for read flows (`Get`, `Balance`,
    /// `SendPayment` input resolution).
    get_scan_per_state: SimDuration,
    /// Worker time consumed by merely receiving a submission.
    ingress_cost: SimDuration,
    /// Fixed flow overhead (session setup, checkpointing).
    flow_base: SimDuration,
    /// Notary service time per request.
    notary_service: SimDuration,
}

/// Corda Open Source: serial signing with heavyweight checkpointing, a
/// vault scan so slow that reads time out, and costly submission handling.
const OPEN_SOURCE: Profile = Profile {
    sign_cost: SimDuration::from_millis(250),
    set_scan_per_state: SimDuration::from_micros(300),
    get_scan_per_state: SimDuration::from_millis(200),
    ingress_cost: SimDuration::from_millis(24),
    flow_base: SimDuration::from_millis(5),
    notary_service: SimDuration::from_millis(5),
};

/// Corda Enterprise: multithreaded flow processing, roughly an order of
/// magnitude faster.
const ENTERPRISE: Profile = Profile {
    sign_cost: SimDuration::from_millis(55),
    set_scan_per_state: SimDuration::from_micros(100),
    get_scan_per_state: SimDuration::from_millis(1),
    ingress_cost: SimDuration::from_millis(2),
    flow_base: SimDuration::from_millis(3),
    notary_service: SimDuration::from_millis(2),
};

/// Configuration of the Corda deployment.
#[derive(Debug, Clone)]
pub struct CordaConfig {
    /// Which edition's performance profile to use.
    pub edition: Edition,
    /// Number of Corda nodes (paper baseline: 4; all of them sign). The
    /// notary cluster has one notary per node, at most four.
    pub nodes: u32,
    /// Pre-provisioned standby notaries (ids after the baseline) that
    /// start outside the cluster and can be admitted at runtime via
    /// [`crate::system::BlockchainSystem::join_node`].
    pub standby: u32,
    /// Network characteristics.
    pub net: NetConfig,
    /// `true` → signatures are collected one node after another (OS).
    pub serial_signing: bool,
    /// Bounded-pool parameters. Corda queues flows per node, so the
    /// capacity bounds each node's not-yet-finished flow backlog; a node
    /// at capacity answers `Busy` at RPC ingress.
    pub pool: PoolLimits,
}

impl CordaConfig {
    /// The paper's Corda Open Source profile.
    pub fn open_source() -> Self {
        CordaConfig {
            edition: Edition::OpenSource,
            nodes: 4,
            standby: 0,
            net: NetConfig::lan(),
            serial_signing: true,
            pool: PoolLimits::bounded(10_000),
        }
    }

    /// The paper's Corda Enterprise profile.
    pub fn enterprise() -> Self {
        CordaConfig {
            edition: Edition::Enterprise,
            serial_signing: false,
            ..CordaConfig::open_source()
        }
    }
}

use crate::util::WorkerPool;

/// The modelled Corda network (see module docs).
#[derive(Debug)]
pub struct Corda {
    config: CordaConfig,
    /// The edition's calibrated costs.
    profile: &'static Profile,
    /// Notaries currently in the cluster (joins/leaves reconcile against
    /// this; participant-node replication is a separate role and does not
    /// move with notary churn).
    notary_members: u32,
    rt: ChainRuntime,
    workers: Vec<WorkerPool>,
    vault: Vault,
    notary: NotaryPool,
    finalized: u64,
    notary_conflicts: u64,
    lost_to_notary_outage: u64,
    now: SimTime,
    /// Per-node ingress-load estimators (submission-rate slowdown).
    ingress: Vec<IngressLoad>,
    /// Per-node completion times of flows still running — the node's
    /// backlog for backpressure purposes.
    pending_flows: Vec<Vec<SimTime>>,
    /// Accounts whose latest Smallbank write has not yet finished finality
    /// distribution: account → (time the write becomes visible on every
    /// node, the input refs that write consumed). A flow touching such an
    /// account before `visible_at` resolved its inputs against the stale
    /// vault view and presents the already-consumed refs to the notary —
    /// the double-spend rejection path. Empty for the paper's workloads
    /// (only Smallbank payload kinds are tracked), so their streams and
    /// timings are untouched.
    pending_writes: HashMap<AccountId, (SimTime, Vec<StateRef>)>,
    /// Finality-cadence liveness tracker. Corda is block-less, so each
    /// notarized finality counts as one commit; there is no view-change
    /// concept (notary fail-over is silent).
    liveness: LivenessMonitor,
}

impl Corda {
    /// Builds a Corda deployment from `config` with a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero.
    pub fn new(config: CordaConfig, seed: u64) -> Self {
        assert!(config.nodes > 0, "need at least one node");
        let notaries = config.nodes.min(MAX_NOTARIES);
        let profile = match config.edition {
            Edition::OpenSource => &OPEN_SOURCE,
            Edition::Enterprise => &ENTERPRISE,
        };
        let seeds = SeedDeriver::new(seed);
        let mut rt = ChainRuntime::new(&seeds, &config.net, config.nodes);
        rt.set_pool_limits(config.pool);
        // The flow-backlog cap guards work headed for notarization, so
        // generic sheds (busy answers) book against the commit stage.
        rt.probe_mut().set_queue_stage(Stage::Commit);
        Corda {
            notary_members: notaries,
            profile,
            rt,
            pending_flows: (0..config.nodes).map(|_| Vec::new()).collect(),
            workers: (0..config.nodes)
                .map(|_| WorkerPool::new(FLOW_WORKERS))
                .collect(),
            vault: Vault::new(),
            notary: NotaryPool::new(notaries, profile.notary_service).with_standby(config.standby),
            ingress: (0..config.nodes)
                .map(|_| IngressLoad::new(SimDuration::from_secs(1), profile.ingress_cost, 0.95))
                .collect(),
            pending_writes: HashMap::new(),
            liveness: LivenessMonitor::default(),
            config,
            finalized: 0,
            notary_conflicts: 0,
            lost_to_notary_outage: 0,
            now: SimTime::ZERO,
        }
    }

    /// Transactions finalized across all nodes.
    pub fn finalized(&self) -> u64 {
        self.finalized
    }

    /// Notarization conflicts (double-spends rejected).
    pub fn notary_conflicts(&self) -> u64 {
        self.notary_conflicts
    }

    /// Transactions lost because every notary was down when they needed
    /// notarization (no outcome is ever emitted for them).
    pub fn lost_to_notary_outage(&self) -> u64 {
        self.lost_to_notary_outage
    }

    /// Crashes notary `idx` (fault injection). Requests whose home shard
    /// is down fail over to the next alive notary; once every notary is
    /// down, finality halts and write transactions are lost.
    pub fn crash_notary(&mut self, idx: u32) -> bool {
        self.notary.crash(idx as usize)
    }

    /// Recovers notary `idx`; it resumes serving from the current virtual
    /// time with its consumed-state table intact.
    pub fn recover_notary(&mut self, idx: u32) -> bool {
        self.notary.recover(idx as usize, self.now)
    }

    /// The vault of unconsumed states.
    pub fn vault(&self) -> &Vault {
        &self.vault
    }

    fn hop(&mut self) -> SimDuration {
        self.rt.hop()
    }

    /// The accounts a Smallbank payload writes (the states whose in-flight
    /// finality opens the notary double-spend window). Empty for every
    /// paper payload kind.
    fn smallbank_accounts(payload: &Payload) -> Vec<AccountId> {
        match *payload {
            Payload::TransactSavings { account, .. } | Payload::DepositChecking { account, .. } => {
                vec![account]
            }
            Payload::WriteCheck { from, to, .. } | Payload::Amalgamate { from, to } => {
                vec![from, to]
            }
            _ => vec![],
        }
    }

    /// Wall time of the signature collection round.
    fn signing_time(&mut self) -> SimDuration {
        let others = self.config.nodes.saturating_sub(1) as u64;
        if others == 0 {
            return SimDuration::ZERO;
        }
        // Managing each counterparty session costs the initiating flow a
        // little work even when signing is parallel, which is why Corda
        // Enterprise still declines as the network grows (§5.8.2: "the
        // additional communication with the other nodes").
        let session_overhead = SimDuration::from_millis(3) * others;
        if self.config.serial_signing {
            let mut total = session_overhead;
            for _ in 0..others {
                total += self.profile.sign_cost + self.hop() + self.hop();
            }
            total
        } else {
            let mut max = SimDuration::ZERO;
            for _ in 0..others {
                max = max.max(self.profile.sign_cost + self.hop() + self.hop());
            }
            max + session_overhead
        }
    }
}

impl BlockchainSystem for Corda {
    fn name(&self) -> &str {
        match self.config.edition {
            Edition::OpenSource => "Corda OS",
            Edition::Enterprise => "Corda Enterprise",
        }
    }

    fn node_count(&self) -> u32 {
        self.config.nodes
    }

    fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        self.now = self.now.max(now);
        let node = (tx.id().client().0 % self.config.nodes) as usize;
        // RPC ingress backpressure: a node whose flow backlog is at
        // capacity answers `Busy` before any flow work is queued.
        self.pending_flows[node].retain(|&done| done > now);
        if self.pending_flows[node].len() >= self.rt.pool_limits().capacity {
            self.rt.probe_mut().span(Stage::Ingress, tx.id(), now, now);
            return self.rt.busy();
        }
        self.rt.accept();
        let arrival = now + self.hop();
        self.rt
            .probe_mut()
            .span(Stage::Ingress, tx.id(), now, arrival);
        let payload = &tx.payloads()[0];
        let kind = payload.kind();

        // Resolve the flow against the vault *as of processing*, which we
        // approximate with the current vault (submissions are processed in
        // order per node).
        let built = self.vault.build_tx(payload);
        let scan_cost = match kind {
            PayloadKind::KeyValueSet => self.profile.set_scan_per_state * self.vault.len() as u64,
            PayloadKind::KeyValueGet
            | PayloadKind::Balance
            | PayloadKind::SendPayment
            | PayloadKind::TransactSavings
            | PayloadKind::DepositChecking
            | PayloadKind::WriteCheck
            | PayloadKind::Amalgamate => {
                let scanned = built.as_ref().map_or(self.vault.len(), |t| t.scanned);
                self.profile.get_scan_per_state * scanned as u64
            }
            _ => SimDuration::ZERO,
        };

        // The node's flow machinery also serves RPC ingress; each
        // submission costs the edition's `ingress_cost` of shared CPU, so
        // at high rate limiters the flows themselves run on what is left —
        // the paper's observation that raising RL from 20 to 160 *drops*
        // Corda OS from 4.08 to 1.04 MTPS (Tables 7–8).
        let slowdown = self.ingress[node].record(arrival, 1);
        self.rt
            .probe_mut()
            .utilization(Stage::Ingress, 1.0 - 1.0 / slowdown);
        match built {
            Err(_) => {
                // The flow errors after doing the scan work.
                let cost = (self.profile.flow_base + scan_cost).mul_f64(slowdown);
                let (_, done) = self.workers[node].process_spanned(arrival, cost);
                self.pending_flows[node].push(done);
                let event_at = done + self.hop();
                self.rt
                    .probe_mut()
                    .span(Stage::Execution, tx.id(), arrival, done);
                self.rt
                    .probe_mut()
                    .span(Stage::Notify, tx.id(), done, event_at);
                self.rt
                    .emit_failed(tx.id(), FailReason::ExecutionError, event_at);
                SubmitOutcome::Accepted
            }
            Ok(corda_tx) => {
                let read_only = corda_tx.inputs.is_empty() && corda_tx.outputs.is_empty();
                let mut cost = self.profile.flow_base + scan_cost;
                if !read_only {
                    cost += self.signing_time();
                }
                let (start, done) =
                    self.workers[node].process_spanned(arrival, cost.mul_f64(slowdown));
                self.pending_flows[node].push(done);
                if read_only {
                    // Get/Balance: answered locally after the scan.
                    let event_at = done + self.hop();
                    self.rt
                        .probe_mut()
                        .span(Stage::Execution, tx.id(), arrival, done);
                    self.rt
                        .probe_mut()
                        .span(Stage::Notify, tx.id(), done, event_at);
                    self.rt.emit_committed(tx.id(), BlockId(0), event_at, 1);
                    return SubmitOutcome::Accepted;
                }
                // Waiting on a free flow worker is time spent queued for the
                // signing/notarization path, so it books against Commit; the
                // scan+build portion of the service time is Execution, the
                // signature collection onward is Commit again.
                let exec_part = (self.profile.flow_base + scan_cost).mul_f64(slowdown);
                let exec_end = start + exec_part;
                self.rt
                    .probe_mut()
                    .span(Stage::Commit, tx.id(), arrival, start);
                self.rt
                    .probe_mut()
                    .span(Stage::Execution, tx.id(), start, exec_end);
                // Notarization. A Smallbank flow that resolved an account
                // whose previous write is still distributing finality built
                // against the stale vault view: it presents that write's
                // already-consumed input refs and the notary rejects the
                // double-spend. Paper payloads never populate
                // `pending_writes`, so this path costs them nothing.
                let touched = Self::smallbank_accounts(payload);
                let mut stale_inputs: Option<Vec<StateRef>> = None;
                if !touched.is_empty() {
                    self.pending_writes.retain(|_, (vis, _)| *vis > now);
                    for a in &touched {
                        if let Some((vis, refs)) = self.pending_writes.get(a) {
                            if *vis > arrival && !refs.is_empty() {
                                stale_inputs = Some(refs.clone());
                                break;
                            }
                        }
                    }
                }
                let request_inputs = stale_inputs.as_ref().unwrap_or(&corda_tx.inputs);
                let notary_arrival = done + self.hop();
                let Some(response) = self.notary.request(notary_arrival, tx.id(), request_inputs)
                else {
                    // Every notary is down: the flow hangs awaiting a
                    // signature that never comes. The client never hears
                    // back — finality has halted.
                    self.lost_to_notary_outage += 1;
                    self.rt.probe_mut().shed(Stage::Commit, 1);
                    return SubmitOutcome::Accepted;
                };
                if !response.is_signed() {
                    self.notary_conflicts += 1;
                    let event_at = response.completed_at + self.hop() + self.hop();
                    self.rt.probe_mut().span(
                        Stage::Commit,
                        tx.id(),
                        exec_end,
                        response.completed_at,
                    );
                    self.rt.probe_mut().span(
                        Stage::Notify,
                        tx.id(),
                        response.completed_at,
                        event_at,
                    );
                    self.rt.emit_failed(tx.id(), FailReason::Conflict, event_at);
                    return SubmitOutcome::Accepted;
                }
                self.vault.commit(tx.id(), &corda_tx);
                self.finalized += 1;
                self.liveness.observe_commit(response.completed_at);
                self.liveness
                    .observe_progress(coconut_types::NodeId(node as u32), response.completed_at);
                self.rt.note_finality(); // block-less: each finality counts
                                         // Finality distribution: the transaction must reach every
                                         // node before the client hears about it.
                let back = response.completed_at + self.hop();
                let mut persist = back;
                for _ in 1..self.config.nodes {
                    persist = persist.max(back + self.hop());
                }
                for a in touched {
                    self.pending_writes
                        .insert(a, (persist, corda_tx.inputs.clone()));
                }
                let event_at = persist + self.hop();
                self.rt
                    .probe_mut()
                    .span(Stage::Commit, tx.id(), exec_end, persist);
                self.rt
                    .probe_mut()
                    .span(Stage::Notify, tx.id(), persist, event_at);
                self.rt.emit_committed(tx.id(), BlockId(0), event_at, 1);
                SubmitOutcome::Accepted
            }
        }
    }

    fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
        self.now = self.now.max(deadline);
        self.notary.settle(deadline);
        let active = self.notary.active_count();
        while self.notary_members < active {
            self.rt.note_join();
            self.notary_members += 1;
        }
        while self.notary_members > active {
            self.rt.note_leave();
            self.notary_members -= 1;
        }
        self.rt.drain(deadline)
    }

    fn listen_until(&mut self, end: SimTime) {
        self.rt.listen_until(end);
    }

    fn stats(&self) -> SystemStats {
        let mut s = self.rt.stats();
        s.conflicts = self.notary_conflicts;
        s
    }

    fn preload(&mut self, payloads: &[Payload]) {
        // Install states directly in the vault (and nowhere else): preload
        // bypasses flows, signing, and the notary, so it consumes no
        // virtual time and draws no RNG.
        for (i, p) in payloads.iter().enumerate() {
            if let Ok(built) = self.vault.build_tx(p) {
                self.vault
                    .commit(TxId::new(ClientId(u32::MAX), i as u64), &built);
            }
        }
    }

    fn ledger_state(&self) -> Option<coconut_iel::LedgerState> {
        Some(self.vault.ledger_state())
    }

    fn is_live(&self) -> bool {
        self.notary.alive_count() > 0
    }

    fn crash_node(&mut self, node: coconut_types::NodeId) -> bool {
        self.crash_notary(node.0)
    }

    fn recover_node(&mut self, node: coconut_types::NodeId) -> bool {
        self.recover_notary(node.0)
    }

    fn join_node(&mut self, now: SimTime, node: coconut_types::NodeId) -> bool {
        self.notary.join(now, node.0 as usize)
    }

    fn leave_node(&mut self, _now: SimTime, node: coconut_types::NodeId) -> bool {
        self.notary.leave(node.0 as usize)
    }

    fn config_epoch(&self) -> u64 {
        self.notary.config_epoch()
    }

    fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        // Corda's flows are point-to-point RPC — there is no consensus
        // message fabric to partition. The one gray failure with a faithful
        // mapping is a slow node: the notary keeps answering, just
        // stretched, which is exactly a gray-degraded uniqueness service.
        match event {
            FaultEvent::SlowNode {
                node,
                factor,
                window,
            } => self
                .notary
                .slow_down(node.0 as usize, *factor, at + *window),
            _ => false,
        }
    }

    fn liveness_report(&self) -> Option<LivenessReport> {
        Some(self.liveness.report(self.now))
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
    use coconut_types::{AccountId, ClientId, Payload, ThreadId, TxId};

    fn tx(seq: u64, payload: Payload) -> ClientTx {
        ClientTx::single(
            TxId::new(ClientId(seq as u32 % 4), seq),
            ThreadId(0),
            payload,
            SimTime::ZERO,
        )
    }

    #[test]
    fn enterprise_is_roughly_an_order_faster_than_os() {
        let latency = |cfg: CordaConfig| {
            let mut c = Corda::new(cfg, 1);
            c.submit(SimTime::ZERO, tx(1, Payload::key_value_set(1, 1)));
            let outcomes = c.run_until(SimTime::from_secs(30));
            assert_eq!(outcomes.len(), 1);
            assert!(outcomes[0].is_committed());
            (outcomes[0].finalized_at - SimTime::ZERO).as_micros()
        };
        let os = latency(CordaConfig::open_source());
        let ent = latency(CordaConfig::enterprise());
        assert!(
            os > ent * 5,
            "serial OS signing ({os}µs) must dwarf parallel Enterprise ({ent}µs)"
        );
    }

    #[test]
    fn os_throughput_is_single_digit() {
        // Table 7: Corda OS KeyValue-Set at RL = 20 → ≈ 4 MTPS.
        let mut c = Corda::new(CordaConfig::open_source(), 2);
        // 20/s for 20 virtual seconds.
        let mut outcomes = Vec::new();
        for i in 0..400u64 {
            let at = SimTime::from_micros(i * 50_000);
            outcomes.extend(c.run_until(at));
            c.submit(at, tx(i, Payload::key_value_set(i, i)));
        }
        outcomes.extend(c.run_until(SimTime::from_secs(22)));
        let committed = outcomes.iter().filter(|o| o.is_committed()).count();
        let rate = committed as f64 / 22.0;
        assert!(
            (2.0..8.0).contains(&rate),
            "OS Set throughput should be single-digit, got {rate:.1}/s"
        );
    }

    #[test]
    fn os_reads_mostly_never_finish_in_a_window() {
        // §5.1: KeyValue-Get effectively fails on Corda OS — the per-state
        // flow iteration makes a read over a populated vault take minutes,
        // so a stream of reads confirms essentially nothing in a window.
        let mut c = Corda::new(CordaConfig::open_source(), 3);
        for i in 0..300u64 {
            c.submit(SimTime::ZERO, tx(i, Payload::key_value_set(i, i)));
        }
        c.run_until(SimTime::from_secs(400));
        let vault_size = c.vault().len();
        assert!(vault_size > 100);
        let t0 = SimTime::from_secs(400);
        // 40 reads of late-inserted keys, all on one node:
        for (i, key) in (260..300u64).enumerate() {
            c.submit(
                t0,
                ClientTx::single(
                    TxId::new(ClientId(0), 2000 + i as u64),
                    ThreadId(0),
                    Payload::key_value_get(key),
                    t0,
                ),
            );
        }
        // 330 s listen window after the reads (ignore stragglers from the
        // write phase, whose flows are still draining):
        let outcomes = c.run_until(t0 + SimDuration::from_secs(330));
        let done = outcomes
            .iter()
            .filter(|o| o.is_committed() && o.tx.seq() >= 2000)
            .count();
        assert!(
            done <= 8,
            "reads over {vault_size} states at 200 ms/state must starve: {done}/40 done"
        );
    }

    #[test]
    fn enterprise_reads_work() {
        let mut c = Corda::new(CordaConfig::enterprise(), 4);
        for i in 0..100u64 {
            c.submit(SimTime::ZERO, tx(i, Payload::key_value_set(i, i)));
        }
        c.run_until(SimTime::from_secs(60));
        let t0 = SimTime::from_secs(60);
        c.submit(t0, tx(1000, Payload::key_value_get(5)));
        let outcomes = c.run_until(t0 + SimDuration::from_secs(30));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_committed());
    }

    #[test]
    fn notary_rejects_double_spends() {
        let mut c = Corda::new(CordaConfig::enterprise(), 5);
        c.submit(
            SimTime::ZERO,
            tx(1, Payload::create_account(AccountId(1), 100, 0)),
        );
        c.submit(
            SimTime::ZERO,
            tx(2, Payload::create_account(AccountId(2), 100, 0)),
        );
        c.run_until(SimTime::from_secs(5));
        let t = SimTime::from_secs(5);
        // Both payments consume account 1's current state.
        c.submit(
            t,
            tx(10, Payload::send_payment(AccountId(1), AccountId(2), 10)),
        );
        // The second resolves the *new* state only after the first commits;
        // submit in the same instant so both resolve the same input.
        let outcomes = c.run_until(SimTime::from_secs(60));
        assert!(outcomes.iter().all(|o| o.is_committed()));
        // Sanity: balances moved once.
        let q = c.vault().build_tx(&Payload::balance(AccountId(2))).unwrap();
        assert_eq!(q.value, Some(110));
    }

    #[test]
    fn serial_vs_parallel_signing_gap_scales_with_nodes() {
        let latency = |nodes: u32, serial: bool| {
            let mut cfg = CordaConfig::enterprise();
            cfg.nodes = nodes;
            cfg.serial_signing = serial;
            let mut c = Corda::new(cfg, 6);
            c.submit(SimTime::ZERO, tx(1, Payload::DoNothing));
            let outcomes = c.run_until(SimTime::from_secs(600));
            assert_eq!(outcomes.len(), 1);
            (outcomes[0].finalized_at - SimTime::ZERO).as_micros()
        };
        let serial_8 = latency(8, true);
        let parallel_8 = latency(8, false);
        assert!(serial_8 > parallel_8 * 3, "{serial_8} vs {parallel_8}");
        // Serial cost grows with n, parallel barely:
        assert!(latency(16, true) > serial_8 * 15 / 10);
        assert!(latency(16, false) < parallel_8 * 2);
    }

    #[test]
    fn os_ingress_chokes_at_high_rate() {
        // Table 7/8: raising RL from 20 to 160 *reduces* OS throughput.
        let committed_at_rate = |gap_us: u64, n: u64| {
            let mut c = Corda::new(CordaConfig::open_source(), 7);
            let mut outcomes = Vec::new();
            for i in 0..n {
                let at = SimTime::from_micros(i * gap_us);
                outcomes.extend(c.run_until(at));
                c.submit(at, tx(i, Payload::key_value_set(i, i)));
            }
            let window = SimTime::from_micros(n * gap_us) + SimDuration::from_secs(30);
            outcomes.extend(c.run_until(window));
            outcomes.iter().filter(|o| o.is_committed()).count()
        };
        // Same 30 s of traffic at 20/s vs 160/s.
        let low = committed_at_rate(50_000, 600);
        let high = committed_at_rate(6_250, 4800);
        assert!(
            high < low,
            "higher rate must confirm fewer (ingress starvation): {low} vs {high}"
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = Corda::new(CordaConfig::enterprise(), seed);
            for i in 0..40u64 {
                c.submit(SimTime::ZERO, tx(i, Payload::key_value_set(i, i)));
            }
            c.run_until(SimTime::from_secs(60))
                .iter()
                .map(|o| (o.tx, o.finalized_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8));
    }

    #[test]
    fn stats_count_finality() {
        let mut c = Corda::new(CordaConfig::enterprise(), 9);
        for i in 0..5u64 {
            c.submit(SimTime::ZERO, tx(i, Payload::DoNothing));
        }
        c.run_until(SimTime::from_secs(10));
        assert_eq!(c.finalized(), 5);
        assert_eq!(c.stats().accepted, 5);
        assert_eq!(c.stats().outcomes_emitted, 5);
    }
}
