//! The common interface every modelled blockchain system implements.

use coconut_consensus::{LivenessReport, SafetyReport};
use coconut_simnet::{ByzantineBehaviour, FaultEvent};
use coconut_types::{ClientTx, NodeId, SimDuration, SimTime, TxOutcome};

use crate::runtime::{StageProbe, StageReport};

/// What happened to a submission at the system's ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The system accepted the transaction; its fate arrives later as a
    /// [`TxOutcome`] from [`BlockchainSystem::run_until`].
    Accepted,
    /// The system rejected the transaction at the door (e.g. Sawtooth's
    /// full validator queue). No further outcome will be produced; from the
    /// client's perspective the transaction is lost unless re-sent.
    Rejected,
    /// The system is overloaded and sheds the submission with explicit
    /// backpressure: the client should wait at least `retry_after` before
    /// re-sending. Like [`SubmitOutcome::Rejected`] no outcome follows, but
    /// the signal is retryable by design — a well-behaved client treats it
    /// as flow control, not as failure.
    Busy {
        /// Minimum advisory delay before re-submission.
        retry_after: SimDuration,
    },
}

impl SubmitOutcome {
    /// `true` if the transaction entered the system.
    pub fn is_accepted(self) -> bool {
        matches!(self, SubmitOutcome::Accepted)
    }

    /// `true` if the system shed the submission with backpressure.
    pub fn is_busy(self) -> bool {
        matches!(self, SubmitOutcome::Busy { .. })
    }

    /// The advisory retry delay carried by a [`SubmitOutcome::Busy`]
    /// verdict, if any.
    pub fn retry_after(self) -> Option<SimDuration> {
        match self {
            SubmitOutcome::Busy { retry_after } => Some(retry_after),
            _ => None,
        }
    }
}

/// Aggregate counters a system reports after (or during) a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Transactions accepted at ingress.
    pub accepted: u64,
    /// Transactions rejected at ingress.
    pub rejected: u64,
    /// Submissions shed with a [`SubmitOutcome::Busy`] backpressure signal.
    pub busy: u64,
    /// Pending transactions evicted from a bounded mempool (capacity or
    /// TTL) before they could execute.
    pub evicted: u64,
    /// Blocks (or finality rounds) produced.
    pub blocks: u64,
    /// Client-visible outcomes emitted.
    pub outcomes_emitted: u64,
    /// Consensus-level network messages sent.
    pub consensus_messages: u64,
    /// Nodes admitted to the membership at runtime (completed joins).
    pub joins: u64,
    /// Nodes removed from the membership at runtime (completed leaves).
    pub leaves: u64,
    /// Transactions lost to the system's own concurrency-control path:
    /// Fabric MVCC invalidations, Corda notary double-spend rejections,
    /// BitShares interacting-operation rejections, Sawtooth aborted
    /// batches. Zero for systems (or workloads) that never conflict.
    pub conflicts: u64,
}

/// A blockchain system under test: the COCONUT framework submits
/// transactions and drives virtual time, collecting end-to-end outcomes.
///
/// The contract mirrors the paper's end-to-end methodology: an outcome's
/// [`TxOutcome::finalized_at`] is the instant the *client* learns the
/// transaction's fate — after the transaction is persisted on all nodes and
/// the notification has crossed the network back to the client.
pub trait BlockchainSystem {
    /// A short stable name ("Fabric", "Corda OS", ...).
    fn name(&self) -> &str;

    /// Number of blockchain nodes in the deployment.
    fn node_count(&self) -> u32;

    /// Submits `tx` at virtual time `now`.
    ///
    /// Implementations must tolerate `now` values at or after the time of
    /// the last event they processed; the framework always drives
    /// `run_until(now)` before submitting at `now`.
    fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome;

    /// Advances the system to `deadline`, returning the outcomes whose
    /// client notification fired in this window (ordering follows
    /// notification time; an implementation may return outcomes stamped
    /// slightly past `deadline` when a commit straddles it).
    fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome>;

    /// Aggregate counters.
    fn stats(&self) -> SystemStats;

    /// Installs `payloads` directly into the system's ledger before the
    /// run, bypassing consensus (workload preload: account pools, initial
    /// keyspace). The default does nothing — systems without a ledger
    /// (test doubles) ignore preloads.
    fn preload(&mut self, payloads: &[coconut_types::Payload]) {
        let _ = payloads;
    }

    /// Snapshots the committed ledger for post-run workload invariant
    /// checks (`Workload::verify`-style). `None` when the system exposes
    /// no inspectable ledger.
    fn ledger_state(&self) -> Option<coconut_iel::LedgerState> {
        None
    }

    /// `false` once the system has ceased serving confirmations — the
    /// paper's liveness violation (e.g. Quorum's stalled txpool).
    fn is_live(&self) -> bool {
        true
    }

    /// Crashes the system's node `node` (fault injection). Each model maps
    /// the id onto its crashable role — Raft orderer (Fabric), validator
    /// (Quorum, Sawtooth, Diem), witness (BitShares), notary (Corda).
    /// Returns `true` if the crash was modelled; the default implementation
    /// supports no faults and returns `false`.
    fn crash_node(&mut self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Recovers a previously crashed node with the system's own
    /// protocol-correct catch-up (re-election and log replay for Raft,
    /// view/round change for PBFT/IBFT, pacemaker sync for DiemBFT, slot
    /// re-entry for DPoS, shard fail-back for the Corda notary pool).
    /// Returns `true` if the recovery was modelled.
    fn recover_node(&mut self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Applies a network-level fault (partition, heal, loss burst, latency
    /// spike) to the system's consensus message fabric at virtual time
    /// `at`. Returns `true` if the fault was applied; systems without a
    /// message-level network model (Corda's point-to-point flows) return
    /// `false`.
    fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        let _ = (at, event);
        false
    }

    /// Flags `node` to exhibit `behaviour` until virtual time `until`
    /// (Byzantine fault injection). Only systems whose consensus has a
    /// Byzantine quorum (PBFT, IBFT, DiemBFT) model this; crash-fault-
    /// tolerant systems (Raft ordering, DPoS slots, Corda notaries) have no
    /// equivocation or double-vote concept and return `false`.
    fn inject_byzantine(
        &mut self,
        node: NodeId,
        behaviour: ByzantineBehaviour,
        until: SimTime,
    ) -> bool {
        let _ = (node, behaviour, until);
        false
    }

    /// Starts admitting a pre-provisioned standby node `node` to the
    /// system's membership at virtual time `now`. The node syncs the
    /// ledger first (state transfer) and only becomes a full member — able
    /// to vote, lead, produce, or notarize — once catch-up completes, at
    /// which point the configuration epoch advances. Returns `true` if the
    /// join was initiated; the default implementation models no membership
    /// changes and returns `false`.
    fn join_node(&mut self, now: SimTime, node: NodeId) -> bool {
        let _ = (now, node);
        false
    }

    /// Removes member `node` from the system's membership at virtual time
    /// `now` through the system's own reconfiguration path (config entry,
    /// epoch change, schedule regeneration, pool resize). Returns `true`
    /// if the departure was initiated.
    fn leave_node(&mut self, now: SimTime, node: NodeId) -> bool {
        let _ = (now, node);
        false
    }

    /// Applies one scheduled fault at virtual time `at` and returns the
    /// verdict of the method it routes to:
    ///
    /// - `CrashNode`/`RestartNode` go to [`BlockchainSystem::crash_node`] /
    ///   [`BlockchainSystem::recover_node`];
    /// - `EquivocateProposer`/`DoubleVote` go to
    ///   [`BlockchainSystem::inject_byzantine`] with the event's window
    ///   converted to an absolute expiry (CFT systems decline the injection
    ///   and carry no safety report);
    /// - `JoinNode`/`LeaveNode` go to [`BlockchainSystem::join_node`] /
    ///   [`BlockchainSystem::leave_node`] (membership churn: the join starts
    ///   the catch-up path, and the engine admits the voter only after sync
    ///   completes);
    /// - network faults go to [`BlockchainSystem::apply_net_fault`].
    fn apply_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        match *event {
            FaultEvent::CrashNode(node) => self.crash_node(node),
            FaultEvent::RestartNode(node) => self.recover_node(node),
            FaultEvent::EquivocateProposer { node, window } => {
                self.inject_byzantine(node, ByzantineBehaviour::EquivocateProposer, at + window)
            }
            FaultEvent::DoubleVote { node, window } => {
                self.inject_byzantine(node, ByzantineBehaviour::DoubleVote, at + window)
            }
            FaultEvent::JoinNode(node) => self.join_node(at, node),
            FaultEvent::LeaveNode(node) => self.leave_node(at, node),
            ref net => self.apply_net_fault(at, net),
        }
    }

    /// The membership configuration epoch: how many completed membership
    /// changes the system has reconfigured through. Systems without
    /// dynamic membership stay at 0.
    fn config_epoch(&self) -> u64 {
        0
    }

    /// The consensus safety monitor's verdict, if the system carries one.
    /// `None` means safety invariants are not applicable (CFT systems);
    /// BFT systems always return `Some`, even when no fault was injected.
    fn safety_report(&self) -> Option<SafetyReport> {
        None
    }

    /// The consensus liveness monitor's verdict as of the system's current
    /// virtual time, if the system carries one. All seven modelled systems
    /// expose a monitor; the default (for test doubles) carries none. The
    /// verdict is passive — computing it must not change any timing, RNG
    /// stream, or protocol decision.
    fn liveness_report(&self) -> Option<LivenessReport> {
        None
    }

    /// The system's pipeline-stage probe, if it carries one. All seven
    /// modelled systems expose their runtime's probe; the default (for
    /// test doubles) carries none.
    fn probe(&self) -> Option<&StageProbe> {
        None
    }

    /// The pipeline-stage probe, mutably.
    fn probe_mut(&mut self) -> Option<&mut StageProbe> {
        None
    }

    /// Turns on pipeline-stage recording (no-op without a probe).
    /// Recording is strictly passive: enabling it must not change any
    /// timing, verdict, or RNG stream.
    fn enable_stage_probes(&mut self) {
        if let Some(p) = self.probe_mut() {
            p.enable();
        }
    }

    /// Aggregated per-stage observations, if a probe is present.
    fn stage_report(&self) -> Option<StageReport> {
        self.probe().map(|p| p.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_outcome_predicates() {
        assert!(SubmitOutcome::Accepted.is_accepted());
        assert!(!SubmitOutcome::Rejected.is_accepted());
        let busy = SubmitOutcome::Busy {
            retry_after: SimDuration::from_millis(250),
        };
        assert!(!busy.is_accepted());
        assert!(busy.is_busy());
        assert!(!SubmitOutcome::Rejected.is_busy());
        assert_eq!(busy.retry_after(), Some(SimDuration::from_millis(250)));
        assert_eq!(SubmitOutcome::Accepted.retry_after(), None);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = SystemStats::default();
        assert_eq!(s.accepted, 0);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.blocks, 0);
    }
}
