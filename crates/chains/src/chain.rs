//! One chain shell under the five message-level chains.
//!
//! Fabric (Raft), Quorum (IBFT), Sawtooth (PBFT), Diem (DiemBFT) and
//! BitShares (DPoS) have the same shape: a consensus engine, a
//! ledger-backed world state and an execute/notify pipeline over a
//! [`ChainRuntime`]. [`Chain`] owns all of it and implements
//! [`BlockchainSystem`] once: stats, preload, the ledger snapshot, the
//! fault and membership surface and the reports. Each system is a
//! [`Model`]: its own state, plus the hooks where it really differs from
//! the others. The model is a type parameter, so dispatch is static.
//!
//! BLOCKBENCH draws the same line between a swappable consensus layer and
//! the data and execution layers above it. Corda, which has a notary pool
//! instead of a message-level engine, keeps its own implementation.

use std::fmt::Debug;

use coconut_consensus::shell::{Protocol, Shell};
use coconut_consensus::{LivenessReport, SafetyReport};
use coconut_iel::{LedgerState, WorldState};
use coconut_simnet::{ByzantineBehaviour, FaultEvent};
use coconut_types::{ClientTx, NodeId, Payload, SimTime, TxOutcome};

use crate::ledger::Ledger;
use crate::runtime::{ChainRuntime, StageProbe};
use crate::system::{BlockchainSystem, SubmitOutcome, SystemStats};

/// One chain model run by a [`Chain`]: its own state and the hooks where
/// it differs from the other chains. Hooks take the whole chain, so a
/// model reaches the runtime, the engine and the world state directly.
pub trait Model: Sized + Debug {
    /// The consensus protocol the chain's engine runs.
    type Protocol: Protocol;
    /// The system's short stable name ([`BlockchainSystem::name`]).
    const NAME: &'static str;

    /// Handles a submission ([`BlockchainSystem::submit`]).
    fn submit(c: &mut Chain<Self>, now: SimTime, tx: ClientTx) -> SubmitOutcome;

    /// Advances the chain to `deadline` ([`BlockchainSystem::run_until`]).
    fn run_until(c: &mut Chain<Self>, deadline: SimTime) -> Vec<TxOutcome>;

    /// Transactions lost to the model's own concurrency control
    /// ([`SystemStats::conflicts`]). Zero by default.
    fn conflicts(_c: &Chain<Self>) -> u64 {
        0
    }

    /// Whether the chain still serves confirmations
    /// ([`BlockchainSystem::is_live`]). `true` by default.
    fn is_live(_c: &Chain<Self>) -> bool {
        true
    }
}

/// A chain deployment running model `M`; see
/// [`Fabric`](crate::fabric::Fabric), [`Quorum`](crate::quorum::Quorum),
/// [`Sawtooth`](crate::sawtooth::Sawtooth), [`Diem`](crate::diem::Diem)
/// and [`Bitshares`](crate::bitshares::Bitshares).
#[derive(Debug)]
pub struct Chain<M: Model> {
    pub(crate) rt: ChainRuntime,
    pub(crate) engine: Shell<M::Protocol>,
    pub(crate) state: WorldState,
    /// The node count the system reports (its replicating role).
    node_count: u32,
    /// The model's own state.
    pub(crate) m: M,
}

impl<M: Model> Chain<M> {
    /// Assembles a chain with an empty world state.
    pub(crate) fn from_parts(
        rt: ChainRuntime,
        engine: Shell<M::Protocol>,
        node_count: u32,
        m: M,
    ) -> Self {
        Chain {
            rt,
            engine,
            state: WorldState::new(),
            node_count,
            m,
        }
    }

    /// The committed world state (for semantic assertions).
    pub fn world_state(&self) -> &WorldState {
        &self.state
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.rt.height()
    }

    /// The hash-linked ledger (tamper-evident block chain).
    pub fn ledger(&self) -> &Ledger {
        self.rt.ledger()
    }
}

impl<M: Model> BlockchainSystem for Chain<M> {
    fn name(&self) -> &str {
        M::NAME
    }

    fn node_count(&self) -> u32 {
        self.node_count
    }

    fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        M::submit(self, now, tx)
    }

    fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
        M::run_until(self, deadline)
    }

    fn stats(&self) -> SystemStats {
        let mut s = self.rt.stats_with(self.engine.net_stats().messages_sent);
        s.conflicts = M::conflicts(self);
        s
    }

    fn preload(&mut self, payloads: &[Payload]) {
        for p in payloads {
            let _ = self.state.apply(p);
        }
    }

    fn ledger_state(&self) -> Option<LedgerState> {
        Some(LedgerState::of_world(&self.state))
    }

    fn is_live(&self) -> bool {
        M::is_live(self)
    }

    fn crash_node(&mut self, node: NodeId) -> bool {
        self.engine.crash(node)
    }

    fn recover_node(&mut self, node: NodeId) -> bool {
        self.engine.recover(node)
    }

    fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        self.engine.apply_net_fault(at, event)
    }

    fn inject_byzantine(
        &mut self,
        node: NodeId,
        behaviour: ByzantineBehaviour,
        until: SimTime,
    ) -> bool {
        self.engine.set_byzantine(node, behaviour, until)
    }

    fn join_node(&mut self, _now: SimTime, node: NodeId) -> bool {
        self.engine.join(node)
    }

    fn leave_node(&mut self, _now: SimTime, node: NodeId) -> bool {
        self.engine.leave(node)
    }

    fn config_epoch(&self) -> u64 {
        self.engine.config_epoch()
    }

    fn safety_report(&self) -> Option<SafetyReport> {
        self.engine.safety_report()
    }

    fn liveness_report(&self) -> Option<LivenessReport> {
        Some(self.engine.liveness_report())
    }

    fn probe(&self) -> Option<&StageProbe> {
        Some(self.rt.probe())
    }

    fn probe_mut(&mut self) -> Option<&mut StageProbe> {
        Some(self.rt.probe_mut())
    }
}
