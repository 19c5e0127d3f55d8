//! Client transactions and their end-to-end outcomes.

use std::sync::Arc;

use crate::id::{BlockId, ThreadId, TxId};
use crate::payload::{Payload, PayloadKind};
use crate::time::SimTime;

/// A transaction as submitted by a COCONUT client workload thread.
///
/// Depending on the modelled system, one `ClientTx` is a single transaction
/// (Fabric, Quorum, Diem), a transaction holding several *operations*
/// (BitShares), an atomic *batch* of transactions (Sawtooth), or a flow with
/// input/output states (Corda). The paper's Table 2 maps these structures;
/// COCONUT represents all of them as a list of payloads, and the per-system
/// models interpret the list according to their native structure. A
/// single payload is held inline; a longer list is shared, so a clone, or
/// a re-send built with [`ClientTx::with_id`], never copies it.
///
/// # Example
///
/// ```
/// use coconut_types::{ClientId, ClientTx, Payload, SimTime, ThreadId, TxId};
///
/// let tx = ClientTx::new(
///     TxId::new(ClientId(0), 1),
///     ThreadId(2),
///     vec![Payload::DoNothing; 3],
///     SimTime::from_secs(1),
/// );
/// assert_eq!(tx.op_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientTx {
    id: TxId,
    thread: ThreadId,
    payloads: Payloads,
    created_at: SimTime,
}

/// A transaction's operations. A list of one is always held inline, so
/// equal lists have equal forms and the derived equality holds.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Payloads {
    One(Payload),
    Many(Arc<[Payload]>),
}

impl Payloads {
    fn as_slice(&self) -> &[Payload] {
        match self {
            Payloads::One(p) => std::slice::from_ref(p),
            Payloads::Many(ps) => ps,
        }
    }
}

impl ClientTx {
    /// Creates a transaction. A caller building many multi-operation
    /// transactions can collect each list into an `Arc<[Payload]>`
    /// directly, so that it is not copied here.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is empty: every transaction carries at least one
    /// operation.
    pub fn new(
        id: TxId,
        thread: ThreadId,
        payloads: impl Into<Arc<[Payload]>>,
        created_at: SimTime,
    ) -> Self {
        let payloads: Arc<[Payload]> = payloads.into();
        let payloads = match &*payloads {
            [] => panic!("a transaction must carry at least one payload"),
            [one] => Payloads::One(one.clone()),
            _ => Payloads::Many(payloads),
        };
        ClientTx {
            id,
            thread,
            payloads,
            created_at,
        }
    }

    /// Creates a single-operation transaction.
    pub fn single(id: TxId, thread: ThreadId, payload: Payload, created_at: SimTime) -> Self {
        ClientTx {
            id,
            thread,
            payloads: Payloads::One(payload),
            created_at,
        }
    }

    /// The same transaction under another id and creation time: a
    /// re-send, or a schedule entry re-tagged and shifted. A list of
    /// payloads is shared, not copied.
    pub fn with_id(&self, id: TxId, created_at: SimTime) -> Self {
        ClientTx {
            id,
            thread: self.thread,
            payloads: self.payloads.clone(),
            created_at,
        }
    }

    /// The transaction's globally unique identifier.
    pub const fn id(&self) -> TxId {
        self.id
    }

    /// The workload thread that produced this transaction.
    pub const fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The operations carried by this transaction (≥ 1).
    pub fn payloads(&self) -> &[Payload] {
        self.payloads.as_slice()
    }

    /// Number of operations (BitShares) / inner transactions (Sawtooth).
    pub fn op_count(&self) -> usize {
        self.payloads().len()
    }

    /// The instant the client created the transaction (the paper's
    /// `starttime`, taken "just before a transaction request is sent").
    pub const fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// The kind of the first payload; benchmarks are homogeneous so this is
    /// the kind of every payload in practice.
    pub fn kind(&self) -> PayloadKind {
        self.payloads()[0].kind()
    }

    /// Total serialized size in bytes across all operations.
    pub fn size_bytes(&self) -> usize {
        self.payloads().iter().map(Payload::size_bytes).sum()
    }
}

/// Why a transaction failed to reach finality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailReason {
    /// The node's admission queue was full and rejected the submission
    /// (Sawtooth's decisive failure mode in §5.6).
    QueueFull,
    /// A serializability / double-spend conflict aborted the transaction
    /// (notary rejection in Corda, MVCC invalidation in Fabric, atomic
    /// batch/operation abort in Sawtooth/BitShares).
    Conflict,
    /// The execution layer itself rejected the invocation (e.g. reading a
    /// key that does not exist, overdrawing an account).
    ExecutionError,
    /// The system stopped serving confirmations — the paper's liveness
    /// violation (Quorum with blockperiod ≤ 2 s, stalled BitShares).
    LivenessStall,
    /// The confirmation never arrived before the client terminated
    /// (lost transaction from the client's perspective).
    Timeout,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailReason::QueueFull => "queue full",
            FailReason::Conflict => "conflict",
            FailReason::ExecutionError => "execution error",
            FailReason::LivenessStall => "liveness stall",
            FailReason::Timeout => "timeout",
        };
        f.write_str(s)
    }
}

/// The lifecycle state of a transaction from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Submitted, no confirmation yet.
    Pending,
    /// Confirmed as finalized on all nodes.
    Committed,
    /// Terminally failed.
    Failed(FailReason),
}

/// A finalization notification delivered to the submitting client: the
/// paper's end-to-end confirmation, carrying everything the client needs to
/// compute `endtime - starttime`.
///
/// # Example
///
/// ```
/// use coconut_types::{BlockId, ClientId, SimTime, TxId, TxOutcome};
///
/// let o = TxOutcome::committed(TxId::new(ClientId(0), 1), BlockId(5), SimTime::from_secs(3), 1);
/// assert!(o.is_committed());
/// assert_eq!(o.ops_confirmed(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    /// The transaction this notification is about.
    pub tx: TxId,
    /// Terminal status ([`TxStatus::Pending`] never appears in an outcome).
    pub status: TxStatus,
    /// The block that carried the transaction, if it was committed into one.
    pub block: Option<BlockId>,
    /// When the confirmation became available to the client (the paper's
    /// `endtime` is this instant plus notification delivery latency).
    pub finalized_at: SimTime,
    /// How many of the transaction's operations were confirmed. BitShares
    /// counts every operation as a transaction for MTPS (§4.5), so the
    /// client needs this number.
    pub ops: u32,
}

impl TxOutcome {
    /// Creates a committed outcome.
    pub fn committed(tx: TxId, block: BlockId, at: SimTime, ops: u32) -> Self {
        TxOutcome {
            tx,
            status: TxStatus::Committed,
            block: Some(block),
            finalized_at: at,
            ops,
        }
    }

    /// Creates a failed outcome.
    pub fn failed(tx: TxId, reason: FailReason, at: SimTime) -> Self {
        TxOutcome {
            tx,
            status: TxStatus::Failed(reason),
            block: None,
            finalized_at: at,
            ops: 0,
        }
    }

    /// `true` if the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self.status, TxStatus::Committed)
    }

    /// Operations confirmed by this outcome (0 for failures).
    pub fn ops_confirmed(&self) -> u32 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ClientId;

    fn tx_id() -> TxId {
        TxId::new(ClientId(1), 9)
    }

    #[test]
    #[should_panic(expected = "at least one payload")]
    fn rejects_empty_payloads() {
        let _ = ClientTx::new(tx_id(), ThreadId(0), vec![], SimTime::ZERO);
    }

    #[test]
    fn accessors() {
        let tx = ClientTx::single(
            tx_id(),
            ThreadId(3),
            Payload::key_value_set(1, 2),
            SimTime::from_secs(5),
        );
        assert_eq!(tx.id(), tx_id());
        assert_eq!(tx.thread(), ThreadId(3));
        assert_eq!(tx.op_count(), 1);
        assert_eq!(tx.kind(), PayloadKind::KeyValueSet);
        assert_eq!(tx.created_at(), SimTime::from_secs(5));
        assert!(tx.size_bytes() >= 96);
    }

    #[test]
    fn multi_op_size_scales() {
        let one = ClientTx::single(tx_id(), ThreadId(0), Payload::DoNothing, SimTime::ZERO);
        let many = ClientTx::new(
            tx_id(),
            ThreadId(0),
            vec![Payload::DoNothing; 100],
            SimTime::ZERO,
        );
        assert_eq!(many.size_bytes(), one.size_bytes() * 100);
        assert_eq!(many.op_count(), 100);
    }

    #[test]
    fn copies_keep_the_payloads_of_their_original() {
        let kv = Payload::key_value_set(3, 4);
        let one = ClientTx::single(tx_id(), ThreadId(1), kv.clone(), SimTime::ZERO);
        let many = ClientTx::new(
            tx_id(),
            ThreadId(1),
            vec![kv.clone(), Payload::DoNothing],
            SimTime::ZERO,
        );
        // One payload reads the same whichever constructor made it.
        assert_eq!(
            ClientTx::new(tx_id(), ThreadId(1), vec![kv.clone()], SimTime::ZERO),
            one
        );
        let later = SimTime::from_secs(2);
        let resent = TxId::new(ClientId(1), 10);
        for tx in [one, many] {
            let copy = tx.with_id(resent, later);
            assert_eq!((copy.id(), copy.created_at()), (resent, later));
            assert_eq!(
                (copy.thread(), copy.payloads()),
                (tx.thread(), tx.payloads())
            );
            assert_ne!(copy, tx);
            // A list is shared, not copied.
            let shared = std::ptr::eq(copy.payloads(), tx.payloads());
            assert_eq!(shared, tx.op_count() > 1);
        }
    }

    #[test]
    fn outcome_constructors() {
        let c = TxOutcome::committed(tx_id(), BlockId(2), SimTime::from_secs(1), 4);
        assert!(c.is_committed());
        assert_eq!(c.block, Some(BlockId(2)));
        assert_eq!(c.ops_confirmed(), 4);

        let f = TxOutcome::failed(tx_id(), FailReason::QueueFull, SimTime::from_secs(2));
        assert!(!f.is_committed());
        assert_eq!(f.block, None);
        assert_eq!(f.status, TxStatus::Failed(FailReason::QueueFull));
        assert_eq!(f.ops_confirmed(), 0);
    }

    #[test]
    fn fail_reason_display() {
        assert_eq!(FailReason::QueueFull.to_string(), "queue full");
        assert_eq!(FailReason::LivenessStall.to_string(), "liveness stall");
    }
}
