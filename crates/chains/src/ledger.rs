//! The hash-linked block ledger every block-producing model appends to.
//!
//! The engines in `coconut-consensus` decide *what* commits and *when*; this
//! module gives each chain model the tamper-evident structure the paper's
//! §2 describes ("the blocks are linked by cryptographic methods, for
//! example with hashes of the predecessor block in the header"). Corda is
//! block-less and does not use it.
//!
//! Nothing in a run reads a block back once it is linked, so the ledger
//! keeps only the tip's [`BlockHeader`] and running transaction and
//! operation counts: O(1) memory however long the run. Each append hashes
//! the new block's body (height, proposer, every transaction id) onto the
//! tip's hash as the ids stream by, so the tip hash is the same digest a
//! chain of whole blocks would end in, and changing any earlier append
//! changes it.

use coconut_types::{BlockHeader, NodeId, SimTime, TxId};

/// A grow-only, hash-linked chain starting at genesis, kept as its tip.
///
/// # Example
///
/// ```
/// use coconut_chains::ledger::Ledger;
/// use coconut_types::{ClientId, NodeId, SimTime, TxId};
///
/// let mut ledger = Ledger::new();
/// let genesis = ledger.tip().hash;
/// ledger.append(NodeId(0), SimTime::from_secs(1), [TxId::new(ClientId(0), 1)], None);
/// assert_eq!(ledger.height(), 1);
/// assert_eq!(ledger.tip().parent, genesis);
/// assert_eq!(ledger.tx_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    tip: BlockHeader,
    txs: u64,
    ops: u64,
}

impl Ledger {
    /// Creates a ledger holding only the genesis block.
    pub fn new() -> Self {
        Ledger {
            tip: BlockHeader::genesis(),
            txs: 0,
            ops: 0,
        }
    }

    /// Appends a block carrying `txs` (with an optional explicit operation
    /// count for multi-operation structures; `None` counts one operation
    /// per transaction), returning its height.
    pub fn append(
        &mut self,
        proposer: NodeId,
        finalized_at: SimTime,
        txs: impl IntoIterator<Item = TxId>,
        ops: Option<u64>,
    ) -> u64 {
        let (tip, n) = self.tip.next(proposer, finalized_at, txs);
        self.tip = tip;
        self.txs += n;
        self.ops += ops.unwrap_or(n);
        self.tip.height
    }

    /// The chain tip's header (genesis before the first append).
    pub fn tip(&self) -> &BlockHeader {
        &self.tip
    }

    /// Height of the chain tip (genesis = 0).
    pub fn height(&self) -> u64 {
        self.tip.height
    }

    /// Total transactions across all blocks.
    pub fn tx_count(&self) -> u64 {
        self.txs
    }

    /// Total operations across all blocks.
    pub fn op_count(&self) -> u64 {
        self.ops
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::{chain_hash, BlockId, ClientId, SimRng};

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(0), seq)
    }

    /// The reference: a chain of whole blocks, each hashed by
    /// [`chain_hash`] over its assembled body (height, proposer, every tx
    /// id) and counting its own ops.
    struct RefBlock {
        header: BlockHeader,
        txs: Vec<TxId>,
        ops: u64,
    }

    impl RefBlock {
        fn genesis() -> Self {
            RefBlock {
                header: BlockHeader::genesis(),
                txs: Vec::new(),
                ops: 0,
            }
        }

        fn next_with_ops(
            parent: &RefBlock,
            proposer: NodeId,
            finalized_at: SimTime,
            txs: Vec<TxId>,
            ops: Option<u64>,
        ) -> Self {
            let height = parent.header.height + 1;
            let mut body = Vec::new();
            body.extend_from_slice(&height.to_le_bytes());
            body.extend_from_slice(&proposer.0.to_le_bytes());
            for t in &txs {
                body.extend_from_slice(&t.as_u64().to_le_bytes());
            }
            RefBlock {
                header: BlockHeader {
                    id: BlockId(height),
                    height,
                    parent: parent.header.hash,
                    hash: chain_hash(&parent.header.hash, &body),
                    proposer,
                    finalized_at,
                },
                ops: ops.unwrap_or(txs.len() as u64),
                txs,
            }
        }
    }

    /// One seeded append: a proposer, a tx list (possibly empty, ids from
    /// several clients) and either the default or an explicit op count.
    type Append = (NodeId, SimTime, Vec<TxId>, Option<u64>);

    fn seeded_appends(seed: u64, n: u64) -> Vec<Append> {
        let mut rng = SimRng::seed_from_u64(seed);
        (1..=n)
            .map(|h| {
                let proposer = NodeId(rng.gen_range_inclusive(0, 15) as u32);
                let len = rng.gen_range_inclusive(0, 12);
                let txs = (0..len)
                    .map(|_| {
                        let client = ClientId(rng.gen_range_inclusive(0, 3) as u32);
                        TxId::new(client, rng.next_u64() >> 20)
                    })
                    .collect();
                let ops = rng.gen_bool(0.3).then(|| rng.gen_range_inclusive(0, 500));
                (proposer, SimTime::from_millis(h * 250), txs, ops)
            })
            .collect()
    }

    fn ledger_of(appends: &[Append]) -> Ledger {
        let mut l = Ledger::new();
        for (p, at, txs, ops) in appends {
            l.append(*p, *at, txs.iter().copied(), *ops);
        }
        l
    }

    #[test]
    fn tip_and_counts_match_the_reference_chain() {
        let appends = seeded_appends(0x1ED6E5, 1_000);
        let mut chain = vec![RefBlock::genesis()];
        let mut l = Ledger::new();
        for (p, at, txs, ops) in &appends {
            let got = l.append(*p, *at, txs.iter().copied(), *ops);
            let block = RefBlock::next_with_ops(chain.last().unwrap(), *p, *at, txs.clone(), *ops);
            assert_eq!(got, block.header.height);
            assert_eq!(l.tip(), &block.header);
            chain.push(block);
        }
        assert_eq!(l.height(), 1_000);
        assert_eq!(l.tx_count(), chain.iter().map(|b| b.txs.len() as u64).sum());
        assert_eq!(l.op_count(), chain.iter().map(|b| b.ops).sum());
    }

    #[test]
    fn tampering_is_detected() {
        // Changing any earlier append (its proposer, one tx id, or one tx
        // more) changes the tip hash.
        let appends = seeded_appends(7, 40);
        let tip = ledger_of(&appends).tip().hash;
        for i in 0..appends.len() {
            let mut forged = vec![appends.clone(), appends.clone()];
            forged[0][i].0 = NodeId(appends[i].0 .0 + 100);
            forged[1][i].2.push(tx((1 << 40) + i as u64));
            if let Some(first) = appends[i].2.first() {
                let mut other_tx = appends.clone();
                other_tx[i].2[0] = TxId::new(first.client(), first.seq() ^ 1);
                forged.push(other_tx);
            }
            for f in &forged {
                let l = ledger_of(f);
                assert_eq!(l.height(), appends.len() as u64);
                assert_ne!(l.tip().hash, tip, "append {i} was changed");
            }
        }
    }

    #[test]
    fn grows_and_verifies() {
        let mut l = Ledger::new();
        let mut reference = RefBlock::genesis();
        assert_eq!(l.height(), 0);
        for h in 1..=10u64 {
            let proposer = NodeId((h % 4) as u32);
            let at = SimTime::from_secs(h);
            let got = l.append(proposer, at, [tx(h)], None);
            reference = RefBlock::next_with_ops(&reference, proposer, at, vec![tx(h)], None);
            assert_eq!(got, h);
            assert_eq!(l.tip(), &reference.header);
        }
        assert_eq!(l.height(), 10);
        assert_eq!(l.tx_count(), 10);
    }

    #[test]
    fn multi_op_counting() {
        let mut l = Ledger::new();
        l.append(NodeId(0), SimTime::ZERO, [tx(1)], Some(100));
        l.append(NodeId(0), SimTime::ZERO, [tx(2), tx(3)], None);
        assert_eq!(l.op_count(), 102);
        assert_eq!(l.tx_count(), 3);
    }

    #[test]
    fn op_count_defaults_to_tx_count() {
        let mut l = Ledger::new();
        l.append(NodeId(0), SimTime::ZERO, [tx(1), tx(2), tx(3)], None);
        assert_eq!((l.tx_count(), l.op_count()), (3, 3));
        l.append(NodeId(0), SimTime::ZERO, [], None);
        assert_eq!((l.height(), l.op_count()), (2, 3));
    }
}
