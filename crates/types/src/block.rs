//! Blocks produced by the modelled blockchain systems.
//!
//! Corda is block-less (UTXO finality per transaction); every other modelled
//! system links [`Block`]s with [`chain_hash`].

use crate::hash::{chain_hash, Hash256};
use crate::id::{BlockId, NodeId, TxId};
use crate::time::SimTime;

/// The header of a finalized block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Sequential block identifier (equals the height for linear chains).
    pub id: BlockId,
    /// Height of the block (genesis = 0).
    pub height: u64,
    /// Digest of the parent block.
    pub parent: Hash256,
    /// Digest of this block (over parent + body).
    pub hash: Hash256,
    /// The node that proposed / produced the block (leader, witness, orderer).
    pub proposer: NodeId,
    /// Virtual time at which the block was finalized by consensus.
    pub finalized_at: SimTime,
}

/// A finalized block: a header plus the transactions it carries.
///
/// # Example
///
/// ```
/// use coconut_types::{Block, ClientId, Hash256, NodeId, SimTime, TxId};
///
/// let genesis = Block::genesis();
/// let txs = vec![TxId::new(ClientId(0), 1)];
/// let b = Block::next(&genesis, NodeId(0), SimTime::from_secs(1), txs);
/// assert_eq!(b.height(), 1);
/// assert_eq!(b.header().parent, genesis.header().hash);
/// assert!(b.verify_link(&genesis));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    header: BlockHeader,
    txs: Vec<TxId>,
    /// Total operations across carried transactions (≥ `txs.len()` for
    /// multi-operation systems such as BitShares and Sawtooth batches).
    ops: u64,
}

impl Block {
    /// The genesis block: height 0, no transactions, zero hashes.
    pub fn genesis() -> Self {
        Block {
            header: BlockHeader {
                id: BlockId(0),
                height: 0,
                parent: Hash256::GENESIS,
                hash: Hash256::GENESIS,
                proposer: NodeId(0),
                finalized_at: SimTime::ZERO,
            },
            txs: Vec::new(),
            ops: 0,
        }
    }

    /// Builds the block following `parent`, hashing the transaction list
    /// into the chain.
    pub fn next(parent: &Block, proposer: NodeId, finalized_at: SimTime, txs: Vec<TxId>) -> Self {
        Self::next_with_ops(parent, proposer, finalized_at, txs, None)
    }

    /// Like [`Block::next`] but with an explicit operation count for
    /// multi-operation transaction structures. `ops = None` counts one
    /// operation per transaction.
    pub fn next_with_ops(
        parent: &Block,
        proposer: NodeId,
        finalized_at: SimTime,
        txs: Vec<TxId>,
        ops: Option<u64>,
    ) -> Self {
        let mut body = Vec::with_capacity(txs.len() * 8 + 16);
        body.extend_from_slice(&(parent.header.height + 1).to_le_bytes());
        body.extend_from_slice(&proposer.0.to_le_bytes());
        for tx in &txs {
            body.extend_from_slice(&tx.as_u64().to_le_bytes());
        }
        let hash = chain_hash(&parent.header.hash, &body);
        let ops = ops.unwrap_or(txs.len() as u64);
        Block {
            header: BlockHeader {
                id: BlockId(parent.header.height + 1),
                height: parent.header.height + 1,
                parent: parent.header.hash,
                hash,
                proposer,
                finalized_at,
            },
            txs,
            ops,
        }
    }

    /// The block header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// Block height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.header.height
    }

    /// Transactions carried by this block.
    pub fn txs(&self) -> &[TxId] {
        &self.txs
    }

    /// Number of carried transactions.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }

    /// Total operations across carried transactions.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// `true` if the block carries no transactions (e.g. Quorum's empty
    /// blocks during a liveness stall).
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Verifies that this block correctly links onto `parent`: matching
    /// parent digest, consecutive height, and a recomputable hash.
    pub fn verify_link(&self, parent: &Block) -> bool {
        if self.header.parent != parent.header.hash
            || self.header.height != parent.header.height + 1
        {
            return false;
        }
        let recomputed = Block::next_with_ops(
            parent,
            self.header.proposer,
            self.header.finalized_at,
            self.txs.clone(),
            Some(self.ops),
        );
        recomputed.header.hash == self.header.hash
    }
}

/// Validates an entire chain of blocks starting at genesis.
///
/// Returns the height of the first invalid link, or `Ok(())` when every
/// block correctly extends its predecessor.
///
/// # Errors
///
/// Returns `Err(height)` for the first block whose link fails verification.
///
/// # Example
///
/// ```
/// use coconut_types::block::{validate_chain, Block};
/// use coconut_types::{NodeId, SimTime};
///
/// let g = Block::genesis();
/// let b1 = Block::next(&g, NodeId(0), SimTime::from_secs(1), vec![]);
/// let b2 = Block::next(&b1, NodeId(1), SimTime::from_secs(2), vec![]);
/// assert!(validate_chain(&[g, b1, b2]).is_ok());
/// ```
pub fn validate_chain(chain: &[Block]) -> Result<(), u64> {
    for pair in chain.windows(2) {
        if !pair[1].verify_link(&pair[0]) {
            return Err(pair[1].height());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ClientId;

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(0), seq)
    }

    #[test]
    fn genesis_shape() {
        let g = Block::genesis();
        assert_eq!(g.height(), 0);
        assert!(g.is_empty());
        assert_eq!(g.header().hash, Hash256::GENESIS);
        assert_eq!(g.op_count(), 0);
    }

    #[test]
    fn chain_links_verify() {
        let g = Block::genesis();
        let b1 = Block::next(&g, NodeId(1), SimTime::from_secs(1), vec![tx(1), tx(2)]);
        let b2 = Block::next(&b1, NodeId(2), SimTime::from_secs(2), vec![tx(3)]);
        assert!(b1.verify_link(&g));
        assert!(b2.verify_link(&b1));
        assert!(!b2.verify_link(&g));
        assert!(validate_chain(&[g, b1, b2]).is_ok());
    }

    #[test]
    fn tampering_breaks_chain() {
        let g = Block::genesis();
        let b1 = Block::next(&g, NodeId(1), SimTime::from_secs(1), vec![tx(1)]);
        let mut b2 = Block::next(&b1, NodeId(2), SimTime::from_secs(2), vec![tx(2)]);
        b2.txs[0] = tx(99); // tamper with the body without re-hashing
        assert!(!b2.verify_link(&b1));
        assert_eq!(validate_chain(&[g, b1, b2]), Err(2));
    }

    #[test]
    fn heights_and_ids_increment() {
        let g = Block::genesis();
        let b1 = Block::next(&g, NodeId(0), SimTime::ZERO, vec![]);
        assert_eq!(b1.height(), 1);
        assert_eq!(b1.header().id, BlockId(1));
        assert_eq!(b1.header().parent, g.header().hash);
    }

    #[test]
    fn op_count_defaults_to_tx_count() {
        let g = Block::genesis();
        let b = Block::next(&g, NodeId(0), SimTime::ZERO, vec![tx(1), tx(2), tx(3)]);
        assert_eq!(b.op_count(), 3);
        let batched = Block::next_with_ops(&g, NodeId(0), SimTime::ZERO, vec![tx(1)], Some(100));
        assert_eq!(batched.op_count(), 100);
        assert_eq!(batched.tx_count(), 1);
    }

    #[test]
    fn different_proposers_give_different_hashes() {
        let g = Block::genesis();
        let a = Block::next(&g, NodeId(0), SimTime::ZERO, vec![tx(1)]);
        let b = Block::next(&g, NodeId(1), SimTime::ZERO, vec![tx(1)]);
        assert_ne!(a.header().hash, b.header().hash);
    }
}
