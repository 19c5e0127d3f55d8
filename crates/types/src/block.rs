//! Block headers of the modelled blockchain systems.
//!
//! Corda is block-less (UTXO finality per transaction); every other modelled
//! system links its blocks with [`chain_hash`](crate::chain_hash). A block's
//! hash covers its parent's hash, its height, its proposer and every
//! transaction id it carries, so a [`BlockHeader`] alone is enough to
//! extend the chain.

use crate::hash::{ChainHasher, Hash256};
use crate::id::{BlockId, NodeId, TxId};
use crate::time::SimTime;

/// The header of a finalized block.
///
/// # Example
///
/// ```
/// use coconut_types::{BlockHeader, ClientId, NodeId, SimTime, TxId};
///
/// let genesis = BlockHeader::genesis();
/// let txs = [TxId::new(ClientId(0), 1)];
/// let (b, n) = genesis.next(NodeId(0), SimTime::from_secs(1), txs);
/// assert_eq!((b.height, n), (1, 1));
/// assert_eq!(b.parent, genesis.hash);
/// ```
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

impl BlockHeader {
    /// The genesis header: height 0, zero hashes.
    pub fn genesis() -> Self {
        BlockHeader {
            id: BlockId(0),
            height: 0,
            parent: Hash256::GENESIS,
            hash: Hash256::GENESIS,
            proposer: NodeId(0),
            finalized_at: SimTime::ZERO,
        }
    }

    /// The header of the block following this one, with the number of
    /// transactions it carries. The hash walks the body as it streams by:
    /// height, proposer, then every transaction id.
    pub fn next(
        &self,
        proposer: NodeId,
        finalized_at: SimTime,
        txs: impl IntoIterator<Item = TxId>,
    ) -> (BlockHeader, u64) {
        let height = self.height + 1;
        let mut h = ChainHasher::new(&self.hash);
        h.write_u64(height);
        h.write(&proposer.0.to_le_bytes());
        let mut count = 0;
        for tx in txs {
            h.write_u64(tx.as_u64());
            count += 1;
        }
        let header = BlockHeader {
            id: BlockId(height),
            height,
            parent: self.hash,
            hash: h.finish(),
            proposer,
            finalized_at,
        };
        (header, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_hash;
    use crate::id::ClientId;

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(0), seq)
    }

    #[test]
    fn genesis_shape() {
        let g = BlockHeader::genesis();
        assert_eq!(g.height, 0);
        assert_eq!(g.hash, Hash256::GENESIS);
        assert_eq!(g.parent, Hash256::GENESIS);
    }

    #[test]
    fn heights_and_ids_increment() {
        let g = BlockHeader::genesis();
        let (b1, n) = g.next(NodeId(0), SimTime::ZERO, []);
        assert_eq!((b1.height, b1.id, n), (1, BlockId(1), 0));
        assert_eq!(b1.parent, g.hash);
        let (b2, _) = b1.next(NodeId(1), SimTime::from_secs(2), [tx(3)]);
        assert_eq!(b2.height, 2);
        assert_eq!(b2.parent, b1.hash);
    }

    #[test]
    fn chain_links_verify() {
        // Each header links onto its parent's hash at the next height, and
        // its hash is `chain_hash` over the body: height, proposer, tx ids.
        let g = BlockHeader::genesis();
        let (b1, _) = g.next(NodeId(7), SimTime::from_secs(1), [tx(1), tx(2)]);
        let (b2, _) = b1.next(NodeId(2), SimTime::from_secs(2), [tx(3)]);
        for (parent, child, proposer, txs) in [
            (&g, &b1, 7u32, vec![tx(1), tx(2)]),
            (&b1, &b2, 2, vec![tx(3)]),
        ] {
            assert_eq!(child.parent, parent.hash);
            assert_eq!(child.height, parent.height + 1);
            let mut body = Vec::new();
            body.extend_from_slice(&child.height.to_le_bytes());
            body.extend_from_slice(&proposer.to_le_bytes());
            for t in txs {
                body.extend_from_slice(&t.as_u64().to_le_bytes());
            }
            assert_eq!(child.hash, chain_hash(&parent.hash, &body));
        }
    }

    #[test]
    fn tampering_breaks_chain() {
        // A block whose body differs cannot carry the same hash, so every
        // later link differs too.
        let g = BlockHeader::genesis();
        let (b1, _) = g.next(NodeId(1), SimTime::from_secs(1), [tx(1)]);
        let (b2, _) = b1.next(NodeId(2), SimTime::from_secs(2), [tx(2)]);
        let (forged, _) = b1.next(NodeId(2), SimTime::from_secs(2), [tx(99)]);
        assert_ne!(forged.hash, b2.hash);
        let t = SimTime::from_secs(3);
        assert_ne!(
            b2.next(NodeId(0), t, []).0.hash,
            forged.next(NodeId(0), t, []).0.hash
        );
        // Reordering the same transactions is a different body too.
        let (swapped, _) = b1.next(NodeId(2), SimTime::from_secs(2), [tx(3), tx(2)]);
        assert_ne!(
            swapped.hash,
            b1.next(NodeId(2), SimTime::from_secs(2), [tx(2), tx(3)])
                .0
                .hash
        );
    }

    #[test]
    fn different_proposers_give_different_hashes() {
        let g = BlockHeader::genesis();
        let a = g.next(NodeId(0), SimTime::ZERO, [tx(1)]).0;
        let b = g.next(NodeId(1), SimTime::ZERO, [tx(1)]).0;
        assert_ne!(a.hash, b.hash);
        // The finalization time is header metadata, not hashed.
        assert_eq!(
            a.hash,
            g.next(NodeId(0), SimTime::from_secs(9), [tx(1)]).0.hash
        );
    }
}
