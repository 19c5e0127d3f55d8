//! Models of the seven permissioned blockchain systems benchmarked by the
//! paper, each exposing the common [`BlockchainSystem`] interface that the
//! COCONUT framework drives.
//!
//! | Module | System | Consensus | Structure (Table 2) |
//! |---|---|---|---|
//! | [`corda`] | Corda OS & Corda Enterprise | notary | UTXO, multiple input/output states |
//! | [`bitshares`] | BitShares | DPoS | multiple operations per transaction |
//! | [`fabric`] | Hyperledger Fabric | Raft orderers | single tx, execute-order-validate |
//! | [`quorum`] | Quorum | Istanbul BFT | single tx, order-execute (account model) |
//! | [`sawtooth`] | Hyperledger Sawtooth | PBFT | transactions in atomic batches |
//! | [`diem`] | Diem | DiemBFT | single tx, sequence-numbered accounts |
//!
//! Fabric, Quorum, Sawtooth, Diem and BitShares are models on one
//! [`chain::Chain`] shell, which implements [`BlockchainSystem`] once over
//! a consensus engine, a world state and the [`ChainRuntime`]; Corda, with
//! a notary pool instead of a message-level engine, implements it itself.
//!
//! Every model is calibrated so that its cost constants land in the paper's
//! measured throughput/latency range at the paper's configuration; more
//! importantly, each reproduces its system's *qualitative* anomalies
//! (Sawtooth's queue rejections, Quorum's block-period liveness stall,
//! Diem's spiking, Corda OS's serial signing and vault scans, BitShares'
//! atomic multi-operation aborts, Fabric's append-even-if-invalid MVCC).
//!
//! # Example
//!
//! ```
//! use coconut_chains::fabric::{Fabric, FabricConfig};
//! use coconut_chains::BlockchainSystem;
//! use coconut_types::{ClientId, ClientTx, Payload, SimTime, ThreadId, TxId};
//!
//! let mut fabric = Fabric::new(FabricConfig::default(), 42);
//! let tx = ClientTx::single(
//!     TxId::new(ClientId(0), 1),
//!     ThreadId(0),
//!     Payload::DoNothing,
//!     SimTime::ZERO,
//! );
//! fabric.submit(SimTime::ZERO, tx);
//! let outcomes = fabric.run_until(SimTime::from_secs(10));
//! assert_eq!(outcomes.len(), 1);
//! assert!(outcomes[0].is_committed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitshares;
pub mod chain;
pub mod corda;
pub mod diem;
pub mod fabric;
pub mod ledger;
pub mod quorum;
pub mod runtime;
pub mod sawtooth;
pub mod system;
mod util;

pub use runtime::{
    ChainRuntime, IngressLoad, Mempool, PoolLimits, SpanRecord, Stage, StageAccum, StageProbe,
    StageReport, StageSnapshot,
};
pub use system::{BlockchainSystem, SubmitOutcome, SystemStats};
