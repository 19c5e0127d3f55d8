//! Core vocabulary types shared by every COCONUT crate.
//!
//! This crate defines the *simulation-wide* primitives used across the whole
//! workspace: virtual time ([`SimTime`], [`SimDuration`]), strongly typed
//! identifiers ([`NodeId`], [`ClientId`], [`TxId`], ...), the transaction and
//! block structures exchanged between clients and the modelled blockchain
//! systems, a deterministic non-cryptographic [`hash`] used for chain linking,
//! and [`seed`] utilities that derive independent RNG streams from a single
//! experiment seed.
//!
//! Everything here is deliberately free of any simulation or networking logic
//! so that higher crates (`coconut-simnet`, `coconut-consensus`,
//! `coconut-chains`, `coconut`) can depend on it without cycles.
//!
//! # Example
//!
//! ```
//! use coconut_types::{SimTime, SimDuration, TxId, ClientId};
//!
//! let start = SimTime::ZERO;
//! let later = start + SimDuration::from_millis(1_500);
//! assert_eq!((later - start).as_secs_f64(), 1.5);
//!
//! let tx = TxId::new(ClientId(3), 42);
//! assert_eq!(tx.client(), ClientId(3));
//! assert_eq!(tx.seq(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod hash;
pub mod id;
pub mod payload;
pub mod rng;
pub mod seed;
pub mod time;
pub mod tx;

pub use block::BlockHeader;
pub use hash::{chain_hash, Hash256, Hasher64, MixMap, MixSet};
pub use id::{AccountId, BlockId, ClientId, NodeId, StateRef, ThreadId, TxId};
pub use payload::{Payload, PayloadKind};
pub use rng::SimRng;
pub use seed::{SeedDeriver, SeedStream};
pub use time::{SimDuration, SimTime};
pub use tx::{ClientTx, TxOutcome, TxStatus};
