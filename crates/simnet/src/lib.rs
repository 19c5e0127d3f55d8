//! Deterministic discrete-event network simulator.
//!
//! This crate is the substrate every modelled blockchain runs on. It replaces
//! the paper's physical testbed (six-to-ten dedicated servers, Docker, a
//! 1 Gbit/s LAN, and `netem` latency emulation) with a seeded
//! discrete-event simulation:
//!
//! * [`EventQueue`] — a deterministic time/sequence-ordered priority queue:
//!   a few sorted FIFO runs take in-order pushes, a binary heap the rest,
//!   and pops come out in exactly one heap's order;
//! * [`Sim`] — the simulation clock plus typed event scheduling;
//! * [`LatencyModel`] — constant / uniform / normal (netem-equivalent) link
//!   latency distributions;
//! * [`Topology`] — node-to-server placement (round-robin, as in §5.8.2);
//! * [`NetSim`] — a network overlay on [`Sim`] that samples per-link latency,
//!   accounts for bandwidth, and can drop or partition traffic;
//! * [`FaultPlan`] / [`FaultScheduler`] — declarative, virtual-time-ordered
//!   fault campaigns (crashes, set-based partitions, loss bursts, latency
//!   spikes) replayed deterministically inside the event loop;
//! * gray failures — directional [`FaultEvent::AsymmetricPartition`]s,
//!   seeded [`FaultEvent::FlakyLink`] windows, [`FaultEvent::SlowNode`]
//!   stragglers whose timers and messages stretch instead of stopping, and a
//!   [`RegionMap`] WAN-latency overlay — all composable with the same plans.
//!
//! Determinism: with the same seed, the same sequence of `schedule`/`send`
//! calls yields the identical event order. Ties in virtual time are broken
//! by insertion sequence number.
//!
//! # Example
//!
//! ```
//! use coconut_simnet::{NetSim, NetConfig, Topology};
//! use coconut_types::{NodeId, SimTime};
//!
//! #[derive(Debug, Clone)]
//! enum Msg { Ping }
//!
//! let topo = Topology::round_robin(4, 4);
//! let mut net = NetSim::<Msg>::new(topo, NetConfig::lan(), 42);
//! net.send(NodeId(0), NodeId(1), 100, Msg::Ping);
//! let ev = net.pop_before(SimTime::MAX).expect("delivery scheduled");
//! assert_eq!(ev.dst, NodeId(1));
//! assert!(net.now() > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod latency;
pub mod net;
pub mod queue;
pub mod sim;
pub mod topology;

pub use fault::{ByzantineBehaviour, FaultEvent, FaultPlan, FaultScheduler};
pub use latency::LatencyModel;
pub use net::{NetConfig, NetSim, NetStats, RegionMap};
pub use queue::EventQueue;
pub use sim::{Event, Sim};
pub use topology::Topology;
