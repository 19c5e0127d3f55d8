//! COCONUT — an automati**C** bl**O**ck**C**hain perf**O**rma**N**ce
//! eval**U**ation sys**T**em.
//!
//! This crate is the benchmarking framework of the paper: it generates the
//! paper's workloads (DoNothing, KeyValue, BankingApp), runs them through
//! the COCONUT client model (four client applications with four workload
//! threads each, rate-limited, sending for 300 virtual seconds and
//! listening for 330), collects finalization notifications *on the client
//! side* (the end-to-end methodology of §4.5), and computes the paper's
//! metrics — MTPS, MFLS, Duration, and the number of transactions — with
//! SD / SEM / 95% CI statistics over repetitions.
//!
//! The [`experiments`] module regenerates every figure and table of the
//! paper's evaluation section; the [`report`] module renders them.
//!
//! # Quickstart
//!
//! ```
//! use coconut::client::Windows;
//! use coconut::prelude::*;
//!
//! // Benchmark the modelled Fabric with the DoNothing workload for two
//! // virtual seconds at 200 tx/s, one repetition. Small blocks keep the
//! // short window from ending before Fabric's 2 s batch timeout.
//! let spec = BenchmarkSpec::new(SystemKind::Fabric, PayloadKind::DoNothing)
//!     .rate(200.0)
//!     .block_param(BlockParam::MaxMessageCount(20))
//!     .windows(Windows {
//!         send: SimDuration::from_secs(2),
//!         listen: SimDuration::from_millis(2_200),
//!     })
//!     .repetitions(1);
//! let result = run_benchmark(&spec, 42);
//! assert!(result.mtps.mean > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod exec;
pub mod experiments;
pub mod json;
pub mod params;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod workload;
pub mod zipf;

pub use chaos::{
    run_chaos_with_schedule, BreakerPolicy, BreakerState, ChaosRun, CircuitBreaker,
    ClientProtection, DeliveryAccounting, RetryBudget, RetryPolicy,
};
pub use exec::{cell_seed, run_grid, unit_seed};
pub use params::{BlockParam, SystemKind, SystemSetup};
pub use report::Report;
pub use runner::{run_benchmark, run_unit, BenchmarkResult, BenchmarkSpec, UnitResult};
pub use scenario::{
    Check, CheckOutcome, Cursor, LoadPhase, LoadShape, ScenarioBuilder, ScenarioRun, Timeline,
};
pub use stats::Stats;
pub use workload::{paper, ContentionKnobs, PaperWorkload, Smallbank, Workload, Ycsb};

/// Everything most users need, in one import.
pub mod prelude {
    pub use crate::params::{BlockParam, SystemKind, SystemSetup};
    pub use crate::report::{heatmap, table, Report};
    pub use crate::runner::{run_benchmark, run_unit, BenchmarkResult, BenchmarkSpec, UnitResult};
    pub use crate::stats::Stats;
    pub use coconut_types::{PayloadKind, SimDuration, SimTime};
}
