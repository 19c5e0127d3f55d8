//! Contention sweeps: how each system degrades as transaction footprints
//! start to overlap.
//!
//! The paper's workloads are engineered to be conflict-free ("account *n*
//! pays account *n + 1*"), so none of its campaigns exercise the systems'
//! concurrency-control paths. This campaign does: every system runs the
//! [`Smallbank`] transfer mix and the Zipf-skewed [`Ycsb`] mix over a
//! bounded account pool, at three contention levels ([`LEVELS`]) that jointly raise the
//! Zipfian exponent and the hot-set draw probability. As footprints
//! concentrate, each system loses transactions through *its own* mechanism
//! — Fabric invalidates stale MVCC read sets at validation, the Cordas
//! reject notary double-spends, BitShares rejects interacting operations
//! in one batch, Sawtooth aborts conflicting batches — and the campaign
//! reports goodput plus the loss split by cause (conflicts, admission
//! rejections, busy backpressure, evictions, client timeouts).
//!
//! After each cell the workload's [`Workload::verify`] invariant runs over
//! the system's final ledger: Smallbank's conserved total balance proves
//! the concurrency-control path never double-applied or half-applied a
//! transfer; YCSB checks its preloaded keyspace survived.
//!
//! Every cell's seed is content-addressed by `["contention", system,
//! workload, level]` (see [`crate::exec`]), so `--systems`, `--workloads`,
//! and `--jobs` subsets render byte-identical cells.

use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::client::Windows;
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::Report;
use crate::scenario::{ScenarioBuilder, Timeline};
use crate::workload::{ContentionKnobs, Smallbank, Workload, Ycsb};
use coconut_chains::SystemStats;
use coconut_types::{PayloadKind, SeedDeriver, SimDuration};

/// Accounts (Smallbank) / keys (YCSB) in the shared pool. Small enough
/// that the hot set is genuinely hot within a shortened window, large
/// enough that the low-contention level stays near conflict-free.
pub const ACCOUNT_POOL: u64 = 64;

/// One contention level: a named point on the skew diagonal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionLevel {
    /// Stable label ("low", "mid", "high") — part of the cell seed.
    pub name: &'static str,
    /// Zipfian exponent over the account pool.
    pub zipf_s: f64,
    /// Probability a draw is forced into the hot set (top 5 % of ranks).
    pub hot_fraction: f64,
}

impl ContentionLevel {
    /// The level as workload knobs over [`ACCOUNT_POOL`].
    pub fn knobs(&self) -> ContentionKnobs {
        ContentionKnobs {
            zipf_s: self.zipf_s,
            hot_fraction: self.hot_fraction,
            account_pool: ACCOUNT_POOL,
        }
    }
}

/// The sweep's three levels, in increasing contention order. Exponent and
/// hot fraction move together (a diagonal sweep): the interesting regime
/// transitions happen along the diagonal, and three cells per
/// (system, workload) keep the campaign affordable.
pub const LEVELS: [ContentionLevel; 3] = [
    ContentionLevel {
        name: "low",
        zipf_s: 0.2,
        hot_fraction: 0.05,
    },
    ContentionLevel {
        name: "mid",
        zipf_s: 0.9,
        hot_fraction: 0.30,
    },
    ContentionLevel {
        name: "high",
        zipf_s: 1.4,
        hot_fraction: 0.70,
    },
];

/// The campaign's workload names, in run order. These are the values the
/// `repro --workloads` filter accepts.
pub const WORKLOADS: [&str; 2] = ["Smallbank", "YCSB"];

/// Builds the named workload at `knobs`.
///
/// # Panics
///
/// Panics on a name outside [`WORKLOADS`] — the CLI validates names before
/// the campaign runs.
pub fn workload_named(name: &str, knobs: ContentionKnobs) -> Box<dyn Workload + Send + Sync> {
    match name {
        "Smallbank" => Box::new(Smallbank::new(knobs)),
        "YCSB" => Box::new(Ycsb::new(knobs)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// One (system, workload, level) cell.
#[derive(Debug, Clone)]
pub struct ContentionCell {
    /// System under test.
    pub system: SystemKind,
    /// Workload name ("Smallbank" or "YCSB").
    pub workload: &'static str,
    /// The contention level.
    pub level: ContentionLevel,
    /// Offered load (tx/s across all clients).
    pub rate: f64,
    /// Goodput (confirmed ops/s over the measurement window).
    pub goodput: f64,
    /// Concurrency-control losses ([`SystemStats::conflicts`]): MVCC
    /// invalidations, notary double-spends, interacting-op rejections,
    /// aborted batches.
    pub conflicts: u64,
    /// `conflicts` as a share of transactions accepted at ingress.
    pub conflict_share: f64,
    /// The workload invariant over the final ledger (`None` when the
    /// system exposes no ledger).
    pub verified: Option<Result<(), String>>,
    /// System-side counters at the end of the run.
    pub stats: SystemStats,
    /// The full client-side run.
    pub run: ChaosRun,
}

/// The campaign outcome: cells in (system, workload, level) order.
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// All cells, systems outermost, levels innermost.
    pub cells: Vec<ContentionCell>,
}

impl ContentionResult {
    /// The cell of `(system, workload, level)`, if run.
    pub fn cell(&self, system: SystemKind, workload: &str, level: &str) -> Option<&ContentionCell> {
        self.cells
            .iter()
            .find(|c| c.system == system && c.workload == workload && c.level.name == level)
    }
}

/// Virtual-time anchors: the bottleneck campaign's windows (at least 10 s
/// of sending so per-cause rates have statistics, listen = send + 8 s).
fn windows(cfg: &ExperimentConfig) -> Windows {
    let send_secs = ((100.0 * cfg.scale).round() as u64).max(10);
    Windows {
        send: SimDuration::from_secs(send_secs),
        listen: SimDuration::from_secs(send_secs + 8),
    }
}

/// Offered load: each system's smallest paper rate limiter (200 tx/s),
/// comfortably below every saturation knee so the losses the campaign
/// measures come from contention, not overload. The Cordas run at half
/// their smallest limiter (10 tx/s): Smallbank's two-account flows carry
/// vault-scan costs the paper's single-account ops don't, and 20 tx/s
/// already saturates Corda OS — which would bury the notary's
/// double-spend signal under timeout noise.
fn cell_rate(kind: SystemKind) -> f64 {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => kind.rate_limiters()[0] * 0.5,
        _ => kind.rate_limiters()[0],
    }
}

/// One cell as a scenario: constant load, default deployment, the named
/// workload installed over the builder's label payload.
fn cell_scenario(
    kind: SystemKind,
    workload: &'static str,
    level: ContentionLevel,
    windows: Windows,
) -> Timeline {
    ScenarioBuilder::new(PayloadKind::SendPayment, cell_rate(kind), windows)
        .setup(SystemSetup::default())
        .workload_boxed(workload_named(workload, level.knobs()))
        .build()
}

/// Runs the contention campaign over all seven systems and both workloads.
pub fn contention(cfg: &ExperimentConfig) -> ContentionResult {
    contention_for(cfg, &SystemKind::ALL, &WORKLOADS)
}

/// Runs the campaign over `systems` × `workloads` only. Cell seeds are
/// content-addressed by `(system, workload, level)`, so a subset's cells
/// are byte-identical to the same cells of the full campaign, for any
/// worker count.
pub fn contention_for(
    cfg: &ExperimentConfig,
    systems: &[SystemKind],
    workloads: &[&str],
) -> ContentionResult {
    let windows = windows(cfg);
    let mut items: Vec<(SystemKind, &'static str, ContentionLevel)> = Vec::new();
    for &system in systems {
        for &name in WORKLOADS.iter().filter(|n| workloads.contains(n)) {
            for level in LEVELS {
                items.push((system, name, level));
            }
        }
    }
    let cells = crate::exec::run_grid(&items, cfg.jobs, |_, &(system, workload, level)| {
        let seed = SeedDeriver::new(cfg.seed).seed_parts(&[
            "contention",
            system.label(),
            workload,
            level.name,
        ]);
        let sr = cell_scenario(system, workload, level, windows).run(system, seed);
        let accepted = sr.stats.accepted.max(1);
        ContentionCell {
            system,
            workload,
            level,
            rate: cell_rate(system),
            goodput: sr.run.mtps,
            conflicts: sr.stats.conflicts,
            conflict_share: sr.stats.conflicts as f64 / accepted as f64,
            verified: sr.verified,
            stats: sr.stats,
            run: sr.run,
        }
    });
    ContentionResult { cells }
}

/// A verification verdict's stable label.
fn verified_label(v: &Option<Result<(), String>>) -> String {
    match v {
        None => "no-ledger".into(),
        Some(Ok(())) => "ok".into(),
        Some(Err(e)) => format!("FAIL: {e}"),
    }
}

impl ContentionCell {
    fn to_json(&self) -> Json {
        let a = &self.run.accounting;
        Json::Obj(vec![
            ("system".into(), Json::Str(self.system.label().into())),
            ("workload".into(), Json::Str(self.workload.into())),
            ("level".into(), Json::Str(self.level.name.into())),
            ("zipf_s".into(), Json::Num(self.level.zipf_s)),
            ("hot_fraction".into(), Json::Num(self.level.hot_fraction)),
            ("account_pool".into(), Json::Num(ACCOUNT_POOL as f64)),
            ("rate".into(), Json::Num(self.rate)),
            ("goodput".into(), Json::Num(self.goodput)),
            ("scheduled".into(), Json::Num(a.scheduled as f64)),
            ("confirmed".into(), Json::Num(a.confirmed as f64)),
            ("accepted".into(), Json::Num(self.stats.accepted as f64)),
            ("conflicts".into(), Json::Num(self.conflicts as f64)),
            ("conflict_share".into(), Json::Num(self.conflict_share)),
            ("rejected".into(), Json::Num(self.stats.rejected as f64)),
            ("busy".into(), Json::Num(self.stats.busy as f64)),
            ("evicted".into(), Json::Num(self.stats.evicted as f64)),
            ("timed_out".into(), Json::Num(a.timed_out as f64)),
            ("backpressured".into(), Json::Num(a.backpressured as f64)),
            ("verified".into(), Json::Str(verified_label(&self.verified))),
        ])
    }
}

impl Report for ContentionResult {
    /// Renders one table per workload: goodput and the loss split by cause
    /// across the contention diagonal. Deterministic: the same config
    /// yields byte-identical output.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Contention sweeps — Zipf-skewed Smallbank and YCSB, losses split by cause\n");
        for &workload in WORKLOADS.iter() {
            let cells: Vec<&ContentionCell> = self
                .cells
                .iter()
                .filter(|c| c.workload == workload)
                .collect();
            if cells.is_empty() {
                continue;
            }
            out.push_str(&format!("\n== {workload}\n"));
            out.push_str(&format!(
                "{:<18} {:<5} {:>6} {:>6} {:>8} {:>9} {:>8} {:>7} {:>6} {:>7} {:>8} {}\n",
                "system",
                "level",
                "zipf",
                "hot",
                "rate",
                "goodput",
                "conflict",
                "share",
                "reject",
                "busy",
                "timeout",
                "verified",
            ));
            out.push_str(&"-".repeat(108));
            out.push('\n');
            for c in cells {
                out.push_str(&format!(
                    "{:<18} {:<5} {:>6.1} {:>6.2} {:>8.0} {:>9.1} {:>8} {:>6.1}% {:>6} {:>7} {:>8} {}\n",
                    c.system.label(),
                    c.level.name,
                    c.level.zipf_s,
                    c.level.hot_fraction,
                    c.rate,
                    c.goodput,
                    c.conflicts,
                    100.0 * c.conflict_share,
                    c.stats.rejected,
                    c.stats.busy,
                    c.run.accounting.timed_out,
                    verified_label(&c.verified),
                ));
            }
        }
        out
    }

    /// The campaign as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        Json::Obj(vec![(
            "cells".into(),
            Json::Arr(self.cells.iter().map(ContentionCell::to_json).collect()),
        )])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_in_increasing_contention_order() {
        for w in LEVELS.windows(2) {
            assert!(w[0].zipf_s < w[1].zipf_s);
            assert!(w[0].hot_fraction < w[1].hot_fraction);
        }
    }

    #[test]
    fn workload_factory_covers_the_campaign_names() {
        for name in WORKLOADS {
            let w = workload_named(name, LEVELS[0].knobs());
            assert_eq!(w.name(), name);
            assert!(!w.preload().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn workload_factory_rejects_unknown_names() {
        let _ = workload_named("TPC-C", LEVELS[0].knobs());
    }

    #[test]
    fn workload_filter_prunes_cells() {
        let cfg = ExperimentConfig {
            scale: 0.02,
            repetitions: 1,
            ..ExperimentConfig::default()
        };
        let r = contention_for(&cfg, &[SystemKind::Fabric], &["YCSB"]);
        assert_eq!(r.cells.len(), LEVELS.len());
        assert!(r.cells.iter().all(|c| c.workload == "YCSB"));
    }
}
