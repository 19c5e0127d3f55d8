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
//! workload, level]` (see [`super::harness`]), so `--systems`,
//! `--workloads`, and `--jobs` subsets render byte-identical cells.

use super::harness::{canonical, record, run_cells, Cell, Span};
use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::{self, Column, Report};
use crate::scenario::{ScenarioBuilder, Timeline};
use crate::workload::{ContentionKnobs, Smallbank, Workload, Ycsb};
use coconut_chains::SystemStats;
use coconut_types::PayloadKind;

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
    /// Concurrency-control losses ([`SystemStats::conflicts`]: MVCC
    /// invalidations, notary double-spends, interacting-op rejections,
    /// aborted batches) as a share of transactions accepted at ingress.
    pub conflict_share: f64,
    /// The workload invariant over the final ledger (`None` when the
    /// system exposes no ledger).
    pub verified: Option<Result<(), String>>,
    /// System-side counters at the end of the run.
    pub stats: SystemStats,
    /// The full client-side run; its `mtps` is the cell's goodput.
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

/// One cell as a scenario over the load campaigns' [`Span`] (at least
/// 10 s of sending, so per-cause rates have statistics): constant load,
/// default deployment, the named workload installed over the builder's
/// label payload.
fn cell_scenario(kind: SystemKind, workload: &str, level: ContentionLevel, span: Span) -> Timeline {
    ScenarioBuilder::new(PayloadKind::SendPayment, cell_rate(kind), span.windows)
        .setup(SystemSetup::default())
        .workload_boxed(workload_named(workload, level.knobs()))
        .build()
}

/// Runs the contention campaign over all seven systems and both workloads.
pub fn contention(cfg: &ExperimentConfig) -> ContentionResult {
    contention_for(cfg, &SystemKind::ALL, &WORKLOADS)
}

/// Runs the campaign over `systems` × `workloads` only (canonicalized to
/// [`SystemKind::ALL`] × [`WORKLOADS`] order). Cell seeds are
/// content-addressed by `(system, workload, level)`, so a subset's cells
/// are byte-identical to the same cells of the full campaign, for any
/// worker count.
///
/// # Panics
///
/// Panics on a workload name outside [`WORKLOADS`].
pub fn contention_for(
    cfg: &ExperimentConfig,
    systems: &[SystemKind],
    workloads: &[&str],
) -> ContentionResult {
    let span = Span::load(cfg);
    let workloads = canonical(&WORKLOADS, workloads);
    let mut cells = Vec::new();
    for system in canonical(&SystemKind::ALL, systems) {
        for &workload in &workloads {
            for level in LEVELS {
                let parts = ["contention", system.label(), workload, level.name];
                let timeline = cell_scenario(system, workload, level, span);
                cells.push(Cell::new(&parts, system, timeline, (workload, level)));
            }
        }
    }
    let cells = run_cells(cfg, &cells, |c, sr| {
        let (workload, level) = c.spec;
        let accepted = sr.stats.accepted.max(1);
        ContentionCell {
            system: c.system,
            workload,
            level,
            rate: c.timeline.rate(),
            conflict_share: sr.stats.conflicts as f64 / accepted as f64,
            verified: sr.verified,
            stats: sr.stats,
            run: sr.run,
        }
    });
    ContentionResult { cells }
}

impl ContentionCell {
    fn record(&self) -> Json {
        let verified = match &self.verified {
            None => "no-ledger".to_string(),
            Some(Ok(())) => "ok".to_string(),
            Some(Err(e)) => format!("FAIL: {e}"),
        };
        let keys = "system workload level zipf_s hot_fraction account_pool rate goodput \
            scheduled confirmed accepted conflicts conflict_share rejected busy evicted \
            timed_out backpressured verified";
        record(keys, &self.run, Some(&self.stats), |key| match key {
            "system" => Some(self.system.label().into()),
            "workload" => Some(self.workload.into()),
            "level" => Some(self.level.name.into()),
            "zipf_s" => Some(self.level.zipf_s.into()),
            "hot_fraction" => Some(self.level.hot_fraction.into()),
            "account_pool" => Some(ACCOUNT_POOL.into()),
            "rate" => Some(self.rate.into()),
            "goodput" => Some(self.run.mtps.into()),
            "conflict_share" => Some(self.conflict_share.into()),
            // The system's admission rejections, not the client's.
            "rejected" => Some(self.stats.rejected.into()),
            "verified" => Some(verified.as_str().into()),
            _ => None,
        })
    }
}

/// The columns of each workload's table.
const COLUMNS: [Column; 12] = [
    Column::text("system", 18, "system"),
    Column::text("level", 5, "level"),
    Column::num("zipf", 6, "zipf_s", 1),
    Column::num("hot", 6, "hot_fraction", 2),
    Column::num("rate", 8, "rate", 0),
    Column::num("goodput", 9, "goodput", 1),
    Column::num("conflict", 8, "conflicts", 0),
    Column::with("share", 7, |r| {
        format!("{:.1}%", 100.0 * r.num("conflict_share"))
    }),
    Column::num("reject", 6, "rejected", 0),
    Column::num("busy", 7, "busy", 0),
    Column::num("timeout", 8, "timed_out", 0),
    Column::text("verified", 8, "verified"),
];

impl Report for ContentionResult {
    fn record(&self) -> Json {
        let cells = self.cells.iter().map(ContentionCell::record);
        Json::obj([("cells", cells.collect())])
    }

    /// Renders one table per workload: goodput and the loss split by cause
    /// across the contention diagonal. Deterministic: the same config
    /// yields byte-identical output.
    fn render(&self) -> String {
        let record = self.record();
        let mut out = String::from(
            "Contention sweeps — Zipf-skewed Smallbank and YCSB, losses split by cause\n",
        );
        for workload in WORKLOADS {
            let cells: Vec<&Json> = record
                .list("cells")
                .iter()
                .filter(|c| c.text("workload") == workload)
                .collect();
            if !cells.is_empty() {
                out.push_str(&format!("\n== {workload}\n"));
                out.push_str(&report::columns(&COLUMNS, cells));
            }
        }
        out
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
