//! Membership-churn campaign: protocol-correct node join/leave under
//! steady load, across all seven systems.
//!
//! Each cell runs one system through one churn *arm* — a single join, a
//! single leave, a rolling replacement (join a standby, then retire an
//! original member once the joiner is synced), or a join landing while the
//! system is overloaded (tight admission pools at 8× the steady rate). The
//! join path exercises the engines' epoch-based reconfiguration end to
//! end: the joiner catches up (state transfer) before it may vote or lead,
//! quorum sizes are recomputed at the epoch boundary, and the BFT safety
//! monitors check the cross-epoch invariants (no stale-epoch commits, no
//! pre-sync votes) over the whole run.
//!
//! Per cell the report gives the throughput dip while the membership
//! changes (MTPS before / during / after the churn window, and their
//! ratio), the re-stabilization time (virtual seconds from the last
//! membership event until throughput sustains ≥ 70 % of the pre-churn
//! mean), the number of epoch changes the system went through, the
//! completed join/leave counts, and the safety verdict.
//!
//! Every cell's seed is content-addressed by `("churn", system, arm)` —
//! never by grid position — so restricting the campaign to a subset of
//! systems or arms, or changing the worker count, cannot change any
//! remaining cell's numbers: the same [`ExperimentConfig`] renders
//! byte-identical reports.

use super::chaos::fault_domain;
use super::harness::{
    canonical, run_cells, steady_payload, steady_rate, Cell, Span, RECOVERY_THRESHOLD,
};
use super::overload::tight_limits;
use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::Report;
use crate::scenario::{ScenarioBuilder, Timeline};
use coconut_types::NodeId;

/// The offered-load multiplier of the join-under-overload arm, relative
/// to the arm's steady rate.
pub const OVERLOAD_MULTIPLIER: f64 = 8.0;

/// One churn scenario: which membership events the cell schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnArm {
    /// One standby node joins mid-run; membership grows by one.
    SingleJoin,
    /// One original member leaves mid-run; membership shrinks by one.
    SingleLeave,
    /// A standby joins, then — once the joiner has synced and voted — an
    /// original member retires: membership size is preserved across two
    /// epoch changes.
    RollingReplace,
    /// [`ChurnArm::SingleJoin`] while the system is saturated: tight
    /// admission pools and [`OVERLOAD_MULTIPLIER`]× the steady rate, so
    /// the reconfiguration competes with `Busy` backpressure and TTL
    /// eviction.
    JoinUnderLoad,
}

impl ChurnArm {
    /// All arms in report column order.
    pub const ALL: [ChurnArm; 4] = [
        ChurnArm::SingleJoin,
        ChurnArm::SingleLeave,
        ChurnArm::RollingReplace,
        ChurnArm::JoinUnderLoad,
    ];

    /// Stable label; also the seed scope of the arm's cells.
    pub const fn label(self) -> &'static str {
        match self {
            ChurnArm::SingleJoin => "single-join",
            ChurnArm::SingleLeave => "single-leave",
            ChurnArm::RollingReplace => "rolling-replace",
            ChurnArm::JoinUnderLoad => "join-under-load",
        }
    }

    /// Standby nodes the deployment must provision for this arm.
    const fn standby(self) -> u32 {
        match self {
            ChurnArm::SingleLeave => 0,
            _ => 1,
        }
    }
}

impl std::fmt::Display for ChurnArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The `(system, arm)` cells of `systems` × `arms` (both in canonical
/// order), systems outer, arms inner.
fn churn_cells(systems: &[SystemKind], arms: &[ChurnArm]) -> Vec<(SystemKind, ChurnArm)> {
    systems
        .iter()
        .flat_map(|&system| arms.iter().map(move |&arm| (system, arm)))
        .collect()
}

/// One churn cell: one system through one arm.
#[derive(Debug, Clone)]
pub struct ChurnCell {
    /// System under test.
    pub system: SystemKind,
    /// The churn scenario.
    pub arm: ChurnArm,
    /// Human description of the membership change, e.g.
    /// "join 4→5 validators".
    pub churn: String,
    /// Offered load (tx/s).
    pub rate: f64,
    /// MTPS before the first membership event.
    pub pre_mtps: f64,
    /// MTPS over `[q1, mid)` — from the first membership event to where
    /// the rolling arm's second event lands — on every arm.
    pub churn_mtps: f64,
    /// MTPS after the last membership event.
    pub post_mtps: f64,
    /// `churn_mtps / pre_mtps` — the throughput dip while membership
    /// changes (1.0 = no dip; 0.0 when there is no pre-churn baseline).
    pub dip_ratio: f64,
    /// Virtual seconds from the last membership event until throughput
    /// sustains ≥ 70 % of the pre-churn mean (`None` — never
    /// re-stabilized).
    pub restabilize_secs: Option<f64>,
    /// Configuration epochs the system ended on (one per completed
    /// membership change).
    pub epochs: u64,
    /// Completed joins observed by the runtime.
    pub joins: u64,
    /// Completed leaves observed by the runtime.
    pub leaves: u64,
    /// `true` when the system's safety monitor (where it carries one)
    /// reported zero violations — including the cross-epoch invariants.
    /// Vacuously `true` for the CFT systems.
    pub safety_ok: bool,
    /// The full run this cell summarizes; its whole-run `mfls` and `p95`
    /// show churn-induced latency against the same system's other arms.
    pub run: ChaosRun,
}

/// The outcome of a churn campaign: cells in canonical
/// (system, arm) order.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// The systems the campaign ran, canonical order.
    pub systems: Vec<SystemKind>,
    /// The arms the campaign ran, canonical order.
    pub arms: Vec<ChurnArm>,
    /// The cells, systems outer, arms inner.
    pub cells: Vec<ChurnCell>,
}

impl ChurnResult {
    /// The cell of `system` × `arm`, if it was run.
    pub fn cell(&self, system: SystemKind, arm: ChurnArm) -> Option<&ChurnCell> {
        self.cells
            .iter()
            .find(|c| c.system == system && c.arm == arm)
    }
}

/// The scenario and description of one cell. The joiner is the first
/// provisioned standby (`NodeId(total)`); the leaver is the
/// highest-numbered original member (`NodeId(total − 1)`) — never node 0,
/// so the initial leader/primary keeps the chain moving while the
/// membership changes around it.
fn churn_scenario(system: SystemKind, arm: ChurnArm, span: Span) -> (String, Timeline) {
    let d = fault_domain(system);
    let joiner = NodeId(d.total);
    let leaver = NodeId(d.total - 1);
    let rate = match arm {
        ChurnArm::JoinUnderLoad => steady_rate(system) * OVERLOAD_MULTIPLIER,
        _ => steady_rate(system),
    };
    let mut setup = SystemSetup::default().with_standby(arm.standby());
    if arm == ChurnArm::JoinUnderLoad {
        setup = setup.with_admission(tight_limits(system));
    }
    let base = ScenarioBuilder::new(steady_payload(system), rate, span.windows).setup(setup);
    match arm {
        ChurnArm::SingleJoin => (
            format!("join {}→{} {}", d.total, d.total + 1, d.role_label),
            base.at(span.q1()).join(joiner).build(),
        ),
        ChurnArm::SingleLeave => (
            format!("leave {}→{} {}", d.total, d.total - 1, d.role_label),
            base.at(span.q1()).leave(leaver).build(),
        ),
        ChurnArm::RollingReplace => (
            format!("replace 1/{} {}", d.total, d.role_label),
            base.at(span.q1())
                .join(joiner)
                .at(span.mid())
                .leave(leaver)
                .build(),
        ),
        ChurnArm::JoinUnderLoad => (
            format!(
                "join {}→{} {} at {}x load",
                d.total,
                d.total + 1,
                d.role_label,
                OVERLOAD_MULTIPLIER as u64
            ),
            base.at(span.q1()).join(joiner).build(),
        ),
    }
}

/// Runs the full campaign: all seven systems × all four arms.
pub fn churn(cfg: &ExperimentConfig) -> ChurnResult {
    churn_for(cfg, &SystemKind::ALL, &ChurnArm::ALL)
}

/// Runs the `systems` × `arms` cells (canonicalized to [`SystemKind::ALL`]
/// × [`ChurnArm::ALL`] order) on the grid executor (`cfg.jobs` workers).
/// Each cell's seed is content-addressed by `("churn", system, arm)`, so
/// any worker count or subset reproduces the same cell bytes.
pub fn churn_for(cfg: &ExperimentConfig, systems: &[SystemKind], arms: &[ChurnArm]) -> ChurnResult {
    let span = Span::fault(cfg);
    let systems = canonical(&SystemKind::ALL, systems);
    let arms = canonical(&ChurnArm::ALL, arms);
    let cells: Vec<Cell<(ChurnArm, String)>> = churn_cells(&systems, &arms)
        .into_iter()
        .map(|(system, arm)| {
            let (churn, timeline) = churn_scenario(system, arm, span);
            let parts = ["churn", system.label(), arm.label()];
            Cell::new(&parts, system, timeline, (arm, churn))
        })
        .collect();

    let cells = run_cells(cfg, &cells, |c, sr| {
        let (arm, churn) = &c.spec;
        let p = sr.run.phases(span.q1(), span.mid(), span.listen_end());
        // Re-stabilization counts from the last membership event.
        let last_event = match arm {
            ChurnArm::RollingReplace => span.mid(),
            _ => span.q1(),
        };
        ChurnCell {
            system: c.system,
            arm: *arm,
            churn: churn.clone(),
            rate: c.timeline.rate(),
            pre_mtps: p.pre_mtps,
            churn_mtps: p.during_mtps,
            post_mtps: p.post_mtps,
            dip_ratio: if p.pre_mtps > 0.0 {
                p.during_mtps / p.pre_mtps
            } else {
                0.0
            },
            restabilize_secs: sr
                .run
                .recovery_secs(span.q1(), last_event, RECOVERY_THRESHOLD),
            epochs: sr.epochs,
            joins: sr.stats.joins,
            leaves: sr.stats.leaves,
            safety_ok: sr
                .run
                .safety
                .as_ref()
                .is_none_or(|r| r.violations.is_clean()),
            run: sr.run,
        }
    });

    ChurnResult {
        systems,
        arms,
        cells,
    }
}

impl ChurnCell {
    fn render_row(&self) -> String {
        let restab = match self.restabilize_secs {
            Some(s) => format!("{s:.1} s"),
            None => "never".to_string(),
        };
        format!(
            "{:<18} {:<15} {:<30} {:>6.0} {:>8.1} {:>8.1} {:>8.1} {:>5.2} {:>7} {:>6} {:>5} {:>6} {:>6}",
            self.system.label(),
            self.arm.label(),
            self.churn,
            self.rate,
            self.pre_mtps,
            self.churn_mtps,
            self.post_mtps,
            self.dip_ratio,
            restab,
            self.epochs,
            self.joins,
            self.leaves,
            if self.safety_ok { "ok" } else { "VIOL" },
        )
    }

    fn to_json(&self) -> Json {
        let a = &self.run.accounting;
        Json::Obj(vec![
            ("system".into(), Json::Str(self.system.label().into())),
            ("arm".into(), Json::Str(self.arm.label().into())),
            ("churn".into(), Json::Str(self.churn.clone())),
            ("rate".into(), Json::Num(self.rate)),
            ("pre_mtps".into(), Json::Num(self.pre_mtps)),
            ("churn_mtps".into(), Json::Num(self.churn_mtps)),
            ("post_mtps".into(), Json::Num(self.post_mtps)),
            ("dip_ratio".into(), Json::Num(self.dip_ratio)),
            ("mfls".into(), Json::Num(self.run.mfls)),
            ("p95".into(), Json::Num(self.run.p95)),
            (
                "restabilize_secs".into(),
                self.restabilize_secs.map_or(Json::Null, Json::Num),
            ),
            ("epochs".into(), Json::Num(self.epochs as f64)),
            ("joins".into(), Json::Num(self.joins as f64)),
            ("leaves".into(), Json::Num(self.leaves as f64)),
            ("safety_ok".into(), Json::Bool(self.safety_ok)),
            ("delivery_ratio".into(), Json::Num(a.delivery_ratio())),
            ("scheduled".into(), Json::Num(a.scheduled as f64)),
            ("confirmed".into(), Json::Num(a.confirmed as f64)),
            ("retries".into(), Json::Num(a.retries as f64)),
            ("live".into(), Json::Bool(self.run.live)),
        ])
    }
}

impl Report for ChurnResult {
    /// Renders the per-system churn table. Deterministic: the same config
    /// yields byte-identical output.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Membership churn — epoch-based reconfiguration under steady load\n\
             (dip = churn-window MTPS / pre-churn MTPS; restab = seconds from the\n\
             last membership event until ≥ 70 % of the pre-churn mean sustains)\n\n",
        );
        out.push_str(&format!(
            "{:<18} {:<15} {:<30} {:>6} {:>8} {:>8} {:>8} {:>5} {:>7} {:>6} {:>5} {:>6} {:>6}\n",
            "system",
            "arm",
            "churn",
            "rate",
            "pre",
            "churn",
            "post",
            "dip",
            "restab",
            "epochs",
            "joins",
            "leave",
            "safety",
        ));
        out.push_str(&"-".repeat(140));
        out.push('\n');
        let mut last_system: Option<SystemKind> = None;
        for cell in &self.cells {
            if last_system.is_some_and(|s| s != cell.system) {
                out.push('\n');
            }
            last_system = Some(cell.system);
            out.push_str(&cell.render_row());
            out.push('\n');
        }
        out
    }

    /// The campaign as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        Json::Obj(vec![
            (
                "systems".into(),
                Json::Arr(
                    self.systems
                        .iter()
                        .map(|s| Json::Str(s.label().into()))
                        .collect(),
                ),
            ),
            (
                "arms".into(),
                Json::Arr(
                    self.arms
                        .iter()
                        .map(|a| Json::Str(a.label().into()))
                        .collect(),
                ),
            ),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(ChurnCell::to_json).collect()),
            ),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.02,
            repetitions: 1,
            seed: 0xC0C0,
            full_sweep: false,
            jobs: Some(2),
        }
    }

    #[test]
    fn campaign_cells_expand_in_canonical_order() {
        assert_eq!(churn_cells(&SystemKind::ALL, &ChurnArm::ALL).len(), 7 * 4);
        // Filters canonicalize to ALL order regardless of input order.
        let systems = canonical(&SystemKind::ALL, &[SystemKind::Fabric, SystemKind::CordaOs]);
        let arms = canonical(
            &ChurnArm::ALL,
            &[ChurnArm::SingleLeave, ChurnArm::SingleJoin],
        );
        assert_eq!(systems, [SystemKind::CordaOs, SystemKind::Fabric]);
        assert_eq!(arms, [ChurnArm::SingleJoin, ChurnArm::SingleLeave]);
        assert_eq!(
            churn_cells(&systems, &arms)[0],
            (SystemKind::CordaOs, ChurnArm::SingleJoin),
            "cells walk systems outer, arms inner"
        );
    }

    #[test]
    fn churn_plan_schedules_the_described_events() {
        let span = Span::fault(&quick());
        // The rolling arm joins before it leaves, with the sync window
        // (≈ 250 ms) fitting comfortably between the two events.
        let (desc, timeline) = churn_scenario(SystemKind::Quorum, ChurnArm::RollingReplace, span);
        assert!(desc.contains("replace"));
        assert_eq!(timeline.plan().events().len(), 2);
        assert!(span.mid() - span.q1() >= coconut_types::SimDuration::from_secs(1));
        // The single-leave arm needs no standby; every join arm needs one.
        assert_eq!(ChurnArm::SingleLeave.standby(), 0);
        assert_eq!(ChurnArm::RollingReplace.standby(), 1);
    }

    #[test]
    fn single_join_grows_membership_and_keeps_safety() {
        let r = churn_for(&quick(), &[SystemKind::Quorum], &[ChurnArm::SingleJoin]);
        let c = &r.cells[0];
        assert_eq!(c.joins, 1, "the standby must complete its join");
        assert_eq!(c.epochs, 1, "one membership change, one epoch bump");
        assert!(c.safety_ok, "cross-epoch invariants must hold");
        assert!(c.post_mtps > 0.0, "commits continue after the join");
        assert!(c.run.live);
    }

    #[test]
    fn single_leave_shrinks_membership_without_stalling() {
        let r = churn_for(&quick(), &[SystemKind::Fabric], &[ChurnArm::SingleLeave]);
        let c = &r.cells[0];
        assert_eq!(c.leaves, 1);
        assert_eq!(c.epochs, 1);
        assert!(c.post_mtps > 0.0, "the remaining quorum keeps committing");
    }
}
