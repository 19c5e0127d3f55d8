//! Gray-failure campaign: limping nodes, half-open links, flaky paths and
//! WAN stretch — the faults that don't crash anything.
//!
//! The chaos campaign ([`super::chaos()`]) kills nodes outright; real
//! deployments degrade more often than they die. This campaign injects the
//! four canonical gray failures from the gray-failure literature into every
//! system, at three severities each, and grades the outcome with the
//! consensus-side [`LivenessMonitor`](coconut_consensus::LivenessMonitor)
//! rather than client-side throughput alone:
//!
//! * **slow-leader** — node 0 (the initial primary/proposer/leader by every
//!   engine's rotation convention) has its service times and timers
//!   stretched ×{8, 32, 128}. BFT engines must view-change away from it;
//!   CFT engines re-elect once heartbeats slip.
//! * **slow-follower** — the same straggler injected at the
//!   highest-numbered node: the control case where quorums exclude the
//!   straggler and goodput should barely move.
//! * **flaky-link** — the 0 ↔ 1 link drops each message independently with
//!   p ∈ {0.1, 0.3, 0.6}; retransmissions and vote redundancy should ride
//!   through it.
//! * **asym-partition** — node 0's *outbound* traffic to a growing victim
//!   set is dropped while inbound replies still flow (the half-open
//!   failure that defeats naive "can I reach it?" health checks).
//! * **region-wan** — a three-region
//!   [`RegionMap`](coconut_simnet::RegionMap) adds {20, 80, 240} ms of
//!   cross-region RTT to every inter-region link.
//!
//! Every fault opens at ¼ of the send window and heals at ½, so each cell
//! measures a clean before / during / after. Each cell reports goodput
//! retention during the fault window (vs. the same system's fault-free
//! baseline cell), end-to-end p99 inflation, time-to-recover after the
//! heal ([`ChaosRun::phases`]), and the liveness verdict with its
//! view-change and storm counters.
//!
//! The flow-based Cordas have no inter-validator network to impair: only
//! the straggler arms reach their notary pool, and the other kinds are
//! documented no-ops (cells stay at baseline by construction).
//!
//! Every cell's seed is content-addressed by `["grayfail", system, kind,
//! severity]` (see [`super::harness`]), so `--systems` filters and any
//! `--jobs` worker count render byte-identical reports.

use super::chaos::fault_domain;
use super::harness::{canonical, record, run_cells, steady_payload, steady_rate, Cell, Span};
use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::json::Json;
use crate::params::SystemKind;
use crate::report::{self, Column, Report};
use crate::scenario::{ScenarioBuilder, ScenarioRun, Timeline};
use coconut_chains::SystemStats;
use coconut_types::{NodeId, SimDuration};

/// Straggler time-stretch factors, low → high severity. The mid factor is
/// chosen to trip every BFT timeout (e.g. 100 ms base delays × 32 exceeds
/// DiemBFT's 3 s round timer).
pub const SLOW_FACTORS: [f64; 3] = [8.0, 32.0, 128.0];

/// Per-message drop probabilities of the flaky 0 ↔ 1 link.
pub const FLAKY_PROBS: [f64; 3] = [0.1, 0.3, 0.6];

/// Cross-region round-trip times of the WAN arm (ms).
pub const WAN_RTTS_MS: [u64; 3] = [20, 80, 240];

/// Regions of the WAN arm's round-robin map.
pub const WAN_REGIONS: u32 = 3;

/// Severity labels, in grid order. They are seed components — never
/// reorder or rename (see [`crate::exec`]).
pub const SEVERITIES: [&str; 3] = ["low", "mid", "high"];

/// The five injected gray-fault kinds, in grid (and report) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrayKind {
    /// Node 0 — the initial leader by every engine's rotation — limps.
    SlowLeader,
    /// The highest-numbered node limps (the control arm).
    SlowFollower,
    /// The 0 ↔ 1 link drops messages independently.
    FlakyLink,
    /// Node 0's outbound traffic to a victim set is dropped; replies flow.
    AsymPartition,
    /// A three-region map stretches every cross-region link.
    RegionWan,
}

impl GrayKind {
    /// All kinds, in grid order.
    pub const ALL: [GrayKind; 5] = [
        GrayKind::SlowLeader,
        GrayKind::SlowFollower,
        GrayKind::FlakyLink,
        GrayKind::AsymPartition,
        GrayKind::RegionWan,
    ];

    /// The kind's stable label — a seed component, never renamed.
    pub fn label(self) -> &'static str {
        match self {
            GrayKind::SlowLeader => "slow-leader",
            GrayKind::SlowFollower => "slow-follower",
            GrayKind::FlakyLink => "flaky-link",
            GrayKind::AsymPartition => "asym-partition",
            GrayKind::RegionWan => "region-wan",
        }
    }
}

/// One cell of the grid: a system under one gray fault at one severity, or
/// the system's fault-free baseline (`kind == None`).
#[derive(Debug, Clone)]
pub struct GrayfailCell {
    /// System under test.
    pub system: SystemKind,
    /// The injected fault, or `None` for the baseline cell.
    pub kind: Option<GrayKind>,
    /// Severity label (`"-"` for the baseline).
    pub severity: &'static str,
    /// Human description of the injected parameters.
    pub params: String,
    /// Goodput during the fault window (ops/s).
    pub fault_mtps: f64,
    /// `fault_mtps` over the baseline cell's same-window goodput (1.0 for
    /// the baseline itself).
    pub retention: f64,
    /// Whole-run p99 latency over the baseline's (1.0 for the baseline).
    pub p99_inflation: f64,
    /// Virtual seconds from the heal until goodput sustains
    /// [`super::harness::RECOVERY_THRESHOLD`] × the pre-fault mean; `None` if it never
    /// does (and for the baseline, which has nothing to recover from).
    pub recovery_secs: Option<f64>,
    /// System-side counters at run end.
    pub stats: SystemStats,
    /// The full client-side run (liveness report included).
    pub run: ChaosRun,
}

impl GrayfailCell {
    /// `"baseline"` or the fault kind's label.
    pub fn kind_label(&self) -> &'static str {
        self.kind.map_or("baseline", GrayKind::label)
    }
}

/// The outcome of the gray-failure campaign: per system, the baseline cell
/// followed by kinds × severities, in grid order.
#[derive(Debug, Clone)]
pub struct GrayfailResult {
    /// All cells, grid order.
    pub cells: Vec<GrayfailCell>,
}

impl GrayfailResult {
    /// The cell of `(system, kind, severity)`; `kind == None` finds the
    /// baseline.
    pub fn cell(
        &self,
        system: SystemKind,
        kind: Option<GrayKind>,
        severity: &str,
    ) -> Option<&GrayfailCell> {
        self.cells
            .iter()
            .find(|c| c.system == system && c.kind == kind && c.severity == severity)
    }
}

/// The victim set of the asymmetric-partition arm at severity `sev`:
/// one node, the back half, or everyone but node 0.
fn asym_victims(total: u32, sev: usize) -> Vec<NodeId> {
    match sev {
        0 => vec![NodeId(total - 1)],
        1 => (total.div_ceil(2)..total).map(NodeId).collect(),
        _ => (1..total).map(NodeId).collect(),
    }
}

/// One cell as a scenario plus its parameter description.
fn cell_scenario(
    system: SystemKind,
    kind: Option<GrayKind>,
    sev: usize,
    a: Span,
) -> (Timeline, String) {
    let total = fault_domain(system).total;
    let base = ScenarioBuilder::new(steady_payload(system), steady_rate(system), a.windows);
    let Some(kind) = kind else {
        return (base.build(), "-".to_string());
    };
    let cur = base.at(a.q1());
    match kind {
        GrayKind::SlowLeader => {
            let f = SLOW_FACTORS[sev];
            (
                cur.slow_node(NodeId(0), f, a.mid()).build(),
                format!("x{f:.0}"),
            )
        }
        GrayKind::SlowFollower => {
            let f = SLOW_FACTORS[sev];
            (
                cur.slow_node(NodeId(total - 1), f, a.mid()).build(),
                format!("x{f:.0}"),
            )
        }
        GrayKind::FlakyLink => {
            let p = FLAKY_PROBS[sev];
            (
                cur.flaky_link(NodeId(0), NodeId(1), p, a.mid()).build(),
                format!("p={p:.1}"),
            )
        }
        GrayKind::AsymPartition => {
            let to = asym_victims(total, sev);
            let params = format!("0→{}/{}", to.len(), total);
            (
                cur.asym_partition(&[NodeId(0)], &to, a.mid()).build(),
                params,
            )
        }
        GrayKind::RegionWan => {
            let rtt = WAN_RTTS_MS[sev];
            let map = coconut_simnet::RegionMap::round_robin(
                total,
                WAN_REGIONS,
                SimDuration::from_millis(rtt),
            );
            (
                cur.region_latency(map, a.mid()).build(),
                format!("rtt={rtt}ms"),
            )
        }
    }
}

/// Builds one finished cell from its run, relative to its baseline.
fn finish_cell(
    c: &Cell<(Option<GrayKind>, &'static str, String)>,
    a: Span,
    baseline: Option<&GrayfailCell>,
    sr: ScenarioRun,
) -> GrayfailCell {
    let (kind, severity, params) = &c.spec;
    let p = sr.run.phases(a.q1(), a.mid(), a.listen_end());
    let (retention, p99_inflation, recovery_secs) = match baseline {
        None => (1.0, 1.0, None),
        Some(b) => {
            let retention = if b.fault_mtps > 0.0 {
                p.during_mtps / b.fault_mtps
            } else {
                1.0
            };
            let inflation = if b.run.p99 > 0.0 {
                sr.run.p99 / b.run.p99
            } else {
                1.0
            };
            (retention, inflation, p.recovery_secs)
        }
    };
    GrayfailCell {
        system: c.system,
        kind: *kind,
        severity,
        params: params.clone(),
        fault_mtps: p.during_mtps,
        retention,
        p99_inflation,
        recovery_secs,
        stats: sr.stats,
        run: sr.run,
    }
}

/// Runs the gray-failure campaign over all seven systems.
pub fn grayfail(cfg: &ExperimentConfig) -> GrayfailResult {
    grayfail_for(cfg, &SystemKind::ALL)
}

/// Runs the campaign over `systems` only (canonicalized to
/// [`SystemKind::ALL`] order). Cell seeds are content-addressed by
/// `(system, kind, severity)`, so a subset's cells are byte-identical to
/// the same cells of the full campaign, for any worker count.
pub fn grayfail_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> GrayfailResult {
    // Faults open at q1 and heal at mid. An 8 s listen margin is long
    // enough to drain, and short enough that the end-of-run tail gap stays
    // under the liveness monitor's 10 s stall gap.
    let a = Span::fault(cfg).with_listen_margin(8);
    let systems = canonical(&SystemKind::ALL, systems);
    // Baselines first: every fault cell is graded against its system's
    // fault-free run of the same windows and seed scope.
    let cells: Vec<_> = systems
        .iter()
        .map(|&system| {
            let (tl, params) = cell_scenario(system, None, 0, a);
            let parts = ["grayfail", system.label(), "baseline", "-"];
            Cell::new(&parts, system, tl, (None, "-", params))
        })
        .collect();
    let baselines = run_cells(cfg, &cells, |c, sr| finish_cell(c, a, None, sr));
    let mut cells = Vec::new();
    for &system in &systems {
        for kind in GrayKind::ALL {
            for (sev, severity) in SEVERITIES.into_iter().enumerate() {
                let (tl, params) = cell_scenario(system, Some(kind), sev, a);
                let parts = ["grayfail", system.label(), kind.label(), severity];
                cells.push(Cell::new(
                    &parts,
                    system,
                    tl,
                    (Some(kind), severity, params),
                ));
            }
        }
    }
    let fault_cells = run_cells(cfg, &cells, |c, sr| {
        let baseline = baselines.iter().find(|b| b.system == c.system);
        finish_cell(c, a, baseline, sr)
    });
    // Assemble grid order: per system, the baseline then its fault cells.
    let per_system = GrayKind::ALL.len() * SEVERITIES.len();
    let mut fault_cells = fault_cells.into_iter();
    let mut cells = Vec::with_capacity(baselines.len() * (per_system + 1));
    for b in baselines {
        cells.push(b);
        cells.extend(fault_cells.by_ref().take(per_system));
    }
    GrayfailResult { cells }
}

impl GrayfailCell {
    fn record(&self) -> Json {
        // No liveness monitor: verdict "n/a", no view changes or storms.
        let (verdict, view_changes, storms) = self.run.liveness.as_ref().map_or_else(
            || ("n/a".to_string(), 0, 0),
            |l| (l.verdict.label(), l.view_changes, l.storms),
        );
        let keys = "system kind severity params fault_mtps retention p99_inflation recovery_secs \
            verdict view_changes storms mtps p99_secs scheduled confirmed busy";
        record(keys, &self.run, Some(&self.stats), |key| match key {
            "system" => Some(self.system.label().into()),
            "kind" => Some(self.kind_label().into()),
            "severity" => Some(self.severity.into()),
            "params" => Some(self.params.as_str().into()),
            "fault_mtps" => Some(self.fault_mtps.into()),
            "retention" => Some(self.retention.into()),
            "p99_inflation" => Some(self.p99_inflation.into()),
            "recovery_secs" => Some(self.recovery_secs.into()),
            "verdict" => Some(verdict.as_str().into()),
            "view_changes" => Some(view_changes.into()),
            "storms" => Some(storms.into()),
            _ => None,
        })
    }
}

/// The columns of each system's block.
const COLUMNS: [Column; 10] = [
    Column::text("kind", 15, "kind"),
    Column::text("sev", 4, "severity"),
    Column::text("params", 9, "params"),
    Column::num("fault t/s", 9, "fault_mtps", 1),
    Column::with("retain", 9, |r| {
        format!("{:.0}%", 100.0 * r.num("retention"))
    }),
    Column::num("p99 x", 7, "p99_inflation", 2),
    Column::with("recov s", 8, |r| {
        let secs = r.field("recovery_secs").as_f64();
        secs.map_or_else(|| "-".to_string(), |s| format!("{s:.0}"))
    }),
    Column::num("vc", 6, "view_changes", 0),
    Column::num("storms", 6, "storms", 0),
    Column::text("verdict", 7, "verdict"),
];

impl Report for GrayfailResult {
    fn record(&self) -> Json {
        let cells = self.cells.iter().map(GrayfailCell::record);
        Json::obj([("cells", cells.collect())])
    }

    /// Renders the grid, one block per system. Deterministic: the same
    /// config yields byte-identical output.
    fn render(&self) -> String {
        let record = self.record();
        let mut out =
            String::from("Gray failures — stragglers, flaky links, half-open partitions, WAN\n");
        for cells in record
            .list("cells")
            .chunk_by(|a, b| a.text("system") == b.text("system"))
        {
            out.push_str(&format!("\n== {}\n", cells[0].text("system")));
            out.push_str(&report::columns(&COLUMNS, cells));
        }
        out
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
    fn asym_victim_sets_grow_with_severity() {
        assert_eq!(asym_victims(4, 0), vec![NodeId(3)]);
        assert_eq!(asym_victims(4, 1), vec![NodeId(2), NodeId(3)]);
        assert_eq!(asym_victims(4, 2), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Odd totals: the "back half" never swallows node 0's quorum peers.
        assert_eq!(asym_victims(3, 1), vec![NodeId(2)]);
    }

    #[test]
    fn baseline_cells_are_their_own_reference() {
        let r = grayfail_for(&quick(), &[SystemKind::Fabric]);
        let b = r.cell(SystemKind::Fabric, None, "-").expect("baseline");
        assert_eq!(b.retention, 1.0);
        assert_eq!(b.p99_inflation, 1.0);
        assert!(b.recovery_secs.is_none());
        assert!(b.run.accounting.is_complete());
        // 1 baseline + 5 kinds × 3 severities.
        assert_eq!(r.cells.len(), 16);
    }

    #[test]
    fn subset_cells_match_full_campaign() {
        // Content-addressed seeds: the Quorum cells of a one-system run are
        // byte-identical to the Quorum cells of a two-system run.
        let solo = grayfail_for(&quick(), &[SystemKind::Quorum]);
        let duo = grayfail_for(&quick(), &[SystemKind::Fabric, SystemKind::Quorum]);
        for c in &solo.cells {
            let other = duo
                .cell(c.system, c.kind, c.severity)
                .expect("cell present in the larger run");
            assert_eq!(c.run.accounting, other.run.accounting);
            assert_eq!(c.run.buckets, other.run.buckets);
            assert_eq!(c.run.liveness, other.run.liveness);
        }
    }

    #[test]
    fn jobs_do_not_change_results() {
        let mut one = quick();
        one.jobs = Some(1);
        let mut eight = quick();
        eight.jobs = Some(8);
        let a = grayfail_for(&one, &[SystemKind::Sawtooth]);
        let b = grayfail_for(&eight, &[SystemKind::Sawtooth]);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn slow_follower_is_gentler_than_slow_leader() {
        // The control arm: a straggling follower at mid severity retains at
        // least as much goodput as the same straggle on the leader.
        let r = grayfail_for(&quick(), &[SystemKind::Sawtooth]);
        let leader = r
            .cell(SystemKind::Sawtooth, Some(GrayKind::SlowLeader), "mid")
            .unwrap();
        let follower = r
            .cell(SystemKind::Sawtooth, Some(GrayKind::SlowFollower), "mid")
            .unwrap();
        assert!(
            follower.retention >= leader.retention,
            "follower {} < leader {}",
            follower.retention,
            leader.retention
        );
    }
}
