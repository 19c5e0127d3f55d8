//! Deterministic fault-injection campaigns ("chaos") over all seven
//! systems.
//!
//! Two campaign shapes share one cell-measurement engine:
//!
//! * **The classic four-arm campaign** ([`chaos`]) per the robustness
//!   study: an f-tolerant crash/heal window, a beyond-f crash that must
//!   halt commits, a 5 % loss burst against the retry client (Fabric,
//!   Quorum), and a Byzantine window at ≤ f and f + 1 flagged validators
//!   (the BFT systems).
//! * **The fault sweep** ([`chaos_sweep`]): systems × [`FaultKind`] ×
//!   severity step ([`severities`]), expanded into independent cells on the
//!   grid executor, producing per-system **degradation curves** (MTPS
//!   before/during/after, delivery ratio, and recovery time as functions
//!   of crashed-node count f = 0..=beyond-f, loss rate, or flagged-
//!   validator count) and a Figure-3-style **heat map** of recovery time
//!   and delivery ratio per system × fault kind.
//!
//! Every cell's seed is content-addressed — classic arms by
//! `(arm, system)`, sweep cells by `(kind, system, severity)` (see
//! [`super::harness`]) — never by grid position, so filtering a campaign
//! to a subset of systems or kinds cannot change any remaining cell's
//! numbers. Every number is a pure function of the root seed: the same
//! [`ExperimentConfig`] renders byte-identical reports.

use super::harness::{canonical, run_cells, steady_payload, steady_rate, Cell, Span};
use super::ExperimentConfig;
use crate::chaos::{ChaosRun, RetryPolicy};
use crate::json::Json;
use crate::params::SystemKind;
use crate::report::{self, Report};
use crate::scenario::{ScenarioBuilder, Timeline};
use coconut_types::{NodeId, SimDuration};

/// The crashable consensus role of one system's baseline deployment: which
/// nodes the crash arms take away, and how many of them the protocol
/// survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDomain {
    /// Plural label of the role ("notaries", "orderers", "validators",
    /// "witnesses").
    pub role_label: &'static str,
    /// Baseline size of the role set.
    pub total: u32,
    /// The largest crash count the protocol tolerates while staying live.
    pub f_tolerant: u32,
    /// The smallest crash count that halts commits.
    pub beyond_f: u32,
}

impl FaultDomain {
    /// Human description of `crashed` nodes of this role, e.g.
    /// "2/4 validators".
    pub fn describe(&self, crashed: u32) -> String {
        format!("{crashed}/{} {}", self.total, self.role_label)
    }
}

/// The crash-fault domain of each system's baseline deployment.
pub fn fault_domain(kind: SystemKind) -> FaultDomain {
    let (role_label, total, f_tolerant, beyond_f) = match kind {
        // The notary pool fails over shard-by-shard; finality halts only
        // once every notary is down.
        SystemKind::CordaOs | SystemKind::CordaEnterprise => ("notaries", 4, 3, 4),
        // DPoS skips missed slots; block production stops only with no
        // witness left.
        SystemKind::Bitshares => ("witnesses", 3, 1, 3),
        // Raft needs a majority of the 3 orderers.
        SystemKind::Fabric => ("orderers", 3, 1, 2),
        // IBFT / PBFT / DiemBFT: n = 4 → f = 1, halt at 2.
        SystemKind::Quorum | SystemKind::Sawtooth | SystemKind::Diem => ("validators", 4, 1, 2),
    };
    FaultDomain {
        role_label,
        total,
        f_tolerant,
        beyond_f,
    }
}

/// The Byzantine fault domain of a system whose consensus has a Byzantine
/// vote quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineDomain {
    /// Baseline validator count.
    pub total: u32,
    /// The largest flagged-validator count safety survives (n = 3f + 1).
    pub f_tolerant: u32,
}

impl ByzantineDomain {
    /// The smallest flagged-validator count that breaks safety.
    pub fn beyond_f(&self) -> u32 {
        self.f_tolerant + 1
    }

    /// Human description of `flagged` equivocating validators, e.g.
    /// "2/4 equivocating".
    pub fn describe(&self, flagged: u32) -> String {
        format!("{flagged}/{} equivocating", self.total)
    }
}

/// The Byzantine fault domain of each system, or `None` for the
/// crash-fault-tolerant rest (Raft ordering, DPoS slots, Corda notaries) —
/// equivocation and double votes have no meaning without a vote quorum.
pub fn byzantine_domain(kind: SystemKind) -> Option<ByzantineDomain> {
    match kind {
        SystemKind::Quorum | SystemKind::Sawtooth | SystemKind::Diem => Some(ByzantineDomain {
            total: 4,
            f_tolerant: 1,
        }),
        _ => None,
    }
}

/// The fault axes a sweep campaign can walk. Each kind maps a scalar
/// severity step to a concrete [`FaultPlan`](coconut_simnet::FaultPlan);
/// severity 0 is always the fault-free baseline cell of the degradation
/// curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Crash `severity` consensus-critical nodes mid-run, heal them at the
    /// window's end (severity = crashed-node count, 0..=beyond-f).
    Crash,
    /// A client-ingress/consensus loss window at `severity` percent drop
    /// probability, against the retry/backoff client.
    Loss,
    /// Flag `severity` validators to equivocate and double-vote during the
    /// fault window (BFT systems only; severity = 0..=f+1).
    Byzantine,
}

impl FaultKind {
    /// All fault kinds in report column order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Crash, FaultKind::Loss, FaultKind::Byzantine];

    /// Stable label; also the seed scope of the kind's sweep cells.
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Loss => "loss",
            FaultKind::Byzantine => "byzantine",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The loss-rate severity axis, in percent drop probability.
const LOSS_STEPS: [u32; 4] = [0, 1, 5, 10];

/// The severity steps `system` admits for `kind` — the degradation
/// curve's x-axis. Empty when the axis does not apply (Byzantine counts on
/// a CFT system). Crash walks f = 0..=beyond-f; loss walks `LOSS_STEPS`
/// percent; Byzantine walks 0..=f+1 flagged validators.
pub fn severities(system: SystemKind, kind: FaultKind) -> Vec<u32> {
    match kind {
        FaultKind::Crash => (0..=fault_domain(system).beyond_f).collect(),
        FaultKind::Loss => LOSS_STEPS.to_vec(),
        FaultKind::Byzantine => {
            byzantine_domain(system).map_or_else(Vec::new, |d| (0..=d.beyond_f()).collect())
        }
    }
}

/// The `(system, kind, severity)` cells of a sweep over `systems` ×
/// `kinds` (both in canonical order), in report order.
fn sweep_cells(systems: &[SystemKind], kinds: &[FaultKind]) -> Vec<(SystemKind, FaultKind, u32)> {
    let mut out = Vec::new();
    for &system in systems {
        for &kind in kinds {
            for severity in severities(system, kind) {
                out.push((system, kind, severity));
            }
        }
    }
    out
}

/// One system × one fault arm of the classic campaign.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// System under test.
    pub system: SystemKind,
    /// Arm label ("crash-f", "crash-beyond-f", "loss-burst", "byz-f",
    /// "byz-beyond-f").
    pub arm: &'static str,
    /// Fault description, e.g. "1/3 orderers" or "2/4 equivocating".
    pub faults: String,
    /// Aggregate rate limiter used (tx/s).
    pub rate: f64,
    /// MTPS over the pre-fault window.
    pub pre_mtps: f64,
    /// MTPS while the fault is active.
    pub fault_mtps: f64,
    /// MTPS after the heal.
    pub post_mtps: f64,
    /// Virtual seconds from heal until throughput sustains ≥ 70 % of the
    /// pre-fault mean (`None` — never recovered, or halt arm).
    pub recovery_secs: Option<f64>,
    /// The full run this cell summarizes.
    pub run: ChaosRun,
}

/// One sweep cell: one system × one fault kind × one severity step.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// System under test.
    pub system: SystemKind,
    /// The fault axis this cell sits on.
    pub kind: FaultKind,
    /// The severity step: crashed-node count, loss percent, or
    /// flagged-validator count, depending on `kind`.
    pub severity: u32,
    /// Human description of the fault, e.g. "2/4 validators" or "5% loss".
    pub faults: String,
    /// Aggregate rate limiter used (tx/s).
    pub rate: f64,
    /// MTPS over the pre-fault window.
    pub pre_mtps: f64,
    /// MTPS while the fault is active.
    pub fault_mtps: f64,
    /// MTPS after the fault window closes.
    pub post_mtps: f64,
    /// Virtual seconds from the window's end until throughput sustains
    /// ≥ 70 % of the pre-fault mean (`None` — never recovered).
    pub recovery_secs: Option<f64>,
    /// The full run this cell summarizes.
    pub run: ChaosRun,
}

/// The degradation curve of one system along one fault axis: cells in
/// ascending severity order, starting at the fault-free baseline.
#[derive(Debug, Clone)]
pub struct DegradationCurve {
    /// System under test.
    pub system: SystemKind,
    /// The fault axis the curve walks.
    pub kind: FaultKind,
    /// The cells, ordered by ascending severity.
    pub cells: Vec<SweepCell>,
}

impl DegradationCurve {
    /// The cell at `severity`, if it was swept.
    pub fn at(&self, severity: u32) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.severity == severity)
    }
}

/// The outcome of a fault-sweep campaign: one [`DegradationCurve`] per
/// (system, fault kind) the campaign admitted, in canonical order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The systems the campaign swept (heat-map rows), canonical order.
    pub systems: Vec<SystemKind>,
    /// The fault kinds the campaign swept (heat-map columns), canonical
    /// order. A kind a system does not admit still gets its column — the
    /// heat map renders "n/a" there.
    pub kinds: Vec<FaultKind>,
    /// The campaign's curves in [`SystemKind::ALL`] × [`FaultKind::ALL`]
    /// order.
    pub curves: Vec<DegradationCurve>,
}

/// The complete classic chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// f-tolerant crash/heal arm, one cell per system.
    pub tolerant: Vec<ChaosCell>,
    /// beyond-f crash arm (no heal), one cell per system.
    pub halt: Vec<ChaosCell>,
    /// Loss-burst arm with the retry client (Fabric, Quorum).
    pub bursts: Vec<ChaosCell>,
    /// Byzantine window arm, two cells (≤ f and f + 1 flagged validators)
    /// per BFT system (Quorum, Sawtooth, Diem).
    pub byzantine: Vec<ChaosCell>,
}

/// The campaign's base scenario for one system: the steady workload, rate
/// and windows, before any fault timeline is attached.
fn scenario(kind: SystemKind, span: Span) -> ScenarioBuilder {
    ScenarioBuilder::new(steady_payload(kind), steady_rate(kind), span.windows)
}

/// Nodes `0..n`: the crashed or flagged nodes of a cell.
fn first_nodes(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

/// The fault description and scenario of one sweep cell. All kinds share
/// the `[q1, mid)` fault window so the during-fault measurement window
/// lines up across axes; severity 0 always maps to an event-free timeline
/// (the curve's fault-free baseline).
fn sweep_scenario(
    system: SystemKind,
    kind: FaultKind,
    severity: u32,
    span: Span,
) -> (String, Timeline) {
    let base = scenario(system, span);
    let nodes = first_nodes(severity);
    match kind {
        FaultKind::Crash => (
            fault_domain(system).describe(severity),
            base.at(span.q1()).crash_until(&nodes, span.mid()).build(),
        ),
        FaultKind::Loss => {
            let timeline = if severity == 0 {
                base.build()
            } else {
                base.at(span.q1())
                    .loss(f64::from(severity) / 100.0, span.mid())
                    .build()
            };
            (format!("{severity}% loss"), timeline)
        }
        FaultKind::Byzantine => {
            let d = byzantine_domain(system).expect("severities() admits Byzantine only for BFT");
            let timeline = if severity == 0 {
                base.build()
            } else {
                base.at(span.q1()).byzantine(&nodes, span.mid()).build()
            };
            (d.describe(severity), timeline)
        }
    }
}

/// Runs the fault sweep over `systems` × `kinds` (canonicalized to
/// [`SystemKind::ALL`] × [`FaultKind::ALL`] order): every admitted
/// `(system, kind, severity)` cell on the grid executor (`cfg.jobs`
/// workers), grouped into per-system [`DegradationCurve`]s. All cells use
/// the retry/backoff client and the shared fault window, so curves are
/// comparable across axes; each cell's seed is content-addressed by
/// `(kind, system, severity)`, so any filtering or worker count reproduces
/// the same cell bytes.
pub fn chaos_sweep(
    cfg: &ExperimentConfig,
    systems: &[SystemKind],
    kinds: &[FaultKind],
) -> SweepResult {
    let span = Span::fault(cfg);
    let systems = canonical(&SystemKind::ALL, systems);
    let kinds = canonical(&FaultKind::ALL, kinds);
    let cells: Vec<Cell<(FaultKind, u32, String)>> = sweep_cells(&systems, &kinds)
        .into_iter()
        .map(|(system, kind, severity)| {
            let (faults, timeline) = sweep_scenario(system, kind, severity, span);
            let parts = [
                "chaos-sweep",
                kind.label(),
                system.label(),
                &severity.to_string(),
            ];
            Cell::new(&parts, system, timeline, (kind, severity, faults))
        })
        .collect();

    let cells = run_cells(cfg, &cells, |c, sr| {
        let (kind, severity, faults) = &c.spec;
        let p = sr.run.phases(span.q1(), span.mid(), span.listen_end());
        SweepCell {
            system: c.system,
            kind: *kind,
            severity: *severity,
            faults: faults.clone(),
            rate: c.timeline.rate(),
            pre_mtps: p.pre_mtps,
            fault_mtps: p.during_mtps,
            post_mtps: p.post_mtps,
            recovery_secs: p.recovery_secs,
            run: sr.run,
        }
    });

    // Group the flat cell list back into (system, kind) curves; run_cells
    // returns results in input order, which is exactly sweep_cells order.
    let mut curves: Vec<DegradationCurve> = Vec::new();
    for cell in cells {
        match curves.last_mut() {
            Some(c) if c.system == cell.system && c.kind == cell.kind => c.cells.push(cell),
            _ => curves.push(DegradationCurve {
                system: cell.system,
                kind: cell.kind,
                cells: vec![cell],
            }),
        }
    }
    SweepResult {
        systems,
        kinds,
        curves,
    }
}

/// Runs the full classic campaign over all seven systems.
pub fn chaos(cfg: &ExperimentConfig) -> ChaosResult {
    chaos_for(cfg, &SystemKind::ALL)
}

/// Runs the classic campaign over `systems` (canonicalized to
/// [`SystemKind::ALL`] order): the f-tolerant crash/heal arm and the
/// beyond-f halt arm for every system, the loss-burst arm for Fabric and
/// Quorum, and the Byzantine-window arm (≤ f and f + 1 flagged
/// validators) for the BFT systems. All cells are independent and run on
/// the grid executor (`cfg.jobs` workers); each cell's seed is derived
/// from its arm and system — never from loop order — so any worker count
/// or subset of systems reproduces the same cell bytes.
pub fn chaos_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> ChaosResult {
    let span = Span::fault(cfg);
    let systems = canonical(&SystemKind::ALL, systems);
    // (arm, faults, healed): halt and Byzantine arms are not
    // heal-and-recover experiments, so they report no recovery time.
    let mut cells: Vec<Cell<(&'static str, String, bool)>> = Vec::new();
    for &kind in &systems {
        let d = fault_domain(kind);
        let timeline = scenario(kind, span)
            .at(span.q1())
            .crash_until(&first_nodes(d.f_tolerant), span.mid())
            .build();
        let spec = ("crash-f", d.describe(d.f_tolerant), true);
        cells.push(Cell::new(
            &["chaos-tolerant", kind.label()],
            kind,
            timeline,
            spec,
        ));
    }
    for &kind in &systems {
        let d = fault_domain(kind);
        // No retries: a retry storm against a halted system only
        // reclassifies losses; the halt must show in raw commits.
        let timeline = scenario(kind, span)
            .policy(RetryPolicy::disabled())
            .at(span.q1())
            .crash(&first_nodes(d.beyond_f))
            .build();
        let spec = ("crash-beyond-f", d.describe(d.beyond_f), false);
        cells.push(Cell::new(
            &["chaos-halt", kind.label()],
            kind,
            timeline,
            spec,
        ));
    }
    for &kind in systems
        .iter()
        .filter(|k| matches!(k, SystemKind::Fabric | SystemKind::Quorum))
    {
        let window = SimDuration::from_secs_f64(span.windows.send.as_secs_f64() / 5.0);
        let timeline = scenario(kind, span)
            .at(span.q1())
            .loss_burst(0.05, window)
            .build();
        let spec = ("loss-burst", "5% loss".to_string(), true);
        cells.push(Cell::new(
            &["chaos-burst", kind.label()],
            kind,
            timeline,
            spec,
        ));
    }
    for &kind in &systems {
        let Some(d) = byzantine_domain(kind) else {
            continue;
        };
        for (arm, count) in [("byz-f", d.f_tolerant), ("byz-beyond-f", d.beyond_f())] {
            let timeline = scenario(kind, span)
                .at(span.q1())
                .byzantine(&first_nodes(count), span.mid())
                .build();
            let spec = (arm, d.describe(count), false);
            cells.push(Cell::new(
                &["chaos-byz", arm, kind.label()],
                kind,
                timeline,
                spec,
            ));
        }
    }

    let cells = run_cells(cfg, &cells, |c, sr| {
        let (arm, faults, healed) = &c.spec;
        let p = sr.run.phases(span.q1(), span.mid(), span.listen_end());
        ChaosCell {
            system: c.system,
            arm,
            faults: faults.clone(),
            rate: c.timeline.rate(),
            pre_mtps: p.pre_mtps,
            fault_mtps: p.during_mtps,
            post_mtps: p.post_mtps,
            recovery_secs: p.recovery_secs.filter(|_| *healed),
            run: sr.run,
        }
    });
    let (tolerant, rest): (Vec<_>, Vec<_>) = cells.into_iter().partition(|c| c.arm == "crash-f");
    let (halt, rest): (Vec<_>, Vec<_>) = rest.into_iter().partition(|c| c.arm == "crash-beyond-f");
    let (bursts, byzantine) = rest.into_iter().partition(|c| c.arm == "loss-burst");
    ChaosResult {
        tolerant,
        halt,
        bursts,
        byzantine,
    }
}

/// The measured-metrics JSON tail shared by classic arms and sweep cells.
/// Field names and order are pinned by the golden files — append, never
/// reorder.
fn metrics_json(
    rate: f64,
    pre: f64,
    fault: f64,
    post: f64,
    recovery: Option<f64>,
    run: &ChaosRun,
) -> Vec<(String, Json)> {
    let a = &run.accounting;
    vec![
        ("rate".into(), Json::Num(rate)),
        ("pre_mtps".into(), Json::Num(pre)),
        ("fault_mtps".into(), Json::Num(fault)),
        ("post_mtps".into(), Json::Num(post)),
        (
            "recovery_secs".into(),
            recovery.map_or(Json::Null, Json::Num),
        ),
        ("mfls".into(), Json::Num(run.mfls)),
        ("live".into(), Json::Bool(run.live)),
        ("scheduled".into(), Json::Num(a.scheduled as f64)),
        ("confirmed".into(), Json::Num(a.confirmed as f64)),
        ("rejected".into(), Json::Num(a.rejected as f64)),
        ("timed_out".into(), Json::Num(a.timed_out as f64)),
        ("lost_in_fault".into(), Json::Num(a.lost_in_fault as f64)),
        ("retries".into(), Json::Num(a.retries as f64)),
        ("delivery_ratio".into(), Json::Num(a.delivery_ratio())),
        (
            // `null` for CFT systems: safety invariants not applicable.
            "byzantine".into(),
            match &run.safety {
                None => Json::Null,
                Some(s) => Json::Obj(vec![
                    (
                        "conflicting_commits".into(),
                        Json::Num(s.violations.conflicting_commits as f64),
                    ),
                    (
                        "conflicting_certificates".into(),
                        Json::Num(s.violations.conflicting_certificates as f64),
                    ),
                    (
                        "undersized_quorums".into(),
                        Json::Num(s.violations.undersized_quorums as f64),
                    ),
                    (
                        "equivocating_proposals".into(),
                        Json::Num(s.observed.equivocating_proposals as f64),
                    ),
                    (
                        "double_votes".into(),
                        Json::Num(s.observed.double_votes as f64),
                    ),
                    (
                        "byzantine_nodes".into(),
                        Json::Num(s.observed.byzantine_nodes as f64),
                    ),
                ]),
            },
        ),
    ]
}

/// The shared numeric columns of a report row (everything after the
/// cell-identity columns): pre/fault/post MTPS, recovery, delivery, the
/// NoT split, and the safety verdict.
fn metrics_row(pre: f64, fault: f64, post: f64, recovery: &str, run: &ChaosRun) -> String {
    let (viol, byz) = match &run.safety {
        Some(s) => (
            s.violations.total().to_string(),
            s.observed.byzantine_nodes.to_string(),
        ),
        None => ("n/a".to_string(), "n/a".to_string()),
    };
    let a = &run.accounting;
    format!(
        "{pre:>9.1} {fault:>9.1} {post:>9.1} {recovery:>8} {:>6.3} {:>5} {:>5} {:>5} {:>5} {viol:>5} {byz:>5}",
        a.delivery_ratio(),
        a.rejected,
        a.timed_out,
        a.lost_in_fault,
        a.retries,
    )
}

/// The shared numeric header matching [`metrics_row`].
fn metrics_header() -> String {
    format!(
        "{:>9} {:>9} {:>9} {:>8} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "pre", "fault", "post", "recovery", "deliv", "rej", "tout", "lost", "retry", "viol", "byz",
    )
}

impl ChaosCell {
    fn render_row(&self) -> String {
        let rec = match self.recovery_secs {
            Some(s) => format!("{s:.1} s"),
            // Halt and Byzantine arms are not heal-and-recover experiments.
            None if self.arm == "crash-beyond-f" || self.arm.starts_with("byz") => "—".to_string(),
            None => "never".to_string(),
        };
        format!(
            "{:<18} {:<15} {:<16} {}",
            self.system.label(),
            self.arm,
            self.faults,
            metrics_row(
                self.pre_mtps,
                self.fault_mtps,
                self.post_mtps,
                &rec,
                &self.run
            ),
        )
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("system".into(), Json::Str(self.system.label().into())),
            ("arm".into(), Json::Str(self.arm.into())),
            ("faults".into(), Json::Str(self.faults.clone())),
        ];
        fields.extend(metrics_json(
            self.rate,
            self.pre_mtps,
            self.fault_mtps,
            self.post_mtps,
            self.recovery_secs,
            &self.run,
        ));
        Json::Obj(fields)
    }
}

impl SweepCell {
    fn render_row(&self) -> String {
        let rec = match self.recovery_secs {
            Some(s) => format!("{s:.1} s"),
            None => "never".to_string(),
        };
        format!(
            "{:>3} {:<16} {}",
            self.severity,
            self.faults,
            metrics_row(
                self.pre_mtps,
                self.fault_mtps,
                self.post_mtps,
                &rec,
                &self.run
            ),
        )
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("system".into(), Json::Str(self.system.label().into())),
            ("fault".into(), Json::Str(self.kind.label().into())),
            ("severity".into(), Json::Num(f64::from(self.severity))),
            ("faults".into(), Json::Str(self.faults.clone())),
        ];
        fields.extend(metrics_json(
            self.rate,
            self.pre_mtps,
            self.fault_mtps,
            self.post_mtps,
            self.recovery_secs,
            &self.run,
        ));
        Json::Obj(fields)
    }
}

impl ChaosResult {
    /// All cells in report order.
    pub fn cells(&self) -> impl Iterator<Item = &ChaosCell> {
        self.tolerant
            .iter()
            .chain(&self.halt)
            .chain(&self.bursts)
            .chain(&self.byzantine)
    }
}

impl Report for ChaosResult {
    /// Renders the campaign as a fixed-width text report. Deterministic:
    /// the same config yields byte-identical output.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<15} {:<16} {}\n",
            "system",
            "arm",
            "faults",
            metrics_header(),
        ));
        out.push_str(&"-".repeat(132));
        out.push('\n');
        for c in self.cells() {
            out.push_str(&c.render_row());
            out.push('\n');
        }
        out
    }

    /// The campaign as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        Json::Arr(self.cells().map(ChaosCell::to_json).collect()).to_pretty()
    }
}

impl SweepResult {
    /// The curve of `(system, kind)`, if the campaign swept it.
    pub fn curve(&self, system: SystemKind, kind: FaultKind) -> Option<&DegradationCurve> {
        self.curves
            .iter()
            .find(|c| c.system == system && c.kind == kind)
    }

    /// The heat-map cell of `(system, kind)`: the curve cell at the
    /// highest severity the protocol *tolerates* — crash at f-tolerant,
    /// Byzantine at f, loss at the largest swept rate. `None` when the
    /// axis was not swept or not admitted.
    pub fn heatmap_cell(&self, system: SystemKind, kind: FaultKind) -> Option<&SweepCell> {
        let curve = self.curve(system, kind)?;
        match kind {
            FaultKind::Crash => curve.at(fault_domain(system).f_tolerant),
            FaultKind::Byzantine => curve.at(byzantine_domain(system)?.f_tolerant),
            FaultKind::Loss => curve.cells.last(),
        }
    }

    /// Renders the system × fault-kind heat map: recovery seconds and
    /// delivery ratio at the highest tolerated severity per cell, "n/a"
    /// where the axis does not apply (Byzantine counts on CFT systems).
    pub fn render_heatmap(&self) -> String {
        let col_labels: Vec<&str> = self.kinds.iter().map(|k| k.label()).collect();
        let row_labels: Vec<&str> = self.systems.iter().map(|s| s.label()).collect();
        let cells: Vec<Vec<Vec<String>>> = self
            .systems
            .iter()
            .map(|&s| {
                self.kinds
                    .iter()
                    .map(|&k| match self.heatmap_cell(s, k) {
                        Some(cell) => {
                            let rec = match cell.recovery_secs {
                                Some(r) => format!("rec={r:.1} s"),
                                None => "rec=never".to_string(),
                            };
                            vec![
                                rec,
                                format!("deliv={:.3}", cell.run.accounting.delivery_ratio()),
                                format!("@ {}", cell.faults),
                            ]
                        }
                        None => vec!["n/a".to_string()],
                    })
                    .collect()
            })
            .collect();
        report::grid_heatmap(&row_labels, &col_labels, &cells)
    }
}

impl Report for SweepResult {
    /// Renders the degradation curves followed by the heat map.
    /// Deterministic: the same campaign and config yield byte-identical
    /// output.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Degradation curves — pre/fault/post MTPS vs fault severity\n\n");
        for curve in &self.curves {
            out.push_str(&format!("== {} × {}\n", curve.system.label(), curve.kind));
            out.push_str(&format!(
                "{:>3} {:<16} {}\n",
                "sev",
                "faults",
                metrics_header()
            ));
            for cell in &curve.cells {
                out.push_str(&cell.render_row());
                out.push('\n');
            }
            out.push('\n');
        }
        out.push_str(
            "Heat map — recovery and delivery at the highest tolerated severity\n\
             (crash: f-tolerant crashes; byzantine: f flagged; loss: largest swept rate)\n\n",
        );
        out.push_str(&self.render_heatmap());
        out
    }

    /// The sweep as pretty-printed JSON: the curves (every cell with the
    /// full metric set) plus the heat map (recovery and delivery at the
    /// tolerated severity per system × kind).
    fn to_json(&self) -> String {
        let curves = self
            .curves
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("system".into(), Json::Str(c.system.label().into())),
                    ("fault".into(), Json::Str(c.kind.label().into())),
                    (
                        "cells".into(),
                        Json::Arr(c.cells.iter().map(SweepCell::to_json).collect()),
                    ),
                ])
            })
            .collect();
        let mut heat = Vec::new();
        for &s in &self.systems {
            for &k in &self.kinds {
                let Some(cell) = self.heatmap_cell(s, k) else {
                    continue;
                };
                heat.push(Json::Obj(vec![
                    ("system".into(), Json::Str(s.label().into())),
                    ("fault".into(), Json::Str(k.label().into())),
                    ("severity".into(), Json::Num(f64::from(cell.severity))),
                    ("faults".into(), Json::Str(cell.faults.clone())),
                    (
                        "recovery_secs".into(),
                        cell.recovery_secs.map_or(Json::Null, Json::Num),
                    ),
                    (
                        "delivery_ratio".into(),
                        Json::Num(cell.run.accounting.delivery_ratio()),
                    ),
                ]));
            }
        }
        Json::Obj(vec![
            ("curves".into(), Json::Arr(curves)),
            ("heatmap".into(), Json::Arr(heat)),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::SimTime;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.08, // 24 s send window
            repetitions: 1,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn fault_domains_are_internally_consistent() {
        for kind in SystemKind::ALL {
            let d = fault_domain(kind);
            assert!(d.f_tolerant < d.beyond_f, "{kind}: tolerant < beyond");
            assert!(d.beyond_f <= d.total, "{kind}: beyond ≤ total");
            assert!(d.describe(d.f_tolerant).contains(d.role_label));
            if let Some(b) = byzantine_domain(kind) {
                assert_eq!(b.beyond_f(), b.f_tolerant + 1);
                assert!(b.total > 3 * b.f_tolerant, "{kind}: n ≥ 3f + 1");
            }
        }
    }

    #[test]
    fn campaign_expands_admitted_severities_only() {
        let full = sweep_cells(&SystemKind::ALL, &FaultKind::ALL);
        assert!(SystemKind::ALL
            .iter()
            .all(|s| full.iter().any(|c| c.0 == *s)));
        assert!(FaultKind::ALL
            .iter()
            .all(|k| full.iter().any(|c| c.1 == *k)));
        // Crash curves span 0..=beyond-f for every system.
        for kind in SystemKind::ALL {
            let sev = severities(kind, FaultKind::Crash);
            assert_eq!(sev.first(), Some(&0), "{kind} starts fault-free");
            assert_eq!(sev.last(), Some(&fault_domain(kind).beyond_f));
        }
        // Byzantine axes exist only where a vote quorum exists.
        assert!(severities(SystemKind::Fabric, FaultKind::Byzantine).is_empty());
        assert_eq!(
            severities(SystemKind::Diem, FaultKind::Byzantine),
            vec![0, 1, 2]
        );
        // Filtering canonicalizes order and drops the rest.
        let systems = canonical(&SystemKind::ALL, &[SystemKind::Quorum, SystemKind::Fabric]);
        let kinds = canonical(&FaultKind::ALL, &[FaultKind::Byzantine, FaultKind::Crash]);
        assert_eq!(systems, [SystemKind::Fabric, SystemKind::Quorum]);
        assert_eq!(kinds, [FaultKind::Crash, FaultKind::Byzantine]);
        // Fabric: crash 0..=2 (no byz axis); Quorum: crash 0..=2 + byz 0..=2.
        assert_eq!(sweep_cells(&systems, &kinds).len(), 3 + 3 + 3);
    }

    #[test]
    fn crash_sweep_degrades_and_recovers() {
        let r = chaos_sweep(&quick(), &[SystemKind::Fabric], &[FaultKind::Crash]);
        assert_eq!(r.curves.len(), 1);
        let curve = r.curve(SystemKind::Fabric, FaultKind::Crash).unwrap();
        let d = fault_domain(SystemKind::Fabric);
        assert_eq!(curve.cells.len(), (d.beyond_f + 1) as usize);
        // Severity 0: a fault-free baseline with full delivery and
        // immediate "recovery".
        let base = &curve.cells[0];
        assert_eq!(base.severity, 0);
        assert!(
            base.run.accounting.delivery_ratio() >= 0.999,
            "{:?}",
            base.run.accounting
        );
        assert_eq!(base.recovery_secs, Some(0.0));
        // Beyond f: the fault window collapses, the heal restores commits.
        let worst = curve.at(d.beyond_f).unwrap();
        assert!(
            worst.fault_mtps < base.fault_mtps * 0.5,
            "beyond-f fault window must collapse: {} vs {}",
            worst.fault_mtps,
            base.fault_mtps
        );
        assert!(worst.post_mtps > 0.0, "commits resume after the heal");
        // Delivery degrades monotonically in this curve's extremes.
        assert!(worst.run.accounting.delivery_ratio() <= base.run.accounting.delivery_ratio());
    }

    #[test]
    fn loss_sweep_keeps_delivery_with_retries() {
        let r = chaos_sweep(&quick(), &[SystemKind::Quorum], &[FaultKind::Loss]);
        let curve = r.curve(SystemKind::Quorum, FaultKind::Loss).unwrap();
        assert_eq!(curve.cells.len(), LOSS_STEPS.len());
        let base = curve.at(0).unwrap();
        assert_eq!(base.run.accounting.retries, 0, "no loss, no retries");
        for cell in &curve.cells[1..] {
            assert!(
                cell.run.accounting.delivery_ratio() >= 0.99,
                "retry client must hold delivery at {}%: {:?}",
                cell.severity,
                cell.run.accounting
            );
        }
        let worst = curve.cells.last().unwrap();
        assert!(worst.run.accounting.retries > 0, "10% loss must retry");
    }

    #[test]
    fn byzantine_sweep_breaks_safety_only_beyond_f() {
        let r = chaos_sweep(&quick(), &[SystemKind::Sawtooth], &[FaultKind::Byzantine]);
        let curve = r.curve(SystemKind::Sawtooth, FaultKind::Byzantine).unwrap();
        let d = byzantine_domain(SystemKind::Sawtooth).unwrap();
        assert_eq!(curve.cells.len(), (d.beyond_f() + 1) as usize);
        for cell in &curve.cells {
            let s = cell.run.safety.expect("BFT systems carry a monitor");
            if cell.severity <= d.f_tolerant {
                assert!(
                    s.violations.is_clean(),
                    "severity {} must hold safety: {:?}",
                    cell.severity,
                    s.violations
                );
            } else {
                assert!(
                    s.violations.total() > 0,
                    "severity {} must lose safety: {s:?}",
                    cell.severity
                );
            }
        }
    }

    #[test]
    fn sweep_heatmap_pins_tolerated_severities() {
        let r = chaos_sweep(&quick(), &[SystemKind::Fabric], &FaultKind::ALL);
        // Crash pins f-tolerant, loss pins the largest swept rate.
        assert_eq!(
            r.heatmap_cell(SystemKind::Fabric, FaultKind::Crash)
                .unwrap()
                .severity,
            fault_domain(SystemKind::Fabric).f_tolerant
        );
        assert_eq!(
            r.heatmap_cell(SystemKind::Fabric, FaultKind::Loss)
                .unwrap()
                .severity,
            *LOSS_STEPS.last().unwrap()
        );
        // No Byzantine axis on a CFT system: the heat map says n/a.
        assert!(r
            .heatmap_cell(SystemKind::Fabric, FaultKind::Byzantine)
            .is_none());
        assert!(r.render_heatmap().contains("n/a"));
        assert!(r.render().contains("Heat map"));
    }

    #[test]
    fn sweep_subset_is_seed_independent() {
        // Filtering the campaign to a subset of systems must not change
        // any remaining cell's numbers: seeds are content-addressed.
        let crash_only =
            |systems: &[SystemKind]| chaos_sweep(&quick(), systems, &[FaultKind::Crash]);
        let both = crash_only(&[SystemKind::Fabric, SystemKind::Quorum]);
        let alone = crash_only(&[SystemKind::Quorum]);
        let from_both = both.curve(SystemKind::Quorum, FaultKind::Crash).unwrap();
        let from_alone = alone.curve(SystemKind::Quorum, FaultKind::Crash).unwrap();
        assert_eq!(from_both.cells.len(), from_alone.cells.len());
        for (a, b) in from_both.cells.iter().zip(&from_alone.cells) {
            assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        }
    }

    #[test]
    fn tolerant_crashes_recover_on_every_system() {
        let r = chaos(&quick());
        assert_eq!(r.tolerant.len(), 7);
        for c in &r.tolerant {
            assert!(c.run.live, "{} must stay live under f crashes", c.system);
            assert!(c.pre_mtps > 0.0, "{} pre-fault throughput", c.system);
            assert!(c.post_mtps > 0.0, "{} post-heal throughput", c.system);
            assert!(
                c.recovery_secs.is_some(),
                "{} must recover in finite virtual time: {:?}",
                c.system,
                c.run.buckets
            );
        }
    }

    #[test]
    fn beyond_f_crashes_halt_commits() {
        let r = chaos(&quick());
        for c in &r.halt {
            // In-flight work (accepted blocks, flows already past the
            // crashed stage) may still land for a few seconds; after that
            // drain grace the system must be dead quiet.
            let after = SimTime::from_secs(5 + quick_crash_secs());
            let tail = c.run.window_mtps(after, SimTime::from_secs(10_000));
            assert_eq!(
                tail, 0.0,
                "{} must halt beyond f: {:?}",
                c.system, c.run.buckets
            );
            assert!(
                c.run.accounting.confirmed < c.run.accounting.scheduled,
                "{} cannot confirm everything while halted",
                c.system
            );
        }
    }

    fn quick_crash_secs() -> u64 {
        Span::fault(&quick()).q1().as_secs_f64() as u64
    }

    #[test]
    fn loss_burst_delivery_stays_high_with_retries() {
        let r = chaos(&quick());
        assert_eq!(r.bursts.len(), 2);
        for c in &r.bursts {
            assert!(c.run.accounting.retries > 0, "{} retried", c.system);
            assert!(
                c.run.accounting.delivery_ratio() >= 0.99,
                "{} delivery under 5% burst: {:?}",
                c.system,
                c.run.accounting
            );
        }
    }

    #[test]
    fn byzantine_arms_hold_safety_at_f_and_lose_it_beyond() {
        let r = chaos(&quick());
        assert_eq!(r.byzantine.len(), 6, "two arms per BFT system");
        for c in &r.byzantine {
            let s = c.run.safety.expect("BFT systems carry a safety monitor");
            assert!(
                s.observed.byzantine_nodes > 0,
                "{} {}: the attack must actually run",
                c.system,
                c.arm
            );
            match c.arm {
                "byz-f" => assert!(
                    s.violations.is_clean(),
                    "{} must hold safety at ≤ f: {:?}",
                    c.system,
                    s.violations
                ),
                "byz-beyond-f" => assert!(
                    s.violations.total() > 0,
                    "{} must lose safety at f + 1: {s:?}",
                    c.system
                ),
                other => panic!("unexpected arm {other}"),
            }
        }
        // CFT systems have no Byzantine quorum: safety is not applicable.
        for c in r.tolerant.iter().filter(|c| {
            matches!(
                c.system,
                SystemKind::Fabric
                    | SystemKind::Bitshares
                    | SystemKind::CordaOs
                    | SystemKind::CordaEnterprise
            )
        }) {
            assert!(c.run.safety.is_none(), "{} is CFT", c.system);
        }
    }

    #[test]
    fn classic_subset_cells_match_the_full_campaign() {
        // The classic arms are seeded by (arm, system): a subset of
        // systems reproduces exactly those systems' cells of the full run,
        // in the same order.
        let picked = [SystemKind::Quorum, SystemKind::CordaOs];
        let full = chaos(&quick());
        let subset = chaos_for(&quick(), &picked);
        let json = |c: &ChaosCell| c.to_json().to_pretty();
        let expected: Vec<String> = full
            .cells()
            .filter(|c| picked.contains(&c.system))
            .map(json)
            .collect();
        let got: Vec<String> = subset.cells().map(json).collect();
        // Two crash arms each, Quorum's loss burst and its two Byzantine arms.
        assert_eq!(got.len(), 2 + 2 + 1 + 2);
        assert_eq!(got, expected);
    }

    #[test]
    fn chaos_report_is_deterministic() {
        let a = chaos(&quick());
        let b = chaos(&quick());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
    }
}
