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
//! * **The fault sweep** ([`chaos_sweep`]): a [`FaultCampaign`] — system ×
//!   [`FaultKind`] × severity step — expanded into independent cells on the
//!   grid executor, producing per-system **degradation curves** (MTPS
//!   before/during/after, delivery ratio, and recovery time as functions
//!   of crashed-node count f = 0..=beyond-f, loss rate, or flagged-
//!   validator count) and a Figure-3-style **heat map** of recovery time
//!   and delivery ratio per system × fault kind.
//!
//! Every cell's seed is content-addressed — classic arms by
//! `(arm, system)`, sweep cells by `["chaos-sweep", kind, system,
//! severity]` (see [`crate::exec`]) — never by grid position, so filtering a campaign to
//! a subset of systems or kinds cannot change any remaining cell's
//! numbers. Every number is a pure function of the root seed: the same
//! [`ExperimentConfig`] renders byte-identical reports.

use super::ExperimentConfig;
use crate::chaos::{ChaosRun, RetryPolicy};
use crate::client::Windows;
use crate::json::Json;
use crate::params::SystemKind;
use crate::report::{self, Report};
use crate::scenario::ScenarioBuilder;
use coconut_types::{NodeId, PayloadKind, SeedDeriver, SimDuration, SimTime};

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

/// A parameterized fault-sweep campaign: which systems × fault kinds to
/// walk. [`FaultCampaign::full`] covers all seven systems and all three
/// kinds; the builder methods filter. Each (system, kind) pair expands
/// into one cell per severity step the protocol admits
/// ([`FaultCampaign::severities`]); filtering never changes a remaining
/// cell's numbers because each cell's seed is content-addressed by
/// `(kind, system, severity)`.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    systems: Vec<SystemKind>,
    kinds: Vec<FaultKind>,
}

impl FaultCampaign {
    /// All seven systems × all three fault kinds.
    pub fn full() -> Self {
        FaultCampaign {
            systems: SystemKind::ALL.to_vec(),
            kinds: FaultKind::ALL.to_vec(),
        }
    }

    /// Restricts the campaign to `systems`. The report always walks
    /// systems in [`SystemKind::ALL`] order, whatever order the filter
    /// lists them in, so output stays canonical.
    pub fn with_systems(mut self, systems: &[SystemKind]) -> Self {
        self.systems = SystemKind::ALL
            .into_iter()
            .filter(|s| systems.contains(s))
            .collect();
        self
    }

    /// Restricts the campaign to `kinds` (canonicalized to
    /// [`FaultKind::ALL`] order, like [`FaultCampaign::with_systems`]).
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = FaultKind::ALL
            .into_iter()
            .filter(|k| kinds.contains(k))
            .collect();
        self
    }

    /// The systems this campaign sweeps, in canonical order.
    pub fn systems(&self) -> &[SystemKind] {
        &self.systems
    }

    /// The fault kinds this campaign sweeps, in canonical order.
    pub fn kinds(&self) -> &[FaultKind] {
        &self.kinds
    }

    /// The severity steps `system` admits for `kind` — the degradation
    /// curve's x-axis. Empty when the axis does not apply (Byzantine
    /// counts on a CFT system). Crash walks f = 0..=beyond-f; loss walks
    /// `LOSS_STEPS` percent; Byzantine walks 0..=f+1 flagged validators.
    pub fn severities(system: SystemKind, kind: FaultKind) -> Vec<u32> {
        match kind {
            FaultKind::Crash => (0..=fault_domain(system).beyond_f).collect(),
            FaultKind::Loss => LOSS_STEPS.to_vec(),
            FaultKind::Byzantine => {
                byzantine_domain(system).map_or_else(Vec::new, |d| (0..=d.beyond_f()).collect())
            }
        }
    }

    /// Expands the campaign into `(system, kind, severity)` cell
    /// coordinates, in canonical report order.
    pub fn cells(&self) -> Vec<(SystemKind, FaultKind, u32)> {
        let mut out = Vec::new();
        for &system in &self.systems {
            for &kind in &self.kinds {
                for severity in FaultCampaign::severities(system, kind) {
                    out.push((system, kind, severity));
                }
            }
        }
        out
    }
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

/// Virtual-time anchors of the campaign, derived from the config's scale.
#[derive(Debug, Clone, Copy)]
struct Anchors {
    windows: Windows,
    crash_at: SimTime,
    heal_at: SimTime,
}

fn anchors(cfg: &ExperimentConfig) -> Anchors {
    // At least 20 virtual seconds of sending so every phase (pre / fault /
    // post) spans several 1 s buckets, plus a 10 s listen margin so the
    // send-window tail and time-outed retries can still confirm.
    let send_secs = ((300.0 * cfg.scale).round() as u64).max(20);
    let windows = Windows {
        send: SimDuration::from_secs(send_secs),
        listen: SimDuration::from_secs(send_secs + 10),
    };
    Anchors {
        windows,
        crash_at: SimTime::from_secs(send_secs / 4),
        heal_at: SimTime::from_secs(send_secs / 2),
    }
}

/// The campaign's base scenario for one system: workload, rate, and
/// windows, before any fault timeline is attached.
fn scenario(kind: SystemKind, anchors: Anchors) -> ScenarioBuilder {
    // A write workload for Corda (DoNothing has no states and is answered
    // locally, so it would bypass the notary under test); DoNothing for
    // the block-based systems.
    let payload = match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => PayloadKind::KeyValueSet,
        _ => PayloadKind::DoNothing,
    };
    // Well below saturation, so throughput changes are attributable to the
    // fault — below Corda OS's ~5 tx/s KeyValue-Set ceiling (Table 7; the
    // flow pipeline resolves at submit time, so a saturated backlog would
    // smear commits far past a crash), and below the rate where a 4 s IBFT
    // round change would push Quorum's pending pool over its §5.5 stall
    // threshold, which would conflate the modelled liveness anomaly with
    // crash tolerance.
    let rate = match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => 4.0,
        _ => 50.0,
    };
    ScenarioBuilder::new(payload, rate, anchors.windows)
}

/// The measured metrics of one cell, classic or sweep.
struct Measured {
    rate: f64,
    pre_mtps: f64,
    fault_mtps: f64,
    post_mtps: f64,
    recovery_secs: Option<f64>,
    run: ChaosRun,
}

/// Runs one cell's compiled scenario timeline against a fresh deployment
/// of `kind` and windows the run into pre/fault/post MTPS plus the
/// recovery time (computed only for `healed` cells — halt arms are not
/// heal-and-recover experiments).
fn measure(
    kind: SystemKind,
    tl: Anchors,
    timeline: &crate::scenario::Timeline,
    healed: bool,
    seed: u64,
) -> Measured {
    let run = timeline.run(kind, seed).run;
    let listen_end = SimTime::ZERO + tl.windows.listen;
    let pre_mtps = run.window_mtps(SimTime::ZERO, tl.crash_at);
    let fault_mtps = run.window_mtps(tl.crash_at, tl.heal_at);
    let post_mtps = run.window_mtps(tl.heal_at, listen_end);
    let recovery_secs = if healed {
        run.recovery_secs(tl.crash_at, tl.heal_at, 0.7)
    } else {
        None
    };
    Measured {
        rate: timeline.rate(),
        pre_mtps,
        fault_mtps,
        post_mtps,
        recovery_secs,
        run,
    }
}

/// The fault description and scenario of one sweep cell. All kinds share
/// the `[crash_at, heal_at)` fault window so the during-fault measurement
/// window lines up across axes; severity 0 always maps to an event-free
/// timeline (the curve's fault-free baseline).
fn sweep_scenario(
    system: SystemKind,
    kind: FaultKind,
    severity: u32,
    tl: Anchors,
) -> (String, crate::scenario::Timeline) {
    let base = scenario(system, tl);
    match kind {
        FaultKind::Crash => {
            let d = fault_domain(system);
            let nodes: Vec<NodeId> = (0..severity).map(NodeId).collect();
            (
                d.describe(severity),
                base.at(tl.crash_at).crash_until(&nodes, tl.heal_at).build(),
            )
        }
        FaultKind::Loss => {
            let timeline = if severity == 0 {
                base.build()
            } else {
                base.at(tl.crash_at)
                    .loss(f64::from(severity) / 100.0, tl.heal_at)
                    .build()
            };
            (format!("{severity}% loss"), timeline)
        }
        FaultKind::Byzantine => {
            let d = byzantine_domain(system).expect("severities() admits Byzantine only for BFT");
            let nodes: Vec<NodeId> = (0..severity).map(NodeId).collect();
            let timeline = if severity == 0 {
                base.build()
            } else {
                base.at(tl.crash_at).byzantine(&nodes, tl.heal_at).build()
            };
            (d.describe(severity), timeline)
        }
    }
}

/// Runs a fault-sweep campaign: every (system, kind, severity) cell of
/// `campaign` on the grid executor (`cfg.jobs` workers), grouped into
/// per-system [`DegradationCurve`]s. All cells use the retry/backoff
/// client and the shared fault window, so curves are comparable across
/// axes; each cell's seed is content-addressed by `(kind, system,
/// severity)`, so any filtering or worker count reproduces the same cell bytes.
pub fn chaos_sweep(cfg: &ExperimentConfig, campaign: &FaultCampaign) -> SweepResult {
    let tl = anchors(cfg);

    struct SpecCell {
        system: SystemKind,
        kind: FaultKind,
        severity: u32,
        faults: String,
        timeline: crate::scenario::Timeline,
        seed: u64,
    }
    let specs: Vec<SpecCell> = campaign
        .cells()
        .into_iter()
        .map(|(system, kind, severity)| {
            let (faults, timeline) = sweep_scenario(system, kind, severity, tl);
            SpecCell {
                system,
                kind,
                severity,
                faults,
                timeline,
                seed: SeedDeriver::new(cfg.seed).seed_parts(&[
                    "chaos-sweep",
                    kind.label(),
                    system.label(),
                    severity.to_string().as_str(),
                ]),
            }
        })
        .collect();

    let cells = crate::exec::run_grid(&specs, cfg.jobs, |_, s| {
        let m = measure(s.system, tl, &s.timeline, true, s.seed);
        SweepCell {
            system: s.system,
            kind: s.kind,
            severity: s.severity,
            faults: s.faults.clone(),
            rate: m.rate,
            pre_mtps: m.pre_mtps,
            fault_mtps: m.fault_mtps,
            post_mtps: m.post_mtps,
            recovery_secs: m.recovery_secs,
            run: m.run,
        }
    });

    // Group the flat cell list back into (system, kind) curves; run_grid
    // returns results in input order, which is exactly the nested
    // campaign.cells() order.
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
        systems: campaign.systems.clone(),
        kinds: campaign.kinds.clone(),
        curves,
    }
}

/// Runs the full classic campaign: the f-tolerant crash/heal arm and the
/// beyond-f halt arm for all seven systems, the loss-burst arm for Fabric
/// and Quorum, and the Byzantine-window arm (≤ f and f + 1 flagged
/// validators) for the BFT systems. All cells are independent and run on
/// the grid executor (`cfg.jobs` workers); each cell's seed is derived
/// from its arm and system — never from loop order — so any worker count
/// produces byte-identical reports.
pub fn chaos(cfg: &ExperimentConfig) -> ChaosResult {
    let tl = anchors(cfg);
    let seeds = SeedDeriver::new(cfg.seed);

    struct Arm {
        kind: SystemKind,
        arm: &'static str,
        faults: String,
        timeline: crate::scenario::Timeline,
        healed: bool,
        seed: u64,
    }
    let mut arms: Vec<Arm> = Vec::new();
    for kind in SystemKind::ALL {
        let d = fault_domain(kind);
        let nodes: Vec<NodeId> = (0..d.f_tolerant).map(NodeId).collect();
        arms.push(Arm {
            kind,
            arm: "crash-f",
            faults: d.describe(d.f_tolerant),
            timeline: scenario(kind, tl)
                .at(tl.crash_at)
                .crash_until(&nodes, tl.heal_at)
                .build(),
            healed: true,
            seed: seeds.seed_parts(&["chaos-tolerant", kind.label()]),
        });
    }
    for kind in SystemKind::ALL {
        let d = fault_domain(kind);
        let nodes: Vec<NodeId> = (0..d.beyond_f).map(NodeId).collect();
        arms.push(Arm {
            kind,
            arm: "crash-beyond-f",
            faults: d.describe(d.beyond_f),
            // No retries: a retry storm against a halted system only
            // reclassifies losses; the halt must show in raw commits.
            timeline: scenario(kind, tl)
                .policy(RetryPolicy::disabled())
                .at(tl.crash_at)
                .crash(&nodes)
                .build(),
            healed: false,
            seed: seeds.seed_parts(&["chaos-halt", kind.label()]),
        });
    }
    for kind in [SystemKind::Fabric, SystemKind::Quorum] {
        let window = SimDuration::from_secs_f64(tl.windows.send.as_secs_f64() / 5.0);
        arms.push(Arm {
            kind,
            arm: "loss-burst",
            faults: "5% loss".to_string(),
            timeline: scenario(kind, tl)
                .at(tl.crash_at)
                .loss_burst(0.05, window)
                .build(),
            healed: true,
            seed: seeds.seed_parts(&["chaos-burst", kind.label()]),
        });
    }
    for kind in SystemKind::ALL {
        let Some(d) = byzantine_domain(kind) else {
            continue;
        };
        for (arm, count) in [("byz-f", d.f_tolerant), ("byz-beyond-f", d.beyond_f())] {
            let nodes: Vec<NodeId> = (0..count).map(NodeId).collect();
            arms.push(Arm {
                kind,
                arm,
                faults: d.describe(count),
                timeline: scenario(kind, tl)
                    .at(tl.crash_at)
                    .byzantine(&nodes, tl.heal_at)
                    .build(),
                healed: false,
                seed: seeds.seed_parts(&["chaos-byz", arm, kind.label()]),
            });
        }
    }

    let mut cells = crate::exec::run_grid(&arms, cfg.jobs, |_, a| {
        let m = measure(a.kind, tl, &a.timeline, a.healed, a.seed);
        ChaosCell {
            system: a.kind,
            arm: a.arm,
            faults: a.faults.clone(),
            rate: m.rate,
            pre_mtps: m.pre_mtps,
            fault_mtps: m.fault_mtps,
            post_mtps: m.post_mtps,
            recovery_secs: m.recovery_secs,
            run: m.run,
        }
    });
    let mut bursts = cells.split_off(2 * SystemKind::ALL.len());
    let byzantine = bursts.split_off(2);
    let halt = cells.split_off(SystemKind::ALL.len());
    ChaosResult {
        tolerant: cells,
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
        let full = FaultCampaign::full();
        assert_eq!(full.systems().len(), 7);
        assert_eq!(full.kinds().len(), 3);
        // Crash curves span 0..=beyond-f for every system.
        for kind in SystemKind::ALL {
            let sev = FaultCampaign::severities(kind, FaultKind::Crash);
            assert_eq!(sev.first(), Some(&0), "{kind} starts fault-free");
            assert_eq!(sev.last(), Some(&fault_domain(kind).beyond_f));
        }
        // Byzantine axes exist only where a vote quorum exists.
        assert!(FaultCampaign::severities(SystemKind::Fabric, FaultKind::Byzantine).is_empty());
        assert_eq!(
            FaultCampaign::severities(SystemKind::Diem, FaultKind::Byzantine),
            vec![0, 1, 2]
        );
        // Filtering canonicalizes order and drops the rest.
        let f = FaultCampaign::full()
            .with_systems(&[SystemKind::Quorum, SystemKind::Fabric])
            .with_kinds(&[FaultKind::Byzantine, FaultKind::Crash]);
        assert_eq!(f.systems(), &[SystemKind::Fabric, SystemKind::Quorum]);
        assert_eq!(f.kinds(), &[FaultKind::Crash, FaultKind::Byzantine]);
        // Fabric: crash 0..=2 (no byz axis); Quorum: crash 0..=2 + byz 0..=2.
        assert_eq!(f.cells().len(), 3 + 3 + 3);
    }

    #[test]
    fn crash_sweep_degrades_and_recovers() {
        let campaign = FaultCampaign::full()
            .with_systems(&[SystemKind::Fabric])
            .with_kinds(&[FaultKind::Crash]);
        let r = chaos_sweep(&quick(), &campaign);
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
        let campaign = FaultCampaign::full()
            .with_systems(&[SystemKind::Quorum])
            .with_kinds(&[FaultKind::Loss]);
        let r = chaos_sweep(&quick(), &campaign);
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
        let campaign = FaultCampaign::full()
            .with_systems(&[SystemKind::Sawtooth])
            .with_kinds(&[FaultKind::Byzantine]);
        let r = chaos_sweep(&quick(), &campaign);
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
        let campaign = FaultCampaign::full().with_systems(&[SystemKind::Fabric]);
        let r = chaos_sweep(&quick(), &campaign);
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
        let crash_only = |systems: &[SystemKind]| {
            FaultCampaign::full()
                .with_systems(systems)
                .with_kinds(&[FaultKind::Crash])
        };
        let both = chaos_sweep(
            &quick(),
            &crash_only(&[SystemKind::Fabric, SystemKind::Quorum]),
        );
        let alone = chaos_sweep(&quick(), &crash_only(&[SystemKind::Quorum]));
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
        let tl = anchors(&quick());
        tl.crash_at.as_secs_f64() as u64
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
    fn chaos_report_is_deterministic() {
        let a = chaos(&quick());
        let b = chaos(&quick());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
    }
}
