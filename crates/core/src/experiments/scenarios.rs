//! The named scenario library: reusable timelines behind
//! `repro scenario --name <n>`.
//!
//! Each [`NamedScenario`] is a ~10-line timeline built on
//! [`crate::scenario::ScenarioBuilder`]: the four classic campaign shapes
//! (crash/heal, beyond-f halt, loss burst, Byzantine window) plus
//! composites no bespoke campaign ever covered — churn under 8× overload,
//! a partition during a flash crowd, rolling restarts under a diurnal
//! load cycle, a ramp to saturation. Every cell's seed is
//! content-addressed by `["scenario", name, system]` (see
//! [`super::harness`]), so running one scenario or one system reproduces
//! exactly the bytes of the full library run, at any worker count.
//!
//! Checkpointed assertions ride on each timeline; their verdicts are part
//! of the report (and the golden pin), so an expectation that stops
//! holding shows up as a one-line diff, not a crashed run.

use super::chaos::{byzantine_domain, fault_domain};
use super::harness::{
    canonical, run_cells, steady_payload, steady_rate, Cell, Span, RECOVERY_THRESHOLD,
};
use super::overload::tight_limits;
use super::ExperimentConfig;
use crate::chaos::{ClientProtection, RetryPolicy};
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::Report;
use crate::scenario::{Check, CheckOutcome, ScenarioBuilder, Timeline};
use coconut_chains::Stage;
use coconut_types::{NodeId, SimDuration, SimTime};

/// The library's base scenario: the steady load over the fault
/// campaigns' [`Span`]; events land on its quarter points.
fn base(kind: SystemKind, a: Span) -> ScenarioBuilder {
    ScenarioBuilder::new(steady_payload(kind), steady_rate(kind), a.windows)
}

fn f_nodes(kind: SystemKind) -> Vec<NodeId> {
    (0..fault_domain(kind).f_tolerant).map(NodeId).collect()
}

fn all_systems() -> Vec<SystemKind> {
    SystemKind::ALL.to_vec()
}

fn bft_systems() -> Vec<SystemKind> {
    SystemKind::ALL
        .into_iter()
        .filter(|&k| byzantine_domain(k).is_some())
        .collect()
}

fn lossy_systems() -> Vec<SystemKind> {
    vec![SystemKind::Fabric, SystemKind::Quorum]
}

/// One entry of the scenario library.
#[derive(Clone)]
pub struct NamedScenario {
    /// Stable name (the `--name` key and the seed scope).
    pub name: &'static str,
    /// What the scenario probes, one line.
    pub about: &'static str,
    /// The timeline, summarized for `--list` and the docs table.
    pub timeline: &'static str,
    /// The systems the scenario applies to.
    pub systems: fn() -> Vec<SystemKind>,
    /// Compiles the timeline for one system at one scale.
    build: fn(SystemKind, Span) -> Timeline,
}

impl std::fmt::Debug for NamedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedScenario")
            .field("name", &self.name)
            .finish()
    }
}

fn crash_heal(k: SystemKind, a: Span) -> Timeline {
    base(k, a)
        .at(a.q1())
        .crash_until(&f_nodes(k), a.mid())
        .at(a.listen_end())
        .assert(Check::RestabilizesBy {
            fault_from: a.q1(),
            fault_until: a.mid(),
            threshold: RECOVERY_THRESHOLD,
        })
        .assert(Check::DeliveryFloor { min_ratio: 0.95 })
        .assert(Check::SafetyClean)
        .build()
}

fn beyond_f_halt(k: SystemKind, a: Span) -> Timeline {
    let nodes: Vec<NodeId> = (0..fault_domain(k).beyond_f).map(NodeId).collect();
    base(k, a)
        // No retries: the halt must show in raw commits.
        .policy(RetryPolicy::disabled())
        .at(a.q1())
        .crash(&nodes)
        .at(a.listen_end())
        // 5 s drain grace: in-flight blocks may still land after the crash.
        .assert(Check::Halted {
            since: a.q1() + SimDuration::from_secs(5),
        })
        .build()
}

fn loss_burst(k: SystemKind, a: Span) -> Timeline {
    let window = SimDuration::from_secs_f64(a.windows.send.as_secs_f64() / 5.0);
    base(k, a)
        .at(a.q1())
        .loss_burst(0.05, window)
        .at(a.listen_end())
        .assert(Check::DeliveryFloor { min_ratio: 0.99 })
        .build()
}

fn byzantine_quorum_holds(k: SystemKind, a: Span) -> Timeline {
    let d = byzantine_domain(k).expect("library restricts this scenario to BFT systems");
    let nodes: Vec<NodeId> = (0..d.f_tolerant).map(NodeId).collect();
    base(k, a)
        .at(a.q1())
        .byzantine(&nodes, a.mid())
        .at(a.listen_end())
        .assert(Check::SafetyClean)
        .assert(Check::DeliveryFloor { min_ratio: 0.9 })
        .build()
}

fn byzantine_overrun(k: SystemKind, a: Span) -> Timeline {
    let d = byzantine_domain(k).expect("library restricts this scenario to BFT systems");
    let nodes: Vec<NodeId> = (0..d.beyond_f()).map(NodeId).collect();
    base(k, a)
        .at(a.q1())
        .byzantine(&nodes, a.mid())
        .at(a.listen_end())
        .assert(Check::SafetyViolationsAtLeast { count: 1 })
        .build()
}

fn overload_pulse(k: SystemKind, a: Span) -> Timeline {
    base(k, a)
        .setup(SystemSetup::default().with_admission(tight_limits(k)))
        .protection(ClientProtection::overload_default())
        .at(a.q1())
        .flash_crowd(8.0, a.mid())
        .at(a.listen_end())
        .assert(Check::RestabilizesBy {
            fault_from: a.q1(),
            fault_until: a.mid(),
            threshold: RECOVERY_THRESHOLD,
        })
        .build()
}

fn single_join(k: SystemKind, a: Span) -> Timeline {
    let joiner = NodeId(fault_domain(k).total);
    base(k, a)
        .setup(SystemSetup::default().with_standby(1))
        .at(a.q1())
        .join(joiner)
        .at(a.listen_end())
        .assert(Check::EpochsAtLeast { count: 1 })
        .assert(Check::SafetyClean)
        .build()
}

fn rolling_replace(k: SystemKind, a: Span) -> Timeline {
    let d = fault_domain(k);
    base(k, a)
        .setup(SystemSetup::default().with_standby(1))
        .at(a.q1())
        .join(NodeId(d.total))
        .at(a.mid())
        .leave(NodeId(d.total - 1))
        .at(a.listen_end())
        .assert(Check::EpochsAtLeast { count: 2 })
        .assert(Check::SafetyClean)
        .build()
}

fn churn_under_overload(k: SystemKind, a: Span) -> Timeline {
    let joiner = NodeId(fault_domain(k).total);
    base(k, a)
        .setup(
            SystemSetup::default()
                .with_standby(1)
                .with_admission(tight_limits(k)),
        )
        .at(a.q1())
        .flash_crowd(8.0, a.q3())
        .at(a.mid())
        .join(joiner)
        .at(a.listen_end())
        .assert(Check::EpochsAtLeast { count: 1 })
        .assert(Check::SafetyClean)
        .build()
}

fn partition_flash_crowd(k: SystemKind, a: Span) -> Timeline {
    base(k, a)
        .at(a.q1())
        .partition(&f_nodes(k), a.mid())
        .at(a.q1())
        .flash_crowd(4.0, a.mid())
        .at(a.listen_end())
        .assert(Check::RestabilizesBy {
            fault_from: a.q1(),
            fault_until: a.mid(),
            threshold: RECOVERY_THRESHOLD,
        })
        .assert(Check::SafetyClean)
        .build()
}

fn rolling_restart_diurnal(k: SystemKind, a: Span) -> Timeline {
    let period = SimDuration::from_secs((a.windows.send.as_secs_f64() / 4.0).max(4.0) as u64);
    base(k, a)
        .at(SimTime::from_secs(2))
        .diurnal(1.0, period, a.send_end())
        .at(a.q1())
        .crash_until(&[NodeId(0)], a.mid())
        .at(a.mid())
        .crash_until(&[NodeId(1)], a.q3())
        .at(a.listen_end())
        .assert(Check::RestabilizesBy {
            fault_from: a.q1(),
            fault_until: a.q3(),
            threshold: RECOVERY_THRESHOLD,
        })
        .assert(Check::SafetyClean)
        .build()
}

fn ramp_to_saturation(k: SystemKind, a: Span) -> Timeline {
    base(k, a)
        .setup(SystemSetup::default().with_admission(tight_limits(k)))
        .at(SimTime::from_secs(2))
        .ramp_load(6.0, a.send_end())
        .at(a.q1())
        .assert(Check::GoodputFloor {
            since: SimTime::ZERO,
            min_mtps: steady_rate(k) * 0.5,
        })
        .at(a.listen_end())
        .assert(Check::DeliveryFloor { min_ratio: 0.2 })
        .build()
}

fn slow_leader_flash_crowd(k: SystemKind, a: Span) -> Timeline {
    base(k, a)
        .probes(true)
        .at(a.q1())
        .slow_node(NodeId(0), 32.0, a.mid())
        .at(a.q1())
        .flash_crowd(2.0, a.mid())
        .at(a.listen_end())
        .assert(Check::RestabilizesBy {
            fault_from: a.q1(),
            fault_until: a.mid(),
            threshold: RECOVERY_THRESHOLD,
        })
        .assert(Check::SafetyClean)
        // The probe-backed check: even with the leader limping under a 2x
        // crowd, ingress must not hold the majority of residence time.
        .assert(Check::StageResidenceBelow {
            stage: Stage::Ingress,
            max_share: 0.5,
        })
        .build()
}

/// The library, in report order. Names are stable — they are seed scopes
/// and golden keys; add new scenarios at the end, never rename.
pub fn scenario_library() -> Vec<NamedScenario> {
    vec![
        NamedScenario {
            name: "crash-heal",
            about: "f-tolerant crash window: the classic chaos arm",
            timeline: "crash f nodes @q1, heal @mid; assert restabilize+delivery+safety",
            systems: all_systems,
            build: crash_heal,
        },
        NamedScenario {
            name: "beyond-f-halt",
            about: "crash beyond f with no retries: commits must stop",
            timeline: "crash beyond-f nodes @q1, no heal; assert halted after 5 s drain",
            systems: all_systems,
            build: beyond_f_halt,
        },
        NamedScenario {
            name: "loss-burst",
            about: "5% ingress/consensus loss vs the retry client",
            timeline: "loss burst @q1 for send/5; assert delivery ≥ 0.99",
            systems: lossy_systems,
            build: loss_burst,
        },
        NamedScenario {
            name: "byzantine-quorum-holds",
            about: "f equivocating validators: safety must hold",
            timeline: "byzantine f @[q1,mid); assert safety clean + delivery ≥ 0.9",
            systems: bft_systems,
            build: byzantine_quorum_holds,
        },
        NamedScenario {
            name: "byzantine-overrun",
            about: "f+1 equivocating validators: safety must break, visibly",
            timeline: "byzantine f+1 @[q1,mid); assert ≥ 1 counted violation",
            systems: bft_systems,
            build: byzantine_overrun,
        },
        NamedScenario {
            name: "overload-pulse",
            about: "8x flash crowd against the protected client",
            timeline: "flash 8x @[q1,mid), tight pools, budget+breaker; assert restabilize",
            systems: all_systems,
            build: overload_pulse,
        },
        NamedScenario {
            name: "single-join",
            about: "one standby joins mid-run: epoch-based reconfiguration",
            timeline: "join standby @q1; assert ≥ 1 epoch + safety clean",
            systems: all_systems,
            build: single_join,
        },
        NamedScenario {
            name: "rolling-replace",
            about: "join a standby, retire a member: two epoch changes",
            timeline: "join @q1, leave @mid; assert ≥ 2 epochs + safety clean",
            systems: all_systems,
            build: rolling_replace,
        },
        NamedScenario {
            name: "churn-under-overload",
            about: "a join lands inside an 8x flash crowd (composite)",
            timeline: "flash 8x @[q1,q3), join @mid, tight pools; assert epoch + safety",
            systems: all_systems,
            build: churn_under_overload,
        },
        NamedScenario {
            name: "partition-flash-crowd",
            about: "minority partition during a 4x flash crowd (composite)",
            timeline: "partition f nodes + flash 4x @[q1,mid); assert restabilize + safety",
            systems: all_systems,
            build: partition_flash_crowd,
        },
        NamedScenario {
            name: "rolling-restart-diurnal",
            about: "one-at-a-time restarts under a diurnal load cycle (composite)",
            timeline: "diurnal 1x amp, crash n0 @[q1,mid) then n1 @[mid,q3); assert restabilize",
            systems: all_systems,
            build: rolling_restart_diurnal,
        },
        NamedScenario {
            name: "ramp-to-saturation",
            about: "linear ramp to 6x through the admission pools (composite)",
            timeline: "ramp to 6x over [2 s, send), tight pools; assert early goodput + delivery",
            systems: all_systems,
            build: ramp_to_saturation,
        },
        NamedScenario {
            name: "slow-leader-flash-crowd",
            about: "a limping leader under a 2x flash crowd (gray composite)",
            timeline: "slow n0 x32 + flash 2x @[q1,mid), probes; assert restabilize + safety + ingress share",
            systems: all_systems,
            build: slow_leader_flash_crowd,
        },
    ]
}

/// The library's scenario names, in report order.
pub fn scenario_names() -> Vec<&'static str> {
    scenario_library().iter().map(|s| s.name).collect()
}

/// The `(scenario, system)` cells of `names` × `systems` (both in
/// canonical order) in report order: each scenario on the systems it
/// applies to.
fn scenario_cells(names: &[&str], systems: &[SystemKind]) -> Vec<(NamedScenario, SystemKind)> {
    let mut out = Vec::new();
    for s in scenario_library() {
        if !names.contains(&s.name) {
            continue;
        }
        for k in (s.systems)() {
            if systems.contains(&k) {
                out.push((s.clone(), k));
            }
        }
    }
    out
}

/// One scenario × system cell of the library run.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// The scenario's name.
    pub scenario: &'static str,
    /// System under test.
    pub system: SystemKind,
    /// Base offered load (tx/s).
    pub rate: f64,
    /// Mean throughput over the active span (ops/s).
    pub mtps: f64,
    /// Mean finalization latency (s).
    pub mfls: f64,
    /// 95th-percentile finalization latency (s).
    pub p95: f64,
    /// Confirmed / scheduled.
    pub delivery_ratio: f64,
    /// Transactions scheduled.
    pub scheduled: u64,
    /// Transactions confirmed.
    pub confirmed: u64,
    /// Re-sends performed.
    pub retries: u64,
    /// System-side `Busy` answers.
    pub busy: u64,
    /// TTL-evicted transactions.
    pub evicted: u64,
    /// Configuration epochs at the end of the run.
    pub epochs: u64,
    /// Whether the system still served confirmations at the end.
    pub live: bool,
    /// Safety verdict (vacuously `true` for CFT systems).
    pub safety_ok: bool,
    /// The checkpointed assertions' verdicts, in declaration order.
    pub checks: Vec<CheckOutcome>,
}

impl ScenarioCell {
    /// `true` when every checkpointed assertion held.
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    fn render_row(&self) -> String {
        let checks = format!(
            "{}/{}",
            self.checks.iter().filter(|c| c.pass).count(),
            self.checks.len()
        );
        format!(
            "{:<18} {:>6.0} {:>8.1} {:>7.3} {:>6.3} {:>6} {:>6} {:>6} {:>6} {:>4} {:>6} {:>6}",
            self.system.label(),
            self.rate,
            self.mtps,
            self.mfls,
            self.delivery_ratio,
            self.retries,
            self.busy,
            self.evicted,
            self.epochs,
            if self.live { "yes" } else { "no" },
            if self.safety_ok { "ok" } else { "VIOL" },
            checks,
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.into())),
            ("system".into(), Json::Str(self.system.label().into())),
            ("rate".into(), Json::Num(self.rate)),
            ("mtps".into(), Json::Num(self.mtps)),
            ("mfls".into(), Json::Num(self.mfls)),
            ("p95".into(), Json::Num(self.p95)),
            ("delivery_ratio".into(), Json::Num(self.delivery_ratio)),
            ("scheduled".into(), Json::Num(self.scheduled as f64)),
            ("confirmed".into(), Json::Num(self.confirmed as f64)),
            ("retries".into(), Json::Num(self.retries as f64)),
            ("busy".into(), Json::Num(self.busy as f64)),
            ("evicted".into(), Json::Num(self.evicted as f64)),
            ("epochs".into(), Json::Num(self.epochs as f64)),
            ("live".into(), Json::Bool(self.live)),
            ("safety_ok".into(), Json::Bool(self.safety_ok)),
            (
                "checks".into(),
                Json::Arr(self.checks.iter().map(CheckOutcome::to_json).collect()),
            ),
        ])
    }
}

/// The outcome of a library run: cells in canonical (scenario, system)
/// order.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario names the run covered, library order.
    pub names: Vec<&'static str>,
    /// The cells.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioResult {
    /// The cell of `scenario` × `system`, if it ran.
    pub fn cell(&self, scenario: &str, system: SystemKind) -> Option<&ScenarioCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.system == system)
    }
}

/// Runs the `names` × `systems` cells (canonicalized to library ×
/// [`SystemKind::ALL`] order) on the grid executor (`cfg.jobs` workers).
/// Each cell compiles its named timeline at the config's scale and runs
/// it with the content-addressed seed `("scenario", name, system)` — any
/// worker count or subset reproduces the same cell bytes.
///
/// # Panics
///
/// Panics on a name outside the library.
pub fn scenarios_for(
    cfg: &ExperimentConfig,
    systems: &[SystemKind],
    names: &[&str],
) -> ScenarioResult {
    let span = Span::fault(cfg);
    let names = canonical(&scenario_names(), names);
    let systems = canonical(&SystemKind::ALL, systems);
    let cells: Vec<Cell<&'static str>> = scenario_cells(&names, &systems)
        .into_iter()
        .map(|(s, k)| {
            Cell::new(
                &["scenario", s.name, k.label()],
                k,
                (s.build)(k, span),
                s.name,
            )
        })
        .collect();
    let cells = run_cells(cfg, &cells, |c, sr| {
        let acct = &sr.run.accounting;
        ScenarioCell {
            scenario: c.spec,
            system: c.system,
            rate: c.timeline.rate(),
            mtps: sr.run.mtps,
            mfls: sr.run.mfls,
            p95: sr.run.p95,
            delivery_ratio: acct.delivery_ratio(),
            scheduled: acct.scheduled,
            confirmed: acct.confirmed,
            retries: acct.retries,
            busy: sr.stats.busy,
            evicted: sr.stats.evicted,
            epochs: sr.epochs,
            live: sr.run.live,
            safety_ok: sr
                .run
                .safety
                .as_ref()
                .is_none_or(|r| r.violations.is_clean()),
            checks: sr.checks,
        }
    });
    ScenarioResult { names, cells }
}

/// Runs the full library: every scenario on every system it applies to.
pub fn scenarios(cfg: &ExperimentConfig) -> ScenarioResult {
    scenarios_for(cfg, &SystemKind::ALL, &scenario_names())
}

impl Report for ScenarioResult {
    /// Renders one table per scenario. Deterministic: the same config
    /// yields byte-identical output.
    fn render(&self) -> String {
        let library = scenario_library();
        let mut out = String::new();
        out.push_str("Scenario library — one deterministic timeline engine under every run\n");
        for name in &self.names {
            let Some(s) = library.iter().find(|s| s.name == *name) else {
                continue;
            };
            out.push_str(&format!(
                "\n== {} — {}\n   {}\n",
                s.name, s.about, s.timeline
            ));
            out.push_str(&format!(
                "{:<18} {:>6} {:>8} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>4} {:>6} {:>6}\n",
                "system",
                "rate",
                "mtps",
                "mfls",
                "deliv",
                "retry",
                "busy",
                "evict",
                "epochs",
                "live",
                "safety",
                "checks",
            ));
            for cell in self.cells.iter().filter(|c| c.scenario == *name) {
                out.push_str(&cell.render_row());
                out.push('\n');
            }
            for cell in self.cells.iter().filter(|c| c.scenario == *name) {
                for check in cell.checks.iter().filter(|c| !c.pass) {
                    out.push_str(&format!(
                        "   ! {} @ {:.0} s {}: {}\n",
                        cell.system.label(),
                        check.at.as_secs_f64(),
                        check.check,
                        check.observed,
                    ));
                }
            }
        }
        out
    }

    /// The run as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        Json::Obj(vec![
            (
                "scenarios".into(),
                Json::Arr(
                    self.names
                        .iter()
                        .map(|n| Json::Str((*n).to_string()))
                        .collect(),
                ),
            ),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(ScenarioCell::to_json).collect()),
            ),
        ])
        .to_pretty()
    }
}

/// Renders the library as a `--list` table: name, systems, about,
/// timeline.
pub fn render_scenario_list() -> String {
    let mut out = String::new();
    out.push_str("Named scenarios (repro scenario --name <name>):\n\n");
    for s in scenario_library() {
        let systems = (s.systems)();
        let sys = if systems.len() == SystemKind::ALL.len() {
            "all".to_string()
        } else {
            systems
                .iter()
                .map(|k| k.label())
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!("  {:<24} [{sys}]\n", s.name));
        out.push_str(&format!("      {}\n", s.about));
        out.push_str(&format!("      timeline: {}\n", s.timeline));
    }
    out
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
    fn library_has_ten_plus_uniquely_named_scenarios() {
        let names = scenario_names();
        assert!(names.len() >= 10, "library must ship 10+ scenarios");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be unique");
        // Every scenario applies to at least one system and compiles on
        // all of them at a small scale.
        let a = Span::fault(&quick());
        for s in scenario_library() {
            let systems = (s.systems)();
            assert!(!systems.is_empty(), "{}", s.name);
            for k in systems {
                let tl = (s.build)(k, a);
                assert!(!tl.checks().is_empty(), "{} asserts nothing", s.name);
            }
        }
    }

    #[test]
    fn campaign_filters_and_rejects_unknown_names() {
        let names = canonical(&scenario_names(), &["byzantine-overrun", "crash-heal"]);
        assert_eq!(names, ["crash-heal", "byzantine-overrun"]);
        let cells = scenario_cells(&names, &[SystemKind::Quorum]);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|(_, k)| *k == SystemKind::Quorum));
        let unknown = std::panic::catch_unwind(|| {
            canonical(&scenario_names(), &["no-such-scenario"]);
        });
        let message = *unknown.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("\"no-such-scenario\""), "{message}");
    }

    #[test]
    fn classics_hold_their_expectations() {
        let r = scenarios_for(
            &quick(),
            &[SystemKind::Quorum],
            &[
                "crash-heal",
                "beyond-f-halt",
                "byzantine-quorum-holds",
                "byzantine-overrun",
            ],
        );
        assert_eq!(r.cells.len(), 4);
        for cell in &r.cells {
            assert!(
                cell.all_checks_pass(),
                "{} on {} failed: {:?}",
                cell.scenario,
                cell.system,
                cell.checks
            );
        }
        // The overrun proves the attack beyond f, and the report says so.
        let overrun = r.cell("byzantine-overrun", SystemKind::Quorum).unwrap();
        assert!(!overrun.safety_ok);
    }

    #[test]
    fn subset_runs_are_byte_identical_to_the_full_library() {
        let full = scenarios(&quick());
        let subset = scenarios_for(&quick(), &[SystemKind::Diem], &["churn-under-overload"]);
        let a = full.cell("churn-under-overload", SystemKind::Diem).unwrap();
        let b = subset
            .cell("churn-under-overload", SystemKind::Diem)
            .unwrap();
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }
}
