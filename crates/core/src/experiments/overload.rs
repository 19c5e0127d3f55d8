//! Overload robustness: goodput-collapse curves and the metastable-failure
//! probe.
//!
//! Two instruments share one timeline and the tight admission pools
//! ([`tight_limits`]):
//!
//! * **Goodput curves** ([`overload`]'s `curves`): each system is offered
//!   `multiplier ×` its reference rate across [`MULTIPLIERS`], with the
//!   retry client but no client-side protection. Goodput (confirmed ops/s
//!   over the send window) rises with offered load until the system
//!   saturates, then collapses as admission answers `Busy`, TTL eviction
//!   sheds stale transactions, and retries amplify the offered load — the
//!   *saturation knee* ([`OverloadCurve::knee`]) is the multiplier where
//!   goodput peaks.
//! * **Metastable probe** ([`overload`]'s `probes`): the same 8× overload
//!   pulse over `[3·send/10, send/2)` is run twice per system — once with the
//!   bare retry client, once with [`ClientProtection::overload_default`]
//!   (retry budget + circuit breaker). The unprotected arm's retries
//!   amplify the pulse and sustain the overload after it ends (the
//!   metastable-failure signature); the protected arm sheds the excess and
//!   recovers no later, with strictly lower retry amplification.
//!
//! Every cell's seed is content-addressed (`["overload", system,
//! multiplier]` / `["overload-probe", system]`), so filtering or worker
//! counts never change a remaining cell's numbers, and both probe arms
//! share one seed — identical schedule, identical deployment — so their
//! difference is purely the protection under test.

use super::harness::{canonical, run_cells, steady_payload, Cell, Span};
use super::ExperimentConfig;
use crate::chaos::{ChaosRun, ClientProtection};
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::Report;
use crate::scenario::{ScenarioBuilder, Timeline};
use coconut_chains::runtime::PoolLimits;
use coconut_types::{SimDuration, SimTime};

/// The offered-load multipliers of the goodput curve, relative to the
/// system's reference rate.
pub const MULTIPLIERS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// The probe's pulse height relative to the base rate.
pub const PULSE_MULTIPLIER: f64 = 8.0;

/// The curve's 1× reference: the paper's largest rate limiter (1600 tx/s;
/// one tenth for the Cordas), so the multiplier grid straddles every
/// system's saturation point.
pub(crate) fn reference_rate(kind: SystemKind) -> f64 {
    *kind
        .rate_limiters()
        .last()
        .expect("every system has rate limiters")
}

/// The probe's base rate: the paper's smallest rate limiter, which every
/// healthy system serves comfortably — the pulse, not the baseline, is
/// what overloads.
fn probe_base_rate(kind: SystemKind) -> f64 {
    kind.rate_limiters()[0]
}

/// The tight admission pools of the overload campaign: small enough that
/// saturation manifests as `Busy` backpressure and TTL eviction within the
/// shortened windows, instead of unbounded queueing. (Corda's capacity
/// bounds each node's flow backlog; the block-based systems bound the
/// shared pending pool.)
pub fn tight_limits(kind: SystemKind) -> PoolLimits {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => PoolLimits::bounded(32),
        _ => PoolLimits::bounded(512).with_ttl(SimDuration::from_secs(4)),
    }
}

/// The probe's overload pulse, `[3/10, 1/2)` of the send window: late
/// enough that every system (including Fabric, whose first block waits
/// out the 2 s batch timeout) has a non-zero pre-pulse baseline.
fn pulse(span: Span) -> (SimTime, SimTime) {
    (span.at(3, 10), span.mid())
}

/// One goodput-curve cell: one system at one offered-load multiplier.
#[derive(Debug, Clone)]
pub struct OverloadCell {
    /// System under test.
    pub system: SystemKind,
    /// Offered load relative to the reference rate.
    pub multiplier: f64,
    /// Offered load (tx/s across all clients).
    pub offered: f64,
    /// Confirmed operations per second over the send window.
    pub goodput: f64,
    /// System-side `Busy` answers (bounded-pool backpressure).
    pub busy: u64,
    /// Transactions shed by TTL eviction.
    pub evicted: u64,
    /// The full run this cell summarizes.
    pub run: ChaosRun,
}

/// The goodput-vs-offered-load curve of one system, cells in ascending
/// multiplier order.
#[derive(Debug, Clone)]
pub struct OverloadCurve {
    /// System under test.
    pub system: SystemKind,
    /// The 1× offered load (tx/s).
    pub reference_rate: f64,
    /// Cells in [`MULTIPLIERS`] order.
    pub cells: Vec<OverloadCell>,
}

impl OverloadCurve {
    /// The saturation knee: the cell where goodput peaks. Ties resolve to
    /// the lowest offered load (beyond the knee, more offered load buys
    /// nothing).
    ///
    /// # Panics
    ///
    /// Panics if the curve has no cells (never produced by [`overload`]).
    pub fn knee(&self) -> &OverloadCell {
        self.cells
            .iter()
            .reduce(|best, c| if c.goodput > best.goodput { c } else { best })
            .expect("curves have at least one cell")
    }
}

/// One arm of the metastable probe.
#[derive(Debug, Clone)]
pub struct ProbeArm {
    /// `true` → retry budget + circuit breaker armed.
    pub protected: bool,
    /// MTPS before the pulse.
    pub pre_mtps: f64,
    /// MTPS while the pulse is active.
    pub pulse_mtps: f64,
    /// MTPS after the pulse ends.
    pub post_mtps: f64,
    /// Virtual seconds from pulse end until throughput sustains ≥ 70 % of
    /// the pre-pulse mean (`None` — never recovered: the metastable
    /// signature).
    pub recovery_secs: Option<f64>,
    /// Sends per scheduled transaction
    /// ([`crate::chaos::DeliveryAccounting::retry_amplification`]).
    pub amplification: f64,
    /// System-side `Busy` answers.
    pub busy: u64,
    /// Transactions shed by TTL eviction.
    pub evicted: u64,
    /// The full run this arm summarizes.
    pub run: ChaosRun,
}

/// The metastable-failure probe of one system: one overload pulse, two
/// client configurations.
#[derive(Debug, Clone)]
pub struct MetastableProbe {
    /// System under test.
    pub system: SystemKind,
    /// Baseline offered load (tx/s).
    pub base_rate: f64,
    /// Pulse height relative to the base rate.
    pub pulse_multiplier: f64,
    /// When the pulse starts.
    pub pulse_start: SimTime,
    /// When the pulse ends.
    pub pulse_end: SimTime,
    /// The bare retry client.
    pub unprotected: ProbeArm,
    /// The budget + breaker client.
    pub protected: ProbeArm,
}

/// The outcome of the overload campaign: one curve and one probe per
/// system, in [`SystemKind::ALL`] order.
#[derive(Debug, Clone)]
pub struct OverloadResult {
    /// Goodput curves, one per system.
    pub curves: Vec<OverloadCurve>,
    /// Metastable probes, one per system.
    pub probes: Vec<MetastableProbe>,
}

impl OverloadResult {
    /// The curve of `system`, if swept.
    pub fn curve(&self, system: SystemKind) -> Option<&OverloadCurve> {
        self.curves.iter().find(|c| c.system == system)
    }

    /// The probe of `system`, if run.
    pub fn probe(&self, system: SystemKind) -> Option<&MetastableProbe> {
        self.probes.iter().find(|p| p.system == system)
    }
}

/// One goodput-curve cell as a scenario: base load at the offered rate
/// over the whole window, tight admission pools, no faults.
fn curve_scenario(kind: SystemKind, offered: f64, span: Span) -> Timeline {
    ScenarioBuilder::new(steady_payload(kind), offered, span.windows)
        .setup(SystemSetup::default().with_admission(tight_limits(kind)))
        .build()
}

/// One probe arm as a scenario: baseline traffic over the full send
/// window, a `PULSE_MULTIPLIER ×` flash crowd over the [`pulse`], and the
/// protection under test.
fn probe_scenario(kind: SystemKind, protected: bool, span: Span) -> Timeline {
    let protection = if protected {
        ClientProtection::overload_default()
    } else {
        ClientProtection::disabled()
    };
    let (start, end) = pulse(span);
    ScenarioBuilder::new(steady_payload(kind), probe_base_rate(kind), span.windows)
        .setup(SystemSetup::default().with_admission(tight_limits(kind)))
        .protection(protection)
        .at(start)
        .flash_crowd(PULSE_MULTIPLIER, end)
        .build()
}

/// Runs the overload campaign over all seven systems.
pub fn overload(cfg: &ExperimentConfig) -> OverloadResult {
    overload_for(cfg, &SystemKind::ALL)
}

/// Runs the overload campaign over `systems` (canonicalized to
/// [`SystemKind::ALL`] order): the goodput curve ([`MULTIPLIERS`] per
/// system) and the metastable probe (2 arms per system), all cells
/// independent on the grid executor (`cfg.jobs` workers). Seeds are
/// content-addressed per cell, so any worker count or subset renders the
/// same cell bytes.
pub fn overload_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> OverloadResult {
    OverloadResult {
        curves: overload_curves_for(cfg, systems),
        probes: overload_probes_for(cfg, systems),
    }
}

/// The goodput curves of `systems` only. Cell seeds are content-addressed
/// by (system, multiplier), so a subset's cells are byte-identical to the
/// same cells of the full campaign.
pub fn overload_curves_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> Vec<OverloadCurve> {
    let span = Span::load(cfg);
    let mut cells = Vec::new();
    for system in canonical(&SystemKind::ALL, systems) {
        for multiplier in MULTIPLIERS {
            let offered = reference_rate(system) * multiplier;
            let milli = format!("{}", (multiplier * 1000.0).round() as u64);
            let timeline = curve_scenario(system, offered, span);
            cells.push(Cell::new(
                &["overload", system.label(), &milli],
                system,
                timeline,
                multiplier,
            ));
        }
    }

    let cells = run_cells(cfg, &cells, |c, sr| OverloadCell {
        system: c.system,
        multiplier: c.spec,
        offered: c.timeline.rate(),
        goodput: sr.run.accounting.confirmed as f64 / span.windows.send.as_secs_f64(),
        busy: sr.stats.busy,
        evicted: sr.stats.evicted,
        run: sr.run,
    });

    let mut curves: Vec<OverloadCurve> = Vec::new();
    for cell in cells {
        match curves.last_mut() {
            Some(c) if c.system == cell.system => c.cells.push(cell),
            _ => curves.push(OverloadCurve {
                system: cell.system,
                reference_rate: reference_rate(cell.system),
                cells: vec![cell],
            }),
        }
    }
    curves
}

/// The metastable probes of `systems` only (seeds content-addressed by
/// system, as with the curves).
pub fn overload_probes_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> Vec<MetastableProbe> {
    let span = Span::load(cfg);
    let (pulse_start, pulse_end) = pulse(span);
    let systems = canonical(&SystemKind::ALL, systems);
    let mut cells = Vec::new();
    for &system in &systems {
        for protected in [false, true] {
            // Both arms share one seed: identical schedule, identical
            // deployment — the arms differ only in client protection.
            let timeline = probe_scenario(system, protected, span);
            cells.push(Cell::new(
                &["overload-probe", system.label()],
                system,
                timeline,
                protected,
            ));
        }
    }

    let arms = run_cells(cfg, &cells, |c, sr| {
        let p = sr.run.phases(pulse_start, pulse_end, span.listen_end());
        ProbeArm {
            protected: c.spec,
            pre_mtps: p.pre_mtps,
            pulse_mtps: p.during_mtps,
            post_mtps: p.post_mtps,
            recovery_secs: p.recovery_secs,
            amplification: sr.run.accounting.retry_amplification(),
            busy: sr.stats.busy,
            evicted: sr.stats.evicted,
            run: sr.run,
        }
    });

    let mut arms = arms.into_iter();
    systems
        .into_iter()
        .map(|system| MetastableProbe {
            system,
            base_rate: probe_base_rate(system),
            pulse_multiplier: PULSE_MULTIPLIER,
            pulse_start,
            pulse_end,
            unprotected: arms.next().expect("two arms per system"),
            protected: arms.next().expect("two arms per system"),
        })
        .collect()
}

impl OverloadCell {
    fn render_row(&self) -> String {
        let a = &self.run.accounting;
        format!(
            "{:>5.2} {:>9.0} {:>9.1} {:>6.3} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}",
            self.multiplier,
            self.offered,
            self.goodput,
            a.delivery_ratio(),
            self.busy,
            self.evicted,
            a.rejected,
            a.timed_out,
            a.backpressured,
            a.unsent,
            a.retries,
        )
    }

    fn to_json(&self) -> Json {
        let a = &self.run.accounting;
        Json::Obj(vec![
            ("multiplier".into(), Json::Num(self.multiplier)),
            ("offered".into(), Json::Num(self.offered)),
            ("goodput".into(), Json::Num(self.goodput)),
            ("delivery_ratio".into(), Json::Num(a.delivery_ratio())),
            ("busy".into(), Json::Num(self.busy as f64)),
            ("evicted".into(), Json::Num(self.evicted as f64)),
            ("scheduled".into(), Json::Num(a.scheduled as f64)),
            ("confirmed".into(), Json::Num(a.confirmed as f64)),
            ("rejected".into(), Json::Num(a.rejected as f64)),
            ("timed_out".into(), Json::Num(a.timed_out as f64)),
            ("backpressured".into(), Json::Num(a.backpressured as f64)),
            ("unsent".into(), Json::Num(a.unsent as f64)),
            ("retries".into(), Json::Num(a.retries as f64)),
            ("busy_responses".into(), Json::Num(a.busy_responses as f64)),
            ("mfls".into(), Json::Num(self.run.mfls)),
        ])
    }
}

impl ProbeArm {
    fn render_row(&self, system: &str) -> String {
        let a = &self.run.accounting;
        let rec = match self.recovery_secs {
            Some(s) => format!("{s:.1} s"),
            None => "never".to_string(),
        };
        format!(
            "{:<18} {:<11} {:>8.1} {:>8.1} {:>8.1} {:>8} {:>6.3} {:>7} {:>7} {:>6} {:>8}",
            system,
            if self.protected {
                "protected"
            } else {
                "unprotected"
            },
            self.pre_mtps,
            self.pulse_mtps,
            self.post_mtps,
            rec,
            self.amplification,
            a.busy_responses,
            a.budget_exhausted,
            a.breaker_opens,
            a.retries,
        )
    }

    fn to_json(&self) -> Json {
        let a = &self.run.accounting;
        Json::Obj(vec![
            (
                "arm".into(),
                Json::Str(
                    if self.protected {
                        "protected"
                    } else {
                        "unprotected"
                    }
                    .into(),
                ),
            ),
            ("pre_mtps".into(), Json::Num(self.pre_mtps)),
            ("pulse_mtps".into(), Json::Num(self.pulse_mtps)),
            ("post_mtps".into(), Json::Num(self.post_mtps)),
            (
                "recovery_secs".into(),
                self.recovery_secs.map_or(Json::Null, Json::Num),
            ),
            ("retry_amplification".into(), Json::Num(self.amplification)),
            ("delivery_ratio".into(), Json::Num(a.delivery_ratio())),
            ("busy".into(), Json::Num(self.busy as f64)),
            ("evicted".into(), Json::Num(self.evicted as f64)),
            ("retries".into(), Json::Num(a.retries as f64)),
            ("busy_responses".into(), Json::Num(a.busy_responses as f64)),
            ("backpressured".into(), Json::Num(a.backpressured as f64)),
            (
                "budget_exhausted".into(),
                Json::Num(a.budget_exhausted as f64),
            ),
            ("breaker_opens".into(), Json::Num(a.breaker_opens as f64)),
            ("breaker_open_secs".into(), Json::Num(a.breaker_open_secs)),
        ])
    }
}

impl Report for OverloadResult {
    /// Renders the goodput curves (with per-system knee) followed by the
    /// metastable-probe table. Deterministic: the same config yields
    /// byte-identical output.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Goodput curves — confirmed ops/s vs offered load (tight admission pools)\n\n",
        );
        for curve in &self.curves {
            out.push_str(&format!(
                "== {} (reference {} tx/s)\n",
                curve.system.label(),
                curve.reference_rate
            ));
            out.push_str(&format!(
                "{:>5} {:>9} {:>9} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
                "mult",
                "offered",
                "goodput",
                "deliv",
                "busy",
                "evict",
                "rej",
                "tout",
                "backp",
                "unsent",
                "retry",
            ));
            for cell in &curve.cells {
                out.push_str(&cell.render_row());
                out.push('\n');
            }
            let knee = curve.knee();
            out.push_str(&format!(
                "knee: goodput peaks at {:.2}x ({:.1} ops/s)\n\n",
                knee.multiplier, knee.goodput
            ));
        }
        out.push_str(&format!(
            "Metastable probe — {PULSE_MULTIPLIER:.0}x pulse over [{} s, {} s), budget+breaker vs bare retries\n\n",
            self.probes
                .first()
                .map_or(0, |p| p.pulse_start.as_secs_f64() as u64),
            self.probes
                .first()
                .map_or(0, |p| p.pulse_end.as_secs_f64() as u64),
        ));
        out.push_str(&format!(
            "{:<18} {:<11} {:>8} {:>8} {:>8} {:>8} {:>6} {:>7} {:>7} {:>6} {:>8}\n",
            "system",
            "arm",
            "pre",
            "pulse",
            "post",
            "recovery",
            "amp",
            "busy",
            "budget",
            "opens",
            "retries",
        ));
        out.push_str(&"-".repeat(110));
        out.push('\n');
        for p in &self.probes {
            out.push_str(&p.unprotected.render_row(p.system.label()));
            out.push('\n');
            out.push_str(&p.protected.render_row(p.system.label()));
            out.push('\n');
        }
        out
    }

    /// The campaign as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        let curves = self
            .curves
            .iter()
            .map(|c| {
                let knee = c.knee();
                Json::Obj(vec![
                    ("system".into(), Json::Str(c.system.label().into())),
                    ("reference_rate".into(), Json::Num(c.reference_rate)),
                    ("knee_multiplier".into(), Json::Num(knee.multiplier)),
                    ("knee_goodput".into(), Json::Num(knee.goodput)),
                    (
                        "cells".into(),
                        Json::Arr(c.cells.iter().map(OverloadCell::to_json).collect()),
                    ),
                ])
            })
            .collect();
        let probes = self
            .probes
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("system".into(), Json::Str(p.system.label().into())),
                    ("base_rate".into(), Json::Num(p.base_rate)),
                    ("pulse_multiplier".into(), Json::Num(p.pulse_multiplier)),
                    (
                        "pulse_start_secs".into(),
                        Json::Num(p.pulse_start.as_secs_f64()),
                    ),
                    (
                        "pulse_end_secs".into(),
                        Json::Num(p.pulse_end.as_secs_f64()),
                    ),
                    (
                        "arms".into(),
                        Json::Arr(vec![p.unprotected.to_json(), p.protected.to_json()]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("curves".into(), Json::Arr(curves)),
            ("probes".into(), Json::Arr(probes)),
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
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn pulse_schedule_merges_sorted_and_collision_free() {
        use crate::scenario::overlay_tag;
        let span = Span::load(&quick());
        let (pulse_start, pulse_end) = pulse(span);
        let sched = probe_scenario(SystemKind::Fabric, false, span).schedule(42);
        let base_rate = probe_base_rate(SystemKind::Fabric);
        // Sorted by (at, id) …
        assert!(sched
            .windows(2)
            .all(|w| (w[0].at, w[0].tx.id()) < (w[1].at, w[1].tx.id())));
        // … with unique ids (the pulse tag keeps the overlay disjoint) …
        let mut ids: Vec<_> = sched.iter().map(|s| s.tx.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), sched.len());
        // … and all overlay sends inside the pulse window.
        for s in &sched {
            if s.tx.id().seq() & overlay_tag(0) != 0 {
                assert!(s.at >= pulse_start && s.at < pulse_end + SimDuration::from_secs(1));
            }
        }
        // The overlay adds (PULSE_MULTIPLIER − 1)× base over the pulse
        // window: total ≈ base · (send + (mult − 1) · pulse_len).
        let pulse_len = (pulse_end - pulse_start).as_secs_f64();
        let expect =
            base_rate * (span.windows.send.as_secs_f64() + (PULSE_MULTIPLIER - 1.0) * pulse_len);
        let got = sched.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "schedule size {got} vs expected {expect}"
        );
    }

    #[test]
    fn knee_picks_lowest_multiplier_on_ties() {
        let mk = |multiplier: f64, goodput: f64| OverloadCell {
            system: SystemKind::Fabric,
            multiplier,
            offered: multiplier * 100.0,
            goodput,
            busy: 0,
            evicted: 0,
            run: ChaosRun {
                buckets: vec![],
                bucket_len: SimDuration::from_secs(1),
                live: true,
                ..ChaosRun::default()
            },
        };
        let curve = OverloadCurve {
            system: SystemKind::Fabric,
            reference_rate: 100.0,
            cells: vec![mk(0.5, 80.0), mk(1.0, 90.0), mk(2.0, 90.0), mk(4.0, 30.0)],
        };
        assert_eq!(curve.knee().multiplier, 1.0);
    }

    #[test]
    fn tight_limits_are_tight() {
        for kind in SystemKind::ALL {
            let l = tight_limits(kind);
            assert!(
                l.capacity <= 512,
                "{}: overload pools must be small",
                kind.label()
            );
        }
    }
}
