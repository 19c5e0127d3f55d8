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

use super::harness::{canonical, record, run_cells, secs_or, steady_payload, Cell, Span};
use super::ExperimentConfig;
use crate::chaos::{ChaosRun, ClientProtection};
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::{self, Column, Report};
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
    fn record(&self) -> Json {
        let keys = "multiplier offered goodput delivery_ratio busy evicted scheduled confirmed \
            rejected timed_out backpressured unsent retries busy_responses mfls";
        record(keys, &self.run, None, |key| match key {
            "multiplier" => Some(self.multiplier.into()),
            "offered" => Some(self.offered.into()),
            "goodput" => Some(self.goodput.into()),
            "busy" => Some(self.busy.into()),
            "evicted" => Some(self.evicted.into()),
            _ => None,
        })
    }
}

impl ProbeArm {
    fn record(&self) -> Json {
        let keys = "arm pre_mtps pulse_mtps post_mtps recovery_secs retry_amplification \
            delivery_ratio busy evicted retries busy_responses backpressured budget_exhausted \
            breaker_opens breaker_open_secs";
        let arm = if self.protected {
            "protected"
        } else {
            "unprotected"
        };
        record(keys, &self.run, None, |key| match key {
            "arm" => Some(arm.into()),
            "pre_mtps" => Some(self.pre_mtps.into()),
            "pulse_mtps" => Some(self.pulse_mtps.into()),
            "post_mtps" => Some(self.post_mtps.into()),
            "recovery_secs" => Some(self.recovery_secs.into()),
            "busy" => Some(self.busy.into()),
            "evicted" => Some(self.evicted.into()),
            _ => None,
        })
    }
}

/// The goodput curves' columns.
const CURVE_COLUMNS: [Column; 11] = [
    Column::num("mult", 5, "multiplier", 2),
    Column::num("offered", 9, "offered", 0),
    Column::num("goodput", 9, "goodput", 1),
    Column::num("deliv", 6, "delivery_ratio", 3),
    Column::num("busy", 7, "busy", 0),
    Column::num("evict", 7, "evicted", 0),
    Column::num("rej", 6, "rejected", 0),
    Column::num("tout", 6, "timed_out", 0),
    Column::num("backp", 6, "backpressured", 0),
    Column::num("unsent", 6, "unsent", 0),
    Column::num("retry", 6, "retries", 0),
];

/// The metastable probe's columns, over arm records that carry their
/// probe's `system`.
const PROBE_COLUMNS: [Column; 11] = [
    Column::text("system", 18, "system"),
    Column::text("arm", 11, "arm"),
    Column::num("pre", 8, "pre_mtps", 1),
    Column::num("pulse", 8, "pulse_mtps", 1),
    Column::num("post", 8, "post_mtps", 1),
    Column::with("recovery", 8, |r| secs_or(r, "recovery_secs", "never")),
    Column::num("amp", 6, "retry_amplification", 3),
    Column::num("busy", 7, "busy_responses", 0),
    Column::num("budget", 7, "budget_exhausted", 0),
    Column::num("opens", 6, "breaker_opens", 0),
    Column::num("retries", 8, "retries", 0),
];

impl Report for OverloadResult {
    fn record(&self) -> Json {
        let curves = self.curves.iter().map(|c| {
            let knee = c.knee();
            Json::obj([
                ("system", c.system.label().into()),
                ("reference_rate", c.reference_rate.into()),
                ("knee_multiplier", knee.multiplier.into()),
                ("knee_goodput", knee.goodput.into()),
                ("cells", c.cells.iter().map(OverloadCell::record).collect()),
            ])
        });
        let probes = self.probes.iter().map(|p| {
            Json::obj([
                ("system", p.system.label().into()),
                ("base_rate", p.base_rate.into()),
                ("pulse_multiplier", p.pulse_multiplier.into()),
                ("pulse_start_secs", p.pulse_start.as_secs_f64().into()),
                ("pulse_end_secs", p.pulse_end.as_secs_f64().into()),
                (
                    "arms",
                    Json::Arr(vec![p.unprotected.record(), p.protected.record()]),
                ),
            ])
        });
        Json::obj([("curves", curves.collect()), ("probes", probes.collect())])
    }

    /// Renders the goodput curves (with per-system knee) followed by the
    /// metastable-probe table. Deterministic: the same config yields
    /// byte-identical output.
    fn render(&self) -> String {
        let record = self.record();
        let mut out = String::from(
            "Goodput curves — confirmed ops/s vs offered load (tight admission pools)\n\n",
        );
        for c in record.list("curves") {
            let (system, reference) = (c.text("system"), c.num("reference_rate"));
            out.push_str(&format!("== {system} (reference {reference} tx/s)\n"));
            out.push_str(&report::columns(&CURVE_COLUMNS, c.list("cells")));
            out.push_str(&format!(
                "knee: goodput peaks at {:.2}x ({:.1} ops/s)\n\n",
                c.num("knee_multiplier"),
                c.num("knee_goodput")
            ));
        }
        let probes = record.list("probes");
        let pulse = |key| probes.first().map_or(0.0, |p| p.num(key));
        out.push_str(&format!(
            "Metastable probe — {PULSE_MULTIPLIER:.0}x pulse over [{} s, {} s), budget+breaker vs bare retries\n\n",
            pulse("pulse_start_secs"),
            pulse("pulse_end_secs"),
        ));
        // Each arm row carries its probe's system.
        let arms: Vec<Json> = probes
            .iter()
            .flat_map(|p| p.list("arms").iter().map(|a| with_system(p, a)))
            .collect();
        out.push_str(&report::columns(&PROBE_COLUMNS, &arms));
        out
    }
}

/// `arm`'s record with its `probe`'s system first.
fn with_system(probe: &Json, arm: &Json) -> Json {
    let Json::Obj(fields) = arm else {
        panic!("arm records are objects");
    };
    let mut row = vec![("system".to_string(), probe.field("system").clone())];
    row.extend(fields.iter().cloned());
    Json::Obj(row)
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
