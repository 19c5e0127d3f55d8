//! The campaign harness: what the seven `repro` campaigns (chaos and its
//! sweep, overload, churn, scenario, bottleneck, contention, grayfail)
//! share.
//!
//! * **Windows** — [`Span`] derives a campaign's send/listen windows from
//!   the config's scale, and the marks (quarter points, `num/den` of the
//!   send window) its timelines read off them.
//! * **Steady load** — [`steady_payload`] and [`steady_rate`]: the
//!   below-saturation load the fault campaigns run under.
//! * **Filters** — [`canonical`] puts a campaign's `systems` and axis
//!   filters in report order, so output never depends on the order a
//!   filter lists them in.
//! * **Cells** — [`run_cells`] runs [`Cell`]s on the grid executor: it
//!   derives each cell's seed from its seed parts and runs its
//!   [`Timeline`] on a fresh deployment. [`Timeline::run_on`], the one
//!   path every client schedule takes (campaign cells, paper benchmarks,
//!   units and ablations alike), checks the delivery accounting in every
//!   build.
//! * **Phases** — [`ChaosRun::phases`] measures a finished cell before,
//!   during and after its disturbance, with the recovery time after it.
//! * **Records** — [`record`] writes a finished cell as one JSON record:
//!   its own fields and the shared [`metric`]s, in the golden key order.
//!   `to_json` prints the records and `render` reads its text tables
//!   from them ([`crate::report::columns`]).
//!
//! A cell's seed parts are its coordinates, never its grid position, so
//! `--systems`, `--workloads`, `--name` and `--jobs` reproduce exactly the
//! cells of the full campaign. The parts are seed components: never
//! reorder or rename them. Per campaign:
//!
//! | campaign   | seed parts                                             |
//! |------------|--------------------------------------------------------|
//! | chaos      | `["chaos-tolerant", system]`, `["chaos-halt", system]`, `["chaos-burst", system]`, `["chaos-byz", arm, system]` |
//! | sweep      | `["chaos-sweep", kind, system, severity]`              |
//! | overload   | `["overload", system, multiplier × 1000]`, `["overload-probe", system]` (both probe arms) |
//! | churn      | `["churn", system, arm]`                               |
//! | scenario   | `["scenario", name, system]`                           |
//! | bottleneck | `["bottleneck", system]`                               |
//! | contention | `["contention", system, workload, level]`              |
//! | grayfail   | `["grayfail", system, kind, severity]`, baselines `["grayfail", system, "baseline", "-"]` |

use std::fmt::Debug;

use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::client::Windows;
use crate::json::Json;
use crate::params::SystemKind;
use crate::scenario::{ScenarioRun, Timeline};
use coconut_chains::SystemStats;
use coconut_types::{PayloadKind, SeedDeriver, SimDuration, SimTime};

/// A campaign's client windows at one scale, and the marks its timelines
/// read off them. Every mark is a whole second: `send · num / den`,
/// rounded down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    send_secs: u64,
    /// The send and listen windows.
    pub windows: Windows,
}

impl Span {
    /// `paper_secs` of sending at scale 1 (at least `min_secs`), then
    /// `listen_margin_secs` more of listening.
    fn new(
        cfg: &ExperimentConfig,
        paper_secs: f64,
        min_secs: u64,
        listen_margin_secs: u64,
    ) -> Span {
        let send_secs = ((paper_secs * cfg.scale).round() as u64).max(min_secs);
        Span {
            send_secs,
            windows: Windows {
                send: SimDuration::from_secs(send_secs),
                listen: SimDuration::from_secs(send_secs + listen_margin_secs),
            },
        }
    }

    /// The fault campaigns' span (chaos, churn, scenario, grayfail): at
    /// least 20 s of sending so pre / fault / post each span several 1 s
    /// buckets, plus a 10 s listen margin so the send-window tail and
    /// timed-out retries can still confirm.
    pub fn fault(cfg: &ExperimentConfig) -> Span {
        Span::new(cfg, 300.0, 20, 10)
    }

    /// The load campaigns' span (overload, bottleneck, contention):
    /// saturation shows within seconds, so at least 10 s of sending, plus
    /// an 8 s listen margin matching the retry client's finalization
    /// timeout.
    pub fn load(cfg: &ExperimentConfig) -> Span {
        Span::new(cfg, 100.0, 10, 8)
    }

    /// The same send window with `secs` of listening after it.
    pub fn with_listen_margin(self, secs: u64) -> Span {
        Span {
            windows: Windows {
                send: self.windows.send,
                listen: SimDuration::from_secs(self.send_secs + secs),
            },
            ..self
        }
    }

    /// `num/den` of the send window, rounded down to a whole second.
    pub fn at(&self, num: u64, den: u64) -> SimTime {
        SimTime::from_secs(self.send_secs * num / den)
    }

    /// A quarter of the send window: where disturbances start.
    pub fn q1(&self) -> SimTime {
        self.at(1, 4)
    }

    /// Half of the send window: where single-window disturbances end.
    pub fn mid(&self) -> SimTime {
        self.at(1, 2)
    }

    /// Three quarters of the send window.
    pub fn q3(&self) -> SimTime {
        self.at(3, 4)
    }

    /// The end of the send window.
    pub fn send_end(&self) -> SimTime {
        SimTime::ZERO + self.windows.send
    }

    /// The end of the listen window.
    pub fn listen_end(&self) -> SimTime {
        SimTime::ZERO + self.windows.listen
    }
}

/// The share of the pre-disturbance mean throughput a run must sustain
/// (over [`ChaosRun::recovery_secs`]' three-bucket window) to count as
/// recovered.
pub const RECOVERY_THRESHOLD: f64 = 0.7;

/// A run measured before, during and after one disturbance
/// ([`ChaosRun::phases`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// MTPS before the disturbance.
    pub pre_mtps: f64,
    /// MTPS while the disturbance is active.
    pub during_mtps: f64,
    /// MTPS from the disturbance's end to the end of the listen window.
    pub post_mtps: f64,
    /// Virtual seconds from the disturbance's end until throughput
    /// sustains [`RECOVERY_THRESHOLD`] × the pre-disturbance mean (`None`:
    /// never recovered, or no pre-disturbance throughput).
    pub recovery_secs: Option<f64>,
}

impl ChaosRun {
    /// The run windowed around one disturbance over `[from, until)`: MTPS
    /// before it, during it and from `until` to `end`, plus the time from
    /// `until` to recover [`RECOVERY_THRESHOLD`] × the pre-disturbance
    /// mean.
    pub fn phases(&self, from: SimTime, until: SimTime, end: SimTime) -> Phases {
        Phases {
            pre_mtps: self.window_mtps(SimTime::ZERO, from),
            during_mtps: self.window_mtps(from, until),
            post_mtps: self.window_mtps(until, end),
            recovery_secs: self.recovery_secs(from, until, RECOVERY_THRESHOLD),
        }
    }
}

/// The steady workload of the fault campaigns: a write workload for the
/// Cordas (DoNothing has no states and is answered locally, so it would
/// bypass the notary under test), DoNothing for the block-based systems.
pub fn steady_payload(kind: SystemKind) -> PayloadKind {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => PayloadKind::KeyValueSet,
        _ => PayloadKind::DoNothing,
    }
}

/// The steady offered load (tx/s), well below saturation so throughput
/// changes are attributable to the timeline's events: below Corda OS's
/// ~5 tx/s KeyValue-Set ceiling (Table 7; the flow pipeline resolves at
/// submit time, so a saturated backlog would smear commits far past a
/// crash), and below the rate where a 4 s IBFT round change would push
/// Quorum's pending pool over its §5.5 stall threshold, which would
/// conflate the modelled liveness anomaly with crash tolerance.
pub fn steady_rate(kind: SystemKind) -> f64 {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => 4.0,
        _ => 50.0,
    }
}

/// The values of `all` that `pick` names, in `all`'s (report) order and
/// without duplicates.
///
/// # Panics
///
/// Panics if `pick` names a value outside `all`; `repro` validates its
/// list flags before a campaign runs.
pub fn canonical<T, U>(all: &[T], pick: &[U]) -> Vec<T>
where
    T: Copy + PartialEq<U>,
    U: Debug,
{
    if let Some(unknown) = pick.iter().find(|p| !all.iter().any(|a| a == *p)) {
        panic!("unknown campaign filter value {unknown:?}");
    }
    all.iter()
        .copied()
        .filter(|a| pick.iter().any(|p| a == p))
        .collect()
}

/// One campaign cell: the seed parts that address it, the system and
/// timeline it runs, and whatever else the campaign needs to finish it.
pub struct Cell<T> {
    /// The cell's seed parts (see the module docs).
    pub parts: Vec<String>,
    /// The system under test.
    pub system: SystemKind,
    /// The compiled scenario.
    pub timeline: Timeline,
    /// The campaign's own cell coordinates.
    pub spec: T,
}

impl<T> Cell<T> {
    /// A cell addressed by `parts`.
    pub fn new(parts: &[&str], system: SystemKind, timeline: Timeline, spec: T) -> Self {
        Cell {
            parts: parts.iter().map(|p| (*p).to_string()).collect(),
            system,
            timeline,
            spec,
        }
    }
}

/// Runs `cells` on the grid executor (`cfg.jobs` workers) and hands each
/// finished run to `finish`, returning the results in input order. A
/// cell's seed is `SeedDeriver::new(cfg.seed).seed_parts(parts)`.
///
/// # Panics
///
/// Panics, through [`Timeline::run_on`], if a run's delivery accounting
/// is incomplete.
pub fn run_cells<T, R, F>(cfg: &ExperimentConfig, cells: &[Cell<T>], finish: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&Cell<T>, ScenarioRun) -> R + Sync,
{
    crate::exec::run_grid(cells, cfg.jobs, |_, cell| {
        let parts: Vec<&str> = cell.parts.iter().map(String::as_str).collect();
        let seed = SeedDeriver::new(cfg.seed).seed_parts(&parts);
        finish(cell, cell.timeline.run(cell.system, seed))
    })
}

/// The metrics campaign cells share, by record key: client-side numbers
/// from the run and its delivery accounting, and system-side counters
/// from `stats`. `byzantine` holds the safety monitor's counts, `null`
/// where safety invariants do not apply (the CFT systems).
///
/// # Panics
///
/// Panics, naming `key`, on a key outside the table, or on a system-side
/// key when `stats` is `None`.
pub fn metric(key: &str, run: &ChaosRun, stats: Option<&SystemStats>) -> Json {
    let a = &run.accounting;
    let sys = || stats.unwrap_or_else(|| panic!("metric {key:?} needs system stats"));
    match key {
        "mtps" => run.mtps.into(),
        "mfls" => run.mfls.into(),
        "p95" => run.p95.into(),
        "p99_secs" => run.p99.into(),
        "live" => run.live.into(),
        "delivery_ratio" => a.delivery_ratio().into(),
        "retry_amplification" => a.retry_amplification().into(),
        "scheduled" => a.scheduled.into(),
        "confirmed" => a.confirmed.into(),
        "rejected" => a.rejected.into(),
        "timed_out" => a.timed_out.into(),
        "lost_in_fault" => a.lost_in_fault.into(),
        "unsent" => a.unsent.into(),
        "backpressured" => a.backpressured.into(),
        "retries" => a.retries.into(),
        "busy_responses" => a.busy_responses.into(),
        "budget_exhausted" => a.budget_exhausted.into(),
        "breaker_opens" => a.breaker_opens.into(),
        "breaker_open_secs" => a.breaker_open_secs.into(),
        "busy" => sys().busy.into(),
        "evicted" => sys().evicted.into(),
        "accepted" => sys().accepted.into(),
        "conflicts" => sys().conflicts.into(),
        "byzantine" => run
            .safety
            .as_ref()
            .map(|s| {
                let (v, o) = (&s.violations, &s.observed);
                Json::obj([
                    ("conflicting_commits", v.conflicting_commits.into()),
                    (
                        "conflicting_certificates",
                        v.conflicting_certificates.into(),
                    ),
                    ("undersized_quorums", v.undersized_quorums.into()),
                    ("equivocating_proposals", o.equivocating_proposals.into()),
                    ("double_votes", o.double_votes.into()),
                    ("byzantine_nodes", o.byzantine_nodes.into()),
                ])
            })
            .into(),
        _ => panic!("no shared metric {key:?}"),
    }
}

/// A cell's JSON record: the fields `keys` (space-separated, in the
/// record's pinned order), each taken from the cell's `own` fields or,
/// where `own` has none, from the shared [`metric`] table.
pub fn record(
    keys: &str,
    run: &ChaosRun,
    stats: Option<&SystemStats>,
    own: impl Fn(&str) -> Option<Json>,
) -> Json {
    let value = |k| own(k).unwrap_or_else(|| metric(k, run, stats));
    Json::obj(keys.split_whitespace().map(|k| (k, value(k))))
}

/// The seconds under `key` as `"{:.1} s"`, or `none` where the record
/// holds `null`.
pub fn secs_or(record: &Json, key: &str, none: &str) -> String {
    let secs = record.field(key).as_f64();
    secs.map_or_else(|| none.to_string(), |s| format!("{s:.1} s"))
}

/// The safety verdict under `safety_ok`: `ok` or `VIOL`.
pub fn safety(record: &Json) -> String {
    let ok = record.flag("safety_ok");
    if ok { "ok" } else { "VIOL" }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scale: f64) -> ExperimentConfig {
        ExperimentConfig {
            scale,
            ..ExperimentConfig::default()
        }
    }

    /// Whole seconds of a mark or window end.
    fn secs(t: SimTime) -> u64 {
        t.as_micros() / 1_000_000
    }

    /// Each campaign's windows and marks, recorded at the campaigns' own
    /// per-module derivations before they shared [`Span`], at the golden
    /// scales (0.02, 0.08), the `repro` default (0.1) and `--paper` (1.0).
    #[test]
    fn spans_match_the_recorded_campaign_windows() {
        // (scale, send, listen, q1, mid, q3) of the chaos, churn and
        // scenario campaigns; grayfail listens 8 s instead of 10 s.
        let fault = [
            (0.02, 20, 30, 5, 10, 15),
            (0.08, 24, 34, 6, 12, 18),
            (0.1, 30, 40, 7, 15, 22),
            (1.0, 300, 310, 75, 150, 225),
        ];
        for (scale, send, listen, q1, mid, q3) in fault {
            let s = Span::fault(&cfg(scale));
            assert_eq!(s.windows.send, SimDuration::from_secs(send), "{scale}");
            assert_eq!(s.windows.listen, SimDuration::from_secs(listen), "{scale}");
            let marks = [s.q1(), s.mid(), s.q3(), s.send_end(), s.listen_end()];
            assert_eq!(marks.map(secs), [q1, mid, q3, send, listen], "{scale}");
            let gray = s.with_listen_margin(8);
            assert_eq!(gray.windows.send, s.windows.send);
            assert_eq!(gray.windows.listen, SimDuration::from_secs(send + 8));
            assert_eq!([gray.q1(), gray.mid()], [s.q1(), s.mid()]);
        }
        // (scale, send, listen, 3/10, mid) of the overload, bottleneck and
        // contention campaigns (the marks are the overload pulse).
        let load = [
            (0.02, 10, 18, 3, 5),
            (0.08, 10, 18, 3, 5),
            (0.1, 10, 18, 3, 5),
            (1.0, 100, 108, 30, 50),
        ];
        for (scale, send, listen, pulse_start, pulse_end) in load {
            let s = Span::load(&cfg(scale));
            assert_eq!(s.windows.send, SimDuration::from_secs(send), "{scale}");
            assert_eq!(s.windows.listen, SimDuration::from_secs(listen), "{scale}");
            assert_eq!([s.at(3, 10), s.mid()].map(secs), [pulse_start, pulse_end]);
        }
    }

    #[test]
    fn phases_window_the_run_around_the_disturbance() {
        let run = ChaosRun {
            buckets: vec![10, 10, 10, 2, 2, 0, 0, 10, 10, 10, 8],
            bucket_len: SimDuration::from_secs(1),
            ..ChaosRun::default()
        };
        let at = SimTime::from_secs;
        let p = run.phases(at(3), at(6), at(11));
        assert_eq!(p.pre_mtps, 10.0);
        assert_eq!(p.during_mtps, 4.0 / 3.0);
        assert_eq!(p.post_mtps, 38.0 / 5.0);
        assert_eq!(p.recovery_secs, Some(1.0), "buckets 7..10 sustain");
    }

    #[test]
    fn canonical_keeps_report_order_and_drops_duplicates() {
        let picked = canonical(
            &SystemKind::ALL,
            &[SystemKind::Quorum, SystemKind::Fabric, SystemKind::Quorum],
        );
        assert_eq!(picked, [SystemKind::Fabric, SystemKind::Quorum]);
        assert!(canonical::<SystemKind, SystemKind>(&SystemKind::ALL, &[]).is_empty());
    }
}
