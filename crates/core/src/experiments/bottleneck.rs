//! Per-stage bottleneck attribution: *why* each system tops out.
//!
//! The overload campaign ([`super::overload()`]) shows *that* every system's
//! goodput collapses past a saturation knee; this campaign explains *which
//! pipeline stage* is responsible. Each system runs one ramp-to-saturation
//! cell — base load at ¼ of its reference rate, ramping linearly to
//! [`PEAK_MULTIPLIER`] × base by the end of the send window, under the
//! same tight admission pools as the overload campaign — with the
//! [`StageProbe`](coconut_chains::StageProbe) pipeline instrumentation
//! armed. The probe timestamps every transaction across six stages
//! (ingress → mempool wait → consensus → execution → commit → notify) on
//! the deterministic clock, with constant-memory accumulators, so the
//! campaign's cost is one extra pass over timestamps the models already
//! compute.
//!
//! [`attribute`] then turns the per-stage aggregates into a machine-checked
//! verdict:
//!
//! 1. A stage is **saturated** when its mean sampled utilization is at
//!    least [`UTIL_SATURATED`] or it shed at least [`SHED_SATURATED`] of
//!    all submissions (bounded-queue rejections, evictions, drops).
//! 2. If any stage is saturated, the verdict is the saturated stage with
//!    the largest share of total residence time (ties resolve to the
//!    earlier pipeline stage).
//! 3. Otherwise a stage must *dominate* — at least [`DOMINANT_SHARE`] of
//!    total residence and [`SHARE_MARGIN`] clear of the runner-up — or the
//!    verdict is `distributed` (no single stage to blame).
//!
//! The verdicts reproduce the paper's per-system explanations: the Cordas
//! top out in commit (notary signing and finality distribution, §5.8),
//! Sawtooth in its bounded queue (mempool backpressure, §5.6), Quorum in
//! ordering (the block-period stall, §5.5).
//!
//! Every cell's seed is content-addressed by `["bottleneck", system]`
//! (see [`crate::exec`]), so `--systems` filters and any
//! `--jobs` worker count render byte-identical reports.

use super::overload::{payload, reference_rate, tight_limits};
use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::client::Windows;
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::Report;
use crate::scenario::{ScenarioBuilder, Timeline};
use coconut_chains::{Stage, StageReport, SystemStats};
use coconut_types::{SeedDeriver, SimDuration, SimTime};

/// Offered load at the end of the ramp, relative to the cell's base rate
/// (¼ of the system's reference rate): 8× the reference rate, past every
/// system's saturation knee.
pub const PEAK_MULTIPLIER: f64 = 32.0;

/// A stage whose mean sampled utilization reaches this is saturated.
pub const UTIL_SATURATED: f64 = 0.5;

/// A stage that sheds this fraction of all submissions is saturated.
pub const SHED_SATURATED: f64 = 0.10;

/// Without saturation, a verdict stage must hold at least this share of
/// total residence time…
pub const DOMINANT_SHARE: f64 = 0.5;

/// …and be at least this far ahead of the runner-up.
pub const SHARE_MARGIN: f64 = 0.1;

/// The attribution verdict of one system's cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BottleneckVerdict {
    /// The bottleneck stage, or `None` for `distributed`.
    pub stage: Option<Stage>,
    /// Every saturated stage, in [`Stage::ALL`] order.
    pub saturated: Vec<Stage>,
}

impl BottleneckVerdict {
    /// The verdict's stable label (`"distributed"` when no single stage
    /// is to blame).
    pub fn label(&self) -> &'static str {
        self.stage.map_or("distributed", |s| s.label())
    }
}

/// Applies the verdict rule to a finished cell's [`StageReport`] (see the
/// module docs for the rule). Pure and deterministic: a function of the
/// report alone, so tests can machine-check verdicts against hand-built
/// reports.
pub fn attribute(report: &StageReport) -> BottleneckVerdict {
    let submissions = report.get(Stage::Ingress).count.max(1) as f64;
    let saturated: Vec<Stage> = Stage::ALL
        .into_iter()
        .filter(|&s| {
            let snap = report.get(s);
            snap.utilization_mean >= UTIL_SATURATED
                || snap.sheds as f64 / submissions >= SHED_SATURATED
        })
        .collect();
    if !saturated.is_empty() {
        // The saturated stage holding the most residence time; ties go to
        // the earlier pipeline stage (Stage::ALL order, via max_by on a
        // strictly-greater comparison).
        let mut best = saturated[0];
        for &s in &saturated[1..] {
            if report.residence_share(s) > report.residence_share(best) {
                best = s;
            }
        }
        return BottleneckVerdict {
            stage: Some(best),
            saturated,
        };
    }
    let mut shares: Vec<(Stage, f64)> = Stage::ALL
        .into_iter()
        .map(|s| (s, report.residence_share(s)))
        .collect();
    // Stable sort: equal shares keep pipeline order, so the earlier stage
    // wins exact ties.
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let (top, top_share) = shares[0];
    let runner_up = shares[1].1;
    let stage = if top_share >= DOMINANT_SHARE && top_share - runner_up >= SHARE_MARGIN {
        Some(top)
    } else {
        None
    };
    BottleneckVerdict {
        stage,
        saturated: Vec::new(),
    }
}

/// One system's ramp-to-saturation cell.
#[derive(Debug, Clone)]
pub struct BottleneckCell {
    /// System under test.
    pub system: SystemKind,
    /// The ramp's base offered load (tx/s).
    pub base_rate: f64,
    /// Offered load at the ramp's end (tx/s).
    pub offered_peak: f64,
    /// Peak bucket goodput (ops/s): the cell's saturation knee.
    pub knee_mtps: f64,
    /// When the peak bucket started.
    pub knee_at: SimTime,
    /// The machine-checked verdict.
    pub verdict: BottleneckVerdict,
    /// Per-stage aggregates from the probe.
    pub report: StageReport,
    /// System-side counters at the end of the run.
    pub stats: SystemStats,
    /// The full client-side run.
    pub run: ChaosRun,
}

/// The outcome of the bottleneck campaign: one cell per system, in the
/// requested order.
#[derive(Debug, Clone)]
pub struct BottleneckResult {
    /// Cells, one per system.
    pub cells: Vec<BottleneckCell>,
}

impl BottleneckResult {
    /// The cell of `system`, if run.
    pub fn cell(&self, system: SystemKind) -> Option<&BottleneckCell> {
        self.cells.iter().find(|c| c.system == system)
    }
}

/// Virtual-time anchors: the overload campaign's shortened windows (at
/// least 10 s of sending, listen = send + 8 s), with the ramp opening at
/// [`ramp_start`] so every system has a sub-saturation baseline first.
fn windows(cfg: &ExperimentConfig) -> Windows {
    let send_secs = ((100.0 * cfg.scale).round() as u64).max(10);
    Windows {
        send: SimDuration::from_secs(send_secs),
        listen: SimDuration::from_secs(send_secs + 8),
    }
}

/// When the ramp starts (the first 2 s are pure base load).
fn ramp_start() -> SimTime {
    SimTime::from_secs(2)
}

/// One cell as a scenario: base load at ¼ reference, a linear ramp to
/// [`PEAK_MULTIPLIER`]× base over the rest of the send window, tight
/// admission pools, probes armed.
fn cell_scenario(kind: SystemKind, windows: Windows) -> Timeline {
    let send_end = SimTime::ZERO + windows.send;
    ScenarioBuilder::new(payload(kind), reference_rate(kind) * 0.25, windows)
        .setup(SystemSetup::default().with_admission(tight_limits(kind)))
        .probes(true)
        .at(ramp_start())
        .ramp_load(PEAK_MULTIPLIER, send_end)
        .build()
}

/// The saturation knee of a finished run: the bucket where goodput peaked
/// (ties resolve to the earliest bucket) as `(ops/s, bucket start)`.
fn knee(run: &ChaosRun) -> (f64, SimTime) {
    let mut best = 0u64;
    let mut at = 0usize;
    for (i, &b) in run.buckets.iter().enumerate() {
        if b > best {
            best = b;
            at = i;
        }
    }
    let mtps = best as f64 / run.bucket_len.as_secs_f64();
    (mtps, SimTime::ZERO + run.bucket_len * at as u64)
}

/// Runs the bottleneck campaign over all seven systems.
pub fn bottleneck(cfg: &ExperimentConfig) -> BottleneckResult {
    bottleneck_for(cfg, &SystemKind::ALL)
}

/// Runs the campaign over `systems` only. Cell seeds are content-addressed
/// by system, so a subset's cells are byte-identical to the same cells of
/// the full campaign, for any worker count.
pub fn bottleneck_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> BottleneckResult {
    let windows = windows(cfg);
    let items: Vec<SystemKind> = systems.to_vec();
    let cells = crate::exec::run_grid(&items, cfg.jobs, |_, &system| {
        let seed = SeedDeriver::new(cfg.seed).seed_parts(&["bottleneck", system.label()]);
        let base_rate = reference_rate(system) * 0.25;
        let sr = cell_scenario(system, windows).run(system, seed);
        let report = sr.stage_report.expect("bottleneck cells always arm probes");
        let (knee_mtps, knee_at) = knee(&sr.run);
        BottleneckCell {
            system,
            base_rate,
            offered_peak: base_rate * PEAK_MULTIPLIER,
            knee_mtps,
            knee_at,
            verdict: attribute(&report),
            report,
            stats: sr.stats,
            run: sr.run,
        }
    });
    BottleneckResult { cells }
}

impl BottleneckCell {
    fn to_json(&self) -> Json {
        let a = &self.run.accounting;
        let stages = Stage::ALL
            .into_iter()
            .map(|s| {
                let snap = self.report.get(s);
                Json::Obj(vec![
                    ("stage".into(), Json::Str(s.label().into())),
                    ("count".into(), Json::Num(snap.count as f64)),
                    ("sum_secs".into(), Json::Num(snap.sum_secs)),
                    ("mean_secs".into(), Json::Num(snap.mean_secs)),
                    ("p50_secs".into(), Json::Num(snap.p50_secs)),
                    ("p95_secs".into(), Json::Num(snap.p95_secs)),
                    ("p99_secs".into(), Json::Num(snap.p99_secs)),
                    ("max_secs".into(), Json::Num(snap.max_secs)),
                    ("share".into(), Json::Num(self.report.residence_share(s))),
                    ("depth_mean".into(), Json::Num(snap.depth_mean)),
                    ("depth_max".into(), Json::Num(snap.depth_max as f64)),
                    ("utilization_mean".into(), Json::Num(snap.utilization_mean)),
                    ("utilization_max".into(), Json::Num(snap.utilization_max)),
                    ("sheds".into(), Json::Num(snap.sheds as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("system".into(), Json::Str(self.system.label().into())),
            ("base_rate".into(), Json::Num(self.base_rate)),
            ("offered_peak".into(), Json::Num(self.offered_peak)),
            ("knee_mtps".into(), Json::Num(self.knee_mtps)),
            ("knee_at_secs".into(), Json::Num(self.knee_at.as_secs_f64())),
            ("verdict".into(), Json::Str(self.verdict.label().into())),
            (
                "saturated".into(),
                Json::Arr(
                    self.verdict
                        .saturated
                        .iter()
                        .map(|s| Json::Str(s.label().into()))
                        .collect(),
                ),
            ),
            ("scheduled".into(), Json::Num(a.scheduled as f64)),
            ("confirmed".into(), Json::Num(a.confirmed as f64)),
            ("busy".into(), Json::Num(self.stats.busy as f64)),
            ("evicted".into(), Json::Num(self.stats.evicted as f64)),
            ("stages".into(), Json::Arr(stages)),
        ])
    }
}

impl Report for BottleneckResult {
    /// Renders the verdict table followed by each system's per-stage
    /// breakdown. Deterministic: the same config yields byte-identical
    /// output.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Bottleneck attribution — ramp to saturation, per-stage residence and verdicts\n\n",
        );
        out.push_str(&format!(
            "{:<18} {:>8} {:>9} {:>9} {:>8} {:<13} {}\n",
            "system", "base", "peak", "knee", "knee@s", "verdict", "saturated"
        ));
        out.push_str(&"-".repeat(92));
        out.push('\n');
        for c in &self.cells {
            let saturated = if c.verdict.saturated.is_empty() {
                "-".to_string()
            } else {
                c.verdict
                    .saturated
                    .iter()
                    .map(|s| s.label())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "{:<18} {:>8.0} {:>9.0} {:>9.1} {:>8.0} {:<13} {}\n",
                c.system.label(),
                c.base_rate,
                c.offered_peak,
                c.knee_mtps,
                c.knee_at.as_secs_f64(),
                c.verdict.label(),
                saturated,
            ));
        }
        out.push('\n');
        for c in &self.cells {
            out.push_str(&format!("== {}\n", c.system.label()));
            out.push_str(&format!(
                "{:<13} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6} {:>7}\n",
                "stage",
                "count",
                "share",
                "mean ms",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "depth",
                "dmax",
                "util",
                "sheds",
            ));
            for s in Stage::ALL {
                let snap = c.report.get(s);
                out.push_str(&format!(
                    "{:<13} {:>8} {:>6.1}% {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.1} {:>7} {:>6.2} {:>7}\n",
                    s.label(),
                    snap.count,
                    100.0 * c.report.residence_share(s),
                    1e3 * snap.mean_secs,
                    1e3 * snap.p50_secs,
                    1e3 * snap.p95_secs,
                    1e3 * snap.p99_secs,
                    snap.depth_mean,
                    snap.depth_max,
                    snap.utilization_mean,
                    snap.sheds,
                ));
            }
            out.push('\n');
        }
        out
    }

    /// The campaign as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        Json::Obj(vec![(
            "cells".into(),
            Json::Arr(self.cells.iter().map(BottleneckCell::to_json).collect()),
        )])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_chains::StageProbe;

    /// A report hand-built from raw spans: `spans[i]` = (stage, enter µs,
    /// exit µs), plus optional utilization samples and sheds.
    fn report(
        spans: &[(Stage, u64, u64)],
        utils: &[(Stage, f64)],
        sheds: &[(Stage, u64)],
    ) -> StageReport {
        let mut p = StageProbe::new();
        p.enable();
        for (i, &(stage, enter, exit)) in spans.iter().enumerate() {
            p.span(
                stage,
                coconut_types::TxId::new(coconut_types::ClientId(0), i as u64),
                SimTime::from_micros(enter),
                SimTime::from_micros(exit),
            );
        }
        for &(stage, u) in utils {
            p.utilization(stage, u);
        }
        for &(stage, n) in sheds {
            p.shed(stage, n);
        }
        p.report()
    }

    #[test]
    fn saturated_stage_wins_even_without_residence_majority() {
        // Commit saturates (high mean utilization) but Consensus holds more
        // residence: the verdict is still Commit — saturation gates.
        let r = report(
            &[
                (Stage::Ingress, 0, 0),
                (Stage::Consensus, 0, 3_000_000),
                (Stage::Commit, 3_000_000, 4_000_000),
            ],
            &[(Stage::Commit, 0.9), (Stage::Commit, 0.8)],
            &[],
        );
        let v = attribute(&r);
        assert_eq!(v.stage, Some(Stage::Commit));
        assert_eq!(v.saturated, vec![Stage::Commit]);
        assert_eq!(v.label(), "commit");
    }

    #[test]
    fn shed_fraction_saturates_a_queue() {
        // 10 submissions, 3 shed at mempool-wait: the bounded queue is the
        // bottleneck even though execution holds the residence time.
        let mut spans = vec![(Stage::Execution, 0, 5_000_000)];
        for i in 0..10u64 {
            spans.push((Stage::Ingress, i, i));
        }
        let r = report(&spans, &[], &[(Stage::MempoolWait, 3)]);
        let v = attribute(&r);
        assert_eq!(v.stage, Some(Stage::MempoolWait));
    }

    #[test]
    fn dominant_residence_without_saturation_names_the_stage() {
        let r = report(
            &[
                (Stage::Ingress, 0, 0),
                (Stage::Consensus, 0, 8_000_000),
                (Stage::Execution, 8_000_000, 9_000_000),
                (Stage::Notify, 9_000_000, 10_000_000),
            ],
            &[],
            &[],
        );
        let v = attribute(&r);
        assert_eq!(v.stage, Some(Stage::Consensus));
        assert!(v.saturated.is_empty());
    }

    #[test]
    fn near_ties_are_distributed() {
        let r = report(
            &[
                (Stage::Consensus, 0, 4_000_000),
                (Stage::Commit, 4_000_000, 8_000_000),
                (Stage::Execution, 8_000_000, 10_000_000),
            ],
            &[],
            &[],
        );
        let v = attribute(&r);
        assert_eq!(v.stage, None);
        assert_eq!(v.label(), "distributed");
    }

    #[test]
    fn saturation_ties_resolve_to_residence_then_pipeline_order() {
        // Two saturated stages with equal residence: the earlier pipeline
        // stage wins.
        let r = report(
            &[
                (Stage::Consensus, 0, 1_000_000),
                (Stage::Commit, 1_000_000, 2_000_000),
            ],
            &[(Stage::Consensus, 0.9), (Stage::Commit, 0.9)],
            &[],
        );
        assert_eq!(attribute(&r).stage, Some(Stage::Consensus));
    }

    #[test]
    fn empty_report_is_distributed() {
        let v = attribute(&report(&[], &[], &[]));
        assert_eq!(v.stage, None);
        assert!(v.saturated.is_empty());
    }

    #[test]
    fn knee_picks_earliest_peak_bucket() {
        let run = ChaosRun {
            buckets: vec![5, 40, 40, 10],
            bucket_len: SimDuration::from_secs(1),
            live: true,
            ..ChaosRun::default()
        };
        let (mtps, at) = knee(&run);
        assert_eq!(mtps, 40.0);
        assert_eq!(at, SimTime::from_secs(1));
    }
}
