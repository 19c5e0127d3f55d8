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
//! (see [`super::harness`]), so `--systems` filters and any `--jobs`
//! worker count render byte-identical reports.

use super::harness::{canonical, record, run_cells, steady_payload, Cell, Span};
use super::overload::{reference_rate, tight_limits};
use super::ExperimentConfig;
use crate::chaos::ChaosRun;
use crate::json::Json;
use crate::params::{SystemKind, SystemSetup};
use crate::report::{self, Column, Report};
use crate::scenario::{ScenarioBuilder, Timeline};
use coconut_chains::{Stage, StageReport, SystemStats};
use coconut_types::SimTime;

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

/// One cell as a scenario over the load campaigns' [`Span`]: base load at
/// ¼ reference, then — after 2 s of pure base load, so every system has a
/// sub-saturation baseline first — a linear ramp to [`PEAK_MULTIPLIER`]×
/// base over the rest of the send window, tight admission pools, probes
/// armed.
fn cell_scenario(kind: SystemKind, span: Span) -> Timeline {
    ScenarioBuilder::new(
        steady_payload(kind),
        reference_rate(kind) * 0.25,
        span.windows,
    )
    .setup(SystemSetup::default().with_admission(tight_limits(kind)))
    .probes(true)
    .at(SimTime::from_secs(2))
    .ramp_load(PEAK_MULTIPLIER, span.send_end())
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

/// Runs the campaign over `systems` only (canonicalized to
/// [`SystemKind::ALL`] order). Cell seeds are content-addressed by system,
/// so a subset's cells are byte-identical to the same cells of the full
/// campaign, for any worker count.
pub fn bottleneck_for(cfg: &ExperimentConfig, systems: &[SystemKind]) -> BottleneckResult {
    let span = Span::load(cfg);
    let cells: Vec<Cell<()>> = canonical(&SystemKind::ALL, systems)
        .into_iter()
        .map(|system| {
            Cell::new(
                &["bottleneck", system.label()],
                system,
                cell_scenario(system, span),
                (),
            )
        })
        .collect();
    let cells = run_cells(cfg, &cells, |c, sr| {
        let base_rate = c.timeline.rate();
        let report = sr.stage_report.expect("bottleneck cells always arm probes");
        let (knee_mtps, knee_at) = knee(&sr.run);
        BottleneckCell {
            system: c.system,
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
    /// The probe's aggregates of stage `s`.
    fn stage_record(&self, s: Stage) -> Json {
        let snap = self.report.get(s);
        Json::obj([
            ("stage", s.label().into()),
            ("count", snap.count.into()),
            ("sum_secs", snap.sum_secs.into()),
            ("mean_secs", snap.mean_secs.into()),
            ("p50_secs", snap.p50_secs.into()),
            ("p95_secs", snap.p95_secs.into()),
            ("p99_secs", snap.p99_secs.into()),
            ("max_secs", snap.max_secs.into()),
            ("share", self.report.residence_share(s).into()),
            ("depth_mean", snap.depth_mean.into()),
            ("depth_max", snap.depth_max.into()),
            ("utilization_mean", snap.utilization_mean.into()),
            ("utilization_max", snap.utilization_max.into()),
            ("sheds", snap.sheds.into()),
        ])
    }

    fn record(&self) -> Json {
        let keys = "system base_rate offered_peak knee_mtps knee_at_secs verdict saturated \
            scheduled confirmed busy evicted stages";
        record(keys, &self.run, Some(&self.stats), |key| match key {
            "system" => Some(self.system.label().into()),
            "base_rate" => Some(self.base_rate.into()),
            "offered_peak" => Some(self.offered_peak.into()),
            "knee_mtps" => Some(self.knee_mtps.into()),
            "knee_at_secs" => Some(self.knee_at.as_secs_f64().into()),
            "verdict" => Some(self.verdict.label().into()),
            "saturated" => Some(self.verdict.saturated.iter().map(|s| s.label()).collect()),
            "stages" => Some(Stage::ALL.iter().map(|&s| self.stage_record(s)).collect()),
            _ => None,
        })
    }
}

/// The verdict table's columns.
const VERDICT_COLUMNS: [Column; 7] = [
    Column::text("system", 18, "system"),
    Column::num("base", 8, "base_rate", 0),
    Column::num("peak", 9, "offered_peak", 0),
    Column::num("knee", 9, "knee_mtps", 1),
    Column::num("knee@s", 8, "knee_at_secs", 0),
    Column::text("verdict", 13, "verdict"),
    Column::with("saturated", 9, |r| {
        let stages: Vec<&str> = r
            .list("saturated")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        if stages.is_empty() {
            "-".to_string()
        } else {
            stages.join(",")
        }
    })
    .left(),
];

/// The per-stage breakdown's columns, over a cell's `stages` records.
const STAGE_COLUMNS: [Column; 11] = [
    Column::text("stage", 13, "stage"),
    Column::num("count", 8, "count", 0),
    Column::with("share", 7, |r| format!("{:.1}%", 100.0 * r.num("share"))),
    Column::with("mean ms", 9, |r| format!("{:.2}", 1e3 * r.num("mean_secs"))),
    Column::with("p50 ms", 9, |r| format!("{:.2}", 1e3 * r.num("p50_secs"))),
    Column::with("p95 ms", 9, |r| format!("{:.2}", 1e3 * r.num("p95_secs"))),
    Column::with("p99 ms", 9, |r| format!("{:.2}", 1e3 * r.num("p99_secs"))),
    Column::num("depth", 7, "depth_mean", 1),
    Column::num("dmax", 7, "depth_max", 0),
    Column::num("util", 6, "utilization_mean", 2),
    Column::num("sheds", 7, "sheds", 0),
];

impl Report for BottleneckResult {
    fn record(&self) -> Json {
        let cells = self.cells.iter().map(BottleneckCell::record);
        Json::obj([("cells", cells.collect())])
    }

    /// Renders the verdict table followed by each system's per-stage
    /// breakdown. Deterministic: the same config yields byte-identical
    /// output.
    fn render(&self) -> String {
        let record = self.record();
        let cells = record.list("cells");
        let mut out = String::from(
            "Bottleneck attribution — ramp to saturation, per-stage residence and verdicts\n\n",
        );
        out.push_str(&report::columns(&VERDICT_COLUMNS, cells));
        for c in cells {
            out.push_str(&format!("\n== {}\n", c.text("system")));
            out.push_str(&report::columns(&STAGE_COLUMNS, c.list("stages")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_chains::StageProbe;
    use coconut_types::SimDuration;

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
