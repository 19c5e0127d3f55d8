//! Rendering benchmark results: the paper's table rows and heat maps.

use crate::json::Json;
use crate::runner::BenchmarkResult;
use crate::stats::Stats;

/// A renderable experiment report.
///
/// Every experiment-family result — the paper's [`Fig3Result`],
/// [`Fig5Result`] and [`TableResult`], and the campaigns' [`ChaosResult`],
/// [`SweepResult`], [`OverloadResult`], [`ChurnResult`],
/// [`ScenarioResult`], [`BottleneckResult`], [`ContentionResult`] and
/// [`GrayfailResult`] — emits a fixed-width text rendering and a
/// deterministic pretty-JSON form through this one interface, so the
/// `repro` binary dispatches output format uniformly instead of matching
/// per result type. Both forms are pure functions of the result: identical
/// configs and seeds serialize byte-identically. A campaign's text is a
/// view of its record: its tables are rendered by [`columns`] from the
/// cell records that `to_json` prints.
///
/// [`Fig3Result`]: crate::experiments::Fig3Result
/// [`Fig5Result`]: crate::experiments::Fig5Result
/// [`TableResult`]: crate::experiments::TableResult
/// [`ChaosResult`]: crate::experiments::ChaosResult
/// [`SweepResult`]: crate::experiments::SweepResult
/// [`OverloadResult`]: crate::experiments::OverloadResult
/// [`ChurnResult`]: crate::experiments::ChurnResult
/// [`ScenarioResult`]: crate::experiments::ScenarioResult
/// [`BottleneckResult`]: crate::experiments::BottleneckResult
/// [`ContentionResult`]: crate::experiments::ContentionResult
/// [`GrayfailResult`]: crate::experiments::GrayfailResult
pub trait Report {
    /// The result as one JSON record.
    fn record(&self) -> Json;

    /// Renders the result as fixed-width text in the paper's layout.
    fn render(&self) -> String;

    /// The record as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String {
        self.record().to_pretty()
    }

    /// The result as CSV, for reports whose rows are flat
    /// [`BenchmarkResult`]s; `None` where no flat-row form exists.
    fn to_csv(&self) -> Option<String> {
        None
    }
}

/// Renders results as a paper-style table with MTPS / MFLS statistics and
/// transaction counts (the layout of Tables 7–20).
///
/// # Example
///
/// ```
/// use coconut::client::Windows;
/// use coconut::prelude::*;
///
/// let spec = BenchmarkSpec::new(SystemKind::Fabric, PayloadKind::DoNothing)
///     .rate(100.0)
///     .block_param(BlockParam::MaxMessageCount(20))
///     .windows(Windows {
///         send: SimDuration::from_secs(2),
///         listen: SimDuration::from_millis(2_200),
///     })
///     .repetitions(1);
/// let result = run_benchmark(&spec, 1);
/// let rendered = table(&[result]);
/// assert!(rendered.contains("MTPS"));
/// assert!(rendered.contains("Fabric"));
/// ```
pub fn table(results: &[BenchmarkResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "| System | Benchmark | RL | Param | Ops | MTPS | SD | SEM | 95% CI | MFLS | SD | SEM | 95% CI | D | Received | Expected |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in results {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | ±{:.2} | {:.2} | {:.2} | {:.2} | ±{:.2} | {:.2} | {:.2} | {:.0} |\n",
            r.system,
            r.benchmark,
            r.rate,
            r.block_param,
            r.ops_per_tx,
            r.mtps.mean,
            r.mtps.sd,
            r.mtps.sem,
            r.mtps.ci95,
            r.mfls.mean,
            r.mfls.sd,
            r.mfls.sem,
            r.mfls.ci95,
            r.duration.mean,
            r.received.mean,
            r.expected,
        ));
    }
    out
}

/// Renders the Figure 3 / Figure 4 heat map: the best-MTPS cell per
/// (benchmark, system) with the corresponding MFLS and Duration.
///
/// `grid[b][s]` must hold the best result of benchmark `b` on system `s`
/// (or `None` if the cell failed completely); `benchmarks` and `systems`
/// are the axis labels.
pub fn heatmap(
    benchmarks: &[&str],
    systems: &[&str],
    grid: &[Vec<Option<BenchmarkResult>>],
) -> String {
    assert_eq!(grid.len(), benchmarks.len(), "one row per benchmark");
    let width = 26;
    let mut out = String::new();
    out.push_str(&format!("{:24}", ""));
    for s in systems {
        out.push_str(&format!("{s:^width$}"));
    }
    out.push('\n');
    for (bi, b) in benchmarks.iter().enumerate() {
        assert_eq!(grid[bi].len(), systems.len(), "one column per system");
        let mut lines = [
            format!("{b:<24}"),
            format!("{:24}", ""),
            format!("{:24}", ""),
        ];
        for cell in &grid[bi] {
            match cell {
                Some(r) => {
                    lines[0].push_str(&format!("{:^width$}", format!("MTPS={:.2}", r.mtps.mean)));
                    lines[1].push_str(&format!("{:^width$}", format!("MFLS={:.2}s", r.mfls.mean)));
                    lines[2].push_str(&format!(
                        "{:^width$}",
                        format!("D={:.2}s ({})", r.duration.mean, r.block_param)
                    ));
                }
                None => {
                    lines[0].push_str(&format!("{:^width$}", "MTPS=0.00"));
                    lines[1].push_str(&format!("{:^width$}", "MFLS=0.00s"));
                    lines[2].push_str(&format!("{:^width$}", "D=0.00s"));
                }
            }
        }
        out.push_str(&lines.join("\n"));
        out.push_str("\n\n");
    }
    out
}

/// What a [`Column`] prints of one record.
#[derive(Debug, Clone, Copy)]
enum Show {
    /// The string under the key.
    Text(&'static str),
    /// The number under the key, with this many decimals.
    Num(&'static str, usize),
    /// What the function makes of the whole record.
    With(fn(&Json) -> String),
}

/// One column of a [`columns`] table: a header, a width and an alignment,
/// and what to print of each record.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    header: &'static str,
    width: usize,
    left: bool,
    show: Show,
}

impl Column {
    const fn new(header: &'static str, width: usize, left: bool, show: Show) -> Column {
        Column {
            header,
            width,
            left,
            show,
        }
    }

    /// A left-aligned column of the string under `key`.
    pub const fn text(header: &'static str, width: usize, key: &'static str) -> Column {
        Column::new(header, width, true, Show::Text(key))
    }

    /// A right-aligned column of the number under `key`, to `dp` places.
    pub const fn num(header: &'static str, width: usize, key: &'static str, dp: usize) -> Column {
        Column::new(header, width, false, Show::Num(key, dp))
    }

    /// A right-aligned column of what `show` makes of the record.
    pub const fn with(header: &'static str, width: usize, show: fn(&Json) -> String) -> Column {
        Column::new(header, width, false, Show::With(show))
    }

    /// The same column, left-aligned.
    pub const fn left(self) -> Column {
        Column { left: true, ..self }
    }

    /// The column's width, or its header's if that is wider.
    fn width(&self) -> usize {
        self.width.max(self.header.chars().count())
    }

    /// The header, or `record`'s cell, padded to the column's width.
    fn cell(&self, record: Option<&Json>) -> String {
        let text = match (record, self.show) {
            (None, _) => self.header.to_string(),
            (Some(r), Show::Text(key)) => r.text(key).to_string(),
            (Some(r), Show::Num(key, dp)) => format!("{:.dp$}", r.num(key)),
            (Some(r), Show::With(show)) => show(r),
        };
        let w = self.width();
        if self.left {
            format!("{text:<w$}")
        } else {
            format!("{text:>w$}")
        }
    }
}

/// Renders `records` as a fixed-width text table: a header line, a rule
/// as wide as the columns, and one line per record. Columns are separated
/// by one space, and no line ends in whitespace.
///
/// # Panics
///
/// Panics, naming the key, if a column reads a field a record lacks.
pub fn columns<'a>(cols: &[Column], records: impl IntoIterator<Item = &'a Json>) -> String {
    let line = |record: Option<&Json>| {
        let cells: Vec<String> = cols.iter().map(|c| c.cell(record)).collect();
        cells.join(" ").trim_end().to_string() + "\n"
    };
    let width: usize = cols.iter().map(|c| c.width() + 1).sum();
    let rule = "-".repeat(width.saturating_sub(1)) + "\n";
    let rows = records.into_iter().map(|r| line(Some(r)));
    [line(None), rule].into_iter().chain(rows).collect()
}

/// Renders a log-scale series table for Figure 5 (MTPS vs node count).
pub fn scalability_table(systems: &[&str], node_counts: &[u32], grid: &[Vec<f64>]) -> String {
    assert_eq!(grid.len(), systems.len(), "one row per system");
    let mut out = String::new();
    out.push_str("| System |");
    for n in node_counts {
        out.push_str(&format!(" {n} nodes |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in node_counts {
        out.push_str("---|");
    }
    out.push('\n');
    for (si, s) in systems.iter().enumerate() {
        assert_eq!(grid[si].len(), node_counts.len());
        out.push_str(&format!("| {s} |"));
        for v in &grid[si] {
            if *v == 0.0 {
                out.push_str(" fail |");
            } else {
                out.push_str(&format!(" {v:.2} |"));
            }
        }
        out.push('\n');
    }
    out
}

/// Renders results as CSV (header + one row per result), the format most
/// plotting pipelines ingest directly.
pub fn to_csv(results: &[BenchmarkResult]) -> String {
    let mut out = String::from(
        "system,benchmark,rate,block_param,ops_per_tx,mtps_mean,mtps_sd,mtps_sem,mtps_ci95,\
         mfls_mean,mfls_sd,p50,p95,p99,duration_mean,received_mean,expected,live\n",
    );
    for r in results {
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.2},{:.0},{}\n",
            r.system,
            r.benchmark,
            r.rate,
            r.block_param,
            r.ops_per_tx,
            r.mtps.mean,
            r.mtps.sd,
            r.mtps.sem,
            r.mtps.ci95,
            r.mfls.mean,
            r.mfls.sd,
            r.p50.mean,
            r.p95.mean,
            r.p99.mean,
            r.duration.mean,
            r.received.mean,
            r.expected,
            r.live,
        ));
    }
    out
}

fn stats_to_json(s: &Stats) -> Json {
    Json::obj([
        ("mean", s.mean.into()),
        ("sd", s.sd.into()),
        ("sem", s.sem.into()),
        ("ci95", s.ci95.into()),
        ("n", (s.n as u64).into()),
    ])
}

/// Results as a JSON array, one record per result (the paper persists all
/// collected evaluation data; we use a file per experiment).
pub fn records(results: &[BenchmarkResult]) -> Json {
    let record = |r: &BenchmarkResult| {
        Json::obj([
            ("system", r.system.as_str().into()),
            ("benchmark", r.benchmark.as_str().into()),
            ("rate", r.rate.into()),
            ("block_param", r.block_param.as_str().into()),
            ("ops_per_tx", u64::from(r.ops_per_tx).into()),
            ("mtps", stats_to_json(&r.mtps)),
            ("mfls", stats_to_json(&r.mfls)),
            ("p50", stats_to_json(&r.p50)),
            ("p95", stats_to_json(&r.p95)),
            ("p99", stats_to_json(&r.p99)),
            ("duration", stats_to_json(&r.duration)),
            ("received", stats_to_json(&r.received)),
            ("expected", r.expected.into()),
            ("live", r.live.into()),
        ])
    };
    results.iter().map(record).collect()
}

/// Renders results as pretty JSON: [`records`], printed. The output is
/// stable: identical results serialize byte-identically.
pub fn to_json(results: &[BenchmarkResult]) -> String {
    records(results).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;

    fn dummy(system: &str, benchmark: &str, mtps: f64) -> BenchmarkResult {
        BenchmarkResult {
            system: system.into(),
            benchmark: benchmark.into(),
            rate: 200.0,
            block_param: "MM=100".into(),
            ops_per_tx: 1,
            mtps: Stats::from_samples(&[mtps]),
            mfls: Stats::from_samples(&[1.5]),
            p50: Stats::from_samples(&[1.2]),
            p95: Stats::from_samples(&[3.0]),
            p99: Stats::from_samples(&[4.5]),
            duration: Stats::from_samples(&[30.0]),
            received: Stats::from_samples(&[6000.0]),
            expected: 6000.0,
            live: true,
        }
    }

    #[test]
    fn table_contains_all_columns() {
        let t = table(&[dummy("Fabric", "DoNothing", 800.0)]);
        for needle in [
            "MTPS",
            "MFLS",
            "95% CI",
            "Fabric",
            "DoNothing",
            "800.00",
            "MM=100",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn heatmap_renders_cells_and_failures() {
        let grid = vec![vec![Some(dummy("Fabric", "DoNothing", 1400.0)), None]];
        let h = heatmap(&["DoNothing"], &["Fabric", "Quorum"], &grid);
        assert!(h.contains("MTPS=1400.00"));
        assert!(h.contains("MTPS=0.00"), "failed cells show zeroes");
        assert!(h.contains("DoNothing"));
    }

    #[test]
    fn scalability_marks_failures() {
        let t = scalability_table(&["Fabric"], &[8, 16, 32], &[vec![700.0, 0.0, 0.0]]);
        assert!(t.contains("700.00"));
        assert!(t.contains("fail"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&[
            dummy("Fabric", "DoNothing", 800.0),
            dummy("Diem", "Balance", 64.0),
        ]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("system,benchmark,rate"));
        assert!(lines[1].starts_with("Fabric,DoNothing,200,MM=100,1,800.0000"));
        assert!(lines[2].contains("Diem,Balance"));
        assert!(lines[1].ends_with(",true"));
    }

    #[test]
    fn json_round_trip() {
        let json = to_json(&[dummy("Diem", "Balance", 64.0)]);
        let parsed = crate::json::parse(&json).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("system").and_then(Json::as_str), Some("Diem"));
        let mtps = rows[0].get("mtps").unwrap();
        assert_eq!(mtps.get("mean").and_then(Json::as_f64), Some(64.0));
    }

    /// Two columns of each alignment; `verified` is wider than its width.
    const COLS: [Column; 4] = [
        Column::text("system", 8, "system"),
        Column::num("rate", 7, "rate", 1),
        Column::with("ok", 5, |r| r.flag("ok").to_string()),
        Column::text("verified", 3, "verified"),
    ];

    fn row(system: &str, rate: f64, ok: bool) -> Json {
        Json::obj([
            ("system", system.into()),
            ("rate", rate.into()),
            ("ok", ok.into()),
            ("verified", "-".into()),
        ])
    }

    #[test]
    fn columns_align_cells_and_derive_the_rule_from_the_widths() {
        let t = columns(
            &COLS,
            &[row("Diem", 12.34, true), row("Quorum", 1600.0, false)],
        );
        let want = "\
system      rate    ok verified
-------------------------------
Diem        12.3  true -
Quorum    1600.0 false -
";
        assert_eq!(t, want);
        // The rule spans every column: widths 8 + 7 + 5 + 8 (the header
        // widens `verified`), plus one space between each pair.
        assert_eq!(t.lines().nth(1).unwrap().len(), 8 + 7 + 5 + 8 + 3);
        assert_eq!(
            columns(&COLS, &[]),
            want.lines().take(2).collect::<Vec<_>>().join("\n") + "\n"
        );
    }

    #[test]
    #[should_panic(expected = "record has no field \"rate\"")]
    fn columns_name_the_key_a_record_lacks() {
        let partial = Json::obj([("system", "Diem".into())]);
        let _ = columns(&COLS, [&partial]);
    }

    #[test]
    #[should_panic(expected = "one row per benchmark")]
    fn heatmap_validates_shape() {
        let _ = heatmap(&["A", "B"], &["S"], &[vec![None]]);
    }
}
