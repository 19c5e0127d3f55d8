//! Rendering benchmark results: the paper's table rows and heat maps.

use crate::json::Json;
use crate::runner::BenchmarkResult;
use crate::stats::Stats;

/// A renderable experiment report.
///
/// Every experiment-family result — [`Fig3Result`], [`Fig5Result`],
/// [`TableResult`], [`ChaosResult`], [`SweepResult`] — emits a fixed-width
/// text rendering and a deterministic pretty-JSON form through this one
/// interface, so the `repro` binary dispatches output format uniformly
/// instead of matching per result type. Both forms are pure functions of
/// the result: identical configs and seeds serialize byte-identically.
///
/// [`Fig3Result`]: crate::experiments::Fig3Result
/// [`Fig5Result`]: crate::experiments::Fig5Result
/// [`TableResult`]: crate::experiments::TableResult
/// [`ChaosResult`]: crate::experiments::ChaosResult
/// [`SweepResult`]: crate::experiments::SweepResult
pub trait Report {
    /// Renders the result as fixed-width text in the paper's layout.
    fn render(&self) -> String;

    /// The result as pretty-printed JSON (same determinism guarantee).
    fn to_json(&self) -> String;

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

/// Renders a generic aligned-text heat map: one row per `rows` label, one
/// column per `cols` label, with `cells[r][c]` holding the stacked text
/// lines of that cell (an empty cell renders blank). The column width fits
/// the longest line; output is a pure function of the inputs.
///
/// This is the renderer behind the chaos sweep's system × fault-kind grid;
/// [`heatmap`] stays the [`BenchmarkResult`]-specific Figure 3/4 layout.
///
/// # Panics
///
/// Panics unless `cells` is exactly `rows.len()` × `cols.len()`.
pub fn grid_heatmap(rows: &[&str], cols: &[&str], cells: &[Vec<Vec<String>>]) -> String {
    assert_eq!(cells.len(), rows.len(), "one cell row per row label");
    let label_w = rows.iter().map(|r| r.len()).max().unwrap_or(0).max(1) + 2;
    let cell_w = cols
        .iter()
        .map(|c| c.len())
        .chain(
            cells
                .iter()
                .flat_map(|row| row.iter().flat_map(|cell| cell.iter().map(String::len))),
        )
        .max()
        .unwrap_or(0)
        .max(4)
        + 4;
    let mut out = String::new();
    out.push_str(&format!("{:label_w$}", ""));
    for c in cols {
        out.push_str(&format!("{c:^cell_w$}"));
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
    for (ri, r) in rows.iter().enumerate() {
        assert_eq!(cells[ri].len(), cols.len(), "one cell per column label");
        let depth = cells[ri].iter().map(Vec::len).max().unwrap_or(0).max(1);
        for line in 0..depth {
            if line == 0 {
                out.push_str(&format!("{r:<label_w$}"));
            } else {
                out.push_str(&format!("{:label_w$}", ""));
            }
            for cell in &cells[ri] {
                let text = cell.get(line).map_or("", String::as_str);
                out.push_str(&format!("{text:^cell_w$}"));
            }
            // Centering pads both sides; strip the trailing run so the
            // output has no invisible end-of-line whitespace.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
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
    Json::Obj(vec![
        ("mean".into(), Json::Num(s.mean)),
        ("sd".into(), Json::Num(s.sd)),
        ("sem".into(), Json::Num(s.sem)),
        ("ci95".into(), Json::Num(s.ci95)),
        ("n".into(), Json::Num(s.n as f64)),
    ])
}

/// Renders results as pretty JSON (the paper persists all collected
/// evaluation data; we use a file per experiment). The output is stable:
/// identical results serialize byte-identically.
pub fn to_json(results: &[BenchmarkResult]) -> String {
    let items = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("system".into(), Json::Str(r.system.clone())),
                ("benchmark".into(), Json::Str(r.benchmark.clone())),
                ("rate".into(), Json::Num(r.rate)),
                ("block_param".into(), Json::Str(r.block_param.clone())),
                ("ops_per_tx".into(), Json::Num(r.ops_per_tx as f64)),
                ("mtps".into(), stats_to_json(&r.mtps)),
                ("mfls".into(), stats_to_json(&r.mfls)),
                ("p50".into(), stats_to_json(&r.p50)),
                ("p95".into(), stats_to_json(&r.p95)),
                ("p99".into(), stats_to_json(&r.p99)),
                ("duration".into(), stats_to_json(&r.duration)),
                ("received".into(), stats_to_json(&r.received)),
                ("expected".into(), Json::Num(r.expected)),
                ("live".into(), Json::Bool(r.live)),
            ])
        })
        .collect();
    Json::Arr(items).to_pretty()
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
    fn grid_heatmap_aligns_and_handles_empty_cells() {
        let cells = vec![
            vec![
                vec!["rec=0.0 s".to_string(), "deliv=1.000".to_string()],
                vec![],
            ],
            vec![vec!["n/a".to_string()], vec!["rec=2.0 s".to_string()]],
        ];
        let h = grid_heatmap(&["Fabric", "Quorum"], &["crash", "loss"], &cells);
        assert!(h.contains("crash"));
        assert!(h.contains("rec=0.0 s"));
        assert!(h.contains("n/a"));
        // No line carries trailing whitespace (byte-stable rendering).
        assert!(h.lines().all(|l| l == l.trim_end()), "{h:?}");
        // Deterministic.
        assert_eq!(
            h,
            grid_heatmap(&["Fabric", "Quorum"], &["crash", "loss"], &cells)
        );
    }

    #[test]
    #[should_panic(expected = "one cell row per row label")]
    fn grid_heatmap_validates_shape() {
        let _ = grid_heatmap(&["A", "B"], &["C"], &[vec![vec![]]]);
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

    #[test]
    #[should_panic(expected = "one row per benchmark")]
    fn heatmap_validates_shape() {
        let _ = heatmap(&["A", "B"], &["S"], &[vec![None]]);
    }
}
