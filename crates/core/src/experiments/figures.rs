//! Figures 3, 4 and 5: the best-configuration heat maps and the
//! scalability study.

use std::collections::HashMap;

use coconut_simnet::NetConfig;
use coconut_types::PayloadKind;

use crate::json::Json;
use crate::params::{BlockParam, SystemKind, SystemSetup};
use crate::report::{self, Report};
use crate::runner::{run_unit, BenchmarkResult, BenchmarkSpec};
use crate::workload::BenchmarkUnit;

use super::ExperimentConfig;

/// The outcome of a Figure 3 / Figure 4 style sweep: for every
/// (benchmark, system) cell the best-MTPS configuration and its result.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// `grid[benchmark][system]`, axes per [`PayloadKind::ALL`] and
    /// [`SystemKind::ALL`].
    pub grid: Vec<Vec<Option<BenchmarkResult>>>,
    /// The configuration behind each best cell (rate, block param, ops).
    pub best_config: HashMap<(PayloadKind, SystemKind), (f64, BlockParam, u32)>,
}

impl Fig3Result {
    /// The best cells flattened in grid order — the serialization row set.
    fn flat_rows(&self) -> Vec<BenchmarkResult> {
        self.grid.iter().flatten().flatten().cloned().collect()
    }

    /// The best cell for `(benchmark, system)`, if any configuration
    /// confirmed at least one transaction.
    pub fn cell(&self, benchmark: PayloadKind, system: SystemKind) -> Option<&BenchmarkResult> {
        let bi = PayloadKind::ALL.iter().position(|b| *b == benchmark)?;
        let si = SystemKind::ALL.iter().position(|s| *s == system)?;
        self.grid[bi][si].as_ref()
    }
}

impl Report for Fig3Result {
    /// The best cells as a flat JSON row array (grid order).
    fn record(&self) -> Json {
        report::records(&self.flat_rows())
    }

    /// Renders the heat map in the paper's layout.
    fn render(&self) -> String {
        let benchmarks: Vec<&str> = PayloadKind::ALL.iter().map(|b| b.label()).collect();
        let systems: Vec<&str> = SystemKind::ALL.iter().map(|s| s.label()).collect();
        report::heatmap(&benchmarks, &systems, &self.grid)
    }

    /// The best cells as flat CSV rows (grid order).
    fn to_csv(&self) -> Option<String> {
        Some(report::to_csv(&self.flat_rows()))
    }
}

/// The parameter grid for one system under the sweep policy.
fn sweep(system: SystemKind, full: bool) -> Vec<(f64, BlockParam, u32)> {
    let rates = system.rate_limiters();
    let params = system.block_params();
    let ops = system.ops_per_tx_values();
    let pick = |v: Vec<f64>| -> Vec<f64> {
        if full {
            v
        } else {
            vec![v[0], *v.last().unwrap()]
        }
    };
    let rates = pick(rates);
    let params = if full || params.len() <= 2 {
        params
    } else {
        vec![params[0], params[2]]
    };
    let ops = if full || ops.len() <= 1 {
        ops
    } else {
        vec![1, 100]
    };
    let mut grid = Vec::new();
    for &r in &rates {
        for &p in &params {
            for &o in &ops {
                grid.push((r, p, o));
            }
        }
    }
    grid
}

/// Runs the full benchmark × system sweep on `net` and keeps the best cell
/// per (benchmark, system). This is the engine behind Figures 3 and 4.
fn best_cells(cfg: &ExperimentConfig, net: NetConfig, nodes: Option<u32>) -> Fig3Result {
    let mut grid: Vec<Vec<Option<BenchmarkResult>>> =
        vec![vec![None; SystemKind::ALL.len()]; PayloadKind::ALL.len()];
    let mut best_config = HashMap::new();

    // One work item per (system, unit, config); all independent.
    struct Item {
        system: SystemKind,
        unit: BenchmarkUnit,
        rate: f64,
        param: BlockParam,
        ops: u32,
    }
    let mut items = Vec::new();
    for system in SystemKind::ALL {
        for unit in BenchmarkUnit::ALL {
            for (rate, param, ops) in sweep(system, cfg.full_sweep) {
                items.push(Item {
                    system,
                    unit,
                    rate,
                    param,
                    ops,
                });
            }
        }
    }

    let windows = cfg.windows();
    let unit_results = crate::exec::run_grid(&items, cfg.jobs, |_, item| {
        let setup = SystemSetup {
            nodes,
            net: net.clone(),
            block_param: item.param,
            admission: None,
            standby: 0,
        };
        let template = BenchmarkSpec::new(item.system, PayloadKind::DoNothing)
            .setup(setup)
            .rate(item.rate)
            .ops_per_tx(item.ops)
            .windows(windows)
            .repetitions(cfg.repetitions);
        let seed = crate::exec::unit_seed(cfg.seed, "fig-sweep", item.unit, &template);
        run_unit(item.system, item.unit, &template, seed)
    });

    for (item, unit_result) in items.iter().zip(unit_results) {
        let si = SystemKind::ALL
            .iter()
            .position(|s| *s == item.system)
            .unwrap();
        for result in unit_result.benchmarks {
            let kind = PayloadKind::ALL
                .iter()
                .copied()
                .find(|k| k.label() == result.benchmark)
                .expect("known benchmark");
            let bi = PayloadKind::ALL.iter().position(|b| *b == kind).unwrap();
            let better = match &grid[bi][si] {
                None => result.mtps.mean > 0.0,
                Some(cur) => result.mtps.mean > cur.mtps.mean,
            };
            if better {
                best_config.insert((kind, item.system), (item.rate, item.param, item.ops));
                grid[bi][si] = Some(result);
            }
        }
    }

    Fig3Result { grid, best_config }
}

/// **Figure 3**: best MTPS with corresponding MFLS and Duration per
/// benchmark and system, on the baseline (no emulated latency) network.
pub fn fig3(cfg: &ExperimentConfig) -> Fig3Result {
    best_cells(cfg, NetConfig::lan(), None)
}

/// **Figure 4**: the Figure 3 best configurations re-run under the netem
/// emulation (N(12 ms, 2 ms) between servers, §5.8.1).
///
/// Pass the already-computed Figure 3 result to reuse its best
/// configurations exactly as the paper does; with `None` the sweep is
/// re-run under latency and the best cells per-configuration are reported.
pub fn fig4(cfg: &ExperimentConfig, from_fig3: Option<&Fig3Result>) -> Fig3Result {
    let net = NetConfig::emulated_latency();
    let Some(base) = from_fig3 else {
        return best_cells(cfg, net, None);
    };
    // Re-run each benchmark's own Figure 3 best configuration under the
    // emulated latency (the Fig. 4 caption: "achieved with the
    // configuration values displayed in Figure 3"). Because benchmarks run
    // inside their units, the unit is re-run once per distinct
    // configuration and only the rows whose best configuration matches are
    // kept.
    let windows = cfg.windows();
    let mut grid: Vec<Vec<Option<BenchmarkResult>>> =
        vec![vec![None; SystemKind::ALL.len()]; PayloadKind::ALL.len()];
    let mut best_config = HashMap::new();

    struct Item {
        system: SystemKind,
        unit: BenchmarkUnit,
        rate: f64,
        param: BlockParam,
        ops: u32,
        /// The benchmarks of this unit whose Fig. 3 best config this is.
        wanted: Vec<PayloadKind>,
    }
    let mut items: Vec<Item> = Vec::new();
    for &system in SystemKind::ALL.iter() {
        for unit in BenchmarkUnit::ALL {
            for benchmark in unit.benchmarks() {
                let Some(&(rate, param, ops)) = base.best_config.get(&(benchmark, system)) else {
                    continue;
                };
                if let Some(existing) = items.iter_mut().find(|i| {
                    i.system == system
                        && i.unit == unit
                        && i.rate == rate
                        && i.param == param
                        && i.ops == ops
                }) {
                    existing.wanted.push(benchmark);
                } else {
                    items.push(Item {
                        system,
                        unit,
                        rate,
                        param,
                        ops,
                        wanted: vec![benchmark],
                    });
                }
            }
        }
    }

    let unit_results = crate::exec::run_grid(&items, cfg.jobs, |_, item| {
        let setup = SystemSetup {
            nodes: None,
            net: net.clone(),
            block_param: item.param,
            admission: None,
            standby: 0,
        };
        let template = BenchmarkSpec::new(
            item.system,
            item.unit.benchmarks().next().expect("unit has phases"),
        )
        .setup(setup)
        .rate(item.rate)
        .ops_per_tx(item.ops)
        .windows(windows)
        .repetitions(cfg.repetitions);
        let seed = crate::exec::unit_seed(cfg.seed, "fig4-best", item.unit, &template);
        run_unit(item.system, item.unit, &template, seed)
    });

    for (item, unit_result) in items.iter().zip(unit_results) {
        let si = SystemKind::ALL
            .iter()
            .position(|s| *s == item.system)
            .unwrap();
        for result in unit_result.benchmarks {
            let kind = PayloadKind::ALL
                .iter()
                .copied()
                .find(|k| k.label() == result.benchmark)
                .expect("known benchmark");
            if !item.wanted.contains(&kind) {
                continue;
            }
            let bi = PayloadKind::ALL.iter().position(|b| *b == kind).unwrap();
            best_config.insert((kind, item.system), (item.rate, item.param, item.ops));
            if result.mtps.mean > 0.0 {
                grid[bi][si] = Some(result);
            }
        }
    }
    Fig3Result { grid, best_config }
}

/// The outcome of the Figure 5 scalability study.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Node counts evaluated (the paper: 8, 16, 32).
    pub node_counts: Vec<u32>,
    /// `mtps[system][node_count_index]` for the DoNothing benchmark;
    /// 0.0 marks a complete failure.
    pub mtps: Vec<Vec<f64>>,
}

impl Fig5Result {
    /// MTPS of `system` at `nodes`, if that cell was measured.
    pub fn mtps_of(&self, system: SystemKind, nodes: u32) -> Option<f64> {
        let si = SystemKind::ALL.iter().position(|s| *s == system)?;
        let ni = self.node_counts.iter().position(|n| *n == nodes)?;
        Some(self.mtps[si][ni])
    }
}

impl Report for Fig5Result {
    /// The scalability study as JSON: the node-count axis plus one MTPS
    /// series per system.
    fn record(&self) -> Json {
        let series = SystemKind::ALL.iter().zip(&self.mtps).map(|(s, row)| {
            Json::obj([
                ("system", s.label().into()),
                ("mtps", row.iter().copied().collect()),
            ])
        });
        Json::obj([
            (
                "node_counts",
                self.node_counts.iter().map(|&n| u64::from(n)).collect(),
            ),
            ("systems", series.collect()),
        ])
    }

    /// Renders the scalability table (the log-scale figure's data).
    fn render(&self) -> String {
        let systems: Vec<&str> = SystemKind::ALL.iter().map(|s| s.label()).collect();
        report::scalability_table(&systems, &self.node_counts, &self.mtps)
    }
}

/// **Figure 5**: DoNothing MTPS at 8, 16 and 32 nodes (round-robin over
/// eight servers, §5.8.2), using each system's best Figure 3 configuration.
pub fn fig5(cfg: &ExperimentConfig, from_fig3: Option<&Fig3Result>) -> Fig5Result {
    let node_counts = vec![8u32, 16, 32];
    let windows = cfg.windows();
    let mut mtps = vec![vec![0.0; node_counts.len()]; SystemKind::ALL.len()];

    struct Item {
        system: SystemKind,
        si: usize,
        ni: usize,
        nodes: u32,
        rate: f64,
        param: BlockParam,
        ops: u32,
    }
    let mut items = Vec::new();
    for (si, &system) in SystemKind::ALL.iter().enumerate() {
        let (rate, param, ops) = from_fig3
            .and_then(|f| {
                f.best_config
                    .get(&(PayloadKind::DoNothing, system))
                    .copied()
            })
            .unwrap_or_else(|| default_do_nothing_config(system));
        for (ni, &nodes) in node_counts.iter().enumerate() {
            items.push(Item {
                system,
                si,
                ni,
                nodes,
                rate,
                param,
                ops,
            });
        }
    }

    let values = crate::exec::run_grid(&items, cfg.jobs, |_, item| {
        let setup = SystemSetup {
            nodes: Some(item.nodes),
            net: NetConfig::emulated_latency(),
            block_param: item.param,
            admission: None,
            standby: 0,
        };
        let spec = BenchmarkSpec::new(item.system, PayloadKind::DoNothing)
            .setup(setup)
            .rate(item.rate)
            .ops_per_tx(item.ops)
            .windows(windows)
            .repetitions(cfg.repetitions);
        let seed = crate::exec::cell_seed(cfg.seed, "fig5", &spec);
        crate::runner::run_benchmark(&spec, seed).mtps.mean
    });
    for (item, v) in items.iter().zip(values) {
        mtps[item.si][item.ni] = v;
    }

    Fig5Result { node_counts, mtps }
}

/// The DoNothing configuration the paper's Figure 3 lands on per system,
/// used when Figure 5 runs standalone.
fn default_do_nothing_config(system: SystemKind) -> (f64, BlockParam, u32) {
    match system {
        SystemKind::CordaOs => (20.0, BlockParam::None, 1),
        SystemKind::CordaEnterprise => (160.0, BlockParam::None, 1),
        SystemKind::Bitshares => (
            1600.0,
            BlockParam::BlockInterval(coconut_types::SimDuration::from_secs(1)),
            100,
        ),
        SystemKind::Fabric => (1600.0, BlockParam::MaxMessageCount(500), 1),
        SystemKind::Quorum => (
            1600.0,
            BlockParam::BlockPeriod(coconut_types::SimDuration::from_secs(5)),
            1,
        ),
        SystemKind::Sawtooth => (
            200.0,
            BlockParam::PublishingDelay(coconut_types::SimDuration::from_secs(1)),
            100,
        ),
        SystemKind::Diem => (200.0, BlockParam::MaxBlockSize(1000), 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny sweep that still exercises the full plumbing.
    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.01,
            repetitions: 1,
            seed: 7,
            full_sweep: false,
            jobs: None,
        }
    }

    #[test]
    #[ignore = "several minutes; run explicitly or via the repro binary"]
    fn fig3_produces_a_full_grid() {
        let f = fig3(&tiny());
        assert_eq!(f.grid.len(), 6);
        assert!(f.cell(PayloadKind::DoNothing, SystemKind::Fabric).is_some());
        let rendered = f.render();
        assert!(rendered.contains("Fabric"));
    }

    #[test]
    fn default_configs_cover_all_systems() {
        for s in SystemKind::ALL {
            let (rate, _, ops) = default_do_nothing_config(s);
            assert!(rate > 0.0);
            assert!(ops >= 1);
        }
    }

    #[test]
    fn sweep_reduced_vs_full() {
        let full = sweep(SystemKind::Fabric, true);
        let reduced = sweep(SystemKind::Fabric, false);
        assert_eq!(full.len(), 16, "4 rates × 4 MM values");
        assert_eq!(reduced.len(), 4, "2 rates × 2 MM values");
        let bs_full = sweep(SystemKind::Bitshares, true);
        assert_eq!(bs_full.len(), 4 * 4 * 3);
    }
}
