//! Tables 7–20: the per-system highlight tables of §5.1–§5.7.
//!
//! Each function reproduces one MTPS/MFLS table together with its paired
//! number-of-transactions table (the paper always prints them as a pair,
//! e.g. Table 7 + Table 8 for Corda OS).

use coconut_types::{PayloadKind, SimDuration};

use crate::json::Json;
use crate::params::{BlockParam, SystemKind, SystemSetup};
use crate::report::{self, Report};
use crate::runner::{run_unit, BenchmarkResult, BenchmarkSpec};
use crate::workload::BenchmarkUnit;

use super::ExperimentConfig;

/// A reproduced table pair: the rows and a rendered form.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Which paper tables these rows reproduce (e.g. "Tables 7+8").
    pub title: String,
    /// The measured rows.
    pub rows: Vec<BenchmarkResult>,
}

impl Report for TableResult {
    /// The rows as a flat JSON array (the [`report::records`] layout).
    fn record(&self) -> Json {
        report::records(&self.rows)
    }

    /// Renders the rows in the paper's table layout.
    fn render(&self) -> String {
        format!("{}\n{}", self.title, report::table(&self.rows))
    }

    /// The rows as CSV (the [`report::to_csv`] layout).
    fn to_csv(&self) -> Option<String> {
        Some(report::to_csv(&self.rows))
    }
}

/// Runs one unit and extracts the row for `pick`. The seed is derived
/// from the row's content (system, benchmark, parameters), so rows can
/// run in any order — or in parallel — without perturbing each other.
fn unit_row(
    cfg: &ExperimentConfig,
    system: SystemKind,
    unit: BenchmarkUnit,
    pick: PayloadKind,
    rate: f64,
    param: BlockParam,
    ops: u32,
) -> BenchmarkResult {
    let template = BenchmarkSpec::new(system, pick)
        .setup(SystemSetup::with_block_param(param))
        .rate(rate)
        .ops_per_tx(ops)
        .windows(cfg.windows())
        .repetitions(cfg.repetitions);
    let seed = crate::exec::unit_seed(cfg.seed, "table", unit, &template);
    let unit_result = run_unit(system, unit, &template, seed);
    unit_result
        .benchmarks
        .into_iter()
        .find(|r| r.benchmark == pick.label())
        .expect("benchmark ran inside its unit")
}

/// **Tables 7 + 8**: Corda OS, KeyValue-Set at RL = 20 and RL = 160.
pub fn table7_8(cfg: &ExperimentConfig) -> TableResult {
    let rows = crate::exec::run_grid(&[20.0, 160.0], cfg.jobs, |_, &rl| {
        unit_row(
            cfg,
            SystemKind::CordaOs,
            BenchmarkUnit::KeyValue,
            PayloadKind::KeyValueSet,
            rl,
            BlockParam::None,
            1,
        )
    });
    TableResult {
        title: "Tables 7+8: Corda OS — KeyValue-Set".into(),
        rows,
    }
}

/// **Tables 9 + 10**: Corda Enterprise, KeyValue-Set at RL = 20 and 160.
pub fn table9_10(cfg: &ExperimentConfig) -> TableResult {
    let rows = crate::exec::run_grid(&[20.0, 160.0], cfg.jobs, |_, &rl| {
        unit_row(
            cfg,
            SystemKind::CordaEnterprise,
            BenchmarkUnit::KeyValue,
            PayloadKind::KeyValueSet,
            rl,
            BlockParam::None,
            1,
        )
    });
    TableResult {
        title: "Tables 9+10: Corda Enterprise — KeyValue-Set".into(),
        rows,
    }
}

/// **Tables 11 + 12**: BitShares, DoNothing at RL = 1600,
/// block_interval = 1 s, 100 operations per transaction.
pub fn table11_12(cfg: &ExperimentConfig) -> TableResult {
    let rows = vec![unit_row(
        cfg,
        SystemKind::Bitshares,
        BenchmarkUnit::DoNothing,
        PayloadKind::DoNothing,
        1600.0,
        BlockParam::BlockInterval(SimDuration::from_secs(1)),
        100,
    )];
    TableResult {
        title: "Tables 11+12: BitShares — DoNothing (BI = 1 s, 100 ops/tx)".into(),
        rows,
    }
}

/// **Tables 13 + 14**: Fabric, BankingApp-SendPayment at RL = 800 and
/// 1600 with MaxMessageCount = 100.
pub fn table13_14(cfg: &ExperimentConfig) -> TableResult {
    let rows = crate::exec::run_grid(&[800.0, 1600.0], cfg.jobs, |_, &rl| {
        unit_row(
            cfg,
            SystemKind::Fabric,
            BenchmarkUnit::BankingApp,
            PayloadKind::SendPayment,
            rl,
            BlockParam::MaxMessageCount(100),
            1,
        )
    });
    TableResult {
        title: "Tables 13+14: Fabric — BankingApp-SendPayment (MM = 100)".into(),
        rows,
    }
}

/// **Tables 15 + 16**: Quorum, BankingApp-Balance at RL = 400 with
/// blockperiod 2 s (the liveness failure) and 5 s.
pub fn table15_16(cfg: &ExperimentConfig) -> TableResult {
    let rows = crate::exec::run_grid(&[2u64, 5], cfg.jobs, |_, &bp| {
        unit_row(
            cfg,
            SystemKind::Quorum,
            BenchmarkUnit::BankingApp,
            PayloadKind::Balance,
            400.0,
            BlockParam::BlockPeriod(SimDuration::from_secs(bp)),
            1,
        )
    });
    TableResult {
        title: "Tables 15+16: Quorum — BankingApp-Balance (BP ∈ {2 s, 5 s})".into(),
        rows,
    }
}

/// **Tables 17 + 18**: Sawtooth, BankingApp-CreateAccount at
/// RL ∈ {200, 1600} × publishing delay ∈ {1 s, 10 s}, 100 tx per batch.
pub fn table17_18(cfg: &ExperimentConfig) -> TableResult {
    let cells = [(200.0, 1u64), (1600.0, 1), (200.0, 10), (1600.0, 10)];
    let rows = crate::exec::run_grid(&cells, cfg.jobs, |_, &(rl, pd)| {
        unit_row(
            cfg,
            SystemKind::Sawtooth,
            BenchmarkUnit::BankingApp,
            PayloadKind::CreateAccount,
            rl,
            BlockParam::PublishingDelay(SimDuration::from_secs(pd)),
            100,
        )
    });
    TableResult {
        title: "Tables 17+18: Sawtooth — BankingApp-CreateAccount (PD ∈ {1 s, 10 s})".into(),
        rows,
    }
}

/// **Tables 19 + 20**: Diem, KeyValue-Get at RL ∈ {200, 1600} ×
/// max_block_size ∈ {100, 2000}.
pub fn table19_20(cfg: &ExperimentConfig) -> TableResult {
    let cells = [
        (200.0, 100usize),
        (1600.0, 100),
        (200.0, 2000),
        (1600.0, 2000),
    ];
    let rows = crate::exec::run_grid(&cells, cfg.jobs, |_, &(rl, bs)| {
        unit_row(
            cfg,
            SystemKind::Diem,
            BenchmarkUnit::KeyValue,
            PayloadKind::KeyValueGet,
            rl,
            BlockParam::MaxBlockSize(bs),
            1,
        )
    });
    TableResult {
        title: "Tables 19+20: Diem — KeyValue-Get (BS ∈ {100, 2000})".into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.01,
            repetitions: 1,
            seed: 11,
            full_sweep: false,
            jobs: None,
        }
    }

    #[test]
    fn corda_enterprise_beats_open_source() {
        let cfg = tiny();
        let os = table7_8(&cfg);
        let ent = table9_10(&cfg);
        // At the low rate limiter, Enterprise's Set throughput must exceed
        // OS's (Tables 7 vs 9: 4.08 vs 12.84 MTPS).
        assert!(
            ent.rows[0].mtps.mean > os.rows[0].mtps.mean,
            "Ent {} vs OS {}",
            ent.rows[0].mtps.mean,
            os.rows[0].mtps.mean
        );
        assert!(os.render().contains("Corda OS"));
    }

    #[test]
    fn quorum_balance_fails_at_short_blockperiod() {
        // BP = 5 s needs a window several block periods long.
        let cfg = ExperimentConfig {
            scale: 0.08,
            repetitions: 1,
            seed: 11,
            full_sweep: false,
            jobs: None,
        };
        let t = table15_16(&cfg);
        assert_eq!(t.rows.len(), 2);
        // BP = 2 s row: total failure (Table 15: 0.00 MTPS).
        assert_eq!(t.rows[0].mtps.mean, 0.0, "BP=2s must fail");
        assert!(!t.rows[0].live);
        // BP = 5 s row: works.
        assert!(t.rows[1].mtps.mean > 0.0, "BP=5s must deliver");
    }

    #[test]
    fn bitshares_do_nothing_hits_the_rate() {
        let t = table11_12(&tiny());
        // Table 11: 1,599.89 MTPS at RL = 1600 — ops counted as txs.
        assert!(
            t.rows[0].mtps.mean > 1_000.0,
            "expected ≈1600 op/s, got {}",
            t.rows[0].mtps.mean
        );
    }
}
