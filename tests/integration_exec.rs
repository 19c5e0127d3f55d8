//! The deterministic parallel executor: any `--jobs` setting must yield
//! byte-identical serialized results, because each cell's seed is derived
//! from what it measures (content), never from where it runs (thread,
//! position).

use coconut::client::Windows;
use coconut::experiments::{chaos, chaos_sweep, table17_18, ExperimentConfig, FaultKind};
use coconut::prelude::*;
use coconut::report;
use coconut::runner::run_many;

/// A small Table-5-style grid: the block-parameter sweep crossed with two
/// rate limiters, across three systems.
fn table5_grid() -> Vec<BenchmarkSpec> {
    let mut specs = Vec::new();
    for rate in [100.0, 200.0] {
        for mm in [25usize, 50] {
            specs.push(
                BenchmarkSpec::new(SystemKind::Fabric, PayloadKind::DoNothing)
                    .rate(rate)
                    .block_param(BlockParam::MaxMessageCount(mm))
                    .windows(Windows::scaled(0.01))
                    .repetitions(1),
            );
        }
        for bp in [1u64, 2] {
            specs.push(
                BenchmarkSpec::new(SystemKind::Quorum, PayloadKind::DoNothing)
                    .rate(rate)
                    .block_param(BlockParam::BlockPeriod(SimDuration::from_secs(bp)))
                    .windows(Windows::scaled(0.01))
                    .repetitions(1),
            );
        }
        specs.push(
            BenchmarkSpec::new(SystemKind::Diem, PayloadKind::KeyValueSet)
                .rate(rate)
                .block_param(BlockParam::MaxBlockSize(500))
                .windows(Windows::scaled(0.01))
                .repetitions(1),
        );
    }
    specs
}

#[test]
fn jobs_1_and_jobs_8_serialize_byte_identically() {
    let specs = table5_grid();
    let sequential = run_many(&specs, 0xC0C0, Some(1));
    let parallel = run_many(&specs, 0xC0C0, Some(8));
    assert_eq!(
        report::to_json(&sequential),
        report::to_json(&parallel),
        "worker count leaked into the serialized results"
    );
}

#[test]
fn experiment_jobs_setting_does_not_change_tables() {
    let cfg = |jobs| ExperimentConfig {
        scale: 0.01,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs,
    };
    let a = table17_18(&cfg(Some(1)));
    let b = table17_18(&cfg(Some(8)));
    assert_eq!(a.render(), b.render());
    assert_eq!(report::to_json(&a.rows), report::to_json(&b.rows));
}

#[test]
fn chaos_campaign_is_jobs_invariant() {
    let cfg = |jobs| ExperimentConfig {
        scale: 0.08,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs,
    };
    let a = chaos(&cfg(Some(1)));
    let b = chaos(&cfg(Some(8)));
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json(), b.to_json());
}

fn golden_chaos_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.08,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

/// The chaos campaign's JSON, pinned byte-for-byte. Any change to fault
/// schedules, seed derivation, the client loop, or the Byzantine safety
/// counters shows up here as a diff that must be reviewed (and the file
/// regenerated via `regenerate_chaos_golden`), not as silent drift.
#[test]
fn chaos_campaign_json_matches_golden_file() {
    let rendered = chaos(&golden_chaos_cfg()).to_json();
    let golden = include_str!("golden/chaos_scale008_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "chaos campaign JSON drifted from tests/golden/chaos_scale008_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_exec regenerate_chaos_golden -- --ignored"
    );
}

/// Rewrites the golden file from the current implementation. Run only when
/// a chaos-campaign change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/chaos_scale008_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_chaos_golden() {
    // Integration tests run with the package root (crates/bench) as cwd.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chaos_scale008_seed_c0c0.json"
    );
    let mut json = chaos(&golden_chaos_cfg()).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}

/// The configuration behind the sweep golden file — also the one CI runs
/// through `repro chaos --sweep` and diffs (seed 0xC0C0 = 49344).
fn golden_sweep_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

/// The full fault sweep's JSON — every system's degradation curve over
/// f = 0..=beyond-f, the loss and Byzantine axes, and the heat map —
/// pinned byte-for-byte like the classic campaign above.
#[test]
fn chaos_sweep_json_matches_golden_file() {
    let rendered = chaos_sweep(&golden_sweep_cfg(), &SystemKind::ALL, &FaultKind::ALL).to_json();
    let golden = include_str!("golden/chaos_sweep_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "fault-sweep JSON drifted from tests/golden/chaos_sweep_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_exec regenerate_chaos_sweep_golden -- --ignored"
    );
}

/// Rewrites the sweep golden file from the current implementation.
#[test]
#[ignore = "regenerates tests/golden/chaos_sweep_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_chaos_sweep_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chaos_sweep_scale002_seed_c0c0.json"
    );
    let mut json = chaos_sweep(&golden_sweep_cfg(), &SystemKind::ALL, &FaultKind::ALL).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}

/// Filtering the sweep to a subset of systems must not change any
/// remaining cell: sweep seeds are content-addressed by
/// (fault kind, system, severity), never by campaign shape or position.
#[test]
fn sweep_subset_reproduces_full_campaign_cells() {
    let cfg = golden_sweep_cfg();
    let full = chaos_sweep(&cfg, &SystemKind::ALL, &FaultKind::ALL);
    let subset = chaos_sweep(&cfg, &[SystemKind::Sawtooth], &FaultKind::ALL);
    for kind in FaultKind::ALL {
        let a = full
            .curve(SystemKind::Sawtooth, kind)
            .expect("full sweep has the curve");
        let b = subset
            .curve(SystemKind::Sawtooth, kind)
            .expect("subset keeps the curve");
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.severity, y.severity);
            assert_eq!(
                x.run.buckets, y.run.buckets,
                "{kind} severity {}",
                x.severity
            );
            assert_eq!(x.run.accounting, y.run.accounting);
        }
    }
}

/// The sweep is jobs-invariant like every other grid experiment.
#[test]
fn chaos_sweep_is_jobs_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..golden_sweep_cfg()
    };
    let systems = [SystemKind::Fabric, SystemKind::Diem];
    let a = chaos_sweep(&cfg(Some(1)), &systems, &[FaultKind::Crash]);
    let b = chaos_sweep(&cfg(Some(8)), &systems, &[FaultKind::Crash]);
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json(), b.to_json());
}
