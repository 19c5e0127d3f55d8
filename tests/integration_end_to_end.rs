//! End-to-end integration: the full COCONUT pipeline — workload
//! generation, client scheduling, system simulation, client-side metric
//! collection — across all seven modelled systems.

use coconut::client::Windows;
use coconut::prelude::*;

/// A fast spec that still exercises the whole pipeline.
fn spec(system: SystemKind, benchmark: PayloadKind) -> BenchmarkSpec {
    let (rate, param) = match system {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => (20.0, BlockParam::None),
        SystemKind::Bitshares => (200.0, BlockParam::BlockInterval(SimDuration::from_secs(1))),
        SystemKind::Fabric => (200.0, BlockParam::MaxMessageCount(50)),
        SystemKind::Quorum => (200.0, BlockParam::BlockPeriod(SimDuration::from_secs(1))),
        SystemKind::Sawtooth => (
            200.0,
            BlockParam::PublishingDelay(SimDuration::from_secs(1)),
        ),
        SystemKind::Diem => (50.0, BlockParam::MaxBlockSize(500)),
    };
    BenchmarkSpec::new(system, benchmark)
        .rate(rate)
        .block_param(param)
        .windows(Windows::scaled(0.02)) // 6 s send window
        .repetitions(1)
}

#[test]
fn every_system_confirms_do_nothing_transactions() {
    for system in SystemKind::ALL {
        let r = run_benchmark(&spec(system, PayloadKind::DoNothing), 1);
        assert!(
            r.received.mean > 0.0,
            "{system}: no transaction confirmed end-to-end"
        );
        assert!(r.mtps.mean > 0.0, "{system}: zero throughput");
        assert!(r.mfls.mean > 0.0, "{system}: zero latency is impossible");
    }
}

#[test]
fn received_never_exceeds_expected() {
    for system in SystemKind::ALL {
        let r = run_benchmark(&spec(system, PayloadKind::KeyValueSet), 2);
        assert!(
            r.received.mean <= r.expected + 0.5,
            "{system}: received {} > expected {}",
            r.received.mean,
            r.expected
        );
    }
}

#[test]
fn duration_stays_within_listen_window() {
    // Duration = t_lrtx − t_fstx must fit inside the listen window.
    let windows = Windows::scaled(0.02);
    for system in [
        SystemKind::Fabric,
        SystemKind::Quorum,
        SystemKind::Bitshares,
    ] {
        let r = run_benchmark(&spec(system, PayloadKind::DoNothing), 3);
        assert!(
            r.duration.mean <= windows.listen.as_secs_f64() + 1e-9,
            "{system}: duration {} exceeds the listen window",
            r.duration.mean
        );
    }
}

#[test]
fn latency_reflects_block_pacing() {
    // Quorum with blockperiod 1 s cannot confirm faster than the period's
    // half on average; BitShares' latency tracks its block interval.
    let q = run_benchmark(&spec(SystemKind::Quorum, PayloadKind::DoNothing), 4);
    assert!(
        q.mfls.mean > 0.3,
        "Quorum MFLS {} too small for BP=1s",
        q.mfls.mean
    );
    let b = run_benchmark(&spec(SystemKind::Bitshares, PayloadKind::DoNothing), 5);
    assert!(
        (0.3..2.0).contains(&b.mfls.mean),
        "BitShares MFLS {} should track the 1 s block interval",
        b.mfls.mean
    );
}

#[test]
fn unit_execution_carries_state_between_benchmarks() {
    use coconut::workload::BenchmarkUnit;
    // The KeyValue unit on Quorum: the Get phase reads the Set phase's
    // keys through the same chain instance.
    let template = spec(SystemKind::Quorum, PayloadKind::KeyValueSet);
    let unit = run_unit(SystemKind::Quorum, BenchmarkUnit::KeyValue, &template, 6);
    assert_eq!(unit.benchmarks.len(), 2);
    let get = &unit.benchmarks[1];
    assert!(
        get.delivery_ratio() > 0.8,
        "Get must find Set's keys: {}",
        get.delivery_ratio()
    );
}

#[test]
fn results_serialize_to_json_and_back() {
    use coconut::json::{parse, Json};
    let r = run_benchmark(&spec(SystemKind::Fabric, PayloadKind::DoNothing), 7);
    let json = coconut::report::to_json(std::slice::from_ref(&r));
    let parsed = parse(&json).unwrap();
    let loaded = &parsed.as_array().unwrap()[0];
    assert_eq!(
        loaded.get("system").and_then(Json::as_str),
        Some(&*r.system)
    );
    let mtps = loaded.get("mtps").and_then(|m| m.get("mean"));
    // JSON float parsing may differ in the last ULP.
    assert!((mtps.and_then(Json::as_f64).unwrap() - r.mtps.mean).abs() < 1e-9);
}

#[test]
fn rendered_table_includes_every_row() {
    let rows: Vec<_> = [SystemKind::Fabric, SystemKind::Quorum]
        .iter()
        .map(|&s| run_benchmark(&spec(s, PayloadKind::DoNothing), 8))
        .collect();
    let rendered = table(&rows);
    assert!(rendered.contains("Fabric"));
    assert!(rendered.contains("Quorum"));
    assert_eq!(
        rendered.lines().count(),
        2 + rows.len(),
        "header + separator + rows"
    );
}
