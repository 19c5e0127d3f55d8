//! The contention campaign end to end: conflict signals that move the
//! right way (Fabric's MVCC abort share and the Cordas' notary
//! double-spend rejections strictly increase along the contention
//! diagonal; Fabric's abort rate is monotone in the Zipf exponent alone),
//! Smallbank's conserved-balance invariant across all seven systems,
//! subset/worker-count byte-invariance, and the campaign's golden pin.
//!
//! The full campaign is release-only — debug builds exercise the same
//! machinery through system subsets, which the content-addressed cell
//! seeds guarantee are byte-identical to the full campaign's cells.

use coconut::client::Windows;
use coconut::experiments::{contention, contention_for, ExperimentConfig, LEVELS, WORKLOADS};
use coconut::prelude::*;
use coconut::scenario::ScenarioBuilder;
use coconut::workload::{ContentionKnobs, Smallbank};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

/// Asserts `vals` (one per [`LEVELS`] entry, in order) strictly increases.
fn assert_strictly_increasing(vals: &[f64], what: &str) {
    for w in vals.windows(2) {
        assert!(
            w[0] < w[1],
            "{what} must strictly increase with contention, got {vals:?}"
        );
    }
}

/// Fabric loses transactions to MVCC read-set invalidation at block
/// validation; as the Smallbank footprints concentrate on hot accounts,
/// the share of accepted transactions it invalidates must strictly grow.
/// The Cordas lose them to notary double-spend rejections — same
/// monotonicity, measured on the notary's conflict counter.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-campaign cells are release-only; CI runs them via cargo test --release"
)]
fn fabric_abort_share_and_corda_notary_conflicts_grow_with_contention() {
    let r = contention_for(
        &quick_cfg(),
        &[
            SystemKind::Fabric,
            SystemKind::CordaOs,
            SystemKind::CordaEnterprise,
        ],
        &["Smallbank"],
    );
    let series = |system: SystemKind, metric: &dyn Fn(f64, u64) -> f64| -> Vec<f64> {
        LEVELS
            .iter()
            .map(|l| {
                let c = r.cell(system, "Smallbank", l.name).expect("cell ran");
                metric(c.conflict_share, c.stats.conflicts)
            })
            .collect()
    };
    assert_strictly_increasing(
        &series(SystemKind::Fabric, &|share, _| share),
        "Fabric MVCC abort share",
    );
    for corda in [SystemKind::CordaOs, SystemKind::CordaEnterprise] {
        assert_strictly_increasing(
            &series(corda, &|_, conflicts| conflicts as f64),
            "Corda notary double-spend rejections",
        );
    }
}

/// Satellite check at fixed load: holding the hot fraction and offered
/// rate constant, raising only the Zipfian exponent must never lower
/// Fabric's MVCC abort count. Runs Fabric directly through the scenario
/// DSL rather than the campaign grid, so the only thing that varies is
/// the exponent.
#[test]
fn fabric_mvcc_abort_rate_is_monotone_in_zipf_exponent() {
    let windows = Windows::scaled(0.02);
    let conflicts: Vec<u64> = [0.2, 0.9, 1.4]
        .iter()
        .map(|&zipf_s| {
            let tl = ScenarioBuilder::new(PayloadKind::SendPayment, 200.0, windows)
                .workload(Smallbank::new(ContentionKnobs {
                    zipf_s,
                    hot_fraction: 0.1,
                    account_pool: 64,
                }))
                .build();
            tl.run(SystemKind::Fabric, 0xC0C0).stats.conflicts
        })
        .collect();
    for w in conflicts.windows(2) {
        assert!(
            w[0] <= w[1],
            "Fabric MVCC aborts must be non-decreasing in zipf_s at fixed load, got {conflicts:?}"
        );
    }
    assert!(
        conflicts[2] > conflicts[0],
        "the sweep must show an effect end to end, got {conflicts:?}"
    );
}

/// Smallbank's conserved-total-balance invariant must hold on every
/// system's final ledger at the highest contention level: no
/// concurrency-control path (MVCC invalidation, notary rejection, batch
/// abort, interacting-op rejection) may half-apply or double-apply a
/// transfer.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-campaign cells are release-only; CI runs them via cargo test --release"
)]
fn smallbank_conserves_total_balance_on_all_seven_systems() {
    let r = contention_for(&quick_cfg(), &SystemKind::ALL, &["Smallbank"]);
    assert_eq!(r.cells.len(), SystemKind::ALL.len() * LEVELS.len());
    for c in &r.cells {
        match &c.verified {
            Some(Ok(())) => {}
            Some(Err(e)) => panic!(
                "{} {} {}: Smallbank invariant violated: {e}",
                c.system.label(),
                c.workload,
                c.level.name
            ),
            None => panic!(
                "{} exposes no ledger — every modelled system must",
                c.system.label()
            ),
        }
    }
}

/// Like every grid campaign: cells are byte-identical for any worker
/// count, any system subset, and any workload subset (seeds are
/// content-addressed by `(system, workload, level)`).
#[test]
fn contention_cells_are_jobs_systems_and_workloads_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..quick_cfg()
    };
    let pair = [SystemKind::Quorum, SystemKind::Diem];
    let a = contention_for(&cfg(Some(1)), &pair, &WORKLOADS);
    let b = contention_for(&cfg(Some(8)), &pair, &WORKLOADS);
    assert_eq!(a.to_json(), b.to_json(), "worker count must not matter");
    assert_eq!(a.render(), b.render(), "worker count must not matter");
    let solo = contention_for(&cfg(Some(2)), &pair[..1], &["YCSB"]);
    assert_eq!(solo.cells.len(), LEVELS.len());
    for sub in &solo.cells {
        let full = a
            .cell(sub.system, sub.workload, sub.level.name)
            .expect("subset cell exists in the pair campaign");
        assert_eq!(full.run.accounting, sub.run.accounting);
        assert_eq!(full.run.buckets, sub.run.buckets);
        assert_eq!(full.stats.conflicts, sub.stats.conflicts);
        assert_eq!(full.stats, sub.stats);
    }
}

fn golden_cfg() -> ExperimentConfig {
    quick_cfg()
}

/// The contention campaign's JSON, pinned byte-for-byte like the other
/// campaigns. Runs in release builds only (CI runs the test suite in
/// release; the full campaign is too slow unoptimized).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign is release-only; CI runs it via cargo test --release"
)]
fn contention_campaign_json_matches_golden_file() {
    let rendered = contention(&golden_cfg()).to_json();
    let golden = include_str!("golden/contention_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "contention JSON drifted from tests/golden/contention_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_contention regenerate_contention_golden -- --ignored"
    );
}

/// Rewrites the contention golden file from the current implementation.
/// Run only when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/contention_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_contention_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/contention_scale002_seed_c0c0.json"
    );
    let mut json = contention(&golden_cfg()).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}
