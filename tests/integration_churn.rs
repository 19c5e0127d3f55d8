//! Membership churn end to end: every system survives joins and leaves
//! under steady load with zero safety violations, joiners never vote
//! before catch-up completes (machine-checked by the BFT safety
//! monitors), and the campaign is golden-pinned and byte-invariant under
//! worker counts and system subsetting.

use coconut::experiments::{churn, churn_for, ChurnArm, ExperimentConfig};
use coconut::params::SystemKind;
use coconut::report::Report;

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

/// The acceptance bar: all seven systems survive a single join and a
/// single leave under steady load — commits continue after the epoch
/// change, the runtime observes the completed membership change, and the
/// safety monitors (where the system carries one) report zero violations
/// including the cross-epoch invariants.
#[test]
fn all_seven_systems_survive_join_and_leave_under_load() {
    let r = churn_for(
        &quick_cfg(),
        &SystemKind::ALL,
        &[ChurnArm::SingleJoin, ChurnArm::SingleLeave],
    );
    assert_eq!(r.cells.len(), 7 * 2);
    for c in &r.cells {
        assert!(c.run.live, "{} {}: system died", c.system, c.arm);
        assert!(
            c.post_mtps > 0.0,
            "{} {}: no commits after the membership change",
            c.system,
            c.arm
        );
        assert_eq!(
            c.epochs, 1,
            "{} {}: expected one epoch bump",
            c.system, c.arm
        );
        match c.arm {
            ChurnArm::SingleJoin => {
                assert_eq!(c.joins, 1, "{}: join must complete", c.system);
                assert_eq!(c.leaves, 0, "{}", c.system);
            }
            ChurnArm::SingleLeave => {
                assert_eq!(c.leaves, 1, "{}: leave must complete", c.system);
                assert_eq!(c.joins, 0, "{}", c.system);
            }
            _ => unreachable!("campaign restricted to join/leave arms"),
        }
        assert!(
            c.safety_ok,
            "{} {}: safety violations under churn: {:?}",
            c.system, c.arm, c.run.safety
        );
    }
}

/// The BFT systems' monitors check the churn-specific invariants
/// explicitly: across a rolling replacement (two epoch changes) no commit
/// is certified by a quorum of a superseded epoch and no joiner votes
/// before its catch-up completes.
#[test]
fn bft_monitors_verify_cross_epoch_invariants_during_rolling_replacement() {
    let bft = [SystemKind::Quorum, SystemKind::Sawtooth, SystemKind::Diem];
    let r = churn_for(&quick_cfg(), &bft, &[ChurnArm::RollingReplace]);
    assert_eq!(r.cells.len(), 3);
    for c in &r.cells {
        assert_eq!(
            c.epochs, 2,
            "{}: join + leave = two epoch changes",
            c.system
        );
        assert_eq!((c.joins, c.leaves), (1, 1), "{}", c.system);
        let report = c
            .run
            .safety
            .as_ref()
            .unwrap_or_else(|| panic!("{}: BFT systems carry a safety monitor", c.system));
        assert_eq!(
            report.violations.stale_epoch_commits, 0,
            "{}: commit certified by a superseded epoch",
            c.system
        );
        assert_eq!(
            report.violations.presync_votes, 0,
            "{}: a joiner voted before catch-up completed",
            c.system
        );
        assert!(
            report.violations.is_clean(),
            "{}: {:?}",
            c.system,
            report.violations
        );
        assert!(c.post_mtps > 0.0, "{}", c.system);
    }
}

/// Worker counts and system subsetting must not change any cell: churn
/// seeds are content-addressed by (system, arm), never by grid position.
#[test]
fn churn_subset_and_jobs_reproduce_full_campaign_cells() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..quick_cfg()
    };
    let pair = [SystemKind::CordaOs, SystemKind::Bitshares];
    let a = churn_for(&cfg(Some(1)), &pair, &ChurnArm::ALL);
    let b = churn_for(&cfg(Some(8)), &pair, &ChurnArm::ALL);
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json(), b.to_json());

    let solo = churn_for(&cfg(Some(2)), &pair[..1], &ChurnArm::ALL);
    for sc in &solo.cells {
        let full = a
            .cell(sc.system, sc.arm)
            .expect("subset cell exists in the pair campaign");
        assert_eq!(
            sc.run.accounting, full.run.accounting,
            "{} {}: subsetting changed a cell",
            sc.system, sc.arm
        );
        assert_eq!(sc.run.buckets, full.run.buckets, "{} {}", sc.system, sc.arm);
        assert_eq!(
            (sc.epochs, sc.joins, sc.leaves),
            (full.epochs, full.joins, full.leaves)
        );
    }
}

fn golden_cfg() -> ExperimentConfig {
    quick_cfg()
}

/// The churn campaign's JSON, pinned byte-for-byte like the chaos, sweep,
/// and overload campaigns. Release-only: CI runs the suite in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign is release-only; CI runs it via cargo test --release"
)]
fn churn_campaign_json_matches_golden_file() {
    let rendered = churn(&golden_cfg()).to_json();
    let golden = include_str!("golden/churn_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "churn JSON drifted from tests/golden/churn_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_churn regenerate_churn_golden -- --ignored"
    );
}

/// Rewrites the churn golden file from the current implementation. Run
/// only when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/churn_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_churn_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/churn_scale002_seed_c0c0.json"
    );
    let mut json = churn(&golden_cfg()).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}

/// The full campaign is jobs-invariant (release-only, as above).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign is release-only; CI runs it via cargo test --release"
)]
fn churn_campaign_is_jobs_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..golden_cfg()
    };
    let a = churn(&cfg(Some(1)));
    let b = churn(&cfg(Some(7)));
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json(), b.to_json());
}
