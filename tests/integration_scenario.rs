//! The scenario library end to end: the named timelines run on every
//! system they apply to, checkpointed assertions hold where the design
//! says they must, the library's JSON is golden-pinned byte-for-byte, and
//! cells are byte-invariant under worker counts and name/system
//! subsetting (content-addressed seeds).

use coconut::experiments::{
    scenario_names, scenarios, scenarios_for, ExperimentConfig, ScenarioCell,
};
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

/// The ISSUE's floor: the library ships 10+ named scenarios, four of them
/// the classic campaign shapes, three of them the named composites.
#[test]
fn library_covers_the_classics_and_the_composites() {
    let names = scenario_names();
    assert!(names.len() >= 10);
    for required in [
        "crash-heal",
        "beyond-f-halt",
        "loss-burst",
        "byzantine-quorum-holds",
        "churn-under-overload",
        "partition-flash-crowd",
        "rolling-restart-diurnal",
    ] {
        assert!(names.contains(&required), "library must ship {required}");
    }
}

/// The classic expectations hold as checkpointed assertions: a BFT system
/// survives f equivocators clean, breaks visibly at f + 1, and halts when
/// crashed beyond f.
#[test]
fn classic_assertions_hold_on_a_bft_system() {
    let r = scenarios_for(
        &quick_cfg(),
        &[SystemKind::Diem],
        &["crash-heal", "beyond-f-halt", "byzantine-quorum-holds"],
    );
    assert_eq!(r.cells.len(), 3);
    for c in &r.cells {
        assert!(
            c.all_checks_pass(),
            "{} on {}: {:?}",
            c.scenario,
            c.system,
            c.checks
        );
    }
}

/// Beyond f the attack is visible: the overrun scenario records at least
/// one counted safety violation on every BFT system, and the assertion
/// that demands it passes.
#[test]
fn byzantine_overrun_breaks_safety_on_every_bft_system() {
    let r = scenarios_for(&quick_cfg(), &SystemKind::ALL, &["byzantine-overrun"]);
    assert_eq!(r.cells.len(), 3, "three BFT systems");
    for c in &r.cells {
        assert!(!c.safety_ok(), "{}: overrun must break safety", c.system);
        assert!(c.all_checks_pass(), "{}: {:?}", c.system, c.checks);
    }
}

/// Membership composites drive real epoch changes: the join lands (and
/// with it an epoch bump) even inside an 8x flash crowd.
#[test]
fn churn_composites_complete_their_membership_changes() {
    let r = scenarios_for(
        &quick_cfg(),
        &[SystemKind::Fabric, SystemKind::Diem],
        &["single-join", "rolling-replace", "churn-under-overload"],
    );
    assert_eq!(r.cells.len(), 6);
    for c in &r.cells {
        assert!(
            c.epochs >= 1,
            "{} on {}: no epoch bump",
            c.scenario,
            c.system
        );
        let floor = if c.scenario == "rolling-replace" {
            2
        } else {
            1
        };
        assert!(
            c.epochs >= floor,
            "{} on {}: {} epochs < {}",
            c.scenario,
            c.system,
            c.epochs,
            floor
        );
    }
}

/// Seeds are content-addressed by (scenario, system): running one cell
/// alone, or the library at a different worker count, reproduces exactly
/// the full run's bytes.
#[test]
fn subsets_and_worker_counts_never_change_a_cell() {
    let full = scenarios(&quick_cfg());
    let mut other_jobs = quick_cfg();
    other_jobs.jobs = Some(5);
    let rejobbed = scenarios(&other_jobs);
    assert_eq!(full.to_json(), rejobbed.to_json(), "worker count leaked");
    assert_eq!(full.render(), rejobbed.render(), "worker count leaked");

    let subset = scenarios_for(
        &quick_cfg(),
        &[SystemKind::Quorum],
        &["partition-flash-crowd"],
    );
    let a = full
        .cell("partition-flash-crowd", SystemKind::Quorum)
        .expect("cell in full run");
    let b = subset
        .cell("partition-flash-crowd", SystemKind::Quorum)
        .expect("cell in subset run");
    let key = |c: &ScenarioCell| {
        let acct = &c.run.accounting;
        (
            acct.scheduled,
            acct.confirmed,
            acct.retries,
            c.epochs,
            c.run.mtps,
        )
    };
    assert_eq!(key(a), key(b), "subsetting changed the cell");
    assert_eq!(a.checks.len(), b.checks.len());
    for (x, y) in a.checks.iter().zip(&b.checks) {
        assert_eq!((x.check, x.pass), (y.check, y.pass));
    }
}

fn golden_cfg() -> ExperimentConfig {
    quick_cfg()
}

/// The scenario library's JSON, pinned byte-for-byte like the chaos,
/// sweep, overload, and churn campaigns. Release-only: CI runs the suite
/// in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full library is release-only; CI runs it via cargo test --release"
)]
fn scenario_library_json_matches_golden_file() {
    let rendered = scenarios(&golden_cfg()).to_json();
    let golden = include_str!("golden/scenarios_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "scenario JSON drifted from tests/golden/scenarios_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_scenario regenerate_scenario_golden -- --ignored"
    );
}

/// Rewrites the scenario golden file from the current implementation. Run
/// only when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/scenarios_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_scenario_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/scenarios_scale002_seed_c0c0.json"
    );
    let mut json = scenarios(&golden_cfg()).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}
