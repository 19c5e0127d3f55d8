//! Overload robustness end to end: bounded admission under combined
//! faults, the client-side protections, and the goodput-collapse campaign
//! with its golden pin.
//!
//! The full campaign (7 systems × 6 multipliers + 7 probes × 2 arms) is
//! release-only — debug builds exercise the same machinery through
//! system subsets, which the content-addressed cell seeds guarantee are
//! byte-identical to the full campaign's cells.

use coconut::chaos::{run_chaos_with_schedule, ClientProtection, RetryPolicy};
use coconut::client::{build_schedule, Windows};
use coconut::experiments::{
    fault_domain, overload, overload_curves_for, overload_probes_for, tight_limits,
    ExperimentConfig,
};
use coconut::params::build_system;
use coconut::prelude::*;
use coconut_simnet::FaultPlan;
use coconut_types::{NodeId, SeedDeriver, SimTime};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

fn payload_for(kind: SystemKind) -> PayloadKind {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => PayloadKind::KeyValueSet,
        _ => PayloadKind::DoNothing,
    }
}

/// Every scheduled transaction must land in exactly one terminal class —
/// across all seven systems, under a crash window overlapping a loss
/// burst while the offered load exceeds the tight admission pools, with
/// and without client protection. Any double-count or dropped track breaks
/// `is_complete()`.
#[test]
fn combined_crash_loss_overload_accounting_is_complete() {
    for kind in SystemKind::ALL {
        let d = fault_domain(kind);
        let crash: Vec<NodeId> = (0..d.f_tolerant).map(NodeId).collect();
        let plan = FaultPlan::new()
            .crash_window(&crash, SimTime::from_secs(1), SimTime::from_secs(3))
            .loss_window(0.25, SimTime::from_millis(1500), SimTime::from_millis(3500));
        let rate = kind.rate_limiters()[0] * 2.0;
        let spec = BenchmarkSpec::new(kind, payload_for(kind))
            .rate(rate)
            .windows(Windows::scaled(0.02))
            .repetitions(1);
        let setup = SystemSetup::default().with_admission(tight_limits(kind));
        let schedule = build_schedule(
            spec.benchmark,
            spec.rate,
            spec.ops_per_tx,
            spec.windows,
            SeedDeriver::new(7).seed("schedule", 0),
        );
        for protection in [
            ClientProtection::disabled(),
            ClientProtection::overload_default(),
        ] {
            let mut sys = build_system(kind, &setup, 7);
            let run = run_chaos_with_schedule(
                sys.as_mut(),
                &spec,
                &plan,
                &RetryPolicy::chaos_default(),
                &protection,
                &schedule,
                7,
            );
            let a = run.accounting;
            assert!(a.scheduled > 0, "{kind}: nothing scheduled");
            assert!(
                a.is_complete(),
                "{kind} (protected={}): classes don't add up: {a:?}",
                protection.enabled()
            );
        }
    }
}

/// The metastable-failure signature: around the same 8× overload pulse,
/// the budget + breaker client must amplify strictly less than the bare
/// retry client and recover no later. Sawtooth — whose queue rejections
/// feed the retry storm — must show the unprotected arm recovering
/// strictly slower.
#[test]
fn metastable_probe_protection_reduces_amplification_and_recovery_time() {
    let probes = overload_probes_for(&quick_cfg(), &[SystemKind::Sawtooth, SystemKind::Bitshares]);
    for p in &probes {
        let (u, pr) = (&p.unprotected, &p.protected);
        let u_amp = u.run.accounting.retry_amplification();
        let pr_amp = pr.run.accounting.retry_amplification();
        assert!(
            u_amp > 1.05,
            "{}: the pulse must stress the unprotected arm (amp {})",
            p.system,
            u_amp
        );
        assert!(
            pr_amp < u_amp,
            "{}: protection must strictly reduce retry amplification ({} vs {})",
            p.system,
            pr_amp,
            u_amp
        );
        // Recovery no slower: an unrecovered run is worse than any finite
        // recovery time.
        let no_slower = match (pr.recovery_secs, u.recovery_secs) {
            (Some(p_sec), Some(u_sec)) => p_sec <= u_sec,
            (Some(_), None) => true,
            (None, None) => true,
            (None, Some(_)) => false,
        };
        assert!(
            no_slower,
            "{}: protected arm recovered slower ({:?} vs {:?})",
            p.system, pr.recovery_secs, u.recovery_secs
        );
    }
    let sawtooth = probes
        .iter()
        .find(|p| p.system == SystemKind::Sawtooth)
        .unwrap();
    assert!(
        sawtooth
            .unprotected
            .recovery_secs
            .is_none_or(|u| { sawtooth.protected.recovery_secs.is_some_and(|p| p < u) }),
        "Sawtooth: the unprotected retry storm must delay recovery \
         (unprotected {:?}, protected {:?})",
        sawtooth.unprotected.recovery_secs,
        sawtooth.protected.recovery_secs
    );
}

/// The goodput curve collapses past the knee, backpressure is visible as
/// `Busy` answers, and — like every grid experiment — the cells are
/// byte-identical for any worker count and any system subset (seeds are
/// content-addressed by system and multiplier).
#[test]
fn overload_curves_collapse_and_are_jobs_and_subset_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..quick_cfg()
    };
    let pair = [SystemKind::CordaEnterprise, SystemKind::CordaOs];
    let a = overload_curves_for(&cfg(Some(1)), &pair);
    let b = overload_curves_for(&cfg(Some(8)), &pair);
    let solo = overload_curves_for(&cfg(Some(2)), &pair[..1]);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.system, y.system);
        for (cx, cy) in x.cells.iter().zip(&y.cells) {
            assert_eq!(cx.run.accounting, cy.run.accounting, "{}", x.system);
            assert_eq!(cx.run.buckets, cy.run.buckets, "{}", x.system);
            assert_eq!((cx.busy, cx.evicted), (cy.busy, cy.evicted), "{}", x.system);
        }
    }
    let ent = a
        .iter()
        .find(|c| c.system == SystemKind::CordaEnterprise)
        .unwrap();
    for (cx, cy) in ent.cells.iter().zip(&solo[0].cells) {
        assert_eq!(
            cx.run.accounting, cy.run.accounting,
            "subset cells must reproduce the pair's cells"
        );
    }

    let knee = ent.knee();
    let last = ent.cells.last().unwrap();
    assert!(
        knee.multiplier < last.multiplier,
        "Corda Enterprise must saturate inside the multiplier grid"
    );
    assert!(
        last.goodput < knee.goodput,
        "goodput must collapse past the knee ({} vs {})",
        last.goodput,
        knee.goodput
    );
    assert!(
        last.busy > 0,
        "overload must surface as Busy backpressure answers"
    );
}

fn golden_cfg() -> ExperimentConfig {
    quick_cfg()
}

/// The overload campaign's JSON, pinned byte-for-byte like the chaos
/// campaign and fault sweep. Runs in release builds only (CI runs the
/// test suite in release; the full campaign is too slow unoptimized).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full campaign is release-only; CI runs it via cargo test --release"
)]
fn overload_campaign_json_matches_golden_file() {
    let rendered = overload(&golden_cfg()).to_json();
    let golden = include_str!("golden/overload_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "overload JSON drifted from tests/golden/overload_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_overload regenerate_overload_golden -- --ignored"
    );
}

/// Rewrites the overload golden file from the current implementation. Run
/// only when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/overload_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_overload_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/overload_scale002_seed_c0c0.json"
    );
    let mut json = overload(&golden_cfg()).to_json();
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
fn overload_campaign_is_jobs_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..golden_cfg()
    };
    let a = overload(&cfg(Some(1)));
    let b = overload(&cfg(Some(7)));
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json(), b.to_json());
}
