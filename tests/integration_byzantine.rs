//! Byzantine fault injection end-to-end: flag validators to equivocate and
//! double-vote mid-run on each BFT system (Quorum's IBFT, Sawtooth's PBFT,
//! Diem's DiemBFT) and check the machine-verified safety invariants.
//!
//! The contract under test is the one BFT sells: with at most `f` Byzantine
//! validators the system keeps delivering and the safety monitor stays
//! clean; with `f + 1` colluders the monitor counts the broken invariants —
//! deterministically per seed — instead of panicking. Crash-fault-tolerant
//! systems carry no monitor and report `None`.

use coconut::chaos::{run_chaos_with_schedule, ChaosRun, ClientProtection, RetryPolicy};
use coconut::client::{build_schedule, Windows};
use coconut::params::build_system;
use coconut::prelude::*;
use coconut_simnet::FaultPlan;
use coconut_types::{NodeId, SeedDeriver};

/// The three systems whose consensus has a Byzantine quorum, with their
/// baseline validator count and tolerance (n = 4 → f = 1).
const BFT: [(SystemKind, u32, u32); 3] = [
    (SystemKind::Quorum, 4, 1),
    (SystemKind::Sawtooth, 4, 1),
    (SystemKind::Diem, 4, 1),
];

fn spec(kind: SystemKind) -> BenchmarkSpec {
    BenchmarkSpec::new(kind, PayloadKind::DoNothing)
        .rate(50.0)
        .windows(Windows {
            send: SimDuration::from_secs(24),
            listen: SimDuration::from_secs(34),
        })
        .repetitions(1)
}

/// Runs `kind` with validators `0..byz_nodes` flagged Byzantine over a
/// mid-run window, returning the full chaos run.
fn byz_run(kind: SystemKind, byz_nodes: u32, seed: u64) -> ChaosRun {
    let nodes: Vec<NodeId> = (0..byz_nodes).map(NodeId).collect();
    let plan =
        FaultPlan::new().byzantine_window(&nodes, SimTime::from_secs(6), SimTime::from_secs(12));
    let spec = spec(kind);
    let schedule = build_schedule(
        spec.benchmark,
        spec.rate,
        spec.ops_per_tx,
        spec.windows,
        SeedDeriver::new(seed).seed("schedule", 0),
    );
    let mut sys = build_system(kind, &SystemSetup::default(), seed);
    run_chaos_with_schedule(
        sys.as_mut(),
        &spec,
        &plan,
        &RetryPolicy::chaos_default(),
        &ClientProtection::disabled(),
        &schedule,
        seed,
    )
}

#[test]
fn within_f_byzantine_nodes_never_break_safety() {
    for (kind, _, f) in BFT {
        let r = byz_run(kind, f, 0xB12A);
        let s = r.safety.expect("BFT systems carry a safety monitor");
        assert!(
            s.observed.byzantine_nodes > 0,
            "{kind}: the flagged node must actually misbehave on the wire"
        );
        assert!(
            s.violations.is_clean(),
            "{kind}: ≤ f Byzantine must not break safety: {:?}",
            s.violations
        );
        assert!(r.live, "{kind} must stay live under ≤ f Byzantine");
        assert!(
            r.accounting.delivery_ratio() >= 0.95,
            "{kind}: delivery must stay high under ≤ f Byzantine: {:?}",
            r.accounting
        );
    }
}

#[test]
fn beyond_f_byzantine_nodes_are_caught_not_panicked_on() {
    for (kind, _, f) in BFT {
        let r = byz_run(kind, f + 1, 0xB12B);
        let s = r.safety.expect("BFT systems carry a safety monitor");
        assert!(
            s.violations.total() > 0,
            "{kind}: f + 1 colluders must produce counted violations: {s:?}"
        );
        assert!(
            s.observed.byzantine_nodes >= 2,
            "{kind}: both flagged nodes must be attributed: {s:?}"
        );
        // Counted, not crashed: the run still terminates with complete
        // per-transaction accounting.
        assert!(
            r.accounting.is_complete(),
            "{kind}: accounting must stay complete beyond f: {:?}",
            r.accounting
        );
    }
}

#[test]
fn byzantine_runs_are_byte_identical_per_seed() {
    for (kind, _, f) in BFT {
        let fingerprint = |r: &ChaosRun| {
            (
                format!("{:?}", r.safety),
                r.accounting,
                r.buckets.clone(),
                r.mtps.to_bits(),
                r.mfls.to_bits(),
            )
        };
        let a = byz_run(kind, f + 1, 0xB12C);
        let b = byz_run(kind, f + 1, 0xB12C);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{kind}: Byzantine runs must be deterministic per seed"
        );
    }
}

#[test]
fn cft_systems_report_safety_not_applicable() {
    for kind in [
        SystemKind::Fabric,
        SystemKind::Bitshares,
        SystemKind::CordaOs,
        SystemKind::CordaEnterprise,
    ] {
        let r = byz_run(kind, 1, 0xB12D);
        assert!(
            r.safety.is_none(),
            "{kind} is CFT: Byzantine safety invariants are not applicable"
        );
    }
}
