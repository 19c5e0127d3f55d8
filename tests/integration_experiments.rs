//! Experiment-level integration: the table/figure reproductions produce
//! the paper's qualitative shapes at reduced scale.

use coconut::experiments::ablations::render_arms;
use coconut::experiments::{
    all_ablations, fig3, fig4, fig5, table11_12, table13_14, table15_16, table17_18, table19_20,
    table7_8, table9_10, ExperimentConfig,
};
use coconut::prelude::{Report, SystemKind};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0x1E57,
        full_sweep: false,
        jobs: None,
    }
}

#[test]
fn tables_7_to_10_show_the_corda_gap() {
    // Corda's rate-dependent collapse needs a window long enough for the
    // ingress-rate estimator to engage.
    let cfg = ExperimentConfig {
        scale: 0.1,
        ..cfg()
    };
    let os = table7_8(&cfg);
    let ent = table9_10(&cfg);
    // Paper: OS 4.08 vs Enterprise 12.84 at RL = 20 — a ≥ 2× gap.
    assert!(ent.rows[0].mtps.mean > os.rows[0].mtps.mean * 2.0);
    // Paper: Enterprise is flat across RL (12.84 vs 13.51); OS collapses.
    // (At the paper's 300 s scale the ratio is ≈ 1.05; short windows
    // admit a bit more spread.)
    let ent_ratio = ent.rows[1].mtps.mean / ent.rows[0].mtps.mean.max(0.01);
    assert!((0.4..4.0).contains(&ent_ratio), "Ent flat-ish: {ent_ratio}");
    assert!(
        os.rows[1].mtps.mean < os.rows[0].mtps.mean,
        "OS collapses at RL=160"
    );
}

#[test]
fn tables_11_12_bitshares_hits_the_offered_rate() {
    let t = table11_12(&cfg());
    // Paper: 1,599.89 MTPS at RL = 1600 with MFLS ≈ block interval.
    assert!(t.rows[0].mtps.mean > 1_200.0, "got {}", t.rows[0].mtps.mean);
    assert!(
        (0.5..2.5).contains(&t.rows[0].mfls.mean),
        "MFLS ≈ 1 s block interval, got {}",
        t.rows[0].mfls.mean
    );
    // All transactions received (Table 12).
    assert!(t.rows[0].delivery_ratio() > 0.95);
}

#[test]
fn tables_13_14_fabric_scales_to_the_load_then_saturates() {
    // The overload backlog needs a few seconds to grow visibly.
    let cfg = ExperimentConfig {
        scale: 0.05,
        ..cfg()
    };
    let t = table13_14(&cfg);
    let rl800 = &t.rows[0];
    let rl1600 = &t.rows[1];
    // Paper: 801 MTPS at RL 800 (everything received, sub-second MFLS).
    assert!(
        rl800.delivery_ratio() > 0.95,
        "RL800 delivery {}",
        rl800.delivery_ratio()
    );
    assert!(rl800.mfls.mean < 1.5, "RL800 MFLS {}", rl800.mfls.mean);
    // Paper: 1,285 MTPS at RL 1600 with growing latency and some loss.
    assert!(
        rl1600.mtps.mean > rl800.mtps.mean,
        "more load, more throughput"
    );
    assert!(rl1600.mfls.mean > rl800.mfls.mean, "overload grows latency");
}

#[test]
fn tables_15_16_quorum_blockperiod_cliff() {
    let cfg = ExperimentConfig {
        scale: 0.08, // BP = 5 s needs several block periods of window
        ..self::cfg()
    };
    let t = table15_16(&cfg);
    assert_eq!(t.rows[0].mtps.mean, 0.0, "BP=2s: total liveness failure");
    assert_eq!(t.rows[0].received.mean, 0.0);
    assert!(t.rows[1].mtps.mean > 0.0, "BP=5s works");
    assert!(
        t.rows[1].delivery_ratio() < 1.0,
        "but loses some transactions"
    );
}

#[test]
fn tables_17_18_sawtooth_load_collapse_and_pd_insensitivity() {
    // PD = 10 s needs a window several publishing delays long.
    let cfg = ExperimentConfig {
        scale: 0.15,
        ..cfg()
    };
    let t = table17_18(&cfg);
    // Rows: (RL200,PD1), (RL1600,PD1), (RL200,PD10), (RL1600,PD10).
    let rl200_pd1 = &t.rows[0];
    let rl1600_pd1 = &t.rows[1];
    let rl200_pd10 = &t.rows[2];
    assert!(
        rl1600_pd1.mtps.mean < rl200_pd1.mtps.mean,
        "RL1600 {} must be below RL200 {}",
        rl1600_pd1.mtps.mean,
        rl200_pd1.mtps.mean
    );
    // Paper: "adjusting block_publishing_delay does not reveal any
    // significant difference" — same order of magnitude.
    let ratio = rl200_pd10.mtps.mean / rl200_pd1.mtps.mean.max(0.01);
    assert!((0.2..5.0).contains(&ratio), "PD sweep ratio {ratio}");
    // Massive loss at both loads (Table 18).
    assert!(rl200_pd1.delivery_ratio() < 0.8);
}

#[test]
fn tables_19_20_diem_minor_blocksize_impact_and_heavy_loss() {
    let t = table19_20(&cfg());
    let rl200_bs100 = &t.rows[0];
    let rl200_bs2000 = &t.rows[2];
    // Paper: max_block_size has "only a minor impact" but BS=2000 ≥ BS=100.
    assert!(rl200_bs2000.mtps.mean + 1.0 >= rl200_bs100.mtps.mean);
    // Heavy loss at every setting (Table 20).
    for row in &t.rows {
        assert!(
            row.delivery_ratio() < 0.8,
            "{}: Diem must lose transactions, got {}",
            row.block_param,
            row.delivery_ratio()
        );
    }
}

#[test]
fn fig5_scalability_shapes() {
    let f = fig5(&cfg(), None);
    // §5.8.2: Fabric and Sawtooth fail completely at 16 and 32 nodes.
    for n in [16, 32] {
        assert_eq!(f.mtps_of(SystemKind::Fabric, n), Some(0.0), "Fabric n={n}");
        assert_eq!(
            f.mtps_of(SystemKind::Sawtooth, n),
            Some(0.0),
            "Sawtooth n={n}"
        );
    }
    // BitShares shows "only marginal fluctuations".
    let b8 = f.mtps_of(SystemKind::Bitshares, 8).unwrap();
    let b32 = f.mtps_of(SystemKind::Bitshares, 32).unwrap();
    assert!(b8 > 0.0 && b32 > 0.0);
    assert!(
        (b32 - b8).abs() / b8 < 0.5,
        "BitShares roughly flat: {b8} vs {b32}"
    );
    // Corda Enterprise declines but keeps working.
    let c8 = f.mtps_of(SystemKind::CordaEnterprise, 8).unwrap();
    let c32 = f.mtps_of(SystemKind::CordaEnterprise, 32).unwrap();
    assert!(c8 > 0.0 && c32 > 0.0, "Corda Ent processes at all scales");
    assert!(c32 < c8, "but declines with n: {c8} vs {c32}");
    // The rendered table marks failures.
    assert!(f.render().contains("fail"));
}

/// The configuration of the paper goldens, the same cells as
/// `repro <target> --scale 0.02 --reps 1 --seed 49344 --jobs 2`.
fn golden_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

/// Every paper table as `(file stem, JSON)`, rendered as `repro tables
/// --out` writes them.
fn paper_tables() -> Vec<(&'static str, String)> {
    let cfg = golden_cfg();
    vec![
        ("table7_8", table7_8(&cfg).to_json()),
        ("table9_10", table9_10(&cfg).to_json()),
        ("table11_12", table11_12(&cfg).to_json()),
        ("table13_14", table13_14(&cfg).to_json()),
        ("table15_16", table15_16(&cfg).to_json()),
        ("table17_18", table17_18(&cfg).to_json()),
        ("table19_20", table19_20(&cfg).to_json()),
    ]
}

/// Figures 3, 4 and 5 as `repro fig3` / `repro fig4` / `repro fig5` write
/// them (Figure 4 starts from Figure 3's best configurations; a standalone
/// Figure 5 uses each system's default DoNothing configuration).
fn paper_figures() -> Vec<(&'static str, String)> {
    let cfg = golden_cfg();
    let base = fig3(&cfg);
    let f4 = fig4(&cfg, Some(&base));
    let f5 = fig5(&cfg, None);
    vec![
        ("fig3", base.to_json()),
        ("fig4", f4.to_json()),
        ("fig5", f5.to_json()),
    ]
}

const PAPER_GOLDEN_DIR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/paper_scale002_seed_c0c0"
);

fn assert_matches_golden(files: Vec<(&'static str, String)>) {
    for (name, json) in files {
        let path = format!("{PAPER_GOLDEN_DIR}/{name}.json");
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            json.trim_end(),
            golden.trim_end(),
            "{name} JSON drifted from {path}; if the change is intentional run: \
             cargo test --release --test integration_experiments regenerate_paper_goldens -- --ignored"
        );
    }
}

/// The paper tables' JSON, pinned byte for byte. These are the only
/// goldens that drive benchmark units back to back on one system, so they
/// cover the client loop's shifted, re-tagged schedules.
#[test]
fn paper_tables_json_match_golden_files() {
    assert_matches_golden(paper_tables());
}

/// Figures 3, 4 and 5, pinned byte for byte (Figure 5 runs single
/// benchmarks, not units). Release-only: the full grids are too slow
/// unoptimized, and CI runs the suite in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full figure grids are release-only; CI runs them via cargo test --release"
)]
fn paper_figures_json_match_golden_files() {
    assert_matches_golden(paper_figures());
}

/// Rewrites the paper goldens from the current implementation. Run only
/// when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/paper_scale002_seed_c0c0/; run explicitly after intentional changes"]
fn regenerate_paper_goldens() {
    std::fs::create_dir_all(PAPER_GOLDEN_DIR).unwrap();
    for (name, mut json) in paper_tables().into_iter().chain(paper_figures()) {
        json.push('\n');
        std::fs::write(format!("{PAPER_GOLDEN_DIR}/{name}.json"), json).unwrap();
    }
}

const ABLATIONS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/ablations_scale002_seed_c0c0.txt"
);

/// Every ablation table as `repro ablations --scale 0.02 --reps 1 --seed
/// 49344` prints it to stdout.
fn ablation_tables() -> String {
    all_ablations(&golden_cfg())
        .iter()
        .map(|(title, arms)| render_arms(title, arms) + "\n")
        .collect()
}

/// The ablation tables, pinned byte for byte. These arms are the only runs
/// that set the chain configs' real choices directly: `peers: 16`, four
/// `max_message_count` values, `queue_limit`, `stall_anomaly`,
/// `spike_interval` and `serial_signing` on Enterprise.
///
/// The two Diem arms are identical at this scale: the first spike (25 s)
/// falls after the 6 s send window. `diem::tests::spiking_delays_confirmations`
/// remains the guard for `spike_interval`.
#[test]
fn ablation_tables_match_golden_file() {
    let golden = std::fs::read_to_string(ABLATIONS_GOLDEN)
        .unwrap_or_else(|e| panic!("{ABLATIONS_GOLDEN}: {e}"));
    assert_eq!(
        ablation_tables(),
        golden,
        "ablation tables drifted from {ABLATIONS_GOLDEN}; if the change is intentional run: \
         cargo test --release --test integration_experiments regenerate_ablations_golden -- --ignored"
    );
}

/// Rewrites the ablations golden from the current implementation. Run only
/// when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/ablations_scale002_seed_c0c0.txt; run explicitly after intentional changes"]
fn regenerate_ablations_golden() {
    std::fs::write(ABLATIONS_GOLDEN, ablation_tables()).unwrap();
}
