//! Ablations: isolating the design choices and anomaly models that
//! DESIGN.md calls out. Each returns a small set of labelled results so
//! the bench harness can print paired comparisons.

use coconut_chains::bitshares::{Bitshares, BitsharesConfig};
use coconut_chains::corda::{Corda, CordaConfig};
use coconut_chains::diem::{Diem, DiemConfig};
use coconut_chains::fabric::{Fabric, FabricConfig};
use coconut_chains::quorum::{Quorum, QuorumConfig};
use coconut_chains::sawtooth::{Sawtooth, SawtoothConfig};
use coconut_chains::BlockchainSystem;
use coconut_types::{PayloadKind, SimDuration, SimTime};

use crate::runner::{paper_client, RepMeasurement};

use super::ExperimentConfig;

/// One labelled ablation arm.
#[derive(Debug, Clone)]
pub struct AblationArm {
    /// What this arm varied.
    pub label: String,
    /// The measurement at that setting.
    pub measurement: RepMeasurement,
}

/// Renders a list of arms as a compact table.
pub fn render_arms(title: &str, arms: &[AblationArm]) -> String {
    let mut out = format!(
        "{title}\n| Arm | MTPS | MFLS (s) | Received | Expected |\n|---|---|---|---|---|\n"
    );
    for a in arms {
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.0} | {:.0} |\n",
            a.label,
            a.measurement.mtps,
            a.measurement.mfls,
            a.measurement.received,
            a.measurement.expected
        ));
    }
    out
}

/// One arm: the paper's client sending `benchmark` to the custom-configured
/// `system`, run as a timeline with seed `cfg.seed`.
fn measure(
    system: &mut (dyn BlockchainSystem + Send),
    benchmark: PayloadKind,
    rate: f64,
    ops: u32,
    cfg: &ExperimentConfig,
) -> RepMeasurement {
    let timeline = paper_client(benchmark, rate, ops, cfg.windows()).build();
    RepMeasurement::of(&timeline.run_on(system, cfg.seed).run, ops)
}

/// All seven ablations as `(title, arms)` pairs, run on the grid executor
/// (`cfg.jobs` workers). Every ablation seeds its systems and its client
/// loop from `cfg.seed` directly — not from its position in this list — and
/// draws each arm's schedule from seed stream `("schedule", 0)` of
/// `cfg.seed`, so the parallel run is identical to calling each function by
/// hand.
pub fn all_ablations(cfg: &ExperimentConfig) -> Vec<(&'static str, Vec<AblationArm>)> {
    type AblationFn = fn(&ExperimentConfig) -> Vec<AblationArm>;
    const ABLATIONS: [(&str, AblationFn); 7] = [
        ("Ablation: Corda signing discipline", ablation_corda_signing),
        ("Ablation: Sawtooth queue bound", ablation_sawtooth_queue),
        ("Ablation: Quorum txpool stall", ablation_quorum_stall),
        ("Ablation: Diem spiking", ablation_diem_spiking),
        (
            "Ablation: BitShares operations per tx",
            ablation_bitshares_ops,
        ),
        (
            "Ablation: Fabric block cutting",
            ablation_fabric_block_cutting,
        ),
        (
            "Ablation: end-to-end vs node-side measurement",
            ablation_endtoend_vs_node,
        ),
    ];
    crate::exec::run_grid(&ABLATIONS, cfg.jobs, |_, &(title, f)| (title, f(cfg)))
}

/// Corda signing discipline: serial (OS) vs parallel (Enterprise hardware
/// profile with serial signing forced) — isolates §5.1 reason 2.
pub fn ablation_corda_signing(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for (label, serial) in [("parallel signing", false), ("serial signing", true)] {
        let mut chain_cfg = CordaConfig::enterprise();
        chain_cfg.serial_signing = serial;
        let mut sys = Corda::new(chain_cfg, cfg.seed);
        let m = measure(&mut sys, PayloadKind::KeyValueSet, 40.0, 1, cfg);
        arms.push(AblationArm {
            label: label.into(),
            measurement: m,
        });
    }
    arms
}

/// Sawtooth's bounded validator queue: the paper-like bound vs an
/// effectively unbounded queue — isolates the §5.6 rejection behaviour.
pub fn ablation_sawtooth_queue(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for (label, limit) in [
        ("queue limit 100", 100usize),
        ("unbounded queue", usize::MAX / 2),
    ] {
        let chain_cfg = SawtoothConfig {
            queue_limit: limit,
            ..Default::default()
        };
        let mut sys = Sawtooth::new(chain_cfg, cfg.seed);
        let m = measure(&mut sys, PayloadKind::DoNothing, 800.0, 1, cfg);
        arms.push(AblationArm {
            label: label.into(),
            measurement: m,
        });
    }
    arms
}

/// Quorum's txpool stall anomaly on/off at blockperiod 1 s under load
/// (§5.5).
pub fn ablation_quorum_stall(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for (label, anomaly) in [("stall anomaly on", true), ("stall anomaly off", false)] {
        let chain_cfg = QuorumConfig {
            block_period: SimDuration::from_secs(1),
            stall_anomaly: anomaly,
            ..Default::default()
        };
        let mut sys = Quorum::new(chain_cfg, cfg.seed);
        let m = measure(&mut sys, PayloadKind::DoNothing, 1600.0, 1, cfg);
        arms.push(AblationArm {
            label: label.into(),
            measurement: m,
        });
    }
    arms
}

/// Diem's spiking validator stalls on/off (§5.7).
pub fn ablation_diem_spiking(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for (label, interval) in [
        ("spiking on", Some(SimDuration::from_secs(25))),
        ("spiking off", None),
    ] {
        let chain_cfg = DiemConfig {
            spike_interval: interval,
            ..Default::default()
        };
        let mut sys = Diem::new(chain_cfg, cfg.seed);
        let m = measure(&mut sys, PayloadKind::DoNothing, 200.0, 1, cfg);
        arms.push(AblationArm {
            label: label.into(),
            measurement: m,
        });
    }
    arms
}

/// BitShares operations per transaction: 1 / 50 / 100 (§5.3, Table 2).
pub fn ablation_bitshares_ops(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for ops in [1u32, 50, 100] {
        let mut sys = Bitshares::new(BitsharesConfig::default(), cfg.seed);
        let m = measure(&mut sys, PayloadKind::DoNothing, 1600.0, ops, cfg);
        arms.push(AblationArm {
            label: format!("{ops} op(s)/tx"),
            measurement: m,
        });
    }
    arms
}

/// Fabric's block cutting: MaxMessageCount ∈ {100, 500, 1000, 2000}
/// (Table 5; §5.4 finds only minor impact).
pub fn ablation_fabric_block_cutting(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for mm in [100usize, 500, 1000, 2000] {
        let chain_cfg = FabricConfig {
            max_message_count: mm,
            ..Default::default()
        };
        let mut sys = Fabric::new(chain_cfg, cfg.seed);
        sys.run_until(SimTime::from_secs(2));
        let m = measure(&mut sys, PayloadKind::DoNothing, 1600.0, 1, cfg);
        arms.push(AblationArm {
            label: format!("MM={mm}"),
            measurement: m,
        });
    }
    arms
}

/// End-to-end (client-side) vs node-side measurement: the paper's core
/// methodological claim (§5.8.2). At 16 peers Fabric's chain keeps
/// finalizing but clients receive nothing — node-side metrics would hide
/// the outage.
pub fn ablation_endtoend_vs_node(cfg: &ExperimentConfig) -> Vec<AblationArm> {
    let chain_cfg = FabricConfig {
        peers: 16,
        ..Default::default()
    };
    let mut sys = Fabric::new(chain_cfg, cfg.seed);
    sys.run_until(SimTime::from_secs(2));
    let client_side = measure(&mut sys, PayloadKind::DoNothing, 400.0, 1, cfg);
    // Node-side view: what the chain itself processed.
    let node_side_txs = sys.valid_txs() + sys.invalid_txs();
    let send_secs = cfg.windows().send.as_secs_f64();
    let node_side = RepMeasurement {
        mtps: node_side_txs as f64 / send_secs,
        mfls: 0.0, // node logs cannot produce an end-to-end latency
        duration: send_secs,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        received: node_side_txs as f64,
        expected: client_side.expected,
        live: true,
    };
    vec![
        AblationArm {
            label: "client-side (end-to-end)".into(),
            measurement: client_side,
        },
        AblationArm {
            label: "node-side (log extraction)".into(),
            measurement: node_side,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.01,
            repetitions: 1,
            seed: 5,
            full_sweep: false,
            jobs: None,
        }
    }

    #[test]
    fn serial_signing_is_slower() {
        let arms = ablation_corda_signing(&tiny());
        assert!(arms[0].measurement.mtps > arms[1].measurement.mtps);
    }

    #[test]
    fn queue_bound_protects_timeliness() {
        // The bound rejects load at the door; the unbounded queue accepts
        // everything and drowns, confirming no more within the window —
        // the paper's §5.6 dynamic. Needs a window spanning a few blocks.
        let cfg = ExperimentConfig {
            scale: 0.05,
            ..tiny()
        };
        let arms = ablation_sawtooth_queue(&cfg);
        let bounded = &arms[0].measurement;
        let unbounded = &arms[1].measurement;
        assert!(bounded.received > 0.0, "the bounded queue still confirms");
        assert!(unbounded.received > 0.0);
        // The bound keeps the confirmation latency down by rejecting load;
        // the unbounded queue lets waits grow instead.
        assert!(
            bounded.mfls <= unbounded.mfls,
            "bounded latency {} vs unbounded {}",
            bounded.mfls,
            unbounded.mfls
        );
    }

    #[test]
    fn quorum_stall_kills_throughput() {
        let arms = ablation_quorum_stall(&tiny());
        assert_eq!(arms[0].measurement.received, 0.0, "anomaly on → nothing");
        assert!(arms[1].measurement.received > 0.0, "anomaly off → progress");
    }

    #[test]
    fn endtoend_reveals_the_fabric_outage() {
        let arms = ablation_endtoend_vs_node(&tiny());
        assert_eq!(arms[0].measurement.received, 0.0, "clients see nothing");
        assert!(
            arms[1].measurement.received > 0.0,
            "the chain itself advanced"
        );
    }

    #[test]
    fn bitshares_ops_scale_throughput() {
        let arms = ablation_bitshares_ops(&tiny());
        assert!(arms[2].measurement.mtps > arms[0].measurement.mtps * 2.0);
    }

    #[test]
    fn render_includes_labels() {
        let arms = ablation_diem_spiking(&tiny());
        let out = render_arms("Diem spiking", &arms);
        assert!(out.contains("spiking on"));
        assert!(out.contains("MTPS"));
    }
}
