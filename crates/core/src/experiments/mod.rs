//! Reproductions of every figure and table in the paper's evaluation
//! (§5): Figure 3 (best-configuration heat map), Figure 4 (emulated
//! latency), Figure 5 (scalability), Tables 7–20, plus the ablations
//! called out in DESIGN.md.
//!
//! All experiments accept an [`ExperimentConfig`] whose `scale` shrinks the
//! paper's 300 s send window proportionally (0.1 → 30 s), keeping rates and
//! parameters identical — throughput and latency *shapes* are preserved
//! while runs stay cheap.

pub mod ablations;
pub mod bottleneck;
pub mod chaos;
pub mod churn;
pub mod contention;
pub mod figures;
pub mod grayfail;
pub mod harness;
pub mod overload;
pub mod scenarios;
pub mod tables;

pub use ablations::{
    ablation_bitshares_ops, ablation_corda_signing, ablation_diem_spiking,
    ablation_endtoend_vs_node, ablation_fabric_block_cutting, ablation_quorum_stall,
    ablation_sawtooth_queue, all_ablations,
};
pub use bottleneck::{
    attribute, bottleneck, bottleneck_for, BottleneckCell, BottleneckResult, BottleneckVerdict,
};
pub use chaos::{
    byzantine_domain, chaos, chaos_for, chaos_sweep, fault_domain, severities, ByzantineDomain,
    ChaosCell, ChaosResult, DegradationCurve, FaultDomain, FaultKind, SweepCell, SweepResult,
};
pub use churn::{churn, churn_for, ChurnArm, ChurnCell, ChurnResult};
pub use contention::{
    contention, contention_for, workload_named, ContentionCell, ContentionLevel, ContentionResult,
    ACCOUNT_POOL, LEVELS, WORKLOADS,
};
pub use figures::{fig3, fig4, fig5, Fig3Result, Fig5Result};
pub use grayfail::{grayfail, grayfail_for, GrayKind, GrayfailCell, GrayfailResult};
pub use overload::{
    overload, overload_curves_for, overload_for, overload_probes_for, tight_limits,
    MetastableProbe, OverloadCell, OverloadCurve, OverloadResult, ProbeArm,
};
pub use scenarios::{
    render_scenario_list, scenario_library, scenario_names, scenarios, scenarios_for,
    NamedScenario, ScenarioCell, ScenarioResult,
};
pub use tables::{
    table11_12, table13_14, table15_16, table17_18, table19_20, table7_8, table9_10, TableResult,
};

/// Shared experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Window scale relative to the paper's 300 s / 330 s (1.0 = paper).
    pub scale: f64,
    /// Repetitions per configuration (the paper uses 3).
    pub repetitions: u32,
    /// Root seed.
    pub seed: u64,
    /// `true` → sweep the paper's full parameter grid; `false` → a reduced
    /// grid (min/max rate, two block parameters) that preserves the best
    /// cells.
    pub full_sweep: bool,
    /// Worker threads for grid execution (`None` → one per CPU). Results
    /// are byte-identical for every setting — see [`crate::exec`].
    pub jobs: Option<usize>,
}

impl Default for ExperimentConfig {
    /// Scale 0.1 (30 s windows), 2 repetitions, reduced sweep.
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.1,
            repetitions: 2,
            seed: 0xC0C0_0717,
            full_sweep: false,
            jobs: None,
        }
    }
}

impl ExperimentConfig {
    /// A configuration for fast CI runs / Criterion benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 0.02,
            repetitions: 1,
            ..ExperimentConfig::default()
        }
    }

    /// The paper's full-fidelity configuration (300 s, r = 3, full sweep).
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: 1.0,
            repetitions: 3,
            seed: 0xC0C0_0717,
            full_sweep: true,
            jobs: None,
        }
    }

    /// The client windows at this scale.
    pub fn windows(&self) -> crate::client::Windows {
        crate::client::Windows::scaled(self.scale)
    }
}
