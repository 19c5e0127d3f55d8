//! System selection and parameter settings (the paper's §4.4).

use coconut_chains::bitshares::{Bitshares, BitsharesConfig};
use coconut_chains::corda::{Corda, CordaConfig};
use coconut_chains::diem::{Diem, DiemConfig};
use coconut_chains::fabric::{Fabric, FabricConfig};
use coconut_chains::quorum::{Quorum, QuorumConfig};
use coconut_chains::runtime::PoolLimits;
use coconut_chains::sawtooth::{Sawtooth, SawtoothConfig};
use coconut_chains::BlockchainSystem;
use coconut_simnet::NetConfig;
use coconut_types::SimDuration;

/// One of the seven benchmarked blockchain systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemKind {
    /// Corda Open Source 4.8.6.
    CordaOs,
    /// Corda Enterprise 4.8.6.
    CordaEnterprise,
    /// BitShares (Graphene).
    Bitshares,
    /// Hyperledger Fabric 2.2.1 (Raft).
    Fabric,
    /// ConsenSys Quorum (Istanbul BFT).
    Quorum,
    /// Hyperledger Sawtooth 1.2.6 (PBFT).
    Sawtooth,
    /// Diem.
    Diem,
}

impl SystemKind {
    /// All seven systems in the paper's column order (Figure 3).
    pub const ALL: [SystemKind; 7] = [
        SystemKind::CordaOs,
        SystemKind::CordaEnterprise,
        SystemKind::Bitshares,
        SystemKind::Fabric,
        SystemKind::Quorum,
        SystemKind::Sawtooth,
        SystemKind::Diem,
    ];

    /// Display name as used in the paper.
    pub const fn label(self) -> &'static str {
        match self {
            SystemKind::CordaOs => "Corda OS",
            SystemKind::CordaEnterprise => "Corda Enterprise",
            SystemKind::Bitshares => "BitShares",
            SystemKind::Fabric => "Fabric",
            SystemKind::Quorum => "Quorum",
            SystemKind::Sawtooth => "Sawtooth",
            SystemKind::Diem => "Diem",
        }
    }

    /// The aggregate rate limiters the paper applies to this system
    /// (transactions — payloads — per second across all four clients;
    /// §4.4: {200, 400, 800, 1600}, one tenth of that for both Cordas).
    pub fn rate_limiters(self) -> Vec<f64> {
        match self {
            SystemKind::CordaOs | SystemKind::CordaEnterprise => vec![20.0, 40.0, 80.0, 160.0],
            _ => vec![200.0, 400.0, 800.0, 1600.0],
        }
    }

    /// The block finalization parameter sweep of Tables 5 and 6, or the
    /// operation/batch-size sweep where that is the paper's knob.
    pub fn block_params(self) -> Vec<BlockParam> {
        match self {
            SystemKind::Fabric => [100, 500, 1000, 2000]
                .into_iter()
                .map(BlockParam::MaxMessageCount)
                .collect(),
            SystemKind::Diem => [100, 500, 1000, 2000]
                .into_iter()
                .map(BlockParam::MaxBlockSize)
                .collect(),
            SystemKind::Bitshares => [1, 2, 5, 10]
                .into_iter()
                .map(|s| BlockParam::BlockInterval(SimDuration::from_secs(s)))
                .collect(),
            SystemKind::Quorum => [1, 2, 5, 10]
                .into_iter()
                .map(|s| BlockParam::BlockPeriod(SimDuration::from_secs(s)))
                .collect(),
            SystemKind::Sawtooth => [1, 2, 5, 10]
                .into_iter()
                .map(|s| BlockParam::PublishingDelay(SimDuration::from_secs(s)))
                .collect(),
            SystemKind::CordaOs | SystemKind::CordaEnterprise => vec![BlockParam::None],
        }
    }

    /// Operations per transaction (BitShares) / transactions per batch
    /// (Sawtooth) evaluated in the paper; `[1]` for the other systems.
    pub fn ops_per_tx_values(self) -> Vec<u32> {
        match self {
            SystemKind::Bitshares | SystemKind::Sawtooth => vec![1, 50, 100],
            _ => vec![1],
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A block-finalization parameter setting (Tables 5 and 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockParam {
    /// No block parameter (Corda is block-less).
    None,
    /// Fabric's `MaxMessageCount`.
    MaxMessageCount(usize),
    /// Diem's `max_block_size`.
    MaxBlockSize(usize),
    /// BitShares' `block_interval`.
    BlockInterval(SimDuration),
    /// Quorum's `istanbul.blockperiod`.
    BlockPeriod(SimDuration),
    /// Sawtooth's `sawtooth.consensus.pbft.block_publishing_delay`.
    PublishingDelay(SimDuration),
}

impl std::fmt::Display for BlockParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockParam::None => write!(f, "-"),
            BlockParam::MaxMessageCount(n) => write!(f, "MM={n}"),
            BlockParam::MaxBlockSize(n) => write!(f, "BS={n}"),
            BlockParam::BlockInterval(d) => write!(f, "BI={}s", d.as_secs_f64()),
            BlockParam::BlockPeriod(d) => write!(f, "BP={}s", d.as_secs_f64()),
            BlockParam::PublishingDelay(d) => write!(f, "PD={}s", d.as_secs_f64()),
        }
    }
}

/// Deployment-level settings shared by all systems.
#[derive(Debug, Clone)]
pub struct SystemSetup {
    /// Number of blockchain nodes (`None` → the paper's Table 4 baseline).
    pub nodes: Option<u32>,
    /// Network characteristics ([`NetConfig::lan`] baseline, or
    /// [`NetConfig::emulated_latency`] for §5.8.1).
    pub net: NetConfig,
    /// Block finalization parameter.
    pub block_param: BlockParam,
    /// Admission-control override: replaces the per-system default
    /// [`PoolLimits`] when set (overload experiments tighten the pools so
    /// saturation manifests as `Busy` backpressure rather than unbounded
    /// queueing).
    pub admission: Option<PoolLimits>,
    /// Pre-provisioned standby nodes per system (membership-churn
    /// experiments admit them at runtime via
    /// [`BlockchainSystem::join_node`]).
    pub standby: u32,
}

impl Default for SystemSetup {
    fn default() -> Self {
        SystemSetup {
            nodes: None,
            net: NetConfig::lan(),
            block_param: BlockParam::None,
            admission: None,
            standby: 0,
        }
    }
}

impl SystemSetup {
    /// Baseline setup with a specific block parameter.
    pub fn with_block_param(param: BlockParam) -> Self {
        SystemSetup {
            block_param: param,
            ..SystemSetup::default()
        }
    }

    /// Overrides the node count (scalability experiments).
    pub fn with_nodes(mut self, n: u32) -> Self {
        self.nodes = Some(n);
        self
    }

    /// Overrides the network configuration.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Overrides every system's bounded-pool parameters.
    pub fn with_admission(mut self, limits: PoolLimits) -> Self {
        self.admission = Some(limits);
        self
    }

    /// Pre-provisions standby nodes for membership-churn experiments.
    pub fn with_standby(mut self, k: u32) -> Self {
        self.standby = k;
        self
    }
}

/// Builds a fresh deployment of `kind` ("re-provisioning" in the paper's
/// terms) with the given setup and seed.
///
/// # Panics
///
/// Panics when `setup.block_param` names a parameter the system does not
/// have (e.g. `MaxMessageCount` for Quorum).
pub fn build_system(
    kind: SystemKind,
    setup: &SystemSetup,
    seed: u64,
) -> Box<dyn BlockchainSystem + Send> {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => {
            let mut cfg = if kind == SystemKind::CordaOs {
                CordaConfig::open_source()
            } else {
                CordaConfig::enterprise()
            };
            assert!(
                matches!(setup.block_param, BlockParam::None),
                "Corda has no block parameter (got {})",
                setup.block_param
            );
            if let Some(n) = setup.nodes {
                cfg.nodes = n;
            }
            cfg.net = setup.net.clone();
            if let Some(limits) = setup.admission {
                cfg.pool = limits;
            }
            cfg.standby = setup.standby;
            Box::new(Corda::new(cfg, seed))
        }
        SystemKind::Bitshares => {
            let mut cfg = BitsharesConfig::default();
            match setup.block_param {
                BlockParam::BlockInterval(d) => cfg.block_interval = d,
                BlockParam::None => {}
                other => panic!("BitShares takes block_interval, not {other}"),
            }
            if let Some(n) = setup.nodes {
                cfg.witnesses = n.saturating_sub(1).max(1);
            }
            cfg.net = setup.net.clone();
            if let Some(limits) = setup.admission {
                cfg.pool = limits;
            }
            cfg.standby = setup.standby;
            Box::new(Bitshares::new(cfg, seed))
        }
        SystemKind::Fabric => {
            let mut cfg = FabricConfig::default();
            match setup.block_param {
                BlockParam::MaxMessageCount(n) => cfg.max_message_count = n,
                BlockParam::None => {}
                other => panic!("Fabric takes MaxMessageCount, not {other}"),
            }
            if let Some(n) = setup.nodes {
                cfg.peers = n;
            }
            cfg.net = setup.net.clone();
            if let Some(limits) = setup.admission {
                cfg.pool = limits;
            }
            cfg.standby = setup.standby;
            Box::new(Fabric::new(cfg, seed))
        }
        SystemKind::Quorum => {
            let mut cfg = QuorumConfig::default();
            match setup.block_param {
                BlockParam::BlockPeriod(d) => cfg.block_period = d,
                BlockParam::None => {}
                other => panic!("Quorum takes blockperiod, not {other}"),
            }
            if let Some(n) = setup.nodes {
                cfg.nodes = n;
            }
            cfg.net = setup.net.clone();
            if let Some(limits) = setup.admission {
                cfg.pool = limits;
            }
            cfg.standby = setup.standby;
            Box::new(Quorum::new(cfg, seed))
        }
        SystemKind::Sawtooth => {
            let mut cfg = SawtoothConfig::default();
            match setup.block_param {
                BlockParam::PublishingDelay(d) => cfg.publishing_delay = d,
                BlockParam::None => {}
                other => panic!("Sawtooth takes block_publishing_delay, not {other}"),
            }
            if let Some(n) = setup.nodes {
                cfg.nodes = n;
            }
            cfg.net = setup.net.clone();
            if let Some(limits) = setup.admission {
                cfg.pool = limits;
            }
            cfg.standby = setup.standby;
            Box::new(Sawtooth::new(cfg, seed))
        }
        SystemKind::Diem => {
            let mut cfg = DiemConfig::default();
            match setup.block_param {
                BlockParam::MaxBlockSize(n) => cfg.max_block_size = n,
                BlockParam::None => {}
                other => panic!("Diem takes max_block_size, not {other}"),
            }
            if let Some(n) = setup.nodes {
                cfg.nodes = n;
            }
            cfg.net = setup.net.clone();
            if let Some(limits) = setup.admission {
                cfg.pool = limits;
            }
            cfg.standby = setup.standby;
            Box::new(Diem::new(cfg, seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::{ClientId, ClientTx, Payload, SimTime, ThreadId, TxId};

    #[test]
    fn seven_systems_with_paper_labels() {
        assert_eq!(SystemKind::ALL.len(), 7);
        assert_eq!(SystemKind::CordaOs.label(), "Corda OS");
        assert_eq!(SystemKind::Diem.to_string(), "Diem");
    }

    #[test]
    fn corda_rate_limiters_are_one_tenth() {
        assert_eq!(
            SystemKind::CordaOs.rate_limiters(),
            vec![20.0, 40.0, 80.0, 160.0]
        );
        assert_eq!(
            SystemKind::Fabric.rate_limiters(),
            vec![200.0, 400.0, 800.0, 1600.0]
        );
    }

    #[test]
    fn block_param_sweeps_match_tables_5_and_6() {
        assert_eq!(SystemKind::Fabric.block_params().len(), 4);
        assert!(matches!(
            SystemKind::Fabric.block_params()[0],
            BlockParam::MaxMessageCount(100)
        ));
        assert!(matches!(
            SystemKind::Quorum.block_params()[2],
            BlockParam::BlockPeriod(d) if d == SimDuration::from_secs(5)
        ));
        assert_eq!(SystemKind::CordaOs.block_params(), vec![BlockParam::None]);
    }

    #[test]
    fn ops_sweeps() {
        assert_eq!(SystemKind::Bitshares.ops_per_tx_values(), vec![1, 50, 100]);
        assert_eq!(SystemKind::Sawtooth.ops_per_tx_values(), vec![1, 50, 100]);
        assert_eq!(SystemKind::Fabric.ops_per_tx_values(), vec![1]);
    }

    #[test]
    fn every_system_builds_and_accepts_a_tx() {
        for kind in SystemKind::ALL {
            let setup = SystemSetup::default();
            let mut sys = build_system(kind, &setup, 1);
            assert_eq!(sys.name(), kind.label());
            let tx = ClientTx::single(
                TxId::new(ClientId(0), 0),
                ThreadId(0),
                Payload::DoNothing,
                SimTime::ZERO,
            );
            sys.run_until(SimTime::from_secs(2));
            sys.submit(SimTime::from_secs(2), tx);
            sys.run_until(SimTime::from_secs(4));
            assert!(sys.stats().accepted >= 1, "{kind} accepted nothing");
        }
    }

    #[test]
    fn node_override_applies() {
        let setup = SystemSetup::default().with_nodes(8);
        for kind in [SystemKind::Fabric, SystemKind::Quorum, SystemKind::Diem] {
            let sys = build_system(kind, &setup, 1);
            assert_eq!(sys.node_count(), 8, "{kind}");
        }
        // BitShares runs n − 1 witnesses:
        let bs = build_system(SystemKind::Bitshares, &setup, 1);
        assert_eq!(bs.node_count(), 7);
    }

    #[test]
    #[should_panic(expected = "Fabric takes MaxMessageCount")]
    fn wrong_param_rejected() {
        let setup =
            SystemSetup::with_block_param(BlockParam::BlockPeriod(SimDuration::from_secs(1)));
        let _ = build_system(SystemKind::Fabric, &setup, 1);
    }

    #[test]
    fn block_param_display() {
        assert_eq!(BlockParam::MaxMessageCount(100).to_string(), "MM=100");
        assert_eq!(
            BlockParam::BlockInterval(SimDuration::from_secs(5)).to_string(),
            "BI=5s"
        );
        assert_eq!(BlockParam::None.to_string(), "-");
    }
}
