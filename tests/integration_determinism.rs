//! Reproducibility: the paper's central promise is that COCONUT makes
//! benchmarks fully reproducible. With the same seed, every system must
//! produce byte-identical metrics; different seeds must (generically)
//! differ.

use coconut::client::Windows;
use coconut::prelude::*;

fn spec(system: SystemKind) -> BenchmarkSpec {
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
    BenchmarkSpec::new(system, PayloadKind::KeyValueSet)
        .rate(rate)
        .block_param(param)
        .windows(Windows::scaled(0.02))
        .repetitions(2)
}

#[test]
fn identical_seeds_give_identical_metrics_for_every_system() {
    for system in SystemKind::ALL {
        let a = run_benchmark(&spec(system), 0xDEAD);
        let b = run_benchmark(&spec(system), 0xDEAD);
        assert_eq!(a.mtps.mean, b.mtps.mean, "{system} MTPS");
        assert_eq!(a.mfls.mean, b.mfls.mean, "{system} MFLS");
        assert_eq!(a.duration.mean, b.duration.mean, "{system} duration");
        assert_eq!(a.received.mean, b.received.mean, "{system} received");
        assert_eq!(a.mtps.sd, b.mtps.sd, "{system} MTPS SD");
    }
}

#[test]
fn different_seeds_perturb_at_least_latency() {
    // The phase offsets and link jitter depend on the seed; at least one
    // metric must differ for a system with stochastic latency.
    let a = run_benchmark(&spec(SystemKind::Fabric), 1);
    let b = run_benchmark(&spec(SystemKind::Fabric), 2);
    assert!(
        a.mfls.mean != b.mfls.mean || a.mtps.mean != b.mtps.mean,
        "different seeds should not be bit-identical"
    );
}

#[test]
fn repetitions_use_distinct_seeds() {
    // With 2 repetitions the SD is generically nonzero for a system with
    // randomized link latency under netem.
    let mut s = spec(SystemKind::Fabric);
    s.setup = s
        .setup
        .clone()
        .with_net(coconut_simnet::NetConfig::emulated_latency());
    let r = run_benchmark(&s, 3);
    assert!(
        r.mfls.sd > 0.0,
        "netem jitter must differ across repetitions (SD = {})",
        r.mfls.sd
    );
}

#[test]
fn unit_runs_are_deterministic_too() {
    use coconut::workload::BenchmarkUnit;
    let template = spec(SystemKind::Sawtooth);
    let a = run_unit(SystemKind::Sawtooth, BenchmarkUnit::KeyValue, &template, 7);
    let b = run_unit(SystemKind::Sawtooth, BenchmarkUnit::KeyValue, &template, 7);
    for (x, y) in a.benchmarks.iter().zip(&b.benchmarks) {
        assert_eq!(x.mtps.mean, y.mtps.mean);
        assert_eq!(x.received.mean, y.received.mean);
    }
}

#[test]
fn parallel_and_serial_execution_agree() {
    // run_many distributes work across threads; thread scheduling must not
    // leak into the results. Each spec's seed depends only on its content
    // (coconut::exec::cell_seed), so a hand-rolled sequential loop over
    // the same specs reproduces the pool's results exactly.
    let specs = vec![spec(SystemKind::Quorum), spec(SystemKind::Bitshares)];
    let parallel = coconut::runner::run_many(&specs, 11, None);
    let serial: Vec<_> = specs
        .iter()
        .map(|s| run_benchmark(s, coconut::exec::cell_seed(11, "run-many", s)))
        .collect();
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.mtps.mean, s.mtps.mean, "{}", p.system);
        assert_eq!(p.received.mean, s.received.mean, "{}", p.system);
    }
}

mod stores_everything {
    use coconut_chains::{BlockchainSystem, StageProbe, StageReport, SubmitOutcome, SystemStats};
    use coconut_consensus::{LivenessReport, SafetyReport};
    use coconut_simnet::{ByzantineBehaviour, FaultEvent};
    use coconut_types::{ClientTx, NodeId, Payload, SimTime, TxOutcome};

    /// Forwards every call but `listen_until`, so the system it wraps
    /// keeps the trait's default and stores every outcome, even those due
    /// after the client's listen end.
    pub struct StoresEverything(pub Box<dyn BlockchainSystem + Send>);

    impl BlockchainSystem for StoresEverything {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn node_count(&self) -> u32 {
            self.0.node_count()
        }
        fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
            self.0.submit(now, tx)
        }
        fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
            self.0.run_until(deadline)
        }
        fn stats(&self) -> SystemStats {
            self.0.stats()
        }
        fn preload(&mut self, payloads: &[Payload]) {
            self.0.preload(payloads)
        }
        fn ledger_state(&self) -> Option<coconut_iel::LedgerState> {
            self.0.ledger_state()
        }
        fn is_live(&self) -> bool {
            self.0.is_live()
        }
        fn crash_node(&mut self, node: NodeId) -> bool {
            self.0.crash_node(node)
        }
        fn recover_node(&mut self, node: NodeId) -> bool {
            self.0.recover_node(node)
        }
        fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
            self.0.apply_net_fault(at, event)
        }
        fn inject_byzantine(
            &mut self,
            node: NodeId,
            b: ByzantineBehaviour,
            until: SimTime,
        ) -> bool {
            self.0.inject_byzantine(node, b, until)
        }
        fn join_node(&mut self, now: SimTime, node: NodeId) -> bool {
            self.0.join_node(now, node)
        }
        fn leave_node(&mut self, now: SimTime, node: NodeId) -> bool {
            self.0.leave_node(now, node)
        }
        fn apply_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
            self.0.apply_fault(at, event)
        }
        fn config_epoch(&self) -> u64 {
            self.0.config_epoch()
        }
        fn safety_report(&self) -> Option<SafetyReport> {
            self.0.safety_report()
        }
        fn liveness_report(&self) -> Option<LivenessReport> {
            self.0.liveness_report()
        }
        fn probe(&self) -> Option<&StageProbe> {
            self.0.probe()
        }
        fn probe_mut(&mut self) -> Option<&mut StageProbe> {
            self.0.probe_mut()
        }
        fn enable_stage_probes(&mut self) {
            self.0.enable_stage_probes()
        }
        fn stage_report(&self) -> Option<StageReport> {
            self.0.stage_report()
        }
    }
}

#[test]
fn dropping_outcomes_past_the_listen_end_changes_no_output() {
    use coconut::params::build_system;
    use coconut::ScenarioBuilder;
    use coconut_types::NodeId;
    use stores_everything::StoresEverything;

    // Overloaded first phases with re-sends and a slow node leave
    // outcomes due after their listen end; a lighter second unit phase
    // on the same deployment then runs while they fall due, under ids it
    // never sent.
    let windows = Windows {
        send: SimDuration::from_secs(10),
        listen: SimDuration::from_secs(16),
    };
    for (kind, rate) in [(SystemKind::Diem, 200.0), (SystemKind::CordaOs, 12.0)] {
        let phases = [
            ScenarioBuilder::new(PayloadKind::DoNothing, rate, windows)
                .probes(true)
                .at(SimTime::from_secs(1))
                .slow_node(NodeId(1), 8.0, SimTime::from_secs(2))
                .build(),
            ScenarioBuilder::new(PayloadKind::DoNothing, rate / 4.0, windows)
                .probes(true)
                .unit_phase(1)
                .build(),
        ];
        let setup = SystemSetup::default();
        let mut bounded = build_system(kind, &setup, 11);
        let mut everything = StoresEverything(build_system(kind, &setup, 11));
        for (i, timeline) in phases.iter().enumerate() {
            let a = timeline.run_on(bounded.as_mut(), 11);
            let b = timeline.run_on(&mut everything, 11);
            assert!(
                a.run.accounting.confirmed > 0,
                "{kind} phase {i} confirmed nothing"
            );
            assert_eq!(
                format!("{:?}", a.run),
                format!("{:?}", b.run),
                "{kind} phase {i} run"
            );
            assert_eq!(a.stats, b.stats, "{kind} phase {i} stats");
            assert_eq!(a.epochs, b.epochs, "{kind} phase {i} epochs");
            assert_eq!(a.verified, b.verified, "{kind} phase {i} workload check");
            assert_eq!(
                format!("{:?}", a.stage_report),
                format!("{:?}", b.stage_report),
                "{kind} phase {i} stage report"
            );
        }
    }
}
