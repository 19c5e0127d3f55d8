//! Cross-crate behaviour checks: each system's signature anomaly from the
//! paper, observed through the full COCONUT framework (not the chain's own
//! unit tests).

use coconut::client::Windows;
use coconut::prelude::*;
use coconut_simnet::NetConfig;

fn base(system: SystemKind, benchmark: PayloadKind, rate: f64) -> BenchmarkSpec {
    BenchmarkSpec::new(system, benchmark)
        .rate(rate)
        .windows(Windows::scaled(0.02))
        .repetitions(1)
}

#[test]
fn corda_enterprise_outperforms_open_source() {
    // §5.2: "In contrast to Corda OS, Corda Enterprise achieves better
    // results in all scenarios."
    let os = run_benchmark(
        &base(SystemKind::CordaOs, PayloadKind::KeyValueSet, 20.0),
        1,
    );
    let ent = run_benchmark(
        &base(SystemKind::CordaEnterprise, PayloadKind::KeyValueSet, 20.0),
        1,
    );
    assert!(
        ent.mtps.mean > os.mtps.mean * 2.0,
        "Enterprise {} vs OS {}",
        ent.mtps.mean,
        os.mtps.mean
    );
}

#[test]
fn corda_os_throughput_drops_at_higher_rate() {
    // Tables 7+8: RL 20 → 4.08 MTPS but RL 160 → 1.04 MTPS. The ingress
    // congestion takes a few seconds to ramp, so use a longer window.
    let low = run_benchmark(
        &base(SystemKind::CordaOs, PayloadKind::KeyValueSet, 20.0).windows(Windows::scaled(0.1)),
        2,
    );
    let high = run_benchmark(
        &base(SystemKind::CordaOs, PayloadKind::KeyValueSet, 160.0).windows(Windows::scaled(0.1)),
        2,
    );
    assert!(
        high.mtps.mean < low.mtps.mean,
        "OS must choke at RL=160: {} vs {}",
        high.mtps.mean,
        low.mtps.mean
    );
}

#[test]
fn quorum_short_blockperiod_violates_liveness() {
    // §5.5 / Table 15: blockperiod ≤ 2 s + high load → empty blocks, no
    // confirmations.
    let spec = base(SystemKind::Quorum, PayloadKind::DoNothing, 1600.0)
        .block_param(BlockParam::BlockPeriod(SimDuration::from_secs(2)));
    let r = run_benchmark(&spec, 3);
    assert_eq!(r.received.mean, 0.0);
    assert!(!r.live);

    let ok = base(SystemKind::Quorum, PayloadKind::DoNothing, 1600.0)
        .block_param(BlockParam::BlockPeriod(SimDuration::from_secs(5)))
        .windows(Windows::scaled(0.08));
    let r5 = run_benchmark(&ok, 3);
    assert!(r5.received.mean > 0.0, "BP=5s must confirm");
    assert!(r5.live);
}

#[test]
fn sawtooth_queue_rejections_lose_transactions() {
    // §5.6: the bounded validator queue is the decisive loss factor.
    let r = run_benchmark(
        &base(SystemKind::Sawtooth, PayloadKind::DoNothing, 1600.0),
        4,
    );
    assert!(
        r.delivery_ratio() < 0.5,
        "heavy load must lose most batches: {}",
        r.delivery_ratio()
    );
}

#[test]
fn sawtooth_throughput_collapses_under_load() {
    // Table 17: RL 200 → 66.7 MTPS vs RL 1600 → 14.3 MTPS. The collapse
    // needs a window spanning several execution-bound blocks.
    let cfg = |rate| {
        base(SystemKind::Sawtooth, PayloadKind::DoNothing, rate)
            .ops_per_tx(100)
            .windows(Windows::scaled(0.2))
    };
    let low = run_benchmark(&cfg(200.0), 5);
    let high = run_benchmark(&cfg(1600.0), 5);
    assert!(
        high.mtps.mean < low.mtps.mean * 0.8,
        "raising RL must not raise Sawtooth throughput: {} vs {}",
        high.mtps.mean,
        low.mtps.mean
    );
}

#[test]
fn fabric_event_service_breaks_at_sixteen_nodes() {
    // §5.8.2: nodes finalize but clients receive nothing at n ≥ 16.
    let spec = base(SystemKind::Fabric, PayloadKind::DoNothing, 400.0)
        .block_param(BlockParam::MaxMessageCount(50))
        .setup(SystemSetup::with_block_param(BlockParam::MaxMessageCount(50)).with_nodes(16));
    let r = run_benchmark(&spec, 6);
    assert_eq!(r.received.mean, 0.0, "clients must see nothing at 16 peers");
}

#[test]
fn bitshares_multi_op_transactions_raise_throughput() {
    // Table 11 vs §5.3: 100 ops/tx reaches the full payload rate; single
    // ops cap near 600/s.
    let multi = run_benchmark(
        &base(SystemKind::Bitshares, PayloadKind::DoNothing, 1600.0).ops_per_tx(100),
        7,
    );
    let single = run_benchmark(
        &base(SystemKind::Bitshares, PayloadKind::DoNothing, 1600.0).ops_per_tx(1),
        7,
    );
    assert!(multi.mtps.mean > 1200.0, "100 ops/tx: {}", multi.mtps.mean);
    assert!(
        single.mtps.mean < multi.mtps.mean,
        "single-op must be slower: {} vs {}",
        single.mtps.mean,
        multi.mtps.mean
    );
}

#[test]
fn bitshares_payments_interfere_and_mostly_vanish() {
    // §5.3: SendPayment records almost exclusively lost transactions.
    use coconut::workload::BenchmarkUnit;
    let template = base(SystemKind::Bitshares, PayloadKind::CreateAccount, 400.0);
    let unit = run_unit(
        SystemKind::Bitshares,
        BenchmarkUnit::BankingApp,
        &template,
        8,
    );
    let create = &unit.benchmarks[0];
    let pay = &unit.benchmarks[1];
    assert!(
        create.delivery_ratio() > 0.8,
        "creates are unique: {}",
        create.delivery_ratio()
    );
    assert!(
        pay.delivery_ratio() < 0.5,
        "interacting payments must mostly vanish: {}",
        pay.delivery_ratio()
    );
}

#[test]
fn diem_overload_loses_most_transactions() {
    // Table 20: 16,752 of 60,000 received at RL = 200 — service far below
    // the offered load.
    let spec = base(SystemKind::Diem, PayloadKind::DoNothing, 200.0)
        .block_param(BlockParam::MaxBlockSize(2000))
        .windows(Windows::scaled(0.05));
    let r = run_benchmark(&spec, 9);
    assert!(
        r.delivery_ratio() < 0.9,
        "Diem must fall behind 200/s: {}",
        r.delivery_ratio()
    );
    assert!(r.mtps.mean < 150.0, "service ≈ 100/s: {}", r.mtps.mean);
}

#[test]
fn emulated_latency_slows_fabric_but_not_corda_os() {
    // §5.8.1: Fabric loses 33–40%; Corda OS "hardly reacts".
    let fabric = |net: NetConfig| {
        let spec = base(SystemKind::Fabric, PayloadKind::DoNothing, 800.0)
            .setup(SystemSetup::with_block_param(BlockParam::MaxMessageCount(100)).with_net(net))
            .windows(Windows::scaled(0.05));
        run_benchmark(&spec, 10).mfls.mean
    };
    let lan = fabric(NetConfig::lan());
    let wan = fabric(NetConfig::emulated_latency());
    assert!(wan > lan, "netem must slow Fabric: {lan} vs {wan}");

    let corda = |net: NetConfig| {
        let spec = base(SystemKind::CordaOs, PayloadKind::KeyValueSet, 20.0)
            .setup(SystemSetup::default().with_net(net));
        run_benchmark(&spec, 11).mtps.mean
    };
    let c_lan = corda(NetConfig::lan());
    let c_wan = corda(NetConfig::emulated_latency());
    // Corda OS is CPU-bound (serial signing), so latency barely matters:
    assert!(
        (c_wan - c_lan).abs() / c_lan.max(0.01) < 0.35,
        "Corda OS hardly reacts to latency: {c_lan} vs {c_wan}"
    );
}

#[test]
fn ledgers_stay_hash_consistent_under_load() {
    // Drive each block-producing chain directly: the ledger's tip links
    // every appended block by hash (the §2 tamper-evidence property) and
    // counts every committed transaction.
    use coconut_chains::fabric::{Fabric, FabricConfig};
    use coconut_chains::quorum::{Quorum, QuorumConfig};
    use coconut_chains::BlockchainSystem as _;
    use coconut_types::{ClientId, ClientTx, Hash256, Payload, ThreadId, TxId};

    let mut fabric = Fabric::new(
        FabricConfig {
            max_message_count: 10,
            ..FabricConfig::default()
        },
        1,
    );
    fabric.run_until(SimTime::from_secs(2));
    let mut quorum = Quorum::new(QuorumConfig::default(), 1);
    for i in 0..100u64 {
        let tx = ClientTx::single(
            TxId::new(ClientId((i % 4) as u32), i),
            ThreadId(0),
            Payload::key_value_set(i, i),
            SimTime::from_secs(2),
        );
        fabric.submit(SimTime::from_secs(2), tx.clone());
        quorum.submit(SimTime::from_secs(2), tx);
    }
    fabric.run_until(SimTime::from_secs(20));
    quorum.run_until(SimTime::from_secs(20));

    assert!(fabric.height() >= 10, "Fabric cut size-10 blocks");
    assert_eq!(fabric.ledger().tip().height, fabric.height());
    assert_ne!(fabric.ledger().tip().hash, Hash256::GENESIS);
    assert_eq!(fabric.ledger().tx_count(), 100);

    assert!(quorum.height() > 0);
    assert_eq!(quorum.ledger().tip().height, quorum.height());
    assert_ne!(quorum.ledger().tip().hash, Hash256::GENESIS);
    assert_eq!(quorum.ledger().tx_count(), 100);
}
