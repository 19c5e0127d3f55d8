//! Microbenchmarks of the substrates: the event queue, the network
//! simulator, hashing, consensus engines, workload generation, and
//! statistics. These quantify the cost per simulated event, which bounds
//! how much virtual time a full experiment can cover per host second.

use coconut::client::{build_schedule, Windows};
use coconut::stats::Stats;
use coconut_bench::harness::{black_box, Group};
use coconut_chains::IngressLoad;
use coconut_consensus::diembft::DiemBftCluster;
use coconut_consensus::ibft::IbftCluster;
use coconut_consensus::pbft::PbftCluster;
use coconut_consensus::raft::RaftCluster;
use coconut_consensus::{BatchConfig, Command};
use coconut_simnet::{EventQueue, LatencyModel, NetConfig, NetSim, Topology};
use coconut_types::{
    chain_hash, ClientId, Hash256, NodeId, PayloadKind, SimDuration, SimRng, SimTime, TxId,
};

/// Runs `cluster` for `secs` simulated seconds, submitting 5 commands
/// every 250 ms, and returns the committed command count.
macro_rules! trickle {
    ($cluster:expr, $secs:expr) => {{
        let mut cluster = $cluster;
        let mut committed = 0;
        let mut seq = 0u64;
        for step in 1..=$secs * 4 {
            for _ in 0..5 {
                cluster.submit(Command::unit(TxId::new(ClientId(0), seq)));
                seq += 1;
            }
            let batches = cluster.run_until(SimTime::from_millis(250 * step));
            committed += batches.iter().map(|b| b.commands.len()).sum::<usize>();
        }
        committed
    }};
}

fn main() {
    let mut group = Group::new("microbench");

    group.bench_function("event_queue_push_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_micros(i * 37 % 997), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum += v;
        }
        black_box(sum)
    });

    group.bench_function("netsim_send_deliver_1k", || {
        let mut net: NetSim<u64> = NetSim::new(Topology::paper_baseline(), NetConfig::lan(), 7);
        for i in 0..1000u64 {
            net.send(NodeId((i % 4) as u32), NodeId(((i + 1) % 4) as u32), 128, i);
        }
        let mut n = 0;
        while net.pop_before(SimTime::MAX).is_some() {
            n += 1;
        }
        black_box(n)
    });

    {
        let body = vec![0xABu8; 1024];
        let parent = Hash256::GENESIS;
        group.bench_function("chain_hash_1kb", || black_box(chain_hash(&parent, &body)));
    }

    {
        let model = LatencyModel::netem_paper();
        let mut rng = SimRng::seed_from_u64(3);
        group.bench_function("netem_sample_1k", move || {
            let mut acc = SimDuration::ZERO;
            for _ in 0..1000 {
                acc += model.sample(&mut rng);
            }
            black_box(acc)
        });
    }

    group.bench_function("raft_commit_100", || {
        let mut raft = RaftCluster::builder(3)
            .seed(5)
            .batch(BatchConfig::new(100, SimDuration::from_millis(50)))
            .build();
        raft.run_until(SimTime::from_secs(2));
        for i in 0..100u64 {
            raft.submit(Command::unit(TxId::new(ClientId(0), i)));
        }
        let batches = raft.run_until(SimTime::from_secs(5));
        assert_eq!(batches.iter().map(|b| b.commands.len()).sum::<usize>(), 100);
        black_box(batches.len())
    });

    // 100 k arrivals at 10 k/s against a 2 s window: about 20 k entries
    // stay in the window, so a per-arrival re-sum would cost 2·10⁹ adds.
    group.bench_function("ingress_load_record_100k", || {
        let mut load =
            IngressLoad::new(SimDuration::from_secs(2), SimDuration::from_micros(50), 0.9);
        let mut acc = 0.0;
        for i in 0..100_000u64 {
            acc += load.record(SimTime::from_micros(100 * i), 1 + (i % 3) as u32);
        }
        black_box(acc)
    });

    // The same simulated time as four 20 s runs and as one 80 s run. A
    // trickle of 5 commands every 250 ms leaves the mempool empty at many
    // propose timers. Equal times mean the cost per round does not grow
    // with the length of the run.
    group.bench_function("diem_4n_4x20s_trickle", || {
        (0..4).map(|_| diem_trickle(20)).sum::<usize>()
    });
    group.bench_function("diem_4n_1x80s_trickle", || diem_trickle(80));

    // The same trickle on the two policies of the three-phase BFT engine:
    // PBFT waits out empty publish timers, IBFT mints empty blocks.
    group.bench_function("pbft_4n_20s_trickle", || {
        trickle!(PbftCluster::builder(4).seed(5).build(), 20)
    });
    group.bench_function("ibft_4n_20s_trickle", || {
        trickle!(IbftCluster::builder(4).seed(5).build(), 20)
    });

    group.bench_function("schedule_build_30s_1600tps", || {
        let s = build_schedule(PayloadKind::KeyValueSet, 1600.0, 1, Windows::scaled(0.1), 9);
        black_box(s.len())
    });

    {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        group.bench_function("stats_from_1k_samples", || {
            black_box(Stats::from_samples(&samples))
        });
    }

    group.finish();
}

/// The trickle on a 4-node DiemBFT cluster.
fn diem_trickle(secs: u64) -> usize {
    trickle!(DiemBftCluster::builder(4).seed(5).build(), secs)
}
