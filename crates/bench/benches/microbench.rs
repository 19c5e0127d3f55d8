//! Microbenchmarks of the substrates: the event queue, the network
//! simulator, hashing, consensus engines, workload generation, and
//! statistics. These quantify the cost per simulated event, which bounds
//! how much virtual time a full experiment can cover per host second.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use coconut::client::{build_schedule, build_schedule_for, Windows};
use coconut::experiments::contention::LEVELS;
use coconut::stats::Stats;
use coconut::workload::Smallbank;
use coconut::{run_chaos_with_schedule, BenchmarkSpec, ClientProtection, RetryPolicy, SystemKind};
use coconut_bench::harness::{black_box, Group};
use coconut_chains::{BlockchainSystem, IngressLoad, SubmitOutcome, SystemStats};
use coconut_consensus::diembft::DiemBftCluster;
use coconut_consensus::ibft::IbftCluster;
use coconut_consensus::pbft::PbftCluster;
use coconut_consensus::raft::RaftCluster;
use coconut_consensus::{BatchConfig, Command};
use coconut_simnet::{EventQueue, FaultPlan, LatencyModel, NetConfig, NetSim, Topology};
use coconut_types::{
    chain_hash, BlockId, ClientId, ClientTx, Hash256, NodeId, PayloadKind, SimDuration, SimRng,
    SimTime, TxId, TxOutcome,
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

    // The in-order case the queue's sorted runs serve: four fixed-delay
    // timer streams, each re-armed as its event pops, so every push is
    // due no earlier than the last one of its stream.
    group.bench_function("event_queue_timer_streams_1k", || {
        const DELAYS_US: [u64; 4] = [10, 25, 60, 100];
        let mut q = EventQueue::new();
        for (stream, d) in DELAYS_US.iter().enumerate() {
            q.push(SimTime::from_micros(*d), stream);
        }
        let mut sum = 0u64;
        for _ in 0..1000 {
            let (t, stream) = q.pop().expect("every stream stays armed");
            sum += t.as_micros();
            q.push(t + SimDuration::from_micros(DELAYS_US[stream]), stream);
        }
        black_box(sum)
    });

    // A pacemaker's timers: each round arms a 3 s timeout and a 100 ms
    // cadence timer, both scoped by the round. The cadence timer certifies
    // its round, cancels the round's timeout and opens the next round; one
    // round in eight gets no cadence timer and waits out its timeout.
    group.bench_function("event_queue_round_timers_1k", || {
        const CADENCE: SimDuration = SimDuration::from_millis(100);
        const TIMEOUT: SimDuration = SimDuration::from_secs(3);
        let arm = |q: &mut EventQueue<(bool, u64)>, now: SimTime, round: u64| {
            q.push_scoped(now + TIMEOUT, round, (true, round));
            if !round.is_multiple_of(8) {
                q.push_scoped(now + CADENCE, round, (false, round));
            }
        };
        let mut q = EventQueue::new();
        arm(&mut q, SimTime::ZERO, 1);
        let mut sum = 0u64;
        for _ in 0..1000 {
            let (t, (timeout, round)) = q.pop().expect("the open round stays armed");
            sum += round;
            if !timeout {
                q.cancel_through(round);
            }
            arm(&mut q, t, round + 1);
        }
        black_box(sum)
    });

    // Figure 4's netem: every delivery draws its own N(12 ms, 2 ms)
    // delay, so pushes arrive out of time order. 256 messages stay in
    // flight; each pop sends one more. The plain `(at, seq)` heap is the
    // reference the queue's sorted runs must not lose to here.
    {
        const IN_FLIGHT: u64 = 256;
        let model = LatencyModel::netem_paper();
        let mut rng = SimRng::seed_from_u64(12);
        let delays: Vec<SimDuration> = (0..IN_FLIGHT + 1000)
            .map(|_| model.sample(&mut rng))
            .collect();
        group.bench_function("event_queue_netem_1k", || {
            let mut q = EventQueue::new();
            for (i, d) in delays[..IN_FLIGHT as usize].iter().enumerate() {
                q.push(SimTime::ZERO + *d, i as u64);
            }
            let mut sum = 0u64;
            for d in &delays[IN_FLIGHT as usize..] {
                let (t, v) = q.pop().expect("the queue stays full");
                sum += v;
                q.push(t + *d, v);
            }
            black_box(sum)
        });
        group.bench_function("binary_heap_netem_1k", || {
            let mut q = BinaryHeap::new();
            let mut seq = 0u64;
            for (i, d) in delays[..IN_FLIGHT as usize].iter().enumerate() {
                q.push(Reverse((SimTime::ZERO + *d, seq, i as u64)));
                seq += 1;
            }
            let mut sum = 0u64;
            for d in &delays[IN_FLIGHT as usize..] {
                let Reverse((t, _, v)) = q.pop().expect("the queue stays full");
                sum += v;
                q.push(Reverse((t + *d, seq, v)));
                seq += 1;
            }
            black_box(sum)
        });
    }

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
    // The same schedule drawn from Smallbank at the contention campaign's
    // `mid` level: four Zipf-skewed draws per payload.
    let smallbank = Smallbank::new(LEVELS[1].knobs());
    group.bench_function("schedule_build_smallbank_30s_1600tps", || {
        let s = build_schedule_for(&smallbank, 1600.0, 1, Windows::scaled(0.1), 9);
        black_box(s.len())
    });

    // The client loop alone, in `saturation`'s shape: 40 k sends over
    // 10 s with the retry client against a system that sheds three sends
    // in four as `Busy`, so tens of thousands of retries and timeouts
    // wait in the client's agenda at once.
    {
        let windows = Windows {
            send: SimDuration::from_secs(10),
            listen: SimDuration::from_secs(18),
        };
        let spec = BenchmarkSpec::new(SystemKind::Fabric, PayloadKind::KeyValueSet)
            .rate(4000.0)
            .windows(windows)
            .repetitions(1);
        let schedule = build_schedule(PayloadKind::KeyValueSet, 4000.0, 1, windows, 3);
        let (plan, policy) = (FaultPlan::new(), RetryPolicy::chaos_default());
        let protection = ClientProtection::disabled();
        group.bench_function("client_loop_busy_retries", || {
            let mut sys = BusyStub::default();
            let run =
                run_chaos_with_schedule(&mut sys, &spec, &plan, &policy, &protection, &schedule, 5);
            assert!(run.accounting.busy_responses > run.accounting.confirmed);
            black_box(run.accounting.confirmed)
        });
    }

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

/// A system with no chain behind it: it accepts every fourth send and
/// commits it 1.5 s later, and sheds the rest as `Busy` with a 100 ms
/// hold-off, so the client loop's own cost is all that is timed.
#[derive(Default)]
struct BusyStub {
    sends: u64,
    commits: VecDeque<(SimTime, TxOutcome)>,
}

impl BlockchainSystem for BusyStub {
    fn name(&self) -> &str {
        "busy-stub"
    }

    fn node_count(&self) -> u32 {
        1
    }

    fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        self.sends += 1;
        if !self.sends.is_multiple_of(4) {
            return SubmitOutcome::Busy {
                retry_after: SimDuration::from_millis(100),
            };
        }
        let at = now + SimDuration::from_millis(1500);
        let ops = tx.op_count() as u32;
        self.commits
            .push_back((at, TxOutcome::committed(tx.id(), BlockId(0), at, ops)));
        SubmitOutcome::Accepted
    }

    fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
        let due = self.commits.partition_point(|(at, _)| *at <= deadline);
        self.commits.drain(..due).map(|(_, o)| o).collect()
    }

    fn stats(&self) -> SystemStats {
        SystemStats::default()
    }
}
