//! Delegated Proof-of-Stake — the consensus of the modelled BitShares
//! (the paper runs BitShares/Graphene with 3 witnesses and
//! `block_interval` ∈ {1, 2, 5, 10} s, Tables 4 and 6).
//!
//! DPoS divides time into fixed slots of `block_interval`. Each slot is
//! assigned to one witness by a per-round shuffled schedule; the scheduled
//! witness packs pending transactions into a block and broadcasts it. A
//! crashed witness simply misses its slot — the chain skips a beat but
//! needs no view change, which is why the paper finds BitShares' throughput
//! insensitive to the network size (§5.8.2: "shifting witnesses finalizing
//! blocks is a reason for the constant performance").

use coconut_simnet::NetSim;
use coconut_types::{NodeId, SimDuration, SimRng, SimTime};

use crate::shell::{Builder, Protocol, Shell};
use crate::{BatchConfig, Command, CommittedBatch};

use wire::DposMsg;

/// CPU cost per packed transaction at the producing witness.
const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(3);

/// Messages; public only to the engine shell.
mod wire {
    /// DPoS messages: slot timers and block announcements.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DposMsg {
        /// Fires at a witness at its production slot.
        SlotTimer { slot: u64 },
        /// Fires at the node that armed a slot, 0.75 intervals past the
        /// slot's due time: if the scheduled witness has not produced by
        /// then — its timers stretched by a gray-slow window — the slot is
        /// forfeited and the schedule moves on without waiting for the
        /// straggler.
        SlotWatchdog { slot: u64 },
        /// A produced block being gossiped to the other nodes (apply cost
        /// only).
        BlockAnnounce,
        /// A joining witness finished replaying the chain.
        SyncDone,
    }
}

/// The DPoS protocol state of a [`DposCluster`].
#[derive(Debug)]
pub struct Dpos {
    rng: SimRng,
    schedule: Vec<NodeId>,
    block_interval: SimDuration,
    produced: u64,
    missed: u64,
    /// When the in-flight slot timer was due; a stretched (gray-slow)
    /// witness fires well past this and forfeits the slot.
    slot_due: SimTime,
    /// The lowest slot not yet handled. A slot is handled exactly once —
    /// by its witness's timer or, if that timer limps past the forfeit
    /// threshold, by the watchdog that skips it; whichever fires second
    /// sees `slot < next_expected` and stands down.
    next_expected: u64,
}

/// Configuration for a [`DposCluster`]; build with [`Shell::builder`].
pub type DposBuilder = Builder<Dpos>;

/// A simulated DPoS witness set.
///
/// # Example
///
/// ```
/// use coconut_consensus::{dpos::DposCluster, Command};
/// use coconut_types::{ClientId, SimDuration, SimTime, TxId};
///
/// let mut dpos = DposCluster::builder(3)
///     .seed(1)
///     .block_interval(SimDuration::from_secs(1))
///     .build();
/// dpos.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let blocks = dpos.run_until(SimTime::from_secs(3));
/// assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
/// ```
pub type DposCluster = Shell<Dpos>;

impl DposBuilder {
    /// BitShares' `block_interval`: the slot length. Default 1 s.
    pub fn block_interval(mut self, d: SimDuration) -> Self {
        self.config = d;
        self
    }
}

impl Protocol for Dpos {
    type Msg = DposMsg;
    /// The block interval.
    type Config = SimDuration;
    const CONFIG: SimDuration = SimDuration::from_secs(1);
    const BATCH: BatchConfig = BatchConfig {
        max_commands: 5000,
        max_wait: SimDuration::from_secs(1),
    };
    const SYNC_DONE: DposMsg = DposMsg::SyncDone;

    /// Shuffles the first round's schedule; its first witness produces
    /// after one interval while the others watch the slot.
    fn init(b: &DposBuilder, net: &mut NetSim<DposMsg>) -> Self {
        let block_interval = b.config;
        let mut rng = SimRng::seed_from_u64(b.seed ^ 0xD905);
        let mut schedule: Vec<NodeId> = (0..b.nodes).map(NodeId).collect();
        rng.shuffle(&mut schedule);
        net.timer(schedule[0], block_interval, DposMsg::SlotTimer { slot: 0 });
        for &guard in schedule.iter().skip(1) {
            net.timer(
                guard,
                block_interval.mul_f64(1.75),
                DposMsg::SlotWatchdog { slot: 0 },
            );
        }
        Dpos {
            rng,
            schedule,
            block_interval,
            produced: 0,
            missed: 0,
            slot_due: SimTime::ZERO + block_interval,
            next_expected: 0,
        }
    }

    /// A joiner replays every produced block.
    fn sync_units(s: &DposCluster) -> u64 {
        s.p.produced
    }

    /// No filter: a crashed or departed witness's slot timer still fires,
    /// so the slot is counted as missed and the schedule moves on.
    fn admits(_s: &DposCluster, _me: NodeId, _msg: &DposMsg) -> bool {
        true
    }

    fn deliver(s: &mut DposCluster, me: NodeId, at: SimTime, msg: DposMsg) {
        match msg {
            DposMsg::SlotTimer { slot } => s.on_slot(me, at, slot),
            DposMsg::SlotWatchdog { slot } => s.on_watchdog(me, at, slot),
            DposMsg::BlockAnnounce => {
                // Receiving nodes apply the block; cost only.
                let _ = s.cpu.process(me, at, SimDuration::from_micros(50));
            }
            DposMsg::SyncDone => {} // the shell's
        }
    }

    /// Rebuilds the production schedule from the current members (a new
    /// shuffle of the active set, as BitShares does each maintenance
    /// round). A joiner's first slot comes after this, so it never
    /// produces before its sync completes; an in-flight slot of a departed
    /// witness is skipped like a crashed witness's slot.
    fn on_epoch_change(s: &mut DposCluster) {
        let mut schedule = s.membership.active_nodes();
        s.p.rng.shuffle(&mut schedule);
        s.p.schedule = schedule;
    }
}

impl Shell<Dpos> {
    /// Blocks produced so far.
    pub fn blocks_produced(&self) -> u64 {
        self.p.produced
    }

    /// Slots missed by crashed witnesses.
    pub fn slots_missed(&self) -> u64 {
        self.p.missed
    }

    fn witness_of(&self, slot: u64) -> NodeId {
        self.p.schedule[(slot % self.p.schedule.len() as u64) as usize]
    }

    /// Arms `next_slot`'s production timer on its scheduled witness
    /// (reshuffling the schedule at round boundaries) plus a watchdog on
    /// every *other* scheduled witness — each tracks the slot cadence
    /// independently, as real DPoS nodes do, so one stretched witness
    /// timer cannot stall the global schedule (whichever healthy watchdog
    /// fires first forfeits the slot; the rest stand down).
    fn arm_next_slot(&mut self, at: SimTime, next_slot: u64) {
        let interval = self.p.block_interval;
        if next_slot.is_multiple_of(self.p.schedule.len() as u64) {
            self.p.rng.shuffle(&mut self.p.schedule);
        }
        let next_witness = self.witness_of(next_slot);
        self.p.slot_due = at + interval;
        self.net.timer(
            next_witness,
            interval,
            DposMsg::SlotTimer { slot: next_slot },
        );
        for &guard in &self.p.schedule {
            if guard != next_witness {
                self.net.timer(
                    guard,
                    interval.mul_f64(1.75),
                    DposMsg::SlotWatchdog { slot: next_slot },
                );
            }
        }
    }

    /// The scheduled witness never produced: its timer is stretched past
    /// the forfeit threshold by a gray-slow window. Skip the slot — a
    /// missed beat, like a crash — and keep the cadence going so the rest
    /// of the network does not wait on one straggler.
    fn on_watchdog(&mut self, me: NodeId, at: SimTime, slot: u64) {
        if slot < self.p.next_expected || !self.alive[me.0 as usize] {
            return;
        }
        self.p.next_expected = slot + 1;
        self.p.missed += 1;
        self.liveness.observe_view_change(at);
        self.arm_next_slot(at, slot + 1);
    }

    fn on_slot(&mut self, me: NodeId, at: SimTime, slot: u64) {
        if slot < self.p.next_expected {
            // A straggler's stretched timer firing for a slot the watchdog
            // already forfeited on its behalf; the miss was counted there.
            return;
        }
        // A healthy witness fires exactly at the due time; a gray-slow one
        // (its timers stretched by the simulator) arrives late. Anything
        // more than half an interval past due forfeits the slot, as the
        // rest of the network has moved on.
        let too_late = at.saturating_since(self.p.slot_due) > self.p.block_interval.mul_f64(0.5);
        self.p.next_expected = slot + 1;
        // Schedule the next slot first (the schedule reshuffles each round).
        self.arm_next_slot(at, slot + 1);

        // A crashed witness misses its slot; so does one removed from the
        // membership while its slot timer was already in flight, and so
        // does a straggler that fired too far past its production window.
        if !self.alive[me.0 as usize] || !self.membership.is_active(me) || too_late {
            self.p.missed += 1;
            self.liveness.observe_view_change(at);
            return;
        }
        self.liveness.observe_progress(me, at);
        if self.pending.is_empty() {
            // Empty block: produced but uninteresting; count it.
            self.p.produced += 1;
            self.liveness.observe_commit(at);
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let cost = PROC_PER_COMMAND * batch.len() as u64 + SimDuration::from_micros(100);
        let done = self.cpu.process(me, at, cost);
        let bytes = 128 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        self.net
            .broadcast_delayed(me, done - at, bytes, |_| DposMsg::BlockAnnounce);
        self.p.produced += 1;
        self.liveness.observe_commit(done);
        self.committed.push(CommittedBatch {
            commands: batch,
            proposer: me,
            round: slot,
            committed_at: done,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::{SYNC_BASE, SYNC_PER_UNIT};
    use coconut_simnet::FaultEvent;
    use coconut_types::{ClientId, TxId};

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    #[test]
    fn produces_blocks_at_interval() {
        let mut c = DposCluster::builder(3)
            .seed(1)
            .block_interval(SimDuration::from_secs(1))
            .build();
        for s in 0..9 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(2));
        assert!(!blocks.is_empty());
        // All submitted-before-slot commands are in the first block:
        assert_eq!(blocks[0].commands.len(), 9);
        let first = blocks[0].committed_at;
        assert!(first >= SimTime::from_secs(1) && first < SimTime::from_secs(2));
    }

    #[test]
    fn latency_tracks_block_interval() {
        // The paper: "finalization latency is close to the specified
        // block_interval" (§5.3).
        for interval in [1u64, 2, 5] {
            let mut c = DposCluster::builder(3)
                .seed(2)
                .block_interval(SimDuration::from_secs(interval))
                .build();
            c.submit(tx(1));
            let blocks = c.run_until(SimTime::from_secs(interval * 2));
            assert_eq!(blocks.len(), 1);
            let latency = blocks[0].committed_at - SimTime::ZERO;
            assert!(latency >= SimDuration::from_secs(interval));
            assert!(latency < SimDuration::from_secs(interval) + SimDuration::from_millis(100));
        }
    }

    #[test]
    fn crashed_witness_misses_slots_but_chain_continues() {
        let mut c = DposCluster::builder(3)
            .seed(3)
            .block_interval(SimDuration::from_millis(500))
            .build();
        c.crash(NodeId(0));
        for s in 0..30 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(10));
        assert!(c.slots_missed() > 0, "node 0's slots are skipped");
        let total: usize = blocks.iter().map(|b| b.commands.len()).sum();
        assert_eq!(total, 30, "live witnesses still pack everything");
        assert!(blocks.iter().all(|b| b.proposer != NodeId(0)));
    }

    #[test]
    fn schedule_rotates_witnesses() {
        let mut c = DposCluster::builder(3)
            .seed(4)
            .batch(BatchConfig::new(10, SimDuration::from_secs(1)))
            .block_interval(SimDuration::from_millis(100))
            .build();
        for s in 0..300 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(40));
        let mut producers: Vec<u32> = blocks.iter().map(|b| b.proposer.0).collect();
        producers.sort_unstable();
        producers.dedup();
        assert_eq!(producers.len(), 3, "every witness produces");
    }

    #[test]
    fn batch_cap_respected() {
        let mut c = DposCluster::builder(3)
            .seed(5)
            .batch(BatchConfig::new(4, SimDuration::from_secs(1)))
            .block_interval(SimDuration::from_millis(200))
            .build();
        for s in 0..10 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(5));
        assert!(blocks.iter().all(|b| b.commands.len() <= 4));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 10);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = DposCluster::builder(3).seed(seed).build();
            for s in 0..10 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(5))
                .iter()
                .map(|b| (b.round, b.proposer, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(6), run(6));
    }

    #[test]
    fn join_extends_schedule_after_sync() {
        let mut c = DposCluster::builder(3)
            .standby(1)
            .seed(61)
            .batch(BatchConfig::new(5, SimDuration::from_secs(1)))
            .block_interval(SimDuration::from_millis(200))
            .build();
        assert!(c.join(NodeId(3)));
        assert!(!c.join(NodeId(3)), "already syncing");
        for s in 0..100 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        assert_eq!(c.active_count(), 4);
        assert_eq!(c.config_epoch(), 1);
        assert!(
            blocks.iter().any(|b| b.proposer == NodeId(3)),
            "the admitted witness must get slots"
        );
        assert_eq!(
            blocks.iter().map(|b| b.commands.len()).sum::<usize>(),
            100,
            "no commands lost across the join"
        );
    }

    #[test]
    fn joiner_never_produces_before_sync_completes() {
        let mut c = DposCluster::builder(3)
            .standby(1)
            .seed(63)
            .block_interval(SimDuration::from_millis(100))
            .build();
        for s in 0..50 {
            c.submit(tx(s));
        }
        // Produce some chain history first, then start the join.
        c.run_until(SimTime::from_secs(2));
        assert!(c.join(NodeId(3)));
        let sync_deadline = c.now() + SYNC_BASE + SYNC_PER_UNIT * c.blocks_produced();
        for s in 50..80 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        for b in &blocks {
            if b.proposer == NodeId(3) {
                assert!(
                    b.committed_at > sync_deadline,
                    "joiner produced at {:?} before sync completed at {:?}",
                    b.committed_at,
                    sync_deadline
                );
            }
        }
        assert_eq!(c.config_epoch(), 1);
    }

    #[test]
    fn leave_regenerates_schedule_without_departed_witness() {
        let mut c = DposCluster::builder(3)
            .seed(62)
            .batch(BatchConfig::new(5, SimDuration::from_secs(1)))
            .block_interval(SimDuration::from_millis(200))
            .build();
        for s in 0..40 {
            c.submit(tx(s));
        }
        c.run_until(SimTime::from_secs(2));
        assert!(c.leave(NodeId(0)));
        assert!(!c.leave(NodeId(0)), "already departed");
        for s in 40..80 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        assert_eq!(c.active_count(), 2);
        assert_eq!(c.config_epoch(), 1);
        assert!(
            blocks.iter().all(|b| b.proposer != NodeId(0)),
            "departed witness must not produce after leaving"
        );
        // The chain keeps packing everything with the smaller witness set.
        let mut seqs: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.commands.iter().map(|c| c.tx.seq()))
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (40..80).collect::<Vec<u64>>());
    }

    #[test]
    fn churn_run_is_deterministic() {
        let run = || {
            let mut c = DposCluster::builder(3)
                .standby(1)
                .seed(64)
                .block_interval(SimDuration::from_millis(250))
                .build();
            for s in 0..30 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(2));
            c.join(NodeId(3));
            c.run_until(SimTime::from_secs(4));
            c.leave(NodeId(1));
            let got = c.run_until(SimTime::from_secs(20));
            let commits: Vec<(u64, u32, usize)> = got
                .iter()
                .map(|b| (b.round, b.proposer.0, b.commands.len()))
                .collect();
            (
                commits,
                c.active_count(),
                c.config_epoch(),
                c.slots_missed(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gray_slow_witness_forfeits_slots_but_cadence_survives() {
        // A gray-slow witness (timers stretched x32) must only cost its own
        // slots: the watchdog skips them and the schedule keeps its beat,
        // so the chain reads live-or-degraded, never stalled.
        let mut c = DposCluster::builder(3)
            .seed(11)
            .block_interval(SimDuration::from_secs(1))
            .build();
        c.run_until(SimTime::from_secs(5));
        assert!(c.apply_net_fault(
            c.now(),
            &FaultEvent::SlowNode {
                node: NodeId(2),
                factor: 32.0,
                window: SimDuration::from_secs(5),
            },
        ));
        c.run_until(SimTime::from_secs(28));
        let report = c.liveness_report();
        assert!(c.slots_missed() > 0, "the straggler's slots are forfeited");
        assert!(
            report.verdict.is_at_least_degraded(),
            "one slow witness must not stall the chain: {} (missed {}, produced {})",
            report.verdict.label(),
            c.slots_missed(),
            c.blocks_produced(),
        );
    }

    #[test]
    fn empty_slots_still_count_as_produced() {
        let mut c = DposCluster::builder(3)
            .seed(7)
            .block_interval(SimDuration::from_secs(1))
            .build();
        let blocks = c.run_until(SimTime::from_secs(5));
        assert!(blocks.is_empty(), "no commands → no emitted batches");
        assert!(
            c.blocks_produced() >= 4,
            "witnesses keep minting empty blocks"
        );
    }
}
