//! Raft consensus — the ordering service behind the modelled Hyperledger
//! Fabric (the paper benchmarks Fabric 2.2.1 with Raft orderers, Table 2).
//!
//! This is a message-level Raft implementation over the simulated network:
//! randomized election timeouts, `RequestVote`/`AppendEntries` RPCs, log
//! matching, majority commit, and leader heartbeats. Batches of client
//! commands form log entries (one entry per cut batch, mirroring Fabric's
//! block-per-entry use of etcd/raft).
//!
//! Crash-stop faults can be injected with [`Shell::crash`]; the
//! remaining nodes elect a new leader and keep committing as long as a
//! majority is alive.

use coconut_simnet::NetSim;
use coconut_types::{NodeId, SimDuration, SimTime};

use crate::shell::{Builder, Protocol, Shell};
use crate::{majority_quorum, BatchConfig, Command, CommittedBatch};

use wire::{ConfigChange, LogEntry, RaftMsg};

const RECONFIG_RETRY: SimDuration = SimDuration::from_millis(100);
/// Lower bound of the randomized election timeout (upper bound is 2×).
const ELECTION_TIMEOUT: SimDuration = SimDuration::from_millis(150);
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Fixed CPU cost of handling any protocol message.
const PROC_PER_MSG: SimDuration = SimDuration::from_micros(20);
/// Additional CPU cost per command carried in an `AppendEntries`.
const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(2);

/// Messages and log entries; public only to the engine shell.
mod wire {
    use super::*;

    /// A single-server membership change carried by a log entry (Raft
    /// applies reconfiguration through the log, one server at a time).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ConfigChange {
        AddVoter(NodeId),
        RemoveVoter(NodeId),
    }

    /// One replicated log entry: a batch of commands cut by the leader, or
    /// a single-server membership change.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LogEntry {
        pub(super) term: u64,
        pub(super) batch: Vec<Command>,
        pub(super) config: Option<ConfigChange>,
    }

    /// Raft protocol messages plus local timers.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RaftMsg {
        /// Follower/candidate election timer. `generation` invalidates
        /// stale timers.
        ElectionTimeout {
            generation: u64,
        },
        /// Leader heartbeat timer.
        HeartbeatTimer {
            generation: u64,
        },
        /// Batch-cut timer at the leader.
        BatchTimer,
        RequestVote {
            term: u64,
            candidate: NodeId,
            last_log_index: u64,
            last_log_term: u64,
        },
        Vote {
            term: u64,
            granted: bool,
        },
        AppendEntries {
            term: u64,
            leader: NodeId,
            prev_index: u64,
            prev_term: u64,
            entries: Vec<LogEntry>,
            leader_commit: u64,
        },
        AppendResp {
            term: u64,
            from: NodeId,
            success: bool,
            match_index: u64,
        },
        /// A learner's catch-up finished: propose its `AddVoter` entry.
        SyncDone,
        /// Retry queued membership changes until a leader can append them.
        ReconfigTimer,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

#[derive(Debug)]
struct RaftNode {
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    votes: u32,
    log: Vec<LogEntry>,
    commit_index: u64,
    timer_generation: u64,
    // leader state
    next_index: Vec<u64>,
    match_index: Vec<u64>,
}

impl RaftNode {
    fn new(n: usize) -> Self {
        RaftNode {
            role: Role::Follower,
            term: 0,
            voted_for: None,
            votes: 0,
            log: Vec::new(),
            commit_index: 0,
            timer_generation: 0,
            next_index: vec![1; n],
            match_index: vec![0; n],
        }
    }

    fn last_log_index(&self) -> u64 {
        self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else {
            self.log[(index - 1) as usize].term
        }
    }
}

/// The Raft protocol state of a [`RaftCluster`].
#[derive(Debug)]
pub struct Raft {
    nodes: Vec<RaftNode>,
    /// Membership changes waiting for a leader to append them.
    pending_reconfig: Vec<ConfigChange>,
    pending_since: Option<SimTime>,
    emitted_index: u64,
    round: u64,
}

/// Configuration for a [`RaftCluster`]; build with [`Shell::builder`].
pub type RaftBuilder = Builder<Raft>;

/// A simulated Raft cluster.
///
/// # Example
///
/// ```
/// use coconut_consensus::{raft::RaftCluster, Command};
/// use coconut_types::{ClientId, SimTime, TxId};
///
/// let mut cluster = RaftCluster::builder(3).seed(1).build();
/// cluster.run_until(SimTime::from_secs(2));
/// assert!(cluster.leader().is_some());
/// cluster.submit(Command::unit(TxId::new(ClientId(0), 0)));
/// let committed = cluster.run_until(SimTime::from_secs(5));
/// assert_eq!(committed.len(), 1);
/// ```
pub type RaftCluster = Shell<Raft>;

impl Protocol for Raft {
    type Msg = RaftMsg;
    type Config = ();
    const CONFIG: () = ();
    /// Fabric's defaults: 500 messages or 2 s, whichever first.
    const BATCH: BatchConfig = BatchConfig {
        max_commands: 500,
        max_wait: SimDuration::from_secs(2),
    };
    const SYNC_DONE: RaftMsg = RaftMsg::SyncDone;

    /// Arms the voters' first election timers with per-node jitter;
    /// standby servers stay inert until admitted.
    fn init(b: &RaftBuilder, net: &mut NetSim<RaftMsg>) -> Self {
        let (n, total) = (b.nodes, b.provisioned());
        let mut nodes: Vec<RaftNode> = (0..total).map(|_| RaftNode::new(total as usize)).collect();
        for (i, node) in nodes.iter_mut().enumerate().take(n as usize) {
            node.timer_generation = 1;
            let jitter =
                SimDuration::from_micros(ELECTION_TIMEOUT.as_micros() * (i as u64 + 1) / n as u64);
            net.timer(
                NodeId(i as u32),
                ELECTION_TIMEOUT + jitter,
                RaftMsg::ElectionTimeout { generation: 1 },
            );
        }
        Raft {
            nodes,
            pending_reconfig: Vec::new(),
            pending_since: None,
            emitted_index: 0,
            round: 0,
        }
    }

    /// A learner catches up on every emitted entry.
    fn sync_units(s: &RaftCluster) -> u64 {
        s.p.emitted_index
    }

    /// Non-voters: a learner replicates the log (so it is caught up before
    /// its `AddVoter` entry commits) but holds no vote and starts no
    /// election; other standby servers are inert. Any server may host a
    /// reconfiguration retry.
    fn admits(s: &RaftCluster, me: NodeId, msg: &RaftMsg) -> bool {
        s.alive[me.0 as usize]
            && (s.membership.is_active(me)
                || match msg {
                    RaftMsg::SyncDone | RaftMsg::ReconfigTimer => true,
                    RaftMsg::AppendEntries { .. } => s.syncing.contains(&me),
                    _ => false,
                })
    }

    fn deliver(s: &mut RaftCluster, me: NodeId, at: SimTime, msg: RaftMsg) {
        match msg {
            RaftMsg::ElectionTimeout { generation } => s.on_election_timeout(me, generation),
            RaftMsg::HeartbeatTimer { generation } => s.on_heartbeat_timer(me, generation),
            RaftMsg::BatchTimer => {
                if s.p.nodes[me.0 as usize].role == Role::Leader && !s.pending.is_empty() {
                    s.cut_batch(me);
                }
            }
            RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => s.on_request_vote(me, at, term, candidate, last_log_index, last_log_term),
            RaftMsg::Vote { term, granted } => s.on_vote(me, term, granted),
            RaftMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => s.on_append_entries(
                me,
                at,
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            ),
            RaftMsg::AppendResp {
                term,
                from,
                success,
                match_index,
            } => s.on_append_resp(me, term, from, success, match_index),
            RaftMsg::ReconfigTimer => s.try_submit_reconfig(),
            RaftMsg::SyncDone => {} // the shell's
        }
    }

    /// Commands queue at the cluster and are cut into log entries by the
    /// current leader.
    fn on_submit(s: &mut RaftCluster) {
        if s.p.pending_since.is_none() {
            s.p.pending_since = Some(s.net.now());
            if let Some(leader) = s.leader() {
                s.net.timer(leader, s.batch.max_wait, RaftMsg::BatchTimer);
            }
        }
        if s.pending.len() >= s.batch.max_commands {
            if let Some(leader) = s.leader() {
                s.cut_batch(leader);
            }
        }
    }

    /// The joiner becomes a learner: every server resets its replication
    /// cursor for it, so the leader ships it the full log from entry 1.
    fn on_join(s: &mut RaftCluster, node: NodeId) {
        let idx = node.0 as usize;
        for n in &mut s.p.nodes {
            n.next_index[idx] = 1;
            n.match_index[idx] = 0;
        }
    }

    /// A learner finished state transfer: queue its `AddVoter` entry. It
    /// stays a non-voting learner, and syncing, until that entry commits.
    fn on_sync_done(s: &mut RaftCluster, node: NodeId) {
        if s.membership.is_active(node) {
            return;
        }
        s.p.pending_reconfig.push(ConfigChange::AddVoter(node));
        s.try_submit_reconfig();
    }

    /// Removal goes through the log: a `RemoveVoter` entry is appended by
    /// the leader and takes effect — bumping the epoch — when it commits.
    fn leave(s: &mut RaftCluster, node: NodeId) -> bool {
        let change = ConfigChange::RemoveVoter(node);
        if !s.membership.is_active(node)
            || s.membership.active_count() <= 1
            || s.p.pending_reconfig.contains(&change)
        {
            return false;
        }
        s.p.pending_reconfig.push(change);
        s.try_submit_reconfig();
        true
    }

    /// A recovered server comes back as a follower; a voter re-arms its
    /// election timer, a non-voter stays inert until promoted.
    fn on_recover(s: &mut RaftCluster, node: NodeId) {
        let n = &mut s.p.nodes[node.0 as usize];
        n.role = Role::Follower;
        n.timer_generation += 1;
        let generation = n.timer_generation;
        if s.membership.is_active(node) {
            s.net.timer(
                node,
                ELECTION_TIMEOUT * 2,
                RaftMsg::ElectionTimeout { generation },
            );
        }
    }
}

impl Shell<Raft> {
    /// The current leader, if one is established.
    pub fn leader(&self) -> Option<NodeId> {
        let max_term = self.p.nodes.iter().map(|n| n.term).max()?;
        self.p
            .nodes
            .iter()
            .enumerate()
            .position(|(i, n)| {
                self.alive[i]
                    && n.role == Role::Leader
                    && n.term == max_term
                    && self.membership.is_active(NodeId(i as u32))
            })
            .map(|i| NodeId(i as u32))
    }

    /// Appends queued membership changes at the current leader as config
    /// log entries; retries on a timer while no leader is available.
    fn try_submit_reconfig(&mut self) {
        if self.p.pending_reconfig.is_empty() {
            return;
        }
        let Some(leader) = self.leader() else {
            // Host the retry timer on the change's subject node, which is
            // alive by construction.
            let host = match self.p.pending_reconfig[0] {
                ConfigChange::AddVoter(n) | ConfigChange::RemoveVoter(n) => n,
            };
            self.net.timer(host, RECONFIG_RETRY, RaftMsg::ReconfigTimer);
            return;
        };
        for change in std::mem::take(&mut self.p.pending_reconfig) {
            let node = &mut self.p.nodes[leader.0 as usize];
            let term = node.term;
            node.log.push(LogEntry {
                term,
                batch: Vec::new(),
                config: Some(change),
            });
            let last = node.last_log_index();
            node.match_index[leader.0 as usize] = last;
        }
        self.replicate(leader);
        if self.membership.active_count() == 1 {
            self.try_advance_commit(leader);
        }
    }

    /// Applies a committed config entry: this is the epoch boundary.
    fn apply_config(&mut self, change: ConfigChange) {
        match change {
            ConfigChange::AddVoter(node) => {
                if self.membership.join(node) {
                    self.syncing.remove(&node);
                    if self.alive[node.0 as usize] {
                        self.arm_election_timer(node);
                    }
                }
            }
            ConfigChange::RemoveVoter(node) => {
                if self.membership.leave(node) {
                    let n = &mut self.p.nodes[node.0 as usize];
                    // A removed leader steps down; a removed follower just
                    // stops being counted. Bumping the generation cancels
                    // any outstanding timers either way.
                    if n.role == Role::Leader {
                        n.role = Role::Follower;
                    }
                    n.timer_generation += 1;
                }
            }
        }
    }

    fn arm_election_timer(&mut self, me: NodeId) {
        let node = &mut self.p.nodes[me.0 as usize];
        node.timer_generation += 1;
        let gen = node.timer_generation;
        // Deterministic jitter derived from node id and generation.
        let base = ELECTION_TIMEOUT.as_micros();
        let jitter = (me.0 as u64 * 7919 + gen * 104_729) % base;
        self.net.timer(
            me,
            SimDuration::from_micros(base + jitter),
            RaftMsg::ElectionTimeout { generation: gen },
        );
    }

    fn on_election_timeout(&mut self, me: NodeId, generation: u64) {
        let node = &mut self.p.nodes[me.0 as usize];
        if node.timer_generation != generation || node.role == Role::Leader {
            return;
        }
        // Become candidate.
        node.role = Role::Candidate;
        node.term += 1;
        node.voted_for = Some(me);
        node.votes = 1;
        let (term, last_log_index, last_log_term) =
            (node.term, node.last_log_index(), node.last_log_term());
        self.arm_election_timer(me);
        if self.membership.active_count() == 1 {
            self.become_leader(me);
            return;
        }
        self.net
            .broadcast_delayed(me, PROC_PER_MSG, 64, |_| RaftMsg::RequestVote {
                term,
                candidate: me,
                last_log_index,
                last_log_term,
            });
    }

    fn on_request_vote(
        &mut self,
        me: NodeId,
        at: SimTime,
        term: u64,
        candidate: NodeId,
        last_log_index: u64,
        last_log_term: u64,
    ) {
        let done = self.cpu.process(me, at, PROC_PER_MSG);
        let node = &mut self.p.nodes[me.0 as usize];
        if term > node.term {
            node.term = term;
            node.role = Role::Follower;
            node.voted_for = None;
        }
        let log_ok = last_log_term > node.last_log_term()
            || (last_log_term == node.last_log_term() && last_log_index >= node.last_log_index());
        let granted = term == node.term
            && log_ok
            && (node.voted_for.is_none() || node.voted_for == Some(candidate));
        if granted {
            node.voted_for = Some(candidate);
            self.arm_election_timer(me);
        }
        let reply_term = self.p.nodes[me.0 as usize].term;
        self.net.send_delayed(
            me,
            candidate,
            done - at,
            32,
            RaftMsg::Vote {
                term: reply_term,
                granted,
            },
        );
    }

    fn on_vote(&mut self, me: NodeId, term: u64, granted: bool) {
        let node = &mut self.p.nodes[me.0 as usize];
        if term > node.term {
            node.term = term;
            node.role = Role::Follower;
            node.voted_for = None;
            return;
        }
        if node.role != Role::Candidate || term != node.term || !granted {
            return;
        }
        node.votes += 1;
        if node.votes >= majority_quorum(self.membership.active_count()) {
            self.become_leader(me);
        }
    }

    fn become_leader(&mut self, me: NodeId) {
        // Every leadership transition — including the initial election —
        // counts as one cluster-wide view change.
        self.liveness.observe_view_change(self.net.now());
        let node = &mut self.p.nodes[me.0 as usize];
        let last = node.last_log_index();
        node.role = Role::Leader;
        node.timer_generation += 1;
        let gen = node.timer_generation;
        node.next_index.fill(last + 1);
        node.match_index.fill(0);
        node.match_index[me.0 as usize] = last;
        self.net.timer(
            me,
            SimDuration::ZERO,
            RaftMsg::HeartbeatTimer { generation: gen },
        );
        // Any queued client work can now be cut.
        if !self.pending.is_empty() {
            self.net.timer(me, self.batch.max_wait, RaftMsg::BatchTimer);
        }
    }

    fn on_heartbeat_timer(&mut self, me: NodeId, generation: u64) {
        let node = &self.p.nodes[me.0 as usize];
        if node.role != Role::Leader || node.timer_generation != generation {
            return;
        }
        self.replicate(me);
        self.net.timer(
            me,
            HEARTBEAT_INTERVAL,
            RaftMsg::HeartbeatTimer { generation },
        );
    }

    /// Cuts the pending queue into a log entry at the leader and replicates.
    fn cut_batch(&mut self, leader: NodeId) {
        if self.pending.is_empty() {
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        self.p.pending_since = if self.pending.is_empty() {
            None
        } else {
            Some(self.net.now())
        };
        let node = &mut self.p.nodes[leader.0 as usize];
        node.log.push(LogEntry {
            term: node.term,
            batch,
            config: None,
        });
        node.match_index[leader.0 as usize] = node.last_log_index();
        // Re-arm the batch timer for what remains.
        if !self.pending.is_empty() {
            self.net
                .timer(leader, self.batch.max_wait, RaftMsg::BatchTimer);
        }
        self.replicate(leader);
        // A single-voter cluster commits instantly.
        if self.membership.active_count() == 1 {
            self.try_advance_commit(leader);
        }
    }

    fn replicate(&mut self, leader: NodeId) {
        let now = self.net.now();
        for peer in 0..self.p.nodes.len() {
            let peer_id = NodeId(peer as u32);
            if peer_id == leader
                || (!self.membership.is_active(peer_id) && !self.syncing.contains(&peer_id))
            {
                continue;
            }
            let node = &self.p.nodes[leader.0 as usize];
            let next = node.next_index[peer];
            let prev_index = next - 1;
            let entries = node.log[(next - 1) as usize..].to_vec();
            let bytes = 64
                + entries
                    .iter()
                    .flat_map(|e| e.batch.iter())
                    .map(|c| c.bytes as usize)
                    .sum::<usize>();
            let cmds: usize = entries.iter().map(|e| e.batch.len()).sum();
            let msg = RaftMsg::AppendEntries {
                term: node.term,
                leader,
                prev_index,
                prev_term: node.term_at(prev_index),
                entries,
                leader_commit: node.commit_index,
            };
            let cost = PROC_PER_MSG + PROC_PER_COMMAND * cmds as u64;
            let done = self.cpu.process(leader, now, cost);
            self.net
                .send_delayed(leader, peer_id, done - now, bytes, msg);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        me: NodeId,
        at: SimTime,
        term: u64,
        leader: NodeId,
        prev_index: u64,
        prev_term: u64,
        entries: Vec<LogEntry>,
        leader_commit: u64,
    ) {
        let cmds: usize = entries.iter().map(|e| e.batch.len()).sum();
        let done = self
            .cpu
            .process(me, at, PROC_PER_MSG + PROC_PER_COMMAND * cmds as u64);
        let node = &mut self.p.nodes[me.0 as usize];
        if term > node.term {
            node.term = term;
            node.voted_for = None;
        }
        if term == node.term {
            node.role = Role::Follower;
        }
        let log_ok = term == node.term
            && prev_index <= node.last_log_index()
            && node.term_at(prev_index) == prev_term;
        let (success, match_index) = if log_ok {
            // Truncate any conflicting suffix and append.
            let appended = entries.len() as u64;
            for (idx, entry) in (prev_index as usize..).zip(entries) {
                if node.log.len() > idx {
                    if node.log[idx].term != entry.term {
                        node.log.truncate(idx);
                        node.log.push(entry);
                    }
                } else {
                    node.log.push(entry);
                }
            }
            node.commit_index = node
                .commit_index
                .max(leader_commit.min(node.last_log_index()));
            // Only what this message covered: the follower's log may hold
            // a stale suffix longer than the leader's, which must not
            // raise the leader's match/next indices past its own log.
            (true, prev_index + appended)
        } else {
            (false, 0)
        };
        let reply_term = node.term;
        if success {
            self.liveness.observe_progress(me, at);
        }
        if term == reply_term {
            self.arm_election_timer(me);
        }
        self.net.send_delayed(
            me,
            leader,
            done - at,
            32,
            RaftMsg::AppendResp {
                term: reply_term,
                from: me,
                success,
                match_index,
            },
        );
    }

    fn on_append_resp(
        &mut self,
        me: NodeId,
        term: u64,
        from: NodeId,
        success: bool,
        match_index: u64,
    ) {
        let node = &mut self.p.nodes[me.0 as usize];
        if term > node.term {
            node.term = term;
            node.role = Role::Follower;
            node.voted_for = None;
            return;
        }
        if node.role != Role::Leader || term != node.term {
            return;
        }
        let peer = from.0 as usize;
        if success {
            node.match_index[peer] = node.match_index[peer].max(match_index);
            node.next_index[peer] = node.match_index[peer] + 1;
        } else if self.syncing.contains(&from) {
            // A learner is doing explicit state transfer: restart its
            // replication from the beginning instead of walking back one
            // entry per heartbeat.
            node.next_index[peer] = 1;
        } else {
            node.next_index[peer] = node.next_index[peer].saturating_sub(1).max(1);
        }
        self.try_advance_commit(me);
    }

    fn try_advance_commit(&mut self, leader: NodeId) {
        let quorum = majority_quorum(self.membership.active_count()) as usize;
        let node = &self.p.nodes[leader.0 as usize];
        // Only voters count toward the commit quorum; learner replicas
        // advance match_index but carry no weight.
        let mut sorted: Vec<u64> = node
            .match_index
            .iter()
            .enumerate()
            .filter(|(i, _)| self.membership.is_active(NodeId(*i as u32)))
            .map(|(_, &m)| m)
            .collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let new_commit = sorted[quorum - 1];
        if new_commit <= node.commit_index || node.term_at(new_commit) != node.term {
            return;
        }
        self.p.nodes[leader.0 as usize].commit_index = new_commit;
        // Emit newly committed batches exactly once, in order; committed
        // config entries take effect here.
        let now = self.net.now();
        // One commit-index advance is one cadence tick, however many log
        // entries it covers.
        self.liveness.observe_commit(now);
        self.liveness.observe_progress(leader, now);
        while self.p.emitted_index < new_commit {
            self.p.emitted_index += 1;
            let entry =
                self.p.nodes[leader.0 as usize].log[(self.p.emitted_index - 1) as usize].clone();
            if let Some(change) = entry.config {
                self.apply_config(change);
            }
            if !entry.batch.is_empty() {
                self.p.round += 1;
                self.committed.push(CommittedBatch {
                    commands: entry.batch,
                    proposer: leader,
                    round: self.p.round,
                    committed_at: now,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::{ClientId, TxId};

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    fn settled(nodes: u32, seed: u64) -> RaftCluster {
        let mut c = RaftCluster::builder(nodes).seed(seed).build();
        c.run_until(SimTime::from_secs(3));
        assert!(c.leader().is_some(), "a leader must emerge");
        c
    }

    #[test]
    fn elects_exactly_one_leader() {
        let c = settled(3, 42);
        let leaders = (0..3)
            .filter(|&i| c.p.nodes[i].role == Role::Leader && c.alive[i])
            .count();
        assert_eq!(leaders, 1);
    }

    #[test]
    fn commits_a_single_command() {
        let mut c = settled(3, 1);
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(6));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].commands.len(), 1);
        assert_eq!(batches[0].commands[0].tx.seq(), 1);
    }

    #[test]
    fn join_promotes_learner_through_the_log() {
        let mut c = RaftCluster::builder(3).standby(1).seed(51).build();
        c.run_until(SimTime::from_secs(3));
        assert!(c.leader().is_some());
        for s in 0..6 {
            c.submit(tx(s));
        }
        let before = c.run_until(SimTime::from_secs(8));
        assert_eq!(c.active_count(), 3);
        assert_eq!(c.config_epoch(), 0);
        assert!(c.join(NodeId(3)));
        // Duplicate join requests are rejected while syncing.
        assert!(!c.join(NodeId(3)));
        for s in 6..12 {
            c.submit(tx(s));
        }
        let after = c.run_until(SimTime::from_secs(20));
        assert_eq!(c.active_count(), 4, "AddVoter entry must have committed");
        assert_eq!(c.config_epoch(), 1);
        // The promoted voter holds the full log.
        let leader = c.leader().unwrap();
        assert_eq!(
            c.p.nodes[3].last_log_index(),
            c.p.nodes[leader.0 as usize].last_log_index(),
            "joiner must be caught up"
        );
        let total: usize = before
            .iter()
            .chain(after.iter())
            .map(|b| b.commands.len())
            .sum();
        assert_eq!(total, 12, "all commands commit across the join");
    }

    #[test]
    fn leave_removes_voter_and_reelects_if_leader() {
        let mut c = settled(4, 52);
        let leader = c.leader().unwrap();
        for s in 0..6 {
            c.submit(tx(s));
        }
        c.run_until(SimTime::from_secs(8));
        assert!(c.leave(leader), "removing the current leader is allowed");
        for s in 6..12 {
            c.submit(tx(s));
        }
        let got = c.run_until(SimTime::from_secs(30));
        assert_eq!(c.active_count(), 3, "RemoveVoter entry must have committed");
        assert_eq!(c.config_epoch(), 1);
        let new_leader = c.leader().expect("a replacement leader must emerge");
        assert_ne!(new_leader, leader, "departed node must not lead");
        assert!(
            got.iter().flat_map(|b| b.commands.iter()).count() >= 6,
            "cluster keeps committing after the leave"
        );
        // The departed node can no longer be removed again.
        assert!(!c.leave(leader));
    }

    #[test]
    fn learner_never_counts_toward_commit_quorum() {
        let mut c = RaftCluster::builder(3).standby(1).seed(53).build();
        c.run_until(SimTime::from_secs(3));
        assert!(c.join(NodeId(3)));
        // Crash a voter so only 2 of 3 voters are alive: commits still need
        // a majority of *voters*, which 2/3 satisfies; now crash another so
        // quorum is unreachable even with the learner replicating.
        c.crash(NodeId(1));
        c.crash(NodeId(2));
        for s in 0..4 {
            c.submit(tx(s));
        }
        let got = c.run_until(SimTime::from_secs(12));
        assert!(
            got.is_empty(),
            "a learner replica must not substitute for a voter in the quorum"
        );
    }

    #[test]
    fn churn_run_is_deterministic() {
        let run = || {
            let mut c = RaftCluster::builder(3).standby(1).seed(54).build();
            c.run_until(SimTime::from_secs(3));
            for s in 0..12 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(4));
            c.join(NodeId(3));
            c.run_until(SimTime::from_secs(8));
            c.leave(NodeId(1));
            let got = c.run_until(SimTime::from_secs(40));
            let commits: Vec<(u64, u64, u32)> = got
                .iter()
                .flat_map(|b| {
                    let r = b.round;
                    let p = b.proposer.0;
                    b.commands.iter().map(move |c| (c.tx.seq(), r, p))
                })
                .collect();
            (commits, c.active_count(), c.config_epoch())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn commits_respect_batch_size() {
        let mut c = RaftCluster::builder(3)
            .seed(2)
            .batch(BatchConfig::new(10, SimDuration::from_millis(500)))
            .build();
        c.run_until(SimTime::from_secs(3));
        for s in 0..25 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(10));
        let total: usize = batches.iter().map(|b| b.commands.len()).sum();
        assert_eq!(total, 25);
        assert!(batches.iter().all(|b| b.commands.len() <= 10));
        // First two batches are full-size cuts:
        assert_eq!(batches[0].commands.len(), 10);
        assert_eq!(batches[1].commands.len(), 10);
    }

    #[test]
    fn batch_timeout_flushes_partial_batches() {
        let mut c = RaftCluster::builder(3)
            .seed(3)
            .batch(BatchConfig::new(1000, SimDuration::from_millis(200)))
            .build();
        c.run_until(SimTime::from_secs(3));
        c.submit(tx(1));
        c.submit(tx(2));
        let start = c.now();
        let batches = c.run_until(start + SimDuration::from_secs(2));
        assert_eq!(batches.len(), 1, "timeout must cut the partial batch");
        assert_eq!(batches[0].commands.len(), 2);
    }

    #[test]
    fn commit_order_preserves_submission_order() {
        let mut c = settled(5, 4);
        for s in 0..50 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(20));
        let seqs: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(seqs.len(), 50);
    }

    #[test]
    fn leader_crash_triggers_reelection_and_progress() {
        let mut c = settled(3, 5);
        let old_leader = c.leader().unwrap();
        c.crash(old_leader);
        c.run_until(c.now() + SimDuration::from_secs(5));
        let new_leader = c.leader().expect("new leader after crash");
        assert_ne!(new_leader, old_leader);
        c.submit(tx(9));
        let batches = c.run_until(c.now() + SimDuration::from_secs(5));
        assert_eq!(batches.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
    }

    #[test]
    fn no_progress_without_majority() {
        let mut c = settled(3, 6);
        let leader = c.leader().unwrap();
        for i in 0..3 {
            if NodeId(i) != leader {
                c.crash(NodeId(i));
            }
        }
        c.submit(tx(1));
        let batches = c.run_until(c.now() + SimDuration::from_secs(10));
        assert!(batches.is_empty(), "minority must not commit");
    }

    #[test]
    fn recovered_follower_catches_up() {
        let mut c = settled(3, 7);
        let leader = c.leader().unwrap();
        let follower = NodeId((0..3).find(|&i| NodeId(i) != leader).unwrap());
        c.crash(follower);
        for s in 0..5 {
            c.submit(tx(s));
        }
        c.run_until(c.now() + SimDuration::from_secs(5));
        c.recover(follower);
        c.run_until(c.now() + SimDuration::from_secs(5));
        let f = &c.p.nodes[follower.0 as usize];
        assert_eq!(
            f.last_log_index(),
            c.p.nodes[leader.0 as usize].last_log_index()
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = RaftCluster::builder(4).seed(seed).build();
            c.run_until(SimTime::from_secs(3));
            for s in 0..20 {
                c.submit(tx(s));
            }
            let batches = c.run_until(SimTime::from_secs(10));
            batches
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn single_node_cluster_commits_immediately() {
        let mut c = RaftCluster::builder(1).seed(8).build();
        c.run_until(SimTime::from_secs(1));
        assert!(c.leader().is_some());
        c.submit(tx(1));
        let batches = c.run_until(c.now() + SimDuration::from_secs(3));
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn logs_agree_across_alive_nodes() {
        let mut c = settled(5, 9);
        for s in 0..30 {
            c.submit(tx(s));
        }
        c.run_until(SimTime::from_secs(30));
        // All nodes that are alive must have prefix-consistent logs up to
        // the minimum commit index.
        let min_commit =
            c.p.nodes
                .iter()
                .zip(&c.alive)
                .filter(|(_, &alive)| alive)
                .map(|(n, _)| n.commit_index)
                .min()
                .unwrap();
        assert!(min_commit > 0);
        for idx in 1..=min_commit {
            let terms: Vec<u64> =
                c.p.nodes
                    .iter()
                    .zip(&c.alive)
                    .filter(|(n, &alive)| alive && n.last_log_index() >= idx)
                    .map(|(n, _)| n.term_at(idx))
                    .collect();
            assert!(
                terms.windows(2).all(|w| w[0] == w[1]),
                "log divergence at {idx}"
            );
        }
    }

    #[test]
    fn commit_latency_is_subsecond_on_lan() {
        let mut c = RaftCluster::builder(3)
            .seed(10)
            .batch(BatchConfig::new(500, SimDuration::from_millis(100)))
            .build();
        c.run_until(SimTime::from_secs(3));
        assert!(c.leader().is_some());
        let submit_at = c.now();
        c.submit(tx(1));
        let batches = c.run_until(c.now() + SimDuration::from_secs(5));
        assert_eq!(batches.len(), 1);
        let latency = batches[0].committed_at - submit_at;
        assert!(
            latency < SimDuration::from_secs(1),
            "commit took {latency}, expected < 1 s on a LAN"
        );
    }
}
