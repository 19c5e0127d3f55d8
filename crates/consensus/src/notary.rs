//! The Corda notary: a uniqueness service over consumed states.
//!
//! Corda has no blocks and no global ordering; finality is provided by a
//! notary that checks whether a transaction's input states were already
//! consumed and, if not, signs the transaction and records the inputs as
//! spent (the paper's Table 2: "Single notary"; Table 4: four notaries, one
//! per server, each transaction notarized by one of them).
//!
//! The model is a FIFO service queue with a per-request service time: a
//! request arriving while the notary is busy waits. Double-spends are
//! rejected with a conflict — the behaviour the BankingApp-SendPayment
//! benchmark provokes on Corda ("a notary might reject already spent
//! transaction output", §4.1).

use std::collections::HashSet;

use coconut_types::{NodeId, SimDuration, SimTime, StateRef, TxId};

use crate::Membership;

/// Base catch-up time for a notary joining the pool plus a per-consumed-state
/// transfer cost; the joiner serves no requests until this completes.
const SYNC_BASE: SimDuration = SimDuration::from_millis(250);
const SYNC_PER_STATE: SimDuration = SimDuration::from_micros(20);

/// The verdict of a notarization request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotaryVerdict {
    /// All input states were unconsumed; they are now marked spent and the
    /// transaction is final.
    Signed,
    /// At least one input state was already consumed; the transaction is
    /// rejected and no state is changed.
    Conflict(StateRef),
}

/// A completed notarization: the transaction, the verdict, and the time the
/// response left the notary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotaryResponse {
    /// The notarized transaction.
    pub tx: TxId,
    /// Signed or rejected.
    pub verdict: NotaryVerdict,
    /// When the notary finished processing (response transmission is the
    /// caller's concern).
    pub completed_at: SimTime,
}

impl NotaryResponse {
    /// `true` if the notary signed the transaction.
    pub fn is_signed(&self) -> bool {
        matches!(self.verdict, NotaryVerdict::Signed)
    }
}

/// A single notary service with a FIFO queue and a consumed-state table.
///
/// # Example
///
/// ```
/// use coconut_consensus::notary::{NotaryService, NotaryVerdict};
/// use coconut_types::{ClientId, SimDuration, SimTime, StateRef, TxId};
///
/// let mut notary = NotaryService::new(SimDuration::from_millis(2));
/// let state = StateRef::new(TxId::new(ClientId(0), 1), 0);
///
/// let first = notary.request(SimTime::from_secs(1), TxId::new(ClientId(0), 2), &[state]);
/// assert!(first.is_signed());
///
/// // Spending the same state again conflicts:
/// let second = notary.request(SimTime::from_secs(2), TxId::new(ClientId(0), 3), &[state]);
/// assert_eq!(second.verdict, NotaryVerdict::Conflict(state));
/// ```
#[derive(Debug, Clone)]
pub struct NotaryService {
    consumed: HashSet<StateRef>,
    service_time: SimDuration,
    per_input_time: SimDuration,
    busy_until: SimTime,
    processed: u64,
    conflicts: u64,
    alive: bool,
    /// Gray-failure window: while `arrival < until`, service time is
    /// multiplied by `factor` — the notary answers, just slowly.
    slow: Option<(f64, SimTime)>,
}

impl NotaryService {
    /// Creates a notary with a fixed per-request service time.
    pub fn new(service_time: SimDuration) -> Self {
        NotaryService {
            consumed: HashSet::new(),
            service_time,
            per_input_time: SimDuration::from_micros(100),
            busy_until: SimTime::ZERO,
            processed: 0,
            conflicts: 0,
            alive: true,
            slow: None,
        }
    }

    /// `true` while the notary serves requests.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Crashes the notary (fault injection): it stops serving requests.
    pub fn crash(&mut self) {
        self.alive = false;
    }

    /// Recovers the notary at `now`. Its consumed-state table survived on
    /// disk; the in-flight queue it had at crash time is gone, so the
    /// service restarts idle.
    pub fn recover(&mut self, now: SimTime) {
        self.alive = true;
        self.busy_until = self.busy_until.max(now);
    }

    /// Sets the additional cost per input state checked.
    pub fn with_per_input_time(mut self, d: SimDuration) -> Self {
        self.per_input_time = d;
        self
    }

    /// Arms a gray-slow window: requests arriving before `until` are served
    /// at `factor`× their normal service time. The notary never stops
    /// answering — the degradation is silent, unlike a crash.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn slow_down(&mut self, factor: f64, until: SimTime) {
        assert!(factor >= 1.0, "a slow-down factor must be >= 1");
        self.slow = Some((factor, until));
    }

    /// Processes a notarization request arriving at `arrival` for `tx`
    /// consuming `inputs`. Requests are served FIFO; the response carries
    /// the completion time including queueing delay.
    pub fn request(&mut self, arrival: SimTime, tx: TxId, inputs: &[StateRef]) -> NotaryResponse {
        let start = arrival.max(self.busy_until);
        let mut cost = self.service_time + self.per_input_time * inputs.len() as u64;
        if let Some((factor, until)) = self.slow {
            if arrival < until && factor > 1.0 {
                cost = cost.mul_f64(factor);
            }
        }
        let completed_at = start + cost;
        self.busy_until = completed_at;
        self.processed += 1;

        // Check-then-consume must be atomic per request.
        if let Some(&dup) = inputs.iter().find(|s| self.consumed.contains(s)) {
            self.conflicts += 1;
            return NotaryResponse {
                tx,
                verdict: NotaryVerdict::Conflict(dup),
                completed_at,
            };
        }
        for &s in inputs {
            self.consumed.insert(s);
        }
        NotaryResponse {
            tx,
            verdict: NotaryVerdict::Signed,
            completed_at,
        }
    }

    /// Total requests processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Requests rejected due to double-spends.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The time the notary becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Queue backlog relative to `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }
}

/// A pool of notaries (Table 4: one per server); requests are routed by the
/// transaction id so a given transaction always hits the same notary.
///
/// Note: because each notary keeps an independent consumed-state table, the
/// pool is *sharded by transaction*, which mirrors the paper's setup where a
/// transaction's notarization is handled by a single notary ("Single
/// notary" consensus). Conflict detection therefore requires the same
/// shard — routing uses the *first input state's* producing transaction so
/// that spends of the same state always collide on one notary.
#[derive(Debug, Clone)]
pub struct NotaryPool {
    notaries: Vec<NotaryService>,
    /// Epoch-versioned cluster membership: only members serve requests.
    membership: Membership,
    /// Joining notaries copying the uniqueness database: `(who, ready_at)`.
    /// Promotion happens lazily when a request at or after `ready_at`
    /// arrives, so a joiner never signs before its sync completes.
    pending_join: Vec<(NodeId, SimTime)>,
}

impl NotaryPool {
    /// Creates a pool of `n` notaries with the given per-request service time.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32, service_time: SimDuration) -> Self {
        assert!(n > 0, "pool needs at least one notary");
        NotaryPool {
            notaries: (0..n).map(|_| NotaryService::new(service_time)).collect(),
            membership: Membership::new(n, 0),
            pending_join: Vec::new(),
        }
    }

    /// Pre-provisions `k` standby notaries that start outside the cluster
    /// and can be admitted at runtime via [`NotaryPool::join`]. Must be
    /// called before any requests are served.
    pub fn with_standby(mut self, k: u32) -> Self {
        let n = self.membership.active_count();
        let service_time = self.notaries[0].service_time;
        let per_input = self.notaries[0].per_input_time;
        for _ in 0..k {
            self.notaries
                .push(NotaryService::new(service_time).with_per_input_time(per_input));
        }
        self.membership = Membership::new(n, k);
        self
    }

    /// Number of provisioned notaries (members plus standby).
    pub fn len(&self) -> usize {
        self.notaries.len()
    }

    /// `true` if the pool is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.notaries.is_empty()
    }

    /// Notaries currently in the cluster (serving shards).
    pub fn active_count(&self) -> u32 {
        self.membership.active_count()
    }

    /// Current cluster configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Starts admitting a standby notary at `now`: it copies the
    /// consumed-state database (longer the more states are spent) and only
    /// joins the sharding ring — bumping the epoch — once the copy
    /// completes. Returns `false` if `idx` is unknown, already a member, or
    /// already syncing.
    pub fn join(&mut self, now: SimTime, idx: usize) -> bool {
        let node = NodeId(idx as u32);
        if idx >= self.notaries.len()
            || self.membership.is_active(node)
            || self.pending_join.iter().any(|(n, _)| *n == node)
        {
            return false;
        }
        let states: u64 = self.notaries.iter().map(|n| n.consumed.len() as u64).sum();
        let ready_at = now + SYNC_BASE + SYNC_PER_STATE * states;
        self.pending_join.push((node, ready_at));
        true
    }

    /// Removes a member from the sharding ring, handing its consumed-state
    /// table over to the remaining members and bumping the epoch. Returns
    /// `false` if `idx` is not a member or is the last one.
    pub fn leave(&mut self, idx: usize) -> bool {
        if !self.membership.leave(NodeId(idx as u32)) {
            return false;
        }
        self.reshard();
        true
    }

    /// Promotes joiners whose database copy completed by `now`. Called
    /// automatically on every request; a driver may also call it directly
    /// to reconcile membership at a time boundary.
    pub fn settle(&mut self, now: SimTime) {
        let mut changed = false;
        let mut still_waiting = Vec::new();
        for (node, ready_at) in std::mem::take(&mut self.pending_join) {
            if ready_at <= now && self.membership.join(node) {
                changed = true;
            } else if ready_at > now {
                still_waiting.push((node, ready_at));
            }
        }
        self.pending_join = still_waiting;
        if changed {
            self.reshard();
        }
    }

    /// Resizing moves states between home shards, so the uniqueness
    /// database is redistributed: every member ends up able to detect a
    /// double-spend of any state consumed anywhere before the epoch change
    /// (set union — order-independent, so iteration order cannot leak into
    /// results).
    fn reshard(&mut self) {
        let union: HashSet<StateRef> = self
            .notaries
            .iter()
            .flat_map(|n| n.consumed.iter().copied())
            .collect();
        for (i, n) in self.notaries.iter_mut().enumerate() {
            if self.membership.is_active(NodeId(i as u32)) {
                n.consumed.extend(union.iter().copied());
            }
        }
    }

    /// Routes and processes a request (see [`NotaryService::request`]).
    ///
    /// If the preferred shard's notary has crashed, the request fails over
    /// to the next alive notary in ring order (deterministic). While the
    /// fail-over target differs from the home shard its consumed-state
    /// table is independent, so repeated spends of one state keep
    /// colliding on the *same* fail-over target as long as the alive set
    /// does not change between them. Returns `None` when every notary is
    /// dead — finality halts and the request is simply lost.
    pub fn request(
        &mut self,
        arrival: SimTime,
        tx: TxId,
        inputs: &[StateRef],
    ) -> Option<NotaryResponse> {
        self.settle(arrival);
        let members = self.membership.active_nodes();
        let n = members.len();
        let home = match inputs.first() {
            Some(s) => (s.tx().as_u64() % n as u64) as usize,
            None => (tx.as_u64() % n as u64) as usize,
        };
        let shard = (0..n)
            .map(|off| members[(home + off) % n].0 as usize)
            .find(|&i| self.notaries[i].is_alive())?;
        Some(self.notaries[shard].request(arrival, tx, inputs))
    }

    /// Arms a gray-slow window on notary `idx` (see
    /// [`NotaryService::slow_down`]); `false` if the index is out of range.
    pub fn slow_down(&mut self, idx: usize, factor: f64, until: SimTime) -> bool {
        match self.notaries.get_mut(idx) {
            Some(s) => {
                s.slow_down(factor, until);
                true
            }
            None => false,
        }
    }

    /// Crashes notary `idx`; `false` if the index is out of range.
    pub fn crash(&mut self, idx: usize) -> bool {
        match self.notaries.get_mut(idx) {
            Some(s) => {
                s.crash();
                true
            }
            None => false,
        }
    }

    /// Recovers notary `idx` at `now`; `false` if out of range.
    pub fn recover(&mut self, idx: usize, now: SimTime) -> bool {
        match self.notaries.get_mut(idx) {
            Some(s) => {
                s.recover(now);
                true
            }
            None => false,
        }
    }

    /// Members currently serving requests (crashed and standby notaries
    /// excluded).
    pub fn alive_count(&self) -> usize {
        self.notaries
            .iter()
            .enumerate()
            .filter(|(i, s)| s.is_alive() && self.membership.is_active(NodeId(*i as u32)))
            .count()
    }

    /// Total requests processed across the pool.
    pub fn processed(&self) -> u64 {
        self.notaries.iter().map(|n| n.processed()).sum()
    }

    /// Total conflicts across the pool.
    pub fn conflicts(&self) -> u64 {
        self.notaries.iter().map(|n| n.conflicts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::ClientId;

    fn tx(seq: u64) -> TxId {
        TxId::new(ClientId(0), seq)
    }

    fn state(seq: u64, idx: u32) -> StateRef {
        StateRef::new(tx(seq), idx)
    }

    #[test]
    fn signs_fresh_states_and_rejects_double_spends() {
        let mut n = NotaryService::new(SimDuration::from_millis(1));
        let s = state(1, 0);
        assert!(n.request(SimTime::ZERO, tx(2), &[s]).is_signed());
        let r = n.request(SimTime::from_secs(1), tx(3), &[s]);
        assert_eq!(r.verdict, NotaryVerdict::Conflict(s));
        assert_eq!(n.conflicts(), 1);
        assert_eq!(n.processed(), 2);
    }

    #[test]
    fn conflict_consumes_nothing() {
        let mut n = NotaryService::new(SimDuration::from_millis(1));
        let spent = state(1, 0);
        let fresh = state(1, 1);
        n.request(SimTime::ZERO, tx(2), &[spent]);
        // A tx that mixes a spent and a fresh input conflicts...
        let r = n.request(SimTime::from_secs(1), tx(3), &[spent, fresh]);
        assert!(!r.is_signed());
        // ...and must NOT consume the fresh input.
        let r2 = n.request(SimTime::from_secs(2), tx(4), &[fresh]);
        assert!(r2.is_signed());
    }

    #[test]
    fn fifo_queueing_delays_responses() {
        let mut n = NotaryService::new(SimDuration::from_millis(10));
        let t = SimTime::from_secs(1);
        let r1 = n.request(t, tx(1), &[state(0, 0)]);
        let r2 = n.request(t, tx(2), &[state(0, 1)]);
        assert!(r2.completed_at > r1.completed_at);
        assert_eq!(
            r2.completed_at - r1.completed_at,
            SimDuration::from_millis(10) + SimDuration::from_micros(100)
        );
        assert!(n.backlog(t) > SimDuration::from_millis(19));
    }

    #[test]
    fn per_input_cost_scales() {
        let mut n = NotaryService::new(SimDuration::from_millis(1))
            .with_per_input_time(SimDuration::from_millis(1));
        let inputs: Vec<StateRef> = (0..5).map(|i| state(9, i)).collect();
        let r = n.request(SimTime::ZERO, tx(1), &inputs);
        assert_eq!(r.completed_at, SimTime::from_millis(6));
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut n = NotaryService::new(SimDuration::from_millis(10));
        n.request(SimTime::ZERO, tx(1), &[state(0, 0)]);
        let r = n.request(SimTime::from_secs(5), tx(2), &[state(0, 1)]);
        assert_eq!(
            r.completed_at,
            SimTime::from_secs(5) + SimDuration::from_millis(10) + SimDuration::from_micros(100)
        );
    }

    #[test]
    fn pool_routes_same_state_to_same_shard() {
        let mut pool = NotaryPool::new(4, SimDuration::from_millis(1));
        let s = state(7, 0);
        assert!(pool
            .request(SimTime::ZERO, tx(10), &[s])
            .unwrap()
            .is_signed());
        let r = pool.request(SimTime::from_secs(1), tx(11), &[s]).unwrap();
        assert!(
            !r.is_signed(),
            "same state must hit the same shard and conflict"
        );
        assert_eq!(pool.conflicts(), 1);
        assert_eq!(pool.processed(), 2);
    }

    #[test]
    fn pool_spreads_unrelated_requests() {
        let mut pool = NotaryPool::new(4, SimDuration::from_millis(10));
        let t = SimTime::ZERO;
        // Distinct producing txs route to distinct shards (mostly), so the
        // pool completes 4 unrelated requests faster than one notary would.
        let done: Vec<SimTime> = (0..4)
            .map(|i| {
                pool.request(t, tx(100 + i), &[state(i, 0)])
                    .unwrap()
                    .completed_at
            })
            .collect();
        let serial_end =
            SimTime::ZERO + (SimDuration::from_millis(10) + SimDuration::from_micros(100)) * 4;
        assert!(done.iter().max().unwrap() < &serial_end);
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
    }

    #[test]
    fn empty_input_list_is_signed() {
        // Issuance transactions consume nothing.
        let mut n = NotaryService::new(SimDuration::from_millis(1));
        assert!(n.request(SimTime::ZERO, tx(1), &[]).is_signed());
    }

    #[test]
    fn pool_fails_over_to_next_alive_notary() {
        let mut pool = NotaryPool::new(4, SimDuration::from_millis(1));
        let s = state(4, 0); // home shard = 4 % 4 = 0
        assert!(pool.crash(0));
        assert_eq!(pool.alive_count(), 3);
        // Both spends of the same state fail over to shard 1 and collide.
        assert!(pool
            .request(SimTime::ZERO, tx(10), &[s])
            .unwrap()
            .is_signed());
        let r = pool.request(SimTime::from_secs(1), tx(11), &[s]).unwrap();
        assert!(
            !r.is_signed(),
            "fail-over target still detects the double-spend"
        );
    }

    #[test]
    fn pool_join_resizes_after_database_copy() {
        let mut pool = NotaryPool::new(2, SimDuration::from_millis(1)).with_standby(1);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.active_count(), 2);
        // Consume some states to give the joiner a database to copy.
        for i in 0..10 {
            assert!(pool
                .request(SimTime::from_millis(i * 5), tx(100 + i), &[state(i, 0)])
                .unwrap()
                .is_signed());
        }
        assert!(pool.join(SimTime::from_millis(60), 2));
        assert!(!pool.join(SimTime::from_millis(60), 2), "already syncing");
        // A request before the copy completes does not see the joiner...
        pool.request(SimTime::from_millis(70), tx(200), &[state(50, 0)])
            .unwrap();
        assert_eq!(pool.active_count(), 2);
        assert_eq!(pool.config_epoch(), 0);
        // ...but one after the sync window does.
        pool.request(SimTime::from_secs(2), tx(201), &[state(51, 0)])
            .unwrap();
        assert_eq!(pool.active_count(), 3);
        assert_eq!(pool.config_epoch(), 1);
        // Double-spend detection survives the reshard: a state consumed
        // before the resize still conflicts wherever it now routes.
        for i in 0..10 {
            let r = pool
                .request(SimTime::from_secs(3), tx(300 + i), &[state(i, 0)])
                .unwrap();
            assert!(!r.is_signed(), "state {i} must still read as consumed");
        }
    }

    #[test]
    fn pool_leave_hands_state_over_to_remaining_members() {
        let mut pool = NotaryPool::new(3, SimDuration::from_millis(1));
        for i in 0..12 {
            assert!(pool
                .request(SimTime::from_millis(i * 5), tx(100 + i), &[state(i, 0)])
                .unwrap()
                .is_signed());
        }
        assert!(pool.leave(1));
        assert!(!pool.leave(1), "already departed");
        assert_eq!(pool.active_count(), 2);
        assert_eq!(pool.config_epoch(), 1);
        assert_eq!(pool.alive_count(), 2, "departed notary no longer serves");
        // Every previously consumed state still conflicts after the resize.
        for i in 0..12 {
            let r = pool
                .request(SimTime::from_secs(2), tx(300 + i), &[state(i, 0)])
                .unwrap();
            assert!(!r.is_signed(), "state {i} must still read as consumed");
        }
        // The last member cannot leave.
        assert!(pool.leave(0));
        assert!(!pool.leave(2), "a singleton cluster must refuse to shrink");
    }

    #[test]
    fn pool_halts_when_all_notaries_dead_and_recovers() {
        let mut pool = NotaryPool::new(2, SimDuration::from_millis(1));
        assert!(pool.crash(0));
        assert!(pool.crash(1));
        assert!(!pool.crash(9), "out-of-range index is reported");
        assert_eq!(pool.alive_count(), 0);
        assert!(pool.request(SimTime::ZERO, tx(1), &[state(0, 0)]).is_none());
        assert!(pool.recover(1, SimTime::from_secs(3)));
        let r = pool
            .request(SimTime::from_secs(3), tx(2), &[state(0, 1)])
            .unwrap();
        assert!(r.is_signed());
        assert!(r.completed_at >= SimTime::from_secs(3));
    }
}
