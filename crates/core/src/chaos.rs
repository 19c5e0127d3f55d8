//! The client loop: every measurement, from the paper's tables to the
//! fault campaigns, runs through [`run_chaos_with_schedule`].
//!
//! The paper's client (§4.4) fires transactions at a fixed rate and simply
//! counts what comes back; a lost transaction is a lost transaction. With
//! an empty plan and both policies disabled the loop is exactly that
//! client. This module extends it for fault campaigns: a declarative
//! [`FaultPlan`] is replayed in virtual-time order while the schedule
//! runs, and the client re-sends transactions that were rejected at
//! ingress or missed their finalization timeout — bounded retries with
//! exponential backoff and seeded jitter, so runs stay deterministic per
//! seed.
//!
//! Number-of-transactions accounting separates the failure modes the paper
//! lumps together: [`DeliveryAccounting`] splits unconfirmed transactions
//! into `rejected` (the system said no and retries ran out), `timed_out`
//! (accepted but never confirmed), `lost_in_fault` (the submission itself
//! was swallowed by an active loss burst), `backpressured` (the system
//! answered `Busy` and the client gave up or was held off), and `unsent`
//! (the send slot fell outside the listen window).
//!
//! For overload campaigns the client can additionally arm
//! [`ClientProtection`]: a [`RetryBudget`] token bucket bounding total
//! re-sends, a [`CircuitBreaker`] that stops hammering a system answering
//! `Busy`. Both are seeded-deterministic; with
//! [`ClientProtection::disabled`] the loop is bit-identical to the
//! unprotected client.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use coconut_chains::BlockchainSystem;
use coconut_consensus::{LivenessReport, SafetyReport};
use coconut_simnet::{FaultEvent, FaultPlan, FaultScheduler};
use coconut_types::{ClientId, MixMap, SeedDeriver, SimDuration, SimRng, SimTime, TxId, TxOutcome};

use crate::client::ScheduledTx;
use crate::runner::BenchmarkSpec;
use crate::stats::percentile;

/// Bounded retry with exponential backoff and seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-sends allowed per transaction (0 disables retrying).
    pub max_retries: u32,
    /// How long the client waits for a confirmation before concluding the
    /// transaction is lost and re-sending it.
    pub finalization_timeout: SimDuration,
    /// Backoff before retry `k` is `base_backoff * 2^(k−1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: SimDuration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: SimDuration,
    /// Jitter fraction: a seeded uniform draw in `[0, jitter)` of the
    /// backoff is added so retry bursts decorrelate across threads.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries, no timeout tracking — the paper's fire-and-forget client.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            finalization_timeout: SimDuration::from_secs(3600),
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// The chaos-suite default: three retries, 8 s finalization timeout,
    /// 250 ms base backoff capped at 4 s, 20% jitter.
    pub fn chaos_default() -> Self {
        RetryPolicy {
            max_retries: 3,
            finalization_timeout: SimDuration::from_secs(8),
            base_backoff: SimDuration::from_millis(250),
            max_backoff: SimDuration::from_secs(4),
            jitter: 0.2,
        }
    }

    /// `true` if the policy re-sends at all.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The delay before retry attempt `attempt` (1-based), jittered.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        assert!(attempt > 0, "attempt numbers are 1-based");
        let doubling = 1u64 << (attempt - 1).min(16);
        let exp = (self.base_backoff * doubling).min(self.max_backoff);
        exp + exp.mul_f64(self.jitter.max(0.0) * rng.gen_f64())
    }
}

/// A token bucket bounding the *total* re-sends the client may issue in
/// one run. Every retry (from a rejection, a `Busy` answer, or a
/// finalization timeout) spends one token; when the bucket is dry the
/// transaction is abandoned instead of re-sent. This is what breaks the
/// retry-amplification loop behind metastable failures: without a budget,
/// an overload pulse makes every client re-send, which sustains the
/// overload after the pulse ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last: SimTime,
}

impl RetryBudget {
    /// A bucket holding `capacity` tokens, regaining `refill_per_sec`
    /// tokens per virtual second (capped at `capacity`). Starts full.
    pub fn new(capacity: u32, refill_per_sec: f64) -> Self {
        RetryBudget {
            capacity: capacity as f64,
            refill_per_sec,
            tokens: capacity as f64,
            last: SimTime::ZERO,
        }
    }

    /// Takes one token at virtual time `now`, refilling first. `false`
    /// means the budget is exhausted and the retry must be dropped.
    pub fn try_spend(&mut self, now: SimTime) -> bool {
        if now > self.last {
            let gained = (now - self.last).as_secs_f64() * self.refill_per_sec;
            self.tokens = (self.tokens + gained).min(self.capacity);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (before any refill due at a later time).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Parameters of the client-side circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive `Busy`/timeout responses that trip the breaker.
    pub failure_threshold: u32,
    /// Base cooldown once tripped; a server `retry_after` hint extends it.
    pub open_for: SimDuration,
    /// Jitter fraction applied (from the seeded `breaker` stream) when
    /// deferred sends re-queue at the cooldown's end, so the reopening
    /// breaker is not hit by a synchronized thundering herd.
    pub jitter: f64,
}

impl BreakerPolicy {
    /// The overload-suite default: trip after 5 consecutive failures,
    /// hold off for 1 s, 20% reopen jitter.
    pub fn overload_default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            open_for: SimDuration::from_secs(1),
            jitter: 0.2,
        }
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Sends flow freely; consecutive failures are counted.
    Closed,
    /// Sends are held back until the cooldown expires.
    Open,
    /// The cooldown expired; sends probe the system. One success closes
    /// the breaker, one failure re-opens it.
    HalfOpen,
}

/// A seeded-deterministic circuit breaker: `Closed → Open` after
/// [`BreakerPolicy::failure_threshold`] consecutive `Busy`/timeout
/// responses, `Open → HalfOpen` once the cooldown elapses, and
/// `HalfOpen → Closed` (probe confirmed) or `HalfOpen → Open` (probe
/// failed). Rejections are semantic refusals, not overload, and do not
/// count as failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    opens: u64,
    open_secs: f64,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            opens: 0,
            open_secs: 0.0,
        }
    }

    /// Whether a send may proceed at `now`. An open breaker whose
    /// cooldown has elapsed transitions to `HalfOpen` and lets the send
    /// through as a probe.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open if now >= self.open_until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// When sends are denied, the earliest time to try again.
    pub fn retry_at(&self) -> SimTime {
        self.open_until
    }

    /// Records an accepted submission. A half-open probe's success closes
    /// the breaker; any success resets the consecutive-failure count.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// Records a `Busy` or finalization-timeout failure at `now`;
    /// `retry_after` is the server's hold-off hint, which extends the
    /// cooldown beyond [`BreakerPolicy::open_for`] when longer.
    pub fn on_failure(&mut self, now: SimTime, retry_after: Option<SimDuration>) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(now, retry_after);
                }
            }
            BreakerState::HalfOpen => self.trip(now, retry_after),
            // Stragglers failing while already open don't extend the
            // cooldown (they were sent before the trip).
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime, retry_after: Option<SimDuration>) {
        let cooldown = self
            .policy
            .open_for
            .max(retry_after.unwrap_or(SimDuration::ZERO));
        self.state = BreakerState::Open;
        self.open_until = now + cooldown;
        self.opens += 1;
        self.open_secs += cooldown.as_secs_f64();
        self.consecutive_failures = 0;
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The policy the breaker was built with.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Total virtual seconds of cooldown the breaker imposed.
    pub fn open_secs(&self) -> f64 {
        self.open_secs
    }
}

/// The client-side overload protections, all optional. With everything
/// `None` ([`ClientProtection::disabled`]) the chaos loop draws no extra
/// randomness and behaves bit-identically to the classic client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientProtection {
    /// Cap on total re-sends per run.
    pub budget: Option<RetryBudget>,
    /// Circuit breaker on consecutive `Busy`/timeout responses.
    pub breaker: Option<BreakerPolicy>,
}

impl ClientProtection {
    /// No protection: the classic chaos client.
    pub fn disabled() -> Self {
        ClientProtection::default()
    }

    /// The overload-suite default: a retry budget of 100 tokens refilling
    /// at 10/s plus a [`BreakerPolicy::overload_default`] breaker.
    pub fn overload_default() -> Self {
        ClientProtection {
            budget: Some(RetryBudget::new(100, 10.0)),
            breaker: Some(BreakerPolicy::overload_default()),
        }
    }

    /// `true` when any protection is armed.
    pub fn enabled(&self) -> bool {
        self.budget.is_some() || self.breaker.is_some()
    }
}

/// Number-of-transactions accounting for one chaos run. Every scheduled
/// transaction lands in exactly one terminal class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeliveryAccounting {
    /// Transactions the client scheduled.
    pub scheduled: u64,
    /// Transactions confirmed at least once within the listen window.
    pub confirmed: u64,
    /// Transactions whose every submission was rejected at ingress and
    /// whose retry allowance ran out.
    pub rejected: u64,
    /// Transactions the system accepted but never confirmed before the
    /// client terminated.
    pub timed_out: u64,
    /// Transactions whose last submission was swallowed by an active loss
    /// burst before reaching the system.
    pub lost_in_fault: u64,
    /// Transactions whose send slot fell outside the listen window, so
    /// the client terminated before ever attempting them.
    pub unsent: u64,
    /// Transactions whose last answer was `Busy` (and the client gave up
    /// or ran out of budget), or that the circuit breaker held back until
    /// the run ended.
    pub backpressured: u64,
    /// Total re-sends performed (not counted in `scheduled`).
    pub retries: u64,
    /// `Busy` answers received across all submissions.
    pub busy_responses: u64,
    /// Retries wanted but dropped because the [`RetryBudget`] was dry.
    pub budget_exhausted: u64,
    /// Times the [`CircuitBreaker`] tripped open.
    pub breaker_opens: u64,
    /// Total virtual seconds of breaker-imposed cooldown.
    pub breaker_open_secs: f64,
}

impl DeliveryAccounting {
    /// Fraction of scheduled transactions confirmed.
    pub fn delivery_ratio(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.scheduled as f64
        }
    }

    /// Sends per scheduled transaction: `(scheduled + retries) /
    /// scheduled`. 1.0 means no transaction was ever re-sent; values well
    /// above 1 during an overload pulse are the amplification that
    /// sustains metastable failures.
    pub fn retry_amplification(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            (self.scheduled + self.retries) as f64 / self.scheduled as f64
        }
    }

    /// `true` when every scheduled transaction is classified exactly once.
    pub fn is_complete(&self) -> bool {
        self.confirmed
            + self.rejected
            + self.timed_out
            + self.lost_in_fault
            + self.unsent
            + self.backpressured
            == self.scheduled
    }
}

/// The client-side observations of one chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosRun {
    /// Terminal per-transaction classification.
    pub accounting: DeliveryAccounting,
    /// Committed operations per virtual-time bucket (for throughput
    /// timelines and recovery detection). Bucket `i` covers
    /// `[i, i+1) * bucket_len` from the schedule base.
    pub buckets: Vec<u64>,
    /// Width of each bucket.
    pub bucket_len: SimDuration,
    /// Mean throughput over the active span (ops/s, formula 2), from the
    /// bucketed operations.
    pub mtps: f64,
    /// Mean finalization latency over confirmed transactions (s).
    pub mfls: f64,
    /// Median finalization latency (s).
    pub p50: f64,
    /// 95th-percentile finalization latency (s).
    pub p95: f64,
    /// 99th-percentile finalization latency (s) — the gray-failure tail.
    pub p99: f64,
    /// The active span `t_lrtx − t_fstx` in seconds (formula 3), or 0.0
    /// when nothing was confirmed after the first send.
    pub duration: f64,
    /// Operations confirmed inside the listen window, once per scheduled
    /// transaction. Unlike `buckets`, this includes a confirmation landing
    /// exactly on an integral listen end.
    pub confirmed_ops: u64,
    /// Whether the system still served confirmations at the end.
    pub live: bool,
    /// The consensus safety monitor's verdict, for systems that carry one
    /// (the BFT chains). `None` means safety invariants are not applicable.
    pub safety: Option<SafetyReport>,
    /// The consensus liveness monitor's verdict at run end, for systems
    /// that carry one. `None` only for test doubles.
    pub liveness: Option<LivenessReport>,
}

impl ChaosRun {
    /// Mean bucket throughput (ops/s) over buckets fully inside
    /// `[from, to)`, or 0.0 if the range covers no full bucket.
    pub fn window_mtps(&self, from: SimTime, to: SimTime) -> f64 {
        let lo = (from.as_secs_f64() / self.bucket_len.as_secs_f64()).ceil() as usize;
        let hi = (to.as_secs_f64() / self.bucket_len.as_secs_f64()).floor() as usize;
        let hi = hi.min(self.buckets.len());
        if lo >= hi {
            return 0.0;
        }
        let ops: u64 = self.buckets[lo..hi].iter().sum();
        ops as f64 / ((hi - lo) as f64 * self.bucket_len.as_secs_f64())
    }

    /// Virtual seconds from `heal` until throughput first sustains at
    /// least `threshold` × the pre-fault mean over a three-bucket sliding
    /// window (summed, so block cadences longer than a bucket — Fabric's
    /// 2 s batch timeout against 1 s buckets — don't defeat detection).
    /// `None` if throughput never recovers (or never existed).
    pub fn recovery_secs(&self, crash: SimTime, heal: SimTime, threshold: f64) -> Option<f64> {
        const SUSTAIN: usize = 3;
        let pre = self.window_mtps(SimTime::ZERO, crash);
        if pre <= 0.0 {
            return None;
        }
        let needed = pre * self.bucket_len.as_secs_f64() * SUSTAIN as f64 * threshold;
        let heal_bucket = (heal.as_secs_f64() / self.bucket_len.as_secs_f64()).ceil() as usize;
        let n = self.buckets.len();
        (heal_bucket..n.saturating_sub(SUSTAIN - 1))
            .find(|&b| {
                (b..b + SUSTAIN)
                    .map(|i| self.buckets[i] as f64)
                    .sum::<f64>()
                    >= needed
            })
            .map(|b| (b as f64 * self.bucket_len.as_secs_f64() - heal.as_secs_f64()).max(0.0))
    }
}

/// What a pending client action is. Faults are not queued here: the
/// [`FaultScheduler`] is drained before each action, so a fault at `t`
/// always precedes a submission at `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Check a transaction's finalization timeout (may schedule a re-send).
    Timeout(TxId),
    /// Send (or re-send) a transaction.
    Submit(TxId),
}

/// A pending action's sort key, four words compared lexicographically:
/// `[at µs, tag << 32 | client, id seq, insertion seq << 32 | position]`,
/// with tag 0 for a timeout and 1 for a submit. The order is time, then
/// timeout before submit, then the original id as `(client, seq)`, then
/// insertion order; the position never decides, because insertion seqs
/// are unique.
type Key = [u64; 4];

/// The low half of a key's last word: the schedule position.
const POSITION_MASK: u64 = (1 << 32) - 1;

fn key(at: SimTime, action: Action, seq: u64, i: usize) -> Key {
    let (tag, id) = match action {
        Action::Timeout(id) => (0, id),
        Action::Submit(id) => (1, id),
    };
    [
        at.as_micros(),
        tag << 32 | u64::from(id.client().0),
        id.seq(),
        seq << 32 | i as u64,
    ]
}

/// Splits a key back into `(at, action, position)`.
fn decode(k: Key) -> (SimTime, Action, usize) {
    let id = TxId::new(ClientId(k[1] as u32), k[2]);
    let action = if k[1] >> 32 == 0 {
        Action::Timeout(id)
    } else {
        Action::Submit(id)
    };
    let i = (k[3] & POSITION_MASK) as usize;
    (SimTime::from_micros(k[0]), action, i)
}

/// The client's timed actions: a cursor over the sorted schedule, merged
/// with a [`Calendar`] of re-queued actions (retries, finalization
/// timeouts and breaker deferrals), each held as a [`Key`]. Schedule
/// position `i` keys as inserted `i`-th and re-queue seqs start at
/// `schedule.len()`, so the merge pops exactly what one heap holding
/// every action would.
struct Agenda<'a> {
    schedule: &'a [ScheduledTx],
    next: usize,
    requeued: Calendar,
    seq: u64,
}

impl<'a> Agenda<'a> {
    /// # Panics
    ///
    /// Panics if the schedule has 2³² or more positions.
    fn new(schedule: &'a [ScheduledTx]) -> Self {
        let seq = schedule.len() as u64;
        assert!(
            seq <= POSITION_MASK,
            "schedule of {seq} transactions: positions must fit 32 bits"
        );
        Agenda {
            schedule,
            next: 0,
            requeued: Calendar::new(),
            seq,
        }
    }

    /// # Panics
    ///
    /// Panics once the schedule and the re-queued actions together reach
    /// 2³² insertions.
    fn push(&mut self, at: SimTime, action: Action, i: usize) {
        assert!(
            self.seq <= POSITION_MASK,
            "re-queue {}: insertion seqs must fit 32 bits",
            self.seq
        );
        self.requeued.push(key(at, action, self.seq, i));
        self.seq += 1;
    }

    /// Removes and returns the earliest action as `(at, action, position)`.
    fn pop(&mut self) -> Option<(SimTime, Action, usize)> {
        let next = self.next;
        let scheduled = self
            .schedule
            .get(next)
            .map(|s| key(s.at, Action::Submit(s.tx.id()), next as u64, next));
        let k = match (scheduled, self.requeued.peek()) {
            (Some(s), Some(r)) if r < s => self.requeued.pop()?,
            (Some(s), _) => {
                self.next += 1;
                s
            }
            (None, _) => self.requeued.pop()?,
        };
        self.requeued.advance(k[0]);
        Some(decode(k))
    }
}

/// Width of a [`Calendar`] bucket: 2¹⁴ µs, about 16 ms.
const BUCKET_SHIFT: u32 = 14;

/// Buckets in a [`Calendar`]'s ring: with [`BUCKET_SHIFT`], a horizon of
/// about 16.8 s, past the 8 s finalization timeout and 4 s backoff cap of
/// [`RetryPolicy::chaos_default`].
const BUCKETS: u64 = 1 << 10;

/// A priority queue of keys that pops in key order, built for the
/// client's pattern: each re-queue comes at or after the instant just
/// popped. Keys sit unsorted in a ring of time buckets; the earliest
/// non-empty bucket is sorted descending when first peeked, so its least
/// key is its last. A key past the ring's horizon goes to a heap. A pop
/// takes the lesser of the heap top and that bucket's last key, so the
/// order is exact for any push pattern; a key due before the last pop's
/// bucket waits in that bucket.
struct Calendar {
    /// Slot `b % BUCKETS` holds bucket `b`, the keys whose time over
    /// 2^BUCKET_SHIFT µs is `b`, for `base <= b < base + BUCKETS`; a key
    /// due before bucket `base` is filed in it.
    ring: Vec<Vec<Key>>,
    /// The bucket of the last popped time.
    base: u64,
    /// No bucket before `head` holds a key.
    head: u64,
    /// Whether bucket `head` is sorted descending.
    head_sorted: bool,
    /// Keys in `ring`.
    in_ring: usize,
    /// Keys at least `BUCKETS` buckets past `base` when pushed.
    far: BinaryHeap<Reverse<Key>>,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            ring: vec![Vec::new(); BUCKETS as usize],
            base: 0,
            head: 0,
            head_sorted: false,
            in_ring: 0,
            far: BinaryHeap::new(),
        }
    }

    fn slot(&mut self, b: u64) -> &mut Vec<Key> {
        &mut self.ring[(b % BUCKETS) as usize]
    }

    fn push(&mut self, k: Key) {
        let b = (k[0] >> BUCKET_SHIFT).max(self.base);
        if b - self.base >= BUCKETS {
            self.far.push(Reverse(k));
            return;
        }
        self.in_ring += 1;
        if b < self.head {
            // Bucket `b` is empty, so it is sorted once `k` is in.
            self.head = b;
            self.head_sorted = true;
        }
        let sorted = b == self.head && self.head_sorted;
        let slot = self.slot(b);
        if sorted {
            let at = slot.partition_point(|&c| c > k);
            slot.insert(at, k);
        } else {
            slot.push(k);
        }
    }

    /// The least key, first moving `head` to the earliest non-empty bucket
    /// and sorting it.
    fn peek(&mut self) -> Option<Key> {
        if self.in_ring > 0 {
            while self.slot(self.head).is_empty() {
                self.move_head(self.head + 1);
            }
            if !self.head_sorted {
                self.slot(self.head).sort_unstable_by(|a, b| b.cmp(a));
                self.head_sorted = true;
            }
        }
        let near = self.slot(self.head).last().copied();
        match (near, self.far.peek()) {
            (Some(n), Some(&Reverse(f))) => Some(n.min(f)),
            (n, f) => n.or(f.map(|r| r.0)),
        }
    }

    /// Removes and returns the least key.
    fn pop(&mut self) -> Option<Key> {
        let least = self.peek()?;
        let head = self.head;
        let slot = self.slot(head);
        if slot.last() == Some(&least) {
            slot.pop();
            self.in_ring -= 1;
        } else {
            self.far.pop();
        }
        Some(least)
    }

    /// Records that the agenda popped an action due at `time` µs. The
    /// loop re-queues nothing earlier, so the buckets before its own are
    /// free.
    fn advance(&mut self, time: u64) {
        let b = time >> BUCKET_SHIFT;
        if b > self.base {
            self.base = b;
            if self.head < b {
                self.move_head(b);
            }
        }
    }

    /// Moves `head` on to bucket `b` from a used-up bucket, whose memory
    /// goes back so that idle slots hold none.
    fn move_head(&mut self, b: u64) {
        debug_assert!(
            self.slot(self.head).is_empty(),
            "bucket {} still holds keys",
            self.head
        );
        *self.slot(self.head) = Vec::new();
        self.head = b;
        self.head_sorted = false;
    }
}

/// A re-send's wire id carries its attempt number in bits 56–63 of the
/// sequence number; an original id leaves them clear.
const ATTEMPT_SHIFT: u32 = 56;

/// The most re-sends a [`RetryPolicy`] may allow: the last attempt,
/// `max_retries + 1`, must fit the attempt byte without reaching 256.
const MAX_RETRIES: u32 = 254;

/// The wire id of attempt `attempt` (≥ 2) of the transaction `orig`.
fn resend_id(orig: TxId, attempt: u32) -> TxId {
    TxId::new(
        orig.client(),
        orig.seq() | u64::from(attempt) << ATTEMPT_SHIFT,
    )
}

/// Splits a wire id into its original id and its attempt byte.
fn decode_wire_id(wire: TxId) -> (TxId, u32) {
    let seq = wire.seq();
    let orig = TxId::new(wire.client(), seq & ((1 << ATTEMPT_SHIFT) - 1));
    (orig, (seq >> ATTEMPT_SHIFT) as u32)
}

/// One scheduled transaction's client-side state.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    /// When the client first popped the transaction; `None` until then.
    created: Option<SimTime>,
    attempts: u32,
    accepted_once: bool,
    last_was_client_lost: bool,
    last_was_busy: bool,
    confirmed: bool,
}

/// What the client has observed: per-transaction state indexed by schedule
/// position, and the confirmations counted inside the listen window.
struct Observed {
    tracks: Vec<Track>,
    /// Each original id the client has popped → its schedule position,
    /// entered at the first pop. Re-send ids are not stored: `harvest`
    /// decodes them back to their original.
    positions: MixMap<TxId, usize>,
    listen_end: SimTime,
    bucket_len: SimDuration,
    accounting: DeliveryAccounting,
    buckets: Vec<u64>,
    latencies: Vec<f64>,
    confirmed_ops: u64,
    t_lrtx: Option<SimTime>,
}

impl Observed {
    /// Counts each commit inside the listen window once per scheduled
    /// transaction. Outcomes for ids the client never sent are ignored:
    /// a wire id counts only if its original was popped and its attempt
    /// byte is 0 (the original send) or a re-send attempt already made.
    fn harvest(&mut self, outcomes: Vec<TxOutcome>) {
        for o in outcomes {
            if !o.is_committed() || o.finalized_at > self.listen_end {
                continue;
            }
            let (orig, attempt) = decode_wire_id(o.tx);
            let Some(&i) = self.positions.get(&orig) else {
                continue;
            };
            let track = &mut self.tracks[i];
            if !(attempt == 0 || (2..=track.attempts).contains(&attempt)) {
                continue;
            }
            if track.confirmed {
                continue; // a retry raced its original; count once
            }
            track.confirmed = true;
            let created = track.created.expect("mapped ids were popped");
            let ops = o.ops_confirmed() as u64;
            self.accounting.confirmed += 1;
            self.confirmed_ops += ops;
            self.latencies
                .push((o.finalized_at - created).as_secs_f64());
            self.t_lrtx = Some(
                self.t_lrtx
                    .map_or(o.finalized_at, |t| t.max(o.finalized_at)),
            );
            let b = (o.finalized_at.as_secs_f64() / self.bucket_len.as_secs_f64()) as usize;
            if let Some(slot) = self.buckets.get_mut(b) {
                *slot += ops;
            }
        }
    }
}

/// Spends a retry token, counting the drop when the bucket is dry. A run
/// without a budget always allows the retry.
fn take_retry_token(
    budget: &mut Option<RetryBudget>,
    now: SimTime,
    accounting: &mut DeliveryAccounting,
) -> bool {
    match budget {
        None => true,
        Some(b) => {
            if b.try_spend(now) {
                true
            } else {
                accounting.budget_exhausted += 1;
                false
            }
        }
    }
}

/// The client loop: runs `schedule` against `system` while replaying
/// `plan`, with `policy` governing re-sends and `protection` arming the
/// overload defences. Every measurement goes through here, by way of
/// [`crate::Timeline::run_on`], its one caller in the library. The paper's
/// tables, figures and ablations pass an empty plan and both policies
/// disabled, which is the fire-and-forget client of §4.4; the campaigns
/// add faults, retries and protections.
///
/// `schedule` must be ordered by `(at, tx.id())` with distinct ids, and no
/// id may set bits 56–63 of its sequence number: a re-send travels under
/// the original id with its attempt number (2 to `max_retries + 1`) in
/// those bits, so `policy.max_retries` may be at most 254. The loop reads
/// the schedule in order and keeps only re-queued actions in a calendar
/// of time buckets. The listen window ends at `SimTime::ZERO + spec.windows.listen`, so a
/// schedule shifted to start at a later base, with its windows made
/// absolute, runs back to back on a system that already served an earlier
/// one (the paper's benchmark units). All randomness (ingress loss,
/// backoff and breaker jitter) derives from `seed`; identical inputs give
/// identical runs.
///
/// Each fault reaches the system through
/// [`BlockchainSystem::apply_fault`] at its scheduled time. A
/// [`FaultEvent::LossBurst`] additionally applies to the *client ingress*:
/// while the burst is active each submission is dropped with probability
/// `p` before reaching the system (the client cannot tell — only the
/// finalization timeout recovers such transactions).
///
/// Every scheduled transaction ends in one class of
/// [`DeliveryAccounting`]: one the client never popped is `unsent`, one
/// popped but never attempted (every send deferred) is `backpressured`,
/// and an attempted one is classified by its last answer.
///
/// # Panics
///
/// Panics, naming the schedule position, if `schedule` is out of
/// `(at, tx.id())` order, an id sets bits 56–63 or an original id repeats;
/// if `policy.max_retries` exceeds 254; if the schedule has 2³² or more
/// positions; and if the schedule and the re-queued actions (retries,
/// timeouts, breaker deferrals) together reach 2³² insertions, since the
/// client's agenda keys each by position and insertion seq in 32 bits.
pub fn run_chaos_with_schedule(
    system: &mut (dyn BlockchainSystem + Send),
    spec: &BenchmarkSpec,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    protection: &ClientProtection,
    schedule: &[ScheduledTx],
    seed: u64,
) -> ChaosRun {
    assert!(
        policy.max_retries <= MAX_RETRIES,
        "max_retries {} exceeds {MAX_RETRIES}: the attempt byte of a re-send id would wrap",
        policy.max_retries
    );
    for (i, s) in schedule.iter().enumerate() {
        let id = s.tx.id();
        assert!(
            id.seq() >> ATTEMPT_SHIFT == 0,
            "schedule position {i}: id {id} sets bits 56-63, the re-send attempt byte"
        );
        assert!(
            i == 0 || (schedule[i - 1].at, schedule[i - 1].tx.id()) < (s.at, id),
            "schedule position {i}: id {id} is out of (at, tx.id()) order"
        );
    }

    let seeds = SeedDeriver::new(seed);
    let mut loss_rng = seeds.rng("client-loss", 0);
    let mut backoff_rng = seeds.rng("backoff", 0);
    // Drawn from only when a breaker defers sends, so unprotected runs
    // stay bit-identical.
    let mut breaker_rng = seeds.rng("breaker", 0);

    let mut budget = protection.budget;
    let mut breaker = protection.breaker.map(CircuitBreaker::new);

    let listen_end = SimTime::ZERO + spec.windows.listen;
    let bucket_len = SimDuration::from_secs(1);
    let n_buckets = (spec.windows.listen.as_secs_f64() / bucket_len.as_secs_f64()).ceil() as usize;

    let mut seen = Observed {
        tracks: vec![Track::default(); schedule.len()],
        positions: MixMap::with_capacity_and_hasher(schedule.len(), Default::default()),
        listen_end,
        bucket_len,
        accounting: DeliveryAccounting {
            scheduled: schedule.len() as u64,
            ..DeliveryAccounting::default()
        },
        buckets: vec![0; n_buckets],
        latencies: Vec::new(),
        confirmed_ops: 0,
        t_lrtx: None,
    };
    let mut scheduler = FaultScheduler::new(plan.clone());
    let mut client_loss: Option<(f64, SimTime)> = None;
    let mut t_fstx: Option<SimTime> = None;

    let mut agenda = Agenda::new(schedule);

    // `harvest` discards every outcome due after the listen end, so the
    // system need not keep them.
    system.listen_until(listen_end);
    while let Some((at, action, i)) = agenda.pop() {
        // Interleave faults strictly before client actions at the same time.
        while let Some(fat) = scheduler.next_due().filter(|&f| f <= at) {
            seen.harvest(system.run_until(fat));
            while let Some((fat, event)) = scheduler.pop_due(fat) {
                if let FaultEvent::LossBurst { p, window } = event {
                    client_loss = Some((p, fat + window));
                }
                system.apply_fault(fat, &event);
            }
        }

        if at > listen_end {
            break;
        }
        seen.harvest(system.run_until(at));
        let track = &mut seen.tracks[i];

        match action {
            Action::Submit(orig) => {
                if track.created.is_none() {
                    track.created = Some(at);
                    let repeated = seen.positions.insert(orig, i).is_some();
                    assert!(
                        !repeated,
                        "schedule position {i}: duplicate original id {orig}"
                    );
                }
                if track.confirmed {
                    continue; // confirmed while this retry was queued
                }
                // Client-side gates run before the attempt is counted: a
                // deferred send is re-queued, not consumed.
                if let Some(b) = breaker.as_mut() {
                    if !b.allow(at) {
                        // Re-queue at the cooldown's end, jittered so the
                        // reopening breaker isn't hit by a synchronized
                        // herd of deferred sends.
                        let jitter = b
                            .policy()
                            .open_for
                            .mul_f64(b.policy().jitter.max(0.0) * breaker_rng.gen_f64());
                        agenda.push(b.retry_at().max(at) + jitter, Action::Submit(orig), i);
                        continue;
                    }
                }
                track.attempts += 1;
                t_fstx.get_or_insert(at);

                // Derive a fresh wire id per re-send so the system treats
                // it as a new transaction; `harvest` decodes it back.
                let wire_id = if track.attempts == 1 {
                    orig
                } else {
                    seen.accounting.retries += 1;
                    resend_id(orig, track.attempts)
                };
                let tx = schedule[i].tx.with_id(wire_id, at);

                // Client-side ingress loss during an active burst window.
                if let Some((p, until)) = client_loss {
                    if at < until && loss_rng.gen_bool(p) {
                        track.last_was_client_lost = true;
                        if policy.enabled() {
                            agenda.push(at + policy.finalization_timeout, Action::Timeout(orig), i);
                        }
                        continue;
                    }
                }
                track.last_was_client_lost = false;
                track.last_was_busy = false;

                let outcome = system.submit(at, tx);
                if outcome.is_accepted() {
                    track.accepted_once = true;
                    if let Some(b) = breaker.as_mut() {
                        b.on_success();
                    }
                    if policy.enabled() {
                        agenda.push(at + policy.finalization_timeout, Action::Timeout(orig), i);
                    }
                } else if let Some(retry_after) = outcome.retry_after() {
                    // Busy: overload backpressure. The client honors the
                    // hold-off hint and the breaker counts the failure.
                    seen.accounting.busy_responses += 1;
                    track.last_was_busy = true;
                    if let Some(b) = breaker.as_mut() {
                        b.on_failure(at, Some(retry_after));
                    }
                    if policy.enabled()
                        && track.attempts <= policy.max_retries
                        && take_retry_token(&mut budget, at, &mut seen.accounting)
                    {
                        let delay = policy
                            .backoff(track.attempts, &mut backoff_rng)
                            .max(retry_after);
                        agenda.push(at + delay, Action::Submit(orig), i);
                    }
                } else if policy.enabled()
                    && track.attempts <= policy.max_retries
                    && take_retry_token(&mut budget, at, &mut seen.accounting)
                {
                    // Rejected: a semantic refusal, not overload — the
                    // breaker ignores it.
                    let delay = policy.backoff(track.attempts, &mut backoff_rng);
                    agenda.push(at + delay, Action::Submit(orig), i);
                }
                // else: terminal rejection, classified at the end.
            }
            Action::Timeout(orig) => {
                if track.confirmed || track.attempts > policy.max_retries {
                    continue;
                }
                if let Some(b) = breaker.as_mut() {
                    b.on_failure(at, None);
                }
                if !take_retry_token(&mut budget, at, &mut seen.accounting) {
                    continue;
                }
                let delay = policy.backoff(track.attempts, &mut backoff_rng);
                agenda.push(at + delay, Action::Submit(orig), i);
            }
        }
    }

    seen.harvest(system.run_until(listen_end));
    let Observed {
        tracks,
        mut accounting,
        buckets,
        mut latencies,
        confirmed_ops,
        t_lrtx,
        ..
    } = seen;

    if let Some(b) = &breaker {
        accounting.breaker_opens = b.opens();
        accounting.breaker_open_secs = b.open_secs();
    }

    // Terminal classification of everything unconfirmed.
    for t in &tracks {
        match t {
            // The client terminated before the send slot came up: the
            // transaction was never attempted, which is a distinct class
            // from a submission swallowed mid-fault.
            Track { created: None, .. } => accounting.unsent += 1,
            t if t.confirmed => {}
            t if t.last_was_client_lost => accounting.lost_in_fault += 1,
            t if t.accepted_once => accounting.timed_out += 1,
            // Popped at least once but every send was deferred by the
            // breaker (attempts == 0), or the last answer was `Busy`:
            // the transaction was backpressured away.
            t if t.last_was_busy || t.attempts == 0 => accounting.backpressured += 1,
            _ => accounting.rejected += 1,
        }
    }
    debug_assert!(accounting.is_complete());

    let duration = match (t_fstx, t_lrtx) {
        (Some(first), Some(last)) if last > first => (last - first).as_secs_f64(),
        _ => 0.0,
    };
    let mtps = if duration > 0.0 {
        buckets.iter().sum::<u64>() as f64 / duration
    } else {
        0.0
    };
    let mfls = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    // Sorted once after the mean (whose float sum keeps arrival order), so
    // each percentile re-sorts an already sorted copy.
    latencies.sort_by(f64::total_cmp);
    ChaosRun {
        accounting,
        buckets,
        bucket_len,
        mtps,
        mfls,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        duration,
        confirmed_ops,
        live: system.is_live(),
        safety: system.safety_report(),
        liveness: system.liveness_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{build_schedule, Windows};
    use crate::params::{build_system, SystemKind, SystemSetup};
    use coconut_chains::SubmitOutcome;
    use coconut_types::{BlockId, ClientId, ClientTx, PayloadKind, ThreadId};

    fn quick_spec(system: SystemKind, rate: f64) -> BenchmarkSpec {
        // A listen margin generous enough that the send-window tail can
        // confirm (and time-outed retries can land) before termination.
        BenchmarkSpec::new(system, PayloadKind::DoNothing)
            .rate(rate)
            .windows(Windows {
                send: SimDuration::from_secs(15),
                listen: SimDuration::from_secs(25),
            })
            .repetitions(1)
    }

    fn run(kind: SystemKind, plan: &FaultPlan, policy: &RetryPolicy, seed: u64) -> ChaosRun {
        let spec = quick_spec(kind, 100.0);
        let schedule = build_schedule(
            spec.benchmark,
            spec.rate,
            spec.ops_per_tx,
            spec.windows,
            SeedDeriver::new(seed).seed("schedule", 0),
        );
        let mut sys = build_system(kind, &SystemSetup::default(), seed);
        let protection = ClientProtection::disabled();
        run_chaos_with_schedule(
            sys.as_mut(),
            &spec,
            plan,
            policy,
            &protection,
            &schedule,
            seed,
        )
    }

    #[test]
    fn fault_free_run_confirms_everything() {
        let r = run(
            SystemKind::Fabric,
            &FaultPlan::new(),
            &RetryPolicy::disabled(),
            7,
        );
        assert!(r.accounting.is_complete());
        assert_eq!(r.accounting.confirmed, r.accounting.scheduled);
        assert_eq!(r.accounting.retries, 0);
        assert!(r.mtps > 0.0);
        assert!(r.live);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_secs(4),
                FaultEvent::LossBurst {
                    p: 0.05,
                    window: SimDuration::from_secs(4),
                },
            )
            .crash_window(
                &[coconut_types::NodeId(1)],
                SimTime::from_secs(5),
                SimTime::from_secs(9),
            );
        let a = run(SystemKind::Quorum, &plan, &RetryPolicy::chaos_default(), 3);
        let b = run(SystemKind::Quorum, &plan, &RetryPolicy::chaos_default(), 3);
        assert_eq!(a.accounting, b.accounting);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.mtps, b.mtps);
    }

    #[test]
    fn loss_burst_without_retry_loses_transactions() {
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            FaultEvent::LossBurst {
                p: 0.5,
                window: SimDuration::from_secs(8),
            },
        );
        let r = run(SystemKind::Fabric, &plan, &RetryPolicy::disabled(), 11);
        assert!(
            r.accounting.lost_in_fault > 0,
            "half the burst window is dropped"
        );
        assert!(r.accounting.delivery_ratio() < 0.95);
    }

    #[test]
    fn retry_recovers_loss_burst_transactions() {
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            FaultEvent::LossBurst {
                p: 0.05,
                window: SimDuration::from_secs(6),
            },
        );
        let r = run(SystemKind::Fabric, &plan, &RetryPolicy::chaos_default(), 11);
        assert!(r.accounting.retries > 0);
        assert!(
            r.accounting.delivery_ratio() >= 0.99,
            "retry must recover the burst: {:?}",
            r.accounting
        );
    }

    /// A scripted system for the loop's edge cases. It answers successive
    /// submissions from `answers` (accepting once they run out), commits
    /// each accepted one `commit_after` later when set, and releases every
    /// `script`ed outcome at the first `run_until` reaching its release
    /// time.
    #[derive(Default)]
    struct Scripted {
        answers: std::collections::VecDeque<SubmitOutcome>,
        commit_after: Option<SimDuration>,
        script: Vec<(SimTime, TxOutcome)>,
        submitted: Vec<TxId>,
    }

    impl BlockchainSystem for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn node_count(&self) -> u32 {
            1
        }

        fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
            self.submitted.push(tx.id());
            let answer = self.answers.pop_front().unwrap_or(SubmitOutcome::Accepted);
            if let (true, Some(d)) = (answer.is_accepted(), self.commit_after) {
                let ops = tx.op_count() as u32;
                let done = TxOutcome::committed(tx.id(), BlockId(0), now + d, ops);
                self.script.push((now + d, done));
            }
            answer
        }

        fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
            let (due, later) = self.script.drain(..).partition(|(at, _)| *at <= deadline);
            self.script = later;
            due.into_iter().map(|(_, o)| o).collect()
        }

        fn stats(&self) -> coconut_chains::SystemStats {
            coconut_chains::SystemStats::default()
        }
    }

    /// Transaction `seq` of client 0 with `ops` DoNothing payloads, due at
    /// second `at`.
    fn tx_at(seq: u64, at: u64, ops: usize) -> ScheduledTx {
        let at = SimTime::from_secs(at);
        let id = TxId::new(ClientId(0), seq);
        let payloads = vec![coconut_types::Payload::DoNothing; ops];
        ScheduledTx {
            at,
            tx: ClientTx::new(id, ThreadId(0), payloads, at),
        }
    }

    /// Drives `system` through `schedule` with a 10 s listen window.
    fn drive(
        system: &mut Scripted,
        schedule: &[ScheduledTx],
        policy: &RetryPolicy,
        protection: &ClientProtection,
    ) -> ChaosRun {
        let spec = quick_spec(SystemKind::Fabric, 100.0).windows(Windows {
            send: SimDuration::from_secs(5),
            listen: SimDuration::from_secs(10),
        });
        let plan = FaultPlan::new();
        run_chaos_with_schedule(system, &spec, &plan, policy, protection, schedule, 1)
    }

    #[test]
    fn scripted_commits_count_once_inside_the_listen_window() {
        let schedule = [
            tx_at(1, 1, 2),
            tx_at(2, 2, 1),
            tx_at(3, 3, 1),
            tx_at(4, 4, 1),
        ];
        let id = |i: usize| schedule[i].tx.id();
        // A commit of `ops` operations finalized at `at`, released then.
        let commit =
            |tx: TxId, at: SimTime, ops: u32| (at, TxOutcome::committed(tx, BlockId(0), at, ops));
        let secs = SimTime::from_secs;
        let late = TxOutcome::committed(id(2), BlockId(0), secs(11), 1);
        let mut sys = Scripted {
            script: vec![
                // An id the client never scheduled, released before the
                // first transaction's own commit.
                commit(TxId::new(ClientId(9), 1), SimTime::from_millis(1500), 1),
                commit(id(0), secs(2), 2),
                // A duplicate commit of the first transaction.
                commit(id(0), secs(4), 2),
                // Exactly on the integral listen end: counted, but past
                // the last bucket.
                commit(id(1), secs(10), 1),
                // Released in time but finalized after the listen end.
                (secs(10), late),
            ],
            ..Scripted::default()
        };
        let r = drive(
            &mut sys,
            &schedule,
            &RetryPolicy::disabled(),
            &ClientProtection::disabled(),
        );
        let a = r.accounting;
        assert!(a.is_complete(), "{a:?}");
        assert_eq!((a.confirmed, a.timed_out), (2, 2), "{a:?}");
        assert_eq!(r.confirmed_ops, 3);
        assert_eq!(
            r.buckets.iter().sum::<u64>(),
            2,
            "the listen-end commit has no bucket"
        );
        // The duplicate neither adds a latency nor moves the last receipt.
        assert_eq!(r.mfls, 4.5);
        assert_eq!(r.duration, 9.0);
        assert_eq!(r.mtps, 2.0 / 9.0);
    }

    #[test]
    fn retry_wire_id_maps_back_to_its_original() {
        let schedule = [tx_at(1, 1, 1)];
        let mut sys = Scripted {
            answers: [SubmitOutcome::Rejected].into(),
            commit_after: Some(SimDuration::from_secs(1)),
            ..Scripted::default()
        };
        let policy = RetryPolicy {
            max_retries: 1,
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_millis(500),
            jitter: 0.0,
            ..RetryPolicy::chaos_default()
        };
        let r = drive(&mut sys, &schedule, &policy, &ClientProtection::disabled());
        // The re-send travels under a fresh wire id ...
        assert_eq!(sys.submitted.len(), 2);
        assert_eq!(sys.submitted[0], schedule[0].tx.id());
        assert_ne!(sys.submitted[1], sys.submitted[0]);
        // ... whose commit confirms the original, timed from its first send.
        assert_eq!((r.accounting.confirmed, r.accounting.retries), (1, 1));
        assert_eq!(r.mfls, 1.5);
        assert!(r.accounting.is_complete());
    }

    #[test]
    fn foreign_resend_ids_are_ignored() {
        // The first send is rejected and the one retry accepted, so the
        // transaction made attempts 1 and 2; nothing the client sent ever
        // commits. The second transaction is due after the listen end.
        let schedule = [tx_at(1, 1, 1), tx_at(2, 12, 1)];
        let (sent, never_popped) = (schedule[0].tx.id(), schedule[1].tx.id());
        let at = SimTime::from_secs(3);
        let commit = |tx: TxId| (at, TxOutcome::committed(tx, BlockId(0), at, 1));
        let mut sys = Scripted {
            answers: [SubmitOutcome::Rejected].into(),
            script: vec![
                // Attempt byte 1: the first attempt travels as the original.
                commit(resend_id(sent, 1)),
                // Attempt byte 3 after only two attempts.
                commit(resend_id(sent, 3)),
                // A re-send id of an original the client never popped.
                commit(resend_id(never_popped, 2)),
            ],
            ..Scripted::default()
        };
        let policy = RetryPolicy {
            max_retries: 1,
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_millis(500),
            jitter: 0.0,
            ..RetryPolicy::chaos_default()
        };
        let r = drive(&mut sys, &schedule, &policy, &ClientProtection::disabled());
        assert_eq!(sys.submitted.len(), 2);
        let a = r.accounting;
        assert_eq!((a.confirmed, a.timed_out, a.unsent), (0, 1, 1), "{a:?}");
        assert_eq!(r.confirmed_ops, 0);
    }

    /// The agenda's order before compact keys, kept as the reference:
    /// a derived enum order (timeout before submit, then the id).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum RefAction {
        Timeout(TxId),
        Submit(TxId),
    }

    impl From<Action> for RefAction {
        fn from(a: Action) -> Self {
            match a {
                Action::Timeout(id) => RefAction::Timeout(id),
                Action::Submit(id) => RefAction::Submit(id),
            }
        }
    }

    impl From<RefAction> for Action {
        fn from(a: RefAction) -> Self {
            match a {
                RefAction::Timeout(id) => Action::Timeout(id),
                RefAction::Submit(id) => Action::Submit(id),
            }
        }
    }

    /// The reference: one heap of `(at, action, insertion seq, position)`
    /// tuples holding every action, scheduled and re-queued alike.
    struct RefAgenda {
        heap: BinaryHeap<Reverse<(SimTime, RefAction, u64, usize)>>,
        seq: u64,
    }

    impl RefAgenda {
        fn new(schedule: &[ScheduledTx]) -> Self {
            let mut heap = BinaryHeap::new();
            for (i, s) in schedule.iter().enumerate() {
                heap.push(Reverse((s.at, RefAction::Submit(s.tx.id()), i as u64, i)));
            }
            RefAgenda {
                heap,
                seq: schedule.len() as u64,
            }
        }

        fn push(&mut self, at: SimTime, action: Action, i: usize) {
            self.heap.push(Reverse((at, action.into(), self.seq, i)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, Action, usize)> {
            let Reverse((at, action, _, i)) = self.heap.pop()?;
            Some((at, action.into(), i))
        }
    }

    /// Pushes one re-queued action onto both agendas.
    fn push_both(a: &mut Agenda, r: &mut RefAgenda, at: SimTime, action: Action, i: usize) {
        a.push(at, action, i);
        r.push(at, action, i);
    }

    /// The compact-key agenda pops exactly the reference heap's order.
    /// Ids come from three clients with scattered seqs and times from six
    /// instants, so each pop is followed by re-queues that tie with one
    /// another, with the schedule cursor and with the current instant.
    #[test]
    fn merged_agenda_pops_in_single_heap_order() {
        let mut rng = SimRng::seed_from_u64(0xA6E4DA);
        for _ in 0..200 {
            let mut schedule: Vec<ScheduledTx> = (0..40)
                .map(|n| {
                    let client = rng.gen_range_inclusive(0, 2) as u32;
                    let seq = rng.gen_range_inclusive(0, 30) << 8 | n;
                    let at = SimTime::from_secs(rng.gen_range_inclusive(0, 5));
                    let id = TxId::new(ClientId(client), seq);
                    let payloads = vec![coconut_types::Payload::DoNothing];
                    ScheduledTx {
                        at,
                        tx: ClientTx::new(id, ThreadId(0), payloads, at),
                    }
                })
                .collect();
            schedule.sort_by_key(|s| (s.at, s.tx.id()));
            let n = schedule.len() as u64;
            let mut agenda = Agenda::new(&schedule);
            let mut reference = RefAgenda::new(&schedule);
            let mut pushes = 0;
            while let Some(expected) = reference.pop() {
                assert_eq!(agenda.pop(), Some(expected));
                let (at, _, i) = expected;
                let id = |j: usize| schedule[j].tx.id();
                // A breaker deferral with no cooldown left: the same
                // submit again at the current instant.
                if rng.gen_bool(0.2) {
                    push_both(&mut agenda, &mut reference, at, Action::Submit(id(i)), i);
                }
                while pushes < 80 && rng.gen_bool(0.6) {
                    // Any position, so equal-time submits carry ids out of
                    // schedule order.
                    let j = rng.gen_range_inclusive(0, n - 1) as usize;
                    // The current instant, the schedule cursor's next
                    // time, microseconds later (the same or the next
                    // calendar bucket), seconds later, or past the
                    // calendar's horizon.
                    let when = match rng.gen_range_inclusive(0, 4) {
                        0 => at,
                        1 => schedule.get(agenda.next).map_or(at, |s| s.at),
                        2 => at + SimDuration::from_micros(rng.gen_range_inclusive(1, 10_000)),
                        3 => at + SimDuration::from_secs(rng.gen_range_inclusive(1, 2)),
                        _ => at + SimDuration::from_secs(rng.gen_range_inclusive(16, 40)),
                    };
                    if rng.gen_bool(0.3) {
                        // A timeout and a submit tied at one instant.
                        push_both(&mut agenda, &mut reference, when, Action::Submit(id(j)), j);
                        let k = rng.gen_range_inclusive(0, n - 1) as usize;
                        push_both(&mut agenda, &mut reference, when, Action::Timeout(id(k)), k);
                    } else if rng.gen_bool(0.5) {
                        push_both(&mut agenda, &mut reference, when, Action::Timeout(id(j)), j);
                    } else {
                        push_both(&mut agenda, &mut reference, when, Action::Submit(id(j)), j);
                    }
                    pushes += 1;
                }
            }
            assert_eq!(agenda.pop(), None);
            // Emptied, both take re-queues again and keep one order, even
            // at an instant before the last pop, which the loop never
            // pushes but the calendar still files in order.
            let at = SimTime::from_secs(9);
            for j in [7, 3, 3, 12, 0] {
                let id = schedule[j].tx.id();
                push_both(&mut agenda, &mut reference, at, Action::Submit(id), j);
                push_both(&mut agenda, &mut reference, at, Action::Timeout(id), j);
            }
            while let Some(expected) = reference.pop() {
                assert_eq!(agenda.pop(), Some(expected));
            }
            assert_eq!(agenda.pop(), None);
        }
    }

    /// Keys round-trip the largest client, seq and position they can hold.
    #[test]
    fn agenda_keys_decode_what_they_encode() {
        let id = TxId::new(ClientId(u32::MAX), (1 << ATTEMPT_SHIFT) - 1);
        let at = SimTime::from_micros(u64::MAX);
        let i = POSITION_MASK as usize;
        for action in [Action::Timeout(id), Action::Submit(id)] {
            assert_eq!(decode(key(at, action, POSITION_MASK, i)), (at, action, i));
        }
    }

    /// Drives an accepting system through `schedule` with `policy`.
    fn drive_with(schedule: &[ScheduledTx], policy: &RetryPolicy) -> ChaosRun {
        drive(
            &mut Scripted::default(),
            schedule,
            policy,
            &ClientProtection::disabled(),
        )
    }

    #[test]
    #[should_panic(expected = "schedule position 1: id tx-0.72057594037927938 sets bits 56-63")]
    fn schedule_ids_must_leave_the_attempt_byte_clear() {
        drive_with(
            &[tx_at(1, 1, 1), tx_at(2 | 1 << 56, 2, 1)],
            &RetryPolicy::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "schedule position 2: id tx-0.1 is out of (at, tx.id()) order")]
    fn schedule_must_be_ordered_by_time_then_id() {
        drive_with(
            &[tx_at(2, 1, 1), tx_at(3, 2, 1), tx_at(1, 2, 1)],
            &RetryPolicy::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "max_retries 255 exceeds 254")]
    fn max_retries_must_fit_the_attempt_byte() {
        let policy = RetryPolicy {
            max_retries: 255,
            ..RetryPolicy::chaos_default()
        };
        drive_with(&[tx_at(1, 1, 1)], &policy);
    }

    #[test]
    #[should_panic(expected = "schedule position 1: duplicate original id tx-0.1")]
    fn original_ids_must_not_repeat() {
        drive_with(&[tx_at(1, 1, 1), tx_at(1, 2, 1)], &RetryPolicy::disabled());
    }

    #[test]
    fn deferred_sends_are_backpressured_and_unpopped_ones_unsent() {
        // The first send answers Busy and trips a one-failure breaker for
        // 100 s: the second is deferred past the listen end without an
        // attempt, and the third is due after the listen end.
        let schedule = [tx_at(1, 1, 1), tx_at(2, 2, 1), tx_at(3, 12, 1)];
        let mut sys = Scripted {
            answers: [SubmitOutcome::Busy {
                retry_after: SimDuration::from_secs(1),
            }]
            .into(),
            ..Scripted::default()
        };
        let protection = ClientProtection {
            breaker: Some(BreakerPolicy {
                failure_threshold: 1,
                open_for: SimDuration::from_secs(100),
                jitter: 0.0,
            }),
            ..ClientProtection::disabled()
        };
        let r = drive(&mut sys, &schedule, &RetryPolicy::disabled(), &protection);
        let a = r.accounting;
        assert_eq!(sys.submitted, vec![schedule[0].tx.id()]);
        assert_eq!((a.backpressured, a.unsent, a.confirmed), (2, 1, 0), "{a:?}");
        assert_eq!(a.breaker_opens, 1);
        assert!(a.is_complete());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::chaos_default()
        };
        let mut rng = SimRng::seed_from_u64(0);
        let b1 = p.backoff(1, &mut rng);
        let b2 = p.backoff(2, &mut rng);
        let b9 = p.backoff(9, &mut rng);
        assert_eq!(b2, b1 * 2);
        assert_eq!(b9, p.max_backoff);
    }

    #[test]
    fn recovery_detection_finds_heal_point() {
        let r = synthetic(vec![10, 10, 10, 0, 0, 0, 0, 10, 10, 10, 10]);
        let rec = r
            .recovery_secs(SimTime::from_secs(3), SimTime::from_secs(6), 0.7)
            .expect("recovers");
        assert_eq!(rec, 1.0, "buckets 7..10 sustain; heal at 6 → 1 s");
        // A run that never recovers reports None.
        let dead = ChaosRun {
            buckets: vec![10, 10, 0, 0, 0, 0, 0, 0],
            ..r
        };
        assert_eq!(
            dead.recovery_secs(SimTime::from_secs(2), SimTime::from_secs(4), 0.7),
            None
        );
    }

    /// A bare run with the given 1 s buckets, for windowing edge cases.
    fn synthetic(buckets: Vec<u64>) -> ChaosRun {
        ChaosRun {
            buckets,
            bucket_len: SimDuration::from_secs(1),
            live: true,
            ..ChaosRun::default()
        }
    }

    #[test]
    fn window_mtps_empty_and_degenerate_windows_are_zero() {
        let r = synthetic(vec![10, 20, 30, 40]);
        // Empty and inverted ranges cover no full bucket.
        assert_eq!(
            r.window_mtps(SimTime::from_secs(2), SimTime::from_secs(2)),
            0.0
        );
        assert_eq!(
            r.window_mtps(SimTime::from_secs(3), SimTime::from_secs(1)),
            0.0
        );
        // A sub-bucket window straddling a boundary contains no full
        // bucket either — partial buckets never count.
        let half = SimDuration::from_secs_f64(0.5);
        assert_eq!(
            r.window_mtps(SimTime::ZERO + half, SimTime::from_secs(1) + half),
            0.0
        );
        // A range reaching past the recorded buckets clamps to their end …
        assert_eq!(
            r.window_mtps(SimTime::from_secs(2), SimTime::from_secs(100)),
            35.0
        );
        // … and one entirely past it is empty.
        assert_eq!(
            r.window_mtps(SimTime::from_secs(50), SimTime::from_secs(100)),
            0.0
        );
        // Exact bucket edges include exactly the covered buckets.
        assert_eq!(r.window_mtps(SimTime::ZERO, SimTime::from_secs(2)), 15.0);
    }

    #[test]
    fn recovery_that_never_sustains_threshold_is_none() {
        // Post-heal throughput flickers but no three consecutive buckets
        // reach 70 % of the pre-fault mean (needed sum: 10 × 3 × 0.7 = 21).
        let r = synthetic(vec![10, 10, 10, 0, 0, 0, 9, 0, 0, 9, 0, 0]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(3), SimTime::from_secs(6), 0.7),
            None
        );
    }

    #[test]
    fn recovery_without_pre_fault_throughput_is_none() {
        // Nothing committed before the crash: there is no baseline to
        // recover to.
        let r = synthetic(vec![0, 0, 0, 10, 10, 10]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(2), SimTime::from_secs(3), 0.7),
            None
        );
        // A crash at t = 0 leaves an empty pre-fault window: same verdict.
        let r = synthetic(vec![10, 10, 10, 10]);
        assert_eq!(
            r.recovery_secs(SimTime::ZERO, SimTime::from_secs(1), 0.7),
            None
        );
    }

    #[test]
    fn recovery_at_exact_bucket_boundaries_is_instant() {
        // Crash and heal on exact bucket edges with an immediate comeback:
        // the heal bucket itself sustains, so recovery is 0 s.
        let r = synthetic(vec![10, 10, 0, 0, 10, 10, 10]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(2), SimTime::from_secs(4), 0.7),
            Some(0.0)
        );
    }

    #[test]
    fn recovery_with_heal_past_recorded_buckets_is_none() {
        // The heal lands beyond the recorded timeline: no sliding window
        // exists to sustain, so the run never counts as recovered.
        let r = synthetic(vec![10, 10, 0, 0]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(1), SimTime::from_secs(9), 0.7),
            None
        );
    }

    #[test]
    fn breaker_trips_only_at_consecutive_failure_threshold() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..4 {
            b.on_failure(t, None);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // A success resets the consecutive count: four more failures still
        // stay below the threshold of five.
        b.on_success();
        for _ in 0..4 {
            b.on_failure(t, None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(t, None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allow(t), "sends are held while the cooldown runs");
        assert_eq!(b.retry_at(), t + SimDuration::from_secs(1));
    }

    #[test]
    fn breaker_half_open_probe_success_closes() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..5 {
            b.on_failure(t, None);
        }
        // The cooldown elapses: the next allow() transitions to HalfOpen
        // and lets one probe through.
        let after = b.retry_at() + SimDuration::from_millis(1);
        assert!(b.allow(after));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn breaker_half_open_probe_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..5 {
            b.on_failure(t, None);
        }
        let after = b.retry_at() + SimDuration::from_millis(1);
        assert!(b.allow(after));
        // One failed probe re-opens without needing five more failures.
        b.on_failure(after, None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert_eq!(b.retry_at(), after + SimDuration::from_secs(1));
    }

    #[test]
    fn breaker_cooldown_honors_retry_after_hint_and_accumulates_open_secs() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..5 {
            b.on_failure(t, Some(SimDuration::from_secs(3)));
        }
        // The server's 3 s hold-off hint beats the 1 s policy cooldown.
        assert_eq!(b.retry_at(), t + SimDuration::from_secs(3));
        assert!((b.open_secs() - 3.0).abs() < 1e-9);
        // Stragglers failing while already open don't extend the cooldown.
        b.on_failure(
            t + SimDuration::from_secs(1),
            Some(SimDuration::from_secs(30)),
        );
        assert_eq!(b.retry_at(), t + SimDuration::from_secs(3));
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn retry_budget_drains_and_refills_in_virtual_time() {
        let mut budget = RetryBudget::new(2, 1.0);
        let t = SimTime::from_secs(1);
        assert!(budget.try_spend(t));
        assert!(budget.try_spend(t));
        assert!(!budget.try_spend(t), "the bucket starts with two tokens");
        // Half a virtual second refills half a token: still empty.
        assert!(!budget.try_spend(t + SimDuration::from_millis(500)));
        // Another second refills past one whole token ...
        assert!(budget.try_spend(t + SimDuration::from_millis(1500)));
        // ... and a long idle stretch caps at capacity, not beyond.
        let late = t + SimDuration::from_secs(60);
        assert!(budget.try_spend(late));
        assert!(budget.try_spend(late));
        assert!(!budget.try_spend(late));
    }
}
