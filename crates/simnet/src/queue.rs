//! Deterministic event priority queue.
//!
//! Items pop in `(at, seq)` order, `seq` being the push counter. An item
//! may be pushed in a *scope* (a `u64`, such as a consensus round);
//! [`EventQueue::cancel_through`] kills every item in a scope at or below
//! a watermark that only rises, and a push into a cancelled scope is
//! dropped. A dropped push still takes its `seq`, so the order of every
//! live item and [`EventQueue::pushes`] are those of a queue that kept the
//! dead items. Dead items leave when they reach the front of their run or
//! the heap, so the fronts are always live: `pop`, `peek_time`, `iter`
//! and `len` see live items only.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use coconut_types::SimTime;

/// Number of sorted FIFO runs kept beside the heap. Under constant link
/// latency, engine pushes come as a few interleaved streams of
/// non-decreasing times (message deliveries, fixed-delay timers), and with
/// four runs 94–99 % of them fit a run; with one or two runs, 32–62 % do.
/// Pushes whose delay is drawn per message (netem) fit less often and go to
/// the heap.
const RUNS: usize = 4;

/// The scope of an unscoped push: no cancellation reaches it.
const UNSCOPED: u64 = u64::MAX;

/// A priority queue of timestamped items with deterministic FIFO
/// tie-breaking: items scheduled for the same instant pop in insertion
/// order.
///
/// Items are ordered by `(at, seq)`, where `seq` is the push counter. A
/// push whose key is not below the last key of one of a few sorted FIFO
/// runs is appended to the run with the greatest such last key (else to
/// an empty run); only an item that fits no run goes to a binary heap.
/// Every run is sorted and `seq` is unique, so each run's front is its
/// minimum, and popping the least of the fronts and the heap top yields
/// exactly the `(at, seq)` order of a single heap, for any push pattern.
/// In-order pushes cost a deque append instead of a heap sift. Scoped
/// items (see the module docs) keep that order among the live ones.
///
/// # Example
///
/// ```
/// use coconut_simnet::EventQueue;
/// use coconut_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// q.push_scoped(SimTime::from_secs(1), 7, "round 7 timer");
/// q.cancel_through(7);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.pushes(), 4, "the cancelled push kept its seq");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    runs: [VecDeque<Entry<T>>; RUNS],
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    /// Items in a scope below this are cancelled.
    live_from: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    scope: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            runs: Default::default(),
            heap: BinaryHeap::new(),
            seq: 0,
            live_from: 0,
        }
    }

    /// Schedules `item` at time `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.push_scoped(at, UNSCOPED, item);
    }

    /// Schedules `item` at time `at` in `scope`, to be dropped unpopped
    /// once [`EventQueue::cancel_through`] reaches `scope`. A push into a
    /// cancelled scope takes its `seq` and is dropped at once. Scope
    /// `u64::MAX` is never cancelled.
    pub fn push_scoped(&mut self, at: SimTime, scope: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        if scope < self.live_from {
            return;
        }
        let entry = Entry {
            at,
            seq,
            scope,
            item,
        };
        // The new `seq` exceeds every queued one, so the entry's key is not
        // below a run's last key exactly when `at` is not below its time.
        let mut fit: Option<(usize, (SimTime, u64))> = None;
        let mut empty = None;
        for (i, run) in self.runs.iter().enumerate() {
            match run.back() {
                Some(last) if last.at <= at => {
                    if fit.is_none_or(|(_, k)| last.key() > k) {
                        fit = Some((i, last.key()));
                    }
                }
                Some(_) => {}
                None => empty = empty.or(Some(i)),
            }
        }
        match fit.map(|(i, _)| i).or(empty) {
            Some(i) => self.runs[i].push_back(entry),
            None => self.heap.push(Reverse(entry)),
        }
    }

    /// Cancels every scope at or below `scope`: their queued items never
    /// pop, and later pushes into them are dropped. A lower `scope` than
    /// an earlier call's changes nothing.
    pub fn cancel_through(&mut self, scope: u64) {
        self.live_from = self.live_from.max(scope.saturating_add(1));
        for source in 0..=RUNS {
            self.clean(source);
        }
    }

    /// Removes the cancelled items at the front of run `source`, or at the
    /// heap's top when `source` is [`RUNS`], so that front is live.
    fn clean(&mut self, source: usize) {
        let live_from = self.live_from;
        if source == RUNS {
            while self.heap.peek().is_some_and(|e| e.0.scope < live_from) {
                self.heap.pop();
            }
        } else {
            let run = &mut self.runs[source];
            while run.front().is_some_and(|e| e.scope < live_from) {
                run.pop_front();
            }
        }
    }

    /// Where the earliest item sits (a run index, or [`RUNS`] for the
    /// heap) and its key, if any.
    fn front(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best = self.heap.peek().map(|Reverse(e)| (RUNS, e.key()));
        for (i, run) in self.runs.iter().enumerate() {
            if let Some(e) = run.front() {
                if best.is_none_or(|(_, k)| e.key() < k) {
                    best = Some((i, e.key()));
                }
            }
        }
        best
    }

    /// Removes the front of run `source`, or the heap's top when `source`
    /// is [`RUNS`], and cleans what is left there.
    fn take(&mut self, source: usize) -> Option<(SimTime, T)> {
        let e = if source == RUNS {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            self.runs[source].pop_front()
        };
        self.clean(source);
        e.map(|e| (e.at, e.item))
    }

    /// Removes and returns the earliest item, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (source, _) = self.front()?;
        self.take(source)
    }

    /// Removes and returns the earliest item only if it is due strictly
    /// before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        match self.front() {
            Some((source, (t, _))) if t < deadline => self.take(source),
            _ => None,
        }
    }

    /// Removes and returns the earliest item only if it is due at or before
    /// `deadline`.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        match self.front() {
            Some((source, (t, _))) if t <= deadline => self.take(source),
            _ => None,
        }
    }

    /// The due time of the earliest item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|(_, (t, _))| t)
    }

    /// Number of queued live items. Cancelled items still held behind a
    /// live front are not counted, so this walks the queue.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` when no live items are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.runs.iter().all(VecDeque::is_empty)
    }

    /// Items pushed so far, popped, cancelled or not: the `seq` the next
    /// push gets. Two pushes with no push between them have consecutive
    /// `seq`s, so two equal-time items pushed back to back pop back to
    /// back.
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Every queued live item, in no particular order, without removing
    /// any.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let runs = self.runs.iter().flatten();
        runs.chain(self.heap.iter().map(|Reverse(e)| e))
            .filter(|e| e.scope >= self.live_from)
            .map(|e| &e.item)
    }

    /// Drops every queued item. Cancelled scopes stay cancelled.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.runs.iter_mut().for_each(VecDeque::clear);
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::{SimDuration, SimRng};

    /// The single-heap queue the runs replaced, kept as the reference
    /// order: `(at, seq)` through one `BinaryHeap`. It keeps cancelled
    /// entries and skips them when it pops.
    struct HeapQueue<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        seq: u64,
        live_from: u64,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                live_from: 0,
            }
        }
        fn push_scoped(&mut self, at: SimTime, scope: u64, item: T) {
            let seq = self.seq;
            self.seq += 1;
            if scope >= self.live_from {
                self.heap.push(Reverse(Entry {
                    at,
                    seq,
                    scope,
                    item,
                }));
            }
        }
        fn cancel_through(&mut self, scope: u64) {
            self.live_from = self.live_from.max(scope + 1);
        }
        fn live(&self) -> impl Iterator<Item = &Entry<T>> {
            self.heap
                .iter()
                .map(|Reverse(e)| e)
                .filter(|e| e.scope >= self.live_from)
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            while let Some(Reverse(e)) = self.heap.pop() {
                if e.scope >= self.live_from {
                    return Some((e.at, e.item));
                }
            }
            None
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.live().map(Entry::key).min().map(|(at, _)| at)
        }
        fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
            match self.peek_time() {
                Some(t) if t < deadline => self.pop(),
                _ => None,
            }
        }
        fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
            match self.peek_time() {
                Some(t) if t <= deadline => self.pop(),
                _ => None,
            }
        }
    }

    /// Drives [`EventQueue`] and [`HeapQueue`] with one seeded operation
    /// mix and asserts every observation matches. `streams` fixed-delay
    /// timer streams (delays of 1..=`streams` ms) are mixed with random
    /// delays, equal-time ties and stragglers behind the clock's streams.
    /// Half the pushes are unscoped; the rest name a scope near a rising
    /// round, which `cancel_through` calls cancel, sometimes before the
    /// push. Returns the largest heap the runs overflowed into.
    fn drive(seed: u64, streams: u64, ops: usize) -> usize {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        let mut now = SimTime::ZERO;
        let mut next = 0u64;
        let mut round = 0u64;
        let mut max_heap = 0;
        for op in 0..ops {
            let case = format!("seed {seed} op {op}");
            let scope = if rng.gen_bool(0.5) {
                UNSCOPED
            } else {
                round + rng.gen_range_inclusive(0, 6) - 2.min(round)
            };
            let mut push = |at: SimTime| {
                q.push_scoped(at, scope, next);
                r.push_scoped(at, scope, next);
                next += 1;
            };
            match rng.gen_range_inclusive(0, 104) {
                0..=39 => {
                    let k = rng.gen_range_inclusive(1, streams);
                    push(now + SimDuration::from_millis(k));
                }
                40..=49 => {
                    push(now + SimDuration::from_micros(rng.gen_range_inclusive(0, 50_000)));
                }
                50..=54 => {
                    // A burst of ties at one instant.
                    let at = now + SimDuration::from_micros(rng.gen_range_inclusive(0, 3));
                    for _ in 0..rng.gen_range_inclusive(1, 5) {
                        push(at);
                    }
                }
                55..=59 => {
                    // A straggler due at the clock, behind every stream.
                    push(now);
                }
                60..=79 => {
                    let (a, b) = (q.pop(), r.pop());
                    assert_eq!(a, b, "{case}: pop");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
                80..=86 => {
                    let deadline =
                        now + SimDuration::from_micros(rng.gen_range_inclusive(0, 4_000));
                    let (a, b) = (q.pop_before(deadline), r.pop_before(deadline));
                    assert_eq!(a, b, "{case}: pop_before");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
                87..=93 => {
                    let deadline =
                        now + SimDuration::from_micros(rng.gen_range_inclusive(0, 4_000));
                    let (a, b) = (q.pop_at_or_before(deadline), r.pop_at_or_before(deadline));
                    assert_eq!(a, b, "{case}: pop_at_or_before");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
                94..=98 => {
                    assert_eq!(q.peek_time(), r.peek_time(), "{case}: peek_time");
                    let mut items: Vec<u64> = q.iter().copied().collect();
                    let mut want: Vec<u64> = r.live().map(|e| e.item).collect();
                    items.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(items, want, "{case}: iter");
                    assert_eq!(q.len(), want.len(), "{case}: len");
                    assert_eq!(q.is_empty(), want.is_empty(), "{case}: is_empty");
                    assert_eq!(q.pushes(), r.seq, "{case}: pushes");
                }
                99..=103 => {
                    // A round certifies (or, at a step of 0, a repeat or
                    // lower watermark changes nothing).
                    let through = (round + rng.gen_range_inclusive(0, 2)).saturating_sub(1);
                    round = round.max(through + 1);
                    q.cancel_through(through);
                    r.cancel_through(through);
                }
                _ => {
                    if rng.gen_bool(0.2) {
                        q.clear();
                        r.heap.clear();
                        assert!(q.is_empty() && q.peek_time().is_none(), "{case}: clear");
                        assert_eq!(q.len(), 0, "{case}: clear");
                    }
                }
            }
            max_heap = max_heap.max(q.heap.len());
        }
        assert_eq!(q.pushes(), r.seq, "seed {seed}: pushes");
        while let Some(b) = r.pop() {
            assert_eq!(q.pop(), Some(b), "seed {seed}: drain");
        }
        assert_eq!(q.pop(), None, "seed {seed}: drained");
        max_heap
    }

    #[test]
    fn runs_pop_in_the_single_heap_order() {
        for seed in 0..48 {
            drive(seed, 1 + seed % RUNS as u64, 3_000);
        }
    }

    #[test]
    fn more_streams_than_runs_overflow_into_the_heap() {
        let streams = 3 * RUNS as u64;
        let max_heap = (100..108).map(|seed| drive(seed, streams, 3_000)).max();
        assert!(max_heap.unwrap() > 0, "no push reached the heap");
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for i in (0..10u64).rev() {
            q.push(SimTime::from_secs(i), i);
        }
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
        }
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "x");
        assert_eq!(q.pop_before(SimTime::from_secs(5)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(5)),
            Some((SimTime::from_secs(5), "x"))
        );
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO + SimDuration::from_secs(1), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // `len` counts live items only, also a cancelled one still held
        // behind a live front; `clear` keeps cancelled scopes cancelled.
        q.push(SimTime::ZERO, 3);
        q.push_scoped(SimTime::from_secs(1), 5, 4);
        q.push_scoped(SimTime::from_secs(2), 6, 5);
        q.cancel_through(5);
        assert_eq!((q.len(), q.iter().count()), (2, 2));
        q.clear();
        q.push_scoped(SimTime::ZERO, 5, 6);
        assert_eq!((q.is_empty(), q.len()), (true, 0));
        assert_eq!(q.pushes(), 6);
    }

    #[test]
    fn pops_are_globally_sorted() {
        // Seeded randomized sweep (formerly a proptest).
        let mut gen = coconut_types::SimRng::seed_from_u64(42);
        for case in 0..64 {
            let n = gen.gen_range_inclusive(1, 199) as usize;
            let times: Vec<u64> = (0..n)
                .map(|_| gen.gen_range_inclusive(0, 999_999))
                .collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut popped = Vec::new();
            while let Some((t, _)) = q.pop() {
                popped.push(t);
            }
            let mut sorted = popped.clone();
            sorted.sort();
            assert_eq!(popped, sorted, "case {case}");
        }
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        for n in [1usize, 2, 17, 99] {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_secs(1), i);
            }
            for i in 0..n {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }
}
