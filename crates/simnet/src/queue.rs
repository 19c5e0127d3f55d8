//! Deterministic event priority queue.

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
/// In-order pushes cost a deque append instead of a heap sift.
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
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    runs: [VecDeque<Entry<T>>; RUNS],
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
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
        }
    }

    /// Schedules `item` at time `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, item };
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
    /// is [`RUNS`].
    fn take(&mut self, source: usize) -> Option<(SimTime, T)> {
        let e = if source == RUNS {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            self.runs[source].pop_front()
        };
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

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len() + self.runs.iter().map(VecDeque::len).sum::<usize>()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.runs.iter().all(VecDeque::is_empty)
    }

    /// Every queued item, in no particular order, without removing any.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let runs = self.runs.iter().flatten();
        runs.chain(self.heap.iter().map(|Reverse(e)| e))
            .map(|e| &e.item)
    }

    /// Drops every queued item.
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
    /// order: `(at, seq)` through one `BinaryHeap`.
    struct HeapQueue<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        seq: u64,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at: SimTime, item: T) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry { at, seq, item }));
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.item))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse(e)| e.at)
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
    /// Returns the largest heap the runs overflowed into.
    fn drive(seed: u64, streams: u64, ops: usize) -> usize {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut r = HeapQueue::new();
        let mut now = SimTime::ZERO;
        let mut next = 0u64;
        let mut max_heap = 0;
        for op in 0..ops {
            let case = format!("seed {seed} op {op}");
            match rng.gen_range_inclusive(0, 99) {
                0..=39 => {
                    let k = rng.gen_range_inclusive(1, streams);
                    let at = now + SimDuration::from_millis(k);
                    q.push(at, next);
                    r.push(at, next);
                    next += 1;
                }
                40..=49 => {
                    let at = now + SimDuration::from_micros(rng.gen_range_inclusive(0, 50_000));
                    q.push(at, next);
                    r.push(at, next);
                    next += 1;
                }
                50..=54 => {
                    // A burst of ties at one instant.
                    let at = now + SimDuration::from_micros(rng.gen_range_inclusive(0, 3));
                    for _ in 0..rng.gen_range_inclusive(1, 5) {
                        q.push(at, next);
                        r.push(at, next);
                        next += 1;
                    }
                }
                55..=59 => {
                    // A straggler due at the clock, behind every stream.
                    q.push(now, next);
                    r.push(now, next);
                    next += 1;
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
                    assert_eq!(q.len(), r.heap.len(), "{case}: len");
                    let mut items: Vec<u64> = q.iter().copied().collect();
                    let mut want: Vec<u64> = r.heap.iter().map(|Reverse(e)| e.item).collect();
                    items.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(items, want, "{case}: iter");
                    assert_eq!(q.is_empty(), r.heap.is_empty(), "{case}: is_empty");
                }
                _ => {
                    if rng.gen_bool(0.2) {
                        q.clear();
                        r.heap.clear();
                        assert!(q.is_empty() && q.peek_time().is_none(), "{case}: clear");
                    }
                }
            }
            max_heap = max_heap.max(q.heap.len());
        }
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
