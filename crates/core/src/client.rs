//! The COCONUT client model: four client applications × four workload
//! threads, rate-limited submission, and the paper's timing windows.
//!
//! §4.3: "The COCONUT client starts four concurrent client threads ... of
//! which each client thread starts four concurrent workload threads. ...
//! The workload-threads of each COCONUT client application send
//! transactions sequentially, but without waiting for a finalization
//! confirmation, for a period of 300 seconds. The COCONUT client terminates
//! listening on events after 330 seconds."

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::sync::Arc;

use coconut_types::{
    ClientId, ClientTx, Payload, PayloadKind, SeedDeriver, SimDuration, SimTime, ThreadId, TxId,
};

use crate::workload::{paper, Workload};

/// Number of COCONUT client applications (two per client server).
pub const CLIENTS: u32 = 4;

/// Workload threads per client application.
pub const THREADS_PER_CLIENT: u32 = 4;

/// The paper's timing windows, scalable for fast runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Transactions are sent during `[0, send)` (paper: 300 s).
    pub send: SimDuration,
    /// Confirmations count until `listen` (paper: 330 s).
    pub listen: SimDuration,
}

impl Windows {
    /// The paper's 300 s / 330 s windows.
    pub fn paper() -> Self {
        Windows {
            send: SimDuration::from_secs(300),
            listen: SimDuration::from_secs(330),
        }
    }

    /// Scales both windows by `factor` (e.g. 0.1 → 30 s / 33 s).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Windows {
            send: SimDuration::from_secs_f64(300.0 * factor),
            listen: SimDuration::from_secs_f64(330.0 * factor),
        }
    }
}

impl Default for Windows {
    fn default() -> Self {
        Windows::paper()
    }
}

/// One scheduled submission: when, and what.
#[derive(Debug, Clone)]
pub struct ScheduledTx {
    /// Send instant (the paper's `starttime` is taken here).
    pub at: SimTime,
    /// The transaction to submit.
    pub tx: ClientTx,
}

/// Builds the merged, time-ordered submission schedule of all four COCONUT
/// clients for one benchmark.
///
/// `rate` is the aggregate payload rate across all clients (the paper's
/// rate limiter; §4.4). Each client contributes `rate / 4`, each workload
/// thread `rate / 16`, evenly spaced with a per-thread phase offset derived
/// from `seed` so clients do not fire in lockstep. With `ops_per_tx > 1`,
/// consecutive payloads are bundled into one transaction (BitShares
/// operations / Sawtooth batches), reducing the transaction rate
/// accordingly.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive or `ops_per_tx` is zero.
///
/// # Example
///
/// ```
/// use coconut::client::{build_schedule, Windows};
/// use coconut_types::{PayloadKind, SimDuration};
///
/// let windows = Windows::scaled(0.01); // 3 s send window
/// let schedule = build_schedule(PayloadKind::DoNothing, 100.0, 1, windows, 42);
/// // ≈ 100/s for 3 s:
/// assert!((250..=320).contains(&schedule.len()));
/// // Time-ordered:
/// assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
pub fn build_schedule(
    kind: PayloadKind,
    rate: f64,
    ops_per_tx: u32,
    windows: Windows,
    seed: u64,
) -> Vec<ScheduledTx> {
    // Compat shim: the paper benchmark is just a single-kind workload.
    build_schedule_for(&paper(kind), rate, ops_per_tx, windows, seed)
}

/// Builds the merged submission schedule of all four COCONUT clients for
/// an arbitrary [`Workload`] — the trait-based form of [`build_schedule`],
/// which all call sites route through. The payload stream comes from
/// [`Workload::payload_at`]; timing is seeded exactly as before, so paper
/// workloads produce bit-identical schedules via either entry point.
///
/// Each workload thread sends in `(at, tx.id())` order, so the schedule is
/// the merge of the 16 thread streams, with no sort.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive, if `ops_per_tx` is zero, or
/// if `rate` is so high that a thread's send interval rounds to 0 µs.
pub fn build_schedule_for(
    workload: &dyn Workload,
    rate: f64,
    ops_per_tx: u32,
    windows: Windows,
    seed: u64,
) -> Vec<ScheduledTx> {
    assert!(rate > 0.0, "rate must be positive");
    assert!(ops_per_tx > 0, "ops_per_tx must be at least 1");
    let seeds = SeedDeriver::new(seed);
    let threads_total = (CLIENTS * THREADS_PER_CLIENT) as f64;
    let payload_rate_per_thread = rate / threads_total;
    let tx_interval = SimDuration::from_secs_f64(ops_per_tx as f64 / payload_rate_per_thread);
    assert!(
        !tx_interval.is_zero(),
        "rate {rate} tx/s is too high: a thread's send interval for \
         {ops_per_tx} op(s) per tx rounds to 0 µs"
    );
    let end = SimTime::ZERO + windows.send;

    let threads = (0..CLIENTS).flat_map(|c| {
        (0..THREADS_PER_CLIENT).map(move |t| {
            let (client, thread) = (ClientId(c), ThreadId(t));
            // Deterministic phase offset within one interval.
            let phase_frac =
                (seeds.seed("phase", (c * THREADS_PER_CLIENT + t) as u64) % 1000) as f64 / 1000.0;
            let first = SimTime::ZERO + tx_interval.mul_f64(phase_frac);
            let sends = end
                .saturating_since(first)
                .as_micros()
                .div_ceil(tx_interval.as_micros());
            (0..sends).map(move |tx_seq| {
                let at = first + tx_interval * tx_seq;
                // Per-client tx ids must be unique across threads.
                let id = TxId::new(client, u64::from(t) << 48 | tx_seq);
                let seq = tx_seq * u64::from(ops_per_tx);
                let tx = client_tx(id, thread, ops_per_tx, at, |k| {
                    workload.payload_at(client, thread, seq + k)
                });
                ScheduledTx { at, tx }
            })
        })
    });
    merge(threads)
}

/// Merges `streams`, each in `(at, tx.id())` order, into one schedule in
/// that order, reserved once from the streams' size hints. The stream
/// holding the least send is drained until the next send of another, the
/// top of a heap of their keys, comes first; then the two swap places.
pub(crate) fn merge<I: Iterator<Item = ScheduledTx>>(
    streams: impl IntoIterator<Item = I>,
) -> Vec<ScheduledTx> {
    let mut streams: Vec<Peekable<I>> = streams.into_iter().map(Iterator::peekable).collect();
    let mut schedule = Vec::with_capacity(streams.iter().map(|s| s.size_hint().0).sum());
    let mut waiting: BinaryHeap<_> = streams
        .iter_mut()
        .enumerate()
        .filter_map(|(i, s)| s.peek().map(|s| Reverse((s.at, s.tx.id(), i))))
        .collect();
    let Some(Reverse((_, _, mut i))) = waiting.pop() else {
        return schedule;
    };
    loop {
        schedule.extend(streams[i].next());
        match streams[i].peek() {
            Some(s) => {
                let key = (s.at, s.tx.id(), i);
                if let Some(mut next) = waiting.peek_mut() {
                    if next.0 < key {
                        i = std::mem::replace(&mut next.0, key).2;
                    }
                }
            }
            None => match waiting.pop() {
                Some(Reverse((_, _, next))) => i = next,
                None => return schedule,
            },
        }
    }
}

/// Transaction `id` carrying the payloads `payload(0..ops)`. One payload
/// is held inline; several are collected straight into the shared slice
/// the transaction and all its re-sends point at.
pub(crate) fn client_tx(
    id: TxId,
    thread: ThreadId,
    ops: u32,
    at: SimTime,
    mut payload: impl FnMut(u64) -> Payload,
) -> ClientTx {
    if ops == 1 {
        ClientTx::single(id, thread, payload(0), at)
    } else {
        let payloads: Arc<[Payload]> = (0..u64::from(ops)).map(payload).collect();
        ClientTx::new(id, thread, payloads, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_windows() {
        let w = Windows::paper();
        assert_eq!(w.send, SimDuration::from_secs(300));
        assert_eq!(w.listen, SimDuration::from_secs(330));
        assert_eq!(Windows::default(), w);
    }

    #[test]
    fn scaled_windows() {
        let w = Windows::scaled(0.1);
        assert_eq!(w.send, SimDuration::from_secs(30));
        assert_eq!(w.listen, SimDuration::from_secs(33));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = Windows::scaled(0.0);
    }

    #[test]
    fn schedule_hits_target_rate() {
        let windows = Windows::scaled(0.1); // 30 s
        for rate in [20.0, 200.0, 1600.0] {
            let schedule = build_schedule(PayloadKind::DoNothing, rate, 1, windows, 1);
            let expected = rate * 30.0;
            let got = schedule.len() as f64;
            assert!(
                (got - expected).abs() / expected < 0.05,
                "rate {rate}: expected ≈{expected}, got {got}"
            );
        }
    }

    #[test]
    fn ops_per_tx_bundles_payloads() {
        let windows = Windows::scaled(0.1);
        let bundled = build_schedule(PayloadKind::DoNothing, 1600.0, 100, windows, 1);
        // 1600 payloads/s ÷ 100 ops = 16 tx/s over 30 s ≈ 480 txs.
        assert!(
            (430..=530).contains(&bundled.len()),
            "got {}",
            bundled.len()
        );
        assert!(bundled.iter().all(|s| s.tx.op_count() == 100));
        let payloads: usize = bundled.iter().map(|s| s.tx.op_count()).sum();
        assert!((45_000..=50_500).contains(&payloads));
    }

    #[test]
    fn all_sends_inside_send_window() {
        let windows = Windows::scaled(0.05);
        let schedule = build_schedule(PayloadKind::KeyValueSet, 400.0, 1, windows, 3);
        let end = SimTime::ZERO + windows.send;
        assert!(schedule.iter().all(|s| s.at < end));
    }

    #[test]
    fn tx_ids_unique() {
        let schedule = build_schedule(PayloadKind::DoNothing, 800.0, 1, Windows::scaled(0.05), 4);
        let mut ids: Vec<_> = schedule.iter().map(|s| s.tx.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn sixteen_threads_contribute() {
        let schedule = build_schedule(PayloadKind::DoNothing, 1600.0, 1, Windows::scaled(0.05), 5);
        let mut pairs: Vec<(ClientId, ThreadId)> = schedule
            .iter()
            .map(|s| (s.tx.id().client(), s.tx.thread()))
            .collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 16);
    }

    #[test]
    fn trait_schedule_matches_legacy_entry_point() {
        use crate::workload::paper;
        for kind in [PayloadKind::KeyValueSet, PayloadKind::SendPayment] {
            let legacy = build_schedule(kind, 400.0, 2, Windows::scaled(0.02), 9);
            let via_trait = build_schedule_for(&paper(kind), 400.0, 2, Windows::scaled(0.02), 9);
            assert_eq!(legacy.len(), via_trait.len());
            assert!(legacy
                .iter()
                .zip(&via_trait)
                .all(|(a, b)| a.at == b.at && a.tx == b.tx));
        }
    }

    #[test]
    fn smallbank_schedule_draws_from_the_mix() {
        use crate::workload::{ContentionKnobs, Smallbank};
        let w = Smallbank::new(ContentionKnobs::default());
        let schedule = build_schedule_for(&w, 200.0, 1, Windows::scaled(0.05), 11);
        assert!(!schedule.is_empty());
        let kinds: std::collections::HashSet<_> = schedule.iter().map(|s| s.tx.kind()).collect();
        assert!(kinds.len() >= 4, "mixed stream, got {kinds:?}");
    }

    /// The construction before the merge, kept as the reference: every
    /// thread's sends appended, then one stable sort.
    fn reference_schedule(
        workload: &dyn Workload,
        rate: f64,
        ops_per_tx: u32,
        windows: Windows,
        seed: u64,
    ) -> Vec<ScheduledTx> {
        let seeds = SeedDeriver::new(seed);
        let mut schedule = Vec::new();
        let payload_rate_per_thread = rate / (CLIENTS * THREADS_PER_CLIENT) as f64;
        let tx_interval = SimDuration::from_secs_f64(ops_per_tx as f64 / payload_rate_per_thread);
        let send_end = SimTime::ZERO + windows.send;
        for c in 0..CLIENTS {
            for t in 0..THREADS_PER_CLIENT {
                let client = ClientId(c);
                let thread = ThreadId(t);
                let phase_frac = (seeds.seed("phase", (c * THREADS_PER_CLIENT + t) as u64) % 1000)
                    as f64
                    / 1000.0;
                let mut at = SimTime::ZERO + tx_interval.mul_f64(phase_frac);
                let mut seq: u64 = 0;
                let mut tx_seq: u64 = 0;
                while at < send_end {
                    let id = TxId::new(client, (t as u64) << 48 | tx_seq);
                    tx_seq += 1;
                    let tx = client_tx(id, thread, ops_per_tx, at, |k| {
                        workload.payload_at(client, thread, seq + k)
                    });
                    seq += ops_per_tx as u64;
                    schedule.push(ScheduledTx { at, tx });
                    at += tx_interval;
                }
            }
        }
        schedule.sort_by_key(|s| (s.at, s.tx.id()));
        schedule
    }

    #[test]
    fn merged_threads_are_the_sorted_schedule() {
        use crate::experiments::contention::LEVELS;
        use crate::workload::{Smallbank, Ycsb};
        let window = |us| Windows {
            send: SimDuration::from_micros(us),
            listen: SimDuration::from_micros(us),
        };
        let mut workloads: Vec<Box<dyn Workload>> = [
            PayloadKind::DoNothing,
            PayloadKind::KeyValueSet,
            PayloadKind::KeyValueGet,
            PayloadKind::CreateAccount,
            PayloadKind::SendPayment,
            PayloadKind::Balance,
        ]
        .into_iter()
        .map(|k| Box::new(paper(k)) as Box<dyn Workload>)
        .collect();
        for level in LEVELS {
            workloads.push(Box::new(Smallbank::new(level.knobs())));
            workloads.push(Box::new(Ycsb::new(level.knobs())));
        }
        for ops in [1, 3] {
            let per_thread = |interval_us: f64| 16.0 * f64::from(ops) / (interval_us * 1e-6);
            // (rate, send window in µs): 1 µs and 2 µs intervals, where
            // many threads share a phase or start a whole interval in;
            // rates of the paper and the campaigns; and windows shorter
            // than one interval, or empty.
            let cases = [
                (per_thread(1.0), 300),
                (per_thread(2.0), 301),
                (per_thread(7.0), 1_000),
                (1600.0, 2_000_000),
                (37.0, 3_000_000),
                (per_thread(1e6), 600_000),
                (per_thread(1e6), 0),
            ];
            for (w, workload) in workloads.iter().enumerate() {
                for (rate, send_us) in cases {
                    let seed = (w as u64) << 8 | u64::from(ops);
                    let got =
                        build_schedule_for(workload.as_ref(), rate, ops, window(send_us), seed);
                    let want =
                        reference_schedule(workload.as_ref(), rate, ops, window(send_us), seed);
                    let case = format!(
                        "{} ops {ops} rate {rate} send {send_us} µs",
                        workload.name()
                    );
                    assert_eq!(got.len(), want.len(), "{case}");
                    assert_eq!(got.capacity(), got.len(), "{case}: reserved exactly");
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert!(a.at == b.at && a.tx == b.tx, "{case}: position {i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate 1000000000 tx/s is too high")]
    fn rate_with_a_zero_interval_is_rejected() {
        let _ = build_schedule(PayloadKind::DoNothing, 1e9, 1, Windows::scaled(0.01), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build_schedule(PayloadKind::Balance, 200.0, 1, Windows::scaled(0.02), 7);
        let b = build_schedule(PayloadKind::Balance, 200.0, 1, Windows::scaled(0.02), 7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.at == y.at && x.tx == y.tx));
        let c = build_schedule(PayloadKind::Balance, 200.0, 1, Windows::scaled(0.02), 8);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.at != y.at),
            "different seed, different phases"
        );
    }
}
