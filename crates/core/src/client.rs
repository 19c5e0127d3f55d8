//! The COCONUT client model: four client applications × four workload
//! threads, rate-limited submission, and the paper's timing windows.
//!
//! §4.3: "The COCONUT client starts four concurrent client threads ... of
//! which each client thread starts four concurrent workload threads. ...
//! The workload-threads of each COCONUT client application send
//! transactions sequentially, but without waiting for a finalization
//! confirmation, for a period of 300 seconds. The COCONUT client terminates
//! listening on events after 330 seconds."

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
/// # Panics
///
/// Panics if `rate` is not strictly positive or `ops_per_tx` is zero.
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
    let mut schedule = Vec::new();
    let threads_total = (CLIENTS * THREADS_PER_CLIENT) as f64;
    let payload_rate_per_thread = rate / threads_total;
    let tx_interval = SimDuration::from_secs_f64(ops_per_tx as f64 / payload_rate_per_thread);
    let send_end = SimTime::ZERO + windows.send;

    for c in 0..CLIENTS {
        for t in 0..THREADS_PER_CLIENT {
            let client = ClientId(c);
            let thread = ThreadId(t);
            // Deterministic phase offset within one interval.
            let phase_frac =
                (seeds.seed("phase", (c * THREADS_PER_CLIENT + t) as u64) % 1000) as f64 / 1000.0;
            let mut at = SimTime::ZERO + tx_interval.mul_f64(phase_frac);
            let mut seq: u64 = 0;
            let mut tx_seq: u64 = 0;
            while at < send_end {
                // Per-client tx ids must be unique across threads.
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
