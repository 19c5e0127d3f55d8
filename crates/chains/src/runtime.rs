//! The shared chain-runtime scaffold.
//!
//! Every one of the seven chain models used to re-implement the same
//! client-facing machinery by hand: ingress admission with
//! [`SystemStats`] counters, a pending-payload mempool, the outcome bus
//! that stamps `finalized_at` when the *client* learns a transaction's
//! fate, the replication barrier ("persisted in all participating
//! blockchain nodes"). This module owns those pieces once; a model keeps
//! only its protocol-specific logic (endorsement, block execution,
//! conflict rules, …) and drives the scaffold. Crashes and recoveries go
//! to the consensus engine, which knows its provisioned nodes.
//!
//! The scaffold is deliberately *passive*: it never advances time on its
//! own, so a model's event interleaving — and therefore its RNG stream —
//! is exactly what the model dictates. Two instances built from the same
//! seed and driven with the same calls produce identical outcome
//! streams, which is what makes the parallel experiment executor in
//! `coconut-core` safe.
//!
//! The scaffold holds only what a run reads back. The outcome bus counts
//! every outcome but queues none due after the client's listen end
//! ([`ChainRuntime::listen_until`]), and the ledger is a hash-chain tip
//! with running counts ([`Ledger`]), so neither grows with the work a
//! saturated system leaves unconfirmed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use coconut_consensus::{Command, CpuModel};
use coconut_simnet::{EventQueue, LatencyModel, NetConfig};
use coconut_types::{
    tx::FailReason, BlockId, ClientTx, MixMap, NodeId, SeedDeriver, SimDuration, SimTime, TxId,
    TxOutcome,
};

use crate::ledger::Ledger;
use crate::system::{SubmitOutcome, SystemStats};

/// Builds the consensus-engine command for a client transaction (the
/// `(id, ops, bytes)` triple every engine ingests).
pub fn command_for(tx: &ClientTx) -> Command {
    Command::new(tx.id(), tx.op_count() as u32, tx.size_bytes() as u32)
}

/// Cuts a block's command list by a CPU budget: commands are packed in
/// order while `per_tx + per_op × ops` still fits `budget`; the rest is
/// returned as overflow for the next block (BitShares' witness-slot
/// packing).
pub fn cut_by_budget(
    commands: Vec<Command>,
    budget: SimDuration,
    per_tx: SimDuration,
    per_op: SimDuration,
) -> (Vec<Command>, Vec<Command>, SimDuration) {
    let mut used = SimDuration::ZERO;
    let mut packed = Vec::new();
    let mut overflow = Vec::new();
    for cmd in commands {
        let cost = per_tx + per_op * cmd.ops as u64;
        if used + cost <= budget {
            used += cost;
            packed.push(cmd);
        } else {
            overflow.push(cmd);
        }
    }
    (packed, overflow, used)
}

/// An ingress-load estimator: submission handling shares CPU with the
/// protocol's real work, so a flood of arrivals stretches service times.
/// Modelled as processor sharing — a recent-window arrival rate `λ`
/// against a per-item admission cost `c` yields utilization `u = λc`
/// (capped) and a slowdown of `1/(1 − u)`.
///
/// This is the paper's recurring "raising the rate limiter *lowers*
/// throughput" mechanism: Sawtooth's gossip admission (§5.6), Diem's
/// mempool admission (§5.7) and Corda's RPC ingress (§5.1) all use it.
///
/// [`IngressLoad::record`] is amortized O(1): a running count of the
/// items inside the window is added to on push and subtracted from on
/// pop, so the window is never re-summed.
#[derive(Debug, Clone)]
pub struct IngressLoad {
    window: SimDuration,
    per_item: SimDuration,
    cap: f64,
    arrivals: VecDeque<(SimTime, u32)>,
    /// Sum of the item counts in `arrivals`.
    in_window: u64,
}

impl IngressLoad {
    /// Creates an estimator over a sliding `window` with an admission
    /// cost of `per_item` per recorded item and a utilization cap.
    pub fn new(window: SimDuration, per_item: SimDuration, cap: f64) -> Self {
        IngressLoad {
            window,
            per_item,
            cap,
            arrivals: VecDeque::new(),
            in_window: 0,
        }
    }

    /// Records `items` arriving at `now` and returns the current
    /// slowdown factor (`≥ 1.0`).
    ///
    /// During warm-up (`now` still inside the first window) the rate
    /// divides by the elapsed time rather than the full window, floored
    /// at 250 ms so the very first arrivals don't divide by ~zero. The
    /// floor applies *after* shrinking to the elapsed time — clamping in
    /// the other order would re-inflate sub-250 ms windows to the elapsed
    /// time and overestimate λ for the whole run.
    pub fn record(&mut self, now: SimTime, items: u32) -> f64 {
        self.arrivals.push_back((now, items));
        self.in_window += u64::from(items);
        while let Some(&(front, n)) = self.arrivals.front() {
            if now - front > self.window {
                self.arrivals.pop_front();
                self.in_window -= u64::from(n);
            } else {
                break;
            }
        }
        let window_secs = self.window.as_secs_f64().min(now.as_secs_f64()).max(0.25);
        let rate = self.in_window as f64 / window_secs;
        let utilization = (rate * self.per_item.as_secs_f64()).min(self.cap);
        1.0 / (1.0 - utilization)
    }
}

/// Capacity, TTL and backpressure parameters of a bounded mempool.
///
/// Every real system in the paper bounds its pending pool — Sawtooth's
/// validator queue, Diem's per-account mempool windows, Quorum's txpool,
/// Corda's RPC ingress buffers — and sheds load once it fills instead of
/// growing without limit. `capacity` is the hard entry bound (a full pool
/// answers [`SubmitOutcome::Busy`] with a 250 ms retry hint), `ttl` evicts
/// entries that sat unexecuted for too long (counted in
/// [`SystemStats::evicted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLimits {
    /// Maximum pending transactions before new submissions get `Busy`.
    pub capacity: usize,
    /// Evict entries older than this, if set (scanned on admission).
    pub ttl: Option<SimDuration>,
}

/// Advisory client back-off carried by every `Busy` verdict.
const RETRY_AFTER: SimDuration = SimDuration::from_millis(250);

impl PoolLimits {
    /// An effectively unbounded pool (the pre-backpressure behaviour).
    pub fn unbounded() -> Self {
        PoolLimits::bounded(usize::MAX)
    }

    /// A bounded pool without TTL eviction.
    pub fn bounded(capacity: usize) -> Self {
        PoolLimits {
            capacity,
            ttl: None,
        }
    }

    /// Sets the TTL.
    pub fn with_ttl(mut self, ttl: SimDuration) -> Self {
        self.ttl = Some(ttl);
        self
    }
}

impl Default for PoolLimits {
    fn default() -> Self {
        PoolLimits::unbounded()
    }
}

/// The pending-payload store: client transactions waiting between
/// acceptance and block execution, keyed by id, with age tracked for TTL
/// eviction.
///
/// Entries are remembered in arrival order (submissions reach a model in
/// non-decreasing virtual time), so expiry is a pop-from-the-front scan.
/// Taken transactions leave stale order entries behind; the scan skips
/// them, and an insert drops those at the front, so the order stays near
/// the pending set without a TTL — wire-level transaction ids are never
/// reused, so a stale id can never alias a live entry.
#[derive(Debug, Default)]
pub struct Mempool {
    txs: MixMap<TxId, ClientTx>,
    order: VecDeque<(SimTime, TxId)>,
}

impl Mempool {
    /// Stores a pending transaction; its [`ClientTx::created_at`] stamp
    /// (the submission instant) is its insertion time for TTL purposes.
    pub fn insert(&mut self, tx: ClientTx) {
        while let Some((_, id)) = self.order.front() {
            if self.txs.contains_key(id) {
                break;
            }
            self.order.pop_front();
        }
        self.order.push_back((tx.created_at(), tx.id()));
        self.txs.insert(tx.id(), tx);
    }

    /// Removes and returns the transaction, if still pending.
    pub fn take(&mut self, id: &TxId) -> Option<ClientTx> {
        self.txs.remove(id)
    }

    /// Drops every pending transaction (Quorum's pool freeze).
    pub fn clear(&mut self) {
        self.txs.clear();
        self.order.clear();
    }

    /// Drops entries that have waited longer than `ttl` as of `now`,
    /// returning how many live transactions were evicted.
    pub fn evict_expired(&mut self, now: SimTime, ttl: SimDuration) -> u64 {
        let mut evicted = 0;
        while let Some(&(at, id)) = self.order.front() {
            if now - at <= ttl {
                break;
            }
            self.order.pop_front();
            if self.txs.remove(&id).is_some() {
                evicted += 1;
            }
        }
        evicted
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

// --- pipeline-stage probes ---------------------------------------------------

/// The six pipeline stages every transaction crosses, in pipeline order.
///
/// Each model maps its own mechanics onto these stages when recording
/// [`StageProbe`] spans: Corda's notary signing lands in `Commit`, Fabric's
/// endorsement sojourn in `Execution`, a PBFT/IBFT/DiemBFT/DPoS ordering
/// wait in `Consensus`, and so on. The order of [`Stage::ALL`] doubles as
/// the tie-break order for bottleneck verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Ingress admission: RPC handling from client send to the admission
    /// verdict.
    Ingress,
    /// Mempool wait: accepted but not yet picked up by ordering.
    MempoolWait,
    /// Ordering/consensus rounds: from pickup (or submission to the
    /// engine) to block commitment.
    Consensus,
    /// Execution: smart-contract / flow CPU work.
    Execution,
    /// Validation and commit: persistence on every replica, notary
    /// signing, ledger append.
    Commit,
    /// Client notify: from persistence to the client hearing the outcome.
    Notify,
}

impl Stage {
    /// All stages in pipeline order (also the verdict tie-break order).
    pub const ALL: [Stage; 6] = [
        Stage::Ingress,
        Stage::MempoolWait,
        Stage::Consensus,
        Stage::Execution,
        Stage::Commit,
        Stage::Notify,
    ];

    /// Stable lowercase label used in JSON output and verdicts.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Ingress => "ingress",
            Stage::MempoolWait => "mempool-wait",
            Stage::Consensus => "consensus",
            Stage::Execution => "execution",
            Stage::Commit => "commit",
            Stage::Notify => "notify",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Ingress => 0,
            Stage::MempoolWait => 1,
            Stage::Consensus => 2,
            Stage::Execution => 3,
            Stage::Commit => 4,
            Stage::Notify => 5,
        }
    }
}

/// Width of one residence-time histogram bucket (seconds).
const STAGE_BUCKET_SECS: f64 = 0.1;
/// Number of histogram buckets; residences past the last bucket clamp
/// into it (60 s covers every sane stage residence at benchmark scale).
const STAGE_BUCKETS: usize = 600;

/// Constant-memory streaming accumulator for one stage's residence
/// times: count, sum, max, and a fixed-width linear histogram for
/// quantiles. Memory is `O(STAGE_BUCKETS)` regardless of how many spans
/// are recorded.
#[derive(Debug, Clone)]
pub struct StageAccum {
    count: u64,
    sum_secs: f64,
    max_secs: f64,
    hist: Vec<u64>,
}

impl StageAccum {
    fn new() -> Self {
        StageAccum {
            count: 0,
            sum_secs: 0.0,
            max_secs: 0.0,
            hist: vec![0; STAGE_BUCKETS],
        }
    }

    fn record(&mut self, secs: f64) {
        let secs = secs.max(0.0);
        self.count += 1;
        self.sum_secs += secs;
        self.max_secs = self.max_secs.max(secs);
        let b = ((secs / STAGE_BUCKET_SECS) as usize).min(STAGE_BUCKETS - 1);
        self.hist[b] += 1;
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total residence across all spans (seconds).
    pub fn sum_secs(&self) -> f64 {
        self.sum_secs
    }

    /// Mean residence (seconds); 0.0 with no spans.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_secs / self.count as f64
        }
    }

    /// Largest residence seen (seconds).
    pub fn max_secs(&self) -> f64 {
        self.max_secs
    }

    /// Nearest-rank quantile from the histogram, reported as the bucket
    /// midpoint — within one bucket width (`STAGE_BUCKET_SECS`) of the
    /// exact per-sample quantile for in-range residences.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (i as f64 + 0.5) * STAGE_BUCKET_SECS;
            }
        }
        (STAGE_BUCKETS as f64 - 0.5) * STAGE_BUCKET_SECS
    }
}

/// Streaming time-weighted queue-depth integrator for one stage.
///
/// The mean depth is the exact occupancy integral — the sum of span
/// durations, which equals the time integral of concurrent spans no
/// matter the order spans are recorded in — divided by the observed
/// window `[earliest enter, latest exit]`. That is exactly the `L` of
/// Little's law, and with `λ = count / window` and `W = mean residence`
/// the identity `L = λ·W` holds by construction, so the property test in
/// the integration suite pins the two accumulators against each other.
///
/// `max_depth` needs the spans replayed in time order; pending exits sit
/// in a min-heap and out-of-order enters (models record spans when the
/// *outcome* is known, which may be long after the enter) clamp forward
/// to the replay head. The maximum is therefore a lower bound under
/// heavily retroactive recording; the mean is always exact.
#[derive(Debug, Clone, Default)]
struct DepthTracker {
    exits: BinaryHeap<Reverse<u64>>,
    depth: u64,
    max_depth: u64,
    /// Exact occupancy integral: Σ span durations (depth · seconds).
    area: f64,
    /// Earliest raw enter / latest raw exit — the observed window.
    first: Option<u64>,
    last_exit: u64,
    /// Replay head for the clamped max-depth walk.
    head: u64,
}

impl DepthTracker {
    fn note(&mut self, enter: u64, exit: u64) {
        let exit = exit.max(enter);
        self.area += (exit - enter) as f64 / 1e6;
        self.first = Some(self.first.map_or(enter, |f| f.min(enter)));
        self.last_exit = self.last_exit.max(exit);
        // Clamped monotone replay, for the depth high-water mark only.
        let enter = enter.max(self.head);
        let exit = exit.max(enter);
        while let Some(&Reverse(t)) = self.exits.peek() {
            if t > enter {
                break;
            }
            self.exits.pop();
            self.depth -= 1;
        }
        self.head = enter;
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.exits.push(Reverse(exit));
    }

    /// Returns `(mean_depth, max_depth, window_secs)` over the observed
    /// window.
    fn finish(self) -> (f64, u64, f64) {
        let Some(first) = self.first else {
            return (0.0, 0, 0.0);
        };
        let span = (self.last_exit.max(first) - first) as f64 / 1e6;
        if span <= 0.0 {
            (0.0, self.max_depth, 0.0)
        } else {
            (self.area / span, self.max_depth, span)
        }
    }
}

/// One recorded stage visit, kept only in (test-facing) trace mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The transaction whose visit this is.
    pub tx: TxId,
    /// The stage visited.
    pub stage: Stage,
    /// Visit start on the sim clock.
    pub enter: SimTime,
    /// Visit end on the sim clock.
    pub exit: SimTime,
}

#[derive(Debug, Clone)]
struct StageTrack {
    residence: StageAccum,
    depth: DepthTracker,
    util_sum: f64,
    util_count: u64,
    util_max: f64,
    sheds: u64,
}

impl StageTrack {
    fn new() -> Self {
        StageTrack {
            residence: StageAccum::new(),
            depth: DepthTracker::default(),
            util_sum: 0.0,
            util_count: 0,
            util_max: 0.0,
            sheds: 0,
        }
    }
}

/// Aggregated observations of one stage, as reported by
/// [`StageProbe::report`].
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Visits recorded (a transaction may visit a stage more than once).
    pub count: u64,
    /// Total residence across visits (seconds).
    pub sum_secs: f64,
    /// Mean residence per visit (seconds).
    pub mean_secs: f64,
    /// Median residence (histogram midpoint, seconds).
    pub p50_secs: f64,
    /// 95th-percentile residence (histogram midpoint, seconds).
    pub p95_secs: f64,
    /// 99th-percentile residence (histogram midpoint, seconds).
    pub p99_secs: f64,
    /// Largest residence (exact, seconds).
    pub max_secs: f64,
    /// Time-weighted mean queue depth over the observed window.
    pub depth_mean: f64,
    /// Peak queue depth.
    pub depth_max: u64,
    /// Length of the observed window (first enter → last exit, seconds).
    pub window_secs: f64,
    /// Mean of sampled utilization (0 when never sampled).
    pub utilization_mean: f64,
    /// Peak sampled utilization.
    pub utilization_max: f64,
    /// Transactions shed at this stage (rejects, backpressure,
    /// evictions, drops).
    pub sheds: u64,
}

/// Per-stage aggregates for one run, in [`Stage::ALL`] order.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// One snapshot per stage.
    pub stages: Vec<StageSnapshot>,
}

impl StageReport {
    /// The snapshot for `stage`.
    pub fn get(&self, stage: Stage) -> &StageSnapshot {
        &self.stages[stage.index()]
    }

    /// Total residence time across all stages (seconds).
    pub fn total_residence_secs(&self) -> f64 {
        self.stages.iter().map(|s| s.sum_secs).sum()
    }

    /// `stage`'s share of total residence time (0 when nothing was
    /// recorded anywhere).
    pub fn residence_share(&self, stage: Stage) -> f64 {
        let total = self.total_residence_secs();
        if total <= 0.0 {
            0.0
        } else {
            self.get(stage).sum_secs / total
        }
    }
}

/// The pipeline-stage instrumentation a [`ChainRuntime`] carries.
///
/// Disabled by default and strictly passive: every method is a no-op
/// until [`StageProbe::enable`], and recording only ever *reads*
/// timestamps the model already computed — the probe never samples RNG
/// streams, never advances time, and never changes an admission verdict,
/// so runs with probes off are bit-identical to runs before the probe
/// existed.
#[derive(Debug)]
pub struct StageProbe {
    enabled: bool,
    queue_stage: Stage,
    trace: Option<Vec<SpanRecord>>,
    tracks: [StageTrack; 6],
}

impl Default for StageProbe {
    fn default() -> Self {
        StageProbe::new()
    }
}

impl StageProbe {
    /// A disabled probe (the default state inside every runtime).
    pub fn new() -> Self {
        StageProbe {
            enabled: false,
            queue_stage: Stage::MempoolWait,
            trace: None,
            tracks: std::array::from_fn(|_| StageTrack::new()),
        }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// `true` once recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables recording *and* keeps every raw span (test-facing; memory
    /// grows with the run, unlike the streaming accumulators).
    pub fn enable_trace(&mut self) {
        self.enabled = true;
        self.trace = Some(Vec::new());
    }

    /// The raw spans collected in trace mode (empty otherwise).
    pub fn trace(&self) -> &[SpanRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Declares which stage the runtime's generic load-shedding paths
    /// (`busy`, pool-capacity backpressure, TTL eviction) attribute their
    /// sheds to. Defaults to [`Stage::MempoolWait`]; models whose
    /// capacity bound really guards a different stage (Corda's flow
    /// workers → `Commit`, Fabric's endorsement cap → `Execution`) set it
    /// at construction.
    pub fn set_queue_stage(&mut self, stage: Stage) {
        self.queue_stage = stage;
    }

    /// The stage generic sheds attribute to.
    pub fn queue_stage(&self) -> Stage {
        self.queue_stage
    }

    /// Records one stage visit `[enter, exit]` for `tx`. Negative spans
    /// clamp to zero.
    pub fn span(&mut self, stage: Stage, tx: TxId, enter: SimTime, exit: SimTime) {
        if !self.enabled {
            return;
        }
        let exit = exit.max(enter);
        let track = &mut self.tracks[stage.index()];
        track.residence.record((exit - enter).as_secs_f64());
        track.depth.note(enter.as_micros(), exit.as_micros());
        if let Some(trace) = &mut self.trace {
            trace.push(SpanRecord {
                tx,
                stage,
                enter,
                exit,
            });
        }
    }

    /// Records one utilization sample (clamped to `[0, 1]`) for `stage`.
    pub fn utilization(&mut self, stage: Stage, u: f64) {
        if !self.enabled {
            return;
        }
        let u = u.clamp(0.0, 1.0);
        let track = &mut self.tracks[stage.index()];
        track.util_sum += u;
        track.util_count += 1;
        track.util_max = track.util_max.max(u);
    }

    /// Counts `n` transactions shed at `stage`.
    pub fn shed(&mut self, stage: Stage, n: u64) {
        if !self.enabled {
            return;
        }
        self.tracks[stage.index()].sheds += n;
    }

    /// Counts `n` sheds at the configured queue stage (the runtime's
    /// generic shedding paths call this).
    fn shed_queue(&mut self, n: u64) {
        let stage = self.queue_stage;
        self.shed(stage, n);
    }

    /// Aggregates everything recorded so far into per-stage snapshots.
    pub fn report(&self) -> StageReport {
        let stages = Stage::ALL
            .iter()
            .map(|&stage| {
                let track = &self.tracks[stage.index()];
                let (depth_mean, depth_max, window_secs) = track.depth.clone().finish();
                StageSnapshot {
                    stage,
                    count: track.residence.count(),
                    sum_secs: track.residence.sum_secs(),
                    mean_secs: track.residence.mean_secs(),
                    p50_secs: track.residence.quantile(0.50),
                    p95_secs: track.residence.quantile(0.95),
                    p99_secs: track.residence.quantile(0.99),
                    max_secs: track.residence.max_secs(),
                    depth_mean,
                    depth_max,
                    window_secs,
                    utilization_mean: if track.util_count == 0 {
                        0.0
                    } else {
                        track.util_sum / track.util_count as f64
                    },
                    utilization_max: track.util_max,
                    sheds: track.sheds,
                }
            })
            .collect();
        StageReport { stages }
    }
}

/// The scaffold a chain model embeds (see module docs).
#[derive(Debug)]
pub struct ChainRuntime {
    stats: SystemStats,
    mempool: Mempool,
    pool: PoolLimits,
    outcomes: EventQueue<TxOutcome>,
    /// The client's listen end: outcomes due after it are counted but not
    /// queued ([`ChainRuntime::listen_until`]).
    listen_end: SimTime,
    rng: coconut_types::SimRng,
    inter: LatencyModel,
    ledger: Ledger,
    /// Replication width: nodes that must persist before the client is
    /// notified.
    nodes: u32,
    /// Pipeline-stage instrumentation (disabled by default; see
    /// [`StageProbe`]).
    probe: StageProbe,
}

impl ChainRuntime {
    /// Builds the scaffold. `nodes` is the replication width (every one
    /// of them persists a block before the client hears about it).
    /// The inter-server hop model and the `"hops"` RNG stream come from
    /// `seeds`/`net`, exactly as the hand-rolled models derived them.
    pub fn new(seeds: &SeedDeriver, net: &NetConfig, nodes: u32) -> Self {
        ChainRuntime {
            stats: SystemStats::default(),
            mempool: Mempool::default(),
            pool: PoolLimits::unbounded(),
            outcomes: EventQueue::new(),
            listen_end: SimTime::MAX,
            rng: seeds.rng("hops", 0),
            inter: net.inter_server,
            ledger: Ledger::new(),
            nodes,
            probe: StageProbe::new(),
        }
    }

    // --- pipeline-stage probes ---------------------------------------------

    /// The pipeline-stage probe.
    pub fn probe(&self) -> &StageProbe {
        &self.probe
    }

    /// The pipeline-stage probe, mutably (models record spans through
    /// this).
    pub fn probe_mut(&mut self) -> &mut StageProbe {
        &mut self.probe
    }

    /// Aggregated per-stage observations.
    pub fn stage_report(&self) -> StageReport {
        self.probe.report()
    }

    // --- ingress admission -------------------------------------------------

    /// Counts one accepted submission.
    pub fn accept(&mut self) {
        self.stats.accepted += 1;
    }

    /// Counts one rejected submission.
    pub fn reject(&mut self) {
        self.stats.rejected += 1;
    }

    /// Counts `n` rejected submissions at once (pool drops).
    pub fn reject_n(&mut self, n: u64) {
        self.stats.rejected += n;
    }

    /// Installs the bounded-pool parameters (models pass their config's
    /// [`PoolLimits`] at construction).
    pub fn set_pool_limits(&mut self, pool: PoolLimits) {
        self.pool = pool;
    }

    /// The installed bounded-pool parameters.
    pub fn pool_limits(&self) -> PoolLimits {
        self.pool
    }

    /// `true` once the mempool is at capacity — the next plain insert
    /// would overflow the bound.
    pub fn pool_full(&self) -> bool {
        self.mempool.len() >= self.pool.capacity
    }

    /// Drops mempool entries older than the configured TTL (no-op
    /// without one), counting them in [`SystemStats::evicted`]. Evictions
    /// are shed load at whatever stage the pool bound guards, so the
    /// probe books them against its queue stage.
    pub fn evict_expired(&mut self, now: SimTime) {
        if let Some(ttl) = self.pool.ttl {
            let evicted = self.mempool.evict_expired(now, ttl);
            self.stats.evicted += evicted;
            self.probe.shed_queue(evicted);
        }
    }

    /// Counts one backpressured submission and returns the `Busy`
    /// verdict carrying the 250 ms retry hint. For models that shed
    /// load outside [`ChainRuntime::admit`] (Fabric's endorsement
    /// pipeline, Corda's per-node flow queues). The probe books the shed
    /// against its queue stage — the stage whose capacity bound tripped.
    pub fn busy(&mut self) -> SubmitOutcome {
        self.stats.busy += 1;
        self.probe.shed_queue(1);
        SubmitOutcome::Busy {
            retry_after: RETRY_AFTER,
        }
    }

    /// The common admission gate, in verdict order: TTL eviction first,
    /// then the model's own `full` signal rejects, then a pool at
    /// capacity answers `Busy` backpressure; anything else is accepted
    /// and stored in the mempool.
    pub fn admit(&mut self, now: SimTime, tx: &ClientTx, full: bool) -> SubmitOutcome {
        self.evict_expired(now);
        if full {
            self.reject();
            self.probe.shed_queue(1);
            SubmitOutcome::Rejected
        } else if self.pool_full() {
            self.busy()
        } else {
            self.accept();
            self.mempool.insert(tx.clone());
            SubmitOutcome::Accepted
        }
    }

    /// The pending-payload store.
    pub fn mempool(&mut self) -> &mut Mempool {
        &mut self.mempool
    }

    // --- network hops ------------------------------------------------------

    /// Samples one inter-server network hop.
    pub fn hop(&mut self) -> SimDuration {
        self.inter.sample(&mut self.rng)
    }

    // --- blocks and the ledger ---------------------------------------------

    /// Appends a block carrying `txs` to the hash-linked ledger and
    /// counts it; returns the block id at the new height.
    pub fn append_block(
        &mut self,
        proposer: NodeId,
        at: SimTime,
        txs: impl IntoIterator<Item = TxId>,
        ops: Option<u64>,
    ) -> BlockId {
        self.stats.blocks += 1;
        BlockId(self.ledger.append(proposer, at, txs, ops))
    }

    /// Counts a finality round on a block-less chain (Corda).
    pub fn note_finality(&mut self) {
        self.stats.blocks += 1;
    }

    /// The hash-linked ledger (its tip and running counts).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.ledger.height()
    }

    /// Replication barrier: every node receives the block after one hop
    /// and spends `cost` of its CPU persisting it; returns the instant
    /// the *slowest* node is done — the gate for client notification.
    pub fn replicate(&mut self, cpu: &mut CpuModel, at: SimTime, cost: SimDuration) -> SimTime {
        let mut persist = SimTime::ZERO;
        for n in 0..self.nodes {
            let arrive = at + self.hop();
            let done = cpu.process(NodeId(n), arrive, cost);
            persist = persist.max(done);
        }
        persist
    }

    // --- the outcome bus ---------------------------------------------------

    /// Sets the client's listen end: from now on an outcome due after
    /// `end` is counted in [`SystemStats::outcomes_emitted`] but never
    /// queued, since no [`ChainRuntime::drain`] the client reads reaches
    /// it. The runtime starts with no end and stores every outcome.
    pub fn listen_until(&mut self, end: SimTime) {
        self.listen_end = end;
    }

    /// Emits a committed outcome to the client at `event_at` (one
    /// notification hop *already included* by the caller's timestamp).
    pub fn emit_committed(&mut self, tx: TxId, block: BlockId, event_at: SimTime, ops: u32) {
        self.emit(TxOutcome::committed(tx, block, event_at, ops));
    }

    /// Emits a failure outcome to the client at `event_at`.
    pub fn emit_failed(&mut self, tx: TxId, reason: FailReason, event_at: SimTime) {
        self.emit(TxOutcome::failed(tx, reason, event_at));
    }

    fn emit(&mut self, outcome: TxOutcome) {
        self.stats.outcomes_emitted += 1;
        if outcome.finalized_at <= self.listen_end {
            self.outcomes.push(outcome.finalized_at, outcome);
        }
    }

    /// Drains every outcome whose client notification fired at or
    /// before `deadline`, in notification order.
    pub fn drain(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
        let mut out = Vec::new();
        while let Some((_, o)) = self.outcomes.pop_at_or_before(deadline) {
            out.push(o);
        }
        out
    }

    // --- membership churn ---------------------------------------------------

    /// Counts a completed join (for models whose replication width is a
    /// different role than the one churning, e.g. Fabric's peers vs its
    /// orderers).
    pub fn note_join(&mut self) {
        self.stats.joins += 1;
    }

    /// Counts a completed leave.
    pub fn note_leave(&mut self) {
        self.stats.leaves += 1;
    }

    /// Reconciles the replication barrier with the engine's active member
    /// count, counting each completed join/leave along the way: from now
    /// on an admitted member must also persist a block before the client
    /// is notified, and a departed one no longer gates it. The mempool,
    /// admission counters, and outcome bus all carry over untouched —
    /// membership changes must not drop pending work.
    pub fn sync_membership(&mut self, active: u32) {
        while self.nodes < active {
            self.stats.joins += 1;
            self.nodes += 1;
        }
        while self.nodes > active.max(1) {
            self.stats.leaves += 1;
            self.nodes -= 1;
        }
    }

    /// Current replication width.
    pub fn replication_width(&self) -> u32 {
        self.nodes
    }

    // --- stats -------------------------------------------------------------

    /// The scaffold's counters.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// The scaffold's counters with the model's consensus-message count
    /// overlaid (engines track their own network traffic).
    pub fn stats_with(&self, consensus_messages: u64) -> SystemStats {
        let mut s = self.stats;
        s.consensus_messages = consensus_messages;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::{ClientId, Payload, ThreadId};
    use std::collections::BTreeSet;

    fn rt() -> ChainRuntime {
        ChainRuntime::new(&SeedDeriver::new(42), &NetConfig::lan(), 4)
    }

    fn tx(seq: u64) -> ClientTx {
        ClientTx::single(
            TxId::new(ClientId(0), seq),
            ThreadId(0),
            Payload::DoNothing,
            SimTime::ZERO,
        )
    }

    #[test]
    fn admission_counts_and_stores() {
        let mut r = rt();
        assert!(r.admit(SimTime::ZERO, &tx(1), false).is_accepted());
        assert!(!r.admit(SimTime::ZERO, &tx(2), true).is_accepted());
        r.reject_n(3);
        let s = r.stats();
        assert_eq!(s.accepted, 1);
        assert_eq!(s.rejected, 4);
        assert_eq!(s.busy, 0);
        assert_eq!(r.mempool().len(), 1);
        assert!(r.mempool().take(&tx(1).id()).is_some());
        assert!(r.mempool().is_empty());
    }

    #[test]
    fn bounded_pool_answers_busy_at_capacity() {
        let mut r = rt();
        r.set_pool_limits(PoolLimits::bounded(3));
        for i in 0..3 {
            assert!(r.admit(SimTime::ZERO, &tx(i), false).is_accepted());
        }
        let verdict = r.admit(SimTime::ZERO, &tx(3), false);
        assert!(verdict.is_busy());
        assert_eq!(verdict.retry_after(), Some(RETRY_AFTER));
        assert_eq!(r.mempool().len(), 3, "pool never exceeds its cap");
        let s = r.stats();
        assert_eq!(s.accepted, 3);
        assert_eq!(s.busy, 1);
        assert_eq!(s.rejected, 0, "backpressure is not a rejection");
        // A model-level `full` still wins over the capacity check.
        assert_eq!(
            r.admit(SimTime::ZERO, &tx(4), true),
            SubmitOutcome::Rejected
        );
        // Draining the pool re-opens admission.
        assert!(r.mempool().take(&tx(0).id()).is_some());
        assert!(r.admit(SimTime::ZERO, &tx(5), false).is_accepted());
    }

    #[test]
    fn ttl_eviction_frees_capacity_and_counts() {
        let mut r = rt();
        r.set_pool_limits(PoolLimits::bounded(2).with_ttl(SimDuration::from_secs(5)));
        let old = ClientTx::single(
            TxId::new(ClientId(0), 1),
            ThreadId(0),
            Payload::DoNothing,
            SimTime::ZERO,
        );
        let young = ClientTx::single(
            TxId::new(ClientId(0), 2),
            ThreadId(0),
            Payload::DoNothing,
            SimTime::from_secs(4),
        );
        assert!(r.admit(SimTime::ZERO, &old, false).is_accepted());
        assert!(r.admit(SimTime::from_secs(4), &young, false).is_accepted());
        // At t = 6 the pool is nominally full, but the t = 0 entry has
        // expired: eviction frees the slot before the capacity check.
        let late = ClientTx::single(
            TxId::new(ClientId(0), 3),
            ThreadId(0),
            Payload::DoNothing,
            SimTime::from_secs(6),
        );
        assert!(r.admit(SimTime::from_secs(6), &late, false).is_accepted());
        assert_eq!(r.stats().evicted, 1);
        assert_eq!(r.mempool().len(), 2);
        assert!(r.mempool().take(&old.id()).is_none(), "evicted is gone");
        // Taken transactions leave stale order entries; eviction skips
        // them without counting.
        assert!(r.mempool().take(&young.id()).is_some());
        r.evict_expired(SimTime::from_secs(60));
        assert_eq!(r.stats().evicted, 2, "only the live entry counted");
        assert!(r.mempool().is_empty());
    }

    #[test]
    fn zero_capacity_pool_sheds_every_submission() {
        // Degenerate but legal configuration: a pool with no room answers
        // `Busy` from the very first submission and never stores anything.
        let mut r = rt();
        r.set_pool_limits(PoolLimits::bounded(0));
        for i in 0..3 {
            let verdict = r.admit(SimTime::ZERO, &tx(i), false);
            assert!(verdict.is_busy(), "zero capacity must backpressure");
        }
        assert!(r.mempool().is_empty(), "nothing may enter a zero-size pool");
        let s = r.stats();
        assert_eq!(s.busy, 3);
        assert_eq!(s.accepted, 0);
        assert_eq!(s.rejected, 0, "capacity shedding is not a rejection");
        // A model-level `full` reject still takes precedence over `Busy`.
        assert_eq!(
            r.admit(SimTime::ZERO, &tx(9), true),
            SubmitOutcome::Rejected
        );
    }

    #[test]
    fn inserts_drop_the_stale_front_that_takes_leave() {
        let mut pool = Mempool::default();
        for i in 0..1_000 {
            pool.insert(tx(i));
            assert!(pool.take(&tx(i).id()).is_some());
        }
        assert_eq!(pool.order.len(), 1, "only the last take's entry is left");
        // A live front holds the stale entries behind it until it leaves.
        pool.insert(tx(1_000));
        for i in 1_001..1_010 {
            pool.insert(tx(i));
            pool.take(&tx(i).id());
        }
        assert_eq!(pool.order.len(), 10);
        pool.take(&tx(1_000).id());
        pool.insert(tx(1_010));
        assert_eq!((pool.order.len(), pool.len()), (1, 1));
        assert_eq!(
            pool.evict_expired(SimTime::from_secs(1), SimDuration::ZERO),
            1
        );
    }

    #[test]
    fn ttl_eviction_boundary_is_exclusive() {
        // An entry aged *exactly* `ttl` is still alive; one instant older
        // is evicted (`now - at <= ttl` keeps, `>` evicts).
        let ttl = SimDuration::from_secs(5);
        let mut r = rt();
        r.set_pool_limits(PoolLimits::bounded(10).with_ttl(ttl));
        assert!(r.admit(SimTime::ZERO, &tx(1), false).is_accepted());
        r.evict_expired(SimTime::from_secs(5));
        assert_eq!(r.stats().evicted, 0, "age == ttl is not expired");
        assert_eq!(r.mempool().len(), 1);
        r.evict_expired(SimTime::from_secs(5) + SimDuration::from_micros(1));
        assert_eq!(r.stats().evicted, 1, "one tick past ttl evicts");
        assert!(r.mempool().is_empty());
    }

    #[test]
    fn membership_sync_moves_replication_width() {
        let mut r = rt();
        assert_eq!(r.replication_width(), 4);
        r.sync_membership(5);
        assert_eq!(r.replication_width(), 5);
        r.sync_membership(3);
        assert_eq!(r.replication_width(), 3);
        let s = r.stats();
        assert_eq!(s.joins, 1);
        assert_eq!(s.leaves, 2);
        // Reconciling to the same count is a no-op.
        r.sync_membership(3);
        assert_eq!(r.stats().joins, 1);
        // The barrier never collapses to zero nodes.
        r.sync_membership(0);
        assert_eq!(r.replication_width(), 1);
        // Count-only notes leave the width alone (Fabric's orderer churn
        // does not gate peer replication).
        r.note_join();
        r.note_leave();
        assert_eq!(r.replication_width(), 1);
        assert_eq!(r.stats().joins, 2);
    }

    #[test]
    fn outcome_bus_orders_and_counts() {
        let mut r = rt();
        r.emit_committed(tx(2).id(), BlockId(1), SimTime::from_secs(2), 1);
        r.emit_committed(tx(1).id(), BlockId(1), SimTime::from_secs(1), 1);
        r.emit_failed(tx(3).id(), FailReason::Conflict, SimTime::from_secs(5));
        let early = r.drain(SimTime::from_secs(3));
        assert_eq!(early.len(), 2);
        assert!(early[0].finalized_at <= early[1].finalized_at);
        assert_eq!(r.stats().outcomes_emitted, 3);
        let late = r.drain(SimTime::from_secs(10));
        assert_eq!(late.len(), 1);
        assert!(!late[0].is_committed());
    }

    #[test]
    fn outcomes_due_past_the_listen_end_are_counted_not_queued() {
        let mut r = rt();
        let end = SimTime::from_secs(5);
        r.listen_until(end);
        r.emit_committed(tx(1).id(), BlockId(1), end, 1);
        r.emit_committed(tx(2).id(), BlockId(1), end + SimDuration::from_micros(1), 1);
        r.emit_failed(tx(3).id(), FailReason::Conflict, SimTime::from_secs(9));
        r.emit_failed(tx(4).id(), FailReason::Conflict, end);
        assert_eq!(r.stats().outcomes_emitted, 4);
        let drained: Vec<TxId> = r.drain(SimTime::MAX).iter().map(|o| o.tx).collect();
        assert_eq!(drained, [tx(1).id(), tx(4).id()]);
    }

    #[test]
    fn blocks_and_finality_count() {
        let mut r = rt();
        let b = r.append_block(NodeId(0), SimTime::from_secs(1), [tx(1).id()], None);
        assert_eq!(b, BlockId(1));
        r.note_finality();
        assert_eq!(r.stats().blocks, 2);
        assert_eq!(r.height(), 1, "finality rounds do not extend the ledger");
    }

    #[test]
    fn replicate_waits_for_slowest_node() {
        let mut r = rt();
        let mut cpu = CpuModel::new(4);
        let t = SimTime::from_secs(1);
        let persist = r.replicate(&mut cpu, t, SimDuration::from_millis(10));
        assert!(persist >= t + SimDuration::from_millis(10));
    }

    #[test]
    fn same_seed_same_streams() {
        let drive = || {
            let mut r = rt();
            let mut cpu = CpuModel::new(4);
            let mut events = Vec::new();
            for i in 0..20u64 {
                let at = SimTime::from_millis(100 * i);
                let persist = r.replicate(&mut cpu, at, SimDuration::from_millis(3));
                let event_at = persist + r.hop();
                r.emit_committed(tx(i).id(), BlockId(i + 1), event_at, 1);
            }
            events.extend(
                r.drain(SimTime::from_secs(30))
                    .iter()
                    .map(|o| (o.tx, o.finalized_at)),
            );
            events
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn ingress_load_is_unity_when_idle_and_grows_with_rate() {
        let mut l = IngressLoad::new(
            SimDuration::from_secs(2),
            SimDuration::from_micros(800),
            0.9,
        );
        let slow = l.record(SimTime::from_secs(10), 1);
        assert!(slow < 1.01, "one arrival barely registers: {slow}");
        let mut l = IngressLoad::new(
            SimDuration::from_secs(2),
            SimDuration::from_micros(800),
            0.9,
        );
        let mut last = 1.0;
        for i in 0..4000u64 {
            last = l.record(SimTime::from_secs(10) + SimDuration::from_millis(i), 1);
        }
        assert!(last > 2.0, "a 1000/s flood must stretch service: {last}");
        assert!(last <= 10.0 + 1e-9, "capped at u = 0.9");
    }

    #[test]
    fn ingress_load_warm_up_divides_by_elapsed_time() {
        // Inside the first window the rate estimate divides by the
        // elapsed time, not the full window: 100 items by t = 0.5 s is a
        // 200/s arrival rate even though the window is 2 s.
        let mut l = IngressLoad::new(SimDuration::from_secs(2), SimDuration::from_millis(1), 0.9);
        let slow = l.record(SimTime::from_millis(500), 100);
        let expected = 1.0 / (1.0 - 200.0 * 0.001);
        assert!(
            (slow - expected).abs() < 1e-9,
            "warm-up rate must use elapsed time: {slow} vs {expected}"
        );
        // Once past the window the denominator is the window itself.
        let mut l = IngressLoad::new(SimDuration::from_secs(2), SimDuration::from_millis(1), 0.9);
        let slow = l.record(SimTime::from_secs(10), 100);
        let expected = 1.0 / (1.0 - 50.0 * 0.001);
        assert!(
            (slow - expected).abs() < 1e-9,
            "steady-state uses the window"
        );
    }

    #[test]
    fn ingress_load_floor_holds_for_sub_floor_windows() {
        // A window shorter than the 250 ms floor must not defeat the
        // floor: the first arrivals divide by 0.25 s, not by the tiny
        // window (which overestimated λ before the clamp fix).
        let mut l = IngressLoad::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(1),
            0.9,
        );
        let slow = l.record(SimTime::from_millis(10), 100);
        let expected = 1.0 / (1.0 - 400.0 * 0.001);
        assert!(
            (slow - expected).abs() < 1e-9,
            "floor applies after the window clamp: {slow} vs {expected}"
        );
        assert!(slow < 2.0, "pre-fix this hit the utilization cap");
    }

    /// Reference estimator: re-sums the whole window on every arrival.
    struct ResummingIngressLoad {
        window: SimDuration,
        per_item: SimDuration,
        cap: f64,
        arrivals: VecDeque<(SimTime, u32)>,
    }

    impl ResummingIngressLoad {
        fn record(&mut self, now: SimTime, items: u32) -> f64 {
            self.arrivals.push_back((now, items));
            while let Some(&(front, _)) = self.arrivals.front() {
                if now - front > self.window {
                    self.arrivals.pop_front();
                } else {
                    break;
                }
            }
            let window_secs = self.window.as_secs_f64().min(now.as_secs_f64()).max(0.25);
            let rate =
                self.arrivals.iter().map(|&(_, n)| n as u64).sum::<u64>() as f64 / window_secs;
            let utilization = (rate * self.per_item.as_secs_f64()).min(self.cap);
            1.0 / (1.0 - utilization)
        }
    }

    #[test]
    fn ingress_load_running_count_is_bit_equal_to_resumming() {
        let window = SimDuration::from_millis(500);
        let per_item = SimDuration::from_micros(90);
        let mut fast = IngressLoad::new(window, per_item, 0.9);
        let mut slow = ResummingIngressLoad {
            window,
            per_item,
            cap: 0.9,
            arrivals: VecDeque::new(),
        };
        let mut rng = coconut_types::SimRng::seed_from_u64(12);
        let mut now = SimTime::ZERO;
        let mut distinct = BTreeSet::new();
        for i in 0..20_000u64 {
            // Bursts of up to 5,000 items between runs of single items;
            // gaps of zero, a few ms, and exactly one window (the
            // `now - front > window` boundary keeps such an entry).
            let items = if i % 97 < 5 {
                rng.gen_range_inclusive(1_000, 5_000) as u32
            } else {
                rng.gen_range_inclusive(0, 3) as u32
            };
            now = match rng.gen_range_inclusive(0, 9) {
                0 => now,
                1 => now + window,
                _ => now + SimDuration::from_micros(rng.gen_range_inclusive(1, 4_000)),
            };
            let (a, b) = (fast.record(now, items), slow.record(now, items));
            assert_eq!(a.to_bits(), b.to_bits(), "arrival {i} at {now:?}");
            distinct.insert(a.to_bits());
        }
        assert!(distinct.len() > 200, "the estimate must move");
        assert!(
            distinct.contains(&(1.0f64 / (1.0 - 0.9)).to_bits()),
            "cap hit"
        );
    }

    #[test]
    fn ingress_load_keeps_an_arrival_exactly_one_window_old() {
        let w = SimDuration::from_secs(1);
        let mut l = IngressLoad::new(w, SimDuration::from_millis(1), 0.9);
        l.record(SimTime::from_secs(5), 100);
        // 1 s later: the first entry is exactly `window` old and stays.
        let both = l.record(SimTime::from_secs(6), 100);
        assert_eq!(both.to_bits(), (1.0f64 / (1.0 - 0.2)).to_bits());
        // 1 µs past the window the first entry leaves.
        let one = l.record(SimTime::from_secs(6) + SimDuration::from_micros(1), 0);
        assert_eq!(one.to_bits(), (1.0f64 / (1.0 - 0.1)).to_bits());
    }

    #[test]
    fn budget_cutting_packs_in_order() {
        let cmds: Vec<Command> = (0..10).map(|i| Command::new(tx(i).id(), 1, 64)).collect();
        let (packed, overflow, used) = cut_by_budget(
            cmds,
            SimDuration::from_millis(5),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
        );
        assert_eq!(packed.len(), 5);
        assert_eq!(overflow.len(), 5);
        assert_eq!(used, SimDuration::from_millis(5));
        assert_eq!(packed[0].tx, tx(0).id(), "order preserved");
        assert_eq!(overflow[0].tx, tx(5).id());
    }

    #[test]
    fn command_for_carries_ops_and_bytes() {
        let t = tx(9);
        let c = command_for(&t);
        assert_eq!(c.tx, t.id());
        assert_eq!(c.ops, t.op_count() as u32);
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = StageProbe::new();
        assert!(!p.is_enabled());
        p.span(
            Stage::Consensus,
            tx(1).id(),
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        p.utilization(Stage::Ingress, 0.8);
        p.shed(Stage::MempoolWait, 3);
        let r = p.report();
        for s in &r.stages {
            assert_eq!(s.count, 0);
            assert_eq!(s.sheds, 0);
            assert_eq!(s.utilization_max, 0.0);
        }
        assert!(p.trace().is_empty());
    }

    #[test]
    fn probe_accumulates_spans_utilization_and_sheds() {
        let mut p = StageProbe::new();
        p.enable();
        p.span(
            Stage::Consensus,
            tx(1).id(),
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        );
        p.span(
            Stage::Consensus,
            tx(2).id(),
            SimTime::from_secs(2),
            SimTime::from_secs(6),
        );
        p.utilization(Stage::Consensus, 0.25);
        p.utilization(Stage::Consensus, 0.75);
        p.utilization(Stage::Consensus, 7.0); // clamps to 1.0
        p.shed(Stage::Consensus, 2);
        let s = p.report();
        let c = s.get(Stage::Consensus);
        assert_eq!(c.count, 2);
        assert!((c.sum_secs - 6.0).abs() < 1e-9);
        assert!((c.mean_secs - 3.0).abs() < 1e-9);
        assert!((c.max_secs - 4.0).abs() < 1e-9);
        assert!((c.utilization_mean - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.utilization_max, 1.0);
        assert_eq!(c.sheds, 2);
        // Residence share: Consensus holds all recorded residence.
        assert!((s.residence_share(Stage::Consensus) - 1.0).abs() < 1e-9);
        assert_eq!(s.residence_share(Stage::Ingress), 0.0);
    }

    #[test]
    fn probe_quantiles_sit_within_one_bucket_of_exact() {
        let mut a = StageAccum::new();
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 * 0.005).collect();
        for &s in &samples {
            a.record(s);
        }
        for (q, exact) in [(0.5, 2.4975), (0.95, 4.7475), (0.99, 4.9475)] {
            let est = a.quantile(q);
            assert!(
                (est - exact).abs() <= STAGE_BUCKET_SECS,
                "q{q}: {est} vs exact {exact}"
            );
        }
        // Overflow clamps into the last bucket instead of panicking.
        a.record(1e9);
        assert!(a.quantile(1.0) <= STAGE_BUCKETS as f64 * STAGE_BUCKET_SECS);
    }

    #[test]
    fn depth_tracker_integrates_overlapping_spans() {
        let mut d = DepthTracker::default();
        // Two spans overlapping on [1, 2]: depth 1 on [0,1), 2 on [1,2),
        // 1 on [2,3). Mean over the 3 s window = (1+2+1)/3.
        d.note(0, 2_000_000);
        d.note(1_000_000, 3_000_000);
        let (mean, max, window) = d.finish();
        assert!((mean - 4.0 / 3.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(max, 2);
        assert!((window - 3.0).abs() < 1e-9);
    }

    #[test]
    fn depth_tracker_is_exact_for_out_of_order_enters() {
        let mut d = DepthTracker::default();
        d.note(5_000_000, 6_000_000);
        // Recorded second but entered first: the occupancy integral and
        // the window are order-independent (1 s + 6 s of residence over
        // the 6 s window [1, 7]); only the max-depth walk clamps.
        d.note(1_000_000, 7_000_000);
        let (mean, max, window) = d.finish();
        assert!((mean - 7.0 / 6.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(max, 2, "clamped span overlaps the first on [5, 6]");
        assert!((window - 6.0).abs() < 1e-9, "1 s → 7 s observed");
    }

    #[test]
    fn probe_trace_keeps_raw_spans() {
        let mut p = StageProbe::new();
        p.enable_trace();
        p.span(
            Stage::Execution,
            tx(7).id(),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert_eq!(
            p.trace(),
            &[SpanRecord {
                tx: tx(7).id(),
                stage: Stage::Execution,
                enter: SimTime::from_secs(1),
                exit: SimTime::from_secs(2),
            }]
        );
    }

    #[test]
    fn runtime_books_generic_sheds_against_queue_stage() {
        let mut r = rt();
        r.probe_mut().enable();
        r.probe_mut().set_queue_stage(Stage::Commit);
        r.set_pool_limits(PoolLimits::bounded(1).with_ttl(SimDuration::from_secs(5)));
        assert!(r.admit(SimTime::ZERO, &tx(1), false).is_accepted());
        // Capacity backpressure sheds at the queue stage …
        assert!(r.admit(SimTime::ZERO, &tx(2), false).is_busy());
        // … as do model-level rejects through admit …
        assert!(!r.admit(SimTime::ZERO, &tx(3), true).is_accepted());
        // … and TTL evictions.
        r.evict_expired(SimTime::from_secs(60));
        let report = r.stage_report();
        assert_eq!(report.get(Stage::Commit).sheds, 3);
        assert_eq!(report.get(Stage::MempoolWait).sheds, 0);
    }
}
