//! Benchmark execution: drives a modelled blockchain with the COCONUT
//! client schedule and computes the paper's metrics.

use coconut_types::{PayloadKind, SeedDeriver};

use crate::chaos::{ChaosRun, RetryPolicy};
use crate::client::Windows;
use crate::params::{build_system, BlockParam, SystemKind, SystemSetup};
use crate::scenario::{ScenarioBuilder, Timeline};
use crate::stats::Stats;
use crate::workload::BenchmarkUnit;

/// Everything needed to run one benchmark (§4.1's combination of a client
/// workload and an interface execution layer, plus parameters).
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// The system under test.
    pub system: SystemKind,
    /// The benchmark (IEL function) to drive.
    pub benchmark: PayloadKind,
    /// Deployment settings (nodes, network, block parameter).
    pub setup: SystemSetup,
    /// Aggregate payload rate across all four clients (the rate limiter).
    pub rate: f64,
    /// Operations per transaction (BitShares) / batch (Sawtooth).
    pub ops_per_tx: u32,
    /// Send/listen windows.
    pub windows: Windows,
    /// Repetitions to average over (the paper uses 3).
    pub repetitions: u32,
}

impl BenchmarkSpec {
    /// A spec with the paper's defaults: baseline deployment, 200 payloads
    /// per second, one operation per transaction, full windows, three
    /// repetitions.
    pub fn new(system: SystemKind, benchmark: PayloadKind) -> Self {
        BenchmarkSpec {
            system,
            benchmark,
            setup: SystemSetup::default(),
            rate: 200.0,
            ops_per_tx: 1,
            windows: Windows::paper(),
            repetitions: 3,
        }
    }

    /// Sets the aggregate rate limiter.
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets operations per transaction/batch.
    pub fn ops_per_tx(mut self, ops: u32) -> Self {
        self.ops_per_tx = ops;
        self
    }

    /// Sets the deployment.
    pub fn setup(mut self, setup: SystemSetup) -> Self {
        self.setup = setup;
        self
    }

    /// Sets the block parameter on the current setup.
    pub fn block_param(mut self, param: BlockParam) -> Self {
        self.setup.block_param = param;
        self
    }

    /// Sets both windows.
    pub fn windows(mut self, windows: Windows) -> Self {
        self.windows = windows;
        self
    }

    /// Sets the repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn repetitions(mut self, r: u32) -> Self {
        assert!(r > 0, "need at least one repetition");
        self.repetitions = r;
        self
    }
}

/// The raw measurements of one repetition: the paper's metrics as the
/// client loop observed them ([`RepMeasurement::of`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepMeasurement {
    /// Mean transactions per second (operations for BitShares; formula 2).
    pub mtps: f64,
    /// Mean finalization latency in seconds (formula 1).
    pub mfls: f64,
    /// Benchmark duration `t_lrtx − t_fstx` in seconds (formula 3).
    pub duration: f64,
    /// Median finalization latency in seconds (extension beyond the paper,
    /// which reports only means).
    pub p50: f64,
    /// 95th-percentile finalization latency in seconds.
    pub p95: f64,
    /// 99th-percentile finalization latency in seconds.
    pub p99: f64,
    /// Confirmed payloads received by the clients in the listen window.
    pub received: f64,
    /// Payloads sent.
    pub expected: f64,
    /// Whether the system still served confirmations at the end.
    pub live: bool,
}

impl RepMeasurement {
    /// Projects the client loop's `run` of a paper schedule, whose every
    /// transaction carries `ops_per_tx` payloads, onto the paper's metrics.
    /// Received payloads and MTPS come from [`ChaosRun::confirmed_ops`],
    /// which also counts a confirmation landing exactly on the listen end.
    pub fn of(run: &ChaosRun, ops_per_tx: u32) -> Self {
        let received = run.confirmed_ops as f64;
        RepMeasurement {
            mtps: if run.duration > 0.0 {
                received / run.duration
            } else {
                0.0
            },
            mfls: run.mfls,
            duration: run.duration,
            p50: run.p50,
            p95: run.p95,
            p99: run.p99,
            received,
            expected: run.accounting.scheduled as f64 * f64::from(ops_per_tx),
            live: run.live,
        }
    }
}

/// Aggregated results of a benchmark across repetitions — one row of the
/// paper's tables.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// System label ("Fabric", "Corda OS", ...).
    pub system: String,
    /// Benchmark label ("KeyValue-Set", ...).
    pub benchmark: String,
    /// Aggregate rate limiter.
    pub rate: f64,
    /// Block parameter description ("MM=100", "-").
    pub block_param: String,
    /// Operations per transaction.
    pub ops_per_tx: u32,
    /// Throughput statistics.
    pub mtps: Stats,
    /// Finalization-latency statistics (seconds).
    pub mfls: Stats,
    /// Median-latency statistics (seconds; extension).
    pub p50: Stats,
    /// Tail-latency statistics: 95th percentile (seconds; extension).
    pub p95: Stats,
    /// Tail-latency statistics: 99th percentile (seconds; extension).
    pub p99: Stats,
    /// Duration statistics (seconds).
    pub duration: Stats,
    /// Received-payload statistics.
    pub received: Stats,
    /// Expected payloads per repetition.
    pub expected: f64,
    /// `false` if any repetition ended with the system stalled.
    pub live: bool,
}

impl BenchmarkResult {
    fn from_reps(spec: &BenchmarkSpec, reps: &[RepMeasurement]) -> Self {
        let collect = |f: fn(&RepMeasurement) -> f64| -> Stats {
            Stats::from_samples(&reps.iter().map(f).collect::<Vec<_>>())
        };
        BenchmarkResult {
            system: spec.system.label().to_string(),
            benchmark: spec.benchmark.label().to_string(),
            rate: spec.rate,
            block_param: spec.setup.block_param.to_string(),
            ops_per_tx: spec.ops_per_tx,
            mtps: collect(|r| r.mtps),
            mfls: collect(|r| r.mfls),
            p50: collect(|r| r.p50),
            p95: collect(|r| r.p95),
            p99: collect(|r| r.p99),
            duration: collect(|r| r.duration),
            received: collect(|r| r.received),
            expected: reps.first().map_or(0.0, |r| r.expected),
            live: reps.iter().all(|r| r.live),
        }
    }

    /// Fraction of sent payloads confirmed (`received / expected`).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0.0 {
            0.0
        } else {
            self.received.mean / self.expected
        }
    }
}

/// Results of a whole benchmark unit (§4.1), in benchmark order.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// Per-benchmark results in unit order.
    pub benchmarks: Vec<BenchmarkResult>,
}

/// Runs `spec` on a freshly provisioned system per repetition and
/// aggregates the statistics (the paper's per-table rows).
pub fn run_benchmark(spec: &BenchmarkSpec, seed: u64) -> BenchmarkResult {
    let timeline = paper_client(spec.benchmark, spec.rate, spec.ops_per_tx, spec.windows).build();
    let reps = run_reps(spec, &[timeline], seed).remove(0);
    BenchmarkResult::from_reps(spec, &reps)
}

/// Runs a whole benchmark unit (§4.1): the unit's benchmarks execute
/// back-to-back on the *same* deployed system; only the clients are
/// re-provisioned in between. The system is re-provisioned per repetition.
/// Benchmark `i` runs as unit phase `i` ([`ScenarioBuilder::unit_phase`]):
/// shifted to start `i × term` in, with ids tagged so benchmarks sharing
/// the system never collide, listening only to itself.
pub fn run_unit(
    system: SystemKind,
    unit: BenchmarkUnit,
    template: &BenchmarkSpec,
    seed: u64,
) -> UnitResult {
    let spec = BenchmarkSpec {
        system,
        ..template.clone()
    };
    let timelines: Vec<Timeline> = unit
        .benchmarks()
        .enumerate()
        .map(|(i, b)| paper_client(b, spec.rate, spec.ops_per_tx, spec.windows).unit_phase(i))
        .map(ScenarioBuilder::build)
        .collect();
    let benchmarks = unit
        .benchmarks()
        .zip(run_reps(&spec, &timelines, seed))
        .map(|(benchmark, reps)| {
            let spec = BenchmarkSpec {
                benchmark,
                ..spec.clone()
            };
            BenchmarkResult::from_reps(&spec, &reps)
        })
        .collect();
    UnitResult { benchmarks }
}

/// The paper's fire-and-forget client (§4.4) sending `benchmark` at
/// `rate` payloads per second over `windows`: no faults, no re-sends, no
/// protection.
pub(crate) fn paper_client(
    benchmark: PayloadKind,
    rate: f64,
    ops_per_tx: u32,
    windows: Windows,
) -> ScenarioBuilder {
    ScenarioBuilder::new(benchmark, rate, windows)
        .ops_per_tx(ops_per_tx)
        .policy(RetryPolicy::disabled())
}

/// Runs `timelines` back to back on one deployment of `spec`'s system per
/// repetition, returning `reps[timeline][repetition]`. Repetition `r`
/// deploys with seed stream `("system", 0)` of
/// `SeedDeriver::new(seed).for_repetition(r)` and runs every timeline with
/// that deriver's root, so timeline `i` (unit phase `i`) draws its
/// schedule from the repetition's `("schedule", i)`.
fn run_reps(spec: &BenchmarkSpec, timelines: &[Timeline], seed: u64) -> Vec<Vec<RepMeasurement>> {
    let mut reps = vec![Vec::with_capacity(spec.repetitions as usize); timelines.len()];
    for rep in 0..spec.repetitions {
        let r = SeedDeriver::new(seed).for_repetition(rep);
        let mut sys = build_system(spec.system, &spec.setup, r.seed("system", 0));
        for (timeline, out) in timelines.iter().zip(&mut reps) {
            let run = timeline.run_on(sys.as_mut(), r.root()).run;
            out.push(RepMeasurement::of(&run, spec.ops_per_tx));
        }
    }
    reps
}

/// Runs many independent benchmarks on a thread pool of `jobs` workers
/// (`None` → one per CPU, capped at the number of specs). Results come
/// back in input order and are byte-identical for every worker count:
/// each spec's seed is derived from its *content* via
/// [`crate::exec::cell_seed`], so neither thread scheduling nor the
/// spec's position in the list can perturb its random streams.
pub fn run_many(specs: &[BenchmarkSpec], seed: u64, jobs: Option<usize>) -> Vec<BenchmarkResult> {
    crate::exec::run_grid(specs, jobs, |_, spec| {
        run_benchmark(spec, crate::exec::cell_seed(seed, "run-many", spec))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_types::SimDuration;

    fn quick(system: SystemKind, benchmark: PayloadKind) -> BenchmarkSpec {
        BenchmarkSpec::new(system, benchmark)
            .rate(100.0)
            .windows(Windows::scaled(0.01)) // 3 s send window
            .repetitions(2)
    }

    /// At tiny window scales Fabric's 2 s batch timeout would straddle the
    /// listen window, so tests cut blocks by size instead.
    fn quick_fabric(benchmark: PayloadKind) -> BenchmarkSpec {
        quick(SystemKind::Fabric, benchmark).block_param(BlockParam::MaxMessageCount(25))
    }

    #[test]
    fn fabric_do_nothing_confirms_everything() {
        let r = run_benchmark(&quick_fabric(PayloadKind::DoNothing), 1);
        assert!(r.delivery_ratio() > 0.95, "got {}", r.delivery_ratio());
        assert!(r.mtps.mean > 50.0, "mtps {}", r.mtps.mean);
        assert!(r.mfls.mean < 3.0, "mfls {}", r.mfls.mean);
        assert!(r.live);
    }

    #[test]
    fn metrics_are_client_side() {
        // MFLS must include queueing before consensus, not just block time:
        // overload Quorum lightly and check latency exceeds the block period.
        let spec = quick(SystemKind::Quorum, PayloadKind::DoNothing).rate(400.0);
        let r = run_benchmark(&spec, 2);
        assert!(r.mfls.mean >= 0.5, "client-side latency {}", r.mfls.mean);
    }

    #[test]
    fn repetitions_feed_statistics() {
        let r = run_benchmark(&quick_fabric(PayloadKind::KeyValueSet), 3);
        assert_eq!(r.mtps.n, 2);
        // Different repetition seeds → some (tiny) spread is typical, but
        // never negative values:
        assert!(r.mtps.sd >= 0.0);
    }

    #[test]
    fn unit_shares_the_system_instance() {
        // KeyValue unit on Fabric: the Get benchmark must find the keys the
        // Set benchmark wrote — only possible on the same instance.
        let template = quick_fabric(PayloadKind::KeyValueSet);
        let unit = run_unit(SystemKind::Fabric, BenchmarkUnit::KeyValue, &template, 4);
        assert_eq!(unit.benchmarks.len(), 2);
        let set = &unit.benchmarks[0];
        let get = &unit.benchmarks[1];
        assert!(set.delivery_ratio() > 0.9, "set {}", set.delivery_ratio());
        assert!(get.delivery_ratio() > 0.9, "get {}", get.delivery_ratio());
        assert_eq!(get.benchmark, "KeyValue-Get");
    }

    #[test]
    fn banking_unit_runs_all_three() {
        let template = quick(SystemKind::Quorum, PayloadKind::CreateAccount).rate(50.0);
        let unit = run_unit(SystemKind::Quorum, BenchmarkUnit::BankingApp, &template, 5);
        assert_eq!(unit.benchmarks.len(), 3);
        assert!(unit.benchmarks[0].delivery_ratio() > 0.9);
        // Payments read accounts created in phase 1:
        assert!(unit.benchmarks[1].delivery_ratio() > 0.5);
    }

    #[test]
    fn failed_benchmark_reports_zeroes() {
        // Quorum BP=2s under heavy load: the liveness anomaly → 0 received.
        let spec = quick(SystemKind::Quorum, PayloadKind::DoNothing)
            .rate(1600.0)
            .block_param(BlockParam::BlockPeriod(SimDuration::from_secs(2)))
            .windows(Windows::scaled(0.05));
        let r = run_benchmark(&spec, 6);
        assert_eq!(r.received.mean, 0.0);
        assert_eq!(r.mtps.mean, 0.0);
        assert_eq!(r.duration.mean, 0.0);
        assert!(!r.live);
    }

    #[test]
    fn bitshares_counts_operations() {
        let spec = quick(SystemKind::Bitshares, PayloadKind::DoNothing)
            .rate(800.0)
            .ops_per_tx(100)
            .windows(Windows::scaled(0.02));
        let r = run_benchmark(&spec, 7);
        // 800 payloads/s → MTPS must be near 800, far beyond the tx rate 8/s.
        assert!(r.mtps.mean > 400.0, "ops must count: {}", r.mtps.mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = quick(SystemKind::Sawtooth, PayloadKind::DoNothing);
        let a = run_benchmark(&spec, 8);
        let b = run_benchmark(&spec, 8);
        assert_eq!(a.mtps.mean, b.mtps.mean);
        assert_eq!(a.received.mean, b.received.mean);
    }

    #[test]
    fn run_many_preserves_order() {
        let specs = vec![
            quick(SystemKind::Fabric, PayloadKind::DoNothing).repetitions(1),
            quick(SystemKind::Quorum, PayloadKind::DoNothing).repetitions(1),
        ];
        let results = run_many(&specs, 9, None);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].system, "Fabric");
        assert_eq!(results[1].system, "Quorum");
    }

    #[test]
    fn run_many_seeds_by_content_not_position() {
        // The same spec must measure identically wherever it sits in the
        // list — the old per-index seed salting coupled results to
        // enumeration order.
        let a = quick(SystemKind::Fabric, PayloadKind::DoNothing).repetitions(1);
        let b = quick(SystemKind::Quorum, PayloadKind::DoNothing).repetitions(1);
        let fwd = run_many(&[a.clone(), b.clone()], 9, Some(1));
        let rev = run_many(&[b, a], 9, Some(1));
        assert_eq!(fwd[0].mtps.mean, rev[1].mtps.mean);
        assert_eq!(fwd[1].mtps.mean, rev[0].mtps.mean);
        assert_eq!(fwd[0].received.mean, rev[1].received.mean);
    }
}
