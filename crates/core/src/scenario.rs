//! The scenario DSL: one deterministic timeline engine under every
//! campaign.
//!
//! A [`ScenarioBuilder`] composes an experiment as a *timeline* — load
//! phases (flash crowds, ramps, diurnal cycles) layered over a constant
//! base rate, fault events reusing the simnet [`FaultPlan`] vocabulary
//! (crash/heal windows, partitions, loss bursts, Byzantine windows,
//! membership join/leave), and checkpointed [`Check`] assertions evaluated
//! on the deterministic clock — and compiles it into an immutable [`Timeline`]. The runner executes a
//! timeline against any system with a content-addressed per-cell seed,
//! exactly like the classic experiment grids, so filtering a campaign or
//! changing the worker count never changes a remaining cell's bytes.
//!
//! All four classic campaigns ([`crate::experiments::chaos()`],
//! the sweep, [`crate::experiments::overload()`],
//! [`crate::experiments::churn()`]) are expressed on this engine, and their
//! golden-pinned reports are reproduced byte-for-byte: an overlay-free
//! timeline builds the classic client's schedule (seed stream
//! `("schedule", 0)`), and a single flash-crowd overlay reproduces the
//! overload campaign's pulse schedule (same seed streams, same id tagging,
//! same merge order).
//!
//! # Same-tick ordering
//!
//! Three contracts pin what happens when events share a virtual timestamp,
//! so scenario runs are deterministic by construction and not by accident:
//!
//! 1. **Faults before client actions** — the chaos loop drains every fault
//!    due at time `t` strictly before any submission or timeout at `t`
//!    (see [`run_chaos_with_schedule`]).
//! 2. **Faults among themselves** — the
//!    [`FaultScheduler`](coconut_simnet::FaultScheduler) stable-sorts by
//!    time only; ties replay in the order the builder added them. A
//!    timeline that crashes and partitions at one instant applies the
//!    crash first iff it was declared first.
//! 3. **Client sends among themselves** — the merged schedule is sorted by
//!    `(at, tx.id())`, and overlay ids carry a per-phase tag bit
//!    ([`overlay_tag`]) so base and overlay ids can never collide.

use coconut_chains::{BlockchainSystem, Stage, StageReport, SystemStats};
use coconut_simnet::{FaultEvent, FaultPlan, LatencyModel, RegionMap};
use coconut_types::{
    ClientId, NodeId, PayloadKind, SeedDeriver, SimDuration, SimTime, ThreadId, TxId,
};

use std::sync::Arc;

use crate::chaos::{run_chaos_with_schedule, ChaosRun, ClientProtection, RetryPolicy};
use crate::client::{build_schedule_for, client_tx, ScheduledTx, Windows};
use crate::json::Json;
use crate::params::{build_system, SystemKind, SystemSetup};
use crate::runner::BenchmarkSpec;
use crate::workload::{paper, Workload};

/// The shape of one load phase layered over the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// A flash crowd: constant `(multiplier − 1) ×` base extra load over
    /// the phase (the overload campaign's pulse).
    Flash {
        /// Total offered load during the phase, relative to the base rate.
        multiplier: f64,
    },
    /// A linear ramp: extra load grows from zero at the phase start to
    /// `(to_multiplier − 1) ×` base at the phase end.
    Ramp {
        /// Total offered load at the phase end, relative to the base rate.
        to_multiplier: f64,
    },
    /// A diurnal cycle: extra load follows
    /// `amplitude × base × (1 + sin(2π·t/period)) / 2`, i.e. swings
    /// between zero and `amplitude ×` base extra.
    Diurnal {
        /// Peak extra load relative to the base rate.
        amplitude: f64,
        /// Length of one full cycle.
        period: SimDuration,
    },
}

/// One load phase of a timeline: a [`LoadShape`] active over
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// When the phase starts.
    pub start: SimTime,
    /// When the phase ends.
    pub end: SimTime,
    /// The extra-load shape.
    pub shape: LoadShape,
}

// The bits of a client transaction's sequence number (`TxId::seq`):
//
// | bits  | written by                                                  |
// |-------|-------------------------------------------------------------|
// | 0–39  | the per-thread (or per-overlay) sequence number             |
// | 40–43 | `unit_tag`: unit phase + 1 of a benchmark unit              |
// | 44–47 | `overlay_tag`: load phase + 1 of an overlay                 |
// | 48–55 | the workload thread (`client::build_schedule_for`)          |
// | 56–63 | the re-send attempt byte (`chaos::run_chaos_with_schedule`) |
//
// A tag ORs into bits its schedule leaves zero, so tagging a sorted
// schedule keeps it sorted.

/// The id tag of load-overlay phase `i` (0-based): `i + 1` in bits 44–47
/// (see the layout above), so overlay ids can never collide with the base
/// schedule. Phase 0's tag equals the overload campaign's historical pulse
/// tag.
pub fn overlay_tag(phase: usize) -> u64 {
    ((phase + 1) as u64) << 44
}

/// The id tag of benchmark-unit phase `i` (0-based): `i + 1` in bits
/// 40–43, so the benchmarks of one unit, which share a deployed system,
/// never reuse each other's ids ([`ScenarioBuilder::unit_phase`]).
pub fn unit_tag(phase: usize) -> u64 {
    ((phase + 1) as u64) << 40
}

/// A checkpointed assertion, evaluated on the deterministic clock at the
/// timeline instant it was attached to (see [`Cursor::assert`]). Checks
/// never panic: each evaluates to a [`CheckOutcome`] in the report, so a
/// failed expectation is a pinned, diffable fact rather than a crashed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Goodput floor: mean bucket throughput over `[since, checkpoint)` is
    /// at least `min_mtps`.
    GoodputFloor {
        /// Window start.
        since: SimTime,
        /// Required mean throughput (ops/s).
        min_mtps: f64,
    },
    /// The system has halted: zero committed operations over
    /// `[since, checkpoint)`.
    Halted {
        /// Window start (leave a drain grace after the halting fault:
        /// in-flight blocks may still land for a few seconds).
        since: SimTime,
    },
    /// Delivery floor: the run's final delivery ratio is at least
    /// `min_ratio`.
    DeliveryFloor {
        /// Required confirmed/scheduled ratio.
        min_ratio: f64,
    },
    /// The safety monitor (where the system carries one) reported zero
    /// violations. Vacuously true for CFT systems.
    SafetyClean,
    /// Safety was violated at least `count` times (the beyond-f Byzantine
    /// expectation).
    SafetyViolationsAtLeast {
        /// Required violation count.
        count: u64,
    },
    /// Re-stabilization deadline: throughput sustains ≥ `threshold` × the
    /// pre-fault mean (fault window `[fault_from, fault_until)`) by the
    /// checkpoint.
    RestabilizesBy {
        /// When the disturbance began (the pre-fault window ends here).
        fault_from: SimTime,
        /// When the disturbance ended (recovery is measured from here).
        fault_until: SimTime,
        /// Fraction of the pre-fault mean that must sustain.
        threshold: f64,
    },
    /// The system went through at least `count` configuration epochs
    /// (membership churn completed).
    EpochsAtLeast {
        /// Required epoch count.
        count: u64,
    },
    /// Stage-residence ceiling: the probe-reported share of total
    /// residence time held by `stage` stays below `max_share`. Vacuously
    /// true when the timeline did not arm [`ScenarioBuilder::probes`].
    StageResidenceBelow {
        /// The pipeline stage under the ceiling.
        stage: Stage,
        /// Exclusive upper bound on the stage's residence share.
        max_share: f64,
    },
}

impl Check {
    /// Stable label of the check kind, used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Check::GoodputFloor { .. } => "goodput-floor",
            Check::Halted { .. } => "halted",
            Check::DeliveryFloor { .. } => "delivery-floor",
            Check::SafetyClean => "safety-clean",
            Check::SafetyViolationsAtLeast { .. } => "safety-violations",
            Check::RestabilizesBy { .. } => "restabilizes-by",
            Check::EpochsAtLeast { .. } => "epochs",
            Check::StageResidenceBelow { .. } => "stage-residence",
        }
    }

    /// Evaluates the check at checkpoint `at` against a finished run.
    fn evaluate(
        &self,
        at: SimTime,
        run: &ChaosRun,
        epochs: u64,
        stages: Option<&StageReport>,
    ) -> CheckOutcome {
        let (pass, observed) = match *self {
            Check::GoodputFloor { since, min_mtps } => {
                let got = run.window_mtps(since, at);
                (got >= min_mtps, format!("{got:.1} mtps (min {min_mtps})"))
            }
            Check::Halted { since } => {
                let got = run.window_mtps(since, at);
                (got == 0.0, format!("{got:.1} mtps (want 0)"))
            }
            Check::DeliveryFloor { min_ratio } => {
                let got = run.accounting.delivery_ratio();
                (got >= min_ratio, format!("{got:.3} (min {min_ratio})"))
            }
            Check::SafetyClean => match &run.safety {
                None => (true, "n/a (CFT)".to_string()),
                Some(s) => {
                    let v = s.violations.total();
                    (v == 0, format!("{v} violations"))
                }
            },
            Check::SafetyViolationsAtLeast { count } => {
                let v = run.safety.as_ref().map_or(0, |s| s.violations.total());
                (v >= count, format!("{v} violations (min {count})"))
            }
            Check::RestabilizesBy {
                fault_from,
                fault_until,
                threshold,
            } => match run.recovery_secs(fault_from, fault_until, threshold) {
                Some(r) if fault_until + SimDuration::from_secs_f64(r) <= at => {
                    (true, format!("recovered in {r:.1} s"))
                }
                Some(r) => (false, format!("recovered in {r:.1} s, past deadline")),
                None => (false, "never recovered".to_string()),
            },
            Check::EpochsAtLeast { count } => {
                (epochs >= count, format!("{epochs} epochs (min {count})"))
            }
            Check::StageResidenceBelow { stage, max_share } => match stages {
                None => (true, "n/a (no probes)".to_string()),
                Some(r) => {
                    let got = r.residence_share(stage);
                    (got < max_share, format!("{got:.3} share (max {max_share})"))
                }
            },
        };
        CheckOutcome {
            at,
            check: self.label(),
            pass,
            observed,
        }
    }
}

/// The verdict of one checkpointed assertion after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The checkpoint's virtual time.
    pub at: SimTime,
    /// The check kind's label.
    pub check: &'static str,
    /// Whether the expectation held.
    pub pass: bool,
    /// What was actually observed, human-readable.
    pub observed: String,
}

impl CheckOutcome {
    /// The outcome as a JSON object (field order pinned by goldens).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("at_secs".into(), Json::Num(self.at.as_secs_f64())),
            ("check".into(), Json::Str(self.check.into())),
            ("pass".into(), Json::Bool(self.pass)),
            ("observed".into(), Json::Str(self.observed.clone())),
        ])
    }
}

/// Fluent builder of a scenario timeline. Configure the base workload
/// (payload, rate, windows, deployment, client policy), then move a time
/// cursor with [`ScenarioBuilder::at`] and attach load phases, fault
/// events, and assertions; [`Cursor::build`] (or
/// [`ScenarioBuilder::build`] for an event-free baseline) compiles the
/// immutable [`Timeline`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    payload: PayloadKind,
    workload: Arc<dyn Workload + Send + Sync>,
    rate: f64,
    ops_per_tx: u32,
    windows: Windows,
    setup: SystemSetup,
    policy: RetryPolicy,
    protection: ClientProtection,
    plan: FaultPlan,
    phases: Vec<LoadPhase>,
    checks: Vec<(SimTime, Check)>,
    probes: bool,
    unit_phase: Option<usize>,
}

impl ScenarioBuilder {
    /// A scenario sending `payload` at the aggregate `rate` over `windows`,
    /// with the default deployment, the chaos-suite retry policy, and no
    /// client protection.
    pub fn new(payload: PayloadKind, rate: f64, windows: Windows) -> Self {
        ScenarioBuilder {
            payload,
            workload: Arc::new(paper(payload)),
            rate,
            ops_per_tx: 1,
            windows,
            setup: SystemSetup::default(),
            policy: RetryPolicy::chaos_default(),
            protection: ClientProtection::disabled(),
            plan: FaultPlan::new(),
            phases: Vec::new(),
            checks: Vec::new(),
            probes: false,
            unit_phase: None,
        }
    }

    /// Replaces the transaction generator with an arbitrary [`Workload`]
    /// instance (e.g. [`crate::workload::Smallbank`] or
    /// [`crate::workload::Ycsb`]). The builder's `payload` kind is kept
    /// for spec labelling; the schedule's payload stream comes entirely
    /// from `workload`. The default is the paper workload of the `payload`
    /// kind passed to [`ScenarioBuilder::new`], `paper(payload)`.
    pub fn workload(mut self, workload: impl Workload + Send + Sync + 'static) -> Self {
        self.workload = Arc::new(workload);
        self
    }

    /// [`ScenarioBuilder::workload`] for an already-boxed instance, e.g.
    /// one picked by name at runtime.
    pub fn workload_boxed(mut self, workload: Box<dyn Workload + Send + Sync>) -> Self {
        self.workload = Arc::from(workload);
        self
    }

    /// Sets the deployment (nodes, admission pools, standby count).
    pub fn setup(mut self, setup: SystemSetup) -> Self {
        self.setup = setup;
        self
    }

    /// Sets the client retry policy.
    pub fn policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms client-side overload protection.
    pub fn protection(mut self, protection: ClientProtection) -> Self {
        self.protection = protection;
        self
    }

    /// Sets operations per transaction/batch.
    pub fn ops_per_tx(mut self, ops: u32) -> Self {
        self.ops_per_tx = ops;
        self
    }

    /// Arms per-stage pipeline probes
    /// ([`coconut_chains::StageProbe`]): the run's [`ScenarioRun`] then
    /// carries a [`StageReport`] of per-stage residence times, queue
    /// depths, utilization, and sheds. Probes are passive — they never
    /// sample randomness or move the clock — so the run's accounting is
    /// byte-identical with probes on or off.
    pub fn probes(mut self, on: bool) -> Self {
        self.probes = on;
        self
    }

    /// Makes the timeline phase `i` (0-based) of a benchmark unit (§4.1),
    /// whose benchmarks run back to back on one deployed system. Phase `i`
    /// takes the base schedule from seed stream `("schedule", i)`, starts
    /// `i × term` in, where `term = listen + 3 × (listen − send)` is the
    /// paper's client lifecycle (420 s for 300 s of sending), ORs
    /// [`unit_tag`]`(i)` into its ids, and listens until its shifted listen
    /// end ([`Timeline::windows`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit the unit tag's four bits (`i ≥ 15`).
    pub fn unit_phase(mut self, i: usize) -> Self {
        assert!(i < 15, "unit phase {i} overflows the 4-bit unit tag");
        self.unit_phase = Some(i);
        self
    }

    /// Moves the time cursor to `t`; subsequent cursor calls anchor there.
    pub fn at(self, t: SimTime) -> Cursor {
        Cursor { b: self, t }
    }

    /// Compiles an event-free timeline (the empty scenario: base load only,
    /// no faults, no checks — a legal baseline cell).
    pub fn build(self) -> Timeline {
        Timeline {
            payload: self.payload,
            workload: self.workload,
            rate: self.rate,
            ops_per_tx: self.ops_per_tx,
            windows: self.windows,
            setup: self.setup,
            policy: self.policy,
            protection: self.protection,
            plan: self.plan,
            phases: self.phases,
            checks: self.checks,
            probes: self.probes,
            unit_phase: self.unit_phase,
        }
    }
}

/// A time cursor over a [`ScenarioBuilder`]: every event method anchors at
/// the cursor's instant and returns the cursor for chaining.
#[derive(Debug, Clone)]
pub struct Cursor {
    b: ScenarioBuilder,
    t: SimTime,
}

impl Cursor {
    /// Moves the cursor to `t`.
    pub fn at(mut self, t: SimTime) -> Cursor {
        self.t = t;
        self
    }

    /// Crashes every node in `nodes` at the cursor (no scheduled heal).
    pub fn crash(mut self, nodes: &[NodeId]) -> Cursor {
        for &n in nodes {
            self.b.plan = self.b.plan.at(self.t, FaultEvent::CrashNode(n));
        }
        self
    }

    /// Restarts every node in `nodes` at the cursor.
    pub fn restart(mut self, nodes: &[NodeId]) -> Cursor {
        for &n in nodes {
            self.b.plan = self.b.plan.at(self.t, FaultEvent::RestartNode(n));
        }
        self
    }

    /// The classic crash window: crash `nodes` at the cursor, restart them
    /// all at `heal_at` (all crashes precede all restarts, matching
    /// [`FaultPlan::crash_window`]).
    pub fn crash_until(mut self, nodes: &[NodeId], heal_at: SimTime) -> Cursor {
        self.b.plan = self.b.plan.crash_window(nodes, self.t, heal_at);
        self
    }

    /// A loss window at drop probability `p` from the cursor until `until`.
    pub fn loss(mut self, p: f64, until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.loss_window(p, self.t, until);
        self
    }

    /// A raw loss burst of the given `window` length starting at the
    /// cursor (the classic loss-burst arm's event form).
    pub fn loss_burst(mut self, p: f64, window: SimDuration) -> Cursor {
        self.b.plan = self.b.plan.at(self.t, FaultEvent::LossBurst { p, window });
        self
    }

    /// A Byzantine window: `nodes` equivocate and double-vote from the
    /// cursor until `until` (event order per [`FaultPlan::byzantine_window`]).
    pub fn byzantine(mut self, nodes: &[NodeId], until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.byzantine_window(nodes, self.t, until);
        self
    }

    /// A partition window: isolate `nodes` from the cursor until `until`.
    pub fn partition(mut self, nodes: &[NodeId], until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.partition_window(nodes, self.t, until);
        self
    }

    /// A latency-spike window: from the cursor until `until`, inter-server
    /// delays follow `model` instead of the configured one.
    ///
    /// # Panics
    ///
    /// Panics if `until` is not after the cursor.
    pub fn latency_spike(mut self, model: LatencyModel, until: SimTime) -> Cursor {
        assert!(
            until > self.t,
            "the latency-spike window must have positive length"
        );
        self.b.plan = self.b.plan.at(
            self.t,
            FaultEvent::LatencySpike {
                model,
                window: until - self.t,
            },
        );
        self
    }

    /// A straggler window: from the cursor until `until`, `node`'s timers
    /// and messages are stretched by `factor` — the limping-but-alive gray
    /// failure (panics per [`FaultPlan::slow_window`]).
    pub fn slow_node(mut self, node: NodeId, factor: f64, until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.slow_window(node, factor, self.t, until);
        self
    }

    /// A flaky-link window: from the cursor until `until`, each message on
    /// `a ↔ b` drops independently with probability `p` (panics per
    /// [`FaultPlan::flaky_window`]).
    pub fn flaky_link(mut self, a: NodeId, b: NodeId, p: f64, until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.flaky_window(a, b, p, self.t, until);
        self
    }

    /// A half-open-link window: from the cursor until `until`, every
    /// `from → to` message is dropped while replies keep flowing; the heal
    /// is global (panics per [`FaultPlan::asym_partition_window`]).
    pub fn asym_partition(mut self, from: &[NodeId], to: &[NodeId], until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.asym_partition_window(from, to, self.t, until);
        self
    }

    /// A regioned-WAN window: from the cursor until `until`, the
    /// [`RegionMap`]'s extra cross-region latency applies on top of the
    /// configured latency models (panics per [`FaultPlan::region_window`]).
    pub fn region_latency(mut self, map: RegionMap, until: SimTime) -> Cursor {
        self.b.plan = self.b.plan.region_window(map, self.t, until);
        self
    }

    /// A membership join of `node` at the cursor.
    pub fn join(mut self, node: NodeId) -> Cursor {
        self.b.plan = self.b.plan.join_at(node, self.t);
        self
    }

    /// A membership leave of `node` at the cursor.
    pub fn leave(mut self, node: NodeId) -> Cursor {
        self.b.plan = self.b.plan.leave_at(node, self.t);
        self
    }

    /// A flash crowd from the cursor until `until`: total offered load is
    /// `multiplier ×` the base rate during the phase.
    ///
    /// # Panics
    ///
    /// Panics if `until` is not after the cursor or `multiplier <= 1`.
    pub fn flash_crowd(self, multiplier: f64, until: SimTime) -> Cursor {
        assert!(multiplier > 1.0, "a flash crowd must add load");
        self.phase(until, LoadShape::Flash { multiplier })
    }

    /// A linear ramp from the cursor until `until`: offered load grows from
    /// the base rate to `to_multiplier ×` it.
    ///
    /// # Panics
    ///
    /// Panics if `until` is not after the cursor or `to_multiplier <= 1`.
    pub fn ramp_load(self, to_multiplier: f64, until: SimTime) -> Cursor {
        assert!(to_multiplier > 1.0, "a ramp must add load");
        self.phase(until, LoadShape::Ramp { to_multiplier })
    }

    /// A diurnal cycle from the cursor until `until`: extra load swings
    /// sinusoidally between zero and `amplitude ×` the base rate with the
    /// given `period`.
    ///
    /// # Panics
    ///
    /// Panics if `until` is not after the cursor, `amplitude` is not
    /// positive, or `period` is zero.
    pub fn diurnal(self, amplitude: f64, period: SimDuration, until: SimTime) -> Cursor {
        assert!(amplitude > 0.0, "diurnal amplitude must be positive");
        assert!(
            period > SimDuration::ZERO,
            "diurnal period must be positive"
        );
        self.phase(until, LoadShape::Diurnal { amplitude, period })
    }

    fn phase(mut self, until: SimTime, shape: LoadShape) -> Cursor {
        assert!(until > self.t, "a load phase must have positive length");
        self.b.phases.push(LoadPhase {
            start: self.t,
            end: until,
            shape,
        });
        self
    }

    /// Attaches `check`, evaluated at the cursor's instant on the
    /// deterministic clock once the run finishes.
    pub fn assert(mut self, check: Check) -> Cursor {
        self.b.checks.push((self.t, check));
        self
    }

    /// Compiles the timeline.
    pub fn build(self) -> Timeline {
        self.b.build()
    }
}

/// A compiled scenario: the immutable timeline the runner executes. Built
/// by [`ScenarioBuilder`]; runs are pure functions of `(timeline, system,
/// seed)`.
#[derive(Debug, Clone)]
pub struct Timeline {
    payload: PayloadKind,
    workload: Arc<dyn Workload + Send + Sync>,
    rate: f64,
    ops_per_tx: u32,
    windows: Windows,
    setup: SystemSetup,
    policy: RetryPolicy,
    protection: ClientProtection,
    plan: FaultPlan,
    phases: Vec<LoadPhase>,
    checks: Vec<(SimTime, Check)>,
    probes: bool,
    unit_phase: Option<usize>,
}

/// The outcome of executing one [`Timeline`] against one system.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The client-side run (accounting, buckets, latency, safety).
    pub run: ChaosRun,
    /// The system-side counters at the end of the run.
    pub stats: SystemStats,
    /// Configuration epochs the system ended on.
    pub epochs: u64,
    /// One verdict per checkpointed assertion, in declaration order.
    pub checks: Vec<CheckOutcome>,
    /// Per-stage pipeline telemetry, present iff the timeline armed
    /// [`ScenarioBuilder::probes`].
    pub stage_report: Option<StageReport>,
    /// The workload's post-run invariant ([`Workload::verify`]) over the
    /// system's final ledger, or `None` when the system exposes no ledger.
    pub verified: Option<Result<(), String>>,
}

impl ScenarioRun {
    /// `true` when every checkpointed assertion held.
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

impl Timeline {
    /// The base offered load (tx/s across all clients).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The send/listen windows the client loop runs over: a unit phase's
    /// are shifted to the phase's start ([`ScenarioBuilder::unit_phase`]).
    pub fn windows(&self) -> Windows {
        let start = self.unit_start();
        Windows {
            send: start + self.windows.send,
            listen: start + self.windows.listen,
        }
    }

    /// Where the unit phase starts: `i × (listen + 3 × (listen − send))`,
    /// or zero for a timeline that is not a unit phase.
    fn unit_start(&self) -> SimDuration {
        let w = self.windows;
        let term = w.listen + (w.listen - w.send) * 3;
        term * self.unit_phase.unwrap_or(0) as u64
    }

    /// The compiled fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The load phases, in declaration order.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// The checkpointed assertions, in declaration order.
    pub fn checks(&self) -> &[(SimTime, Check)] {
        &self.checks
    }

    /// The transaction generator driving the schedule — use it to run the
    /// workload's [`Workload::verify`] invariant over a system's final
    /// [`coconut_iel::LedgerState`] after [`Timeline::run`].
    pub fn workload(&self) -> &(dyn Workload + Send + Sync) {
        self.workload.as_ref()
    }

    /// Builds the full submission schedule: the base schedule (seed stream
    /// `("schedule", 0)` — identical to the classic client's) merged with
    /// one overlay per load phase (seed stream `("pulse", i)`, ids tagged
    /// with [`overlay_tag`]`(i)`), sorted by `(at, tx.id())`. With no
    /// phases this is the classic client's schedule; with a single flash
    /// phase it is byte-identical to the overload campaign's pulse
    /// schedule. Unit phase `i` draws its base schedule from stream
    /// `("schedule", i)` instead, shifted and tagged per
    /// [`ScenarioBuilder::unit_phase`].
    pub fn schedule(&self, seed: u64) -> Vec<ScheduledTx> {
        let seeds = SeedDeriver::new(seed);
        let stream = self.unit_phase.map_or(0, |i| i as u64);
        let mut all = build_schedule_for(
            self.workload.as_ref(),
            self.rate,
            self.ops_per_tx,
            self.windows,
            seeds.seed("schedule", stream),
        );
        if let Some(i) = self.unit_phase {
            all = shift_and_tag(all, self.unit_start(), unit_tag(i));
        }
        for (i, phase) in self.phases.iter().enumerate() {
            all.extend(self.overlay(i, phase, &seeds));
        }
        all.sort_by_key(|s| (s.at, s.tx.id()));
        all
    }

    /// The overlay schedule of phase `i`.
    fn overlay(&self, i: usize, phase: &LoadPhase, seeds: &SeedDeriver) -> Vec<ScheduledTx> {
        let tag = overlay_tag(i);
        let overlay_seed = seeds.seed("pulse", i as u64);
        match phase.shape {
            // A flash phase is a constant-rate sub-schedule built exactly
            // like the base one, shifted into the phase window and
            // re-identified — the overload campaign's historical pulse
            // construction, reproduced byte-for-byte for phase 0.
            LoadShape::Flash { multiplier } => {
                let len = phase.end - phase.start;
                let sub = build_schedule_for(
                    self.workload.as_ref(),
                    self.rate * (multiplier - 1.0),
                    self.ops_per_tx,
                    Windows {
                        send: len,
                        listen: len,
                    },
                    overlay_seed,
                );
                shift_and_tag(sub, phase.start - SimTime::ZERO, tag)
            }
            // Varying-rate shapes step the send clock by the instantaneous
            // inter-send gap `1 / r(t)`; when the rate is (near) zero the
            // clock probes forward without emitting. Ids carry the phase
            // tag plus a monotone sequence, so they are unique by
            // construction.
            LoadShape::Ramp { .. } | LoadShape::Diurnal { .. } => {
                // Floor below which no send is scheduled; while below it
                // the clock probes forward one gap (1 s) at a time, so a
                // ramp that opens at zero still wakes up quickly.
                const MIN_RATE: f64 = 1.0;
                let span = (phase.end - phase.start).as_secs_f64();
                let phase_frac =
                    (SeedDeriver::new(overlay_seed).seed("phase", 0) % 1000) as f64 / 1000.0;
                let mut out = Vec::new();
                let mut t = 0.0_f64;
                let mut seq = 0u64;
                let mut phased = false;
                while t < span {
                    let r = self.extra_rate(phase, t);
                    if r < MIN_RATE {
                        t += 1.0 / MIN_RATE;
                        phased = false;
                        continue;
                    }
                    let gap = 1.0 / r;
                    if !phased {
                        // Offset the first send of each active stretch by a
                        // seeded phase fraction of one gap, mirroring the
                        // base client's de-lockstepping.
                        t += gap * phase_frac;
                        phased = true;
                        if t >= span {
                            break;
                        }
                    }
                    let at = phase.start + SimDuration::from_secs_f64(t);
                    let client = ClientId((seq % 4) as u32);
                    let thread = ThreadId(((seq / 4) % 4) as u32);
                    let id = TxId::new(client, tag | seq);
                    let tx = client_tx(id, thread, self.ops_per_tx, at, |k| {
                        self.workload.payload_at(client, thread, seq + k)
                    });
                    out.push(ScheduledTx { at, tx });
                    seq += 1;
                    t += gap;
                }
                out
            }
        }
    }

    /// The extra (overlay) aggregate rate of `phase` at `t` seconds into
    /// the phase.
    fn extra_rate(&self, phase: &LoadPhase, t: f64) -> f64 {
        let span = (phase.end - phase.start).as_secs_f64();
        match phase.shape {
            LoadShape::Flash { multiplier } => self.rate * (multiplier - 1.0),
            LoadShape::Ramp { to_multiplier } => {
                self.rate * (to_multiplier - 1.0) * (t / span).clamp(0.0, 1.0)
            }
            LoadShape::Diurnal { amplitude, period } => {
                let phase_angle = 2.0 * std::f64::consts::PI * t / period.as_secs_f64();
                self.rate * amplitude * (1.0 + phase_angle.sin()) / 2.0
            }
        }
    }

    /// Executes the timeline against a fresh deployment of `system`, built
    /// from the timeline's setup and `seed`, by [`Timeline::run_on`] with
    /// the same `seed`. Identical `(timeline, system, seed)` give
    /// identical [`ScenarioRun`]s, regardless of what other cells run
    /// around them.
    pub fn run(&self, system: SystemKind, seed: u64) -> ScenarioRun {
        let mut sys = build_system(system, &self.setup, seed);
        self.run_on(sys.as_mut(), seed)
    }

    /// Executes the timeline against `sys` as it stands: arms the probes,
    /// installs the workload's preload, runs [`Timeline::schedule`]`(seed)`
    /// through the client loop ([`run_chaos_with_schedule`], whose
    /// randomness also derives from `seed`), and reads back the stats,
    /// the ledger check ([`Workload::verify`]), the epochs, the stage
    /// report and the checks. A system that already served earlier
    /// timelines keeps its state, so unit phases run back to back on one
    /// deployment. This is the only library path that runs a client
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics, naming the system, payload, rate and seed, if the run's
    /// delivery accounting does not classify every scheduled transaction
    /// exactly once ([`crate::DeliveryAccounting::is_complete`]). The
    /// check runs in every build.
    pub fn run_on(&self, sys: &mut (dyn BlockchainSystem + Send), seed: u64) -> ScenarioRun {
        if self.probes {
            sys.enable_stage_probes();
        }
        // Install the workload's initial ledger state (no-op for the
        // paper's self-bootstrapping workloads, whose preload is empty).
        let preload = self.workload.preload();
        if !preload.is_empty() {
            sys.preload(&preload);
        }
        let schedule = self.schedule(seed);
        // The client loop reads only the spec's windows; the kind labels it.
        let kind = SystemKind::ALL
            .into_iter()
            .find(|k| k.label() == sys.name())
            .unwrap_or_else(|| panic!("{} is not one of the modelled systems", sys.name()));
        let spec = BenchmarkSpec::new(kind, self.payload)
            .rate(self.rate)
            .windows(self.windows())
            .repetitions(1);
        let run = run_chaos_with_schedule(
            sys,
            &spec,
            &self.plan,
            &self.policy,
            &self.protection,
            &schedule,
            seed,
        );
        let a = &run.accounting;
        assert!(
            a.is_complete(),
            "{} {} at {} tx/s, seed {seed}: delivery accounting is incomplete: {a:?}",
            sys.name(),
            self.payload.label(),
            self.rate
        );
        let stats = sys.stats();
        let verified = sys.ledger_state().map(|l| self.workload.verify(&l));
        let epochs = sys.config_epoch();
        let stage_report = if self.probes {
            sys.stage_report()
        } else {
            None
        };
        let checks = self
            .checks
            .iter()
            .map(|(at, c)| c.evaluate(*at, &run, epochs, stage_report.as_ref()))
            .collect();
        ScenarioRun {
            run,
            stats,
            epochs,
            checks,
            stage_report,
            verified,
        }
    }
}

/// `schedule` moved `offset` later with `tag` ORed into every id.
fn shift_and_tag(schedule: Vec<ScheduledTx>, offset: SimDuration, tag: u64) -> Vec<ScheduledTx> {
    schedule
        .into_iter()
        .map(|s| {
            let at = s.at + offset;
            let id = TxId::new(s.tx.id().client(), s.tx.id().seq() | tag);
            ScheduledTx {
                at,
                tx: s.tx.with_id(id, at),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::build_schedule;

    fn windows() -> Windows {
        Windows {
            send: SimDuration::from_secs(15),
            listen: SimDuration::from_secs(25),
        }
    }

    #[test]
    fn empty_scenario_is_the_bare_baseline() {
        let tl = ScenarioBuilder::new(PayloadKind::DoNothing, 100.0, windows()).build();
        assert!(tl.plan().is_empty());
        assert!(tl.phases().is_empty());
        assert!(tl.checks().is_empty());
        // The schedule is byte-identical to the classic client's.
        let expect = build_schedule(
            PayloadKind::DoNothing,
            100.0,
            1,
            windows(),
            SeedDeriver::new(9).seed("schedule", 0),
        );
        let got = tl.schedule(9);
        assert_eq!(got.len(), expect.len());
        assert!(got
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.at == b.at && a.tx == b.tx));
        // And it runs: everything confirms, no checks to evaluate.
        let sr = tl.run(SystemKind::Fabric, 9);
        assert!(sr.run.accounting.is_complete());
        assert_eq!(sr.run.accounting.confirmed, sr.run.accounting.scheduled);
        assert!(sr.checks.is_empty());
        assert!(sr.all_checks_pass());
    }

    /// Unit phase `i` against `run_unit`'s hand-built construction before
    /// unit phases existed: stream `("schedule", i)` of the repetition,
    /// shifted `i × term` and re-tagged `(i + 1) << 40`, with absolute
    /// windows.
    #[test]
    fn unit_phases_match_the_hand_built_unit_schedules() {
        let w = windows();
        let term = w.listen + (w.listen - w.send) * 3;
        let r = SeedDeriver::new(17).for_repetition(1);
        for ops in [1, 50] {
            let mut base = SimDuration::ZERO;
            for i in 0..3 {
                let expect: Vec<ScheduledTx> = build_schedule(
                    PayloadKind::KeyValueSet,
                    400.0,
                    ops,
                    w,
                    r.seed("schedule", i as u64),
                )
                .into_iter()
                .map(|s| {
                    let at = s.at + base;
                    let id = TxId::new(s.tx.id().client(), s.tx.id().seq() | (i as u64 + 1) << 40);
                    ScheduledTx {
                        at,
                        tx: s.tx.with_id(id, at),
                    }
                })
                .collect();
                let tl = ScenarioBuilder::new(PayloadKind::KeyValueSet, 400.0, w)
                    .ops_per_tx(ops)
                    .unit_phase(i)
                    .build();
                let got = tl.schedule(r.root());
                assert_eq!(got.len(), expect.len(), "ops {ops}, phase {i}");
                for (a, b) in got.iter().zip(&expect) {
                    assert!(a.at == b.at && a.tx == b.tx, "ops {ops}, phase {i}");
                }
                let absolute = Windows {
                    send: base + w.send,
                    listen: base + w.listen,
                };
                assert_eq!(tl.windows(), absolute);
                base += term;
            }
        }
        // Without a unit phase the paper timeline keeps the classic
        // client's schedule at the repetition's stream 0, unshifted.
        let tl = ScenarioBuilder::new(PayloadKind::KeyValueSet, 400.0, w).build();
        let expect = build_schedule(PayloadKind::KeyValueSet, 400.0, 1, w, r.seed("schedule", 0));
        let got = tl.schedule(r.root());
        assert_eq!(got.len(), expect.len());
        assert!(got
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.at == b.at && a.tx == b.tx));
        assert_eq!(tl.windows(), w);
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let build = || {
            ScenarioBuilder::new(PayloadKind::DoNothing, 80.0, windows())
                .at(SimTime::from_secs(3))
                .crash_until(&[NodeId(1)], SimTime::from_secs(7))
                .at(SimTime::from_secs(4))
                .flash_crowd(3.0, SimTime::from_secs(8))
                .at(SimTime::from_secs(14))
                .assert(Check::DeliveryFloor { min_ratio: 0.5 })
                .build()
        };
        let a = build().run(SystemKind::Quorum, 21);
        let b = build().run(SystemKind::Quorum, 21);
        assert_eq!(a.run.accounting, b.run.accounting);
        assert_eq!(a.run.buckets, b.run.buckets);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn same_tick_fault_order_is_declaration_order() {
        // A crash and a partition declared at the same instant compile to a
        // plan that replays them in declaration order (the scheduler's
        // stable-sort contract), so same-tick scenarios are deterministic.
        let t = SimTime::from_secs(5);
        let tl = ScenarioBuilder::new(PayloadKind::DoNothing, 50.0, windows())
            .at(t)
            .crash(&[NodeId(2)])
            .at(t)
            .partition(&[NodeId(3)], SimTime::from_secs(9))
            .build();
        let events = tl.plan().events();
        assert_eq!(events[0], (t, FaultEvent::CrashNode(NodeId(2))));
        assert!(matches!(events[1], (at, FaultEvent::Partition(_)) if at == t));
        assert_eq!(events[2], (SimTime::from_secs(9), FaultEvent::Heal));
    }

    #[test]
    fn gray_fault_verbs_compile_to_the_expected_plan() {
        let t = SimTime::from_secs(4);
        let heal = SimTime::from_secs(12);
        let tl = ScenarioBuilder::new(PayloadKind::DoNothing, 50.0, windows())
            .at(t)
            .slow_node(NodeId(0), 16.0, heal)
            .at(t)
            .flaky_link(NodeId(0), NodeId(1), 0.3, heal)
            .at(t)
            .asym_partition(&[NodeId(0)], &[NodeId(2)], heal)
            .at(t)
            .region_latency(
                RegionMap::round_robin(4, 2, SimDuration::from_millis(80)),
                heal,
            )
            .build();
        let events = tl.plan().events();
        assert!(matches!(
            events[0],
            (at, FaultEvent::SlowNode { node: NodeId(0), .. }) if at == t
        ));
        assert!(matches!(
            events[1],
            (at, FaultEvent::FlakyLink { drop_prob, .. }) if at == t && drop_prob == 0.3
        ));
        assert!(matches!(events[2], (at, FaultEvent::AsymmetricPartition { .. }) if at == t));
        // Only the half-open link needs an explicit global heal; the plan
        // stores insertion order, so it precedes the region event here.
        assert_eq!(events[3], (heal, FaultEvent::Heal));
        assert!(matches!(events[4], (at, FaultEvent::RegionLatency { .. }) if at == t));
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn stage_residence_check_reads_the_probe_report() {
        // With probes armed the check compares the stage's share of total
        // residence against the ceiling; a share below 1.1 always holds.
        let sr = ScenarioBuilder::new(PayloadKind::DoNothing, 100.0, windows())
            .probes(true)
            .at(SimTime::from_secs(2))
            .assert(Check::StageResidenceBelow {
                stage: Stage::Ingress,
                max_share: 1.1,
            })
            .build()
            .run(SystemKind::Fabric, 7);
        assert!(sr.checks[0].pass, "{:?}", sr.checks);
        assert!(sr.checks[0].observed.contains("share"));
        // Without probes the check is vacuous and says so.
        let bare = ScenarioBuilder::new(PayloadKind::DoNothing, 100.0, windows())
            .at(SimTime::from_secs(2))
            .assert(Check::StageResidenceBelow {
                stage: Stage::Ingress,
                max_share: 0.0,
            })
            .build()
            .run(SystemKind::Fabric, 7);
        assert!(bare.checks[0].pass);
        assert!(bare.checks[0].observed.contains("n/a"));
    }

    #[test]
    fn overlapping_fault_windows_compose() {
        // Two overlapping loss windows: both bursts are scheduled; at the
        // client ingress the later burst supersedes the earlier one while
        // both are active (last-scheduled-wins), and the run completes its
        // accounting either way.
        let tl = ScenarioBuilder::new(PayloadKind::DoNothing, 100.0, windows())
            .at(SimTime::from_secs(2))
            .loss(0.3, SimTime::from_secs(10))
            .at(SimTime::from_secs(4))
            .loss(0.05, SimTime::from_secs(6))
            .build();
        assert_eq!(tl.plan().len(), 2);
        let sr = tl.run(SystemKind::Fabric, 5);
        assert!(sr.run.accounting.is_complete());
        assert!(sr.run.accounting.retries > 0, "losses must trigger retries");
    }

    #[test]
    fn assertion_at_phase_boundary_uses_full_buckets_only() {
        // A checkpoint exactly at a phase boundary measures only the full
        // buckets inside its window — the window_mtps contract — so a
        // boundary assertion can never read half a bucket from the next
        // phase.
        let run = ChaosRun {
            buckets: vec![10, 10, 0, 0, 20, 20],
            bucket_len: SimDuration::from_secs(1),
            live: true,
            ..ChaosRun::default()
        };
        // Phase boundary at t = 2 s: [0, 2) sees only the two 10-buckets.
        let c = Check::GoodputFloor {
            since: SimTime::ZERO,
            min_mtps: 10.0,
        };
        let out = c.evaluate(SimTime::from_secs(2), &run, 0, None);
        assert!(out.pass, "{}", out.observed);
        // Halted over [2, 4) holds even though bucket 4 is busy again.
        let h = Check::Halted {
            since: SimTime::from_secs(2),
        };
        assert!(h.evaluate(SimTime::from_secs(4), &run, 0, None).pass);
        // A sub-bucket sliver past the boundary covers no full bucket:
        // Halted still holds at t = 4.5 s.
        assert!(
            h.evaluate(
                SimTime::from_secs(4) + SimDuration::from_millis(500),
                &run,
                0,
                None
            )
            .pass
        );
        // But one more full bucket flips it.
        assert!(!h.evaluate(SimTime::from_secs(5), &run, 0, None).pass);
    }

    #[test]
    fn flash_overlay_ids_carry_phase_tags_and_stay_unique() {
        let tl = ScenarioBuilder::new(PayloadKind::DoNothing, 100.0, windows())
            .at(SimTime::from_secs(2))
            .flash_crowd(4.0, SimTime::from_secs(6))
            .at(SimTime::from_secs(8))
            .flash_crowd(2.0, SimTime::from_secs(12))
            .build();
        let sched = tl.schedule(3);
        // Sorted by (at, id) with unique ids across base + both overlays.
        assert!(sched
            .windows(2)
            .all(|w| (w[0].at, w[0].tx.id()) < (w[1].at, w[1].tx.id())));
        let mut ids: Vec<_> = sched.iter().map(|s| s.tx.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), sched.len());
        // Phase tags separate the overlays.
        assert_ne!(overlay_tag(0), overlay_tag(1));
        let tagged = |tag: u64| sched.iter().filter(|s| s.tx.id().seq() & tag != 0).count();
        assert!(tagged(overlay_tag(0)) > 0);
        assert!(tagged(overlay_tag(1)) > 0);
    }

    #[test]
    fn ramp_and_diurnal_shapes_scale_extra_load() {
        let mk = |shape: LoadShape| {
            let mut b = ScenarioBuilder::new(PayloadKind::DoNothing, 100.0, windows());
            b.phases.push(LoadPhase {
                start: SimTime::from_secs(2),
                end: SimTime::from_secs(12),
                shape,
            });
            b.build()
        };
        // Ramp: ~half the flash volume of the same peak.
        let ramp = mk(LoadShape::Ramp { to_multiplier: 5.0 });
        let flash = mk(LoadShape::Flash { multiplier: 5.0 });
        let count = |tl: &Timeline| {
            tl.schedule(7)
                .iter()
                .filter(|s| s.tx.id().seq() & overlay_tag(0) != 0)
                .count() as f64
        };
        let (nr, nf) = (count(&ramp), count(&flash));
        assert!(
            (nr / nf - 0.5).abs() < 0.1,
            "ramp {nr} should be ~half of flash {nf}"
        );
        // Diurnal: mean extra is amplitude/2 × base over the phase.
        let diurnal = mk(LoadShape::Diurnal {
            amplitude: 2.0,
            period: SimDuration::from_secs(5),
        });
        let nd = count(&diurnal);
        let expect = 100.0 * 1.0 * 10.0; // base × amp/2 × span
        assert!(
            (nd - expect).abs() / expect < 0.15,
            "diurnal {nd} vs expected {expect}"
        );
        // All overlay sends stay inside their phase.
        for s in ramp.schedule(7) {
            if s.tx.id().seq() & overlay_tag(0) != 0 {
                assert!(s.at >= SimTime::from_secs(2) && s.at < SimTime::from_secs(13));
            }
        }
    }

    #[test]
    fn checks_evaluate_against_the_run() {
        let tl = ScenarioBuilder::new(PayloadKind::DoNothing, 60.0, windows())
            .at(SimTime::from_secs(4))
            .crash_until(&[NodeId(1)], SimTime::from_secs(8))
            .at(SimTime::from_secs(25))
            .assert(Check::RestabilizesBy {
                fault_from: SimTime::from_secs(4),
                fault_until: SimTime::from_secs(8),
                threshold: 0.7,
            })
            .assert(Check::DeliveryFloor { min_ratio: 0.99 })
            .assert(Check::SafetyClean)
            .build();
        let sr = tl.run(SystemKind::Fabric, 11);
        assert_eq!(sr.checks.len(), 3);
        assert!(
            sr.all_checks_pass(),
            "f-tolerant crash with retries must pass all checks: {:?}",
            sr.checks
        );
        // And a check that cannot hold reports failure instead of lying.
        let halted = Check::Halted {
            since: SimTime::ZERO,
        };
        let out = halted.evaluate(SimTime::from_secs(25), &sr.run, sr.epochs, None);
        assert!(!out.pass);
    }
}
