//! The sharded fusion service: virtual-time message scheduling, admission
//! control, bounded queues with backpressure, SLO-driven node quarantine,
//! shard crash/failover with checkpointed recovery and per-room occupancy
//! fusion.
//!
//! # Determinism
//!
//! The whole fleet run follows the serial-plan → parallel-execute →
//! serial-fold pattern of `pcount-resilience`:
//!
//! 1. **Plan (serial).** Every node's messages are merged into one global
//!    virtual-time order `(arrival_ns, node, seq)` and interleaved with
//!    the failover timeline (periodic checkpoints, planned shard crashes
//!    and restarts); each shard's bounded queue, batch server, admission
//!    control, backpressure hysteresis and adaptive watermarks are
//!    simulated against a *nominal* per-frame service cost — so which
//!    frames are shed, downsampled, re-routed, lost in a crash or batched
//!    is a pure function of the fleet seed and the config, never of
//!    execution.
//! 2. **Execute (parallel).** Admitted frames' retry loops
//!    ([`ResilientDeployment::attempt_frame`]) run across the
//!    [`CpuPool`], each on a CPU restored from the pristine base, so
//!    every result is a pure per-frame function.
//! 3. **Fold (serial).** Outcomes are replayed in arrival order through
//!    the same failover timeline (checkpoint snapshots filled, crashed
//!    shards' fusion state rolled back to the last checkpoint with
//!    hold-last-good covering the gap) and per-node health windows
//!    (quarantine/readmission with hysteresis) and per-room fusion,
//!    producing the occupancy trajectory, latency and recovery-time
//!    distributions and SLO accounting.
//!
//! Consequently a [`FleetReport`] is bit-identical for every pool width
//! (asserted by the crate's determinism suite and the serve bench
//! tripwire), crashes included.

use std::collections::VecDeque;
use std::fmt;

use crate::failover::{
    plan_crashes, AdaptiveAdmission, AdaptiveConfig, CrashConfig, CrashEvent, CrashPolicy,
    FailoverEvent, RouteTable, ShardCheckpoint,
};
use crate::msg::{Delivery, DeliveryStatus, FrameMsg};
use crate::node::SensorNode;
use crate::report::{
    CrashReport, FleetReport, NodeReport, OccupancyChange, OccupancyTrajectory, ServeTotals,
    ShardReport,
};
use pcount_dataset::{IrDataset, GRID_SIZE};
use pcount_kernels::{CpuPool, Deployment, SimError};
use pcount_postproc::MajorityVoter;
use pcount_resilience::{AttemptOutcome, ResilienceConfig, ResilientDeployment};
use pcount_telemetry::slo;
use pcount_telemetry::{ErrorBudget, HistogramCounts, SloSnapshot};

/// A time-windowed fault storm: a subset of nodes runs at a (usually much
/// higher) fault intensity for the middle stretch of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StormConfig {
    /// Fault intensity inside the storm window (the fleet's baseline
    /// [`FleetConfig::fault_intensity`] applies outside it).
    pub intensity: f64,
    /// Every `node_stride`-th node is storm-affected (`1` = the whole
    /// fleet).
    pub node_stride: usize,
    /// Storm window as fractions of each affected node's frame count:
    /// frames in `[window.0 * n, window.1 * n)` are injected at the storm
    /// intensity.
    pub window: (f64, f64),
}

impl StormConfig {
    /// Whether `node` is inside the storm's blast radius.
    pub fn affects(&self, node: usize) -> bool {
        node.is_multiple_of(self.node_stride.max(1))
    }
}

impl Default for StormConfig {
    /// A heavy storm over a third of the fleet for the middle half of the
    /// run.
    fn default() -> Self {
        Self {
            intensity: 0.6,
            node_stride: 3,
            window: (0.25, 0.75),
        }
    }
}

/// Why a [`FleetConfig`] was rejected by [`FleetConfig::validated`]. Each
/// variant names the offending knobs so a misconfigured fleet fails with
/// an actionable error instead of a bare assertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `nodes == 0`.
    NoNodes,
    /// `rooms` outside `1..=nodes`.
    BadRooms {
        /// Configured room count.
        rooms: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// `shards` outside `1..=rooms`.
    BadShards {
        /// Configured shard count.
        shards: usize,
        /// Configured room count.
        rooms: usize,
    },
    /// `frames_per_node == 0`.
    NoFrames,
    /// `queue_cap == 0`.
    ZeroQueueCap,
    /// Watermarks violate `low < high <= cap`.
    BadWatermarks {
        /// Configured low watermark.
        low: usize,
        /// Configured high watermark.
        high: usize,
        /// Configured queue capacity.
        cap: usize,
    },
    /// `health_window == 0`.
    ZeroHealthWindow,
    /// `readmit_after == 0`.
    ZeroReadmitStreak,
    /// `service_clock_hz == 0`.
    ZeroServiceClock,
    /// `checkpoint_period_ms == 0`.
    ZeroCheckpointPeriod,
    /// Crash window violates `0 <= start < end`.
    BadCrashWindow {
        /// Configured crash instant (fraction of the run span).
        start: f64,
        /// Configured restart instant (fraction of the run span).
        end: f64,
    },
    /// Crash jitter is negative or not finite.
    BadCrashJitter,
    /// Adaptive evaluation window is zero.
    BadAdaptiveWindow,
    /// Adaptive `watermark_step == 0` (the controller could never move).
    ZeroAdaptiveStep,
    /// Adaptive thresholds violate `relax < tighten` (no hysteresis gap).
    BadAdaptiveThresholds {
        /// Configured relax threshold (milli-units).
        relax: i64,
        /// Configured tighten threshold (milli-units).
        tighten: i64,
    },
    /// Adaptive watermark floor is zero or above the configured high
    /// watermark.
    BadAdaptiveWatermarkFloor {
        /// Configured floor.
        floor: usize,
        /// Configured high watermark.
        high: usize,
    },
    /// Adaptive `max_downsample_stride < 2` (below the static stride).
    BadAdaptiveStride {
        /// Configured stride ceiling.
        max: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "fleet needs at least one node"),
            ConfigError::BadRooms { rooms, nodes } => {
                write!(
                    f,
                    "rooms must be in 1..=nodes ({rooms} rooms, {nodes} nodes)"
                )
            }
            ConfigError::BadShards { shards, rooms } => {
                write!(
                    f,
                    "shards must be in 1..=rooms ({shards} shards, {rooms} rooms)"
                )
            }
            ConfigError::NoFrames => write!(f, "nodes need at least one frame"),
            ConfigError::ZeroQueueCap => write!(f, "queue capacity must be positive"),
            ConfigError::BadWatermarks { low, high, cap } => write!(
                f,
                "watermarks must satisfy low < high <= cap (low {low}, high {high}, cap {cap})"
            ),
            ConfigError::ZeroHealthWindow => write!(f, "health window must be positive"),
            ConfigError::ZeroReadmitStreak => write!(f, "readmission streak must be positive"),
            ConfigError::ZeroServiceClock => write!(f, "service clock must be positive"),
            ConfigError::ZeroCheckpointPeriod => {
                write!(f, "checkpoint period must be positive")
            }
            ConfigError::BadCrashWindow { start, end } => write!(
                f,
                "crash window must satisfy 0 <= start < end (start {start}, end {end})"
            ),
            ConfigError::BadCrashJitter => {
                write!(f, "crash jitter must be finite and non-negative")
            }
            ConfigError::BadAdaptiveWindow => {
                write!(f, "adaptive evaluation window must be positive")
            }
            ConfigError::ZeroAdaptiveStep => {
                write!(f, "adaptive watermark step must be positive")
            }
            ConfigError::BadAdaptiveThresholds { relax, tighten } => write!(
                f,
                "adaptive thresholds need a hysteresis gap: relax < tighten \
                 (relax {relax}, tighten {tighten})"
            ),
            ConfigError::BadAdaptiveWatermarkFloor { floor, high } => write!(
                f,
                "adaptive watermark floor must be in 1..=high_watermark \
                 (floor {floor}, high {high})"
            ),
            ConfigError::BadAdaptiveStride { max } => {
                write!(f, "adaptive max downsample stride must be >= 2 (got {max})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a [`FleetService`] co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated sensor nodes.
    pub nodes: usize,
    /// Number of rooms; node `i` reports into room `i % rooms`.
    pub rooms: usize,
    /// Number of service shards; room `r` is *homed* on shard
    /// `r % shards` (a crash may migrate it to a failover shard until
    /// the home restarts), so a room never splits across shards.
    pub shards: usize,
    /// Frames in each node's (wrapping) session window.
    pub frames_per_node: usize,
    /// Nominal sensor frame period, in milliseconds (the paper's stream
    /// is 10 FPS = 100 ms).
    pub frame_period_ms: u32,
    /// Baseline fault intensity of every node's [`FaultPlan`]
    /// (`FaultConfig::uniform` knob).
    ///
    /// [`FaultPlan`]: pcount_resilience::FaultPlan
    /// [`FaultConfig::uniform`]: pcount_resilience::FaultConfig::uniform
    pub fault_intensity: f64,
    /// Optional time-windowed fault storm on top of the baseline chaos.
    pub storm: Option<StormConfig>,
    /// Optional deterministic shard-crash/restart schedule (the
    /// shard-level sibling of [`storm`](Self::storm)).
    pub crash: Option<CrashConfig>,
    /// Virtual period of the shard checkpoints a restarting shard
    /// recovers from, in milliseconds. Only exercised when a crash
    /// schedule is configured.
    pub checkpoint_period_ms: u64,
    /// Optional burn-driven adaptive admission: effective watermarks and
    /// downsample stride derived from each shard's live windowed
    /// [`SloSnapshot`] burn. `None` keeps the static knobs.
    pub adaptive: Option<AdaptiveConfig>,
    /// Maximum per-node constant clock skew (± milliseconds), drawn from
    /// the fleet seed.
    pub clock_skew_max_ms: u32,
    /// Bounded per-shard queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Maximum frames the shard server batches per dispatch.
    pub batch_max: usize,
    /// Fixed virtual cost of dispatching one batch, in nanoseconds.
    pub batch_overhead_ns: u64,
    /// Queue depth at or above which the shard throttles its nodes
    /// (backpressure: throttled nodes downsample at the source). The
    /// *static* knob — adaptive admission tightens from here.
    pub high_watermark: usize,
    /// Queue depth at or below which the shard releases the throttle.
    pub low_watermark: usize,
    /// Clock of the shard's inference server, in Hz, converting the
    /// deployment's per-frame cycles into virtual service time.
    pub service_clock_hz: u64,
    /// Sliding window (node-caused outcomes) of the sick-node detector.
    pub health_window: usize,
    /// Error-budget burn (milli-units over the window snapshot) at or
    /// above which a node is quarantined.
    pub quarantine_burn_milli: i64,
    /// Consecutive clean outcomes a quarantined node needs before
    /// readmission (the hysteresis that stops flapping).
    pub readmit_after: u32,
    /// Per-frame supervision policy (retries, backoff, budgets) and the
    /// error budget nodes are graded against.
    pub resilience: ResilienceConfig,
    /// Root seed: all per-node chaos, phases, skews and the crash
    /// schedule derive from it.
    pub seed: u64,
}

impl Default for FleetConfig {
    /// A 240-node / 24-room / 4-shard building at 10 FPS with mild
    /// baseline chaos, no crashes and static admission.
    fn default() -> Self {
        Self {
            nodes: 240,
            rooms: 24,
            shards: 4,
            frames_per_node: 24,
            frame_period_ms: 100,
            fault_intensity: 0.08,
            storm: None,
            crash: None,
            checkpoint_period_ms: 400,
            adaptive: None,
            clock_skew_max_ms: 150,
            queue_cap: 64,
            batch_max: 8,
            batch_overhead_ns: 200_000,
            high_watermark: 48,
            low_watermark: 16,
            service_clock_hz: 400_000_000,
            health_window: 8,
            quarantine_burn_milli: 7_000,
            readmit_after: 6,
            resilience: ResilienceConfig::default(),
            seed: 0,
        }
    }
}

impl FleetConfig {
    /// A small fleet for CI smoke runs: still ≥ 200 nodes (the acceptance
    /// floor) but with short per-node windows.
    pub fn smoke() -> Self {
        Self {
            nodes: 200,
            rooms: 20,
            frames_per_node: 6,
            ..Self::default()
        }
    }

    /// Checks every knob for consistency, returning the first violation
    /// as a typed [`ConfigError`].
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] naming the offending knobs when the
    /// configuration is inconsistent (empty fleet, watermarks inverted or
    /// above the queue cap, degenerate crash/adaptive schedules, …).
    pub fn validated(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.rooms == 0 || self.rooms > self.nodes {
            return Err(ConfigError::BadRooms {
                rooms: self.rooms,
                nodes: self.nodes,
            });
        }
        if self.shards == 0 || self.shards > self.rooms {
            return Err(ConfigError::BadShards {
                shards: self.shards,
                rooms: self.rooms,
            });
        }
        if self.frames_per_node == 0 {
            return Err(ConfigError::NoFrames);
        }
        if self.queue_cap == 0 {
            return Err(ConfigError::ZeroQueueCap);
        }
        if self.low_watermark >= self.high_watermark || self.high_watermark > self.queue_cap {
            return Err(ConfigError::BadWatermarks {
                low: self.low_watermark,
                high: self.high_watermark,
                cap: self.queue_cap,
            });
        }
        if self.health_window == 0 {
            return Err(ConfigError::ZeroHealthWindow);
        }
        if self.readmit_after == 0 {
            return Err(ConfigError::ZeroReadmitStreak);
        }
        if self.service_clock_hz == 0 {
            return Err(ConfigError::ZeroServiceClock);
        }
        if self.checkpoint_period_ms == 0 {
            return Err(ConfigError::ZeroCheckpointPeriod);
        }
        if let Some(crash) = &self.crash {
            if !(crash.window.0 >= 0.0 && crash.window.0 < crash.window.1) {
                return Err(ConfigError::BadCrashWindow {
                    start: crash.window.0,
                    end: crash.window.1,
                });
            }
            if !(crash.jitter.is_finite() && crash.jitter >= 0.0) {
                return Err(ConfigError::BadCrashJitter);
            }
        }
        if let Some(adaptive) = &self.adaptive {
            if adaptive.window == 0 {
                return Err(ConfigError::BadAdaptiveWindow);
            }
            if adaptive.watermark_step == 0 {
                return Err(ConfigError::ZeroAdaptiveStep);
            }
            if adaptive.relax_burn_milli >= adaptive.tighten_burn_milli {
                return Err(ConfigError::BadAdaptiveThresholds {
                    relax: adaptive.relax_burn_milli,
                    tighten: adaptive.tighten_burn_milli,
                });
            }
            if adaptive.min_high_watermark == 0 || adaptive.min_high_watermark > self.high_watermark
            {
                return Err(ConfigError::BadAdaptiveWatermarkFloor {
                    floor: adaptive.min_high_watermark,
                    high: self.high_watermark,
                });
            }
            if adaptive.max_downsample_stride < 2 {
                return Err(ConfigError::BadAdaptiveStride {
                    max: adaptive.max_downsample_stride,
                });
            }
        }
        Ok(())
    }

    /// Panics when the knobs are inconsistent — the assertion-style path
    /// over [`validated`](Self::validated).
    pub fn validate(&self) {
        if let Err(e) = self.validated() {
            panic!("invalid fleet config: {e}");
        }
    }
}

/// What the serial plan decided for one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Dropped at the sensor: nothing arrives.
    Gap,
    /// Shed by admission control (queue at capacity, or every shard
    /// down).
    Shed,
    /// Downsampled at the source under backpressure.
    Downsampled,
    /// Admitted and waiting for its batch (transient plan state; every
    /// queued message is resolved to `Execute` or `CrashLost` before the
    /// plan completes).
    Queued,
    /// Lost in a shard crash: queued at the crash instant and disposed
    /// of without executing.
    CrashLost,
    /// Scheduled onto the shard server.
    Execute {
        /// Index into the execution list (and the parallel results).
        exec_idx: usize,
        /// Nominal batch completion time (the whole batch completes as a
        /// unit), before per-frame retry overhead.
        completion_ns: i64,
    },
}

/// One planned delivery: the message plus the front-end's decision.
#[derive(Debug, Clone, Copy)]
struct PlannedDelivery {
    msg: FrameMsg,
    room: usize,
    /// The shard that disposed of the message (the room's *routed* shard
    /// at arrival; re-routing out of a crashed queue updates it to the
    /// shard that actually served the frame).
    shard: usize,
    decision: Decision,
    depth_after: usize,
    /// Served away from the room's home shard (failover admission or a
    /// live queue re-route).
    rerouted: bool,
}

/// Serial simulation state of one shard's bounded queue + batch server.
struct ShardSim {
    /// Queued `(planned index, ready instant)` pairs, FIFO. The ready
    /// instant is the arrival for normal admissions and the crash
    /// instant for frames re-routed out of a crashed queue (they cannot
    /// start before the crash that moved them).
    queue: VecDeque<(usize, i64)>,
    /// When the shard's server is next free (virtual ns).
    server_free_ns: i64,
    /// Backpressure state (hysteresis between the watermarks).
    throttled: bool,
    /// Whether the shard is currently crashed (serves nothing).
    down: bool,
    /// Crashes this shard took during the run.
    crashes: u64,
    /// The shard's admission posture (static or burn-driven).
    adm: AdaptiveAdmission,
    /// Highest queue depth observed.
    peak_depth: usize,
    /// Queue depth sampled at every arrival.
    depth_counts: HistogramCounts,
}

impl ShardSim {
    fn new(adm: AdaptiveAdmission) -> Self {
        Self {
            queue: VecDeque::new(),
            server_free_ns: 0,
            throttled: false,
            down: false,
            crashes: 0,
            adm,
            peak_depth: 0,
            depth_counts: HistogramCounts::empty(),
        }
    }
}

/// Per-crash accounting drafted by the plan phase: how the queue was
/// disposed of and which rooms were in the shard's scope at the crash
/// (the fold's fusion rollback set).
#[derive(Debug, Clone, Default)]
struct CrashDraft {
    queued_at_crash: u64,
    crash_lost: u64,
    rerouted: u64,
    held: u64,
    migrations_out: u64,
    rooms_at_crash: Vec<u32>,
}

/// Everything the serial plan hands to execution and the fold: the
/// per-message decisions plus the failover timeline both phases replay.
struct PlanOutput {
    planned: Vec<PlannedDelivery>,
    sims: Vec<ShardSim>,
    exec_list: Vec<usize>,
    crash_events: Vec<CrashEvent>,
    timeline: Vec<(i64, FailoverEvent)>,
    ckpts: Vec<ShardCheckpoint>,
    drafts: Vec<CrashDraft>,
    migrations: u64,
}

/// Serial fold state of one node: fusion estimator, health window and
/// accounting.
struct NodeState {
    voter: MajorityVoter,
    last_good: Option<usize>,
    /// The node's current contribution to its room's occupancy.
    contrib: usize,
    /// Trailing node-caused outcomes: `0` good, `1` gap, `2` fallback.
    window: VecDeque<u8>,
    quarantined: bool,
    clean_streak: u32,
    deliveries: u64,
    gaps: u64,
    shed: u64,
    downsampled: u64,
    crash_lost: u64,
    rerouted: u64,
    ok: u64,
    recovered: u64,
    fallback: u64,
    fused: u64,
    quarantined_frames: u64,
    retries: u64,
    cpu_resets: u64,
    trips: u64,
    readmissions: u64,
    recovery_counts: HistogramCounts,
}

impl NodeState {
    fn new(voter_window: usize) -> Self {
        Self {
            voter: MajorityVoter::new(voter_window.max(1)),
            last_good: None,
            contrib: 0,
            window: VecDeque::new(),
            quarantined: false,
            clean_streak: 0,
            deliveries: 0,
            gaps: 0,
            shed: 0,
            downsampled: 0,
            crash_lost: 0,
            rerouted: 0,
            ok: 0,
            recovered: 0,
            fallback: 0,
            fused: 0,
            quarantined_frames: 0,
            retries: 0,
            cpu_resets: 0,
            trips: 0,
            readmissions: 0,
            recovery_counts: HistogramCounts::empty(),
        }
    }

    /// Executed frames that produced any outcome (admitted work).
    fn admitted(&self) -> u64 {
        self.ok + self.recovered + self.fallback
    }

    /// Frames that produced no fresh fused prediction — what the node is
    /// graded against its error budget on.
    fn degraded(&self) -> u64 {
        self.deliveries - self.fused
    }

    /// The windowed health snapshot the sick-node detector judges. This
    /// is deliberately a real [`SloSnapshot`] — the quarantine decision
    /// reads `error_budget_burn_milli` off the same SLO surface that
    /// shard reports export, not a private heuristic.
    fn window_snapshot(&self, budget: &ErrorBudget) -> SloSnapshot {
        let gaps = self.window.iter().filter(|&&v| v == 1).count() as u64;
        let fallbacks = self.window.iter().filter(|&&v| v == 2).count() as u64;
        let total = self.window.len() as u64;
        SloSnapshot {
            counters: vec![(slo::FLEET_GAPS, gaps), (slo::FALLBACK_FRAMES, fallbacks)],
            error_budget_burn_milli: budget.burn_milli(gaps + fallbacks, total),
            ..SloSnapshot::default()
        }
    }

    /// The node's whole-run SLO snapshot, in canonical counter order
    /// (fixed so shard folds are order-independent by construction).
    fn run_snapshot(&self, budget: &ErrorBudget) -> SloSnapshot {
        SloSnapshot {
            counters: vec![
                (slo::FLEET_REQUESTS, self.deliveries - self.gaps),
                (slo::FLEET_ADMITTED, self.admitted()),
                (slo::FLEET_SHED, self.shed),
                (slo::FLEET_DOWNSAMPLED, self.downsampled),
                (slo::FLEET_GAPS, self.gaps),
                (slo::FLEET_FUSED, self.fused),
                (slo::FLEET_QUARANTINED_FRAMES, self.quarantined_frames),
                (slo::FLEET_QUARANTINE_TRIPS, self.trips),
                (slo::FLEET_READMISSIONS, self.readmissions),
                (slo::FLEET_CRASH_LOST, self.crash_lost),
                (slo::FLEET_REROUTED, self.rerouted),
                (slo::RETRIES, self.retries),
                (slo::FALLBACK_FRAMES, self.fallback),
                (slo::QUARANTINES, self.cpu_resets),
            ],
            error_budget_burn_milli: budget.burn_milli(self.degraded(), self.deliveries),
            recovery_latency: self.recovery_counts.summarize(),
            recovery_counts: self.recovery_counts.clone(),
        }
    }

    /// Restores the fusion/health estimator from a checkpointed node
    /// record. The emitted room contribution is deliberately untouched —
    /// hold-last-good covers the rolled-back gap.
    fn restore(&mut self, ck: &crate::failover::NodeFusionCkpt) {
        self.voter = ck.voter.clone();
        self.last_good = ck.last_good;
        self.window = ck.health.clone();
        self.quarantined = ck.quarantined;
        self.clean_streak = ck.clean_streak;
    }

    /// Resets the fusion/health estimator to boot state — what a shard
    /// that crashed before any checkpoint existed recovers with.
    fn reset_estimator(&mut self, voter_window: usize) {
        self.voter = MajorityVoter::new(voter_window.max(1));
        self.last_good = None;
        self.window.clear();
        self.quarantined = false;
        self.clean_streak = 0;
    }
}

/// The deterministic multi-node serving co-simulation.
///
/// Owns the provisioned [`SensorNode`] actors and the (shared, per-fleet)
/// [`ResilientDeployment`] every shard serves with. See the module docs
/// for the three-phase execution model.
pub struct FleetService {
    supervised: ResilientDeployment,
    cfg: FleetConfig,
    nodes: Vec<SensorNode>,
    /// Nominal virtual service cost of one frame on a shard server, in
    /// nanoseconds: the deployment's measured per-inference cycles at
    /// [`FleetConfig::service_clock_hz`].
    per_frame_ns: u64,
}

impl FleetService {
    /// Provisions a fleet of `cfg.nodes` actors over `data` and wraps
    /// `deployment` in the per-frame supervisor.
    ///
    /// # Errors
    ///
    /// Propagates the simulator error if the deployment cannot run a
    /// probe frame (the probe measures the nominal per-frame cost the
    /// admission plan schedules with).
    pub fn new(
        deployment: Deployment,
        cfg: FleetConfig,
        data: &IrDataset,
    ) -> Result<Self, SimError> {
        cfg.validate();
        let probe = deployment.report(&vec![0.0; GRID_SIZE * GRID_SIZE])?;
        let per_frame_ns = probe
            .cycles
            .saturating_mul(1_000_000_000)
            .div_euclid(cfg.service_clock_hz)
            .max(1);
        let nodes = (0..cfg.nodes)
            .map(|id| SensorNode::provision(id, data, &cfg))
            .collect();
        Ok(Self {
            supervised: ResilientDeployment::new(deployment, cfg.resilience.clone()),
            cfg,
            nodes,
            per_frame_ns,
        })
    }

    /// The provisioned node actors.
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Nominal virtual service cost of one frame (ns) on a shard server.
    pub fn per_frame_ns(&self) -> u64 {
        self.per_frame_ns
    }

    /// The crash schedule this fleet would execute, in crash order —
    /// a pure function of the config and seed (empty without a
    /// [`FleetConfig::crash`] schedule).
    pub fn crash_schedule(&self) -> Vec<CrashEvent> {
        let Some(crash) = &self.cfg.crash else {
            return Vec::new();
        };
        let (start_ns, end_ns) = self.run_span();
        plan_crashes(crash, self.cfg.shards, self.cfg.seed, start_ns, end_ns)
    }

    /// First/last arrival instants over every node's messages.
    fn run_span(&self) -> (i64, i64) {
        let mut start = i64::MAX;
        let mut end = i64::MIN;
        for node in &self.nodes {
            for m in node.messages() {
                start = start.min(m.arrival_ns);
                end = end.max(m.arrival_ns);
            }
        }
        if start > end {
            (0, 0)
        } else {
            (start, end)
        }
    }

    /// A warmed CPU pool sized for `threads` workers.
    ///
    /// # Errors
    ///
    /// Propagates the simulator error if the warm-up inference fails.
    pub fn make_pool(&self, threads: usize) -> Result<CpuPool, SimError> {
        self.supervised.inner().make_pool(threads)
    }

    /// Runs the whole co-simulation across `pool` and folds it into a
    /// [`FleetReport`]. Bit-identical for every pool width.
    pub fn run(&self, pool: &mut CpuPool) -> FleetReport {
        let plan = self.plan();
        let execs = self.execute(&plan.planned, &plan.exec_list, pool);
        self.fold(plan, execs)
    }

    /// Phase 1 (serial): merge all node messages into virtual-time order,
    /// interleave the failover timeline (checkpoints, crashes, restarts)
    /// and simulate every shard's admission control, bounded queue,
    /// backpressure hysteresis and batch server against the nominal
    /// per-frame cost.
    fn plan(&self) -> PlanOutput {
        let cfg = &self.cfg;
        let mut events: Vec<FrameMsg> = self.nodes.iter().flat_map(|n| n.messages()).collect();
        events.sort_by_key(|m| (m.arrival_ns, m.node, m.seq));
        let start_ns = events.first().map(|m| m.arrival_ns).unwrap_or(0);
        let end_ns = events.last().map(|m| m.arrival_ns).unwrap_or(0);
        let crash_events = match &cfg.crash {
            Some(crash) => plan_crashes(crash, cfg.shards, cfg.seed, start_ns, end_ns),
            None => Vec::new(),
        };
        let period_ns = (cfg.checkpoint_period_ms as i64).saturating_mul(1_000_000);
        let timeline =
            crate::failover::failover_timeline(&crash_events, start_ns, end_ns, period_ns);
        let mut route = RouteTable::new(cfg.rooms, cfg.shards);
        let mut ckpts: Vec<ShardCheckpoint> = Vec::new();
        let mut drafts: Vec<CrashDraft> = (0..crash_events.len())
            .map(|_| CrashDraft::default())
            .collect();
        let mut migrations = 0u64;
        let mut planned: Vec<PlannedDelivery> = Vec::with_capacity(events.len());
        let mut sims: Vec<ShardSim> = (0..cfg.shards)
            .map(|_| {
                ShardSim::new(AdaptiveAdmission::new(
                    cfg.adaptive.clone(),
                    cfg.high_watermark,
                    cfg.low_watermark,
                ))
            })
            .collect();
        let mut throttle_ctr = vec![0u64; self.nodes.len()];
        let mut exec_list: Vec<usize> = Vec::new();
        let mut ti = 0usize;
        for msg in events {
            while ti < timeline.len() && timeline[ti].0 <= msg.arrival_ns {
                self.apply_plan_event(
                    timeline[ti],
                    &crash_events,
                    &mut planned,
                    &mut sims,
                    &mut exec_list,
                    &mut route,
                    &mut ckpts,
                    &mut drafts,
                    &mut migrations,
                );
                ti += 1;
            }
            let node = &self.nodes[msg.node];
            let room = node.room;
            let shard = route.shard_for(room);
            let rerouted = shard != node.shard;
            // Let the routed shard's server catch up to the arrival
            // instant before judging the queue: frames it has already
            // started serving no longer occupy queue slots.
            Self::drain(
                &mut planned,
                &mut sims[shard],
                msg.arrival_ns,
                &mut exec_list,
                cfg,
                self.per_frame_ns,
            );
            let idx = planned.len();
            let sim = &mut sims[shard];
            let is_gap = node.stream.ticks[msg.seq].frame.is_none();
            let decision = if is_gap {
                Decision::Gap
            } else if route.is_down(shard) {
                // Every shard is down (a live survivor would have
                // adopted the room): nothing can admit the frame.
                Decision::Shed
            } else if sim.queue.len() >= cfg.queue_cap {
                Decision::Shed
            } else if sim.throttled && {
                throttle_ctr[msg.node] += 1;
                !throttle_ctr[msg.node].is_multiple_of(sim.adm.stride as u64)
            } {
                Decision::Downsampled
            } else {
                Decision::Queued
            };
            planned.push(PlannedDelivery {
                msg,
                room,
                shard,
                decision,
                depth_after: 0,
                rerouted,
            });
            if decision == Decision::Queued {
                sim.queue.push_back((idx, msg.arrival_ns));
            }
            let depth = sim.queue.len();
            planned[idx].depth_after = depth;
            sim.peak_depth = sim.peak_depth.max(depth);
            sim.depth_counts.record(depth as u64);
            if !route.is_down(shard) {
                if depth >= sim.adm.eff_high {
                    sim.throttled = true;
                } else if depth <= sim.adm.eff_low {
                    sim.throttled = false;
                }
                if !is_gap {
                    let degraded = matches!(decision, Decision::Shed | Decision::Downsampled);
                    sim.adm.observe(degraded, &cfg.resilience.error_budget);
                }
            }
        }
        while ti < timeline.len() {
            self.apply_plan_event(
                timeline[ti],
                &crash_events,
                &mut planned,
                &mut sims,
                &mut exec_list,
                &mut route,
                &mut ckpts,
                &mut drafts,
                &mut migrations,
            );
            ti += 1;
        }
        for sim in &mut sims {
            Self::drain(
                &mut planned,
                sim,
                i64::MAX,
                &mut exec_list,
                cfg,
                self.per_frame_ns,
            );
            debug_assert!(sim.queue.is_empty(), "final drain empties every queue");
        }
        PlanOutput {
            planned,
            sims,
            exec_list,
            crash_events,
            timeline,
            ckpts,
            drafts,
            migrations,
        }
    }

    /// Applies one failover-timeline event to the plan state: checkpoint
    /// boundaries snapshot every live shard's admission posture, crashes
    /// dispose of the queue per policy and migrate rooms, restarts
    /// recover admission state from the last pre-crash checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn apply_plan_event(
        &self,
        (t, ev): (i64, FailoverEvent),
        crash_events: &[CrashEvent],
        planned: &mut [PlannedDelivery],
        sims: &mut [ShardSim],
        exec_list: &mut Vec<usize>,
        route: &mut RouteTable,
        ckpts: &mut Vec<ShardCheckpoint>,
        drafts: &mut [CrashDraft],
        migrations: &mut u64,
    ) {
        let cfg = &self.cfg;
        match ev {
            FailoverEvent::Checkpoint => {
                for (shard, sim) in sims.iter_mut().enumerate() {
                    if route.is_down(shard) {
                        continue;
                    }
                    Self::drain(planned, sim, t, exec_list, cfg, self.per_frame_ns);
                    let sim = &*sim;
                    ckpts.push(ShardCheckpoint {
                        shard,
                        taken_ns: t,
                        throttled: sim.throttled,
                        eff_high: sim.adm.eff_high,
                        eff_low: sim.adm.eff_low,
                        stride: sim.adm.stride,
                        rooms: (0..cfg.rooms)
                            .filter(|&r| route.shard_for(r) == shard)
                            .map(|r| r as u32)
                            .collect(),
                        nodes: Vec::new(),
                    });
                }
            }
            FailoverEvent::Crash(k) => {
                let e = crash_events[k];
                let shard = e.shard;
                // Batches the server started before the crash complete
                // (batch-granular failure); only queued frames are at
                // the policy's mercy.
                Self::drain(
                    planned,
                    &mut sims[shard],
                    e.crash_ns,
                    exec_list,
                    cfg,
                    self.per_frame_ns,
                );
                let (migrated, rooms_at_crash) = route.crash(shard);
                *migrations += migrated;
                let draft = &mut drafts[k];
                draft.migrations_out = migrated;
                draft.rooms_at_crash = rooms_at_crash;
                let queue = std::mem::take(&mut sims[shard].queue);
                draft.queued_at_crash = queue.len() as u64;
                let policy = cfg
                    .crash
                    .as_ref()
                    .map(|c| c.policy)
                    .unwrap_or(CrashPolicy::Reroute);
                match policy {
                    CrashPolicy::Hold => {
                        draft.held = queue.len() as u64;
                        sims[shard].queue = queue;
                    }
                    CrashPolicy::Shed => {
                        draft.crash_lost = queue.len() as u64;
                        for (idx, _) in queue {
                            planned[idx].decision = Decision::CrashLost;
                        }
                    }
                    CrashPolicy::Reroute => {
                        for (idx, _) in queue {
                            let target = route.shard_for(planned[idx].room);
                            if route.is_down(target) || sims[target].queue.len() >= cfg.queue_cap {
                                // No surviving shard can absorb it.
                                planned[idx].decision = Decision::CrashLost;
                                draft.crash_lost += 1;
                            } else {
                                // The frame becomes the target's problem;
                                // it cannot start before the crash that
                                // moved it.
                                sims[target].queue.push_back((idx, e.crash_ns));
                                planned[idx].shard = target;
                                planned[idx].rerouted = true;
                                draft.rerouted += 1;
                            }
                        }
                    }
                }
                sims[shard].down = true;
                sims[shard].crashes += 1;
                sims[shard].throttled = false;
            }
            FailoverEvent::Restart(k) => {
                let e = crash_events[k];
                let shard = e.shard;
                let sim = &mut sims[shard];
                sim.down = false;
                sim.server_free_ns = sim.server_free_ns.max(e.restart_ns);
                // Recover the admission posture from the last checkpoint
                // that survived the crash; a shard that crashed before
                // any checkpoint boots with the configured knobs.
                match ckpts
                    .iter()
                    .rev()
                    .find(|c| c.shard == shard && c.taken_ns <= e.crash_ns)
                {
                    Some(ck) => {
                        sim.throttled = ck.throttled;
                        sim.adm.restore(ck);
                    }
                    None => {
                        sim.throttled = false;
                        sim.adm.reset();
                    }
                }
                *migrations += route.restart(shard);
            }
        }
    }

    /// Forms and schedules batches on one shard server up to virtual time
    /// `now`: while the server can start a batch no later than `now`, up
    /// to `batch_max` queued frames are dispatched as one unit. A downed
    /// shard serves nothing until its restart.
    fn drain(
        planned: &mut [PlannedDelivery],
        sim: &mut ShardSim,
        now: i64,
        exec_list: &mut Vec<usize>,
        cfg: &FleetConfig,
        per_frame_ns: u64,
    ) {
        if sim.down {
            return;
        }
        while let Some(&(_, ready_ns)) = sim.queue.front() {
            let start = sim.server_free_ns.max(ready_ns);
            if start > now {
                break;
            }
            let take = sim.queue.len().min(cfg.batch_max.max(1));
            let service_ns = cfg.batch_overhead_ns + per_frame_ns * take as u64;
            let completion_ns = start.saturating_add(service_ns as i64);
            for _ in 0..take {
                let (idx, _) = sim.queue.pop_front().expect("batch members queued");
                let exec_idx = exec_list.len();
                exec_list.push(idx);
                planned[idx].decision = Decision::Execute {
                    exec_idx,
                    completion_ns,
                };
            }
            sim.server_free_ns = completion_ns;
        }
    }

    /// Phase 2 (parallel): run every scheduled frame's attempt loop across
    /// the pool. Execution order never affects results — each attempt
    /// loop restores its CPU from the pristine base and is a pure
    /// function of `(frame, stall)`.
    fn execute(
        &self,
        planned: &[PlannedDelivery],
        exec_list: &[usize],
        pool: &mut CpuPool,
    ) -> Vec<AttemptOutcome> {
        pool.map(exec_list.len(), |k, cpu, base| {
            let p = &planned[exec_list[k]];
            let tick = &self.nodes[p.msg.node].stream.ticks[p.msg.seq];
            let frame = tick.frame.as_deref().expect("executed ticks carry data");
            self.supervised.attempt_frame(cpu, base, frame, tick.stall)
        })
    }

    /// Phase 3 (serial): replay outcomes in arrival order through the
    /// same failover timeline (checkpoint fills, crash rollbacks), node
    /// health windows, quarantine hysteresis and room fusion, and fold
    /// everything into the report.
    fn fold(&self, plan: PlanOutput, execs: Vec<AttemptOutcome>) -> FleetReport {
        let PlanOutput {
            planned,
            sims,
            exec_list: _,
            crash_events,
            timeline,
            mut ckpts,
            drafts,
            migrations,
        } = plan;
        let cfg = &self.cfg;
        let budget = &cfg.resilience.error_budget;
        let max_retries = cfg.resilience.retry.max_retries;
        let clock_hz = cfg.resilience.clock_hz.max(1);
        let mut states: Vec<NodeState> = (0..self.nodes.len())
            .map(|_| NodeState::new(cfg.resilience.voter_window))
            .collect();
        // Which nodes report into each room — the crash rollback scope.
        let mut room_nodes: Vec<Vec<usize>> = vec![Vec::new(); cfg.rooms];
        for node in &self.nodes {
            room_nodes[node.room].push(node.id);
        }
        let mut shard_latency: Vec<HistogramCounts> =
            (0..cfg.shards).map(|_| HistogramCounts::empty()).collect();
        let mut room_totals = vec![0usize; cfg.rooms];
        let mut building = 0usize;
        let mut changes: Vec<OccupancyChange> = Vec::new();
        let mut deliveries: Vec<Delivery> = Vec::with_capacity(planned.len());
        // Earliest fused completion each crashed shard managed after its
        // restart (the recovery-time metric).
        let mut recovery_min: Vec<Option<i64>> = vec![None; crash_events.len()];
        let mut ti = 0usize;
        let mut ci = 0usize;
        for (i, p) in planned.iter().enumerate() {
            while ti < timeline.len() && timeline[ti].0 <= p.msg.arrival_ns {
                Self::apply_fold_event(
                    timeline[ti],
                    cfg,
                    &crash_events,
                    &drafts,
                    &mut ckpts,
                    &mut ci,
                    &mut states,
                    &room_nodes,
                );
                ti += 1;
            }
            let ns = &mut states[p.msg.node];
            ns.deliveries += 1;
            if p.rerouted {
                ns.rerouted += 1;
            }
            let (status, prediction, latency_ns) = match p.decision {
                Decision::Gap => {
                    ns.gaps += 1;
                    (DeliveryStatus::Gap, None, None)
                }
                Decision::Shed => {
                    ns.shed += 1;
                    (DeliveryStatus::Shed, None, None)
                }
                Decision::Downsampled => {
                    ns.downsampled += 1;
                    (DeliveryStatus::Downsampled, None, None)
                }
                Decision::CrashLost => {
                    ns.crash_lost += 1;
                    (DeliveryStatus::CrashLost, None, None)
                }
                Decision::Queued => unreachable!("final drain resolves every queued frame"),
                Decision::Execute {
                    exec_idx,
                    completion_ns,
                } => {
                    let exec = &execs[exec_idx];
                    let retries = exec.failed_attempts.min(max_retries);
                    let backoff_ms = self.supervised.total_backoff_ms(i, retries);
                    ns.retries += retries as u64;
                    ns.cpu_resets += exec.failed_attempts as u64;
                    // Retry overhead is charged to the affected request
                    // alone (attributable tail latency) — it never shifts
                    // the planned schedule, which keeps the admission
                    // plan independent of execution.
                    let extra_ns = if exec.failed_attempts > 0 {
                        let recovery_ns = exec.wasted_cycles.saturating_mul(1_000_000_000)
                            / clock_hz
                            + backoff_ms * 1_000_000;
                        ns.recovery_counts.record(recovery_ns);
                        recovery_ns
                    } else {
                        0
                    };
                    let completion = completion_ns.saturating_add(extra_ns as i64);
                    let latency = completion.saturating_sub(p.msg.arrival_ns).max(0) as u64;
                    match &exec.run {
                        Some(run) => {
                            if exec.failed_attempts == 0 {
                                ns.ok += 1;
                                (DeliveryStatus::Ok, Some(run.prediction), Some(latency))
                            } else {
                                ns.recovered += 1;
                                (
                                    DeliveryStatus::Recovered {
                                        failed_attempts: exec.failed_attempts,
                                    },
                                    Some(run.prediction),
                                    Some(latency),
                                )
                            }
                        }
                        None => {
                            ns.fallback += 1;
                            (DeliveryStatus::Fallback, None, Some(latency))
                        }
                    }
                }
            };
            if let Some(lat) = latency_ns {
                shard_latency[p.shard].record(lat);
                pcount_telemetry::histogram(slo::FLEET_REQUEST_LATENCY).record(lat);
            }
            pcount_telemetry::histogram(slo::FLEET_QUEUE_DEPTH).record(p.depth_after as u64);
            // Fusion is judged against the quarantine state at delivery
            // time; the health update below only affects later frames.
            let was_quarantined = ns.quarantined;
            let mut fused = false;
            let new_contrib = match prediction {
                Some(pred) => {
                    let est = ns.voter.push(pred);
                    ns.last_good = Some(est);
                    if was_quarantined {
                        ns.quarantined_frames += 1;
                        ns.contrib
                    } else {
                        fused = true;
                        ns.fused += 1;
                        est
                    }
                }
                None => {
                    let est = ns.voter.push_missing().or(ns.last_good).unwrap_or(0);
                    if status.executed() && was_quarantined {
                        ns.quarantined_frames += 1;
                    }
                    if was_quarantined {
                        // Quarantined rooms hold their last trusted value.
                        ns.contrib
                    } else {
                        est
                    }
                }
            };
            if fused {
                if let Some(lat) = latency_ns {
                    let completion = p.msg.arrival_ns.saturating_add(lat as i64);
                    for (k, e) in crash_events.iter().enumerate() {
                        if e.shard == p.shard && completion >= e.restart_ns {
                            recovery_min[k] = Some(match recovery_min[k] {
                                Some(best) => best.min(completion),
                                None => completion,
                            });
                        }
                    }
                }
            }
            if new_contrib != ns.contrib {
                room_totals[p.room] = room_totals[p.room] - ns.contrib + new_contrib;
                building = building - ns.contrib + new_contrib;
                ns.contrib = new_contrib;
                changes.push(OccupancyChange {
                    seq: i as u64,
                    room: p.room as u32,
                    room_count: room_totals[p.room] as u32,
                    building: building as u32,
                });
            }
            // Health accounting: only node-caused outcomes move the
            // detector (shed/downsampled/crash-lost frames are the
            // service's doing).
            let health_sample = match status {
                DeliveryStatus::Gap => Some(1u8),
                DeliveryStatus::Fallback => Some(2u8),
                DeliveryStatus::Ok | DeliveryStatus::Recovered { .. } => Some(0u8),
                DeliveryStatus::Shed | DeliveryStatus::Downsampled | DeliveryStatus::CrashLost => {
                    None
                }
            };
            if let Some(sample) = health_sample {
                if ns.quarantined {
                    if sample == 0 {
                        ns.clean_streak += 1;
                        if ns.clean_streak >= cfg.readmit_after {
                            ns.quarantined = false;
                            ns.readmissions += 1;
                            ns.clean_streak = 0;
                            ns.window.clear();
                        }
                    } else {
                        ns.clean_streak = 0;
                    }
                } else {
                    ns.window.push_back(sample);
                    if ns.window.len() > cfg.health_window {
                        ns.window.pop_front();
                    }
                    if ns.window.len() == cfg.health_window {
                        let snapshot = ns.window_snapshot(budget);
                        if snapshot.error_budget_burn_milli >= cfg.quarantine_burn_milli {
                            ns.quarantined = true;
                            ns.trips += 1;
                            ns.clean_streak = 0;
                            ns.window.clear();
                        }
                    }
                }
            }
            deliveries.push(Delivery {
                msg: p.msg,
                room: p.room,
                shard: p.shard,
                status,
                queue_depth_after: p.depth_after,
                latency_ns,
                quarantined: was_quarantined,
                fused,
                rerouted: p.rerouted,
            });
        }
        while ti < timeline.len() {
            Self::apply_fold_event(
                timeline[ti],
                cfg,
                &crash_events,
                &drafts,
                &mut ckpts,
                &mut ci,
                &mut states,
                &room_nodes,
            );
            ti += 1;
        }
        // Finalise the recovery metric: first post-restart fused
        // completion, or the bare downtime when nothing arrived to prove
        // recovery.
        let mut recovery_counts = HistogramCounts::empty();
        let crash_reports: Vec<CrashReport> = crash_events
            .iter()
            .zip(drafts.iter())
            .enumerate()
            .map(|(k, (e, draft))| {
                let recovery_ns = match recovery_min[k] {
                    Some(completion) => completion.saturating_sub(e.crash_ns).max(0) as u64,
                    None => e.restart_ns.saturating_sub(e.crash_ns).max(0) as u64,
                };
                recovery_counts.record(recovery_ns);
                pcount_telemetry::histogram(slo::FLEET_RECOVERY_LATENCY).record(recovery_ns);
                CrashReport {
                    shard: e.shard,
                    crash_ns: e.crash_ns,
                    restart_ns: e.restart_ns,
                    queued_at_crash: draft.queued_at_crash,
                    crash_lost: draft.crash_lost,
                    rerouted: draft.rerouted,
                    held: draft.held,
                    migrations_out: draft.migrations_out,
                    recovery_ns,
                }
            })
            .collect();
        self.reports(
            states,
            sims,
            shard_latency,
            deliveries,
            changes,
            room_totals,
            crash_reports,
            recovery_counts,
            crash_events.len() as u64,
            migrations,
            ckpts.len() as u64,
        )
    }

    /// Applies one failover-timeline event to the fold state: checkpoint
    /// boundaries capture every in-scope node's fusion/health estimator
    /// into the plan's [`ShardCheckpoint`]s, crashes roll the affected
    /// nodes back to their last checkpointed estimator (hold-last-good
    /// keeps the emitted contribution), restarts need nothing — the
    /// recovered state already lives forward from the rollback.
    #[allow(clippy::too_many_arguments)]
    fn apply_fold_event(
        (t, ev): (i64, FailoverEvent),
        cfg: &FleetConfig,
        crash_events: &[CrashEvent],
        drafts: &[CrashDraft],
        ckpts: &mut [ShardCheckpoint],
        ci: &mut usize,
        states: &mut [NodeState],
        room_nodes: &[Vec<usize>],
    ) {
        match ev {
            FailoverEvent::Checkpoint => {
                while *ci < ckpts.len() && ckpts[*ci].taken_ns == t {
                    let ckpt = &mut ckpts[*ci];
                    for &room in &ckpt.rooms {
                        for &node in &room_nodes[room as usize] {
                            let ns = &states[node];
                            ckpt.nodes.push(crate::failover::NodeFusionCkpt {
                                node,
                                voter: ns.voter.clone(),
                                last_good: ns.last_good,
                                health: ns.window.clone(),
                                quarantined: ns.quarantined,
                                clean_streak: ns.clean_streak,
                            });
                        }
                    }
                    *ci += 1;
                }
            }
            FailoverEvent::Crash(k) => {
                let crash_ns = crash_events[k].crash_ns;
                for &room in &drafts[k].rooms_at_crash {
                    for &node in &room_nodes[room as usize] {
                        // The crashed shard's in-memory estimator since
                        // the last checkpoint is gone; whoever serves the
                        // room next resumes from the checkpoint store.
                        let recovered = ckpts[..*ci]
                            .iter()
                            .rev()
                            .filter(|c| c.taken_ns <= crash_ns)
                            .find_map(|c| c.node(node).cloned());
                        match recovered {
                            Some(ck) => states[node].restore(&ck),
                            None => states[node].reset_estimator(cfg.resilience.voter_window),
                        }
                    }
                }
            }
            FailoverEvent::Restart(_) => {}
        }
    }

    /// Assembles node/shard/fleet reports and mirrors the run's totals
    /// into the global `fleet/*` telemetry instruments.
    #[allow(clippy::too_many_arguments)]
    fn reports(
        &self,
        states: Vec<NodeState>,
        sims: Vec<ShardSim>,
        shard_latency: Vec<HistogramCounts>,
        deliveries: Vec<Delivery>,
        changes: Vec<OccupancyChange>,
        room_totals: Vec<usize>,
        crash_reports: Vec<CrashReport>,
        recovery_counts: HistogramCounts,
        crashes: u64,
        migrations: u64,
        checkpoints: u64,
    ) -> FleetReport {
        let cfg = &self.cfg;
        let budget = &cfg.resilience.error_budget;
        let node_reports: Vec<NodeReport> = self
            .nodes
            .iter()
            .zip(states.iter())
            .map(|(node, ns)| NodeReport {
                node: node.id,
                room: node.room,
                shard: node.shard,
                deliveries: ns.deliveries,
                gaps: ns.gaps,
                shed: ns.shed,
                downsampled: ns.downsampled,
                crash_lost: ns.crash_lost,
                rerouted: ns.rerouted,
                ok: ns.ok,
                recovered: ns.recovered,
                fallback: ns.fallback,
                fused: ns.fused,
                quarantined_frames: ns.quarantined_frames,
                quarantine_trips: ns.trips,
                readmissions: ns.readmissions,
                retries: ns.retries,
                cpu_resets: ns.cpu_resets,
                burn_milli: budget.burn_milli(ns.degraded(), ns.deliveries),
                slo: ns.run_snapshot(budget),
            })
            .collect();
        let shard_reports: Vec<ShardReport> = (0..cfg.shards)
            .map(|shard| {
                let members: Vec<&NodeState> = self
                    .nodes
                    .iter()
                    .zip(states.iter())
                    .filter(|(n, _)| n.shard == shard)
                    .map(|(_, s)| s)
                    .collect();
                // The shard SLO is the associative fold of its nodes'
                // snapshots; the burn pools every node's frames so a big
                // healthy node cannot mask a small sick one.
                let slo = members.iter().fold(SloSnapshot::default(), |acc, s| {
                    acc.merge(&s.run_snapshot(budget))
                });
                let burn_milli =
                    budget.burn_milli_total(members.iter().map(|s| (s.degraded(), s.deliveries)));
                let sim = &sims[shard];
                ShardReport {
                    shard,
                    nodes: members.len(),
                    queue_depth_peak: sim.peak_depth as u64,
                    queue_depth: sim.depth_counts.summarize(),
                    latency: shard_latency[shard].summarize(),
                    latency_counts: shard_latency[shard].clone(),
                    burn_milli,
                    slo,
                    crashes: sim.crashes,
                    adaptive_tightens: sim.adm.tightens,
                    adaptive_relaxes: sim.adm.relaxes,
                    high_watermark: sim.adm.eff_high,
                    downsample_stride: sim.adm.stride,
                }
            })
            .collect();
        let totals = ServeTotals {
            requests: states.iter().map(|s| s.deliveries - s.gaps).sum(),
            admitted: states.iter().map(|s| s.admitted()).sum(),
            shed: states.iter().map(|s| s.shed).sum(),
            downsampled: states.iter().map(|s| s.downsampled).sum(),
            gaps: states.iter().map(|s| s.gaps).sum(),
            fused: states.iter().map(|s| s.fused).sum(),
            quarantined_frames: states.iter().map(|s| s.quarantined_frames).sum(),
            quarantine_trips: states.iter().map(|s| s.trips).sum(),
            readmissions: states.iter().map(|s| s.readmissions).sum(),
            crash_lost: states.iter().map(|s| s.crash_lost).sum(),
            rerouted: states.iter().map(|s| s.rerouted).sum(),
            crashes,
            migrations,
            checkpoints,
        };
        for (name, value) in totals.as_counters() {
            if value > 0 {
                pcount_telemetry::counter(name).add(value);
            }
        }
        let queue_depth_peak = sims.iter().map(|s| s.peak_depth).max().unwrap_or(0) as u64;
        let worst_burn = shard_reports
            .iter()
            .map(|s| s.burn_milli)
            .max()
            .unwrap_or(0);
        pcount_telemetry::gauge(slo::FLEET_QUEUE_DEPTH_PEAK).set(queue_depth_peak as i64);
        pcount_telemetry::gauge(slo::FLEET_ERROR_BUDGET_BURN).set(worst_burn);
        let tightest_high = sims
            .iter()
            .map(|s| s.adm.eff_high)
            .min()
            .unwrap_or(cfg.high_watermark);
        let widest_stride = sims.iter().map(|s| s.adm.stride).max().unwrap_or(2);
        pcount_telemetry::gauge(slo::FLEET_ADAPTIVE_HIGH_WATERMARK).set(tightest_high as i64);
        pcount_telemetry::gauge(slo::FLEET_ADAPTIVE_DOWNSAMPLE_STRIDE).set(widest_stride as i64);
        let latency_counts = shard_latency
            .iter()
            .fold(HistogramCounts::empty(), |acc, c| acc.merge(c));
        let queue_depth_counts = sims.iter().fold(HistogramCounts::empty(), |acc, s| {
            acc.merge(&s.depth_counts)
        });
        let occupancy =
            OccupancyTrajectory::new(changes, room_totals.iter().map(|&r| r as u32).collect());
        FleetReport {
            nodes: cfg.nodes,
            rooms: cfg.rooms,
            shards: cfg.shards,
            per_frame_ns: self.per_frame_ns,
            totals,
            latency: latency_counts.summarize(),
            latency_counts,
            queue_depth: queue_depth_counts.summarize(),
            queue_depth_peak,
            worst_shard_burn_milli: worst_burn,
            crash_reports,
            recovery: recovery_counts.summarize(),
            recovery_counts,
            shard_reports,
            node_reports,
            deliveries,
            occupancy,
        }
    }
}
