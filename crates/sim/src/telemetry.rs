//! Telemetry: structured simulation-event publishing plus windowed
//! time-series metrics.
//!
//! Every internal transition of the simulator — packet hops, LSU
//! floods, successor-set changes, allocation shifts, faults and their
//! recoveries — can be published as a [`SimEvent`] to a single
//! [`SimObserver`] installed through [`crate::SimConfig::observer`]
//! (the `EventsPublisher` idiom of the large agent-based traffic
//! simulators). Observation is strictly passive: an observer never
//! touches the RNG or the event queue, so an observer-off run is
//! byte-identical to an observer-on run minus the
//! [`crate::SimReport::telemetry`] field — asserted, not assumed, by
//! the `observer_invariance` integration tests.
//!
//! Four observers ship with the crate:
//!
//! * [`NullObserver`] — counts events and drops them (overhead floor);
//! * [`RecordingObserver`] — keeps the full ordered event sequence
//!   (golden-trace tests);
//! * [`MetricsHub`] — windowed time-series collectors: per-link
//!   utilization and marginal-delay timelines, per-destination
//!   routing-churn counters, a mergeable fixed-bucket delay histogram,
//!   and convergence traces (fault → control-plane-quiescence spans);
//! * [`JsonlSink`] — deterministic on-disk timelines for offline
//!   analysis (`mdr-bench trace`).

use crate::chaos::FaultEvent;
use mdr_flow::{AllocHeuristic, AllocOutcome};
use mdr_net::{LinkId, NodeId};
use mdr_routing::RouteChange;
use serde::Serialize;
use std::fs::File;
use std::io::{BufWriter, Write as _};

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum DropReason {
    /// Empty successor set or the chosen next hop sat behind a dead
    /// link (the "blackhole" cases).
    NoRoute,
    /// The defensive hop budget ran out (a forwarding loop existed).
    Ttl,
    /// The packet reached a crashed router.
    Crashed,
}

/// One structured simulation occurrence, stamped with the simulated
/// time it happened at. Data-plane variants (`Packet*`) fire per
/// packet; everything else is control-plane rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SimEvent {
    /// A packet finished serialization on a directed link.
    PacketHop {
        /// Simulated time (s).
        time: f64,
        /// Flow index.
        flow: u32,
        /// The transmitting link.
        link: LinkId,
        /// Transmitting router.
        from: NodeId,
        /// Receiving router.
        to: NodeId,
        /// Packet length in bits.
        bits: f64,
        /// Queueing + transmission time on this link (s).
        queue_delay: f64,
    },
    /// A packet reached its destination.
    PacketDelivered {
        /// Simulated time (s).
        time: f64,
        /// Flow index.
        flow: u32,
        /// The destination router.
        node: NodeId,
        /// End-to-end delay (s).
        delay: f64,
    },
    /// A packet was dropped.
    PacketDropped {
        /// Simulated time (s).
        time: f64,
        /// Flow index.
        flow: u32,
        /// Router where the drop happened.
        node: NodeId,
        /// Why.
        reason: DropReason,
    },
    /// An LSU was put on the wire (after any link-layer ARQ resolved).
    LsuSent {
        /// Simulated time (s).
        time: f64,
        /// Transmitting router.
        from: NodeId,
        /// Receiving neighbor.
        to: NodeId,
        /// Wire bytes charged (all attempts).
        bytes: u64,
        /// Transmission attempts (1 unless control chaos was active).
        attempts: u64,
    },
    /// An LSU was delivered to a router.
    LsuReceived {
        /// Simulated time (s).
        time: f64,
        /// Receiving router.
        node: NodeId,
        /// Sending neighbor.
        from: NodeId,
        /// Topology entries carried.
        entries: u64,
        /// Acknowledgment flag.
        ack: bool,
    },
    /// A router's successor set toward a destination changed.
    RouteChange {
        /// Simulated time (s).
        time: f64,
        /// The router whose table changed.
        node: NodeId,
        /// Destination.
        dest: NodeId,
        /// Successor set before the change (ascending address order).
        old: Vec<NodeId>,
        /// Successor set after the change.
        new: Vec<NodeId>,
    },
    /// A flow-allocation heuristic moved traffic mass.
    AllocShift {
        /// Simulated time (s).
        time: f64,
        /// The allocating router.
        node: NodeId,
        /// Destination.
        dest: NodeId,
        /// Which heuristic ran.
        heuristic: AllocHeuristic,
        /// Total traffic fraction moved (half the L1 distance between
        /// the old and new routing parameters; in `[0, 1]`).
        shift: f64,
    },
    /// A `T_s` measurement window closed with a fresh marginal-delay
    /// estimate for one adjacent link.
    #[serde(rename = "link_cost")]
    LinkCostSample {
        /// Simulated time (s).
        time: f64,
        /// The measuring router.
        node: NodeId,
        /// The measured (outgoing) link.
        link: LinkId,
        /// Marginal-delay estimate (s per unit flow).
        cost: f64,
    },
    /// A scripted traffic change took effect.
    TrafficChange {
        /// Simulated time (s).
        time: f64,
        /// Flow index.
        flow: u32,
        /// New offered rate (bits/s).
        rate: f64,
    },
    /// A perturbation was injected (scheduled chaos or scripted
    /// scenario link failure/repair).
    Fault {
        /// Simulated time (s).
        time: f64,
        /// The perturbation.
        event: FaultEvent,
    },
    /// A fault's recovery clock closed: the control plane quiesced
    /// after the perturbation injected at `fault_time`.
    Recovery {
        /// Simulated time (s) — the quiescence instant.
        time: f64,
        /// When the fault was injected.
        fault_time: f64,
        /// `time - fault_time`.
        recovery_s: f64,
    },
    /// The control plane transitioned into quiescence: no LSU in
    /// flight and every router PASSIVE.
    ControlQuiescent {
        /// Simulated time (s).
        time: f64,
    },
}

impl SimEvent {
    /// The simulated time this event is stamped with.
    pub fn time(&self) -> f64 {
        match *self {
            SimEvent::PacketHop { time, .. }
            | SimEvent::PacketDelivered { time, .. }
            | SimEvent::PacketDropped { time, .. }
            | SimEvent::LsuSent { time, .. }
            | SimEvent::LsuReceived { time, .. }
            | SimEvent::RouteChange { time, .. }
            | SimEvent::AllocShift { time, .. }
            | SimEvent::LinkCostSample { time, .. }
            | SimEvent::TrafficChange { time, .. }
            | SimEvent::Fault { time, .. }
            | SimEvent::Recovery { time, .. }
            | SimEvent::ControlQuiescent { time } => time,
        }
    }

    /// Stable snake-case label of the variant (the `kind` tag of the
    /// serialized encodings).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::PacketHop { .. } => "packet_hop",
            SimEvent::PacketDelivered { .. } => "packet_delivered",
            SimEvent::PacketDropped { .. } => "packet_dropped",
            SimEvent::LsuSent { .. } => "lsu_sent",
            SimEvent::LsuReceived { .. } => "lsu_received",
            SimEvent::RouteChange { .. } => "route_change",
            SimEvent::AllocShift { .. } => "alloc_shift",
            SimEvent::LinkCostSample { .. } => "link_cost",
            SimEvent::TrafficChange { .. } => "traffic_change",
            SimEvent::Fault { .. } => "fault",
            SimEvent::Recovery { .. } => "recovery",
            SimEvent::ControlQuiescent { .. } => "control_quiescent",
        }
    }

    /// True for the per-packet variants, which dominate event volume —
    /// sinks tracing only routing behaviour filter on this.
    pub fn is_data_plane(&self) -> bool {
        matches!(
            self,
            SimEvent::PacketHop { .. }
                | SimEvent::PacketDelivered { .. }
                | SimEvent::PacketDropped { .. }
        )
    }
}

/// Allocation mass below this is "no shift".
pub(crate) const SHIFT_EPS: f64 = 1e-12;

/// Publish what one control-plane step at `node` moved, in the order
/// every trace carries it: the route changes, then each allocator pass
/// that actually shifted traffic mass.
pub(crate) fn publish_step(
    o: &mut dyn SimObserver,
    time: f64,
    node: NodeId,
    changed: Vec<RouteChange>,
    allocs: &[(NodeId, AllocOutcome)],
) {
    for c in changed {
        o.on_event(&SimEvent::RouteChange { time, node, dest: c.dest, old: c.old, new: c.new });
    }
    for &(dest, a) in allocs {
        if let (Some(heuristic), true) = (a.heuristic, a.shift > SHIFT_EPS) {
            o.on_event(&SimEvent::AllocShift { time, node, dest, heuristic, shift: a.shift });
        }
    }
}

/// The observer interface: one callback per [`SimEvent`], in exact
/// simulation order, plus a terminal [`SimObserver::finish`] that folds
/// the observer into the run's [`TelemetryReport`].
///
/// Implementations must be passive — no panics on odd event orders, no
/// feedback into the simulation (the trait offers no channel for any).
pub trait SimObserver: std::fmt::Debug + Send {
    /// Observe one event. Called for every event, data plane included;
    /// observers that only care about routing behaviour should filter
    /// with [`SimEvent::is_data_plane`].
    fn on_event(&mut self, ev: &SimEvent);

    /// Consume the observer, producing its slice of the report.
    fn finish(self: Box<Self>) -> TelemetryReport;
}

/// Declarative observer selection carried by [`crate::SimConfig`] (the
/// config must stay `Clone` for the batch harness, so it holds a spec,
/// not a live observer).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ObserverMode {
    /// No observer at all: the hot paths pay one `None` check and the
    /// run is byte-identical to a pre-telemetry build.
    #[default]
    Off,
    /// Count events, keep nothing (the observation overhead floor).
    Null,
    /// Record the full ordered event sequence in memory.
    Recording {
        /// Include the per-packet events (they dominate volume).
        data_plane: bool,
    },
    /// Aggregate windowed time-series metrics ([`MetricsHub`]).
    Metrics {
        /// Time-series bucket width (s).
        bucket: f64,
    },
    /// Stream events as JSON Lines to a file.
    Jsonl {
        /// Output path (created/truncated).
        path: String,
        /// Include the per-packet events.
        data_plane: bool,
    },
}

impl ObserverMode {
    /// Instantiate the configured observer (`None` for [`ObserverMode::Off`]).
    ///
    /// # Panics
    /// Panics when a sink file cannot be created — telemetry runs are
    /// experiments; failing loudly beats silently tracing nothing.
    pub fn build(&self) -> Option<Box<dyn SimObserver>> {
        match self {
            ObserverMode::Off => None,
            ObserverMode::Null => Some(Box::new(NullObserver::default())),
            ObserverMode::Recording { data_plane } => {
                Some(Box::new(RecordingObserver::new(*data_plane)))
            }
            ObserverMode::Metrics { bucket } => Some(Box::new(MetricsHub::new(*bucket))),
            ObserverMode::Jsonl { path, data_plane } => {
                Some(Box::new(JsonlSink::create(path, *data_plane)))
            }
        }
    }
}

/// What a run's observer measured; `Some` on [`crate::SimReport`]
/// exactly when [`crate::SimConfig::observer`] was not
/// [`ObserverMode::Off`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Events the observer accepted (post any data-plane filter).
    pub events: u64,
    /// The recorded sequence ([`RecordingObserver`] only).
    pub recorded: Option<Vec<SimEvent>>,
    /// Aggregated metrics ([`MetricsHub`]).
    pub metrics: Option<MetricsReport>,
    /// On-disk sink summary ([`JsonlSink`]).
    pub sink: Option<SinkSummary>,
}

/// Where a sink wrote and how much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSummary {
    /// Output file path.
    pub path: String,
    /// Lines (events) written.
    pub lines: u64,
}

/// Counts events, keeps nothing.
#[derive(Debug, Default)]
pub struct NullObserver {
    events: u64,
}

impl SimObserver for NullObserver {
    fn on_event(&mut self, _ev: &SimEvent) {
        self.events += 1;
    }

    fn finish(self: Box<Self>) -> TelemetryReport {
        TelemetryReport { events: self.events, ..Default::default() }
    }
}

/// Records the full ordered event sequence (tests, golden traces).
#[derive(Debug, Default)]
pub struct RecordingObserver {
    data_plane: bool,
    events: Vec<SimEvent>,
}

impl RecordingObserver {
    /// A recorder; `data_plane: false` skips the per-packet events.
    pub fn new(data_plane: bool) -> Self {
        RecordingObserver { data_plane, events: Vec::new() }
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }
}

impl SimObserver for RecordingObserver {
    fn on_event(&mut self, ev: &SimEvent) {
        if self.data_plane || !ev.is_data_plane() {
            self.events.push(ev.clone());
        }
    }

    fn finish(self: Box<Self>) -> TelemetryReport {
        TelemetryReport {
            events: self.events.len() as u64,
            recorded: Some(self.events),
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

/// A fixed-bucket histogram over `[lo, lo + width·buckets)`, with
/// explicit under/overflow counters so it is **lossless on counts**:
/// `total()` equals the number of `record` calls, always. Two
/// histograms of the same shape [`FixedHistogram::merge`] by bucketwise
/// addition — associative and commutative, so per-shard histograms fold
/// in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the top edge (NaN lands here too — it is
    /// counted, never silently dropped).
    pub overflow: u64,
}

impl FixedHistogram {
    /// A histogram of `buckets` buckets of `width` starting at `lo`.
    ///
    /// # Panics
    /// Panics unless `width > 0`, `buckets > 0`, and `lo` is finite.
    pub fn new(lo: f64, width: f64, buckets: usize) -> Self {
        assert!(lo.is_finite() && width > 0.0 && width.is_finite() && buckets > 0);
        FixedHistogram { lo, width, counts: vec![0; buckets], underflow: 0, overflow: 0 }
    }

    /// Count one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let i = ((x - self.lo) / self.width) as usize;
        // NaN fails the `< lo` test and casts to 0 — route it (and
        // anything past the top edge) to overflow explicitly.
        if x.is_nan() || i >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[i] += 1;
        }
    }

    /// Fold `other` into `self` bucketwise.
    ///
    /// # Panics
    /// Panics when the shapes (lo, width, bucket count) differ.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.lo == other.lo
                && self.width == other.width
                && self.counts.len() == other.counts.len(),
            "histogram shape mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Total samples recorded (buckets + underflow + overflow).
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Lower edge of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> f64 {
        self.lo + self.width * i as f64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as a bucket lower edge; `None`
    /// on an empty histogram. Underflow counts toward `lo`, overflow
    /// toward the top edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_start(i));
            }
        }
        Some(self.bucket_start(self.counts.len()))
    }
}

/// A time-bucketed accumulator: every `(t, v)` sample lands in bucket
/// `⌊t / bucket⌋` as a `(count, sum)` pair. The vector grows to fit any
/// finite non-negative time, so **no sample is ever dropped**, whatever
/// order they arrive in.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket: f64,
    acc: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// A series with buckets of `bucket` seconds.
    ///
    /// # Panics
    /// Panics unless `bucket` is positive and finite.
    pub fn new(bucket: f64) -> Self {
        assert!(bucket > 0.0 && bucket.is_finite(), "bucket width must be positive");
        TimeSeries { bucket, acc: Vec::new() }
    }

    /// Record `v` at time `t` (negative `t` clamps to bucket 0).
    pub fn record(&mut self, t: f64, v: f64) {
        let i = if t <= 0.0 { 0 } else { (t / self.bucket) as usize };
        if i >= self.acc.len() {
            self.acc.resize(i + 1, (0, 0.0));
        }
        let e = &mut self.acc[i];
        e.0 += 1;
        e.1 += v;
    }

    /// Bucket width (s).
    pub fn bucket_width(&self) -> f64 {
        self.bucket
    }

    /// Number of buckets spanned so far.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Samples recorded across all buckets.
    pub fn total_count(&self) -> u64 {
        self.acc.iter().map(|e| e.0).sum()
    }

    /// Sum of all recorded values.
    pub fn total_sum(&self) -> f64 {
        self.acc.iter().map(|e| e.1).sum()
    }

    /// `(bucket_start, count, sum)` per bucket, in time order.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u64, f64)> + '_ {
        self.acc.iter().enumerate().map(|(i, &(c, s))| (i as f64 * self.bucket, c, s))
    }

    /// Mean value in bucket `i`, if it holds samples.
    pub fn mean_at(&self, i: usize) -> Option<f64> {
        let &(c, s) = self.acc.get(i)?;
        (c > 0).then(|| s / c as f64)
    }
}

/// An exponentially weighted moving average:
/// `y ← α·x + (1−α)·y`, seeded by the first sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An EWMA with smoothing factor `alpha`.
    ///
    /// # Panics
    /// Panics unless `0 < alpha ≤ 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Fold in one sample and return the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(y) => self.alpha * x + (1.0 - self.alpha) * y,
        };
        self.value = Some(v);
        v
    }

    /// The current average (`None` before the first sample).
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

// ---------------------------------------------------------------------
// MetricsHub
// ---------------------------------------------------------------------

/// Coarse fault taxonomy for convergence statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A physical link failed.
    LinkFail,
    /// A physical link was repaired.
    LinkRestore,
    /// A router crashed.
    RouterCrash,
    /// A router restarted.
    RouterRestart,
    /// A scripted partition cut a node-set boundary.
    PartitionCut,
    /// A scripted partition healed.
    PartitionHeal,
}

impl FaultClass {
    /// Classify a [`FaultEvent`].
    pub fn of(ev: FaultEvent) -> Self {
        match ev {
            FaultEvent::FailLink { .. } => FaultClass::LinkFail,
            FaultEvent::RestoreLink { .. } => FaultClass::LinkRestore,
            FaultEvent::CrashRouter { .. } => FaultClass::RouterCrash,
            FaultEvent::RestartRouter { .. } => FaultClass::RouterRestart,
            FaultEvent::PartitionCut { .. } => FaultClass::PartitionCut,
            FaultEvent::PartitionHeal { .. } => FaultClass::PartitionHeal,
        }
    }

    /// Stable snake-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::LinkFail => "link_fail",
            FaultClass::LinkRestore => "link_restore",
            FaultClass::RouterCrash => "router_crash",
            FaultClass::RouterRestart => "router_restart",
            FaultClass::PartitionCut => "partition_cut",
            FaultClass::PartitionHeal => "partition_heal",
        }
    }
}

/// One fault → quiescence span measured off the event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSample {
    /// Fault taxonomy.
    pub class: FaultClass,
    /// Injection time (s).
    pub fault_time: f64,
    /// Seconds until the control plane next quiesced.
    pub recovery_s: f64,
}

/// End-to-end delay histogram shape shared by every [`MetricsHub`]:
/// 2 ms buckets over `[0, 1 s)` — histograms from different runs of the
/// same experiment merge without negotiation.
pub const DELAY_HIST_BUCKETS: usize = 500;
/// Bucket width of the shared delay histogram (s).
pub const DELAY_HIST_WIDTH: f64 = 0.002;

/// Windowed time-series collectors fed off the event stream.
///
/// Per-link vectors are indexed by [`LinkId`]; per-destination vectors
/// by [`NodeId`]. Both grow lazily, so the hub needs no topology handle.
#[derive(Debug, Default)]
pub struct MetricsHub {
    bucket: f64,
    events: u64,
    link_util: Vec<TimeSeries>,
    link_cost: Vec<TimeSeries>,
    churn: Vec<u64>,
    delays: Option<FixedHistogram>,
    faults: Vec<(f64, FaultClass)>,
    convergence: Vec<ConvergenceSample>,
    quiescent_times: Vec<f64>,
}

impl MetricsHub {
    /// A hub with time-series buckets of `bucket` seconds.
    pub fn new(bucket: f64) -> Self {
        assert!(bucket > 0.0 && bucket.is_finite(), "bucket width must be positive");
        MetricsHub {
            bucket,
            delays: Some(FixedHistogram::new(0.0, DELAY_HIST_WIDTH, DELAY_HIST_BUCKETS)),
            ..Default::default()
        }
    }

    fn series_at(v: &mut Vec<TimeSeries>, i: usize, bucket: f64) -> &mut TimeSeries {
        while v.len() <= i {
            v.push(TimeSeries::new(bucket));
        }
        &mut v[i]
    }

    fn counter_at(v: &mut Vec<u64>, i: usize) -> &mut u64 {
        if v.len() <= i {
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    /// Snapshot the aggregates (also what [`SimObserver::finish`] returns).
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            bucket: self.bucket,
            link_util: self.link_util.clone(),
            link_cost: self.link_cost.clone(),
            churn: self.churn.clone(),
            delays: self
                .delays
                .clone()
                .unwrap_or_else(|| FixedHistogram::new(0.0, DELAY_HIST_WIDTH, DELAY_HIST_BUCKETS)),
            convergence: self.convergence.clone(),
            quiescent_times: self.quiescent_times.clone(),
        }
    }
}

impl SimObserver for MetricsHub {
    fn on_event(&mut self, ev: &SimEvent) {
        self.events += 1;
        match *ev {
            SimEvent::PacketHop { time, link, bits, .. } => {
                Self::series_at(&mut self.link_util, link.index(), self.bucket).record(time, bits);
            }
            SimEvent::PacketDelivered { time: _, delay, .. } => {
                if let Some(h) = self.delays.as_mut() {
                    h.record(delay);
                }
            }
            SimEvent::LinkCostSample { time, link, cost, .. } => {
                Self::series_at(&mut self.link_cost, link.index(), self.bucket).record(time, cost);
            }
            SimEvent::RouteChange { dest, .. } => {
                *Self::counter_at(&mut self.churn, dest.index()) += 1;
            }
            SimEvent::Fault { time, event } => {
                self.faults.push((time, FaultClass::of(event)));
            }
            SimEvent::Recovery { fault_time, recovery_s, .. } => {
                // `fault_time` is the exact injection stamp recorded at
                // the matching Fault event, so equality lookup is sound.
                let class = self
                    .faults
                    .iter()
                    .find(|&&(t, _)| t == fault_time)
                    .map(|&(_, c)| c)
                    .unwrap_or(FaultClass::LinkFail);
                self.convergence.push(ConvergenceSample { class, fault_time, recovery_s });
            }
            SimEvent::ControlQuiescent { time } => self.quiescent_times.push(time),
            _ => {}
        }
    }

    fn finish(self: Box<Self>) -> TelemetryReport {
        let events = self.events;
        TelemetryReport { events, metrics: Some(self.report()), ..Default::default() }
    }
}

/// The aggregates a [`MetricsHub`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Time-series bucket width (s).
    pub bucket: f64,
    /// Bits serialized per bucket, per directed link (utilization =
    /// sum / (bucket · capacity)).
    pub link_util: Vec<TimeSeries>,
    /// Marginal-delay samples per directed link.
    pub link_cost: Vec<TimeSeries>,
    /// Successor-set changes per destination (summed over routers).
    pub churn: Vec<u64>,
    /// End-to-end delay histogram (mergeable across runs).
    pub delays: FixedHistogram,
    /// Fault → quiescence spans.
    pub convergence: Vec<ConvergenceSample>,
    /// Every instant the control plane fell quiescent.
    pub quiescent_times: Vec<f64>,
}

impl MetricsReport {
    /// `(mean, max, count)` of recovery seconds for one fault class.
    pub fn convergence_stats(&self, class: FaultClass) -> (f64, f64, u64) {
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut n = 0u64;
        for c in self.convergence.iter().filter(|c| c.class == class) {
            sum += c.recovery_s;
            max = max.max(c.recovery_s);
            n += 1;
        }
        (if n > 0 { sum / n as f64 } else { 0.0 }, max, n)
    }

    /// Total successor-set changes across all destinations.
    pub fn total_churn(&self) -> u64 {
        self.churn.iter().sum()
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Streams each accepted event as one JSON object per line.
///
/// The encoding is fully deterministic (insertion-ordered maps,
/// shortest-roundtrip float formatting), so two runs of the same
/// configuration produce byte-identical files — the `trace` experiment
/// asserts exactly that.
#[derive(Debug)]
pub struct JsonlSink {
    path: String,
    data_plane: bool,
    out: BufWriter<File>,
    lines: u64,
}

impl JsonlSink {
    /// Create (truncating) the sink file.
    ///
    /// # Panics
    /// Panics when the file cannot be created.
    pub fn create(path: &str, data_plane: bool) -> Self {
        let f = File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        JsonlSink { path: path.to_string(), data_plane, out: BufWriter::new(f), lines: 0 }
    }

    /// Write any serializable record as one JSON line. This is the
    /// whole sink minus the [`SimEvent`] coupling — the `mdr-node`
    /// deployment streams its per-process telemetry records through the
    /// same writer, so live traces inherit the determinism guarantee
    /// (insertion-ordered maps, shortest-roundtrip floats) the trace
    /// tests pin down.
    ///
    /// # Panics
    /// Panics on I/O failure: telemetry runs are experiments; failing
    /// loudly beats silently tracing nothing.
    pub fn write_record<T: Serialize>(&mut self, rec: &T) {
        let line = serde_json::to_string(rec).expect("record serialization is infallible");
        writeln!(self.out, "{line}").expect("jsonl sink write");
        self.lines += 1;
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush buffered lines to disk without closing. The `mdr-node`
    /// soak harness kills processes with SIGKILL; flushing after every
    /// record bounds trace loss to the line in flight.
    ///
    /// # Panics
    /// Panics when the flush fails.
    pub fn flush(&mut self) {
        self.out.flush().expect("jsonl sink flush");
    }

    /// Flush and close the sink outside the [`SimObserver`] life cycle
    /// (the deployment has no simulation run to `finish`).
    ///
    /// # Panics
    /// Panics when the flush fails.
    pub fn close(mut self) -> SinkSummary {
        self.out.flush().expect("jsonl sink flush");
        SinkSummary { path: self.path, lines: self.lines }
    }
}

impl SimObserver for JsonlSink {
    fn on_event(&mut self, ev: &SimEvent) {
        if !self.data_plane && ev.is_data_plane() {
            return;
        }
        self.write_record(ev);
    }

    fn finish(mut self: Box<Self>) -> TelemetryReport {
        self.out.flush().expect("jsonl sink flush");
        TelemetryReport {
            events: self.lines,
            sink: Some(SinkSummary { path: self.path, lines: self.lines }),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn histogram_counts_are_lossless() {
        let mut h = FixedHistogram::new(0.0, 0.1, 10);
        for x in [-1.0, 0.0, 0.05, 0.95, 1.0, 5.0, f64::NAN] {
            h.record(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 3); // 1.0, 5.0, NaN
        assert_eq!(h.buckets()[0], 2); // 0.0 and 0.05
        assert_eq!(h.buckets()[9], 1); // 0.95
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = FixedHistogram::new(0.0, 1.0, 4);
        let mut b = FixedHistogram::new(0.0, 1.0, 4);
        a.record(0.5);
        a.record(3.5);
        b.record(0.7);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.buckets()[0], 2);
        assert_eq!(a.overflow, 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = FixedHistogram::new(0.0, 1.0, 4);
        let b = FixedHistogram::new(0.0, 2.0, 4);
        a.merge(&b);
    }

    #[test]
    fn histogram_quantile_walks_buckets() {
        let mut h = FixedHistogram::new(0.0, 1.0, 10);
        for i in 0..10 {
            for _ in 0..10 {
                h.record(i as f64 + 0.5);
            }
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
        assert_eq!(FixedHistogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    #[test]
    fn time_series_buckets_and_grows() {
        let mut s = TimeSeries::new(2.0);
        s.record(0.5, 1.0);
        s.record(1.9, 2.0);
        s.record(7.0, 4.0); // bucket 3: gap buckets materialize empty
        s.record(-1.0, 8.0); // clamps to bucket 0
        assert_eq!(s.len(), 4);
        assert_eq!(s.total_count(), 4);
        assert!((s.total_sum() - 15.0).abs() < 1e-12);
        assert_eq!(s.mean_at(0), Some(11.0 / 3.0));
        assert_eq!(s.mean_at(1), None);
        assert_eq!(s.mean_at(3), Some(4.0));
    }

    #[test]
    fn ewma_seeds_and_smooths() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(4.0), 4.0);
        assert_eq!(e.update(0.0), 2.0);
        assert_eq!(e.value(), Some(2.0));
    }

    fn delivered(t: f64, delay: f64) -> SimEvent {
        SimEvent::PacketDelivered { time: t, flow: 0, node: n(1), delay }
    }

    #[test]
    fn recording_observer_filters_data_plane() {
        let mut control_only = RecordingObserver::new(false);
        let mut full = RecordingObserver::new(true);
        let ev_data = delivered(1.0, 0.01);
        let ev_ctl = SimEvent::ControlQuiescent { time: 2.0 };
        for o in [&mut control_only, &mut full] {
            o.on_event(&ev_data);
            o.on_event(&ev_ctl);
        }
        assert_eq!(control_only.events(), std::slice::from_ref(&ev_ctl));
        assert_eq!(full.events().len(), 2);
        let rep = Box::new(full).finish();
        assert_eq!(rep.events, 2);
        assert_eq!(rep.recorded.unwrap().len(), 2);
    }

    #[test]
    fn metrics_hub_aggregates_streams() {
        let mut hub = MetricsHub::new(1.0);
        hub.on_event(&SimEvent::PacketHop {
            time: 0.2,
            flow: 0,
            link: LinkId(2),
            from: n(0),
            to: n(1),
            bits: 1000.0,
            queue_delay: 0.001,
        });
        hub.on_event(&delivered(0.5, 0.003));
        hub.on_event(&SimEvent::LinkCostSample {
            time: 0.9,
            node: n(0),
            link: LinkId(2),
            cost: 0.5,
        });
        hub.on_event(&SimEvent::RouteChange {
            time: 1.0,
            node: n(0),
            dest: n(3),
            old: vec![],
            new: vec![n(1)],
        });
        let fault = FaultEvent::CrashRouter { node: n(1) };
        hub.on_event(&SimEvent::Fault { time: 2.0, event: fault });
        hub.on_event(&SimEvent::Recovery { time: 3.5, fault_time: 2.0, recovery_s: 1.5 });
        hub.on_event(&SimEvent::ControlQuiescent { time: 3.5 });
        let rep = Box::new(hub).finish();
        assert_eq!(rep.events, 7);
        let m = rep.metrics.unwrap();
        assert_eq!(m.link_util[2].total_count(), 1);
        assert!((m.link_util[2].total_sum() - 1000.0).abs() < 1e-9);
        assert_eq!(m.link_cost[2].mean_at(0), Some(0.5));
        assert_eq!(m.churn[3], 1);
        assert_eq!(m.total_churn(), 1);
        assert_eq!(m.delays.total(), 1);
        let (mean, max, cnt) = m.convergence_stats(FaultClass::RouterCrash);
        assert_eq!((mean, max, cnt), (1.5, 1.5, 1));
        assert_eq!(m.quiescent_times, vec![3.5]);
    }

    #[test]
    fn sim_event_serializes_kind_tagged() {
        let ev = SimEvent::RouteChange {
            time: 1.5,
            node: n(0),
            dest: n(3),
            old: vec![n(1)],
            new: vec![n(1), n(2)],
        };
        let s = serde_json::to_string(&ev).unwrap();
        assert!(s.starts_with("{\"kind\":\"route_change\""), "{s}");
        assert!(s.contains("\"old\":[1]"), "{s}");
        assert!(s.contains("\"new\":[1,2]"), "{s}");
        let f = SimEvent::Fault { time: 2.0, event: FaultEvent::FailLink { a: n(0), b: n(1) } };
        let s = serde_json::to_string(&f).unwrap();
        assert!(s.contains("\"event\":{\"kind\":\"fail_link\""), "{s}");
    }

    #[test]
    fn jsonl_sink_writes_deterministic_lines() {
        let dir = std::env::temp_dir();
        let p1 = dir.join("mdr_telemetry_test_a.jsonl");
        let p2 = dir.join("mdr_telemetry_test_b.jsonl");
        for p in [&p1, &p2] {
            let mut sink: Box<dyn SimObserver> =
                Box::new(JsonlSink::create(p.to_str().unwrap(), false));
            sink.on_event(&delivered(1.0, 0.25)); // filtered: data plane
            sink.on_event(&SimEvent::ControlQuiescent { time: 2.0 });
            let rep = sink.finish();
            assert_eq!(rep.events, 1);
            assert_eq!(rep.sink.as_ref().unwrap().lines, 1);
        }
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p2).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            String::from_utf8(a).unwrap(),
            "{\"kind\":\"control_quiescent\",\"time\":2.0}\n"
        );
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn jsonl_sink_streams_foreign_records() {
        // The generic line writer carries any Serialize type — the shape
        // mdr-node's per-process telemetry uses.
        struct Rec {
            node: u32,
            kind: &'static str,
        }
        impl Serialize for Rec {
            fn serialize_value(&self) -> Value {
                Value::Map(vec![
                    ("node".into(), Value::U64(self.node as u64)),
                    ("kind".into(), Value::Str(self.kind.into())),
                ])
            }
        }
        let p = std::env::temp_dir().join("mdr_telemetry_test_records.jsonl");
        let mut sink = JsonlSink::create(p.to_str().unwrap(), false);
        sink.write_record(&Rec { node: 3, kind: "hello" });
        sink.write_record(&Rec { node: 4, kind: "snapshot" });
        assert_eq!(sink.lines(), 2);
        let summary = sink.close();
        assert_eq!(summary.lines, 2);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "{\"node\":3,\"kind\":\"hello\"}\n{\"node\":4,\"kind\":\"snapshot\"}\n");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn observer_mode_builds_the_right_observer() {
        assert!(ObserverMode::Off.build().is_none());
        for mode in [
            ObserverMode::Null,
            ObserverMode::Recording { data_plane: true },
            ObserverMode::Metrics { bucket: 1.0 },
        ] {
            let mut o = mode.build().unwrap();
            o.on_event(&SimEvent::ControlQuiescent { time: 0.0 });
            assert_eq!(o.finish().events, 1);
        }
    }
}
