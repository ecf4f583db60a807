//! Telemetry: structured simulation-event publishing.
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
//! Two observers ship with the crate:
//!
//! * [`RecordingObserver`] — keeps the full ordered event sequence
//!   (golden-trace tests);
//! * [`JsonlSink`] — deterministic on-disk timelines for offline
//!   analysis (`mdr-bench trace`).
//!
//! Fault-recovery statistics are not computed here:
//! [`crate::RobustnessReport::faults`] carries every scheduled fault
//! with its recovery time, and the `Fault` and `Recovery` events a
//! fault plan publishes mirror those records one to one.

use crate::chaos::FaultEvent;
use mdr_flow::{AllocHeuristic, AllocOutcome};
use mdr_net::{LinkId, NodeId};
use mdr_routing::RouteChange;
use serde::Serialize;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};

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
    /// Record the full ordered event sequence in memory.
    Recording {
        /// Include the per-packet events (they dominate volume).
        data_plane: bool,
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
            ObserverMode::Recording { data_plane } => {
                Some(Box::new(RecordingObserver::new(*data_plane)))
            }
            ObserverMode::Jsonl { path, data_plane } => Some(Box::new(
                JsonlSink::create(path, *data_plane)
                    .unwrap_or_else(|e| panic!("create {path}: {e}")),
            )),
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
    pub fn create(path: &str, data_plane: bool) -> io::Result<Self> {
        let out = BufWriter::new(File::create(path)?);
        Ok(JsonlSink { path: path.to_string(), data_plane, out, lines: 0 })
    }

    /// Write any serializable record as one JSON line. This is the
    /// whole sink minus the [`SimEvent`] coupling — the `mdr-node`
    /// deployment streams its per-process telemetry records through the
    /// same writer, so live traces inherit the determinism guarantee
    /// (insertion-ordered maps, shortest-roundtrip floats) the trace
    /// tests pin down.
    pub fn write_record<T: Serialize>(&mut self, rec: &T) -> io::Result<()> {
        let line = serde_json::to_string(rec).expect("record serialization is infallible");
        writeln!(self.out, "{line}")?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush buffered lines to disk without closing. The `mdr-node`
    /// soak harness kills processes with SIGKILL; flushing after every
    /// record bounds trace loss to the line in flight.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flush and close the sink outside the [`SimObserver`] life cycle
    /// (the deployment has no simulation run to `finish`).
    pub fn close(mut self) -> io::Result<SinkSummary> {
        self.flush()?;
        Ok(SinkSummary { path: self.path, lines: self.lines })
    }
}

/// As a simulator observer the sink panics on I/O failure: telemetry
/// runs are experiments; failing loudly beats silently tracing nothing.
impl SimObserver for JsonlSink {
    fn on_event(&mut self, ev: &SimEvent) {
        if !self.data_plane && ev.is_data_plane() {
            return;
        }
        self.write_record(ev).expect("jsonl sink write");
    }

    fn finish(self: Box<Self>) -> TelemetryReport {
        let sink = self.close().expect("jsonl sink flush");
        TelemetryReport { events: sink.lines, sink: Some(sink), ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn n(i: u32) -> NodeId {
        NodeId(i)
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
                Box::new(JsonlSink::create(p.to_str().unwrap(), false).unwrap());
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
        let mut sink = JsonlSink::create(p.to_str().unwrap(), false).unwrap();
        sink.write_record(&Rec { node: 3, kind: "hello" }).unwrap();
        sink.write_record(&Rec { node: 4, kind: "snapshot" }).unwrap();
        assert_eq!(sink.lines(), 2);
        let summary = sink.close().unwrap();
        assert_eq!(summary.lines, 2);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "{\"node\":3,\"kind\":\"hello\"}\n{\"node\":4,\"kind\":\"snapshot\"}\n");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn observer_mode_builds_the_right_observer() {
        assert!(ObserverMode::Off.build().is_none());
        for data_plane in [false, true] {
            let mut o = ObserverMode::Recording { data_plane }.build().unwrap();
            o.on_event(&SimEvent::ControlQuiescent { time: 0.0 });
            assert_eq!(o.finish().events, 1);
        }
    }
}
