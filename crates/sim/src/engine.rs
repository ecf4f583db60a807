//! The discrete-event simulation engine.
//!
//! See the crate docs for the model. The engine keeps the packet data
//! plane — one [`LinkEstimator`] per adjacent link per router, a FIFO
//! packet queue per directed link, the traffic sources — under the
//! control plane both simulators share (`host.rs`: one [`crate::Agent`]
//! per router, link liveness, the fault layer, the LFI auditor, the
//! deterministic event queue). Control messages (LSUs) traverse the same
//! links as data (serialization + propagation delay) but do not occupy
//! the data queues — the paper's evaluation makes the same
//! simplification, and at these scales LSU traffic is negligible against
//! 10 Mb/s links.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::chaos::{FaultEvent, RobustnessReport};
use crate::estimator::{EstimatorKind, LinkEstimator};
use crate::events::{Ev, Packet};
use crate::fluid::FluidWork;
use crate::host::{self, DataPlane, Host};
use crate::scenario::{Scenario, ScenarioEvent};
use crate::stats::{DelaySeries, FlowStats, LinkStats, SERIES_BUCKET};
use crate::telemetry::{DropReason, ObserverMode, SimEvent, TelemetryReport};
use mdr_flow::Mode;
use mdr_net::{LinkId, Mm1, NodeId, Topology, TrafficMatrix};
use mdr_opt::RoutingVars;
use mdr_routing::MpdaRouter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Packet-length distribution of the traffic sources.
///
/// The paper's delay model assumes M/M/1 (exponential lengths), but
/// §4.3 notes "the M/M/1 assumption does not hold in practice in the
/// presence of very bursty traffic" — these variants let experiments
/// quantify the model-mismatch sensitivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketDist {
    /// Exponential lengths (the M/M/1 regime).
    Exponential,
    /// Fixed-length packets (M/D/1-like; *less* queueing than M/M/1).
    Deterministic,
    /// Internet-style bimodal mix: 60% short (ACK-sized) and 40% long
    /// packets, scaled to preserve the configured mean. Its normalized
    /// second moment is E[X²] = 0.6·0.04 + 0.4·4.84 = 1.96, so by
    /// Pollaczek–Khinchine its queueing delay sits just *below* the
    /// exponential regime's (E[X²] = 2), far above deterministic (1).
    Bimodal,
}

/// Data-plane granularity of a run.
///
/// `Packet` is the paper's per-packet Poisson discrete-event engine.
/// The fluid variants advance *flow rates* per routing epoch instead of
/// individual packets, with link delays taken from the `Mm1` closed
/// forms — the hybrid flow-level mode, cross-validated against packet
/// mode in `tests/tests/fluid_crossval.rs`. See
/// [`crate::fluid`] for the semantics of the two fluid control planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Per-packet discrete-event simulation (the default; bit-identical
    /// to every run before this enum existed).
    #[default]
    Packet,
    /// Fluid data plane under the *real* distributed MPDA control plane
    /// (per-router LSU events over the wire, estimator staleness and
    /// all). Not faster than [`SimMode::Packet`] at scale: on the
    /// 1000-router two-tier ISP topology its MP arm took 384 s, the
    /// packet engine's 116 s (one run each, one core of a shared 2-core
    /// x86-64 host, 2026-10-21).
    Fluid,
    /// Fluid data plane under a centralized quiescent control plane:
    /// per-epoch converged MPDA tables computed by per-destination SPF.
    /// Fast, but not MPDA's data plane at scale: on the 1000-router ISP
    /// topology its per-flow MP delay averages 2.91× the packet
    /// engine's under MPDA. No 10k-router run has been made.
    FluidQuiescent,
}

/// Defensive per-packet hop budget.
const TTL: u16 = 64;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Forwarding discipline: MP (multipath) or SP (single path).
    pub mode: Mode,
    /// Data-plane granularity: per-packet DES or fluid flow-level (see
    /// [`SimMode`]). Dispatched by [`crate::SimJob::run`]; constructing
    /// a [`Simulator`] directly always runs packet mode.
    pub sim_mode: SimMode,
    /// Long-term routing update period `T_l` (seconds). Phased randomly
    /// per router (§4.2: update periods "should be phased randomly at
    /// each router").
    pub t_long: f64,
    /// Short-term load-balancing period `T_s` (seconds).
    pub t_short: f64,
    /// Mean packet length in bits.
    pub mean_packet_bits: f64,
    /// Packet-length distribution around that mean.
    pub packet_dist: PacketDist,
    /// Marginal-delay estimation technique.
    pub estimator: EstimatorKind,
    /// Warm-up time before measurement starts (seconds).
    pub warmup: f64,
    /// Measured duration after warm-up (seconds).
    pub duration: f64,
    /// RNG seed — same seed, same run, bit for bit.
    pub seed: u64,
    /// AH step gain γ (1.0 = Fig. 7 literal; smaller damps the
    /// rebalancing — see `mdr_flow::heuristics`).
    pub ah_gain: f64,
    /// When set, forwarding follows these routing variables verbatim and
    /// the adaptive machinery (routing protocol timers, estimators, AH)
    /// is disabled. Used to measure a precomputed allocation — e.g.
    /// Gallager's OPT — under identical packet-level conditions, the way
    /// the paper's simulations measured OPT quasi-statically.
    pub fixed_routing: Option<RoutingVars>,
    /// Optional seeded chaos plan: stochastic link failures, router
    /// crash/restarts, and control-channel impairments (see
    /// [`crate::FaultPlan`]). Runs the same way under
    /// [`SimMode::Packet`] and [`SimMode::Fluid`], through the one
    /// control-plane host; [`SimMode::FluidQuiescent`] refuses it (it
    /// runs no protocol to perturb). `None` — the default — leaves every
    /// existing run bit-for-bit identical.
    pub fault_plan: Option<crate::FaultPlan>,
    /// Audit the LFI safety invariants (successor-graph acyclicity and
    /// FD ordering) after every routing-table change, tallying results
    /// in [`SimReport::robustness`]. Packet and [`SimMode::Fluid`];
    /// [`SimMode::FluidQuiescent`] refuses it.
    pub audit_invariants: bool,
    /// Telemetry observer specification (declarative, so the config
    /// stays `Clone`; [`Simulator::new`] instantiates it). The default
    /// [`ObserverMode::Off`] leaves every run bit-for-bit identical to
    /// an observer-free build.
    pub observer: ObserverMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: Mode::Multipath,
            sim_mode: SimMode::Packet,
            t_long: 10.0,
            t_short: 2.0,
            mean_packet_bits: 1000.0,
            packet_dist: PacketDist::Exponential,
            estimator: EstimatorKind::Mm1,
            warmup: 15.0,
            duration: 60.0,
            seed: 1,
            ah_gain: 0.4,
            fixed_routing: None,
            fault_plan: None,
            audit_invariants: false,
            observer: ObserverMode::Off,
        }
    }
}

/// Final measurements of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-flow statistics, in traffic-matrix flow order.
    pub flows: Vec<FlowStats>,
    /// Per-directed-link statistics.
    pub links: Vec<LinkStats>,
    /// Per-flow delay time series.
    pub series: DelaySeries,
    /// Convenience: mean end-to-end delay per flow, milliseconds.
    pub mean_delays_ms: Vec<f64>,
    /// LSU messages delivered.
    pub control_messages: u64,
    /// LSU bytes delivered.
    pub control_bytes: u64,
    /// Total delivered packets (post warm-up).
    pub delivered: u64,
    /// Total drops (no route + ttl) over the whole run.
    pub dropped: u64,
    /// Measured duration (s).
    pub duration: f64,
    /// Discrete events processed over the whole run (warm-up included);
    /// divide by wall-clock time for an events/s throughput figure.
    pub events_processed: u64,
    /// Chaos and invariant-audit measurements; `Some` exactly when
    /// [`SimConfig::fault_plan`] or [`SimConfig::audit_invariants`] was
    /// set, from either engine (the packet-drop counters stay zero in
    /// fluid runs; see [`crate::RobustnessCounters`]).
    pub robustness: Option<RobustnessReport>,
    /// What the telemetry observer measured; `Some` exactly when
    /// [`SimConfig::observer`] was not [`ObserverMode::Off`]. Everything
    /// else in the report is bit-identical with or without it.
    pub telemetry: Option<TelemetryReport>,
    /// Work counts of the fluid engine; `Some` exactly when a
    /// [`FluidSimulator`](crate::FluidSimulator) produced the report.
    pub fluid: Option<FluidWork>,
}

impl SimReport {
    /// Network-wide mean of the per-flow mean delays, in milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        if self.mean_delays_ms.is_empty() {
            return 0.0;
        }
        self.mean_delays_ms.iter().sum::<f64>() / self.mean_delays_ms.len() as f64
    }
}

struct FlowSt {
    src: NodeId,
    dst: NodeId,
    rate: f64,
    epoch: u32,
}

/// Per-directed-link data-plane state; whether the link is in service
/// is the host's [`Host::up`].
struct LinkSt {
    busy: bool,
    queue: VecDeque<(Packet, f64)>,
}

/// Sentinel in [`NodeSt::slot_of`] for "not a neighbor".
const NO_SLOT: u16 = u16::MAX;

/// Per-router data-plane state. Neighbor-keyed data lives in dense
/// parallel `Vec`s indexed by *neighbor slot* (position in the sorted
/// adjacency list, the agent's slot order) — the hot paths touch these
/// every packet, and the `BTreeMap`s this replaces dominated the
/// forwarding profile.
struct NodeSt {
    /// Outgoing link per neighbor slot.
    out_link: Vec<LinkId>,
    /// Marginal-cost estimator per neighbor slot.
    est: Vec<LinkEstimator>,
    /// Node id → neighbor slot; [`NO_SLOT`] when not adjacent.
    slot_of: Vec<u16>,
}

impl NodeSt {
    /// Neighbor slot of `k`, if adjacent.
    #[inline]
    fn slot(&self, k: NodeId) -> Option<usize> {
        let s = self.slot_of[k.index()];
        (s != NO_SLOT).then_some(s as usize)
    }
}

/// What the host's hooks reach in the packet data plane: per-router
/// estimators, per-link queues, and the per-flow drop counts a failing
/// link adds to.
struct PacketPlane {
    nodes: Vec<NodeSt>,
    links: Vec<LinkSt>,
    flow_stats: Vec<FlowStats>,
    models: Vec<Mm1>,
    estimator: EstimatorKind,
}

impl DataPlane for PacketPlane {
    fn cost(&self, i: NodeId, s: usize) -> f64 {
        self.nodes[i.index()].est[s].cost()
    }

    fn close_windows(&mut self, i: NodeId, now: f64) {
        for est in &mut self.nodes[i.index()].est {
            est.close_window(now);
        }
    }

    /// Stop serialization and drain the queue, counting the drops.
    fn link_down(&mut self, _host: &Host, lid: LinkId) -> u64 {
        let ls = &mut self.links[lid.index()];
        ls.busy = false;
        let mut drained = 0u64;
        for (p, _) in ls.queue.drain(..) {
            self.flow_stats[p.flow as usize].dropped_no_route += 1;
            drained += 1;
        }
        drained
    }

    /// A fresh estimator for the link.
    fn link_up(&mut self, host: &Host, lid: LinkId) {
        let l = host.topo.link(lid);
        let node = &mut self.nodes[l.from.index()];
        if let Some(s) = node.slot(l.to) {
            node.est[s] = LinkEstimator::new(self.estimator, self.models[lid.index()], host.time);
        }
    }
}

/// The simulator. Construct with [`Simulator::new`], then [`Simulator::run`].
pub struct Simulator {
    /// The control plane, the clock, the event queue and the observer.
    host: Host,
    plane: PacketPlane,
    cfg: SimConfig,
    rng: SmallRng,
    flows: Vec<FlowSt>,
    scenario: Vec<(f64, ScenarioEvent)>,
    // measurement
    warmup_end: f64,
    end_time: f64,
    link_stats: Vec<LinkStats>,
    series: DelaySeries,
}

impl Simulator {
    /// Build a simulator over `topo` carrying `traffic`, with scripted
    /// `scenario` perturbations.
    pub fn new(
        topo: &Topology,
        traffic: &TrafficMatrix,
        scenario: &Scenario,
        cfg: SimConfig,
    ) -> Self {
        assert!(cfg.t_short > 0.0 && cfg.t_long > 0.0, "update periods must be positive");
        assert!(cfg.warmup.is_finite() && cfg.duration.is_finite(), "run length must be finite");
        assert!(cfg.mean_packet_bits > 0.0);
        let n = topo.node_count();
        let models: Vec<Mm1> = topo
            .links()
            .iter()
            .map(|l| Mm1::new(l.capacity, l.prop_delay, cfg.mean_packet_bits))
            .collect();

        // Estimators and dense neighbor-slot tables (sorted by neighbor
        // address, like the adjacency lists and the agents' slots).
        let nodes: Vec<NodeSt> = topo
            .nodes()
            .map(|node| {
                let mut out_link = Vec::new();
                let mut est = Vec::new();
                let mut slot_of = vec![NO_SLOT; n];
                for (lid, l) in topo.out_links(node) {
                    slot_of[l.to.index()] = out_link.len() as u16;
                    out_link.push(lid);
                    est.push(LinkEstimator::new(cfg.estimator, models[lid.index()], 0.0));
                }
                NodeSt { out_link, est, slot_of }
            })
            .collect();
        let links: Vec<LinkSt> =
            topo.links().iter().map(|_| LinkSt { busy: false, queue: VecDeque::new() }).collect();
        let flows: Vec<FlowSt> = traffic
            .flows()
            .iter()
            .map(|f| FlowSt { src: f.src, dst: f.dst, rate: f.rate, epoch: 0 })
            .collect();
        let nflows = flows.len();

        let capacity = nflows + 2 * n + topo.link_count() + scenario.events().len() + 16;
        let mut host = Host::new(topo, &cfg, &models, host::agents(topo, &cfg, None), capacity);
        let mut plane = PacketPlane {
            nodes,
            links,
            flow_stats: vec![FlowStats::default(); nflows],
            models,
            estimator: cfg.estimator,
        };
        host.start(&mut plane, cfg.seed, cfg.fixed_routing.is_none());
        let mut sim = Simulator {
            host,
            plane,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15),
            flows,
            scenario: scenario.events(),
            warmup_end: cfg.warmup,
            end_time: cfg.warmup + cfg.duration,
            link_stats: vec![LinkStats::default(); topo.link_count()],
            series: DelaySeries::new(nflows, SERIES_BUCKET),
            cfg,
        };
        // First packet of every flow.
        for f in 0..nflows {
            let t0 = sim.next_interarrival(f);
            sim.host.queue.push(t0, Ev::Generate { flow: f });
        }
        // Scripted events.
        for (idx, (t, _)) in sim.scenario.iter().enumerate() {
            sim.host.queue.push(*t, Ev::Scenario { index: idx });
        }
        sim.host.schedule_faults();
        sim
    }

    fn next_interarrival(&mut self, flow: usize) -> f64 {
        let rate = self.flows[flow].rate;
        if rate <= 0.0 {
            return f64::MAX; // rearmed by SetFlowRate
        }
        let lambda = rate / self.cfg.mean_packet_bits; // packets/s
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        self.host.time + (-u.ln()) / lambda
    }

    fn sample_packet_bits(&mut self) -> f64 {
        let mean = self.cfg.mean_packet_bits;
        match self.cfg.packet_dist {
            PacketDist::Exponential => {
                let u: f64 = self.rng.gen::<f64>().max(1e-12);
                (-u.ln()) * mean
            }
            PacketDist::Deterministic => mean,
            PacketDist::Bimodal => {
                // 60% short at mean/5; 40% long sized to keep the mean:
                // 0.6*(m/5) + 0.4*L = m  =>  L = 2.2 m.
                if self.rng.gen::<f64>() < 0.6 {
                    mean / 5.0
                } else {
                    2.2 * mean
                }
            }
        }
    }

    /// Forward a packet sitting at `node` (its source or an intermediate
    /// hop).
    fn forward(&mut self, node: NodeId, mut pkt: Packet) {
        if !self.host.alive(node) {
            // A crashed router can neither deliver nor forward.
            self.host.count(|c| c.packets_blackholed += 1);
            self.plane.flow_stats[pkt.flow as usize].dropped_no_route += 1;
            self.observe_drop(node, &pkt, DropReason::Crashed);
            return;
        }
        let now = self.host.time;
        if pkt.dst == node {
            let delay = now - pkt.created;
            let f = pkt.flow as usize;
            self.series.record(f, now, delay);
            if pkt.created >= self.warmup_end {
                self.plane.flow_stats[f].deliver(delay);
            }
            if let Some(o) = self.host.obs.as_deref_mut() {
                o.on_event(&SimEvent::PacketDelivered { time: now, flow: pkt.flow, node, delay });
            }
            return;
        }
        if pkt.ttl == 0 {
            self.plane.flow_stats[pkt.flow as usize].dropped_ttl += 1;
            self.host.count(|c| c.packets_looped += 1);
            self.observe_drop(node, &pkt, DropReason::Ttl);
            return;
        }
        pkt.ttl -= 1;
        // Weighted choice over the routing parameters (no allocation:
        // `alloc` and `rng` are disjoint fields).
        let chosen = {
            let pairs = match &self.cfg.fixed_routing {
                Some(vars) => vars.get(node, pkt.dst),
                None => self.host.agents[node.index()].params(pkt.dst).pairs(),
            };
            let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
            if pairs.is_empty() || total <= 0.0 {
                None
            } else {
                let mut pick = self.rng.gen::<f64>() * total;
                let mut chosen = pairs[pairs.len() - 1].0;
                for &(k, w) in pairs {
                    if pick < w {
                        chosen = k;
                        break;
                    }
                    pick -= w;
                }
                Some(chosen)
            }
        };
        // An empty successor set, or a chosen next hop behind a dead
        // link: a blackhole opened here.
        let nd = &self.plane.nodes[node.index()];
        let lid = chosen
            .and_then(|k| nd.slot(k))
            .map(|s| nd.out_link[s])
            .filter(|l| self.host.up[l.index()]);
        let Some(lid) = lid else {
            self.plane.flow_stats[pkt.flow as usize].dropped_no_route += 1;
            self.host.count(|c| c.packets_blackholed += 1);
            self.observe_drop(node, &pkt, DropReason::NoRoute);
            return;
        };
        self.enqueue_packet(lid, pkt);
    }

    /// Publish a `PacketDropped` (telemetry-only).
    #[inline]
    fn observe_drop(&mut self, node: NodeId, pkt: &Packet, reason: DropReason) {
        let now = self.host.time;
        if let Some(o) = self.host.obs.as_deref_mut() {
            o.on_event(&SimEvent::PacketDropped { time: now, flow: pkt.flow, node, reason });
        }
    }

    fn enqueue_packet(&mut self, lid: LinkId, pkt: Packet) {
        let (bits, now) = (pkt.bits, self.host.time);
        let ls = &mut self.plane.links[lid.index()];
        ls.queue.push_back((pkt, now));
        let qlen = ls.queue.len();
        if qlen > self.link_stats[lid.index()].max_queue {
            self.link_stats[lid.index()].max_queue = qlen;
        }
        if !ls.busy {
            ls.busy = true;
            let c = self.host.topo.link(lid).capacity;
            self.host.queue.push(now + bits / c, Ev::LinkDeparture { link: lid });
        }
    }

    fn on_link_departure(&mut self, lid: LinkId) {
        let ls = &mut self.plane.links[lid.index()];
        if !self.host.up[lid.index()] || !ls.busy {
            return; // stale event from before a failure
        }
        let Some((pkt, enq_t)) = ls.queue.pop_front() else {
            ls.busy = false;
            return;
        };
        let next_bits = ls.queue.front().map(|(p, _)| p.bits);
        let now = self.host.time;
        let link = *self.host.topo.link(lid);
        let qdelay = now - enq_t;
        // Stats + estimator at the transmitting router.
        if now >= self.warmup_end {
            let st = &mut self.link_stats[lid.index()];
            st.bits += pkt.bits;
            st.packets += 1;
            st.delay_sum += qdelay;
        }
        let from = &mut self.plane.nodes[link.from.index()];
        if let Some(s) = from.slot(link.to) {
            from.est[s].on_packet(pkt.bits, qdelay);
        }
        if let Some(o) = self.host.obs.as_deref_mut() {
            o.on_event(&SimEvent::PacketHop {
                time: now,
                flow: pkt.flow,
                link: lid,
                from: link.from,
                to: link.to,
                bits: pkt.bits,
                queue_delay: qdelay,
            });
        }
        // Next serialization.
        match next_bits {
            Some(b) => {
                self.host.queue.push(now + b / link.capacity, Ev::LinkDeparture { link: lid })
            }
            None => self.plane.links[lid.index()].busy = false,
        }
        // Propagation, then arrival at the far router.
        self.host.queue.push(now + link.prop_delay, Ev::NodeArrival { node: link.to, packet: pkt });
    }

    fn on_scenario(&mut self, idx: usize) {
        let (_, ev) = self.scenario[idx].clone();
        match ev {
            ScenarioEvent::SetFlowRate { flow, rate } => {
                self.flows[flow].rate = rate;
                self.flows[flow].epoch += 1;
                let t = self.next_interarrival(flow);
                if t.is_finite() {
                    self.host.queue.push(t, Ev::Generate { flow });
                }
                let now = self.host.time;
                if let Some(o) = self.host.obs.as_deref_mut() {
                    o.on_event(&SimEvent::TrafficChange { time: now, flow: flow as u32, rate });
                }
            }
            ScenarioEvent::FailLink { a, b } => {
                self.host.perturb(&mut self.plane, FaultEvent::FailLink { a, b })
            }
            ScenarioEvent::RestoreLink { a, b } => {
                self.host.perturb(&mut self.plane, FaultEvent::RestoreLink { a, b })
            }
        }
    }

    /// Run to completion and report.
    ///
    /// The accumulated statistics are *moved* into the report (no
    /// clones); a second call would return empty measurements.
    pub fn run(&mut self) -> SimReport {
        let mut events_processed = 0u64;
        while let Some((t, ev)) = self.host.queue.pop() {
            if t > self.end_time {
                break;
            }
            self.host.time = t;
            events_processed += 1;
            match ev {
                Ev::Generate { flow } => {
                    if self.flows[flow].rate > 0.0 {
                        let bits = self.sample_packet_bits();
                        let pkt = Packet {
                            flow: flow as u32,
                            dst: self.flows[flow].dst,
                            created: t,
                            bits,
                            ttl: TTL,
                        };
                        let src = self.flows[flow].src;
                        self.forward(src, pkt);
                        let nt = self.next_interarrival(flow);
                        if nt.is_finite() {
                            self.host.queue.push(nt, Ev::Generate { flow });
                        }
                    }
                }
                Ev::LinkDeparture { link } => self.on_link_departure(link),
                Ev::NodeArrival { node, packet } => self.forward(node, packet),
                Ev::Scenario { index } => self.on_scenario(index),
                Ev::Sample => {}
                ev => self.host.handle(&mut self.plane, ev),
            }
            self.host.after_event();
        }
        let flow_stats = std::mem::take(&mut self.plane.flow_stats);
        let mean_delays_ms: Vec<f64> = flow_stats.iter().map(|f| f.mean_delay() * 1000.0).collect();
        let delivered = flow_stats.iter().map(|f| f.delivered).sum();
        let dropped = flow_stats.iter().map(|f| f.dropped_no_route + f.dropped_ttl).sum();
        SimReport {
            flows: flow_stats,
            links: std::mem::take(&mut self.link_stats),
            series: std::mem::take(&mut self.series),
            mean_delays_ms,
            control_messages: self.host.ctl_msgs,
            control_bytes: self.host.ctl_bytes,
            delivered,
            dropped,
            duration: self.cfg.duration,
            events_processed,
            robustness: self.host.robustness(),
            telemetry: self.host.obs.take().map(|o| o.finish()),
            fluid: None,
        }
    }

    /// Extract the current routing variables (for analytic cross-checks
    /// against the same traffic).
    pub fn routing_vars(&self) -> RoutingVars {
        let n = self.host.topo.node_count();
        let mut vars = RoutingVars::new(n);
        for (i, agent) in self.host.topo.nodes().zip(&self.host.agents) {
            for j in self.host.topo.nodes().filter(|&j| j != i) {
                vars.set(i, j, agent.params(j).pairs().to_vec());
            }
        }
        vars
    }

    /// Access a router (tests & diagnostics).
    pub fn router(&self, i: NodeId) -> &MpdaRouter {
        self.host.agents[i.index()].router()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.host.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::{Flow, TopologyBuilder};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn two_node() -> Topology {
        TopologyBuilder::new().nodes(2).bidi(n(0), n(1), 1_000_000.0, 0.001).build().unwrap()
    }

    fn quick_cfg() -> SimConfig {
        SimConfig { warmup: 5.0, duration: 10.0, ..Default::default() }
    }

    #[test]
    fn single_link_delay_matches_mm1() {
        // 1 Mb/s link, 1000-bit packets (1000 pkts/s service), offered
        // 500 kb/s (rho = 0.5): M/M/1 sojourn = 1/(mu - lambda) = 2 ms,
        // plus 1 ms propagation = 3 ms.
        let t = two_node();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 500_000.0)]).unwrap();
        let cfg = SimConfig { warmup: 10.0, duration: 60.0, ..Default::default() };
        let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
        let r = sim.run();
        let got = r.mean_delays_ms[0];
        assert!(
            (got - 3.0).abs() < 0.3,
            "expected ~3 ms, got {got} ms ({} delivered)",
            r.delivered
        );
        assert_eq!(r.flows[0].dropped_ttl, 0);
        assert!(r.delivered > 20_000);
    }

    #[test]
    fn deterministic_runs() {
        let t = two_node();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 300_000.0)]).unwrap();
        let r1 = Simulator::new(&t, &traffic, &Scenario::new(), quick_cfg()).run();
        let r2 = Simulator::new(&t, &traffic, &Scenario::new(), quick_cfg()).run();
        assert_eq!(r1.delivered, r2.delivered);
        assert_eq!(r1.mean_delays_ms, r2.mean_delays_ms);
        assert_eq!(r1.control_messages, r2.control_messages);
    }

    #[test]
    fn different_seeds_differ() {
        let t = two_node();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 300_000.0)]).unwrap();
        let r1 = Simulator::new(&t, &traffic, &Scenario::new(), quick_cfg()).run();
        let r2 =
            Simulator::new(&t, &traffic, &Scenario::new(), SimConfig { seed: 2, ..quick_cfg() })
                .run();
        assert_ne!(r1.mean_delays_ms, r2.mean_delays_ms);
    }

    #[test]
    fn multipath_uses_parallel_paths() {
        // Diamond with heavy load: MP must spread over both 2-hop paths.
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 1_000_000.0, 0.001)
            .bidi(n(0), n(2), 1_000_000.0, 0.001)
            .bidi(n(1), n(3), 1_000_000.0, 0.001)
            .bidi(n(2), n(3), 1_000_000.0, 0.001)
            .build()
            .unwrap();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 1_200_000.0)]).unwrap();
        let cfg = SimConfig { warmup: 20.0, duration: 40.0, ..Default::default() };
        let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
        let r = sim.run();
        // 1.2 Mb/s cannot fit one 1 Mb/s path: deliveries prove splitting.
        let l01 = t.link_between(n(0), n(1)).unwrap();
        let l02 = t.link_between(n(0), n(2)).unwrap();
        let u1 = r.links[l01.index()].utilization(1_000_000.0, 40.0);
        let u2 = r.links[l02.index()].utilization(1_000_000.0, 40.0);
        assert!(u1 > 0.2 && u2 > 0.2, "u1={u1} u2={u2}");
        assert!(r.flows[0].mean_delay() < 0.5, "network must not melt down");
        assert_eq!(r.flows[0].dropped_ttl, 0);
    }

    #[test]
    fn single_path_mode_uses_one_path_under_light_load() {
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 1_000_000.0, 0.001)
            .bidi(n(0), n(2), 1_000_000.0, 0.001)
            .bidi(n(1), n(3), 1_000_000.0, 0.001)
            .bidi(n(2), n(3), 1_000_000.0, 0.001)
            .build()
            .unwrap();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 200_000.0)]).unwrap();
        let cfg = SimConfig { mode: Mode::SinglePath, ..quick_cfg() };
        let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
        let r = sim.run();
        let l01 = t.link_between(n(0), n(1)).unwrap();
        let l02 = t.link_between(n(0), n(2)).unwrap();
        let p1 = r.links[l01.index()].packets;
        let p2 = r.links[l02.index()].packets;
        assert!(p1 + p2 > 1000);
        // SP may *flap* between the two equal-cost paths across ticks
        // (the oscillation §1 describes), but at any instant the routing
        // parameters put all traffic on exactly one successor:
        let vars = sim.routing_vars();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i == j {
                    continue;
                }
                let s = vars.successors(NodeId(i), NodeId(j));
                assert!(s.len() <= 1, "SP has {} successors at ({i},{j})", s.len());
            }
        }
    }

    #[test]
    fn link_failure_reroutes() {
        // Triangle: 0-1 direct plus 0-2-1 detour.
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(n(0), n(1), 1_000_000.0, 0.001)
            .bidi(n(0), n(2), 1_000_000.0, 0.001)
            .bidi(n(2), n(1), 1_000_000.0, 0.001)
            .build()
            .unwrap();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 200_000.0)]).unwrap();
        let scen = Scenario::new().at(10.0, ScenarioEvent::FailLink { a: n(0), b: n(1) });
        let cfg = SimConfig { warmup: 15.0, duration: 20.0, ..Default::default() };
        let mut sim = Simulator::new(&t, &traffic, &scen, cfg);
        let r = sim.run();
        // Measured deliveries happen after the failure: all must detour.
        let l02 = t.link_between(n(0), n(2)).unwrap();
        assert!(r.links[l02.index()].packets > 1000);
        assert!(r.delivered > 1000);
        // Only the handful of packets in flight at the failure are lost.
        assert!(r.dropped < 100, "dropped {}", r.dropped);
    }

    #[test]
    fn traffic_change_takes_effect() {
        let t = two_node();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 100_000.0)]).unwrap();
        let scen = Scenario::new().at(5.0, ScenarioEvent::SetFlowRate { flow: 0, rate: 800_000.0 });
        let cfg = SimConfig { warmup: 10.0, duration: 20.0, ..Default::default() };
        let mut sim = Simulator::new(&t, &traffic, &scen, cfg);
        let r = sim.run();
        // Post-warmup rate is 800 kb/s => ~800 pkts/s * 20 s.
        assert!((10_000..25_000).contains(&(r.delivered as i64)), "delivered {}", r.delivered);
    }

    #[test]
    fn zero_rate_flow_sends_nothing() {
        let t = two_node();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 0.0)]).unwrap();
        let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), quick_cfg());
        let r = sim.run();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn control_plane_carries_messages() {
        let t = mdr_net::topo::ring(5, 1_000_000.0, 0.001);
        let traffic = TrafficMatrix::empty(5);
        let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), quick_cfg());
        let r = sim.run();
        assert!(r.control_messages > 10, "boot convergence needs LSUs");
        assert!(r.control_bytes > 0);
        // Converged distances visible through the router accessor.
        assert!(
            (sim.router(n(0)).distance(n(2)) - 2.0 * sim.router(n(0)).distance(n(1))).abs() < 1e-9
        );
    }

    #[test]
    fn routing_vars_extraction_is_valid() {
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(500_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let cfg = SimConfig { warmup: 10.0, duration: 10.0, ..Default::default() };
        let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
        let _ = sim.run();
        let vars = sim.routing_vars();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
        // The extracted variables must evaluate cleanly (acyclic, routed).
        let eval = mdr_opt::evaluate(&t, &models, &traffic, &vars).unwrap();
        assert!(eval.total_delay > 0.0);
        assert!(eval.max_utilization < 1.0);
    }

    #[test]
    fn packet_distributions_order_delays_as_theory_predicts() {
        // Pollaczek–Khinchine: the mean wait is proportional to the
        // service-time second moment, so M/D/1 (E[X²] = 1) waits half
        // of M/M/1 (E[X²] = 2), and the bimodal mix (E[X²] = 1.96)
        // lands essentially on the exponential curve. At rho = 0.7 the
        // robust prediction is deterministic << {exponential, bimodal},
        // with the latter two within sampling noise of each other.
        let t = two_node();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 700_000.0)]).unwrap();
        let mut delays = Vec::new();
        for dist in [PacketDist::Deterministic, PacketDist::Exponential, PacketDist::Bimodal] {
            let cfg =
                SimConfig { packet_dist: dist, warmup: 10.0, duration: 40.0, ..Default::default() };
            let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
            let r = sim.run();
            delays.push(r.mean_delays_ms[0]);
        }
        assert!(
            delays[0] < delays[1] && delays[0] < delays[2],
            "expected det below both exp and bimodal, got {delays:?}"
        );
        let rel = (delays[1] - delays[2]).abs() / delays[1];
        assert!(
            rel < 0.25,
            "exp and bimodal delays should be close (E[X²] 2 vs 1.96), got {delays:?}"
        );
    }

    fn chaos_plan() -> crate::FaultPlan {
        crate::FaultPlan {
            seed: 9,
            start: 3.0,
            link_faults: Some(crate::chaos::FaultProcess { mtbf: 8.0, mttr: 1.0 }),
            router_faults: Some(crate::chaos::FaultProcess { mtbf: 20.0, mttr: 1.5 }),
            control: Some(crate::ControlChaos::default()),
            profile: None,
        }
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(400_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let cfg = SimConfig {
            warmup: 5.0,
            duration: 15.0,
            fault_plan: Some(chaos_plan()),
            audit_invariants: true,
            ..Default::default()
        };
        let r1 = Simulator::new(&t, &traffic, &Scenario::new(), cfg.clone()).run();
        let r2 = Simulator::new(&t, &traffic, &Scenario::new(), cfg).run();
        assert_eq!(r1, r2);
        let rob = r1.robustness.expect("chaos run must carry a robustness report");
        assert!(!rob.faults.is_empty(), "20 s over NET1 at MTBF 8 s must inject faults");
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        assert!(rob.invariant_checks > 0);
    }

    #[test]
    fn chaos_recovers_and_counts_damage() {
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(400_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let cfg = SimConfig {
            warmup: 5.0,
            duration: 20.0,
            fault_plan: Some(chaos_plan()),
            audit_invariants: true,
            ..Default::default()
        };
        let r = Simulator::new(&t, &traffic, &Scenario::new(), cfg).run();
        let rob = r.robustness.unwrap();
        assert!(rob.recovered > 0, "at least one fault must fully recover: {:?}", rob.faults);
        assert!(rob.max_recovery_s >= rob.mean_recovery_s);
        assert!(rob.mean_recovery_s > 0.0);
        // The lossy channel must actually have bitten.
        assert!(rob.counters.lsus_dropped > 0);
        assert!(rob.counters.lsus_corrupted_rejected > 0);
        assert!(r.delivered > 1000, "traffic keeps flowing through the chaos");
    }

    #[test]
    fn audit_only_run_matches_baseline_measurements() {
        // audit_invariants alone must not perturb the sample path: same
        // deliveries, delays, and control traffic as a plain run.
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(400_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let base_cfg = SimConfig { warmup: 5.0, duration: 10.0, ..Default::default() };
        let audit_cfg = SimConfig { audit_invariants: true, ..base_cfg.clone() };
        let base = Simulator::new(&t, &traffic, &Scenario::new(), base_cfg).run();
        let audited = Simulator::new(&t, &traffic, &Scenario::new(), audit_cfg).run();
        assert_eq!(base.mean_delays_ms, audited.mean_delays_ms);
        assert_eq!(base.delivered, audited.delivered);
        assert_eq!(base.control_messages, audited.control_messages);
        assert_eq!(base.events_processed, audited.events_processed);
        let rob = audited.robustness.unwrap();
        assert!(rob.faults.is_empty());
        assert!(rob.invariant_checks > 0);
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
    }

    #[test]
    fn router_crash_wipes_state_and_resyncs() {
        // Force a crash of the transit node in a triangle: traffic must
        // blackhole during the outage and flow again after restart.
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(n(0), n(2), 1_000_000.0, 0.001)
            .bidi(n(2), n(1), 1_000_000.0, 0.001)
            .build()
            .unwrap();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 200_000.0)]).unwrap();
        // MTBF small enough that somebody crashes at least once in 25 s,
        // MTTR short enough that the network is mostly alive.
        let plan = crate::FaultPlan {
            seed: 5,
            start: 6.0,
            link_faults: None,
            router_faults: Some(crate::chaos::FaultProcess { mtbf: 12.0, mttr: 0.5 }),
            control: None,
            profile: None,
        };
        let cfg = SimConfig {
            warmup: 5.0,
            duration: 20.0,
            fault_plan: Some(plan),
            audit_invariants: true,
            ..Default::default()
        };
        let r = Simulator::new(&t, &traffic, &Scenario::new(), cfg).run();
        let rob = r.robustness.unwrap();
        let crashes = rob
            .faults
            .iter()
            .filter(|f| matches!(f.event, crate::FaultEvent::CrashRouter { .. }))
            .count();
        assert!(crashes > 0, "schedule: {:?}", rob.faults);
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        assert!(r.delivered > 500, "traffic must flow between outages");
    }

    #[test]
    fn bursty_grey_profile_run_stays_loop_free_and_deterministic() {
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(400_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let profile = crate::NetProfile {
            seed: 0xBEE5,
            forward: crate::DirProfile {
                loss: crate::LossModel::GilbertElliott {
                    p_gb: 0.05,
                    p_bg: 0.3,
                    loss_good: 0.01,
                    loss_bad: 0.5,
                },
                delay_max: 0.002,
            },
            reverse: Some(crate::DirProfile {
                loss: crate::LossModel::Iid { p: 0.05 },
                delay_max: 0.0,
            }),
            grey: Some(crate::GreyFailure { data_drop: 0.2, data_corrupt: 0.05 }),
            partitions: Vec::new(),
        };
        let plan =
            crate::FaultPlan { seed: 21, profile: Some(profile), ..crate::FaultPlan::default() };
        let cfg = SimConfig {
            warmup: 5.0,
            duration: 12.0,
            fault_plan: Some(plan),
            audit_invariants: true,
            ..Default::default()
        };
        let r1 = Simulator::new(&t, &traffic, &Scenario::new(), cfg.clone()).run();
        let r2 = Simulator::new(&t, &traffic, &Scenario::new(), cfg).run();
        assert_eq!(r1, r2, "profile-driven chaos must be seed-deterministic");
        let rob = r1.robustness.expect("robustness report");
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        assert!(rob.counters.lsus_dropped > 0, "the bursty channel never lost an attempt");
        assert!(rob.counters.lsus_grey_dropped > 0, "the grey failure never bit");
        assert!(r1.delivered > 1000, "traffic keeps flowing through the impairments");
    }

    #[test]
    fn scripted_partition_cuts_and_heals_atomically() {
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(400_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        // Cut the 4-clique {0,1,2,3} plus waist node 4 off from the
        // rest between t=8 s and t=12 s (NET1's waist {4,5} bridges the
        // cliques, so this severs the 4—5 bottleneck and both bypass
        // links at one instant).
        let profile = crate::NetProfile {
            seed: 0xCAFE,
            partitions: vec![crate::PartitionSpec {
                at: 8.0,
                heal_at: 12.0,
                side: (0..5).map(n).collect(),
            }],
            ..crate::NetProfile::default()
        };
        let plan =
            crate::FaultPlan { seed: 4, profile: Some(profile), ..crate::FaultPlan::default() };
        let cfg = SimConfig {
            warmup: 5.0,
            duration: 15.0,
            fault_plan: Some(plan),
            audit_invariants: true,
            ..Default::default()
        };
        let r = Simulator::new(&t, &traffic, &Scenario::new(), cfg).run();
        let rob = r.robustness.expect("robustness report");
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        let cut = rob
            .faults
            .iter()
            .find(|f| matches!(f.event, crate::FaultEvent::PartitionCut { .. }))
            .expect("the cut must be recorded as one atomic fault");
        let heal = rob
            .faults
            .iter()
            .find(|f| matches!(f.event, crate::FaultEvent::PartitionHeal { .. }))
            .expect("the heal must be recorded");
        assert_eq!(cut.time, 8.0);
        assert_eq!(heal.time, 12.0);
        assert!(
            heal.recovery_s.is_some(),
            "the control plane must reconverge after the heal: {:?}",
            rob.faults
        );
        assert!(r.delivered > 1000, "intra-side traffic must keep flowing during the cut");
    }

    #[test]
    fn no_ttl_drops_ever() {
        // The paper proves the routing graph loop-free at every instant,
        // not each packet's path: a packet can revisit a router when
        // successor sets change between its hops. So the TTL stays a
        // defensive guard; across this failure and restore it never fires.
        let t = mdr_net::topo::net1();
        let flows = mdr_net::topo::net1_flows(1_000_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let scen = Scenario::new()
            .at(8.0, ScenarioEvent::FailLink { a: n(4), b: n(5) })
            .at(16.0, ScenarioEvent::RestoreLink { a: n(4), b: n(5) });
        let cfg = SimConfig { warmup: 12.0, duration: 15.0, t_short: 1.0, ..Default::default() };
        let mut sim = Simulator::new(&t, &traffic, &scen, cfg);
        let r = sim.run();
        let ttl_drops: u64 = r.flows.iter().map(|f| f.dropped_ttl).sum();
        assert_eq!(ttl_drops, 0);
        assert!(r.delivered > 10_000);
    }
}
