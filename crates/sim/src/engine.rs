//! The discrete-event simulation engine.
//!
//! See the crate docs for the model. The engine owns one control-plane
//! [`Agent`] (MPDA router + IH/AH allocator + reported-cost hysteresis)
//! and one [`LinkEstimator`] per adjacent link per router, a FIFO packet
//! queue per directed link, and a deterministic event queue. Control
//! messages (LSUs) traverse the same links as data (serialization +
//! propagation delay) but do not occupy the data queues — the paper's
//! evaluation makes the same simplification, and at these scales LSU
//! traffic is negligible against 10 Mb/s links.

use crate::agent::{Agent, Allocs};
use crate::chaos::{ControlChaos, FaultEvent, FaultRecord, RobustnessCounters, RobustnessReport};
use crate::estimator::{EstimatorKind, LinkEstimator};
use crate::events::{Ev, EventQueue, MsgSlab, Packet};
use crate::fluid::FluidWork;
use crate::scenario::{Scenario, ScenarioEvent};
use crate::stats::{DelaySeries, FlowStats, LinkStats};
use crate::telemetry::{
    publish_step, DropReason, ObserverMode, SimEvent, SimObserver, TelemetryReport,
};
use mdr_flow::Mode;
use mdr_net::{LinkDelayModel, LinkId, Mm1, NodeId, Topology, TrafficMatrix};
use mdr_opt::RoutingVars;
use mdr_proto::LsuMessage;
use mdr_routing::lfi::Auditor;
use mdr_routing::{MpdaRouter, RouterEvent, RouterOutput};
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
/// forms — the hybrid flow-level mode of ROADMAP item 2, cross-validated
/// against packet mode in `tests/tests/fluid_crossval.rs`. See
/// [`crate::fluid`] for the semantics of the two fluid control planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Per-packet discrete-event simulation (the default; bit-identical
    /// to every run before this enum existed).
    #[default]
    Packet,
    /// Fluid data plane under the *real* distributed MPDA control plane
    /// (per-router LSU events over the wire, estimator staleness and
    /// all). Scales to hundreds of routers.
    Fluid,
    /// Fluid data plane under a centralized quiescent control plane:
    /// per-epoch converged MPDA tables computed by per-destination SPF.
    /// O(epochs · E log V) — reaches 10k+ routers.
    FluidQuiescent,
}

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
    /// Relative cost change needed before a long-term update reports a
    /// new link cost into MPDA (hysteresis against LSU churn).
    pub cost_change_threshold: f64,
    /// Defensive per-packet hop budget.
    pub ttl: u16,
    /// Bucket width of the per-flow delay time series (seconds).
    pub series_bucket: f64,
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
    /// [`crate::FaultPlan`]). `None` — the default — leaves every
    /// existing run bit-for-bit identical.
    pub fault_plan: Option<crate::FaultPlan>,
    /// Audit the LFI safety invariants (successor-graph acyclicity and
    /// FD ordering) after every routing-table change, tallying results
    /// in [`SimReport::robustness`].
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
            cost_change_threshold: 0.05,
            ttl: 64,
            series_bucket: 1.0,
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
    /// set.
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

struct LinkSt {
    /// Effective state: the wire is intact *and* neither endpoint is
    /// crashed. Everything outside the fault machinery reads only this.
    up: bool,
    /// Physical wire state; differs from `up` only around router
    /// crashes, so a restart knows which adjacencies to revive.
    wire_up: bool,
    busy: bool,
    epoch: u32,
    queue: VecDeque<(Packet, f64)>,
}

/// Live chaos state. Boxed and optional: ordinary runs pay one pointer
/// check on the hot paths and nothing else.
struct RobustRt {
    /// Pre-generated fault timeline (see [`crate::FaultPlan::schedule`]).
    schedule: Vec<(f64, FaultEvent)>,
    /// Control-channel impairments; `None` leaves the wire reliable.
    control: Option<ControlChaos>,
    /// Adversarial network profile (bursty/asymmetric loss, grey
    /// failure, partitions); `None` leaves the channel to `control`.
    profile: Option<crate::NetProfile>,
    /// Per directed link (by `LinkId`): the profile's private loss/delay
    /// stream. Empty when `profile` is `None`.
    dir_states: Vec<crate::DirState>,
    /// Impairment RNG — separate from the traffic RNG so chaos does not
    /// perturb the traffic sample path.
    rng: SmallRng,
    /// Per directed link: latest scheduled control arrival; arrivals are
    /// clamped past it so per-link FIFO order survives jitter (§4.1).
    last_ctl: Vec<f64>,
    /// Per router: incarnation number, bumped at each crash. Control
    /// messages carry the incarnations of both ends; a mismatch at
    /// delivery means a crash happened in between and the message is
    /// from a previous life.
    inc: Vec<u32>,
    /// Per router: currently crashed?
    crashed: Vec<bool>,
    /// One record per injected fault.
    records: Vec<FaultRecord>,
    /// Indices into `records` whose recovery has not completed yet.
    pending: Vec<usize>,
    /// Damage counters.
    counters: RobustnessCounters,
    /// LFI auditor; `None` unless [`SimConfig::audit_invariants`].
    auditor: Option<Auditor>,
    /// Audits are held while an atomic multi-link transition (a scripted
    /// partition cut/heal) is half-applied: the interleaved states never
    /// physically exist, so judging them would flag phantom violations.
    /// One audit runs on the fully-applied state instead.
    audit_hold: bool,
}

/// Sentinel in [`NodeSt::slot_of`] for "not a neighbor".
const NO_SLOT: u16 = u16::MAX;

/// Per-router state. Neighbor-keyed data lives in dense parallel `Vec`s
/// indexed by *neighbor slot* (position in the sorted adjacency list) —
/// the hot paths touch these every packet, and the `BTreeMap`s this
/// replaces dominated the forwarding profile.
struct NodeSt {
    /// The control plane. Its neighbor list is in ascending address
    /// order (the order `Topology::out_links` yields, which the old
    /// sorted-map iteration matched — keeping RNG/event streams
    /// identical) and defines the slots below.
    agent: Agent,
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

/// The simulator. Construct with [`Simulator::new`], then [`Simulator::run`].
pub struct Simulator {
    topo: Topology,
    cfg: SimConfig,
    models: Vec<Mm1>,
    time: f64,
    queue: EventQueue,
    msgs: MsgSlab,
    rng: SmallRng,
    nodes: Vec<NodeSt>,
    links: Vec<LinkSt>,
    flows: Vec<FlowSt>,
    scenario: Vec<(f64, ScenarioEvent)>,
    robust: Option<Box<RobustRt>>,
    /// Telemetry observer; `None` keeps the hot paths at one pointer
    /// check, like `robust`.
    obs: Option<Box<dyn SimObserver>>,
    /// Last observed control-plane quiescence state (edge detector for
    /// `ControlQuiescent` events; telemetry-only).
    quiescent: bool,
    // measurement
    warmup_end: f64,
    end_time: f64,
    flow_stats: Vec<FlowStats>,
    link_stats: Vec<LinkStats>,
    series: DelaySeries,
    ctl_msgs: u64,
    ctl_bytes: u64,
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
        assert!(cfg.mean_packet_bits > 0.0);
        let n = topo.node_count();
        let models: Vec<Mm1> = topo
            .links()
            .iter()
            .map(|l| Mm1::new(l.capacity, l.prop_delay, cfg.mean_packet_bits))
            .collect();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let queue = EventQueue::with_capacity(
            traffic.flows().len() + 2 * n + topo.link_count() + scenario.events().len() + 16,
        );

        // Routers, allocators, and dense neighbor-slot tables (sorted by
        // neighbor address, like the adjacency lists).
        let mut nodes: Vec<NodeSt> = (0..n)
            .map(|i| {
                let node = NodeId(i as u32);
                let mut nbrs = Vec::new();
                let mut out_link = Vec::new();
                let mut est = Vec::new();
                let mut slot_of = vec![NO_SLOT; n];
                for (lid, l) in topo.out_links(node) {
                    slot_of[l.to.index()] = nbrs.len() as u16;
                    nbrs.push(l.to);
                    out_link.push(lid);
                    est.push(LinkEstimator::new(cfg.estimator, models[lid.index()], 0.0));
                }
                let agent =
                    Agent::new(node, n, cfg.mode, cfg.ah_gain, nbrs, cfg.cost_change_threshold);
                NodeSt { agent, out_link, est, slot_of }
            })
            .collect();
        let links: Vec<LinkSt> = topo
            .links()
            .iter()
            .map(|_| LinkSt {
                up: true,
                wire_up: true,
                busy: false,
                epoch: 0,
                queue: VecDeque::new(),
            })
            .collect();

        // Chaos runtime: fault timeline, impairment RNG, invariant
        // auditor. Built before the boot LSUs go out so even boot-time
        // control traffic rides the impaired channel.
        let robust = if cfg.fault_plan.is_some() || cfg.audit_invariants {
            let plan = cfg.fault_plan.clone().unwrap_or_default();
            plan.validate();
            let schedule = if cfg.fault_plan.is_some() {
                plan.schedule(topo, cfg.warmup + cfg.duration)
            } else {
                Vec::new()
            };
            let dir_states = match &plan.profile {
                Some(pr) => topo
                    .links()
                    .iter()
                    .map(|l| crate::DirState::new(pr.seed, l.from, l.to))
                    .collect(),
                None => Vec::new(),
            };
            Some(Box::new(RobustRt {
                schedule,
                control: plan.control,
                profile: plan.profile,
                dir_states,
                rng: SmallRng::seed_from_u64(
                    plan.seed ^ cfg.seed.rotate_left(17) ^ 0x2545_f491_4f6c_dd1d,
                ),
                last_ctl: vec![0.0; topo.link_count()],
                inc: vec![0; n],
                crashed: vec![false; n],
                records: Vec::new(),
                pending: Vec::new(),
                counters: RobustnessCounters::default(),
                auditor: cfg.audit_invariants.then(|| Auditor::new(n)),
                audit_hold: false,
            }))
        } else {
            None
        };

        // Bring every adjacent link up at its idle marginal cost and
        // schedule the resulting LSUs (in LinkId order, as before).
        let mut boot_sends: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        for (lid, l) in topo.links().iter().enumerate() {
            let idle = models[lid].marginal_delay(0.0);
            let NodeSt { agent, est, .. } = &mut nodes[l.from.index()];
            let boot = RouterEvent::LinkUp { to: l.to, cost: idle };
            let (out, _) = agent.handle(boot, |s| Some(est[s].cost()));
            for s in out.sends {
                boot_sends.push((l.from, s.to, s.msg));
            }
        }

        let flows: Vec<FlowSt> = traffic
            .flows()
            .iter()
            .map(|f| FlowSt { src: f.src, dst: f.dst, rate: f.rate, epoch: 0 })
            .collect();
        let nflows = flows.len();

        let obs = cfg.observer.build();
        let mut sim = Simulator {
            topo: topo.clone(),
            models,
            time: 0.0,
            queue,
            msgs: MsgSlab::new(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15),
            nodes,
            links,
            flows,
            scenario: scenario.events(),
            robust,
            obs,
            quiescent: false,
            warmup_end: cfg.warmup,
            end_time: cfg.warmup + cfg.duration,
            flow_stats: vec![FlowStats::default(); nflows],
            link_stats: vec![LinkStats::default(); topo.link_count()],
            series: DelaySeries::new(nflows, cfg.series_bucket),
            ctl_msgs: 0,
            ctl_bytes: 0,
            cfg,
        };
        // Dispatch boot LSUs with real wire delays.
        for (from, to, msg) in boot_sends {
            sim.send_control(from, to, msg);
        }
        // Ticks, phased randomly per router (none under fixed routing:
        // the allocation must not adapt).
        if sim.cfg.fixed_routing.is_none() {
            for i in 0..n {
                let ps = rng.gen::<f64>() * sim.cfg.t_short;
                let pl = rng.gen::<f64>() * sim.cfg.t_long;
                sim.queue.push(ps, Ev::ShortTermTick { node: NodeId(i as u32) });
                sim.queue.push(pl, Ev::LongTermTick { node: NodeId(i as u32) });
            }
        }
        // First packet of every flow.
        for f in 0..nflows {
            let t0 = sim.next_interarrival(f);
            sim.queue.push(t0, Ev::Generate { flow: f });
        }
        // Scripted events.
        for (idx, (t, _)) in sim.scenario.iter().enumerate() {
            sim.queue.push(*t, Ev::Scenario { index: idx });
        }
        // The pre-generated fault timeline.
        if let Some(rb) = sim.robust.as_deref() {
            for (idx, (t, _)) in rb.schedule.iter().enumerate() {
                sim.queue.push(*t, Ev::Fault { index: idx });
            }
        }
        let _ = rng;
        sim
    }

    fn next_interarrival(&mut self, flow: usize) -> f64 {
        let rate = self.flows[flow].rate;
        if rate <= 0.0 {
            return f64::MAX; // rearmed by SetFlowRate
        }
        let lambda = rate / self.cfg.mean_packet_bits; // packets/s
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        self.time + (-u.ln()) / lambda
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

    /// Schedule delivery of an LSU over the wire.
    ///
    /// Without chaos: one serialization plus propagation delay, exactly
    /// as before. With [`ControlChaos`] enabled the LSU rides a
    /// link layer doing ARQ over a lossy channel — each dropped or
    /// corruption-rejected attempt charges one RTO plus a
    /// re-serialization (raw LSU loss would deadlock MPDA's ACTIVE
    /// state; §4.1 assumes a reliable link protocol, and this models
    /// it), duplicates are counted and suppressed, jitter is added, and
    /// per-link FIFO order is preserved by an arrival clamp.
    fn send_control(&mut self, from: NodeId, to: NodeId, msg: LsuMessage) {
        let lid = match self.nodes[from.index()].slot(to) {
            Some(s) => self.nodes[from.index()].out_link[s],
            None => return,
        };
        if !self.links[lid.index()].up {
            return; // lost on a dead wire
        }
        let l = self.topo.link(lid);
        if let Some(rb) = self.robust.as_deref_mut() {
            let tag = ((rb.inc[from.index()] as u64) << 32) | rb.inc[to.index()] as u64;
            // The per-direction profile (bursty/asymmetric loss, grey
            // failure, extra delay) rides the same ARQ accounting as
            // `ControlChaos`; both apply when both are configured.
            let dir = rb.profile.as_ref().map(|p| p.dir(from, to));
            let grey = rb.profile.as_ref().and_then(|p| p.grey);
            if rb.control.is_some() || dir.is_some() {
                let cc = rb.control.unwrap_or(ControlChaos {
                    drop_prob: 0.0,
                    dup_prob: 0.0,
                    corrupt_prob: 0.0,
                    jitter_max: 0.0,
                    // Profile-only runs still charge a retransmission
                    // timeout per lost attempt (ControlChaos default).
                    rto: 0.02,
                });
                // CRC32-framed on the chaos channel (frames must be
                // corruptible, so the real codec gets real bytes).
                let bits = (mdr_proto::framed_len(&msg) * 8) as f64;
                let ser = bits / l.capacity;
                let mut delay = l.prop_delay + ser;
                let mut deliver = msg;
                let mut attempts = 1u64;
                // ARQ: sample attempts until one survives the channel.
                // The cap bounds worst-case delay; the capped attempt
                // goes through clean.
                while attempts < 64 {
                    let profile_lost = match dir {
                        Some(d) => d.loss.lose(&mut rb.dir_states[lid.index()]),
                        None => false,
                    };
                    // All sim control traffic is LSU data, so a grey
                    // failure bites every message here; the hello-level
                    // distinction only exists in the live shell.
                    let grey_lost = !profile_lost
                        && grey.is_some_and(|g| rb.dir_states[lid.index()].chance(g.data_drop));
                    if profile_lost || grey_lost {
                        if grey_lost {
                            rb.counters.lsus_grey_dropped += 1;
                        } else {
                            rb.counters.lsus_dropped += 1;
                        }
                        delay += cc.rto + ser;
                        attempts += 1;
                        continue;
                    }
                    if rb.rng.gen::<f64>() < cc.drop_prob {
                        rb.counters.lsus_dropped += 1;
                        delay += cc.rto + ser;
                        attempts += 1;
                        continue;
                    }
                    let grey_corrupt =
                        grey.is_some_and(|g| rb.dir_states[lid.index()].chance(g.data_corrupt));
                    if grey_corrupt
                        || (cc.corrupt_prob > 0.0 && rb.rng.gen::<f64>() < cc.corrupt_prob)
                    {
                        let mut frame = mdr_proto::frame(&deliver).to_vec();
                        for _ in 0..rb.rng.gen_range(1..4) {
                            let i = rb.rng.gen_range(0..frame.len());
                            frame[i] ^= 1u8 << rb.rng.gen_range(0..8u32);
                        }
                        if rb.rng.gen::<f64>() < 0.2 {
                            let cut = rb.rng.gen_range(0..frame.len());
                            frame.truncate(cut);
                        }
                        match mdr_proto::unframe(&frame) {
                            Err(_) => {
                                rb.counters.lsus_corrupted_rejected += 1;
                                delay += cc.rto + ser;
                                attempts += 1;
                                continue;
                            }
                            Ok(m) => {
                                // The CRC32 passed a damaged frame — it
                                // decodes, so deliver what the wire says
                                // (the LFI auditor will judge the
                                // consequences).
                                rb.counters.lsus_corrupted_delivered += 1;
                                deliver = m;
                            }
                        }
                    }
                    if rb.rng.gen::<f64>() < cc.dup_prob {
                        rb.counters.lsus_duplicated += 1; // link-layer dedup
                    }
                    break;
                }
                if let Some(d) = dir {
                    delay += d.extra_delay(&mut rb.dir_states[lid.index()]);
                }
                let mut at = self.time + delay;
                if cc.jitter_max > 0.0 {
                    at += rb.rng.gen::<f64>() * cc.jitter_max;
                }
                let last = &mut rb.last_ctl[lid.index()];
                if at <= *last {
                    at = *last + 1e-9; // FIFO clamp per directed link
                }
                *last = at;
                self.ctl_msgs += 1;
                self.ctl_bytes += attempts * (bits / 8.0) as u64;
                let id = self.msgs.insert_tagged(deliver, tag);
                self.queue.push(at, Ev::Control { node: to, from, msg: id });
                let now = self.time;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::LsuSent {
                        time: now,
                        from,
                        to,
                        bytes: attempts * (bits / 8.0) as u64,
                        attempts,
                    });
                }
            } else {
                // Fault plan without control chaos: reliable wire, but
                // still incarnation-tagged so crash semantics hold.
                let bits = (mdr_proto::encoded_len(&msg) * 8) as f64;
                let at = self.time + l.prop_delay + bits / l.capacity;
                self.ctl_msgs += 1;
                self.ctl_bytes += (bits / 8.0) as u64;
                let id = self.msgs.insert_tagged(msg, tag);
                self.queue.push(at, Ev::Control { node: to, from, msg: id });
                let now = self.time;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::LsuSent {
                        time: now,
                        from,
                        to,
                        bytes: (bits / 8.0) as u64,
                        attempts: 1,
                    });
                }
            }
            return;
        }
        let bits = (mdr_proto::encoded_len(&msg) * 8) as f64;
        let at = self.time + l.prop_delay + bits / l.capacity;
        self.ctl_msgs += 1;
        self.ctl_bytes += (bits / 8.0) as u64;
        let msg = self.msgs.insert(msg);
        self.queue.push(at, Ev::Control { node: to, from, msg });
        let now = self.time;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&SimEvent::LsuSent {
                time: now,
                from,
                to,
                bytes: (bits / 8.0) as u64,
                attempts: 1,
            });
        }
    }

    /// True unless `x` is currently crashed.
    #[inline]
    fn alive(&self, x: NodeId) -> bool {
        self.robust.as_deref().is_none_or(|rb| !rb.crashed[x.index()])
    }

    /// Bump a robustness counter (no-op without chaos).
    #[inline]
    fn rcount(&mut self, f: impl FnOnce(&mut RobustnessCounters)) {
        if let Some(rb) = self.robust.as_deref_mut() {
            f(&mut rb.counters);
        }
    }

    /// Run the LFI auditor (when enabled) over the live routers.
    ///
    /// The FD-ordering half is gated on directed-link liveness: when a
    /// physical link fails, the endpoint notified first reacts (and may
    /// legitimately raise its FD) while the other endpoint still lists
    /// it as a successor over the now-dead wire. That edge carries no
    /// traffic, so it cannot close a loop; the upstream router's own
    /// LinkDown withdraws it at this same instant. Cycle detection
    /// stays unconditional.
    fn audit(&mut self) {
        let now = self.time;
        let (nodes, topo, links) = (&self.nodes, &self.topo, &self.links);
        if let Some(rb) = self.robust.as_deref_mut().filter(|rb| !rb.audit_hold) {
            if let Some(aud) = rb.auditor.as_mut() {
                aud.audit(
                    now,
                    |i, j| nodes[i.index()].agent.router().successors(j),
                    |i, j| nodes[i.index()].agent.router().feasible_distance(j),
                    |i, k| topo.link_between(i, k).is_some_and(|l| links[l.index()].up),
                );
            }
        }
    }

    /// Take directed link `lid` out of service: stop serialization,
    /// drain its queue (counting the drops), and bump the epoch so
    /// stale departure events are recognized. No-op when already down.
    fn deactivate_link(&mut self, lid: LinkId) {
        let ls = &mut self.links[lid.index()];
        if !ls.up {
            return;
        }
        ls.up = false;
        ls.busy = false;
        ls.epoch += 1;
        if let Some(aud) = self.robust.as_deref_mut().and_then(|rb| rb.auditor.as_mut()) {
            aud.touch(self.topo.link(lid).from);
        }
        let mut drained = 0u64;
        for (p, _) in ls.queue.drain(..) {
            self.flow_stats[p.flow as usize].dropped_no_route += 1;
            drained += 1;
        }
        if drained > 0 {
            if let Some(rb) = self.robust.as_deref_mut() {
                rb.counters.packets_dropped_on_fault += drained;
            }
        }
    }

    /// Router `x` reacts to losing its link to `y` (skipped while `x`
    /// is crashed — a dead router reacts to nothing).
    fn notify_link_down(&mut self, x: NodeId, y: NodeId) {
        if !self.alive(x) {
            return;
        }
        self.route_event(x, RouterEvent::LinkDown { to: y });
    }

    /// Put directed link `x → y` back in service at the idle marginal
    /// cost, with a fresh estimator, and tell `x`.
    fn activate_link(&mut self, lid: LinkId, x: NodeId, y: NodeId) {
        self.links[lid.index()].up = true;
        let idle = self.models[lid.index()].marginal_delay(0.0);
        if let Some(s) = self.nodes[x.index()].slot(y) {
            self.nodes[x.index()].est[s] =
                LinkEstimator::new(self.cfg.estimator, self.models[lid.index()], self.time);
        }
        self.route_event(x, RouterEvent::LinkUp { to: y, cost: idle });
    }

    /// Fail the physical link `a — b`: both directed links leave
    /// service and each endpoint that was using its direction reacts.
    /// The wire dies atomically — both directions are taken out of
    /// service *before* either router reacts, so the audit that runs
    /// inside the first reaction already sees the other direction dead
    /// (its not-yet-notified upstream edge is exempt, correctly: the
    /// drained wire can't carry a loop).
    fn fail_physical(&mut self, a: NodeId, b: NodeId) {
        let mut notify = [None, None];
        for (slot, (x, y)) in [(a, b), (b, a)].into_iter().enumerate() {
            if let Some(lid) = self.topo.link_between(x, y) {
                self.links[lid.index()].wire_up = false;
                if self.links[lid.index()].up {
                    notify[slot] = Some((x, y));
                }
                self.deactivate_link(lid);
            }
        }
        for (x, y) in notify.into_iter().flatten() {
            self.notify_link_down(x, y);
        }
    }

    /// Repair the physical link `a — b`; directions come back only when
    /// both endpoints are alive (a crashed endpoint revives its
    /// adjacencies at restart instead).
    fn restore_physical(&mut self, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            if let Some(lid) = self.topo.link_between(x, y) {
                self.links[lid.index()].wire_up = true;
                if !self.links[lid.index()].up && self.alive(x) && self.alive(y) {
                    self.activate_link(lid, x, y);
                }
            }
        }
    }

    /// Crash router `x`: take every adjacent directed link out of
    /// service, let alive neighbors react, and wipe the router's
    /// protocol state — MPDA tables, allocator, pending ACKs, all of it.
    fn crash_router(&mut self, x: NodeId) {
        {
            // Crash events are only scheduled by a fault plan, which is
            // what installs `robust`; if it is absent the event is
            // stale — drop it rather than panic mid-run.
            let Some(rb) = self.robust.as_deref_mut() else { return };
            rb.crashed[x.index()] = true;
            // New incarnation: anything still in flight to or from the
            // old life is stale at delivery.
            rb.inc[x.index()] = rb.inc[x.index()].wrapping_add(1);
        }
        let nbrs = self.nodes[x.index()].agent.nbrs().to_vec();
        for &y in &nbrs {
            if let Some(lid) = self.topo.link_between(x, y) {
                self.deactivate_link(lid);
            }
            if let Some(lid) = self.topo.link_between(y, x) {
                let was_up = self.links[lid.index()].up;
                self.deactivate_link(lid);
                if was_up {
                    self.notify_link_down(y, x);
                }
            }
        }
        self.nodes[x.index()].agent.reset();
        if let Some(aud) = self.robust.as_deref_mut().and_then(|rb| rb.auditor.as_mut()) {
            aud.touch(x);
        }
        self.audit();
    }

    /// Restart router `x` with empty state: adjacencies whose wire is
    /// intact and whose far end is alive come back up, and the LinkUp
    /// exchange re-synchronizes the tables from the neighbors.
    fn restart_router(&mut self, x: NodeId) {
        let Some(rb) = self.robust.as_deref_mut() else { return };
        rb.crashed[x.index()] = false;
        let nbrs = self.nodes[x.index()].agent.nbrs().to_vec();
        for &y in &nbrs {
            if !self.alive(y) {
                continue;
            }
            if let Some(lid) = self.topo.link_between(x, y) {
                if self.links[lid.index()].wire_up && !self.links[lid.index()].up {
                    self.activate_link(lid, x, y);
                }
            }
            if let Some(lid) = self.topo.link_between(y, x) {
                if self.links[lid.index()].wire_up && !self.links[lid.index()].up {
                    self.activate_link(lid, y, x);
                }
            }
        }
        self.audit();
    }

    /// Inject scheduled fault `index` and open its recovery clock.
    fn on_fault(&mut self, index: usize) {
        let ev = {
            let Some(rb) = self.robust.as_deref_mut() else { return };
            let (t, ev) = rb.schedule[index];
            rb.records.push(FaultRecord { time: t, event: ev, recovery_s: None });
            rb.pending.push(rb.records.len() - 1);
            ev
        };
        let now = self.time;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&SimEvent::Fault { time: now, event: ev });
        }
        match ev {
            FaultEvent::FailLink { a, b } => self.fail_physical(a, b),
            FaultEvent::RestoreLink { a, b } => self.restore_physical(a, b),
            FaultEvent::CrashRouter { node } => self.crash_router(node),
            FaultEvent::RestartRouter { node } => self.restart_router(node),
            FaultEvent::PartitionCut { index } => self.apply_partition(index as usize, true),
            FaultEvent::PartitionHeal { index } => self.apply_partition(index as usize, false),
        }
    }

    /// Cut (or heal) every physical link crossing partition `index`'s
    /// boundary, atomically — all boundary links transition at this one
    /// instant, which is the partition semantics the scripted schedule
    /// promises (no straggler link briefly bridging the cut).
    fn apply_partition(&mut self, index: usize, cut: bool) {
        let pairs: Vec<(NodeId, NodeId)> = {
            let Some(rb) = self.robust.as_deref() else { return };
            let Some(pr) = rb.profile.as_ref() else { return };
            let Some(spec) = pr.partitions.get(index) else { return };
            self.topo
                .links()
                .iter()
                .filter(|l| l.from < l.to && spec.severs(l.from, l.to))
                .map(|l| (l.from, l.to))
                .collect()
        };
        // The schedule promises every boundary link transitions at one
        // instant; the per-link interleavings below are applied
        // sequentially but never physically exist, so the LFI audit is
        // held until the whole cut (or heal) is in place. Router
        // reactions still run per link — only the judging waits.
        if let Some(rb) = self.robust.as_deref_mut() {
            rb.audit_hold = true;
        }
        for (a, b) in pairs {
            if cut {
                self.fail_physical(a, b);
            } else {
                self.restore_physical(a, b);
            }
        }
        if let Some(rb) = self.robust.as_deref_mut() {
            rb.audit_hold = false;
        }
        self.audit();
    }

    /// Should a control message tagged `tag` be delivered from `from`
    /// to `node`? No when the receiver is down or either incarnation
    /// changed since transmission (a crash happened in between).
    fn control_deliverable(&mut self, node: NodeId, from: NodeId, tag: u64) -> bool {
        let rb = match self.robust.as_deref_mut() {
            Some(rb) => rb,
            None => return true,
        };
        let want = ((rb.inc[from.index()] as u64) << 32) | rb.inc[node.index()] as u64;
        if rb.crashed[node.index()] || tag != want {
            rb.counters.lsus_dropped_stale += 1;
            return false;
        }
        true
    }

    /// Close the recovery clock of every pending fault once the control
    /// plane is quiescent again: no LSU in flight, every router PASSIVE.
    fn check_recovery(&mut self) {
        let now = self.time;
        let msgs_empty = self.msgs.is_empty();
        let want_obs = self.obs.is_some();
        let nodes = &self.nodes;
        if let Some(rb) = self.robust.as_deref_mut() {
            if rb.pending.is_empty() || !msgs_empty {
                return;
            }
            if nodes.iter().all(|nd| nd.agent.is_passive()) {
                let mut closed: Vec<f64> = Vec::new();
                for &i in &rb.pending {
                    rb.records[i].recovery_s = Some(now - rb.records[i].time);
                    if want_obs {
                        closed.push(rb.records[i].time);
                    }
                }
                rb.pending.clear();
                if let Some(o) = self.obs.as_deref_mut() {
                    for ft in closed {
                        o.on_event(&SimEvent::Recovery {
                            time: now,
                            fault_time: ft,
                            recovery_s: now - ft,
                        });
                    }
                }
            }
        }
    }

    /// Telemetry-only edge detector: publish a `ControlQuiescent` event
    /// each time the control plane transitions into quiescence (no LSU
    /// in flight, every router PASSIVE). Pure observation — reads state,
    /// perturbs nothing.
    fn observe_quiescence(&mut self) {
        let now = self.time;
        let q = self.msgs.is_empty() && self.nodes.iter().all(|nd| nd.agent.is_passive());
        if q && !self.quiescent {
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_event(&SimEvent::ControlQuiescent { time: now });
            }
        }
        self.quiescent = q;
    }

    /// Feed `ev` to router `i`'s agent at the freshest link-cost
    /// estimates and carry out what it returns.
    fn route_event(&mut self, i: NodeId, ev: RouterEvent) {
        let NodeSt { agent, est, .. } = &mut self.nodes[i.index()];
        let (out, allocs) = agent.handle(ev, |s| Some(est[s].cost()));
        self.apply_agent_output(i, out, allocs);
    }

    /// Carry out an agent's output: transmit LSUs, publish what moved,
    /// audit if routes changed.
    fn apply_agent_output(&mut self, i: NodeId, out: RouterOutput, allocs: Allocs) {
        if let Some(aud) = self.robust.as_deref_mut().and_then(|rb| rb.auditor.as_mut()) {
            aud.touch(i);
        }
        for s in out.sends {
            self.send_control(i, s.to, s.msg);
        }
        if out.routes_changed {
            if let Some(o) = self.obs.as_deref_mut() {
                publish_step(o, self.time, i, out.changed, &allocs);
            }
            // Loop-free at every instant: audit right where the tables
            // just changed.
            self.audit();
        }
    }

    /// Forward a packet sitting at `node` (its source or an intermediate
    /// hop).
    fn forward(&mut self, node: NodeId, mut pkt: Packet) {
        if let Some(rb) = self.robust.as_deref_mut() {
            if rb.crashed[node.index()] {
                // A crashed router can neither deliver nor forward.
                rb.counters.packets_blackholed += 1;
                self.flow_stats[pkt.flow as usize].dropped_no_route += 1;
                self.observe_drop(node, &pkt, DropReason::Crashed);
                return;
            }
        }
        if pkt.dst == node {
            let delay = self.time - pkt.created;
            let f = pkt.flow as usize;
            self.series.record(f, self.time, delay);
            if pkt.created >= self.warmup_end {
                self.flow_stats[f].deliver(delay);
            }
            let now = self.time;
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_event(&SimEvent::PacketDelivered { time: now, flow: pkt.flow, node, delay });
            }
            return;
        }
        if pkt.ttl == 0 {
            self.flow_stats[pkt.flow as usize].dropped_ttl += 1;
            self.rcount(|c| c.packets_looped += 1);
            self.observe_drop(node, &pkt, DropReason::Ttl);
            return;
        }
        pkt.ttl -= 1;
        // Weighted choice over the routing parameters (no allocation:
        // `alloc` and `rng` are disjoint fields).
        let chosen = {
            let pairs = match &self.cfg.fixed_routing {
                Some(vars) => vars.get(node, pkt.dst),
                None => self.nodes[node.index()].agent.params(pkt.dst).pairs(),
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
        let chosen = match chosen {
            Some(k) => k,
            None => {
                // Empty successor set: a blackhole opened here.
                self.flow_stats[pkt.flow as usize].dropped_no_route += 1;
                self.rcount(|c| c.packets_blackholed += 1);
                self.observe_drop(node, &pkt, DropReason::NoRoute);
                return;
            }
        };
        let lid = self.nodes[node.index()]
            .slot(chosen)
            .map(|s| self.nodes[node.index()].out_link[s])
            .filter(|l| self.links[l.index()].up);
        let lid = match lid {
            Some(l) => l,
            None => {
                // Chosen next hop sits behind a dead link.
                self.flow_stats[pkt.flow as usize].dropped_no_route += 1;
                self.rcount(|c| c.packets_blackholed += 1);
                self.observe_drop(node, &pkt, DropReason::NoRoute);
                return;
            }
        };
        self.enqueue_packet(lid, pkt);
    }

    /// Publish a `PacketDropped` (telemetry-only).
    #[inline]
    fn observe_drop(&mut self, node: NodeId, pkt: &Packet, reason: DropReason) {
        let now = self.time;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&SimEvent::PacketDropped { time: now, flow: pkt.flow, node, reason });
        }
    }

    fn enqueue_packet(&mut self, lid: LinkId, pkt: Packet) {
        let bits = pkt.bits;
        let ls = &mut self.links[lid.index()];
        ls.queue.push_back((pkt, self.time));
        let qlen = ls.queue.len();
        if qlen > self.link_stats[lid.index()].max_queue {
            self.link_stats[lid.index()].max_queue = qlen;
        }
        if !ls.busy {
            ls.busy = true;
            let c = self.topo.link(lid).capacity;
            self.queue.push(self.time + bits / c, Ev::LinkDeparture { link: lid });
        }
    }

    fn on_link_departure(&mut self, lid: LinkId) {
        let ls = &mut self.links[lid.index()];
        if !ls.up || !ls.busy {
            return; // stale event from before a failure
        }
        let (pkt, enq_t) = match ls.queue.pop_front() {
            Some(x) => x,
            None => {
                ls.busy = false;
                return;
            }
        };
        let next_bits = ls.queue.front().map(|(p, _)| p.bits);
        let link = *self.topo.link(lid);
        let qdelay = self.time - enq_t;
        // Stats + estimator at the transmitting router.
        if self.time >= self.warmup_end {
            let st = &mut self.link_stats[lid.index()];
            st.bits += pkt.bits;
            st.packets += 1;
            st.delay_sum += qdelay;
        }
        let from = &mut self.nodes[link.from.index()];
        if let Some(s) = from.slot(link.to) {
            from.est[s].on_packet(pkt.bits, qdelay);
        }
        let now = self.time;
        if let Some(o) = self.obs.as_deref_mut() {
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
                self.queue.push(self.time + b / link.capacity, Ev::LinkDeparture { link: lid })
            }
            None => self.links[lid.index()].busy = false,
        }
        // Propagation, then arrival at the far router.
        self.queue
            .push(self.time + link.prop_delay, Ev::NodeArrival { node: link.to, packet: pkt });
    }

    fn on_short_tick(&mut self, i: NodeId) {
        let now = self.time;
        if !self.alive(i) {
            // Crashed routers keep their timer slot but do nothing.
            self.queue.push(now + self.cfg.t_short, Ev::ShortTermTick { node: i });
            return;
        }
        for s in 0..self.nodes[i.index()].est.len() {
            let cost = self.nodes[i.index()].est[s].close_window(now);
            if self.obs.is_some() {
                let lid = self.nodes[i.index()].out_link[s];
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::LinkCostSample { time: now, node: i, link: lid, cost });
                }
            }
        }
        let NodeSt { agent, est, .. } = &mut self.nodes[i.index()];
        let allocs = agent.short_tick(|s| Some(est[s].cost()));
        if let Some(o) = self.obs.as_deref_mut() {
            publish_step(o, now, i, Vec::new(), &allocs);
        }
        self.queue.push(now + self.cfg.t_short, Ev::ShortTermTick { node: i });
    }

    fn on_long_tick(&mut self, i: NodeId) {
        if !self.alive(i) {
            self.queue.push(self.time + self.cfg.t_long, Ev::LongTermTick { node: i });
            return;
        }
        for s in 0..self.nodes[i.index()].out_link.len() {
            let NodeSt { agent, est, out_link, .. } = &mut self.nodes[i.index()];
            if !self.links[out_link[s].index()].up {
                continue;
            }
            let costs = |s: usize| Some(est[s].cost());
            if let Some((out, allocs)) = agent.report_cost(s, est[s].cost(), costs) {
                self.apply_agent_output(i, out, allocs);
            }
        }
        self.queue.push(self.time + self.cfg.t_long, Ev::LongTermTick { node: i });
    }

    fn on_scenario(&mut self, idx: usize) {
        let (_, ev) = self.scenario[idx].clone();
        let now = self.time;
        match ev {
            ScenarioEvent::SetFlowRate { flow, rate } => {
                self.flows[flow].rate = rate;
                self.flows[flow].epoch += 1;
                let t = self.next_interarrival(flow);
                if t.is_finite() {
                    self.queue.push(t, Ev::Generate { flow });
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::TrafficChange { time: now, flow: flow as u32, rate });
                }
            }
            ScenarioEvent::FailLink { a, b } => {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::Fault {
                        time: now,
                        event: FaultEvent::FailLink { a, b },
                    });
                }
                self.fail_physical(a, b);
            }
            ScenarioEvent::RestoreLink { a, b } => {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::Fault {
                        time: now,
                        event: FaultEvent::RestoreLink { a, b },
                    });
                }
                self.restore_physical(a, b);
            }
        }
    }

    /// Run to completion and report.
    ///
    /// The accumulated statistics are *moved* into the report (no
    /// clones); a second call would return empty measurements.
    pub fn run(&mut self) -> SimReport {
        // Keep a small tail margin so packets in flight at end_time can
        // drain into the stats? No: measurement closes at end_time.
        let mut events_processed = 0u64;
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.end_time {
                break;
            }
            self.time = t;
            events_processed += 1;
            match ev {
                Ev::Generate { flow } => {
                    if self.flows[flow].rate > 0.0 {
                        let bits = self.sample_packet_bits();
                        let pkt = Packet {
                            flow: flow as u32,
                            dst: self.flows[flow].dst,
                            created: self.time,
                            bits,
                            ttl: self.cfg.ttl,
                        };
                        let src = self.flows[flow].src;
                        self.forward(src, pkt);
                        let nt = self.next_interarrival(flow);
                        if nt.is_finite() {
                            self.queue.push(nt, Ev::Generate { flow });
                        }
                    }
                }
                Ev::LinkDeparture { link } => self.on_link_departure(link),
                Ev::NodeArrival { node, packet } => self.forward(node, packet),
                Ev::Control { node, from, msg } => {
                    let (msg, tag) = self.msgs.take_tagged(msg);
                    if self.control_deliverable(node, from, tag) {
                        let now = self.time;
                        let entries = msg.entries.len() as u64;
                        let ack = msg.ack;
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.on_event(&SimEvent::LsuReceived {
                                time: now,
                                node,
                                from,
                                entries,
                                ack,
                            });
                        }
                        self.route_event(node, RouterEvent::Lsu { from, msg });
                    }
                }
                Ev::ShortTermTick { node } => self.on_short_tick(node),
                Ev::LongTermTick { node } => self.on_long_tick(node),
                Ev::Scenario { index } => self.on_scenario(index),
                Ev::Fault { index } => self.on_fault(index),
                Ev::Sample => {}
            }
            if self.robust.is_some() {
                self.check_recovery();
            }
            if self.obs.is_some() {
                self.observe_quiescence();
            }
        }
        let mean_delays_ms: Vec<f64> =
            self.flow_stats.iter().map(|f| f.mean_delay() * 1000.0).collect();
        let delivered = self.flow_stats.iter().map(|f| f.delivered).sum();
        let dropped = self.flow_stats.iter().map(|f| f.dropped_no_route + f.dropped_ttl).sum();
        let robustness = self.robust.take().map(|rb| {
            let mut rep = RobustnessReport {
                faults: rb.records,
                counters: rb.counters,
                invariant_checks: rb.auditor.as_ref().map_or(0, |a| a.tally.checks),
                invariant_violations: rb.auditor.as_ref().map_or(0, |a| a.tally.violations),
                first_violation: rb.auditor.and_then(|a| a.tally.first_violation),
                ..Default::default()
            };
            rep.finalize();
            rep
        });
        SimReport {
            flows: std::mem::take(&mut self.flow_stats),
            links: std::mem::take(&mut self.link_stats),
            series: std::mem::take(&mut self.series),
            mean_delays_ms,
            control_messages: self.ctl_msgs,
            control_bytes: self.ctl_bytes,
            delivered,
            dropped,
            duration: self.cfg.duration,
            events_processed,
            robustness,
            telemetry: self.obs.take().map(|o| o.finish()),
            fluid: None,
        }
    }

    /// Extract the current routing variables (for analytic cross-checks
    /// against the same traffic).
    pub fn routing_vars(&self) -> RoutingVars {
        let n = self.topo.node_count();
        let mut vars = RoutingVars::new(n);
        for i in 0..n as u32 {
            let i = NodeId(i);
            for j in 0..n as u32 {
                let j = NodeId(j);
                if i == j {
                    continue;
                }
                let pairs: Vec<(NodeId, f64)> =
                    self.nodes[i.index()].agent.params(j).pairs().to_vec();
                vars.set(i, j, pairs);
            }
        }
        vars
    }

    /// Access a router (tests & diagnostics).
    pub fn router(&self, i: NodeId) -> &MpdaRouter {
        self.nodes[i.index()].agent.router()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.time
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
        // Loop-freedom end to end: with MPDA + LFI the TTL guard must
        // never fire, even across failures and cost churn.
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
