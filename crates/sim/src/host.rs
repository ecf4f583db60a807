//! The control plane both simulators host, once.
//!
//! A [`Host`] holds everything above the data plane: one [`Agent`] per
//! router, directed-link liveness, the LSU wire and its counters, the
//! fault layer (scheduled link failures, router crashes and restarts,
//! atomic partitions, an ARQ channel with loss, corruption and jitter,
//! incarnation tags, recovery clocks) and the LFI auditor. The packet
//! engine and the fluid engine each keep only their data plane and reach
//! it through the [`DataPlane`] hooks, so a fault, an LSU or a timer runs
//! the same code under either. The host also owns the event queue, the
//! clock and the telemetry observer: the data plane's events and the
//! control plane's share one total order and one observer.
//!
//! Without a fault plan or an audit the chaos runtime is absent, and the
//! hot paths pay one pointer check for it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::agent::{Agent, Allocs};
use crate::chaos::{ControlChaos, FaultEvent, FaultRecord, RobustnessCounters, RobustnessReport};
use crate::events::{Ev, EventQueue, MsgId, MsgSlab};
use crate::telemetry::{publish_step, SimEvent, SimObserver};
use crate::SimConfig;
use mdr_net::{LinkDelayModel, LinkId, Mm1, NodeId, Topology};
use mdr_proto::LsuMessage;
use mdr_routing::lfi::Auditor;
use mdr_routing::{RouterEvent, RouterOutput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What the host needs from the data plane under it.
pub(crate) trait DataPlane {
    /// The freshest marginal-cost estimate of router `i`'s link in
    /// neighbor slot `s`.
    fn cost(&self, i: NodeId, s: usize) -> f64;
    /// Close router `i`'s measurement windows at its `T_s` tick.
    fn close_windows(&mut self, i: NodeId, now: f64);
    /// Bring the data plane up to `now` before a control event moves
    /// anything.
    fn settle(&mut self, _host: &Host, _now: f64) {}
    /// Directed link `lid` left service; returns the packets lost with it.
    fn link_down(&mut self, host: &Host, lid: LinkId) -> u64;
    /// Directed link `lid` came back into service at its idle cost.
    fn link_up(&mut self, host: &Host, lid: LinkId);
    /// A step of router `i` visited its routing fractions toward the
    /// destinations in `allocs`.
    fn step(&mut self, _host: &Host, _i: NodeId, _allocs: &Allocs) {}
}

/// Relative cost change needed before a long-term update reports a new
/// link cost into MPDA (hysteresis against LSU churn).
const COST_CHANGE_THRESHOLD: f64 = 0.05;

/// One agent per router of `topo`, its neighbors in ascending address
/// order (the order `Topology::out_links` yields, which defines the
/// slots). `dests` limits allocation to the destinations a fluid run
/// carries traffic toward.
pub(crate) fn agents(topo: &Topology, cfg: &SimConfig, dests: Option<Arc<[NodeId]>>) -> Vec<Agent> {
    let n = topo.node_count();
    topo.nodes()
        .map(|i| {
            let nbrs = topo.neighbors(i).collect();
            let agent = Agent::new(i, n, cfg.mode, cfg.ah_gain, nbrs, COST_CHANGE_THRESHOLD);
            match &dests {
                Some(d) => agent.with_dests(d.clone()),
                None => agent,
            }
        })
        .collect()
}

/// Live chaos state; `None` in [`Host::robust`] unless a fault plan or
/// the audit is on.
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
    /// LFI auditor; `None` unless [`SimConfig::audit_invariants`] and
    /// there are agents to audit.
    auditor: Option<Auditor>,
    /// Audits are held while an atomic multi-link transition (a scripted
    /// partition cut/heal) is half-applied: the interleaved states never
    /// physically exist, so judging them would flag phantom violations.
    /// One audit runs on the fully-applied state instead.
    audit_hold: bool,
}

/// The shared control plane (see the module docs).
pub(crate) struct Host {
    pub(crate) topo: Topology,
    /// Simulated time of the event being handled.
    pub(crate) time: f64,
    pub(crate) queue: EventQueue,
    /// Telemetry observer; `None` keeps the hot paths at one pointer
    /// check, like `robust`.
    pub(crate) obs: Option<Box<dyn SimObserver>>,
    /// One control plane per router; empty where nothing adapts (the
    /// fluid engine under fixed routing or the quiescent control plane).
    pub(crate) agents: Vec<Agent>,
    /// Per directed link: in service — the wire is intact *and* neither
    /// endpoint is crashed. Everything outside the fault layer reads
    /// only this.
    pub(crate) up: Vec<bool>,
    /// Per directed link: the physical wire is intact. Differs from `up`
    /// only around router crashes, so a restart knows which adjacencies
    /// to revive.
    wire_up: Vec<bool>,
    /// Per directed link: the idle marginal cost it enters service at.
    idle: Vec<f64>,
    msgs: MsgSlab,
    /// LSU messages and bytes delivered to the wire.
    pub(crate) ctl_msgs: u64,
    pub(crate) ctl_bytes: u64,
    t_short: f64,
    t_long: f64,
    robust: Option<Box<RobustRt>>,
    /// Last observed control-plane quiescence state (edge detector for
    /// `ControlQuiescent` events; telemetry-only).
    quiescent: bool,
}

impl Host {
    /// The host of `agents` over `topo` (links priced by `models`). The
    /// chaos runtime is built here, before the boot LSUs go out, so even
    /// boot-time control traffic rides the impaired channel.
    pub(crate) fn new(
        topo: &Topology,
        cfg: &SimConfig,
        models: &[Mm1],
        agents: Vec<Agent>,
        queue_capacity: usize,
    ) -> Host {
        let n = topo.node_count();
        let robust = (cfg.fault_plan.is_some() || cfg.audit_invariants).then(|| {
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
            Box::new(RobustRt {
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
                auditor: (cfg.audit_invariants && !agents.is_empty()).then(|| Auditor::new(n)),
                audit_hold: false,
            })
        });
        Host {
            topo: topo.clone(),
            time: 0.0,
            queue: EventQueue::with_capacity(queue_capacity),
            obs: cfg.observer.build(),
            agents,
            up: vec![true; topo.link_count()],
            wire_up: vec![true; topo.link_count()],
            idle: models.iter().map(|m| m.marginal_delay(0.0)).collect(),
            msgs: MsgSlab::new(),
            ctl_msgs: 0,
            ctl_bytes: 0,
            t_short: cfg.t_short,
            t_long: cfg.t_long,
            robust,
            quiescent: false,
        }
    }

    /// Boot: bring every link up at its idle marginal cost (in `LinkId`
    /// order) and send the resulting LSUs, then, with `timers`, schedule
    /// the `T_s`/`T_l` ticks, phased randomly per router from `seed` (no
    /// timers under fixed routing: the allocation must not adapt).
    pub(crate) fn start(&mut self, p: &mut impl DataPlane, seed: u64, timers: bool) {
        for lid in 0..self.topo.link_count() {
            let l = *self.topo.link(LinkId(lid as u32));
            let Some(agent) = self.agents.get_mut(l.from.index()) else { break };
            let boot = RouterEvent::LinkUp { to: l.to, cost: self.idle[lid] };
            let (out, _) = agent.handle(boot, |s| Some(p.cost(l.from, s)));
            for s in out.sends {
                self.send_control(l.from, s.to, s.msg);
            }
        }
        if timers && !self.agents.is_empty() {
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in self.topo.nodes() {
                let ps = rng.gen::<f64>() * self.t_short;
                let pl = rng.gen::<f64>() * self.t_long;
                self.queue.push(ps, Ev::ShortTermTick { node: i });
                self.queue.push(pl, Ev::LongTermTick { node: i });
            }
        }
    }

    /// Schedule the pre-generated fault timeline.
    pub(crate) fn schedule_faults(&mut self) {
        if let Some(rb) = self.robust.as_deref() {
            for (idx, (t, _)) in rb.schedule.iter().enumerate() {
                self.queue.push(*t, Ev::Fault { index: idx });
            }
        }
    }

    /// Handle one control-plane event (`Control`, a tick or a `Fault`;
    /// the data plane's own events are its engine's), settling the data
    /// plane first.
    pub(crate) fn handle(&mut self, p: &mut impl DataPlane, ev: Ev) {
        p.settle(self, self.time);
        match ev {
            Ev::Control { node, from, msg } => self.on_control(p, node, from, msg),
            Ev::ShortTermTick { node } => self.on_short_tick(p, node),
            Ev::LongTermTick { node } => self.on_long_tick(p, node),
            Ev::Fault { index } => self.on_fault(p, index),
            _ => {}
        }
    }

    /// After every event: close the recovery clocks of pending faults
    /// and publish quiescence edges, when either is wanted.
    pub(crate) fn after_event(&mut self) {
        if self.robust.is_some() {
            self.check_recovery();
        }
        if self.obs.is_some() {
            self.observe_quiescence();
        }
    }

    /// True unless `x` is currently crashed.
    #[inline]
    pub(crate) fn alive(&self, x: NodeId) -> bool {
        self.robust.as_deref().is_none_or(|rb| !rb.crashed[x.index()])
    }

    /// Bump a robustness counter (no-op without chaos).
    #[inline]
    pub(crate) fn count(&mut self, f: impl FnOnce(&mut RobustnessCounters)) {
        if let Some(rb) = self.robust.as_deref_mut() {
            f(&mut rb.counters);
        }
    }

    /// True when no LSU is in flight and every router is PASSIVE.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.msgs.is_empty() && self.agents.iter().all(|a| a.is_passive())
    }

    /// The chaos and audit measurements, moved out; `Some` exactly when
    /// a fault plan or the audit was on.
    pub(crate) fn robustness(&mut self) -> Option<RobustnessReport> {
        self.robust.take().map(|rb| {
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
        })
    }

    /// Schedule delivery of an LSU over the wire.
    ///
    /// Without chaos: one serialization plus propagation delay. With
    /// [`ControlChaos`] enabled the LSU rides a link layer doing ARQ over
    /// a lossy channel — each dropped or corruption-rejected attempt
    /// charges one RTO plus a re-serialization (raw LSU loss would
    /// deadlock MPDA's ACTIVE state; §4.1 assumes a reliable link
    /// protocol, and this models it), duplicates are counted and
    /// suppressed, jitter is added, and per-link FIFO order is preserved
    /// by an arrival clamp.
    fn send_control(&mut self, from: NodeId, to: NodeId, msg: LsuMessage) {
        let Some(lid) = self.topo.link_between(from, to) else { return };
        if !self.up[lid.index()] {
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
                let id = self.msgs.insert_tagged(deliver, tag);
                self.wire(at, from, to, id, attempts * (bits / 8.0) as u64, attempts);
            } else {
                // Fault plan without control chaos: reliable wire, but
                // still incarnation-tagged so crash semantics hold.
                let bits = (mdr_proto::encoded_len(&msg) * 8) as f64;
                let at = self.time + l.prop_delay + bits / l.capacity;
                let id = self.msgs.insert_tagged(msg, tag);
                self.wire(at, from, to, id, (bits / 8.0) as u64, 1);
            }
            return;
        }
        let bits = (mdr_proto::encoded_len(&msg) * 8) as f64;
        let at = self.time + l.prop_delay + bits / l.capacity;
        let id = self.msgs.insert(msg);
        self.wire(at, from, to, id, (bits / 8.0) as u64, 1);
    }

    /// Put parked message `msg` on the wire `from → to`, arriving at `at`
    /// after `attempts` transmissions of `bytes` in total.
    fn wire(&mut self, at: f64, from: NodeId, to: NodeId, msg: MsgId, bytes: u64, attempts: u64) {
        self.ctl_msgs += 1;
        self.ctl_bytes += bytes;
        self.queue.push(at, Ev::Control { node: to, from, msg });
        let now = self.time;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&SimEvent::LsuSent { time: now, from, to, bytes, attempts });
        }
    }

    /// Router `i`'s rows, or the liveness of its out-edges, may have
    /// moved: tell the auditor (when on).
    fn touch(&mut self, i: NodeId) {
        if let Some(aud) = self.robust.as_deref_mut().and_then(|rb| rb.auditor.as_mut()) {
            aud.touch(i);
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
        let (agents, topo, up) = (&self.agents, &self.topo, &self.up);
        if let Some(rb) = self.robust.as_deref_mut().filter(|rb| !rb.audit_hold) {
            if let Some(aud) = rb.auditor.as_mut() {
                aud.audit(
                    now,
                    |i, j| agents[i.index()].router().successors(j),
                    |i, j| agents[i.index()].router().feasible_distance(j),
                    |i, k| topo.link_between(i, k).is_some_and(|l| up[l.index()]),
                );
            }
        }
    }

    /// Take directed link `lid` out of service (the data plane drops
    /// what it held). No-op when already down.
    pub(crate) fn deactivate_link(&mut self, p: &mut impl DataPlane, lid: LinkId) {
        if !self.up[lid.index()] {
            return;
        }
        self.up[lid.index()] = false;
        self.touch(self.topo.link(lid).from);
        let drained = p.link_down(self, lid);
        if drained > 0 {
            self.count(|c| c.packets_dropped_on_fault += drained);
        }
    }

    /// Router `x` reacts to losing its link to `y` (skipped while `x`
    /// is crashed — a dead router reacts to nothing).
    fn notify_link_down(&mut self, p: &mut impl DataPlane, x: NodeId, y: NodeId) {
        if self.alive(x) {
            self.route_event(p, x, RouterEvent::LinkDown { to: y });
        }
    }

    /// Put directed link `lid` (`x → y`) back in service at the idle
    /// marginal cost, with a fresh estimate, and tell `x`.
    pub(crate) fn activate_link(&mut self, p: &mut impl DataPlane, lid: LinkId) {
        self.up[lid.index()] = true;
        p.link_up(self, lid);
        let l = *self.topo.link(lid);
        self.route_event(p, l.from, RouterEvent::LinkUp { to: l.to, cost: self.idle[lid.index()] });
    }

    /// Fail the physical link `a — b`: both directed links leave
    /// service and each endpoint that was using its direction reacts.
    /// The wire dies atomically — both directions are taken out of
    /// service *before* either router reacts, so the audit that runs
    /// inside the first reaction already sees the other direction dead
    /// (its not-yet-notified upstream edge is exempt, correctly: the
    /// drained wire can't carry a loop).
    fn fail_physical(&mut self, p: &mut impl DataPlane, a: NodeId, b: NodeId) {
        let mut notify = [None, None];
        for (slot, (x, y)) in [(a, b), (b, a)].into_iter().enumerate() {
            if let Some(lid) = self.topo.link_between(x, y) {
                self.wire_up[lid.index()] = false;
                if self.up[lid.index()] {
                    notify[slot] = Some((x, y));
                }
                self.deactivate_link(p, lid);
            }
        }
        for (x, y) in notify.into_iter().flatten() {
            self.notify_link_down(p, x, y);
        }
    }

    /// Repair the physical link `a — b`; directions come back only when
    /// both endpoints are alive (a crashed endpoint revives its
    /// adjacencies at restart instead).
    fn restore_physical(&mut self, p: &mut impl DataPlane, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            if let Some(lid) = self.topo.link_between(x, y) {
                self.wire_up[lid.index()] = true;
                if !self.up[lid.index()] && self.alive(x) && self.alive(y) {
                    self.activate_link(p, lid);
                }
            }
        }
    }

    /// Crash router `x`: take every adjacent directed link out of
    /// service, let alive neighbors react, and wipe the router's
    /// protocol state — MPDA tables, allocator, pending ACKs, all of it.
    fn crash_router(&mut self, p: &mut impl DataPlane, x: NodeId) {
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
        let nbrs: Vec<NodeId> = self.topo.neighbors(x).collect();
        for &y in &nbrs {
            if let Some(lid) = self.topo.link_between(x, y) {
                self.deactivate_link(p, lid);
            }
            if let Some(lid) = self.topo.link_between(y, x) {
                let was_up = self.up[lid.index()];
                self.deactivate_link(p, lid);
                if was_up {
                    self.notify_link_down(p, y, x);
                }
            }
        }
        if let Some(agent) = self.agents.get_mut(x.index()) {
            agent.reset();
        }
        self.touch(x);
        self.audit();
    }

    /// Restart router `x` with empty state: adjacencies whose wire is
    /// intact and whose far end is alive come back up, and the LinkUp
    /// exchange re-synchronizes the tables from the neighbors.
    fn restart_router(&mut self, p: &mut impl DataPlane, x: NodeId) {
        let Some(rb) = self.robust.as_deref_mut() else { return };
        rb.crashed[x.index()] = false;
        let nbrs: Vec<NodeId> = self.topo.neighbors(x).collect();
        for &y in &nbrs {
            if !self.alive(y) {
                continue;
            }
            for lid in
                [self.topo.link_between(x, y), self.topo.link_between(y, x)].into_iter().flatten()
            {
                if self.wire_up[lid.index()] && !self.up[lid.index()] {
                    self.activate_link(p, lid);
                }
            }
        }
        self.audit();
    }

    /// Inject scheduled fault `index` and open its recovery clock.
    fn on_fault(&mut self, p: &mut impl DataPlane, index: usize) {
        let ev = {
            let Some(rb) = self.robust.as_deref_mut() else { return };
            let (t, ev) = rb.schedule[index];
            rb.records.push(FaultRecord { time: t, event: ev, recovery_s: None });
            rb.pending.push(rb.records.len() - 1);
            ev
        };
        self.perturb(p, ev);
    }

    /// Publish and apply one perturbation — a scheduled fault, or a
    /// scenario's scripted link failure or repair.
    pub(crate) fn perturb(&mut self, p: &mut impl DataPlane, ev: FaultEvent) {
        let now = self.time;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&SimEvent::Fault { time: now, event: ev });
        }
        match ev {
            FaultEvent::FailLink { a, b } => self.fail_physical(p, a, b),
            FaultEvent::RestoreLink { a, b } => self.restore_physical(p, a, b),
            FaultEvent::CrashRouter { node } => self.crash_router(p, node),
            FaultEvent::RestartRouter { node } => self.restart_router(p, node),
            FaultEvent::PartitionCut { index } => self.apply_partition(p, index as usize, true),
            FaultEvent::PartitionHeal { index } => self.apply_partition(p, index as usize, false),
        }
    }

    /// Cut (or heal) every physical link crossing partition `index`'s
    /// boundary, atomically — all boundary links transition at this one
    /// instant, which is the partition semantics the scripted schedule
    /// promises (no straggler link briefly bridging the cut).
    fn apply_partition(&mut self, p: &mut impl DataPlane, index: usize, cut: bool) {
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
        self.hold_audit(true);
        for (a, b) in pairs {
            if cut {
                self.fail_physical(p, a, b);
            } else {
                self.restore_physical(p, a, b);
            }
        }
        self.hold_audit(false);
        self.audit();
    }

    fn hold_audit(&mut self, hold: bool) {
        if let Some(rb) = self.robust.as_deref_mut() {
            rb.audit_hold = hold;
        }
    }

    /// Should a control message tagged `tag` be delivered from `from`
    /// to `node`? No when the receiver is down or either incarnation
    /// changed since transmission (a crash happened in between).
    fn control_deliverable(&mut self, node: NodeId, from: NodeId, tag: u64) -> bool {
        let Some(rb) = self.robust.as_deref_mut() else { return true };
        let want = ((rb.inc[from.index()] as u64) << 32) | rb.inc[node.index()] as u64;
        if rb.crashed[node.index()] || tag != want {
            rb.counters.lsus_dropped_stale += 1;
            return false;
        }
        true
    }

    /// An LSU arrives at `node` from `from`.
    fn on_control(&mut self, p: &mut impl DataPlane, node: NodeId, from: NodeId, msg: MsgId) {
        let (msg, tag) = self.msgs.take_tagged(msg);
        if !self.control_deliverable(node, from, tag) {
            return;
        }
        let now = self.time;
        let (entries, ack) = (msg.entries.len() as u64, msg.ack);
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_event(&SimEvent::LsuReceived { time: now, node, from, entries, ack });
        }
        self.route_event(p, node, RouterEvent::Lsu { from, msg });
    }

    /// Close the recovery clock of every pending fault once the control
    /// plane is quiescent again: no LSU in flight, every router PASSIVE.
    fn check_recovery(&mut self) {
        if self.robust.as_deref().is_none_or(|rb| rb.pending.is_empty()) || !self.is_quiescent() {
            return;
        }
        let now = self.time;
        let want_obs = self.obs.is_some();
        let Some(rb) = self.robust.as_deref_mut() else { return };
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
                o.on_event(&SimEvent::Recovery { time: now, fault_time: ft, recovery_s: now - ft });
            }
        }
    }

    /// Telemetry-only edge detector: publish a `ControlQuiescent` event
    /// each time the control plane transitions into quiescence (no LSU
    /// in flight, every router PASSIVE). Pure observation — reads state,
    /// perturbs nothing.
    fn observe_quiescence(&mut self) {
        let now = self.time;
        let q = self.is_quiescent();
        if q && !self.quiescent {
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_event(&SimEvent::ControlQuiescent { time: now });
            }
        }
        self.quiescent = q;
    }

    /// Feed `ev` to router `i`'s agent at the data plane's freshest
    /// link-cost estimates and carry out what it returns (nothing where
    /// no agents run).
    fn route_event(&mut self, p: &mut impl DataPlane, i: NodeId, ev: RouterEvent) {
        let Some(agent) = self.agents.get_mut(i.index()) else { return };
        let (out, allocs) = agent.handle(ev, |s| Some(p.cost(i, s)));
        self.apply(p, i, out, allocs);
    }

    /// Carry out an agent's output: transmit LSUs, and where routes
    /// changed tell the data plane, publish what moved and audit.
    fn apply(&mut self, p: &mut impl DataPlane, i: NodeId, out: RouterOutput, allocs: Allocs) {
        self.touch(i);
        for s in out.sends {
            self.send_control(i, s.to, s.msg);
        }
        if out.routes_changed {
            p.step(self, i, &allocs);
            if let Some(o) = self.obs.as_deref_mut() {
                publish_step(o, self.time, i, out.changed, &allocs);
            }
            // Loop-free at every instant: audit right where the tables
            // just changed.
            self.audit();
        }
    }

    /// Router `i`'s `T_s` tick: close its measurement windows and run AH.
    fn on_short_tick(&mut self, p: &mut impl DataPlane, i: NodeId) {
        let now = self.time;
        // Crashed routers keep their timer slot but do nothing.
        if self.alive(i) {
            p.close_windows(i, now);
            if let Some(o) = self.obs.as_deref_mut() {
                for (s, (link, _)) in self.topo.out_links(i).enumerate() {
                    let cost = p.cost(i, s);
                    o.on_event(&SimEvent::LinkCostSample { time: now, node: i, link, cost });
                }
            }
            let allocs = self.agents[i.index()].short_tick(|s| Some(p.cost(i, s)));
            p.step(self, i, &allocs);
            if let Some(o) = self.obs.as_deref_mut() {
                publish_step(o, now, i, Vec::new(), &allocs);
            }
        }
        self.queue.push(now + self.t_short, Ev::ShortTermTick { node: i });
    }

    /// Router `i`'s `T_l` tick: report each up link's cost into MPDA
    /// where it moved past the threshold.
    fn on_long_tick(&mut self, p: &mut impl DataPlane, i: NodeId) {
        if self.alive(i) {
            for s in 0..self.topo.degree(i) {
                let Some((lid, _)) = self.topo.out_links(i).nth(s) else { break };
                if !self.up[lid.index()] {
                    continue;
                }
                let agent = &mut self.agents[i.index()];
                if let Some((out, allocs)) =
                    agent.report_cost(s, p.cost(i, s), |s| Some(p.cost(i, s)))
                {
                    self.apply(p, i, out, allocs);
                }
            }
        }
        self.queue.push(self.time + self.t_long, Ev::LongTermTick { node: i });
    }
}
