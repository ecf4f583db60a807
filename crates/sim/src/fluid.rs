//! Fluid (flow-level) simulation engine: the hybrid flow-level mode.
//!
//! Instead of sampling individual Poisson packets, the fluid engine
//! treats each flow as a continuous rate and advances the network
//! between *routing epochs*: whenever the control plane changes a
//! routing parameter (or a scenario changes a rate), the piecewise-
//! constant fluid solution is re-resolved and statistics are integrated
//! analytically over the elapsed interval using the same `Mm1` closed
//! forms the estimator layer is built on. Two control planes share the
//! one fluid data plane:
//!
//! * [`SimMode::Fluid`] — the *real* distributed MPDA protocol, run by
//!   the packet engine's own control-plane host (`host.rs`): one
//!   [`crate::Agent`] per node, LSUs as events with serialization +
//!   propagation delay over the same chaos channel, per-router phased
//!   `T_s`/`T_l` timers, every [`crate::FaultPlan`] (link faults,
//!   crashes, control chaos, partitions) and the LFI audit. This module
//!   keeps only the data plane under it and answers the host's hooks:
//!   link costs are exact `Mm1` marginals at the EWMA-smoothed
//!   last-resolved link flows (the fluid analogue of estimator
//!   staleness: costs lag the data plane by one resolve), the solution
//!   is settled before every control event, and a link flip or a step
//!   that moved φ rewrites the DAG rows it touched. It is not faster
//!   than the packet engine at scale: on the 1000-router two-tier ISP
//!   topology its MP arm took 384 s, the packet engine's 116 s (one run
//!   each, one core of a shared 2-core x86-64 host, 2026-10-21).
//! * [`SimMode::FluidQuiescent`] — a centralized control plane that
//!   recomputes *converged* MPDA tables every `T_s` epoch by
//!   per-destination reverse SPF (at quiescence MPDA's successor set
//!   toward `j` is exactly the strict-downstream set `{k : D_k < D_i}`
//!   on marginal-delay link costs). Each epoch computes every link's
//!   marginal cost once, lays the up in-links out as one reversed
//!   graph, and runs `mdr_routing`'s one relaxation loop ([`Spf`], its
//!   buffers reused) over it per destination; the successor costs
//!   `D_k + l_ik` read the same costs. One allocator per destination,
//!   keyed by router. No per-router `O(E)` topology tables. It does
//!   not track MPDA at scale: on the 1000-router ISP topology its
//!   per-flow MP delay averages 2.91× the packet engine's under MPDA,
//!   and no 10k-router run has been made. The host runs no agents here,
//!   so this mode refuses fault plans and the audit.
//!
//! Per routing epoch the fluid solution is obtained per destination by
//! the two passes of [`mdr_opt::dag`], the solver `mdr_opt::evaluate`
//! also runs: a forward pass over the successor DAG (Kahn order; LFI
//! guarantees acyclicity) propagating injected rates into per-link
//! flows, and a backward pass computing per-source delivery probability
//! and mean delay, with per-link survival `σ_l = min(1, C_l/f_l)` so an
//! overloaded link saturates instead of producing negative delays (the
//! `Mm1` affine continuation keeps `T_l` finite at ρ ≥ 1). Saturation
//! losses land in [`FlowStats::dropped_congestion`] — packet mode queues
//! instead of dropping, so the field is fluid-only.
//!
//! A resolve does work only where something moved, and gives exactly
//! what a whole re-resolve would. By Eqs. 1–3 destination `j`'s link
//! flows depend on `φ^j` and `r^j` alone, so a destination is *dirty* —
//! gets a forward pass — exactly when a rate of one of its flows
//! changed or a row of its DAG was rewritten with other content
//! (`Dag::set_row` says whether it was). The per-destination flows
//! `fj` are the record: a link's total `ftot` is their sum in slot
//! order over the destinations with flow on it, and it, `σ_l` and `T_l`
//! are recomputed only on the links a dirty destination's old or new
//! flow is on. The totals therefore do not depend on which destinations
//! were resolved when, and skipping a clean one is bit-exact. Every
//! destination then gets a backward pass (a moved total moves `T_l`
//! for all that share the link), which sums only the rows the
//! destination's flow sources reach.
//!
//! The successor DAGs live in one store of `mdr_opt`'s row-stored
//! [`Dag`]s: every router's `(next_hop, link, share)` edges in a
//! fixed-capacity row plus a Kahn order, and `write_row` is the only
//! code that turns φ into edges (normalised shares, dead links left
//! out). A whole build is `write_row` for every router; after
//! that an MPDA step or an AH tick — one router changing its own φ
//! toward some destinations — rewrites that router's row in those
//! destinations' DAGs, a link going down or up rewrites its tail
//! router's row in every DAG, and the order is recomputed only when a
//! row's next-hop list changed. Patch and build being one code path,
//! the patched store is bit-equal to a fresh build (the dev profile
//! checks every DAG against an independent build each time it is used;
//! `FluidSimulator::audit_dags` checks the store, and the flows and
//! solution resolved over it, in any profile). Over a kept DAG the
//! backward pass walks depth-first from the flow sources and sums each
//! row it leaves ([`Dag::backward_from`]); a DAG with a cycle is summed
//! whole. The quiescent control plane rewrites every φ each epoch and
//! keeps no DAG, so it has no rows to compare: its epoch dirties the
//! destinations whose allocation moved by more than `SHIFT_EPS`, and a
//! link flip every destination. It builds into one reused buffer, per
//! destination per resolve
//! whole for the forward pass (the Kahn order of the `arrive` sums is
//! part of its result) and, for the backward pass, only the rows a
//! depth-first search from the destination's flow sources meets
//! ([`Dag::build_reached`]: the pass sums each row from its successors'
//! final values, so its value at a source does not depend on the order,
//! and it reads no other row). [`FluidWork`] counts all of it
//! ([`SimReport::fluid`]).
//!
//! Measurement semantics: statistics accumulate only after warm-up
//! (packet mode also counts pre-warm-up *drops*; the cross-validation
//! suite therefore compares delays, not drop totals). The per-flow
//! delay series is recorded over the whole run, like packet mode.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::agent::Allocs;
use crate::chaos::FaultEvent;
use crate::events::Ev;
use crate::host::{self, DataPlane, Host};
use crate::scenario::{Scenario, ScenarioEvent};
use crate::stats::{DelayHistogram, DelaySeries, FlowStats, LinkStats, SERIES_BUCKET};
use crate::telemetry::{SimEvent, SHIFT_EPS};
use crate::{SimConfig, SimMode, SimReport};
use mdr_flow::{Allocator, SuccessorCost, Update};
use mdr_net::{LinkDelayModel, LinkId, Mm1, NodeId, Topology, TrafficMatrix, INFINITE_COST};
use mdr_opt::dag::{row_starts, Dag, Reach};
use mdr_routing::{MpdaRouter, Spf};

/// Work the fluid engine did over one run ([`SimReport::fluid`]) — plain
/// counts, a pure function of the run's inputs, equal with the observer
/// on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FluidWork {
    /// Successor DAGs built whole (every row written, then ordered).
    pub dag_builds: u64,
    /// Successor DAGs built for a backward pass only where the
    /// destination's flow sources reach ([`Dag::build_reached`]).
    pub reached_builds: u64,
    /// Single rows rewritten in place in a kept DAG.
    pub rows_written: u64,
    /// Kept DAGs re-ordered because a rewritten row's next-hop list
    /// changed.
    pub reorders: u64,
    /// Re-resolves of the fluid solution (settles that found it dirty).
    pub resolves: u64,
    /// Per-destination forward passes: one per dirty destination per
    /// resolve.
    pub forward_passes: u64,
    /// Per-destination backward passes: one per destination per resolve
    /// (a moved link flow moves `T_l` for every destination using it).
    pub backward_passes: u64,
    /// Rows summed by the backward passes: with kept DAGs the rows the
    /// destination's flow sources reach, else the order's (the reached
    /// build's, or the whole one's where a DAG has a cycle).
    pub backward_rows: u64,
}

/// Sentinel for "destination carries no traffic" in the dest-slot map.
const NO_DEST: u32 = u32::MAX;

/// Per-flow fluid accumulators. All mass is carried in `f64`
/// packet-equivalents and rounded once at finalization, so long spans
/// of piecewise-constant integration lose nothing to repeated rounding.
#[derive(Clone)]
struct FlowAcc {
    pkts: f64,
    delay_pkts: f64,
    delay_sq_pkts: f64,
    max_delay: f64,
    no_route: f64,
    congestion: f64,
    hist: DelayHistogram,
    hist_delay: f64,
    hist_pkts: f64,
}

impl FlowAcc {
    fn new() -> Self {
        FlowAcc {
            pkts: 0.0,
            delay_pkts: 0.0,
            delay_sq_pkts: 0.0,
            max_delay: 0.0,
            no_route: 0.0,
            congestion: 0.0,
            hist: DelayHistogram::default(),
            hist_delay: 0.0,
            hist_pkts: 0.0,
        }
    }

    /// Flush the pending same-delay histogram run.
    fn flush_hist(&mut self) {
        let n = self.hist_pkts.round() as u64;
        if n > 0 {
            self.hist.record_n(self.hist_delay, n);
        }
        self.hist_pkts = 0.0;
    }
}

/// One flow's scriptable state.
struct FlowSt {
    src: NodeId,
    rate: f64,
    /// Slot of `dst` in the active-destination list.
    dest_slot: u32,
}

/// Per-router link-cost estimates, kept where agents run
/// ([`SimMode::Fluid`] without fixed routing). Slots are the agent's.
struct NodeSt {
    out_link: Vec<LinkId>,
    /// EWMA-smoothed link flow per neighbor slot — the fluid analogue
    /// of [`crate::estimator::LinkEstimator`]'s window smoothing (same
    /// α), so the control plane sees the same damped, lagged costs in
    /// both engines. Without it fluid SP flaps routes every tick where
    /// packet SP's smoothing holds them steady.
    smoothed: Vec<f64>,
    /// Cost estimate from the last closed window per neighbor slot
    /// (what `LinkEstimator::cost()` returns between windows).
    cost: Vec<f64>,
}

/// The fluid simulator. Construct with [`FluidSimulator::new`], then
/// [`FluidSimulator::run`] — or let [`crate::SimJob::run`] dispatch on
/// [`SimConfig::sim_mode`].
pub struct FluidSimulator {
    /// The control plane, the clock, the event queue and the observer —
    /// the packet engine's, with no agents under fixed routing or the
    /// quiescent control plane.
    host: Host,
    plane: FluidPlane,
}

/// Everything the fluid engine keeps below the shared control plane.
struct FluidPlane {
    cfg: SimConfig,
    models: Vec<Mm1>,
    nodes: Vec<NodeSt>,
    // Control plane (quiescent mode): one allocator per *destination
    // slot*, keyed by router (the allocator keeps each key's state apart
    // and keys purely on the id's index), so one destination's sweep
    // and one DAG build read one allocator's contiguous state.
    qalloc: Vec<Allocator>,
    /// The quiescent epoch's reverse SPF, its buffers kept across runs;
    /// each link's marginal cost at the epoch's link flows; and the
    /// reversed graph the SPF runs over, `(from, cost)` per up in-link
    /// of `u` at `rev[rev_start[u]..rev_start[u + 1]]`.
    spf: Spf,
    cost: Vec<f64>,
    rev_start: Vec<u32>,
    rev: Vec<(u32, f64)>,
    // Fluid data plane.
    active_dests: Vec<NodeId>,
    flows: Vec<FlowSt>,
    flows_by_dest: Vec<Vec<u32>>,
    /// Resolved flow (bits/s) per directed link and destination slot:
    /// per link, `(slot, flow)` for each slot with flow on it, ascending
    /// by slot; per slot, the links its last forward pass pushed flow on.
    fj: Vec<Vec<(u32, f64)>>,
    used: Vec<Vec<u32>>,
    /// Total resolved flow per directed link (bits/s): the slot-order
    /// sum of `fj`, so it does not depend on which slots were resolved.
    ftot: Vec<f64>,
    /// Per directed link: already among the links a resolve moved.
    moved: Vec<bool>,
    /// Per flow: delivery probability (with saturation), route-only
    /// delivery probability, and conditional mean delay.
    sol_p: Vec<f64>,
    sol_proute: Vec<f64>,
    sol_d: Vec<f64>,
    dirty: Vec<bool>,
    any_dirty: bool,
    /// Out-degree prefix sums: where each router's row starts in every
    /// [`Dag`].
    row: Vec<u32>,
    /// With `keep_dags`, one DAG per destination slot, built once and
    /// then patched by row whenever something a row was written from —
    /// that router's φ toward the destination, the host's `up` bit of
    /// one of its out-links — moves. Without, a single buffer every use
    /// builds into: the quiescent control plane rewrites every φ each
    /// epoch, so a kept DAG would be memory and never a hit.
    dags: Vec<Dag>,
    keep_dags: bool,
    /// Scratch for [`Dag::reorder`] and for the forward (`arrive`) and
    /// backward (`reach`) passes, one value per node.
    indeg: Vec<u32>,
    arrive: Vec<f64>,
    reach: Reach,
    /// Per directed link at the last resolve: survival fraction
    /// `σ_l = min(1, C_l / f_l)` and per-packet delay `T_l(f_l)`, the
    /// backward pass's inputs.
    sigma: Vec<f64>,
    t_l: Vec<f64>,
    work: FluidWork,
    /// Time up to which statistics have been integrated.
    cursor: f64,
    // Measurement.
    warmup_end: f64,
    end_time: f64,
    acc: Vec<FlowAcc>,
    link_stats: Vec<LinkStats>,
    link_pkts: Vec<f64>,
    series: DelaySeries,
    events_processed: u64,
    scenario: Vec<(f64, ScenarioEvent)>,
    /// Run each quiescent epoch by [`FluidPlane::on_epoch_reference`] and
    /// build every DAG whole: the reference of the differential test.
    #[cfg(test)]
    old_epoch: bool,
}

impl FluidSimulator {
    /// Build a fluid simulator over `topo` carrying `traffic` with
    /// scripted `scenario` perturbations. `cfg.sim_mode` selects the
    /// control plane ([`SimMode::Packet`] is treated as
    /// [`SimMode::Fluid`] — dispatching belongs to [`crate::SimJob`]).
    /// A `cfg.fault_plan` and `cfg.audit_invariants` run through the
    /// same control-plane host as in the packet engine.
    ///
    /// # Panics
    /// [`SimMode::FluidQuiescent`] refuses `cfg.audit_invariants` and
    /// `cfg.fault_plan`: it keeps no protocol state to audit or to
    /// perturb (its tables are converged, so loop-free, by construction
    /// each epoch), and its epoch loop carries no LSU, timer or fault.
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
        let quiescent_cp = cfg.sim_mode == SimMode::FluidQuiescent;
        assert!(
            !(quiescent_cp && (cfg.audit_invariants || cfg.fault_plan.is_some())),
            "FluidQuiescent keeps no protocol state to audit or to perturb: its tables are \
             converged, so loop-free, by construction each epoch, and its epoch loop carries \
             no LSU, timer or fault; use SimMode::Fluid for audits and fault plans"
        );
        let epoch_driven = FluidPlane::epoch_driven(&cfg);
        let models: Vec<Mm1> = topo
            .links()
            .iter()
            .map(|l| Mm1::new(l.capacity, l.prop_delay, cfg.mean_packet_bits))
            .collect();

        // Active destinations: every distinct flow destination, whether
        // or not its rate is currently nonzero (a scenario may turn a
        // zero-rate flow on later).
        let mut dest_slot = vec![NO_DEST; n];
        let mut active_dests: Vec<NodeId> = Vec::new();
        for f in traffic.flows() {
            if dest_slot[f.dst.index()] == NO_DEST {
                dest_slot[f.dst.index()] = 0; // provisional mark
                active_dests.push(f.dst);
            }
        }
        active_dests.sort_unstable();
        for (slot, &j) in active_dests.iter().enumerate() {
            dest_slot[j.index()] = slot as u32;
        }
        let nd = active_dests.len();

        let flows: Vec<FlowSt> = traffic
            .flows()
            .iter()
            .map(|f| FlowSt { src: f.src, rate: f.rate, dest_slot: dest_slot[f.dst.index()] })
            .collect();
        let mut flows_by_dest: Vec<Vec<u32>> = vec![Vec::new(); nd];
        for (fi, f) in flows.iter().enumerate() {
            flows_by_dest[f.dest_slot as usize].push(fi as u32);
        }

        // The control plane: the protocol mode boots agents allocating
        // only toward the active destinations; the quiescent mode keeps
        // one allocator per destination instead; fixed routing, neither.
        let fixed = cfg.fixed_routing.is_some();
        let agents = if fixed || quiescent_cp {
            Vec::new()
        } else {
            host::agents(topo, &cfg, Some(active_dests.as_slice().into()))
        };
        let nodes: Vec<NodeSt> = if agents.is_empty() {
            Vec::new()
        } else {
            topo.nodes()
                .map(|i| {
                    let out_link: Vec<LinkId> = topo.out_links(i).map(|(lid, _)| lid).collect();
                    let cost = out_link.iter().map(|l| models[l.index()].marginal_delay(0.0));
                    NodeSt { smoothed: vec![0.0; out_link.len()], cost: cost.collect(), out_link }
                })
                .collect()
        };
        let qalloc: Vec<Allocator> = if quiescent_cp && !fixed {
            (0..nd).map(|_| Allocator::new(n, cfg.mode).with_ah_gain(cfg.ah_gain)).collect()
        } else {
            Vec::new()
        };

        let (seed, queue_capacity) = (cfg.seed, 2 * n + scenario.events().len() + 16);
        let mut host = Host::new(topo, &cfg, &models, agents, queue_capacity);
        let nflows = flows.len();
        let t_l = models.iter().map(|m| m.packet_delay(0.0)).collect();
        let mut plane = FluidPlane {
            models,
            nodes,
            qalloc,
            spf: Spf::default(),
            cost: vec![0.0; if quiescent_cp { topo.link_count() } else { 0 }],
            rev_start: vec![0; if quiescent_cp { n + 1 } else { 0 }],
            rev: Vec::new(),
            active_dests,
            flows,
            flows_by_dest,
            fj: vec![Vec::new(); topo.link_count()],
            used: vec![Vec::new(); nd],
            ftot: vec![0.0; topo.link_count()],
            moved: vec![false; topo.link_count()],
            sol_p: vec![0.0; nflows],
            sol_proute: vec![0.0; nflows],
            sol_d: vec![0.0; nflows],
            dirty: vec![true; nd],
            any_dirty: true,
            row: row_starts(topo),
            dags: Vec::new(),
            keep_dags: !epoch_driven,
            indeg: Vec::new(),
            arrive: vec![0.0; n],
            reach: Reach::new(n),
            sigma: vec![1.0; topo.link_count()],
            t_l,
            work: FluidWork::default(),
            cursor: 0.0,
            warmup_end: cfg.warmup,
            end_time: cfg.warmup + cfg.duration,
            acc: vec![FlowAcc::new(); nflows],
            link_stats: vec![LinkStats::default(); topo.link_count()],
            link_pkts: vec![0.0; topo.link_count()],
            series: DelaySeries::new(nflows, SERIES_BUCKET),
            events_processed: 0,
            scenario: scenario.events(),
            #[cfg(test)]
            old_epoch: false,
            cfg,
        };
        host.start(&mut plane, seed, !fixed);
        // The epoch loop reads the scenario directly.
        if !epoch_driven {
            for (idx, (t, _)) in plane.scenario.iter().enumerate() {
                host.queue.push(*t, Ev::Scenario { index: idx });
            }
        }
        host.schedule_faults();
        plane.dags = vec![Dag::new(n, topo.link_count()); if epoch_driven { 1 } else { nd }];
        if !epoch_driven {
            for js in 0..nd {
                let mut dag = std::mem::take(&mut plane.dags[js]);
                plane.build(&host, &mut dag, js);
                plane.dags[js] = dag;
            }
        }
        FluidSimulator { host, plane }
    }

    /// Every kept DAG against one built whole, now, through the same row
    /// writer: each row, and the order where it claims to be current (in
    /// the dev profile also against the reference build). And what was
    /// resolved over them, bit for bit: a clean destination's link flows
    /// against a forward pass over the whole build, every link total
    /// against the slot-order sum, and, where nothing is dirty, every
    /// flow's solution against a whole backward pass at its source. What
    /// the differential suite asserts after every event, in any profile.
    #[doc(hidden)]
    pub fn audit_dags(&self) -> Result<(), String> {
        self.plane.audit_dags(&self.host)
    }

    fn on_scenario(&mut self, idx: usize) {
        let (_, ev) = self.plane.scenario[idx].clone();
        self.plane.settle(&self.host, self.host.time);
        self.apply_scenario(ev);
    }

    /// A scripted event: a rate change dirties its destination; a link
    /// failure or repair goes through the host like a scheduled fault.
    fn apply_scenario(&mut self, ev: ScenarioEvent) {
        let (host, plane) = (&mut self.host, &mut self.plane);
        match ev {
            ScenarioEvent::SetFlowRate { flow, rate } => {
                plane.flows[flow].rate = rate;
                plane.mark_dirty(plane.flows[flow].dest_slot as usize);
                let now = host.time;
                if let Some(o) = host.obs.as_deref_mut() {
                    o.on_event(&SimEvent::TrafficChange { time: now, flow: flow as u32, rate });
                }
            }
            ScenarioEvent::FailLink { a, b } => host.perturb(plane, FaultEvent::FailLink { a, b }),
            ScenarioEvent::RestoreLink { a, b } => {
                host.perturb(plane, FaultEvent::RestoreLink { a, b })
            }
        }
    }

    /// True when no LSU is in flight and every router is PASSIVE for
    /// every destination (trivially true where no agents run: the
    /// quiescent control plane is converged by construction each epoch).
    pub fn is_quiescent(&self) -> bool {
        self.host.is_quiescent()
    }

    /// Access a router (tests & diagnostics; protocol mode only).
    pub fn router(&self, i: NodeId) -> &MpdaRouter {
        self.host.agents[i.index()].router()
    }

    /// Run to completion and report. Statistics are moved into the
    /// report, like the packet engine.
    pub fn run(&mut self) -> SimReport {
        self.run_with(|_| {})
    }

    /// [`Self::run`], calling `after_event` once every processed event —
    /// the differential suite's hook for [`Self::audit_dags`].
    #[doc(hidden)]
    pub fn run_with(&mut self, mut after_event: impl FnMut(&Self)) -> SimReport {
        let end_time = self.plane.end_time;
        if FluidPlane::epoch_driven(&self.plane.cfg) {
            let mut next_epoch = 0.0;
            let mut si = 0usize;
            loop {
                let t_s = self.plane.scenario.get(si).map_or(f64::INFINITY, |&(t, _)| t);
                if next_epoch <= t_s && next_epoch <= end_time {
                    self.plane.events_processed += 1;
                    self.host.time = next_epoch;
                    self.plane.on_epoch(&self.host, next_epoch);
                    next_epoch += self.plane.cfg.t_short;
                } else if t_s <= end_time {
                    self.plane.events_processed += 1;
                    self.host.time = t_s;
                    self.plane.settle(&self.host, t_s);
                    let (_, ev) = self.plane.scenario[si].clone();
                    self.apply_scenario(ev);
                    si += 1;
                } else {
                    break;
                }
                after_event(self);
            }
        } else {
            while let Some((t, ev)) = self.host.queue.pop() {
                if t > end_time {
                    break;
                }
                self.host.time = t;
                self.plane.events_processed += 1;
                match ev {
                    Ev::Scenario { index } => self.on_scenario(index),
                    ev => self.host.handle(&mut self.plane, ev),
                }
                self.host.after_event();
                after_event(self);
            }
        }
        self.host.time = end_time;
        self.plane.settle(&self.host, end_time);

        // Finalize: round the f64 accumulators into packet counts once.
        let p = &mut self.plane;
        let mut flow_stats: Vec<FlowStats> = Vec::with_capacity(p.acc.len());
        for acc in &mut p.acc {
            acc.flush_hist();
            flow_stats.push(FlowStats {
                delivered: acc.pkts.round() as u64,
                delay_sum: acc.delay_pkts,
                delay_sq_sum: acc.delay_sq_pkts,
                max_delay: acc.max_delay,
                dropped_no_route: acc.no_route.round() as u64,
                dropped_ttl: 0,
                dropped_congestion: acc.congestion.round() as u64,
                histogram: std::mem::take(&mut acc.hist),
            });
        }
        for (l, st) in p.link_stats.iter_mut().enumerate() {
            st.packets = p.link_pkts[l].round() as u64;
        }
        let mean_delays_ms: Vec<f64> = flow_stats.iter().map(|f| f.mean_delay() * 1000.0).collect();
        let delivered = flow_stats.iter().map(|f| f.delivered).sum();
        let dropped = flow_stats
            .iter()
            .map(|f| f.dropped_no_route + f.dropped_ttl + f.dropped_congestion)
            .sum();
        SimReport {
            flows: flow_stats,
            links: std::mem::take(&mut p.link_stats),
            series: std::mem::take(&mut p.series),
            mean_delays_ms,
            control_messages: self.host.ctl_msgs,
            control_bytes: self.host.ctl_bytes,
            delivered,
            dropped,
            duration: p.cfg.duration,
            events_processed: p.events_processed,
            robustness: self.host.robustness(),
            telemetry: self.host.obs.take().map(|o| o.finish()),
            fluid: Some(p.work),
        }
    }

    /// Resolved flow on directed link `lid` (bits/s) — diagnostics and
    /// the cross-validation suite's worst-link error message.
    pub fn link_flow(&self, lid: LinkId) -> f64 {
        self.plane.ftot[lid.index()]
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.host.time
    }
}

impl DataPlane for FluidPlane {
    fn cost(&self, i: NodeId, s: usize) -> f64 {
        self.nodes[i.index()].cost[s]
    }

    /// Close node `i`'s per-link measurement windows: EWMA the
    /// last-resolved link flow — the fluid analogue of the packet
    /// estimator's measured window flow — and refresh the per-slot cost
    /// estimate from the `Mm1` closed form. Keeping the same smoothing
    /// constant as [`crate::estimator::LinkEstimator`] makes both
    /// engines' control planes equally damped; without it fluid routing
    /// reacts instantly and flaps where packet routing holds steady.
    fn close_windows(&mut self, i: NodeId, _now: f64) {
        let node = &mut self.nodes[i.index()];
        for (s, lid) in node.out_link.iter().enumerate() {
            let f = self.ftot[lid.index()];
            node.smoothed[s] = crate::estimator::WINDOW_ALPHA * f
                + (1.0 - crate::estimator::WINDOW_ALPHA) * node.smoothed[s];
            node.cost[s] = self.models[lid.index()].marginal_delay(node.smoothed[s]);
        }
    }

    /// Integrate statistics with the current (piecewise-constant)
    /// solution from the cursor up to `t`, re-resolving first if the
    /// routing state changed at the cursor. Must be called *before*
    /// any mutation of rates, routing parameters, or link states.
    fn settle(&mut self, host: &Host, t: f64) {
        let t = t.min(self.end_time);
        if t <= self.cursor {
            return;
        }
        self.resolve(host);
        let (a, b) = (self.cursor, t);
        self.cursor = t;
        let lpkt = self.cfg.mean_packet_bits;
        for fi in 0..self.flows.len() {
            let rate = self.flows[fi].rate;
            if rate <= 0.0 {
                continue;
            }
            let lambda = rate / lpkt;
            let (p, proute, d) = (self.sol_p[fi], self.sol_proute[fi], self.sol_d[fi]);
            if p > 0.0 {
                self.series.record_mass(fi, a, b, lambda * p, d);
            }
            let lo = a.max(self.warmup_end);
            if b <= lo {
                continue;
            }
            let dt = b - lo;
            let acc = &mut self.acc[fi];
            let dm = lambda * p * dt;
            if dm > 0.0 {
                acc.pkts += dm;
                acc.delay_pkts += dm * d;
                acc.delay_sq_pkts += dm * d * d;
                if d > acc.max_delay {
                    acc.max_delay = d;
                }
                if acc.hist_pkts > 0.0 && (d - acc.hist_delay).abs() > 1e-15 {
                    acc.flush_hist();
                }
                acc.hist_delay = d;
                acc.hist_pkts += dm;
            }
            acc.no_route += lambda * (1.0 - proute).max(0.0) * dt;
            acc.congestion += lambda * (proute - p).max(0.0) * dt;
        }
        let lo = a.max(self.warmup_end);
        if b > lo {
            let dt = b - lo;
            for l in 0..self.ftot.len() {
                let f = self.ftot[l];
                if f <= 0.0 || !host.up[l] {
                    continue;
                }
                let model = &self.models[l];
                let c = model.capacity;
                let carried = f.min(c);
                let st = &mut self.link_stats[l];
                st.bits += carried * dt;
                let pk = carried / lpkt * dt;
                self.link_pkts[l] += pk;
                // Queueing + serialization, matching packet mode's
                // per-link delay accounting (no propagation term).
                st.delay_sum += pk * (model.packet_delay(f) - model.prop_delay);
                let q = if f < 0.99 * c { f / (c - f) } else { 99.0 * (f / c) };
                let q = q.min(1e12) as usize;
                if q > st.max_queue {
                    st.max_queue = q;
                }
            }
        }
    }

    fn link_down(&mut self, host: &Host, lid: LinkId) -> u64 {
        self.link_moved(host, lid);
        0
    }

    /// Fresh estimator state, like the packet engine's.
    fn link_up(&mut self, host: &Host, lid: LinkId) {
        if let Some(node) = self.nodes.get_mut(host.topo.link(lid).from.index()) {
            if let Some(s) = node.out_link.iter().position(|&l| l == lid) {
                node.smoothed[s] = 0.0;
                node.cost[s] = self.models[lid.index()].marginal_delay(0.0);
            }
        }
        self.link_moved(host, lid);
    }

    /// Rewrite router `i`'s row toward every destination the allocator
    /// visited; those whose row came out different are dirty. A route
    /// change that moved no φ here (distances only, or a destination
    /// without traffic) moves no link flow.
    fn step(&mut self, host: &Host, i: NodeId, allocs: &Allocs) {
        for &(j, _) in allocs {
            if let Ok(js) = self.active_dests.binary_search(&j) {
                self.patch_row(host, js, i.index());
            }
        }
    }
}

/// A flow's `(p, proute, d)` at its source `s` from a backward pass.
fn at_source(r: &Reach, s: usize) -> [f64; 3] {
    [r.p[s], r.proute[s], if r.p[s] > 1e-300 { r.m[s] / r.p[s] } else { 0.0 }]
}

impl FluidPlane {
    /// Does the quiescent control plane's epoch loop drive the run (and
    /// rewrite every φ each epoch), rather than the event queue?
    fn epoch_driven(cfg: &SimConfig) -> bool {
        cfg.sim_mode == SimMode::FluidQuiescent && cfg.fixed_routing.is_none()
    }

    /// Routing fractions of node `i` toward destination slot `js`.
    fn phi<'a>(&'a self, host: &'a Host, i: usize, js: usize) -> &'a [(NodeId, f64)] {
        if let Some(vars) = &self.cfg.fixed_routing {
            return vars.get(NodeId(i as u32), self.active_dests[js]);
        }
        if self.cfg.sim_mode == SimMode::FluidQuiescent {
            self.qalloc[js].params(NodeId(i as u32)).pairs()
        } else {
            host.agents[i].params(self.active_dests[js]).pairs()
        }
    }

    /// Rewrite router `i`'s row of `dag` from its routing fractions
    /// toward destination slot `js` — the one place φ becomes edges. Each
    /// edge carries `(next_hop, link, share)` where `share` is the
    /// normalized routing fraction; mass routed toward a dead link (or
    /// an empty successor set) is simply never propagated — the fluid
    /// analogue of packet mode's no-route drop at a dead next hop. φ
    /// names a next hop at most once, so a row never outgrows the
    /// router's out-degree. True when the row changed.
    fn write_row(&self, host: &Host, dag: &mut Dag, js: usize, i: usize) -> bool {
        let pairs = if i == self.active_dests[js].index() { &[] } else { self.phi(host, i, js) };
        let total: f64 = pairs.iter().map(|&(_, w)| w.max(0.0)).sum();
        let pairs = if total > 0.0 { pairs } else { &[] };
        let edges = pairs.iter().filter(|&&(_, w)| w > 0.0).filter_map(|&(k, w)| {
            let lid = host.topo.link_between(NodeId(i as u32), k)?;
            host.up[lid.index()].then_some((k.0, lid.0, w / total))
        });
        dag.set_row(&self.row, i, edges)
    }

    /// Build `dag` whole for destination slot `js`: every row, then the
    /// order.
    fn build(&mut self, host: &Host, dag: &mut Dag, js: usize) {
        for i in 0..host.topo.node_count() {
            self.write_row(host, dag, js, i);
        }
        dag.reorder(&self.row, &mut self.indeg);
        self.work.dag_builds += 1;
    }

    /// Router `i`'s routing fractions toward slot `js`, or one of its
    /// out-links' `up` bit, moved: rewrite that one row where the DAG is
    /// kept, and mark the slot dirty if the row changed — always where
    /// no DAG is kept to tell.
    fn patch_row(&mut self, host: &Host, js: usize, i: usize) {
        let changed = !self.keep_dags || {
            let mut dag = std::mem::take(&mut self.dags[js]);
            let changed = self.write_row(host, &mut dag, js, i);
            self.dags[js] = dag;
            self.work.rows_written += 1;
            changed
        };
        if changed {
            self.mark_dirty(js);
        }
    }

    /// Directed link `lid` (`x → y`) went down or up: only `x`'s rows can
    /// hold it, one per DAG.
    fn link_moved(&mut self, host: &Host, lid: LinkId) {
        let x = host.topo.link(lid).from.index();
        for js in 0..self.active_dests.len() {
            self.patch_row(host, js, x);
        }
    }

    /// The successor DAG toward slot `js`, rows and order current: the
    /// kept one (re-ordered if a row write changed its edge set), or the
    /// shared buffer freshly built. The caller hands it back through
    /// [`Self::keep_dag`].
    fn take_dag(&mut self, host: &Host, js: usize) -> Dag {
        let at = self.dag_at(js);
        let mut dag = std::mem::take(&mut self.dags[at]);
        if !self.keep_dags {
            self.build(host, &mut dag, js);
        } else if !dag.order_ok() {
            dag.reorder(&self.row, &mut self.indeg);
            self.work.reorders += 1;
        }
        #[cfg(any(test, debug_assertions))]
        if let Err(e) = self.check_against_oracle(host, &dag, js) {
            panic!("{e}");
        }
        dag
    }

    /// The shared buffer built for slot `js`'s backward pass only where
    /// the flows' sources reach: the rows the pass reads at the sources
    /// are the whole build's, and so is what it computes there (see
    /// [`Dag::build_reached`]; the whole DAG is loop-free, every edge
    /// descending `D_k < D_i`). Built whole if the search meets a cycle.
    fn take_reached_dag(&mut self, host: &Host, js: usize) -> Dag {
        let mut dag = std::mem::take(&mut self.dags[0]);
        let sources = self.flows_by_dest[js].iter().map(|&fi| self.flows[fi as usize].src.index());
        if dag.build_reached(&self.row, sources, |dag, i| {
            self.write_row(host, dag, js, i);
        }) {
            self.work.reached_builds += 1;
            #[cfg(any(test, debug_assertions))]
            if let Err(e) = self.check_reached_against_oracle(host, &dag, js) {
                panic!("{e}");
            }
        } else {
            self.build(host, &mut dag, js);
        }
        dag
    }

    /// Hand back what [`Self::take_dag`] gave out.
    fn keep_dag(&mut self, js: usize, dag: Dag) {
        let at = self.dag_at(js);
        self.dags[at] = dag;
    }

    /// Where slot `js`'s DAG lives in `dags`.
    fn dag_at(&self, js: usize) -> usize {
        if self.keep_dags {
            js
        } else {
            0
        }
    }

    /// The successor DAG toward slot `js` built the plain way — CSR
    /// `starts`, edges, Kahn order, all fresh — kept as the reference the
    /// row store is compared against.
    #[cfg(any(test, debug_assertions))]
    fn build_dag(&self, host: &Host, js: usize) -> (Vec<u32>, Vec<mdr_opt::dag::Edge>, Vec<u32>) {
        let n = host.topo.node_count();
        let j = self.active_dests[js];
        let mut starts = vec![0u32; n + 1];
        let mut edges = Vec::new();
        let mut indeg = vec![0u32; n];
        for (i, start) in starts.iter_mut().enumerate().take(n) {
            *start = edges.len() as u32;
            if i == j.index() {
                continue;
            }
            let pairs = self.phi(host, i, js);
            let total: f64 = pairs.iter().map(|&(_, w)| w.max(0.0)).sum();
            if total <= 0.0 {
                continue;
            }
            for &(k, w) in pairs {
                if w <= 0.0 {
                    continue;
                }
                let Some(lid) = host.topo.link_between(NodeId(i as u32), k) else { continue };
                if !host.up[lid.index()] {
                    continue;
                }
                edges.push((k.0, lid.index() as u32, w / total));
                indeg[k.index()] += 1;
            }
        }
        starts[n] = edges.len() as u32;
        let mut order: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let i = order[head] as usize;
            head += 1;
            for &(k, _, _) in &edges[starts[i] as usize..starts[i + 1] as usize] {
                indeg[k as usize] -= 1;
                if indeg[k as usize] == 0 {
                    order.push(k);
                }
            }
        }
        (starts, edges, order)
    }

    /// `dag` (slot `js`) against [`Self::build_dag`]: every row, and the
    /// order when it claims to be current.
    #[cfg(any(test, debug_assertions))]
    fn check_against_oracle(&self, host: &Host, dag: &Dag, js: usize) -> Result<(), String> {
        let (starts, edges, order) = self.build_dag(host, js);
        for i in 0..host.topo.node_count() {
            let want = &edges[starts[i] as usize..starts[i + 1] as usize];
            if dag.row(&self.row, i) != want {
                return Err(format!("slot {js}: row {i} is stale against a fresh build"));
            }
        }
        if dag.order_ok() && dag.order() != order {
            return Err(format!("slot {js}: order is stale against a fresh build"));
        }
        Ok(())
    }

    /// A reached build (slot `js`) against [`Dag::build_reached`]'s
    /// premise and promise: the reference DAG is loop-free, the order
    /// holds exactly the nodes the flows' sources reach, each before its
    /// successors, and every reached row is the reference's.
    #[cfg(any(test, debug_assertions))]
    fn check_reached_against_oracle(
        &self,
        host: &Host,
        dag: &Dag,
        js: usize,
    ) -> Result<(), String> {
        let n = host.topo.node_count();
        let (starts, edges, order) = self.build_dag(host, js);
        if order.len() != n {
            return Err(format!("slot {js}: a cycle, so a reached build is not exact"));
        }
        let succ = |i: usize| &edges[starts[i] as usize..starts[i + 1] as usize];
        let mut reached = vec![false; n];
        let mut stack: Vec<usize> =
            self.flows_by_dest[js].iter().map(|&fi| self.flows[fi as usize].src.index()).collect();
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut reached[i], true) {
                stack.extend(succ(i).iter().map(|e| e.0 as usize));
            }
        }
        let mut pos = vec![usize::MAX; n];
        for (at, &i) in dag.order().iter().enumerate() {
            pos[i as usize] = at;
        }
        for i in 0..n {
            if reached[i] != (pos[i] != usize::MAX) {
                return Err(format!("slot {js}: node {i} reached is {}", reached[i]));
            }
            if reached[i] && dag.row(&self.row, i) != succ(i) {
                return Err(format!("slot {js}: reached row {i} is stale"));
            }
            if reached[i] && succ(i).iter().any(|e| pos[e.0 as usize] <= pos[i]) {
                return Err(format!("slot {js}: node {i} is not before its successors"));
            }
        }
        if dag.order().len() != reached.iter().filter(|&&r| r).count() {
            return Err(format!("slot {js}: a node twice in the order"));
        }
        Ok(())
    }

    /// See [`FluidSimulator::audit_dags`].
    fn audit_dags(&self, host: &Host) -> Result<(), String> {
        if !self.keep_dags {
            return Ok(());
        }
        let (n, links) = (host.topo.node_count(), host.topo.link_count());
        let mut fresh = Dag::new(n, links);
        let (mut indeg, mut arrive, mut reach) = (Vec::new(), vec![0.0; n], Reach::new(n));
        let flow = |js: usize, l: usize| {
            self.fj[l].iter().find(|e| e.0 as usize == js).map_or(0.0, |e| e.1)
        };
        for (js, dag) in self.dags.iter().enumerate() {
            for i in 0..n {
                self.write_row(host, &mut fresh, js, i);
                if dag.row(&self.row, i) != fresh.row(&self.row, i) {
                    return Err(format!("slot {js}: row {i} differs from a whole build"));
                }
            }
            fresh.reorder(&self.row, &mut indeg);
            if dag.order_ok() && dag.order() != fresh.order() {
                return Err(format!("slot {js}: order differs from a whole build"));
            }
            #[cfg(any(test, debug_assertions))]
            self.check_against_oracle(host, dag, js)?;
            let mut fj = vec![0.0; links];
            self.inject(js, &mut arrive);
            fresh.forward(&self.row, &mut arrive, |l, push| fj[l] += push);
            if !self.dirty[js] && (0..links).any(|l| fj[l].to_bits() != flow(js, l).to_bits()) {
                return Err(format!("slot {js}: clean, but its flows differ from a forward pass"));
            }
            if self.any_dirty {
                continue;
            }
            let j = self.active_dests[js].index();
            fresh.backward(&self.row, j, &self.sigma, &self.t_l, &mut reach);
            for &fi in &self.flows_by_dest[js] {
                let fi = fi as usize;
                let got = [self.sol_p[fi], self.sol_proute[fi], self.sol_d[fi]];
                let want = at_source(&reach, self.flows[fi].src.index());
                if got.map(f64::to_bits) != want.map(f64::to_bits) {
                    return Err(format!("flow {fi}: the solution differs from a backward pass"));
                }
            }
        }
        for l in 0..links {
            let sum = (0..self.dags.len()).fold(0.0, |sum, js| sum + flow(js, l));
            if sum.to_bits() != self.ftot[l].to_bits() {
                return Err(format!("link {l}: the total is not the slot-order sum"));
            }
        }
        Ok(())
    }

    /// Load slot `js`'s injected rates into `arrive`, the forward pass's
    /// input.
    fn inject(&self, js: usize, arrive: &mut [f64]) {
        arrive.fill(0.0);
        for &fi in &self.flows_by_dest[js] {
            let f = &self.flows[fi as usize];
            if f.rate > 0.0 {
                arrive[f.src.index()] += f.rate;
            }
        }
    }

    /// Re-resolve the fluid solution: a forward pass for every dirty
    /// destination; then `ftot`, `σ_l` and `T_l` anew on each link a
    /// dirty destination's old or new flow is on, `ftot` summing `fj` in
    /// slot order over the slots with flow there; then a backward pass
    /// for *every* destination — a changed link flow changes `T_l` for
    /// everyone sharing the link.
    fn resolve(&mut self, host: &Host) {
        if !self.any_dirty {
            return;
        }
        self.work.resolves += 1;
        let mut touched = Vec::new();
        for js in 0..self.active_dests.len() {
            if !self.dirty[js] {
                continue;
            }
            self.work.forward_passes += 1;
            let dag = self.take_dag(host, js);
            let mut a = std::mem::take(&mut self.arrive);
            self.inject(js, &mut a);
            let (fj, used, moved) = (&mut self.fj, &mut self.used[js], &mut self.moved);
            let mut touch = |l: usize| {
                if !std::mem::replace(&mut moved[l], true) {
                    touched.push(l);
                }
            };
            let slot = js as u32;
            for l in used.drain(..).map(|l| l as usize) {
                fj[l].retain(|e| e.0 != slot);
                touch(l);
            }
            dag.forward(&self.row, &mut a, |l, push| {
                let on = &mut fj[l];
                on.insert(on.partition_point(|e| e.0 < slot), (slot, push));
                used.push(l as u32);
                touch(l);
            });
            self.arrive = a;
            self.keep_dag(js, dag);
        }
        for l in touched {
            self.moved[l] = false;
            let f = self.fj[l].iter().fold(0.0, |sum, e| sum + e.1);
            let model = &self.models[l];
            self.ftot[l] = f;
            self.sigma[l] = if f > model.capacity { model.capacity / f } else { 1.0 };
            self.t_l[l] = model.packet_delay(f);
        }
        for js in 0..self.active_dests.len() {
            self.backward(host, js);
            self.dirty[js] = false;
        }
        self.any_dirty = false;
    }

    /// Backward pass for destination slot `js`, read at the flows'
    /// sources: over a kept loop-free DAG only the rows they reach, in a
    /// depth-first post-order ([`Dag::backward_from`]: bit for bit the
    /// whole pass at the sources); over a kept DAG with a cycle, whole;
    /// without kept DAGs, over a build of the rows they reach.
    fn backward(&mut self, host: &Host, js: usize) {
        self.work.backward_passes += 1;
        let j = self.active_dests[js].index();
        let reached = !self.keep_dags;
        #[cfg(test)]
        let reached = reached && !self.old_epoch;
        let mut dag =
            if reached { self.take_reached_dag(host, js) } else { self.take_dag(host, js) };
        let (row, sigma, t_l, reach) = (&self.row, &self.sigma, &self.t_l, &mut self.reach);
        let sources = self.flows_by_dest[js].iter().map(|&fi| self.flows[fi as usize].src.index());
        let walked = (self.keep_dags && dag.is_acyclic())
            .then(|| dag.backward_from(row, j, sources, sigma, t_l, reach))
            .flatten();
        self.work.backward_rows +=
            walked.unwrap_or_else(|| dag.backward(row, j, sigma, t_l, reach));
        for &fi in &self.flows_by_dest[js] {
            let fi = fi as usize;
            [self.sol_p[fi], self.sol_proute[fi], self.sol_d[fi]] =
                at_source(&self.reach, self.flows[fi].src.index());
        }
        self.keep_dag(js, dag);
    }

    /// Mark destination slot `js` dirty.
    fn mark_dirty(&mut self, js: usize) {
        self.dirty[js] = true;
        self.any_dirty = true;
    }

    /// Mark every destination dirty.
    #[cfg(test)]
    fn mark_all_dirty(&mut self) {
        for d in &mut self.dirty {
            *d = true;
        }
        self.any_dirty = !self.dirty.is_empty();
    }

    // ------------------------------------------------------------------
    // Quiescent control plane (SimMode::FluidQuiescent)
    // ------------------------------------------------------------------

    /// One quiescent-control-plane epoch at time `t`: converged MPDA
    /// tables from per-destination reverse SPF over marginal-delay
    /// costs at the current link flows, fed through the allocator.
    fn on_epoch(&mut self, host: &Host, t: f64) {
        self.settle(host, t);
        #[cfg(test)]
        if self.old_epoch {
            return self.on_epoch_reference(host);
        }
        let (topo, up) = (&host.topo, &host.up);
        let n = topo.node_count();
        // Each link's marginal cost, once: the SPF's weight and the
        // `l^i_k` term of every successor cost through the link.
        for (l, model) in self.models.iter().enumerate() {
            self.cost[l] = model.marginal_delay(self.ftot[l]);
        }
        // The reversed graph, from the in-links: dist from `j` in it is
        // the cost of `i → j` in the real one.
        self.rev.clear();
        for u in 0..n {
            self.rev_start[u] = self.rev.len() as u32;
            for (lid, l) in topo.in_links(NodeId(u as u32)) {
                if up[lid.index()] {
                    self.rev.push((l.from.0, self.cost[lid.index()]));
                }
            }
        }
        self.rev_start[n] = self.rev.len() as u32;
        let cost = &self.cost;
        let (rev, rev_start) = (&self.rev, &self.rev_start);
        let mut sc: Vec<SuccessorCost> = Vec::new();
        for js in 0..self.active_dests.len() {
            let j = self.active_dests[js];
            self.spf.run(n, j, |u| {
                let run = &rev[rev_start[u] as usize..rev_start[u + 1] as usize];
                run.iter().map(|&(v, c)| (v as usize, c))
            });
            let dist = self.spf.dist();
            let mut moved = false;
            for i in 0..n {
                if i == j.index() {
                    continue;
                }
                sc.clear();
                let di = dist[i];
                if di < INFINITE_COST {
                    for (lid, l) in topo.out_links(NodeId(i as u32)) {
                        let dk = dist[l.to.index()];
                        // LFI at quiescence: strictly-downstream
                        // neighbors only (D_k < D_i).
                        if up[lid.index()] && dk < di {
                            sc.push(SuccessorCost::new(l.to, dk + cost[lid.index()]));
                        }
                    }
                }
                let outcome = self.qalloc[js].update(NodeId(i as u32), &sc, Update::ShortTerm);
                moved |= outcome.shift > SHIFT_EPS;
            }
            if moved {
                self.dirty[js] = true;
                self.any_dirty = true;
            }
        }
    }

    /// The quiescent epoch as it ran before it read only what the flows
    /// need: a `TopoTable` of the reversed links, `dijkstra` per
    /// destination, and each link's marginal cost recomputed per use.
    #[cfg(test)]
    fn on_epoch_reference(&mut self, host: &Host) {
        use mdr_routing::{dijkstra, TopoTable};
        let n = host.topo.node_count();
        let links = host.topo.links().iter().enumerate().filter(|&(lid, _)| host.up[lid]);
        let rev: TopoTable = links
            .map(|(lid, l)| (l.to, l.from, self.models[lid].marginal_delay(self.ftot[lid])))
            .collect();
        let mut sc: Vec<SuccessorCost> = Vec::new();
        for js in 0..self.active_dests.len() {
            let j = self.active_dests[js];
            let spf = dijkstra(n, &rev, j);
            for i in 0..n {
                if i == j.index() {
                    continue;
                }
                sc.clear();
                if spf.reachable(NodeId(i as u32)) {
                    let di = spf.dist[i];
                    for (lid, l) in host.topo.out_links(NodeId(i as u32)) {
                        if !host.up[lid.index()] {
                            continue;
                        }
                        let dk = spf.dist[l.to.index()];
                        if dk < di {
                            let cost = dk
                                + self.models[lid.index()].marginal_delay(self.ftot[lid.index()]);
                            sc.push(SuccessorCost::new(l.to, cost));
                        }
                    }
                }
                let outcome = self.qalloc[js].update(NodeId(i as u32), &sc, Update::ShortTerm);
                if outcome.shift > SHIFT_EPS {
                    self.mark_dirty(js);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::topo;

    /// NET1 under fixed shortest-path routes, not yet run.
    fn fixed_sp(sim_mode: SimMode) -> FluidSimulator {
        let t = topo::net1();
        let traffic = TrafficMatrix::from_flows(&t, &topo::net1_flows(2e6)).unwrap();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
        let sp = mdr_opt::shortest_path_vars(&t, &models);
        let cfg = SimConfig { sim_mode, fixed_routing: Some(sp), ..Default::default() };
        FluidSimulator::new(&t, &traffic, &Scenario::new(), cfg)
    }

    fn ran(sim_mode: SimMode) -> FluidSimulator {
        let t = topo::net1();
        let traffic = TrafficMatrix::from_flows(&t, &topo::net1_flows(2e6)).unwrap();
        let cfg = SimConfig { warmup: 1.0, duration: 3.0, sim_mode, ..Default::default() };
        let mut sim = FluidSimulator::new(&t, &traffic, &Scenario::new(), cfg);
        let report = sim.run();
        assert!(report.delivered > 0);
        sim
    }

    /// One DAG's rows, shares by bit pattern.
    type Rows = Vec<Vec<(u32, u32, u64)>>;

    /// Rows and order of every stored DAG.
    fn stored(sim: &FluidSimulator) -> Vec<(Rows, Vec<u32>)> {
        let rows = |d: &Dag| {
            (0..sim.host.topo.node_count())
                .map(|i| {
                    d.row(&sim.plane.row, i).iter().map(|&(k, l, w)| (k, l, w.to_bits())).collect()
                })
                .collect()
        };
        sim.plane.dags.iter().map(|d| (rows(d), d.order().to_vec())).collect()
    }

    /// Where a DAG can outlive the resolve that used it, one is kept per
    /// destination slot, built once; the quiescent control plane
    /// rewrites every φ each epoch and keeps none — one buffer, built
    /// per destination per resolve whole for the forward pass and where
    /// the sources reach for the backward pass (on `fluid-isp1k` kept
    /// DAGs measured +21.7 % peak RSS for no hit).
    #[test]
    fn dags_are_kept_only_where_they_can_be_reused() {
        let mut protocol = ran(SimMode::Fluid);
        let nd = protocol.plane.active_dests.len();
        assert!(protocol.plane.keep_dags && protocol.plane.dags.len() == nd);
        assert_eq!(protocol.plane.work.dag_builds, nd as u64, "one build per destination, ever");
        protocol.plane.mark_all_dirty();
        protocol.plane.resolve(&protocol.host);
        assert_eq!(protocol.plane.work.dag_builds, nd as u64, "a resolve reuses them");
        assert_eq!(protocol.audit_dags(), Ok(()));

        let mut quiescent = ran(SimMode::FluidQuiescent);
        assert!(!quiescent.plane.active_dests.is_empty());
        assert!(!quiescent.plane.keep_dags && quiescent.plane.dags.len() == 1);
        assert_eq!((quiescent.plane.work.rows_written, quiescent.plane.work.reorders), (0, 0));
        let before = quiescent.plane.work;
        quiescent.plane.mark_all_dirty();
        quiescent.plane.resolve(&quiescent.host);
        assert_eq!(quiescent.plane.work.dag_builds - before.dag_builds, nd as u64);
        assert_eq!(quiescent.plane.work.reached_builds - before.reached_builds, nd as u64);
        // Fixed routing keeps its DAGs under either control plane.
        let fixed = fixed_sp(SimMode::FluidQuiescent);
        assert!(fixed.plane.keep_dags && fixed.plane.dags.len() == nd);
    }

    /// The quiescent epoch — reverse SPF over the in-links at costs
    /// computed once, backward passes over the rows the sources reach —
    /// against [`FluidSimulator::on_epoch_reference`] with whole builds
    /// for both passes: the same report, bit for bit, on an ISP and a BA
    /// graph, MP and SP, three AH gains, with link failures, repairs and
    /// rate changes between epochs (every reached build is also checked
    /// against `build_dag`).
    #[test]
    fn the_quiescent_epoch_equals_its_reference() {
        let isp = mdr_net::gen::two_tier_isp(5, 19, 3);
        let ba = mdr_net::gen::barabasi_albert(60, 2, 5);
        for t in [isp, ba] {
            let nodes: Vec<NodeId> = t.nodes().collect();
            let flows = mdr_net::gen::elephant_mice_flows(&nodes, 40, 4e7, 0.7, 9);
            let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
            let l = t.links()[t.link_count() / 3];
            let scenario = Scenario::new()
                .at(2.5, ScenarioEvent::FailLink { a: l.from, b: l.to })
                .at(3.3, ScenarioEvent::SetFlowRate { flow: 0, rate: 0.0 })
                .at(4.1, ScenarioEvent::RestoreLink { a: l.from, b: l.to })
                .at(5.3, ScenarioEvent::SetFlowRate { flow: 0, rate: 2e7 });
            for mode in [mdr_flow::Mode::Multipath, mdr_flow::Mode::SinglePath] {
                for ah_gain in [0.0, 0.4, 1.0] {
                    let cfg = SimConfig {
                        sim_mode: SimMode::FluidQuiescent,
                        mode,
                        ah_gain,
                        warmup: 1.0,
                        duration: 6.0,
                        ..Default::default()
                    };
                    let run = |old_epoch: bool| {
                        let mut sim = FluidSimulator::new(&t, &traffic, &scenario, cfg.clone());
                        sim.plane.old_epoch = old_epoch;
                        let report = sim.run();
                        (SimReport { fluid: None, ..report.clone() }, report.fluid.unwrap())
                    };
                    let ((new, work), (old, old_work)) = (run(false), run(true));
                    let at = format!("{} routers, {mode:?}, γ = {ah_gain}", t.node_count());
                    assert!(new.delivered > 0 && new.dropped > 0, "{at}: {new:?}");
                    assert_eq!(new, old, "{at}");
                    assert_eq!(work.reached_builds, work.backward_passes, "{at}");
                    assert_eq!(work.dag_builds, work.forward_passes, "{at}");
                    assert_eq!(old_work.dag_builds, work.forward_passes + work.backward_passes);
                    assert_eq!(old_work.reached_builds, 0, "{at}");
                }
            }
        }
    }

    /// Every way φ or a link bit can move rewrites exactly the rows it
    /// can have touched, and drops nothing.
    #[test]
    fn kept_dags_are_patched_by_what_can_change_them() {
        let mut sim = ran(SimMode::Fluid);
        sim.plane.mark_all_dirty();
        sim.plane.resolve(&sim.host);
        let builds = sim.plane.work.dag_builds;
        // An allocator visit that left φ as it was rewrites one row of one
        // destination — to the same edges, so no re-order — and dirties
        // nothing.
        let (before, work) = (stored(&sim), sim.plane.work);
        let j = sim.plane.active_dests[1];
        sim.plane.step(&sim.host, NodeId(0), &vec![(j, mdr_flow::AllocOutcome::default())]);
        assert_eq!(sim.plane.work.rows_written - work.rows_written, 1);
        assert!(sim.plane.dags.iter().all(|d| d.order_ok()) && !sim.plane.any_dirty);
        assert_eq!(stored(&sim), before);
        // A rate change moves no DAG.
        sim.apply_scenario(ScenarioEvent::SetFlowRate { flow: 0, rate: 1e6 });
        assert_eq!(sim.plane.work.rows_written - work.rows_written, 1);
        assert!(sim.plane.any_dirty);
        sim.plane.resolve(&sim.host);
        // A link flip rewrites the tail router's row in every DAG (each
        // direction's tail, and whatever rows the two routers' reaction
        // moves), and only rows of those two routers change.
        let l = *sim.host.topo.link(LinkId(0));
        let (x, y) = (l.from.index(), l.to.index());
        let uses_link = |sim: &FluidSimulator| {
            sim.plane.dags.iter().any(|d| d.row(&sim.plane.row, x).iter().any(|e| e.1 == 0))
        };
        assert!(uses_link(&sim), "the flip below must remove an edge");
        for (ev, up) in [
            (ScenarioEvent::FailLink { a: l.from, b: l.to }, false),
            (ScenarioEvent::RestoreLink { a: l.from, b: l.to }, true),
        ] {
            let (before, work) = (stored(&sim), sim.plane.work);
            sim.apply_scenario(ev);
            assert!(
                sim.plane.work.rows_written - work.rows_written >= 2 * sim.plane.dags.len() as u64
            );
            for (js, (was, now)) in before.iter().zip(stored(&sim)).enumerate() {
                for i in (0..sim.host.topo.node_count()).filter(|&i| i != x && i != y) {
                    assert_eq!(was.0[i], now.0[i], "slot {js}: row {i} is not the tail's");
                }
            }
            assert_eq!(sim.audit_dags(), Ok(()));
            assert!(up || !uses_link(&sim));
            sim.plane.resolve(&sim.host);
        }
        assert_eq!(sim.plane.work.dag_builds, builds, "nothing was ever rebuilt");
        assert!(sim.plane.work.reorders > 0, "the lost edge re-ordered a DAG");
    }

    /// A route change that moves no row dirties nothing, so the next
    /// settle resolves nothing: one toward a destination without
    /// traffic (no DAG is kept for it), or one of distances only (no
    /// successor set moved, so the agent visits no allocation).
    #[test]
    fn a_route_change_that_moves_no_row_dirties_nothing() {
        let mut sim = ran(SimMode::Fluid);
        sim.plane.mark_all_dirty();
        sim.plane.resolve(&sim.host);
        let n = sim.host.topo.node_count() as u32;
        let idle = (0..n).map(NodeId).find(|j| sim.plane.active_dests.binary_search(j).is_err());
        let idle = idle.expect("NET1's flows leave a router without traffic");
        let work = sim.plane.work;
        for i in (0..n).map(NodeId) {
            let moved = mdr_flow::AllocOutcome { shift: 0.5, ..Default::default() };
            sim.plane.step(&sim.host, i, &vec![(idle, moved)]);
            sim.plane.step(&sim.host, i, &Allocs::new());
        }
        assert!(!sim.plane.any_dirty && !sim.plane.dirty.contains(&true));
        sim.plane.resolve(&sim.host);
        assert_eq!(sim.plane.work, work, "nothing written, nothing resolved");
    }

    /// An allocator visit that moves shares and no next hop dirties
    /// exactly its destination, however little it moved (here it
    /// reports no shift at all), and the next settle re-runs that one
    /// forward pass.
    #[test]
    fn a_changed_share_dirties_exactly_its_destination() {
        let mut sim = fixed_sp(SimMode::Fluid);
        let nd = sim.plane.active_dests.len();
        sim.plane.resolve(&sim.host);
        let (js, j) = (1, sim.plane.active_dests[1]);
        let t = sim.host.topo.clone();
        let i = t.nodes().find(|&i| i != j && t.degree(i) >= 2).unwrap();
        let k: Vec<NodeId> = t.neighbors(i).take(2).collect();
        let visit = vec![(j, mdr_flow::AllocOutcome::default())];
        let set = |sim: &mut FluidSimulator, w: f64| {
            let vars = sim.plane.cfg.fixed_routing.as_mut().unwrap();
            vars.set(i, j, vec![(k[0], 0.5), (k[1], w)]);
            sim.plane.step(&sim.host, i, &visit);
        };
        set(&mut sim, 0.5);
        sim.plane.resolve(&sim.host);
        let (before, work) = (stored(&sim), sim.plane.work);
        set(&mut sim, 0.5 + 1e-13);
        let dirty: Vec<usize> = (0..nd).filter(|&s| sim.plane.dirty[s]).collect();
        assert_eq!(dirty, [js]);
        assert!(sim.plane.dags[js].order_ok(), "same next hops, same order");
        for (s, (was, now)) in before.iter().zip(stored(&sim)).enumerate() {
            for r in 0..t.node_count() {
                assert_eq!(was.0[r] == now.0[r], (s, r) != (js, i.index()), "slot {s} row {r}");
            }
        }
        sim.plane.resolve(&sim.host);
        assert_eq!(sim.plane.work.forward_passes - work.forward_passes, 1);
        assert_eq!(sim.audit_dags(), Ok(()));
    }

    /// `set_link_up` alone (fixed routes: no router reacts) rewrites the
    /// tail router's row in every DAG and nothing else.
    #[test]
    fn a_link_flip_rewrites_only_the_tail_routers_rows() {
        let mut sim = fixed_sp(SimMode::Fluid);
        let t = sim.host.topo.clone();
        let carries = |d: &Dag, l: LinkId| {
            (0..t.node_count()).any(|i| d.row(&sim.plane.row, i).iter().any(|e| e.1 == l.0))
        };
        let lid = (0..t.link_count() as u32)
            .map(LinkId)
            .find(|&l| sim.plane.dags.iter().any(|d| carries(d, l)))
            .unwrap();
        let x = t.link(lid).from.index();
        let before = stored(&sim);
        sim.host.deactivate_link(&mut sim.plane, lid);
        assert_eq!(sim.plane.work.rows_written, sim.plane.dags.len() as u64);
        let mut moved = 0;
        for (was, now) in before.iter().zip(stored(&sim)) {
            for i in 0..t.node_count() {
                assert!(i == x || was.0[i] == now.0[i], "row {i} is not the tail's");
                moved += usize::from(was.0[i] != now.0[i]);
            }
        }
        assert!(moved > 0);
        assert_eq!(sim.audit_dags(), Ok(()));
        sim.host.activate_link(&mut sim.plane, lid);
        assert_eq!(stored(&sim).iter().map(|d| &d.0).collect::<Vec<_>>(), {
            before.iter().map(|d| &d.0).collect::<Vec<_>>()
        });
    }
}
