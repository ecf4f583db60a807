//! Fluid (flow-level) simulation engine — ROADMAP item 2's hybrid mode.
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
//! * [`SimMode::Fluid`] — the *real* distributed MPDA protocol: one
//!   control-plane [`Agent`] per node (the very object packet mode
//!   hosts), LSUs as events with serialization + propagation delay, and
//!   per-router phased `T_s`/`T_l` timers. Link costs are exact
//!   `Mm1` marginals at the last-resolved link flows (the fluid
//!   analogue of estimator staleness: costs lag the data plane by one
//!   resolve). Scales to hundreds of routers.
//! * [`SimMode::FluidQuiescent`] — a centralized control plane that
//!   recomputes *converged* MPDA tables every `T_s` epoch by
//!   per-destination reverse SPF (at quiescence MPDA's successor set
//!   toward `j` is exactly the strict-downstream set `{k : D_k < D_i}`
//!   on marginal-delay link costs). Each epoch computes every link's
//!   marginal cost once, lays the up in-links out as one reversed
//!   graph, and runs `mdr_routing`'s one relaxation loop ([`Spf`], its
//!   buffers reused) over it per destination; the successor costs
//!   `D_k + l_ik` read the same costs. One allocator per destination,
//!   keyed by router. No per-router `O(E)` topology tables, so 10k+
//!   routers fit in memory.
//!
//! Per routing epoch the fluid solution is obtained per destination by
//! the two passes of [`mdr_opt::dag`], the solver `mdr_opt::evaluate`
//! also runs: a forward pass over the successor DAG (Kahn order; LFI
//! guarantees acyclicity) propagating injected rates into per-link
//! flows, and a backward pass computing per-source delivery probability
//! and mean delay, with per-link survival `σ_l = min(1, C_l/f_l)` so an
//! overloaded link saturates instead of producing negative delays (the
//! `Mm1` affine continuation keeps `T_l` finite at ρ ≥ 1). `σ_l` and
//! `T_l` are computed once per resolve. Saturation losses land in
//! [`FlowStats::dropped_congestion`] — packet mode queues instead of
//! dropping, so the field is fluid-only.
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
//! `FluidSimulator::audit_dags` checks the store in any profile). The
//! quiescent control plane rewrites every φ each epoch and keeps no
//! DAG: it builds into one reused buffer, per destination per resolve
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

use crate::agent::{Agent, Allocs};
use crate::events::{Ev, EventQueue, MsgSlab};
use crate::scenario::{Scenario, ScenarioEvent};
use crate::stats::{DelayHistogram, DelaySeries, FlowStats, LinkStats};
use crate::telemetry::{publish_step, SimEvent, SimObserver, SHIFT_EPS};
use crate::{SimConfig, SimMode, SimReport};
use mdr_flow::{Allocator, SuccessorCost, Update};
use mdr_net::{LinkDelayModel, LinkId, Mm1, NodeId, Topology, TrafficMatrix, INFINITE_COST};
use mdr_opt::dag::{row_starts, Dag, Reach};
use mdr_proto::LsuMessage;
use mdr_routing::lfi::Auditor;
use mdr_routing::{MpdaRouter, RouteChange, RouterEvent, RouterOutput, Spf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    /// Per-destination forward passes (dirty destinations only).
    pub forward_passes: u64,
    /// Per-destination backward passes (every destination, every
    /// resolve).
    pub backward_passes: u64,
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

/// Per-router control-plane state ([`SimMode::Fluid`] only — the
/// quiescent mode keeps no per-router protocol state at all).
struct NodeSt {
    /// The control plane; its neighbor list (ascending, the
    /// `Topology::out_links` order) defines the slots below.
    agent: Agent,
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
    topo: Topology,
    cfg: SimConfig,
    models: Vec<Mm1>,
    time: f64,
    // Control plane (protocol mode).
    queue: EventQueue,
    msgs: MsgSlab,
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
    link_up: Vec<bool>,
    /// Per destination slot, per directed link: resolved flow (bits/s).
    fj: Vec<Vec<f64>>,
    /// Total resolved flow per directed link (bits/s).
    ftot: Vec<f64>,
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
    /// that router's φ toward the destination, the `link_up` bit of one
    /// of its out-links — moves. Without, a single buffer every use
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
    ctl_msgs: u64,
    ctl_bytes: u64,
    events_processed: u64,
    scenario: Vec<(f64, ScenarioEvent)>,
    obs: Option<Box<dyn SimObserver>>,
    /// LFI auditor; `None` unless [`SimConfig::audit_invariants`].
    auditor: Option<Auditor>,
    quiescent_seen: bool,
    /// Run each quiescent epoch by [`Self::on_epoch_reference`] and build
    /// every DAG whole: the reference of the differential test.
    #[cfg(test)]
    old_epoch: bool,
}

impl FluidSimulator {
    /// Build a fluid simulator over `topo` carrying `traffic` with
    /// scripted `scenario` perturbations. `cfg.sim_mode` selects the
    /// control plane ([`SimMode::Packet`] is treated as
    /// [`SimMode::Fluid`] — dispatching belongs to [`crate::SimJob`]).
    ///
    /// # Panics
    /// Fluid mode has no packet-level fault machinery: `cfg.fault_plan`
    /// must be unset (scenario-scripted link failures *are* supported).
    /// [`SimMode::FluidQuiescent`] keeps no protocol state to audit, so
    /// it refuses `cfg.audit_invariants`.
    pub fn new(
        topo: &Topology,
        traffic: &TrafficMatrix,
        scenario: &Scenario,
        cfg: SimConfig,
    ) -> Self {
        assert!(cfg.t_short > 0.0 && cfg.t_long > 0.0, "update periods must be positive");
        assert!(cfg.mean_packet_bits > 0.0);
        assert!(
            cfg.fault_plan.is_none(),
            "fluid mode does not support chaos plans; \
             use packet mode (SimMode::Packet) for fault-injection studies"
        );
        let n = topo.node_count();
        let quiescent_cp = cfg.sim_mode == SimMode::FluidQuiescent;
        assert!(
            !(quiescent_cp && cfg.audit_invariants),
            "FluidQuiescent keeps no protocol state to audit: its tables are converged, \
             so loop-free, by construction each epoch"
        );
        let epoch_driven = Self::epoch_driven(&cfg);
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

        // Control plane state. The protocol mode mirrors the packet
        // engine's boot: routers, allocators, LinkUp at idle marginal
        // cost per link in LinkId order, then phased timers.
        let fixed = cfg.fixed_routing.is_some();
        let mut nodes: Vec<NodeSt> = Vec::new();
        let mut qalloc: Vec<Allocator> = Vec::new();
        let mut boot_sends: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        if !fixed {
            if quiescent_cp {
                qalloc = (0..nd)
                    .map(|_| Allocator::new(n, cfg.mode).with_ah_gain(cfg.ah_gain))
                    .collect();
            } else {
                let dests: std::sync::Arc<[NodeId]> = active_dests.as_slice().into();
                nodes = (0..n)
                    .map(|i| {
                        let node = NodeId(i as u32);
                        let mut nbrs = Vec::new();
                        let mut out_link = Vec::new();
                        let mut cost = Vec::new();
                        for (lid, l) in topo.out_links(node) {
                            nbrs.push(l.to);
                            out_link.push(lid);
                            cost.push(models[lid.index()].marginal_delay(0.0));
                        }
                        let smoothed = vec![0.0; nbrs.len()];
                        let agent = Agent::new(
                            node,
                            n,
                            cfg.mode,
                            cfg.ah_gain,
                            nbrs,
                            cfg.cost_change_threshold,
                        )
                        .with_dests(dests.clone());
                        NodeSt { agent, out_link, smoothed, cost }
                    })
                    .collect();
                for (lid, l) in topo.links().iter().enumerate() {
                    let idle = models[lid].marginal_delay(0.0);
                    let NodeSt { agent, cost, .. } = &mut nodes[l.from.index()];
                    let boot = RouterEvent::LinkUp { to: l.to, cost: idle };
                    let (out, _) = agent.handle(boot, |s| Some(cost[s]));
                    for s in out.sends {
                        boot_sends.push((l.from, s.to, s.msg));
                    }
                }
            }
        }

        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let queue = EventQueue::with_capacity(2 * n + scenario.events().len() + 16);
        let obs = cfg.observer.build();
        let nflows = flows.len();
        let mut sim = FluidSimulator {
            topo: topo.clone(),
            models,
            time: 0.0,
            queue,
            msgs: MsgSlab::new(),
            nodes,
            qalloc,
            spf: Spf::default(),
            cost: vec![0.0; if quiescent_cp { topo.link_count() } else { 0 }],
            rev_start: vec![0; if quiescent_cp { n + 1 } else { 0 }],
            rev: Vec::new(),
            active_dests,
            flows,
            flows_by_dest,
            link_up: vec![true; topo.link_count()],
            fj: vec![vec![0.0; topo.link_count()]; nd],
            ftot: vec![0.0; topo.link_count()],
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
            t_l: vec![0.0; topo.link_count()],
            work: FluidWork::default(),
            cursor: 0.0,
            warmup_end: cfg.warmup,
            end_time: cfg.warmup + cfg.duration,
            acc: vec![FlowAcc::new(); nflows],
            link_stats: vec![LinkStats::default(); topo.link_count()],
            link_pkts: vec![0.0; topo.link_count()],
            series: DelaySeries::new(nflows, cfg.series_bucket),
            ctl_msgs: 0,
            ctl_bytes: 0,
            events_processed: 0,
            scenario: scenario.events(),
            obs,
            auditor: cfg.audit_invariants.then(|| Auditor::new(n)),
            quiescent_seen: false,
            #[cfg(test)]
            old_epoch: false,
            cfg,
        };
        if !fixed && !quiescent_cp {
            for (from, to, msg) in boot_sends {
                sim.send_control(from, to, msg);
            }
            for i in 0..n {
                let ps = rng.gen::<f64>() * sim.cfg.t_short;
                let pl = rng.gen::<f64>() * sim.cfg.t_long;
                sim.queue.push(ps, Ev::ShortTermTick { node: NodeId(i as u32) });
                sim.queue.push(pl, Ev::LongTermTick { node: NodeId(i as u32) });
            }
        }
        // The epoch loop reads the scenario directly.
        if !epoch_driven {
            for (idx, (t, _)) in sim.scenario.iter().enumerate() {
                sim.queue.push(*t, Ev::Scenario { index: idx });
            }
        }
        sim.dags = vec![Dag::new(n, topo.link_count()); if epoch_driven { 1 } else { nd }];
        if !epoch_driven {
            for js in 0..nd {
                let mut dag = std::mem::take(&mut sim.dags[js]);
                sim.build(&mut dag, js);
                sim.dags[js] = dag;
            }
        }
        sim
    }

    /// Does the quiescent control plane's epoch loop drive the run (and
    /// rewrite every φ each epoch), rather than the event queue?
    fn epoch_driven(cfg: &SimConfig) -> bool {
        cfg.sim_mode == SimMode::FluidQuiescent && cfg.fixed_routing.is_none()
    }

    /// Routing fractions of node `i` toward destination slot `js`.
    fn phi(&self, i: usize, js: usize) -> &[(NodeId, f64)] {
        if let Some(vars) = &self.cfg.fixed_routing {
            return vars.get(NodeId(i as u32), self.active_dests[js]);
        }
        if self.cfg.sim_mode == SimMode::FluidQuiescent {
            self.qalloc[js].params(NodeId(i as u32)).pairs()
        } else {
            self.nodes[i].agent.params(self.active_dests[js]).pairs()
        }
    }

    /// Rewrite router `i`'s row of `dag` from its routing fractions
    /// toward destination slot `js` — the one place φ becomes edges. Each
    /// edge carries `(next_hop, link, share)` where `share` is the
    /// normalized routing fraction; mass routed toward a dead link (or
    /// an empty successor set) is simply never propagated — the fluid
    /// analogue of packet mode's no-route drop at a dead next hop. φ
    /// names a next hop at most once, so a row never outgrows the
    /// router's out-degree.
    fn write_row(&self, dag: &mut Dag, js: usize, i: usize) {
        let pairs = if i == self.active_dests[js].index() { &[] } else { self.phi(i, js) };
        let total: f64 = pairs.iter().map(|&(_, w)| w.max(0.0)).sum();
        let pairs = if total > 0.0 { pairs } else { &[] };
        let edges = pairs.iter().filter(|&&(_, w)| w > 0.0).filter_map(|&(k, w)| {
            let lid = self.topo.link_between(NodeId(i as u32), k)?;
            self.link_up[lid.index()].then_some((k.0, lid.0, w / total))
        });
        dag.set_row(&self.row, i, edges);
    }

    /// Build `dag` whole for destination slot `js`: every row, then the
    /// order.
    fn build(&mut self, dag: &mut Dag, js: usize) {
        for i in 0..self.topo.node_count() {
            self.write_row(dag, js, i);
        }
        dag.reorder(&self.row, &mut self.indeg);
        self.work.dag_builds += 1;
    }

    /// Router `i`'s routing fractions toward slot `js`, or one of its
    /// out-links' `link_up` bit, moved: rewrite that one row where the
    /// DAG is kept.
    fn patch_row(&mut self, js: usize, i: usize) {
        if self.keep_dags {
            let mut dag = std::mem::take(&mut self.dags[js]);
            self.write_row(&mut dag, js, i);
            self.dags[js] = dag;
            self.work.rows_written += 1;
        }
    }

    /// The successor DAG toward slot `js`, rows and order current: the
    /// kept one (re-ordered if a row write changed its edge set), or the
    /// shared buffer freshly built. The caller hands it back through
    /// [`Self::keep_dag`].
    fn take_dag(&mut self, js: usize) -> Dag {
        let at = self.dag_at(js);
        let mut dag = std::mem::take(&mut self.dags[at]);
        if !self.keep_dags {
            self.build(&mut dag, js);
        } else if !dag.order_ok() {
            dag.reorder(&self.row, &mut self.indeg);
            self.work.reorders += 1;
        }
        #[cfg(any(test, debug_assertions))]
        if let Err(e) = self.check_against_oracle(&dag, js) {
            panic!("{e}");
        }
        dag
    }

    /// The shared buffer built for slot `js`'s backward pass only where
    /// the flows' sources reach: the rows the pass reads at the sources
    /// are the whole build's, and so is what it computes there (see
    /// [`Dag::build_reached`]; the whole DAG is loop-free, every edge
    /// descending `D_k < D_i`). Built whole if the search meets a cycle.
    fn take_reached_dag(&mut self, js: usize) -> Dag {
        let mut dag = std::mem::take(&mut self.dags[0]);
        let sources = self.flows_by_dest[js].iter().map(|&fi| self.flows[fi as usize].src.index());
        if dag.build_reached(&self.row, sources, |dag, i| self.write_row(dag, js, i)) {
            self.work.reached_builds += 1;
            #[cfg(any(test, debug_assertions))]
            if let Err(e) = self.check_reached_against_oracle(&dag, js) {
                panic!("{e}");
            }
        } else {
            self.build(&mut dag, js);
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
    fn build_dag(&self, js: usize) -> (Vec<u32>, Vec<mdr_opt::dag::Edge>, Vec<u32>) {
        let n = self.topo.node_count();
        let j = self.active_dests[js];
        let mut starts = vec![0u32; n + 1];
        let mut edges = Vec::new();
        let mut indeg = vec![0u32; n];
        for (i, start) in starts.iter_mut().enumerate().take(n) {
            *start = edges.len() as u32;
            if i == j.index() {
                continue;
            }
            let pairs = self.phi(i, js);
            let total: f64 = pairs.iter().map(|&(_, w)| w.max(0.0)).sum();
            if total <= 0.0 {
                continue;
            }
            for &(k, w) in pairs {
                if w <= 0.0 {
                    continue;
                }
                let Some(lid) = self.topo.link_between(NodeId(i as u32), k) else { continue };
                if !self.link_up[lid.index()] {
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
    fn check_against_oracle(&self, dag: &Dag, js: usize) -> Result<(), String> {
        let (starts, edges, order) = self.build_dag(js);
        for i in 0..self.topo.node_count() {
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
    fn check_reached_against_oracle(&self, dag: &Dag, js: usize) -> Result<(), String> {
        let n = self.topo.node_count();
        let (starts, edges, order) = self.build_dag(js);
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

    /// Every kept DAG against one built whole, now, through the same row
    /// writer: each row, and the order where it claims to be current (in
    /// the dev profile also against the reference build). What the
    /// differential suite asserts after every event, in any profile.
    #[doc(hidden)]
    pub fn audit_dags(&self) -> Result<(), String> {
        if !self.keep_dags {
            return Ok(());
        }
        let mut fresh = Dag::new(self.topo.node_count(), self.topo.link_count());
        let mut indeg = Vec::new();
        for (js, dag) in self.dags.iter().enumerate() {
            for i in 0..self.topo.node_count() {
                self.write_row(&mut fresh, js, i);
                if dag.row(&self.row, i) != fresh.row(&self.row, i) {
                    return Err(format!("slot {js}: row {i} differs from a whole build"));
                }
            }
            fresh.reorder(&self.row, &mut indeg);
            if dag.order_ok() && dag.order() != fresh.order() {
                return Err(format!("slot {js}: order differs from a whole build"));
            }
            #[cfg(any(test, debug_assertions))]
            self.check_against_oracle(dag, js)?;
        }
        Ok(())
    }

    /// Re-resolve the fluid solution: forward passes for every dirty
    /// destination (updating link flows), then backward passes for
    /// *all* active destinations — a changed link flow changes `T_l`
    /// for everyone sharing the link.
    fn resolve(&mut self) {
        if !self.any_dirty {
            return;
        }
        self.work.resolves += 1;
        for js in 0..self.active_dests.len() {
            if !self.dirty[js] {
                continue;
            }
            self.work.forward_passes += 1;
            let dag = self.take_dag(js);
            let (fj, ftot) = (&mut self.fj[js], &mut self.ftot);
            for (l, fjl) in fj.iter_mut().enumerate() {
                ftot[l] = (ftot[l] - *fjl).max(0.0);
                *fjl = 0.0;
            }
            let a = &mut self.arrive;
            a.fill(0.0);
            for &fi in &self.flows_by_dest[js] {
                let f = &self.flows[fi as usize];
                if f.rate > 0.0 {
                    a[f.src.index()] += f.rate;
                }
            }
            dag.forward(&self.row, a, |l, push| {
                fj[l] += push;
                ftot[l] += push;
            });
            self.keep_dag(js, dag);
        }
        for (l, model) in self.models.iter().enumerate() {
            let (f, c) = (self.ftot[l], model.capacity);
            self.sigma[l] = if f > c { c / f } else { 1.0 };
            self.t_l[l] = model.packet_delay(f);
        }
        for js in 0..self.active_dests.len() {
            self.backward(js);
            self.dirty[js] = false;
        }
        self.any_dirty = false;
    }

    /// Backward pass for destination slot `js`, read at the flows'
    /// sources.
    fn backward(&mut self, js: usize) {
        self.work.backward_passes += 1;
        let j = self.active_dests[js].index();
        let reached = !self.keep_dags;
        #[cfg(test)]
        let reached = reached && !self.old_epoch;
        let dag = if reached { self.take_reached_dag(js) } else { self.take_dag(js) };
        dag.backward(&self.row, j, &self.sigma, &self.t_l, &mut self.reach);
        let Reach { p, proute, m } = &self.reach;
        for &fi in &self.flows_by_dest[js] {
            let fi = fi as usize;
            let s = self.flows[fi].src.index();
            self.sol_p[fi] = p[s];
            self.sol_proute[fi] = proute[s];
            self.sol_d[fi] = if p[s] > 1e-300 { m[s] / p[s] } else { 0.0 };
        }
        self.keep_dag(js, dag);
    }

    /// Integrate statistics with the current (piecewise-constant)
    /// solution from the cursor up to `t`, re-resolving first if the
    /// routing state changed at the cursor. Must be called *before*
    /// any mutation of rates, routing parameters, or link states.
    fn settle(&mut self, t: f64) {
        let t = t.min(self.end_time);
        if t <= self.cursor {
            return;
        }
        self.resolve();
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
                if f <= 0.0 || !self.link_up[l] {
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

    /// Mark destination slot `js` dirty.
    fn mark_dirty(&mut self, js: usize) {
        self.dirty[js] = true;
        self.any_dirty = true;
    }

    /// Flip directed link `lid` (`x → y`) up or down. Only `x`'s rows
    /// can hold it, one per kept DAG.
    fn set_link_up(&mut self, lid: LinkId, up: bool) {
        self.link_up[lid.index()] = up;
        let x = self.topo.link(lid).from;
        if let Some(aud) = self.auditor.as_mut() {
            aud.touch(x);
        }
        for js in 0..self.active_dests.len() {
            self.patch_row(js, x.index());
        }
    }

    /// Mark every destination dirty (topology or wide routing change).
    fn mark_all_dirty(&mut self) {
        for d in &mut self.dirty {
            *d = true;
        }
        self.any_dirty = !self.dirty.is_empty();
    }

    // ------------------------------------------------------------------
    // Protocol control plane (SimMode::Fluid)
    // ------------------------------------------------------------------

    /// Close node `i`'s per-link measurement windows (a short tick):
    /// EWMA the last-resolved link flow — the fluid analogue of the
    /// packet estimator's measured window flow — and refresh the
    /// per-slot cost estimate from the `Mm1` closed form. Keeping the
    /// same smoothing constant as [`crate::estimator::LinkEstimator`]
    /// makes both engines' control planes equally damped; without it
    /// fluid routing reacts instantly and flaps where packet routing
    /// holds steady.
    fn close_windows(&mut self, i: usize) {
        for s in 0..self.nodes[i].out_link.len() {
            let lid = self.nodes[i].out_link[s];
            let f = self.ftot[lid.index()];
            let model = &self.models[lid.index()];
            let node = &mut self.nodes[i];
            node.smoothed[s] = crate::estimator::WINDOW_ALPHA * f
                + (1.0 - crate::estimator::WINDOW_ALPHA) * node.smoothed[s];
            node.cost[s] = model.marginal_delay(node.smoothed[s]);
        }
    }

    /// Schedule LSU delivery over the wire: serialization + propagation,
    /// exactly like the packet engine's chaos-free path.
    fn send_control(&mut self, from: NodeId, to: NodeId, msg: LsuMessage) {
        let Some(s) = self.nodes[from.index()].agent.slot(to) else { return };
        let lid = self.nodes[from.index()].out_link[s];
        if !self.link_up[lid.index()] {
            return; // lost on a dead wire
        }
        let l = self.topo.link(lid);
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

    /// Feed `ev` to router `i`'s agent at the last-window cost estimates
    /// and carry out what it returns.
    fn route_event(&mut self, i: NodeId, ev: RouterEvent) {
        let NodeSt { agent, cost, .. } = &mut self.nodes[i.index()];
        let (out, allocs) = agent.handle(ev, |s| Some(cost[s]));
        self.apply_agent_output(i, out, allocs);
    }

    /// Carry out an agent's output: transmit LSUs, publish what moved,
    /// and mark the fluid solution dirty and audit the routers when
    /// routes changed (an edge over a down link is exempt from the FD
    /// half, as in the packet engine).
    fn apply_agent_output(&mut self, i: NodeId, out: RouterOutput, allocs: Allocs) {
        for s in out.sends {
            self.send_control(i, s.to, s.msg);
        }
        if out.routes_changed {
            self.note_step(i, out.changed, allocs);
            self.mark_all_dirty();
        }
        let (nodes, topo, link_up) = (&self.nodes, &self.topo, &self.link_up);
        if let Some(aud) = self.auditor.as_mut() {
            aud.touch(i);
            if out.routes_changed {
                aud.audit(
                    self.time,
                    |i, j| nodes[i.index()].agent.router().successors(j),
                    |i, j| nodes[i.index()].agent.router().feasible_distance(j),
                    |i, k| topo.link_between(i, k).is_some_and(|l| link_up[l.index()]),
                );
            }
        }
    }

    /// Rewrite router `i`'s row toward every destination the allocator
    /// visited (a move below `SHIFT_EPS` still changes the shares
    /// `backward` reads), mark those whose allocation moved dirty, and
    /// publish the step.
    fn note_step(&mut self, i: NodeId, changed: Vec<RouteChange>, allocs: Allocs) {
        for &(j, outcome) in &allocs {
            if let Ok(js) = self.active_dests.binary_search(&j) {
                self.patch_row(js, i.index());
                if outcome.shift > SHIFT_EPS {
                    self.mark_dirty(js);
                }
            }
        }
        if let Some(o) = self.obs.as_deref_mut() {
            publish_step(o, self.time, i, changed, &allocs);
        }
    }

    fn on_short_tick(&mut self, i: NodeId) {
        let now = self.time;
        self.settle(now);
        self.close_windows(i.index());
        if self.obs.is_some() {
            for s in 0..self.nodes[i.index()].out_link.len() {
                let cost = self.nodes[i.index()].cost[s];
                let lid = self.nodes[i.index()].out_link[s];
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::LinkCostSample { time: now, node: i, link: lid, cost });
                }
            }
        }
        let NodeSt { agent, cost, .. } = &mut self.nodes[i.index()];
        let allocs = agent.short_tick(|s| Some(cost[s]));
        self.note_step(i, Vec::new(), allocs);
        self.queue.push(now + self.cfg.t_short, Ev::ShortTermTick { node: i });
    }

    fn on_long_tick(&mut self, i: NodeId) {
        self.settle(self.time);
        for s in 0..self.nodes[i.index()].out_link.len() {
            let NodeSt { agent, cost, out_link, .. } = &mut self.nodes[i.index()];
            if !self.link_up[out_link[s].index()] {
                continue;
            }
            let costs = |s: usize| Some(cost[s]);
            if let Some((out, allocs)) = agent.report_cost(s, cost[s], costs) {
                self.apply_agent_output(i, out, allocs);
            }
        }
        self.queue.push(self.time + self.cfg.t_long, Ev::LongTermTick { node: i });
    }

    fn on_scenario(&mut self, idx: usize) {
        let (_, ev) = self.scenario[idx].clone();
        self.settle(self.time);
        self.apply_scenario(ev);
    }

    fn apply_scenario(&mut self, ev: ScenarioEvent) {
        let now = self.time;
        match ev {
            ScenarioEvent::SetFlowRate { flow, rate } => {
                self.flows[flow].rate = rate;
                let js = self.flows[flow].dest_slot as usize;
                self.mark_dirty(js);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::TrafficChange { time: now, flow: flow as u32, rate });
                }
            }
            ScenarioEvent::FailLink { a, b } => {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::Fault {
                        time: now,
                        event: crate::FaultEvent::FailLink { a, b },
                    });
                }
                // Both directions die before either router reacts, as in
                // the packet engine.
                let mut notify = Vec::new();
                for (x, y) in [(a, b), (b, a)] {
                    if let Some(lid) = self.topo.link_between(x, y) {
                        if self.link_up[lid.index()] {
                            self.set_link_up(lid, false);
                            notify.push((x, y));
                        }
                    }
                }
                if !self.nodes.is_empty() {
                    for (x, y) in notify {
                        self.route_event(x, RouterEvent::LinkDown { to: y });
                    }
                }
                self.mark_all_dirty();
            }
            ScenarioEvent::RestoreLink { a, b } => {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_event(&SimEvent::Fault {
                        time: now,
                        event: crate::FaultEvent::RestoreLink { a, b },
                    });
                }
                for (x, y) in [(a, b), (b, a)] {
                    if let Some(lid) = self.topo.link_between(x, y) {
                        if self.link_up[lid.index()] {
                            continue;
                        }
                        self.set_link_up(lid, true);
                        let idle = self.models[lid.index()].marginal_delay(0.0);
                        if !self.nodes.is_empty() {
                            // Fresh estimator state, like the packet
                            // engine's activate_link.
                            if let Some(s) = self.nodes[x.index()].agent.slot(y) {
                                self.nodes[x.index()].smoothed[s] = 0.0;
                                self.nodes[x.index()].cost[s] = idle;
                            }
                            self.route_event(x, RouterEvent::LinkUp { to: y, cost: idle });
                        }
                    }
                }
                self.mark_all_dirty();
            }
        }
    }

    /// Telemetry-only edge detector, mirroring the packet engine.
    fn observe_quiescence(&mut self) {
        let now = self.time;
        let q = self.is_quiescent();
        if q && !self.quiescent_seen {
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_event(&SimEvent::ControlQuiescent { time: now });
            }
        }
        self.quiescent_seen = q;
    }

    /// True when no LSU is in flight and every router is PASSIVE for
    /// every destination (trivially true for the quiescent control
    /// plane, which is converged by construction each epoch).
    pub fn is_quiescent(&self) -> bool {
        self.msgs.is_empty() && self.nodes.iter().all(|nd| nd.agent.is_passive())
    }

    /// Access a router (tests & diagnostics; protocol mode only).
    pub fn router(&self, i: NodeId) -> &MpdaRouter {
        self.nodes[i.index()].agent.router()
    }

    // ------------------------------------------------------------------
    // Quiescent control plane (SimMode::FluidQuiescent)
    // ------------------------------------------------------------------

    /// One quiescent-control-plane epoch at time `t`: converged MPDA
    /// tables from per-destination reverse SPF over marginal-delay
    /// costs at the current link flows, fed through the allocator.
    fn on_epoch(&mut self, t: f64) {
        self.time = t;
        self.settle(t);
        #[cfg(test)]
        if self.old_epoch {
            return self.on_epoch_reference();
        }
        let n = self.topo.node_count();
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
            for (lid, l) in self.topo.in_links(NodeId(u as u32)) {
                if self.link_up[lid.index()] {
                    self.rev.push((l.from.0, self.cost[lid.index()]));
                }
            }
        }
        self.rev_start[n] = self.rev.len() as u32;
        let (topo, link_up, cost) = (&self.topo, &self.link_up, &self.cost);
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
                        if link_up[lid.index()] && dk < di {
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
    fn on_epoch_reference(&mut self) {
        use mdr_routing::{dijkstra, TopoTable};
        let n = self.topo.node_count();
        let links = self.topo.links().iter().enumerate().filter(|&(lid, _)| self.link_up[lid]);
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
                    for (lid, l) in self.topo.out_links(NodeId(i as u32)) {
                        if !self.link_up[lid.index()] {
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

    /// Run to completion and report. Statistics are moved into the
    /// report, like the packet engine.
    pub fn run(&mut self) -> SimReport {
        self.run_with(|_| {})
    }

    /// [`Self::run`], calling `after_event` once every processed event —
    /// the differential suite's hook for [`Self::audit_dags`].
    #[doc(hidden)]
    pub fn run_with(&mut self, mut after_event: impl FnMut(&Self)) -> SimReport {
        if Self::epoch_driven(&self.cfg) {
            let mut next_epoch = 0.0;
            let mut si = 0usize;
            loop {
                let t_s = self.scenario.get(si).map_or(f64::INFINITY, |&(t, _)| t);
                if next_epoch <= t_s && next_epoch <= self.end_time {
                    self.events_processed += 1;
                    self.on_epoch(next_epoch);
                    next_epoch += self.cfg.t_short;
                } else if t_s <= self.end_time {
                    self.events_processed += 1;
                    self.time = t_s;
                    self.settle(t_s);
                    let (_, ev) = self.scenario[si].clone();
                    self.apply_scenario(ev);
                    si += 1;
                } else {
                    break;
                }
                after_event(self);
            }
        } else {
            while let Some((t, ev)) = self.queue.pop() {
                if t > self.end_time {
                    break;
                }
                self.time = t;
                self.events_processed += 1;
                match ev {
                    Ev::Control { node, from, msg } => {
                        self.settle(t);
                        let (msg, _) = self.msgs.take_tagged(msg);
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
                    Ev::ShortTermTick { node } => self.on_short_tick(node),
                    Ev::LongTermTick { node } => self.on_long_tick(node),
                    Ev::Scenario { index } => self.on_scenario(index),
                    // Packet-plane events are never scheduled in fluid
                    // mode; ignore any stragglers defensively.
                    _ => {}
                }
                if self.obs.is_some() {
                    self.observe_quiescence();
                }
                after_event(self);
            }
        }
        self.time = self.end_time;
        self.settle(self.end_time);

        // Finalize: round the f64 accumulators into packet counts once.
        let mut flow_stats: Vec<FlowStats> = Vec::with_capacity(self.acc.len());
        for acc in &mut self.acc {
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
        for (l, st) in self.link_stats.iter_mut().enumerate() {
            st.packets = self.link_pkts[l].round() as u64;
        }
        let mean_delays_ms: Vec<f64> = flow_stats.iter().map(|f| f.mean_delay() * 1000.0).collect();
        let delivered = flow_stats.iter().map(|f| f.delivered).sum();
        let dropped = flow_stats
            .iter()
            .map(|f| f.dropped_no_route + f.dropped_ttl + f.dropped_congestion)
            .sum();
        SimReport {
            flows: flow_stats,
            links: std::mem::take(&mut self.link_stats),
            series: std::mem::take(&mut self.series),
            mean_delays_ms,
            control_messages: self.ctl_msgs,
            control_bytes: self.ctl_bytes,
            delivered,
            dropped,
            duration: self.cfg.duration,
            events_processed: self.events_processed,
            robustness: self.auditor.take().map(|a| crate::RobustnessReport {
                invariant_checks: a.tally.checks,
                invariant_violations: a.tally.violations,
                first_violation: a.tally.first_violation,
                ..Default::default()
            }),
            telemetry: self.obs.take().map(|o| o.finish()),
            fluid: Some(self.work),
        }
    }

    /// Resolved flow on directed link `lid` (bits/s) — diagnostics and
    /// the cross-validation suite's worst-link error message.
    pub fn link_flow(&self, lid: LinkId) -> f64 {
        self.ftot[lid.index()]
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.time
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
            (0..sim.topo.node_count())
                .map(|i| d.row(&sim.row, i).iter().map(|&(k, l, w)| (k, l, w.to_bits())).collect())
                .collect()
        };
        sim.dags.iter().map(|d| (rows(d), d.order().to_vec())).collect()
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
        let nd = protocol.active_dests.len();
        assert!(protocol.keep_dags && protocol.dags.len() == nd);
        assert_eq!(protocol.work.dag_builds, nd as u64, "one build per destination, ever");
        protocol.mark_all_dirty();
        protocol.resolve();
        assert_eq!(protocol.work.dag_builds, nd as u64, "a resolve reuses them");
        assert_eq!(protocol.audit_dags(), Ok(()));

        let mut quiescent = ran(SimMode::FluidQuiescent);
        assert!(!quiescent.active_dests.is_empty());
        assert!(!quiescent.keep_dags && quiescent.dags.len() == 1);
        assert_eq!((quiescent.work.rows_written, quiescent.work.reorders), (0, 0));
        let before = quiescent.work;
        quiescent.mark_all_dirty();
        quiescent.resolve();
        assert_eq!(quiescent.work.dag_builds - before.dag_builds, nd as u64);
        assert_eq!(quiescent.work.reached_builds - before.reached_builds, nd as u64);
        // Fixed routing keeps its DAGs under either control plane.
        let fixed = fixed_sp(SimMode::FluidQuiescent);
        assert!(fixed.keep_dags && fixed.dags.len() == nd);
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
                        sim.old_epoch = old_epoch;
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
        sim.mark_all_dirty();
        sim.resolve();
        let builds = sim.work.dag_builds;
        // An allocator visit that moved nothing measurable rewrites one
        // row of one destination — to the same edges, so no re-order —
        // and dirties nothing.
        let (before, work) = (stored(&sim), sim.work);
        let j = sim.active_dests[1];
        let still = mdr_flow::AllocOutcome { shift: SHIFT_EPS / 2.0, ..Default::default() };
        sim.note_step(NodeId(0), Vec::new(), vec![(j, still)]);
        assert_eq!(sim.work.rows_written - work.rows_written, 1);
        assert!(sim.dags.iter().all(|d| d.order_ok()) && !sim.any_dirty);
        assert_eq!(stored(&sim), before);
        // A rate change moves no DAG.
        sim.apply_scenario(ScenarioEvent::SetFlowRate { flow: 0, rate: 1e6 });
        assert_eq!(sim.work.rows_written - work.rows_written, 1);
        assert!(sim.any_dirty);
        sim.resolve();
        // A link flip rewrites the tail router's row in every DAG (each
        // direction's tail, and whatever rows the two routers' reaction
        // moves), and only rows of those two routers change.
        let l = *sim.topo.link(LinkId(0));
        let (x, y) = (l.from.index(), l.to.index());
        let uses_link = |sim: &FluidSimulator| {
            sim.dags.iter().any(|d| d.row(&sim.row, x).iter().any(|e| e.1 == 0))
        };
        assert!(uses_link(&sim), "the flip below must remove an edge");
        for (ev, up) in [
            (ScenarioEvent::FailLink { a: l.from, b: l.to }, false),
            (ScenarioEvent::RestoreLink { a: l.from, b: l.to }, true),
        ] {
            let (before, work) = (stored(&sim), sim.work);
            sim.apply_scenario(ev);
            assert!(sim.work.rows_written - work.rows_written >= 2 * sim.dags.len() as u64);
            for (js, (was, now)) in before.iter().zip(stored(&sim)).enumerate() {
                for i in (0..sim.topo.node_count()).filter(|&i| i != x && i != y) {
                    assert_eq!(was.0[i], now.0[i], "slot {js}: row {i} is not the tail's");
                }
            }
            assert_eq!(sim.audit_dags(), Ok(()));
            assert!(up || !uses_link(&sim));
            sim.resolve();
        }
        assert_eq!(sim.work.dag_builds, builds, "nothing was ever rebuilt");
        assert!(sim.work.reorders > 0, "the lost edge re-ordered a DAG");
    }

    /// `set_link_up` alone (fixed routes: no router reacts) rewrites the
    /// tail router's row in every DAG and nothing else.
    #[test]
    fn a_link_flip_rewrites_only_the_tail_routers_rows() {
        let mut sim = fixed_sp(SimMode::Fluid);
        let t = sim.topo.clone();
        let carries = |d: &Dag, l: LinkId| {
            (0..t.node_count()).any(|i| d.row(&sim.row, i).iter().any(|e| e.1 == l.0))
        };
        let lid = (0..t.link_count() as u32)
            .map(LinkId)
            .find(|&l| sim.dags.iter().any(|d| carries(d, l)))
            .unwrap();
        let x = t.link(lid).from.index();
        let before = stored(&sim);
        sim.set_link_up(lid, false);
        assert_eq!(sim.work.rows_written, sim.dags.len() as u64);
        let mut moved = 0;
        for (was, now) in before.iter().zip(stored(&sim)) {
            for i in 0..t.node_count() {
                assert!(i == x || was.0[i] == now.0[i], "row {i} is not the tail's");
                moved += usize::from(was.0[i] != now.0[i]);
            }
        }
        assert!(moved > 0);
        assert_eq!(sim.audit_dags(), Ok(()));
        sim.set_link_up(lid, true);
        assert_eq!(stored(&sim).iter().map(|d| &d.0).collect::<Vec<_>>(), {
            before.iter().map(|d| &d.0).collect::<Vec<_>>()
        });
    }
}
